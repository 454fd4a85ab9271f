//! Model tests for the engine's sharded serving state
//! ([`spmv_engine::shard`]): single-flight conversion publication, the
//! epoch-ticket staleness protocol, one conversion per id and the
//! hit-first serve (only a flight leader plans), and the admission
//! flight of a claim that names no kind yet (it extracts and selects
//! itself), explored under the deterministic scheduler through the
//! production [`PlanTable::try_begin_build`] and
//! [`ShardedConversions::land`].
//!
//! Compiled only under `RUSTFLAGS="--cfg spmv_model_check"`.
#![cfg(spmv_model_check)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use spmv_check::Checker;
use spmv_core::CsrMatrix;
use spmv_engine::shard::{CachedFormat, Landed, Lookup, PlanState, PlanTable, ShardedConversions};
use spmv_formats::FormatKind;
use spmv_parallel::sync::thread;

fn tiny_format() -> CachedFormat {
    Arc::new(spmv_formats::build_format(FormatKind::NaiveCsr, &CsrMatrix::identity(2)).unwrap())
}

/// What the serves of one model execution did, counted the way the
/// engine counts a landing — except that a miss is counted by the build
/// itself, a plan by the plan closure and a feature pass by the select
/// closure, so the reconciliation below checks `land`'s classification
/// rather than restating it.
#[derive(Default)]
struct Tally {
    lookups: AtomicUsize,
    hits: AtomicUsize,
    coalesced: AtomicUsize,
    builds: AtomicUsize,
    plans: AtomicUsize,
    extractions: AtomicUsize,
    published: AtomicUsize,
}

impl Tally {
    fn get(n: &AtomicUsize) -> usize {
        n.load(Ordering::Relaxed)
    }

    fn bump(n: &AtomicUsize) -> usize {
        n.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Classifies one landing.
    fn count(&self, landed: Landed) {
        Self::bump(&self.lookups);
        match landed {
            Landed::Hit => Self::bump(&self.hits),
            Landed::Coalesced => Self::bump(&self.coalesced),
            Landed::Built { published: true, .. } => Self::bump(&self.published),
            Landed::Built { .. } => 0,
        };
    }

    /// A feature pass and the selection it feeds.
    fn extract(&self) -> FormatKind {
        Self::bump(&self.extractions);
        FormatKind::NaiveCsr
    }

    /// A counted build whose format names its build number in its row
    /// count, so a resident format tells which build it came from.
    fn build(&self, kind: FormatKind) -> (CachedFormat, FormatKind, usize) {
        let n = Self::bump(&self.builds);
        let fmt = spmv_formats::build_format(kind, &CsrMatrix::identity(n)).unwrap();
        (Arc::new(fmt), kind, 0)
    }

    /// `hits + misses + coalesced == lookups`, and every leader — and
    /// no one else — planned once.
    fn assert_reconciles(&self) {
        let (lookups, hits, coalesced) =
            (Self::get(&self.lookups), Self::get(&self.hits), Self::get(&self.coalesced));
        let builds = Self::get(&self.builds);
        assert_eq!(hits + builds + coalesced, lookups, "a lookup misclassified");
        assert_eq!(Self::get(&self.plans), builds, "a hit or a waiter planned");
    }
}

/// A synchronous serve as `Engine::serve` makes it: the production
/// `land` without a ticket, the plan named lazily through the
/// production `get_or_insert_with`.
fn sync_serve(plans: &PlanTable, conv: &ShardedConversions, tally: &Tally) -> CachedFormat {
    let plan = || {
        Tally::bump(&tally.plans);
        plans.get_or_insert_with("m", || tally.extract())
    };
    let (fmt, _, landed) = conv.land(plans, "m", plan, None, |kind| tally.build(kind));
    tally.count(landed);
    fmt
}

/// An admission flight as `run_admission` flies one: the production
/// `land` with the claim's ticket, naming the claimed kind — or, for a
/// claim that named none, running `select` — only as the id's
/// conversion leader; on every exit (a panic included) the production
/// `abort_build` and the release of the flight's admission slot.
fn flight(
    plans: &PlanTable,
    conv: &ShardedConversions,
    (kind, epoch): (Option<FormatKind>, u64),
    tally: &Tally,
    slots: &AtomicUsize,
    select: impl Fn() -> FormatKind,
) {
    struct Slot<'a>(&'a PlanTable, u64, &'a AtomicUsize);
    impl Drop for Slot<'_> {
        fn drop(&mut self) {
            self.0.abort_build("m", self.1);
            self.2.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let _slot = Slot(plans, epoch, slots);
    let plan = || {
        Tally::bump(&tally.plans);
        kind.unwrap_or_else(&select)
    };
    let (_, _, landed) = conv.land(plans, "m", plan, Some(epoch), |kind| tally.build(kind));
    tally.count(landed);
}

/// A cold asynchronous serve as `Engine::serve_async` makes it: a
/// resident id is a hit; otherwise reserve a slot, claim, re-check
/// residency, and fly (inline: the scheduler delays it at will).
fn async_serve(plans: &PlanTable, conv: &ShardedConversions, tally: &Tally, slots: &AtomicUsize) {
    if conv.peek("m").is_some() {
        return tally.count(Landed::Hit);
    }
    slots.fetch_add(1, Ordering::Relaxed);
    let Some(claim) = plans.try_begin_build("m") else {
        slots.fetch_sub(1, Ordering::Relaxed);
        return;
    };
    if let Some((_, actual)) = conv.peek("m") {
        plans.finish_build("m", claim.1, actual);
        slots.fetch_sub(1, Ordering::Relaxed);
        return;
    }
    flight(plans, conv, claim, tally, slots, || tally.extract());
}

/// The serving state at the start of an unplanned flight: an absent
/// id claimed by the first cold asynchronous request, its slot held.
fn unplanned_claim() -> (Arc<PlanTable>, Arc<ShardedConversions>, (Option<FormatKind>, u64)) {
    let plans = Arc::new(PlanTable::new(8, 1));
    let claim = plans.try_begin_build("m").expect("an absent id is claimable");
    assert_eq!((claim.0, plans.get("m")), (None, Some(PlanState::Building(None))));
    (plans, Arc::new(ShardedConversions::new(1 << 20, 1)), claim)
}

/// Exactly-once flight publication: three claimants race a cold id
/// through the register's own `begin`/`finish` (the API the benchmark's
/// hot-path twin files formats with). The single-flight register must
/// elect exactly one leader (one conversion is built) while every
/// claimant — leader, waiters, and late hitters — comes back with the
/// format.
#[test]
fn flight_publication_is_exactly_once_under_racing_claimants() {
    let report = Checker::dfs().preemption_bound(None).max_schedules(30_000).check(|| {
        let conv = Arc::new(ShardedConversions::new(1 << 20, 1));
        let leads = Arc::new(AtomicUsize::new(0));
        let claim = |conv: Arc<ShardedConversions>, leads: Arc<AtomicUsize>| match conv
            .begin("m", FormatKind::NaiveCsr)
        {
            Lookup::Hit(_, kind) => assert_eq!(kind, FormatKind::NaiveCsr),
            Lookup::Wait(flight) => {
                let (_, kind) = flight.wait().expect("leader never abandons here");
                assert_eq!(kind, FormatKind::NaiveCsr);
            }
            Lookup::Lead(guard) => {
                leads.fetch_add(1, Ordering::Relaxed);
                guard.finish(tiny_format(), FormatKind::NaiveCsr);
            }
        };
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let (c, l) = (Arc::clone(&conv), Arc::clone(&leads));
                thread::spawn(move || claim(c, l))
            })
            .collect();
        claim(Arc::clone(&conv), Arc::clone(&leads));
        for r in racers {
            r.join().unwrap();
        }
        assert_eq!(leads.load(Ordering::Relaxed), 1, "conversion must build exactly once");
        assert_eq!(conv.len(), 1, "exactly one entry resident after the race");
    });
    report.assert_ok();
    assert!(report.schedules >= 1_000, "insufficient exploration: {} schedules", report.schedules);
}

/// Epoch-ticket staleness: a build flight claimed before a
/// `remove` + `forget` + re-admission of its id must never finish into
/// the successor plan or re-populate the conversion cache — whatever
/// order the flight's publication interleaves with the forgetter.
#[test]
fn stale_flight_never_resurrects_a_forgotten_plan() {
    let report = Checker::dfs().preemption_bound(None).max_schedules(30_000).check(|| {
        let plans = Arc::new(PlanTable::new(8, 1));
        let conv = Arc::new(ShardedConversions::new(1 << 20, 1));
        plans.insert_pending("m", FormatKind::NaiveCsr);
        let Some((Some(kind), epoch)) = plans.try_begin_build("m") else {
            panic!("a pending plan is claimable under its kind")
        };

        // The admission flight, racing the forgetter below.
        let builder = {
            let (p, c) = (Arc::clone(&plans), Arc::clone(&conv));
            thread::spawn(move || {
                c.land(&p, "m", || kind, Some(epoch), |kind| (tiny_format(), kind, 0));
            })
        };
        // Forget the matrix mid-flight, then re-admit it under a
        // different plan — the flight's ticket is now stale.
        let forgetter = {
            let (p, c) = (Arc::clone(&plans), Arc::clone(&conv));
            thread::spawn(move || {
                p.remove("m");
                c.forget("m");
                p.insert_pending("m", FormatKind::Coo);
            })
        };
        // An assert-free reader widens the explored interleavings.
        let reader = {
            let (p, c) = (Arc::clone(&plans), Arc::clone(&conv));
            thread::spawn(move || {
                let _ = p.get("m");
                let _ = c.peek("m");
                let _ = p.get("m");
                let _ = c.peek("m");
            })
        };
        builder.join().unwrap();
        forgetter.join().unwrap();
        reader.join().unwrap();

        // Whatever the interleaving: the re-admitted plan is still
        // the forgetter's Pending(Coo) — a stale finish_build must
        // not pin it — and no conversion of the forgotten epoch is
        // resident.
        assert_eq!(
            plans.get("m"),
            Some(PlanState::Pending(FormatKind::Coo)),
            "stale flight touched the successor plan"
        );
        assert!(conv.peek("m").is_none(), "stale conversion resident");
        assert_eq!(conv.bytes_resident(), 0, "forgotten bytes still accounted");
    });
    report.assert_ok();
    assert!(report.schedules >= 1_000, "insufficient exploration: {} schedules", report.schedules);
}

/// The window a per-kind cache left open, closed by one conversion per
/// id: a `land` whose build refuses the planned ELL and builds the CSR
/// fallback races a reader that `land`s with the refused kind (a plan
/// read before the re-pin). Whichever leads, the conversion builds
/// once, one entry is resident, both get the fallback, and the plan ends
/// pinned to it.
#[test]
fn a_stale_refused_kind_lands_on_the_fallback() {
    let report = Checker::dfs().preemption_bound(None).max_schedules(30_000).check(|| {
        let plans = Arc::new(PlanTable::new(8, 1));
        let conv = Arc::new(ShardedConversions::new(1 << 20, 1));
        let builds = Arc::new(AtomicUsize::new(0));
        plans.insert_pending("m", FormatKind::Ell);
        // ELL refuses the matrix; CSR accepts it.
        let landers: Vec<_> = (0..2)
            .map(|_| {
                let (p, c, b) = (Arc::clone(&plans), Arc::clone(&conv), Arc::clone(&builds));
                thread::spawn(move || {
                    let (_, kind, _) = c.land(
                        &p,
                        "m",
                        || FormatKind::Ell,
                        None,
                        |_| {
                            b.fetch_add(1, Ordering::Relaxed);
                            (tiny_format(), FormatKind::NaiveCsr, 1)
                        },
                    );
                    assert_eq!(kind, FormatKind::NaiveCsr, "a stale reader got the refused kind");
                })
            })
            .collect();
        // An assert-free reader widens the explored interleavings.
        let reader = {
            let (p, c) = (Arc::clone(&plans), Arc::clone(&conv));
            thread::spawn(move || {
                let _ = p.get("m");
                let _ = c.peek("m");
            })
        };
        for t in landers {
            t.join().unwrap();
        }
        reader.join().unwrap();

        assert_eq!(builds.load(Ordering::Relaxed), 1, "the refused kind converted twice");
        assert_eq!(conv.len(), 1, "exactly one entry resident for the id");
        assert_eq!(
            plans.get("m"),
            Some(PlanState::Pinned(FormatKind::NaiveCsr)),
            "plan must end pinned to the fallback"
        );
    });
    report.assert_ok();
    assert!(report.schedules >= 1_000, "insufficient exploration: {} schedules", report.schedules);
}

/// Hit before plan, against a ticketed flight: two synchronous serves
/// of a cold id race the background admission flight that claimed its
/// plan. Whoever leads, the id builds once, every caller gets that one
/// format, only a leading serve plans, and the plan ends pinned.
#[test]
fn lazy_plan_sync_serves_race_a_ticketed_flight_onto_one_build() {
    let report = Checker::dfs().preemption_bound(None).max_schedules(30_000).check(|| {
        let plans = Arc::new(PlanTable::new(8, 1));
        let conv = Arc::new(ShardedConversions::new(1 << 20, 1));
        let (tally, flight_builds) = (Arc::new(Tally::default()), Arc::new(AtomicUsize::new(0)));
        plans.insert_pending("m", FormatKind::NaiveCsr);
        let Some((Some(kind), epoch)) = plans.try_begin_build("m") else {
            panic!("a pending plan is claimable under its kind")
        };

        let flight = {
            let (p, c, b) = (Arc::clone(&plans), Arc::clone(&conv), Arc::clone(&flight_builds));
            thread::spawn(move || {
                let (fmt, _, _) = c.land(
                    &p,
                    "m",
                    || kind,
                    Some(epoch),
                    |kind| {
                        b.fetch_add(1, Ordering::Relaxed);
                        (tiny_format(), kind, 0)
                    },
                );
                fmt
            })
        };
        let server = {
            let (p, c, t) = (Arc::clone(&plans), Arc::clone(&conv), Arc::clone(&tally));
            thread::spawn(move || sync_serve(&p, &c, &t))
        };
        let here = sync_serve(&plans, &conv, &tally);
        let (flown, served) = (flight.join().unwrap(), server.join().unwrap());

        tally.assert_reconciles();
        let builds = Tally::get(&tally.builds) + Tally::get(&flight_builds);
        assert_eq!(builds, 1, "the id built more than once");
        assert!(Arc::ptr_eq(&flown, &served) && Arc::ptr_eq(&served, &here), "two formats");
        assert_eq!(conv.len(), 1, "exactly one entry resident");
        assert_eq!(plans.get("m"), Some(PlanState::Pinned(kind)), "the plan must end pinned");
    });
    report.assert_ok();
    assert!(report.schedules >= 1_000, "insufficient exploration: {} schedules", report.schedules);
}

/// Hit before plan, against `forget`: the id is resident when a
/// client serving twice races a forgetter that then serves the id.
/// The racing serves may still hit the pre-forget format, but the serve
/// started after `forget` returned never does; the new incarnation
/// builds exactly once, and every lookup is classified once.
#[test]
fn no_serve_after_forget_sees_the_pre_forget_format() {
    let report = Checker::dfs().preemption_bound(None).max_schedules(30_000).check(|| {
        let plans = Arc::new(PlanTable::new(8, 1));
        let conv = Arc::new(ShardedConversions::new(1 << 20, 1));
        let tally = Arc::new(Tally::default());
        let old = sync_serve(&plans, &conv, &Tally::default());

        let server = {
            let (p, c, t) = (Arc::clone(&plans), Arc::clone(&conv), Arc::clone(&tally));
            thread::spawn(move || {
                sync_serve(&p, &c, &t);
                sync_serve(&p, &c, &t);
            })
        };
        let forgetter = {
            let (p, c, t) = (Arc::clone(&plans), Arc::clone(&conv), Arc::clone(&tally));
            let old = Arc::clone(&old);
            thread::spawn(move || {
                p.remove("m");
                c.forget("m");
                let fmt = sync_serve(&p, &c, &t);
                assert!(!Arc::ptr_eq(&fmt, &old), "a post-forget serve got the forgotten format");
            })
        };
        server.join().unwrap();
        forgetter.join().unwrap();

        tally.assert_reconciles();
        assert_eq!(Tally::get(&tally.builds), 1, "the new incarnation built more than once");
        let resident = conv.peek("m").expect("the new incarnation is resident");
        assert!(!Arc::ptr_eq(&resident.0, &old), "the forgotten format is resident");
        assert_eq!(conv.len(), 1);
        assert_eq!(plans.get("m"), Some(PlanState::Pinned(FormatKind::NaiveCsr)));
    });
    report.assert_ok();
    // Small enough to explore every interleaving.
    assert!(report.exhausted, "unexplored interleavings after {} schedules", report.schedules);
}

/// The asynchronous first touch: the flight of a claim that names no
/// kind races a second asynchronous claim and a synchronous leader that
/// plans through `get_or_insert_with`. Whoever leads, the id is planned
/// once — one feature pass — and built once, the plan ends
/// `Pinned(actual)`, every lookup is classified once and every slot is
/// released.
#[test]
fn an_unplanned_flight_races_a_second_claim_and_a_sync_leader() {
    let report = Checker::dfs().preemption_bound(Some(3)).max_schedules(100_000).check(|| {
        let (plans, conv, claim) = unplanned_claim();
        let (tally, slots) = (Arc::new(Tally::default()), Arc::new(AtomicUsize::new(1)));
        let flown = {
            let (p, c, t, n) = (plans.clone(), conv.clone(), tally.clone(), slots.clone());
            thread::spawn(move || flight(&p, &c, claim, &t, &n, || t.extract()))
        };
        let second = {
            let (p, c, t, n) = (plans.clone(), conv.clone(), tally.clone(), slots.clone());
            thread::spawn(move || async_serve(&p, &c, &t, &n))
        };
        sync_serve(&plans, &conv, &tally);
        flown.join().unwrap();
        second.join().unwrap();

        tally.assert_reconciles();
        assert_eq!(Tally::get(&tally.builds), 1, "the id built more than once");
        assert_eq!(Tally::get(&tally.extractions), 1, "the id was extracted more than once");
        assert_eq!(conv.len(), 1, "exactly one entry resident");
        assert_eq!(plans.get("m"), Some(PlanState::Pinned(FormatKind::NaiveCsr)));
        assert_eq!(slots.load(Ordering::Relaxed), 0, "a slot leaked");
    });
    report.assert_ok();
    assert!(report.exhausted, "unexplored interleavings after {} schedules", report.schedules);
}

/// The same race with a `forget` thrown in. There are now two
/// incarnations, so at most two published builds; a flight whose claim
/// the forget made stale may still lead and build, but its publication
/// is vetoed. Only leaders plan, one feature pass per plan at most; no
/// conversion built before the forget is resident after it; and the
/// plan is never left `Building`. It ends `Pinned(actual)`, `Pending`
/// (a synchronous leader's plan that outlived its vetoed publication)
/// or absent — the last also beside a resident conversion, when an
/// aborted unplanned claim was removed under a synchronous leader that
/// planned for itself: the id then serves its conversion, as it does
/// after a plan eviction.
#[test]
fn an_unplanned_flight_racing_forget_resurrects_nothing() {
    let report = Checker::dfs().preemption_bound(Some(3)).max_schedules(100_000).check(|| {
        let (plans, conv, claim) = unplanned_claim();
        let (tally, slots) = (Arc::new(Tally::default()), Arc::new(AtomicUsize::new(1)));
        let racers = [
            {
                let (p, c, t, n) = (plans.clone(), conv.clone(), tally.clone(), slots.clone());
                thread::spawn(move || flight(&p, &c, claim, &t, &n, || t.extract()))
            },
            {
                let (p, c, t, n) = (plans.clone(), conv.clone(), tally.clone(), slots.clone());
                thread::spawn(move || async_serve(&p, &c, &t, &n))
            },
            {
                let (p, c, t) = (plans.clone(), conv.clone(), tally.clone());
                thread::spawn(move || drop(sync_serve(&p, &c, &t)))
            },
        ];
        let before_forget = Tally::get(&tally.builds);
        plans.remove("m");
        conv.forget("m");
        for r in racers {
            r.join().unwrap();
        }

        tally.assert_reconciles();
        assert!(Tally::get(&tally.published) <= 2, "more than one publication per incarnation");
        assert!(Tally::get(&tally.extractions) <= Tally::get(&tally.plans));
        assert_eq!(slots.load(Ordering::Relaxed), 0, "a slot leaked");
        let resident = conv.peek("m");
        if let Some((fmt, _)) = &resident {
            assert!(fmt.rows() > before_forget, "a pre-forget build resurrected");
        }
        let plan = plans.get("m");
        assert!(!matches!(plan, Some(PlanState::Building(_))), "the plan was left {plan:?}");
        if let Some(PlanState::Pinned(kind)) = plan {
            assert_eq!(kind, FormatKind::NaiveCsr);
        }
    });
    report.assert_ok();
    assert!(report.exhausted, "unexplored interleavings after {} schedules", report.schedules);
}

/// A flight whose plan panics — its feature pass or selection failing —
/// leaves no entry, releases its slot and abandons its conversion
/// flight, so the next serve of the id plans and builds it once. Run on
/// real threads, outside the scheduler: a model thread's panic is a
/// violation, and an unwinding thread leaves the scheduler.
#[test]
fn an_unplanned_flight_whose_plan_panics_leaves_no_entry() {
    let (plans, conv, claim) = unplanned_claim();
    let (tally, slots) = (Tally::default(), AtomicUsize::new(1));
    let flown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        flight(&plans, &conv, claim, &tally, &slots, || panic!("injected feature-pass fault"))
    }));
    assert!(flown.is_err(), "the fault propagates to the flight's runner");
    assert_eq!(plans.get("m"), None, "an aborted unplanned claim made up a kind");
    assert_eq!(slots.load(Ordering::Relaxed), 0, "the slot leaked");
    assert!(conv.is_empty());

    sync_serve(&plans, &conv, &tally);
    assert_eq!((Tally::get(&tally.builds), Tally::get(&tally.extractions)), (1, 1));
    assert_eq!(plans.get("m"), Some(PlanState::Pinned(FormatKind::NaiveCsr)));
}
