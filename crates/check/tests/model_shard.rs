//! Model tests for the engine's sharded serving state
//! ([`spmv_engine::shard`]): one claim per id. A flight is registered
//! by the production [`ShardedConversions::claim`] (an `Async` cold
//! request, whose registration a job then
//! [`lead`](ShardedConversions::lead)s) or inside
//! [`ShardedConversions::land`] (every synchronous caller), and
//! publishes its conversion and its plan in one critical section that a
//! `forget` serializes with. Explored under the deterministic
//! scheduler: exactly-once publication among racing claimants, a stale
//! refused kind landing on the fallback, hit-first serving (only a
//! leader plans), and `forget` against a flight in every order.
//!
//! Compiled only under `RUSTFLAGS="--cfg spmv_model_check"`.
#![cfg(spmv_model_check)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use spmv_check::Checker;
use spmv_core::CsrMatrix;
use spmv_engine::shard::{
    CachedFormat, Claim, Landed, Lookup, PlanTable, Registration, ShardedConversions,
};
use spmv_formats::FormatKind;
use spmv_parallel::sync::thread::{self, JoinHandle};

fn tiny_format() -> CachedFormat {
    Arc::new(spmv_formats::build_format(FormatKind::NaiveCsr, &CsrMatrix::identity(2)).unwrap())
}

/// What the serves of one model execution did, counted the way the
/// engine counts a landing — except that a miss is counted by the build
/// itself, a plan by the plan closure and a feature pass by the select
/// closure, so the reconciliation below checks the production
/// classification rather than restating it.
#[derive(Default)]
struct Tally {
    lookups: AtomicUsize,
    hits: AtomicUsize,
    coalesced: AtomicUsize,
    builds: AtomicUsize,
    plans: AtomicUsize,
    extractions: AtomicUsize,
    published: AtomicUsize,
    /// Admission slots held (`max_in_flight`'s count).
    slots: AtomicUsize,
}

fn get(n: &AtomicUsize) -> usize {
    n.load(Ordering::Relaxed)
}

fn bump(n: &AtomicUsize) -> usize {
    n.fetch_add(1, Ordering::Relaxed) + 1
}

/// Joins every racer, propagating a failure.
fn join<const N: usize>(racers: [JoinHandle<()>; N]) {
    for r in racers {
        r.join().unwrap();
    }
}

/// One model execution's serving state — the production tables for id
/// `"m"` and the tally of what the serves did — shared by cloning.
#[derive(Clone)]
struct State {
    plans: Arc<PlanTable>,
    conv: Arc<ShardedConversions>,
    tally: Arc<Tally>,
}

impl State {
    fn new() -> Self {
        let plans = Arc::new(PlanTable::new(8, 1));
        State { plans, conv: Arc::new(ShardedConversions::new(1 << 20, 1)), tally: Arc::default() }
    }

    /// The state at the start of a queued flight: a cold id whose first
    /// asynchronous request registered its flight, its slot held.
    fn queued() -> (Self, Registration) {
        let st = State::new();
        let Claim::Registered(reg) = st.conv.claim("m", || st.reserve()) else {
            panic!("a cold id registers")
        };
        (st, reg)
    }

    /// Runs `f` on a model thread of its own, sharing this state.
    fn spawn<T: Send + 'static>(
        &self,
        f: impl FnOnce(&State) -> T + Send + 'static,
    ) -> JoinHandle<T> {
        let st = self.clone();
        thread::spawn(move || f(&st))
    }

    /// An assert-free reader, which widens the explored interleavings.
    fn reader(&self) -> JoinHandle<()> {
        self.spawn(|st| {
            let _ = st.plans.get("m");
            let _ = st.unclaimed();
        })
    }

    /// Whether nothing is resident and no flight registered: a claim
    /// that may not register answers `Declined` only then.
    fn unclaimed(&self) -> bool {
        matches!(self.conv.claim("m", || false), Claim::Declined)
    }

    /// Classifies one landing.
    fn count(&self, landed: Landed) {
        bump(&self.tally.lookups);
        match landed {
            Landed::Hit => bump(&self.tally.hits),
            Landed::Coalesced => bump(&self.tally.coalesced),
            Landed::Built { published: true, .. } => bump(&self.tally.published),
            Landed::Built { .. } => 0,
        };
    }

    /// A feature pass and the selection it feeds.
    fn extract(&self) -> FormatKind {
        bump(&self.tally.extractions);
        FormatKind::NaiveCsr
    }

    /// A leader's plan as `ServeState::plan` makes it: the table's kind,
    /// else `select`.
    fn plan(&self, select: impl FnOnce() -> FormatKind) -> FormatKind {
        bump(&self.tally.plans);
        self.plans.get("m").unwrap_or_else(select)
    }

    /// A counted build whose format names its build number in its row
    /// count, so a resident format tells which build it came from.
    fn build(&self, kind: FormatKind) -> (CachedFormat, FormatKind, usize) {
        let n = bump(&self.tally.builds);
        let fmt = spmv_formats::build_format(kind, &CsrMatrix::identity(n)).unwrap();
        (Arc::new(fmt), kind, 0)
    }

    /// `Async`'s reservation under the claim's lock: one slot, as an
    /// engine with `max_in_flight: 1` takes it.
    fn reserve(&self) -> bool {
        let slots = &self.tally.slots;
        slots
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n < 1).then_some(n + 1))
            .is_ok()
    }

    /// A synchronous serve as `ServeState::land` makes it: the
    /// production `land`, planning from the table or a feature pass.
    fn sync_serve(&self) -> CachedFormat {
        let plan = |_: &str| self.plan(|| self.extract());
        let (fmt, _, landed) = self.conv.land(&self.plans, "m", plan, |kind| self.build(kind));
        self.count(landed);
        fmt
    }

    /// An admission job as `run_admission` runs one: the production
    /// `lead` of its registration, counting the landing of a job that
    /// led, and releasing the slot.
    fn job(&self, reg: Registration) {
        let plan = |_: &str| self.plan(|| self.extract());
        if let Some((_, _, landed)) = self.conv.lead(&self.plans, reg, plan, |k| self.build(k)) {
            self.count(landed);
        }
        self.tally.slots.fetch_sub(1, Ordering::Relaxed);
    }

    /// A cold asynchronous serve as `Engine::serve_async` makes it: one
    /// production `claim`, which reserves a slot only when it registers;
    /// a registration is flown inline (the scheduler delays it at will).
    fn async_serve(&self) {
        match self.conv.claim("m", || self.reserve()) {
            Claim::Hit(..) => self.count(Landed::Hit),
            Claim::Registered(reg) => self.job(reg),
            Claim::Flight(_) | Claim::Declined => {}
        }
    }

    /// `hits + misses + coalesced == lookups`, every leader — and no
    /// one else — planned once, and every slot was released.
    fn assert_reconciles(&self) {
        let t = &self.tally;
        let builds = get(&t.builds);
        assert_eq!(get(&t.hits) + builds + get(&t.coalesced), get(&t.lookups), "misclassified");
        assert_eq!(get(&t.plans), builds, "a hit, a waiter or a withdrawn job planned");
        assert_eq!(get(&t.slots), 0, "a slot leaked");
    }
}

/// Exactly-once flight publication through the register's own
/// `begin`/`finish` (the API the benchmark's hot-path twin files
/// formats with): three claimants race a cold id. The register must
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

/// Exactly-once publication through the production claims: two cold
/// asynchronous serves and a synchronous serve race an id nobody has
/// touched. Whichever registers leads; the others wait, pass or hit.
/// The id is planned once — one feature pass — and built once, the
/// plan ends naming the built kind, every lookup is classified once and
/// every slot is released.
#[test]
fn racing_cold_claimants_publish_exactly_once() {
    let report = Checker::dfs().preemption_bound(None).max_schedules(100_000).check(|| {
        let st = State::new();
        let racers = [st.spawn(State::async_serve), st.spawn(State::async_serve)];
        st.sync_serve();
        join(racers);

        st.assert_reconciles();
        let t = &st.tally;
        assert_eq!((get(&t.builds), get(&t.extractions), get(&t.published)), (1, 1, 1));
        assert_eq!(st.conv.len(), 1, "exactly one entry resident");
        assert_eq!(st.plans.get("m"), Some(FormatKind::NaiveCsr));
    });
    report.assert_ok();
    assert!(report.exhausted, "unexplored interleavings after {} schedules", report.schedules);
    assert!(report.schedules >= 1_000, "insufficient exploration: {} schedules", report.schedules);
}

/// `forget` against a flight registered before it: the queued job, its
/// build and its publication interleave with the forgetter in every
/// order (and with a reader). A forget before the job starts withdraws
/// the registration and the job exits before it plans; a forget during
/// the build withdraws it and the publication is vetoed; a forget after
/// the publication drops the entry and the plan. Afterwards nothing is
/// resident, no plan names the id and no flight is registered.
#[test]
fn forget_against_a_queued_claim_its_build_and_its_publication() {
    let report = Checker::dfs().preemption_bound(None).max_schedules(30_000).check(|| {
        let (st, reg) = State::queued();
        let racers = [
            st.spawn(move |st| st.job(reg)),
            st.spawn(|st| {
                st.conv.forget(&st.plans, "m");
            }),
            st.reader(),
        ];
        join(racers);

        st.assert_reconciles();
        assert!(get(&st.tally.builds) <= 1);
        assert_eq!(st.plans.get("m"), None, "a withdrawn flight planned the forgotten id");
        assert!(st.unclaimed(), "a conversion or a flight outlived the forget");
        assert_eq!(st.conv.bytes_resident(), 0, "forgotten bytes still accounted");
    });
    report.assert_ok();
    assert!(report.exhausted, "unexplored interleavings after {} schedules", report.schedules);
    assert!(report.schedules >= 1_000, "insufficient exploration: {} schedules", report.schedules);
}

/// The window a per-kind cache left open, closed by one conversion per
/// id: a `land` whose build refuses the planned ELL and builds the CSR
/// fallback races a reader that `land`s with the refused kind (a plan
/// read before the pin). Whichever leads, the conversion builds once,
/// one entry is resident, both get the fallback, and the plan ends
/// pinned to it.
#[test]
fn a_stale_refused_kind_lands_on_the_fallback() {
    let report = Checker::dfs().preemption_bound(None).max_schedules(30_000).check(|| {
        let st = State::new();
        st.plans.insert_pending("m", FormatKind::Ell);
        // ELL refuses the matrix; CSR accepts it.
        let land = |st: &State| {
            let (_, kind, _) = st.conv.land(
                &st.plans,
                "m",
                |_| FormatKind::Ell,
                |_| (st.build(FormatKind::NaiveCsr).0, FormatKind::NaiveCsr, 1),
            );
            assert_eq!(kind, FormatKind::NaiveCsr, "a stale reader got the refused kind");
        };
        join([st.spawn(land), st.spawn(land), st.reader()]);

        assert_eq!(get(&st.tally.builds), 1, "the refused kind converted twice");
        assert_eq!(st.conv.len(), 1, "exactly one entry resident for the id");
        assert_eq!(st.plans.get("m"), Some(FormatKind::NaiveCsr), "not pinned to the fallback");
    });
    report.assert_ok();
    assert!(report.schedules >= 1_000, "insufficient exploration: {} schedules", report.schedules);
}

/// A synchronous caller finds a queued flight and waits for it: two
/// synchronous serves of a cold id race the job of the flight its first
/// asynchronous request registered. The job leads and no serve does —
/// the id builds once, every caller gets that one format, only the job
/// plans, and the plan ends pinned.
#[test]
fn sync_serves_wait_for_a_queued_flight() {
    let report = Checker::dfs().preemption_bound(None).max_schedules(30_000).check(|| {
        let (st, reg) = State::queued();
        let flown = st.spawn(move |st| st.job(reg));
        let server = st.spawn(State::sync_serve);
        let here = st.sync_serve();
        flown.join().unwrap();
        let served = server.join().unwrap();

        st.assert_reconciles();
        assert_eq!(get(&st.tally.builds), 1, "the id built more than once");
        assert_eq!(get(&st.tally.published), 1, "the job did not publish");
        assert!(Arc::ptr_eq(&served, &here), "two formats");
        assert_eq!(st.conv.len(), 1, "exactly one entry resident");
        assert_eq!(st.plans.get("m"), Some(FormatKind::NaiveCsr), "the plan must end pinned");
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
    let report = Checker::dfs().preemption_bound(Some(3)).max_schedules(100_000).check(|| {
        let st = State::new();
        let old = State { tally: Arc::default(), ..st.clone() }.sync_serve();
        let forgotten = Arc::clone(&old);
        let racers = [
            st.spawn(|st| {
                st.sync_serve();
                st.sync_serve();
            }),
            st.spawn(move |st| {
                st.conv.forget(&st.plans, "m");
                let fmt = st.sync_serve();
                assert!(
                    !Arc::ptr_eq(&fmt, &forgotten),
                    "a post-forget serve got the forgotten one"
                );
            }),
            st.reader(),
        ];
        join(racers);

        st.assert_reconciles();
        assert_eq!(get(&st.tally.builds), 1, "the new incarnation built more than once");
        let Claim::Hit(resident, _) = st.conv.claim("m", || false) else {
            panic!("the new incarnation is resident")
        };
        assert!(!Arc::ptr_eq(&resident, &old), "the forgotten format is resident");
        assert_eq!(st.conv.len(), 1);
        assert_eq!(st.plans.get("m"), Some(FormatKind::NaiveCsr));
    });
    report.assert_ok();
    assert!(report.exhausted, "unexplored interleavings after {} schedules", report.schedules);
    assert!(report.schedules >= 1_000, "insufficient exploration: {} schedules", report.schedules);
}

/// The asynchronous first touch: the job of a queued flight races a
/// second asynchronous request and a synchronous serve. The job leads
/// whoever runs first; the id is planned once — one feature pass — and
/// built once, the plan ends naming the built kind, every lookup is
/// classified once and every slot is released.
#[test]
fn a_queued_flight_races_a_second_claim_and_a_sync_serve() {
    let report = Checker::dfs().preemption_bound(Some(3)).max_schedules(100_000).check(|| {
        let (st, reg) = State::queued();
        let racers = [st.spawn(move |st| st.job(reg)), st.spawn(State::async_serve), st.reader()];
        st.sync_serve();
        join(racers);

        st.assert_reconciles();
        assert_eq!(get(&st.tally.builds), 1, "the id built more than once");
        assert_eq!(get(&st.tally.extractions), 1, "the id was extracted more than once");
        assert_eq!(st.conv.len(), 1, "exactly one entry resident");
        assert_eq!(st.plans.get("m"), Some(FormatKind::NaiveCsr));
    });
    report.assert_ok();
    assert!(report.exhausted, "unexplored interleavings after {} schedules", report.schedules);
    assert!(report.schedules >= 1_000, "insufficient exploration: {} schedules", report.schedules);
}

/// The same race with a `forget` thrown in. There are now two
/// incarnations, so at most two publications; a flight registered
/// before the forget may still build, but publishes nothing. Only
/// leaders plan, one feature pass per plan at most; no conversion built
/// before the forget is resident after it; and the plan and the
/// conversion come and go together — the id is planned exactly when a
/// conversion of it is resident.
#[test]
fn a_queued_flight_racing_forget_resurrects_nothing() {
    let report = Checker::dfs().preemption_bound(Some(3)).max_schedules(100_000).check(|| {
        let (st, reg) = State::queued();
        let racers = [
            st.spawn(move |st| st.job(reg)),
            st.spawn(State::async_serve),
            st.spawn(|st| {
                st.sync_serve();
            }),
        ];
        let before_forget = get(&st.tally.builds);
        st.conv.forget(&st.plans, "m");
        join(racers);

        st.assert_reconciles();
        let t = &st.tally;
        assert!(get(&t.published) <= 2, "more than one publication per incarnation");
        assert!(get(&t.extractions) <= get(&t.plans));
        let resident = match st.conv.claim("m", || false) {
            Claim::Hit(fmt, _) => Some(fmt),
            Claim::Declined => None,
            _ => panic!("a flight outlived every racer"),
        };
        if let Some(fmt) = &resident {
            assert!(fmt.rows() > before_forget, "a pre-forget build resurrected");
        }
        let plan = st.plans.get("m");
        assert_eq!(plan.is_some(), resident.is_some(), "plan {plan:?} without its conversion");
        assert!(plan.is_none() || plan == Some(FormatKind::NaiveCsr));
    });
    report.assert_ok();
    assert!(report.exhausted, "unexplored interleavings after {} schedules", report.schedules);
    assert!(report.schedules >= 1_000, "insufficient exploration: {} schedules", report.schedules);
}

/// A claim whose plan panics — its feature pass or selection failing —
/// leaves no entry, no plan and no registration: the guard abandons the
/// flight, so the next serve of the id plans and builds it once. Run on
/// real threads, outside the scheduler: a model thread's panic is a
/// violation, and an unwinding thread leaves the scheduler.
#[test]
fn a_claim_whose_plan_panics_leaves_no_entry_and_no_registration() {
    let (st, reg) = State::queued();
    let Claim::Flight(flight) = st.conv.claim("m", || st.reserve()) else {
        panic!("the id's flight is registered")
    };
    let led = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        st.conv.lead(&st.plans, reg, |_| panic!("injected feature-pass fault"), |k| st.build(k))
    }));
    assert!(led.is_err(), "the fault propagates to the job's runner");
    assert!(flight.wait().is_none(), "the flight's waiters retry");
    assert_eq!(st.plans.get("m"), None, "a failed plan made up a kind");
    assert!(st.unclaimed(), "a failed lead left an entry or a registration");

    st.sync_serve();
    assert_eq!((get(&st.tally.builds), get(&st.tally.extractions)), (1, 1));
    assert_eq!(st.plans.get("m"), Some(FormatKind::NaiveCsr));
}
