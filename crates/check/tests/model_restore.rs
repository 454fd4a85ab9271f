//! Model tests for snapshot-restore publication
//! ([`spmv_engine::snapshot`]): a restore lands each conversion record
//! through the production [`ShardedConversions::land`], the one claim
//! every synchronous caller makes on an id, so these tests explore a
//! restore racing a live resolver, a queued admission flight and a
//! `forget` under the deterministic scheduler. Only the restore's own
//! loop around `land` (a plan record, then `land` with the decoded
//! format as its "build", as `Engine::restore` does per record) is
//! spelled out here.
//!
//! Compiled only under `RUSTFLAGS="--cfg spmv_model_check"`.
#![cfg(spmv_model_check)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use spmv_check::Checker;
use spmv_core::CsrMatrix;
use spmv_engine::shard::{CachedFormat, Claim, Landed, PlanTable, ShardedConversions};
use spmv_formats::FormatKind;
use spmv_parallel::sync::thread::{self, JoinHandle};
use spmv_parallel::sync::{Condvar, Mutex};

const KIND: FormatKind = FormatKind::NaiveCsr;

/// One model execution's tables for id `"m"`, shared by cloning, and
/// the builds each side counted.
#[derive(Clone)]
struct State {
    plans: Arc<PlanTable>,
    conv: Arc<ShardedConversions>,
    /// Builds by a live resolver or admission job.
    builds: Arc<AtomicUsize>,
    /// Restored formats a restore published.
    restored: Arc<AtomicUsize>,
}

impl State {
    fn new() -> Self {
        State {
            plans: Arc::new(PlanTable::new(8, 1)),
            conv: Arc::new(ShardedConversions::new(1 << 20, 1)),
            builds: Arc::default(),
            restored: Arc::default(),
        }
    }

    /// Runs `f` on a model thread of its own, sharing this state.
    fn spawn(&self, f: impl FnOnce(&State) + Send + 'static) -> JoinHandle<()> {
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

    /// Whether nothing is resident and no flight registered.
    fn unclaimed(&self) -> bool {
        matches!(self.conv.claim("m", || false), Claim::Declined)
    }

    /// One restore record landing: the plan record, then the
    /// production `land` of the conversion record, whose "build" is the
    /// decoded format. Returns how it landed.
    fn restore_one(&self) -> Landed {
        self.plans.insert_pending("m", KIND);
        self.conv.land(&self.plans, "m", |_| KIND, |_| counted(&self.restored)).2
    }

    /// A live synchronous serve: `land`, planning as `ServeState::plan`.
    fn resolve_one(&self) {
        let plan = |_: &str| self.plans.get("m").unwrap_or(KIND);
        assert_eq!(self.conv.land(&self.plans, "m", plan, |_| counted(&self.builds)).1, KIND);
    }
}

/// A build of `KIND`, counted in `builds`.
fn counted(builds: &AtomicUsize) -> (CachedFormat, FormatKind, usize) {
    builds.fetch_add(1, Ordering::Relaxed);
    let fmt = spmv_formats::build_format(KIND, &CsrMatrix::identity(2)).unwrap();
    (Arc::new(fmt), KIND, 0)
}

/// Joins every racer, propagating a failure.
fn join<const N: usize>(racers: [JoinHandle<()>; N]) {
    for r in racers {
        r.join().unwrap();
    }
}

/// Restore racing a live synchronous resolver on the same cold id:
/// whatever the interleaving, the conversion builds exactly once (by
/// either side), exactly one entry becomes resident, and the plan ends
/// naming it.
#[test]
fn restore_and_live_resolver_publish_exactly_once() {
    let report = Checker::dfs().preemption_bound(None).max_schedules(30_000).check(|| {
        let st = State::new();
        let restore = |st: &State| {
            st.restore_one();
        };
        join([st.spawn(restore), st.spawn(State::resolve_one), st.reader()]);

        let builds = st.builds.load(Ordering::Relaxed) + st.restored.load(Ordering::Relaxed);
        assert_eq!(builds, 1, "conversion must build exactly once");
        assert_eq!(st.conv.len(), 1, "exactly one entry resident");
        assert!(st.conv.bytes_resident() > 0, "byte account tracks the resident entry");
        assert_eq!(st.plans.get("m"), Some(KIND), "the plan names the conversion");
    });
    report.assert_ok();
    assert!(report.schedules >= 1_000, "insufficient exploration: {} schedules", report.schedules);
}

/// Restore racing a queued admission flight: the id's first
/// asynchronous request registered its flight before the restore
/// started, so the restore waits for the job (or hits its publication)
/// and never publishes over it; the id builds once — the job's build —
/// and its plan names it.
#[test]
fn restore_waits_for_a_queued_admission_flight() {
    let report = Checker::dfs().preemption_bound(None).max_schedules(30_000).check(|| {
        let st = State::new();
        let Claim::Registered(reg) = st.conv.claim("m", || true) else {
            panic!("a cold id registers")
        };
        let job = move |st: &State| {
            let plan = |_: &str| st.plans.get("m").unwrap_or(KIND);
            let led = st.conv.lead(&st.plans, reg, plan, |_| counted(&st.builds));
            assert!(led.is_some(), "nothing withdrew the registration");
        };
        let restore = |st: &State| {
            let landed = st.restore_one();
            assert!(matches!(landed, Landed::Hit | Landed::Coalesced), "{landed:?}");
        };
        join([st.spawn(job), st.spawn(restore), st.reader()]);

        assert_eq!(st.builds.load(Ordering::Relaxed), 1, "the job built once");
        assert_eq!(st.restored.load(Ordering::Relaxed), 0, "the restore published over it");
        assert_eq!(st.conv.len(), 1, "exactly one entry resident");
        assert_eq!(st.plans.get("m"), Some(KIND));
    });
    report.assert_ok();
    assert!(report.schedules >= 1_000, "insufficient exploration: {} schedules", report.schedules);
}

/// Restore racing a `forget`: the forgetter waits until the restore's
/// `land` has registered and entered its build (the interesting window:
/// a registered, unpublished restore outliving a forget), then forgets
/// — before or after the publication, as the scheduler likes. Either
/// way no restored conversion of the forgotten id stays resident, no
/// plan names it and no flight outlives it.
#[test]
fn restore_flight_never_resurrects_a_forgotten_id() {
    let report = Checker::dfs().preemption_bound(None).max_schedules(30_000).check(|| {
        let st = State::new();
        let building = Arc::new((Mutex::new(false), Condvar::new()));
        let started = Arc::clone(&building);
        let restore = move |st: &State| {
            st.conv.land(
                &st.plans,
                "m",
                |_| KIND,
                |_| {
                    *started.0.lock() = true;
                    started.1.notify_all();
                    counted(&st.restored)
                },
            );
        };
        let forget = move |st: &State| {
            let mut started = building.0.lock();
            while !*started {
                building.1.wait(&mut started);
            }
            drop(started);
            st.conv.forget(&st.plans, "m");
        };
        join([st.spawn(restore), st.spawn(forget), st.reader()]);

        assert!(st.unclaimed(), "forgotten conversion resurrected by restore");
        assert_eq!(st.plans.get("m"), None, "forgotten plan resurrected by restore");
        assert_eq!(st.conv.bytes_resident(), 0, "forgotten bytes still accounted");
    });
    report.assert_ok();
    assert!(report.schedules >= 1_000, "insufficient exploration: {} schedules", report.schedules);
}
