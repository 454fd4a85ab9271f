//! Model tests for snapshot-restore publication
//! ([`spmv_engine::snapshot`]): a restore lands conversions through the
//! same plan claim and [`ShardedConversions::land`] a live admission
//! uses, so these tests explore a restore racing a live resolver and a
//! `forget` under the deterministic scheduler. Each side calls the
//! production `land`; only the claim in front of it (`insert_pending` →
//! `try_begin_build`, as `Engine::restore` does per record) is spelled
//! out here.
//!
//! Compiled only under `RUSTFLAGS="--cfg spmv_model_check"`.
#![cfg(spmv_model_check)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use spmv_check::Checker;
use spmv_core::CsrMatrix;
use spmv_engine::shard::{CachedFormat, PlanState, PlanTable, ShardedConversions};
use spmv_formats::FormatKind;
use spmv_parallel::sync::thread;

fn tiny_format() -> CachedFormat {
    Arc::new(spmv_formats::build_format(FormatKind::NaiveCsr, &CsrMatrix::identity(2)).unwrap())
}

/// A `land` build that counts its calls and never refuses.
fn counted(
    builds: &AtomicUsize,
) -> impl FnOnce(FormatKind) -> (CachedFormat, FormatKind, usize) + '_ {
    move |kind| {
        builds.fetch_add(1, Ordering::Relaxed);
        (tiny_format(), kind, 0)
    }
}

/// One restore record landing: claim the plan, then `land` with the
/// claim's ticket (the build stands in for the decoded format).
fn restore_one(plans: &PlanTable, conv: &ShardedConversions, builds: &AtomicUsize) {
    let kind = FormatKind::NaiveCsr;
    plans.insert_pending("m", kind);
    let Some((_, epoch)) = plans.try_begin_build("m") else {
        return; // a live flight owns the plan: skip
    };
    conv.land(plans, "m", || kind, Some(epoch), counted(builds));
}

/// A synchronous serve: no plan claim, so `land` without a ticket,
/// with the plan named lazily as `Engine::plan` names it.
fn resolve_one(plans: &PlanTable, conv: &ShardedConversions, builds: &AtomicUsize) {
    let kind = FormatKind::NaiveCsr;
    let plan = || plans.get_or_insert_with("m", || kind);
    let (_, actual, _) = conv.land(plans, "m", plan, None, counted(builds));
    assert_eq!(actual, kind);
}

/// Restore racing a live synchronous resolver on the same cold
/// `(id, format)`: whatever the interleaving, the conversion builds
/// exactly once, exactly one entry becomes resident, and the plan ends
/// `Pinned` — never wedged in `Building`, never duplicated.
#[test]
fn restore_and_live_resolver_publish_exactly_once() {
    let report = Checker::dfs().preemption_bound(None).max_schedules(30_000).check(|| {
        let plans = Arc::new(PlanTable::new(8, 1));
        let conv = Arc::new(ShardedConversions::new(1 << 20, 1));
        let builds = Arc::new(AtomicUsize::new(0));

        let restorer = {
            let (p, c, b) = (Arc::clone(&plans), Arc::clone(&conv), Arc::clone(&builds));
            thread::spawn(move || restore_one(&p, &c, &b))
        };
        let resolver = {
            let (p, c, b) = (Arc::clone(&plans), Arc::clone(&conv), Arc::clone(&builds));
            thread::spawn(move || resolve_one(&p, &c, &b))
        };
        // An assert-free reader widens the explored interleavings.
        let reader = {
            let (p, c) = (Arc::clone(&plans), Arc::clone(&conv));
            thread::spawn(move || {
                let _ = p.get("m");
                let _ = c.peek("m");
            })
        };
        restorer.join().unwrap();
        resolver.join().unwrap();
        reader.join().unwrap();

        assert_eq!(builds.load(Ordering::Relaxed), 1, "conversion must build exactly once");
        assert_eq!(conv.len(), 1, "exactly one entry resident");
        assert!(conv.bytes_resident() > 0, "byte account tracks the resident entry");
        assert_eq!(
            plans.get("m"),
            Some(PlanState::Pinned(FormatKind::NaiveCsr)),
            "plan must land Pinned, whoever won the flight"
        );
    });
    report.assert_ok();
    assert!(report.schedules >= 1_000, "insufficient exploration: {} schedules", report.schedules);
}

/// Restore racing a `forget` + re-admission of the same id: the
/// restore's epoch ticket and flight deregistration must veto its
/// publication in every interleaving — the successor plan stays
/// untouched and no restored conversion of the forgotten id is
/// resident.
#[test]
fn restore_flight_never_resurrects_a_forgotten_id() {
    let report = Checker::dfs().preemption_bound(None).max_schedules(30_000).check(|| {
        let plans = Arc::new(PlanTable::new(8, 1));
        let conv = Arc::new(ShardedConversions::new(1 << 20, 1));
        let builds = Arc::new(AtomicUsize::new(0));

        // The restore claims its plan ticket before the forgetter
        // starts (the interesting window: a claimed-but-unlanded
        // restore flight outliving a forget).
        let kind = FormatKind::NaiveCsr;
        plans.insert_pending("m", kind);
        let (_, epoch) = plans.try_begin_build("m").expect("pending is claimable");

        let restorer = {
            let (p, c, b) = (Arc::clone(&plans), Arc::clone(&conv), Arc::clone(&builds));
            thread::spawn(move || {
                c.land(&p, "m", || kind, Some(epoch), counted(&b));
            })
        };
        // Forget the id mid-restore, then re-admit under another plan.
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
            })
        };
        restorer.join().unwrap();
        forgetter.join().unwrap();
        reader.join().unwrap();

        // The forgetter always runs to completion, so whatever the
        // interleaving the successor plan must survive the stale
        // restore landing, and the forgotten conversion must be gone.
        assert_eq!(
            plans.get("m"),
            Some(PlanState::Pending(FormatKind::Coo)),
            "stale restore landing touched the successor plan"
        );
        assert!(conv.peek("m").is_none(), "forgotten conversion resurrected by restore");
        assert_eq!(conv.bytes_resident(), 0, "forgotten bytes still accounted");
    });
    report.assert_ok();
    assert!(report.schedules >= 1_000, "insufficient exploration: {} schedules", report.schedules);
}
