//! Deterministic end-to-end test of asynchronous admission (tier-1).
//!
//! The acceptance bar for the async serving pipeline, pinned without
//! sleeps or timing assumptions:
//!
//! 1. **Zero feature passes and conversions on the calling thread** —
//!    while the pool's low-priority class is parked behind one gate
//!    job per worker (low jobs are dequeued FIFO, so every worker
//!    blocks on a gate before any flight can start), cold requests can
//!    only have been answered by the request threads themselves;
//!    `extractions` and `conversions` staying at zero prove no request
//!    ran the feature pass or converted (or waited on a conversion),
//!    and every result still matches the dense reference on
//!    garbage-prefilled outputs. High-priority serve tasks keep
//!    flowing throughout — the gates occupy only the low class.
//! 2. **The swap** — after releasing the gates and draining the low
//!    class, every admitted matrix has exactly one conversion and one
//!    landed swap, and every subsequent request serves the
//!    engine-selected format, again dense-checked on garbage-prefilled
//!    outputs.
//! 3. **Counter reconciliation** — `served_fallback + served_selected
//!    == requests` and `hits + misses + coalesced == lookups`, exactly,
//!    at both stages.

use spmv_suite::core::{vec_mismatch, CsrMatrix, DenseMatrix, FeatureSet};
use spmv_suite::engine::{Admission, Engine, EngineConfig, TrainingPlan};
use spmv_suite::formats::FormatKind;
use spmv_suite::gen::dataset::{Dataset, DatasetSize};
use std::sync::Arc;

/// Tiny-matrix scale: the largest Small-lattice footprint (2 GB at
/// scale 1) shrinks to ~128 KB, so dense references stay affordable.
const SCALE: f64 = 16384.0;

fn engine() -> Engine {
    Engine::new(EngineConfig {
        device: "AMD-EPYC-24".into(),
        scale: SCALE,
        k: 1,
        cache_capacity_bytes: 64 << 20,
        threads: 3,
        admission: Admission::Async { max_in_flight: 64 },
        training: TrainingPlan { size: DatasetSize::Small, stride: 40, base_seed: 0xA11CE },
        ..EngineConfig::default()
    })
    .expect("builtin training")
}

struct Case {
    id: String,
    m: CsrMatrix,
    x: Vec<f64>,
    reference: Vec<f64>,
}

fn cases() -> Vec<Case> {
    let specs =
        Dataset { size: DatasetSize::Small, scale: SCALE, base_seed: 0xB0B }.specs_subsampled(379);
    assert!(specs.len() >= 8, "need a meaningful subsample, got {}", specs.len());
    specs
        .iter()
        .map(|spec| {
            let m = spec.materialize().expect("dataset matrices materialize");
            let x: Vec<f64> = (0..m.cols()).map(|i| ((i * 37 + 11) % 23) as f64 - 11.0).collect();
            let reference = DenseMatrix::from_csr(&m).spmv(&x);
            Case { id: spec.id.clone(), m, x, reference }
        })
        .collect()
}

/// Serves every case through all three entry points on garbage-
/// prefilled outputs, asserting dense-reference correctness; returns
/// the kinds observed (one per case, from the `spmv` serve).
fn serve_all(engine: &Engine, cases: &[Case], stage: &str) -> Vec<FormatKind> {
    let mut kinds = Vec::new();
    for case in cases {
        let (m, x) = (&case.m, &case.x);
        // Sequential serve on a NaN-prefilled output: any row the
        // kernel fails to overwrite survives as NaN and mismatches.
        let mut y = vec![f64::NAN; m.rows()];
        let kind = engine.spmv(&case.id, m, x, &mut y);
        assert_eq!(
            vec_mismatch(&y, &case.reference, 1e-9, 1e-9),
            None,
            "{} spmv ({stage})",
            case.id
        );

        // Parallel serve on a differently-poisoned output.
        let mut y = vec![-7.25; m.rows()];
        engine.spmv_parallel(&case.id, m, x, &mut y);
        assert_eq!(
            vec_mismatch(&y, &case.reference, 1e-9, 1e-9),
            None,
            "{} spmv_parallel ({stage})",
            case.id
        );

        // Batched serve: two right-hand sides, the second negated.
        let k = 2usize;
        let mut xs = x.clone();
        xs.extend(x.iter().map(|v| -v));
        let mut ys = vec![f64::NAN; m.rows() * k];
        engine.spmm(&case.id, m, &xs, k, &mut ys);
        assert_eq!(
            vec_mismatch(&ys[..m.rows()], &case.reference, 1e-9, 1e-9),
            None,
            "{} spmm col0 ({stage})",
            case.id
        );
        let neg: Vec<f64> = case.reference.iter().map(|v| -v).collect();
        assert_eq!(
            vec_mismatch(&ys[m.rows()..], &neg, 1e-9, 1e-9),
            None,
            "{} spmm col1 ({stage})",
            case.id
        );
        kinds.push(kind);
    }
    kinds
}

#[test]
fn async_admission_serves_immediately_then_swaps_deterministically() {
    let engine = engine();
    let cases = cases();

    // ---- Stage 1: low class parked — requests are provably on their
    // own. One gate job per worker: FIFO dequeue order guarantees all
    // gates are claimed before any admission flight can run.
    let gates = engine.pool().threads() as u64;
    let gate = Arc::new(std::sync::Mutex::new(()));
    let held = gate.lock().unwrap();
    for _ in 0..gates {
        let gate = Arc::clone(&gate);
        engine.pool().submit_low(move || {
            drop(gate.lock());
        });
    }
    let cold_kinds = serve_all(&engine, &cases, "cold");
    assert!(
        cold_kinds.iter().all(|&k| k == FormatKind::NaiveCsr),
        "cold requests must serve the universal CSR path"
    );
    let c = engine.counters();
    let cold_requests = (cases.len() * 3) as u64;
    assert_eq!(c.requests, cold_requests);
    assert_eq!(
        c.conversions, 0,
        "a conversion ran while the background lane was parked: it can \
         only have been on a calling thread"
    );
    assert_eq!(c.cache_misses, 0, "no request entered the conversion machinery");
    assert_eq!(
        c.extractions, 0,
        "a feature pass ran while the background lane was parked: the request \
         path extracted"
    );
    assert_eq!(c.served_fallback, cold_requests, "every cold request served the CSR path");
    assert_eq!(c.served_selected, 0);
    assert_eq!(c.swaps, 0, "nothing can land while the low class is parked");
    assert_eq!(c.served_fallback + c.served_selected, c.requests);
    assert_eq!(c.cache_hits + c.cache_misses + c.coalesced, c.cache_lookups);
    assert_eq!(
        c.flights_scheduled,
        cases.len() as u64,
        "exactly one flight claimed per id: the first request of each id \
         scheduled it, every later request saw Building and deferred"
    );
    assert_eq!(c.admissions_in_flight, cases.len(), "every flight still queued behind the gates");
    assert_eq!(c.pool.low_tasks, 0, "no low job finished while the gates were held");
    assert!(c.pool.high_tasks > 0, "spmv_parallel serves ran as high-priority tasks meanwhile");

    // ---- Stage 2: release the gates, land every flight ----------------
    drop(held);
    engine.drain_admissions();
    let c = engine.counters();
    assert_eq!(c.admissions_in_flight, 0, "drain_admissions is a barrier");
    assert_eq!(
        c.pool.low_tasks,
        cases.len() as u64 + gates,
        "the low class ran exactly the gates plus one flight per id"
    );
    assert_eq!(
        c.conversions,
        cases.len() as u64,
        "exactly one conversion per (id, format): the first request of \
         each id claimed the flight, every later request deferred to it"
    );
    assert_eq!(c.swaps, cases.len() as u64, "every flight landed and re-pinned its plan");
    assert_eq!(c.extractions, cases.len() as u64, "each flight extracted its id once");
    assert_eq!(c.cached_entries, cases.len(), "one resident conversion per matrix");
    assert_eq!(c.fallbacks, 0, "dataset mix is fallback-free");
    assert!(c.bytes_resident > 0);

    // ---- Stage 3: post-swap, the selected formats serve ---------------
    let warm_kinds = serve_all(&engine, &cases, "warm");
    for (case, kind) in cases.iter().zip(&warm_kinds) {
        let selected = engine.select(&FeatureSet::extract(&case.m));
        assert_eq!(*kind, selected, "{} must serve its selected format after the swap", case.id);
    }
    let c = engine.counters();
    let total = cold_requests * 2;
    assert_eq!(c.requests, total);
    assert_eq!(c.total_selections(), c.requests);
    assert_eq!(c.served_selected, cold_requests, "every warm request served the selection");
    assert_eq!(c.served_fallback + c.served_selected, c.requests, "exact reconciliation");
    assert_eq!(c.cache_hits + c.cache_misses + c.coalesced, c.cache_lookups);
    assert_eq!(c.conversions, cases.len() as u64, "warm serving converts nothing new");
}
