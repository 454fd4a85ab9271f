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

use spmv_suite::analysis::{FormatSelector, Observation, SelectorFeatures};
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
         registered it, every later request found it registered and deferred"
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

/// `y` as bits, for exact comparison.
fn bits(y: &[f64]) -> Vec<u64> {
    y.iter().map(|v| v.to_bits()).collect()
}

/// A matrix large enough (~84k entries) that its rows run across the
/// lanes at a vector profile, not the scalar loop small ranges keep:
/// short rows first (their blocks gather), then longer ones (windows).
fn large_case() -> Case {
    let n = 6000usize;
    let mut t = Vec::new();
    for r in 0..n {
        let len = if r < n / 2 { 5 + r % 3 } else { 20 + r % 5 };
        for k in 0..len {
            t.push((r, (r * 31 + k * 101) % n, ((r * 5 + k) % 13) as f64 * 0.25 - 1.5));
        }
    }
    let m = CsrMatrix::from_triplets(n, n, &t).expect("distinct columns per row");
    let x: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 23) as f64 - 11.0).collect();
    Case { id: "large".into(), reference: m.spmv(&x), m, x }
}

/// The CSR path promises [`CsrMatrix::spmv_into`]'s summation order in
/// every kernel, whatever unit the engine's lane profile runs it on; a
/// landed Naive-CSR, ELL or SELL-C-σ sums each row slot by slot from 0.0
/// too, and HYB continues a row's ELL sum through its COO tail, so they
/// answer the same bits.
#[test]
fn cold_async_answers_are_spmv_into_bit_for_bit_and_so_are_landed_w1_order_kinds() {
    let engine = engine();
    let mut cases = cases();
    cases.push(large_case());
    let want: Vec<Vec<u64>> = cases
        .iter()
        .map(|case| {
            let mut y = vec![f64::NAN; case.m.rows()];
            case.m.spmv_into(&case.x, &mut y);
            bits(&y)
        })
        .collect();
    // The low class parked behind one gate per worker, as above: no
    // flight lands while the cold requests are served.
    let gate = Arc::new(std::sync::Mutex::new(()));
    let held = gate.lock().unwrap();
    for _ in 0..engine.pool().threads() {
        let gate = Arc::clone(&gate);
        engine.pool().submit_low(move || drop(gate.lock()));
    }
    for (case, want) in cases.iter().zip(&want) {
        let mut y = vec![f64::NAN; case.m.rows()];
        assert_eq!(engine.spmv(&case.id, &case.m, &case.x, &mut y), FormatKind::NaiveCsr);
        assert_eq!(&bits(&y), want, "{} cold spmv", case.id);
        let mut y = vec![-7.25; case.m.rows()];
        engine.spmv_parallel(&case.id, &case.m, &case.x, &mut y);
        assert_eq!(&bits(&y), want, "{} cold spmv_parallel", case.id);
    }
    assert_eq!(engine.counters().served_selected, 0, "every cold request took the CSR path");

    drop(held);
    engine.drain_admissions();
    let in_order = [
        FormatKind::NaiveCsr,
        FormatKind::Ell,
        FormatKind::Hyb,
        FormatKind::SellCSigma,
        FormatKind::SellC4,
        FormatKind::SellC16,
    ];
    let mut landed = 0;
    for (case, want) in cases.iter().zip(&want) {
        let mut y = vec![f64::NAN; case.m.rows()];
        let kind = engine.spmv(&case.id, &case.m, &case.x, &mut y);
        if in_order.contains(&kind) {
            assert_eq!(&bits(&y), want, "{} landed as {kind:?}", case.id);
            landed += 1;
        }
    }
    assert!(landed > 0, "no id landed as a W1-order kind: the second half checked nothing");

    // HYB, which the first engine's selector may never name: a selector
    // that names it for every matrix, on `Host` (which lists every
    // kind). `large` has rows longer than the average, so its COO tail
    // spans the chunks of the 3-worker pool.
    let always_hyb = Observation {
        features: SelectorFeatures {
            footprint_mb: 1.0,
            avg_nnz_per_row: 8.0,
            skew: 0.0,
            cross_row_sim: 0.5,
            avg_num_neigh: 0.5,
        },
        best_format: FormatKind::Hyb.name().into(),
    };
    let hyb = Engine::with_selector(
        EngineConfig { threads: 3, ..EngineConfig::default() },
        FormatSelector::fit(&[always_hyb], 1),
    )
    .expect("engine");
    for (case, want) in cases.iter().zip(&want) {
        let mut y = vec![f64::NAN; case.m.rows()];
        assert_eq!(hyb.spmv(&case.id, &case.m, &case.x, &mut y), FormatKind::Hyb, "{}", case.id);
        assert_eq!(&bits(&y), want, "{} HYB spmv", case.id);
        let mut y = vec![-7.25; case.m.rows()];
        hyb.spmv_parallel(&case.id, &case.m, &case.x, &mut y);
        assert_eq!(&bits(&y), want, "{} HYB spmv_parallel", case.id);
        let xs = [&case.x[..], &case.x[..]].concat();
        let mut ys = vec![f64::NAN; 2 * case.m.rows()];
        hyb.spmm(&case.id, &case.m, &xs, 2, &mut ys);
        assert_eq!(bits(&ys), [&want[..], &want[..]].concat(), "{} HYB spmm", case.id);
    }
    assert_eq!(hyb.counters().served_selected, 3 * cases.len() as u64, "every serve was HYB");
}
