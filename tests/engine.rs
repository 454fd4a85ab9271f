//! End-to-end adaptive-engine test: for a subsample of the Small
//! dataset, the engine-selected format must produce exactly the dense
//! reference result on garbage-prefilled outputs across all three
//! serving entry points, and the instrumentation counters must
//! reconcile (selections == requests, hits + misses == lookups).

use spmv_suite::core::CsrMatrix;
use spmv_suite::core::{vec_mismatch, DenseMatrix};
use spmv_suite::engine::{Admission, Engine, EngineConfig, TrainingPlan};
use spmv_suite::formats::FormatKind;
use spmv_suite::gen::dataset::{Dataset, DatasetSize};

/// Tiny-matrix scale: the largest Small-lattice footprint (2 GB at
/// scale 1) shrinks to ~128 KB, so dense references stay affordable.
const SCALE: f64 = 16384.0;

fn config() -> EngineConfig {
    EngineConfig {
        device: "AMD-EPYC-24".into(),
        scale: SCALE,
        k: 1,
        cache_capacity_bytes: 64 << 20,
        threads: 3,
        training: TrainingPlan { size: DatasetSize::Small, stride: 40, base_seed: 0xA11CE },
        ..EngineConfig::default()
    }
}

fn engine() -> Engine {
    Engine::new(config()).expect("builtin training")
}

#[test]
fn engine_selected_formats_match_dense_reference_and_counters_reconcile() {
    let engine = engine();
    let specs =
        Dataset { size: DatasetSize::Small, scale: SCALE, base_seed: 0xB0B }.specs_subsampled(379);
    assert!(specs.len() >= 8, "need a meaningful subsample, got {}", specs.len());

    let mut served = 0u64;
    let mut kinds_used: std::collections::BTreeSet<FormatKind> = Default::default();
    for spec in &specs {
        let m = spec.materialize().expect("dataset matrices materialize");
        let dense = DenseMatrix::from_csr(&m);
        let x: Vec<f64> = (0..m.cols()).map(|i| ((i * 37 + 11) % 23) as f64 - 11.0).collect();
        let reference = dense.spmv(&x);

        // Sequential serve on a NaN-prefilled output: any row the
        // kernel fails to overwrite survives as NaN and mismatches.
        let mut y = vec![f64::NAN; m.rows()];
        let k_seq = engine.spmv(&spec.id, &m, &x, &mut y);
        assert_eq!(
            vec_mismatch(&y, &reference, 1e-9, 1e-9),
            None,
            "{} seq via {:?}",
            spec.id,
            k_seq
        );

        // Parallel serve on a differently-poisoned output.
        let mut y = vec![-7.25; m.rows()];
        let k_par = engine.spmv_parallel(&spec.id, &m, &x, &mut y);
        assert_eq!(k_par, k_seq, "{}: plan must be stable per id", spec.id);
        assert_eq!(vec_mismatch(&y, &reference, 1e-9, 1e-9), None, "{} par", spec.id);

        // Batched serve: two right-hand sides, the second negated.
        let k = 2usize;
        let mut xs = x.clone();
        xs.extend(x.iter().map(|v| -v));
        let mut ys = vec![f64::NAN; m.rows() * k];
        engine.spmm(&spec.id, &m, &xs, k, &mut ys);
        assert_eq!(
            vec_mismatch(&ys[..m.rows()], &reference, 1e-9, 1e-9),
            None,
            "{} spmm0",
            spec.id
        );
        let neg: Vec<f64> = reference.iter().map(|v| -v).collect();
        assert_eq!(vec_mismatch(&ys[m.rows()..], &neg, 1e-9, 1e-9), None, "{} spmm1", spec.id);

        served += 3;
        kinds_used.insert(k_seq);
    }

    // --- Counter reconciliation ---------------------------------------
    let c = engine.counters();
    assert_eq!(c.requests, served, "every serve call is a request");
    assert_eq!(c.total_selections(), c.requests, "selections account for every request");
    assert_eq!(c.served_selected, c.requests, "sync admission always serves the selection");
    assert_eq!(c.served_fallback, 0, "the CSR fast path is an async-admission affair");
    assert_eq!(c.served_selected + c.served_fallback, c.requests, "exact reconciliation");
    assert_eq!(
        c.cache_hits + c.cache_misses + c.coalesced,
        c.cache_lookups,
        "every lookup is classified exactly once: hit, miss, or coalesced"
    );
    assert_eq!(c.cache_lookups, c.requests, "one cache lookup per request");
    // Conversions happen once per matrix; the two follow-up requests
    // per matrix are hits (the budget comfortably fits the subsample).
    assert_eq!(c.cache_misses, specs.len() as u64);
    assert_eq!(c.cache_hits, 2 * specs.len() as u64);
    assert_eq!(c.coalesced, 0, "single-threaded serving never coalesces");
    assert_eq!(c.conversions, c.cache_misses, "every miss led exactly one build");
    assert_eq!(c.extractions, c.conversions, "only a conversion leader extracts, once");
    assert_eq!(c.cached_entries, specs.len());
    assert!(c.bytes_resident > 0);
    // Pool-level reconciliation: synchronous admission never touches
    // the low-priority class, while parallel serves (and training) ran
    // as high-priority chunk tasks on the work-stealing scheduler.
    assert_eq!(c.flights_scheduled, 0, "sync admission schedules no background flights");
    assert_eq!(c.pool.low_tasks, 0, "the low-priority class stayed untouched");
    assert!(c.pool.high_tasks > 0, "parallel serves ran as high-priority chunk tasks");
    // Solver-tier counters stay exactly zero on the pure serve path:
    // no handles were created, so nothing is pinned and no iterations
    // were run.
    assert_eq!((c.solves, c.solver_iterations, c.pinned_plans), (0, 0, 0));

    // Every format served is one the engine could legitimately pick:
    // available on the device profile or the universal CSR fallback.
    for kind in kinds_used {
        assert!(
            engine.device().formats.contains(&kind) || kind == FormatKind::NaiveCsr,
            "served {kind:?} is neither on-device nor the fallback"
        );
    }
}

#[test]
fn engine_counters_start_at_zero_and_forget_releases_bytes() {
    let engine = engine();
    let c = engine.counters();
    assert_eq!((c.requests, c.cache_lookups, c.fallbacks), (0, 0, 0));
    assert_eq!((c.solves, c.solver_iterations, c.pinned_plans), (0, 0, 0));
    assert_eq!(c.bytes_resident, 0);

    let m = CsrMatrix::identity(128);
    let x = vec![2.0; 128];
    let mut y = vec![f64::NAN; 128];
    engine.spmv("one", &m, &x, &mut y);
    assert!(engine.counters().bytes_resident > 0);
    engine.forget("one");
    assert_eq!(engine.counters().bytes_resident, 0);
    // Counters are cumulative, not tied to residency.
    assert_eq!(engine.counters().requests, 1);
}

/// Plans are consulted only on a miss: with room for one plan, two
/// alternating resident ids keep serving their conversions although
/// each one's plan was evicted by the other's admission — no
/// re-conversion, no flight, every request served as selected.
#[test]
fn a_resident_id_whose_plan_was_evicted_keeps_serving_its_conversion() {
    let mats: Vec<(&str, CsrMatrix)> = [("a", 0usize), ("b", 1)]
        .into_iter()
        .map(|(id, seed)| {
            let n = 300usize;
            let mut t: Vec<_> = (0..n).map(|r| (r, (r * 7 + seed) % n, 1.0 + r as f64)).collect();
            t.extend((0..40usize).map(|c| (seed, (c * 3 + seed) % n, 0.5 - c as f64)));
            (id, CsrMatrix::from_triplets(n, n, &t).expect("valid triplets"))
        })
        .collect();
    for admission in [Admission::Sync, Admission::Async { max_in_flight: 2 }] {
        let engine = Engine::new(EngineConfig { plan_capacity: 1, admission, ..config() })
            .expect("builtin training");
        let serve = |id: &str, m: &CsrMatrix| {
            let x: Vec<f64> = (0..m.cols()).map(|i| ((i * 13 + 5) % 17) as f64 - 8.0).collect();
            let mut y = vec![f64::NAN; m.rows()];
            engine.spmv(id, m, &x, &mut y);
            assert_eq!(vec_mismatch(&y, &m.spmv(&x), 1e-9, 1e-9), None, "{id} {admission:?}");
        };
        for (id, m) in &mats {
            serve(id, m);
            engine.drain_admissions();
        }
        let before = engine.counters();
        assert_eq!(before.conversions, 2, "{admission:?}");
        assert_eq!(before.planned_entries, 1, "b's admission evicted a's plan ({admission:?})");

        for _ in 0..5 {
            for (id, m) in &mats {
                serve(id, m);
            }
        }
        engine.drain_admissions();
        let after = engine.counters();
        let requests = after.requests - before.requests;
        assert_eq!(requests, 10, "{admission:?}");
        assert_eq!(after.conversions, 2, "a resident id re-converted ({admission:?})");
        assert_eq!(after.served_selected - before.served_selected, requests, "{admission:?}");
        assert_eq!(after.cache_hits - before.cache_hits, requests, "{admission:?}");
        assert_eq!(after.flights_scheduled, before.flights_scheduled, "{admission:?}");
        assert_eq!(after.cached_entries, 2, "{admission:?}");
    }
}
