//! Multi-client stress test of the serving layer (tier-1): 8 client
//! threads drive mixed `spmv`/`spmv_parallel`/`spmm` traffic over 16
//! shared matrices through one `Engine`. Every result must match the
//! dense reference, the counters must reconcile exactly once the
//! clients quiesce, and — the single-flight guarantee — each
//! `(id, format)` pair must have been converted exactly once no matter
//! how many clients raced on its first request.
//!
//! The scenario runs under **both admission modes**: synchronous
//! (conversion on the request path, the deterministic baseline) and
//! asynchronous (requests never convert; background flights build the
//! selected formats and swap the plans while clients keep hammering
//! the CSR path). Each mode additionally runs a **parallel-only**
//! variant where all 8 clients drive `spmv_parallel` simultaneously —
//! the work-stealing scheduler's worst case, with 8 concurrent
//! parallel jobs (plus conversion flights, in async mode) interleaved
//! at chunk-task granularity on 2 workers. CI additionally runs this
//! file in `--release`, where the race windows (miss vs. in-flight
//! registration, publication vs. waiter wakeup, flight landing vs.
//! fallback serve) are realistically narrow.

use spmv_suite::core::{vec_mismatch, CsrMatrix, DenseMatrix, FeatureSet};
use spmv_suite::engine::{Admission, Engine, EngineConfig, TrainingPlan};
use spmv_suite::formats::FormatKind;
use spmv_suite::gen::dataset::DatasetSize;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

const CLIENTS: usize = 8;
const ROUNDS: usize = 6;
const MATRICES: usize = 16;

/// Deterministic structural variety: banded, scattered, skewed (one
/// hot row) and block-ish patterns so the selector exercises several
/// formats, not just CSR.
fn matrix(i: usize) -> CsrMatrix {
    let n = 96 + 13 * i;
    let mut t = Vec::new();
    for r in 0..n {
        t.push((r, r, 2.0 + i as f64));
        match i % 4 {
            0 => {
                // Banded: two fixed off-diagonals.
                if r + 3 < n {
                    t.push((r, r + 3, -1.0));
                    t.push((r + 3, r, 0.5));
                }
            }
            1 => {
                // Scattered: a little LCG per row.
                let mut s = (r as u64).wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                for _ in 0..3 {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    t.push((r, (s >> 33) as usize % n, 0.25));
                }
            }
            2 => {
                // Skewed: one hot row on top of a sparse diagonal band.
                if r % 7 == 0 && r + 1 < n {
                    t.push((r, r + 1, 1.5));
                }
            }
            _ => {
                // Block-ish: short dense runs.
                for c in (r / 4 * 4)..((r / 4 * 4 + 4).min(n)) {
                    t.push((r, c, 1.0 + (c % 5) as f64));
                }
            }
        }
    }
    if i % 4 == 2 {
        for c in 0..(3 * n / 4) {
            t.push((0, c, 0.125));
        }
    }
    CsrMatrix::from_triplets(n, n, &t).expect("stress matrices are valid")
}

struct Fixture {
    mats: Vec<CsrMatrix>,
    ids: Vec<String>,
    xs: Vec<Vec<f64>>,
    refs: Vec<Vec<f64>>,
}

impl Fixture {
    fn new() -> Self {
        let mats: Vec<CsrMatrix> = (0..MATRICES).map(matrix).collect();
        let ids = (0..MATRICES).map(|i| format!("stress-{i}")).collect();
        let xs: Vec<Vec<f64>> = mats
            .iter()
            .map(|m| (0..m.cols()).map(|j| ((j * 31 + 7) % 17) as f64 - 8.0).collect())
            .collect();
        let refs = mats.iter().zip(&xs).map(|(m, x)| DenseMatrix::from_csr(m).spmv(x)).collect();
        Fixture { mats, ids, xs, refs }
    }
}

/// Drives the 8-client workload against a fresh engine in the given
/// admission mode; returns the engine and, per matrix, every format
/// kind a client observed serving it. With `parallel_only` every
/// request goes through `spmv_parallel`, so the clients' parallel jobs
/// overlap on the work-stealing scheduler for the entire run;
/// otherwise the ops mix all three entry points.
fn run_clients(
    admission: Admission,
    fx: &Fixture,
    parallel_only: bool,
) -> (Engine, BTreeMap<usize, BTreeSet<FormatKind>>) {
    let engine = Engine::new(EngineConfig {
        device: "AMD-EPYC-24".into(),
        scale: 512.0,
        cache_capacity_bytes: 64 << 20,
        threads: 2,
        admission,
        training: TrainingPlan { size: DatasetSize::Small, stride: 60, base_seed: 11 },
        ..EngineConfig::default()
    })
    .expect("builtin training");

    // Which format each client observed per matrix.
    let kinds_seen: Mutex<BTreeMap<usize, BTreeSet<FormatKind>>> = Mutex::new(BTreeMap::new());

    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let engine = &engine;
            let (mats, ids, xs, refs) = (&fx.mats, &fx.ids, &fx.xs, &fx.refs);
            let kinds_seen = &kinds_seen;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    for step in 0..MATRICES {
                        // Rotate the visit order per client so first
                        // requests race across all matrices at once.
                        let i = (step + client * 2) % MATRICES;
                        let (m, x, want) = (&mats[i], &xs[i], &refs[i]);
                        let op = if parallel_only { 1 } else { (client + round + step) % 3 };
                        let kind = match op {
                            0 => {
                                let mut y = vec![f64::NAN; m.rows()];
                                let kind = engine.spmv(&ids[i], m, x, &mut y);
                                assert_eq!(
                                    vec_mismatch(&y, want, 1e-9, 1e-9),
                                    None,
                                    "{} spmv (client {client}, round {round})",
                                    ids[i]
                                );
                                kind
                            }
                            1 => {
                                let mut y = vec![-3.5; m.rows()];
                                let kind = engine.spmv_parallel(&ids[i], m, x, &mut y);
                                assert_eq!(
                                    vec_mismatch(&y, want, 1e-9, 1e-9),
                                    None,
                                    "{} spmv_parallel (client {client}, round {round})",
                                    ids[i]
                                );
                                kind
                            }
                            _ => {
                                let k = 2usize;
                                let mut xx = x.clone();
                                xx.extend(x.iter().map(|v| -v));
                                let mut y = vec![f64::NAN; m.rows() * k];
                                let kind = engine.spmm(&ids[i], m, &xx, k, &mut y);
                                assert_eq!(
                                    vec_mismatch(&y[..m.rows()], want, 1e-9, 1e-9),
                                    None,
                                    "{} spmm col0 (client {client}, round {round})",
                                    ids[i]
                                );
                                let neg: Vec<f64> = want.iter().map(|v| -v).collect();
                                assert_eq!(
                                    vec_mismatch(&y[m.rows()..], &neg, 1e-9, 1e-9),
                                    None,
                                    "{} spmm col1 (client {client}, round {round})",
                                    ids[i]
                                );
                                kind
                            }
                        };
                        kinds_seen.lock().unwrap().entry(i).or_default().insert(kind);
                    }
                }
            });
        }
    });

    (engine, kinds_seen.into_inner().unwrap())
}

#[test]
fn concurrent_mixed_serving_is_correct_and_converts_once_per_format() {
    let fx = Fixture::new();
    let (engine, kinds_seen) = run_clients(Admission::Sync, &fx, false);

    // --- Counter reconciliation (clients quiesced) --------------------
    let c = engine.counters();
    let total = (CLIENTS * ROUNDS * MATRICES) as u64;
    assert_eq!(c.requests, total, "every serve call is a request");
    assert_eq!(c.total_selections(), c.requests);
    assert_eq!(c.served_selected, c.requests, "sync admission always serves the selection");
    assert_eq!(c.served_fallback, 0);
    assert_eq!(c.served_selected + c.served_fallback, c.requests);
    assert_eq!(c.cache_lookups, c.requests, "one lookup per request");
    assert_eq!(
        c.cache_hits + c.cache_misses + c.coalesced,
        c.cache_lookups,
        "every lookup classified exactly once: hit, miss, or coalesced"
    );

    // --- Single-flight: exactly one conversion per (id, format) ------
    // Selection and format refusal are deterministic for this fixed
    // config, and the matrix set is chosen so every planned format
    // accepts its matrix (with zero fallbacks the flight key equals
    // the cache key and the exactly-once bound is exact; a refusal
    // would merely shift the resident kind, since an id holds one
    // conversion whatever kind a stale plan asks it for).
    assert_eq!(c.fallbacks, 0, "matrix set must be fallback-free for the exact bound");
    let distinct_pairs: u64 = kinds_seen.values().map(|s| s.len() as u64).sum();
    for (i, kinds) in &kinds_seen {
        assert_eq!(kinds.len(), 1, "stress-{i} served under several formats: {kinds:?}");
    }
    assert_eq!(
        c.conversions, distinct_pairs,
        "duplicate conversions slipped past single-flight (built {} for {} pairs)",
        c.conversions, distinct_pairs
    );
    assert_eq!(c.cache_misses, c.conversions, "every miss led exactly one build");
    assert_eq!(c.cached_entries, MATRICES, "one resident conversion per matrix");
    assert!(c.bytes_resident > 0);
}

#[test]
fn concurrent_async_admission_is_correct_and_converts_once_per_format() {
    let fx = Fixture::new();
    // max_in_flight below the matrix count on purpose: some cold
    // requests hit the cap, skip scheduling, and a later request must
    // pick the admission up — the exactly-once bound has to survive
    // that retry path too.
    let (engine, kinds_seen) = run_clients(Admission::Async { max_in_flight: 8 }, &fx, false);
    engine.drain_admissions();
    // An admission skipped at the in-flight cap needs one more request
    // to re-claim it: nudge every id once, then land everything. After
    // this barrier the outcome is exact — all 16 flights have landed.
    for i in 0..MATRICES {
        let (m, x, want) = (&fx.mats[i], &fx.xs[i], &fx.refs[i]);
        let mut y = vec![f64::NAN; m.rows()];
        engine.spmv(&fx.ids[i], m, x, &mut y);
        assert_eq!(vec_mismatch(&y, want, 1e-9, 1e-9), None, "{} nudge", fx.ids[i]);
    }
    engine.drain_admissions();

    // --- Counter reconciliation (clients quiesced, flights landed) ---
    let c = engine.counters();
    let total = (CLIENTS * ROUNDS * MATRICES + MATRICES) as u64;
    assert_eq!(c.requests, total, "every serve call is a request");
    assert_eq!(c.total_selections(), c.requests);
    assert_eq!(
        c.served_selected + c.served_fallback,
        c.requests,
        "every request served exactly one way: selected format or CSR path"
    );
    assert_eq!(
        c.cache_hits + c.cache_misses + c.coalesced,
        c.cache_lookups,
        "every lookup classified exactly once: hit, miss, or coalesced"
    );
    assert_eq!(c.admissions_in_flight, 0, "drain_admissions is a barrier");

    // --- Exactly one conversion and one swap per matrix ---------------
    assert_eq!(c.fallbacks, 0, "matrix set must be fallback-free for the exact bound");
    assert_eq!(c.conversions, MATRICES as u64, "one background build per matrix");
    assert_eq!(c.swaps, MATRICES as u64, "every flight landed and re-pinned its plan");
    assert_eq!(c.cache_misses, c.conversions, "every background miss led exactly one build");
    assert_eq!(c.cached_entries, MATRICES, "one resident conversion per matrix");
    assert!(c.bytes_resident > 0);

    // --- Clients only ever saw the CSR path or the selected format ----
    for (i, kinds) in &kinds_seen {
        let selected = engine.select(&FeatureSet::extract(&fx.mats[*i]));
        for kind in kinds {
            assert!(
                *kind == FormatKind::NaiveCsr || *kind == selected,
                "stress-{i} served {kind:?}, expected the CSR path or {selected:?}"
            );
        }
    }

    // --- Post-swap serving uses the selected format exactly ------------
    for i in 0..MATRICES {
        let (m, x, want) = (&fx.mats[i], &fx.xs[i], &fx.refs[i]);
        let mut y = vec![f64::NAN; m.rows()];
        let kind = engine.spmv(&fx.ids[i], m, x, &mut y);
        assert_eq!(vec_mismatch(&y, want, 1e-9, 1e-9), None, "{} post-swap", fx.ids[i]);
        assert_eq!(kind, engine.select(&FeatureSet::extract(m)), "{} post-swap kind", fx.ids[i]);
    }
    let after = engine.counters();
    assert_eq!(after.conversions, MATRICES as u64, "post-swap serving converts nothing new");
    assert_eq!(
        after.served_selected,
        c.served_selected + MATRICES as u64,
        "post-swap requests all served the selected format"
    );
}

/// Overlapping `spmv_parallel` clients, synchronous admission: 8
/// concurrent parallel jobs share 2 workers at chunk-task granularity
/// for the whole run. Correctness (dense-checked per request inside
/// `run_clients`), the exactly-once conversion bound, and the pool
/// reconciliation (no low-priority work in sync mode) must all hold.
#[test]
fn overlapping_parallel_serves_sync_are_correct_and_convert_once() {
    let fx = Fixture::new();
    let (engine, kinds_seen) = run_clients(Admission::Sync, &fx, true);

    let c = engine.counters();
    let total = (CLIENTS * ROUNDS * MATRICES) as u64;
    assert_eq!(c.requests, total, "every serve call is a request");
    assert_eq!(c.total_selections(), c.requests);
    assert_eq!(c.served_selected, c.requests, "sync admission always serves the selection");
    assert_eq!(c.served_fallback, 0);
    assert_eq!(c.cache_lookups, c.requests, "one lookup per request");
    assert_eq!(
        c.cache_hits + c.cache_misses + c.coalesced,
        c.cache_lookups,
        "every lookup classified exactly once: hit, miss, or coalesced"
    );
    assert_eq!(c.fallbacks, 0, "matrix set must be fallback-free for the exact bound");
    let distinct_pairs: u64 = kinds_seen.values().map(|s| s.len() as u64).sum();
    for (i, kinds) in &kinds_seen {
        assert_eq!(kinds.len(), 1, "stress-{i} served under several formats: {kinds:?}");
    }
    assert_eq!(c.conversions, distinct_pairs, "duplicate conversions slipped past single-flight");
    assert_eq!(c.cache_misses, c.conversions, "every miss led exactly one build");
    assert_eq!(c.cached_entries, MATRICES, "one resident conversion per matrix");

    // Work-stealing reconciliation: the low class was never touched,
    // while the overlapping parallel serves all ran as high tasks.
    assert_eq!(c.flights_scheduled, 0, "sync admission schedules no flights");
    assert_eq!(c.pool.low_tasks, 0, "the low-priority class stayed untouched");
    assert!(c.pool.high_tasks > 0, "parallel serves ran as high-priority chunk tasks");
}

/// Overlapping `spmv_parallel` clients, asynchronous admission: the
/// acceptance scenario of the work-stealing refactor — 8 concurrent
/// parallel serves and up to 8 conversion flights genuinely share the
/// 2 workers, and the exactly-once conversion/swap invariants still
/// hold exactly once everything lands.
#[test]
fn overlapping_parallel_serves_async_convert_once_and_swap() {
    let fx = Fixture::new();
    let (engine, kinds_seen) = run_clients(Admission::Async { max_in_flight: 8 }, &fx, true);
    engine.drain_admissions();
    // Nudge cap-skipped admissions (see the mixed async test), through
    // the parallel path like everything else in this variant.
    for i in 0..MATRICES {
        let (m, x, want) = (&fx.mats[i], &fx.xs[i], &fx.refs[i]);
        let mut y = vec![f64::NAN; m.rows()];
        engine.spmv_parallel(&fx.ids[i], m, x, &mut y);
        assert_eq!(vec_mismatch(&y, want, 1e-9, 1e-9), None, "{} nudge", fx.ids[i]);
    }
    engine.drain_admissions();

    let c = engine.counters();
    let total = (CLIENTS * ROUNDS * MATRICES + MATRICES) as u64;
    assert_eq!(c.requests, total, "every serve call is a request");
    assert_eq!(c.total_selections(), c.requests);
    assert_eq!(c.served_selected + c.served_fallback, c.requests, "exact reconciliation");
    assert_eq!(
        c.cache_hits + c.cache_misses + c.coalesced,
        c.cache_lookups,
        "every lookup classified exactly once: hit, miss, or coalesced"
    );
    assert_eq!(c.admissions_in_flight, 0, "drain_admissions is a barrier");

    // Exactly one flight, one conversion, one swap per matrix — and
    // the flights are precisely the low-priority tasks the pool ran.
    assert_eq!(c.fallbacks, 0, "matrix set must be fallback-free for the exact bound");
    assert_eq!(c.flights_scheduled, MATRICES as u64, "one flight claimed per id");
    assert_eq!(c.conversions, MATRICES as u64, "one background build per matrix");
    assert_eq!(c.swaps, MATRICES as u64, "every flight landed and re-pinned its plan");
    assert_eq!(c.cache_misses, c.conversions, "every background miss led exactly one build");
    assert_eq!(c.cached_entries, MATRICES, "one resident conversion per matrix");
    assert_eq!(
        c.pool.low_tasks, c.flights_scheduled,
        "every low-priority task the pool ran was an admission flight"
    );
    assert!(c.pool.high_tasks > 0, "parallel serves ran as high-priority chunk tasks");

    // Clients only ever saw the CSR path or the selected format.
    for (i, kinds) in &kinds_seen {
        let selected = engine.select(&FeatureSet::extract(&fx.mats[*i]));
        for kind in kinds {
            assert!(
                *kind == FormatKind::NaiveCsr || *kind == selected,
                "stress-{i} served {kind:?}, expected the CSR path or {selected:?}"
            );
        }
    }
}
