//! End-to-end tests for the engine's plan-once/run-many solver tier
//! ([`Engine::solver`]): CG and BiCGStab convergence on engine-served
//! fused kernels, exact counter reconciliation for the
//! `solves` / `solver_iterations` fields and the live-handle gauge
//! `pinned_plans`, one resolution per handle — a handle keeps solving
//! on the format it holds after LRU eviction of its plan and its
//! conversion, and after `forget` of its id — and the typed breakdown
//! errors.

use spmv_suite::core::CsrMatrix;
use spmv_suite::engine::{Engine, EngineConfig, SolveError, TrainingPlan};
use spmv_suite::gen::dataset::DatasetSize;
use spmv_suite::gen::structured::stencil_2d;

const SCALE: f64 = 16384.0;

fn engine_with(plan_capacity: usize, cache_capacity_bytes: usize) -> Engine {
    Engine::new(EngineConfig {
        device: "AMD-EPYC-24".into(),
        scale: SCALE,
        k: 1,
        cache_capacity_bytes,
        plan_capacity,
        threads: 3,
        shards: 1,
        training: TrainingPlan { size: DatasetSize::Small, stride: 40, base_seed: 0xA11CE },
        ..EngineConfig::default()
    })
    .expect("builtin training")
}

fn engine() -> Engine {
    engine_with(1 << 16, 64 << 20)
}

/// Upwind convection-diffusion on an `n x n` grid: diagonally dominant
/// but *not* symmetric — CG's no-man's-land, BiCGStab's home turf.
fn convection_2d(n: usize) -> CsrMatrix {
    let dim = n * n;
    let mut t: Vec<(usize, usize, f64)> = Vec::with_capacity(5 * dim);
    for i in 0..n {
        for j in 0..n {
            let r = i * n + j;
            t.push((r, r, 4.5));
            if i > 0 {
                t.push((r, r - n, -1.5)); // upwind: heavier than the
            }
            if i + 1 < n {
                t.push((r, r + n, -0.5)); // downwind neighbor
            }
            if j > 0 {
                t.push((r, r - 1, -1.5));
            }
            if j + 1 < n {
                t.push((r, r + 1, -0.5));
            }
        }
    }
    CsrMatrix::from_triplets(dim, dim, &t).expect("stencil is valid")
}

/// Max-norm residual of `A·x - b`, computed independently of the
/// solver's own bookkeeping.
fn residual_inf(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; a.rows()];
    a.spmv_into(x, &mut ax);
    ax.iter().zip(b).map(|(l, r)| (l - r).abs()).fold(0.0, f64::max)
}

#[test]
fn cg_converges_on_poisson_and_counters_reconcile() {
    let engine = engine();
    let a = stencil_2d(24, 0.0, 0.0);
    let b = vec![1.0; a.rows()];

    let before = engine.counters();
    assert_eq!((before.solves, before.solver_iterations, before.pinned_plans), (0, 0, 0));

    let mut handle = engine.solver("poisson", &a);
    {
        let c = engine.counters();
        // The one-time resolution is one full request with one lookup
        // and one conversion; the gauge shows the live handle.
        assert_eq!(c.requests, 1);
        assert_eq!(c.cache_lookups, 1);
        assert_eq!(c.conversions, 1);
        assert_eq!(c.pinned_plans, 1);
        assert_eq!(c.solves, 0, "creating a handle is not yet a solve");
    }

    let out = handle.cg(&b, 1e-10, 5_000).expect("SPD system converges");
    assert!(out.converged, "stalled at residual {}", out.residual);
    assert!(out.iterations > 10, "a 576-unknown Poisson system takes real iterations");
    assert!(residual_inf(&a, handle.solution(), &b) < 1e-6);

    // A second solve on the same handle: different rhs, zero new
    // lookups, zero new conversions — the format is held directly.
    let b2: Vec<f64> = (0..a.rows()).map(|i| ((i % 7) as f64) - 3.0).collect();
    let out2 = handle.cg(&b2, 1e-10, 5_000).expect("SPD system converges");
    assert!(out2.converged);
    assert!(residual_inf(&a, handle.solution(), &b2) < 1e-6);

    let c = engine.counters();
    assert_eq!(c.solves, 2);
    assert_eq!(c.solver_iterations, (out.iterations + out2.iterations) as u64);
    assert_eq!(c.requests, 1, "iterations bypass the serve front door");
    assert_eq!(c.cache_lookups, 1, "resolution happened exactly once");
    assert_eq!(c.conversions, 1, "zero re-conversions across both solves");
    assert_eq!(c.pinned_plans, 1);

    drop(handle);
    assert_eq!(engine.counters().pinned_plans, 0, "the gauge counts live handles");
}

#[test]
fn bicgstab_converges_on_a_nonsymmetric_system() {
    let engine = engine();
    let a = convection_2d(16);
    let b: Vec<f64> = (0..a.rows()).map(|i| 1.0 + (i % 3) as f64).collect();

    let mut handle = engine.solver("convection", &a);
    let out = handle.bicgstab(&b, 1e-10, 5_000).expect("diagonally dominant system converges");
    assert!(out.converged, "stalled at residual {}", out.residual);
    assert!(residual_inf(&a, handle.solution(), &b) < 1e-6);

    let c = engine.counters();
    assert_eq!(c.solves, 1);
    assert_eq!(c.solver_iterations, out.iterations as u64);
    assert_eq!(c.conversions, 1, "one resolution for the whole solve");
}

#[test]
fn solve_outlives_eviction_of_its_plan_and_conversion() {
    // One shard, two plans and a cache that holds one operand: two ids
    // streamed past the solve evict both its plan and its conversion.
    const CACHE: usize = 16 << 10;
    let engine = engine_with(2, CACHE);
    let a = stencil_2d(12, 0.0, 0.0);
    let b = vec![1.0; a.rows()];

    let mut handle = engine.solver("solved", &a);
    let one = engine.counters().bytes_resident;
    assert!(one <= CACHE && CACHE < 2 * one, "the cache must hold one operand, not {one} B");
    handle.cg(&b, 1e-10, 2_000).expect("converges");

    // Stream copies of the same matrix (same selection, same size)
    // under other ids.
    let (x, mut y) = (vec![1.0; a.cols()], vec![0.0; a.rows()]);
    let streamed = 2u64;
    for i in 0..streamed {
        engine.spmv(&format!("stream-{i}"), &a, &x, &mut y);
    }
    let mid = engine.counters();
    assert_eq!(mid.cached_entries, 1, "only the last streamed conversion stays");
    assert_eq!(mid.planned_entries, 2, "only the two streamed plans stay");

    // The handle solves on the format it holds: no new request,
    // lookup or conversion.
    let out = handle.cg(&b, 1e-10, 2_000).expect("still converges");
    assert!(out.converged);
    assert!(residual_inf(&a, handle.solution(), &b) < 1e-6);
    let c = engine.counters();
    assert_eq!(c.requests, mid.requests, "the solve re-entered the front door");
    assert_eq!(c.cache_lookups, mid.cache_lookups, "the solve re-resolved");
    assert_eq!(c.conversions, mid.conversions, "the solve reconverted");
    assert_eq!(c.pinned_plans, 1);

    // A plain serve of the id re-plans and converts once more: the
    // entries really were gone while the handle kept working.
    engine.spmv("solved", &a, &x, &mut y);
    let after = engine.counters();
    assert_eq!(after.extractions, c.extractions + 1, "the solved id's plan was not evicted");
    assert_eq!(after.conversions, c.conversions + 1, "the solved id's conversion was not evicted");
    drop(handle);
    assert_eq!(engine.counters().pinned_plans, 0);
}

#[test]
fn concurrent_handles_resolve_once_each_while_admissions_stream_past() {
    // Four live handles and a streaming client on a 2-entry plan
    // table: every streamed id evicts plans, and no solve may re-enter
    // the serve path (one resolution per handle, none per solve).
    let engine = engine_with(2, 64 << 20);
    let systems: Vec<(String, CsrMatrix)> =
        (0..4).map(|i| (format!("solve-{i}"), stencil_2d(10 + 2 * i, 0.0, 0.0))).collect();
    let (solves_each, streamed) = (3usize, 16u64);
    let before = engine.counters();
    std::thread::scope(|s| {
        for (id, a) in &systems {
            let engine = &engine;
            s.spawn(move || {
                let mut handle = engine.solver(id, a);
                for salt in 0..solves_each {
                    let b: Vec<f64> =
                        (0..a.rows()).map(|i| 1.0 + ((i + salt) % 5) as f64).collect();
                    let out = handle.cg(&b, 1e-10, 5_000).expect("SPD system converges");
                    assert!(out.converged, "{id} stalled at residual {}", out.residual);
                    assert!(residual_inf(a, handle.solution(), &b) < 1e-6);
                }
            });
        }
        s.spawn(|| {
            let (m, x, mut y) = (CsrMatrix::identity(64), vec![1.0; 64], vec![0.0; 64]);
            for i in 0..streamed {
                engine.spmv(&format!("stream-{i}"), &m, &x, &mut y);
            }
        });
    });

    let c = engine.counters();
    let resolutions = systems.len() as u64 + streamed;
    assert_eq!(c.requests - before.requests, resolutions, "a solve re-entered the front door");
    assert_eq!(c.cache_lookups - before.cache_lookups, resolutions, "a solve re-resolved");
    assert_eq!(c.conversions - before.conversions, resolutions, "an id reconverted");
    assert_eq!(c.solves - before.solves, (systems.len() * solves_each) as u64);
    assert_eq!(c.pinned_plans, 0, "every handle was dropped");
}

#[test]
fn solve_racing_forget_finishes_on_the_pinned_plan() {
    let engine = engine();
    let a = stencil_2d(12, 0.0, 0.0);
    let b = vec![1.0; a.rows()];

    let mut handle = engine.solver("racy", &a);
    let resolved = engine.counters();
    assert_eq!(resolved.pinned_plans, 1);

    // `forget` lands mid-lifetime: the tables are cleared, but the
    // solve must finish on the format the handle already holds — no
    // panic, no re-resolution.
    engine.forget("racy");
    let forgotten = engine.counters();
    assert_eq!(forgotten.cached_entries, 0, "forget cleared the conversion");
    assert_eq!(forgotten.planned_entries, 0, "forget cleared the plan");
    assert_eq!(forgotten.pinned_plans, 1, "the handle outlives the forget");

    let out = handle.cg(&b, 1e-10, 2_000).expect("solve finishes after forget");
    assert!(out.converged);
    assert!(residual_inf(&a, handle.solution(), &b) < 1e-6);
    let c = engine.counters();
    assert_eq!(c.requests, resolved.requests, "no mid-solve request");
    assert_eq!(c.cache_lookups, resolved.cache_lookups, "no mid-solve re-resolution");
    assert_eq!(c.conversions, resolved.conversions, "no mid-solve re-conversion");
    assert_eq!(c.pinned_plans, 1);

    // Dropping the first handle must not disturb a successor's plan
    // or conversion for the same id.
    let mut handle2 = engine.solver("racy", &a);
    let successor = engine.counters();
    assert_eq!(successor.pinned_plans, 2);
    assert_eq!((successor.planned_entries, successor.cached_entries), (1, 1));
    drop(handle);
    let c = engine.counters();
    assert_eq!(c.pinned_plans, 1);
    assert_eq!(
        (c.planned_entries, c.cached_entries),
        (successor.planned_entries, successor.cached_entries),
        "dropping the first handle touched the successor's entries"
    );
    handle2.cg(&b, 1e-10, 2_000).expect("successor handle works");
    drop(handle2);
    assert_eq!(engine.counters().pinned_plans, 0);
}

#[test]
fn breakdown_errors_are_typed() {
    let engine = engine();

    // Dimension mismatch, before any arithmetic.
    let a = stencil_2d(4, 0.0, 0.0);
    let mut h = engine.solver("dim", &a);
    assert_eq!(
        h.cg(&[1.0; 3], 1e-8, 10),
        Err(SolveError::DimensionMismatch { expected: 16, got: 3 })
    );

    // Non-finite right-hand side.
    let mut b = vec![1.0; 16];
    b[7] = f64::NAN;
    assert_eq!(h.cg(&b, 1e-8, 10), Err(SolveError::NonFiniteRhs));
    assert_eq!(h.bicgstab(&b, 1e-8, 10), Err(SolveError::NonFiniteRhs));

    // Zero right-hand side: trivial convergence in zero iterations.
    let out = h.cg(&[0.0; 16], 1e-8, 10).expect("trivial");
    assert!(out.converged);
    assert_eq!(out.iterations, 0);
    assert!(h.solution().iter().all(|&v| v == 0.0));

    // CG on a negative-definite matrix: curvature breaks immediately.
    let neg = CsrMatrix::from_triplets(8, 8, &(0..8).map(|i| (i, i, -1.0)).collect::<Vec<_>>())
        .expect("diagonal");
    let mut h = engine.solver("negdef", &neg);
    assert_eq!(h.cg(&[1.0; 8], 1e-8, 10), Err(SolveError::CurvatureBreakdown { iteration: 0 }));

    // BiCGStab on the zero matrix: A·p = 0 collapses rho's companion
    // scalar in the first iteration.
    let zero = CsrMatrix::zeros(8, 8);
    let mut h = engine.solver("zero", &zero);
    assert_eq!(h.bicgstab(&[1.0; 8], 1e-8, 10), Err(SolveError::RhoBreakdown { iteration: 0 }));

    // Breakdown iterations still reconcile into the counter: the
    // failed runs above completed zero iterations each, the trivial
    // solve zero — so the counter is exactly zero.
    assert_eq!(engine.counters().solver_iterations, 0);
    assert_eq!(engine.counters().solves, 6);
}
