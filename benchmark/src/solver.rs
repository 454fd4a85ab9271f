//! The solver-tier probe behind the `engine.solve.*` per-layer metrics:
//! `Engine::solver` on a small 2-D Poisson system (CG) and a same-size
//! nonsymmetric convection–diffusion system (BiCGStab), to 1e-8, on the
//! engine of whichever workload is being traced. It uses the kernel
//! layer differently from every serve path — fused `spmv_dot_parallel`
//! and `blas1` through the executor, no front door.
//!
//! This was a workload of its own (`solve`, 512² systems). Its timings
//! could not hold their bound between runs of the same code on a shared
//! host and its two full solves cost 13 s of every run, so it was
//! demoted to this probe; see README.md, "Deviations".

use crate::inputs;
use crate::metrics::Metrics;
use crate::stats::fastest_tenth;
use crate::timing::{once, per_call};
use crate::verify::{true_residual, Tally, RESIDUAL_TOL, SOLVE_TOL};
use spmv_engine::Engine;
use spmv_formats::build_format_with;
use std::time::{Duration, Instant};

/// Grid side of the two systems (96² = 9 216 unknowns).
const GRID: usize = 96;
const MAX_ITERS: usize = 20_000;

/// Iterations per timing sample. CG and BiCGStab do the same work every
/// iteration, so runs cut off after `CHUNK_ITERS` iterations cost the
/// same per iteration as a full solve and give many short samples.
const CHUNK_ITERS: usize = 10;

/// How long the cut-off runs are repeated for.
const CHUNK_BUDGET: Duration = Duration::from_millis(100);

/// Solves both systems once in full (verified on the CSR reference),
/// samples the time per CG iteration, and sets the `engine.solve.*`
/// metrics.
pub fn probe(m: &mut Metrics, tally: &mut Tally, engine: &Engine, seed: u64) {
    let (p, q) = inputs::CONVECTION;
    let (poisson, convdiff) = (inputs::stencil_2d(GRID, 0.0, 0.0), inputs::stencil_2d(GRID, p, q));
    let b = inputs::rhs(GRID * GRID, seed, 0);
    // Creating a handle resolves, converts and pins: the solve tier's
    // whole admission.
    let ((mut cg, mut bicgstab), setup_s) = once(|| {
        (engine.solver("probe-poisson", &poisson), engine.solver("probe-convdiff", &convdiff))
    });

    // One full solve each: the iteration counts are exact at a fixed
    // pool width, and the true residual is recomputed on CSR.
    let solved = cg.cg(&b, SOLVE_TOL, MAX_ITERS);
    let cg_iters = solved.as_ref().map_or(0, |o| o.iterations);
    tally.check(
        solved.is_ok_and(|o| o.converged)
            && true_residual(&poisson, cg.solution(), &b) <= RESIDUAL_TOL,
    );
    let solved = bicgstab.bicgstab(&b, SOLVE_TOL, MAX_ITERS);
    let bicgstab_iters = solved.as_ref().map_or(0, |o| o.iterations);
    tally.check(
        solved.is_ok_and(|o| o.converged)
            && true_residual(&convdiff, bicgstab.solution(), &b) <= RESIDUAL_TOL,
    );
    tally.issued(2);

    let mut iter_s = Vec::new();
    let start = Instant::now();
    while start.elapsed() < CHUNK_BUDGET {
        let (run, s) = once(|| cg.cg(&b, SOLVE_TOL, CHUNK_ITERS));
        tally.check(run.is_ok_and(|o| {
            iter_s.push(s / o.iterations.max(1) as f64);
            o.residual.is_finite()
        }));
        tally.issued(1);
    }
    let iter_s = fastest_tenth(&iter_s);

    // The share of an iteration the fused SpMV+dot kernel takes,
    // measured on the same format built directly.
    let fmt = build_format_with(cg.kind(), &poisson, engine.lane_profile())
        .expect("the solver's format was built once already");
    let mut v = vec![0.0; b.len()];
    let kernel_s = per_call(20, || fmt.spmv_dot_parallel(engine.pool(), &b, &mut v));
    m.set("engine.solve.setup_ms", setup_s / 2.0 * 1e3);
    m.set("engine.solve.iter_us", iter_s * 1e6);
    m.set("engine.solve.cg_iters", cg_iters as f64);
    m.set("engine.solve.bicgstab_iters", bicgstab_iters as f64);
    m.set("engine.solve.spmv_share", kernel_s / iter_s);

    // Dropping the handles releases their pins; the tables reconcile.
    drop((cg, bicgstab));
    crate::setup::require_counters_reconcile(engine, tally);
    let pinned = engine.counters().pinned_plans;
    tally.require(pinned == 0, || format!("{pinned} plans still pinned"));
}
