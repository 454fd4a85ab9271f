//! Conjugate-gradient solver: the workload the paper's introduction
//! motivates ("SpMV is at the heart of large sparse system solvers,
//! actually dominating their execution time").
//!
//! Builds a symmetric positive-definite system from a 2-D Poisson
//! stencil and solves it two ways:
//!
//! * **per-format comparison** — CG where the hot SpMV runs through
//!   each storage format in turn (vector updates on the parallel
//!   BLAS-1 layer), reporting how much of the solver's wall time SpMV
//!   consumed — reproducing the motivating observation;
//! * **engine-selected row** — the same system through
//!   [`Engine::solver`]: the engine picks the format once, and the
//!   solve runs on the fused SpMV+dot handle, which holds that format.
//!
//! ```text
//! cargo run --release --example cg_solver [grid_n] [format]
//! ```

use spmv_suite::engine::{Engine, EngineConfig, TrainingPlan};
use spmv_suite::formats::{build_format, FormatKind, SparseFormat};
use spmv_suite::gen::dataset::DatasetSize;
use spmv_suite::gen::structured::stencil_2d;
use spmv_suite::parallel::{blas1, ThreadPool};

struct CgResult {
    iterations: usize,
    residual: f64,
    spmv_secs: f64,
    total_secs: f64,
}

/// Unpreconditioned CG on `A x = b`, SpMV via the given format, vector
/// updates on the deterministic parallel BLAS-1 layer.
fn cg(a: &dyn SparseFormat, pool: &ThreadPool, b: &[f64], tol: f64, max_iters: usize) -> CgResult {
    let n = b.len();
    let t_total = std::time::Instant::now();
    let mut spmv_secs = 0.0;

    let mut x = vec![0.0; n];
    let mut r = b.to_vec(); // r = b - A*0
    let mut p = r.clone();
    let mut ap = vec![0.0; n];
    let mut rr = blas1::dot(pool, &r, &r);
    let b_norm = rr.sqrt().max(1e-300);

    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        let t = std::time::Instant::now();
        a.spmv_parallel(pool, &p, &mut ap);
        spmv_secs += t.elapsed().as_secs_f64();

        let alpha = rr / blas1::dot(pool, &p, &ap);
        blas1::axpy(pool, alpha, &p, &mut x);
        blas1::axpy(pool, -alpha, &ap, &mut r);
        let rr_new = blas1::dot(pool, &r, &r);
        if rr_new.sqrt() / b_norm < tol {
            rr = rr_new;
            break;
        }
        let beta = rr_new / rr;
        rr = rr_new;
        blas1::xpby(pool, &r, beta, &mut p);
    }
    CgResult {
        iterations,
        residual: rr.sqrt() / b_norm,
        spmv_secs,
        total_secs: t_total.elapsed().as_secs_f64(),
    }
}

fn main() {
    let grid_n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(512);
    let wanted = std::env::args().nth(2);

    let a = stencil_2d(grid_n, 0.0, 0.0);
    println!(
        "2-D Poisson system: {} unknowns, {} nonzeros ({:.1} MB CSR)\n",
        a.rows(),
        a.nnz(),
        a.mem_footprint_mb()
    );
    let b = vec![1.0; a.rows()];
    let pool = ThreadPool::with_all_cores();
    let tol = 1e-8;
    let max_iters = 4 * grid_n;

    let kinds: Vec<FormatKind> = match wanted.as_deref() {
        Some(name) => {
            FormatKind::ALL.into_iter().filter(|k| k.name().eq_ignore_ascii_case(name)).collect()
        }
        None => vec![
            FormatKind::NaiveCsr,
            FormatKind::VectorizedCsr,
            FormatKind::SellCSigma,
            FormatKind::MergeCsr,
            // Figure-set formats: `spmv_parallel` runs their sequential
            // kernel (the engine never serves them). The stencil is what
            // DIA and BCSR exist for: five diagonals / dense blocks.
            FormatKind::SparseX,
            FormatKind::Dia,
            FormatKind::Bcsr,
        ],
    };
    if kinds.is_empty() {
        eprintln!("unknown format; valid names:");
        for k in FormatKind::ALL {
            eprintln!("  {}", k.name());
        }
        std::process::exit(2);
    }

    println!(
        "{:<16} {:>6} {:>11} {:>11} {:>11} {:>9}",
        "format", "iters", "total s", "SpMV s", "SpMV %", "GFLOP/s"
    );
    for kind in kinds {
        let fmt = match build_format(kind, &a) {
            Ok(f) => f,
            Err(e) => {
                println!("{:<16} refused: {e}", kind.name());
                continue;
            }
        };
        let res = cg(fmt.as_ref(), &pool, &b, tol, max_iters);
        let gflops = 2.0 * a.nnz() as f64 * res.iterations as f64 / res.spmv_secs.max(1e-12) / 1e9;
        println!(
            "{:<16} {:>6} {:>11.3} {:>11.3} {:>10.1}% {:>9.2}",
            fmt.name(),
            res.iterations,
            res.total_secs,
            res.spmv_secs,
            100.0 * res.spmv_secs / res.total_secs,
            gflops
        );
        assert!(res.residual < tol, "CG must converge on an SPD system");
    }

    // The engine-selected row: plan once, pin, and solve on the fused
    // SpMV+dot handle — no per-iteration serving overhead, and the
    // SpMV/dot boundary is gone (hence no separate SpMV column).
    let engine = Engine::new(EngineConfig {
        scale: 16384.0,
        training: TrainingPlan { size: DatasetSize::Small, stride: 40, base_seed: 0xA11CE },
        ..EngineConfig::default()
    })
    .expect("builtin training");
    let mut handle = engine.solver("poisson", &a);
    let t0 = std::time::Instant::now();
    let out = handle.cg(&b, tol, max_iters).expect("SPD system solves");
    let total = t0.elapsed().as_secs_f64();
    println!(
        "{:<16} {:>6} {:>11.3} {:>11} {:>11} {:>9}   <- engine-selected, fused",
        format!("engine:{:?}", handle.kind()),
        out.iterations,
        total,
        "(fused)",
        "-",
        "-"
    );
    assert!(out.converged, "engine-selected CG must converge on an SPD system");

    println!(
        "\nSpMV dominates the solver exactly as the paper's introduction claims; \
         swapping the storage format moves end-to-end solve time without touching CG, \
         and the engine's solver handle removes the remaining per-iteration overhead."
    );
}
