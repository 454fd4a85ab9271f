//! SpMM vs. k independent SpMVs, single thread: measures how much of
//! the matrix stream the panel kernels (`spmv_formats::kernels::panel`)
//! amortize over `k` right-hand sides — the blocked iterative-solver
//! workload where format choice pays off most.
//!
//! For each matrix class, format and k ∈ {1, 2, 3, 4, 8, 16}, (a) `k`
//! sequential `spmv` passes of the format and (b) one `spmm` over the
//! same column-major block are timed alternately; each side reports its
//! fastest rep (the speed of the code when the host leaves it alone).
//! The table is printed and written to `BENCH_spmm.json` at the repo
//! root. Formats without a panel kernel (HYB and the figure-set formats
//! COO, DIA, BCSR, VSL and SparseX) run the trait's default loop of `k`
//! SpMVs, sit at ~1.0× and are gated at k ≤ 3 only.
//!
//! The yardstick is every format's own SpMV at every `k`. Up to k = 3
//! `spmm` *is* a loop over it; from k = 4 the panel kernels take over,
//! and both sides use the same hardware: wherever the host has AVX2 the
//! SpMV runs gather microkernels and the panel blocks run line loads
//! and broadcasts on the vector unit (`spmv_formats::kernels`), on
//! other hosts both run their scalar bodies.
//!
//! Exit status — enforced on every host, no thread-count escape:
//!
//! * at k ∈ {4, 8, 16} every format with a panel kernel runs `spmm`
//!   ≥ 1.5× faster than `k` SpMVs on the `regular` and `irregular`
//!   classes (`skewed` and `banded` are reported, not gated);
//! * at k ∈ {1, 2, 3} no format on any class is more than 5% slower
//!   than `k` SpMVs (those `k` run the format's own SpMV kernel per
//!   column, so this guards the dispatch around it).
//!
//! A cell that misses its bound is re-timed up to three times with more reps
//! before it fails the run: one descheduled sample must not turn a gate
//! red.
//!
//! Flags: `--rows N` (default 40000), `--avg-nnz F` (default 16),
//! `--seed N`, `--reps N` (default 5).

use spmv_bench::args::parse_flags;
use spmv_bench::calibration::time_once as time;
use spmv_bench::report::{self, obj, round3, Json};
use spmv_formats::{build_format, FormatKind, SparseFormat};
use spmv_gen::{GeneratorParams, RowDist};

struct Config {
    rows: usize,
    avg_nnz: f64,
    seed: u64,
    reps: usize,
}

fn config() -> Config {
    let mut cfg = Config { rows: 40_000, avg_nnz: 16.0, seed: 0xBA7C4, reps: 5 };
    parse_flags(
        "spmm_throughput [--rows N] [--avg-nnz F] [--seed N] [--reps N]",
        &[],
        |flag, value| {
            match flag {
                "--rows" => cfg.rows = value.parse().expect("--rows N"),
                "--avg-nnz" => cfg.avg_nnz = value.parse().expect("--avg-nnz F"),
                "--seed" => cfg.seed = value.parse().expect("--seed N"),
                "--reps" => cfg.reps = value.parse::<usize>().expect("--reps N").max(1),
                _ => return false,
            }
            true
        },
    );
    cfg
}

/// The formats whose `spmm` is a panel kernel (see the table in
/// `spmv_formats::kernels::panel`): the serving set but HYB.
const PANEL: [FormatKind; 9] = [
    FormatKind::NaiveCsr,
    FormatKind::VectorizedCsr,
    FormatKind::BalancedCsr,
    FormatKind::Ell,
    FormatKind::SellCSigma,
    FormatKind::SellC4,
    FormatKind::SellC16,
    FormatKind::Csr5,
    FormatKind::MergeCsr,
];

const CLASSES: [&str; 4] = ["regular", "irregular", "skewed", "banded"];
/// Classes the ≥ 1.5× gate applies to.
const GATED_CLASSES: [&str; 2] = ["regular", "irregular"];
const KS: [usize; 6] = [1, 2, 3, 4, 8, 16];
/// `spmm` must beat `k` SpMVs by this factor at `k ≥ 4` (panel formats).
const MIN_PANEL_SPEEDUP: f64 = 1.5;
/// `spmm` may not fall below this fraction of `k` SpMVs at `k ≤ 3`.
const MIN_SMALL_K_SPEEDUP: f64 = 0.95;
/// Re-measurements granted to a cell that misses its bound.
const RETRIES: usize = 3;

fn matrix(class: &str, cfg: &Config) -> spmv_core::CsrMatrix {
    let base = GeneratorParams {
        nr_rows: cfg.rows,
        nr_cols: cfg.rows,
        avg_nz_row: cfg.avg_nnz,
        std_nz_row: cfg.avg_nnz * 0.2,
        distribution: RowDist::Normal,
        skew_coeff: 0.0,
        bw_scaled: 0.3,
        cross_row_sim: 0.5,
        avg_num_neigh: 0.95,
        seed: cfg.seed,
    };
    let p = match class {
        "irregular" => {
            GeneratorParams { bw_scaled: 0.6, cross_row_sim: 0.05, avg_num_neigh: 0.05, ..base }
        }
        "skewed" => GeneratorParams { skew_coeff: 500.0, std_nz_row: 0.0, ..base },
        "banded" => {
            GeneratorParams { bw_scaled: 0.05, cross_row_sim: 0.9, avg_num_neigh: 1.8, ..base }
        }
        _ => base,
    };
    p.generate().expect("bench matrix generates")
}

/// Fastest of `reps` alternating timings of (`k` SpMVs, one SpMM) of
/// `fmt`, in seconds.
fn measure(fmt: &dyn SparseFormat, x: &[f64], k: usize, y: &mut [f64], reps: usize) -> (f64, f64) {
    let (rows, cols) = (fmt.rows(), fmt.cols());
    let (mut t_spmv, mut t_spmm) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        t_spmv = t_spmv.min(time(|| {
            for j in 0..k {
                fmt.spmv(&x[j * cols..(j + 1) * cols], &mut y[j * rows..(j + 1) * rows]);
            }
        }));
        t_spmm = t_spmm.min(time(|| fmt.spmm(x, k, y)));
    }
    std::hint::black_box(&y);
    (t_spmv, t_spmm)
}

/// The speedup a cell must reach, if it is gated.
fn bound(class: &str, kind: FormatKind, k: usize) -> Option<f64> {
    if k <= 3 {
        Some(MIN_SMALL_K_SPEEDUP)
    } else if PANEL.contains(&kind) && GATED_CLASSES.contains(&class) {
        Some(MIN_PANEL_SPEEDUP)
    } else {
        None
    }
}

fn main() {
    let cfg = config();
    println!(
        "SpMM throughput vs k independent SpMVs ({} rows, avg {} nnz/row, fastest of {} reps)",
        cfg.rows, cfg.avg_nnz, cfg.reps
    );
    println!(
        "{:<10} {:<15} {:>3} {:>12} {:>12} {:>9}",
        "class", "format", "k", "spmv GF/s", "spmm GF/s", "speedup"
    );
    let mut table = Vec::new();
    let mut misses = Vec::new();
    for class in CLASSES {
        let csr = matrix(class, &cfg);
        let (rows, cols, nnz) = (csr.rows(), csr.cols(), csr.nnz());
        for kind in FormatKind::ALL {
            let Ok(fmt) = build_format(kind, &csr) else { continue };
            for k in KS {
                let x: Vec<f64> = (0..cols * k).map(|i| 1.0 + (i % 5) as f64 * 0.25).collect();
                let mut y = vec![0.0; rows * k];
                let flops = (2 * nnz * k) as f64;
                let bound = bound(class, kind, k);

                let clears =
                    |(t_spmv, t_spmm): (f64, f64)| bound.is_none_or(|b| t_spmv / t_spmm >= b);
                let mut timed = measure(fmt.as_ref(), &x, k, &mut y, cfg.reps);
                for retry in 1..=RETRIES {
                    if clears(timed) {
                        break;
                    }
                    timed = measure(fmt.as_ref(), &x, k, &mut y, cfg.reps * (retry + 1));
                }
                let (t_spmv, t_spmm) = timed;
                let (speedup, pass) = (t_spmv / t_spmm, clears(timed));

                println!(
                    "{:<10} {:<15} {:>3} {:>12.2} {:>12.2} {:>8.2}x{}",
                    class,
                    fmt.name(),
                    k,
                    flops / t_spmv / 1e9,
                    flops / t_spmm / 1e9,
                    speedup,
                    if pass { "" } else { "  << below bound" }
                );
                table.push(obj([
                    ("class", class.into()),
                    ("format", fmt.name().into()),
                    ("k", k.into()),
                    ("spmv_gflops", round3(flops / t_spmv / 1e9).into()),
                    ("spmm_gflops", round3(flops / t_spmm / 1e9).into()),
                    ("speedup", round3(speedup).into()),
                    ("bound", bound.map_or(Json::Str("none".into()), Json::Num)),
                ]));
                if !pass {
                    misses.push(format!(
                        "{class}/{}/k={k}: {speedup:.2}x < {:.2}x",
                        fmt.name(),
                        bound.expect("an ungated cell cannot miss")
                    ));
                }
            }
        }
    }

    let body = [
        (
            "config",
            obj([
                ("rows", cfg.rows.into()),
                ("avg_nnz", cfg.avg_nnz.into()),
                ("seed", (cfg.seed as usize).into()),
                ("reps", cfg.reps.into()),
                ("timing", "fastest rep of each side, sides alternating".into()),
            ]),
        ),
        (
            "gate",
            obj([
                ("panel_formats", Json::Arr(PANEL.iter().map(|k| k.name().into()).collect())),
                ("gated_classes", Json::Arr(GATED_CLASSES.iter().map(|&c| c.into()).collect())),
                ("min_speedup_k_4_8_16", MIN_PANEL_SPEEDUP.into()),
                ("min_speedup_k_1_2_3", MIN_SMALL_K_SPEEDUP.into()),
                ("misses", Json::Arr(misses.iter().map(|m| m.as_str().into()).collect())),
            ]),
        ),
        ("table", Json::Arr(table)),
    ];
    report::write("spmm", body);

    let passed = format!(
        "OK (panel formats >= {MIN_PANEL_SPEEDUP}x their own spmvs at k >= 4 on \
         regular/irregular; no format < {MIN_SMALL_K_SPEEDUP}x at k <= 3)"
    );
    report::gate(&passed, &misses);
}
