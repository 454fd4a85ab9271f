//! Scalar-profile vs. served-profile lane kernels, single thread: what
//! the vector unit buys each kernel-layer format at the lane width the
//! default engine serves, per matrix class, and how close that lands to
//! the host's memory roof.
//!
//! The operands are the eight feature classes of the repo benchmark
//! (`benchmark/src/inputs.rs`) at one footprint (default 32 MB, the
//! `hot-large` size). Every kernel-layer format that accepts a class
//! is built twice from the same CSR — at `LaneProfile::scalar()`, which
//! always runs the scalar bodies, and at `report::served_profile()`,
//! the width `Engine::new(default)` resolves (`SPMV_LANES`, else the
//! committed host table's; the record's host block names the probe's
//! beside it), which on x86-64 with AVX2 or better runs the gather
//! microkernels — and the two run sequential SpMV alternately; each
//! side reports its fastest rep. Per cell: GFLOP/s of both, their
//! ratio, the host side's computed GB/s (stored format bytes + `x` +
//! `y` once each) and that as a fraction of the measured triad roof
//! (`spmv_core::roofline::measured_triad_gbs` over a working set of the
//! same footprint). The table is printed and written to
//! `BENCH_kernel.json` at the repo root.
//!
//! Naive-CSR at the served profile runs its W1 order across rows on the
//! vector unit; per class the record also states what that buys against
//! the layout it borrows from — its host GFLOP/s over SELL-16-s's and
//! SELL-C-s's, and its roof fraction (`naive_csr`) — with ROADMAP item
//! 6's bars on those numbers reported, not enforced (`item6_bars`).
//!
//! Exit status — enforced on every host with a vector unit, no
//! thread-count escape:
//!
//! * no format on any class runs below 0.9× its scalar twin;
//! * SELL-C-s on `mid-regular` (regular rows, full chunks) runs ≥ 1.5×
//!   its scalar twin.
//!
//! A cell that misses is re-timed up to three times with more reps
//! before it fails the run. A host without AVX2 (or `SPMV_LANES=1`)
//! builds the same scalar code on both sides: the gate reports
//! "skipped: scalar host" and exits 0.
//!
//! Flags: `--mb F` (default 32), `--seed N` (default 1), `--reps N`
//! (default 9).

use spmv_bench::args::parse_flags;
use spmv_bench::calibration::time_once;
use spmv_bench::classes::{self, CLASSES};
use spmv_bench::report::{self, obj, round3, Json};
use spmv_core::roofline::{measured_triad_gbs, Roofline};
use spmv_formats::kernels::vector_isa;
use spmv_formats::{build_format_with, FormatKind, LaneProfile, LaneWidth, SparseFormat};
use std::hint::black_box;

struct Config {
    mb: f64,
    seed: u64,
    reps: usize,
}

fn config() -> Config {
    let mut cfg = Config { mb: 32.0, seed: 1, reps: 9 };
    parse_flags("kernel_throughput [--mb F] [--seed N] [--reps N]", &[], |flag, value| {
        match flag {
            "--mb" => cfg.mb = value.parse().expect("--mb F"),
            "--seed" => cfg.seed = value.parse().expect("--seed N"),
            "--reps" => cfg.reps = value.parse::<usize>().expect("--reps N").max(1),
            _ => return false,
        }
        true
    });
    cfg
}

/// No format may fall below this fraction of its scalar twin.
const MIN_RATIO: f64 = 0.9;
/// The cell that must show the vector unit at work, and by how much.
const SELL_GATE: (&str, FormatKind, f64) = ("mid-regular", FormatKind::SellCSigma, 1.5);
/// Re-measurements granted to a cell that misses its bound.
const RETRIES: usize = 3;
/// ROADMAP item 6's bars for Naive-CSR's rows across the lanes (reported,
/// not enforced): a roof fraction on `short-regular`, and a fraction of
/// SELL-C-s on the classes with regular, longer rows.
const ITEM6_ROOF: (&str, f64) = ("short-regular", 0.45);
const ITEM6_SELL: ([&str; 3], f64) = (["mid-regular", "banded", "long-rows"], 0.85);

/// One class's Naive-CSR against the SELL layouts, at the served profile.
struct NaiveVsSell {
    class: &'static str,
    naive_gflops: f64,
    naive_roof_frac: f64,
    /// Host GFLOP/s of SELL-16-s and SELL-C-s.
    sell16_gflops: f64,
    sell_c_s_gflops: f64,
}

/// Fastest of `reps` alternating timings of (scalar, host), in seconds.
fn measure(
    scalar: &dyn SparseFormat,
    host: &dyn SparseFormat,
    x: &[f64],
    y: &mut [f64],
    reps: usize,
) -> (f64, f64) {
    let mut time = |f: &dyn SparseFormat| time_once(|| f.spmv(black_box(x), black_box(y)));
    let (mut t_scalar, mut t_host) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        t_scalar = t_scalar.min(time(scalar));
        t_host = t_host.min(time(host));
    }
    (t_scalar, t_host)
}

/// The ratio a cell must reach.
fn bound(class: &str, kind: FormatKind) -> f64 {
    if (class, kind) == (SELL_GATE.0, SELL_GATE.1) {
        SELL_GATE.2
    } else {
        MIN_RATIO
    }
}

fn main() {
    let cfg = config();
    let profile = report::served_profile();
    let isa = vector_isa();
    let vectorized = isa != "scalar" && profile.width != LaneWidth::W1;
    // Three arrays that together weigh what one kernel streams.
    let triad_gbs = measured_triad_gbs((cfg.mb * 1024.0 * 1024.0 / 24.0) as usize, 5);
    let roof = Roofline::new(f64::INFINITY, triad_gbs);
    println!(
        "Lane kernels, scalar profile vs {:?} on {isa} ({} MB per class, fastest of {} reps, \
         triad roof {triad_gbs:.1} GB/s)",
        profile.width, cfg.mb, cfg.reps
    );
    println!(
        "{:<14} {:<15} {:>11} {:>11} {:>7} {:>8} {:>6}",
        "class", "format", "scalar GF/s", "host GF/s", "ratio", "GB/s", "roof"
    );

    let mut table = Vec::new();
    let mut misses = Vec::new();
    let mut naive = Vec::new();
    for (i, &(class, ..)) in CLASSES.iter().enumerate() {
        let csr = classes::generate(i, cfg.mb, cfg.seed, i as u64);
        let (rows, cols, nnz) = (csr.rows(), csr.cols(), csr.nnz());
        let x: Vec<f64> = (0..cols).map(|c| 1.0 + (c % 5) as f64 * 0.25).collect();
        let mut y = vec![0.0; rows];
        let flops = 2.0 * nnz as f64;
        let mut row = NaiveVsSell {
            class,
            naive_gflops: 0.0,
            naive_roof_frac: 0.0,
            sell16_gflops: 0.0,
            sell_c_s_gflops: 0.0,
        };
        for kind in FormatKind::KERNEL_LAYER {
            // ELL refuses the skewed classes on its padding budget.
            let Ok(scalar) = build_format_with(kind, &csr, LaneProfile::scalar()) else { continue };
            let host = build_format_with(kind, &csr, profile).expect("the scalar build succeeded");
            let bound = bound(class, kind);
            let (mut t_scalar, mut t_host) = measure(&*scalar, &*host, &x, &mut y, cfg.reps);
            for retry in 1..=RETRIES {
                if !vectorized || t_scalar / t_host >= bound {
                    break;
                }
                let (s, h) = measure(&*scalar, &*host, &x, &mut y, cfg.reps * (retry + 1));
                (t_scalar, t_host) = (t_scalar.min(s), t_host.min(h));
            }
            let ratio = t_scalar / t_host;
            let bytes = (host.bytes() + 8 * (rows + cols)) as f64;
            let gbs = bytes / t_host / 1e9;
            let roof_frac = (flops / t_host / 1e9) / roof.attainable_gflops(flops / bytes);
            println!(
                "{:<14} {:<15} {:>11.2} {:>11.2} {:>6.2}x {:>8.2} {:>6.2}",
                class,
                kind.name(),
                flops / t_scalar / 1e9,
                flops / t_host / 1e9,
                ratio,
                gbs,
                roof_frac
            );
            let host_gflops = flops / t_host / 1e9;
            match kind {
                FormatKind::NaiveCsr => {
                    (row.naive_gflops, row.naive_roof_frac) = (host_gflops, roof_frac)
                }
                FormatKind::SellC16 => row.sell16_gflops = host_gflops,
                FormatKind::SellCSigma => row.sell_c_s_gflops = host_gflops,
                _ => {}
            }
            if vectorized && ratio < bound {
                misses.push(format!("{class} {}: {ratio:.2}x scalar < {bound}x", kind.name()));
            }
            table.push(obj([
                ("class", class.into()),
                ("format", kind.name().into()),
                ("nnz", nnz.into()),
                ("bytes_per_nnz", round3(host.bytes() as f64 / nnz as f64).into()),
                ("scalar_gflops", round3(flops / t_scalar / 1e9).into()),
                ("host_gflops", round3(flops / t_host / 1e9).into()),
                ("ratio", round3(ratio).into()),
                ("host_gbs", round3(gbs).into()),
                ("roof_frac", round3(roof_frac).into()),
            ]));
        }
        naive.push(row);
    }

    println!("\nNaive-CSR at {:?} against the SELL layouts", profile.width);
    println!(
        "{:<14} {:>9} {:>6} {:>11} {:>10}",
        "class", "GF/s", "roof", "/SELL-16-s", "/SELL-C-s"
    );
    for n in &naive {
        println!(
            "{:<14} {:>9.2} {:>6.2} {:>10.2}x {:>9.2}x",
            n.class,
            n.naive_gflops,
            n.naive_roof_frac,
            n.naive_gflops / n.sell16_gflops,
            n.naive_gflops / n.sell_c_s_gflops
        );
    }
    let roof_bar = naive.iter().find(|n| n.class == ITEM6_ROOF.0).map(|n| n.naive_roof_frac);
    let sell_bars: Vec<(&str, f64)> = naive
        .iter()
        .filter(|n| ITEM6_SELL.0.contains(&n.class))
        .map(|n| (n.class, n.naive_gflops / n.sell_c_s_gflops))
        .collect();
    let roof_met = roof_bar.is_some_and(|f| f >= ITEM6_ROOF.1);
    let sell_met = sell_bars.iter().all(|&(_, r)| r >= ITEM6_SELL.1);
    println!(
        "item 6 bars (reported, not enforced): {} roof {:.2} >= {} {}; Naive-CSR/SELL-C-s on {} >= {} {}",
        ITEM6_ROOF.0,
        roof_bar.unwrap_or(f64::NAN),
        ITEM6_ROOF.1,
        if roof_met { "met" } else { "not met" },
        ITEM6_SELL.0.join("/"),
        ITEM6_SELL.1,
        if sell_met { "met" } else { "not met" },
    );

    let verdict = match (vectorized, misses.is_empty()) {
        (false, _) => "skipped: scalar host",
        (true, true) => "passed",
        (true, false) => "failed",
    };
    let body = [
        (
            "config",
            obj([
                ("mb", cfg.mb.into()),
                ("seed", (cfg.seed as usize).into()),
                ("reps", cfg.reps.into()),
                ("threads", 1usize.into()),
                ("triad_gbs", round3(triad_gbs).into()),
                (
                    "timing",
                    "sequential spmv, fastest rep per side, sides alternating; bytes = \
                     stored format + x + y once each; roof_frac = host_gbs / triad_gbs"
                        .into(),
                ),
            ]),
        ),
        (
            "gate",
            obj([
                ("min_ratio", MIN_RATIO.into()),
                ("sell_c_s_mid_regular_min_ratio", SELL_GATE.2.into()),
                ("verdict", verdict.into()),
                ("misses", Json::Arr(misses.iter().map(|m| m.as_str().into()).collect())),
            ]),
        ),
        ("table", Json::Arr(table)),
        (
            "naive_csr",
            Json::Arr(
                naive
                    .iter()
                    .map(|n| {
                        obj([
                            ("class", n.class.into()),
                            ("host_gflops", round3(n.naive_gflops).into()),
                            ("roof_frac", round3(n.naive_roof_frac).into()),
                            ("over_sell_16_s", round3(n.naive_gflops / n.sell16_gflops).into()),
                            ("over_sell_c_s", round3(n.naive_gflops / n.sell_c_s_gflops).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "item6_bars",
            obj([
                ("enforced", false.into()),
                ("short_regular_min_roof_frac", ITEM6_ROOF.1.into()),
                ("short_regular_roof_frac", round3(roof_bar.unwrap_or(f64::NAN)).into()),
                ("roof_met", roof_met.into()),
                ("min_over_sell_c_s", ITEM6_SELL.1.into()),
                (
                    "over_sell_c_s",
                    Json::Obj(
                        sell_bars.iter().map(|&(c, r)| (c.to_string(), round3(r).into())).collect(),
                    ),
                ),
                ("sell_met", sell_met.into()),
            ]),
        ),
    ];
    report::write("kernel", body);

    report::gate(verdict, &misses);
}
