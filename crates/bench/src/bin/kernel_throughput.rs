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
//! microkernels. Each cell is one trial of `spmv_bench::timing`: the
//! scalar twin, the served one and a STREAM triad over arrays that
//! weigh what the served format streams (stored bytes + `x` + `y` once
//! each), `--reps` rounds, each round visiting the three in rotated
//! order. Per cell: GFLOP/s of both sides (median rounds), their ratio
//! as the median of the per-round ratios with its IQR, the rounds the
//! served side won and the ratio of the fastest rounds (the min-of-N
//! statistic, beside it), the served side's computed GB/s, and its roof
//! fraction: the median over rounds of its GB/s over that round's triad
//! GB/s. For Naive-CSR the cell names the body that ran (`across`, the
//! rows across the lanes, or `scalar loop`), by the rule the kernel
//! dispatches on (`spmv_formats::kernels::runs_across`). The table is
//! printed and written to `BENCH_kernel.json` at the repo root.
//!
//! Naive-CSR at the served profile runs its W1 order across rows on the
//! vector unit; per class the record also states what that buys against
//! the layout it borrows from — its host GFLOP/s over SELL-16-s's and
//! SELL-C-s's, and its roof fraction (`naive_csr`) — with ROADMAP item
//! 6's bars on those numbers reported, not enforced (`item6_bars`).
//!
//! Exit status — enforced on every host with a vector unit, no
//! thread-count escape; a cell passes when its median paired ratio
//! clears its bar:
//!
//! * no format on any class runs below 0.9× its scalar twin;
//! * SELL-C-s on `mid-regular` (regular rows, full chunks) runs ≥ 1.5×
//!   its scalar twin.
//!
//! A host without AVX2 (or `SPMV_LANES=1`) builds the same scalar code
//! on both sides: the gate reports "skipped: scalar host" and exits 0.
//!
//! Flags: `--mb F` (default 32), `--seed N` (default 1), `--reps N`
//! (rounds, default 9).

use spmv_bench::args::parse_flags;
use spmv_bench::classes::{self, CLASSES};
use spmv_bench::report::{self, obj, round3, Json};
use spmv_bench::timing::{self, side};
use spmv_formats::kernels::{runs_across, vector_isa};
use spmv_formats::{build_format_with, FormatKind, LaneProfile, LaneWidth, SparseFormat};
use std::cell::RefCell;
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

/// The ratio a cell must reach.
fn bound(class: &str, kind: FormatKind) -> f64 {
    if (class, kind) == (SELL_GATE.0, SELL_GATE.1) {
        SELL_GATE.2
    } else {
        MIN_RATIO
    }
}

fn main() {
    report::start();
    let cfg = config();
    let profile = report::served_profile();
    let isa = vector_isa();
    let vectorized = isa != "scalar" && profile.width != LaneWidth::W1;
    println!(
        "Lane kernels, scalar profile vs {:?} on {isa} ({} MB per class, median of {} paired \
         rounds, each with a triad of the cell's footprint)",
        profile.width, cfg.mb, cfg.reps
    );
    println!(
        "{:<14} {:<15} {:>11} {:>11} {:>7} {:>6} {:>6} {:>8} {:>8} {:>6}",
        "class",
        "format",
        "scalar GF/s",
        "host GF/s",
        "ratio",
        "iqr",
        "won",
        "fastest",
        "GB/s",
        "roof"
    );

    let mut table = Vec::new();
    let mut misses = Vec::new();
    let mut naive = Vec::new();
    for (i, &(class, ..)) in CLASSES.iter().enumerate() {
        let csr = classes::generate(i, cfg.mb, cfg.seed, i as u64);
        let (rows, cols, nnz) = (csr.rows(), csr.cols(), csr.nnz());
        let x: Vec<f64> = (0..cols).map(|c| 1.0 + (c % 5) as f64 * 0.25).collect();
        let y = RefCell::new(vec![0.0; rows]);
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
            let bytes = host.bytes() + 8 * (rows + cols);
            // STREAM triad `a = b + s·c` over three arrays that together
            // weigh what the served format streams.
            let n = (bytes / 24).max(1);
            let (mut a, b, c) = (vec![0.0; n], vec![1.5; n], vec![0.25; n]);
            let triad_bytes = (24 * n) as f64;
            let spmv = |f: &dyn SparseFormat| f.spmv(black_box(&x), black_box(&mut y.borrow_mut()));
            let rounds = timing::run(
                cfg.reps,
                1,
                vec![
                    side("scalar", || spmv(&*scalar)),
                    side("host", || spmv(&*host)),
                    side("triad", || {
                        a.iter_mut().zip(&b).zip(&c).for_each(|((a, b), c)| *a = b + 3.0 * c);
                        black_box(&mut a);
                    }),
                ],
            );
            let bound = bound(class, kind);
            let ratio = rounds.ratio("scalar", "host");
            let (t_scalar, t_host) = (rounds.side("scalar").median, rounds.side("host").median);
            let gbs = bytes as f64 / t_host / 1e9;
            // Per round, (bytes / t_host) / (triad bytes / t_triad).
            let roof_frac =
                rounds.ratio("triad", "host").rounds.median * bytes as f64 / triad_bytes;
            let triad_gbs = triad_bytes / rounds.side("triad").median / 1e9;
            println!(
                "{:<14} {:<15} {:>11.2} {:>11.2} {:>6.2}x {:>6.3} {:>6} {:>7.2}x {:>8.2} {:>6.2}",
                class,
                kind.name(),
                flops / t_scalar / 1e9,
                flops / t_host / 1e9,
                ratio.rounds.median,
                ratio.rounds.iqr(),
                ratio.faster,
                ratio.of_fastest,
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
            if vectorized && ratio.rounds.median < bound {
                let median = ratio.rounds.median;
                misses.push(format!("{class} {}: {median:.2}x scalar < {bound}x", kind.name()));
            }
            let body = match kind {
                FormatKind::NaiveCsr if runs_across(profile.width != LaneWidth::W1, nnz, cols) => {
                    "across"
                }
                FormatKind::NaiveCsr => "scalar loop",
                _ => "n/a",
            };
            table.push(obj([
                ("class", class.into()),
                ("format", kind.name().into()),
                ("nnz", nnz.into()),
                ("body", body.into()),
                ("bytes_per_nnz", round3(host.bytes() as f64 / nnz as f64).into()),
                ("scalar_gflops", round3(flops / t_scalar / 1e9).into()),
                ("host_gflops", round3(flops / t_host / 1e9).into()),
                ("ratio", ratio.json()),
                ("host_gbs", round3(gbs).into()),
                ("triad_gbs", round3(triad_gbs).into()),
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
                (
                    "timing",
                    "sequential spmv, one spmv_bench::timing trial per cell: scalar, host and a \
                     triad over host bytes, `reps` rounds in rotated order, each visit batched to \
                     >= 2 ms; gflops from the median round; ratio = per-round scalar / host \
                     (median, iqr, rounds host won, fastest-round ratio); bytes = stored format \
                     + x + y once each; roof_frac = median of per-round host_gbs / triad_gbs"
                        .into(),
                ),
            ]),
        ),
        (
            "gate",
            obj([
                ("min_ratio", MIN_RATIO.into()),
                ("sell_c_s_mid_regular_min_ratio", SELL_GATE.2.into()),
                ("statistic", "median of the per-round ratios".into()),
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
