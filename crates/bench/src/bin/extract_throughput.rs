//! Feature extraction vs. its definitional oracle vs. one SpMV, single
//! thread, cache-cold: what a first touch pays before it can pick a
//! format.
//!
//! The operands are the eight feature classes of the repo benchmark
//! (`benchmark/src/inputs.rs`) at two footprints each (default 0.5 and
//! 4 MB, the ends of the `cold-*` range). One pass times one side —
//! [`FeatureSet::extract`], [`FeatureSet::extract_reference`] or
//! `CsrMatrix::spmv_into` — on every operand in turn, so an operand is
//! revisited only after the rest of the set has streamed through the
//! cache; the sides alternate and each cell reports its fastest rep.
//! Every operand's two `FeatureSet`s are `assert_eq!`-compared first.
//! The table is printed and written to `BENCH_extract.json` at the repo
//! root.
//!
//! Exit status — enforced on every host, no thread-count escape:
//!
//! * the geomean over all cells of oracle time / extract time is ≥ 2;
//! * no cell extracts slower than the oracle.
//!
//! A run that misses is re-timed up to three times with more reps
//! before it fails: one descheduled sample must not turn a gate red.
//!
//! Flags: `--mb A,B,..` (footprints, default `0.5,4`), `--seed N`,
//! `--reps N` (default 7).

use spmv_analysis::stats::geomean;
use spmv_bench::args::parse_flags;
use spmv_bench::calibration::time_once as time;
use spmv_bench::classes::{self, CLASSES};
use spmv_bench::report::{self, obj, round3, Json};
use spmv_core::{CsrMatrix, FeatureSet};
use std::hint::black_box;

struct Config {
    mb: Vec<f64>,
    seed: u64,
    reps: usize,
}

fn config() -> Config {
    let mut cfg = Config { mb: vec![0.5, 4.0], seed: 1, reps: 7 };
    parse_flags("extract_throughput [--mb A,B,..] [--seed N] [--reps N]", &[], |flag, value| {
        match flag {
            "--mb" => cfg.mb = value.split(',').map(|v| v.parse().expect("--mb A,B,..")).collect(),
            "--seed" => cfg.seed = value.parse().expect("--seed N"),
            "--reps" => cfg.reps = value.parse::<usize>().expect("--reps N").max(1),
            _ => return false,
        }
        true
    });
    cfg
}

/// The oracle must lose by this factor in the geomean over all cells.
const MIN_GEOMEAN_SPEEDUP: f64 = 2.0;
/// Re-measurements granted to a run that misses the gate.
const RETRIES: usize = 3;

struct Operand {
    class: &'static str,
    mb: f64,
    csr: CsrMatrix,
    x: Vec<f64>,
    y: Vec<f64>,
}

/// Fastest seconds per operand of `[extract, oracle, spmv]`.
type Times = Vec<[f64; 3]>;

fn operands(cfg: &Config) -> Vec<Operand> {
    let mut out = Vec::new();
    for (i, &(class, ..)) in CLASSES.iter().enumerate() {
        for (j, &mb) in cfg.mb.iter().enumerate() {
            let csr = classes::generate(i, mb, cfg.seed, (i * cfg.mb.len() + j) as u64);
            assert_eq!(
                FeatureSet::extract(&csr),
                FeatureSet::extract_reference(&csr),
                "{class} {mb} MB: extract differs from the oracle"
            );
            let x = (0..csr.cols()).map(|c| 1.0 + (c % 5) as f64 * 0.25).collect();
            let y = vec![0.0; csr.rows()];
            out.push(Operand { class, mb, csr, x, y });
        }
    }
    out
}

/// `reps` rounds of three passes over the set, one per side.
fn measure(ops: &mut [Operand], reps: usize) -> Times {
    let mut best = vec![[f64::INFINITY; 3]; ops.len()];
    for _ in 0..reps {
        for side in 0..3 {
            for (op, best) in ops.iter_mut().zip(&mut best) {
                let t = match side {
                    0 => time(|| {
                        black_box(FeatureSet::extract(black_box(&op.csr)));
                    }),
                    1 => time(|| {
                        black_box(FeatureSet::extract_reference(black_box(&op.csr)));
                    }),
                    _ => time(|| op.csr.spmv_into(black_box(&op.x), black_box(&mut op.y))),
                };
                best[side] = best[side].min(t);
            }
        }
    }
    best
}

/// Geomean over the cells of a ratio of their `[extract, oracle, spmv]`
/// times.
fn geomean_of(times: &Times, ratio: impl Fn(&[f64; 3]) -> f64) -> f64 {
    let ratios: Vec<f64> = times.iter().map(ratio).collect();
    geomean(&ratios).expect("every timed call takes a positive, finite time")
}

/// Oracle time over extract time, in the geomean over all cells.
fn speedup_vs_oracle(times: &Times) -> f64 {
    geomean_of(times, |[extract, oracle, _]| oracle / extract)
}

/// The cells that miss the gate, as messages (empty: the gate passes).
fn misses(ops: &[Operand], times: &Times) -> Vec<String> {
    let mut out = Vec::new();
    for (op, [extract, oracle, _]) in ops.iter().zip(times) {
        if extract > oracle {
            out.push(format!(
                "{} {} MB: extract {:.0} us is slower than the oracle's {:.0} us",
                op.class,
                op.mb,
                extract * 1e6,
                oracle * 1e6
            ));
        }
    }
    let speedup = speedup_vs_oracle(times);
    if speedup < MIN_GEOMEAN_SPEEDUP {
        out.push(format!("geomean speedup {speedup:.2}x < {MIN_GEOMEAN_SPEEDUP}x"));
    }
    out
}

fn main() {
    let cfg = config();
    let mut ops = operands(&cfg);
    println!(
        "Feature extraction vs oracle vs CSR SpMV ({} operands, cache-cold cycling, fastest of {} reps)",
        ops.len(),
        cfg.reps
    );

    let mut times = measure(&mut ops, cfg.reps);
    for retry in 1..=RETRIES {
        if misses(&ops, &times).is_empty() {
            break;
        }
        times = measure(&mut ops, cfg.reps * (retry + 1));
    }
    let misses = misses(&ops, &times);

    println!(
        "{:<14} {:>5} {:>9} {:>11} {:>11} {:>9} {:>10} {:>10} {:>8}",
        "class",
        "MB",
        "nnz",
        "extract us",
        "oracle us",
        "spmv us",
        "ext ns/nz",
        "orc ns/nz",
        "speedup"
    );
    let mut table = Vec::new();
    for (op, [extract, oracle, spmv]) in ops.iter().zip(&times) {
        let nnz = op.csr.nnz();
        let per_nnz = |secs: f64| secs * 1e9 / nnz as f64;
        println!(
            "{:<14} {:>5} {:>9} {:>11.1} {:>11.1} {:>9.1} {:>10.2} {:>10.2} {:>7.2}x",
            op.class,
            op.mb,
            nnz,
            extract * 1e6,
            oracle * 1e6,
            spmv * 1e6,
            per_nnz(*extract),
            per_nnz(*oracle),
            oracle / extract
        );
        table.push(obj([
            ("class", op.class.into()),
            ("mb", op.mb.into()),
            ("rows", op.csr.rows().into()),
            ("cols", op.csr.cols().into()),
            ("nnz", nnz.into()),
            ("extract_us", round3(extract * 1e6).into()),
            ("oracle_us", round3(oracle * 1e6).into()),
            ("spmv_us", round3(spmv * 1e6).into()),
            ("extract_ns_per_nnz", round3(per_nnz(*extract)).into()),
            ("oracle_ns_per_nnz", round3(per_nnz(*oracle)).into()),
            ("spmv_ns_per_nnz", round3(per_nnz(*spmv)).into()),
            ("speedup_vs_oracle", round3(oracle / extract).into()),
            ("extract_over_spmv", round3(extract / spmv).into()),
        ]));
    }
    let speedup = speedup_vs_oracle(&times);
    let over_spmv = geomean_of(&times, |[extract, _, spmv]| extract / spmv);
    println!("geomean: {speedup:.2}x the oracle, {over_spmv:.2} SpMVs per extraction");

    let body = [
        (
            "config",
            obj([
                ("mb", Json::Arr(cfg.mb.iter().map(|&m| m.into()).collect())),
                ("seed", (cfg.seed as usize).into()),
                ("reps", cfg.reps.into()),
                (
                    "timing",
                    "fastest rep per cell; each pass runs one side over the whole set, \
                     sides alternating, so operands are revisited cache-cold"
                        .into(),
                ),
            ]),
        ),
        (
            "gate",
            obj([
                ("min_geomean_speedup_vs_oracle", MIN_GEOMEAN_SPEEDUP.into()),
                ("min_cell_speedup_vs_oracle", 1.0.into()),
                ("geomean_speedup_vs_oracle", round3(speedup).into()),
                ("geomean_extract_over_spmv", round3(over_spmv).into()),
                ("misses", Json::Arr(misses.iter().map(|m| m.as_str().into()).collect())),
            ]),
        ),
        ("table", Json::Arr(table)),
    ];
    report::write("extract", body);

    let passed =
        format!("OK (geomean >= {MIN_GEOMEAN_SPEEDUP}x the oracle, no class slower than it)");
    report::gate(&passed, &misses);
}
