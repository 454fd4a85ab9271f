//! Feature extraction vs. its definitional oracle vs. the engine's
//! estimate vs. one SpMV, single thread, cache-cold: what a first touch
//! pays before it can pick a format.
//!
//! The operands are the eight feature classes of the repo benchmark
//! (`benchmark/src/inputs.rs`) at two footprints each (default 0.5 and
//! 4 MB, the ends of the `cold-*` range). One pass times one side —
//! [`FeatureSet::extract`], [`FeatureSet::extract_reference`],
//! [`FeatureSet::estimate`] or `CsrMatrix::spmv_into` — on every operand
//! in turn, so an operand is revisited only after the rest of the set
//! has streamed through the cache; the sides alternate and each cell
//! reports its fastest rep. Every operand's exact `FeatureSet`s are
//! `assert_eq!`-compared first, and the default engine (`Host` profile)
//! selects from both the exact and the estimated features. The table is
//! printed and written to `BENCH_extract.json` at the repo root.
//!
//! Exit status — enforced on every host, no thread-count escape:
//!
//! * the geomean over all cells of oracle time / extract time is ≥ 2;
//! * no cell extracts slower than the oracle;
//! * on every operand the engine serves the same kind from the estimate
//!   as from the exact features (deterministic, never re-timed).
//!
//! A run that misses a timing bar is re-timed up to three times with
//! more reps before it fails: one descheduled sample must not turn a
//! gate red.
//!
//! `--lattice MB,..` also regenerates the calibration lattice
//! (`spmv_bench::calibration::lattice`) at those of its footprints and
//! reports, without gating, how many of its points the engine serves
//! the same kind from both feature vectors, and every flip with both
//! vectors.
//!
//! Flags: `--mb A,B,..` (footprints, default `0.5,4`), `--seed N`,
//! `--reps N` (default 7), `--lattice MB,..` (footprints of
//! `calibration::SWEEP_MB`, default none).

use spmv_analysis::stats::geomean;
use spmv_bench::args::parse_flags;
use spmv_bench::calibration::{self, time_once as time, SWEEP_MB};
use spmv_bench::classes::{self, CLASSES};
use spmv_bench::report::{self, obj, round3, Json};
use spmv_core::features::SAMPLE_NNZ;
use spmv_core::{CsrMatrix, FeatureSet};
use spmv_engine::{Engine, EngineConfig};
use std::hint::black_box;

struct Config {
    mb: Vec<f64>,
    seed: u64,
    reps: usize,
    lattice: Vec<f64>,
}

fn config() -> Config {
    let mut cfg = Config { mb: vec![0.5, 4.0], seed: 1, reps: 7, lattice: Vec::new() };
    let usage = "extract_throughput [--mb A,B,..] [--seed N] [--reps N] [--lattice MB,..]";
    let list = |value: &str, what| value.split(',').map(|v| v.parse().expect(what)).collect();
    parse_flags(usage, &[], |flag, value| {
        match flag {
            "--mb" => cfg.mb = list(value, "--mb A,B,.."),
            "--seed" => cfg.seed = value.parse().expect("--seed N"),
            "--reps" => cfg.reps = value.parse::<usize>().expect("--reps N").max(1),
            "--lattice" => cfg.lattice = list(value, "--lattice MB,.."),
            _ => return false,
        }
        true
    });
    for mb in &cfg.lattice {
        assert!(SWEEP_MB.contains(mb), "--lattice {mb}: not a footprint of {SWEEP_MB:?}");
    }
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
    /// What the engine serves from the exact and from the estimated
    /// features.
    served: [&'static str; 2],
}

/// The sides of a pass, in timing order.
const SIDES: usize = 4;
/// Fastest seconds per operand of `[extract, oracle, spmv, estimate]`.
type Times = Vec<[f64; SIDES]>;

/// What `engine` serves from the exact and from the estimated features
/// of `csr`, and the two feature vectors.
fn served_both(engine: &Engine, csr: &CsrMatrix) -> ([&'static str; 2], [FeatureSet; 2]) {
    let features = [FeatureSet::extract(csr), FeatureSet::estimate(csr)];
    (features.map(|f| engine.select(&f).name()), features)
}

fn operands(cfg: &Config, engine: &Engine) -> Vec<Operand> {
    let mut out = Vec::new();
    for (i, &(class, ..)) in CLASSES.iter().enumerate() {
        for (j, &mb) in cfg.mb.iter().enumerate() {
            let csr = classes::generate(i, mb, cfg.seed, (i * cfg.mb.len() + j) as u64);
            assert_eq!(
                FeatureSet::extract(&csr),
                FeatureSet::extract_reference(&csr),
                "{class} {mb} MB: extract differs from the oracle"
            );
            let (served, _) = served_both(engine, &csr);
            let x = (0..csr.cols()).map(|c| 1.0 + (c % 5) as f64 * 0.25).collect();
            let y = vec![0.0; csr.rows()];
            out.push(Operand { class, mb, csr, x, y, served });
        }
    }
    out
}

/// `reps` rounds of one pass per side over the set.
fn measure(ops: &mut [Operand], reps: usize) -> Times {
    let mut best = vec![[f64::INFINITY; SIDES]; ops.len()];
    for _ in 0..reps {
        for side in 0..SIDES {
            for (op, best) in ops.iter_mut().zip(&mut best) {
                let t = match side {
                    0 => time(|| {
                        black_box(FeatureSet::extract(black_box(&op.csr)));
                    }),
                    1 => time(|| {
                        black_box(FeatureSet::extract_reference(black_box(&op.csr)));
                    }),
                    2 => time(|| op.csr.spmv_into(black_box(&op.x), black_box(&mut op.y))),
                    _ => time(|| {
                        black_box(FeatureSet::estimate(black_box(&op.csr)));
                    }),
                };
                best[side] = best[side].min(t);
            }
        }
    }
    best
}

/// Geomean over the cells `keep` admits of a ratio of their times.
fn geomean_of(
    ops: &[Operand],
    times: &Times,
    keep: impl Fn(&Operand) -> bool,
    ratio: impl Fn(&[f64; SIDES]) -> f64,
) -> Option<f64> {
    let ratios: Vec<f64> =
        ops.iter().zip(times).filter(|(op, _)| keep(op)).map(|(_, t)| ratio(t)).collect();
    geomean(&ratios)
}

/// Oracle time over extract time, in the geomean over all cells.
fn speedup_vs_oracle(ops: &[Operand], times: &Times) -> f64 {
    geomean_of(ops, times, |_| true, |[extract, oracle, ..]| oracle / extract)
        .expect("every timed call takes a positive, finite time")
}

/// Whether `estimate` samples this operand rather than extracting it.
fn sampled(op: &Operand) -> bool {
    op.csr.nnz() >= 2 * SAMPLE_NNZ
}

/// The cells that miss the timing gate, as messages (empty: it passes).
fn misses(ops: &[Operand], times: &Times) -> Vec<String> {
    let mut out = Vec::new();
    for (op, [extract, oracle, ..]) in ops.iter().zip(times) {
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
    let speedup = speedup_vs_oracle(ops, times);
    if speedup < MIN_GEOMEAN_SPEEDUP {
        out.push(format!("geomean speedup {speedup:.2}x < {MIN_GEOMEAN_SPEEDUP}x"));
    }
    out
}

/// The selector's five features of `f`.
fn features_json(f: &FeatureSet) -> Json {
    obj([
        ("mem_footprint_mb", f.mem_footprint_mb.into()),
        ("avg_nnz_per_row", f.avg_nnz_per_row.into()),
        ("skew_coeff", f.skew_coeff.into()),
        ("cross_row_sim", f.cross_row_sim.into()),
        ("avg_num_neigh", f.avg_num_neigh.into()),
    ])
}

/// The lattice points at `mbs`: how many the engine serves alike from
/// both feature vectors, and every flip.
fn lattice_report(mbs: &[f64], engine: &Engine) -> Json {
    let (mut points, mut sampled, mut flips) = (0usize, 0usize, Vec::new());
    for point in calibration::lattice().filter(|p| mbs.contains(&p.mb)) {
        let csr = point.generate();
        let ([exact, estimate], [fe, fs]) = served_both(engine, &csr);
        points += 1;
        sampled += usize::from(csr.nnz() >= 2 * SAMPLE_NNZ);
        if exact != estimate {
            let (crs, neigh, bw) = point.locality;
            println!(
                "  flip at {} MB, avg {}, skew {}, locality ({crs}, {neigh}, {bw}): {exact} exact, \
                 {estimate} estimated (crs {:.3} / {:.3})",
                point.mb, point.avg, point.skew, fe.cross_row_sim, fs.cross_row_sim
            );
            flips.push(obj([
                ("mb", point.mb.into()),
                ("avg", point.avg.into()),
                ("skew", point.skew.into()),
                ("locality", Json::Arr(vec![crs.into(), neigh.into(), bw.into()])),
                ("served_exact", exact.into()),
                ("served_estimate", estimate.into()),
                ("exact", features_json(&fe)),
                ("estimate", features_json(&fs)),
            ]));
        }
    }
    let agree = points - flips.len();
    println!("lattice at {mbs:?} MB: {agree}/{points} points served alike ({sampled} sampled)");
    obj([
        ("mb", Json::Arr(mbs.iter().map(|&m| m.into()).collect())),
        ("seed", (calibration::SWEEP_SEED as usize).into()),
        ("points", points.into()),
        ("sampled", sampled.into()),
        ("agree", agree.into()),
        ("flips", Json::Arr(flips)),
    ])
}

fn main() {
    let cfg = config();
    let engine = Engine::new(EngineConfig::default()).expect("the default engine builds");
    let mut ops = operands(&cfg, &engine);
    println!(
        "Feature extraction vs oracle vs estimate vs CSR SpMV ({} operands, cache-cold cycling, \
         fastest of {} reps)",
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
    let mut misses = misses(&ops, &times);
    for op in ops.iter().filter(|op| op.served[0] != op.served[1]) {
        misses.push(format!(
            "{} {} MB: served {} from the estimate, {} from the exact features",
            op.class, op.mb, op.served[1], op.served[0]
        ));
    }

    println!(
        "{:<14} {:>5} {:>9} {:>11} {:>11} {:>11} {:>9} {:>10} {:>10} {:>8} {:>8}  served",
        "class",
        "MB",
        "nnz",
        "extract us",
        "oracle us",
        "estim. us",
        "spmv us",
        "ext ns/nz",
        "orc ns/nz",
        "speedup",
        "est/ext",
    );
    let mut table = Vec::new();
    for (op, &[extract, oracle, spmv, estimate]) in ops.iter().zip(&times) {
        let nnz = op.csr.nnz();
        let per_nnz = |secs: f64| secs * 1e9 / nnz as f64;
        println!(
            "{:<14} {:>5} {:>9} {:>11.1} {:>11.1} {:>11.1} {:>9.1} {:>10.2} {:>10.2} {:>7.2}x {:>8.2}  {}",
            op.class,
            op.mb,
            nnz,
            extract * 1e6,
            oracle * 1e6,
            estimate * 1e6,
            spmv * 1e6,
            per_nnz(extract),
            per_nnz(oracle),
            oracle / extract,
            estimate / extract,
            op.served[1],
        );
        table.push(obj([
            ("class", op.class.into()),
            ("mb", op.mb.into()),
            ("rows", op.csr.rows().into()),
            ("cols", op.csr.cols().into()),
            ("nnz", nnz.into()),
            ("extract_us", round3(extract * 1e6).into()),
            ("oracle_us", round3(oracle * 1e6).into()),
            ("estimate_us", round3(estimate * 1e6).into()),
            ("spmv_us", round3(spmv * 1e6).into()),
            ("extract_ns_per_nnz", round3(per_nnz(extract)).into()),
            ("oracle_ns_per_nnz", round3(per_nnz(oracle)).into()),
            ("estimate_ns_per_nnz", round3(per_nnz(estimate)).into()),
            ("spmv_ns_per_nnz", round3(per_nnz(spmv)).into()),
            ("speedup_vs_oracle", round3(oracle / extract).into()),
            ("extract_over_spmv", round3(extract / spmv).into()),
            ("estimate_over_extract", round3(estimate / extract).into()),
            ("estimate_over_spmv", round3(estimate / spmv).into()),
            ("sampled", sampled(op).into()),
            ("served", op.served[1].into()),
        ]));
    }
    let speedup = speedup_vs_oracle(&ops, &times);
    let all = |_: &Operand| true;
    let over_spmv = geomean_of(&ops, &times, all, |[extract, _, spmv, _]| extract / spmv);
    let estimate_over = |keep: fn(&Operand) -> bool| {
        geomean_of(&ops, &times, keep, |&[extract, _, _, estimate]| estimate / extract)
    };
    let (est_all, est_sampled) = (estimate_over(|_| true), estimate_over(sampled));
    let est_over_spmv = geomean_of(&ops, &times, all, |[.., spmv, estimate]| estimate / spmv);
    let num = |v: Option<f64>| v.map_or(Json::Num(f64::NAN), |v| round3(v).into());
    println!(
        "geomean: {speedup:.2}x the oracle, {:.2} SpMVs per extraction, estimate {:.2}x extract \
         ({:.2}x over the {} sampled cells), {:.2} SpMVs per estimate",
        over_spmv.unwrap_or(f64::NAN),
        est_all.unwrap_or(f64::NAN),
        est_sampled.unwrap_or(f64::NAN),
        ops.iter().filter(|op| sampled(op)).count(),
        est_over_spmv.unwrap_or(f64::NAN),
    );
    let lattice = if cfg.lattice.is_empty() {
        Json::Str("not run".into())
    } else {
        lattice_report(&cfg.lattice, &engine)
    };

    let body = [
        (
            "config",
            obj([
                ("mb", Json::Arr(cfg.mb.iter().map(|&m| m.into()).collect())),
                ("seed", (cfg.seed as usize).into()),
                ("reps", cfg.reps.into()),
                ("sample_nnz", SAMPLE_NNZ.into()),
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
                ("geomean_extract_over_spmv", num(over_spmv)),
                ("geomean_estimate_over_extract", num(est_all)),
                ("geomean_estimate_over_extract_sampled", num(est_sampled)),
                ("geomean_estimate_over_spmv", num(est_over_spmv)),
                ("served_alike", ops.iter().all(|op| op.served[0] == op.served[1]).into()),
                ("misses", Json::Arr(misses.iter().map(|m| m.as_str().into()).collect())),
            ]),
        ),
        ("table", Json::Arr(table)),
        ("lattice", lattice),
    ];
    report::write("extract", body);

    let passed = format!(
        "OK (geomean >= {MIN_GEOMEAN_SPEEDUP}x the oracle, no class slower than it, \
         the same kind served from the estimate)"
    );
    report::gate(&passed, &misses);
}
