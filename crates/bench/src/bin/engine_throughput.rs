//! Host-calibrated selection, measured: the sweep that produces the
//! `Host` device profile's table, and the score of a table on operands
//! it has never seen. Everything here is a wall-clock timing of the
//! real kernels on this host, single-threaded; nothing is modeled
//! except the one column that is labeled so.
//!
//! **Scoring (default).** The committed table
//! (`crates/devices/src/host_table.txt`) is what `Engine::new` fits its
//! selector from under the default config. This mode builds that
//! engine and serves it **held-out** operands — the eight feature
//! classes of the repo benchmark (`spmv_bench::classes`) at the `--mb`
//! footprints, under a seed the sweep never used: per operand the
//! engine's choice is timed against all twelve swept formats (the
//! measured oracle) and against always-Naive-CSR, the formats one
//! `spmv_bench::timing` trial of [`ROUNDS`] rounds: an operand's regret
//! is the median of the per-round ratios of its choice over the format
//! of the fastest median, its speedup the median of the per-round
//! ratios of Naive-CSR over its choice. It also reports
//! what the table says about itself, deterministically: per-format win
//! counts per footprint regime, before and after the label margin, and
//! the leave-one-out top-1 and regret. And, on the same operands, what
//! conversion costs: ns/nnz per format, and for SELL-C-σ the tuned
//! conversion (on the vector instruction set it names) against its
//! reference and against its own scalar scatter, the three builds one
//! trial.
//!
//! **`--calibrate`.** Runs the sweep first (`spmv_bench::calibration`:
//! 576 lattice matrices from 1 KB to 32 MB, twelve formats built at the
//! lane profile in force and timed as a trial of two rounds; about four
//! minutes),
//! sets the label margin (the widest that costs the table's own
//! leave-one-out regret next to nothing), keeps the formats that label
//! at least one matrix in twenty, **overwrites the committed table
//! file** (unless the sweep's median repeat spread exceeds 0.10: then
//! it prints the quantiles, leaves the file alone and exits non-zero)
//! and scores the new table instead (a selector fitted from it,
//! handed to `Engine::with_selector` — the way a host other than the reference
//! one is served). The run also reports what only a sweep can: the
//! Spearman rank correlation per format between the modeled
//! `AMD-EPYC-24` and the measurements, the conversion cost per format
//! and footprint, and the `dot` kernels at W4 against W8. Rebuild after
//! it: the table is compiled into `spmv-devices`.
//!
//! Both modes write `BENCH_engine.json` at the repo root; the committed
//! file is a `--calibrate` run on the reference host, from the same run
//! as the committed table.
//!
//! Exit status — always enforced, no thread-count escape, on the
//! geomean over the held-out operands of their median paired ratios.
//! When this host is the table's (vector ISA and CPU model as in its
//! header, the model compared without a trailing ` @ <clock>`):
//! speedup over always-Naive-CSR ≥ 1.10× and regret against the
//! measured oracle ≤ 1.15. On any other host: the engine's choice is
//! not slower than always-Naive-CSR — a miss there says "calibrate for
//! this host". On every host, and not on time: the tuned SELL-C-σ
//! conversion of every held-out operand stores exactly the bytes of its
//! reference.
//!
//! Flags: `--calibrate`, `--mb F,F,…` (held-out footprints, default
//! `0.06,1,32`), `--seed N` (held-out seed, default 2).

use spmv_bench::args::parse_flags;
use spmv_bench::calibration::{self, leave_one_out, operand, Sweep, SWEPT};
use spmv_bench::classes::{self, CLASSES};
use spmv_bench::report::{self, obj, round3, Json};
use spmv_bench::timing::{self, side};
use spmv_core::FeatureSet;
use spmv_devices::HostTable;
use spmv_engine::{selector_from_records, Engine, EngineConfig};
use spmv_formats::kernels::vector_isa;
use spmv_formats::sellcs::{SellCSigmaFormat, DEFAULT_SIGMA};
use spmv_formats::{
    build_format_with, build_with_fallback_profile, FormatKind, LaneProfile, LaneWidth,
    SparseFormat,
};
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

struct Config {
    calibrate: bool,
    mb: Vec<f64>,
    seed: u64,
}

fn config() -> Config {
    let mut cfg = Config { calibrate: false, mb: vec![0.06, 1.0, 32.0], seed: 2 };
    parse_flags(
        "engine_throughput [--calibrate] [--mb F,F,...] [--seed N]",
        &["--calibrate"],
        |flag, value| {
            match flag {
                "--calibrate" => cfg.calibrate = true,
                "--mb" => {
                    cfg.mb = value.split(',').map(|f| f.parse().expect("--mb F,F,...")).collect()
                }
                "--seed" => cfg.seed = value.parse().expect("--seed N"),
                _ => return false,
            }
            true
        },
    );
    cfg
}

/// Held-out bars on the table's own host.
const MIN_SPEEDUP: f64 = 1.10;
const MAX_REGRET: f64 = 1.15;

/// Rounds of every held-out trial: the formats' SpMV, and the SELL
/// conversions.
const ROUNDS: usize = 5;

/// Footprint regimes of the win table: the three the repo benchmark
/// serves, split where the sweep's lattice has its gaps.
const REGIMES: [(&str, f64); 3] =
    [("up to 60 KB", 0.1), ("0.25 to 4 MB", 8.0), ("12 to 32 MB", f64::INFINITY)];

/// Geomean of positive values; NaN (JSON `null`) for an empty set.
fn geomean(values: &[f64]) -> f64 {
    spmv_analysis::stats::geomean(values).unwrap_or(f64::NAN)
}

fn table_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../devices/src/host_table.txt")
}

/// Per regime and format: matrices the format is the raw fastest on,
/// and matrices it labels after the margin.
fn win_table(table: &HostTable) -> Json {
    let mut rows = Vec::new();
    let mut from = 0.0;
    for (regime, below) in REGIMES {
        let members: Vec<_> = table
            .matrices
            .iter()
            .filter(|m| m.footprint_mb >= from && m.footprint_mb < below)
            .collect();
        from = below;
        let n = table.formats.len();
        let (mut raw, mut labeled) = (vec![0usize; n], vec![0usize; n]);
        for m in &members {
            let fastest =
                (0..m.gflops.len())
                    .fold(0, |best, i| if m.gflops[i] > m.gflops[best] { i } else { best });
            raw[fastest] += 1;
            labeled[calibration::label_of(table, m)] += 1;
        }
        println!("  {regime} ({} matrices): raw wins / labels", members.len());
        let mut fields = vec![
            ("regime".to_string(), Json::from(regime)),
            ("matrices".to_string(), members.len().into()),
        ];
        for ((kind, raw), labeled) in table.formats.iter().zip(raw).zip(labeled) {
            if raw + labeled > 0 {
                println!("    {:<15} {raw:>4} {labeled:>4}", kind.name());
            }
            fields.push((kind.name().to_string(), Json::Arr(vec![raw.into(), labeled.into()])));
        }
        rows.push(Json::Obj(fields));
    }
    Json::Arr(rows)
}

/// What one pass over the held-out operands measured.
struct HeldOut {
    rows: Vec<Json>,
    regret: Vec<f64>,
    speedup: Vec<f64>,
    /// Conversion ns/nnz per (footprint, format), over the classes.
    convert: Vec<Vec<Vec<f64>>>,
    sell: Vec<Json>,
    /// Scalar-scatter over tuned build time per SELL chunk height.
    sell_speedup: [Vec<f64>; 3],
    /// Operands whose tuned SELL storage differs from the reference's.
    sell_mismatches: Vec<String>,
}

/// SELL chunk heights of the conversion timings.
const SELL_C: [usize; 3] = [4, 8, 16];

fn sell_index(c: usize) -> usize {
    SELL_C.iter().position(|&k| k == c).expect("a timed chunk height")
}

/// A format's wire bytes: every array it stores, values bit for bit.
fn wire_bytes(f: &SellCSigmaFormat) -> Vec<u8> {
    let mut bytes = Vec::new();
    f.serialize_into(&mut bytes).expect("a SELL-C-s conversion encodes");
    bytes
}

fn score_held_out(cfg: &Config, engine: &Engine) -> HeldOut {
    let lanes = engine.lane_profile();
    let mut out = HeldOut {
        rows: Vec::new(),
        regret: Vec::new(),
        speedup: Vec::new(),
        convert: vec![vec![Vec::new(); SWEPT.len()]; cfg.mb.len()],
        sell: Vec::new(),
        sell_speedup: Default::default(),
        sell_mismatches: Vec::new(),
    };
    println!(
        "\n{:<14} {:>6} {:<15} {:<15} {:>7} {:>8}",
        "held-out", "MB", "selected", "fastest", "regret", "vs CSR"
    );
    for (f, &mb) in cfg.mb.iter().enumerate() {
        for (i, &(class, ..)) in CLASSES.iter().enumerate() {
            let csr = classes::generate(i, mb, cfg.seed, (f * CLASSES.len() + i) as u64);
            let (x, y) = (operand(csr.cols()), RefCell::new(vec![0.0; csr.rows()]));
            // The engine plans from the estimate (`extract_and_select`).
            let planned = engine.select(&FeatureSet::estimate(&csr));
            let fallback = [engine.default_format()];
            let (_, selected, _) = build_with_fallback_profile(planned, &csr, &fallback, lanes)
                .expect("the fallback is Naive-CSR, which accepts any matrix");
            let mut built = Vec::new();
            for (k, kind) in SWEPT.into_iter().enumerate() {
                let t = Instant::now();
                let Ok(fmt) = build_format_with(kind, &csr, lanes) else { continue };
                out.convert[f][k].push(t.elapsed().as_secs_f64() * 1e9 / csr.nnz() as f64);
                built.push((kind, fmt));
            }
            let spmv = |f: &dyn SparseFormat| f.spmv(black_box(&x), black_box(&mut y.borrow_mut()));
            let rounds = timing::run(
                ROUNDS,
                1,
                built.iter().map(|(kind, fmt)| side(kind.name(), || spmv(&**fmt))).collect(),
            );
            let median = |kind: &FormatKind| rounds.side(kind.name()).median;
            let fastest = built
                .iter()
                .map(|(kind, _)| *kind)
                .min_by(|a, b| median(a).total_cmp(&median(b)))
                .expect("Naive-CSR accepts any matrix");
            let (regret, speedup) = (
                rounds.ratio(selected.name(), fastest.name()).rounds.median,
                rounds.ratio(FormatKind::NaiveCsr.name(), selected.name()).rounds.median,
            );
            println!(
                "{class:<14} {mb:>6} {:<15} {:<15} {regret:>7.3} {speedup:>7.3}x",
                selected.name(),
                fastest.name()
            );
            out.regret.push(regret);
            out.speedup.push(speedup);
            out.rows.push(obj([
                ("class", class.into()),
                ("mb", mb.into()),
                ("selected", selected.name().into()),
                ("fastest", fastest.name().into()),
                ("regret", round3(regret).into()),
                ("speedup_vs_naive_csr", round3(speedup).into()),
            ]));
            for c in SELL_C {
                let reference =
                    || SellCSigmaFormat::from_csr_reference(&csr, c, DEFAULT_SIGMA, lanes);
                let tuned = |profile| {
                    SellCSigmaFormat::from_csr_with_profile(&csr, c, DEFAULT_SIGMA, profile)
                };
                if wire_bytes(&tuned(lanes)) != wire_bytes(&reference()) {
                    out.sell_mismatches.push(format!("{class} {mb} MB C={c}"));
                }
                // The allocator hands every side the blocks the previous
                // build freed.
                let rounds = timing::run(
                    ROUNDS,
                    1,
                    vec![
                        side("reference", || drop(black_box(reference()))),
                        side("scalar", || drop(black_box(tuned(LaneProfile::scalar())))),
                        side("tuned", || drop(black_box(tuned(lanes)))),
                    ],
                );
                let median = |name| rounds.side(name).median;
                let (reference, scalar, tuned) =
                    (median("reference"), median("scalar"), median("tuned"));
                let per_nnz = 1e9 / csr.nnz() as f64;
                let scalar_over_tuned = rounds.ratio("scalar", "tuned").rounds.median;
                out.sell_speedup[sell_index(c)].push(scalar_over_tuned);
                out.sell.push(obj([
                    ("class", class.into()),
                    ("mb", mb.into()),
                    ("c", c.into()),
                    ("reference_ns_per_nnz", round3(reference * per_nnz).into()),
                    ("scalar_ns_per_nnz", round3(scalar * per_nnz).into()),
                    ("tuned_ns_per_nnz", round3(tuned * per_nnz).into()),
                    ("ratio", round3(rounds.ratio("reference", "tuned").rounds.median).into()),
                    ("scalar_over_tuned", round3(scalar_over_tuned).into()),
                ]));
            }
        }
    }
    out
}

/// The sections only a sweep can fill.
fn sweep_report(sweep: &Sweep) -> Json {
    let table = &sweep.table;
    let quantile = |q: f64| sweep.spread_quantile(q);
    println!(
        "sweep: {} matrices in {:.0} s; repeat spread p50 {:.3} p75 {:.3} p90 {:.3} p99 {:.3} -> \
         margin {}",
        table.matrices.len(),
        sweep.seconds,
        quantile(0.5),
        quantile(0.75),
        quantile(0.9),
        quantile(0.99),
        table.margin
    );
    println!("\nmodeled AMD-EPYC-24 vs measured, Spearman rank correlation over the lattice:");
    let mut spearman = Vec::new();
    for (k, kind) in table.formats.iter().enumerate() {
        let (modeled, measured): (Vec<f64>, Vec<f64>) = sweep
            .modeled_gflops
            .iter()
            .zip(&table.matrices)
            .filter(|(model, m)| model[k].is_finite() && m.gflops[k] > 0.0)
            .map(|(model, m)| (model[k], m.gflops[k]))
            .unzip();
        if let Some(rho) = calibration::spearman(&modeled, &measured) {
            println!("  {:<15} {rho:>6.3} ({} matrices)", kind.name(), modeled.len());
            spearman.push(obj([
                ("format", kind.name().into()),
                ("rho", round3(rho).into()),
                ("matrices", modeled.len().into()),
            ]));
        }
    }
    // Conversion cost and the lane dimension, per footprint of the lattice.
    println!(
        "\nVectorized-CSR at W{} over W{} (the table's), throughput ratio by footprint:",
        sweep.other_width.lanes(),
        table.lanes
    );
    let (mut convert, mut other_width) = (Vec::new(), Vec::new());
    for &mb in &calibration::SWEEP_MB {
        let members: Vec<usize> = (0..table.matrices.len())
            .filter(|&i| (table.matrices[i].footprint_mb / mb).ln().abs() < 0.7)
            .collect();
        if members.is_empty() {
            continue;
        }
        let mut fields = vec![("mb".to_string(), Json::from(mb))];
        for (k, kind) in table.formats.iter().enumerate() {
            let ns: Vec<f64> = members
                .iter()
                .map(|&i| sweep.convert_s_per_nnz[i][k] * 1e9)
                .filter(|v| v.is_finite())
                .collect();
            fields.push((kind.name().to_string(), round3(geomean(&ns)).into()));
        }
        convert.push(Json::Obj(fields));
        let (spmv, spmm): (Vec<f64>, Vec<f64>) =
            members.iter().map(|&i| sweep.other_width_ratio[i]).unzip();
        println!("  {mb:>6} MB  spmv {:.3}x  spmm (k = 8) {:.3}x", geomean(&spmv), geomean(&spmm));
        other_width.push(obj([
            ("mb", mb.into()),
            ("spmv", round3(geomean(&spmv)).into()),
            ("spmm_k8", round3(geomean(&spmm)).into()),
        ]));
    }
    obj([
        ("seconds", round3(sweep.seconds).into()),
        ("matrices", table.matrices.len().into()),
        ("seed", (calibration::SWEEP_SEED as usize).into()),
        ("footprints_mb", Json::Arr(calibration::SWEEP_MB.iter().map(|&m| m.into()).collect())),
        (
            "timing",
            "sequential spmv, one spmv_bench::timing trial of two rounds over all formats of a \
             matrix, each visit batched to >= 2 ms; gflops of the median (the mean of the two \
             rounds); spread = |ln(round a / round b)|"
                .into(),
        ),
        (
            "repeat_spread",
            obj([
                ("p50", round3(quantile(0.5)).into()),
                ("p75", round3(quantile(0.75)).into()),
                ("p90", round3(quantile(0.9)).into()),
                ("p99", round3(quantile(0.99)).into()),
            ]),
        ),
        ("modeled_epyc24_vs_measured_spearman", Json::Arr(spearman)),
        ("convert_ns_per_nnz", Json::Arr(convert)),
        (
            "vectorized_csr_other_width_over_table_width",
            obj([
                ("table_lanes", table.lanes.into()),
                ("other_lanes", sweep.other_width.lanes().into()),
                ("throughput_ratio_by_footprint", Json::Arr(other_width)),
            ]),
        ),
    ])
}

fn main() {
    report::start();
    let cfg = config();
    // The engine a caller gets: from the committed table under the
    // default config, or around a selector fitted from a fresh sweep.
    let (table, engine, sweep_json, wins) = if cfg.calibrate {
        let profile = spmv_formats::LaneProfile::current();
        println!("calibrating at {:?} ...", profile.width);
        let sweep = calibration::sweep(profile, |line| println!("  {line}"));
        let sweep_json = sweep_report(&sweep);
        if !sweep.quiet_enough() {
            let (max, path) = (calibration::MAX_COMMITTED_SPREAD_P50, table_path());
            eprintln!("repeat spread p50 above {max}: too loud to commit, {path:?} is untouched");
            std::process::exit(1);
        }
        println!("\nwin table of the sweep:");
        let wins = win_table(&sweep.table);
        let (table, dropped) = calibration::without_rare_labels(&sweep.table);
        let dropped: Vec<&str> = dropped.iter().map(|k| k.name()).collect();
        let comments = [
            format!(
                "swept by `engine_throughput --calibrate` in {:.0} s: {} footprints x Table I row \
                 lengths x skews x {} locality settings, seed {:#x}, single thread",
                sweep.seconds,
                calibration::SWEEP_MB.len(),
                calibration::SWEEP_LOCALITY.len(),
                calibration::SWEEP_SEED
            ),
            "GFLOP/s of sequential spmv: median of a two-round trial over the formats, each \
             visit batched to >= 2 ms"
                .to_string(),
            format!(
                "margin = the widest (percent steps) whose leave-one-out regret stays within \
                 {:.0}% of the best margin's: a lead inside it goes to the cheaper format, per \
                 cost step (Naive-CSR < other CSR-family < re-laid-out). The sweep's repeat \
                 spread |ln(round a / round b)| over every (matrix, format): p50 {:.3}, p75 \
                 {:.3}, p90 {:.3}",
                calibration::MARGIN_REGRET_SLACK * 100.0,
                sweep.spread_quantile(0.5),
                sweep.spread_quantile(0.75),
                sweep.spread_quantile(0.9)
            ),
            format!(
                "also swept, labeling under {:.0}% of the matrices and so not listed: {}",
                calibration::MIN_LABEL_SHARE * 100.0,
                dropped.join(" ")
            ),
        ];
        std::fs::write(table_path(), table.render(&comments)).unwrap_or_else(|e| {
            eprintln!("could not write {}: {e}", table_path().display());
            std::process::exit(1);
        });
        println!("wrote {} (rebuild to compile it in)", table_path().display());
        // What `Engine::new` does with the committed table, done with
        // this one: the way a host other than the reference one is served.
        let selector = selector_from_records(&table.records(), 1);
        let engine = Engine::with_selector(EngineConfig::default(), selector);
        if let Ok(engine) = &engine {
            if engine.lane_profile().width != profile.width {
                println!(
                    "note: scoring at {:?}, the lane width of the table compiled in; rebuild and \
                     score again to serve at {:?}",
                    engine.lane_profile().width,
                    profile.width
                );
            }
        }
        (table, engine, sweep_json, wins)
    } else {
        let table = HostTable::committed();
        println!("win table of the committed table:");
        let wins = win_table(&table);
        let engine = Engine::new(EngineConfig::default());
        (table, engine, Json::Str("not run (scoring mode)".into()), wins)
    };
    let engine = engine.unwrap_or_else(|e| {
        eprintln!("engine construction failed: {e}");
        std::process::exit(2);
    });
    let host_matches = report::cpu_model_without_clock(&table.cpu_model)
        == report::cpu_model_without_clock(&report::cpu_model())
        && table.vector_isa == spmv_formats::kernels::vector_isa();
    println!(
        "\ntable: {} matrices x {} formats, swept on {:?} ({}, W{}) at {}, margin {}; this host {}",
        table.matrices.len(),
        table.formats.len(),
        table.cpu_model,
        table.vector_isa,
        table.lanes,
        table.git_rev,
        table.margin,
        if host_matches { "matches" } else { "differs" }
    );
    let loo = leave_one_out(&table, engine.selector().k());
    println!(
        "leave-one-out (k = {}): top-1 {:.3}, regret geomean {:.3}, max {:.3}",
        engine.selector().k(),
        loo.top1,
        loo.regret_geomean,
        loo.regret_max
    );

    let (min_speedup, max_regret) =
        if host_matches { (MIN_SPEEDUP, MAX_REGRET) } else { (1.0, f64::INFINITY) };
    let held = score_held_out(&cfg, &engine);
    let (speedup, regret) = (geomean(&held.speedup), geomean(&held.regret));
    let worst = held.regret.iter().copied().fold(1.0, f64::max);
    println!(
        "\nheld-out, {} operands: speedup over always-Naive-CSR {speedup:.3}x, regret geomean \
         {regret:.3}, max {worst:.3}",
        held.regret.len()
    );

    let convert: Vec<Json> = cfg
        .mb
        .iter()
        .zip(&held.convert)
        .map(|(&mb, by_format)| {
            let mut fields = vec![("mb".to_string(), Json::from(mb))];
            for (kind, ns) in SWEPT.iter().zip(by_format) {
                fields.push((kind.name().to_string(), round3(geomean(ns)).into()));
            }
            Json::Obj(fields)
        })
        .collect();
    // The ISA the tuned SELL conversion runs on: the vector transpose
    // at W > 1 wherever the kernels have a vector unit.
    let sell_isa =
        if engine.lane_profile().width == LaneWidth::W1 { "scalar" } else { vector_isa() };
    let sell_speedup = Json::Obj(
        SELL_C
            .iter()
            .zip(&held.sell_speedup)
            .map(|(c, r)| (format!("C={c}"), round3(geomean(r)).into()))
            .collect(),
    );
    println!(
        "SELL conversion on {sell_isa}: scalar scatter / tuned, geomean {}",
        SELL_C
            .iter()
            .zip(&held.sell_speedup)
            .map(|(c, r)| format!("C={c} {:.3}x", geomean(r)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for m in &held.sell_mismatches {
        eprintln!("  SELL conversion stores other bytes than its reference: {m}");
    }
    let passes = speedup >= min_speedup && regret <= max_regret;
    let verdict = if passes && held.sell_mismatches.is_empty() { "passed" } else { "failed" };
    let body = [
        (
            "config",
            obj([
                ("mode", if cfg.calibrate { "calibrate" } else { "score" }.into()),
                ("held_out_mb", Json::Arr(cfg.mb.iter().map(|&m| m.into()).collect())),
                ("held_out_seed", (cfg.seed as usize).into()),
                ("threads", 1usize.into()),
                ("engine_lanes", engine.lane_profile().width.lanes().into()),
            ]),
        ),
        (
            "table",
            obj([
                ("cpu_model", table.cpu_model.as_str().into()),
                ("vector_isa", table.vector_isa.as_str().into()),
                ("lanes", table.lanes.into()),
                ("git_rev", table.git_rev.as_str().into()),
                ("margin", table.margin.into()),
                ("matrices", table.matrices.len().into()),
                ("formats", Json::Arr(table.formats.iter().map(|k| k.name().into()).collect())),
                ("host_matches", host_matches.into()),
            ]),
        ),
        ("sweep", sweep_json),
        ("wins_raw_and_labeled", wins),
        (
            "leave_one_out",
            obj([
                ("k", engine.selector().k().into()),
                ("top1", round3(loo.top1).into()),
                ("regret_geomean", round3(loo.regret_geomean).into()),
                ("regret_max", round3(loo.regret_max).into()),
            ]),
        ),
        (
            "held_out",
            obj([
                ("speedup_vs_naive_csr_geomean", round3(speedup).into()),
                ("regret_geomean", round3(regret).into()),
                ("regret_max", round3(worst).into()),
                ("operands", Json::Arr(held.rows)),
            ]),
        ),
        ("held_out_convert_ns_per_nnz", Json::Arr(convert)),
        (
            "sell_conversion_reference_vs_tuned",
            obj([
                ("isa", sell_isa.into()),
                ("storage_identical", held.sell_mismatches.is_empty().into()),
                ("geomean_scalar_over_tuned", sell_speedup),
                ("operands", Json::Arr(held.sell)),
            ]),
        ),
        (
            "gate",
            obj([
                ("min_speedup_vs_naive_csr", min_speedup.into()),
                (
                    "max_regret_geomean",
                    if host_matches { MAX_REGRET.into() } else { "none".into() },
                ),
                ("verdict", verdict.into()),
            ]),
        ),
    ];
    report::write("engine", body);
    println!("gate: {verdict}");
    if verdict == "failed" {
        eprintln!(
            "  needed speedup >= {min_speedup} and regret <= {max_regret} on a host that {} the \
             table's, and every tuned SELL conversion storing its reference's bytes",
            if host_matches { "is" } else { "is not" }
        );
        std::process::exit(1);
    }
}
