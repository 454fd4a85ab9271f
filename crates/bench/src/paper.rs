//! The paper's figures and tables, one function each ([`FIGURES`]),
//! over one shared [`Ctx`]: the campaign (matrix × device × format) is
//! swept at most once per process and the validation experiment run at
//! most once, however many figures slice them. A figure returns its
//! text ([`Rendered`]) instead of printing it, so the `figures` binary
//! and the golden test read the same bytes.

use crate::figures::{outln, panel_csv, render_panel, Series};
use crate::grouping::{
    efficiency_of, footprint_class_label, gflops_of, group_by, is_large, nearest_lattice,
};
use crate::validation::{mape_rows, run_validation, ValidationPoint};
use crate::RunConfig;
use parking_lot::Mutex;
use spmv_analysis::{BoxStats, Table, WinTally};
use spmv_core::features::RegularityClass;
use spmv_core::FeatureSet;
use spmv_devices::specs::device_by_name;
use spmv_devices::{all_devices, estimate_with, Campaign, MatrixSummary, ModelConfig, Record};
use spmv_gen::dataset::{
    Dataset, DatasetSize, FeatureSpacePoint, AVG_NEIGH_VALUES, AVG_NNZ_VALUES, BW_SCALED_VALUES,
    CROSS_ROW_SIM_VALUES, FOOTPRINT_CLASSES_MB, SKEW_VALUES,
};
use spmv_gen::validation::VALIDATION_SUITE;
use spmv_gen::{GeneratorParams, RowDist};
use spmv_memsim::analytic::{analytic_x_hit_rate, LocalityInputs};
use spmv_memsim::trace::simulate_x_hit_rate;
use spmv_parallel::ThreadPool;
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// What a figure produced: the text the old per-figure binary printed,
/// and its CSV files as `(name, content)` (written under `--csv DIR`).
#[derive(Debug, Clone, PartialEq)]
pub struct Rendered {
    /// The figure as text, newline-terminated.
    pub text: String,
    /// `(file stem, CSV content)` per table or panel.
    pub csvs: Vec<(String, String)>,
}

impl Rendered {
    fn csv(&mut self, name: &str, table: &Table) {
        self.csvs.push((name.to_string(), table.to_csv()));
    }

    /// One boxplot panel and its CSV; returns the panel's stats.
    fn panel(
        &mut self,
        title: &str,
        series: &[Series],
        csv: &str,
        (figure, panel): (&str, &str),
    ) -> Vec<(String, Option<BoxStats>)> {
        let stats = render_panel(&mut self.text, title, series);
        self.csv(csv, &panel_csv(figure, panel, &stats));
        stats
    }

    /// A per-device panel of figure `name` (`fig4_rowsize` → CSV
    /// `fig4_rowsize_<device>`, figure column `fig4`).
    fn device_panel(&mut self, name: &str, device: &str, what: &str, series: &[Series]) {
        let figure = name.split('_').next().expect("split yields one item");
        self.panel(
            &format!("{device}: GFLOP/s per {what}"),
            series,
            &format!("{name}_{}", device.replace('-', "_")),
            (figure, device),
        );
    }
}

/// A table with `|`-separated column names.
fn table(columns: &str) -> Table {
    Table::new(&columns.split('|').collect::<Vec<_>>())
}

/// The all-device campaign of a run: every record, and the best format
/// per (matrix, device).
struct Sweep {
    matrices: usize,
    records: Vec<Record>,
    best: Vec<Record>,
}

/// Artificial friends per validation matrix (the paper uses ~70).
const FRIENDS: usize = 24;

/// The devices Figs. 3–6 single out.
const FOCUS: [&str; 3] = ["Tesla-A100", "AMD-EPYC-64", "Alveo-U280"];

/// A run's shared state: its configuration, one thread pool, and the
/// two expensive experiments, each run on first use.
pub struct Ctx {
    /// The run's configuration.
    pub cfg: RunConfig,
    pool: ThreadPool,
    sweep: OnceCell<Sweep>,
    validation: OnceCell<Vec<ValidationPoint>>,
}

impl Ctx {
    /// A context that has run nothing yet.
    pub fn new(cfg: RunConfig) -> Self {
        let pool = ThreadPool::new(cfg.threads);
        Self { cfg, pool, sweep: OnceCell::new(), validation: OnceCell::new() }
    }

    /// The campaign over all nine devices; a device subset is a filter
    /// over its records (a device's records do not depend on which
    /// other devices ran). Its wall time goes to stderr.
    fn sweep(&self) -> &Sweep {
        self.sweep.get_or_init(|| {
            let specs = self.cfg.dataset().specs_subsampled(self.cfg.stride);
            let t0 = Instant::now();
            let records = Campaign::new(self.cfg.scale).run_specs(&self.pool, &specs);
            let (secs, m, n) = (t0.elapsed().as_secs_f64(), specs.len(), records.len());
            let rate = n as f64 / secs;
            eprintln!("[campaign] {m} matrices -> {n} records in {secs:.1}s ({rate:.0} configs/s)");
            let best = Campaign::best_per_matrix_device(&records);
            Sweep { matrices: specs.len(), records, best }
        })
    }

    fn validation(&self) -> &[ValidationPoint] {
        self.validation.get_or_init(|| run_validation(self, FRIENDS))
    }

    fn start(&self, figure: &str) -> Rendered {
        Rendered { text: self.cfg.banner(figure), csvs: Vec::new() }
    }

    /// The best-format records of one device.
    fn best_of(&self, device: &str) -> Vec<Record> {
        self.sweep().best.iter().filter(|r| r.device == device).cloned().collect()
    }

    /// `f` over `items` on the run's pool, results in item order. Each
    /// worker claims one item at a time, last item first: the datasets
    /// and the validation suite are sorted by footprint, so contiguous
    /// chunks would leave the heavy third of a sweep to one worker, and
    /// front-to-back claims its heaviest matrix to the end of the run.
    pub(crate) fn parallel_map<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<R>>> = Mutex::new(items.iter().map(|_| None).collect());
        self.pool.parallel_chunks(self.pool.threads(), |_| loop {
            let claimed = next.fetch_add(1, Ordering::Relaxed);
            let Some(i) = items.len().checked_sub(claimed + 1) else { break };
            let r = f(&items[i]);
            slots.lock()[i] = Some(r);
        });
        slots.into_inner().into_iter().map(|r| r.expect("every item was claimed")).collect()
    }
}

/// A figure or table of the paper: its subcommand name and renderer.
pub type Figure = (&'static str, fn(&Ctx) -> Rendered);

/// Every subcommand of the `figures` binary, in `all` order.
pub const FIGURES: [Figure; 16] = [
    ("table1_dataset", table1_dataset),
    ("table2_testbeds", table2_testbeds),
    ("table3_validation_suite", table3_validation_suite),
    ("fig1_validation", fig1_validation),
    ("table4_mape", table4_mape),
    ("fig2_perf_energy", fig2_perf_energy),
    ("fig3_footprint", fig3_footprint),
    ("fig4_rowsize", fig4_rowsize),
    ("fig5_imbalance", fig5_imbalance),
    ("fig6_irregularity", fig6_irregularity),
    ("fig7_formats", fig7_formats),
    ("fig8_dataset_size", fig8_dataset_size),
    ("fig9_regularity", fig9_regularity),
    ("ablation_mechanisms", ablation_mechanisms),
    ("memsim_validation", memsim_validation),
    ("campaign", campaign),
];

/// Fig. 1 — performance of the 45 validation matrices (dots) vs. the
/// range of their artificial "friends" (boxplots) on every testbed,
/// with the memory and LLC roofline bounds.
fn fig1_validation(ctx: &Ctx) -> Rendered {
    let mut r = ctx.start("Fig. 1: validation matrices vs artificial friends");
    outln!(r.text, "friends per matrix: {FRIENDS}");
    let points = ctx.validation();

    let mut csv =
        table("device|id|matrix|gflops|friends_q1|friends_median|friends_q3|roof_mem|roof_llc");
    let mut current_device = "";
    for p in points {
        let ValidationPoint { device, matrix_id, name, gflops, roof_mem, roof_llc, .. } = p;
        if device != current_device {
            current_device = device;
            outln!(r.text, "\n--- {device} ---");
            outln!(r.text, " id matrix                    gflops     fr.q1    fr.med     fr.q3 | roofs mem/LLC");
        }
        let st = BoxStats::from_values(&p.friends_gflops);
        let (q1, med, q3) = st.map(|s| (s.q1, s.median, s.q3)).unwrap_or((0.0, 0.0, 0.0));
        let note = if *gflops == 0.0 { "  (fails to run: HBM capacity)" } else { "" };
        outln!(
            r.text,
            "{matrix_id:>3} {name:22} {gflops:>9.2} {q1:>9.2} {med:>9.2} {q3:>9.2} | {roof_mem:>8.1} / {roof_llc:>8.1}{note}"
        );
        let mut row = vec![p.device.clone(), p.matrix_id.to_string(), p.name.to_string()];
        row.extend([p.gflops, q1, med, q3, p.roof_mem, p.roof_llc].map(|v| format!("{v:.3}")));
        csv.row(row);
    }
    r.csv("fig1_validation", &csv);

    // Summary (Table IV preview).
    outln!(r.text, "\nper-device MAPE / APE-best (see table4_mape for the full table):");
    let (rows, mape, best) = mape_rows(points);
    for (device, m, b, _) in &rows {
        outln!(r.text, "{device:14} MAPE {m:6.2}%   APE-best {b:6.2}%");
    }
    if !rows.is_empty() {
        outln!(
            r.text,
            "Average        MAPE {mape:6.2}%   APE-best {best:6.2}%   (paper: 17.51% / 8.58%)"
        );
    }
    r
}

/// Table IV — MAPE (validation matrix vs. median of friends) and
/// APE-best (vs. closest friend) per device.
fn table4_mape(ctx: &Ctx) -> Rendered {
    let mut r = ctx.start("Table IV: MAPE / APE-best per device");
    let (rows, mape, best) = mape_rows(ctx.validation());
    let mut t = table("Device|MAPE %|APE-best %|matrices");
    for (device, m, b, n) in rows {
        t.row(vec![device, format!("{m:.2}"), format!("{b:.2}"), n.to_string()]);
    }
    t.row(vec!["Average".into(), format!("{mape:.2}"), format!("{best:.2}"), String::new()]);
    outln!(r.text, "\n{}", t.render());
    outln!(r.text, "paper reference: average MAPE 17.51%, average APE-best 8.58%");
    r.csv("table4_mape", &t);
    r
}

/// Fig. 2 — performance (GFLOP/s) and energy efficiency (GFLOPs/W) on
/// every platform, best format per matrix, over the artificial dataset.
fn fig2_perf_energy(ctx: &Ctx) -> Rendered {
    let mut r = ctx.start("Fig. 2: performance and energy efficiency per platform");
    let sweep = ctx.sweep();
    let by_device = group_by(&sweep.best, |r| r.device.clone());
    let series = |values: fn(&[&Record]) -> Vec<f64>| -> Vec<Series> {
        by_device
            .iter()
            .map(|(dev, rs)| Series { label: dev.clone(), values: values(rs) })
            .collect()
    };
    r.panel(
        "(a) Performance (GFLOP/s), best format per matrix",
        &series(gflops_of),
        "fig2a_performance",
        ("fig2a", "perf"),
    );
    r.panel(
        "(b) Energy efficiency (GFLOPs/W)",
        &series(efficiency_of),
        "fig2b_efficiency",
        ("fig2b", "eff"),
    );

    // Fraction of matrices that failed to run on the FPGA (paper: the
    // Vitis library refuses heavily padded matrices).
    let fpga = || sweep.records.iter().filter(|r| r.device == "Alveo-U280");
    let (fpga_total, fpga_failed) = (fpga().count(), fpga().filter(|r| r.failed.is_some()).count());
    if fpga_total > 0 {
        outln!(
            r.text,
            "\nAlveo-U280: {fpga_failed}/{fpga_total} (matrix, format) runs refused for HBM capacity"
        );
    }
    r
}

/// Fig. 3 — impact of memory footprint on the three focus devices:
/// the complete dataset beside the matrices whose other three features
/// are favorable (regular, balanced, long rows).
fn fig3_footprint(ctx: &Ctx) -> Rendered {
    let (cfg, mut r) = (&ctx.cfg, ctx.start("Fig. 3: impact of memory footprint"));
    let favorable =
        |r: &&Record| r.skew <= 1.0 && r.avg_nnz >= 50.0 && r.crs >= 0.5 && r.neigh >= 0.95;
    for device in FOCUS {
        let dev_records = ctx.best_of(device);
        let by_class = group_by(&dev_records, |r| footprint_class_label(r.footprint_mb, cfg.scale));
        let mut series = Vec::new();
        for (class, rs) in &by_class {
            series.push(Series { label: format!("{class} all"), values: gflops_of(rs) });
            let fav: Vec<&Record> = rs.iter().copied().filter(favorable).collect();
            series.push(Series { label: format!("{class} favorable"), values: gflops_of(&fav) });
        }
        r.device_panel("fig3_footprint", device, "footprint class", &series);
    }

    // Takeaway-4 check: CPU in its favorable window vs the A100.
    let window_median = |device: &str| {
        let in_window: Vec<f64> = ctx
            .best_of(device)
            .iter()
            .filter(|r| (64.0..=256.0).contains(&(r.footprint_mb * cfg.scale)))
            .map(|r| r.gflops)
            .collect();
        BoxStats::from_values(&in_window).map(|s| s.median)
    };
    if let (Some(e), Some(a)) = (window_median("AMD-EPYC-64"), window_median("Tesla-A100")) {
        outln!(
            r.text,
            "\n64-256MB window: EPYC-64 median {e:.1} GF = {:.0}% of A100 median {a:.1} GF (paper: ~60%)",
            100.0 * e / a
        );
    }
    r
}

/// The shape Figs. 4–6 share: per focus device, the best-format records
/// split small/large at 256 MB (unscaled) and grouped by `key`.
fn split_figure<K: Ord>(
    ctx: &Ctx,
    (banner, name, what): (&str, &str, &str),
    key: impl Fn(&Record) -> K,
    label: impl Fn(&K) -> String,
) -> Rendered {
    let mut r = ctx.start(banner);
    for device in FOCUS {
        let dev_records = ctx.best_of(device);
        let mut series = Vec::new();
        for large in [false, true] {
            let split: Vec<Record> = dev_records
                .iter()
                .filter(|r| is_large(r.footprint_mb, ctx.cfg.scale) == large)
                .cloned()
                .collect();
            for (k, rs) in &group_by(&split, &key) {
                series.push(Series {
                    label: format!("{} {}", if large { "large" } else { "small" }, label(k)),
                    values: gflops_of(rs),
                });
            }
        }
        r.device_panel(name, device, what, &series);
    }
    r
}

/// Fig. 4 — impact of row size (average nonzeros per row) on SpMV
/// performance, split into small/large matrices at 256 MB (unscaled).
fn fig4_rowsize(ctx: &Ctx) -> Rendered {
    split_figure(
        ctx,
        ("Fig. 4: impact of row size (split at 256 MB)", "fig4_rowsize", "row size"),
        |r| nearest_lattice(r.avg_nnz, &AVG_NNZ_VALUES) as i64,
        |avg| format!("rows~{avg}"),
    )
}

/// Fig. 5 — impact of imbalance (skew coefficient), split small/large
/// at 256 MB (unscaled). Best format per matrix, so devices whose
/// format mix handles imbalance should show flat boxplots.
fn fig5_imbalance(ctx: &Ctx) -> Rendered {
    // Group by the *requested* lattice skew (records carry measured
    // skew, which saturates on small matrices; bucket by magnitude).
    let bucket = |r: &Record| match r.skew {
        s if s < 10.0 => "skew~0",
        s if s < 300.0 => "skew~100",
        s if s < 3000.0 => "skew~1000",
        _ => "skew~10000",
    };
    split_figure(
        ctx,
        ("Fig. 5: impact of imbalance (skew)", "fig5_imbalance", "skew level"),
        bucket,
        |b| b.to_string(),
    )
}

/// Fig. 6 — impact of regularity: the S/M/L grid of (cross_row_sim ×
/// avg_num_neigh), split small/large; higher letters = more regular.
fn fig6_irregularity(ctx: &Ctx) -> Rendered {
    let grid_label = |r: &Record| {
        let c = RegularityClass::classify(r.crs, 0.0, 1.0);
        let n = RegularityClass::classify(r.neigh, 0.0, 2.0);
        format!("crs:{} neigh:{}", c.letter(), n.letter())
    };
    split_figure(
        ctx,
        ("Fig. 6: impact of regularity (S/M/L x S/M/L)", "fig6_irregularity", "regularity class"),
        grid_label,
        String::clone,
    )
}

/// The win tally of one device's records: per matrix, the fastest
/// format that ran.
fn win_tally(records: &[&Record]) -> (WinTally, usize) {
    let mut per_matrix: BTreeMap<&str, BTreeMap<String, f64>> = BTreeMap::new();
    for r in records.iter().filter(|r| r.failed.is_none()) {
        per_matrix.entry(r.matrix_id.as_str()).or_default().insert(r.format.clone(), r.gflops);
    }
    let mut tally = WinTally::new();
    for scores in per_matrix.values() {
        tally.record(scores);
    }
    (tally, per_matrix.len())
}

/// Fig. 7 — the formats/libraries of every device compared; the label
/// carries the percentage of the dataset on which the format wins.
fn fig7_formats(ctx: &Ctx) -> Rendered {
    let mut r = ctx.start("Fig. 7: per-format performance and win rates");
    for (device, dev_records) in &group_by(&ctx.sweep().records, |r| r.device.clone()) {
        let (tally, _) = win_tally(dev_records);
        let mut by_format: BTreeMap<&str, Vec<&Record>> = BTreeMap::new();
        for r in dev_records {
            by_format.entry(r.format.as_str()).or_default().push(r);
        }
        let series: Vec<Series> = by_format
            .iter()
            .map(|(fmt, rs)| Series {
                label: format!("{fmt} (wins {:4.1}%)", tally.win_pct(fmt)),
                values: gflops_of(rs),
            })
            .collect();
        r.device_panel("fig7_formats", device, "format", &series);
    }
    outln!(
        r.text,
        "\nresearch formats: SELL-C-s, CSR5, Merge-CSR, SparseX; the rest are state-of-practice"
    );
    r
}

/// Fig. 8 — the 'small' (~3K), 'medium' (16.2K) and 'large' (~26K)
/// datasets on AMD-EPYC-24: the trend must be stable from 'medium' on.
fn fig8_dataset_size(ctx: &Ctx) -> Rendered {
    let (cfg, mut r) = (&ctx.cfg, ctx.start("Fig. 8: dataset-size stability on AMD-EPYC-24"));
    let campaign = Campaign::new(cfg.scale).with_devices(&["AMD-EPYC-24"]);

    let mut medians: Vec<(&str, String, f64)> = Vec::new();
    for size in [DatasetSize::Small, DatasetSize::Medium, DatasetSize::Large] {
        // The run's own size is a slice of the shared campaign.
        let (matrices, best) = if size == cfg.size {
            (ctx.sweep().matrices, ctx.best_of("AMD-EPYC-24"))
        } else {
            let d = Dataset { size, scale: cfg.scale, base_seed: cfg.seed };
            let specs = d.specs_subsampled(cfg.stride);
            (specs.len(), Campaign::best_per_matrix_device(&campaign.run_specs(&ctx.pool, &specs)))
        };
        let by_class = group_by(&best, |r| footprint_class_label(r.footprint_mb, cfg.scale));
        let series: Vec<Series> = by_class
            .iter()
            .map(|(c, rs)| Series { label: c.to_string(), values: gflops_of(rs) })
            .collect();
        let stats = r.panel(
            &format!("dataset '{}' ({matrices} matrices sampled)", size.name()),
            &series,
            &format!("fig8_dataset_{}", size.name()),
            ("fig8", size.name()),
        );
        let medians_of =
            |(label, st): (String, Option<BoxStats>)| Some((size.name(), label, st?.median));
        medians.extend(stats.into_iter().filter_map(medians_of));
    }

    // Stability check: medium vs large medians per class.
    outln!(r.text, "\nmedian drift between datasets (per footprint class):");
    let classes: BTreeSet<&String> = medians.iter().map(|(_, c, _)| c).collect();
    for class in classes {
        let get = |size: &str| {
            medians.iter().find(|(s, c, _)| *s == size && c == class).map(|(_, _, m)| *m)
        };
        if let (Some(s), Some(m), Some(l)) = (get("small"), get("medium"), get("large")) {
            outln!(
                r.text,
                "{class:14} small {s:8.2}  medium {m:8.2}  large {l:8.2}  (medium->large drift {:+.1}%)",
                100.0 * (l - m) / m
            );
        }
    }
    r
}

/// Fig. 9 — performance on AMD-EPYC-24 as avg_num_neigh grows, the
/// other three features fixed to small/medium/large value classes.
fn fig9_regularity(ctx: &Ctx) -> Rendered {
    let cfg = &ctx.cfg;
    let mut r = ctx.start("Fig. 9: regularity growth under fixed feature classes (AMD-EPYC-24)");
    let campaign = Campaign::new(cfg.scale).with_devices(&["AMD-EPYC-24"]);
    let dataset = cfg.dataset();

    // "Intuitively good" fixed features for a CPU: small/medium size,
    // long rows, low imbalance — and the bad end of each:
    // (label, footprint MB at paper scale, avg nnz/row, skew).
    let combos = [
        ("good (small, long rows, balanced)", 16.0, 100.0, 0.0),
        ("medium (mid size, mid rows, skew 100)", 128.0, 20.0, 100.0),
        ("bad (large, short rows, skew 10000)", 1024.0, 5.0, 10000.0),
    ];
    let neigh_values = [0.05, 0.5, 0.95, 1.4, 1.9];

    // Reference peak: best median over the sweep.
    let mut t = table("fixed features|neigh|median GFLOP/s|vs neigh=0.05");
    let mut device_peak: f64 = 0.0;
    let mut results: Vec<(&str, f64)> = Vec::new();
    for &(label, footprint_mb, avg_nnz, skew) in &combos {
        let mut base_median = 0.0;
        for &neigh in &neigh_values {
            // A few instances per point (different seeds via index).
            let mut vals = Vec::new();
            for rep in 0..5u64 {
                let spec = dataset.spec_for_point(
                    FeatureSpacePoint {
                        mem_footprint_mb: footprint_mb / cfg.scale,
                        avg_nnz_per_row: avg_nnz,
                        skew_coeff: skew,
                        cross_row_sim: 0.5,
                        avg_num_neigh: neigh,
                        bw_scaled: 0.3,
                        footprint_class: 0,
                    },
                    1_000_000 + rep * 17 + (neigh * 100.0) as u64,
                );
                let summary = MatrixSummary::from_spec(&spec);
                let best = Campaign::best_per_matrix_device(&campaign.run_summary(&summary));
                vals.extend(best.first().map(|b| b.gflops));
            }
            let median = BoxStats::from_values(&vals).map(|s| s.median).unwrap_or(0.0);
            if neigh == neigh_values[0] {
                base_median = median;
            }
            device_peak = device_peak.max(median);
            results.push((label, median));
            t.row(vec![
                label.to_string(),
                format!("{neigh}"),
                format!("{median:.2}"),
                format!("{:.2}x", median / base_median.max(1e-9)),
            ]);
        }
    }
    outln!(r.text, "\n{}", t.render());
    r.csv("fig9_regularity", &t);

    // Paper observations: bad fixed features stay <= ~40% of peak;
    // good fixed features gain up to ~1.6x along the sweep.
    for (label, ..) in combos {
        let series: Vec<f64> =
            results.iter().filter(|(l, _)| *l == label).map(|(_, m)| *m).collect();
        let gain = series.last().unwrap_or(&0.0) / series.first().unwrap_or(&1.0).max(1e-9);
        let peak_frac = series.iter().cloned().fold(0.0, f64::max) / device_peak.max(1e-9);
        outln!(
            r.text,
            "{label:40} gain along neigh sweep: {gain:.2}x; best point at {:.0}% of device-best",
            100.0 * peak_frac
        );
    }
    r
}

/// Table I — the feature lattice of the artificial dataset, plus a
/// spot-check that generated matrices hit the requested features.
fn table1_dataset(ctx: &Ctx) -> Rendered {
    let (cfg, mut r) =
        (&ctx.cfg, ctx.start("Table I: features used for artificial matrix generation"));
    outln!(
        r.text,
        "\nlabel  feature          values (at paper scale; campaign divides footprints by {})",
        cfg.scale
    );
    outln!(r.text, "f1     mem_footprint    {FOOTPRINT_CLASSES_MB:?} MB");
    outln!(r.text, "f2     avg_nnz_per_row  {AVG_NNZ_VALUES:?}");
    outln!(r.text, "f3     skew_coeff       {SKEW_VALUES:?}");
    outln!(r.text, "f4.a   cross_row_sim    {CROSS_ROW_SIM_VALUES:?}");
    outln!(r.text, "f4.b   avg_num_neigh    {AVG_NEIGH_VALUES:?}");
    outln!(r.text, "       bw_scaled        {BW_SCALED_VALUES:?}");
    for size in [DatasetSize::Small, DatasetSize::Medium, DatasetSize::Large] {
        let d = Dataset { size, scale: cfg.scale, base_seed: cfg.seed };
        outln!(r.text, "dataset '{}': {} matrices", size.name(), d.len());
    }

    // Spot-check: materialize a handful of the cheapest specs and
    // compare measured features against the requested lattice point.
    outln!(r.text, "\nspot-check (requested -> measured):");
    let specs = cfg.dataset().specs();
    let cheapest = specs.iter().step_by(specs.len() / 7).filter(|s| s.point.footprint_class == 0);
    for spec in cheapest.take(6) {
        let f = FeatureSet::extract(&spec.materialize().expect("generation"));
        let p = &spec.point;
        outln!(
            r.text,
            "{}: fp {:.2}->{:.2} MB, avg {:.0}->{:.1}, skew {:.0}->{:.0}, crs {:.2}->{:.2}, neigh {:.2}->{:.2}",
            spec.id,
            p.mem_footprint_mb,
            f.mem_footprint_mb,
            p.avg_nnz_per_row,
            f.avg_nnz_per_row,
            p.skew_coeff,
            f.skew_coeff,
            p.cross_row_sim,
            f.cross_row_sim,
            p.avg_num_neigh,
            f.avg_num_neigh,
        );
    }
    r
}

/// Table II — testbed characteristics and the storage formats used per
/// testbed (as modeled; constants from the paper's measurements).
fn table2_testbeds(ctx: &Ctx) -> Rendered {
    let mut r = ctx.start("Table II: testbed characteristics");
    let mut t =
        table("device|class|cores|GHz|peak GF|LLC MB|mem GB/s|LLC GB/s|idle W|max W|formats");
    for d in all_devices() {
        t.row(vec![
            d.name.to_string(),
            format!("{:?}", d.class),
            d.cores.to_string(),
            format!("{:.2}", d.freq_ghz),
            format!("{:.0}", d.peak_gflops()),
            format!("{:.1}", d.llc_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.1}", d.mem_bw_gbs),
            format!("{:.0}", d.llc_bw_gbs),
            format!("{:.0}", d.idle_w),
            format!("{:.0}", d.max_w),
            d.formats.iter().map(|f| f.name()).collect::<Vec<_>>().join("/"),
        ]);
    }
    outln!(r.text, "\n{}", t.render());
    r.csv("table2_testbeds", &t);
    outln!(
        r.text,
        "campaign runs devices scaled by 1/{}: capacities (LLC, HBM channels, \
         saturation nnz) divide by the scale, bandwidths stay as measured",
        ctx.cfg.scale
    );
    r
}

/// Table III — the 45-matrix validation suite: published features vs.
/// the measured features of our synthesized stand-ins.
fn table3_validation_suite(ctx: &Ctx) -> Rendered {
    let cfg = &ctx.cfg;
    let mut r =
        ctx.start("Table III: validation suite (stand-ins synthesized at 1/scale footprint)");
    let mut t = table(
        "id|matrix|f1 MB (paper)|f1 MB (ours x scale)|f2 (paper)|f2 (ours)|f3 (paper)|f3 (ours)|f4 (paper)|f4 (ours)",
    );
    let mut worst_f2: f64 = 0.0;
    let measured = ctx.parallel_map(&VALIDATION_SUITE, |vm| {
        let m = vm.standin_params(cfg.scale, cfg.seed).generate().expect("stand-in generation");
        FeatureSet::extract(&m)
    });
    for (vm, f) in VALIDATION_SUITE.iter().zip(measured) {
        let rel_f2 = (f.avg_nnz_per_row - vm.avg_nnz_per_row).abs() / vm.avg_nnz_per_row;
        worst_f2 = worst_f2.max(rel_f2);
        t.row(vec![
            vm.id.to_string(),
            vm.name.to_string(),
            format!("{:.2}", vm.mem_footprint_mb),
            format!("{:.2}", f.mem_footprint_mb * cfg.scale),
            format!("{:.2}", vm.avg_nnz_per_row),
            format!("{:.2}", f.avg_nnz_per_row),
            format!("{:.2}", vm.skew_coeff),
            format!("{:.2}", f.skew_coeff),
            format!("{}{}", vm.crs_class.letter(), vm.neigh_class.letter()),
            format!("{}{}", f.cross_row_sim_class().letter(), f.avg_num_neigh_class().letter()),
        ]);
    }
    outln!(r.text, "\n{}", t.render());
    outln!(r.text, "worst relative f2 error across the suite: {:.1}%", 100.0 * worst_f2);
    outln!(
        r.text,
        "note: f3 saturates when avg*(1+skew) exceeds the scaled column count (physical limit)"
    );
    r.csv("table3_validation_suite", &t);
    r
}

/// Ablation of the device model: a campaign subsample re-run with one
/// bottleneck term (bandwidth hierarchy, ILP, imbalance, locality,
/// parallel slack) disabled at a time, as median shifts per device.
fn ablation_mechanisms(ctx: &Ctx) -> Rendered {
    let (cfg, mut r) = (&ctx.cfg, ctx.start("Ablation: contribution of each model mechanism"));
    let specs = cfg.dataset().specs_subsampled(cfg.stride.max(24));
    // Summaries once (the expensive part); every configuration reads them.
    let summaries = ctx.parallel_map(&specs, MatrixSummary::from_spec);

    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v.get(v.len() / 2).copied().unwrap_or(f64::NAN)
    };

    let devices = ["AMD-EPYC-64", "Tesla-A100", "Alveo-U280"];
    let mut table = Table::new(&["mechanism removed", devices[0], devices[1], devices[2]]);
    let mut configs: Vec<(&str, ModelConfig)> = vec![("(full model)", ModelConfig::default())];
    configs.extend(ModelConfig::one_factor_ablations());
    configs.push(("(bare roofline)", ModelConfig::bare_roofline()));

    let mut baselines = [0.0f64; 3];
    for (label, mc) in &configs {
        let mut cells = vec![label.to_string()];
        for (d, dev_name) in devices.into_iter().enumerate() {
            let dev = device_by_name(dev_name).expect("known device").scaled(cfg.scale);
            let best: Vec<f64> = summaries
                .iter()
                .filter_map(|s| {
                    dev.formats
                        .iter()
                        .filter_map(|&k| estimate_with(mc, &dev, k, s).ok())
                        .map(|e| e.gflops)
                        .max_by(f64::total_cmp)
                })
                .collect();
            let med = median(best);
            if *label == "(full model)" {
                baselines[d] = med;
                cells.push(format!("{med:8.1} GF"));
            } else {
                cells.push(format!("{med:8.1} GF ({:+5.1}%)", 100.0 * (med / baselines[d] - 1.0)));
            }
        }
        table.row(cells);
    }
    outln!(r.text, "{}", table.render());
    outln!(
        r.text,
        "reading: '+X%' = the median prediction rises by X% when that mechanism is switched \
         off, i.e. the mechanism costs X% of median performance on that device.\n\
         Expected shape: the bandwidth hierarchy dominates the CPU, parallel slack and \
         locality dominate the GPU, and imbalance/padding dominate the FPGA."
    );
    r.csv("ablation_mechanisms", &table);
    r
}

/// The closed-form x-vector locality model against the set-associative
/// trace simulator over the regularity corner of the Table I lattice:
/// why the campaign may use the former (the `memsim` Criterion bench
/// shows the ~10^5x speed gap that motivates it).
fn memsim_validation(ctx: &Ctx) -> Rendered {
    let mut r = ctx.start("memsim: analytic locality model vs trace simulator");
    // (neigh, crs, bw, cache KB)
    let mut cases: Vec<(f64, f64, f64, usize)> = Vec::new();
    for neigh in [0.05, 0.95, 1.9] {
        for crs in [0.05, 0.5, 0.95] {
            for bw in [0.05, 0.3, 0.6] {
                cases.extend([128, 1024, 8192].map(|cache_kb| (neigh, crs, bw, cache_kb)));
            }
        }
    }
    let (seed, indices) = (ctx.cfg.seed, (0..cases.len()).collect::<Vec<_>>());
    let results = ctx.parallel_map(&indices, |&i| {
        let (neigh, crs, bw, cache_kb) = cases[i];
        let p = GeneratorParams {
            nr_rows: 60_000,
            nr_cols: 60_000, // x = 480 KB: spans the cache sizes above
            avg_nz_row: 10.0,
            std_nz_row: 2.0,
            distribution: RowDist::Normal,
            skew_coeff: 0.0,
            bw_scaled: bw,
            cross_row_sim: crs,
            avg_num_neigh: neigh,
            seed: seed ^ i as u64,
        };
        let m = p.generate().expect("lattice point generates");
        let sim = simulate_x_hit_rate(&m, cache_kb * 1024, 8, 64);
        let f = FeatureSet::extract(&m);
        let ana = analytic_x_hit_rate(&LocalityInputs {
            rows: m.rows(),
            cols: m.cols(),
            avg_nnz_per_row: f.avg_nnz_per_row,
            bw_scaled: bw,
            avg_num_neigh: f.avg_num_neigh,
            cross_row_sim: f.cross_row_sim,
            cache_bytes: cache_kb * 1024,
            line_bytes: 64,
        });
        (sim, ana)
    });

    let mut table = table("neigh|crs|bw|cache KB|simulated|analytic|abs err");
    let (mut worst, mut sum_err) = (0.0f64, 0.0f64);
    for (&(neigh, crs, bw, cache_kb), (sim, ana)) in cases.iter().zip(&results) {
        let err = (sim - ana).abs();
        worst = worst.max(err);
        sum_err += err;
        let mut row = Vec::from([neigh, crs, bw].map(|v| format!("{v:.2}")));
        row.push(cache_kb.to_string());
        row.extend([*sim, *ana, err].map(|v| format!("{v:.3}")));
        table.row(row);
    }
    outln!(r.text, "{}", table.render());
    outln!(
        r.text,
        "{} lattice corners: mean |err| {:.3}, worst |err| {worst:.3} (hit-rate units)",
        cases.len(),
        sum_err / cases.len() as f64
    );
    outln!(
        r.text,
        "acceptance: the campaign substitutes the analytic model for the trace simulator; \
         errors of this size move the modeled OI by a few percent, far below the \
         format-to-format and device-to-device contrasts the figures report."
    );
    r.csv("memsim_validation", &table);
    assert!(worst < 0.05, "analytic model diverged from the simulator:\n{}", r.text);
    r
}

/// The whole sweep, every (matrix × device × format) of the dataset: a
/// per-device summary (best-format medians, win tallies) as text and
/// one CSV row per configuration, for a user to slice with their own
/// tooling; the figures are curated views over the same records.
fn campaign(ctx: &Ctx) -> Rendered {
    let mut r = ctx.start("Campaign: full (matrix x device x format) sweep");
    let sweep = ctx.sweep();
    outln!(r.text, "swept {} matrices -> {} records\n", sweep.matrices, sweep.records.len());

    // Per-device summary: best-format medians + win shares + failures.
    let mut summary = table("device|matrices|refused|med GF|p90 GF|med GF/W|top format (wins)");
    for (device, recs) in &group_by(&sweep.records, |r| r.device.clone()) {
        let refused = recs.iter().filter(|r| r.failed.is_some()).count();
        let (tally, matrices) = win_tally(recs);
        let top = tally.ranking().into_iter().next();
        let best = ctx.best_of(device);
        let gf = BoxStats::from_values(&best.iter().map(|r| r.gflops).collect::<Vec<_>>());
        let eff =
            BoxStats::from_values(&best.iter().map(|r| r.gflops_per_watt()).collect::<Vec<_>>());
        summary.row(vec![
            device.clone(),
            matrices.to_string(),
            refused.to_string(),
            gf.map(|s| format!("{:.1}", s.median)).unwrap_or_default(),
            gf.map(|s| format!("{:.1}", s.q3)).unwrap_or_default(),
            eff.map(|s| format!("{:.2}", s.median)).unwrap_or_default(),
            top.map(|(f, w)| format!("{f} ({:.0}%)", 100.0 * w as f64 / tally.contests() as f64))
                .unwrap_or_default(),
        ]);
    }
    outln!(r.text, "{}", summary.render());

    let mut csv = String::from(
        "matrix_id,device,format,gflops,watts,gflops_per_watt,failed,\
         footprint_mb,avg_nnz,skew,cross_row_sim,avg_num_neigh,nnz\n",
    );
    for rec in &sweep.records {
        let Record { matrix_id, device, format, gflops, watts, footprint_mb, avg_nnz, .. } = rec;
        let Record { skew, crs, neigh, nnz, .. } = rec;
        let (per_watt, failed) = (rec.gflops_per_watt(), rec.failed.as_deref().unwrap_or(""));
        csv.push_str(&format!(
            "{matrix_id},{device},{format},{gflops:.6},{watts:.3},{per_watt:.6},{failed},\
             {footprint_mb:.4},{avg_nnz:.3},{skew:.3},{crs:.3},{neigh:.3},{nnz}\n"
        ));
    }
    r.csvs.push(("campaign_records".to_string(), csv));
    if ctx.cfg.csv_dir.is_none() {
        outln!(r.text, "\n(pass --csv DIR to dump the full per-configuration record table)");
    }
    r
}
