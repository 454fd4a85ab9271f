//! The calibration sweep behind the `Host` device profile
//! (`spmv_devices::host`) and the deterministic scores of a swept
//! table: what `engine_throughput` runs and reports.
//!
//! The lattice is Table I's row lengths and skews, three of its
//! locality settings, and eight footprints spanning the three regimes
//! the repo benchmark serves — a few KB (`hot-small`: everything in
//! L1/L2, kernels of tens of nanoseconds), 0.25–4 MB (`cold-*`) and
//! 12–32 MB (`hot-large`: streamed from beyond L2). The format ranking
//! differs between the regimes, so the table must hold all three.
//!
//! A matrix's formats are the sides of one [`crate::timing`] trial of
//! two rounds: a format's GFLOP/s is its median (the mean of the two),
//! and `|ln(round a / round b)|` over every (matrix, format) is the
//! sweep's repeat spread, whose median decides whether the table may be
//! committed ([`MAX_COMMITTED_SPREAD_P50`]).

use crate::timing::{self, side};
use spmv_analysis::{FormatSelector, Observation, SelectorFeatures};
use spmv_core::{CsrMatrix, FeatureSet};
use spmv_devices::host::HostMatrix;
use spmv_devices::{estimate_with, HostTable, MatrixSummary, ModelConfig};
use spmv_formats::{build_format_with, FormatKind, LaneProfile, LaneWidth, SparseFormat};
use spmv_gen::dataset::{AVG_NNZ_VALUES, SKEW_VALUES};
use spmv_gen::generator::params_for_features;
use spmv_gen::rng::child_seed;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// CSR footprints of the sweep, in MB.
pub const SWEEP_MB: [f64; 8] = [0.001, 0.008, 0.06, 0.25, 1.0, 4.0, 12.0, 32.0];

/// `(cross_row_sim, avg_num_neigh, bw_scaled)` settings of the sweep:
/// regular and banded, middling, scattered (all Table I / §III-B
/// values). The selector weighs a full swing of the two locality
/// features like three decades of footprint, so a lattice without the
/// middle setting leaves a middling operand three units from either
/// end, and the end that wins decides its label: a sweep of the two
/// ends alone served a 4 MB `very-skewed` operand of the benchmark with
/// HYB (17 ns/nnz to convert, slower than CSR once converted) off a
/// neighbour half as dense in row length.
pub const SWEEP_LOCALITY: [(f64, f64, f64); 3] =
    [(0.95, 1.9, 0.05), (0.5, 0.95, 0.3), (0.05, 0.05, 0.6)];

/// Seed of the sweep's matrices. The held-out operands of
/// `engine_throughput` come from `spmv_bench::classes` under other
/// seeds.
pub const SWEEP_SEED: u64 = 0xCA11_B8A7;

/// One matrix of the sweep's lattice: footprint, row length, skew, a
/// [`SWEEP_LOCALITY`] setting, and the seed it is generated under.
#[derive(Debug, Clone, Copy)]
pub struct LatticePoint {
    /// CSR footprint in MB, one of [`SWEEP_MB`].
    pub mb: f64,
    /// Average nonzeros per row.
    pub avg: f64,
    /// Skew coefficient.
    pub skew: f64,
    /// `(cross_row_sim, avg_num_neigh, bw_scaled)`.
    pub locality: (f64, f64, f64),
    /// The matrix's generator seed.
    pub seed: u64,
}

impl LatticePoint {
    /// The lattice matrix, as the sweep generates it.
    pub fn generate(&self) -> CsrMatrix {
        let (crs, neigh, bw) = self.locality;
        params_for_features(self.mb, self.avg, self.skew, crs, neigh, bw, self.seed)
            .generate()
            .expect("lattice parameters are satisfiable")
    }
}

/// The sweep's 576 lattice points, in sweep order (footprint, row
/// length, skew, locality), each with its seed under [`SWEEP_SEED`].
pub fn lattice() -> impl Iterator<Item = LatticePoint> {
    let grid = SWEEP_MB.into_iter().flat_map(|mb| {
        AVG_NNZ_VALUES.into_iter().flat_map(move |avg| {
            SKEW_VALUES.into_iter().flat_map(move |skew| {
                SWEEP_LOCALITY.into_iter().map(move |locality| (mb, avg, skew, locality))
            })
        })
    });
    grid.zip(0..).map(|((mb, avg, skew, locality), index)| LatticePoint {
        mb,
        avg,
        skew,
        locality,
        seed: child_seed(SWEEP_SEED, index),
    })
}

/// The formats the sweep times: the serving registry without DIA, BCSR
/// and VSL, which on the benchmark's traces run at 0.2–0.3 of the CSR
/// formats or refuse the matrix, and whose conversion would cost most of
/// a sweep. The `Host` profile lists those of them that win somewhere
/// (see [`without_rare_labels`]).
pub const SWEPT: [FormatKind; 12] = [
    FormatKind::NaiveCsr,
    FormatKind::VectorizedCsr,
    FormatKind::BalancedCsr,
    FormatKind::Csr5,
    FormatKind::MergeCsr,
    FormatKind::SparseX,
    FormatKind::Coo,
    FormatKind::Ell,
    FormatKind::Hyb,
    FormatKind::SellC4,
    FormatKind::SellCSigma,
    FormatKind::SellC16,
];

/// The dense operand every timing multiplies by.
pub fn operand(cols: usize) -> Vec<f64> {
    (0..cols).map(|c| 1.0 + (c % 5) as f64 * 0.25).collect()
}

/// Right-hand sides of the sweep's one SpMM timing (the repo
/// benchmark's `k`).
const SPMM_K: usize = 8;

/// What the sweep measured beside the table itself.
pub struct Sweep {
    /// The swept table, every [`SWEPT`] format a column, its margin set
    /// by [`widest_free_margin`].
    pub table: HostTable,
    /// `|ln(a / b)|` of the two timing rounds of every (matrix, format)
    /// that ran, sorted ascending: the sweep's own repeat spread.
    pub spreads: Vec<f64>,
    /// Conversion seconds per nonzero, per matrix and [`SWEPT`] format
    /// (NaN where the format refused).
    pub convert_s_per_nnz: Vec<Vec<f64>>,
    /// Modeled `AMD-EPYC-24` GFLOP/s per matrix and [`SWEPT`] format
    /// (NaN where the testbed lacks the format or the model refused).
    pub modeled_gflops: Vec<Vec<f64>>,
    /// Per matrix, Vectorized-CSR at the other of W4 / W8 over the same
    /// format at the table's lane width, as throughput ratios of `spmv`
    /// and of `spmm` (k = 8): what the lane dimension is worth on this
    /// host to the only kernels it changes (`dot` and the CSR panel).
    pub other_width_ratio: Vec<(f64, f64)>,
    /// The width the numerators of `other_width_ratio` ran at.
    pub other_width: LaneWidth,
    /// Wall-clock seconds the sweep took.
    pub seconds: f64,
}

/// Leave-one-out regret a label margin may cost, relative to the best
/// margin's.
pub const MARGIN_REGRET_SLACK: f64 = 0.01;

/// The label margin of a swept table: the widest one, in steps of a
/// percent up to 30%, whose leave-one-out regret stays within
/// [`MARGIN_REGRET_SLACK`] of the best margin's. How far a measured
/// lead can be trusted is what the sweep's repeat spread says, and on a
/// shared host that spread is as much the neighbours' load as the
/// kernels (over four sweeps of one afternoon its median read 3–6.5%,
/// its 90th percentile 21–32%); what a margin costs in kernel time, the
/// table itself can say exactly. Up to that cost, the wider
/// margin is the better one: every label it moves to a CSR-family
/// format saves that matrix's kin a conversion of 1.5–4 ns/nnz and the
/// re-laid-out copy.
pub fn widest_free_margin(table: &HostTable) -> f64 {
    let mut table = table.clone();
    let regrets: Vec<f64> = (0..=30)
        .map(|percent| {
            table.margin = percent as f64 / 100.0;
            leave_one_out(&table, 1).regret_geomean
        })
        .collect();
    let best = regrets.iter().copied().fold(f64::INFINITY, f64::min);
    let widest = regrets.iter().rposition(|&r| r <= best * (1.0 + MARGIN_REGRET_SLACK));
    widest.expect("the best margin is within the slack of itself") as f64 / 100.0
}

/// Median repeat spread above which a sweep is not committed: the two
/// timing rounds of a typical (matrix, format) disagree by more than
/// this, so its labels are the neighbours' load as much as the kernels.
/// The four sweeps of the afternoon the committed table comes from read
/// 0.033–0.065.
pub const MAX_COMMITTED_SPREAD_P50: f64 = 0.10;

impl Sweep {
    /// Quantile `q` of the repeat spread, as a relative difference.
    pub fn spread_quantile(&self, q: f64) -> f64 {
        self.spreads[((self.spreads.len() - 1) as f64 * q).round() as usize].exp_m1()
    }

    /// Whether the host was quiet enough for the sweep's table to be
    /// committed ([`MAX_COMMITTED_SPREAD_P50`]).
    pub fn quiet_enough(&self) -> bool {
        self.spread_quantile(0.5) <= MAX_COMMITTED_SPREAD_P50
    }
}

/// Runs the calibration sweep at `profile`, single-threaded: every
/// lattice matrix is generated, its features extracted, and every
/// [`SWEPT`] format built with `build_format_with` and timed in one
/// [`timing`] trial of two rounds. `progress` is told after each
/// footprint.
pub fn sweep(profile: LaneProfile, mut progress: impl FnMut(&str)) -> Sweep {
    let started = Instant::now();
    let other_width = if profile.width == LaneWidth::W8 { LaneWidth::W4 } else { LaneWidth::W8 };
    let epyc =
        spmv_devices::device_by_name("AMD-EPYC-24").expect("a Table II testbed").scaled(16.0);
    let quiet = ModelConfig { noise: false, ..ModelConfig::default() };
    let mut out = Sweep {
        table: HostTable {
            cpu_model: crate::report::cpu_model(),
            vector_isa: spmv_formats::kernels::vector_isa().to_string(),
            lanes: profile.width.lanes(),
            git_rev: crate::report::git_rev(),
            margin: 0.0,
            formats: SWEPT.to_vec(),
            matrices: Vec::new(),
        },
        spreads: Vec::new(),
        convert_s_per_nnz: Vec::new(),
        modeled_gflops: Vec::new(),
        other_width_ratio: Vec::new(),
        other_width,
        seconds: 0.0,
    };
    for &mb in &SWEEP_MB {
        for point in lattice().filter(|p| p.mb == mb) {
            sweep_matrix(&mut out, &point.generate(), profile, &epyc, &quiet);
        }
        progress(&format!(
            "{mb} MB done: {} matrices, {:.0} s",
            out.table.matrices.len(),
            started.elapsed().as_secs_f64()
        ));
    }
    out.spreads.sort_by(f64::total_cmp);
    out.table.margin = widest_free_margin(&out.table);
    out.seconds = started.elapsed().as_secs_f64();
    out
}

fn sweep_matrix(
    out: &mut Sweep,
    csr: &CsrMatrix,
    profile: LaneProfile,
    epyc: &spmv_devices::DeviceSpec,
    quiet: &ModelConfig,
) {
    if csr.nnz() == 0 {
        return; // nothing to time, and nothing a selector could learn from
    }
    let features = FeatureSet::extract(csr);
    let (x, y) = (operand(csr.cols()), RefCell::new(vec![0.0; csr.rows()]));
    let flops = 2.0 * csr.nnz() as f64;
    let mut built = Vec::new();
    let mut convert = Vec::new();
    for kind in SWEPT {
        let t = Instant::now();
        let fmt = build_format_with(kind, csr, profile).ok();
        convert.push(if fmt.is_some() {
            t.elapsed().as_secs_f64() / csr.nnz() as f64
        } else {
            f64::NAN
        });
        built.extend(fmt.map(|f| (kind, f)));
    }
    // Two rounds over all formats, not two timings back to back: a
    // burst of neighbour load then hits different formats in each.
    let spmv = |f: &dyn SparseFormat| f.spmv(black_box(&x), black_box(&mut y.borrow_mut()));
    let rounds = timing::run(
        2,
        1,
        built.iter().map(|(kind, fmt)| side(kind.name(), || spmv(&**fmt))).collect(),
    );
    let mut gflops = Vec::new();
    for kind in SWEPT {
        if built.iter().any(|(k, _)| *k == kind) {
            let secs = rounds.side(kind.name());
            out.spreads.push((secs.max / secs.min).ln());
            gflops.push(flops / secs.median / 1e9);
        } else {
            gflops.push(0.0);
        }
    }
    drop(built);
    let (xk, yk) = (operand(csr.cols() * SPMM_K), RefCell::new(vec![0.0; csr.rows() * SPMM_K]));
    let vectorized_at = |width: LaneWidth| {
        build_format_with(FormatKind::VectorizedCsr, csr, LaneProfile::with_width(width))
            .expect("CSR accepts any matrix")
    };
    let (table, other) = (vectorized_at(profile.width), vectorized_at(out.other_width));
    let spmm =
        |f: &dyn SparseFormat| f.spmm(black_box(&xk), SPMM_K, black_box(&mut yk.borrow_mut()));
    let rounds = timing::run(
        2,
        1,
        vec![
            side("table spmv", || spmv(&*table)),
            side("other spmv", || spmv(&*other)),
            side("table spmm", || spmm(&*table)),
            side("other spmm", || spmm(&*other)),
        ],
    );
    out.other_width_ratio.push((
        rounds.ratio("table spmv", "other spmv").rounds.median,
        rounds.ratio("table spmm", "other spmm").rounds.median,
    ));

    let summary = MatrixSummary::from_csr("sweep", 0, csr);
    out.modeled_gflops.push(
        SWEPT
            .iter()
            .map(|&k| estimate_with(quiet, epyc, k, &summary).map_or(f64::NAN, |e| e.gflops))
            .collect(),
    );
    out.convert_s_per_nnz.push(convert);
    // Rounded to what a timing of a few percent repeat spread can
    // mean: the table is a third of the size, and the engine parses it
    // at every boot.
    out.table.matrices.push(HostMatrix {
        nnz: csr.nnz(),
        footprint_mb: round_to(features.mem_footprint_mb, 6),
        avg_nnz: round_to(features.avg_nnz_per_row, 6),
        skew: round_to(features.skew_coeff, 6),
        crs: round_to(features.cross_row_sim, 6),
        neigh: round_to(features.avg_num_neigh, 6),
        gflops: gflops.into_iter().map(|g| round_to(g, 4)).collect(),
    });
}

/// `v` rounded to `digits` significant decimal digits.
fn round_to(v: f64, digits: usize) -> f64 {
    format!("{v:.*e}", digits - 1).parse().expect("a formatted float parses")
}

/// A swept format keeps its column in the committed table when it
/// labels at least this share of the matrices: one in twenty.
pub const MIN_LABEL_SHARE: f64 = 0.05;

/// `table` without the formats that label (after the margin) fewer than
/// [`MIN_LABEL_SHARE`] of its matrices, and those formats. A format
/// that wins next to nowhere teaches the selector little — its few
/// labels are as likely the sweep's noise as a niche, and a neighbour
/// carrying one costs an operand a conversion (HYB: 3–17 ns/nnz) — and
/// every column is one record per matrix the engine parses at boot.
/// Naive-CSR, which accepts every matrix, always stays.
pub fn without_rare_labels(table: &HostTable) -> (HostTable, Vec<FormatKind>) {
    let mut labels = vec![0usize; table.formats.len()];
    for m in &table.matrices {
        labels[label_of(table, m)] += 1;
    }
    let keep = |i: usize| {
        table.formats[i] == FormatKind::NaiveCsr
            || labels[i] as f64 >= MIN_LABEL_SHARE * table.matrices.len() as f64
    };
    let columns: Vec<usize> = (0..table.formats.len()).filter(|&i| keep(i)).collect();
    let mut pruned = table.clone();
    pruned.formats = columns.iter().map(|&i| table.formats[i]).collect();
    for m in &mut pruned.matrices {
        m.gflops = columns.iter().map(|&i| m.gflops[i]).collect();
    }
    let dropped = (0..table.formats.len()).filter(|&i| !keep(i)).map(|i| table.formats[i]);
    (pruned, dropped.collect())
}

/// The selector input of one table row.
fn features_of(m: &HostMatrix) -> SelectorFeatures {
    SelectorFeatures {
        footprint_mb: m.footprint_mb,
        avg_nnz_per_row: m.avg_nnz,
        skew: m.skew,
        cross_row_sim: m.crs,
        avg_num_neigh: m.neigh,
    }
}

/// Index into the table's formats of the label row `m` trains the
/// selector with: the fastest format by [`HostTable::label_gflops`],
/// i.e. after the margin (ties to the earlier column).
pub fn label_of(table: &HostTable, m: &HostMatrix) -> usize {
    let score = |i: usize| table.label_gflops(table.formats[i], m.gflops[i]);
    (0..table.formats.len()).fold(0, |best, i| if score(i) > score(best) { i } else { best })
}

/// Leave-one-out score of a table: every matrix is predicted by a
/// selector fitted on the labels of all the others, and the prediction
/// is judged on the matrix's own raw timings of the kind the engine
/// serves it as ([`FormatKind::served_as`]). Deterministic given the
/// table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LooScore {
    /// Share of matrices whose prediction serves as their raw fastest
    /// served kind.
    pub top1: f64,
    /// Geomean of fastest / predicted throughput.
    pub regret_geomean: f64,
    /// The worst such ratio.
    pub regret_max: f64,
}

/// Scores `table` leave-one-out with a `k`-neighbour selector, on served
/// kinds: a served kind's throughput on a matrix is the best of the
/// columns that serve as it, which time the same sequential code. A
/// prediction that serves as nothing, or as a kind the matrix refused,
/// falls back to Naive-CSR, as the engine does.
pub fn leave_one_out(table: &HostTable, k: usize) -> LooScore {
    let served = |kind: FormatKind, m: &HostMatrix| {
        let columns = table.formats.iter().zip(&m.gflops);
        columns.filter(|(f, _)| f.served_as() == Some(kind)).map(|(_, &g)| g).fold(0.0, f64::max)
    };
    let observations: Vec<Observation> = table
        .matrices
        .iter()
        .map(|m| Observation {
            features: features_of(m),
            best_format: table.formats[label_of(table, m)].name().to_string(),
        })
        .collect();
    let (mut hits, mut log_sum, mut worst) = (0usize, 0.0f64, 1.0f64);
    for (i, m) in table.matrices.iter().enumerate() {
        let mut others = observations.clone();
        others.remove(i);
        let predicted = FormatSelector::fit(&others, k)
            .recommend(&features_of(m))
            .and_then(FormatKind::from_name)
            .and_then(FormatKind::served_as)
            .map(|kind| served(kind, m))
            .filter(|&g| g > 0.0)
            .unwrap_or_else(|| served(FormatKind::NaiveCsr, m));
        let best = FormatKind::SERVING.iter().map(|&kind| served(kind, m)).fold(0.0, f64::max);
        let regret = best / predicted;
        hits += usize::from(regret == 1.0);
        log_sum += regret.ln();
        worst = worst.max(regret);
    }
    let n = table.matrices.len().max(1) as f64;
    LooScore { top1: hits as f64 / n, regret_geomean: (log_sum / n).exp(), regret_max: worst }
}

/// Spearman rank correlation of two equally long samples (average
/// ranks on ties); `None` under three points or without variance.
pub fn spearman(a: &[f64], b: &[f64]) -> Option<f64> {
    fn ranks(v: &[f64]) -> Vec<f64> {
        let mut order: Vec<usize> = (0..v.len()).collect();
        order.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
        let mut ranks = vec![0.0; v.len()];
        let mut from = 0;
        while from < order.len() {
            let mut to = from + 1;
            while to < order.len() && v[order[to]] == v[order[from]] {
                to += 1;
            }
            let rank = (from + to - 1) as f64 / 2.0;
            for &i in &order[from..to] {
                ranks[i] = rank;
            }
            from = to;
        }
        ranks
    }
    if a.len() != b.len() || a.len() < 3 {
        return None;
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let mean = (a.len() - 1) as f64 / 2.0;
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - mean) * (y - mean);
        va += (x - mean) * (x - mean);
        vb += (y - mean) * (y - mean);
    }
    (va > 0.0 && vb > 0.0).then(|| cov / (va * vb).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_lattice_is_the_sweep_grid_in_sweep_order() {
        let points: Vec<LatticePoint> = lattice().collect();
        assert_eq!(points.len(), 576);
        let per_mb = points.len() / SWEEP_MB.len();
        for (i, p) in points.iter().enumerate() {
            assert_eq!((p.mb, p.seed), (SWEEP_MB[i / per_mb], child_seed(SWEEP_SEED, i as u64)));
            assert_eq!(p.locality, SWEEP_LOCALITY[i % SWEEP_LOCALITY.len()]);
        }
    }

    #[test]
    fn spearman_reads_monotone_and_reversed_samples() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(spearman(&a, &[10.0, 20.0, 25.0, 90.0, 91.0]), Some(1.0));
        assert_eq!(spearman(&a, &[5.0, 4.0, 3.0, 2.0, 1.0]), Some(-1.0));
        let tied = spearman(&a, &[1.0, 1.0, 2.0, 2.0, 3.0]).unwrap();
        assert!(tied > 0.9 && tied < 1.0, "{tied}");
        assert_eq!(spearman(&a, &[7.0; 5]), None);
        assert_eq!(spearman(&a[..2], &a[..2]), None);
    }

    #[test]
    fn a_loud_sweep_is_not_committed() {
        // Repeat spreads as `|ln(a / b)|`, sorted, as `sweep` leaves them.
        let sweep_with = |spreads: Vec<f64>| Sweep {
            table: HostTable { matrices: Vec::new(), ..HostTable::committed() },
            spreads,
            convert_s_per_nnz: Vec::new(),
            modeled_gflops: Vec::new(),
            other_width_ratio: Vec::new(),
            other_width: LaneWidth::W8,
            seconds: 0.0,
        };
        // A quiet afternoon (median 5%, a tail of 30%), then a loud one:
        // the typical timing itself moves by 12% between rounds.
        let quiet = sweep_with(vec![0.01, 0.03, 0.05f64.ln_1p(), 0.2, 0.3]);
        assert!(quiet.quiet_enough(), "p50 {}", quiet.spread_quantile(0.5));
        let loud = sweep_with(vec![0.01, 0.08, 0.12f64.ln_1p(), 0.2, 0.3]);
        assert!(!loud.quiet_enough(), "p50 {}", loud.spread_quantile(0.5));
    }

    /// The committed table, scored on itself: the number `k` and the
    /// margin rule were chosen on. The worst single matrix is reported
    /// by `engine_throughput`, not bounded here: one 32 MB point whose
    /// nearest neighbour carries another SELL width costs a multiple.
    #[test]
    fn committed_table_predicts_its_own_matrices_leave_one_out() {
        let table = HostTable::committed();
        assert!(table.matrices.len() >= 100, "{} matrices", table.matrices.len());
        let score = leave_one_out(&table, 1);
        assert!(score.regret_geomean <= 1.06, "{score:?}");
        assert!(score.top1 >= 0.60, "{score:?}");
    }
}
