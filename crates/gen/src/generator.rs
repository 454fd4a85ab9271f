//! The artificial matrix generator (paper §III-B, Listing 1).
//!
//! The generation pipeline, following the paper:
//!
//! 1. **Row lengths** are drawn from a random distribution
//!    (`distribution`, the paper uses `N(avg_nz_row, std_nz_row)`).
//! 2. **Skew** is achieved by overwriting a prefix of rows with an
//!    exponentially decreasing envelope `MAX · exp(−C · row_idx /
//!    nr_rows)`, where `MAX = avg·(1+skew)` and `C` controls the shape;
//!    the mean of the remaining rows is then recalculated so the
//!    *combined* average equals the requested one.
//! 3. **Positions**: per row, (a) columns of the previous row are
//!    duplicated with probability `cross_row_sim`; (b) the remaining
//!    nonzeros are placed uniformly at random inside a window of width
//!    `bw_scaled · nr_cols` around the (scaled) diagonal; (c) after each
//!    random placement, adjacent neighbors are appended with a
//!    probability derived from `avg_num_neigh` until the dice roll
//!    fails, creating same-row nonzero clustering.
//! 4. Values are uniform in `[-1, 1)` (the paper does not consider
//!    numerical aspects).

use crate::rng::{normal, rng_for_seed};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use spmv_core::{CsrMatrix, SparseError};
use std::collections::HashSet;

/// Row-length distribution used for the non-skewed part of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RowDist {
    /// Every row gets `round(avg_nz_row)` nonzeros (σ ignored).
    Constant,
    /// `N(avg_nz_row, std_nz_row)` — the distribution used in the paper.
    Normal,
    /// Uniform over `[avg − √3·σ, avg + √3·σ]` (same mean/σ as Normal).
    Uniform,
}

/// Inputs of `artificial_matrix_generation` (paper Listing 1), plus the
/// RNG seed that makes every generated matrix reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneratorParams {
    /// Number of rows.
    pub nr_rows: usize,
    /// Number of columns.
    pub nr_cols: usize,
    /// Target average nonzeros per row (feature f2).
    pub avg_nz_row: f64,
    /// Standard deviation of nonzeros per row for the base distribution.
    pub std_nz_row: f64,
    /// Base row-length distribution.
    pub distribution: RowDist,
    /// Target skew coefficient `(max − avg)/avg` (feature f3).
    pub skew_coeff: f64,
    /// Matrix bandwidth as a fraction of the number of columns, `[0,1]`.
    pub bw_scaled: f64,
    /// Probability of duplicating each previous-row column (feature f4.a).
    pub cross_row_sim: f64,
    /// Target average number of same-row neighbors, `[0, 2)` (feature f4.b).
    pub avg_num_neigh: f64,
    /// RNG seed.
    pub seed: u64,
}

impl GeneratorParams {
    /// Checks that the parameters are internally consistent.
    pub fn validate(&self) -> Result<(), SparseError> {
        if self.avg_nz_row < 0.0 || self.avg_nz_row > self.nr_cols as f64 {
            return Err(SparseError::Unsatisfiable(format!(
                "avg_nz_row {} outside [0, cols = {}]",
                self.avg_nz_row, self.nr_cols
            )));
        }
        if !(0.0..=1.0).contains(&self.cross_row_sim) {
            return Err(SparseError::Unsatisfiable(format!(
                "cross_row_sim {} outside [0, 1]",
                self.cross_row_sim
            )));
        }
        if !(0.0..2.0).contains(&self.avg_num_neigh) {
            return Err(SparseError::Unsatisfiable(format!(
                "avg_num_neigh {} outside [0, 2)",
                self.avg_num_neigh
            )));
        }
        if !(0.0..=1.0).contains(&self.bw_scaled) {
            return Err(SparseError::Unsatisfiable(format!(
                "bw_scaled {} outside [0, 1]",
                self.bw_scaled
            )));
        }
        if self.skew_coeff < 0.0 || self.std_nz_row < 0.0 {
            return Err(SparseError::Unsatisfiable(
                "skew_coeff and std_nz_row must be non-negative".into(),
            ));
        }
        Ok(())
    }

    /// The effective longest-row length: `avg·(1+skew)` clamped to the
    /// number of columns (a row cannot hold more nonzeros than columns,
    /// so very high skews saturate on small matrices).
    pub fn max_row_len(&self) -> usize {
        let want = (self.avg_nz_row * (1.0 + self.skew_coeff)).round() as usize;
        want.max(self.avg_nz_row.ceil() as usize).min(self.nr_cols)
    }

    /// The skew actually achievable after clamping to the column count.
    pub fn achievable_skew(&self) -> f64 {
        if self.avg_nz_row <= 0.0 {
            return 0.0;
        }
        (self.max_row_len() as f64 - self.avg_nz_row) / self.avg_nz_row
    }

    /// Generates the matrix in CSR format (paper Listing 1 returns
    /// `csr_matrix *`).
    pub fn generate(&self) -> Result<CsrMatrix, SparseError> {
        self.validate()?;
        let mut rng = rng_for_seed(self.seed);
        let lengths = plan_row_lengths(self, &mut rng);
        let mut engine = RowPlacer::new(self);
        let nnz_estimate: usize = lengths.iter().sum();
        let mut row_ptr = Vec::with_capacity(self.nr_rows + 1);
        row_ptr.push(0usize);
        let mut col_idx: Vec<u32> = Vec::with_capacity(nnz_estimate);
        let mut values: Vec<f64> = Vec::with_capacity(nnz_estimate);
        let mut row_buf: Vec<u32> = Vec::new();
        for (r, &len) in lengths.iter().enumerate() {
            engine.place_row(&mut rng, r, len, &mut row_buf);
            col_idx.extend_from_slice(&row_buf);
            for _ in 0..row_buf.len() {
                values.push(rng.gen_range(-1.0..1.0));
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix::from_parts_unchecked(self.nr_rows, self.nr_cols, row_ptr, col_idx, values))
    }
}

/// Plans the number of nonzeros of every row (steps 1–2 of the
/// pipeline): base distribution + exponential skew envelope + total
/// re-normalization so the combined average matches `avg_nz_row`.
pub fn plan_row_lengths(p: &GeneratorParams, rng: &mut StdRng) -> Vec<usize> {
    let n = p.nr_rows;
    if n == 0 {
        return Vec::new();
    }
    let cols = p.nr_cols;
    let a = p.avg_nz_row;
    let target_total = (a * n as f64).round() as usize;
    let max_len = p.max_row_len();

    // When a positive skew is requested, row lengths are capped at the
    // target maximum so the measured skew hits it exactly; for skew 0
    // the base distribution is only bounded by the column count (a
    // normal distribution with σ > 0 necessarily yields a small
    // positive residual skew, which the paper classifies as balanced).
    let len_cap = if p.skew_coeff > 0.0 { max_len } else { cols };

    let mut lengths = vec![0usize; n];
    let (spike_rows, spike_total) = if p.skew_coeff > 0.0 && max_len > a.ceil() as usize {
        fill_skew_envelope(&mut lengths, n, a, max_len)
    } else {
        (0, 0)
    };

    // Recalculate the mean of the remaining (non-spike) rows so the
    // combined average equals the requested one (paper: "The average of
    // the previous distribution function is then recalculated").
    let rest_rows = n - spike_rows;
    let rest_mean = if rest_rows > 0 {
        ((target_total.saturating_sub(spike_total)) as f64 / rest_rows as f64).max(0.0)
    } else {
        0.0
    };
    for len in lengths.iter_mut().skip(spike_rows) {
        let sample = match p.distribution {
            RowDist::Constant => rest_mean,
            RowDist::Normal => normal(rng, rest_mean, p.std_nz_row),
            RowDist::Uniform => {
                let half = 3f64.sqrt() * p.std_nz_row;
                rng.gen_range((rest_mean - half)..=(rest_mean + half))
            }
        };
        *len = (sample.round().max(0.0) as usize).min(len_cap);
    }

    rebalance_total(&mut lengths, target_total, len_cap, spike_rows.max(1).min(n), rng);
    // Pin the longest row so the measured skew hits the target exactly
    // even after rebalancing.
    if p.skew_coeff > 0.0 && !lengths.is_empty() {
        lengths[0] = max_len;
    }
    lengths
}

/// Fills the exponential skew envelope `MAX · exp(−C·i/n)` over a prefix
/// of rows; returns `(spike_rows, spike_total)`.
fn fill_skew_envelope(lengths: &mut [usize], n: usize, avg: f64, max_len: usize) -> (usize, usize) {
    let ratio = (max_len as f64 / avg.max(1e-9)).max(1.0 + 1e-9);
    // Width of the spike as a fraction of the matrix: chosen so the
    // spike consumes at most ~40% of the total nonzero budget, keeping
    // the remaining rows' average non-negative.
    // Spike total ~= n·avg·phi·(ratio−1)/ln(ratio).
    let phi_budget = 0.4 * ratio.ln() / (ratio - 1.0);
    let phi = phi_budget.min(0.05).max(1.0 / n as f64);
    let c = ratio.ln() / phi;
    let spike_rows = ((phi * n as f64).ceil() as usize).clamp(1, n);
    let mut total = 0usize;
    for (i, len) in lengths.iter_mut().take(spike_rows).enumerate() {
        let val = (max_len as f64 * (-c * i as f64 / n as f64).exp()).round() as usize;
        *len = val.min(max_len);
        total += *len;
    }
    (spike_rows, total)
}

/// Nudges individual row lengths so the total hits `target_total`
/// exactly (up to feasibility), touching only rows at index
/// `>= first_adjustable` so the pinned skew prefix stays intact.
fn rebalance_total(
    lengths: &mut [usize],
    target_total: usize,
    max_len: usize,
    first_adjustable: usize,
    rng: &mut StdRng,
) {
    let n = lengths.len();
    if n == 0 || first_adjustable >= n {
        return;
    }
    let mut total: usize = lengths.iter().sum();
    let mut guard = 4 * n + 64;
    while total != target_total && guard > 0 {
        guard -= 1;
        let idx = rng.gen_range(first_adjustable..n);
        if total < target_total {
            if lengths[idx] < max_len {
                lengths[idx] += 1;
                total += 1;
            }
        } else if lengths[idx] > 0 {
            lengths[idx] -= 1;
            total -= 1;
        }
    }
}

/// Step 3 of the pipeline: per-row column placement with cross-row
/// duplication, bandwidth confinement and neighbor clustering.
struct RowPlacer {
    nr_rows: usize,
    nr_cols: usize,
    bw_scaled: f64,
    cross_row_sim: f64,
    /// Probability of extending a run by one more adjacent column;
    /// a geometric run of parameter `p` yields `avg_num_neigh ≈ 2p`.
    p_neigh: f64,
    prev_row: Vec<u32>,
    seen: HashSet<u32>,
}

impl RowPlacer {
    /// Creates a placer for the given parameters.
    fn new(p: &GeneratorParams) -> Self {
        Self {
            nr_rows: p.nr_rows,
            nr_cols: p.nr_cols,
            bw_scaled: p.bw_scaled,
            cross_row_sim: p.cross_row_sim,
            p_neigh: (p.avg_num_neigh / 2.0).clamp(0.0, 0.995),
            prev_row: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// Places `len` sorted, unique columns for row `row_index` into
    /// `out` (cleared first), updating the previous-row state.
    fn place_row(&mut self, rng: &mut StdRng, row_index: usize, len: usize, out: &mut Vec<u32>) {
        out.clear();
        self.seen.clear();
        let cols = self.nr_cols;
        if len == 0 || cols == 0 {
            self.prev_row.clear();
            return;
        }
        let len = len.min(cols);
        if len == cols {
            out.extend(0..cols as u32);
            self.prev_row.clear();
            self.prev_row.extend_from_slice(out);
            return;
        }
        let (win_start, win_width) = self.window(row_index, len);

        // (a) Cross-row duplication: copy previous-row columns with
        // probability cross_row_sim each.
        if self.cross_row_sim > 0.0 && !self.prev_row.is_empty() {
            // Iterate over a bounded number of prev columns so that a
            // huge previous row cannot overfill a short one.
            for i in 0..self.prev_row.len() {
                if self.seen.len() >= len {
                    break;
                }
                let c = self.prev_row[i];
                if rng.gen::<f64>() < self.cross_row_sim {
                    self.seen.insert(c);
                }
            }
        }

        // (b) + (c) Random placement in the window, with geometric
        // neighbor-run extension after each successful placement.
        let mut attempts = 16 * len + 64;
        while self.seen.len() < len && attempts > 0 {
            attempts -= 1;
            let c = win_start + rng.gen_range(0..win_width) as u32;
            if !self.seen.insert(c) {
                continue;
            }
            // Extend to the right with probability p_neigh per step.
            let mut cur = c + 1;
            while self.seen.len() < len
                && (cur as usize) < win_start as usize + win_width
                && rng.gen::<f64>() < self.p_neigh
                && self.seen.insert(cur)
            {
                cur += 1;
            }
        }
        // Fallback for dense windows where random probing stalls: take
        // the first unused columns of the window, then of the matrix.
        if self.seen.len() < len {
            for c in (win_start..win_start + win_width as u32).chain(0..cols as u32) {
                if self.seen.len() >= len {
                    break;
                }
                self.seen.insert(c);
            }
        }

        out.extend(self.seen.iter().copied());
        out.sort_unstable();
        self.prev_row.clear();
        self.prev_row.extend_from_slice(out);
    }

    /// The placement window of a row: width `max(len, bw_scaled·cols)`
    /// centered on the scaled diagonal.
    fn window(&self, row_index: usize, len: usize) -> (u32, usize) {
        let cols = self.nr_cols;
        let width = ((self.bw_scaled * cols as f64).round() as usize).clamp(len, cols);
        let center = if self.nr_rows > 1 {
            (row_index as f64 / (self.nr_rows - 1) as f64 * (cols - 1) as f64) as usize
        } else {
            cols / 2
        };
        let half = width / 2;
        let start = center.saturating_sub(half).min(cols - width);
        (start as u32, width)
    }
}

/// Derives generator parameters that target a requested feature vector
/// (used by the validation suite and the feature-sweep binaries).
///
/// The matrix shape follows from the footprint and the average row
/// length: `nnz ≈ footprint / (12 + 4/avg)` bytes, `rows = nnz / avg`,
/// and the matrix is square unless the skew needs a longer row than
/// there are columns.
pub fn params_for_features(
    mem_footprint_mb: f64,
    avg_nnz_per_row: f64,
    skew_coeff: f64,
    cross_row_sim: f64,
    avg_num_neigh: f64,
    bw_scaled: f64,
    seed: u64,
) -> GeneratorParams {
    let bytes = mem_footprint_mb * 1024.0 * 1024.0;
    let avg = avg_nnz_per_row.max(0.25);
    let bytes_per_nnz = 12.0 + 4.0 / avg;
    let nnz = (bytes / bytes_per_nnz).max(1.0);
    let rows = ((nnz / avg).round() as usize).max(1);
    // A row must be able to hold `avg` distinct columns, and the skew
    // spike wants `avg·(1+skew)` of them; keep the matrix roughly
    // square by capping the spike's wish at 4× the row count.
    let min_cols = avg.ceil() as usize;
    let needed_cols = (avg * (1.0 + skew_coeff)).ceil() as usize;
    let cols = rows.max(needed_cols.min(4 * rows.max(min_cols))).max(min_cols);
    GeneratorParams {
        nr_rows: rows,
        nr_cols: cols,
        avg_nz_row: avg,
        std_nz_row: if skew_coeff > 0.0 { 0.0 } else { avg * 0.2 },
        distribution: RowDist::Normal,
        skew_coeff,
        bw_scaled,
        cross_row_sim,
        avg_num_neigh,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::FeatureSet;

    fn base_params() -> GeneratorParams {
        GeneratorParams {
            nr_rows: 4000,
            nr_cols: 4000,
            avg_nz_row: 20.0,
            std_nz_row: 4.0,
            distribution: RowDist::Normal,
            skew_coeff: 0.0,
            bw_scaled: 0.3,
            cross_row_sim: 0.3,
            avg_num_neigh: 0.5,
            seed: 7,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = base_params();
        let a = p.generate().unwrap();
        let b = p.generate().unwrap();
        assert_eq!(a, b);
        let c = GeneratorParams { seed: 8, ..p }.generate().unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn csr_invariants_hold() {
        let p = base_params();
        let m = p.generate().unwrap();
        m.validate().unwrap();
    }

    #[test]
    fn hits_requested_average_row_length() {
        let p = base_params();
        let f = FeatureSet::extract(&p.generate().unwrap());
        assert!((f.avg_nnz_per_row - 20.0).abs() / 20.0 < 0.02, "avg = {}", f.avg_nnz_per_row);
    }

    #[test]
    fn hits_requested_skew() {
        for &skew in &[100.0, 1000.0] {
            let p = GeneratorParams {
                nr_rows: 50_000,
                nr_cols: 50_000,
                avg_nz_row: 10.0,
                skew_coeff: skew,
                std_nz_row: 0.0,
                ..base_params()
            };
            let f = FeatureSet::extract(&p.generate().unwrap());
            let rel = (f.skew_coeff - skew).abs() / skew;
            assert!(rel < 0.15, "requested skew {skew}, measured {}", f.skew_coeff);
        }
    }

    #[test]
    fn skew_saturates_on_narrow_matrices() {
        let p = GeneratorParams {
            nr_rows: 100,
            nr_cols: 100,
            avg_nz_row: 10.0,
            skew_coeff: 10_000.0,
            ..base_params()
        };
        // max row length is capped by cols = 100 -> skew caps at 9.
        assert_eq!(p.max_row_len(), 100);
        assert!((p.achievable_skew() - 9.0).abs() < 1e-9);
        let f = FeatureSet::extract(&p.generate().unwrap());
        assert!(f.skew_coeff <= 9.5);
    }

    #[test]
    fn hits_requested_neighbor_count() {
        for &neigh in &[0.05, 0.5, 1.4] {
            let p = GeneratorParams {
                avg_num_neigh: neigh,
                cross_row_sim: 0.0,
                bw_scaled: 0.6,
                ..base_params()
            };
            let f = FeatureSet::extract(&p.generate().unwrap());
            assert!(
                (f.avg_num_neigh - neigh).abs() < 0.25,
                "requested {neigh}, measured {}",
                f.avg_num_neigh
            );
        }
    }

    #[test]
    fn cross_row_similarity_responds_to_parameter() {
        let lo = GeneratorParams { cross_row_sim: 0.05, ..base_params() };
        let hi = GeneratorParams { cross_row_sim: 0.95, ..base_params() };
        let f_lo = FeatureSet::extract(&lo.generate().unwrap());
        let f_hi = FeatureSet::extract(&hi.generate().unwrap());
        assert!(
            f_hi.cross_row_sim > f_lo.cross_row_sim + 0.3,
            "lo = {}, hi = {}",
            f_lo.cross_row_sim,
            f_hi.cross_row_sim
        );
        assert!(f_hi.cross_row_sim > 0.6, "hi = {}", f_hi.cross_row_sim);
    }

    #[test]
    fn bandwidth_is_confined() {
        let p = GeneratorParams { bw_scaled: 0.05, cross_row_sim: 0.0, ..base_params() };
        let f = FeatureSet::extract(&p.generate().unwrap());
        assert!(f.bandwidth_scaled < 0.10, "bw = {}", f.bandwidth_scaled);
        let p = GeneratorParams { bw_scaled: 0.6, cross_row_sim: 0.0, ..base_params() };
        let f = FeatureSet::extract(&p.generate().unwrap());
        assert!(f.bandwidth_scaled > 0.3, "bw = {}", f.bandwidth_scaled);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(GeneratorParams { avg_nz_row: -1.0, ..base_params() }.validate().is_err());
        assert!(GeneratorParams { cross_row_sim: 1.5, ..base_params() }.validate().is_err());
        assert!(GeneratorParams { avg_num_neigh: 2.0, ..base_params() }.validate().is_err());
        assert!(GeneratorParams { bw_scaled: -0.1, ..base_params() }.validate().is_err());
        assert!(GeneratorParams { skew_coeff: -2.0, ..base_params() }.validate().is_err());
        assert!(GeneratorParams { avg_nz_row: 1e9, ..base_params() }.validate().is_err());
    }

    #[test]
    fn zero_rows_and_zero_avg() {
        let p = GeneratorParams { nr_rows: 0, ..base_params() };
        let m = p.generate().unwrap();
        assert_eq!(m.rows(), 0);
        let p = GeneratorParams { avg_nz_row: 0.0, std_nz_row: 0.0, ..base_params() };
        let m = p.generate().unwrap();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn full_rows_clamp_to_cols() {
        let p = GeneratorParams {
            nr_rows: 16,
            nr_cols: 8,
            avg_nz_row: 8.0,
            std_nz_row: 0.0,
            distribution: RowDist::Constant,
            skew_coeff: 0.0,
            bw_scaled: 0.0,
            cross_row_sim: 0.0,
            avg_num_neigh: 0.0,
            seed: 1,
        };
        let m = p.generate().unwrap();
        assert_eq!(m.nnz(), 16 * 8);
        for r in 0..16 {
            assert_eq!(m.row(r).0, (0..8).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn params_for_features_reconstruct_footprint() {
        let p = params_for_features(8.0, 20.0, 0.0, 0.3, 0.5, 0.3, 11);
        let m = p.generate().unwrap();
        let f = FeatureSet::extract(&m);
        assert!(
            (f.mem_footprint_mb - 8.0).abs() / 8.0 < 0.05,
            "footprint = {}",
            f.mem_footprint_mb
        );
        assert!((f.avg_nnz_per_row - 20.0).abs() / 20.0 < 0.05);
    }

    #[test]
    fn params_for_features_with_high_skew() {
        let p = params_for_features(2.0, 5.0, 1000.0, 0.3, 0.5, 0.3, 3);
        let m = p.generate().unwrap();
        let f = FeatureSet::extract(&m);
        // Achievable skew may be clamped, but must be substantial.
        assert!(f.skew_coeff > 100.0, "skew = {}", f.skew_coeff);
    }
}
