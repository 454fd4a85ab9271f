//! Closed-form x-vector locality model.
//!
//! The campaign evaluates tens of thousands of (matrix × device)
//! combinations; replaying full traces for each would dominate the
//! runtime. This model predicts the x hit rate directly from the
//! paper's regularity features and the cache geometry, decomposing it
//! the way the paper reasons about locality (§III-A.4):
//!
//! * **spatial** — same-row neighbors at column distance 1
//!   (`avg_num_neigh`) land in the already-fetched line with
//!   probability `(E−1)/E` (E = doubles per line); non-neighbor
//!   accesses may still collide with lines the row already touched
//!   inside its bandwidth window (an occupancy/birthday term);
//! * **temporal** — a fraction `cross_row_sim` of a row's accesses
//!   re-touch lines of the previous row, which are still resident for
//!   any realistic cache;
//! * **residency** — once the x window fits in (half) the cache, all
//!   capacity misses disappear and only compulsory traffic remains.
//!
//! Fidelity versus the trace-driven simulator is asserted by the tests
//! at the bottom (±0.2 absolute over a feature grid, plus trend
//! monotonicity).

use serde::{Deserialize, Serialize};

/// Inputs of the locality model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalityInputs {
    /// Number of rows of the matrix.
    pub rows: usize,
    /// Number of columns of the matrix (= length of `x`).
    pub cols: usize,
    /// Average nonzeros per row (f2).
    pub avg_nnz_per_row: f64,
    /// Bandwidth as a fraction of columns (generator input).
    pub bw_scaled: f64,
    /// Average number of same-row neighbors, `[0, 2]` (f4.b).
    pub avg_num_neigh: f64,
    /// Cross-row similarity, `[0, 1]` (f4.a).
    pub cross_row_sim: f64,
    /// Cache capacity available for `x` in bytes.
    pub cache_bytes: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
}

/// Predicts the x-vector hit rate in `[0, 1]`.
pub fn analytic_x_hit_rate(inp: &LocalityInputs) -> f64 {
    if inp.cols == 0 || inp.avg_nnz_per_row <= 0.0 || inp.rows == 0 {
        return 0.0;
    }
    let e = (inp.line_bytes as f64 / 8.0).max(1.0); // doubles per line
    let row_len = inp.avg_nnz_per_row.max(1.0);
    // Effective access window of one row, in columns.
    let window = (inp.bw_scaled * inp.cols as f64).max(row_len).min(inp.cols as f64);
    let window_bytes = window * 8.0;
    let lines_in_window = (window / e).max(1.0);

    // Spatial: adjacency hits (a neighbor at column distance 1 lands in
    // the already-fetched line unless the run crosses a line boundary).
    let p_adj = (inp.avg_num_neigh / 2.0).clamp(0.0, 1.0);
    let adj_hit = p_adj * (e - 1.0) / e;
    // Spatial: occupancy collisions of the remaining random accesses.
    // k uniform accesses over L lines touch L(1-(1-1/L)^k) distinct
    // lines; the rest are same-row hits.
    let k_rand = row_len * (1.0 - p_adj);
    let distinct = lines_in_window * (1.0 - (1.0 - 1.0 / lines_in_window).powf(k_rand));
    let rand_hit = if k_rand > 0.0 {
        ((k_rand - distinct) / k_rand).clamp(0.0, 1.0) * (1.0 - p_adj)
    } else {
        0.0
    };
    let p_spatial = (adj_hit + rand_hit).clamp(0.0, 1.0);

    // Temporal: cross-row re-touches of lines the previous row fetched;
    // those lines are a couple of rows old and survive any realistic
    // cache. Short-distance structural hits altogether:
    let p_struct = p_spatial + (1.0 - p_spatial) * inp.cross_row_sim.clamp(0.0, 1.0);

    // Long-distance reuse: uniform accesses over the W lines of the
    // (slowly sliding) row window behave like the classic LRU law —
    // a warm access hits iff its line is among the C most recently
    // used of W, i.e. with probability ≈ min(1, C/W). Cross-validated
    // against the trace simulator in the tests below and in `figures
    // memsim_validation`. The caller is responsible for passing the
    // cache share actually available to x (the device models deduct
    // the streamed matrix's share). Each x line receives T = nnz·E/cols
    // touches total; the first touch per residency is compulsory.
    let residency = (inp.cache_bytes as f64 / window_bytes).clamp(0.0, 1.0);
    let touches = (inp.rows as f64 * row_len * e / inp.cols as f64).max(1.0);
    let long_hit = residency * (touches - 1.0) / touches;

    let miss = (1.0 - p_struct) * (1.0 - long_hit);
    (1.0 - miss).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::simulate_x_hit_rate;
    use spmv_gen::generator::{GeneratorParams, RowDist};

    fn gen(cols: usize, avg: f64, bw: f64, neigh: f64, crs: f64) -> spmv_core::CsrMatrix {
        GeneratorParams {
            nr_rows: 4000,
            nr_cols: cols,
            avg_nz_row: avg,
            std_nz_row: avg * 0.1,
            distribution: RowDist::Normal,
            skew_coeff: 0.0,
            bw_scaled: bw,
            cross_row_sim: crs,
            avg_num_neigh: neigh,
            seed: 99,
        }
        .generate()
        .unwrap()
    }

    fn inputs(
        m: &spmv_core::CsrMatrix,
        bw: f64,
        neigh: f64,
        crs: f64,
        cache: usize,
    ) -> LocalityInputs {
        let f = spmv_core::FeatureSet::extract(m);
        LocalityInputs {
            rows: m.rows(),
            cols: m.cols(),
            avg_nnz_per_row: f.avg_nnz_per_row,
            bw_scaled: bw,
            avg_num_neigh: neigh,
            cross_row_sim: crs,
            cache_bytes: cache,
            line_bytes: 64,
        }
    }

    #[test]
    fn tracks_simulator_within_tolerance_over_feature_grid() {
        let cols = 200_000; // x = 1.6 MB
        let cache = 256 * 1024; // 256 KB: x does not fit
        let mut worst: f64 = 0.0;
        for &neigh in &[0.05, 0.95, 1.9] {
            for &crs in &[0.05, 0.5, 0.95] {
                for &bw in &[0.05, 0.6] {
                    let m = gen(cols, 10.0, bw, neigh, crs);
                    let sim = simulate_x_hit_rate(&m, cache, 8, 64);
                    let ana = analytic_x_hit_rate(&inputs(&m, bw, neigh, crs, cache));
                    let err = (sim - ana).abs();
                    worst = worst.max(err);
                    // This grid deliberately uses an extreme 4000 x
                    // 200 000 aspect ratio (~1.6 touches per x line),
                    // the hardest regime for the touches model; square
                    // campaign-shaped matrices track within 0.02 (see
                    // `figures memsim_validation`, which asserts 0.05
                    // over 81 lattice corners).
                    assert!(
                        err < 0.15,
                        "neigh={neigh} crs={crs} bw={bw}: sim {sim:.3} vs analytic {ana:.3}"
                    );
                }
            }
        }
        // The model must be genuinely informative, not just bounded.
        assert!(worst < 0.15, "worst error {worst}");
    }

    #[test]
    fn predicts_residency_effect() {
        // Same structure, two caches: x fits in the big one.
        let m = gen(50_000, 10.0, 0.6, 0.05, 0.05); // x = 400 KB
        let small = analytic_x_hit_rate(&inputs(&m, 0.6, 0.05, 0.05, 64 * 1024));
        let big = analytic_x_hit_rate(&inputs(&m, 0.6, 0.05, 0.05, 8 * 1024 * 1024));
        assert!(big > small + 0.3, "big {big} vs small {small}");
        let sim_big = simulate_x_hit_rate(&m, 8 * 1024 * 1024, 8, 64);
        assert!((big - sim_big).abs() < 0.2, "analytic {big} vs sim {sim_big}");
    }

    #[test]
    fn monotone_in_each_regularity_feature() {
        let base = LocalityInputs {
            rows: 100_000,
            cols: 1_000_000,
            avg_nnz_per_row: 10.0,
            bw_scaled: 0.5,
            avg_num_neigh: 0.1,
            cross_row_sim: 0.1,
            cache_bytes: 1 << 20,
            line_bytes: 64,
        };
        let h0 = analytic_x_hit_rate(&base);
        let h_neigh = analytic_x_hit_rate(&LocalityInputs { avg_num_neigh: 1.9, ..base });
        let h_crs = analytic_x_hit_rate(&LocalityInputs { cross_row_sim: 0.95, ..base });
        let h_band = analytic_x_hit_rate(&LocalityInputs { bw_scaled: 0.01, ..base });
        let h_cache = analytic_x_hit_rate(&LocalityInputs { cache_bytes: 1 << 28, ..base });
        assert!(h_neigh > h0, "neighbors should raise hit rate");
        assert!(h_crs > h0, "cross-row similarity should raise hit rate");
        assert!(h_band > h0, "narrower band should raise hit rate");
        assert!(h_cache > h0, "bigger cache should raise hit rate");
    }

    #[test]
    fn degenerate_inputs() {
        let z = LocalityInputs {
            rows: 0,
            cols: 0,
            avg_nnz_per_row: 0.0,
            bw_scaled: 0.0,
            avg_num_neigh: 0.0,
            cross_row_sim: 0.0,
            cache_bytes: 0,
            line_bytes: 64,
        };
        assert_eq!(analytic_x_hit_rate(&z), 0.0);
        let full = LocalityInputs {
            rows: 100,
            cols: 100,
            avg_nnz_per_row: 5.0,
            bw_scaled: 1.0,
            avg_num_neigh: 2.0,
            cross_row_sim: 1.0,
            cache_bytes: 1 << 30,
            line_bytes: 64,
        };
        let h = analytic_x_hit_rate(&full);
        assert!((0.0..=1.0).contains(&h));
        assert!(h > 0.9);
    }
}
