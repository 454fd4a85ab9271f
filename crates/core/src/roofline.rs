//! Roofline performance model (Williams et al., CACM 2009), as used in
//! Fig. 1 of the paper to bound each validation matrix's performance.
//!
//! The paper draws two roofs per device: a **memory roof** using the
//! measured DRAM/HBM bandwidth and an **LLC roof** using the measured
//! last-level-cache bandwidth. SpMV performance for a matrix is bounded
//! by `BW × OI` where the operational intensity `OI` (flops per byte)
//! follows from the matrix's CSR footprint and the `x`/`y` vector
//! traffic.

use serde::{Deserialize, Serialize};

/// A roofline: peak compute rate plus a bandwidth roof.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Roofline {
    /// Peak double-precision compute throughput in GFLOP/s.
    pub peak_gflops: f64,
    /// Sustained memory bandwidth in GB/s.
    pub bandwidth_gbs: f64,
}

impl Roofline {
    /// Creates a roofline from peak GFLOP/s and bandwidth GB/s.
    pub fn new(peak_gflops: f64, bandwidth_gbs: f64) -> Self {
        Self { peak_gflops, bandwidth_gbs }
    }

    /// The attainable performance (GFLOP/s) at a given operational
    /// intensity (flops/byte): `min(peak, BW · OI)`.
    pub fn attainable_gflops(&self, oi_flops_per_byte: f64) -> f64 {
        (self.bandwidth_gbs * oi_flops_per_byte).min(self.peak_gflops)
    }

    /// The ridge point: the operational intensity above which the
    /// kernel is compute-bound.
    pub fn ridge_oi(&self) -> f64 {
        self.peak_gflops / self.bandwidth_gbs
    }
}

/// Operational intensity of CSR SpMV for a matrix with `nnz` nonzeros
/// and `rows`/`cols` dimensions, assuming the whole matrix streams from
/// the level behind the roof once, `x` is read `x_traffic_factor × 8 ×
/// cols` bytes, and `y` is written once.
///
/// `x_traffic_factor = 1.0` models perfect reuse of `x` (each element
/// fetched once); larger values model re-fetches due to cache misses.
/// Flops are `2·nnz` (one multiply + one add per nonzero).
pub fn csr_spmv_oi(rows: usize, cols: usize, nnz: usize, x_traffic_factor: f64) -> f64 {
    let matrix_bytes = (12 * nnz + 4 * (rows + 1)) as f64;
    let x_bytes = 8.0 * cols as f64 * x_traffic_factor;
    let y_bytes = 8.0 * rows as f64;
    let flops = 2.0 * nnz as f64;
    flops / (matrix_bytes + x_bytes + y_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attainable_caps_at_peak() {
        let r = Roofline::new(100.0, 50.0);
        assert_eq!(r.attainable_gflops(1.0), 50.0);
        assert_eq!(r.attainable_gflops(10.0), 100.0);
        assert_eq!(r.ridge_oi(), 2.0);
    }

    #[test]
    fn spmv_oi_is_below_one_sixth() {
        // SpMV flop:byte is famously < 1/6 for double precision CSR:
        // 2 flops over >= 12 bytes of matrix data alone.
        let oi = csr_spmv_oi(1_000_000, 1_000_000, 20_000_000, 1.0);
        assert!(oi < 2.0 / 12.0);
        assert!(oi > 0.0);
    }

    #[test]
    fn oi_decreases_with_x_refetch() {
        let base = csr_spmv_oi(1000, 1000, 10_000, 1.0);
        let refetch = csr_spmv_oi(1000, 1000, 10_000, 4.0);
        assert!(refetch < base);
    }

    #[test]
    fn short_rows_lower_oi() {
        // Same nnz, more rows => more row_ptr/y traffic => lower OI
        // (the paper's "low ILP" regime also has lower intensity).
        let long_rows = csr_spmv_oi(1_000, 1_000_000, 1_000_000, 1.0);
        let short_rows = csr_spmv_oi(500_000, 1_000_000, 1_000_000, 1.0);
        assert!(short_rows < long_rows);
    }
}
