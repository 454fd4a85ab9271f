//! The three CSR SpMV implementations of the paper's CPU testbeds
//! (Fig. 7): **Naive-CSR** (static row chunks, pinned to the scalar
//! lane kernel — it *is* the baseline), **Vectorized-CSR** (static row
//! chunks with the lane-unrolled gather-dot kernel, standing in for
//! the AVX2 kernels of the paper), and **Balanced-CSR** (nnz-balanced
//! row chunks — "adds nonzero balancing (row resolution)" — on the
//! same lane kernel).
//!
//! All inner loops live in [`crate::kernels::dot`] (SpMV) and
//! [`crate::kernels::panel`] (SpMM); this file only holds storage,
//! scheduling and the lane-width policy per variant.

use crate::kernels::{dot, panel, LaneProfile, LaneWidth};
use crate::traits::SparseFormat;
use crate::wire::{self, SectionReader, SectionWriter, WireError};
use spmv_core::CsrMatrix;
use spmv_parallel::{DisjointWriter, Executor, Schedule, ThreadPool};

/// Decodes a CSR wire payload (the variant comes from the wire tag,
/// not the payload; the lane width from the decoding process's
/// profile).
pub(crate) fn decode(
    r: &mut SectionReader<'_>,
    variant: CsrVariant,
) -> Result<CsrFormat, WireError> {
    Ok(CsrFormat::new(wire::decode_csr(r)?, variant))
}

/// Which CSR kernel variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrVariant {
    /// Scalar loop, static row partition.
    Naive,
    /// Lane-unrolled inner loop with independent accumulators (ILP),
    /// static row partition.
    Vectorized,
    /// Lane-unrolled loop, nnz-balanced row partition.
    Balanced,
}

/// CSR storage plus a kernel-variant tag and resolved lane width.
pub struct CsrFormat {
    matrix: CsrMatrix,
    variant: CsrVariant,
    lanes: LaneWidth,
}

impl CsrFormat {
    /// Wraps a CSR matrix with the chosen kernel variant, resolving
    /// lanes from the process-wide [`LaneProfile::current`].
    pub fn new(matrix: CsrMatrix, variant: CsrVariant) -> Self {
        Self::with_profile(matrix, variant, LaneProfile::current())
    }

    /// Wraps a CSR matrix with an explicit lane profile. Naive-CSR is
    /// pinned to W = 1 regardless of the profile — it is the scalar
    /// baseline the other kernels are measured against.
    pub fn with_profile(matrix: CsrMatrix, variant: CsrVariant, profile: LaneProfile) -> Self {
        let lanes = match variant {
            CsrVariant::Naive => LaneWidth::W1,
            _ => profile.width,
        };
        Self { matrix, variant, lanes }
    }

    /// Borrow of the underlying CSR matrix.
    pub fn csr(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The lane width this instance dispatches to.
    pub fn lanes(&self) -> LaneWidth {
        self.lanes
    }

    fn spmv_rows(&self, rows: std::ops::Range<usize>, x: &[f64], out: &DisjointWriter<'_>) {
        dot::csr_spmv_rows(
            self.lanes,
            rows,
            self.matrix.row_ptr(),
            self.matrix.col_idx(),
            self.matrix.values(),
            x,
            out,
        );
    }
}

impl SparseFormat for CsrFormat {
    fn name(&self) -> &'static str {
        match self.variant {
            CsrVariant::Naive => "Naive-CSR",
            CsrVariant::Vectorized => "Vectorized-CSR",
            CsrVariant::Balanced => "Balanced-CSR",
        }
    }

    fn rows(&self) -> usize {
        self.matrix.rows()
    }

    fn cols(&self) -> usize {
        self.matrix.cols()
    }

    fn nnz(&self) -> usize {
        self.matrix.nnz()
    }

    fn bytes(&self) -> usize {
        self.matrix.mem_footprint_bytes()
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols());
        assert_eq!(y.len(), self.rows());
        let out = DisjointWriter::new(y);
        self.spmv_rows(0..self.rows(), x, &out);
    }

    fn spmv_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols());
        assert_eq!(y.len(), self.rows());
        let schedule = match self.variant {
            CsrVariant::Balanced => Schedule::Balanced { prefix: self.matrix.row_ptr() },
            _ => Schedule::Static { items: self.rows() },
        };
        Executor::new(pool).run_disjoint(schedule, y, |range, out| self.spmv_rows(range, x, out));
    }

    fn spmv_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        assert_eq!(self.rows(), self.cols(), "spmv_dot requires a square matrix");
        assert_eq!(x.len(), self.cols());
        assert_eq!(y.len(), self.rows());
        let out = DisjointWriter::new(y);
        dot::csr_spmv_dot_rows(
            self.lanes,
            0..self.rows(),
            self.matrix.row_ptr(),
            self.matrix.col_idx(),
            self.matrix.values(),
            x,
            &out,
        )
    }

    fn spmv_dot_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) -> f64 {
        assert_eq!(self.rows(), self.cols(), "spmv_dot requires a square matrix");
        assert_eq!(x.len(), self.cols());
        assert_eq!(y.len(), self.rows());
        let schedule = match self.variant {
            CsrVariant::Balanced => Schedule::Balanced { prefix: self.matrix.row_ptr() },
            _ => Schedule::Static { items: self.rows() },
        };
        Executor::new(pool).run_disjoint_reduce(schedule, y, |range, out| {
            dot::csr_spmv_dot_rows(
                self.lanes,
                range,
                self.matrix.row_ptr(),
                self.matrix.col_idx(),
                self.matrix.values(),
                x,
                out,
            )
        })
    }

    fn encode_payload(&self, out: &mut SectionWriter) {
        wire::encode_csr(&self.matrix, out);
    }

    fn spmm(&self, x: &[f64], k: usize, y: &mut [f64]) {
        panel::csr_spmm(self.lanes, &self.matrix, x, k, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::DenseMatrix;

    fn test_matrix() -> CsrMatrix {
        // Mix of long, short and empty rows.
        let mut t = Vec::new();
        for c in 0..40 {
            t.push((0usize, c as usize, (c as f64) * 0.5 - 3.0));
        }
        t.push((2, 5, 2.0));
        t.push((2, 6, -1.0));
        t.push((4, 0, 1.0));
        t.push((4, 39, -2.0));
        CsrMatrix::from_triplets(5, 40, &t).unwrap()
    }

    fn x_for(m: &CsrMatrix) -> Vec<f64> {
        (0..m.cols()).map(|i| (i as f64 * 0.37).sin()).collect()
    }

    #[test]
    fn all_variants_match_dense_at_every_width() {
        let m = test_matrix();
        let d = DenseMatrix::from_csr(&m);
        let x = x_for(&m);
        let want = d.spmv(&x);
        for variant in [CsrVariant::Naive, CsrVariant::Vectorized, CsrVariant::Balanced] {
            for width in LaneWidth::ALL {
                let f = CsrFormat::with_profile(m.clone(), variant, LaneProfile::with_width(width));
                let got = f.spmv_alloc(&x);
                for (a, b) in got.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-12, "{variant:?} {width:?}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn naive_is_pinned_to_scalar_lanes() {
        let m = test_matrix();
        let wide = LaneProfile::with_width(LaneWidth::W8);
        assert_eq!(
            CsrFormat::with_profile(m.clone(), CsrVariant::Naive, wide).lanes(),
            LaneWidth::W1
        );
        assert_eq!(CsrFormat::with_profile(m, CsrVariant::Vectorized, wide).lanes(), LaneWidth::W8);
    }

    #[test]
    fn parallel_matches_sequential() {
        let m = test_matrix();
        let x = x_for(&m);
        let pool = ThreadPool::new(4);
        for variant in [CsrVariant::Naive, CsrVariant::Vectorized, CsrVariant::Balanced] {
            let f = CsrFormat::new(m.clone(), variant);
            let seq = f.spmv_alloc(&x);
            let mut par = vec![f64::NAN; m.rows()];
            f.spmv_parallel(&pool, &x, &mut par);
            // Row sums are per-row deterministic, so parallel equals
            // sequential bit-for-bit at a fixed profile.
            assert_eq!(par, seq, "{variant:?}");
        }
    }

    #[test]
    fn names_and_metadata() {
        let m = test_matrix();
        let f = CsrFormat::new(m.clone(), CsrVariant::Naive);
        assert_eq!(f.name(), "Naive-CSR");
        assert_eq!(f.nnz(), m.nnz());
        assert_eq!(f.bytes(), m.mem_footprint_bytes());
        assert_eq!(f.padding_ratio(), 1.0);
        assert_eq!(CsrFormat::new(m.clone(), CsrVariant::Balanced).name(), "Balanced-CSR");
        assert_eq!(CsrFormat::new(m, CsrVariant::Vectorized).name(), "Vectorized-CSR");
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::zeros(3, 3);
        let f = CsrFormat::new(m, CsrVariant::Naive);
        let pool = ThreadPool::new(2);
        let mut y = vec![1.0; 3];
        f.spmv_parallel(&pool, &[0.0; 3], &mut y);
        assert_eq!(y, vec![0.0; 3]);
    }

    #[test]
    fn spmm_matches_k_independent_spmvs() {
        let m = test_matrix();
        let (rows, cols) = (m.rows(), m.cols());
        for variant in [CsrVariant::Naive, CsrVariant::Vectorized, CsrVariant::Balanced] {
            for width in LaneWidth::ALL {
                let f = CsrFormat::with_profile(m.clone(), variant, LaneProfile::with_width(width));
                for k in [0usize, 1, 3, 8] {
                    let x: Vec<f64> = (0..cols * k).map(|i| (i as f64 * 0.041).sin()).collect();
                    let got = f.spmm_alloc(&x, k);
                    for j in 0..k {
                        let want = f.spmv_alloc(&x[j * cols..(j + 1) * cols]);
                        // Fused SpMM shares the kernel's accumulation
                        // order with SpMV, so agreement is exact.
                        assert_eq!(
                            &got[j * rows..(j + 1) * rows],
                            &want[..],
                            "{variant:?} {width:?} k={k} col {j}"
                        );
                    }
                }
            }
        }
    }
}
