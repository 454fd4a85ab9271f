//! COO SpMV (§II-B.1): one row index per nonzero — the redundant row
//! metadata that buys cuSPARSE's COO algorithm its trivial balance
//! (equal nonzero chunks per worker). A figure-set format (see
//! [`FormatKind::SERVING`](crate::FormatKind::SERVING)): the GPU
//! profiles' figures need its conversion, a sequential `spmv` and its
//! footprint; the engine never serves it.

use crate::traits::SparseFormat;
use spmv_core::{CooMatrix, CsrMatrix};

/// COO storage (row-major sorted triplets).
pub struct CooFormat {
    coo: CooMatrix,
}

impl CooFormat {
    /// Converts from CSR.
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        Self { coo: CooMatrix::from_csr(csr) }
    }

    /// Borrow of the underlying triplet storage.
    pub fn coo(&self) -> &CooMatrix {
        &self.coo
    }
}

impl SparseFormat for CooFormat {
    fn name(&self) -> &'static str {
        "COO"
    }

    fn rows(&self) -> usize {
        self.coo.rows()
    }

    fn cols(&self) -> usize {
        self.coo.cols()
    }

    fn nnz(&self) -> usize {
        self.coo.nnz()
    }

    fn bytes(&self) -> usize {
        self.coo.mem_footprint_bytes()
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols());
        assert_eq!(y.len(), self.rows());
        y.fill(0.0);
        let (ri, ci, v) = (self.coo.row_idx(), self.coo.col_idx(), self.coo.values());
        for i in 0..self.nnz() {
            y[ri[i] as usize] += v[i] * x[ci[i] as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::DenseMatrix;

    fn skewed_matrix() -> CsrMatrix {
        // Row 0 holds most of the mass.
        let mut t: Vec<(usize, usize, f64)> =
            (0..500).map(|c| (0usize, c, 0.01 * c as f64 - 1.0)).collect();
        t.push((3, 2, 4.0));
        t.push((7, 600, -3.0));
        t.push((7, 601, 5.0));
        CsrMatrix::from_triplets(8, 700, &t).unwrap()
    }

    #[test]
    fn sequential_matches_dense() {
        let m = skewed_matrix();
        let x: Vec<f64> = (0..m.cols()).map(|i| ((i % 13) as f64) - 6.0).collect();
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        let got = CooFormat::from_csr(&m).spmv_alloc(&x);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn bytes_account_for_duplicated_row_indices() {
        let m = skewed_matrix();
        let f = CooFormat::from_csr(&m);
        assert_eq!(f.bytes(), 16 * m.nnz());
        assert_eq!(f.name(), "COO");
    }
}
