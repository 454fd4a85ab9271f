//! BCSR — blocked CSR (§VI): the matrix is tiled into dense `b × b`
//! blocks and only nonempty blocks are stored, CSR-style, one column
//! index per *block* instead of per element. The cuSPARSE
//! state-of-practice blocked format the paper's related work names:
//! on matrices with clustered nonzeros (FEM-style, high
//! `avg_num_neigh`) it amortizes index metadata over `b²` elements and
//! enables register-blocked kernels; on scattered matrices the blocks
//! fill poorly and the explicit zeros cost more than CSR saves.
//!
//! The converter auto-selects `b` from a small candidate set by total
//! stored bytes (like OSKI-style autotuners), or takes it explicitly.
//! A figure-set format (see
//! [`FormatKind::SERVING`](crate::FormatKind::SERVING)).

use crate::traits::{FormatBuildError, SparseFormat};
use spmv_core::CsrMatrix;
use std::collections::BTreeSet;

/// Block sizes the auto-tuner considers.
pub const CANDIDATE_BLOCK_SIZES: [usize; 3] = [2, 4, 8];

/// Maximum `stored entries / nnz` before conversion refuses (scattered
/// matrices should fall back to CSR rather than store mostly zeros).
pub const DEFAULT_MAX_FILL_RATIO: f64 = 16.0;

/// Blocked CSR storage.
pub struct BcsrFormat {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// Edge length of the square blocks.
    block: usize,
    /// Number of block rows (`ceil(rows / block)`).
    block_rows: usize,
    /// CSR-style pointer over block rows.
    block_ptr: Vec<usize>,
    /// Block-column index (`block_col · block` = first matrix column).
    block_col: Vec<u32>,
    /// Dense `block²` values per stored block, row-major within the
    /// block; absent elements are explicit zeros.
    values: Vec<f64>,
}

impl BcsrFormat {
    /// Converts from CSR, auto-selecting the block size that minimizes
    /// stored bytes over [`CANDIDATE_BLOCK_SIZES`].
    pub fn from_csr(csr: &CsrMatrix) -> Result<Self, FormatBuildError> {
        let mut best: Option<(usize, usize)> = None; // (bytes, b)
        for &b in &CANDIDATE_BLOCK_SIZES {
            let blocks = count_blocks(csr, b);
            let bytes = blocks * (b * b * 8 + 4) + (csr.rows().div_ceil(b) + 1) * 8;
            if best.map(|(by, _)| bytes < by).unwrap_or(true) {
                best = Some((bytes, b));
            }
        }
        Self::from_csr_with_block(csr, best.expect("candidate set non-empty").1)
    }

    /// Converts from CSR with an explicit block size, refusing when the
    /// stored (padded) entries exceed [`DEFAULT_MAX_FILL_RATIO`]·nnz.
    pub fn from_csr_with_block(csr: &CsrMatrix, block: usize) -> Result<Self, FormatBuildError> {
        if block == 0 {
            return Err(FormatBuildError::Unsupported("block size 0".into()));
        }
        let rows = csr.rows();
        let cols = csr.cols();
        let nnz = csr.nnz();
        let block_rows = rows.div_ceil(block);

        let blocks = count_blocks(csr, block);
        let stored = blocks * block * block;
        if nnz > 0 && stored as f64 > DEFAULT_MAX_FILL_RATIO * nnz as f64 {
            return Err(FormatBuildError::PaddingOverflow {
                needed_bytes: stored * 8,
                limit_bytes: (DEFAULT_MAX_FILL_RATIO * nnz as f64) as usize * 8,
                format: "BCSR",
            });
        }

        // Build per block row: collect the sorted set of block columns,
        // then scatter the elements into their dense blocks.
        let mut block_ptr = Vec::with_capacity(block_rows + 1);
        block_ptr.push(0usize);
        let mut block_col: Vec<u32> = Vec::with_capacity(blocks);
        let mut values: Vec<f64> = Vec::with_capacity(stored);
        for br in 0..block_rows {
            let r_lo = br * block;
            let r_hi = (r_lo + block).min(rows);
            let mut cols_here: BTreeSet<u32> = BTreeSet::new();
            for r in r_lo..r_hi {
                for &c in csr.row(r).0 {
                    cols_here.insert(c / block as u32);
                }
            }
            let base_block = block_col.len();
            block_col.extend(cols_here.iter().copied());
            values.resize(block_col.len() * block * block, 0.0);
            for r in r_lo..r_hi {
                let (cs, vs) = csr.row(r);
                for (&c, &v) in cs.iter().zip(vs) {
                    let bc = c / block as u32;
                    // Position of this block within the block row.
                    let k = base_block + block_col[base_block..].partition_point(|&x| x < bc);
                    let within = (r - r_lo) * block + (c as usize - bc as usize * block);
                    values[k * block * block + within] = v;
                }
            }
            block_ptr.push(block_col.len());
        }

        Ok(Self { rows, cols, nnz, block, block_rows, block_ptr, block_col, values })
    }

    /// Edge length of the blocks.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Number of stored blocks.
    pub fn blocks(&self) -> usize {
        self.block_col.len()
    }

    /// Fraction of stored block entries that are actual nonzeros.
    pub fn fill(&self) -> f64 {
        if self.values.is_empty() {
            1.0
        } else {
            self.nnz as f64 / self.values.len() as f64
        }
    }
}

impl SparseFormat for BcsrFormat {
    fn name(&self) -> &'static str {
        "BCSR"
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn bytes(&self) -> usize {
        self.values.len() * 8 + self.block_col.len() * 4 + (self.block_ptr.len()) * 8
    }

    fn padding_ratio(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.values.len() as f64 / self.nnz as f64
        }
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        let b = self.block;
        let mut acc = vec![0.0f64; b];
        for br in 0..self.block_rows {
            acc.iter_mut().for_each(|a| *a = 0.0);
            for k in self.block_ptr[br]..self.block_ptr[br + 1] {
                let c0 = self.block_col[k] as usize * b;
                let vals = &self.values[k * b * b..(k + 1) * b * b];
                let width = b.min(self.cols.saturating_sub(c0));
                for (i, a) in acc.iter_mut().enumerate() {
                    let row_vals = &vals[i * b..i * b + width];
                    let xs = &x[c0..c0 + width];
                    let mut s = 0.0;
                    for (v, xv) in row_vals.iter().zip(xs) {
                        s += v * xv;
                    }
                    *a += s;
                }
            }
            let r0 = br * b;
            for (i, &a) in acc.iter().enumerate().take(self.rows.saturating_sub(r0).min(b)) {
                y[r0 + i] = a;
            }
        }
    }
}

/// Counts the nonempty `b × b` blocks of a CSR matrix.
fn count_blocks(csr: &CsrMatrix, b: usize) -> usize {
    let mut total = 0usize;
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    let block_rows = csr.rows().div_ceil(b);
    for br in 0..block_rows {
        seen.clear();
        for r in br * b..((br + 1) * b).min(csr.rows()) {
            for &c in csr.row(r).0 {
                seen.insert(c / b as u32);
            }
        }
        total += seen.len();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::DenseMatrix;

    /// Clustered 4x4-ish blocks along the diagonal plus one stray.
    fn blocked_matrix() -> CsrMatrix {
        let n = 23usize; // deliberately not a multiple of any block size
        let mut t = Vec::new();
        for blk in 0..5usize {
            let base = blk * 4;
            for i in 0..4usize {
                for j in 0..4usize {
                    let (r, c) = (base + i, base + j);
                    if r < n && c < n {
                        t.push((r, c, (r + 2 * c) as f64 * 0.1 - 1.0));
                    }
                }
            }
        }
        t.push((22, 1, 9.0));
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn matches_dense() {
        let m = blocked_matrix();
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.7).sin() + 0.2).collect();
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        for b in [1usize, 2, 3, 4, 8] {
            let f = BcsrFormat::from_csr_with_block(&m, b).unwrap();
            let got = f.spmv_alloc(&x);
            for (a, w) in got.iter().zip(&want) {
                assert!((a - w).abs() < 1e-12, "block {b}");
            }
        }
    }

    #[test]
    fn autotuner_prefers_the_natural_block_size() {
        let m = blocked_matrix();
        let f = BcsrFormat::from_csr(&m).unwrap();
        assert_eq!(f.block_size(), 4, "diagonal 4x4 clusters should pick b=4");
        assert!(f.fill() > 0.6, "fill {}", f.fill());
    }

    #[test]
    fn scattered_matrix_fills_poorly_or_refuses() {
        let n = 200usize;
        let t: Vec<(usize, usize, f64)> = (0..n).map(|r| (r, (r * 37 + 5) % n, 1.0)).collect();
        let m = CsrMatrix::from_triplets(n, n, &t).unwrap();
        match BcsrFormat::from_csr_with_block(&m, 8) {
            // 1 nnz per 64-entry block = fill 1/64 -> refused.
            Err(FormatBuildError::PaddingOverflow { format: "BCSR", .. }) => {}
            Ok(f) => panic!("expected refusal, got fill {}", f.fill()),
            Err(e) => panic!("unexpected error {e}"),
        }
        // b=2 stores 4x the nnz: allowed but poor.
        let f = BcsrFormat::from_csr_with_block(&m, 2).unwrap();
        assert!(f.fill() <= 0.25 + 1e-12);
    }

    #[test]
    fn bytes_accounting() {
        let m = blocked_matrix();
        let f = BcsrFormat::from_csr_with_block(&m, 4).unwrap();
        assert_eq!(
            f.bytes(),
            f.blocks() * 16 * 8 + f.blocks() * 4 + (m.rows().div_ceil(4) + 1) * 8
        );
    }

    #[test]
    fn empty_matrix_and_block_one_degenerates_to_csr_payload() {
        let z = CsrMatrix::zeros(6, 6);
        let f = BcsrFormat::from_csr(&z).unwrap();
        assert_eq!(f.spmv_alloc(&[1.0; 6]), vec![0.0; 6]);
        let m = blocked_matrix();
        let f1 = BcsrFormat::from_csr_with_block(&m, 1).unwrap();
        assert_eq!(f1.blocks(), m.nnz());
        assert!((f1.padding_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_zero_block() {
        let m = blocked_matrix();
        assert!(BcsrFormat::from_csr_with_block(&m, 0).is_err());
    }
}
