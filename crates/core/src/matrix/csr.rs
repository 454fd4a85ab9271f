//! Compressed Sparse Row (CSR) matrix — the canonical container of the
//! study. Every other format converts *from* CSR, exactly as the paper's
//! generator "returns the artificial matrix data in the CSR storage
//! format, which we then convert to whichever format is being tested"
//! (§III-B).

use crate::error::SparseError;
use crate::{INDEX_BYTES, VALUE_BYTES};
use std::sync::Arc;

/// A sparse matrix in Compressed Sparse Row format.
///
/// Invariants (checked by [`CsrMatrix::validate`], guaranteed by all
/// constructors):
///
/// * `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[rows] == nnz`, and `row_ptr` is non-decreasing;
/// * `col_idx.len() == values.len() == nnz`;
/// * within each row, column indices are strictly increasing (sorted,
///   no duplicates) and `< cols`.
///
/// The three arrays are shared immutable buffers: constructors wrap the
/// caller's `Vec`s without copying, `clone()` is three reference-count
/// bumps, and [`CsrMatrix::values_mut`] copies the values first if any
/// clone still shares them. Whoever keeps a CSR operand — a format, a
/// background flight — keeps a clone.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Arc<Vec<usize>>,
    col_idx: Arc<Vec<u32>>,
    values: Arc<Vec<f64>>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw arrays, validating all invariants.
    pub fn new(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        let m = Self::wrap(rows, cols, row_ptr, col_idx, values);
        m.validate()?;
        Ok(m)
    }

    /// Builds a CSR matrix from raw arrays **without** validation.
    ///
    /// This is not `unsafe` in the memory-safety sense (all kernels use
    /// checked indexing), but violating the CSR invariants produces
    /// nonsensical results. Intended for trusted producers such as the
    /// artificial matrix generator, which constructs rows sorted by
    /// design; debug builds still validate.
    pub fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        let m = Self::wrap(rows, cols, row_ptr, col_idx, values);
        debug_assert!(m.validate().is_ok(), "invalid CSR from trusted producer");
        m
    }

    /// Takes ownership of the arrays as they are (`Arc<Vec<_>>` keeps
    /// the caller's allocations; `Arc<[T]>::from` would copy them).
    fn wrap(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        Self {
            rows,
            cols,
            row_ptr: Arc::new(row_ptr),
            col_idx: Arc::new(col_idx),
            values: Arc::new(values),
        }
    }

    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Triplets may arrive in any order; duplicates are summed, as is
    /// conventional for COO-to-CSR assembly.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, SparseError> {
        for &(r, c, _) in triplets {
            if r >= rows || c >= cols {
                return Err(SparseError::OutOfBounds { row: r, col: c, rows, cols });
            }
        }
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|a| (a.0, a.1));

        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        for &(r, c, v) in &sorted {
            if let (Some(&last_c), true) = (col_idx.last(), row_ptr[r + 1] > row_ptr[r]) {
                // Same row as the previous entry and same column: merge.
                if row_ptr[r + 1] == col_idx.len() && last_c == c as u32 {
                    *values.last_mut().expect("values nonempty when col_idx nonempty") += v;
                    continue;
                }
            }
            col_idx.push(c as u32);
            values.push(v);
            row_ptr[r + 1] = col_idx.len();
        }
        // Prefix-fill: rows that received no entries inherit the running
        // offset of the previous row.
        for r in 1..=rows {
            if row_ptr[r] < row_ptr[r - 1] {
                row_ptr[r] = row_ptr[r - 1];
            }
        }
        Self::new(rows, cols, row_ptr, col_idx, values)
    }

    /// Checks every CSR invariant, returning the first violation.
    pub fn validate(&self) -> Result<(), SparseError> {
        if self.row_ptr.len() != self.rows + 1 {
            return Err(SparseError::BadRowPtr(format!(
                "row_ptr.len() = {}, expected rows + 1 = {}",
                self.row_ptr.len(),
                self.rows + 1
            )));
        }
        if self.row_ptr[0] != 0 {
            return Err(SparseError::BadRowPtr("row_ptr[0] != 0".into()));
        }
        if *self.row_ptr.last().expect("non-empty row_ptr") != self.values.len() {
            return Err(SparseError::BadRowPtr(format!(
                "row_ptr[rows] = {} but nnz = {}",
                self.row_ptr.last().unwrap(),
                self.values.len()
            )));
        }
        if self.col_idx.len() != self.values.len() {
            return Err(SparseError::LengthMismatch(format!(
                "col_idx.len() = {} != values.len() = {}",
                self.col_idx.len(),
                self.values.len()
            )));
        }
        for r in 0..self.rows {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            if lo > hi {
                return Err(SparseError::BadRowPtr(format!("row_ptr decreases at row {r}")));
            }
            let mut prev: Option<u32> = None;
            for &c in &self.col_idx[lo..hi] {
                if c as usize >= self.cols {
                    return Err(SparseError::OutOfBounds {
                        row: r,
                        col: c as usize,
                        rows: self.rows,
                        cols: self.cols,
                    });
                }
                if let Some(p) = prev {
                    if c <= p {
                        return Err(SparseError::UnsortedRow { row: r });
                    }
                }
                prev = Some(c);
            }
        }
        Ok(())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row-pointer array (`rows + 1` entries).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array (`nnz` entries, `u32`).
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The value array (`nnz` entries).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the values (structure stays fixed). Copy on
    /// write: a matrix whose values a clone still shares gets its own
    /// copy first, so the clone never sees the edit.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        Arc::make_mut(&mut self.values).as_mut_slice()
    }

    /// The number of nonzeros in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// The `(col_idx, values)` slices of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Iterator over `(row, col, value)` triplets in row-major order.
    pub fn triplets(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Memory footprint in **bytes** under the paper's CSR accounting
    /// (feature *f1*): 8-byte values, 4-byte column indices, 4-byte row
    /// pointers — `8·nnz + 4·nnz + 4·(rows + 1)`.
    pub fn mem_footprint_bytes(&self) -> usize {
        (VALUE_BYTES + INDEX_BYTES) * self.nnz() + INDEX_BYTES * (self.rows + 1)
    }

    /// Memory footprint in MB (`2^20` bytes), the unit of Table I/III.
    pub fn mem_footprint_mb(&self) -> f64 {
        self.mem_footprint_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// Sequential double-precision SpMV: returns `y = A·x`.
    ///
    /// This is the reference kernel every storage format is tested
    /// against; it is also the "Naive-CSR" baseline of the paper when
    /// run through the parallel executor.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.spmv_into(x, &mut y);
        y
    }

    /// Sequential SpMV into a caller-provided output buffer.
    ///
    /// # Panics
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "x length must equal cols");
        assert_eq!(y.len(), self.rows, "y length must equal rows");
        let (row_ptr, col_idx, values) = (self.row_ptr(), self.col_idx(), self.values());
        #[allow(clippy::needless_range_loop)] // indexed kernel loops read clearest
        for r in 0..self.rows {
            let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
            let mut acc = 0.0;
            for k in lo..hi {
                acc += values[k] * x[col_idx[k] as usize];
            }
            y[r] = acc;
        }
    }

    /// Transposes the matrix (CSR of Aᵀ), used by the CSC conversion.
    pub fn transpose(&self) -> CsrMatrix {
        // Counting sort over columns.
        let mut counts = vec![0usize; self.cols + 1];
        for &c in self.col_idx() {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr_t = counts.clone();
        let mut col_idx_t = vec![0u32; self.nnz()];
        let mut values_t = vec![0.0f64; self.nnz()];
        let mut cursor = counts;
        let (row_ptr, col_idx, values) = (self.row_ptr(), self.col_idx(), self.values());
        for r in 0..self.rows {
            let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
            for k in lo..hi {
                let c = col_idx[k] as usize;
                let dst = cursor[c];
                col_idx_t[dst] = r as u32;
                values_t[dst] = values[k];
                cursor[c] += 1;
            }
        }
        // Row-major traversal writes strictly increasing row indices per
        // column, so the transposed rows are sorted by construction.
        CsrMatrix::from_parts_unchecked(self.cols, self.rows, row_ptr_t, col_idx_t, values_t)
    }

    /// An empty `rows × cols` matrix (no nonzeros).
    pub fn zeros(rows: usize, cols: usize) -> CsrMatrix {
        CsrMatrix::wrap(rows, cols, vec![0; rows + 1], Vec::new(), Vec::new())
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> CsrMatrix {
        CsrMatrix::wrap(n, n, (0..=n).collect(), (0..n as u32).collect(), vec![1.0; n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
            .unwrap()
    }

    #[test]
    fn from_triplets_sorts_and_builds() {
        let m = small();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_ptr(), &[0, 2, 2, 4]);
        assert_eq!(m.col_idx(), &[0, 2, 0, 1]);
        assert_eq!(m.values(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn from_triplets_merges_duplicates() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.values(), &[3.5, 1.0]);
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds() {
        let err = CsrMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]).unwrap_err();
        assert!(matches!(err, SparseError::OutOfBounds { col: 5, .. }));
    }

    #[test]
    fn spmv_matches_manual_computation() {
        let m = small();
        let y = m.spmv(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![1.0 + 6.0, 0.0, 3.0 + 8.0]);
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn spmv_panics_on_bad_x() {
        small().spmv(&[1.0]);
    }

    #[test]
    fn footprint_matches_paper_formula() {
        let m = small();
        assert_eq!(m.mem_footprint_bytes(), 12 * 4 + 4 * 4);
        // A ~1M-nnz matrix is ~12 MB, matching the paper's scale.
        let big_nnz = 1_000_000usize;
        let approx_mb = (12.0 * big_nnz as f64) / (1024.0 * 1024.0);
        assert!((approx_mb - 11.44).abs() < 0.1);
    }

    #[test]
    fn transpose_involution() {
        let m = small();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        let tt = t.transpose();
        assert_eq!(tt, m);
        // Check a specific transposed entry: A[2][1] = 4 -> T[1][2] = 4.
        let (cols, vals) = t.row(1);
        assert_eq!(cols, &[2]);
        assert_eq!(vals, &[4.0]);
    }

    #[test]
    fn transpose_spmv_consistency() {
        let m = small();
        // (A^T x)_j = sum_i A[i][j] x_i
        let x = [2.0, 5.0, 7.0];
        let yt = m.transpose().spmv(&x);
        assert_eq!(yt, vec![2.0 + 21.0, 28.0, 4.0]);
    }

    #[test]
    fn validate_catches_unsorted_rows() {
        let m = CsrMatrix::wrap(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
        assert!(matches!(m.validate(), Err(SparseError::UnsortedRow { row: 0 })));
    }

    #[test]
    fn validate_catches_duplicate_columns() {
        let m = CsrMatrix::wrap(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]);
        assert!(matches!(m.validate(), Err(SparseError::UnsortedRow { row: 0 })));
    }

    #[test]
    fn validate_catches_bad_row_ptr() {
        let m = CsrMatrix::wrap(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(matches!(m.validate(), Err(SparseError::BadRowPtr(_))));
    }

    #[test]
    fn zeros_and_identity() {
        let z = CsrMatrix::zeros(4, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.spmv(&[1.0; 5]), vec![0.0; 4]);
        let i = CsrMatrix::identity(3);
        assert_eq!(i.spmv(&[4.0, 5.0, 6.0]), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn empty_matrix_edge_cases() {
        let m = CsrMatrix::zeros(0, 0);
        assert_eq!(m.spmv(&[]), Vec::<f64>::new());
        assert!(m.validate().is_ok());
        let m = CsrMatrix::zeros(0, 7);
        assert_eq!(m.spmv(&[0.0; 7]), Vec::<f64>::new());
    }

    #[test]
    fn triplets_iterator_round_trips() {
        let m = small();
        let t: Vec<_> = m.triplets().collect();
        let m2 = CsrMatrix::from_triplets(3, 3, &t).unwrap();
        assert_eq!(m, m2);
    }

    fn array_ptrs(m: &CsrMatrix) -> (*const usize, *const u32, *const f64) {
        (m.row_ptr().as_ptr(), m.col_idx().as_ptr(), m.values().as_ptr())
    }

    #[test]
    fn clone_shares_all_three_arrays() {
        let a = small();
        let b = a.clone();
        assert_eq!(array_ptrs(&a), array_ptrs(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn constructors_keep_the_callers_buffers() {
        let (row_ptr, col_idx, values) = (vec![0usize, 2, 2, 4], vec![0u32, 2, 0, 1], vec![1.0; 4]);
        let before = (row_ptr.as_ptr(), col_idx.as_ptr(), values.as_ptr());
        let m = CsrMatrix::from_parts_unchecked(3, 3, row_ptr, col_idx, values);
        assert_eq!(array_ptrs(&m), before);

        let (row_ptr, col_idx, values) = (vec![0usize, 1], vec![0u32], vec![2.0]);
        let before = (row_ptr.as_ptr(), col_idx.as_ptr(), values.as_ptr());
        let m = CsrMatrix::new(1, 1, row_ptr, col_idx, values).unwrap();
        assert_eq!(array_ptrs(&m), before);
    }

    #[test]
    fn values_mut_on_a_clone_leaves_the_original_intact() {
        let a = small();
        let pristine = small();
        let mut b = a.clone();
        b.values_mut()[0] = -7.0;
        assert_eq!(a.values(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, pristine);
        assert_ne!(a, b);
        assert_eq!(b.values(), &[-7.0, 2.0, 3.0, 4.0]);
        // Only the values were copied; the structure is still shared.
        assert_ne!(a.values().as_ptr(), b.values().as_ptr());
        assert_eq!(a.row_ptr().as_ptr(), b.row_ptr().as_ptr());
        assert_eq!(a.col_idx().as_ptr(), b.col_idx().as_ptr());
    }

    #[test]
    fn values_mut_on_an_unshared_matrix_edits_in_place() {
        let mut m = small();
        let before = m.values().as_ptr();
        m.values_mut()[3] = 9.0;
        assert_eq!(m.values().as_ptr(), before);
        assert_eq!(m.values(), &[1.0, 2.0, 3.0, 9.0]);
    }
}
