//! DIA (diagonal) format (§VI): one dense lane per occupied diagonal,
//! indexed by its offset `col − row`. The format the paper's related
//! work lists for stencil-structured matrices: zero indexing metadata
//! per element and perfectly streamed x accesses along each diagonal,
//! but padding explodes as soon as nonzeros scatter off a small set of
//! diagonals — conversion therefore enforces a padding budget like
//! [`EllFormat`](crate::ell::EllFormat) does. A figure-set format
//! (see [`FormatKind::SERVING`](crate::FormatKind::SERVING)).

use crate::traits::{FormatBuildError, SparseFormat};
use spmv_core::CsrMatrix;
use spmv_parallel::DisjointWriter;
use std::collections::BTreeMap;

/// Default cap on `stored entries / nnz` before conversion refuses.
pub const DEFAULT_MAX_PADDING_RATIO: f64 = 16.0;

/// The in-bounds row span of diagonal `off` in a `rows × cols` matrix:
/// rows `r` with `0 ≤ r < rows` and `0 ≤ r + off < cols`, i.e.
/// `[max(0, −off), min(rows, cols − off))`. Lanes are sized to this
/// span — sizing them to `rows` overcounts rectangular matrices badly
/// (a 40×3 matrix would pad every lane to 40 entries for a ≤3-entry
/// diagonal, spuriously blowing the padding budget).
fn lane_span(rows: usize, cols: usize, off: i64) -> (usize, usize) {
    let lo = (-off).max(0) as usize;
    let hi = (cols as i64 - off).clamp(0, rows as i64) as usize;
    (lo, hi.max(lo))
}

/// Diagonal storage: one lane per occupied diagonal, sized to the
/// diagonal's true in-bounds span.
pub struct DiaFormat {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// Occupied diagonal offsets (`col − row`), ascending.
    offsets: Vec<i64>,
    /// One dense lane per offset covering the diagonal's in-bounds row
    /// span: entry `i` holds `A[lo+i][lo+i+offset]` where
    /// `lo = max(0, −offset)` (`0.0` where the diagonal has no
    /// nonzero).
    lanes: Vec<Vec<f64>>,
}

impl DiaFormat {
    /// Converts from CSR with the default padding budget.
    pub fn from_csr(csr: &CsrMatrix) -> Result<Self, FormatBuildError> {
        Self::from_csr_with_budget(csr, DEFAULT_MAX_PADDING_RATIO)
    }

    /// Converts from CSR, refusing if the stored span entries exceed
    /// `budget·nnz`.
    pub fn from_csr_with_budget(
        csr: &CsrMatrix,
        max_padding_ratio: f64,
    ) -> Result<Self, FormatBuildError> {
        let rows = csr.rows();
        let cols = csr.cols();
        let nnz = csr.nnz();

        // First pass: which diagonals are occupied?
        let mut occupied: BTreeMap<i64, usize> = BTreeMap::new();
        for (r, c, _) in csr.triplets() {
            *occupied.entry(c as i64 - r as i64).or_default() += 1;
        }
        let stored: usize = occupied
            .keys()
            .map(|&off| {
                let (lo, hi) = lane_span(rows, cols, off);
                hi - lo
            })
            .sum();
        if nnz > 0 && stored as f64 > max_padding_ratio * nnz as f64 {
            return Err(FormatBuildError::PaddingOverflow {
                needed_bytes: stored * 8,
                limit_bytes: (max_padding_ratio * nnz as f64) as usize * 8,
                format: "DIA",
            });
        }

        let offsets: Vec<i64> = occupied.keys().copied().collect();
        let index_of: BTreeMap<i64, usize> =
            offsets.iter().enumerate().map(|(i, &o)| (o, i)).collect();
        let mut lanes: Vec<Vec<f64>> = offsets
            .iter()
            .map(|&off| {
                let (lo, hi) = lane_span(rows, cols, off);
                vec![0.0f64; hi - lo]
            })
            .collect();
        for (r, c, v) in csr.triplets() {
            let off = c as i64 - r as i64;
            let d = index_of[&off];
            let (lo, _) = lane_span(rows, cols, off);
            lanes[d][r - lo] = v;
        }
        Ok(Self { rows, cols, nnz, offsets, lanes })
    }

    /// Number of stored diagonals.
    pub fn diagonals(&self) -> usize {
        self.offsets.len()
    }

    /// Stored entries across all lanes (the true span footprint).
    fn stored_entries(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }

    fn spmv_rows(&self, rows: std::ops::Range<usize>, x: &[f64], out: &DisjointWriter<'_>) {
        for r in rows.clone() {
            out.write(r, 0.0);
        }
        for (lane, &off) in self.lanes.iter().zip(&self.offsets) {
            // Intersect the requested row range with the lane's span.
            let (lane_lo, _) = lane_span(self.rows, self.cols, off);
            let lo = rows.start.max(lane_lo);
            let hi = rows.end.min(lane_lo + lane.len());
            if lo >= hi {
                continue;
            }
            for (i, &lv) in lane[lo - lane_lo..hi - lane_lo].iter().enumerate() {
                let r = lo + i;
                let c = (r as i64 + off) as usize;
                out.add(r, lv * x[c]);
            }
        }
    }
}

impl SparseFormat for DiaFormat {
    fn name(&self) -> &'static str {
        "DIA"
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
        self.stored_entries() * 8 + self.offsets.len() * 8
    }

    fn padding_ratio(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.stored_entries() as f64 / self.nnz as f64
        }
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        let out = DisjointWriter::new(y);
        self.spmv_rows(0..self.rows, x, &out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::DenseMatrix;
    use spmv_parallel::ThreadPool;

    /// Tridiagonal + one superdiagonal at +3: 4 diagonals.
    fn banded_matrix() -> CsrMatrix {
        let n = 24usize;
        let mut t = Vec::new();
        for r in 0..n {
            t.push((r, r, 2.0));
            if r > 0 {
                t.push((r, r - 1, -1.0));
            }
            if r + 1 < n {
                t.push((r, r + 1, -1.0));
            }
            if r + 3 < n {
                t.push((r, r + 3, 0.5));
            }
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn matches_dense_on_banded() {
        let m = banded_matrix();
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.2).cos()).collect();
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        let f = DiaFormat::from_csr(&m).unwrap();
        assert_eq!(f.diagonals(), 4);
        let got = f.spmv_alloc(&x);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn rectangular_offsets_stay_in_bounds() {
        // 4x8: the +5 diagonal exists for rows 0..3 only; the -2 one
        // for rows 2..4.
        let m = CsrMatrix::from_triplets(
            4,
            8,
            &[(0, 5, 1.0), (1, 6, 2.0), (2, 7, 3.0), (2, 0, 4.0), (3, 1, 5.0)],
        )
        .unwrap();
        let f = DiaFormat::from_csr(&m).unwrap();
        let x: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        assert_eq!(f.spmv_alloc(&x), want);
    }

    #[test]
    fn tall_matrix_negative_offset_stays_in_bounds() {
        // rows > cols with a negative offset: the right edge of the
        // matrix binds before the last row does (regression test for
        // an out-of-bounds x access found by the format proptests).
        let m = CsrMatrix::from_triplets(
            20,
            15,
            &[(2, 0, 1.0), (16, 14, 2.0), (17, 15 - 1, 3.0), (19, 4, 4.0)],
        )
        .unwrap();
        let f = DiaFormat::from_csr(&m).unwrap();
        let x: Vec<f64> = (0..15).map(|i| i as f64 + 1.0).collect();
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        assert_eq!(f.spmv_alloc(&x), want);
    }

    #[test]
    fn refuses_scattered_matrices() {
        // Every nonzero on its own diagonal: padding ratio = rows.
        let n = 64usize;
        let t: Vec<(usize, usize, f64)> = (0..n).map(|r| (r, (r * r + 3) % n, 1.0)).collect();
        let m = CsrMatrix::from_triplets(n, n, &t).unwrap();
        let err = DiaFormat::from_csr(&m).map(|_| ()).unwrap_err();
        assert!(matches!(err, FormatBuildError::PaddingOverflow { format: "DIA", .. }));
        assert!(DiaFormat::from_csr_with_budget(&m, 1e6).is_ok());
    }

    #[test]
    fn padding_and_bytes_accounting() {
        let m = banded_matrix();
        let f = DiaFormat::from_csr(&m).unwrap();
        // True spans in 24×24: off −1 → 23, off 0 → 24, off +1 → 23,
        // off +3 → 21 entries (not 4 · 24 = 96 full-height lanes).
        let stored = 23 + 24 + 23 + 21;
        assert_eq!(f.bytes(), stored * 8 + 4 * 8);
        assert!((f.padding_ratio() - stored as f64 / m.nnz() as f64).abs() < 1e-12);
    }

    #[test]
    fn tall_rectangular_matrix_builds_with_span_sized_lanes() {
        // Regression: a 40×3 matrix with 3 nnz on 3 diagonals used to
        // be refused (lanes were padded to 40 rows each: 960 B against
        // a 384 B budget). With span-sized lanes each diagonal stores
        // at most 3 entries.
        let m = CsrMatrix::from_triplets(40, 3, &[(0, 0, 1.0), (5, 0, 2.0), (39, 2, 3.0)]).unwrap();
        let f = DiaFormat::from_csr(&m).expect("span-sized DIA accepts tall matrices");
        assert_eq!(f.diagonals(), 3);
        // off 0 → span 3, off −5 → rows 5..8 → 3, off −37 → rows 37..40 → 3.
        assert_eq!(f.bytes(), 9 * 8 + 3 * 8);
        assert!((f.padding_ratio() - 3.0).abs() < 1e-12);
        let x = vec![1.0, 10.0, 100.0];
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        assert_eq!(f.spmv_alloc(&x), want);
        let pool = ThreadPool::new(8);
        let mut got = vec![f64::NAN; 40];
        f.spmv_parallel(&pool, &x, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn wide_rectangular_matrix_spans_clamp_to_columns() {
        // 3×40: positive offsets exist for a handful of rows only.
        let m =
            CsrMatrix::from_triplets(3, 40, &[(0, 30, 1.0), (1, 31, 2.0), (2, 0, 4.0)]).unwrap();
        let f = DiaFormat::from_csr(&m).unwrap();
        // off 30 → rows 0..3 (cols−30=10 ≥ rows) → 3; off −2 → rows 2..3 → 1.
        assert_eq!(f.bytes(), (3 + 1) * 8 + 2 * 8);
        let x: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        assert_eq!(f.spmv_alloc(&x), want);
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::zeros(5, 5);
        let f = DiaFormat::from_csr(&m).unwrap();
        assert_eq!(f.diagonals(), 0);
        assert_eq!(f.spmv_alloc(&[1.0; 5]), vec![0.0; 5]);
        assert_eq!(f.padding_ratio(), 1.0);
    }
}
