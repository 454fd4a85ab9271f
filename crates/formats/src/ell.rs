//! ELLPACK (§II-B.3): dense `rows × max_row_nnz` column/value arrays
//! with zero padding, stored column-major so vector units stream
//! aligned lanes. Excellent ILP on balanced matrices; the padding blows
//! up on skewed ones — conversions therefore enforce a configurable
//! padding budget and refuse pathological matrices, exactly like real
//! ELL users do.
//!
//! The storage is an `EllSlab`, shared with HYB's ELL half; the inner
//! loops live in [`crate::kernels::slab`], reached through the slab's
//! [`Slab`] view: one accumulator per row, so results are bit-identical
//! at every lane width (see the kernels module's determinism contract).

use crate::driver;
use crate::kernels::slab::Slab;
use crate::kernels::{panel, LaneProfile, LaneWidth};
use crate::traits::{FormatBuildError, SparseFormat};
use crate::wire::{SectionReader, SectionWriter, WireError};
use spmv_core::CsrMatrix;
use spmv_parallel::ThreadPool;

/// An owned column-major slab of `width` slots per row: entry `(r, j)`
/// lives at `j * rows + r`. Padding repeats the row's last real column
/// (column 0 in an empty row) at value 0.0.
pub(crate) struct EllSlab {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    /// Slots per row.
    pub(crate) width: usize,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    /// Lane width the kernels dispatch to.
    pub(crate) lanes: LaneWidth,
}

impl EllSlab {
    /// The first `width` nonzeros of every row of `csr`; the rest of a
    /// longer row goes to `spill(row, col, value)`, in row-major order.
    pub(crate) fn from_csr(
        csr: &CsrMatrix,
        width: usize,
        profile: LaneProfile,
        mut spill: impl FnMut(usize, u32, f64),
    ) -> Self {
        let rows = csr.rows();
        let stored = width.saturating_mul(rows);
        let mut col_idx = vec![0u32; stored];
        let mut values = vec![0.0f64; stored];
        for r in 0..rows {
            let (cs, vs) = csr.row(r);
            let kept = cs.len().min(width);
            for (j, (&c, &v)) in cs[..kept].iter().zip(vs).enumerate() {
                col_idx[j * rows + r] = c;
                values[j * rows + r] = v;
            }
            for (&c, &v) in cs[kept..].iter().zip(&vs[kept..]) {
                spill(r, c, v);
            }
            // Padding repeats the row's last real column (see the
            // propagation policy on `SparseFormat`); an empty row has
            // none and keeps column 0.
            if let Some(&last) = cs.last() {
                for j in cs.len()..width {
                    col_idx[j * rows + r] = last;
                }
            }
        }
        Self { rows, cols: csr.cols(), width, col_idx, values, lanes: profile.width }
    }

    /// Reads the slab's two sections, re-validating geometry and column
    /// bounds (the kernel indexes `x` by `col_idx` unguarded). `what`
    /// names the slab in errors.
    pub(crate) fn decode(
        r: &mut SectionReader<'_>,
        rows: usize,
        cols: usize,
        width: usize,
        profile: LaneProfile,
        what: &str,
    ) -> Result<Self, WireError> {
        let malformed = |m: String| WireError::Malformed(m);
        let col_idx = r.vec_u32()?;
        let values = r.vec_f64()?;
        let stored = width
            .checked_mul(rows)
            .ok_or_else(|| malformed(format!("{what} slab {width}x{rows} overflows")))?;
        if col_idx.len() != stored || values.len() != stored {
            return Err(malformed(format!(
                "{what} slab is {stored} entries, got {} columns / {} values",
                col_idx.len(),
                values.len()
            )));
        }
        if let Some(&c) = col_idx.iter().find(|&&c| c as usize >= cols) {
            return Err(malformed(format!("{what} column {c} out of bounds ({cols} cols)")));
        }
        Ok(Self { rows, cols, width, col_idx, values, lanes: profile.width })
    }

    /// Writes the two sections [`decode`](Self::decode) reads.
    pub(crate) fn encode(&self, out: &mut SectionWriter) {
        out.slice_u32(&self.col_idx);
        out.slice_f64(&self.values);
    }

    /// The kernel view of the slab.
    pub(crate) fn view(&self) -> Slab<'_> {
        Slab {
            lanes: self.lanes,
            rows: self.rows,
            cols: self.cols,
            width: self.width,
            col_idx: &self.col_idx,
            values: &self.values,
        }
    }

    /// Stored slots, padding included.
    pub(crate) fn stored(&self) -> usize {
        self.values.len()
    }

    /// Bytes of the two arrays.
    pub(crate) fn bytes(&self) -> usize {
        self.values.len() * 8 + self.col_idx.len() * 4
    }
}

/// Decodes an ELL wire payload.
pub(crate) fn decode(
    r: &mut SectionReader<'_>,
    profile: LaneProfile,
) -> Result<EllFormat, WireError> {
    let rows = r.dim()?;
    let cols = r.dim()?;
    let nnz = r.dim()?;
    let width = r.dim()?;
    let slab = EllSlab::decode(r, rows, cols, width, profile, "ELL")?;
    if nnz > slab.stored() {
        return Err(WireError::Malformed(format!(
            "ELL nnz {nnz} exceeds stored entries {}",
            slab.stored()
        )));
    }
    Ok(EllFormat { slab, nnz })
}

/// Default cap on `stored entries / nnz` before conversion refuses.
pub const DEFAULT_MAX_PADDING_RATIO: f64 = 16.0;

/// ELLPACK storage: a column-major slab as wide as the longest row.
pub struct EllFormat {
    slab: EllSlab,
    nnz: usize,
}

impl EllFormat {
    /// Converts from CSR with the default padding budget and the
    /// process-wide [`LaneProfile::current`].
    pub fn from_csr(csr: &CsrMatrix) -> Result<Self, FormatBuildError> {
        Self::from_csr_with_budget(csr, DEFAULT_MAX_PADDING_RATIO)
    }

    /// Converts from CSR, refusing if `width·rows > budget·nnz`.
    pub fn from_csr_with_budget(
        csr: &CsrMatrix,
        max_padding_ratio: f64,
    ) -> Result<Self, FormatBuildError> {
        Self::from_csr_with(csr, max_padding_ratio, LaneProfile::current())
    }

    /// Converts from CSR with an explicit padding budget and lane
    /// profile.
    pub fn from_csr_with(
        csr: &CsrMatrix,
        max_padding_ratio: f64,
        profile: LaneProfile,
    ) -> Result<Self, FormatBuildError> {
        let rows = csr.rows();
        let width = (0..rows).map(|r| csr.row_nnz(r)).max().unwrap_or(0);
        let stored = width.saturating_mul(rows);
        let nnz = csr.nnz();
        if nnz > 0 && stored as f64 > max_padding_ratio * nnz as f64 {
            return Err(FormatBuildError::PaddingOverflow {
                needed_bytes: stored * 12,
                limit_bytes: (max_padding_ratio * nnz as f64) as usize * 12,
                format: "ELL",
            });
        }
        let slab =
            EllSlab::from_csr(csr, width, profile, |_, _, _| unreachable!("no row is wider"));
        Ok(Self { slab, nnz })
    }

    /// Slab width (`max_row_nnz`).
    pub fn width(&self) -> usize {
        self.slab.width
    }

    /// The lane width this instance dispatches to.
    pub fn lanes(&self) -> LaneWidth {
        self.slab.lanes
    }
}

impl SparseFormat for EllFormat {
    fn name(&self) -> &'static str {
        "ELL"
    }

    fn rows(&self) -> usize {
        self.slab.rows
    }

    fn cols(&self) -> usize {
        self.slab.cols
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn bytes(&self) -> usize {
        self.slab.bytes()
    }

    fn padding_ratio(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.slab.stored() as f64 / self.nnz as f64
        }
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        driver::spmv(&self.slab.view(), x, y);
    }

    fn spmv_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        let slab = self.slab.view();
        driver::spmv_parallel(&slab, slab.schedule(), pool, x, y);
    }

    fn spmv_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        driver::spmv_dot(&self.slab.view(), x, y)
    }

    fn spmv_dot_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) -> f64 {
        let slab = self.slab.view();
        driver::spmv_dot_parallel(&slab, slab.schedule(), pool, x, y)
    }

    fn encode_payload(&self, out: &mut SectionWriter) -> Result<(), WireError> {
        out.usize(self.slab.rows);
        out.usize(self.slab.cols);
        out.usize(self.nnz);
        out.usize(self.slab.width);
        self.slab.encode(out);
        Ok(())
    }

    fn spmm(&self, x: &[f64], k: usize, y: &mut [f64]) {
        panel::spmm(&self.slab.view(), x, k, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::DenseMatrix;

    fn balanced_matrix() -> CsrMatrix {
        let mut t = Vec::new();
        for r in 0..16usize {
            for k in 0..4usize {
                t.push((r, (r * 3 + k * 7) % 32, (r + k) as f64 * 0.25 - 1.0));
            }
        }
        CsrMatrix::from_triplets(16, 32, &t).unwrap()
    }

    #[test]
    fn matches_dense_at_every_width() {
        let m = balanced_matrix();
        let x: Vec<f64> = (0..32).map(|i| (i as f64) * 0.1 - 1.6).collect();
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        for width in LaneWidth::ALL {
            let profile = LaneProfile::with_width(width);
            let f = EllFormat::from_csr_with(&m, DEFAULT_MAX_PADDING_RATIO, profile).unwrap();
            let got = f.spmv_alloc(&x);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-12, "{width:?}");
            }
        }
    }

    #[test]
    fn lane_widths_are_bit_identical() {
        // Slab accumulators map 1:1 to rows, so W is invisible in the
        // result — the strongest form of the determinism contract.
        let m = balanced_matrix();
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.71).sin()).collect();
        let scalar = EllFormat::from_csr_with(&m, 16.0, LaneProfile::scalar()).unwrap();
        let want = scalar.spmv_alloc(&x);
        for width in [LaneWidth::W4, LaneWidth::W8] {
            let f = EllFormat::from_csr_with(&m, 16.0, LaneProfile::with_width(width)).unwrap();
            assert_eq!(f.spmv_alloc(&x), want, "{width:?}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let m = balanced_matrix();
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).sin()).collect();
        let f = EllFormat::from_csr(&m).unwrap();
        let want = f.spmv_alloc(&x);
        let pool = ThreadPool::new(4);
        let mut got = vec![f64::NAN; 16];
        f.spmv_parallel(&pool, &x, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn padding_accounting() {
        // Rows of length 4 and one row of length 8 -> width 8.
        let mut t = Vec::new();
        for r in 0..8usize {
            for k in 0..4usize {
                t.push((r, k, 1.0));
            }
        }
        for k in 4..8usize {
            t.push((0, k, 1.0));
        }
        let m = CsrMatrix::from_triplets(8, 8, &t).unwrap();
        let f = EllFormat::from_csr(&m).unwrap();
        assert_eq!(f.width(), 8);
        assert_eq!(f.nnz(), 36);
        assert!((f.padding_ratio() - 64.0 / 36.0).abs() < 1e-12);
        assert_eq!(f.bytes(), 64 * 12);
    }

    #[test]
    fn refuses_skewed_matrices() {
        // One row with 1000 nnz, 999 rows with 1: width 1000 ->
        // padding ratio ~500x.
        let mut t: Vec<(usize, usize, f64)> = (0..1000).map(|c| (0usize, c, 1.0)).collect();
        for r in 1..1000usize {
            t.push((r, 0, 1.0));
        }
        let m = CsrMatrix::from_triplets(1000, 1000, &t).unwrap();
        let err = EllFormat::from_csr(&m).map(|_| ()).unwrap_err();
        assert!(matches!(err, FormatBuildError::PaddingOverflow { format: "ELL", .. }));
        // A generous budget accepts it.
        assert!(EllFormat::from_csr_with_budget(&m, 1000.0).is_ok());
    }

    #[test]
    fn spmm_matches_k_independent_spmvs() {
        let m = balanced_matrix();
        let (rows, cols) = (m.rows(), m.cols());
        for width in LaneWidth::ALL {
            let f = EllFormat::from_csr_with(&m, 16.0, LaneProfile::with_width(width)).unwrap();
            for k in [1usize, 2, 8] {
                let x: Vec<f64> = (0..cols * k).map(|i| (i as f64 * 0.13).cos()).collect();
                let got = f.spmm_alloc(&x, k);
                for j in 0..k {
                    let want = f.spmv_alloc(&x[j * cols..(j + 1) * cols]);
                    assert_eq!(
                        &got[j * rows..(j + 1) * rows],
                        &want[..],
                        "{width:?} k={k} col {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_zero_width() {
        let m = CsrMatrix::zeros(4, 4);
        let f = EllFormat::from_csr(&m).unwrap();
        assert_eq!(f.width(), 0);
        assert_eq!(f.padding_ratio(), 1.0);
        assert_eq!(f.spmv_alloc(&[0.0; 4]), vec![0.0; 4]);
    }
}
