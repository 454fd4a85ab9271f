//! HYB (§II-B.3): ELL for the first `k` nonzeros of every row + COO
//! for the remainder. `k` is set to the average number of nonzeros per
//! row (the heuristic named by the paper), so the ELL slab stays
//! padding-light while the skewed tail goes to the balanced COO part —
//! this is the cuSPARSE-9.2 HYB of the GPU testbeds.
//!
//! Neither half owns an inner loop: the ELL half is an
//! [`EllSlab`](crate::ell) (storage, validation and kernels shared with
//! ELL) and the COO tail runs on [`spmv_parallel::accumulate_rows`]
//! (shared with [`crate::coo`]) in both the sequential and the parallel
//! path.

use crate::driver;
use crate::ell::EllSlab;
use crate::kernels::{LaneProfile, LaneWidth};
use crate::traits::SparseFormat;
use crate::wire::{SectionReader, SectionWriter, WireError};
use spmv_core::CsrMatrix;
use spmv_parallel::{accumulate_rows, DisjointWriter, Executor, ThreadPool};

/// Decodes a HYB wire payload, re-validating both halves: ELL slab
/// geometry and column bounds, plus a row-sorted, in-bounds COO tail
/// (the carry kernel requires row-major order).
pub(crate) fn decode(
    r: &mut SectionReader<'_>,
    profile: LaneProfile,
) -> Result<HybFormat, WireError> {
    let malformed = |m: String| WireError::Malformed(m);
    let rows = r.dim()?;
    let cols = r.dim()?;
    let nnz = r.dim()?;
    let k = r.dim()?;
    let ell_nnz = r.dim()?;
    let ell = EllSlab::decode(r, rows, cols, k, profile, "HYB ELL")?;
    let coo_row = r.vec_u32()?;
    let coo_col = r.vec_u32()?;
    let coo_val = r.vec_f64()?;
    if coo_row.len() != coo_val.len() || coo_col.len() != coo_val.len() {
        return Err(malformed(format!(
            "HYB COO tail lengths disagree: {} rows, {} columns, {} values",
            coo_row.len(),
            coo_col.len(),
            coo_val.len()
        )));
    }
    if let Some(&c) = coo_col.iter().find(|&&c| c as usize >= cols) {
        return Err(malformed(format!("HYB column {c} out of bounds ({cols} cols)")));
    }
    if let Some(&row) = coo_row.iter().find(|&&row| row as usize >= rows) {
        return Err(malformed(format!("HYB COO row {row} out of bounds ({rows} rows)")));
    }
    if coo_row.windows(2).any(|w| w[0] > w[1]) {
        return Err(malformed("HYB COO tail not sorted by row".into()));
    }
    if ell_nnz > ell.stored() || nnz != ell_nnz + coo_val.len() {
        return Err(malformed(format!(
            "HYB entry accounting broken: nnz {nnz}, ell_nnz {ell_nnz}, coo {}",
            coo_val.len()
        )));
    }
    Ok(HybFormat { ell, nnz, coo_row, coo_col, coo_val, ell_nnz })
}

/// Hybrid ELL + COO storage.
pub struct HybFormat {
    /// The first `k` nonzeros of every row; its width is `k` (average
    /// nonzeros per row, rounded up).
    ell: EllSlab,
    nnz: usize,
    /// COO tail (row-major sorted), holding `nnz - ell_nnz` entries.
    coo_row: Vec<u32>,
    coo_col: Vec<u32>,
    coo_val: Vec<f64>,
    /// Logical (non-padding) entries stored in the ELL part.
    ell_nnz: usize,
}

impl HybFormat {
    /// Converts from CSR with `k = ceil(avg nnz per row)`.
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        Self::from_csr_profile(csr, LaneProfile::current())
    }

    /// Converts from CSR with `k = ceil(avg nnz per row)` and an
    /// explicit lane profile.
    pub fn from_csr_profile(csr: &CsrMatrix, profile: LaneProfile) -> Self {
        let rows = csr.rows();
        let avg = if rows > 0 { csr.nnz() as f64 / rows as f64 } else { 0.0 };
        Self::from_csr_with(csr, avg.ceil() as usize, profile)
    }

    /// Converts from CSR with an explicit ELL width `k`.
    pub fn from_csr_with_k(csr: &CsrMatrix, k: usize) -> Self {
        Self::from_csr_with(csr, k, LaneProfile::current())
    }

    /// Converts from CSR with an explicit ELL width and lane profile.
    pub fn from_csr_with(csr: &CsrMatrix, k: usize, profile: LaneProfile) -> Self {
        let (mut coo_row, mut coo_col, mut coo_val) = (Vec::new(), Vec::new(), Vec::new());
        let ell = EllSlab::from_csr(csr, k, profile, |r, c, v| {
            coo_row.push(r as u32);
            coo_col.push(c);
            coo_val.push(v);
        });
        let nnz = csr.nnz();
        let ell_nnz = nnz - coo_val.len();
        Self { ell, nnz, coo_row, coo_col, coo_val, ell_nnz }
    }

    /// The ELL width `k`.
    pub fn k(&self) -> usize {
        self.ell.width
    }

    /// Number of entries in the COO tail.
    pub fn coo_nnz(&self) -> usize {
        self.coo_val.len()
    }

    /// Number of logical (non-padding) entries stored in the ELL slab.
    pub fn ell_nnz(&self) -> usize {
        self.ell_nnz
    }

    /// The lane width this instance dispatches to.
    pub fn lanes(&self) -> LaneWidth {
        self.ell.lanes
    }

    /// Adds the COO tail on top of the ELL partial sums in `y` using
    /// the shared carry kernel over a single chunk (the carries *are*
    /// the first/last row sums, merged right here).
    fn coo_tail_sequential(&self, x: &[f64], y: &mut [f64]) {
        let carries = {
            let out = DisjointWriter::new(y);
            accumulate_rows(
                0..self.coo_val.len(),
                |i| self.coo_row[i] as usize,
                |i| self.coo_val[i] * x[self.coo_col[i] as usize],
                &out,
            )
        };
        if let Some((row, sum)) = carries.first {
            y[row] += sum;
        }
        if let Some((row, sum)) = carries.last {
            y[row] += sum;
        }
    }
}

impl SparseFormat for HybFormat {
    fn name(&self) -> &'static str {
        "HYB"
    }

    fn rows(&self) -> usize {
        self.ell.rows
    }

    fn cols(&self) -> usize {
        self.ell.cols
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn bytes(&self) -> usize {
        self.ell.bytes() + self.coo_val.len() * 8 + self.coo_col.len() * 4 + self.coo_row.len() * 4
    }

    fn padding_ratio(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            (self.ell.stored() + self.coo_nnz()) as f64 / self.nnz as f64
        }
    }

    fn encode_payload(&self, out: &mut SectionWriter) -> Result<(), WireError> {
        out.usize(self.ell.rows);
        out.usize(self.ell.cols);
        out.usize(self.nnz);
        out.usize(self.ell.width);
        out.usize(self.ell_nnz);
        self.ell.encode(out);
        out.slice_u32(&self.coo_row);
        out.slice_u32(&self.coo_col);
        out.slice_f64(&self.coo_val);
        Ok(())
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        driver::spmv(&self.ell.view(), x, y);
        self.coo_tail_sequential(x, y);
    }

    fn spmv_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        // Phase 1: ELL slab over lane-aligned static row chunks
        // (overwrites y).
        let ell = self.ell.view();
        driver::spmv_parallel(&ell, ell.schedule(), pool, x, y);
        // Phase 2: COO tail via the shared carry kernel, *adding* on
        // top of the ELL partial sums (interior rows are owned by
        // exactly one chunk; boundary rows merge sequentially).
        let (ri, ci, v) = (&self.coo_row, &self.coo_col, &self.coo_val);
        Executor::new(pool).run_chunks_carry(self.coo_val.len(), y, |range, out| {
            accumulate_rows(range, |i| ri[i] as usize, |i| v[i] * x[ci[i] as usize], out)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::DenseMatrix;

    fn skewed_matrix() -> CsrMatrix {
        // avg ~3, one hot row of 64 -> HYB puts the tail in COO.
        let mut t = Vec::new();
        for c in 0..64usize {
            t.push((0usize, c, (c as f64) * 0.1 - 3.0));
        }
        for r in 1..32usize {
            t.push((r, r, 1.0));
            t.push((r, (r + 5) % 64, -0.5));
        }
        CsrMatrix::from_triplets(32, 64, &t).unwrap()
    }

    #[test]
    fn split_sizes_are_consistent() {
        let m = skewed_matrix();
        let f = HybFormat::from_csr(&m);
        assert_eq!(f.k(), 4); // ceil(126/32) = 4
        assert_eq!(f.nnz(), m.nnz());
        assert_eq!(f.coo_nnz(), 64 - 4); // only the hot row spills
    }

    #[test]
    fn matches_dense() {
        let m = skewed_matrix();
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.21).cos()).collect();
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        let got = HybFormat::from_csr(&m).spmv_alloc(&x);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn lane_widths_are_bit_identical() {
        let m = skewed_matrix();
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.33).sin()).collect();
        let want = HybFormat::from_csr_with(&m, 4, LaneProfile::scalar()).spmv_alloc(&x);
        for width in [LaneWidth::W4, LaneWidth::W8] {
            let f = HybFormat::from_csr_with(&m, 4, LaneProfile::with_width(width));
            assert_eq!(f.spmv_alloc(&x), want, "{width:?}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let m = skewed_matrix();
        let x: Vec<f64> = (0..64).map(|i| (i as f64) * 0.05 - 1.0).collect();
        let f = HybFormat::from_csr(&m);
        let want = f.spmv_alloc(&x);
        for threads in [1, 2, 4, 7] {
            let pool = ThreadPool::new(threads);
            let mut got = vec![f64::NAN; 32];
            f.spmv_parallel(&pool, &x, &mut got);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-10, "threads {threads}, row {i}");
            }
        }
    }

    #[test]
    fn k_zero_degenerates_to_pure_coo() {
        let m = skewed_matrix();
        let f = HybFormat::from_csr_with_k(&m, 0);
        assert_eq!(f.coo_nnz(), m.nnz());
        let x = vec![1.0; 64];
        let want = m.spmv(&x);
        let got = f.spmv_alloc(&x);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn huge_k_degenerates_to_pure_ell() {
        let m = skewed_matrix();
        let f = HybFormat::from_csr_with_k(&m, 64);
        assert_eq!(f.coo_nnz(), 0);
        let x = vec![0.5; 64];
        let want = m.spmv(&x);
        let got = f.spmv_alloc(&x);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn padding_ratio_far_below_pure_ell() {
        let m = skewed_matrix();
        let hyb = HybFormat::from_csr(&m);
        // Pure ELL would store 32 * 64 = 2048 entries for 126 nnz.
        assert!(hyb.padding_ratio() < 2.0);
        assert_eq!(hyb.name(), "HYB");
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::zeros(3, 5);
        let f = HybFormat::from_csr(&m);
        let pool = ThreadPool::new(2);
        let mut y = vec![1.0; 3];
        f.spmv_parallel(&pool, &[0.0; 5], &mut y);
        assert_eq!(y, vec![0.0; 3]);
    }
}
