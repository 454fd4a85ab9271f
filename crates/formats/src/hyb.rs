//! HYB (§II-B.3): ELL for the first `k` nonzeros of every row + COO
//! for the remainder. `k` is set to the average number of nonzeros per
//! row (the heuristic named by the paper), so the ELL slab stays
//! padding-light while the skewed tail goes to the balanced COO part —
//! this is the cuSPARSE-9.2 HYB of the GPU testbeds.
//!
//! Neither half owns an inner loop anymore: the ELL slab runs on
//! [`crate::kernels::slab`] (shared with [`crate::ell`]) and the COO
//! tail runs on [`spmv_parallel::accumulate_rows`] (shared with
//! [`crate::coo`]) in both the sequential and the parallel path.

use crate::kernels::{slab, LaneProfile, LaneWidth};
use crate::traits::SparseFormat;
use crate::wire::{SectionReader, SectionWriter, WireError};
use spmv_core::CsrMatrix;
use spmv_parallel::{accumulate_rows, DisjointWriter, Executor, Schedule, ThreadPool};

/// Decodes a HYB wire payload, re-validating both halves: ELL slab
/// geometry and column bounds, plus a row-sorted, in-bounds COO tail
/// (the carry kernel requires row-major order).
pub(crate) fn decode(r: &mut SectionReader<'_>) -> Result<HybFormat, WireError> {
    let malformed = |m: String| WireError::Malformed(m);
    let rows = r.dim()?;
    let cols = r.dim()?;
    let nnz = r.dim()?;
    let k = r.dim()?;
    let ell_nnz = r.dim()?;
    let ell_col = r.vec_u32()?;
    let ell_val = r.vec_f64()?;
    let coo_row = r.vec_u32()?;
    let coo_col = r.vec_u32()?;
    let coo_val = r.vec_f64()?;
    let stored = k
        .checked_mul(rows)
        .ok_or_else(|| malformed(format!("HYB ELL slab {k}x{rows} overflows")))?;
    if ell_col.len() != stored || ell_val.len() != stored {
        return Err(malformed(format!(
            "HYB ELL slab is {stored} entries, got {} columns / {} values",
            ell_col.len(),
            ell_val.len()
        )));
    }
    if coo_row.len() != coo_val.len() || coo_col.len() != coo_val.len() {
        return Err(malformed(format!(
            "HYB COO tail lengths disagree: {} rows, {} columns, {} values",
            coo_row.len(),
            coo_col.len(),
            coo_val.len()
        )));
    }
    if let Some(&c) = ell_col.iter().chain(&coo_col).find(|&&c| c as usize >= cols) {
        return Err(malformed(format!("HYB column {c} out of bounds ({cols} cols)")));
    }
    if let Some(&row) = coo_row.iter().find(|&&row| row as usize >= rows) {
        return Err(malformed(format!("HYB COO row {row} out of bounds ({rows} rows)")));
    }
    if coo_row.windows(2).any(|w| w[0] > w[1]) {
        return Err(malformed("HYB COO tail not sorted by row".into()));
    }
    if ell_nnz > stored || nnz != ell_nnz + coo_val.len() {
        return Err(malformed(format!(
            "HYB entry accounting broken: nnz {nnz}, ell_nnz {ell_nnz}, coo {}",
            coo_val.len()
        )));
    }
    Ok(HybFormat {
        rows,
        cols,
        nnz,
        k,
        ell_col,
        ell_val,
        coo_row,
        coo_col,
        coo_val,
        ell_nnz,
        lanes: LaneProfile::current().width,
    })
}

/// Hybrid ELL + COO storage.
pub struct HybFormat {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// ELL width `k` (average nonzeros per row, rounded up).
    k: usize,
    /// Column-major ELL slab, `k × rows`; padding repeats the row's
    /// last real column (column 0 in an empty row) at value 0.
    ell_col: Vec<u32>,
    ell_val: Vec<f64>,
    /// COO tail (row-major sorted), holding `nnz - ell_nnz` entries.
    coo_row: Vec<u32>,
    coo_col: Vec<u32>,
    coo_val: Vec<f64>,
    /// Logical (non-padding) entries stored in the ELL part.
    ell_nnz: usize,
    /// Lane width the ELL slab kernel dispatches to.
    lanes: LaneWidth,
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
        let rows = csr.rows();
        let stored = k.saturating_mul(rows);
        let mut ell_col = vec![0u32; stored];
        let mut ell_val = vec![0.0f64; stored];
        let mut coo_row = Vec::new();
        let mut coo_col = Vec::new();
        let mut coo_val = Vec::new();
        let mut ell_nnz = 0usize;
        for r in 0..rows {
            let (cs, vs) = csr.row(r);
            for (j, (&c, &v)) in cs.iter().zip(vs).enumerate() {
                if j < k {
                    ell_col[j * rows + r] = c;
                    ell_val[j * rows + r] = v;
                    ell_nnz += 1;
                } else {
                    coo_row.push(r as u32);
                    coo_col.push(c);
                    coo_val.push(v);
                }
            }
            // Padding repeats the row's last real column (see the
            // propagation policy on `SparseFormat`); an empty row has
            // none and keeps column 0.
            if let Some(&last) = cs.last() {
                for j in cs.len()..k {
                    ell_col[j * rows + r] = last;
                }
            }
        }
        Self {
            rows,
            cols: csr.cols(),
            nnz: csr.nnz(),
            k,
            ell_col,
            ell_val,
            coo_row,
            coo_col,
            coo_val,
            ell_nnz,
            lanes: profile.width,
        }
    }

    /// The ELL width `k`.
    pub fn k(&self) -> usize {
        self.k
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
        self.lanes
    }

    fn ell_rows(&self, rows: std::ops::Range<usize>, x: &[f64], out: &DisjointWriter<'_>) {
        slab::slab_spmv_rows(
            self.lanes,
            rows,
            self.rows,
            self.k,
            &self.ell_col,
            &self.ell_val,
            x,
            out,
        );
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
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn bytes(&self) -> usize {
        self.ell_val.len() * 8
            + self.ell_col.len() * 4
            + self.coo_val.len() * 8
            + self.coo_col.len() * 4
            + self.coo_row.len() * 4
    }

    fn padding_ratio(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            (self.k * self.rows + self.coo_nnz()) as f64 / self.nnz as f64
        }
    }

    fn encode_payload(&self, out: &mut SectionWriter) {
        out.usize(self.rows);
        out.usize(self.cols);
        out.usize(self.nnz);
        out.usize(self.k);
        out.usize(self.ell_nnz);
        out.slice_u32(&self.ell_col);
        out.slice_f64(&self.ell_val);
        out.slice_u32(&self.coo_row);
        out.slice_u32(&self.coo_col);
        out.slice_f64(&self.coo_val);
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        {
            let out = DisjointWriter::new(y);
            self.ell_rows(0..self.rows, x, &out);
        }
        self.coo_tail_sequential(x, y);
    }

    fn spmv_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        let exec = Executor::new(pool);
        // Phase 1: ELL slab over lane-aligned static row chunks
        // (overwrites y).
        let schedule = Schedule::StaticAligned { items: self.rows, align: self.lanes.lanes() };
        exec.run_disjoint(schedule, y, |range, out| self.ell_rows(range, x, out));
        // Phase 2: COO tail via the shared carry kernel, *adding* on
        // top of the ELL partial sums (interior rows are owned by
        // exactly one chunk; boundary rows merge sequentially).
        let (ri, ci, v) = (&self.coo_row, &self.coo_col, &self.coo_val);
        exec.run_chunks_carry(self.coo_val.len(), y, |range, out| {
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
        for width in [LaneWidth::W2, LaneWidth::W4, LaneWidth::W8] {
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
