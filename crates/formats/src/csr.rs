//! CSR storage and the five ways the study runs it. The three CSR
//! SpMV implementations of the paper's CPU testbeds (Fig. 7):
//! **Naive-CSR** (static row chunks, pinned to the scalar lane kernel —
//! it *is* the baseline), **Vectorized-CSR** (static row chunks with
//! the lane-unrolled gather-dot kernel, standing in for the AVX2
//! kernels of the paper), and **Balanced-CSR** (nnz-balanced row
//! chunks — "adds nonzero balancing (row resolution)" — on the same
//! lane kernel). And its two CSR extensions (§II-B.5), which split
//! *nonzeros* rather than rows, so even a single giant row is shared
//! between workers: **Merge-CSR** (Merrill & Garland, SC'16; "a
//! lightweight extension of CSR, with no preprocessing cost" — equal
//! segments of the `(rows + nnz)` merge path, computed per call) and a
//! **CSR5**-like tiling (Liu & Vinter, ICS'15; equal-nnz tiles with a
//! per-tile row pointer, the "additional metadata for row splitting"
//! that "slightly increases memory footprint"; the tile interior stays
//! in plain CSR order).
//!
//! The five differ in schedule and lane width, not in storage: every
//! [`CsrFormat`] holds a [`CsrMatrix`] clone, which shares the
//! operand's arrays. All inner loops live in [`crate::kernels::dot`]
//! (SpMV) and [`crate::kernels::panel`] (SpMM), reached through the
//! format's [`CsrRows`] view; this file only holds scheduling and the
//! lane-width policy per variant.

use crate::driver;
use crate::kernels::dot::CsrRows;
use crate::kernels::{panel, LaneProfile, LaneWidth};
use crate::traits::SparseFormat;
use crate::wire::{self, SectionReader, SectionWriter, WireError};
use spmv_core::CsrMatrix;
use spmv_parallel::{
    blas1, merge_path_partition, Carries, DisjointWriter, Executor, Schedule, ThreadPool,
};
use std::ops::Range;

/// Decodes a CSR-family wire payload (the variant comes from the wire
/// tag, not the payload; the lane width from `profile`). Merge-path
/// coordinates are computed per call and never stored; CSR5's tile row
/// pointer is *derived* data, so its payload carries only `tile_nnz`
/// after the CSR sections and the tiles are rebuilt here — hostile tile
/// metadata cannot be expressed on the wire.
pub(crate) fn decode(
    r: &mut SectionReader<'_>,
    variant: CsrVariant,
    profile: LaneProfile,
) -> Result<CsrFormat, WireError> {
    let csr = wire::decode_csr(r)?;
    if variant != CsrVariant::Tiles {
        return Ok(CsrFormat::with_profile(csr, variant, profile));
    }
    match r.dim()? {
        0 => Err(WireError::Malformed("CSR5 tile size 0".into())),
        tile_nnz => Ok(CsrFormat::tiled(csr, tile_nnz)),
    }
}

/// Default CSR5 tile size in nonzeros (ω·σ of the original design).
pub const DEFAULT_TILE_NNZ: usize = 128;

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
    /// Merge-CSR: scalar loop, one merge-path segment per worker,
    /// shared boundary rows merged by carries.
    MergePath,
    /// CSR5: scalar loop, equal-nnz tiles in contiguous ranges per
    /// worker, shared boundary rows merged by carries.
    Tiles,
}

/// CSR storage plus a kernel-variant tag and resolved lane width.
pub struct CsrFormat {
    matrix: CsrMatrix,
    variant: CsrVariant,
    lanes: LaneWidth,
    /// Tile size in nonzeros ([`CsrVariant::Tiles`] only).
    tile_nnz: usize,
    /// `tile_row[t]` = row containing nonzero offset `t · tile_nnz`
    /// ([`CsrVariant::Tiles`] only; empty otherwise).
    tile_row: Vec<u32>,
}

impl CsrFormat {
    /// Wraps a CSR matrix with the chosen kernel variant, resolving
    /// lanes from the process-wide [`LaneProfile::current`].
    pub fn new(matrix: CsrMatrix, variant: CsrVariant) -> Self {
        Self::with_profile(matrix, variant, LaneProfile::current())
    }

    /// Wraps a CSR matrix with an explicit lane profile. Only the
    /// Vectorized and Balanced variants follow the profile: Naive-CSR
    /// is the scalar baseline the other kernels are measured against,
    /// and Merge-CSR and CSR5 run W = 1, the summation order of
    /// [`CsrMatrix::spmv_into`]. Nothing is preprocessed except CSR5's
    /// tile row pointer (at [`DEFAULT_TILE_NNZ`]).
    pub fn with_profile(matrix: CsrMatrix, variant: CsrVariant, profile: LaneProfile) -> Self {
        let lanes = match variant {
            CsrVariant::Vectorized | CsrVariant::Balanced => profile.width,
            CsrVariant::Tiles => return Self::tiled(matrix, DEFAULT_TILE_NNZ),
            CsrVariant::Naive | CsrVariant::MergePath => LaneWidth::W1,
        };
        Self { matrix, variant, lanes, tile_nnz: 0, tile_row: Vec::new() }
    }

    /// CSR5 with an explicit tile size (in nonzeros, at least 1).
    pub fn tiled(matrix: CsrMatrix, tile_nnz: usize) -> Self {
        let tile_nnz = tile_nnz.max(1);
        let nnz = matrix.nnz();
        let row_ptr = matrix.row_ptr();
        let last_row = matrix.rows().saturating_sub(1);
        let tile_row = (0..=nnz.div_ceil(tile_nnz))
            .map(|t| {
                let off = (t * tile_nnz).min(nnz);
                // Row containing offset `off`: last r with row_ptr[r] <= off.
                let r = row_ptr.partition_point(|&p| p <= off).saturating_sub(1);
                r.min(last_row) as u32
            })
            .collect();
        Self { matrix, variant: CsrVariant::Tiles, lanes: LaneWidth::W1, tile_nnz, tile_row }
    }

    /// Borrow of the underlying CSR matrix.
    pub fn csr(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The lane width this instance dispatches to.
    pub fn lanes(&self) -> LaneWidth {
        self.lanes
    }

    /// Number of CSR5 tiles (0 for every other variant).
    pub fn tiles(&self) -> usize {
        self.tile_row.len().saturating_sub(1)
    }

    fn view(&self) -> CsrRows<'_> {
        CsrRows::of(self.lanes, &self.matrix)
    }

    /// The row partition of the three row-parallel variants; `None` for
    /// the two that split nonzeros and merge carries instead.
    fn row_schedule(&self) -> Option<Schedule<'_>> {
        match self.variant {
            CsrVariant::Naive | CsrVariant::Vectorized => {
                Some(Schedule::Static { items: self.rows() })
            }
            CsrVariant::Balanced => Some(Schedule::Balanced { prefix: self.matrix.row_ptr() }),
            CsrVariant::MergePath | CsrVariant::Tiles => None,
        }
    }

    /// Parallel SpMV of the two carry schedules: each worker owns one
    /// contiguous nonzero range — a merge-path segment, or a contiguous
    /// range of tiles — and runs a segmented sum over it. The range's
    /// first (possibly shared) row comes back as a carry; later rows
    /// are written directly, a shared last row as the partial the next
    /// range's carry is added to.
    fn spmv_carry(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        let row_ptr = self.matrix.row_ptr();
        let col_idx = self.matrix.col_idx();
        let values = self.matrix.values();
        let segment = |first_row: usize, nz: Range<usize>, out: &DisjointWriter<'_>| {
            if nz.is_empty() {
                return Carries::none(); // only empty rows, already zeroed
            }
            let (mut k, mut r, mut carry) = (nz.start, first_row, 0.0);
            loop {
                let row_end = row_ptr[r + 1].min(nz.end);
                let mut acc = 0.0;
                while k < row_end {
                    acc += values[k] * x[col_idx[k] as usize];
                    k += 1;
                }
                if r == first_row {
                    carry = acc;
                } else {
                    out.write(r, acc);
                }
                if k >= nz.end {
                    break;
                }
                // Skip empty rows (their range is empty).
                r += 1;
                while row_ptr[r + 1] <= k {
                    r += 1;
                }
            }
            Carries { first: Some((first_row, carry)), last: None }
        };
        let exec = Executor::new(pool);
        exec.zero(y);
        if self.variant == CsrVariant::MergePath {
            let coords = merge_path_partition(row_ptr, exec.threads());
            exec.run_chunks_carry(coords.len() - 1, y, |seg, out| {
                let (start, end) = (coords[seg.start], coords[seg.end]);
                segment(start.row, start.nz..end.nz, out)
            });
        } else {
            let nnz = self.nnz();
            exec.run_chunks_carry(self.tiles(), y, |tiles, out| {
                let nz = tiles.start * self.tile_nnz..(tiles.end * self.tile_nnz).min(nnz);
                segment(self.tile_row[tiles.start] as usize, nz, out)
            });
        }
    }
}

impl SparseFormat for CsrFormat {
    fn name(&self) -> &'static str {
        match self.variant {
            CsrVariant::Naive => "Naive-CSR",
            CsrVariant::Vectorized => "Vectorized-CSR",
            CsrVariant::Balanced => "Balanced-CSR",
            CsrVariant::MergePath => "Merge-CSR",
            CsrVariant::Tiles => "CSR5",
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
        // CSR arrays + CSR5's 4-byte tile row pointers.
        self.matrix.mem_footprint_bytes() + 4 * self.tile_row.len()
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        driver::spmv(&self.view(), x, y);
    }

    fn spmv_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        match self.row_schedule() {
            Some(schedule) => driver::spmv_parallel(&self.view(), schedule, pool, x, y),
            None => {
                driver::check_operands(&self.view(), x, y);
                self.spmv_carry(pool, x, y);
            }
        }
    }

    fn spmv_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        driver::spmv_dot(&self.view(), x, y)
    }

    fn spmv_dot_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) -> f64 {
        match self.row_schedule() {
            Some(schedule) => driver::spmv_dot_parallel(&self.view(), schedule, pool, x, y),
            // A row split across workers has no one place to fuse at.
            None => {
                assert_eq!(self.rows(), self.cols(), "spmv_dot requires a square matrix");
                self.spmv_parallel(pool, x, y);
                blas1::dot(pool, x, y)
            }
        }
    }

    fn encode_payload(&self, out: &mut SectionWriter) -> Result<(), WireError> {
        wire::encode_csr(&self.matrix, out);
        if self.variant == CsrVariant::Tiles {
            out.usize(self.tile_nnz);
        }
        Ok(())
    }

    fn spmm(&self, x: &[f64], k: usize, y: &mut [f64]) {
        panel::spmm(&self.view(), x, k, y);
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

    const ALL: [CsrVariant; 5] = [
        CsrVariant::Naive,
        CsrVariant::Vectorized,
        CsrVariant::Balanced,
        CsrVariant::MergePath,
        CsrVariant::Tiles,
    ];

    fn x_for(m: &CsrMatrix) -> Vec<f64> {
        (0..m.cols()).map(|i| (i as f64 * 0.37).sin()).collect()
    }

    #[test]
    fn all_variants_match_dense_at_every_width() {
        let m = test_matrix();
        let d = DenseMatrix::from_csr(&m);
        let x = x_for(&m);
        let want = d.spmv(&x);
        for variant in ALL {
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
        for pinned in [CsrVariant::MergePath, CsrVariant::Tiles] {
            assert_eq!(CsrFormat::with_profile(m.clone(), pinned, wide).lanes(), LaneWidth::W1);
        }
        assert_eq!(CsrFormat::with_profile(m, CsrVariant::Vectorized, wide).lanes(), LaneWidth::W8);
    }

    #[test]
    fn parallel_matches_sequential() {
        let m = test_matrix();
        let x = x_for(&m);
        let pool = ThreadPool::new(4);
        for variant in ALL {
            let f = CsrFormat::new(m.clone(), variant);
            let seq = f.spmv_alloc(&x);
            let mut par = vec![f64::NAN; m.rows()];
            f.spmv_parallel(&pool, &x, &mut par);
            // Row sums are per-row deterministic, so parallel equals
            // sequential bit-for-bit at a fixed profile — except where
            // a carry schedule splits the 40-nonzero row.
            if f.row_schedule().is_some() {
                assert_eq!(par, seq, "{variant:?}");
            }
            for (a, b) in par.iter().zip(&seq) {
                assert!((a - b).abs() < 1e-12, "{variant:?}: {a} vs {b}");
            }
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
        for variant in ALL {
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

    /// The registry's five constructions share the operand's arrays
    /// (not observable through `Box<dyn SparseFormat>`, so they are
    /// repeated here).
    #[test]
    fn every_variant_shares_the_operands_arrays() {
        let m = hot_row_matrix();
        for variant in ALL {
            let f = CsrFormat::with_profile(m.clone(), variant, LaneProfile::current());
            assert_eq!(f.csr().row_ptr().as_ptr(), m.row_ptr().as_ptr(), "{variant:?}");
            assert_eq!(f.csr().col_idx().as_ptr(), m.col_idx().as_ptr(), "{variant:?}");
            assert_eq!(f.csr().values().as_ptr(), m.values().as_ptr(), "{variant:?}");
        }
    }

    #[test]
    fn registry_names_and_bytes_per_kind_are_pinned() {
        use crate::registry::{build_format, FormatKind};
        // 11 × 900, 960 nonzeros: 12·960 + 4·12 bytes of CSR, and for
        // CSR5 eight 128-nnz tiles, 4·(8 + 1) more. Sharing the arrays
        // does not change what a resident format is charged.
        let m = hot_row_matrix();
        for (kind, name, bytes) in [
            (FormatKind::NaiveCsr, "Naive-CSR", 11568usize),
            (FormatKind::VectorizedCsr, "Vectorized-CSR", 11568),
            (FormatKind::BalancedCsr, "Balanced-CSR", 11568),
            (FormatKind::Csr5, "CSR5", 11604),
            (FormatKind::MergeCsr, "Merge-CSR", 11568),
        ] {
            let f = build_format(kind, &m).unwrap();
            assert_eq!((f.name(), f.bytes()), (name, bytes), "{kind:?}");
        }
    }

    // ---- Merge-CSR ----

    fn merge(m: &CsrMatrix) -> CsrFormat {
        CsrFormat::new(m.clone(), CsrVariant::MergePath)
    }

    fn hot_row_matrix() -> CsrMatrix {
        // Row 5 holds 900 of 960 nonzeros: static partitions collapse,
        // merge path must split row 5 across workers.
        let mut t = Vec::new();
        for r in 0..5usize {
            for k in 0..6usize {
                t.push((r, r * 6 + k, 0.5 + r as f64));
            }
        }
        for c in 0..900usize {
            t.push((5usize, c, (c as f64 * 0.01).sin()));
        }
        for r in 6..11usize {
            for k in 0..6usize {
                t.push((r, (r * 31 + k) % 900, -0.25));
            }
        }
        CsrMatrix::from_triplets(11, 900, &t).unwrap()
    }

    #[test]
    fn merge_parallel_matches_dense_on_hot_row() {
        let m = hot_row_matrix();
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.013).cos()).collect();
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        let f = merge(&m);
        for threads in [1, 2, 3, 4, 8, 16] {
            let pool = ThreadPool::new(threads);
            let mut got = vec![f64::NAN; m.rows()];
            f.spmv_parallel(&pool, &x, &mut got);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-9, "threads {threads}, row {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn merge_handles_empty_rows_at_boundaries() {
        // Clusters of empty rows around short full rows.
        let mut t = Vec::new();
        for r in [0usize, 7, 8, 15] {
            t.push((r, r, 1.0 + r as f64));
        }
        let m = CsrMatrix::from_triplets(16, 16, &t).unwrap();
        let x = vec![1.0; 16];
        let want = m.spmv(&x);
        let f = merge(&m);
        for threads in [2, 5, 16] {
            let pool = ThreadPool::new(threads);
            let mut got = vec![f64::NAN; 16];
            f.spmv_parallel(&pool, &x, &mut got);
            assert_eq!(got, want, "threads {threads}");
        }
    }

    #[test]
    fn merge_empty_matrix() {
        let m = CsrMatrix::zeros(4, 4);
        let f = merge(&m);
        let pool = ThreadPool::new(4);
        let mut y = vec![3.0; 4];
        f.spmv_parallel(&pool, &[0.0; 4], &mut y);
        assert_eq!(y, vec![0.0; 4]);
    }

    #[test]
    fn merge_no_preprocessing_footprint_overhead() {
        let m = hot_row_matrix();
        let f = merge(&m);
        assert_eq!(f.bytes(), m.mem_footprint_bytes());
        assert_eq!(f.name(), "Merge-CSR");
        assert_eq!(f.padding_ratio(), 1.0);
    }

    // ---- CSR5 ----

    fn irregular_matrix() -> CsrMatrix {
        let mut t = Vec::new();
        // Hot row + empty rows + regular tail.
        for c in 0..300usize {
            t.push((2usize, c, (c as f64 * 0.02) - 3.0));
        }
        for r in 5..40usize {
            let len = (r * 5) % 9 + 1;
            for k in 0..len {
                t.push((r, (r * 11 + k * 3) % 300, 0.1 * (k as f64 + 1.0)));
            }
        }
        CsrMatrix::from_triplets(40, 300, &t).unwrap()
    }

    #[test]
    fn csr5_tile_rows_are_monotone_and_correct() {
        let m = irregular_matrix();
        let f = CsrFormat::tiled(m.clone(), 32);
        assert_eq!(f.tiles(), m.nnz().div_ceil(32));
        for w in f.tile_row.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // First tile starts in the first non-empty row... offset 0 is
        // contained in row 0 (which may be empty only if row_ptr[1]=0).
        for (t, &r) in f.tile_row.iter().enumerate() {
            let off = (t * 32).min(m.nnz());
            assert!(m.row_ptr()[r as usize] <= off);
            if off < m.nnz() {
                assert!(off < m.row_ptr()[r as usize + 1]);
            }
        }
    }

    #[test]
    fn csr5_parallel_matches_dense() {
        let m = irregular_matrix();
        let x: Vec<f64> = (0..300).map(|i| (i as f64 * 0.017).sin()).collect();
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        for tile in [1, 16, 128] {
            let f = CsrFormat::tiled(m.clone(), tile);
            for threads in [1, 2, 4, 8] {
                let pool = ThreadPool::new(threads);
                let mut got = vec![f64::NAN; 40];
                f.spmv_parallel(&pool, &x, &mut got);
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-9,
                        "tile {tile} threads {threads} row {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn csr5_metadata_increases_footprint_slightly() {
        let m = irregular_matrix();
        let f = CsrFormat::new(m.clone(), CsrVariant::Tiles);
        assert!(f.bytes() > m.mem_footprint_bytes());
        let overhead = f.bytes() - m.mem_footprint_bytes();
        assert!(overhead < m.mem_footprint_bytes() / 10, "overhead {overhead}");
        assert_eq!(f.name(), "CSR5");
    }

    #[test]
    fn csr5_empty_matrix() {
        let m = CsrMatrix::zeros(4, 4);
        let f = CsrFormat::new(m, CsrVariant::Tiles);
        assert_eq!(f.tiles(), 0);
        let pool = ThreadPool::new(2);
        let mut y = vec![5.0; 4];
        f.spmv_parallel(&pool, &[0.0; 4], &mut y);
        assert_eq!(y, vec![0.0; 4]);
    }
}
