//! CSR storage and the ways the study runs it. The three CSR SpMV
//! implementations of the paper's CPU testbeds (Fig. 7):
//! **Naive-CSR** (static row chunks, pinned to the scalar summation
//! order — it *is* the baseline), **Vectorized-CSR** (static row chunks
//! with the lane-unrolled gather-dot kernel, standing in for the AVX2
//! kernels of the paper), and **Balanced-CSR** (nnz-balanced row
//! chunks — "adds nonzero balancing (row resolution)" — on the same
//! lane kernel). And the names of its two CSR extensions (§II-B.5),
//! **Merge-CSR** (Merrill & Garland, SC'16) and **CSR5** (Liu & Vinter,
//! ICS'15), which split *nonzeros* rather than rows on a wide pool:
//! here they are figure-set names that run Naive-CSR's rows on the
//! static schedule, and CSR5 is charged the 4-byte row pointer of each
//! of its 128-nonzero tiles.
//!
//! Naive-CSR's order is W1, [`CsrMatrix::spmv_into`]'s: one sequential
//! sum per row. Built at a vector profile it runs that order on the
//! vector unit, consecutive rows across the lanes (Kreutzer et al.'s
//! SELL-C-σ layout, read in place), bit-identical to the scalar loop it
//! runs at [`LaneProfile::scalar`].
//!
//! The kinds differ in schedule and lane width, not in storage: every
//! [`CsrFormat`] holds a [`CsrMatrix`] clone, which shares the
//! operand's arrays. All inner loops live in [`crate::kernels::dot`]
//! (SpMV) and [`crate::kernels::panel`] (SpMM), reached through the
//! format's [`CsrRows`] view; this file only holds scheduling and the
//! lane-width policy per variant. The engine serves two of them
//! (Naive-CSR and Balanced-CSR, see
//! [`FormatKind::served_as`](crate::FormatKind::served_as)); the other
//! three answer [`WireError::NotServed`] on the wire.

use crate::driver;
use crate::kernels::dot::CsrRows;
use crate::kernels::{panel, LaneProfile, LaneWidth};
use crate::traits::SparseFormat;
use crate::wire::{self, SectionWriter, WireError};
use spmv_core::CsrMatrix;
use spmv_parallel::{Schedule, ThreadPool};

/// CSR5's tile size in nonzeros (ω·σ of the original design): what its
/// tile row pointer, 4 bytes per tile, is charged at.
const CSR5_TILE_NNZ: usize = 128;

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
    /// Merge-CSR's name: scalar loop, static row partition.
    MergePath,
    /// CSR5's name: scalar loop, static row partition.
    Tiles,
}

/// CSR storage plus a kernel-variant tag, resolved lane width and
/// whether the rows may run on the vector unit.
pub struct CsrFormat {
    matrix: CsrMatrix,
    variant: CsrVariant,
    lanes: LaneWidth,
    vector: bool,
}

impl CsrFormat {
    /// Wraps a CSR matrix with the chosen kernel variant, resolving
    /// lanes from the process-wide [`LaneProfile::current`].
    pub fn new(matrix: CsrMatrix, variant: CsrVariant) -> Self {
        Self::with_profile(matrix, variant, LaneProfile::current())
    }

    /// Wraps a CSR matrix with an explicit lane profile. Only the
    /// Vectorized and Balanced variants take the profile's width as
    /// their order: Naive-CSR is the baseline the other kernels are
    /// measured against, and Merge-CSR and CSR5 run its order, W = 1,
    /// the summation order of [`CsrMatrix::spmv_into`] — on the vector
    /// unit at a vector profile, in the scalar loop at
    /// [`LaneProfile::scalar`]. Nothing is preprocessed.
    pub fn with_profile(matrix: CsrMatrix, variant: CsrVariant, profile: LaneProfile) -> Self {
        let lanes = match variant {
            CsrVariant::Vectorized | CsrVariant::Balanced => profile.width,
            CsrVariant::Naive | CsrVariant::MergePath | CsrVariant::Tiles => LaneWidth::W1,
        };
        Self { matrix, variant, lanes, vector: profile.width != LaneWidth::W1 }
    }

    /// The engine's CSR path: Balanced-CSR's nnz-balanced schedule over
    /// Naive-CSR's order — [`CsrMatrix::spmv_into`]'s sums bit for bit
    /// in every kernel — run at `profile` as Naive-CSR runs it.
    pub fn balanced_in_order(matrix: CsrMatrix, profile: LaneProfile) -> Self {
        Self { lanes: LaneWidth::W1, ..Self::with_profile(matrix, CsrVariant::Balanced, profile) }
    }

    /// Borrow of the underlying CSR matrix.
    pub fn csr(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The lane width this instance sums its rows at.
    pub fn lanes(&self) -> LaneWidth {
        self.lanes
    }

    fn view(&self) -> CsrRows<'_> {
        CsrRows { vector: self.vector, ..CsrRows::of(self.lanes, &self.matrix) }
    }

    /// The row partition: nnz-balanced for Balanced-CSR, static for
    /// every other variant.
    fn row_schedule(&self) -> Schedule<'_> {
        match self.variant {
            CsrVariant::Balanced => Schedule::Balanced { prefix: self.matrix.row_ptr() },
            _ => Schedule::Static { items: self.rows() },
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
        // CSR arrays + CSR5's 4-byte tile row pointers, one past the
        // last tile.
        let tile_ptrs = if self.variant == CsrVariant::Tiles {
            self.nnz().div_ceil(CSR5_TILE_NNZ) + 1
        } else {
            0
        };
        self.matrix.mem_footprint_bytes() + 4 * tile_ptrs
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        driver::spmv(&self.view(), x, y);
    }

    fn spmv_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        driver::spmv_parallel(&self.view(), self.row_schedule(), pool, x, y);
    }

    fn spmv_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        driver::spmv_dot(&self.view(), x, y)
    }

    fn spmv_dot_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) -> f64 {
        driver::spmv_dot_parallel(&self.view(), self.row_schedule(), pool, x, y)
    }

    fn encode_payload(&self, out: &mut SectionWriter) -> Result<(), WireError> {
        if let CsrVariant::Vectorized | CsrVariant::MergePath | CsrVariant::Tiles = self.variant {
            // Served as Balanced-CSR, so never snapshotted under its own tag.
            return Err(WireError::NotServed(wire::kind_named(self.name())?));
        }
        wire::encode_csr(&self.matrix, out);
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

    // ---- Merge-CSR: a name for Naive-CSR's rows on the static schedule ----

    fn merge(m: &CsrMatrix) -> CsrFormat {
        CsrFormat::new(m.clone(), CsrVariant::MergePath)
    }

    fn hot_row_matrix() -> CsrMatrix {
        // Row 5 holds 900 of 960 nonzeros: one worker gets all of it.
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

    // ---- CSR5: the same, charged its tile row pointers ----

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
    fn csr5_parallel_matches_dense() {
        let m = irregular_matrix();
        let x: Vec<f64> = (0..300).map(|i| (i as f64 * 0.017).sin()).collect();
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        let f = CsrFormat::new(m, CsrVariant::Tiles);
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let mut got = vec![f64::NAN; 40];
            f.spmv_parallel(&pool, &x, &mut got);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-9, "threads {threads} row {i}: {a} vs {b}");
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
        assert_eq!(f.bytes(), CsrMatrix::zeros(4, 4).mem_footprint_bytes() + 4);
        let pool = ThreadPool::new(2);
        let mut y = vec![5.0; 4];
        f.spmv_parallel(&pool, &[0.0; 4], &mut y);
        assert_eq!(y, vec![0.0; 4]);
    }
}
