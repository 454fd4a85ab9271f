//! Kernels for the two padded layouts: the column-major ELL slab
//! ([`Slab`]: `width × rows`, entry (r, j) at `j * rows + r`) and
//! SELL-C-σ's chunk-major slabs ([`SellChunks`]: chunk `k` stores its C
//! packed rows column-major, entry (lane i, slot j) at
//! `chunk_ptr[k] + j*C + i`, padded to the chunk's own widest row).
//! ELLPACK is SELL-N-1 (Kreutzer et al.), and both run on one
//! primitive: a [`Window`] of at most [`ACC_STACK`] adjacent lanes of a
//! strided [`Block`], each lane a slot-sequential sum. The layouts differ
//! only in how a unit range maps to windows and rows ([`Padded`]):
//!
//! | view | stride | unit | row of packed position `p` |
//! |---|---|---|---|
//! | [`Slab`] | `rows` | row | `p` |
//! | [`SellChunks`] | `C` | chunk | `perm[p]`, none past the last row |
//!
//! Each lane owns exactly one row and its additions are slot-sequential,
//! so results are **bit-identical across lane widths** and across the
//! scalar and vector bodies; W only says whether the vector unit may be
//! used. On x86-64 hosts with AVX2 or AVX-512 every W > 1 sums a window
//! in blocks of 16, 8 and 4 lanes on the vector unit (`super::x86`);
//! [`Block::sums`] is the scalar body. The multi-vector kernel over
//! the same windows is the views' `PanelKernel` block in
//! [`super::panel`]. SELL-C-σ's conversion builds its chunk slabs from
//! a `SellPlan`, on the vector unit where `sell_transpose` can.

use super::dot::CsrRows;
use super::{LaneWidth, View};
use spmv_parallel::{DisjointWriter, Schedule};
use std::ops::Range;

/// Lanes per window: the row sums of one window sit in a stack buffer
/// between being computed (blockwise) and being written (in packed
/// order). Solver iterations over padded formats therefore never
/// allocate. Chunks taller than this (unusual — the device profiles
/// pick C ≤ 32) are several windows.
pub(super) const ACC_STACK: usize = 64;

/// A column-major block of `slots` slot rows: lane `i` of slot `j`
/// lives at `j * stride + i` (a whole ELL slab: `stride = rows`; one
/// SELL chunk: `stride = C`).
pub(super) struct Block<'a> {
    /// Column of every slot.
    pub cols: &'a [u32],
    /// Value of every slot.
    pub vals: &'a [f64],
    /// Distance between the slot rows of one lane.
    pub stride: usize,
    /// Slot rows.
    pub slots: usize,
}

impl Block<'_> {
    /// The scalar body: `acc[i]` = the slot-sequential sum of lane
    /// `at + i`, the lanes walked slot by slot.
    #[inline(always)]
    pub(super) fn sums(&self, at: usize, x: &[f64], acc: &mut [f64]) {
        if let [a] = acc {
            // One lane (a scalar-profile ELL row) is a strided walk in a
            // register: clearing and slicing a one-entry slot row per
            // slot more than doubles its cost.
            let mut sum = 0.0;
            for slot in 0..self.slots {
                let p = slot * self.stride + at;
                sum += self.vals[p] * x[self.cols[p] as usize];
            }
            *a = sum;
            return;
        }
        acc.fill(0.0);
        let n = acc.len();
        for slot in 0..self.slots {
            let p = slot * self.stride + at;
            let (cols, vals) = (&self.cols[p..][..n], &self.vals[p..][..n]);
            for i in 0..n {
                acc[i] += vals[i] * x[cols[i] as usize];
            }
        }
    }
}

/// At most [`ACC_STACK`] adjacent lanes of a [`Block`].
pub(super) struct Window<'a> {
    /// The block the lanes belong to.
    pub block: &'a Block<'a>,
    /// The window's first lane inside the block.
    pub at: usize,
    /// Lanes in the window.
    pub lanes: usize,
    /// Packed position of the window's first lane — what
    /// [`Padded::row`] maps to a matrix row.
    pub packed: usize,
}

/// A padded layout: what [`Slab`] and [`SellChunks`] differ in.
pub(super) trait Padded {
    /// Lane width of the single-vector kernel.
    fn lane_width(&self) -> LaneWidth;
    /// Matrix `(rows, cols)`.
    fn shape(&self) -> (usize, usize);
    /// Units of the layout: what `for_windows` ranges over.
    fn unit_count(&self) -> usize;
    /// Lanes per window of the scalar body (at most [`ACC_STACK`]).
    fn scalar_window(&self) -> usize;
    /// Calls `f` on the windows covering `units`, each at most `cap`
    /// lanes, in packed order.
    fn for_windows(&self, units: Range<usize>, cap: usize, f: impl FnMut(Window<'_>));
    /// The matrix row packed position `p` holds; `None` for the padding
    /// lanes of a final partial chunk.
    fn row(&self, p: usize) -> Option<usize>;
}

/// Writes a window's row sums through the layout's row map; with `DOT`,
/// continues the fused-dot chain `partial += x[r] · out[r]` in packed
/// order.
#[inline]
pub(super) fn scatter<const DOT: bool, P: Padded>(
    layout: &P,
    packed: usize,
    acc: &[f64],
    x: &[f64],
    out: &DisjointWriter<'_>,
    partial: &mut f64,
) {
    for (i, &a) in acc.iter().enumerate() {
        if let Some(r) = layout.row(packed + i) {
            out.write(r, a);
            if DOT {
                *partial += x[r] * a;
            }
        }
    }
}

/// The scalar body of both layouts and both flavours; returns the
/// fused-dot partial (0.0 without `DOT`).
pub(super) fn run_scalar<const DOT: bool, P: Padded>(
    layout: &P,
    units: Range<usize>,
    x: &[f64],
    out: &DisjointWriter<'_>,
) -> f64 {
    let mut stack = [0.0f64; ACC_STACK];
    let mut partial = 0.0;
    layout.for_windows(units, layout.scalar_window(), |w| {
        let acc = &mut stack[..w.lanes];
        w.block.sums(w.at, x, acc);
        scatter::<DOT, P>(layout, w.packed, acc, x, out, &mut partial);
    });
    partial
}

/// A column-major ELL slab (`width × rows`, entry (r, j) at
/// `j * rows + r`); a unit is a row.
///
/// With `DOT` the partial accumulates in ascending row order, so fused
/// and spmv-then-dot agree bit-for-bit at a fixed chunking (and, since
/// slab row sums are width-independent, at *every* lane width).
#[derive(Clone, Copy)]
pub struct Slab<'a> {
    /// Lane width of the single-vector kernel.
    pub lanes: LaneWidth,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Slots per row.
    pub width: usize,
    /// Column of every slot (padding: a column the row already reads).
    pub col_idx: &'a [u32],
    /// Value of every slot (padding: 0.0, a harmless addition).
    pub values: &'a [f64],
}

impl Slab<'_> {
    /// Lane-aligned static row chunks: only the last chunk can see a
    /// partial lane block.
    pub fn schedule(&self) -> Schedule<'static> {
        Schedule::StaticAligned { items: self.rows, align: self.lanes.lanes() }
    }
}

impl Padded for Slab<'_> {
    fn lane_width(&self) -> LaneWidth {
        self.lanes
    }

    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn unit_count(&self) -> usize {
        self.rows
    }

    /// The lane width is the scalar body's row blocking: W rows walk
    /// the slots together. (Whole 64-row windows read each slot row's
    /// cache lines once, not once per W rows, and measured 1.3–2.7×
    /// faster at 32 MB — as fast as the vector body there, which
    /// `kernel_throughput` holds to ≥ 0.9× its scalar twin; the blocking
    /// is left as it was until that yardstick is settled.)
    fn scalar_window(&self) -> usize {
        self.lanes.lanes()
    }

    #[inline(always)]
    fn for_windows(&self, rows: Range<usize>, cap: usize, mut f: impl FnMut(Window<'_>)) {
        let block =
            Block { cols: self.col_idx, vals: self.values, stride: self.rows, slots: self.width };
        let mut at = rows.start;
        while at < rows.end {
            let lanes = cap.min(rows.end - at);
            f(Window { block: &block, at, lanes, packed: at });
            at += lanes;
        }
    }

    #[inline(always)]
    fn row(&self, p: usize) -> Option<usize> {
        Some(p)
    }
}

/// SELL-C-σ chunk slabs (entry (lane i, slot j) of chunk `n` at
/// `chunk_ptr[n] + j*C + i`), scattered through `perm`; a unit is a
/// chunk.
///
/// Unlike the CSR and ELL views, with `DOT` the partial accumulates in
/// **packed (perm) order**, not ascending-row order, so fused and
/// spmv-then-dot agree only to floating-point tolerance; at a fixed
/// σ-permutation and chunking the order is fixed and reproducible.
#[derive(Clone, Copy)]
pub struct SellChunks<'a> {
    /// Lane width of the single-vector kernel.
    pub lanes: LaneWidth,
    /// Chunk height C.
    pub c: usize,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// `perm[packed position] = original row`.
    pub perm: &'a [u32],
    /// Start of each chunk's slab (`chunks + 1`).
    pub chunk_ptr: &'a [usize],
    /// Slots per lane of each chunk.
    pub chunk_width: &'a [u32],
    /// Column of every slot (padding: a column the row already reads).
    pub col_idx: &'a [u32],
    /// Value of every slot (padding: 0.0).
    pub values: &'a [f64],
}

/// What a SELL-C-σ conversion fills its slot arrays from: the CSR rows
/// (at the conversion's lane width) and the chunk geometry it sized.
/// Chunk `k` holds the rows `perm[k·C..]`, `chunk_width[k]` slot rows
/// of C lanes; `stored` slots in all.
pub(crate) struct SellPlan<'a> {
    /// The rows, and the lane width the format will run at.
    pub rows: CsrRows<'a>,
    /// Chunk height C.
    pub c: usize,
    /// `perm[packed position] = original row`.
    pub perm: &'a [u32],
    /// Slots per lane of each chunk.
    pub chunk_width: &'a [u32],
    /// Slots of all chunks.
    pub stored: usize,
}

/// The `(col_idx, values)` slot arrays of `plan` transposed on the
/// host's vector unit; `None` where the caller must scatter them itself
/// (W1, a host without one, a C the transpose has no blocks for).
pub(crate) fn sell_transpose(plan: &SellPlan<'_>) -> Option<(Vec<u32>, Vec<f64>)> {
    #[cfg(target_arch = "x86_64")]
    {
        super::x86::sell_transpose(super::host_isa(), plan)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = plan;
        None
    }
}

impl<'a> SellChunks<'a> {
    /// Chunks own disjoint packed rows, so a chunk partition is a
    /// disjoint row partition (via the injective `perm`); balanced by
    /// stored entries, the chunk pointer being the weight prefix.
    pub fn schedule(&self) -> Schedule<'a> {
        Schedule::Balanced { prefix: self.chunk_ptr }
    }
}

impl Padded for SellChunks<'_> {
    fn lane_width(&self) -> LaneWidth {
        self.lanes
    }

    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn unit_count(&self) -> usize {
        self.chunk_width.len()
    }

    /// A chunk is walked whole, slot by slot.
    fn scalar_window(&self) -> usize {
        ACC_STACK
    }

    #[inline(always)]
    fn for_windows(&self, chunks: Range<usize>, cap: usize, mut f: impl FnMut(Window<'_>)) {
        for k in chunks {
            let slots = self.chunk_width[k] as usize;
            let (lo, hi) = (self.chunk_ptr[k], self.chunk_ptr[k] + slots * self.c);
            let block = Block {
                cols: &self.col_idx[lo..hi],
                vals: &self.values[lo..hi],
                stride: self.c,
                slots,
            };
            // Nearly always one window: C ≤ ACC_STACK.
            let mut at = 0;
            while at < self.c {
                let lanes = cap.min(self.c - at);
                f(Window { block: &block, at, lanes, packed: k * self.c + at });
                at += lanes;
            }
        }
    }

    #[inline(always)]
    fn row(&self, p: usize) -> Option<usize> {
        (p < self.rows).then(|| self.perm[p] as usize)
    }
}

/// Takes the host's vector unit when the layout's width allows one,
/// else the scalar body.
impl<P: Padded> View for P {
    fn rows(&self) -> usize {
        self.shape().0
    }

    fn cols(&self) -> usize {
        self.shape().1
    }

    fn units(&self) -> usize {
        self.unit_count()
    }

    fn run<const DOT: bool>(
        &self,
        units: Range<usize>,
        x: &[f64],
        out: &DisjointWriter<'_>,
    ) -> f64 {
        #[cfg(target_arch = "x86_64")]
        if let Some(partial) =
            super::x86::windows::<DOT, P>(super::host_isa(), self, units.clone(), x, out)
        {
            return partial;
        }
        run_scalar::<DOT, P>(self, units, x, out)
    }
}

#[cfg(test)]
mod tests {
    use super::super::panel;
    use super::*;

    /// 5-row, width-3 slab over 7 columns with irregular column picks;
    /// col 0 pads.
    fn slab() -> (usize, usize, Vec<u32>, Vec<f64>) {
        let rows = 5;
        let width = 3;
        let mut col = vec![0u32; width * rows];
        let mut val = vec![0.0f64; width * rows];
        let entries = [
            (0usize, 0usize, 2u32, 1.5),
            (0, 1, 5, -2.0),
            (0, 2, 6, 0.25),
            (1, 0, 1, 3.0),
            (3, 0, 0, -1.0),
            (3, 1, 6, 4.0),
            (4, 0, 3, 0.5),
        ];
        for (r, j, c, v) in entries {
            col[j * rows + r] = c;
            val[j * rows + r] = v;
        }
        (rows, width, col, val)
    }

    #[test]
    fn all_widths_are_bit_identical() {
        let (rows, width, col, val) = slab();
        let x: Vec<f64> = (0..7).map(|i| (i as f64 * 0.61).sin() + 1.0).collect();
        let at = |lanes| Slab { lanes, rows, cols: 7, width, col_idx: &col, values: &val };
        let mut want = vec![f64::NAN; rows];
        {
            let out = DisjointWriter::new(&mut want);
            at(LaneWidth::W1).run::<false>(0..rows, &x, &out);
        }
        for lanes in [LaneWidth::W4, LaneWidth::W8] {
            let mut y = vec![f64::NAN; rows];
            {
                let out = DisjointWriter::new(&mut y);
                at(lanes).run::<false>(0..rows, &x, &out);
            }
            assert_eq!(y, want, "{lanes:?}");
        }
    }

    #[test]
    fn unaligned_ranges_cover_every_row_exactly_once() {
        let (rows, width, col, val) = slab();
        let x = vec![1.0; 7];
        let m = Slab { lanes: LaneWidth::W4, rows, cols: 7, width, col_idx: &col, values: &val };
        let mut whole = vec![f64::NAN; rows];
        {
            let out = DisjointWriter::new(&mut whole);
            m.run::<false>(0..rows, &x, &out);
        }
        // Split at 3 (not a multiple of 4): remainder paths must agree.
        let mut split = vec![f64::NAN; rows];
        {
            let out = DisjointWriter::new(&mut split);
            m.run::<false>(0..3, &x, &out);
            m.run::<false>(3..rows, &x, &out);
        }
        assert_eq!(split, whole);
    }

    #[test]
    fn fused_dot_matches_spmv_then_dot_bitwise() {
        let (rows, width, col, val) = slab();
        let x: Vec<f64> = (0..7).map(|i| (i as f64 * 0.43).cos() + 0.7).collect();
        for lanes in LaneWidth::ALL {
            let m = Slab { lanes, rows, cols: 7, width, col_idx: &col, values: &val };
            let mut y = vec![f64::NAN; rows];
            {
                let out = DisjointWriter::new(&mut y);
                m.run::<false>(0..rows, &x, &out);
            }
            let mut want = 0.0;
            for r in 0..rows {
                want += x[r] * y[r];
            }
            let mut fused = vec![f64::NAN; rows];
            let got = {
                let out = DisjointWriter::new(&mut fused);
                m.run::<true>(0..rows, &x, &out)
            };
            assert_eq!(fused, y, "{lanes:?}");
            assert_eq!(got, want, "{lanes:?}");
        }
    }

    #[test]
    fn spmm_matches_repeated_spmv_bitwise() {
        let (rows, width, col, val) = slab();
        let cols = 7;
        // 13 = a panel block of 8, a block of 4 and one plain column.
        for k in [3usize, 13] {
            let x: Vec<f64> = (0..cols * k).map(|i| (i as f64 * 0.29).cos()).collect();
            for lanes in LaneWidth::ALL {
                let m = Slab { lanes, rows, cols, width, col_idx: &col, values: &val };
                let mut y = vec![f64::NAN; rows * k];
                panel::spmm(&m, &x, k, &mut y);
                for j in 0..k {
                    let mut want = vec![f64::NAN; rows];
                    {
                        let out = DisjointWriter::new(&mut want);
                        m.run::<false>(0..rows, &x[j * cols..(j + 1) * cols], &out);
                    }
                    assert_eq!(&y[j * rows..(j + 1) * rows], &want[..], "{lanes:?} k {k} rhs {j}");
                }
            }
        }
    }

    /// The SELL-C-σ view (moved with `kernels/chunk.rs`).
    mod chunk {
        use super::super::super::panel;
        use super::super::*;

        /// Two chunks of C = 3 over 5 rows and 4 columns (last chunk has
        /// one padding lane), widths 2 and 1, identity-ish perm with a swap.
        struct Fixture {
            c: usize,
            rows: usize,
            perm: Vec<u32>,
            chunk_ptr: Vec<usize>,
            chunk_width: Vec<u32>,
            col_idx: Vec<u32>,
            values: Vec<f64>,
        }

        fn fixture() -> Fixture {
            let c = 3;
            let rows = 5;
            let perm = vec![1u32, 0, 2, 4, 3];
            let chunk_ptr = vec![0usize, 6, 9];
            let chunk_width = vec![2u32, 1];
            // chunk 0: slots j=0 (lanes 0..3) then j=1; chunk 1: one slot.
            let col_idx = vec![0u32, 1, 2, 3, 0, 1, 2, 3, 0];
            let values = vec![1.0, 2.0, -1.0, 0.5, 0.0, 1.5, 3.0, -2.0, 0.0];
            Fixture { c, rows, perm, chunk_ptr, chunk_width, col_idx, values }
        }

        impl Fixture {
            fn view(&self, lanes: LaneWidth) -> SellChunks<'_> {
                SellChunks {
                    lanes,
                    c: self.c,
                    rows: self.rows,
                    cols: 4,
                    perm: &self.perm,
                    chunk_ptr: &self.chunk_ptr,
                    chunk_width: &self.chunk_width,
                    col_idx: &self.col_idx,
                    values: &self.values,
                }
            }
        }

        #[test]
        fn all_widths_including_w_wider_than_c_are_bit_identical() {
            let f = fixture();
            let x: Vec<f64> = (0..4).map(|i| (i as f64 * 0.83).sin() + 2.0).collect();
            let mut want = vec![f64::NAN; f.rows];
            {
                let out = DisjointWriter::new(&mut want);
                f.view(LaneWidth::W1).run::<false>(0..2, &x, &out);
            }
            assert!(want.iter().all(|v| v.is_finite()), "every row written");
            // W = 4 and W = 8 exceed C = 3: the scalar remainder path must
            // cover the whole lane loop and still agree exactly.
            for lanes in [LaneWidth::W4, LaneWidth::W8] {
                let mut y = vec![f64::NAN; f.rows];
                {
                    let out = DisjointWriter::new(&mut y);
                    f.view(lanes).run::<false>(0..2, &x, &out);
                }
                assert_eq!(y, want, "{lanes:?}");
            }
        }

        #[test]
        fn fused_dot_matches_spmv_then_dot_within_tolerance() {
            let f = fixture();
            // Square-shaped operand: x serves both the gather (cols < 4)
            // and the row-indexed dot (rows = 5).
            let x: Vec<f64> = (0..5).map(|i| (i as f64 * 0.59).sin() + 1.1).collect();
            for lanes in LaneWidth::ALL {
                let mut y = vec![f64::NAN; f.rows];
                {
                    let out = DisjointWriter::new(&mut y);
                    f.view(lanes).run::<false>(0..2, &x, &out);
                }
                let want: f64 = (0..f.rows).map(|r| x[r] * y[r]).sum();
                let mut fused = vec![f64::NAN; f.rows];
                let got = {
                    let out = DisjointWriter::new(&mut fused);
                    f.view(lanes).run::<true>(0..2, &x, &out)
                };
                assert_eq!(fused, y, "{lanes:?}");
                assert!((got - want).abs() <= 1e-12 * (1.0 + want.abs()), "{lanes:?}");
            }
        }

        #[test]
        fn spmm_matches_repeated_spmv_bitwise() {
            let f = fixture();
            let cols = 4;
            // 13 = a panel block of 8, a block of 4 and one plain column.
            for k in [2usize, 13] {
                let x: Vec<f64> = (0..cols * k).map(|i| (i as f64 * 0.47).cos() - 0.5).collect();
                for lanes in LaneWidth::ALL {
                    let m = f.view(lanes);
                    let mut y = vec![f64::NAN; f.rows * k];
                    panel::spmm(&m, &x, k, &mut y);
                    for j in 0..k {
                        let mut want = vec![f64::NAN; f.rows];
                        {
                            let out = DisjointWriter::new(&mut want);
                            f.view(lanes).run::<false>(0..2, &x[j * cols..(j + 1) * cols], &out);
                        }
                        assert_eq!(
                            &y[j * f.rows..(j + 1) * f.rows],
                            &want[..],
                            "{lanes:?} k {k} rhs {j}"
                        );
                    }
                }
            }
        }
    }
}
