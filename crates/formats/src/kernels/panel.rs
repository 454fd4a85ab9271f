//! Panel SpMM: `Y = A·X` for `k` right-hand sides with the *k*
//! dimension — the one being vectorized — contiguous in memory.
//!
//! The caller's `X` is column-major (`cols × k`), so the `k` values a
//! nonzero in column `c` multiplies sit `cols · 8` bytes apart. Each
//! call therefore **packs** `X` into a row-major *panel*, one block of
//! `BLOCK` = 8 right-hand sides at a time: panel row `c` holds
//! `X[c, j0 .. j0+8]` in one 64-byte line, and a gathered `X` row costs
//! one line instead of eight. A block kernel keeps one accumulator of
//! `KB` right-hand sides per lane: every loaded `(value, column)` pair
//! multiplies the whole panel row into it, and the `KB` output columns
//! are written as `KB` sequential streams. For CSR rows there are `W`
//! lanes per row, `W` the lane width, because it fixes the summation
//! order; slab and chunk kernels, whose order does not depend on it,
//! move as many rows in lockstep as keep the accumulators in registers.
//! `k` is consumed as blocks of 8, then one block of 4, then single
//! columns, which run the layout's own SpMV kernel — so `k == 1` *is*
//! `spmv`.
//!
//! On x86-64 hosts with AVX2 or AVX-512 the blocks run on the vector
//! unit (`super::x86`) at every lane width: an accumulator is one
//! vector (a block of 8 is one 512-bit register, 2 × 256-bit on AVX2; a
//! block of 4 one 256-bit register), and a nonzero costs one load of
//! its panel row, one broadcast of its value, one `vmulpd` and one
//! `vaddpd`. The const-generic `<W, KB>` bodies below are the scalar
//! path of other hosts and the oracle of the vector one.
//!
//! The panel lives in a per-thread, grow-only scratch (one
//! `cols × 8` block, reused by every block of every call on the
//! thread): a fresh 32 MB panel per call costs more in `mmap` and page
//! faults than the kernel it feeds. Steady-state SpMM allocates
//! nothing.
//!
//! | layout | panel kernel | formats |
//! |---|---|---|
//! | CSR rows | [`CsrRows`] | Naive/Vectorized/Balanced-CSR, Merge-CSR, CSR5, the engine's CSR path |
//! | ELL slab | [`Slab`](super::slab::Slab) | ELL |
//! | SELL-C-σ chunks | [`SellChunks`](super::slab::SellChunks) | SELL-C-s, SELL-4-s, SELL-16-s |
//!
//! HYB and the figure-set formats (COO, DIA, BCSR, VSL, SparseX) have
//! no panel kernel; they keep the trait's default loop of `k` SpMVs.
//!
//! ## Determinism
//!
//! Per (row, right-hand side) the summation order is exactly the
//! layout's SpMV order at the same [`LaneWidth`] — for CSR rows, `W`
//! lane accumulators over the full chunks, `tree_sum`, plus the
//! sequential tail; for slab and chunk layouts, one slot-sequential
//! accumulator per row — on the scalar and the vector path alike (a
//! multiply, then an add; never FMA). SpMM therefore equals `k` SpMVs
//! **bit-for-bit**.

use super::dot::CsrRows;
use super::slab::{Padded, Window, ACC_STACK};
use super::{tree_sum, LaneWidth, View};
use spmv_parallel::DisjointWriter;
use std::cell::RefCell;

/// Right-hand sides per full panel block: 8 doubles, one cache line
/// per gathered panel row.
const BLOCK: usize = 8;
/// The narrower block that takes `4 ≤ k mod 8`.
const HALF_BLOCK: usize = 4;
/// Panel rows start on cache-line boundaries.
const LINE_BYTES: usize = 64;

thread_local! {
    /// The calling thread's panel storage. Grow-only: it settles at
    /// `8 · max cols` doubles for the widest matrix the thread serves.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on `len` line-aligned doubles of the thread's scratch.
/// Contents are whatever the previous call left there.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    // Taken, not borrowed: a nested call would find an empty scratch
    // and allocate its own instead of panicking on a double borrow.
    let mut buf = SCRATCH.take();
    let slack = LINE_BYTES / std::mem::size_of::<f64>() - 1;
    if buf.len() < len + slack {
        buf.resize(len + slack, 0.0);
    }
    let start = buf.as_ptr().align_offset(LINE_BYTES).min(slack);
    let out = f(&mut buf[start..start + len]);
    SCRATCH.set(buf);
    out
}

/// Capacity of the calling thread's scratch, in doubles.
#[cfg(test)]
fn scratch_capacity() -> usize {
    SCRATCH.with_borrow(Vec::capacity)
}

/// Transposes `KB` columns of a column-major block into the row-major
/// panel: `panel[c·KB + j] = x[j·cols + c]`.
fn pack<const KB: usize>(x: &[f64], cols: usize, panel: &mut [f64]) {
    let columns: [&[f64]; KB] = std::array::from_fn(|j| &x[j * cols..(j + 1) * cols]);
    for (c, row) in panel.chunks_exact_mut(KB).enumerate() {
        for (slot, column) in row.iter_mut().zip(&columns) {
            *slot = column[c];
        }
    }
}

/// Panel row `col`: the `KB` right-hand-side values of one `X` row.
#[inline(always)]
fn panel_row<const KB: usize>(panel: &[f64], col: u32) -> &[f64; KB] {
    let base = col as usize * KB;
    panel[base..base + KB].try_into().expect("a panel row is KB wide")
}

/// `acc[j] += v · row[j]` for the `KB` right-hand sides of one nonzero.
#[inline(always)]
fn fma_row<const KB: usize>(acc: &mut [f64; KB], v: f64, row: &[f64; KB]) {
    for (a, &x) in acc.iter_mut().zip(row) {
        *a += v * x;
    }
}

/// A storage layout that can multiply against a packed panel.
pub(crate) trait PanelKernel {
    /// Matrix `(rows, cols)`; the panel has `cols` rows.
    fn shape(&self) -> (usize, usize);
    /// `out[j][r] = Σ A[r, c] · panel[c·KB + j]` for every row `r`;
    /// `out` holds the `KB` output columns, each `rows` long and fully
    /// overwritten.
    fn block<const KB: usize>(&self, panel: &[f64], out: [&mut [f64]; KB]);
    /// One right-hand side: the layout's own SpMV.
    fn column(&self, x: &[f64], y: &mut [f64]);
}

/// Packs `KB` columns of `x` into the scratch panel and runs the block
/// kernel into the matching `KB` columns of `y`.
fn run_block<K: PanelKernel, const KB: usize>(kernel: &K, x: &[f64], y: &mut [f64]) {
    let (rows, cols) = kernel.shape();
    with_scratch(cols * KB, |panel| {
        pack::<KB>(x, cols, panel);
        let mut columns = y.chunks_exact_mut(rows);
        let out = std::array::from_fn(|_| columns.next().expect("y holds KB columns"));
        kernel.block::<KB>(panel, out);
    });
}

/// `Y = A·X` for a column-major `cols × k` block `x` into the
/// column-major `rows × k` block `y` (fully overwritten).
pub(crate) fn spmm<K: PanelKernel>(kernel: &K, x: &[f64], k: usize, y: &mut [f64]) {
    let (rows, cols) = kernel.shape();
    assert_eq!(x.len(), cols * k, "x must be a column-major cols × k block");
    assert_eq!(y.len(), rows * k, "y must be a column-major rows × k block");
    if rows == 0 {
        return;
    }
    let mut j = 0;
    while k - j >= BLOCK {
        run_block::<K, BLOCK>(kernel, &x[j * cols..(j + BLOCK) * cols], &mut y[j * rows..]);
        j += BLOCK;
    }
    if k - j >= HALF_BLOCK {
        run_block::<K, HALF_BLOCK>(
            kernel,
            &x[j * cols..(j + HALF_BLOCK) * cols],
            &mut y[j * rows..],
        );
        j += HALF_BLOCK;
    }
    for j in j..k {
        kernel.column(&x[j * cols..(j + 1) * cols], &mut y[j * rows..(j + 1) * rows]);
    }
}

/// The order of [`dot`](super::dot)'s `dot_w::<W>`, `KB` right-hand
/// sides at a time: lane `l` owns products `l, l+W, …` of the full
/// chunks.
fn csr_block_w<const W: usize, const KB: usize>(
    m: &CsrRows<'_>,
    panel: &[f64],
    out: &mut [&mut [f64]; KB],
) {
    for (r, bounds) in m.row_ptr.windows(2).enumerate() {
        let cols = &m.col_idx[bounds[0]..bounds[1]];
        let vals = &m.values[bounds[0]..bounds[1]];
        let mut acc = [[0.0f64; KB]; W];
        let (mut col_chunks, mut val_chunks) = (cols.chunks_exact(W), vals.chunks_exact(W));
        for (cw, vw) in (&mut col_chunks).zip(&mut val_chunks) {
            for lane in 0..W {
                fma_row(&mut acc[lane], vw[lane], panel_row(panel, cw[lane]));
            }
        }
        let mut tail = [0.0f64; KB];
        for (&c, &v) in col_chunks.remainder().iter().zip(val_chunks.remainder()) {
            fma_row(&mut tail, v, panel_row(panel, c));
        }
        for (j, column) in out.iter_mut().enumerate() {
            let lanes: [f64; W] = std::array::from_fn(|lane| acc[lane][j]);
            column[r] = tree_sum(&lanes) + tail[j];
        }
    }
}

/// Lanes `first .. first + R` of one window of a padded layout, one
/// slot-sequential accumulator row each — the order of the layout's
/// SpMV at every width. A SELL chunk's slab is L1-resident, so each
/// block of `R` lanes strides through its own slots with its
/// accumulators in registers.
fn window_lanes<const R: usize, const KB: usize, P: Padded>(
    m: &P,
    w: &Window<'_>,
    first: usize,
    panel: &[f64],
    out: &mut [&mut [f64]; KB],
) {
    let mut acc = [[0.0f64; KB]; R];
    let block = w.block;
    for j in 0..block.slots {
        let at = j * block.stride + w.at + first;
        let (cs, vs) = (&block.cols[at..at + R], &block.vals[at..at + R]);
        for i in 0..R {
            fma_row(&mut acc[i], vs[i], panel_row(panel, cs[i]));
        }
    }
    for (i, sums) in acc.iter().enumerate() {
        // The last chunk's padding lanes have no row to write.
        if let Some(r) = m.row(w.packed + first + i) {
            for (column, &sum) in out.iter_mut().zip(sums) {
                column[r] = sum;
            }
        }
    }
}

/// The scalar block kernel of CSR rows, at the rows' lane width.
pub(super) fn csr_block<const KB: usize>(
    m: &CsrRows<'_>,
    panel: &[f64],
    out: &mut [&mut [f64]; KB],
) {
    match m.lanes {
        LaneWidth::W1 => csr_block_w::<1, KB>(m, panel, out),
        LaneWidth::W4 => csr_block_w::<4, KB>(m, panel, out),
        LaneWidth::W8 => csr_block_w::<8, KB>(m, panel, out),
    }
}

/// The scalar block kernel of both padded layouts: every window in
/// blocks of `R = 16 / KB` lanes. Slab and chunk accumulators map 1:1
/// to rows, so how many move in lockstep changes no sum and is free to
/// fit the register file: the vector body (`super::x86`) sizes its
/// blocks to the vector registers of its instruction set, this one
/// keeps `R × KB = 16` scalar accumulators (taller blocks spilled on
/// every multiply-add).
pub(super) fn padded_block<const KB: usize, P: Padded>(
    m: &P,
    panel: &[f64],
    out: &mut [&mut [f64]; KB],
) {
    fn blocks<const R: usize, const KB: usize, P: Padded>(
        m: &P,
        panel: &[f64],
        out: &mut [&mut [f64]; KB],
    ) {
        m.for_windows(0..m.unit_count(), ACC_STACK, |w| {
            let full = w.lanes - w.lanes % R;
            for first in (0..full).step_by(R) {
                window_lanes::<R, KB, P>(m, &w, first, panel, out);
            }
            for first in full..w.lanes {
                window_lanes::<1, KB, P>(m, &w, first, panel, out);
            }
        });
    }
    match KB {
        BLOCK => blocks::<2, KB, P>(m, panel, out),
        _ => blocks::<4, KB, P>(m, panel, out),
    }
}

impl PanelKernel for CsrRows<'_> {
    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols)
    }

    fn block<const KB: usize>(&self, panel: &[f64], mut out: [&mut [f64]; KB]) {
        #[cfg(target_arch = "x86_64")]
        if super::x86::csr_panel(super::host_isa(), self, panel, &mut out).is_some() {
            return;
        }
        csr_block(self, panel, &mut out);
    }

    fn column(&self, x: &[f64], y: &mut [f64]) {
        self.run::<false>(0..self.units(), x, &DisjointWriter::new(y));
    }
}

/// [`Slab`] and [`SellChunks`].
impl<P: Padded> PanelKernel for P {
    fn shape(&self) -> (usize, usize) {
        Padded::shape(self)
    }

    fn block<const KB: usize>(&self, panel: &[f64], mut out: [&mut [f64]; KB]) {
        #[cfg(target_arch = "x86_64")]
        if super::x86::windows_panel(super::host_isa(), self, panel, &mut out).is_some() {
            return;
        }
        padded_block(self, panel, &mut out);
    }

    fn column(&self, x: &[f64], y: &mut [f64]) {
        self.run::<false>(0..self.units(), x, &DisjointWriter::new(y));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::CsrMatrix;

    /// `rows × cols` CSR with `per_row` nonzeros per row.
    fn matrix(rows: usize, cols: usize, per_row: usize) -> CsrMatrix {
        let triplets: Vec<(usize, usize, f64)> = (0..rows)
            .flat_map(|r| {
                (0..per_row).map(move |i| (r, (r * 7 + i * 13) % cols, 0.5 + (r + i) as f64 * 0.25))
            })
            .collect();
        CsrMatrix::from_triplets(rows, cols, &triplets).expect("test matrix")
    }

    fn operand(len: usize) -> Vec<f64> {
        (0..len).map(|i| (i as f64 * 0.37).sin() + 0.1).collect()
    }

    #[test]
    fn pack_is_a_transpose() {
        let cols = 5;
        let x: Vec<f64> = (0..cols * 4).map(|i| i as f64).collect();
        let mut panel = vec![f64::NAN; cols * 4];
        pack::<4>(&x, cols, &mut panel);
        for c in 0..cols {
            for j in 0..4 {
                assert_eq!(panel[c * 4 + j], x[j * cols + c]);
            }
        }
    }

    #[test]
    fn scratch_rows_are_line_aligned() {
        for len in [0usize, 1, 8, 1000] {
            with_scratch(len, |panel| {
                assert_eq!(panel.len(), len);
                assert_eq!(panel.as_ptr() as usize % LINE_BYTES, 0);
            });
        }
    }

    #[test]
    fn repeated_same_shape_calls_leave_the_scratch_capacity_unchanged() {
        let m = matrix(40, 300, 6);
        let k = 13; // a block of 8, a block of 4 and one column
        let x = operand(m.cols() * k);
        let mut y = vec![f64::NAN; m.rows() * k];
        spmm(&CsrRows::of(LaneWidth::W4, &m), &x, k, &mut y);
        let settled = scratch_capacity();
        assert!(settled >= m.cols() * BLOCK, "one block of the panel is resident");
        let first = y.clone();
        for _ in 0..5 {
            y.fill(f64::NAN);
            spmm(&CsrRows::of(LaneWidth::W4, &m), &x, k, &mut y);
            assert_eq!(scratch_capacity(), settled);
            assert_eq!(y, first);
        }
        // A narrower matrix reuses the wider one's scratch.
        let small = matrix(10, 20, 3);
        let xs = operand(small.cols() * k);
        let mut ys = vec![f64::NAN; small.rows() * k];
        spmm(&CsrRows::of(LaneWidth::W4, &small), &xs, k, &mut ys);
        assert_eq!(scratch_capacity(), settled);
    }

    #[test]
    fn w1_is_the_order_of_the_core_csr_kernel() {
        // Merge-CSR, CSR5 and the engine's CSR path answer `spmv`
        // through `CsrMatrix::spmv_into`; their SpMM must match it.
        let m = matrix(33, 50, 9);
        for k in [1usize, 4, 8, 11] {
            let x = operand(m.cols() * k);
            let mut y = vec![f64::NAN; m.rows() * k];
            spmm(&CsrRows::of(LaneWidth::W1, &m), &x, k, &mut y);
            for j in 0..k {
                let want = m.spmv(&x[j * m.cols()..(j + 1) * m.cols()]);
                assert_eq!(&y[j * m.rows()..(j + 1) * m.rows()], &want[..], "k={k} rhs {j}");
            }
        }
    }
}
