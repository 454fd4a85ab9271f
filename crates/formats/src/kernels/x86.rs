//! x86-64 vector implementations of the lane kernels: the single-vector
//! ones (`dot`, `slab`) as explicit `vgatherdpd` · `vmulpd` · `vaddpd`
//! microkernels, and the panel blocks of SpMM (`panel`) as one line
//! load · broadcast · `vmulpd` · `vaddpd` per nonzero — each
//! bit-identical to the scalar body it stands in for — and the chunk
//! transpose of the SELL-C-σ conversion (`sell_transpose`), which
//! stores exactly what the scalar scatter stores. This is the only
//! file of the crate with `unsafe`; the arithmetic, width and safety
//! contracts are stated once in the [module docs](super).
//!
//! Structure: an [`Isa`] token proves which instruction set the host
//! runs; an [`Operand`] proves `x` is addressable by a sign-extended
//! 32-bit gather index; per instruction set a `Gather` owns the two
//! masked gather·multiply primitives (`mul4`, `mul8`) and an eight-lane
//! vector `V8`, beside the four-lane [`V4`] both sets share; everything
//! above that — the per-row and per-block primitives and the drivers
//! (CSR rows, padded-slab windows, and their panel blocks of 8 and 4
//! right-hand sides), SpMV and fused dot alike — is written once in
//! `kernels!` and `panel_kernels!` and instantiated inside each
//! instruction set's `#[target_feature]` scope, so the whole row or
//! window loop is compiled for the vector unit and dispatch happens
//! once per call, outside it. One driver is AVX-512's alone:
//! `avx512::csr_across`, CSR rows in the W1 order with 8 consecutive
//! rows across the lanes; a [`RowBlock`] of them picks its [`Path`]
//! from its row lengths.

use super::dot::{dot_w, CsrRows};
use super::slab::{self, Block, Padded, SellPlan, Window, ACC_STACK};
use super::{
    LaneWidth, ACROSS, ACROSS_GATHER_MAX_WIDTH, ACROSS_MAX_PADDING_PERCENT, ACROSS_MAX_X,
    ACROSS_MIN_ENTRIES,
};
use core::arch::x86_64::*;
use spmv_parallel::DisjointWriter;
use std::mem::MaybeUninit;
use std::ops::Range;

/// Proof that the host CPU executes an instruction-set level: the only
/// constructor of a vector level is [`Isa::detect`], which asked the
/// CPU. Holding `Isa` is what licenses the `unsafe` calls into the
/// `#[target_feature]` drivers below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Isa(Level);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Scalar,
    /// `avx2`.
    Avx2,
    /// `avx512f` + `avx512vl` (+ `avx2`, for the 256-bit value ops).
    Avx512,
}

impl Isa {
    /// Probes the host CPU.
    pub(super) fn detect() -> Isa {
        Isa(if !is_x86_feature_detected!("avx2") {
            Level::Scalar
        } else if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
            Level::Avx512
        } else {
            Level::Avx2
        })
    }

    /// Name for host records.
    pub(super) fn name(self) -> &'static str {
        match self.0 {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
            Level::Avx512 => "avx512",
        }
    }

    /// Every level the host executes, narrowest first: an AVX-512 host
    /// also runs the AVX2 and the scalar paths. Each token is still a
    /// proof — `detect` reports a level only when the CPU has every
    /// feature of the levels below it.
    #[cfg(test)]
    fn offered() -> Vec<Isa> {
        let all = [Level::Scalar, Level::Avx2, Level::Avx512];
        let have = all.iter().position(|&l| l == Isa::detect().0).expect("detect returns a level");
        all[..=have].iter().map(|&l| Isa(l)).collect()
    }
}

/// An `x` every in-range column can be gathered from: `vgatherdpd`
/// sign-extends its 32-bit indices, so the largest valid column,
/// `limit = x.len() − 1`, must not have the sign bit set. A column
/// `c ≤ limit` (unsigned) is then both inside `x` and non-negative.
#[derive(Clone, Copy)]
struct Operand<'a> {
    x: &'a [f64],
    limit: u32,
}

impl<'a> Operand<'a> {
    fn new(x: &'a [f64]) -> Option<Self> {
        Some(Self { x, limit: gather_limit(x.len())? })
    }
}

/// The largest gatherable column of an `x` of `len` entries; `None`
/// unless `1 ≤ len ≤ 2³¹`.
fn gather_limit(len: usize) -> Option<u32> {
    let limit = u32::try_from(len.checked_sub(1)?).ok()?;
    (limit <= i32::MAX as u32).then_some(limit)
}

/// The `N` entries from `at` on — range-checked, so a load through the
/// result cannot leave `data` whatever arithmetic produced `at`.
#[inline(always)]
fn block<T, const N: usize>(data: &[T], at: usize) -> &[T; N] {
    data[at..at + N].try_into().expect("the range is N long")
}

/// How far ahead of the entries being multiplied the matrix streams are
/// prefetched, in elements (64 blocks of 8). On matrices that do not
/// stay cached between calls the hardware prefetchers alone leave these
/// kernels latency-bound. Measured on the reference host (one
/// microarchitecture: the distance is not tuned beyond it), with and
/// without, alternating: 20–30% per kernel at 256–1024 ahead on 32 MB
/// operands cycled through the last-level cache, which end to end is
/// 7% of the benchmark's `hot-large` `typical_us` (4 of 4 pairs); its
/// cache-resident `hot-small` does not move.
const AHEAD: usize = 512;

/// Prefetches both matrix streams [`AHEAD`] elements past the start of
/// `cols` / `vals`. The addresses are never dereferenced (past the end
/// of the arrays the prefetch is a no-op), hence `wrapping_add`.
#[inline]
#[target_feature(enable = "avx2")]
fn prefetch_ahead(cols: &[u32], vals: &[f64]) {
    _mm_prefetch::<_MM_HINT_T0>(cols.as_ptr().wrapping_add(AHEAD).cast());
    _mm_prefetch::<_MM_HINT_T0>(vals.as_ptr().wrapping_add(AHEAD).cast());
}

/// Prefetches the line [`AHEAD`] entries past entry `at` of `data`; `at`
/// may lie anywhere, the address is never dereferenced.
#[inline]
#[target_feature(enable = "avx2")]
fn prefetch_past<T>(data: &[T], at: usize) {
    _mm_prefetch::<_MM_HINT_T0>(data.as_ptr().wrapping_add(at).wrapping_add(AHEAD).cast());
}

/// Four columns and their four values as vectors.
#[inline]
#[target_feature(enable = "avx2")]
fn load4(cols: &[u32; 4], vals: &[f64; 4]) -> (__m128i, __m256d) {
    // SAFETY: the references are to four `u32` (16 bytes) and four
    // `f64` (32 bytes), exactly what the two loads read.
    unsafe { (_mm_loadu_si128(cols.as_ptr().cast()), _mm256_loadu_pd(vals.as_ptr())) }
}

/// `(a0 + a1) + (a2 + a3)`: `tree_sum::<4>`.
#[inline]
#[target_feature(enable = "avx2")]
fn tree4(acc: __m256d) -> f64 {
    let pairs = _mm_hadd_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd::<1>(acc));
    _mm_cvtsd_f64(_mm_add_sd(pairs, _mm_unpackhi_pd(pairs, pairs)))
}

#[inline]
#[target_feature(enable = "avx2")]
fn store4(acc: __m256d) -> [f64; 4] {
    let mut out = [0.0; 4];
    // SAFETY: `out` is four doubles, the 32 bytes the store writes.
    unsafe { _mm256_storeu_pd(out.as_mut_ptr(), acc) };
    out
}

/// Four right-hand sides of a panel block: one 256-bit vector on both
/// instruction sets.
#[derive(Clone, Copy)]
struct V4(__m256d);

impl V4 {
    /// Vector registers one value occupies.
    const REGS: usize = 1;

    #[inline]
    #[target_feature(enable = "avx2")]
    fn zero() -> Self {
        V4(_mm256_setzero_pd())
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn add(self, o: V4) -> V4 {
        V4(_mm256_add_pd(self.0, o.0))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(row: &[f64; 4]) -> V4 {
        // SAFETY: the reference is to four doubles, the 32 bytes the
        // load reads.
        V4(unsafe { _mm256_loadu_pd(row.as_ptr()) })
    }

    /// `v · self` in every lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn scale(self, v: f64) -> V4 {
        V4(_mm256_mul_pd(_mm256_set1_pd(v), self.0))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(self) -> [f64; 4] {
        store4(self.0)
    }
}

/// The panel block kernels of `$kb` right-hand sides held in one `$V`
/// (`V8` or [`V4`]): `$csr` is `panel::csr_block_w` and `$windows` is
/// `panel::padded_block` on the vector unit. Per nonzero they take one
/// range-checked load of the packed panel row — contiguous, so no
/// gather — and one broadcast of the value, then `vmulpd` and `vaddpd`
/// into the row's accumulator: per (row, right-hand side) the scalar
/// body's operations in the scalar body's order. A column outside the
/// panel fails the range check and panics before anything is read.
/// Both prefetch the matrix streams [`AHEAD`] entries ahead, as the
/// SpMV kernels do: measured on the reference host (AVX-512), alternating
/// with and without on 32 MB operands of the benchmark's eight feature
/// classes at k = 8, that made the CSR panel at W4 12–15% faster in the
/// geomean and the SELL panels 15–18%.
macro_rules! panel_kernels {
    ($features:literal, $V:ident, $kb:literal, $csr:ident, $windows:ident) => {
        /// `panel::csr_block_w::<W, KB>` at the rows' lane width: `W`
        /// lane accumulators over the full chunks, pairwise-summed, plus
        /// the sequential tail.
        #[target_feature(enable = $features)]
        pub(super) fn $csr(m: &CsrRows<'_>, panel: &[f64], out: &mut [&mut [f64]; $kb]) {
            #[inline]
            #[target_feature(enable = $features)]
            fn rows<const W: usize>(m: &CsrRows<'_>, panel: &[f64], out: &mut [&mut [f64]; $kb]) {
                for (r, bounds) in m.row_ptr.windows(2).enumerate() {
                    let cols = &m.col_idx[bounds[0]..bounds[1]];
                    let vals = &m.values[bounds[0]..bounds[1]];
                    let ((cw, ct), (vw, vt)) = (cols.as_chunks::<W>(), vals.as_chunks::<W>());
                    // The matrix streams are prefetched from the row's start
                    // and per chunk — except at W1, whose one accumulator
                    // chain, not memory, sets the pace (prefetching there
                    // measured no faster).
                    if W > 1 {
                        prefetch_ahead(cols, vals);
                    }
                    let mut acc = [$V::zero(); W];
                    for (c, v) in cw.iter().zip(vw) {
                        if W > 1 {
                            prefetch_ahead(c, v);
                        }
                        for lane in 0..W {
                            let row = $V::load(block(panel, c[lane] as usize * $kb));
                            acc[lane] = acc[lane].add(row.scale(v[lane]));
                        }
                    }
                    let mut tail = $V::zero();
                    for (&c, &v) in ct.iter().zip(vt) {
                        tail = tail.add($V::load(block(panel, c as usize * $kb)).scale(v));
                    }
                    // `tree_sum::<W>`, every right-hand side at once.
                    let sum = match W {
                        1 => acc[0],
                        4 => acc[0].add(acc[1]).add(acc[2].add(acc[3])),
                        8 => acc[0]
                            .add(acc[1])
                            .add(acc[2].add(acc[3]))
                            .add(acc[4].add(acc[5]).add(acc[6].add(acc[7]))),
                        _ => unreachable!("unsupported lane width {W}"),
                    };
                    for (column, &y) in out.iter_mut().zip(&sum.add(tail).store()) {
                        column[r] = y;
                    }
                }
            }
            match m.lanes {
                LaneWidth::W1 => rows::<1>(m, panel, out),
                LaneWidth::W4 => rows::<4>(m, panel, out),
                LaneWidth::W8 => rows::<8>(m, panel, out),
            }
        }

        /// `panel::padded_block`: every window in blocks of
        /// `ACC_REGS / $V::REGS` lanes (one accumulator register budget),
        /// then of 8 and 4, then single lanes — each lane a
        /// slot-sequential sum, so the blocking is invisible in the
        /// result.
        #[target_feature(enable = $features)]
        pub(super) fn $windows<P: Padded>(m: &P, panel: &[f64], out: &mut [&mut [f64]; $kb]) {
            /// Lanes `first .. first + R` of `w`, written through the
            /// layout's row map.
            #[inline]
            #[target_feature(enable = $features)]
            fn lanes<const R: usize, P: Padded>(
                m: &P,
                w: &Window<'_>,
                first: usize,
                panel: &[f64],
                out: &mut [&mut [f64]; $kb],
            ) {
                let mut acc = [$V::zero(); R];
                let slab = w.block;
                for slot in 0..slab.slots {
                    let at = slot * slab.stride + w.at + first;
                    let (cs, vs) = (block::<u32, R>(slab.cols, at), block::<f64, R>(slab.vals, at));
                    // Every line of the slot row's values: an ELL slab's
                    // slot rows lie `rows` apart, beyond the hardware
                    // prefetchers' reach, and one prefetch per 16 lanes
                    // left half of them cold (ELL 1.3× slower at 32 MB).
                    for i in (0..R).step_by(8) {
                        prefetch_ahead(&cs[i..], &vs[i..]);
                    }
                    for i in 0..R {
                        let row = $V::load(block(panel, cs[i] as usize * $kb));
                        acc[i] = acc[i].add(row.scale(vs[i]));
                    }
                }
                for (i, a) in acc.iter().enumerate() {
                    // The last chunk's padding lanes have no row to write.
                    if let Some(r) = m.row(w.packed + first + i) {
                        for (column, &y) in out.iter_mut().zip(&a.store()) {
                            column[r] = y;
                        }
                    }
                }
            }

            /// Blocks of `R` lanes from `first` on while they fit; the
            /// first lane left.
            #[inline]
            #[target_feature(enable = $features)]
            fn blocks<const R: usize, P: Padded>(
                m: &P,
                w: &Window<'_>,
                mut first: usize,
                panel: &[f64],
                out: &mut [&mut [f64]; $kb],
            ) -> usize {
                while w.lanes - first >= R {
                    lanes::<R, P>(m, w, first, panel, out);
                    first += R;
                }
                first
            }

            const ROWS: usize = ACC_REGS / $V::REGS;
            m.for_windows(0..m.unit_count(), ACC_STACK, |w| {
                let mut first = blocks::<ROWS, P>(m, &w, 0, panel, out);
                if ROWS > 8 {
                    first = blocks::<8, P>(m, &w, first, panel, out);
                }
                if ROWS > 4 {
                    first = blocks::<4, P>(m, &w, first, panel, out);
                }
                blocks::<1, P>(m, &w, first, panel, out);
            });
        }
    };
}

/// The ISA-independent layers, instantiated in a module that defines
/// `Gather` (`new`, `mul4`, `mul8`, `finish`), `V8` (`zero`, `add`,
/// `load`, `scale`, `tree_sum`, `store`, and `REGS`) and the register
/// budget `ACC_REGS` for the features named here.
macro_rules! kernels {
    ($features:literal) => {
        panel_kernels!($features, V8, 8, csr_panel8, windows_panel8);
        panel_kernels!($features, V4, 4, csr_panel4, windows_panel4);

        impl Gather<'_> {
            /// Sequential sum of a row's last `len mod W` products.
            #[inline]
            #[target_feature(enable = $features)]
            fn tail(&self, cols: &[u32], vals: &[f64]) -> f64 {
                // Rows shorter than a block are all tail: without this
                // they would stream unprefetched.
                prefetch_ahead(cols, vals);
                let mut tail = 0.0;
                for (&c, &v) in cols.iter().zip(vals) {
                    tail += v * self.x[c as usize];
                }
                tail
            }

            /// One CSR row as `dot_w::<4>` sums it.
            #[inline]
            #[target_feature(enable = $features)]
            fn dot4(&mut self, cols: &[u32], vals: &[f64]) -> f64 {
                if cols.len() < 4 {
                    // A row shorter than one block: `tree_sum` of the
                    // untouched accumulator is 0.0, without the shuffles.
                    return 0.0 + self.tail(cols, vals);
                }
                let ((cols, cols_tail), (vals, vals_tail)) =
                    (cols.as_chunks::<4>(), vals.as_chunks::<4>());
                let mut acc = _mm256_setzero_pd();
                for (c, v) in cols.iter().zip(vals) {
                    acc = _mm256_add_pd(acc, self.mul4(c, v));
                }
                tree4(acc) + self.tail(cols_tail, vals_tail)
            }

            /// One CSR row as `dot_w::<8>` sums it.
            #[inline]
            #[target_feature(enable = $features)]
            fn dot8(&mut self, cols: &[u32], vals: &[f64]) -> f64 {
                if cols.len() < 8 {
                    // A row shorter than one block: `tree_sum` of the
                    // untouched accumulator is 0.0, without the shuffles.
                    return 0.0 + self.tail(cols, vals);
                }
                let ((cols, cols_tail), (vals, vals_tail)) =
                    (cols.as_chunks::<8>(), vals.as_chunks::<8>());
                let mut acc = V8::zero();
                for (c, v) in cols.iter().zip(vals) {
                    acc = acc.add(self.mul8(c, v));
                }
                acc.tree_sum() + self.tail(cols_tail, vals_tail)
            }

            /// `8 · N` adjacent lanes of a slab, summed slot by slot. The
            /// `N` blocks advance together, so a C = 16 chunk is streamed
            /// once, whole cache lines at a time, not once per block.
            #[inline]
            #[target_feature(enable = $features)]
            fn lanes8<const N: usize>(&mut self, slab: &Block<'_>, at: usize) -> [[f64; 8]; N] {
                let mut acc = [V8::zero(); N];
                for slot in 0..slab.slots {
                    let mut p = slot * slab.stride + at;
                    for a in &mut acc {
                        *a = a.add(self.mul8(block(slab.cols, p), block(slab.vals, p)));
                        p += 8;
                    }
                }
                let mut out = [[0.0; 8]; N];
                for (o, a) in out.iter_mut().zip(acc) {
                    *o = a.store();
                }
                out
            }

            /// Four adjacent lanes of a slab.
            #[inline]
            #[target_feature(enable = $features)]
            fn lanes4(&mut self, slab: &Block<'_>, at: usize) -> [f64; 4] {
                let mut acc = _mm256_setzero_pd();
                for slot in 0..slab.slots {
                    let p = slot * slab.stride + at;
                    acc = _mm256_add_pd(acc, self.mul4(block(slab.cols, p), block(slab.vals, p)));
                }
                store4(acc)
            }

            /// `Block::sums` on the vector unit: blocks of 16, one of 8,
            /// one of 4, scalar lanes for the rest. Each lane is its own
            /// slot-sequential sum, so the blocking is invisible in the
            /// result.
            #[target_feature(enable = $features)]
            fn lanes(&mut self, slab: &Block<'_>, from: usize, acc: &mut [f64]) {
                let (blocks16, rest) = acc.as_chunks_mut::<16>();
                let (blocks8, rest) = rest.as_chunks_mut::<8>();
                let (blocks4, singles) = rest.as_chunks_mut::<4>();
                let mut at = from;
                for b in blocks16 {
                    b.copy_from_slice(self.lanes8::<2>(slab, at).as_flattened());
                    at += 16;
                }
                for b in blocks8 {
                    [*b] = self.lanes8::<1>(slab, at);
                    at += 8;
                }
                for b in blocks4 {
                    *b = self.lanes4(slab, at);
                    at += 4;
                }
                for a in singles {
                    *a = 0.0;
                    for slot in 0..slab.slots {
                        let p = slot * slab.stride + at;
                        *a += slab.vals[p] * self.x[slab.cols[p] as usize];
                    }
                    at += 1;
                }
            }
        }

        /// `CsrRows::run_w::<4 or 8, DOT>` on the vector unit.
        #[target_feature(enable = $features)]
        pub(super) fn csr_rows<const W8: bool, const DOT: bool>(
            operand: Operand<'_>,
            m: &CsrRows<'_>,
            rows: Range<usize>,
            out: &DisjointWriter<'_>,
        ) -> f64 {
            let mut gather = Gather::new(operand);
            let mut partial = 0.0;
            for r in rows {
                let (cols, vals) = m.row(r);
                let yr = if W8 { gather.dot8(cols, vals) } else { gather.dot4(cols, vals) };
                out.write(r, yr);
                if DOT {
                    partial += operand.x[r] * yr;
                }
            }
            gather.finish();
            partial
        }

        /// `slab::run_scalar::<DOT, P>` on the vector unit: the lanes of
        /// a window are computed blockwise into a stack buffer, then
        /// written (and dotted) in packed order.
        #[target_feature(enable = $features)]
        pub(super) fn windows<const DOT: bool, P: Padded>(
            operand: Operand<'_>,
            layout: &P,
            units: Range<usize>,
            out: &DisjointWriter<'_>,
        ) -> f64 {
            let mut gather = Gather::new(operand);
            let mut stack = [0.0f64; ACC_STACK];
            let mut partial = 0.0;
            layout.for_windows(units, ACC_STACK, |w| {
                let acc = &mut stack[..w.lanes];
                gather.lanes(w.block, w.at, acc);
                slab::scatter::<DOT, P>(layout, w.packed, acc, operand.x, out, &mut partial);
            });
            gather.finish();
            partial
        }
    };
}

/// Up to [`ACROSS`] consecutive CSR rows read across the lanes: lane `l`
/// holds row `rows.start + l`, whose entries are `lo[l]..hi[l]` of
/// `col_idx` and `values`; lanes past the end of `rows` are empty.
/// `new` range-checked every extent against both arrays.
struct RowBlock {
    rows: Range<usize>,
    lo: [u64; ACROSS],
    hi: [u64; ACROSS],
    /// The longest row's length.
    width: usize,
    /// The shortest row's length (0 for a block short of rows).
    short: usize,
    /// The rows' entries.
    nnz: usize,
}

/// How a [`RowBlock`] runs.
enum Path {
    /// Slot by slot, three masked gathers each: position → column,
    /// value, `x`.
    Gather,
    /// Windows of [`ACROSS`] slots: each row's entries by contiguous
    /// loads and one gather from `x`, the products transposed so that
    /// one vector holds one slot of every row. Unmasked while every row
    /// fills the window, masked while at least half of the rows have
    /// entries left; the entries after that run on the scalar body.
    Transpose,
    /// The scalar body, row by row.
    Scalar,
}

impl RowBlock {
    #[inline(always)]
    fn new(m: &CsrRows<'_>, rows: Range<usize>) -> Self {
        let (mut lo, mut hi) = ([0u64; ACROSS], [0u64; ACROSS]);
        let n = rows.len();
        for (d, &p) in lo[..n].iter_mut().zip(&m.row_ptr[rows.start..rows.end]) {
            *d = p as u64;
        }
        for (d, &p) in hi[..n].iter_mut().zip(&m.row_ptr[rows.start + 1..=rows.end]) {
            *d = p as u64;
        }
        // `CsrRows::row`'s range check, for all the rows at once.
        let stored = m.col_idx.len().min(m.values.len()) as u64;
        let (mut inside, mut width, mut short) = (true, 0, u64::MAX);
        for (&lo, &hi) in lo.iter().zip(&hi) {
            inside &= (lo <= hi) & (hi <= stored);
            width = width.max(hi.wrapping_sub(lo));
            short = short.min(hi.wrapping_sub(lo));
        }
        assert!(inside, "a row of {rows:?} runs outside the CSR arrays");
        let nnz = (hi[..n].last().copied().unwrap_or(0) - lo[0]) as usize;
        RowBlock { rows, lo, hi, width: width as usize, short: short as usize, nnz }
    }

    /// Every lane runs `width` slots, so a ragged block wastes the slots
    /// past its shorter rows: above [`ACROSS_MAX_PADDING_PERCENT`] of
    /// them it runs the scalar body. Otherwise a block at most
    /// [`ACROSS_GATHER_MAX_WIDTH`] slots wide gathers, a wider one
    /// transposes.
    #[inline]
    fn path(&self) -> Path {
        if 100 * self.nnz < (100 - ACROSS_MAX_PADDING_PERCENT) * ACROSS * self.width {
            Path::Scalar
        } else if self.width <= ACROSS_GATHER_MAX_WIDTH {
            Path::Gather
        } else {
            Path::Transpose
        }
    }

    /// The rows by the scalar body, `CsrRows::run_w::<1, DOT>`, adding
    /// to `partial` as that does.
    #[inline(always)]
    fn scalar<const DOT: bool>(
        &self,
        m: &CsrRows<'_>,
        x: &[f64],
        out: &DisjointWriter<'_>,
        partial: &mut f64,
    ) {
        for r in self.rows.clone() {
            let (cols, vals) = m.row(r);
            let y = dot_w::<1>(cols, vals, x);
            out.write(r, y);
            if DOT {
                *partial += x[r] * y;
            }
        }
    }

    /// How many of the [`ACROSS`] slots from `at` on lane `l`'s row
    /// fills.
    #[inline]
    fn left(&self, l: usize, at: usize) -> u32 {
        (self.hi[l] - self.lo[l]).saturating_sub(at as u64).min(ACROSS as u64) as u32
    }

    /// Whether at least half of the rows have entries from `at` on.
    #[inline]
    fn half_live(&self, at: usize) -> bool {
        let live = self.lo.iter().zip(&self.hi).filter(|&(&lo, &hi)| lo + (at as u64) < hi);
        2 * live.count() >= ACROSS
    }

    /// The rows' sums `ys` of their first `at` entries, finished on the
    /// scalar body: each row's remaining entries added one by one, as
    /// `dot_w::<1>` adds them.
    #[inline(always)]
    fn finish(
        &self,
        m: &CsrRows<'_>,
        x: &[f64],
        mut ys: [f64; ACROSS],
        at: usize,
    ) -> [f64; ACROSS] {
        for ((y, &lo), &hi) in ys.iter_mut().zip(&self.lo).zip(&self.hi) {
            let (lo, hi) = ((lo as usize + at).min(hi as usize), hi as usize);
            let mut acc = *y;
            for (&c, &v) in m.col_idx[lo..hi].iter().zip(&m.values[lo..hi]) {
                acc += v * x[c as usize];
            }
            *y = acc;
        }
        ys
    }
}

/// SELL-C-σ slot arrays being written front to back, each slot once,
/// into the spare capacity of arrays reserved for all of them: nothing
/// is zeroed first. The first `len` slots of both are written.
struct Slots {
    cols: Vec<u32>,
    vals: Vec<f64>,
    len: usize,
}

impl Slots {
    fn with_capacity(slots: usize) -> Self {
        Slots { cols: Vec::with_capacity(slots), vals: Vec::with_capacity(slots), len: 0 }
    }

    /// Hands `fill` the `n` slots after the written ones — range-checked
    /// against the capacity, once — and counts them as written.
    ///
    /// # Safety
    ///
    /// A caller must make `fill` store every slot of both slices
    /// (SAFETY: `into_arrays` hands them out as initialized).
    #[inline(always)]
    unsafe fn write(
        &mut self,
        n: usize,
        fill: impl FnOnce(&mut [MaybeUninit<u32>], &mut [MaybeUninit<f64>]),
    ) {
        let at = self.len;
        fill(
            &mut self.cols.spare_capacity_mut()[at..at + n],
            &mut self.vals.spare_capacity_mut()[at..at + n],
        );
        self.len = at + n;
    }

    /// The written slots.
    fn into_arrays(mut self) -> (Vec<u32>, Vec<f64>) {
        // SAFETY: `len` only grows past slots `write`'s contract says
        // were stored, inside the capacity it checked them against.
        unsafe {
            self.cols.set_len(self.len);
            self.vals.set_len(self.len);
        }
        (self.cols, self.vals)
    }
}

/// The rows of one block of `L` transpose lanes: lane `l`'s row
/// `rows[l]` has its entries at `lo[l]..hi[l]` of `col_idx` and
/// `values` — `CsrRows::row` range-checked that extent against both
/// arrays — and pads with `pad[l]`, its last column. A lane without a
/// row, like an empty row, has an empty extent and pads with column 0.
#[inline]
fn extents<const L: usize>(m: &CsrRows<'_>, rows: &[u32]) -> ([u64; L], [u64; L], [u32; L]) {
    let (mut lo, mut hi, mut pad) = ([0u64; L], [0u64; L], [0u32; L]);
    for (l, &r) in rows.iter().enumerate() {
        let (cols, _) = m.row(r as usize);
        lo[l] = m.row_ptr[r as usize] as u64;
        hi[l] = lo[l] + cols.len() as u64;
        pad[l] = cols.last().copied().unwrap_or(0);
    }
    (lo, hi, pad)
}

/// `$chunks::<N>` transposes every chunk of a plan whose C is `N`
/// blocks of `$L`-lane `$Lanes`: slot row by slot row, each block
/// gathers its lanes' next entries and stores them.
macro_rules! transposer {
    ($features:literal, $Lanes:ident, $L:literal, $chunks:ident) => {
        #[target_feature(enable = $features)]
        pub(super) fn $chunks<const N: usize>(plan: &SellPlan<'_>, out: &mut Slots) {
            let c = N * $L;
            for (rows, &width) in plan.perm.chunks(c).zip(plan.chunk_width) {
                let mut blocks = rows.chunks($L);
                let mut lanes: [$Lanes<'_>; N] = std::array::from_fn(|_| {
                    $Lanes::new(&plan.rows, blocks.next().unwrap_or_default())
                });
                let fill = |cols: &mut [MaybeUninit<u32>], vals: &mut [MaybeUninit<f64>]| {
                    for (cols, vals) in cols.chunks_exact_mut(c).zip(vals.chunks_exact_mut(c)) {
                        let (cols, vals) =
                            (cols.as_chunks_mut::<$L>().0, vals.as_chunks_mut::<$L>().0);
                        for ((block, cols), vals) in lanes.iter_mut().zip(cols).zip(vals) {
                            block.slot(cols, vals);
                        }
                    }
                };
                // SAFETY: the chunk's `width · C` slots are `width` slot
                // rows of C = N · L lanes, and each of the N blocks stores
                // its L lanes of every row.
                unsafe { out.write(width as usize * c, fill) };
            }
        }
    };
}

mod avx2 {
    use super::*;

    /// Gathers from one `x`, remembering whether every lane so far was
    /// in range.
    pub(super) struct Gather<'a> {
        x: &'a [f64],
        limit: __m128i,
        /// All-ones while no column exceeded `limit`.
        ok: __m256i,
    }

    impl<'a> Gather<'a> {
        #[inline]
        #[target_feature(enable = "avx2")]
        fn new(operand: Operand<'a>) -> Self {
            Self {
                x: operand.x,
                limit: _mm_set1_epi32(operand.limit as i32),
                ok: _mm256_set1_epi64x(-1),
            }
        }

        /// `vals[l] · x[cols[l]]` for four lanes. A lane whose column
        /// is out of range is not read: it multiplies by 0.0 and
        /// clears `ok`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn mul4(&mut self, cols: &[u32; 4], vals: &[f64; 4]) -> __m256d {
            prefetch_ahead(cols, vals);
            let (idx, v) = load4(cols, vals);
            let in_range = _mm_cmpeq_epi32(_mm_min_epu32(idx, self.limit), idx);
            let mask = _mm256_cvtepi32_epi64(in_range);
            self.ok = _mm256_and_si256(self.ok, mask);
            // SAFETY: the gather dereferences only lanes whose mask is
            // set, i.e. `col ≤ limit = x.len() − 1` unsigned; `Operand`
            // guarantees `limit ≤ i32::MAX`, so the sign extension of
            // such a `col` is `col` and `x + 8·col` lies inside `x`.
            let gathered = unsafe {
                _mm256_mask_i32gather_pd::<8>(
                    _mm256_setzero_pd(),
                    self.x.as_ptr(),
                    idx,
                    _mm256_castsi256_pd(mask),
                )
            };
            _mm256_mul_pd(v, gathered)
        }

        /// Eight lanes as 2 × 256 bits, lane `l` in half `l / 4`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn mul8(&mut self, cols: &[u32; 8], vals: &[f64; 8]) -> V8 {
            V8(self.mul4(block(cols, 0), block(vals, 0)), self.mul4(block(cols, 4), block(vals, 4)))
        }

        /// Panics, as the scalar kernels' checked `x[col]` does, if
        /// any gathered column was out of range.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn finish(self) {
            let ok = _mm256_movemask_pd(_mm256_castsi256_pd(self.ok)) == 0b1111;
            assert!(ok, "column index out of bounds: x has {} entries", self.x.len());
        }
    }

    /// Vector registers a panel block's accumulators may take: half of
    /// the sixteen `ymm`, the rest hold the loaded rows and broadcasts.
    const ACC_REGS: usize = 8;

    #[derive(Clone, Copy)]
    struct V8(__m256d, __m256d);

    impl V8 {
        const REGS: usize = 2;

        #[inline]
        #[target_feature(enable = "avx2")]
        fn zero() -> Self {
            V8(_mm256_setzero_pd(), _mm256_setzero_pd())
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn add(self, o: V8) -> V8 {
            V8(_mm256_add_pd(self.0, o.0), _mm256_add_pd(self.1, o.1))
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn load(row: &[f64; 8]) -> V8 {
            V8(V4::load(block(row, 0)).0, V4::load(block(row, 4)).0)
        }

        /// `v · self` in every lane.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn scale(self, v: f64) -> V8 {
            let v = _mm256_set1_pd(v);
            V8(_mm256_mul_pd(v, self.0), _mm256_mul_pd(v, self.1))
        }

        /// `tree_sum::<8>`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn tree_sum(self) -> f64 {
            tree4(self.0) + tree4(self.1)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn store(self) -> [f64; 8] {
            let (lo, hi) = (store4(self.0), store4(self.1));
            std::array::from_fn(|l| if l < 4 { lo[l] } else { hi[l - 4] })
        }
    }

    /// Four lanes of a SELL chunk being transposed: where each lane's
    /// row reads next (`pos`), where it ends and the column it pads
    /// with; `cols` and `vals` are the arrays `pos` indexes.
    struct Lanes4<'a> {
        cols: &'a [u32],
        vals: &'a [f64],
        pos: __m256i,
        end: __m256i,
        pad: __m128i,
    }

    impl<'a> Lanes4<'a> {
        #[inline]
        #[target_feature(enable = "avx2")]
        fn new(m: &CsrRows<'a>, rows: &[u32]) -> Self {
            let (lo, hi, pad) = extents::<4>(m, rows);
            // SAFETY: `lo` and `hi` are four `u64` (32 bytes each) and
            // `pad` four `u32` (16 bytes), what the loads read.
            unsafe {
                Self {
                    cols: m.col_idx,
                    vals: m.values,
                    pos: _mm256_loadu_si256(lo.as_ptr().cast()),
                    end: _mm256_loadu_si256(hi.as_ptr().cast()),
                    pad: _mm_loadu_si128(pad.as_ptr().cast()),
                }
            }
        }

        /// Stores the lanes' next slot and steps past it: a lane still
        /// inside its row gathers its entry, the others pad.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn slot(&mut self, cols: &mut [MaybeUninit<u32>; 4], vals: &mut [MaybeUninit<f64>; 4]) {
            // Positions and ends are below 2⁶² (entries of a `u32`
            // slice, plus fewer than 2³² slots), so the signed compare
            // is the unsigned one.
            let live = _mm256_cmpgt_epi64(self.end, self.pos);
            let (c, v) = if _mm256_testz_si256(live, live) != 0 {
                (self.pad, _mm256_setzero_pd())
            } else {
                let live32 = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
                    live,
                    _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6),
                ));
                // SAFETY: the gathers read only the lanes `live` sets,
                // whose `pos` lies in an extent `extents` checked
                // against both `cols` and `vals`.
                unsafe {
                    (
                        _mm256_mask_i64gather_epi32::<4>(
                            self.pad,
                            self.cols.as_ptr().cast(),
                            self.pos,
                            live32,
                        ),
                        _mm256_mask_i64gather_pd::<8>(
                            _mm256_setzero_pd(),
                            self.vals.as_ptr(),
                            self.pos,
                            _mm256_castsi256_pd(live),
                        ),
                    )
                }
            };
            self.pos = _mm256_add_epi64(self.pos, _mm256_set1_epi64x(1));
            // SAFETY: `cols` is four `u32` slots and `vals` four `f64`
            // slots, the 16 and 32 bytes the stores write.
            unsafe {
                _mm_storeu_si128(cols.as_mut_ptr().cast(), c);
                _mm256_storeu_pd(vals.as_mut_ptr().cast(), v);
            }
        }
    }

    transposer!("avx2", Lanes4, 4, chunks4);

    /// The slot arrays of `plan` (C ∈ {4, 8, 16}) in blocks of 4 lanes.
    #[target_feature(enable = "avx2")]
    pub(super) fn transpose(plan: &SellPlan<'_>, out: &mut Slots) {
        match plan.c {
            4 => chunks4::<1>(plan, out),
            8 => chunks4::<2>(plan, out),
            16 => chunks4::<4>(plan, out),
            c => unreachable!("no transpose blocks for C = {c}"),
        }
    }

    kernels!("avx2");
}

mod avx512 {
    use super::*;

    /// Gathers from one `x`, remembering whether every lane so far was
    /// in range.
    pub(super) struct Gather<'a> {
        x: &'a [f64],
        limit: __m256i,
        /// Bit `l` stays set while no column in lane `l` exceeded `limit`.
        ok: __mmask8,
    }

    impl<'a> Gather<'a> {
        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx2")]
        fn new(operand: Operand<'a>) -> Self {
            Self { x: operand.x, limit: _mm256_set1_epi32(operand.limit as i32), ok: 0xFF }
        }

        /// `vals[l] · x[cols[l]]` for four lanes; see `avx2::Gather::mul4`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx2")]
        fn mul4(&mut self, cols: &[u32; 4], vals: &[f64; 4]) -> __m256d {
            prefetch_ahead(cols, vals);
            let (idx, v) = load4(cols, vals);
            let in_range = _mm_cmple_epu32_mask(idx, _mm256_castsi256_si128(self.limit));
            self.ok &= in_range | 0xF0;
            // SAFETY: as in `mul8`, over the four lanes `in_range` has.
            let gathered = unsafe {
                _mm256_mmask_i32gather_pd::<8>(_mm256_setzero_pd(), in_range, idx, self.x.as_ptr())
            };
            _mm256_mul_pd(v, gathered)
        }

        /// `vals[l] · x[cols[l]]` for eight lanes. A lane whose column
        /// is out of range is not read: it multiplies by 0.0 and
        /// clears its `ok` bit.
        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx2")]
        fn mul8(&mut self, cols: &[u32; 8], vals: &[f64; 8]) -> V8 {
            prefetch_ahead(cols, vals);
            // SAFETY: the references are to eight `u32` (32 bytes) and
            // eight `f64` (64 bytes), exactly what the loads read.
            let (idx, v) = unsafe {
                (_mm256_loadu_si256(cols.as_ptr().cast()), _mm512_loadu_pd(vals.as_ptr()))
            };
            let in_range = _mm256_cmple_epu32_mask(idx, self.limit);
            self.ok &= in_range;
            // SAFETY: the gather dereferences only lanes whose mask bit
            // is set, i.e. `col ≤ limit = x.len() − 1` unsigned;
            // `Operand` guarantees `limit ≤ i32::MAX`, so the sign
            // extension of such a `col` is `col` and `x + 8·col` lies
            // inside `x`.
            let gathered = unsafe {
                _mm512_mask_i32gather_pd::<8>(_mm512_setzero_pd(), in_range, idx, self.x.as_ptr())
            };
            V8(_mm512_mul_pd(v, gathered))
        }

        /// Panics, as the scalar kernels' checked `x[col]` does, if
        /// any gathered column was out of range.
        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx2")]
        fn finish(self) {
            assert!(self.ok == 0xFF, "column index out of bounds: x has {} entries", self.x.len());
        }
    }

    /// Vector registers a panel block's accumulators may take: half of
    /// the thirty-two `zmm` (`ymm` for [`V4`], which `avx512vl` gives
    /// the same thirty-two).
    const ACC_REGS: usize = 16;

    #[derive(Clone, Copy)]
    struct V8(__m512d);

    impl V8 {
        const REGS: usize = 1;

        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx2")]
        fn zero() -> Self {
            V8(_mm512_setzero_pd())
        }

        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx2")]
        fn add(self, o: V8) -> V8 {
            V8(_mm512_add_pd(self.0, o.0))
        }

        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx2")]
        fn load(row: &[f64; 8]) -> V8 {
            // SAFETY: the reference is to eight doubles, the 64 bytes the
            // load reads.
            V8(unsafe { _mm512_loadu_pd(row.as_ptr()) })
        }

        /// `v · self` in every lane.
        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx2")]
        fn scale(self, v: f64) -> V8 {
            V8(_mm512_mul_pd(_mm512_set1_pd(v), self.0))
        }

        /// `tree_sum::<8>` — not `_mm512_reduce_add_pd`, which pairs
        /// lane `l` with lane `l + 4` first.
        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx2")]
        fn tree_sum(self) -> f64 {
            tree4(_mm512_castpd512_pd256(self.0)) + tree4(_mm512_extractf64x4_pd::<1>(self.0))
        }

        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx2")]
        fn store(self) -> [f64; 8] {
            let mut out = [0.0; 8];
            // SAFETY: `out` is eight doubles, the 64 bytes the store writes.
            unsafe { _mm512_storeu_pd(out.as_mut_ptr(), self.0) };
            out
        }
    }

    /// Eight lanes of a SELL chunk being transposed; see
    /// `avx2::Lanes4`, which runs the four of a C = 4 chunk here too.
    struct Lanes8<'a> {
        cols: &'a [u32],
        vals: &'a [f64],
        pos: __m512i,
        end: __m512i,
        pad: __m256i,
    }

    impl<'a> Lanes8<'a> {
        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx2")]
        fn new(m: &CsrRows<'a>, rows: &[u32]) -> Self {
            let (lo, hi, pad) = extents::<8>(m, rows);
            // SAFETY: `lo` and `hi` are eight `u64` (64 bytes each) and
            // `pad` eight `u32` (32 bytes), what the loads read.
            unsafe {
                Self {
                    cols: m.col_idx,
                    vals: m.values,
                    pos: _mm512_loadu_si512(lo.as_ptr().cast()),
                    end: _mm512_loadu_si512(hi.as_ptr().cast()),
                    pad: _mm256_loadu_si256(pad.as_ptr().cast()),
                }
            }
        }

        /// Stores the lanes' next slot and steps past it: a lane still
        /// inside its row gathers its entry, the others pad.
        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx2")]
        fn slot(&mut self, cols: &mut [MaybeUninit<u32>; 8], vals: &mut [MaybeUninit<f64>; 8]) {
            let live = _mm512_cmplt_epu64_mask(self.pos, self.end);
            let (c, v) = if live == 0 {
                (self.pad, _mm512_setzero_pd())
            } else {
                // SAFETY: the gathers read only the lanes `live` sets,
                // whose `pos` lies in an extent `extents` checked
                // against both `cols` and `vals`.
                unsafe {
                    (
                        _mm512_mask_i64gather_epi32::<4>(
                            self.pad,
                            live,
                            self.pos,
                            self.cols.as_ptr().cast(),
                        ),
                        _mm512_mask_i64gather_pd::<8>(
                            _mm512_setzero_pd(),
                            live,
                            self.pos,
                            self.vals.as_ptr(),
                        ),
                    )
                }
            };
            self.pos = _mm512_add_epi64(self.pos, _mm512_set1_epi64(1));
            // SAFETY: `cols` is eight `u32` slots and `vals` eight `f64`
            // slots, the 32 and 64 bytes the stores write.
            unsafe {
                _mm256_storeu_si256(cols.as_mut_ptr().cast(), c);
                _mm512_storeu_pd(vals.as_mut_ptr().cast(), v);
            }
        }
    }

    /// `CsrRows::run_w::<1, DOT>` on the vector unit: blocks of
    /// [`ACROSS`] consecutive rows, one row per lane, each lane summed
    /// slot by slot from 0.0 as `dot_w::<1>` sums it — `vmulpd`, then a
    /// `vaddpd` masked to the lanes whose row has that slot. A block runs
    /// the path `RowBlock::path` picks for its row lengths.
    #[target_feature(enable = "avx512f,avx512vl,avx2")]
    pub(super) fn csr_across<const DOT: bool>(
        operand: Operand<'_>,
        m: &CsrRows<'_>,
        rows: Range<usize>,
        out: &DisjointWriter<'_>,
    ) -> f64 {
        let mut gather = Gather::new(operand);
        let mut partial = 0.0;
        for first in rows.clone().step_by(ACROSS) {
            let block = RowBlock::new(m, first..rows.end.min(first + ACROSS));
            let ys = match block.path() {
                Path::Gather => gather.across_gather(m, &block),
                Path::Transpose => {
                    let (ys, at) = gather.across_transpose(m, &block);
                    block.finish(m, operand.x, ys, at)
                }
                Path::Scalar => {
                    block.scalar::<DOT>(m, operand.x, out, &mut partial);
                    continue;
                }
            };
            for (r, &y) in block.rows.clone().zip(&ys) {
                out.write(r, y);
                if DOT {
                    partial += operand.x[r] * y;
                }
            }
        }
        gather.finish();
        partial
    }

    impl Gather<'_> {
        /// `x[idx[l]]` for the lanes of `live`. A live lane whose column
        /// is out of range is not read (0.0) and clears its `ok` bit.
        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx2")]
        fn x8(&mut self, idx: __m256i, live: __mmask8) -> __m512d {
            let in_range = _mm256_cmple_epu32_mask(idx, self.limit);
            self.ok &= in_range | !live;
            // SAFETY: as in `mul8`, over the lanes both `live` and
            // `in_range` set.
            unsafe {
                _mm512_mask_i32gather_pd::<8>(
                    _mm512_setzero_pd(),
                    live & in_range,
                    idx,
                    self.x.as_ptr(),
                )
            }
        }

        /// `Path::Gather` of eight rows.
        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx2")]
        fn across_gather(&mut self, m: &CsrRows<'_>, b: &RowBlock) -> [f64; ACROSS] {
            // SAFETY: `lo` and `hi` are eight `u64`, the 64 bytes each
            // load reads.
            let (mut pos, end) = unsafe {
                (_mm512_loadu_si512(b.lo.as_ptr().cast()), _mm512_loadu_si512(b.hi.as_ptr().cast()))
            };
            // Gathers leave the hardware prefetchers nothing to follow:
            // every line of the block's entries.
            for at in (b.lo[0] as usize..b.hi[b.rows.len() - 1] as usize).step_by(8) {
                prefetch_past(m.values, at);
                if at.is_multiple_of(16) {
                    prefetch_past(m.col_idx, at);
                }
            }
            let mut acc = _mm512_setzero_pd();
            for _ in 0..b.width {
                let live = _mm512_cmplt_epu64_mask(pos, end);
                // SAFETY: the gathers read only the lanes `live` sets,
                // whose `pos` lies in an extent `RowBlock::new` checked
                // against both `col_idx` and `values`.
                let (cols, vals) = unsafe {
                    (
                        _mm512_mask_i64gather_epi32::<4>(
                            _mm256_setzero_si256(),
                            live,
                            pos,
                            m.col_idx.as_ptr().cast(),
                        ),
                        _mm512_mask_i64gather_pd::<8>(
                            _mm512_setzero_pd(),
                            live,
                            pos,
                            m.values.as_ptr(),
                        ),
                    )
                };
                acc = _mm512_mask_add_pd(acc, live, _mm512_mul_pd(vals, self.x8(cols, live)), acc);
                pos = _mm512_add_epi64(pos, _mm512_set1_epi64(1));
            }
            V8(acc).store()
        }

        /// `Path::Transpose` of eight rows: the windows every row fills
        /// unmasked, then masked ones while at least half of the rows
        /// have entries left. The rows' sums so far and the slots the
        /// windows covered; `RowBlock::finish` adds the rest.
        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx2")]
        fn across_transpose(&mut self, m: &CsrRows<'_>, b: &RowBlock) -> ([f64; ACROSS], usize) {
            let full = b.short / ACROSS * ACROSS;
            let mut acc = _mm512_setzero_pd();
            // The largest column loaded (a masked-out lane loads 0),
            // checked against `x` once, at the end.
            let mut top = _mm256_setzero_si256();
            for at in (0..full).step_by(ACROSS) {
                let p: [__m512d; ACROSS] = std::array::from_fn(|l| {
                    let start = b.lo[l] as usize + at;
                    // Every line of the values, every other one of the
                    // columns.
                    prefetch_past(m.values, start);
                    if at.is_multiple_of(16) {
                        prefetch_past(m.col_idx, start);
                    }
                    // SAFETY: the loads read entries `start .. start + 8`,
                    // and `start + 8 ≤ lo + short ≤ hi`: inside a row
                    // extent `RowBlock::new` checked against both arrays.
                    let (idx, v) = unsafe {
                        (
                            _mm256_loadu_si256(m.col_idx.as_ptr().add(start).cast()),
                            _mm512_loadu_pd(m.values.as_ptr().add(start)),
                        )
                    };
                    top = _mm256_max_epu32(top, idx);
                    let in_range = _mm256_cmple_epu32_mask(idx, self.limit);
                    // SAFETY: as in `mul8`.
                    let x = unsafe {
                        _mm512_mask_i32gather_pd::<8>(
                            _mm512_setzero_pd(),
                            in_range,
                            idx,
                            self.x.as_ptr(),
                        )
                    };
                    _mm512_mul_pd(v, x)
                });
                for q in transpose8(p) {
                    acc = _mm512_add_pd(q, acc);
                }
            }
            // SAFETY: `lo` and `hi` are eight `u64`, the 64 bytes each
            // load reads.
            let (lo, end) = unsafe {
                (_mm512_loadu_si512(b.lo.as_ptr().cast()), _mm512_loadu_si512(b.hi.as_ptr().cast()))
            };
            let mut at = full;
            while at < b.width && b.half_live(at) {
                let p: [__m512d; ACROSS] = std::array::from_fn(|l| {
                    let first = ((1u32 << b.left(l, at)) - 1) as __mmask8;
                    let start = b.lo[l] as usize + at;
                    prefetch_past(m.values, start);
                    if at.is_multiple_of(16) {
                        prefetch_past(m.col_idx, start);
                    }
                    // SAFETY: the loads read only the lanes `first` sets,
                    // entries `start .. start + left` of a row extent
                    // `RowBlock::new` checked against both arrays; with
                    // no lane set they read nothing, wherever `start`
                    // points.
                    let (idx, v) = unsafe {
                        (
                            _mm256_maskz_loadu_epi32(
                                first,
                                m.col_idx.as_ptr().wrapping_add(start).cast(),
                            ),
                            _mm512_maskz_loadu_pd(first, m.values.as_ptr().wrapping_add(start)),
                        )
                    };
                    // The lanes `first` leaves out load column 0.
                    top = _mm256_max_epu32(top, idx);
                    let in_range = _mm256_cmple_epu32_mask(idx, self.limit);
                    // SAFETY: as in `mul8`, over the lanes both `first`
                    // and `in_range` set.
                    let x = unsafe {
                        _mm512_mask_i32gather_pd::<8>(
                            _mm512_setzero_pd(),
                            first & in_range,
                            idx,
                            self.x.as_ptr(),
                        )
                    };
                    _mm512_mul_pd(v, x)
                });
                for (s, &q) in transpose8(p).iter().enumerate().take(b.width - at) {
                    let pos = _mm512_add_epi64(lo, _mm512_set1_epi64((at + s) as i64));
                    acc = _mm512_mask_add_pd(acc, _mm512_cmplt_epu64_mask(pos, end), q, acc);
                }
                at += ACROSS;
            }
            self.ok &= _mm256_cmple_epu32_mask(top, self.limit);
            (V8(acc).store(), at)
        }
    }

    /// The 8 × 8 transpose: lane `l` of `q[s]` is lane `s` of `p[l]`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vl,avx2")]
    fn transpose8(p: [__m512d; 8]) -> [__m512d; 8] {
        // Row pairs: `t[2i]` holds the even slots of rows 2i and 2i + 1,
        // interleaved, `t[2i + 1]` the odd ones.
        let t: [__m512d; 8] = std::array::from_fn(|i| {
            let (a, b) = (p[i & !1], p[i | 1]);
            if i % 2 == 0 {
                _mm512_unpacklo_pd(a, b)
            } else {
                _mm512_unpackhi_pd(a, b)
            }
        });
        // Row quads: slots s and s + 4 of four rows, for s = 0, 2 from
        // the even pairs and s = 1, 3 from the odd ones.
        let (lo, hi) = (
            _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13),
            _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15),
        );
        let u: [__m512d; 8] = std::array::from_fn(|i| {
            let (a, b) = (t[i / 4 * 4 + i % 2], t[i / 4 * 4 + i % 2 + 2]);
            _mm512_permutex2var_pd(a, if i % 4 < 2 { lo } else { hi }, b)
        });
        // u[0..4] (rows 0–3) hold slots (0, 4), (1, 5), (2, 6), (3, 7);
        // u[4..8] the same of rows 4–7.
        std::array::from_fn(|s| {
            let (a, b) = (u[s % 4], u[4 + s % 4]);
            if s < 4 {
                _mm512_shuffle_f64x2::<0b01_00_01_00>(a, b)
            } else {
                _mm512_shuffle_f64x2::<0b11_10_11_10>(a, b)
            }
        })
    }

    transposer!("avx512f,avx512vl,avx2", Lanes8, 8, chunks8);

    /// The slot arrays of `plan` (C ∈ {4, 8, 16}) in blocks of 8 lanes,
    /// or, for C = 4, one block of AVX2's 4.
    #[target_feature(enable = "avx512f,avx512vl,avx2")]
    pub(super) fn transpose(plan: &SellPlan<'_>, out: &mut Slots) {
        match plan.c {
            4 => avx2::chunks4::<1>(plan, out),
            8 => chunks8::<1>(plan, out),
            16 => chunks8::<2>(plan, out),
            c => unreachable!("no transpose blocks for C = {c}"),
        }
    }

    kernels!("avx512f,avx512vl,avx2");
}

/// Runs `$driver` of the module `isa` names; `None` on a scalar host.
macro_rules! on_isa {
    ($isa:expr, $driver:ident $(::<$($generic:tt),+>)? ($($arg:expr),* $(,)?)) => {
        match $isa.0 {
            Level::Scalar => None,
            // SAFETY: `Level::Avx2` is constructed only by `Isa::detect`
            // and only after the CPU reported `avx2`, the one feature
            // the `avx2` drivers enable.
            Level::Avx2 => Some(unsafe { avx2::$driver $(::<$($generic),+>)? ($($arg),*) }),
            // SAFETY: `Level::Avx512` is constructed only by
            // `Isa::detect` and only after the CPU reported `avx512f`,
            // `avx512vl` and `avx2`, the features the `avx512` drivers
            // enable.
            Level::Avx512 => Some(unsafe { avx512::$driver $(::<$($generic),+>)? ($($arg),*) }),
        }
    };
}

/// `Some` with the `KB`-wide panel block's output columns as the
/// kernels' array of 8 or 4.
fn columns<'o, 'y, const KB: usize, const N: usize>(
    out: &'o mut [&'y mut [f64]; KB],
) -> Option<&'o mut [&'y mut [f64]; N]> {
    out.as_mut_slice().try_into().ok()
}

/// The panel block of CSR rows on the host's vector unit, at every lane
/// width (the vector runs over the `KB` right-hand sides; W only fixes
/// the order); `None` on a scalar host or for a `KB` other than 8 and 4.
pub(super) fn csr_panel<const KB: usize>(
    isa: Isa,
    m: &CsrRows<'_>,
    panel: &[f64],
    out: &mut [&mut [f64]; KB],
) -> Option<()> {
    if let Some(out) = columns::<KB, 8>(out) {
        on_isa!(isa, csr_panel8(m, panel, out))
    } else {
        on_isa!(isa, csr_panel4(m, panel, columns::<KB, 4>(out)?))
    }
}

/// The panel block of a padded layout on the host's vector unit, at
/// every lane width; `None` on a scalar host or for a `KB` other than 8
/// and 4.
pub(super) fn windows_panel<const KB: usize, P: Padded>(
    isa: Isa,
    layout: &P,
    panel: &[f64],
    out: &mut [&mut [f64]; KB],
) -> Option<()> {
    if let Some(out) = columns::<KB, 8>(out) {
        on_isa!(isa, windows_panel8::<P>(layout, panel, out))
    } else {
        on_isa!(isa, windows_panel4::<P>(layout, panel, columns::<KB, 4>(out)?))
    }
}

/// CSR rows on the host's vector unit: at W4 (256-bit) or W8 (512-bit,
/// 2 × 256 on AVX2) one row at a time, at W1 consecutive rows across
/// the lanes ([`across`]) where [`runs_across`] says so. The fused
/// dot partial (0.0 for plain SpMV), or `None` when the caller must run
/// the scalar-lane body — a view not built at a vector profile, a
/// scalar host, a small W1 range or a large `x`, or an `x` no gather
/// can index.
pub(super) fn csr_rows<const DOT: bool>(
    isa: Isa,
    m: &CsrRows<'_>,
    rows: Range<usize>,
    x: &[f64],
    out: &DisjointWriter<'_>,
) -> Option<f64> {
    if !m.vector {
        return None;
    }
    match m.lanes {
        LaneWidth::W1 => {
            let entries = m.row_ptr.get(rows.end)?.checked_sub(*m.row_ptr.get(rows.start)?)?;
            if !runs_across(isa, m.vector, entries, x.len()) {
                return None;
            }
            across::<DOT>(isa, Operand::new(x)?, m, rows, out)
        }
        LaneWidth::W4 => on_isa!(isa, csr_rows::<false, DOT>(Operand::new(x)?, m, rows, out)),
        LaneWidth::W8 => on_isa!(isa, csr_rows::<true, DOT>(Operand::new(x)?, m, rows, out)),
    }
}

/// Whether [`csr_rows`] runs a W1 range of `entries` entries against an
/// `x` of `x_len` entries across the lanes on `isa`, its view built at a
/// vector profile or not (`vector`), rather than the scalar loop.
pub(super) fn runs_across(isa: Isa, vector: bool, entries: usize, x_len: usize) -> bool {
    vector && isa.0 == Level::Avx512 && entries >= ACROSS_MIN_ENTRIES && x_len <= ACROSS_MAX_X
}

/// CSR rows in the W1 order across the lanes, on AVX-512, whatever the
/// range's size; `None` on other instruction sets.
fn across<const DOT: bool>(
    isa: Isa,
    x: Operand<'_>,
    m: &CsrRows<'_>,
    rows: Range<usize>,
    out: &DisjointWriter<'_>,
) -> Option<f64> {
    match isa.0 {
        // SAFETY: `Level::Avx512` is constructed only by `Isa::detect`
        // and only after the CPU reported the features `csr_across`
        // enables.
        Level::Avx512 => Some(unsafe { avx512::csr_across::<DOT>(x, m, rows, out) }),
        Level::Scalar | Level::Avx2 => None,
    }
}

/// The windows of a padded layout at any W > 1, on the widest unit the
/// host has; the fused dot partial, or `None` when the caller must run
/// the scalar body.
pub(super) fn windows<const DOT: bool, P: Padded>(
    isa: Isa,
    layout: &P,
    units: Range<usize>,
    x: &[f64],
    out: &DisjointWriter<'_>,
) -> Option<f64> {
    if layout.lane_width() == LaneWidth::W1 {
        return None;
    }
    let x = Operand::new(x)?;
    on_isa!(isa, windows::<DOT, P>(x, layout, units, out))
}

/// The `(col_idx, values)` slot arrays of a SELL-C-σ plan, transposed
/// from its CSR rows on the host's vector unit: per chunk and slot row,
/// each block of lanes reads its rows' next entries with masked gathers
/// (64-bit positions) and stores the slot row whole; a lane past its
/// row's end pads — its last column, value 0.0. `None` when the caller
/// must scatter the slots itself: W1, a scalar host, or a C other than
/// 4, 8 and 16.
pub(super) fn sell_transpose(isa: Isa, plan: &SellPlan<'_>) -> Option<(Vec<u32>, Vec<f64>)> {
    if !plan.rows.vector || !matches!(plan.c, 4 | 8 | 16) || isa.0 == Level::Scalar {
        return None;
    }
    let mut out = Slots::with_capacity(plan.stored);
    on_isa!(isa, transpose(plan, &mut out))?;
    assert_eq!(out.len, plan.stored, "the chunks fill the plan's slots");
    Some(out.into_arrays())
}

#[cfg(test)]
mod tests {
    use super::super::panel;
    use super::super::slab::{SellChunks, Slab};
    use super::super::LaneProfile;
    use super::*;
    use crate::sellcs::SellCSigmaFormat;
    use spmv_core::CsrMatrix;

    const WIDE: [LaneWidth; 2] = [LaneWidth::W4, LaneWidth::W8];

    fn operand(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.37).sin() * 3.0 + 0.1).collect()
    }

    /// `(y, partial)` of one kernel run; rows the kernel does not write
    /// keep a sentinel.
    fn run(
        rows: usize,
        kernel: impl FnOnce(&DisjointWriter<'_>) -> Option<f64>,
    ) -> Option<(Vec<f64>, f64)> {
        let mut y = vec![f64::MIN; rows];
        let partial = kernel(&DisjointWriter::new(&mut y))?;
        Some((y, partial))
    }

    /// `[spmv, fused dot]` runs of a kernel call written once with the
    /// flavour spelled `DOT`.
    macro_rules! flavours {
        ($rows:expr, |$out:ident| $call:expr) => {
            [
                {
                    const DOT: bool = false;
                    run($rows, |$out| $call)
                },
                {
                    const DOT: bool = true;
                    run($rows, |$out| $call)
                },
            ]
        };
    }

    /// A vector level must reproduce the oracle bit for bit; the scalar
    /// level must decline.
    fn judge(
        isa: Isa,
        got: [Option<(Vec<f64>, f64)>; 2],
        want: &[Option<(Vec<f64>, f64)>; 2],
        ctx: &str,
    ) {
        if isa.0 == Level::Scalar {
            assert_eq!(got, [None, None], "{ctx}: no vector unit, no vector path");
        } else {
            assert_eq!(&got, want, "{ctx}");
        }
    }

    #[test]
    fn gather_limit_admits_one_to_two_to_the_31() {
        assert_eq!(gather_limit(0), None);
        assert_eq!(gather_limit(1), Some(0));
        assert_eq!(gather_limit(1 << 31), Some(i32::MAX as u32));
        assert_eq!(gather_limit((1 << 31) + 1), None);
        assert!(Operand::new(&[]).is_none());
    }

    /// `(row_ptr, col_idx, values)` of a square CSR matrix of 34 rows:
    /// row `r` has `r` nonzeros (0..=33: every `len mod 8`, row 0
    /// empty), the last one in the last column.
    fn staircase() -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        let n = 34;
        let (mut row_ptr, mut cols, mut vals) = (vec![0usize], Vec::new(), Vec::new());
        for r in 0..n {
            for i in 0..r {
                cols.push(if i + 1 == r { n as u32 - 1 } else { ((r * 5 + i * 3) % n) as u32 });
                vals.push(((r * 7 + i) % 13) as f64 * 0.25 - 1.5);
            }
            row_ptr.push(cols.len());
        }
        (row_ptr, cols, vals)
    }

    #[test]
    fn csr_rows_on_every_offered_isa_equal_the_scalar_lane_body_bitwise() {
        let (row_ptr, cols, vals) = staircase();
        let n = row_ptr.len() - 1;
        let x = operand(n);
        let at = |lanes| CsrRows {
            lanes,
            vector: true,
            cols: n,
            row_ptr: &row_ptr,
            col_idx: &cols,
            values: &vals,
        };
        let want4 = flavours!(n, |o| Some(at(LaneWidth::W4).run_w::<4, DOT>(0..n, &x, o)));
        let want8 = flavours!(n, |o| Some(at(LaneWidth::W8).run_w::<8, DOT>(0..n, &x, o)));
        for isa in Isa::offered() {
            for (width, want) in [(LaneWidth::W4, &want4), (LaneWidth::W8, &want8)] {
                let got = flavours!(n, |o| csr_rows::<DOT>(isa, &at(width), 0..n, &x, o));
                judge(isa, got, want, &format!("{isa:?} {width:?}"));
                let scalar = CsrRows { vector: false, ..at(width) };
                let got = flavours!(n, |o| csr_rows::<DOT>(isa, &scalar, 0..n, &x, o));
                assert_eq!(got, [None, None], "{isa:?} {width:?}: a scalar profile's view");
            }
        }
    }

    /// A square CSR matrix with rows of `lens` entries; row `r`'s
    /// columns and values are spread by `r`, and every seventh value is
    /// −0.0.
    fn rows_of(lens: &[usize]) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        let n = lens.len();
        let (mut row_ptr, mut cols, mut vals) = (vec![0usize], Vec::new(), Vec::new());
        for (r, &len) in lens.iter().enumerate() {
            for i in 0..len {
                cols.push(((r * 13 + i * 7) % n) as u32);
                let k = cols.len();
                vals.push(if k % 7 == 3 { -0.0 } else { ((k * 5 + r) % 11) as f64 * 0.375 - 1.75 });
            }
            row_ptr.push(cols.len());
        }
        (row_ptr, cols, vals)
    }

    /// Row lengths that put blocks on each path: short regular rows
    /// (gather), long regular rows (unmasked and masked windows), two
    /// longer rows among regular ones (windows, then the scalar body for
    /// their rest), a long row among short ones and mostly empty blocks
    /// (scalar), empty rows, and every row count mod 8.
    fn across_cases() -> Vec<Vec<usize>> {
        let mut cases = vec![
            vec![0; 13],
            (0..34).collect(),
            (0..41).map(|r| 3 + r % 3).collect(),
            (0..29).map(|r| 17 + r % 5).collect(),
            (0..27).map(|r| if r % 5 == 2 { 0 } else { 6 + r % 4 }).collect(),
            (0..20).map(|r| if r == 9 { 10_000 } else { 5 }).collect(),
            (0..24).map(|r| [24, 24, 24, 24, 24, 24, 30, 40][r % 8]).collect(),
            (0..16).map(|r| [0, 0, 0, 0, 0, 40, 0, 3][r % 8]).collect(),
        ];
        cases.extend((9..16).map(|n| (0..n).map(|r| (r * 5) % 11).collect()));
        cases
    }

    /// An `x` of `n` entries holding ±∞ and NaN besides finite values.
    fn operand_with_specials(n: usize) -> Vec<f64> {
        let mut x = operand(n);
        for (i, special) in
            [f64::INFINITY, f64::NAN, f64::NEG_INFINITY, -0.0].into_iter().enumerate()
        {
            if let Some(v) = x.get_mut(5 * i + 4) {
                *v = special;
            }
        }
        x
    }

    /// `(y, partial)` as bits, every NaN as one value: a NaN's sign and
    /// payload are not part of the arithmetic contract — Rust leaves
    /// them unspecified, and x86 keeps whichever operand's NaN the
    /// compiler put first, in the scalar body as in the vector one.
    fn bits(got: [Option<(Vec<f64>, f64)>; 2]) -> [Option<(Vec<u64>, u64)>; 2] {
        let bits = |v: f64| if v.is_nan() { u64::MAX } else { v.to_bits() };
        got.map(|r| r.map(|(y, p)| (y.into_iter().map(bits).collect(), bits(p))))
    }

    #[test]
    fn csr_rows_across_on_every_offered_isa_equal_the_scalar_w1_body_bitwise() {
        let mut paths = [0usize; 3];
        for lens in across_cases() {
            let (row_ptr, cols, vals) = rows_of(&lens);
            let n = lens.len();
            let m = CsrRows {
                lanes: LaneWidth::W1,
                vector: true,
                cols: n,
                row_ptr: &row_ptr,
                col_idx: &cols,
                values: &vals,
            };
            for first in (0..n).step_by(ACROSS) {
                paths[RowBlock::new(&m, first..n.min(first + ACROSS)).path() as usize] += 1;
            }
            for x in [operand(n), operand_with_specials(n)] {
                // The whole matrix, and ranges that start and end inside
                // a block.
                for range in [0..n, n.min(3)..n, n / 3..n - n / 4] {
                    let want =
                        bits(flavours!(n, |o| Some(m.run_w::<1, DOT>(range.clone(), &x, o))));
                    for isa in Isa::offered() {
                        let got = bits(flavours!(n, |o| {
                            across::<DOT>(isa, Operand::new(&x).unwrap(), &m, range.clone(), o)
                        }));
                        let ctx = format!("{isa:?} rows {lens:?}[{range:?}]");
                        if isa.0 == Level::Avx512 {
                            assert_eq!(got, want, "{ctx}");
                        } else {
                            assert_eq!(got, [None, None], "{ctx}: the scalar body's");
                        }
                    }
                }
            }
        }
        assert!(paths.iter().all(|&k| k > 0), "blocks by path: {paths:?}");
    }

    #[test]
    fn across_rows_never_load_an_entry_past_the_range() {
        // 8 rows of 5 entries (they gather) or of 20 (masked windows past
        // 16); the row after the range starts with an out-of-range
        // column, which a lane reading past its row's end would load and
        // panic on.
        for len in [5usize, 20] {
            let rows = 8;
            let n = len * (rows + 1);
            let mut cols: Vec<u32> = (0..n as u32).collect();
            cols[rows * len] = u32::MAX;
            let vals = vec![0.5; n];
            let row_ptr: Vec<usize> = (0..=rows + 1).map(|r| r * len).collect();
            let m = CsrRows {
                lanes: LaneWidth::W1,
                vector: true,
                cols: n,
                row_ptr: &row_ptr,
                col_idx: &cols,
                values: &vals,
            };
            let x = operand(n);
            let want = flavours!(n, |o| Some(m.run_w::<1, DOT>(0..rows, &x, o)));
            for isa in Isa::offered().into_iter().filter(|isa| isa.0 == Level::Avx512) {
                let x = Operand::new(&x).unwrap();
                let got = flavours!(n, |o| across::<DOT>(isa, x, &m, 0..rows, o));
                assert_eq!(got, want, "{isa:?} rows of {len}");
            }
        }
    }

    #[test]
    fn a_w1_range_runs_across_rows_from_the_entry_threshold_on_up_to_the_x_bound() {
        // Rows of 10; the last row takes what reaches the threshold, or
        // one entry less.
        for total in [ACROSS_MIN_ENTRIES, ACROSS_MIN_ENTRIES - 1] {
            let lens: Vec<usize> = (0..total / 10)
                .map(|r| if r + 1 == total / 10 { 10 + total % 10 } else { 10 })
                .collect();
            let (row_ptr, cols, vals) = rows_of(&lens);
            let n = lens.len();
            let m = CsrRows {
                lanes: LaneWidth::W1,
                vector: true,
                cols: n,
                row_ptr: &row_ptr,
                col_idx: &cols,
                values: &vals,
            };
            // An `x` of the largest length that runs across rows, and one
            // entry longer.
            for len in [ACROSS_MAX_X, ACROSS_MAX_X + 1] {
                let x = operand(len);
                let want = flavours!(n, |o| Some(m.run_w::<1, DOT>(0..n, &x, o)));
                for isa in Isa::offered() {
                    let got = flavours!(n, |o| csr_rows::<DOT>(isa, &m, 0..n, &x, o));
                    let ctx = format!("{isa:?} {total} entries, x of {len}");
                    if isa.0 == Level::Avx512 && total >= ACROSS_MIN_ENTRIES && len <= ACROSS_MAX_X
                    {
                        assert_eq!(got, want, "{ctx}");
                    } else {
                        assert_eq!(got, [None, None], "{ctx}: the scalar loop's");
                    }
                }
            }
        }
    }

    /// SELL-C-σ storage of `n` rows × `n` columns: row `p` has `p % 7`
    /// real slots, chunks are padded to their widest row with value 0,
    /// `perm` reverses each chunk.
    struct Sell {
        n: usize,
        c: usize,
        perm: Vec<u32>,
        ptr: Vec<usize>,
        widths: Vec<u32>,
        cols: Vec<u32>,
        vals: Vec<f64>,
    }

    impl Sell {
        fn new(n: usize, c: usize) -> Self {
            let perm: Vec<u32> =
                (0..n).map(|p| (p / c * c + (c.min(n - p / c * c) - 1 - p % c)) as u32).collect();
            let (mut ptr, mut widths) = (vec![0usize], Vec::new());
            let (mut cols, mut vals) = (Vec::new(), Vec::new());
            for k in 0..n.div_ceil(c) {
                let width = (k * c..((k + 1) * c).min(n)).map(|p| p % 7).max().unwrap_or(0);
                for j in 0..width {
                    for p in k * c..(k + 1) * c {
                        let real = p < n && j < p % 7;
                        cols.push(if real { ((p * 3 + j * 5) % n) as u32 } else { 0 });
                        vals.push(if real { ((p + j) % 9) as f64 * 0.5 - 2.0 } else { 0.0 });
                    }
                }
                widths.push(width as u32);
                ptr.push(cols.len());
            }
            Sell { n, c, perm, ptr, widths, cols, vals }
        }

        fn at(&self, lanes: LaneWidth) -> SellChunks<'_> {
            SellChunks {
                lanes,
                c: self.c,
                rows: self.n,
                cols: self.n,
                perm: &self.perm,
                chunk_ptr: &self.ptr,
                chunk_width: &self.widths,
                col_idx: &self.cols,
                values: &self.vals,
            }
        }
    }

    #[test]
    fn sell_chunks_on_every_offered_isa_equal_the_scalar_body_bitwise() {
        // 67 rows: a partial last chunk at every C. C = 1, 3: scalar
        // lanes only; 12 = 8 + 4; 21 = 16 + 4 + 1.
        let n = 67;
        let x = operand(n);
        for c in [1usize, 3, 4, 8, 12, 16, 21] {
            let sell = Sell::new(n, c);
            let chunks = 0..sell.widths.len();
            let want = flavours!(n, |o| Some(slab::run_scalar::<DOT, _>(
                &sell.at(LaneWidth::W1),
                chunks.clone(),
                &x,
                o
            )));
            for isa in Isa::offered() {
                for lanes in WIDE {
                    let got = flavours!(n, |o| windows::<DOT, _>(
                        isa,
                        &sell.at(lanes),
                        chunks.clone(),
                        &x,
                        o
                    ));
                    judge(isa, got, &want, &format!("{isa:?} {lanes:?} C={c}"));
                }
            }
        }
    }

    #[test]
    fn slab_rows_on_every_offered_isa_equal_the_scalar_body_bitwise() {
        // 77 rows = the 64-row staging buffer (4 blocks of 16) + a
        // block of 8 + one of 4 + 1; 150 crosses the buffer twice.
        // Sub-ranges start off-block.
        for n in [1usize, 7, 77, 150] {
            let width = 5;
            let x = operand(n);
            let cols: Vec<u32> = (0..width * n).map(|p| ((p * 7 + 3) % n) as u32).collect();
            let vals: Vec<f64> = (0..width * n).map(|p| (p % 11) as f64 * 0.5 - 2.0).collect();
            let at = |lanes| Slab { lanes, rows: n, cols: n, width, col_idx: &cols, values: &vals };
            for rows in [0..n, n / 3..n, 0..n / 2] {
                let want = flavours!(n, |o| Some(slab::run_scalar::<DOT, _>(
                    &at(LaneWidth::W1),
                    rows.clone(),
                    &x,
                    o
                )));
                for isa in Isa::offered() {
                    for lanes in WIDE {
                        let got = flavours!(n, |o| windows::<DOT, _>(
                            isa,
                            &at(lanes),
                            rows.clone(),
                            &x,
                            o
                        ));
                        judge(isa, got, &want, &format!("{isa:?} {lanes:?} n={n} {rows:?}"));
                    }
                }
            }
        }
    }

    /// SELL-C-σ conversions to transpose: 101 rows (a partial last chunk
    /// and lanes without a row at every C) of ragged lengths — empty
    /// rows, rows ending mid-chunk, one row of 2 300 entries (wider than
    /// the scalar scatter's 2 048-slot block), some values −0.0 — and a
    /// matrix of three rows, fewer than one chunk.
    fn sell_cases() -> Vec<CsrMatrix> {
        let ragged = {
            let (rows, cols) = (101usize, 2500usize);
            let mut t = Vec::new();
            for r in 0..rows {
                let len = match r % 9 {
                    _ if r == 50 => 2300,
                    0 => 0,
                    4 => 31 + r % 17,
                    _ => (r * 7) % 23,
                };
                for k in 0..len {
                    let v = if (r + k) % 13 == 0 { -0.0 } else { ((r * 3 + k) as f64).cos() };
                    t.push((r, (r * 29 + k * 3) % cols, v));
                }
            }
            CsrMatrix::from_triplets(rows, cols, &t).unwrap()
        };
        let short =
            CsrMatrix::from_triplets(3, 9, &[(0, 8, 1.5), (2, 0, -2.0), (2, 5, 3.0)]).unwrap();
        vec![ragged, short, CsrMatrix::zeros(21, 4)]
    }

    #[test]
    fn sell_conversion_on_every_offered_isa_stores_exactly_what_the_reference_stores() {
        for (n, m) in sell_cases().iter().enumerate() {
            for c in [4usize, 8, 16] {
                for sigma in [1usize, 7, 256] {
                    let want =
                        SellCSigmaFormat::from_csr_reference(m, c, sigma, LaneProfile::scalar());
                    for isa in Isa::offered() {
                        let ctx = format!("{isa:?} case {n} C={c} s={sigma}");
                        let mut answered = None;
                        let profile = LaneProfile::with_width(LaneWidth::W8);
                        let got = SellCSigmaFormat::convert(m, c, sigma, profile, |plan| {
                            assert_eq!(
                                sell_transpose(
                                    isa,
                                    &SellPlan {
                                        rows: CsrRows {
                                            lanes: LaneWidth::W1,
                                            vector: false,
                                            ..plan.rows
                                        },
                                        ..*plan
                                    }
                                ),
                                None,
                                "{ctx}: W1 is the scalar scatter's"
                            );
                            let slots = sell_transpose(isa, plan);
                            answered = Some(slots.is_some());
                            slots
                        });
                        assert_eq!(
                            answered,
                            Some(isa.0 != Level::Scalar),
                            "{ctx}: vector unit, vector path"
                        );
                        assert_eq!(got.storage_bits(), want.storage_bits(), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn sell_conversion_declines_other_chunk_heights() {
        let m = &sell_cases()[0];
        for isa in Isa::offered() {
            for c in [1usize, 3, 12, 32] {
                SellCSigmaFormat::convert(
                    m,
                    c,
                    7,
                    LaneProfile::with_width(LaneWidth::W8),
                    |plan| {
                        assert_eq!(sell_transpose(isa, plan), None, "{isa:?} C={c}");
                        None
                    },
                );
            }
        }
    }

    /// Debug builds refuse the matrix in `from_parts_unchecked`; release
    /// builds hand it to the conversion, which must panic before it
    /// gathers from outside the arrays.
    #[test]
    #[cfg(not(debug_assertions))]
    fn a_row_pointer_past_the_arrays_panics_in_the_sell_conversion_on_every_offered_isa() {
        // Row 1 claims entries 4..40 of 10 columns and 10 values, of 40
        // columns and 10 values, and of 10 columns and 40 values.
        let row_ptr = vec![0, 4, 40, 40, 40, 40];
        for (cols, vals) in [(10, 10), (40, 10), (10, 40)] {
            let m = CsrMatrix::from_parts_unchecked(
                5,
                8,
                row_ptr.clone(),
                (0..cols).map(|i| i % 8).collect(),
                vec![1.0; vals],
            );
            for isa in Isa::offered() {
                for c in [4usize, 8, 16] {
                    let profile = LaneProfile::with_width(LaneWidth::W8);
                    let converted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        SellCSigmaFormat::convert(&m, c, 256, profile, |plan| {
                            sell_transpose(isa, plan)
                        })
                    }));
                    assert!(converted.is_err(), "{isa:?} C={c}: {cols} cols, {vals} vals");
                }
            }
        }
    }

    /// The same for Naive-CSR's rows at a vector profile: a matrix
    /// whose column or row pointer leaves its arrays must panic on every
    /// path a block of rows can take, never read outside `x` or the
    /// arrays.
    #[test]
    #[cfg(not(debug_assertions))]
    fn a_bad_column_or_row_pointer_panics_in_naive_csr_rows_on_every_offered_isa() {
        let n = 40usize;
        // Rows of 5 (blocks gather), 8 rows of 25 (they transpose), one
        // row of 200 (its block runs the scalar body); the rest empty.
        for lens in [vec![5usize; n], vec![25; 8], vec![200]] {
            let mut row_ptr = vec![0usize];
            for r in 0..n {
                row_ptr.push(row_ptr[r] + lens.get(r).copied().unwrap_or(0));
            }
            let nnz = row_ptr[n];
            let good: Vec<u32> = (0..nnz).map(|i| (i % n) as u32).collect();
            let mut cases = Vec::new();
            for bad_at in [0, nnz / 3, nnz - 1] {
                for bad in [n as u32, 1 << 31, u32::MAX] {
                    let mut cols = good.clone();
                    cols[bad_at] = bad;
                    cases.push((row_ptr.clone(), cols, nnz));
                }
            }
            // A row pointer past the columns, past the values, past both.
            let mut past = row_ptr.clone();
            *past.last_mut().unwrap() += 16;
            cases.push((past.clone(), good.clone(), nnz + 16));
            cases.push((past.clone(), [good.clone(), vec![0; 16]].concat(), nnz));
            cases.push((past, good, nnz));
            for (row_ptr, cols, vals) in cases {
                let m = CsrMatrix::from_parts_unchecked(n, n, row_ptr, cols, vec![1.0; vals]);
                let rows = CsrRows { vector: true, ..CsrRows::of(LaneWidth::W1, &m) };
                let x = operand(n);
                for isa in Isa::offered().into_iter().filter(|isa| isa.0 == Level::Avx512) {
                    let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut y = [0.0; 40];
                        let out = DisjointWriter::new(&mut y);
                        across::<true>(isa, Operand::new(&x).unwrap(), &rows, 0..n, &out)
                    }));
                    assert!(hit.is_err(), "{isa:?} rows of {}", lens[0]);
                }
            }
        }
    }

    /// Whether `kernel`, writing into a fresh `y`, panics.
    fn panics(kernel: impl FnOnce(&DisjointWriter<'_>) + std::panic::UnwindSafe) -> bool {
        std::panic::catch_unwind(|| kernel(&DisjointWriter::new(&mut [0.0; 24]))).is_err()
    }

    #[test]
    fn an_out_of_range_column_panics_on_every_offered_isa_wherever_it_sits() {
        // 24 entries with one bad column, read three ways: a CSR row
        // (blocks of 4 or 8; as a 23-long row its last 3 or 7 entries
        // are the scalar tail), an ELL slab of 24 rows × 1 slot (a block
        // of 16 and one of 8), a SELL chunk of C = 12 × 2 slots (8 and 4
        // lanes per slot). Column 2³¹ is the one with teeth: sign-extended
        // it points 16 GiB *below* `x`, where a gather that ignored its
        // mask would fault instead of panicking.
        let n = 24usize;
        let x = operand(n);
        let vals = vec![1.0; n];
        let perm: Vec<u32> = (0..12).collect();
        for bad_at in [0usize, 3, 7, 9, 15, 16, 22, 23] {
            for bad in [n as u32, 1 << 31, u32::MAX] {
                let mut cols: Vec<u32> = (0..n as u32).collect();
                cols[bad_at] = bad;
                let (cols, vals, x, perm) = (&cols, &vals, &x, &perm);
                let ctx = format!("column {bad} at {bad_at}");
                for isa in Isa::offered().into_iter().filter(|isa| isa.0 != Level::Scalar) {
                    for w in [LaneWidth::W4, LaneWidth::W8] {
                        for len in [n, n - 1] {
                            let hit = panics(move |o| {
                                let row_ptr = [0, len];
                                let row = CsrRows {
                                    lanes: w,
                                    vector: true,
                                    cols: n,
                                    row_ptr: &row_ptr,
                                    col_idx: cols,
                                    values: vals,
                                };
                                csr_rows::<false>(isa, &row, 0..1, x, o);
                            });
                            assert_eq!(hit, bad_at < len, "csr {isa:?} {w:?} len {len}: {ctx}");
                        }
                    }
                    assert!(
                        panics(move |o| {
                            let ell = Slab {
                                lanes: LaneWidth::W4,
                                rows: n,
                                cols: n,
                                width: 1,
                                col_idx: cols,
                                values: vals,
                            };
                            windows::<true, _>(isa, &ell, 0..n, x, o);
                        }),
                        "slab {isa:?}: {ctx}"
                    );
                    assert!(
                        panics(move |o| {
                            let (ptr, slots) = ([0, 24], [2]);
                            let sell = SellChunks {
                                lanes: LaneWidth::W8,
                                c: 12,
                                rows: 12,
                                cols: n,
                                perm,
                                chunk_ptr: &ptr,
                                chunk_width: &slots,
                                col_idx: cols,
                                values: vals,
                            };
                            windows::<false, _>(isa, &sell, 0..1, x, o);
                        }),
                        "sell {isa:?}: {ctx}"
                    );
                }
            }
        }
    }

    #[test]
    fn an_out_of_range_column_panics_across_rows_on_every_offered_isa_wherever_it_sits() {
        // 160 entries with one bad column, as 40 rows of 4 (their blocks
        // gather), 8 rows of 20 (unmasked and masked windows), six rows
        // of 18 and two of 26 (windows, then the scalar body for the
        // long rows' rest) and one row of 160 (the scalar body).
        let n = 160usize;
        let x = operand(n);
        let x = Operand::new(&x).unwrap();
        let vals = vec![1.0; n];
        let shapes = [vec![4usize; 40], vec![20; 8], [vec![18; 6], vec![26; 2]].concat(), vec![n]];
        for bad_at in [0usize, 3, 9, 17, 37, 63, 130, 133, 158, 159] {
            for bad in [n as u32, 1 << 31, u32::MAX] {
                let mut cols: Vec<u32> = (0..n as u32).collect();
                cols[bad_at] = bad;
                for lens in &shapes {
                    let ends = lens.iter().scan(0, |end, &len| {
                        *end += len;
                        Some(*end)
                    });
                    let row_ptr: Vec<usize> = std::iter::once(0).chain(ends).collect();
                    let m = CsrRows {
                        lanes: LaneWidth::W1,
                        vector: true,
                        cols: n,
                        row_ptr: &row_ptr,
                        col_idx: &cols,
                        values: &vals,
                    };
                    let rows = lens.len();
                    for isa in Isa::offered().into_iter().filter(|isa| isa.0 == Level::Avx512) {
                        for dot in [false, true] {
                            let hit = std::panic::catch_unwind(|| {
                                let mut y = vec![0.0; n];
                                let out = DisjointWriter::new(&mut y[..rows]);
                                match dot {
                                    false => across::<false>(isa, x, &m, 0..rows, &out),
                                    true => across::<true>(isa, x, &m, 0..rows, &out),
                                }
                            });
                            let ctx = format!("{isa:?} rows of {} dot {dot}", lens[0]);
                            assert!(hit.is_err(), "{ctx}: column {bad} at {bad_at}");
                        }
                    }
                }
            }
        }
    }

    /// The `KB` output columns (`rows` long, sentinel-filled, one after
    /// the other) of one panel block run; `None` when the kernel
    /// declined.
    fn panel_run<const KB: usize>(
        rows: usize,
        kernel: impl FnOnce(&mut [&mut [f64]; KB]) -> Option<()>,
    ) -> Option<Vec<u64>> {
        let mut y = vec![f64::MIN; rows * KB];
        let mut columns = y.chunks_exact_mut(rows);
        kernel(&mut std::array::from_fn(|_| columns.next().expect("y holds KB columns")))?;
        Some(y.iter().map(|v| v.to_bits()).collect())
    }

    /// A vector level must reproduce the scalar panel body bit for bit;
    /// the scalar level must decline.
    fn judge_panel(isa: Isa, got: Option<Vec<u64>>, want: &[u64], ctx: &str) {
        if isa.0 == Level::Scalar {
            assert_eq!(got, None, "{ctx}: no vector unit, no vector path");
        } else {
            assert_eq!(got.as_deref(), Some(want), "{ctx}");
        }
    }

    fn csr_panels<const KB: usize>() {
        let (row_ptr, cols, vals) = staircase();
        let n = row_ptr.len() - 1;
        let panel = operand(n * KB);
        for lanes in LaneWidth::ALL {
            let m = CsrRows {
                lanes,
                vector: true,
                cols: n,
                row_ptr: &row_ptr,
                col_idx: &cols,
                values: &vals,
            };
            let want = panel_run::<KB>(n, |out| {
                panel::csr_block(&m, &panel, out);
                Some(())
            })
            .expect("the scalar body runs");
            for isa in Isa::offered() {
                let got = panel_run::<KB>(n, |out| csr_panel(isa, &m, &panel, out));
                judge_panel(isa, got, &want, &format!("{isa:?} {lanes:?} KB={KB}"));
            }
        }
    }

    #[test]
    fn csr_panels_on_every_offered_isa_equal_the_scalar_panel_body_bitwise() {
        csr_panels::<4>();
        csr_panels::<8>();
    }

    fn padded_panels<const KB: usize>() {
        // SELL: 67 rows, a partial last chunk at every C; per C the
        // blocks of 16/8/4/1 (AVX-512), 4/1 (AVX2, KB = 8) or 8/4/1
        // (AVX2, KB = 4) all meet a remainder.
        let n = 67;
        let panel = operand(n * KB);
        for c in [1usize, 3, 4, 8, 12, 16, 21] {
            let sell = Sell::new(n, c);
            for lanes in LaneWidth::ALL {
                let m = sell.at(lanes);
                let want = panel_run::<KB>(n, |out| {
                    panel::padded_block(&m, &panel, out);
                    Some(())
                })
                .expect("the scalar body runs");
                for isa in Isa::offered() {
                    let got = panel_run::<KB>(n, |out| windows_panel(isa, &m, &panel, out));
                    judge_panel(isa, got, &want, &format!("{isa:?} {lanes:?} C={c} KB={KB}"));
                }
            }
        }
        // ELL: 150 rows cross the 64-lane window twice.
        for n in [1usize, 7, 77, 150] {
            let width = 5;
            let panel = operand(n * KB);
            let cols: Vec<u32> = (0..width * n).map(|p| ((p * 7 + 3) % n) as u32).collect();
            let vals: Vec<f64> = (0..width * n).map(|p| (p % 11) as f64 * 0.5 - 2.0).collect();
            for lanes in LaneWidth::ALL {
                let m = Slab { lanes, rows: n, cols: n, width, col_idx: &cols, values: &vals };
                let want = panel_run::<KB>(n, |out| {
                    panel::padded_block(&m, &panel, out);
                    Some(())
                })
                .expect("the scalar body runs");
                for isa in Isa::offered() {
                    let got = panel_run::<KB>(n, |out| windows_panel(isa, &m, &panel, out));
                    judge_panel(isa, got, &want, &format!("{isa:?} {lanes:?} n={n} KB={KB}"));
                }
            }
        }
    }

    #[test]
    fn sell_and_slab_panels_on_every_offered_isa_equal_the_scalar_panel_body_bitwise() {
        padded_panels::<4>();
        padded_panels::<8>();
    }

    /// Whether the panel block `kernel` runs on the vector unit of `isa`
    /// — or, on the scalar level, the scalar body — panics.
    fn panel_panics<const KB: usize>(
        rows: usize,
        kernel: impl FnOnce(&mut [&mut [f64]; KB]) + std::panic::UnwindSafe,
    ) -> bool {
        std::panic::catch_unwind(|| {
            panel_run::<KB>(rows, |out| {
                kernel(out);
                Some(())
            })
        })
        .is_err()
    }

    fn out_of_range_panels<const KB: usize>() {
        // The shapes of `an_out_of_range_column_…` against a panel of
        // `n` rows. A bad column's row starts `col · KB` doubles into
        // the panel: at 2³¹ and `u32::MAX` far past its end, where an
        // unchecked load would fault or read another allocation.
        let n = 24usize;
        let panel = operand(n * KB);
        let vals = vec![1.0; n];
        let perm: Vec<u32> = (0..12).collect();
        for bad_at in [0usize, 3, 7, 9, 15, 16, 22, 23] {
            for bad in [n as u32, 1 << 31, u32::MAX] {
                let mut cols: Vec<u32> = (0..n as u32).collect();
                cols[bad_at] = bad;
                let (cols, vals, panel, perm) = (&cols, &vals, &panel, &perm);
                let ctx = format!("KB={KB} column {bad} at {bad_at}");
                for isa in Isa::offered() {
                    for lanes in LaneWidth::ALL {
                        for len in [n, n - 1] {
                            let hit = panel_panics::<KB>(1, move |out| {
                                let row_ptr = [0, len];
                                let m = CsrRows {
                                    lanes,
                                    vector: true,
                                    cols: n,
                                    row_ptr: &row_ptr,
                                    col_idx: cols,
                                    values: vals,
                                };
                                if csr_panel(isa, &m, panel, out).is_none() {
                                    panel::csr_block(&m, panel, out);
                                }
                            });
                            assert_eq!(hit, bad_at < len, "csr {isa:?} {lanes:?} len {len}: {ctx}");
                        }
                    }
                    let ell = panel_panics::<KB>(n, move |out| {
                        let m = Slab {
                            lanes: LaneWidth::W4,
                            rows: n,
                            cols: n,
                            width: 1,
                            col_idx: cols,
                            values: vals,
                        };
                        if windows_panel(isa, &m, panel, out).is_none() {
                            panel::padded_block(&m, panel, out);
                        }
                    });
                    assert!(ell, "slab {isa:?}: {ctx}");
                    let sell = panel_panics::<KB>(12, move |out| {
                        let (ptr, slots) = ([0, 24], [2]);
                        let m = SellChunks {
                            lanes: LaneWidth::W8,
                            c: 12,
                            rows: 12,
                            cols: n,
                            perm,
                            chunk_ptr: &ptr,
                            chunk_width: &slots,
                            col_idx: cols,
                            values: vals,
                        };
                        if windows_panel(isa, &m, panel, out).is_none() {
                            panel::padded_block(&m, panel, out);
                        }
                    });
                    assert!(sell, "sell {isa:?}: {ctx}");
                }
            }
        }
    }

    #[test]
    fn an_out_of_range_panel_column_panics_on_every_offered_isa_wherever_it_sits() {
        out_of_range_panels::<4>();
        out_of_range_panels::<8>();
    }
}
