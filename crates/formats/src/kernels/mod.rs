//! Shared lane-kernel layer: the SIMD-style inner loops of every
//! row-major sparse kernel in this crate, written **once** over two
//! memory layouts and run at a lane width W ∈ {1, 4, 8}.
//!
//! The paper's premise (and SELL-C-σ's raison d'être, Kreutzer et
//! al.) is that the inner gather·multiply·accumulate loop maps onto
//! vector lanes. The portable bodies express that as independent
//! accumulators. LLVM's auto-vectorizer does *not* turn those into
//! vector code: with `avx2` or `avx512f,avx512vl` enabled, checked or
//! unchecked indexing, `rustc -O` emits no `vgather*` for the
//! gather-dot body at W4 or W8 (the SLP vectorizer packs 128-bit pairs
//! behind scalar loads), and as W scalar chains the "vectorized"
//! formats measure slower than Naive-CSR. So on x86-64 the kernels
//! are **vectorized by hand**: [`x86`](self) (private; the crate's only
//! `unsafe`) holds explicit `core::arch` gather microkernels, selected
//! once per [`View::run`] call, the panel blocks of SpMM, selected
//! once per block, and the chunk transpose that fills SELL-C-σ's slot
//! arrays on conversion (`slab::SellPlan`), selected once per
//! conversion. Other targets, and x86-64 hosts without AVX2, run the
//! scalar bodies.
//!
//! A kernel sees a matrix only through a [`View`], a borrowed
//! description of one of two layouts that every format builds per call:
//!
//! | module | layout | views | used by |
//! |---|---|---|---|
//! | [`dot`] | CSR row slices (gather dot) | [`dot::CsrRows`] | the five CSR kinds, the engine's CSR path |
//! | [`slab`] | strided padded slab: `stride × slots`, lane-major | [`slab::Slab`] (stride = rows) | ELL, HYB's ELL half |
//! | | | [`slab::SellChunks`] (stride = C, per chunk) | SELL-C-σ (C ∈ 4/8/16) |
//!
//! Those hold the single-vector kernels (SpMV and the fused SpMV+dot;
//! one body per layout serves both flavours, [`View::run`]'s `DOT`).
//! The multi-vector kernels of the same views live in [`panel`], which
//! packs the right-hand sides row-major once per call, so the `k`
//! values one nonzero multiplies are one contiguous panel row: the
//! vector bodies in `x86` take it with one line load and one broadcast
//! of the value per nonzero, no gather.
//!
//! ## Width rule
//!
//! [`LaneWidth`] is the only knob, and it means what its variants say:
//!
//! * **W1 is always the scalar code** of the single-vector kernels —
//!   Naive-CSR, [`LaneProfile::scalar`], `SPMV_LANES=1`, and every host
//!   without a vector unit the kernels have code for.
//! * CSR rows at **W4** run 256-bit vectors and at **W8** 512-bit ones
//!   (2 × 256-bit with the same lane ownership on AVX2-only hosts); a
//!   missing instruction set runs the scalar-lane body of the same W.
//! * The padded slabs, whose results do not depend on W, use at any
//!   W > 1 the widest unit the host has: blocks of 8 adjacent lanes
//!   (512-bit, or 2 × 256) — taken two at a time while 16 lanes are
//!   left, so a C = 16 chunk is streamed once —, then one block of 4
//!   (256-bit; all of a C = 4 chunk), then scalar lanes.
//! * The panel blocks vectorize across the right-hand sides, not
//!   across W, so they use the vector unit at **every** W, W1 included,
//!   wherever the host has AVX2: a block of 8 right-hand sides is one
//!   512-bit vector (2 × 256 on AVX2), a block of 4 one 256-bit vector.
//!   For CSR rows W still fixes the summation order, as in SpMV.
//! * The SELL-C-σ conversion stores the same bytes on every path. At
//!   any W > 1, for C ∈ {4, 8, 16}, it transposes its chunks on the
//!   widest unit the host has: blocks of 8 lanes on AVX-512 (one of 4
//!   for C = 4), of 4 on AVX2. At W1 it runs its scalar scatter.
//!
//! ## Arithmetic contract
//!
//! What `run` computes per row is fixed by the view, not by the code
//! path. A [`dot::CsrRows`] row at W lanes: lane `l` owns products
//! `l, l + W, …` of the row's full W-blocks, the lanes reduce in
//! `tree_sum`'s pairwise order, and the last `len mod W` products are a
//! sequential sum added last. A padded-slab row: one accumulator,
//! slot-sequential. The vector bodies are **bit-identical** to the
//! scalar ones: `vmulpd` then `vaddpd`, never FMA (a fused product
//! rounds once, the scalar lanes and the panel kernels round twice;
//! these kernels are gather- and bandwidth-bound anyway), each vector
//! lane owning exactly the products its scalar accumulator owns. The
//! scalar bodies are therefore the oracle of the vector ones, every
//! guarantee below holds on either, and `tests/kernel_digests.rs` pins
//! the outputs as constants.
//!
//! ## Determinism contract
//!
//! * At a **fixed** [`LaneProfile`], every kernel is bit-reproducible
//!   run to run and across thread counts: each accumulator maps to a
//!   fixed set of products added in a fixed order.
//! * For the padded slabs, accumulators map 1:1 to matrix *rows*, so
//!   the per-row addition order is slot-sequential regardless of W —
//!   those views are bit-identical **across** lane widths too.
//! * For CSR rows, W splits a row's products across W accumulators, so
//!   different widths may differ in the last ulps — cross-width
//!   agreement is within floating-point tolerance only.
//! * The fused dot adds `x[r] · out[r]` in the order `run` produces the
//!   rows: ascending for [`dot::CsrRows`] and [`slab::Slab`] (equal to
//!   spmv-then-dot bit for bit), packed (`perm`) order for
//!   [`slab::SellChunks`].
//!
//! ## Safety contract
//!
//! The view types are plain public structs and
//! `CsrMatrix::from_parts_unchecked` is a safe function, so neither the
//! geometry nor the column indices of a view are trusted by any kernel.
//! The scalar bodies use checked indexing. The vector bodies take
//! contiguous loads from sub-slices range-checked per row, chunk or
//! slot row, and **mask every gather** with an unsigned
//! `col ≤ x.len() − 1` compare: an out-of-range lane is never
//! dereferenced, the masks are accumulated, and the kernel panics after
//! its loop where the scalar body panics inside it. `vgatherdpd`
//! sign-extends its 32-bit indices, so the vector path is taken only
//! when `1 ≤ x.len() ≤ 2³¹`. The panel blocks gather nothing: each
//! panel row is loaded through a range-checked slice, so a column
//! outside the panel panics before the load, as the scalar body does.
//! The SELL conversion's transpose gathers a chunk's rows by 64-bit
//! position, each lane masked to its row's extent, which it first
//! range-checks against both CSR arrays (`CsrRows::row`): a `row_ptr`
//! that runs past them panics before any gather. It writes the slot
//! arrays into reserved capacity, every slot exactly once.

pub mod dot;
pub mod panel;
pub mod slab;
#[cfg(target_arch = "x86_64")]
mod x86;

use spmv_parallel::DisjointWriter;
use std::ops::Range;

/// A borrowed view of one matrix layout — the only way a kernel sees a
/// matrix. Every format of [`crate::FormatKind::KERNEL_LAYER`] builds
/// one of the three implementors ([`dot::CsrRows`], [`slab::Slab`],
/// [`slab::SellChunks`]) per call; the contracts in the [module
/// docs](self) are what [`View::run`] promises.
pub trait View {
    /// Matrix rows.
    fn rows(&self) -> usize;
    /// Matrix columns.
    fn cols(&self) -> usize;
    /// The units `run` ranges over and a schedule partitions: rows, or
    /// SELL chunks.
    fn units(&self) -> usize;
    /// SpMV over a unit range: overwrites `out[r]` with `row_r · x` for
    /// every row `r` of `units`. With `DOT` (square matrices: `x`
    /// doubles as the row-indexed operand) also returns the range's
    /// share `Σ x[r] · out[r]` of the fused dot, accumulated in the
    /// order the rows are produced, each sum still in a register; 0.0
    /// without.
    fn run<const DOT: bool>(&self, units: Range<usize>, x: &[f64], out: &DisjointWriter<'_>)
        -> f64;
}

/// Number of independent accumulator lanes a kernel instance unrolls.
///
/// Widths mirror the vector units the lane kernels have code for: 1
/// (scalar), 4 (AVX2), 8 (AVX-512). There is no two-lane width: it
/// never had a vector path, and as two scalar chains it measured below
/// Naive-CSR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LaneWidth {
    /// Scalar: one accumulator, strictly sequential sums.
    W1,
    /// Four lanes (256-bit double vectors, AVX2).
    W4,
    /// Eight lanes (512-bit double vectors, AVX-512).
    W8,
}

impl LaneWidth {
    /// Every width, narrowest first.
    pub const ALL: [LaneWidth; 3] = [LaneWidth::W1, LaneWidth::W4, LaneWidth::W8];

    /// The number of lanes as a plain count.
    #[inline]
    pub fn lanes(self) -> usize {
        match self {
            LaneWidth::W1 => 1,
            LaneWidth::W4 => 4,
            LaneWidth::W8 => 8,
        }
    }

    /// Largest supported width not exceeding `n` (0 rounds up to 1).
    pub fn from_lanes(n: usize) -> LaneWidth {
        match n {
            0..=3 => LaneWidth::W1,
            4..=7 => LaneWidth::W4,
            _ => LaneWidth::W8,
        }
    }
}

/// The lane width chosen once at startup (or per engine) and threaded
/// through format construction, so every kernel call dispatches on a
/// pre-resolved width instead of re-probing. It is the width and the
/// policy that picks it ([`LaneProfile::current`],
/// [`LaneProfile::resolve`]); a SELL-C-σ kind pins its own chunk
/// height C.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneProfile {
    /// Unroll width for the inner loops.
    pub width: LaneWidth,
}

impl LaneProfile {
    /// Strictly scalar profile: W = 1.
    pub fn scalar() -> Self {
        LaneProfile::with_width(LaneWidth::W1)
    }

    /// Profile for an explicit width.
    pub fn with_width(width: LaneWidth) -> Self {
        LaneProfile { width }
    }

    /// The process-wide profile: `SPMV_LANES` if set to a parseable
    /// lane count, else a host CPU-feature probe. Resolved once and
    /// cached (mirroring `SPMV_THREADS` in `spmv-parallel`).
    pub fn current() -> Self {
        let probe = probe();
        LaneProfile::with_width(probe.env.unwrap_or(probe.host))
    }

    /// Resolves the effective profile given an optional device hint:
    /// the `SPMV_LANES` override always wins, then the hint, then the
    /// host probe. Engines pass their `DeviceSpec`-derived profile as
    /// the hint so modeled devices keep their calibrated width unless
    /// the operator pins one.
    pub fn resolve(hint: Option<LaneProfile>) -> Self {
        let probe = probe();
        match probe.env {
            Some(w) => LaneProfile::with_width(w),
            None => hint.unwrap_or_else(|| LaneProfile::with_width(probe.host)),
        }
    }
}

/// Parses an `SPMV_LANES`-style value: a lane count, rounded down to
/// the nearest supported width. Unparseable or zero values yield
/// `None` (fall through to the probe).
fn width_from_env_str(v: &str) -> Option<LaneWidth> {
    match v.trim().parse::<usize>() {
        Ok(0) | Err(_) => None,
        Ok(n) => Some(LaneWidth::from_lanes(n)),
    }
}

/// Best width the *host* CPU has lane kernels for, by feature
/// detection: a vector width on x86-64 with AVX2 or AVX-512, scalar
/// everywhere else.
fn host_width() -> LaneWidth {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            LaneWidth::W8
        } else if std::arch::is_x86_feature_detected!("avx2") {
            LaneWidth::W4
        } else {
            LaneWidth::W1
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        LaneWidth::W1
    }
}

/// What one look at the environment and the CPU found.
struct Probe {
    /// The `SPMV_LANES` override, if set to a parseable lane count.
    env: Option<LaneWidth>,
    /// Default width of the host.
    host: LaneWidth,
    /// Vector instruction set the lane kernels may use.
    #[cfg(target_arch = "x86_64")]
    isa: x86::Isa,
}

/// Probed once per process.
fn probe() -> &'static Probe {
    static PROBE: std::sync::OnceLock<Probe> = std::sync::OnceLock::new();
    PROBE.get_or_init(|| Probe {
        env: std::env::var("SPMV_LANES").ok().and_then(|v| width_from_env_str(&v)),
        host: host_width(),
        #[cfg(target_arch = "x86_64")]
        isa: x86::Isa::detect(),
    })
}

/// The cached proof of the host's vector instruction set.
#[cfg(target_arch = "x86_64")]
fn host_isa() -> x86::Isa {
    probe().isa
}

/// Name of the vector instruction set the single-vector lane kernels
/// use on this host at W > 1 — `"avx512"`, `"avx2"` or `"scalar"` — for
/// host records.
pub fn vector_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        host_isa().name()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

/// Pairwise (tree) reduction of W accumulators. For W = 4 this is
/// `(a0+a1) + (a2+a3)` — the historical Vectorized-CSR order — and
/// the order is fixed per W, which is what the determinism contract
/// requires.
#[inline]
pub(crate) fn tree_sum<const W: usize>(acc: &[f64; W]) -> f64 {
    match W {
        1 => acc[0],
        2 => acc[0] + acc[1],
        4 => (acc[0] + acc[1]) + (acc[2] + acc[3]),
        8 => ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])),
        _ => unreachable!("unsupported lane width {W}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_counts_round_trip() {
        for w in LaneWidth::ALL {
            assert_eq!(LaneWidth::from_lanes(w.lanes()), w);
        }
        assert_eq!(LaneWidth::from_lanes(0), LaneWidth::W1);
        assert_eq!(LaneWidth::from_lanes(3), LaneWidth::W1);
        assert_eq!(LaneWidth::from_lanes(6), LaneWidth::W4);
        assert_eq!(LaneWidth::from_lanes(64), LaneWidth::W8);
    }

    #[test]
    fn env_string_parsing_matches_spmv_threads_discipline() {
        // Mirrors the SPMV_THREADS contract: garbage and zero fall
        // through to the probe instead of erroring.
        assert_eq!(width_from_env_str("1"), Some(LaneWidth::W1));
        assert_eq!(width_from_env_str("2"), Some(LaneWidth::W1));
        assert_eq!(width_from_env_str("4"), Some(LaneWidth::W4));
        assert_eq!(width_from_env_str("8"), Some(LaneWidth::W8));
        assert_eq!(width_from_env_str(" 8 "), Some(LaneWidth::W8));
        assert_eq!(width_from_env_str("5"), Some(LaneWidth::W4));
        assert_eq!(width_from_env_str("0"), None);
        assert_eq!(width_from_env_str("banana"), None);
        assert_eq!(width_from_env_str(""), None);
    }

    #[test]
    fn resolve_prefers_hint_over_host_when_no_env_override() {
        // A width the host probe does not pick, so the hint is told
        // apart from the host on every host.
        let width = LaneWidth::ALL.into_iter().find(|&w| w != probe().host).unwrap();
        let hint = LaneProfile::with_width(width);
        let resolved = LaneProfile::resolve(Some(hint));
        match probe().env {
            // Operator pinned a width: the hint must lose.
            Some(w) => assert_eq!(resolved.width, w),
            None => assert_eq!(resolved, hint),
        }
        // current() and resolve(None) agree by construction.
        assert_eq!(LaneProfile::resolve(None), LaneProfile::current());
    }

    #[test]
    fn tree_sum_orders_are_fixed_per_width() {
        assert_eq!(tree_sum::<1>(&[1.5]), 1.5);
        assert_eq!(tree_sum::<2>(&[1.0, 2.0]), 3.0);
        assert_eq!(tree_sum::<4>(&[1.0, 2.0, 3.0, 4.0]), (1.0 + 2.0) + (3.0 + 4.0));
        let a8 = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(tree_sum::<8>(&a8), ((1.0 + 2.0) + (3.0 + 4.0)) + ((5.0 + 6.0) + (7.0 + 8.0)));
    }
}
