//! Format registry: enumerate, name and build every format uniformly —
//! the glue the campaign runner, the figure binaries and the SpMM
//! throughput bench use. Every built format exposes the full
//! [`SparseFormat`] surface; what is behind it depends on the kind's
//! set. The seven kinds of [`FormatKind::SERVING`], the engine's, are
//! its distinct sequential kernels: CSR at W1 and at the profile's W,
//! the ELL slab, HYB's slab plus tail and SELL at C ∈ {4, 8, 16}. They
//! have parallel, panel SpMM (all but HYB), fused-dot and wire code of
//! their own. Every other kind is a selector label
//! [`FormatKind::served_as`] maps onto one of them or onto none. The
//! five CSR-family kinds are variants of one [`CsrFormat`].

use crate::bcsr::BcsrFormat;
use crate::coo::CooFormat;
use crate::csr::{CsrFormat, CsrVariant};
use crate::dia::DiaFormat;
use crate::ell::EllFormat;
use crate::hyb::HybFormat;
use crate::kernels::LaneProfile;
use crate::sellcs::{SellCSigmaFormat, DEFAULT_SIGMA};
use crate::sparsex::SparseXFormat;
use crate::traits::{FormatBuildError, SparseFormat};
use crate::vsl::VslFormat;
use serde::{Deserialize, Serialize};
use spmv_core::CsrMatrix;

/// Every storage format of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FormatKind {
    /// Straightforward CSR, static row partition.
    NaiveCsr,
    /// CSR with an ILP-oriented unrolled kernel.
    VectorizedCsr,
    /// CSR with nnz-balanced row partition.
    BalancedCsr,
    /// Coordinate format.
    Coo,
    /// Diagonal format (stencil-structured matrices, §VI).
    Dia,
    /// Blocked CSR with auto-tuned block size (cuSPARSE-style, §VI).
    Bcsr,
    /// ELLPACK.
    Ell,
    /// Hybrid ELL + COO.
    Hyb,
    /// SELL-C-σ.
    SellCSigma,
    /// CSR5's name: static scalar rows, charged a tile row pointer.
    Csr5,
    /// Merge-CSR's name: static scalar rows.
    MergeCsr,
    /// SparseX-lite compressed CSR.
    SparseX,
    /// Vitis Sparse Library CSC variant (FPGA).
    Vsl,
    /// SELL-C-σ pinned to chunk width C = 4.
    SellC4,
    /// SELL-C-σ pinned to chunk width C = 16.
    SellC16,
}

impl FormatKind {
    /// All formats, in a stable report order. Positions are wire tags
    /// (see `wire::tag_of`), so new kinds append at the END only; each
    /// position is the kind's discriminant (`kind as usize`).
    pub const ALL: [FormatKind; 15] = [
        FormatKind::NaiveCsr,
        FormatKind::VectorizedCsr,
        FormatKind::BalancedCsr,
        FormatKind::Coo,
        FormatKind::Dia,
        FormatKind::Bcsr,
        FormatKind::Ell,
        FormatKind::Hyb,
        FormatKind::SellCSigma,
        FormatKind::Csr5,
        FormatKind::MergeCsr,
        FormatKind::SparseX,
        FormatKind::Vsl,
        FormatKind::SellC4,
        FormatKind::SellC16,
    ];

    /// The formats whose single-vector inner loops live in the shared
    /// lane-kernel layer ([`crate::kernels`]: CSR rows in `dot`, ELL's
    /// and SELL's padded slabs in `slab`) — the ones that build a
    /// [`crate::kernels::View`] and a [`LaneProfile`] changes the code
    /// of.
    pub const KERNEL_LAYER: [FormatKind; 8] = [
        FormatKind::NaiveCsr,
        FormatKind::VectorizedCsr,
        FormatKind::BalancedCsr,
        FormatKind::Ell,
        FormatKind::Hyb,
        FormatKind::SellC4,
        FormatKind::SellCSigma,
        FormatKind::SellC16,
    ];

    /// The kinds the engine may build, serve, cache and snapshot: the
    /// image of [`FormatKind::served_as`], one kind per sequential
    /// kernel. The figure set — COO, DIA, BCSR, VSL and SparseX — exists
    /// for the modeled devices' figures: those kinds convert, run a
    /// sequential `spmv` and report their storage statistics, and take
    /// the trait's defaults for everything else (`spmv_parallel` runs
    /// `spmv`; no panel kernel, no wire codec).
    pub const SERVING: [FormatKind; 7] = [
        FormatKind::NaiveCsr,
        FormatKind::BalancedCsr,
        FormatKind::Ell,
        FormatKind::Hyb,
        FormatKind::SellC4,
        FormatKind::SellCSigma,
        FormatKind::SellC16,
    ];

    /// The serving kind that runs a selector label of this kind, if any.
    /// Vectorized-CSR runs Balanced-CSR's row kernel at the same width,
    /// and on a pool one worker wide every row schedule runs on the
    /// caller; Merge-CSR's and CSR5's nonzero splits are schedules of
    /// the same rows. So every CSR-family label but Naive-CSR's serves
    /// as Balanced-CSR, whose nnz-balanced rows are never worse than
    /// static ones. The figure set serves as nothing.
    pub fn served_as(self) -> Option<FormatKind> {
        match self {
            FormatKind::VectorizedCsr | FormatKind::Csr5 | FormatKind::MergeCsr => {
                Some(FormatKind::BalancedCsr)
            }
            FormatKind::NaiveCsr
            | FormatKind::BalancedCsr
            | FormatKind::Ell
            | FormatKind::Hyb
            | FormatKind::SellC4
            | FormatKind::SellCSigma
            | FormatKind::SellC16 => Some(self),
            FormatKind::Coo
            | FormatKind::Dia
            | FormatKind::Bcsr
            | FormatKind::SparseX
            | FormatKind::Vsl => None,
        }
    }

    /// The stable display name (matches `SparseFormat::name`).
    pub fn name(self) -> &'static str {
        match self {
            FormatKind::NaiveCsr => "Naive-CSR",
            FormatKind::VectorizedCsr => "Vectorized-CSR",
            FormatKind::BalancedCsr => "Balanced-CSR",
            FormatKind::Coo => "COO",
            FormatKind::Dia => "DIA",
            FormatKind::Bcsr => "BCSR",
            FormatKind::Ell => "ELL",
            FormatKind::Hyb => "HYB",
            FormatKind::SellCSigma => "SELL-C-s",
            FormatKind::Csr5 => "CSR5",
            FormatKind::MergeCsr => "Merge-CSR",
            FormatKind::SparseX => "SparseX",
            FormatKind::Vsl => "VSL",
            FormatKind::SellC4 => "SELL-4-s",
            FormatKind::SellC16 => "SELL-16-s",
        }
    }

    /// `true` for the paper's "research" formats (vs. the vendor
    /// 'state-of-practice' ones) — used by the Fig. 7 analysis.
    pub fn is_research(self) -> bool {
        matches!(
            self,
            FormatKind::SellCSigma
                | FormatKind::SellC4
                | FormatKind::SellC16
                | FormatKind::Csr5
                | FormatKind::MergeCsr
                | FormatKind::SparseX
        )
    }

    /// The SELL-C-σ chunk width a kind pins, if it is a SELL variant.
    pub fn sell_c(self) -> Option<usize> {
        match self {
            FormatKind::SellC4 => Some(4),
            FormatKind::SellCSigma => Some(crate::sellcs::DEFAULT_C),
            FormatKind::SellC16 => Some(16),
            _ => None,
        }
    }

    /// Inverse of [`FormatKind::name`]: resolves a stable display name
    /// (as stored in campaign records and selector labels) back to the
    /// kind. Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<FormatKind> {
        FormatKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Builds the chosen format from CSR with the process-wide
/// [`LaneProfile::current`].
pub fn build_format(
    kind: FormatKind,
    csr: &CsrMatrix,
) -> Result<Box<dyn SparseFormat>, FormatBuildError> {
    build_format_with(kind, csr, LaneProfile::current())
}

/// Builds the chosen format from CSR with an explicit lane profile —
/// the hook the engine uses to thread its `DeviceSpec`-derived profile
/// through conversion. The SELL chunk widths stay pinned per kind
/// (names are wire-stable); the profile only selects the kernel lane
/// width.
pub fn build_format_with(
    kind: FormatKind,
    csr: &CsrMatrix,
    profile: LaneProfile,
) -> Result<Box<dyn SparseFormat>, FormatBuildError> {
    // The CSR family keeps a clone of the operand, which shares its
    // arrays: no O(nnz) copy.
    let csr_family =
        |variant| Box::new(CsrFormat::with_profile(csr.clone(), variant, profile)) as Box<_>;
    Ok(match kind {
        FormatKind::NaiveCsr => csr_family(CsrVariant::Naive),
        FormatKind::VectorizedCsr => csr_family(CsrVariant::Vectorized),
        FormatKind::BalancedCsr => csr_family(CsrVariant::Balanced),
        FormatKind::Csr5 => csr_family(CsrVariant::Tiles),
        FormatKind::MergeCsr => csr_family(CsrVariant::MergePath),
        FormatKind::Coo => Box::new(CooFormat::from_csr(csr)),
        FormatKind::Dia => Box::new(DiaFormat::from_csr(csr)?),
        FormatKind::Bcsr => Box::new(BcsrFormat::from_csr(csr)?),
        FormatKind::Ell => {
            Box::new(EllFormat::from_csr_with(csr, crate::ell::DEFAULT_MAX_PADDING_RATIO, profile)?)
        }
        FormatKind::Hyb => Box::new(HybFormat::from_csr_profile(csr, profile)),
        FormatKind::SellCSigma => Box::new(SellCSigmaFormat::from_csr_with_profile(
            csr,
            crate::sellcs::DEFAULT_C,
            DEFAULT_SIGMA,
            profile,
        )),
        FormatKind::SellC4 => {
            Box::new(SellCSigmaFormat::from_csr_with_profile(csr, 4, DEFAULT_SIGMA, profile))
        }
        FormatKind::SellC16 => {
            Box::new(SellCSigmaFormat::from_csr_with_profile(csr, 16, DEFAULT_SIGMA, profile))
        }
        FormatKind::SparseX => Box::new(SparseXFormat::from_csr(csr)?),
        FormatKind::Vsl => Box::new(VslFormat::from_csr(csr)?),
    })
}

/// Builds `kind` from CSR, falling back down the `fallbacks` chain when
/// a format refuses the matrix (e.g. the DIA/ELL padding budget or the
/// VSL channel capacity). Returns the built format, the kind actually
/// built, and how many candidates refused before one accepted.
///
/// Errors only when every candidate refuses; chains that end in a CSR
/// variant or COO (which accept any matrix) are total. This is the
/// conversion hook the adaptive engine serves through.
pub fn build_with_fallback(
    kind: FormatKind,
    csr: &CsrMatrix,
    fallbacks: &[FormatKind],
) -> Result<(Box<dyn SparseFormat>, FormatKind, usize), FormatBuildError> {
    build_with_fallback_profile(kind, csr, fallbacks, LaneProfile::current())
}

/// [`build_with_fallback`] with an explicit lane profile threaded into
/// every candidate conversion.
pub fn build_with_fallback_profile(
    kind: FormatKind,
    csr: &CsrMatrix,
    fallbacks: &[FormatKind],
    profile: LaneProfile,
) -> Result<(Box<dyn SparseFormat>, FormatKind, usize), FormatBuildError> {
    let mut refusals = 0usize;
    let mut last_err = None;
    for &candidate in std::iter::once(&kind).chain(fallbacks) {
        if refusals > 0 && candidate == kind {
            continue; // don't retry the kind that already refused
        }
        match build_format_with(candidate, csr, profile) {
            Ok(built) => return Ok((built, candidate, refusals)),
            Err(e) => {
                refusals += 1;
                last_err = Some(e);
            }
        }
    }
    Err(last_err.expect("at least one candidate is always tried"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<_> = FormatKind::ALL.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), FormatKind::ALL.len());
    }

    #[test]
    fn all_positions_are_discriminants() {
        for (i, kind) in FormatKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
    }

    #[test]
    fn build_name_matches_kind_name() {
        let m = CsrMatrix::identity(16);
        for kind in FormatKind::ALL {
            let f = build_format(kind, &m).unwrap();
            assert_eq!(f.name(), kind.name());
            assert_eq!(f.rows(), 16);
            assert_eq!(f.nnz(), 16);
        }
    }

    #[test]
    fn every_format_spmm_matches_k_independent_spmvs() {
        // Mixed row lengths so HYB/ELL/SELL exercise real padding.
        let mut t = Vec::new();
        for r in 0..24usize {
            let len = 1 + (r * 5) % 7;
            for j in 0..len {
                t.push((r, (r * 3 + j * 11) % 30, (r as f64 - j as f64) * 0.21 + 0.4));
            }
        }
        let m = CsrMatrix::from_triplets(24, 30, &t).unwrap();
        let k = 4usize;
        let x: Vec<f64> = (0..m.cols() * k).map(|i| (i as f64 * 0.19).sin()).collect();
        for kind in FormatKind::ALL {
            let f = build_format(kind, &m).unwrap();
            let got = f.spmm_alloc(&x, k);
            assert_eq!(got.len(), m.rows() * k);
            for j in 0..k {
                let want = f.spmv_alloc(&x[j * m.cols()..(j + 1) * m.cols()]);
                for (i, (a, b)) in
                    got[j * m.rows()..(j + 1) * m.rows()].iter().zip(&want).enumerate()
                {
                    assert!(
                        (a - b).abs() < 1e-10,
                        "{} spmm col {j} row {i}: {a} vs {b}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn figure_kinds_run_their_sequential_spmv_in_parallel() {
        // Banded, so that DIA and BCSR accept it too.
        let t: Vec<_> =
            (0..120usize).map(|i| (i / 3, (i / 3 + i % 3) % 40, 0.5 + i as f64)).collect();
        let m = CsrMatrix::from_triplets(40, 40, &t).unwrap();
        let x: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).cos()).collect();
        let pool = spmv_parallel::ThreadPool::new(4);
        for kind in FormatKind::ALL.into_iter().filter(|k| !FormatKind::SERVING.contains(k)) {
            let f = build_format(kind, &m).unwrap();
            let mut y = vec![f64::NAN; 40];
            f.spmv_parallel(&pool, &x, &mut y);
            let want = f.spmv_alloc(&x);
            assert!(y.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()), "{kind:?}");
        }
    }

    #[test]
    fn from_name_round_trips_every_kind() {
        for kind in FormatKind::ALL {
            assert_eq!(FormatKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(FormatKind::from_name("CSR-6"), None);
        assert_eq!(FormatKind::from_name(""), None);
    }

    /// A matrix whose nonzeros land on O(nnz) distinct diagonals, so the
    /// DIA padding budget refuses it.
    fn dia_hostile() -> CsrMatrix {
        let t: Vec<_> = (0..60usize).map(|r| (r, (r * r + 3) % 997, 1.0)).collect();
        CsrMatrix::from_triplets(60, 997, &t).unwrap()
    }

    #[test]
    fn fallback_chain_recovers_from_a_refusal() {
        let m = dia_hostile();
        assert!(build_format(FormatKind::Dia, &m).is_err(), "premise: DIA must refuse");
        let (built, kind, refusals) =
            build_with_fallback(FormatKind::Dia, &m, &[FormatKind::NaiveCsr]).unwrap();
        assert_eq!(kind, FormatKind::NaiveCsr);
        assert_eq!(refusals, 1);
        assert_eq!(built.nnz(), m.nnz());
        // A format that accepts the matrix never falls back.
        let (_, kind, refusals) =
            build_with_fallback(FormatKind::Coo, &m, &[FormatKind::NaiveCsr]).unwrap();
        assert_eq!(kind, FormatKind::Coo);
        assert_eq!(refusals, 0);
    }

    #[test]
    fn fallback_chain_exhausted_reports_the_last_error() {
        let m = dia_hostile();
        let err = build_with_fallback(FormatKind::Dia, &m, &[]).err().unwrap();
        assert!(matches!(err, FormatBuildError::PaddingOverflow { format: "DIA", .. }));
        // Duplicate candidates are not retried.
        let err = build_with_fallback(FormatKind::Dia, &m, &[FormatKind::Dia]).err().unwrap();
        assert!(matches!(err, FormatBuildError::PaddingOverflow { format: "DIA", .. }));
    }

    #[test]
    fn research_classification_matches_the_paper() {
        assert!(FormatKind::Csr5.is_research());
        assert!(FormatKind::MergeCsr.is_research());
        assert!(FormatKind::SparseX.is_research());
        assert!(FormatKind::SellCSigma.is_research());
        assert!(FormatKind::SellC4.is_research());
        assert!(FormatKind::SellC16.is_research());
        assert!(!FormatKind::NaiveCsr.is_research());
        assert!(!FormatKind::Hyb.is_research());
        assert!(!FormatKind::Vsl.is_research());
    }

    #[test]
    fn sell_chunk_width_variants_round_trip() {
        assert_eq!(FormatKind::SellC4.sell_c(), Some(4));
        assert_eq!(FormatKind::SellCSigma.sell_c(), Some(8));
        assert_eq!(FormatKind::SellC16.sell_c(), Some(16));
        assert_eq!(FormatKind::NaiveCsr.sell_c(), None);
    }

    #[test]
    fn serving_is_the_image_of_served_as() {
        use FormatKind::*;
        for kind in FormatKind::SERVING {
            assert_eq!(kind.served_as(), Some(kind), "{kind:?} serves as itself");
        }
        let mut image: Vec<_> =
            FormatKind::ALL.into_iter().filter_map(FormatKind::served_as).collect();
        image.sort();
        image.dedup();
        let mut serving = FormatKind::SERVING.to_vec();
        serving.sort();
        assert_eq!(image, serving);
        for kind in [Coo, Dia, Bcsr, SparseX, Vsl] {
            assert_eq!(kind.served_as(), None, "{kind:?} is a figure kind");
        }
        for kind in [VectorizedCsr, BalancedCsr, MergeCsr, Csr5] {
            assert_eq!(kind.served_as(), Some(BalancedCsr), "{kind:?}");
        }
    }

    #[test]
    fn sell_variants_build_with_their_pinned_chunk_width() {
        let m = CsrMatrix::identity(20);
        for (kind, c) in
            [(FormatKind::SellC4, 4usize), (FormatKind::SellCSigma, 8), (FormatKind::SellC16, 16)]
        {
            let f = build_format(kind, &m).unwrap();
            assert_eq!(f.name(), kind.name());
            // The pinned C shows up as the padded slab size on an
            // identity matrix: ceil(rows/C)·C slots of width 1.
            let stored = (20usize.div_ceil(c) * c) as f64;
            assert!((f.padding_ratio() - stored / 20.0).abs() < 1e-12, "{kind:?}");
        }
    }

    #[test]
    fn profile_controls_lanes_but_not_names() {
        use crate::kernels::{LaneProfile, LaneWidth};
        let m = CsrMatrix::identity(8);
        for kind in FormatKind::ALL {
            for width in [LaneWidth::W1, LaneWidth::W8] {
                let Ok(f) = build_format_with(kind, &m, LaneProfile::with_width(width)) else {
                    continue;
                };
                assert_eq!(f.name(), kind.name(), "{kind:?} at {width:?}");
            }
        }
    }
}
