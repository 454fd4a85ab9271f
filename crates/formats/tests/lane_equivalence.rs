//! Cross-width lane-kernel equivalence (the shared-kernel contract):
//! every format migrated onto `spmv_formats::kernels` must, at every
//! lane width W ∈ {1, 2, 4, 8},
//!
//! 1. agree with the dense reference within floating-point tolerance
//!    (widths may reassociate CSR dot products differently), and
//! 2. be **bit-identical run to run at a fixed `LaneProfile`** — the
//!    accumulation order is a pure function of the profile, never of
//!    scheduling, scratch reuse, or prior output contents.
//!
//! Output vectors are garbage-prefilled (NaN) so a kernel that reads
//! or skips an output slot is caught, and the generated matrices
//! include rectangular shapes and all-empty rows.

use proptest::prelude::*;
use spmv_core::{vec_mismatch, CsrMatrix, DenseMatrix};
use spmv_formats::{build_format_with, FormatKind, LaneProfile, LaneWidth};
use spmv_parallel::ThreadPool;
use std::collections::BTreeMap;

/// The format kinds whose inner loops live in `kernels` (tentpole
/// migration set): the three CSR variants, ELL, HYB (slab + COO tail)
/// and the three SELL chunk widths.
const MIGRATED: [FormatKind; 8] = FormatKind::KERNEL_LAYER;

/// Random rectangular matrices with frequent empty rows: a quarter of
/// the candidate rows receive no entries at all, and tall/wide shapes
/// exercise the partial lane blocks at the bottom of each range.
fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (1usize..48, 1usize..48).prop_flat_map(|(rows, cols)| {
        let max_entries = (rows * cols).min(200);
        // Restricting generated rows to 3/4 of the range leaves the
        // tail rows empty (when rows >= 4), covering the empty-row and
        // out-of-chunk scatter paths of every kernel.
        let row_hi = (rows * 3 / 4).max(1);
        proptest::collection::vec((0..row_hi, 0..cols, -8i32..8), 0..=max_entries).prop_map(
            move |entries| {
                let mut dedup: BTreeMap<(usize, usize), f64> = BTreeMap::new();
                for (r, c, v) in entries {
                    dedup.insert((r, c), v as f64 * 0.5 + 0.25);
                }
                let triplets: Vec<(usize, usize, f64)> =
                    dedup.into_iter().map(|((r, c), v)| (r, c, v)).collect();
                CsrMatrix::from_triplets(rows, cols, &triplets).expect("deduplicated triplets")
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_width_matches_dense(m in arb_matrix()) {
        let x: Vec<f64> = (0..m.cols()).map(|i| ((i * 7 + 3) % 5) as f64 - 2.0).collect();
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        for width in LaneWidth::ALL {
            let profile = LaneProfile::with_width(width);
            for kind in MIGRATED {
                let Ok(f) = build_format_with(kind, &m, profile) else { continue };
                let mut y = vec![f64::NAN; m.rows()];
                f.spmv(&x, &mut y);
                prop_assert_eq!(
                    vec_mismatch(&y, &want, 1e-12, 1e-12),
                    None,
                    "{} at {:?}",
                    f.name(),
                    width
                );
            }
        }
    }

    #[test]
    fn fixed_profile_is_bit_reproducible(m in arb_matrix()) {
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.7).sin() + 0.2).collect();
        let pool = ThreadPool::new(4);
        for width in LaneWidth::ALL {
            let profile = LaneProfile::with_width(width);
            for kind in MIGRATED {
                let Ok(f) = build_format_with(kind, &m, profile) else { continue };
                // Sequential, twice, different garbage prefill: the
                // output must not depend on prior y contents.
                let mut a = vec![f64::NAN; m.rows()];
                f.spmv(&x, &mut a);
                let mut b = vec![f64::NEG_INFINITY; m.rows()];
                f.spmv(&x, &mut b);
                prop_assert_eq!(&a, &b, "{} seq at {:?}", f.name(), width);
                // A freshly built format at the same profile agrees
                // bitwise too (conversion is deterministic).
                let g = build_format_with(kind, &m, profile).expect("built once already");
                let mut c = vec![f64::NAN; m.rows()];
                g.spmv(&x, &mut c);
                prop_assert_eq!(&a, &c, "{} rebuild at {:?}", f.name(), width);
                // Parallel runs are bit-reproducible against themselves
                // on the same pool; against sequential they are bitwise
                // too for row-disjoint schedules, while HYB's COO tail
                // sums chunk carries in a different association and
                // only promises tolerance.
                let mut p = vec![f64::NAN; m.rows()];
                f.spmv_parallel(&pool, &x, &mut p);
                let mut p2 = vec![f64::NEG_INFINITY; m.rows()];
                f.spmv_parallel(&pool, &x, &mut p2);
                prop_assert_eq!(&p, &p2, "{} par rerun at {:?}", f.name(), width);
                if kind == FormatKind::Hyb {
                    prop_assert_eq!(
                        vec_mismatch(&a, &p, 1e-12, 1e-12),
                        None,
                        "{} par at {:?}",
                        f.name(),
                        width
                    );
                } else {
                    prop_assert_eq!(&a, &p, "{} par at {:?}", f.name(), width);
                }
            }
        }
    }

    #[test]
    fn spmm_is_bit_reproducible_per_width(m in arb_matrix(), k in 1usize..4) {
        let (rows, cols) = (m.rows(), m.cols());
        let x: Vec<f64> = (0..cols * k).map(|i| ((i * 11 + 5) % 9) as f64 * 0.25 - 1.0).collect();
        for width in LaneWidth::ALL {
            let profile = LaneProfile::with_width(width);
            for kind in MIGRATED {
                let Ok(f) = build_format_with(kind, &m, profile) else { continue };
                let mut a = vec![f64::NAN; rows * k];
                f.spmm(&x, k, &mut a);
                let mut b = vec![f64::INFINITY; rows * k];
                f.spmm(&x, k, &mut b);
                prop_assert_eq!(&a, &b, "{} spmm at {:?}", f.name(), width);
            }
        }
    }

    #[test]
    fn slab_and_chunk_kernels_are_width_invariant(m in arb_matrix()) {
        // ELL, HYB and SELL map accumulators 1:1 to rows, so changing
        // the lane width must not even reassociate: all widths agree
        // bitwise with the scalar kernel. (CSR gather-dots split one
        // row's products across lanes and only promise tolerance.)
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 1.3).cos()).collect();
        for kind in [
            FormatKind::Ell,
            FormatKind::Hyb,
            FormatKind::SellC4,
            FormatKind::SellCSigma,
            FormatKind::SellC16,
        ] {
            let Ok(scalar) = build_format_with(kind, &m, LaneProfile::scalar()) else { continue };
            let mut want = vec![f64::NAN; m.rows()];
            scalar.spmv(&x, &mut want);
            for width in [LaneWidth::W4, LaneWidth::W8] {
                let f = build_format_with(kind, &m, LaneProfile::with_width(width))
                    .expect("scalar build succeeded, so wider lanes must too");
                let mut got = vec![f64::NAN; m.rows()];
                f.spmv(&x, &mut got);
                prop_assert_eq!(&got, &want, "{} at {:?}", f.name(), width);
            }
        }
    }
}
