//! Table-driven SpMM differential: every `FormatKind` × every
//! `LaneWidth` × k ∈ {0 … 17} × a table of adversarial shapes, each
//! answer checked two ways on a NaN-prefilled `y`:
//!
//! 1. against the dense reference, column by column;
//! 2. **bit-for-bit** against `k` calls of the same instance's `spmv` —
//!    the determinism contract of `kernels::panel` (and trivially of
//!    the default loop the other formats keep).
//!
//! The whole table runs on one thread with wide and narrow shapes
//! interleaved, so the per-thread panel scratch is grown, then reused
//! by a smaller matrix, then needed at full size again: stale panel
//! contents or a scratch sliced too short would show as a wrong or
//! missing value.

use spmv_core::{CsrMatrix, DenseMatrix};
use spmv_formats::{build_format_with, FormatBuildError, FormatKind, LaneProfile, LaneWidth};

/// 8 and 16 are whole panel blocks, 4 the half block, 5/7/9/17 mix
/// blocks with leftover columns, 0–3 never touch the panel.
const KS: [usize; 11] = [0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17];

/// `rows × cols` with `per_row(r)` nonzeros in row `r`, columns spread
/// by a fixed stride.
fn patterned(rows: usize, cols: usize, per_row: impl Fn(usize) -> usize) -> CsrMatrix {
    let mut triplets = Vec::new();
    for r in 0..rows {
        for i in 0..per_row(r).min(cols) {
            let c = (r * 5 + i * 7) % cols;
            triplets.push((r, c, 0.25 + ((r * 3 + i) % 11) as f64 * 0.5 - 2.0));
        }
    }
    // Colliding columns sum in `from_triplets`; the pattern stays valid.
    CsrMatrix::from_triplets(rows, cols, &triplets).expect("patterned matrix")
}

/// The shape table, wide and narrow alternating.
fn shapes() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("wide_5x1200", patterned(5, 1200, |r| 40 + r)),
        ("zero_rows_0x9", CsrMatrix::zeros(0, 9)),
        ("large_300x1500", patterned(300, 1500, |r| 3 + r % 9)),
        ("zero_cols_9x0", CsrMatrix::zeros(9, 0)),
        ("tall_1200x5", patterned(1200, 5, |r| r % 4)),
        ("all_rows_empty_37x23", CsrMatrix::zeros(37, 23)),
        ("one_mega_row_20x400", patterned(20, 400, |r| if r == 7 { 400 } else { r % 2 })),
        // 67 = 16·4 + 3: the last SELL chunk is partial at C = 4, 8, 16.
        ("partial_last_chunk_67x67", patterned(67, 67, |r| 1 + r % 6)),
        ("large_again_300x1500", patterned(300, 1500, |r| 3 + r % 9)),
    ]
}

fn operand(cols: usize, k: usize) -> Vec<f64> {
    (0..cols * k).map(|i| (i as f64 * 0.173).sin() * 2.0 - 0.3).collect()
}

#[test]
fn every_format_lane_width_and_k_matches_dense_and_k_spmvs_bitwise() {
    let shapes = shapes();
    // One reference per (shape, k), shared by every format and width.
    let operands: Vec<Vec<Vec<f64>>> =
        shapes.iter().map(|(_, m)| KS.iter().map(|&k| operand(m.cols(), k)).collect()).collect();
    let references: Vec<Vec<Vec<f64>>> = shapes
        .iter()
        .zip(&operands)
        .map(|((_, m), xs)| {
            let dense = DenseMatrix::from_csr(m);
            xs.iter()
                .zip(KS)
                .map(|(x, k)| {
                    (0..k).flat_map(|j| dense.spmv(&x[j * m.cols()..(j + 1) * m.cols()])).collect()
                })
                .collect()
        })
        .collect();

    let mut checked = 0usize;
    for kind in FormatKind::ALL {
        for width in LaneWidth::ALL {
            let built: Vec<_> = shapes
                .iter()
                .map(|(name, m)| {
                    match build_format_with(kind, m, LaneProfile::with_width(width)) {
                        Ok(f) => Some(f),
                        // DIA/ELL/VSL may refuse a shape on their budget.
                        Err(FormatBuildError::PaddingOverflow { .. }) => None,
                        Err(e) => panic!("{name}: {} failed to build: {e}", kind.name()),
                    }
                })
                .collect();
            for (ki, k) in KS.into_iter().enumerate() {
                for (si, (name, m)) in shapes.iter().enumerate() {
                    let Some(f) = &built[si] else { continue };
                    let (rows, cols) = (m.rows(), m.cols());
                    let ctx = format!("{name}/{}/{width:?}/k={k}", kind.name());
                    let x = &operands[si][ki];
                    let mut y = vec![f64::NAN; rows * k];
                    f.spmm(x, k, &mut y);

                    let want = &references[si][ki];
                    for (i, (got, want)) in y.iter().zip(want).enumerate() {
                        assert!(
                            (got - want).abs() <= 1e-10 * (1.0 + want.abs()),
                            "{ctx} vs dense: col {} row {}: {got} vs {want}",
                            i / rows,
                            i % rows
                        );
                    }
                    for j in 0..k {
                        let mut col = vec![f64::NAN; rows];
                        f.spmv(&x[j * cols..(j + 1) * cols], &mut col);
                        let same = y[j * rows..(j + 1) * rows]
                            .iter()
                            .zip(&col)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(same, "{ctx}: column {j} differs from spmv in the last bits");
                    }
                    checked += 1;
                }
            }
        }
    }
    // Every CSR-family kind accepts every shape: the table cannot have
    // silently skipped its way to green.
    assert!(checked >= 10 * LaneWidth::ALL.len() * KS.len() * shapes.len(), "only {checked} cells");
}
