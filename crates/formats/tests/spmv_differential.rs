//! Table-driven SpMV differential for the kernel layer: the eight
//! `FormatKind`s whose inner loops live in `spmv_formats::kernels` ×
//! every `LaneWidth` × {`spmv`, `spmv_parallel`, `spmv_dot`} × a table
//! of adversarial shapes × finite, NaN- and ∞-carrying operands, every
//! answer compared **bit for bit** against the scalar-lane order at the
//! same W on a NaN-prefilled `y`.
//!
//! The lane width is what selects the instruction set (see the width
//! rule in `kernels`): W1 is the scalar code everywhere; on an AVX2 or
//! AVX-512 host W4 and W8 run the CSR rows on 256- and 512-bit
//! vectors and every W > 1 runs slabs and chunks on the widest unit —
//! so crossing the widths crosses every instruction set the host
//! offers. (Forcing a *narrower* set than the host's best is the job of
//! the unit tests next to the microkernels.) The oracles never touch a
//! vector unit:
//!
//! * CSR family: [`lane_dot`] below, a from-the-documentation
//!   re-statement of the W-accumulator order;
//! * ELL, HYB, SELL-C-σ: the same format built at W1 — their sums are
//!   width-independent by contract, and W1 is scalar by the width rule.
//!
//! Run under `SPMV_LANES` ∈ {1, 4, 8} × `SPMV_THREADS` ∈ {1, 4} in CI:
//! the lane override changes nothing here (profiles are explicit), the
//! thread override sizes the pool `spmv_parallel` runs on.

use spmv_core::CsrMatrix;
use spmv_formats::kernels::dot::CsrRows;
use spmv_formats::kernels::slab::{SellChunks, Slab};
use spmv_formats::kernels::View;
use spmv_formats::{build_format_with, FormatBuildError, FormatKind, LaneProfile, LaneWidth};
use spmv_parallel::{DisjointWriter, ThreadPool};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The lane width a CSR kind sums its rows at (Naive-CSR is pinned to
/// W1); `None` for the width-independent slab and chunk kinds.
fn csr_lanes(kind: FormatKind, width: LaneWidth) -> Option<usize> {
    match kind {
        FormatKind::NaiveCsr => Some(1),
        FormatKind::VectorizedCsr | FormatKind::BalancedCsr => Some(width.lanes()),
        _ => None,
    }
}

/// One CSR row in the documented W-lane order: lane `l` owns products
/// `l, l + W, …` of the full W-chunks, the lanes reduce pairwise, the
/// last `len mod W` products are a sequential sum added last.
fn lane_dot(w: usize, cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    let product = |i: usize| vals[i] * x[cols[i] as usize];
    let full = cols.len() / w * w;
    let mut acc = vec![0.0f64; w];
    for i in 0..full {
        acc[i % w] += product(i);
    }
    while acc.len() > 1 {
        acc = acc.chunks(2).map(|pair| pair[0] + pair[1]).collect();
    }
    let mut tail = 0.0;
    for i in full..cols.len() {
        tail += product(i);
    }
    acc[0] + tail
}

/// `rows × cols` with `per_row(r)` nonzeros in row `r` at strided
/// columns, the row's last nonzero in column `cols − 1`.
fn patterned(rows: usize, cols: usize, per_row: impl Fn(usize) -> usize) -> CsrMatrix {
    let mut triplets = Vec::new();
    for r in 0..rows {
        let n = per_row(r).min(cols);
        for i in 0..n {
            let c = if i + 1 == n { cols - 1 } else { (r * 5 + i * 7) % (cols - 1) };
            triplets.push((r, c, 0.25 + ((r * 3 + i) % 11) as f64 * 0.5 - 2.0));
        }
    }
    // Colliding columns sum in `from_triplets`; the pattern stays valid.
    CsrMatrix::from_triplets(rows, cols, &triplets).expect("patterned matrix")
}

fn shapes() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        // Row lengths 0..=33: every `len mod 8`, with and without full blocks.
        ("ragged_34x34", patterned(34, 34, |r| r)),
        // 67 = 16·4 + 3 = 8·8 + 3: a partial last chunk at C = 4, 8, 16
        // and an ELL row count no block of 8 or 4 divides.
        ("partial_chunks_67x67", patterned(67, 67, |r| 1 + r % 6)),
        ("empty_rows_in_chunks_29x29", patterned(29, 29, |r| if r % 3 == 0 { 0 } else { r % 9 })),
        ("one_column_13x1", patterned(13, 1, |r| r % 2)),
        ("one_by_one", patterned(1, 1, |_| 1)),
        ("wide_5x1200", patterned(5, 1200, |r| 40 + r)),
        ("tall_1200x5", patterned(1200, 5, |r| r % 4)),
        ("all_rows_empty_37x23", CsrMatrix::zeros(37, 23)),
        ("zero_rows_0x9", CsrMatrix::zeros(0, 9)),
        ("zero_cols_9x0", CsrMatrix::zeros(9, 0)),
    ]
}

/// A finite operand, one with NaNs and one with infinities of both
/// signs (first, last and a middle column, where present).
fn operands(cols: usize) -> Vec<(&'static str, Vec<f64>)> {
    let finite: Vec<f64> = (0..cols).map(|i| (i as f64 * 0.173).sin() * 2.0 - 0.3).collect();
    let poisoned = |a: f64, b: f64| {
        let mut x = finite.clone();
        for (at, v) in [(0, a), (cols / 2, b), (cols.saturating_sub(1), a)] {
            if let Some(slot) = x.get_mut(at) {
                *slot = v;
            }
        }
        x
    };
    vec![
        ("nan", poisoned(f64::NAN, f64::NAN)),
        ("inf", poisoned(f64::INFINITY, f64::NEG_INFINITY)),
        ("finite", finite),
    ]
}

/// Bit-identical, or NaN on both sides (which NaN an addition returns
/// is the one thing the hardware leaves to operand order).
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_same(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}");
    for (r, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(
            same(g, w),
            "{ctx}: row {r}: {g:e} ({:#x}) vs {w:e} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

#[test]
fn every_kernel_format_width_and_entry_point_matches_the_scalar_lane_order_bitwise() {
    // The environment's pool (SPMV_THREADS) and an odd fixed one, whose
    // chunk seams fall off every lane block.
    let pools = [ThreadPool::with_all_cores(), ThreadPool::new(3)];
    let mut checked = 0usize;
    for (name, m) in shapes() {
        let (rows, cols) = (m.rows(), m.cols());
        let square = rows == cols;
        for kind in FormatKind::KERNEL_LAYER {
            // The width-independent kinds are judged against their own
            // scalar build.
            let scalar = match build_format_with(kind, &m, LaneProfile::scalar()) {
                Ok(f) => f,
                // ELL may refuse a shape on its padding budget.
                Err(FormatBuildError::PaddingOverflow { .. }) => continue,
                Err(e) => panic!("{name}: {} failed to build: {e}", kind.name()),
            };
            for width in LaneWidth::ALL {
                let f = build_format_with(kind, &m, LaneProfile::with_width(width))
                    .expect("the scalar build succeeded");
                for (x_name, x) in operands(cols) {
                    let ctx = format!("{name}/{}/{width:?}/x={x_name}", kind.name());
                    let reference = csr_lanes(kind, width).map(|w| {
                        (0..rows)
                            .map(|r| {
                                let (cs, vs) = m.row(r);
                                lane_dot(w, cs, vs, &x)
                            })
                            .collect::<Vec<f64>>()
                    });

                    let mut want = vec![f64::NAN; rows];
                    match &reference {
                        Some(reference) => want.copy_from_slice(reference),
                        None => scalar.spmv(&x, &mut want),
                    }
                    let mut y = vec![f64::NAN; rows];
                    f.spmv(&x, &mut y);
                    assert_same(&y, &want, &format!("{ctx} spmv"));

                    for pool in &pools {
                        // HYB's COO tail merges chunk carries, so its
                        // parallel sums are its own — but the same at
                        // every width on the same pool.
                        if reference.is_none() {
                            scalar.spmv_parallel(pool, &x, &mut want);
                        }
                        let mut y = vec![f64::NAN; rows];
                        f.spmv_parallel(pool, &x, &mut y);
                        assert_same(&y, &want, &format!("{ctx} spmv_parallel/{}", pool.threads()));
                    }

                    if square {
                        let mut want_y = vec![f64::NAN; rows];
                        let want_dot = match &reference {
                            // Ascending-row fold, as the fused CSR kernel
                            // documents.
                            Some(reference) => {
                                want_y.copy_from_slice(reference);
                                x.iter().zip(reference).fold(0.0, |acc, (xi, yi)| acc + xi * yi)
                            }
                            None => scalar.spmv_dot(&x, &mut want_y),
                        };
                        let mut y = vec![f64::NAN; rows];
                        let got_dot = f.spmv_dot(&x, &mut y);
                        assert_same(&y, &want_y, &format!("{ctx} spmv_dot y"));
                        assert!(
                            same(got_dot, want_dot),
                            "{ctx} spmv_dot: {got_dot:e} vs {want_dot:e}"
                        );
                    }
                    checked += 1;
                }
            }
        }
    }
    // Seven kinds accept every shape: the table cannot have skipped its
    // way to green.
    assert!(checked >= 7 * LaneWidth::ALL.len() * 3 * 10, "only {checked} cells");
}

/// The propagation policy of `SparseFormat`: padding must not carry a
/// NaN into a row that never references the NaN's column. Before the
/// padded formats repeated the row's own last column they padded with
/// column 0 and answered `[3, NaN]` here.
#[test]
fn padding_does_not_poison_rows_that_never_reference_a_nonfinite_column() {
    let m = CsrMatrix::from_triplets(2, 4, &[(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 2.0)])
        .expect("2 x 4 matrix");
    let pool = ThreadPool::new(2);
    for poison in [f64::NAN, f64::INFINITY] {
        let x = [poison, 1.0, 1.0, 1.0];
        for kind in FormatKind::KERNEL_LAYER {
            for width in LaneWidth::ALL {
                let f = build_format_with(kind, &m, LaneProfile::with_width(width))
                    .expect("every kernel-layer format accepts a 2 x 4 matrix");
                let mut y = [f64::NAN; 2];
                f.spmv(&x, &mut y);
                assert_eq!(y, [3.0, 2.0], "{} {width:?} spmv, x[0] = {poison}", kind.name());
                let mut y = [f64::NAN; 2];
                f.spmv_parallel(&pool, &x, &mut y);
                assert_eq!(y, [3.0, 2.0], "{} {width:?} spmv_parallel", kind.name());
                assert_eq!(f.spmm_alloc(&x, 1), [3.0, 2.0], "{} {width:?} spmm", kind.name());
            }
        }
    }
}

/// Whether `kernel`, writing into a fresh `y` of `rows`, panics.
fn panics(rows: usize, kernel: impl FnOnce(&DisjointWriter<'_>)) -> bool {
    let mut y = vec![0.0; rows];
    catch_unwind(AssertUnwindSafe(|| kernel(&DisjointWriter::new(&mut y)))).is_err()
}

/// `CsrMatrix::from_parts_unchecked` is a safe function, so a column
/// index ≥ `cols` must end in a panic on every kernel path — the
/// scalar bodies' checked index, the vector bodies' gather mask — and
/// never in a read outside `x`. A column of 2³¹, which `vgatherdpd`
/// would sign-extend to 16 GiB *below* `x`, is the case a gather that
/// ignored its mask would not survive.
#[test]
fn an_out_of_range_column_panics_on_every_width_wherever_it_sits() {
    let n = 24usize;
    let x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
    let vals = vec![1.0; n];
    let perm: Vec<u32> = (0..12).collect();
    // Positions inside the first, a middle and the last block of 4 and
    // of 8, and (for the 23-long CSR row) inside the scalar tail.
    for bad_at in [0usize, 5, 11, 16, 22, 23] {
        for bad in [n as u32, 1 << 31, u32::MAX] {
            let mut cols: Vec<u32> = (0..n as u32).collect();
            cols[bad_at] = bad;
            for width in LaneWidth::ALL {
                let ctx = format!("{width:?}: column {bad} at {bad_at}");
                // One CSR row of 24 (whole blocks) or 23 (a tail).
                for len in [n, n - 1] {
                    let row_ptr = [0, len];
                    let row = CsrRows {
                        lanes: width,
                        cols: n,
                        row_ptr: &row_ptr,
                        col_idx: &cols,
                        values: &vals,
                    };
                    let hit = panics(1, |o| {
                        row.run::<false>(0..1, &x, o);
                    });
                    assert_eq!(hit, bad_at < len, "csr len {len}, {ctx}");
                    let hit = panics(n, |o| {
                        row.run::<true>(0..1, &x, o);
                    });
                    assert_eq!(hit, bad_at < len, "csr fused len {len}, {ctx}");
                }
                // An ELL slab of 24 rows × 1 slot.
                let ell = Slab {
                    lanes: width,
                    rows: n,
                    cols: n,
                    width: 1,
                    col_idx: &cols,
                    values: &vals,
                };
                assert!(
                    panics(n, |o| {
                        ell.run::<false>(0..n, &x, o);
                    }),
                    "slab, {ctx}"
                );
                assert!(
                    panics(n, |o| {
                        ell.run::<true>(0..n, &x, o);
                    }),
                    "slab fused, {ctx}"
                );
                // A SELL chunk of C = 12 × 2 slots: a block of 8 and one
                // of 4 per slot.
                let (ptr, slots) = ([0, 24], [2]);
                let sell = SellChunks {
                    lanes: width,
                    c: 12,
                    rows: 12,
                    cols: n,
                    perm: &perm,
                    chunk_ptr: &ptr,
                    chunk_width: &slots,
                    col_idx: &cols,
                    values: &vals,
                };
                assert!(
                    panics(12, |o| {
                        sell.run::<false>(0..1, &x, o);
                    }),
                    "sell, {ctx}"
                );
                assert!(
                    panics(n, |o| {
                        sell.run::<true>(0..1, &x, o);
                    }),
                    "sell fused, {ctx}"
                );
            }
        }
    }

    // The same through the formats. Debug builds validate inside
    // `from_parts_unchecked` and refuse the matrix there; release
    // builds hand it to the kernels.
    let mut cols: Vec<u32> = (0..n as u32).collect();
    cols[5] = n as u32;
    let row_ptr: Vec<usize> = (0..=n).map(|r| if r == 0 { 0 } else { n }).collect();
    let built = catch_unwind(|| CsrMatrix::from_parts_unchecked(n, n, row_ptr, cols, vals));
    assert_eq!(
        built.is_err(),
        cfg!(debug_assertions),
        "debug builds validate, release builds do not"
    );
    if let Ok(m) = built {
        for kind in FormatKind::KERNEL_LAYER {
            for width in LaneWidth::ALL {
                let Ok(f) = build_format_with(kind, &m, LaneProfile::with_width(width)) else {
                    continue;
                };
                let mut y = vec![0.0; n];
                let hit = catch_unwind(AssertUnwindSafe(|| f.spmv(&x, &mut y))).is_err();
                assert!(hit, "{} {width:?}: spmv over a poisoned matrix must panic", kind.name());
            }
        }
    }
}
