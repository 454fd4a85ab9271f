//! Gather-dot microkernels for CSR row slices: W-accumulator unrolled
//! `Σ vals[i] · x[cols[i]]`. The multi-vector kernel over the same
//! rows, in the same summation order, is [`super::panel::CsrRows`].
//!
//! Within a row, W splits the product stream across W accumulators
//! (lane `l` owns products `l, l+W, l+2W, …` of the full chunks) that
//! are reduced pairwise, so sums at different widths agree only to
//! floating-point tolerance; at a fixed width the order is exact and
//! reproducible. On x86-64 hosts with AVX2 or AVX-512 the W4 and W8
//! rows run on the vector unit (`super::x86`), bit-identical to the
//! bodies below.

use super::{tree_sum, LaneWidth};
use spmv_parallel::DisjointWriter;
use std::ops::Range;

/// W-accumulator dot product of one row slice against the gathered x.
#[inline]
pub(super) fn dot_w<const W: usize>(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    let mut acc = [0.0f64; W];
    let chunks = cols.len() / W;
    for i in 0..chunks {
        let base = i * W;
        for lane in 0..W {
            acc[lane] += vals[base + lane] * x[cols[base + lane] as usize];
        }
    }
    let mut tail = 0.0;
    for i in chunks * W..cols.len() {
        tail += vals[i] * x[cols[i] as usize];
    }
    tree_sum(&acc) + tail
}

/// The scalar-lane body of both flavours: `out[r] = row_r · x`, and
/// with `DOT` the partial `Σ x[r] · out[r]` in ascending row order
/// (0.0 without).
pub(super) fn csr_rows_w<const W: usize, const DOT: bool>(
    rows: Range<usize>,
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    out: &DisjointWriter<'_>,
) -> f64 {
    let mut partial = 0.0;
    for r in rows {
        let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
        let yr = dot_w::<W>(&col_idx[lo..hi], &values[lo..hi], x);
        out.write(r, yr);
        if DOT {
            partial += x[r] * yr;
        }
    }
    partial
}

/// Dispatches on `width` (and, on x86-64, the host's vector unit)
/// once, then runs the monomorphized loop.
fn csr_rows<const DOT: bool>(
    width: LaneWidth,
    rows: Range<usize>,
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    out: &DisjointWriter<'_>,
) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if let Some(partial) = super::x86::csr_rows::<DOT>(
        super::host_isa(),
        width,
        rows.clone(),
        row_ptr,
        col_idx,
        values,
        x,
        out,
    ) {
        return partial;
    }
    match width {
        LaneWidth::W1 => csr_rows_w::<1, DOT>(rows, row_ptr, col_idx, values, x, out),
        LaneWidth::W2 => csr_rows_w::<2, DOT>(rows, row_ptr, col_idx, values, x, out),
        LaneWidth::W4 => csr_rows_w::<4, DOT>(rows, row_ptr, col_idx, values, x, out),
        LaneWidth::W8 => csr_rows_w::<8, DOT>(rows, row_ptr, col_idx, values, x, out),
    }
}

/// SpMV over a CSR row range: `out[r] = row_r · x` for `r` in `rows`.
pub fn csr_spmv_rows(
    width: LaneWidth,
    rows: Range<usize>,
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    out: &DisjointWriter<'_>,
) {
    csr_rows::<false>(width, rows, row_ptr, col_idx, values, x, out);
}

/// Fused SpMV + dot over a CSR row range: writes `out[r] = row_r · x`
/// and returns the chunk's contribution `Σ x[r] · out[r]` from the
/// same sweep, while each row sum is still hot. Requires a square
/// matrix (`x` doubles as the row-indexed dot operand).
///
/// The partial accumulates in ascending row order — exactly the order
/// a serial dot over the chunk would use — so fused and
/// spmv-then-dot agree **bit-for-bit** at a fixed lane width and
/// chunking.
pub fn csr_spmv_dot_rows(
    width: LaneWidth,
    rows: Range<usize>,
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    out: &DisjointWriter<'_>,
) -> f64 {
    csr_rows::<true>(width, rows, row_ptr, col_idx, values, x, out)
}

#[cfg(test)]
mod tests {
    use super::super::panel::{self, CsrRows};
    use super::*;

    #[test]
    fn dot_handles_every_length_at_every_width() {
        let x: Vec<f64> = (0..64).map(|i| i as f64).collect();
        for len in 0..33 {
            let cols: Vec<u32> = (0..len as u32).collect();
            let vals = vec![1.0; len];
            let want: f64 = (0..len).map(|i| i as f64).sum();
            for width in LaneWidth::ALL {
                let got = match width {
                    LaneWidth::W1 => dot_w::<1>(&cols, &vals, &x),
                    LaneWidth::W2 => dot_w::<2>(&cols, &vals, &x),
                    LaneWidth::W4 => dot_w::<4>(&cols, &vals, &x),
                    LaneWidth::W8 => dot_w::<8>(&cols, &vals, &x),
                };
                assert_eq!(got, want, "len {len} width {width:?}");
            }
        }
    }

    #[test]
    fn w4_matches_the_historical_vectorized_csr_order() {
        // The pre-refactor Vectorized-CSR kernel summed as
        // (a0+a1) + (a2+a3) + tail; dot_w::<4> must reproduce it
        // bit-for-bit so the migration is invisible at fixed W = 4.
        let cols: Vec<u32> = (0..11).collect();
        let vals: Vec<f64> = (0..11).map(|i| (i as f64 * 0.73).sin() + 0.1).collect();
        let x: Vec<f64> = (0..11).map(|i| (i as f64 * 1.31).cos() * 3.0).collect();
        let mut acc = [0.0f64; 4];
        for i in 0..2 {
            for lane in 0..4 {
                acc[lane] += vals[i * 4 + lane] * x[cols[i * 4 + lane] as usize];
            }
        }
        let mut tail = 0.0;
        for i in 8..11 {
            tail += vals[i] * x[cols[i] as usize];
        }
        let want = (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail;
        assert_eq!(dot_w::<4>(&cols, &vals, &x), want);
    }

    #[test]
    fn fused_dot_matches_spmv_then_dot_bitwise() {
        // 4×4, ragged, with an empty row.
        let row_ptr = [0usize, 3, 3, 6, 8];
        let col_idx = [0u32, 1, 3, 1, 2, 3, 0, 2];
        let values = [1.5, -2.0, 0.5, 3.0, 1.25, -0.75, 2.0, 0.125];
        let x: Vec<f64> = (0..4).map(|i| (i as f64 * 0.91).sin() + 0.3).collect();
        for width in LaneWidth::ALL {
            let mut y = vec![f64::NAN; 4];
            {
                let out = DisjointWriter::new(&mut y);
                csr_spmv_rows(width, 0..4, &row_ptr, &col_idx, &values, &x, &out);
            }
            let mut want = 0.0;
            for r in 0..4 {
                want += x[r] * y[r];
            }
            let mut fused = vec![f64::NAN; 4];
            let got = {
                let out = DisjointWriter::new(&mut fused);
                csr_spmv_dot_rows(width, 0..4, &row_ptr, &col_idx, &values, &x, &out)
            };
            assert_eq!(fused, y, "width {width:?}");
            assert_eq!(got, want, "width {width:?}");
        }
    }

    #[test]
    fn spmm_matches_repeated_spmv_at_fixed_width() {
        // 3 rows × 5 cols, ragged.
        let row_ptr = [0usize, 4, 4, 7];
        let col_idx = [0u32, 1, 3, 4, 2, 3, 4];
        let values = [1.0, -2.0, 0.5, 3.0, 1.5, -0.25, 2.0];
        // 13 = a panel block of 8, a block of 4 and one plain column.
        for k in [3usize, 13] {
            let x: Vec<f64> = (0..5 * k).map(|i| (i as f64 * 0.37).sin()).collect();
            for width in LaneWidth::ALL {
                let rows = CsrRows {
                    lanes: width,
                    cols: 5,
                    row_ptr: &row_ptr,
                    col_idx: &col_idx,
                    values: &values,
                };
                let mut y = vec![f64::NAN; 3 * k];
                panel::spmm(&rows, &x, k, &mut y);
                for j in 0..k {
                    let mut col = vec![f64::NAN; 3];
                    {
                        let out = DisjointWriter::new(&mut col);
                        csr_spmv_rows(
                            width,
                            0..3,
                            &row_ptr,
                            &col_idx,
                            &values,
                            &x[j * 5..(j + 1) * 5],
                            &out,
                        );
                    }
                    assert_eq!(&y[j * 3..(j + 1) * 3], &col[..], "width {width:?} k {k} rhs {j}");
                }
            }
        }
    }
}
