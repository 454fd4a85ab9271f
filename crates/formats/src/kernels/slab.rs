//! Microkernels for column-major ELL slabs (`width × rows`, entry
//! (r, j) at `j * rows + r`): blocks of W adjacent rows advance
//! through the slot columns together, each row owning exactly one
//! accumulator. On x86-64 hosts with AVX2 or AVX-512 every W > 1 runs
//! blocks of 16, 8 and 4 rows on the vector unit instead
//! (`super::x86`).
//!
//! Because accumulators map 1:1 to rows and every row's additions are
//! j-sequential, the result is **bit-identical for every lane width**
//! and for the scalar and vector bodies — W only changes how many rows
//! move in lockstep. The multi-vector kernel over the same slab is
//! [`super::panel::Slab`].

use super::LaneWidth;
use spmv_parallel::DisjointWriter;
use std::ops::Range;

/// The scalar-lane body of both flavours: overwrites `out[r]` with the
/// slab row sum and, with `DOT`, returns `Σ x[r] · out[r]` accumulated
/// in ascending row order (0.0 without).
pub(super) fn slab_rows_w<const W: usize, const DOT: bool>(
    rows: Range<usize>,
    total_rows: usize,
    width: usize,
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    out: &DisjointWriter<'_>,
) -> f64 {
    let mut partial = 0.0;
    let mut r = rows.start;
    while r + W <= rows.end {
        let mut acc = [0.0f64; W];
        for j in 0..width {
            let base = j * total_rows + r;
            for lane in 0..W {
                acc[lane] += values[base + lane] * x[col_idx[base + lane] as usize];
            }
        }
        // Ascending-lane (= ascending-row) partial accumulation keeps
        // the fused dot order identical to the serial spmv-then-dot.
        for (lane, &a) in acc.iter().enumerate() {
            out.write(r + lane, a);
            if DOT {
                partial += x[r + lane] * a;
            }
        }
        r += W;
    }
    // Remainder rows: same j-sequential order, one accumulator each.
    for rr in r..rows.end {
        let mut a = 0.0f64;
        for j in 0..width {
            let p = j * total_rows + rr;
            a += values[p] * x[col_idx[p] as usize];
        }
        out.write(rr, a);
        if DOT {
            partial += x[rr] * a;
        }
    }
    partial
}

/// Dispatches on `lanes` (and, on x86-64, the host's vector unit)
/// once, then runs the monomorphized loop.
#[allow(clippy::too_many_arguments)]
fn slab_rows<const DOT: bool>(
    lanes: LaneWidth,
    rows: Range<usize>,
    total_rows: usize,
    width: usize,
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    out: &DisjointWriter<'_>,
) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if let Some(partial) = super::x86::slab_rows::<DOT>(
        super::host_isa(),
        lanes,
        rows.clone(),
        total_rows,
        width,
        col_idx,
        values,
        x,
        out,
    ) {
        return partial;
    }
    match lanes {
        LaneWidth::W1 => slab_rows_w::<1, DOT>(rows, total_rows, width, col_idx, values, x, out),
        LaneWidth::W2 => slab_rows_w::<2, DOT>(rows, total_rows, width, col_idx, values, x, out),
        LaneWidth::W4 => slab_rows_w::<4, DOT>(rows, total_rows, width, col_idx, values, x, out),
        LaneWidth::W8 => slab_rows_w::<8, DOT>(rows, total_rows, width, col_idx, values, x, out),
    }
}

/// SpMV over a row range of an ELL slab; `out[r]` is **overwritten**
/// with the slab row sum (padding slots carry value 0, so they are
/// harmless additions).
#[allow(clippy::too_many_arguments)]
pub fn slab_spmv_rows(
    lanes: LaneWidth,
    rows: Range<usize>,
    total_rows: usize,
    width: usize,
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    out: &DisjointWriter<'_>,
) {
    slab_rows::<false>(lanes, rows, total_rows, width, col_idx, values, x, out);
}

/// Fused SpMV + dot over a row range of an ELL slab: overwrites
/// `out[r]` with the slab row sum and returns the chunk's contribution
/// `Σ x[r] · out[r]` from the same sweep. Requires a square matrix.
/// The partial accumulates in ascending row order, so fused and
/// spmv-then-dot agree bit-for-bit at a fixed chunking (and, since
/// slab row sums are width-independent, at *every* lane width).
#[allow(clippy::too_many_arguments)]
pub fn slab_spmv_dot_rows(
    lanes: LaneWidth,
    rows: Range<usize>,
    total_rows: usize,
    width: usize,
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    out: &DisjointWriter<'_>,
) -> f64 {
    slab_rows::<true>(lanes, rows, total_rows, width, col_idx, values, x, out)
}

#[cfg(test)]
mod tests {
    use super::super::panel::{self, Slab};
    use super::*;

    /// 5-row, width-3 slab with irregular column picks; col 0 pads.
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
        let mut want = vec![f64::NAN; rows];
        {
            let out = DisjointWriter::new(&mut want);
            slab_spmv_rows(LaneWidth::W1, 0..rows, rows, width, &col, &val, &x, &out);
        }
        for lanes in [LaneWidth::W2, LaneWidth::W4, LaneWidth::W8] {
            let mut y = vec![f64::NAN; rows];
            {
                let out = DisjointWriter::new(&mut y);
                slab_spmv_rows(lanes, 0..rows, rows, width, &col, &val, &x, &out);
            }
            assert_eq!(y, want, "{lanes:?}");
        }
    }

    #[test]
    fn unaligned_ranges_cover_every_row_exactly_once() {
        let (rows, width, col, val) = slab();
        let x = vec![1.0; 7];
        let mut whole = vec![f64::NAN; rows];
        {
            let out = DisjointWriter::new(&mut whole);
            slab_spmv_rows(LaneWidth::W4, 0..rows, rows, width, &col, &val, &x, &out);
        }
        // Split at 3 (not a multiple of 4): remainder paths must agree.
        let mut split = vec![f64::NAN; rows];
        {
            let out = DisjointWriter::new(&mut split);
            slab_spmv_rows(LaneWidth::W4, 0..3, rows, width, &col, &val, &x, &out);
            slab_spmv_rows(LaneWidth::W4, 3..rows, rows, width, &col, &val, &x, &out);
        }
        assert_eq!(split, whole);
    }

    #[test]
    fn fused_dot_matches_spmv_then_dot_bitwise() {
        let (rows, width, col, val) = slab();
        let x: Vec<f64> = (0..7).map(|i| (i as f64 * 0.43).cos() + 0.7).collect();
        for lanes in LaneWidth::ALL {
            let mut y = vec![f64::NAN; rows];
            {
                let out = DisjointWriter::new(&mut y);
                slab_spmv_rows(lanes, 0..rows, rows, width, &col, &val, &x, &out);
            }
            let mut want = 0.0;
            for r in 0..rows {
                want += x[r] * y[r];
            }
            let mut fused = vec![f64::NAN; rows];
            let got = {
                let out = DisjointWriter::new(&mut fused);
                slab_spmv_dot_rows(lanes, 0..rows, rows, width, &col, &val, &x, &out)
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
                        slab_spmv_rows(
                            lanes,
                            0..rows,
                            rows,
                            width,
                            &col,
                            &val,
                            &x[j * cols..(j + 1) * cols],
                            &out,
                        );
                    }
                    assert_eq!(&y[j * rows..(j + 1) * rows], &want[..], "{lanes:?} k {k} rhs {j}");
                }
            }
        }
    }
}
