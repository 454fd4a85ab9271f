//! Gather-dot kernels for CSR row slices: [`CsrRows`], the view every
//! CSR-family format hands the kernels, and the W-accumulator unrolled
//! `Σ vals[i] · x[cols[i]]` it runs per row. The multi-vector kernel
//! over the same view, in the same summation order, is its
//! `PanelKernel` block in [`super::panel`].
//!
//! Within a row, W splits the product stream across W accumulators
//! (lane `l` owns products `l, l+W, l+2W, …` of the full chunks) that
//! are reduced pairwise, so sums at different widths agree only to
//! floating-point tolerance; at a fixed width the order is exact and
//! reproducible. On x86-64 hosts with AVX2 or AVX-512 the W4 and W8
//! rows run on the vector unit (`super::x86`), bit-identical to the
//! bodies below.

use super::{tree_sum, LaneWidth, View};
use spmv_core::CsrMatrix;
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

/// CSR row slices (`row_ptr / col_idx / values`); a unit is a row.
///
/// With `DOT` the partial accumulates in ascending row order — exactly
/// the order a serial dot over the range would use — so fused and
/// spmv-then-dot agree **bit-for-bit** at a fixed lane width and
/// chunking.
#[derive(Clone, Copy)]
pub struct CsrRows<'a> {
    /// Lane width the rows are summed at.
    pub lanes: LaneWidth,
    /// Matrix columns.
    pub cols: usize,
    /// Row offsets (`rows + 1`).
    pub row_ptr: &'a [usize],
    /// Column of every nonzero.
    pub col_idx: &'a [u32],
    /// Value of every nonzero.
    pub values: &'a [f64],
}

impl<'a> CsrRows<'a> {
    /// The rows of `csr`, summed at `lanes` — `W1` is the order of
    /// [`CsrMatrix::spmv_into`].
    pub fn of(lanes: LaneWidth, csr: &'a CsrMatrix) -> Self {
        CsrRows {
            lanes,
            cols: csr.cols(),
            row_ptr: csr.row_ptr(),
            col_idx: csr.col_idx(),
            values: csr.values(),
        }
    }

    /// One row's column and value slices.
    #[inline]
    pub(super) fn row(&self, r: usize) -> (&'a [u32], &'a [f64]) {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// The scalar-lane body of [`View::run`] at `W` lanes.
    pub(super) fn run_w<const W: usize, const DOT: bool>(
        &self,
        rows: Range<usize>,
        x: &[f64],
        out: &DisjointWriter<'_>,
    ) -> f64 {
        let mut partial = 0.0;
        for r in rows {
            let (cols, vals) = self.row(r);
            let yr = dot_w::<W>(cols, vals, x);
            out.write(r, yr);
            if DOT {
                partial += x[r] * yr;
            }
        }
        partial
    }
}

impl View for CsrRows<'_> {
    fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn units(&self) -> usize {
        self.rows()
    }

    /// Dispatches on the lane width (and, on x86-64, the host's vector
    /// unit) once, then runs the monomorphized loop.
    fn run<const DOT: bool>(&self, rows: Range<usize>, x: &[f64], out: &DisjointWriter<'_>) -> f64 {
        #[cfg(target_arch = "x86_64")]
        if let Some(partial) =
            super::x86::csr_rows::<DOT>(super::host_isa(), self, rows.clone(), x, out)
        {
            return partial;
        }
        match self.lanes {
            LaneWidth::W1 => self.run_w::<1, DOT>(rows, x, out),
            LaneWidth::W4 => self.run_w::<4, DOT>(rows, x, out),
            LaneWidth::W8 => self.run_w::<8, DOT>(rows, x, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::panel;
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
            let rows = CsrRows {
                lanes: width,
                cols: 4,
                row_ptr: &row_ptr,
                col_idx: &col_idx,
                values: &values,
            };
            let mut y = vec![f64::NAN; 4];
            {
                let out = DisjointWriter::new(&mut y);
                rows.run::<false>(0..4, &x, &out);
            }
            let mut want = 0.0;
            for r in 0..4 {
                want += x[r] * y[r];
            }
            let mut fused = vec![f64::NAN; 4];
            let got = {
                let out = DisjointWriter::new(&mut fused);
                rows.run::<true>(0..4, &x, &out)
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
                        rows.run::<false>(0..3, &x[j * 5..(j + 1) * 5], &out);
                    }
                    assert_eq!(&y[j * 3..(j + 1) * 3], &col[..], "width {width:?} k {k} rhs {j}");
                }
            }
        }
    }
}
