//! Microkernels for SELL-C-σ chunk slabs: chunk `k` stores its C
//! packed rows column-major (entry (lane i, slot j) at
//! `chunk_ptr[k] + j*C + i`), padded to the chunk's own widest row.
//! The i-loop over the C in-chunk lanes is W-blocked; on x86-64 hosts
//! with AVX2 or AVX-512 every W > 1 runs blocks of 16, 8 and 4 lanes on
//! the vector unit instead (`super::x86`).
//!
//! Each in-chunk lane owns exactly one packed row and its additions
//! are slot-sequential, so — like the ELL slab kernels — results are
//! **bit-identical across lane widths** and across the scalar and
//! vector bodies; W is purely a throughput knob. Results are scattered
//! through `perm` (guarded against the padding lanes of the final
//! partial chunk). The multi-vector kernel over the same chunks is
//! [`super::panel::SellChunks`].

use super::LaneWidth;
use spmv_parallel::DisjointWriter;
use std::ops::Range;

/// Chunk heights up to this keep the per-chunk accumulator on the
/// stack; taller chunks (unusual — the device profiles pick C ≤ 32)
/// fall back to a heap buffer. Solver iterations over stack-height
/// SELL matrices therefore never allocate.
pub(super) const ACC_STACK: usize = 64;

/// Scatters chunk `k`'s row sums through `perm`, skipping the padding
/// lanes of a final partial chunk; with `DOT`, continues the fused-dot
/// chain `partial += x[r] · out[r]` in packed order.
#[inline]
pub(super) fn scatter<const DOT: bool>(
    k: usize,
    total_rows: usize,
    perm: &[u32],
    acc: &[f64],
    x: &[f64],
    out: &DisjointWriter<'_>,
    partial: &mut f64,
) {
    for (i, &a) in acc.iter().enumerate() {
        let p = k * acc.len() + i;
        if p < total_rows {
            let r = perm[p] as usize;
            out.write(r, a);
            if DOT {
                *partial += x[r] * a;
            }
        }
    }
}

/// The scalar-lane body of both flavours; returns the fused-dot
/// partial (0.0 without `DOT`).
#[allow(clippy::too_many_arguments)]
pub(super) fn sell_chunks_w<const W: usize, const DOT: bool>(
    chunks: Range<usize>,
    c: usize,
    total_rows: usize,
    perm: &[u32],
    chunk_ptr: &[usize],
    chunk_width: &[u32],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    out: &DisjointWriter<'_>,
) -> f64 {
    let mut stack = [0.0f64; ACC_STACK];
    let mut heap: Vec<f64>;
    let acc: &mut [f64] = if c <= ACC_STACK {
        &mut stack[..c]
    } else {
        heap = vec![0.0f64; c];
        &mut heap
    };
    let mut partial = 0.0;
    for k in chunks {
        acc.fill(0.0);
        let base = chunk_ptr[k];
        let width = chunk_width[k] as usize;
        for j in 0..width {
            let slot = base + j * c;
            let mut i = 0;
            while i + W <= c {
                for lane in 0..W {
                    let p = slot + i + lane;
                    acc[i + lane] += values[p] * x[col_idx[p] as usize];
                }
                i += W;
            }
            while i < c {
                acc[i] += values[slot + i] * x[col_idx[slot + i] as usize];
                i += 1;
            }
        }
        scatter::<DOT>(k, total_rows, perm, acc, x, out, &mut partial);
    }
    partial
}

/// Dispatches on `lanes` (and, on x86-64, the host's vector unit)
/// once, then runs the monomorphized loop.
#[allow(clippy::too_many_arguments)]
fn sell_chunks<const DOT: bool>(
    lanes: LaneWidth,
    chunks: Range<usize>,
    c: usize,
    total_rows: usize,
    perm: &[u32],
    chunk_ptr: &[usize],
    chunk_width: &[u32],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    out: &DisjointWriter<'_>,
) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if let Some(partial) = super::x86::sell_chunks::<DOT>(
        super::host_isa(),
        lanes,
        chunks.clone(),
        c,
        total_rows,
        perm,
        chunk_ptr,
        chunk_width,
        col_idx,
        values,
        x,
        out,
    ) {
        return partial;
    }
    macro_rules! at {
        ($w:literal) => {
            sell_chunks_w::<$w, DOT>(
                chunks,
                c,
                total_rows,
                perm,
                chunk_ptr,
                chunk_width,
                col_idx,
                values,
                x,
                out,
            )
        };
    }
    match lanes {
        LaneWidth::W1 => at!(1),
        LaneWidth::W2 => at!(2),
        LaneWidth::W4 => at!(4),
        LaneWidth::W8 => at!(8),
    }
}

/// SpMV over a SELL-C-σ chunk range, scattering through `perm`.
#[allow(clippy::too_many_arguments)]
pub fn sell_spmv_chunks(
    lanes: LaneWidth,
    chunks: Range<usize>,
    c: usize,
    total_rows: usize,
    perm: &[u32],
    chunk_ptr: &[usize],
    chunk_width: &[u32],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    out: &DisjointWriter<'_>,
) {
    sell_chunks::<false>(
        lanes,
        chunks,
        c,
        total_rows,
        perm,
        chunk_ptr,
        chunk_width,
        col_idx,
        values,
        x,
        out,
    );
}

/// Fused SpMV + dot over a SELL-C-σ chunk range: scatters each row sum
/// through `perm` and returns the chunk range's contribution
/// `Σ x[r] · out[r]` from the same sweep. Requires a square matrix.
///
/// Unlike the CSR/ELL fused kernels, the partial accumulates in
/// **packed (perm) order**, not ascending-row order, so fused and
/// spmv-then-dot agree only to floating-point tolerance; at a fixed
/// σ-permutation and chunking the order is fixed and reproducible.
#[allow(clippy::too_many_arguments)]
pub fn sell_spmv_dot_chunks(
    lanes: LaneWidth,
    chunks: Range<usize>,
    c: usize,
    total_rows: usize,
    perm: &[u32],
    chunk_ptr: &[usize],
    chunk_width: &[u32],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    out: &DisjointWriter<'_>,
) -> f64 {
    sell_chunks::<true>(
        lanes,
        chunks,
        c,
        total_rows,
        perm,
        chunk_ptr,
        chunk_width,
        col_idx,
        values,
        x,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::super::panel::{self, SellChunks};
    use super::*;

    /// Two chunks of C = 3 over 5 rows (last chunk has one padding
    /// lane), widths 2 and 1, identity-ish perm with a swap.
    struct Fixture {
        c: usize,
        rows: usize,
        perm: Vec<u32>,
        chunk_ptr: Vec<usize>,
        chunk_width: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    }

    fn fixture() -> Fixture {
        let c = 3;
        let rows = 5;
        let perm = vec![1u32, 0, 2, 4, 3];
        let chunk_ptr = vec![0usize, 6, 9];
        let chunk_width = vec![2u32, 1];
        // chunk 0: slots j=0 (lanes 0..3) then j=1; chunk 1: one slot.
        let col_idx = vec![0u32, 1, 2, 3, 0, 1, 2, 3, 0];
        let values = vec![1.0, 2.0, -1.0, 0.5, 0.0, 1.5, 3.0, -2.0, 0.0];
        Fixture { c, rows, perm, chunk_ptr, chunk_width, col_idx, values }
    }

    #[test]
    fn all_widths_including_w_wider_than_c_are_bit_identical() {
        let f = fixture();
        let x: Vec<f64> = (0..4).map(|i| (i as f64 * 0.83).sin() + 2.0).collect();
        let mut want = vec![f64::NAN; f.rows];
        {
            let out = DisjointWriter::new(&mut want);
            sell_spmv_chunks(
                LaneWidth::W1,
                0..2,
                f.c,
                f.rows,
                &f.perm,
                &f.chunk_ptr,
                &f.chunk_width,
                &f.col_idx,
                &f.values,
                &x,
                &out,
            );
        }
        assert!(want.iter().all(|v| v.is_finite()), "every row written");
        // W = 4 and W = 8 exceed C = 3: the scalar remainder path must
        // cover the whole lane loop and still agree exactly.
        for lanes in [LaneWidth::W2, LaneWidth::W4, LaneWidth::W8] {
            let mut y = vec![f64::NAN; f.rows];
            {
                let out = DisjointWriter::new(&mut y);
                sell_spmv_chunks(
                    lanes,
                    0..2,
                    f.c,
                    f.rows,
                    &f.perm,
                    &f.chunk_ptr,
                    &f.chunk_width,
                    &f.col_idx,
                    &f.values,
                    &x,
                    &out,
                );
            }
            assert_eq!(y, want, "{lanes:?}");
        }
    }

    #[test]
    fn fused_dot_matches_spmv_then_dot_within_tolerance() {
        let f = fixture();
        // Square-shaped operand: x serves both the gather (cols < 4)
        // and the row-indexed dot (rows = 5).
        let x: Vec<f64> = (0..5).map(|i| (i as f64 * 0.59).sin() + 1.1).collect();
        for lanes in LaneWidth::ALL {
            let mut y = vec![f64::NAN; f.rows];
            {
                let out = DisjointWriter::new(&mut y);
                sell_spmv_chunks(
                    lanes,
                    0..2,
                    f.c,
                    f.rows,
                    &f.perm,
                    &f.chunk_ptr,
                    &f.chunk_width,
                    &f.col_idx,
                    &f.values,
                    &x,
                    &out,
                );
            }
            let want: f64 = (0..f.rows).map(|r| x[r] * y[r]).sum();
            let mut fused = vec![f64::NAN; f.rows];
            let got = {
                let out = DisjointWriter::new(&mut fused);
                sell_spmv_dot_chunks(
                    lanes,
                    0..2,
                    f.c,
                    f.rows,
                    &f.perm,
                    &f.chunk_ptr,
                    &f.chunk_width,
                    &f.col_idx,
                    &f.values,
                    &x,
                    &out,
                )
            };
            assert_eq!(fused, y, "{lanes:?}");
            assert!((got - want).abs() <= 1e-12 * (1.0 + want.abs()), "{lanes:?}");
        }
    }

    #[test]
    fn spmm_matches_repeated_spmv_bitwise() {
        let f = fixture();
        let cols = 4;
        // 13 = a panel block of 8, a block of 4 and one plain column.
        for k in [2usize, 13] {
            let x: Vec<f64> = (0..cols * k).map(|i| (i as f64 * 0.47).cos() - 0.5).collect();
            for lanes in LaneWidth::ALL {
                let m = SellChunks {
                    lanes,
                    c: f.c,
                    rows: f.rows,
                    cols,
                    perm: &f.perm,
                    chunk_ptr: &f.chunk_ptr,
                    chunk_width: &f.chunk_width,
                    col_idx: &f.col_idx,
                    values: &f.values,
                };
                let mut y = vec![f64::NAN; f.rows * k];
                panel::spmm(&m, &x, k, &mut y);
                for j in 0..k {
                    let mut want = vec![f64::NAN; f.rows];
                    {
                        let out = DisjointWriter::new(&mut want);
                        sell_spmv_chunks(
                            lanes,
                            0..2,
                            f.c,
                            f.rows,
                            &f.perm,
                            &f.chunk_ptr,
                            &f.chunk_width,
                            &f.col_idx,
                            &f.values,
                            &x[j * cols..(j + 1) * cols],
                            &out,
                        );
                    }
                    assert_eq!(
                        &y[j * f.rows..(j + 1) * f.rows],
                        &want[..],
                        "{lanes:?} k {k} rhs {j}"
                    );
                }
            }
        }
    }
}
