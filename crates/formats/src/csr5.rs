//! CSR5-like tiled format (Liu & Vinter, ICS'15; §II-B.5).
//!
//! CSR5 partitions the nonzero array into equally sized 2-D tiles and
//! runs a segmented sum inside each tile, so work per processing
//! element is independent of the row structure. This implementation
//! keeps the essential properties — equal-nnz tiles, per-tile row
//! metadata ("tile pointer"), segmented accumulation with carries —
//! while storing the tile interior in plain CSR order. The extra tile
//! metadata slightly increases the footprint, matching the paper's
//! remark that CSR5's "requirement for additional metadata for row
//! splitting ... slightly increases memory footprint".

use crate::kernels::{panel, LaneWidth};
use crate::traits::SparseFormat;
use crate::wire::{self, SectionReader, SectionWriter, WireError};
use spmv_core::CsrMatrix;
use spmv_parallel::{Carries, Executor, ThreadPool};

/// Decodes a CSR5 wire payload. The tile row pointer is *derived*
/// data, so the payload carries only the CSR sections plus `tile_nnz`
/// and the decoder rebuilds the tiles deterministically — hostile
/// tile metadata simply cannot be expressed on the wire.
pub(crate) fn decode(r: &mut SectionReader<'_>) -> Result<Csr5Format, WireError> {
    let csr = wire::decode_csr(r)?;
    let tile_nnz = r.dim()?;
    if tile_nnz == 0 {
        return Err(WireError::Malformed("CSR5 tile size 0".into()));
    }
    Ok(Csr5Format::from_csr_with_tile(&csr, tile_nnz))
}

/// Default tile size in nonzeros (ω·σ of the original design).
pub const DEFAULT_TILE_NNZ: usize = 128;

/// CSR5-like storage: CSR arrays + per-tile row pointers.
pub struct Csr5Format {
    matrix: CsrMatrix,
    tile_nnz: usize,
    /// `tile_row[t]` = row containing nonzero offset `t · tile_nnz`.
    tile_row: Vec<u32>,
}

impl Csr5Format {
    /// Converts from CSR with the default tile size.
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        Self::from_csr_with_tile(csr, DEFAULT_TILE_NNZ)
    }

    /// Converts from CSR with an explicit tile size (in nonzeros).
    pub fn from_csr_with_tile(csr: &CsrMatrix, tile_nnz: usize) -> Self {
        let tile_nnz = tile_nnz.max(1);
        let nnz = csr.nnz();
        let tiles = nnz.div_ceil(tile_nnz);
        let row_ptr = csr.row_ptr();
        let mut tile_row = Vec::with_capacity(tiles + 1);
        for t in 0..=tiles {
            let off = (t * tile_nnz).min(nnz);
            // Row containing offset `off`: last r with row_ptr[r] <= off.
            let r = row_ptr.partition_point(|&p| p <= off).saturating_sub(1);
            tile_row.push(r.min(csr.rows().saturating_sub(1)) as u32);
        }
        Self { matrix: csr.clone(), tile_nnz, tile_row }
    }

    /// Tile size in nonzeros.
    pub fn tile_nnz(&self) -> usize {
        self.tile_nnz
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.tile_row.len().saturating_sub(1)
    }
}

impl SparseFormat for Csr5Format {
    fn name(&self) -> &'static str {
        "CSR5"
    }

    fn rows(&self) -> usize {
        self.matrix.rows()
    }

    fn cols(&self) -> usize {
        self.matrix.cols()
    }

    fn nnz(&self) -> usize {
        self.matrix.nnz()
    }

    fn bytes(&self) -> usize {
        // CSR arrays + 4-byte tile row pointers.
        self.matrix.mem_footprint_bytes() + 4 * self.tile_row.len()
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.matrix.spmv_into(x, y);
    }

    fn spmm(&self, x: &[f64], k: usize, y: &mut [f64]) {
        // W1 is the summation order of `spmv_into`.
        panel::csr_spmm(LaneWidth::W1, &self.matrix, x, k, y);
    }

    fn encode_payload(&self, out: &mut SectionWriter) {
        wire::encode_csr(&self.matrix, out);
        out.usize(self.tile_nnz);
    }

    fn spmv_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols());
        assert_eq!(y.len(), self.rows());
        let nnz = self.nnz();
        let exec = Executor::new(pool);
        exec.zero(y);
        if nnz == 0 {
            return;
        }
        let row_ptr = self.matrix.row_ptr();
        let col_idx = self.matrix.col_idx();
        let values = self.matrix.values();
        // Each worker owns a contiguous tile range = contiguous nnz
        // range; segmented sum with a carry for the first (shared) row.
        exec.run_chunks_carry(self.tiles(), y, |tile_range, out| {
            let lo = tile_range.start * self.tile_nnz;
            let hi = (tile_range.end * self.tile_nnz).min(nnz);
            let first_row = self.tile_row[tile_range.start] as usize;
            let mut k = lo;
            let mut r = first_row;
            let mut carry = 0.0;
            while k < hi {
                let row_end = row_ptr[r + 1].min(hi);
                let mut acc = 0.0;
                while k < row_end {
                    acc += values[k] * x[col_idx[k] as usize];
                    k += 1;
                }
                if r == first_row {
                    carry = acc;
                } else {
                    out.write(r, acc);
                }
                if k >= hi {
                    break;
                }
                // Skip empty rows (their range is empty).
                r += 1;
                while row_ptr[r + 1] <= k {
                    r += 1;
                }
            }
            Carries { first: Some((first_row, carry)), last: None }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::DenseMatrix;

    fn irregular_matrix() -> CsrMatrix {
        let mut t = Vec::new();
        // Hot row + empty rows + regular tail.
        for c in 0..300usize {
            t.push((2usize, c, (c as f64 * 0.02) - 3.0));
        }
        for r in 5..40usize {
            let len = (r * 5) % 9 + 1;
            for k in 0..len {
                t.push((r, (r * 11 + k * 3) % 300, 0.1 * (k as f64 + 1.0)));
            }
        }
        CsrMatrix::from_triplets(40, 300, &t).unwrap()
    }

    #[test]
    fn tile_rows_are_monotone_and_correct() {
        let m = irregular_matrix();
        let f = Csr5Format::from_csr_with_tile(&m, 32);
        assert_eq!(f.tiles(), m.nnz().div_ceil(32));
        for w in f.tile_row.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // First tile starts in the first non-empty row... offset 0 is
        // contained in row 0 (which may be empty only if row_ptr[1]=0).
        for (t, &r) in f.tile_row.iter().enumerate() {
            let off = (t * 32).min(m.nnz());
            assert!(m.row_ptr()[r as usize] <= off);
            if off < m.nnz() {
                assert!(off < m.row_ptr()[r as usize + 1]);
            }
        }
    }

    #[test]
    fn parallel_matches_dense() {
        let m = irregular_matrix();
        let x: Vec<f64> = (0..300).map(|i| (i as f64 * 0.017).sin()).collect();
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        for tile in [1, 16, 128] {
            let f = Csr5Format::from_csr_with_tile(&m, tile);
            for threads in [1, 2, 4, 8] {
                let pool = ThreadPool::new(threads);
                let mut got = vec![f64::NAN; 40];
                f.spmv_parallel(&pool, &x, &mut got);
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-9,
                        "tile {tile} threads {threads} row {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn metadata_increases_footprint_slightly() {
        let m = irregular_matrix();
        let f = Csr5Format::from_csr(&m);
        assert!(f.bytes() > m.mem_footprint_bytes());
        let overhead = f.bytes() - m.mem_footprint_bytes();
        assert!(overhead < m.mem_footprint_bytes() / 10, "overhead {overhead}");
        assert_eq!(f.name(), "CSR5");
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::zeros(4, 4);
        let f = Csr5Format::from_csr(&m);
        assert_eq!(f.tiles(), 0);
        let pool = ThreadPool::new(2);
        let mut y = vec![5.0; 4];
        f.spmv_parallel(&pool, &[0.0; 4], &mut y);
        assert_eq!(y, vec![0.0; 4]);
    }
}
