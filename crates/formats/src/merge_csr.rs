//! Merge-CSR (Merrill & Garland, SC'16; §II-B.5): CSR storage with a
//! 2-D merge-path work decomposition. "A lightweight extension of CSR,
//! with no preprocessing cost. It overcomes load imbalance by assigning
//! equally-sized chunks of work to each processing element" — the
//! chunks here are equal segments of the `(rows + nnz)` merge path, so
//! even a single giant row is split across workers.

use crate::kernels::{panel, LaneWidth};
use crate::traits::SparseFormat;
use crate::wire::{self, SectionReader, SectionWriter, WireError};
use spmv_core::CsrMatrix;
use spmv_parallel::{merge_path_partition, Carries, Executor, ThreadPool};

/// Decodes a Merge-CSR wire payload (plain CSR sections — merge-path
/// coordinates are computed per `spmv_parallel` call, never stored).
pub(crate) fn decode(r: &mut SectionReader<'_>) -> Result<MergeCsrFormat, WireError> {
    Ok(MergeCsrFormat { matrix: wire::decode_csr(r)? })
}

/// CSR storage with merge-path parallel execution.
pub struct MergeCsrFormat {
    matrix: CsrMatrix,
}

impl MergeCsrFormat {
    /// Wraps a CSR matrix (no preprocessing — that is the point).
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        Self { matrix: csr.clone() }
    }
}

impl SparseFormat for MergeCsrFormat {
    fn name(&self) -> &'static str {
        "Merge-CSR"
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
        self.matrix.mem_footprint_bytes()
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
    }

    fn spmv_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols());
        assert_eq!(y.len(), self.rows());
        let row_ptr = self.matrix.row_ptr();
        let col_idx = self.matrix.col_idx();
        let values = self.matrix.values();
        let exec = Executor::new(pool);
        exec.zero(y);
        let coords = merge_path_partition(row_ptr, exec.threads());
        // One merge-path segment per worker. The segment's first
        // (possibly shared) row is returned as a carry; rows >
        // start.row are owned exclusively by this segment's direct
        // writes (the *next* segment treats the shared boundary row as
        // its own first row and also carries it).
        exec.run_chunks_carry(coords.len() - 1, y, |seg, out| {
            debug_assert_eq!(seg.len(), 1, "one merge segment per worker");
            let start = coords[seg.start];
            let end = coords[seg.start + 1];
            if start.row == end.row && start.nz == end.nz {
                return Carries::none();
            }
            let mut k = start.nz;
            let mut carry = 0.0;
            let mut r = start.row;
            while r < end.row {
                let row_end = row_ptr[r + 1];
                let mut acc = 0.0;
                while k < row_end {
                    acc += values[k] * x[col_idx[k] as usize];
                    k += 1;
                }
                if r == start.row {
                    carry = acc;
                } else {
                    out.write(r, acc);
                }
                r += 1;
            }
            // Partial tail of the boundary row (r == end.row).
            let mut acc = 0.0;
            while k < end.nz {
                acc += values[k] * x[col_idx[k] as usize];
                k += 1;
            }
            if r == start.row {
                carry = acc; // whole segment inside one row
            } else if acc != 0.0 || end.nz > row_ptr[r] {
                out.write(r, acc);
            }
            Carries { first: Some((start.row, carry)), last: None }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::DenseMatrix;

    fn hot_row_matrix() -> CsrMatrix {
        // Row 5 holds 900 of 960 nonzeros: static partitions collapse,
        // merge path must split row 5 across workers.
        let mut t = Vec::new();
        for r in 0..5usize {
            for k in 0..6usize {
                t.push((r, r * 6 + k, 0.5 + r as f64));
            }
        }
        for c in 0..900usize {
            t.push((5usize, c, (c as f64 * 0.01).sin()));
        }
        for r in 6..11usize {
            for k in 0..6usize {
                t.push((r, (r * 31 + k) % 900, -0.25));
            }
        }
        CsrMatrix::from_triplets(11, 900, &t).unwrap()
    }

    #[test]
    fn parallel_matches_dense_on_hot_row() {
        let m = hot_row_matrix();
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.013).cos()).collect();
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        let f = MergeCsrFormat::from_csr(&m);
        for threads in [1, 2, 3, 4, 8, 16] {
            let pool = ThreadPool::new(threads);
            let mut got = vec![f64::NAN; m.rows()];
            f.spmv_parallel(&pool, &x, &mut got);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-9, "threads {threads}, row {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn handles_empty_rows_at_boundaries() {
        // Clusters of empty rows around short full rows.
        let mut t = Vec::new();
        for r in [0usize, 7, 8, 15] {
            t.push((r, r, 1.0 + r as f64));
        }
        let m = CsrMatrix::from_triplets(16, 16, &t).unwrap();
        let x = vec![1.0; 16];
        let want = m.spmv(&x);
        let f = MergeCsrFormat::from_csr(&m);
        for threads in [2, 5, 16] {
            let pool = ThreadPool::new(threads);
            let mut got = vec![f64::NAN; 16];
            f.spmv_parallel(&pool, &x, &mut got);
            assert_eq!(got, want, "threads {threads}");
        }
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::zeros(4, 4);
        let f = MergeCsrFormat::from_csr(&m);
        let pool = ThreadPool::new(4);
        let mut y = vec![3.0; 4];
        f.spmv_parallel(&pool, &[0.0; 4], &mut y);
        assert_eq!(y, vec![0.0; 4]);
    }

    #[test]
    fn no_preprocessing_footprint_overhead() {
        let m = hot_row_matrix();
        let f = MergeCsrFormat::from_csr(&m);
        assert_eq!(f.bytes(), m.mem_footprint_bytes());
        assert_eq!(f.name(), "Merge-CSR");
        assert_eq!(f.padding_ratio(), 1.0);
    }
}
