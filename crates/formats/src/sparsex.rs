//! SparseX-lite — a CSX-style compressed format (Elafrou et al., TOMS
//! 2018; §II-B.5). SparseX "automatically detects dense, horizontal,
//! vertical, diagonal or block substructures ... and encodes each
//! substructure with a minimal memory footprint". This implementation
//! keeps the two substructure classes that matter for SpMV bandwidth on
//! the paper's feature space:
//!
//! * **horizontal dense runs** (consecutive columns) are encoded as a
//!   6-byte unit regardless of length — the structure `avg_num_neigh`
//!   creates;
//! * remaining entries are **delta-encoded** with the narrowest
//!   integer width that fits (u8/u16/u32), compressing the column
//!   stream of banded matrices.
//!
//! Values are stored uncompressed (8 B each); the win is on the index
//! stream, which shrinks from 4 B/nnz to as little as ~0.02 B/nnz for
//! dense runs — "a highly compressed representation of the matrix,
//! something that can be beneficial especially for large matrices".
//!
//! A figure-set format (see
//! [`FormatKind::SERVING`](crate::FormatKind::SERVING)): one of the
//! paper's CPU formats, so the modeled CPUs' figures need it, but it
//! labels no matrix of the measured host table and the engine never
//! serves it.

use crate::traits::{FormatBuildError, SparseFormat};
use spmv_core::CsrMatrix;
use spmv_parallel::DisjointWriter;

/// Minimum run length that is worth a DENSE unit.
const MIN_DENSE_RUN: usize = 4;
/// Maximum elements per unit (count fits a byte).
const MAX_UNIT: usize = 255;

/// Unit type tags in the encoded stream.
const T_DENSE: u8 = 0;
const T_DELTA8: u8 = 1;
const T_DELTA16: u8 = 2;
const T_DELTA32: u8 = 3;

/// SparseX-lite storage: values + compressed index stream.
pub struct SparseXFormat {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// Values in CSR order.
    values: Vec<f64>,
    /// Encoded index stream (all rows concatenated).
    stream: Vec<u8>,
    /// Byte offset of each row's units in `stream` (`rows + 1`).
    stream_ptr: Vec<u32>,
    /// Offset of each row's first value in `values` (`rows + 1`) —
    /// the CSR row pointer.
    val_ptr: Vec<usize>,
}

impl SparseXFormat {
    /// Converts from CSR, detecting dense runs and delta-compressing
    /// the remainder.
    pub fn from_csr(csr: &CsrMatrix) -> Result<Self, FormatBuildError> {
        let rows = csr.rows();
        let mut stream = Vec::new();
        let mut stream_ptr = Vec::with_capacity(rows + 1);
        stream_ptr.push(0u32);
        for r in 0..rows {
            let (cols, _) = csr.row(r);
            encode_row(cols, &mut stream);
            if stream.len() > u32::MAX as usize {
                return Err(FormatBuildError::Unsupported("index stream exceeds 4 GiB".into()));
            }
            stream_ptr.push(stream.len() as u32);
        }
        Ok(Self {
            rows,
            cols: csr.cols(),
            nnz: csr.nnz(),
            values: csr.values().to_vec(),
            stream,
            stream_ptr,
            val_ptr: csr.row_ptr().to_vec(),
        })
    }

    /// Compression ratio of the index stream vs. CSR's 4 B/nnz
    /// (smaller is better; < 1.0 means the stream is smaller).
    pub fn index_compression(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.stream.len() as f64 / (4.0 * self.nnz as f64)
        }
    }

    fn spmv_rows(&self, rows: std::ops::Range<usize>, x: &[f64], out: &DisjointWriter<'_>) {
        for r in rows {
            let mut s = self.stream_ptr[r] as usize;
            let end = self.stream_ptr[r + 1] as usize;
            let mut k = self.val_ptr[r];
            let mut acc = 0.0;
            while s < end {
                let tag = self.stream[s];
                let count = self.stream[s + 1] as usize;
                let start =
                    u32::from_le_bytes(self.stream[s + 2..s + 6].try_into().expect("start col"))
                        as usize;
                s += 6;
                match tag {
                    T_DENSE => {
                        for (i, xv) in x[start..start + count].iter().enumerate() {
                            acc += self.values[k + i] * xv;
                        }
                        k += count;
                    }
                    T_DELTA8 => {
                        let mut c = start;
                        acc += self.values[k] * x[c];
                        k += 1;
                        for i in 0..count - 1 {
                            c += self.stream[s + i] as usize;
                            acc += self.values[k] * x[c];
                            k += 1;
                        }
                        s += count - 1;
                    }
                    T_DELTA16 => {
                        let mut c = start;
                        acc += self.values[k] * x[c];
                        k += 1;
                        for i in 0..count - 1 {
                            let d = u16::from_le_bytes(
                                self.stream[s + 2 * i..s + 2 * i + 2].try_into().expect("d16"),
                            ) as usize;
                            c += d;
                            acc += self.values[k] * x[c];
                            k += 1;
                        }
                        s += 2 * (count - 1);
                    }
                    _ => {
                        let mut c = start;
                        acc += self.values[k] * x[c];
                        k += 1;
                        for i in 0..count - 1 {
                            let d = u32::from_le_bytes(
                                self.stream[s + 4 * i..s + 4 * i + 4].try_into().expect("d32"),
                            ) as usize;
                            c += d;
                            acc += self.values[k] * x[c];
                            k += 1;
                        }
                        s += 4 * (count - 1);
                    }
                }
            }
            out.write(r, acc);
        }
    }
}

/// Encodes one row's sorted columns into units.
fn encode_row(cols: &[u32], stream: &mut Vec<u8>) {
    let mut i = 0usize;
    while i < cols.len() {
        // Measure the dense run starting at i.
        let mut run = 1usize;
        while i + run < cols.len() && run < MAX_UNIT && cols[i + run] == cols[i + run - 1] + 1 {
            run += 1;
        }
        if run >= MIN_DENSE_RUN {
            stream.push(T_DENSE);
            stream.push(run as u8);
            stream.extend_from_slice(&cols[i].to_le_bytes());
            i += run;
            continue;
        }
        // Delta unit: group subsequent elements (not part of a long
        // dense run) by the width class of their deltas.
        let start = i;
        let mut max_delta = 0u32;
        let mut len = 1usize;
        while start + len < cols.len() && len < MAX_UNIT {
            // Stop before a dense run worth extracting.
            let j = start + len;
            let mut lookahead = 1usize;
            while j + lookahead < cols.len()
                && lookahead < MIN_DENSE_RUN
                && cols[j + lookahead] == cols[j + lookahead - 1] + 1
            {
                lookahead += 1;
            }
            if lookahead >= MIN_DENSE_RUN - 1 && cols[j] == cols[j - 1] + 1 {
                // j starts a dense run; close the delta unit here.
                break;
            }
            max_delta = max_delta.max(cols[j] - cols[j - 1]);
            len += 1;
        }
        let (tag, width) = if max_delta <= u8::MAX as u32 {
            (T_DELTA8, 1)
        } else if max_delta <= u16::MAX as u32 {
            (T_DELTA16, 2)
        } else {
            (T_DELTA32, 4)
        };
        stream.push(tag);
        stream.push(len as u8);
        stream.extend_from_slice(&cols[start].to_le_bytes());
        for j in start + 1..start + len {
            let d = cols[j] - cols[j - 1];
            match width {
                1 => stream.push(d as u8),
                2 => stream.extend_from_slice(&(d as u16).to_le_bytes()),
                _ => stream.extend_from_slice(&d.to_le_bytes()),
            }
        }
        i = start + len;
    }
}

impl SparseFormat for SparseXFormat {
    fn name(&self) -> &'static str {
        "SparseX"
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn bytes(&self) -> usize {
        self.values.len() * 8
            + self.stream.len()
            + self.stream_ptr.len() * 4
            + self.val_ptr.len() * 4
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        let out = DisjointWriter::new(y);
        self.spmv_rows(0..self.rows, x, &out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::DenseMatrix;

    fn banded_matrix() -> CsrMatrix {
        // Dense runs of 8 around the diagonal -> highly compressible.
        let mut t = Vec::new();
        for r in 0..64usize {
            for k in 0..8usize {
                t.push((r, (r + k).min(71), 0.3 * (k as f64) - 1.0));
            }
        }
        CsrMatrix::from_triplets(64, 72, &t).unwrap()
    }

    fn scattered_matrix() -> CsrMatrix {
        // Large random-ish deltas -> little compression, wide deltas.
        let mut t = Vec::new();
        for r in 0..32usize {
            for k in 0..5usize {
                t.push((r, (r * 9173 + k * 70001) % 100_000, 1.0 + k as f64));
            }
        }
        CsrMatrix::from_triplets(32, 100_000, &t).unwrap()
    }

    #[test]
    fn banded_matches_dense() {
        let m = banded_matrix();
        let x: Vec<f64> = (0..72).map(|i| (i as f64 * 0.2).sin()).collect();
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        let f = SparseXFormat::from_csr(&m).unwrap();
        let got = f.spmv_alloc(&x);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn scattered_matches_csr() {
        let m = scattered_matrix();
        let x: Vec<f64> = (0..100_000).map(|i| ((i % 97) as f64) * 0.01).collect();
        let want = m.spmv(&x);
        let f = SparseXFormat::from_csr(&m).unwrap();
        let got = f.spmv_alloc(&x);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn dense_runs_compress_far_below_csr() {
        let f = SparseXFormat::from_csr(&banded_matrix()).unwrap();
        // 8-long dense runs: 6 bytes per 8 entries vs 32 bytes in CSR.
        assert!(f.index_compression() < 0.30, "ratio {}", f.index_compression());
        // Total bytes beat the CSR footprint.
        assert!(f.bytes() < banded_matrix().mem_footprint_bytes());
    }

    #[test]
    fn scattered_needs_wide_deltas_but_stays_correct_size() {
        let f = SparseXFormat::from_csr(&scattered_matrix()).unwrap();
        // Deltas up to ~70001 need u32 words; ratio near or above 1.
        assert!(f.index_compression() > 0.5);
        assert_eq!(f.name(), "SparseX");
    }

    #[test]
    fn single_long_dense_row_spans_multiple_units() {
        // 600 consecutive columns: forces several 255-capped units.
        let t: Vec<(usize, usize, f64)> = (0..600).map(|c| (0usize, c, 1.0)).collect();
        let m = CsrMatrix::from_triplets(1, 600, &t).unwrap();
        let f = SparseXFormat::from_csr(&m).unwrap();
        let x = vec![1.0; 600];
        assert!((f.spmv_alloc(&x)[0] - 600.0).abs() < 1e-9);
        assert!(f.index_compression() < 0.05);
    }

    #[test]
    fn empty_matrix_and_empty_rows() {
        let m = CsrMatrix::zeros(3, 3);
        let f = SparseXFormat::from_csr(&m).unwrap();
        assert_eq!(f.spmv_alloc(&[0.0; 3]), vec![0.0; 3]);
        let m = CsrMatrix::from_triplets(3, 10, &[(1, 2, 5.0)]).unwrap();
        let f = SparseXFormat::from_csr(&m).unwrap();
        let mut x = vec![0.0; 10];
        x[2] = 2.0;
        assert_eq!(f.spmv_alloc(&x), vec![0.0, 10.0, 0.0]);
    }

    #[test]
    fn mixed_rows_with_runs_and_jumps() {
        // Row: run of 5, jump 1000, pair, jump 70000, single.
        let cols: Vec<usize> = vec![10, 11, 12, 13, 14, 1014, 1015, 71015, 71020];
        let t: Vec<(usize, usize, f64)> =
            cols.iter().map(|&c| (0usize, c, c as f64 * 1e-3)).collect();
        let m = CsrMatrix::from_triplets(1, 80_000, &t).unwrap();
        let f = SparseXFormat::from_csr(&m).unwrap();
        let x: Vec<f64> = (0..80_000).map(|i| ((i % 11) as f64) - 5.0).collect();
        let want = m.spmv(&x);
        let got = f.spmv_alloc(&x);
        assert!((got[0] - want[0]).abs() < 1e-10);
    }
}
