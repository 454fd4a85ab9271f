//! VSL — the Vitis Sparse Library format of the Alveo-U280 FPGA
//! (§II-B.4). "It splits the matrix in 2D partitions which in turn are
//! divided in 16 parts and fed to 16 execution units by equal HBM
//! channels, using zero-padding in order to accommodate for the
//! double-precision accumulation latency. This design fails when
//! excessive padding is applied and the storage requirements of the
//! matrix exceed the maximum capacity of the HBM channels."
//!
//! This implementation: column-partitioned CSC with one partition per
//! HBM channel (balanced by nonzeros), per-column zero-padding to a
//! multiple of the accumulation pipeline depth, and a hard per-channel
//! capacity check — conversion *fails* when padding overflows the
//! channel, exactly like the 10 validation matrices that "fail to
//! execute on the FPGA due to HBM capacity limitations" (§V-A). A
//! figure-set format (see
//! [`FormatKind::SERVING`](crate::FormatKind::SERVING)): the Alveo-U280
//! figures need it, the engine never serves it.

use crate::traits::{FormatBuildError, SparseFormat};
use spmv_core::{CscMatrix, CsrMatrix};
use spmv_parallel::Partition;

/// Number of HBM channels feeding execution units (the U280 setup uses
/// 16 of its 32 channels for the matrix).
pub const DEFAULT_CHANNELS: usize = 16;
/// Pipeline depth of the double-precision accumulator; every column's
/// entry list is padded to a multiple of this.
pub const DEFAULT_PIPELINE_DEPTH: usize = 8;
/// Default per-channel capacity in bytes (8 GB HBM / 32 channels =
/// 256 MB per channel on the U280).
pub const DEFAULT_CHANNEL_CAPACITY: usize = 256 * 1024 * 1024;

/// One HBM channel's slice of the matrix (a CSC fragment).
struct Channel {
    /// First column of this channel (global index).
    col_start: usize,
    /// Local column pointer (padded entries included).
    col_ptr: Vec<usize>,
    /// Row indices (padding entries point at row 0 with value 0).
    row_idx: Vec<u32>,
    /// Values (padding entries are 0.0).
    values: Vec<f64>,
}

/// VSL storage: channel-partitioned, padded CSC.
pub struct VslFormat {
    rows: usize,
    cols: usize,
    nnz: usize,
    padded_nnz: usize,
    channels: Vec<Channel>,
}

/// Build-time configuration of the VSL conversion.
#[derive(Debug, Clone, Copy)]
pub struct VslConfig {
    /// Number of HBM channels / execution units.
    pub channels: usize,
    /// Accumulation pipeline depth (padding granularity).
    pub pipeline_depth: usize,
    /// Per-channel capacity in bytes.
    pub channel_capacity: usize,
}

impl Default for VslConfig {
    fn default() -> Self {
        Self {
            channels: DEFAULT_CHANNELS,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
            channel_capacity: DEFAULT_CHANNEL_CAPACITY,
        }
    }
}

impl VslFormat {
    /// Converts from CSR with the default U280 configuration.
    pub fn from_csr(csr: &CsrMatrix) -> Result<Self, FormatBuildError> {
        Self::from_csr_with(csr, VslConfig::default())
    }

    /// Converts from CSR with an explicit configuration.
    pub fn from_csr_with(csr: &CsrMatrix, cfg: VslConfig) -> Result<Self, FormatBuildError> {
        let csc = CscMatrix::from_csr(csr);
        let n_ch = cfg.channels.max(1).min(csr.cols().max(1));
        let depth = cfg.pipeline_depth.max(1);
        // Balance channels by nonzeros over the column prefix.
        let partition = Partition::balanced_by_prefix(csc.col_ptr(), n_ch);
        let mut channels = Vec::with_capacity(n_ch);
        let mut padded_nnz = 0usize;
        for ch in 0..partition.chunks() {
            let cols_range = partition.range(ch);
            let mut col_ptr = Vec::with_capacity(cols_range.len() + 1);
            col_ptr.push(0usize);
            let mut row_idx = Vec::new();
            let mut values = Vec::new();
            for c in cols_range.clone() {
                let (lo, hi) = (csc.col_ptr()[c], csc.col_ptr()[c + 1]);
                row_idx.extend_from_slice(&csc.row_idx()[lo..hi]);
                values.extend_from_slice(&csc.values()[lo..hi]);
                // Zero-pad the column to a multiple of the pipeline
                // depth (accumulation latency hiding).
                let len = hi - lo;
                if len % depth != 0 {
                    let pad = depth - len % depth;
                    row_idx.extend(std::iter::repeat_n(0u32, pad));
                    values.extend(std::iter::repeat_n(0.0, pad));
                }
                col_ptr.push(row_idx.len());
            }
            let ch_bytes = values.len() * 8 + row_idx.len() * 4 + col_ptr.len() * 4;
            if ch_bytes > cfg.channel_capacity {
                return Err(FormatBuildError::PaddingOverflow {
                    needed_bytes: ch_bytes,
                    limit_bytes: cfg.channel_capacity,
                    format: "VSL",
                });
            }
            padded_nnz += values.len();
            channels.push(Channel { col_start: cols_range.start, col_ptr, row_idx, values });
        }
        Ok(Self { rows: csr.rows(), cols: csr.cols(), nnz: csr.nnz(), padded_nnz, channels })
    }

    /// Number of channel partitions.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Stored entries including padding.
    pub fn padded_nnz(&self) -> usize {
        self.padded_nnz
    }

    fn channel_spmv(&self, ch: &Channel, x: &[f64], y_local: &mut [f64]) {
        for (local_c, w) in ch.col_ptr.windows(2).enumerate() {
            let xj = x[ch.col_start + local_c];
            if xj == 0.0 {
                continue;
            }
            for k in w[0]..w[1] {
                y_local[ch.row_idx[k] as usize] += ch.values[k] * xj;
            }
        }
    }
}

impl SparseFormat for VslFormat {
    fn name(&self) -> &'static str {
        "VSL"
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
        self.channels
            .iter()
            .map(|ch| ch.values.len() * 8 + ch.row_idx.len() * 4 + ch.col_ptr.len() * 4)
            .sum()
    }

    fn padding_ratio(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.padded_nnz as f64 / self.nnz as f64
        }
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        y.fill(0.0);
        for ch in &self.channels {
            self.channel_spmv(ch, x, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::DenseMatrix;
    use spmv_parallel::ThreadPool;

    fn medium_matrix() -> CsrMatrix {
        let mut t = Vec::new();
        for r in 0..48usize {
            let len = 2 + (r * 3) % 7;
            for k in 0..len {
                t.push((r, (r * 13 + k * 17) % 64, ((r * k) as f64 * 0.07).cos()));
            }
        }
        CsrMatrix::from_triplets(48, 64, &t).unwrap()
    }

    #[test]
    fn matches_dense() {
        let m = medium_matrix();
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.11).sin()).collect();
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        let f = VslFormat::from_csr(&m).unwrap();
        let got = f.spmv_alloc(&x);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn padding_is_multiple_of_depth_per_column() {
        let m = medium_matrix();
        let f = VslFormat::from_csr_with(
            &m,
            VslConfig { channels: 4, pipeline_depth: 8, ..Default::default() },
        )
        .unwrap();
        for ch in &f.channels {
            for w in ch.col_ptr.windows(2) {
                assert_eq!((w[1] - w[0]) % 8, 0);
            }
        }
        assert!(f.padding_ratio() > 1.0);
    }

    #[test]
    fn capacity_overflow_fails_like_the_fpga() {
        // Highly sparse rows => heavy padding; tiny capacity => refuse.
        let m = medium_matrix();
        let err = VslFormat::from_csr_with(
            &m,
            VslConfig { channels: 2, pipeline_depth: 8, channel_capacity: 64 },
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, FormatBuildError::PaddingOverflow { format: "VSL", .. }));
    }

    #[test]
    fn channel_count_clamps_to_columns() {
        let m = CsrMatrix::from_triplets(4, 3, &[(0, 0, 1.0), (3, 2, 2.0)]).unwrap();
        let f = VslFormat::from_csr_with(
            &m,
            VslConfig { channels: 16, pipeline_depth: 2, ..Default::default() },
        )
        .unwrap();
        assert!(f.channel_count() <= 3);
        let x = vec![1.0, 1.0, 1.0];
        assert_eq!(f.spmv_alloc(&x), vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::zeros(3, 3);
        let f = VslFormat::from_csr(&m).unwrap();
        let pool = ThreadPool::new(2);
        let mut y = vec![1.0; 3];
        f.spmv_parallel(&pool, &[0.0; 3], &mut y);
        assert_eq!(y, vec![0.0; 3]);
        assert_eq!(f.padding_ratio(), 1.0);
    }
}
