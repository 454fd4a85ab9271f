//! The common interface of all storage formats.

use crate::wire::{SectionWriter, WireError};
use spmv_parallel::ThreadPool;
use std::fmt;

/// Errors raised while converting a CSR matrix into another format.
#[derive(Debug, Clone, PartialEq)]
pub enum FormatBuildError {
    /// The padded representation would exceed `limit_bytes` — e.g. ELL
    /// on a highly skewed matrix, or VSL overflowing its HBM channels
    /// (the paper's FPGA refuses exactly these matrices, §V-A/V-C).
    PaddingOverflow {
        /// Bytes the padded structure would need.
        needed_bytes: usize,
        /// The configured capacity.
        limit_bytes: usize,
        /// Which format refused.
        format: &'static str,
    },
    /// The format cannot represent this matrix shape (e.g. zero
    /// columns with nonzeros requested).
    Unsupported(String),
}

impl fmt::Display for FormatBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatBuildError::PaddingOverflow { needed_bytes, limit_bytes, format } => {
                write!(f, "{format}: padded size {needed_bytes} B exceeds capacity {limit_bytes} B")
            }
            FormatBuildError::Unsupported(msg) => write!(f, "unsupported matrix: {msg}"),
        }
    }
}

impl std::error::Error for FormatBuildError {}

/// A sparse matrix stored in some format, ready to run SpMV.
///
/// Implementations guarantee that `spmv`, `spmv_parallel` and `spmm`
/// produce the same `y = A·x` as the CSR reference up to floating-point
/// reassociation.
///
/// # Non-finite operands
///
/// A NaN or infinity in `x` propagates by one rule: **a row of `y` is
/// non-finite iff the row stores a slot whose `x` entry is non-finite**
/// (`0 · NaN` is NaN, so a stored zero counts). For the CSR family the
/// stored slots are the row's nonzeros. ELL, HYB's ELL half and
/// SELL-C-σ also store padding slots of value 0; their padding repeats
/// the row's *own last real column*, so it can only re-read an entry
/// the row reads anyway and those formats answer finite exactly where
/// CSR does. The one exception is an **all-empty row inside a padded
/// slab or chunk**: it has no column of its own, its padding names
/// column 0, and a non-finite `x[0]` makes it NaN where CSR answers 0.
/// (Streams written before this rule padded every row with column 0;
/// they still decode and multiply correctly on finite operands.) Formats
/// whose zero fill-in belongs to *neighbouring* columns by construction
/// (BCSR blocks, DIA diagonals, VSL) follow the rule as stated: the
/// fill-in is a stored slot. Which non-finite value comes out is not
/// promised across formats: `0 · ∞` in a padding slot turns an infinite
/// row sum into NaN.
pub trait SparseFormat: Send + Sync {
    /// Short, stable format name (used in reports and figures).
    fn name(&self) -> &'static str;

    /// Number of rows.
    fn rows(&self) -> usize;

    /// Number of columns.
    fn cols(&self) -> usize;

    /// Number of *logical* nonzeros (excluding any padding).
    fn nnz(&self) -> usize;

    /// Total bytes of the stored representation, including padding and
    /// all metadata. This is what the device models stream through the
    /// memory hierarchy.
    fn bytes(&self) -> usize;

    /// Sequential SpMV into `y` (which is fully overwritten).
    fn spmv(&self, x: &[f64], y: &mut [f64]);

    /// Parallel SpMV over the given pool into `y`.
    ///
    /// The default runs the sequential [`SparseFormat::spmv`] and leaves
    /// the pool idle. The figure-set formats (COO, DIA, BCSR, VSL,
    /// SparseX: see [`FormatKind::SERVING`](crate::FormatKind::SERVING))
    /// keep it; the engine never serves them.
    fn spmv_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        let _ = pool;
        self.spmv(x, y);
    }

    /// Batched multi-vector SpMV (SpMM): `Y = A·X` for `k` right-hand
    /// sides, the workload of blocked iterative solvers.
    ///
    /// `x` is a column-major `cols × k` block (`x[j*cols .. (j+1)*cols]`
    /// is vector `j`); `y` is the column-major `rows × k` result and is
    /// fully overwritten. Every implementation equals `k` calls of
    /// [`SparseFormat::spmv`] bit-for-bit.
    ///
    /// The default implementation *is* that loop and amortizes nothing;
    /// HYB and the five figure-set formats keep it. The CSR family (all
    /// five kinds of [`crate::csr::CsrFormat`]), ELL and SELL-C-σ (each
    /// through the kernel view it also runs `spmv` on) override it with
    /// the panel kernels of [`crate::kernels::panel`], which pack `x`
    /// row-major once per call (into a per-thread reusable scratch) and
    /// stream the matrix once per 8 right-hand sides. Measured ratios against `k` SpMVs
    /// are in `BENCH_spmm.json` at the repository root.
    fn spmm(&self, x: &[f64], k: usize, y: &mut [f64]) {
        let (rows, cols) = (self.rows(), self.cols());
        assert_eq!(x.len(), cols * k, "x must be a column-major cols × k block");
        assert_eq!(y.len(), rows * k, "y must be a column-major rows × k block");
        for j in 0..k {
            self.spmv(&x[j * cols..(j + 1) * cols], &mut y[j * rows..(j + 1) * rows]);
        }
    }

    /// Fused SpMV + dot: computes `y = A·x` and returns `x · y` from
    /// the same pass — the inner product iterative solvers need right
    /// after every SpMV (`p·Ap` in CG, `s·t` in BiCGStab), saved from
    /// a second sweep over `y`.
    ///
    /// Requires a square matrix. The default runs `spmv` followed by a
    /// serial left-fold dot; CSR/ELL/SELL-C-σ override it with lane
    /// kernels that accumulate the dot while each row sum is still in
    /// registers.
    fn spmv_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        assert_eq!(self.rows(), self.cols(), "spmv_dot requires a square matrix");
        self.spmv(x, y);
        let mut acc = 0.0;
        for (xi, yi) in x.iter().zip(y.iter()) {
            acc += xi * yi;
        }
        acc
    }

    /// Parallel fused SpMV + dot over the given pool: `y = A·x`,
    /// returning `x · y`. Requires a square matrix.
    ///
    /// The default runs `spmv_parallel` followed by the deterministic
    /// parallel [`blas1 dot`](spmv_parallel::blas1::dot) (parallel but
    /// unfused); formats with fused lane kernels override it to
    /// produce both results from one sweep via
    /// `Executor::run_disjoint_reduce`. Like `blas1`, results are
    /// bit-reproducible at a fixed thread count.
    fn spmv_dot_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) -> f64 {
        assert_eq!(self.rows(), self.cols(), "spmv_dot requires a square matrix");
        self.spmv_parallel(pool, x, y);
        spmv_parallel::blas1::dot(pool, x, y)
    }

    /// Padding ratio: stored entries (incl. explicit zeros) over
    /// logical nonzeros; 1.0 when the format stores no padding.
    fn padding_ratio(&self) -> f64 {
        1.0
    }

    /// Convenience wrapper allocating the output vector.
    fn spmv_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows()];
        self.spmv(x, &mut y);
        y
    }

    /// Convenience wrapper allocating the SpMM output block.
    fn spmm_alloc(&self, x: &[f64], k: usize) -> Vec<f64> {
        let mut y = vec![0.0; self.rows() * k];
        self.spmm(x, k, &mut y);
        y
    }

    /// Encodes this format's payload sections — the format-specific
    /// body of the binary wire envelope (see [`crate::wire`]).
    ///
    /// Implementation detail of [`SparseFormat::serialize_into`]; the
    /// matching decoder lives next to each implementation and is
    /// dispatched by wire tag in [`crate::wire::deserialize_from`]. The
    /// default answers [`WireError::NotServed`]: the figure-set formats
    /// keep it, as the engine never snapshots what it never serves.
    fn encode_payload(&self, out: &mut SectionWriter) -> Result<(), WireError> {
        let _ = out;
        Err(WireError::NotServed(crate::wire::kind_named(self.name())?))
    }

    /// Writes the versioned, checksummed binary envelope for this
    /// format: magic, per-format tag, length-prefixed payload from
    /// [`SparseFormat::encode_payload`], and an XXH64 checksum. The
    /// inverse is [`crate::wire::deserialize_from`].
    fn serialize_into(&self, w: &mut dyn std::io::Write) -> Result<(), WireError> {
        let mut payload = SectionWriter::new();
        self.encode_payload(&mut payload)?;
        crate::wire::write_envelope(self.name(), payload, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e =
            FormatBuildError::PaddingOverflow { needed_bytes: 100, limit_bytes: 10, format: "ELL" };
        assert!(e.to_string().contains("ELL"));
        assert!(e.to_string().contains("100"));
    }
}
