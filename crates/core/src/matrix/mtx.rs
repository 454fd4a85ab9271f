//! Matrix Market (`.mtx`) I/O.
//!
//! The paper's validation suite (Table III) is drawn from SuiteSparse /
//! Matrix Market collections; a reproduction that downstream users can
//! point at *their* matrices needs to speak the exchange format. This
//! module implements the coordinate flavor of the [Matrix Market
//! format](https://math.nist.gov/MatrixMarket/formats.html):
//!
//! * value types `real`, `integer` and `pattern` (pattern entries get
//!   value `1.0`);
//! * symmetry modes `general`, `symmetric` and `skew-symmetric`
//!   (off-diagonal entries are mirrored on read, as SuiteSparse tools
//!   do);
//! * 1-based indices, `%` comments, blank-line tolerance;
//! * deterministic, sorted output on write.
//!
//! `array` (dense) headers and `complex`/`hermitian` matrices are
//! rejected with a descriptive error rather than silently misread.

use crate::error::SparseError;
use crate::matrix::csr::CsrMatrix;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors raised by the Matrix Market reader/writer.
#[derive(Debug)]
pub enum MtxError {
    /// The underlying I/O operation failed.
    Io(std::io::Error),
    /// The file violates the Matrix Market grammar.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The file is valid Matrix Market but uses a flavor this reader
    /// does not support (dense `array`, `complex`, `hermitian`).
    Unsupported(String),
    /// The parsed triplets do not form a valid sparse matrix.
    Matrix(SparseError),
}

impl std::fmt::Display for MtxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MtxError::Io(e) => write!(f, "I/O error: {e}"),
            MtxError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            MtxError::Unsupported(msg) => write!(f, "unsupported Matrix Market flavor: {msg}"),
            MtxError::Matrix(e) => write!(f, "invalid matrix: {e}"),
        }
    }
}

impl std::error::Error for MtxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MtxError::Io(e) => Some(e),
            MtxError::Matrix(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for MtxError {
    fn from(e: std::io::Error) -> Self {
        MtxError::Io(e)
    }
}

impl From<SparseError> for MtxError {
    fn from(e: SparseError) -> Self {
        MtxError::Matrix(e)
    }
}

/// Value field of the header line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueKind {
    Real,
    Integer,
    Pattern,
}

/// Symmetry field of the header line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Reads a Matrix Market coordinate file into CSR.
pub fn read_mtx(reader: impl Read) -> Result<CsrMatrix, MtxError> {
    let mut lines = BufReader::new(reader).lines();
    let mut line_no = 0usize;

    // --- Header ---------------------------------------------------------
    let header = loop {
        match lines.next() {
            Some(l) => {
                line_no += 1;
                let l = l?;
                if !l.trim().is_empty() {
                    break l;
                }
            }
            None => {
                return Err(MtxError::Parse { line: line_no, msg: "empty file".into() });
            }
        }
    };
    let mut h = header.split_whitespace();
    let magic = h.next().unwrap_or("");
    if !magic.eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(MtxError::Parse {
            line: line_no,
            msg: format!("expected %%MatrixMarket banner, found {magic:?}"),
        });
    }
    let object = h.next().unwrap_or("").to_ascii_lowercase();
    let format = h.next().unwrap_or("").to_ascii_lowercase();
    let value = h.next().unwrap_or("real").to_ascii_lowercase();
    let symmetry = h.next().unwrap_or("general").to_ascii_lowercase();
    if object != "matrix" {
        return Err(MtxError::Unsupported(format!("object {object:?}")));
    }
    if format != "coordinate" {
        return Err(MtxError::Unsupported(format!(
            "format {format:?} (only sparse `coordinate` files)"
        )));
    }
    let value = match value.as_str() {
        "real" => ValueKind::Real,
        "integer" => ValueKind::Integer,
        "pattern" => ValueKind::Pattern,
        other => return Err(MtxError::Unsupported(format!("value type {other:?}"))),
    };
    let symmetry = match symmetry.as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => return Err(MtxError::Unsupported(format!("symmetry {other:?}"))),
    };

    // --- Size line (after comments) --------------------------------------
    let size_line = loop {
        match lines.next() {
            Some(l) => {
                line_no += 1;
                let l = l?;
                let t = l.trim();
                if !t.is_empty() && !t.starts_with('%') {
                    break l;
                }
            }
            None => return Err(MtxError::Parse { line: line_no, msg: "missing size line".into() }),
        }
    };
    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(MtxError::Parse {
            line: line_no,
            msg: format!("size line needs `rows cols nnz`, found {size_line:?}"),
        });
    }
    let parse_usize = |s: &str, what: &str, line: usize| -> Result<usize, MtxError> {
        s.parse().map_err(|_| MtxError::Parse { line, msg: format!("bad {what}: {s:?}") })
    };
    let rows = parse_usize(dims[0], "row count", line_no)?;
    let cols = parse_usize(dims[1], "column count", line_no)?;
    let declared_nnz = parse_usize(dims[2], "nonzero count", line_no)?;

    // --- Entries ----------------------------------------------------------
    // Trust the header's nnz only up to a point: a corrupt or hostile
    // file can declare 10^18 entries, and handing that straight to
    // `Vec::with_capacity` aborts the process on allocation failure
    // before the mismatch check can reject the file. Clamp the
    // pre-allocation; a genuinely huge file just grows naturally.
    const MAX_NNZ_PREALLOC: usize = 1 << 20;
    let mut triplets: Vec<(usize, usize, f64)> =
        Vec::with_capacity(declared_nnz.min(MAX_NNZ_PREALLOC));
    let mut seen = 0usize;
    for l in lines {
        line_no += 1;
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let r = parse_usize(parts.next().unwrap_or(""), "row index", line_no)?;
        let c = parse_usize(parts.next().unwrap_or(""), "column index", line_no)?;
        if r == 0 || c == 0 {
            return Err(MtxError::Parse {
                line: line_no,
                msg: "Matrix Market indices are 1-based".into(),
            });
        }
        let v = match value {
            ValueKind::Pattern => 1.0,
            _ => {
                let s = parts.next().ok_or_else(|| MtxError::Parse {
                    line: line_no,
                    msg: "missing value field".into(),
                })?;
                s.parse::<f64>().map_err(|_| MtxError::Parse {
                    line: line_no,
                    msg: format!("bad value: {s:?}"),
                })?
            }
        };
        seen += 1;
        let (r, c) = (r - 1, c - 1);
        triplets.push((r, c, v));
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric if r != c => triplets.push((c, r, v)),
            Symmetry::SkewSymmetric if r != c => triplets.push((c, r, -v)),
            _ => {}
        }
    }
    if seen != declared_nnz {
        return Err(MtxError::Parse {
            line: line_no,
            msg: format!("header declares {declared_nnz} entries, file has {seen}"),
        });
    }
    Ok(CsrMatrix::from_triplets(rows, cols, &triplets)?)
}

/// Reads a Matrix Market file from disk.
pub fn read_mtx_file(path: impl AsRef<Path>) -> Result<CsrMatrix, MtxError> {
    read_mtx(std::fs::File::open(path)?)
}

/// Writes a CSR matrix as a `general real coordinate` Matrix Market
/// file (sorted by row, then column — the CSR iteration order).
pub fn write_mtx(csr: &CsrMatrix, mut w: impl Write) -> Result<(), MtxError> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by spmv-suite")?;
    writeln!(w, "{} {} {}", csr.rows(), csr.cols(), csr.nnz())?;
    for (r, c, v) in csr.triplets() {
        writeln!(w, "{} {} {v:.17e}", r + 1, c + 1)?;
    }
    Ok(())
}

/// Writes a CSR matrix to a `.mtx` file on disk.
pub fn write_mtx_file(csr: &CsrMatrix, path: impl AsRef<Path>) -> Result<(), MtxError> {
    let f = std::fs::File::create(path)?;
    write_mtx(csr, std::io::BufWriter::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<CsrMatrix, MtxError> {
        read_mtx(s.as_bytes())
    }

    #[test]
    fn reads_general_real() {
        let m = parse(
            "%%MatrixMarket matrix coordinate real general\n\
             % a comment\n\
             3 4 3\n\
             1 1 2.5\n\
             2 3 -1.0\n\
             3 4 7e-1\n",
        )
        .unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0), (&[0u32][..], &[2.5][..]));
        assert_eq!(m.row(2), (&[3u32][..], &[0.7][..]));
    }

    #[test]
    fn reads_pattern_and_integer() {
        let m =
            parse("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n").unwrap();
        assert_eq!(m.values(), &[1.0, 1.0]);
        let m = parse("%%MatrixMarket matrix coordinate integer general\n2 2 1\n2 2 -3\n").unwrap();
        assert_eq!(m.values(), &[-3.0]);
    }

    #[test]
    fn mirrors_symmetric_and_skew() {
        let m = parse(
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 1.0\n2 1 2.0\n3 2 3.0\n",
        )
        .unwrap();
        // (1,0,2) mirrored to (0,1,2); (2,1,3) mirrored to (1,2,3).
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row(0), (&[0u32, 1][..], &[1.0, 2.0][..]));
        let s = parse("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 4.0\n")
            .unwrap();
        assert_eq!(s.row(0), (&[1u32][..], &[-4.0][..]));
        assert_eq!(s.row(1), (&[0u32][..], &[4.0][..]));
    }

    #[test]
    fn rejects_unsupported_flavors() {
        assert!(matches!(
            parse("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"),
            Err(MtxError::Unsupported(_))
        ));
        assert!(matches!(
            parse("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n"),
            Err(MtxError::Unsupported(_))
        ));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(matches!(parse(""), Err(MtxError::Parse { .. })));
        assert!(matches!(parse("not a banner\n1 1 0\n"), Err(MtxError::Parse { .. })));
        // 0-based index.
        assert!(matches!(
            parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n"),
            Err(MtxError::Parse { .. })
        ));
        // nnz mismatch.
        assert!(matches!(
            parse("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"),
            Err(MtxError::Parse { .. })
        ));
        // out-of-bounds entry surfaces as a matrix error.
        assert!(matches!(
            parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"),
            Err(MtxError::Matrix(_))
        ));
    }

    #[test]
    fn absurd_declared_nnz_is_rejected_not_preallocated() {
        // Header claims 10^18 entries. The old reader passed that to
        // `Vec::with_capacity` (a ~2.4 * 10^19-byte allocation request,
        // i.e. an abort); it must instead read on and fail the
        // declared-vs-actual entry count check.
        let r = parse(
            "%%MatrixMarket matrix coordinate real general\n\
             2 2 1000000000000000000\n\
             1 1 1.0\n",
        );
        assert!(matches!(r, Err(MtxError::Parse { .. })));
    }

    #[test]
    fn write_read_round_trip() {
        let m = CsrMatrix::from_triplets(
            3,
            5,
            &[(0, 4, 1.25), (1, 0, -2.0), (1, 2, 1e-30), (2, 3, 1e30)],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_mtx(&m, &mut buf).unwrap();
        let back = read_mtx(buf.as_slice()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn file_round_trip() {
        let m = CsrMatrix::identity(7);
        let dir = std::env::temp_dir().join("spmv_mtx_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("id7.mtx");
        write_mtx_file(&m, &path).unwrap();
        let back = read_mtx_file(&path).unwrap();
        assert_eq!(m, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_case_insensitive_and_blank_tolerant() {
        let m =
            parse("\n%%matrixmarket MATRIX Coordinate Real General\n\n% c\n2 2 1\n\n1 1 5.0\n\n")
                .unwrap();
        assert_eq!(m.nnz(), 1);
    }
}
