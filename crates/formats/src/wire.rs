//! Versioned, checksummed binary wire format for storage formats.
//!
//! Every format the engine serves ([`FormatKind::SERVING`]) can
//! round-trip through a self-delimiting binary envelope; the figure-set
//! kinds answer [`WireError::NotServed`] both ways:
//!
//! ```text
//! offset   size  field
//! 0        8     magic  b"SPMVFMT1" (version baked into the magic)
//! 8        1     format tag — index into FormatKind::ALL
//! 9        8     payload length, u64 little-endian
//! 17       n     payload: format-specific sections, little-endian
//!                fixed-width fields, length-prefixed arrays
//! 17 + n   8     xxh64 (seed 0) of bytes [0, 17 + n)
//! ```
//!
//! The layout is mmap-friendly: all fields are fixed-width
//! little-endian at deterministic offsets, and the payload is one
//! contiguous blob — a reader may map the file and hand the payload
//! slice to [`SectionReader`] without copying.
//!
//! Decoding is fuzz-resistant by construction, mirroring the hostile
//! length clamp of the MatrixMarket reader: every length prefix is
//! bounds-checked against the bytes actually present *before* any
//! allocation, so a corrupt or adversarial length errors out instead
//! of aborting on OOM, and every structural invariant a kernel relies
//! on (index bounds, pointer monotonicity, permutation validity) is
//! re-validated on the way in. No `unsafe` anywhere on this path.

use crate::kernels::LaneProfile;
use crate::registry::FormatKind;
use crate::traits::SparseFormat;
use spmv_core::{xxh64, CsrMatrix};
use std::fmt;
use std::io::{self, Read, Write};

/// Envelope magic: identifies the wire format and its version. Any
/// incompatible layout change bumps the trailing digit.
pub const FORMAT_MAGIC: [u8; 8] = *b"SPMVFMT1";

/// Upper bound on any decoded dimension or structural parameter
/// (rows, cols, nnz, slab widths …). Keeps all downstream arithmetic
/// — `rows * cols` products, padded slab sizes — overflow-free even on
/// hostile inputs.
pub const MAX_DIM: u64 = 1 << 48;

/// Errors raised while reading or writing the binary wire format.
#[derive(Debug)]
pub enum WireError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// The stream does not start with [`FORMAT_MAGIC`] (wrong file, or
    /// a snapshot from an incompatible version).
    BadMagic,
    /// The format tag does not name any `FormatKind` of this build.
    UnknownTag(u8),
    /// The kind is outside [`FormatKind::SERVING`]: figure-set formats
    /// are never snapshotted, so they neither encode nor decode. (Their
    /// tags are retired, never reused.)
    NotServed(FormatKind),
    /// The checksum over the received bytes does not match the stored
    /// digest — the payload was corrupted or tampered with.
    ChecksumMismatch {
        /// Digest stored in the envelope.
        stored: u64,
        /// Digest computed over the received bytes.
        computed: u64,
    },
    /// The stream ended before the declared length was available.
    Truncated {
        /// Bytes the envelope declared.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The payload is structurally invalid: a length prefix larger
    /// than the remaining bytes, an out-of-bounds index, a
    /// non-monotone pointer array, or any other violated invariant.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::BadMagic => write!(f, "bad magic: not a SPMVFMT1 stream"),
            WireError::UnknownTag(t) => write!(f, "unknown format tag {t}"),
            WireError::NotServed(kind) => write!(f, "{} is not a serving format", kind.name()),
            WireError::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}")
            }
            WireError::Truncated { expected, got } => {
                write!(f, "truncated stream: expected {expected} bytes, got {got}")
            }
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

/// Append-only little-endian section buffer; the write-side dual of
/// [`SectionReader`]. Arrays are length-prefixed with a `u64` element
/// count.
#[derive(Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// An empty section buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, yielding the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`, little-endian.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a length-prefixed raw byte array.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed `u32` array.
    pub fn slice_u32(&mut self, v: &[u32]) {
        self.usize(v.len());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Appends a length-prefixed `usize` array (stored as `u64`s).
    pub fn slice_usize(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &x in v {
            self.buf.extend_from_slice(&(x as u64).to_le_bytes());
        }
    }

    /// Appends a length-prefixed `f64` array as IEEE-754 bit patterns
    /// (bit-exact round-trip, including signed zeros and NaN payloads).
    pub fn slice_f64(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// Bounds-checked cursor over an in-memory payload; the read-side dual
/// of [`SectionWriter`].
///
/// Every length prefix is validated against the bytes actually
/// remaining *before* any allocation happens, so hostile lengths
/// produce a [`WireError`] instead of an OOM abort.
pub struct SectionReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated {
                expected: (self.pos as u64).saturating_add(n as u64),
                got: self.buf.len() as u64,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    /// Reads a `u64` and converts it to `usize`.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| malformed(format!("value {v} exceeds usize")))
    }

    /// Reads a dimension-like field (rows, cols, nnz, block size …),
    /// rejecting values at or above [`MAX_DIM`] so later arithmetic
    /// cannot overflow.
    pub fn dim(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        if v >= MAX_DIM {
            return Err(malformed(format!("dimension {v} exceeds limit {MAX_DIM}")));
        }
        usize::try_from(v).map_err(|_| malformed(format!("dimension {v} exceeds usize")))
    }

    /// Reads an array length prefix for elements of `elem_size` bytes,
    /// verifying the declared bytes are actually present.
    fn elems(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let n = self.u64()?;
        let need = n
            .checked_mul(elem_size as u64)
            .ok_or_else(|| malformed(format!("array length {n} overflows")))?;
        if need > self.remaining() as u64 {
            return Err(WireError::Truncated {
                expected: (self.pos as u64).saturating_add(need),
                got: self.buf.len() as u64,
            });
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed raw byte array.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.elems(1)?;
        self.take(n)
    }

    /// Reads a length-prefixed `u32` array.
    pub fn vec_u32(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.elems(4)?;
        let raw = self.take(4 * n)?;
        Ok(raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4B"))).collect())
    }

    /// Reads a length-prefixed `usize` array (stored as `u64`s), each
    /// element bounded by [`MAX_DIM`].
    pub fn vec_usize(&mut self) -> Result<Vec<usize>, WireError> {
        let n = self.elems(8)?;
        let raw = self.take(8 * n)?;
        let mut out = Vec::with_capacity(n);
        for c in raw.chunks_exact(8) {
            let v = u64::from_le_bytes(c.try_into().expect("8B"));
            if v >= MAX_DIM {
                return Err(malformed(format!("offset {v} exceeds limit {MAX_DIM}")));
            }
            out.push(v as usize);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `f64` array (bit patterns).
    pub fn vec_f64(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.elems(8)?;
        let raw = self.take(8 * n)?;
        Ok(raw.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8B"))).collect())
    }

    /// Asserts the payload was consumed exactly — trailing bytes are a
    /// malformed stream, not padding.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(malformed(format!("{} trailing payload bytes", self.remaining())));
        }
        Ok(())
    }
}

impl Read for SectionReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = out.len().min(self.remaining());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The wire tag of a format kind: its index in [`FormatKind::ALL`]
/// (the order is append-only, so tags are stable across versions).
pub fn tag_of(kind: FormatKind) -> u8 {
    kind as u8
}

/// The format kind a wire tag names, if any.
pub fn kind_of(tag: u8) -> Option<FormatKind> {
    FormatKind::ALL.get(tag as usize).copied()
}

/// The kind a format names itself as ([`SparseFormat::name`]).
pub(crate) fn kind_named(name: &str) -> Result<FormatKind, WireError> {
    FormatKind::from_name(name)
        .ok_or_else(|| malformed(format!("format name {name:?} has no wire tag")))
}

/// Writes the full envelope (magic, tag, length, payload, checksum)
/// for a format whose payload was already encoded into `payload`.
pub(crate) fn write_envelope(
    name: &str,
    payload: SectionWriter,
    w: &mut dyn Write,
) -> Result<(), WireError> {
    let kind = kind_named(name)?;
    let payload = payload.into_bytes();
    let mut framed = Vec::with_capacity(FORMAT_MAGIC.len() + 9 + payload.len() + 8);
    framed.extend_from_slice(&FORMAT_MAGIC);
    framed.push(tag_of(kind));
    framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    framed.extend_from_slice(&payload);
    let digest = xxh64(&framed, 0);
    framed.extend_from_slice(&digest.to_le_bytes());
    w.write_all(&framed)?;
    Ok(())
}

/// Reads exactly `buf.len()` bytes, reporting a short stream as
/// [`WireError::Truncated`] (with byte counts) rather than a bare
/// `UnexpectedEof`.
fn read_exact_or_truncated(r: &mut dyn Read, buf: &mut [u8]) -> Result<(), WireError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(WireError::Truncated { expected: buf.len() as u64, got: filled as u64 })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one format envelope from `r` and reconstructs the format.
///
/// Consumes exactly one envelope (the layout is self-delimiting), so
/// envelopes can be concatenated in a larger stream. A declared
/// payload length is never trusted up front: bytes are read as they
/// arrive, so a hostile length yields [`WireError::Truncated`] instead
/// of a pre-allocation OOM. The checksum is verified before any
/// structural decoding.
///
/// The rebuilt format's kernels run at the process-wide
/// [`LaneProfile::current`]; [`deserialize_from_with`] takes the
/// profile explicitly.
pub fn deserialize_from(r: &mut dyn Read) -> Result<Box<dyn SparseFormat>, WireError> {
    deserialize_from_with(r, LaneProfile::current())
}

/// [`deserialize_from`] with an explicit lane profile — the hook the
/// engine uses so a restored conversion runs at the engine's resolved
/// width, like one it built with
/// [`build_format_with`](crate::registry::build_format_with).
pub fn deserialize_from_with(
    r: &mut dyn Read,
    profile: LaneProfile,
) -> Result<Box<dyn SparseFormat>, WireError> {
    let mut head = [0u8; 17];
    read_exact_or_truncated(r, &mut head)?;
    if head[..8] != FORMAT_MAGIC {
        return Err(WireError::BadMagic);
    }
    let tag = head[8];
    let kind = kind_of(tag).ok_or(WireError::UnknownTag(tag))?;
    let payload_len = u64::from_le_bytes(head[9..17].try_into().expect("8B"));
    let mut body = head.to_vec();
    let got = io::Read::take(&mut *r, payload_len).read_to_end(&mut body)? as u64;
    if got < payload_len {
        return Err(WireError::Truncated { expected: payload_len, got });
    }
    let mut digest = [0u8; 8];
    read_exact_or_truncated(r, &mut digest)?;
    let stored = u64::from_le_bytes(digest);
    let computed = xxh64(&body, 0);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    let mut payload = SectionReader::new(&body[17..]);
    let fmt = decode_payload(kind, &mut payload, profile)?;
    payload.finish()?;
    Ok(fmt)
}

fn decode_payload(
    kind: FormatKind,
    r: &mut SectionReader<'_>,
    profile: LaneProfile,
) -> Result<Box<dyn SparseFormat>, WireError> {
    use crate::csr::{CsrFormat, CsrVariant};
    // The variant comes from the tag, the lane width from `profile`.
    let csr_family =
        |r, variant| decode_csr(r).map(|m| CsrFormat::with_profile(m, variant, profile));
    Ok(match kind {
        FormatKind::NaiveCsr => Box::new(csr_family(r, CsrVariant::Naive)?),
        FormatKind::BalancedCsr => Box::new(csr_family(r, CsrVariant::Balanced)?),
        FormatKind::Ell => Box::new(crate::ell::decode(r, profile)?),
        FormatKind::Hyb => Box::new(crate::hyb::decode(r, profile)?),
        FormatKind::SellCSigma => Box::new(crate::sellcs::decode(r, profile)?),
        // Retired tags: the figure set, and the CSR-family labels that
        // serve as Balanced-CSR. Never written, never decoded.
        FormatKind::VectorizedCsr
        | FormatKind::Csr5
        | FormatKind::MergeCsr
        | FormatKind::Coo
        | FormatKind::Dia
        | FormatKind::Bcsr
        | FormatKind::SparseX
        | FormatKind::Vsl => return Err(WireError::NotServed(kind)),
        // The chunk-width variants share SELL-C-σ's payload layout but
        // their tag pins C; a payload whose stored C disagrees with its
        // tag was tampered with or mis-labelled. (The legacy SellCSigma
        // tag stays permissive for pre-variant snapshots.)
        FormatKind::SellC4 => Box::new(decode_sell_pinned(r, 4, profile)?),
        FormatKind::SellC16 => Box::new(decode_sell_pinned(r, 16, profile)?),
    })
}

/// Decodes a SELL payload whose wire tag pins the chunk width.
fn decode_sell_pinned(
    r: &mut SectionReader<'_>,
    c: usize,
    profile: LaneProfile,
) -> Result<crate::sellcs::SellCSigmaFormat, WireError> {
    let f = crate::sellcs::decode(r, profile)?;
    if f.c() != c {
        return Err(malformed(format!("SELL chunk width {} under a C={c} wire tag", f.c())));
    }
    Ok(f)
}

/// Encodes the standard CSR section group (rows, cols, row pointer,
/// column indices, values) — the body of every CSR-family payload.
pub(crate) fn encode_csr(m: &CsrMatrix, out: &mut SectionWriter) {
    out.usize(m.rows());
    out.usize(m.cols());
    out.slice_usize(m.row_ptr());
    out.slice_u32(m.col_idx());
    out.slice_f64(m.values());
}

/// Decodes and re-validates the standard CSR section group through the
/// checked [`CsrMatrix::new`] constructor.
pub(crate) fn decode_csr(r: &mut SectionReader<'_>) -> Result<CsrMatrix, WireError> {
    let rows = r.dim()?;
    let cols = r.dim()?;
    let row_ptr = r.vec_usize()?;
    let col_idx = r.vec_u32()?;
    let values = r.vec_f64()?;
    CsrMatrix::new(rows, cols, row_ptr, col_idx, values)
        .map_err(|e| malformed(format!("CSR sections: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::build_format;

    fn test_matrix() -> CsrMatrix {
        let mut t = Vec::new();
        for c in 0..24 {
            t.push((0usize, c as usize, c as f64 * 0.5 - 3.0));
        }
        for r in 1..10usize {
            t.push((r, r, 1.5 * r as f64));
            t.push((r, (r + 5) % 24, -0.25));
        }
        CsrMatrix::from_triplets(10, 24, &t).unwrap()
    }

    #[test]
    fn tags_are_stable_positions() {
        for (i, &kind) in FormatKind::ALL.iter().enumerate() {
            assert_eq!(tag_of(kind) as usize, i);
            assert_eq!(kind_of(i as u8), Some(kind));
        }
        assert_eq!(kind_of(FormatKind::ALL.len() as u8), None);
    }

    #[test]
    fn every_format_round_trips() {
        let m = test_matrix();
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.31).sin()).collect();
        for kind in FormatKind::SERVING {
            let Ok(f) = build_format(kind, &m) else { continue };
            let mut blob = Vec::new();
            f.serialize_into(&mut blob).unwrap();
            let back = deserialize_from(&mut blob.as_slice()).unwrap();
            assert_eq!(back.name(), f.name());
            assert_eq!(back.rows(), f.rows());
            assert_eq!(back.cols(), f.cols());
            assert_eq!(back.nnz(), f.nnz());
            assert_eq!(back.bytes(), f.bytes(), "{} bytes must survive", f.name());
            let mut want = vec![f64::NAN; m.rows()];
            f.spmv(&x, &mut want);
            let mut got = vec![f64::NAN; m.rows()];
            back.spmv(&x, &mut got);
            assert_eq!(got, want, "{} spmv must be bit-identical", f.name());
        }
    }

    #[test]
    fn envelopes_are_self_delimiting_in_a_stream() {
        let m = test_matrix();
        let a = build_format(FormatKind::NaiveCsr, &m).unwrap();
        let b = build_format(FormatKind::Ell, &m).unwrap();
        let mut blob = Vec::new();
        a.serialize_into(&mut blob).unwrap();
        b.serialize_into(&mut blob).unwrap();
        let mut cursor = blob.as_slice();
        assert_eq!(deserialize_from(&mut cursor).unwrap().name(), "Naive-CSR");
        assert_eq!(deserialize_from(&mut cursor).unwrap().name(), "ELL");
        assert!(cursor.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut blob = Vec::new();
        build_format(FormatKind::NaiveCsr, &test_matrix())
            .unwrap()
            .serialize_into(&mut blob)
            .unwrap();
        blob[0] ^= 0xFF;
        assert!(matches!(deserialize_from(&mut blob.as_slice()), Err(WireError::BadMagic)));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut blob = Vec::new();
        build_format(FormatKind::NaiveCsr, &test_matrix())
            .unwrap()
            .serialize_into(&mut blob)
            .unwrap();
        blob[8] = 0xEE;
        assert!(matches!(deserialize_from(&mut blob.as_slice()), Err(WireError::UnknownTag(0xEE))));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut blob = Vec::new();
        build_format(FormatKind::NaiveCsr, &test_matrix())
            .unwrap()
            .serialize_into(&mut blob)
            .unwrap();
        for cut in [0, 3, 8, 16, 17, 40, blob.len() - 1] {
            let r = deserialize_from(&mut &blob[..cut]);
            assert!(r.is_err(), "truncation at {cut} must error");
        }
    }

    #[test]
    fn hostile_payload_length_errors_without_oom() {
        // An envelope claiming a ~9 EB payload it cannot deliver: the
        // reader must report truncation, not attempt the allocation.
        let mut blob = Vec::new();
        blob.extend_from_slice(&FORMAT_MAGIC);
        blob.push(0);
        blob.extend_from_slice(&(u64::MAX / 2).to_le_bytes());
        blob.extend_from_slice(&[0u8; 32]);
        assert!(matches!(deserialize_from(&mut blob.as_slice()), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn hostile_array_length_inside_payload_is_bounds_checked() {
        // A syntactically valid envelope whose payload declares a
        // 2^60-element array: SectionReader must refuse before
        // allocating. The checksum is made valid so the length check
        // itself is what fires.
        let mut payload = SectionWriter::new();
        payload.usize(4); // rows
        payload.usize(4); // cols
        payload.u64(1 << 60); // row_ptr length prefix (hostile)
        let payload = payload.into_bytes();
        let mut blob = Vec::new();
        blob.extend_from_slice(&FORMAT_MAGIC);
        blob.push(tag_of(FormatKind::NaiveCsr));
        blob.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        blob.extend_from_slice(&payload);
        let digest = xxh64(&blob, 0);
        blob.extend_from_slice(&digest.to_le_bytes());
        assert!(matches!(deserialize_from(&mut blob.as_slice()), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn retired_tags_decode_as_not_served() {
        // A valid CSR payload under each figure-set tag, checksummed: the
        // tag alone refuses it.
        let mut payload = SectionWriter::new();
        encode_csr(&test_matrix(), &mut payload);
        let payload = payload.into_bytes();
        for kind in FormatKind::ALL.into_iter().filter(|k| !FormatKind::SERVING.contains(k)) {
            let mut blob = FORMAT_MAGIC.to_vec();
            blob.push(tag_of(kind));
            blob.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            blob.extend_from_slice(&payload);
            let digest = xxh64(&blob, 0);
            blob.extend_from_slice(&digest.to_le_bytes());
            let got = deserialize_from(&mut blob.as_slice()).err();
            assert!(matches!(got, Some(WireError::NotServed(k)) if k == kind), "{kind:?}");
        }
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let m = test_matrix();
        let f = build_format(FormatKind::SellCSigma, &m).unwrap();
        let mut blob = Vec::new();
        f.serialize_into(&mut blob).unwrap();
        for byte in 0..blob.len() {
            blob[byte] ^= 0x01;
            assert!(
                deserialize_from(&mut blob.as_slice()).is_err(),
                "flip at byte {byte} went undetected"
            );
            blob[byte] ^= 0x01;
        }
    }

    #[test]
    fn sell_chunk_width_tag_mismatch_is_rejected() {
        // Re-label a SELL-4-s envelope with the SELL-16-s tag (fixing
        // the checksum): the decoder must notice the stored C=4 payload
        // under a C=16 tag.
        let m = test_matrix();
        let f = build_format(FormatKind::SellC4, &m).unwrap();
        let mut blob = Vec::new();
        f.serialize_into(&mut blob).unwrap();
        assert_eq!(blob[8], tag_of(FormatKind::SellC4));
        blob[8] = tag_of(FormatKind::SellC16);
        let body_len = blob.len() - 8;
        let digest = xxh64(&blob[..body_len], 0);
        blob[body_len..].copy_from_slice(&digest.to_le_bytes());
        assert!(matches!(deserialize_from(&mut blob.as_slice()), Err(WireError::Malformed(_))));
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        // Extend a Naive-CSR payload by one byte and re-checksum: the decode
        // must notice the unconsumed byte.
        let m = test_matrix();
        let f = build_format(FormatKind::NaiveCsr, &m).unwrap();
        let mut blob = Vec::new();
        f.serialize_into(&mut blob).unwrap();
        let payload_len = u64::from_le_bytes(blob[9..17].try_into().unwrap()) as usize;
        let mut evil = blob[..17 + payload_len].to_vec();
        evil.push(0xAB);
        let new_len = (payload_len + 1) as u64;
        evil[9..17].copy_from_slice(&new_len.to_le_bytes());
        let digest = xxh64(&evil, 0);
        evil.extend_from_slice(&digest.to_le_bytes());
        assert!(matches!(deserialize_from(&mut evil.as_slice()), Err(WireError::Malformed(_))));
    }
}
