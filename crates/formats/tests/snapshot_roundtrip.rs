//! Property tests of the wire serialization layer over adversarial
//! triplet-built matrices: for every serving format that accepts a
//! matrix, serialize → deserialize must reproduce the SpMV bit for bit
//! (a figure-set format refuses to serialize at all), and a
//! stream with any single byte flipped must come back as a typed
//! [`WireError`] — never a panic, and never a silently different
//! matrix.

use proptest::prelude::*;
use spmv_core::CsrMatrix;
use spmv_formats::ell::EllFormat;
use spmv_formats::{build_format, deserialize_from, FormatKind, SparseFormat, WireError};
use std::collections::BTreeMap;

/// Random sparse matrices from raw (row, col, value) triplets, with
/// deliberately awkward shapes (tall, wide, tiny) and densities —
/// mirrors `format_proptest.rs`.
fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (1usize..40, 1usize..40).prop_flat_map(|(rows, cols)| {
        let max_entries = (rows * cols).min(160);
        proptest::collection::vec((0..rows, 0..cols, -8i32..8), 0..=max_entries).prop_map(
            move |entries| {
                let mut dedup: BTreeMap<(usize, usize), f64> = BTreeMap::new();
                for (r, c, v) in entries {
                    dedup.insert((r, c), v as f64 * 0.5 + 0.25);
                }
                let triplets: Vec<(usize, usize, f64)> =
                    dedup.into_iter().map(|((r, c), v)| (r, c, v)).collect();
                CsrMatrix::from_triplets(rows, cols, &triplets).expect("deduplicated triplets")
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Untampered round trip: the deserialized format computes a
    // bit-identical SpMV into a garbage-prefilled output vector (so a
    // decoder that silently drops entries or padding cannot hide
    // behind a zeroed buffer).
    #[test]
    fn every_format_round_trips_bit_exactly(m in arb_matrix()) {
        let x: Vec<f64> = (0..m.cols()).map(|i| ((i * 13 + 7) % 11) as f64 * 0.375 - 1.5).collect();
        for kind in FormatKind::ALL.into_iter().filter(|k| !FormatKind::SERVING.contains(k)) {
            let Ok(f) = build_format(kind, &m) else { continue };
            let refused = f.serialize_into(&mut Vec::new());
            prop_assert!(matches!(refused, Err(WireError::NotServed(k)) if k == kind), "{}", f.name());
        }
        for kind in FormatKind::SERVING {
            let Ok(f) = build_format(kind, &m) else { continue };
            let mut blob = Vec::new();
            f.serialize_into(&mut blob).expect("writing to a Vec cannot fail");
            let back = deserialize_from(&mut &blob[..]).expect("round trip");
            prop_assert_eq!(back.name(), f.name());
            prop_assert_eq!(back.rows(), f.rows());
            prop_assert_eq!(back.cols(), f.cols());
            prop_assert_eq!(back.nnz(), f.nnz());
            prop_assert_eq!(back.bytes(), f.bytes(), "{} footprint", f.name());
            let mut want = vec![f64::NAN; m.rows()];
            f.spmv(&x, &mut want);
            let mut got = vec![f64::INFINITY; m.rows()];
            back.spmv(&x, &mut got);
            // Bit-exact, not approximately equal: same format, same
            // arrays, same summation order.
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{} row {}: {} vs {}", f.name(), i, a, b
                );
            }
        }
    }

    // Tamper resistance: flipping any single byte of the envelope is
    // detected. Every flip lands in the magic, tag, length, payload or
    // checksum — each is covered by the header checks or the XXH64
    // trailer, so the decode must error (and must not panic).
    #[test]
    fn every_single_byte_flip_is_a_typed_error(m in arb_matrix(), flip in 0usize..1 << 20) {
        for kind in FormatKind::SERVING {
            let Ok(f) = build_format(kind, &m) else { continue };
            let mut blob = Vec::new();
            f.serialize_into(&mut blob).expect("writing to a Vec cannot fail");
            let pos = flip % blob.len();
            blob[pos] ^= 0x01;
            match deserialize_from(&mut &blob[..]) {
                Ok(_) => prop_assert!(false, "{}: flip at {} accepted", f.name(), pos),
                Err(
                    WireError::BadMagic
                    | WireError::UnknownTag(_)
                    | WireError::NotServed(_)
                    | WireError::ChecksumMismatch { .. }
                    | WireError::Truncated { .. }
                    | WireError::Malformed(_)
                    | WireError::Io(_),
                ) => {}
            }
        }
    }

    // Truncation at any prefix length is an error, not a panic — the
    // reader must bounds-check every declared length against the bytes
    // actually present.
    #[test]
    fn every_truncation_is_a_typed_error(m in arb_matrix(), cut in 0usize..1 << 20) {
        for kind in FormatKind::SERVING {
            let Ok(f) = build_format(kind, &m) else { continue };
            let mut blob = Vec::new();
            f.serialize_into(&mut blob).expect("writing to a Vec cannot fail");
            let len = cut % blob.len();
            prop_assert!(
                deserialize_from(&mut &blob[..len]).is_err(),
                "{}: truncation to {} of {} accepted", f.name(), len, blob.len()
            );
        }
    }
}

/// One fixed 67 × 67 matrix: a hot row, a run of empty rows, short
/// rows of varying length.
fn fixed_67() -> CsrMatrix {
    let mut t = Vec::new();
    for c in 0..67usize {
        t.push((3usize, c, c as f64 * 0.125 - 4.0));
    }
    for r in (0..67usize).filter(|r| *r != 3 && !(20..27).contains(r)) {
        for j in 0..1 + (r * 7) % 6 {
            t.push((r, (r * 5 + j * 11) % 67, 0.5 + r as f64 * 0.25 - j as f64));
        }
    }
    CsrMatrix::from_triplets(67, 67, &t).unwrap()
}

// The CSR family's wire bytes do not depend on who owns the arrays or
// which type encodes them: digests of the full envelope, from when each
// CSR kind kept a private copy of the arrays. Likewise the padded
// formats': from when ELL and HYB each spelled out their own slab.
#[test]
fn csr_family_wire_bytes_are_pinned() {
    let m = fixed_67();
    let pinned: [(FormatKind, usize, u64); 7] = [
        (FormatKind::NaiveCsr, 3861, 0xa9af51a851b7856c),
        (FormatKind::BalancedCsr, 3861, 0xfe2025e7fbdafa1e),
        (FormatKind::Ell, 53941, 0x71b087fa1c922b70),
        (FormatKind::Hyb, 5277, 0x3f4e3409d969db83),
        (FormatKind::SellC4, 6153, 0x1df600f0a3fc4d24),
        (FormatKind::SellCSigma, 9129, 0xe24d8b38e0bff7e2),
        (FormatKind::SellC16, 15225, 0xecf093f5e84c6137),
    ];
    for (kind, len, digest) in pinned {
        let mut blob = Vec::new();
        let built: Box<dyn SparseFormat> = match kind {
            // The hot row is past the registry's padding budget.
            FormatKind::Ell => Box::new(EllFormat::from_csr_with_budget(&m, 64.0).unwrap()),
            _ => build_format(kind, &m).unwrap(),
        };
        built.serialize_into(&mut blob).unwrap();
        let got = (blob.len(), spmv_core::xxh64(&blob, 0));
        assert_eq!(got, (len, digest), "{} envelope moved: {:#018x}", kind.name(), got.1);
    }
}
