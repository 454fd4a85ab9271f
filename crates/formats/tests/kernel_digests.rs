//! The arithmetic contract of `spmv_formats::kernels`, pinned as
//! constants: one XXH64 per (format, lane width) over the output bits of
//! `spmv`, `spmv_parallel` (pools of 1 and 4), `spmm` (k = 1, 3, 13) and
//! `spmv_dot` on five fixed matrices. Not a comparison against a second
//! implementation — the digests were captured before the kernel layer
//! was folded onto its view types (issue 24), so any change to a
//! summation order, a padding rule, a row map or a chunk seam shows up
//! here as a moved constant, on every host and at every `SPMV_LANES`
//! (the profiles are explicit).
//!
//! A change that is *meant* to move a sum re-pins the table the failing
//! test prints.

use spmv_core::{xxh64, CsrMatrix};
use spmv_formats::{build_format_with, FormatBuildError, FormatKind, LaneProfile, LaneWidth};
use spmv_parallel::ThreadPool;

/// `n × n` with `per_row(r)` nonzeros in row `r`. Values and operands
/// are products and differences of small integers and decimal
/// constants: full mantissas (every summation order rounds differently)
/// without a libm call (whose last bit is the platform's business).
fn square(n: usize, per_row: impl Fn(usize) -> usize) -> CsrMatrix {
    let mut triplets = Vec::new();
    for r in 0..n {
        let len = per_row(r).min(n);
        for k in 0..len {
            // Distinct columns: a stride coprime to every `n` used below.
            let c = (r * 5 + k * 7) % n;
            triplets.push((r, c, ((r * 31 + k * 17) % 23) as f64 * 0.173 - 1.9));
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets).expect("fixed matrix")
}

fn matrices() -> [(&'static str, CsrMatrix); 5] {
    [
        // 1..=29 nonzeros: every `len mod 8`, rows with 0–3 full blocks.
        ("mixed_rows_97", square(97, |r| 1 + (r * 7) % 29)),
        // One row holds a third of the matrix (ELL refuses it).
        ("hot_row_61", square(61, |r| if r == 5 { 61 } else { 2 })),
        // Empty rows on both sides of every C = 4, 8 and 16 chunk seam.
        ("empty_rows_at_seams_50", square(50, |r| if r % 4 == 0 || r % 4 == 3 { 0 } else { 9 })),
        // 67 = 16·4 + 3: a partial last chunk at every C.
        ("ragged_last_chunk_67", square(67, |r| 1 + r % 6)),
        // Fewer rows than one vector block.
        ("three_rows_3", square(3, |r| r + 1)),
    ]
}

fn operand(len: usize) -> Vec<f64> {
    (0..len).map(|i| ((i * 13 + 7) % 29) as f64 * 0.219 - 3.1).collect()
}

/// Continues the digest chain over the bit patterns of `values`.
fn absorb(digest: u64, values: &[f64]) -> u64 {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    xxh64(&bytes, digest)
}

/// The digest of every pinned entry point of `kind` at `width`.
fn digest(kind: FormatKind, width: LaneWidth, pools: &[ThreadPool]) -> u64 {
    let mut digest = 0u64;
    for (name, m) in matrices() {
        let f = match build_format_with(kind, &m, LaneProfile::with_width(width)) {
            Ok(f) => f,
            Err(FormatBuildError::PaddingOverflow { .. }) => {
                // A refusal is part of the pinned behaviour.
                digest = xxh64(name.as_bytes(), digest);
                continue;
            }
            Err(e) => panic!("{name}: {} failed to build: {e}", kind.name()),
        };
        let n = m.rows();
        let x = operand(n);
        let mut y = vec![f64::NAN; n];
        f.spmv(&x, &mut y);
        digest = absorb(digest, &y);
        for pool in pools {
            y.fill(f64::NAN);
            f.spmv_parallel(pool, &x, &mut y);
            digest = absorb(digest, &y);
        }
        for k in [1usize, 3, 13] {
            let xs = operand(n * k);
            let mut ys = vec![f64::NAN; n * k];
            f.spmm(&xs, k, &mut ys);
            digest = absorb(digest, &ys);
        }
        y.fill(f64::NAN);
        let dot = f.spmv_dot(&x, &mut y);
        digest = absorb(absorb(digest, &y), &[dot]);
    }
    digest
}

/// The kernel-layer kinds plus Merge-CSR and CSR5, which run Naive-CSR's
/// scalar rows on the static schedule.
const KINDS: [FormatKind; 10] = [
    FormatKind::NaiveCsr,
    FormatKind::VectorizedCsr,
    FormatKind::BalancedCsr,
    FormatKind::Ell,
    FormatKind::Hyb,
    FormatKind::SellC4,
    FormatKind::SellCSigma,
    FormatKind::SellC16,
    FormatKind::MergeCsr,
    FormatKind::Csr5,
];

const WIDTHS: [LaneWidth; 3] = [LaneWidth::W1, LaneWidth::W4, LaneWidth::W8];

/// `PINNED[kind][width]`, in the order of `KINDS` × `WIDTHS`. Rows read
/// as the determinism contract: Naive-CSR (and so Merge-CSR and CSR5)
/// and every padded kind are one constant across widths; HYB, which
/// accepts every matrix here and sums each row in `spmv_into`'s order,
/// is Naive-CSR's constant (ELL refuses `hot_row_61`); the SELL chunk
/// heights share one (σ = 256 sorts these matrices whole, so all three
/// pack — and fuse their dot — in the same order).
const PINNED: [[u64; 3]; 10] = [
    [0x8a7d96e445c3eea0, 0x8a7d96e445c3eea0, 0x8a7d96e445c3eea0], // Naive-CSR
    [0x8a7d96e445c3eea0, 0xe042ed0e0d35a99d, 0xad2b17f3a527d6f8], // Vectorized-CSR
    [0x8a7d96e445c3eea0, 0xe042ed0e0d35a99d, 0xad2b17f3a527d6f8], // Balanced-CSR
    [0xe07131f799228f77, 0xe07131f799228f77, 0xe07131f799228f77], // ELL
    [0x8a7d96e445c3eea0, 0x8a7d96e445c3eea0, 0x8a7d96e445c3eea0], // HYB
    [0xc3c35987200913d6, 0xc3c35987200913d6, 0xc3c35987200913d6], // SELL-4-s
    [0xc3c35987200913d6, 0xc3c35987200913d6, 0xc3c35987200913d6], // SELL-C-s
    [0xc3c35987200913d6, 0xc3c35987200913d6, 0xc3c35987200913d6], // SELL-16-s
    [0x8a7d96e445c3eea0, 0x8a7d96e445c3eea0, 0x8a7d96e445c3eea0], // Merge-CSR
    [0x8a7d96e445c3eea0, 0x8a7d96e445c3eea0, 0x8a7d96e445c3eea0], // CSR5
];

#[test]
fn kernel_outputs_are_pinned_bit_for_bit() {
    assert_eq!(KINDS[..8], FormatKind::KERNEL_LAYER, "the kernel layer grew or shrank");
    let pools = [ThreadPool::new(1), ThreadPool::new(4)];
    let got: Vec<[u64; 3]> =
        KINDS.iter().map(|&kind| WIDTHS.map(|width| digest(kind, width, &pools))).collect();
    if got != PINNED {
        let table: Vec<String> = KINDS
            .iter()
            .zip(&got)
            .map(|(kind, row)| {
                let cells: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
                format!("    [{}], // {}", cells.join(", "), kind.name())
            })
            .collect();
        let moved: Vec<String> = KINDS
            .iter()
            .zip(got.iter().zip(&PINNED))
            .flat_map(|(kind, (g, p))| {
                WIDTHS
                    .iter()
                    .zip(g.iter().zip(p))
                    .filter(|(_, (g, p))| g != p)
                    .map(move |(width, _)| format!("{} at {width:?}", kind.name()))
            })
            .collect();
        panic!("kernel outputs moved: {}\nactual table:\n{}", moved.join(", "), table.join("\n"));
    }
}
