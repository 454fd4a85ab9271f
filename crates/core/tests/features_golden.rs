//! Golden feature-extraction tests: every field of [`FeatureSet`] is
//! asserted against hand-computed values for six tiny structural
//! archetypes (§III-A definitions), so any drift in the feature
//! definitions — the ground truth the whole study and the adaptive
//! engine's selector stand on — fails loudly. A property test then
//! pins [`FeatureSet::extract`] to its definitional oracle
//! [`FeatureSet::extract_reference`], and the engine's
//! [`FeatureSet::estimate`] to `extract`, on arbitrary matrices.

use proptest::prelude::*;
use spmv_core::features::{FeatureSet, SAMPLE_NNZ};
use spmv_core::CsrMatrix;

const MB: f64 = 1024.0 * 1024.0;

fn assert_feature_eq(name: &str, got: f64, want: f64) {
    assert!((got - want).abs() < 1e-12, "{name}: got {got}, want {want}");
}

/// Asserts every FeatureSet field exactly (footprint from raw bytes).
#[allow(clippy::too_many_arguments)]
fn assert_golden(
    label: &str,
    m: &CsrMatrix,
    footprint_bytes: usize,
    avg: f64,
    std: f64,
    max: usize,
    skew: f64,
    crs: f64,
    neigh: f64,
    bw: f64,
    empty_frac: f64,
) {
    let f = FeatureSet::extract(m);
    assert_eq!((f.rows, f.cols, f.nnz), (m.rows(), m.cols(), m.nnz()), "{label}: shape");
    assert_feature_eq(
        &format!("{label}: f1 footprint"),
        f.mem_footprint_mb,
        footprint_bytes as f64 / MB,
    );
    assert_feature_eq(&format!("{label}: f2 avg_nnz_per_row"), f.avg_nnz_per_row, avg);
    assert_feature_eq(&format!("{label}: std_nnz_per_row"), f.std_nnz_per_row, std);
    assert_eq!(f.max_nnz_per_row, max, "{label}: max_nnz_per_row");
    assert_feature_eq(&format!("{label}: f3 skew"), f.skew_coeff, skew);
    assert_feature_eq(&format!("{label}: f4.a cross_row_sim"), f.cross_row_sim, crs);
    assert_feature_eq(&format!("{label}: f4.b avg_num_neigh"), f.avg_num_neigh, neigh);
    assert_feature_eq(&format!("{label}: bandwidth_scaled"), f.bandwidth_scaled, bw);
    assert_feature_eq(&format!("{label}: empty_row_frac"), f.empty_row_frac, empty_frac);
}

#[test]
fn golden_diagonal() {
    // 4x4 identity: consecutive rows sit one column apart, so every
    // nonzero has a cross-row neighbor at distance exactly 1.
    let m = CsrMatrix::identity(4);
    // bytes = 12*4 nnz + 4*5 row_ptr = 68
    assert_golden("diagonal", &m, 68, 1.0, 0.0, 1, 0.0, 1.0, 0.0, 0.25, 0.0);
}

#[test]
fn golden_dense_row() {
    // 1x6 fully dense row: 5 adjacent pairs -> avg_num_neigh 10/6; no
    // successor row exists, so cross-row similarity is defined as 0.
    let t: Vec<_> = (0..6).map(|c| (0usize, c, 1.0)).collect();
    let m = CsrMatrix::from_triplets(1, 6, &t).unwrap();
    // bytes = 12*6 + 4*2 = 80
    assert_golden("dense row", &m, 80, 6.0, 0.0, 6, 0.0, 0.0, 10.0 / 6.0, 1.0, 0.0);
}

#[test]
fn golden_banded() {
    // 5x5 tridiagonal: row lengths 2,3,3,3,2 (nnz 13); all entries are
    // adjacent (8 same-row pairs) and every row fully overlaps its
    // successor within distance 1.
    let mut t = Vec::new();
    for r in 0..5usize {
        for c in r.saturating_sub(1)..(r + 2).min(5) {
            t.push((r, c, 1.0));
        }
    }
    let m = CsrMatrix::from_triplets(5, 5, &t).unwrap();
    // bytes = 12*13 + 4*6 = 180; avg 2.6; var = 35/5 - 2.6^2 = 0.24;
    // skew = (3-2.6)/2.6 = 2/13; neigh = 2*8/13; bw = (2+3+3+3+2)/5/5.
    assert_golden(
        "banded",
        &m,
        180,
        2.6,
        0.24f64.sqrt(),
        3,
        2.0 / 13.0,
        1.0,
        16.0 / 13.0,
        0.52,
        0.0,
    );
}

#[test]
fn golden_empty_rows() {
    // 4x5 with rows 1 and 3 empty: both nonzeros face an empty
    // successor row, so similarity is 0 over the two resolvable rows.
    let m = CsrMatrix::from_triplets(4, 5, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
    // bytes = 12*2 + 4*5 = 44; avg 0.5; var = 2/4 - 0.25 = 0.25;
    // skew = (1-0.5)/0.5 = 1; bw over nonempty rows = (1/5 + 1/5)/2.
    assert_golden("empty rows", &m, 44, 0.5, 0.5, 1, 1.0, 0.0, 0.0, 0.2, 0.5);
}

#[test]
fn golden_single_column() {
    // 3x1 column vector: same-column entries are cross-row neighbors at
    // distance 0; a single 1-wide row spans the full (1-column) width.
    let m = CsrMatrix::from_triplets(3, 1, &[(0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0)]).unwrap();
    // bytes = 12*3 + 4*4 = 52
    assert_golden("single column", &m, 52, 1.0, 0.0, 1, 0.0, 1.0, 0.0, 1.0, 0.0);
}

#[test]
fn golden_rectangular() {
    // 2x8 with a 4-run and a 2-run at opposite ends: no cross-row
    // overlap, 4 same-row pairs, skew (4-3)/3.
    let m = CsrMatrix::from_triplets(
        2,
        8,
        &[(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 6, 1.0), (1, 7, 1.0)],
    )
    .unwrap();
    // bytes = 12*6 + 4*3 = 84; avg 3; var = 20/2 - 9 = 1;
    // bw = (4/8 + 2/8)/2 = 0.375; neigh = 2*4/6.
    assert_golden("rectangular", &m, 84, 3.0, 1.0, 4, 1.0 / 3.0, 0.0, 4.0 / 3.0, 0.375, 0.0);
}

/// Arbitrary small sparse matrices via triplets (duplicates collapse in
/// `from_triplets`, which only makes the structure more adversarial).
fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (1usize..24, 1usize..32, proptest::collection::vec((0usize..24, 0usize..32, 1u8..10), 0..120))
        .prop_map(|(rows, cols, raw)| {
            let t: Vec<(usize, usize, f64)> =
                raw.into_iter().map(|(r, c, v)| (r % rows, c % cols, v as f64)).collect();
            CsrMatrix::from_triplets(rows, cols, &t).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn extract_matches_the_reference_on_arbitrary_matrices(m in arb_matrix()) {
        let batch = FeatureSet::extract(&m);
        prop_assert_eq!(batch, FeatureSet::extract_reference(&m));
        // Below twice the sample budget `estimate` is `extract`.
        prop_assert!(m.nnz() < 2 * SAMPLE_NNZ);
        prop_assert_eq!(FeatureSet::estimate(&m), batch);
    }
}
