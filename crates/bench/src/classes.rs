//! The eight feature classes of the repo benchmark
//! (`benchmark/src/inputs.rs`), for the gate binaries that report per
//! class: same parameters, same generator, any footprint.

use spmv_core::CsrMatrix;
use spmv_gen::generator::params_for_features;
use spmv_gen::rng::child_seed;

/// `(name, avg nnz/row, skew, cross_row_sim, avg_num_neigh, bw_scaled)`.
pub const CLASSES: [(&str, f64, f64, f64, f64, f64); 8] = [
    ("short-regular", 5.0, 0.0, 0.95, 1.9, 0.3),
    ("mid-regular", 20.0, 0.0, 0.95, 1.9, 0.3),
    ("long-rows", 100.0, 0.0, 0.5, 0.95, 0.3),
    ("very-long", 500.0, 0.0, 0.5, 0.95, 0.3),
    ("skewed", 20.0, 1000.0, 0.5, 0.95, 0.3),
    ("very-skewed", 10.0, 10000.0, 0.5, 0.95, 0.3),
    ("irregular", 10.0, 0.0, 0.05, 0.05, 0.6),
    ("banded", 20.0, 0.0, 0.5, 1.9, 0.05),
];

/// The matrix of class `CLASSES[class]` at a CSR footprint of `mb`
/// megabytes; `stream` picks the child seed, so a bench that generates
/// several matrices gives each its own.
pub fn generate(class: usize, mb: f64, seed: u64, stream: u64) -> CsrMatrix {
    let (_, avg, skew, crs, neigh, bw) = CLASSES[class];
    params_for_features(mb, avg, skew, crs, neigh, bw, child_seed(seed, stream))
        .generate()
        .expect("class parameters are satisfiable")
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::features::SAMPLE_NNZ;
    use spmv_core::FeatureSet;

    /// The engine's sampled cross-row similarity stays within 0.03 of
    /// the exact value on every class at 1 MB, a size it samples.
    #[test]
    fn estimated_cross_row_similarity_is_close_on_every_class() {
        for (i, &(class, ..)) in CLASSES.iter().enumerate() {
            let csr = generate(i, 1.0, 1, i as u64);
            assert!(csr.nnz() >= 2 * SAMPLE_NNZ, "{class}: 1 MB is not sampled");
            let (exact, estimate) = (FeatureSet::extract(&csr), FeatureSet::estimate(&csr));
            let error = (estimate.cross_row_sim - exact.cross_row_sim).abs();
            assert!(error <= 0.03, "{class}: {exact:?} vs {estimate:?}");
        }
    }
}
