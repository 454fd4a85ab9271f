//! The artificial matrix datasets of the paper.
//!
//! Table I defines the feature lattice; §III-B adds the three
//! `bw_scaled` values {0.05, 0.3, 0.6}; §V-E describes three dataset
//! sizes: 'small' (~3K matrices, one footprint sample per class),
//! 'medium' (~16K, the dataset of the main analysis) and 'large'
//! (~27K). The cartesian lattice is
//! `3 footprint classes × 6 row lengths × 4 skews × 3 cross-row-sims ×
//! 5 neighbor counts × 3 bandwidths = 3240` combinations; the dataset
//! sizes multiply this by 1 / 5 / 8 log-spaced footprint samples per
//! class (3240 / 16200 / 25920 matrices — the paper's ~3K/16K/27K).
//!
//! A [`MatrixSpec`] is a fully deterministic recipe (parameters + seed)
//! for one dataset matrix; it can be materialized or used analytically
//! by the device models.

use crate::generator::{params_for_features, GeneratorParams};
use crate::rng::child_seed;
use serde::{Deserialize, Serialize};
use spmv_core::{CsrMatrix, SparseError};

/// Footprint classes of Table I, in MB (at scale 1.0).
pub const FOOTPRINT_CLASSES_MB: [(f64, f64); 3] = [(4.0, 32.0), (32.0, 512.0), (512.0, 2048.0)];

/// f2 values of Table I: average nonzeros per row.
pub const AVG_NNZ_VALUES: [f64; 6] = [5.0, 10.0, 20.0, 50.0, 100.0, 500.0];

/// f3 values of Table I: skew coefficients.
pub const SKEW_VALUES: [f64; 4] = [0.0, 100.0, 1000.0, 10000.0];

/// f4.a values of Table I: cross-row similarity.
pub const CROSS_ROW_SIM_VALUES: [f64; 3] = [0.05, 0.5, 0.95];

/// f4.b values of Table I: average number of neighbors.
pub const AVG_NEIGH_VALUES: [f64; 5] = [0.05, 0.5, 0.95, 1.4, 1.9];

/// Bandwidth fractions used by the generator (§III-B).
pub const BW_SCALED_VALUES: [f64; 3] = [0.05, 0.3, 0.6];

/// One point of the feature lattice (requested features; the generated
/// matrix's measured features may deviate slightly, and skew saturates
/// on small matrices).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureSpacePoint {
    /// Requested CSR memory footprint in MB.
    pub mem_footprint_mb: f64,
    /// Requested average nonzeros per row.
    pub avg_nnz_per_row: f64,
    /// Requested skew coefficient.
    pub skew_coeff: f64,
    /// Requested cross-row similarity.
    pub cross_row_sim: f64,
    /// Requested average number of neighbors.
    pub avg_num_neigh: f64,
    /// Requested scaled bandwidth.
    pub bw_scaled: f64,
    /// Index of the footprint class this point belongs to (0..3).
    pub footprint_class: usize,
}

/// A reproducible recipe for one dataset matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixSpec {
    /// Stable identifier within the dataset (also encodes the lattice
    /// coordinates), e.g. `"m00042"`.
    pub id: String,
    /// The lattice point this matrix realizes.
    pub point: FeatureSpacePoint,
    /// Concrete generator parameters (shape, seed, ...).
    pub params: GeneratorParams,
}

impl MatrixSpec {
    /// Materializes the matrix in CSR format.
    pub fn materialize(&self) -> Result<CsrMatrix, SparseError> {
        self.params.generate()
    }
}

/// The three dataset sizes of §V-E.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatasetSize {
    /// ~3K matrices (one footprint sample per class) — the size of the
    /// SuiteSparse collection, found too small by the paper.
    Small,
    /// ~16K matrices (five samples) — the dataset of the main analysis.
    Medium,
    /// ~27K matrices (eight samples) — used to confirm convergence.
    Large,
}

impl DatasetSize {
    /// Log-spaced footprint samples per footprint class.
    pub fn footprint_samples(self) -> usize {
        match self {
            DatasetSize::Small => 1,
            DatasetSize::Medium => 5,
            DatasetSize::Large => 8,
        }
    }

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            DatasetSize::Small => "small",
            DatasetSize::Medium => "medium",
            DatasetSize::Large => "large",
        }
    }
}

/// Configuration of a dataset build.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Which lattice density to build.
    pub size: DatasetSize,
    /// Footprint divisor: 1.0 reproduces the paper's sizes (up to 2 GB
    /// per matrix); the default campaign uses 16.0 so the study runs on
    /// a laptop. Device models must be scaled by the same factor.
    pub scale: f64,
    /// Base RNG seed; every matrix derives a unique child seed.
    pub base_seed: u64,
}

impl Default for Dataset {
    fn default() -> Self {
        Dataset { size: DatasetSize::Medium, scale: 16.0, base_seed: 0x5EED_CAFE }
    }
}

impl Dataset {
    /// Enumerates the specs of every matrix in the dataset, in a
    /// deterministic order.
    pub fn specs(&self) -> Vec<MatrixSpec> {
        let mut specs = Vec::new();
        let samples = self.size.footprint_samples();
        let mut index = 0u64;
        for (class, &(lo, hi)) in FOOTPRINT_CLASSES_MB.iter().enumerate() {
            for s in 0..samples {
                // Log-spaced sample inside the class, then scaled down.
                let t = (s as f64 + 0.5) / samples as f64;
                let footprint = (lo * (hi / lo).powf(t)) / self.scale;
                for &avg in &AVG_NNZ_VALUES {
                    for &skew in &SKEW_VALUES {
                        for &crs in &CROSS_ROW_SIM_VALUES {
                            for &neigh in &AVG_NEIGH_VALUES {
                                for &bw in &BW_SCALED_VALUES {
                                    let point = FeatureSpacePoint {
                                        mem_footprint_mb: footprint,
                                        avg_nnz_per_row: avg,
                                        skew_coeff: skew,
                                        cross_row_sim: crs,
                                        avg_num_neigh: neigh,
                                        bw_scaled: bw,
                                        footprint_class: class,
                                    };
                                    specs.push(self.spec_for_point(point, index));
                                    index += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        specs
    }

    /// Builds the spec for an arbitrary lattice point (also used by the
    /// per-feature sweep binaries that refine single axes).
    pub fn spec_for_point(&self, point: FeatureSpacePoint, index: u64) -> MatrixSpec {
        let seed = child_seed(self.base_seed, index);
        let params = params_for_features(
            point.mem_footprint_mb,
            point.avg_nnz_per_row,
            point.skew_coeff,
            point.cross_row_sim,
            point.avg_num_neigh,
            point.bw_scaled,
            seed,
        );
        MatrixSpec { id: format!("m{index:05}"), point, params }
    }

    /// Total number of matrices this dataset will contain.
    pub fn len(&self) -> usize {
        3 * self.size.footprint_samples()
            * AVG_NNZ_VALUES.len()
            * SKEW_VALUES.len()
            * CROSS_ROW_SIM_VALUES.len()
            * AVG_NEIGH_VALUES.len()
            * BW_SCALED_VALUES.len()
    }

    /// `true` if the dataset holds no matrices (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every `stride`-th spec — the cheap way to run a representative
    /// subsample of the campaign.
    pub fn specs_subsampled(&self, stride: usize) -> Vec<MatrixSpec> {
        self.specs().into_iter().step_by(stride.max(1)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_sizes_match_the_paper() {
        let small = Dataset { size: DatasetSize::Small, ..Default::default() };
        let medium = Dataset::default();
        let large = Dataset { size: DatasetSize::Large, ..Default::default() };
        assert_eq!(small.len(), 3240); // "~3K"
        assert_eq!(medium.len(), 16200); // exactly the paper's 16200
        assert_eq!(large.len(), 25920); // "~27K"
        assert_eq!(medium.specs().len(), medium.len());
    }

    #[test]
    fn specs_are_deterministic_and_unique() {
        let d = Dataset { size: DatasetSize::Small, scale: 64.0, base_seed: 9 };
        let a = d.specs();
        let b = d.specs();
        assert_eq!(a, b);
        let mut ids: Vec<_> = a.iter().map(|s| s.id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), a.len());
        let mut seeds: Vec<_> = a.iter().map(|s| s.params.seed).collect();
        seeds.sort();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len());
    }

    #[test]
    fn footprints_are_scaled() {
        let d = Dataset { size: DatasetSize::Small, scale: 16.0, base_seed: 1 };
        for spec in d.specs() {
            assert!(spec.point.mem_footprint_mb <= 2048.0 / 16.0 + 1e-9);
            assert!(spec.point.mem_footprint_mb >= 4.0 / 16.0 / 2.0);
        }
    }

    #[test]
    fn subsample_strides() {
        let d = Dataset { size: DatasetSize::Small, scale: 64.0, base_seed: 1 };
        let sub = d.specs_subsampled(100);
        assert_eq!(sub.len(), 3240_usize.div_ceil(100));
        assert_eq!(sub[0].id, "m00000");
    }

    #[test]
    fn a_small_spec_materializes_with_requested_features() {
        let d = Dataset { size: DatasetSize::Small, scale: 64.0, base_seed: 5 };
        // Pick a cheap spec: smallest footprint class.
        let spec = d
            .specs()
            .into_iter()
            .find(|s| s.point.footprint_class == 0 && s.point.skew_coeff == 0.0)
            .unwrap();
        let m = spec.materialize().unwrap();
        let f = spmv_core::FeatureSet::extract(&m);
        let rel =
            (f.mem_footprint_mb - spec.point.mem_footprint_mb).abs() / spec.point.mem_footprint_mb;
        assert!(rel < 0.1, "footprint rel err {rel}");
    }
}
