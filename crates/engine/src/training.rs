//! Built-in selector training from campaign records.
//!
//! The engine's selector is a k-NN in the paper's five-feature space
//! (`spmv-analysis`); its training data is one device's campaign
//! records. For the default `Host` device those are **measured**: the
//! timed kernels of the calibration table committed in `spmv-devices`
//! (`spmv_devices::host`), loaded in about a millisecond. For a Table
//! II testbed they are a modeled campaign over the artificial dataset —
//! by default the Medium lattice the paper's main analysis uses,
//! subsampled so training stays in the hundreds of matrices — run with
//! the model's measurement-noise channel **off**: labels should encode
//! the deterministic performance landscape, not one noise draw.

use spmv_analysis::{fit_from_runs, FormatSelector, SelectorFeatures};
use spmv_devices::{host, Campaign, HostTable, ModelConfig, Record};
use spmv_gen::dataset::{Dataset, DatasetSize};
use spmv_parallel::ThreadPool;

/// How the built-in training campaign samples the artificial dataset.
/// Applies to the modeled Table II testbeds only: the records of the
/// measured `Host` device are the committed calibration table, whatever
/// these fields say.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingPlan {
    /// Which lattice density to sweep (default: Medium, as in §V-E).
    pub size: DatasetSize,
    /// Keep every `stride`-th matrix (default 45 → 360 of the 16200).
    pub stride: usize,
    /// Base RNG seed of the training dataset.
    pub base_seed: u64,
}

impl Default for TrainingPlan {
    fn default() -> Self {
        Self { size: DatasetSize::Medium, stride: 45, base_seed: 0x5EED_CAFE }
    }
}

impl TrainingPlan {
    /// The training records of one device, one per (matrix, format)
    /// pair: for `Host` the committed calibration table's timed kernels
    /// (no matrix is generated, `scale` and `pool` are not used, nothing
    /// is modeled); for a Table II testbed the noise-free modeled
    /// campaign over this plan's lattice, run on `pool`.
    pub fn records(&self, device: &str, scale: f64, pool: &ThreadPool) -> Vec<Record> {
        if device == host::NAME {
            return HostTable::committed().records();
        }
        let specs = Dataset { size: self.size, scale, base_seed: self.base_seed }
            .specs_subsampled(self.stride);
        Campaign::new(scale)
            .with_devices(&[device])
            .with_model_config(ModelConfig { noise: false, ..ModelConfig::default() })
            .run_specs(pool, &specs)
    }
}

/// A successful campaign record as selector training reads it,
/// borrowed.
struct RecordRun<'a>(&'a Record);

impl spmv_analysis::Run for RecordRun<'_> {
    fn matrix_id(&self) -> &str {
        &self.0.matrix_id
    }
    fn features(&self) -> SelectorFeatures {
        SelectorFeatures {
            footprint_mb: self.0.footprint_mb,
            avg_nnz_per_row: self.0.avg_nnz,
            skew: self.0.skew,
            cross_row_sim: self.0.crs,
            avg_num_neigh: self.0.neigh,
        }
    }
    fn format(&self) -> &str {
        &self.0.format
    }
    fn gflops(&self) -> f64 {
        self.0.gflops
    }
}

/// Trains a selector directly from campaign records (failed runs
/// dropped): reduce to the best format per matrix, then fit a k-NN on
/// those labels.
pub fn selector_from_records(records: &[Record], k: usize) -> FormatSelector {
    let runs: Vec<RecordRun<'_>> =
        records.iter().filter(|r| r.failed.is_none()).map(RecordRun).collect();
    fit_from_runs(&runs, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_plan() -> TrainingPlan {
        TrainingPlan { size: DatasetSize::Small, stride: 120, base_seed: 7 }
    }

    #[test]
    fn training_records_are_noise_free_and_device_filtered() {
        let pool = ThreadPool::new(2);
        let recs = quick_plan().records("INTEL-XEON", 512.0, &pool);
        assert!(!recs.is_empty());
        assert!(recs.iter().all(|r| r.device == "INTEL-XEON"));
        // Noise-free: re-running reproduces bit-identical records.
        let again = quick_plan().records("INTEL-XEON", 512.0, &pool);
        assert_eq!(recs, again);
    }

    #[test]
    fn sell_chunk_widths_are_distinct_training_observations() {
        let pool = ThreadPool::new(2);
        let recs = quick_plan().records("AMD-EPYC-24", 512.0, &pool);
        let formats: std::collections::BTreeSet<_> =
            recs.iter().filter(|r| r.failed.is_none()).map(|r| r.format.as_str()).collect();
        for name in ["SELL-C-s", "SELL-4-s", "SELL-16-s"] {
            assert!(formats.contains(name), "campaign must observe {name}, got {formats:?}");
        }
        // Labeling keeps them apart too — the selector can learn a chunk
        // width, not just "some SELL".
        for name in ["SELL-4-s", "SELL-16-s"] {
            let only: Vec<Record> = recs.iter().filter(|r| r.format == name).cloned().collect();
            let labels = selector_from_records(&only, 1).to_portable();
            assert!(labels.lines().any(|l| l.ends_with(name)), "{name} must survive labeling");
        }
    }

    #[test]
    fn host_records_are_the_committed_table_whatever_the_plan_says() {
        let pool = ThreadPool::new(2);
        let recs = TrainingPlan::default().records(host::NAME, 16.0, &pool);
        assert_eq!(recs, HostTable::committed().records());
        // Measured records have no lattice to sample and nothing to scale.
        assert_eq!(quick_plan().records(host::NAME, 16384.0, &pool), recs);
        let ran = pool.stats();
        assert_eq!((ran.high_tasks, ran.low_tasks), (0, 0), "the table is loaded, not swept");
        assert!(recs.iter().all(|r| r.device == host::NAME && r.failed.is_none()));
    }

    #[test]
    fn selector_from_records_learns_one_label_per_matrix() {
        let pool = ThreadPool::new(2);
        let recs = quick_plan().records("AMD-EPYC-24", 512.0, &pool);
        let matrices: std::collections::BTreeSet<_> =
            recs.iter().map(|r| r.matrix_id.as_str()).collect();
        let sel = selector_from_records(&recs, 1);
        assert_eq!(sel.len(), matrices.len());
        let usable = recs.iter().filter(|r| r.failed.is_none()).count();
        assert!(usable > sel.len(), "several formats per matrix feed one label");
    }
}
