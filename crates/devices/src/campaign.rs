//! The campaign runner: sweep (device × matrix × format), exactly the
//! structure of the paper's experiments ("In each configuration
//! (testbed/matrix/format) we ran 128 iterations of double precision
//! SpMV", §IV), with the measurement replaced by the device model.

use crate::model::{estimate_with, ModelConfig, ModelFailure};
use crate::specs::{all_devices, DeviceSpec};
use crate::summary::MatrixSummary;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use spmv_gen::dataset::MatrixSpec;
use spmv_parallel::ThreadPool;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One row of campaign output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Matrix identifier.
    pub matrix_id: String,
    /// Device name.
    pub device: String,
    /// Format name.
    pub format: String,
    /// Predicted GFLOP/s (0.0 when failed).
    pub gflops: f64,
    /// Predicted power (W).
    pub watts: f64,
    /// Failure reason, if the combination refused to run.
    pub failed: Option<String>,
    /// Measured/derived matrix features carried along for grouping.
    pub footprint_mb: f64,
    /// Average nonzeros per row.
    pub avg_nnz: f64,
    /// Skew coefficient.
    pub skew: f64,
    /// Cross-row similarity.
    pub crs: f64,
    /// Average number of neighbors.
    pub neigh: f64,
    /// Number of nonzeros.
    pub nnz: usize,
}

impl Record {
    /// GFLOPs per Watt (0 for failed runs).
    pub fn gflops_per_watt(&self) -> f64 {
        if self.watts > 0.0 {
            self.gflops / self.watts
        } else {
            0.0
        }
    }
}

/// A configured sweep over a set of devices.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The devices to evaluate (already scaled).
    pub devices: Vec<DeviceSpec>,
    /// Model mechanism configuration used for every estimate (defaults
    /// to all mechanisms on, including the measurement-noise channel).
    pub model_config: ModelConfig,
}

impl Campaign {
    /// All nine testbeds, scaled by `scale` (match the dataset scale).
    pub fn new(scale: f64) -> Self {
        Self {
            devices: all_devices().into_iter().map(|d| d.scaled(scale)).collect(),
            model_config: ModelConfig::default(),
        }
    }

    /// Restrict to devices whose names are in `names`.
    pub fn with_devices(mut self, names: &[&str]) -> Self {
        self.devices.retain(|d| names.contains(&d.name));
        self
    }

    /// Replaces the model mechanism configuration — e.g. disable the
    /// noise channel so the records label formats by the deterministic
    /// model only (what selector training wants).
    pub fn with_model_config(mut self, cfg: ModelConfig) -> Self {
        self.model_config = cfg;
        self
    }

    /// Evaluates every available format of every device on one summary.
    pub fn run_summary(&self, s: &MatrixSummary) -> Vec<Record> {
        let mut out = Vec::new();
        for dev in &self.devices {
            for &kind in &dev.formats {
                let base = Record {
                    matrix_id: s.id.clone(),
                    device: dev.name.to_string(),
                    format: kind.name().to_string(),
                    gflops: 0.0,
                    watts: 0.0,
                    failed: None,
                    footprint_mb: s.features.mem_footprint_mb,
                    avg_nnz: s.features.avg_nnz_per_row,
                    skew: s.features.skew_coeff,
                    crs: s.features.cross_row_sim,
                    neigh: s.features.avg_num_neigh,
                    nnz: s.features.nnz,
                };
                match estimate_with(&self.model_config, dev, kind, s) {
                    Ok(e) => out.push(Record { gflops: e.gflops, watts: e.watts, ..base }),
                    Err(ModelFailure::FormatUnavailable) => {}
                    Err(e) => out.push(Record { failed: Some(e.to_string()), ..base }),
                }
            }
        }
        out
    }

    /// Runs the sweep over dataset specs, building summaries in
    /// parallel on the given pool; records come back in spec order.
    /// Each worker claims one spec at a time, last spec first: datasets
    /// are sorted by footprint, so contiguous chunks would leave the
    /// heavy third of a sweep to one worker, and front-to-back claims
    /// its heaviest matrix to the end of the run.
    pub fn run_specs(&self, pool: &ThreadPool, specs: &[MatrixSpec]) -> Vec<Record> {
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Vec<Record>>> = Mutex::new(vec![Vec::new(); specs.len()]);
        pool.parallel_chunks(pool.threads(), |_| loop {
            let claimed = next.fetch_add(1, Ordering::Relaxed);
            let Some(i) = specs.len().checked_sub(claimed + 1) else { break };
            let recs = self.run_summary(&MatrixSummary::from_spec(&specs[i]));
            results.lock()[i] = recs;
        });
        results.into_inner().into_iter().flatten().collect()
    }

    /// Reduces records to the best-performing format per
    /// (matrix, device) — the paper "presents the best result achieved
    /// among tested formats for each matrix".
    pub fn best_per_matrix_device(records: &[Record]) -> Vec<Record> {
        let mut best: BTreeMap<(String, String), Record> = BTreeMap::new();
        for r in records {
            if r.failed.is_some() {
                continue;
            }
            let key = (r.matrix_id.clone(), r.device.clone());
            match best.get(&key) {
                Some(b) if b.gflops >= r.gflops => {}
                _ => {
                    best.insert(key, r.clone());
                }
            }
        }
        best.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_gen::dataset::{Dataset, DatasetSize};

    fn tiny_specs() -> Vec<MatrixSpec> {
        Dataset { size: DatasetSize::Small, scale: 512.0, base_seed: 4 }.specs_subsampled(500)
    }

    #[test]
    fn sweep_covers_devices_and_formats() {
        let pool = ThreadPool::new(4);
        let campaign = Campaign::new(512.0);
        let specs = tiny_specs();
        let records = campaign.run_specs(&pool, &specs);
        assert!(!records.is_empty());
        let devices: std::collections::BTreeSet<_> =
            records.iter().map(|r| r.device.clone()).collect();
        assert_eq!(devices.len(), 9, "all devices present: {devices:?}");
        // Each (matrix, device) appears once per available format at most.
        let a100: Vec<_> = records
            .iter()
            .filter(|r| r.device == "Tesla-A100" && r.matrix_id == specs[0].id)
            .collect();
        assert_eq!(a100.len(), 3); // NaiveCsr, Coo, MergeCsr
    }

    #[test]
    fn best_reduction_picks_max_gflops() {
        let pool = ThreadPool::new(2);
        let campaign = Campaign::new(512.0).with_devices(&["AMD-EPYC-24"]);
        let specs = tiny_specs();
        let records = campaign.run_specs(&pool, &specs);
        let best = Campaign::best_per_matrix_device(&records);
        assert_eq!(best.len(), specs.len());
        for b in &best {
            let all: Vec<_> = records
                .iter()
                .filter(|r| r.matrix_id == b.matrix_id && r.failed.is_none())
                .collect();
            assert!(all.iter().all(|r| r.gflops <= b.gflops + 1e-12));
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let pool = ThreadPool::new(3);
        let campaign = Campaign::new(512.0).with_devices(&["Tesla-V100", "Alveo-U280"]);
        let specs = tiny_specs();
        let a = campaign.run_specs(&pool, &specs);
        let b = campaign.run_specs(&pool, &specs);
        assert_eq!(a, b);
    }

    #[test]
    fn fpga_failures_are_recorded_not_dropped() {
        let pool = ThreadPool::new(2);
        let campaign = Campaign::new(16.0).with_devices(&["Alveo-U280"]);
        // Large sparse matrices at scale 16 overflow the scaled HBM.
        let specs = Dataset { size: DatasetSize::Small, scale: 16.0, base_seed: 4 }
            .specs()
            .into_iter()
            .filter(|s| s.point.footprint_class == 2 && s.point.avg_nnz_per_row <= 5.0)
            .take(3)
            .collect::<Vec<_>>();
        let records = campaign.run_specs(&pool, &specs);
        assert!(
            records.iter().any(|r| r.failed.is_some()),
            "expected at least one HBM capacity failure"
        );
    }

    #[test]
    fn with_devices_filters() {
        let c = Campaign::new(1.0).with_devices(&["Tesla-A100"]);
        assert_eq!(c.devices.len(), 1);
        assert_eq!(c.devices[0].name, "Tesla-A100");
    }

    #[test]
    fn noise_free_campaign_differs_but_stays_close() {
        let pool = ThreadPool::new(2);
        let campaign = Campaign::new(512.0).with_devices(&["INTEL-XEON"]);
        let quiet =
            campaign.clone().with_model_config(ModelConfig { noise: false, ..Default::default() });
        let specs = tiny_specs();
        let noisy_recs = campaign.run_specs(&pool, &specs);
        let quiet_recs = quiet.run_specs(&pool, &specs);
        assert_eq!(noisy_recs.len(), quiet_recs.len());
        let mut any_diff = false;
        for (a, b) in noisy_recs.iter().zip(&quiet_recs) {
            assert_eq!(a.matrix_id, b.matrix_id);
            assert_eq!(a.format, b.format);
            if a.failed.is_none() {
                // The noise channel is multiplicative and bounded.
                let ratio = a.gflops / b.gflops;
                assert!((0.4..2.5).contains(&ratio), "ratio {ratio}");
                any_diff |= (ratio - 1.0).abs() > 1e-12;
            }
        }
        assert!(any_diff, "noise channel must actually perturb estimates");
    }
}
