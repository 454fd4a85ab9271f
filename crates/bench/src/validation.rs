//! Shared logic of the validation experiment (Fig. 1 + Table IV):
//! every Table III matrix and its ±30 % "friends" are synthesized (at
//! the configured scale), summarized, and evaluated on every device;
//! the best format per matrix is kept, exactly as in §V-A.

use crate::paper::Ctx;
use spmv_analysis::{ape_best, mape_to_median};
use spmv_core::roofline::{csr_spmv_oi, Roofline};
use spmv_devices::{Campaign, MatrixSummary};
use spmv_gen::dataset::{FeatureSpacePoint, MatrixSpec};
use spmv_gen::validation::{crs_value, neigh_value, ValidationMatrix, VALIDATION_SUITE};
use std::collections::BTreeMap;

/// Outcome for one (device, validation matrix) pair.
#[derive(Debug, Clone)]
pub struct ValidationPoint {
    /// Device name.
    pub device: String,
    /// Validation matrix id (1-based, Table III).
    pub matrix_id: usize,
    /// Matrix name.
    pub name: &'static str,
    /// Best-format performance of the validation stand-in.
    pub gflops: f64,
    /// Best-format performance of each friend.
    pub friends_gflops: Vec<f64>,
    /// Memory-bandwidth roofline bound for this matrix on this device.
    pub roof_mem: f64,
    /// LLC roofline bound.
    pub roof_llc: f64,
}

fn spec_for(vm: &ValidationMatrix, params: spmv_gen::GeneratorParams, id: String) -> MatrixSpec {
    MatrixSpec {
        id,
        point: FeatureSpacePoint {
            mem_footprint_mb: vm.mem_footprint_mb,
            avg_nnz_per_row: vm.avg_nnz_per_row,
            skew_coeff: vm.skew_coeff,
            cross_row_sim: crs_value(vm.crs_class),
            avg_num_neigh: neigh_value(vm.neigh_class),
            bw_scaled: 0.3,
            footprint_class: 0,
        },
        params,
    }
}

/// Runs the full validation experiment; `friends` is the number of
/// artificial friends per matrix (the paper uses ~70).
pub fn run_validation(ctx: &Ctx, friends: usize) -> Vec<ValidationPoint> {
    let cfg = &ctx.cfg;
    let campaign = Campaign::new(cfg.scale);

    // Build all specs: index 0 = the validation stand-in, then friends.
    let mut all_specs: Vec<(usize, bool, MatrixSpec)> = Vec::new();
    for vm in &VALIDATION_SUITE {
        let standin =
            spec_for(vm, vm.standin_params(cfg.scale, cfg.seed), format!("v{:02}", vm.id));
        all_specs.push((vm.id, false, standin));
        for (k, fp) in vm.friend_params(friends, cfg.scale, cfg.seed).into_iter().enumerate() {
            all_specs.push((vm.id, true, spec_for(vm, fp, format!("v{:02}f{k:02}", vm.id))));
        }
    }

    // Summary and best format per device of every spec, in parallel.
    let evaluated = ctx.parallel_map(&all_specs, |(_, _, spec)| {
        let summary = MatrixSummary::from_spec(spec);
        let best = Campaign::best_per_matrix_device(&campaign.run_summary(&summary));
        (summary, best)
    });

    // Reduce to one point per (device, validation matrix).
    let mut out: BTreeMap<(String, usize), ValidationPoint> = BTreeMap::new();
    for ((vm_id, is_friend, _spec), (summary, best)) in all_specs.iter().zip(&evaluated) {
        for b in best {
            let vm = &VALIDATION_SUITE[vm_id - 1];
            let dev = campaign.devices.iter().find(|d| d.name == b.device).expect("device");
            let entry = out.entry((b.device.clone(), *vm_id)).or_insert_with(|| {
                // Roofline bounds use the paper's CSR footprint and the
                // device's measured bandwidths (Fig. 1 dashes).
                let f = &summary.features;
                let oi = csr_spmv_oi(f.rows, f.cols, f.nnz.max(1), 1.0);
                ValidationPoint {
                    device: b.device.clone(),
                    matrix_id: *vm_id,
                    name: vm.name,
                    gflops: 0.0,
                    friends_gflops: Vec::new(),
                    roof_mem: Roofline::new(f64::INFINITY, dev.mem_bw_gbs).attainable_gflops(oi),
                    roof_llc: Roofline::new(f64::INFINITY, dev.llc_bw_gbs).attainable_gflops(oi),
                }
            });
            if *is_friend {
                entry.friends_gflops.push(b.gflops);
            } else {
                entry.gflops = b.gflops;
            }
        }
    }
    out.into_values().collect()
}

/// A row of Table IV: `(device, MAPE %, APE-best %, matrices)`.
pub type MapeRow = (String, f64, f64, usize);

/// Table IV's numbers: per device, the validation matrices against the
/// median of their friends and against their closest friend, and the
/// two averages over the devices.
pub fn mape_rows(points: &[ValidationPoint]) -> (Vec<MapeRow>, f64, f64) {
    let mut pairs: BTreeMap<&str, Vec<(f64, Vec<f64>)>> = BTreeMap::new();
    for p in points.iter().filter(|p| p.gflops > 0.0 && !p.friends_gflops.is_empty()) {
        pairs.entry(&p.device).or_default().push((p.gflops, p.friends_gflops.clone()));
    }
    let row = |(device, p): (&str, Vec<(f64, Vec<f64>)>)| {
        let (m, b) = (mape_to_median(&p).unwrap_or(f64::NAN), ape_best(&p).unwrap_or(f64::NAN));
        (device.to_string(), m, b, p.len())
    };
    let rows: Vec<_> = pairs.into_iter().map(row).collect();
    let n = rows.len().max(1) as f64;
    let (ms, bs) = rows.iter().fold((0.0, 0.0), |(ms, bs), r| (ms + r.1, bs + r.2));
    (rows, ms / n, bs / n)
}
