//! End-to-end pipeline tests spanning every crate: generate → extract
//! features → convert formats → execute kernels → summarize → model →
//! analyze.

use spmv_suite::analysis::{BoxStats, WinTally};
use spmv_suite::core::{vec_mismatch, FeatureSet};
use spmv_suite::devices::{Campaign, MatrixSummary};
use spmv_suite::formats::{build_format, FormatKind};
use spmv_suite::gen::dataset::{Dataset, DatasetSize};
use spmv_suite::gen::{GeneratorParams, RowDist};
use spmv_suite::parallel::ThreadPool;
use std::collections::BTreeMap;

fn medium_matrix(seed: u64) -> GeneratorParams {
    GeneratorParams {
        nr_rows: 20_000,
        nr_cols: 20_000,
        avg_nz_row: 15.0,
        std_nz_row: 3.0,
        distribution: RowDist::Normal,
        skew_coeff: 50.0,
        bw_scaled: 0.3,
        cross_row_sim: 0.4,
        avg_num_neigh: 0.8,
        seed,
    }
}

#[test]
fn generate_convert_execute_analyze() {
    let csr = medium_matrix(11).generate().unwrap();
    csr.validate().unwrap();
    let f = FeatureSet::extract(&csr);
    assert!((f.avg_nnz_per_row - 15.0).abs() < 1.0);

    // Every format that accepts the matrix must agree with the CSR
    // reference, sequentially and in parallel.
    let x: Vec<f64> = (0..csr.cols()).map(|i| (i % 13) as f64 - 6.0).collect();
    let reference = csr.spmv(&x);
    let pool = ThreadPool::new(4);
    let mut formats_run = 0;
    for kind in FormatKind::ALL {
        let Ok(fmt) = build_format(kind, &csr) else { continue };
        let mut y = vec![0.0; csr.rows()];
        fmt.spmv(&x, &mut y);
        assert_eq!(vec_mismatch(&y, &reference, 1e-9, 1e-9), None, "{} seq", fmt.name());
        let mut y2 = vec![7.0; csr.rows()];
        fmt.spmv_parallel(&pool, &x, &mut y2);
        assert_eq!(vec_mismatch(&y2, &reference, 1e-9, 1e-9), None, "{} par", fmt.name());
        formats_run += 1;
    }
    assert!(formats_run >= 9, "only {formats_run} formats ran");

    // The summary derived from the real matrix feeds the device models.
    let summary = MatrixSummary::from_csr("pipeline", 11, &csr);
    let campaign = Campaign::new(16.0);
    let records = campaign.run_summary(&summary);
    assert!(records.iter().filter(|r| r.failed.is_none()).count() > 20);

    // Analysis utilities digest the records.
    let gflops: Vec<f64> =
        records.iter().filter(|r| r.failed.is_none()).map(|r| r.gflops).collect();
    let stats = BoxStats::from_values(&gflops).unwrap();
    assert!(stats.median > 0.0 && stats.max >= stats.median);

    let mut tally = WinTally::new();
    let scores: BTreeMap<String, f64> = records
        .iter()
        .filter(|r| r.failed.is_none() && r.device == "AMD-EPYC-24")
        .map(|r| (r.format.clone(), r.gflops))
        .collect();
    tally.record(&scores);
    assert_eq!(tally.contests(), 1);
}

#[test]
fn campaign_full_stack_is_deterministic() {
    let pool = ThreadPool::new(3);
    let specs =
        Dataset { size: DatasetSize::Small, scale: 64.0, base_seed: 9 }.specs_subsampled(97);
    let campaign = Campaign::new(64.0);
    let a = campaign.run_specs(&pool, &specs);
    let b = campaign.run_specs(&pool, &specs);
    assert_eq!(a, b, "campaign must be bit-identical under a fixed seed");
    // And a different base seed genuinely changes results.
    let specs2 =
        Dataset { size: DatasetSize::Small, scale: 64.0, base_seed: 10 }.specs_subsampled(97);
    let c = campaign.run_specs(&pool, &specs2);
    assert_ne!(a, c);
}

#[test]
fn best_format_reduction_agrees_with_exhaustive_search() {
    let pool = ThreadPool::new(2);
    let specs =
        Dataset { size: DatasetSize::Small, scale: 64.0, base_seed: 5 }.specs_subsampled(211);
    let campaign = Campaign::new(64.0).with_devices(&["Tesla-V100", "INTEL-XEON"]);
    let records = campaign.run_specs(&pool, &specs);
    let best = Campaign::best_per_matrix_device(&records);
    for b in &best {
        let max = records
            .iter()
            .filter(|r| r.matrix_id == b.matrix_id && r.device == b.device && r.failed.is_none())
            .map(|r| r.gflops)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(b.gflops, max, "{}/{}", b.matrix_id, b.device);
    }
}

#[test]
fn summaries_from_spec_and_matrix_drive_the_model_consistently() {
    // from_spec (analytic campaign path) and from_csr (materialized
    // path) must give the model inputs that agree on the quantities the
    // model is most sensitive to.
    let d = Dataset { size: DatasetSize::Small, scale: 64.0, base_seed: 3 };
    let spec = d
        .specs()
        .into_iter()
        .find(|s| s.point.footprint_class == 0 && s.point.skew_coeff == 100.0)
        .unwrap();
    let fast = MatrixSummary::from_spec(&spec);
    let full = MatrixSummary::from_csr(&spec.id, spec.params.seed, &spec.materialize().unwrap());
    assert_eq!(fast.features.nnz, full.features.nnz);
    let rel = (fast.features.mem_footprint_mb - full.features.mem_footprint_mb).abs()
        / full.features.mem_footprint_mb;
    assert!(rel < 0.02, "footprint rel err {rel}");
    assert!((fast.features.skew_coeff - full.features.skew_coeff).abs() < 1e-9);
}
