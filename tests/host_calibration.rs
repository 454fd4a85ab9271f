//! Selection regressions of the host-calibrated default engine: the
//! mistakes the modeled selector made on the reference host, as the
//! repo benchmark's traces found them, on the benchmark's own operand
//! classes. These read the committed calibration table through
//! `Engine::new(EngineConfig::default())`; no kernel is timed here.

use spmv_suite::core::{CsrMatrix, FeatureSet};
use spmv_suite::devices::HostTable;
use spmv_suite::engine::{Engine, EngineConfig};
use spmv_suite::formats::FormatKind;
use spmv_suite::gen::dataset::{Dataset, DatasetSize};
use spmv_suite::gen::generator::params_for_features;

fn engine() -> Engine {
    Engine::new(EngineConfig { threads: 1, ..EngineConfig::default() }).expect("the table loads")
}

/// A benchmark feature class (`benchmark/src/inputs.rs`) at `mb` MB.
fn class(avg: f64, skew: f64, crs: f64, neigh: f64, bw: f64, mb: f64, seed: u64) -> CsrMatrix {
    params_for_features(mb, avg, skew, crs, neigh, bw, seed).generate().expect("satisfiable")
}

/// What the engine serves `csr` as: it selects from the estimate.
fn selected(engine: &Engine, csr: &CsrMatrix) -> FormatKind {
    engine.select(&FeatureSet::estimate(csr))
}

/// SparseX served the 32 MB `very-long` matrix at 5 045 µs a call where
/// SELL-C-s takes 1 268 µs. SparseX is not even a column of the table:
/// it labeled no matrix of the sweep.
#[test]
fn very_long_rows_are_not_served_by_sparsex() {
    let engine = engine();
    assert!(!HostTable::committed().formats.contains(&FormatKind::SparseX));
    for (mb, seed) in [(1.0, 3), (4.0, 4), (32.0, 5)] {
        let kind = selected(&engine, &class(500.0, 0.0, 0.5, 0.95, 0.3, mb, seed));
        assert_ne!(kind, FormatKind::SparseX, "{mb} MB");
        assert_ne!(kind, FormatKind::NaiveCsr, "{mb} MB: the vector unit pays on 500-nnz rows");
    }
}

/// The `hot-small` matrices of 0.7 KB cost 26–71 B/nnz in the SELL
/// formats (CSR: 12.3) and a fraction of Naive-CSR's rate.
#[test]
fn sub_kilobyte_matrices_are_not_served_by_sell() {
    let engine = engine();
    let specs = Dataset { size: DatasetSize::Small, scale: 16384.0, base_seed: 9 }
        .specs_subsampled(25)
        .into_iter()
        .filter(|s| s.point.footprint_class == 0);
    let mut checked = 0;
    for spec in specs {
        let csr = spec.materialize().expect("dataset matrices materialize");
        if csr.mem_footprint_mb() * 1024.0 >= 1.0 {
            continue; // long rows make even one of them a larger matrix
        }
        let kind = selected(&engine, &csr);
        assert_eq!(kind.sell_c(), None, "{} ({:?}) got {kind:?}", spec.id, spec.point);
        checked += 1;
    }
    assert!(checked >= 15, "only {checked} matrices under 1 KB");
}

/// SELL-16-s takes 4.6 ms (27 ns/nnz) to convert a 2 MB `very-skewed`
/// operand — its one long row pads sixteen lanes — and then streams
/// three times the bytes. (At 32 MB the long row is a small share of
/// the matrix and SELL-16-s is within 2% of the fastest format.)
#[test]
fn cache_sized_very_skewed_operands_are_not_served_by_sell_16() {
    let engine = engine();
    for (mb, seed) in [(0.5, 11), (1.0, 12), (2.0, 13), (4.0, 14)] {
        let kind = selected(&engine, &class(10.0, 10000.0, 0.5, 0.95, 0.3, mb, seed));
        assert_ne!(kind, FormatKind::SellC16, "{mb} MB");
    }
}
