//! Quickstart: generate an artificial sparse matrix from the paper's
//! five features, run double-precision SpMV through several storage
//! formats (sequential and parallel), verify they agree, and ask the
//! calibrated device models what this matrix would achieve on real
//! hardware.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use spmv_suite::core::{vec_mismatch, FeatureSet};
use spmv_suite::devices::{all_devices, estimate, MatrixSummary};
use spmv_suite::formats::{build_format, FormatKind};
use spmv_suite::gen::{GeneratorParams, RowDist};
use spmv_suite::parallel::ThreadPool;

fn main() {
    // 1. Describe a matrix by the paper's features (§III-A): a medium
    //    8 MB matrix with 20 nonzeros per row, mild skew, and moderate
    //    regularity.
    let params = GeneratorParams {
        nr_rows: 35_000,
        nr_cols: 35_000,
        avg_nz_row: 20.0,
        std_nz_row: 4.0,
        distribution: RowDist::Normal,
        skew_coeff: 100.0,
        bw_scaled: 0.3,
        cross_row_sim: 0.5,
        avg_num_neigh: 0.95,
        seed: 42,
    };
    let csr = params.generate().expect("valid generator parameters");

    // 2. Extract the five features back out — the generator hits its
    //    targets within tight tolerances.
    let f = FeatureSet::extract(&csr);
    println!("generated {} x {} matrix, {} nonzeros", csr.rows(), csr.cols(), csr.nnz());
    println!(
        "features: footprint {:.2} MB | avg nnz/row {:.1} | skew {:.0} | crs {:.2} | neigh {:.2}\n",
        f.mem_footprint_mb, f.avg_nnz_per_row, f.skew_coeff, f.cross_row_sim, f.avg_num_neigh
    );

    // 3. Run the kernel through a few formats and check correctness.
    //    The figure-set formats (COO, SparseX, BCSR, DIA) exist for the
    //    modeled devices' figures: their "par" column runs the
    //    sequential kernel, as the engine never serves them.
    let x: Vec<f64> = (0..csr.cols()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let reference = csr.spmv(&x);
    let pool = ThreadPool::with_all_cores();

    println!("{:<16} {:>12} {:>10} {:>12} {:>12}", "format", "bytes", "pad", "seq ms", "par ms");
    for kind in [
        FormatKind::NaiveCsr,
        FormatKind::VectorizedCsr,
        FormatKind::Coo,
        FormatKind::Hyb,
        FormatKind::SellCSigma,
        FormatKind::MergeCsr,
        FormatKind::Csr5,
        FormatKind::SparseX,
        FormatKind::Bcsr,
        FormatKind::Dia, // refuses scattered matrices like this one — shown on purpose
    ] {
        let fmt = match build_format(kind, &csr) {
            Ok(f) => f,
            Err(e) => {
                println!("{:<16} refused: {e}", kind.name());
                continue;
            }
        };
        let mut y = vec![0.0; csr.rows()];

        let t0 = std::time::Instant::now();
        fmt.spmv(&x, &mut y);
        let seq = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(vec_mismatch(&y, &reference, 1e-9, 1e-12), None, "{} wrong", fmt.name());

        let t0 = std::time::Instant::now();
        fmt.spmv_parallel(&pool, &x, &mut y);
        let par = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(vec_mismatch(&y, &reference, 1e-9, 1e-12), None, "{} par wrong", fmt.name());

        println!(
            "{:<16} {:>12} {:>10.2} {:>12.3} {:>12.3}",
            fmt.name(),
            fmt.bytes(),
            fmt.padding_ratio(),
            seq,
            par
        );
    }

    // 4. What would the nine testbeds of the paper do with this matrix?
    println!("\npredicted best-format performance on the paper's testbeds:");
    println!("{:<14} {:>10} {:>10} {:>10}", "device", "GFLOP/s", "W", "GF/W");
    let summary = MatrixSummary::from_csr("quickstart", params.seed, &csr);
    for dev in all_devices() {
        let best = dev
            .formats
            .iter()
            .filter_map(|&k| estimate(&dev, k, &summary).ok())
            .max_by(|a, b| a.gflops.total_cmp(&b.gflops));
        match best {
            Some(e) => println!(
                "{:<14} {:>10.1} {:>10.1} {:>10.2}",
                dev.name,
                e.gflops,
                e.watts,
                e.gflops_per_watt()
            ),
            None => println!("{:<14} refuses this matrix", dev.name),
        }
    }
}
