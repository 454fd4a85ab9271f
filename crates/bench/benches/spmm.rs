//! Criterion micro-benchmarks of the batched multi-vector kernels:
//! one `spmm` against k independent `spmv` passes, for formats with a
//! panel kernel (CSR, ELL, SELL-C-σ) and one default-loop format (COO)
//! as the ~1.0× control.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spmv_formats::{build_format, FormatKind};
use spmv_gen::{GeneratorParams, RowDist};
use std::hint::black_box;

fn matrix() -> spmv_core::CsrMatrix {
    GeneratorParams {
        nr_rows: 40_000,
        nr_cols: 40_000,
        avg_nz_row: 16.0,
        std_nz_row: 3.0,
        distribution: RowDist::Normal,
        skew_coeff: 0.0,
        bw_scaled: 0.3,
        cross_row_sim: 0.5,
        avg_num_neigh: 0.95,
        seed: 0xBA7C4,
    }
    .generate()
    .expect("bench matrix generates")
}

fn bench_spmm(c: &mut Criterion) {
    let csr = matrix();
    let (rows, cols, nnz) = (csr.rows(), csr.cols(), csr.nnz());
    let kinds = [FormatKind::NaiveCsr, FormatKind::Ell, FormatKind::SellCSigma, FormatKind::Coo];
    for k in [4usize, 8] {
        let x: Vec<f64> = (0..cols * k).map(|i| 1.0 + (i % 5) as f64 * 0.25).collect();
        let mut y = vec![0.0; rows * k];

        let mut group = c.benchmark_group(format!("spmm/k{k}"));
        group.throughput(Throughput::Elements((2 * nnz * k) as u64));
        group.sample_size(10);
        for kind in kinds {
            let Ok(fmt) = build_format(kind, &csr) else { continue };
            group.bench_with_input(BenchmarkId::new("k_spmvs", fmt.name()), &fmt, |b, fmt| {
                b.iter(|| {
                    for j in 0..k {
                        fmt.spmv(
                            black_box(&x[j * cols..(j + 1) * cols]),
                            black_box(&mut y[j * rows..(j + 1) * rows]),
                        );
                    }
                })
            });
            group.bench_with_input(BenchmarkId::new("fused", fmt.name()), &fmt, |b, fmt| {
                b.iter(|| fmt.spmm(black_box(&x), k, black_box(&mut y)))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_spmm);
criterion_main!(benches);
