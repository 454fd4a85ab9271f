//! Seeded inputs of the workloads. The program under test receives only
//! what these functions return; the same `--seed` returns the same
//! matrices and vectors.

use crate::schedule::uniform;
use spmv_core::CsrMatrix;
use spmv_gen::dataset::{Dataset, DatasetSize};
use spmv_gen::generator::params_for_features;
use spmv_gen::rng::child_seed;

/// A matrix and the id it is served under.
pub struct Named {
    pub id: String,
    pub csr: CsrMatrix,
}

/// One paper feature class: the structural regimes the format ranking
/// depends on (row length, imbalance, regularity, bandwidth).
pub struct Class {
    pub name: &'static str,
    avg_nnz: f64,
    skew: f64,
    cross_row_sim: f64,
    num_neigh: f64,
    bw_scaled: f64,
}

const fn class(
    name: &'static str,
    avg_nnz: f64,
    skew: f64,
    cross_row_sim: f64,
    num_neigh: f64,
    bw_scaled: f64,
) -> Class {
    Class { name, avg_nnz, skew, cross_row_sim, num_neigh, bw_scaled }
}

pub const CLASSES: [Class; 8] = [
    class("short-regular", 5.0, 0.0, 0.95, 1.9, 0.3),
    class("mid-regular", 20.0, 0.0, 0.95, 1.9, 0.3),
    class("long-rows", 100.0, 0.0, 0.5, 0.95, 0.3),
    class("very-long", 500.0, 0.0, 0.5, 0.95, 0.3),
    class("skewed", 20.0, 1000.0, 0.5, 0.95, 0.3),
    class("very-skewed", 10.0, 10000.0, 0.5, 0.95, 0.3),
    class("irregular", 10.0, 0.0, 0.05, 0.05, 0.6),
    class("banded", 20.0, 0.0, 0.5, 1.9, 0.05),
];

/// CSR footprint of every `hot-large` matrix: 8× the per-core L2 of the
/// reference host, so kernels stream from beyond L2.
pub const HOT_LARGE_MB: f64 = 32.0;

/// Footprints of the `cold-*` matrices, per class.
pub const COLD_MB: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

/// Generates `(class, footprint)` matrices on all cores (generation is
/// single-threaded per matrix and dominates input time).
fn generate(specs: Vec<(String, &'static Class, f64, u64)>) -> Vec<Named> {
    let threads = crate::host::nproc();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut out: Vec<(usize, Named)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some((id, c, mb, seed)) = specs.get(i) else { return mine };
                        let csr = params_for_features(
                            *mb,
                            c.avg_nnz,
                            c.skew,
                            c.cross_row_sim,
                            c.num_neigh,
                            c.bw_scaled,
                            *seed,
                        )
                        .generate()
                        .expect("class parameters are satisfiable");
                        mine.push((i, Named { id: id.clone(), csr }));
                    }
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("generator thread")).collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, m)| m).collect()
}

/// The `hot-large` set: one 32 MB matrix per feature class.
pub fn hot_large_set(seed: u64) -> Vec<Named> {
    generate(
        CLASSES
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.to_string(), c, HOT_LARGE_MB, child_seed(seed, i as u64)))
            .collect(),
    )
}

/// The `cold-*` operands: the 8 classes × {0.5, 1, 2, 4} MB. They are
/// re-admitted under never-seen ids, so `id` here is only a label.
pub fn cold_set(seed: u64) -> Vec<Named> {
    let mut specs = Vec::new();
    for (i, c) in CLASSES.iter().enumerate() {
        for (j, &mb) in COLD_MB.iter().enumerate() {
            let n = (100 + i * COLD_MB.len() + j) as u64;
            specs.push((format!("{}-{mb}mb", c.name), c, mb, child_seed(seed, n)));
        }
    }
    generate(specs)
}

/// The hot small set: the Small-dataset subsample `stride 25, scale
/// 16384` — 130 matrices of at most ~1k rows that together fit in L2,
/// so serving them costs front door, not kernel.
pub fn small_set(seed: u64) -> Vec<Named> {
    Dataset { size: DatasetSize::Small, scale: 16384.0, base_seed: child_seed(seed, 7) }
        .specs_subsampled(25)
        .into_iter()
        .map(|s| Named { csr: s.materialize().expect("dataset matrices materialize"), id: s.id })
        .collect()
}

/// A fixed dense operand of length `n` with mixed signs and magnitudes.
pub fn vector(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 29 + 3) % 19) as f64 - 9.0 + 0.125 * ((i % 7) as f64)).collect()
}

/// A matrix set ready to be served: the matrices, the operand vector
/// they share (each multiplies its `cols()`-prefix) and the reference
/// answers `A·x`, computed by the CSR reference kernel before any timing
/// starts.
pub struct MatrixSet {
    pub mats: Vec<Named>,
    x: Vec<f64>,
    pub want: Vec<Vec<f64>>,
    pub max_rows: usize,
}

impl MatrixSet {
    pub fn new(mats: Vec<Named>) -> Self {
        let x = vector(mats.iter().map(|m| m.csr.cols()).max().unwrap_or(0));
        let want = mats.iter().map(|m| m.csr.spmv(&x[..m.csr.cols()])).collect();
        let max_rows = mats.iter().map(|m| m.csr.rows()).max().unwrap_or(0);
        MatrixSet { mats, x, want, max_rows }
    }

    pub fn x(&self, m: &CsrMatrix) -> &[f64] {
        &self.x[..m.cols()]
    }

    /// Matrices paired with their reference answers.
    pub fn iter(&self) -> impl Iterator<Item = (&Named, &Vec<f64>)> {
        self.mats.iter().zip(&self.want)
    }
}

/// Seeded right-hand side number `k` in `[0.5, 1.5)`.
pub fn rhs(n: usize, seed: u64, k: u64) -> Vec<f64> {
    let stream = child_seed(seed, 1000 + k);
    (0..n as u64).map(|i| 0.5 + uniform(stream, i)).collect()
}

/// 5-point stencil on an `n × n` grid with central-difference
/// convection `(p, q)`: `(0, 0)` is the SPD Poisson matrix CG needs,
/// anything else a nonsymmetric, diagonally dominant system for
/// BiCGStab. `|p|, |q| < 1` keeps the off-diagonals negative.
pub fn stencil_2d(n: usize, p: f64, q: f64) -> CsrMatrix {
    let dim = n * n;
    let mut t: Vec<(usize, usize, f64)> = Vec::with_capacity(5 * dim);
    for i in 0..n {
        for j in 0..n {
            let r = i * n + j;
            if i > 0 {
                t.push((r, r - n, -1.0 - q));
            }
            if j > 0 {
                t.push((r, r - 1, -1.0 - p));
            }
            t.push((r, r, 4.0));
            if j + 1 < n {
                t.push((r, r + 1, -1.0 + p));
            }
            if i + 1 < n {
                t.push((r, r + n, -1.0 + q));
            }
        }
    }
    CsrMatrix::from_triplets(dim, dim, &t).expect("stencil is a valid matrix")
}

/// Convection of the solver probe's nonsymmetric system. Fixed, not seeded:
/// BiCGStab's iteration count swings by tens of percent with it, and a
/// seed must not decide how much work a run is (the seed draws the
/// right-hand sides, which move the count by a percent).
pub const CONVECTION: (f64, f64) = (0.4, 0.2);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a = small_set(1);
        let b = small_set(1);
        let c = small_set(2);
        assert_eq!(a.len(), 130);
        assert!(a.iter().zip(&b).all(|(x, y)| x.id == y.id && x.csr == y.csr));
        assert!(a.iter().zip(&c).any(|(x, y)| x.csr != y.csr));
        assert!(a.iter().all(|m| m.csr.rows() <= 1100), "small set stays L2-sized");
        assert_eq!(rhs(64, 1, 0), rhs(64, 1, 0));
        assert_ne!(rhs(64, 1, 0), rhs(64, 1, 1));
        assert_ne!(rhs(64, 1, 0), rhs(64, 2, 0));
    }

    #[test]
    fn cold_set_covers_every_class_and_size() {
        let set = cold_set(1);
        assert_eq!(set.len(), CLASSES.len() * COLD_MB.len());
        for (m, want_mb) in set.iter().zip(COLD_MB.iter().cycle()) {
            let mb = m.csr.mem_footprint_mb();
            assert!((mb / want_mb - 1.0).abs() < 0.25, "{} is {mb} MB", m.id);
        }
        let mut ids: Vec<_> = set.iter().map(|m| m.id.as_str()).collect();
        ids.dedup();
        assert_eq!(ids.len(), set.len());
    }

    #[test]
    fn stencils_have_the_stated_symmetry() {
        let a = stencil_2d(6, 0.0, 0.0);
        assert_eq!(a, a.transpose());
        let b = stencil_2d(6, CONVECTION.0, CONVECTION.1);
        assert_ne!(b, b.transpose());
        assert_eq!(b.nnz(), 5 * 36 - 4 * 6);
    }
}
