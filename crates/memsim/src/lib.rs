//! # spmv-memsim
//!
//! Memory-hierarchy substrate for the device models: the paper's
//! fourth bottleneck (*memory latency overheads*, §II-A.4) is "the
//! irregular access pattern to the x vector, dictated by the sparsity
//! pattern of the matrix", creating cache misses on CPUs and
//! uncoalesced accesses on GPUs. This crate quantifies that effect:
//!
//! * [`cache`] — a set-associative LRU cache simulator;
//! * [`trace`] — replays the x-vector access stream of a CSR matrix
//!   through the simulator and reports hit rates, with optional row
//!   sampling for big matrices;
//! * [`analytic`] — a closed-form locality model mapping the paper's
//!   regularity features (`avg_num_neigh`, `cross_row_sim`,
//!   `bw_scaled`) plus the cache geometry to an x-vector hit rate; the
//!   campaign uses it where running the full trace would be too slow,
//!   and its fidelity versus the simulator is enforced by tests.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analytic;
pub mod cache;
pub mod trace;

pub use analytic::{analytic_x_hit_rate, LocalityInputs};
pub use cache::CacheSim;
pub use trace::{simulate_x_hit_rate, simulate_x_hit_rate_sampled};
