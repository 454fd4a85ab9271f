//! # spmv-parallel
//!
//! The parallel execution substrate of the SpMV study: a persistent
//! [`ThreadPool`] (the role OpenMP plays in the paper's CPU
//! implementations) and the two row-distribution policies the
//! storage formats rely on:
//!
//! * [`partition::Partition::static_rows`] — contiguous row chunking
//!   (what `Naive-CSR` does; sensitive to row-length skew);
//! * [`partition::Partition::balanced_by_prefix`] — nnz-balanced row
//!   chunking (`Balanced-CSR`; insensitive to skew up to the longest
//!   single row).
//!
//! The pool pins one worker per logical thread and schedules
//! work-stealing chunk tasks ([`ThreadPool::run_tasks`]) with borrowed
//! data, so SpMV kernels can run over `&[f64]` slices without
//! allocation or `'static` bounds — and so concurrent kernel calls and
//! low-priority background jobs ([`ThreadPool::submit_low`]) share the
//! cores at task granularity instead of queueing whole-pool jobs.
//!
//! On top of the pool sits the shared [`executor`] layer: every storage
//! format routes its `spmv_parallel` (and batched SpMM) through
//! [`Executor`] + [`Schedule`] instead of hand-rolling pool calls, so
//! the disjoint-write soundness argument lives in one place. The
//! [`blas1`] module adds the deterministic parallel vector ops
//! (dot/axpy/xpby with a fixed-shape tree reduction) that iterative
//! solvers interleave with SpMV.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blas1;
pub mod executor;
#[cfg(spmv_model_check)]
pub mod model_demo;
pub mod partition;
pub mod pool;
pub mod sync;

pub use executor::{DisjointWriter, Executor, Schedule};
pub use partition::Partition;
pub use pool::{PoolStats, ThreadPool};
