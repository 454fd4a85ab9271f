//! # spmv-bench
//!
//! The experiment harness: the `figures` binary, which reproduces every
//! table and figure of the paper ([`paper::FIGURES`] is the index), the
//! four `*_throughput` gate binaries that each write a committed
//! `BENCH_*.json`, and Criterion micro-benchmarks. This library holds
//! what they share: argument parsing, the figures themselves, grouping
//! helpers, boxplot rendering, the calibration sweep and the JSON
//! reporter.
//!
//! `figures <name>` prints the reproduced table/series to stdout and,
//! when `--csv DIR` is given, also writes a CSV per panel into `DIR`.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod calibration;
pub mod classes;
pub mod figures;
pub mod grouping;
pub mod paper;
pub mod report;
pub mod validation;

pub use args::RunConfig;
