//! # spmv-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (see DESIGN.md §4 for the index) plus Criterion micro-benchmarks of
//! the host kernels. This library holds the pieces the binaries share:
//! argument parsing, the campaign configuration, grouping helpers and
//! boxplot printing.
//!
//! Every binary prints the reproduced table/series to stdout and, when
//! `--csv DIR` is given, also writes a CSV per figure into `DIR`.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod calibration;
pub mod classes;
pub mod figures;
pub mod grouping;
pub mod report;
pub mod validation;

pub use args::RunConfig;
