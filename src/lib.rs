//! # spmv-suite
//!
//! Umbrella crate for the Rust reproduction of *"Feature-based SpMV
//! Performance Analysis on Contemporary Devices"* (Mpakos et al.,
//! IPDPS 2023). It re-exports the workspace crates under one roof so
//! examples and downstream users can depend on a single crate:
//!
//! * [`spmv_core`] (as `core`) — matrix containers, feature extraction, roofline;
//! * [`spmv_gen`] (as `gen`) — the artificial matrix generator and datasets;
//! * [`spmv_parallel`] (as `parallel`) — thread pool and partitioners;
//! * [`spmv_formats`] (as `formats`) — the thirteen storage formats and kernels;
//! * [`spmv_memsim`] (as `memsim`) — cache simulation for x-vector locality;
//! * [`spmv_devices`] (as `devices`) — the nine calibrated device models
//!   and the measured `Host` profile;
//! * [`spmv_analysis`] (as `analysis`) — statistics and reporting;
//! * [`spmv_engine`] (as `engine`) — the adaptive serve-time engine
//!   (feature-driven format selection, conversion cache, counters).
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! the `spmv-bench` crate for the binaries that regenerate every table
//! and figure of the paper.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub use spmv_analysis as analysis;
pub use spmv_core as core;
pub use spmv_devices as devices;
pub use spmv_engine as engine;
pub use spmv_formats as formats;
pub use spmv_gen as gen;
pub use spmv_memsim as memsim;
pub use spmv_parallel as parallel;
