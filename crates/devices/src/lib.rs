//! # spmv-devices
//!
//! Calibrated analytical models of the paper's nine testbeds (Table
//! II) and the campaign runner that sweeps (device × matrix × format).
//!
//! We have no Tesla GPUs, EPYC sockets or Alveo FPGAs in this
//! environment, so the paper's *measurement* infrastructure is
//! substituted by *models* that encode exactly the mechanisms the
//! paper uses to explain its results:
//!
//! * hierarchical roofline — LLC vs DRAM/HBM bandwidth, switched by
//!   the matrix footprint (the paper's f1 effect, Fig. 3);
//! * operational intensity from the *format's* byte footprint
//!   including padding and metadata (Fig. 7 differences);
//! * ILP / loop-overhead penalty driven by the average row length
//!   (f2 effect, Fig. 4);
//! * load imbalance from the actual planned row-length distribution
//!   and the format's work-distribution policy (f3 effect, Fig. 5);
//! * x-vector locality from `spmv-memsim`'s analytic model, with a
//!   GPU coalescing penalty (f4 effect, Fig. 6);
//! * FPGA pipeline model with column padding and HBM capacity
//!   failures (§V-C observations);
//! * an energy model (idle + utilization-scaled dynamic power) that
//!   reproduces the paper's efficiency ordering (Fig. 2b);
//! * a deterministic, seeded noise channel standing in for run-to-run
//!   measurement variance, so the validation statistics (Table IV)
//!   are non-trivial.
//!
//! The *kernels* of `spmv-formats` are real and host-benchmarked with
//! Criterion; the models here exist to extrapolate the study to the
//! paper's device zoo. The machine the kernels run on is a tenth
//! profile, [`host`]: its records are timed kernels from a committed
//! calibration table, and no model is ever run on it.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod host;
pub mod model;
pub mod noise;
pub mod specs;
pub mod summary;

pub use campaign::{Campaign, Record};
pub use host::{HostTable, HostTableError};
pub use model::{estimate, estimate_with, Estimate, ModelConfig};
pub use specs::{all_devices, device_by_name, DeviceClass, DeviceSpec};
pub use summary::MatrixSummary;
