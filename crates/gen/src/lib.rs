//! # spmv-gen
//!
//! Rust port of the **artificial sparse-matrix generator** of
//! *"Feature-based SpMV Performance Analysis on Contemporary Devices"*
//! (Mpakos et al., IPDPS 2023, §III-B) and of the datasets built with
//! it:
//!
//! * [`generator`] — the `artificial_matrix_generation(...)` function of
//!   the paper's Listing 1: row lengths from a random distribution,
//!   skew via an exponentially decreasing envelope, positions via
//!   cross-row duplication, bandwidth-confined random placement and
//!   geometric neighbor clustering;
//! * [`dataset`] — the Table I feature lattice and the 'small' (~3K),
//!   'medium' (~16K) and 'large' (~27K) artificial datasets (§V-E);
//! * [`validation`] — the 45-matrix real-world validation suite of
//!   Table III (feature values hard-coded from the paper) and the
//!   ±30 % "friends" machinery of §V-A;
//! * [`structured`] — matrices the generator does not make: the 2-D
//!   five-point stencil, with or without convection.
//!
//! ## Quick example
//!
//! ```
//! use spmv_gen::generator::{GeneratorParams, RowDist};
//!
//! let params = GeneratorParams {
//!     nr_rows: 2000,
//!     nr_cols: 2000,
//!     avg_nz_row: 12.0,
//!     std_nz_row: 3.0,
//!     distribution: RowDist::Normal,
//!     skew_coeff: 0.0,
//!     bw_scaled: 0.3,
//!     cross_row_sim: 0.5,
//!     avg_num_neigh: 1.0,
//!     seed: 42,
//! };
//! let m = params.generate().unwrap();
//! let f = spmv_core::FeatureSet::extract(&m);
//! assert!((f.avg_nnz_per_row - 12.0).abs() / 12.0 < 0.05);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dataset;
pub mod generator;
pub mod rng;
pub mod structured;
pub mod validation;

pub use dataset::{Dataset, DatasetSize, MatrixSpec};
pub use generator::{GeneratorParams, RowDist};
pub use validation::{ValidationMatrix, VALIDATION_SUITE};
