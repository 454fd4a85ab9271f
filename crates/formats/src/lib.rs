//! # spmv-formats
//!
//! Native Rust implementations of every sparse storage format and SpMV
//! implementation surveyed by the paper (§II-B, Table II):
//!
//! | paper format | module | work distribution | targets | set |
//! |---|---|---|---|---|
//! | Naive-CSR | [`csr`] | static row chunks | baseline | serving |
//! | Vectorized-CSR | [`csr`] | static rows, unrolled | ILP / SIMD | label |
//! | Balanced-CSR | [`csr`] | nnz-balanced rows | imbalance | serving |
//! | ELL | [`ell`] | static rows, padded | ILP on regular matrices | serving |
//! | HYB (ELL+COO) | [`hyb`] | split at k = avg nnz/row | ELL without padding blow-up | serving |
//! | SELL-C-σ (C = 4, 8, 16) | [`sellcs`] | sorted chunks | SIMD without full-ELL padding | serving |
//! | CSR5-like | [`csr`] | static rows (name only) | imbalance + irregularity | label |
//! | Merge-CSR | [`csr`] | static rows (name only) | imbalance, zero preprocessing | label |
//! | COO | [`coo`] | sequential | load balance (GPUs) | figure |
//! | DIA | [`dia`] | sequential | stencil diagonals | figure |
//! | BCSR | [`bcsr`] | sequential | dense sub-blocks | figure |
//! | SparseX-lite (CSX) | [`sparsex`] | sequential | memory footprint compression | figure |
//! | VSL (CSC variant) | [`vsl`] | sequential | FPGA dataflow | figure |
//!
//! The *serving* set ([`FormatKind::SERVING`]) is what the engine may
//! build, serve, cache and snapshot, one kind per sequential kernel. A
//! *label* kind is a selector label the engine serves as Balanced-CSR
//! ([`FormatKind::served_as`]); it builds and runs like its serving
//! twin, but has no wire codec. The *figure* set is what only the
//! modeled devices' figures read: each converts from CSR, runs a
//! correct sequential `spmv` and reports its storage statistics, and
//! takes the trait's defaults for the rest — its `spmv_parallel` runs
//! `spmv`, its `spmm` is `k` of them, and it has no wire codec.
//!
//! The five CSR-family rows are one type, [`csr::CsrFormat`], over one
//! storage: it keeps a clone of the operand, and a
//! [`spmv_core::CsrMatrix`] clone shares the operand's arrays, so
//! building any of them copies nothing (CSR5 is charged a tile row
//! pointer it does not build). Every other format materialises its own
//! layout.
//!
//! The SIMD-style inner loops of the CSR variants, ELL, HYB and
//! SELL-C-σ are not written per format: they live once in [`kernels`]
//! as lane kernels over two layouts — gather-dot over CSR rows, and one
//! slot-sequential sum per lane of a strided padded slab (ELL: stride =
//! rows; SELL-C-σ: stride = C) — run at lane widths 1/4/8 and
//! dispatched once per matrix from a [`kernels::LaneProfile`] chosen at
//! startup (the `SPMV_LANES` environment variable overrides the probed
//! default). A format hands the kernels a borrowed [`kernels::View`] of
//! its arrays; the single-vector [`SparseFormat`] methods of those
//! formats are one shared driver over that view. The multi-vector
//! (`spmm`) kernels of the CSR family, ELL and SELL-C-σ are the
//! row-major panel kernels of [`kernels::panel`].
//!
//! Every format implements [`SparseFormat`]: conversion from CSR,
//! sequential SpMV, SpMV over a [`spmv_parallel::ThreadPool`] (parallel
//! for the serving set), and byte-accurate storage accounting
//! (including padding and metadata — the quantity the device models
//! feed into the roofline).
//!
//! All kernels are verified against the dense reference on generated
//! matrices spanning the paper's feature lattice (see
//! `tests/format_correctness.rs`).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bcsr;
pub mod coo;
pub mod csr;
pub mod dia;
mod driver;
pub mod ell;
pub mod hyb;
pub mod kernels;
pub mod registry;
pub mod sellcs;
pub mod sparsex;
pub mod traits;
pub mod vsl;
pub mod wire;

pub use kernels::{LaneProfile, LaneWidth};
pub use registry::{
    build_format, build_format_with, build_with_fallback, build_with_fallback_profile, FormatKind,
};
pub use traits::{FormatBuildError, SparseFormat};
pub use wire::{deserialize_from, deserialize_from_with, SectionReader, SectionWriter, WireError};
