//! # spmv-analysis
//!
//! Statistics and reporting for the SpMV campaign: boxplot summaries
//! (the paper's figures are almost all boxplots), MAPE / APE-best
//! validation metrics (Table IV), win-rate tallies (Fig. 7) and plain-
//! text table / ASCII-boxplot / CSV rendering used by the figure
//! binaries.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod mape;
pub mod report;
pub mod selector;
pub mod stats;
pub mod wins;

pub use mape::{ape_best, mape_to_median};
pub use report::{ascii_boxplot_row, Table};
pub use selector::{
    best_observations, evaluate, fit_from_runs, FormatSelector, LabeledRun, Observation, Run,
    SelectorFeatures, SelectorScore,
};
pub use stats::BoxStats;
pub use wins::WinTally;
