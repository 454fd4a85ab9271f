//! The four workloads. Each builds its inputs from the seed, sets the
//! system up, runs one timed section (or, traced, a plain and a traced
//! one plus the layer probes) and verifies what the program answered.

pub mod cold;
pub mod hot_large;
pub mod hot_small;
