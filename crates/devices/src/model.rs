//! The per-device SpMV performance and energy model.
//!
//! `perf = min(compute roof, memory roof) × balance × noise`, with:
//!
//! * **memory roof** — `BW_eff × OI`: operational intensity from the
//!   format's bytes/nnz (incl. padding/metadata), the x-vector traffic
//!   predicted by `spmv-memsim`, and the y/row-pointer traffic;
//!   `BW_eff` interpolates between the measured LLC and DRAM/HBM
//!   bandwidths of Table II based on footprint vs. LLC capacity;
//! * **compute roof** — device peak × an ILP factor driven by the
//!   average row length (loop overhead / short-vector waste) × a
//!   parallel-utilization factor (GPUs need millions of nonzeros to
//!   fill their execution units);
//! * **balance** — the reciprocal of the load-imbalance factor of the
//!   format's work-distribution policy at the device's scheduler
//!   width (merge/tile formats are immune by construction);
//! * **FPGA branch** — VSL pipeline throughput divided by the column
//!   padding ratio, a row-accumulator serialization penalty for
//!   skew, and a hard HBM capacity failure.
//!
//! Every factor is reported in the [`Estimate`] breakdown so ablation
//! benches can switch individual mechanisms off.

use crate::noise::noise_factor;
use crate::specs::{DeviceClass, DeviceSpec, FpgaParams};
use crate::summary::MatrixSummary;
use serde::{Deserialize, Serialize};
use spmv_formats::FormatKind;
use spmv_memsim::{analytic_x_hit_rate, LocalityInputs};

/// Model output for one (device, format, matrix) combination.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    /// Predicted throughput in GFLOP/s (2·nnz flops per SpMV).
    pub gflops: f64,
    /// Predicted average power draw in W.
    pub watts: f64,
    /// Operational intensity used (flops/byte).
    pub oi: f64,
    /// Effective bandwidth used for the memory roof (GB/s).
    pub bw_eff_gbs: f64,
    /// ILP efficiency factor in (0, 1].
    pub ilp_eff: f64,
    /// Parallel-utilization factor in (0, 1].
    pub parallel_eff: f64,
    /// Balance factor in (0, 1].
    pub balance_eff: f64,
    /// Predicted x-vector hit rate fed into the traffic model.
    pub x_hit_rate: f64,
    /// Storage bytes per nonzero of the chosen format (incl. padding).
    pub format_bytes_per_nnz: f64,
}

impl Estimate {
    /// Energy efficiency in GFLOPs/W (the paper's Fig. 2b metric).
    pub fn gflops_per_watt(&self) -> f64 {
        if self.watts > 0.0 {
            self.gflops / self.watts
        } else {
            0.0
        }
    }
}

/// Why a (device, format, matrix) combination refuses to run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelFailure {
    /// The padded representation exceeds a capacity (ELL budget, VSL
    /// HBM channels) — mirrors the matrices that "fail to execute on
    /// the FPGA due to HBM capacity limitations".
    CapacityExceeded(String),
    /// The format is not available on this device (Table II).
    FormatUnavailable,
    /// The device is the measured `Host` profile: its numbers come from
    /// timed kernels ([`crate::host`]), and it has no model constants.
    Unmodeled,
}

impl std::fmt::Display for ModelFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelFailure::CapacityExceeded(msg) => write!(f, "capacity exceeded: {msg}"),
            ModelFailure::FormatUnavailable => write!(f, "format unavailable on device"),
            ModelFailure::Unmodeled => write!(f, "the Host profile is measured, not modeled"),
        }
    }
}

/// Fraction of the measured STREAM bandwidth a GPU sustains on the
/// gather-heavy SpMV access mix (STREAM is pure unit-stride; SpMV mixes
/// streaming with indexed loads and never quite reaches it).
const GPU_STREAM_EFF: f64 = 0.72;

/// Work-distribution policy of each format (drives the balance factor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    StaticRows,
    BalancedRows,
    Perfect,
}

fn policy_of(kind: FormatKind, class: DeviceClass) -> Policy {
    match kind {
        // The vendor GPU CSR kernels bin rows by length (CSR-adaptive
        // style), so they behave like nnz-balanced scheduling — the
        // paper observes that "most GPU formats are designed with work
        // sharing and imbalance in mind" (§V-C.3). The hand-written CPU
        // CSR kernels use static contiguous row chunks.
        FormatKind::NaiveCsr if class == DeviceClass::Gpu => Policy::BalancedRows,
        FormatKind::NaiveCsr
        | FormatKind::VectorizedCsr
        | FormatKind::Ell
        | FormatKind::Dia
        | FormatKind::Bcsr => Policy::StaticRows,
        FormatKind::BalancedCsr
        | FormatKind::SellCSigma
        | FormatKind::SellC4
        | FormatKind::SellC16
        | FormatKind::SparseX
        | FormatKind::Hyb => Policy::BalancedRows,
        FormatKind::Coo | FormatKind::MergeCsr | FormatKind::Csr5 | FormatKind::Vsl => {
            Policy::Perfect
        }
    }
}

/// Per-row loop/bookkeeping overhead constant of each kernel, in
/// "equivalent nonzeros": the ILP factor is `(avg/(avg+c))^0.5`.
fn ilp_overhead(kind: FormatKind, class: DeviceClass) -> f64 {
    match class {
        DeviceClass::Gpu => match kind {
            // Thread-per-row CSR diverges badly on short rows.
            FormatKind::NaiveCsr => 8.0,
            FormatKind::Hyb | FormatKind::Ell => 2.0,
            FormatKind::Coo | FormatKind::MergeCsr | FormatKind::Csr5 => 1.5,
            _ => 4.0,
        },
        DeviceClass::Cpu => match kind {
            FormatKind::VectorizedCsr
            | FormatKind::Ell
            | FormatKind::Hyb
            | FormatKind::SellCSigma => 2.0,
            // Chunk width scales the per-chunk loop overhead: narrow
            // C=4 chunks pay the prologue 4x as often per row block as
            // C=16 chunks, which amortize it almost entirely — the
            // niche that makes wide chunks the short-regular-row
            // format of choice.
            FormatKind::SellC4 => 2.6,
            FormatKind::SellC16 => 1.2,
            // Vendor inspector-executor CSR: tuned prologue, slightly
            // more bookkeeping than the pure vectorized loop.
            FormatKind::BalancedCsr => 2.2,
            FormatKind::Coo => 1.0,
            // The merge-path descent and the CSR5 tile decoding add
            // per-element work that only pays off on imbalanced inputs
            // ("can result to slowdowns in cases where its sophisticated
            // splitting of the input matrix is fruitless", §II-B.5).
            FormatKind::MergeCsr => 3.0,
            FormatKind::Csr5 => 3.5,
            _ => 4.0,
        },
        DeviceClass::Fpga => 1.0, // padding already models short rows
    }
}

/// Storage bytes per logical nonzero of each format, including padding
/// and metadata, estimated from the summary.
fn format_bytes_per_nnz(
    kind: FormatKind,
    s: &MatrixSummary,
    fpga: Option<&FpgaParams>,
) -> Result<f64, ModelFailure> {
    let f = &s.features;
    let avg = f.avg_nnz_per_row.max(0.25);
    let per_row = 1.0 / avg;
    Ok(match kind {
        FormatKind::NaiveCsr
        | FormatKind::VectorizedCsr
        | FormatKind::BalancedCsr
        | FormatKind::MergeCsr => 12.0 + 4.0 * per_row,
        FormatKind::Csr5 => 12.0 + 4.0 * per_row + 4.0 / 128.0,
        FormatKind::Coo => 16.0,
        FormatKind::Dia => {
            // One 8-byte value per (diagonal × row) slot; diagonals
            // estimated from the band and the same-row clustering.
            let diags = (f.bandwidth_scaled * f.cols as f64)
                .min(avg * 4.0)
                .max(avg)
                .min(f.cols.max(1) as f64);
            let pad = (diags * f.rows as f64 / f.nnz.max(1) as f64).max(1.0);
            8.0 * pad
        }
        FormatKind::Bcsr => {
            // 4x4 blocks whose fill tracks the neighbor clustering.
            let p_adj = (f.avg_num_neigh / 2.0).clamp(0.0, 1.0);
            let fill = (0.15 + 0.75 * p_adj).clamp(0.1, 1.0);
            8.0 / fill + 4.0 / (16.0 * fill)
        }
        FormatKind::Ell => {
            let pad = (s.max_row_nnz as f64 / avg).max(1.0);
            if pad > 16.0 {
                return Err(ModelFailure::CapacityExceeded(format!(
                    "ELL padding ratio {pad:.1} exceeds budget 16"
                )));
            }
            12.0 * pad
        }
        FormatKind::Hyb => {
            // ELL part stores ceil(avg)·rows entries; the skew spike
            // spills to COO. Spike share ~0.4 of nnz when skewed.
            let spill = if f.skew_coeff > 1.0 { 0.4 } else { 0.05 };
            let ell_pad = avg.ceil() / avg;
            12.0 * ell_pad * (1.0 - spill) + 16.0 * spill
        }
        FormatKind::SellCSigma => {
            // Window sorting leaves only intra-chunk padding.
            let pad = 1.05 + (0.05 * f.std_nnz_per_row / avg).min(0.30);
            12.0 * pad + 4.0 * per_row
        }
        // Narrower chunks pad each row only to the max of 3 neighbors
        // (cheap even under skew); wider chunks pad to the max of 15,
        // so irregular rows inflate the slab fast.
        FormatKind::SellC4 => {
            let pad = 1.02 + (0.02 * f.std_nnz_per_row / avg).min(0.15);
            12.0 * pad + 4.0 * per_row
        }
        FormatKind::SellC16 => {
            // The σ=256 sort window still evens out regular matrices at
            // C=16 (low base), but every skewed row drags 15 neighbors
            // up to its length (steep slope).
            let pad = 1.03 + (0.10 * f.std_nnz_per_row / avg).min(0.50);
            12.0 * pad + 4.0 * per_row
        }
        FormatKind::SparseX => {
            // Dense runs compress the index stream; run probability
            // derives from the neighbor feature.
            let p_adj = (f.avg_num_neigh / 2.0).clamp(0.0, 1.0);
            8.0 + 4.0 * (1.0 - 0.8 * p_adj) + 8.0 * per_row
        }
        FormatKind::Vsl => {
            // VSL splits the matrix into 2D partitions (one row band
            // per channel) and zero-pads every nonempty column segment
            // of a partition to the accumulation-pipeline depth. For
            // short columns most segments hold < depth nonzeros, so
            // sparse matrices inflate dramatically — exactly the
            // matrices the paper reports as refusing to run.
            let (parts, depth) =
                fpga.map(|p| (p.channels as f64, p.pipeline_depth as f64)).unwrap_or((16.0, 8.0));
            let col_len = (f.nnz as f64 / f.cols.max(1) as f64).max(1e-9);
            let seg = col_len / parts;
            // Poisson estimate of the nonempty-segment fraction.
            let nonempty = 1.0 - (-seg).exp();
            let padded_per_col = parts * nonempty * depth * (seg / depth).ceil().max(1.0);
            let pad = (padded_per_col / col_len).max(1.0);
            12.0 * pad + 4.0 / col_len
        }
    })
}

/// Mechanism toggles for ablation studies: each flag disables one
/// bottleneck term of the model so its contribution to a figure can be
/// isolated (`cargo run -p spmv-bench --bin figures -- ablation_mechanisms`).
///
/// All mechanisms are enabled by default; [`estimate`] is
/// `estimate_with(&ModelConfig::default(), ..)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Memory-bandwidth intensity: LLC-vs-DRAM bandwidth interpolation
    /// on CPUs (off = every matrix streams at LLC speed).
    pub bandwidth_hierarchy: bool,
    /// Low-ILP penalty for short rows (off = `ilp_eff = 1`).
    pub ilp: bool,
    /// Load-imbalance factor from the work-distribution policy
    /// (off = `balance_eff = 1`).
    pub imbalance: bool,
    /// Memory-latency overheads: x-vector locality misses and GPU
    /// coalescing (off = x accesses are free).
    pub locality: bool,
    /// Parallel-slack saturation (off = full utilization at any size).
    pub parallel_slack: bool,
    /// Measurement-noise channel (off = the pure deterministic model).
    pub noise: bool,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            bandwidth_hierarchy: true,
            ilp: true,
            imbalance: true,
            locality: true,
            parallel_slack: true,
            noise: true,
        }
    }
}

impl ModelConfig {
    /// A configuration with every optional mechanism disabled — the
    /// bare `min(compute, bandwidth · OI)` roofline.
    pub fn bare_roofline() -> Self {
        Self {
            bandwidth_hierarchy: false,
            ilp: false,
            imbalance: false,
            locality: false,
            parallel_slack: false,
            noise: false,
        }
    }

    /// Returns `(label, config)` pairs that each disable exactly one
    /// mechanism, for one-factor ablation sweeps.
    pub fn one_factor_ablations() -> Vec<(&'static str, ModelConfig)> {
        let on = ModelConfig::default();
        vec![
            ("-bandwidth_hierarchy", ModelConfig { bandwidth_hierarchy: false, ..on }),
            ("-ilp", ModelConfig { ilp: false, ..on }),
            ("-imbalance", ModelConfig { imbalance: false, ..on }),
            ("-locality", ModelConfig { locality: false, ..on }),
            ("-parallel_slack", ModelConfig { parallel_slack: false, ..on }),
            ("-noise", ModelConfig { noise: false, ..on }),
        ]
    }
}

/// Runs the model with all mechanisms enabled.
pub fn estimate(
    dev: &DeviceSpec,
    kind: FormatKind,
    s: &MatrixSummary,
) -> Result<Estimate, ModelFailure> {
    estimate_with(&ModelConfig::default(), dev, kind, s)
}

/// Runs the model with an explicit mechanism configuration.
pub fn estimate_with(
    cfg: &ModelConfig,
    dev: &DeviceSpec,
    kind: FormatKind,
    s: &MatrixSummary,
) -> Result<Estimate, ModelFailure> {
    if dev.name == crate::host::NAME {
        return Err(ModelFailure::Unmodeled);
    }
    if !dev.formats.contains(&kind) {
        return Err(ModelFailure::FormatUnavailable);
    }
    let f = &s.features;
    let bpn = format_bytes_per_nnz(kind, s, dev.fpga.as_ref())?;
    let nnz = f.nnz.max(1) as f64;
    let avg = f.avg_nnz_per_row.max(0.25);

    // FPGA capacity gate: total padded matrix bytes vs HBM channels.
    if let Some(p) = &dev.fpga {
        let total = bpn * nnz;
        let capacity = (p.channels * p.channel_capacity_bytes) as f64;
        if total > capacity {
            return Err(ModelFailure::CapacityExceeded(format!(
                "VSL needs {:.0} MB > {:.0} MB of HBM",
                total / (1024.0 * 1024.0),
                capacity / (1024.0 * 1024.0)
            )));
        }
    }

    // --- Traffic & operational intensity -------------------------------
    // CPUs keep x lines in half the LLC (the other half streams the
    // matrix); GPUs dedicate only a quarter of the (much smaller) L2 to
    // x and additionally pay a coalescing tax: a scattered warp gather
    // moves a full 32 B sector per useful 8 B operand, while adjacent
    // (`avg_num_neigh`) or row-repeated (`cross_row_sim`) accesses
    // coalesce — the paper's "irregularity can imperil GPU performance".
    // The cache share available to x: the streamed matrix occupies the
    // rest (the analytic model expects the *effective* x capacity; its
    // LRU law is calibrated against the x-only trace simulator).
    let (line_bytes, x_cache, y_bytes_per_row) = match dev.class {
        DeviceClass::Cpu => (64usize, dev.llc_bytes / 4, 16.0),
        DeviceClass::Gpu => (32, dev.llc_bytes / 8, 8.0),
        DeviceClass::Fpga => (64, dev.llc_bytes, 8.0),
    };
    let x_hit = if dev.class == DeviceClass::Fpga || !cfg.locality {
        1.0 // CSC: x is streamed exactly once per column
    } else {
        analytic_x_hit_rate(&LocalityInputs {
            rows: f.rows,
            cols: f.cols,
            avg_nnz_per_row: avg,
            bw_scaled: f.bandwidth_scaled,
            avg_num_neigh: f.avg_num_neigh,
            cross_row_sim: f.cross_row_sim,
            cache_bytes: x_cache,
            line_bytes,
        })
    };
    let x_bytes = match dev.class {
        _ if !cfg.locality => 0.0,
        DeviceClass::Fpga => 8.0 * f.cols as f64 / nnz,
        DeviceClass::Cpu => 16.0 * (1.0 - x_hit),
        DeviceClass::Gpu => {
            let p_adj = (f.avg_num_neigh / 2.0).clamp(0.0, 1.0);
            let regularity = 0.5 * (p_adj + f.cross_row_sim.clamp(0.0, 1.0));
            (8.0 + 24.0 * (1.0 - regularity)) * (1.0 - x_hit)
        }
    };
    let y_bytes = y_bytes_per_row / avg;
    let oi = 2.0 / (bpn + x_bytes + y_bytes);

    // --- Effective bandwidth (footprint vs LLC) ------------------------
    // CPUs: matrices inside the LLC stream at cache bandwidth, larger
    // ones collapse to DRAM speed (the paper's 7× cliff). GPUs/FPGAs
    // always stream the matrix from HBM — "in the case of GPUs, the
    // matrix size does not affect memory bandwidth intensity, it rather
    // affects the levels of available parallelism" (§V-C.1).
    let footprint_bytes = bpn * nnz;
    let bw_eff = if dev.class == DeviceClass::Cpu {
        let ratio = if cfg.bandwidth_hierarchy {
            footprint_bytes / dev.llc_bytes as f64
        } else {
            0.0 // ablation: every matrix streams at LLC speed
        };
        if ratio <= 0.5 {
            dev.llc_bw_gbs
        } else if ratio >= 4.0 {
            dev.mem_bw_gbs
        } else {
            // Geometric interpolation in log2(ratio) in [-1, 2].
            let t = ((ratio.log2() + 1.0) / 3.0).clamp(0.0, 1.0);
            dev.llc_bw_gbs.powf(1.0 - t) * dev.mem_bw_gbs.powf(t)
        }
    } else if dev.class == DeviceClass::Gpu {
        dev.mem_bw_gbs * GPU_STREAM_EFF
    } else {
        dev.mem_bw_gbs
    };

    // --- Efficiency factors --------------------------------------------
    let c_row = ilp_overhead(kind, dev.class);
    let mut ilp_eff = if cfg.ilp { (avg / (avg + c_row)).sqrt() } else { 1.0 };
    if dev.class == DeviceClass::Cpu && cfg.locality {
        // Clustered nonzeros let the CPU kernels issue wide vector
        // loads of x instead of scalar gathers, and repeated columns
        // keep x operands in registers — the paper's "performance
        // improves by ~1.3x when a matrix becomes regular" (§V-C.4).
        let p_adj = (f.avg_num_neigh / 2.0).clamp(0.0, 1.0);
        let regularity = 0.5 * (p_adj + f.cross_row_sim.clamp(0.0, 1.0));
        ilp_eff /= 1.0 + 0.25 * (1.0 - regularity);
    }
    let parallel_eff =
        if cfg.parallel_slack { (nnz / (nnz + dev.nnz_half_util)).powf(0.3) } else { 1.0 };
    let balance_eff = if !cfg.imbalance {
        1.0
    } else {
        match dev.class {
            DeviceClass::Fpga => {
                // Hot rows serialize the per-row accumulators.
                let hot_share = s.max_row_nnz as f64 * dev.sched_units as f64 / nnz;
                1.0 / (1.0 + 3.0 * hot_share.min(1.0))
            }
            _ => match policy_of(kind, dev.class) {
                Policy::StaticRows => 1.0 / s.imbalance.static_at(dev.sched_units),
                Policy::BalancedRows => 1.0 / s.imbalance.balanced_at(dev.sched_units),
                Policy::Perfect => 1.0,
            },
        }
    };

    // --- Roofs ----------------------------------------------------------
    let compute_roof = match dev.class {
        DeviceClass::Fpga => {
            // The pipeline processes padded entries at peak rate.
            let pad = bpn / 12.0;
            dev.peak_gflops() / pad.max(1.0)
        }
        _ => dev.peak_gflops() * 0.35, // SpMV never reaches full FMA issue
    };
    let memory_roof = bw_eff * oi;
    let perf_ideal = compute_roof.min(memory_roof) * ilp_eff * parallel_eff * balance_eff;
    let noise = if cfg.noise { noise_factor(s.seed, dev.name, kind.name()) } else { 1.0 };
    let gflops = perf_ideal * noise;

    // --- Power ------------------------------------------------------------
    // Utilization against the device's best attainable SpMV rate
    // (GPUs are bounded by HBM streaming, CPUs by LLC streaming).
    let dev_cap = match dev.class {
        DeviceClass::Fpga => dev.peak_gflops(),
        DeviceClass::Gpu => dev.mem_bw_gbs * GPU_STREAM_EFF * 0.17,
        DeviceClass::Cpu => dev.llc_bw_gbs.max(dev.mem_bw_gbs) * 0.17,
    };
    let util = (gflops / dev_cap).clamp(0.0, 1.0);
    // CPUs/GPUs burn a large dynamic floor the moment the kernel keeps
    // all units clocked up; FPGA dynamic power tracks pipeline activity
    // directly (static draw is already `idle_w`).
    let dyn_floor = if dev.class == DeviceClass::Fpga { 0.0 } else { 0.35 };
    let watts = dev.idle_w + (dev.max_w - dev.idle_w) * (dyn_floor + (1.0 - dyn_floor) * util);

    Ok(Estimate {
        gflops,
        watts,
        oi,
        bw_eff_gbs: bw_eff,
        ilp_eff,
        parallel_eff,
        balance_eff,
        x_hit_rate: x_hit,
        format_bytes_per_nnz: bpn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::device_by_name;
    use spmv_gen::dataset::{Dataset, DatasetSize, FeatureSpacePoint};

    /// Builds a summary for a synthetic lattice point at dataset scale 16.
    fn summary(footprint_mb: f64, avg: f64, skew: f64, crs: f64, neigh: f64) -> MatrixSummary {
        let d = Dataset { size: DatasetSize::Small, scale: 1.0, base_seed: 11 };
        let spec = d.spec_for_point(
            FeatureSpacePoint {
                mem_footprint_mb: footprint_mb,
                avg_nnz_per_row: avg,
                skew_coeff: skew,
                cross_row_sim: crs,
                avg_num_neigh: neigh,
                bw_scaled: 0.3,
                footprint_class: 0,
            },
            1,
        );
        MatrixSummary::from_spec(&spec)
    }

    #[test]
    fn cpu_llc_cliff_is_roughly_7x() {
        // EPYC-64 scaled 16x: LLC 16 MB. Favorable features.
        let dev = device_by_name("AMD-EPYC-64").unwrap().scaled(16.0);
        let small = summary(4.0, 50.0, 0.0, 0.5, 1.4); // fits LLC
        let large = summary(128.0, 50.0, 0.0, 0.5, 1.4); // 8x LLC
        let p_small = estimate(&dev, FormatKind::VectorizedCsr, &small).unwrap();
        let p_large = estimate(&dev, FormatKind::VectorizedCsr, &large).unwrap();
        let gap = p_small.gflops / p_large.gflops;
        assert!(
            (4.0..=12.0).contains(&gap),
            "LLC cliff {gap:.1}x (small {:.1}, large {:.1})",
            p_small.gflops,
            p_large.gflops
        );
    }

    #[test]
    fn gpu_favors_large_matrices_about_2x() {
        let dev = device_by_name("Tesla-A100").unwrap().scaled(16.0);
        let small = summary(1.0, 50.0, 0.0, 0.5, 1.4);
        let large = summary(64.0, 50.0, 0.0, 0.5, 1.4);
        let p_small = estimate(&dev, FormatKind::MergeCsr, &small).unwrap();
        let p_large = estimate(&dev, FormatKind::MergeCsr, &large).unwrap();
        let gap = p_large.gflops / p_small.gflops;
        assert!((1.3..=4.0).contains(&gap), "GPU size gap {gap:.2}x");
    }

    #[test]
    fn short_rows_cost_about_2x() {
        let dev = device_by_name("AMD-EPYC-64").unwrap().scaled(16.0);
        let short = summary(4.0, 5.0, 0.0, 0.5, 0.5);
        let long = summary(4.0, 100.0, 0.0, 0.5, 0.5);
        let p_short = estimate(&dev, FormatKind::VectorizedCsr, &short).unwrap();
        let p_long = estimate(&dev, FormatKind::VectorizedCsr, &long).unwrap();
        let gap = p_long.gflops / p_short.gflops;
        assert!((1.4..=3.5).contains(&gap), "row-size gap {gap:.2}x");
    }

    #[test]
    fn skew_kills_static_but_not_merge() {
        let dev = device_by_name("AMD-EPYC-64").unwrap().scaled(16.0);
        let skewed = summary(16.0, 10.0, 1000.0, 0.5, 0.5);
        let p_static = estimate(&dev, FormatKind::NaiveCsr, &skewed).unwrap();
        let p_merge = estimate(&dev, FormatKind::MergeCsr, &skewed).unwrap();
        assert!(
            p_merge.gflops > 1.5 * p_static.gflops,
            "merge {:.2} vs static {:.2}",
            p_merge.gflops,
            p_static.gflops
        );
        assert_eq!(p_merge.balance_eff, 1.0);
        assert!(p_static.balance_eff < 0.7);
    }

    #[test]
    fn irregularity_hurts_gpu_on_large_matrices() {
        let dev = device_by_name("Tesla-A100").unwrap().scaled(16.0);
        let regular = summary(64.0, 20.0, 0.0, 0.95, 1.9);
        let irregular = summary(64.0, 20.0, 0.0, 0.05, 0.05);
        let p_reg = estimate(&dev, FormatKind::MergeCsr, &regular).unwrap();
        let p_irr = estimate(&dev, FormatKind::MergeCsr, &irregular).unwrap();
        let gap = p_reg.gflops / p_irr.gflops;
        assert!((1.4..=4.0).contains(&gap), "irregularity gap {gap:.2}x");
        assert!(p_reg.x_hit_rate > p_irr.x_hit_rate);
    }

    #[test]
    fn fpga_capacity_failure_on_sparse_large_matrices() {
        let dev = device_by_name("Alveo-U280").unwrap().scaled(16.0);
        // Very sparse rows -> heavy VSL padding; large footprint.
        let s = summary(120.0, 5.0, 0.0, 0.5, 0.5);
        match estimate(&dev, FormatKind::Vsl, &s) {
            Err(ModelFailure::CapacityExceeded(_)) => {}
            other => panic!("expected capacity failure, got {other:?}"),
        }
    }

    #[test]
    fn fpga_runs_dense_rows_and_is_energy_efficient() {
        let dev = device_by_name("Alveo-U280").unwrap().scaled(16.0);
        let a100 = device_by_name("Tesla-A100").unwrap().scaled(16.0);
        let s = summary(16.0, 100.0, 0.0, 0.5, 1.4);
        let fpga = estimate(&dev, FormatKind::Vsl, &s).unwrap();
        let gpu = estimate(&a100, FormatKind::MergeCsr, &s).unwrap();
        assert!(fpga.gflops < gpu.gflops, "FPGA must not outrun the A100");
        assert!(
            fpga.gflops_per_watt() > gpu.gflops_per_watt(),
            "FPGA {:.3} GF/W vs A100 {:.3} GF/W",
            fpga.gflops_per_watt(),
            gpu.gflops_per_watt()
        );
    }

    #[test]
    fn ablations_isolate_their_mechanism() {
        let dev = device_by_name("AMD-EPYC-64").unwrap().scaled(16.0);
        // A matrix that triggers every bottleneck: large, short rows,
        // skewed, irregular.
        let s = summary(64.0, 5.0, 1000.0, 0.05, 0.05);
        let full = estimate(&dev, FormatKind::NaiveCsr, &s).unwrap();
        for (label, cfg) in ModelConfig::one_factor_ablations() {
            let ab = estimate_with(&cfg, &dev, FormatKind::NaiveCsr, &s).unwrap();
            match label {
                // `ilp_eff` also carries the locality-gated CPU gather
                // factor, so disabling the ILP term raises it without
                // necessarily pinning it to 1.0.
                "-ilp" => assert!(ab.ilp_eff > full.ilp_eff),
                "-imbalance" => assert_eq!(ab.balance_eff, 1.0),
                "-locality" => assert_eq!(ab.x_hit_rate, 1.0),
                "-parallel_slack" => assert_eq!(ab.parallel_eff, 1.0),
                "-bandwidth_hierarchy" => {
                    assert!(ab.bw_eff_gbs > full.bw_eff_gbs, "LLC speed everywhere")
                }
                "-noise" => {
                    let b = estimate_with(&cfg, &dev, FormatKind::NaiveCsr, &s).unwrap();
                    assert_eq!(ab.gflops, b.gflops);
                }
                other => panic!("unlabeled ablation {other}"),
            }
            // Disabling a bottleneck never slows the prediction down
            // (noise aside, which can move either way).
            if label != "-noise" {
                assert!(
                    ab.gflops >= full.gflops * 0.99,
                    "{label}: {} < {}",
                    ab.gflops,
                    full.gflops
                );
            }
        }
        // The bare roofline upper-bounds everything.
        let bare =
            estimate_with(&ModelConfig::bare_roofline(), &dev, FormatKind::NaiveCsr, &s).unwrap();
        assert!(bare.gflops > full.gflops * 2.0, "bottlenecks must matter on this matrix");
    }

    #[test]
    fn sell_chunk_widths_trade_padding_against_loop_overhead() {
        let dev = device_by_name("AMD-EPYC-64").unwrap().scaled(16.0);
        // Compare the deterministic terms: the per-format measurement
        // noise draw can exceed the few-percent chunk-width gap.
        let cfg = ModelConfig { noise: false, ..ModelConfig::default() };
        // Short regular rows: padding is negligible either way, so the
        // lower per-chunk overhead of C=16 should win.
        let regular = summary(16.0, 4.0, 0.0, 0.5, 0.5);
        let c4 = estimate_with(&cfg, &dev, FormatKind::SellC4, &regular).unwrap();
        let c16 = estimate_with(&cfg, &dev, FormatKind::SellC16, &regular).unwrap();
        assert!(
            c16.gflops > c4.gflops,
            "short regular rows: C16 {:.2} must beat C4 {:.2}",
            c16.gflops,
            c4.gflops
        );
        // Skewed rows: wide chunks pad every row to the chunk max, so
        // the narrow chunk should win on stored bytes.
        let skewed = summary(16.0, 10.0, 1000.0, 0.5, 0.5);
        let c4s = estimate_with(&cfg, &dev, FormatKind::SellC4, &skewed).unwrap();
        let c16s = estimate_with(&cfg, &dev, FormatKind::SellC16, &skewed).unwrap();
        assert!(
            c4s.format_bytes_per_nnz < c16s.format_bytes_per_nnz,
            "skew: C4 stores {:.2} B/nnz vs C16 {:.2}",
            c4s.format_bytes_per_nnz,
            c16s.format_bytes_per_nnz
        );
    }

    #[test]
    fn unavailable_format_is_rejected() {
        let a100 = device_by_name("Tesla-A100").unwrap();
        let s = summary(4.0, 20.0, 0.0, 0.5, 0.5);
        assert_eq!(
            estimate(&a100, FormatKind::SparseX, &s).unwrap_err(),
            ModelFailure::FormatUnavailable
        );
    }

    #[test]
    fn estimates_are_deterministic() {
        let dev = device_by_name("Tesla-V100").unwrap().scaled(16.0);
        let s = summary(8.0, 20.0, 100.0, 0.5, 0.95);
        let a = estimate(&dev, FormatKind::Csr5, &s).unwrap();
        let b = estimate(&dev, FormatKind::Csr5, &s).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn power_is_within_device_envelope() {
        for dev in crate::specs::all_devices() {
            let dev = dev.scaled(16.0);
            let s = summary(16.0, 20.0, 0.0, 0.5, 0.95);
            for &kind in &dev.formats.clone() {
                if let Ok(e) = estimate(&dev, kind, &s) {
                    assert!(
                        e.watts >= dev.idle_w - 1e-9 && e.watts <= dev.max_w + 1e-9,
                        "{} {:?}: {} W outside [{}, {}]",
                        dev.name,
                        kind,
                        e.watts,
                        dev.idle_w,
                        dev.max_w
                    );
                    assert!(e.gflops > 0.0);
                    assert!(
                        e.gflops < 500.0,
                        "{} {:?}: {} GF implausible",
                        dev.name,
                        kind,
                        e.gflops
                    );
                }
            }
        }
    }
}
