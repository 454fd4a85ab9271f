//! The nine testbeds of Table II, with measured bandwidths and the
//! format/library sets available on each (vendor libraries are mapped
//! to the corresponding native formats of `spmv-formats`).

use serde::{Deserialize, Serialize};
use spmv_formats::{FormatKind, LaneProfile, LaneWidth};

/// Device family, driving which model branch applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// Multicore CPU (five testbeds).
    Cpu,
    /// NVIDIA GPU (three testbeds).
    Gpu,
    /// HBM FPGA (Alveo-U280).
    Fpga,
}

/// FPGA-specific model parameters (VSL pipeline + HBM channels).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FpgaParams {
    /// Number of execution units / HBM channels feeding the matrix.
    pub channels: usize,
    /// Accumulation pipeline depth (per-column padding granularity).
    pub pipeline_depth: usize,
    /// Per-channel matrix capacity in bytes.
    pub channel_capacity_bytes: usize,
    /// Kernel clock in GHz.
    pub clock_ghz: f64,
}

/// One testbed of Table II.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Display name, as in the paper.
    pub name: &'static str,
    /// CPU / GPU / FPGA.
    pub class: DeviceClass,
    /// Physical cores (CPU), CUDA cores (GPU) or execution units (FPGA).
    pub cores: usize,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Double-precision flops per cycle per core (SIMD width × FMA).
    pub dp_flops_per_cycle: f64,
    /// Last-level cache capacity in bytes (L2 for GPUs).
    pub llc_bytes: usize,
    /// Measured main-memory (DDR4/HBM2) bandwidth, GB/s (Table II).
    pub mem_bw_gbs: f64,
    /// Measured LLC bandwidth, GB/s (Table II).
    pub llc_bw_gbs: f64,
    /// Idle power draw in W.
    pub idle_w: f64,
    /// Peak power draw under full load in W.
    pub max_w: f64,
    /// Number of independent work chunks the runtime schedules
    /// (threads on CPUs, warp-groups on GPUs) — the `T` fed to the
    /// imbalance estimators.
    pub sched_units: usize,
    /// Nonzeros at which the device reaches half of its parallel
    /// utilization (GPUs need millions; CPUs a few thousand).
    pub nnz_half_util: f64,
    /// Formats/libraries available on this testbed (Table II row).
    pub formats: Vec<FormatKind>,
    /// FPGA pipeline parameters (None for CPUs/GPUs).
    pub fpga: Option<FpgaParams>,
}

impl DeviceSpec {
    /// Peak double-precision GFLOP/s.
    pub fn peak_gflops(&self) -> f64 {
        self.cores as f64 * self.freq_ghz * self.dp_flops_per_cycle
    }

    /// The SIMD lane profile this testbed's kernels should run at.
    ///
    /// `dp_flops_per_cycle` is SIMD lanes × 2 (FMA), so halving it
    /// recovers the double-precision vector width: AVX-512 (16) → 8
    /// lanes, AVX2 (8) → 4; two-lane units (NEON, VSX: 4) and
    /// scalar-rate GPUs (1) → 1, the lane kernels having no two-lane
    /// width.
    pub fn lane_profile(&self) -> LaneProfile {
        LaneProfile::with_width(LaneWidth::from_lanes((self.dp_flops_per_cycle / 2.0) as usize))
    }

    /// Returns a copy with capacities scaled down by `factor` — the
    /// counterpart of generating the dataset with footprints divided by
    /// the same factor (crossover points are preserved because every
    /// size-dependent effect is relative to a capacity).
    pub fn scaled(&self, factor: f64) -> DeviceSpec {
        let f = factor.max(1e-9);
        let mut d = self.clone();
        d.llc_bytes = ((self.llc_bytes as f64 / f).round() as usize).max(1);
        d.nnz_half_util = self.nnz_half_util / f;
        if let Some(ref mut p) = d.fpga {
            p.channel_capacity_bytes =
                ((p.channel_capacity_bytes as f64 / f).round() as usize).max(1);
        }
        d
    }
}

/// All nine testbeds of Table II (unscaled, paper-faithful constants).
pub fn all_devices() -> Vec<DeviceSpec> {
    use FormatKind::*;
    vec![
        DeviceSpec {
            name: "AMD-EPYC-24",
            class: DeviceClass::Cpu,
            cores: 24,
            freq_ghz: 2.8,
            dp_flops_per_cycle: 8.0, // AVX2 FMA: 4 lanes x 2
            llc_bytes: 128 * MB,
            mem_bw_gbs: 50.0,
            llc_bw_gbs: 700.0,
            idle_w: 70.0,
            max_w: 180.0,
            sched_units: 24,
            nnz_half_util: 60_000.0,
            formats: vec![
                NaiveCsr,
                VectorizedCsr,
                BalancedCsr,
                Csr5,
                MergeCsr,
                SparseX,
                SellCSigma,
                SellC4,
                SellC16,
            ],
            fpga: None,
        },
        DeviceSpec {
            name: "AMD-EPYC-64",
            class: DeviceClass::Cpu,
            cores: 64,
            freq_ghz: 2.25,
            dp_flops_per_cycle: 8.0,
            llc_bytes: 256 * MB,
            mem_bw_gbs: 105.0,
            llc_bw_gbs: 878.0,
            // RAPL package power of the 225 W-TDP part under load.
            idle_w: 110.0,
            max_w: 240.0,
            sched_units: 64,
            nnz_half_util: 150_000.0,
            // Reduced set: "due to access limitations ... we were not
            // able to run experiments on all formats" (§IV).
            formats: vec![NaiveCsr, VectorizedCsr, Csr5, MergeCsr, SellCSigma, SellC4, SellC16],
            fpga: None,
        },
        DeviceSpec {
            name: "ARM-NEON",
            class: DeviceClass::Cpu,
            cores: 80,
            freq_ghz: 3.3,
            dp_flops_per_cycle: 4.0, // NEON: 2 lanes x 2 (FMA)
            llc_bytes: 80 * MB,
            mem_bw_gbs: 102.0,
            llc_bw_gbs: 650.0,
            // Altra-HWMON readings: "the only CPU to stand out in terms
            // of power consumption" (§V-B.2).
            idle_w: 22.0,
            max_w: 105.0,
            sched_units: 80,
            nnz_half_util: 180_000.0,
            formats: vec![
                NaiveCsr,
                VectorizedCsr,
                BalancedCsr,
                MergeCsr,
                SparseX,
                SellCSigma,
                SellC4,
                SellC16,
            ],
            fpga: None,
        },
        DeviceSpec {
            name: "INTEL-XEON",
            class: DeviceClass::Cpu,
            cores: 14,
            freq_ghz: 2.2,
            dp_flops_per_cycle: 16.0, // AVX-512 FMA
            llc_bytes: (19.25 * MB as f64) as usize,
            mem_bw_gbs: 55.0,
            llc_bw_gbs: 300.0,
            idle_w: 50.0,
            max_w: 105.0,
            sched_units: 14,
            nnz_half_util: 40_000.0,
            formats: vec![
                NaiveCsr,
                VectorizedCsr,
                BalancedCsr,
                Csr5,
                MergeCsr,
                SparseX,
                SellCSigma,
                SellC4,
                SellC16,
            ],
            fpga: None,
        },
        DeviceSpec {
            name: "IBM-POWER9",
            class: DeviceClass::Cpu,
            cores: 16,
            freq_ghz: 3.8,
            dp_flops_per_cycle: 4.0,
            llc_bytes: 80 * MB,
            mem_bw_gbs: 109.0,
            llc_bw_gbs: 612.0,
            // "a pessimistic estimation of a constant, 200W TDP" (§IV).
            idle_w: 200.0,
            max_w: 200.0,
            sched_units: 32, // 2 threads/core, the best configuration
            nnz_half_util: 50_000.0,
            formats: vec![NaiveCsr, BalancedCsr, MergeCsr, SparseX],
            fpga: None,
        },
        DeviceSpec {
            name: "Tesla-P100",
            class: DeviceClass::Gpu,
            cores: 3584,
            freq_ghz: 1.48,
            dp_flops_per_cycle: 1.0, // FP64 at 1/2 rate handled by cores count
            llc_bytes: 4 * MB,
            mem_bw_gbs: 464.0,
            llc_bw_gbs: 1200.0,
            // Memory-bound SpMV draws well under the 250 W board limit.
            idle_w: 30.0,
            max_w: 180.0,
            sched_units: 896, // warps in flight
            nnz_half_util: 1_500_000.0,
            formats: vec![NaiveCsr, Coo, Hyb, Csr5, MergeCsr],
            fpga: None,
        },
        DeviceSpec {
            name: "Tesla-V100",
            class: DeviceClass::Gpu,
            cores: 5120,
            freq_ghz: 1.455,
            dp_flops_per_cycle: 1.0,
            llc_bytes: 6 * MB,
            mem_bw_gbs: 760.0,
            llc_bw_gbs: 2000.0,
            idle_w: 30.0,
            max_w: 180.0,
            sched_units: 1280,
            nnz_half_util: 2_500_000.0,
            formats: vec![NaiveCsr, Coo, Hyb, Csr5, MergeCsr],
            fpga: None,
        },
        DeviceSpec {
            name: "Tesla-A100",
            class: DeviceClass::Gpu,
            cores: 6912,
            freq_ghz: 1.412,
            dp_flops_per_cycle: 1.0,
            llc_bytes: 40 * MB,
            mem_bw_gbs: 1350.0,
            llc_bw_gbs: 4000.0,
            idle_w: 55.0,
            max_w: 220.0,
            sched_units: 1728,
            nnz_half_util: 4_000_000.0,
            // "the range of research formats tested in the Tesla-A100
            // was limited by the lower availability of CUDA-SDK 11
            // updated formats" (§IV).
            formats: vec![NaiveCsr, Coo, MergeCsr],
            fpga: None,
        },
        DeviceSpec {
            name: "Alveo-U280",
            class: DeviceClass::Fpga,
            cores: 16, // execution units
            freq_ghz: 0.3,
            // Each unit drives a `pipeline_depth`-deep accumulator, one
            // FMA per lane per cycle: 16 × 8 × 0.3 GHz × 2 flops.
            dp_flops_per_cycle: 8.0,
            llc_bytes: 8 * MB, // URAM buffers
            mem_bw_gbs: 287.5,
            llc_bw_gbs: 287.5,
            // xbutil reports kernel+HBM power, far below the GPU boards.
            idle_w: 5.0,
            max_w: 16.0,
            sched_units: 16,
            nnz_half_util: 200_000.0,
            formats: vec![FormatKind::Vsl],
            fpga: Some(FpgaParams {
                channels: 16,
                pipeline_depth: 8,
                channel_capacity_bytes: 256 * MB,
                clock_ghz: 0.3,
            }),
        },
    ]
}

/// Finds a device by name (exact match): a Table II testbed, or the
/// measured [`crate::host`] profile (`"Host"`), which is not one of the
/// nine and so not in [`all_devices`].
pub fn device_by_name(name: &str) -> Option<DeviceSpec> {
    if name == crate::host::NAME {
        return Some(crate::HostTable::committed_spec());
    }
    all_devices().into_iter().find(|d| d.name == name)
}

const MB: usize = 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_devices_with_unique_names() {
        let d = all_devices();
        assert_eq!(d.len(), 9);
        let mut names: Vec<_> = d.iter().map(|x| x.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 9);
        assert_eq!(d.iter().filter(|x| x.class == DeviceClass::Cpu).count(), 5);
        assert_eq!(d.iter().filter(|x| x.class == DeviceClass::Gpu).count(), 3);
        assert_eq!(d.iter().filter(|x| x.class == DeviceClass::Fpga).count(), 1);
    }

    #[test]
    fn table_ii_constants_spot_checks() {
        let epyc64 = device_by_name("AMD-EPYC-64").unwrap();
        assert_eq!(epyc64.cores, 64);
        assert_eq!(epyc64.llc_bytes, 256 * MB);
        assert_eq!(epyc64.mem_bw_gbs, 105.0);
        let a100 = device_by_name("Tesla-A100").unwrap();
        assert_eq!(a100.mem_bw_gbs, 1350.0);
        let u280 = device_by_name("Alveo-U280").unwrap();
        assert_eq!(u280.mem_bw_gbs, 287.5);
        assert!(u280.fpga.is_some());
        let p9 = device_by_name("IBM-POWER9").unwrap();
        assert_eq!(p9.idle_w, 200.0);
        assert_eq!(p9.max_w, 200.0);
    }

    #[test]
    fn format_availability_follows_table_ii() {
        use FormatKind::*;
        let a100 = device_by_name("Tesla-A100").unwrap();
        assert!(a100.formats.contains(&Coo));
        assert!(!a100.formats.contains(&Hyb), "HYB needs cuSPARSE 9.2");
        let v100 = device_by_name("Tesla-V100").unwrap();
        assert!(v100.formats.contains(&Hyb));
        assert!(v100.formats.contains(&Csr5));
        let u280 = device_by_name("Alveo-U280").unwrap();
        assert_eq!(u280.formats, vec![Vsl]);
        let epyc24 = device_by_name("AMD-EPYC-24").unwrap();
        assert!(epyc24.formats.contains(&SparseX));
        assert!(epyc24.formats.len() > device_by_name("AMD-EPYC-64").unwrap().formats.len());
    }

    #[test]
    fn scaling_preserves_ratios() {
        let d = device_by_name("AMD-EPYC-64").unwrap();
        let s = d.scaled(16.0);
        assert_eq!(s.llc_bytes, 16 * MB);
        assert_eq!(s.mem_bw_gbs, d.mem_bw_gbs, "bandwidths are not capacities");
        assert!((s.nnz_half_util - d.nnz_half_util / 16.0).abs() < 1e-9);
        let u = device_by_name("Alveo-U280").unwrap().scaled(16.0);
        assert_eq!(u.fpga.unwrap().channel_capacity_bytes, 16 * MB);
    }

    #[test]
    fn peak_gflops_sanity() {
        let a100 = device_by_name("Tesla-A100").unwrap();
        // ~9.7 TF FP64.
        assert!((a100.peak_gflops() - 9759.7).abs() < 10.0);
        let epyc24 = device_by_name("AMD-EPYC-24").unwrap();
        assert!((epyc24.peak_gflops() - 537.6).abs() < 1.0);
        let u280 = device_by_name("Alveo-U280").unwrap();
        assert!((u280.peak_gflops() - 38.4).abs() < 0.1);
    }

    #[test]
    fn lane_profiles_follow_simd_width() {
        let cases = [
            ("INTEL-XEON", LaneWidth::W8),  // AVX-512
            ("AMD-EPYC-24", LaneWidth::W4), // AVX2
            ("ARM-NEON", LaneWidth::W1),    // NEON: no two-lane kernels
            ("Tesla-A100", LaneWidth::W1),  // scalar-rate FP64
            ("IBM-POWER9", LaneWidth::W1),  // VSX: likewise
        ];
        for (name, width) in cases {
            assert_eq!(device_by_name(name).unwrap().lane_profile().width, width, "{name}");
        }
    }

    #[test]
    fn sell_chunk_width_variants_ride_with_sellcs() {
        use FormatKind::*;
        for d in all_devices() {
            let has_sell = d.formats.contains(&SellCSigma);
            let is_cpu = d.class == DeviceClass::Cpu;
            assert_eq!(
                d.formats.contains(&SellC4) && d.formats.contains(&SellC16),
                has_sell && is_cpu,
                "{}: chunk-width variants accompany SELL-C-s on CPUs",
                d.name
            );
        }
    }

    #[test]
    fn unknown_device_lookup() {
        assert!(device_by_name("Cray-1").is_none());
    }
}
