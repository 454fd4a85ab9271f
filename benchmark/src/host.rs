//! Host facts recorded with every result, and the two context probes
//! (memory bandwidth roof, timer cost) the per-layer numbers are read
//! against.

use crate::json::{obj, Value};
use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// What the numbers of a run depend on besides the code.
#[derive(Debug, Clone)]
pub struct HostFacts {
    pub cpu_model: String,
    pub nproc: usize,
    pub l2_bytes: u64,
    pub llc_bytes: u64,
    pub ram_bytes: u64,
    pub git_rev: String,
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Parses sysfs cache sizes such as `2048K` or `260M`.
fn parse_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, mult) = match t.as_bytes().last()? {
        b'K' => (&t[..t.len() - 1], 1 << 10),
        b'M' => (&t[..t.len() - 1], 1 << 20),
        b'G' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

/// Hardware threads this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl HostFacts {
    /// Reads what the OS exposes; anything unreadable stays "unknown"/0
    /// (the facts annotate results, they never gate them).
    pub fn probe() -> Self {
        let cpu_model = read("/proc/cpuinfo")
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let cache = |index: usize, file: &str| {
            read(&format!("/sys/devices/system/cpu/cpu0/cache/index{index}/{file}"))
        };
        let (mut l2_bytes, mut llc_bytes) = (0, 0);
        for index in 0..8 {
            let Some(size) = cache(index, "size").and_then(|s| parse_size(&s)) else { continue };
            if cache(index, "level").is_some_and(|l| l.trim() == "2") {
                l2_bytes = size;
            }
            llc_bytes = llc_bytes.max(size);
        }
        let ram_bytes = read("/proc/meminfo")
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("MemTotal:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<u64>().ok())
            })
            .map_or(0, |kb| kb << 10);
        // The driver's checkout is not a git repository; a developer's is.
        let git_rev = read(".git/HEAD")
            .map(|head| match head.trim().strip_prefix("ref: ") {
                Some(r) => read(&format!(".git/{r}")).unwrap_or(head.clone()).trim().to_string(),
                None => head.trim().to_string(),
            })
            .unwrap_or_else(|| "unknown".into());
        HostFacts { cpu_model, nproc: nproc(), l2_bytes, llc_bytes, ram_bytes, git_rev }
    }

    pub fn to_json(&self) -> Value {
        obj([
            ("cpu_model", self.cpu_model.as_str().into()),
            ("nproc", self.nproc.into()),
            ("l2_bytes", self.l2_bytes.into()),
            ("llc_bytes", self.llc_bytes.into()),
            ("ram_bytes", self.ram_bytes.into()),
            ("dram_triad_array_bytes", (dram_triad_elems(self) * 8).into()),
            ("git_rev", self.git_rev.as_str().into()),
        ])
    }
}

/// Single-thread STREAM-triad bandwidth `a = b + s·c` over three arrays
/// of `elems` doubles, in GB/s of computed traffic (24 bytes per
/// element; write-allocate traffic not counted). The initialising pass
/// doubles as the warm-up; the median of `passes` timed passes is
/// reported.
pub fn triad_gbs(elems: usize, passes: usize) -> f64 {
    let mut a = vec![0.0f64; elems];
    let b = vec![1.5f64; elems];
    let c = vec![0.25f64; elems];
    let mut times = Vec::with_capacity(passes);
    for pass in 0..=passes {
        let s = 3.0 + pass as f64;
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        if pass > 0 {
            times.push(t.elapsed().as_secs_f64());
        }
    }
    (24 * elems) as f64 / median(&times) / 1e9
}

/// Largest array the DRAM triad touches. The rule is "each array four
/// times the last-level cache"; on the reference VM (260 MiB of
/// reported L3, first-touch page faults at ~6 s per GiB) that is 3 GiB
/// and 20 s of faults in every traced run, so time caps the size. The
/// result records both sizes.
const DRAM_TRIAD_CAP_BYTES: u64 = 128 << 20;

/// Elements per array of the DRAM triad: four times the last-level
/// cache, the three arrays together at most a quarter of RAM, each at
/// most `DRAM_TRIAD_CAP_BYTES`.
pub fn dram_triad_elems(host: &HostFacts) -> usize {
    // Unknown cache/RAM sizes fall back to 64 MiB / 4 GiB.
    let llc = if host.llc_bytes == 0 { 64 << 20 } else { host.llc_bytes };
    let ram = if host.ram_bytes == 0 { 4 << 30 } else { host.ram_bytes };
    ((4 * llc).min(ram / 4 / 3).min(DRAM_TRIAD_CAP_BYTES) / 8) as usize
}

/// Cost of one `Instant::now()` + `elapsed()` pair in nanoseconds — what
/// each sampled latency carries on top of the call it times.
pub fn timer_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let start = Instant::now();
    let mut sink = 0u128;
    for _ in 0..PAIRS {
        sink += black_box(Instant::now()).elapsed().as_nanos();
    }
    black_box(sink);
    start.elapsed().as_nanos() as f64 / PAIRS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("2048K\n"), Some(2 << 20));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("xK"), None);
    }

    #[test]
    fn dram_triad_respects_its_limits() {
        let mut h = HostFacts::probe();
        (h.llc_bytes, h.ram_bytes) = (16 << 20, 64 << 30);
        assert_eq!(dram_triad_elems(&h) * 8, 64 << 20); // 4 × LLC
        (h.llc_bytes, h.ram_bytes) = (64 << 20, 3 << 28);
        assert_eq!(dram_triad_elems(&h) * 8 * 3, 3 << 26); // RAM / 4
        (h.llc_bytes, h.ram_bytes) = (260 << 20, 16 << 30);
        assert_eq!(dram_triad_elems(&h) * 8, 128 << 20); // the time cap
    }

    #[test]
    fn probes_return_positive_numbers() {
        assert!(triad_gbs(1 << 16, 2) > 0.0);
        assert!(timer_ns() > 0.0);
    }
}
