//! Tiny argument parser shared by the bench binaries (no external CLI
//! dependency): the `figures` run configuration and the flag walker.

use spmv_gen::dataset::{Dataset, DatasetSize};

/// Common configuration of a figure run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Footprint divisor vs. the paper's sizes (default 16).
    pub scale: f64,
    /// Keep every `stride`-th matrix of the dataset (default 12 — a
    /// ~1350-matrix subsample of the 16200; use `--stride 1` for the
    /// full campaign).
    pub stride: usize,
    /// Dataset size (small/medium/large).
    pub size: DatasetSize,
    /// Base seed.
    pub seed: u64,
    /// Optional CSV output directory.
    pub csv_dir: Option<String>,
    /// Number of worker threads (default: all cores).
    pub threads: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            scale: 16.0,
            stride: 12,
            size: DatasetSize::Medium,
            seed: 0x5EED_CAFE,
            csv_dir: None,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        }
    }
}

/// Usage of the `figures` binary: the flags of [`RunConfig::parse`].
pub const RUN_USAGE: &str = "figures <name>...|all [--scale F (default 16)] [--stride N (default \
     12)] [--size small|medium|large] [--seed N] [--csv DIR] [--threads N]";

impl RunConfig {
    /// Parses the flags of [`RUN_USAGE`]; unknown ones abort with it.
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut cfg = Self::default();
        parse_flags_from(args, RUN_USAGE, &[], |flag, value| {
            match flag {
                "--scale" => cfg.scale = value.parse().expect("numeric --scale"),
                "--stride" => cfg.stride = value.parse().expect("integer --stride"),
                "--seed" => cfg.seed = value.parse().expect("integer --seed"),
                "--threads" => cfg.threads = value.parse().expect("integer --threads"),
                "--csv" => cfg.csv_dir = Some(value.to_string()),
                "--size" => {
                    cfg.size = match value {
                        "small" => DatasetSize::Small,
                        "medium" => DatasetSize::Medium,
                        "large" => DatasetSize::Large,
                        other => panic!("--size small|medium|large, not {other}"),
                    }
                }
                _ => return false,
            }
            true
        });
        cfg
    }

    /// The dataset this configuration describes.
    pub fn dataset(&self) -> Dataset {
        Dataset { size: self.size, scale: self.scale, base_seed: self.seed }
    }

    /// Writes a CSV file into the configured directory, if any.
    pub fn write_csv(&self, name: &str, content: &str) {
        if let Some(dir) = &self.csv_dir {
            let _ = std::fs::create_dir_all(dir);
            let path = format!("{dir}/{name}.csv");
            if let Err(e) = std::fs::write(&path, content) {
                eprintln!("warning: failed to write {path}: {e}");
            } else {
                println!("[csv] wrote {path}");
            }
        }
    }

    /// The standard run banner (two lines, newline-terminated).
    pub fn banner(&self, figure: &str) -> String {
        format!(
            "=== {figure} ===\nconfig: scale 1/{} of paper sizes, dataset {} stride {} ({} matrices), seed {:#x}, {} threads\n",
            self.scale,
            self.size.name(),
            self.stride,
            self.dataset().len().div_ceil(self.stride.max(1)),
            self.seed,
            self.threads,
        )
    }
}

/// Shared `--flag value` parsing skeleton of the bench binaries: walks
/// the process arguments, prints `usage` and exits on `--help`, a
/// missing value, or a flag `apply` rejects. `apply(flag, value)`
/// returns `false` for unknown flags; `switches` are flags that take no
/// value, handed to `apply` with an empty one.
pub fn parse_flags(usage: &str, switches: &[&str], apply: impl FnMut(&str, &str) -> bool) {
    parse_flags_from(std::env::args().skip(1), usage, switches, apply)
}

/// [`parse_flags`] over an explicit argument list.
pub fn parse_flags_from(
    args: impl Iterator<Item = String>,
    usage: &str,
    switches: &[&str],
    mut apply: impl FnMut(&str, &str) -> bool,
) {
    let argv: Vec<String> = args.collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--help" || flag == "-h" {
            println!("{usage}");
            std::process::exit(0);
        }
        let is_switch = switches.contains(&flag);
        let value = match argv.get(i + 1) {
            _ if is_switch => "",
            Some(value) => value.as_str(),
            None => {
                eprintln!("missing value for {flag}; usage: {usage}");
                std::process::exit(2);
            }
        };
        if !apply(flag, value) {
            eprintln!("unknown flag {flag}; usage: {usage}");
            std::process::exit(2);
        }
        i += if is_switch { 1 } else { 2 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> RunConfig {
        RunConfig::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn defaults() {
        let c = parse("");
        assert_eq!(c.scale, 16.0);
        assert_eq!(c.stride, 12);
        assert_eq!(c.size, DatasetSize::Medium);
    }

    #[test]
    fn flags_override() {
        let c = parse("--scale 64 --stride 3 --size small --seed 7 --threads 2 --csv out");
        assert_eq!(c.scale, 64.0);
        assert_eq!(c.stride, 3);
        assert_eq!(c.size, DatasetSize::Small);
        assert_eq!(c.seed, 7);
        assert_eq!(c.threads, 2);
        assert_eq!(c.csv_dir.as_deref(), Some("out"));
    }

    #[test]
    fn dataset_matches_config() {
        let c = parse("--scale 32 --size large");
        let d = c.dataset();
        assert_eq!(d.scale, 32.0);
        assert_eq!(d.size, DatasetSize::Large);
    }
}
