//! The shared bench reporter: measurements ship as `BENCH_<bench>.json`
//! at the repository root (ROADMAP, "numbers ship as JSON"), every
//! record carrying the host facts a reader needs to judge it.
//!
//! The workspace's `serde` is an offline no-op shim, so this is a
//! hand-rolled writer: a [`Json`] value tree rendered with stable key
//! order (insertion order) and one key per line, so committed files
//! diff cleanly.

use spmv_core::features::SAMPLE_NNZ;
use spmv_devices::HostTable;
use spmv_formats::kernels::{
    vector_isa, ACROSS, ACROSS_GATHER_MAX_WIDTH, ACROSS_MAX_PADDING_PERCENT, ACROSS_MAX_X,
    ACROSS_MIN_ENTRIES,
};
use spmv_formats::LaneProfile;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered `(key, value)` pairs.
    Obj(Vec<(String, Json)>),
}

macro_rules! json_from {
    ($($from:ty => $make:expr;)*) => {$(
        impl From<$from> for Json {
            fn from(v: $from) -> Self {
                $make(v)
            }
        }
    )*};
}
json_from! {
    bool => Json::Bool;
    f64 => Json::Num;
    usize => |v| Json::Num(v as f64);
    &str => |v: &str| Json::Str(v.to_string());
    String => Json::Str;
}

/// Builds a [`Json::Obj`] from `(key, value)` pairs.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Json {
    /// Renders the value as indented JSON text (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, depth: usize| out.push_str(&"  ".repeat(depth));
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            // Integers print without a fraction; other values with the
            // shortest digits that round-trip.
            Json::Num(n) => write!(out, "{n}").expect("writing to a String"),
            Json::Str(s) => {
                out.push('"');
                for ch in s.chars() {
                    match ch {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            // Containers of scalars stay on one line, so a table row
            // reads as a row; anything nested goes one item per line.
            Json::Arr(items) if items.iter().all(Json::is_scalar) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    item.render_into(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) if fields.iter().all(|(_, v)| v.is_scalar()) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    Json::Str(key.clone()).render_into(out, depth);
                    out.push_str(": ");
                    value.render_into(out, depth);
                }
                out.push('}');
            }
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    item.render_into(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    pad(out, depth + 1);
                    Json::Str(key.clone()).render_into(out, depth + 1);
                    out.push_str(": ");
                    value.render_into(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push('}');
            }
        }
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }
}

/// Three decimal places: enough for a GFLOP/s, a ratio or a microsecond
/// count, and a committed file that does not churn in the 15th digit.
pub fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

/// First line of `git <args>` run at the repository root, if git and a
/// repository are there.
fn git(args: &[&str]) -> Option<String> {
    let out =
        std::process::Command::new("git").args(args).current_dir(repo_root()).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The repository root (two levels above this crate's manifest).
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels deep")
}

/// The CPU model string of `/proc/cpuinfo` (`"unknown"` elsewhere).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `model` without a trailing ` @ <clock>` (`"Intel(R) Xeon(R)
/// Processor @ 2.10GHz"` → `"Intel(R) Xeon(R) Processor"`): one CPU
/// reports its model with and without the clock on different kernels
/// and hypervisors.
pub fn cpu_model_without_clock(model: &str) -> &str {
    match model.rsplit_once(" @ ") {
        Some((name, clock)) if clock.trim_end().ends_with("Hz") => name.trim_end(),
        _ => model,
    }
}

/// The git revision of the tree (`-dirty` when it has uncommitted
/// changes; `"unknown"` without git or a repository).
pub fn git_rev() -> String {
    git(&["describe", "--always", "--dirty", "--abbrev=12"]).unwrap_or_else(|| "unknown".into())
}

/// The lane profile `Engine::new(EngineConfig::default())` serves at on
/// this host: `SPMV_LANES` if set, else the width the committed host
/// table was swept at — not necessarily the probe's.
pub fn served_profile() -> LaneProfile {
    LaneProfile::resolve(Some(HostTable::committed_spec().lane_profile()))
}

/// How busy the guest was when the run started ([`start`]).
static START: OnceLock<(Json, Json)> = OnceLock::new();

/// Records how busy the guest is as a run starts; the gate binaries
/// call it first, and [`host_facts`] reports it beside the same reading
/// at the end.
pub fn start() {
    START.get_or_init(busy);
}

/// The guest's 1, 5 and 15 minute load averages (`/proc/loadavg`) and
/// the nanoseconds this process has waited for a CPU
/// (`/proc/self/schedstat`'s run delay); `"unknown"` where the files
/// are not.
fn busy() -> (Json, Json) {
    let read = |path| std::fs::read_to_string(path).ok();
    let load =
        read("/proc/loadavg").map(|t| t.split_whitespace().take(3).collect::<Vec<_>>().join(" "));
    let delay = read("/proc/self/schedstat")
        .and_then(|t| t.split_whitespace().nth(1).and_then(|d| d.parse::<f64>().ok()));
    let unknown = || Json::Str("unknown".into());
    (load.map_or_else(unknown, Json::Str), delay.map_or_else(unknown, Json::Num))
}

/// The cut-offs that decide which kernel body runs, as the kernels and
/// the feature estimate read them: Naive-CSR's rows across the lanes
/// (block rows, the padding share and width that pick a block's path,
/// the range and `x` sizes that keep the scalar loop) and the
/// estimate's sample size.
fn cutoffs() -> Json {
    obj([
        ("across_rows", ACROSS.into()),
        ("across_max_padding_percent", ACROSS_MAX_PADDING_PERCENT.into()),
        ("across_gather_max_width", ACROSS_GATHER_MAX_WIDTH.into()),
        ("across_min_entries", ACROSS_MIN_ENTRIES.into()),
        ("across_max_x", ACROSS_MAX_X.into()),
        ("sample_nnz", SAMPLE_NNZ.into()),
    ])
}

/// What a reader needs to know about the machine and build a record
/// came from: hardware threads, the `SPMV_THREADS` / `SPMV_LANES`
/// overrides in force, the lane width of the host probe (`lanes`) and
/// the one the default engine serves at (`served_lanes`,
/// [`served_profile`]), the vector instruction set the lane kernels
/// detected, the CPU model, the git revision, the kernels' cut-offs,
/// and how busy the guest was at the start ([`start`]) and the end of
/// the run.
pub fn host_facts() -> Json {
    let env = |name: &str| std::env::var(name).map(Json::Str).unwrap_or(Json::Str("unset".into()));
    let (lanes, served) = (LaneProfile::current(), served_profile());
    let unknown = || (Json::Str("unknown".into()), Json::Str("unknown".into()));
    let (load_start, delay_start) = START.get().cloned().unwrap_or_else(unknown);
    let (load_end, delay_end) = busy();
    obj([
        ("cpu_model", cpu_model().into()),
        (
            "hardware_threads",
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).into(),
        ),
        ("SPMV_THREADS", env("SPMV_THREADS")),
        ("SPMV_LANES", env("SPMV_LANES")),
        ("lanes", lanes.width.lanes().into()),
        ("served_lanes", served.width.lanes().into()),
        ("vector_isa", vector_isa().into()),
        ("git_rev", git_rev().into()),
        ("cutoffs", cutoffs()),
        ("loadavg_start", load_start),
        ("loadavg_end", load_end),
        ("run_delay_ns_start", delay_start),
        ("run_delay_ns_end", delay_end),
    ])
}

/// Writes `{"bench", "host", ...body}` to `BENCH_<bench>.json` at the
/// repository root and prints the path; a bench that cannot leave its
/// record exits with status 1.
pub fn write<const N: usize>(bench: &str, body: [(&str, Json); N]) {
    let Json::Obj(mut fields) = obj([("bench", bench.into()), ("host", host_facts())]) else {
        unreachable!("obj builds an object")
    };
    fields.extend(body.into_iter().map(|(k, v)| (k.to_string(), v)));
    let path = repo_root().join(format!("BENCH_{bench}.json"));
    if let Err(e) = std::fs::write(&path, Json::Obj(fields).render() + "\n") {
        eprintln!("could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}

/// The verdict of a gate binary: `passed` on stdout, or the misses on
/// stderr and exit status 1.
pub fn gate(passed: &str, misses: &[String]) {
    if misses.is_empty() {
        return println!("gate: {passed}");
    }
    eprintln!("gate: FAILED");
    for m in misses {
        eprintln!("  {m}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_with_stable_order_and_escapes() {
        let v = obj([
            ("name", "a \"quoted\"\nline".into()),
            ("ok", true.into()),
            ("n", 3usize.into()),
            ("x", 1.5.into()),
            ("bad", f64::NAN.into()),
            ("row", Json::Arr(vec![1usize.into(), "b".into()])),
            ("rows", Json::Arr(vec![obj([("k", 8usize.into())])])),
            ("empty", Json::Arr(vec![])),
        ]);
        let want = r#"{
  "name": "a \"quoted\"\nline",
  "ok": true,
  "n": 3,
  "x": 1.5,
  "bad": null,
  "row": [1, "b"],
  "rows": [
    {"k": 8}
  ],
  "empty": []
}"#;
        assert_eq!(v.render(), want);
    }

    #[test]
    fn host_facts_name_threads_lanes_and_revision() {
        let Json::Obj(fields) = host_facts() else { panic!("host facts are an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        for key in [
            "hardware_threads",
            "SPMV_THREADS",
            "SPMV_LANES",
            "lanes",
            "served_lanes",
            "vector_isa",
            "git_rev",
            "cutoffs",
            "loadavg_start",
            "loadavg_end",
            "run_delay_ns_start",
            "run_delay_ns_end",
        ] {
            assert!(keys.contains(&key), "{key} missing from {keys:?}");
        }
        // After `start`, both readings are taken where Linux has the file.
        start();
        let Json::Obj(fields) = host_facts() else { panic!("host facts are an object") };
        let field = |k: &str| &fields.iter().find(|(key, _)| key == k).expect("listed").1;
        if std::path::Path::new("/proc/self/schedstat").exists() {
            for key in ["run_delay_ns_start", "run_delay_ns_end"] {
                assert!(matches!(field(key), Json::Num(d) if *d >= 0.0), "{key}");
            }
        }
    }

    #[test]
    fn cpu_models_compare_without_their_clock() {
        let bare = "Intel(R) Xeon(R) Processor";
        assert_eq!(cpu_model_without_clock("Intel(R) Xeon(R) Processor @ 2.10GHz"), bare);
        assert_eq!(cpu_model_without_clock(bare), bare);
        assert_eq!(cpu_model_without_clock("Some CPU @ 2 GHz"), "Some CPU");
        // Only a clock goes: an `@` inside a name stays.
        assert_eq!(cpu_model_without_clock("Board @ rev B"), "Board @ rev B");
    }
}
