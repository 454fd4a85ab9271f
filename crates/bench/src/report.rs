//! The shared bench reporter: measurements ship as `BENCH_<bench>.json`
//! at the repository root (ROADMAP, "numbers ship as JSON"), every
//! record carrying the host facts a reader needs to judge it.
//!
//! The workspace's `serde` is an offline no-op shim, so this is a
//! hand-rolled writer: a [`Json`] value tree rendered with stable key
//! order (insertion order) and one key per line, so committed files
//! diff cleanly.

use spmv_devices::HostTable;
use spmv_formats::kernels::vector_isa;
use spmv_formats::LaneProfile;
use std::fmt::Write as _;
use std::path::Path;

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

/// What a reader needs to know about the machine and build a record
/// came from: hardware threads, the `SPMV_THREADS` / `SPMV_LANES`
/// overrides in force, the lane width of the host probe (`lanes`) and
/// the one the default engine serves at (`served_lanes`,
/// [`served_profile`]), the vector instruction set the lane kernels
/// detected, the CPU model and the git revision.
pub fn host_facts() -> Json {
    let env = |name: &str| std::env::var(name).map(Json::Str).unwrap_or(Json::Str("unset".into()));
    let (lanes, served) = (LaneProfile::current(), served_profile());
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
        ] {
            assert!(keys.contains(&key), "{key} missing from {keys:?}");
        }
    }
}
