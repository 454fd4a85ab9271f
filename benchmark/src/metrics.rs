//! The metric names of `BENCHMARK.json`, as the harness emits them. A
//! unit test holds the two lists together.

use crate::json::{obj, Value};
use spmv_formats::FormatKind;
use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`: every workload reports every one
/// (see README.md for what each means on each workload).
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("ops_per_s", "1/s"), ("typical_us", "us"), ("slow_us", "us")];

/// Per-format metric families, one metric per `FormatKind` each.
pub const PER_FORMAT: [(&str, &str); 4] = [
    ("formats.spmv_gflops", "GFLOP/s"),
    ("formats.gbs", "GB/s"),
    ("formats.bytes_per_nnz", "B/nnz"),
    ("formats.convert_ms", "ms"),
];

const PER_LAYER_FIXED: [(&str, &str); 58] = [
    ("host.triad_gbs", "GB/s"),
    ("host.triad_ws_gbs", "GB/s"),
    ("host.llc_bytes", "B"),
    ("host.timer_ns", "ns"),
    ("gen.materialize_s", "s"),
    ("devices.train_s", "s"),
    ("analysis.fit_ms", "ms"),
    ("core.extract_ns_per_nnz", "ns/nnz"),
    ("core.csr_spmv_gflops", "GFLOP/s"),
    ("analysis.recommend_us", "us"),
    ("formats.refusals", "count"),
    ("formats.spmv_gflops.selected", "GFLOP/s"),
    ("formats.spmv_par_gflops.selected", "GFLOP/s"),
    ("formats.spmm_gflops.selected", "GFLOP/s"),
    ("formats.spmv_dot_gflops.selected", "GFLOP/s"),
    ("formats.roof_frac.selected", "ratio"),
    ("analysis.regret_geomean", "ratio"),
    ("analysis.regret_max", "ratio"),
    ("analysis.top1", "ratio"),
    ("analysis.speedup_vs_csr", "ratio"),
    ("parallel.spmv_par_speedup", "ratio"),
    ("parallel.fork_join_us", "us"),
    ("parallel.dot_gbs", "GB/s"),
    ("parallel.axpy_gbs", "GB/s"),
    ("parallel.high_tasks", "count"),
    ("parallel.low_tasks", "count"),
    ("parallel.steals", "count"),
    ("parallel.parks", "count"),
    ("engine.front_door_ns", "ns"),
    ("engine.front_door_contended_ns", "ns"),
    ("engine.plan_get_ns", "ns"),
    ("engine.cache_hit_ns", "ns"),
    ("engine.counters_ns", "ns"),
    ("engine.cold_first_ms", "ms"),
    ("engine.cold_first_p90_ms", "ms"),
    ("engine.cold_follow_us", "us"),
    ("engine.cold_self_ms", "ms"),
    ("engine.clone_ms", "ms"),
    ("engine.hit_ratio", "ratio"),
    ("engine.selected_ratio", "ratio"),
    ("engine.reconvert_ratio", "ratio"),
    ("engine.evictions", "count"),
    ("engine.requests", "count"),
    ("engine.conversions", "count"),
    ("engine.fallbacks", "count"),
    ("engine.coalesced", "count"),
    ("engine.swaps", "count"),
    ("engine.flights_scheduled", "count"),
    ("engine.resident_over_csr", "ratio"),
    ("engine.snapshot_mb_s", "MB/s"),
    ("engine.restore_mb_s", "MB/s"),
    ("engine.snapshot_bytes", "B"),
    ("engine.solve.setup_ms", "ms"),
    ("engine.solve.iter_us", "us"),
    ("engine.solve.cg_iters", "count"),
    ("engine.solve.bicgstab_iters", "count"),
    ("engine.solve.spmv_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// Every per-layer metric `(name, unit)`, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    all.push(("bench.spans".into(), "count"));
    for (family, unit) in PER_FORMAT {
        for kind in FormatKind::ALL {
            all.push((format!("{family}.{}", kind.name()), unit));
        }
    }
    all
}

/// The metrics of one run, by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line: exactly the `wanted`
    /// names, each with its unit. A missing or non-finite value is a
    /// harness bug and is reported, never papered over.
    pub fn to_json(&self, wanted: &[(String, &'static str)]) -> Result<Value, String> {
        let mut fields = Vec::with_capacity(wanted.len());
        for (name, unit) in wanted {
            match self.get(name) {
                Some(v) if v.is_finite() => fields
                    .push((name.clone(), obj([("value", v.into()), ("unit", (*unit).into())]))),
                Some(v) => return Err(format!("metric {name} is not finite ({v})")),
                None => return Err(format!("metric {name} was not measured")),
            }
        }
        Ok(Value::Obj(fields))
    }
}

pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` and the harness must name the same metrics with
    /// the same units, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |defs: Vec<(String, &'static str)>| -> Vec<(String, String)> {
            defs.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), ours(end_to_end()));
        assert_eq!(listed("per_layer"), ours(per_layer()));
        assert!(per_layer().len() <= 128);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn missing_or_non_finite_metrics_are_reported() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.25);
        let wanted = vec![("setup_s".to_string(), "s"), ("ops_per_s".to_string(), "1/s")];
        assert!(m.to_json(&wanted).unwrap_err().contains("ops_per_s was not measured"));
        m.set("ops_per_s", f64::NAN);
        assert!(m.to_json(&wanted).unwrap_err().contains("not finite"));
        m.set("ops_per_s", 2.0);
        let v = m.to_json(&wanted).unwrap();
        assert_eq!(v.get("setup_s").unwrap().get("unit").unwrap().as_str(), Some("s"));
    }
}
