//! `compare A B`: judges result set B (a change) against result set A
//! (its parent) with the bounds of `BENCHMARK.json` — median against
//! median, per workload and end-to-end metric. Where the run-to-run
//! spread of either side exceeds the bound the verdict is "unresolved",
//! not "unchanged", unless every run of B beats every run of A.

use crate::json::{self, Value};
use crate::stats::{median, spread};
use std::path::Path;

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Within,
    Better,
    Unresolved,
    Breach,
}

/// `worse` is the share of A's median by which B's median is worse
/// (negative when B is better).
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse = if higher_is_better { (ma - mb) / ma } else { (mb - ma) / ma };
    let noise = [a, b].into_iter().filter(|v| v.len() >= 2).map(spread).fold(0.0, f64::max);
    let b_always_better =
        a.iter().all(|&x| b.iter().all(|&y| if higher_is_better { y > x } else { y < x }));
    let verdict = if b_always_better {
        Verdict::Better
    } else if noise > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Breach
    } else {
        Verdict::Within
    };
    (verdict, worse, noise)
}

/// Values of `metric` over the runs of one result file.
fn values(file: &Value, metric: &str) -> Vec<f64> {
    file.get("runs")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| run.get("result")?.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Per-layer metrics that must repeat exactly between two runs of the
/// same code at the same seed and pool width.
fn is_exact(workload: &str, metric: &str) -> bool {
    metric.starts_with("formats.bytes_per_nnz.")
        || matches!(metric, "engine.solve.cg_iters" | "engine.solve.bicgstab_iters")
        || (workload.starts_with("hot-") && metric == "engine.conversions")
}

pub fn main(argv: &[String]) -> Result<bool, String> {
    let [a_dir, b_dir] = argv else {
        return Err("compare needs two result directories".into());
    };
    let (a_dir, b_dir) = (Path::new(a_dir), Path::new(b_dir));
    // Like a run, `compare` is started from the root of a checkout.
    let spec = load(Path::new("BENCHMARK.json"))?;
    let list = |key: &str| {
        spec.get(key).and_then(Value::as_arr).ok_or(format!("BENCHMARK.json: no {key}"))
    };

    let mut breaches = 0;
    println!(
        "{:<11} {:<11} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "spread", "bound"
    );
    for workload in list("workloads")? {
        let name = workload.get("name").and_then(Value::as_str).ok_or("workload without a name")?;
        let file = format!("results-{name}.json");
        let (Ok(a), Ok(b)) = (load(&a_dir.join(&file)), load(&b_dir.join(&file))) else {
            println!("{name:<11} (no results on one side: skipped)");
            continue;
        };
        for metric in list("end_to_end")? {
            let field = |f: &str| {
                metric.get(f).and_then(Value::as_str).ok_or(format!("metric without {f}"))
            };
            let (metric_name, better) = (field("name")?, field("better")?);
            let bound =
                metric.get("bound").and_then(Value::as_f64).ok_or("metric without a bound")?;
            let (va, vb) = (values(&a, metric_name), values(&b, metric_name));
            if va.is_empty() || vb.is_empty() {
                println!("{name:<11} {metric_name:<11} (no runs on one side: skipped)");
                continue;
            }
            let (verdict, worse, noise) = judge(&va, &vb, better == "higher", bound);
            breaches += usize::from(verdict == Verdict::Breach);
            println!(
                "{name:<11} {metric_name:<11} {:>14.4} {:>14.4} {:>+7.1}% {:>7.1}% {:>5.0}%  {verdict:?} (n={}/{})",
                median(&va), median(&vb), worse * 100.0, noise * 100.0, bound * 100.0, va.len(), vb.len()
            );
        }
        // Exact counts of the traced runs, when both sides have them.
        let file = format!("trace-{name}.json");
        if let (Ok(a), Ok(b)) = (load(&a_dir.join(&file)), load(&b_dir.join(&file))) {
            for metric in list("per_layer")? {
                let metric_name = metric.get("name").and_then(Value::as_str).unwrap_or_default();
                let (va, vb) = (values(&a, metric_name), values(&b, metric_name));
                if is_exact(name, metric_name) && !va.is_empty() && va.last() != vb.last() {
                    println!(
                        "{name:<11} {metric_name}: exact count differs: {:?} vs {:?}",
                        va.last(),
                        vb.last()
                    );
                }
            }
        }
    }
    if breaches > 0 {
        println!("{breaches} metric(s) worse than their bound");
    }
    Ok(breaches == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rule() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 2% worse, bound 5%: within.
        assert_eq!(
            judge(&steady, &[102.0, 103.0, 101.0, 102.5, 101.5], false, 0.05).0,
            Verdict::Within
        );
        // 10% worse, bound 5%: breach. For a higher-is-better metric the
        // same numbers are an improvement.
        let slower = [110.0, 111.0, 109.0, 110.5, 109.5];
        assert_eq!(judge(&steady, &slower, false, 0.05).0, Verdict::Breach);
        assert_eq!(judge(&steady, &slower, true, 0.05).0, Verdict::Better);
        // Spread beyond the bound: unresolved, whichever way the medians lie…
        let noisy = [80.0, 100.0, 120.0, 90.0, 115.0];
        assert_eq!(judge(&noisy, &slower, false, 0.05).0, Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        assert_eq!(judge(&noisy, &[70.0, 75.0, 60.0], false, 0.05).0, Verdict::Better);
        // Single runs have no spread to judge by.
        let (v, worse, noise) = judge(&[100.0], &[104.0], false, 0.05);
        assert_eq!((v, noise), (Verdict::Within, 0.0));
        assert!((worse - 0.04).abs() < 1e-12);
    }

    #[test]
    fn metric_values_are_read_from_result_files() {
        let file = json::parse(
            r#"{"runs":[{"result":{"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}},
                        {"result":{"metrics":{"setup_s":{"value":2.5,"unit":"s"}}}},
                        {"result":{"metrics":{}}}]}"#,
        )
        .unwrap();
        assert_eq!(values(&file, "setup_s"), vec![1.5, 2.5]);
        assert!(values(&file, "absent").is_empty());
        assert!(is_exact("cold-sync", "engine.solve.cg_iters"));
        assert!(is_exact("hot-small", "engine.conversions"));
        assert!(!is_exact("cold-sync", "engine.conversions"));
    }
}
