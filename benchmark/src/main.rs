//! The repo benchmark: four wall-clock workloads over the public API of
//! the SpMV suite, end-to-end metrics, and a per-layer split measured
//! from outside. See README.md.
//!
//! `spmv-benchmark --workload W --seed N --seconds S --trace 0|1`
//! runs one workload in this process and prints, as the last line of
//! standard output, one JSON object `{correct, attempted, failed,
//! metrics}`; `spmv-benchmark compare A B` judges two result sets.

mod compare;
mod host;
mod inputs;
mod json;
mod layers;
mod metrics;
mod schedule;
mod setup;
mod solver;
mod stats;
mod timing;
mod trace;
mod verify;
mod workloads;

use host::HostFacts;
use json::{obj, Value};
use metrics::Metrics;
use spmv_engine::Admission;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Span;
use verify::Tally;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["hot-large", "hot-small", "cold-sync", "cold-async"];

/// What a workload is asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub host: HostFacts,
    pub started: Instant,
}

impl Ctx {
    /// Says on standard error what the run is doing and since when, so
    /// a slow or stuck run can be read.
    pub fn phase(&self, what: &str) {
        eprintln!("[{:7.2}s] {what}", self.started.elapsed().as_secs_f64());
    }

    /// `share` of the run's measuring time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    pub spans: Vec<Span>,
    /// Numbers worth keeping in the result file that are not metrics.
    pub notes: Vec<(String, Value)>,
    /// Resolved pool width and lane profile of the engine that served.
    pub pool_threads: usize,
    pub lanes: String,
}

impl Outcome {
    pub fn describe_engine(&mut self, engine: &spmv_engine::Engine) {
        self.pool_threads = engine.pool().threads();
        self.lanes = format!("{:?}", engine.lane_profile());
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_string(), value.into()));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: spmv-benchmark --workload <hot-large|hot-small|cold-sync|cold-async> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       \
                     spmv-benchmark compare <dir A> <dir B>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 22.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("between 0 and 600 seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        host: HostFacts::probe(),
        started: Instant::now(),
    };
    let outcome = match args.workload.as_str() {
        "hot-large" => workloads::hot_large::run(&ctx),
        "hot-small" => workloads::hot_small::run(&ctx),
        "cold-sync" => workloads::cold::run(&ctx, Admission::Sync),
        "cold-async" => workloads::cold::run(
            &ctx,
            Admission::Async { max_in_flight: workloads::cold::MAX_IN_FLIGHT },
        ),
        _ => unreachable!("parse_args checked the name"),
    };
    ctx.phase("done");
    let Outcome { mut metrics, tally, spans, notes, pool_threads, lanes } = outcome;
    let wanted = if args.trace {
        metrics.set("bench.spans", spans.len() as f64);
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let metrics_json = metrics.to_json(&wanted)?;
    for violation in &tally.violations {
        eprintln!("violated: {violation}");
    }
    for (name, unit) in &wanted {
        println!("{} {name} {} {unit}", args.workload, metrics.get(name).expect("to_json checked"));
    }
    let result = obj([
        ("correct", tally.correct().into()),
        ("attempted", tally.attempted.into()),
        ("failed", tally.failed.min(tally.attempted).into()),
        ("metrics", metrics_json),
    ]);
    let mut record = vec![
        ("workload", Value::from(args.workload.as_str())),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("host", ctx.host.to_json()),
        ("pool_threads", pool_threads.into()),
        ("lanes", lanes.into()),
        ("violations", Value::Arr(tally.violations.iter().map(|v| v.as_str().into()).collect())),
        ("notes", Value::Obj(notes)),
        ("result", result.clone()),
    ];
    let kind = if args.trace { "trace" } else { "results" };
    if args.trace {
        record.push(("spans", trace::to_json(&spans)));
    }
    let path = args.out.join(format!("{kind}-{}.json", args.workload));
    let record = Value::Obj(record.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
    append_run(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", result.render());
    Ok(())
}

/// Appends one run to a result file `{"runs": [...]}`, so that a
/// directory filled by repeated runs is a result set `compare` reads.
fn append_run(path: &Path, record: Value) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => match json::parse(&text)?.get("runs") {
            Some(Value::Arr(runs)) => runs.clone(),
            _ => return Err("not a result file (no \"runs\" list)".into()),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.to_string()),
    };
    runs.push(record);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, obj([("runs", Value::Arr(runs))]).render() + "\n")
        .map_err(|e| e.to_string())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // A run that printed its result line exits 0 even when incorrect
    // (`correct` says so); `compare` exits 1 on a breach.
    let outcome = if argv.first().is_some_and(|a| a == "compare") {
        compare::main(&argv[1..])
    } else {
        parse_args(&argv).and_then(|args| run(&args)).map(|()| true)
    };
    match outcome {
        Ok(within_bounds) => std::process::exit(i32::from(!within_bounds)),
        Err(message) => {
            eprintln!("spmv-benchmark: {message}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv("--workload cold-async --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("cold-async", 7, 10.0, true)
        );
        let a = parse_args(&argv("--workload hot-small")).unwrap();
        assert_eq!((a.seed, a.trace), (1, false));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload hot-small --trace yes",
            "--workload hot-small --seconds 0",
            "--workload hot-small --seconds 1e9",
            "--workload hot-small --seed -1",
            "--workload hot-small --frobnicate 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn result_files_accumulate_runs() {
        let dir = std::env::temp_dir().join(format!("spmv-benchmark-test-{}", std::process::id()));
        let path = dir.join("results-x.json");
        append_run(&path, obj([("n", 1u64.into())])).unwrap();
        append_run(&path, obj([("n", 2u64.into())])).unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let runs = doc.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].get("n").unwrap().as_f64(), Some(2.0));
        std::fs::write(&path, "[]").unwrap();
        assert!(append_run(&path, Value::Null).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
