//! `hot-large`: eight 32 MB matrices, one per feature class, resident
//! in one engine; one closed-loop client calling `spmv`,
//! `spmv_parallel` and `spmm` (k = 8). Kernels run for milliseconds:
//! the formats' kernels and the selector's choice do over 99% of the
//! work, the front door next to none.

use crate::inputs::{self, MatrixSet};
use crate::layers::{self, HotTwin, HOT_TWIN_EVERY, SPMM_K};
use crate::setup::{self, admit_set, lifetimes, traced_engine};
use crate::stats::{fastest_tenth, geomean, median};
use crate::timing::once;
use crate::trace::{Tracer, NO_PARENT};
use crate::verify::Tally;
use crate::{Ctx, Outcome};
use spmv_engine::{Engine, EngineConfig};
use std::time::{Duration, Instant};

/// Calls per matrix per pass: enough serial and parallel SpMVs for a
/// median, one SpMM (it costs as much as all the others together).
const SPMV_PER_PASS: usize = 5;

/// The cache budget `serve_throughput` uses: two 32 MB entries on one
/// 16 MB shard of the default budget would evict each other.
const CACHE_BYTES: usize = 4 << 30;

fn config() -> EngineConfig {
    EngineConfig {
        cache_capacity_bytes: CACHE_BYTES,
        threads: setup::workers_beside_client(),
        ..EngineConfig::default()
    }
}

/// Latencies of one timed section, per matrix and call kind.
struct Section {
    spmv_s: Vec<Vec<f64>>,
    par_s: Vec<Vec<f64>>,
    spmm_s: Vec<Vec<f64>>,
}

impl Section {
    fn new(matrices: usize) -> Self {
        let cells = || vec![vec![]; matrices];
        Section { spmv_s: cells(), par_s: cells(), spmm_s: cells() }
    }

    /// Calls per second of one pass over the set, each call at its
    /// fastest-tenth latency.
    fn ops_per_s(&self) -> f64 {
        let kinds =
            [(&self.spmv_s, SPMV_PER_PASS), (&self.par_s, SPMV_PER_PASS), (&self.spmm_s, 1)];
        let calls: usize = kinds.iter().map(|(per_matrix, n)| n * per_matrix.len()).sum();
        let pass_s: f64 = kinds
            .iter()
            .flat_map(|(per_matrix, n)| {
                per_matrix.iter().map(move |s| *n as f64 * fastest_tenth(s))
            })
            .sum();
        calls as f64 / pass_s
    }

    /// Geomean over the matrices of the fastest-tenth latency of one
    /// kind of call.
    fn typical(per_matrix: &[Vec<f64>]) -> f64 {
        geomean(&per_matrix.iter().map(|s| fastest_tenth(s)).collect::<Vec<_>>())
    }

    /// Geomean over the matrices of the median latency (kept in the
    /// result file beside the metric).
    fn median(per_matrix: &[Vec<f64>]) -> f64 {
        geomean(&per_matrix.iter().map(|s| median(s)).collect::<Vec<_>>())
    }

    /// Geomean over the matrices of `2·nnz·k / fastest-tenth latency`.
    fn gflops(per_matrix: &[Vec<f64>], set: &MatrixSet, k: usize) -> f64 {
        let rates: Vec<f64> = per_matrix
            .iter()
            .zip(&set.mats)
            .map(|(s, m)| (2 * m.csr.nnz() * k) as f64 / fastest_tenth(s) / 1e9)
            .collect();
        geomean(&rates)
    }
}

/// Whole passes over the set until `budget` is spent (at least one),
/// their latencies appended to `out`; the answers of every pass are
/// checked outside the timed calls.
fn section(
    engine: &Engine,
    tracer: &mut Tracer,
    twin: Option<&HotTwin>,
    tally: &mut Tally,
    set: &MatrixSet,
    out: &mut Section,
    budget: Duration,
) {
    let mut y = vec![0.0; set.max_rows];
    let mut yk = vec![0.0; set.max_rows * SPMM_K];
    let xks: Vec<Vec<f64>> = set.mats.iter().map(|m| layers::spmm_operand(set.x(&m.csr))).collect();
    let start = Instant::now();
    let mut request = 0u64;
    loop {
        for (i, (named, want)) in set.iter().enumerate() {
            let (id, csr, x) = (named.id.as_str(), &named.csr, set.x(&named.csr));
            let (y, yk) = (&mut y[..csr.rows()], &mut yk[..csr.rows() * SPMM_K]);
            for _ in 0..SPMV_PER_PASS {
                request += 1;
                y.fill(f64::NAN);
                let (_, s) = once(|| {
                    tracer
                        .span("engine.spmv", NO_PARENT, request, |_, _| engine.spmv(id, csr, x, y))
                });
                out.spmv_s[i].push(s);
                if let Some(twin) = twin.filter(|_| request % HOT_TWIN_EVERY == 0) {
                    twin.serve(tracer, request, i, named, x, y);
                }
            }
            tally.check_close(y, want);
            for _ in 0..SPMV_PER_PASS {
                request += 1;
                y.fill(f64::NAN);
                let (_, s) = once(|| {
                    tracer.span("engine.spmv_parallel", NO_PARENT, request, |_, _| {
                        engine.spmv_parallel(id, csr, x, y)
                    })
                });
                out.par_s[i].push(s);
            }
            tally.check_close(y, want);
            request += 1;
            yk.fill(f64::NAN);
            let (_, s) = once(|| {
                tracer.span("engine.spmm", NO_PARENT, request, |_, _| {
                    engine.spmm(id, csr, &xks[i], SPMM_K, yk)
                })
            });
            out.spmm_s[i].push(s);
            tally.check(layers::spmm_matches(yk, want));
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    tally.issued(request);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    ctx.phase("inputs");
    let (set, gen_s) = once(|| MatrixSet::new(inputs::hot_large_set(ctx.seed)));
    let cfg = config();
    let origin = Instant::now();
    let (m, tally) = (&mut out.metrics, &mut out.tally);

    if !ctx.trace {
        let mut s = Section::new(set.mats.len());
        let (engine, setup_s) = lifetimes(
            ctx,
            &cfg,
            tally,
            |e, tally| drop(admit_set(e, &mut Tracer::new(false, origin), tally, &set)),
            |e, tally, budget| {
                section(e, &mut Tracer::new(false, origin), None, tally, &set, &mut s, budget);
                require_resident(e, tally, &set);
            },
        );
        m.set("setup_s", setup_s);
        m.set("ops_per_s", s.ops_per_s());
        m.set("typical_us", Section::typical(&s.spmv_s) * 1e6);
        m.set("slow_us", Section::typical(&s.spmm_s) * 1e6);
        out.note("spmv_median_us", Section::median(&s.spmv_s) * 1e6);
        out.note("spmv_parallel_us", Section::typical(&s.par_s) * 1e6);
        out.note("spmm_median_us", Section::median(&s.spmm_s) * 1e6);
        out.note("spmv_gflops", Section::gflops(&s.spmv_s, &set, 1));
        out.note("spmv_par_gflops", Section::gflops(&s.par_s, &set, 1));
        out.note("spmm_gflops", Section::gflops(&s.spmm_s, &set, SPMM_K));
        out.describe_engine(&engine);
        return out;
    }

    m.set("gen.materialize_s", gen_s);
    ctx.phase("set-up, taken apart");
    let engine = traced_engine(&cfg, m);
    let mut tracer = Tracer::new(true, origin);
    let admitted = admit_set(&engine, &mut tracer, tally, &set);
    let twin = HotTwin::new(&engine, &set.mats);
    let before = engine.counters();
    ctx.phase("plain and traced sections");
    let (mut plain, mut traced) = (Section::new(set.mats.len()), Section::new(set.mats.len()));
    let mut off = Tracer::new(false, origin);
    section(&engine, &mut off, None, tally, &set, &mut plain, ctx.budget(0.25));
    section(&engine, &mut tracer, Some(&twin), tally, &set, &mut traced, ctx.budget(0.25));
    require_resident(&engine, tally, &set);
    layers::counter_metrics(m, &before, &engine.counters(), 0);
    m.set("bench.trace_overhead", plain.ops_per_s() / traced.ops_per_s());
    out.note("engine.spmv_gflops", Section::gflops(&traced.spmv_s, &set, 1));
    out.note("engine.spmv_par_gflops", Section::gflops(&traced.par_s, &set, 1));
    out.note("engine.spmm_gflops", Section::gflops(&traced.spmm_s, &set, SPMM_K));
    let (m, tally) = (&mut out.metrics, &mut out.tally);

    ctx.phase("host probes");
    let roof = layers::host_probes(m, &ctx.host);
    ctx.phase("format sweep");
    layers::format_sweep(m, tally, &engine, &set, roof, 2);
    ctx.phase("pool probes");
    layers::pool_probes(m, &engine);
    ctx.phase("front-door probes");
    // Between two large kernels the tables are out of cache: evict with
    // one pass over a large matrix, and probe on small resident ones.
    layers::small_front_door_probes(m, tally, &engine, ctx.seed, &set.mats[1].csr, 60);
    ctx.phase("snapshot probes");
    layers::snapshot_probes(m, tally, &engine, &cfg);
    crate::solver::probe(m, tally, &engine, ctx.seed);
    out.spans = tracer.into_spans();
    setup::cold_metrics(
        &mut out.metrics,
        &out.spans,
        &admitted.first_s,
        &admitted.follow_s,
        &admitted.clone_s,
    );
    out.describe_engine(&engine);
    out
}

/// Exactly one conversion per matrix, ever: nothing was evicted and
/// rebuilt, nothing converted twice.
fn require_resident(engine: &Engine, tally: &mut Tally, set: &MatrixSet) {
    setup::require_counters_reconcile(engine, tally);
    let c = engine.counters();
    tally.require(c.conversions == set.mats.len() as u64, || {
        format!("conversions {} != {} resident matrices", c.conversions, set.mats.len())
    });
}
