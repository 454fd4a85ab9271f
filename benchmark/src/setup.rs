//! System set-up shared by the workloads: building the engine
//! (training included) and admitting the resident set, timed as
//! `setup_s`; in a traced run, the same steps taken apart by hand.

use crate::host::nproc;
use crate::inputs::MatrixSet;
use crate::metrics::Metrics;
use crate::stats::median;
use crate::timing::once;
use crate::trace::{Tracer, NO_PARENT};
use crate::verify::Tally;
use crate::Ctx;
use spmv_core::{CsrMatrix, FeatureSet};
use spmv_engine::{selector_from_records, Admission, Engine, EngineConfig};
use spmv_formats::{build_with_fallback_profile, FormatKind};
use spmv_parallel::ThreadPool;
use std::time::{Duration, Instant};

/// Engine lifetimes per untraced run: each is a timed set-up followed
/// by a third of the timed section on the fresh engine, and the metrics
/// are taken over the samples of all three. One lifetime would do for
/// the program; three are for the measurement:
///
/// * `setup_s` is a median over set-ups in any case.
/// * Some of a kernel's speed is decided once per lifetime (which
///   pages a conversion lands on is the likely cause: 4 KiB pages, a
///   physically indexed L2). Over 26 identical `hot-large` runs on the
///   reference host the engine's kernel on the short-regular matrix
///   took 4.5 to 7.5 ms, an interquartile spread of 14%, while a plain
///   CSR sweep over the same operand in the same runs spread 5%. The
///   fastest tenth over three lifetimes repeats better than over one.
/// * The measuring is spread over more wall time, so a burst of
///   neighbour load of some tens of seconds — the reference host has
///   them — is less likely to cover all of it.
const LIFETIMES: usize = 3;

/// A set-up of milliseconds is repeated within its lifetime until
/// `SETUP_FILL` has passed (or `SETUP_REPEATS_MAX` times), because a
/// 10 ms median of three is at the mercy of one scheduler hiccup.
const SETUP_REPEATS_MAX: usize = 13;
const SETUP_FILL: Duration = Duration::from_millis(500);

/// Pool width of every single-client workload: one core is the
/// client's. The caller of a parallel call executes a chunk itself, so
/// `nproc − 1` workers keep busy threads at `nproc`; with `nproc`
/// workers a third thread is woken at every fork-join on a 2-core host
/// and identical solver runs differed by 50% with the scheduler's luck.
/// On `cold-async` the one client serves while the workers convert.
pub fn workers_beside_client() -> usize {
    nproc().saturating_sub(1).max(1)
}

/// The untraced run of a workload: `LIFETIMES` times a timed set-up —
/// `Engine::new` (pool, training campaign, selector fit) and then
/// `admit` (first touches, conversions, residency) — followed by
/// `serve` on the fresh engine for its share of `--seconds`. Returns
/// the last engine and the median set-up time.
pub fn lifetimes(
    ctx: &Ctx,
    cfg: &EngineConfig,
    tally: &mut Tally,
    mut admit: impl FnMut(&Engine, &mut Tally),
    mut serve: impl FnMut(&Engine, &mut Tally, Duration),
) -> (Engine, f64) {
    let mut setups_s = Vec::new();
    let mut last = None;
    for life in 1..=LIFETIMES {
        ctx.phase(&format!("lifetime {life}: set-up"));
        let (start, mut repeats) = (Instant::now(), 0);
        let engine = loop {
            // The next set-up must not find the previous engine's
            // conversions still allocated.
            drop(last.take());
            let t = Instant::now();
            let engine = Engine::new(cfg.clone()).expect("workload configurations are valid");
            admit(&engine, tally);
            setups_s.push(t.elapsed().as_secs_f64());
            repeats += 1;
            if repeats == SETUP_REPEATS_MAX || start.elapsed() >= SETUP_FILL {
                break engine;
            }
            last = Some(engine);
        };
        ctx.phase(&format!("lifetime {life}: timed section"));
        serve(&engine, tally, ctx.budget(1.0 / LIFETIMES as f64));
        last = Some(engine);
    }
    (last.expect("LIFETIMES is at least one"), median(&setups_s))
}

/// `Engine::new` taken apart for the traced run: the training campaign
/// (`devices.train_s`) and the selector fit (`analysis.fit_ms`) timed
/// on their own, then the engine assembled around that selector.
pub fn traced_engine(cfg: &EngineConfig, m: &mut Metrics) -> Engine {
    let pool = ThreadPool::new(if cfg.threads == 0 { nproc() } else { cfg.threads });
    let (records, train_s) = once(|| cfg.training.records(&cfg.device, cfg.scale, &pool));
    let (selector, fit_s) = once(|| selector_from_records(&records, cfg.k));
    m.set("devices.train_s", train_s);
    m.set("analysis.fit_ms", fit_s * 1e3);
    drop(pool);
    Engine::with_selector(cfg.clone(), selector).expect("workload configurations are valid")
}

/// Latencies of the admissions of one set.
#[derive(Default)]
pub struct Admitted {
    pub first_s: Vec<f64>,
    pub follow_s: Vec<f64>,
    pub clone_s: Vec<f64>,
}

/// The first request of a never-seen id, inside an `engine.cold` span;
/// in a traced run followed by its hand-run twin. Returns the latency
/// and, traced, what cloning the operand took.
pub fn first_touch(
    engine: &Engine,
    tracer: &mut Tracer,
    request: u64,
    id: &str,
    csr: &CsrMatrix,
    x: &[f64],
    y: &mut [f64],
) -> (f64, Option<f64>) {
    let t = Instant::now();
    tracer.span("engine.cold", NO_PARENT, request, |_, _| engine.spmv(id, csr, x, y));
    let secs = t.elapsed().as_secs_f64();
    (secs, tracer.enabled().then(|| cold_twin(engine, tracer, request, csr, x)))
}

/// What a cold `Engine::spmv` does, step by step on benchmark-owned
/// objects, each step a child span of `twin.cold`: under `Sync`
/// admission extract → select → convert → kernel; under `Async` extract
/// → select → operand clone → CSR-path kernel (the conversion flies in
/// the background). `engine.cold` minus these children is the engine's
/// own time: table inserts, flight bookkeeping, counters. Returns the
/// seconds a plain `clone()` of the operand takes.
///
/// The steps run twice and only the second pass is recorded: the first
/// leaves the allocator holding freed blocks of the right sizes, which
/// is how the engine's own conversion finds it after the previous twin
/// (and, in steady state, after an eviction). On the reference VM a
/// first touch of fresh memory costs ~6 ms/MB — more than the
/// conversion — and would otherwise be charged to whichever of engine
/// and twin allocates second.
pub fn cold_twin(
    engine: &Engine,
    tracer: &mut Tracer,
    request: u64,
    csr: &CsrMatrix,
    x: &[f64],
) -> f64 {
    twin_pass(engine, &mut Tracer::new(false, Instant::now()), request, csr, x);
    twin_pass(engine, tracer, request, csr, x);
    once(|| csr.clone()).1
}

fn twin_pass(engine: &Engine, tracer: &mut Tracer, request: u64, csr: &CsrMatrix, x: &[f64]) {
    let mut y = vec![0.0; csr.rows()];
    tracer.span("twin.cold", NO_PARENT, request, |t, twin| {
        let features = t.span("core.extract", twin, request, |_, _| FeatureSet::extract(csr));
        let kind = t.span("analysis.select", twin, request, |_, _| engine.select(&features));
        match engine.admission() {
            Admission::Sync => {
                let chain = [engine.default_format(), FormatKind::NaiveCsr];
                let (fmt, _, _) = t.span("formats.convert", twin, request, |_, _| {
                    build_with_fallback_profile(kind, csr, &chain, engine.lane_profile())
                        .expect("fallback chain ends in CSR, which accepts any matrix")
                });
                t.span("formats.spmv", twin, request, |_, _| fmt.spmv(x, &mut y));
            }
            Admission::Async { .. } => {
                let copy = t.span("engine.clone", twin, request, |_, _| csr.clone());
                t.span("core.csr_spmv", twin, request, |_, _| copy.spmv_into(x, &mut y));
            }
        }
    });
}

/// Admits every matrix of `set`: first touch, one follow-up, and —
/// after background flights have landed — one request more, which must
/// be served by a converted format. Every answer is checked.
pub fn admit_set(
    engine: &Engine,
    tracer: &mut Tracer,
    tally: &mut Tally,
    set: &MatrixSet,
) -> Admitted {
    let mut out = Admitted::default();
    let mut y = vec![0.0; set.max_rows];
    for (i, (named, want)) in set.iter().enumerate() {
        let (csr, x, y) = (&named.csr, set.x(&named.csr), &mut y[..named.csr.rows()]);
        y.fill(f64::NAN);
        let (secs, clone_s) = first_touch(engine, tracer, i as u64, &named.id, csr, x, y);
        out.first_s.push(secs);
        out.clone_s.extend(clone_s);
        tally.check_close(y, want);
        y.fill(f64::NAN);
        let (_, secs) = once(|| engine.spmv(&named.id, csr, x, y));
        out.follow_s.push(secs);
        tally.check_close(y, want);
    }
    tally.issued(2 * set.mats.len() as u64);
    engine.drain_admissions();
    recheck_set(engine, tally, set);
    out
}

/// Serves every matrix of a resident set once more and checks the
/// answers — the after-the-timed-section half of the verification.
pub fn recheck_set(engine: &Engine, tally: &mut Tally, set: &MatrixSet) {
    let mut y = vec![0.0; set.max_rows];
    for (named, want) in set.iter() {
        let y = &mut y[..named.csr.rows()];
        y.fill(f64::NAN);
        engine.spmv(&named.id, &named.csr, set.x(&named.csr), y);
        tally.check_close(y, want);
    }
    tally.issued(set.mats.len() as u64);
}

/// The reconciliations that hold for every engine at rest.
pub fn require_counters_reconcile(engine: &Engine, tally: &mut Tally) {
    engine.drain_admissions();
    let c = engine.counters();
    tally.require(c.served_selected + c.served_fallback == c.requests, || {
        format!(
            "requests {} != served_selected {} + served_fallback {}",
            c.requests, c.served_selected, c.served_fallback
        )
    });
    tally.require(c.cache_hits + c.cache_misses + c.coalesced == c.cache_lookups, || {
        format!(
            "lookups {} != hits {} + misses {} + coalesced {}",
            c.cache_lookups, c.cache_hits, c.cache_misses, c.coalesced
        )
    });
}

/// Cold-path metrics every traced run reports, from its `engine.cold`
/// and twin spans and its admission latencies.
pub fn cold_metrics(
    m: &mut Metrics,
    spans: &[crate::trace::Span],
    first_s: &[f64],
    follow_s: &[f64],
    clone_s: &[f64],
) {
    let totals = crate::trace::totals(spans);
    let cold = totals.get("engine.cold").copied().unwrap_or_default();
    let twin = totals.get("twin.cold").copied().unwrap_or_default();
    // Children of the twin = its total minus its own self time.
    let children_ns = twin.total_ns - twin.self_ns;
    let per = |ns: u64, count: u64| ns as f64 / count.max(1) as f64 / 1e6;
    m.set("engine.cold_self_ms", per(cold.total_ns, cold.count) - per(children_ns, twin.count));
    let first = crate::stats::sorted(first_s.to_vec());
    m.set("engine.cold_first_ms", crate::stats::percentile(&first, 50.0) * 1e3);
    m.set("engine.cold_first_p90_ms", crate::stats::percentile(&first, 90.0) * 1e3);
    m.set("engine.cold_follow_us", median(follow_s) * 1e6);
    m.set("engine.clone_ms", median(clone_s) * 1e3);
}
