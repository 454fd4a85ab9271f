//! `hot-small`: the 130 small matrices, all resident, Zipf-distributed
//! ids, one closed-loop `Engine::spmv` client per core, pool parked.
//! Kernels run for well under a microsecond: id hash, two shard locks,
//! `Arc` reference counts and the counter volley dominate. Kernel
//! changes should not show here; front-door changes should not show on
//! `hot-large`.

use crate::host::nproc;
use crate::inputs::{self, MatrixSet};
use crate::layers::{self, HotTwin, HOT_TWIN_EVERY};
use crate::schedule::{uniform, Zipf, ZIPF_S};
use crate::setup::{self, admit_set, lifetimes, recheck_set, traced_engine};
use crate::stats::{highest_tenth, median, percentile_windowed, sorted};
use crate::timing::once;
use crate::trace::{self, Span, Tracer, NO_PARENT};
use crate::verify::Tally;
use crate::{Ctx, Outcome};
use spmv_engine::{Engine, EngineConfig, TrainingPlan};
use spmv_gen::dataset::DatasetSize;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Requests per segment (~0.1 s): the metrics are taken over each
/// client's best tenth of segments by throughput.
const SEGMENT: u64 = 1 << 17;

/// One request in this many is timed: two clock reads cost ~50 ns, a
/// request ~500, so timing each would be a tenth of what it measures.
const SAMPLE_EVERY: u64 = 8;

/// The engine `serve_throughput` builds for this mix: scale and
/// training set match the tiny matrices; one parked pool worker.
fn config() -> EngineConfig {
    // The training seed is the default one, not the run's: the run's
    // seed shapes the traffic, never the engine.
    let training = TrainingPlan { size: DatasetSize::Small, stride: 40, ..TrainingPlan::default() };
    EngineConfig { scale: 16384.0, threads: 1, training, ..EngineConfig::default() }
}

/// What one client measured, per segment: throughput and the
/// segment's ~16k latency samples (nanoseconds).
struct Client {
    segment_rps: Vec<f64>,
    segment_latency_ns: Vec<Vec<f32>>,
    requests: u64,
    spans: Vec<Span>,
}

/// What all clients of one timed section measured.
struct Section {
    clients: Vec<Client>,
}

impl Section {
    /// Appends the segments of a later section, client by client.
    fn absorb(&mut self, later: Section) {
        if self.clients.is_empty() {
            self.clients = later.clients;
            return;
        }
        for (mine, theirs) in self.clients.iter_mut().zip(later.clients) {
            mine.segment_rps.extend(theirs.segment_rps);
            mine.segment_latency_ns.extend(theirs.segment_latency_ns);
            mine.requests += theirs.requests;
        }
    }

    /// Sum over the clients of each one's best-tenth segment throughput.
    fn ops_per_s(&self) -> f64 {
        self.clients.iter().map(|c| highest_tenth(&c.segment_rps)).sum()
    }

    /// The latency samples, sorted: of every segment, or of each
    /// client's quietest tenth of segments (those `ops_per_s` counts).
    /// Choosing the quiet segments by throughput and then reading p50
    /// and p99 off their ~10⁵ pooled samples keeps the choice from
    /// biasing the tail estimate.
    fn latencies_ns(&self, quietest_tenth: bool) -> Vec<f64> {
        let mut pool = Vec::new();
        for c in &self.clients {
            let mut order: Vec<usize> = (0..c.segment_rps.len()).collect();
            order.sort_by(|&a, &b| c.segment_rps[b].total_cmp(&c.segment_rps[a]));
            let take = if quietest_tenth { order.len().div_ceil(10) } else { order.len() };
            for &i in &order[..take] {
                pool.extend(c.segment_latency_ns[i].iter().map(|&ns| f64::from(ns)));
            }
        }
        sorted(pool)
    }

    fn requests(&self) -> u64 {
        self.clients.iter().map(|c| c.requests).sum()
    }
}

/// `clients` closed-loop clients, started together, each serving its
/// own Zipf stream in whole segments until `budget` is spent.
fn section(
    engine: &Engine,
    twin: Option<&HotTwin>,
    origin: Instant,
    set: &MatrixSet,
    seed: u64,
    clients: usize,
    budget: Duration,
) -> Section {
    let zipf = Zipf::new(set.mats.len(), ZIPF_S);
    let barrier = Barrier::new(clients);
    let run_client = |client: usize| -> Client {
        let stream = seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9);
        let mut tracer = Tracer::new(twin.is_some(), origin);
        let mut y = vec![0.0; set.max_rows];
        let mut out =
            Client { segment_rps: vec![], segment_latency_ns: vec![], requests: 0, spans: vec![] };
        let mut latency_ns = Vec::with_capacity((SEGMENT / SAMPLE_EVERY) as usize);
        barrier.wait();
        let start = Instant::now();
        loop {
            let segment_start = Instant::now();
            for _ in 0..SEGMENT {
                let n = out.requests;
                out.requests += 1;
                let i = zipf.sample(uniform(stream, n));
                let named = &set.mats[i];
                let (x, y) = (set.x(&named.csr), &mut y[..named.csr.rows()]);
                if n % SAMPLE_EVERY != 0 {
                    engine.spmv(&named.id, &named.csr, x, y);
                    continue;
                }
                // Sampled requests carry the latency clock and, in a
                // traced section, the span (and now and then the twin).
                let t = Instant::now();
                tracer.span("engine.spmv", NO_PARENT, n, |_, _| {
                    engine.spmv(&named.id, &named.csr, x, y)
                });
                latency_ns.push(t.elapsed().as_nanos() as f32);
                if let Some(twin) = twin.filter(|_| n % (SAMPLE_EVERY * HOT_TWIN_EVERY) == 0) {
                    twin.serve(&mut tracer, n, i, named, x, y);
                }
            }
            out.segment_rps.push(SEGMENT as f64 / segment_start.elapsed().as_secs_f64());
            let samples = Vec::with_capacity(latency_ns.len());
            out.segment_latency_ns.push(std::mem::replace(&mut latency_ns, samples));
            if start.elapsed() >= budget {
                break;
            }
        }
        out.spans = tracer.into_spans();
        out
    };
    let clients = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients).map(|c| s.spawn(move || run_client(c))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    Section { clients }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    ctx.phase("inputs");
    let (set, gen_s) = once(|| MatrixSet::new(inputs::small_set(ctx.seed)));
    let cfg = config();
    let origin = Instant::now();
    let clients = nproc();
    let (m, tally) = (&mut out.metrics, &mut out.tally);

    if !ctx.trace {
        let mut s = Section { clients: vec![] };
        let (engine, setup_s) = lifetimes(
            ctx,
            &cfg,
            tally,
            |e, tally| drop(admit_set(e, &mut Tracer::new(false, origin), tally, &set)),
            |e, tally, budget| {
                let warm = e.counters();
                let slice = section(e, None, origin, &set, ctx.seed, clients, budget);
                tally.issued(slice.requests());
                recheck_set(e, tally, &set);
                require_no_reconversion(e, tally, warm.conversions);
                s.absorb(slice);
            },
        );
        m.set("setup_s", setup_s);
        m.set("ops_per_s", s.ops_per_s());
        let (quiet, all) = (s.latencies_ns(true), s.latencies_ns(false));
        m.set("typical_us", percentile_windowed(&quiet, 50.0) / 1e3);
        m.set("slow_us", percentile_windowed(&quiet, 99.0) / 1e3);
        out.note("latency_samples", all.len() as f64);
        out.note("latency_samples_quiet", quiet.len() as f64);
        out.note("median_segment_rps", s.clients.iter().map(|c| median(&c.segment_rps)).sum());
        out.note("p50_us_all_segments", percentile_windowed(&all, 50.0) / 1e3);
        out.note("p99_us_all_segments", percentile_windowed(&all, 99.0) / 1e3);
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
    let plain = section(&engine, None, origin, &set, ctx.seed, clients, ctx.budget(0.3));
    let traced = section(&engine, Some(&twin), origin, &set, ctx.seed, clients, ctx.budget(0.3));
    tally.issued(plain.requests() + traced.requests());
    recheck_set(&engine, tally, &set);
    require_no_reconversion(&engine, tally, before.conversions);
    layers::counter_metrics(m, &before, &engine.counters(), 0);
    m.set("bench.trace_overhead", plain.ops_per_s() / traced.ops_per_s());

    ctx.phase("host probes");
    let roof = layers::host_probes(m, &ctx.host);
    ctx.phase("format sweep");
    layers::format_sweep(m, tally, &engine, &set, roof, 5);
    ctx.phase("pool probes");
    layers::pool_probes(m, &engine);
    // The Zipf head: ranks 0.. are the hottest ids, one per client.
    ctx.phase("front-door probes");
    let probe: Vec<usize> = (0..clients).collect();
    layers::front_door_probes(m, &engine, &twin, &set, &probe, None, 200_000);
    ctx.phase("snapshot probes");
    layers::snapshot_probes(m, tally, &engine, &cfg);
    crate::solver::probe(m, tally, &engine, ctx.seed);
    let mut buffers = vec![tracer.into_spans()];
    buffers.extend(traced.clients.into_iter().map(|c| c.spans));
    out.spans = trace::merge(buffers);
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

/// All 130 matrices stayed resident: the timed section converted
/// nothing.
fn require_no_reconversion(engine: &Engine, tally: &mut Tally, conversions_when_warm: u64) {
    setup::require_counters_reconcile(engine, tally);
    let now = engine.counters().conversions;
    tally.require(now == conversions_when_warm, || {
        format!("{} reconversions during the timed section", now - conversions_when_warm)
    });
}
