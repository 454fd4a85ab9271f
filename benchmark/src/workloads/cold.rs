//! `cold-sync` and `cold-async`: one client, blocks of 16 requests —
//! one first touch of a never-seen id, one request to each of the seven
//! ids before it, eight Zipf draws from the hot small set — against the
//! default 256 MB cache, so conversions are evicted as new ones land.
//! This is the write side of the tables `hot-small` only reads: `core`
//! extraction, `analysis` selection, `formats` conversion, cache insert
//! and evict, with conversion amortised over a stated reuse count. The
//! two workloads run the identical schedule under the two admission
//! modes: `Sync` converts on the request path, `Async` clones the
//! operand, answers from the CSR path and converts on a pool worker.

use crate::host::nproc;
use crate::inputs::{self, MatrixSet};
use crate::layers::{self, HotTwin, HOT_TWIN_EVERY};
use crate::schedule::{cold_block, Zipf, BLOCK_REQUESTS, FOLLOW_UPS, HOT_DRAWS, ZIPF_S};
use crate::setup::{self, admit_set, first_touch, lifetimes, recheck_set, traced_engine};
use crate::stats::{fastest_tenth, geomean, highest_tenth, median, percentile_windowed};
use crate::timing::once;
use crate::trace::{Tracer, NO_PARENT};
use crate::verify::Tally;
use crate::{Ctx, Outcome};
use spmv_engine::{Admission, Engine, EngineConfig};
use std::time::{Duration, Instant};

/// Flights outstanding under `cold-async` (the issue's setting; one
/// worker lands them while the client serves).
pub const MAX_IN_FLIGHT: usize = 4;

/// Blocks per segment: every cold operand is first-touched once, so
/// segments are alike and the best tenth of them is a fair sample.
const SEGMENT_BLOCKS: usize = 32;

/// The default engine, its pool sized to leave the client a core.
fn config(admission: Admission) -> EngineConfig {
    EngineConfig { admission, threads: setup::workers_beside_client(), ..EngineConfig::default() }
}

/// What the client sends: the cold operands, the hot set, and the seed
/// of the hot draws.
struct Traffic {
    cold: MatrixSet,
    hot: MatrixSet,
    seed: u64,
}

/// Latencies of one timed section, in seconds.
struct Section {
    /// First-touch latency, per cold operand.
    first_s: Vec<Vec<f64>>,
    /// Follow-up latency, per cold operand.
    follow_s: Vec<Vec<f64>>,
    /// p50 of the hot draws, per segment.
    segment_hot_p50_s: Vec<f64>,
    /// Requests per second of request time, per segment.
    segment_rps: Vec<f64>,
    clone_s: Vec<f64>,
    blocks: u64,
    cold_bytes: usize,
}

impl Section {
    fn new(operands: usize) -> Self {
        Section {
            first_s: vec![vec![]; operands],
            follow_s: vec![vec![]; operands],
            segment_hot_p50_s: vec![],
            segment_rps: vec![],
            clone_s: vec![],
            blocks: 0,
            cold_bytes: 0,
        }
    }

    fn ops_per_s(&self) -> f64 {
        highest_tenth(&self.segment_rps)
    }

    /// Geomean over the cold operands of a statistic of their latency:
    /// each of the 32 operands weighs the same however many blocks ran.
    fn per_operand(per_operand: &[Vec<f64>], stat: fn(&[f64]) -> f64) -> f64 {
        let stats: Vec<f64> =
            per_operand.iter().filter(|s| !s.is_empty()).map(|s| stat(s)).collect();
        geomean(&stats)
    }
}

/// Blocks `first_block..` of the schedule until `budget` is spent, what
/// they measured appended to `out`. Each cold id's first and last
/// answer is checked after its block, outside the request clocks.
#[allow(clippy::too_many_arguments)]
fn section(
    engine: &Engine,
    tracer: &mut Tracer,
    twin: Option<&HotTwin>,
    tally: &mut Tally,
    traffic: &Traffic,
    out: &mut Section,
    first_block: u64,
    budget: Duration,
) {
    let Traffic { cold, hot, seed } = traffic;
    let zipf = Zipf::new(hot.mats.len(), ZIPF_S);
    let operand = |id: u64| (id % cold.mats.len() as u64) as usize;
    let mut y = vec![0.0; cold.max_rows.max(hot.max_rows)];
    let mut y_first = vec![0.0; cold.max_rows];
    let mut y_last = vec![0.0; cold.max_rows];
    let mut segment_busy = 0.0;
    let mut hot_s = Vec::with_capacity(SEGMENT_BLOCKS * HOT_DRAWS);
    // First blocks lack follow-ups: count what is actually issued.
    let mut issued = 0u64;
    let start = Instant::now();
    let mut n = first_block;
    loop {
        let block = cold_block(*seed, n, &zipf);
        let request = n * BLOCK_REQUESTS as u64;
        let mut busy = 0.0;

        let c = operand(block.first);
        let (named, x) = (&cold.mats[c], cold.x(&cold.mats[c].csr));
        let y_first = &mut y_first[..named.csr.rows()];
        y_first.fill(f64::NAN);
        let id = format!("c{}", block.first);
        let (s, clone_s) = first_touch(engine, tracer, request, &id, &named.csr, x, y_first);
        out.clone_s.extend(clone_s);
        out.first_s[c].push(s);
        out.cold_bytes += named.csr.mem_footprint_bytes();
        busy += s;
        issued += 1 + (block.follow.len() + block.hot.len()) as u64;
        tally.check_close(y_first, &cold.want[c]);

        for (k, &follow) in block.follow.iter().enumerate() {
            let c = operand(follow);
            let (named, x) = (&cold.mats[c], cold.x(&cold.mats[c].csr));
            let id = format!("c{follow}");
            // The oldest follow-up is that id's last request ever.
            let last = k + 1 == FOLLOW_UPS;
            let y = if last { &mut y_last[..named.csr.rows()] } else { &mut y[..named.csr.rows()] };
            y.fill(f64::NAN);
            let (_, s) = once(|| {
                tracer.span("engine.follow", NO_PARENT, request + 1 + k as u64, |_, _| {
                    engine.spmv(&id, &named.csr, x, y)
                })
            });
            out.follow_s[c].push(s);
            busy += s;
            if last {
                tally.check_close(y, &cold.want[c]);
            }
        }

        for (k, &i) in block.hot.iter().enumerate() {
            let (named, x) = (&hot.mats[i], hot.x(&hot.mats[i].csr));
            let y = &mut y[..named.csr.rows()];
            let r = request + 1 + (FOLLOW_UPS + k) as u64;
            let (_, s) = once(|| {
                tracer.span("engine.spmv", NO_PARENT, r, |_, _| {
                    engine.spmv(&named.id, &named.csr, x, y)
                })
            });
            hot_s.push(s);
            busy += s;
            if let Some(twin) = twin.filter(|_| r % HOT_TWIN_EVERY == 0) {
                twin.serve(tracer, r, i, named, x, y);
            }
        }

        out.blocks += 1;
        segment_busy += busy;
        if out.blocks % SEGMENT_BLOCKS as u64 == 0 {
            out.segment_rps.push((SEGMENT_BLOCKS * BLOCK_REQUESTS) as f64 / segment_busy);
            segment_busy = 0.0;
            hot_s.sort_by(f64::total_cmp);
            out.segment_hot_p50_s.push(percentile_windowed(&hot_s, 50.0));
            hot_s.clear();
            if start.elapsed() >= budget {
                break;
            }
        }
        n += 1;
    }
    tally.issued(issued);
}

/// After the section: flights landed, counters reconcile, the cache
/// evicted (once more cold bytes were admitted than it holds), and the
/// hot set still answers correctly.
fn verify_after(
    engine: &Engine,
    tally: &mut Tally,
    cfg: &EngineConfig,
    hot: &MatrixSet,
    cold_bytes: usize,
) {
    setup::require_counters_reconcile(engine, tally);
    recheck_set(engine, tally, hot);
    let c = engine.counters();
    if cold_bytes > 2 * cfg.cache_capacity_bytes {
        tally.require(layers::evictions(&c) > 0, || {
            format!(
                "{cold_bytes} cold bytes through a {} byte cache evicted nothing",
                cfg.cache_capacity_bytes
            )
        });
    }
    if cfg.admission == Admission::Sync {
        tally.require(c.served_fallback == 0, || {
            format!("{} CSR-path serves under Sync", c.served_fallback)
        });
    }
}

pub fn run(ctx: &Ctx, admission: Admission) -> Outcome {
    let mut out = Outcome::default();
    ctx.phase("inputs");
    let (traffic, gen_s) = once(|| Traffic {
        cold: MatrixSet::new(inputs::cold_set(ctx.seed)),
        hot: MatrixSet::new(inputs::small_set(ctx.seed)),
        seed: ctx.seed,
    });
    let (cold, hot) = (&traffic.cold, &traffic.hot);
    let cfg = config(admission);
    let origin = Instant::now();
    let (m, tally) = (&mut out.metrics, &mut out.tally);

    if !ctx.trace {
        let mut s = Section::new(cold.mats.len());
        // Every lifetime replays the schedule from block 0: a fresh
        // engine has seen none of the ids.
        let (engine, setup_s) = lifetimes(
            ctx,
            &cfg,
            tally,
            |e, tally| drop(admit_set(e, &mut Tracer::new(false, origin), tally, hot)),
            |e, tally, budget| {
                let admitted = s.cold_bytes;
                let mut off = Tracer::new(false, origin);
                section(e, &mut off, None, tally, &traffic, &mut s, 0, budget);
                verify_after(e, tally, &cfg, hot, s.cold_bytes - admitted);
            },
        );
        m.set("setup_s", setup_s);
        m.set("ops_per_s", s.ops_per_s());
        m.set("typical_us", Section::per_operand(&s.follow_s, fastest_tenth) * 1e6);
        m.set("slow_us", Section::per_operand(&s.first_s, fastest_tenth) * 1e6);
        out.note("blocks", s.blocks as f64);
        out.note("hot_p50_us", fastest_tenth(&s.segment_hot_p50_s) * 1e6);
        out.note("median_segment_rps", median(&s.segment_rps));
        out.note("median_hot_p50_us", median(&s.segment_hot_p50_s) * 1e6);
        out.note("median_first_touch_us", Section::per_operand(&s.first_s, median) * 1e6);
        out.note("median_follow_us", Section::per_operand(&s.follow_s, median) * 1e6);
        out.describe_engine(&engine);
        return out;
    }

    m.set("gen.materialize_s", gen_s);
    ctx.phase("set-up, taken apart");
    let engine = traced_engine(&cfg, m);
    admit_set(&engine, &mut Tracer::new(false, origin), tally, hot);
    let twin = HotTwin::new(&engine, &hot.mats);
    let before = engine.counters();
    ctx.phase("plain and traced sections");
    let (mut plain, mut traced) = (Section::new(cold.mats.len()), Section::new(cold.mats.len()));
    let mut off = Tracer::new(false, origin);
    section(&engine, &mut off, None, tally, &traffic, &mut plain, 0, ctx.budget(0.3));
    let mut tracer = Tracer::new(true, origin);
    let (first_block, budget) = (plain.blocks, ctx.budget(0.3));
    section(&engine, &mut tracer, Some(&twin), tally, &traffic, &mut traced, first_block, budget);
    verify_after(&engine, tally, &cfg, hot, plain.cold_bytes + traced.cold_bytes);
    layers::counter_metrics(m, &before, &engine.counters(), plain.blocks + traced.blocks);
    m.set("bench.trace_overhead", plain.ops_per_s() / traced.ops_per_s());

    ctx.phase("host probes");
    let roof = layers::host_probes(m, &ctx.host);
    ctx.phase("format sweep");
    layers::format_sweep(m, tally, &engine, cold, roof, 3);
    ctx.phase("pool probes");
    layers::pool_probes(m, &engine);
    ctx.phase("front-door probes");
    let probe: Vec<usize> = (0..nproc()).collect();
    layers::front_door_probes(m, &engine, &twin, hot, &probe, None, 200_000);
    ctx.phase("snapshot probes");
    layers::snapshot_probes(m, tally, &engine, &cfg);
    crate::solver::probe(m, tally, &engine, ctx.seed);
    out.spans = tracer.into_spans();
    let first: Vec<f64> = traced.first_s.iter().flatten().copied().collect();
    let follow: Vec<f64> = traced.follow_s.iter().flatten().copied().collect();
    setup::cold_metrics(&mut out.metrics, &out.spans, &first, &follow, &traced.clone_s);
    out.describe_engine(&engine);
    out
}
