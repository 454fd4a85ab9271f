//! Per-layer probes of the traced run: each times public calls of one
//! crate from outside, on the workload's own matrices and engine, and
//! files the result under that crate's name.

use crate::host::{self, HostFacts};
use crate::inputs::{MatrixSet, Named};
use crate::metrics::{Metrics, PER_FORMAT};
use crate::stats::{geomean, median};
use crate::timing::{once, per_call};
use crate::trace::{Tracer, NO_PARENT};
use crate::verify::Tally;
use spmv_core::{CsrMatrix, FeatureSet};
use spmv_engine::shard::Lookup;
use spmv_engine::{Engine, EngineConfig, EngineCounters, PlanTable, ShardedConversions};
use spmv_formats::{build_format_with, build_with_fallback_profile, FormatKind, SparseFormat};
use spmv_parallel::{blas1, PoolStats};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Right-hand sides of every SpMM call in the benchmark.
pub const SPMM_K: usize = 8;

/// Working set of `host.triad_ws_gbs`: what one `hot-large` kernel
/// streams, so the roof those kernels actually sit under.
const TRIAD_WS_BYTES: usize = 32 << 20;

/// Context numbers: they move with the host, not with the code.
pub fn host_probes(m: &mut Metrics, host: &HostFacts) -> f64 {
    let ws_gbs = host::triad_gbs(TRIAD_WS_BYTES / 24, 5);
    m.set("host.triad_gbs", host::triad_gbs(host::dram_triad_elems(host), 3));
    m.set("host.triad_ws_gbs", ws_gbs);
    m.set("host.llc_bytes", host.llc_bytes as f64);
    m.set("host.timer_ns", host::timer_ns());
    ws_gbs
}

fn kind_index(kind: FormatKind) -> usize {
    FormatKind::ALL.iter().position(|&k| k == kind).expect("kind is in ALL")
}

/// The format the engine serves `csr` in: its selection, then the same
/// refusal fallback chain the serve path walks.
pub fn served_format(engine: &Engine, csr: &CsrMatrix) -> (Box<dyn SparseFormat>, FormatKind) {
    let chain = [engine.default_format(), FormatKind::NaiveCsr];
    let planned = engine.select(&FeatureSet::extract(csr));
    let (built, actual, _) =
        build_with_fallback_profile(planned, csr, &chain, engine.lane_profile())
            .expect("fallback chain ends in CSR, which accepts any matrix");
    (built, actual)
}

/// The all-formats sweep over a matrix set: feature extraction,
/// selection, the CSR path, and for each of the 15 formats conversion
/// time, kernel rate, computed bandwidth and exact bytes per nonzero —
/// every answer checked against the CSR reference on a NaN-prefilled
/// `y`. Per-format numbers are geomeans over the matrices the format
/// accepted. The engine-selected format additionally runs SpMM, the
/// pool-parallel kernel and the fused SpMV+dot, and is judged against
/// the fastest measured format (regret) and the memory roof.
pub fn format_sweep(
    m: &mut Metrics,
    tally: &mut Tally,
    engine: &Engine,
    set: &MatrixSet,
    roof_gbs: f64,
    reps: usize,
) {
    let lanes = engine.lane_profile();
    let pool = engine.pool();
    let n_kinds = FormatKind::ALL.len();
    // [family][kind] → one sample per matrix the format accepted.
    let mut per_format: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); n_kinds]; PER_FORMAT.len()];
    let (mut extract, mut recommend, mut csr_gflops) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sel_gflops, mut sel_par, mut sel_spmm, mut sel_dot) = (vec![], vec![], vec![], vec![]);
    let (mut roof_frac, mut par_speedup) = (Vec::new(), Vec::new());
    let (mut regret, mut vs_csr) = (Vec::new(), Vec::new());
    let (mut refusals, mut top1) = (0usize, 0usize);
    let (mut selected_bytes, mut csr_bytes) = (0usize, 0usize);
    let mut y = vec![0.0; set.max_rows];

    for (named, want) in set.iter() {
        let csr = &named.csr;
        let (x, y) = (set.x(csr), &mut y[..csr.rows()]);
        let flops = 2.0 * csr.nnz() as f64;
        let features = FeatureSet::extract(csr);
        extract.push(per_call(reps, || FeatureSet::extract(csr)) * 1e9 / csr.nnz() as f64);
        recommend.push(per_call(reps, || engine.select(&features)) * 1e6);
        csr_gflops.push(flops / per_call(reps, || csr.spmv_into(x, y)) / 1e9);
        let (_, selected) = served_format(engine, csr);
        csr_bytes += csr.mem_footprint_bytes();

        let mut secs = vec![f64::INFINITY; n_kinds];
        for kind in FormatKind::ALL {
            let (built, convert_s) = once(|| build_format_with(kind, csr, lanes));
            let Ok(fmt) = built else {
                refusals += 1;
                continue;
            };
            y.fill(f64::NAN);
            let t = per_call(reps, || fmt.spmv(x, y));
            tally.issued(1);
            tally.check_close(y, want);
            let ki = kind_index(kind);
            secs[ki] = t;
            let samples = [
                flops / t / 1e9,
                (fmt.bytes() + 8 * (csr.rows() + csr.cols())) as f64 / t / 1e9,
                fmt.bytes() as f64 / csr.nnz() as f64,
                convert_s * 1e3,
            ];
            for (family, sample) in per_format.iter_mut().zip(samples) {
                family[ki].push(sample);
            }
            if kind != selected {
                continue;
            }
            selected_bytes += fmt.bytes();
            sel_gflops.push(samples[0]);
            roof_frac.push(samples[1] / roof_gbs);
            y.fill(f64::NAN);
            let t_par = per_call(reps, || fmt.spmv_parallel(pool, x, y));
            tally.issued(1);
            tally.check_close(y, want);
            sel_par.push(flops / t_par / 1e9);
            par_speedup.push(t / t_par);
            if csr.rows() == csr.cols() {
                sel_dot.push(flops / per_call(reps, || fmt.spmv_dot(x, y)) / 1e9);
            }
            let xk = spmm_operand(x);
            let mut yk = vec![f64::NAN; csr.rows() * SPMM_K];
            let t_spmm = per_call(reps.div_ceil(2), || fmt.spmm(&xk, SPMM_K, &mut yk));
            tally.issued(1);
            tally.check(spmm_matches(&yk, want));
            sel_spmm.push(flops * SPMM_K as f64 / t_spmm / 1e9);
        }
        let best = secs.iter().copied().fold(f64::INFINITY, f64::min);
        let t_sel = secs[kind_index(selected)];
        regret.push(t_sel / best);
        top1 += usize::from(t_sel == best);
        vs_csr.push(secs[kind_index(FormatKind::NaiveCsr)] / t_sel);
    }

    for ((family, _), by_kind) in PER_FORMAT.iter().zip(&per_format) {
        for (kind, samples) in FormatKind::ALL.iter().zip(by_kind) {
            // A format that refused the whole set has no rate to report.
            let value = if samples.is_empty() { 0.0 } else { geomean(samples) };
            m.set(format!("{family}.{}", kind.name()), value);
        }
    }
    m.set("core.extract_ns_per_nnz", geomean(&extract));
    m.set("analysis.recommend_us", geomean(&recommend));
    m.set("core.csr_spmv_gflops", geomean(&csr_gflops));
    m.set("formats.refusals", refusals as f64);
    m.set("formats.spmv_gflops.selected", geomean(&sel_gflops));
    m.set("formats.spmv_par_gflops.selected", geomean(&sel_par));
    m.set("formats.spmm_gflops.selected", geomean(&sel_spmm));
    m.set(
        "formats.spmv_dot_gflops.selected",
        if sel_dot.is_empty() { 0.0 } else { geomean(&sel_dot) },
    );
    m.set("formats.roof_frac.selected", geomean(&roof_frac));
    m.set("parallel.spmv_par_speedup", geomean(&par_speedup));
    m.set("analysis.regret_geomean", geomean(&regret));
    m.set("analysis.regret_max", regret.iter().copied().fold(1.0, f64::max));
    m.set("analysis.top1", top1 as f64 / set.mats.len() as f64);
    m.set("analysis.speedup_vs_csr", geomean(&vs_csr));
    m.set("engine.resident_over_csr", selected_bytes as f64 / csr_bytes as f64);
}

/// The SpMM operand built from `x`: column `j` of X is `(j+1)·x`, so
/// column `j` of Y must be `(j+1)·(A·x)`.
pub fn spmm_operand(x: &[f64]) -> Vec<f64> {
    (0..SPMM_K).flat_map(|j| x.iter().map(move |v| v * (j + 1) as f64)).collect()
}

/// Checks a column-major SpMM answer whose column `j` must equal
/// `(j+1) · want`.
pub fn spmm_matches(yk: &[f64], want: &[f64]) -> bool {
    let rows = want.len();
    yk.len() == rows * SPMM_K
        && (0..SPMM_K).all(|j| {
            let scaled: Vec<f64> = want.iter().map(|w| w * (j + 1) as f64).collect();
            crate::verify::close(&yk[j * rows..(j + 1) * rows], &scaled)
        })
}

/// Scheduler and BLAS-1 probes on the engine's own pool: an empty
/// fork-join, and the two vector kernels the solvers lean on.
pub fn pool_probes(m: &mut Metrics, engine: &Engine) {
    const ELEMS: usize = 4 << 20; // 32 MB per vector, beyond L2
    let pool = engine.pool();
    m.set("parallel.fork_join_us", per_call(50, || pool.run_tasks(pool.threads(), |_| {})) * 1e6);
    let a = crate::inputs::vector(ELEMS);
    let mut b = vec![0.5; ELEMS];
    m.set("parallel.dot_gbs", (16 * ELEMS) as f64 / per_call(5, || blas1::dot(pool, &a, &b)) / 1e9);
    m.set(
        "parallel.axpy_gbs",
        (24 * ELEMS) as f64 / per_call(5, || blas1::axpy(pool, 1e-9, &a, &mut b)) / 1e9,
    );
}

/// Benchmark-owned copies of the tables a hot request walks, holding
/// the same ids and formats as the engine: the hand-run twin of the hot
/// path (`core.hash` → `engine.plan_get` → `engine.cache_hit` →
/// `formats.spmv`), and the direct-call baseline of the front-door
/// probes.
pub struct HotTwin {
    plans: PlanTable,
    conversions: ShardedConversions,
    kinds: Vec<FormatKind>,
}

/// One hot request in this many gets a twin beside it.
pub const HOT_TWIN_EVERY: u64 = 64;

impl HotTwin {
    /// Builds, for every matrix of `set`, the format the engine serves
    /// it in, and files it under the same id.
    pub fn new(engine: &Engine, set: &[Named]) -> Self {
        let plans = PlanTable::new(1 << 16, 16);
        let conversions = ShardedConversions::new(4 << 30, 16);
        let kinds = set
            .iter()
            .map(|named| {
                let (fmt, kind) = served_format(engine, &named.csr);
                plans.insert_pending(&named.id, kind);
                plans.pin(&named.id, kind);
                match conversions.begin(&named.id, kind) {
                    Lookup::Lead(guard) => guard.finish(Arc::new(fmt), kind),
                    _ => unreachable!("ids of a set are distinct"),
                }
                kind
            })
            .collect();
        HotTwin { plans, conversions, kinds }
    }

    /// The twin of one hot request for matrix `i` of the set.
    pub fn serve(
        &self,
        t: &mut Tracer,
        request: u64,
        i: usize,
        named: &Named,
        x: &[f64],
        y: &mut [f64],
    ) {
        let id = named.id.as_str();
        t.span("twin.hot", NO_PARENT, request, |t, twin| {
            t.span("core.hash", twin, request, |_, _| black_box(spmv_core::fnv1a(id)));
            t.span("engine.plan_get", twin, request, |_, _| black_box(self.plans.get(id)));
            let fmt = t.span("engine.cache_hit", twin, request, |_, _| self.resident(i, id));
            t.span("formats.spmv", twin, request, |_, _| fmt.spmv(x, y));
        });
    }

    fn resident(&self, i: usize, id: &str) -> spmv_engine::shard::CachedFormat {
        match self.conversions.begin(id, self.kinds[i]) {
            Lookup::Hit(fmt, _) => fmt,
            _ => unreachable!("every id of the set was filed at construction"),
        }
    }
}

/// Front-door cost, on matrix `probe[k]` of `set` for client `k`: the
/// median `Engine::spmv` of a resident id minus the median of the same
/// format called directly — id hash, two shard locks, `Arc` traffic
/// and counters, and nothing else. With `evict`, a pass over that
/// matrix precedes every sample, so both sides run with the tables and
/// the operand out of cache, as they are between two large kernels. The
/// contended variant runs all clients at once. The two table lookups
/// and the counter volley are also timed on their own.
pub fn front_door_probes(
    m: &mut Metrics,
    engine: &Engine,
    twin: &HotTwin,
    set: &MatrixSet,
    probe: &[usize],
    evict: Option<&CsrMatrix>,
    samples: usize,
) {
    let evict_x = evict.map(|e| crate::inputs::vector(e.cols()));
    let sample = |i: usize, direct: bool| -> f64 {
        let (named, x) = (&set.mats[i], set.x(&set.mats[i].csr));
        let fmt = twin.resident(i, &named.id);
        let mut y = vec![0.0; named.csr.rows()];
        let mut scratch = vec![0.0; evict.map_or(0, CsrMatrix::rows)];
        let mut ns = Vec::with_capacity(samples);
        for _ in 0..samples {
            if let (Some(e), Some(ex)) = (evict, &evict_x) {
                e.spmv_into(ex, &mut scratch);
            }
            let t = Instant::now();
            if direct {
                fmt.spmv(x, &mut y);
            } else {
                engine.spmv(&named.id, &named.csr, x, &mut y);
            }
            ns.push(t.elapsed().as_nanos() as f64);
        }
        black_box(&y);
        median(&ns)
    };
    let direct_ns = sample(probe[0], true);
    m.set("engine.front_door_ns", sample(probe[0], false) - direct_ns);
    let contended: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = probe.iter().map(|&i| s.spawn(move || sample(i, false))).collect();
        handles.into_iter().map(|h| h.join().expect("probe client")).collect()
    });
    // Client 0 serves the matrix `direct_ns` was measured on.
    m.set("engine.front_door_contended_ns", contended[0] - direct_ns);

    let (i, id) = (probe[0], set.mats[probe[0]].id.as_str());
    m.set("engine.plan_get_ns", per_call(50, || twin.plans.get(id)) * 1e9);
    m.set("engine.cache_hit_ns", per_call(50, || twin.resident(i, id)) * 1e9);

    // The counter volley of one request (five relaxed increments on
    // adjacent shared counters), with every client hammering it.
    const VOLLEYS: u64 = 1 << 20;
    let bank: [AtomicU64; 5] = Default::default();
    let per_volley: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = probe
            .iter()
            .map(|_| {
                s.spawn(|| {
                    let t = Instant::now();
                    for _ in 0..VOLLEYS {
                        for c in &bank {
                            c.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    t.elapsed().as_nanos() as f64 / VOLLEYS as f64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("counter client")).collect()
    });
    m.set("engine.counters_ns", median(&per_volley));
}

/// The front-door probes for a workload whose own matrices run for
/// milliseconds (the difference of two such medians is kernel noise,
/// not front door): admits one small matrix per client beside them and
/// probes on those, with a pass over `evict` before every sample.
pub fn small_front_door_probes(
    m: &mut Metrics,
    tally: &mut Tally,
    engine: &Engine,
    seed: u64,
    evict: &CsrMatrix,
    samples: usize,
) {
    let clients = host::nproc();
    let mut small = crate::inputs::small_set(seed);
    small.truncate(clients);
    let small = MatrixSet::new(small);
    let mut off = Tracer::new(false, Instant::now());
    crate::setup::admit_set(engine, &mut off, tally, &small);
    let twin = HotTwin::new(engine, &small.mats);
    let probe: Vec<usize> = (0..clients).collect();
    front_door_probes(m, engine, &twin, &small, &probe, Some(evict), samples);
}

/// Engine and pool counters over a traced section, as counts and as
/// the ratios of useful outcomes to attempts.
pub fn counter_metrics(
    m: &mut Metrics,
    before: &EngineCounters,
    after: &EngineCounters,
    ids_admitted: u64,
) {
    let d = |f: fn(&EngineCounters) -> u64| (f(after) - f(before)) as f64;
    let requests = d(|c| c.requests);
    let lookups = d(|c| c.cache_lookups);
    let conversions = d(|c| c.conversions);
    m.set("engine.requests", requests);
    m.set("engine.conversions", conversions);
    m.set("engine.fallbacks", d(|c| c.fallbacks));
    m.set("engine.coalesced", d(|c| c.coalesced));
    m.set("engine.swaps", d(|c| c.swaps));
    m.set("engine.flights_scheduled", d(|c| c.flights_scheduled));
    m.set("engine.hit_ratio", if lookups > 0.0 { d(|c| c.cache_hits) / lookups } else { 1.0 });
    m.set("engine.selected_ratio", d(|c| c.served_selected) / requests.max(1.0));
    m.set("engine.reconvert_ratio", conversions / (ids_admitted.max(1)) as f64);
    m.set("engine.evictions", evictions(after) as f64);
    let p = |f: fn(&PoolStats) -> u64| (f(&after.pool) - f(&before.pool)) as f64;
    m.set("parallel.high_tasks", p(|s| s.high_tasks));
    m.set("parallel.low_tasks", p(|s| s.low_tasks));
    m.set("parallel.steals", p(|s| s.steals));
    m.set("parallel.parks", p(|s| s.parks));
}

/// Conversions no longer resident: built once, evicted since (no
/// workload calls `forget`).
pub fn evictions(c: &EngineCounters) -> u64 {
    c.conversions.saturating_sub(c.cached_entries as u64)
}

/// Snapshot and restore throughput of the workload's engine, to and
/// from memory — what a warm boot would add to set-up.
pub fn snapshot_probes(m: &mut Metrics, tally: &mut Tally, engine: &Engine, cfg: &EngineConfig) {
    // Sized up front: growing a quarter-gigabyte `Vec` by doubling
    // would time the allocator, not the encoder.
    let mut image = Vec::with_capacity(engine.counters().bytes_resident * 5 / 4 + (1 << 20));
    let (written, write_s) = once(|| engine.snapshot(&mut image));
    tally.require(written.is_ok(), || format!("snapshot failed: {written:?}"));
    let fresh = Engine::with_selector(cfg.clone(), engine.selector().clone())
        .expect("the workload's own configuration is valid");
    let (restored, read_s) = once(|| fresh.restore(&mut image.as_slice()));
    let resident = engine.counters().cached_entries;
    tally.require(restored.as_ref().is_ok_and(|r| r.conversions_restored == resident), || {
        format!("restore landed {restored:?}, snapshot held {resident} conversions")
    });
    let mb = image.len() as f64 / 1e6;
    m.set("engine.snapshot_bytes", image.len() as f64);
    m.set("engine.snapshot_mb_s", mb / write_s);
    m.set("engine.restore_mb_s", mb / read_s);
}
