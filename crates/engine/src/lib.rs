//! # spmv-engine
//!
//! The adaptive serving layer of the suite: one API that accepts any
//! CSR matrix and any device profile, predicts the best storage format
//! from the paper's five structural features (§III-A), converts lazily,
//! and serves `spmv` / `spmv_parallel` / `spmm` through the shared
//! execution layer. This is the piece the format-selection literature
//! the paper surveys (\[3\]–\[11\]) builds toward: features in, a
//! served matrix–vector product out.
//!
//! Pipeline per admitted matrix:
//!
//! 1. **extract** — [`FeatureSet::estimate`]: exact row statistics and
//!    neighbours, cross-row similarity from a fixed row sample (once per
//!    id, by its conversion leader: under `Async`, its flight);
//! 2. **select** — k-NN vote over the best-format labels of the
//!    configured device's campaign records ([`FormatSelector`]): timed
//!    kernels of this machine for the default `Host` profile, the
//!    analytic model for a Table II testbed — restricted to the formats
//!    that profile actually has, and served as one of the seven kinds
//!    of [`FormatKind::SERVING`] ([`FormatKind::served_as`]: Naive-CSR,
//!    Balanced-CSR for every other CSR-family label, ELL, HYB and the
//!    three SELL-C-σ chunk heights; a modeled device's other formats
//!    are for its figures only);
//! 3. **convert** — build the chosen format, falling back to Naive-CSR
//!    for a format that refuses a matrix (of the serving set, only ELL
//!    does: its padding budget), and keep it in a byte-bounded LRU
//!    [`ConversionCache`]. *When* the build runs is the admission
//!    policy ([`Admission`]): synchronously on the first request, or in
//!    a background flight while requests are served via the universal
//!    CSR path;
//! 4. **serve** — run the kernel; every call is counted in the
//!    [`EngineCounters`] so operators can see selections per format,
//!    cache hit rates, fallbacks and resident bytes.
//!
//! ## Asynchronous admission
//!
//! Conversion is the expensive step — SELL-C-σ costs many
//! SpMV-equivalents to build — and under [`Admission::Sync`] the first
//! client of a cold matrix pays that latency before seeing any result:
//! exactly backwards for a serving system. Under [`Admission::Async`]
//! the plan moves through a staged lifecycle
//! ([`PlanState`]: `Building → Pinned`): a cold request peeks the
//! cache, claims the id's one background admission flight — a
//! low-priority task on the work-stealing thread pool, which workers
//! run only when no serve task wants the core — and is answered
//! immediately from the raw CSR operand. The request path runs no
//! feature pass, no selection and no conversion: the flight extracts
//! the features, selects the format and converts it.
//! When the flight lands, the converted format is published and the
//! plan re-pinned *inside one critical section* (see
//! [`ShardedConversions::land`]), and subsequent requests serve
//! the selected format. [`EngineCounters::served_fallback`] /
//! [`EngineCounters::served_selected`] / [`EngineCounters::swaps`]
//! make the transition observable, and
//! `served_fallback + served_selected == requests` reconciles exactly.
//!
//! The serve path is built for concurrent clients: the plan table and
//! conversion cache are split over hash shards with independent locks,
//! and concurrent misses on the same id coalesce onto a single
//! conversion (see the [`shard`] module). Conversions never run under a
//! lock.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod shard;
pub mod snapshot;
pub mod solve;
pub mod training;

pub use cache::ConversionCache;
pub use shard::{PlanState, PlanTable, ShardedConversions};
pub use snapshot::{selector_from_snapshot, RestoreStats, SnapshotError, SNAPSHOT_MAGIC};
pub use solve::{SolveError, SolveHandle, SolveOutcome};
pub use training::{selector_from_records, TrainingPlan};

use shard::{CachedFormat, Landed};
use spmv_analysis::{FormatSelector, SelectorFeatures};
use spmv_core::{CsrMatrix, FeatureSet};
use spmv_devices::{device_by_name, DeviceSpec};
use spmv_formats::csr::CsrFormat;
use spmv_formats::{build_with_fallback_profile, FormatKind, LaneProfile, SparseFormat};
use spmv_parallel::sync::{AtomicU64, AtomicUsize, Ordering};
use spmv_parallel::{PoolStats, ThreadPool};
use std::cell::Cell;
use std::sync::Arc;

/// When the engine pays for format conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Convert on the request path: the first request of a cold matrix
    /// blocks until the selected format is built, every later request
    /// hits the cache. Deterministic (a request's counters move before
    /// it returns), so tests and benches default to it.
    Sync,
    /// Never convert on the request path: a cold request is answered
    /// immediately via the universal CSR path while the selected format
    /// builds in a background flight; when it lands, the plan is
    /// swapped atomically and later requests serve the converted
    /// format.
    ///
    /// The flight must own its input past the caller's borrow, so the
    /// one request that claims an admission hands it a clone of the
    /// operand — which shares the operand's arrays (three reference
    /// counts, no copy). That, the claim and the CSR-path answer are
    /// the whole request-path cost: the feature pass, the selection and
    /// the conversion `Sync` charges there all run in the flight.
    Async {
        /// Maximum background conversion flights outstanding (queued or
        /// building) at once. A cold request arriving at the cap serves
        /// the CSR path without scheduling; the next request of that id
        /// retries. `0` disables conversion entirely (every request
        /// serves the CSR path) — a legitimate degenerate config that
        /// tests use to pin down the request path's zero-conversion
        /// guarantee.
        max_in_flight: usize,
    },
}

/// Configuration of an [`Engine`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Device profile the selector optimizes for. The default, `"Host"`,
    /// is this machine as measured: the selector is fitted from the
    /// timed kernels of the calibration table committed in
    /// `spmv-devices` (swept on the reference host; see the README,
    /// "calibrating for your host", for any other). A Table II testbed
    /// name selects for that *modeled* device instead — the kernels
    /// still execute on the host.
    pub device: String,
    /// Footprint divisor shared with the dataset/device scaling
    /// machinery (see `spmv_gen::dataset::Dataset::scale`). Scales the
    /// modeled testbeds and their training lattice; measured `Host`
    /// records are what they are, so it does not apply to them.
    pub scale: f64,
    /// Neighbor count of the k-NN vote. With lattice-dense training
    /// data the nearest neighbor alone is the best predictor, so the
    /// default is 1.
    pub k: usize,
    /// Byte budget of the conversion cache (default 256 MB). The
    /// budget is split evenly over [`EngineConfig::shards`], so
    /// eviction pressure is per shard: size it so one shard
    /// (`cache_capacity_bytes / shards`) holds a plausible slice of
    /// the hot working set, or lower `shards` for few-but-huge
    /// matrix mixes (see [`ShardedConversions::new`]).
    pub cache_capacity_bytes: usize,
    /// Maximum matrix ids remembered in the selection-plan table
    /// (default 65 536). Plans are tiny, but a serve stream of
    /// unboundedly many distinct ids must not grow memory without
    /// bound. Plans are consulted, and their recency refreshed, on
    /// misses only: a resident id serves whatever its plan, and an
    /// evicted plan is re-extracted on the id's next miss. Only
    /// `Building` plans overshoot the bound: under [`Admission::Async`]
    /// it can transiently grow by up to `max_in_flight` entries, since a
    /// `Building` plan is spared from eviction until its flight lands
    /// (evicting one would discard the finished conversion and convert
    /// twice). A live [`SolveHandle`] does not hold its plan resident.
    pub plan_capacity: usize,
    /// Worker threads for `spmv_parallel`/training (0 = all cores).
    pub threads: usize,
    /// Lock shards of the plan table and conversion cache (default
    /// 16). More shards let unrelated matrices serve without touching
    /// the same lock, but also slice the cache byte budget and plan
    /// capacity more finely (both are split evenly per shard); the
    /// plan table never uses more shards than `plan_capacity`, so its
    /// total bound holds (modulo the transient `Building` overshoot
    /// described on [`EngineConfig::plan_capacity`]).
    pub shards: usize,
    /// When conversions run: on the request path ([`Admission::Sync`],
    /// the default) or in background flights ([`Admission::Async`]).
    pub admission: Admission,
    /// How the built-in training campaign samples the dataset (modeled
    /// testbeds only; `Host` loads its committed table).
    pub training: TrainingPlan,
    /// Path of an engine snapshot (written by [`Engine::snapshot`]) to
    /// restore before the first request. A missing file is a silent
    /// cold start — the normal first boot; any other open failure, or
    /// a corrupt snapshot, fails construction with
    /// [`EngineError::Snapshot`] (serving unexpectedly cold is an
    /// operational surprise worth a hard error). `None` (the default)
    /// skips warm start entirely.
    pub warm_start: Option<std::path::PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            device: spmv_devices::host::NAME.into(),
            scale: 16.0,
            k: 1,
            cache_capacity_bytes: 256 << 20,
            plan_capacity: 1 << 16,
            threads: 0,
            shards: 16,
            admission: Admission::Sync,
            training: TrainingPlan::default(),
            warm_start: None,
        }
    }
}

/// Errors raised while constructing an [`Engine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The configured device name is neither `"Host"` (the measured
    /// profile of this machine) nor a Table II testbed.
    UnknownDevice(String),
    /// The training campaign produced no usable (non-failed) records.
    EmptyTrainingSet,
    /// The [`EngineConfig::warm_start`] snapshot could not be read or
    /// restored (a missing file is *not* an error — see the knob's
    /// docs).
    Snapshot(SnapshotError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownDevice(name) => {
                write!(
                    f,
                    "unknown device profile {name:?} (expected \"Host\" or a Table II testbed)"
                )
            }
            EngineError::EmptyTrainingSet => {
                write!(f, "training campaign produced no usable records")
            }
            EngineError::Snapshot(e) => write!(f, "warm start failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SnapshotError> for EngineError {
    fn from(e: SnapshotError) -> Self {
        EngineError::Snapshot(e)
    }
}

/// Snapshot of an engine's instrumentation counters.
///
/// Invariants (asserted by the integration tests):
///
/// * the per-format selection counts sum to `requests`;
/// * every request is served exactly one way —
///   `served_selected + served_fallback == requests` (under
///   [`Admission::Sync`], `served_fallback` is always zero);
/// * every lookup that touched the conversion machinery is classified
///   exactly once — `cache_hits + cache_misses + coalesced ==
///   cache_lookups`. Under `Sync` admission additionally
///   `cache_lookups == requests`; under `Async`, a request whose format
///   is not yet resident serves the CSR path *without* a lookup, and
///   each background flight performs one lookup of its own when it
///   runs.
///
/// Duplicate racing conversions would show up as `conversions`
/// exceeding the number of ids resident; single-flight per id — which
/// also hands a stale read of a refused plan the resident fallback
/// instead of a second refused conversion — keeps that difference at
/// zero on an eviction-free mix. An LRU eviction legitimately rebuilds
/// on the next request — alert on sustained growth of the difference,
/// not on any nonzero value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineCounters {
    /// Serve calls (`spmv` + `spmv_parallel` + `spmm`).
    pub requests: u64,
    /// Requests served with the engine-selected converted format.
    pub served_selected: u64,
    /// Requests served via the universal CSR path while the selected
    /// format was not (yet) resident — asynchronous admission's
    /// immediate answers. Sustained growth with no matching `swaps`
    /// growth means flights are not landing (low class starved or
    /// `max_in_flight` too low).
    pub served_fallback: u64,
    /// Background admission flights whose own conversion landed: the
    /// flight built the format, published it, and re-pinned its plan
    /// (`Building → Pinned`) in one critical section. Exactly one per
    /// converted id — a flight that finds the id's conversion already
    /// resident re-pins without counting a swap.
    pub swaps: u64,
    /// Conversion-cache lookups (see the invariants above for how they
    /// relate to `requests` per admission mode).
    pub cache_lookups: u64,
    /// Lookups answered from the cache.
    pub cache_hits: u64,
    /// Lookups that missed and led a conversion themselves.
    pub cache_misses: u64,
    /// Lookups that missed while another thread was already converting
    /// the same id and waited for its result instead of
    /// duplicating the work. Without this class, coalesced work would
    /// silently under-report as neither hit nor miss.
    pub coalesced: u64,
    /// Format conversions actually executed (each a cache miss that
    /// completed its build; a lookup whose build panicked counts as
    /// nothing, and the waiter that retries counts its own).
    pub conversions: u64,
    /// Feature passes ([`FeatureSet::estimate`]) the engine ran to
    /// select a format: one per conversion leader that found no kind
    /// planned for its id — the request thread under `Sync`, the
    /// admission flight under `Async`. On an eviction-free `Sync` mix,
    /// `extractions == conversions`.
    pub extractions: u64,
    /// Conversion candidates that refused a matrix (ELL's padding
    /// budget) before a fallback format accepted it.
    pub fallbacks: u64,
    /// Bytes of converted formats currently resident in the cache.
    pub bytes_resident: usize,
    /// Resident cache entries.
    pub cached_entries: usize,
    /// Matrix ids currently remembered in the selection-plan table.
    pub planned_entries: usize,
    /// Background admission flights currently outstanding (scheduled
    /// but not yet landed or aborted).
    pub admissions_in_flight: usize,
    /// Background admission flights ever submitted to the pool's
    /// low-priority class. After [`Engine::drain_admissions`] every one
    /// of them has run (landed or aborted), so `flights_scheduled`
    /// reconciles against `pool.low_tasks` minus any non-engine low
    /// jobs the caller submitted (e.g. test gates).
    pub flights_scheduled: u64,
    /// Scheduling activity of the engine's thread pool: tasks executed
    /// per priority class, steals, and worker parks (see
    /// [`spmv_parallel::PoolStats`]). Under [`Admission::Sync`] the low
    /// class is never used, so `pool.low_tasks == 0` exactly.
    pub pool: PoolStats,
    /// Solver runs started via [`SolveHandle`] (`cg` + `bicgstab`
    /// calls). Each [`Engine::solver`] resolution also counts as one
    /// request (it is one — the only one the whole solve pays).
    pub solves: u64,
    /// Solver iterations completed across all solves — converged,
    /// exhausted, and broken-down runs alike (a breakdown at iteration
    /// k contributed k completed iterations). The reconciliation
    /// invariant: with the serve paths quiet, this equals the sum of
    /// per-solve iteration counts reported in [`SolveOutcome`]s plus
    /// the iterations completed before any [`SolveError`]s.
    pub solver_iterations: u64,
    /// Live [`SolveHandle`]s (a gauge, not a cumulative count): up on
    /// [`Engine::solver`], down on the handle's drop. The name is older
    /// than the gauge — it counted plans that solves pinned against
    /// eviction, and consumers that require it to read 0 once every
    /// handle is dropped keep reading it under that name.
    pub pinned_plans: usize,
    /// Serve calls per format actually used, in [`FormatKind::ALL`]
    /// order (zero-count formats included). CSR-path fallback serves
    /// count under [`FormatKind::NaiveCsr`], the format they execute.
    pub selections: Vec<(FormatKind, u64)>,
}

impl EngineCounters {
    /// Sum of the per-format selection counts (== `requests`).
    pub fn total_selections(&self) -> u64 {
        self.selections.iter().map(|&(_, n)| n).sum()
    }
}

/// One thread's share of the counters, alone on its cache lines.
#[derive(Default)]
#[repr(align(128))]
struct Stripe {
    requests: AtomicU64,
    served_selected: AtomicU64,
    served_fallback: AtomicU64,
    swaps: AtomicU64,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    conversions: AtomicU64,
    extractions: AtomicU64,
    fallbacks: AtomicU64,
    flights_scheduled: AtomicU64,
    solves: AtomicU64,
    solver_iterations: AtomicU64,
    selections: [AtomicU64; FormatKind::ALL.len()],
}

/// Counter stripes per engine; threads beyond it share stripes.
const STRIPES: usize = 16;

thread_local! {
    /// This thread's stripe, handed out round-robin on its first count.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The engine's counters, striped per thread and summed on read.
#[derive(Default)]
struct CounterBank {
    stripes: [Stripe; STRIPES],
    next: AtomicUsize,
}

impl CounterBank {
    /// The calling thread's stripe.
    fn mine(&self) -> &Stripe {
        let i = STRIPE.with(|s| {
            if s.get() == usize::MAX {
                s.set(self.next.fetch_add(1, Ordering::Relaxed) % STRIPES);
            }
            s.get()
        });
        &self.stripes[i]
    }

    /// One counter summed over the stripes.
    fn sum(&self, counter: impl Fn(&Stripe) -> &AtomicU64) -> u64 {
        self.stripes.iter().map(|s| counter(s).load(Ordering::Relaxed)).sum()
    }
}

/// The shared serving state background admission flights hold onto:
/// everything a flight needs to land after the request that scheduled
/// it has long returned. `Arc`-shared between the [`Engine`] and every
/// queued flight, so an engine drop never dangles a flight.
struct ServeState {
    device: DeviceSpec,
    selector: FormatSelector,
    plans: PlanTable,
    conversions: ShardedConversions,
    counters: CounterBank,
    /// Outstanding background admissions (queued or building).
    in_flight: AtomicUsize,
    /// Live solver handles ([`EngineCounters::pinned_plans`]).
    live_solves: AtomicUsize,
    /// Lane profile every conversion (foreground or flight) builds at:
    /// `SPMV_LANES` when set, else the device profile's SIMD width.
    lanes: LaneProfile,
}

impl ServeState {
    /// See [`Engine::select`].
    fn select(&self, features: &FeatureSet) -> FormatKind {
        let probe = SelectorFeatures {
            footprint_mb: features.mem_footprint_mb,
            avg_nnz_per_row: features.avg_nnz_per_row,
            skew: features.skew_coeff,
            cross_row_sim: features.cross_row_sim,
            avg_num_neigh: features.avg_num_neigh,
        };
        self.selector
            .recommend(&probe)
            .and_then(FormatKind::from_name)
            .filter(|k| self.device.formats.contains(k))
            .and_then(FormatKind::served_as)
            .unwrap_or(FormatKind::NaiveCsr)
    }

    /// One feature pass and the selection it feeds, counted in
    /// `extractions`: run with no lock held; the estimate's cost is in
    /// `BENCH_extract.json` (`estimate_us`).
    fn extract_and_select(&self, csr: &CsrMatrix) -> FormatKind {
        self.counters.mine().extractions.fetch_add(1, Ordering::Relaxed);
        self.select(&FeatureSet::estimate(csr))
    }

    /// Lands `id`, building a miss of the kind `plan` names with
    /// Naive-CSR as the fallback, and counts the lookup: the one place
    /// a landing moves counters.
    fn land(
        &self,
        id: &str,
        csr: &CsrMatrix,
        plan: impl FnMut() -> FormatKind,
        ticket: Option<u64>,
    ) -> (CachedFormat, FormatKind, Landed) {
        let (fmt, kind, landed) = self.conversions.land(&self.plans, id, plan, ticket, |kind| {
            let (built, actual, refused) =
                build_with_fallback_profile(kind, csr, &[FormatKind::NaiveCsr], self.lanes)
                    .expect("the fallback is CSR, which accepts any matrix");
            (Arc::new(built), actual, refused)
        });
        let c = self.counters.mine();
        c.lookups.fetch_add(1, Ordering::Relaxed);
        let class = match landed {
            Landed::Hit => &c.hits,
            Landed::Coalesced => &c.coalesced,
            Landed::Built { refused, .. } => {
                c.fallbacks.fetch_add(refused as u64, Ordering::Relaxed);
                c.conversions.fetch_add(1, Ordering::Relaxed);
                &c.misses
            }
        };
        class.fetch_add(1, Ordering::Relaxed);
        (fmt, kind, landed)
    }
}

/// How one request was answered.
enum Served {
    /// The engine-selected converted format (resident in the cache).
    Selected(CachedFormat, FormatKind),
    /// The universal CSR path, straight off the caller's operand (the
    /// format shares its arrays) — no conversion, no converted format
    /// involved: nnz-balanced row chunks, each row one sequential sum,
    /// i.e. the summation order of [`CsrMatrix::spmv_into`] bit for bit
    /// in every kernel. Built at the engine's lane profile, it runs
    /// that order as Naive-CSR does: across rows on the vector unit at
    /// a vector profile, the scalar loop at `LaneProfile::scalar()`.
    CsrPath(CsrFormat),
}

impl Served {
    /// The format that answers the request, and the kind it is counted
    /// and reported as.
    fn format(&self) -> (&dyn SparseFormat, FormatKind) {
        match self {
            Served::Selected(fmt, kind) => (&***fmt, *kind),
            Served::CsrPath(csr) => (csr, FormatKind::NaiveCsr),
        }
    }
}

/// The adaptive SpMV serving engine. See the [crate docs](self) for the
/// pipeline; all methods take `&self` and are built for concurrent
/// callers: the plan table and conversion cache are sharded by
/// matrix-id hash, a hit takes one shard lock, racing misses on one id
/// coalesce onto a single conversion, and each thread counts on its own
/// stripe of atomics.
pub struct Engine {
    pool: ThreadPool,
    admission: Admission,
    warm_start: Option<std::path::PathBuf>,
    state: Arc<ServeState>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("device", &self.state.device.name)
            .field("selector_len", &self.state.selector.len())
            .field("threads", &self.pool.threads())
            .field("admission", &self.admission)
            .finish()
    }
}

impl Engine {
    /// Builds an engine with a selector trained from the configured
    /// device's records: the committed calibration table for `Host`
    /// (measured labels, about a millisecond), the built-in campaign
    /// over `config.training` for a Table II testbed (noise-free model
    /// labels, seconds).
    pub fn new(config: EngineConfig) -> Result<Engine, EngineError> {
        // Resolve the device before spawning the pool or paying for
        // the training campaign: a typo must fail in microseconds, not
        // after a full dataset sweep doomed to produce zero records.
        let device = Self::resolve_device(&config)?;
        let pool = Self::make_pool(config.threads);
        let records = config.training.records(&config.device, config.scale, &pool);
        let selector = selector_from_records(&records, config.k);
        if selector.is_empty() {
            return Err(EngineError::EmptyTrainingSet);
        }
        let engine = Self::assemble(config, device, selector, pool);
        engine.apply_warm_start()?;
        Ok(engine)
    }

    /// Builds an engine around an already-fitted (possibly
    /// deserialized) selector. An empty selector is allowed: every
    /// request then serves [`Engine::default_format`].
    pub fn with_selector(
        config: EngineConfig,
        selector: FormatSelector,
    ) -> Result<Engine, EngineError> {
        let device = Self::resolve_device(&config)?;
        let pool = Self::make_pool(config.threads);
        let engine = Self::assemble(config, device, selector, pool);
        engine.apply_warm_start()?;
        Ok(engine)
    }

    /// Restores the [`EngineConfig::warm_start`] snapshot, if one is
    /// configured and present. Runs after assembly (the restore goes
    /// through the regular flight machinery) but before the engine is
    /// handed to the caller, so the first request already sees the
    /// restored plans and conversions.
    fn apply_warm_start(&self) -> Result<(), EngineError> {
        let Some(path) = &self.warm_start else {
            return Ok(());
        };
        let mut file = match std::fs::File::open(path) {
            Ok(f) => f,
            // First boot: nothing was ever snapshotted. Cold is normal.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(EngineError::Snapshot(SnapshotError::Io(e.to_string()))),
        };
        self.restore(&mut file)?;
        Ok(())
    }

    fn resolve_device(config: &EngineConfig) -> Result<DeviceSpec, EngineError> {
        device_by_name(&config.device)
            .map(|d| d.scaled(config.scale))
            .ok_or_else(|| EngineError::UnknownDevice(config.device.clone()))
    }

    fn make_pool(threads: usize) -> ThreadPool {
        if threads == 0 {
            ThreadPool::with_all_cores()
        } else {
            ThreadPool::new(threads)
        }
    }

    fn assemble(
        config: EngineConfig,
        device: DeviceSpec,
        selector: FormatSelector,
        pool: ThreadPool,
    ) -> Engine {
        let lanes = LaneProfile::resolve(Some(device.lane_profile()));
        Engine {
            pool,
            admission: config.admission,
            warm_start: config.warm_start.clone(),
            state: Arc::new(ServeState {
                device,
                selector,
                plans: PlanTable::new(config.plan_capacity, config.shards),
                conversions: ShardedConversions::new(config.cache_capacity_bytes, config.shards),
                counters: CounterBank::default(),
                in_flight: AtomicUsize::new(0),
                live_solves: AtomicUsize::new(0),
                lanes,
            }),
        }
    }

    /// The (scaled) device profile selections are optimized for.
    pub fn device(&self) -> &DeviceSpec {
        &self.state.device
    }

    /// The fitted selector (serialize it with
    /// [`FormatSelector::to_portable`] to skip training next time).
    pub fn selector(&self) -> &FormatSelector {
        &self.state.selector
    }

    /// The engine's worker pool (shared with `spmv_parallel` serving
    /// and the background admission lane).
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// The configured admission policy.
    pub fn admission(&self) -> Admission {
        self.admission
    }

    /// The format served when a recommendation names nothing the engine
    /// may serve on this device, and the one a refused conversion falls
    /// back to: Naive-CSR, which accepts any matrix, on every device.
    pub fn default_format(&self) -> FormatKind {
        FormatKind::NaiveCsr
    }

    /// The lane profile conversions run at: the `SPMV_LANES` override
    /// when set, otherwise the device profile's SIMD width.
    pub fn lane_profile(&self) -> LaneProfile {
        self.state.lanes
    }

    /// Pure selection: the format the engine would pick for a matrix
    /// with these features — the serving kind of the k-NN
    /// recommendation ([`FormatKind::served_as`]) when the device
    /// profile has the recommended format, [`Engine::default_format`]
    /// otherwise. No counters move; serving paths layer caching and
    /// fallback on top of this.
    pub fn select(&self, features: &FeatureSet) -> FormatKind {
        self.state.select(features)
    }

    /// The kind a `Sync` conversion leader builds: its id's plan, or a
    /// fresh selection (inserted `Pending` when the id is absent).
    /// Only a leader plans, so racing serves of a cold id extract once.
    fn plan(&self, id: &str, csr: &CsrMatrix) -> FormatKind {
        self.state.plans.get_or_insert_with(id, || self.state.extract_and_select(csr))
    }

    /// Asynchronous serve: answer from the cache when the selected
    /// format is resident, otherwise ensure a background flight is on
    /// its way and answer via the CSR path — never extracting,
    /// converting or waiting on a conversion on this thread.
    fn serve_async(&self, id: &str, csr: &CsrMatrix, max_in_flight: usize) -> Served {
        if let Some((fmt, actual)) = self.state.conversions.peek(id) {
            let c = self.state.counters.mine();
            c.lookups.fetch_add(1, Ordering::Relaxed);
            c.hits.fetch_add(1, Ordering::Relaxed);
            return Served::Selected(fmt, actual);
        }
        self.try_schedule_admission(id, csr, max_in_flight);
        Served::CsrPath(CsrFormat::balanced_in_order(csr.clone(), self.state.lanes))
    }

    /// Claims and schedules one background admission flight for `id`,
    /// respecting `max_in_flight`. The slot is reserved before the
    /// claim so an over-cap caller backs off without touching the plan
    /// table.
    fn try_schedule_admission(&self, id: &str, csr: &CsrMatrix, max_in_flight: usize) {
        let st = &self.state;
        if st
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < max_in_flight).then_some(n + 1)
            })
            .is_err()
        {
            return; // at capacity: serve the CSR path, retry next request
        }
        let Some((kind, epoch)) = st.plans.try_begin_build(id) else {
            // Another request's flight owns the build; give the slot
            // back.
            st.in_flight.fetch_sub(1, Ordering::AcqRel);
            return;
        };
        // Our peek raced a landing: the plan we just claimed may have
        // been `Pinned` (or inserted) by a conversion that published
        // between the peek and the claim. Re-check residency now that
        // the claim is exclusive: re-pin and back out instead of
        // scheduling a no-op flight.
        if let Some((_, actual)) = st.conversions.peek(id) {
            st.plans.finish_build(id, epoch, actual);
            st.in_flight.fetch_sub(1, Ordering::AcqRel);
            return;
        }
        // The flight owns a clone of its operand, sharing the arrays
        // (the caller's borrow ends when this request returns, long
        // before the flight lands).
        let state = Arc::clone(&self.state);
        let id = id.to_string();
        let csr = csr.clone();
        st.counters.mine().flights_scheduled.fetch_add(1, Ordering::Relaxed);
        self.pool.submit_low(move || run_admission(&state, &id, &csr, kind, epoch));
    }

    /// Serves and counts one request (a solver handle forces `Sync`).
    fn serve(&self, id: &str, csr: &CsrMatrix, admission: Admission) -> Served {
        let served = match admission {
            Admission::Sync => {
                let (fmt, kind, _) = self.state.land(id, csr, || self.plan(id, csr), None);
                Served::Selected(fmt, kind)
            }
            Admission::Async { max_in_flight } => self.serve_async(id, csr, max_in_flight),
        };
        let c = self.state.counters.mine();
        c.requests.fetch_add(1, Ordering::Relaxed);
        let by_path = match served {
            Served::Selected(..) => &c.served_selected,
            Served::CsrPath(_) => &c.served_fallback,
        };
        by_path.fetch_add(1, Ordering::Relaxed);
        c.selections[served.format().1 as usize].fetch_add(1, Ordering::Relaxed);
        served
    }

    /// Serves `y = A·x` sequentially; returns the format that ran
    /// (under asynchronous admission, [`FormatKind::NaiveCsr`] until
    /// the conversion flight lands). `y` is fully overwritten.
    ///
    /// `id` names the matrix for the plan/conversion caches; serving
    /// the same id with a *different* matrix is a caller bug (use
    /// [`Engine::forget`] first if a matrix changes in place).
    ///
    /// # Panics
    /// Panics, before the request is counted, unless `x` holds `cols`
    /// and `y` holds `rows` values.
    pub fn spmv(&self, id: &str, csr: &CsrMatrix, x: &[f64], y: &mut [f64]) -> FormatKind {
        check_operands(csr, x, 1, y);
        let served = self.serve(id, csr, self.admission);
        let (fmt, kind) = served.format();
        fmt.spmv(x, y);
        kind
    }

    /// Serves `y = A·x` on the engine's thread pool; returns the format
    /// that ran. `y` is fully overwritten.
    ///
    /// # Panics
    /// Panics, before the request is counted, unless `x` holds `cols`
    /// and `y` holds `rows` values.
    pub fn spmv_parallel(&self, id: &str, csr: &CsrMatrix, x: &[f64], y: &mut [f64]) -> FormatKind {
        check_operands(csr, x, 1, y);
        let served = self.serve(id, csr, self.admission);
        let (fmt, kind) = served.format();
        fmt.spmv_parallel(&self.pool, x, y);
        kind
    }

    /// Serves the batched multi-vector product `Y = A·X` (`k` column-
    /// major right-hand sides, see
    /// [`spmv_formats::SparseFormat::spmm`]); returns the format that
    /// ran. `y` is fully overwritten.
    ///
    /// # Panics
    /// Panics, before the request is counted, unless `x` holds
    /// `cols · k` and `y` holds `rows · k` values.
    pub fn spmm(
        &self,
        id: &str,
        csr: &CsrMatrix,
        x: &[f64],
        k: usize,
        y: &mut [f64],
    ) -> FormatKind {
        check_operands(csr, x, k, y);
        let served = self.serve(id, csr, self.admission);
        let (fmt, kind) = served.format();
        fmt.spmm(x, k, y);
        kind
    }

    /// Creates a plan-once/run-many solver handle for `id` (see
    /// [`SolveHandle`]): resolves the matrix's plan **synchronously**
    /// — even under asynchronous admission, since a solver is about to
    /// run many SpMVs on the chosen format, so paying the conversion
    /// up front is the point — holds the served format for the
    /// handle's lifetime, and preallocates every operand vector once.
    /// The handle's `cg`/`bicgstab` iterations then run on fused
    /// SpMV+dot kernels and deterministic parallel BLAS-1, bypassing
    /// the engine front door (plan lookup, counter traffic) entirely.
    ///
    /// The resolution counts as one serve request; `forget` of the id
    /// mid-solve is honored for the tables, but the solve finishes on
    /// the format handle it already holds (see [`solve`] docs).
    ///
    /// # Panics
    /// Panics, before the request is counted, if the matrix is not
    /// square.
    pub fn solver(&self, id: &str, csr: &CsrMatrix) -> SolveHandle<'_> {
        SolveHandle::new(self, id, csr)
    }

    /// Drops the plan and every cached conversion of one matrix id.
    ///
    /// An in-flight background admission of the id is cancelled by
    /// tombstone. The plan is removed **first**: a flight publishes
    /// only if its epoch-checked `finish_build` succeeds, so once the
    /// plan is gone any flight that starts (or lands) mid-`forget` has
    /// its publication vetoed — were conversions cleared first, a
    /// flight running entirely inside the gap between the two steps
    /// would still find its Building plan and re-cache the forgotten
    /// matrix. A flight already registered before this call is
    /// deregistered by the conversions sweep and publishes nothing
    /// either. Either way the late conversion can resurrect neither
    /// the plan nor a cache entry of the forgotten matrix.
    pub fn forget(&self, id: &str) {
        self.state.plans.remove(id);
        self.state.conversions.forget(id);
    }

    /// Blocks until every background admission scheduled so far has
    /// landed or aborted. The deterministic barrier for tests and
    /// benches: quiesce request threads, `drain_admissions()`, then
    /// read [`Engine::counters`] — the documented invariants hold
    /// exactly. A no-op under [`Admission::Sync`].
    pub fn drain_admissions(&self) {
        loop {
            self.pool.quiesce();
            if self.state.in_flight.load(Ordering::Acquire) == 0 {
                return;
            }
            // A flight was scheduled while we quiesced (or its slot
            // release is a hair behind the low class going idle): go
            // again.
            spmv_parallel::sync::thread::yield_now();
        }
    }

    /// Snapshots the instrumentation counters, summed over the
    /// per-thread stripes. The snapshot is not one atomic cut across
    /// concurrent serves — each field is exact, but a request in flight
    /// while snapshotting may have moved some of its counters and not
    /// yet others; with the serve paths quiesced (and, under
    /// asynchronous admission, [`Engine::drain_admissions`] called) the
    /// documented invariants hold exactly.
    pub fn counters(&self) -> EngineCounters {
        let (bytes_resident, cached_entries) = self.state.conversions.totals();
        let c = &self.state.counters;
        EngineCounters {
            requests: c.sum(|s| &s.requests),
            served_selected: c.sum(|s| &s.served_selected),
            served_fallback: c.sum(|s| &s.served_fallback),
            swaps: c.sum(|s| &s.swaps),
            cache_lookups: c.sum(|s| &s.lookups),
            cache_hits: c.sum(|s| &s.hits),
            cache_misses: c.sum(|s| &s.misses),
            coalesced: c.sum(|s| &s.coalesced),
            conversions: c.sum(|s| &s.conversions),
            extractions: c.sum(|s| &s.extractions),
            fallbacks: c.sum(|s| &s.fallbacks),
            bytes_resident,
            cached_entries,
            planned_entries: self.state.plans.len(),
            admissions_in_flight: self.state.in_flight.load(Ordering::Relaxed),
            flights_scheduled: c.sum(|s| &s.flights_scheduled),
            solves: c.sum(|s| &s.solves),
            solver_iterations: c.sum(|s| &s.solver_iterations),
            pinned_plans: self.state.live_solves.load(Ordering::Relaxed),
            pool: self.pool.stats(),
            selections: FormatKind::ALL
                .iter()
                .map(|&k| (k, c.sum(|s| &s.selections[k as usize])))
                .collect(),
        }
    }
}

/// The dimension check of every serve call, raised at the API edge so a
/// refused request touches no counter, plan or cache: `x` and `y` are
/// column-major blocks of `k` vectors (`k = 1` for `spmv`).
fn check_operands(csr: &CsrMatrix, x: &[f64], k: usize, y: &[f64]) {
    assert_eq!(x.len(), csr.cols() * k, "x must be a column-major cols × k block");
    assert_eq!(y.len(), csr.rows() * k, "y must be a column-major rows × k block");
}

/// One background admission flight: land `id` with the `epoch` ticket
/// (`Building → Pinned`), building the claimed `kind` — or, for a claim
/// that named none, the kind its own feature pass selects, run only if
/// the flight leads the id's conversion. Runs on the thread pool's
/// background lane; `state` is the engine's shared serving state, `csr`
/// the flight's own clone of the operand.
fn run_admission(
    state: &Arc<ServeState>,
    id: &str,
    csr: &CsrMatrix,
    kind: Option<FormatKind>,
    epoch: u64,
) {
    /// Releases the admission slot on every exit and aborts a claim the
    /// flight left `Building` (a panicking build must not wedge the id
    /// — the next request re-schedules); a landed plan is no longer
    /// `Building` under this epoch, so then it is a no-op.
    struct Slot<'a> {
        state: &'a ServeState,
        id: &'a str,
        epoch: u64,
    }
    impl Drop for Slot<'_> {
        fn drop(&mut self) {
            self.state.plans.abort_build(self.id, self.epoch);
            self.state.in_flight.fetch_sub(1, Ordering::AcqRel);
        }
    }
    let _slot = Slot { state, id, epoch };
    let plan = || kind.unwrap_or_else(|| state.extract_and_select(csr));
    let (_, _, landed) = state.land(id, csr, plan, Some(epoch));
    // A format already resident (an earlier flight of this id under
    // another plan generation) or coalesced just lands the plan. Not a
    // `swap` — that counter tracks conversions this flight itself built
    // and published, so it stays exactly one per converted id no matter
    // how claims interleave.
    if matches!(landed, Landed::Built { published: true, .. }) {
        state.counters.mine().swaps.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_analysis::Observation;
    use spmv_gen::dataset::DatasetSize;

    fn quick_config() -> EngineConfig {
        EngineConfig {
            device: "AMD-EPYC-24".into(),
            scale: 512.0,
            k: 1,
            cache_capacity_bytes: 64 << 20,
            threads: 2,
            training: TrainingPlan { size: DatasetSize::Small, stride: 60, base_seed: 11 },
            ..EngineConfig::default()
        }
    }

    fn skewed_matrix() -> CsrMatrix {
        let mut t = Vec::new();
        for r in 0..2000usize {
            t.push((r, (r * 7) % 2000, 1.0));
            t.push((r, (r * 131 + 5) % 2000, 0.5));
        }
        for c in 0..1500usize {
            t.push((0, c, 0.25)); // one hot row
        }
        CsrMatrix::from_triplets(2000, 2000, &t).unwrap()
    }

    /// The panic message of a call that must be refused.
    fn refusal<R>(call: impl FnOnce() -> R) -> String {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)) {
            Ok(_) => panic!("the call was served"),
            Err(payload) => *payload.downcast::<String>().unwrap(),
        }
    }

    #[test]
    fn unknown_device_is_rejected() {
        let cfg = EngineConfig { device: "Cray-1".into(), ..quick_config() };
        match Engine::new(cfg.clone()) {
            Err(EngineError::UnknownDevice(name)) => assert_eq!(name, "Cray-1"),
            other => panic!("expected UnknownDevice, got {other:?}"),
        }
        assert!(Engine::with_selector(cfg, FormatSelector::fit(&[], 1)).is_err());
    }

    #[test]
    fn empty_selector_serves_the_default_format() {
        let engine = Engine::with_selector(quick_config(), FormatSelector::fit(&[], 1)).unwrap();
        let m = CsrMatrix::identity(64);
        let x = vec![1.0; 64];
        let mut y = vec![f64::NAN; 64];
        let kind = engine.spmv("id", &m, &x, &mut y);
        assert_eq!(kind, engine.default_format());
        assert_eq!(y, x, "identity SpMV overwrites the NaN prefill");
    }

    #[test]
    fn serving_is_correct_cached_and_counted() {
        let engine = Engine::new(quick_config()).unwrap();
        let m = skewed_matrix();
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.37).sin()).collect();
        let reference = m.spmv(&x);

        let mut y = vec![f64::NAN; m.rows()];
        let k1 = engine.spmv("m", &m, &x, &mut y);
        assert_eq!(spmv_core::vec_mismatch(&y, &reference, 1e-9, 1e-9), None);

        let mut y2 = vec![7.5; m.rows()];
        let k2 = engine.spmv_parallel("m", &m, &x, &mut y2);
        assert_eq!(k1, k2, "plan is stable per id");
        assert_eq!(spmv_core::vec_mismatch(&y2, &reference, 1e-9, 1e-9), None);

        let c = engine.counters();
        assert_eq!(c.requests, 2);
        assert_eq!(c.total_selections(), 2);
        assert_eq!(c.served_selected, 2, "sync admission always serves the selection");
        assert_eq!(c.served_fallback, 0);
        assert_eq!(c.cache_lookups, 2);
        assert_eq!(c.cache_hits, 1, "second request reuses the conversion");
        assert_eq!(c.cache_misses, 1);
        assert_eq!(c.coalesced, 0, "no racing clients, nothing coalesces");
        assert_eq!(c.conversions, 1, "one miss, one build");
        assert!(c.bytes_resident > 0);
        assert_eq!(c.cached_entries, 1);

        engine.forget("m");
        let c = engine.counters();
        assert_eq!(c.cached_entries, 0);
        assert_eq!(c.bytes_resident, 0);
    }

    #[test]
    fn spmm_matches_k_spmvs() {
        let engine = Engine::new(quick_config()).unwrap();
        let m = skewed_matrix();
        let k = 3usize;
        let x: Vec<f64> = (0..m.cols() * k).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut y = vec![f64::NAN; m.rows() * k];
        engine.spmm("m", &m, &x, k, &mut y);
        for j in 0..k {
            let want = m.spmv(&x[j * m.cols()..(j + 1) * m.cols()]);
            assert_eq!(
                spmv_core::vec_mismatch(&y[j * m.rows()..(j + 1) * m.rows()], &want, 1e-9, 1e-9),
                None,
                "column {j}"
            );
        }
    }

    #[test]
    fn spmm_on_the_csr_path_equals_k_csr_spmvs_bitwise_and_checks_dimensions() {
        // max_in_flight 0: no flight is ever scheduled, so every
        // request is a CSR-path answer.
        let cfg =
            EngineConfig { admission: Admission::Async { max_in_flight: 0 }, ..quick_config() };
        let engine = Engine::new(cfg).unwrap();
        let m = skewed_matrix();
        let (rows, cols) = (m.rows(), m.cols());
        let k = 13usize; // a panel block of 8, a block of 4, one column
        let x: Vec<f64> = (0..cols * k).map(|i| (i as f64 * 0.07).sin()).collect();
        let mut y = vec![f64::NAN; rows * k];
        assert_eq!(engine.spmm("m", &m, &x, k, &mut y), FormatKind::NaiveCsr);
        for j in 0..k {
            let want = m.spmv(&x[j * cols..(j + 1) * cols]);
            assert_eq!(&y[j * rows..(j + 1) * rows], &want[..], "column {j}");
        }

        let message = refusal(|| engine.spmm("m", &m, &x[1..], k, &mut y));
        assert!(message.contains("x must be a column-major cols × k block"), "{message}");
        assert_eq!(engine.counters().requests, 1, "the refused call was not counted");
    }

    #[test]
    fn mismatched_operands_are_refused_before_anything_is_counted() {
        const X: &str = "x must be a column-major cols × k block";
        const Y: &str = "y must be a column-major rows × k block";
        for admission in [Admission::Sync, Admission::Async { max_in_flight: 2 }] {
            let engine = Engine::new(EngineConfig { admission, ..quick_config() }).unwrap();
            let m = skewed_matrix();
            let x = vec![1.0; m.cols()];
            let mut y = vec![0.0; m.rows()];
            let wide = CsrMatrix::from_triplets(2, 3, &[(0, 2, 1.0)]).unwrap();

            let message = refusal(|| engine.spmv("m", &m, &x[1..], &mut y));
            assert!(message.contains(X), "{message}");
            let message = refusal(|| engine.spmv("m", &m, &x, &mut y[1..]));
            assert!(message.contains(Y), "{message}");
            let message = refusal(|| engine.spmv_parallel("m", &m, &x[1..], &mut y));
            assert!(message.contains(X), "{message}");
            let message = refusal(|| engine.spmv_parallel("m", &m, &x, &mut y[1..]));
            assert!(message.contains(Y), "{message}");
            let message = refusal(|| engine.solver("wide", &wide));
            assert!(message.contains("solver requires a square system"), "{message}");

            engine.drain_admissions();
            let c = engine.counters();
            assert_eq!(
                (c.requests, c.cache_lookups, c.planned_entries, c.flights_scheduled),
                (0, 0, 0, 0),
                "a refused call left a trace under {admission:?}"
            );
            // The engine still serves.
            engine.spmv("m", &m, &x, &mut y);
            assert_eq!(spmv_core::vec_mismatch(&y, &m.spmv(&x), 1e-9, 1e-9), None);
            assert_eq!(engine.counters().requests, 1);
        }
    }

    #[test]
    fn selection_prefers_balanced_formats_on_skewed_matrices() {
        // A skewed matrix on a CPU profile should not be served with
        // static-row CSR: the campaign labels say merge/balanced wins.
        let engine = Engine::new(quick_config()).unwrap();
        let f = FeatureSet::extract(&skewed_matrix());
        let kind = engine.select(&f);
        assert_ne!(kind, FormatKind::NaiveCsr, "static CSR loses on skew");
    }

    #[test]
    fn lane_profile_resolves_env_over_device() {
        let engine = Engine::with_selector(quick_config(), FormatSelector::fit(&[], 1)).unwrap();
        let expected = LaneProfile::resolve(Some(engine.device().lane_profile()));
        assert_eq!(engine.lane_profile(), expected);
        // Without an env override, the device profile decides (EPYC-24
        // is AVX2 → 4 lanes).
        if std::env::var("SPMV_LANES").is_err() {
            assert_eq!(engine.lane_profile().width, spmv_formats::LaneWidth::W4);
        }
    }

    /// A selector that recommends `label` for every matrix.
    fn always(label: FormatKind) -> FormatSelector {
        let obs = Observation {
            features: SelectorFeatures {
                footprint_mb: 1.0,
                avg_nnz_per_row: 8.0,
                skew: 0.0,
                cross_row_sim: 0.5,
                avg_num_neigh: 0.5,
            },
            best_format: label.name().into(),
        };
        FormatSelector::fit(&[obs], 1)
    }

    #[test]
    fn sell_recommendations_follow_the_profiled_chunk_width() {
        // The chunk height belongs to the kind: each SELL label serves
        // at the C its campaign timed, whatever the device's lane width
        // or `SPMV_LANES` says.
        for device in ["AMD-EPYC-24", "INTEL-XEON"] {
            for label in [FormatKind::SellC4, FormatKind::SellCSigma, FormatKind::SellC16] {
                let cfg = EngineConfig { device: device.into(), ..quick_config() };
                let engine = Engine::with_selector(cfg, always(label)).unwrap();
                let picked = engine.select(&FeatureSet::extract(&CsrMatrix::identity(64)));
                assert_eq!(picked, label, "{device}");
                assert_eq!(picked.sell_c(), label.sell_c(), "{device}");
            }
        }
    }

    #[test]
    fn sell_remap_is_identity_without_device_variants() {
        // POWER9 has no SELL formats at all: the recommendation is
        // filtered to the device default.
        let cfg = EngineConfig { device: "IBM-POWER9".into(), ..quick_config() };
        let engine = Engine::with_selector(cfg, always(FormatKind::SellCSigma)).unwrap();
        let picked = engine.select(&FeatureSet::extract(&CsrMatrix::identity(64)));
        assert_eq!(picked, engine.default_format());
    }

    #[test]
    fn measured_sell_labels_keep_their_chunk_width() {
        // On `Host` a "SELL-C-s" label is a timing of C = 8 that beat
        // C = 4 and C = 16 on that matrix: no lane profile, whatever
        // `SPMV_LANES` says, may retarget it.
        let cfg = EngineConfig { threads: 2, ..EngineConfig::default() };
        let engine = Engine::with_selector(cfg, always(FormatKind::SellCSigma)).unwrap();
        let picked = engine.select(&FeatureSet::extract(&CsrMatrix::identity(64)));
        assert_eq!(picked, FormatKind::SellCSigma);
        assert_eq!(picked.sell_c(), Some(8));
    }

    #[test]
    fn every_other_csr_family_label_serves_as_balanced_csr() {
        let m = skewed_matrix();
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.23).cos()).collect();
        let reference = m.spmv(&x);
        for label in [FormatKind::VectorizedCsr, FormatKind::MergeCsr, FormatKind::Csr5] {
            let cfg = EngineConfig { device: "Host".into(), ..quick_config() };
            let engine = Engine::with_selector(cfg, always(label)).unwrap();
            assert_eq!(engine.select(&FeatureSet::extract(&m)), FormatKind::BalancedCsr);
            let mut y = vec![f64::NAN; m.rows()];
            assert_eq!(engine.spmv("m", &m, &x, &mut y), FormatKind::BalancedCsr, "{label:?}");
            assert_eq!(spmv_core::vec_mismatch(&y, &reference, 1e-9, 1e-9), None, "{label:?}");
        }
    }

    #[test]
    fn default_engine_is_host_calibrated_and_boots_without_a_campaign() {
        let engine = Engine::new(EngineConfig { threads: 2, ..EngineConfig::default() }).unwrap();
        assert_eq!(engine.device().name, "Host");
        let table = spmv_devices::HostTable::committed();
        assert_eq!(engine.selector().len(), table.matrices.len());
        assert!(table.formats.iter().all(|k| engine.device().formats.contains(k)));
        if std::env::var("SPMV_LANES").is_err() {
            assert_eq!(
                engine.lane_profile().width.lanes(),
                table.lanes,
                "serves at the swept width"
            );
        }
        let pool = engine.counters().pool;
        assert_eq!((pool.high_tasks, pool.low_tasks), (0, 0), "the table is loaded, not swept");
        // A modeled testbed's campaign does run on the pool.
        assert!(Engine::new(quick_config()).unwrap().counters().pool.high_tasks > 0);
    }

    #[test]
    fn plan_table_is_bounded_by_config() {
        let cfg = EngineConfig { plan_capacity: 4, ..quick_config() };
        let engine = Engine::with_selector(cfg, FormatSelector::fit(&[], 1)).unwrap();
        let m = CsrMatrix::identity(16);
        let x = vec![1.0; 16];
        let mut y = vec![0.0; 16];
        for i in 0..20 {
            engine.spmv(&format!("id-{i}"), &m, &x, &mut y);
        }
        let c = engine.counters();
        assert_eq!(c.requests, 20);
        assert!(c.planned_entries <= 4, "plan table leaked: {} entries", c.planned_entries);
        // Evicted ids still serve correctly (they just re-plan).
        engine.spmv("id-0", &m, &x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn unavailable_recommendation_falls_back_to_device_default() {
        // Selectors that only ever recommend one format the engine may
        // not serve: SparseX on a GPU profile that does not have it
        // (Tesla-A100, Table II), and figure-set formats on the profiles
        // that list them (SparseX on AMD-EPYC-24, VSL on Alveo-U280).
        let mut t: Vec<_> = (0..48usize).map(|r| (r, (r * 5 + 1) % 48, 1.0 + r as f64)).collect();
        t.extend((0..20usize).map(|c| (7, c * 2, 0.25 - c as f64)));
        let m = CsrMatrix::from_triplets(48, 48, &t).unwrap();
        let x: Vec<f64> = (0..48).map(|i| (i as f64 * 0.43).sin()).collect();
        let reference = spmv_core::DenseMatrix::from_csr(&m).spmv(&x);
        for (device, best) in [
            ("Tesla-A100", FormatKind::SparseX),
            ("AMD-EPYC-24", FormatKind::SparseX),
            ("Alveo-U280", FormatKind::Vsl),
        ] {
            let cfg = EngineConfig { device: device.into(), ..quick_config() };
            let engine = Engine::with_selector(cfg, always(best)).unwrap();
            let kind = engine.select(&FeatureSet::extract(&m));
            assert_eq!(kind, engine.default_format(), "{device}");

            let mut y = vec![f64::NAN; 48];
            assert_eq!(engine.spmv("m", &m, &x, &mut y), kind, "{device}");
            assert_eq!(spmv_core::vec_mismatch(&y, &reference, 1e-9, 1e-9), None, "{device}");
            let mut y = vec![f64::NAN; 48];
            assert_eq!(engine.spmv_parallel("m", &m, &x, &mut y), kind, "{device}");
            assert_eq!(spmv_core::vec_mismatch(&y, &reference, 1e-9, 1e-9), None, "{device}");
            for (k, n) in engine.counters().selections {
                assert!(FormatKind::SERVING.contains(&k) || n == 0, "{device} served {k:?}");
            }
        }
    }

    /// `Async { max_in_flight: 0 }` never converts anywhere: the
    /// degenerate config that isolates the request path's
    /// zero-conversion guarantee from background timing.
    #[test]
    fn async_request_path_performs_zero_conversions() {
        let cfg =
            EngineConfig { admission: Admission::Async { max_in_flight: 0 }, ..quick_config() };
        let engine = Engine::new(cfg).unwrap();
        let m = skewed_matrix();
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.13).sin()).collect();
        let reference = m.spmv(&x);
        for _ in 0..3 {
            let mut y = vec![f64::NAN; m.rows()];
            let kind = engine.spmv("m", &m, &x, &mut y);
            assert_eq!(kind, FormatKind::NaiveCsr, "CSR path serves while nothing is resident");
            assert_eq!(spmv_core::vec_mismatch(&y, &reference, 1e-9, 1e-9), None);
            let mut y = vec![-2.5; m.rows()];
            engine.spmv_parallel("m", &m, &x, &mut y);
            assert_eq!(spmv_core::vec_mismatch(&y, &reference, 1e-9, 1e-9), None);
        }
        engine.drain_admissions();
        let c = engine.counters();
        assert_eq!(c.requests, 6);
        assert_eq!(c.served_fallback, 6, "every request served via the CSR path");
        assert_eq!(c.served_selected, 0);
        assert_eq!(c.conversions, 0, "no conversion anywhere, calling thread or background");
        assert_eq!(c.extractions, 0, "no feature pass either");
        assert_eq!(c.planned_entries, 0, "a request over the cap claims nothing");
        assert_eq!(c.cache_misses, 0);
        assert_eq!(c.swaps, 0);
        assert_eq!(c.admissions_in_flight, 0);
    }

    #[test]
    fn async_flight_lands_and_swaps_the_plan() {
        let cfg =
            EngineConfig { admission: Admission::Async { max_in_flight: 4 }, ..quick_config() };
        let engine = Engine::new(cfg).unwrap();
        let m = skewed_matrix();
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.29).cos()).collect();
        let reference = m.spmv(&x);

        let mut y = vec![f64::NAN; m.rows()];
        engine.spmv("m", &m, &x, &mut y);
        assert_eq!(spmv_core::vec_mismatch(&y, &reference, 1e-9, 1e-9), None, "pre-swap");

        engine.drain_admissions();
        let c = engine.counters();
        assert_eq!(c.swaps, 1, "the flight landed");
        assert_eq!(c.conversions, 1, "exactly one conversion for the id");
        assert_eq!(c.admissions_in_flight, 0);

        let mut y = vec![f64::NAN; m.rows()];
        let kind = engine.spmv("m", &m, &x, &mut y);
        assert_eq!(spmv_core::vec_mismatch(&y, &reference, 1e-9, 1e-9), None, "post-swap");
        assert_eq!(kind, engine.select(&FeatureSet::extract(&m)), "selected format now serves");
        let c = engine.counters();
        assert_eq!(c.served_selected, 1);
        assert_eq!(c.served_fallback, 1);
        assert_eq!(c.served_selected + c.served_fallback, c.requests);
        assert_eq!(c.cache_hits + c.cache_misses + c.coalesced, c.cache_lookups);
    }

    /// `forget` while the admission flight is still queued: the flight
    /// must land into nothing — no plan entry, no cache entry.
    #[test]
    fn forget_cancels_a_queued_admission_flight() {
        let cfg =
            EngineConfig { admission: Admission::Async { max_in_flight: 4 }, ..quick_config() };
        let engine = Engine::new(cfg).unwrap();
        let m = skewed_matrix();
        let x = vec![1.0; m.cols()];
        let mut y = vec![0.0; m.rows()];

        // Park the low-priority class so the admission stays queued:
        // one gate job per worker occupies every possible runner of low
        // work (low jobs are dequeued FIFO, so all gates are taken
        // before the flight can start).
        let gate = Arc::new(spmv_parallel::sync::Mutex::new(()));
        let held = gate.lock();
        for _ in 0..engine.pool().threads() {
            let gate = Arc::clone(&gate);
            engine.pool().submit_low(move || {
                drop(gate.lock());
            });
        }
        engine.spmv("m", &m, &x, &mut y); // schedules the flight behind the gates
        engine.forget("m");
        drop(held); // release the gates; the flight now runs post-forget
        engine.drain_admissions();

        let c = engine.counters();
        assert_eq!(c.swaps, 0, "a forgotten id's flight must not land");
        assert_eq!(c.planned_entries, 0, "plan resurrected after forget");
        assert_eq!(c.cached_entries, 0, "cache entry resurrected after forget");
        assert_eq!(c.bytes_resident, 0);
        assert_eq!(c.admissions_in_flight, 0);
        // The id is fresh again: a new request re-plans and re-admits.
        let mut y = vec![f64::NAN; m.rows()];
        engine.spmv("m", &m, &x, &mut y);
        engine.drain_admissions();
        assert_eq!(engine.counters().swaps, 1, "re-admission after forget lands normally");
    }
}
