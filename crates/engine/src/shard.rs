//! Sharded, single-flight serving state: the concurrency layer under
//! [`Engine`](crate::Engine).
//!
//! Two structures make the serve path scale past one global lock:
//!
//! * [`PlanTable`] — the per-matrix plan lifecycle
//!   ([`PlanState::Pending`] → [`PlanState::Building`] →
//!   [`PlanState::Pinned`]), split over N independently locked shards
//!   (matrix-id hash). Each shard keeps a secondary recency index
//!   (`last_used` tick → id) so LRU eviction is `O(log n)` per victim
//!   instead of a linear scan over the shard. Recency matters: an early
//!   implementation evicted in `BTreeMap` key order, so a hot matrix
//!   with a lexicographically small id was thrown out (and re-planned)
//!   on every admission once the table filled.
//! * [`ShardedConversions`] — the converted-format cache, one
//!   [`ConversionCache`] per shard plus a **single-flight** register:
//!   concurrent misses on the same id coalesce onto one builder (the
//!   *leader*) while every other thread (*waiters*) blocks on the
//!   flight's slot instead of converting its own duplicate copy.
//!   Conversion can cost many SpMV-equivalents (SELL-C-σ), so a
//!   thundering herd of M clients must pay it once, not M times.
//!
//! # One conversion per id, landed one way
//!
//! The conversion side holds what the plan table holds: at most one
//! entry and at most one flight per matrix id. A lookup that finds the
//! id resident is a hit whatever kind the caller planned, and reports
//! the resident kind, so a reader still holding a refused plan (ELL over
//! its padding budget) finds the fallback that built instead, and a
//! serve asks for its plan only when it leads a conversion. Every
//! caller that needs a format — the synchronous serve, a background
//! admission flight, a solver handle, snapshot restore — goes through
//! [`ShardedConversions::land`], which publishes a build and re-pins the
//! plan inside **one** conversion-shard critical section, so no reader
//! sees the resident entry while still being handed the refused plan.
//!
//! # Lock ordering
//!
//! Both structures hash ids with FNV-1a. A conversion-shard lock may be
//! held while taking a plan-shard lock (that is exactly what `land`'s
//! publication does); the reverse never happens — no `PlanTable` method
//! calls into `ShardedConversions` — so lock ordering is acyclic.
//! Conversion itself always runs *outside* the shard lock — only the
//! registration and publication of the result lock the shard.

use crate::cache::ConversionCache;
use spmv_formats::{FormatKind, SparseFormat};
use spmv_parallel::sync::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A converted format as handed out by the serving layer. `Arc`-shared:
/// eviction never invalidates a format a request is still running on.
pub type CachedFormat = Arc<Box<dyn SparseFormat>>;

/// FNV-1a over the matrix id, reduced to a shard index.
fn shard_of(id: &str, shards: usize) -> usize {
    (spmv_core::fnv1a(id) % shards as u64) as usize
}

// ---------------------------------------------------------------------
// Plan table
// ---------------------------------------------------------------------

/// Lifecycle of one matrix's serving plan.
///
/// ```text
///  (absent) ──claim──→ Building(None) ──abort──→ (absent)
///                           │
/// (admit) → Pending ──claim──→ Building(kind) ──flight lands──→ Pinned
///              ▲                  │                               │
///              └──────abort───────┘             (cache eviction) ─┴→ Building
/// ```
///
/// * `Pending` — the format is selected but no conversion has been
///   scheduled; requests serve the universal CSR path.
/// * `Building` — a background admission flight owns the conversion
///   (at most one per plan entry, enforced by
///   [`PlanTable::try_begin_build`]); requests keep serving the CSR
///   path until it lands. A claim of an absent id names no kind yet:
///   its flight extracts and selects before it converts.
/// * `Pinned` — the conversion landed (or a synchronous resolve
///   published); requests serve the converted format.
///
/// Synchronous admission uses only `Pending` → `Pinned`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanState {
    /// Format selected, conversion not yet scheduled.
    Pending(FormatKind),
    /// A background flight is building the selected format — or, for
    /// `None`, will select it first.
    Building(Option<FormatKind>),
    /// The conversion landed; serve this format.
    Pinned(FormatKind),
}

impl PlanState {
    /// The format this plan names, whatever the stage; `None` for a
    /// claim whose flight has not selected yet.
    pub fn kind(&self) -> Option<FormatKind> {
        match *self {
            PlanState::Pending(k) | PlanState::Pinned(k) => Some(k),
            PlanState::Building(k) => k,
        }
    }
}

struct PlanEntry {
    state: PlanState,
    last_used: u64,
    /// Build-claim generation: stamped by `try_begin_build`, checked by
    /// `finish_build`/`abort_build` so a flight that outlives a
    /// `forget` + re-admission of its id (new epoch) cannot touch the
    /// successor's plan.
    epoch: u64,
    /// Entry incarnation: stamped once at insert from the shard's
    /// generation counter. Solver pins carry it as their release
    /// ticket, so a release that outlives a `forget` + re-admission of
    /// the same id (fresh incarnation) is detectably stale — it can
    /// neither decrement the successor's pin count nor resurrect the
    /// forgotten entry.
    incarnation: u64,
    /// Outstanding solver pins ([`PlanTable::acquire_solver_pin`]).
    /// While nonzero the entry is spared from LRU eviction — a live
    /// solve must keep its plan resident so it never re-resolves
    /// mid-solve. `forget` still removes pinned entries (an explicit
    /// drop outranks residency); the solve finishes on the format
    /// handle it already holds and its release becomes a stale no-op.
    pins: u32,
}

#[derive(Default)]
struct PlanShard {
    tick: u64,
    epoch: u64,
    /// Keys are `Arc<str>` shared with the recency index: refreshing
    /// an entry's recency moves the shared key between index slots
    /// instead of re-allocating the id on every `get`.
    map: BTreeMap<Arc<str>, PlanEntry>,
    /// Secondary recency index: `last_used` tick → id. Ticks are
    /// unique per shard (every op bumps `tick`), so this is a total
    /// order; the first entry is always the LRU candidate, making
    /// eviction `O(log n)` instead of a scan over the whole shard.
    recency: BTreeMap<u64, Arc<str>>,
}

impl PlanShard {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Refreshes `id`'s recency (entry must exist). Allocation-free:
    /// the shared key moves from the old recency slot to the new one.
    fn touch(&mut self, id: &str) {
        let tick = self.next_tick();
        let e = self.map.get_mut(id).expect("touch requires a resident entry");
        let key = self.recency.remove(&e.last_used).expect("recency index tracks every entry");
        e.last_used = tick;
        self.recency.insert(tick, key);
    }

    /// Evicts least-recently-used entries until at most `capacity`
    /// remain, sparing `keep` (just touched), `Building` entries
    /// (their flight will pin them momentarily; evicting one would
    /// orphan the landing — the flight's epoch check would discard the
    /// finished conversion and the id would convert twice), and entries
    /// with outstanding solver pins (a live solve must never lose its
    /// plan to cache pressure).
    fn evict_to_fit(&mut self, capacity: usize, keep: &str) {
        while self.map.len() > capacity {
            let victim = self
                .recency
                .iter()
                .find(|(_, id)| {
                    let e = &self.map[&***id];
                    &***id != keep && !matches!(e.state, PlanState::Building(_)) && e.pins == 0
                })
                .map(|(&tick, id)| (tick, Arc::clone(id)));
            match victim {
                Some((tick, id)) => {
                    self.recency.remove(&tick);
                    self.map.remove(&*id);
                }
                None => break, // only spared entries left
            }
        }
    }

    fn remove(&mut self, id: &str) {
        if let Some(e) = self.map.remove(id) {
            self.recency.remove(&e.last_used);
        }
    }

    /// Touches `id`, or inserts it in `state` as a fresh incarnation
    /// when absent (first writer wins); then evicts down to `capacity`,
    /// sparing `id`. Returns `id`'s entry.
    fn insert(&mut self, id: &str, state: PlanState, capacity: usize) -> &mut PlanEntry {
        if self.map.contains_key(id) {
            self.touch(id);
        } else {
            let tick = self.next_tick();
            self.epoch += 1;
            let key: Arc<str> = Arc::from(id);
            let e =
                PlanEntry { state, last_used: tick, epoch: 0, incarnation: self.epoch, pins: 0 };
            self.map.insert(Arc::clone(&key), e);
            self.recency.insert(tick, key);
        }
        self.evict_to_fit(capacity, id);
        self.map.get_mut(id).expect("the kept entry survives eviction")
    }
}

/// Sharded map of matrix id → [`PlanState`] with per-shard `O(log n)`
/// LRU eviction. All methods take `&self`; each shard has its own lock.
pub struct PlanTable {
    shards: Vec<Mutex<PlanShard>>,
    per_shard_capacity: usize,
}

impl std::fmt::Debug for PlanTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanTable")
            .field("shards", &self.shards.len())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl PlanTable {
    /// A table remembering at most `capacity` ids in total, split over
    /// at most `shards` locks. The shard count is clamped to the
    /// capacity so per-shard budgets stay ≥ 1 while the total bound
    /// holds (`shards * per_shard_capacity <= capacity`).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        PlanTable {
            shards: (0..shards).map(|_| Mutex::new(PlanShard::default())).collect(),
            per_shard_capacity: capacity / shards,
        }
    }

    fn shard(&self, id: &str) -> &Mutex<PlanShard> {
        &self.shards[shard_of(id, self.shards.len())]
    }

    /// Looks up the plan for `id`, refreshing its recency on a hit.
    pub fn get(&self, id: &str) -> Option<PlanState> {
        let mut s = self.shard(id).lock();
        if s.map.contains_key(id) {
            s.touch(id);
            Some(s.map[id].state)
        } else {
            None
        }
    }

    /// The kind `id`'s plan names, recency refreshed; or else — the id
    /// absent, or claimed by a flight that has not selected yet — the
    /// kind `select` names, run with no lock held and inserted as
    /// [`PlanTable::insert_pending`] inserts it.
    pub fn get_or_insert_with(&self, id: &str, select: impl FnOnce() -> FormatKind) -> FormatKind {
        if let Some(kind) = self.get(id).and_then(|s| s.kind()) {
            return kind;
        }
        let kind = select();
        self.insert_pending(id, kind).kind().unwrap_or(kind)
    }

    /// Inserts a `Pending` plan unless an entry is already present
    /// (first writer wins, like `entry().or_insert`); returns the
    /// winning state. The entry is touched either way, and the shard
    /// evicted down to capacity.
    pub fn insert_pending(&self, id: &str, kind: FormatKind) -> PlanState {
        self.shard(id).lock().insert(id, PlanState::Pending(kind), self.per_shard_capacity).state
    }

    /// Claims the build of `id`'s plan: `Pending` or `Pinned` (cache
    /// evicted, needs re-admission) becomes `Building` under its kind,
    /// and an absent id is inserted `Building(None)` — its flight
    /// selects. The caller receives `(kind, epoch)`, the epoch being its
    /// ticket for [`PlanTable::finish_build`]. Returns `None` when the
    /// entry is already `Building` (someone else owns the flight), so
    /// at most one background admission exists per plan entry.
    pub fn try_begin_build(&self, id: &str) -> Option<(Option<FormatKind>, u64)> {
        let mut s = self.shard(id).lock();
        if matches!(s.map.get(id), Some(e) if matches!(e.state, PlanState::Building(_))) {
            return None;
        }
        s.epoch += 1;
        let epoch = s.epoch;
        let e = s.insert(id, PlanState::Building(None), self.per_shard_capacity);
        let kind = e.state.kind();
        e.state = PlanState::Building(kind);
        e.epoch = epoch;
        Some((kind, epoch))
    }

    /// Lands a build claimed with `epoch`: `Building` → `Pinned(actual)`.
    /// Returns `false` — and changes nothing — when the entry is gone
    /// (forgotten or evicted) or carries a different epoch (forgotten
    /// and re-admitted): a stale flight must not resurrect or overwrite
    /// its successor's plan.
    pub fn finish_build(&self, id: &str, epoch: u64, actual: FormatKind) -> bool {
        let mut s = self.shard(id).lock();
        match s.map.get(id) {
            Some(e) if matches!(e.state, PlanState::Building(_)) && e.epoch == epoch => {
                s.touch(id);
                s.map.get_mut(id).expect("just touched").state = PlanState::Pinned(actual);
                true
            }
            _ => false,
        }
    }

    /// Reverts an aborted build (leader panicked or was cancelled):
    /// `Building(kind)` → `Pending(kind)`, and a claim that never
    /// selected is removed, so a later request can re-schedule.
    /// Epoch-checked like [`PlanTable::finish_build`].
    pub fn abort_build(&self, id: &str, epoch: u64) {
        let mut s = self.shard(id).lock();
        match s.map.get_mut(id) {
            Some(e) if e.epoch == epoch => match e.state {
                PlanState::Building(Some(kind)) => e.state = PlanState::Pending(kind),
                PlanState::Building(None) => s.remove(id),
                _ => {}
            },
            _ => {}
        }
    }

    /// Pins an **existing** entry to `kind` (used by synchronous
    /// resolution when a fallback format built instead of the planned
    /// one). Never inserts: if the plan was evicted or forgotten
    /// meanwhile, the next request re-plans — a pin that inserted could
    /// resurrect a forgotten id.
    pub fn pin(&self, id: &str, kind: FormatKind) {
        let mut s = self.shard(id).lock();
        if s.map.contains_key(id) {
            s.touch(id);
            s.map.get_mut(id).expect("just touched").state = PlanState::Pinned(kind);
        }
    }

    /// Acquires a solver pin on `id`, inserting a `Pinned(kind)` entry
    /// if the plan is absent (the solve just resolved `kind`
    /// synchronously, so the plan is known even if eviction raced the
    /// resolution). Returns the entry's incarnation — the ticket
    /// [`PlanTable::release_solver_pin`] requires, which makes a
    /// release after `forget` + re-admission a detectable no-op.
    ///
    /// While the pin count is nonzero, LRU eviction spares the entry;
    /// `forget` (an explicit drop) still removes it.
    pub fn acquire_solver_pin(&self, id: &str, kind: FormatKind) -> u64 {
        let mut s = self.shard(id).lock();
        let e = s.insert(id, PlanState::Pinned(kind), self.per_shard_capacity);
        e.pins += 1;
        e.incarnation
    }

    /// Releases a solver pin acquired with `ticket`. Returns `true`
    /// when a pin was actually released; `false` when the entry is gone
    /// (forgotten — its pin count vanished with it) or carries a
    /// different incarnation (forgotten and re-admitted): a stale
    /// release must neither decrement the successor's pins nor
    /// resurrect the forgotten entry, and a double release of the same
    /// ticket beyond the acquired count is refused by the `pins > 0`
    /// guard.
    pub fn release_solver_pin(&self, id: &str, ticket: u64) -> bool {
        let mut s = self.shard(id).lock();
        match s.map.get_mut(id) {
            Some(e) if e.incarnation == ticket && e.pins > 0 => {
                e.pins -= 1;
                true
            }
            _ => false,
        }
    }

    /// Number of plan entries currently holding at least one solver
    /// pin (the `pinned_plans` gauge in the engine counters).
    pub fn pinned_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.values().filter(|e| e.pins > 0).count()).sum()
    }

    /// Drops the plan for `id`, if any.
    pub fn remove(&self, id: &str) {
        self.shard(id).lock().remove(id);
    }

    /// Snapshot export: every plan that names a kind, as `(id, kind)`
    /// (a claim whose flight has not selected yet is skipped). Each
    /// shard is locked once and recency is deliberately not refreshed —
    /// exporting the table must not reorder the LRU it is exporting.
    pub fn export(&self) -> Vec<(String, FormatKind)> {
        let mut out = Vec::new();
        for s in &self.shards {
            let shard = s.lock();
            out.extend(
                shard.map.iter().filter_map(|(id, e)| Some((id.to_string(), e.state.kind()?))),
            );
        }
        out
    }

    /// Total ids remembered across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// `true` when no plan is remembered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------
// Single-flight conversion register
// ---------------------------------------------------------------------

enum FlightState {
    /// The leader is still converting.
    Pending,
    /// The conversion finished; waiters take the shared result. The
    /// format kind is the one that actually built (a fallback may differ
    /// from the kind the leader was asked for).
    Done(CachedFormat, FormatKind),
    /// The leader died (panicked) without publishing; waiters must
    /// retry the whole lookup.
    Abandoned,
}

/// One in-progress conversion that racing misses coalesce onto.
pub struct Flight {
    state: Mutex<FlightState>,
    ready: Condvar,
}

impl Flight {
    /// Blocks until the leader publishes, returning the shared result —
    /// or `None` if the leader abandoned the flight (retry the lookup).
    pub fn wait(&self) -> Option<(CachedFormat, FormatKind)> {
        let mut state = self.state.lock();
        loop {
            match &*state {
                FlightState::Pending => self.ready.wait(&mut state),
                FlightState::Done(fmt, kind) => return Some((Arc::clone(fmt), *kind)),
                FlightState::Abandoned => return None,
            }
        }
    }
}

struct ConversionShard {
    cache: ConversionCache,
    inflight: BTreeMap<String, Arc<Flight>>,
}

/// The outcome of [`ShardedConversions::begin`]: exactly one of the
/// racing callers leads the conversion, everyone else hits or waits.
pub enum Lookup<'a> {
    /// The id's conversion was resident; recency refreshed. The kind
    /// is the resident one — it differs from the requested kind when a
    /// fallback built in place of a refusing plan.
    Hit(CachedFormat, FormatKind),
    /// Another thread is already converting this id; call
    /// [`Flight::wait`] for the shared result.
    Wait(Arc<Flight>),
    /// This caller owns the conversion: build the format named by
    /// [`FlightGuard::kind`], then publish it with
    /// [`FlightGuard::finish`]. Dropping the guard without finishing
    /// abandons the flight and wakes the waiters.
    Lead(FlightGuard<'a>),
}

/// Leadership of one in-flight conversion (see [`Lookup::Lead`]).
pub struct FlightGuard<'a> {
    owner: &'a ShardedConversions,
    shard: usize,
    id: String,
    kind: FormatKind,
    flight: Arc<Flight>,
    finished: bool,
}

impl FlightGuard<'_> {
    /// The format this flight was asked to convert — what the leader
    /// should build.
    pub fn kind(&self) -> FormatKind {
        self.kind
    }

    /// Publishes the built format atomically with the caller's plan
    /// update: inside one conversion-shard critical section, runs
    /// `publish(actual)` and — when it returns `true` — inserts the
    /// format into the shard's cache under the kind that actually
    /// built. Then wakes every waiter (they receive the result either
    /// way: their requests raced whatever invalidated the publication).
    ///
    /// `publish` returning `false` means the caller found its admission
    /// stale (the id was forgotten, or forgotten and re-admitted, while
    /// the leader built) — nothing becomes resident, so a late-landing
    /// conversion can never resurrect a forgotten matrix's cache entry.
    /// `publish` also never runs if the flight itself was deregistered
    /// by a [`forget`](ShardedConversions::forget).
    ///
    /// `publish` runs with the conversion-shard lock held and may take
    /// a plan-shard lock (see the module docs on lock ordering); it
    /// must not call back into [`ShardedConversions`].
    fn finish_with<P>(mut self, fmt: CachedFormat, actual: FormatKind, publish: P)
    where
        P: FnOnce(FormatKind) -> bool,
    {
        {
            let mut shard = self.owner.shards[self.shard].lock();
            if self.deregister(&mut shard) && publish(actual) {
                shard.cache.insert(&self.id, actual, Arc::clone(&fmt));
            }
        }
        *self.flight.state.lock() = FlightState::Done(fmt, actual);
        self.flight.ready.notify_all();
        self.finished = true;
    }

    /// `FlightGuard::finish_with` with an unconditional publish — for
    /// callers with no plan to re-pin.
    pub fn finish(self, fmt: CachedFormat, actual: FormatKind) {
        self.finish_with(fmt, actual, |_| true);
    }

    /// Removes this guard's own flight from the register; returns
    /// `false` when the entry is gone or belongs to a successor leader
    /// (a `forget` intervened), in which case this build is stale.
    fn deregister(&self, shard: &mut ConversionShard) -> bool {
        match shard.inflight.get(&self.id) {
            Some(f) if Arc::ptr_eq(f, &self.flight) => {
                shard.inflight.remove(&self.id);
                true
            }
            _ => false,
        }
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        // Leader died before publishing (a panic in the builder): take
        // the flight out of the register and tell waiters to retry, so
        // nobody blocks forever on a result that will never come.
        {
            let mut shard = self.owner.shards[self.shard].lock();
            self.deregister(&mut shard);
        }
        *self.flight.state.lock() = FlightState::Abandoned;
        self.flight.ready.notify_all();
    }
}

/// How a [`ShardedConversions::land`] call obtained its format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Landed {
    /// The id's conversion was resident.
    Hit,
    /// Another caller was converting the id; this one waited for it.
    Coalesced,
    /// This caller built the format and, unless vetoed, published it
    /// and re-pinned the plan.
    Built {
        /// Candidates that refused the matrix before one accepted it.
        refused: usize,
        /// `false` when a `forget` or a stale claim vetoed publication.
        published: bool,
    },
}

/// Sharded conversion cache with single-flight miss coalescing.
pub struct ShardedConversions {
    shards: Vec<Mutex<ConversionShard>>,
}

impl std::fmt::Debug for ShardedConversions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedConversions")
            .field("shards", &self.shards.len())
            .field("entries", &self.len())
            .field("bytes_resident", &self.bytes_resident())
            .finish()
    }
}

impl ShardedConversions {
    /// A cache with `capacity_bytes` total budget split evenly over
    /// `shards` locks (`ceil(capacity / shards)` bytes each).
    ///
    /// The split changes the budget's semantics versus one global
    /// cache: eviction pressure is per shard, so a conversion larger
    /// than `capacity / shards` is only admitted via the oversized-
    /// entry policy (evicting its shard's co-residents), and two hot
    /// conversions that hash to one full shard evict each other even
    /// while other shards sit idle. Size the budget so one shard holds
    /// a plausible per-shard working set, or lower `shards` for
    /// few-but-huge matrix mixes.
    pub fn new(capacity_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity_bytes.div_ceil(shards);
        ShardedConversions {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(ConversionShard {
                        cache: ConversionCache::new(per_shard),
                        inflight: BTreeMap::new(),
                    })
                })
                .collect(),
        }
    }

    /// Atomically classifies a lookup of `id` as resident (whatever its
    /// kind) → [`Lookup::Hit`], already converting → [`Lookup::Wait`],
    /// neither → this caller becomes the leader of a `kind` conversion
    /// ([`Lookup::Lead`]). Cache check and flight registration happen
    /// under one shard lock, so between a leader's registration and its
    /// publication every other caller is funneled onto the flight — no
    /// window in which a second conversion of the same id can start.
    pub fn begin(&self, id: &str, kind: FormatKind) -> Lookup<'_> {
        self.begin_with(id, || kind)
    }

    /// [`ShardedConversions::begin`] with the kind named lazily: only a
    /// registered leader calls `plan`, with no lock held (a panicking
    /// `plan` drops the guard, which abandons the flight).
    fn begin_with(&self, id: &str, plan: impl FnOnce() -> FormatKind) -> Lookup<'_> {
        let si = shard_of(id, self.shards.len());
        let flight = {
            let mut shard = self.shards[si].lock();
            if let Some((fmt, resident)) = shard.cache.resident(id) {
                return Lookup::Hit(fmt, resident);
            }
            if let Some(flight) = shard.inflight.get(id) {
                return Lookup::Wait(Arc::clone(flight));
            }
            let flight =
                Arc::new(Flight { state: Mutex::new(FlightState::Pending), ready: Condvar::new() });
            shard.inflight.insert(id.to_string(), Arc::clone(&flight));
            flight
        };
        let mut guard = FlightGuard {
            owner: self,
            shard: si,
            id: id.to_string(),
            kind: FormatKind::NaiveCsr,
            flight,
            finished: false,
        };
        guard.kind = plan();
        Lookup::Lead(guard)
    }

    /// Non-registering lookup: the format resident for `id` and its
    /// kind, with recency refreshed, or `None`. Never waits and never
    /// leads; the asynchronous serve path uses this so a request thread
    /// cannot be drafted into a conversion.
    pub fn peek(&self, id: &str) -> Option<(CachedFormat, FormatKind)> {
        self.shards[shard_of(id, self.shards.len())].lock().cache.resident(id)
    }

    /// Lands a format for `id`: the one landing protocol. Returns the
    /// format to serve, its kind (the built or resident one, not always
    /// the planned one) and how it was obtained: a hit; a wait on the
    /// leader's flight (retried, possibly leading, if that leader
    /// abandoned); or a lead, which asks `plan()` for the kind to build
    /// and calls `build(kind) -> (format, built kind, refused)`, both
    /// with no lock held, then publishes the format and re-pins the plan
    /// in one critical section. A hit or a wait never calls `plan`.
    ///
    /// With a claim `ticket` ([`PlanTable::try_begin_build`]'s epoch) the
    /// plan lands by `finish_build` on every outcome, and a stale ticket
    /// (the id was forgotten meanwhile) vetoes the publication. Without
    /// one, only a leader re-pins the plan, by `pin`. A panicking `build`
    /// abandons the flight (its waiters retry) and propagates.
    pub fn land<P, B>(
        &self,
        plans: &PlanTable,
        id: &str,
        mut plan: P,
        ticket: Option<u64>,
        build: B,
    ) -> (CachedFormat, FormatKind, Landed)
    where
        P: FnMut() -> FormatKind,
        B: FnOnce(FormatKind) -> (CachedFormat, FormatKind, usize),
    {
        let (fmt, kind, landed) = loop {
            match self.begin_with(id, &mut plan) {
                Lookup::Hit(fmt, resident) => break (fmt, resident, Landed::Hit),
                Lookup::Wait(flight) => {
                    if let Some((fmt, built)) = flight.wait() {
                        break (fmt, built, Landed::Coalesced);
                    }
                    // The leader abandoned; retry — this call may lead.
                }
                Lookup::Lead(guard) => {
                    let (fmt, actual, refused) = build(guard.kind());
                    let mut published = false;
                    guard.finish_with(Arc::clone(&fmt), actual, |actual| {
                        published = match ticket {
                            // A claim publishes only into its own plan
                            // generation; `pin` never inserts a plan.
                            Some(epoch) => plans.finish_build(id, epoch, actual),
                            None => {
                                plans.pin(id, actual);
                                true
                            }
                        };
                        published
                    });
                    return (fmt, actual, Landed::Built { refused, published });
                }
            }
        };
        if let Some(epoch) = ticket {
            plans.finish_build(id, epoch, kind);
        }
        (fmt, kind, landed)
    }

    /// Drops the cached conversion of one matrix id; returns the bytes
    /// released. An in-flight conversion of the id is deregistered (not
    /// interrupted): its leader finishes and serves its waiters, but the
    /// stale result is discarded instead of cached, so a conversion
    /// racing a forget can never re-populate the cache with the
    /// pre-forget matrix.
    pub fn forget(&self, id: &str) -> usize {
        let mut shard = self.shards[shard_of(id, self.shards.len())].lock();
        shard.inflight.remove(id);
        shard.cache.forget(id)
    }

    /// Snapshot export: every resident conversion as
    /// `(id, resident kind, format)`. Each shard is locked once and
    /// recency is untouched (see [`ConversionCache::iter`]); in-flight
    /// conversions are not exported — a snapshot carries only landed
    /// state, and a restore re-lands it through the flight machinery.
    pub fn export(&self) -> Vec<(String, FormatKind, CachedFormat)> {
        let mut out = Vec::new();
        for s in &self.shards {
            let shard = s.lock();
            out.extend(
                shard.cache.iter().map(|(id, kind, fmt)| (id.to_string(), kind, Arc::clone(fmt))),
            );
        }
        out
    }

    /// Total `(bytes resident, resident entries)` across all shards in
    /// one sweep — each shard is locked once, so the two figures are
    /// mutually consistent per shard (an insert observed in a shard's
    /// byte count is also in its entry count).
    pub fn totals(&self) -> (usize, usize) {
        self.shards.iter().fold((0, 0), |(bytes, entries), s| {
            let shard = s.lock();
            (bytes + shard.cache.bytes_resident(), entries + shard.cache.len())
        })
    }

    /// Total bytes resident across all shards.
    pub fn bytes_resident(&self) -> usize {
        self.totals().0
    }

    /// Total resident entries across all shards.
    pub fn len(&self) -> usize {
        self.totals().1
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::CsrMatrix;
    use spmv_formats::build_format;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn fmt_of(n: usize) -> CachedFormat {
        Arc::new(build_format(FormatKind::NaiveCsr, &CsrMatrix::identity(n)).unwrap())
    }

    #[test]
    fn plan_eviction_is_recency_aware_not_key_order() {
        // One shard so the eviction order is fully observable. The hot
        // id sorts first lexicographically — a key-order eviction
        // would throw it out on every admission.
        let t = PlanTable::new(3, 1);
        t.insert_pending("aaa-hot", FormatKind::NaiveCsr);
        for i in 0..10 {
            assert_eq!(
                t.get("aaa-hot").and_then(|s| s.kind()),
                Some(FormatKind::NaiveCsr),
                "hot id evicted after {i} admissions"
            );
            t.insert_pending(&format!("zz-{i}"), FormatKind::Coo);
            assert!(t.len() <= 3, "capacity violated");
        }
        // The cold streamers are gone, the hot id survived.
        assert_eq!(t.get("aaa-hot").and_then(|s| s.kind()), Some(FormatKind::NaiveCsr));
        assert_eq!(t.get("zz-0"), None, "cold LRU entries must be the victims");
    }

    /// The `O(log n)` recency index must evict exactly the entries a
    /// naive linear LRU scan would: replay a deterministic mixed
    /// get/insert stream against a reference model and compare the
    /// survivor sets after every operation.
    #[test]
    fn indexed_eviction_matches_linear_reference_model() {
        const CAP: usize = 8;
        let t = PlanTable::new(CAP, 1);
        // Reference: (id, last_used) with a linear min-scan eviction.
        let mut model: Vec<(String, u64)> = Vec::new();
        let mut tick = 0u64;
        let mut lcg = 0x2545F4914F6CDD1Du64;
        for step in 0..600 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let id = format!("m{}", (lcg >> 33) % 24);
            tick += 1;
            if step % 3 == 0 {
                // get(): touches if present in both worlds.
                t.get(&id);
                if let Some(e) = model.iter_mut().find(|(mid, _)| *mid == id) {
                    e.1 = tick;
                }
            } else {
                t.insert_pending(&id, FormatKind::NaiveCsr);
                if let Some(e) = model.iter_mut().find(|(mid, _)| *mid == id) {
                    e.1 = tick;
                } else {
                    model.push((id.clone(), tick));
                    while model.len() > CAP {
                        let victim = model
                            .iter()
                            .enumerate()
                            .filter(|(_, (mid, _))| *mid != id)
                            .min_by_key(|(_, (_, t))| *t)
                            .map(|(i, _)| i)
                            .expect("over capacity implies a victim");
                        model.remove(victim);
                    }
                }
            }
            let mut want: Vec<String> = model.iter().map(|(id, _)| id.clone()).collect();
            want.sort_unstable();
            let mut got: Vec<String> =
                (0..24).map(|i| format!("m{i}")).filter(|id| t.get(id).is_some()).collect();
            // get() above touched every resident id in ascending order
            // in both worlds? No — only in the table. Re-sync the model
            // ticks for the probe touches so recency stays comparable.
            for id in &got {
                tick += 1;
                if let Some(e) = model.iter_mut().find(|(mid, _)| mid == id) {
                    e.1 = tick;
                }
            }
            got.sort_unstable();
            assert_eq!(got, want, "survivor sets diverged at step {step}");
        }
    }

    #[test]
    fn plan_table_bounds_total_capacity_across_shards() {
        // 16 shards requested, capacity 4 → clamped to 4 shards × 1.
        let t = PlanTable::new(4, 16);
        for i in 0..100 {
            t.insert_pending(&format!("id-{i}"), FormatKind::NaiveCsr);
        }
        assert!(t.len() <= 4, "total bound violated: {}", t.len());
        // pin() repins an existing entry and get() refreshes without
        // growing; pin() of an absent id never inserts.
        t.insert_pending("id-99", FormatKind::NaiveCsr);
        t.pin("id-99", FormatKind::Coo);
        assert_eq!(t.get("id-99"), Some(PlanState::Pinned(FormatKind::Coo)));
        t.remove("id-99");
        assert_eq!(t.get("id-99"), None);
        t.pin("id-99", FormatKind::Coo);
        assert_eq!(t.get("id-99"), None, "pin must never resurrect a removed plan");
    }

    #[test]
    fn build_lifecycle_pending_building_pinned() {
        let t = PlanTable::new(8, 1);
        // An absent id is claimable with no kind; aborting the claim
        // removes it rather than making a kind up.
        let (kind, epoch) = t.try_begin_build("m").expect("absent is claimable");
        assert_eq!((kind, t.get("m")), (None, Some(PlanState::Building(None))));
        assert_eq!(t.try_begin_build("m"), None, "an unplanned claim has one owner too");
        assert!(t.export().is_empty(), "export skips an unplanned claim");
        assert_eq!(t.get_or_insert_with("m", || FormatKind::Coo), FormatKind::Coo);
        assert_eq!(t.get("m"), Some(PlanState::Building(None)), "a Sync plan leaves the claim");
        t.abort_build("m", epoch);
        assert_eq!(t.get("m"), None);
        t.insert_pending("m", FormatKind::Ell);
        let (kind, epoch) = t.try_begin_build("m").expect("pending is claimable");
        assert_eq!(kind, Some(FormatKind::Ell));
        assert_eq!(t.get("m"), Some(PlanState::Building(Some(FormatKind::Ell))));
        assert_eq!(t.try_begin_build("m"), None, "a building plan has one owner");
        assert!(t.finish_build("m", epoch, FormatKind::NaiveCsr));
        assert_eq!(t.get("m"), Some(PlanState::Pinned(FormatKind::NaiveCsr)));
        // A pinned plan is re-claimable (cache eviction → re-admission).
        let (kind2, epoch2) = t.try_begin_build("m").expect("pinned is re-claimable");
        assert_eq!(kind2, Some(FormatKind::NaiveCsr), "re-admission keeps the kind");
        assert!(epoch2 > epoch, "every claim gets a fresh epoch");
        t.abort_build("m", epoch2);
        assert_eq!(t.get("m"), Some(PlanState::Pending(FormatKind::NaiveCsr)));
    }

    #[test]
    fn stale_epoch_cannot_finish_or_abort_a_successor_build() {
        let t = PlanTable::new(8, 1);
        t.insert_pending("m", FormatKind::Ell);
        let (_, old_epoch) = t.try_begin_build("m").unwrap();
        // Forget + re-admit while the old flight is still out.
        t.remove("m");
        t.insert_pending("m", FormatKind::Dia);
        let (_, new_epoch) = t.try_begin_build("m").unwrap();
        assert!(!t.finish_build("m", old_epoch, FormatKind::NaiveCsr), "stale finish refused");
        t.abort_build("m", old_epoch); // must be a no-op
        assert_eq!(t.get("m"), Some(PlanState::Building(Some(FormatKind::Dia))));
        assert!(t.finish_build("m", new_epoch, FormatKind::Dia));
    }

    #[test]
    fn building_entries_are_spared_by_eviction() {
        let t = PlanTable::new(2, 1);
        t.insert_pending("building", FormatKind::Ell);
        let (_, epoch) = t.try_begin_build("building").unwrap();
        // Stream colder-and-newer ids through the 2-entry shard: the
        // Building entry is older than every streamer, but must survive
        // until its flight lands.
        for i in 0..8 {
            t.insert_pending(&format!("s{i}"), FormatKind::NaiveCsr);
            assert_eq!(
                t.get("building"),
                Some(PlanState::Building(Some(FormatKind::Ell))),
                "building plan evicted under streaming pressure (step {i})"
            );
        }
        assert!(t.finish_build("building", epoch, FormatKind::Ell));
    }

    #[test]
    fn pinned_entries_are_spared_by_eviction_until_released() {
        let t = PlanTable::new(2, 1);
        let ticket = t.acquire_solver_pin("solve", FormatKind::SellCSigma);
        assert_eq!(t.pinned_count(), 1);
        // Streaming pressure must never evict the pinned plan.
        for i in 0..8 {
            t.insert_pending(&format!("s{i}"), FormatKind::NaiveCsr);
            assert_eq!(
                t.get("solve"),
                Some(PlanState::Pinned(FormatKind::SellCSigma)),
                "pinned plan evicted under streaming pressure (step {i})"
            );
        }
        assert!(t.release_solver_pin("solve", ticket));
        assert_eq!(t.pinned_count(), 0);
        // Released, the entry is ordinary again: pressure evicts it.
        for i in 0..4 {
            t.insert_pending(&format!("r{i}"), FormatKind::NaiveCsr);
        }
        assert_eq!(t.get("solve"), None, "released plan must be evictable");
    }

    #[test]
    fn nested_pins_release_independently() {
        let t = PlanTable::new(4, 1);
        let a = t.acquire_solver_pin("m", FormatKind::Ell);
        let b = t.acquire_solver_pin("m", FormatKind::Ell);
        assert_eq!(a, b, "same incarnation for concurrent pins of one entry");
        assert_eq!(t.pinned_count(), 1);
        assert!(t.release_solver_pin("m", a));
        assert_eq!(t.pinned_count(), 1, "one pin still outstanding");
        assert!(t.release_solver_pin("m", b));
        assert_eq!(t.pinned_count(), 0);
        // A third release of the same ticket is a refused double free.
        assert!(!t.release_solver_pin("m", b));
    }

    #[test]
    fn stale_release_cannot_touch_a_reincarnated_id() {
        let t = PlanTable::new(4, 1);
        let stale = t.acquire_solver_pin("m", FormatKind::Ell);
        t.remove("m"); // forget: pinned entries are removed regardless
        assert_eq!(t.get("m"), None);
        assert_eq!(t.pinned_count(), 0);
        // Same id re-admitted and pinned by a new solve.
        let fresh = t.acquire_solver_pin("m", FormatKind::Dia);
        assert_ne!(stale, fresh, "re-admission gets a fresh incarnation");
        // The stale release must not decrement the successor's pins —
        // and must not resurrect anything.
        assert!(!t.release_solver_pin("m", stale));
        assert_eq!(t.pinned_count(), 1, "successor's pin must survive the stale release");
        assert!(t.release_solver_pin("m", fresh));
        assert_eq!(t.get("m"), Some(PlanState::Pinned(FormatKind::Dia)));
    }

    #[test]
    fn release_after_forget_does_not_resurrect() {
        let t = PlanTable::new(4, 1);
        let ticket = t.acquire_solver_pin("gone", FormatKind::Ell);
        t.remove("gone");
        assert!(!t.release_solver_pin("gone", ticket));
        assert_eq!(t.get("gone"), None, "release must never re-insert a forgotten id");
        assert!(t.is_empty());
    }

    #[test]
    fn acquire_on_existing_entry_preserves_state_and_pins_it() {
        let t = PlanTable::new(4, 1);
        t.insert_pending("m", FormatKind::Ell);
        let ticket = t.acquire_solver_pin("m", FormatKind::Ell);
        // Pinning must not clobber the plan stage (a Pending entry may
        // still have an admission in flight).
        assert_eq!(t.get("m"), Some(PlanState::Pending(FormatKind::Ell)));
        assert_eq!(t.pinned_count(), 1);
        assert!(t.release_solver_pin("m", ticket));
    }

    #[test]
    fn single_flight_lookup_classifies_hit_lead_wait() {
        let c = ShardedConversions::new(1 << 20, 4);
        let Lookup::Lead(guard) = c.begin("m", FormatKind::NaiveCsr) else {
            panic!("first lookup must lead");
        };
        assert_eq!(guard.kind(), FormatKind::NaiveCsr);
        // While the flight is open, other callers wait instead of
        // leading a duplicate conversion.
        let Lookup::Wait(flight) = c.begin("m", FormatKind::NaiveCsr) else {
            panic!("racing lookup must wait, not convert");
        };
        guard.finish(fmt_of(8), FormatKind::NaiveCsr);
        let (_, kind) = flight.wait().expect("leader published");
        assert_eq!(kind, FormatKind::NaiveCsr);
        assert!(matches!(c.begin("m", FormatKind::NaiveCsr), Lookup::Hit(_, _)));
        assert_eq!(c.len(), 1);
        assert!(c.bytes_resident() > 0);
        c.forget("m");
        assert!(c.is_empty());
    }

    /// Regression for the fallback re-plan window: after a fallback
    /// publication, a reader still holding the *refused* kind (a stale
    /// plan) must hit the id's resident fallback entry — not lead a
    /// second doomed conversion.
    #[test]
    fn stale_kind_lookup_hits_the_fallback_entry() {
        let c = ShardedConversions::new(1 << 20, 2);
        let Lookup::Lead(guard) = c.begin("m", FormatKind::Dia) else { panic!("lead") };
        // DIA refused; CSR built instead.
        let mut pinned = None;
        guard.finish_with(fmt_of(8), FormatKind::NaiveCsr, |actual| {
            pinned = Some(actual);
            true
        });
        assert_eq!(pinned, Some(FormatKind::NaiveCsr), "publish hook saw the actual kind");
        // The racing reader that read the plan before the re-pin:
        match c.begin("m", FormatKind::Dia) {
            Lookup::Hit(_, kind) => assert_eq!(kind, FormatKind::NaiveCsr),
            _ => panic!("stale-plan lookup led a second refused conversion"),
        }
        // peek() answers the same way.
        let (_, kind) = c.peek("m").expect("the id's entry is resident");
        assert_eq!(kind, FormatKind::NaiveCsr);
        assert_eq!(c.len(), 1, "exactly one resident entry");
        // forget clears the entry.
        c.forget("m");
        assert!(c.peek("m").is_none());
        assert!(matches!(c.begin("m", FormatKind::Dia), Lookup::Lead(_)));
    }

    /// The re-plan window, end to end and under racing readers: from
    /// the moment a flight for a refusing kind is registered, no reader
    /// of that kind can ever lead a second conversion — it waits on the
    /// flight before publication and hits the id's entry after, with
    /// the plan re-pinned inside the same critical section.
    #[test]
    fn racing_readers_never_lead_a_second_refused_conversion() {
        let c = ShardedConversions::new(1 << 20, 2);
        let plans = PlanTable::new(16, 2);
        plans.insert_pending("m", FormatKind::Dia);
        let Lookup::Lead(guard) = c.begin("m", FormatKind::Dia) else { panic!("lead") };
        let extra_leads = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    // Stale readers: they planned DIA before the
                    // publication and look up with that kind in a loop
                    // (as re-issued requests would).
                    for _ in 0..50 {
                        match c.begin("m", FormatKind::Dia) {
                            Lookup::Lead(_) => {
                                extra_leads.fetch_add(1, Ordering::Relaxed);
                            }
                            Lookup::Wait(f) => {
                                let _ = f.wait();
                            }
                            Lookup::Hit(_, kind) => {
                                assert_eq!(kind, FormatKind::NaiveCsr, "hit the fallback");
                            }
                        }
                        std::thread::yield_now();
                    }
                });
            }
            // DIA refused; publish the CSR fallback and re-pin the
            // plan inside the publication critical section.
            guard.finish_with(fmt_of(8), FormatKind::NaiveCsr, |actual| {
                plans.pin("m", actual);
                true
            });
        });
        assert_eq!(
            extra_leads.load(Ordering::Relaxed),
            0,
            "a stale-plan reader led a redundant refused conversion"
        );
        assert_eq!(plans.get("m"), Some(PlanState::Pinned(FormatKind::NaiveCsr)));
        assert_eq!(c.len(), 1, "exactly one resident entry");
    }

    #[test]
    fn vetoed_publication_caches_nothing_but_serves_waiters() {
        // The publish hook returning false (stale admission: the id was
        // forgotten and re-admitted while the leader built) must keep
        // the result out of the cache while still waking waiters.
        let c = ShardedConversions::new(1 << 20, 2);
        let Lookup::Lead(guard) = c.begin("m", FormatKind::NaiveCsr) else { panic!("lead") };
        let Lookup::Wait(flight) = c.begin("m", FormatKind::NaiveCsr) else { panic!("wait") };
        guard.finish_with(fmt_of(8), FormatKind::NaiveCsr, |_| false);
        assert!(flight.wait().is_some(), "waiters still served");
        assert!(c.is_empty(), "vetoed publication must not become resident");
    }

    #[test]
    fn peek_never_leads_or_waits() {
        let c = ShardedConversions::new(1 << 20, 2);
        assert!(c.peek("m").is_none());
        // An open flight: peek still returns None instead of blocking.
        let Lookup::Lead(guard) = c.begin("m", FormatKind::NaiveCsr) else { panic!("lead") };
        assert!(c.peek("m").is_none(), "peek must not wait on the flight");
        guard.finish(fmt_of(8), FormatKind::NaiveCsr);
        assert!(c.peek("m").is_some());
    }

    #[test]
    fn abandoned_flight_wakes_waiters_and_allows_retry() {
        let c = ShardedConversions::new(1 << 20, 2);
        let Lookup::Lead(guard) = c.begin("m", FormatKind::Coo) else { panic!("lead") };
        let Lookup::Wait(flight) = c.begin("m", FormatKind::Coo) else { panic!("wait") };
        drop(guard); // leader dies without publishing
        assert!(flight.wait().is_none(), "waiters must not block forever");
        // The key is free again: the retry leads a fresh conversion.
        assert!(matches!(c.begin("m", FormatKind::Coo), Lookup::Lead(_)));
    }

    #[test]
    fn forget_during_flight_discards_the_stale_publication() {
        let c = ShardedConversions::new(1 << 20, 2);
        let Lookup::Lead(guard) = c.begin("m", FormatKind::NaiveCsr) else { panic!("lead") };
        let Lookup::Wait(flight) = c.begin("m", FormatKind::NaiveCsr) else { panic!("wait") };
        // The matrix changes in place while the leader still converts.
        c.forget("m");
        let mut published = false;
        guard.finish_with(fmt_of(8), FormatKind::NaiveCsr, |_| {
            published = true;
            true
        });
        assert!(!published, "publish hook must not run for a deregistered flight");
        // The waiter's request raced the forget — it may see the old
        // result — but the stale conversion must not become resident.
        assert!(flight.wait().is_some());
        assert!(c.is_empty(), "stale flight re-populated the cache after forget");
        assert!(matches!(c.begin("m", FormatKind::NaiveCsr), Lookup::Lead(_)));
    }

    #[test]
    fn stale_leader_does_not_disturb_its_successor() {
        let c = ShardedConversions::new(1 << 20, 2);
        let Lookup::Lead(old) = c.begin("m", FormatKind::Coo) else { panic!("old lead") };
        c.forget("m");
        // A post-forget request starts a fresh flight under the same key.
        let Lookup::Lead(new) = c.begin("m", FormatKind::Coo) else { panic!("new lead") };
        let Lookup::Wait(w) = c.begin("m", FormatKind::Coo) else { panic!("wait on new") };
        // The stale leader finishes late: it must neither cache its
        // result nor deregister the successor's flight.
        old.finish(fmt_of(4), FormatKind::Coo);
        assert!(c.is_empty(), "stale result cached");
        new.finish(fmt_of(8), FormatKind::Coo);
        assert!(w.wait().is_some(), "successor's waiter served");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn racing_threads_elect_exactly_one_leader() {
        let c = ShardedConversions::new(1 << 20, 4);
        let leads = AtomicUsize::new(0);
        let served = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| match c.begin("same-id", FormatKind::NaiveCsr) {
                    Lookup::Lead(guard) => {
                        leads.fetch_add(1, Ordering::Relaxed);
                        guard.finish(fmt_of(16), FormatKind::NaiveCsr);
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    Lookup::Wait(flight) => {
                        assert!(flight.wait().is_some());
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    Lookup::Hit(_, _) => {
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(leads.load(Ordering::Relaxed), 1, "exactly one conversion");
        assert_eq!(served.load(Ordering::Relaxed), 8, "every thread served");
        assert_eq!(c.len(), 1);
    }

    /// Fault containment at the landing, with no production hook: the
    /// leader's build panics while a second thread lands the same id.
    /// The waiter retries and builds exactly once, nothing of the
    /// panicking leader becomes resident, and the register still elects
    /// leaders.
    #[test]
    fn a_panicking_build_is_contained_and_its_waiter_builds_once() {
        let c = ShardedConversions::new(1 << 20, 2);
        let plans = PlanTable::new(16, 2);
        plans.insert_pending("m", FormatKind::NaiveCsr);
        let builds = AtomicUsize::new(0);
        let (building, fail) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let ((fmt, _, landed), leader) = std::thread::scope(|s| {
            let leader = s.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    c.land(
                        &plans,
                        "m",
                        || FormatKind::NaiveCsr,
                        None,
                        |_| {
                            building.wait();
                            fail.wait();
                            panic!("injected conversion fault")
                        },
                    )
                }))
            });
            building.wait(); // the leader's flight is registered
            let Lookup::Wait(flight) = c.begin("m", FormatKind::NaiveCsr) else {
                panic!("the leader's flight is registered")
            };
            let waiter = s.spawn(|| {
                c.land(
                    &plans,
                    "m",
                    || FormatKind::NaiveCsr,
                    None,
                    |kind| {
                        builds.fetch_add(1, Ordering::Relaxed);
                        (fmt_of(8), kind, 0)
                    },
                )
            });
            // Register, leader, this probe and the waiter's own `Wait`:
            // the waiter is on the flight before the leader fails.
            while Arc::strong_count(&flight) < 4 {
                std::thread::yield_now();
            }
            drop(flight);
            fail.wait();
            (waiter.join().unwrap(), leader.join().unwrap())
        });
        assert!(leader.is_err(), "the fault propagates to the leader's caller");
        assert_eq!(landed, Landed::Built { refused: 0, published: true });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "the waiter built exactly once");
        assert_eq!(c.len(), 1);
        match c.begin("m", FormatKind::NaiveCsr) {
            Lookup::Hit(resident, _) => assert!(Arc::ptr_eq(&resident, &fmt), "the waiter's build"),
            _ => panic!("the waiter's build is resident"),
        }
        assert_eq!(plans.get("m"), Some(PlanState::Pinned(FormatKind::NaiveCsr)));
        assert!(matches!(c.begin("fresh", FormatKind::NaiveCsr), Lookup::Lead(_)));
    }
}
