//! Sharded, single-flight serving state: the concurrency layer under
//! [`Engine`](crate::Engine).
//!
//! Two structures make the serve path scale past one global lock:
//!
//! * [`PlanTable`] — the format each matrix id was last published as,
//!   an LRU `id → FormatKind` split over N independently locked shards
//!   (matrix-id hash). Each shard keeps a secondary recency index
//!   (`last_used` tick → id) so LRU eviction is `O(log n)` per victim
//!   instead of a linear scan over the shard. Recency matters: an early
//!   implementation evicted in `BTreeMap` key order, so a hot matrix
//!   with a lexicographically small id was thrown out (and re-planned)
//!   on every admission once the table filled. Eviction spares only
//!   the entry just touched: no reader holds a plan across requests (a
//!   [`SolveHandle`](crate::SolveHandle) holds its converted format
//!   instead), so an evicted plan costs the id at most one feature pass
//!   on its next miss.
//! * [`ShardedConversions`] — the converted-format cache, one
//!   [`ConversionCache`] per shard plus a **single-flight** register:
//!   concurrent misses on the same id coalesce onto one builder (the
//!   *leader*) while every other thread (*waiters*) blocks on the
//!   flight's slot instead of converting its own duplicate copy.
//!   Conversion can cost many SpMV-equivalents (SELL-C-σ), so a
//!   thundering herd of M clients must pay it once, not M times.
//!
//! # One claim per id
//!
//! The register is the only claim on an id: at most one flight and at
//! most one resident entry per id, both kept under the id's
//! conversion-shard lock. A flight is registered in the same critical
//! section that finds the id not resident, two ways:
//!
//! * [`ShardedConversions::claim`] — an `Async` cold request, which
//!   hands the [`Registration`] to a pool job that
//!   [`lead`](ShardedConversions::lead)s it;
//! * [`ShardedConversions::land`] — every synchronous caller (a `Sync`
//!   serve, a solver handle, snapshot restore), which hits, waits for
//!   the registered flight (a queued `Async` one included) or leads.
//!
//! Either leader names its kind (the id's plan, else a feature pass)
//! and builds with no lock held, then publishes: it deregisters its
//! flight, pins the plan and inserts the conversion in **one**
//! conversion-shard critical section. [`ShardedConversions::forget`]
//! deregisters the flight, drops the entry and removes the plan in one
//! such section too, so a flight registered before a forget publishes
//! nothing — neither a conversion nor a plan — and a queued job whose
//! registration was withdrawn exits before it plans.
//!
//! A lookup that finds the id resident is a hit whatever kind the
//! caller planned, and reports the resident kind, so a reader still
//! holding a refused plan (ELL over its padding budget) finds the
//! fallback that built instead.
//!
//! # Lock ordering
//!
//! Both structures hash ids with FNV-1a. A conversion-shard lock may be
//! held while taking a plan-shard lock (publication and `forget` do);
//! the reverse never happens — no `PlanTable` method calls into
//! `ShardedConversions` — so lock ordering is acyclic. Conversion
//! itself always runs *outside* the shard lock — only the registration
//! and publication of the result lock the shard.

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

/// One id's plan and its LRU bookkeeping. Any entry may be evicted, a
/// solved id's included: a live solve runs on the format it already
/// holds and never reads its plan again.
struct PlanEntry {
    kind: FormatKind,
    last_used: u64,
}

#[derive(Default)]
struct PlanShard {
    tick: u64,
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
    /// remain, sparing `keep` (just touched).
    fn evict_to_fit(&mut self, capacity: usize, keep: &str) {
        while self.map.len() > capacity {
            let Some(tick) = self.recency.iter().find(|(_, id)| &***id != keep).map(|(&t, _)| t)
            else {
                break; // only the spared entry left
            };
            let id = self.recency.remove(&tick).expect("found in the index");
            self.map.remove(&*id);
        }
    }

    fn remove(&mut self, id: &str) {
        if let Some(e) = self.map.remove(id) {
            self.recency.remove(&e.last_used);
        }
    }

    /// Touches `id`, or inserts it naming `kind` when absent; then
    /// evicts down to `capacity`, sparing `id`. Returns `id`'s entry.
    fn upsert(&mut self, id: &str, kind: FormatKind, capacity: usize) -> &mut PlanEntry {
        if self.map.contains_key(id) {
            self.touch(id);
        } else {
            let tick = self.next_tick();
            let key: Arc<str> = Arc::from(id);
            self.map.insert(Arc::clone(&key), PlanEntry { kind, last_used: tick });
            self.recency.insert(tick, key);
        }
        self.evict_to_fit(capacity, id);
        self.map.get_mut(id).expect("the kept entry survives eviction")
    }
}

/// Sharded LRU map of matrix id → the [`FormatKind`] its conversion
/// was published as, with per-shard `O(log n)` eviction. All methods
/// take `&self`; each shard has its own lock.
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

    /// The kind `id`'s plan names, refreshing its recency on a hit.
    pub fn get(&self, id: &str) -> Option<FormatKind> {
        let mut s = self.shard(id).lock();
        let kind = s.map.get(id)?.kind;
        s.touch(id);
        Some(kind)
    }

    /// Plans `id` as `kind` unless it is planned already (first writer
    /// wins): a snapshot's plan records, which must not overwrite a
    /// live plan. The entry is touched either way, and the shard
    /// evicted down to capacity.
    pub fn insert_pending(&self, id: &str, kind: FormatKind) {
        self.shard(id).lock().upsert(id, kind, self.per_shard_capacity);
    }

    /// Plans `id` as `kind`, inserting or overwriting, and evicts the
    /// shard down to capacity. A publication pins inside its
    /// conversion-shard critical section, only while its flight is
    /// still registered, so a forgotten id's flight never re-plans it.
    pub fn pin(&self, id: &str, kind: FormatKind) {
        self.shard(id).lock().upsert(id, kind, self.per_shard_capacity).kind = kind;
    }

    /// Drops the plan for `id`, if any: [`ShardedConversions::forget`]
    /// does, inside the id's conversion-shard critical section.
    pub(crate) fn remove(&self, id: &str) {
        self.shard(id).lock().remove(id);
    }

    /// Snapshot export: every plan as `(id, kind)`. Each shard is
    /// locked once and recency is deliberately not refreshed —
    /// exporting the table must not reorder the LRU it is exporting.
    pub fn export(&self) -> Vec<(String, FormatKind)> {
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(s.lock().map.iter().map(|(id, e)| (id.to_string(), e.kind)));
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
    /// The flight is queued or its leader is still converting.
    Pending,
    /// The conversion finished; waiters take the shared result. The
    /// format kind is the one that actually built (a fallback may differ
    /// from the kind the leader was asked for).
    Done(CachedFormat, FormatKind),
    /// The leader died (panicked) without publishing, or its job found
    /// the registration withdrawn; waiters must retry the whole lookup.
    Abandoned,
}

/// One in-progress conversion that racing misses coalesce onto.
pub struct Flight {
    state: Mutex<FlightState>,
    ready: Condvar,
}

impl Flight {
    /// Blocks until the leader publishes, returning the shared result —
    /// or `None` if the flight was abandoned (retry the lookup).
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

    /// Ends the flight in `state` and wakes every waiter.
    fn end(&self, state: FlightState) {
        *self.state.lock() = state;
        self.ready.notify_all();
    }
}

struct ConversionShard {
    cache: ConversionCache,
    inflight: BTreeMap<String, Arc<Flight>>,
}

/// The outcome of [`ShardedConversions::claim`].
pub enum Claim {
    /// The id's conversion was resident; recency refreshed. The kind
    /// is the resident one.
    Hit(CachedFormat, FormatKind),
    /// A flight of the id is registered already; [`Flight::wait`]
    /// returns its result.
    Flight(Arc<Flight>),
    /// `reserve` declined: nothing was registered.
    Declined,
    /// This caller registered the id's flight: hand it to
    /// [`ShardedConversions::lead`].
    Registered(Registration),
}

/// An id's flight, registered by [`ShardedConversions::claim`] and not
/// yet led. It borrows nothing, so the request that made it can hand it
/// to a pool job and return. [`ShardedConversions::lead`] is its only
/// consumer: dropped unled, it leaves the id's flight registered and
/// its waiters blocked (the engine's pool discards a queued job only
/// when the engine drops, and every waiter's borrow of it with it).
pub struct Registration {
    shard: usize,
    id: String,
    flight: Arc<Flight>,
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
    reg: Registration,
    kind: FormatKind,
    finished: bool,
}

impl FlightGuard<'_> {
    /// The format this flight was asked to convert — what the leader
    /// should build.
    pub fn kind(&self) -> FormatKind {
        self.kind
    }

    /// The one lead of every flight: `plan(id)` names the kind and
    /// `build(kind) -> (format, built kind, refused)` builds it, both
    /// with no lock held (a panic in either drops the guard, which
    /// abandons the flight), then the build is published.
    fn lead<P, B>(
        mut self,
        plans: &PlanTable,
        plan: P,
        build: B,
    ) -> (CachedFormat, FormatKind, Landed)
    where
        P: FnOnce(&str) -> FormatKind,
        B: FnOnce(FormatKind) -> (CachedFormat, FormatKind, usize),
    {
        self.kind = plan(&self.reg.id);
        let (fmt, actual, refused) = build(self.kind);
        let published = self.publish(Arc::clone(&fmt), actual, Some(plans));
        (fmt, actual, Landed::Built { refused, published })
    }

    /// Publishes the built format: while this guard's flight is still
    /// registered, deregisters it, pins `plans` (if given) to the kind
    /// that actually built and inserts the format into the shard's
    /// cache under that kind, all in one conversion-shard critical
    /// section, and returns `true`. Then wakes every waiter — they
    /// receive the result either way (their requests raced whatever
    /// withdrew the flight). A flight that a
    /// [`forget`](ShardedConversions::forget) deregistered publishes
    /// nothing, so a late conversion never resurrects a forgotten
    /// matrix's plan or cache entry.
    fn publish(mut self, fmt: CachedFormat, actual: FormatKind, plans: Option<&PlanTable>) -> bool {
        let published = {
            let mut shard = self.owner.shards[self.reg.shard].lock();
            let registered = self.deregister(&mut shard);
            if registered {
                if let Some(plans) = plans {
                    plans.pin(&self.reg.id, actual);
                }
                shard.cache.insert(&self.reg.id, actual, Arc::clone(&fmt));
            }
            registered
        };
        self.reg.flight.end(FlightState::Done(fmt, actual));
        self.finished = true;
        published
    }

    /// Publishes the built format with no plan to pin (see
    /// [`Lookup::Lead`]).
    pub fn finish(self, fmt: CachedFormat, actual: FormatKind) {
        self.publish(fmt, actual, None);
    }

    /// Whether this guard's own flight is still in the register — not
    /// withdrawn by a `forget`, nor replaced by a successor's.
    fn registered(&self, shard: &ConversionShard) -> bool {
        shard.inflight.get(&self.reg.id).is_some_and(|f| Arc::ptr_eq(f, &self.reg.flight))
    }

    /// Removes this guard's own flight from the register; `false` when
    /// it was not [`registered`](FlightGuard::registered).
    fn deregister(&self, shard: &mut ConversionShard) -> bool {
        let registered = self.registered(shard);
        if registered {
            shard.inflight.remove(&self.reg.id);
        }
        registered
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        // The leader died before publishing (a panic in its plan or
        // build), or its job found the registration withdrawn: take the
        // flight out of the register and tell waiters to retry, so
        // nobody blocks forever on a result that will never come.
        self.deregister(&mut self.owner.shards[self.reg.shard].lock());
        self.reg.flight.end(FlightState::Abandoned);
    }
}

/// How a [`ShardedConversions::land`] or
/// [`ShardedConversions::lead`] call obtained its format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Landed {
    /// The id's conversion was resident.
    Hit,
    /// Another caller's flight was converting the id; this one waited
    /// for it.
    Coalesced,
    /// This caller built the format and, unless a `forget` withdrew its
    /// flight, published it and pinned the plan.
    Built {
        /// Candidates that refused the matrix before one accepted it.
        refused: usize,
        /// `false` when a `forget` withdrew the flight.
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

    /// Classifies `id` under its shard lock, in one step: resident
    /// (whatever its kind) → [`Claim::Hit`]; a flight registered →
    /// [`Claim::Flight`]; neither → this caller registers the id's
    /// flight ([`Claim::Registered`]) if `reserve()` agrees, else
    /// [`Claim::Declined`]. `reserve` runs under the lock and only when
    /// a registration would follow (`Async` admission takes its
    /// in-flight slot there), so between a registration and its
    /// publication every other caller is funneled onto the flight — no
    /// window in which a second conversion of the same id can start.
    pub fn claim(&self, id: &str, reserve: impl FnOnce() -> bool) -> Claim {
        let si = shard_of(id, self.shards.len());
        let mut shard = self.shards[si].lock();
        if let Some((fmt, resident)) = shard.cache.resident(id) {
            return Claim::Hit(fmt, resident);
        }
        if let Some(flight) = shard.inflight.get(id) {
            return Claim::Flight(Arc::clone(flight));
        }
        if !reserve() {
            return Claim::Declined;
        }
        let flight =
            Arc::new(Flight { state: Mutex::new(FlightState::Pending), ready: Condvar::new() });
        shard.inflight.insert(id.to_string(), Arc::clone(&flight));
        Claim::Registered(Registration { shard: si, id: id.to_string(), flight })
    }

    /// Takes leadership of `reg`, to build `kind`.
    fn attach(&self, reg: Registration, kind: FormatKind) -> FlightGuard<'_> {
        FlightGuard { owner: self, reg, kind, finished: false }
    }

    /// [`ShardedConversions::claim`] with an unconditional reserve:
    /// resident → [`Lookup::Hit`], already converting →
    /// [`Lookup::Wait`], neither → this caller leads a `kind`
    /// conversion ([`Lookup::Lead`]).
    pub fn begin(&self, id: &str, kind: FormatKind) -> Lookup<'_> {
        match self.claim(id, || true) {
            Claim::Hit(fmt, resident) => Lookup::Hit(fmt, resident),
            Claim::Flight(flight) => Lookup::Wait(flight),
            Claim::Registered(reg) => Lookup::Lead(self.attach(reg, kind)),
            Claim::Declined => unreachable!("begin always reserves"),
        }
    }

    /// Lands a format for `id` synchronously: the landing of every
    /// caller but an `Async` admission job. Returns the format to serve,
    /// its kind (the built or resident one, not always the planned one)
    /// and how it was obtained: a hit; a wait on the registered flight
    /// (a queued `Async` one included; retried, possibly leading, if
    /// that flight is abandoned); or a lead, which asks `plan(id)` for
    /// the kind and calls `build(kind) -> (format, built kind,
    /// refused)`, both with no lock held, then publishes the format and
    /// pins the plan in one critical section. A hit or a wait never
    /// calls `plan`. A panicking `plan` or `build` abandons the flight
    /// (its waiters retry) and propagates.
    pub fn land<P, B>(
        &self,
        plans: &PlanTable,
        id: &str,
        plan: P,
        build: B,
    ) -> (CachedFormat, FormatKind, Landed)
    where
        P: FnOnce(&str) -> FormatKind,
        B: FnOnce(FormatKind) -> (CachedFormat, FormatKind, usize),
    {
        loop {
            match self.claim(id, || true) {
                Claim::Hit(fmt, resident) => return (fmt, resident, Landed::Hit),
                Claim::Flight(flight) => {
                    if let Some((fmt, built)) = flight.wait() {
                        return (fmt, built, Landed::Coalesced);
                    }
                    // The flight was abandoned; retry — this call may lead.
                }
                Claim::Registered(reg) => {
                    return self.attach(reg, FormatKind::NaiveCsr).lead(plans, plan, build)
                }
                Claim::Declined => unreachable!("land always reserves"),
            }
        }
    }

    /// Leads a flight [`ShardedConversions::claim`] registered — the
    /// `Async` admission job. If a [`forget`](ShardedConversions::forget)
    /// withdrew the registration while the job was queued, returns
    /// `None` before `plan` runs and the flight's waiters retry.
    /// Otherwise leads as [`ShardedConversions::land`] does: `plan(id)`
    /// names the kind, `build` builds it, and the build is published
    /// unless a `forget` withdraws the flight meanwhile. The job never
    /// enters `begin` or `land` for its own id, where it would wait on
    /// itself.
    pub fn lead<P, B>(
        &self,
        plans: &PlanTable,
        reg: Registration,
        plan: P,
        build: B,
    ) -> Option<(CachedFormat, FormatKind, Landed)>
    where
        P: FnOnce(&str) -> FormatKind,
        B: FnOnce(FormatKind) -> (CachedFormat, FormatKind, usize),
    {
        let guard = self.attach(reg, FormatKind::NaiveCsr);
        let registered = guard.registered(&self.shards[guard.reg.shard].lock());
        if !registered {
            return None; // dropping the guard abandons the flight
        }
        Some(guard.lead(plans, plan, build))
    }

    /// Forgets one matrix id in one conversion-shard critical section:
    /// deregisters its flight, removes its plan from `plans` and drops
    /// its resident conversion; returns the bytes released. A
    /// deregistered flight is not interrupted: a running leader
    /// finishes and serves its waiters but publishes nothing, and a
    /// queued job exits before it plans — so no flight registered
    /// before the forget resurrects the forgotten matrix's conversion
    /// or plan.
    pub fn forget(&self, plans: &PlanTable, id: &str) -> usize {
        let mut shard = self.shards[shard_of(id, self.shards.len())].lock();
        shard.inflight.remove(id);
        plans.remove(id);
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
                t.get("aaa-hot"),
                Some(FormatKind::NaiveCsr),
                "hot id evicted after {i} admissions"
            );
            t.insert_pending(&format!("zz-{i}"), FormatKind::Coo);
            assert!(t.len() <= 3, "capacity violated");
        }
        // The cold streamers are gone, the hot id survived.
        assert_eq!(t.get("aaa-hot"), Some(FormatKind::NaiveCsr));
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
        // pin() overwrites an existing entry and inserts an absent one;
        // insert_pending() never overwrites; get() refreshes without
        // growing.
        t.insert_pending("id-99", FormatKind::NaiveCsr);
        t.pin("id-99", FormatKind::Coo);
        assert_eq!(t.get("id-99"), Some(FormatKind::Coo));
        t.insert_pending("id-99", FormatKind::Ell);
        assert_eq!(t.get("id-99"), Some(FormatKind::Coo), "the first writer wins");
        t.remove("id-99");
        assert_eq!(t.get("id-99"), None);
        t.pin("id-99", FormatKind::Ell);
        assert_eq!(t.get("id-99"), Some(FormatKind::Ell));
        assert!(t.len() <= 4, "total bound violated: {}", t.len());
    }

    #[test]
    fn single_flight_lookup_classifies_hit_lead_wait() {
        let c = ShardedConversions::new(1 << 20, 4);
        let plans = PlanTable::new(16, 2);
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
        c.forget(&plans, "m");
        assert!(c.is_empty());
    }

    /// Regression for the fallback re-plan window: after a fallback
    /// publication, a reader still holding the *refused* kind (a stale
    /// plan) must hit the id's resident fallback entry — not lead a
    /// second doomed conversion.
    #[test]
    fn stale_kind_lookup_hits_the_fallback_entry() {
        let c = ShardedConversions::new(1 << 20, 2);
        let plans = PlanTable::new(16, 2);
        let Lookup::Lead(guard) = c.begin("m", FormatKind::Dia) else { panic!("lead") };
        // DIA refused; CSR built instead.
        assert!(guard.publish(fmt_of(8), FormatKind::NaiveCsr, Some(&plans)));
        assert_eq!(plans.get("m"), Some(FormatKind::NaiveCsr), "pinned to the actual kind");
        // The racing reader that read the plan before the re-pin:
        match c.begin("m", FormatKind::Dia) {
            Lookup::Hit(_, kind) => assert_eq!(kind, FormatKind::NaiveCsr),
            _ => panic!("stale-plan lookup led a second refused conversion"),
        }
        // A claim answers the same way.
        let Claim::Hit(_, kind) = c.claim("m", || true) else { panic!("the entry is resident") };
        assert_eq!(kind, FormatKind::NaiveCsr);
        assert_eq!(c.len(), 1, "exactly one resident entry");
        // forget clears the entry and the plan.
        c.forget(&plans, "m");
        assert!(c.is_empty());
        assert_eq!(plans.get("m"), None);
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
            guard.publish(fmt_of(8), FormatKind::NaiveCsr, Some(&plans));
        });
        assert_eq!(
            extra_leads.load(Ordering::Relaxed),
            0,
            "a stale-plan reader led a redundant refused conversion"
        );
        assert_eq!(plans.get("m"), Some(FormatKind::NaiveCsr));
        assert_eq!(c.len(), 1, "exactly one resident entry");
    }

    /// A claimed flight whose id is forgotten while it builds: its
    /// publication is vetoed — no entry, no plan — but its waiter is
    /// still served.
    #[test]
    fn vetoed_publication_caches_nothing_but_serves_waiters() {
        let c = ShardedConversions::new(1 << 20, 2);
        let plans = PlanTable::new(16, 2);
        let Claim::Registered(reg) = c.claim("m", || true) else { panic!("a cold id registers") };
        let Claim::Flight(flight) = c.claim("m", || true) else { panic!("one flight per id") };
        let led = c.lead(
            &plans,
            reg,
            |_| FormatKind::Ell,
            |kind| {
                c.forget(&plans, "m");
                (fmt_of(8), kind, 0)
            },
        );
        let how = led.map(|(_, _, how)| how);
        assert_eq!(how, Some(Landed::Built { refused: 0, published: false }));
        assert!(flight.wait().is_some(), "waiters still served");
        assert!(c.is_empty() && plans.is_empty(), "vetoed publication must not become resident");
    }

    #[test]
    fn a_declined_claim_registers_nothing_and_never_waits() {
        let c = ShardedConversions::new(1 << 20, 2);
        assert!(matches!(c.claim("m", || false), Claim::Declined));
        // An open flight: a claim reports it instead of blocking, and
        // `reserve` is not asked.
        let Lookup::Lead(guard) = c.begin("m", FormatKind::NaiveCsr) else { panic!("lead") };
        assert!(matches!(c.claim("m", || unreachable!("no reservation")), Claim::Flight(_)));
        guard.finish(fmt_of(8), FormatKind::NaiveCsr);
        assert!(matches!(c.claim("m", || unreachable!("no reservation")), Claim::Hit(..)));
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
        let plans = PlanTable::new(16, 2);
        let Lookup::Lead(guard) = c.begin("m", FormatKind::NaiveCsr) else { panic!("lead") };
        let Lookup::Wait(flight) = c.begin("m", FormatKind::NaiveCsr) else { panic!("wait") };
        // The matrix changes in place while the leader still converts.
        c.forget(&plans, "m");
        assert!(!guard.publish(fmt_of(8), FormatKind::NaiveCsr, Some(&plans)), "published");
        // The waiter's request raced the forget — it may see the old
        // result — but the stale conversion must not become resident,
        // nor its plan.
        assert!(flight.wait().is_some());
        assert!(c.is_empty(), "stale flight re-populated the cache after forget");
        assert_eq!(plans.get("m"), None, "stale flight re-planned the id after forget");
        assert!(matches!(c.begin("m", FormatKind::NaiveCsr), Lookup::Lead(_)));
    }

    #[test]
    fn stale_leader_does_not_disturb_its_successor() {
        let c = ShardedConversions::new(1 << 20, 2);
        let plans = PlanTable::new(16, 2);
        let Lookup::Lead(old) = c.begin("m", FormatKind::Coo) else { panic!("old lead") };
        c.forget(&plans, "m");
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

    /// A claimed registration is led by its owner — here the test
    /// thread, standing in for the admission job — while a synchronous
    /// `land` of the same id waits for it instead of building a second
    /// copy, and the lead pins the plan.
    #[test]
    fn a_claimed_flight_is_waited_for_by_land_and_pins_its_plan() {
        let c = ShardedConversions::new(1 << 20, 2);
        let plans = PlanTable::new(16, 2);
        let Claim::Registered(reg) = c.claim("m", || true) else { panic!("a cold id registers") };
        let Claim::Flight(flight) = c.claim("m", || true) else { panic!("one flight per id") };
        let (landed, led) = std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                c.land(&plans, "m", |_| unreachable!("a waiter plans"), |_| unreachable!("builds"))
            });
            // Register, the registration, this probe and the waiter's
            // own `Flight`: the waiter is on the flight before the lead.
            while Arc::strong_count(&flight) < 4 {
                std::thread::yield_now();
            }
            let led = c.lead(&plans, reg, |_| FormatKind::Ell, |kind| (fmt_of(8), kind, 0));
            (waiter.join().unwrap(), led)
        });
        let (fmt, kind, how) = led.expect("a live registration leads");
        assert_eq!((kind, how), (FormatKind::Ell, Landed::Built { refused: 0, published: true }));
        assert!(Arc::ptr_eq(&landed.0, &fmt), "the waiter got the lead's format");
        assert_eq!((landed.1, landed.2), (FormatKind::Ell, Landed::Coalesced));
        assert_eq!(plans.get("m"), Some(FormatKind::Ell));
        assert_eq!(c.len(), 1);
    }

    /// A registration withdrawn by `forget` while its job is queued:
    /// the job exits before it plans, publishes nothing, and its
    /// waiter retries and leads the id's next incarnation.
    #[test]
    fn a_withdrawn_registration_exits_before_it_plans() {
        let c = ShardedConversions::new(1 << 20, 2);
        let plans = PlanTable::new(16, 2);
        let Claim::Registered(reg) = c.claim("m", || true) else { panic!("a cold id registers") };
        let Claim::Flight(flight) = c.claim("m", || true) else { panic!("one flight per id") };
        c.forget(&plans, "m");
        assert!(c.lead(&plans, reg, |_| unreachable!("planned"), |_| unreachable!()).is_none());
        assert!(flight.wait().is_none(), "the waiter retries");
        assert!(c.is_empty() && plans.is_empty(), "a withdrawn flight published");
        assert!(matches!(c.claim("m", || true), Claim::Registered(_)), "the id is free");
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
        let builds = AtomicUsize::new(0);
        let (building, fail) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let ((fmt, _, landed), leader) = std::thread::scope(|s| {
            let leader = s.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    c.land(
                        &plans,
                        "m",
                        |_| FormatKind::NaiveCsr,
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
                    |_| FormatKind::NaiveCsr,
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
        assert_eq!(plans.get("m"), Some(FormatKind::NaiveCsr));
        assert!(matches!(c.begin("fresh", FormatKind::NaiveCsr), Lookup::Lead(_)));
    }
}
