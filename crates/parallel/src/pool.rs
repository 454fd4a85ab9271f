//! A work-stealing thread pool with two priority classes.
//!
//! SpMV is called thousands of times per campaign on matrices that can
//! be small enough for thread-spawn latency to dominate, so the pool
//! keeps its workers alive between calls (the same reason the paper's
//! OpenMP runtimes pin threads once, §IV). Unlike the broadcast pool
//! this design replaces, the scheduler is *task-granular*: a parallel
//! job ([`ThreadPool::run_tasks`]) is split into independent chunk
//! tasks pushed onto per-worker deques, so N concurrent `spmv_parallel`
//! callers and M background conversion flights genuinely share the
//! cores instead of queueing behind a single whole-pool job slot.
//!
//! # Scheduling model
//!
//! Two priority classes:
//!
//! * **High** — chunk tasks of parallel jobs (serves). Each worker owns
//!   a deque: the owner pushes and pops at the back (LIFO, cache-warm),
//!   thieves — idle workers and joining callers — steal from the front
//!   (FIFO, oldest first). The caller of [`ThreadPool::run_tasks`]
//!   executes chunk 0 itself and then helps steal until its job is
//!   done, so a parallel serve makes progress even if every worker is
//!   busy: serves can never be starved.
//! * **Low** — fire-and-forget jobs ([`ThreadPool::submit_low`]) in a
//!   global FIFO queue: the engine's asynchronous format conversions.
//!   Workers take low work only when no high task is available, so a
//!   flight never displaces a serve; a starvation bound (one low task
//!   per `LOW_SERVICE_INTERVAL` consecutive high tasks per worker,
//!   and only when no other low task is running) guarantees flights
//!   always complete even under continuous serve saturation.
//!
//! [`ThreadPool::quiesce`] is the barrier over the low class: it blocks
//! until every previously submitted low job has finished. Scheduling
//! activity is observable through [`ThreadPool::stats`].

use crate::sync::{thread, AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering};
use std::collections::VecDeque;
use std::sync::Arc;

/// Starvation bound for the low class: after this many consecutive
/// high-priority tasks, a worker services one queued low task even
/// though high work is pending — but only if no other low task is
/// currently running, so at most one worker at a time is diverted
/// from serving under saturation.
#[cfg(not(spmv_model_check))]
const LOW_SERVICE_INTERVAL: u32 = 64;
/// Model-checked builds use a tiny interval so bounded schedule
/// exploration can actually reach the anti-starvation pickup (64
/// consecutive high tasks is beyond any tractable schedule depth).
#[cfg(spmv_model_check)]
const LOW_SERVICE_INTERVAL: u32 = 2;

/// Per-job completion state, allocated on the caller's stack in
/// [`ThreadPool::run_tasks`]. Soundness argument: `run_tasks` does not
/// return before `remaining` reaches zero, i.e. before every chunk task
/// of this job has finished executing, so tasks never dereference a
/// dangling header. After the final decrement, completion is signalled
/// exclusively through pool-shared state (`Shared::join_cv`) — the
/// header itself is never touched again, so the caller is free to
/// return the instant it observes `remaining == 0`.
struct JobHeader {
    /// The job closure, lifetime-erased. Only dereferenced while the
    /// spawning caller is still inside `run_tasks` (see above).
    f: *const (dyn Fn(usize) + Sync),
    /// Chunk tasks not yet finished.
    remaining: AtomicUsize,
    /// Set if any chunk task panicked; `run_tasks` re-raises.
    panicked: AtomicBool,
}

// SAFETY: the closure behind `f` is `Sync` (shared execution from many
// threads is the point) and the atomics are `Sync`; the raw pointer is
// only dereferenced under the lifetime protocol documented above.
unsafe impl Sync for JobHeader {}

/// One schedulable unit of a parallel job: "run chunk `index` of the
/// job described by `job`".
#[derive(Clone, Copy)]
struct ChunkTask {
    job: *const JobHeader,
    index: usize,
}

// SAFETY: the pointee is `Sync` (see `JobHeader`) and stays alive until
// this task's completion is counted, so the task may hop threads.
unsafe impl Send for ChunkTask {}

/// A queued low-priority job (see [`ThreadPool::submit_low`]).
type LowJob = Box<dyn FnOnce() + Send + 'static>;

struct LowQueue {
    queue: VecDeque<LowJob>,
    /// Low jobs currently executing on some worker.
    running: usize,
}

/// Cumulative scheduling counters (monotone, `Relaxed`; exactness is
/// only guaranteed for quiesced classes — see [`ThreadPool::stats`]).
#[derive(Default)]
struct StatsBank {
    high_tasks: AtomicU64,
    low_tasks: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
    /// Debug builds remember the previous snapshot so `stats()` can
    /// assert the counters never move backwards (they are cumulative;
    /// a regression here would mean a counter was reset or decremented
    /// somewhere).
    #[cfg(debug_assertions)]
    last_snapshot: Mutex<PoolStats>,
}

/// A snapshot of the pool's scheduling activity since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// High-priority chunk tasks executed (serve work). Jobs with a
    /// single task run inline on the caller and are not counted.
    pub high_tasks: u64,
    /// Low-priority jobs executed (conversion flights, test gates).
    pub low_tasks: u64,
    /// Chunk tasks taken from a deque the executing thread does not
    /// own — by an idle worker or by a joining caller helping out.
    pub steals: u64,
    /// Times a worker went to sleep for lack of any work.
    pub parks: u64,
}

struct Shared {
    /// One high-priority deque per worker. Owner pushes/pops the back;
    /// everyone else steals from the front.
    deques: Vec<Mutex<VecDeque<ChunkTask>>>,
    /// Upper bound on tasks across all deques; incremented *before*
    /// pushing, decremented *after* popping, so a zero read under
    /// `sleep` proves the deques were empty at some point after the
    /// last push (workers may park without missing work).
    high_pending: AtomicUsize,
    low: Mutex<LowQueue>,
    /// Mirrors `low.queue.len()` (updated under the `low` lock) for
    /// lock-free "is there low work?" checks.
    low_queued: AtomicUsize,
    /// Wakes `quiesce` callers when the low class goes idle.
    low_idle: Condvar,
    /// Parking lot for idle workers.
    sleep: Mutex<()>,
    wake: Condvar,
    /// Wakes joining callers in `run_tasks` when any job completes.
    /// Pool-shared (not per-job) so the completing thread never touches
    /// a caller's stack after the final `remaining` decrement.
    join_lock: Mutex<()>,
    join_cv: Condvar,
    /// Rotates push targets and steal scan origins to spread load.
    cursor: AtomicUsize,
    shutdown: AtomicBool,
    stats: StatsBank,
}

impl Shared {
    /// Executes one chunk task and counts it complete. After the final
    /// `remaining` decrement the header may dangle (its caller is free
    /// to return), so only pool-shared state is touched from there on.
    fn exec(&self, task: ChunkTask) {
        // SAFETY: see `JobHeader` — the spawning caller is inside
        // `run_tasks` until this task's completion is counted.
        let hdr = unsafe { &*task.job };
        // SAFETY: `hdr.f` outlives this call for the same reason.
        let f = unsafe { &*hdr.f };
        // A panicking task must still be counted complete, otherwise
        // the caller joins forever; the flag makes `run_tasks` re-raise.
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(task.index))).is_err() {
            hdr.panicked.store(true, Ordering::Release);
        }
        self.stats.high_tasks.fetch_add(1, Ordering::Relaxed);
        if hdr.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.join_lock.lock();
            self.join_cv.notify_all();
        }
    }

    /// Owner pop: newest task first (LIFO, cache-warm).
    fn pop_own(&self, w: usize) -> Option<ChunkTask> {
        let t = self.deques[w].lock().pop_back();
        if t.is_some() {
            self.high_pending.fetch_sub(1, Ordering::AcqRel);
        }
        t
    }

    /// Steal scan: oldest task first (FIFO), over every deque except
    /// `exclude`, starting from a rotating origin. A `None` return
    /// means every scanned deque was empty at the moment of its check —
    /// since tasks are never re-pushed or moved between deques, a
    /// joiner whose scan comes up empty knows all its remaining tasks
    /// are already claimed by executing threads.
    fn try_steal(&self, exclude: Option<usize>) -> Option<ChunkTask> {
        let n = self.deques.len();
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        for k in 0..n {
            let i = (start + k) % n;
            if Some(i) == exclude {
                continue;
            }
            let t = self.deques[i].lock().pop_front();
            if let Some(t) = t {
                self.high_pending.fetch_sub(1, Ordering::AcqRel);
                self.stats.steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    /// Dequeues and runs one low job, if any. With `bounded` set the
    /// pickup is skipped while another low job is running — the
    /// starvation path uses this so flights never occupy more than one
    /// worker while serves saturate the pool.
    fn try_run_low(&self, bounded: bool) -> bool {
        let job = {
            let mut lo = self.low.lock();
            if bounded && lo.running > 0 {
                return false;
            }
            match lo.queue.pop_front() {
                Some(job) => {
                    lo.running += 1;
                    self.low_queued.fetch_sub(1, Ordering::AcqRel);
                    job
                }
                None => return false,
            }
        };
        // A panicking job must not kill the worker: later flights still
        // need it. The job's own drop guards handle its cleanup.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        self.stats.low_tasks.fetch_add(1, Ordering::Relaxed);
        let mut lo = self.low.lock();
        lo.running -= 1;
        if lo.running == 0 && lo.queue.is_empty() {
            self.low_idle.notify_all();
        }
        true
    }
}

/// A fixed-size pool of persistent worker threads running the
/// work-stealing scheduler described in the [module docs](self).
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            high_pending: AtomicUsize::new(0),
            low: Mutex::new(LowQueue { queue: VecDeque::new(), running: 0 }),
            low_queued: AtomicUsize::new(0),
            low_idle: Condvar::new(),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            join_lock: Mutex::new(()),
            join_cv: Condvar::new(),
            cursor: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            stats: StatsBank::default(),
        });
        let handles = (0..threads)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("spmv-worker-{tid}"))
                    .spawn(move || worker_loop(tid, &shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { shared, handles, threads }
    }

    /// A pool sized to the number of available hardware threads, unless
    /// the `SPMV_THREADS` environment variable overrides it (any value
    /// that parses as a `usize`; clamped to ≥ 1, so `SPMV_THREADS=0`
    /// yields a single worker). The override exists so CI and benches
    /// can pin the thread count without code changes.
    pub fn with_all_cores() -> Self {
        let n = std::env::var("SPMV_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
        Self::new(n)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(task_index)` once for every index in `0..tasks`,
    /// concurrently, and returns once all of them have finished.
    ///
    /// The closure may borrow local data: `run_tasks` does not return
    /// until the last task is done with it. The calling thread executes
    /// task 0 itself and then helps steal pending chunk tasks while
    /// waiting, so concurrent callers make progress even when every
    /// worker is busy — many parallel jobs run at once, interleaved at
    /// task granularity, with no whole-pool serialization.
    ///
    /// A job with a single task runs inline on the caller without
    /// touching the scheduler. If any task panics, the panic is
    /// re-raised on the calling thread after the join.
    pub fn run_tasks<F>(&self, tasks: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        match tasks {
            0 => return,
            1 => return f(0),
            _ => {}
        }
        let s = &*self.shared;
        let erased: &(dyn Fn(usize) + Sync) = &f;
        let header = JobHeader {
            // SAFETY: we erase the closure's lifetime; the join below
            // guarantees it outlives every use (see `JobHeader` docs).
            f: unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                    erased,
                )
            },
            remaining: AtomicUsize::new(tasks),
            panicked: AtomicBool::new(false),
        };
        let n = s.deques.len();
        let origin = s.cursor.fetch_add(1, Ordering::Relaxed);
        // Increment before pushing: a worker that sees empty deques with
        // `high_pending == 0` may safely park (see `Shared::high_pending`).
        s.high_pending.fetch_add(tasks - 1, Ordering::Release);
        for i in 1..tasks {
            s.deques[(origin + i) % n].lock().push_back(ChunkTask { job: &header, index: i });
        }
        {
            let _g = s.sleep.lock();
            s.wake.notify_all();
        }
        // The caller contributes task 0, then helps with whatever high
        // work remains (its own or other jobs') until its job is done.
        s.exec(ChunkTask { job: &header, index: 0 });
        while header.remaining.load(Ordering::Acquire) != 0 {
            if let Some(t) = s.try_steal(None) {
                s.exec(t);
            } else {
                // Every remaining task of this job is claimed and
                // executing elsewhere (see `try_steal`): sleep until a
                // completion signal, then re-check.
                let mut g = s.join_lock.lock();
                if header.remaining.load(Ordering::Acquire) == 0 {
                    break;
                }
                s.join_cv.wait(&mut g);
            }
        }
        if header.panicked.load(Ordering::Acquire) {
            panic!("a task of a parallel job panicked");
        }
    }

    /// Enqueues `job` on the low-priority class: workers dequeue in
    /// FIFO order whenever no high-priority task is available (plus the
    /// bounded anti-starvation pickup described in the [module
    /// docs](self)), so queued jobs may run concurrently on several
    /// workers when the pool is otherwise idle. Built for work a
    /// serving request wants started but must not wait for — the
    /// adaptive engine's asynchronous format conversions.
    ///
    /// A panicking job is caught and dropped (the pool survives);
    /// callers that need failure handling should catch inside the job.
    pub fn submit_low<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let s = &*self.shared;
        {
            let mut lo = s.low.lock();
            lo.queue.push_back(Box::new(job));
            s.low_queued.fetch_add(1, Ordering::Release);
        }
        let _g = s.sleep.lock();
        s.wake.notify_all();
    }

    /// Low jobs queued or currently running.
    pub fn low_pending(&self) -> usize {
        let lo = self.shared.low.lock();
        lo.queue.len() + lo.running
    }

    /// Blocks until the low-priority class is idle: every job submitted
    /// before this call has finished and the queue is empty. Tests and
    /// deterministic benches use this as the barrier between "requests
    /// issued" and "all background admissions landed".
    pub fn quiesce(&self) {
        let s = &*self.shared;
        let mut lo = s.low.lock();
        while !lo.queue.is_empty() || lo.running > 0 {
            s.low_idle.wait(&mut lo);
        }
        // Invariant: `low_queued` mirrors `low.queue.len()` under the
        // `low` lock, so an idle class must read zero here.
        debug_assert_eq!(
            s.low_queued.load(Ordering::Acquire),
            0,
            "low class idle but low_queued counter nonzero"
        );
    }

    /// A snapshot of cumulative scheduling counters. Counters are
    /// updated with relaxed ordering as tasks complete; a snapshot
    /// taken while the relevant class is quiet (e.g. after
    /// [`ThreadPool::quiesce`] for `low_tasks`, or with no `run_tasks`
    /// call in flight for `high_tasks`) is exact.
    pub fn stats(&self) -> PoolStats {
        let s = &self.shared.stats;
        // In debug builds the snapshot is taken under `last_snapshot`'s
        // lock so consecutive snapshots are totally ordered and the
        // monotonicity assertion below cannot race itself.
        #[cfg(debug_assertions)]
        let mut last = s.last_snapshot.lock();
        let snap = PoolStats {
            high_tasks: s.high_tasks.load(Ordering::Relaxed),
            low_tasks: s.low_tasks.load(Ordering::Relaxed),
            steals: s.steals.load(Ordering::Relaxed),
            parks: s.parks.load(Ordering::Relaxed),
        };
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                snap.high_tasks >= last.high_tasks
                    && snap.low_tasks >= last.low_tasks
                    && snap.steals >= last.steals
                    && snap.parks >= last.parks,
                "PoolStats went backwards: {snap:?} after {:?}",
                *last
            );
            *last = snap;
        }
        snap
    }

    /// Splits `0..n_items` into `threads()` contiguous chunks and runs
    /// `f(chunk_range)` for each non-empty chunk, concurrently.
    pub fn parallel_chunks<F>(&self, n_items: usize, f: F)
    where
        F: Fn(std::ops::Range<usize>) + Sync,
    {
        if n_items == 0 {
            return;
        }
        let t = self.threads;
        self.run_tasks(t, |ci| {
            let lo = ci * n_items / t;
            let hi = (ci + 1) * n_items / t;
            if lo < hi {
                f(lo..hi);
            }
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        let s = &*self.shared;
        s.shutdown.store(true, Ordering::Release);
        // Discard queued low jobs; a running one finishes on its worker
        // (its captured state may hold resources that must drop there).
        {
            let mut lo = s.low.lock();
            lo.queue.clear();
            s.low_queued.store(0, Ordering::Release);
        }
        {
            let _g = s.sleep.lock();
            s.wake.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // With every worker joined and no `run_tasks` caller possible
        // (`&mut self`), the high class must be fully drained and the
        // counter reconciled with the (empty) deques.
        debug_assert!(
            s.deques.iter().all(|d| d.lock().is_empty()),
            "worker deques non-empty after shutdown join"
        );
        debug_assert_eq!(
            s.high_pending.load(Ordering::Acquire),
            0,
            "high_pending counter nonzero after all workers joined"
        );
    }
}

fn worker_loop(w: usize, shared: &Shared) {
    // Consecutive high tasks since this worker last ran a low job.
    let mut since_low: u32 = 0;
    loop {
        // Anti-starvation: under continuous high load, periodically
        // divert to one low task (bounded: skipped while another low
        // task runs anywhere, so serves lose at most one worker).
        if since_low >= LOW_SERVICE_INTERVAL
            && shared.low_queued.load(Ordering::Acquire) > 0
            && shared.try_run_low(true)
        {
            since_low = 0;
            continue;
        }
        // Priority order: own deque, then steal, then low work.
        if let Some(t) = shared.pop_own(w) {
            shared.exec(t);
            since_low = since_low.saturating_add(1);
            continue;
        }
        if let Some(t) = shared.try_steal(Some(w)) {
            shared.exec(t);
            since_low = since_low.saturating_add(1);
            continue;
        }
        if shared.try_run_low(false) {
            since_low = 0;
            continue;
        }
        // Nothing anywhere: park. Submitters bump the pending counters
        // *before* notifying under `sleep`, so re-checking them under
        // the same lock cannot miss a wakeup.
        let mut g = shared.sleep.lock();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if shared.high_pending.load(Ordering::Acquire) == 0
            && shared.low_queued.load(Ordering::Acquire) == 0
        {
            shared.stats.parks.fetch_add(1, Ordering::Relaxed);
            shared.wake.wait(&mut g);
        } else {
            // Counters say work exists but the scans found none: a
            // submitter is mid-publish (it bumps the counter before
            // pushing). Give way briefly instead of re-scanning hot —
            // and under the model checker this marks the retry loop as
            // a voluntary spin, which keeps bounded exploration from
            // pinning it into a false livelock.
            drop(g);
            thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_tasks_executes_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        pool.run_tasks(64, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_tasks_zero_is_noop_and_one_runs_inline() {
        let pool = ThreadPool::new(4);
        pool.run_tasks(0, |_| panic!("must not be called"));
        let counter = AtomicU64::new(0);
        pool.run_tasks(1, |i| {
            assert_eq!(i, 0);
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn borrows_local_data_mutably_via_disjoint_chunks() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0u64; 1000];
        let base = data.as_mut_ptr() as usize;
        pool.parallel_chunks(1000, |range| {
            for i in range {
                // SAFETY: `base` points at `data`, which outlives the
                // `parallel_chunks` join below; `parallel_chunks` hands
                // each index `i` to exactly one task (chunks partition
                // `0..1000`), so no two writes alias and no reference
                // to `data` is formed while the tasks write.
                unsafe { *(base as *mut u64).add(i) = i as u64 };
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn parallel_chunks_covers_all_items_exactly_once() {
        let pool = ThreadPool::new(3);
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        pool.parallel_chunks(100, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn more_threads_than_items() {
        let pool = ThreadPool::new(16);
        let counter = AtomicU64::new(0);
        pool.parallel_chunks(3, |range| {
            counter.fetch_add(range.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn zero_items_is_a_no_op() {
        let pool = ThreadPool::new(4);
        pool.parallel_chunks(0, |_range| panic!("must not be called"));
    }

    #[test]
    fn single_thread_pool_works_and_zero_threads_clamps() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        let counter = AtomicU64::new(0);
        pool.run_tasks(5, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn spmv_threads_env_overrides_with_all_cores() {
        // Serialized within this one test to avoid env races: set,
        // observe, clear, observe. Edition 2021: set_var is safe.
        std::env::set_var("SPMV_THREADS", "3");
        assert_eq!(ThreadPool::with_all_cores().threads(), 3);
        std::env::set_var("SPMV_THREADS", "0");
        assert_eq!(ThreadPool::with_all_cores().threads(), 1, "clamped to >= 1");
        std::env::set_var("SPMV_THREADS", "not-a-number");
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(ThreadPool::with_all_cores().threads(), cores, "garbage falls back");
        std::env::remove_var("SPMV_THREADS");
        assert_eq!(ThreadPool::with_all_cores().threads(), cores);
    }

    #[test]
    fn pool_survives_many_sequential_jobs() {
        let pool = ThreadPool::new(4);
        let counter = AtomicU64::new(0);
        for _ in 0..1000 {
            pool.run_tasks(4, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(4);
        drop(pool); // must not hang
    }

    #[test]
    fn concurrent_jobs_from_many_clients_interleave_correctly() {
        // The work-stealing point: concurrent parallel jobs share the
        // pool at task granularity. Every client's every task must run
        // exactly once — no lost or double-run tasks under contention.
        let pool = ThreadPool::new(2);
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        pool.run_tasks(8, |_| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4 * 50 * 8);
    }

    #[test]
    fn low_jobs_all_run_and_quiesce_is_a_barrier() {
        let pool = ThreadPool::new(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..10 {
            let log = Arc::clone(&log);
            pool.submit_low(move || log.lock().push(i));
        }
        pool.quiesce();
        let mut ran = log.lock().clone();
        ran.sort_unstable();
        assert_eq!(ran, (0..10).collect::<Vec<_>>(), "every job ran exactly once");
        assert_eq!(pool.low_pending(), 0);
        assert_eq!(pool.stats().low_tasks, 10);
    }

    #[test]
    fn parked_low_class_does_not_block_parallel_jobs() {
        // Gate jobs hold every worker in the low class; parallel jobs
        // must still complete because the caller self-executes and the
        // high class owns strict priority on any worker that frees up.
        let pool = ThreadPool::new(2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        for _ in 0..pool.threads() {
            let gate = Arc::clone(&gate);
            pool.submit_low(move || {
                let (lock, cv) = &*gate;
                let mut open = lock.lock();
                while !*open {
                    cv.wait(&mut open);
                }
            });
        }
        let counter = AtomicU64::new(0);
        for _ in 0..20 {
            pool.run_tasks(4, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 80);
        assert_eq!(pool.low_pending(), 2, "both gate jobs still running");
        let (lock, cv) = &*gate;
        *lock.lock() = true;
        cv.notify_all();
        pool.quiesce();
    }

    #[test]
    fn panicking_low_job_does_not_kill_the_pool() {
        let pool = ThreadPool::new(1);
        let ran = Arc::new(AtomicU64::new(0));
        pool.submit_low(|| panic!("boom"));
        {
            let ran = Arc::clone(&ran);
            pool.submit_low(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.quiesce();
        assert_eq!(ran.load(Ordering::Relaxed), 1, "pool survived the panic");
    }

    #[test]
    fn drop_with_queued_low_jobs_does_not_hang() {
        let pool = ThreadPool::new(1);
        for _ in 0..100 {
            pool.submit_low(std::thread::yield_now);
        }
        drop(pool); // queued jobs discarded, running one joined
    }

    #[test]
    fn task_panic_propagates_instead_of_hanging() {
        let pool = ThreadPool::new(4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_tasks(8, |i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err(), "run_tasks must re-raise the task panic");
        // The pool stays usable for subsequent jobs.
        let counter = AtomicU64::new(0);
        pool.run_tasks(4, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn stats_count_tasks_per_class() {
        let pool = ThreadPool::new(2);
        let s0 = pool.stats();
        assert_eq!((s0.high_tasks, s0.low_tasks, s0.steals), (0, 0, 0), "fresh pool ran nothing");
        pool.run_tasks(8, |_| {});
        assert_eq!(pool.stats().high_tasks, 8);
        pool.submit_low(|| {});
        pool.submit_low(|| {});
        pool.quiesce();
        let s = pool.stats();
        assert_eq!(s.high_tasks, 8);
        assert_eq!(s.low_tasks, 2);
    }

    /// The starvation regression the priority design must survive:
    /// a low-priority job completes while high-priority jobs
    /// continuously saturate every worker. High pressure is sustained
    /// *until* the low job lands (so there is never an idle window to
    /// sneak through), bounded by a generous round cap. Deterministic:
    /// no sleeps or timing assumptions, just the cap.
    #[test]
    fn low_job_completes_under_continuous_high_saturation() {
        let pool = ThreadPool::new(2);
        let done = Arc::new(AtomicBool::new(false));
        {
            let done = Arc::clone(&done);
            pool.submit_low(move || done.store(true, Ordering::Release));
        }
        // `stop` (set only once the verdict is in) keeps the load
        // threads from outliving the scope if the cap trips.
        let stop = Arc::new(AtomicBool::new(false));
        let cap = 200_000usize;
        let mut starved = false;
        std::thread::scope(|s| {
            for _ in 0..3 {
                let stop = Arc::clone(&stop);
                let pool = &pool;
                s.spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        pool.run_tasks(8, |_| std::hint::spin_loop());
                    }
                });
            }
            let mut rounds = 0usize;
            while !done.load(Ordering::Acquire) {
                rounds += 1;
                if rounds > cap {
                    starved = true;
                    break;
                }
                pool.run_tasks(8, |_| std::hint::spin_loop());
            }
            stop.store(true, Ordering::Release);
        });
        assert!(
            !starved,
            "low job did not complete within {cap} saturating serve rounds — \
             the anti-starvation pickup never fired"
        );
        assert!(done.load(Ordering::Acquire));
    }
}
