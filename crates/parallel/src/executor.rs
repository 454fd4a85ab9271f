//! The shared parallel execution layer all storage formats run on.
//!
//! Every SpMV kernel in `spmv-formats` decomposes the same way: split
//! some index space (rows, SELL chunks) into contiguous chunk tasks and
//! let each task produce the output rows it *owns*. Before this module
//! existed each format hand-rolled that dance with its own pool call
//! and its own raw-pointer writes; the [`Executor`] centralizes it
//! behind two patterns, each of which spawns its chunks as independent
//! tasks on the work-stealing scheduler ([`ThreadPool::run_tasks`]) and
//! joins them — except on a pool of one, where the single chunk is the
//! whole schedule and the kernel runs on the caller directly (same
//! result bits: one chunk's partial reduces to itself):
//!
//! * [`Executor::run_disjoint`] (and its fused-dot twin
//!   [`Executor::run_disjoint_reduce`]) — one task per [`Schedule`]
//!   chunk, each writing a disjoint set of output rows
//!   ([`DisjointWriter`]);
//! * [`Executor::for_each_chunk_mut`] — a safe parallel-for over
//!   disjoint sub-slices of a `&mut [T]` (per-channel replicas,
//!   reductions).
//!
//! # Soundness
//!
//! The whole layer rests on one argument, stated here once instead of
//! at every call site:
//!
//! 1. [`ThreadPool::run_tasks`] does not return until every spawned
//!    chunk task has finished, so borrowed kernel data (including the
//!    output pointer inside a [`DisjointWriter`]) outlives every use —
//!    regardless of which thread (a worker, or a concurrent caller
//!    helping out) ends up executing a given task.
//! 2. The executor hands each task a chunk of a [`Partition`], and
//!    partitions are disjoint by construction — no two tasks receive
//!    overlapping ranges.
//! 3. The *kernel contract*: a kernel passed to [`Executor::run_disjoint`]
//!    or [`Executor::run_disjoint_reduce`] may read and write only
//!    output rows owned by its chunk, under a map from chunks to row
//!    sets that is injective across chunks (identity for row-chunked
//!    kernels, HYB's COO tail included; `perm`-translated for
//!    SELL-C-σ).
//!
//! Note what is *not* required: exclusive use of the pool. Several
//! executors (and raw `run_tasks` callers) may run concurrently — their
//! chunk tasks interleave on the workers, but each job's writer is
//! only reachable from that job's own tasks.
//!
//! (1) + (2) are guaranteed by this crate; (3) is the single obligation
//! left to format authors, and the one thing to check when reviewing a
//! new kernel.

use crate::blas1::{tree_reduce, MAX_REDUCE_CHUNKS};
use crate::partition::Partition;
use crate::pool::ThreadPool;
use std::ops::Range;

/// A view that lets concurrent workers write *disjoint* elements of a
/// shared `f64` output vector without locking.
///
/// The writer holds the `&mut` borrow of the output slice for its
/// entire lifetime (via the `'y` parameter), so safe code can neither
/// free nor re-borrow the buffer while a writer exists — dangling
/// writers are unrepresentable. It is deliberately not `Clone`: one
/// writer exists per parallel region and workers share it by
/// reference. The remaining obligation is the kernel contract in the
/// [module docs](self): concurrent users must touch disjoint indices.
/// All executor entry points hand workers disjoint chunks, so a kernel
/// that honors its chunk ownership can never race.
pub struct DisjointWriter<'y> {
    ptr: usize,
    len: usize,
    _borrow: std::marker::PhantomData<&'y mut [f64]>,
}

impl<'y> DisjointWriter<'y> {
    /// Wraps an output slice, holding its exclusive borrow for the
    /// writer's lifetime.
    pub fn new(y: &'y mut [f64]) -> Self {
        Self { ptr: y.as_mut_ptr() as usize, len: y.len(), _borrow: std::marker::PhantomData }
    }

    /// Length of the wrapped slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wrapped slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `val` to `y[i]`. The caller must own index `i` (see the
    /// kernel contract in the [module docs](self)).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds (checked in release builds too —
    /// an unchecked write here would be UB reachable from safe code).
    #[inline]
    pub fn write(&self, i: usize, val: f64) {
        assert!(i < self.len, "DisjointWriter index {i} out of bounds (len {})", self.len);
        // SAFETY: `ptr` came from the `&'y mut [f64]` this writer still
        // borrows (the buffer cannot be freed or re-borrowed while it
        // exists), `i < len` was just asserted, and the kernel contract
        // in the module docs makes the caller the sole owner of index
        // `i` in this parallel region — so the write is in-bounds and
        // unaliased.
        unsafe { *(self.ptr as *mut f64).add(i) = val };
    }

    /// Reads `y[i]`. The caller must own index `i` (see the kernel
    /// contract in the [module docs](self)).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds (checked in release builds too).
    #[inline]
    pub fn read(&self, i: usize) -> f64 {
        assert!(i < self.len, "DisjointWriter index {i} out of bounds (len {})", self.len);
        // SAFETY: same argument as `write` — live borrow, asserted
        // bounds, and exclusive ownership of index `i` under the kernel
        // contract: no other task writes `y[i]` while this one reads it.
        unsafe { *(self.ptr as *const f64).add(i) }
    }

    /// Adds `val` to `y[i]`. The caller must own index `i` (see the
    /// kernel contract in the [module docs](self)).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds (checked in release builds too).
    #[inline]
    pub fn add(&self, i: usize, val: f64) {
        self.write(i, self.read(i) + val);
    }
}

/// How an index space is split across workers.
#[derive(Debug, Clone, Copy)]
pub enum Schedule<'a> {
    /// Equal-count contiguous chunks over `0..items` — the OpenMP
    /// `schedule(static)` default (Naive-CSR, Vectorized-CSR).
    Static {
        /// Number of items to split.
        items: usize,
    },
    /// Equal-count contiguous chunks whose interior boundaries are
    /// rounded down to a multiple of `align` — for lane-blocked
    /// kernels (ELL/HYB slabs processing W rows per SIMD block), so
    /// partial blocks occur only at the very end of the index space,
    /// not at every chunk seam.
    StaticAligned {
        /// Number of items to split.
        items: usize,
        /// Boundary alignment (the kernel's lane-block size).
        align: usize,
    },
    /// Weight-balanced contiguous chunks over `0..prefix.len()-1`,
    /// boundaries chosen on the cumulative-weight array (Balanced-CSR
    /// with `row_ptr`, SELL-C-σ with `chunk_ptr`).
    Balanced {
        /// Cumulative weights: `prefix[0] == 0`, non-decreasing,
        /// `prefix.len() == items + 1`.
        prefix: &'a [usize],
    },
}

impl Schedule<'_> {
    /// Number of items the schedule splits.
    ///
    /// # Panics
    /// Panics if a `Balanced` prefix is empty.
    fn items(&self) -> usize {
        match *self {
            Schedule::Static { items } | Schedule::StaticAligned { items, .. } => items,
            Schedule::Balanced { prefix } => {
                prefix.len().checked_sub(1).expect("prefix must have at least one element")
            }
        }
    }

    /// Materializes the schedule into `chunks` contiguous ranges.
    fn partition(&self, chunks: usize) -> Partition {
        match *self {
            Schedule::Static { items } => Partition::static_rows(items, chunks),
            Schedule::StaticAligned { items, align } => {
                Partition::static_rows_aligned(items, chunks, align)
            }
            Schedule::Balanced { prefix } => Partition::balanced_by_prefix(prefix, chunks),
        }
    }
}

/// The shared executor: a thin handle over a [`ThreadPool`] offering
/// the two work-distribution patterns the storage formats need. See
/// the [module docs](self) for the soundness argument.
pub struct Executor<'p> {
    pool: &'p ThreadPool,
}

impl<'p> Executor<'p> {
    /// Wraps a pool.
    pub fn new(pool: &'p ThreadPool) -> Self {
        Self { pool }
    }

    /// Number of workers (= chunks every schedule is split into).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Runs `f(chunk_offset, chunk)` over disjoint contiguous sub-slices
    /// of `data`, one chunk task per worker. Entirely safe for callers:
    /// each task receives an exclusive `&mut [T]`.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let n = data.len();
        if n == 0 {
            return;
        }
        let base = data.as_mut_ptr() as usize;
        let t = self.threads();
        self.pool.run_tasks(t, |ci| {
            let lo = ci * n / t;
            let hi = (ci + 1) * n / t;
            if lo < hi {
                let base = base as *mut T;
                // SAFETY: tasks receive non-overlapping [lo, hi)
                // ranges of `data` (soundness point 2 in the module
                // docs), and `run_tasks` keeps the backing slice alive
                // until every task returns (point 1).
                let chunk = unsafe { std::slice::from_raw_parts_mut(base.add(lo), hi - lo) };
                f(lo, chunk);
            }
        });
    }

    /// Runs `f(range, writer)` once per schedule chunk, concurrently.
    /// The kernel must write only the output rows its chunk owns (the
    /// kernel contract in the [module docs](self)); for row-chunked
    /// formats that is exactly `range`, for permuted formats the image
    /// of `range` under an injective row map.
    pub fn run_disjoint<F>(&self, schedule: Schedule<'_>, y: &mut [f64], f: F)
    where
        F: Fn(Range<usize>, &DisjointWriter<'_>) + Sync,
    {
        let out = DisjointWriter::new(y);
        if self.threads() == 1 {
            // One chunk: the whole schedule, on the caller, with no
            // partition to build and nothing to hand the pool.
            let all = 0..schedule.items();
            if !all.is_empty() {
                f(all, &out);
            }
            return;
        }
        let partition = schedule.partition(self.threads());
        self.pool.run_tasks(partition.chunks(), |ci| {
            let range = partition.range(ci);
            if !range.is_empty() {
                f(range, &out);
            }
        });
    }

    /// Like [`run_disjoint`](Self::run_disjoint), but each chunk task
    /// additionally returns an `f64` partial, and the partials are
    /// combined with the fixed-shape pairwise tree of [`crate::blas1`]
    /// — the entry point for fused SpMV + dot kernels, which produce
    /// `y = A·x` and a reduction over `y` from the same sweep.
    ///
    /// The chunk count is capped at [`MAX_REDUCE_CHUNKS`] so the
    /// partials stay in a stack array (no per-call allocation), and at
    /// a fixed thread count the chunking — and therefore the bit
    /// pattern of the result — is fixed. Empty chunks contribute
    /// `0.0` without invoking the kernel.
    pub fn run_disjoint_reduce<F>(&self, schedule: Schedule<'_>, y: &mut [f64], f: F) -> f64
    where
        F: Fn(Range<usize>, &DisjointWriter<'_>) -> f64 + Sync,
    {
        let chunks = self.threads().clamp(1, MAX_REDUCE_CHUNKS);
        if chunks == 1 {
            // One partial reduces to itself.
            let all = 0..schedule.items();
            return if all.is_empty() { 0.0 } else { f(all, &DisjointWriter::new(y)) };
        }
        let partition = schedule.partition(chunks);
        let mut partials = [0.0f64; MAX_REDUCE_CHUNKS];
        {
            let out = DisjointWriter::new(y);
            let parts = DisjointWriter::new(&mut partials[..chunks]);
            self.pool.run_tasks(chunks, |ci| {
                let range = partition.range(ci);
                let p = if range.is_empty() { 0.0 } else { f(range, &out) };
                parts.write(ci, p);
            });
        }
        tree_reduce(&partials[..chunks])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_disjoint_static_covers_all_rows() {
        let pool = ThreadPool::new(4);
        let exec = Executor::new(&pool);
        let mut y = vec![f64::NAN; 101];
        exec.run_disjoint(Schedule::Static { items: 101 }, &mut y, |range, out| {
            for i in range {
                out.write(i, i as f64);
            }
        });
        assert!(y.iter().enumerate().all(|(i, &v)| v == i as f64));
    }

    #[test]
    fn run_disjoint_static_aligned_covers_all_rows() {
        let pool = ThreadPool::new(4);
        let exec = Executor::new(&pool);
        let mut y = vec![f64::NAN; 101];
        exec.run_disjoint(
            Schedule::StaticAligned { items: 101, align: 8 },
            &mut y,
            |range, out| {
                assert!(range.start % 8 == 0 || range.start == 0);
                for i in range {
                    out.write(i, i as f64);
                }
            },
        );
        assert!(y.iter().enumerate().all(|(i, &v)| v == i as f64));
    }

    #[test]
    fn run_disjoint_balanced_respects_prefix() {
        let pool = ThreadPool::new(3);
        let exec = Executor::new(&pool);
        // Weights 0,0,10,0,0,10 over 6 rows.
        let prefix = vec![0usize, 0, 0, 10, 10, 10, 20];
        let mut y = vec![f64::NAN; 6];
        exec.run_disjoint(Schedule::Balanced { prefix: &prefix }, &mut y, |range, out| {
            for i in range {
                out.write(i, 1.0);
            }
        });
        assert_eq!(y, vec![1.0; 6]);
    }

    #[test]
    fn run_disjoint_reduce_writes_rows_and_sums_partials() {
        for threads in [1usize, 2, 4, 16] {
            let pool = ThreadPool::new(threads);
            let exec = Executor::new(&pool);
            let mut y = vec![f64::NAN; 101];
            let total =
                exec.run_disjoint_reduce(Schedule::Static { items: 101 }, &mut y, |range, out| {
                    let mut p = 0.0;
                    for i in range {
                        out.write(i, i as f64);
                        p += i as f64;
                    }
                    p
                });
            assert!(y.iter().enumerate().all(|(i, &v)| v == i as f64), "threads {threads}");
            assert_eq!(total, (0..101).sum::<usize>() as f64, "threads {threads}");
        }
    }

    #[test]
    fn run_disjoint_reduce_is_reproducible_at_fixed_threads() {
        let pool = ThreadPool::new(4);
        let exec = Executor::new(&pool);
        let vals: Vec<f64> = (0..2048).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut y = vec![0.0; 2048];
        let run = |y: &mut [f64]| {
            exec.run_disjoint_reduce(Schedule::Static { items: 2048 }, y, |range, out| {
                let mut p = 0.0;
                for i in range {
                    out.write(i, vals[i]);
                    p += vals[i] * vals[i];
                }
                p
            })
        };
        let first = run(&mut y);
        for _ in 0..20 {
            assert_eq!(run(&mut y), first);
        }
    }

    #[test]
    fn a_pool_of_one_runs_the_whole_schedule_on_the_caller_and_submits_nothing() {
        let pool = ThreadPool::new(1);
        let exec = Executor::new(&pool);
        let before = pool.stats();
        let caller = std::thread::current().id();
        let on_caller = |range: &Range<usize>, n: usize| {
            assert_eq!(*range, 0..n, "one chunk covers the schedule");
            assert_eq!(std::thread::current().id(), caller);
        };

        let prefix = [0usize, 3, 3, 9, 10];
        for (schedule, n) in [
            (Schedule::Static { items: 7 }, 7),
            (Schedule::StaticAligned { items: 7, align: 4 }, 7),
            (Schedule::Balanced { prefix: &prefix }, 4),
        ] {
            let mut y = vec![f64::NAN; n];
            exec.run_disjoint(schedule, &mut y, |range, out| {
                on_caller(&range, n);
                range.for_each(|i| out.write(i, i as f64));
            });
            assert!(y.iter().enumerate().all(|(i, &v)| v == i as f64));
            // The partial comes back as the kernel returned it, not
            // re-summed (`0.0 + -0.0` would lose the sign).
            for want in [0.1 + 0.2, -0.0] {
                let partial = exec.run_disjoint_reduce(schedule, &mut y, |range, _| {
                    on_caller(&range, n);
                    want
                });
                assert_eq!(partial.to_bits(), want.to_bits());
            }
        }
        for empty in [Schedule::Static { items: 0 }, Schedule::Balanced { prefix: &[0] }] {
            exec.run_disjoint(empty, &mut [], |_, _| panic!("must not be called"));
            let partial = exec.run_disjoint_reduce(empty, &mut [], |_, _| panic!("nor this"));
            assert_eq!(partial, 0.0);
        }

        let after = pool.stats();
        assert_eq!(
            (after.high_tasks, after.low_tasks, after.steals),
            (before.high_tasks, before.low_tasks, before.steals),
            "no task reached the scheduler"
        );
    }

    #[test]
    fn for_each_chunk_mut_gives_exclusive_subslices() {
        let pool = ThreadPool::new(4);
        let exec = Executor::new(&pool);
        let mut data = vec![0u64; 1000];
        exec.for_each_chunk_mut(&mut data, |offset, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (offset + i) as u64;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn disjoint_writer_roundtrip() {
        let mut y = vec![0.0; 4];
        let w = DisjointWriter::new(&mut y);
        assert_eq!(w.len(), 4);
        assert!(!w.is_empty());
        w.write(1, 5.0);
        w.add(1, 2.5);
        assert_eq!(w.read(1), 7.5);
        assert_eq!(y[1], 7.5);
    }
}
