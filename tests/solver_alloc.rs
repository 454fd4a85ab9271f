//! The solver tier's "preallocate every operand vector" claim,
//! counter-verified: a counting `#[global_allocator]` watches one
//! warmed-up `SolveHandle::cg` end to end — the executor's workers
//! included — and the solve must perform **zero** heap allocations, at
//! pool widths 1 (the one-chunk fast path) and 4. Its own test binary:
//! the counter is process-wide, nothing may run beside the armed solve.

use spmv_suite::engine::{Engine, EngineConfig};
use spmv_suite::gen::structured::stencil_2d;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Allocation counter for the zero-allocation gate: delegates to the
/// system allocator and, while armed, counts every `alloc` call from
/// any thread (the executor's workers included — that is the point).
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

// SAFETY: pure delegation to `System`; the counter is a relaxed atomic
// with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s layout contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout contract as the caller's; the system
        // allocator upholds GlobalAlloc's requirements.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller passes a pointer this allocator returned, with
    // the layout it was allocated under.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` above with this
        // exact layout (we never substitute allocators mid-flight).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_warmed_up_cg_solve_allocates_nothing() {
    let a = stencil_2d(64, 0.0, 0.0);
    let b: Vec<f64> = (0..a.rows()).map(|i| 1.0 + ((i * 7) % 11) as f64 * 0.25).collect();
    for threads in [1, 4] {
        let engine = Engine::new(EngineConfig { threads, ..EngineConfig::default() })
            .expect("the committed host table parses");
        let mut handle = engine.solver("poisson", &a);
        // Warm up: the first solves grow the executor's task queues to
        // their steady-state capacity.
        for _ in 0..2 {
            handle.cg(&b, 1e-8, 10_000).expect("warmup converges");
        }
        ALLOC_CALLS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        let out = handle.cg(&b, 1e-8, 10_000);
        ARMED.store(false, Ordering::SeqCst);
        let allocs = ALLOC_CALLS.load(Ordering::SeqCst);
        let out = out.expect("measured solve converges");
        assert!(out.converged && out.iterations > 50, "{out:?}");
        assert_eq!(allocs, 0, "the solver hot loop allocated at pool width {threads}: {out:?}");
    }
}
