//! The four single-vector [`SparseFormat`](crate::SparseFormat) entry
//! points of the kernel-layer formats, written once over a kernel
//! [`View`]: operand checks, the output writer, and the executor entry
//! point the schedule runs on. A format's own methods are one call each.

use crate::kernels::View;
use spmv_parallel::{DisjointWriter, Executor, Schedule, ThreadPool};

/// Panics unless `x` and `y` fit the view.
pub(crate) fn check_operands(view: &impl View, x: &[f64], y: &[f64]) {
    assert_eq!(x.len(), view.cols());
    assert_eq!(y.len(), view.rows());
}

fn check_square(view: &impl View, x: &[f64], y: &[f64]) {
    assert_eq!(view.rows(), view.cols(), "spmv_dot requires a square matrix");
    check_operands(view, x, y);
}

/// `y = A·x`, sequentially.
pub(crate) fn spmv(view: &impl View, x: &[f64], y: &mut [f64]) {
    check_operands(view, x, y);
    view.run::<false>(0..view.units(), x, &DisjointWriter::new(y));
}

/// `y = A·x` over `pool`, the view's units split by `schedule`.
pub(crate) fn spmv_parallel(
    view: &(impl View + Sync),
    schedule: Schedule<'_>,
    pool: &ThreadPool,
    x: &[f64],
    y: &mut [f64],
) {
    check_operands(view, x, y);
    Executor::new(pool).run_disjoint(schedule, y, |units, out| {
        view.run::<false>(units, x, out);
    });
}

/// `y = A·x` and `x · y` from one sequential sweep.
pub(crate) fn spmv_dot(view: &impl View, x: &[f64], y: &mut [f64]) -> f64 {
    check_square(view, x, y);
    view.run::<true>(0..view.units(), x, &DisjointWriter::new(y))
}

/// `y = A·x` and `x · y` from one sweep over `pool`; the per-chunk
/// partials are reduced in the executor's fixed tree.
pub(crate) fn spmv_dot_parallel(
    view: &(impl View + Sync),
    schedule: Schedule<'_>,
    pool: &ThreadPool,
    x: &[f64],
    y: &mut [f64],
) -> f64 {
    check_square(view, x, y);
    Executor::new(pool)
        .run_disjoint_reduce(schedule, y, |units, out| view.run::<true>(units, x, out))
}
