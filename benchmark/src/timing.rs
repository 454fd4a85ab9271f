//! Timing of one repeated call, for the layer probes.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A timed batch shorter than this is dominated by the timer.
const MIN_BATCH: Duration = Duration::from_micros(50);

/// Median seconds per call of `f`: one untimed warm-up call, then
/// `reps` timed batches. A call shorter than `MIN_BATCH` is timed in
/// batches of as many calls as fill it, so nanosecond-scale calls are
/// not measured one timer tick at a time. Results pass through
/// `black_box`, so the compiler cannot delete the measured work.
pub fn per_call<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut f = move || drop(black_box(f()));
    let t = Instant::now();
    f();
    let one = t.elapsed().max(Duration::from_nanos(1));
    let batch = (MIN_BATCH.as_nanos() / one.as_nanos()).clamp(1, 100_000) as usize;
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&times)
}

/// Seconds `f` takes, once.
pub fn once<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_calls_are_batched_and_time_grows_with_work() {
        let work = |n: u64| move || (0..n).fold(0u64, |a, i| a ^ black_box(i));
        let small = per_call(5, work(100));
        let large = per_call(5, work(100_000));
        assert!(small > 0.0 && large > 20.0 * small, "small {small} large {large}");
        let (v, secs) = once(|| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
    }
}
