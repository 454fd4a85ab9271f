//! The one timer of the bench binaries: paired, interleaved rounds.
//!
//! A **trial** is a set of named [`Side`]s, each a closure doing one
//! unit of the work being compared. It runs `R` rounds; each round
//! visits every side once, the order rotated by one side per round, so
//! a burst of neighbour load falls on different sides in different
//! rounds and every side leads in turn. A visit runs its side a fixed
//! number of times back to back — the batch, found once in a warm-up as
//! the smallest power of two whose visit lasts [`MIN_VISIT_S`] — and
//! records seconds per call. A pass of several sides, one per operand
//! of a set, is cache-cold: its visits batch only to
//! [`MIN_COLD_VISIT_S`], so that an operand's calls do not run back to
//! back on a warm cache.
//!
//! A trial reports its rounds ([`Rounds`]): per side the median and
//! IQR over the rounds, per ratio of two sides ([`Ratio`]) the median
//! of the per-round ratios, their IQR, the rounds the second side won,
//! and the ratio of the two sides' fastest rounds — the min-of-N
//! statistic, derived from the same rounds. A round's ratio is taken
//! within the round, so a busy minute that slows both sides cancels;
//! the fastest rounds of two sides may come from different minutes.

use crate::report::{obj, round3, Json};
use spmv_analysis::stats::BoxStats;
use std::time::Instant;

/// A visit lasts at least this long, so that a round's sample of a
/// sub-millisecond kernel is the mean of many calls, not one. On the
/// reference host, in an A/A trial of the SpMM bench (both sides the
/// same `k` SpMVs, its 165 cells at k ≤ 3, 7 rounds), 2 ms visits cut
/// the median cell's IQR of per-round ratios from 0.065 to 0.046; the
/// clock reads around a visit (44–88 ns) alone would need 20 µs.
pub const MIN_VISIT_S: f64 = 2e-3;

/// A visit in a pass of a cache-cold set lasts at least this long, so
/// that the two clock reads around it (44–88 ns on the reference host)
/// stay under half a percent.
pub const MIN_COLD_VISIT_S: f64 = 20e-6;

/// The largest batch a warm-up grows to.
const MAX_BATCH: usize = 1 << 20;

/// One side of a trial: a name and the call it times.
pub struct Side<'a> {
    name: String,
    call: Box<dyn FnMut() + 'a>,
}

/// The side `name` that times `call`.
pub fn side<'a>(name: impl Into<String>, call: impl FnMut() + 'a) -> Side<'a> {
    Side { name: name.into(), call: Box::new(call) }
}

/// Runs `sides` in `rounds` rounds in passes of `per_pass` consecutive
/// sides: round `r` starts at pass `r mod passes`, and a pass visits its
/// sides in their order. With one side per pass every side leads in
/// turn; a pass of one side per operand of a set revisits an operand
/// only after the rest of the set streamed through the cache.
pub fn run(rounds: usize, per_pass: usize, mut sides: Vec<Side<'_>>) -> Rounds {
    assert!(rounds > 0 && per_pass > 0, "a trial runs at least one round of one side");
    assert!(
        sides.len().is_multiple_of(per_pass),
        "{} sides do not fill passes of {per_pass}",
        sides.len()
    );
    let min_visit = if per_pass == 1 { MIN_VISIT_S } else { MIN_COLD_VISIT_S };
    let batch: Vec<usize> = sides.iter_mut().map(|s| batch_of(&mut *s.call, min_visit)).collect();
    let passes = sides.len() / per_pass;
    let mut secs = vec![vec![0.0; sides.len()]; rounds];
    for (r, row) in secs.iter_mut().enumerate() {
        for p in 0..passes {
            let first = (r + p) % passes * per_pass;
            for s in first..first + per_pass {
                row[s] = visit(&mut *sides[s].call, batch[s]);
            }
        }
    }
    Rounds::from_secs(sides.into_iter().map(|s| s.name).collect(), secs)
}

/// Seconds per call of `batch` calls back to back.
fn visit(call: &mut dyn FnMut(), batch: usize) -> f64 {
    let t = Instant::now();
    for _ in 0..batch {
        call();
    }
    t.elapsed().as_secs_f64() / batch as f64
}

/// The warm-up: one call, then batches doubling until a visit lasts
/// `min_visit` seconds.
fn batch_of(call: &mut dyn FnMut(), min_visit: f64) -> usize {
    call();
    let mut batch = 1;
    while batch < MAX_BATCH && visit(call, batch) * (batch as f64) < min_visit {
        batch *= 2;
    }
    batch
}

/// What a trial measured: seconds per call, per round and side.
#[derive(Debug, Clone)]
pub struct Rounds {
    names: Vec<String>,
    /// `secs[round][side]`.
    secs: Vec<Vec<f64>>,
}

/// The per-round ratios of two sides' seconds, `slow / fast`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Quartiles of the per-round ratios.
    pub rounds: BoxStats,
    /// Rounds in which `fast` took less time than `slow`.
    pub faster: usize,
    /// The fastest round of `slow` over the fastest round of `fast`.
    pub of_fastest: f64,
}

impl Ratio {
    /// The ratio as a record stores it: the median of the per-round
    /// ratios (what the gates judge), their IQR, the rounds `fast` won
    /// of all, and the ratio of the fastest rounds.
    pub fn json(&self) -> Json {
        obj([
            ("median", round3(self.rounds.median).into()),
            ("iqr", round3(self.rounds.iqr()).into()),
            ("faster", format!("{} of {}", self.faster, self.rounds.count).into()),
            ("ratio_of_fastest", round3(self.of_fastest).into()),
        ])
    }
}

impl Rounds {
    /// The statistics of a `rounds × sides` matrix of seconds per call.
    fn from_secs(names: Vec<String>, secs: Vec<Vec<f64>>) -> Self {
        assert!(!secs.is_empty(), "a trial has at least one round");
        assert!(secs.iter().all(|r| r.len() == names.len()), "one column per side");
        Rounds { names, secs }
    }

    fn index(&self, name: &str) -> usize {
        let at = self.names.iter().position(|n| n == name);
        at.unwrap_or_else(|| panic!("no side {name:?} in {:?}", self.names))
    }

    fn column(&self, name: &str) -> Vec<f64> {
        let s = self.index(name);
        self.secs.iter().map(|round| round[s]).collect()
    }

    /// Quartiles of side `name`'s seconds per call over the rounds.
    pub fn side(&self, name: &str) -> BoxStats {
        BoxStats::from_values(&self.column(name)).expect("every round timed every side")
    }

    /// The per-round ratios `slow / fast`: above 1 where `fast` won.
    pub fn ratio(&self, slow: &str, fast: &str) -> Ratio {
        let (a, b) = (self.column(slow), self.column(fast));
        let ratios: Vec<f64> = a.iter().zip(&b).map(|(a, b)| a / b).collect();
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        Ratio {
            rounds: BoxStats::from_values(&ratios).expect("every round timed every side"),
            faster: ratios.iter().filter(|&&r| r > 1.0).count(),
            of_fastest: min(&a) / min(&b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::hint::black_box;

    /// Rounds of two sides, `a` and `b`, by hand: `b` wins rounds 0, 1
    /// and 3, and the fastest rounds of the two are different rounds.
    fn hand_built() -> Rounds {
        Rounds::from_secs(
            vec!["a".into(), "b".into()],
            vec![vec![4.0, 2.0], vec![3.0, 2.0], vec![2.0, 4.0], vec![6.0, 3.0], vec![5.0, 5.0]],
        )
    }

    #[test]
    fn a_side_reads_its_median_and_iqr() {
        let a = hand_built().side("a");
        assert_eq!((a.median, a.q1, a.q3, a.iqr()), (4.0, 3.0, 5.0, 2.0));
        assert_eq!(hand_built().side("b").median, 3.0);
    }

    #[test]
    fn a_ratio_is_the_median_of_the_per_round_ratios() {
        // Per round a / b: 2, 1.5, 0.5, 2, 1. The ratio of the medians
        // (4 / 3) is not a round's ratio at all.
        let r = hand_built().ratio("a", "b");
        assert_eq!((r.rounds.median, r.rounds.q1, r.rounds.q3), (1.5, 1.0, 2.0));
        assert_eq!(hand_built().ratio("b", "a").rounds.median, 1.0 / 1.5);
    }

    #[test]
    fn faster_counts_the_rounds_the_second_side_won() {
        let r = hand_built().ratio("a", "b");
        assert_eq!(r.faster, 3);
        assert!(r.json().render().contains(r#""faster": "3 of 5""#), "{}", r.json().render());
        // A tie is no win for either side.
        assert_eq!(hand_built().ratio("b", "a").faster, 1);
    }

    #[test]
    fn ratio_of_fastest_is_min_of_n_of_the_same_samples() {
        let rounds = hand_built();
        let min = |s: &str| rounds.side(s).min;
        assert_eq!(min("a"), 2.0);
        assert_eq!(min("b"), 2.0);
        let r = rounds.ratio("a", "b");
        assert_eq!(r.of_fastest, min("a") / min("b"));
        assert_eq!(r.of_fastest, 1.0);
    }

    /// Busy-waits `secs`.
    fn spin(secs: f64) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < secs {
            black_box(());
        }
    }

    /// The visits of a trial of sides that spin `cost` seconds each:
    /// `(side, calls)` runs of the call log, the warm-up's dropped. Its
    /// last side is not round 0's first, so their runs do not merge.
    fn visits(rounds: usize, cost: &[f64]) -> Vec<(usize, usize)> {
        let log = RefCell::new(Vec::new());
        let sides = (0..cost.len())
            .map(|s| {
                let log = &log;
                let c = cost[s];
                side(format!("s{s}"), move || {
                    spin(c);
                    log.borrow_mut().push(s);
                })
            })
            .collect();
        run(rounds, 1, sides);
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for s in log.into_inner() {
            match runs.last_mut() {
                Some((last, n)) if *last == s => *n += 1,
                _ => runs.push((s, 1)),
            }
        }
        runs.split_off(runs.len() - rounds * cost.len())
    }

    #[test]
    fn every_round_visits_each_side_once_starting_one_side_later() {
        let runs = visits(7, &[1e-3; 3]);
        for (r, round) in runs.chunks(3).enumerate() {
            let mut order: Vec<usize> = round.iter().map(|&(s, _)| s).collect();
            assert_eq!(order[0], r % 3, "round {r} starts at {order:?}");
            order.sort();
            assert_eq!(order, [0, 1, 2], "round {r}");
        }
    }

    #[test]
    fn a_short_side_is_batched_alike_in_every_round() {
        // Three sides: with two, one round's last visit and the next
        // round's first are the same side, and their runs merge.
        let runs = visits(5, &[30e-6, 3e-3, 3e-3]);
        let batch = |s: usize| runs.iter().find(|r| r.0 == s).expect("visited").1;
        assert!(batch(0) > 1 && batch(1) == 1, "{runs:?}");
        for &(s, calls) in &runs {
            assert_eq!(calls, batch(s), "side {s} in {runs:?}");
        }
    }

    #[test]
    fn batched_timing_grows_with_the_work() {
        let secs = |n: usize| {
            let v = vec![1.0f64; n];
            let rounds =
                run(3, 1, vec![side("sum", || _ = black_box(black_box(&v).iter().sum::<f64>()))]);
            rounds.side("sum").median
        };
        let (small, large) = (secs(64), secs(64 * 1024));
        assert!(small > 0.0 && large > 50.0 * small, "{small} vs {large}");
    }

    #[test]
    fn passes_keep_their_order_and_rotate_whole() {
        let log = RefCell::new(Vec::new());
        let sides = (0..6)
            .map(|s| {
                let log = &log;
                side(format!("s{s}"), move || {
                    spin(30e-6);
                    log.borrow_mut().push(s);
                })
            })
            .collect();
        run(2, 3, sides);
        // One call per visit: a 30 µs side of a cold pass is not batched.
        let log = log.into_inner();
        assert_eq!(&log[log.len() - 12..], [0, 1, 2, 3, 4, 5, 3, 4, 5, 0, 1, 2]);
    }
}
