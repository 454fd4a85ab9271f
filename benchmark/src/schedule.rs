//! Seeded request schedules: everything random in a workload derives
//! from `--seed` through the generator's SplitMix64 mixer, so the same
//! seed replays the same requests.

use spmv_gen::rng::child_seed;

/// Uniform draw in `[0, 1)` number `n` of stream `seed` (53 mantissa
/// bits). Stateless, so any position of a schedule can be recomputed.
pub fn uniform(seed: u64, n: u64) -> f64 {
    (child_seed(seed, n) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Zipf(s) sampler over `n` ranks by inverse CDF; rank 0 is hottest.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over no ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Zipf exponent of every hot mix (as `serve_throughput` uses).
pub const ZIPF_S: f64 = 1.1;

/// Requests per cold block: one first touch, `FOLLOW_UPS` follow-ups,
/// `HOT_DRAWS` hot draws.
pub const FOLLOW_UPS: usize = 7;
pub const HOT_DRAWS: usize = 8;
pub const BLOCK_REQUESTS: usize = 1 + FOLLOW_UPS + HOT_DRAWS;

/// Block `n` of the cold schedule: the first touch of cold id `n`, one
/// request to each of the ids `n-1 … n-7` that exist, and eight Zipf
/// draws from the hot set. Every cold id is therefore served exactly
/// eight times — once cold, seven times over the next seven blocks —
/// and then left to the LRU.
#[derive(Debug, PartialEq)]
pub struct Block {
    pub first: u64,
    pub follow: Vec<u64>,
    pub hot: [usize; HOT_DRAWS],
}

pub fn cold_block(seed: u64, n: u64, zipf: &Zipf) -> Block {
    Block {
        first: n,
        follow: (1..=FOLLOW_UPS as u64).filter_map(|d| n.checked_sub(d)).collect(),
        hot: std::array::from_fn(|j| {
            zipf.sample(uniform(seed ^ 0xC01D, n * HOT_DRAWS as u64 + j as u64))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(130, ZIPF_S);
        let mut counts = [0usize; 130];
        for n in 0..20_000 {
            counts[z.sample(uniform(1, n))] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[100]);
        assert_eq!(z.sample(0.0), 0);
        assert_eq!(z.sample(1.0), 129);
    }

    #[test]
    fn schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let z = Zipf::new(130, ZIPF_S);
        let run = |seed| (0..200).map(|n| cold_block(seed, n, &z)).collect::<Vec<_>>();
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
        let zipf_run = |seed| (0..500).map(|n| z.sample(uniform(seed, n))).collect::<Vec<_>>();
        assert_eq!(zipf_run(7), zipf_run(7));
        assert_ne!(zipf_run(7), zipf_run(8));
    }

    #[test]
    fn every_cold_id_is_served_eight_times() {
        let z = Zipf::new(10, ZIPF_S);
        let mut served = [0usize; 100];
        for n in 0..100 {
            let b = cold_block(3, n, &z);
            served[b.first as usize] += 1;
            for f in b.follow {
                served[f as usize] += 1;
            }
        }
        // Ids whose seven follow-up blocks all ran (the last seven
        // blocks' ids are cut short by the end of the run).
        assert!(served[..93].iter().all(|&c| c == 1 + FOLLOW_UPS), "{served:?}");
        assert_eq!(cold_block(3, 0, &z).follow, Vec::<u64>::new());
        assert_eq!(cold_block(3, 2, &z).follow, vec![1, 0]);
    }
}
