//! Feature-based storage-format selection.
//!
//! The paper motivates its dataset partly as fuel for the format-
//! selection literature it surveys (\[3\]–\[11\]): given a matrix's
//! structural features, predict which storage format will run SpMV
//! fastest on a given device. This module provides a deliberately
//! transparent baseline — a k-nearest-neighbor vote in normalized
//! feature space — together with the evaluation metrics that
//! literature reports (top-1 accuracy and fraction-of-optimal
//! throughput).
//!
//! The feature vector mirrors the paper's five features: log footprint,
//! log average row length, log(1+skew), cross-row similarity and
//! neighbor count (the latter two scaled up so a full swing weighs
//! about as much as a decade of footprint).

use serde::{Deserialize, Serialize};

/// The five paper features of one matrix, as a selector input.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectorFeatures {
    /// Memory footprint in MB (f1).
    pub footprint_mb: f64,
    /// Average nonzeros per row (f2).
    pub avg_nnz_per_row: f64,
    /// Skew coefficient (f3).
    pub skew: f64,
    /// Cross-row similarity in `[0, 1]` (f4.a).
    pub cross_row_sim: f64,
    /// Average number of neighbors in `[0, 2]` (f4.b).
    pub avg_num_neigh: f64,
}

impl SelectorFeatures {
    fn embed(&self) -> [f64; 5] {
        [
            self.footprint_mb.max(1e-3).ln(),
            self.avg_nnz_per_row.max(0.25).ln(),
            (1.0 + self.skew.max(0.0)).ln(),
            3.0 * self.cross_row_sim,
            3.0 * self.avg_num_neigh,
        ]
    }
}

fn dist2(a: &[f64; 5], b: &[f64; 5]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// One labeled training observation: the features of a matrix and the
/// format that won on it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Observation {
    /// The matrix's features.
    pub features: SelectorFeatures,
    /// Name of the fastest format for this matrix on the target device.
    pub best_format: String,
}

/// One labeled throughput measurement, the raw material selector
/// training digests: a campaign produces one run per
/// (matrix, format) pair and [`best_observations`] reduces them to one
/// [`Observation`] per matrix. The type is deliberately free of any
/// campaign dependency so every producer of measurements (device
/// models, real benchmarks, imported CSVs) can feed the same trainer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledRun {
    /// Identifier grouping runs of the same matrix.
    pub matrix_id: String,
    /// The matrix's features (identical across the matrix's runs).
    pub features: SelectorFeatures,
    /// Storage-format name of this run.
    pub format: String,
    /// Measured/modeled throughput (GFLOP/s); failed runs should be
    /// omitted or carry 0.0 and are never picked as winners over a
    /// positive alternative.
    pub gflops: f64,
}

/// What selector training reads of one (matrix, format) measurement.
/// [`LabeledRun`] is the owned form; a producer whose records already
/// hold these four things implements this on a view of them, so
/// training — which runs at every engine boot, over thousands of runs
/// of which it keeps one per matrix — copies no strings.
pub trait Run {
    /// Identifier grouping runs of the same matrix.
    fn matrix_id(&self) -> &str;
    /// The matrix's features.
    fn features(&self) -> SelectorFeatures;
    /// Storage-format name of this run.
    fn format(&self) -> &str;
    /// Throughput in GFLOP/s.
    fn gflops(&self) -> f64;
}

impl Run for LabeledRun {
    fn matrix_id(&self) -> &str {
        &self.matrix_id
    }
    fn features(&self) -> SelectorFeatures {
        self.features
    }
    fn format(&self) -> &str {
        &self.format
    }
    fn gflops(&self) -> f64 {
        self.gflops
    }
}

/// Reduces per-(matrix, format) runs to one labeled observation per
/// matrix: the format with the highest throughput wins (ties break
/// lexicographically by format name for determinism). Matrices whose
/// runs all lack a finite positive throughput are dropped — NaN and
/// infinite values (possible in imported measurement files) never win.
pub fn best_observations<R: Run>(runs: &[R]) -> Vec<Observation> {
    use std::collections::btree_map::{BTreeMap, Entry};
    let mut best: BTreeMap<&str, &R> = BTreeMap::new();
    for r in runs {
        if !r.gflops().is_finite() || r.gflops() <= 0.0 {
            continue;
        }
        match best.entry(r.matrix_id()) {
            Entry::Vacant(slot) => {
                slot.insert(r);
            }
            Entry::Occupied(mut slot) => {
                let b = *slot.get();
                if (b.gflops(), r.format()) < (r.gflops(), b.format()) {
                    slot.insert(r);
                }
            }
        }
    }
    best.into_values()
        .map(|r| Observation { features: r.features(), best_format: r.format().to_string() })
        .collect()
}

/// Convenience: [`best_observations`] followed by [`FormatSelector::fit`].
pub fn fit_from_runs<R: Run>(runs: &[R], k: usize) -> FormatSelector {
    FormatSelector::fit(&best_observations(runs), k)
}

/// Errors raised while deserializing a portable selector model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelParseError {
    /// 1-based line where parsing failed.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ModelParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "selector model line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ModelParseError {}

/// A k-nearest-neighbor format selector for one device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FormatSelector {
    k: usize,
    embedded: Vec<([f64; 5], String)>,
}

impl FormatSelector {
    /// Fits a selector on labeled observations. `k` is clamped to
    /// `1..=observations.len()` (so a fitted selector always satisfies
    /// the invariant [`from_portable`](Self::from_portable) enforces);
    /// an empty training set is allowed but then
    /// [`recommend`](Self::recommend) returns `None`.
    pub fn fit(observations: &[Observation], k: usize) -> Self {
        Self {
            k: k.clamp(1, observations.len().max(1)),
            embedded: observations
                .iter()
                .map(|o| (o.features.embed(), o.best_format.clone()))
                .collect(),
        }
    }

    /// Number of stored training observations.
    pub fn len(&self) -> usize {
        self.embedded.len()
    }

    /// `true` when no observations were stored.
    pub fn is_empty(&self) -> bool {
        self.embedded.is_empty()
    }

    /// The neighbor count `k` the selector votes over.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Serializes the fitted model to a portable line-oriented text
    /// format (`f64` values print in Rust's shortest-round-trip form,
    /// so [`FormatSelector::from_portable`] reconstructs them exactly).
    /// Labels may contain spaces but must not contain line breaks.
    pub fn to_portable(&self) -> String {
        let mut out = String::from("spmv-selector v1\n");
        out.push_str(&format!("k {}\n", self.k));
        for (e, label) in &self.embedded {
            out.push_str(&format!("obs {} {} {} {} {} {label}\n", e[0], e[1], e[2], e[3], e[4]));
        }
        out
    }

    /// Parses a model serialized by [`FormatSelector::to_portable`].
    pub fn from_portable(text: &str) -> Result<Self, ModelParseError> {
        let err = |line: usize, message: &str| ModelParseError { line, message: message.into() };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, "spmv-selector v1")) => {}
            _ => return Err(err(1, "expected header `spmv-selector v1`")),
        }
        let k = match lines.next() {
            Some((_, l)) if l.starts_with("k ") => {
                l[2..].parse::<usize>().map_err(|e| err(2, &format!("bad k: {e}")))?
            }
            _ => return Err(err(2, "expected `k <count>`")),
        };
        let mut embedded = Vec::new();
        for (i, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            // Split on single spaces so the trailing label field may
            // itself contain spaces (labels are arbitrary strings).
            let fields: Vec<&str> = line.splitn(7, ' ').collect();
            if fields.len() != 7 || fields[0] != "obs" || fields[6].is_empty() {
                return Err(err(i + 1, "expected `obs <5 floats> <label>`"));
            }
            let mut e = [0.0f64; 5];
            for (slot, field) in e.iter_mut().zip(&fields[1..6]) {
                *slot = field.parse().map_err(|e| err(i + 1, &format!("bad float: {e}")))?;
                // A NaN embedding would poison every distance it takes
                // part in (`total_cmp` orders it after all numbers, so
                // the observation silently never votes); an infinity
                // makes dist2 overflow to inf for every probe. Neither
                // can come from `to_portable` of a fitted model, so
                // both are corruption, not data.
                if !slot.is_finite() {
                    return Err(err(i + 1, &format!("non-finite feature {field:?}")));
                }
            }
            embedded.push((e, fields[6].to_string()));
        }
        if k == 0 {
            return Err(err(2, "k must be at least 1"));
        }
        if k > embedded.len().max(1) {
            return Err(err(
                2,
                &format!("k {k} exceeds the {} stored observations", embedded.len()),
            ));
        }
        Ok(Self { k, embedded })
    }

    /// Recommends a format for the given features by majority vote of
    /// the `k` nearest training matrices (ties break toward the
    /// nearest neighbor's vote; exact distance ties order by label, so
    /// the recommendation is invariant under training-set permutation).
    pub fn recommend(&self, features: &SelectorFeatures) -> Option<&str> {
        if self.embedded.is_empty() {
            return None;
        }
        let probe = features.embed();
        // One pass keeping the k nearest, sorted by (distance, label),
        // in a buffer that lives on the stack for every realistic k:
        // this runs on the first-touch path of every admitted matrix.
        const INLINE_K: usize = 8;
        let mut inline = [(0.0f64, ""); INLINE_K];
        let mut spilled = Vec::new();
        let nearest: &mut [(f64, &str)] = if self.k <= INLINE_K {
            &mut inline[..self.k]
        } else {
            spilled.resize(self.k, (0.0, ""));
            &mut spilled
        };
        let closer = |a: &(f64, &str), b: &(f64, &str)| {
            a.0.total_cmp(&b.0).then_with(|| a.1.cmp(b.1)).is_lt()
        };
        let mut held = 0usize;
        for (e, fmt) in &self.embedded {
            let entry = (dist2(e, &probe), fmt.as_str());
            if held == nearest.len() {
                if !closer(&entry, &nearest[held - 1]) {
                    continue;
                }
                held -= 1; // the farthest neighbor drops out
            }
            let mut at = held;
            while at > 0 && closer(&entry, &nearest[at - 1]) {
                nearest[at] = nearest[at - 1];
                at -= 1;
            }
            nearest[at] = entry;
            held += 1;
        }
        let nearest = &nearest[..held];

        // Majority vote; the strict `>` keeps, among formats with equal
        // counts, the one whose first vote came from the closest
        // neighbor.
        let mut winner: Option<(&str, usize)> = None;
        for (i, &(_, fmt)) in nearest.iter().enumerate() {
            if nearest[..i].iter().any(|&(_, seen)| seen == fmt) {
                continue;
            }
            let votes = nearest[i..].iter().filter(|&&(_, f)| f == fmt).count();
            if winner.is_none_or(|(_, most)| votes > most) {
                winner = Some((fmt, votes));
            }
        }
        winner.map(|(fmt, _)| fmt)
    }
}

/// Evaluation result of a selector on a labeled test set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectorScore {
    /// Fraction of test matrices where the recommendation was exactly
    /// the fastest format.
    pub top1_accuracy: f64,
    /// Mean of (recommended format's GFLOPs / best format's GFLOPs) —
    /// the metric that matters for end-to-end performance.
    pub fraction_of_optimal: f64,
    /// Number of test matrices evaluated.
    pub n: usize,
}

/// Evaluates recommendations against per-format measurements.
///
/// `candidates` holds, per test matrix, its features and the measured
/// `(format, gflops)` alternatives; matrices whose recommended format
/// was not measured count as misses with zero throughput fraction.
pub fn evaluate(
    selector: &FormatSelector,
    candidates: &[(SelectorFeatures, Vec<(String, f64)>)],
) -> SelectorScore {
    let mut hits = 0usize;
    let mut frac = 0.0f64;
    let mut n = 0usize;
    for (features, options) in candidates {
        let Some((best_fmt, best_gf)) =
            options.iter().max_by(|a, b| a.1.total_cmp(&b.1)).map(|(f, g)| (f.as_str(), *g))
        else {
            continue;
        };
        n += 1;
        if let Some(rec) = selector.recommend(features) {
            if rec == best_fmt {
                hits += 1;
            }
            if let Some((_, g)) = options.iter().find(|(f, _)| f == rec) {
                if best_gf > 0.0 {
                    frac += g / best_gf;
                }
            }
        }
    }
    SelectorScore {
        top1_accuracy: if n > 0 { hits as f64 / n as f64 } else { 0.0 },
        fraction_of_optimal: if n > 0 { frac / n as f64 } else { 0.0 },
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(fp: f64, avg: f64, skew: f64) -> SelectorFeatures {
        SelectorFeatures {
            footprint_mb: fp,
            avg_nnz_per_row: avg,
            skew,
            cross_row_sim: 0.5,
            avg_num_neigh: 0.5,
        }
    }

    fn obs(fp: f64, avg: f64, skew: f64, fmt: &str) -> Observation {
        Observation { features: feat(fp, avg, skew), best_format: fmt.into() }
    }

    #[test]
    fn recommends_the_local_winner() {
        // Small matrices -> "CSR", big skewed ones -> "Merge".
        let train = vec![
            obs(1.0, 20.0, 0.0, "CSR"),
            obs(2.0, 25.0, 0.0, "CSR"),
            obs(4.0, 15.0, 0.0, "CSR"),
            obs(500.0, 5.0, 1000.0, "Merge"),
            obs(800.0, 6.0, 5000.0, "Merge"),
            obs(900.0, 4.0, 800.0, "Merge"),
        ];
        let sel = FormatSelector::fit(&train, 3);
        assert_eq!(sel.recommend(&feat(2.5, 18.0, 0.0)), Some("CSR"));
        assert_eq!(sel.recommend(&feat(700.0, 5.0, 2000.0)), Some("Merge"));
    }

    #[test]
    fn k_larger_than_training_set_is_fine() {
        let train = vec![obs(1.0, 10.0, 0.0, "A")];
        let sel = FormatSelector::fit(&train, 100);
        assert_eq!(sel.recommend(&feat(50.0, 3.0, 10.0)), Some("A"));
    }

    #[test]
    fn empty_selector_returns_none() {
        let sel = FormatSelector::fit(&[], 5);
        assert!(sel.is_empty());
        assert_eq!(sel.recommend(&feat(1.0, 1.0, 0.0)), None);
    }

    #[test]
    fn tie_breaks_toward_nearest() {
        let train = vec![obs(1.0, 10.0, 0.0, "NEAR"), obs(100.0, 10.0, 0.0, "FAR")];
        let sel = FormatSelector::fit(&train, 2);
        // Both vote once; the closer observation's label wins.
        assert_eq!(sel.recommend(&feat(1.1, 10.0, 0.0)), Some("NEAR"));
    }

    #[test]
    fn evaluation_metrics() {
        let train = vec![obs(1.0, 10.0, 0.0, "A"), obs(1000.0, 10.0, 0.0, "B")];
        let sel = FormatSelector::fit(&train, 1);
        let tests = vec![
            // Recommended A, A is best -> hit, fraction 1.
            (feat(1.2, 10.0, 0.0), vec![("A".into(), 10.0), ("B".into(), 5.0)]),
            // Recommended B, A is best -> miss, fraction 0.8.
            (feat(900.0, 10.0, 0.0), vec![("A".into(), 10.0), ("B".into(), 8.0)]),
        ];
        let score = evaluate(&sel, &tests);
        assert_eq!(score.n, 2);
        assert!((score.top1_accuracy - 0.5).abs() < 1e-12);
        assert!((score.fraction_of_optimal - 0.9).abs() < 1e-12);
    }

    #[test]
    fn best_observations_reduce_runs_per_matrix() {
        let run = |id: &str, fmt: &str, gf: f64| LabeledRun {
            matrix_id: id.into(),
            features: feat(1.0, 10.0, 0.0),
            format: fmt.into(),
            gflops: gf,
        };
        let runs = vec![
            run("m0", "CSR", 5.0),
            run("m0", "Merge", 7.0),
            run("m0", "ELL", f64::NAN), // NaN never wins over a real run
            run("m0", "HYB", f64::INFINITY), // non-finite imports never win
            run("m1", "CSR", 3.0),
            run("m1", "Merge", 3.0),    // exact tie -> lexicographic: "CSR"
            run("m2", "ELL", 0.0),      // all non-positive -> dropped
            run("m3", "ELL", f64::NAN), // all non-finite -> dropped
        ];
        let obs = best_observations(&runs);
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].best_format, "Merge");
        assert_eq!(obs[1].best_format, "CSR");
        let sel = fit_from_runs(&runs, 1);
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn portable_serialization_round_trips_exactly() {
        let train = vec![
            obs(1.0, 20.0, 0.0, "CSR"),
            obs(0.123_456_789_012_345_68, 3.0, 777.25, "Merge"),
            obs(1e-12, 1e9, 1e-9, "SELL-C-s"),
            obs(2.5, 7.0, 3.0, "cuSPARSE HYB v11"), // labels may contain spaces
        ];
        let sel = FormatSelector::fit(&train, 3);
        let text = sel.to_portable();
        let back = FormatSelector::from_portable(&text).unwrap();
        assert_eq!(back.k(), sel.k());
        assert_eq!(back.len(), sel.len());
        // Bit-exact embeddings: identical recommendations everywhere.
        for probe in [feat(0.5, 10.0, 1.0), feat(2e8, 1.0, 0.0), feat(1e-9, 1e8, 1e-8)] {
            assert_eq!(sel.recommend(&probe), back.recommend(&probe));
        }
        assert_eq!(back.to_portable(), text, "serialization is a fixed point");
    }

    #[test]
    fn portable_parse_rejects_malformed_input() {
        assert!(FormatSelector::from_portable("").is_err());
        assert!(FormatSelector::from_portable("wrong header\nk 1\n").is_err());
        assert!(FormatSelector::from_portable("spmv-selector v1\nk x\n").is_err());
        let bad_obs = "spmv-selector v1\nk 1\nobs 1 2 3 CSR\n";
        let e = FormatSelector::from_portable(bad_obs).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("line 3"));
        let bad_float = "spmv-selector v1\nk 1\nobs 1 2 three 4 5 CSR\n";
        assert!(FormatSelector::from_portable(bad_float).is_err());
    }

    /// Non-finite embeddings parse as valid `f64`s but poison every
    /// distance computation, and a `k` inconsistent with the record
    /// count can never come from `to_portable` — all must be typed
    /// parse errors, not silently-wrong models.
    #[test]
    fn portable_parse_rejects_non_finite_and_inconsistent_k() {
        let cases: &[(&str, &str)] = &[
            ("spmv-selector v1\nk 1\nobs NaN 2 3 4 5 CSR\n", "NaN feature"),
            ("spmv-selector v1\nk 1\nobs 1 inf 3 4 5 CSR\n", "inf feature"),
            ("spmv-selector v1\nk 1\nobs 1 2 -inf 4 5 CSR\n", "-inf feature"),
            ("spmv-selector v1\nk 1\nobs 1 2 3 4 1e999 CSR\n", "overflowing literal"),
            ("spmv-selector v1\nk 0\nobs 1 2 3 4 5 CSR\n", "k of zero"),
            ("spmv-selector v1\nk 0\n", "k of zero on an empty model"),
            ("spmv-selector v1\nk 2\nobs 1 2 3 4 5 CSR\n", "k above the record count"),
        ];
        for (text, what) in cases {
            assert!(FormatSelector::from_portable(text).is_err(), "{what} must be rejected");
        }
        // `k 1` with zero observations is the fixed point of
        // `fit(&[], _)` and stays accepted.
        let empty = FormatSelector::from_portable("spmv-selector v1\nk 1\n").unwrap();
        assert!(empty.is_empty());
        // `fit` clamps instead of erroring, so every fitted selector
        // round-trips through the stricter parser.
        let sel = FormatSelector::fit(&[obs(1.0, 10.0, 0.0, "A")], 100);
        assert_eq!(sel.k(), 1);
        assert_eq!(FormatSelector::from_portable(&sel.to_portable()).unwrap().k(), 1);
    }

    /// The one-pass k-nearest buffer against the definition it
    /// replaced: sort every observation by (distance, label), take k,
    /// vote nearest-first — on both sides of the inline-buffer size and
    /// with duplicated points, so exact distance ties occur.
    #[test]
    fn one_pass_recommendation_equals_the_full_sort_vote() {
        let labels = ["A", "B", "C", "D"];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut train = Vec::new();
        for i in 0..60 {
            let o = obs(0.01 + 50.0 * next(), 1.0 + 100.0 * next(), 500.0 * next(), labels[i % 4]);
            train.push(o.clone());
            if i % 5 == 0 {
                train.push(Observation { best_format: labels[(i + 1) % 4].into(), ..o });
            }
        }
        for k in [1, 2, 3, 8, 9, 20, train.len()] {
            let sel = FormatSelector::fit(&train, k);
            for _ in 0..40 {
                let probe = feat(0.01 + 50.0 * next(), 1.0 + 100.0 * next(), 500.0 * next());
                let p = probe.embed();
                let mut all: Vec<(f64, &str)> =
                    sel.embedded.iter().map(|(e, f)| (dist2(e, &p), f.as_str())).collect();
                all.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(b.1)));
                all.truncate(k);
                let count = |f: &str| all.iter().filter(|(_, g)| *g == f).count();
                let most = all.iter().map(|(_, f)| count(f)).max().unwrap();
                let want = all.iter().map(|&(_, f)| f).find(|f| count(f) == most);
                assert_eq!(sel.recommend(&probe), want, "k = {k}");
            }
        }
        // A training point itself is a distance tie between its two labels.
        let sel = FormatSelector::fit(&train, 1);
        assert_eq!(sel.recommend(&train[0].features), Some("A"));
    }

    #[test]
    fn feature_embedding_is_scale_sensible() {
        // A decade of footprint moves the embedding about as much as a
        // full cross-row-similarity swing.
        let base = SelectorFeatures { cross_row_sim: 0.0, ..feat(1.0, 10.0, 0.0) };
        let a = base.embed();
        let b = SelectorFeatures { footprint_mb: 10.0, ..base }.embed();
        let c = SelectorFeatures { cross_row_sim: 1.0, ..base }.embed();
        let d_fp = dist2(&a, &b).sqrt();
        let d_crs = dist2(&a, &c).sqrt();
        assert!((d_fp / d_crs - 1.0).abs() < 0.4, "{d_fp} vs {d_crs}");
    }
}
