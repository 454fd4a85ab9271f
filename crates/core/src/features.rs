//! The paper's five-feature set (§III-A) plus auxiliary structure
//! statistics.
//!
//! | label | feature | bottleneck captured |
//! |-------|---------|---------------------|
//! | f1    | `mem_footprint_mb`   | memory-bandwidth intensity |
//! | f2    | `avg_nnz_per_row`    | low ILP |
//! | f3    | `skew_coeff`         | load imbalance |
//! | f4.a  | `cross_row_sim`      | memory latency (temporal locality on `x`) |
//! | f4.b  | `avg_num_neigh`      | memory latency (spatial locality on `x`) |
//!
//! Definitions follow §III-A.4 exactly:
//!
//! * the **neighbors** of a nonzero are the *same-row* nonzeros at
//!   column distance exactly 1 (left or right), so each nonzero has
//!   0, 1 or 2 neighbors and the average lies in `[0, 2]`;
//! * the **cross-row neighbors** of a nonzero in row *r* are the
//!   nonzeros of row *r + 1* at column distance ≤ 1; the cross-row
//!   similarity is the fraction of a row's nonzeros that have at least
//!   one cross-row neighbor, averaged across all non-empty rows that
//!   have a successor row.
//!
//! # Cost
//!
//! [`FeatureSet::extract`] is exact and costs one to two SpMVs over the
//! same operand (`BENCH_extract.json`). Everything but f4.a is a sweep
//! of `row_ptr` plus one flat, vectorizable pass over `col_idx`. f4.a —
//! which rows of a pair share a column neighbourhood — is the only
//! data-dependent part, and it is counted by **mark and probe**: the
//! columns of row *r + 1* are set in a table, every column `c` of row
//! *r* tests `c − 1 ..= c + 1` with loads that do not depend on one
//! another, and the marks are cleared again. The table is per-thread,
//! grow-only scratch of one byte per column, all-zero between calls; it
//! is only used while it is no larger than the column-index array being
//! read (`mark_table_bytes`). When the column space dwarfs the nonzeros
//! the sorted two-pointer merge `count_with_cross_neighbor` counts
//! instead — the definition the mark-and-probe kernel is tested
//! against, kept whole in [`FeatureSet::extract_reference`].
//!
//! [`FeatureSet::estimate`] is the engine's feature pass. It keeps the
//! `row_ptr` sweep and the flat same-row neighbour pass exact, and runs
//! the row-pair kernel on a fixed, stratified sample of rows that reads
//! about [`SAMPLE_NNZ`] nonzeros, so f4.a (and `bandwidth_scaled`) stops
//! costing a pass over `col_idx`. Below `2 × SAMPLE_NNZ` nonzeros it is
//! `extract`, bit for bit.
//!
//! All three passes total their statistics in one private accumulator.
//! [`FeatureSet::extract`] and [`FeatureSet::estimate`] walk the CSR
//! arrays in place; [`FeatureSet::extract_reference`] feeds it one row
//! at a time, buffering the previous row for the merge.

use crate::matrix::csr::CsrMatrix;
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// The extracted feature vector of a sparse matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureSet {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Number of nonzeros.
    pub nnz: usize,
    /// f1 — CSR memory footprint in MB (8-byte values, 4-byte indices).
    pub mem_footprint_mb: f64,
    /// f2 — average nonzeros per row.
    pub avg_nnz_per_row: f64,
    /// Standard deviation of nonzeros per row (generator input
    /// `std_nz_row`; not itself one of the five features).
    pub std_nnz_per_row: f64,
    /// Maximum nonzeros in any row.
    pub max_nnz_per_row: usize,
    /// f3 — skew coefficient `(max - avg) / avg`.
    pub skew_coeff: f64,
    /// f4.a — cross-row similarity in `[0, 1]`.
    pub cross_row_sim: f64,
    /// f4.b — average number of same-row neighbors in `[0, 2]`.
    pub avg_num_neigh: f64,
    /// Average row bandwidth `(max_col - min_col + 1)` over non-empty
    /// rows, scaled by the number of columns (generator input
    /// `bw_scaled`).
    pub bandwidth_scaled: f64,
    /// Fraction of rows with no nonzeros.
    pub empty_row_frac: f64,
}

/// Coarse S/M/L class of a regularity subfeature, as used in Table III
/// and Fig. 6 of the paper ("the range of each regularity subfeature is
/// split in 3 equal subranges"). *Small* implies an irregular matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegularityClass {
    /// Lowest third of the subfeature range (irregular).
    Small,
    /// Middle third.
    Medium,
    /// Upper third (regular).
    Large,
}

impl RegularityClass {
    /// Classifies a value within `[lo, hi]` into equal thirds.
    pub fn classify(value: f64, lo: f64, hi: f64) -> Self {
        debug_assert!(hi > lo);
        let t = ((value - lo) / (hi - lo)).clamp(0.0, 1.0);
        if t < 1.0 / 3.0 {
            RegularityClass::Small
        } else if t < 2.0 / 3.0 {
            RegularityClass::Medium
        } else {
            RegularityClass::Large
        }
    }

    /// One-letter label as printed in the paper's tables ("S", "M", "L").
    pub fn letter(self) -> &'static str {
        match self {
            RegularityClass::Small => "S",
            RegularityClass::Medium => "M",
            RegularityClass::Large => "L",
        }
    }
}

impl FeatureSet {
    /// Extracts all features from a CSR matrix, walking its arrays in
    /// place: `O(nnz)`, one to two SpMVs' worth (see the module docs),
    /// no allocation on a thread that has extracted a matrix of at least
    /// this column count before.
    pub fn extract(csr: &CsrMatrix) -> Self {
        let (row_ptr, col_idx) = (csr.row_ptr(), csr.col_idx());
        let mut acc = FeatureAccumulator::new(csr.rows(), csr.cols());
        with_cross_kernel(csr.cols(), csr.nnz(), |kernel| {
            let mut prev: &[u32] = &[];
            for w in row_ptr.windows(2) {
                let row = &col_idx[w[0]..w[1]];
                acc.note_row(row);
                if !prev.is_empty() {
                    acc.note_pair(prev.len(), kernel.matches(prev, row));
                }
                prev = row;
            }
        });
        // Same-row neighbors, counted flat over the whole index array;
        // the adjacent pairs that straddle two rows are not neighbors.
        acc.neigh_pairs = adjacent_pairs(col_idx) - straddling_pairs(row_ptr, col_idx);
        acc.finish()
    }

    /// The engine's feature pass: [`FeatureSet::extract`] with f4.a and
    /// `bandwidth_scaled` taken from a fixed, stratified sample of rows
    /// and their successors ([`SAMPLE_NNZ`] nonzeros, about). The other
    /// fields are `extract`'s, bit for bit: f4.b stays the flat pass (it
    /// is nnz-weighted; a row sample misreads it on skewed operands).
    /// Below `2 × SAMPLE_NNZ` nonzeros it is `extract`. Deterministic.
    pub fn estimate(csr: &CsrMatrix) -> Self {
        Self::estimate_within(csr, SAMPLE_NNZ)
    }

    /// [`FeatureSet::estimate`] at a budget of `budget` sampled nonzeros.
    fn estimate_within(csr: &CsrMatrix, budget: usize) -> Self {
        let (rows, nnz) = (csr.rows(), csr.nnz());
        if nnz < 2 * budget {
            return Self::extract(csr);
        }
        let (row_ptr, col_idx) = (csr.row_ptr(), csr.col_idx());
        let mut acc = FeatureAccumulator::new(rows, csr.cols());
        // `straddling_pairs`, in the same sweep of `row_ptr`.
        let mut straddling = 0;
        for w in row_ptr.windows(2) {
            acc.note_len(w[1] - w[0]);
            straddling += usize::from(straddles(w, col_idx));
        }
        acc.neigh_pairs = adjacent_pairs(col_idx) - straddling;
        // One row per stratum, read with its successor: 2 · mean row
        // length per stratum, `budget` nonzeros in all.
        let strata = (budget * rows / (2 * nnz)).clamp(1, rows);
        with_cross_kernel(csr.cols(), nnz, |kernel| {
            for k in 0..strata {
                let r = stratum_row(k, strata, rows);
                let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
                if row.is_empty() {
                    continue;
                }
                acc.note_span(row);
                if r + 1 < rows {
                    let next = &col_idx[row_ptr[r + 1]..row_ptr[r + 2]];
                    acc.note_pair(row.len(), kernel.matches(row, next));
                }
            }
        });
        acc.finish()
    }

    /// The definitional extractor: one row at a time, cross-row
    /// neighbors counted by the sorted merge `count_with_cross_neighbor`
    /// on every row pair. Slower than [`FeatureSet::extract`] and
    /// bit-identical to it; it is what the tests and the
    /// `extract_throughput` gate compare against.
    pub fn extract_reference(csr: &CsrMatrix) -> Self {
        let mut acc = FeatureAccumulator::new(csr.rows(), csr.cols());
        for r in 0..csr.rows() {
            acc.push_row_with(csr.row(r).0, &mut CrossKernel::Merge);
        }
        acc.finish()
    }

    /// Classifies f4.a (range `[0, 1]`) into S/M/L.
    pub fn cross_row_sim_class(&self) -> RegularityClass {
        RegularityClass::classify(self.cross_row_sim, 0.0, 1.0)
    }

    /// Classifies f4.b (range `[0, 2]`) into S/M/L.
    pub fn avg_num_neigh_class(&self) -> RegularityClass {
        RegularityClass::classify(self.avg_num_neigh, 0.0, 2.0)
    }

    /// Relative feature-space distance to another feature set, used for
    /// "friend" matching in the validation experiment. Each of the five
    /// features contributes its absolute relative error (footprint and
    /// row length compared in log-space, since their ranges span orders
    /// of magnitude).
    pub fn distance(&self, other: &FeatureSet) -> f64 {
        fn rel_log(a: f64, b: f64) -> f64 {
            let (a, b) = (a.max(1e-9), b.max(1e-9));
            (a.ln() - b.ln()).abs()
        }
        fn rel_lin(a: f64, b: f64, scale: f64) -> f64 {
            (a - b).abs() / scale
        }
        rel_log(self.mem_footprint_mb, other.mem_footprint_mb)
            + rel_log(self.avg_nnz_per_row, other.avg_nnz_per_row)
            + rel_log(1.0 + self.skew_coeff, 1.0 + other.skew_coeff)
            + rel_lin(self.cross_row_sim, other.cross_row_sim, 1.0)
            + rel_lin(self.avg_num_neigh, other.avg_num_neigh, 2.0)
    }
}

/// The running statistics of one feature pass over a `rows × cols`
/// matrix; [`FeatureAccumulator::finish`] turns them into a
/// [`FeatureSet`].
pub(crate) struct FeatureAccumulator {
    rows: usize,
    cols: usize,
    nnz: usize,
    max_row: usize,
    sum_sq_row: f64,
    empty_rows: usize,
    neigh_pairs: usize,
    bw_sum: f64,
    nonempty_rows: usize,
    // Cross-row similarity state: the previous row's columns and the
    // running (matched fraction, row count) sums. A row's contribution
    // is only known once its *successor* arrives, so we buffer one row.
    prev_cols: Vec<u32>,
    crs_sum: f64,
    crs_rows: usize,
}

impl FeatureAccumulator {
    /// Starts an accumulator for a `rows × cols` matrix.
    fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            nnz: 0,
            max_row: 0,
            sum_sq_row: 0.0,
            empty_rows: 0,
            neigh_pairs: 0,
            bw_sum: 0.0,
            nonempty_rows: 0,
            prev_cols: Vec::new(),
            crs_sum: 0.0,
            crs_rows: 0,
        }
    }

    /// Consumes the next row (its sorted column indices), counting the
    /// previous row's cross-row neighbors in it with `kernel`.
    ///
    /// # Panics
    /// Panics (in debug builds) if the columns are unsorted.
    fn push_row_with(&mut self, cols: &[u32], kernel: &mut CrossKernel<'_>) {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "row columns must be sorted");
        self.note_row(cols);
        self.neigh_pairs += adjacent_pairs(cols);
        // Resolve the cross-row similarity of the *previous* row now
        // that its successor is known.
        if !self.prev_cols.is_empty() {
            self.note_pair(self.prev_cols.len(), kernel.matches(&self.prev_cols, cols));
        }
        self.prev_cols.clear();
        self.prev_cols.extend_from_slice(cols);
    }

    /// Row-length and bandwidth statistics of one row.
    fn note_row(&mut self, cols: &[u32]) {
        self.note_len(cols.len());
        if !cols.is_empty() {
            self.note_span(cols);
        }
    }

    /// Row-length statistics of a row of `len` nonzeros.
    fn note_len(&mut self, len: usize) {
        self.nnz += len;
        self.max_row = self.max_row.max(len);
        self.sum_sq_row += (len * len) as f64;
        if len == 0 {
            self.empty_rows += 1;
        }
    }

    /// Bandwidth of one non-empty row.
    fn note_span(&mut self, cols: &[u32]) {
        self.nonempty_rows += 1;
        let span = (cols[cols.len() - 1] - cols[0]) as f64 + 1.0;
        self.bw_sum += span / self.cols.max(1) as f64;
    }

    /// Cross-row similarity of one non-empty row of `len` nonzeros,
    /// `matched` of which have a cross-row neighbor in its successor.
    fn note_pair(&mut self, len: usize, matched: usize) {
        self.crs_sum += matched as f64 / len as f64;
        self.crs_rows += 1;
    }

    /// Finalizes and returns the feature set.
    fn finish(self) -> FeatureSet {
        let rows = self.rows;
        let nnz = self.nnz;
        let mean = if rows > 0 { nnz as f64 / rows as f64 } else { 0.0 };
        let var =
            if rows > 0 { (self.sum_sq_row / rows as f64 - mean * mean).max(0.0) } else { 0.0 };
        let skew = if mean > 0.0 { (self.max_row as f64 - mean) / mean } else { 0.0 };
        let footprint_bytes =
            (crate::VALUE_BYTES + crate::INDEX_BYTES) * nnz + crate::INDEX_BYTES * (rows + 1);
        FeatureSet {
            rows,
            cols: self.cols,
            nnz,
            mem_footprint_mb: footprint_bytes as f64 / (1024.0 * 1024.0),
            avg_nnz_per_row: mean,
            std_nnz_per_row: var.sqrt(),
            max_nnz_per_row: self.max_row,
            skew_coeff: skew,
            cross_row_sim: if self.crs_rows > 0 {
                self.crs_sum / self.crs_rows as f64
            } else {
                0.0
            },
            avg_num_neigh: if nnz > 0 { 2.0 * self.neigh_pairs as f64 / nnz as f64 } else { 0.0 },
            bandwidth_scaled: if self.nonempty_rows > 0 {
                self.bw_sum / self.nonempty_rows as f64
            } else {
                0.0
            },
            empty_row_frac: if rows > 0 { self.empty_rows as f64 / rows as f64 } else { 0.0 },
        }
    }
}

/// Nonzeros, about, in the rows [`FeatureSet::estimate`] samples and
/// their successors; below twice as many it extracts the whole operand.
pub const SAMPLE_NNZ: usize = 16384;

/// The row [`FeatureSet::estimate`] samples in stratum `k` of `strata`
/// equal strata of `0..rows`. A fixed scramble of `k` (the SplitMix64
/// finalizer) places it, so the sample does not fall in step with a
/// matrix's row period.
fn stratum_row(k: usize, strata: usize, rows: usize) -> usize {
    let (lo, hi) = (k * rows / strata, (k + 1) * rows / strata);
    let z = (k as u64).wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    lo + ((z ^ (z >> 31)) % (hi - lo) as u64) as usize
}

/// Same-row neighbor pairs of a sorted row: adjacent entries at column
/// distance exactly 1 (each pair gives both endpoints one neighbor).
/// Over a whole `col_idx` array this also counts the pairs that straddle
/// two rows ([`straddling_pairs`]); a descending step wraps to a
/// distance that is never 1.
fn adjacent_pairs(cols: &[u32]) -> usize {
    // Counted in `u32` lanes a chunk at a time: the loop vectorizes
    // twice as wide as a `usize` count.
    const CHUNK: usize = 1 << 16;
    let next = cols.get(1..).unwrap_or_default();
    let count = |(a, b): (&[u32], &[u32])| {
        a.iter().zip(b).map(|(c, d)| u32::from(d.wrapping_sub(*c) == 1)).sum::<u32>() as usize
    };
    cols.chunks(CHUNK).zip(next.chunks(CHUNK)).map(count).sum()
}

/// The adjacent `col_idx` pairs at distance 1 whose two entries lie in
/// different rows: a non-empty row's last column and the first column
/// of the next non-empty row.
fn straddling_pairs(row_ptr: &[usize], col_idx: &[u32]) -> usize {
    row_ptr.windows(2).filter(|w| straddles(w, col_idx)).count()
}

/// Whether the row `w[0]..w[1]` of `col_idx` ends in a pair that
/// straddles two rows: a non-empty row whose end is not the end of the
/// array, at column distance 1 from the entry that follows it.
fn straddles(w: &[usize], col_idx: &[u32]) -> bool {
    w[0] < w[1] && w[1] < col_idx.len() && col_idx[w[1]].wrapping_sub(col_idx[w[1] - 1]) == 1
}

/// How the entries of a row with a cross-row neighbor are counted.
enum CrossKernel<'a> {
    /// Mark and probe over an all-zero table of [`mark_table_bytes`].
    Marks(&'a mut [u8]),
    /// The sorted merge: no scratch, whatever the column count.
    Merge,
}

impl CrossKernel<'_> {
    /// Counts how many entries of the sorted list `row` have at least
    /// one element of the sorted list `next` within column distance 1.
    #[inline]
    fn matches(&mut self, row: &[u32], next: &[u32]) -> usize {
        match self {
            CrossKernel::Marks(marks) => mark_and_probe(marks, row, next),
            CrossKernel::Merge => count_with_cross_neighbor(row, next),
        }
    }
}

/// Bytes of the mark table for an operand of `cols` columns and `nnz`
/// nonzeros — column `d` is byte `d + 1`, and a probe of column `c`
/// loads the four bytes from `c` — or `None` when mark and probe may not
/// serve it: the table must be no larger than the column-index array it
/// is built from. A matrix of a few nonzeros in a column space of
/// billions is served by the merge and allocates nothing.
fn mark_table_bytes(cols: usize, nnz: usize) -> Option<usize> {
    let bytes = cols.checked_add(3)?;
    (bytes <= nnz.saturating_mul(crate::INDEX_BYTES)).then_some(bytes)
}

thread_local! {
    /// The thread's mark table: grow-only, all-zero whenever it is here.
    static MARKS: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` with the cross-row kernel for an operand of `cols` columns
/// and `nnz` nonzeros. The mark table leaves the thread-local for the
/// duration of `f`, so an unwinding `f` drops it, marks and all, and
/// the next call starts from a fresh zeroed table.
fn with_cross_kernel<R>(cols: usize, nnz: usize, f: impl FnOnce(&mut CrossKernel<'_>) -> R) -> R {
    let Some(bytes) = mark_table_bytes(cols, nnz) else {
        return f(&mut CrossKernel::Merge);
    };
    let mut marks = MARKS.take();
    if marks.len() < bytes {
        marks.resize(bytes, 0);
    }
    let out = f(&mut CrossKernel::Marks(&mut marks[..bytes]));
    MARKS.set(marks);
    out
}

/// [`count_with_cross_neighbor`] without the merge's carried index:
/// marks `next` in the all-zero table, probes the three bytes around
/// each column of `row`, and clears the marks again. One byte per
/// column, so marking is a plain store — no two columns share a word
/// that would have to be read back — and a probe is one load.
#[inline]
fn mark_and_probe(marks: &mut [u8], row: &[u32], next: &[u32]) -> usize {
    let (Some(&first), Some(&last)) = (next.first(), next.last()) else { return 0 };
    for &d in next {
        marks[d as usize + 1] = 1;
    }
    let mut matched = 0;
    for &c in row {
        // Bytes c ..= c + 2 are columns c − 1 ..= c + 1 (byte 0 is no
        // column); the fourth byte loaded is masked off.
        let c = c as usize;
        let around: [u8; 4] = marks[c..c + 4].try_into().expect("a four-byte slice");
        matched += usize::from(u32::from_le_bytes(around) & 0x00ff_ffff != 0);
    }
    // Clear whichever is cheaper: the span of the row as one fill, or
    // its columns one by one.
    let (lo, hi) = (first as usize + 1, last as usize + 1);
    if hi - lo < 8 * next.len() {
        marks[lo..=hi].fill(0);
    } else {
        for &d in next {
            marks[d as usize + 1] = 0;
        }
    }
    matched
}

/// Counts how many entries of the sorted list `row` have at least one
/// element of the sorted list `next` within column distance 1 — the
/// definition, as a two-pointer merge.
fn count_with_cross_neighbor(row: &[u32], next: &[u32]) -> usize {
    if next.is_empty() {
        return 0;
    }
    let mut count = 0;
    let mut j = 0usize;
    for &c in row {
        // Advance j until next[j] >= c - 1.
        let target = c.saturating_sub(1);
        while j < next.len() && next[j] < target {
            j += 1;
        }
        // Column `u32::MAX` has no right-hand neighbor column.
        if j < next.len() && next[j] <= c.saturating_add(1) {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::csr::CsrMatrix;

    #[test]
    fn dense_band_has_two_neighbors_interior() {
        // Tridiagonal-ish fully dense rows: every interior element has 2
        // same-row neighbors, endpoints have 1. For a 1x5 dense row:
        // pairs = 4, avg = 2*4/5 = 1.6.
        let m = CsrMatrix::from_triplets(
            1,
            5,
            &[(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0)],
        )
        .unwrap();
        let f = FeatureSet::extract(&m);
        assert!((f.avg_num_neigh - 1.6).abs() < 1e-12);
        assert_eq!(f.max_nnz_per_row, 5);
        assert!((f.bandwidth_scaled - 1.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_nonzeros_have_no_neighbors() {
        let m = CsrMatrix::from_triplets(2, 10, &[(0, 0, 1.0), (0, 5, 1.0), (1, 2, 1.0)]).unwrap();
        let f = FeatureSet::extract(&m);
        assert_eq!(f.avg_num_neigh, 0.0);
    }

    #[test]
    fn cross_row_sim_identical_rows_is_one() {
        // Two identical rows: every element of row 0 has a same-column
        // cross neighbor.
        let m =
            CsrMatrix::from_triplets(2, 8, &[(0, 1, 1.0), (0, 4, 1.0), (1, 1, 1.0), (1, 4, 1.0)])
                .unwrap();
        let f = FeatureSet::extract(&m);
        assert!((f.cross_row_sim - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cross_row_sim_disjoint_rows_is_zero() {
        let m =
            CsrMatrix::from_triplets(2, 10, &[(0, 0, 1.0), (0, 4, 1.0), (1, 7, 1.0), (1, 9, 1.0)])
                .unwrap();
        let f = FeatureSet::extract(&m);
        assert_eq!(f.cross_row_sim, 0.0);
    }

    #[test]
    fn cross_row_sim_adjacent_column_counts() {
        // Row 0 has col 5; row 1 has col 6 (distance 1) -> similarity 1.
        let m = CsrMatrix::from_triplets(2, 10, &[(0, 5, 1.0), (1, 6, 1.0)]).unwrap();
        let f = FeatureSet::extract(&m);
        assert!((f.cross_row_sim - 1.0).abs() < 1e-12);
        // Distance 2 does not count.
        let m = CsrMatrix::from_triplets(2, 10, &[(0, 5, 1.0), (1, 7, 1.0)]).unwrap();
        assert_eq!(FeatureSet::extract(&m).cross_row_sim, 0.0);
    }

    #[test]
    fn cross_row_sim_partial() {
        // Row 0: cols {0, 5}; row 1: col {5}. Half of row 0 matches.
        let m = CsrMatrix::from_triplets(2, 10, &[(0, 0, 1.0), (0, 5, 1.0), (1, 5, 1.0)]).unwrap();
        let f = FeatureSet::extract(&m);
        assert!((f.cross_row_sim - 0.5).abs() < 1e-12);
    }

    #[test]
    fn skew_definition_matches_paper() {
        // "A skew of 1 means that the longest row is twice as big as the
        // average number of nonzeros per row."
        let m = CsrMatrix::from_triplets(
            2,
            10,
            &[(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 0, 1.0), (1, 5, 1.0)],
        )
        .unwrap();
        let f = FeatureSet::extract(&m);
        // rows have 4 and 2 nnz: avg 3, max 4, skew 1/3.
        assert!((f.skew_coeff - 1.0 / 3.0).abs() < 1e-12);
        assert!((f.avg_nnz_per_row - 3.0).abs() < 1e-12);
    }

    #[test]
    fn footprint_matches_matrix_accessor() {
        let m = CsrMatrix::identity(1000);
        let f = FeatureSet::extract(&m);
        assert!((f.mem_footprint_mb - m.mem_footprint_mb()).abs() < 1e-15);
    }

    #[test]
    fn empty_matrix_features_are_zeroed() {
        let f = FeatureSet::extract(&CsrMatrix::zeros(4, 4));
        assert_eq!(f.avg_nnz_per_row, 0.0);
        assert_eq!(f.skew_coeff, 0.0);
        assert_eq!(f.cross_row_sim, 0.0);
        assert_eq!(f.avg_num_neigh, 0.0);
        assert_eq!(f.empty_row_frac, 1.0);
    }

    #[test]
    fn regularity_classes_split_in_thirds() {
        assert_eq!(RegularityClass::classify(0.05, 0.0, 1.0), RegularityClass::Small);
        assert_eq!(RegularityClass::classify(0.5, 0.0, 1.0), RegularityClass::Medium);
        assert_eq!(RegularityClass::classify(0.95, 0.0, 1.0), RegularityClass::Large);
        assert_eq!(RegularityClass::classify(1.9, 0.0, 2.0), RegularityClass::Large);
        assert_eq!(RegularityClass::classify(-3.0, 0.0, 1.0), RegularityClass::Small);
        assert_eq!(RegularityClass::Small.letter(), "S");
    }

    #[test]
    fn distance_is_zero_for_self_and_positive_otherwise() {
        let m = CsrMatrix::identity(100);
        let f = FeatureSet::extract(&m);
        assert_eq!(f.distance(&f), 0.0);
        let m2 = CsrMatrix::from_triplets(
            100,
            100,
            &(0..100).flat_map(|r| [(r, r, 1.0), (r, (r + 1) % 100, 1.0)]).collect::<Vec<_>>(),
        )
        .unwrap();
        let f2 = FeatureSet::extract(&m2);
        assert!(f.distance(&f2) > 0.0);
        // Symmetry.
        assert!((f.distance(&f2) - f2.distance(&f)).abs() < 1e-12);
    }

    /// Both kernels on one row pair; they must agree.
    fn cross_matches(row: &[u32], next: &[u32]) -> usize {
        let cols = row.iter().chain(next).max().map_or(0, |&c| c as usize + 1);
        let mut marks = vec![0u8; cols + 3];
        let marked = mark_and_probe(&mut marks, row, next);
        assert!(marks.iter().all(|&b| b == 0), "marks left behind by {row:?} / {next:?}");
        assert_eq!(marked, count_with_cross_neighbor(row, next), "{row:?} / {next:?}");
        marked
    }

    #[test]
    fn count_cross_neighbor_edge_cases() {
        assert_eq!(cross_matches(&[0, 1, 2], &[]), 0);
        assert_eq!(cross_matches(&[], &[1, 2]), 0);
        // Column 0 has no left-hand neighbor column.
        assert_eq!(cross_matches(&[0], &[0]), 1);
        assert_eq!(cross_matches(&[0], &[1]), 1);
        assert_eq!(cross_matches(&[0], &[2]), 0);
        // One next-element can serve several row elements.
        assert_eq!(cross_matches(&[4, 5, 6], &[5]), 3);
        // Distance 2 on either side does not count.
        assert_eq!(cross_matches(&[3, 7], &[5]), 0);
        // A long scattered `next` is cleared column by column, a dense
        // one as a span.
        assert_eq!(cross_matches(&[99, 500], &[0, 100, 1000]), 1);
        assert_eq!(cross_matches(&[0, 9, 20], &(1..=8).collect::<Vec<u32>>()), 2);
    }

    #[test]
    fn the_last_u32_column_has_no_right_hand_neighbor() {
        // `c + 1` on column `u32::MAX` used to overflow.
        assert_eq!(count_with_cross_neighbor(&[u32::MAX], &[u32::MAX]), 1);
        assert_eq!(count_with_cross_neighbor(&[u32::MAX], &[u32::MAX - 1]), 1);
        assert_eq!(count_with_cross_neighbor(&[u32::MAX], &[u32::MAX - 2]), 0);
        assert_eq!(count_with_cross_neighbor(&[u32::MAX - 1], &[u32::MAX]), 1);
    }

    #[test]
    fn flat_neighbor_count_drops_the_pairs_that_straddle_rows() {
        // Rows {0,1}, {}, {2,3}, {5}: the flat count sees 1→2 as a pair.
        let (row_ptr, col_idx) = ([0, 2, 2, 4, 5], [0, 1, 2, 3, 5]);
        assert_eq!(adjacent_pairs(&col_idx), 3);
        assert_eq!(straddling_pairs(&row_ptr, &col_idx), 1);
        // Trailing empty rows end at `nnz`: nothing follows them.
        assert_eq!(straddling_pairs(&[0, 2, 2, 2], &[6, 7]), 0);
        // A descending step across rows is not a pair either way.
        assert_eq!(adjacent_pairs(&[5, 4]), 0);
        assert_eq!(straddling_pairs(&[0, 1, 2], &[5, 4]), 0);
    }

    /// A `rows × cols` matrix from per-row sorted column lists.
    fn matrix(cols: usize, rows: &[Vec<u32>]) -> CsrMatrix {
        let row_ptr = std::iter::once(0)
            .chain(rows.iter().scan(0, |end, row| {
                *end += row.len();
                Some(*end)
            }))
            .collect();
        let col_idx: Vec<u32> = rows.concat();
        let values = vec![1.0; col_idx.len()];
        CsrMatrix::new(rows.len(), cols, row_ptr, col_idx, values).unwrap()
    }

    /// Rows of 0–8 scattered columns in `0..cols`, one in seven empty.
    fn scattered(rows: usize, cols: u32, seed: u64) -> Vec<Vec<u32>> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        (0..rows)
            .map(|r| {
                let len = if r % 7 == 3 { 0 } else { next() % 9 };
                let mut row: Vec<u32> =
                    (0..len).map(|_| ((next() << 31 | next()) % u64::from(cols)) as u32).collect();
                row.sort_unstable();
                row.dedup();
                row
            })
            .collect()
    }

    /// Every field, `f64`s by their bits.
    fn bits(f: &FeatureSet) -> [u64; 12] {
        [
            f.rows as u64,
            f.cols as u64,
            f.nnz as u64,
            f.mem_footprint_mb.to_bits(),
            f.avg_nnz_per_row.to_bits(),
            f.std_nnz_per_row.to_bits(),
            f.max_nnz_per_row as u64,
            f.skew_coeff.to_bits(),
            f.cross_row_sim.to_bits(),
            f.avg_num_neigh.to_bits(),
            f.bandwidth_scaled.to_bits(),
            f.empty_row_frac.to_bits(),
        ]
    }

    /// The fields `estimate` leaves exact must be `extract`'s bits.
    fn assert_exact_fields(m: &CsrMatrix, budget: usize) -> (FeatureSet, FeatureSet) {
        let (est, exact) = (FeatureSet::estimate_within(m, budget), FeatureSet::extract(m));
        let sampled = [8, 10]; // cross_row_sim, bandwidth_scaled
        for (i, (a, b)) in bits(&est).into_iter().zip(bits(&exact)).enumerate() {
            assert!(sampled.contains(&i) || a == b, "field {i}: {est:?} vs {exact:?}");
        }
        assert!((0.0..=1.0).contains(&est.cross_row_sim), "{est:?}");
        (est, exact)
    }

    #[test]
    fn estimate_is_extract_below_twice_the_budget() {
        // The mark table serves the first, the merge the second.
        let dense = matrix(2000, &scattered(7000, 2000, 1));
        let wide = matrix(1 << 32, &scattered(7000, u32::MAX, 2));
        assert!(mark_table_bytes(dense.cols(), dense.nnz()).is_some());
        assert!(mark_table_bytes(wide.cols(), wide.nnz()).is_none());
        for m in [&dense, &wide] {
            assert!(m.nnz() < 2 * SAMPLE_NNZ && m.nnz() > SAMPLE_NNZ);
            assert_eq!(bits(&FeatureSet::estimate(m)), bits(&FeatureSet::extract(m)));
            // Just below a budget of its own size, it samples.
            let (est, exact) = assert_exact_fields(m, m.nnz() / 2);
            assert_ne!(bits(&est), bits(&exact));
        }
    }

    #[test]
    fn estimate_is_deterministic_and_exact_where_it_is_cheap() {
        let rows = scattered(20_000, 30_000, 3);
        let m = matrix(30_000, &rows);
        assert!(m.nnz() >= 2 * SAMPLE_NNZ);
        let (est, exact) = assert_exact_fields(&m, SAMPLE_NNZ);
        assert_eq!(bits(&est), bits(&FeatureSet::estimate(&matrix(30_000, &rows))));
        assert!((est.cross_row_sim - exact.cross_row_sim).abs() < 0.03, "{est:?} vs {exact:?}");
    }

    #[test]
    fn estimate_edge_cases() {
        // Every other row empty: every sampled row is empty or pairs
        // with an empty successor, so nothing matches.
        let gaps: Vec<Vec<u32>> =
            (0..40).map(|r| if r % 2 == 0 { vec![r, r + 1] } else { vec![] }).collect();
        let (est, exact) = assert_exact_fields(&matrix(48, &gaps), 4);
        assert_eq!((est.cross_row_sim, exact.cross_row_sim), (0.0, 0.0));
        // Identical rows: every pair matches in full, so a sampled last
        // row (no successor) must add bandwidth but no similarity.
        let band = |n: u32| (0..n).map(|_| vec![3, 4, 5]).collect::<Vec<_>>();
        let rows = (16..200).find(|&n| stratum_row(3, 4, n) == n - 1).expect("a last-row sample");
        let (est, exact) = assert_exact_fields(&matrix(8, &band(rows as u32)), 24);
        assert_eq!(bits(&est), bits(&exact));
        // Trailing empty rows.
        let mut tail = band(40);
        tail.resize(60, vec![]);
        let (est, _) = assert_exact_fields(&matrix(8, &tail), 30);
        assert!(est.empty_row_frac > 0.3, "{est:?}");
        // A single row; no nonzeros at all.
        let (est, exact) = assert_exact_fields(&matrix(64, &[(0..60).collect()]), 1);
        assert_eq!((est.cross_row_sim, est.bandwidth_scaled), (0.0, exact.bandwidth_scaled));
        assert_exact_fields(&matrix(8, &[vec![], vec![], vec![]]), 1);
        // Column `u32::MAX`, through the merge.
        let top: Vec<Vec<u32>> = (0..20)
            .map(|r| if r % 2 == 0 { vec![r, u32::MAX - 2, u32::MAX] } else { vec![r, u32::MAX] })
            .collect();
        let (est, _) = assert_exact_fields(&matrix(1 << 32, &top), 10);
        assert!(est.cross_row_sim > 0.6, "{est:?}");
    }

    #[test]
    fn the_mark_table_never_outgrows_the_column_indices() {
        assert_eq!(mark_table_bytes(13, 4), Some(16), "16 bytes of table, 16 of indices");
        assert_eq!(mark_table_bytes(14, 4), None);
        assert_eq!(mark_table_bytes(0, 0), None, "nothing to count, nothing to allocate");
        assert_eq!(mark_table_bytes(usize::MAX, usize::MAX / 8), None);
    }
}
