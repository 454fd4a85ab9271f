//! SELL-C-σ (Kreutzer et al., SISC 2014; §II-B.5): rows are sorted by
//! length inside windows of σ rows, then grouped into chunks of C
//! rows; each chunk is padded only to its *own* widest row and stored
//! column-major. C matches the hardware vector width, σ trades sorting
//! scope (better packing) against locality perturbation — "selected to
//! match the underlying hardware capabilities without increasing
//! memory latency overheads".
//!
//! The chunk width C is a parameter of the kind: besides the default
//! C = 8 ("SELL-C-s"), the registry exposes pinned C = 4 ("SELL-4-s")
//! and C = 16 ("SELL-16-s") variants so the selector can learn which
//! chunk width suits a matrix class on a given device.
//! The inner loops live in [`crate::kernels::slab`] (bit-identical
//! across lane widths), reached through the format's [`SellChunks`]
//! view — ELL's window kernel at stride C.
//!
//! **Conversion.** Under synchronous admission the conversion runs on
//! the request path, and it is the largest step of a first touch. It
//! sorts the σ-windows from one array of row lengths, sizes the chunks,
//! then fills the slot arrays. At W > 1 on an x86-64 host with AVX2 or
//! AVX-512, for C ∈ {4, 8, 16}, the fill is a transpose on the vector
//! unit (`kernels::x86`): per slot row, masked gathers read the next
//! entry of each of the C rows and the slot row is stored whole, each
//! slot once. Elsewhere, and at W1, the rows are scattered into their
//! lanes with stride C. Both store exactly what
//! [`SellCSigmaFormat::from_csr_reference`] stores. On the reference
//! host (AVX-512, `BENCH_engine.json`, held-out operands of 60 KB to
//! 32 MB) the whole conversion runs 1.63× faster than with the scalar
//! scatter for C = 8 and 1.56× for C = 16, in the geomean.

use crate::driver;
use crate::kernels::dot::CsrRows;
use crate::kernels::slab::{self, SellChunks, SellPlan};
use crate::kernels::{panel, LaneProfile, LaneWidth};
use crate::traits::SparseFormat;
use crate::wire::{SectionReader, SectionWriter, WireError};
use spmv_core::CsrMatrix;
use spmv_parallel::ThreadPool;

/// Decodes a SELL-C-σ wire payload. Beyond chunk geometry, `perm`
/// must be a *bijection* on `0..rows`: the scatter kernel writes
/// `y[perm[p]]` through a [`DisjointWriter`], so a duplicated entry
/// would alias two lanes onto one row — a data race under the
/// parallel schedule, not just a wrong answer.
pub(crate) fn decode(
    r: &mut SectionReader<'_>,
    profile: LaneProfile,
) -> Result<SellCSigmaFormat, WireError> {
    let malformed = |m: String| WireError::Malformed(m);
    let rows = r.dim()?;
    let cols = r.dim()?;
    let nnz = r.dim()?;
    let c = r.dim()?;
    let sigma = r.dim()?;
    let perm = r.vec_u32()?;
    let chunk_ptr = r.vec_usize()?;
    let chunk_width = r.vec_u32()?;
    let col_idx = r.vec_u32()?;
    let values = r.vec_f64()?;
    if c == 0 || sigma == 0 {
        return Err(malformed(format!("SELL-C-s parameters must be positive: C={c}, s={sigma}")));
    }
    if perm.len() != rows {
        return Err(malformed(format!(
            "SELL-C-s permutation has {} entries for {rows} rows",
            perm.len()
        )));
    }
    let mut seen = vec![false; rows];
    for &p in &perm {
        match seen.get_mut(p as usize) {
            Some(slot) if !*slot => *slot = true,
            Some(_) => return Err(malformed(format!("SELL-C-s permutation repeats row {p}"))),
            None => return Err(malformed(format!("SELL-C-s permutation row {p} out of bounds"))),
        }
    }
    let n_chunks = rows.div_ceil(c);
    if chunk_ptr.len() != n_chunks + 1 || chunk_width.len() != n_chunks {
        return Err(malformed(format!(
            "SELL-C-s chunk arrays must be {} pointers / {n_chunks} widths, got {} / {}",
            n_chunks + 1,
            chunk_ptr.len(),
            chunk_width.len()
        )));
    }
    if chunk_ptr.first().map(|&p| p != 0).unwrap_or(false) {
        return Err(malformed("SELL-C-s chunk pointer must start at 0".into()));
    }
    for k in 0..n_chunks {
        let span = (chunk_width[k] as usize)
            .checked_mul(c)
            .and_then(|s| chunk_ptr[k].checked_add(s))
            .ok_or_else(|| malformed(format!("SELL-C-s chunk {k} size overflows")))?;
        if chunk_ptr[k + 1] != span {
            return Err(malformed(format!(
                "SELL-C-s chunk {k} pointer {} disagrees with width {}",
                chunk_ptr[k + 1],
                chunk_width[k]
            )));
        }
    }
    let stored = chunk_ptr.last().copied().unwrap_or(0);
    if col_idx.len() != stored || values.len() != stored {
        return Err(malformed(format!(
            "SELL-C-s stores {stored} slots, got {} columns / {} values",
            col_idx.len(),
            values.len()
        )));
    }
    if let Some(&cc) = col_idx.iter().find(|&&cc| cc as usize >= cols) {
        return Err(malformed(format!("SELL-C-s column {cc} out of bounds ({cols} cols)")));
    }
    if nnz > stored {
        return Err(malformed(format!("SELL-C-s nnz {nnz} exceeds stored slots {stored}")));
    }
    Ok(SellCSigmaFormat {
        rows,
        cols,
        nnz,
        c,
        sigma,
        perm,
        chunk_ptr,
        chunk_width,
        col_idx,
        values,
        lanes: profile.width,
    })
}

/// Default chunk height (AVX2/NEON-friendly).
pub const DEFAULT_C: usize = 8;
/// Default sorting scope.
pub const DEFAULT_SIGMA: usize = 256;
/// Chunk slots (lanes × slot rows, 12 bytes each) the scalar
/// conversion scatters into at a time: 24 KB, inside any L1.
const SCATTER_BLOCK_SLOTS: usize = 2048;

/// Fills `region` (a whole number of patterns long) with `pattern`
/// repeated, by doubling copies: a few large `memcpy`s instead of one
/// call per repetition.
fn fill_repeating(region: &mut [u32], pattern: &[u32]) {
    if region.is_empty() {
        return;
    }
    region[..pattern.len()].copy_from_slice(pattern);
    let mut filled = pattern.len();
    while filled < region.len() {
        let n = filled.min(region.len() - filled);
        region.copy_within(..n, filled);
        filled += n;
    }
}

/// The slot arrays of `plan` by scalar scatter: each chunk is zeroed
/// just before it is written (value padding is then in place), while
/// its lines are on their way into L1 anyway — zeroing both arrays up
/// front is a pass over memory of its own — and each row is scattered
/// into its lane with stride C.
fn scatter(csr: &CsrMatrix, plan: &SellPlan<'_>) -> (Vec<u32>, Vec<f64>) {
    let c = plan.c;
    let mut col_idx: Vec<u32> = Vec::with_capacity(plan.stored);
    let mut values: Vec<f64> = Vec::with_capacity(plan.stored);
    // Rows are scattered a block of slots at a time, so that the C
    // lanes of a block are written while it sits in L1. Scattering
    // whole rows streams a wide chunk (500 slots × 16 lanes is 96 KB)
    // through the cache once per lane.
    let block = (SCATTER_BLOCK_SLOTS / c).max(1);
    // Column padding repeats each row's last real column (see the
    // propagation policy on `SparseFormat`; an empty row or a lane
    // without a row keeps column 0). A chunk of several blocks — where
    // a skewed matrix keeps most of its padding — gets it by whole slot
    // rows, copied from `pad_cols` before the rows still running are
    // scattered over them.
    let mut pad_cols = vec![0u32; c];
    for (lanes, &width) in plan.perm.chunks(c).zip(plan.chunk_width) {
        let width = width as usize;
        let base = col_idx.len();
        col_idx.resize(base + width * c, 0);
        values.resize(base + width * c, 0.0);
        let cols_k = &mut col_idx[base..];
        let vals_k = &mut values[base..];
        if width <= block {
            for (i, &r) in lanes.iter().enumerate() {
                let (cs, vs) = csr.row(r as usize);
                for (j, (&cc, &vv)) in cs.iter().zip(vs).enumerate() {
                    cols_k[j * c + i] = cc;
                    vals_k[j * c + i] = vv;
                }
                if let Some(&last) = cs.last() {
                    for j in cs.len()..width {
                        cols_k[j * c + i] = last;
                    }
                }
            }
            continue;
        }
        let mut shortest = if lanes.len() == c { width } else { 0 };
        pad_cols[lanes.len()..].fill(0);
        for (pad, &r) in pad_cols.iter_mut().zip(lanes) {
            let (cs, _) = csr.row(r as usize);
            *pad = cs.last().copied().unwrap_or(0);
            shortest = shortest.min(cs.len());
        }
        for from in (0..width).step_by(block) {
            let to = (from + block).min(width);
            fill_repeating(&mut cols_k[shortest.clamp(from, to) * c..to * c], &pad_cols);
            for (i, &r) in lanes.iter().enumerate() {
                let (cs, vs) = csr.row(r as usize);
                let run = from.min(cs.len())..to.min(cs.len());
                for (j, (&cc, &vv)) in run.clone().zip(cs[run.clone()].iter().zip(&vs[run])) {
                    cols_k[j * c + i] = cc;
                    vals_k[j * c + i] = vv;
                }
            }
        }
    }
    (col_idx, values)
}

/// SELL-C-σ storage.
pub struct SellCSigmaFormat {
    rows: usize,
    cols: usize,
    nnz: usize,
    c: usize,
    sigma: usize,
    /// `perm[packed_position] = original_row`.
    perm: Vec<u32>,
    /// Start offset of each chunk in `col_idx`/`values`.
    chunk_ptr: Vec<usize>,
    /// Width (max row length) of each chunk.
    chunk_width: Vec<u32>,
    /// Column-major per chunk: entry `(lane i, slot j)` of chunk `k`
    /// lives at `chunk_ptr[k] + j*C + i`. Padding: the row's last real
    /// column (column 0 in an empty row or lane) / val 0.
    col_idx: Vec<u32>,
    values: Vec<f64>,
    /// Lane width the kernels dispatch to.
    lanes: LaneWidth,
}

impl SellCSigmaFormat {
    /// Converts from CSR with the default `C = 8, σ = 256`.
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        Self::from_csr_with(csr, DEFAULT_C, DEFAULT_SIGMA)
    }

    /// Converts from CSR with explicit chunk height and sorting scope,
    /// using the process-wide [`LaneProfile::current`].
    pub fn from_csr_with(csr: &CsrMatrix, c: usize, sigma: usize) -> Self {
        Self::from_csr_with_profile(csr, c, sigma, LaneProfile::current())
    }

    /// Converts from CSR with explicit chunk height, sorting scope and
    /// lane profile: the version tuned for the engine's first-touch path
    /// (module docs, **Conversion**). Produces exactly the storage of
    /// [`from_csr_reference`](Self::from_csr_reference), which states
    /// the layout plainly.
    pub fn from_csr_with_profile(
        csr: &CsrMatrix,
        c: usize,
        sigma: usize,
        profile: LaneProfile,
    ) -> Self {
        Self::convert(csr, c, sigma, profile, slab::sell_transpose)
    }

    /// [`from_csr_with_profile`](Self::from_csr_with_profile) with the
    /// slot arrays filled by `transpose`, or by `scatter` where it
    /// declines.
    pub(crate) fn convert(
        csr: &CsrMatrix,
        c: usize,
        sigma: usize,
        profile: LaneProfile,
        transpose: impl FnOnce(&SellPlan<'_>) -> Option<(Vec<u32>, Vec<f64>)>,
    ) -> Self {
        let rows = csr.rows();
        let c = c.max(1);
        let sigma = sigma.max(1);
        let lens: Vec<u32> = csr
            .row_ptr()
            .windows(2)
            .map(|p| u32::try_from(p[1] - p[0]).expect("a SELL-C-s row holds < 2^32 entries"))
            .collect();
        // Window-local stable sort by descending row length. Row
        // lengths inside a window almost always span a range no wider
        // than the window, so a counting sort (no comparisons, no
        // allocation per window) does it; a window holding an outlier
        // row takes the comparison sort.
        let mut perm: Vec<u32> = (0..rows as u32).collect();
        let mut starts: Vec<u32> = Vec::new();
        for (window, window_lens) in perm.chunks_mut(sigma).zip(lens.chunks(sigma)) {
            let (lo, hi) =
                window_lens.iter().fold((u32::MAX, 0), |(lo, hi), &l| (lo.min(l), hi.max(l)));
            if lo == hi {
                continue; // equal rows are in order already
            }
            let span = (hi - lo) as usize;
            if span >= 2 * window.len() {
                window.sort_by_key(|&r| std::cmp::Reverse(lens[r as usize]));
                continue;
            }
            // The window still holds its rows in matrix order.
            // starts[b] = first position of the rows of length hi − b.
            starts.clear();
            starts.resize(span + 2, 0);
            for &l in window_lens {
                starts[(hi - l) as usize + 1] += 1;
            }
            for b in 1..starts.len() {
                starts[b] += starts[b - 1];
            }
            let first = window[0];
            for (r, &l) in (first..).zip(window_lens) {
                let at = &mut starts[(hi - l) as usize];
                window[*at as usize] = r;
                *at += 1;
            }
        }
        let n_chunks = rows.div_ceil(c);
        let mut chunk_ptr = Vec::with_capacity(n_chunks + 1);
        let mut chunk_width = Vec::with_capacity(n_chunks);
        let mut stored = 0usize;
        chunk_ptr.push(stored);
        for lanes in perm.chunks(c) {
            let width = lanes.iter().map(|&r| lens[r as usize]).max().unwrap_or(0);
            chunk_width.push(width);
            stored += width as usize * c;
            chunk_ptr.push(stored);
        }
        let plan = SellPlan {
            rows: CsrRows::of(profile.width, csr),
            c,
            perm: &perm,
            chunk_width: &chunk_width,
            stored,
        };
        let (col_idx, values) = transpose(&plan).unwrap_or_else(|| scatter(csr, &plan));
        Self {
            rows,
            cols: csr.cols(),
            nnz: csr.nnz(),
            c,
            sigma,
            perm,
            chunk_ptr,
            chunk_width,
            col_idx,
            values,
            lanes: profile.width,
        }
    }

    /// The conversion written as the layout reads: stable-sort every
    /// σ-window by descending row length, size the chunks, then scatter
    /// each row into its lane with stride C. The oracle
    /// [`from_csr_with_profile`](Self::from_csr_with_profile) is tested
    /// against (identical storage, byte for byte) and the "before" side
    /// of the conversion timings in `BENCH_engine.json`.
    pub fn from_csr_reference(
        csr: &CsrMatrix,
        c: usize,
        sigma: usize,
        profile: LaneProfile,
    ) -> Self {
        let rows = csr.rows();
        let c = c.max(1);
        let sigma = sigma.max(1);
        // Window-local sort by descending row length (stable, so equal
        // rows keep matrix order and locality).
        let mut perm: Vec<u32> = (0..rows as u32).collect();
        for window in perm.chunks_mut(sigma) {
            window.sort_by_key(|&r| std::cmp::Reverse(csr.row_nnz(r as usize)));
        }
        let n_chunks = rows.div_ceil(c);
        let mut chunk_ptr = Vec::with_capacity(n_chunks + 1);
        let mut chunk_width = Vec::with_capacity(n_chunks);
        chunk_ptr.push(0usize);
        for k in 0..n_chunks {
            let width = (k * c..((k + 1) * c).min(rows))
                .map(|p| csr.row_nnz(perm[p] as usize))
                .max()
                .unwrap_or(0);
            chunk_width.push(width as u32);
            chunk_ptr.push(chunk_ptr[k] + width * c);
        }
        let stored = *chunk_ptr.last().unwrap_or(&0);
        let mut col_idx = vec![0u32; stored];
        let mut values = vec![0.0f64; stored];
        #[allow(clippy::needless_range_loop)] // chunk index drives three arrays
        for k in 0..n_chunks {
            let base = chunk_ptr[k];
            for i in 0..c {
                let p = k * c + i;
                if p >= rows {
                    continue;
                }
                let (cs, vs) = csr.row(perm[p] as usize);
                for (j, (&cc, &vv)) in cs.iter().zip(vs).enumerate() {
                    col_idx[base + j * c + i] = cc;
                    values[base + j * c + i] = vv;
                }
                // Padding repeats the row's last real column (see the
                // propagation policy on `SparseFormat`); an empty row
                // has none and keeps column 0.
                if let Some(&last) = cs.last() {
                    for j in cs.len()..chunk_width[k] as usize {
                        col_idx[base + j * c + i] = last;
                    }
                }
            }
        }
        Self {
            rows,
            cols: csr.cols(),
            nnz: csr.nnz(),
            c,
            sigma,
            perm,
            chunk_ptr,
            chunk_width,
            col_idx,
            values,
            lanes: profile.width,
        }
    }

    /// Chunk height C.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Sorting scope σ.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// The row permutation (`perm[packed] = original`).
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// The lane width this instance dispatches to.
    pub fn lanes(&self) -> LaneWidth {
        self.lanes
    }

    /// Everything the conversion stored — shape, `perm`, `chunk_ptr`,
    /// `chunk_width`, `col_idx`, and `values` as bits.
    #[cfg(test)]
    pub(crate) fn storage_bits(&self) -> [Vec<u64>; 6] {
        let wide = |v: &[u32]| v.iter().map(|&x| u64::from(x)).collect();
        [
            [self.rows, self.cols, self.nnz, self.c, self.sigma].map(|x| x as u64).to_vec(),
            wide(&self.perm),
            self.chunk_ptr.iter().map(|&x| x as u64).collect(),
            wide(&self.chunk_width),
            wide(&self.col_idx),
            self.values.iter().map(|v| v.to_bits()).collect(),
        ]
    }

    fn view(&self) -> SellChunks<'_> {
        SellChunks {
            lanes: self.lanes,
            c: self.c,
            rows: self.rows,
            cols: self.cols,
            perm: &self.perm,
            chunk_ptr: &self.chunk_ptr,
            chunk_width: &self.chunk_width,
            col_idx: &self.col_idx,
            values: &self.values,
        }
    }
}

impl SparseFormat for SellCSigmaFormat {
    fn name(&self) -> &'static str {
        // The pinned chunk-width variants are distinct formats in the
        // registry (distinct training labels for the selector), so the
        // name is derived from C.
        match self.c {
            4 => "SELL-4-s",
            16 => "SELL-16-s",
            _ => "SELL-C-s",
        }
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn bytes(&self) -> usize {
        self.values.len() * 8
            + self.col_idx.len() * 4
            + self.perm.len() * 4
            + self.chunk_ptr.len() * 8
            + self.chunk_width.len() * 4
    }

    fn padding_ratio(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.values.len() as f64 / self.nnz as f64
        }
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        driver::spmv(&self.view(), x, y);
    }

    fn encode_payload(&self, out: &mut SectionWriter) -> Result<(), WireError> {
        out.usize(self.rows);
        out.usize(self.cols);
        out.usize(self.nnz);
        out.usize(self.c);
        out.usize(self.sigma);
        out.slice_u32(&self.perm);
        out.slice_usize(&self.chunk_ptr);
        out.slice_u32(&self.chunk_width);
        out.slice_u32(&self.col_idx);
        out.slice_f64(&self.values);
        Ok(())
    }

    fn spmv_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        let chunks = self.view();
        driver::spmv_parallel(&chunks, chunks.schedule(), pool, x, y);
    }

    fn spmv_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        driver::spmv_dot(&self.view(), x, y)
    }

    fn spmv_dot_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) -> f64 {
        let chunks = self.view();
        driver::spmv_dot_parallel(&chunks, chunks.schedule(), pool, x, y)
    }

    fn spmm(&self, x: &[f64], k: usize, y: &mut [f64]) {
        panel::spmm(&self.view(), x, k, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::DenseMatrix;

    fn mixed_matrix() -> CsrMatrix {
        let mut t = Vec::new();
        for r in 0..50usize {
            let len = 1 + (r * 7) % 13;
            for k in 0..len {
                t.push((r, (r + k * 3) % 60, ((r + k) as f64 * 0.17).sin()));
            }
        }
        CsrMatrix::from_triplets(50, 60, &t).unwrap()
    }

    /// Long, short, empty and one very long row, in an order no window
    /// finds sorted: chunks on both sides of `SLOT_MAJOR_MIN_WIDTH`,
    /// rows ending mid-chunk, a ragged last chunk.
    fn ragged_matrix(rows: usize) -> CsrMatrix {
        let cols = 400usize;
        let mut t = Vec::new();
        for r in 0..rows {
            let len = match r % 11 {
                0 => 0,
                3 => 40 + r % 9,
                7 => 17,
                _ => 1 + (r * 5) % 23,
            };
            let len = if r == rows / 2 { 333 } else { len };
            for k in 0..len {
                t.push((r, (r * 13 + k) % cols, ((r * 3 + k) as f64 * 0.23).cos()));
            }
        }
        CsrMatrix::from_triplets(rows, cols, &t).unwrap()
    }

    #[test]
    fn tuned_conversion_stores_exactly_what_the_reference_stores() {
        // A regular block (every window of equal rows skips its sort)
        // with 20-wide chunks, beside the ragged shapes.
        let regular = {
            let t: Vec<_> = (0..70usize)
                .flat_map(|r| (0..20usize).map(move |k| (r, (r + 7 * k) % 150, 1.0 + k as f64)))
                .collect();
            CsrMatrix::from_triplets(70, 150, &t).unwrap()
        };
        // Chunks of several scatter blocks whose shortest row ends
        // blocks after the first.
        let tall = {
            let t: Vec<_> = (0..37usize)
                .flat_map(|r| (0..290 + (r * 7) % 60).map(move |k| (r, k, (r + k) as f64)))
                .collect();
            CsrMatrix::from_triplets(37, 350, &t).unwrap()
        };
        let cases = [mixed_matrix(), ragged_matrix(97), ragged_matrix(256), regular, tall];
        for (n, m) in cases.iter().enumerate() {
            for (c, sigma) in [(1, 1), (4, 8), (8, 256), (16, 256), (16, 4), (3, 7), (8, 1)] {
                let want = SellCSigmaFormat::from_csr_reference(m, c, sigma, LaneProfile::scalar());
                let got =
                    SellCSigmaFormat::from_csr_with_profile(m, c, sigma, LaneProfile::scalar());
                let what = format!("case {n} C={c} s={sigma}");
                assert_eq!(got.perm, want.perm, "{what}: perm");
                assert_eq!(got.chunk_ptr, want.chunk_ptr, "{what}: chunk_ptr");
                assert_eq!(got.chunk_width, want.chunk_width, "{what}: chunk_width");
                assert_eq!(got.col_idx, want.col_idx, "{what}: col_idx");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.values), bits(&want.values), "{what}: values");
                assert_eq!((got.rows, got.cols, got.nnz), (want.rows, want.cols, want.nnz));
            }
        }
    }

    #[test]
    fn perm_is_a_permutation() {
        let f = SellCSigmaFormat::from_csr(&mixed_matrix());
        let mut seen = [false; 50];
        for &p in f.perm() {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sorting_windows_are_local() {
        let m = mixed_matrix();
        let f = SellCSigmaFormat::from_csr_with(&m, 4, 8);
        // Every permuted position stays inside its sigma window.
        for (pos, &orig) in f.perm().iter().enumerate() {
            assert_eq!(pos / 8, orig as usize / 8, "row escaped its window");
        }
        // Inside each window, lengths are non-increasing.
        for w in 0..(50usize.div_ceil(8)) {
            let lo = w * 8;
            let hi = (lo + 8).min(50);
            let lens: Vec<usize> = (lo..hi).map(|p| m.row_nnz(f.perm()[p] as usize)).collect();
            assert!(lens.windows(2).all(|ab| ab[0] >= ab[1]), "window {w}: {lens:?}");
        }
    }

    #[test]
    fn matches_dense() {
        let m = mixed_matrix();
        let x: Vec<f64> = (0..60).map(|i| (i as f64 * 0.09).cos()).collect();
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        for (c, sigma) in [(1, 1), (4, 8), (8, 256), (16, 4)] {
            let f = SellCSigmaFormat::from_csr_with(&m, c, sigma);
            let got = f.spmv_alloc(&x);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-10, "C={c} s={sigma} row {i}");
            }
        }
    }

    #[test]
    fn chunk_width_variants_get_distinct_names() {
        let m = mixed_matrix();
        assert_eq!(SellCSigmaFormat::from_csr_with(&m, 4, 256).name(), "SELL-4-s");
        assert_eq!(SellCSigmaFormat::from_csr_with(&m, 8, 256).name(), "SELL-C-s");
        assert_eq!(SellCSigmaFormat::from_csr_with(&m, 16, 256).name(), "SELL-16-s");
        // Non-registry chunk widths fall back to the generic name.
        assert_eq!(SellCSigmaFormat::from_csr_with(&m, 2, 256).name(), "SELL-C-s");
    }

    #[test]
    fn lane_widths_are_bit_identical() {
        // In-chunk lanes map 1:1 to packed rows, so W is invisible in
        // the result even when W exceeds C.
        let m = mixed_matrix();
        let x: Vec<f64> = (0..60).map(|i| (i as f64 * 0.19).sin() - 0.4).collect();
        for c in [4usize, 8, 16] {
            let scalar = SellCSigmaFormat::from_csr_with_profile(&m, c, 32, LaneProfile::scalar());
            let want = scalar.spmv_alloc(&x);
            for width in [LaneWidth::W4, LaneWidth::W8] {
                let f = SellCSigmaFormat::from_csr_with_profile(
                    &m,
                    c,
                    32,
                    LaneProfile::with_width(width),
                );
                assert_eq!(f.spmv_alloc(&x), want, "C={c} {width:?}");
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let m = mixed_matrix();
        let x: Vec<f64> = (0..60).map(|i| i as f64 * 0.01 - 0.3).collect();
        let f = SellCSigmaFormat::from_csr(&m);
        let want = f.spmv_alloc(&x);
        for threads in [1, 2, 5, 8] {
            let pool = ThreadPool::new(threads);
            let mut got = vec![f64::NAN; 50];
            f.spmv_parallel(&pool, &x, &mut got);
            assert_eq!(got, want, "threads {threads}");
        }
    }

    #[test]
    fn spmm_matches_k_independent_spmvs() {
        let m = mixed_matrix();
        let (rows, cols) = (m.rows(), m.cols());
        for (c, sigma) in [(1usize, 1usize), (4, 8), (8, 256)] {
            let f = SellCSigmaFormat::from_csr_with(&m, c, sigma);
            for k in [1usize, 3, 8] {
                let x: Vec<f64> = (0..cols * k).map(|i| (i as f64 * 0.07).sin() - 0.2).collect();
                let got = f.spmm_alloc(&x, k);
                for j in 0..k {
                    let want = f.spmv_alloc(&x[j * cols..(j + 1) * cols]);
                    for (i, (a, b)) in got[j * rows..(j + 1) * rows].iter().zip(&want).enumerate() {
                        assert!((a - b).abs() < 1e-12, "C={c} s={sigma} k={k} col {j} row {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn sigma_one_keeps_original_order() {
        let f = SellCSigmaFormat::from_csr_with(&mixed_matrix(), 4, 1);
        for (pos, &orig) in f.perm().iter().enumerate() {
            assert_eq!(pos as u32, orig);
        }
    }

    #[test]
    fn larger_sigma_packs_no_worse_within_windows() {
        // With sorting the chunk widths align with sorted runs, so the
        // padding ratio with sigma = rows is <= sigma = 1 on this mix.
        let m = mixed_matrix();
        let unsorted = SellCSigmaFormat::from_csr_with(&m, 8, 1);
        let sorted = SellCSigmaFormat::from_csr_with(&m, 8, 50);
        assert!(sorted.padding_ratio() <= unsorted.padding_ratio() + 1e-12);
        assert!(sorted.padding_ratio() >= 1.0);
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::zeros(5, 5);
        let f = SellCSigmaFormat::from_csr(&m);
        assert_eq!(f.padding_ratio(), 1.0);
        assert_eq!(f.spmv_alloc(&[0.0; 5]), vec![0.0; 5]);
    }
}
