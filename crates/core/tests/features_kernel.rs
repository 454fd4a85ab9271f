//! The mark-and-probe extractor against its definitional oracle.
//!
//! [`FeatureSet::extract`] and [`FeatureSet::estimate`] must return the
//! very `FeatureSet` of [`FeatureSet::extract_reference`] — `assert_eq!`
//! on the whole struct, every `f64` bit for bit — on shapes chosen to
//! break a table-based kernel: runs of empty rows, a single column,
//! column 0, rows that end one column before the next row starts, dense
//! rows, and column spaces wide enough that the merge serves instead.
//! A counting allocator then pins what the scratch costs: nothing on a
//! warm thread, nothing at all when the column space dwarfs the
//! nonzeros.

use proptest::prelude::*;
use spmv_core::features::{FeatureSet, SAMPLE_NNZ};
use spmv_core::CsrMatrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations (calls and bytes) and delegates to
/// the system allocator. Per thread, because the test harness runs the
/// tests of this file side by side.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

// SAFETY: pure delegation to `System`; the counter is a const-initialised
// thread-local `Cell` (no lazy allocation, no destructor) with no effect
// on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s layout contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread that is tearing down may still allocate.
        let _ = ALLOCATED.try_with(|a| {
            let (calls, bytes) = a.get();
            a.set((calls + 1, bytes + layout.size()));
        });
        // SAFETY: same layout contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller passes a pointer this allocator returned, with the
    // layout it was allocated under.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(calls, bytes)` this thread allocated while `f` ran.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, (usize, usize)) {
    let before = ALLOCATED.get();
    let out = f();
    let after = ALLOCATED.get();
    (out, (after.0 - before.0, after.1 - before.1))
}

/// A matrix from per-row sorted column lists.
fn from_rows(cols: usize, rows: &[Vec<u32>]) -> CsrMatrix {
    let mut row_ptr = vec![0];
    let mut col_idx = Vec::new();
    for row in rows {
        col_idx.extend_from_slice(row);
        row_ptr.push(col_idx.len());
    }
    let values = vec![1.0; col_idx.len()];
    CsrMatrix::new(rows.len(), cols, row_ptr, col_idx, values)
        .expect("rows are sorted and in range")
}

/// Both entry points against the oracle; these matrices are all below
/// `2 × SAMPLE_NNZ`, where `estimate` is `extract`.
fn assert_matches_oracle(m: &CsrMatrix) -> FeatureSet {
    assert!(m.nnz() < 2 * SAMPLE_NNZ);
    let want = FeatureSet::extract_reference(m);
    assert_eq!(FeatureSet::extract(m), want, "extract");
    assert_eq!(FeatureSet::estimate(m), want, "estimate");
    want
}

/// Column-space widths: degenerate, around the four-byte probe, and wide
/// enough (against ≤ 40 short rows) that the table does not fit and the
/// merge serves.
const COLS: [usize; 8] = [1, 2, 3, 4, 9, 64, 300, 5000];

/// Adversarial matrices: every row picks a shape from `style`, placed by
/// `a` and `b`.
fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (0usize..COLS.len(), proptest::collection::vec((0u8..8, 0usize..5000, 1usize..40), 1..40))
        .prop_map(|(width, shapes)| {
            let cols = COLS[width];
            let mut rows: Vec<Vec<u32>> = Vec::new();
            for (style, a, b) in shapes {
                let start = a % cols;
                let row: Vec<usize> = match style {
                    // Runs of empty rows (two styles: they should be common).
                    0 | 1 => vec![],
                    // A run of consecutive columns.
                    2 => (start..cols.min(start + b)).collect(),
                    // Scattered columns, stride `b + 1`.
                    3 => (start..cols).step_by(b + 1).take(12).collect(),
                    // Starts one past the last column of the latest
                    // non-empty row: the flat neighbor count's false pair.
                    4 => {
                        let after =
                            rows.iter().rev().find_map(|r| r.last()).map_or(0, |&c| c as usize + 1);
                        (after..cols.min(after + b)).collect()
                    }
                    // Column 0 alone, the last column alone, a dense row.
                    5 => vec![0],
                    6 => vec![cols - 1],
                    _ => (0..cols.min(200)).collect(),
                };
                rows.push(row.into_iter().map(|c| c as u32).collect());
            }
            from_rows(cols, &rows)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_entry_point_returns_the_oracles_feature_set(m in arb_matrix()) {
        assert_matches_oracle(&m);
    }
}

#[test]
fn stale_marks_never_leak_between_matrices_on_one_thread() {
    // A and B mark overlapping columns of one reused table; B is wider
    // than anything the thread has seen, so the table also grows between
    // the two extractions of A.
    let a = from_rows(8, &[vec![0, 1, 2, 7], vec![1, 5], vec![], vec![2, 3, 4], vec![3]]);
    let b = from_rows(
        40,
        &[(0..40).collect(), vec![0, 7, 39], (5..30).collect(), vec![6, 8], vec![7], vec![6, 8]],
    );
    let first = assert_matches_oracle(&a);
    assert_matches_oracle(&b);
    assert_eq!(assert_matches_oracle(&a), first);
    // Hand-computed for A: rows 0, 1, 3 have a successor and match
    // 3/4 (0→1, 1→1, 2→1), 0/2 (the successor is empty) and 3/3.
    assert_eq!(first.cross_row_sim, (0.75 + 0.0 + 1.0) / 3.0);
}

#[test]
fn a_second_extraction_on_a_warm_thread_allocates_nothing() {
    let rows: Vec<Vec<u32>> = (0..200u32).map(|r| (r % 7..300).step_by(3).collect()).collect();
    let m = from_rows(300, &rows);
    let cold = FeatureSet::extract(&m);
    let (warm, (calls, bytes)) = allocations_of(|| FeatureSet::extract(&m));
    assert_eq!(warm, cold);
    assert_eq!((calls, bytes), (0, 0), "a warm extraction allocated");
}

#[test]
#[cfg(target_pointer_width = "64")]
fn the_last_u32_column_is_extracted_without_column_sized_scratch() {
    // 2 × 2³², one nonzero per row, in the last and the last-but-one
    // column: `c + 1` overflowed a `u32` here, and a table over the
    // column space would be gigabytes.
    let cols = 1usize << 32;
    let m = from_rows(cols, &[vec![u32::MAX], vec![u32::MAX - 1]]);
    let (f, (calls, bytes)) = allocations_of(|| FeatureSet::extract(&m));
    assert_eq!((calls, bytes), (0, 0), "extract allocated for {cols} columns");
    assert_eq!(f, FeatureSet::extract_reference(&m));
    assert_eq!(f.cross_row_sim, 1.0);
    assert_eq!(f.avg_num_neigh, 0.0);
}
