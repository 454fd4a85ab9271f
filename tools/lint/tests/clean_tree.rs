//! The lint gate: the committed tree must be clean, and each rule must
//! actually fire on synthetic violating sources (so a silent
//! regression in the scanner cannot pass as "no findings").

use spmv_lint::{lint_source, lint_tree, repo_root, Diagnostic};

fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

#[test]
fn committed_tree_is_clean() {
    let diags = lint_tree(&repo_root());
    assert!(
        diags.is_empty(),
        "lint findings in the committed tree:\n{}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn unannotated_unsafe_is_flagged_even_in_whitelisted_files() {
    let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    let diags = lint_source("crates/parallel/src/pool.rs", src);
    assert_eq!(rules(&diags), ["unsafe-needs-safety-comment"]);
    assert_eq!(diags[0].line, 1);
}

#[test]
fn safety_comment_on_same_line_or_directly_above_satisfies_r1() {
    let same = "fn f(p: *const u8) -> u8 { unsafe { *p } } // SAFETY: caller contract\n";
    assert!(lint_source("crates/parallel/src/pool.rs", same).is_empty());
    let above = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller upholds validity\n    unsafe { *p }\n}\n";
    assert!(lint_source("crates/parallel/src/pool.rs", above).is_empty());
    let gapped = "fn f(p: *const u8) -> u8 {\n    // SAFETY: stale, detached\n    let q = p;\n    unsafe { *q }\n}\n";
    assert_eq!(
        rules(&lint_source("crates/parallel/src/pool.rs", gapped)),
        ["unsafe-needs-safety-comment"]
    );
}

#[test]
fn unsafe_outside_the_whitelist_is_flagged() {
    let src = "// SAFETY: annotated but still not allowed here\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    let diags = lint_source("crates/core/src/lib.rs", src);
    assert_eq!(rules(&diags), ["unsafe-outside-whitelist"]);
}

#[test]
fn the_gather_microkernels_are_the_only_unsafe_file_of_spmv_formats() {
    let gather = "fn g(x: &[f64], i: __m128i, m: __m256d) -> __m256d {\n    // SAFETY: `Isa` proved avx2; masked lanes are `<= x.len() - 1`.\n    unsafe { _mm256_mask_i32gather_pd::<8>(_mm256_setzero_pd(), x.as_ptr(), i, m) }\n}\n";
    assert!(lint_source("crates/formats/src/kernels/x86.rs", gather).is_empty());
    // The whitelist names the file, not the crate or the directory …
    for elsewhere in ["crates/formats/src/kernels/dot.rs", "crates/formats/src/csr.rs"] {
        assert_eq!(rules(&lint_source(elsewhere, gather)), ["unsafe-outside-whitelist"]);
    }
    // … and does not waive the comment.
    let bare = gather.replace("// SAFETY:", "// safety:");
    assert_eq!(
        rules(&lint_source("crates/formats/src/kernels/x86.rs", &bare)),
        ["unsafe-needs-safety-comment"]
    );
}

#[test]
fn the_counting_allocators_are_whitelisted_by_file() {
    let alloc =
        "// SAFETY: pure delegation to `System`.\nunsafe impl GlobalAlloc for Counting {}\n";
    for whitelisted in ["tests/solver_alloc.rs", "crates/core/tests/features_kernel.rs"] {
        assert!(lint_source(whitelisted, alloc).is_empty(), "{whitelisted}");
    }
    // The solver gate's old home (a bench binary) and its neighbours
    // in `tests/` are not covered.
    for elsewhere in ["crates/bench/src/bin/solver_throughput.rs", "tests/engine_solver.rs"] {
        assert_eq!(rules(&lint_source(elsewhere, alloc)), ["unsafe-outside-whitelist"]);
    }
}

#[test]
fn unsafe_inside_strings_and_comments_is_ignored() {
    let src = "fn f() { let _ = \"unsafe\"; } // unsafe in prose\n";
    assert!(lint_source("crates/core/src/lib.rs", src).is_empty());
}

#[test]
fn raw_primitives_in_spine_crates_are_flagged() {
    for src in [
        "use std::sync::Mutex;\n",
        "use std::thread;\n",
        "use parking_lot::RwLock;\n",
        "fn f() { let _ = std::sync::Condvar::new(); }\n",
    ] {
        let diags = lint_source("crates/engine/src/shard.rs", src);
        assert_eq!(rules(&diags), ["raw-primitive-outside-facade"], "missed in {src:?}");
        let diags = lint_source("crates/parallel/src/pool.rs", src);
        assert_eq!(rules(&diags), ["raw-primitive-outside-facade"], "missed in {src:?}");
    }
}

#[test]
fn r3_allowlist_facade_tests_and_other_crates_are_exempt() {
    // Allowlisted non-synchronizing std::sync items pass.
    let ok = "use std::sync::Arc;\nuse std::sync::atomic::Ordering;\nfn t() -> usize { std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }\n";
    assert!(lint_source("crates/engine/src/lib.rs", ok).is_empty());
    // The façade itself is the boundary.
    assert!(lint_source("crates/parallel/src/sync.rs", "pub use std::sync::Mutex;\n").is_empty());
    // #[cfg(test)] modules and tests/ files are exempt.
    let test_mod = "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n}\n";
    assert!(lint_source("crates/engine/src/lib.rs", test_mod).is_empty());
    assert!(lint_source("crates/engine/tests/serve.rs", "use std::sync::Mutex;\n").is_empty());
    // Non-spine crates may use std primitives directly.
    assert!(lint_source("crates/bench/src/lib.rs", "use std::sync::Mutex;\n").is_empty());
}

#[test]
fn lock_unwrap_is_flagged_outside_tests_only() {
    let src = "fn f() { M.lock().unwrap(); }\n";
    assert_eq!(rules(&lint_source("src/main.rs", src)), ["lock-unwrap-outside-tests"]);
    assert_eq!(rules(&lint_source("crates/bench/src/lib.rs", src)), ["lock-unwrap-outside-tests"]);
    assert!(lint_source("crates/bench/tests/t.rs", src).is_empty());
    let in_test_mod = "#[cfg(test)]\nmod tests {\n    fn f() { M.lock().unwrap(); }\n}\n";
    assert!(lint_source("src/lib.rs", in_test_mod).is_empty());
}
