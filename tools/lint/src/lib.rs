//! Repo-specific static lints for the serving spine's concurrency
//! discipline. Four rules, all textual (comment- and string-aware,
//! no rustc dependency), run over `crates/`, `src/`, and `tests/`:
//!
//! * **R1 `unsafe-needs-safety-comment`** — every `unsafe` token must
//!   carry a `// SAFETY:` comment on the same line or on the comment
//!   block immediately above it.
//! * **R2 `unsafe-outside-whitelist`** — `unsafe` may appear only in
//!   the explicitly whitelisted files ([`UNSAFE_WHITELIST`]); growing
//!   the unsafe surface means editing the whitelist in the same PR,
//!   which makes the growth reviewable.
//! * **R3 `raw-primitive-outside-facade`** — inside `crates/parallel`
//!   and `crates/engine`, non-test code must not name
//!   `std::sync`/`std::thread` primitives or `parking_lot` directly;
//!   everything goes through the `spmv_parallel::sync` façade so the
//!   model checker sees it. A short allowlist covers the types that
//!   carry no synchronization (`Arc`, `Ordering`, …).
//! * **R4 `lock-unwrap-outside-tests`** — non-test code must not
//!   `.unwrap()` a lock result (poison should be swallowed or
//!   propagated deliberately, never turned into a second panic).
//!
//! Test code — files under a `tests/` or `benches/` directory and
//! `#[cfg(test)]` modules — is exempt from R3/R4; R1/R2 apply
//! everywhere.

use std::fmt;
use std::path::{Path, PathBuf};

/// Files allowed to contain `unsafe` (workspace-relative paths).
pub const UNSAFE_WHITELIST: &[&str] = &[
    "crates/parallel/src/pool.rs",
    "crates/parallel/src/executor.rs",
    // The x86-64 gather microkernels of the lane-kernel layer and the
    // SELL-C-σ conversion's chunk transpose: vector loads and stores,
    // masked gathers, the transpose's writes into reserved capacity and
    // the calls into `#[target_feature]` drivers, licensed by the `Isa`
    // token. The rest of `spmv-formats` stays free of `unsafe`.
    "crates/formats/src/kernels/x86.rs",
    // Counting GlobalAlloc for the zero-allocation solver gate.
    "tests/solver_alloc.rs",
    // Counting GlobalAlloc for the zero-allocation feature-extraction
    // tests (the extraction kernel itself has no `unsafe`).
    "crates/core/tests/features_kernel.rs",
];

/// Files exempt from R3: the façade itself (it *is* the boundary
/// between model and real primitives).
const FACADE_FILES: &[&str] = &["crates/parallel/src/sync.rs"];

/// Path suffixes allowed through R3: types/functions from
/// `std::sync`/`std::thread` that carry no synchronization semantics
/// the model needs to see.
const R3_ALLOWED: &[&str] = &[
    "std::sync::Arc",
    "std::sync::Weak",
    "std::sync::PoisonError",
    "std::sync::atomic::Ordering",
    "std::thread::available_parallelism",
    "std::thread::Result",
];

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier (e.g. `unsafe-needs-safety-comment`).
    pub rule: &'static str,
    /// Explanation of the finding.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Resolves the workspace root from this crate's own location
/// (`tools/lint` → two levels up).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("tools/lint sits two levels below the workspace root")
        .to_path_buf()
}

/// Lints every `.rs` file under `crates/`, `src/`, `tests/`, and
/// `tools/` of the given workspace root. `vendor/` (third-party
/// shims) and `target/` are skipped.
pub fn lint_tree(root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for top in ["crates", "src", "tests", "tools"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut diags);
        }
    }
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    diags
}

fn walk(root: &Path, dir: &Path, diags: &mut Vec<Diagnostic>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            walk(root, &path, diags);
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            if let Ok(content) = std::fs::read_to_string(&path) {
                diags.extend(lint_source(&rel, &content));
            }
        }
    }
}

/// Lints one file's source text. Exposed separately so tests can feed
/// synthetic sources and assert that each rule fires.
pub fn lint_source(rel_path: &str, content: &str) -> Vec<Diagnostic> {
    let raw_lines: Vec<&str> = content.lines().collect();
    let code_lines = strip_comments_and_strings(content);
    debug_assert_eq!(raw_lines.len(), code_lines.len());
    let test_line = test_line_mask(rel_path, &code_lines);

    let mut diags = Vec::new();
    let whitelisted = UNSAFE_WHITELIST.contains(&rel_path);
    let facade = FACADE_FILES.contains(&rel_path);
    let in_spine =
        rel_path.starts_with("crates/parallel/") || rel_path.starts_with("crates/engine/");

    for (i, code) in code_lines.iter().enumerate() {
        let lineno = i + 1;

        // R1 + R2: unsafe audit (applies everywhere, tests included).
        if contains_word(code, "unsafe") {
            if !whitelisted {
                diags.push(Diagnostic {
                    file: rel_path.to_string(),
                    line: lineno,
                    rule: "unsafe-outside-whitelist",
                    message: format!(
                        "`unsafe` in a file not on the whitelist; extend \
                         UNSAFE_WHITELIST in tools/lint if this is deliberate \
                         (currently: {UNSAFE_WHITELIST:?})"
                    ),
                });
            }
            if !has_safety_comment(&raw_lines, i) {
                diags.push(Diagnostic {
                    file: rel_path.to_string(),
                    line: lineno,
                    rule: "unsafe-needs-safety-comment",
                    message: "`unsafe` without a `// SAFETY:` comment on the same line \
                              or immediately above"
                        .to_string(),
                });
            }
        }

        let is_test_code = test_line[i];

        // R3: façade enforcement inside the spine crates.
        if in_spine && !facade && !is_test_code {
            for needle in ["std::sync", "std::thread", "parking_lot"] {
                for col in find_word_occurrences(code, needle) {
                    let tail = &code[col..];
                    if needle == "parking_lot" || !r3_allowed(tail) {
                        diags.push(Diagnostic {
                            file: rel_path.to_string(),
                            line: lineno,
                            rule: "raw-primitive-outside-facade",
                            message: format!(
                                "direct `{needle}` use outside the sync façade; \
                                 go through `crate::sync` / `spmv_parallel::sync` \
                                 so the model checker can see this operation"
                            ),
                        });
                    }
                }
            }
        }

        // R4: lock-result unwraps outside tests.
        if !is_test_code {
            for pat in [".lock().unwrap()", ".read().unwrap()", ".write().unwrap()"] {
                if code.contains(pat) {
                    diags.push(Diagnostic {
                        file: rel_path.to_string(),
                        line: lineno,
                        rule: "lock-unwrap-outside-tests",
                        message: format!(
                            "`{pat}` in non-test code; handle poison deliberately \
                             (e.g. `unwrap_or_else(PoisonError::into_inner)`)"
                        ),
                    });
                }
            }
        }
    }
    diags
}

/// True when the `unsafe` on `raw_lines[idx]` is covered by a
/// `SAFETY:` comment: on the line itself, or in the contiguous run of
/// comment/attribute lines directly above.
fn has_safety_comment(raw_lines: &[&str], idx: usize) -> bool {
    if raw_lines[idx].contains("SAFETY:") {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = raw_lines[i].trim();
        if t.starts_with("//") || t.starts_with("#[") || t.starts_with("*") {
            if t.contains("SAFETY:") {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// Marks lines that belong to test code: whole files under `tests/`
/// or `benches/`, and `#[cfg(test)]` item blocks (tracked by brace
/// counting from the attribute to the close of the item it gates).
fn test_line_mask(rel_path: &str, code_lines: &[String]) -> Vec<bool> {
    let path_is_test = rel_path.split('/').any(|seg| seg == "tests" || seg == "benches");
    let mut mask = vec![path_is_test; code_lines.len()];
    if path_is_test {
        return mask;
    }
    let mut i = 0;
    while i < code_lines.len() {
        if code_lines[i].contains("#[cfg(test)]") {
            // Cover until the gated item's braces balance out.
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut j = i;
            while j < code_lines.len() {
                mask[j] = true;
                for ch in code_lines[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

fn r3_allowed(tail: &str) -> bool {
    R3_ALLOWED.iter().any(|allowed| {
        tail.starts_with(allowed)
            && !tail[allowed.len()..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == ':')
    })
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

fn contains_word(haystack: &str, word: &str) -> bool {
    !find_word_occurrences(haystack, word).is_empty()
}

/// Byte offsets of `word` in `haystack` where neither neighbor is an
/// identifier character (so `std::sync` does not match inside
/// `my_std::sync_x`).
fn find_word_occurrences(haystack: &str, word: &str) -> Vec<usize> {
    let bytes = haystack.as_bytes();
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1]) && bytes[at - 1] != b':';
        let after = at + word.len();
        let after_ok = after >= bytes.len() || !is_ident_char(bytes[after]);
        if before_ok && after_ok {
            out.push(at);
        }
        start = at + word.len();
    }
    out
}

/// Replaces comment text and string/char-literal contents with spaces,
/// preserving line structure, so the scanners above only ever see real
/// code tokens. Handles `//`, `/* */` (nested not needed), `"…"` with
/// escapes, `r"…"`/`r#"…"#` raw strings, and char literals (without
/// mistaking lifetimes for them).
fn strip_comments_and_strings(content: &str) -> Vec<String> {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment,
        Str,
        RawStr(usize),
    }
    let mut state = St::Code;
    let mut out_lines = Vec::new();
    for line in content.lines() {
        let b = line.as_bytes();
        let mut out = vec![b' '; b.len()];
        let mut i = 0;
        // A line comment never spans lines; reset it here.
        if state == St::LineComment {
            state = St::Code;
        }
        while i < b.len() {
            match state {
                St::Code => {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
                        state = St::LineComment;
                        i = b.len();
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        state = St::BlockComment;
                        i += 2;
                    } else if b[i] == b'"' {
                        out[i] = b'"';
                        state = St::Str;
                        i += 1;
                    } else if (b[i] == b'r' || b[i] == b'b')
                        && (i == 0 || !is_ident_char(b[i - 1]))
                        && raw_str_hashes(&b[i..]).is_some()
                    {
                        let hashes = raw_str_hashes(&b[i..]).unwrap_or(0);
                        state = St::RawStr(hashes);
                        i += raw_str_prefix_len(&b[i..]);
                    } else if b[i] == b'\'' {
                        // Char literal iff it closes within a few
                        // chars; otherwise a lifetime, leave as code.
                        if let Some(len) = char_literal_len(&b[i..]) {
                            // Blank the interior, keep the quotes.
                            out[i] = b'\'';
                            out[i + len - 1] = b'\'';
                            i += len;
                        } else {
                            out[i] = b[i];
                            i += 1;
                        }
                    } else {
                        out[i] = b[i];
                        i += 1;
                    }
                }
                St::LineComment => unreachable!("reset at line start"),
                St::BlockComment => {
                    if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        state = St::Code;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                St::Str => {
                    if b[i] == b'\\' {
                        i += 2;
                    } else if b[i] == b'"' {
                        out[i] = b'"';
                        state = St::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                St::RawStr(hashes) => {
                    if b[i] == b'"'
                        && b[i + 1..].iter().take(hashes).filter(|&&c| c == b'#').count() == hashes
                    {
                        state = St::Code;
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        out_lines.push(String::from_utf8_lossy(&out).into_owned());
    }
    out_lines
}

/// If `b` starts a raw-string prefix (`r"`, `r#"`, `br##"` …),
/// returns the number of `#`s; else `None`.
fn raw_str_hashes(b: &[u8]) -> Option<usize> {
    let mut i = 1;
    if b.first() == Some(&b'b') {
        if b.get(1) != Some(&b'r') {
            return None;
        }
        i = 2;
    } else if b.first() != Some(&b'r') {
        return None;
    }
    let mut hashes = 0;
    while b.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    (b.get(i) == Some(&b'"')).then_some(hashes)
}

fn raw_str_prefix_len(b: &[u8]) -> usize {
    let mut i = if b.first() == Some(&b'b') { 2 } else { 1 };
    while b.get(i) == Some(&b'#') {
        i += 1;
    }
    i + 1 // the opening quote
}

/// Length of a char literal at the start of `b` (including quotes),
/// or `None` when this `'` is a lifetime.
fn char_literal_len(b: &[u8]) -> Option<usize> {
    if b.get(1) == Some(&b'\\') {
        // Escaped: '\n', '\'', '\\', '\u{…}', '\x7f'
        let mut i = 2;
        while i < b.len() && i < 12 && b[i] != b'\'' {
            i += 1;
        }
        (b.get(i) == Some(&b'\'')).then_some(i + 1)
    } else if b.len() >= 3 && b[2] == b'\'' {
        Some(3)
    } else {
        None
    }
}
