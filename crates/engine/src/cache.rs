//! LRU cache of converted storage formats, one per matrix id, bounded
//! by resident bytes.
//!
//! Conversion is the expensive step of adaptive serving (building
//! SELL-C-σ costs many times one SpMV), so the engine keeps
//! converted matrices around and evicts by least-recent use when the
//! configured byte budget overflows. An id has at most one resident
//! conversion, like it has at most one plan: inserting another kind
//! for the id replaces the entry. Entries are handed out as `Arc`s:
//! an eviction never invalidates a format a request is still running
//! on, it only drops the cache's own reference.

use spmv_formats::{FormatKind, SparseFormat};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A cached converted format plus bookkeeping.
struct CacheEntry {
    kind: FormatKind,
    fmt: Arc<Box<dyn SparseFormat>>,
    bytes: usize,
    last_used: u64,
}

/// Byte-bounded LRU cache of converted formats.
///
/// Not internally synchronized — the engine wraps it in a mutex. One
/// deliberate policy quirk: an entry larger than the whole budget is
/// still admitted (serving must proceed; everything else is evicted),
/// so [`ConversionCache::bytes_resident`] can transiently exceed
/// [`ConversionCache::capacity_bytes`] while such an entry is resident.
pub struct ConversionCache {
    capacity_bytes: usize,
    bytes: usize,
    tick: u64,
    entries: BTreeMap<String, CacheEntry>,
}

impl std::fmt::Debug for ConversionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConversionCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("bytes", &self.bytes)
            .field("entries", &self.len())
            .finish()
    }
}

impl ConversionCache {
    /// Creates an empty cache with the given byte budget.
    pub fn new(capacity_bytes: usize) -> Self {
        Self { capacity_bytes, bytes: 0, tick: 0, entries: BTreeMap::new() }
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes of all resident converted formats (their
    /// [`SparseFormat::bytes`], i.e. including padding and metadata).
    pub fn bytes_resident(&self) -> usize {
        self.bytes
    }

    /// Number of resident entries (= ids with a resident conversion).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The conversion resident for `id` and its kind, whatever kind the
    /// caller planned; refreshes its recency on a hit.
    pub fn resident(&mut self, id: &str) -> Option<(Arc<Box<dyn SparseFormat>>, FormatKind)> {
        self.tick += 1;
        let entry = self.entries.get_mut(id)?;
        entry.last_used = self.tick;
        Some((Arc::clone(&entry.fmt), entry.kind))
    }

    /// The conversion resident for `id` if it is of `kind`.
    pub fn get(&mut self, id: &str, kind: FormatKind) -> Option<Arc<Box<dyn SparseFormat>>> {
        self.resident(id).filter(|&(_, k)| k == kind).map(|(fmt, _)| fmt)
    }

    /// Inserts a converted format (replacing the id's resident entry,
    /// whatever its kind) and evicts least-recently-used entries until
    /// the budget holds again.
    pub fn insert(&mut self, id: &str, kind: FormatKind, fmt: Arc<Box<dyn SparseFormat>>) {
        self.tick += 1;
        let bytes = fmt.bytes();
        let entry = CacheEntry { kind, fmt, bytes, last_used: self.tick };
        // Re-insert over a resident id: the displaced entry's bytes
        // must come off the account before the new entry's go on,
        // otherwise `bytes_resident` drifts upward on every replace.
        if let Some(old) = self.entries.insert(id.to_string(), entry) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.evict_to_fit(id);
        self.debug_check();
    }

    /// Read-only iteration over the resident entries, in key order.
    /// Does not refresh recency — snapshotting the cache must not
    /// perturb the LRU order it is snapshotting.
    pub fn iter(&self) -> impl Iterator<Item = (&str, FormatKind, &Arc<Box<dyn SparseFormat>>)> {
        self.entries.iter().map(|(id, e)| (id.as_str(), e.kind, &e.fmt))
    }

    /// Drops the entry of one matrix (e.g. when the caller knows the
    /// matrix changed); returns the bytes released.
    pub fn forget(&mut self, id: &str) -> usize {
        let released = self.entries.remove(id).map_or(0, |e| e.bytes);
        self.bytes -= released;
        self.debug_check();
        released
    }

    /// Evicts globally-LRU entries (sparing the just-inserted id)
    /// until `bytes <= capacity` or only the spared entry remains.
    fn evict_to_fit(&mut self, keep_id: &str) {
        while self.bytes > self.capacity_bytes {
            let victim = self
                .entries
                .iter()
                .filter(|(id, _)| id.as_str() != keep_id)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(id, _)| id.clone());
            let Some(id) = victim else {
                break; // only the spared entry left
            };
            self.bytes -= self.entries.remove(&id).expect("victim id present").bytes;
        }
        self.debug_check();
    }

    /// Debug-build audit: the byte account must equal the sum over the
    /// resident entries after every mutation (a re-insert that failed
    /// to release the displaced entry's bytes would drift it upward),
    /// and the budget may only be exceeded by a lone oversized entry —
    /// every other path (insert, snapshot restore) must have evicted
    /// down to capacity.
    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        {
            let sum: usize = self.entries.values().map(|e| e.bytes).sum();
            debug_assert_eq!(sum, self.bytes, "bytes_resident drifted from the entry sum");
            debug_assert!(
                self.bytes <= self.capacity_bytes || self.len() == 1,
                "budget overshoot ({} > {}) with {} entries resident",
                self.bytes,
                self.capacity_bytes,
                self.len()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::CsrMatrix;
    use spmv_formats::build_format;

    fn entry(n: usize) -> Arc<Box<dyn SparseFormat>> {
        Arc::new(build_format(FormatKind::NaiveCsr, &CsrMatrix::identity(n)).unwrap())
    }

    #[test]
    fn hit_refreshes_recency_and_miss_returns_none() {
        let mut c = ConversionCache::new(1 << 20);
        assert!(c.get("a", FormatKind::NaiveCsr).is_none());
        c.insert("a", FormatKind::NaiveCsr, entry(4));
        assert!(c.get("a", FormatKind::NaiveCsr).is_some());
        assert!(c.get("a", FormatKind::Coo).is_none());
        assert!(c.get("b", FormatKind::NaiveCsr).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_is_lru_and_respects_budget() {
        let one = entry(100); // 100*12 + 101*4 bytes ≈ 1.6 KB
        let per = one.bytes();
        let mut c = ConversionCache::new(per * 3 + per / 2); // fits 3
        for id in ["a", "b", "c"] {
            c.insert(id, FormatKind::NaiveCsr, entry(100));
        }
        assert_eq!(c.len(), 3);
        // Touch "a" so "b" is the LRU, then overflow.
        assert!(c.get("a", FormatKind::NaiveCsr).is_some());
        c.insert("d", FormatKind::NaiveCsr, entry(100));
        assert_eq!(c.len(), 3);
        assert!(c.get("b", FormatKind::NaiveCsr).is_none(), "LRU entry must go");
        assert!(c.get("a", FormatKind::NaiveCsr).is_some());
        assert!(c.bytes_resident() <= c.capacity_bytes());
    }

    #[test]
    fn oversized_entry_is_admitted_alone() {
        let big = entry(1000);
        let mut c = ConversionCache::new(big.bytes() / 2);
        c.insert("small", FormatKind::NaiveCsr, entry(10));
        c.insert("big", FormatKind::NaiveCsr, big);
        assert_eq!(c.len(), 1, "everything else evicted");
        assert!(c.get("big", FormatKind::NaiveCsr).is_some());
        assert!(c.bytes_resident() > c.capacity_bytes(), "documented transient overshoot");
    }

    #[test]
    fn reinsert_over_resident_entry_releases_old_bytes_exactly() {
        // Regression for byte-account drift: inserting over an
        // already-resident (id, kind) must release the displaced
        // entry's bytes before accounting the new one, so repeated
        // replacement converges instead of creeping upward.
        let mut c = ConversionCache::new(1 << 20);
        c.insert("a", FormatKind::NaiveCsr, entry(10));
        assert_eq!(c.bytes_resident(), entry(10).bytes());
        c.insert("a", FormatKind::NaiveCsr, entry(30));
        assert_eq!(c.bytes_resident(), entry(30).bytes(), "old bytes released on replace");
        for _ in 0..5 {
            c.insert("a", FormatKind::NaiveCsr, entry(30));
            assert_eq!(c.bytes_resident(), entry(30).bytes(), "no drift on re-insert");
        }
        assert_eq!(c.len(), 1);
        c.forget("a");
        assert_eq!(c.bytes_resident(), 0);
    }

    #[test]
    fn replace_forget_and_clear_keep_byte_accounting_exact() {
        let mut c = ConversionCache::new(1 << 20);
        c.insert("a", FormatKind::NaiveCsr, entry(10));
        let b10 = c.bytes_resident();
        c.insert("a", FormatKind::NaiveCsr, entry(20)); // replace
        assert_eq!(c.len(), 1);
        assert!(c.bytes_resident() > b10);
        c.insert("a", FormatKind::Coo, entry(20));
        c.insert("z", FormatKind::NaiveCsr, entry(10));
        let released = c.forget("a");
        assert!(released > 0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes_resident(), b10);
        c.forget("z");
        assert!(c.is_empty());
        assert_eq!(c.bytes_resident(), 0);
    }
}
