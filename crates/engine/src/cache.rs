//! LRU cache of converted storage formats, keyed by
//! `(matrix id, format)` and bounded by resident bytes.
//!
//! Conversion is the expensive step of adaptive serving (building
//! SELL-C-σ costs many times one SpMV), so the engine keeps
//! converted matrices around and evicts by least-recent use when the
//! configured byte budget overflows. Entries are handed out as `Arc`s:
//! an eviction never invalidates a format a request is still running
//! on, it only drops the cache's own reference.

use spmv_formats::{FormatKind, SparseFormat};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A cached converted format plus bookkeeping.
struct CacheEntry {
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
    entries: BTreeMap<String, BTreeMap<FormatKind, CacheEntry>>,
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

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.values().map(|m| m.len()).sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `(id, kind)`, refreshing its recency on a hit.
    pub fn get(&mut self, id: &str, kind: FormatKind) -> Option<Arc<Box<dyn SparseFormat>>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(id)?.get_mut(&kind)?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.fmt))
    }

    /// Inserts a converted format (replacing any previous entry under
    /// the same key) and evicts least-recently-used entries until the
    /// budget holds again.
    pub fn insert(&mut self, id: &str, kind: FormatKind, fmt: Arc<Box<dyn SparseFormat>>) {
        self.tick += 1;
        let bytes = fmt.bytes();
        let entry = CacheEntry { fmt, bytes, last_used: self.tick };
        // Re-insert over a resident key: the displaced entry's bytes
        // must come off the account before the new entry's go on,
        // otherwise `bytes_resident` drifts upward on every replace.
        if let Some(old) = self.entries.entry(id.to_string()).or_default().insert(kind, entry) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.evict_to_fit(id, kind);
        self.debug_check();
    }

    /// Read-only iteration over the resident entries, in key order.
    /// Does not refresh recency — snapshotting the cache must not
    /// perturb the LRU order it is snapshotting.
    pub fn iter(&self) -> impl Iterator<Item = (&str, FormatKind, &Arc<Box<dyn SparseFormat>>)> {
        self.entries
            .iter()
            .flat_map(|(id, m)| m.iter().map(move |(&k, e)| (id.as_str(), k, &e.fmt)))
    }

    /// Drops every entry of one matrix (e.g. when the caller knows the
    /// matrix changed); returns the bytes released.
    pub fn forget(&mut self, id: &str) -> usize {
        let released = self
            .entries
            .remove(id)
            .map(|m| m.values().map(|e| e.bytes).sum::<usize>())
            .unwrap_or(0);
        self.bytes -= released;
        self.debug_check();
        released
    }

    /// Empties the cache.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }

    /// Evicts globally-LRU entries (sparing the just-inserted key)
    /// until `bytes <= capacity` or only the spared entry remains.
    fn evict_to_fit(&mut self, keep_id: &str, keep_kind: FormatKind) {
        while self.bytes > self.capacity_bytes {
            let victim = self
                .entries
                .iter()
                .flat_map(|(id, m)| m.iter().map(move |(k, e)| (id, *k, e.last_used, e.bytes)))
                .filter(|(id, k, _, _)| !(id.as_str() == keep_id && *k == keep_kind))
                .min_by_key(|&(_, _, last_used, _)| last_used);
            let Some((id, kind, _, bytes)) = victim.map(|(id, k, t, b)| (id.clone(), k, t, b))
            else {
                break; // only the spared entry left
            };
            let per_id = self.entries.get_mut(&id).expect("victim id present");
            per_id.remove(&kind);
            if per_id.is_empty() {
                self.entries.remove(&id);
            }
            self.bytes -= bytes;
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
            let sum: usize = self.entries.values().flat_map(|m| m.values()).map(|e| e.bytes).sum();
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
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes_resident(), 0);
    }
}
