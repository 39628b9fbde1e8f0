//! Query-signature-keyed cache of filter distance columns.
//!
//! The filter stage of the multistep pipeline evaluates one prepared
//! kernel over every database row and produces a `Vec<f64>` of
//! lower-bound distances. For a paged database that scan is the part
//! that touches disk, so repeating a query (or re-running the same
//! filter during a knn/range pair) should not re-read cold blocks. The
//! [`FilterCache`] memoizes whole distance columns keyed by *(filter
//! name, filter parameter signature, query signature, row count)*; the
//! signatures hash exact `f64` bit patterns, so a hit is guaranteed to
//! reproduce the uncached scan bit for bit.
//!
//! The cache is an **executor optimization only**: reported work
//! statistics (`filter_evaluations`) stay nominal, describing the
//! logical scan the pipeline performed. Ingest must call
//! [`FilterCache::invalidate`] — a stale column would silently drop new
//! rows from every query.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Bound on resident columns; FIFO eviction beyond this.
const MAX_ENTRIES: usize = 32;

/// Identity of one memoized filter scan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The filter's [`crate::DistanceMeasure::name`].
    pub filter: &'static str,
    /// FNV-1a hash of the filter's parameters
    /// ([`crate::DistanceMeasure::cache_signature`]).
    pub params: u64,
    /// FNV-1a hash of the query bins ([`signature_of`]).
    pub query: u64,
    /// Rows the column covers (belt-and-braces alongside invalidation).
    pub rows: usize,
}

/// Counters of a [`FilterCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterCacheStats {
    /// Lookups answered from a memoized column.
    pub hits: u64,
    /// Lookups that fell through to a real scan.
    pub misses: u64,
    /// Columns currently resident.
    pub entries: usize,
}

struct CacheInner {
    /// Insertion-ordered (FIFO eviction) list of memoized columns. The
    /// population is tiny (≤ [`MAX_ENTRIES`]), so a scan beats a map.
    entries: Mutex<VecDeque<(CacheKey, Arc<Vec<f64>>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A bounded, shared cache of filter distance columns.
///
/// Cloning shares the underlying store (`Arc`), so every handle onto
/// the same database sees the same columns and the same invalidation.
#[derive(Clone)]
pub struct FilterCache {
    inner: Arc<CacheInner>,
}

impl std::fmt::Debug for FilterCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("FilterCache")
            .field("entries", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl Default for FilterCache {
    fn default() -> Self {
        FilterCache {
            inner: Arc::new(CacheInner {
                entries: Mutex::new(VecDeque::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }
}

impl FilterCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a memoized column, counting the hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<f64>>> {
        let entries = self
            .inner
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let found = entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| Arc::clone(v));
        if found.is_some() {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Memoizes a column, evicting the oldest entry beyond the bound.
    /// Re-inserting an existing key replaces the column in place.
    pub fn insert(&self, key: CacheKey, column: Arc<Vec<f64>>) {
        let mut entries = self
            .inner
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = column;
            return;
        }
        entries.push_back((key, column));
        while entries.len() > MAX_ENTRIES {
            entries.pop_front();
        }
    }

    /// Drops every memoized column. Must run on any ingest into the
    /// database the cache fronts.
    pub fn invalidate(&self) {
        self.inner
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> FilterCacheStats {
        let entries = self
            .inner
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        FilterCacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            entries,
        }
    }
}

/// FNV-1a over the exact bit patterns of a float slice — the query- and
/// parameter-signature primitive. Bit-exact by construction: two slices
/// collide in intent only if they are the same floats (modulo the
/// negligible 64-bit hash collision probability, which the `rows` field
/// and filter name further fence).
pub fn signature_of(values: &[f64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Folds an extra word into a signature — used to combine flag bits or
/// dimensions into a parameter signature.
pub fn signature_with(hash: u64, word: u64) -> u64 {
    let mut hash = hash;
    for byte in word.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(q: u64) -> CacheKey {
        CacheKey {
            filter: "LB_Test",
            params: 7,
            query: q,
            rows: 10,
        }
    }

    #[test]
    fn hit_returns_the_same_column() {
        let cache = FilterCache::new();
        let col = Arc::new(vec![1.0, 2.0]);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), Arc::clone(&col));
        let got = cache.get(&key(1)).expect("hit");
        assert!(Arc::ptr_eq(&got, &col));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn invalidate_empties_the_cache() {
        let cache = FilterCache::new();
        cache.insert(key(1), Arc::new(vec![1.0]));
        cache.invalidate();
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn clones_share_state() {
        let cache = FilterCache::new();
        let other = cache.clone();
        cache.insert(key(2), Arc::new(vec![3.0]));
        assert!(other.get(&key(2)).is_some());
        other.invalidate();
        assert!(cache.get(&key(2)).is_none());
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let cache = FilterCache::new();
        for q in 0..(MAX_ENTRIES as u64 + 4) {
            cache.insert(key(q), Arc::new(vec![q as f64]));
        }
        assert_eq!(cache.stats().entries, MAX_ENTRIES);
        assert!(cache.get(&key(0)).is_none(), "oldest entries evicted");
        assert!(cache.get(&key(MAX_ENTRIES as u64 + 3)).is_some());
    }

    #[test]
    fn signatures_are_bit_exact() {
        assert_ne!(signature_of(&[0.0]), signature_of(&[-0.0]));
        assert_eq!(signature_of(&[1.5, 2.5]), signature_of(&[1.5, 2.5]));
        assert_ne!(signature_of(&[1.5, 2.5]), signature_of(&[2.5, 1.5]));
        assert_ne!(signature_with(1, 2), signature_with(1, 3));
    }
}
