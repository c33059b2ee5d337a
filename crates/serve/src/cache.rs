//! The in-memory LRU result cache in front of Monte Carlo.
//!
//! Keys are `(spec_hash, canonical_query)`: the canonical spec hash
//! ([`tpu_spec::MachineSpec::canonical_hash`]) identifies the machine —
//! so re-PUTting a byte-shuffled but semantically identical spec keeps
//! its cache entries — and the canonical query string is built by the
//! handlers *after* parameter parsing, defaulting and normalization, so
//! `availability=0.9920` and `availability=0.992` share one entry.
//!
//! A hit is the service's common answer, so it allocates nothing here.
//! The map is keyed by spec hash, then by query, so a lookup by `&str`
//! builds no owned key, and bodies are `Arc<str>`, so a hit hands out a
//! pointer, not a copy. Recency is a tick stamped on each entry: a hit
//! restamps its entry in place, and an insert into a full cache evicts
//! the entry with the oldest stamp, found by scanning every entry. The
//! eviction order is exact LRU, and only a miss pays for the scan.
//!
//! Correctness under concurrency does not depend on the cache: every
//! cached value is the output of a deterministic simulation of its key,
//! so a hit returns byte-for-byte what a recompute would. The cache is
//! therefore *never* locked across a simulation — two threads racing on
//! the same cold key both compute and insert identical bytes, and the
//! concurrency CI gate (`scripts/service_concurrency.sh`) holds by
//! construction. See DESIGN.md §14.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

struct Entry {
    body: Arc<str>,
    last_used: u64,
}

struct Inner {
    /// Spec hash, then canonical query, to entry.
    map: BTreeMap<u64, BTreeMap<String, Entry>>,
    tick: u64,
}

impl Inner {
    /// Entries over every spec hash.
    fn len(&self) -> usize {
        self.map.values().map(BTreeMap::len).sum()
    }

    fn entry_mut(&mut self, spec_hash: u64, query: &str) -> Option<&mut Entry> {
        self.map.get_mut(&spec_hash)?.get_mut(query)
    }

    /// Removes the least-recently-used entry.
    fn evict_oldest(&mut self) {
        let oldest = self
            .map
            .iter()
            .flat_map(|(&hash, queries)| {
                queries
                    .iter()
                    .map(move |(query, e)| (e.last_used, hash, query))
            })
            .min_by_key(|&(last_used, ..)| last_used)
            .map(|(_, hash, query)| (hash, query.clone()));
        let Some((hash, query)) = oldest else {
            return;
        };
        if let Some(queries) = self.map.get_mut(&hash) {
            queries.remove(&query);
            if queries.is_empty() {
                self.map.remove(&hash);
            }
        }
    }
}

/// A bounded LRU cache of response bodies, shared across workers.
pub struct QueryCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl QueryCache {
    /// A cache holding up to `capacity` responses (0 disables caching).
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache {
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                tick: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up a response body, refreshing its LRU position. Counts a
    /// hit or miss.
    pub fn get(&self, spec_hash: u64, query: &str) -> Option<Arc<str>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let body = inner.entry_mut(spec_hash, query).map(|entry| {
            entry.last_used = tick;
            Arc::clone(&entry.body)
        });
        drop(inner);
        match &body {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        body
    }

    /// Stores a response body, evicting the least-recently-used entry
    /// when full. Racing inserts of the same key are benign: both
    /// bodies are the deterministic output of the same key.
    pub fn insert(&self, spec_hash: u64, query: &str, body: String) {
        if self.capacity == 0 {
            return;
        }
        let body: Arc<str> = body.into();
        let mut inner = self.lock();
        inner.tick += 1;
        let entry = Entry {
            body,
            last_used: inner.tick,
        };
        if let Some(old) = inner.entry_mut(spec_hash, query) {
            *old = entry;
            return;
        }
        if inner.len() >= self.capacity {
            inner.evict_oldest();
        }
        inner
            .map
            .entry(spec_hash)
            .or_default()
            .insert(query.to_string(), entry);
    }

    /// Drops every entry whose spec hash matches (spec deleted or
    /// replaced by a *semantically different* one).
    pub fn invalidate_spec(&self, spec_hash: u64) {
        self.lock().map.remove(&spec_hash);
    }

    /// `(hits, misses, live entries)` since start.
    pub fn stats(&self) -> (u64, u64, usize) {
        let entries = self.lock().len();
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            entries,
        )
    }

    /// Locks the map, recovering from a poisoned mutex: the cache holds
    /// only immutable response bytes keyed by their query, so a
    /// panicked writer cannot leave a half-state worth rejecting.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let cache = QueryCache::new(4);
        assert_eq!(cache.get(1, "q"), None);
        cache.insert(1, "q", "body".into());
        assert_eq!(cache.get(1, "q").as_deref(), Some("body"));
        let (hits, misses, entries) = cache.stats();
        assert_eq!((hits, misses, entries), (1, 1, 1));
    }

    #[test]
    fn keys_separate_by_spec_hash_and_query() {
        let cache = QueryCache::new(8);
        cache.insert(1, "q", "a".into());
        cache.insert(2, "q", "b".into());
        cache.insert(1, "r", "c".into());
        assert_eq!(cache.get(1, "q").as_deref(), Some("a"));
        assert_eq!(cache.get(2, "q").as_deref(), Some("b"));
        assert_eq!(cache.get(1, "r").as_deref(), Some("c"));
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let cache = QueryCache::new(2);
        cache.insert(1, "a", "A".into());
        cache.insert(1, "b", "B".into());
        // Touch "a" so "b" is the LRU entry.
        assert!(cache.get(1, "a").is_some());
        cache.insert(1, "c", "C".into());
        assert!(cache.get(1, "a").is_some(), "recently used survives");
        assert!(cache.get(1, "b").is_none(), "LRU entry evicted");
        assert!(cache.get(1, "c").is_some());
    }

    #[test]
    fn lru_order_spans_spec_hashes() {
        let cache = QueryCache::new(2);
        cache.insert(1, "a", "A".into());
        cache.insert(2, "b", "B".into());
        assert!(cache.get(1, "a").is_some());
        cache.insert(3, "c", "C".into());
        assert!(cache.get(2, "b").is_none(), "LRU entry evicted");
        assert!(cache.get(1, "a").is_some());
        assert!(cache.get(3, "c").is_some());
        assert_eq!(cache.stats().2, 2);
    }

    #[test]
    fn reinserting_a_cached_key_evicts_nothing() {
        let cache = QueryCache::new(2);
        cache.insert(1, "a", "A".into());
        cache.insert(1, "b", "B".into());
        cache.insert(1, "a", "A2".into());
        assert_eq!(cache.get(1, "a").as_deref(), Some("A2"));
        assert_eq!(cache.get(1, "b").as_deref(), Some("B"));
        assert_eq!(cache.stats().2, 2);
    }

    #[test]
    fn hits_share_one_body() {
        let cache = QueryCache::new(2);
        cache.insert(1, "q", "body".into());
        let (a, b) = (cache.get(1, "q").unwrap(), cache.get(1, "q").unwrap());
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let cache = QueryCache::new(0);
        cache.insert(1, "q", "body".into());
        assert_eq!(cache.get(1, "q"), None);
    }

    #[test]
    fn invalidate_spec_drops_only_that_machine() {
        let cache = QueryCache::new(8);
        cache.insert(1, "q", "a".into());
        cache.insert(2, "q", "b".into());
        cache.invalidate_spec(1);
        assert!(cache.get(1, "q").is_none());
        assert!(cache.get(2, "q").is_some());
    }
}
