//! The recommendation cache: fingerprint-keyed response bodies, each
//! stamped with the telemetry epoch it was computed under.
//!
//! Invalidation is *epoch equality*: a lookup only hits when the entry's
//! epoch equals the backend's current epoch. The broker bumps its epoch on
//! every telemetry absorb, so a stale recommendation can never be served
//! after the knowledge base moved — without the cache ever scanning or
//! being told which entries a given absorb affected.
//!
//! Two caps bound it: an entry count (`ServerConfig::cache_capacity`) and
//! [`MAX_BYTES`] of rendered bodies. An insert evicts in FIFO order
//! (insertion order) until both hold; a body larger than [`MAX_BYTES`]
//! alone is not cached and evicts nothing. The cache optimizes for the
//! repeat-heavy broker workload where a small set of hot intakes
//! dominates; the odd evicted cold entry just recomputes. The byte cap is
//! what bounds memory when answers are large: 4,096 archetype answers of
//! up to 390 KB each would otherwise pin 1.6 GB.
//!
//! Entries hold the body *pre-serialized* (`Arc<str>` of canonical JSON),
//! rendered once by the backend: a hit splices the text straight into
//! the response envelope.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Most bytes of rendered bodies the cache holds, beside the entry cap.
/// Bounded workloads of small answers (a hot pool of ~3.5 KB answers,
/// 1–8 KB frontier reports, 4,096 entries of either) stay well under it.
pub const MAX_BYTES: usize = 64 << 20;

/// Result of a cache probe.
#[derive(Debug, Clone)]
pub enum Lookup {
    /// Fresh entry: the cached rendered body, computed under the current
    /// epoch.
    Hit(Arc<str>),
    /// An entry existed but was computed under an older epoch; it has
    /// been evicted.
    Stale,
    /// Nothing cached for this fingerprint.
    Miss,
}

struct Entry {
    epoch: u64,
    body: Arc<str>,
}

/// A bounded, epoch-validated response cache.
pub struct EpochCache {
    inner: Mutex<CacheInner>,
}

struct CacheInner {
    entries: HashMap<u128, Entry>,
    order: VecDeque<u128>,
    capacity: usize,
    max_bytes: usize,
    /// Total body bytes of `entries`.
    bytes: usize,
}

impl EpochCache {
    /// A cache holding at most `capacity` entries (minimum 1) and at most
    /// [`MAX_BYTES`] of bodies.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::bounded(capacity, MAX_BYTES)
    }

    fn bounded(capacity: usize, max_bytes: usize) -> Self {
        EpochCache {
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                order: VecDeque::new(),
                capacity: capacity.max(1),
                max_bytes,
                bytes: 0,
            }),
        }
    }

    /// Probes the cache for `fingerprint` at the current `epoch`.
    ///
    /// A stale entry (older epoch) is removed and reported as
    /// [`Lookup::Stale`] so the caller can count invalidations distinctly
    /// from cold misses.
    pub fn lookup(&self, fingerprint: u128, epoch: u64) -> Lookup {
        let mut inner = self.inner.lock().expect("cache lock");
        match inner.entries.get(&fingerprint) {
            Some(entry) if entry.epoch == epoch => Lookup::Hit(Arc::clone(&entry.body)),
            Some(_) => {
                if let Some(stale) = inner.entries.remove(&fingerprint) {
                    inner.bytes -= stale.body.len();
                }
                inner.order.retain(|fp| *fp != fingerprint);
                Lookup::Stale
            }
            None => Lookup::Miss,
        }
    }

    /// Stores a rendered body computed under `epoch`, evicting the oldest
    /// entries until both caps hold. Replacing an existing fingerprint
    /// refreshes its body in place (insertion order is kept). A body
    /// larger than the byte cap is dropped and evicts nothing.
    pub fn insert(&self, fingerprint: u128, epoch: u64, body: Arc<str>) {
        let mut inner = self.inner.lock().expect("cache lock");
        let size = body.len();
        if size > inner.max_bytes {
            return;
        }
        match inner.entries.insert(fingerprint, Entry { epoch, body }) {
            Some(replaced) => inner.bytes -= replaced.body.len(),
            None => inner.order.push_back(fingerprint),
        }
        inner.bytes += size;
        while inner.order.len() > inner.capacity || inner.bytes > inner.max_bytes {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            if let Some(evicted) = inner.entries.remove(&oldest) {
                inner.bytes -= evicted.body.len();
            }
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(n: i64) -> Arc<str> {
        Arc::from(format!("{{\"n\":{n}}}"))
    }

    #[test]
    fn hit_requires_matching_epoch() {
        let cache = EpochCache::new(8);
        cache.insert(1, 5, body(1));
        assert!(matches!(cache.lookup(1, 5), Lookup::Hit(_)));
        // Epoch moved: the same entry is stale exactly once, then gone.
        assert!(matches!(cache.lookup(1, 6), Lookup::Stale));
        assert!(matches!(cache.lookup(1, 6), Lookup::Miss));
    }

    #[test]
    fn unknown_fingerprint_misses() {
        let cache = EpochCache::new(8);
        assert!(matches!(cache.lookup(99, 0), Lookup::Miss));
    }

    #[test]
    fn fifo_eviction_bounds_size() {
        let cache = EpochCache::new(2);
        cache.insert(1, 0, body(1));
        cache.insert(2, 0, body(2));
        cache.insert(3, 0, body(3));
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup(1, 0), Lookup::Miss), "oldest evicted");
        assert!(matches!(cache.lookup(3, 0), Lookup::Hit(_)));
    }

    fn bytes(cache: &EpochCache) -> usize {
        cache.inner.lock().expect("cache lock").bytes
    }

    /// A body of exactly `len` bytes.
    fn sized(len: usize) -> Arc<str> {
        Arc::from("x".repeat(len))
    }

    #[test]
    fn byte_cap_evicts_oldest_first() {
        let cache = EpochCache::bounded(8, 100);
        cache.insert(1, 0, sized(40));
        cache.insert(2, 0, sized(40));
        assert_eq!(bytes(&cache), 80);
        // 120 bytes would overflow: only the oldest goes.
        cache.insert(3, 0, sized(40));
        assert!(matches!(cache.lookup(1, 0), Lookup::Miss), "oldest evicted");
        assert!(matches!(cache.lookup(2, 0), Lookup::Hit(_)));
        assert!(matches!(cache.lookup(3, 0), Lookup::Hit(_)));
        assert_eq!(bytes(&cache), 80);
        // A 90-byte body needs both older entries gone.
        cache.insert(4, 0, sized(90));
        assert_eq!(cache.len(), 1);
        assert!(matches!(cache.lookup(4, 0), Lookup::Hit(_)));
        assert_eq!(bytes(&cache), 90);
    }

    #[test]
    fn over_cap_body_is_not_cached_and_evicts_nothing() {
        let cache = EpochCache::bounded(8, 100);
        cache.insert(1, 0, sized(60));
        cache.insert(2, 0, sized(101));
        assert!(matches!(cache.lookup(2, 0), Lookup::Miss));
        assert!(matches!(cache.lookup(1, 0), Lookup::Hit(_)));
        assert_eq!((cache.len(), bytes(&cache)), (1, 60));
        // Exactly the cap fits, once everything older is gone.
        cache.insert(3, 0, sized(100));
        assert!(matches!(cache.lookup(3, 0), Lookup::Hit(_)));
        assert_eq!((cache.len(), bytes(&cache)), (1, 100));
    }

    #[test]
    fn byte_count_is_exact_on_replace_and_stale_removal() {
        let cache = EpochCache::bounded(8, 100);
        cache.insert(1, 0, sized(30));
        cache.insert(2, 0, sized(20));
        cache.insert(1, 1, sized(50));
        assert_eq!((cache.len(), bytes(&cache)), (2, 70));
        cache.insert(1, 1, sized(10));
        assert_eq!(bytes(&cache), 30);
        assert!(matches!(cache.lookup(2, 1), Lookup::Stale));
        assert_eq!((cache.len(), bytes(&cache)), (1, 10));
        // Growing a replaced entry past the cap evicts in insertion
        // order, which a replacement keeps: here the grown entry itself.
        cache.insert(3, 1, sized(60));
        cache.insert(1, 1, sized(45));
        assert_eq!((cache.len(), bytes(&cache)), (1, 60));
        assert!(matches!(cache.lookup(1, 1), Lookup::Miss));
        assert!(matches!(cache.lookup(3, 1), Lookup::Hit(_)));
    }

    #[test]
    fn reinsert_refreshes_body() {
        let cache = EpochCache::new(2);
        cache.insert(1, 0, body(1));
        cache.insert(1, 1, body(2));
        assert_eq!(cache.len(), 1);
        match cache.lookup(1, 1) {
            Lookup::Hit(b) => assert_eq!(*b, *body(2)),
            other => panic!("expected hit, got {other:?}"),
        }
    }
}
