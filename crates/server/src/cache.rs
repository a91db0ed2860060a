//! LRU cache of proven optima, validated on every hit.
//!
//! Entries map an instance fingerprint (see
//! [`tempart_cli::proto::instance_fingerprint`]) to the raw 0-1 solution
//! and objective of a previous *optimal* solve of the same model. Nothing
//! else is stored: limit results carry no proof, and infeasible results
//! stay out until they carry a checkable certificate. On a hit the worker
//! re-verifies the solution and objective in exact arithmetic against the
//! freshly built model, then returns the entry as the job's answer without
//! a search; the optimality claim rests on the solve that stored it. A
//! stale or corrupted entry (the `cachepoison` chaos site corrupts at store
//! time) fails that check, is evicted, and the job solves cold, so it can
//! never produce a wrong answer.

use crate::lock;
use tempart_race::sync::Mutex;

/// One cached optimum.
#[derive(Debug, Clone)]
pub(crate) struct CacheEntry {
    /// Raw optimal solution in the model's variable order.
    pub x: Vec<f64>,
    /// Its claimed objective (re-verified on hit).
    pub objective: f64,
}

/// A small LRU map: most-recently-used entry at the front of the vec.
/// Linear scans are fine at service cache sizes (tens of entries).
pub struct WarmCache {
    // lock-order: 2
    entries: Mutex<Vec<(String, CacheEntry)>>,
    capacity: usize,
}

impl WarmCache {
    /// An empty cache holding at most `capacity` entries (0 disables it).
    pub fn new(capacity: usize) -> WarmCache {
        WarmCache {
            entries: Mutex::new(Vec::new()),
            capacity,
        }
    }

    /// Looks up `key`, refreshing its recency. Returns a clone — the entry
    /// stays cached for other jobs while the caller validates it.
    pub(crate) fn lookup(&self, key: &str) -> Option<CacheEntry> {
        let mut g = lock(&self.entries);
        let pos = g.iter().position(|(k, _)| k == key)?;
        let pair = g.remove(pos);
        let entry = pair.1.clone();
        g.insert(0, pair);
        Some(entry)
    }

    /// Inserts or refreshes `key`, evicting the least-recently-used entry
    /// beyond capacity. `poison` deterministically corrupts the stored
    /// vector (the `cachepoison` chaos site): validation-on-hit must catch
    /// it later.
    pub(crate) fn store(&self, key: &str, mut x: Vec<f64>, objective: f64, poison: bool) {
        if self.capacity == 0 {
            return;
        }
        if poison {
            if let Some(v) = x.first_mut() {
                // A half-integral first coordinate is guaranteed to fail
                // the checker's integrality snap.
                *v += 0.5;
            }
        }
        let mut g = lock(&self.entries);
        g.retain(|(k, _)| k != key);
        g.insert(0, (key.to_string(), CacheEntry { x, objective }));
        g.truncate(self.capacity);
    }

    /// Drops `key` (a hit that failed validation).
    pub(crate) fn invalidate(&self, key: &str) {
        lock(&self.entries).retain(|(k, _)| k != key);
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_oldest_and_lookup_refreshes() {
        let c = WarmCache::new(2);
        c.store("a", vec![1.0], 1.0, false);
        c.store("b", vec![2.0], 2.0, false);
        assert!(c.lookup("a").is_some(), "refresh a");
        c.store("c", vec![3.0], 3.0, false);
        assert!(c.lookup("b").is_none(), "b was least recently used");
        assert!(c.lookup("a").is_some() && c.lookup("c").is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn poison_corrupts_and_invalidate_removes() {
        let c = WarmCache::new(4);
        c.store("k", vec![1.0, 0.0], 13.0, true);
        let e = c.lookup("k").expect("stored");
        assert_eq!(e.x[0], 1.5, "poison shifted the first coordinate");
        c.invalidate("k");
        assert!(c.lookup("k").is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let c = WarmCache::new(0);
        c.store("k", vec![1.0], 1.0, false);
        assert!(c.lookup("k").is_none());
    }
}
