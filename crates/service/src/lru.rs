//! The bounded least-recently-used map behind both the artifact cache
//! shards and the drift-stable placement index.

use std::collections::HashMap;

/// A capacity-bounded map from 128-bit content keys to values with exact
/// least-recently-used eviction.
pub(crate) struct Lru<V> {
    /// Each value with the clock reading of its last touch.
    entries: HashMap<u128, (V, u64)>,
    clock: u64,
    capacity: usize,
}

impl<V> Lru<V> {
    /// An empty map holding at most `capacity` entries (at least one).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            clock: 0,
            capacity: capacity.max(1),
        }
    }

    /// Looks `key` up and, when present, marks it most recently used.
    pub(crate) fn touch(&mut self, key: u128) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(&key).map(|(value, last_used)| {
            *last_used = clock;
            &*value
        })
    }

    /// Inserts (or refreshes) an entry as the most recently used one,
    /// evicting least-recently-used entries first when a new key would
    /// exceed the capacity.  Returns the number of evicted entries.  The
    /// O(n) eviction scan is deliberate: inserts only happen on misses,
    /// which already paid for a full compile — thousands of times the
    /// scan's cost.
    pub(crate) fn insert(&mut self, key: u128, value: V) -> u64 {
        let mut evicted = 0;
        if !self.entries.contains_key(&key) {
            while self.entries.len() >= self.capacity {
                let lru = self
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, last_used))| *last_used)
                    .map(|(&k, _)| k)
                    .expect("a full map has an LRU entry");
                self.entries.remove(&lru);
                evicted += 1;
            }
        }
        self.clock += 1;
        self.entries.insert(key, (value, self.clock));
        evicted
    }

    /// Keeps only the entries whose value satisfies `keep`; returns the
    /// number of dropped entries.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, (value, _)| keep(value));
        before - self.entries.len()
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_lru_order_refresh_eviction_count_and_retain() {
        let mut lru = Lru::new(3);
        for key in 0..3 {
            assert_eq!(lru.insert(key, key * 10), 0, "below capacity");
        }
        assert_eq!(lru.len(), 3);
        // Touching 0 makes 1 the least recently used entry.
        assert_eq!(lru.touch(0), Some(&0));
        assert_eq!(lru.insert(3, 30), 1);
        assert_eq!(lru.len(), 3, "the capacity bound holds");
        assert_eq!(lru.touch(1), None, "the LRU entry was evicted");
        // Re-inserting a present key refreshes it without evicting: 2 is
        // now the most recent, so the next eviction takes 0 and then 3.
        assert_eq!(lru.insert(2, 21), 0);
        assert_eq!(lru.touch(2), Some(&21));
        assert_eq!(lru.insert(4, 40), 1);
        assert_eq!(lru.touch(0), None);
        assert_eq!(lru.insert(5, 50), 1);
        assert_eq!(lru.touch(3), None);
        assert_eq!(lru.retain(|&v| v != 40), 1);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.touch(4), None);
        assert_eq!(lru.touch(2), Some(&21));
        assert_eq!(lru.touch(5), Some(&50));
        lru.clear();
        assert_eq!(lru.len(), 0);
        // A zero capacity still holds one entry.
        let mut tiny = Lru::new(0);
        assert_eq!((tiny.insert(1, ()), tiny.insert(2, ())), (0, 1));
        assert_eq!(tiny.len(), 1);
    }
}
