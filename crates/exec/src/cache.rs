//! The in-memory intermediate cache.
//!
//! Spark uncaches via LRU; HELIX "improves upon the performance by actively
//! managing the set of data to evict from cache … Once an operator has
//! finished running, HELIX analyzes the DAG to uncache newly out-of-scope
//! nodes" (paper §5.4, Cache Pruning). [`SharedValueCache`] is that policy:
//! values leave exactly when the engine declares them out of scope.

use helix_data::{ByteSized, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A node-id-keyed, thread-safe cache of operator outputs.
///
/// Concurrent workers `get` parent values and `put` their own outputs
/// while the coordinator evicts out-of-scope nodes, so the map is sharded
/// by node id (16 mutexes) with byte/count totals in atomics — reads of
/// different nodes never contend.
pub struct SharedValueCache {
    shards: Vec<Shard>,
    bytes: AtomicU64,
    count: AtomicUsize,
}

/// One shard: node id → (value, cached byte size).
type Shard = Mutex<HashMap<u32, (Arc<Value>, u64)>>;

const SHARD_COUNT: usize = 16;

impl Default for SharedValueCache {
    fn default() -> SharedValueCache {
        SharedValueCache::new()
    }
}

impl SharedValueCache {
    /// New empty cache.
    pub fn new() -> SharedValueCache {
        SharedValueCache {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(HashMap::new())).collect(),
            bytes: AtomicU64::new(0),
            count: AtomicUsize::new(0),
        }
    }

    fn shard(&self, node: u32) -> &Shard {
        &self.shards[node as usize % SHARD_COUNT]
    }

    /// Insert (or replace) the value for a node.
    pub fn put(&self, node: u32, value: Arc<Value>) {
        let size = value.byte_size();
        let mut shard = self.shard(node).lock().unwrap();
        if let Some((_, old)) = shard.insert(node, (value, size)) {
            self.bytes.fetch_sub(old, Ordering::Relaxed);
        } else {
            self.count.fetch_add(1, Ordering::Relaxed);
        }
        self.bytes.fetch_add(size, Ordering::Relaxed);
    }

    /// Fetch a value.
    pub fn get(&self, node: u32) -> Option<Arc<Value>> {
        self.shard(node).lock().unwrap().get(&node).map(|(v, _)| Arc::clone(v))
    }

    /// Whether a node is resident.
    pub fn contains(&self, node: u32) -> bool {
        self.shard(node).lock().unwrap().contains_key(&node)
    }

    /// Eager out-of-scope eviction; returns the bytes freed.
    pub fn evict(&self, node: u32) -> u64 {
        // Bound to a local, so the shard guard, a temporary of this
        // statement, is released before the value is freed: a large free
        // must not block another worker's `get` or `put` on this shard.
        let removed = self.shard(node).lock().unwrap().remove(&node);
        match removed {
            Some((_, size)) => {
                self.bytes.fetch_sub(size, Ordering::Relaxed);
                self.count.fetch_sub(1, Ordering::Relaxed);
                size
            }
            None => 0,
        }
    }

    /// Resident bytes across all shards.
    pub fn resident_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Number of resident values.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evict everything (end of iteration).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap().clear();
        }
        self.bytes.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_data::Scalar;

    fn value_of_size(bytes: usize) -> Arc<Value> {
        Arc::new(Value::Scalar(Scalar::Text("x".repeat(bytes))))
    }

    #[test]
    fn put_get_evict_clear_accounting() {
        let cache = SharedValueCache::new();
        assert!(cache.is_empty());
        cache.put(1, value_of_size(100));
        cache.put(2, value_of_size(200));
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(1));
        let before = cache.resident_bytes();
        assert!(before >= 300);
        // Replacement adjusts accounting.
        cache.put(1, value_of_size(10));
        let replaced = cache.resident_bytes();
        assert!(replaced < before);
        assert_eq!(cache.len(), 2);
        let freed = cache.evict(1);
        assert!(freed >= 10);
        assert_eq!(cache.resident_bytes(), replaced - freed, "evict returns the bytes it freed");
        assert!(!cache.contains(1));
        assert!(cache.get(1).is_none());
        assert!(cache.get(2).is_some());
        assert_eq!(cache.evict(1), 0, "double evict is a no-op");
        cache.clear();
        assert_eq!(cache.resident_bytes(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn shared_cache_is_concurrency_safe() {
        let cache = SharedValueCache::new();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..200u32 {
                        let node = t * 1_000 + i;
                        cache.put(node, value_of_size(10));
                        assert!(cache.get(node).is_some());
                        if i % 2 == 0 {
                            cache.evict(node);
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), 4 * 100);
        assert_eq!(cache.resident_bytes(), {
            // Every resident value is the same size; totals must agree.
            let per = value_of_size(10).byte_size();
            4 * 100 * per
        });
    }
}
