//! Thread-safe memoization: a sharded LRU cache with accounting.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Index sentinel for "no node" in the intrusive LRU list.
const NIL: usize = usize::MAX;

/// Capacities at or above this use [`MAX_SHARDS`] lock shards; smaller
/// caches stay single-sharded so the bound is exact and eviction order is
/// the intuitive global LRU order.
const SHARDING_THRESHOLD: usize = 1024;

/// Lock shards for large caches. Scenario fingerprints hash uniformly, so
/// 16 shards cut contention roughly 16-fold for concurrent workers.
const MAX_SHARDS: usize = 16;

/// A memoization cache for scenario evaluations.
///
/// Keys are typically [`Fingerprint`](crate::Fingerprint)s; values are
/// whatever an evaluation produces (a predicted runtime, a
/// `CostBreakdown`, a full `AppRun`, a rendered reply payload). The cache
/// is safe to share across the [`Engine`](crate::Engine) pool's workers
/// and the long-lived `doppio-serve` request workers.
///
/// Bounded caches evict the **least recently used** entry (a `get` hit or
/// a re-insert refreshes recency) and count evictions next to the
/// hit/miss counters. Every operation is O(1): each shard keeps an
/// intrusive doubly-linked recency list over a slab, and large caches
/// split into `MAX_SHARDS` (16) independently locked shards (small caches,
/// below `SHARDING_THRESHOLD` (1024) entries, stay single-sharded so the bound
/// is exact). A sharded cache's bound is enforced per shard — capacity is
/// split evenly, rounding up — so the total may transiently exceed the
/// nominal capacity by at most `MAX_SHARDS - 1` entries.
#[derive(Debug)]
pub struct MemoCache<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    shard_capacity: usize,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// One lock's worth of LRU state: a key → slab-index map plus an intrusive
/// recency list threaded through the slab (`head` = most recent).
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> Shard<K, V> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Unlinks `idx` from the recency list (it must be linked).
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    /// Links `idx` at the head (most recently used).
    fn link_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.link_front(idx);
        }
    }

    /// Inserts a fresh node at the head, returning its index.
    fn push_front(&mut self, key: K, value: V) -> usize {
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i].key = key.clone();
                self.nodes[i].value = value;
                i
            }
            None => {
                self.nodes.push(Node {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.link_front(idx);
        self.map.insert(key, idx);
        idx
    }

    /// Evicts the least recently used entry (the tail), if any.
    fn evict_lru(&mut self) -> bool {
        let idx = self.tail;
        if idx == NIL {
            return false;
        }
        self.unlink(idx);
        let key = self.nodes[idx].key.clone();
        self.map.remove(&key);
        self.free.push(idx);
        true
    }
}

impl<K: Eq + Hash + Clone, V: Clone> MemoCache<K, V> {
    /// A cache that never evicts.
    pub fn unbounded() -> Self {
        Self::with_capacity(usize::MAX)
    }

    /// A cache holding at most (approximately, when sharded — see the type
    /// docs) `capacity` entries (clamped to ≥ 1), evicting the least
    /// recently used entry beyond that.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let n_shards = if capacity >= SHARDING_THRESHOLD {
            MAX_SHARDS
        } else {
            1
        };
        let shard_capacity = if capacity == usize::MAX {
            usize::MAX
        } else {
            capacity.div_ceil(n_shards)
        };
        MemoCache {
            shards: (0..n_shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_capacity,
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The shard a key lives in. The hasher is deterministic (fixed-key
    /// SipHash), so a key maps to the same shard in every run.
    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        if self.shards.len() == 1 {
            return &self.shards[0];
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks up `key`, counting a hit or miss. A hit refreshes the entry's
    /// recency.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut shard = self.shard(key).lock().expect("memo cache poisoned");
        match shard.map.get(key).copied() {
            Some(idx) => {
                shard.touch(idx);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(shard.nodes[idx].value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `key → value`, evicting the least recently used entry if
    /// the bound is exceeded. Re-inserting an existing key replaces its
    /// value and refreshes its recency without consuming extra capacity.
    pub fn insert(&self, key: K, value: V) {
        let mut shard = self.shard(&key).lock().expect("memo cache poisoned");
        self.insert_locked(&mut shard, key, value);
    }

    fn insert_locked(&self, shard: &mut Shard<K, V>, key: K, value: V) {
        if let Some(idx) = shard.map.get(&key).copied() {
            shard.nodes[idx].value = value;
            shard.touch(idx);
            return;
        }
        shard.push_front(key, value);
        while shard.map.len() > self.shard_capacity {
            if shard.evict_lru() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                break;
            }
        }
    }

    /// Returns the cached value for `key`, computing and caching it via
    /// `compute` on a miss.
    ///
    /// `compute` runs *outside* the cache lock so concurrent misses on
    /// different keys evaluate in parallel. Two workers racing on the
    /// *same* key may both compute it; the first insertion wins and the
    /// values are identical anyway (evaluations are pure — that is the
    /// whole determinism contract). The serving layer adds a singleflight
    /// table on top when duplicate computation is worth suppressing.
    pub fn get_or_insert_with(&self, key: &K, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(key) {
            return v;
        }
        let v = compute();
        let mut shard = self.shard(key).lock().expect("memo cache poisoned");
        if let Some(idx) = shard.map.get(key).copied() {
            return shard.nodes[idx].value.clone();
        }
        self.insert_locked(&mut shard, key.clone(), v.clone());
        v
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("memo cache poisoned").map.len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to be computed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to respect the bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The entry bound (`usize::MAX` when unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_accounting() {
        let c: MemoCache<u64, u64> = MemoCache::unbounded();
        assert_eq!(c.get(&1), None);
        assert_eq!((c.hits(), c.misses()), (0, 1));
        c.insert(1, 10);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!((c.hits(), c.misses()), (1, 1));
        let v = c.get_or_insert_with(&2, || 20);
        assert_eq!(v, 20);
        let v = c.get_or_insert_with(&2, || unreachable!("must be cached"));
        assert_eq!(v, 20);
        assert_eq!((c.hits(), c.misses()), (2, 2));
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn lru_eviction_respects_the_bound() {
        let c: MemoCache<u64, u64> = MemoCache::with_capacity(3);
        for k in 0..5 {
            c.insert(k, k * 10);
        }
        assert_eq!(c.len(), 3);
        // With no interleaved lookups, LRU order equals insertion order:
        // 0 and 1 were evicted; 2..5 remain.
        assert_eq!(c.get(&0), None);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(20));
        assert_eq!(c.get(&4), Some(40));
        assert_eq!(c.evictions(), 2);
    }

    #[test]
    fn recency_changes_the_victim() {
        let c: MemoCache<u64, u64> = MemoCache::with_capacity(3);
        c.insert(1, 1);
        c.insert(2, 2);
        c.insert(3, 3);
        // Touch 1: it is now the most recent, so inserting 4 evicts 2.
        assert_eq!(c.get(&1), Some(1));
        c.insert(4, 4);
        assert_eq!(c.get(&2), None, "least recently used entry was evicted");
        assert_eq!(c.get(&1), Some(1), "recently touched entry survived");
        assert_eq!(c.get(&3), Some(3));
        assert_eq!(c.get(&4), Some(4));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn reinsert_does_not_double_count_capacity() {
        let c: MemoCache<u64, u64> = MemoCache::with_capacity(2);
        c.insert(1, 1);
        c.insert(1, 2);
        c.insert(2, 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), Some(2), "reinsert replaced the value");
        assert_eq!(c.get(&2), Some(2));
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn capacity_clamps_to_one() {
        let c: MemoCache<u64, u64> = MemoCache::with_capacity(0);
        assert_eq!(c.capacity(), 1);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn sharded_large_cache_bounds_and_counts() {
        // Capacity above the sharding threshold: 16 shards, ceil split.
        let c: MemoCache<u64, u64> = MemoCache::with_capacity(2048);
        for k in 0..10_000 {
            c.insert(k, k);
        }
        let len = c.len();
        assert!(
            len <= 2048 + (MAX_SHARDS - 1),
            "sharded bound holds approximately: {len}"
        );
        assert!(len >= 2048 - MAX_SHARDS, "shards filled evenly: {len}");
        assert_eq!(c.evictions(), 10_000 - len as u64);
        // Recent keys are still present (they were just inserted).
        assert_eq!(c.get(&9_999), Some(9_999));
    }

    #[test]
    fn unbounded_never_evicts() {
        let c: MemoCache<u64, u64> = MemoCache::unbounded();
        for k in 0..5_000 {
            c.insert(k, k);
        }
        assert_eq!(c.len(), 5_000);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.capacity(), usize::MAX);
    }

    #[test]
    fn shared_across_threads() {
        let c: MemoCache<u64, u64> = MemoCache::unbounded();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for pass in 0..2 {
                        for k in 0..100 {
                            let v = c.get_or_insert_with(&k, || k * 2);
                            assert_eq!(v, k * 2, "pass {pass}");
                        }
                    }
                });
            }
        });
        assert_eq!(c.len(), 100);
        assert_eq!(c.hits() + c.misses(), 800, "every lookup was counted");
    }

    #[test]
    fn sharded_cache_shared_across_threads() {
        let c: MemoCache<u64, u64> = MemoCache::with_capacity(4096);
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for k in 0..1000 {
                        c.insert(k + t * 250, k);
                        c.get(&k);
                    }
                });
            }
        });
        assert!(c.len() < 4096 + MAX_SHARDS);
    }
}
