//! A lock-striped, sharded, bounded result store with CLOCK eviction.
//!
//! [`ShardedCache`] is the storage layer under [`crate::NpnCache`]: keys are
//! hashed once, the high bits pick one of `2^k` independently locked shards,
//! and each shard is a `HashMap` over a slot arena swept by the CLOCK (a.k.a.
//! second-chance) hand — an LRU approximation whose hit path is a single
//! boolean store instead of a list splice, which is what keeps the striped
//! locks uncontended under a worker pool hammering the cache from every
//! thread.
//!
//! The cache is value-generic; the service stores [`crate::CacheValue`]
//! (quotient ISFs and synthesis outcomes) keyed by
//! [`crate::CacheKey`](NPN-canonical forms), but nothing here knows that.
//!
//! [`Doorkeeper`] is the admission filter in front of it: a fixed-size,
//! lock-free set of recently sighted hashes that admits a key on its second
//! sighting, so one-shot keys never reach the store.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Point-in-time counters of a [`ShardedCache`] (monotonic except
/// `entries`, which is the current population).
///
/// The counters themselves live as [`obs::Counter`]s — construct the cache
/// with [`ShardedCache::with_registry`] and they appear in that registry's
/// snapshots under `cache.*`. This struct is the thin compatibility
/// accessor ([`ShardedCache::stats`]) kept so existing tests and benches
/// read one plain value; new code should consume the registry snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Successful inserts of a new key.
    pub insertions: u64,
    /// Entries displaced by the CLOCK hand to make room.
    pub evictions: u64,
    /// Current number of stored entries across all shards.
    pub entries: u64,
    /// Maximum number of entries the cache will hold.
    pub capacity: u64,
    /// Number of lock stripes.
    pub shards: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One slot of a shard's CLOCK arena.
struct Slot<K, V> {
    key: K,
    value: V,
    /// The second-chance bit: set on every hit, cleared (once) by the
    /// sweeping hand before the slot may be evicted.
    referenced: bool,
}

struct Shard<K, V> {
    /// Key → slot index into `slots`.
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// The CLOCK hand: next slot the eviction sweep examines.
    hand: usize,
    capacity: usize,
}

/// What [`Shard::insert`] did with the entry (drives the cache counters).
enum InsertOutcome {
    /// Key already present: first value kept, hot bit refreshed.
    Duplicate,
    /// New key stored in a free slot.
    Inserted,
    /// New key stored by displacing another entry.
    Evicted,
}

impl<K: Hash + Eq + Clone, V> Shard<K, V> {
    fn insert(&mut self, key: K, value: V) -> InsertOutcome {
        if let Some(&slot) = self.map.get(&key) {
            // Racing writers of the same key: keep the first result (they
            // are identical by construction) but refresh the hot bit.
            self.slots[slot].referenced = true;
            return InsertOutcome::Duplicate;
        }
        if self.slots.len() < self.capacity {
            self.map.insert(key.clone(), self.slots.len());
            // New entries start unreferenced: the second chance is earned by
            // a hit, otherwise a burst of one-shot inserts would erase the
            // recency of everything already resident.
            self.slots.push(Slot { key, value, referenced: false });
            return InsertOutcome::Inserted;
        }
        // CLOCK sweep: skip (and strip) referenced slots, evict the first
        // unreferenced one. Bounded: after one full lap every bit is clear.
        loop {
            let slot = &mut self.slots[self.hand];
            if std::mem::replace(&mut slot.referenced, false) {
                self.hand = (self.hand + 1) % self.slots.len();
                continue;
            }
            let index = self.hand;
            self.map.remove(&self.slots[index].key);
            self.map.insert(key.clone(), index);
            self.slots[index] = Slot { key, value, referenced: false };
            self.hand = (index + 1) % self.slots.len();
            return InsertOutcome::Evicted;
        }
    }
}

/// The lock-striped bounded map. See the [module docs](self).
///
/// ```rust
/// use service::cache::ShardedCache;
///
/// let cache: ShardedCache<u64, String> = ShardedCache::new(128, 4);
/// assert_eq!(cache.get(&7), None);
/// cache.insert(7, "seven".to_string());
/// assert_eq!(cache.get(&7).as_deref(), Some("seven"));
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    hits: obs::Counter,
    misses: obs::Counter,
    insertions: obs::Counter,
    evictions: obs::Counter,
    capacity: usize,
}

impl<K, V> std::fmt::Debug for Shard<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Shard(len={}, capacity={})", self.slots.len(), self.capacity)
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// Creates a cache holding at most `capacity` entries across
    /// `shards.next_power_of_two()` stripes (at least one; shards each get
    /// an equal share of the capacity, rounded up).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 — a capacity-0 cache is a disabled cache,
    /// which callers express by not constructing one.
    pub fn new(capacity: usize, shards: usize) -> Self {
        Self::with_counters(capacity, shards, std::array::from_fn(|_| obs::Counter::new()))
    }

    /// Like [`ShardedCache::new`], but the counters are registered in
    /// `registry` (as `cache.hits`, `cache.misses`, `cache.insertions`,
    /// `cache.evictions`) so the
    /// cache shows up in that registry's snapshots. The handles ARE the
    /// storage — there is no mirroring step to forget.
    pub fn with_registry(capacity: usize, shards: usize, registry: &obs::Registry) -> Self {
        Self::with_counters(
            capacity,
            shards,
            [
                registry.counter("cache.hits"),
                registry.counter("cache.misses"),
                registry.counter("cache.insertions"),
                registry.counter("cache.evictions"),
            ],
        )
    }

    fn with_counters(capacity: usize, shards: usize, counters: [obs::Counter; 4]) -> Self {
        assert!(capacity > 0, "a zero-capacity cache cannot hold anything");
        let shard_count = shards.max(1).next_power_of_two();
        let per_shard = capacity.div_ceil(shard_count);
        let shards = (0..shard_count)
            .map(|_| {
                Mutex::new(Shard {
                    map: HashMap::with_capacity(per_shard.min(1024)),
                    slots: Vec::new(),
                    hand: 0,
                    capacity: per_shard,
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let [hits, misses, insertions, evictions] = counters;
        ShardedCache {
            shards,
            hits,
            misses,
            insertions,
            evictions,
            capacity: per_shard * shard_count,
        }
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        // High bits pick the stripe; the shard-internal HashMap re-mixes the
        // same hash, so low-bit reuse is harmless.
        let index = (hasher.finish() >> 32) as usize & (self.shards.len() - 1);
        &self.shards[index]
    }

    /// Looks up `key`, cloning the stored value on a hit (and granting the
    /// slot its second chance).
    pub fn get(&self, key: &K) -> Option<V> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        match shard.map.get(key).copied() {
            Some(slot) => {
                shard.slots[slot].referenced = true;
                let value = shard.slots[slot].value.clone();
                drop(shard);
                self.hits.inc();
                Some(value)
            }
            None => {
                drop(shard);
                self.misses.inc();
                None
            }
        }
    }

    /// Inserts `key → value`, evicting via CLOCK when the stripe is full.
    /// Re-inserting an existing key keeps the first value (concurrent
    /// computations of the same key produce identical results here).
    pub fn insert(&self, key: K, value: V) {
        let outcome = {
            let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
            shard.insert(key, value)
        };
        match outcome {
            InsertOutcome::Duplicate => {}
            InsertOutcome::Inserted => {
                self.insertions.inc();
            }
            InsertOutcome::Evicted => {
                self.insertions.inc();
                self.evictions.inc();
            }
        }
    }

    /// Current number of entries (locks each stripe briefly).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").slots.len()).sum()
    }

    /// `true` if no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are preserved; they are lifetime totals).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            shard.map.clear();
            shard.slots.clear();
            shard.hand = 0;
        }
    }

    /// A consistent-enough snapshot of the counters (each counter is read
    /// atomically; the set is not a transaction).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            entries: self.len() as u64,
            capacity: self.capacity as u64,
            shards: self.shards.len() as u64,
        }
    }
}

/// Doorkeeper bits per cache entry: 32 KiB at a 65,536-entry cache.
const DOORKEEPER_BITS_PER_ENTRY: usize = 4;

/// The admission filter of TinyLFU (Einziger, Friedman and Manes, ACM ToS
/// 2017): a Bloom filter of the hashes sighted since the last reset, which
/// admits a key the second time it is sighted.
///
/// It is blocked: the three probe bits of a hash lie in one `u64`, set by a
/// single `fetch_or`, so of two threads sighting a new hash at once exactly
/// one is told it is new. The bit array is sized once from the cache
/// capacity and never grows; after `capacity` sightings it is cleared, so
/// admission reflects recent traffic and the false-positive rate stays low.
///
/// ```rust
/// use service::cache::Doorkeeper;
///
/// let doorkeeper = Doorkeeper::new(1024);
/// assert!(!doorkeeper.sight(42), "first sighting");
/// assert!(doorkeeper.sight(42), "second sighting");
/// ```
#[derive(Debug)]
pub struct Doorkeeper {
    /// The bit array, allocated on the first sighting so that binding a
    /// server does not pay for zeroing it.
    words: OnceLock<Box<[AtomicU64]>>,
    len: usize,
    sightings: AtomicU64,
    reset_every: u64,
}

impl Doorkeeper {
    /// A doorkeeper for a cache of `capacity` entries: four bits per entry,
    /// rounded up to a power of two of 64-bit words, cleared every
    /// `capacity` sightings.
    pub fn new(capacity: usize) -> Self {
        Doorkeeper {
            words: OnceLock::new(),
            len: (capacity.max(1) * DOORKEEPER_BITS_PER_ENTRY).div_ceil(64).next_power_of_two(),
            sightings: AtomicU64::new(0),
            reset_every: capacity.max(1) as u64,
        }
    }

    /// Records a sighting of `hash` and tells whether it was sighted before
    /// since the last reset (Bloom false positives aside).
    pub fn sight(&self, hash: u64) -> bool {
        let words = self.words.get_or_init(|| (0..self.len).map(|_| AtomicU64::new(0)).collect());
        let word = &words[(hash >> 32) as usize & (self.len - 1)];
        let mask = 1 << (hash & 63) | 1 << (hash >> 6 & 63) | 1 << (hash >> 12 & 63);
        let seen = word.fetch_or(mask, Ordering::Relaxed) & mask == mask;
        if (self.sightings.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(self.reset_every) {
            for word in words.iter() {
                word.store(0, Ordering::Relaxed);
            }
        }
        seen
    }

    /// Bytes of the bit array (fixed at construction).
    pub fn bytes(&self) -> usize {
        self.len * std::mem::size_of::<AtomicU64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn hit_miss_and_insert_counters() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(16, 2);
        assert_eq!(cache.get(&1), None);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&2), Some(20));
        assert_eq!(cache.get(&3), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (2, 2, 2));
        assert_eq!(stats.entries, 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reinserting_a_key_keeps_the_first_value() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(8, 1);
        cache.insert(5, 50);
        cache.insert(5, 51);
        assert_eq!(cache.get(&5), Some(50));
        assert_eq!(cache.len(), 1);
        // Duplicate inserts do not count: insertions - evictions == entries.
        let stats = cache.stats();
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.insertions - stats.evictions, stats.entries);
    }

    #[test]
    fn clock_eviction_respects_capacity_and_second_chances() {
        // One stripe of capacity 4 so the sweep is fully observable.
        let cache: ShardedCache<u32, u32> = ShardedCache::new(4, 1);
        for k in 0..4 {
            cache.insert(k, k * 10);
        }
        assert_eq!(cache.stats().evictions, 0);
        // Touch key 0 so it survives the first sweep.
        assert_eq!(cache.get(&0), Some(0));
        cache.insert(100, 1000);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 4, "capacity is a hard bound");
        assert_eq!(cache.get(&0), Some(0), "recently hit entries get a second chance");
        assert_eq!(cache.get(&100), Some(1000));
        // Exactly one of the untouched keys 1..=3 was displaced.
        let survivors = (1..4).filter(|k| cache.get(k).is_some()).count();
        assert_eq!(survivors, 2);
    }

    #[test]
    fn with_registry_exposes_counters_in_snapshots() {
        let registry = obs::Registry::new();
        let cache: ShardedCache<u32, u32> = ShardedCache::with_registry(16, 2, &registry);
        cache.insert(1, 10);
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&2), None);
        let snapshot = registry.snapshot();
        let counter =
            |name: &str| snapshot.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(counter("cache.hits"), Some(1));
        assert_eq!(counter("cache.misses"), Some(1));
        assert_eq!(counter("cache.insertions"), Some(1));
        assert_eq!(counter("cache.evictions"), Some(0));
        // The registry handles ARE the storage: stats() reads the same cells.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn eviction_storm_never_exceeds_capacity() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(64, 8);
        for k in 0..10_000u64 {
            cache.insert(k, k);
        }
        let stats = cache.stats();
        assert!(stats.entries <= stats.capacity);
        assert_eq!(stats.insertions, 10_000);
        assert!(stats.evictions >= 10_000 - stats.capacity);
    }

    #[test]
    fn concurrent_hammering_is_consistent() {
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new(256, 8));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..2_000u64 {
                        // More keys than capacity, so eviction churns under
                        // contention...
                        let key = (t * 37 + i) % 512;
                        if let Some(v) = cache.get(&key) {
                            assert_eq!(v, key * 3, "a hit must return what was stored");
                        } else {
                            cache.insert(key, key * 3);
                            // ...and the immediate re-get makes at least one
                            // hit (or a legitimate already-evicted miss that
                            // stays consistent) deterministic per iteration,
                            // independent of thread interleaving.
                            if let Some(v) = cache.get(&key) {
                                assert_eq!(v, key * 3, "a re-get must see the stored value");
                            }
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(stats.misses > 0);
        assert!(stats.entries <= stats.capacity);
    }

    #[test]
    fn shard_count_rounds_to_a_power_of_two() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(100, 3);
        assert_eq!(cache.stats().shards, 4);
        assert!(cache.stats().capacity >= 100);
    }

    #[test]
    fn doorkeeper_admits_on_second_sight_in_fixed_memory() {
        let doorkeeper = Doorkeeper::new(65_536);
        assert_eq!(doorkeeper.bytes(), 32 * 1024);
        let hash = |k: u64| {
            let mut hasher = DefaultHasher::new();
            k.hash(&mut hasher);
            hasher.finish()
        };
        let first: Vec<bool> = (0..1000).map(|k| doorkeeper.sight(hash(k))).collect();
        assert!(first.iter().all(|&seen| !seen), "a fresh filter has seen nothing");
        assert!((0..1000).all(|k| doorkeeper.sight(hash(k))), "every key is seen the second time");
        // Sightings never grow the array.
        for k in 0..50_000 {
            doorkeeper.sight(hash(k));
        }
        assert_eq!(doorkeeper.bytes(), 32 * 1024);
        assert_eq!(Doorkeeper::new(100).bytes(), 8 * 8, "400 bits round up to 8 words");
    }

    #[test]
    fn doorkeeper_resets_after_capacity_sightings() {
        let capacity = 64;
        let doorkeeper = Doorkeeper::new(capacity);
        assert!(!doorkeeper.sight(7));
        // Sightings 2..=capacity: the last one clears the filter.
        for _ in 1..capacity - 1 {
            assert!(doorkeeper.sight(7));
        }
        assert!(doorkeeper.sight(7), "sighting number {capacity} still sees the key");
        assert!(!doorkeeper.sight(7), "the reset forgot the key");
        assert!(doorkeeper.sight(7));
    }

    #[test]
    fn doorkeeper_tells_exactly_one_racing_thread_a_key_is_new() {
        let doorkeeper = Doorkeeper::new(1 << 20);
        let firsts = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for key in 0..2_000u64 {
                        if !doorkeeper.sight(key.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
                            firsts.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(firsts.into_inner(), 2_000);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_is_rejected() {
        let _: ShardedCache<u32, u32> = ShardedCache::new(0, 4);
    }
}
