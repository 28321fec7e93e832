//! The workspace's one in-memory cache: a sharded, byte-capped LRU map
//! keyed by [`Fingerprint`].  The summary store's memory tier and the
//! daemon's parsed-program and rendered-response caches are instances.

use chora_ir::Fingerprint;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One cached value plus its byte cost, LRU stamp and insertion time.
struct Entry<V> {
    value: V,
    cost: u64,
    last_used: u64,
    inserted: Instant,
}

/// One lock's worth of the cache.
struct Shard<V> {
    map: HashMap<Fingerprint, Entry<V>>,
    bytes: u64,
    /// Logical LRU clock: bumped on every touch, entries carry the stamp.
    tick: u64,
}

/// A sharded, byte-capped LRU map keyed by [`Fingerprint`].
///
/// * A key lives in shard `key % shards`; each shard is its own mutex with
///   an even split of the byte cap (at least one byte), so worker threads
///   rarely contend.
/// * An insert that pushes a shard past its cap evicts the shard's
///   least-recently-used entries; an entry bigger than a whole shard is
///   not kept at all.
/// * Entries older than `max_age` are dropped on sight.  Age is an
///   entry's *true* age: an insert may backdate it
///   ([`ShardedLru::put_aged`]), so copying an entry in from a farther
///   cache never extends its lifetime.
/// * Readers borrow the value under the shard lock
///   ([`ShardedLru::get_with`]), so inspecting an entry never copies it,
///   and may reject it, which evicts it.
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    shard_cap: Option<u64>,
    max_age: Option<Duration>,
    hits: AtomicU64,
    misses: AtomicU64,
    lru_evictions: AtomicU64,
    age_evictions: AtomicU64,
    rejections: AtomicU64,
    evicted_bytes: AtomicU64,
}

impl<V> ShardedLru<V> {
    /// A cache with `shards` independent locks (at least one), a total
    /// byte budget of `cap_bytes` (`None` = unbounded), and `max_age`
    /// expiry (`None` = never).
    pub fn new(shards: usize, cap_bytes: Option<u64>, max_age: Option<Duration>) -> ShardedLru<V> {
        let shards = shards.max(1);
        ShardedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        bytes: 0,
                        tick: 0,
                    })
                })
                .collect(),
            shard_cap: cap_bytes.map(|cap| (cap / shards as u64).max(1)),
            max_age,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            lru_evictions: AtomicU64::new(0),
            age_evictions: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
        }
    }

    fn lock(&self, key: &Fingerprint) -> MutexGuard<'_, Shard<V>> {
        self.shards[(key.0 % self.shards.len() as u128) as usize]
            .lock()
            .expect("lru shard lock")
    }

    fn expired(&self, entry: &Entry<V>) -> bool {
        self.max_age
            .is_some_and(|limit| entry.inserted.elapsed() > limit)
    }

    fn evict(&self, shard: &mut Shard<V>, key: &Fingerprint, reason: &AtomicU64) {
        if let Some(entry) = shard.map.remove(key) {
            shard.bytes -= entry.cost;
            reason.fetch_add(1, Ordering::Relaxed);
            self.evicted_bytes.fetch_add(entry.cost, Ordering::Relaxed);
        }
    }

    /// Hands the live entry under `key` to `read` under the shard lock,
    /// refreshing its recency.  An expired entry, or one `read` rejects by
    /// returning `None`, is evicted instead.
    fn lookup<R>(&self, key: &Fingerprint, read: impl FnOnce(&V) -> Option<R>) -> Option<R> {
        let mut guard = self.lock(key);
        let shard = &mut *guard;
        let entry = shard.map.get_mut(key)?;
        let reason = if self.expired(entry) {
            &self.age_evictions
        } else {
            shard.tick += 1;
            entry.last_used = shard.tick;
            match read(&entry.value) {
                Some(result) => return Some(result),
                None => &self.rejections,
            }
        };
        self.evict(shard, key, reason);
        None
    }

    /// Looks `key` up and hands its value to `read` under the shard lock,
    /// refreshing its recency.  Counts a hit when `read` returns `Some`,
    /// else a miss; an entry `read` rejects is evicted and counted in
    /// [`ShardedLru::rejections`].
    pub fn get_with<R>(&self, key: &Fingerprint, read: impl FnOnce(&V) -> Option<R>) -> Option<R> {
        let result = self.lookup(key, read);
        let counter = if result.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Inserts `value` at byte cost `cost`.
    pub fn put(&self, key: &Fingerprint, value: V, cost: u64) {
        self.put_aged(key, value, cost, None);
    }

    /// Inserts `value` at byte cost `cost`, already `age` old, then evicts
    /// the shard's least-recently-used entries until it fits its cap.
    pub fn put_aged(&self, key: &Fingerprint, value: V, cost: u64, age: Option<Duration>) {
        if self.shard_cap.is_some_and(|cap| cost > cap) {
            return;
        }
        let inserted = age
            .and_then(|a| Instant::now().checked_sub(a))
            .unwrap_or_else(Instant::now);
        let mut guard = self.lock(key);
        let shard = &mut *guard;
        shard.tick += 1;
        let entry = Entry {
            value,
            cost,
            last_used: shard.tick,
            inserted,
        };
        if let Some(old) = shard.map.insert(*key, entry) {
            shard.bytes -= old.cost;
        }
        shard.bytes += cost;
        let Some(cap) = self.shard_cap else { return };
        while shard.bytes > cap {
            // The just-inserted entry is never the minimum: it carries the
            // freshest stamp and fits the cap on its own.
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("a shard over its cap holds entries");
            self.evict(shard, &victim, &self.lru_evictions);
        }
    }

    /// Drops every expired entry.
    pub fn sweep_expired(&self) {
        if self.max_age.is_none() {
            return;
        }
        for shard in &self.shards {
            let mut guard = shard.lock().expect("lru shard lock");
            let shard = &mut *guard;
            let expired: Vec<Fingerprint> = shard
                .map
                .iter()
                .filter(|(_, e)| self.expired(e))
                .map(|(k, _)| *k)
                .collect();
            for key in expired {
                self.evict(shard, &key, &self.age_evictions);
            }
        }
    }

    /// Current `(entries, bytes)` across all shards (racy across shards).
    pub fn usage(&self) -> (u64, u64) {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("lru shard lock");
                (shard.map.len() as u64, shard.bytes)
            })
            .fold((0, 0), |(e, b), (se, sb)| (e + se, b + sb))
    }

    /// Lookups answered.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups not answered: absent, expired or rejected entries.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by LRU pressure against the byte cap.
    pub fn lru_evictions(&self) -> u64 {
        self.lru_evictions.load(Ordering::Relaxed)
    }

    /// Entries evicted because they outlived `max_age`.
    pub fn age_evictions(&self) -> u64 {
        self.age_evictions.load(Ordering::Relaxed)
    }

    /// Entries evicted because a reader rejected them.
    pub fn rejections(&self) -> u64 {
        self.rejections.load(Ordering::Relaxed)
    }

    /// Bytes (summed entry cost) removed for any reason.
    pub fn evicted_bytes(&self) -> u64 {
        self.evicted_bytes.load(Ordering::Relaxed)
    }
}

impl<V: Clone> ShardedLru<V> {
    /// Looks `key` up, refreshing its recency and counting a hit or miss.
    /// Values are cloned out, so cheap handles (`Arc<T>`) suit best.
    pub fn get(&self, key: &Fingerprint) -> Option<V> {
        self.get_with(key, |v| Some(v.clone()))
    }

    /// Like [`ShardedLru::get`], but counts neither a hit nor a miss.
    pub fn get_uncounted(&self, key: &Fingerprint) -> Option<V> {
        self.lookup(key, |v| Some(v.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses_are_counted() {
        let cache: ShardedLru<String> = ShardedLru::new(16, Some(1 << 20), None);
        let key = Fingerprint(0xfeed);
        assert_eq!(cache.get(&key), None);
        cache.put(&key, "doc".to_string(), 3);
        assert_eq!(cache.get(&key).as_deref(), Some("doc"));
        assert_eq!(
            (cache.hits(), cache.misses(), cache.usage()),
            (1, 1, (1, 3))
        );
        // Uncounted reads find the entry but move no counter.
        assert_eq!(cache.get_uncounted(&key).as_deref(), Some("doc"));
        assert_eq!(cache.get_uncounted(&Fingerprint(1)), None);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn the_byte_cap_evicts_least_recently_used_entries() {
        // Force same-shard keys so the eviction order is observable.
        let cache: ShardedLru<u32> = ShardedLru::new(16, Some(16 * 10), None);
        let key = |i: u128| Fingerprint(i * 16); // all in shard 0
        for i in 0..2 {
            cache.put(&key(i), i as u32, 4);
        }
        assert!(cache.get(&key(0)).is_some(), "refresh key 0");
        cache.put(&key(2), 2, 4); // 12 bytes > 10: evicts key 1 (LRU), not 0
        assert_eq!(cache.get(&key(1)), None, "LRU entry evicted");
        assert!(cache.get(&key(0)).is_some());
        assert!(cache.get(&key(2)).is_some());
        assert_eq!((cache.lru_evictions(), cache.evicted_bytes()), (1, 4));
        // Oversized entries are refused outright.
        cache.put(&key(3), 3, 1 << 20);
        assert_eq!(cache.get(&key(3)), None);
    }

    #[test]
    fn rejected_and_expired_entries_are_evicted() {
        let cache: ShardedLru<u32> = ShardedLru::new(2, None, Some(Duration::from_millis(200)));
        cache.put(&Fingerprint(1), 1, 4);
        assert_eq!(cache.get_with(&Fingerprint(1), |_| None::<()>), None);
        assert_eq!(
            cache.get(&Fingerprint(1)),
            None,
            "the rejected entry is gone"
        );
        assert_eq!((cache.rejections(), cache.misses()), (1, 2));
        // A backdated insert expires on its true age.
        cache.put_aged(&Fingerprint(2), 2, 4, Some(Duration::from_millis(150)));
        cache.put(&Fingerprint(3), 3, 4);
        assert_eq!(cache.get(&Fingerprint(2)), Some(2), "still within max_age");
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(cache.get(&Fingerprint(2)), None, "150 + 60 ms > 200 ms");
        cache.sweep_expired();
        assert_eq!(cache.usage(), (1, 4), "the fresh entry stays");
        assert_eq!(cache.age_evictions(), 1);
        assert_eq!(cache.evicted_bytes(), 8);
    }
}
