//! The summary store stack: memory in front of optional disk in front of
//! an optional remote fleet cache.

use super::disk::DiskStore;
use super::lru::ShardedLru;
use super::remote::RemoteStore;
use super::{load_histogram, SummaryStore};
use crate::analysis::ProcedureSummary;
use crate::cache::{decode_entry, encode_entry, ScopeResolver};
use chora_ir::Fingerprint;
use chora_telemetry::metrics::Histogram;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sizing and expiry policy of a [`TieredStore`].
#[derive(Clone, Copy, Debug)]
pub struct TieredConfig {
    /// Byte budget of the in-memory tier (serialized entry bytes, split
    /// evenly across shards).  `None` = unbounded.  The same cap also
    /// bounds the disk tier during [`TieredStore::gc`].
    pub cap_bytes: Option<u64>,
    /// Entries older than this are evicted instead of served (both local
    /// tiers).  `None` = entries never expire.
    pub max_age: Option<Duration>,
    /// Number of independently-locked shards of the memory tier.
    pub shards: usize,
}

impl Default for TieredConfig {
    /// 64 MiB in memory, no expiry, 8 shards.
    fn default() -> Self {
        TieredConfig {
            cap_bytes: Some(64 << 20),
            max_age: None,
            shards: 8,
        }
    }
}

/// Cumulative counters and current gauges of a [`TieredStore`], as one
/// flat snapshot: the store stack's one counter snapshot, behind
/// `/v1/stats`, `/v1/metrics` and `bench --server`.
#[derive(Clone, Copy, Debug, Default)]
pub struct TierCounters {
    /// Loads served by the in-memory tier (zero filesystem work).
    pub mem_hits: u64,
    /// Loads served by the disk tier (and promoted into memory).
    pub disk_hits: u64,
    /// Loads answered by no tier.
    pub misses: u64,
    /// Entries written (to memory, and through to farther tiers).
    pub stores: u64,
    /// Times the disk tier was consulted at all (memory misses).
    pub disk_probes: u64,
    /// Memory-tier entries evicted by LRU pressure against the byte cap,
    /// and entries refused for being bigger than a whole shard.
    pub lru_evictions: u64,
    /// Entries evicted (memory or disk) because they outlived `max_age`.
    pub age_evictions: u64,
    /// Entries discarded as corrupt (any tier).
    pub corrupt_evictions: u64,
    /// Disk entries removed by [`TieredStore::gc`] passes, and expired
    /// disk entries a load removed.
    pub disk_gc_removed: u64,
    /// Total bytes removed from either local tier, for any reason (LRU or
    /// age pressure, corruption, GC) — the churn number `/v1/stats`
    /// reports.
    pub evicted_bytes: u64,
    /// Current number of entries in the memory tier.
    pub mem_entries: u64,
    /// Current serialized bytes held by the memory tier.
    pub mem_bytes: u64,
}

/// The summary store stack: L1 memory, L2 disk (optional), L3 remote
/// fleet cache (optional).
///
/// * A load probes memory, then disk, then remote.  A disk hit is copied
///   into memory with the entry's true age; a remote hit is copied into
///   disk, then memory, aged from now (the fleet just vended it).
/// * A store writes to memory, then disk, then remote.
/// * Each tier validates what it serves: an entry that fails to decode is
///   counted as corrupt at its tier (and evicted from a local one), and
///   the probe falls through to the next tier.
///
/// The memory tier is a [`ShardedLru`] of serialized entries, byte-capped
/// and sharded per [`TieredConfig`]; a store without disk or remote is a
/// plain in-memory store.
pub struct TieredStore {
    mem: ShardedLru<String>,
    disk: Option<DiskStore>,
    remote: Option<RemoteStore>,
    config: TieredConfig,
    mem_load_hist: &'static Histogram,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl TieredStore {
    /// A tiered store over an already-open disk tier and a remote fleet
    /// cache, each optional (neither = a plain in-memory store).
    pub fn new(
        disk: Option<DiskStore>,
        remote: Option<RemoteStore>,
        config: TieredConfig,
    ) -> TieredStore {
        TieredStore {
            mem: ShardedLru::new(config.shards, config.cap_bytes, config.max_age),
            disk: disk.map(|mut d| {
                d.max_age = config.max_age;
                d
            }),
            remote,
            config,
            mem_load_hist: load_histogram("memory"),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        }
    }

    /// Convenience: a tiered store whose disk tier lives under `root`.
    pub fn open(root: impl AsRef<Path>, config: TieredConfig) -> std::io::Result<TieredStore> {
        Ok(TieredStore::new(Some(DiskStore::open(root)?), None, config))
    }

    /// The disk tier's backing store, when one is configured.
    pub fn disk(&self) -> Option<&DiskStore> {
        self.disk.as_ref()
    }

    /// The remote tier, when one is configured.
    pub fn remote(&self) -> Option<&RemoteStore> {
        self.remote.as_ref()
    }

    /// The sizing/expiry configuration this store resolved to.
    pub fn config(&self) -> TieredConfig {
        self.config
    }

    /// Keeps validated serialized bytes in the memory tier, `age` old.
    fn put_mem(&self, key: &Fingerprint, text: String, age: Option<Duration>) {
        let cost = text.len() as u64;
        self.mem.put_aged(key, text, cost, age);
    }

    /// The raw serialized entry under `key` from the *local* tiers only
    /// (memory, then disk) — what this daemon serves to peers asking
    /// `GET /v1/summaries/{key}`.  The remote tier is never consulted, so
    /// a ring of daemons pointing at each other cannot forward a request
    /// in a loop.  Refreshes the entry's recency without counting a
    /// memory hit or miss.
    pub fn load_local_text(&self, key: &Fingerprint) -> Option<String> {
        self.mem
            .get_uncounted(key)
            .or_else(|| self.disk()?.load_text(key))
    }

    /// Adopts an already-encoded entry into the *local* tiers (memory and
    /// disk, never back out to the remote) — what `PUT /v1/summaries/{key}`
    /// does with an entry uploaded by a peer.  The caller has already
    /// validated the envelope against `key`.
    pub fn store_local_text(&self, key: &Fingerprint, text: &str) {
        self.put_mem(key, text.to_string(), None);
        if let Some(disk) = &self.disk {
            disk.store_encoded(key, text);
        }
    }

    /// Snapshot of every counter (cumulative) and gauge (current).
    pub fn counters(&self) -> TierCounters {
        let mem = &self.mem;
        let disk = self.disk.as_ref();
        let (mem_entries, mem_bytes) = mem.usage();
        TierCounters {
            mem_hits: mem.hits(),
            disk_hits: disk.map_or(0, DiskStore::hits),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            disk_probes: disk.map_or(0, |d| d.hits() + d.misses()),
            lru_evictions: mem.lru_evictions(),
            age_evictions: mem.age_evictions() + disk.map_or(0, DiskStore::age_evictions),
            corrupt_evictions: self.eviction_totals().0,
            disk_gc_removed: disk.map_or(0, DiskStore::gc_evictions),
            evicted_bytes: mem.evicted_bytes() + disk.map_or(0, DiskStore::removed_bytes),
            mem_entries,
            mem_bytes,
        }
    }

    /// One garbage-collection pass over the local tiers: drops expired
    /// memory entries and runs [`DiskStore::gc`] with this store's age and
    /// byte limits.  The remote tier is its owner's to collect.
    pub fn gc(&self) {
        self.mem.sweep_expired();
        if let Some(disk) = self.disk() {
            disk.gc(self.config.max_age, self.config.cap_bytes);
        }
    }
}

impl SummaryStore for TieredStore {
    fn load(&self, key: &Fingerprint, scopes: &dyn ScopeResolver) -> Option<Vec<ProcedureSummary>> {
        let started = Instant::now();
        // Decodes from the borrowed entry under the shard lock; an entry
        // that no longer decodes (memory was scribbled on) is evicted as
        // corrupt and the probe falls through to disk.
        let hit = self
            .mem
            .get_with(key, |text| decode_entry(text, key, scopes));
        self.mem_load_hist
            .observe_ms(started.elapsed().as_secs_f64() * 1e3);
        if hit.is_some() {
            return hit;
        }
        if let Some((text, summaries, age)) = self
            .disk
            .as_ref()
            .and_then(|d| d.load_validated(key, scopes))
        {
            self.put_mem(key, text, age);
            return Some(summaries);
        }
        if let Some((text, summaries)) = self.remote.as_ref().and_then(|r| r.load(key, scopes)) {
            if let Some(disk) = &self.disk {
                disk.store_encoded(key, &text);
            }
            self.put_mem(key, text, None);
            return Some(summaries);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn store(&self, key: &Fingerprint, summaries: &[ProcedureSummary], scopes: &dyn ScopeResolver) {
        let Some(encoded) = encode_entry(key, summaries, scopes) else {
            return;
        };
        self.put_mem(key, encoded.clone(), None);
        if let Some(disk) = &self.disk {
            disk.store_encoded(key, &encoded);
        }
        if let Some(remote) = &self.remote {
            remote.store(key, &encoded, scopes);
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
    }

    /// Corruption across all three tiers; LRU and age evictions in memory
    /// plus the disk's GC removals, which include the expired entries its
    /// loads removed.
    fn eviction_totals(&self) -> (u64, u64) {
        let (mem, disk) = (&self.mem, self.disk.as_ref());
        (
            mem.rejections()
                + disk.map_or(0, DiskStore::evictions)
                + self.remote.as_ref().map_or(0, RemoteStore::corrupt),
            mem.lru_evictions() + mem.age_evictions() + disk.map_or(0, DiskStore::gc_evictions),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{summary, temp_dir};
    use super::*;
    use crate::cache::NullScopes;

    #[test]
    fn tiered_store_serves_warm_hits_from_memory() {
        let root = temp_dir("tiered-warm");
        let store = TieredStore::open(&root, TieredConfig::default()).expect("open");
        let key = Fingerprint(11);
        assert!(store.load(&key, &NullScopes).is_none());
        store.store(&key, &[summary("f")], &NullScopes);
        // First and every following load is a pure memory hit: the disk
        // tier was probed exactly once (the initial miss).
        assert_eq!(store.load(&key, &NullScopes).expect("hit")[0].name, "f");
        assert_eq!(store.load(&key, &NullScopes).expect("hit")[0].name, "f");
        let c = store.counters();
        assert_eq!(c.mem_hits, 2);
        assert_eq!(c.disk_probes, 1, "only the cold miss touched disk");
        assert_eq!(c.misses, 1);
        assert_eq!(c.mem_entries, 1);
        assert!(c.mem_bytes > 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tiered_store_promotes_disk_entries_into_memory() {
        let root = temp_dir("tiered-promote");
        let key = Fingerprint(12);
        // A different handle (think: another process) populated the disk.
        TieredStore::open(&root, TieredConfig::default())
            .expect("open")
            .store(&key, &[summary("g")], &NullScopes);
        let store = TieredStore::open(&root, TieredConfig::default()).expect("open");
        assert_eq!(
            store.load(&key, &NullScopes).expect("disk hit")[0].name,
            "g"
        );
        assert_eq!(store.load(&key, &NullScopes).expect("mem hit")[0].name, "g");
        let c = store.counters();
        assert_eq!(c.disk_hits, 1);
        assert_eq!(c.mem_hits, 1);
        assert_eq!(c.disk_probes, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tiered_store_evicts_lru_under_byte_pressure() {
        // One shard so the LRU order is global and observable; cap sized
        // for roughly two entries.
        let store = TieredStore::new(
            None,
            None,
            TieredConfig {
                cap_bytes: None,
                max_age: None,
                shards: 1,
            },
        );
        store.store(&Fingerprint(1), &[summary("a")], &NullScopes);
        let entry_bytes = store.counters().mem_bytes;
        let store = TieredStore::new(
            None,
            None,
            TieredConfig {
                cap_bytes: Some(entry_bytes * 2 + entry_bytes / 2),
                max_age: None,
                shards: 1,
            },
        );
        store.store(&Fingerprint(1), &[summary("a")], &NullScopes);
        store.store(&Fingerprint(2), &[summary("b")], &NullScopes);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(store.load(&Fingerprint(1), &NullScopes).is_some());
        store.store(&Fingerprint(3), &[summary("c")], &NullScopes);
        let c = store.counters();
        assert_eq!(c.lru_evictions, 1);
        assert_eq!(c.mem_entries, 2);
        assert!(
            store.load(&Fingerprint(1), &NullScopes).is_some(),
            "recently used stays"
        );
        assert!(
            store.load(&Fingerprint(3), &NullScopes).is_some(),
            "newest stays"
        );
        assert!(
            store.load(&Fingerprint(2), &NullScopes).is_none(),
            "least-recently-used entry must be the one evicted"
        );
        let c = store.counters();
        assert_eq!(c.misses, 1);
        assert_eq!(c.corrupt_evictions, 0);
    }

    #[test]
    fn promotion_preserves_an_entrys_true_age() {
        let root = temp_dir("tiered-backdate");
        let key = Fingerprint(31);
        TieredStore::open(&root, TieredConfig::default())
            .expect("open")
            .store(&key, &[summary("f")], &NullScopes);
        // Entry is ~35ms old by the time the tiered handle promotes it.
        std::thread::sleep(Duration::from_millis(35));
        let store = TieredStore::open(
            &root,
            TieredConfig {
                cap_bytes: None,
                max_age: Some(Duration::from_millis(60)),
                shards: 1,
            },
        )
        .expect("open tiered");
        assert!(
            store.load(&key, &NullScopes).is_some(),
            "still within max_age"
        );
        // 35ms + 40ms > 60ms: the promoted copy must expire on its *true*
        // age, not on time-since-promotion.
        std::thread::sleep(Duration::from_millis(40));
        assert!(
            store.load(&key, &NullScopes).is_none(),
            "promotion must not reset the expiry clock"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tiered_store_expires_entries_by_age() {
        let root = temp_dir("tiered-age");
        let store = TieredStore::open(
            &root,
            TieredConfig {
                cap_bytes: None,
                max_age: Some(Duration::from_millis(30)),
                shards: 2,
            },
        )
        .expect("open");
        let key = Fingerprint(21);
        store.store(&key, &[summary("f")], &NullScopes);
        assert!(store.load(&key, &NullScopes).is_some(), "fresh entry hits");
        std::thread::sleep(Duration::from_millis(60));
        assert!(
            store.load(&key, &NullScopes).is_none(),
            "expired entry must not hit"
        );
        let c = store.counters();
        assert!(c.age_evictions >= 1, "expiry must be counted: {c:?}");
        assert_eq!(c.corrupt_evictions, 0);
        // gc() sweeps the disk tier too: after it, the directory is empty.
        store.store(&key, &[summary("f")], &NullScopes);
        std::thread::sleep(Duration::from_millis(60));
        store.gc();
        assert_eq!(store.disk().expect("disk tier").disk_bytes(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_disk_age_expiry_counts_once() {
        let root = temp_dir("tiered-expiry-once");
        let config = TieredConfig {
            cap_bytes: None,
            max_age: Some(Duration::from_millis(30)),
            shards: 2,
        };
        let key = Fingerprint(51);
        TieredStore::open(&root, config)
            .expect("open")
            .store(&key, &[summary("f")], &NullScopes);
        std::thread::sleep(Duration::from_millis(60));
        let store = TieredStore::open(&root, config).expect("open");
        assert!(store.load(&key, &NullScopes).is_none(), "expired on disk");
        assert_eq!(store.eviction_totals(), (0, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn local_text_accessors_skip_the_remote_tier() {
        let root = temp_dir("tiered-localtext");
        let store = TieredStore::open(&root, TieredConfig::default()).expect("open");
        let key = Fingerprint(41);
        assert!(store.load_local_text(&key).is_none());
        store.store(&key, &[summary("f")], &NullScopes);
        let text = store.load_local_text(&key).expect("stored entry");
        assert_eq!(crate::cache::entry_key(&text), Some(key));
        // A second store adopts the raw entry without decoding it.
        let other = TieredStore::new(None, None, TieredConfig::default());
        other.store_local_text(&key, &text);
        assert_eq!(other.load(&key, &NullScopes).expect("adopted")[0].name, "f");
        // Adoption is not an analysis-facing store: the counter that
        // feeds CacheStats must not move.
        assert_eq!(other.counters().stores, 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}
