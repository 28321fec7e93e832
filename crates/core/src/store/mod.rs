//! Pluggable summary stores: where the analyzer keeps procedure summaries
//! between runs.
//!
//! The driver looks components up by their transitive fingerprint
//! ([`chora_ir::fingerprint`]) before summarizing: a hit restores the
//! component's summaries and its members' assertion verdicts exactly
//! (skipping height/depth/recurrence solving and the assertion walk
//! entirely), a miss summarizes, checks and stores.
//!
//! # Architecture
//!
//! [`SummaryStore`] is the driver-facing trait: decoded
//! [`ComponentEntry`]s in, decoded entries out, plus the two lifetime
//! eviction totals behind each batch's [`CacheStats`].  Every other
//! counter of the stack is in one snapshot, [`TieredStore::counters`].
//!
//! [`TieredStore`] is the store every command runs against: an L1 memory
//! tier over an optional L2 disk tier over an optional L3 remote tier.
//! It probes them in that order, promotes hits toward the front (with the
//! entry's true age), and writes stores through to every tier.
//!
//! * The memory tier is a [`ShardedLru`] — the workspace's one sharded,
//!   byte-capped, LRU-evicting in-memory cache — of validated serialized
//!   entries.  A `TieredStore` with no other tier is the plain in-memory
//!   store.
//! * The disk tier is a [`DiskStore`] (one file per key under a versioned
//!   cache directory) with the stack's age limit; like [`RemoteStore`], it
//!   is only ever a tier.
//! * [`RemoteStore`] speaks `GET`/`PUT /v1/summaries/{keyhex}` against one
//!   or more `chora serve` daemons (chosen per key by rendezvous hashing),
//!   with a per-target circuit breaker so a dead peer degrades to the
//!   local tiers.
//!
//! [`SingleFlight`] wraps any [`SummaryStore`] to coalesce concurrent
//! misses on the same key, so a thundering herd on a cold cone computes it
//! once.

use crate::analysis::{AssertionResult, ProcedureSummary};
use crate::cache::ScopeResolver;
use chora_ir::Fingerprint;
use std::fmt;

mod disk;
mod lru;
mod remote;
mod singleflight;
mod tiered;

pub use disk::DiskStore;
pub use lru::ShardedLru;
pub use remote::RemoteStore;
pub use singleflight::{FlightCounters, SingleFlight};
pub use tiered::{TierCounters, TieredConfig, TieredStore};

/// Counters reported by a cache-backed analysis run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Components restored from the store.
    pub hits: u64,
    /// Components summarized from scratch.
    pub misses: u64,
    /// Store entries discarded as corrupted or version-mismatched.
    pub evictions: u64,
    /// Store entries removed by garbage collection — LRU pressure against
    /// the byte cap or age expiry — as opposed to corruption.
    pub gc_evictions: u64,
}

impl CacheStats {
    /// Total number of lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} evictions, {} gc evictions",
            self.hits, self.misses, self.evictions, self.gc_evictions
        )
    }
}

/// What a store keeps for one call-graph component: each member's summary
/// and the verdicts of the asserts in the members' bodies.
///
/// Both depend only on the component key, which hashes every member body
/// (each `assert`'s label and condition included) and the keys of the whole
/// callee cone, so a hit's verdicts are the ones a walk would give.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ComponentEntry {
    /// One summary per member, in member order.
    pub summaries: Vec<ProcedureSummary>,
    /// The verdict of every assert in the members' bodies; one member's
    /// verdicts are in body order.
    pub assertions: Vec<AssertionResult>,
}

/// A keyed store of per-component entries.
///
/// Implementations must be best-effort: `load` returns `None` for anything
/// it cannot produce intact, and `store` may silently drop entries (the
/// analysis is correct with an empty store; the store only buys speed).
/// `Sync` is required because the driver probes the store from its worker
/// threads (one load per component, concurrently within a level).
///
/// Both operations take the caller's [`ScopeResolver`]: entries are kept
/// in a scope-canonical form independent of the bottom-up component order,
/// and the resolver supplies this run's component-key ↔ scope assignment so
/// loads rescope restored fresh symbols into the current schedule (see
/// `crate::cache`).  A load whose rescope is impossible is discarded and
/// counted as a corruption eviction, never a panic.
pub trait SummaryStore: Sync {
    /// The entry cached under `key`, if present, intact, and rescopable
    /// into the current run — already rescoped.
    fn load(&self, key: &Fingerprint, scopes: &dyn ScopeResolver) -> Option<ComponentEntry>;

    /// Caches the entry of one component under its key.
    fn store(&self, key: &Fingerprint, entry: &ComponentEntry, scopes: &dyn ScopeResolver);

    /// Lifetime `(corruption, space-or-age)` eviction totals, summed
    /// across the store's tiers: entries discarded as corrupted,
    /// version-mismatched or unrescopable, and entries removed by LRU
    /// pressure, expiry or GC.  The driver reports their per-batch deltas in
    /// [`CacheStats`].
    fn eviction_totals(&self) -> (u64, u64);
}

/// Registers (or fetches) the per-tier load-latency histogram — one
/// Prometheus series `chora_store_load_duration_ms{tier=...}` per tier.
pub(crate) fn load_histogram(tier: &'static str) -> &'static chora_telemetry::metrics::Histogram {
    chora_telemetry::metrics::registry().histogram_with(
        "chora_store_load_duration_ms",
        "Summary-store load latency by tier, milliseconds.",
        &[("tier", tier)],
    )
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use chora_logic::TransitionFormula;
    use std::path::PathBuf;

    /// An entry of trivial summaries named `names`, with no assertions.
    pub fn entry(names: &[&str]) -> ComponentEntry {
        ComponentEntry {
            summaries: names
                .iter()
                .map(|name| ProcedureSummary {
                    name: name.to_string(),
                    formula: TransitionFormula::top(),
                    bound_facts: Vec::new(),
                    depth: None,
                    recursive: false,
                })
                .collect(),
            assertions: Vec::new(),
        }
    }

    /// A memory-only store with no byte cap.
    pub fn memory_store() -> TieredStore {
        TieredStore::new(
            None,
            None,
            TieredConfig {
                cap_bytes: None,
                ..TieredConfig::default()
            },
        )
    }

    pub fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("chora-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// An entry whose one summary mentions a fresh symbol, plus resolvers
    /// that can and cannot rescope it: the "can" side owns scope 0 under a
    /// synthetic component key, the "cannot" side knows nothing.
    pub fn fresh_entry() -> ComponentEntry {
        let t = chora_expr::FreshSource::new(0).fresh();
        let mut entry = entry(&["f"]);
        entry.summaries[0].formula =
            TransitionFormula::from_polyhedron(chora_logic::Polyhedron::from_atoms(vec![
                chora_logic::Atom::ge(
                    chora_expr::Polynomial::var(t),
                    chora_expr::Polynomial::zero(),
                ),
            ]));
        entry
    }

    pub struct OneScope;
    impl crate::cache::ScopeResolver for OneScope {
        fn scope_of(&self, key: &Fingerprint) -> Option<u32> {
            (key.0 == 0xc0ffee).then_some(0)
        }
        fn key_of(&self, scope: u32) -> Option<Fingerprint> {
            (scope == 0).then_some(Fingerprint(0xc0ffee))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use crate::cache::{NullScopes, CACHE_VERSION};
    use std::time::Duration;

    fn corrupt_total(store: &dyn SummaryStore) -> u64 {
        store.eviction_totals().0
    }

    #[test]
    fn unrescopable_loads_count_as_corruption_evictions_not_panics() {
        let store = memory_store();
        let key = Fingerprint(0xc0ffee);
        store.store(&key, &fresh_entry(), &OneScope);
        assert!(
            store.load(&key, &OneScope).is_some(),
            "rescopable entry must hit"
        );
        assert_eq!(corrupt_total(&store), 0);
        // This "run" has no component behind the recorded key: the fresh
        // symbol cannot be rescoped — evict, never panic.
        assert!(
            store.load(&key, &NullScopes).is_none(),
            "unrescopable entry must miss"
        );
        assert_eq!(
            corrupt_total(&store),
            1,
            "the discard must count as a corruption eviction"
        );
        // The slot is reusable afterwards.
        assert!(store.load(&key, &OneScope).is_none());
        store.store(&key, &fresh_entry(), &OneScope);
        assert!(store.load(&key, &OneScope).is_some());
        // Same through the disk tier, where the entry file must also be
        // gone: a second store over the directory reads the disk.
        let root = temp_dir("rescope-evict");
        let key = Fingerprint(0xc0ffee);
        let writer = TieredStore::open(&root, TieredConfig::default()).expect("open");
        writer.store(&key, &fresh_entry(), &OneScope);
        let path = writer
            .disk()
            .expect("disk tier")
            .dir()
            .join(format!("{}.json", key.to_hex()));
        assert!(path.exists());
        let store = TieredStore::open(&root, TieredConfig::default()).expect("open");
        assert!(store.load(&key, &NullScopes).is_none());
        let disk = store.disk().expect("disk tier");
        assert_eq!(disk.evictions(), 1);
        assert_eq!(disk.gc_evictions(), 0, "rescope failure is not GC");
        assert!(!path.exists(), "unrescopable entry must be deleted");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn memory_store_round_trips() {
        let store = memory_store();
        let key = Fingerprint(7);
        assert!(store.load(&key, &NullScopes).is_none());
        let mut stored = entry(&["f", "g"]);
        stored.assertions = [("g", "a", true), ("g", "b", false)]
            .map(|(procedure, label, verified)| AssertionResult {
                procedure: procedure.to_string(),
                label: label.to_string(),
                verified,
            })
            .to_vec();
        store.store(&key, &stored, &NullScopes);
        let loaded = store.load(&key, &NullScopes).expect("hit");
        assert_eq!(loaded, stored, "summaries and verdicts round-trip");
        let c = store.counters();
        assert_eq!(c.mem_hits, 1);
        assert_eq!(c.misses, 1);
        assert_eq!(c.stores, 1);
        assert_eq!(c.mem_entries, 1);
        assert_eq!(c.corrupt_evictions, 0);
    }

    #[test]
    fn disk_store_round_trips_and_evicts_corruption() {
        let root = temp_dir("roundtrip");
        // Every load after a store goes through a fresh store over the
        // directory, so it reads the disk tier rather than a memory copy.
        let open = || TieredStore::open(&root, TieredConfig::default()).expect("open");
        let key = Fingerprint(9);
        let writer = open();
        assert!(writer.load(&key, &NullScopes).is_none());
        writer.store(&key, &entry(&["f"]), &NullScopes);
        assert_eq!(
            open().load(&key, &NullScopes).expect("hit").summaries[0].name,
            "f"
        );

        // Corrupt the entry on disk: next load evicts it instead of failing.
        let path = writer
            .disk()
            .expect("disk tier")
            .dir()
            .join(format!("{}.json", key.to_hex()));
        std::fs::write(&path, "{ definitely not a cache entry").expect("corrupt");
        let store = open();
        assert!(store.load(&key, &NullScopes).is_none());
        let disk = store.disk().expect("disk tier");
        assert_eq!(disk.evictions(), 1);
        assert_eq!(disk.gc_evictions(), 0, "corruption is not GC");
        assert_eq!(store.eviction_totals(), (1, 0));
        assert!(!path.exists(), "corrupt entry must be deleted");
        // And the slot is usable again.
        store.store(&key, &entry(&["f"]), &NullScopes);
        assert!(open().load(&key, &NullScopes).is_some());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_store_namespaces_by_version() {
        let root = temp_dir("version");
        let store = DiskStore::open(&root).expect("open");
        assert!(store.dir().ends_with(format!("v{CACHE_VERSION}")));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn opening_sweeps_stale_older_version_directories() {
        let root = temp_dir("stale-versions");
        // An unreadable previous-format tree, a future format's tree, and
        // an unrelated directory.
        for sub in ["v1", &format!("v{}", CACHE_VERSION + 1), "not-a-version"] {
            std::fs::create_dir_all(root.join(sub)).expect("mkdir");
            std::fs::write(root.join(sub).join("entry.json"), "old bytes").expect("write");
        }
        let _store = DiskStore::open(&root).expect("open");
        assert!(
            !root.join("v1").exists(),
            "older-version directories must be reclaimed on open"
        );
        assert!(
            root.join(format!("v{}", CACHE_VERSION + 1)).exists(),
            "a newer binary's namespace must be left alone"
        );
        assert!(
            root.join("not-a-version").exists(),
            "unrelated directories must be left alone"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_gc_expires_by_age_and_caps_by_bytes() {
        let root = temp_dir("gc");
        let open = || TieredStore::open(&root, TieredConfig::default()).expect("open");
        let writer = open();
        let store = writer.disk().expect("disk tier");
        for i in 0..4u128 {
            writer.store(&Fingerprint(i), &entry(&[&format!("p{i}")]), &NullScopes);
        }
        // Nothing is older than an hour: the age pass removes nothing.
        assert_eq!(store.gc(Some(Duration::from_secs(3600)), None), 0);
        assert_eq!(store.gc_evictions(), 0);

        // Age zero expires everything.
        std::thread::sleep(Duration::from_millis(20));
        let removed = store.gc(Some(Duration::ZERO), None);
        assert_eq!(removed, 4);
        assert_eq!(store.gc_evictions(), 4);
        assert!(open().load(&Fingerprint(0), &NullScopes).is_none());
        assert_eq!(
            store.evictions(),
            0,
            "GC removals must not count as corruption evictions"
        );

        // Byte cap: refill, then shrink to a cap below the total.
        for i in 0..4u128 {
            writer.store(&Fingerprint(i), &entry(&[&format!("p{i}")]), &NullScopes);
        }
        let total = store.disk_bytes();
        assert!(total > 0);
        let removed = store.gc(None, Some(total / 2));
        assert!(removed >= 1, "cap pass must delete oldest entries");
        assert!(store.disk_bytes() <= total / 2);
        let _ = std::fs::remove_dir_all(&root);
    }
}
