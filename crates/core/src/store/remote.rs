//! The remote fleet-cache tier: summaries fetched from and published to a
//! peer daemon's store over `GET`/`PUT /v1/summaries/{key}`.
//!
//! Entries are scope-canonical on the wire (the same form they take on
//! disk), so any daemon's cache can serve any peer's analysis of any
//! program — the consuming side rescopes on decode exactly as it does for
//! a local disk hit.  Multiple cache daemons form a static ring via
//! rendezvous hashing: each key deterministically picks one owner, so the
//! fleet shares one logical cache without coordination.

use super::{load_histogram, ComponentEntry};
use crate::cache::{decode_entry, ScopeResolver};
use chora_ir::Fingerprint;
use chora_server::client::{Client, ClientConfig};
use chora_telemetry::metrics::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Bound on establishing a TCP connection to a cache daemon.  A cache probe
/// must never stall an analysis the way a dead-but-routable peer would under
/// the OS default (minutes).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Bound on each request once connected.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// After a connection-level failure the target is considered down and
/// skipped, without probing, for this long.
const COOLDOWN: Duration = Duration::from_secs(5);

/// Idle keep-alive connections retained per target.
const POOL_PER_TARGET: usize = 8;

/// One cache daemon in the ring: its address, a small pool of keep-alive
/// connections, and a circuit breaker.
struct Target {
    addr: String,
    pool: Mutex<Vec<Client>>,
    /// When set, the target failed recently and is skipped until the
    /// instant passes.
    down_until: Mutex<Option<Instant>>,
}

impl Target {
    fn is_down(&self) -> bool {
        let mut down = self.down_until.lock().expect("remote target breaker lock");
        match *down {
            Some(until) if Instant::now() < until => true,
            Some(_) => {
                // Cooldown over: close the breaker, next probe is live.
                *down = None;
                false
            }
            None => false,
        }
    }

    fn mark_down(&self, cooldown: Duration) {
        *self.down_until.lock().expect("remote target breaker lock") =
            Some(Instant::now() + cooldown);
    }
}

/// The L3 tier: a peer daemon (or static set of daemons) holding the
/// fleet's shared summary cache.
///
/// * A load asks the key's owner for the entry and validates the response
///   exactly as a disk read would (corrupt payloads are counted, never
///   trusted) — a hit carries the raw text upward so nearer tiers adopt it.
/// * A store publishes write-through, tagged with the source program's
///   fingerprint so the cache daemon can attribute cross-program reuse.
/// * A daemon serving `/v1/summaries/{key}` consults only its local tiers
///   ([`super::TieredStore::load_local_text`] never asks this one), so
///   daemons pointing at each other can never forward a request in a loop.
/// * Unreachable targets trip a per-target circuit breaker: the analysis
///   proceeds on the local tiers and the skip is counted, not retried in
///   the hot path.
pub struct RemoteStore {
    targets: Vec<Target>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt: AtomicU64,
    errors: AtomicU64,
    skipped: AtomicU64,
    load_hist: &'static Histogram,
}

impl RemoteStore {
    /// A remote tier over `spec`: one or more daemon addresses, separated
    /// by commas (`host:port[,host:port...]`, an optional `http://` prefix
    /// and trailing `/` are tolerated).  Returns `None` when `spec`
    /// contains no usable address.
    pub fn from_spec(spec: &str) -> Option<RemoteStore> {
        let targets: Vec<Target> = spec
            .split(',')
            .map(|part| {
                part.trim()
                    .trim_start_matches("http://")
                    .trim_end_matches('/')
            })
            .filter(|addr| !addr.is_empty())
            .map(|addr| Target {
                addr: addr.to_string(),
                pool: Mutex::new(Vec::new()),
                down_until: Mutex::new(None),
            })
            .collect();
        if targets.is_empty() {
            return None;
        }
        Some(RemoteStore {
            targets,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            load_hist: load_histogram("remote"),
        })
    }

    /// The configured daemon addresses.
    pub fn addrs(&self) -> Vec<&str> {
        self.targets.iter().map(|t| t.addr.as_str()).collect()
    }

    /// Loads answered by the remote cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Loads the remote cache did not have (`404`).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries published to the remote cache.
    pub fn stores(&self) -> u64 {
        self.stores.load(Ordering::Relaxed)
    }

    /// Responses rejected by validation (wire corruption, or a peer on a
    /// different encoding).
    pub fn corrupt(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Requests that failed at the transport or protocol level.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Probes skipped outright because the key's owner was in cooldown —
    /// the "analysis proceeded without its remote tier" signal.
    pub fn skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    /// The ring owner of `key` among targets not in cooldown: highest
    /// rendezvous score wins, so each key has one deterministic owner and
    /// losing a target only remaps that target's share of the keyspace.
    fn owner(&self, key: &Fingerprint) -> Option<&Target> {
        self.targets
            .iter()
            .filter(|t| !t.is_down())
            .max_by_key(|t| rendezvous_score(&t.addr, key))
    }

    /// Runs `request` on a pooled connection to `target`, returning the
    /// connection to the pool on success and tripping the breaker on
    /// connection-level failure.
    fn with_client<R>(
        &self,
        target: &Target,
        request: impl FnOnce(&mut Client) -> std::io::Result<R>,
    ) -> std::io::Result<R> {
        let mut client = target
            .pool
            .lock()
            .expect("remote target pool lock")
            .pop()
            .unwrap_or_else(|| {
                Client::with_config(
                    &target.addr,
                    ClientConfig {
                        connect_timeout: Some(CONNECT_TIMEOUT),
                        io_timeout: IO_TIMEOUT,
                        ..ClientConfig::default()
                    },
                )
            });
        match request(&mut client) {
            Ok(result) => {
                let mut pool = target.pool.lock().expect("remote target pool lock");
                if pool.len() < POOL_PER_TARGET {
                    pool.push(client);
                }
                Ok(result)
            }
            Err(e) => {
                target.mark_down(COOLDOWN);
                Err(e)
            }
        }
    }
}

/// Rendezvous (highest-random-weight) score of `addr` for `key`: FNV-1a
/// over the address and the key bytes.  Stable across processes and
/// restarts, no dependency on target order.
fn rendezvous_score(addr: &str, key: &Fingerprint) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in addr.as_bytes().iter().chain(&key.0.to_le_bytes()) {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl RemoteStore {
    /// The decoded entry under `key` from its owner, with the raw text for
    /// adoption into the local tiers.
    pub(super) fn load(
        &self,
        key: &Fingerprint,
        scopes: &dyn ScopeResolver,
    ) -> Option<(String, ComponentEntry)> {
        let Some(target) = self.owner(key) else {
            self.skipped.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let started = Instant::now();
        let path = match scopes.source_tag() {
            Some(src) => format!("/v1/summaries/{}?src={}", key.to_hex(), src.to_hex()),
            None => format!("/v1/summaries/{}", key.to_hex()),
        };
        let result = match self.with_client(target, |client| client.get(&path)) {
            Ok((200, body)) => match decode_entry(&body, key, scopes) {
                Some(entry) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Some((body, entry))
                }
                None => {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    None
                }
            },
            Ok((404, _)) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Ok((_, _)) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        };
        self.load_hist
            .observe_ms(started.elapsed().as_secs_f64() * 1e3);
        result
    }

    /// Publishes an encoded entry to the owner of `key`.
    pub(super) fn store(&self, key: &Fingerprint, text: &str, scopes: &dyn ScopeResolver) {
        let Some(target) = self.owner(key) else {
            self.skipped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let path = match scopes.source_tag() {
            Some(src) => format!("/v1/summaries/{}?src={}", key.to_hex(), src.to_hex()),
            None => format!("/v1/summaries/{}", key.to_hex()),
        };
        match self.with_client(target, |client| client.put(&path, text)) {
            Ok((200, _)) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
            }
            Ok((_, _)) | Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_tolerate_schemes_slashes_and_blanks() {
        let remote = RemoteStore::from_spec("http://127.0.0.1:7561/, 127.0.0.1:7562 ,")
            .expect("two targets");
        assert_eq!(remote.addrs(), vec!["127.0.0.1:7561", "127.0.0.1:7562"]);
        assert!(RemoteStore::from_spec(" , ").is_none());
    }

    #[test]
    fn rendezvous_owner_is_stable_and_spreads_keys() {
        let remote = RemoteStore::from_spec("a:1,b:1,c:1").expect("ring");
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u128 {
            let key = Fingerprint(i * 0x9e37_79b9_7f4a_7c15);
            let owner = remote.owner(&key).expect("an owner").addr.clone();
            assert_eq!(
                remote.owner(&key).expect("same owner").addr,
                owner,
                "ownership must be deterministic"
            );
            seen.insert(owner);
        }
        assert_eq!(seen.len(), 3, "64 keys must spread across all 3 targets");
    }

    #[test]
    fn all_targets_down_means_skip_not_stall() {
        let remote = RemoteStore::from_spec("a:1").expect("ring");
        remote.targets[0].mark_down(Duration::from_secs(60));
        let key = Fingerprint(7);
        assert!(remote.owner(&key).is_none());
        assert!(remote.load(&key, &crate::cache::NullScopes).is_none());
        assert_eq!(remote.skipped(), 1);
        assert_eq!(remote.errors(), 0, "no connection was attempted");
    }
}
