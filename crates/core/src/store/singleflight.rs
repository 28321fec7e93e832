//! Single-flight miss coalescing: when many workers miss the same key at
//! once, one computes and the rest wait for its store, instead of all of
//! them redundantly analyzing the same component.
//!
//! # Why flight groups
//!
//! The analysis pipeline probes the store inside parallel worker tasks but
//! defers every `store` to the sequential fold — so within one analysis
//! run, a worker that waited on a sibling's lease would wait on a store
//! that cannot happen until the fold, which cannot start until the worker
//! finishes: deadlock.  Each run therefore carries a *flight group*
//! ([`crate::cache::ScopeResolver::flight_group`]); a miss on a key leased
//! by the *same* group is treated as a plain miss (the fold will store it
//! once), and a run that already holds a lease anywhere never waits on
//! another group (two runs waiting on each other's leases would otherwise
//! deadlock — refusing makes every wait chain end at a group that is
//! actively computing).  Ungrouped callers (group 0) always wait.  Every
//! wait is additionally time-bounded, and leases outliving a generous
//! multiple of that bound are presumed abandoned and stolen, so a crashed
//! leader degrades to a stall, never a hang.

use super::{ComponentEntry, SummaryStore};
use crate::cache::ScopeResolver;
use chora_ir::Fingerprint;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// An in-progress computation of one key.
struct Lease {
    group: u64,
    taken: Instant,
}

#[derive(Default)]
struct FlightState {
    leases: HashMap<Fingerprint, Lease>,
    /// How many leases each (nonzero) group currently holds — the
    /// "is this run actively computing something" signal behind the
    /// never-wait-while-holding rule.
    held_by_group: HashMap<u64, usize>,
}

/// Cumulative [`SingleFlight`] counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlightCounters {
    /// Misses that took the lease (the caller computes).
    pub leads: u64,
    /// Misses that blocked on another flight's lease.
    pub waits: u64,
    /// Waits that ended with the leader's result adopted from the store —
    /// each one is a whole component analysis that did not run.
    pub wait_hits: u64,
    /// Waits abandoned at the time bound (the caller computed after all).
    pub wait_timeouts: u64,
    /// Misses that could have waited but did not, because the caller's
    /// group already held a lease (waiting could deadlock two runs).
    pub refused: u64,
}

/// A [`SummaryStore`] layer that coalesces concurrent misses per key.
pub struct SingleFlight<S> {
    inner: S,
    state: Mutex<FlightState>,
    cond: Condvar,
    /// Upper bound on the total time one `load` spends waiting.
    wait_timeout: Duration,
    /// Leases older than this are presumed abandoned and stolen.
    stale_after: Duration,
    leads: AtomicU64,
    waits: AtomicU64,
    wait_hits: AtomicU64,
    wait_timeouts: AtomicU64,
    refused: AtomicU64,
}

impl<S> SingleFlight<S> {
    /// Wraps `inner` with the default 10-second wait bound.
    pub fn new(inner: S) -> SingleFlight<S> {
        SingleFlight::with_wait_timeout(inner, Duration::from_secs(10))
    }

    /// Wraps `inner` with an explicit wait bound; leases are presumed
    /// abandoned after three times that bound.
    pub fn with_wait_timeout(inner: S, wait_timeout: Duration) -> SingleFlight<S> {
        SingleFlight {
            inner,
            state: Mutex::new(FlightState::default()),
            cond: Condvar::new(),
            wait_timeout,
            stale_after: wait_timeout * 3,
            leads: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            wait_hits: AtomicU64::new(0),
            wait_timeouts: AtomicU64::new(0),
            refused: AtomicU64::new(0),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Snapshot of the coalescing counters.
    pub fn counters(&self) -> FlightCounters {
        FlightCounters {
            leads: self.leads.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            wait_hits: self.wait_hits.load(Ordering::Relaxed),
            wait_timeouts: self.wait_timeouts.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
        }
    }

    /// Takes the lease on `key` for `group` under a held `state` lock.
    fn take_lease(&self, state: &mut FlightState, key: &Fingerprint, group: u64) {
        if let Some(old) = state.leases.insert(
            *key,
            Lease {
                group,
                taken: Instant::now(),
            },
        ) {
            release_hold(state, old.group);
        }
        if group != 0 {
            *state.held_by_group.entry(group).or_insert(0) += 1;
        }
        self.leads.fetch_add(1, Ordering::Relaxed);
    }
}

/// Drops one lease from `group`'s hold count.
fn release_hold(state: &mut FlightState, group: u64) {
    if group == 0 {
        return;
    }
    if let Some(count) = state.held_by_group.get_mut(&group) {
        *count -= 1;
        if *count == 0 {
            state.held_by_group.remove(&group);
        }
    }
}

impl<S: SummaryStore> SummaryStore for SingleFlight<S> {
    fn load(&self, key: &Fingerprint, scopes: &dyn ScopeResolver) -> Option<ComponentEntry> {
        if let Some(entry) = self.inner.load(key, scopes) {
            return Some(entry);
        }
        let group = scopes.flight_group();
        let deadline = Instant::now() + self.wait_timeout;
        let mut counted_wait = false;
        let mut state = self.state.lock().expect("single-flight state lock");
        loop {
            let lease = state.leases.get(key).map(|l| (l.group, l.taken));
            match lease {
                None => {
                    self.take_lease(&mut state, key, group);
                    return None;
                }
                Some((_, taken)) if taken.elapsed() > self.stale_after => {
                    // The leader is presumed gone (crashed, or its store
                    // never ran); steal the lease and compute.
                    self.take_lease(&mut state, key, group);
                    return None;
                }
                Some((holder, _)) if group != 0 && holder == group => {
                    // Our own run computes this key; its store happens in
                    // the fold after we return.  A plain miss.
                    return None;
                }
                Some(_)
                    if group != 0 && state.held_by_group.get(&group).copied().unwrap_or(0) > 0 =>
                {
                    // We hold a lease elsewhere: waiting here could chain
                    // two runs into a cycle.  Compute redundantly instead.
                    self.refused.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                Some(_) => {
                    if !counted_wait {
                        self.waits.fetch_add(1, Ordering::Relaxed);
                        counted_wait = true;
                    }
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        self.wait_timeouts.fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                    let (guard, _) = self
                        .cond
                        .wait_timeout(state, remaining)
                        .expect("single-flight state lock");
                    state = guard;
                    if state.leases.contains_key(key) {
                        continue;
                    }
                    // The lease was released: the leader stored (adopt its
                    // result) or abandoned (become the leader ourselves).
                    drop(state);
                    if let Some(entry) = self.inner.load(key, scopes) {
                        self.wait_hits.fetch_add(1, Ordering::Relaxed);
                        return Some(entry);
                    }
                    state = self.state.lock().expect("single-flight state lock");
                }
            }
        }
    }

    fn store(&self, key: &Fingerprint, entry: &ComponentEntry, scopes: &dyn ScopeResolver) {
        // Inner store strictly first: a waiter woken by the lease release
        // must find the entry on its re-probe.
        self.inner.store(key, entry, scopes);
        let mut state = self.state.lock().expect("single-flight state lock");
        if let Some(lease) = state.leases.remove(key) {
            release_hold(&mut state, lease.group);
            self.cond.notify_all();
        }
    }

    fn eviction_totals(&self) -> (u64, u64) {
        self.inner.eviction_totals()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{entry, memory_store};
    use super::*;
    use crate::cache::NullScopes;

    /// A resolver that only carries a flight group (no scopes).
    struct Grouped(u64);

    impl ScopeResolver for Grouped {
        fn scope_of(&self, _key: &Fingerprint) -> Option<u32> {
            None
        }
        fn key_of(&self, _scope: u32) -> Option<Fingerprint> {
            None
        }
        fn flight_group(&self) -> u64 {
            self.0
        }
    }

    fn spin_until(deadline_ms: u64, mut done: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_millis(deadline_ms);
        while !done() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn thundering_herd_computes_once_and_everyone_adopts() {
        const HERD: usize = 8;
        let flight = SingleFlight::new(memory_store());
        let key = Fingerprint(0x5eed);
        // The main thread misses first and takes the lease.
        assert!(flight.load(&key, &NullScopes).is_none());
        assert_eq!(flight.counters().leads, 1);
        std::thread::scope(|scope| {
            let herd: Vec<_> = (0..HERD - 1)
                .map(|_| {
                    scope.spawn(|| {
                        flight
                            .load(&key, &NullScopes)
                            .expect("waiter adopts the leader's result")
                    })
                })
                .collect();
            // Every waiter must be parked before the leader stores, or the
            // coalesce would be a race.
            assert!(
                spin_until(5_000, || flight.counters().waits == (HERD - 1) as u64),
                "herd never parked: {:?}",
                flight.counters()
            );
            flight.store(&key, &entry(&["f"]), &NullScopes);
            for waiter in herd {
                assert_eq!(waiter.join().expect("no panic").summaries[0].name, "f");
            }
        });
        let c = flight.counters();
        assert_eq!(c.leads, 1, "exactly one computation: {c:?}");
        assert_eq!(c.waits, (HERD - 1) as u64);
        assert_eq!(c.wait_hits, (HERD - 1) as u64);
        assert_eq!(c.wait_timeouts, 0);
        assert_eq!(c.refused, 0);
    }

    #[test]
    fn same_group_misses_never_wait() {
        // The fold-deferred store pattern: within one run, the second miss
        // on a leased key must proceed (its own fold stores it once), not
        // wait on a store that cannot happen yet.
        let flight = SingleFlight::new(memory_store());
        let key = Fingerprint(0xabc);
        let run = Grouped(7);
        assert!(flight.load(&key, &run).is_none(), "leader");
        let before = Instant::now();
        assert!(flight.load(&key, &run).is_none(), "same group: plain miss");
        assert!(before.elapsed() < Duration::from_secs(1));
        let c = flight.counters();
        assert_eq!((c.leads, c.waits, c.refused), (1, 0, 0));
    }

    #[test]
    fn a_group_holding_a_lease_refuses_to_wait_on_another() {
        // Run A leases k1; run B leases k2 and then misses k1.  B waiting
        // on A could deadlock if A were symmetric — B must refuse.
        let flight = SingleFlight::new(memory_store());
        let (k1, k2) = (Fingerprint(1), Fingerprint(2));
        let (run_a, run_b) = (Grouped(1), Grouped(2));
        assert!(flight.load(&k1, &run_a).is_none());
        assert!(flight.load(&k2, &run_b).is_none());
        assert!(flight.load(&k1, &run_b).is_none(), "refused, not parked");
        assert_eq!(flight.counters().refused, 1);
        // Once B's fold stores k2, B holds nothing again.
        flight.store(&k2, &entry(&["g"]), &run_b);
        let state = flight.state.lock().expect("state lock");
        assert_eq!(
            state.held_by_group.get(&2),
            None,
            "storing the leased key releases the hold"
        );
        assert_eq!(state.held_by_group.get(&1), Some(&1), "A still computes k1");
    }

    #[test]
    fn waits_are_time_bounded() {
        let flight = SingleFlight::with_wait_timeout(memory_store(), Duration::from_millis(30));
        let key = Fingerprint(3);
        assert!(flight.load(&key, &NullScopes).is_none(), "leader");
        // Group 0 is always wait-eligible, even against itself: the second
        // load parks, hits the bound, and proceeds to compute.
        let before = Instant::now();
        assert!(flight.load(&key, &NullScopes).is_none());
        assert!(before.elapsed() >= Duration::from_millis(30));
        let c = flight.counters();
        assert_eq!((c.waits, c.wait_timeouts), (1, 1));
    }

    #[test]
    fn stale_leases_are_stolen() {
        let flight = SingleFlight::with_wait_timeout(memory_store(), Duration::from_millis(10));
        let key = Fingerprint(4);
        assert!(flight.load(&key, &NullScopes).is_none(), "leader");
        // 3× the wait bound with no store: the leader is presumed dead.
        std::thread::sleep(Duration::from_millis(40));
        assert!(flight.load(&key, &NullScopes).is_none(), "stolen lease");
        assert_eq!(flight.counters().leads, 2);
        // The thief's store releases the (stolen) lease normally.
        flight.store(&key, &entry(&["h"]), &NullScopes);
        assert!(flight.load(&key, &NullScopes).is_some());
    }

    #[test]
    fn hits_bypass_the_flight_machinery() {
        let flight = SingleFlight::new(memory_store());
        let key = Fingerprint(5);
        flight.store(&key, &entry(&["f"]), &NullScopes);
        assert!(flight.load(&key, &NullScopes).is_some());
        assert_eq!(flight.counters(), FlightCounters::default());
    }
}
