//! Fleet-mode end-to-end tests: real daemons on ephemeral ports wired
//! together with `--remote-cache`, exercising the remote L3 summary tier
//! over actual HTTP — warm-peer hits, failure semantics when the peer is
//! unreachable, and the cross-program dedup counter.
//!
//! The exactness bar throughout: stdout/response bytes are identical with
//! the fleet tier on, off, cold, or warm (timing lines stripped).

use chora_cli::{spawn_server, AnalysisService, ServeOptions};
use chora_server::client::Client;
use chora_server::http::encode_query_component;
use std::path::PathBuf;
use std::sync::Arc;

fn example(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/programs")
        .join(name)
        .display()
        .to_string()
}

fn daemon(opts: ServeOptions) -> (chora_server::ServerHandle, Arc<AnalysisService>) {
    spawn_server(&ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        quiet: true,
        ..opts
    })
    .expect("spawn daemon")
}

/// A daemon using `peer` as its remote fleet cache (memory L1 + remote L3,
/// no disk, so every summary the peer holds must come over the wire).
fn fleet_daemon(peer: &str) -> (chora_server::ServerHandle, Arc<AnalysisService>) {
    daemon(ServeOptions {
        remote_cache: Some(peer.to_string()),
        ..ServeOptions::default()
    })
}

fn post_source(addr: &str, file: &str, source: &str) -> (u16, String) {
    let path = format!("/v1/analyze?file={}", encode_query_component(file));
    Client::new(addr)
        .send("POST", &path, Some(source))
        .expect("request")
}

fn strip_timing(out: &str) -> String {
    out.lines()
        .filter(|l| !l.contains("analysis_ms"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Pulls one integer counter out of a daemon's `/v1/stats` JSON.
fn stat(addr: &str, name: &str) -> u64 {
    let (status, body) = Client::new(addr)
        .send("GET", "/v1/stats", None)
        .expect("stats");
    assert_eq!(status, 200, "{body}");
    let needle = format!("\"{name}\": ");
    let at = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no {name} in:\n{body}"));
    body[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("counter value")
}

#[test]
fn a_warm_peer_answers_every_summary_as_a_remote_hit_byte_identically() {
    let source = std::fs::read_to_string(example("merge-sort.imp")).expect("read example");
    let file = "merge-sort.imp";

    // The reference: a solo daemon with no fleet tier, run cold.
    let (solo_handle, _solo) = daemon(ServeOptions::default());
    let (status, reference) = post_source(&solo_handle.addr().to_string(), file, &source);
    assert_eq!(status, 200, "{reference}");
    solo_handle.shutdown();

    // Daemon A analyzes the program once, filling its local store.
    let (a_handle, a_service) = daemon(ServeOptions::default());
    let a_addr = a_handle.addr().to_string();
    let (status, from_a) = post_source(&a_addr, file, &source);
    assert_eq!(status, 200, "{from_a}");
    assert!(a_service.store().counters().stores > 0, "A stored nothing");

    // Daemon B, cold, with A as its remote cache: every summary probe
    // misses B's empty memory tier and lands on A — 100% L3 warm hits,
    // zero full recomputations below the entry points.
    let (b_handle, b_service) = fleet_daemon(&a_addr);
    let (status, from_b) = post_source(&b_handle.addr().to_string(), file, &source);
    assert_eq!(status, 200, "{from_b}");

    let remote = b_service.store().remote().expect("B has a remote tier");
    assert_eq!(
        b_service.store().counters().misses,
        0,
        "a fully warm peer must leave no store miss"
    );
    assert!(remote.hits() >= 1, "no remote hits recorded");
    assert_eq!(remote.misses(), 0, "the peer had every key");
    assert_eq!(remote.errors(), 0, "clean transport expected");
    // A's serving side agrees: it answered B's fetches from its store.
    assert!(stat(&a_addr, "summary_gets") >= remote.hits());
    assert_eq!(
        stat(&a_addr, "summary_gets"),
        stat(&a_addr, "summary_get_hits")
    );

    // The exactness bar: all three documents agree byte-for-byte.
    assert_eq!(strip_timing(&from_a), strip_timing(&reference));
    assert_eq!(
        strip_timing(&from_b),
        strip_timing(&reference),
        "fleet-warm output diverged from the solo cold run"
    );
    b_handle.shutdown();
    a_handle.shutdown();
}

#[test]
fn remote_hits_are_promoted_into_disk_and_memory() {
    let source = std::fs::read_to_string(example("merge-sort.imp")).expect("read example");
    let file = "merge-sort.imp";

    // Daemon A analyzes the program, filling its local store.
    let (a_handle, _a_service) = daemon(ServeOptions::default());
    let a_addr = a_handle.addr().to_string();
    let (status, from_a) = post_source(&a_addr, file, &source);
    assert_eq!(status, 200, "{from_a}");

    // Daemon B has A as its remote tier and a disk tier of its own: every
    // summary it pulls from A must land in both of its local tiers.
    let dir = std::env::temp_dir().join(format!("chora-fleet-promote-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (b_handle, b_service) = daemon(ServeOptions {
        remote_cache: Some(a_addr.clone()),
        cache_dir: Some(dir.display().to_string()),
        ..ServeOptions::default()
    });
    let b_addr = b_handle.addr().to_string();
    let (status, first) = post_source(&b_addr, file, &source);
    assert_eq!(status, 200, "{first}");
    let store = b_service.store();
    let remote = store.remote().expect("B has a remote tier");
    let remote_hits = remote.hits();
    assert!(remote_hits >= 1, "no remote hits recorded");
    let before = store.counters();
    assert_eq!(
        before.mem_entries, remote_hits,
        "every remote hit must be promoted into memory"
    );
    assert!(
        store.disk().expect("B has a disk tier").disk_bytes() > 0,
        "remote hits must be promoted into disk"
    );

    // New bytes miss the parse and response caches, but every cone key is
    // unchanged: the second analysis is served from B's memory tier alone.
    let edited = format!("{source}\n// trailing comment\n");
    let (status, second) = post_source(&b_addr, file, &edited);
    assert_eq!(status, 200, "{second}");
    assert_eq!(
        remote.hits(),
        remote_hits,
        "the remote tier was asked again"
    );
    assert_eq!(store.counters().mem_hits - before.mem_hits, remote_hits);
    assert_eq!(strip_timing(&second), strip_timing(&first));
    assert_eq!(strip_timing(&first), strip_timing(&from_a));
    b_handle.shutdown();
    a_handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unreachable_remote_tier_degrades_to_local_analysis() {
    // Nothing listens on port 1; connects fail fast with ECONNREFUSED.
    let (handle, service) = fleet_daemon("127.0.0.1:1");
    let addr = handle.addr().to_string();
    let source = std::fs::read_to_string(example("fib.imp")).expect("read example");

    let (solo_handle, _solo) = daemon(ServeOptions::default());
    let (status, reference) = post_source(&solo_handle.addr().to_string(), "fib.imp", &source);
    assert_eq!(status, 200, "{reference}");
    solo_handle.shutdown();

    let (status, body) = post_source(&addr, "fib.imp", &source);
    assert_eq!(status, 200, "a dead peer must not fail the analysis");
    assert_eq!(
        strip_timing(&body),
        strip_timing(&reference),
        "output with a dead fleet tier diverged from the solo run"
    );
    let remote = service.store().remote().expect("remote tier configured");
    assert!(
        remote.errors() >= 1,
        "the first probe must record the transport failure"
    );

    // The failed target is now in cooldown: a second, re-analyzed request
    // (new bytes defeat the response cache) skips the tier instead of
    // paying the connect again — and still succeeds.
    let edited = format!("{source}\n// cooldown round\n");
    let (status, body) = post_source(&addr, "fib.imp", &edited);
    assert_eq!(status, 200, "{body}");
    assert_eq!(strip_timing(&body), strip_timing(&reference));
    assert!(
        remote.skipped() >= 1,
        "probes during cooldown must be skipped, not retried"
    );
    handle.shutdown();
}

#[test]
fn the_shared_cache_counts_hits_that_cross_source_programs() {
    // Program Y contains X's procedure verbatim plus an unrelated one, so
    // the two programs share cone keys but hash to different source tags.
    let x = std::fs::read_to_string(example("fib.imp")).expect("read example");
    let y = format!("{x}\nproc solo(m) {{\n    cost := cost + m;\n}}\n");

    let (a_handle, _a_service) = daemon(ServeOptions::default());
    let a_addr = a_handle.addr().to_string();

    // Daemon B publishes X's summaries into A (write-through on store).
    let (b_handle, _b_service) = fleet_daemon(&a_addr);
    let (status, body) = post_source(&b_handle.addr().to_string(), "x.imp", &x);
    assert_eq!(status, 200, "{body}");
    b_handle.shutdown();
    assert!(stat(&a_addr, "summary_puts") >= 1, "B published nothing");

    // Daemon C analyzes Y: the shared cone keys hit A's store under a
    // different source tag — cross-program dedup, counted on A.
    let (c_handle, c_service) = fleet_daemon(&a_addr);
    let (status, body) = post_source(&c_handle.addr().to_string(), "y.imp", &y);
    assert_eq!(status, 200, "{body}");
    assert!(
        c_service.store().remote().expect("remote tier").hits() >= 1,
        "Y must reuse X's published summaries"
    );
    assert!(
        stat(&a_addr, "remote_cross_program_hits") >= 1,
        "a hit under a different source tag must count as cross-program"
    );
    c_handle.shutdown();
    a_handle.shutdown();
}
