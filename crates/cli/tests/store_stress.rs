//! Concurrency stress tests of the shared on-disk summary cache: multiple
//! store handles (separate opens, as separate `chora` processes would
//! hold) analyzing overlapping programs at the same time must never
//! panic, never serve a torn entry, and keep every report byte-identical
//! to an uncached analysis.

use chora_cli::{analyze_source, FileOptions};
use chora_core::{SummaryStore, TieredConfig, TieredStore};
use std::path::PathBuf;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chora-stress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A layered program family: `variant` only changes a constant in `leaf`,
/// so different variants share call-graph shape but differ in content —
/// overlapping work with distinct cache keys.
fn program(variant: usize) -> String {
    format!(
        "global cost;\n\n\
         proc leaf(n) {{\n    cost := cost + {variant};\n}}\n\n\
         proc work(n) {{\n    cost := cost + 1;\n    if (n > 0) {{\n        work(n - 1);\n        work(n - 1);\n    }}\n}}\n\n\
         proc main(n) {{\n    leaf(n);\n    work(n);\n    assert(cost >= 0 || nondet, \"nonneg\");\n}}\n"
    )
}

fn opts() -> FileOptions {
    FileOptions {
        json: true,
        quiet: true,
        ..FileOptions::default()
    }
}

/// The uncached reference report of one variant.
fn reference(variant: usize) -> String {
    let (out, _, _) = analyze_source(&format!("v{variant}"), &program(variant), &opts(), None)
        .expect("uncached analysis");
    strip_timing(&out)
}

fn strip_timing(out: &str) -> String {
    out.lines()
        .filter(|l| !l.contains("analysis_ms"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs `rounds` analyses of each variant in `variants` through `store`,
/// asserting byte-identity against the references.
fn hammer(
    store: &dyn SummaryStore,
    variants: std::ops::Range<usize>,
    rounds: usize,
    references: &[String],
) {
    for _ in 0..rounds {
        for v in variants.clone() {
            let (out, _, _) = analyze_source(&format!("v{v}"), &program(v), &opts(), Some(store))
                .expect("cached analysis");
            assert_eq!(
                strip_timing(&out),
                references[v],
                "variant {v} diverged under concurrent store traffic"
            );
        }
    }
}

#[test]
fn two_disk_store_handles_analyze_overlapping_programs_concurrently() {
    let root = scratch("disk");
    let references: Vec<String> = (0..10).map(reference).collect();

    // Two handles over the same root, opened independently — the same
    // situation as two `chora` processes sharing one --cache-dir.  Their
    // variant ranges overlap on 3..7, so both race on the same keys.  A
    // one-byte memory tier keeps no entry, so every load reads the shared
    // disk, as each analysis in a process of its own would.
    let open = || {
        TieredStore::open(
            &root,
            TieredConfig {
                cap_bytes: Some(1),
                max_age: None,
                shards: 1,
            },
        )
        .expect("open")
    };
    let store_a = open();
    let store_b = open();
    std::thread::scope(|scope| {
        let refs = &references;
        let a = scope.spawn(|| hammer(&store_a, 0..7, 3, refs));
        let b = scope.spawn(|| hammer(&store_b, 3..10, 3, refs));
        a.join().expect("writer A must not panic");
        b.join().expect("writer B must not panic");
    });
    assert_eq!(
        store_a.eviction_totals().0,
        0,
        "no torn entries on handle A"
    );
    assert_eq!(
        store_b.eviction_totals().0,
        0,
        "no torn entries on handle B"
    );

    // A fresh handle sees only whole entries: a full warm pass is 100%
    // hits with zero corruption evictions.
    let fresh = open();
    for (v, expected) in references.iter().enumerate() {
        let (out, _, stats) = analyze_source(&format!("v{v}"), &program(v), &opts(), Some(&fresh))
            .expect("warm analysis");
        let stats = stats.expect("stats with a store");
        assert_eq!(stats.misses, 0, "variant {v} must be fully warm: {stats}");
        assert_eq!(stats.evictions, 0, "variant {v} hit a torn entry: {stats}");
        assert_eq!(&strip_timing(&out), expected);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn two_tiered_store_handles_race_with_eviction_pressure() {
    let root = scratch("tiered");
    let references: Vec<String> = (0..8).map(reference).collect();

    // Independent tiered handles over one disk root, with a byte cap well
    // below the working set and an expiry short enough to fire mid-run:
    // LRU, age eviction, disk GC, and cross-handle promotion all race.
    let open = || {
        TieredStore::open(
            &root,
            TieredConfig {
                cap_bytes: Some(2048),
                max_age: Some(Duration::from_millis(40)),
                shards: 2,
            },
        )
        .expect("open tiered")
    };
    let store_a = open();
    let store_b = open();
    std::thread::scope(|scope| {
        let refs = &references;
        let gc = scope.spawn(|| {
            // A concurrent GC thread, like the daemon's housekeeping.
            for _ in 0..20 {
                store_a.gc();
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let a = scope.spawn(|| hammer(&store_a, 0..5, 4, refs));
        let b = scope.spawn(|| hammer(&store_b, 2..8, 4, refs));
        a.join().expect("handle A must not panic");
        b.join().expect("handle B must not panic");
        gc.join().expect("GC thread must not panic");
    });
    for store in [&store_a, &store_b] {
        let c = store.counters();
        assert_eq!(
            c.corrupt_evictions, 0,
            "churn must never manifest as corruption: {c:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
