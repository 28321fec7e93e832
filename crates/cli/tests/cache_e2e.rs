//! End-to-end tests of the persistent summary cache: cold/warm byte
//! identity, dirty-cone invalidation on edit, and resilience against
//! corrupted or version-mismatched cache files.

use chora_cli::{analyze, analyze_with_stats, bench, BenchOptions, FileOptions};
use std::path::PathBuf;

/// A scratch directory unique to this test binary run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chora-cache-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn example(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/programs")
        .join(name)
        .display()
        .to_string()
}

/// Drops the wall-clock field so reproducibility checks compare only the
/// analysis content.
fn strip_timing(out: &str) -> String {
    out.lines()
        .filter(|l| !l.contains("analysis_ms"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn opts(path: &str, cache_dir: Option<&PathBuf>) -> FileOptions {
    FileOptions {
        path: path.to_string(),
        json: true,
        cache_dir: cache_dir.map(|d| d.display().to_string()),
        ..FileOptions::default()
    }
}

/// The three-procedure program used by the edit tests.  Only the constant
/// in `leaf` varies, so the edit leaves the interner and call graph alone.
fn layered_program(leaf_increment: i64) -> String {
    format!(
        "global cost;\n\n\
         proc leaf(n) {{\n    cost := cost + {leaf_increment};\n}}\n\n\
         proc other(n) {{\n    cost := cost + 2;\n}}\n\n\
         proc main(n) {{\n    leaf(n);\n    other(n);\n    assert(cost >= 0 || nondet, \"nonneg\");\n}}\n"
    )
}

#[test]
fn warm_run_is_all_hits_and_byte_identical() {
    let dir = scratch("warm");
    let cache = dir.join("cache");
    let path = example("merge-sort.imp");

    let (cold_out, cold_exit, cold_stats) =
        analyze_with_stats(&opts(&path, Some(&cache))).expect("cold run");
    let cold_stats = cold_stats.expect("stats when cache is on");
    assert_eq!(cold_stats.hits, 0);
    assert!(cold_stats.misses > 0);

    let (warm_out, warm_exit, warm_stats) =
        analyze_with_stats(&opts(&path, Some(&cache))).expect("warm run");
    let warm_stats = warm_stats.expect("stats when cache is on");
    assert_eq!(warm_exit, cold_exit);
    assert_eq!(
        warm_stats.misses, 0,
        "second run on an unchanged program must be 100% hits: {warm_stats}"
    );
    assert_eq!(warm_stats.hits, cold_stats.misses);
    assert_eq!(warm_stats.evictions, 0);
    assert_eq!(
        strip_timing(&cold_out),
        strip_timing(&warm_out),
        "cold and warm stdout must be byte-identical"
    );

    // ... and identical to an uncached analysis.
    let (plain_out, _, plain_stats) = analyze_with_stats(&FileOptions {
        no_cache: true,
        ..opts(&path, Some(&cache))
    })
    .expect("uncached run");
    assert!(plain_stats.is_none(), "--no-cache must disable the store");
    assert_eq!(strip_timing(&plain_out), strip_timing(&warm_out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn editing_a_leaf_reanalyzes_only_its_dependents() {
    let dir = scratch("edit");
    let cache = dir.join("cache");
    let path = dir.join("prog.imp").display().to_string();

    std::fs::write(&path, layered_program(1)).expect("write program");
    let (_, _, stats) = analyze_with_stats(&opts(&path, Some(&cache))).expect("cold run");
    assert_eq!(stats.expect("stats").misses, 3, "leaf, other, main");

    // Edit `leaf`: its own component and the `main` component (its caller)
    // are dirty; the independent `other` component stays cached.
    std::fs::write(&path, layered_program(7)).expect("edit program");
    let (edited_out, _, stats) =
        analyze_with_stats(&opts(&path, Some(&cache))).expect("edited run");
    let stats = stats.expect("stats");
    assert_eq!(stats.hits, 1, "`other` must be served from cache: {stats}");
    assert_eq!(stats.misses, 2, "`leaf` and `main` must be re-summarized");

    // The partially-cached analysis matches a from-scratch analysis of the
    // edited program byte for byte.
    let (fresh_out, _, _) = analyze_with_stats(&FileOptions {
        no_cache: true,
        ..opts(&path, Some(&cache))
    })
    .expect("fresh run");
    assert_eq!(strip_timing(&edited_out), strip_timing(&fresh_out));

    // Reverting the edit hits everything again (the old entries are still
    // there — the cache is content-addressed, not last-write-wins).
    std::fs::write(&path, layered_program(1)).expect("revert program");
    let (_, _, stats) = analyze_with_stats(&opts(&path, Some(&cache))).expect("revert run");
    assert_eq!(stats.expect("stats").hits, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `layered_program` with an unrelated procedure inserted at `position`
/// among the existing ones (0 = first): same components plus one, shifted
/// through the bottom-up schedule.
fn padded_program(leaf_increment: i64, position: usize) -> String {
    let pad = "proc unrelated(n) locals q {\n    q := n / 2;\n    cost := cost + q;\n}\n";
    let base = layered_program(leaf_increment);
    let mut pieces: Vec<&str> = base.split("proc ").collect();
    // pieces[0] is the globals header; procedure i lives at pieces[i + 1].
    let mut out = String::from(pieces.remove(0));
    pieces.insert(position, pad.trim_start_matches("proc "));
    for p in pieces {
        out.push_str("proc ");
        out.push_str(p.trim_end());
        out.push_str("\n\n");
    }
    out
}

#[test]
fn prepending_a_procedure_keeps_preexisting_components_warm() {
    let dir = scratch("prepend");
    let cache = dir.join("cache");
    let path = dir.join("prog.imp").display().to_string();
    let run = |src: &str, no_cache: bool| {
        std::fs::write(&path, src).expect("write program");
        analyze_with_stats(&FileOptions {
            no_cache,
            procedure: Some("main".to_string()),
            ..opts(&path, Some(&cache))
        })
        .expect("analyze")
    };

    let (_, _, stats) = run(&layered_program(1), false);
    assert_eq!(stats.expect("stats").misses, 3, "leaf, other, main");

    // Prepend an unrelated procedure: every preexisting component shifts
    // one slot down the bottom-up schedule, yet all of them must hit — only
    // the newcomer is summarized — and stdout must match a from-scratch
    // analysis of the new program byte for byte.
    let (warm_out, warm_exit, stats) = run(&padded_program(1, 0), false);
    let stats = stats.expect("stats");
    assert_eq!(
        stats.misses, 1,
        "only the prepended component may miss: {stats}"
    );
    assert_eq!(stats.hits, 3, "every preexisting component must hit");
    assert_eq!(stats.evictions, 0);
    let (fresh_out, fresh_exit, _) = run(&padded_program(1, 0), true);
    assert_eq!(strip_timing(&warm_out), strip_timing(&fresh_out));
    assert_eq!(warm_exit, fresh_exit);

    // Reordering the same procedures (the pad moved to the end) changes
    // nothing content-wise: 100% hits, byte-identical output again.
    let (moved_out, _, stats) = run(&padded_program(1, 3), false);
    let stats = stats.expect("stats");
    assert_eq!(stats.misses, 0, "a pure reorder must be all hits: {stats}");
    assert_eq!(stats.hits, 4);
    let (moved_fresh, _, _) = run(&padded_program(1, 3), true);
    assert_eq!(strip_timing(&moved_out), strip_timing(&moved_fresh));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_and_version_mismatched_entries_are_evicted_not_fatal() {
    let dir = scratch("corrupt");
    let cache = dir.join("cache");
    let path = example("hanoi.imp");

    let (cold_out, _, _) = analyze_with_stats(&opts(&path, Some(&cache))).expect("cold run");
    let entries_dir = cache.join(format!("v{}", chora_core::cache::CACHE_VERSION));
    let entries: Vec<PathBuf> = std::fs::read_dir(&entries_dir)
        .expect("cache dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    assert!(!entries.is_empty(), "cold run must populate the cache");

    // Corrupt every entry: truncated JSON, garbage, version bump.
    for (i, entry) in entries.iter().enumerate() {
        match i % 3 {
            0 => std::fs::write(entry, "{\"format\":\"chora-summary-cache\",").unwrap(),
            1 => std::fs::write(entry, "complete garbage").unwrap(),
            _ => {
                let text = std::fs::read_to_string(entry).unwrap();
                let version = format!("\"version\":{}", chora_core::cache::CACHE_VERSION);
                std::fs::write(entry, text.replace(&version, "\"version\":99")).unwrap();
            }
        }
    }
    let (out, exit, stats) =
        analyze_with_stats(&opts(&path, Some(&cache))).expect("corrupted cache must not be fatal");
    let stats = stats.expect("stats");
    assert_eq!(stats.hits, 0, "corrupted entries must not hit");
    assert_eq!(
        stats.evictions,
        entries.len() as u64,
        "every corrupted entry must be evicted"
    );
    assert_eq!(strip_timing(&out), strip_timing(&cold_out));
    assert_eq!(exit, 0);

    // The eviction re-populated the cache: the next run is all hits again.
    let (_, _, stats) = analyze_with_stats(&opts(&path, Some(&cache))).expect("repopulated");
    let stats = stats.expect("stats");
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.evictions, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_stats_stay_off_stdout() {
    // `analyze` (the CLI surface) reports stats on stderr only; stdout must
    // not mention the cache at all, in either output mode.
    let dir = scratch("stdout");
    let cache = dir.join("cache");
    let path = example("fib.imp");
    for json in [true, false] {
        let options = FileOptions {
            json,
            ..opts(&path, Some(&cache))
        };
        let (out, _) = analyze(&options).expect("analyze runs");
        assert!(
            !out.contains("cache"),
            "stdout must not mention the cache (json={json}):\n{out}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_reports_cold_and_warm_wall_clock() {
    let dir = scratch("bench");
    let cache = dir.join("cache");
    let programs = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/programs")
        .display()
        .to_string();
    let (out, exit) = bench(&BenchOptions {
        json: true,
        filter: Some("fib".to_string()),
        programs_dir: Some(programs),
        cache_dir: Some(cache.display().to_string()),
        ..BenchOptions::default()
    })
    .expect("bench runs");
    assert_eq!(exit, 0);
    assert!(out.contains("\"cold_ms\""), "got:\n{out}");
    assert!(out.contains("\"warm_ms\""), "got:\n{out}");
    assert!(out.contains("\"warm_cache\""), "got:\n{out}");
    assert!(out.contains("\"misses\": 0"), "warm run must hit:\n{out}");
    assert!(out.contains("\"parse_ms\""), "got:\n{out}");
    assert!(out.contains("\"summarize_ms\""), "got:\n{out}");
    assert!(out.contains("\"solve_ms\""), "got:\n{out}");
    assert!(out.contains("\"check_ms\""), "got:\n{out}");
    let _ = std::fs::remove_dir_all(&dir);
}
