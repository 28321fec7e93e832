//! End-to-end CLI tests: file in, analysis verdict out.

use chora_cli::json::Json;
use chora_cli::{analyze, bench, complexity_cmd, print_cmd, BenchOptions, FileOptions};
use std::path::PathBuf;

fn example(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/programs")
        .join(name)
        .display()
        .to_string()
}

/// Drops the wall-clock field so reproducibility checks compare only the
/// analysis content.
fn strip_timing(out: String) -> String {
    out.lines()
        .filter(|l| !l.contains("analysis_ms"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn file_opts(name: &str, json: bool) -> FileOptions {
    FileOptions {
        path: example(name),
        json,
        ..FileOptions::default()
    }
}

#[test]
fn complexity_hanoi_reports_exponential_in_json() {
    let (output, exit) = complexity_cmd(&file_opts("hanoi.imp", true)).expect("analysis runs");
    assert_eq!(exit, 0, "output: {output}");
    assert!(
        output.contains("\"class\": \"O(2^n)\""),
        "expected the O(2^n) verdict in JSON output, got:\n{output}"
    );
    assert!(
        output.contains("\"procedure\": \"hanoi\""),
        "got:\n{output}"
    );
    assert!(output.contains("\"bound\": "), "got:\n{output}");
}

#[test]
fn analyze_hanoi_emits_recursive_summary_json() {
    let (output, exit) = analyze(&file_opts("hanoi.imp", true)).expect("analysis runs");
    assert_eq!(exit, 0, "output: {output}");
    assert!(output.contains("\"name\": \"hanoi\""), "got:\n{output}");
    assert!(output.contains("\"recursive\": true"), "got:\n{output}");
    assert!(output.contains("\"depth_bound\": "), "got:\n{output}");
}

#[test]
fn complexity_merge_sort_reports_n_log_n() {
    let (output, exit) =
        complexity_cmd(&file_opts("merge-sort.imp", false)).expect("analysis runs");
    assert_eq!(exit, 0, "output: {output}");
    assert!(output.contains("O(n log n)"), "got:\n{output}");
}

#[test]
fn analyze_height_proves_the_assertion() {
    let (output, exit) = analyze(&file_opts("height.imp", true)).expect("analysis runs");
    assert_eq!(exit, 0, "unverified assertions, output:\n{output}");
    assert!(
        output.contains("\"all_assertions_verified\": true"),
        "got:\n{output}"
    );
}

#[test]
fn bench_filter_runs_single_benchmark() {
    let (output, exit) = bench(&BenchOptions {
        json: true,
        filter: Some("hanoi".to_string()),
        ..BenchOptions::default()
    })
    .expect("bench runs");
    assert_eq!(exit, 0);
    assert!(output.contains("\"name\": \"hanoi\""), "got:\n{output}");
    assert!(output.contains("\"class\": \"O(2^n)\""), "got:\n{output}");
    // The filter is case-sensitive: the recHanoi assertion benchmarks stay out.
    assert!(!output.contains("recHanoi01"), "got:\n{output}");
}

#[test]
fn bench_json_pins_the_paper_tables() {
    fn text<'a>(row: &'a Json, key: &str) -> &'a str {
        row.get(key).and_then(Json::as_str).unwrap_or("-")
    }
    let run = |jobs: usize| {
        let (output, exit) = bench(&BenchOptions {
            json: true,
            jobs,
            ..BenchOptions::default()
        })
        .expect("bench runs");
        assert_eq!(exit, 0);
        output
    };
    let output = run(1);
    let doc = Json::parse(&output).expect("bench --json parses");
    let rows = |key: &str| {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("no `{key}` rows in:\n{output}"))
    };
    let flag = |row: &Json, key: &str| row.get(key).and_then(Json::as_bool);

    let complexity = rows("complexity");
    assert_eq!(complexity.len(), 12);
    let matches = complexity
        .iter()
        .filter(|r| text(r, "class") == text(r, "paper_chora"))
        .count();
    assert_eq!(matches, 10, "Table 1 rows agreeing with the paper");
    assert!(complexity.iter().all(|r| text(r, "icra_class") == "n.b."));

    let assertions = rows("assertions");
    assert_eq!(assertions.len(), 15);
    let in_suite = |suite: &str| {
        assertions
            .iter()
            .filter(|r| text(r, "suite") == suite)
            .count()
    };
    assert_eq!((in_suite("table2"), in_suite("fig3")), (3, 12));
    let proved: Vec<&str> = assertions
        .iter()
        .filter(|r| flag(r, "verified") == Some(true))
        .map(|r| text(r, "name"))
        .collect();
    assert_eq!(proved, ["height", "Addition02", "recHanoi02"]);
    assert!(assertions
        .iter()
        .all(|r| flag(r, "icra_verified") == Some(false)));

    // The worker count moves wall clocks only.
    let strip = |out: &str| {
        out.lines()
            .filter(|l| !l.contains("_ms"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&output), strip(&run(2)));
}

#[test]
fn missing_file_is_a_clean_error() {
    let err = analyze(&file_opts("no-such-file.imp", false)).unwrap_err();
    assert!(err.to_string().contains("cannot read"), "got: {err}");
}

#[test]
fn analyze_json_is_byte_identical_across_runs() {
    // The per-analysis FreshSource (and the structural symbol encoding) make
    // repeated analyses of the same file reproducible down to the byte; only
    // the timing field varies, so it is stripped before comparing.
    let (first, _) = analyze(&file_opts("merge-sort.imp", true)).expect("analysis runs");
    let (second, _) = analyze(&file_opts("merge-sort.imp", true)).expect("analysis runs");
    assert_eq!(
        strip_timing(first),
        strip_timing(second),
        "repeated runs must be byte-identical"
    );
}

#[test]
fn analyze_output_is_independent_of_jobs_and_matches_the_golden() {
    // The ready-queue scheduler hands components to however many workers are
    // asked for, but the canonical task order is folded sequentially, so the
    // document must be byte-identical for every worker count — and identical
    // to the golden recorded before the scheduler existed.  The golden
    // records the repo-relative path, so that one line is normalized.
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens/merge-sort.analyze.json");
    let golden = std::fs::read_to_string(&golden_path).expect("read golden");
    let absolute = example("merge-sort.imp");
    for jobs in [1usize, 2, 8] {
        let opts = FileOptions {
            jobs,
            ..file_opts("merge-sort.imp", true)
        };
        let (out, exit) = analyze(&opts).expect("analysis runs");
        assert_eq!(exit, 0, "jobs={jobs} output: {out}");
        let normalized = out.replace(&absolute, "examples/programs/merge-sort.imp");
        assert_eq!(
            strip_timing(normalized),
            strip_timing(golden.clone()),
            "--jobs {jobs} must reproduce the golden document byte-for-byte"
        );
    }
}

#[test]
fn trace_out_records_every_phase_without_perturbing_output() {
    // One test covers the whole tracing contract (the recording session is
    // process-global, so splitting it across parallel #[test]s would race):
    // the Chrome trace has at least one span per analysis phase and at least
    // one scheduler lane, and stdout stays byte-identical with tracing on
    // and off for both a serial and a parallel run; `bench --server` writes
    // its trace too.
    let dir = std::env::temp_dir().join("chora-trace-e2e-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for jobs in [1usize, 8] {
        let trace_path = dir.join(format!("hanoi-jobs{jobs}.trace.json"));
        let plain = FileOptions {
            jobs,
            quiet: true,
            ..file_opts("hanoi.imp", true)
        };
        let traced = FileOptions {
            trace_out: Some(trace_path.display().to_string()),
            ..plain.clone()
        };
        let (untraced_out, _) = analyze(&plain).expect("analysis runs");
        let (traced_out, _) = analyze(&traced).expect("traced analysis runs");
        assert_eq!(
            strip_timing(untraced_out),
            strip_timing(traced_out),
            "--trace-out must not perturb the analysis document (jobs={jobs})"
        );

        let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
        assert!(
            trace.starts_with('{') && trace.contains("\"traceEvents\""),
            "expected Chrome trace-event JSON, got:\n{trace}"
        );
        for phase in ["parse", "summarize", "height", "depth", "check"] {
            assert!(
                trace.contains(&format!("\"name\":\"{phase}\"")),
                "jobs={jobs}: expected a `{phase}` span in the trace"
            );
        }
        assert!(
            trace.contains("\"fm_project"),
            "jobs={jobs}: expected FM projection spans"
        );
        assert!(
            trace.contains("recurrence_solve"),
            "jobs={jobs}: expected a recurrence-solver span"
        );
        assert!(
            trace.contains("\"thread_name\""),
            "jobs={jobs}: expected at least one lane metadata event"
        );
    }
    // `bench --server` analyzes in an in-process daemon; the session opens
    // before the hand-off, so the daemon's analysis spans land in the file.
    let trace_path = dir.join("bench-server.trace.json");
    let _ = std::fs::remove_file(&trace_path);
    let programs = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs");
    bench(&BenchOptions {
        json: true,
        filter: Some("fib".to_string()),
        programs_dir: Some(programs.display().to_string()),
        server: true,
        trace_out: Some(trace_path.display().to_string()),
        ..BenchOptions::default()
    })
    .expect("bench --server runs");
    let trace = std::fs::read_to_string(&trace_path).expect("bench --server writes its trace");
    for needle in ["\"ph\":\"X\"", "\"name\":\"summarize\""] {
        assert!(
            trace.contains(needle),
            "bench --server: expected {needle} in the trace"
        );
    }
}

#[test]
fn bench_times_programs_directory() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/programs")
        .display()
        .to_string();
    let (output, exit) = bench(&BenchOptions {
        json: true,
        filter: Some("hanoi".to_string()),
        jobs: 2,
        programs_dir: Some(dir),
        ..BenchOptions::default()
    })
    .expect("bench runs");
    assert_eq!(exit, 0);
    assert!(output.contains("\"programs\""), "got:\n{output}");
    assert!(output.contains("\"procedures\": 1"), "got:\n{output}");
}

#[test]
fn parse_errors_carry_position_and_caret() {
    let dir = std::env::temp_dir().join("chora-parse-error-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bad.imp");
    std::fs::write(&path, "proc main(n) {\n  x := ;\n}\n").expect("write temp program");
    let err = print_cmd(&path.display().to_string()).unwrap_err();
    let message = err.to_string();
    assert!(message.contains("2:8"), "expected line:col, got: {message}");
    assert!(
        message.contains("x := ;"),
        "expected source line in error, got: {message}"
    );
    assert!(message.contains('^'), "expected caret, got: {message}");
}
