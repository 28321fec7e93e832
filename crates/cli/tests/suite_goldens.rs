//! The `analyze --json` document of every program of the paper's suites,
//! pinned byte for byte (wall clock stripped) in `tests/goldens/suite/`.
//!
//! `tests/suite_verdicts.rs` pins verdicts and Table 1 classes only; these
//! documents also pin each procedure's depth bound, bound facts and closed
//! forms, so an exact change to the analyzer must leave them unchanged.
//! Each program is printed to a `.imp` file and analyzed by the `chora`
//! binary in a process of its own: symbols are interned process-wide, and
//! some term orders (subset_sum's depth bound) follow the interning order,
//! which a fresh process fixes to the order of the parse.
//!
//! Each program is analyzed three times: at `--jobs 1` without a store, at
//! `--jobs 2` cold over a summary-cache directory of its own, and then
//! warm at `--jobs 1` over that directory, where every component is a hit
//! and every summary and verdict comes from the decoded entries.

use chora_bench_suite::{assertion_suite, complexity_suite, mutual_suite};
use chora_cli::printer::print_program;
use chora_ir::Program;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// The twelve Table 1 programs, the fifteen Table 2 / Fig. 3 programs and
/// the three mutual-recursion examples, each under its golden's name.
fn suite_programs() -> Vec<(String, Program)> {
    let mut programs: Vec<(String, Program)> = complexity_suite::all()
        .into_iter()
        .map(|b| (b.name.to_string(), b.program))
        .collect();
    programs.extend(
        assertion_suite::all()
            .into_iter()
            .map(|b| (b.name.to_string(), b.program)),
    );
    programs.push(("example_4_1".to_string(), mutual_suite::example_4_1()));
    programs.push(("example_4_2".to_string(), mutual_suite::example_4_2()));
    programs.push(("differ".to_string(), mutual_suite::differ()));
    programs
}

#[test]
fn suite_documents_match_the_goldens() {
    let goldens = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/suite");
    let dir = std::env::temp_dir().join(format!("chora-suite-goldens-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let programs = suite_programs();
    assert_eq!(programs.len(), 30);
    for (name, program) in &programs {
        // The document names the file as given, so it is analyzed by its
        // bare name from inside the directory.
        let file = format!("{name}.imp");
        std::fs::write(dir.join(&file), print_program(program)).expect("write program");
        let golden = std::fs::read_to_string(goldens.join(format!("{name}.analyze.json")))
            .expect("read golden");
        let cache = format!("{name}.cache");
        let analyze = |jobs: &str, cache: Option<&str>| {
            let mut command = Command::new(env!("CARGO_BIN_EXE_chora"));
            command.args(["analyze", &file, "--json", "--jobs", jobs]);
            if let Some(cache) = cache {
                command.args(["--cache-dir", cache]);
            }
            command
                .current_dir(&dir)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("start chora")
        };
        let runs = [
            ("--jobs 1", analyze("1", None)),
            ("--jobs 2 cold", analyze("2", Some(&cache))),
        ];
        for (run, child) in runs {
            check_document(child, &golden, &format!("{name} at {run}"));
        }
        let stderr = check_document(analyze("1", Some(&cache)), &golden, &format!("{name} warm"));
        assert!(
            stderr.contains("\"misses\":0,") && stderr.contains("\"evictions\":0,"),
            "{name} warm: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Waits for a run of `chora analyze --json`, requires its document (wall
/// clock stripped) to equal `golden`, and returns its stderr.
fn check_document(child: std::process::Child, golden: &str, run: &str) -> String {
    let output = child.wait_with_output().expect("run chora");
    let document: String = String::from_utf8(output.stdout)
        .expect("utf-8 document")
        .lines()
        .filter(|l| !l.contains("analysis_ms"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(document, golden, "{run}");
    String::from_utf8(output.stderr).expect("utf-8 stderr")
}
