//! The analyzer's phase timings and its trace read one clock.
//!
//! Each `PhaseTimings` column is the duration of the driver's `summarize`
//! or `check` spans, so under a trace session a column must equal the sum
//! of its spans' recorded durations.  Trace sessions are process-wide, so
//! this binary holds a single test.

use chora::core::{AnalysisConfig, Analyzer};
use chora::ir::{Cond, Expr, Procedure, Program, Stmt};
use chora_telemetry::trace;

/// A recursive component (`hanoi`), a non-recursive one (`leaf`) and an
/// assert (in `main`, which calls both).
fn program() -> Program {
    let cost_plus = |k| Stmt::assign("cost", Expr::var("cost").add(Expr::int(k)));
    let mut program = Program::new();
    program.add_global("cost");
    program.add_procedure(Procedure::new("leaf", &["n"], &[], cost_plus(1)));
    program.add_procedure(Procedure::new(
        "hanoi",
        &["n"],
        &[],
        Stmt::seq(vec![
            cost_plus(1),
            Stmt::if_then(
                Cond::gt(Expr::var("n"), Expr::int(0)),
                Stmt::seq(vec![
                    Stmt::call("hanoi", vec![Expr::var("n").sub(Expr::int(1))]),
                    Stmt::call("hanoi", vec![Expr::var("n").sub(Expr::int(1))]),
                ]),
            ),
        ]),
    ));
    program.add_procedure(Procedure::new(
        "main",
        &["n"],
        &[],
        Stmt::seq(vec![
            Stmt::assign("cost", Expr::int(0)),
            Stmt::call("leaf", vec![Expr::var("n")]),
            Stmt::call("hanoi", vec![Expr::var("n")]),
            Stmt::Assert(
                Cond::ge(Expr::var("cost"), Expr::int(1)),
                "positive".to_string(),
            ),
        ]),
    ));
    program
}

#[test]
fn phase_timings_are_the_sums_of_their_spans() {
    let program = program();
    for jobs in [1, 2] {
        let analyzer = Analyzer::with_config(AnalysisConfig {
            jobs,
            ..AnalysisConfig::default()
        });
        let session = trace::start().expect("no other session in this binary");
        let result = analyzer.analyze(&program);
        let trace = session.finish();
        let spans = |name: &str| {
            let durations: Vec<u64> = trace
                .events
                .iter()
                .filter(|e| e.cat == "phase" && e.name == name)
                .map(|e| e.dur_ns)
                .collect();
            (durations.len(), durations.iter().sum::<u64>() as f64 / 1e6)
        };
        let t = result.timings;
        assert!(
            t.summarize_ms > 0.0 && t.solve_ms > 0.0 && t.check_ms > 0.0,
            "jobs={jobs}: every phase ran: {t:?}"
        );
        // One of each span per component: all three missed (no store).
        let (summarize_spans, summarize_ms) = spans("summarize");
        let (check_spans, check_ms) = spans("check");
        assert_eq!((summarize_spans, check_spans), (3, 3), "jobs={jobs}");
        let within_1ns = |a: f64, b: f64| (a - b).abs() <= 1e-6;
        assert!(
            within_1ns(t.summarize_ms + t.solve_ms, summarize_ms),
            "jobs={jobs}: {t:?} against {summarize_ms} ms of summarize spans"
        );
        assert!(
            within_1ns(t.check_ms, check_ms),
            "jobs={jobs}: {t:?} against {check_ms} ms of check spans"
        );
    }
}
