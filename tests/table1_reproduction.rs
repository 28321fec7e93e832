//! Integration test regenerating the substance of **Table 1**: the asymptotic
//! complexity classes CHORA-rs derives for the paper's twelve non-linearly
//! recursive benchmarks, and the fact that the ICRA-style Kleene baseline
//! derives none of them.
//!
//! The expected strings below are the classes measured by this reproduction
//! (the full table, including the rows that differ from the paper, is pinned
//! in `tests/suite_verdicts.rs`); the test keeps the reproduction honest about
//! which rows match the paper and which do not.

use chora::bench_suite::complexity_suite;
use chora::core::{complexity, Analyzer, BaselineAnalyzer};
use chora::expr::Symbol;
use chora::ir::Interpreter;

fn chora_class(bench: &chora::bench_suite::ComplexityBenchmark) -> String {
    let result = Analyzer::new().analyze(&bench.program);
    bench.table1_row(&result).1.to_string()
}

#[test]
fn exponential_divide_by_one_benchmarks_match_paper() {
    for (name, expected) in [
        ("fibonacci", "O(2^n)"),
        ("hanoi", "O(2^n)"),
        ("subset_sum", "O(2^n)"),
        ("bst_copy", "O(2^n)"),
        ("ball_bins3", "O(3^n)"),
        ("qsort_calls", "O(2^n)"),
    ] {
        let bench = complexity_suite::by_name(name).unwrap();
        assert_eq!(chora_class(&bench), expected, "benchmark {name}");
        assert_eq!(bench.paper_chora, expected, "paper agreement for {name}");
    }
}

#[test]
fn divide_and_conquer_benchmarks_match_paper() {
    let kara = complexity_suite::karatsuba();
    assert_eq!(chora_class(&kara), "O(n^log2(3))");
    let merge = complexity_suite::mergesort();
    assert_eq!(chora_class(&merge), "O(n log n)");
}

#[test]
fn unsupported_benchmarks_report_no_bound() {
    // The paper also reports "n.b." for these two rows.
    for name in ["closest_pair", "ackermann"] {
        let bench = complexity_suite::by_name(name).unwrap();
        assert_eq!(chora_class(&bench), "n.b.", "benchmark {name}");
        assert_eq!(bench.paper_chora, "n.b.");
    }
}

#[test]
fn baseline_finds_no_bounds_on_nonlinear_recursion() {
    // The headline comparison of Table 1: the recurrence-based treatment of
    // non-linear recursion is what separates CHORA from ICRA.
    let mut baseline_bounds = 0;
    let mut chora_bounds = 0;
    for bench in complexity_suite::all() {
        let baseline = BaselineAnalyzer::new().analyze(&bench.program);
        baseline_bounds += usize::from(bench.table1_row(&baseline).0.is_some());
        let ours = Analyzer::new().analyze(&bench.program);
        chora_bounds += usize::from(bench.table1_row(&ours).0.is_some());
    }
    assert_eq!(
        baseline_bounds, 0,
        "the Kleene baseline should find no cost bounds"
    );
    assert!(
        chora_bounds >= 9,
        "CHORA-rs should bound most benchmarks, got {chora_bounds}"
    );
}

#[test]
fn bounds_dominate_measured_cost() {
    // Differential soundness check: the synthesized bound evaluated at n
    // dominates the cost measured by concretely executing the program.
    for name in ["hanoi", "fibonacci", "ball_bins3", "subset_sum"] {
        let bench = complexity_suite::by_name(name).unwrap();
        let result = Analyzer::new().analyze(&bench.program);
        let (bound, _) = bench.table1_row(&result);
        let bound = bound.unwrap_or_else(|| panic!("no bound for {name}"));
        for n in 1..=8i64 {
            let mut interp = Interpreter::new(&bench.program).with_nondet_bool(|| true);
            let args: Vec<i128> = bench
                .program
                .procedure(bench.procedure)
                .unwrap()
                .params
                .iter()
                .map(|p| {
                    if *p == chora::expr::Symbol::new("n") {
                        n as i128
                    } else {
                        0
                    }
                })
                .collect();
            let run = interp.run(bench.procedure, &args).unwrap();
            let measured = run.globals[&Symbol::new(bench.cost_var)] as f64;
            let predicted =
                complexity::eval_bound_at(&bound, &Symbol::new(bench.size_param), n).unwrap();
            assert!(
                predicted + 1e-6 >= measured,
                "{name}: bound {predicted} < measured {measured} at n={n}"
            );
        }
    }
}

#[test]
fn mergesort_bound_tracks_n_log_n_shape() {
    let bench = complexity_suite::mergesort();
    let result = Analyzer::new().analyze(&bench.program);
    let bound = bench.table1_row(&result).0.expect("mergesort has a bound");
    // The bound at 2n should be a little more than twice the bound at n
    // (n log n shape), but far less than four times (not quadratic).
    let b1 = complexity::eval_bound_at(&bound, &Symbol::new("n"), 1 << 14).unwrap();
    let b2 = complexity::eval_bound_at(&bound, &Symbol::new("n"), 1 << 15).unwrap();
    let ratio = b2 / b1;
    assert!(
        ratio > 1.9 && ratio < 2.5,
        "doubling ratio {ratio} not n·log(n)-like"
    );
}
