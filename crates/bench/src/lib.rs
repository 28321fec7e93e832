//! # chora-bench
//!
//! The rows of the paper's evaluation (§5): Table 1's complexity classes
//! and the assertion verdicts of Table 2 and Fig. 3, each for CHORA-rs and
//! for the ICRA-style baseline, with the wall clock of the CHORA-rs
//! analysis.  `chora bench` renders them.  The `benches/` directory holds
//! the ablation study and the substrate micro-benchmarks.

use chora_bench_suite::{
    assertion_suite, complexity_suite, AssertionBenchmark, ComplexityBenchmark,
};
use chora_core::{AnalysisResult, Analyzer, BaselineAnalyzer, ComplexityClass, PhaseTimings};
use chora_ir::Program;
use std::time::Instant;

/// One benchmark of the evaluation with the verdict `V` of each analyzer.
#[derive(Clone, Debug)]
pub struct Row<B, V> {
    pub bench: B,
    /// The verdict of the CHORA-rs analyzer the rows were built with.
    pub chora: V,
    /// The verdict of [`BaselineAnalyzer`], the ICRA-style baseline.
    pub icra: V,
    /// Wall clock of the CHORA-rs analysis and its verdict; the baseline is
    /// not timed.
    pub analysis_ms: f64,
    /// The CHORA-rs analysis' own phase split.
    pub phases: PhaseTimings,
}

/// A Table 1 row: the asymptotic class of the cost bound.
pub type ComplexityRow = Row<ComplexityBenchmark, ComplexityClass>;

/// A Table 2 / Fig. 3 row: whether the program is proved.
pub type AssertionRow = Row<AssertionBenchmark, bool>;

/// The Table 1 rows whose benchmark name `keep` accepts, in suite order.
pub fn complexity_rows(analyzer: &Analyzer, keep: impl Fn(&str) -> bool) -> Vec<ComplexityRow> {
    rows(
        complexity_suite::all(),
        analyzer,
        keep,
        |b| (b.name, &b.program),
        |b, result| b.table1_row(result).1,
    )
}

/// The Table 2 and Fig. 3 rows whose benchmark name `keep` accepts, in
/// suite order.
pub fn assertion_rows(analyzer: &Analyzer, keep: impl Fn(&str) -> bool) -> Vec<AssertionRow> {
    rows(
        assertion_suite::all(),
        analyzer,
        keep,
        |b| (b.name, &b.program),
        AssertionBenchmark::proved_in,
    )
}

fn rows<B, V>(
    benches: Vec<B>,
    analyzer: &Analyzer,
    keep: impl Fn(&str) -> bool,
    named: fn(&B) -> (&str, &Program),
    verdict: fn(&B, &AnalysisResult) -> V,
) -> Vec<Row<B, V>> {
    benches
        .into_iter()
        .filter(|b| keep(named(b).0))
        .map(|bench| {
            let program = named(&bench).1;
            let started = Instant::now();
            let result = analyzer.analyze(program);
            let chora = verdict(&bench, &result);
            let analysis_ms = started.elapsed().as_secs_f64() * 1e3;
            let icra = verdict(&bench, &BaselineAnalyzer::new().analyze(program));
            Row {
                bench,
                chora,
                icra,
                analysis_ms,
                phases: result.timings,
            }
        })
        .collect()
}
