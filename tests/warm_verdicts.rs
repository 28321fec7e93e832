//! A warm analysis re-proves nothing.
//!
//! A summary-store entry carries each member's assertion verdicts next to
//! its summary, so once every component of a program hits the store, no
//! assertion task walks its body.  This analyzes every assertion-suite
//! program cold and then warm through one memory-only store, at one and two
//! workers: the warm verdicts must equal the cold ones, and the warm pass
//! must not move any `chora_logic::stats` counter — it asks the
//! Fourier–Motzkin engine nothing.
//!
//! The counters are process-wide, so this binary holds a single test: no
//! other test can run in parallel and move them.

use chora::bench_suite::assertion_suite;
use chora::core::{AnalysisConfig, AnalysisResult, Analyzer, TieredConfig, TieredStore};
use chora::logic::stats;

#[test]
fn a_warm_pass_restores_every_verdict_without_fm_work() {
    let suite = assertion_suite::all();
    for jobs in [1, 2] {
        let analyzer = Analyzer::with_config(AnalysisConfig {
            jobs,
            ..AnalysisConfig::default()
        });
        let store = TieredStore::new(
            None,
            None,
            TieredConfig {
                cap_bytes: None,
                ..TieredConfig::default()
            },
        );
        let pass = || -> Vec<AnalysisResult> {
            suite
                .iter()
                .map(|bench| analyzer.analyze_with_store(&bench.program, Some(&store)))
                .collect()
        };
        let cold = pass();
        let before = stats::snapshot();
        let warm = pass();
        assert_eq!(
            stats::snapshot(),
            before,
            "jobs={jobs}: the warm pass must do no Fourier–Motzkin work"
        );
        let mut checked = 0;
        for ((bench, cold), warm) in suite.iter().zip(&cold).zip(&warm) {
            assert_eq!(warm.cache.misses, 0, "jobs={jobs}: {} is warm", bench.name);
            assert_eq!(
                warm.assertions, cold.assertions,
                "jobs={jobs}: {} keeps its verdicts",
                bench.name
            );
            assert_eq!(warm.timings.check_ms, 0.0, "jobs={jobs}: {}", bench.name);
            checked += warm.assertions.len();
        }
        assert_eq!(checked, 16, "jobs={jobs}: every suite assertion is checked");
    }
}
