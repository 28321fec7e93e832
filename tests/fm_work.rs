//! The Fourier–Motzkin work of one pass over the paper's evaluation, pinned.
//!
//! One jobs-1 analysis of each of the twelve Table 1 programs (plus its
//! `table1_row`) and each of the fifteen Table 2 / Fig. 3
//! assertion programs, in suite order, must produce exactly these
//! `chora_logic::stats` counters.  They count rows the elimination engine
//! generates and prunes and the emptiness questions it answers, so a change
//! that alters FM work must update this table deliberately (as with
//! `tests/suite_verdicts.rs`).  An optimization of the elimination itself
//! that is meant to be exact must leave them alone; one that answers
//! questions without eliminating (the memo, the simplex witness) moves the
//! row counters by exactly the eliminations it skips.
//!
//! The counters are process-wide, so this binary holds a single test: no
//! other test can run in parallel and move them.

use chora::bench_suite::{assertion_suite, complexity_suite};
use chora::core::{AnalysisConfig, Analyzer};
use chora::logic::stats::{self, FmStats};

#[test]
fn fm_work_of_one_suite_pass_is_pinned() {
    let analyzer = Analyzer::with_config(AnalysisConfig {
        jobs: 1,
        ..AnalysisConfig::default()
    });
    stats::reset();
    for bench in complexity_suite::all() {
        bench.table1_row(&analyzer.analyze(&bench.program));
    }
    for bench in assertion_suite::all() {
        analyzer.analyze(&bench.program);
    }
    assert_eq!(
        stats::snapshot(),
        FmStats {
            rows_generated: 28_687,
            rows_deduped: 4_286,
            rows_dominated: 1_679,
            imbert_skipped: 1_462,
            early_unsat_exits: 418,
            max_width: 500,
            emptiness_checks: 8_404,
            emptiness_memo_hits: 4_750,
            emptiness_witnesses: 2_355,
            overflow_restarts: 0,
        }
    );
}
