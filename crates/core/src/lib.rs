//! # chora-core
//!
//! The CHORA analysis itself — a Rust reproduction of *"Templates and
//! Recurrences: Better Together"* (PLDI 2020):
//!
//! * [`summarize::Summarizer`] — intra-procedural summarization
//!   (`Summary(P, φ)` of §3) over the structured IR, with CRA-style loop
//!   summarization, and the one forward walk ([`summarize::Summarizer::walk`])
//!   that hands each `assert` and call, with the formula reaching it, to a
//!   visitor: assertion checking and the descent relation of [`depth`],
//! * [`height`] — height-based recurrence analysis: Alg. 2 (hypothetical
//!   summaries and candidate recurrence inequations), Alg. 3 (stratified
//!   recurrence construction), recurrence solving (§4.1, §4.4),
//! * [`depth`] — depth-bound analysis `ζ_P` (§4.2, Alg. 4),
//! * [`analysis::Analyzer`] — the bottom-up interprocedural driver (a
//!   dependency-counted ready queue) producing
//!   [`analysis::ProcedureSummary`]s and assertion verdicts,
//! * [`complexity`] — resource-bound extraction and asymptotic
//!   classification (Table 1),
//! * [`baseline::BaselineAnalyzer`] — the ICRA-style comparator: the same
//!   driver, with Kleene iteration as its step for recursive components.
//!
//! ```
//! use chora_core::{Analyzer, complexity};
//! use chora_ir::{Cond, Expr, Procedure, Program, Stmt};
//! use chora_expr::Symbol;
//!
//! // The Tower-of-Hanoi cost model (Table 1, row "hanoi").
//! let mut prog = Program::new();
//! prog.add_global("cost");
//! prog.add_procedure(Procedure::new(
//!     "hanoi",
//!     &["n"],
//!     &[],
//!     Stmt::seq(vec![
//!         Stmt::assign("cost", Expr::var("cost").add(Expr::int(1))),
//!         Stmt::if_then(
//!             Cond::gt(Expr::var("n"), Expr::int(0)),
//!             Stmt::seq(vec![
//!                 Stmt::call("hanoi", vec![Expr::var("n").sub(Expr::int(1))]),
//!                 Stmt::call("hanoi", vec![Expr::var("n").sub(Expr::int(1))]),
//!             ]),
//!         ),
//!     ]),
//! ));
//! let result = Analyzer::new().analyze(&prog);
//! let summary = result.summary("hanoi").unwrap();
//! let (bound, class) = complexity::table1_row(summary, &Symbol::new("cost"), &Symbol::new("n"));
//! assert!(bound.is_some());
//! assert_eq!(class.to_string(), "O(2^n)");
//! ```

pub mod analysis;
pub mod baseline;
pub mod cache;
pub mod complexity;
pub mod depth;
pub mod height;
pub mod lower;
pub mod store;
pub mod summarize;

pub use analysis::{
    AnalysisConfig, AnalysisResult, Analyzer, AssertionResult, BoundFact, PhaseTimings,
    ProcedureSummary,
};
pub use baseline::BaselineAnalyzer;
pub use cache::{entry_key, next_flight_group, ComponentScopes, NullScopes, ScopeResolver};
pub use complexity::ComplexityClass;
pub use depth::DepthBound;
pub use store::{
    CacheStats, ComponentEntry, DiskStore, FlightCounters, RemoteStore, ShardedLru, SingleFlight,
    SummaryStore, TierCounters, TieredConfig, TieredStore,
};
