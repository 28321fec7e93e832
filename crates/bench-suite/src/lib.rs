//! # chora-bench-suite
//!
//! Every benchmark program from the CHORA evaluation (§5), expressed in the
//! `chora-ir` language, together with the results the paper reports for each
//! tool — the raw material for regenerating Table 1, Table 2, and Figure 3.
//! [`ComplexityBenchmark::table1_row`] and [`AssertionBenchmark::proved_in`]
//! read a benchmark's verdict off an analysis of its program; `chora bench`
//! renders the tables from them.
//!
//! * [`complexity_suite`] — the twelve complexity-analysis benchmarks of
//!   Table 1 (fibonacci ... ackermann), each instrumented with a cost
//!   counter;
//! * [`assertion_suite`] — the three hand-written assertion benchmarks of
//!   Table 2 (`quad`, `pow2_overflow`, `height`) and an SV-COMP-recursive
//!   style suite for Figure 3;
//! * [`mutual_suite`] — the worked mutual-recursion examples of §4.4/§4.5.
//!
//! ```
//! use chora_bench_suite::complexity_suite;
//! let rows = complexity_suite::all();
//! assert_eq!(rows.len(), 12);
//! assert!(rows.iter().any(|b| b.name == "strassen"));
//! ```

pub mod assertion_suite;
pub mod complexity_suite;
pub mod mutual_suite;

pub use assertion_suite::AssertionBenchmark;
pub use complexity_suite::ComplexityBenchmark;
