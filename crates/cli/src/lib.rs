//! # chora-cli
//!
//! File-driven front-end for the CHORA analyzer: a small textual imperative
//! language (`.imp`) with procedures, integer globals, `if`/`while`,
//! (recursive) calls, `assume`/`assert`, and non-determinism, lowered to
//! [`chora_ir::Program`] and analyzed by [`chora_core::Analyzer`].
//!
//! ```text
//! // examples/programs/hanoi.imp
//! global cost;
//!
//! proc hanoi(n) {
//!     cost := cost + 1;
//!     if (n > 0) {
//!         hanoi(n - 1);
//!         hanoi(n - 1);
//!     }
//! }
//! ```
//!
//! Subcommands (see `chora --help`):
//!
//! * `analyze FILE` — full report: summaries, bound facts, depth bounds, and
//!   assertion verdicts,
//! * `complexity FILE` — the Table 1 view: a closed-form cost bound and its
//!   asymptotic class,
//! * `bench` — rerun the built-in paper benchmark suites with timings
//!   (`--server` replays programs through a live daemon instead),
//! * `print FILE` — parse and pretty-print (the round-trip surface),
//! * `serve` — a long-running analysis daemon over keep-alive HTTP with a
//!   resident tiered summary store, a parsed-program cache, and a
//!   rendered-response cache (see the [`serve`] module),
//! * `request ENDPOINT [FILE...]` — one HTTP round-trip against `chora
//!   serve` (the `batch` endpoint takes several FILEs and analyzes them in
//!   one request).
//!
//! All file-driven subcommands accept `--json` for machine-readable output
//! and `-` as FILE to read the program from stdin.

pub mod driver;
pub use chora_telemetry::json;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod progcache;
pub mod serve;

pub use driver::{
    analyze, analyze_program, analyze_source, analyze_with_stats, bench, complexity_cmd,
    complexity_program, complexity_source, print_cmd, read_source, BenchOptions, CliError,
    FileOptions,
};
pub use lexer::ParseError;
pub use parser::parse_program;
pub use printer::{print_cond, print_expr, print_program};
pub use serve::{
    request, serve as serve_cmd, spawn_server, AnalysisService, RequestOptions, ServeOptions,
};
