//! Process-wide telemetry for the CHORA workspace, and its JSON codec: one
//! crate, three surfaces.
//!
//! * [`metrics`] — a global [`metrics::MetricsRegistry`] of counters, gauges,
//!   and log-scale-bucketed histograms, rendered in Prometheus text
//!   exposition format for `GET /v1/metrics`.  The numeric-tower and
//!   Fourier–Motzkin counters that used to live behind a `stats` cargo
//!   feature register their (always-compiled) relaxed atomics here, and the
//!   server/cache layers publish theirs at scrape time, so one scrape sees
//!   the whole process.
//! * [`trace`] — a span API with near-zero disabled cost (one relaxed
//!   atomic load per would-be span) and a per-run recorder that dumps
//!   Chrome trace-event JSON (`chrome://tracing` / Perfetto loadable).
//!   Worker threads of the ready-queue scheduler claim one lane each, and
//!   every span carries the task id plus queue-wait time of the scheduler
//!   task it ran under, so queue-wait vs. run time per SCC task is visible
//!   per worker.
//! * [`json`] — the workspace's one JSON value, parser and string escaper:
//!   `--json` reports (which the daemon's analysis endpoints return),
//!   `/v1/batch` bodies and summary-cache entries are built, rendered and
//!   parsed with it, and the hand-laid-out documents (Chrome trace,
//!   `/v1/stats`) escape their strings with it.
//!
//! The crate is std-only and depends on nothing in the workspace, so every
//! layer (numeric, logic, recurrence, core, server, cli) can use it without
//! dependency cycles.  Instrumentation never touches analysis results or
//! stdout: traces go to a separate file or response field, and goldens stay
//! byte-identical with tracing on or off.

pub mod json;
pub mod metrics;
pub mod trace;
