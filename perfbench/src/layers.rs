//! Per-layer attribution of a traced run.
//!
//! Layer time comes from the spans the program already records
//! (`chora_telemetry::trace`): a span's *self* time is its duration minus
//! the spans nested directly inside it on the same lane (thread), and each
//! span name belongs to one layer.  The benchmark's own spans (category
//! `bench`, one per operation) mark the operations.  `unattributed_ratio`
//! is the share of the program's busy time during which no program span
//! is open: busy time is the daemon's request-handling time (its
//! `/v1/metrics` histogram) on the serve workloads and the operations'
//! wall on `suite-cold`; covered time is the union of span intervals per
//! thread, with the ready-queue workers of a parallel analysis counted as
//! one thread (they run while the thread that started them waits).
//! Counts and ratios come from the counters the program keeps (FM and
//! numeric statistics, the metrics registry, the daemon's store and
//! request caches, and its `/v1/metrics` scrape), as before/after deltas.

use crate::stats::{mean, median};
use crate::Sample;
use chora_cli::AnalysisService;
use chora_server::client::Client;
use chora_telemetry::trace::{Trace, TraceEvent};
use std::collections::BTreeMap;

/// The layer a program span belongs to, by span name.
fn layer(event: &TraceEvent) -> &'static str {
    if event.cat == "task" {
        return "core.analysis";
    }
    match event.name.as_ref() {
        "parse" => "cli.parser",
        "fingerprint" => "ir.fingerprint",
        "summarize" => "core.summarize",
        "height" => "core.height",
        "depth" => "core.depth",
        "check" => "core.check",
        "cache_load" => "core.store.load",
        "cache_store" => "core.store.store",
        "fm_project" | "fm_eliminate" => "logic.polyhedron.fm",
        "recurrence_solve" => "recurrence.solver",
        _ => "other",
    }
}

/// Span self time and call counts per layer, plus the benchmark's own
/// operation spans.
#[derive(Debug, Default)]
pub struct Fold {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub calls: BTreeMap<&'static str, u64>,
    /// Σ duration of the benchmark's operation spans.
    pub wall_ns: u64,
    /// `(start, end)` of every operation span.
    pub ops: Vec<(u64, u64)>,
    /// Σ duration of scheduler task spans.
    pub task_ns: u64,
    /// Time during which some program span was open, per thread (see the
    /// module documentation).
    pub covered_ns: u64,
}

pub fn fold(trace: &Trace) -> Fold {
    let mut by_lane: BTreeMap<u32, Vec<&TraceEvent>> = BTreeMap::new();
    for event in &trace.events {
        by_lane.entry(event.lane).or_default().push(event);
    }
    let mut out = Fold::default();
    let mut covered: BTreeMap<Option<u32>, Vec<(u64, u64)>> = BTreeMap::new();
    for (&lane, events) in by_lane.iter_mut() {
        let ready_queue_worker = trace
            .lanes
            .get(lane as usize)
            .is_some_and(|name| name.starts_with("worker-"));
        let group = (!ready_queue_worker).then_some(lane);
        // Parents sort before the children they enclose.
        events.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.start_ns + e.dur_ns)));
        let mut child_ns = vec![0u64; events.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, e) in events.iter().enumerate() {
            while let Some(&top) = stack.last() {
                if events[top].start_ns + events[top].dur_ns <= e.start_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                child_ns[parent] += e.dur_ns;
            }
            stack.push(i);
        }
        for (e, children) in events.iter().zip(child_ns) {
            if e.cat == "bench" {
                out.wall_ns += e.dur_ns;
                out.ops.push((e.start_ns, e.start_ns + e.dur_ns));
                continue;
            }
            covered
                .entry(group)
                .or_default()
                .push((e.start_ns, e.start_ns + e.dur_ns));
            let layer = layer(e);
            *out.self_ns.entry(layer).or_default() += e.dur_ns.saturating_sub(children);
            *out.calls.entry(layer).or_default() += 1;
            if e.cat == "task" {
                out.task_ns += e.dur_ns;
            }
        }
    }
    out.ops.sort_unstable();
    out.covered_ns = covered
        .into_values()
        .map(|spans| length(&union(spans)))
        .sum();
    out
}

fn length(intervals: &[(u64, u64)]) -> u64 {
    intervals.iter().map(|(s, e)| e - s).sum()
}

/// The disjoint, sorted union of `intervals`.
fn union(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (s, e) in intervals {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of the union of the operation intervals: the time at least
/// one operation was in flight.
fn busy_span_ns(ops: &[(u64, u64)]) -> u64 {
    length(&union(ops.to_vec()))
}

/// Counter values read before and after the traced window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Snapshot {
    fm: chora_logic::stats::FmStats,
    numeric: chora_numeric::stats::NumericStats,
    sched_wait: (u64, f64),
    store_hits: u64,
    store_misses: u64,
    store_evictions: u64,
    store_bytes: u64,
    parse: (u64, u64),
    response: (u64, u64),
    /// `(count, sum ms)` of the daemon's request-duration histogram.
    http: (u64, f64),
}

fn scheduler_wait() -> (u64, f64) {
    let h = chora_telemetry::metrics::registry().histogram(
        "chora_scheduler_queue_wait_ms",
        "Time tasks spent in the ready queue before a worker picked them up.",
    );
    (h.count(), h.sum_ms())
}

/// `(count, sum)` of `chora_http_request_duration_ms` for `endpoint`, read
/// from a `/v1/metrics` scrape.
pub fn scrape_http(client: &mut Client, endpoint: &str) -> Result<(u64, f64), String> {
    let (status, body) = client
        .get("/v1/metrics")
        .map_err(|e| format!("GET /v1/metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /v1/metrics answered {status}"));
    }
    let series = format!("{{endpoint=\"{endpoint}\"}} ");
    let value = |family: &str| -> f64 {
        body.lines()
            .find_map(|l| l.strip_prefix(family)?.strip_prefix(series.as_str()))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    };
    Ok((
        value("chora_http_request_duration_ms_count") as u64,
        value("chora_http_request_duration_ms_sum"),
    ))
}

/// Reads the counters; `http` is the daemon's scraped request histogram.
pub fn snapshot(service: Option<&AnalysisService>, http: (u64, f64)) -> Snapshot {
    let mut snap = Snapshot {
        fm: chora_logic::stats::snapshot(),
        numeric: chora_numeric::stats::snapshot(),
        sched_wait: scheduler_wait(),
        ..Snapshot::default()
    };
    if let Some(service) = service {
        let c = service.store().counters();
        snap.store_hits = c.mem_hits + c.disk_hits;
        snap.store_misses = c.misses;
        snap.store_evictions = c.lru_evictions;
        snap.store_bytes = c.mem_bytes;
        snap.parse = (service.parse_cache().hits(), service.parse_cache().misses());
        snap.response = (
            service.response_cache().hits(),
            service.response_cache().misses(),
        );
    }
    snap.http = http;
    snap
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Everything one traced window produced.
pub struct TracedRun<'a> {
    pub fold: &'a Fold,
    pub before: Snapshot,
    pub after: Snapshot,
    pub traced: &'a [Sample],
    /// The untraced window run just before, for the tracing overhead.
    pub untraced: &'a [Sample],
    /// Analysis threads the workload can keep busy at once.
    pub capacity: usize,
}

/// Every per-layer metric, in declaration order (see `spec::PER_LAYER`).
pub fn metrics(run: &TracedRun) -> Vec<(&'static str, f64)> {
    let f = run.fold;
    let (b, a) = (&run.before, &run.after);
    let ops = run.traced.len().max(1) as f64;
    let ms_per_op = |layer: &str| f.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6 / ops;
    let per_op = |layer: &str| f.calls.get(layer).copied().unwrap_or(0) as f64 / ops;

    let generated = a.fm.rows_generated - b.fm.rows_generated;
    let dropped =
        (a.fm.rows_deduped - b.fm.rows_deduped) + (a.fm.rows_dominated - b.fm.rows_dominated);
    let small = (a.numeric.small_ops - b.numeric.small_ops)
        + (a.numeric.rational_small_ops - b.numeric.rational_small_ops);
    let heap = (a.numeric.heap_ops - b.numeric.heap_ops)
        + (a.numeric.rational_heap_ops - b.numeric.rational_heap_ops);

    let parse_hits = (a.parse.0 - b.parse.0) as f64;
    let parse_misses = (a.parse.1 - b.parse.1) as f64;
    let bytes_sent: u64 = run.traced.iter().map(|s| s.bytes).sum();
    let parse_s = f.self_ns.get("cli.parser").copied().unwrap_or(0) as f64 / 1e9;
    let bytes_parsed = bytes_sent as f64 * ratio(parse_misses, parse_hits + parse_misses);

    let store_hits = (a.store_hits - b.store_hits) as f64;
    let store_lookups = store_hits + (a.store_misses - b.store_misses) as f64;
    let response_hits = (a.response.0 - b.response.0) as f64;
    let response_lookups = response_hits + (a.response.1 - b.response.1) as f64;

    let http_count = a.http.0 - b.http.0;
    let server_ms = ratio(a.http.1 - b.http.1, http_count as f64);
    let latency =
        |samples: &[Sample]| mean(&samples.iter().map(|s| s.latency_ms).collect::<Vec<_>>());
    let traced_ms = latency(run.traced);
    let untraced_ms = latency(run.untraced);

    // Waiting for a connection to be accepted and handed to a pool worker:
    // the first request on each connection, beyond a reused one's transport.
    let reused: Vec<f64> = run
        .traced
        .iter()
        .filter(|s| !s.fresh_connection)
        .filter_map(|s| s.outside_ms)
        .collect();
    let fresh: Vec<f64> = run
        .traced
        .iter()
        .filter(|s| s.fresh_connection)
        .filter_map(|s| s.outside_ms)
        .collect();
    let queue_wait = if fresh.is_empty() {
        0.0
    } else {
        (mean(&fresh) - median(&reused)).max(0.0)
    };

    let tasks = a.sched_wait.0 - b.sched_wait.0;
    let busy_ns = if http_count > 0 {
        ((a.http.1 - b.http.1) * 1e6) as u64
    } else {
        f.wall_ns
    };

    vec![
        ("core.height.self_ms", ms_per_op("core.height")),
        ("core.height.calls", per_op("core.height")),
        (
            "logic.polyhedron.fm.self_ms",
            ms_per_op("logic.polyhedron.fm"),
        ),
        ("logic.polyhedron.fm.rows_generated", generated as f64 / ops),
        (
            "logic.polyhedron.fm.rows_kept_ratio",
            ratio(generated.saturating_sub(dropped) as f64, generated as f64),
        ),
        ("recurrence.solver.self_ms", ms_per_op("recurrence.solver")),
        ("recurrence.solver.calls", per_op("recurrence.solver")),
        ("core.depth.self_ms", ms_per_op("core.depth")),
        ("core.summarize.self_ms", ms_per_op("core.summarize")),
        ("core.check.self_ms", ms_per_op("core.check")),
        (
            "numeric.heap_op_ratio",
            ratio(heap as f64, (small + heap) as f64),
        ),
        ("cli.parser.self_ms", ms_per_op("cli.parser")),
        ("cli.parser.bytes_per_s", ratio(bytes_parsed, parse_s)),
        ("ir.fingerprint.self_ms", ms_per_op("ir.fingerprint")),
        ("core.store.load_ms", ms_per_op("core.store.load")),
        ("core.store.store_ms", ms_per_op("core.store.store")),
        ("core.store.hit_ratio", ratio(store_hits, store_lookups)),
        (
            "core.store.evictions",
            (a.store_evictions - b.store_evictions) as f64 / ops,
        ),
        ("core.store.resident_bytes", a.store_bytes as f64),
        (
            "cli.progcache.parse_hit_ratio",
            ratio(parse_hits, parse_hits + parse_misses),
        ),
        (
            "cli.progcache.response_hit_ratio",
            ratio(response_hits, response_lookups),
        ),
        ("server.server_ms", server_ms),
        (
            "server.client_overhead_ms",
            if http_count > 0 {
                traced_ms - server_ms
            } else {
                0.0
            },
        ),
        ("server.queue_wait_ms", queue_wait),
        (
            "core.analysis.queue_wait_ms",
            ratio(a.sched_wait.1 - b.sched_wait.1, tasks as f64),
        ),
        (
            "core.analysis.worker_busy_ratio",
            ratio(
                f.task_ns as f64,
                (run.capacity as u64 * busy_span_ns(&f.ops)) as f64,
            ),
        ),
        ("core.analysis.task_self_ms", ms_per_op("core.analysis")),
        (
            "unattributed_ratio",
            ratio(busy_ns.saturating_sub(f.covered_ns) as f64, busy_ns as f64),
        ),
        ("trace_overhead_ms", traced_ms - untraced_ms),
        (
            "trace_overhead_ratio",
            ratio(traced_ms - untraced_ms, untraced_ms),
        ),
    ]
}

/// A fixed-width table of the per-layer metrics.
pub fn table(workload: &str, metrics: &[(&'static str, f64)]) -> String {
    let mut out = format!("per-layer metrics, workload {workload}\n");
    for (name, value) in metrics {
        let unit = crate::spec::per_layer_unit(name);
        out.push_str(&format!("  {name:<38} {value:>14.4} {unit}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn event(cat: &'static str, name: &'static str, lane: u32, start: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name: Cow::Borrowed(name),
            cat,
            lane,
            start_ns: start,
            dur_ns: dur,
            task: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_per_lane() {
        let trace = Trace {
            events: vec![
                event("bench", "program", 0, 0, 100),
                event("task", "component f", 0, 5, 90),
                event("phase", "height", 0, 10, 60),
                event("fm", "fm_project", 0, 20, 15),
                event("fm", "fm_project", 0, 40, 5),
                // Another lane overlapping in time is not a child.
                event("phase", "parse", 1, 10, 30),
            ],
            lanes: vec!["a".into(), "b".into()],
        };
        let f = fold(&trace);
        assert_eq!(f.wall_ns, 100);
        assert_eq!(f.self_ns["core.analysis"], 30);
        assert_eq!(f.self_ns["core.height"], 40);
        assert_eq!(f.self_ns["logic.polyhedron.fm"], 20);
        assert_eq!(f.self_ns["cli.parser"], 30);
        assert_eq!(f.calls["logic.polyhedron.fm"], 2);
        assert_eq!(f.task_ns, 90);
        // Lane a: the task span covers 5..95; lane b: the parse span, 30.
        assert_eq!(f.covered_ns, 120);
    }

    #[test]
    fn metrics_follow_the_declared_per_layer_list() {
        let run = TracedRun {
            fold: &Fold::default(),
            before: Snapshot::default(),
            after: Snapshot::default(),
            traced: &[],
            untraced: &[],
            capacity: 1,
        };
        let names: Vec<&str> = metrics(&run).iter().map(|m| m.0).collect();
        let declared: Vec<&str> = crate::spec::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
    }

    #[test]
    fn busy_span_merges_overlapping_operations() {
        assert_eq!(busy_span_ns(&[(0, 10), (5, 20), (30, 40)]), 30);
        assert_eq!(busy_span_ns(&[]), 0);
    }
}
