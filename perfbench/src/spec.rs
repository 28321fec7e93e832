//! The benchmark's definition: workloads, metrics with units, directions
//! and regression bounds, and which end-to-end metric each per-layer
//! metric should move.  `--describe` prints it as JSON; `run.py` writes
//! `BENCHMARK.json` from it.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 30;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "suite-cold",
        why: "The paper's evaluation: 12 Table 1 + 15 Table 2/Fig. 3 programs via Analyzer::analyze, jobs=1, no store; summarize, height, recurrence, depth, FM and check do the work",
    },
    Workload {
        name: "serve-edits",
        why: "Daemon steady state: 2 keep-alive connections post distinct seeded edits of warm programs; parse, fingerprint, store loads, check and HTTP do the work",
    },
    Workload {
        name: "batch-fresh",
        why: "One connection posts /v1/batch?jobs=2 of alpha-renamed suite programs to a byte-capped store: every key is new, so misses, writes, evictions and the parallel ready queue",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "programs/s",
        better: "higher",
        bound: 0.24,
    },
    EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.24,
    },
    EndToEnd {
        name: "latency_ms_p90",
        unit: "ms",
        better: "lower",
        bound: 0.24,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "success_rate",
        unit: "ratio",
        better: "higher",
        bound: 0.01,
    },
    EndToEnd {
        name: "assertions_proved",
        unit: "count",
        better: "higher",
        bound: 0.1,
    },
    EndToEnd {
        name: "table1_class_matches",
        unit: "count",
        better: "higher",
        bound: 0.05,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metrics this layer metric should move.
    pub moves: &'static str,
    /// Workloads on which the layer does most of its work.
    pub heavy_on: &'static str,
    /// Workloads on which it does little or none.
    pub light_on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    heavy_on: &'static str,
    light_on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        heavy_on,
        light_on,
    }
}

const LATENCY: &str = "latency_ms_p50, latency_ms_p90, throughput_ops_s";
const SERVE_LATENCY: &str = "latency_ms_p50 on serve workloads";

pub const PER_LAYER: [PerLayer; 30] = [
    layer(
        "core.height.self_ms",
        "ms/op",
        "lower",
        LATENCY,
        "suite-cold, batch-fresh",
        "serve-edits",
    ),
    layer(
        "core.height.calls",
        "count/op",
        "lower",
        LATENCY,
        "suite-cold, batch-fresh",
        "serve-edits",
    ),
    layer(
        "logic.polyhedron.fm.self_ms",
        "ms/op",
        "lower",
        LATENCY,
        "suite-cold",
        "serve-edits",
    ),
    layer(
        "logic.polyhedron.fm.rows_generated",
        "count/op",
        "lower",
        LATENCY,
        "suite-cold",
        "serve-edits",
    ),
    layer(
        "logic.polyhedron.fm.rows_kept_ratio",
        "ratio",
        "higher",
        LATENCY,
        "suite-cold",
        "serve-edits",
    ),
    layer(
        "recurrence.solver.self_ms",
        "ms/op",
        "lower",
        LATENCY,
        "suite-cold",
        "serve-edits",
    ),
    layer(
        "recurrence.solver.calls",
        "count/op",
        "lower",
        LATENCY,
        "suite-cold",
        "serve-edits",
    ),
    layer(
        "core.depth.self_ms",
        "ms/op",
        "lower",
        LATENCY,
        "suite-cold, batch-fresh",
        "serve-edits",
    ),
    layer(
        "core.summarize.self_ms",
        "ms/op",
        "lower",
        LATENCY,
        "suite-cold, batch-fresh",
        "serve-edits",
    ),
    layer(
        "core.check.self_ms",
        "ms/op",
        "lower",
        "latency_ms_p50",
        "suite-cold, serve-edits",
        "-",
    ),
    layer(
        "numeric.heap_op_ratio",
        "ratio",
        "lower",
        "throughput_ops_s",
        "suite-cold",
        "serve-edits",
    ),
    layer(
        "cli.parser.self_ms",
        "ms/op",
        "lower",
        SERVE_LATENCY,
        "serve-edits",
        "suite-cold (0)",
    ),
    layer(
        "cli.parser.bytes_per_s",
        "B/s",
        "higher",
        SERVE_LATENCY,
        "serve-edits",
        "suite-cold (0)",
    ),
    layer(
        "ir.fingerprint.self_ms",
        "ms/op",
        "lower",
        SERVE_LATENCY,
        "serve-edits",
        "suite-cold (0)",
    ),
    layer(
        "core.store.load_ms",
        "ms/op",
        "lower",
        "serve latency, peak_rss_mb",
        "serve-edits",
        "suite-cold (0)",
    ),
    layer(
        "core.store.store_ms",
        "ms/op",
        "lower",
        "serve latency, peak_rss_mb",
        "batch-fresh",
        "suite-cold (0)",
    ),
    layer(
        "core.store.hit_ratio",
        "ratio",
        "higher",
        "serve latency, peak_rss_mb",
        "serve-edits",
        "suite-cold (0)",
    ),
    layer(
        "core.store.evictions",
        "count/op",
        "lower",
        "serve latency, peak_rss_mb",
        "batch-fresh",
        "suite-cold (0)",
    ),
    layer(
        "core.store.resident_bytes",
        "B",
        "lower",
        "peak_rss_mb",
        "serve-edits, batch-fresh",
        "suite-cold (0)",
    ),
    layer(
        "cli.progcache.parse_hit_ratio",
        "ratio",
        "higher",
        "serve latency",
        "serve-edits",
        "batch-fresh",
    ),
    layer(
        "cli.progcache.response_hit_ratio",
        "ratio",
        "higher",
        "serve latency",
        "serve-edits",
        "batch-fresh",
    ),
    layer(
        "server.server_ms",
        "ms/op",
        "lower",
        "latency_ms_p90",
        "serve-edits",
        "suite-cold (0)",
    ),
    layer(
        "server.client_overhead_ms",
        "ms/op",
        "lower",
        "latency_ms_p90",
        "serve-edits",
        "suite-cold (0)",
    ),
    layer(
        "server.queue_wait_ms",
        "ms",
        "lower",
        "latency_ms_p90",
        "serve-edits",
        "suite-cold (0)",
    ),
    layer(
        "core.analysis.queue_wait_ms",
        "ms",
        "lower",
        "throughput_ops_s",
        "batch-fresh",
        "suite-cold (jobs=1)",
    ),
    layer(
        "core.analysis.worker_busy_ratio",
        "ratio",
        "higher",
        "throughput_ops_s",
        "batch-fresh",
        "suite-cold (jobs=1)",
    ),
    layer(
        "core.analysis.task_self_ms",
        "ms/op",
        "lower",
        "throughput_ops_s",
        "batch-fresh",
        "-",
    ),
    layer("unattributed_ratio", "ratio", "lower", "-", "all", "-"),
    layer("trace_overhead_ms", "ms/op", "lower", "-", "all", "-"),
    layer("trace_overhead_ratio", "ratio", "lower", "-", "all", "-"),
];

/// The seed later performance claims are developed on, and the one held
/// out to confirm them.
pub const DEV_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 9001;

pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

fn quote(s: &str) -> String {
    chora_server::http::json_string(s)
}

/// The whole definition as one JSON document.
pub fn describe() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"moves\": {}, \"heavy_on\": {}, \"light_on\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better),
                quote(m.moves),
                quote(m.heavy_on),
                quote(m.light_on)
            )
        })
        .collect();
    format!(
        "{{\"run_seconds\": {RUN_SECONDS}, \"workloads\": [{}], \"end_to_end\": [{}], \"per_layer\": [{}], \"dev_seed\": {DEV_SEED}, \"held_out_seed\": {HELD_OUT_SEED}}}",
        workloads.join(", "),
        end_to_end.join(", "),
        per_layer.join(", ")
    )
}
