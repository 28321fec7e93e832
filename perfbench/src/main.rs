//! `chora-perfbench`: the repository benchmark.
//!
//! ```text
//! chora-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--root DIR] [--out DIR]
//! chora-perfbench --describe
//! ```
//!
//! One run sets the workload up several times (reporting the median set-up
//! time), measures it for `--seconds`, checks every output, runs the
//! soundness oracle, and prints one JSON result line on stdout.  With
//! `--trace 0` the line carries the end-to-end metrics; with `--trace 1`
//! the first half of the time runs untraced and the second half under a
//! span trace, and the line carries the per-layer metrics (with `--out`,
//! the per-layer table and a Chrome trace file are written there too).
//! Progress and a human summary go to stderr.  See `spec.rs` for the
//! workloads and metrics.

mod edits;
mod layers;
mod oracle;
mod serve;
mod spec;
mod stats;
mod suite;

use stats::{median, percentile, Rng};
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run; the reported `setup_s` is their median, each at
/// nominal machine speed (see `stats::slowdown`).
const SETUP_REPEATS: usize = 5;
/// At most this many spans go into the Chrome trace file.
const CHROME_TRACE_EVENTS: usize = 200_000;

/// One timed operation: a program (`suite-cold`) or a request.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    pub latency_ms: f64,
    /// Programs the operation analyzed.
    pub programs: u64,
    /// Whether the output passed its check.
    pub ok: bool,
    /// Request body bytes.
    pub bytes: u64,
    /// Whether the request opened a new connection.
    pub fresh_connection: bool,
    /// Latency minus the analysis time the response reports.
    pub outside_ms: Option<f64>,
    /// The round of the window the operation belongs to (see [`rounds`]).
    pub round: u32,
    /// When the operation finished, seconds since the window started.
    pub end_s: f64,
}

/// The samples of one measured window.
#[derive(Debug, Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    pub elapsed_s: f64,
    /// Peak RSS read after set-up and a fixed number of operations, so it
    /// measures the same work however fast the machine runs (`None`: the
    /// window ended first; the peak at the end is reported).
    pub peak_rss_mb: Option<f64>,
    /// The machine's [`stats::slowdown`] at the start of each round.
    pub slowdown: Vec<f64>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: spec::DEV_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        root: PathBuf::from("."),
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--describe" {
            println!("{}", spec::describe());
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--root" => args.root = PathBuf::from(value),
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !spec::WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Some(args))
}

/// What a workload run hands back for reporting.
#[derive(Default)]
struct Outcome {
    setup_s: Vec<f64>,
    window: Window,
    layers: Option<Vec<(&'static str, f64)>>,
    trace: Option<chora_telemetry::trace::Trace>,
    checks: u64,
    failures: Vec<String>,
    assertions_proved: u64,
    table1_matches: u64,
}

/// A workload that is set up and ready to measure.
pub trait Harness {
    /// Runs the closed loop for `seconds`; `stream` separates the seeded
    /// input streams of successive windows.
    fn window(&mut self, seconds: f64, stream: u64) -> Window;
    /// Reads the program's counters.
    fn snapshot(&mut self) -> Result<layers::Snapshot, String>;
    /// Analysis threads the workload can keep busy at once.
    fn capacity(&self) -> usize;
}

/// Runs the measured window — or, traced, an untraced half and then a
/// traced half — and folds the trace into per-layer metrics.
fn measure(args: &Args, outcome: &mut Outcome, harness: &mut impl Harness) -> Result<(), String> {
    if !args.trace {
        outcome.window = harness.window(args.seconds, 0);
        return Ok(());
    }
    let half = args.seconds / 2.0;
    let untraced = harness.window(half, 0);
    let before = harness.snapshot()?;
    let session = chora_telemetry::trace::start().ok_or("a trace session is already recording")?;
    let traced = harness.window(half, 1);
    let trace = session.finish();
    let after = harness.snapshot()?;
    let fold = layers::fold(&trace);
    outcome.layers = Some(layers::metrics(&layers::TracedRun {
        fold: &fold,
        before,
        after,
        traced: &traced.samples,
        untraced: &untraced.samples,
        capacity: harness.capacity(),
    }));
    outcome.trace = Some(trace);
    outcome.window = traced;
    Ok(())
}

fn run_suite_cold(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        // Set-up is building the suite and one untimed warm pass, whose
        // verdicts every timed operation must reproduce.
        let slowdown = stats::slowdown(1);
        let started = Instant::now();
        let benches = suite::all();
        let reference = suite::reference(&benches);
        outcome
            .setup_s
            .push(started.elapsed().as_secs_f64() / slowdown);
        setups.push((benches, reference));
    }
    let (benches, reference) = setups.pop().expect("at least one set-up");
    if setups.iter().any(|(_, r)| *r != reference) {
        outcome.failures.push("set-up passes disagree".to_string());
    }
    drop(setups);
    let mut run = suite::ColdRun {
        benches,
        reference,
        rng: Rng::stream(args.seed, 0),
    };
    measure(args, &mut outcome, &mut run)?;
    let suite::ColdRun {
        benches, reference, ..
    } = run;
    let tally = oracle::check(&benches, &reference, &mut Rng::stream(args.seed, 1));
    outcome.checks += tally.checks;
    outcome.failures.extend(tally.violations);
    (outcome.assertions_proved, outcome.table1_matches) = suite::fidelity(&benches, &reference);
    Ok(outcome)
}

fn run_serve(args: &Args, mode: serve::Mode) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let prep = serve::prepare(&args.root, mode)?;
    for note in prep.notes() {
        eprintln!("note: {note}");
    }
    outcome.failures.extend(prep.failures.iter().cloned());
    let mut daemon = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = daemon.take() {
            serve::Daemon::stop(previous);
        }
        let slowdown = stats::slowdown(serve::CALIBRATION_THREADS);
        let started = Instant::now();
        let d = serve::setup(&prep)?;
        outcome
            .setup_s
            .push(started.elapsed().as_secs_f64() / slowdown);
        daemon = Some(d);
    }
    let mut run = serve::ServeRun {
        prep: &prep,
        daemon: daemon.expect("at least one set-up"),
        streams: serve::Streams::default(),
        seed: args.seed,
    };
    let result = measure(args, &mut outcome, &mut run);
    let mut daemon = run.daemon;
    outcome.checks += daemon.checks;
    outcome.failures.append(&mut daemon.failures);
    outcome.assertions_proved = daemon.assertions_proved;
    outcome.table1_matches = daemon.table1_matches;
    daemon.stop();
    result?;
    let tally = oracle::check(
        &prep.benches,
        &prep.reference,
        &mut Rng::stream(args.seed, 1),
    );
    outcome.checks += tally.checks;
    outcome.failures.extend(tally.violations);
    Ok(outcome)
}

/// Rounds with fewer operations are not summarized on their own.
const MIN_ROUND_OPS: usize = 5;

/// One round of a window, at nominal machine speed.
struct Round {
    throughput: f64,
    p50: f64,
    p90: f64,
    slowdown: f64,
}

/// The rounds of a window.  A round is one pass over the suite
/// (`suite-cold`) or a fixed slice of time (the serve workloads); before
/// each, the workload pauses while the benchmark measures the machine's
/// [`stats::slowdown`], and the round's times are divided by it.  The
/// reported figures are medians over rounds.
fn rounds(window: &Window) -> Vec<Round> {
    let mut by_round: std::collections::BTreeMap<u32, Vec<&Sample>> = Default::default();
    for s in &window.samples {
        by_round.entry(s.round).or_default().push(s);
    }
    by_round
        .iter()
        .filter(|(_, ops)| ops.len() >= MIN_ROUND_OPS)
        .map(|(&round, ops)| {
            let slowdown = window.slowdown.get(round as usize).copied().unwrap_or(1.0);
            let start = ops
                .iter()
                .map(|s| s.end_s - s.latency_ms / 1e3)
                .fold(f64::MAX, f64::min);
            let end = ops.iter().map(|s| s.end_s).fold(0.0, f64::max);
            let programs: u64 = ops.iter().map(|s| s.programs).sum();
            let latencies: Vec<f64> = ops.iter().map(|s| s.latency_ms).collect();
            Round {
                throughput: programs as f64 / (end - start) * slowdown,
                p50: percentile(&latencies, 0.5) / slowdown,
                p90: percentile(&latencies, 0.9) / slowdown,
                slowdown,
            }
        })
        .collect()
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {value}, \"unit\": {}}}",
        json(name),
        json(unit)
    )
}

fn json(s: &str) -> String {
    chora_server::http::json_string(s)
}

fn report(args: &Args, outcome: &Outcome) -> Result<String, String> {
    let samples = &outcome.window.samples;
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let programs: u64 = samples.iter().map(|s| s.programs).sum();
    let failed_ops = samples.iter().filter(|s| !s.ok).count() as u64;
    let failed = failed_ops + outcome.failures.len() as u64;
    let attempted = samples.len() as u64 + outcome.checks;
    let success_rate = 1.0 - failed as f64 / attempted.max(1) as f64;
    let per_round = rounds(&outcome.window);
    let round_median =
        |pick: fn(&Round) -> f64| median(&per_round.iter().map(pick).collect::<Vec<_>>());
    let throughput = round_median(|r| r.throughput);
    let p50 = round_median(|r| r.p50);
    let p90 = round_median(|r| r.p90);

    eprintln!(
        "{} seed {}: {} operations ({programs} programs) in {:.2}s, {:.1} programs/s; latency ms p50 {:.3} p90 {:.3} p99 {:.3}; set-up s {:?}",
        args.workload,
        args.seed,
        samples.len(),
        outcome.window.elapsed_s,
        programs as f64 / outcome.window.elapsed_s,
        percentile(&latencies, 0.5),
        percentile(&latencies, 0.9),
        percentile(&latencies, 0.99),
        outcome.setup_s,
    );
    eprintln!(
        "medians over {} rounds at nominal speed: {throughput:.1} programs/s, latency ms p50 {p50:.3} p90 {p90:.3}",
        per_round.len(),
    );
    let listed: Vec<String> = per_round
        .iter()
        .map(|r| {
            format!(
                "{:.1}/{:.3}/{:.3}@{:.3}",
                r.throughput, r.p50, r.p90, r.slowdown
            )
        })
        .collect();
    eprintln!(
        "rounds (programs/s / p50 / p90 @ slowdown): {}",
        listed.join(" ")
    );
    eprintln!(
        "checks: {} operations failed, {} oracle/set-up checks, {} violations; {} assertions proved, {} Table 1 classes match the paper",
        failed_ops,
        outcome.checks,
        outcome.failures.len(),
        outcome.assertions_proved,
        outcome.table1_matches
    );
    for failure in outcome.failures.iter().take(10) {
        eprintln!("  failure: {failure}");
    }

    let metrics: Vec<String> = match &outcome.layers {
        None => {
            let values = [
                ("setup_s", median(&outcome.setup_s)),
                ("throughput_ops_s", throughput),
                ("latency_ms_p50", p50),
                ("latency_ms_p90", p90),
                (
                    "peak_rss_mb",
                    match outcome.window.peak_rss_mb {
                        Some(mb) => mb,
                        None => stats::peak_rss_mb()?,
                    },
                ),
                ("success_rate", success_rate),
                ("assertions_proved", outcome.assertions_proved as f64),
                ("table1_class_matches", outcome.table1_matches as f64),
            ];
            spec::END_TO_END
                .iter()
                .zip(values)
                .map(|(m, (name, value))| {
                    debug_assert_eq!(m.name, name);
                    metric(m.name, value, m.unit)
                })
                .collect()
        }
        Some(layer_metrics) => {
            eprint!("{}", layers::table(&args.workload, layer_metrics));
            if let Some(dir) = &args.out {
                write_trace_files(args, dir, layer_metrics, outcome)?;
            }
            layer_metrics
                .iter()
                .map(|(name, value)| metric(name, *value, spec::per_layer_unit(name)))
                .collect()
        }
    };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    ))
}

fn write_trace_files(
    args: &Args,
    dir: &std::path::Path,
    layer_metrics: &[(&'static str, f64)],
    outcome: &Outcome,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let stem = dir.join(format!("{}-seed{}", args.workload, args.seed));
    let table_path = stem.with_extension("layers.txt");
    std::fs::write(&table_path, layers::table(&args.workload, layer_metrics))
        .map_err(|e| format!("cannot write {}: {e}", table_path.display()))?;
    if let Some(trace) = &outcome.trace {
        let mut events = trace.events.clone();
        events.sort_by_key(|e| e.start_ns);
        events.truncate(CHROME_TRACE_EVENTS);
        let capped = chora_telemetry::trace::Trace {
            events,
            lanes: trace.lanes.clone(),
        };
        let trace_path = stem.with_extension("trace.json");
        std::fs::write(&trace_path, capped.to_chrome_json())
            .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
        eprintln!(
            "wrote {} and {} ({} of {} spans)",
            table_path.display(),
            trace_path.display(),
            capped.events.len(),
            trace.events.len()
        );
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let Some(args) = parse_args()? else {
        return Ok(());
    };
    let outcome = match args.workload.as_str() {
        "suite-cold" => run_suite_cold(&args)?,
        "serve-edits" => run_serve(&args, serve::Mode::Edits)?,
        "batch-fresh" => run_serve(&args, serve::Mode::Batch)?,
        other => unreachable!("workload {other} was validated"),
    };
    println!("{}", report(&args, &outcome)?);
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("chora-perfbench: {e}");
        std::process::exit(2);
    }
}
