//! The daemon workloads, both against an in-process `chora serve` with a
//! memory-only summary store, warmed during set-up with every suite
//! program (rendered by `print_program`) and every `examples/programs`
//! file:
//!
//! * `serve-edits` — two keep-alive connections post `/v1/analyze`, each
//!   request a distinct seeded edit of a base program.  Most edits touch
//!   only comments or whitespace (parse and response caches miss, the store
//!   hits every component); every 16th prepends a no-op `assume` to one
//!   procedure body, which dirties that procedure's cone.
//! * `batch-fresh` — the store is byte-capped and one connection posts
//!   `/v1/batch?jobs=2` with four suite programs per request (one from each
//!   quarter of the suite by cost), every procedure, parameter, and local
//!   alpha-renamed with a fresh suffix, so every component key is new:
//!   misses, encodes, writes, LRU evictions.
//!
//! Base programs are drawn in seeded, reshuffled cycles, so every round of
//! the window (see `rounds` in `main.rs`) holds the same mix.
//!
//! Every response must equal — timing field dropped, names mapped back —
//! the store-less `analyze_source` answer for its base program, computed
//! before set-up; the `examples/programs` answers must also equal the
//! checked-in goldens.

use crate::edits;
use crate::layers;
use crate::stats::Rng;
use crate::suite::{self, Bench, Verdict};
use crate::{Sample, Window};
use chora_cli::json::Json;
use chora_cli::{
    analyze_source, print_program, spawn_server, AnalysisService, FileOptions, ServeOptions,
};
use chora_server::client::Client;
use chora_server::http::{encode_query_component, json_string};
use chora_server::{ServerConfig, ServerHandle};
use chora_telemetry::trace;
use std::collections::{BTreeSet, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Edits,
    Batch,
}

/// Every this many requests of a `serve-edits` connection is a body edit
/// (the rest are comment or whitespace edits), so every round holds the
/// same mix.
const BODY_EDIT_EVERY: usize = 16;
/// Keep-alive connections of `serve-edits`.
const EDIT_CONNECTIONS: usize = 2;
/// Request-pool workers of the daemon.
const SERVER_WORKERS: usize = 2;
/// Programs per `/v1/batch` request.
const BATCH_PROGRAMS: usize = 4;
/// Analysis workers per batch (`?jobs=`).
const BATCH_JOBS: usize = 2;
/// Cores the daemon workloads keep busy, so the machine's slowdown is
/// measured on as many.
pub const CALIBRATION_THREADS: usize = 2;
/// Length of one round of the window: about a thousand edits (two cycles
/// of body edits), or a few dozen batches.
const ROUND_SECONDS: f64 = 2.0;
/// `peak_rss_mb` is read once this many requests are done (see
/// `Window::peak_rss_mb`).
const EDIT_RSS_OPS: usize = 5000;
const BATCH_RSS_OPS: usize = 100;
/// Byte cap of the summary store on `batch-fresh`.
const BATCH_STORE_CAP: u64 = 256 << 10;

/// One program the traffic is generated from.
struct Base {
    /// The display name sent as `?file=` (and echoed in the response).
    name: String,
    source: String,
    /// The store-less answer, timing dropped.
    expected: String,
    /// Index into the suite, for suite programs.
    bench: Option<usize>,
    /// Procedures whose body edit leaves the answer unchanged.
    editable: Vec<String>,
    /// The names a renaming rewrites.
    names: BTreeSet<String>,
    /// Whether a renamed copy answers the same, names mapped back.
    renamable: bool,
    /// Fourier–Motzkin rows its store-less analysis generates: a
    /// deterministic measure of its cost.
    cost: u64,
}

/// Inputs and reference answers, computed once per run before set-up.
pub struct Prepared {
    mode: Mode,
    bases: Vec<Base>,
    pub benches: Vec<Bench>,
    pub reference: Vec<Verdict>,
    pub failures: Vec<String>,
}

fn file_options() -> FileOptions {
    FileOptions {
        json: true,
        quiet: true,
        jobs: 1,
        ..FileOptions::default()
    }
}

fn answer(name: &str, source: &str) -> Result<String, String> {
    analyze_source(name, source, &file_options(), None)
        .map(|(out, _exit, _stats)| edits::without_timing(&out))
        .map_err(|e| format!("{name}: {e}"))
}

pub fn prepare(root: &Path, mode: Mode) -> Result<Prepared, String> {
    let benches = suite::all();
    let reference = suite::reference(&benches);
    let mut failures = Vec::new();
    let mut sources: Vec<(String, String, Option<usize>)> = benches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            (
                format!("suite/{}.imp", b.name()),
                print_program(b.program()),
                Some(i),
            )
        })
        .collect();
    let dir = root.join("examples/programs");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "imp"))
        .collect();
    files.sort();
    for path in files {
        let file = path
            .file_name()
            .expect("a listed file has a name")
            .to_string_lossy();
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        sources.push((format!("examples/programs/{file}"), source, None));
    }

    let mut bases = Vec::new();
    for (name, source, bench) in sources {
        let rows_before = chora_logic::stats::snapshot().rows_generated;
        let expected = answer(&name, &source)?;
        let cost = chora_logic::stats::snapshot().rows_generated - rows_before;
        if bench.is_none() {
            let stem = name
                .trim_start_matches("examples/programs/")
                .trim_end_matches(".imp");
            let golden = root.join(format!("tests/goldens/{stem}.analyze.json"));
            match std::fs::read_to_string(&golden) {
                Ok(text) if edits::without_timing(&text) == expected => {}
                Ok(_) => failures.push(format!("{name}: answer differs from {}", golden.display())),
                Err(e) => return Err(format!("cannot read {}: {e}", golden.display())),
            }
        }
        let program = chora_cli::parse_program(&source).map_err(|e| format!("{name}: {e:?}"))?;
        let mut base = Base {
            name,
            source,
            expected,
            bench,
            editable: Vec::new(),
            names: edits::bound_names(&program),
            renamable: false,
            cost,
        };
        match mode {
            Mode::Edits => {
                for proc in program.procedure_names() {
                    let edited = edits::body(&base.source, &proc, 0)
                        .ok_or_else(|| format!("{}: no header line for `{proc}`", base.name))?;
                    if answer(&base.name, &edited)? == base.expected {
                        base.editable.push(proc);
                    }
                }
            }
            Mode::Batch if bench.is_some() => {
                // A tag of its own, like every renaming at run time: the
                // renamed names must be new to the symbol interner.
                let tag = format!("_zqp{}", bases.len());
                let renamed = edits::rename(&base.source, &base.names, &tag);
                base.renamable = answer(&base.name, &renamed)?.replace(&tag, "") == base.expected;
            }
            Mode::Batch => {}
        }
        bases.push(base);
    }
    if mode == Mode::Batch && bases.iter().filter(|b| b.renamable).count() < BATCH_PROGRAMS {
        return Err("too few suite programs answer the same after renaming".to_string());
    }
    Ok(Prepared {
        mode,
        bases,
        benches,
        reference,
        failures,
    })
}

impl Prepared {
    /// Human-readable notes on inputs the workload had to leave out.
    pub fn notes(&self) -> Vec<String> {
        self.bases
            .iter()
            .filter_map(|b| match self.mode {
                Mode::Batch if b.bench.is_some() && !b.renamable => Some(format!(
                    "{}: left out of batches (its answer depends on symbol interning order)",
                    b.name
                )),
                Mode::Edits if b.editable.is_empty() => Some(format!(
                    "{}: gets no body edits (each changes its answer)",
                    b.name
                )),
                _ => None,
            })
            .collect()
    }
}

/// A client plus the number of requests sent on it, which tells which
/// requests open a new connection (the daemon closes each one after
/// `max_requests_per_conn` requests).
struct Conn {
    client: Client,
    sent: usize,
}

/// A running, warmed daemon and the connections the workload uses.
pub struct Daemon {
    handle: ServerHandle,
    service: Arc<AnalysisService>,
    conns: Vec<Conn>,
    pub assertions_proved: u64,
    pub table1_matches: u64,
    pub checks: u64,
    pub failures: Vec<String>,
}

impl Daemon {
    /// Closes the connections, then stops the daemon and waits for it.
    pub fn stop(self) {
        drop(self.conns);
        self.handle.shutdown();
    }
}

/// Set-up: spawn the daemon, warm it with every base program (checking each
/// answer), read the Table 1 classes through `/v1/complexity`, and open the
/// workload's connections.
pub fn setup(prep: &Prepared) -> Result<Daemon, String> {
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs: SERVER_WORKERS,
        cache_cap_bytes: (prep.mode == Mode::Batch).then_some(BATCH_STORE_CAP),
        quiet: true,
        ..ServeOptions::default()
    };
    let (handle, service) = spawn_server(&opts).map_err(|e| e.to_string())?;
    let addr = handle.addr().to_string();
    let mut daemon = Daemon {
        handle,
        service,
        conns: Vec::new(),
        assertions_proved: 0,
        table1_matches: 0,
        checks: 0,
        failures: Vec::new(),
    };
    let mut warm = Client::new(addr.clone());
    for base in &prep.bases {
        let query = format!("/v1/analyze?file={}", encode_query_component(&base.name));
        let (status, body) = warm
            .post(&query, &base.source)
            .map_err(|e| format!("warm-up {}: {e}", base.name))?;
        daemon.checks += 1;
        if status != 200 || edits::without_timing(&body) != base.expected {
            daemon.failures.push(format!(
                "warm-up {}: answered {status}, differs from the store-less answer",
                base.name
            ));
        }
        if let Some(Bench::Assertion(_)) = base.bench.map(|i| &prep.benches[i]) {
            daemon.assertions_proved += body.matches("\"verified\": true").count() as u64;
        }
        let Some(i) = base.bench else { continue };
        let Bench::Complexity(b) = &prep.benches[i] else {
            continue;
        };
        let query = format!(
            "/v1/complexity?file={}&proc={}&cost={}&size={}",
            encode_query_component(&base.name),
            b.procedure,
            b.cost_var,
            b.size_param
        );
        let (status, body) = warm
            .post(&query, &base.source)
            .map_err(|e| format!("warm-up complexity {}: {e}", base.name))?;
        let class = Json::parse(&body)
            .ok()
            .and_then(|doc| doc.get("class").and_then(Json::as_str).map(String::from));
        daemon.checks += 1;
        if status != 200 || class.as_deref() != Some(prep.reference[i].class.as_str()) {
            daemon.failures.push(format!(
                "complexity {}: answered {status} with class {class:?}, expected {}",
                base.name, prep.reference[i].class
            ));
        }
        daemon.table1_matches += u64::from(class.as_deref() == Some(b.paper_chora));
    }
    // Release the warm-up connection first: the daemon has as many workers
    // as the workload has connections.
    drop(warm);
    let connections = match prep.mode {
        Mode::Edits => EDIT_CONNECTIONS,
        Mode::Batch => 1,
    };
    for _ in 0..connections {
        let mut client = Client::new(addr.clone());
        match client.get("/v1/healthz") {
            Ok((200, _)) => daemon.conns.push(Conn { client, sent: 1 }),
            other => return Err(format!("GET /v1/healthz: {other:?}")),
        }
    }
    Ok(daemon)
}

/// Edit and rename markers, shared by every thread of a run so no two
/// generated sources coincide.
#[derive(Default)]
pub struct Streams {
    marker: AtomicU64,
    /// Requests completed, and the peak RSS read at the mark.
    done: AtomicUsize,
    rss_at_mark: OnceLock<f64>,
    seen: Mutex<HashSet<u128>>,
}

impl Streams {
    /// Counts a finished request; the one that reaches `mark` reads the
    /// peak RSS.
    fn finished(&self, mark: usize) {
        if self.done.fetch_add(1, Ordering::Relaxed) + 1 == mark {
            if let Ok(mb) = crate::stats::peak_rss_mb() {
                let _ = self.rss_at_mark.set(mb);
            }
        }
    }

    fn marker(&self) -> u64 {
        self.marker.fetch_add(1, Ordering::Relaxed)
    }

    /// Records `source`; false if it was generated before.
    fn fresh(&self, source: &str) -> bool {
        self.seen
            .lock()
            .expect("seen-source set lock")
            .insert(chora_cli::progcache::source_key(source).0)
    }
}

/// A prepared, set-up daemon workload, ready to measure.
pub struct ServeRun<'p> {
    pub prep: &'p Prepared,
    pub daemon: Daemon,
    pub streams: Streams,
    pub seed: u64,
}

impl crate::Harness for ServeRun<'_> {
    fn window(&mut self, seconds: f64, stream: u64) -> Window {
        run_window(
            self.prep,
            &mut self.daemon,
            &self.streams,
            self.seed,
            stream,
            seconds,
        )
    }

    /// Counters of the daemon, its `/v1/metrics` scrape sent on the first
    /// workload connection (between windows it is idle).
    fn snapshot(&mut self) -> Result<layers::Snapshot, String> {
        let endpoint = match self.prep.mode {
            Mode::Edits => "/v1/analyze",
            Mode::Batch => "/v1/batch",
        };
        let conn = &mut self.daemon.conns[0];
        conn.sent += 1;
        let http = layers::scrape_http(&mut conn.client, endpoint)?;
        Ok(layers::snapshot(Some(&self.daemon.service), http))
    }

    fn capacity(&self) -> usize {
        match self.prep.mode {
            Mode::Edits => EDIT_CONNECTIONS,
            Mode::Batch => BATCH_JOBS,
        }
    }
}

/// Sends one request and times it; the returned sample is checked by the
/// caller.
fn send(conn: &mut Conn, path: &str, body: &str) -> (Sample, Option<(u16, String)>) {
    let fresh_connection = conn
        .sent
        .is_multiple_of(ServerConfig::default().max_requests_per_conn);
    conn.sent += 1;
    let started = Instant::now();
    let response = {
        let _op = trace::span("bench", "request");
        conn.client.post(path, body)
    };
    let sample = Sample {
        latency_ms: started.elapsed().as_secs_f64() * 1e3,
        bytes: body.len() as u64,
        fresh_connection,
        ..Sample::default()
    };
    (sample, response.ok())
}

/// The timed window: closed-loop clients until `seconds` have passed.
/// `stream` separates the seeded streams of successive windows.
fn run_window(
    prep: &Prepared,
    daemon: &mut Daemon,
    streams: &Streams,
    seed: u64,
    stream: u64,
    seconds: f64,
) -> Window {
    let started = Instant::now();
    let conns = &mut daemon.conns;
    // At each round start every client pauses while the first one measures
    // the machine's slowdown.
    let barrier = Barrier::new(conns.len());
    let slowdown = Mutex::new(Vec::new());
    let (barrier, slowdown_ref) = (&barrier, &slowdown);
    let samples = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(t, conn)| {
                let mut rng = Rng::stream(seed, stream * 16 + t as u64);
                let mut cycles = selection(prep);
                let mut sent = 0usize;
                std::thread::Builder::new()
                    .name(format!("client-{t}"))
                    .spawn_scoped(scope, move || {
                        let mut samples = Vec::new();
                        let mut rounds = 0u32;
                        loop {
                            // Every client passes every round start before the
                            // deadline, so the barrier never waits in vain.
                            let at = started.elapsed().as_secs_f64();
                            let mut next = rounds as f64 * ROUND_SECONDS;
                            while next <= at && next < seconds {
                                barrier.wait();
                                if t == 0 {
                                    slowdown_ref
                                        .lock()
                                        .expect("slowdown lock")
                                        .push(crate::stats::slowdown(CALIBRATION_THREADS));
                                }
                                barrier.wait();
                                rounds += 1;
                                next = rounds as f64 * ROUND_SECONDS;
                            }
                            if started.elapsed().as_secs_f64() >= seconds {
                                break samples;
                            }
                            let (mut sample, rss_ops) = match prep.mode {
                                Mode::Edits => {
                                    sent += 1;
                                    let body = sent.is_multiple_of(BODY_EDIT_EVERY);
                                    let base = cycles[usize::from(body)].next(&mut rng);
                                    (
                                        edit_request(prep, conn, streams, &mut rng, base, body),
                                        EDIT_RSS_OPS,
                                    )
                                }
                                Mode::Batch => (
                                    batch_request(prep, conn, streams, &mut rng, &mut cycles),
                                    BATCH_RSS_OPS,
                                ),
                            };
                            sample.round = rounds - 1;
                            sample.end_s = started.elapsed().as_secs_f64();
                            samples.push(sample);
                            streams.finished(rss_ops);
                        }
                    })
                    .expect("spawn client thread")
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    Window {
        samples,
        elapsed_s: started.elapsed().as_secs_f64(),
        peak_rss_mb: streams.rss_at_mark.get().copied(),
        slowdown: slowdown.into_inner().expect("slowdown lock"),
    }
}

/// The base-program cycles a client draws from.  `serve-edits`: all bases
/// for comment and whitespace edits, and the bases with editable
/// procedures for body edits.  `batch-fresh`: the renamable suite
/// programs in `BATCH_PROGRAMS` strata of similar cost, one program from
/// each per batch, so batches cost about the same and every stretch of
/// requests holds the same mix.
fn selection(prep: &Prepared) -> Vec<Cycle> {
    let indices = |keep: &dyn Fn(&Base) -> bool| -> Vec<usize> {
        (0..prep.bases.len())
            .filter(|&i| keep(&prep.bases[i]))
            .collect()
    };
    match prep.mode {
        Mode::Edits => vec![
            Cycle::new(indices(&|_| true)),
            Cycle::new(indices(&|b| !b.editable.is_empty())),
        ],
        Mode::Batch => {
            let mut pool = indices(&|b| b.renamable);
            pool.sort_by_key(|&i| (prep.bases[i].cost, i));
            let per = pool.len().div_ceil(BATCH_PROGRAMS);
            pool.chunks(per).map(|c| Cycle::new(c.to_vec())).collect()
        }
    }
}

/// Base programs in seeded, reshuffled rounds, so every stretch of
/// requests covers the bases evenly.
struct Cycle {
    order: Vec<usize>,
    next: usize,
}

impl Cycle {
    fn new(order: Vec<usize>) -> Cycle {
        let next = order.len();
        Cycle { order, next }
    }

    fn next(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.order.len() {
            rng.shuffle(&mut self.order);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

fn edit_request(
    prep: &Prepared,
    conn: &mut Conn,
    streams: &Streams,
    rng: &mut Rng,
    base: usize,
    body: bool,
) -> Sample {
    let base = &prep.bases[base];
    let source = loop {
        let source = if body {
            let proc = &base.editable[rng.below(base.editable.len())];
            edits::body(&base.source, proc, streams.marker())
                .expect("editable procedures have a header")
        } else {
            edits::trivia(&base.source, rng, streams.marker())
        };
        if streams.fresh(&source) {
            break source;
        }
    };
    let path = format!("/v1/analyze?file={}", encode_query_component(&base.name));
    let (mut sample, response) = send(conn, &path, &source);
    sample.programs = 1;
    if let Some((status, body)) = response {
        sample.ok = status == 200 && edits::without_timing(&body) == base.expected;
        sample.outside_ms = edits::analysis_ms(&body).map(|ms| sample.latency_ms - ms);
    }
    sample
}

fn batch_request(
    prep: &Prepared,
    conn: &mut Conn,
    streams: &Streams,
    rng: &mut Rng,
    strata: &mut [Cycle],
) -> Sample {
    let pool: Vec<&Base> = strata
        .iter_mut()
        .map(|c| &prep.bases[c.next(rng)])
        .collect();
    let tags: Vec<String> = pool
        .iter()
        .map(|_| format!("_zq{:x}", streams.marker()))
        .collect();
    let elements: Vec<String> = pool
        .iter()
        .zip(&tags)
        .map(|(base, tag)| {
            let source = edits::rename(&base.source, &base.names, tag);
            format!(
                "{{\"file\": {}, \"source\": {}}}",
                json_string(&base.name),
                json_string(&source)
            )
        })
        .collect();
    let body = format!("[{}]", elements.join(", "));
    let (mut sample, response) = send(conn, &format!("/v1/batch?jobs={BATCH_JOBS}"), &body);
    sample.programs = pool.len() as u64;
    if let Some((status, body)) = response {
        let answers = edits::split_batch(&body);
        sample.ok = status == 200
            && answers.len() == pool.len()
            && answers
                .iter()
                .zip(pool.iter().zip(&tags))
                .all(|(doc, (base, tag))| {
                    edits::without_timing(&doc.replace(tag.as_str(), "")) == base.expected
                });
        sample.outside_ms = answers
            .first()
            .and_then(|doc| edits::analysis_ms(doc))
            .map(|ms| sample.latency_ms - ms);
    }
    sample
}
