//! `chora serve` and `chora request`: the analysis-as-a-service wiring.
//!
//! [`AnalysisService`] implements [`chora_server::AnalysisBackend`] on top
//! of the factored driver ([`analyze_program`]/[`complexity_program`]) and
//! three resident caches:
//!
//! * a [`TieredStore`] of component summaries (memory + optional disk),
//! * a parsed-program cache (source bytes → [`chora_ir::Program`]), so a re-posted
//!   source skips the lexer/parser entirely,
//! * a rendered-response cache (endpoint + query + source → finished JSON
//!   document), so a fully warm request costs one content hash and two
//!   map lookups — no analysis at all.
//!
//! Sound because analysis output is deterministic: the same endpoint,
//! query (minus `jobs`, which never changes the result), and source bytes
//! always render the same document (timing fields aside).  Response
//! payloads are the *identical* JSON documents the `analyze
//! --json`/`complexity --json` subcommands print (the CI `server-smoke`
//! job diffs them byte-for-byte, timing fields aside), and `/v1/batch`
//! elements are byte-identical to the matching single-shot responses.

use crate::driver::{
    analyze_program, analyzer_with_jobs, complexity_program, open_store, parse_source, read_source,
    render_analysis, BenchOptions, CliError, FileOptions,
};
use crate::json::Json;
use crate::progcache::{response_key, source_key};
use chora_core::{
    entry_key, FlightCounters, ProcedureSummary, RemoteStore, ScopeResolver, ShardedLru,
    SingleFlight, SummaryStore, TierCounters, TieredConfig, TieredStore,
};
use chora_ir::{Fingerprint, Program};
use chora_server::client::Client;
use chora_server::http::{encode_query_component, json_string};
use chora_server::router::Endpoint;
use chora_server::{AnalysisBackend, LogFormat, ServerConfig, ServerHandle};
use chora_telemetry::metrics::registry;
use chora_telemetry::trace;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

thread_local! {
    /// How the most recent analysis request on this worker thread was
    /// served, read (and reset) by the per-request log line.
    static LAST_HIT: Cell<&'static str> = const { Cell::new("-") };
}

/// Byte budget of the parsed-program cache (source bytes retained; the
/// programs themselves are a small multiple of that).
const PARSE_CACHE_BYTES: u64 = 16 << 20;

/// Byte budget of the rendered-response cache.
const RESPONSE_CACHE_BYTES: u64 = 32 << 20;

/// Independent shards of each request cache.
const REQUEST_CACHE_SHARDS: usize = 16;

/// Options of `chora serve`.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address (`--addr`, port 0 = ephemeral).
    pub addr: String,
    /// Worker threads of the request pool (`--jobs`, 0 = one per core).
    /// Each request is analyzed sequentially; concurrency comes from
    /// serving requests in parallel (a `?jobs=N` query parameter can still
    /// parallelize a single analysis).
    pub jobs: usize,
    /// Disk tier of the summary store (`--cache-dir`); without it the
    /// store is memory-only (still warm across requests, gone on exit).
    pub cache_dir: Option<String>,
    /// Byte cap of the store (`--cache-cap-bytes`); `None` = flag absent
    /// (the 64 MiB default applies), `Some(0)` = explicitly unbounded.
    pub cache_cap_bytes: Option<u64>,
    /// Entry expiry (`--cache-max-age`); `None` = entries never expire.
    pub cache_max_age: Option<Duration>,
    /// Remote L3 summary cache (`--remote-cache URL[,URL...]`): peer
    /// `chora serve` daemons probed behind memory and disk, and published
    /// to write-through.
    pub remote_cache: Option<String>,
    /// Suppress per-request logging (`--quiet`).
    pub quiet: bool,
    /// Request log line shape (`--log-format text|json`).
    pub log_format: LogFormat,
    /// Log requests at or past this duration even under `--quiet`
    /// (`--slow-request-ms`).
    pub slow_request_ms: Option<f64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7557".to_string(),
            jobs: 0,
            cache_dir: None,
            cache_cap_bytes: None,
            cache_max_age: None,
            remote_cache: None,
            quiet: false,
            log_format: LogFormat::Text,
            slow_request_ms: None,
        }
    }
}

/// Parses `--cache-cap-bytes`: a byte count with an optional K/M/G suffix
/// (`0` is legal and means unbounded — see [`ServeOptions`]).
pub fn parse_cap_bytes(value: &str) -> Result<u64, String> {
    let (digits, unit) = match value.trim().to_ascii_uppercase() {
        v if v.ends_with('K') => (v[..v.len() - 1].to_string(), 1u64 << 10),
        v if v.ends_with('M') => (v[..v.len() - 1].to_string(), 1 << 20),
        v if v.ends_with('G') => (v[..v.len() - 1].to_string(), 1 << 30),
        v => (v, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("--cache-cap-bytes expects BYTES[K|M|G], got `{value}`"))?;
    n.checked_mul(unit)
        .ok_or_else(|| format!("--cache-cap-bytes `{value}` overflows"))
}

/// Parses `--cache-max-age`: seconds, with an optional s/m/h suffix.
pub fn parse_max_age(value: &str) -> Result<Duration, String> {
    let v = value.trim().to_ascii_lowercase();
    let (digits, unit_secs) = match v {
        v if v.ends_with('h') => (v[..v.len() - 1].to_string(), 3600u64),
        v if v.ends_with('m') => (v[..v.len() - 1].to_string(), 60),
        v if v.ends_with('s') => (v[..v.len() - 1].to_string(), 1),
        v => (v, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("--cache-max-age expects SECONDS[s|m|h], got `{value}`"))?;
    Ok(Duration::from_secs(n.saturating_mul(unit_secs)))
}

/// Upper bound on the publisher map: at ~32 bytes per entry this caps the
/// attribution state at a few MiB; past it, new keys simply go
/// unattributed (the cross-program counter under-counts, never lies).
const PUBLISHER_CAP: usize = 1 << 18;

/// The daemon's summary store: the [`TieredStore`] behind a
/// [`SingleFlight`] layer (so concurrent requests missing the same
/// component analyze it once), plus the `/v1/summaries` serving side —
/// publisher attribution for the cross-program reuse counter and the
/// endpoint's own hit accounting.
pub struct ServiceStore {
    flight: SingleFlight<TieredStore>,
    /// Component key → source-program fingerprint of its *first*
    /// publisher, for classifying later fetches as same- or cross-program.
    publishers: Mutex<HashMap<u128, u128>>,
    cross_program_hits: AtomicU64,
    summary_gets: AtomicU64,
    summary_get_hits: AtomicU64,
    summary_puts: AtomicU64,
}

impl ServiceStore {
    fn new(tiered: TieredStore) -> ServiceStore {
        ServiceStore {
            flight: SingleFlight::new(tiered),
            publishers: Mutex::new(HashMap::new()),
            cross_program_hits: AtomicU64::new(0),
            summary_gets: AtomicU64::new(0),
            summary_get_hits: AtomicU64::new(0),
            summary_puts: AtomicU64::new(0),
        }
    }

    /// The tier stack (tests and `bench --server` read its counters).
    pub fn tiered(&self) -> &TieredStore {
        self.flight.inner()
    }

    /// The single-flight coalescing counters.
    pub fn flight_counters(&self) -> FlightCounters {
        self.flight.counters()
    }

    /// Remote fetches of keys first published by a *different* source
    /// program — the fleet's cross-program dedup signal.
    pub fn cross_program_hits(&self) -> u64 {
        self.cross_program_hits.load(Ordering::Relaxed)
    }

    /// Remembers the first source program to publish `key` (local store or
    /// peer upload); later publishers keep the original attribution.
    fn record_publisher(&self, key: &Fingerprint, src: Fingerprint) {
        let mut publishers = self.publishers.lock().expect("publisher map lock");
        if publishers.len() < PUBLISHER_CAP || publishers.contains_key(&key.0) {
            publishers.entry(key.0).or_insert(src.0);
        }
    }

    /// `GET /v1/summaries/{key}`: the raw entry from the local tiers.
    fn serve_get(&self, key: &Fingerprint, src: Option<Fingerprint>) -> Option<String> {
        self.summary_gets.fetch_add(1, Ordering::Relaxed);
        let text = self.tiered().load_local_text(key)?;
        self.summary_get_hits.fetch_add(1, Ordering::Relaxed);
        // Fetches never claim authorship — only stores and uploads do —
        // so attribution reflects who computed, not who asked first.
        if let Some(src) = src {
            let publisher = self
                .publishers
                .lock()
                .expect("publisher map lock")
                .get(&key.0)
                .copied();
            if publisher.is_some_and(|p| p != src.0) {
                self.cross_program_hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        Some(text)
    }

    /// `PUT /v1/summaries/{key}`: validate the envelope, adopt locally.
    fn serve_put(
        &self,
        key: &Fingerprint,
        src: Option<Fingerprint>,
        entry: &str,
    ) -> Result<(), String> {
        self.summary_puts.fetch_add(1, Ordering::Relaxed);
        if entry_key(entry) != Some(*key) {
            return Err("entry body does not match the key (or wrong cache version)".to_string());
        }
        self.tiered().store_local_text(key, entry);
        if let Some(src) = src {
            self.record_publisher(key, src);
        }
        Ok(())
    }
}

impl SummaryStore for ServiceStore {
    fn load(&self, key: &Fingerprint, scopes: &dyn ScopeResolver) -> Option<Vec<ProcedureSummary>> {
        self.flight.load(key, scopes)
    }

    fn store(&self, key: &Fingerprint, summaries: &[ProcedureSummary], scopes: &dyn ScopeResolver) {
        if let Some(src) = scopes.source_tag() {
            self.record_publisher(key, src);
        }
        self.flight.store(key, summaries, scopes);
    }

    fn eviction_totals(&self) -> (u64, u64) {
        self.flight.eviction_totals()
    }
}

/// The resident analysis service: the [`ServiceStore`], the parse and
/// response caches shared by every request, plus the default per-request
/// options.
pub struct AnalysisService {
    store: ServiceStore,
    /// Parsed programs keyed by source fingerprint.  Parse *errors* are
    /// never cached: their rendering embeds the request's display name,
    /// so they are not shareable across requests.
    parsed: ShardedLru<Arc<Program>>,
    /// Finished response documents keyed by endpoint + query + source.
    responses: ShardedLru<Arc<str>>,
    /// Default worker count of one *analysis* (overridable per request via
    /// `?jobs=N`); distinct from the request pool size.
    analysis_jobs: usize,
    maintenance: Option<Duration>,
}

impl AnalysisService {
    /// Opens the tiered store described by the options.
    pub fn new(opts: &ServeOptions) -> Result<AnalysisService, CliError> {
        let config = TieredConfig {
            // Flag absent → the default cap; an explicit 0 → unbounded.
            cap_bytes: match opts.cache_cap_bytes {
                None => TieredConfig::default().cap_bytes,
                Some(0) => None,
                Some(bytes) => Some(bytes),
            },
            max_age: opts.cache_max_age,
            ..TieredConfig::default()
        };
        let tiered = open_store(
            opts.cache_dir.as_deref(),
            opts.remote_cache.as_deref(),
            config,
        )?;
        // GC cadence: often enough that expiry is visible at half the age
        // granularity, but never a busy loop; byte pressure alone is
        // handled lazily by LRU in memory and hourly on disk.
        let maintenance = match (opts.cache_max_age, opts.cache_dir.is_some()) {
            (Some(age), _) => {
                Some((age / 2).clamp(Duration::from_millis(250), Duration::from_secs(60)))
            }
            (None, true) => Some(Duration::from_secs(3600)),
            (None, false) => None,
        };
        // Publish the always-live engine counters up front, so a freshly
        // started daemon's /v1/metrics already lists every family.
        chora_logic::stats::register_metrics();
        chora_numeric::stats::register_metrics();
        Ok(AnalysisService {
            store: ServiceStore::new(tiered),
            parsed: ShardedLru::new(REQUEST_CACHE_SHARDS, Some(PARSE_CACHE_BYTES), None),
            responses: ShardedLru::new(REQUEST_CACHE_SHARDS, Some(RESPONSE_CACHE_BYTES), None),
            analysis_jobs: 1,
            maintenance,
        })
    }

    /// The shared tier stack (tests and `bench --server` read its
    /// counters).
    pub fn store(&self) -> &TieredStore {
        self.store.tiered()
    }

    /// The parsed-program cache (tests and `bench --server` read its
    /// hit/miss counters).
    pub fn parse_cache(&self) -> &ShardedLru<Arc<Program>> {
        &self.parsed
    }

    /// The rendered-response cache.
    pub fn response_cache(&self) -> &ShardedLru<Arc<str>> {
        &self.responses
    }

    /// Parses through the parsed-program cache: the source fingerprint and
    /// a shared handle to the program.
    fn parse_cached(
        &self,
        name: &str,
        source: &str,
    ) -> Result<(Fingerprint, Arc<Program>), String> {
        let key = source_key(source);
        if let Some(program) = self.parsed.get(&key) {
            LAST_HIT.with(|hit| hit.set("parse-hit"));
            return Ok((key, program));
        }
        LAST_HIT.with(|hit| hit.set("miss"));
        let program = Arc::new(parse_source(name, source).map_err(|e| e.to_string())?);
        self.parsed
            .put(&key, Arc::clone(&program), source.len() as u64);
        Ok((key, program))
    }

    /// Runs one body endpoint through both request caches: parse via the
    /// program cache, probe the response cache, analyze + render + fill on
    /// a miss.  `run` receives the parsed program and must return the
    /// rendered document.
    fn cached_response(
        &self,
        endpoint: Endpoint,
        query: &[(String, String)],
        name: &str,
        source: &str,
        run: impl FnOnce(&Program) -> Result<String, String>,
    ) -> Result<String, String> {
        let (src, program) = self.parse_cached(name, source)?;
        let key = response_key(endpoint.path(), query, src);
        if let Some(doc) = self.responses.get(&key) {
            LAST_HIT.with(|hit| hit.set("response-hit"));
            return Ok(doc.to_string());
        }
        let out = run(&program)?;
        self.responses
            .put(&key, Arc::from(out.as_str()), out.len() as u64);
        Ok(out)
    }

    /// The `?trace=1` path: analyze under an exclusive trace session —
    /// bypassing the response cache, which would hand back a document with
    /// no (or a stale) trace — and splice the Chrome trace-event JSON into
    /// the rendered document as a `"trace"` field.  Concurrent traced
    /// requests serialize on a gate, since only one session records at a
    /// time process-wide.
    fn traced_response(
        &self,
        name: &str,
        source: &str,
        run: impl FnOnce(&Program) -> Result<String, String>,
    ) -> Result<String, String> {
        static TRACE_GATE: Mutex<()> = Mutex::new(());
        let _gate = TRACE_GATE.lock().expect("trace gate");
        let session = trace::start()
            .ok_or_else(|| "another trace session is already recording".to_string())?;
        let result = self
            .parse_cached(name, source)
            .and_then(|(_, program)| run(&program));
        let captured = session.finish();
        let out = result?;
        Ok(splice_trace(&out, &captured.to_chrome_json()))
    }

    /// The name/value pairs `/v1/stats` renders under `"cache"`.
    fn counter_pairs(c: &TierCounters) -> Vec<(&'static str, u64)> {
        vec![
            ("mem_hits", c.mem_hits),
            ("disk_hits", c.disk_hits),
            ("misses", c.misses),
            ("stores", c.stores),
            ("disk_probes", c.disk_probes),
            ("lru_evictions", c.lru_evictions),
            ("age_evictions", c.age_evictions),
            ("corrupt_evictions", c.corrupt_evictions),
            ("disk_gc_removed", c.disk_gc_removed),
            ("evicted_bytes", c.evicted_bytes),
            ("mem_entries", c.mem_entries),
            ("mem_bytes", c.mem_bytes),
        ]
    }
}

/// Splices a Chrome trace document into a rendered `--json` report as a
/// top-level `"trace"` field (the report is a JSON object ending in `}`).
fn splice_trace(doc: &str, trace_json: &str) -> String {
    match doc.trim_end().strip_suffix('}') {
        Some(head) => format!(
            "{},\n  \"trace\": {trace_json}\n}}\n",
            head.trim_end().trim_end_matches(',')
        ),
        None => doc.to_string(),
    }
}

/// Builds the per-request [`FileOptions`] from the query string.  Unknown
/// parameters are a 400, like unknown flags are a CLI error.  The third
/// element is the `trace=1` switch: record a span trace of this request
/// and splice it into the response.
fn file_options_from_query(
    query: &[(String, String)],
    default_jobs: usize,
    complexity: bool,
) -> Result<(String, FileOptions, bool), String> {
    let mut name = "<request>".to_string();
    let mut traced = false;
    let mut opts = FileOptions {
        json: true,
        jobs: default_jobs,
        quiet: true,
        ..FileOptions::default()
    };
    for (key, value) in query {
        match key.as_str() {
            "file" => name = value.clone(),
            "jobs" => {
                opts.jobs = value
                    .parse()
                    .map_err(|_| format!("`jobs` expects a non-negative integer, got `{value}`"))?
            }
            "proc" => opts.procedure = Some(value.clone()),
            "cost" if complexity => opts.cost_var = Some(value.clone()),
            "size" if complexity => opts.size_param = Some(value.clone()),
            "trace" => {
                traced = match value.as_str() {
                    "1" | "true" => true,
                    "0" | "false" => false,
                    other => return Err(format!("`trace` expects 1 or 0, got `{other}`")),
                }
            }
            other => {
                return Err(format!(
                    "unknown query parameter `{other}` (expected file, jobs, proc, trace{})",
                    if complexity { ", cost, size" } else { "" }
                ))
            }
        }
    }
    Ok((name, opts, traced))
}

/// One parsed element of a `/v1/batch` request body.
struct BatchItem {
    name: String,
    source: String,
    opts: FileOptions,
}

/// Parses one element of the batch array: either a bare string (the
/// source) or an object with `source` (required), `file`, and `proc`.
fn batch_item(element: &Json, default_jobs: usize, index: usize) -> Result<BatchItem, String> {
    let mut opts = FileOptions {
        json: true,
        jobs: default_jobs,
        quiet: true,
        ..FileOptions::default()
    };
    match element {
        Json::Str(source) => Ok(BatchItem {
            name: format!("<batch[{index}]>"),
            source: source.clone(),
            opts,
        }),
        Json::Object(fields) => {
            let mut name = format!("<batch[{index}]>");
            let mut source = None;
            for (key, value) in fields {
                let text = value
                    .as_str()
                    .ok_or_else(|| format!("batch[{index}].{key} must be a string"))?;
                match key.as_str() {
                    "file" => name = text.to_string(),
                    "source" => source = Some(text.to_string()),
                    "proc" => opts.procedure = Some(text.to_string()),
                    other => {
                        return Err(format!(
                        "batch[{index}] has unknown field `{other}` (expected file, source, proc)"
                    ))
                    }
                }
            }
            let source =
                source.ok_or_else(|| format!("batch[{index}] is missing the `source` field"))?;
            Ok(BatchItem { name, source, opts })
        }
        _ => Err(format!(
            "batch[{index}] must be a source string or an object with a `source` field"
        )),
    }
}

/// The per-element error envelope, matching the server's top-level one.
fn error_envelope(message: &str) -> String {
    format!("{{\"error\": {}}}\n", json_string(message))
}

/// Frames rendered per-element documents as one index-aligned JSON array.
/// Elements are already multi-line documents; each is kept at top-level
/// indentation so any element is byte-identical (modulo the separating
/// comma) to the matching single-shot response.
fn frame_batch(rendered: Vec<String>) -> String {
    if rendered.is_empty() {
        return "[]\n".to_string();
    }
    let mut out = String::from("[\n");
    for (i, doc) in rendered.iter().enumerate() {
        out.push_str(doc.trim_end_matches('\n'));
        if i + 1 < rendered.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

impl AnalysisBackend for AnalysisService {
    fn analyze(&self, query: &[(String, String)], source: &str) -> Result<String, String> {
        let (name, opts, traced) = file_options_from_query(query, self.analysis_jobs, false)?;
        let run = |program: &Program| {
            analyze_program(
                &name,
                program,
                &opts,
                Some(&self.store as &dyn SummaryStore),
            )
            .map(|(out, _exit, _stats)| out)
            .map_err(|e| e.to_string())
        };
        if traced {
            return self.traced_response(&name, source, run);
        }
        self.cached_response(Endpoint::Analyze, query, &name, source, run)
    }

    fn complexity(&self, query: &[(String, String)], source: &str) -> Result<String, String> {
        let (name, opts, traced) = file_options_from_query(query, self.analysis_jobs, true)?;
        let run = |program: &Program| {
            complexity_program(
                &name,
                program,
                &opts,
                Some(&self.store as &dyn SummaryStore),
            )
            .map(|(out, _exit, _stats)| out)
            .map_err(|e| e.to_string())
        };
        if traced {
            return self.traced_response(&name, source, run);
        }
        self.cached_response(Endpoint::Complexity, query, &name, source, run)
    }

    /// `POST /v1/batch`: a JSON array of programs, analyzed in one call to
    /// the level-parallel batch driver (all programs' component levels are
    /// merged into one scheduling problem), responses index-aligned with
    /// the request.  Element failures (parse errors, unknown procedures)
    /// become inline `{"error": ...}` envelopes; the batch itself still
    /// succeeds.  Elements share the parse and response caches with
    /// `/v1/analyze` — a batch element and a single-shot request for the
    /// same file and source produce (and reuse) the same cached document.
    fn batch(&self, query: &[(String, String)], body: &str) -> Result<String, String> {
        let mut jobs = self.analysis_jobs;
        for (key, value) in query {
            match key.as_str() {
                "jobs" => {
                    jobs = value.parse().map_err(|_| {
                        format!("`jobs` expects a non-negative integer, got `{value}`")
                    })?
                }
                other => {
                    return Err(format!(
                        "unknown query parameter `{other}` (batch takes only `jobs`; \
                         per-program options go inside the body elements)"
                    ))
                }
            }
        }
        let doc = Json::parse(body).map_err(|e| format!("invalid batch body: {e}"))?;
        let elements = doc
            .as_array()
            .ok_or_else(|| "batch body must be a JSON array".to_string())?;

        let mut rendered: Vec<Option<String>> = Vec::with_capacity(elements.len());
        rendered.resize_with(elements.len(), || None);
        // Analysis work is deduplicated on the source fingerprint (two
        // elements posting the same bytes are analyzed once); rendering
        // stays per element, so names and `proc` focusing still apply.
        let mut program_of: std::collections::HashMap<u128, usize> =
            std::collections::HashMap::new();
        let mut programs: Vec<Arc<Program>> = Vec::new();
        // (element index, program index, response key, item)
        let mut pending: Vec<(usize, usize, Fingerprint, BatchItem)> = Vec::new();
        for (i, element) in elements.iter().enumerate() {
            let item = match batch_item(element, jobs, i) {
                Ok(item) => item,
                Err(e) => {
                    rendered[i] = Some(error_envelope(&e));
                    continue;
                }
            };
            let (src, program) = match self.parse_cached(&item.name, &item.source) {
                Ok(parsed) => parsed,
                Err(e) => {
                    rendered[i] = Some(error_envelope(&e));
                    continue;
                }
            };
            // The same key a single-shot `/v1/analyze?file=..&proc=..`
            // would probe and fill.
            let mut element_query = vec![("file".to_string(), item.name.clone())];
            if let Some(proc) = &item.opts.procedure {
                element_query.push(("proc".to_string(), proc.clone()));
            }
            let key = response_key(Endpoint::Analyze.path(), &element_query, src);
            if let Some(doc) = self.responses.get(&key) {
                rendered[i] = Some(doc.to_string());
                continue;
            }
            let p = *program_of.entry(src.0).or_insert_with(|| {
                programs.push(program);
                programs.len() - 1
            });
            pending.push((i, p, key, item));
        }

        if !programs.is_empty() {
            let refs: Vec<&Program> = programs.iter().map(Arc::as_ref).collect();
            let started = Instant::now();
            let results = analyzer_with_jobs(jobs)
                .analyze_batch_with_store(&refs, Some(&self.store as &dyn SummaryStore));
            let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
            for (i, p, key, item) in pending {
                match render_analysis(
                    &item.name,
                    &programs[p],
                    &results[p],
                    &item.opts,
                    elapsed_ms,
                ) {
                    Ok((out, _exit)) => {
                        self.responses
                            .put(&key, Arc::from(out.as_str()), out.len() as u64);
                        rendered[i] = Some(out);
                    }
                    Err(e) => rendered[i] = Some(error_envelope(&e.to_string())),
                }
            }
        }

        Ok(frame_batch(
            rendered
                .into_iter()
                .map(|doc| doc.expect("every element rendered or errored"))
                .collect(),
        ))
    }

    fn summary_get(&self, keyhex: &str, src: Option<&str>) -> Result<Option<String>, String> {
        let key = Fingerprint::from_hex(keyhex)
            .ok_or_else(|| format!("malformed summary key `{keyhex}`"))?;
        let src = match src {
            Some(hex) => Some(
                Fingerprint::from_hex(hex)
                    .ok_or_else(|| format!("malformed src fingerprint `{hex}`"))?,
            ),
            None => None,
        };
        Ok(self.store.serve_get(&key, src))
    }

    fn summary_put(&self, keyhex: &str, src: Option<&str>, entry: &str) -> Result<(), String> {
        let key = Fingerprint::from_hex(keyhex)
            .ok_or_else(|| format!("malformed summary key `{keyhex}`"))?;
        let src = match src {
            Some(hex) => Some(
                Fingerprint::from_hex(hex)
                    .ok_or_else(|| format!("malformed src fingerprint `{hex}`"))?,
            ),
            None => None,
        };
        self.store.serve_put(&key, src, entry)
    }

    fn cache_counters(&self) -> Vec<(&'static str, u64)> {
        let mut pairs = AnalysisService::counter_pairs(&self.store.tiered().counters());
        if let Some(remote) = self.store.tiered().remote() {
            pairs.extend([
                ("remote_hits", remote.hits()),
                ("remote_misses", remote.misses()),
                ("remote_stores", remote.stores()),
                ("remote_corrupt", remote.corrupt()),
                ("remote_errors", remote.errors()),
                ("remote_skipped", remote.skipped()),
            ]);
        }
        let flight = self.store.flight_counters();
        pairs.extend([
            (
                "summary_gets",
                self.store.summary_gets.load(Ordering::Relaxed),
            ),
            (
                "summary_get_hits",
                self.store.summary_get_hits.load(Ordering::Relaxed),
            ),
            (
                "summary_puts",
                self.store.summary_puts.load(Ordering::Relaxed),
            ),
            ("remote_cross_program_hits", self.store.cross_program_hits()),
            ("singleflight_leads", flight.leads),
            ("singleflight_waits", flight.waits),
            ("singleflight_wait_hits", flight.wait_hits),
            ("singleflight_wait_timeouts", flight.wait_timeouts),
            ("singleflight_refused", flight.refused),
            ("parse_hits", self.parsed.hits()),
            ("parse_misses", self.parsed.misses()),
            ("parse_entries", self.parsed.usage().0),
            ("response_hits", self.responses.hits()),
            ("response_misses", self.responses.misses()),
            ("response_entries", self.responses.usage().0),
        ]);
        pairs
    }

    fn fm_counters(&self) -> Vec<(&'static str, u64)> {
        // Live process-wide counters from the projection engine (relaxed
        // atomics, always compiled).
        let fm = chora_logic::stats::snapshot();
        vec![
            ("rows_generated", fm.rows_generated),
            ("rows_deduped", fm.rows_deduped),
            ("rows_dominated", fm.rows_dominated),
            ("imbert_skipped", fm.imbert_skipped),
            ("early_unsat_exits", fm.early_unsat_exits),
            ("max_width", fm.max_width),
            ("emptiness_checks", fm.emptiness_checks),
            ("emptiness_memo_hits", fm.emptiness_memo_hits),
            ("emptiness_witnesses", fm.emptiness_witnesses),
            ("overflow_restarts", fm.overflow_restarts),
        ]
    }

    fn maintain(&self) {
        self.store.tiered().gc();
    }

    fn maintenance_interval(&self) -> Option<Duration> {
        self.maintenance
    }

    /// Publishes the service's cache counters into the telemetry registry
    /// so `/v1/metrics` exposes them alongside the always-live FM, numeric,
    /// and scheduler series.  Counters are *copied* at render time (the
    /// store aggregates across tiers on read, so there is no single static
    /// cell to borrow).
    fn sync_metrics(&self) {
        let c = self.store.tiered().counters();
        let (corrupt, gc) = self.store.tiered().eviction_totals();
        let reg = registry();
        let counters: [(&'static str, &'static str, u64); 11] = [
            (
                "chora_cache_mem_hits_total",
                "Summary loads served by the memory tier.",
                c.mem_hits,
            ),
            (
                "chora_cache_disk_hits_total",
                "Summary loads served by the disk tier.",
                c.disk_hits,
            ),
            (
                "chora_cache_misses_total",
                "Summary loads answered by neither tier.",
                c.misses,
            ),
            (
                "chora_cache_stores_total",
                "Summary entries written to the store.",
                c.stores,
            ),
            (
                "chora_cache_evictions_total",
                "Store entries evicted for any reason (LRU, age, corruption, GC).",
                corrupt + gc,
            ),
            (
                "chora_cache_evicted_bytes_total",
                "Bytes removed from the store for any reason.",
                c.evicted_bytes,
            ),
            (
                "chora_parse_cache_hits_total",
                "Parsed-program cache hits.",
                self.parsed.hits(),
            ),
            (
                "chora_parse_cache_misses_total",
                "Parsed-program cache misses.",
                self.parsed.misses(),
            ),
            (
                "chora_response_cache_hits_total",
                "Rendered-response cache hits.",
                self.responses.hits(),
            ),
            (
                "chora_response_cache_misses_total",
                "Rendered-response cache misses.",
                self.responses.misses(),
            ),
            (
                "chora_cache_disk_probes_total",
                "Disk-tier probes after memory-tier misses.",
                c.disk_probes,
            ),
        ];
        for (name, help, value) in counters {
            reg.counter(name, help).store(value);
        }
        // Fleet-cache and coalescing series: registered unconditionally
        // (zero without a remote tier) so the families a dashboard scrapes
        // exist from the first render.
        let remote = self.store.tiered().remote();
        let flight = self.store.flight_counters();
        let fleet: [(&'static str, &'static str, u64); 12] = [
            (
                "chora_remote_cache_hits_total",
                "Summary loads served by the remote fleet cache.",
                remote.map_or(0, RemoteStore::hits),
            ),
            (
                "chora_remote_cache_misses_total",
                "Remote fleet-cache probes the peer could not answer.",
                remote.map_or(0, RemoteStore::misses),
            ),
            (
                "chora_remote_cache_stores_total",
                "Summary entries published to the remote fleet cache.",
                remote.map_or(0, RemoteStore::stores),
            ),
            (
                "chora_remote_cache_corrupt_total",
                "Remote fleet-cache responses rejected by validation.",
                remote.map_or(0, RemoteStore::corrupt),
            ),
            (
                "chora_remote_cache_errors_total",
                "Remote fleet-cache requests that failed at the transport level.",
                remote.map_or(0, RemoteStore::errors),
            ),
            (
                "chora_remote_cache_skipped_total",
                "Remote fleet-cache probes skipped while targets were in cooldown.",
                remote.map_or(0, RemoteStore::skipped),
            ),
            (
                "chora_remote_cache_cross_program_hits_total",
                "Served summary fetches whose key was first published by a different source program.",
                self.store.cross_program_hits(),
            ),
            (
                "chora_summary_endpoint_gets_total",
                "GET /v1/summaries/{key} requests served.",
                self.store.summary_gets.load(Ordering::Relaxed),
            ),
            (
                "chora_summary_endpoint_puts_total",
                "PUT /v1/summaries/{key} requests served.",
                self.store.summary_puts.load(Ordering::Relaxed),
            ),
            (
                "chora_singleflight_leads_total",
                "Store misses that took the computation lease.",
                flight.leads,
            ),
            (
                "chora_singleflight_waits_total",
                "Store misses coalesced onto another request's computation.",
                flight.waits,
            ),
            (
                "chora_singleflight_wait_hits_total",
                "Coalesced waits that adopted the leader's result.",
                flight.wait_hits,
            ),
        ];
        for (name, help, value) in fleet {
            reg.counter(name, help).store(value);
        }
        reg.gauge(
            "chora_cache_mem_entries",
            "Entries currently resident in the memory tier.",
        )
        .set(c.mem_entries);
        reg.gauge(
            "chora_cache_mem_bytes",
            "Serialized bytes currently held by the memory tier.",
        )
        .set(c.mem_bytes);
    }

    fn last_hit_class(&self) -> &'static str {
        LAST_HIT.with(|hit| hit.replace("-"))
    }
}

/// `chora serve`: blocks until SIGINT/SIGTERM or `POST /v1/shutdown`,
/// then drains in-flight requests and returns.
pub fn serve(opts: &ServeOptions) -> Result<(String, i32), CliError> {
    let service = Arc::new(AnalysisService::new(opts)?);
    let config = ServerConfig {
        addr: opts.addr.clone(),
        workers: analyzer_with_jobs(opts.jobs).effective_jobs(),
        quiet: opts.quiet,
        handle_signals: true,
        log_format: opts.log_format,
        slow_request_ms: opts.slow_request_ms,
        ..ServerConfig::default()
    };
    chora_server::run(config, service)
        .map_err(|e| CliError(format!("cannot serve on `{}`: {e}", opts.addr)))?;
    Ok((String::new(), 0))
}

/// Starts the daemon on a background thread (tests, `bench --server`);
/// the returned service handle exposes the live store counters.
pub fn spawn_server(opts: &ServeOptions) -> Result<(ServerHandle, Arc<AnalysisService>), CliError> {
    let service = Arc::new(AnalysisService::new(opts)?);
    let config = ServerConfig {
        addr: opts.addr.clone(),
        workers: analyzer_with_jobs(opts.jobs).effective_jobs(),
        quiet: opts.quiet,
        handle_signals: false,
        log_format: opts.log_format,
        slow_request_ms: opts.slow_request_ms,
        ..ServerConfig::default()
    };
    let handle = chora_server::spawn(config, Arc::clone(&service) as Arc<dyn AnalysisBackend>)
        .map_err(|e| CliError(format!("cannot serve on `{}`: {e}", opts.addr)))?;
    Ok((handle, service))
}

/// Options of `chora request`.
#[derive(Clone, Debug)]
pub struct RequestOptions {
    /// Endpoint name: `analyze`, `batch`, `complexity`, `healthz`,
    /// `stats`, or `shutdown`.
    pub endpoint: String,
    /// The `.imp` program(s) to send (`-` = stdin): exactly one for
    /// `analyze`/`complexity`, any number for `batch`, none otherwise.
    pub files: Vec<String>,
    /// The daemon to talk to (`--addr`).
    pub addr: String,
    /// Forwarded query parameters (match the CLI flags of the same name).
    pub jobs: Option<usize>,
    pub procedure: Option<String>,
    pub cost_var: Option<String>,
    pub size_param: Option<String>,
}

impl Default for RequestOptions {
    fn default() -> Self {
        RequestOptions {
            endpoint: String::new(),
            files: Vec::new(),
            addr: "127.0.0.1:7557".to_string(),
            jobs: None,
            procedure: None,
            cost_var: None,
            size_param: None,
        }
    }
}

/// `chora request`: one HTTP round-trip against a running `chora serve`,
/// response body on stdout.  For `analyze` and `batch`, the exit code
/// mirrors the CLI (1 when an assertion was not proved).
pub fn request(opts: &RequestOptions) -> Result<(String, i32), CliError> {
    let endpoint = Endpoint::from_name(&opts.endpoint).ok_or_else(|| {
        CliError(format!(
            "unknown endpoint `{}`; available: analyze, batch, complexity, healthz, stats, shutdown",
            opts.endpoint
        ))
    })?;
    let single_file = matches!(endpoint, Endpoint::Analyze | Endpoint::Complexity);
    let body = match endpoint {
        Endpoint::Analyze | Endpoint::Complexity => match opts.files.as_slice() {
            [path] => Some(read_source(path)?),
            _ => {
                return Err(CliError(format!(
                    "`chora request {}` expects exactly one FILE argument (`-` reads stdin)",
                    opts.endpoint
                )))
            }
        },
        Endpoint::Batch => {
            if opts.files.is_empty() {
                return Err(CliError(
                    "`chora request batch` expects one or more FILE arguments".to_string(),
                ));
            }
            let mut elements = Vec::new();
            for path in &opts.files {
                let mut element = Json::object()
                    .field("file", Json::str(path.as_str()))
                    .field("source", Json::str(read_source(path)?));
                if let Some(proc) = &opts.procedure {
                    element = element.field("proc", Json::str(proc.as_str()));
                }
                elements.push(element);
            }
            Some(Json::Array(elements).pretty())
        }
        _ => {
            if !opts.files.is_empty() {
                return Err(CliError(format!(
                    "`chora request {}` takes no FILE argument",
                    opts.endpoint
                )));
            }
            None
        }
    };

    let mut query: Vec<(&str, String)> = Vec::new();
    if single_file {
        query.push(("file", opts.files[0].clone()));
        if let Some(proc) = &opts.procedure {
            query.push(("proc", proc.clone()));
        }
        if let Some(cost) = &opts.cost_var {
            query.push(("cost", cost.clone()));
        }
        if let Some(size) = &opts.size_param {
            query.push(("size", size.clone()));
        }
    }
    if matches!(
        endpoint,
        Endpoint::Analyze | Endpoint::Complexity | Endpoint::Batch
    ) {
        if let Some(jobs) = opts.jobs {
            query.push(("jobs", jobs.to_string()));
        }
    }
    let path = if query.is_empty() {
        endpoint.path().to_string()
    } else {
        let encoded: Vec<String> = query
            .iter()
            .map(|(k, v)| format!("{k}={}", encode_query_component(v)))
            .collect();
        format!("{}?{}", endpoint.path(), encoded.join("&"))
    };

    let mut client = Client::new(&opts.addr);
    let (status, response) = client
        .send(endpoint.method(), &path, body.as_deref())
        .map_err(|e| {
            CliError(format!(
                "cannot reach chora serve at `{}`: {e} (is the daemon running?)",
                opts.addr
            ))
        })?;
    if status != 200 {
        return Err(CliError(format!(
            "server returned {status}: {}",
            response.trim()
        )));
    }
    let exit = if matches!(endpoint, Endpoint::Analyze | Endpoint::Batch)
        && response.contains("\"all_assertions_verified\": false")
    {
        1
    } else {
        0
    };
    Ok((response, exit))
}

/// `chora bench --server DIR`: replays every `.imp` program under `DIR`
/// through a live in-process daemon over one keep-alive HTTP connection —
/// one cold pass, then warm rounds — and reports per-program latency plus
/// cold/warm requests-per-second and the cache counters.
pub fn bench_server(opts: &BenchOptions) -> Result<(String, i32), CliError> {
    let dir = opts.programs_dir.as_ref().ok_or_else(|| {
        CliError("`chora bench --server` needs a DIR of .imp programs".to_string())
    })?;
    let mut programs: Vec<(String, String, String)> = Vec::new(); // (name, file, source)
    for (name, path) in opts.programs_in(dir)? {
        let source = read_source(&path)?;
        programs.push((name, path, source));
    }
    if programs.is_empty() {
        return Err(CliError(format!("no .imp programs under `{dir}` match")));
    }

    let serve_opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs: opts.jobs,
        cache_dir: opts.cache_dir.clone().filter(|_| !opts.no_cache),
        remote_cache: opts.remote_cache.clone().filter(|_| !opts.no_cache),
        quiet: true,
        ..ServeOptions::default()
    };
    let workers = analyzer_with_jobs(serve_opts.jobs).effective_jobs();
    let (handle, service) = spawn_server(&serve_opts)?;
    // One connection for the whole bench: every request after the first
    // rides the established keep-alive connection.
    let mut client = Client::new(handle.addr().to_string());

    let mut send = |file: &str, source: &str| -> Result<f64, CliError> {
        let path = format!("/v1/analyze?file={}", encode_query_component(file));
        let started = Instant::now();
        let (status, body) = client
            .post(&path, source)
            .map_err(|e| CliError(format!("request to the bench server failed: {e}")))?;
        if status != 200 {
            return Err(CliError(format!(
                "bench server returned {status} for `{file}`: {}",
                body.trim()
            )));
        }
        Ok(started.elapsed().as_secs_f64() * 1e3)
    };

    // Cold pass: every program once, sequentially, into empty caches.
    let cold_started = Instant::now();
    let mut cold_ms: Vec<f64> = Vec::new();
    for (_, file, source) in &programs {
        cold_ms.push(send(file, source)?);
    }
    let cold_total_s = cold_started.elapsed().as_secs_f64();

    // Warm rounds: enough repeats for a stable requests/sec figure.
    let rounds = (96 / programs.len()).max(3);
    let probes_before_warm = service.store().counters().disk_probes;
    let parse_hits_before_warm = service.parse_cache().hits();
    let response_hits_before_warm = service.response_cache().hits();
    let warm_started = Instant::now();
    let mut warm_total_ms = vec![0.0f64; programs.len()];
    for _ in 0..rounds {
        for (i, (_, file, source)) in programs.iter().enumerate() {
            warm_total_ms[i] += send(file, source)?;
        }
    }
    let warm_total_s = warm_started.elapsed().as_secs_f64();
    let warm_requests = rounds * programs.len();
    let counters = service.store().counters();
    let warm_disk_probes = counters.disk_probes - probes_before_warm;
    let warm_parse_hits = service.parse_cache().hits() - parse_hits_before_warm;
    let warm_response_hits = service.response_cache().hits() - response_hits_before_warm;
    client.close();
    handle.shutdown();

    let cold_rps = programs.len() as f64 / cold_total_s.max(1e-9);
    let warm_rps = warm_requests as f64 / warm_total_s.max(1e-9);

    if opts.json {
        let rows: Vec<Json> = programs
            .iter()
            .enumerate()
            .map(|(i, (name, _, _))| {
                Json::object()
                    .field("name", Json::str(name.as_str()))
                    .field("cold_ms", Json::Float(cold_ms[i]))
                    .field(
                        "warm_mean_ms",
                        Json::Float(warm_total_ms[i] / rounds as f64),
                    )
            })
            .collect();
        let doc = Json::object().field(
            "server_bench",
            Json::object()
                .field("workers", Json::Int(workers as i64))
                .field("programs", Json::Array(rows))
                .field("cold_rps", Json::Float(cold_rps))
                .field("warm_rps", Json::Float(warm_rps))
                .field("warm_requests", Json::Int(warm_requests as i64))
                .field("warm_mem_hits", Json::Int(counters.mem_hits as i64))
                .field("warm_disk_probes", Json::Int(warm_disk_probes as i64))
                .field("warm_parse_hits", Json::Int(warm_parse_hits as i64))
                .field("warm_response_hits", Json::Int(warm_response_hits as i64)),
        );
        return Ok((doc.pretty(), 0));
    }

    let mut out = String::new();
    out.push_str(&format!(
        "server bench: {} programs over one keep-alive connection ({workers} workers)\n\n",
        programs.len()
    ));
    out.push_str(&format!(
        "{:<18} {:>10} {:>12}\n",
        "program", "cold", "warm (mean)"
    ));
    for (i, (name, _, _)) in programs.iter().enumerate() {
        out.push_str(&format!(
            "{name:<18} {:>8.1}ms {:>10.1}ms\n",
            cold_ms[i],
            warm_total_ms[i] / rounds as f64
        ));
    }
    out.push_str(&format!(
        "\ncold: {cold_rps:.1} req/s    warm: {warm_rps:.1} req/s ({warm_requests} requests, \
         {} mem hits, {warm_disk_probes} disk probes, {warm_parse_hits} parse hits, \
         {warm_response_hits} response hits during warm rounds)\n",
        counters.mem_hits
    ));
    Ok((out, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_bytes_parses_suffixes_and_zero() {
        assert_eq!(parse_cap_bytes("1024"), Ok(1024));
        assert_eq!(parse_cap_bytes("4K"), Ok(4096));
        assert_eq!(parse_cap_bytes("2M"), Ok(2 << 20));
        assert_eq!(parse_cap_bytes("1G"), Ok(1 << 30));
        assert_eq!(parse_cap_bytes("0"), Ok(0), "0 is legal (unbounded)");
        assert!(parse_cap_bytes("lots").is_err());
    }

    #[test]
    fn explicit_zero_cap_means_an_unbounded_store() {
        let unbounded = AnalysisService::new(&ServeOptions {
            cache_cap_bytes: Some(0),
            ..ServeOptions::default()
        })
        .expect("service");
        assert_eq!(unbounded.store().config().cap_bytes, None);
        let defaulted = AnalysisService::new(&ServeOptions::default()).expect("service");
        assert_eq!(defaulted.store().config().cap_bytes, Some(64 << 20));
    }

    #[test]
    fn max_age_parses_suffixes() {
        assert_eq!(parse_max_age("90"), Ok(Duration::from_secs(90)));
        assert_eq!(parse_max_age("30s"), Ok(Duration::from_secs(30)));
        assert_eq!(parse_max_age("5m"), Ok(Duration::from_secs(300)));
        assert_eq!(parse_max_age("2h"), Ok(Duration::from_secs(7200)));
        assert!(parse_max_age("never").is_err());
    }

    #[test]
    fn query_options_reject_unknown_and_misplaced_parameters() {
        let q = |pairs: &[(&str, &str)]| {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect::<Vec<_>>()
        };
        let (name, opts, traced) =
            file_options_from_query(&q(&[("file", "x.imp"), ("jobs", "4")]), 1, false)
                .expect("valid");
        assert_eq!(name, "x.imp");
        assert_eq!(opts.jobs, 4);
        assert!(opts.json);
        assert!(!traced);
        let (_, _, traced) =
            file_options_from_query(&q(&[("trace", "1")]), 1, false).expect("traced");
        assert!(traced);
        assert!(file_options_from_query(&q(&[("trace", "maybe")]), 1, false).is_err());
        assert!(file_options_from_query(&q(&[("bogus", "1")]), 1, false).is_err());
        // cost/size only exist on the complexity endpoint.
        assert!(file_options_from_query(&q(&[("cost", "c")]), 1, false).is_err());
        assert!(file_options_from_query(&q(&[("cost", "c")]), 1, true).is_ok());
        assert!(file_options_from_query(&q(&[("jobs", "many")]), 1, false).is_err());
    }

    const SOURCE: &str = "global cost;\n\
        proc main(n) {\n  cost := cost + 1;\n  assert(cost >= cost, \"trivial\");\n}\n";

    fn service() -> AnalysisService {
        AnalysisService::new(&ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            ..ServeOptions::default()
        })
        .expect("service")
    }

    #[test]
    fn repeated_requests_hit_the_parse_and_response_caches() {
        let service = service();
        let query = vec![("file".to_string(), "t.imp".to_string())];
        let first = service.analyze(&query, SOURCE).expect("analyze");
        assert_eq!(service.parse_cache().hits(), 0);
        assert_eq!(service.parse_cache().misses(), 1);
        assert_eq!(service.response_cache().hits(), 0);
        let second = service.analyze(&query, SOURCE).expect("analyze again");
        assert_eq!(first, second, "cached response must be byte-identical");
        assert_eq!(service.parse_cache().hits(), 1);
        assert_eq!(service.response_cache().hits(), 1);
        // A different display name misses the response cache (the document
        // embeds the name) but still shares the parsed program.
        let renamed = vec![("file".to_string(), "other.imp".to_string())];
        let third = service.analyze(&renamed, SOURCE).expect("renamed");
        assert_ne!(first, third);
        assert_eq!(service.parse_cache().hits(), 2);
        assert_eq!(service.response_cache().hits(), 1);
        // Parse errors are never cached: the same bad source misses twice.
        assert!(service.analyze(&query, "nonsense {").is_err());
        assert!(service.analyze(&query, "nonsense {").is_err());
        assert_eq!(service.parse_cache().misses(), 3);
    }

    #[test]
    fn batch_elements_match_single_shot_responses() {
        let single = service();
        let solo = single
            .analyze(&[("file".to_string(), "a.imp".to_string())], SOURCE)
            .expect("single-shot");

        let batched = service();
        let body = Json::Array(vec![
            Json::object()
                .field("file", Json::str("a.imp"))
                .field("source", Json::str(SOURCE)),
            Json::str(SOURCE),
            Json::str("broken {"),
        ])
        .pretty();
        let out = batched.batch(&[], &body).expect("batch");
        assert!(out.starts_with("[\n"), "{out}");
        assert!(out.ends_with("]\n"), "{out}");
        // Element 0 is byte-identical to the single-shot document (modulo
        // the timing line and the separating comma).
        let strip = |s: &str| -> String {
            s.lines()
                .filter(|l| !l.contains("analysis_ms"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let element0 = out
            .trim_start_matches("[\n")
            .split("\n},")
            .next()
            .map(|s| format!("{s}\n}}"))
            .expect("element 0");
        assert_eq!(
            strip(&element0),
            strip(solo.trim_end_matches('\n')),
            "{out}"
        );
        // Element 2 is an inline error envelope; the batch still succeeds.
        assert!(out.contains("\"error\""), "{out}");
        // Empty batches are the empty array.
        assert_eq!(batched.batch(&[], "[]").expect("empty"), "[]\n");
        // Malformed bodies and unknown query parameters are batch-level
        // errors.
        assert!(batched.batch(&[], "{}").is_err());
        assert!(batched
            .batch(&[], "[31]")
            .expect("non-string")
            .contains("\"error\""));
        assert!(batched
            .batch(&[("proc".to_string(), "main".to_string())], "[]")
            .is_err());
    }

    #[test]
    fn batch_and_single_shot_share_the_response_cache() {
        let service = service();
        let query = vec![("file".to_string(), "a.imp".to_string())];
        let solo = service.analyze(&query, SOURCE).expect("single-shot");
        let body = Json::Array(vec![Json::object()
            .field("file", Json::str("a.imp"))
            .field("source", Json::str(SOURCE))])
        .pretty();
        let out = service.batch(&[], &body).expect("batch");
        assert_eq!(
            service.response_cache().hits(),
            1,
            "batch element reused the single-shot doc"
        );
        assert_eq!(out, format!("[\n{}\n]\n", solo.trim_end_matches('\n')));
    }
}
