//! # chora-server
//!
//! The daemon substrate behind `chora serve`: a hand-rolled, std-only
//! HTTP/1.1 server over [`std::net::TcpListener`] with keep-alive and
//! request pipelining, a fixed [worker-thread pool](pool::ThreadPool), a
//! [declarative request router](router::ROUTES), a
//! [stats registry](stats::ServerStats), graceful shutdown
//! (SIGINT/SIGTERM via [`signal`], or `POST /v1/shutdown`), and a
//! [connection-reusing client](client::Client) for `chora request` and
//! benchmarks.
//!
//! The crate knows nothing about `.imp` programs: the analysis itself is
//! injected through the [`AnalysisBackend`] trait, implemented by
//! `chora_cli::serve` on top of the factored CLI driver — so the daemon
//! never shells out, and the CLI binary avoids a dependency cycle
//! (`chora-cli → chora-server`, backend flowing the other way as a trait
//! object).
//!
//! ## Protocol
//!
//! | method | path             | body            | response                               |
//! |--------|------------------|-----------------|----------------------------------------|
//! | POST   | `/v1/analyze`    | `.imp` src      | the `chora analyze --json` document    |
//! | POST   | `/v1/batch`      | JSON array of `{"file", "source"}` | index-aligned array of analyze documents |
//! | POST   | `/v1/complexity` | `.imp` src      | the `chora complexity --json` document |
//! | GET    | `/v1/healthz`    | —               | `{"status": "ok", ...}`                |
//! | GET    | `/v1/stats`      | —               | request timings + cache counters       |
//! | GET    | `/v1/metrics`    | —               | Prometheus text exposition of the telemetry registry |
//! | POST   | `/v1/shutdown`   | —               | `{"ok": true}`, then drain and exit    |
//!
//! Query parameters (`file`, `jobs`, `proc`, `cost`, `size`; `jobs` only
//! for `/v1/batch`) parameterize the analysis exactly like the CLI flags
//! of the same names.  Errors are always JSON envelopes `{"error": "..."}`
//! with a 4xx/5xx status; a malformed request can never take a worker
//! down.  A 405 carries an `Allow` header listing the accepted methods.
//!
//! ## Connection lifecycle
//!
//! Connections are persistent (HTTP/1.1 keep-alive): a worker owns one
//! connection and answers requests off it in a loop — pipelined requests
//! included — until the client sends `Connection: close` (or speaks
//! HTTP/1.0 without opting in), the per-connection request cap is
//! reached, the idle timeout expires, a framing error occurs, or the
//! server starts draining.  Each response says which via its own
//! `Connection` header.  Bodies are always `Content-Length`-framed; a
//! stalled head read is cut off by a deadline (408), so a slowloris peer
//! cannot pin a worker.

pub mod client;
pub mod http;
pub mod pool;
pub mod router;
pub mod signal;
pub mod stats;

use http::{Conn, ConnLimits, Next, Request, Response};
use pool::ThreadPool;
use router::{route, Ctx};
use stats::ServerStats;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the accept loop re-checks the shutdown flag while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// The analysis service the daemon hosts, implemented by the CLI crate on
/// top of its factored driver.
///
/// `analyze`/`complexity` take the request's query parameters and the
/// `.imp` source from the body, and return the *identical* JSON document
/// the corresponding CLI subcommand prints (an `Err` becomes a 400 with a
/// JSON error envelope).  `batch` takes a JSON array of
/// `{"file", "source"}` objects and returns an index-aligned JSON array
/// whose elements are byte-identical to the corresponding single-shot
/// `analyze` documents.  `cache_counters` feeds the `"cache"` section of
/// `/v1/stats`; `maintain` runs on the housekeeping thread every
/// `maintenance_interval` (cache GC).
pub trait AnalysisBackend: Send + Sync + 'static {
    /// `POST /v1/analyze`.
    fn analyze(&self, query: &[(String, String)], source: &str) -> Result<String, String>;

    /// `POST /v1/complexity`.
    fn complexity(&self, query: &[(String, String)], source: &str) -> Result<String, String>;

    /// `POST /v1/batch`.  The default declines, so minimal backends (and
    /// test stubs) need not implement JSON-array parsing.
    fn batch(&self, _query: &[(String, String)], _body: &str) -> Result<String, String> {
        Err("this backend does not support /v1/batch".to_string())
    }

    /// `GET /v1/summaries/{key}` — the raw serialized cache entry under
    /// the hex component key, from the backend's *local* store only.
    /// `Ok(None)` is a clean 404 (not cached here); `Err` is a 400
    /// (malformed key).  `src` is the requesting run's source-program
    /// fingerprint, used for cross-program reuse accounting.  The default
    /// declines, so minimal backends need not carry a store.
    fn summary_get(&self, _keyhex: &str, _src: Option<&str>) -> Result<Option<String>, String> {
        Err("this backend does not serve summaries".to_string())
    }

    /// `PUT /v1/summaries/{key}` — a peer publishing an entry into the
    /// backend's local store.  Implementations must validate the entry's
    /// envelope against `keyhex` before adopting it.
    fn summary_put(&self, _keyhex: &str, _src: Option<&str>, _entry: &str) -> Result<(), String> {
        Err("this backend does not accept summaries".to_string())
    }

    /// Name/value pairs rendered under `"cache"` in `/v1/stats`.
    fn cache_counters(&self) -> Vec<(&'static str, u64)>;

    /// Name/value pairs rendered under `"fm"` in `/v1/stats` — the
    /// Fourier–Motzkin projection counters (rows generated / deduped /
    /// dominated, Imbert skips, early-unsat exits, widest system, emptiness
    /// checks and how they were answered, overflow restarts).  The default
    /// is empty, for backends that run no projections.
    fn fm_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Periodic maintenance hook (e.g. a store GC pass).
    fn maintain(&self) {}

    /// How often [`maintain`](AnalysisBackend::maintain) should run;
    /// `None` disables the housekeeping thread.
    fn maintenance_interval(&self) -> Option<Duration> {
        None
    }

    /// Publishes the backend's current counters into the process-wide
    /// telemetry registry; called before `/v1/metrics` and `/v1/stats`
    /// render.  The default does nothing.
    fn sync_metrics(&self) {}

    /// How the most recent request on *this thread* was served, for the
    /// request log: e.g. `response-hit`, `parse-hit`, `miss`.  Backends
    /// without request caches report `-`.
    fn last_hit_class(&self) -> &'static str {
        "-"
    }
}

/// Shape of the per-request log line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LogFormat {
    /// Human-oriented single line (the historical format).
    #[default]
    Text,
    /// One JSON object per line, machine-parseable.
    Json,
}

impl std::str::FromStr for LogFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<LogFormat, String> {
        match s {
            "text" => Ok(LogFormat::Text),
            "json" => Ok(LogFormat::Json),
            other => Err(format!("unknown log format `{other}` (expected text|json)")),
        }
    }
}

/// Daemon configuration (`chora serve` flags).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7557` (port 0 = ephemeral).
    pub addr: String,
    /// Worker threads handling connections (each worker owns one live
    /// connection at a time).
    pub workers: usize,
    /// Suppress the per-request stderr log line.
    pub quiet: bool,
    /// Install the SIGINT/SIGTERM handler (the CLI path; tests and
    /// embedded servers leave the process signal state alone).
    pub handle_signals: bool,
    /// Most requests served over one keep-alive connection before the
    /// server closes it (a fairness valve: one chatty client cannot own a
    /// worker forever).
    pub max_requests_per_conn: usize,
    /// How long an idle keep-alive connection waits for its next request.
    pub idle_timeout: Duration,
    /// Wall-clock allowed for one whole request, head and body, counted
    /// from its first byte (slowloris guard; expiry is a 408).
    pub head_deadline: Duration,
    /// Request log line shape (`--log-format text|json`).
    pub log_format: LogFormat,
    /// Requests at or above this duration are logged with a `slow` marker
    /// — even under `quiet`, so a throttled log still surfaces outliers.
    /// `None` disables the slow-request path.
    pub slow_request_ms: Option<f64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7557".to_string(),
            workers: 4,
            quiet: false,
            handle_signals: false,
            max_requests_per_conn: 1000,
            idle_timeout: Duration::from_secs(5),
            head_deadline: http::IO_TIMEOUT,
            log_format: LogFormat::Text,
            slow_request_ms: None,
        }
    }
}

impl ServerConfig {
    fn limits(&self) -> ConnLimits {
        ConnLimits {
            head_deadline: self.head_deadline,
            idle_timeout: self.idle_timeout,
        }
    }

    fn request_log(&self) -> RequestLog {
        RequestLog {
            format: self.log_format,
            quiet: self.quiet,
            slow_request_ms: self.slow_request_ms,
        }
    }
}

/// The per-connection view of the logging configuration.
#[derive(Clone, Copy, Debug)]
struct RequestLog {
    format: LogFormat,
    quiet: bool,
    slow_request_ms: Option<f64>,
}

/// Monotone request ids, process-wide, for correlating log lines.
static REQUEST_IDS: AtomicU64 = AtomicU64::new(0);

impl RequestLog {
    /// Emits one request log line to stderr.  `quiet` suppresses routine
    /// lines, but a request at or past the slow threshold is always
    /// logged.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &self,
        id: u64,
        peer: SocketAddr,
        endpoint: &str,
        status: u16,
        elapsed_ms: f64,
        hit: &str,
        keep_alive: bool,
    ) {
        let slow = self
            .slow_request_ms
            .is_some_and(|limit| elapsed_ms >= limit);
        if self.quiet && !slow {
            return;
        }
        match self.format {
            LogFormat::Text => eprintln!(
                "chora serve: {peer} {endpoint} {status} {elapsed_ms:.1}ms id={id} hit={hit}{}{}",
                if slow { " (slow)" } else { "" },
                if keep_alive { "" } else { " (close)" }
            ),
            LogFormat::Json => eprintln!(
                "{{\"msg\":\"request\",\"id\":{id},\"peer\":{},\"endpoint\":{},\"status\":{status},\"duration_ms\":{elapsed_ms:.3},\"hit\":{},\"slow\":{slow},\"keep_alive\":{keep_alive}}}",
                http::json_string(&peer.to_string()),
                http::json_string(endpoint),
                http::json_string(hit),
            ),
        }
    }
}

/// A running daemon spawned with [`spawn`]: the bound address plus the
/// handles to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and waits for the drain to finish.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Binds and serves on the calling thread until shutdown (signal or
/// `POST /v1/shutdown`).  This is the `chora serve` entry point.
pub fn run(config: ServerConfig, backend: Arc<dyn AnalysisBackend>) -> std::io::Result<()> {
    let listener = TcpListener::bind(&config.addr)?;
    if config.handle_signals {
        signal::install();
    }
    if !config.quiet {
        eprintln!(
            "chora serve: listening on http://{} ({} workers)",
            listener.local_addr()?,
            config.workers.max(1)
        );
    }
    let shutdown = Arc::new(AtomicBool::new(false));
    serve_on(listener, &config, backend, shutdown);
    Ok(())
}

/// Binds, then serves on a background thread; returns once the socket is
/// live.  This is the test/bench entry point (ephemeral ports).
pub fn spawn(
    config: ServerConfig,
    backend: Arc<dyn AnalysisBackend>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let thread = std::thread::Builder::new()
        .name("chora-serve".to_string())
        .spawn(move || serve_on(listener, &config, backend, flag))?;
    Ok(ServerHandle {
        addr,
        shutdown,
        thread: Some(thread),
    })
}

/// The accept loop: non-blocking accept + shutdown-flag poll, one pool job
/// per *connection* (the job loops over that connection's requests).
/// Returns only after every accepted connection has been answered (the
/// pool drains on drop; parked keep-alive connections notice the flag and
/// close).
fn serve_on(
    listener: TcpListener,
    config: &ServerConfig,
    backend: Arc<dyn AnalysisBackend>,
    shutdown: Arc<AtomicBool>,
) {
    listener
        .set_nonblocking(true)
        .expect("listener nonblocking mode");
    let pool = ThreadPool::new(config.workers);
    let stats = Arc::new(ServerStats::new());
    let housekeeping = backend.maintenance_interval().map(|interval| {
        let backend = Arc::clone(&backend);
        let shutdown = Arc::clone(&shutdown);
        let stats = Arc::clone(&stats);
        std::thread::Builder::new()
            .name("chora-housekeeping".to_string())
            .spawn(move || {
                let mut last = Instant::now();
                while !shutdown.load(Ordering::SeqCst) && !signal::signalled() {
                    std::thread::sleep(ACCEPT_POLL.max(Duration::from_millis(20)));
                    if last.elapsed() >= interval {
                        backend.maintain();
                        stats.record_gc();
                        last = Instant::now();
                    }
                }
            })
            .expect("spawn housekeeping thread")
    });

    while !shutdown.load(Ordering::SeqCst) && !signal::signalled() {
        match listener.accept() {
            Ok((stream, peer)) => {
                // On several platforms (BSD, macOS, Windows) accepted
                // sockets inherit the listener's non-blocking mode; the
                // workers want plain blocking reads with timeouts.
                let _ = stream.set_nonblocking(false);
                // Responses go out in one write each; without TCP_NODELAY
                // Nagle would still delay a response that follows another
                // on the same keep-alive connection until the client ACKs.
                let _ = stream.set_nodelay(true);
                let backend = Arc::clone(&backend);
                let stats = Arc::clone(&stats);
                let shutdown = Arc::clone(&shutdown);
                let log = config.request_log();
                let limits = config.limits();
                let max_requests = config.max_requests_per_conn.max(1);
                pool.execute(move || {
                    handle_connection(
                        stream,
                        peer,
                        &*backend,
                        &stats,
                        &shutdown,
                        log,
                        limits,
                        max_requests,
                    )
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    if !config.quiet {
        eprintln!("chora serve: draining in-flight requests");
    }
    drop(pool); // Joins the workers: every accepted request gets its answer.
    if let Some(thread) = housekeeping {
        let _ = thread.join();
    }
}

/// Serves one connection to completion: requests are read, dispatched,
/// and answered in a loop until the client stops, a limit trips, or the
/// server drains.  Every response states the connection's fate in its
/// `Connection` header; error responses always close (after a framing
/// error the buffer position is untrustworthy), with a lingering close
/// ([`http::Conn::linger`]) so that request bytes the server never read do
/// not reset the connection before the client has read the response.
#[allow(clippy::too_many_arguments)]
fn handle_connection(
    stream: TcpStream,
    peer: SocketAddr,
    backend: &dyn AnalysisBackend,
    stats: &ServerStats,
    shutdown: &AtomicBool,
    log: RequestLog,
    limits: ConnLimits,
    max_requests: usize,
) {
    stats.record_connection();
    let mut conn = Conn::new(stream, limits);
    let mut served = 0usize;
    loop {
        let request = match conn.next_request(shutdown) {
            Ok(Next::Request(request)) => request,
            Ok(Next::Closed) | Ok(Next::Idle) => break,
            Err(e) => {
                let id = REQUEST_IDS.fetch_add(1, Ordering::Relaxed) + 1;
                let response = Response::error(e.status, &e.message);
                stats.record("<malformed>", response.status, 0.0);
                let _ = response.write_to(conn.stream(), false);
                log.emit(id, peer, "<malformed>", response.status, 0.0, "-", false);
                conn.linger();
                return;
            }
        };
        served += 1;
        let id = REQUEST_IDS.fetch_add(1, Ordering::Relaxed) + 1;
        let started = Instant::now();
        let (endpoint_label, response) = dispatch(&request, backend, stats, shutdown);
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        stats.record(endpoint_label, response.status, elapsed_ms);
        // The shutdown check covers `POST /v1/shutdown` answered on this
        // very connection: its own response already says `close`.
        let keep_alive =
            request.keep_alive && served < max_requests && !shutdown.load(Ordering::SeqCst);
        let written = response.write_to(conn.stream(), keep_alive);
        log.emit(
            id,
            peer,
            endpoint_label,
            response.status,
            elapsed_ms,
            backend.last_hit_class(),
            keep_alive,
        );
        if written.is_err() || !keep_alive {
            break;
        }
    }
}

/// Routes and executes one well-formed request, returning the response
/// plus the stats label — the endpoint's canonical path, or a fixed
/// `<unrouted>` bucket, so probing arbitrary paths cannot grow the stats
/// map without bound.
fn dispatch(
    request: &Request,
    backend: &dyn AnalysisBackend,
    stats: &ServerStats,
    shutdown: &AtomicBool,
) -> (&'static str, Response) {
    match route(&request.method, &request.path) {
        Ok(r) => {
            let ctx = Ctx {
                backend,
                stats,
                shutdown,
            };
            (r.path, (r.handler)(request, &ctx))
        }
        Err(response) => ("<unrouted>", response),
    }
}
