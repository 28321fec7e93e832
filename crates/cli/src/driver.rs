//! Implementations of the `analyze`, `complexity`, and `bench` subcommands.
//!
//! Each command is a pure function from parsed options to an output string
//! (plus an exit code), so integration tests can call them without spawning
//! the binary.

use crate::json::Json;
use crate::parser::parse_program;
use chora_core::{
    complexity, AnalysisConfig, AnalysisResult, Analyzer, CacheStats, ComplexityClass, DiskStore,
    RemoteStore, SummaryStore, TieredConfig, TieredStore,
};
use chora_expr::Symbol;
use chora_ir::Program;
use std::fmt;
use std::time::Instant;

/// A command failure rendered to stderr by `main`.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Reads the program text behind a FILE argument; `-` reads stdin (so the
/// CLI accepts in-memory sources the same way the server's request path
/// does).
pub fn read_source(path: &str) -> Result<String, CliError> {
    if path == "-" {
        let mut src = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut src)
            .map_err(|e| CliError(format!("cannot read stdin: {e}")))?;
        Ok(src)
    } else {
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read `{path}`: {e}")))
    }
}

/// Parses program text, rendering errors against `name` (a path or a
/// request-supplied display name).
pub(crate) fn parse_source(name: &str, src: &str) -> Result<Program, CliError> {
    let _span = chora_telemetry::trace::span("phase", "parse");
    parse_program(src).map_err(|e| CliError(format!("{name}:{}", e.render(src))))
}

/// Opens a trace session when `--trace-out FILE` was given.  The session
/// is exclusive process-wide; the guard cleans up on error paths.
fn start_trace(
    trace_out: &Option<String>,
) -> Result<Option<chora_telemetry::trace::TraceSession>, CliError> {
    match trace_out {
        None => Ok(None),
        Some(_) => chora_telemetry::trace::start()
            .map(Some)
            .ok_or_else(|| CliError("another trace session is already recording".to_string())),
    }
}

/// Finishes the session and writes Chrome trace-event JSON to the
/// `--trace-out` path.  The summary note goes to stderr so traced and
/// untraced runs stay byte-identical on stdout.
fn write_trace(
    session: Option<chora_telemetry::trace::TraceSession>,
    trace_out: &Option<String>,
    quiet: bool,
) -> Result<(), CliError> {
    let (Some(session), Some(path)) = (session, trace_out.as_ref()) else {
        return Ok(());
    };
    let trace = session.finish();
    std::fs::write(path, trace.to_chrome_json())
        .map_err(|e| CliError(format!("cannot write trace to `{path}`: {e}")))?;
    if !quiet {
        eprintln!(
            "trace: {} spans over {} lanes -> {path}",
            trace.events.len(),
            trace.active_lanes().len()
        );
    }
    Ok(())
}

fn read_and_parse(path: &str) -> Result<Program, CliError> {
    parse_source(path, &read_source(path)?)
}

/// An analyzer configured with the requested worker count.
pub(crate) fn analyzer_with_jobs(jobs: usize) -> Analyzer {
    Analyzer::with_config(AnalysisConfig {
        jobs,
        ..AnalysisConfig::default()
    })
}

/// Options shared by the file-driven subcommands.
#[derive(Clone, Debug)]
pub struct FileOptions {
    pub path: String,
    pub json: bool,
    /// Procedure to report on (default: sole procedure, else `main`).
    pub procedure: Option<String>,
    /// Cost counter variable (default: global named `cost`, else sole global).
    pub cost_var: Option<String>,
    /// Size parameter (default: first parameter of the chosen procedure).
    pub size_param: Option<String>,
    /// Worker threads for the level-parallel driver (1 = sequential,
    /// 0 = one per core).
    pub jobs: usize,
    /// Persistent summary-cache directory (`--cache-dir`); `None` disables
    /// caching.
    pub cache_dir: Option<String>,
    /// Ignore `cache_dir` even when set (`--no-cache`).
    pub no_cache: bool,
    /// Remote fleet-cache daemons (`--remote-cache ADDR[,ADDR...]`): peer
    /// `chora serve` instances consulted as an L3 tier behind memory and
    /// disk.  `--no-cache` disables this tier too.
    pub remote_cache: Option<String>,
    /// Suppress the stderr cache/timing chatter (`--quiet`); stdout is
    /// unaffected (it never carried the chatter in the first place).
    pub quiet: bool,
    /// Record a span trace of the run and write it as Chrome trace-event
    /// JSON to this path (`--trace-out`).  Never perturbs stdout.
    pub trace_out: Option<String>,
}

impl Default for FileOptions {
    /// Matches the CLI defaults — in particular `jobs: 1` (sequential), the
    /// same default as `AnalysisConfig` and the `--jobs` flag, and no
    /// summary cache.
    fn default() -> Self {
        FileOptions {
            path: String::new(),
            json: false,
            procedure: None,
            cost_var: None,
            size_param: None,
            jobs: 1,
            cache_dir: None,
            no_cache: false,
            remote_cache: None,
            quiet: false,
            trace_out: None,
        }
    }
}

/// Opens the summary store every command runs against: a [`TieredStore`]
/// whose disk tier lives under `cache_dir` and whose remote tier is the
/// `remote_cache` fleet, each when given, sized and aged by `config`.
pub(crate) fn open_store(
    cache_dir: Option<&str>,
    remote_cache: Option<&str>,
    config: TieredConfig,
) -> Result<TieredStore, CliError> {
    let disk = cache_dir
        .map(|dir| {
            DiskStore::open(dir)
                .map_err(|e| CliError(format!("cannot open cache directory `{dir}`: {e}")))
        })
        .transpose()?;
    let remote = remote_cache
        .map(|spec| {
            RemoteStore::from_spec(spec).ok_or_else(|| {
                CliError("--remote-cache expects ADDR[,ADDR...] with at least one address".into())
            })
        })
        .transpose()?;
    Ok(TieredStore::new(disk, remote, config))
}

/// The store of a one-shot command: none under `--no-cache` (which
/// disables every tier, remote included) or when neither `--cache-dir` nor
/// `--remote-cache` names a tier that outlives the run.
fn command_store(
    cache_dir: &Option<String>,
    no_cache: bool,
    remote_cache: &Option<String>,
) -> Result<Option<TieredStore>, CliError> {
    if no_cache || (cache_dir.is_none() && remote_cache.is_none()) {
        return Ok(None);
    }
    open_store(
        cache_dir.as_deref(),
        remote_cache.as_deref(),
        TieredConfig::default(),
    )
    .map(Some)
}

/// Reports the remote-tier counters of `stores`, summed, on **stderr**,
/// mirroring [`report_cache_stats`]: stdout stays byte-identical whether
/// the fleet tier is present, absent, cold, or warm.
fn report_remote(stores: &[TieredStore]) {
    let remotes: Vec<&RemoteStore> = stores.iter().filter_map(TieredStore::remote).collect();
    let Some(first) = remotes.first() else {
        return;
    };
    let total = |count: fn(&RemoteStore) -> u64| remotes.iter().map(|r| count(r)).sum::<u64>();
    let targets = first.addrs().len();
    eprintln!(
        "remote cache: {} hits, {} misses, {} stores, {} errors, {} skipped \
         ({targets} target{})",
        total(RemoteStore::hits),
        total(RemoteStore::misses),
        total(RemoteStore::stores),
        total(RemoteStore::errors),
        total(RemoteStore::skipped),
        if targets == 1 { "" } else { "s" },
    );
}

/// Reports cache counters on **stderr** — never stdout, so cached and
/// uncached runs of the same program stay byte-identical on stdout (which
/// is what the cache-determinism CI job diffs).
fn report_cache_stats(json: bool, stats: Option<&CacheStats>) {
    let Some(stats) = stats else {
        return;
    };
    if json {
        eprintln!(
            "{{\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"gc_evictions\":{}}}}}",
            stats.hits, stats.misses, stats.evictions, stats.gc_evictions
        );
    } else {
        eprintln!("summary cache: {stats}");
    }
}

/// Picks the procedure the report focuses on.
fn resolve_procedure(program: &Program, requested: Option<&str>) -> Result<String, CliError> {
    if let Some(name) = requested {
        if program.procedure(name).is_none() {
            return Err(CliError(format!(
                "no procedure named `{name}` (available: {})",
                program.procedure_names().join(", ")
            )));
        }
        return Ok(name.to_string());
    }
    let names = program.procedure_names();
    match names.as_slice() {
        [] => Err(CliError("program has no procedures".to_string())),
        [only] => Ok(only.clone()),
        _ if names.iter().any(|n| n == "main") => Ok("main".to_string()),
        _ => Err(CliError(format!(
            "program has several procedures; pick one with --proc (available: {})",
            names.join(", ")
        ))),
    }
}

fn resolve_cost_var(program: &Program, requested: Option<&str>) -> Result<Symbol, CliError> {
    if let Some(name) = requested {
        return Ok(Symbol::new(name));
    }
    if program.globals.iter().any(|g| g.to_string() == "cost") {
        return Ok(Symbol::new("cost"));
    }
    match program.globals.as_slice() {
        [only] => Ok(*only),
        _ => Err(CliError(
            "cannot infer the cost counter; pass --cost VAR".to_string(),
        )),
    }
}

fn resolve_size_param(
    program: &Program,
    proc_name: &str,
    requested: Option<&str>,
) -> Result<Symbol, CliError> {
    if let Some(name) = requested {
        return Ok(Symbol::new(name));
    }
    let proc = program
        .procedure(proc_name)
        .expect("procedure resolved earlier");
    match proc.params.first() {
        Some(p) => Ok(*p),
        None => Err(CliError(format!(
            "procedure `{proc_name}` has no parameters; pass --size PARAM"
        ))),
    }
}

/// Renders one report from a finished analysis: [`render_analysis`] or
/// [`render_complexity`].
type Render =
    fn(&str, &Program, &AnalysisResult, &FileOptions, f64) -> Result<(String, i32), CliError>;

/// The one path of the file commands: trace, analyze through the store,
/// report on stderr.
fn file_command(opts: &FileOptions, render: Render) -> Result<(String, i32), CliError> {
    let session = start_trace(&opts.trace_out)?;
    let (output, exit, stats) = run_file(opts, render)?;
    write_trace(session, &opts.trace_out, opts.quiet)?;
    if !opts.quiet {
        report_cache_stats(opts.json, stats.as_ref());
    }
    Ok((output, exit))
}

/// Reads, parses and analyzes the file behind `opts` through the store the
/// options open, reporting the remote tier's counters on stderr.
fn run_file(
    opts: &FileOptions,
    render: Render,
) -> Result<(String, i32, Option<CacheStats>), CliError> {
    let src = read_source(&opts.path)?;
    let store = command_store(&opts.cache_dir, opts.no_cache, &opts.remote_cache)?;
    let program = parse_source(&opts.path, &src)?;
    let dyn_store = store.as_ref().map(|s| s as &dyn SummaryStore);
    let result = run_program(&opts.path, &program, opts, dyn_store, render)?;
    if !opts.quiet {
        report_remote(store.as_slice());
    }
    Ok(result)
}

/// Analyzes `program` through `store` and renders the report; the cache
/// counters come back when a store was given.
fn run_program(
    name: &str,
    program: &Program,
    opts: &FileOptions,
    store: Option<&dyn SummaryStore>,
    render: Render,
) -> Result<(String, i32, Option<CacheStats>), CliError> {
    let started = Instant::now();
    let result = analyzer_with_jobs(opts.jobs).analyze_with_store(program, store);
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let (output, exit) = render(name, program, &result, opts, elapsed_ms)?;
    Ok((output, exit, store.is_some().then_some(result.cache)))
}

/// `chora analyze FILE`: full analysis report — per-procedure summaries,
/// solved bound facts, depth bounds, and assertion verdicts.
///
/// With `--cache-dir`, summary-cache counters go to stderr (see
/// [`analyze_with_stats`] for programmatic access); stdout stays
/// byte-identical with and without the cache.
pub fn analyze(opts: &FileOptions) -> Result<(String, i32), CliError> {
    file_command(opts, render_analysis)
}

/// [`analyze`], additionally returning the cache counters (when a cache
/// directory was configured) instead of printing them.
pub fn analyze_with_stats(
    opts: &FileOptions,
) -> Result<(String, i32, Option<CacheStats>), CliError> {
    run_file(opts, render_analysis)
}

/// The in-memory core of `chora analyze`: program text in, report out.
///
/// `name` is the display name used for the `"file"` field and error
/// rendering (a path for the CLI, the request-supplied name for the
/// server); `store` is any [`SummaryStore`].  The file commands run the
/// same analysis against the [`TieredStore`] their options open, and
/// `chora serve` (through [`analyze_program`]) against its resident one
/// behind a single-flight layer, so the daemon never shells out.
///
/// The analyzer threads its per-component fresh-symbol scope assignment
/// (a [`chora_core::ScopeResolver`]) through every store operation, so
/// entries are independent of the bottom-up component order and restored
/// summaries are rescoped into the current run on load — a daemon's store
/// can therefore serve an unchanged cone to *any* program that contains
/// it, wherever the procedures sit in the file.
pub fn analyze_source(
    name: &str,
    src: &str,
    opts: &FileOptions,
    store: Option<&dyn SummaryStore>,
) -> Result<(String, i32, Option<CacheStats>), CliError> {
    analyze_program(name, &parse_source(name, src)?, opts, store)
}

/// [`analyze_source`] on an already-parsed program — the entry point for
/// callers holding a cached parse (the server's parsed-program cache).
pub fn analyze_program(
    name: &str,
    program: &Program,
    opts: &FileOptions,
    store: Option<&dyn SummaryStore>,
) -> Result<(String, i32, Option<CacheStats>), CliError> {
    run_program(name, program, opts, store, render_analysis)
}

/// Renders the `chora analyze` report from a finished [`AnalysisResult`].
/// Split from the analysis so `/v1/batch` can analyze many programs
/// in one batched driver call and still render each element exactly as a
/// single-shot request would.
pub(crate) fn render_analysis(
    name: &str,
    program: &Program,
    result: &AnalysisResult,
    opts: &FileOptions,
    elapsed_ms: f64,
) -> Result<(String, i32), CliError> {
    // With --proc the report is restricted to that procedure (and its
    // assertions); the analysis itself is always whole-program.
    let focus = match opts.procedure.as_deref() {
        Some(requested) => Some(resolve_procedure(program, Some(requested))?),
        None => None,
    };

    let report_names: Vec<String> = match &focus {
        Some(name) => vec![name.clone()],
        None => program.procedure_names(),
    };
    let assertions: Vec<_> = result
        .assertions
        .iter()
        .filter(|a| focus.as_deref().is_none_or(|f| a.procedure == f))
        .collect();
    let all_verified = assertions.iter().all(|a| a.verified);
    // Exit 1 when an assertion fails to verify, so scripts can gate on it.
    let exit = if all_verified { 0 } else { 1 };

    if opts.json {
        let mut procedures = Vec::new();
        for name in &report_names {
            let Some(summary) = result.summary(name) else {
                continue;
            };
            let mut facts = Vec::new();
            for fact in &summary.bound_facts {
                facts.push(
                    Json::object()
                        .field("term", Json::str(fact.term.to_string()))
                        .field("closed_form", Json::str(fact.closed_form.to_string()))
                        .field(
                            "bound",
                            match &fact.bound {
                                Some(b) => Json::str(b.to_string()),
                                None => Json::Null,
                            },
                        )
                        .field("exact", Json::Bool(fact.exact)),
                );
            }
            procedures.push(
                Json::object()
                    .field("name", Json::str(name.as_str()))
                    .field("recursive", Json::Bool(summary.recursive))
                    .field(
                        "depth_bound",
                        match &summary.depth {
                            Some(d) => Json::str(d.to_term().to_string()),
                            None => Json::Null,
                        },
                    )
                    .field("bound_facts", Json::Array(facts)),
            );
        }
        let assertions: Vec<Json> = assertions
            .iter()
            .map(|a| {
                Json::object()
                    .field("procedure", Json::str(&a.procedure))
                    .field("label", Json::str(&a.label))
                    .field("verified", Json::Bool(a.verified))
            })
            .collect();
        let doc = Json::object()
            .field("file", Json::str(name))
            .field("procedures", Json::Array(procedures))
            .field("assertions", Json::Array(assertions))
            .field("all_assertions_verified", Json::Bool(all_verified))
            .field("analysis_ms", Json::Float(elapsed_ms));
        return Ok((doc.pretty(), exit));
    }

    let mut out = String::new();
    out.push_str(&format!("analyzed {name} in {elapsed_ms:.1} ms\n\n"));
    for name in &report_names {
        let Some(summary) = result.summary(name) else {
            continue;
        };
        let kind = if summary.recursive {
            "recursive"
        } else {
            "non-recursive"
        };
        out.push_str(&format!("procedure {name} ({kind})\n"));
        if let Some(depth) = &summary.depth {
            out.push_str(&format!("  depth bound: {}\n", depth.to_term()));
        }
        for fact in &summary.bound_facts {
            let exact = if fact.exact { "exact" } else { "over-approx" };
            out.push_str(&format!(
                "  bound fact ({exact}): {} <= {}\n",
                fact.term, fact.closed_form
            ));
            if let Some(bound) = &fact.bound {
                out.push_str(&format!("    at depth bound: {bound}\n"));
            }
        }
        out.push('\n');
    }
    if assertions.is_empty() {
        out.push_str("no assertions\n");
    } else {
        for a in &assertions {
            let verdict = if a.verified { "verified" } else { "NOT PROVED" };
            out.push_str(&format!(
                "assert [{}] {}: {verdict}\n",
                a.procedure, a.label
            ));
        }
        out.push_str(&format!(
            "\n{}\n",
            if all_verified {
                "all assertions verified"
            } else {
                "some assertions were not proved"
            }
        ));
    }
    Ok((out, exit))
}

/// `chora complexity FILE`: resource-bound extraction — the Table 1 view of
/// one procedure.
pub fn complexity_cmd(opts: &FileOptions) -> Result<(String, i32), CliError> {
    file_command(opts, render_complexity)
}

/// The `chora complexity` counterpart of [`analyze_program`].
pub fn complexity_program(
    name: &str,
    program: &Program,
    opts: &FileOptions,
    store: Option<&dyn SummaryStore>,
) -> Result<(String, i32, Option<CacheStats>), CliError> {
    run_program(name, program, opts, store, render_complexity)
}

/// Renders the `chora complexity` report from a finished
/// [`AnalysisResult`] — see [`render_analysis`].
pub(crate) fn render_complexity(
    name: &str,
    program: &Program,
    result: &AnalysisResult,
    opts: &FileOptions,
    elapsed_ms: f64,
) -> Result<(String, i32), CliError> {
    let proc_name = resolve_procedure(program, opts.procedure.as_deref())?;
    let cost = resolve_cost_var(program, opts.cost_var.as_deref())?;
    let size = resolve_size_param(program, &proc_name, opts.size_param.as_deref())?;

    let summary = result
        .summary(&proc_name)
        .ok_or_else(|| CliError(format!("no summary computed for `{proc_name}`")))?;
    let (bound, class) = complexity::table1_row(summary, &cost, &size);
    let exit = if matches!(class, ComplexityClass::NoBound) {
        1
    } else {
        0
    };

    if opts.json {
        let doc = Json::object()
            .field("file", Json::str(name))
            .field("procedure", Json::str(&proc_name))
            .field("cost_var", Json::str(cost.to_string()))
            .field("size_param", Json::str(size.to_string()))
            .field(
                "bound",
                match &bound {
                    Some(b) => Json::str(b.to_string()),
                    None => Json::Null,
                },
            )
            .field("class", Json::str(class.to_string()))
            .field("analysis_ms", Json::Float(elapsed_ms));
        return Ok((doc.pretty(), exit));
    }

    let mut out = String::new();
    out.push_str(&format!(
        "{name}: procedure {proc_name}, cost {cost}, size {size}\n"
    ));
    match &bound {
        Some(b) => out.push_str(&format!("  bound: {cost}' <= {b}\n")),
        None => out.push_str("  bound: none found\n"),
    }
    out.push_str(&format!("  class: {class}\n"));
    out.push_str(&format!("  analysis time: {elapsed_ms:.1} ms\n"));
    Ok((out, exit))
}

/// Options for `chora bench`.
#[derive(Clone, Debug)]
pub struct BenchOptions {
    pub json: bool,
    /// Substring filter on benchmark names.
    pub filter: Option<String>,
    /// Worker threads per analysis (1 = sequential, 0 = one per core).
    pub jobs: usize,
    /// Optional directory of `.imp` programs to analyze and time in
    /// addition to the built-in suites.
    pub programs_dir: Option<String>,
    /// Summary-cache directory: programs are analyzed twice (cold, then
    /// warm) and both wall-clocks are reported.
    pub cache_dir: Option<String>,
    /// Ignore `cache_dir` even when set.
    pub no_cache: bool,
    /// Remote fleet-cache daemons consulted as an L3 tier — see
    /// [`FileOptions::remote_cache`].
    pub remote_cache: Option<String>,
    /// Benchmark through a live in-process `chora serve` daemon instead of
    /// calling the library: requests/sec cold vs warm over real HTTP
    /// (`bench --server DIR`).
    pub server: bool,
    /// Record a span trace of the whole bench run and write it as Chrome
    /// trace-event JSON to this path (`--trace-out`).
    pub trace_out: Option<String>,
}

impl Default for BenchOptions {
    /// Matches the CLI defaults — in particular `jobs: 1` (sequential).
    fn default() -> Self {
        BenchOptions {
            json: false,
            filter: None,
            jobs: 1,
            programs_dir: None,
            cache_dir: None,
            no_cache: false,
            remote_cache: None,
            server: false,
            trace_out: None,
        }
    }
}

impl BenchOptions {
    /// Whether `--filter` keeps the benchmark or program called `name`.
    fn keeps(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// The `.imp` programs directly under `dir` that `--filter` keeps, as
    /// `(name, path)` sorted by path; the name is the file stem.
    pub(crate) fn programs_in(&self, dir: &str) -> Result<Vec<(String, String)>, CliError> {
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| CliError(format!("cannot read directory `{dir}`: {e}")))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "imp"))
            .collect();
        paths.sort();
        Ok(paths
            .into_iter()
            .filter_map(|path| {
                let display = path.display().to_string();
                let name = path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| display.clone());
                self.keeps(&name).then_some((name, display))
            })
            .collect())
    }
}

/// One timed program row of `chora bench [DIR]`.
struct ProgramRow {
    name: String,
    procedures: usize,
    verified: bool,
    parse_ms: f64,
    analysis_ms: f64,
    timings: chora_core::PhaseTimings,
    /// `(warm wall-clock, warm cache counters)` when a cache directory is
    /// configured; `analysis_ms` is then the *cold* run.
    warm: Option<(f64, CacheStats)>,
}

/// `chora bench`: reruns the paper's built-in benchmark suites (Table 1
/// complexity rows and the Table 2 / Fig. 3 assertion benchmarks) with
/// CHORA-rs, the ICRA-style baseline and the paper's verdicts side by
/// side, and CHORA-rs wall-clock timings.
pub fn bench(opts: &BenchOptions) -> Result<(String, i32), CliError> {
    let session = start_trace(&opts.trace_out)?;
    let result = if opts.server {
        crate::serve::bench_server(opts)
    } else {
        bench_local(opts)
    };
    write_trace(session, &opts.trace_out, false)?;
    result
}

/// The library-call (non `--server`) body of [`bench`].
fn bench_local(opts: &BenchOptions) -> Result<(String, i32), CliError> {
    let analyzer = analyzer_with_jobs(opts.jobs);
    let keep = |name: &str| opts.keeps(name);
    let rows = chora_bench::complexity_rows(&analyzer, keep);
    let assertion_rows = chora_bench::assertion_rows(&analyzer, keep);

    // Optional directory of .imp programs: parse + analyze each, with
    // per-phase wall-clock timings — the on-disk counterpart of the
    // built-in suites.  With --cache-dir every program is analyzed twice
    // (cold, then warm) so the cache win is directly visible.  Each warm
    // run opens a fresh store, as a second invocation would: it reads what
    // outlives a run (disk or fleet hits), never the cold run's memory.
    // `stores[0]` is the cold runs' store; the warm ones follow.
    let open = || command_store(&opts.cache_dir, opts.no_cache, &opts.remote_cache);
    let mut stores: Vec<TieredStore> = open()?.into_iter().collect();
    let mut program_rows: Vec<ProgramRow> = Vec::new();
    if let Some(dir) = &opts.programs_dir {
        for (name, path) in opts.programs_in(dir)? {
            let parse_started = Instant::now();
            let program = read_and_parse(&path)?;
            let parse_ms = parse_started.elapsed().as_secs_f64() * 1e3;
            let started = Instant::now();
            let cold_store = stores.first().map(|s| s as &dyn SummaryStore);
            let result = analyzer.analyze_with_store(&program, cold_store);
            let analysis_ms = started.elapsed().as_secs_f64() * 1e3;
            let warm = match open()? {
                Some(warm_store) => {
                    let warm_started = Instant::now();
                    let warm_result = analyzer.analyze_with_store(&program, Some(&warm_store));
                    let warm_ms = warm_started.elapsed().as_secs_f64() * 1e3;
                    stores.push(warm_store);
                    Some((warm_ms, warm_result.cache))
                }
                None => None,
            };
            program_rows.push(ProgramRow {
                name,
                procedures: result.summaries.len(),
                verified: result.all_assertions_verified(),
                parse_ms,
                analysis_ms,
                timings: result.timings,
                warm,
            });
        }
    }

    report_remote(&stores);

    if rows.is_empty() && assertion_rows.is_empty() && program_rows.is_empty() {
        return Err(CliError(format!(
            "no benchmark matches filter `{}`",
            opts.filter.as_deref().unwrap_or("")
        )));
    }

    if opts.json {
        let complexity_json: Vec<Json> = rows
            .iter()
            .map(|row| {
                let b = &row.bench;
                Json::object()
                    .field("name", Json::str(b.name))
                    .field("actual", Json::str(b.actual))
                    .field("class", Json::str(row.chora.to_string()))
                    .field("icra_class", Json::str(row.icra.to_string()))
                    .field("paper_chora", Json::str(b.paper_chora))
                    .field("paper_icra", Json::str(b.paper_icra))
                    .field("analysis_ms", Json::Float(row.analysis_ms))
            })
            .collect();
        let assertion_json: Vec<Json> = assertion_rows
            .iter()
            .map(|row| {
                let b = &row.bench;
                Json::object()
                    .field("name", Json::str(b.name))
                    .field("suite", Json::str(b.suite))
                    .field("verified", Json::Bool(row.chora))
                    .field("icra_verified", Json::Bool(row.icra))
                    .field("paper_chora", Json::Bool(b.paper_chora))
                    .field("paper_icra", Json::Bool(b.paper_icra))
                    .field("paper_ua", Json::Bool(b.paper_ua))
                    .field("paper_utaipan", Json::Bool(b.paper_utaipan))
                    .field("paper_viap", Json::Bool(b.paper_viap))
                    .field("analysis_ms", Json::Float(row.analysis_ms))
                    .field("phases", phases_json(None, &row.phases))
            })
            .collect();
        let program_json: Vec<Json> = program_rows
            .iter()
            .map(|row| {
                let mut doc = Json::object()
                    .field("name", Json::str(&row.name))
                    .field("procedures", Json::Int(row.procedures as i64))
                    .field("all_assertions_verified", Json::Bool(row.verified))
                    .field("analysis_ms", Json::Float(row.analysis_ms))
                    .field("phases", phases_json(Some(row.parse_ms), &row.timings));
                if let Some((warm_ms, cache)) = &row.warm {
                    doc = doc
                        .field("cold_ms", Json::Float(row.analysis_ms))
                        .field("warm_ms", Json::Float(*warm_ms))
                        .field(
                            "warm_cache",
                            Json::object()
                                .field("hits", Json::Int(cache.hits as i64))
                                .field("misses", Json::Int(cache.misses as i64))
                                .field("evictions", Json::Int(cache.evictions as i64)),
                        );
                }
                doc
            })
            .collect();
        let doc = Json::object()
            .field("complexity", Json::Array(complexity_json))
            .field("assertions", Json::Array(assertion_json))
            .field("programs", Json::Array(program_json));
        return Ok((doc.pretty(), 0));
    }

    let mut out = String::new();
    if !rows.is_empty() {
        out.push_str(&format!(
            "{:<14} {:<14} {:<14} {:<14} {:<14} {:<12} {:>10}\n",
            "benchmark", "actual", "CHORA-rs", "ICRA-rs", "paper CHORA", "paper ICRA", "time"
        ));
        for row in &rows {
            let b = &row.bench;
            out.push_str(&format!(
                "{:<14} {:<14} {:<14} {:<14} {:<14} {:<12} {:>8.1}ms\n",
                b.name,
                b.actual,
                row.chora.to_string(),
                row.icra.to_string(),
                b.paper_chora,
                b.paper_icra,
                row.analysis_ms
            ));
        }
    }
    if !assertion_rows.is_empty() {
        if !rows.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!(
            "{:<18} {:<7} {:<9} {:<9} {:<12} {:<11} {:<7} {:<8} {:<7} {:>10}  {}\n",
            "assertion bench",
            "suite",
            "CHORA-rs",
            "ICRA-rs",
            "paper CHORA",
            "paper ICRA",
            "UA",
            "UTaipan",
            "VIAP",
            "time",
            "phases (summ/solve/check)"
        ));
        let mark = |proved: bool| if proved { "proved" } else { "n.p." };
        for row in &assertion_rows {
            let (b, t) = (&row.bench, &row.phases);
            out.push_str(&format!(
                "{:<18} {:<7} {:<9} {:<9} {:<12} {:<11} {:<7} {:<8} {:<7} {:>8.1}ms  {:.1}/{:.1}/{:.1}ms\n",
                b.name,
                b.suite,
                mark(row.chora),
                mark(row.icra),
                mark(b.paper_chora),
                mark(b.paper_icra),
                mark(b.paper_ua),
                mark(b.paper_utaipan),
                mark(b.paper_viap),
                row.analysis_ms,
                t.summarize_ms,
                t.solve_ms,
                t.check_ms
            ));
        }
        out.push('\n');
        let mut suites: Vec<&str> = assertion_rows.iter().map(|r| r.bench.suite).collect();
        suites.dedup();
        for suite in suites {
            let in_suite: Vec<&chora_bench::AssertionRow> = assertion_rows
                .iter()
                .filter(|r| r.bench.suite == suite)
                .collect();
            let count = |proved: fn(&chora_bench::AssertionRow) -> bool| {
                in_suite.iter().filter(|r| proved(r)).count()
            };
            out.push_str(&format!(
                "{suite}: CHORA-rs proves {} of {}, ICRA-rs {}; paper: CHORA {}, ICRA {}, \
                 UA {}, UTaipan {}, VIAP {}\n",
                count(|r| r.chora),
                in_suite.len(),
                count(|r| r.icra),
                count(|r| r.bench.paper_chora),
                count(|r| r.bench.paper_icra),
                count(|r| r.bench.paper_ua),
                count(|r| r.bench.paper_utaipan),
                count(|r| r.bench.paper_viap)
            ));
        }
    }
    if !program_rows.is_empty() {
        if !rows.is_empty() || !assertion_rows.is_empty() {
            out.push('\n');
        }
        let cached = program_rows.iter().any(|r| r.warm.is_some());
        let time_heading = if cached { "cold" } else { "time" };
        out.push_str(&format!(
            "{:<18} {:<12} {:<12} {:>10}  {}\n",
            "program", "procedures", "assertions", time_heading, "phases (parse/summ/solve/check)"
        ));
        for row in &program_rows {
            let v = if row.verified { "verified" } else { "n.p." };
            out.push_str(&format!(
                "{:<18} {:<12} {v:<12} {:>8.1}ms  {:.1}/{:.1}/{:.1}/{:.1}ms",
                row.name,
                row.procedures,
                row.analysis_ms,
                row.parse_ms,
                row.timings.summarize_ms,
                row.timings.solve_ms,
                row.timings.check_ms
            ));
            if let Some((warm_ms, cache)) = &row.warm {
                out.push_str(&format!(
                    "  warm {warm_ms:.1}ms ({} hits, {} misses)",
                    cache.hits, cache.misses
                ));
            }
            out.push('\n');
        }
    }
    Ok((out, 0))
}

/// The per-phase timing object of one bench row.
fn phases_json(parse_ms: Option<f64>, t: &chora_core::PhaseTimings) -> Json {
    let mut doc = Json::object();
    if let Some(parse_ms) = parse_ms {
        doc = doc.field("parse_ms", Json::Float(parse_ms));
    }
    doc.field("summarize_ms", Json::Float(t.summarize_ms))
        .field("solve_ms", Json::Float(t.solve_ms))
        .field("check_ms", Json::Float(t.check_ms))
}

/// `chora print FILE`: parse and pretty-print back (the round-trip surface).
pub fn print_cmd(path: &str) -> Result<(String, i32), CliError> {
    let program = read_and_parse(path)?;
    Ok((crate::printer::print_program(&program), 0))
}
