//! End-to-end tests of `chora serve`: byte-identity of daemon responses
//! against the CLI documents, the in-memory warm path, error envelopes,
//! hostile bodies, concurrent clients, graceful shutdown draining, batch
//! vs single-shot byte-identity, and eviction under a byte cap never
//! corrupting a response.
//!
//! Every test runs its own daemon on an ephemeral port via
//! [`chora_cli::spawn_server`] and talks real HTTP through the bundled
//! client.

use chora_cli::json::Json;
use chora_cli::{analyze_with_stats, spawn_server, FileOptions, ServeOptions};
use chora_server::client::Client;
use chora_server::http::encode_query_component;
use std::path::PathBuf;

fn example(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/programs")
        .join(name)
        .display()
        .to_string()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chora-server-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One request on a fresh connection (most tests don't care about reuse;
/// `crates/server/tests/keepalive.rs` covers the connection lifecycle).
fn one_shot(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    Client::new(addr).send(method, path, body)
}

/// Drops wall-clock fields so byte-identity checks compare analysis
/// content only.
fn strip_timing(out: &str) -> String {
    out.lines()
        .filter(|l| !l.contains("analysis_ms"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The `chora analyze --json` reference document for a program.
fn cli_reference(path: &str, jobs: usize) -> String {
    let (out, _, _) = analyze_with_stats(&FileOptions {
        path: path.to_string(),
        json: true,
        jobs,
        quiet: true,
        ..FileOptions::default()
    })
    .expect("CLI analyze");
    out
}

/// Ephemeral-port daemon with the given store options.
fn daemon(
    opts: ServeOptions,
) -> (
    chora_server::ServerHandle,
    std::sync::Arc<chora_cli::AnalysisService>,
) {
    spawn_server(&ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        quiet: true,
        ..opts
    })
    .expect("spawn daemon")
}

/// POSTs an explicit source under an explicit display name.
fn post_source(addr: &str, file: &str, source: &str, extra_query: &str) -> (u16, String) {
    let path = format!(
        "/v1/analyze?file={}{extra_query}",
        encode_query_component(file)
    );
    one_shot(addr, "POST", &path, Some(source)).expect("request")
}

fn post_analyze(addr: &str, file: &str, extra_query: &str) -> (u16, String) {
    let source = std::fs::read_to_string(file).expect("read example");
    post_source(addr, file, &source, extra_query)
}

/// Pulls one integer counter out of the `/v1/stats` JSON.
fn stat(addr: &str, name: &str) -> u64 {
    let (status, body) = one_shot(addr, "GET", "/v1/stats", None).expect("stats");
    assert_eq!(status, 200, "{body}");
    let needle = format!("\"{name}\": ");
    let at = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no {name} in:\n{body}"));
    body[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("counter value")
}

#[test]
fn analyze_responses_are_byte_identical_to_the_cli_cold_and_warm() {
    let dir = scratch("identity");
    let (handle, _service) = daemon(ServeOptions {
        cache_dir: Some(dir.join("cache").display().to_string()),
        ..ServeOptions::default()
    });
    let addr = handle.addr().to_string();
    for name in ["fib.imp", "hanoi.imp", "merge-sort.imp", "height.imp"] {
        let file = example(name);
        for jobs in [1usize, 4] {
            let reference = strip_timing(&cli_reference(&file, jobs));
            let query = format!("&jobs={jobs}");
            let (status, cold) = post_analyze(&addr, &file, &query);
            assert_eq!(status, 200, "{cold}");
            let (status, warm) = post_analyze(&addr, &file, &query);
            assert_eq!(status, 200, "{warm}");
            assert_eq!(
                strip_timing(&cold),
                reference,
                "cold {name} (jobs={jobs}) must match the CLI document"
            );
            assert_eq!(
                strip_timing(&warm),
                reference,
                "warm {name} (jobs={jobs}) must match the CLI document"
            );
        }
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_responses_match_the_checked_in_goldens_cold_and_warm() {
    // The small-integer numeric fast path is an *exact* optimization: the
    // daemon's documents — cold and response-cache warm — must stay
    // byte-identical (timing stripped) to the goldens recorded before the
    // fast path landed.
    let (handle, _service) = daemon(ServeOptions::default());
    let addr = handle.addr().to_string();
    for name in ["fib", "hanoi", "merge-sort", "height"] {
        let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/goldens")
            .join(format!("{name}.analyze.json"));
        let golden = std::fs::read_to_string(&golden_path).expect("read golden");
        let source = std::fs::read_to_string(example(&format!("{name}.imp"))).expect("read");
        // The goldens were recorded by running the CLI from the repo root,
        // so the daemon is given the same repo-relative display name.
        let file = format!("examples/programs/{name}.imp");
        let (status, cold) = post_source(&addr, &file, &source, "");
        assert_eq!(status, 200, "{cold}");
        let (status, warm) = post_source(&addr, &file, &source, "");
        assert_eq!(status, 200, "{warm}");
        assert_eq!(
            strip_timing(&cold),
            strip_timing(&golden),
            "cold {name} diverged from the pre-fast-path golden"
        );
        assert_eq!(
            strip_timing(&warm),
            strip_timing(&golden),
            "warm {name} diverged from the pre-fast-path golden"
        );
    }
    handle.shutdown();
}

#[test]
fn warm_requests_are_served_from_the_memory_tier() {
    let dir = scratch("warmpath");
    let (handle, _service) = daemon(ServeOptions {
        cache_dir: Some(dir.join("cache").display().to_string()),
        ..ServeOptions::default()
    });
    let addr = handle.addr().to_string();
    let file = example("fib.imp");
    let source = std::fs::read_to_string(&file).expect("read example");
    let (status, _) = post_source(&addr, &file, &source, "");
    assert_eq!(status, 200);
    let probes_after_cold = stat(&addr, "disk_probes");
    let mem_hits_after_cold = stat(&addr, "mem_hits");
    let response_hits_after_cold = stat(&addr, "response_hits");

    // Byte-identical repeats are fully warm: the rendered-response cache
    // answers before the summary store is even probed (and the parse
    // cache registers the hit that precedes it).
    for _ in 0..3 {
        let (status, _) = post_source(&addr, &file, &source, "");
        assert_eq!(status, 200);
    }
    assert_eq!(
        stat(&addr, "response_hits"),
        response_hits_after_cold + 3,
        "identical repeats must be served from the response cache"
    );
    assert_eq!(
        stat(&addr, "mem_hits"),
        mem_hits_after_cold,
        "identical repeats must not reach the summary store at all"
    );
    assert!(
        stat(&addr, "parse_hits") >= 3,
        "repeats share the parsed program"
    );

    // An edited source — new bytes, same program (a trailing comment) —
    // misses both request caches and re-analyzes, but every procedure
    // summary comes out of the store's memory tier, never the disk.
    for round in 0..3 {
        let edited = format!("{source}\n// warm round {round}\n");
        let (status, _) = post_source(&addr, &file, &edited, "");
        assert_eq!(status, 200);
    }
    assert_eq!(
        stat(&addr, "disk_probes"),
        probes_after_cold,
        "warm re-analyses must perform 0 disk reads"
    );
    assert!(
        stat(&addr, "mem_hits") > mem_hits_after_cold,
        "warm re-analyses must hit the memory tier"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_responses_are_byte_identical_to_single_shot_sequences() {
    let names = ["fib.imp", "hanoi.imp", "merge-sort.imp", "height.imp"];

    // One daemon answers each program single-shot...
    let (singles_handle, _singles_service) = daemon(ServeOptions::default());
    let singles_addr = singles_handle.addr().to_string();
    let mut singles = Vec::new();
    for name in &names {
        let (status, body) = post_analyze(&singles_addr, &example(name), "");
        assert_eq!(status, 200, "{body}");
        singles.push(body);
    }
    singles_handle.shutdown();

    // ... and a *fresh* daemon (nothing precomputed, so the batch driver
    // does all the work) answers the same programs as one /v1/batch.
    let (batch_handle, _batch_service) = daemon(ServeOptions::default());
    let batch_addr = batch_handle.addr().to_string();
    let elements: Vec<Json> = names
        .iter()
        .map(|name| {
            let file = example(name);
            let source = std::fs::read_to_string(&file).expect("read example");
            Json::object()
                .field("file", Json::str(file.as_str()))
                .field("source", Json::str(source))
        })
        .collect();
    let body = Json::Array(elements).pretty();
    let (status, batch) = one_shot(&batch_addr, "POST", "/v1/batch", Some(&body)).expect("batch");
    assert_eq!(status, 200, "{batch}");

    let expected = format!(
        "[\n{}\n]\n",
        singles
            .iter()
            .map(|doc| doc.trim_end_matches('\n'))
            .collect::<Vec<_>>()
            .join(",\n")
    );
    assert_eq!(
        strip_timing(&batch),
        strip_timing(&expected),
        "each batch element must be byte-identical to its single-shot response"
    );

    // An identical second batch is answered entirely from the response
    // cache — byte-for-byte, timing lines included.
    let (status, again) =
        one_shot(&batch_addr, "POST", "/v1/batch", Some(&body)).expect("batch again");
    assert_eq!(status, 200);
    assert_eq!(again, batch, "a warm batch replays the cached documents");
    assert!(
        stat(&batch_addr, "response_hits") >= names.len() as u64,
        "warm batch elements must hit the response cache"
    );

    // An element that fails to parse becomes an inline error envelope;
    // the batch itself still succeeds with index-aligned responses.
    let fib = std::fs::read_to_string(example("fib.imp")).expect("read example");
    let broken = Json::Array(vec![Json::str("broken {"), Json::str(fib.as_str())]).pretty();
    let (status, out) =
        one_shot(&batch_addr, "POST", "/v1/batch", Some(&broken)).expect("broken batch");
    assert_eq!(status, 200, "{out}");
    assert!(out.starts_with("[\n{\"error\": "), "{out}");
    assert!(out.contains("\"procedures\""), "{out}");
    batch_handle.shutdown();
}

#[test]
fn batch_elements_decode_surrogate_pairs_like_single_shot_names() {
    let name = "\u{1f600}.imp";
    let source = std::fs::read_to_string(example("fib.imp")).expect("read example");
    let (single_handle, _single_service) = daemon(ServeOptions::default());
    let (status, single) = post_source(&single_handle.addr().to_string(), name, &source, "");
    assert_eq!(status, 200, "{single}");
    assert!(single.contains(name), "{single}");
    single_handle.shutdown();

    // The element as Python's `json.dumps` writes it: the non-BMP
    // character escaped as a UTF-16 surrogate pair.
    let body = format!(
        "[{{\"file\": \"\\ud83d\\ude00.imp\", \"source\": {}}}]",
        Json::str(source).compact()
    );
    let (batch_handle, _batch_service) = daemon(ServeOptions::default());
    let (status, batch) = one_shot(
        &batch_handle.addr().to_string(),
        "POST",
        "/v1/batch",
        Some(&body),
    )
    .expect("batch");
    assert_eq!(status, 200, "{batch}");
    assert_eq!(
        strip_timing(&batch),
        strip_timing(&format!("[\n{}\n]\n", single.trim_end_matches('\n')))
    );
    batch_handle.shutdown();
}

#[test]
fn batch_documents_are_independent_of_the_jobs_parameter() {
    // The ready-queue scheduler merges every program of a batch into one
    // task graph; whatever `?jobs=N` asks for, the canonical fold order
    // must render byte-identical documents.  Each worker count gets a
    // fresh daemon so nothing is replayed from a response cache.
    let names = ["fib.imp", "hanoi.imp", "merge-sort.imp", "height.imp"];
    let elements: Vec<Json> = names
        .iter()
        .map(|name| {
            let file = example(name);
            let source = std::fs::read_to_string(&file).expect("read example");
            Json::object()
                .field("file", Json::str(file.as_str()))
                .field("source", Json::str(source))
        })
        .collect();
    let body = Json::Array(elements).pretty();
    let mut documents = Vec::new();
    for jobs in [1usize, 2, 8] {
        let (handle, _service) = daemon(ServeOptions::default());
        let addr = handle.addr().to_string();
        let path = format!("/v1/batch?jobs={jobs}");
        let (status, out) = one_shot(&addr, "POST", &path, Some(&body)).expect("batch");
        assert_eq!(status, 200, "{out}");
        documents.push((jobs, strip_timing(&out)));
        handle.shutdown();
    }
    let (_, reference) = &documents[0];
    for (jobs, doc) in &documents[1..] {
        assert_eq!(
            doc, reference,
            "/v1/batch?jobs={jobs} must match the jobs=1 documents"
        );
    }
}

#[test]
fn malformed_requests_get_json_error_envelopes() {
    let (handle, _service) = daemon(ServeOptions::default());
    let addr = handle.addr().to_string();

    // Unparseable source: 400 with the parser's rendering in the envelope.
    let (status, body) =
        one_shot(&addr, "POST", "/v1/analyze", Some("definitely not imp")).expect("request");
    assert_eq!(status, 400);
    assert!(body.starts_with("{\"error\": "), "{body}");

    // Unknown query parameter: 400.
    let (status, body) =
        one_shot(&addr, "POST", "/v1/analyze?wibble=1", Some("global cost;")).expect("request");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown query parameter"), "{body}");

    // Unknown endpoint: 404; wrong method: 405 — all JSON envelopes.
    let (status, body) = one_shot(&addr, "GET", "/v2/nope", None).expect("request");
    assert_eq!(status, 404);
    assert!(body.contains("\"error\""), "{body}");
    let (status, body) = one_shot(&addr, "GET", "/v1/analyze", None).expect("request");
    assert_eq!(status, 405);
    assert!(body.contains("\"error\""), "{body}");

    // Raw protocol garbage: still an orderly 400, never a hung socket.
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream.write_all(b"NONSENSE\r\n\r\n").expect("write");
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");

    // Conflicting duplicate Content-Length headers: 400 with a JSON
    // envelope (first-wins would be a request-smuggling hazard).
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(
            b"POST /v1/analyze HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\
              Content-Length: 2\r\nConnection: close\r\n\r\nabcd",
        )
        .expect("write");
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(
        response.contains("conflicting duplicate Content-Length"),
        "{response}"
    );

    // ... while duplicates that agree are harmless.
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(
            b"POST /v1/healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\
              Content-Length: 0\r\nConnection: close\r\n\r\n",
        )
        .expect("write");
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    assert!(
        response.starts_with("HTTP/1.1 405") || response.starts_with("HTTP/1.1 200"),
        "agreeing duplicates must not 400: {response}"
    );

    handle.shutdown();
}

#[test]
fn deeply_nested_bodies_get_400_and_the_daemon_keeps_serving() {
    let (handle, _service) = daemon(ServeOptions::default());
    let addr = handle.addr().to_string();
    // Without a nesting bound, parsing this overflows the worker's stack
    // and aborts the whole process.
    let deep = "[".repeat(200_000);
    let (status, body) = one_shot(&addr, "POST", "/v1/batch", Some(&deep)).expect("batch");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting deeper than"), "{body}");
    let put = "/v1/summaries/0123456789abcdef0123456789abcdef";
    let (status, body) = one_shot(&addr, "PUT", put, Some(&deep)).expect("put");
    assert_eq!(status, 400, "{body}");
    let (status, body) = one_shot(&addr, "GET", "/v1/healthz", None).expect("healthz");
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}

#[test]
fn concurrent_clients_all_get_correct_responses() {
    let dir = scratch("concurrent");
    let (handle, _service) = daemon(ServeOptions {
        jobs: 4,
        cache_dir: Some(dir.join("cache").display().to_string()),
        ..ServeOptions::default()
    });
    let addr = handle.addr().to_string();
    let names = ["fib.imp", "hanoi.imp", "merge-sort.imp"];
    let references: Vec<String> = names
        .iter()
        .map(|n| strip_timing(&cli_reference(&example(n), 1)))
        .collect();

    let results: Vec<(usize, u16, String)> = std::thread::scope(|scope| {
        let addr = &addr;
        (0..9)
            .map(|i| {
                scope.spawn(move || {
                    let (status, body) = post_analyze(addr, &example(names[i % 3]), "");
                    (i % 3, status, body)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });
    for (which, status, body) in results {
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            strip_timing(&body),
            references[which],
            "concurrent response for {} diverged",
            names[which]
        );
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let (handle, _service) = daemon(ServeOptions {
        jobs: 2,
        ..ServeOptions::default()
    });
    let addr = handle.addr().to_string();
    let file = example("merge-sort.imp");
    let reference = strip_timing(&cli_reference(&file, 1));

    let responses: Vec<(u16, String)> = std::thread::scope(|scope| {
        let addr = &addr;
        let file = &file;
        let clients: Vec<_> = (0..6)
            .map(|i| {
                scope.spawn(move || {
                    // Distinct trailing comments keep every in-flight
                    // request a real analysis (no response-cache hits),
                    // so the drain has actual work to finish.
                    let source = std::fs::read_to_string(file).expect("read example");
                    let edited = format!("{source}\n// drain client {i}\n");
                    post_source(addr, file, &edited, "")
                })
            })
            .collect();
        // Let the clients connect and queue up on the two workers, then
        // ask the daemon to shut down while their analyses are in flight.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let (status, body) = one_shot(addr, "POST", "/v1/shutdown", None).expect("shutdown");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"draining\": true"), "{body}");
        clients
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });
    for (status, body) in responses {
        assert_eq!(status, 200, "in-flight work must be drained, got: {body}");
        assert_eq!(strip_timing(&body), reference, "drained response diverged");
    }
    handle.shutdown(); // Joins the already-stopping daemon.
    assert!(
        one_shot(&addr, "GET", "/v1/healthz", None).is_err(),
        "daemon must be gone after the drain"
    );
}

#[test]
fn metrics_stats_and_traced_requests_expose_the_telemetry_surface() {
    let (handle, _service) = daemon(ServeOptions::default());
    let addr = handle.addr().to_string();
    let file = example("fib.imp");
    let (status, _) = post_analyze(&addr, &file, "");
    assert_eq!(status, 200);

    // /v1/metrics speaks the Prometheus text format: HELP/TYPE comments,
    // then `name{labels} value` samples, including the request counters the
    // analyze call above just bumped.
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"GET /v1/metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .expect("write");
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(
        raw.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "metrics must use the Prometheus content type: {raw}"
    );
    let body = raw.split("\r\n\r\n").nth(1).expect("metrics body");
    for needle in [
        "# HELP chora_http_requests_total",
        "# TYPE chora_http_requests_total counter",
        "chora_http_requests_total{endpoint=\"/v1/analyze\",class=\"2xx\"}",
        "chora_analyses_total",
        "chora_fm_rows_generated_total",
        "chora_fm_emptiness_checks_total",
        "chora_fm_emptiness_memo_hits_total",
        "chora_fm_emptiness_witnesses_total",
        "chora_fm_overflow_restarts_total",
        "chora_fm_budget_drops_total",
        "chora_process_start_time_ms",
    ] {
        assert!(body.contains(needle), "missing `{needle}` in:\n{body}");
    }
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let value = line.rsplit(' ').next().expect("sample value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample line: {line}"
        );
    }

    // /v1/stats carries the new lifecycle fields alongside the counters.
    let (status, stats) = one_shot(&addr, "GET", "/v1/stats", None).expect("stats");
    assert_eq!(status, 200, "{stats}");
    for field in [
        "\"started_unix_ms\": ",
        "\"gc\": ",
        "\"evicted_bytes\": ",
        "\"emptiness_memo_hits\": ",
        "\"emptiness_witnesses\": ",
        "\"overflow_restarts\": ",
        "\"budget_drops\": ",
    ] {
        assert!(stats.contains(field), "missing {field} in:\n{stats}");
    }

    // ?trace=1 splices a Chrome trace into the document without perturbing
    // the analysis content.  A program the daemon has not seen yet runs
    // cold, so the trace records the real phase spans; the traced response
    // bypasses the response cache in both directions, so the plain repeat
    // that follows is trace-free.
    let fresh = example("hanoi.imp");
    let (status, traced) = post_analyze(&addr, &fresh, "&trace=1");
    assert_eq!(status, 200, "{traced}");
    assert!(traced.contains("\"trace\": {\"traceEvents\":["), "{traced}");
    assert!(traced.contains("\"name\":\"summarize\""), "{traced}");
    let (status, plain) = post_analyze(&addr, &fresh, "");
    assert_eq!(status, 200);
    assert!(
        !plain.contains("\"traceEvents\""),
        "a traced document must never be cached: {plain}"
    );
    let strip_trace = |doc: &str| {
        strip_timing(doc)
            .lines()
            .filter(|l| !l.contains("\"trace\": "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip_trace(&traced).replace(",\n", "\n"),
        strip_trace(&plain).replace(",\n", "\n"),
        "the traced document must carry the same analysis content"
    );
    handle.shutdown();
}

#[test]
fn a_byte_capped_store_evicts_without_ever_corrupting_a_response() {
    let dir = scratch("capped");
    // A cap far below the working set (4 programs ≈ several KiB of
    // entries): the memory tier thrashes, the disk tier backs it up.
    let (handle, service) = daemon(ServeOptions {
        cache_dir: Some(dir.join("cache").display().to_string()),
        cache_cap_bytes: Some(2048),
        ..ServeOptions::default()
    });
    let addr = handle.addr().to_string();
    let names = ["fib.imp", "hanoi.imp", "merge-sort.imp", "height.imp"];
    let references: Vec<String> = names
        .iter()
        .map(|n| strip_timing(&cli_reference(&example(n), 1)))
        .collect();
    for round in 0..3 {
        for (i, name) in names.iter().enumerate() {
            // A round-tagged comment defeats the request caches (new
            // source bytes, same program), so every round re-analyzes
            // through the byte-capped summary store.
            let file = example(name);
            let source = std::fs::read_to_string(&file).expect("read example");
            let edited = format!("{source}\n// eviction round {round}\n");
            let (status, body) = post_source(&addr, &file, &edited, "");
            assert_eq!(status, 200, "{body}");
            assert_eq!(
                strip_timing(&body),
                references[i],
                "round {round}: {name} must stay byte-identical under eviction pressure"
            );
        }
    }
    let counters = service.store().counters();
    assert!(
        counters.mem_bytes <= 2048,
        "the memory tier must respect its byte cap: {counters:?}"
    );
    assert!(
        counters.mem_entries < counters.stores,
        "a cap below the working set must keep part of it out of memory: {counters:?}"
    );
    assert!(
        counters.disk_hits > 0,
        "entries pushed out of memory must be re-served from the disk tier: {counters:?}"
    );
    assert_eq!(
        counters.corrupt_evictions, 0,
        "eviction pressure must never corrupt an entry: {counters:?}"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
