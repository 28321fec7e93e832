//! Connection-lifecycle tests over raw sockets: pipelining, split
//! segments, explicit `Connection: close`, idle timeout, the slowloris
//! request deadline (a stalled head and a trickled body), and the
//! per-connection request cap.  A stub backend
//! keeps the requests instant — these tests exercise the transport, not
//! the analysis.

use chora_server::{spawn, AnalysisBackend, ServerConfig, ServerHandle};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Echoes the source length, so responses are cheap and deterministic.
struct StubBackend;

impl AnalysisBackend for StubBackend {
    fn analyze(&self, _query: &[(String, String)], source: &str) -> Result<String, String> {
        Ok(format!("{{\"len\": {}}}\n", source.len()))
    }

    fn complexity(&self, _query: &[(String, String)], source: &str) -> Result<String, String> {
        Ok(format!("{{\"len\": {}}}\n", source.len()))
    }

    fn cache_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

fn daemon(config: ServerConfig) -> ServerHandle {
    spawn(config, Arc::new(StubBackend)).expect("spawn server")
}

fn quiet_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        quiet: true,
        ..ServerConfig::default()
    }
}

fn connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

fn post(body: &str, extra_headers: &str) -> String {
    format!(
        "POST /v1/analyze HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n{extra_headers}\r\n{body}",
        body.len()
    )
}

/// Reads exactly one `Content-Length`-framed response off the stream,
/// returning `(status, connection_header, body)`.
fn read_one_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> (u16, String, String) {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "connection closed before a full response arrived");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).expect("UTF-8 head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let header = |name: &str| {
        head.lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim()
                    .eq_ignore_ascii_case(name)
                    .then(|| v.trim().to_string())
            })
            .unwrap_or_default()
    };
    let content_length: usize = header("content-length").parse().expect("Content-Length");
    let connection = header("connection");
    let body_start = head_end + 4;
    while buf.len() < body_start + content_length {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let rest = buf.split_off(body_start + content_length);
    let body = String::from_utf8(buf[body_start..].to_vec()).expect("UTF-8 body");
    *buf = rest;
    (status, connection, body)
}

/// Reads until EOF; the server must actively close.
fn expect_eof(stream: &mut TcpStream) {
    let mut chunk = [0u8; 256];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) => panic!("expected a clean close, got {e}"),
        }
    }
}

#[test]
fn two_requests_in_one_tcp_segment_get_two_responses() {
    let handle = daemon(quiet_config());
    let mut stream = connect(&handle);
    // Both requests land in a single write — the second must not be
    // discarded with the first body's trailing bytes.
    let pipelined = format!("{}{}", post("aa", ""), post("bbbb", ""));
    stream.write_all(pipelined.as_bytes()).expect("write");
    let mut buf = Vec::new();
    let (status, conn, body) = read_one_response(&mut stream, &mut buf);
    assert_eq!(
        (status, conn.as_str(), body.as_str()),
        (200, "keep-alive", "{\"len\": 2}\n")
    );
    let (status, _, body) = read_one_response(&mut stream, &mut buf);
    assert_eq!((status, body.as_str()), (200, "{\"len\": 4}\n"));
    handle.shutdown();
}

#[test]
fn a_request_split_across_segments_is_reassembled() {
    let handle = daemon(quiet_config());
    let mut stream = connect(&handle);
    let request = post("hello", "");
    // Dribble the request: head split mid-line, body in two pieces.
    for piece in [
        &request[..10],
        &request[10..40],
        &request[40..request.len() - 3],
    ] {
        stream.write_all(piece.as_bytes()).expect("write piece");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(30));
    }
    stream
        .write_all(&request.as_bytes()[request.len() - 3..])
        .expect("write tail");
    let mut buf = Vec::new();
    let (status, _, body) = read_one_response(&mut stream, &mut buf);
    assert_eq!((status, body.as_str()), (200, "{\"len\": 5}\n"));
    handle.shutdown();
}

#[test]
fn keep_alive_then_connection_close_ends_the_connection() {
    let handle = daemon(quiet_config());
    let mut stream = connect(&handle);
    let mut buf = Vec::new();
    stream.write_all(post("x", "").as_bytes()).expect("write");
    let (status, conn, _) = read_one_response(&mut stream, &mut buf);
    assert_eq!((status, conn.as_str()), (200, "keep-alive"));
    stream
        .write_all(post("y", "Connection: close\r\n").as_bytes())
        .expect("write");
    let (status, conn, _) = read_one_response(&mut stream, &mut buf);
    assert_eq!((status, conn.as_str()), (200, "close"));
    expect_eof(&mut stream);
    handle.shutdown();
}

#[test]
fn http_1_0_without_keep_alive_closes_after_one_response() {
    let handle = daemon(quiet_config());
    let mut stream = connect(&handle);
    let request = "POST /v1/analyze HTTP/1.0\r\nHost: t\r\nContent-Length: 1\r\n\r\nz";
    stream.write_all(request.as_bytes()).expect("write");
    let mut buf = Vec::new();
    let (status, conn, _) = read_one_response(&mut stream, &mut buf);
    assert_eq!((status, conn.as_str()), (200, "close"));
    expect_eof(&mut stream);
    handle.shutdown();
}

#[test]
fn idle_keep_alive_connections_are_disconnected() {
    let handle = daemon(ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..quiet_config()
    });
    let mut stream = connect(&handle);
    let mut buf = Vec::new();
    stream.write_all(post("x", "").as_bytes()).expect("write");
    let (status, conn, _) = read_one_response(&mut stream, &mut buf);
    assert_eq!((status, conn.as_str()), (200, "keep-alive"));
    // Say nothing; the server must hang up on its own (silently — an idle
    // close between requests is not an error response).
    expect_eof(&mut stream);
    handle.shutdown();
}

#[test]
fn a_stalled_head_is_cut_off_with_408() {
    let handle = daemon(ServerConfig {
        head_deadline: Duration::from_millis(200),
        ..quiet_config()
    });
    let mut stream = connect(&handle);
    // Start a head, then stall forever (slowloris).
    stream
        .write_all(b"POST /v1/analyze HTTP/1.1\r\nHos")
        .expect("write partial head");
    stream.flush().expect("flush");
    let mut buf = Vec::new();
    let (status, conn, body) = read_one_response(&mut stream, &mut buf);
    assert_eq!(status, 408, "{body}");
    assert_eq!(conn, "close");
    assert!(body.contains("timed out"), "{body}");
    expect_eof(&mut stream);
    handle.shutdown();
}

#[test]
fn a_trickled_body_is_cut_off_with_408() {
    let handle = daemon(ServerConfig {
        head_deadline: Duration::from_millis(200),
        ..quiet_config()
    });
    let mut stream = connect(&handle);
    // A complete head, then the declared body one byte every 50 ms: each
    // byte arrives well within any per-read timeout, but the whole request
    // must still end within the deadline.
    stream
        .write_all(b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n")
        .expect("write head");
    let started = Instant::now();
    // Bytes go out half a period off the deadline, and the 50 ms wait
    // after each one is a read, so the client stops writing as soon as
    // the response starts: the server never closes on unread bytes.
    std::thread::sleep(Duration::from_millis(25));
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    while buf.is_empty() && started.elapsed() < Duration::from_secs(2) {
        stream.write_all(b"x").expect("write a body byte");
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => panic!("reading the response: {e}"),
        }
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    let (status, conn, body) = read_one_response(&mut stream, &mut buf);
    expect_eof(&mut stream);
    let elapsed = started.elapsed();
    assert_eq!(status, 408, "{body}");
    assert_eq!(conn, "close");
    assert!(body.contains("timed out"), "{body}");
    assert!(
        elapsed < Duration::from_secs(2),
        "cut off after {elapsed:?}"
    );
    handle.shutdown();
}

#[test]
fn the_request_cap_closes_the_connection_after_n_requests() {
    let handle = daemon(ServerConfig {
        max_requests_per_conn: 2,
        ..quiet_config()
    });
    let mut stream = connect(&handle);
    let pipelined = format!("{}{}{}", post("a", ""), post("bb", ""), post("ccc", ""));
    stream.write_all(pipelined.as_bytes()).expect("write");
    let mut buf = Vec::new();
    let (status, conn, _) = read_one_response(&mut stream, &mut buf);
    assert_eq!((status, conn.as_str()), (200, "keep-alive"));
    let (status, conn, _) = read_one_response(&mut stream, &mut buf);
    assert_eq!((status, conn.as_str()), (200, "close"), "cap reached");
    expect_eof(&mut stream);
    handle.shutdown();
}

#[test]
fn the_client_reuses_its_connection_and_survives_a_server_side_close() {
    let handle = daemon(ServerConfig {
        idle_timeout: Duration::from_millis(150),
        ..quiet_config()
    });
    let addr = handle.addr().to_string();
    let mut client = chora_server::client::Client::new(&addr);
    let (status, body) = client.post("/v1/analyze", "abc").expect("first request");
    assert_eq!((status, body.as_str()), (200, "{\"len\": 3}\n"));
    // Wait past the idle timeout so the server drops the parked
    // connection; an idempotent request must transparently reconnect.
    std::thread::sleep(Duration::from_millis(400));
    let (status, _) = client.get("/v1/healthz").expect("GET after idle close");
    assert_eq!(status, 200);
    // A POST that hits the same race is NOT resent (the server might
    // already have run it): the error surfaces to the caller, and an
    // explicit retry lands on a fresh connection.
    std::thread::sleep(Duration::from_millis(400));
    let err = client
        .post("/v1/analyze", "abcd")
        .expect_err("stale connection must not silently replay a POST");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
        ),
        "{err}"
    );
    let (status, body) = client.post("/v1/analyze", "abcd").expect("explicit retry");
    assert_eq!((status, body.as_str()), (200, "{\"len\": 4}\n"));
    handle.shutdown();
}

#[test]
fn batch_is_declined_by_backends_without_support() {
    let handle = daemon(quiet_config());
    let mut client = chora_server::client::Client::new(handle.addr().to_string());
    let (status, body) = client.post("/v1/batch", "[]").expect("batch request");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("does not support"), "{body}");
    handle.shutdown();
}

#[test]
fn wrong_method_gets_allow_header_over_the_wire() {
    let handle = daemon(quiet_config());
    let mut stream = connect(&handle);
    stream
        .write_all(b"GET /v1/analyze HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("write");
    let mut chunk = [0u8; 4096];
    let mut raw = Vec::new();
    loop {
        if raw.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0);
        raw.extend_from_slice(&chunk[..n]);
    }
    let head = String::from_utf8_lossy(&raw);
    assert!(head.starts_with("HTTP/1.1 405 "), "{head}");
    assert!(head.contains("Allow: POST\r\n"), "{head}");
    handle.shutdown();
}
