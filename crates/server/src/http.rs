//! A deliberately small HTTP/1.1 implementation over `std::net` — request
//! parsing with keep-alive and pipelining, response serialization, percent
//! en/decoding, and JSON error bodies.  No chunked transfer encoding, no
//! TLS: exactly what a local analysis daemon and its bundled client need,
//! with hard limits on head and body size so a misbehaving peer cannot
//! wedge a worker.
//!
//! Connections are persistent by default (HTTP/1.1 semantics): a [`Conn`]
//! owns the per-connection read buffer, so bytes a client pipelines past
//! one request's body are the start of the next request, never dropped.
//! Framing relies on `Content-Length` alone — a request or response body is
//! never delimited by EOF, which is what makes reuse sound.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body (a `.imp` source file).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// How long a worker waits on one blocking write of a response before
/// giving up on the connection; also the default request deadline.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// The most time a connection closed after an error response spends
/// reading what the client still sends ([`Conn::linger`]).
pub const LINGER_TIME: Duration = Duration::from_secs(2);
/// The most bytes it reads and discards meanwhile.
pub const LINGER_BYTES: usize = 1024 * 1024;
/// Slice length of the idle wait between keep-alive requests: short enough
/// that a flagged shutdown closes idle connections promptly, long enough to
/// stay off the CPU.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Per-connection persistence limits (`ServerConfig` fields, threaded down
/// by the connection loop).
#[derive(Clone, Copy, Debug)]
pub struct ConnLimits {
    /// Total wall-clock allowed for one whole request, head and body,
    /// counted from its first byte (the slowloris guard); expiry is a 408
    /// and a close.
    pub head_deadline: Duration,
    /// How long an idle keep-alive connection may wait for the next
    /// request before the server closes it.
    pub idle_timeout: Duration,
}

impl Default for ConnLimits {
    fn default() -> Self {
        ConnLimits {
            head_deadline: IO_TIMEOUT,
            idle_timeout: Duration::from_secs(5),
        }
    }
}

/// A parsed request: method, decoded path, decoded query pairs, lowercased
/// headers, raw body, and whether the client allows connection reuse.
#[derive(Clone, Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub query: Vec<(String, String)>,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// `Connection`-header/HTTP-version semantics: `HTTP/1.1` defaults to
    /// keep-alive, `HTTP/1.0` to close, an explicit token overrides, and
    /// `close` wins when both tokens appear.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    pub fn body_utf8(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::bad_request("request body is not valid UTF-8"))
    }
}

/// A request-level failure that maps onto an HTTP status.  Every such
/// failure also ends the connection — after a framing error the buffer
/// position is untrustworthy, so recovery is a fresh connection.
#[derive(Clone, Debug)]
pub struct HttpError {
    pub status: u16,
    pub message: String,
}

impl HttpError {
    pub fn bad_request(message: impl Into<String>) -> HttpError {
        HttpError {
            status: 400,
            message: message.into(),
        }
    }

    fn timeout(what: &str) -> HttpError {
        HttpError {
            status: 408,
            message: format!("timed out reading the request {what}"),
        }
    }
}

/// What [`Conn::next_request`] yielded.
#[derive(Debug)]
pub enum Next {
    /// A complete, well-formed request.
    Request(Request),
    /// The peer closed (or shutdown was flagged) between requests — close
    /// silently, nothing was in flight.
    Closed,
    /// The idle timeout expired with no request bytes — close silently.
    Idle,
}

/// One server-side connection: the stream plus the read buffer that
/// carries pipelined bytes across requests.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    limits: ConnLimits,
}

impl Conn {
    pub fn new(stream: TcpStream, limits: ConnLimits) -> Conn {
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        Conn {
            stream,
            buf: Vec::with_capacity(1024),
            limits,
        }
    }

    /// The underlying stream, for writing responses.
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Reads the next request off the connection, enforcing the size
    /// limits, the request deadline (head and body together), and the idle
    /// timeout.  Answers `Expect: 100-continue` inline so plain `curl`
    /// uploads work.
    ///
    /// `stop` is the server's shutdown flag: while the connection is idle
    /// (no request bytes buffered) a raised flag closes it immediately, so
    /// parked keep-alive connections never stall the drain.
    pub fn next_request(&mut self, stop: &AtomicBool) -> Result<Next, HttpError> {
        let mut chunk = [0u8; 4096];
        let idle_started = Instant::now();
        // The request deadline runs from the first byte of this request —
        // which may already be buffered from the previous read.
        let mut head_started: Option<Instant> = (!self.buf.is_empty()).then(Instant::now);
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(HttpError {
                    status: 413,
                    message: "request head exceeds the size limit".to_string(),
                });
            }
            match head_started {
                // Idle between requests: poll in short slices so shutdown
                // and the idle timeout are both observed promptly.
                None => {
                    if stop.load(Ordering::SeqCst) {
                        return Ok(Next::Closed);
                    }
                    if idle_started.elapsed() >= self.limits.idle_timeout {
                        return Ok(Next::Idle);
                    }
                    let _ = self.stream.set_read_timeout(Some(IDLE_POLL));
                    match self.stream.read(&mut chunk) {
                        Ok(0) => return Ok(Next::Closed),
                        Ok(n) => {
                            self.buf.extend_from_slice(&chunk[..n]);
                            head_started = Some(Instant::now());
                        }
                        Err(e) if is_timeout(&e) => {}
                        Err(e) => return Err(read_error(e)),
                    }
                }
                // Mid-head: the rest must arrive within the deadline.
                Some(started) => {
                    self.arm_deadline(started, "head")?;
                    match self.stream.read(&mut chunk) {
                        Ok(0) => {
                            return Err(HttpError::bad_request(
                                "connection closed before the request head was complete",
                            ))
                        }
                        Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                        Err(e) if is_timeout(&e) => return Err(HttpError::timeout("head")),
                        Err(e) => return Err(read_error(e)),
                    }
                }
            }
        };

        let head = parse_head(&self.buf[..head_end])?;
        if head.expect_continue {
            let _ = self.stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
        }

        // Consume the head; what follows is body bytes and, past them,
        // possibly the next pipelined request.  The body must arrive within
        // the same deadline as the head, so a trickled body cannot hold the
        // worker (and a drain) any longer than a stalled head.
        self.buf.drain(..head_end + 4);
        let started = head_started.expect("a parsed head has a first byte");
        while self.buf.len() < head.content_length {
            self.arm_deadline(started, "body")?;
            let n = self.stream.read(&mut chunk).map_err(|e| {
                if is_timeout(&e) {
                    HttpError::timeout("body")
                } else {
                    read_error(e)
                }
            })?;
            if n == 0 {
                return Err(HttpError::bad_request(
                    "connection closed before the request body was complete",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let leftover = self.buf.split_off(head.content_length);
        let body = std::mem::replace(&mut self.buf, leftover);

        let (raw_path, raw_query) = match head.target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (head.target.as_str(), ""),
        };
        Ok(Next::Request(Request {
            method: head.method,
            path: decode_component(raw_path),
            query: parse_query(raw_query),
            headers: head.headers,
            body,
            keep_alive: head.keep_alive,
        }))
    }

    /// Closes the connection after an error response without losing the
    /// response.  Closing a socket with unread bytes in its receive buffer
    /// makes the kernel send a reset, which can destroy the response before
    /// the client reads it.  So this shuts down the write half (the client
    /// sees the response end), then reads and discards what the client
    /// still sends until EOF, [`LINGER_TIME`] or [`LINGER_BYTES`].  The
    /// worker is busy meanwhile, so a server drain waits for it too, at
    /// most [`LINGER_TIME`].
    pub fn linger(mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
        let deadline = Instant::now() + LINGER_TIME;
        let mut chunk = [0u8; 16 * 1024];
        let mut drained = 0;
        while drained < LINGER_BYTES {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || self.stream.set_read_timeout(Some(left)).is_err() {
                return;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => drained += n,
            }
        }
    }

    /// Sets the read timeout to what is left of the request deadline that
    /// started at `started`, or answers 408 when nothing is left.
    fn arm_deadline(&mut self, started: Instant, what: &str) -> Result<(), HttpError> {
        let remaining = self
            .limits
            .head_deadline
            .checked_sub(started.elapsed())
            .filter(|r| !r.is_zero())
            .ok_or_else(|| HttpError::timeout(what))?;
        let _ = self.stream.set_read_timeout(Some(remaining));
        Ok(())
    }
}

/// The parsed request line and headers of one request.
#[derive(Debug)]
struct Head {
    method: String,
    target: String,
    headers: Vec<(String, String)>,
    content_length: usize,
    keep_alive: bool,
    expect_continue: bool,
}

/// Parses the raw head bytes (everything before the blank line).
fn parse_head(raw: &[u8]) -> Result<Head, HttpError> {
    let head = std::str::from_utf8(raw)
        .map_err(|_| HttpError::bad_request("request head is not valid UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::bad_request("empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::bad_request("request line has no target"))?
        .to_string();
    let version = match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => v,
        _ => return Err(HttpError::bad_request("only HTTP/1.x is supported")),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::bad_request(format!("malformed header line `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::bad_request(
            "chunked transfer encoding is not supported; send Content-Length",
        ));
    }
    // All Content-Length occurrences must agree: resolving duplicates by
    // "first wins" would silently read the wrong number of body bytes when
    // a proxy or a confused client stacks conflicting values (a classic
    // request-smuggling vector) — reject the request instead.
    let mut content_length: Option<usize> = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        let parsed: usize = v
            .parse()
            .map_err(|_| HttpError::bad_request(format!("invalid Content-Length `{v}`")))?;
        match content_length {
            Some(existing) if existing != parsed => {
                return Err(HttpError::bad_request(
                    "conflicting duplicate Content-Length headers",
                ));
            }
            _ => content_length = Some(parsed),
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError {
            status: 413,
            message: format!("request body of {content_length} bytes exceeds the limit"),
        });
    }
    let expect_continue = headers
        .iter()
        .any(|(k, v)| k == "expect" && v.eq_ignore_ascii_case("100-continue"));
    Ok(Head {
        method,
        target,
        keep_alive: connection_keep_alive(version, &headers),
        headers,
        content_length,
        expect_continue,
    })
}

/// HTTP/1.1 persistence semantics: 1.1 defaults to keep-alive, 1.0 to
/// close; explicit `Connection` tokens override, with `close` winning when
/// both appear.
fn connection_keep_alive(version: &str, headers: &[(String, String)]) -> bool {
    let mut close = false;
    let mut keep = false;
    for (_, v) in headers.iter().filter(|(k, _)| k == "connection") {
        for token in v.split(',') {
            let token = token.trim();
            if token.eq_ignore_ascii_case("close") {
                close = true;
            } else if token.eq_ignore_ascii_case("keep-alive") {
                keep = true;
            }
        }
    }
    if close {
        false
    } else if keep {
        true
    } else {
        version != "HTTP/1.0"
    }
}

/// A response about to be serialized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: String,
    pub content_type: &'static str,
    /// Extra response headers, e.g. `Allow` on a 405.
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response with the given pre-rendered body.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
            headers: Vec::new(),
        }
    }

    /// The uniform JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, format!("{{\"error\": {}}}\n", json_string(message)))
    }

    /// Adds an extra header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    /// Serializes onto the stream.  `Content-Length` framing always; the
    /// `Connection` header tells the client whether the server will keep
    /// the connection open for the next request.
    pub fn write_to(&self, stream: &mut TcpStream, keep_alive: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n\r\n"
        } else {
            "Connection: close\r\n\r\n"
        });
        // One write per response: a separate small body write after the
        // head would sit in the Nagle buffer until the head is ACKed,
        // stalling every keep-alive round trip by a delayed-ACK interval.
        head.push_str(&self.body);
        stream.write_all(head.as_bytes())?;
        stream.flush()
    }
}

/// Standard reason phrase of the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Renders a JSON string literal (quotes and control characters escaped).
pub use chora_telemetry::json::quote as json_string;

/// Percent-encodes one query component (RFC 3986 unreserved set passes).
pub fn encode_query_component(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' | b'/' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Decodes percent escapes (and `+` as space) in one query component.
fn decode_component(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok());
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits and decodes a raw query string into key/value pairs.
fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (decode_component(k), decode_component(v)),
            None => (decode_component(part), String::new()),
        })
        .collect()
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn read_error(e: std::io::Error) -> HttpError {
    let status = if is_timeout(&e) { 408 } else { 400 };
    HttpError {
        status,
        message: format!("failed reading request: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_components_round_trip() {
        for s in [
            "examples/programs/hanoi.imp",
            "name with spaces & symbols = 100%",
            "plain",
            "",
        ] {
            let enc = encode_query_component(s);
            assert_eq!(decode_component(&enc), s, "via {enc}");
        }
    }

    #[test]
    fn query_strings_parse_into_pairs() {
        let q = parse_query("file=a%2Fb.imp&jobs=4&flag");
        assert_eq!(
            q,
            vec![
                ("file".to_string(), "a/b.imp".to_string()),
                ("jobs".to_string(), "4".to_string()),
                ("flag".to_string(), String::new()),
            ]
        );
    }

    #[test]
    fn json_strings_escape_control_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn error_responses_are_json_envelopes() {
        let r = Response::error(400, "oops: \"x\"");
        assert_eq!(r.status, 400);
        assert_eq!(r.body, "{\"error\": \"oops: \\\"x\\\"\"}\n");
    }

    fn head_of(raw: &str) -> Head {
        parse_head(raw.as_bytes()).expect("well-formed head")
    }

    #[test]
    fn persistence_follows_version_and_connection_tokens() {
        // HTTP/1.1 defaults to keep-alive, 1.0 to close.
        assert!(head_of("GET / HTTP/1.1").keep_alive);
        assert!(!head_of("GET / HTTP/1.0").keep_alive);
        // Explicit tokens override either default.
        assert!(!head_of("GET / HTTP/1.1\r\nConnection: close").keep_alive);
        assert!(head_of("GET / HTTP/1.0\r\nConnection: keep-alive").keep_alive);
        // Token lists are honored, case-insensitively; close wins.
        assert!(!head_of("GET / HTTP/1.1\r\nConnection: Keep-Alive, Close").keep_alive);
        assert!(head_of("GET / HTTP/1.0\r\nConnection: TE, Keep-Alive").keep_alive);
    }

    #[test]
    fn heads_reject_conflicting_content_lengths() {
        let err =
            parse_head(b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3").unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("conflicting"), "{}", err.message);
        // Equal duplicates are tolerated.
        let head = parse_head(b"POST / HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2")
            .expect("equal duplicates");
        assert_eq!(head.content_length, 2);
    }

    #[test]
    fn oversized_body_announcements_are_413() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}", MAX_BODY_BYTES + 1);
        assert_eq!(parse_head(raw.as_bytes()).unwrap_err().status, 413);
    }

    #[test]
    fn responses_carry_extra_headers_and_connection_framing() {
        // Serialize via a real socket pair: write_to needs a TcpStream.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            let mut raw = String::new();
            s.read_to_string(&mut raw).expect("read");
            raw
        });
        let (mut stream, _) = listener.accept().expect("accept");
        Response::error(405, "use POST")
            .with_header("Allow", "POST")
            .write_to(&mut stream, false)
            .expect("write");
        drop(stream);
        let raw = client.join().expect("client thread");
        assert!(
            raw.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"),
            "{raw}"
        );
        assert!(raw.contains("Allow: POST\r\n"), "{raw}");
        assert!(raw.contains("Connection: close\r\n"), "{raw}");
    }
}
