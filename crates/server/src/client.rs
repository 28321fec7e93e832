//! The HTTP/1.1 client behind `chora request` and the server-mode
//! benchmarks: a [`Client`] owns one keep-alive connection to the daemon
//! and reuses it across requests, with `Content-Length`-framed response
//! reads (never EOF-delimited, so reuse is sound) and — for idempotent
//! requests only — a single transparent reconnect when a previously-reused
//! connection turns out to have been closed by the server (idle timeout,
//! request cap).

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How long the client waits for the server to produce a response (analyses
/// of large programs are allowed to take a while).
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// Connection and retry policy of a [`Client`].
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection.  `None` = the OS default
    /// (minutes) — fine for a CLI talking to its own daemon, far too long
    /// for a cache tier probing a possibly-dead peer.
    pub connect_timeout: Option<Duration>,
    /// Bound on each read/write once connected.
    pub io_timeout: Duration,
    /// Pause before the single stale-connection retry, giving a restarting
    /// server a beat to come back before the request is abandoned.
    pub retry_backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: None,
            io_timeout: CLIENT_TIMEOUT,
            retry_backoff: Duration::from_millis(25),
        }
    }
}

/// Whether a request may be transparently resent after a connection-level
/// failure.  `GET`s never mutate.  Summary uploads (`PUT
/// /v1/summaries/{key}`) are content-addressed — replaying one writes the
/// same bytes under the same key — so they are idempotent too.  Everything
/// else (`POST /v1/analyze` runs an analysis, `POST /v1/shutdown` stops the
/// daemon) must reach the server at most once.
fn is_idempotent(method: &str, path_and_query: &str) -> bool {
    method == "GET" || (method == "PUT" && path_and_query.starts_with("/v1/summaries/"))
}

/// A keep-alive HTTP client bound to one daemon address.
///
/// The connection is opened lazily on the first request and reused until
/// the server answers `Connection: close`, an error occurs, or [`close`]
/// is called.  Dropping the client closes the connection.
///
/// [`close`]: Client::close
pub struct Client {
    addr: String,
    config: ClientConfig,
    stream: Option<TcpStream>,
    /// Bytes read past the previous response's body (none in practice —
    /// the client never pipelines — but framing stays correct if a server
    /// ever sends early).
    leftover: Vec<u8>,
}

impl Client {
    /// A client for the daemon at `addr` (e.g. `127.0.0.1:7557`).  No
    /// connection is made until the first request.
    pub fn new(addr: impl Into<String>) -> Client {
        Client::with_config(addr, ClientConfig::default())
    }

    /// A client with explicit connection and retry policy.
    pub fn with_config(addr: impl Into<String>, config: ClientConfig) -> Client {
        Client {
            addr: addr.into(),
            config,
            stream: None,
            leftover: Vec::new(),
        }
    }

    /// The daemon address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// `GET` without a body; returns `(status, body)`.
    ///
    /// `path_and_query` must already be percent-encoded (see
    /// [`crate::http::encode_query_component`]).
    pub fn get(&mut self, path_and_query: &str) -> std::io::Result<(u16, String)> {
        self.send("GET", path_and_query, None)
    }

    /// `POST` with a body; returns `(status, body)`.
    pub fn post(&mut self, path_and_query: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.send("POST", path_and_query, Some(body))
    }

    /// `PUT` with a body; returns `(status, body)`.
    pub fn put(&mut self, path_and_query: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.send("PUT", path_and_query, Some(body))
    }

    /// Closes the connection (the next request reconnects).
    pub fn close(&mut self) {
        self.stream = None;
        self.leftover.clear();
    }

    /// Sends one request on the (re)used connection.  When a *reused*
    /// connection fails before any response byte arrives — the server
    /// closed it between requests (idle timeout, request cap) — an
    /// *idempotent* request (`GET`, or a content-addressed summary `PUT`)
    /// is retried once on a fresh connection after a short backoff.
    /// Non-idempotent requests are never resent: a `POST` whose connection
    /// died mid-flight may already have run on the server.
    pub fn send(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        let reused = self.stream.is_some();
        match self.try_send(method, path_and_query, body) {
            Err(e)
                if reused && is_stale_connection(&e) && is_idempotent(method, path_and_query) =>
            {
                self.close();
                if !self.config.retry_backoff.is_zero() {
                    std::thread::sleep(self.config.retry_backoff);
                }
                self.try_send(method, path_and_query, body)
            }
            other => other,
        }
    }

    fn connect(&self) -> std::io::Result<TcpStream> {
        match self.config.connect_timeout {
            None => TcpStream::connect(&self.addr),
            Some(limit) => {
                let target = self.addr.to_socket_addrs()?.next().ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!("`{}` resolved to no address", self.addr),
                    )
                })?;
                TcpStream::connect_timeout(&target, limit)
            }
        }
    }

    fn try_send(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        if self.stream.is_none() {
            let stream = self.connect()?;
            stream.set_read_timeout(Some(self.config.io_timeout))?;
            stream.set_write_timeout(Some(self.config.io_timeout))?;
            // Nagle would hold small writes until the previous segment is
            // ACKed; combined with delayed ACKs that stalls every
            // request/response turn on a keep-alive connection by ~40ms.
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
            self.leftover.clear();
        }
        let result = (|| {
            let stream = self.stream.as_mut().expect("connected above");
            let body = body.unwrap_or("");
            // One write per request: head and body in a single segment, so
            // the request never straddles an ACK boundary.
            let mut request = format!(
                "{method} {path_and_query} HTTP/1.1\r\nHost: {}\r\nContent-Type: text/plain\r\n\
                 Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
                self.addr,
                body.len()
            );
            request.push_str(body);
            stream.write_all(request.as_bytes())?;
            stream.flush()?;
            read_response(stream, &mut self.leftover)
        })();
        match result {
            Ok((status, body, close)) => {
                if close {
                    self.close();
                }
                Ok((status, body))
            }
            Err(e) => {
                // After any error the framing position is unknown: drop
                // the connection rather than misparse the next response.
                self.close();
                Err(e)
            }
        }
    }
}

/// Whether an error on a reused connection means "the server already
/// closed it" — the only case [`Client::send`] retries.
fn is_stale_connection(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
    )
}

/// Reads one `Content-Length`-framed response off the stream, carrying
/// unconsumed bytes across calls in `buf`.  Returns
/// `(status, body, close)` where `close` reports a `Connection: close`
/// from the server (or EOF-delimited framing, which implies it).
///
/// Interim 1xx responses (`100 Continue`) are skipped.  A body that is
/// not valid UTF-8 is an error — it must never be silently mangled by a
/// lossy conversion.
fn read_response<R: Read>(
    stream: &mut R,
    buf: &mut Vec<u8>,
) -> std::io::Result<(u16, String, bool)> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..head_end])
                .map_err(|_| bad("response head is not UTF-8"))?;
            let mut lines = head.split("\r\n");
            let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
            let status: u16 = status_line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad(&format!("malformed status line `{status_line}`")))?;
            let mut content_length: Option<usize> = None;
            let mut close = false;
            for line in lines {
                let Some((name, value)) = line.split_once(':') else {
                    continue;
                };
                let name = name.trim();
                let value = value.trim();
                if name.eq_ignore_ascii_case("connection")
                    && value
                        .split(',')
                        .any(|t| t.trim().eq_ignore_ascii_case("close"))
                {
                    close = true;
                }
                if !name.eq_ignore_ascii_case("content-length") {
                    continue;
                }
                let value: usize = value
                    .parse()
                    .map_err(|_| bad(&format!("invalid Content-Length `{value}`")))?;
                match content_length {
                    Some(existing) if existing != value => {
                        return Err(bad("conflicting Content-Length headers in response"));
                    }
                    _ => content_length = Some(value),
                }
            }
            // Skip interim 1xx responses (the server sends `100 Continue`
            // when the request carried `Expect`).
            if (100..200).contains(&status) {
                buf.drain(..head_end + 4);
                continue;
            }
            let body_start = head_end + 4;
            let body = match content_length {
                Some(expected) => {
                    while buf.len() < body_start + expected {
                        let n = stream.read(&mut chunk)?;
                        if n == 0 {
                            return Err(bad(&format!(
                                "response body truncated: got {} of {expected} bytes",
                                buf.len() - body_start
                            )));
                        }
                        buf.extend_from_slice(&chunk[..n]);
                    }
                    let rest = buf.split_off(body_start + expected);
                    let body = buf[body_start..].to_vec();
                    *buf = rest;
                    body
                }
                None => {
                    // No Content-Length: EOF-delimited (`Connection:
                    // close` framing); the connection cannot be reused.
                    close = true;
                    loop {
                        let n = stream.read(&mut chunk)?;
                        if n == 0 {
                            break;
                        }
                        buf.extend_from_slice(&chunk[..n]);
                    }
                    let body = buf[body_start..].to_vec();
                    buf.clear();
                    body
                }
            };
            let body =
                String::from_utf8(body).map_err(|_| bad("response body is not valid UTF-8"))?;
            return Ok((status, body, close));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a response arrived",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> std::io::Result<(u16, String, bool)> {
        let mut cursor = raw;
        let mut buf = Vec::new();
        read_response(&mut cursor, &mut buf)
    }

    #[test]
    fn responses_parse_status_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi";
        let (status, body, close) = parse(raw).unwrap();
        assert_eq!((status, body.as_str()), (200, "hi"));
        assert!(!close, "Content-Length framing keeps the connection");
    }

    #[test]
    fn connection_close_is_reported() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nhi";
        assert!(parse(raw).unwrap().2);
    }

    #[test]
    fn interim_100_continue_is_skipped() {
        let raw = b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 400 Bad Request\r\n\
                    Content-Length: 15\r\n\r\n{\"error\": \"x\"}\n";
        let (status, body, _) = parse(raw).unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("error"));
    }

    #[test]
    fn content_length_bounds_the_body_and_keeps_the_rest() {
        // Bytes past Content-Length stay buffered for the next response.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhiHTTP/1.1 200 OK\r\n\
                    Content-Length: 3\r\n\r\nbye";
        let mut cursor: &[u8] = raw;
        let mut buf = Vec::new();
        let (_, first, _) = read_response(&mut cursor, &mut buf).unwrap();
        assert_eq!(first, "hi");
        let (_, second, _) = read_response(&mut cursor, &mut buf).unwrap();
        assert_eq!(second, "bye");
        // A short body is a truncation error, not a silent success.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhi";
        let err = parse(raw).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
        // Case-insensitive header name, equal duplicates tolerated.
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nCONTENT-LENGTH: 2\r\n\r\nhiX";
        assert_eq!(parse(raw).unwrap().1, "hi");
        // Conflicting duplicates are an error.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nhix";
        let err = parse(raw).unwrap_err();
        assert!(err.to_string().contains("conflicting"), "{err}");
        // Unparseable value.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: zz\r\n\r\nhi";
        assert!(parse(raw).is_err());
        // Without the header, Connection: close framing reads to EOF.
        let raw = b"HTTP/1.1 200 OK\r\n\r\neverything here";
        let (status, body, close) = parse(raw).unwrap();
        assert_eq!((status, body.as_str()), (200, "everything here"));
        assert!(close, "EOF framing implies close");
    }

    #[test]
    fn non_utf8_bodies_are_an_error_not_mangled() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n\xff\xfe";
        let err = parse(raw).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn only_gets_and_summary_puts_are_retry_safe() {
        assert!(is_idempotent("GET", "/v1/stats"));
        assert!(is_idempotent("GET", "/v1/summaries/00ff"));
        assert!(is_idempotent("PUT", "/v1/summaries/00ff?src=aa"));
        assert!(!is_idempotent("PUT", "/v1/analyze"));
        assert!(!is_idempotent("POST", "/v1/analyze"));
        assert!(!is_idempotent("POST", "/v1/shutdown"));
        assert!(!is_idempotent("POST", "/v1/summaries/00ff"));
    }

    #[test]
    fn stale_connection_errors_are_classified() {
        use std::io::{Error, ErrorKind};
        assert!(is_stale_connection(&Error::new(
            ErrorKind::UnexpectedEof,
            "eof"
        )));
        assert!(is_stale_connection(&Error::new(
            ErrorKind::BrokenPipe,
            "pipe"
        )));
        assert!(!is_stale_connection(&Error::new(
            ErrorKind::InvalidData,
            "bad"
        )));
    }
}
