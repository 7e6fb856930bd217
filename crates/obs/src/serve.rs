//! The embedded observability server behind `--obs-listen <addr>`: a
//! zero-dependency, hand-rolled HTTP/1.1 endpoint over
//! [`std::net::TcpListener`]. A background thread inside any observed
//! run serves the *live registry* —
//!
//! - `GET /metrics` — Prometheus text exposition v0.0.4
//!   ([`crate::expo::render`] over [`crate::snapshot`]); counters are
//!   global and monotone, so two successive scrapes mid-run satisfy
//!   [`crate::expo::check_monotone`]. Span aggregates merge into the
//!   global table as fork-join regions complete (workers are joined per
//!   region), so spans appear region-by-region while histograms and
//!   counters update continuously.
//! - `GET /snapshot` — the same registry as JSON
//!   ([`crate::Snapshot::to_json`]), which `dsa obs top` polls.
//! - `GET /healthz` — liveness.
//!
//! The server instruments itself (`serve.requests`, `serve.http_errors`,
//! `serve.request_ns`). The run journal is queried through the CLI
//! (`dsa obs runs/diff/regress`), not over HTTP.
//!
//! The HTTP surface is deliberately minimal: GET only, `Connection:
//! close`, no keep-alive, no TLS, request heads capped at 16 KiB with
//! 64 headers. [`parse_request`] is a total function over raw bytes —
//! malformed request lines, oversized heads and unknown methods map to
//! 400/405/414 responses, never panics — and is exercised directly by
//! the fuzz-ish tests in `tests/live_scrape.rs`.

use crate::json;
use crate::{expo, metrics, snapshot};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Largest request head (request line + headers) the server reads.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest request line the parser accepts.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Most headers the parser accepts.
pub const MAX_HEADERS: usize = 64;
/// Per-connection socket timeout: a stalled client cannot wedge the
/// accept loop for longer than this.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

// ---- request parsing --------------------------------------------------------

/// A parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method token, as sent (`GET`, `POST`, ...).
    pub method: String,
    /// The request target (path + optional query), as sent.
    pub path: String,
}

/// A response the server will write.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Response {
    /// HTTP status code.
    status: u16,
    /// Content-Type header value.
    content_type: &'static str,
    /// Response body.
    body: String,
}

impl Response {
    fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body,
        }
    }

    fn error(status: u16, message: &str) -> Self {
        Self::json(
            status,
            format!("{{\"error\":\"{}\"}}\n", json::escape(message)),
        )
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        414 => "URI Too Long",
        _ => "Internal Server Error",
    }
}

/// Parses a request head (everything up to the blank line) from raw
/// bytes. Total: every input maps to `Ok` or an error status code
/// (400 for malformed syntax, 414 for an oversized request line), never
/// a panic. Headers are bounded ([`MAX_HEADERS`], [`MAX_REQUEST_LINE`]
/// per line) and discarded — no endpoint reads them.
///
/// # Errors
///
/// Returns the HTTP status code the connection should be answered with.
pub fn parse_request(head: &[u8]) -> Result<Request, u16> {
    let text = std::str::from_utf8(head).map_err(|_| 400u16)?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or(400u16)?;
    if request_line.len() > MAX_REQUEST_LINE {
        return Err(414);
    }
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(400);
    };
    if parts.next().is_some() || method.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(400);
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(400);
    }
    if !path.starts_with('/') {
        return Err(400);
    }
    let mut headers = 0usize;
    for line in lines {
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS || line.len() > MAX_REQUEST_LINE || !line.contains(':') {
            return Err(400);
        }
    }
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
    })
}

// ---- routing ---------------------------------------------------------------

/// Routes one parsed request. Pure — no socket involved — so tests can
/// drive the full surface without binding a port.
fn handle(req: &Request) -> Response {
    if req.method != "GET" {
        return Response::error(405, &format!("method {} not allowed", req.method));
    }
    // Strip any query string: no endpoint takes parameters.
    match req.path.split('?').next().unwrap_or("") {
        "/healthz" => Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: "ok\n".to_string(),
        },
        "/metrics" => match expo::render(&snapshot()) {
            Ok(body) => Response {
                status: 200,
                content_type: expo::CONTENT_TYPE,
                body,
            },
            Err(msg) => Response::error(500, &msg),
        },
        "/snapshot" => {
            let mut body = snapshot().to_json();
            body.push('\n');
            Response::json(200, body)
        }
        path => Response::error(404, &format!("unknown path {path:?}")),
    }
}

// ---- the socket layer -------------------------------------------------------

fn read_head(stream: &mut TcpStream) -> Result<Vec<u8>, u16> {
    let mut head = Vec::with_capacity(1024);
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf).map_err(|_| 400u16)?;
        if n == 0 {
            return Err(400);
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") {
            return Ok(head);
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(414);
        }
    }
}

fn write_response(stream: &mut TcpStream, resp: &Response) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len()
    );
    // A client that hung up mid-response is its own problem.
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(resp.body.as_bytes()))
        .and_then(|()| stream.flush());
}

fn serve_connection(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let t0 = Instant::now();
    let parsed = read_head(stream).and_then(|head| parse_request(&head));
    // Count the request before rendering the response, so a /metrics
    // scrape sees itself — the very first scrape already carries
    // serve.requests = 1 and successive scrapes grow monotonically.
    metrics::incr("serve.requests");
    let resp = match parsed {
        Ok(req) => handle(&req),
        Err(status) => Response::error(status, status_text(status)),
    };
    if resp.status >= 400 {
        metrics::incr("serve.http_errors");
    }
    metrics::observe(
        "serve.request_ns",
        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
    );
    write_response(stream, &resp);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Binds `addr` (e.g. `127.0.0.1:9464`; port 0 picks a free port) and
/// serves it from a background thread — what `--obs-listen` spawns
/// inside an observed run. Returns the bound address (so port 0 callers
/// learn their port). The thread is detached: it lives until the process
/// exits, which is exactly the lifetime an in-run exposition endpoint
/// should have. It accepts and serves connections one at a time: a
/// scrape endpoint's request rate is one poller every few seconds, and
/// per-connection timeouts bound how long a stalled client can hold the
/// loop.
///
/// # Errors
///
/// Returns an error when the address cannot be parsed or bound (the
/// caller decides whether that is fatal).
pub fn spawn(addr: &str) -> Result<SocketAddr, String> {
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| format!("bad listen address {addr:?}: {e}"))?
        .collect();
    let listener = TcpListener::bind(&addrs[..]).map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    std::thread::Builder::new()
        .name("dsa-obs-serve".to_string())
        .spawn(move || {
            for mut stream in listener.incoming().flatten() {
                serve_connection(&mut stream);
            }
        })
        .map_err(|e| format!("spawning server thread: {e}"))?;
    Ok(bound)
}

/// A minimal HTTP/1.1 GET client for the same surface: used by
/// `dsa obs top` and the integration tests. Returns `(status, body)`.
///
/// # Errors
///
/// Returns an error on connection failure, timeout, or a response that
/// is not minimal HTTP/1.1.
pub fn http_get(addr: &str, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("sending request: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("reading response: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response has no header/body separator")?;
    let status_line = head.lines().next().ok_or("empty response")?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parser_accepts_wellformed_heads() {
        let req = parse_request(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        // No headers at all is fine.
        let req = parse_request(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(req.path, "/");
        // Query strings ride along in the path.
        let req = parse_request(b"GET /runs?limit=5 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/runs?limit=5");
    }

    #[test]
    fn request_parser_rejects_malformed_heads_without_panicking() {
        for (head, expect) in [
            (&b"GET\r\n\r\n"[..], 400u16),
            (b"GET /x\r\n\r\n", 400),
            (b"GET /x HTTP/2\r\n\r\n", 400),
            (b"get /x HTTP/1.1\r\n\r\n", 400),
            (b"GET x HTTP/1.1\r\n\r\n", 400),
            (b"GET /x HTTP/1.1 extra\r\n\r\n", 400),
            (b"GET /x HTTP/1.1\r\nnocolon\r\n\r\n", 400),
            (b"\xff\xfe\r\n\r\n", 400),
            (b"", 400),
        ] {
            assert_eq!(parse_request(head).unwrap_err(), expect, "head {head:?}");
        }
        // An oversized request line maps to 414.
        let mut huge = b"GET /".to_vec();
        huge.extend(std::iter::repeat_n(b'a', MAX_REQUEST_LINE + 10));
        huge.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert_eq!(parse_request(&huge).unwrap_err(), 414);
        // Too many headers maps to 400.
        let mut many = b"GET /x HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADERS + 1) {
            many.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        many.extend_from_slice(b"\r\n");
        assert_eq!(parse_request(&many).unwrap_err(), 400);
    }

    #[test]
    fn live_mode_routes_and_404s() {
        let get = |path: &str| {
            handle(&Request {
                method: "GET".to_string(),
                path: path.to_string(),
            })
        };
        assert_eq!(get("/healthz").status, 200);
        assert_eq!(get("/metrics").status, 200);
        assert_eq!(get("/snapshot").status, 200);
        assert_eq!(get("/runs").status, 404);
        assert_eq!(get("/nope").status, 404);
        // Query strings are stripped before routing.
        assert_eq!(get("/healthz?x=1").status, 200);
        let post = handle(&Request {
            method: "POST".to_string(),
            path: "/metrics".to_string(),
        });
        assert_eq!(post.status, 405);
    }
}
