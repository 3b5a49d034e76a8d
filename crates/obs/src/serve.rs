//! In-tree HTTP/1.1 scrape endpoint for the live telemetry plane — a
//! `std::net::TcpListener` and nothing else, matching the workspace's
//! zero-external-dependency posture.
//!
//! Four endpoints, all served from published [`PlaneSnapshot`]s
//! (consumers clone an `Arc`, never read a live instrument, so a slow
//! or stuck scraper cannot block the pipeline):
//!
//! | path                 | body                                             |
//! |----------------------|--------------------------------------------------|
//! | `/metrics`           | Prometheus text exposition (version 0.0.4)       |
//! | `/metrics.json`      | flat metrics JSON (strict RFC 8259); includes a  |
//! |                      | `"profile"` section when a profiler is attached  |
//! | `/series`            | `{"names": [..]}`; `?name=<q>` → one window      |
//! | `/stream`            | SSE, one `snapshot` event per accepted tick,     |
//! |                      | `: keep-alive` comments while the plane is idle  |
//! | `/profile/folded`    | flamegraph.pl-compatible folded stacks           |
//! | `/profile/flame.svg` | in-tree SVG flamegraph                           |
//!
//! Error responses are uniformly strict-JSON `{"error": "..."}` bodies
//! with the matching 4xx status (400 malformed head, 405 non-GET, 404
//! unknown path/series/profile, 431 oversized request head).
//!
//! The listener serves each connection on its own thread and answers
//! every request with `Connection: close` — scrape traffic is one
//! request per connection by nature, and the absence of keep-alive
//! bookkeeping is what keeps the handler a straight-line function.
//!
//! The request parser and SSE framer are pure functions
//! ([`parse_request`], [`sse_frame`]) so the wire formats are
//! unit-testable without sockets.

use crate::export::{metrics_snapshot_json_with_profile, prometheus_text};
use crate::flame::flame_svg;
use crate::plane::{PlaneSnapshot, TelemetryPlane};
use crate::series::Series;
use crate::sketch::Sketch;
use crate::{Counter, MetricClass};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum bytes of request head read before giving up on a client.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How long the SSE loop waits for a new snapshot before re-checking
/// the shutdown flag.
const SSE_POLL: Duration = Duration::from_millis(250);

/// Plane inactivity after which the SSE stream emits a comment frame so
/// proxies with idle timeouts keep the connection open.
const SSE_KEEPALIVE: Duration = Duration::from_secs(15);

/// The SSE comment frame sent on an idle stream: comment lines start
/// with `:` and carry no `id`/`event`/`data` field, so spec-compliant
/// consumers ignore them entirely.
pub fn sse_keepalive_frame() -> &'static str {
    ": keep-alive\n\n"
}

/// A parsed HTTP request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method verb, as sent (`GET`, `HEAD`, ...).
    pub method: String,
    /// Path without the query string (`/series`).
    pub path: String,
    /// Query string without the `?` (empty when absent).
    pub query: String,
}

impl Request {
    /// The value of query parameter `key`, if present
    /// (`name=a.b&x=1` → `param("name") == Some("a.b")`).
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Parses the first line of an HTTP/1.x request head. Returns `None`
/// for anything that is not `<METHOD> <target> HTTP/1.<x>`.
pub fn parse_request(head: &str) -> Option<Request> {
    let line = head.lines().next()?;
    let mut parts = line.split(' ');
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if method.is_empty() || !version.starts_with("HTTP/1.") || parts.next().is_some() {
        return None;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Some(Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
    })
}

/// One server-sent event: `id`, an `event` name and a single-line
/// `data` payload, terminated by the required blank line.
pub fn sse_frame(id: u64, event: &str, data: &str) -> String {
    // Multi-line payloads need one `data:` per line or the consumer
    // sees a truncated document; our payloads are single-line JSON but
    // the framer handles the general case anyway.
    let mut out = format!("id: {id}\nevent: {event}\n");
    for line in data.split('\n') {
        out.push_str("data: ");
        out.push_str(line);
        out.push('\n');
    }
    out.push('\n');
    out
}

/// JSON body of one `/series` window.
fn series_json(s: &Series) -> String {
    let mut out = String::from("{\"name\":");
    crate::json::write_escaped(&mut out, &s.name);
    out.push_str(",\"points\":[");
    for (i, p) in s.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"seq\":{},\"ts\":{},\"value\":{},\"delta\":{}}}",
            p.seq, p.ts, p.value, p.delta
        ));
    }
    out.push_str("],\"rate_per_unit\":");
    match s.rate_per_unit() {
        Some(r) => out.push_str(&format!("{r}")),
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

/// JSON payload of one SSE `snapshot` event: the tick stamp plus every
/// metric's per-tick delta.
fn stream_delta_json(snap: &PlaneSnapshot) -> String {
    let mut out = format!("{{\"seq\":{},\"ts\":{},\"deltas\":{{", snap.seq, snap.ts);
    let mut first = true;
    for s in &snap.series {
        if let Some(p) = s.last() {
            if !first {
                out.push(',');
            }
            first = false;
            crate::json::write_escaped(&mut out, &s.name);
            out.push_str(&format!(":{}", p.delta));
        }
    }
    out.push_str("}}");
    out
}

fn write_response(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // A client that hung up mid-response is its own problem.
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()));
}

struct ServeShared {
    plane: Arc<TelemetryPlane>,
    shutdown: AtomicBool,
    requests: Counter,
    scrape_us: Sketch,
}

fn handle_connection(shared: &ServeShared, mut stream: TcpStream) {
    let t0 = Instant::now();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    let req = loop {
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(_) => return,
        }
        if head.windows(4).any(|w| w == b"\r\n\r\n") {
            break parse_request(&String::from_utf8_lossy(&head));
        }
        if head.len() > MAX_REQUEST_BYTES {
            // Answer before hanging up, so the client learns why.
            shared.requests.incr();
            write_response(
                &mut stream,
                "431 Request Header Fields Too Large",
                "application/json",
                "{\"error\":\"request head too large\"}",
            );
            return;
        }
    };
    shared.requests.incr();
    let Some(req) = req else {
        write_response(
            &mut stream,
            "400 Bad Request",
            "application/json",
            "{\"error\":\"bad request\"}",
        );
        return;
    };
    if req.method != "GET" {
        write_response(
            &mut stream,
            "405 Method Not Allowed",
            "application/json",
            "{\"error\":\"method not allowed, GET only\"}",
        );
        return;
    }
    let snap = shared.plane.latest();
    match req.path.as_str() {
        "/metrics" => write_response(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &prometheus_text(&snap.metrics),
        ),
        "/metrics.json" => {
            let profile = shared.plane.profiler().map(|p| p.snapshot());
            write_response(
                &mut stream,
                "200 OK",
                "application/json",
                &metrics_snapshot_json_with_profile(&snap.metrics, profile.as_ref()),
            );
        }
        "/profile/folded" => match shared.plane.profiler() {
            Some(p) => write_response(
                &mut stream,
                "200 OK",
                "text/plain; charset=utf-8",
                &p.snapshot().folded_text(),
            ),
            None => write_response(
                &mut stream,
                "404 Not Found",
                "application/json",
                "{\"error\":\"no profiler attached\"}",
            ),
        },
        "/profile/flame.svg" => match shared.plane.profiler() {
            Some(p) => write_response(
                &mut stream,
                "200 OK",
                "image/svg+xml",
                &flame_svg(&p.snapshot()),
            ),
            None => write_response(
                &mut stream,
                "404 Not Found",
                "application/json",
                "{\"error\":\"no profiler attached\"}",
            ),
        },
        "/series" => match req.param("name") {
            None => {
                let mut body = String::from("{\"names\":[");
                for (i, s) in snap.series.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    crate::json::write_escaped(&mut body, &s.name);
                }
                body.push_str("]}");
                write_response(&mut stream, "200 OK", "application/json", &body);
            }
            Some(name) => match snap.series(name) {
                Some(s) => {
                    write_response(&mut stream, "200 OK", "application/json", &series_json(s))
                }
                None => write_response(
                    &mut stream,
                    "404 Not Found",
                    "application/json",
                    "{\"error\":\"unknown series\"}",
                ),
            },
        },
        "/stream" => {
            let _ = stream.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                  Cache-Control: no-cache\r\nConnection: close\r\n\r\n",
            );
            let mut last = 0u64;
            if snap.seq > 0 {
                let frame = sse_frame(snap.seq, "snapshot", &stream_delta_json(&snap));
                if stream.write_all(frame.as_bytes()).is_err() {
                    return;
                }
                last = snap.seq;
            }
            let mut idle = Duration::ZERO;
            while !shared.shutdown.load(Ordering::Relaxed) {
                let Some(snap) = shared.plane.wait_newer(last, SSE_POLL) else {
                    // Nothing published: keep the idle connection alive
                    // through proxies with comment frames.
                    idle += SSE_POLL;
                    if idle >= SSE_KEEPALIVE {
                        idle = Duration::ZERO;
                        if stream.write_all(sse_keepalive_frame().as_bytes()).is_err() {
                            return;
                        }
                    }
                    continue;
                };
                idle = Duration::ZERO;
                last = snap.seq;
                let frame = sse_frame(snap.seq, "snapshot", &stream_delta_json(&snap));
                if stream.write_all(frame.as_bytes()).is_err() {
                    return; // client went away
                }
            }
        }
        _ => write_response(
            &mut stream,
            "404 Not Found",
            "application/json",
            "{\"error\":\"not found\"}",
        ),
    }
    shared.scrape_us.record(t0.elapsed().as_micros() as u64);
}

/// A running scrape endpoint. Dropping (or [`TelemetryServer::shutdown`])
/// stops accepting; in-flight SSE streams notice within [`SSE_POLL`].
pub struct TelemetryServer {
    addr: SocketAddr,
    shared: Arc<ServeShared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `plane` in background threads. The server records
    /// its own telemetry through the plane's registry:
    /// `obs.serve.requests` (scheduling-dependent: it counts scrapes) and
    /// the `obs.serve.scrape_us` sketch.
    pub fn bind(plane: Arc<TelemetryPlane>, addr: &str) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let registry = plane.obs().registry();
        let shared = Arc::new(ServeShared {
            requests: registry.counter("obs.serve.requests", MetricClass::Scheduling),
            scrape_us: registry.sketch("obs.serve.scrape_us"),
            plane,
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("jportal-telemetry".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_shared.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let conn_shared = Arc::clone(&accept_shared);
                    let _ = std::thread::Builder::new()
                        .name("jportal-telemetry-conn".into())
                        .spawn(move || handle_connection(&conn_shared, stream));
                }
            })?;
        Ok(TelemetryServer {
            addr: local,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `http://<addr>` — the base URL clients scrape.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Stops accepting and joins the accept thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // The accept loop blocks in `incoming()`; a self-connection
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop();
        }
    }
}

impl std::fmt::Debug for TelemetryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryServer")
            .field("addr", &self.addr)
            .finish()
    }
}

/// A minimal HTTP response as [`http_get`] returns it.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Numeric status code from the status line.
    pub status: u16,
    /// Everything after the blank line.
    pub body: String,
}

/// A one-shot `GET` over a fresh connection — the in-tree client the
/// inspect tool, the live example and the loopback tests share. Only
/// `http://host:port/path` URLs; reads until the server closes.
pub fn http_get(url: &str) -> std::io::Result<HttpResponse> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidInput, m.to_string());
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| bad("only http:// URLs"))?;
    let (host, path) = match rest.split_once('/') {
        Some((h, p)) => (h, format!("/{p}")),
        None => (rest, "/".to_string()),
    };
    let mut stream = TcpStream::connect(host)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status: u16 = text
        .lines()
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let body = match text.find("\r\n\r\n") {
        Some(at) => text[at + 4..].to_string(),
        None => String::new(),
    };
    Ok(HttpResponse { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parsing() {
        let r =
            parse_request("GET /series?name=counter.x&w=1 HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/series");
        assert_eq!(r.param("name"), Some("counter.x"));
        assert_eq!(r.param("w"), Some("1"));
        assert_eq!(r.param("missing"), None);
        let bare = parse_request("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(bare.path, "/");
        assert_eq!(bare.query, "");
        assert!(parse_request("").is_none());
        assert!(parse_request("GET /x").is_none());
        assert!(parse_request("GET /x SPDY/9").is_none());
        assert!(parse_request("GET /x HTTP/1.1 extra").is_none());
    }

    #[test]
    fn sse_framing() {
        assert_eq!(
            sse_frame(7, "snapshot", "{\"a\":1}"),
            "id: 7\nevent: snapshot\ndata: {\"a\":1}\n\n"
        );
        // Multi-line payloads become one data: line each.
        assert_eq!(
            sse_frame(1, "snapshot", "a\nb"),
            "id: 1\nevent: snapshot\ndata: a\ndata: b\n\n"
        );
    }

    #[test]
    fn series_json_is_valid() {
        use crate::series::{Series, SeriesPoint};
        let s = Series {
            name: "counter.x".into(),
            points: vec![
                SeriesPoint {
                    seq: 0,
                    ts: 10,
                    value: 5,
                    delta: 5,
                },
                SeriesPoint {
                    seq: 1,
                    ts: 20,
                    value: 3,
                    delta: -2,
                },
            ],
        };
        let doc = series_json(&s);
        crate::json::validate(&doc).expect("series json parses");
        assert!(doc.contains("\"delta\":-2"));
        let empty = Series {
            name: "g".into(),
            points: Vec::new(),
        };
        crate::json::validate(&series_json(&empty)).unwrap();
        assert!(series_json(&empty).contains("\"rate_per_unit\":null"));
    }
}
