//! Wire-format tests for the live telemetry plane: the Prometheus text
//! exposition pinned against a golden file, SSE framing, and a loopback
//! integration test that scrapes a real listener while a producer
//! thread ticks the plane.

use jportal_obs::json::{self, Value};
use jportal_obs::{
    http_get, metrics_snapshot_json, prometheus_text, sse_frame, sse_keepalive_frame, MetricClass,
    MetricsRegistry, Obs, TelemetryConfig, TelemetryPlane, TelemetryServer,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A small deterministic registry exercising every exposition family
/// plus name sanitization and HELP escaping (the backslash in
/// `esc\ape.count` must double in the HELP line, and every
/// non-alphanumeric character must flatten to `_` in the family name).
fn golden_registry() -> MetricsRegistry {
    let reg = MetricsRegistry::new(true);
    reg.counter("decode.packets", MetricClass::Exact).add(1234);
    reg.counter("esc\\ape.count", MetricClass::Exact).add(1);
    reg.gauge("ring.high-water", MetricClass::Exact).set_max(77);
    let s = reg.sketch("s.lat_us");
    s.record(40);
    s.record(4000);
    reg
}

#[test]
fn prometheus_text_matches_golden() {
    let text = prometheus_text(&golden_registry().snapshot());
    if std::env::var("REGENERATE_GOLDEN").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom");
        std::fs::write(path, &text).unwrap();
    }
    let golden = include_str!("golden/metrics.prom");
    assert_eq!(
        text, golden,
        "Prometheus exposition drifted from tests/golden/metrics.prom; if the \
         change is intentional, rerun with REGENERATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn sse_frames_are_terminated_and_ordered() {
    let f = sse_frame(3, "snapshot", "{\"seq\":3}");
    assert!(f.starts_with("id: 3\nevent: snapshot\n"));
    assert!(f.ends_with("\n\n"), "frame must end with a blank line");
    // A multi-line payload becomes one data: line per payload line, so
    // an SSE consumer reassembles the exact document.
    let multi = sse_frame(4, "snapshot", "{\n}");
    let data: Vec<&str> = multi
        .lines()
        .filter_map(|l| l.strip_prefix("data: "))
        .collect();
    assert_eq!(data, ["{", "}"]);
}

#[test]
fn sse_keepalive_is_a_comment_frame() {
    let f = sse_keepalive_frame();
    // Per the SSE spec a line starting with ':' is a comment the client
    // discards; the blank line terminates the (empty) event so buffered
    // parsers flush it without dispatching anything.
    assert!(f.starts_with(':'), "keep-alive must be an SSE comment");
    assert!(f.ends_with("\n\n"), "frame must end with a blank line");
    assert!(
        !f.contains("data:") && !f.contains("id:") && !f.contains("event:"),
        "keep-alive must not carry fields a client would dispatch"
    );
    // Interleaving keep-alives with real frames must not corrupt the
    // stream: splitting on the blank-line terminator recovers both.
    let stream = format!("{}{}", f, sse_frame(9, "snapshot", "{\"seq\":9}"));
    let frames: Vec<&str> = stream.split("\n\n").filter(|s| !s.is_empty()).collect();
    assert_eq!(frames.len(), 2);
    assert!(frames[0].starts_with(':'));
    assert!(frames[1].starts_with("id: 9\n"));
}

/// Sends a raw request head and returns `(status_line, body)`. Used for
/// the negative paths `http_get` cannot produce (non-GET methods,
/// oversized heads).
fn raw_request(addr: &str, head: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // The oversized-head case leaves bytes the server never reads, so
    // its close may RST the connection — tolerate write and trailing
    // read errors and parse whatever response bytes arrived (the
    // response is written before the close, so it is ordered first).
    let _ = stream.write_all(head.as_bytes());
    let mut raw = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
        }
    }
    let text = String::from_utf8_lossy(&raw).to_string();
    let head_end = text.find("\r\n\r\n").expect("response has a head");
    let status = text.lines().next().unwrap().to_string();
    (status, text[head_end + 4..].to_string())
}

/// Every 4xx body is a strict-JSON `{"error": ...}` document so
/// programmatic scrapers never have to parse ad-hoc text.
#[test]
fn error_paths_return_json_4xx() {
    let obs = Obs::new(true);
    let plane = TelemetryPlane::new(obs, TelemetryConfig::default());
    let server = TelemetryServer::bind(Arc::clone(&plane), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    let assert_error = |status: &str, body: &str, code: &str| {
        assert!(
            status.starts_with(&format!("HTTP/1.1 {code}")),
            "expected {code}, got {status}"
        );
        json::validate(body).unwrap_or_else(|e| panic!("error body not strict JSON ({e}): {body}"));
        let doc = json::parse(body).unwrap();
        assert!(
            matches!(doc.get("error"), Some(Value::Str(_))),
            "error body must carry a string `error` key: {body}"
        );
    };

    // Unknown series name.
    let r = http_get(&format!("http://{addr}/series?name=no.such.series")).unwrap();
    assert_eq!(r.status, 404);
    json::validate(&r.body).expect("404 body is strict JSON");

    // Unknown path.
    let r = http_get(&format!("http://{addr}/definitely-not-a-route")).unwrap();
    assert_eq!(r.status, 404);
    json::validate(&r.body).expect("404 body is strict JSON");

    // No profiler attached: profile routes 404 rather than serving an
    // empty document.
    for route in ["/profile/folded", "/profile/flame.svg"] {
        let r = http_get(&format!("http://{addr}{route}")).unwrap();
        assert_eq!(r.status, 404, "{route} without a profiler");
    }

    // POST is not allowed anywhere.
    let (status, body) = raw_request(
        &addr,
        &format!("POST /metrics HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\n\r\n"),
    );
    assert_error(&status, &body, "405");

    // A request head larger than the server's read budget must be
    // rejected cleanly, not silently dropped.
    let huge = format!(
        "GET /metrics?junk={} HTTP/1.1\r\nHost: {addr}\r\n\r\n",
        "x".repeat(16 * 1024)
    );
    let (status, body) = raw_request(&addr, &huge);
    assert_error(&status, &body, "431");

    // Malformed request line.
    let (status, body) = raw_request(&addr, "nonsense\r\n\r\n");
    assert_error(&status, &body, "400");

    server.shutdown();
}

/// Reads the head plus the first SSE frame from `/stream` on a raw
/// socket (`http_get` would block until shutdown: the stream never
/// closes on its own).
fn first_sse_frame(addr: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(format!("GET /stream HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
        .unwrap();
    let mut text = String::new();
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf).expect("stream read");
        assert!(n > 0, "stream closed before the first frame");
        text.push_str(&String::from_utf8_lossy(&buf[..n]));
        if let Some(head_end) = text.find("\r\n\r\n") {
            if let Some(frame_end) = text[head_end + 4..].find("\n\n") {
                return text[head_end + 4..head_end + 4 + frame_end].to_string();
            }
        }
    }
}

/// End-to-end over loopback: a producer thread ticks the plane while a
/// client scrapes every endpoint. Counters may only move up between
/// scrapes, every JSON body must satisfy the strict parser, and the
/// stream endpoint must replay the newest snapshot immediately.
#[test]
fn loopback_scrape_while_producing() {
    let obs = Obs::new(true);
    let plane = TelemetryPlane::new(
        obs.clone(),
        TelemetryConfig {
            deterministic: true,
            ..TelemetryConfig::default()
        },
    );
    let server = TelemetryServer::bind(Arc::clone(&plane), "127.0.0.1:0").unwrap();
    let url = server.url();
    let work = obs.registry().counter("work.items", MetricClass::Exact);

    let producer = std::thread::spawn({
        let plane = Arc::clone(&plane);
        let work = work.clone();
        move || {
            for _ in 0..40 {
                work.add(3);
                plane.tick_stage();
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    });

    // Scrape /metrics.json while the producer runs; sampled counter
    // values must be monotone.
    let mut seen = Vec::new();
    while !producer.is_finished() {
        let r = http_get(&format!("{url}/metrics.json")).unwrap();
        assert_eq!(r.status, 200);
        json::validate(&r.body).expect("metrics.json is strict JSON");
        let doc = json::parse(&r.body).unwrap();
        if let Some(v) = doc
            .get("counters")
            .and_then(|c| c.get("work.items"))
            .and_then(Value::as_num)
        {
            seen.push(v as u64);
        }
    }
    producer.join().unwrap();
    assert!(
        seen.windows(2).all(|w| w[0] <= w[1]),
        "mid-run counter regressed: {seen:?}"
    );

    // After the run: every endpoint, final state.
    let snap = plane.latest();
    assert_eq!(snap.seq, 40, "one published snapshot per stage tick");
    let prom = http_get(&format!("{url}/metrics")).unwrap();
    assert_eq!(prom.status, 200);
    assert!(prom.body.contains("jportal_work_items 120"));
    assert_eq!(prom.body, prometheus_text(&snap.metrics));

    let mj = http_get(&format!("{url}/metrics.json")).unwrap();
    assert_eq!(mj.body, metrics_snapshot_json(&snap.metrics));

    let names = http_get(&format!("{url}/series")).unwrap();
    assert!(names.body.contains("\"counter.work.items\""));
    let series = http_get(&format!("{url}/series?name=counter.work.items")).unwrap();
    json::validate(&series.body).unwrap();
    let doc = json::parse(&series.body).unwrap();
    let Some(Value::Arr(points)) = doc.get("points") else {
        panic!("series window has no points: {}", series.body);
    };
    assert_eq!(points.len(), 40);
    // Deterministic plane: ticks are stamped with their logical index.
    let last = points.last().unwrap();
    assert_eq!(last.get("ts").and_then(Value::as_num), Some(39.0));
    assert_eq!(last.get("value").and_then(Value::as_num), Some(120.0));
    assert_eq!(last.get("delta").and_then(Value::as_num), Some(3.0));

    let missing = http_get(&format!("{url}/series?name=nope")).unwrap();
    assert_eq!(missing.status, 404);

    let frame = first_sse_frame(&server.addr().to_string());
    assert!(
        frame.starts_with("id: 40\n"),
        "stream must replay the newest snapshot: {frame}"
    );
    let data = frame
        .lines()
        .find_map(|l| l.strip_prefix("data: "))
        .expect("frame has data");
    json::validate(data).expect("SSE payload is strict JSON");
    let delta = json::parse(data).unwrap();
    assert_eq!(delta.get("seq").and_then(Value::as_num), Some(40.0));
    assert_eq!(
        delta
            .get("deltas")
            .and_then(|d| d.get("counter.work.items"))
            .and_then(Value::as_num),
        Some(3.0)
    );

    // The server records its own traffic through the same plane.
    plane.tick_stage();
    let snap = plane.latest();
    assert!(snap.metrics.counter("obs.serve.requests").unwrap_or(0) >= 7);
    let scrape = snap.metrics.sketch("obs.serve.scrape_us").unwrap();
    assert!(scrape.count >= 1, "scrape latency sketch must be fed");

    server.shutdown();
}
