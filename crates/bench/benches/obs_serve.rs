//! Live-telemetry cost: end-to-end analysis with the telemetry plane
//! (and a scraping client!) on vs fully off, plus the scrape-side
//! latency distribution of the loopback endpoint.
//!
//! Writes `BENCH_obs.json` at the repo root with both signals:
//!
//! * `telemetry_overhead_delta` — analysis wall time with an attached
//!   plane + live scraper over the plain pipeline, as the ratio of each
//!   side's fastest rep (interference-robust; medians are reported too).
//!   Budget: <5% on full runs.
//! * `scrape_p99_us` — client-observed p99 latency of `/metrics.json`
//!   over loopback while analyses run. Budget: 25 ms.
//!
//! Like the other bench gates, `JPORTAL_BENCH_GATE=1` turns a breach
//! into a hard failure for CI, and the overhead check requires BOTH
//! signals before it trips: the absolute budget, and a >5-point
//! regression of the committed `telemetry_overhead_delta`. A real
//! overhead regression moves both; scheduler noise on a shared vCPU
//! (this container's wall clock drifts ±30% between invocations) moves
//! only the absolute one. Ungated runs report the breach and refuse to
//! overwrite the baseline instead of failing. As elsewhere, a run that
//! regresses the committed baseline median by >10% refuses to overwrite
//! the file unless forced (`--force` / `JPORTAL_BENCH_FORCE=1`), and
//! quick-mode runs (`JPORTAL_BENCH_QUICK=1`) report against the
//! committed file but never rewrite it.

use criterion::{criterion_group, criterion_main, Criterion};
use jportal_core::{JPortal, JPortalConfig};
use jportal_jvm::runtime::{Jvm, JvmConfig};
use jportal_obs::{
    http_get, prometheus_text, MetricClass, Obs, TelemetryConfig, TelemetryPlane, TelemetryServer,
};
use jportal_workloads::workload_by_name;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Budget on the telemetry-on analysis overhead. Quick mode (7 reps on
/// shared CI vCPUs) is too noisy for the real line, so it gets a
/// relaxed smoke budget; the 5% claim is enforced by full runs and by
/// the committed `BENCH_obs.json`.
fn overhead_budget() -> f64 {
    if quick() {
        0.10
    } else {
        0.05
    }
}
/// Budget on the client-observed p99 scrape latency (µs).
const SCRAPE_P99_BUDGET_US: f64 = 25_000.0;

fn gate() -> bool {
    std::env::var("JPORTAL_BENCH_GATE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn quick() -> bool {
    std::env::var("JPORTAL_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn force() -> bool {
    std::env::var("JPORTAL_BENCH_FORCE")
        .map(|v| v == "1")
        .unwrap_or(false)
        || std::env::args().any(|a| a == "--force")
}

/// Pulls `"key": <number>` out of the committed JSON (no parser dep).
fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

struct ObsNumbers {
    off_median: f64,
    on_median: f64,
    delta: f64,
    scrapes: usize,
    scrape_p50_us: f64,
    scrape_p99_us: f64,
}

/// Paired overhead measurement: the "on" side analyzes with a live
/// plane, a bound listener and a client scraping `/metrics.json` at
/// ~40 Hz — already orders of magnitude hotter than a production
/// scraper, but with several samples per measurement phase.
fn measure(reps: usize) -> ObsNumbers {
    // Large enough that per-analysis fixed costs (three stage ticks,
    // ~25 µs each) amortize into the noise — the budget is about the
    // production regime, not sub-millisecond toy runs.
    let w = workload_by_name("luindex", 48);
    let r = Jvm::new(JvmConfig {
        tracing: true,
        ..JvmConfig::default()
    })
    .run_threads(&w.program, &w.threads);
    let traces = r.traces.as_ref().unwrap();

    let jp_off = JPortal::new(&w.program);
    let jp_on = JPortal::with_config(
        &w.program,
        JPortalConfig {
            telemetry: Some(TelemetryConfig::default()),
            ..JPortalConfig::default()
        },
    );
    let plane = Arc::clone(jp_on.telemetry_plane().expect("telemetry on"));
    let server = TelemetryServer::bind(plane, "127.0.0.1:0").expect("loopback bind");
    let url = format!("{}/metrics.json", server.url());

    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut lat_us = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let t0 = Instant::now();
                let ok = http_get(&url).map(|r| r.status == 200).unwrap_or(false);
                if ok {
                    lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            lat_us
        })
    };

    let time = |jp: &JPortal| -> f64 {
        let t0 = Instant::now();
        criterion::black_box(jp.analyze(traces, &r.archive));
        t0.elapsed().as_secs_f64()
    };
    time(&jp_off); // warm-up
    time(&jp_on);
    // Order-alternated samples, gated on the ratio of per-side minima:
    // the plane's cost is systematic while scheduler interference (the
    // scraper thread included) is strictly additive, so the fastest rep
    // on each side isolates the real delta — medians of a dozen reps on
    // a shared vCPU swing ±5% run to run, minima hold steady.
    let mut off = Vec::with_capacity(reps);
    let mut on = Vec::with_capacity(reps);
    for i in 0..reps {
        let (a, b) = if i % 2 == 0 {
            let a = time(&jp_off);
            (a, time(&jp_on))
        } else {
            let b = time(&jp_on);
            (time(&jp_off), b)
        };
        off.push(a);
        on.push(b);
    }
    stop.store(true, Ordering::Relaxed);
    let mut lat_us = scraper.join().expect("scraper thread");
    server.shutdown();

    let median = |v: &mut Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let off_min = off.iter().copied().fold(f64::INFINITY, f64::min);
    let on_min = on.iter().copied().fold(f64::INFINITY, f64::min);
    let off_median = median(&mut off);
    let on_median = median(&mut on);
    let delta = on_min / off_min - 1.0;
    lat_us.sort_by(f64::total_cmp);
    let pct = |q: f64| -> f64 {
        if lat_us.is_empty() {
            return 0.0;
        }
        lat_us[((q * lat_us.len() as f64) as usize).min(lat_us.len() - 1)]
    };
    ObsNumbers {
        off_median,
        on_median,
        delta,
        scrapes: lat_us.len(),
        scrape_p50_us: pct(0.50),
        scrape_p99_us: pct(0.99),
    }
}

fn write_obs_report(n: &ObsNumbers, reps: usize) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_obs.json");
    let committed = std::fs::read_to_string(&path).ok();
    let committed_delta = committed
        .as_deref()
        .and_then(|j| json_number(j, "telemetry_overhead_delta"));
    let committed_off = committed
        .as_deref()
        .and_then(|j| json_number(j, "e2e_off_median_seconds"));
    println!(
        "obs_serve gate: overhead {:+.1}% (budget {:.0}%, committed {:+.1}%), \
         scrape p99 {:.0} µs over {} scrapes (budget {:.0} µs)",
        n.delta * 100.0,
        overhead_budget() * 100.0,
        committed_delta.unwrap_or(0.0) * 100.0,
        n.scrape_p99_us,
        n.scrapes,
        SCRAPE_P99_BUDGET_US
    );

    // Dual-signal overhead check: a breach needs the absolute budget
    // AND a >5-point regression of the committed delta (absent a
    // committed file the budget alone decides). The p99 budget is 6x
    // the loaded-loopback p99, so it stays a single signal.
    let mut breached = false;
    if n.delta > overhead_budget() && committed_delta.map(|c| n.delta > c + 0.05).unwrap_or(true) {
        eprintln!(
            "FAILED: telemetry-on overhead {:+.1}% exceeds the {:.0}% budget and regresses \
             the committed {:+.1}% by >5 points",
            n.delta * 100.0,
            overhead_budget() * 100.0,
            committed_delta.unwrap_or(0.0) * 100.0
        );
        breached = true;
    }
    if n.scrapes >= 2 && n.scrape_p99_us > SCRAPE_P99_BUDGET_US {
        eprintln!(
            "FAILED: p99 scrape latency {:.0} µs exceeds the {:.0} µs budget",
            n.scrape_p99_us, SCRAPE_P99_BUDGET_US
        );
        breached = true;
    }
    if n.scrapes < 2 {
        eprintln!("FAILED: only {} scrapes landed during the run", n.scrapes);
        breached = true;
    }
    if breached {
        if gate() {
            std::process::exit(1);
        }
        if !force() {
            println!("BENCH_obs.json NOT overwritten: budget breached (see FAILED lines above)");
            return;
        }
    }

    if let Some(committed) = committed_off {
        if n.off_median > committed * 1.10 && !force() {
            println!(
                "BENCH_obs.json NOT overwritten: baseline median {:.3} ms regresses the \
                 committed {:.3} ms by >10% (rerun with --force or JPORTAL_BENCH_FORCE=1)",
                n.off_median * 1e3,
                committed * 1e3
            );
            return;
        }
        // Quick-mode runs are too noisy to become the baseline.
        if quick() && !force() {
            println!(
                "BENCH_obs.json kept (quick mode): overhead {:+.1}%, p99 scrape {:.0} µs \
                 (committed baseline {:.3} ms)",
                n.delta * 100.0,
                n.scrape_p99_us,
                committed * 1e3
            );
            return;
        }
    }

    let json = format!(
        "{{\n  \"workload\": \"luindex@48\",\n  \"iterations\": {reps},\n  \
         \"e2e_off_median_seconds\": {:.6},\n  \
         \"e2e_telemetry_median_seconds\": {:.6},\n  \
         \"telemetry_overhead_delta\": {:.4},\n  \
         \"scrape_count\": {},\n  \
         \"scrape_p50_us\": {:.0},\n  \
         \"scrape_p99_us\": {:.0}\n}}\n",
        n.off_median, n.on_median, n.delta, n.scrapes, n.scrape_p50_us, n.scrape_p99_us
    );
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("BENCH_obs.json not written: {e}");
    } else {
        println!(
            "BENCH_obs.json: off {:.3} ms, telemetry+scraper {:.3} ms ({:+.1}%), \
             {} scrapes, p50/p99 {:.0}/{:.0} µs",
            n.off_median * 1e3,
            n.on_median * 1e3,
            n.delta * 100.0,
            n.scrapes,
            n.scrape_p50_us,
            n.scrape_p99_us
        );
    }
}

/// Micro-costs of the plane itself: one stage tick (snapshot + series
/// append + publish) and one full Prometheus render.
fn bench_plane(c: &mut Criterion) {
    let obs = Obs::new(true);
    // A registry the size of a real run's.
    let (reg, exact) = (obs.registry(), MetricClass::Exact);
    for i in 0..24 {
        reg.counter(&format!("bench.counter{i}"), exact).add(i);
        reg.gauge(&format!("bench.gauge{i}"), exact).set(i);
    }
    let s = obs.registry().sketch("bench.lat_us");
    for v in 0..4096u64 {
        s.record(v * 7 % 50_000);
    }
    let plane = TelemetryPlane::new(
        obs.clone(),
        TelemetryConfig {
            deterministic: true,
            ..TelemetryConfig::default()
        },
    );

    let mut g = c.benchmark_group("obs_serve");
    g.bench_function("plane_tick_stage", |b| b.iter(|| plane.tick_stage()));
    g.bench_function("sketch_record", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(7919);
            s.record(i % 1_000_000);
        })
    });
    g.bench_function("prometheus_text", |b| {
        let snap = plane.latest();
        b.iter(|| criterion::black_box(prometheus_text(&snap.metrics)))
    });
    g.finish();

    let reps = if quick() { 7 } else { 31 };
    let numbers = measure(reps);
    write_obs_report(&numbers, reps);
}

criterion_group!(benches, bench_plane);
criterion_main!(benches);
