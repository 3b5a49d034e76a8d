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
//! The baseline follows the shared protocol (`jportal_bench::gate`).
//! The overhead check requires BOTH signals before it counts as a
//! breach: the absolute budget, and a >5-point regression of the
//! committed `telemetry_overhead_delta`. A real overhead regression
//! moves both; scheduler noise on a shared vCPU (wall time on a 2-vCPU
//! box drifts ±30% between invocations) moves only the absolute one.
//! An off-side median more than 10% over the committed one is a
//! regression.

use criterion::{criterion_group, criterion_main, Criterion};
use jportal_bench::gate::{self, Baseline, Mode};
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
fn overhead_budget(mode: Mode) -> f64 {
    if mode.quick {
        0.10
    } else {
        0.05
    }
}
/// Budget on the client-observed p99 scrape latency (µs).
const SCRAPE_P99_BUDGET_US: f64 = 25_000.0;

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

    // Gated on the ratio of per-side minima: the plane's cost is
    // systematic while scheduler interference (the scraper thread
    // included) is strictly additive, so the fastest rep on each side
    // isolates the real delta — medians of a dozen reps on a shared vCPU
    // swing ±5% run to run, minima hold steady.
    let (off, on) = gate::paired(
        reps,
        || jp_off.analyze(traces, &r.archive),
        || jp_on.analyze(traces, &r.archive),
    );
    stop.store(true, Ordering::Relaxed);
    let mut lat_us = scraper.join().expect("scraper thread");
    server.shutdown();

    let delta = gate::min(&on) / gate::min(&off) - 1.0;
    lat_us.sort_by(f64::total_cmp);
    let pct = |q: f64| -> f64 {
        if lat_us.is_empty() {
            return 0.0;
        }
        lat_us[((q * lat_us.len() as f64) as usize).min(lat_us.len() - 1)]
    };
    ObsNumbers {
        off_median: gate::median(&off),
        on_median: gate::median(&on),
        delta,
        scrapes: lat_us.len(),
        scrape_p50_us: pct(0.50),
        scrape_p99_us: pct(0.99),
    }
}

fn write_obs_report(mode: Mode, n: &ObsNumbers, reps: usize) {
    let mut base = Baseline::open("BENCH_obs.json", mode);
    let committed_delta = base.number("telemetry_overhead_delta");
    let budget = overhead_budget(mode);
    println!(
        "obs_serve gate: overhead {:+.1}% (budget {:.0}%, committed {:+.1}%), \
         scrape p99 {:.0} µs over {} scrapes (budget {:.0} µs)",
        n.delta * 100.0,
        budget * 100.0,
        committed_delta.unwrap_or(0.0) * 100.0,
        n.scrape_p99_us,
        n.scrapes,
        SCRAPE_P99_BUDGET_US
    );

    // Dual-signal overhead check: a breach needs the absolute budget
    // AND a >5-point regression of the committed delta (absent a
    // committed file the budget alone decides). The p99 budget is 6x
    // the loaded-loopback p99, so it stays a single signal.
    if n.delta > budget && committed_delta.is_none_or(|c| n.delta > c + 0.05) {
        base.fail(&format!(
            "telemetry-on overhead {:+.1}% exceeds the {:.0}% budget and regresses \
             the committed {:+.1}% by >5 points",
            n.delta * 100.0,
            budget * 100.0,
            committed_delta.unwrap_or(0.0) * 100.0
        ));
    }
    if n.scrapes >= 2 && n.scrape_p99_us > SCRAPE_P99_BUDGET_US {
        base.fail(&format!(
            "p99 scrape latency {:.0} µs exceeds the {:.0} µs budget",
            n.scrape_p99_us, SCRAPE_P99_BUDGET_US
        ));
    }
    if n.scrapes < 2 {
        base.fail(&format!("only {} scrapes landed during the run", n.scrapes));
    }
    if let Some(committed) = base.number("e2e_off_median_seconds") {
        if n.off_median > committed * 1.10 {
            base.regress(&format!(
                "baseline median {:.3} ms regresses the committed {:.3} ms by >10%",
                n.off_median * 1e3,
                committed * 1e3
            ));
        }
    }
    base.commit(&[
        ("workload", "\"luindex@48\"".to_string()),
        ("iterations", reps.to_string()),
        ("e2e_off_median_seconds", format!("{:.6}", n.off_median)),
        (
            "e2e_telemetry_median_seconds",
            format!("{:.6}", n.on_median),
        ),
        ("telemetry_overhead_delta", format!("{:.4}", n.delta)),
        ("scrape_count", n.scrapes.to_string()),
        ("scrape_p50_us", format!("{:.0}", n.scrape_p50_us)),
        ("scrape_p99_us", format!("{:.0}", n.scrape_p99_us)),
    ]);
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

    let mode = Mode::from_env();
    let reps = if mode.quick { 7 } else { 31 };
    let numbers = measure(reps);
    write_obs_report(mode, &numbers, reps);
}

criterion_group!(benches, bench_plane);
criterion_main!(benches);
