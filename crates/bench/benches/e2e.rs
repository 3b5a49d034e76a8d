//! End-to-end pipeline throughput: per-core traces + metadata in,
//! reconstructed per-thread control flow out (decode → project →
//! recover), on a lossy multi-mode workload.
//!
//! Besides the criterion groups, this bench maintains `BENCH_e2e.json`
//! at the repo root under the shared baseline protocol
//! (`jportal_bench::gate`): the median and fastest end-to-end analysis
//! wall time and the journal/telemetry overhead delta (observability on
//! vs off, median of paired order-alternated runs), so CI keeps a
//! machine-readable record of these numbers per commit. A fastest run
//! more than 10% over the committed one, or a large-trace median and
//! throughput that both regress >10%, refuses the overwrite in a full
//! run; neither fails a quick run.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use jportal_bench::gate::{self, Baseline, Mode};
use jportal_core::{JPortal, JPortalConfig};
use jportal_jvm::runtime::{Jvm, JvmConfig};
use jportal_workloads::workload_by_name;
use std::time::Instant;

/// The large-trace subject: a lossless high-scale run that decodes to
/// over a million trace events, exercising the pipeline in the regime
/// where per-event costs dominate per-hole costs. The event count is a
/// deterministic property of the workload, so falling under the floor is
/// a hard failure, not a gate.
const LARGE_EVENT_FLOOR: usize = 1_000_000;

struct LargeNumbers {
    workload: &'static str,
    scale: u32,
    events: usize,
    median_s: f64,
}

impl LargeNumbers {
    fn events_per_second(&self) -> f64 {
        self.events as f64 / self.median_s.max(1e-12)
    }
}

/// Runs and measures the ≥1M-event configuration.
fn measure_large(mode: Mode) -> LargeNumbers {
    let (name, scale) = ("lusearch", 130);
    let w = workload_by_name(name, scale);
    let r = Jvm::new(JvmConfig {
        tracing: true,
        // A ring large enough that nothing overflows: this entry measures
        // decode+project throughput on volume, not recovery.
        pt_buffer_capacity: 1 << 22,
        ..JvmConfig::default()
    })
    .run_threads(&w.program, &w.threads);
    let traces = r.traces.as_ref().unwrap();
    let jp = JPortal::new(&w.program);
    let events = jp.analyze(traces, &r.archive).total_entries(); // warm-up
    if events < LARGE_EVENT_FLOOR {
        eprintln!("FAILED: large-trace config decoded {events} events (< {LARGE_EVENT_FLOOR})");
        std::process::exit(1);
    }
    let reps = if mode.quick { 3 } else { 9 };
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            criterion::black_box(jp.analyze(traces, &r.archive));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    LargeNumbers {
        workload: name,
        scale,
        events,
        median_s: gate::median(&times),
    }
}

/// Small-trace repetitions per configuration in a full run. One
/// analysis takes under a millisecond, so a thousand pairs cost about
/// two seconds. The regression check reads the fastest of them: on a
/// shared machine scheduler and cache noise only ever add time, and a
/// median of a few dozen sub-millisecond runs moves by more than the
/// 10% line between identical runs.
const SMALL_REPS: usize = 1001;

/// Measures the end-to-end medians and commits `BENCH_e2e.json`.
fn write_e2e_report(
    mode: Mode,
    w: &jportal_workloads::Workload,
    r: &jportal_jvm::RunResult,
    large: &LargeNumbers,
) {
    let traces = r.traces.as_ref().unwrap();
    let reps = if mode.quick { 31 } else { SMALL_REPS };
    let build = |observability: bool| {
        JPortal::with_config(
            &w.program,
            JPortalConfig {
                observability,
                ..JPortalConfig::default()
            },
        )
    };
    let (jp_off, jp_on) = (build(false), build(true));
    // Same pairing as `observe --overhead`; the median discards outlier reps.
    let (off, on) = gate::paired(
        reps,
        || jp_off.analyze(traces, &r.archive),
        || jp_on.analyze(traces, &r.archive),
    );
    let off_median = gate::median(&off);
    let off_min = gate::min(&off);
    let on_median = gate::median(&on);
    let delta = on_median / off_median - 1.0;
    println!(
        "e2e: median {:.3} ms, fastest {:.3} ms, journal overhead {:+.1}%, \
         large trace {} events at {:.0} ev/s",
        off_median * 1e3,
        off_min * 1e3,
        delta * 100.0,
        large.events,
        large.events_per_second()
    );

    let mut base = Baseline::open("BENCH_e2e.json", mode);
    if let Some(committed) = base.number("e2e_min_seconds") {
        if off_min > committed * 1.10 {
            base.regress(&format!(
                "fastest run {:.3} ms regresses the committed {:.3} ms by >10%",
                off_min * 1e3,
                committed * 1e3
            ));
        }
    }
    // Dual signal on the large entry: wall time alone is not a
    // regression when the event count moved with it, so it needs the
    // median worse by >10% *and* the per-event throughput down >10%.
    if let (Some(bm), Some(be)) = (
        base.number("large_median_seconds"),
        base.number("large_events_per_second"),
    ) {
        if large.median_s > bm * 1.10 && large.events_per_second() < be * 0.90 {
            base.regress(&format!(
                "large-trace median {:.1} ms and throughput {:.0} ev/s both regress >10% \
                 (committed {:.1} ms, {:.0} ev/s)",
                large.median_s * 1e3,
                large.events_per_second(),
                bm * 1e3,
                be
            ));
        }
    }
    base.commit(&[
        ("workload", format!("\"{}\"", w.name)),
        ("iterations", reps.to_string()),
        ("e2e_median_seconds", format!("{off_median:.6}")),
        ("e2e_min_seconds", format!("{off_min:.6}")),
        ("e2e_with_journal_median_seconds", format!("{on_median:.6}")),
        ("journal_overhead_delta", format!("{delta:.4}")),
        (
            "large_workload",
            format!("\"{}@{}\"", large.workload, large.scale),
        ),
        ("large_total_events", large.events.to_string()),
        ("large_median_seconds", format!("{:.6}", large.median_s)),
        (
            "large_events_per_second",
            format!("{:.0}", large.events_per_second()),
        ),
    ]);
}

fn bench_e2e(c: &mut Criterion) {
    let w = workload_by_name("luindex", 3);
    let r = Jvm::new(JvmConfig {
        tracing: true,
        pt_buffer_capacity: 4096,
        drain_bytes_per_kilocycle: 30,
        ..JvmConfig::default()
    })
    .run_threads(&w.program, &w.threads);
    let traces = r.traces.as_ref().unwrap();
    let bytes: u64 = traces.per_core.iter().map(|t| t.bytes.len() as u64).sum();

    let mut g = c.benchmark_group("e2e");
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("analyze_luindex_lossy", |b| {
        let jportal = JPortal::new(&w.program);
        b.iter(|| jportal.analyze(traces, &r.archive))
    });
    g.bench_function("icfg_build", |b| {
        b.iter(|| jportal_cfg::Icfg::build(&w.program))
    });
    g.finish();

    let mode = Mode::from_env();
    let large = measure_large(mode);
    write_e2e_report(mode, &w, &r, &large);
}

criterion_group!(benches, bench_e2e);
criterion_main!(benches);
