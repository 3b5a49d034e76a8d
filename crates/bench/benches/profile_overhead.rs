//! Self-profiling cost: end-to-end analysis with the 997 Hz span-stack
//! sampler on vs fully off, plus micro-costs of the seqlock hot path.
//!
//! Writes `BENCH_profile.json` at the repo root:
//!
//! * `profile_overhead_delta` — analysis wall time with the wall-clock
//!   sampler running over the plain pipeline, as the ratio of each
//!   side's fastest rep (interference-robust; medians are reported
//!   too). Budget: <2% on full runs — the profiler's whole point is to
//!   be left on.
//!
//! The baseline follows the shared protocol (`jportal_bench::gate`).
//! The overhead check requires BOTH signals before it counts as a
//! breach: the absolute budget, and a >5-point regression of the
//! committed `profile_overhead_delta`. A real overhead regression moves
//! both; scheduler noise on a shared vCPU moves only the absolute one.
//! An off-side median more than 10% over the committed one is a
//! regression.
//!
//! Report equality with the profiler on is asserted unconditionally —
//! that is a correctness contract, not a perf budget.

use criterion::{criterion_group, criterion_main, Criterion};
use jportal_bench::gate::{self, Baseline, Mode};
use jportal_core::{JPortal, JPortalConfig};
use jportal_jvm::runtime::{Jvm, JvmConfig};
use jportal_obs::{Obs, ProfileConfig, Profiler};
use jportal_workloads::workload_by_name;

/// Budget on the sampler-on analysis overhead. Quick mode (7 reps on
/// shared CI vCPUs) is too noisy for the real line, so it gets a
/// relaxed smoke budget; the 2% claim is enforced by full runs and by
/// the committed `BENCH_profile.json`.
fn overhead_budget(mode: Mode) -> f64 {
    if mode.quick {
        0.10
    } else {
        0.02
    }
}

struct ProfileNumbers {
    off_median: f64,
    on_median: f64,
    delta: f64,
    samples: u64,
    stacks: usize,
}

/// Paired overhead measurement: the "on" side analyzes with the
/// wall-clock sampler sweeping every worker's span stack at 997 Hz —
/// the production posture the ≤2% claim is about.
fn measure(reps: usize) -> ProfileNumbers {
    // Large enough that per-analysis fixed costs amortize into the
    // noise — the budget is about the production regime, not
    // sub-millisecond toy runs.
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
            profiling: Some(ProfileConfig::default()),
            ..JPortalConfig::default()
        },
    );

    // Correctness first: the sampler must not perturb the report.
    let report_off = jp_off.analyze(traces, &r.archive);
    let report_on = jp_on.analyze(traces, &r.archive);
    if report_off != report_on {
        eprintln!("FAILED: report differs with the profiler on");
        std::process::exit(1);
    }

    // Gated on the ratio of per-side minima: the sampler's cost is
    // systematic while scheduler interference is strictly additive, so
    // the fastest rep on each side isolates the real delta — medians of
    // a dozen reps on a shared vCPU swing ±5% run to run, minima hold
    // steady.
    let (off, on) = gate::paired(
        reps,
        || jp_off.analyze(traces, &r.archive),
        || jp_on.analyze(traces, &r.archive),
    );

    let snap = jp_on.profiler().expect("profiling on").snapshot();
    ProfileNumbers {
        off_median: gate::median(&off),
        on_median: gate::median(&on),
        delta: gate::min(&on) / gate::min(&off) - 1.0,
        samples: snap.samples,
        stacks: snap.stacks.len(),
    }
}

fn write_profile_report(mode: Mode, n: &ProfileNumbers, reps: usize) {
    let mut base = Baseline::open("BENCH_profile.json", mode);
    let committed_delta = base.number("profile_overhead_delta");
    let budget = overhead_budget(mode);
    println!(
        "profile_overhead gate: overhead {:+.1}% (budget {:.0}%, committed {:+.1}%), \
         {} samples over {} stacks",
        n.delta * 100.0,
        budget * 100.0,
        committed_delta.unwrap_or(0.0) * 100.0,
        n.samples,
        n.stacks
    );

    // Dual-signal overhead check: a breach needs the absolute budget
    // AND a >5-point regression of the committed delta (absent a
    // committed file the budget alone decides).
    if n.delta > budget && committed_delta.is_none_or(|c| n.delta > c + 0.05) {
        base.fail(&format!(
            "sampler-on overhead {:+.1}% exceeds the {:.0}% budget and regresses \
             the committed {:+.1}% by >5 points",
            n.delta * 100.0,
            budget * 100.0,
            committed_delta.unwrap_or(0.0) * 100.0
        ));
    }
    if n.samples == 0 {
        base.fail("the sampler collected no samples during the measured reps");
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
        ("sampler_hz", "997".to_string()),
        ("e2e_off_median_seconds", format!("{:.6}", n.off_median)),
        ("e2e_profiled_median_seconds", format!("{:.6}", n.on_median)),
        ("profile_overhead_delta", format!("{:.4}", n.delta)),
        ("samples", n.samples.to_string()),
        ("stacks", n.stacks.to_string()),
    ]);
}

/// Micro-costs of the sampling machinery: one profiled span open+close
/// (two seqlock writes plus the interning fast path) against the
/// profiler-off branch, and one registry-wide sample sweep.
fn bench_profile(c: &mut Criterion) {
    let mut g = c.benchmark_group("profile");
    let obs = Obs::new(true);
    g.bench_function("span_open_unprofiled", |b| {
        b.iter(|| {
            let _s = obs.span("bench", "span");
        })
    });
    {
        // Deterministic mode: the enable-count is live (span opens take
        // the seqlock write path) but no sampler thread competes with
        // the benchmark for cycles.
        let profiler = Profiler::start(ProfileConfig {
            deterministic: true,
            ..ProfileConfig::default()
        });
        g.bench_function("span_open_profiled", |b| {
            b.iter(|| {
                let _s = obs.span("bench", "span");
            })
        });
        g.bench_function("sample_now", |b| {
            let _s = obs.span("bench", "outer");
            b.iter(|| profiler.sample_now())
        });
        profiler.stop();
    }
    g.finish();

    let mode = Mode::from_env();
    let reps = if mode.quick { 7 } else { 31 };
    let numbers = measure(reps);
    write_profile_report(mode, &numbers, reps);
}

criterion_group!(benches, bench_profile);
criterion_main!(benches);
