//! The JPortal repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <lossless-multithread|lossless-single|lossy-recovery|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` one process sets up the seeded input, then runs a
//! closed loop of analyses — `JPortal::with_config` with the default
//! configuration plus `analyze`, both dropped afterwards — for `--seconds`
//! and prints the end-to-end metrics. Every analysis is compared with a
//! single-worker reference report; accuracy and the input fingerprint are
//! checked against `fingerprints.tsv`. With `--trace 1` it prints the
//! per-layer ledger instead (see `ledger.rs`). The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! `--fingerprint --workload <name> --seeds <a>-<b>` prints the
//! `fingerprints.tsv` lines for a seed range.

mod input;
mod ledger;

use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use jportal_analysis::{AnalysisIndex, Rta, SummaryTable};
use jportal_cfg::Icfg;
use jportal_core::accuracy::breakdown;
use jportal_core::threads::segregate_with_stats;
use jportal_core::{JPortal, JPortalConfig, JPortalReport};
use jportal_ipt::CollectedTraces;
use jportal_workloads::Workload;

use input::{Collected, Fingerprint, Spec};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Fewest timed analyses per run, so the median has ten samples beyond it.
const MIN_SAMPLES: usize = 21;
/// Fewest rounds of the traced run's rotation.
const MIN_ROUNDS: usize = 5;
/// Repetitions of the timed ICFG/summary/index construction.
const CFG_BUILD_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fingerprint: Option<(u64, u64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        fingerprint: None,
    };
    let mut fingerprint = false;
    let mut seeds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--fingerprint" {
            fingerprint = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--seeds" => {
                let (a, b) = value
                    .split_once('-')
                    .ok_or(format!("--seeds wants a-b: {value}"))?;
                seeds = Some((a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if fingerprint {
        args.fingerprint = Some(seeds.ok_or("--fingerprint needs --seeds a-b")?);
    }
    if args.workload != "all" && input::spec(&args.workload).is_none() {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((first, last)) = args.fingerprint {
        for spec in input::SPECS
            .iter()
            .filter(|s| args.workload == "all" || args.workload == s.name)
        {
            fingerprint_seeds(spec, first, last);
        }
        return ExitCode::SUCCESS;
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let spec = input::spec(&args.workload).expect("validated in parse_args");
    let outcome = if args.trace {
        run_traced(&spec, args.seed, args.seconds)
    } else {
        run_end_to_end(&spec, args.seed, args.seconds)
    };
    outcome.print()
}

/// `--workload all`: every workload in its own child process (so each
/// reports its own peak memory), one after the other, then a summary.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut all_correct = true;
    let mut lines = Vec::new();
    for spec in &input::SPECS {
        println!("== {}", spec.name);
        let out = Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("the benchmark can re-run itself");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        all_correct &= out.status.success();
        let last = stdout.lines().last().unwrap_or("null").to_string();
        lines.push(format!("\"{}\": {last}", spec.name));
    }
    println!(
        "{{\"correct\": {all_correct}, \"workloads\": {{{}}}, \"claim\": null}}",
        lines.join(", ")
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One metric as printed and reported.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

fn count(name: &'static str, value: impl TryInto<u64>) -> Metric {
    let v: u64 = value.try_into().unwrap_or(u64::MAX);
    metric(name, v as f64, "count")
}

/// A run's verdict and metrics.
struct Outcome {
    header: String,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn print(&self) -> ExitCode {
        println!("{}", self.header);
        for m in &self.metrics {
            let prec = if m.unit == "count" { 0 } else { 6 };
            println!(
                "  {:<28} {:>16.prec$} {:<8} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        for p in &self.problems {
            println!("  FAIL: {p}");
        }
        let correct = self.problems.is_empty() && self.failed == 0;
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]`; NaN for no samples.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn config(parallelism: Option<usize>, observability: bool) -> JPortalConfig {
    JPortalConfig {
        parallelism,
        observability,
        ..JPortalConfig::default()
    }
}

/// One analysis as a user runs it: build the analyzer, analyze, drop the
/// analyzer. Returns the report (or `None` on a panic) and its wall time.
fn analysis(
    w: &Workload,
    input: &Collected,
    cfg: JPortalConfig,
) -> (Option<JPortalReport>, Duration) {
    let start = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| {
        JPortal::with_config(&w.program, cfg).analyze(input.traces(), &input.run.archive)
    }))
    .ok();
    (report, start.elapsed())
}

/// Set-up times. One set-up is everything a one-shot user process does
/// before its analysis: collection (with the sizing run when lossy) and
/// the first `JPortal::with_config`.
#[derive(Default)]
struct SetupLog {
    totals: Vec<f64>,
    collects: Vec<f64>,
    digests: Vec<u64>,
}

impl SetupLog {
    /// Runs and times one set-up.
    fn run(&mut self, spec: &Spec, w: &Workload, seed: u64) -> Collected {
        let start = Instant::now();
        let input = input::collect(spec, w, seed);
        let collected = start.elapsed();
        drop(JPortal::with_config(&w.program, JPortalConfig::default()));
        self.totals.push(start.elapsed().as_secs_f64());
        self.collects.push(collected.as_secs_f64());
        self.digests.push(digest(input.traces()));
        input
    }

    fn len(&self) -> usize {
        self.totals.len()
    }

    /// Fails the run unless every set-up collected identical traces.
    fn check(&self, problems: &mut Vec<String>) {
        if self.digests.windows(2).any(|d| d[0] != d[1]) {
            problems.push("collection is not deterministic for this seed".into());
        }
    }
}

/// Hash of every exported PT byte and loss record.
fn digest(traces: &CollectedTraces) -> u64 {
    let mut h = DefaultHasher::new();
    for t in &traces.per_core {
        t.bytes.hash(&mut h);
        for l in &t.losses {
            (
                l.stream_offset,
                l.first_ts,
                l.last_ts,
                l.lost_bytes,
                l.lost_packets,
            )
                .hash(&mut h);
        }
    }
    traces.end_ts.hash(&mut h);
    h.finish()
}

/// The single-worker reference report, its accuracy, and the input
/// fingerprint check.
struct Reference {
    report: JPortalReport,
    accuracy: f64,
    fingerprint: Fingerprint,
}

fn reference(
    spec: &Spec,
    w: &Workload,
    input: &Collected,
    seed: u64,
    problems: &mut Vec<String>,
) -> Option<Reference> {
    let (report, _) = analysis(w, input, config(Some(1), true));
    let Some(report) = report else {
        problems.push("the single-worker reference analysis panicked".into());
        return None;
    };
    let (accuracy, fingerprint) = assess(w, input, &report);
    problems.extend(input::check(spec.name, seed, &fingerprint, accuracy));
    Some(Reference {
        report,
        accuracy,
        fingerprint,
    })
}

/// Figure-7 accuracy of a report and the fingerprint of its input.
fn assess(w: &Workload, input: &Collected, report: &JPortalReport) -> (f64, Fingerprint) {
    let accuracy = breakdown(&w.program, &input.run.truth, report).overall;
    let packets = segregate_with_stats(input.traces(), 1).1.packets;
    (accuracy, Fingerprint::of(input.traces(), packets, report))
}

fn fingerprint_seeds(spec: &Spec, first: u64, last: u64) {
    let w = spec.workload();
    for seed in first..=last {
        let input = input::collect(spec, &w, seed);
        let report = JPortal::new(&w.program).analyze(input.traces(), &input.run.archive);
        let (accuracy, fp) = assess(&w, &input, &report);
        println!("{}", input::tsv_line(spec.name, seed, &fp, accuracy));
    }
}

fn header(spec: &Spec, seed: u64, what: &str) -> String {
    format!(
        "{} ({}@{}{}) seed {seed}: {what}, {} workers available",
        spec.name,
        spec.subject,
        spec.scale,
        if spec.lossy {
            ", 64M preset"
        } else {
            ", unbounded ring"
        },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    )
}

fn run_end_to_end(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let w = spec.workload();
    let mut setups = SetupLog::default();
    let input = setups.run(spec, &w, seed);
    let mut problems = Vec::new();
    // The first analysis is the one a user's one-shot process runs: peak
    // memory is read right after it, before the closed loop's repeated
    // allocations across worker threads fragment the heap. It warms the
    // caches and is checked, but not timed.
    let (first, _) = analysis(&w, &input, JPortalConfig::default());
    let peak_rss = peak_rss_mib();
    let reference = reference(spec, &w, &input, seed, &mut problems);
    let (mut attempted, mut failed) = match (&first, &reference) {
        (Some(f), Some(r)) if *f == r.report => (1, 0),
        _ => (1, 1),
    };
    drop(first);

    let budget = Duration::from_secs_f64(seconds);
    let hard_stop = budget * 2;
    let start = Instant::now();
    let mut samples = Vec::new();
    while reference.is_some()
        && (start.elapsed() < budget || samples.len() < MIN_SAMPLES)
        && start.elapsed() < hard_stop
    {
        // The other set-ups are spread evenly over the measuring window,
        // so the machine's slow and fast phases reach set-up and analysis
        // alike.
        let due = budget.mul_f64(setups.len() as f64 / SETUP_REPS as f64);
        if setups.len() < SETUP_REPS && start.elapsed() >= due {
            drop(setups.run(spec, &w, seed));
            continue;
        }
        attempted += 1;
        let (report, took) = analysis(&w, &input, JPortalConfig::default());
        match (report, &reference) {
            (Some(r), Some(reference)) if r == reference.report => samples.push(took.as_secs_f64()),
            _ => failed += 1,
        }
    }
    if samples.len() < MIN_SAMPLES {
        problems.push(format!("only {} good samples", samples.len()));
    }
    while setups.len() < SETUP_REPS {
        drop(setups.run(spec, &w, seed));
    }
    setups.check(&mut problems);
    let p50 = median(&samples);

    let untraced = input::run_untraced(&w, seed, input.preset);
    let overhead = input.run.wall_cycles as f64 / untraced.wall_cycles.max(1) as f64;
    let (accuracy, pt_bytes, floor) = match &reference {
        Some(r) => (
            r.accuracy,
            r.fingerprint.pt_bytes,
            input::accuracy_floor(&input::recorded(spec.name)),
        ),
        None => (f64::NAN, 0, f64::NAN),
    };
    let mut metrics = vec![
        metric("analyze_p50_s", p50, "s"),
        metric(
            "trace_mib_per_s",
            pt_bytes as f64 / (1 << 20) as f64 / p50,
            "MiB/s",
        ),
        metric("setup_s", median(&setups.totals), "s"),
        metric("peak_rss_mb", peak_rss, "MiB"),
        metric("accuracy", accuracy, "fraction"),
        metric("trace_overhead_x", overhead, "x"),
    ];
    metrics[0].note = format!(
        "median of {} analyses, quartiles {:.4}..{:.4}",
        samples.len(),
        quantile(&samples, 0.25),
        quantile(&samples, 0.75)
    );
    metrics[1].note = format!("{pt_bytes} PT bytes");
    metrics[2].note = format!("median of {SETUP_REPS}");
    metrics[3].note = "after set-up and one analysis".into();
    metrics[4].note = format!("floor {floor:.4}");
    Outcome {
        header: header(spec, seed, "end to end"),
        attempted,
        failed,
        problems,
        metrics,
    }
}

fn run_traced(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let w = spec.workload();
    let mut setups = SetupLog::default();
    let input = setups.run(spec, &w, seed);
    for _ in 1..SETUP_REPS {
        drop(setups.run(spec, &w, seed));
    }
    let mut problems = Vec::new();
    setups.check(&mut problems);
    let untraced = input::run_untraced(&w, seed, input.preset);
    let reference = reference(spec, &w, &input, seed, &mut problems);

    // cfg / analysis set-up: what `JPortal::with_config` builds.
    let mut builds = Vec::new();
    for _ in 0..CFG_BUILD_REPS {
        let start = Instant::now();
        let rta = Rta::analyze(&w.program);
        let icfg = Icfg::build_with_targets(&w.program, &rta);
        let table = SummaryTable::build(&w.program, &icfg);
        let index = AnalysisIndex::build(&w.program);
        builds.push(start.elapsed().as_secs_f64());
        drop((table, index, icfg));
    }

    // Rotate the four measurements so drift in machine speed hits each
    // of them alike.
    let single_cfg = config(Some(1), true);
    let replayer = JPortal::with_config(&w.program, single_cfg);
    let (mut default_s, mut single_s, mut quiet_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut layers: Vec<ledger::LayerTimes> = Vec::new();
    let mut counts: Option<ledger::WorkCounts> = None;
    let (mut attempted, mut failed) = if reference.is_some() { (0, 0) } else { (1, 1) };
    let budget = Duration::from_secs_f64(seconds);
    let hard_stop = budget * 2;
    let start = Instant::now();
    while let Some(reference) = &reference {
        if (start.elapsed() >= budget && layers.len() >= MIN_ROUNDS) || start.elapsed() >= hard_stop
        {
            break;
        }
        for (cfg, out) in [
            (JPortalConfig::default(), &mut default_s),
            (single_cfg, &mut single_s),
            (config(None, false), &mut quiet_s),
        ] {
            attempted += 1;
            match analysis(&w, &input, cfg) {
                (Some(r), took) if r == reference.report => out.push(took.as_secs_f64()),
                _ => failed += 1,
            }
        }
        attempted += 1;
        let replay = ledger::replay(
            &replayer,
            &w.program,
            input.traces(),
            &input.run.archive,
            &single_cfg,
        );
        if let Some(drift) = replay.drift_from(&reference.report) {
            problems.push(format!("replay drifted from analyze: {drift}"));
            failed += 1;
            break;
        }
        if counts.is_some_and(|c| c != replay.counts) {
            problems.push("work counts differ between replays".into());
            failed += 1;
            break;
        }
        counts = Some(replay.counts);
        layers.push(replay.times);
    }
    let c = counts.unwrap_or_default();
    let layer =
        |f: fn(&ledger::LayerTimes) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let single = median(&single_s);
    let default = median(&default_s);
    let attributed = layer(|t| t.segregate)
        + layer(|t| t.decode)
        + layer(|t| t.project)
        + layer(|t| t.index)
        + layer(|t| t.fill)
        + layer(|t| t.lint);
    let fp = reference.as_ref().map_or_else(
        || Fingerprint::of(input.traces(), 0, &JPortalReport::default()),
        |r| r.fingerprint,
    );
    let loss_spans: usize = input.traces().per_core.iter().map(|t| t.losses.len()).sum();
    let p = &c.projection;
    let r = &c.recovery;
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut metrics = vec![
        metric("jvm.collect_s", median(&setups.collects), "s"),
        count("jvm.traced_cycles", input.run.wall_cycles),
        count("jvm.untraced_cycles", untraced.wall_cycles),
        count("ipt.trace_bytes", fp.pt_bytes),
        metric("ipt.lost_bytes_frac", fp.lost_frac(), "fraction"),
        count("ipt.loss_spans", loss_spans),
        metric("ipt.decode_s", layer(|t| t.ipt_decode), "s"),
        count("ipt.packets", c.packets),
        count("ipt.resync_bytes", c.resync_bytes),
        metric("threads.segregate_s", layer(|t| t.segregate), "s"),
        metric(
            "threads.segregate_self_s",
            layer(|t| t.segregate - t.ipt_decode),
            "s",
        ),
        count("threads.intervals", c.intervals),
        count("threads.pieces", c.pieces),
        metric("decode.s", layer(|t| t.decode), "s"),
        count("decode.events", c.events),
        metric("project.s", layer(|t| t.project), "s"),
        count("project.matched", p.matched),
        count("project.restarts", p.restarts),
        count("project.candidates_tried", p.candidates_tried),
        count("project.candidates_pruned", p.candidates_pruned),
        count("project.summary_pruned", p.summary_pruned),
        metric(
            "project.prune_ratio",
            ratio(p.candidates_pruned + p.summary_pruned, p.candidates_tried),
            "fraction",
        ),
        count("cfg.dfa_hits", c.dfa_hits),
        count("cfg.dfa_misses", c.dfa_misses),
        metric("recover.index_s", layer(|t| t.index), "s"),
        metric("recover.fill_s", layer(|t| t.fill), "s"),
        count("recover.holes", r.holes),
        count("recover.candidates", r.candidates),
        count("recover.pruned_tier1", r.pruned_tier1),
        count("recover.pruned_tier2", r.pruned_tier2),
        count("recover.summary_pruned", r.summary_pruned),
        count("recover.filled_from_cs", r.filled_from_cs),
        count("recover.filled_by_walk", r.filled_by_walk),
        count("recover.unfilled", r.unfilled),
        count("recover.budget_truncations", r.budget_truncations),
        metric(
            "recover.cs_fill_ratio",
            ratio(r.filled_from_cs, r.holes),
            "fraction",
        ),
        metric("lint.s", layer(|t| t.lint), "s"),
        count("lint.steps", c.lint_steps),
        count("lint.diagnostics", c.lint_diagnostics),
        metric("pipeline.single_worker_s", single, "s"),
        metric("pipeline.residual_s", single - attributed, "s"),
        metric("par.speedup", single / default, "x"),
        metric("obs.overhead_ratio", default / median(&quiet_s), "x"),
        metric("cfg.build_s", median(&builds), "s"),
    ];
    let n = layers.len();
    for m in &mut metrics {
        if m.unit == "s" && m.name != "jvm.collect_s" && m.name != "cfg.build_s" {
            m.note = format!(
                "median of {n}, {:.1}% of single-worker",
                m.value / single * 100.0
            );
        }
    }
    Outcome {
        header: header(spec, seed, "traced ledger"),
        attempted,
        failed,
        problems,
        metrics,
    }
}
