//! Telemetry determinism: the *structure* of what the pipeline records —
//! counter values and the span tree — must be identical whether the
//! analysis runs sequentially or fanned out, exactly like the report
//! itself. Timing (histograms, span durations) and the two documented
//! scheduling-dependent families (`cfg.dfa.*` cache counters, scratch
//! high-water gauges) are excluded; everything else is part of the
//! contract because it is aggregated after the deterministic joins.

use jportal_bytecode::builder::ProgramBuilder;
use jportal_bytecode::{CmpKind, Instruction as I, Program};
use jportal_core::{JPortal, JPortalConfig, JPortalReport};
use jportal_jvm::runtime::{Jvm, JvmConfig, RunResult, ThreadSpec};
use jportal_obs::TelemetryReport;

/// A branchy two-method loop, long enough that a small PT buffer with a
/// slow exporter drops data on every thread (so recovery, hole spans and
/// loss counters are all exercised).
fn workload() -> Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("C", None, 0);
    let mut h = pb.method(c, "helper", 1, true);
    let odd = h.label();
    h.emit(I::Iload(0));
    h.emit(I::Iconst(2));
    h.emit(I::Irem);
    h.branch_if(CmpKind::Ne, odd);
    h.emit(I::Iconst(10));
    h.emit(I::Ireturn);
    h.bind(odd);
    h.emit(I::Iconst(20));
    h.emit(I::Ireturn);
    let helper = h.finish();
    let mut m = pb.method(c, "main", 0, false);
    let head = m.label();
    let done = m.label();
    m.emit(I::Iconst(120));
    m.emit(I::Istore(0));
    m.bind(head);
    m.emit(I::Iload(0));
    m.branch_if(CmpKind::Le, done);
    m.emit(I::Iload(0));
    m.emit(I::InvokeStatic(helper));
    m.emit(I::Pop);
    m.emit(I::Iinc(0, -1));
    m.jump(head);
    m.bind(done);
    m.emit(I::Return);
    let main = m.finish();
    pb.finish_with_entry(main).unwrap()
}

fn lossy_run(p: &Program, threads: usize) -> RunResult {
    run(
        p,
        threads,
        JvmConfig {
            pt_buffer_capacity: 640,
            drain_bytes_per_kilocycle: 6,
            ..JvmConfig::default()
        },
    )
}

/// `threads` copies of the entry point on two cores, interpreted only.
fn run(p: &Program, threads: usize, config: JvmConfig) -> RunResult {
    let entry = p.entry();
    let specs: Vec<ThreadSpec> = (0..threads)
        .map(|_| ThreadSpec {
            method: entry,
            args: vec![],
        })
        .collect();
    Jvm::new(JvmConfig {
        cores: 2,
        c1_threshold: u64::MAX,
        c2_threshold: u64::MAX,
        ..config
    })
    .run_threads(p, &specs)
}

fn analyze_with(
    p: &Program,
    r: &RunResult,
    parallelism: Option<usize>,
) -> (JPortalReport, TelemetryReport) {
    let jp = JPortal::with_config(
        p,
        JPortalConfig {
            parallelism,
            ..JPortalConfig::default()
        },
    );
    let report = jp.analyze(r.traces.as_ref().unwrap(), &r.archive);
    (report, jp.telemetry())
}

/// Counters minus the documented scheduling-dependent `cfg.dfa.*`
/// family (two workers can both miss on a key one is about to fill).
fn deterministic_counters(t: &TelemetryReport) -> Vec<(String, u64)> {
    t.metrics
        .counters
        .iter()
        .filter(|(name, _)| !name.starts_with("cfg.dfa."))
        .cloned()
        .collect()
}

/// Sorted timing-free span structure, minus the `prewarm` span that by
/// design only exists when workers > 1.
fn span_structure(t: &TelemetryReport) -> Vec<String> {
    let mut v: Vec<String> = t
        .spans
        .iter()
        .filter(|s| s.name != "prewarm")
        .map(|s| s.structure())
        .collect();
    v.sort();
    v
}

#[test]
fn counters_and_span_tree_match_across_parallelism() {
    let p = workload();
    let r = lossy_run(&p, 2);
    let traces = r.traces.as_ref().unwrap();
    assert!(
        traces.per_core.iter().any(|t| !t.losses.is_empty()),
        "workload must lose data for the test to mean anything"
    );

    let (report_seq, tel_seq) = analyze_with(&p, &r, Some(1));
    let (report_par, tel_par) = analyze_with(&p, &r, None);

    assert_eq!(report_seq, report_par, "report determinism contract");
    assert_eq!(
        deterministic_counters(&tel_seq),
        deterministic_counters(&tel_par),
        "every non-dfa counter must be identical at any worker count"
    );
    assert_eq!(
        span_structure(&tel_seq),
        span_structure(&tel_par),
        "span categories, names, parents and args must be identical"
    );

    // The excluded family must still exist in both (same names, values
    // free to differ).
    for t in [&tel_seq, &tel_par] {
        assert!(t.metrics.counter("cfg.dfa.hits").is_some());
        assert!(t.metrics.counter("cfg.dfa.misses").is_some());
    }

    // Spot checks: recovery actually ran and was counted, and the span
    // tree has the per-stage spans hanging off the pipeline root.
    let holes = tel_seq.metrics.counter("core.recover.holes").unwrap();
    assert!(holes > 0, "lossy run must produce holes");
    let fills = span_structure(&tel_seq)
        .iter()
        .filter(|s| s.contains("recover/assemble_thread/fill_hole"))
        .count();
    assert_eq!(fills as u64, holes, "one fill span per hole");
    assert!(span_structure(&tel_seq)
        .iter()
        .any(|s| s.starts_with("decode/analyze/decode_segment")));
}

#[test]
fn collection_stats_are_input_determined() {
    let p = workload();
    let r = lossy_run(&p, 2);
    let (a, _) = analyze_with(&p, &r, Some(1));
    let (b, _) = analyze_with(&p, &r, Some(4));
    // `collection` is a pure function of the input traces, so unlike the
    // dfa cache it is bit-identical too (Debug covers every field).
    assert_eq!(format!("{:?}", a.collection), format!("{:?}", b.collection));
    assert!(a.collection.total_lost_bytes() > 0);
    assert_eq!(
        a.collection.per_core.len(),
        r.traces.as_ref().unwrap().per_core.len()
    );
}

#[test]
fn report_equality_ignores_telemetry_fields() {
    let p = workload();
    let r = lossy_run(&p, 1);
    let (mut a, _) = analyze_with(&p, &r, Some(1));
    let (b, _) = analyze_with(&p, &r, Some(1));
    // Perturb only the telemetry fields: equality must not notice.
    a.dfa_cache.hits += 1000;
    a.collection.end_ts += 1;
    assert_eq!(a, b, "equality is defined over threads only");
    // But a real difference in the reconstruction must be seen.
    a.threads[0].entries.pop();
    assert_ne!(a, b);
}

#[test]
fn disabled_observability_records_nothing_and_changes_nothing() {
    let p = workload();
    let r = lossy_run(&p, 1);
    let jp = JPortal::with_config(
        &p,
        JPortalConfig {
            observability: false,
            ..JPortalConfig::default()
        },
    );
    let dark = jp.analyze(r.traces.as_ref().unwrap(), &r.archive);
    let t = jp.telemetry();
    assert!(t.spans.is_empty());
    assert!(t.metrics.counters.is_empty());
    assert!(t.metrics.gauges.is_empty());
    assert!(t.metrics.histograms.is_empty());
    let (lit, _) = analyze_with(&p, &r, None);
    assert_eq!(dark, lit, "observability must never change the report");
}

/// `core.recover.index_builds` and `core.recover.anchor_inserts`.
fn index_work(t: &TelemetryReport) -> (Option<u64>, Option<u64>) {
    (
        t.metrics.counter("core.recover.index_builds"),
        t.metrics.counter("core.recover.anchor_inserts"),
    )
}

/// The recovery index is built at a thread's first hole: a hole-free run
/// builds none, and a lossy run builds one per thread with holes,
/// identically at every worker count.
#[test]
fn recovery_index_is_built_only_for_threads_with_holes() {
    let p = workload();
    let clean = run(&p, 3, JvmConfig::default());
    assert!(clean
        .traces
        .as_ref()
        .unwrap()
        .per_core
        .iter()
        .all(|t| t.losses.is_empty()));
    let (report, tel) = analyze_with(&p, &clean, None);
    assert_eq!(report.threads.len(), 3);
    assert_eq!(index_work(&tel), (Some(0), Some(0)));

    let lossy = lossy_run(&p, 2);
    let (report, tel) = analyze_with(&p, &lossy, Some(1));
    let with_holes = report
        .threads
        .iter()
        .filter(|t| t.recovery.holes > 0)
        .count() as u64;
    let (builds, inserts) = index_work(&tel);
    assert!(with_holes > 0);
    assert_eq!(builds, Some(with_holes));
    assert!(inserts > Some(0));
    for parallelism in [Some(2), None] {
        let (_, tel) = analyze_with(&p, &lossy, parallelism);
        assert_eq!(index_work(&tel), (builds, inserts), "{parallelism:?}");
    }
}
