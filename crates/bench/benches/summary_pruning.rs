//! Interprocedural-summary ablation: what `JPortalConfig::summaries`
//! costs and buys on lossy reconstructions.
//!
//! Measures the fixpoint summary build, and the full pipeline with the
//! prefilters on vs off, over three recovery-heavy lossy workloads. The
//! bench also performs the **same-run equivalence check** — reconstructed
//! entries and holes must be identical in both modes (that is the
//! prefilter's contract, see `Recovery::with_summaries`) — and fails the
//! process on any divergence regardless of gate flags, because that
//! signal is deterministic.
//!
//! Besides the criterion groups, this bench maintains
//! `BENCH_summary_pruning.json` at the repo root and regenerates
//! `docs/results/summary_pruning.md` (per-workload prune-rate table)
//! under the shared baseline protocol (`jportal_bench::gate`). It gates
//! on a single signal: the recovery prune rate is a deterministic
//! property of the analysis, so a drop of more than 20% (relative) from
//! the committed baseline is a real regression, not noise. Timings are
//! recorded for context and never gate.

use criterion::{criterion_group, criterion_main, Criterion};
use jportal_analysis::SummaryTable;
use jportal_bench::gate::{Baseline, Mode};
use jportal_cfg::Icfg;
use jportal_core::{JPortal, JPortalConfig, JPortalReport};
use jportal_jvm::runtime::{Jvm, JvmConfig};
use jportal_jvm::RunResult;
use jportal_workloads::{workload_by_name, Workload};

/// Recovery-heavy subjects: lossy runs with enough holes that the
/// candidate search dominates (the prefilter's target regime).
const SUBJECTS: &[&str] = &["fop", "h2", "lusearch"];

/// The lossy ring configuration the equivalence suite uses: small
/// buffer, slow drain, real overflow holes on every subject.
fn lossy_run(w: &Workload) -> RunResult {
    Jvm::new(JvmConfig {
        cores: if w.multithreaded { 2 } else { 1 },
        pt_buffer_capacity: 2500,
        drain_bytes_per_kilocycle: 90,
        ..JvmConfig::default()
    })
    .run_threads(&w.program, &w.threads)
}

fn config(summaries: bool) -> JPortalConfig {
    JPortalConfig {
        summaries,
        ..JPortalConfig::default()
    }
}

/// Everything the ablation extracts from one subject's on/off run pair.
struct SubjectNumbers {
    name: &'static str,
    /// Recovery candidates that survived the prefilter (summaries on).
    candidates: usize,
    /// Recovery candidates the prefilter rejected.
    pruned: usize,
    /// Matcher restart candidates the summary alphabet screen rejected.
    matcher_pruned: u64,
    /// Holes recovery worked on.
    holes: usize,
}

impl SubjectNumbers {
    fn rate(&self) -> f64 {
        let total = self.candidates + self.pruned;
        if total == 0 {
            0.0
        } else {
            self.pruned as f64 / total as f64
        }
    }
}

/// Same-run equivalence: the reconstructed timelines (entries and hole
/// spans, per thread) must be identical with summaries on and off. This
/// is the contract every prune decision is proved against; a divergence
/// is a correctness bug, so it kills the bench unconditionally.
fn assert_equivalent(name: &str, on: &JPortalReport, off: &JPortalReport) {
    let same = on.threads.len() == off.threads.len()
        && on
            .threads
            .iter()
            .zip(&off.threads)
            .all(|(a, b)| a.entries == b.entries && a.holes == b.holes);
    if !same {
        eprintln!("FAILED: {name}: summaries on/off reconstructions diverge");
        std::process::exit(1);
    }
}

fn measure_subject(name: &'static str) -> SubjectNumbers {
    let w = workload_by_name(name, 1);
    let r = lossy_run(&w);
    let traces = r.traces.as_ref().expect("tracing on");
    let on = JPortal::with_config(&w.program, config(true)).analyze(traces, &r.archive);
    let off = JPortal::with_config(&w.program, config(false)).analyze(traces, &r.archive);
    assert_equivalent(name, &on, &off);
    SubjectNumbers {
        name,
        candidates: on.threads.iter().map(|t| t.recovery.candidates).sum(),
        pruned: on.threads.iter().map(|t| t.recovery.summary_pruned).sum(),
        matcher_pruned: on.dfa_cache.summary_pruned,
        holes: on.threads.iter().map(|t| t.recovery.holes).sum(),
    }
}

struct AblationNumbers {
    subjects: Vec<SubjectNumbers>,
    build_mean_ns: f64,
    on_mean_ns: f64,
    on_min_ns: f64,
    off_mean_ns: f64,
    off_min_ns: f64,
}

impl AblationNumbers {
    fn overall_rate(&self) -> f64 {
        let pruned: usize = self.subjects.iter().map(|s| s.pruned).sum();
        let total: usize = self.subjects.iter().map(|s| s.candidates + s.pruned).sum();
        if total == 0 {
            0.0
        } else {
            pruned as f64 / total as f64
        }
    }
}

/// Commits `BENCH_summary_pruning.json` and regenerates
/// `docs/results/summary_pruning.md`; an overall recovery prune rate
/// more than 20% (relative) below the committed one is a breach.
fn write_report(n: &AblationNumbers) {
    let rate = n.overall_rate();
    let mut base = Baseline::open("BENCH_summary_pruning.json", Mode::from_env());
    let committed = base.number("recovery_prune_rate");
    println!(
        "summary_pruning gate: prune rate {rate:.3} (committed {:.3})",
        committed.unwrap_or(0.0)
    );
    if committed.is_some_and(|b| rate < 0.80 * b) {
        base.fail("recovery prune rate regressed >20% from the committed baseline");
    }
    base.commit_doc("docs/results/summary_pruning.md", &markdown(n));
    let per_subject: Vec<String> = n
        .subjects
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"candidates\": {}, \"pruned\": {}, \
                 \"rate\": {:.3}, \"matcher_pruned\": {}, \"holes\": {}}}",
                s.name,
                s.candidates,
                s.pruned,
                s.rate(),
                s.matcher_pruned,
                s.holes
            )
        })
        .collect();
    base.commit(&[
        ("recovery_prune_rate", format!("{rate:.3}")),
        ("summary_build_mean_ns", format!("{:.1}", n.build_mean_ns)),
        ("analyze_on_mean_ns", format!("{:.1}", n.on_mean_ns)),
        ("analyze_on_min_ns", format!("{:.1}", n.on_min_ns)),
        ("analyze_off_mean_ns", format!("{:.1}", n.off_mean_ns)),
        ("analyze_off_min_ns", format!("{:.1}", n.off_min_ns)),
        (
            "analyze_min_ratio_off_over_on",
            format!("{:.3}", n.off_min_ns / n.on_min_ns.max(1.0)),
        ),
        ("subjects", format!("[\n{}\n  ]", per_subject.join(",\n"))),
    ]);
}

/// The `docs/results/summary_pruning.md` page.
fn markdown(n: &AblationNumbers) -> String {
    let mut md = String::from(
        "# Interprocedural summary pruning (ablation)\n\n\
         Generated by `cargo bench -p jportal-bench --bench summary_pruning`.\n\n\
         Lossy runs (PT ring 2500 B, drain 90 B/kc, scale 1). Reports are\n\
         verified identical with summaries on/off in the same run before\n\
         anything below is recorded; the prefilter only removes work, never\n\
         candidates that could win (see `Recovery::with_summaries`).\n\n\
         | workload | holes | candidates kept | prefilter-pruned | prune rate | matcher pruned |\n\
         |---|---|---|---|---|---|\n",
    );
    for s in &n.subjects {
        md.push_str(&format!(
            "| {} | {} | {} | {} | {:.1}% | {} |\n",
            s.name,
            s.holes,
            s.candidates,
            s.pruned,
            100.0 * s.rate(),
            s.matcher_pruned
        ));
    }
    md.push_str(&format!(
        "\nOverall recovery prune rate: **{:.1}%** (gated: a >20% relative\n\
         drop fails quick runs and refuses full-run rewrites).\n\n\
         | measurement | mean | min |\n|---|---|---|\n\
         | summary fixpoint build | {:.2} ms | — |\n\
         | analyze, summaries on | {:.2} ms | {:.2} ms |\n\
         | analyze, summaries off | {:.2} ms | {:.2} ms |\n",
        100.0 * n.overall_rate(),
        n.build_mean_ns / 1e6,
        n.on_mean_ns / 1e6,
        n.on_min_ns / 1e6,
        n.off_mean_ns / 1e6,
        n.off_min_ns / 1e6,
    ));
    md
}

fn bench_summary_pruning(c: &mut Criterion) {
    // Prune metrics + the same-run equivalence check, measured once.
    let subjects: Vec<SubjectNumbers> = SUBJECTS.iter().map(|&s| measure_subject(s)).collect();

    // Timed sections: the fixpoint build in isolation, then the full
    // pipeline in both modes over one representative subject.
    let w = workload_by_name("h2", 1);
    let r = lossy_run(&w);
    let traces = r.traces.as_ref().expect("tracing on");
    let icfg = Icfg::build(&w.program);

    let mut g = c.benchmark_group("summary_pruning");
    g.bench_function("summary_table_build", |b| {
        b.iter(|| SummaryTable::build(&w.program, &icfg))
    });
    g.bench_function("analyze_summaries_on", |b| {
        let jp = JPortal::with_config(&w.program, config(true));
        b.iter(|| jp.analyze(traces, &r.archive).total_entries())
    });
    g.bench_function("analyze_summaries_off", |b| {
        let jp = JPortal::with_config(&w.program, config(false));
        b.iter(|| jp.analyze(traces, &r.archive).total_entries())
    });
    g.finish();

    let find = |name: &str| {
        c.results
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} not measured"))
            .clone()
    };
    let build = find("summary_table_build");
    let on = find("analyze_summaries_on");
    let off = find("analyze_summaries_off");
    let numbers = AblationNumbers {
        subjects,
        build_mean_ns: build.mean_ns,
        on_mean_ns: on.mean_ns,
        on_min_ns: on.min_ns,
        off_mean_ns: off.mean_ns,
        off_min_ns: off.min_ns,
    };
    write_report(&numbers);
}

criterion_group!(benches, bench_summary_pruning);
criterion_main!(benches);
