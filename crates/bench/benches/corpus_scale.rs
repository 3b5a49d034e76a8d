//! Persistent-corpus scaling: recovery lookup cost must stay flat as the
//! corpus sweeps three orders of magnitude (10³ → 10⁶ segments), because
//! candidates come from the sharded anchor index — O(candidates-for-anchor),
//! never O(corpus). The sweep holds the *relevant* segment set fixed (clean
//! harvests of the lossy subjects) and grows the corpus with padding
//! segments whose anchors never match a real hole, so any latency growth is
//! pure index overhead and the fills themselves are invariants:
//! fill rate and mean confidence must be non-decreasing with corpus size
//! (they are in fact equal), and that check is deterministic, so a
//! violation kills the bench regardless of gate flags.
//!
//! The second half pins the SWAR suffix kernel against the scalar oracle
//! on a long shared-tail stream: same score (hard assert) and at least a
//! 2× speedup (gated).
//!
//! Writes `BENCH_corpus.json` and regenerates `docs/results/corpus_scale.md`
//! under the shared baseline protocol (`jportal_bench::gate`): a latency
//! ratio above 1.5× or a SWAR speedup below 2× is a breach, and either
//! number worse than the committed one by >10% is a regression.

use criterion::{criterion_group, criterion_main, Criterion};
use jportal_bench::gate::{self, Baseline, Mode};
use jportal_bytecode::OpKind;
use jportal_cfg::Sym;
use jportal_core::{JPortal, JPortalConfig, JPortalReport};
use jportal_corpus::pack::{suffix_scalar, suffix_swar, PackedSyms};
use jportal_corpus::{Corpus, CorpusBuilder};
use jportal_jvm::runtime::{Jvm, JvmConfig};
use jportal_jvm::RunResult;
use jportal_workloads::{workload_by_name, Workload};
use std::sync::Arc;
use std::time::Instant;

/// Lossy subjects whose holes outrun in-run recovery, so the corpus
/// consult point actually fires (same configs as `tests/corpus_learning.rs`).
const SUBJECTS: &[&str] = &["fop", "h2"];

fn clean_run(w: &Workload) -> RunResult {
    Jvm::new(JvmConfig {
        cores: if w.multithreaded { 2 } else { 1 },
        ..JvmConfig::default()
    })
    .run_threads(&w.program, &w.threads)
}

fn lossy_run(w: &Workload) -> RunResult {
    Jvm::new(JvmConfig {
        cores: if w.multithreaded { 2 } else { 1 },
        pt_buffer_capacity: 1000,
        drain_bytes_per_kilocycle: 50,
        ..JvmConfig::default()
    })
    .run_threads(&w.program, &w.threads)
}

/// Deterministic pseudo-random stream (SplitMix64) for padding segments.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn random_sym(rng: &mut Rng) -> Sym {
    let op = OpKind::ALL[(rng.next() as usize) % OpKind::ALL.len()];
    match rng.next() % 3 {
        0 => Sym::branch(op, true),
        1 => Sym::branch(op, false),
        _ => Sym::plain(op),
    }
}

/// One padding segment: minimum length (one indexed anchor window), ops
/// drawn from the whole alphabet, rerolled until every op window avoids
/// the `forbidden` anchor keys — the op triples the subjects' lossy runs
/// can ever present at a hole. Padding therefore loads the index and the
/// arenas but can never enter a real hole's candidate bucket, which is
/// what lets the sweep isolate pure index overhead.
fn padding_segment(
    rng: &mut Rng,
    anchor_len: usize,
    forbidden: &std::collections::HashSet<u64>,
) -> Vec<Sym> {
    let len = anchor_len + 1;
    loop {
        let syms: Vec<Sym> = (0..len).map(|_| random_sym(rng)).collect();
        let clean = syms
            .windows(anchor_len)
            .all(|w| !forbidden.contains(&jportal_corpus::anchor_key(w)));
        if clean {
            return syms;
        }
    }
}

/// Every anchor key a hole in these reports could look up: all op
/// windows of every reconstructed timeline (a superset of the in-run
/// segment windows the recovery engine anchors on).
fn forbidden_keys(reports: &[JPortalReport], anchor_len: usize) -> std::collections::HashSet<u64> {
    let mut keys = std::collections::HashSet::new();
    for rep in reports {
        for t in &rep.threads {
            let ops: Vec<u8> = t.entries.iter().map(|e| e.op as u8).collect();
            for w in ops.windows(anchor_len) {
                keys.insert(jportal_corpus::anchor_key_ops(w.iter().copied()));
            }
        }
    }
    keys
}

/// What one (subject, corpus size) analysis measured.
struct Cell {
    median_s: f64,
    holes: usize,
    filled: usize,
    hits: usize,
    lookups: usize,
    candidates: usize,
    confidence_sum: f64,
    fills: usize,
}

fn measure_cell(w: &Workload, r: &RunResult, corpus: &Arc<Corpus>, reps: usize) -> Cell {
    let traces = r.traces.as_ref().expect("tracing on");
    let jp = JPortal::with_config(
        &w.program,
        JPortalConfig {
            corpus: true,
            ..JPortalConfig::default()
        },
    )
    .with_corpus_store(Arc::clone(corpus));
    let mut report: Option<JPortalReport> = None;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..=reps {
        let t0 = Instant::now();
        let rep = criterion::black_box(jp.analyze(traces, &r.archive));
        let dt = t0.elapsed().as_secs_f64();
        if report.is_none() {
            report = Some(rep); // first pass is the warm-up, keep its report
        } else {
            times.push(dt);
        }
    }
    let report = report.unwrap();
    let fills: Vec<f64> = report
        .quality
        .threads
        .iter()
        .flat_map(|t| t.fills.iter().map(|f| f.confidence))
        .collect();
    Cell {
        median_s: gate::median(&times),
        holes: report.threads.iter().map(|t| t.recovery.holes).sum(),
        filled: report
            .threads
            .iter()
            .map(|t| t.recovery.filled_from_cs + t.recovery.filled_by_walk)
            .sum(),
        hits: report.threads.iter().map(|t| t.recovery.corpus_hits).sum(),
        lookups: report
            .threads
            .iter()
            .map(|t| t.recovery.corpus_lookups)
            .sum(),
        candidates: report
            .threads
            .iter()
            .map(|t| t.recovery.corpus_candidates)
            .sum(),
        confidence_sum: fills.iter().sum(),
        fills: fills.len(),
    }
}

/// One corpus size in the sweep, aggregated over all subjects.
struct SizePoint {
    segments: usize,
    arena_bytes: usize,
    analyze_total_s: f64,
    fill_rate: f64,
    mean_confidence: f64,
    hits: usize,
}

struct Numbers {
    points: Vec<SizePoint>,
    latency_ratio: f64,
    swar_ns: f64,
    scalar_ns: f64,
}

impl Numbers {
    fn swar_speedup(&self) -> f64 {
        self.scalar_ns / self.swar_ns.max(1.0)
    }
}

fn write_report(mode: Mode, n: &Numbers) {
    let ratio = n.latency_ratio;
    let speedup = n.swar_speedup();
    let mut base = Baseline::open("BENCH_corpus.json", mode);
    let base_ratio = base.number("latency_ratio_max_over_min");
    let base_speedup = base.number("swar_speedup");
    println!(
        "corpus_scale gate: latency ratio {ratio:.2} (committed {:.2}), \
         SWAR speedup {speedup:.2}x (committed {:.2}x)",
        base_ratio.unwrap_or(f64::NAN),
        base_speedup.unwrap_or(f64::NAN)
    );
    if ratio > 1.5 {
        base.fail(&format!(
            "corpus sweep latency ratio {ratio:.2} exceeds the 1.5x gate"
        ));
    }
    if speedup < 2.0 {
        base.fail(&format!("SWAR speedup {speedup:.2}x below the 2x gate"));
    }
    if base_ratio.is_some_and(|b| ratio > b * 1.10)
        || base_speedup.is_some_and(|b| speedup < b * 0.90)
    {
        base.regress("latency ratio or SWAR speedup worse than the committed one by >10%");
    }
    base.commit_doc("docs/results/corpus_scale.md", &markdown(n));
    let per_size: Vec<String> =
        n.points
            .iter()
            .map(|p| {
                format!(
                "    {{\"segments\": {}, \"arena_bytes\": {}, \"analyze_total_seconds\": {:.6}, \
                 \"fill_rate\": {:.4}, \"mean_confidence\": {:.4}, \"corpus_hits\": {}}}",
                p.segments, p.arena_bytes, p.analyze_total_s, p.fill_rate, p.mean_confidence, p.hits
            )
            })
            .collect();
    base.commit(&[
        ("latency_ratio_max_over_min", format!("{ratio:.3}")),
        ("swar_suffix_ns", format!("{:.1}", n.swar_ns)),
        ("scalar_suffix_ns", format!("{:.1}", n.scalar_ns)),
        ("swar_speedup", format!("{speedup:.3}")),
        ("sizes", format!("[\n{}\n  ]", per_size.join(",\n"))),
    ]);
}

/// The `docs/results/corpus_scale.md` page.
fn markdown(n: &Numbers) -> String {
    let mut md = String::from(
        "# Corpus scaling sweep\n\n\
         Generated by `cargo bench -p jportal-bench --bench corpus_scale`.\n\n\
         The relevant segment set (clean harvests of lossy fop/h2) is held\n\
         fixed while padding segments — anchors verified to collide with\n\
         nothing real — grow the corpus three orders of magnitude. Lookup\n\
         goes through the 16-way sharded anchor index, so analysis latency\n\
         must stay flat and the fills must not change at all.\n\n\
         | corpus segments | arena bytes | analyze (both subjects) | fill rate | mean confidence | corpus hits |\n\
         |---|---|---|---|---|---|\n",
    );
    for p in &n.points {
        md.push_str(&format!(
            "| {} | {} | {:.2} ms | {:.1}% | {:.3} | {} |\n",
            p.segments,
            p.arena_bytes,
            p.analyze_total_s * 1e3,
            100.0 * p.fill_rate,
            p.mean_confidence,
            p.hits
        ));
    }
    md.push_str(&format!(
        "\nLatency ratio (max/min across sizes): **{:.2}×** (gate: 1.5×).\n\n\
         ## SWAR suffix kernel\n\n\
         | kernel | time per call | speedup |\n|---|---|---|\n\
         | scalar backward scan | {:.0} ns | 1.0× |\n\
         | SWAR (8 ops/word, XOR + clz) | {:.0} ns | **{:.2}×** |\n\n\
         Scores are asserted identical before timing (and pinned by the\n\
         `swar_equivalence` proptest suite).\n",
        n.latency_ratio,
        n.scalar_ns,
        n.swar_ns,
        n.swar_speedup(),
    ));
    md
}

fn bench_corpus_scale(c: &mut Criterion) {
    // Relevant segments: clean harvests of every subject, shared by all
    // sweep sizes so the fills are comparable across the sweep.
    let anchor_len = JPortalConfig::default().recovery.anchor_len;
    let mut builder = CorpusBuilder::new(anchor_len);
    let subjects: Vec<(Workload, RunResult)> = SUBJECTS
        .iter()
        .map(|&name| {
            let w = workload_by_name(name, 2);
            let clean = clean_run(&w);
            JPortal::with_config(&w.program, JPortalConfig::default()).analyze_harvest(
                clean.traces.as_ref().expect("tracing on"),
                &clean.archive,
                &mut builder,
            );
            let lossy = lossy_run(&w);
            (w, lossy)
        })
        .collect();
    let relevant = builder.build();
    assert!(relevant.segment_count() > 0, "harvest produced no segments");

    // Anchor keys the lossy runs can present (from corpus-less analyses,
    // so the set is independent of the sweep itself).
    let baselines: Vec<JPortalReport> = subjects
        .iter()
        .map(|(w, r)| {
            JPortal::with_config(&w.program, JPortalConfig::default())
                .analyze(r.traces.as_ref().expect("tracing on"), &r.archive)
        })
        .collect();
    let forbidden = forbidden_keys(&baselines, anchor_len);

    let mode = Mode::from_env();
    let sizes: &[usize] = if mode.quick {
        &[1_000, 10_000, 100_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    let reps = if mode.quick { 3 } else { 9 };

    let mut rng = Rng(0x1CEB00DA);
    let mut points = Vec::new();
    for &target in sizes {
        while builder.segment_count() < target {
            let syms = padding_segment(&mut rng, anchor_len, &forbidden);
            let locs = vec![jportal_corpus::pack_loc(None, None); syms.len()];
            builder.insert(&syms, &locs, &[]);
        }
        let corpus = Arc::new(builder.build());
        let cells: Vec<Cell> = subjects
            .iter()
            .map(|(w, r)| measure_cell(w, r, &corpus, reps))
            .collect();
        let holes: usize = cells.iter().map(|c| c.holes).sum();
        let filled: usize = cells.iter().map(|c| c.filled).sum();
        let fills: usize = cells.iter().map(|c| c.fills).sum();
        let conf: f64 = cells.iter().map(|c| c.confidence_sum).sum();
        points.push(SizePoint {
            segments: corpus.segment_count(),
            arena_bytes: corpus.stats().arena_bytes,
            analyze_total_s: cells.iter().map(|c| c.median_s).sum(),
            fill_rate: if holes == 0 {
                1.0
            } else {
                filled as f64 / holes as f64
            },
            mean_confidence: if fills == 0 { 0.0 } else { conf / fills as f64 },
            hits: cells.iter().map(|c| c.hits).sum(),
        });
        println!(
            "corpus_scale: {} segments → {:.2} ms, fill rate {:.3}, {} hits \
             ({} lookups, {} candidates)",
            points.last().unwrap().segments,
            points.last().unwrap().analyze_total_s * 1e3,
            points.last().unwrap().fill_rate,
            points.last().unwrap().hits,
            cells.iter().map(|c| c.lookups).sum::<usize>(),
            cells.iter().map(|c| c.candidates).sum::<usize>(),
        );
    }

    // Deterministic invariants — violations are correctness bugs, so they
    // kill the bench unconditionally (no gate flag needed).
    if points.iter().all(|p| p.hits == 0) {
        eprintln!("FAILED: corpus consult point never fired; the sweep measured nothing");
        std::process::exit(1);
    }
    for pair in points.windows(2) {
        if pair[1].fill_rate < pair[0].fill_rate - 1e-12 {
            eprintln!(
                "FAILED: fill rate dropped {} → {} as the corpus grew {} → {} segments",
                pair[0].fill_rate, pair[1].fill_rate, pair[0].segments, pair[1].segments
            );
            std::process::exit(1);
        }
        if pair[1].mean_confidence < pair[0].mean_confidence - 1e-12 {
            eprintln!(
                "FAILED: mean confidence dropped {} → {} as the corpus grew {} → {} segments",
                pair[0].mean_confidence,
                pair[1].mean_confidence,
                pair[0].segments,
                pair[1].segments
            );
            std::process::exit(1);
        }
    }

    let medians: Vec<f64> = points.iter().map(|p| p.analyze_total_s).collect();
    let latency_ratio =
        medians.iter().cloned().fold(0.0, f64::max) / gate::min(&medians).max(1e-12);

    // SWAR vs scalar on a long shared tail: the regime the in-run
    // tier_suffix hits on every candidate, far past the 8-sym word size.
    let mut rng = Rng(0xDECAF);
    let tail: Vec<Sym> = (0..12_000).map(|_| random_sym(&mut rng)).collect();
    let mut a: Vec<Sym> = (0..500).map(|_| random_sym(&mut rng)).collect();
    let mut b: Vec<Sym> = (0..900).map(|_| random_sym(&mut rng)).collect();
    a.extend_from_slice(&tail);
    b.extend_from_slice(&tail);
    let pa = PackedSyms::from_syms(&a);
    let pb = PackedSyms::from_syms(&b);
    let swar = suffix_swar(
        &pa.ops,
        &pa.dirs,
        a.len(),
        &pb.ops,
        &pb.dirs,
        b.len(),
        usize::MAX,
    );
    let scalar = suffix_scalar(
        &pa.ops,
        &pa.dirs,
        a.len(),
        &pb.ops,
        &pb.dirs,
        b.len(),
        usize::MAX,
    );
    assert_eq!(swar, scalar, "SWAR and scalar kernels disagree");
    assert!(swar >= tail.len(), "shared tail not found");

    let mut g = c.benchmark_group("corpus_scale");
    g.bench_function("suffix_swar", |bch| {
        bch.iter(|| {
            suffix_swar(
                &pa.ops,
                &pa.dirs,
                a.len(),
                &pb.ops,
                &pb.dirs,
                b.len(),
                usize::MAX,
            )
        })
    });
    g.bench_function("suffix_scalar", |bch| {
        bch.iter(|| {
            suffix_scalar(
                &pa.ops,
                &pa.dirs,
                a.len(),
                &pb.ops,
                &pb.dirs,
                b.len(),
                usize::MAX,
            )
        })
    });
    g.finish();

    let find = |name: &str| {
        c.results
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} not measured"))
            .clone()
    };
    let numbers = Numbers {
        points,
        latency_ratio,
        swar_ns: find("suffix_swar").min_ns,
        scalar_ns: find("suffix_scalar").min_ns,
    };
    write_report(mode, &numbers);
}

criterion_group!(benches, bench_corpus_scale);
criterion_main!(benches);
