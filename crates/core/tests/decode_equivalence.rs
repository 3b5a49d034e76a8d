//! Equivalence suite for the table-driven JIT walk.
//!
//! `decode_segment_with` walks JIT code through a prebuilt `WalkIndex`
//! (one row per machine instruction, debug records and successors
//! resolved up front). It is pinned against the pc-walking reference
//! decoder it replaced: on every input both must produce identical
//! events, loss records and capture cores — interpreted and JIT code,
//! degraded debug metadata, lossy rings, multi-threaded pieces, and
//! segments cut at arbitrary packet offsets so walks start mid-stream
//! and pause at conditionals awaiting TNT bits.

use jportal_bytecode::Program;
use jportal_core::threads::segregate_with_stats;
use jportal_core::{decode_segment, decode_segment_with, WalkIndex};
use jportal_ipt::{decode_packets, segment_stream, RawSegment};
use jportal_jvm::{JitConfig, Jvm, JvmConfig, MetadataArchive, RunResult};
use jportal_workloads::{workload_by_name, Workload};

#[path = "support/reference_decode_segment.rs"]
mod reference;
use reference::reference_decode_segment;

/// Deterministic pseudo-random stream (SplitMix64).
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

/// What one input exercised, summed over its segments.
#[derive(Debug, Default)]
struct Coverage {
    segments: usize,
    events: usize,
    jit_events: usize,
    lossy: usize,
}

/// Decodes `raw` both ways and asserts identical output.
fn assert_same(
    program: &Program,
    archive: &MetadataArchive,
    index: &WalkIndex,
    raw: &RawSegment,
    cov: &mut Coverage,
) {
    let want = reference_decode_segment(program, archive, raw);
    let got = decode_segment_with(archive, index, raw);
    assert_eq!(got.events, want.events, "decoded events differ");
    assert_eq!(got.loss_before, want.loss_before);
    assert_eq!(got.core, want.core);
    cov.segments += 1;
    cov.events += got.events.len();
    cov.jit_events += got.events.iter().filter(|e| e.method.is_some()).count();
    cov.lossy += usize::from(got.loss_before.is_some());
}

/// Checks every per-core segment and every per-thread piece of a run,
/// plus each piece cut at seeded random packet offsets.
fn assert_run_equivalent(program: &Program, r: &RunResult, seed: u64) -> Coverage {
    let traces = r.traces.as_ref().expect("traced run");
    let index = WalkIndex::new(program, &r.archive);
    let mut cov = Coverage::default();
    for (core, trace) in traces.per_core.iter().enumerate() {
        let packets = decode_packets(&trace.bytes);
        for raw in segment_stream(packets, &trace.losses, core as u32) {
            assert_same(program, &r.archive, &index, &raw, &mut cov);
        }
    }
    let (per_thread, _) = segregate_with_stats(traces, 1);
    let mut threads: Vec<_> = per_thread.into_iter().collect();
    threads.sort_by_key(|(t, _)| *t);
    let mut rng = Rng(seed);
    for (_, pieces) in &threads {
        for piece in pieces {
            let raw = &piece.segment;
            assert_same(program, &r.archive, &index, raw, &mut cov);
            if raw.is_empty() {
                continue;
            }
            let mut cuts: Vec<usize> = (0..1 + rng.next() % 6)
                .map(|_| (rng.next() % raw.len() as u64) as usize)
                .collect();
            cuts.push(raw.len());
            cuts.sort_unstable();
            let mut lo = 0;
            for hi in cuts {
                let slice = raw.slice(lo, hi, if lo == 0 { raw.loss_before } else { None });
                assert_same(program, &r.archive, &index, &slice, &mut cov);
                lo = hi;
            }
        }
    }
    // The convenience wrapper builds its own index and agrees too.
    if let Some(raw) = threads.first().and_then(|(_, p)| p.first()) {
        let want = reference_decode_segment(program, &r.archive, &raw.segment);
        assert_eq!(
            decode_segment(program, &r.archive, &raw.segment).events,
            want.events
        );
    }
    cov
}

/// The benchmark harness's collection configuration: an unbounded ring
/// unless `preset` names a `(bytes per core, drain per kilocycle)` pair,
/// and one debug record in ten lost.
fn harness_config(w: &Workload, preset: Option<(usize, u64)>) -> JvmConfig {
    JvmConfig {
        cores: if w.multithreaded { 2 } else { 1 },
        pt_buffer_capacity: preset.map_or(1 << 26, |p| p.0),
        drain_bytes_per_kilocycle: preset.map_or(1 << 20, |p| p.1),
        jit: JitConfig {
            debug_degrade: 0.10,
            ..JitConfig::default()
        },
        ..JvmConfig::default()
    }
}

fn run(w: &Workload, cfg: JvmConfig) -> RunResult {
    Jvm::new(cfg).run_threads(&w.program, &w.threads)
}

#[test]
fn interpreted_only_runs_decode_identically() {
    let w = workload_by_name("sunflow", 1);
    let r = run(
        &w,
        JvmConfig {
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        },
    );
    let cov = assert_run_equivalent(&w.program, &r, 1);
    assert!(cov.events > 0);
    assert_eq!(cov.jit_events, 0, "no compilation, no JIT events");
}

#[test]
fn jit_heavy_runs_decode_identically() {
    for name in ["sunflow", "lusearch", "avrora"] {
        let w = workload_by_name(name, 1);
        let r = run(
            &w,
            JvmConfig {
                cores: if w.multithreaded { 2 } else { 1 },
                c1_threshold: 2,
                c2_threshold: 6,
                ..JvmConfig::default()
            },
        );
        let cov = assert_run_equivalent(&w.program, &r, 2);
        assert!(
            cov.jit_events > cov.events / 4,
            "{name}: JIT-dominated: {cov:?}"
        );
    }
}

#[test]
fn degraded_debug_info_decodes_identically() {
    let w = workload_by_name("sunflow", 1);
    let r = run(
        &w,
        JvmConfig {
            c1_threshold: 4,
            c2_threshold: 16,
            jit: JitConfig {
                debug_degrade: 0.3,
                ..JitConfig::default()
            },
            ..JvmConfig::default()
        },
    );
    let cov = assert_run_equivalent(&w.program, &r, 3);
    assert!(cov.jit_events > 0);
}

#[test]
fn small_lossy_ring_decodes_identically() {
    let w = workload_by_name("sunflow", 1);
    let r = run(
        &w,
        JvmConfig {
            pt_buffer_capacity: 512,
            drain_bytes_per_kilocycle: 3,
            c1_threshold: 4,
            c2_threshold: 16,
            ..JvmConfig::default()
        },
    );
    let cov = assert_run_equivalent(&w.program, &r, 4);
    assert!(cov.lossy > 0, "the ring must drop data: {cov:?}");
    assert!(cov.jit_events > 0);
}

#[test]
fn benchmark_subjects_decode_identically() {
    let sunflow = workload_by_name("sunflow", 2);
    let cov = assert_run_equivalent(
        &sunflow.program,
        &run(&sunflow, harness_config(&sunflow, None)),
        5,
    );
    assert!(cov.jit_events > 0);

    let lusearch = workload_by_name("lusearch", 2);
    let cov = assert_run_equivalent(
        &lusearch.program,
        &run(&lusearch, harness_config(&lusearch, None)),
        6,
    );
    assert!(cov.segments > 4, "multi-threaded run splits into pieces");

    // fop under its own "64M" preset: the ring holds 1/40 of the
    // lossless per-core volume and drains at 85% of its rate.
    let fop = workload_by_name("fop", 1);
    let lossless = run(&fop, harness_config(&fop, None));
    let traces = lossless.traces.as_ref().expect("traced run");
    let bytes: u64 = traces.per_core.iter().map(|t| t.bytes.len() as u64).sum();
    let cores = traces.per_core.len().max(1) as u64;
    let rate = bytes * 1000 / lossless.wall_cycles.max(1) / cores;
    let preset = (
        ((bytes / cores) / 40).max(128) as usize,
        (rate * 17 / 20).max(1),
    );
    let cov = assert_run_equivalent(
        &fop.program,
        &run(&fop, harness_config(&fop, Some(preset))),
        7,
    );
    assert!(cov.lossy > 0, "the 64M preset drops data: {cov:?}");
}
