//! The traced replay: `JPortal::analyze` with one worker, rebuilt from
//! each layer's public function in pipeline order, with a timer around
//! every layer call and the layer's work counts read from its results.
//!
//! What the replay does between the timed calls — compaction, entry and
//! `LintStep` emission — mirrors the pipeline's private assembly code. It
//! is checked per thread against the real single-worker report, so the
//! ledger always measures the work the program actually does.

use std::time::Instant;

use jportal_analysis::{lint_steps_summarized, LintDiagnostic, LintStep};
use jportal_bytecode::Program;
use jportal_cfg::abs::AbstractNfa;
use jportal_cfg::MatchScratch;
use jportal_core::decode::decode_segment;
use jportal_core::reconstruct::project_segment_with;
use jportal_core::recover::FillScratch;
use jportal_core::threads::segregate_with_stats;
use jportal_core::{
    JPortal, JPortalConfig, JPortalReport, ProjectionStats, Recovery, RecoveryStats, SegmentView,
    TraceEntry, TraceOrigin,
};
use jportal_ipt::sideband::schedule_intervals;
use jportal_ipt::{decode_packets_into, CollectedTraces, DecodeScratch, ThreadId};
use jportal_jvm::MetadataArchive;

/// Seconds spent in each timed layer call, summed over the whole replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `segregate_with_stats` (includes its own packet decode).
    pub segregate: f64,
    /// `decode_packets_into` over every core stream, timed on its own.
    pub ipt_decode: f64,
    /// `decode_segment` over every piece.
    pub decode: f64,
    /// `project_segment_with` over every piece.
    pub project: f64,
    /// `Recovery::new` with its dominator and summary attachments.
    pub index: f64,
    /// `fill_hole_with` over every hole.
    pub fill: f64,
    /// `lint_steps_summarized` over every thread.
    pub lint: f64,
}

/// Deterministic work counts; must repeat exactly for the same input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Packets decoded from every core stream.
    pub packets: u64,
    /// Bytes the decoder skipped to resynchronize.
    pub resync_bytes: u64,
    /// Scheduling intervals over all cores.
    pub intervals: u64,
    /// Per-thread pieces segregation produced.
    pub pieces: u64,
    /// Bytecode events decoded.
    pub events: u64,
    /// Projection statistics over all pieces.
    pub projection: ProjectionStats,
    /// Abstract-DFA transitions answered from the memo table.
    pub dfa_hits: u64,
    /// Abstract-DFA transitions computed by subset construction.
    pub dfa_misses: u64,
    /// Recovery statistics over all threads.
    pub recovery: RecoveryStats,
    /// Steps handed to the linter.
    pub lint_steps: u64,
    /// Diagnostics the linter reported.
    pub lint_diagnostics: u64,
}

/// One replay's result.
pub struct Replay {
    /// Per-layer time.
    pub times: LayerTimes,
    /// Per-layer work.
    pub counts: WorkCounts,
    /// Per thread: entry count and lint diagnostics, for the drift guard.
    pub threads: Vec<(ThreadId, usize, Vec<LintDiagnostic>)>,
}

impl Replay {
    /// Compares the replay with the single-worker report; returns the
    /// first difference found.
    pub fn drift_from(&self, report: &JPortalReport) -> Option<String> {
        if self.threads.len() != report.threads.len() {
            return Some(format!(
                "replay has {} threads, analyze has {}",
                self.threads.len(),
                report.threads.len()
            ));
        }
        for ((thread, entries, lint), t) in self.threads.iter().zip(&report.threads) {
            if *thread != t.thread || *entries != t.entries.len() || *lint != t.lint {
                return Some(format!(
                    "thread {}: replay {} entries / {} diagnostics, analyze {} / {}",
                    t.thread,
                    entries,
                    lint.len(),
                    t.entries.len(),
                    t.lint.len()
                ));
            }
        }
        None
    }
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// Replays one single-worker analysis through the layers' public
/// functions. `jportal` supplies the ICFG, summaries and static facts it
/// built; `config` must be the configuration it was built with.
pub fn replay(
    jportal: &JPortal<'_>,
    program: &Program,
    traces: &CollectedTraces,
    archive: &MetadataArchive,
    config: &JPortalConfig,
) -> Replay {
    let icfg = jportal.icfg();
    let summaries = jportal.summaries();
    let mut times = LayerTimes::default();
    let mut counts = WorkCounts::default();

    // ipt: the packet decoder on its own, one scratch for every stream.
    let mut scratch = DecodeScratch::new();
    for trace in &traces.per_core {
        timed(&mut times.ipt_decode, || {
            decode_packets_into(&trace.bytes, &mut scratch);
        });
    }
    counts.packets = scratch.stats().packets;
    counts.resync_bytes = scratch.stats().resync_bytes;
    counts.intervals = (0..traces.per_core.len() as u32)
        .map(|core| schedule_intervals(&traces.sideband, core, traces.end_ts).len() as u64)
        .sum();

    // core.threads: segregation, then the pipeline's thread order.
    let (per_thread, _) = timed(&mut times.segregate, || segregate_with_stats(traces, 1));
    let mut per_thread: Vec<_> = per_thread.into_iter().collect();
    per_thread.sort_by_key(|(t, _)| *t);

    let anfa = AbstractNfa::new(program, icfg);
    let mut match_scratch = MatchScratch::new();
    let mut threads = Vec::with_capacity(per_thread.len());
    for (thread, pieces) in &per_thread {
        counts.pieces += pieces.len() as u64;
        // core.decode + core.reconstruct, piece by piece.
        let mut views = Vec::with_capacity(pieces.len());
        for piece in pieces {
            let decoded = timed(&mut times.decode, || {
                decode_segment(program, archive, &piece.segment)
            });
            counts.events += decoded.events.len() as u64;
            let proj = timed(&mut times.project, || {
                project_segment_with(
                    program,
                    icfg,
                    &anfa,
                    &decoded.events,
                    &config.projection,
                    summaries,
                    &mut match_scratch,
                )
            });
            counts.projection.merge(&proj.stats);
            views.push(SegmentView {
                events: decoded.events,
                nodes: proj.nodes,
                breaks: proj.breaks,
                loss_before: decoded.loss_before,
            });
        }

        // Compaction: drop empty segments, carrying their loss marks on.
        let mut compacted: Vec<SegmentView> = Vec::new();
        let mut pending_loss = None;
        for mut v in views {
            if v.loss_before.is_some() {
                pending_loss = v.loss_before;
            }
            if v.events.is_empty() {
                continue;
            }
            v.loss_before = pending_loss.take();
            compacted.push(v);
        }

        // core.recover: index, then one fill per lossy boundary.
        let recovery = timed(&mut times.index, || {
            let r = Recovery::new(program, icfg, &compacted, config.recovery)
                .with_workers(1)
                .with_dominators(jportal.analysis());
            match summaries {
                Some(table) => r.with_summaries(table),
                None => r,
            }
        });
        let mut stats = RecoveryStats::default();
        let mut fill_scratch = FillScratch::new();
        let mut entries: Vec<TraceEntry> = Vec::new();
        let mut steps: Vec<LintStep> = Vec::new();
        for i in 0..compacted.len() {
            let hole = compacted[i].loss_before.filter(|_| i > 0);
            if let Some(loss) = hole.filter(|_| !config.disable_recovery) {
                let fill = timed(&mut times.fill, || {
                    recovery.fill_hole_with(
                        &compacted,
                        i - 1,
                        i,
                        Some(loss),
                        &mut stats,
                        &mut fill_scratch,
                    )
                });
                entries.extend(fill.entries);
                steps.extend(fill.steps);
            }
            let seg = &compacted[i];
            for (idx, (e, node)) in seg.events.iter().zip(&seg.nodes).enumerate() {
                let (method, bci) = match node {
                    Some(n) => {
                        let (m, b) = icfg.location(*n);
                        (Some(m), Some(b))
                    }
                    None => (e.method, e.bci),
                };
                entries.push(TraceEntry {
                    op: e.sym.op,
                    method,
                    bci,
                    ts: e.ts,
                    origin: TraceOrigin::Decoded,
                });
                steps.push(LintStep {
                    node: *node,
                    op: e.sym.op,
                    dir: e.sym.dir,
                    boundary: idx == 0 || seg.breaks.binary_search(&idx).is_ok(),
                    lossy: idx == 0,
                });
            }
        }
        counts.recovery.merge(&stats);

        // analysis: the feasibility linter over the whole timeline.
        let lint = if config.lint {
            timed(&mut times.lint, || {
                lint_steps_summarized(program, icfg, &steps, summaries)
            })
        } else {
            Vec::new()
        };
        counts.lint_steps += steps.len() as u64;
        counts.lint_diagnostics += lint.len() as u64;
        threads.push((*thread, entries.len(), lint));
    }
    let dfa = anfa.dfa_stats();
    counts.dfa_hits = dfa.hits;
    counts.dfa_misses = dfa.misses;
    Replay {
        times,
        counts,
        threads,
    }
}
