//! The per-thread assembly as it was before the timeline was held once,
//! rebuilt from the public API as the oracle of
//! `timeline_equivalence.rs`: every segment decoded and projected, empty
//! segments compacted away, every hole filled in timeline order, and
//! then the whole thread materialised twice — once as trace entries and
//! once as a `Vec<LintStep>` — before the linter replays the steps.

use jportal_analysis::{lint_steps_summarized, LintDiagnostic, LintStep};
use jportal_bytecode::Program;
use jportal_cfg::abs::AbstractNfa;
use jportal_cfg::MatchScratch;
use jportal_core::decode::decode_segment;
use jportal_core::reconstruct::project_segment_with;
use jportal_core::recover::FillScratch;
use jportal_core::threads::segregate_with_stats;
use jportal_core::{
    JPortal, JPortalConfig, Recovery, RecoveryStats, SegmentView, TraceEntry, TraceOrigin,
};
use jportal_ipt::{CollectedTraces, ThreadId};
use jportal_jvm::MetadataArchive;

/// One thread's materialised timeline.
pub struct Timeline {
    pub thread: ThreadId,
    pub entries: Vec<TraceEntry>,
    /// Empty when `config.lint` is off.
    pub lint: Vec<LintDiagnostic>,
    /// The lint steps, one per entry.
    pub steps: Vec<LintStep>,
}

/// Assembles every thread of `traces` the materialising way. `jportal`
/// must have been built over `program` with `config`.
pub fn assemble(
    jportal: &JPortal<'_>,
    program: &Program,
    traces: &CollectedTraces,
    archive: &MetadataArchive,
    config: &JPortalConfig,
) -> Vec<Timeline> {
    let (icfg, summaries) = (jportal.icfg(), jportal.summaries());
    let (per_thread, _) = segregate_with_stats(traces, 1);
    let mut per_thread: Vec<_> = per_thread.into_iter().collect();
    per_thread.sort_by_key(|(t, _)| *t);
    let anfa = AbstractNfa::new(program, icfg);
    let mut scratch = MatchScratch::new();
    let mut out = Vec::with_capacity(per_thread.len());
    for (thread, pieces) in per_thread {
        // Compaction: drop empty segments, carrying their loss marks on.
        let mut compacted: Vec<SegmentView> = Vec::new();
        let mut pending_loss = None;
        for piece in &pieces {
            let decoded = decode_segment(program, archive, &piece.segment);
            let proj = project_segment_with(
                program,
                icfg,
                &anfa,
                &decoded.events,
                &config.projection,
                summaries,
                &mut scratch,
            );
            if decoded.loss_before.is_some() {
                pending_loss = decoded.loss_before;
            }
            if decoded.events.is_empty() {
                continue;
            }
            compacted.push(SegmentView {
                events: decoded.events,
                nodes: proj.nodes,
                breaks: proj.breaks,
                loss_before: pending_loss.take(),
            });
        }

        let has_hole = compacted.iter().skip(1).any(|s| s.loss_before.is_some());
        let recovery = (has_hole && !config.disable_recovery).then(|| {
            let r = Recovery::new(program, icfg, &compacted, config.recovery)
                .with_dominators(jportal.analysis());
            match summaries {
                Some(table) => r.with_summaries(table),
                None => r,
            }
        });
        let (mut stats, mut fill_scratch) = (RecoveryStats::default(), FillScratch::new());
        let mut entries: Vec<TraceEntry> = Vec::new();
        let mut steps: Vec<LintStep> = Vec::new();
        for i in 0..compacted.len() {
            let hole = compacted[i].loss_before.filter(|_| i > 0);
            if let (Some(loss), Some(recovery)) = (hole, &recovery) {
                let fill = recovery.fill_hole_with(
                    &compacted,
                    i - 1,
                    i,
                    Some(loss),
                    &mut stats,
                    &mut fill_scratch,
                );
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
        let lint = if config.lint {
            lint_steps_summarized(program, icfg, &steps, summaries)
        } else {
            Vec::new()
        };
        out.push(Timeline {
            thread,
            entries,
            lint,
            steps,
        });
    }
    out
}
