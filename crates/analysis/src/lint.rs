//! Trace-feasibility linter.
//!
//! Replays a reconstructed (or recovered) bytecode sequence against the
//! ICFG and a call-stack abstraction, reporting every way the sequence
//! could not have been produced by a real execution:
//!
//! * [`LintKind::OpMismatch`] — a located step's recorded operation kind
//!   disagrees with the instruction at its `(method, bci)`;
//! * [`LintKind::MissingEdge`] — two consecutively located steps have no
//!   ICFG edge between them;
//! * [`LintKind::BranchContradiction`] — an edge exists, but none whose
//!   kind is compatible with the branch direction recorded at the source
//!   (e.g. the trace says *not taken* yet lands on the taken target);
//! * [`LintKind::UnmatchedReturn`] — a return is taken from a method
//!   while the innermost pending call went to a *different* method (a
//!   skipped or interleaved return);
//! * [`LintKind::StackImbalance`] — summaries mode only: a return is
//!   taken from a method that is not on, reachable from, or op-kind
//!   confusable with anything on the fully observed pending-call stack —
//!   an interprocedurally impossible unwind;
//! * [`LintKind::InfeasibleSummary`] — summaries mode only: a located
//!   branch records a direction the method's abstract interpretation
//!   proved impossible (`iconst 0; ifeq` observed as *not taken*).
//!
//! The linter is deliberately *seam-aware*: reconstruction restarts after
//! unmatched events, and recovery splices independently-searched fills
//! between segments. Consecutive steps across such a seam carry no
//! adjacency guarantee, so the producer marks them with
//! [`LintStep::boundary`] and the linter resets its edge and call-stack
//! state there instead of reporting false violations. Within one matched
//! run, adjacency **is** guaranteed by NFA construction, so any violation
//! reported here indicates a genuine reconstruction defect (or a corrupted
//! input trace).
//!
//! Seams come in two flavors, distinguished by [`LintStep::lossy`]: a
//! **projection restart** separates two matched runs of the *same*
//! uninterrupted event stream (nothing is missing — only the located
//! positions are discontinuous), while a **lossy** seam (segment start
//! after a hardware overflow, recovery splice) genuinely hides events.
//! Legacy mode resets the call stack at every seam, which silently
//! swallows imbalances spanning a restart; summaries mode instead
//! carries the stack across seams with per-frame trust marks. Across a
//! lossy seam it pops frames the summary table proves cannot enclose
//! the resume point and marks the survivors *tainted* (missed events
//! make them unreliable: they pop silently). Across any
//! located-continuity loss — a restart or an unplaced event — surviving
//! frames are marked *relocated*: later runs may be placed at any
//! window-matching position, so identity checks degrade to op-kind
//! feasibility (the recorded return op must be a feasible exit kind of
//! the pending class — relocation can blur which method a run sits in,
//! never which op kinds the hardware recorded). Only frames whose
//! entire observed lifetime is seam-free get the strict
//! interprocedural check.
//!
//! The call-stack abstraction is context-sensitive where the ICFG is not:
//! a `Call` edge pushes a frame recording the callee and the caller's
//! continuation, a `Return` edge must pop a frame whose *callee* is the
//! returning method, and an `Exception` edge into a different method
//! unwinds intervening frames. An empty stack matches anything (the
//! prefix before the first observed call is unknown).
//!
//! The return check deliberately compares *methods*, not continuation
//! nodes: when op-identical methods are reachable from several call
//! sites, the projector's choice among them is arbitrary, so a return
//! landing on a sibling site's continuation is a relocation artifact,
//! not an infeasibility. A return taken from a method that is not the
//! innermost pending callee, however, has no feasible interpretation.

use crate::interproc::SummaryTable;
use jportal_bytecode::{Bci, MethodId, OpKind, Program};
use jportal_cfg::{BranchDir, EdgeKind, Icfg, NodeId};
use jportal_obs::MetricClass;
use std::borrow::Borrow;
use std::fmt;

/// One event of the sequence under lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintStep {
    /// ICFG node the event was located at (`None` if reconstruction left
    /// it unplaced).
    pub node: Option<NodeId>,
    /// Operation kind recorded for the event.
    pub op: OpKind,
    /// Branch direction recorded for the event (constrains the outgoing
    /// edge towards the next step).
    pub dir: BranchDir,
    /// `true` when no ICFG edge is guaranteed from the previous step:
    /// segment starts, projection restarts and recovery splice seams.
    pub boundary: bool,
    /// Meaningful only when `boundary` is set: `true` when events may be
    /// missing before this step (segment start after a hardware
    /// overflow, recovery splice), `false` for a pure matching
    /// discontinuity (projection restart — every event is present).
    pub lossy: bool,
}

impl LintStep {
    /// A located step with unknown branch direction and no seam.
    pub fn at(node: NodeId, op: OpKind) -> LintStep {
        LintStep {
            node: Some(node),
            op,
            dir: BranchDir::Unknown,
            boundary: false,
            lossy: false,
        }
    }

    /// Marks this step as following a lossy seam (events may be missing
    /// before it).
    pub fn seam(mut self) -> LintStep {
        self.boundary = true;
        self.lossy = true;
        self
    }

    /// Marks this step as following a projection restart: no ICFG edge
    /// from the previous step, but no event is missing either.
    pub fn restart(mut self) -> LintStep {
        self.boundary = true;
        self.lossy = false;
        self
    }

    /// Sets the recorded branch direction.
    pub fn with_dir(mut self, dir: BranchDir) -> LintStep {
        self.dir = dir;
        self
    }
}

/// The class of feasibility violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintKind {
    /// Recorded op kind ≠ instruction at the located `(method, bci)`.
    OpMismatch,
    /// No ICFG edge between consecutive located steps.
    MissingEdge,
    /// Edges exist but none compatible with the recorded direction.
    BranchContradiction,
    /// Return taken from a method other than the innermost pending
    /// call's callee.
    UnmatchedReturn,
    /// Return taken from a method that is interprocedurally impossible
    /// given the fully observed pending-call stack: not a pending
    /// callee, not transitively reachable from one, and not op-kind
    /// confusable with either (summaries mode only).
    StackImbalance,
    /// A located branch recorded a direction the method summary proved
    /// statically impossible (summaries mode only).
    InfeasibleSummary,
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LintKind::OpMismatch => "op-mismatch",
            LintKind::MissingEdge => "missing-edge",
            LintKind::BranchContradiction => "branch-contradiction",
            LintKind::UnmatchedReturn => "unmatched-return",
            LintKind::StackImbalance => "stack-imbalance",
            LintKind::InfeasibleSummary => "infeasible-summary",
        })
    }
}

/// One feasibility violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintDiagnostic {
    /// Violation class.
    pub kind: LintKind,
    /// Index of the offending step in the linted sequence.
    pub index: usize,
    /// Location of the preceding located step, when the violation is
    /// about the transition into this step.
    pub from: Option<(MethodId, Bci)>,
    /// Location of the offending step.
    pub at: (MethodId, Bci),
    /// Human-readable explanation.
    pub detail: String,
}

impl fmt::Display for LintDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] step {}: {}", self.kind, self.index, self.detail)
    }
}

/// Aggregated diagnostic counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LintSummary {
    /// Count of [`LintKind::OpMismatch`].
    pub op_mismatch: usize,
    /// Count of [`LintKind::MissingEdge`].
    pub missing_edge: usize,
    /// Count of [`LintKind::BranchContradiction`].
    pub branch_contradiction: usize,
    /// Count of [`LintKind::UnmatchedReturn`].
    pub unmatched_return: usize,
    /// Count of [`LintKind::StackImbalance`].
    pub stack_imbalance: usize,
    /// Count of [`LintKind::InfeasibleSummary`].
    pub infeasible_summary: usize,
}

impl LintSummary {
    /// Tallies a diagnostic list.
    pub fn of(diagnostics: &[LintDiagnostic]) -> LintSummary {
        let mut s = LintSummary::default();
        for d in diagnostics {
            match d.kind {
                LintKind::OpMismatch => s.op_mismatch += 1,
                LintKind::MissingEdge => s.missing_edge += 1,
                LintKind::BranchContradiction => s.branch_contradiction += 1,
                LintKind::UnmatchedReturn => s.unmatched_return += 1,
                LintKind::StackImbalance => s.stack_imbalance += 1,
                LintKind::InfeasibleSummary => s.infeasible_summary += 1,
            }
        }
        s
    }

    /// Folds another summary into this one (commutative, associative).
    pub fn merge(&mut self, other: &LintSummary) {
        self.op_mismatch += other.op_mismatch;
        self.missing_edge += other.missing_edge;
        self.branch_contradiction += other.branch_contradiction;
        self.unmatched_return += other.unmatched_return;
        self.stack_imbalance += other.stack_imbalance;
        self.infeasible_summary += other.infeasible_summary;
    }

    /// Total diagnostics across all kinds.
    pub fn total(&self) -> usize {
        self.op_mismatch
            + self.missing_edge
            + self.branch_contradiction
            + self.unmatched_return
            + self.stack_imbalance
            + self.infeasible_summary
    }

    /// `true` when no violation was found.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }
}

impl fmt::Display for LintSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} diagnostics (op-mismatch {}, missing-edge {}, branch-contradiction {}, \
             unmatched-return {}, stack-imbalance {}, infeasible-summary {})",
            self.total(),
            self.op_mismatch,
            self.missing_edge,
            self.branch_contradiction,
            self.unmatched_return,
            self.stack_imbalance,
            self.infeasible_summary
        )
    }
}

/// One pending call on the abstract stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    /// Method the call entered.
    callee: MethodId,
    /// Caller's continuation node (used to locate the caller's frame
    /// during exception unwinding).
    cont: NodeId,
    /// Summaries mode: `true` when the frame was carried across a lossy
    /// seam, so the events that would confirm it may be missing.
    tainted: bool,
    /// Summaries mode: `true` when located-continuity was lost since the
    /// frame was pushed (a projection restart or an unplaced event).
    /// Later runs may be *relocated* — placed at any window-matching
    /// position — so the frame's method identity is only trustworthy up
    /// to "some method whose code contains the matched window", and
    /// identity-based checks degrade to op-kind feasibility checks.
    relocated: bool,
}

/// [`lint_steps_summarized`] plus telemetry and flight-recorder
/// emission: a `lint` span covering the replay, step/diagnostic
/// counters on the handle's registry, and every diagnostic as a
/// [`jportal_obs::JournalEvent::LintBreak`] through `recorder`. All of
/// it is inert when `obs` is disabled; the diagnostics are identical
/// either way. `count` is the number of steps `steps` yields, known
/// to the caller before the replay starts (the span carries it).
pub fn lint_steps_journaled(
    program: &Program,
    icfg: &Icfg,
    steps: impl IntoIterator<Item: Borrow<LintStep>>,
    count: usize,
    summaries: Option<&SummaryTable>,
    obs: &jportal_obs::Obs,
    recorder: &mut jportal_obs::JournalRecorder<'_>,
) -> Vec<LintDiagnostic> {
    let _span = obs
        .span("lint", "lint_steps")
        .arg("steps", count)
        .record_sketch(&obs.registry().sketch("analysis.lint.wall_us"));
    let mut replayed = 0;
    let steps = steps.into_iter().inspect(|_| replayed += 1);
    let diagnostics = lint_steps_summarized(program, icfg, steps, summaries);
    debug_assert_eq!(replayed, count, "the step count must match the steps");
    let reg = obs.registry();
    reg.counter("analysis.lint.steps", MetricClass::Exact)
        .add(count as u64);
    reg.counter("analysis.lint.diagnostics", MetricClass::Exact)
        .add(diagnostics.len() as u64);
    if recorder.is_enabled() {
        for d in &diagnostics {
            recorder.emit(jportal_obs::JournalEvent::LintBreak {
                kind: d.kind.to_string(),
                index: d.index as u64,
                detail: d.detail.clone(),
            });
        }
    }
    diagnostics
}

/// Replays `steps` once, in order, against the ICFG and reports every
/// violation.
///
/// With `summaries` present the call-stack abstraction becomes
/// interprocedural (see the module docs): the stack survives seams,
/// return checks are phrased over op-kind equality classes and callee
/// reach, and two additional diagnostic kinds can fire —
/// [`LintKind::StackImbalance`] and [`LintKind::InfeasibleSummary`].
/// With `None` the behavior is exactly the legacy per-seam-reset
/// linter.
pub fn lint_steps_summarized(
    program: &Program,
    icfg: &Icfg,
    steps: impl IntoIterator<Item: Borrow<LintStep>>,
    summaries: Option<&SummaryTable>,
) -> Vec<LintDiagnostic> {
    let mut out = Vec::new();
    // Last located step (node, recorded direction, recorded op); `None`
    // after a seam or an unplaced event.
    let mut prev: Option<(NodeId, BranchDir, OpKind)> = None;
    // Frames pushed by observed calls. Empty = unknown prefix.
    let mut stack: Vec<Frame> = Vec::new();

    for (i, step) in steps.into_iter().enumerate() {
        let step = step.borrow();
        if step.boundary {
            prev = None;
            match summaries {
                None => stack.clear(),
                Some(t) => {
                    if step.lossy {
                        match step.node {
                            // Lossy resume at an unknown location: the
                            // stack constrains nothing anymore.
                            None => stack.clear(),
                            Some(node) => {
                                // Pop frames the summary table proves
                                // cannot enclose the resume method, and
                                // taint the survivors — events that
                                // would confirm them are missing.
                                let resume = icfg.method_of(node);
                                while let Some(f) = stack.last() {
                                    if t.class_reaches(f.callee, resume) {
                                        break;
                                    }
                                    stack.pop();
                                }
                                for f in &mut stack {
                                    f.tainted = true;
                                }
                            }
                        }
                    }
                    // Non-lossy restart: every event is present, so the
                    // stack carries over untouched (satellite fix for
                    // imbalances spanning a projection restart).
                }
            }
        }
        let Some(node) = step.node else {
            // An unplaced event breaks edge adjacency; if it could have
            // changed the call stack, the stack is no longer trustworthy.
            prev = None;
            if matches!(
                step.op,
                OpKind::InvokeStatic
                    | OpKind::InvokeVirtual
                    | OpKind::Return
                    | OpKind::Ireturn
                    | OpKind::Areturn
                    | OpKind::Athrow
            ) {
                stack.clear();
            }
            continue;
        };
        // Located-continuity was lost before this step (seam or unplaced
        // event): from here on, runs may be relocated relative to the
        // pending frames, so their method identity is blurred.
        if summaries.is_some() && prev.is_none() {
            for f in &mut stack {
                f.relocated = true;
            }
        }
        let at = icfg.location(node);
        let insn = &program.method(at.0).code[at.1.index()];
        let insn_op = insn.op_kind();
        if insn_op != step.op {
            out.push(LintDiagnostic {
                kind: LintKind::OpMismatch,
                index: i,
                from: None,
                at,
                detail: format!(
                    "recorded op `{}` but instruction at {:?}:{} is `{}`",
                    step.op, at.0, at.1 .0, insn_op
                ),
            });
        }

        // Forced-polarity check: the intra-method pass proved this
        // branch always goes one way, yet the trace recorded the other.
        // Restricted to singleton op-kind classes — a twin method could
        // differ exactly in the operand the polarity was derived from,
        // making a relocated step look contradictory.
        if let Some(t) = summaries {
            if step.dir != BranchDir::Unknown
                && insn.is_conditional_branch()
                && t.class_is_singleton(at.0)
            {
                if let Some(forced) = t.forced_dir(at.0, at.1) {
                    if !step.dir.matches(forced) {
                        out.push(LintDiagnostic {
                            kind: LintKind::InfeasibleSummary,
                            index: i,
                            from: None,
                            at,
                            detail: format!(
                                "branch at {}:{} recorded `{}` but abstract interpretation \
                                 forces `{}`",
                                program.method(at.0).qualified_name(program),
                                at.1 .0,
                                step.dir,
                                forced
                            ),
                        });
                    }
                }
            }
        }

        if let Some((p, p_dir, p_op)) = prev {
            let from = icfg.location(p);
            // Edge kinds from `p` to `node`, re-iterated rather than
            // collected: the list is only materialized for a diagnostic.
            let to_edges = || {
                icfg.edges(p)
                    .iter()
                    .filter(move |e| e.to == node)
                    .map(|e| e.kind)
            };
            if to_edges().next().is_none() {
                out.push(LintDiagnostic {
                    kind: LintKind::MissingEdge,
                    index: i,
                    from: Some(from),
                    at,
                    detail: format!(
                        "no ICFG edge from {:?}:{} to {:?}:{}",
                        from.0, from.1 .0, at.0, at.1 .0
                    ),
                });
            } else {
                let taken = to_edges().find(|k| k.compatible_with(p_dir));
                match taken {
                    None => out.push(LintDiagnostic {
                        kind: LintKind::BranchContradiction,
                        index: i,
                        from: Some(from),
                        at,
                        detail: format!(
                            "edge(s) {:?} from {:?}:{} exist but none compatible with direction `{}`",
                            to_edges().collect::<Vec<EdgeKind>>(),
                            from.0,
                            from.1 .0,
                            p_dir
                        ),
                    }),
                    Some(EdgeKind::Call) => {
                        // Push the callee and the caller's continuation:
                        // the instruction after the invoke (verified code
                        // never ends on an invoke, so `next()` is in
                        // range).
                        stack.push(Frame {
                            callee: icfg.method_of(node),
                            cont: icfg.node(from.0, from.1.next()),
                            tainted: false,
                            relocated: false,
                        });
                    }
                    Some(EdgeKind::Return) => match summaries {
                        None => match stack.last() {
                            Some(&f) if f.callee != from.0 => {
                                out.push(LintDiagnostic {
                                    kind: LintKind::UnmatchedReturn,
                                    index: i,
                                    from: Some(from),
                                    at,
                                    detail: format!(
                                        "return from {:?} but the innermost pending call went to {:?}",
                                        from.0, f.callee
                                    ),
                                });
                                // Resync: if a deeper pending call did enter
                                // the returning method, unwind through it;
                                // otherwise the stack is unreliable — forget
                                // it.
                                match stack.iter().rposition(|f| f.callee == from.0) {
                                    Some(pos) => stack.truncate(pos),
                                    None => stack.clear(),
                                }
                            }
                            Some(_) => {
                                stack.pop();
                            }
                            // Empty stack: returning out of the unknown
                            // prefix — nothing to check.
                            None => {}
                        },
                        Some(t) => {
                            check_return_summarized(
                                program, t, &mut stack, &mut out, i, from, at, p_op,
                            );
                        }
                    },
                    Some(EdgeKind::Exception) => {
                        // An exception edge into another method unwinds
                        // every frame above the handler's.
                        let hm = at.0;
                        if hm != from.0 {
                            while let Some(f) = stack.pop() {
                                if icfg.method_of(f.cont) == hm {
                                    break;
                                }
                            }
                        }
                    }
                    Some(_) => {}
                }
            }
        }
        prev = Some((node, step.dir, step.op));
    }
    out
}

/// Summaries-mode return check. All comparisons are over op-kind
/// equality classes (relocation into a twin must not be flagged), and
/// verdicts degrade with how trustworthy the pending frames are:
///
/// * a **tainted** innermost frame (lossy seam since its push) pops
///   silently — the balancing events may be in the hole;
/// * a **relocated** innermost frame (continuity loss since its push)
///   keeps only op-kind facts: the recorded return op must be a feasible
///   exit op of the frame's class (relocation can blur *which* method a
///   run sits in, never which op kinds the hardware recorded), so an
///   infeasible exit kind is still a provable [`LintKind::StackImbalance`];
/// * a fully observed innermost frame gets the strict interprocedural
///   check: [`LintKind::UnmatchedReturn`] when a deeper or reachable
///   pending call explains the return, [`LintKind::StackImbalance`] when
///   the whole (fully observed) stack provably cannot.
#[allow(clippy::too_many_arguments)]
fn check_return_summarized(
    program: &Program,
    t: &SummaryTable,
    stack: &mut Vec<Frame>,
    out: &mut Vec<LintDiagnostic>,
    index: usize,
    from: (MethodId, Bci),
    at: (MethodId, Bci),
    ret_op: OpKind,
) {
    let r = from.0;
    // Empty stack: returning out of the unknown prefix.
    let Some(&f) = stack.last() else { return };
    if t.compatible(f.callee, r) {
        stack.pop();
        return;
    }
    if f.tainted {
        // The call balancing this return may be hidden in the hole that
        // tainted the frame; nothing is provable.
        stack.pop();
        return;
    }
    if f.relocated {
        if t.summary(f.callee).exit_ops.contains(ret_op) {
            // Identity is blurred by relocation and the exit kind fits
            // the pending class: plausibly the matching return.
            stack.pop();
            return;
        }
        out.push(LintDiagnostic {
            kind: LintKind::StackImbalance,
            index,
            from: Some(from),
            at,
            detail: format!(
                "return op `{}` cannot exit the innermost pending callee {} \
                 (its class has no such exit op)",
                ret_op,
                program.method(f.callee).qualified_name(program)
            ),
        });
        stack.clear();
        return;
    }
    // Innermost frame fully observed since its push: the return really
    // pops it, and its class provably differs from the returning
    // method's — a genuine violation. Classify by whether the rest of
    // the stack could explain it.
    let all_clean = stack.iter().all(|g| !g.tainted && !g.relocated);
    let compatible_pos = stack.iter().rposition(|g| t.compatible(g.callee, r));
    let reachable = stack.iter().any(|g| t.class_reaches(g.callee, r));
    if all_clean && compatible_pos.is_none() && !reachable {
        // Interprocedurally impossible: the returning method is not
        // pending, not reachable below any pending callee, and not
        // op-kind confusable with either — on a fully observed stack.
        let pending: Vec<String> = stack
            .iter()
            .map(|g| program.method(g.callee).qualified_name(program))
            .collect();
        out.push(LintDiagnostic {
            kind: LintKind::StackImbalance,
            index,
            from: Some(from),
            at,
            detail: format!(
                "return from {} but no pending call (stack: [{}]) can \
                 reach it interprocedurally",
                program.method(r).qualified_name(program),
                pending.join(", ")
            ),
        });
        stack.clear();
        return;
    }
    out.push(LintDiagnostic {
        kind: LintKind::UnmatchedReturn,
        index,
        from: Some(from),
        at,
        detail: format!(
            "return from {:?} but the innermost pending call went to {:?}",
            r, f.callee
        ),
    });
    // Resync: if a deeper pending call did enter the returning method
    // (or its twin), unwind through it; otherwise the stack is
    // unreliable — forget it.
    match compatible_pos {
        Some(pos) => stack.truncate(pos),
        None => stack.clear(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_bytecode::builder::ProgramBuilder;
    use jportal_bytecode::{CmpKind, Instruction as I};

    /// main: iconst; invokestatic callee; pop; invokestatic callee; pop;
    /// if; nop; return — with callee: iconst; ireturn.
    fn program() -> (Program, MethodId, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut f = pb.method(c, "callee", 0, true);
        f.emit(I::Iconst(7));
        f.emit(I::Ireturn);
        let callee = f.finish();
        let mut m = pb.method(c, "main", 0, false);
        let skip = m.label();
        m.emit(I::InvokeStatic(callee)); // 0
        m.emit(I::Pop); // 1
        m.emit(I::InvokeStatic(callee)); // 2
        m.emit(I::Pop); // 3
        m.emit(I::Iconst(0)); // 4
        m.branch_if(CmpKind::Eq, skip); // 5
        m.emit(I::Nop); // 6
        m.bind(skip);
        m.emit(I::Return); // 7
        let main = m.finish();
        let p = pb.finish_with_entry(main).unwrap();
        (p, main, callee)
    }

    use jportal_bytecode::Program;

    fn step(p: &Program, icfg: &Icfg, m: MethodId, bci: u32) -> LintStep {
        let node = icfg.node(m, Bci(bci));
        LintStep::at(node, p.method(m).code[bci as usize].op_kind())
    }

    #[test]
    fn clean_call_return_sequence() {
        let (p, main, callee) = program();
        let icfg = Icfg::build(&p);
        let steps = vec![
            step(&p, &icfg, main, 0),
            step(&p, &icfg, callee, 0),
            step(&p, &icfg, callee, 1),
            step(&p, &icfg, main, 1),
            step(&p, &icfg, main, 2),
            step(&p, &icfg, callee, 0),
            step(&p, &icfg, callee, 1),
            step(&p, &icfg, main, 3),
            step(&p, &icfg, main, 4),
            step(&p, &icfg, main, 5).with_dir(BranchDir::Taken),
            step(&p, &icfg, main, 7),
        ];
        let diags = lint_steps_summarized(&p, &icfg, &steps, None);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(LintSummary::of(&diags).is_clean());
    }

    #[test]
    fn missing_edge_detected() {
        let (p, main, _) = program();
        let icfg = Icfg::build(&p);
        // pop(1) cannot jump to iconst(4).
        let steps = vec![step(&p, &icfg, main, 1), step(&p, &icfg, main, 4)];
        let diags = lint_steps_summarized(&p, &icfg, &steps, None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, LintKind::MissingEdge);
        assert_eq!(diags[0].index, 1);
    }

    #[test]
    fn seam_suppresses_missing_edge() {
        let (p, main, _) = program();
        let icfg = Icfg::build(&p);
        let steps = vec![
            step(&p, &icfg, main, 1),
            step(&p, &icfg, main, 4).seam(),
            step(&p, &icfg, main, 5),
        ];
        assert!(lint_steps_summarized(&p, &icfg, &steps, None).is_empty());
    }

    #[test]
    fn op_mismatch_detected() {
        let (p, main, _) = program();
        let icfg = Icfg::build(&p);
        let mut s = step(&p, &icfg, main, 4);
        s.op = OpKind::Nop; // recorded op disagrees with iconst at bci 4
        let diags = lint_steps_summarized(&p, &icfg, [s], None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, LintKind::OpMismatch);
    }

    #[test]
    fn branch_contradiction_detected() {
        let (p, main, _) = program();
        let icfg = Icfg::build(&p);
        // Direction says fall-through, but the next step is the taken
        // target (bci 7, skipping the nop at 6).
        let steps = vec![
            step(&p, &icfg, main, 5).with_dir(BranchDir::NotTaken),
            step(&p, &icfg, main, 7),
        ];
        let diags = lint_steps_summarized(&p, &icfg, &steps, None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, LintKind::BranchContradiction);
        // The full message, edge list included, is part of the report.
        assert_eq!(
            diags[0].detail,
            "edge(s) [Taken] from MethodId(1):5 exist but none compatible with direction `0`"
        );
    }

    #[test]
    fn sibling_continuation_return_is_not_flagged() {
        let (p, main, callee) = program();
        let icfg = Icfg::build(&p);
        // Call located at site bci 0 but return located at the
        // continuation of the sibling site bci 2: with op-identical call
        // sites the projector's site choice is arbitrary, so this is a
        // relocation artifact, not an infeasibility.
        let steps = vec![
            step(&p, &icfg, main, 0),
            step(&p, &icfg, callee, 0),
            step(&p, &icfg, callee, 1),
            step(&p, &icfg, main, 3),
        ];
        assert!(lint_steps_summarized(&p, &icfg, &steps, None).is_empty());
    }

    /// main: invoke f; pop; invoke g; pop; return — f and g both
    /// `iconst; ireturn`.
    fn two_callees() -> (Program, MethodId, MethodId, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut fb = pb.method(c, "f", 0, true);
        fb.emit(I::Iconst(1));
        fb.emit(I::Ireturn);
        let f = fb.finish();
        let mut gb = pb.method(c, "g", 0, true);
        gb.emit(I::Iconst(2));
        gb.emit(I::Ireturn);
        let g = gb.finish();
        let mut m = pb.method(c, "main", 0, false);
        m.emit(I::InvokeStatic(f)); // 0
        m.emit(I::Pop); // 1
        m.emit(I::InvokeStatic(g)); // 2
        m.emit(I::Pop); // 3
        m.emit(I::Return); // 4
        let main = m.finish();
        let p = pb.finish_with_entry(main).unwrap();
        (p, main, f, g)
    }

    #[test]
    fn unmatched_return_detected() {
        let (p, main, f, g) = two_callees();
        let icfg = Icfg::build(&p);
        // The call enters f, an unplaced event hides a transfer, and the
        // trace then returns *from g* while f's call is still the
        // innermost pending frame — no execution can do that.
        let mut unplaced = step(&p, &icfg, main, 1);
        unplaced.node = None;
        unplaced.op = OpKind::Goto;
        let steps = vec![
            step(&p, &icfg, main, 0),
            step(&p, &icfg, f, 0),
            unplaced,
            step(&p, &icfg, g, 1),
            step(&p, &icfg, main, 3),
        ];
        let diags = lint_steps_summarized(&p, &icfg, &steps, None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, LintKind::UnmatchedReturn);
        assert_eq!(diags[0].index, 4);
    }

    #[test]
    fn return_out_of_unknown_prefix_is_clean() {
        let (p, main, callee) = program();
        let icfg = Icfg::build(&p);
        // Start mid-execution inside the callee: the return pops an empty
        // stack, which is fine.
        let steps = vec![
            step(&p, &icfg, callee, 0),
            step(&p, &icfg, callee, 1),
            step(&p, &icfg, main, 1),
        ];
        assert!(lint_steps_summarized(&p, &icfg, &steps, None).is_empty());
    }

    #[test]
    fn unplaced_call_invalidates_stack_but_not_edges() {
        let (p, main, callee) = program();
        let icfg = Icfg::build(&p);
        let mut unplaced = step(&p, &icfg, main, 2);
        unplaced.node = None;
        // Call at 0 pushes continuation 1; the unplaced invoke wipes the
        // stack, so the later "wrong" return is not reported.
        let steps = vec![
            step(&p, &icfg, main, 0),
            step(&p, &icfg, callee, 0),
            step(&p, &icfg, callee, 1),
            step(&p, &icfg, main, 1),
            unplaced,
            step(&p, &icfg, callee, 0).seam(),
            step(&p, &icfg, callee, 1),
            step(&p, &icfg, main, 1),
        ];
        assert!(lint_steps_summarized(&p, &icfg, &steps, None).is_empty());
    }

    /// main: invoke f; pop; invoke g; pop; return — f (`iconst;
    /// ireturn`) and g (`iconst; iconst; iadd; ireturn`) have distinct
    /// op-kind streams, so the summary table can tell them apart.
    fn two_distinct_callees() -> (Program, MethodId, MethodId, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut fb = pb.method(c, "f", 0, true);
        fb.emit(I::Iconst(1));
        fb.emit(I::Ireturn);
        let f = fb.finish();
        let mut gb = pb.method(c, "g", 0, true);
        gb.emit(I::Iconst(1));
        gb.emit(I::Iconst(2));
        gb.emit(I::Iadd);
        gb.emit(I::Ireturn);
        let g = gb.finish();
        let mut m = pb.method(c, "main", 0, false);
        m.emit(I::InvokeStatic(f)); // 0
        m.emit(I::Pop); // 1
        m.emit(I::InvokeStatic(g)); // 2
        m.emit(I::Pop); // 3
        m.emit(I::Return); // 4
        let main = m.finish();
        let p = pb.finish_with_entry(main).unwrap();
        (p, main, f, g)
    }

    /// main: invoke f (void); invoke g (int); pop; return — distinct
    /// return kinds, so a cross-seam swap is provable even under
    /// relocation.
    fn void_and_int_callees() -> (Program, MethodId, MethodId, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut fb = pb.method(c, "f", 0, false);
        fb.emit(I::Nop);
        fb.emit(I::Return);
        let f = fb.finish();
        let mut gb = pb.method(c, "g", 0, true);
        gb.emit(I::Iconst(1));
        gb.emit(I::Ireturn);
        let g = gb.finish();
        let mut m = pb.method(c, "main", 0, false);
        m.emit(I::InvokeStatic(f)); // 0
        m.emit(I::InvokeStatic(g)); // 1
        m.emit(I::Pop); // 2
        m.emit(I::Return); // 3
        let main = m.finish();
        let p = pb.finish_with_entry(main).unwrap();
        (p, main, f, g)
    }

    /// Seeded cross-seam fault: a call enters `f` (a void method), a
    /// projection restart separates it from an `ireturn` taken out of
    /// `g`. The legacy linter resets its stack at the seam and swallows
    /// the imbalance; in summaries mode the frame survives the restart
    /// (relocated, so identity is blurred) and the op-kind check still
    /// proves it: nothing in `f`'s class can exit via `ireturn`.
    #[test]
    fn cross_seam_imbalance_detected_with_summaries() {
        let (p, main, f, g) = void_and_int_callees();
        let icfg = Icfg::build(&p);
        let t = SummaryTable::build(&p, &icfg);
        let steps = vec![
            step(&p, &icfg, main, 0),
            step(&p, &icfg, f, 0),
            step(&p, &icfg, g, 1).restart(), // ireturn, relocated run
            step(&p, &icfg, main, 2),        // return edge: g → main cont
        ];
        assert!(
            lint_steps_summarized(&p, &icfg, &steps, None).is_empty(),
            "legacy mode swallows the cross-seam fault"
        );
        let diags = lint_steps_summarized(&p, &icfg, &steps, Some(&t));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, LintKind::StackImbalance);
        assert!(diags[0].detail.contains("C.f"), "{}", diags[0].detail);
    }

    /// A relocated frame whose class *can* exit via the recorded return
    /// kind must pop silently: relocation blurs method identity, so an
    /// identity mismatch alone proves nothing.
    #[test]
    fn relocated_frame_with_feasible_exit_kind_is_not_flagged() {
        let (p, main, f, g) = two_distinct_callees();
        let icfg = Icfg::build(&p);
        let t = SummaryTable::build(&p, &icfg);
        let steps = vec![
            step(&p, &icfg, main, 0),
            step(&p, &icfg, f, 0),
            step(&p, &icfg, g, 3).restart(), // ireturn — f also exits ireturn
            step(&p, &icfg, main, 3),
        ];
        let diags = lint_steps_summarized(&p, &icfg, &steps, Some(&t));
        assert!(diags.is_empty(), "{diags:?}");
    }

    /// The strict interprocedural check still fires on a seam-free
    /// (claimed-contiguous) corrupt sequence: with no seam, the frames
    /// are fully observed and the stack verdict is provable.
    #[test]
    fn strict_imbalance_on_contiguous_corrupt_sequence() {
        let (p, main, f, g) = two_distinct_callees();
        let icfg = Icfg::build(&p);
        let t = SummaryTable::build(&p, &icfg);
        // No seam marks: the jump f→g also trips MissingEdge, and the
        // return from g cannot pop the fully observed pending f frame.
        let steps = vec![
            step(&p, &icfg, main, 0),
            step(&p, &icfg, f, 0),
            step(&p, &icfg, g, 3),
            step(&p, &icfg, main, 3),
        ];
        let diags = lint_steps_summarized(&p, &icfg, &steps, Some(&t));
        let s = LintSummary::of(&diags);
        assert_eq!(s.missing_edge, 1, "{diags:?}");
        assert_eq!(s.stack_imbalance, 1, "{diags:?}");
        assert_eq!(s.total(), 2, "{diags:?}");
    }

    /// The same shape across a *lossy* seam must stay silent: missing
    /// events mean the pending `f` call may well have returned inside
    /// the hole.
    #[test]
    fn cross_lossy_seam_imbalance_is_not_flagged() {
        let (p, main, f, g) = two_distinct_callees();
        let icfg = Icfg::build(&p);
        let t = SummaryTable::build(&p, &icfg);
        let steps = vec![
            step(&p, &icfg, main, 0),
            step(&p, &icfg, f, 0),
            step(&p, &icfg, g, 3).seam(),
            step(&p, &icfg, main, 3),
        ];
        let diags = lint_steps_summarized(&p, &icfg, &steps, Some(&t));
        assert!(diags.is_empty(), "{diags:?}");
    }

    /// Relocation between op-identical twins is an artifact, not an
    /// imbalance: the return check works over equality classes.
    #[test]
    fn twin_relocated_return_is_not_flagged_with_summaries() {
        let (p, main, f, g) = two_callees(); // f and g are op-identical
        let icfg = Icfg::build(&p);
        let t = SummaryTable::build(&p, &icfg);
        let steps = vec![
            step(&p, &icfg, main, 0), // call enters f
            step(&p, &icfg, f, 0),
            step(&p, &icfg, g, 0).restart(), // relocated into the twin
            step(&p, &icfg, g, 1),
            step(&p, &icfg, main, 3), // return edge from g's ireturn
        ];
        let diags = lint_steps_summarized(&p, &icfg, &steps, Some(&t));
        assert!(diags.is_empty(), "{diags:?}");
    }

    /// A frame tainted by a lossy seam suppresses the unmatched-return
    /// verdict: the call that would balance it may be in the hole.
    #[test]
    fn tainted_frame_suppresses_unmatched_return() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut fb = pb.method(c, "f", 0, true);
        fb.emit(I::Iconst(1)); // 0
        fb.emit(I::Ireturn); // 1
        let f = fb.finish();
        let mut hb = pb.method(c, "h", 0, true);
        hb.emit(I::InvokeStatic(f)); // 0
        hb.emit(I::Ireturn); // 1
        let h = hb.finish();
        let mut m = pb.method(c, "main", 0, false);
        m.emit(I::InvokeStatic(h)); // 0
        m.emit(I::Pop); // 1
        m.emit(I::Return); // 2
        let main = m.finish();
        let p = pb.finish_with_entry(main).unwrap();
        let icfg = Icfg::build(&p);
        let t = SummaryTable::build(&p, &icfg);
        // Call enters h; a lossy seam resumes inside f (reachable from
        // h, so the h-frame survives tainted); f returns to h's
        // continuation — innermost pending is h, not f, but the call
        // into f is plausibly in the hole.
        let steps = vec![
            step(&p, &icfg, main, 0),
            step(&p, &icfg, h, 0),
            step(&p, &icfg, f, 0).seam(),
            step(&p, &icfg, f, 1),
            step(&p, &icfg, h, 1), // return edge f → h's continuation
        ];
        let diags = lint_steps_summarized(&p, &icfg, &steps, Some(&t));
        assert!(diags.is_empty(), "{diags:?}");
        // A non-lossy restart also stays silent here, for a different
        // reason: the run after the restart may be relocated, the
        // h-frame is marked as such, and `ireturn` is a feasible exit
        // kind for h's class — identity alone proves nothing.
        let steps = vec![
            step(&p, &icfg, main, 0),
            step(&p, &icfg, h, 0),
            step(&p, &icfg, f, 0).restart(),
            step(&p, &icfg, f, 1),
            step(&p, &icfg, h, 1),
        ];
        let diags = lint_steps_summarized(&p, &icfg, &steps, Some(&t));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn infeasible_summary_detected() {
        let (p, main, _) = program();
        let icfg = Icfg::build(&p);
        let t = SummaryTable::build(&p, &icfg);
        // bci 4 pushes iconst 0, bci 5 is `ifeq` — forced Taken; the
        // trace records NotTaken onto the (existing) fall-through edge.
        let steps = vec![
            step(&p, &icfg, main, 4),
            step(&p, &icfg, main, 5).with_dir(BranchDir::NotTaken),
            step(&p, &icfg, main, 6),
        ];
        assert!(
            lint_steps_summarized(&p, &icfg, &steps, None).is_empty(),
            "legacy mode cannot see the contradiction"
        );
        let diags = lint_steps_summarized(&p, &icfg, &steps, Some(&t));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, LintKind::InfeasibleSummary);
        assert!(diags[0].detail.contains("C.main"), "{}", diags[0].detail);
        // The feasible direction is clean in both modes.
        let steps = vec![
            step(&p, &icfg, main, 4),
            step(&p, &icfg, main, 5).with_dir(BranchDir::Taken),
            step(&p, &icfg, main, 7),
        ];
        assert!(lint_steps_summarized(&p, &icfg, &steps, Some(&t)).is_empty());
    }

    #[test]
    fn summaries_mode_is_clean_on_legacy_clean_sequences() {
        let (p, main, callee) = program();
        let icfg = Icfg::build(&p);
        let t = SummaryTable::build(&p, &icfg);
        let steps = vec![
            step(&p, &icfg, main, 0),
            step(&p, &icfg, callee, 0),
            step(&p, &icfg, callee, 1),
            step(&p, &icfg, main, 1),
            step(&p, &icfg, main, 2),
            step(&p, &icfg, callee, 0),
            step(&p, &icfg, callee, 1),
            step(&p, &icfg, main, 3),
            step(&p, &icfg, main, 4),
            step(&p, &icfg, main, 5).with_dir(BranchDir::Taken),
            step(&p, &icfg, main, 7),
        ];
        assert!(lint_steps_summarized(&p, &icfg, &steps, Some(&t)).is_empty());
    }

    #[test]
    fn summary_tallies_by_kind() {
        let (p, main, _) = program();
        let icfg = Icfg::build(&p);
        let steps = vec![step(&p, &icfg, main, 1), step(&p, &icfg, main, 4)];
        let diags = lint_steps_summarized(&p, &icfg, &steps, None);
        let s = LintSummary::of(&diags);
        assert_eq!(s.missing_edge, 1);
        assert_eq!(s.total(), 1);
        assert!(!s.is_clean());
        assert!(s.to_string().contains("missing-edge 1"));
    }
}
