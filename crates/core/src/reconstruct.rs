//! Control-flow reconstruction (§4): projecting decoded segments onto the
//! ICFG.
//!
//! Each decoded segment is a string over the bytecode alphabet; the ICFG
//! is an NFA (Definition 4.1). Projection finds a path through the NFA
//! that spells the segment. Three refinements over the plain formulation:
//!
//! * JIT-decoded events carry exact `(method, bci)` locations, which pin
//!   the corresponding NFA state (the matching is *constrained*, not
//!   free);
//! * candidate start states are pre-filtered by the **abstract NFA**
//!   (Algorithm 2 / Theorem 4.4) when enabled;
//! * a mismatch does not abort: the longest matched prefix is emitted and
//!   matching restarts at the failing symbol — "a new subsequence starts"
//!   (§4, Challenges) — so dynamic transfers absent from the static ICFG
//!   degrade gracefully.

use jportal_analysis::{required_window_ops, SummaryTable};
use jportal_bytecode::Program;
use jportal_cfg::abs::AbstractNfa;
use jportal_cfg::{Icfg, MatchScratch, Nfa, NodeId, Sym};

use crate::decode::BcEvent;

/// Projection tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectionConfig {
    /// Use the abstraction-guided start filter (Algorithm 2). Disabling
    /// falls back to trying all candidate starts concretely (Algorithm 1's
    /// search space).
    pub use_abstraction: bool,
}

impl Default for ProjectionConfig {
    fn default() -> ProjectionConfig {
        ProjectionConfig {
            use_abstraction: true,
        }
    }
}

/// The abstract filter runs only when at least this many candidate
/// start states exist (tiny candidate sets are cheaper to try
/// concretely).
const ABSTRACTION_THRESHOLD: usize = 4;

/// Cap on how many symbols of the pending run the abstract filter
/// inspects (long runs reject quickly anyway).
const ABSTRACTION_LOOKAHEAD: usize = 64;

/// A statistics struct's `(counter name, field)` table: the fields the
/// pipeline mirrors into its telemetry registry.
pub(crate) type StatsCounters<S> = [(&'static str, fn(&S) -> usize)];

/// Statistics from projecting one segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProjectionStats {
    /// Events that received an ICFG node.
    pub matched: usize,
    /// Events left unmatched.
    pub unmatched: usize,
    /// Number of restarts (subsequence boundaries hit).
    pub restarts: usize,
    /// Candidate start states examined.
    pub candidates_tried: usize,
    /// Candidates rejected by the abstract filter.
    pub candidates_pruned: usize,
    /// Candidates rejected by the interprocedural summary filter before
    /// the abstract DFA even ran: the candidate's method alphabet cannot
    /// cover the window's required control ops (see
    /// [`jportal_analysis::required_window_ops`]). Every one of these
    /// would also have been rejected by the abstract filter — the
    /// summary check is the cheap first line, so these prunes are DFA
    /// probes saved, not extra rejections.
    pub summary_pruned: usize,
    /// Times the abstract start filter (the tabled DFA path) actually
    /// ran, as opposed to falling through to the concrete scan.
    pub dfa_runs: usize,
    /// Widest NFA frontier layer hit while matching (ambiguity
    /// high-water mark; 1 = the whole projection was unambiguous).
    pub frontier_width_max: usize,
}

impl ProjectionStats {
    /// The fields the pipeline mirrors into its telemetry registry, as
    /// `(counter name, field)`: summed over threads after the joins,
    /// so every entry is an exact metric. `dfa_runs` and
    /// `frontier_width_max` reach only the decision journal.
    pub(crate) const COUNTERS: &'static StatsCounters<ProjectionStats> = &[
        ("core.project.matched", |s| s.matched),
        ("core.project.unmatched", |s| s.unmatched),
        ("core.project.restarts", |s| s.restarts),
        ("core.project.candidates_tried", |s| s.candidates_tried),
        ("core.project.candidates_pruned", |s| s.candidates_pruned),
        ("core.project.summary_pruned", |s| s.summary_pruned),
    ];

    /// Folds another segment's statistics into this one.
    ///
    /// Addition is commutative and associative, so any reduction order —
    /// sequential accumulation or a parallel tree reduce — produces the
    /// same totals.
    pub fn merge(&mut self, other: &ProjectionStats) {
        self.matched += other.matched;
        self.unmatched += other.unmatched;
        self.restarts += other.restarts;
        self.candidates_tried += other.candidates_tried;
        self.candidates_pruned += other.candidates_pruned;
        self.summary_pruned += other.summary_pruned;
        self.dfa_runs += other.dfa_runs;
        // `max` is likewise commutative and associative.
        self.frontier_width_max = self.frontier_width_max.max(other.frontier_width_max);
    }
}

/// The result of projecting one segment.
///
/// Within one matched run, consecutive located nodes are connected by a
/// real ICFG edge (the NFA only steps along edges). Across a restart seam
/// no such edge is guaranteed; [`Projection::breaks`] records where those
/// seams are so downstream consumers (notably the trace-feasibility
/// linter) do not treat them as adjacency violations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Projection {
    /// One entry per event, in order; `None` for events that could not be
    /// placed (no candidate state, or isolated mismatches).
    pub nodes: Vec<Option<NodeId>>,
    /// Event indices starting a new matched run — i.e. positions with no
    /// ICFG-edge guarantee from the previous event. Never contains 0.
    pub breaks: Vec<usize>,
    /// Matching statistics.
    pub stats: ProjectionStats,
}

/// Projects a decoded segment onto the ICFG.
///
/// Returns one `Option<NodeId>` per event (in order), the restart seam
/// positions, and statistics.
///
/// Convenience wrapper over [`project_segment_with`] with one-shot
/// scratch; pipeline workers hold a [`MatchScratch`] across segments.
pub fn project_segment(
    program: &Program,
    icfg: &Icfg,
    anfa: &AbstractNfa<'_>,
    events: &[BcEvent],
    cfg: &ProjectionConfig,
) -> Projection {
    project_segment_with(
        program,
        icfg,
        anfa,
        events,
        cfg,
        None,
        &mut MatchScratch::new(),
    )
}

/// [`project_segment`] with caller-provided scratch buffers for the
/// layered set-simulation (no per-symbol allocations; the frontier arena
/// is reused across matched runs and across segments), plus an optional
/// interprocedural summary table.
///
/// With `summaries` present, restart candidates are screened by a u64
/// bitset test before any abstract-DFA probe: the window's required
/// control ops (everything the abstract run must consume in the start
/// method — see [`required_window_ops`]) must be covered by the
/// candidate method's alphabet. The check is a *necessary condition for
/// abstract acceptance* (methods with silent exception escapes are
/// exempted), so it only ever rejects candidates the DFA would reject —
/// the projection is identical with the table present or absent.
#[allow(clippy::too_many_arguments)]
pub fn project_segment_with(
    program: &Program,
    icfg: &Icfg,
    anfa: &AbstractNfa<'_>,
    events: &[BcEvent],
    cfg: &ProjectionConfig,
    summaries: Option<&SummaryTable>,
    scratch: &mut MatchScratch,
) -> Projection {
    let nfa = Nfa::new(program, icfg);
    let mut out: Vec<Option<NodeId>> = vec![None; events.len()];
    let mut breaks: Vec<usize> = Vec::new();
    let mut stats = ProjectionStats::default();
    scratch.reset_frontier_peak();

    let constraint = |e: &BcEvent| -> Option<NodeId> {
        match (e.method, e.bci) {
            (Some(m), Some(b)) => Some(icfg.node(m, b)),
            _ => None,
        }
    };

    // One flat symbol array per segment, so matched runs and abstraction
    // windows are slices instead of per-restart collects.
    let syms: Vec<Sym> = events.iter().map(|e| e.sym).collect();
    let mut starts: Vec<NodeId> = Vec::new();
    let mut witness: Vec<NodeId> = Vec::new();

    let mut i = 0usize;
    while i < events.len() {
        // Each outer iteration starts a fresh matched run; all but the
        // first are restart seams with no edge guarantee behind them.
        if i > 0 {
            breaks.push(i);
        }
        // Build the start layer for position i.
        let sym0 = events[i].sym;
        starts.clear();
        match constraint(&events[i]) {
            Some(n) => starts.push(n),
            None => {
                let candidates = nfa.start_candidates(sym0);
                stats.candidates_tried += candidates.len();
                if cfg.use_abstraction && candidates.len() >= ABSTRACTION_THRESHOLD {
                    stats.dfa_runs += 1;
                    let lookahead_end = (i + ABSTRACTION_LOOKAHEAD).min(events.len());
                    let window = &syms[i..lookahead_end];
                    let abs = jportal_cfg::tier::abstract_seq(window, jportal_cfg::Tier::Control);
                    let required = summaries.map(|_| required_window_ops(window));
                    let mut summary_pruned = 0usize;
                    starts.extend(candidates.iter().copied().filter(|&n| {
                        if let (Some(table), Some(req)) = (summaries, required) {
                            let m = icfg.method_of(n);
                            if !table.eps_escapes(m) && !table.summary(m).ops.contains_all(req) {
                                summary_pruned += 1;
                                return false;
                            }
                        }
                        anfa.abstract_accepts_from(n, sym0, &abs)
                    }));
                    stats.summary_pruned += summary_pruned;
                    stats.candidates_pruned += candidates.len() - starts.len() - summary_pruned;
                } else {
                    starts.extend_from_slice(candidates);
                }
            }
        };
        if starts.is_empty() {
            // Unplaceable event; skip it.
            stats.unmatched += 1;
            i += 1;
            stats.restarts += 1;
            continue;
        }

        // Layered simulation with constraints, keeping the longest prefix.
        let matched_len = nfa.match_longest_constrained_with(
            &starts,
            &syms[i..],
            |k| constraint(&events[i + k]),
            scratch,
            &mut witness,
        );
        for (back, &node) in witness.iter().enumerate() {
            out[i + back] = Some(node);
        }
        let j = i + matched_len;
        stats.matched += matched_len;
        if j < events.len() {
            stats.restarts += 1;
        }
        i = j;
    }
    stats.frontier_width_max = scratch.frontier_peak() as usize;
    Projection {
        nodes: out,
        breaks,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_bytecode::builder::ProgramBuilder;
    use jportal_bytecode::{Bci, CmpKind, Instruction as I, MethodId, OpKind};
    use jportal_cfg::Sym;

    fn paper_fun() -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("Test", None, 0);
        let mut m = pb.method(c, "fun", 2, true);
        let else_ = m.label();
        let join = m.label();
        let odd = m.label();
        m.emit(I::Iload(0));
        m.branch_if(CmpKind::Eq, else_);
        m.emit(I::Iload(1));
        m.emit(I::Iconst(1));
        m.emit(I::Iadd);
        m.emit(I::Istore(1));
        m.jump(join);
        m.bind(else_);
        m.emit(I::Iload(1));
        m.emit(I::Iconst(2));
        m.emit(I::Isub);
        m.emit(I::Istore(1));
        m.bind(join);
        m.emit(I::Iload(1));
        m.emit(I::Iconst(2));
        m.emit(I::Irem);
        m.branch_if(CmpKind::Ne, odd);
        m.emit(I::Iconst(1));
        m.emit(I::Ireturn);
        m.bind(odd);
        m.emit(I::Iconst(0));
        m.emit(I::Ireturn);
        let fun = m.finish();
        let mut main = pb.method(c, "main", 0, false);
        main.emit(I::Iconst(0));
        main.emit(I::Iconst(7));
        main.emit(I::InvokeStatic(fun));
        main.emit(I::Pop);
        main.emit(I::Return);
        let main = main.finish();
        (pb.finish_with_entry(main).unwrap(), fun)
    }

    fn ev(op: OpKind, dir: Option<bool>) -> BcEvent {
        BcEvent {
            sym: match dir {
                Some(t) => Sym::branch(op, t),
                None => Sym::plain(op),
            },
            method: None,
            bci: None,
            ts: 0,
        }
    }

    fn ev_known(program: &Program, m: MethodId, bci: u32) -> BcEvent {
        let insn = program.method(m).insn(Bci(bci));
        BcEvent {
            sym: Sym::of_instruction(insn),
            method: Some(m),
            bci: Some(Bci(bci)),
            ts: 0,
        }
    }

    #[test]
    fn projects_an_unambiguous_interpreted_run() {
        let (p, fun) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        let events = vec![
            ev(OpKind::Iload, None),
            ev(OpKind::Ifeq, Some(true)),
            ev(OpKind::Iload, None),
            ev(OpKind::Iconst, None),
            ev(OpKind::Isub, None),
            ev(OpKind::Istore, None),
        ];
        let proj = project_segment(&p, &icfg, &anfa, &events, &ProjectionConfig::default());
        let (nodes, stats) = (proj.nodes, proj.stats);
        assert_eq!(stats.unmatched, 0);
        let bcis: Vec<u32> = nodes.iter().map(|n| icfg.bci_of(n.unwrap()).0).collect();
        assert_eq!(bcis, vec![0, 1, 7, 8, 9, 10]);
        assert!(nodes.iter().all(|n| icfg.method_of(n.unwrap()) == fun));
    }

    #[test]
    fn constraints_pin_jit_events() {
        let (p, fun) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        // Interp prefix, then JIT-decoded events with known locations.
        let events = vec![
            ev(OpKind::Iload, None),
            ev_known(&p, fun, 12),
            ev_known(&p, fun, 13),
        ];
        let proj = project_segment(&p, &icfg, &anfa, &events, &ProjectionConfig::default());
        let (nodes, stats) = (proj.nodes, proj.stats);
        assert_eq!(stats.unmatched, 0);
        // The free iload must resolve to bci 11 (the only iload whose
        // successor is bci 12).
        assert_eq!(icfg.bci_of(nodes[0].unwrap()), Bci(11));
        assert_eq!(icfg.bci_of(nodes[1].unwrap()), Bci(12));
    }

    #[test]
    fn mismatch_restarts_rather_than_fails() {
        let (p, _) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        // irem → iadd never happens contiguously; the projector must
        // split into two matched runs.
        let events = vec![
            ev(OpKind::Iload, None),
            ev(OpKind::Iconst, None),
            ev(OpKind::Irem, None),
            ev(OpKind::Iadd, None),
            ev(OpKind::Istore, None),
        ];
        let proj = project_segment(&p, &icfg, &anfa, &events, &ProjectionConfig::default());
        let (nodes, stats) = (proj.nodes, proj.stats);
        assert!(stats.restarts >= 1);
        assert!(nodes[0].is_some() && nodes[2].is_some());
        assert!(nodes[3].is_some() && nodes[4].is_some());
        assert_eq!(icfg.bci_of(nodes[3].unwrap()), Bci(4));
    }

    #[test]
    fn abstraction_and_plain_projection_agree() {
        let (p, _) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        let events = vec![
            ev(OpKind::Iload, None),
            ev(OpKind::Iconst, None),
            ev(OpKind::Irem, None),
            ev(OpKind::Ifne, Some(false)),
            ev(OpKind::Iconst, None),
            ev(OpKind::Ireturn, None),
        ];
        let with = project_segment(&p, &icfg, &anfa, &events, &ProjectionConfig::default());
        let without = project_segment(
            &p,
            &icfg,
            &anfa,
            &events,
            &ProjectionConfig {
                use_abstraction: false,
            },
        );
        assert_eq!(with.nodes, without.nodes, "same projection either way");
        assert!(
            with.stats.candidates_pruned > 0,
            "abstraction pruned something"
        );
    }

    #[test]
    fn unknown_ops_are_skipped_gracefully() {
        let (p, _) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        // `goto` exists in fun; `athrow` does not exist anywhere.
        let events = vec![ev(OpKind::Athrow, None), ev(OpKind::Iload, None)];
        let proj = project_segment(&p, &icfg, &anfa, &events, &ProjectionConfig::default());
        let (nodes, stats) = (proj.nodes, proj.stats);
        assert!(nodes[0].is_none());
        assert!(nodes[1].is_some());
        assert_eq!(stats.unmatched, 1);
    }

    #[test]
    fn directions_disambiguate_projection() {
        let (p, _) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        let taken = vec![
            ev(OpKind::Irem, None),
            ev(OpKind::Ifne, Some(true)),
            ev(OpKind::Iconst, None),
        ];
        let not_taken = vec![
            ev(OpKind::Irem, None),
            ev(OpKind::Ifne, Some(false)),
            ev(OpKind::Iconst, None),
        ];
        let a = project_segment(&p, &icfg, &anfa, &taken, &ProjectionConfig::default());
        let b = project_segment(&p, &icfg, &anfa, &not_taken, &ProjectionConfig::default());
        assert_eq!(icfg.bci_of(a.nodes[2].unwrap()), Bci(17));
        assert_eq!(icfg.bci_of(b.nodes[2].unwrap()), Bci(15));
    }

    use jportal_bytecode::Program;
}
