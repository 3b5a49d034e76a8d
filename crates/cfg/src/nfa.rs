//! The ICFG as a nondeterministic finite automaton (Definition 4.1).
//!
//! A state corresponds to an ICFG node that has just been matched; a
//! transition on symbol `s` leads to each successor node whose instruction
//! matches `s` and whose connecting edge is compatible with the direction
//! recorded on the *previous* symbol (taken/not-taken from TNT packets).
//!
//! Both the paper's naive enumerate-and-test (Algorithm 1,
//! [`Nfa::enumerate_and_test`]) and the set-simulation used as the concrete
//! phase of Algorithm 2 ([`Nfa::match_from`]) are provided.

use jportal_bytecode::{Instruction, MethodId, Program};

use crate::icfg::{Icfg, NodeId};
use crate::sym::Sym;

/// Outcome of projecting a symbol sequence onto the ICFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchOutcome {
    /// The sequence is accepted; one witness path (one node per symbol) is
    /// returned — the disambiguated projection.
    Accepted(Vec<NodeId>),
    /// No path matches. The index of the first symbol at which every
    /// candidate died is returned (useful for splitting sequences).
    Rejected(usize),
}

impl MatchOutcome {
    /// The witness path, if accepted.
    pub fn path(&self) -> Option<&[NodeId]> {
        match self {
            MatchOutcome::Accepted(p) => Some(p),
            MatchOutcome::Rejected(_) => None,
        }
    }

    /// `true` if the sequence was accepted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, MatchOutcome::Accepted(_))
    }
}

/// Reusable buffers for [`Nfa::match_from_with`] and friends.
///
/// Set simulation needs one frontier of `(state, back-pointer)` entries
/// per consumed symbol plus a per-symbol visited set. Allocating those
/// afresh for every segment (and a `HashSet` for every *symbol*) dominated
/// the projection inner loop, so the scratch keeps:
///
/// * `arena` — an append-only arena of `(state, parent)` entries, where
///   `parent` is an absolute arena index into the previous layer
///   (`u32::MAX` marks a start state). Layers are contiguous runs.
/// * `layer_starts` — the arena offset where each layer begins.
/// * `seen` — a generation-stamped dense visited array (`seen[n] == gen`
///   means node `n` already joined the current layer), so per-layer dedup
///   is two array accesses instead of a SipHash set probe.
///
/// One scratch may be reused across any number of matches (the buffers
/// only ever grow to the high-water mark); it is `begin`-reset internally
/// by every matching entry point.
#[derive(Debug, Default, Clone)]
pub struct MatchScratch {
    arena: Vec<(NodeId, u32)>,
    layer_starts: Vec<u32>,
    seen: Vec<u32>,
    generation: u32,
    /// Widest frontier layer seen since the last
    /// [`MatchScratch::reset_frontier_peak`] — the matcher's ambiguity
    /// high-water mark, accumulated *across* matches so a caller can
    /// meter a whole segment (which may restart several times).
    peak_width: u32,
}

impl MatchScratch {
    /// A fresh, empty scratch.
    pub fn new() -> MatchScratch {
        MatchScratch::default()
    }

    /// Resets per-match state and sizes `seen` for a graph of
    /// `node_count` nodes. O(1) amortized: nothing is zeroed unless the
    /// generation counter wraps.
    fn begin(&mut self, node_count: usize) {
        self.arena.clear();
        self.layer_starts.clear();
        if self.seen.len() < node_count {
            self.seen.resize(node_count, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // u32 wrap: old stamps could alias the new generation.
            self.seen.fill(0);
            self.generation = 1;
        }
    }

    /// Arena high-water mark in elements (the frontier arena only ever
    /// grows across matches; telemetry reads this into a gauge).
    pub fn arena_high_water(&self) -> usize {
        self.arena.capacity()
    }

    /// Widest frontier layer (simultaneous NFA states for one symbol)
    /// since the last [`MatchScratch::reset_frontier_peak`]. A width of 1
    /// means the match was unambiguous throughout; wider layers measure
    /// how many alternative ICFG paths stayed viable.
    pub fn frontier_peak(&self) -> u32 {
        self.peak_width
    }

    /// Resets the frontier-peak accumulator (call at a segment boundary).
    pub fn reset_frontier_peak(&mut self) {
        self.peak_width = 0;
    }

    /// Folds the just-finished match's layer widths into the peak.
    fn note_peak(&mut self) {
        let n = self.layer_starts.len();
        for i in 0..n {
            let lo = self.layer_starts[i] as usize;
            let hi = if i + 1 < n {
                self.layer_starts[i + 1] as usize
            } else {
                self.arena.len()
            };
            self.peak_width = self.peak_width.max((hi - lo) as u32);
        }
    }

    /// Starts a new frontier layer; returns its arena offset.
    fn open_layer(&mut self) -> u32 {
        let at = self.arena.len() as u32;
        self.layer_starts.push(at);
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.seen.fill(0);
            self.generation = 1;
        }
        at
    }
}

/// NFA view over an [`Icfg`].
///
/// # Examples
///
/// ```
/// use jportal_bytecode::builder::ProgramBuilder;
/// use jportal_bytecode::{Instruction, OpKind};
/// use jportal_cfg::{Icfg, Nfa, Sym};
///
/// let mut pb = ProgramBuilder::new();
/// let c = pb.add_class("C", None, 0);
/// let mut m = pb.method(c, "main", 0, false);
/// m.emit(Instruction::Iconst(1));
/// m.emit(Instruction::Pop);
/// m.emit(Instruction::Return);
/// let id = m.finish();
/// let p = pb.finish_with_entry(id)?;
/// let icfg = Icfg::build(&p);
/// let nfa = Nfa::new(&p, &icfg);
/// let syms = [Sym::plain(OpKind::Iconst), Sym::plain(OpKind::Pop)];
/// let outcome = nfa.match_anywhere(&syms);
/// assert!(outcome.is_accepted());
/// # Ok::<(), jportal_bytecode::VerifyError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Nfa<'a> {
    program: &'a Program,
    icfg: &'a Icfg,
}

impl<'a> Nfa<'a> {
    /// Creates the NFA view.
    pub fn new(program: &'a Program, icfg: &'a Icfg) -> Nfa<'a> {
        Nfa { program, icfg }
    }

    /// The underlying ICFG.
    pub fn icfg(&self) -> &'a Icfg {
        self.icfg
    }

    /// The instruction at a node.
    pub fn insn(&self, node: NodeId) -> &'a Instruction {
        let (m, bci) = self.icfg.location(node);
        self.program.method(m).insn(bci)
    }

    /// Successor states of `state` on symbol `sym`, where `prev` is the
    /// symbol consumed at `state` (whose branch direction constrains the
    /// outgoing edge).
    pub fn step(&self, state: NodeId, prev: Sym, sym: Sym) -> impl Iterator<Item = NodeId> + '_ {
        self.icfg
            .edges(state)
            .iter()
            .filter(move |e| e.kind.compatible_with(prev.dir))
            .map(|e| e.to)
            .filter(move |&n| sym.matches_instruction(self.insn(n)))
    }

    /// Candidate start states: nodes whose instruction matches the first
    /// symbol. (Definition 4.1 allows any state to start; only these can
    /// consume the first symbol.)
    pub fn start_candidates(&self, first: Sym) -> &'a [NodeId] {
        self.icfg.nodes_with_op(first.op)
    }

    /// Set-simulation from the given start states; returns a witness path
    /// if the whole sequence is accepted from any of them.
    ///
    /// The witness has one node per symbol. When several paths are viable,
    /// the first-discovered one (stable in edge order) is returned — the
    /// paper likewise "picks one path that most likely corresponds to the
    /// actual execution".
    ///
    /// Convenience wrapper over [`Nfa::match_from_with`] with a one-shot
    /// scratch; hot callers should hold a [`MatchScratch`] and call the
    /// `_with` variant to reuse buffers across segments.
    pub fn match_from(&self, starts: &[NodeId], syms: &[Sym]) -> MatchOutcome {
        self.match_from_with(starts, syms, &mut MatchScratch::new())
    }

    /// Set-simulation using caller-provided scratch buffers: no per-symbol
    /// allocations and no hashing in the inner loop.
    ///
    /// Equivalent to the seed set simulation (outcome *and* witness
    /// path) — the frontier is walked in the same order and dedup is
    /// first-wins, so the "first-discovered" witness is identical; the
    /// matcher-equivalence property test pins this down against the seed
    /// code, kept verbatim as its oracle.
    pub fn match_from_with(
        &self,
        starts: &[NodeId],
        syms: &[Sym],
        scratch: &mut MatchScratch,
    ) -> MatchOutcome {
        if syms.is_empty() {
            return MatchOutcome::Accepted(Vec::new());
        }
        scratch.begin(self.icfg.node_count());
        // Layer 0: start states that can consume the first symbol.
        // (No dedup: duplicate starts stay duplicated, as in the
        // reference; only subsequent layers deduplicate.)
        scratch.layer_starts.push(0);
        for &n in starts {
            if syms[0].matches_instruction(self.insn(n)) {
                scratch.arena.push((n, u32::MAX));
            }
        }
        if scratch.arena.is_empty() {
            return MatchOutcome::Rejected(0);
        }

        for (i, &sym) in syms.iter().enumerate().skip(1) {
            let prev_sym = syms[i - 1];
            let prev_lo = scratch.layer_starts[i - 1] as usize;
            let prev_hi = scratch.arena.len();
            let lo = scratch.open_layer() as usize;
            let generation = scratch.generation;
            for pi in prev_lo..prev_hi {
                let state = scratch.arena[pi].0;
                for e in self.icfg.edges(state) {
                    if !e.kind.compatible_with(prev_sym.dir) {
                        continue;
                    }
                    let succ = e.to;
                    if scratch.seen[succ.index()] == generation {
                        continue;
                    }
                    if sym.matches_instruction(self.insn(succ)) {
                        scratch.seen[succ.index()] = generation;
                        scratch.arena.push((succ, pi as u32));
                    }
                }
            }
            if scratch.arena.len() == lo {
                scratch.note_peak();
                return MatchOutcome::Rejected(i);
            }
        }
        scratch.note_peak();

        // Reconstruct a witness from the first accepting state, following
        // absolute arena back-pointers.
        let mut path = vec![NodeId(0); syms.len()];
        let mut at = scratch.layer_starts[syms.len() - 1] as usize;
        for slot in path.iter_mut().rev() {
            let (node, parent) = scratch.arena[at];
            *slot = node;
            if parent != u32::MAX {
                at = parent as usize;
            }
        }
        MatchOutcome::Accepted(path)
    }

    /// Longest constrained prefix match, the primitive behind segment
    /// projection: `starts` have already consumed `syms[0]`; consume as
    /// many further symbols as possible, where `pin(j)` (for `j ≥ 1`,
    /// relative to `syms`) optionally pins the state that must match
    /// symbol `j` (JIT-decoded events carry exact locations). Unlike
    /// [`Nfa::match_from_with`] a dead frontier is not a rejection — the
    /// longest matched prefix wins.
    ///
    /// `witness` is cleared and filled with one node per matched symbol
    /// (the first-discovered path, stable in edge order); the matched
    /// length (≥ 1, ≤ `syms.len()`) is returned. Start states are taken
    /// as-is — callers pre-filter or pin them.
    pub fn match_longest_constrained_with<P>(
        &self,
        starts: &[NodeId],
        syms: &[Sym],
        pin: P,
        scratch: &mut MatchScratch,
        witness: &mut Vec<NodeId>,
    ) -> usize
    where
        P: Fn(usize) -> Option<NodeId>,
    {
        debug_assert!(!starts.is_empty() && !syms.is_empty());
        scratch.begin(self.icfg.node_count());
        scratch.layer_starts.push(0);
        for &n in starts {
            scratch.arena.push((n, u32::MAX));
        }

        let mut matched = 1usize;
        for (j, &sym) in syms.iter().enumerate().skip(1) {
            let prev_sym = syms[j - 1];
            let want = pin(j);
            let prev_lo = scratch.layer_starts[j - 1] as usize;
            let prev_hi = scratch.arena.len();
            let lo = scratch.open_layer() as usize;
            let generation = scratch.generation;
            for pi in prev_lo..prev_hi {
                let state = scratch.arena[pi].0;
                for e in self.icfg.edges(state) {
                    if !e.kind.compatible_with(prev_sym.dir) {
                        continue;
                    }
                    let succ = e.to;
                    if let Some(w) = want {
                        if succ != w {
                            continue;
                        }
                    }
                    if scratch.seen[succ.index()] == generation {
                        continue;
                    }
                    if sym.matches_instruction(self.insn(succ)) {
                        scratch.seen[succ.index()] = generation;
                        scratch.arena.push((succ, pi as u32));
                    }
                }
            }
            if scratch.arena.len() == lo {
                // Dead frontier: drop the empty layer and stop.
                scratch.layer_starts.pop();
                break;
            }
            matched = j + 1;
        }
        scratch.note_peak();

        witness.clear();
        witness.resize(matched, NodeId(0));
        let mut at = scratch.layer_starts[matched - 1] as usize;
        for slot in witness.iter_mut().rev() {
            let (node, parent) = scratch.arena[at];
            *slot = node;
            if parent != u32::MAX {
                at = parent as usize;
            }
        }
        matched
    }

    /// Matches from every candidate start simultaneously (the efficient
    /// multi-start variant used by the reconstruction pipeline).
    pub fn match_anywhere(&self, syms: &[Sym]) -> MatchOutcome {
        self.match_anywhere_with(syms, &mut MatchScratch::new())
    }

    /// [`Nfa::match_anywhere`] with caller-provided scratch buffers.
    pub fn match_anywhere_with(&self, syms: &[Sym], scratch: &mut MatchScratch) -> MatchOutcome {
        if syms.is_empty() {
            return MatchOutcome::Accepted(Vec::new());
        }
        self.match_from_with(self.start_candidates(syms[0]), syms, scratch)
    }

    /// Matches starting exactly at a method's entry node (used when the
    /// trace is known to begin at an invocation).
    pub fn match_from_entry(&self, method: MethodId, syms: &[Sym]) -> MatchOutcome {
        self.match_from(&[self.icfg.entry_of(method)], syms)
    }

    /// **Algorithm 1** (enumerate and test), literally as in the paper:
    /// tries each candidate start state in turn and runs a full match from
    /// it alone. Exponentially redundant compared to [`Nfa::match_from`]
    /// over the whole candidate set; retained as the baseline for the
    /// abstraction-guided ablation benchmark.
    pub fn enumerate_and_test(&self, syms: &[Sym]) -> MatchOutcome {
        if syms.is_empty() {
            return MatchOutcome::Accepted(Vec::new());
        }
        let mut scratch = MatchScratch::new();
        let mut furthest = 0usize;
        for &n in self.start_candidates(syms[0]) {
            match self.match_from_with(std::slice::from_ref(&n), syms, &mut scratch) {
                MatchOutcome::Accepted(p) => return MatchOutcome::Accepted(p),
                MatchOutcome::Rejected(at) => furthest = furthest.max(at),
            }
        }
        MatchOutcome::Rejected(furthest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_bytecode::builder::ProgramBuilder;
    use jportal_bytecode::{Bci, CmpKind, Instruction as I, OpKind, Program};

    /// The paper's running example (Figure 2): fun(a, b).
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

    fn syms(ops: &[(OpKind, Option<bool>)]) -> Vec<Sym> {
        ops.iter()
            .map(|&(op, dir)| match dir {
                Some(t) => Sym::branch(op, t),
                None => Sym::plain(op),
            })
            .collect()
    }

    #[test]
    fn matches_the_paper_else_path() {
        // Figure 2(e): iload_0, ifeq taken, iload_1, iconst_2, isub,
        // istore_1, iload_1, iconst_2, irem, ifne taken, iconst_0, ireturn
        // — wait: the paper trace takes the else branch then returns true?
        // Figure 2(f): 0,1,11..18,22?,23: ifne not taken → iconst_1.
        let (p, fun) = paper_fun();
        let icfg = Icfg::build(&p);
        let nfa = Nfa::new(&p, &icfg);
        let trace = syms(&[
            (OpKind::Iload, None),
            (OpKind::Ifeq, Some(true)),
            (OpKind::Iload, None),
            (OpKind::Iconst, None),
            (OpKind::Isub, None),
            (OpKind::Istore, None),
            (OpKind::Iload, None),
            (OpKind::Iconst, None),
            (OpKind::Irem, None),
            (OpKind::Ifne, Some(false)),
            (OpKind::Iconst, None),
            (OpKind::Ireturn, None),
        ]);
        let out = nfa.match_from_entry(fun, &trace);
        let path = out.path().expect("accepted");
        let bcis: Vec<u32> = path.iter().map(|&n| icfg.bci_of(n).0).collect();
        assert_eq!(bcis, vec![0, 1, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]);
    }

    #[test]
    fn direction_disambiguates_branches() {
        let (p, fun) = paper_fun();
        let icfg = Icfg::build(&p);
        let nfa = Nfa::new(&p, &icfg);
        // Not-taken ifeq must go down the then-path: iload, iconst, iadd.
        let trace = syms(&[
            (OpKind::Iload, None),
            (OpKind::Ifeq, Some(false)),
            (OpKind::Iload, None),
            (OpKind::Iconst, None),
            (OpKind::Iadd, None),
        ]);
        let out = nfa.match_from_entry(fun, &trace);
        let path = out.path().expect("accepted");
        assert_eq!(icfg.bci_of(path[4]), Bci(4));
    }

    #[test]
    fn rejects_impossible_sequences() {
        let (p, fun) = paper_fun();
        let icfg = Icfg::build(&p);
        let nfa = Nfa::new(&p, &icfg);
        // ifeq taken cannot be followed by iadd's path prefix iload,iconst,iadd...
        // actually else-path starts iload, iconst, isub — iadd mismatches at
        // index 4.
        let trace = syms(&[
            (OpKind::Iload, None),
            (OpKind::Ifeq, Some(true)),
            (OpKind::Iload, None),
            (OpKind::Iconst, None),
            (OpKind::Iadd, None),
        ]);
        match nfa.match_from_entry(fun, &trace) {
            MatchOutcome::Rejected(at) => assert_eq!(at, 4),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn mid_trace_projection_from_anywhere() {
        // A segment starting in the middle of fun (after data loss) still
        // projects: irem, ifne taken, iconst, ireturn.
        let (p, _fun) = paper_fun();
        let icfg = Icfg::build(&p);
        let nfa = Nfa::new(&p, &icfg);
        let trace = syms(&[
            (OpKind::Irem, None),
            (OpKind::Ifne, Some(true)),
            (OpKind::Iconst, None),
            (OpKind::Ireturn, None),
        ]);
        let out = nfa.match_anywhere(&trace);
        let path = out.path().expect("accepted");
        let bcis: Vec<u32> = path.iter().map(|&n| icfg.bci_of(n).0).collect();
        assert_eq!(bcis, vec![13, 14, 17, 18]);
    }

    #[test]
    fn interprocedural_call_and_return() {
        let (p, fun) = paper_fun();
        let icfg = Icfg::build(&p);
        let nfa = Nfa::new(&p, &icfg);
        let main = p.entry();
        // main: iconst, iconst, invokestatic, [fun body...], pop, return
        let trace = syms(&[
            (OpKind::Iconst, None),
            (OpKind::Iconst, None),
            (OpKind::InvokeStatic, None),
            (OpKind::Iload, None), // fun@0
            (OpKind::Ifeq, Some(true)),
            (OpKind::Iload, None),
            (OpKind::Iconst, None),
            (OpKind::Isub, None),
            (OpKind::Istore, None),
            (OpKind::Iload, None),
            (OpKind::Iconst, None),
            (OpKind::Irem, None),
            (OpKind::Ifne, Some(false)),
            (OpKind::Iconst, None),
            (OpKind::Ireturn, None),
            (OpKind::Pop, None), // back in main
            (OpKind::Return, None),
        ]);
        let out = nfa.match_from_entry(main, &trace);
        let path = out.path().expect("accepted");
        assert_eq!(icfg.method_of(path[3]), fun);
        assert_eq!(icfg.method_of(path[15]), main);
    }

    #[test]
    fn algorithm1_agrees_with_set_simulation() {
        let (p, _) = paper_fun();
        let icfg = Icfg::build(&p);
        let nfa = Nfa::new(&p, &icfg);
        let trace = syms(&[
            (OpKind::Iload, None),
            (OpKind::Iconst, None),
            (OpKind::Irem, None),
        ]);
        let a = nfa.enumerate_and_test(&trace);
        let b = nfa.match_anywhere(&trace);
        assert!(a.is_accepted());
        assert!(b.is_accepted());
        assert_eq!(a.path().unwrap().len(), 3);
    }

    #[test]
    fn empty_sequence_is_accepted_trivially() {
        let (p, _) = paper_fun();
        let icfg = Icfg::build(&p);
        let nfa = Nfa::new(&p, &icfg);
        assert_eq!(nfa.match_anywhere(&[]), MatchOutcome::Accepted(Vec::new()));
    }
}
