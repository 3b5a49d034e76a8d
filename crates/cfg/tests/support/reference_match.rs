//! The seed implementation of `Nfa::match_from`, kept verbatim as the
//! oracle for the matcher-equivalence property tests (per-layer `Vec`s,
//! per-symbol `HashSet` dedup). It reads only the public `Nfa::insn`
//! and `Nfa::step`, so it lives with the tests rather than in the
//! shipped API.

use jportal_cfg::{MatchOutcome, Nfa, NodeId, Sym};

/// Set simulation from `starts` over `syms`: the seed `match_from`.
pub fn match_from_reference(nfa: &Nfa<'_>, starts: &[NodeId], syms: &[Sym]) -> MatchOutcome {
    if syms.is_empty() {
        return MatchOutcome::Accepted(Vec::new());
    }
    // layers[i] = states after consuming syms[..=i], with back-pointer
    // into layers[i-1] for path reconstruction.
    let mut layers: Vec<Vec<(NodeId, usize)>> = Vec::with_capacity(syms.len());
    let first: Vec<(NodeId, usize)> = starts
        .iter()
        .copied()
        .filter(|&n| syms[0].matches_instruction(nfa.insn(n)))
        .map(|n| (n, usize::MAX))
        .collect();
    if first.is_empty() {
        return MatchOutcome::Rejected(0);
    }
    layers.push(first);

    for (i, &sym) in syms.iter().enumerate().skip(1) {
        let prev_sym = syms[i - 1];
        let prev_layer = layers.last().expect("non-empty");
        let mut next: Vec<(NodeId, usize)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (pi, &(state, _)) in prev_layer.iter().enumerate() {
            for succ in nfa.step(state, prev_sym, sym) {
                if seen.insert(succ) {
                    next.push((succ, pi));
                }
            }
        }
        if next.is_empty() {
            return MatchOutcome::Rejected(i);
        }
        layers.push(next);
    }

    // Reconstruct a witness from the first accepting state.
    let mut path = vec![NodeId(0); syms.len()];
    let mut idx = 0usize;
    for i in (0..syms.len()).rev() {
        let (node, parent) = layers[i][idx];
        path[i] = node;
        idx = if parent == usize::MAX { 0 } else { parent };
    }
    MatchOutcome::Accepted(path)
}
