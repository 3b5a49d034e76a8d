//! The seed per-call subset simulation of the abstract automaton, kept
//! verbatim as the test oracle of the tabled DFA
//! ([`AbstractNfa::abstract_accepts_from`]) and of Algorithm 2 over it.
//! It reads the private closure tables, so it lives with the automaton
//! rather than in the integration suite; the generators and the seed
//! concrete matcher are shared with `tests/matcher_equivalence.rs`.

use proptest::prelude::*;

use super::*;

#[path = "../../tests/support/arb.rs"]
mod arb;
#[path = "../../tests/support/reference_match.rs"]
mod reference_match;

use arb::{arb_program, arb_syms};
use reference_match::match_from_reference;

impl AbstractNfa<'_> {
    /// The seed per-call subset simulation. Recomputes every step from
    /// scratch.
    fn abstract_accepts_from_reference(&self, start: NodeId, first: Sym, abs: &[Sym]) -> bool {
        // Establish the abstract start configuration.
        let (mut states, mut next_idx, mut prev_dir): (Vec<NodeId>, usize, BranchDir) =
            if first.is_control() {
                // `start` consumed abs[0] (== first).
                (vec![start], 1, first.dir)
            } else {
                // ε-advance to the first control nodes; they must match abs[0].
                (
                    self.control_closure(start)
                        .iter()
                        .copied()
                        .filter(|&n| {
                            abs.first()
                                .map(|s| s.matches_instruction(self.nfa.insn(n)))
                                .unwrap_or(true)
                        })
                        .collect(),
                    1,
                    abs.first().map(|s| s.dir).unwrap_or(BranchDir::Unknown),
                )
            };
        if abs.is_empty() {
            return true;
        }
        if states.is_empty() {
            return false;
        }
        while next_idx < abs.len() {
            let sym = abs[next_idx];
            let mut next: Vec<NodeId> = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for &u in &states {
                for &v in self.control_successors(u, prev_dir).iter() {
                    if sym.matches_instruction(self.nfa.insn(v)) && seen.insert(v) {
                        next.push(v);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            states = next;
            prev_dir = sym.dir;
            next_idx += 1;
        }
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tabled abstract DFA agrees with the seed subset simulation for
    /// every candidate start — including on cache hits: each sequence is
    /// probed twice so the second pass reads memoized transitions.
    #[test]
    fn tabled_dfa_equals_reference(program in arb_program(), syms in arb_syms()) {
        let icfg = Icfg::build(&program);
        let anfa = AbstractNfa::new(&program, &icfg);
        let nfa = Nfa::new(&program, &icfg);
        if syms.is_empty() {
            return Ok(());
        }
        let abs = abstract_seq(&syms, Tier::Control);
        for _pass in 0..2 {
            for &n in nfa.start_candidates(syms[0]) {
                prop_assert_eq!(
                    anfa.abstract_accepts_from(n, syms[0], &abs),
                    anfa.abstract_accepts_from_reference(n, syms[0], &abs),
                    "start {:?}", n
                );
            }
        }
        // Counter sanity: probes never decrease and interning always
        // holds at least the empty set.
        let stats = anfa.dfa_stats();
        prop_assert!(stats.interned >= 1);
    }

    /// End to end: Algorithm 2 over the tabled DFA + scratch matcher
    /// returns exactly what the seed composition (reference abstract
    /// filter, then reference concrete match over the survivors) returns.
    #[test]
    fn algorithm2_is_unchanged(program in arb_program(), syms in arb_syms()) {
        let icfg = Icfg::build(&program);
        let nfa = Nfa::new(&program, &icfg);
        let anfa = AbstractNfa::new(&program, &icfg);
        let fast = anfa.algorithm2(&syms);
        // Seed composition, all-reference.
        let oracle = if syms.is_empty() {
            MatchOutcome::Accepted(Vec::new())
        } else {
            let abs = abstract_seq(&syms, Tier::Control);
            let survivors: Vec<_> = nfa
                .start_candidates(syms[0])
                .iter()
                .copied()
                .filter(|&n| anfa.abstract_accepts_from_reference(n, syms[0], &abs))
                .collect();
            if survivors.is_empty() {
                MatchOutcome::Rejected(0)
            } else {
                match_from_reference(&nfa, &survivors, &syms)
            }
        };
        prop_assert_eq!(fast, oracle);
    }
}
