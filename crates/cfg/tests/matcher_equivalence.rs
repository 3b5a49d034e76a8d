//! Matcher-equivalence properties: the allocation-free scratch matcher
//! must be indistinguishable from the seed implementation, kept verbatim
//! as the oracle `support/reference_match.rs`. The tabled abstract DFA
//! is pinned to its seed subset simulation by the properties in
//! `src/abs/oracle.rs`, which read the automaton's private closure
//! tables (`cargo test -p jportal-cfg --lib abs::`).
//!
//! "Indistinguishable" is strict: same accept/reject outcome, same
//! rejection position, and the same witness path node for node — the
//! report determinism contract depends on the witness, not just on
//! acceptance.

use proptest::prelude::*;

use jportal_cfg::{Icfg, MatchScratch, Nfa};

mod support {
    pub mod arb;
    pub mod reference_match;
}
use support::arb::{arb_program, arb_syms};
use support::reference_match::match_from_reference;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The arena/generation-stamp set simulation equals the seed layered
    /// simulation: same outcome variant, same rejection index, same
    /// witness path — from the full start-candidate set and with a shared
    /// scratch reused across cases.
    #[test]
    fn scratch_matcher_equals_reference(program in arb_program(), syms in arb_syms()) {
        let icfg = Icfg::build(&program);
        let nfa = Nfa::new(&program, &icfg);
        let mut scratch = MatchScratch::new();
        if syms.is_empty() {
            return Ok(());
        }
        let starts = nfa.start_candidates(syms[0]);
        let fast = nfa.match_from_with(starts, &syms, &mut scratch);
        let oracle = match_from_reference(&nfa, starts, &syms);
        prop_assert_eq!(&fast, &oracle);
        // Scratch reuse must not leak state between calls: run again on a
        // perturbed suffix with the same buffers.
        for cut in [syms.len() / 2, 1] {
            if cut == 0 {
                continue;
            }
            let tail = &syms[syms.len() - cut..];
            let starts = nfa.start_candidates(tail[0]);
            prop_assert_eq!(
                nfa.match_from_with(starts, tail, &mut scratch),
                match_from_reference(&nfa, starts, tail)
            );
        }
    }

    /// Single-start matches agree too (the shape `enumerate_and_test`
    /// and recovery's constrained search exercise).
    #[test]
    fn scratch_matcher_equals_reference_single_start(
        program in arb_program(),
        syms in arb_syms(),
    ) {
        let icfg = Icfg::build(&program);
        let nfa = Nfa::new(&program, &icfg);
        let mut scratch = MatchScratch::new();
        if syms.is_empty() {
            return Ok(());
        }
        for &n in nfa.start_candidates(syms[0]) {
            let starts = [n];
            prop_assert_eq!(
                nfa.match_from_with(&starts, &syms, &mut scratch),
                match_from_reference(&nfa, &starts, &syms)
            );
        }
    }
}
