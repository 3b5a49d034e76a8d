//! Matcher-equivalence properties: the tabled/allocation-free fast paths
//! must be indistinguishable from the seed implementations, which are
//! kept verbatim as oracles (`support/reference_match.rs` and
//! [`AbstractNfa::abstract_accepts_from_reference`]).
//!
//! "Indistinguishable" is strict: same accept/reject outcome, same
//! rejection position, and the same witness path node for node — the
//! report determinism contract depends on the witness, not just on
//! acceptance.

use proptest::prelude::*;

use jportal_bytecode::builder::ProgramBuilder;
use jportal_bytecode::{CmpKind, Instruction as I, OpKind, Program};
use jportal_cfg::abs::AbstractNfa;
use jportal_cfg::tier::abstract_seq;
use jportal_cfg::{Icfg, MatchScratch, Nfa, Sym, Tier};

mod support {
    pub mod reference_match;
}
use support::reference_match::match_from_reference;

/// Same generator family as `properties.rs`: random block/branch scripts
/// over a verifying single-method program.
fn arb_program() -> impl Strategy<Value = Program> {
    prop::collection::vec((1usize..4, any::<u8>()), 2..10).prop_map(|blocks| {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("P", None, 0);
        let mut m = pb.method(c, "main", 0, false);
        m.reserve_locals(1);
        let labels: Vec<_> = (0..blocks.len()).map(|_| m.label()).collect();
        let end = m.label();
        for (bi, &(body, branch)) in blocks.iter().enumerate() {
            m.bind(labels[bi]);
            for k in 0..body {
                match (bi + k) % 3 {
                    0 => {
                        m.emit(I::Iconst(k as i64));
                        m.emit(I::Pop);
                    }
                    1 => {
                        m.emit(I::Iload(0));
                        m.emit(I::Istore(0));
                    }
                    _ => {
                        m.emit(I::Iinc(0, 1));
                    }
                };
            }
            let target = labels
                .get(bi + 1 + (branch as usize % 3))
                .copied()
                .unwrap_or(end);
            match branch % 3 {
                0 => {
                    m.emit(I::Iload(0));
                    m.branch_if(CmpKind::Eq, target);
                }
                1 => {
                    if bi + 1 >= blocks.len() {
                        m.jump(end);
                    } else {
                        m.jump(target);
                    }
                }
                _ => {}
            }
        }
        m.bind(end);
        m.emit(I::Return);
        let id = m.finish();
        pb.finish_with_entry(id)
            .expect("generated program verifies")
    })
}

fn arb_syms() -> impl Strategy<Value = Vec<Sym>> {
    let ops = prop::sample::select(vec![
        OpKind::Iconst,
        OpKind::Pop,
        OpKind::Iload,
        OpKind::Istore,
        OpKind::Iinc,
        OpKind::Ifeq,
        OpKind::Goto,
        OpKind::Return,
        OpKind::InvokeStatic,
        OpKind::Ireturn,
    ]);
    prop::collection::vec(
        (ops, prop::option::of(any::<bool>())).prop_map(|(op, d)| match d {
            Some(t) => Sym::branch(op, t),
            None => Sym::plain(op),
        }),
        0..60,
    )
}

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
            jportal_cfg::MatchOutcome::Accepted(Vec::new())
        } else {
            let abs = abstract_seq(&syms, Tier::Control);
            let survivors: Vec<_> = nfa
                .start_candidates(syms[0])
                .iter()
                .copied()
                .filter(|&n| anfa.abstract_accepts_from_reference(n, syms[0], &abs))
                .collect();
            if survivors.is_empty() {
                jportal_cfg::MatchOutcome::Rejected(0)
            } else {
                match_from_reference(&nfa, &survivors, &syms)
            }
        };
        prop_assert_eq!(fast, oracle);
    }
}
