//! Proptest generators shared by the matcher-equivalence properties
//! (`matcher_equivalence.rs` and the abstract-DFA oracle module under
//! `src/abs/`).

use proptest::prelude::*;

use jportal_bytecode::builder::ProgramBuilder;
use jportal_bytecode::{CmpKind, Instruction as I, OpKind, Program};
use jportal_cfg::Sym;

/// Same generator family as `properties.rs`: random block/branch scripts
/// over a verifying single-method program.
pub fn arb_program() -> impl Strategy<Value = Program> {
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

pub fn arb_syms() -> impl Strategy<Value = Vec<Sym>> {
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
