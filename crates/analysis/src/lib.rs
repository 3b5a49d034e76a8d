//! Static dataflow layer for JPortal.
//!
//! Everything here is computed **once, offline, before any trace is
//! decoded**, from the program alone — the facts then prune and audit the
//! dynamic reconstruction of §4/§5 of the paper:
//!
//! * [`rta`] — rapid-type-analysis devirtualization. Shrinks the CHA call
//!   edges fed to [`jportal_cfg::Icfg::build_with_targets`], which in turn
//!   shrinks NFA nondeterminism during projection and the recovery search
//!   space.
//! * [`dom`] — per-method dominators, post-dominators and natural-loop
//!   nesting over the basic-block CFGs. Used to rank recovery anchors
//!   (an anchor whose instructions dominate the hole's resume point is a
//!   stronger witness than one that merely shares a suffix).
//! * [`lint`] — the trace-feasibility linter: replays reconstructed
//!   sequences against the ICFG plus a call-stack abstraction and reports
//!   structural violations as diagnostics.
//! * [`summary`] / [`interproc`] — per-method abstract-interpretation
//!   summaries (op alphabets, stack intervals, forced branch polarities)
//!   lifted to a whole-program [`SummaryTable`] (callee reach, call depth,
//!   op-kind equality classes). Consumed by the §4 matcher and §5 recovery
//!   as candidate prefilters and by the linter for interprocedural
//!   stack-balance checking.
//!
//! # Determinism contract
//!
//! All facts are pure functions of the [`Program`]: recomputing them in
//! any order, on any thread, yields identical results (target lists are
//! in class-id order, loops in header order). Consumers running under
//! `parallelism > 1` must compute facts **before** fanning out and share
//! them immutably; the pipeline in `jportal-core` does exactly that, so
//! reports are bit-identical at any worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dom;
pub mod interproc;
pub mod lint;
pub mod rta;
pub mod summary;

pub use dom::{Dominators, LoopNest, NaturalLoop, PostDominators};
pub use interproc::SummaryTable;
pub use lint::{
    lint_steps_journaled, lint_steps_summarized, LintDiagnostic, LintKind, LintStep, LintSummary,
};
pub use rta::Rta;
pub use summary::{op_may_exit_method, required_window_ops, MethodSummary, OpSet};

use jportal_bytecode::{Bci, MethodId, Program};
use jportal_cfg::Cfg;

/// All per-method facts for one method.
#[derive(Debug, Clone)]
pub struct MethodFacts {
    /// The basic-block CFG the facts are computed over.
    pub cfg: Cfg,
    /// Dominator tree.
    pub doms: Dominators,
    /// Post-dominator tree.
    pub postdoms: PostDominators,
    /// Natural-loop nesting.
    pub loops: LoopNest,
}

/// Program-wide index of per-method static facts.
///
/// Built once up front; lookups are O(1) per method. See the crate docs
/// for the determinism contract.
#[derive(Debug, Clone)]
pub struct AnalysisIndex {
    per_method: Vec<MethodFacts>,
}

impl AnalysisIndex {
    /// Computes facts for every method of `program`.
    pub fn build(program: &Program) -> AnalysisIndex {
        let per_method = program
            .methods()
            .map(|(_, m)| {
                let cfg = Cfg::build(m);
                let doms = Dominators::compute(&cfg);
                let postdoms = PostDominators::compute(&cfg);
                let loops = LoopNest::compute(&cfg, &doms);
                MethodFacts {
                    cfg,
                    doms,
                    postdoms,
                    loops,
                }
            })
            .collect();
        AnalysisIndex { per_method }
    }

    /// The facts of one method.
    pub fn facts(&self, method: MethodId) -> &MethodFacts {
        &self.per_method[method.index()]
    }

    /// `true` if instruction `a` dominates instruction `b` within
    /// `method`: every path from the method entry to `b` executes `a`
    /// first. Within one basic block this is instruction order.
    pub fn bci_dominates(&self, method: MethodId, a: Bci, b: Bci) -> bool {
        let f = &self.per_method[method.index()];
        let ba = f.cfg.block_of(a);
        let bb = f.cfg.block_of(b);
        if ba == bb {
            a.0 <= b.0
        } else {
            f.doms.dominates(ba, bb)
        }
    }

    /// Loop-nesting depth of the block containing `bci` in `method`.
    pub fn loop_depth(&self, method: MethodId, bci: Bci) -> u32 {
        let f = &self.per_method[method.index()];
        f.loops.depth(f.cfg.block_of(bci))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_bytecode::builder::ProgramBuilder;
    use jportal_bytecode::{CmpKind, Instruction as I};

    #[test]
    fn index_covers_every_method_and_bci_dominance_works() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut f = pb.method(c, "leaf", 0, false);
        f.emit(I::Return);
        let leaf = f.finish();
        let mut m = pb.method(c, "main", 0, false);
        let skip = m.label();
        m.emit(I::Iconst(0)); // 0
        m.branch_if(CmpKind::Eq, skip); // 1
        m.emit(I::InvokeStatic(leaf)); // 2
        m.bind(skip);
        m.emit(I::Return); // 3
        let main = m.finish();
        let p = pb.finish_with_entry(main).unwrap();

        let index = AnalysisIndex::build(&p);
        assert_eq!(index.facts(leaf).cfg.block_count(), 1);
        // Entry dominates everything; the conditional arm does not
        // dominate the join.
        assert!(index.bci_dominates(main, Bci(0), Bci(3)));
        assert!(index.bci_dominates(main, Bci(0), Bci(1)), "same block");
        assert!(!index.bci_dominates(main, Bci(1), Bci(0)), "order matters");
        assert!(!index.bci_dominates(main, Bci(2), Bci(3)));
        assert_eq!(index.loop_depth(main, Bci(0)), 0);
    }
}
