//! Rapid-type-analysis-style devirtualization.
//!
//! The ICFG of §4 fans every `invokevirtual` out to all class-hierarchy
//! targets, which inflates NFA nondeterminism in proportion to the depth
//! of the class hierarchy. RTA narrows that: a dispatch can only select
//! the override of a receiver class that is **actually instantiated** in
//! code reachable from the analysis roots. The classic fixpoint
//! (Bacon–Sweeney style) interleaves two facts:
//!
//! * a method becomes *reachable* when a root names it, a reachable
//!   method calls it statically, or a reachable virtual site can dispatch
//!   to it under the current instantiated-class set;
//! * a class becomes *instantiated* when a reachable method executes
//!   `new C`.
//!
//! [`Rta::refined_targets`] is sound by construction: the result is
//! always a subset of the CHA target set, and it contains every target a
//! real execution rooted at the roots can take (the JVM model can only
//! create receivers through `new`, so an un-instantiated class can never
//! be dispatched on).
//!
//! Call sites inside methods the analysis did **not** reach keep their
//! full CHA target set (see [`Rta::resolver_targets`]); this makes the
//! refinement safe to apply even when a trace contains code the roots do
//! not explain (e.g. a thread rooted outside `Program::entry`).

use jportal_bytecode::{Bci, ClassId, Instruction, MethodId, Program};
use jportal_cfg::CallTargetResolver;

/// Result of the RTA fixpoint over one program.
#[derive(Debug, Clone)]
pub struct Rta<'p> {
    program: &'p Program,
    /// Classes instantiated in reachable code.
    instantiated: Vec<bool>,
    /// Methods reachable from the roots.
    reachable: Vec<bool>,
}

impl<'p> Rta<'p> {
    /// Runs the analysis rooted at the program entry method.
    pub fn analyze(program: &'p Program) -> Rta<'p> {
        Rta::analyze_with_roots(program, &[program.entry()])
    }

    /// Runs the analysis from explicit root methods (e.g. additional
    /// thread entry points).
    pub fn analyze_with_roots(program: &'p Program, roots: &[MethodId]) -> Rta<'p> {
        let mut rta = Rta {
            program,
            instantiated: vec![false; program.class_count()],
            reachable: vec![false; program.method_count()],
        };
        let mut worklist: Vec<MethodId> = Vec::new();
        for &r in roots {
            rta.mark_reachable(r, &mut worklist);
        }
        // Virtual sites seen so far, revisited when a new class becomes
        // instantiated after the site was first scanned.
        let mut virtual_sites: Vec<(ClassId, u16)> = Vec::new();
        loop {
            while let Some(m) = worklist.pop() {
                for insn in &rta.program.method(m).code {
                    match insn {
                        Instruction::New(c) => {
                            rta.instantiated[c.index()] = true;
                        }
                        Instruction::InvokeStatic(callee) => {
                            rta.mark_reachable(*callee, &mut worklist);
                        }
                        Instruction::InvokeVirtual { declared_in, slot } => {
                            virtual_sites.push((*declared_in, *slot));
                        }
                        _ => {}
                    }
                }
            }
            // Re-dispatch every virtual site under the current
            // instantiated set; any newly reachable override refills the
            // worklist and the outer loop runs again.
            let mut changed = false;
            for &(declared_in, slot) in &virtual_sites {
                for target in self_targets(rta.program, &rta.instantiated, declared_in, slot) {
                    if !rta.reachable[target.index()] {
                        rta.mark_reachable(target, &mut worklist);
                        changed = true;
                    }
                }
            }
            if !changed && worklist.is_empty() {
                break;
            }
        }
        rta
    }

    fn mark_reachable(&mut self, m: MethodId, worklist: &mut Vec<MethodId>) {
        if !self.reachable[m.index()] {
            self.reachable[m.index()] = true;
            worklist.push(m);
        }
    }

    /// `true` if `class` is instantiated in reachable code.
    pub fn is_instantiated(&self, class: ClassId) -> bool {
        self.instantiated[class.index()]
    }

    /// `true` if `method` is reachable from the roots.
    pub fn is_reachable(&self, method: MethodId) -> bool {
        self.reachable[method.index()]
    }

    /// The RTA-refined target set of a virtual dispatch: the overrides
    /// selected by instantiated subclasses of `declared_in`. Always a
    /// subset of [`Program::virtual_targets`].
    pub fn refined_targets(&self, declared_in: ClassId, slot: u16) -> Vec<MethodId> {
        self_targets(self.program, &self.instantiated, declared_in, slot)
    }
}

/// Shared with the fixpoint loop, which cannot borrow `self` whole.
fn self_targets(
    program: &Program,
    instantiated: &[bool],
    declared_in: ClassId,
    slot: u16,
) -> Vec<MethodId> {
    let mut out = Vec::new();
    for (cid, _class) in program.classes() {
        if instantiated[cid.index()] && program.is_subclass_of(cid, declared_in) {
            let target = program.resolve_virtual(cid, slot);
            if !out.contains(&target) {
                out.push(target);
            }
        }
    }
    out
}

impl CallTargetResolver for Rta<'_> {
    /// Refined targets for sites in RTA-reachable methods; full CHA for
    /// sites the analysis never reached (their calling context is
    /// unknown, so narrowing them would be unsound).
    fn virtual_targets(
        &self,
        site: (MethodId, Bci),
        declared_in: ClassId,
        slot: u16,
    ) -> Vec<MethodId> {
        if self.reachable[site.0.index()] {
            self.refined_targets(declared_in, slot)
        } else {
            self.program.virtual_targets(declared_in, slot)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_bytecode::builder::ProgramBuilder;
    use jportal_bytecode::Instruction as I;

    /// Base with two subclasses; only `Derived1` is instantiated from
    /// main. `Derived2::run` must be pruned; a helper reachable only
    /// through the virtual dispatch must still be found.
    fn hierarchy() -> (Program, ClassId, u16, MethodId, MethodId, MethodId) {
        let mut pb = ProgramBuilder::new();
        let base = pb.add_class("Base", None, 0);
        let mut r = pb.method(base, "run", 1, true);
        r.emit(I::Iconst(0));
        r.emit(I::Ireturn);
        let run_base = r.finish();
        let slot = pb.add_virtual(base, run_base);

        let d1 = pb.add_class("Derived1", Some(base), 0);
        let mut helper = pb.method(d1, "helper", 0, false);
        helper.emit(I::Return);
        let helper = helper.finish();
        let mut r = pb.method(d1, "run", 1, true);
        r.emit(I::InvokeStatic(helper));
        r.emit(I::Iconst(1));
        r.emit(I::Ireturn);
        let run_d1 = r.finish();
        pb.override_virtual(d1, slot, run_d1);

        let d2 = pb.add_class("Derived2", Some(base), 0);
        let mut r = pb.method(d2, "run", 1, true);
        r.emit(I::Iconst(2));
        r.emit(I::Ireturn);
        let run_d2 = r.finish();
        pb.override_virtual(d2, slot, run_d2);

        let mut m = pb.method(base, "main", 0, false);
        m.emit(I::New(d1));
        m.emit(I::InvokeVirtual {
            declared_in: base,
            slot,
        });
        m.emit(I::Pop);
        m.emit(I::Return);
        let main = m.finish();
        let p = pb.finish_with_entry(main).unwrap();
        (p, base, slot, run_d1, run_d2, helper)
    }

    use jportal_bytecode::Program;

    #[test]
    fn prunes_uninstantiated_overrides() {
        let (p, base, slot, run_d1, run_d2, _) = hierarchy();
        let rta = Rta::analyze(&p);
        let refined = rta.refined_targets(base, slot);
        assert!(refined.contains(&run_d1));
        assert!(!refined.contains(&run_d2));
        let cha = p.virtual_targets(base, slot);
        assert!(refined.iter().all(|t| cha.contains(t)));
        assert!(refined.len() < cha.len());
    }

    #[test]
    fn reaches_through_virtual_dispatch() {
        let (p, _, _, run_d1, run_d2, helper) = hierarchy();
        let rta = Rta::analyze(&p);
        assert!(rta.is_reachable(run_d1));
        assert!(rta.is_reachable(helper), "reachable only via the dispatch");
        assert!(!rta.is_reachable(run_d2));
    }

    #[test]
    fn unreachable_sites_keep_cha_targets() {
        let (p, base, slot, _, run_d2, _) = hierarchy();
        let rta = Rta::analyze(&p);
        // Pretend the site lives in run_d2 (unreachable): full CHA.
        let site = (run_d2, Bci(0));
        let targets = rta.virtual_targets(site, base, slot);
        assert_eq!(targets, p.virtual_targets(base, slot));
        // A site in main (reachable): refined.
        let site = (p.entry(), Bci(1));
        assert!(rta.virtual_targets(site, base, slot).len() < targets.len());
    }

    #[test]
    fn instantiation_in_callee_feeds_back_into_dispatch() {
        // main calls mk() statically; mk instantiates Derived; the virtual
        // site in main must see Derived even though main itself has no
        // `new`.
        let mut pb = ProgramBuilder::new();
        let base = pb.add_class("Base", None, 0);
        let mut r = pb.method(base, "run", 1, true);
        r.emit(I::Iconst(0));
        r.emit(I::Ireturn);
        let run_base = r.finish();
        let slot = pb.add_virtual(base, run_base);
        let derived = pb.add_class("Derived", Some(base), 0);
        let mut r = pb.method(derived, "run", 1, true);
        r.emit(I::Iconst(1));
        r.emit(I::Ireturn);
        let run_derived = r.finish();
        pb.override_virtual(derived, slot, run_derived);
        let mut mk = pb.method(base, "mk", 0, true);
        mk.emit(I::New(derived));
        mk.emit(I::Areturn);
        let mk = mk.finish();
        let mut m = pb.method(base, "main", 0, false);
        m.emit(I::InvokeStatic(mk));
        m.emit(I::InvokeVirtual {
            declared_in: base,
            slot,
        });
        m.emit(I::Pop);
        m.emit(I::Return);
        let main = m.finish();
        let p = pb.finish_with_entry(main).unwrap();
        let rta = Rta::analyze(&p);
        assert!(rta.is_instantiated(derived));
        assert!(rta.refined_targets(base, slot).contains(&run_derived));
        assert!(rta.is_reachable(run_derived));
    }
}
