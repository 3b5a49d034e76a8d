//! Program, class and method model.

use std::fmt;

use crate::insn::Instruction;

/// Bytecode index: position of an instruction within a method's code array.
///
/// The reproduction addresses instructions by index; real JVM byte offsets
/// are a bijective renaming of these and carry no additional information
/// for control-flow reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Bci(pub u32);

impl Bci {
    /// The next instruction index (fall-through successor).
    pub fn next(self) -> Bci {
        Bci(self.0 + 1)
    }

    /// The index as a `usize` for slicing into code arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Bci {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifier of a method within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MethodId(pub u32);

impl MethodId {
    /// The identifier as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Identifier of a class within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ClassId(pub u32);

impl ClassId {
    /// The identifier as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// One `try { … } catch` region of a method's exception table.
///
/// A handler covers bytecode indices `start..end` (half-open) and catches
/// exceptions whose class is `catch_class` or a subclass of it; `None`
/// catches everything (like `catch (Throwable t)` / `finally`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExceptionHandler {
    /// First covered instruction index.
    pub start: Bci,
    /// One past the last covered instruction index.
    pub end: Bci,
    /// Where execution resumes with the thrown reference on the stack.
    pub handler: Bci,
    /// Class filter; `None` is catch-all.
    pub catch_class: Option<ClassId>,
}

impl ExceptionHandler {
    /// `true` if the handler covers instruction `bci`.
    pub fn covers(&self, bci: Bci) -> bool {
        self.start <= bci && bci < self.end
    }
}

/// A method: code, exception table and frame layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Method {
    /// Simple name (unique within its class in well-formed programs).
    pub name: String,
    /// Owning class.
    pub class: ClassId,
    /// Number of arguments, which arrive in locals `0..n_args`
    /// (for virtual methods the receiver is local 0 and counts).
    pub n_args: u16,
    /// Total local slots (≥ `n_args`).
    pub max_locals: u16,
    /// `true` if the method returns a value (`ireturn`/`areturn`).
    pub returns_value: bool,
    /// The code array.
    pub code: Vec<Instruction>,
    /// Exception table, searched in order (first covering match wins).
    pub handlers: Vec<ExceptionHandler>,
}

impl Method {
    /// The instruction at `bci`.
    ///
    /// # Panics
    ///
    /// Panics if `bci` is out of range.
    pub fn insn(&self, bci: Bci) -> &Instruction {
        &self.code[bci.index()]
    }

    /// Fully qualified `Class.name` string for diagnostics.
    pub fn qualified_name(&self, program: &Program) -> String {
        format!("{}.{}", program.class(self.class).name, self.name)
    }
}

/// A class: name, superclass and vtable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Class {
    /// Simple name.
    pub name: String,
    /// Superclass, if any.
    pub super_class: Option<ClassId>,
    /// Virtual dispatch table: slot → implementation.
    ///
    /// A subclass's vtable starts as a copy of its superclass's and may
    /// override slots or append new ones.
    pub vtable: Vec<MethodId>,
    /// Number of instance field slots (including inherited).
    pub n_fields: u16,
}

/// A complete program: classes, methods and the entry point.
///
/// Constructed through [`crate::builder::ProgramBuilder`]; the collection
/// accessors are stable indices handed out at build time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    classes: Vec<Class>,
    methods: Vec<Method>,
    entry: MethodId,
}

impl Program {
    /// Assembles a program from parts. Prefer
    /// [`crate::builder::ProgramBuilder`], which verifies the result.
    pub fn from_parts(classes: Vec<Class>, methods: Vec<Method>, entry: MethodId) -> Program {
        Program {
            classes,
            methods,
            entry,
        }
    }

    /// The entry-point method (`main`).
    pub fn entry(&self) -> MethodId {
        self.entry
    }

    /// The method with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this program.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// The class with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this program.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// All methods with their ids.
    pub fn methods(&self) -> impl Iterator<Item = (MethodId, &Method)> {
        self.methods
            .iter()
            .enumerate()
            .map(|(i, m)| (MethodId(i as u32), m))
    }

    /// All classes with their ids.
    pub fn classes(&self) -> impl Iterator<Item = (ClassId, &Class)> {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, c)| (ClassId(i as u32), c))
    }

    /// Number of methods.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Total bytecode instructions over all methods (the "LoC" analog the
    /// workload characteristics table reports).
    pub fn code_size(&self) -> usize {
        self.methods.iter().map(|m| m.code.len()).sum()
    }

    /// `true` if `sub` equals `sup` or transitively extends it.
    pub fn is_subclass_of(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.class(c).super_class;
        }
        false
    }

    /// Resolves a virtual call on a receiver of dynamic class
    /// `receiver_class` through vtable `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range for the receiver's vtable, which
    /// the verifier rules out for well-formed programs.
    pub fn resolve_virtual(&self, receiver_class: ClassId, slot: u16) -> MethodId {
        self.class(receiver_class).vtable[slot as usize]
    }

    /// All methods that could be the target of a virtual call through
    /// `slot` declared in `declared_in`: the slot's implementation in that
    /// class and in every transitive subclass.
    ///
    /// This is the class-hierarchy-analysis answer the ICFG builder uses;
    /// like the paper's statically-built ICFG it can include targets never
    /// taken at run time.
    pub fn virtual_targets(&self, declared_in: ClassId, slot: u16) -> Vec<MethodId> {
        let mut out = Vec::new();
        for (cid, class) in self.classes() {
            if self.is_subclass_of(cid, declared_in) {
                if let Some(&m) = class.vtable.get(slot as usize) {
                    if !out.contains(&m) {
                        out.push(m);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::insn::Instruction;

    fn tiny_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let base = pb.add_class("Base", None, 1);
        let mut m = pb.method(base, "run", 1, true);
        m.emit(Instruction::Iconst(1));
        m.emit(Instruction::Ireturn);
        let run_base = m.finish();
        let slot = pb.add_virtual(base, run_base);
        // Created after the slot so it inherits Base's vtable entry.
        let derived = pb.add_class("Derived", Some(base), 1);
        let mut m = pb.method(derived, "run", 1, true);
        m.emit(Instruction::Iconst(2));
        m.emit(Instruction::Ireturn);
        let run_derived = m.finish();
        pb.override_virtual(derived, slot, run_derived);
        let mut main = pb.method(base, "main", 0, false);
        main.emit(Instruction::New(derived));
        main.emit(Instruction::InvokeVirtual {
            declared_in: base,
            slot,
        });
        main.emit(Instruction::Pop);
        main.emit(Instruction::Return);
        let main = main.finish();
        pb.finish_with_entry(main).expect("verifies")
    }

    #[test]
    fn subclass_relation() {
        let p = tiny_program();
        let base = ClassId(0);
        let derived = ClassId(1);
        assert!(p.is_subclass_of(derived, base));
        assert!(p.is_subclass_of(base, base));
        assert!(!p.is_subclass_of(base, derived));
    }

    #[test]
    fn virtual_resolution_uses_dynamic_class() {
        let p = tiny_program();
        let base = ClassId(0);
        let derived = ClassId(1);
        let base_impl = p.resolve_virtual(base, 0);
        let derived_impl = p.resolve_virtual(derived, 0);
        assert_ne!(base_impl, derived_impl);
        assert_eq!(p.method(base_impl).name, "run");
        assert_eq!(p.method(derived_impl).name, "run");
        assert_eq!(p.method(derived_impl).class, derived);
    }

    #[test]
    fn virtual_targets_is_cha() {
        let p = tiny_program();
        let targets = p.virtual_targets(ClassId(0), 0);
        assert_eq!(targets.len(), 2, "base and derived implementations");
    }

    #[test]
    fn handler_covers_half_open() {
        let h = ExceptionHandler {
            start: Bci(2),
            end: Bci(5),
            handler: Bci(9),
            catch_class: None,
        };
        assert!(!h.covers(Bci(1)));
        assert!(h.covers(Bci(2)));
        assert!(h.covers(Bci(4)));
        assert!(!h.covers(Bci(5)));
    }

    #[test]
    fn code_size_sums_methods() {
        let p = tiny_program();
        assert_eq!(p.code_size(), 2 + 2 + 4);
        assert_eq!(p.method_count(), 3);
        assert_eq!(p.class_count(), 2);
    }

    #[test]
    fn qualified_names() {
        let p = tiny_program();
        let entry = p.entry();
        assert_eq!(p.method(entry).qualified_name(&p), "Base.main");
    }
}
