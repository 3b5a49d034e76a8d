//! The abstract NFA and abstraction-guided matching (Definitions 4.2/4.3,
//! Theorem 4.4, Algorithm 2).
//!
//! The abstraction keeps only control-flow symbols: every transition whose
//! target instruction is not control-related becomes an ε-transition
//! (Definition 4.3). Running the abstract automaton deterministically —
//! ε-closures plus subset construction, computed lazily — is the "DFA"
//! of Figure 5b. [`AbstractNfa::algorithm2`] stitches the two levels
//! together exactly as Algorithm 2: a candidate start state survives only
//! if the abstract sequence is accepted from it, and only survivors are
//! tried at the concrete level.

use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

use jportal_bytecode::{OpKind, Program};
use jportal_obs::{ContentionCounter, Counter, MetricClass, MetricsRegistry};

use crate::fx::{FxHashMap, FxHasher};
use crate::icfg::{Icfg, NodeId};
use crate::nfa::{MatchOutcome, MatchScratch, Nfa};
use crate::sym::{BranchDir, Sym};
use crate::tier::{abstract_seq, Tier};

/// Shard count for the memoization maps: a power of two large enough
/// that concurrent projection workers rarely collide on a shard lock.
const CACHE_SHARDS: usize = 16;

/// A lock-striped hash map: keys are hashed to one of [`CACHE_SHARDS`]
/// independent `RwLock<HashMap>` shards, so concurrent readers never
/// contend globally and writers only serialize per shard. Both shard
/// selection and the inner maps hash with [`FxHasher`] — the keys are
/// internal values (node ids, interned set ids, opcodes), so SipHash's
/// DoS resistance buys nothing and its latency sat on the lookup path.
#[derive(Debug)]
struct ShardedCache<K, V> {
    shards: Vec<RwLock<FxHashMap<K, V>>>,
    /// Contention accounting over the shard locks (`lock.cfg.dfa_cache.*`
    /// when the pipeline wires its registry; noop otherwise).
    contention: ContentionCounter,
}

impl<K: Eq + Hash, V: Clone> ShardedCache<K, V> {
    fn new(contention: ContentionCounter) -> ShardedCache<K, V> {
        ShardedCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
            contention,
        }
    }

    fn shard(&self, key: &K) -> &RwLock<FxHashMap<K, V>> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % CACHE_SHARDS]
    }

    fn get(&self, key: &K) -> Option<V> {
        self.contention.read(self.shard(key)).get(key).cloned()
    }

    fn insert(&self, key: K, value: V) {
        self.contention.write(self.shard(&key)).insert(key, value);
    }
}

/// Interned id of the empty abstract state-set — the DFA's dead state.
const EMPTY_SET: u32 = 0;

/// Hash-consing table for abstract state-sets.
///
/// Each distinct sorted set of control nodes gets one id; the tabled DFA
/// then works on `u32` ids, and a transition is a single cache probe
/// instead of a subset-construction fan-out. Id 0 is pre-interned as the
/// empty set so "dead state" is an integer compare.
///
/// Id assignment order depends on thread interleaving, but ids never
/// escape the automaton and acceptance only consults emptiness, so the
/// numbering is unobservable.
#[derive(Debug)]
struct StateSetInterner {
    inner: RwLock<InternerInner>,
    /// Shares the DFA caches' contention counter: the interner sits on
    /// the same projection hot path as the transition table.
    contention: ContentionCounter,
}

#[derive(Debug, Default)]
struct InternerInner {
    ids: FxHashMap<Arc<[NodeId]>, u32>,
    sets: Vec<Arc<[NodeId]>>,
}

impl StateSetInterner {
    fn new(contention: ContentionCounter) -> StateSetInterner {
        let empty: Arc<[NodeId]> = Vec::new().into();
        let mut inner = InternerInner::default();
        inner.ids.insert(Arc::clone(&empty), EMPTY_SET);
        inner.sets.push(empty);
        StateSetInterner {
            inner: RwLock::new(inner),
            contention,
        }
    }

    /// Canonicalizes `set` (sort + dedup in place) and returns its id,
    /// interning it if new.
    fn intern(&self, set: &mut Vec<NodeId>) -> u32 {
        set.sort_unstable();
        set.dedup();
        if set.is_empty() {
            return EMPTY_SET;
        }
        if let Some(&id) = self.contention.read(&self.inner).ids.get(set.as_slice()) {
            return id;
        }
        let mut w = self.contention.write(&self.inner);
        // Double-check under the write lock: a racing thread may have
        // interned the same set between our read probe and here.
        if let Some(&id) = w.ids.get(set.as_slice()) {
            return id;
        }
        let arc: Arc<[NodeId]> = set.as_slice().into();
        let id = w.sets.len() as u32;
        w.sets.push(Arc::clone(&arc));
        w.ids.insert(arc, id);
        id
    }

    /// The set behind an id.
    fn set(&self, id: u32) -> Arc<[NodeId]> {
        Arc::clone(&self.contention.read(&self.inner).sets[id as usize])
    }

    /// Number of interned sets (including the pre-interned empty set).
    fn len(&self) -> usize {
        self.inner.read().unwrap().sets.len()
    }
}

/// Counters from the tabled abstract DFA (Definition 4.3 made concrete):
/// transition-cache hits/misses and the number of distinct state-sets
/// interned. Scheduling-dependent under parallelism (racing workers may
/// both count a miss for the same entry), so report equality ignores
/// them — they are diagnostics, not results.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DfaCacheStats {
    /// Transitions answered from the memo table.
    pub hits: u64,
    /// Transitions that fell back to subset construction.
    pub misses: u64,
    /// Distinct abstract state-sets interned (including the empty set).
    pub interned: u64,
    /// Restart candidates rejected by the interprocedural summary filter
    /// before any DFA probe ran. Filled in by the pipeline (the ANFA
    /// itself knows nothing about summaries); zero when summaries are
    /// disabled.
    pub summary_pruned: u64,
}

/// The abstract NFA (ANFA) over an [`Icfg`], with memoized ε-closures.
///
/// # Examples
///
/// ```
/// use jportal_bytecode::builder::ProgramBuilder;
/// use jportal_bytecode::{Instruction, OpKind};
/// use jportal_cfg::abs::AbstractNfa;
/// use jportal_cfg::{Icfg, Sym};
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
/// let anfa = AbstractNfa::new(&p, &icfg);
/// let syms = [Sym::plain(OpKind::Iconst), Sym::plain(OpKind::Pop),
///             Sym::plain(OpKind::Return)];
/// assert!(anfa.algorithm2(&syms).is_accepted());
/// # Ok::<(), jportal_bytecode::VerifyError>(())
/// ```
#[derive(Debug)]
pub struct AbstractNfa<'a> {
    nfa: Nfa<'a>,
    /// Memoized: first control nodes reachable from a node through one
    /// dir-filtered edge followed by any chain of non-control nodes.
    /// Lock-striped so one `AbstractNfa` can be shared across workers.
    control_succ: ShardedCache<(NodeId, BranchDir), Arc<[NodeId]>>,
    /// Memoized: control nodes reachable from a node itself (used for the
    /// abstract start when the first trace symbol is non-control).
    control_closure: ShardedCache<NodeId, Arc<[NodeId]>>,
    /// Hash-consed abstract state-sets, shared across segments and
    /// workers for the lifetime of the automaton.
    interner: StateSetInterner,
    /// Memoized DFA transitions `(state-set id, incoming direction,
    /// next control op) → state-set id`. The consumed symbol's own
    /// direction does not shape the successor set (symbols match on op
    /// alone; the direction constrains the *next* step's edges), so it is
    /// deliberately absent from the key.
    transitions: ShardedCache<(u32, BranchDir, OpKind), u32>,
    /// Transition-cache hit count. A sharded [`Counter`] — detached for
    /// standalone automata, registry-backed (`cfg.dfa.hits`) when the
    /// pipeline binds its telemetry registry, and a branch-only no-op
    /// when that registry is disabled.
    hits: Counter,
    /// Transition-cache miss count (same lifecycle as `hits`).
    misses: Counter,
}

impl<'a> AbstractNfa<'a> {
    /// Builds the abstract view of the program's ICFG with detached
    /// (always-counting) cache counters.
    pub fn new(program: &'a Program, icfg: &'a Icfg) -> AbstractNfa<'a> {
        AbstractNfa::with_counters(
            program,
            icfg,
            Counter::detached(),
            Counter::detached(),
            ContentionCounter::noop(),
        )
    }

    /// Builds the abstract view with cache counters registered in a
    /// telemetry registry as `cfg.dfa.hits` / `cfg.dfa.misses`, plus
    /// lock-contention accounting over the striped caches and the
    /// state-set interner as `lock.cfg.dfa_cache.*`. With a disabled
    /// registry the counters are no-ops (and
    /// [`AbstractNfa::dfa_stats`] reads zero). The hit/miss split depends
    /// on worker interleaving (two workers can both miss on a key one is
    /// about to fill), so both counters are
    /// [`MetricClass::Scheduling`].
    pub fn with_metrics(
        program: &'a Program,
        icfg: &'a Icfg,
        registry: &MetricsRegistry,
    ) -> AbstractNfa<'a> {
        AbstractNfa::with_counters(
            program,
            icfg,
            registry.counter("cfg.dfa.hits", MetricClass::Scheduling),
            registry.counter("cfg.dfa.misses", MetricClass::Scheduling),
            ContentionCounter::register(registry, "lock.cfg.dfa_cache"),
        )
    }

    fn with_counters(
        program: &'a Program,
        icfg: &'a Icfg,
        hits: Counter,
        misses: Counter,
        contention: ContentionCounter,
    ) -> AbstractNfa<'a> {
        AbstractNfa {
            nfa: Nfa::new(program, icfg),
            control_succ: ShardedCache::new(contention.clone()),
            control_closure: ShardedCache::new(contention.clone()),
            interner: StateSetInterner::new(contention.clone()),
            transitions: ShardedCache::new(contention),
            hits,
            misses,
        }
    }

    /// Snapshot of the tabled-DFA cache counters (a view over the
    /// telemetry counters; zero when they are disabled no-ops).
    pub fn dfa_stats(&self) -> DfaCacheStats {
        DfaCacheStats {
            hits: self.hits.value(),
            misses: self.misses.value(),
            interned: self.interner.len() as u64,
            summary_pruned: 0,
        }
    }

    /// Fills the control-closure cache for **every** ICFG node (and the
    /// control-successor cache it rides on), fanning the computation over
    /// `workers` threads.
    ///
    /// Closures are pure functions of the ICFG, so pre-warming changes
    /// nothing observable — it only moves the cache misses out of the
    /// projection inner loop, where under concurrency they would all race
    /// to compute the same hot entries.
    pub fn prewarm(&self, workers: usize) {
        let n = self.nfa.icfg().node_count();
        jportal_par::par_map_range(workers, n, |i| {
            self.control_closure(NodeId(i as u32));
        });
    }

    /// The concrete NFA this abstraction refines to.
    pub fn concrete(&self) -> Nfa<'a> {
        self.nfa
    }

    fn is_control_node(&self, n: NodeId) -> bool {
        Tier::of_op(self.nfa.insn(n).op_kind()) <= Tier::Control
    }

    /// First control nodes reachable from `from` by one edge compatible
    /// with `dir`, then chains of non-control nodes.
    fn control_successors(&self, from: NodeId, dir: BranchDir) -> Arc<[NodeId]> {
        if let Some(cached) = self.control_succ.get(&(from, dir)) {
            return cached;
        }
        let icfg = self.nfa.icfg();
        let mut out: Vec<NodeId> = Vec::new();
        let mut visited = crate::fx::FxHashSet::default();
        let mut stack: Vec<NodeId> = icfg
            .edges(from)
            .iter()
            .filter(|e| e.kind.compatible_with(dir))
            .map(|e| e.to)
            .collect();
        while let Some(n) = stack.pop() {
            if !visited.insert(n) {
                continue;
            }
            if self.is_control_node(n) {
                out.push(n);
            } else {
                stack.extend(icfg.edges(n).iter().map(|e| e.to));
            }
        }
        let rc: Arc<[NodeId]> = out.into();
        self.control_succ.insert((from, dir), Arc::clone(&rc));
        rc
    }

    /// Control nodes reachable from `from` itself (including `from` when it
    /// is control) through non-control chains, unconstrained direction.
    fn control_closure(&self, from: NodeId) -> Arc<[NodeId]> {
        if let Some(cached) = self.control_closure.get(&from) {
            return cached;
        }
        let rc: Arc<[NodeId]> = if self.is_control_node(from) {
            vec![from].into()
        } else {
            self.control_successors(from, BranchDir::Unknown)
        };
        self.control_closure.insert(from, Arc::clone(&rc));
        rc
    }

    /// One tabled DFA step: the interned successor set of state-set `id`
    /// when the incoming edges are constrained by `prev_dir` and the next
    /// control symbol has op `op`. Misses run subset construction once;
    /// every later occurrence of the same `(id, dir, op)` context — hot
    /// loops dominate real traces — is a single cache probe.
    fn transition(&self, id: u32, prev_dir: BranchDir, op: OpKind) -> u32 {
        let key = (id, prev_dir, op);
        if let Some(next) = self.transitions.get(&key) {
            self.hits.incr();
            return next;
        }
        self.misses.incr();
        let states = self.interner.set(id);
        let mut next: Vec<NodeId> = Vec::new();
        for &u in states.iter() {
            for &v in self.control_successors(u, prev_dir).iter() {
                if self.nfa.insn(v).op_kind() == op {
                    next.push(v);
                }
            }
        }
        let next_id = self.interner.intern(&mut next);
        // Racing workers may compute the same entry; the interner
        // guarantees they agree on the id, so the insert is idempotent.
        self.transitions.insert(key, next_id);
        next_id
    }

    /// Necessary-condition test (Theorem 4.4): can the abstract sequence
    /// `abs` be accepted starting from concrete node `start` that has just
    /// consumed `first`?
    ///
    /// If this returns `false`, the concrete sequence cannot be accepted
    /// from `start` either.
    ///
    /// This is Definition 4.3's DFA made real: the current state-set is an
    /// interned id and each symbol is one [`AbstractNfa::transition`]
    /// probe, with the memo table persistent across segments and shared
    /// across workers. Equivalent to the seed per-call subset simulation
    /// kept as the test oracle in `abs/oracle.rs` — acceptance only
    /// depends on whether the reachable set goes empty, which interning
    /// preserves exactly.
    pub fn abstract_accepts_from(&self, start: NodeId, first: Sym, abs: &[Sym]) -> bool {
        if abs.is_empty() {
            return true;
        }
        // Establish the abstract start configuration.
        let (mut states, mut prev_dir): (Vec<NodeId>, BranchDir) = if first.is_control() {
            // `start` consumed abs[0] (== first).
            (vec![start], first.dir)
        } else {
            // ε-advance to the first control nodes; they must match abs[0].
            (
                self.control_closure(start)
                    .iter()
                    .copied()
                    .filter(|&n| abs[0].matches_instruction(self.nfa.insn(n)))
                    .collect(),
                abs[0].dir,
            )
        };
        let mut id = self.interner.intern(&mut states);
        if id == EMPTY_SET {
            return false;
        }
        for &sym in &abs[1..] {
            id = self.transition(id, prev_dir, sym.op);
            if id == EMPTY_SET {
                return false;
            }
            prev_dir = sym.dir;
        }
        true
    }

    /// **Algorithm 2**: abstraction-guided control-flow reconstruction.
    ///
    /// Computes `ω̂ = α_s(ω)`, then for each candidate start state checks
    /// abstract acceptance first and only attempts the concrete match on
    /// survivors; the surviving starts are tried together in one concrete
    /// set-simulation, preserving the paper's "return the first accepting
    /// path" semantics.
    pub fn algorithm2(&self, syms: &[Sym]) -> MatchOutcome {
        self.algorithm2_with(syms, &mut MatchScratch::new())
    }

    /// [`AbstractNfa::algorithm2`] with caller-provided scratch buffers
    /// for the concrete set-simulation phase.
    pub fn algorithm2_with(&self, syms: &[Sym], scratch: &mut MatchScratch) -> MatchOutcome {
        if syms.is_empty() {
            return MatchOutcome::Accepted(Vec::new());
        }
        let abs = abstract_seq(syms, Tier::Control);
        let survivors: Vec<NodeId> = self
            .nfa
            .start_candidates(syms[0])
            .iter()
            .copied()
            .filter(|&n| self.abstract_accepts_from(n, syms[0], &abs))
            .collect();
        if survivors.is_empty() {
            return MatchOutcome::Rejected(0);
        }
        self.nfa.match_from_with(&survivors, syms, scratch)
    }

    /// Number of start candidates that survive the abstract filter, and
    /// the total candidate count (ablation metric for the benchmark).
    pub fn filter_stats(&self, syms: &[Sym]) -> (usize, usize) {
        if syms.is_empty() {
            return (0, 0);
        }
        let abs = abstract_seq(syms, Tier::Control);
        let candidates = self.nfa.start_candidates(syms[0]);
        let survivors = candidates
            .iter()
            .filter(|&&n| self.abstract_accepts_from(n, syms[0], &abs))
            .count();
        (survivors, candidates.len())
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_bytecode::builder::ProgramBuilder;
    use jportal_bytecode::{CmpKind, Instruction as I, MethodId, OpKind};

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
    fn algorithm2_agrees_with_algorithm1_on_accepts() {
        let (p, _) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        let nfa = anfa.concrete();
        let trace = syms(&[
            (OpKind::Iload, None),
            (OpKind::Ifeq, Some(true)),
            (OpKind::Iload, None),
            (OpKind::Iconst, None),
            (OpKind::Isub, None),
        ]);
        let a1 = nfa.enumerate_and_test(&trace);
        let a2 = anfa.algorithm2(&trace);
        assert!(a1.is_accepted());
        assert!(a2.is_accepted());
        assert_eq!(a1.path().unwrap(), a2.path().unwrap());
    }

    #[test]
    fn algorithm2_agrees_on_rejections() {
        let (p, _) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        let nfa = anfa.concrete();
        // irem immediately followed by iadd occurs nowhere.
        let trace = syms(&[(OpKind::Irem, None), (OpKind::Iadd, None)]);
        assert!(!nfa.enumerate_and_test(&trace).is_accepted());
        assert!(!anfa.algorithm2(&trace).is_accepted());
    }

    #[test]
    fn theorem_4_4_abstract_rejection_implies_concrete_rejection() {
        let (p, _) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        let nfa = anfa.concrete();
        // Control skeleton ifeq-taken then goto occurs nowhere in fun
        // (taken means the else path, which has no goto).
        let trace = syms(&[
            (OpKind::Iload, None),
            (OpKind::Ifeq, Some(true)),
            (OpKind::Iload, None),
            (OpKind::Iconst, None),
            (OpKind::Isub, None),
            (OpKind::Istore, None),
            (OpKind::Goto, None),
        ]);
        let abs = abstract_seq(&trace, Tier::Control);
        for &n in nfa.start_candidates(trace[0]) {
            if !anfa.abstract_accepts_from(n, trace[0], &abs) {
                assert!(
                    !nfa.match_from(std::slice::from_ref(&n), &trace)
                        .is_accepted(),
                    "abstract rejected but concrete accepted from {n:?}"
                );
            }
        }
        assert!(!anfa.algorithm2(&trace).is_accepted());
    }

    #[test]
    fn abstract_filter_prunes_candidates() {
        let (p, _) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        // iconst appears 5 times; only some of them lead to the skeleton
        // [ifne-taken, ireturn].
        let trace = syms(&[
            (OpKind::Iconst, None),
            (OpKind::Irem, None),
            (OpKind::Ifne, Some(true)),
            (OpKind::Iconst, None),
            (OpKind::Ireturn, None),
        ]);
        let (survivors, total) = anfa.filter_stats(&trace);
        assert!(
            survivors < total,
            "filter should prune ({survivors}/{total})"
        );
        assert!(survivors >= 1);
        assert!(anfa.algorithm2(&trace).is_accepted());
    }

    #[test]
    fn control_first_symbol_uses_its_direction() {
        let (p, _) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        // Starting at a taken ifne: next control symbol must be ireturn
        // (via iconst_0 at bci 17) — accepted.
        let trace = syms(&[
            (OpKind::Ifne, Some(true)),
            (OpKind::Iconst, None),
            (OpKind::Ireturn, None),
        ]);
        assert!(anfa.algorithm2(&trace).is_accepted());
        // A not-taken ifne still reaches an ireturn (fall-through path
        // iconst_1 at 15, ireturn at 16) — also accepted, but along a
        // different path node.
        let trace2 = syms(&[
            (OpKind::Ifne, Some(false)),
            (OpKind::Iconst, None),
            (OpKind::Ireturn, None),
        ]);
        let p1 = anfa.algorithm2(&trace).path().unwrap().to_vec();
        let p2 = anfa.algorithm2(&trace2).path().unwrap().to_vec();
        assert_ne!(p1[1], p2[1]);
    }

    use jportal_bytecode::Program;

    #[test]
    fn anfa_is_shareable_across_threads() {
        fn assert_sync<T: Sync>(_: &T) {}
        let (p, _) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        assert_sync(&anfa);
        // Concurrent matching through the shared caches agrees with the
        // single-threaded answer.
        let trace = syms(&[
            (OpKind::Iconst, None),
            (OpKind::Irem, None),
            (OpKind::Ifne, Some(true)),
            (OpKind::Iconst, None),
            (OpKind::Ireturn, None),
        ]);
        let expected = anfa.algorithm2(&trace);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        assert_eq!(anfa.algorithm2(&trace), expected);
                    }
                });
            }
        });
    }

    #[test]
    fn prewarm_changes_nothing_observable() {
        let (p, _) = paper_fun();
        let icfg = Icfg::build(&p);
        let cold = AbstractNfa::new(&p, &icfg);
        let warm = AbstractNfa::new(&p, &icfg);
        warm.prewarm(4);
        let trace = syms(&[
            (OpKind::Iload, None),
            (OpKind::Ifeq, Some(true)),
            (OpKind::Iload, None),
            (OpKind::Iconst, None),
            (OpKind::Isub, None),
        ]);
        assert_eq!(cold.algorithm2(&trace), warm.algorithm2(&trace));
        assert_eq!(cold.filter_stats(&trace), warm.filter_stats(&trace));
    }

    #[test]
    fn empty_sequence_accepts() {
        let (p, _) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        assert!(anfa.algorithm2(&[]).is_accepted());
    }
}
