//! Ball–Larus efficient path profiling (MICRO '96) — the paper's "PF"
//! baseline.
//!
//! The real algorithm: remove back edges to get the acyclic reduction
//! (with surrogate ENTRY→header and latch→EXIT edges), number paths so
//! that the sums of edge values along distinct acyclic paths are distinct
//! and compact, and instrument edges whose value is non-zero with path-
//! register increments; path counts are committed at exits and back
//! edges. The numbering also decodes: a path value maps back to the exact
//! block sequence ([`PathNumbering::path_blocks`]).

use std::collections::HashMap;

use jportal_bytecode::{Bci, Instruction, MethodId, ProbeKind, Program};
use jportal_cfg::block::{BlockEdge, BlockId, Cfg};

use crate::rewrite::InsertionPlan;

/// The Ball–Larus numbering of one method's acyclic CFG reduction.
#[derive(Debug, Clone)]
pub struct PathNumbering {
    /// The numbered method.
    pub method: MethodId,
    /// Total number of acyclic paths from entry (including surrogate
    /// paths induced by back edges).
    pub num_paths: u64,
    /// Value of each DAG edge `(from, to)`.
    edge_vals: HashMap<(BlockId, BlockId), u64>,
    /// Back edges `(latch, header)`.
    back_edges: Vec<(BlockId, BlockId)>,
    /// Surrogate ENTRY→header value per back-edge header (the reset value
    /// after a back edge commits).
    header_entry_val: HashMap<BlockId, u64>,
    /// Surrogate latch→EXIT value per latch (added before a back-edge
    /// commit).
    latch_exit_val: HashMap<BlockId, u64>,
    /// numpaths per block (exposed for diagnostics and tests).
    pub num_from: HashMap<BlockId, u64>,
}

impl PathNumbering {
    /// Computes the numbering for one method.
    pub fn compute(method_id: MethodId, cfg: &Cfg) -> PathNumbering {
        // DFS from entry over non-exception edges, collecting retreating
        // (back) edges and a post-order; removing the retreating edges
        // leaves a DAG.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let n = cfg.block_count();
        let mut color = vec![Color::White; n];
        let mut post: Vec<BlockId> = Vec::with_capacity(n);
        let mut back_edges: Vec<(BlockId, BlockId)> = Vec::new();
        let mut dag_succs: HashMap<BlockId, Vec<BlockId>> = HashMap::new();

        let mut stack: Vec<(BlockId, usize)> = vec![(cfg.entry(), 0)];
        color[cfg.entry().index()] = Color::Grey;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succs: Vec<BlockId> = cfg
                .block(b)
                .succs
                .iter()
                .filter(|&&(_, k)| k != BlockEdge::Exception)
                .map(|&(s, _)| s)
                .collect();
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                match color[s.index()] {
                    Color::White => {
                        dag_succs.entry(b).or_default().push(s);
                        color[s.index()] = Color::Grey;
                        stack.push((s, 0));
                    }
                    Color::Grey => back_edges.push((b, s)),
                    Color::Black => dag_succs.entry(b).or_default().push(s),
                }
            } else {
                color[b.index()] = Color::Black;
                post.push(b);
                stack.pop();
            }
        }

        // numpaths in post-order (children before parents). Blocks whose
        // only continuations are back edges count as exits.
        let mut num_from: HashMap<BlockId, u64> = HashMap::new();
        let mut edge_vals: HashMap<(BlockId, BlockId), u64> = HashMap::new();
        let mut latch_exit_val: HashMap<BlockId, u64> = HashMap::new();
        for &b in &post {
            let succs = dag_succs.get(&b).cloned().unwrap_or_default();
            let is_latch = back_edges.iter().any(|&(l, _)| l == b);
            let mut total = 0u64;
            for s in &succs {
                edge_vals.insert((b, *s), total);
                total += num_from.get(s).copied().unwrap_or(1);
            }
            if succs.is_empty() || is_latch {
                // Terminating here is one more path (surrogate b→EXIT).
                latch_exit_val.insert(b, total);
                total += 1;
            }
            num_from.insert(b, total.max(1));
        }

        // Surrogate ENTRY→header values: one distinct range per header,
        // appended after the normal paths.
        let mut num_paths = num_from.get(&cfg.entry()).copied().unwrap_or(1);
        let mut header_entry_val: HashMap<BlockId, u64> = HashMap::new();
        let mut headers: Vec<BlockId> = back_edges.iter().map(|&(_, h)| h).collect();
        headers.sort();
        headers.dedup();
        for h in headers {
            header_entry_val.insert(h, num_paths);
            num_paths += num_from.get(&h).copied().unwrap_or(1);
        }

        PathNumbering {
            method: method_id,
            num_paths,
            edge_vals,
            back_edges,
            header_entry_val,
            latch_exit_val,
            num_from,
        }
    }

    /// The back edges of the method.
    pub fn back_edges(&self) -> &[(BlockId, BlockId)] {
        &self.back_edges
    }

    /// Decodes a committed path value back to its block sequence,
    /// starting at `entry` (or at a loop header for surrogate paths).
    pub fn path_blocks(&self, cfg: &Cfg, mut value: u64) -> Vec<BlockId> {
        // Determine the starting block: surrogate ranges start at their
        // header's entry value.
        let mut start = cfg.entry();
        let mut best = 0u64;
        for (&h, &v) in &self.header_entry_val {
            if v <= value && v >= best && v > 0 {
                best = v;
                start = h;
            }
        }
        if best > 0 {
            value -= best;
        }
        let mut out = vec![start];
        let mut cur = start;
        loop {
            // Choose the successor with the largest edge value ≤ value.
            let mut next: Option<(BlockId, u64)> = None;
            for (&(f, t), &v) in &self.edge_vals {
                if f == cur && v <= value {
                    match next {
                        Some((_, bv)) if bv >= v => {}
                        _ => next = Some((t, v)),
                    }
                }
            }
            match next {
                Some((t, v)) => {
                    // Terminating at a latch is encoded past all its
                    // outgoing edges.
                    if let Some(&exit_v) = self.latch_exit_val.get(&cur) {
                        if exit_v <= value && exit_v > v {
                            break;
                        }
                    }
                    value -= v;
                    out.push(t);
                    cur = t;
                }
                None => break,
            }
        }
        out
    }
}

/// Instruments every method of `program` with Ball–Larus path profiling.
///
/// Returns the instrumented program plus the per-method numberings
/// (region id = method id; path counts land in the probe runtime keyed by
/// `(method id, path value)`).
pub fn instrument_path_profiling(program: &Program) -> (Program, Vec<PathNumbering>) {
    let mut numberings = Vec::new();
    let mut methods = Vec::new();
    for (mid, method) in program.methods() {
        let cfg = Cfg::build(method);
        let numbering = PathNumbering::compute(mid, &cfg);
        let region = mid.0;
        let mut plan = InsertionPlan::new();

        // Edge increments.
        for (&(from, to), &val) in &numbering.edge_vals {
            if val == 0 {
                continue;
            }
            let from_block = cfg.block(from);
            let last = from_block.last();
            let probes = [Instruction::Probe(ProbeKind::PathAdd(val as u32))];
            if is_fallthrough_edge(&cfg, from, to) {
                plan.after_fallthrough(last, probes);
            } else {
                plan.on_branch_edge(last, cfg.block(to).start, probes);
            }
        }

        // Exits: commit before every return / throw.
        for (i, insn) in method.code.iter().enumerate() {
            if insn.is_return() || matches!(insn, Instruction::Athrow) {
                plan.at_entry(
                    Bci(i as u32),
                    [Instruction::Probe(ProbeKind::PathCommit(region))],
                );
            }
        }

        // Back edges: add latch→EXIT value, commit, reset to the
        // header's surrogate entry value.
        for &(latch, header) in &numbering.back_edges {
            let last = cfg.block(latch).last();
            let exit_val = numbering.latch_exit_val.get(&latch).copied().unwrap_or(0);
            let reset = numbering
                .header_entry_val
                .get(&header)
                .copied()
                .unwrap_or(0);
            let probes = vec![
                Instruction::Probe(ProbeKind::PathAdd(exit_val as u32)),
                Instruction::Probe(ProbeKind::PathCommit(region)),
                Instruction::Probe(ProbeKind::PathSet(reset as u32)),
            ];
            if is_fallthrough_edge(&cfg, latch, header) {
                plan.after_fallthrough(last, probes);
            } else {
                plan.on_branch_edge(last, cfg.block(header).start, probes);
            }
        }

        let rewritten = plan.apply(method);
        methods.push(rewritten.method);
        numberings.push(numbering);
    }
    let classes = program.classes().map(|(_, c)| c.clone()).collect();
    let instrumented = Program::from_parts(classes, methods, program.entry());
    jportal_bytecode::verify_program(&instrumented).expect("instrumented program verifies");
    (instrumented, numberings)
}

fn is_fallthrough_edge(cfg: &Cfg, from: BlockId, to: BlockId) -> bool {
    cfg.block(from)
        .succs
        .iter()
        .any(|&(s, k)| s == to && k == BlockEdge::FallThrough)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_bytecode::builder::ProgramBuilder;
    use jportal_bytecode::{CmpKind, Instruction as I};
    use jportal_jvm::runtime::{Jvm, JvmConfig};

    /// Diamond: two acyclic paths.
    fn diamond_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut m = pb.method(c, "main", 0, false);
        let els = m.label();
        let join = m.label();
        m.emit(I::Iconst(1));
        m.branch_if(CmpKind::Eq, els);
        m.emit(I::Nop);
        m.jump(join);
        m.bind(els);
        m.emit(I::Nop);
        m.bind(join);
        m.emit(I::Return);
        let id = m.finish();
        pb.finish_with_entry(id).unwrap()
    }

    #[test]
    fn diamond_has_two_paths() {
        let p = diamond_program();
        let cfg = Cfg::build(p.method(p.entry()));
        let n = PathNumbering::compute(p.entry(), &cfg);
        assert_eq!(n.num_paths, 2);
        assert!(n.back_edges().is_empty());
    }

    #[test]
    fn diamond_paths_decode_to_distinct_blocks() {
        let p = diamond_program();
        let cfg = Cfg::build(p.method(p.entry()));
        let n = PathNumbering::compute(p.entry(), &cfg);
        let p0 = n.path_blocks(&cfg, 0);
        let p1 = n.path_blocks(&cfg, 1);
        assert_ne!(p0, p1);
        assert_eq!(p0[0], cfg.entry());
        assert_eq!(p1[0], cfg.entry());
        assert_eq!(p0.len(), 3);
        assert_eq!(p1.len(), 3);
    }

    #[test]
    fn executed_path_is_counted_once() {
        let p = diamond_program();
        let (instrumented, numberings) = instrument_path_profiling(&p);
        let r = Jvm::new(JvmConfig {
            tracing: false,
            ..JvmConfig::default()
        })
        .run(&instrumented);
        assert!(r.thread_errors.is_empty());
        // iconst 1 → ifeq not taken → then-branch path. Exactly one path
        // committed, with count 1.
        let region = p.entry().0;
        let total: u64 = r
            .probes
            .paths()
            .iter()
            .filter(|(&(reg, _), _)| reg == region)
            .map(|(_, &c)| c)
            .sum();
        assert_eq!(total, 1, "exactly one path execution");
        let _ = numberings;
    }

    /// Loop: for (i = n; i > 0; i--) body — classic BL example.
    fn loop_program(n: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut m = pb.method(c, "main", 0, false);
        let head = m.label();
        let done = m.label();
        m.emit(I::Iconst(n));
        m.emit(I::Istore(0));
        m.bind(head);
        m.emit(I::Iload(0));
        m.branch_if(CmpKind::Le, done);
        m.emit(I::Iinc(0, -1));
        m.jump(head);
        m.bind(done);
        m.emit(I::Return);
        let id = m.finish();
        pb.finish_with_entry(id).unwrap()
    }

    #[test]
    fn loop_iterations_commit_per_backedge() {
        let n = 7;
        let p = loop_program(n);
        let (instrumented, _) = instrument_path_profiling(&p);
        let r = Jvm::new(JvmConfig {
            tracing: false,
            ..JvmConfig::default()
        })
        .run(&instrumented);
        assert!(r.thread_errors.is_empty());
        let region = p.entry().0;
        let total: u64 = r
            .probes
            .paths()
            .iter()
            .filter(|(&(reg, _), _)| reg == region)
            .map(|(_, &c)| c)
            .sum();
        // n back-edge commits plus one exit commit.
        assert_eq!(total, n as u64 + 1);
        // The dominant path (loop body iteration) has count n - 1 or n:
        // the hottest path count must be ≥ n - 1.
        let max = r
            .probes
            .paths()
            .iter()
            .filter(|(&(reg, _), _)| reg == region)
            .map(|(_, &c)| c)
            .max()
            .unwrap();
        assert!(max >= n as u64 - 1, "hot loop path dominates, got {max}");
    }

    #[test]
    fn distinct_executions_hit_distinct_path_values() {
        // if (x) a else b with both sides exercised via two threads /
        // two runs — here: run a program that takes both sides in
        // sequence.
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut f = pb.method(c, "f", 1, false);
        let els = f.label();
        let join = f.label();
        f.emit(I::Iload(0));
        f.branch_if(CmpKind::Eq, els);
        f.emit(I::Nop);
        f.jump(join);
        f.bind(els);
        f.emit(I::Nop);
        f.bind(join);
        f.emit(I::Return);
        let fid = f.finish();
        let mut m = pb.method(c, "main", 0, false);
        m.emit(I::Iconst(0));
        m.emit(I::InvokeStatic(fid));
        m.emit(I::Iconst(1));
        m.emit(I::InvokeStatic(fid));
        m.emit(I::Return);
        let id = m.finish();
        let p = pb.finish_with_entry(id).unwrap();

        let (instrumented, _) = instrument_path_profiling(&p);
        let r = Jvm::new(JvmConfig {
            tracing: false,
            ..JvmConfig::default()
        })
        .run(&instrumented);
        assert!(r.thread_errors.is_empty());
        let region = fid.0;
        let distinct = r
            .probes
            .paths()
            .keys()
            .filter(|&&(reg, _)| reg == region)
            .count();
        assert_eq!(distinct, 2, "both diamond paths observed");
    }

    #[test]
    fn numbering_assigns_distinct_values_to_distinct_paths() {
        let p = diamond_program();
        let cfg = Cfg::build(p.method(p.entry()));
        let n = PathNumbering::compute(p.entry(), &cfg);
        // All path values below num_paths decode to distinct sequences.
        let mut seen = std::collections::HashSet::new();
        for v in 0..n.num_paths {
            let blocks = n.path_blocks(&cfg, v);
            assert!(seen.insert(blocks), "path value {v} duplicates another");
        }
    }
}
