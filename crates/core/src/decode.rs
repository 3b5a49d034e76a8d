//! Trace decoding (§3): PT packets → bytecode instruction sequences.
//!
//! Interpreted code decodes by **template-range matching**: every
//! interpreted bytecode produced a dispatch TIP whose target falls inside
//! one opcode's template range (Figure 2); the following TNT bit gives a
//! conditional's direction. JIT-compiled code decodes by **walking the
//! exported code image** from each TIP target, consuming TNT bits at
//! compiled conditional branches and mapping machine PCs back to
//! `method@bci` through the blob's debug records — including inline
//! frames (Figure 3, §6 "Dealing with Inlined Code").
//!
//! Both run in one walker, because real traces interleave the two worlds
//! at every mode transition.

use jportal_bytecode::{Bci, MethodId, Program};
use jportal_cfg::{BranchDir, Sym};
use jportal_ipt::ring::LossRecord;
use jportal_ipt::{Packet, RawSegment};
use jportal_jvm::{MetadataArchive, MiKind};
use std::collections::VecDeque;

/// One decoded bytecode occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BcEvent {
    /// The symbol (operation kind + branch direction when known).
    pub sym: Sym,
    /// Owning method — known for JIT-decoded events, unknown for
    /// interpreted ones (templates identify only the opcode).
    pub method: Option<MethodId>,
    /// Bytecode index — known for JIT-decoded events.
    pub bci: Option<Bci>,
    /// Timestamp of the packet that produced the event.
    pub ts: u64,
}

/// A decoded trace segment: a maximal run of events with no data loss
/// inside.
#[derive(Debug, Clone, Default)]
pub struct BcSegment {
    /// Decoded events in execution order.
    pub events: Vec<BcEvent>,
    /// The loss record separating this segment from its predecessor
    /// (`None` when the segment starts cleanly, e.g. at thread start or a
    /// scheduling split).
    pub loss_before: Option<LossRecord>,
    /// Core the segment was captured on.
    pub core: u32,
}

impl BcSegment {
    /// The symbols of the segment (the `ω` of §4).
    pub fn syms(&self) -> Vec<Sym> {
        self.events.iter().map(|e| e.sym).collect()
    }

    /// Timestamp of the first event (0 when empty).
    pub fn start_ts(&self) -> u64 {
        self.events.first().map(|e| e.ts).unwrap_or(0)
    }

    /// Timestamp of the last event (0 when empty).
    pub fn end_ts(&self) -> u64 {
        self.events.last().map(|e| e.ts).unwrap_or(0)
    }
}

/// Row index meaning "the walk leaves the code image here": the transfer
/// target lies outside the blob or not at an instruction start, or the
/// instruction is an indirect transfer whose target only the next TIP
/// names.
const EXIT: u32 = u32::MAX;

/// The bytecode event a machine instruction stands for, resolved once
/// from its debug record.
#[derive(Debug, Clone, Copy)]
struct JitEvent {
    sym: Sym,
    method: MethodId,
    bci: Bci,
    /// The bytecode taken target, for conditional branches only.
    taken: Option<Bci>,
}

/// Where the walk goes after one machine instruction, as row indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Succ {
    /// Fall-through, direct jump or direct call ([`EXIT`] for indirect
    /// transfers and returns).
    Next(u32),
    /// Conditional branch: one TNT bit picks the successor.
    Cond { taken: u32, not_taken: u32 },
}

/// One machine instruction of the walk tables.
#[derive(Debug, Clone, Copy)]
struct WalkRow {
    /// `None` where degraded metadata has no record at this pc, or the
    /// record's bci lies outside its method.
    event: Option<JitEvent>,
    succ: Succ,
}

/// Walk tables over every blob of a [`MetadataArchive`] (§3.2).
///
/// One row per machine instruction, holding the pre-resolved bytecode
/// event and the successor rows, so walking JIT code costs one table
/// step per instruction instead of binary searches over the code image
/// and its debug records. Built once per analysis and shared read-only
/// by the decode workers.
#[derive(Debug, Clone)]
pub struct WalkIndex {
    /// First row of each blob, in archive order.
    base: Vec<u32>,
    rows: Vec<WalkRow>,
}

impl WalkIndex {
    /// Resolves every blob of `archive` against `program`.
    pub fn new(program: &Program, archive: &MetadataArchive) -> WalkIndex {
        let mut base = Vec::with_capacity(archive.blobs.len());
        let mut rows = Vec::new();
        for archived in &archive.blobs {
            let blob = &archived.compiled.blob;
            let debug = &archived.compiled.debug;
            let first = rows.len() as u32;
            base.push(first);
            let row_of = |addr: u64| blob.index_of(addr).map_or(EXIT, |i| first + i as u32);
            for insn in blob.insns() {
                let event = debug.at_exact(insn.addr).and_then(|rec| {
                    let method = debug.method_of(rec.inline_id);
                    let m = program.method(method);
                    (rec.bci.index() < m.code.len()).then(|| {
                        let insn_bc = m.insn(rec.bci);
                        JitEvent {
                            sym: Sym::of_instruction(insn_bc),
                            method,
                            bci: rec.bci,
                            taken: insn_bc
                                .is_conditional_branch()
                                .then(|| insn_bc.branch_targets()[0]),
                        }
                    })
                });
                let succ = match insn.kind {
                    MiKind::Other => Succ::Next(row_of(insn.next_addr())),
                    MiKind::Jump { target } | MiKind::Call { target } => Succ::Next(row_of(target)),
                    MiKind::CondBranch { target, .. } => Succ::Cond {
                        taken: row_of(target),
                        not_taken: row_of(insn.next_addr()),
                    },
                    MiKind::IndirectJump | MiKind::IndirectCall | MiKind::Ret => Succ::Next(EXIT),
                };
                rows.push(WalkRow { event, succ });
            }
        }
        // Row indices are `u32`, with `EXIT` reserved.
        assert!(rows.len() < EXIT as usize, "walk tables overflow u32 rows");
        WalkIndex { base, rows }
    }
}

/// Walker position inside JIT code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WalkState {
    /// Not inside walkable code; waiting for a TIP to anchor.
    Idle,
    /// About to execute the instruction at walk-table row `.0`.
    Jit(u32),
    /// Paused at the conditional branch at row `.0`, waiting for a TNT
    /// bit (its event is already emitted).
    JitAtCond(u32),
}

/// Decodes one raw packet segment into bytecode events (§3).
///
/// The decoder is resilient by construction: unknown TIP targets, missing
/// TNT bits (dropped at segment boundaries) and debug-info gaps degrade
/// into skipped events rather than failures — the reconstruction and
/// recovery stages deal with the consequences, exactly as in the paper.
///
/// Builds a [`WalkIndex`] for this one call; decoding many segments
/// against one archive should build it once and use
/// [`decode_segment_with`].
pub fn decode_segment(program: &Program, archive: &MetadataArchive, raw: &RawSegment) -> BcSegment {
    decode_segment_with(archive, &WalkIndex::new(program, archive), raw)
}

/// [`decode_segment`] over prebuilt walk tables (`index` must be built
/// from the same `archive`).
pub fn decode_segment_with(
    archive: &MetadataArchive,
    index: &WalkIndex,
    raw: &RawSegment,
) -> BcSegment {
    let mut out = BcSegment {
        events: Vec::new(),
        loss_before: raw.loss_before,
        core: raw.core,
    };
    let templates = &archive.templates;
    let mut state = WalkState::Idle;
    let mut tnt: VecDeque<bool> = VecDeque::new();
    // Index of an interpreted conditional event awaiting its direction.
    let mut pending_dir: Option<usize> = None;
    // Every JIT conditional event, with its bytecode taken target.
    let mut jit_conds: Vec<(usize, Bci)> = Vec::new();

    for tp in raw.packets() {
        let ts = tp.ts;
        match &tp.packet {
            Packet::Tnt { bits } => {
                tnt.extend(bits.iter());
                // An interpreted conditional consumes the first bit.
                if let Some(idx) = pending_dir.take() {
                    if let Some(bit) = tnt.pop_front() {
                        out.events[idx].sym.dir = BranchDir::from_taken(bit);
                    }
                }
                state = drain_jit(index, state, &mut tnt, &mut out, &mut jit_conds, ts);
            }
            Packet::Tip { ip, .. } | Packet::TipPge { ip, .. } => {
                pending_dir = None;
                state = anchor(
                    archive,
                    index,
                    templates,
                    *ip,
                    ts,
                    &mut out,
                    &mut pending_dir,
                );
                state = drain_jit(index, state, &mut tnt, &mut out, &mut jit_conds, ts);
            }
            Packet::TipPgd { .. } => {
                state = WalkState::Idle;
                pending_dir = None;
            }
            Packet::Fup { .. } => {
                // Asynchronous event: the walk stops here; the following
                // TIP re-anchors at the handler.
                state = WalkState::Idle;
                pending_dir = None;
            }
            Packet::Ovf => {
                // In-stream overflow marker: drop stale decoder state.
                state = WalkState::Idle;
                pending_dir = None;
                tnt.clear();
            }
            Packet::Psb | Packet::PsbEnd | Packet::Pad | Packet::Tsc { .. } => {}
        }
    }
    resolve_jit_branch_dirs(&mut out, &jit_conds);
    out
}

/// Re-anchors the walker at a TIP target.
fn anchor(
    archive: &MetadataArchive,
    index: &WalkIndex,
    templates: &jportal_jvm::TemplateTable,
    ip: u64,
    ts: u64,
    out: &mut BcSegment,
    pending_dir: &mut Option<usize>,
) -> WalkState {
    if let Some(op) = templates.op_at(ip) {
        // Interpreted dispatch: the target template names the opcode.
        let sym = Sym::plain(op);
        out.events.push(BcEvent {
            sym,
            method: None,
            bci: None,
            ts,
        });
        let is_cond = matches!(
            op,
            jportal_bytecode::OpKind::Ifeq
                | jportal_bytecode::OpKind::Ifne
                | jportal_bytecode::OpKind::Iflt
                | jportal_bytecode::OpKind::Ifge
                | jportal_bytecode::OpKind::Ifgt
                | jportal_bytecode::OpKind::Ifle
                | jportal_bytecode::OpKind::IfIcmpeq
                | jportal_bytecode::OpKind::IfIcmpne
                | jportal_bytecode::OpKind::IfIcmplt
                | jportal_bytecode::OpKind::IfIcmpge
                | jportal_bytecode::OpKind::IfIcmpgt
                | jportal_bytecode::OpKind::IfIcmple
                | jportal_bytecode::OpKind::Ifnull
        );
        if is_cond {
            *pending_dir = Some(out.events.len() - 1);
        }
        WalkState::Idle
    } else if let Some(blob) = archive.lookup_index(ip, ts) {
        match archive.blobs[blob].compiled.blob.index_of(ip) {
            Some(i) => WalkState::Jit(index.base[blob] + i as u32),
            None => WalkState::Idle,
        }
    } else {
        WalkState::Idle
    }
}

/// Advances a JIT walk as far as available TNT bits allow.
fn drain_jit(
    index: &WalkIndex,
    state: WalkState,
    tnt: &mut VecDeque<bool>,
    out: &mut BcSegment,
    jit_conds: &mut Vec<(usize, Bci)>,
    ts: u64,
) -> WalkState {
    let (mut row, mut at_cond) = match state {
        WalkState::Jit(row) => (row, false),
        WalkState::JitAtCond(row) => (row, true),
        WalkState::Idle => return WalkState::Idle,
    };
    loop {
        let r = &index.rows[row as usize];
        if !at_cond {
            // Emit the bytecode event anchored at this instruction, if
            // the debug info still has a record here (degraded metadata
            // loses some).
            if let Some(ev) = r.event {
                if let Some(taken) = ev.taken {
                    jit_conds.push((out.events.len(), taken));
                }
                out.events.push(BcEvent {
                    sym: ev.sym,
                    method: Some(ev.method),
                    bci: Some(ev.bci),
                    ts,
                });
            }
        }
        at_cond = false;
        row = match r.succ {
            Succ::Next(next) => next,
            Succ::Cond { taken, not_taken } => match tnt.pop_front() {
                Some(true) => taken,
                Some(false) => not_taken,
                // Wait for more TNT bits at this instruction.
                None => return WalkState::JitAtCond(row),
            },
        };
        if row == EXIT {
            return WalkState::Idle;
        }
    }
}

/// Sets branch directions on JIT-decoded conditional events (`jit_conds`
/// holds each one's index and bytecode taken target) by looking at the
/// event that follows: if it is the branch's taken target, the branch
/// was taken; if it is the fall-through, it was not.
fn resolve_jit_branch_dirs(seg: &mut BcSegment, jit_conds: &[(usize, Bci)]) {
    for &(i, taken_target) in jit_conds {
        let BcEvent { method, bci, .. } = seg.events[i];
        if let Some(next) = seg.events.get(i + 1) {
            if next.method == method {
                if next.bci == Some(taken_target) {
                    seg.events[i].sym.dir = BranchDir::Taken;
                } else if next.bci == bci.map(Bci::next) {
                    seg.events[i].sym.dir = BranchDir::NotTaken;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_bytecode::builder::ProgramBuilder;
    use jportal_bytecode::{CmpKind, Instruction as I, OpKind};
    use jportal_ipt::{decode_packets, segment_stream};
    use jportal_jvm::{Jvm, JvmConfig};

    fn paper_fun_program() -> Program {
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
        pb.finish_with_entry(main).unwrap()
    }

    fn run_and_decode(
        program: &Program,
        cfg: JvmConfig,
    ) -> (Vec<BcSegment>, jportal_jvm::RunResult) {
        let r = Jvm::new(cfg).run(program);
        let traces = r.traces.as_ref().expect("tracing on");
        let packets = decode_packets(&traces.per_core[0].bytes);
        let raw = segment_stream(packets, &traces.per_core[0].losses, 0);
        let segs = raw
            .iter()
            .map(|s| decode_segment(program, &r.archive, s))
            .collect();
        (segs, r)
    }

    #[test]
    fn interpreted_decode_matches_ground_truth_exactly() {
        let program = paper_fun_program();
        let cfg = JvmConfig {
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        };
        let (segs, r) = run_and_decode(&program, cfg);
        assert_eq!(segs.len(), 1, "no loss expected");
        let decoded_ops: Vec<OpKind> = segs[0].events.iter().map(|e| e.sym.op).collect();
        let truth: Vec<OpKind> = r
            .truth
            .trace(jportal_ipt::ThreadId(0))
            .iter()
            .map(|e| program.method(e.method).insn(e.bci).op_kind())
            .collect();
        assert_eq!(decoded_ops, truth, "opcode sequences must agree");
        // All interpreted events have unknown method.
        assert!(segs[0].events.iter().all(|e| e.method.is_none()));
    }

    #[test]
    fn interpreted_branch_directions_come_from_tnt() {
        let program = paper_fun_program();
        let cfg = JvmConfig {
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        };
        let (segs, r) = run_and_decode(&program, cfg);
        let truth = r.truth.trace(jportal_ipt::ThreadId(0));
        for (i, e) in segs[0].events.iter().enumerate() {
            if matches!(e.sym.op, OpKind::Ifeq | OpKind::Ifne) {
                // Direction must be known and agree with what the truth
                // trace did next.
                assert_ne!(e.sym.dir, BranchDir::Unknown, "event {i} has direction");
                let t = &truth[i];
                let insn = program.method(t.method).insn(t.bci);
                let taken_target = insn.branch_targets()[0];
                let actually_taken = truth[i + 1].bci == taken_target;
                assert_eq!(e.sym.dir, BranchDir::from_taken(actually_taken));
            }
        }
    }

    /// A program whose hot method gets JIT-compiled, then keeps running.
    fn hot_loop_program(iters: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut h = pb.method(c, "hot", 1, true);
        let odd = h.label();
        h.emit(I::Iload(0));
        h.emit(I::Iconst(2));
        h.emit(I::Irem);
        h.branch_if(CmpKind::Ne, odd);
        h.emit(I::Iconst(100));
        h.emit(I::Ireturn);
        h.bind(odd);
        h.emit(I::Iconst(200));
        h.emit(I::Ireturn);
        let hot = h.finish();
        let mut m = pb.method(c, "main", 0, false);
        let head = m.label();
        let done = m.label();
        m.emit(I::Iconst(iters));
        m.emit(I::Istore(0));
        m.bind(head);
        m.emit(I::Iload(0));
        m.branch_if(CmpKind::Le, done);
        m.emit(I::Iload(0));
        m.emit(I::InvokeStatic(hot));
        m.emit(I::Pop);
        m.emit(I::Iinc(0, -1));
        m.jump(head);
        m.bind(done);
        m.emit(I::Return);
        let main = m.finish();
        pb.finish_with_entry(main).unwrap()
    }

    #[test]
    fn jit_decode_recovers_methods_and_bcis() {
        let program = hot_loop_program(60);
        let cfg = JvmConfig {
            c1_threshold: 5,
            c2_threshold: 20,
            ..JvmConfig::default()
        };
        let (segs, r) = run_and_decode(&program, cfg);
        assert!(r.compilations >= 1);
        let jit_events: Vec<&BcEvent> = segs
            .iter()
            .flat_map(|s| &s.events)
            .filter(|e| e.method.is_some())
            .collect();
        assert!(
            !jit_events.is_empty(),
            "compiled code must decode with known methods"
        );
        // Every JIT event's (method, bci) must be a real instruction whose
        // op kind matches the decoded symbol.
        for e in &jit_events {
            let insn = program.method(e.method.unwrap()).insn(e.bci.unwrap());
            assert_eq!(insn.op_kind(), e.sym.op);
        }
    }

    #[test]
    fn full_decoded_stream_matches_truth_even_across_modes() {
        let program = hot_loop_program(80);
        let cfg = JvmConfig {
            c1_threshold: 4,
            c2_threshold: 16,
            ..JvmConfig::default()
        };
        let (segs, r) = run_and_decode(&program, cfg);
        assert_eq!(segs.len(), 1, "big buffer: no loss");
        let decoded_ops: Vec<OpKind> = segs[0].events.iter().map(|e| e.sym.op).collect();
        let truth: Vec<OpKind> = r
            .truth
            .trace(jportal_ipt::ThreadId(0))
            .iter()
            .map(|e| program.method(e.method).insn(e.bci).op_kind())
            .collect();
        assert_eq!(
            decoded_ops, truth,
            "decode must be exact with pristine debug info"
        );
    }

    #[test]
    fn degraded_debug_info_loses_events_but_never_lies() {
        let program = hot_loop_program(80);
        let cfg = JvmConfig {
            c1_threshold: 4,
            c2_threshold: 16,
            jit: jportal_jvm::JitConfig {
                debug_degrade: 0.3,
                ..jportal_jvm::JitConfig::default()
            },
            ..JvmConfig::default()
        };
        let (segs, r) = run_and_decode(&program, cfg);
        let decoded: usize = segs.iter().map(|s| s.events.len()).sum();
        let truth_len = r.truth.trace(jportal_ipt::ThreadId(0)).len();
        assert!(decoded < truth_len, "degraded metadata drops events");
        // But whatever is decoded is still correct.
        for s in &segs {
            for e in &s.events {
                if let (Some(m), Some(b)) = (e.method, e.bci) {
                    assert_eq!(program.method(m).insn(b).op_kind(), e.sym.op);
                }
            }
        }
    }

    #[test]
    fn loss_segments_decode_independently() {
        let program = hot_loop_program(400);
        let cfg = JvmConfig {
            pt_buffer_capacity: 512,
            drain_bytes_per_kilocycle: 3,
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        };
        let (segs, _r) = run_and_decode(&program, cfg);
        assert!(segs.len() > 1, "loss must split the stream");
        let with_loss = segs.iter().filter(|s| s.loss_before.is_some()).count();
        assert!(with_loss >= 1);
        // Non-empty segments decode to valid events.
        let non_empty = segs.iter().filter(|s| !s.events.is_empty()).count();
        assert!(non_empty >= 2);
    }

    /// A one-blob archive with hand-written code and debug records
    /// (`(pc offset, bci)` pairs in `fun`'s root frame), on the shell of
    /// a real compilation of `fun`.
    fn hand_archive(
        program: &Program,
        insns: &[(u8, MiKind)],
        records: &[(u64, u32)],
    ) -> MetadataArchive {
        use jportal_jvm::code_cache::{ArchivedBlob, JIT_BASE, TEMPLATE_BASE};
        use jportal_jvm::{CodeBlob, DebugRecord, DebugTable, JitConfig, JitTier, MachineInsn};
        let (fun, _) = program
            .methods()
            .find(|(_, m)| m.name == "fun")
            .expect("fun");
        let mut compiled =
            jportal_jvm::jit::compile(program, fun, JitTier::C1, JIT_BASE, &JitConfig::default());
        let mut addr = JIT_BASE;
        let code = insns
            .iter()
            .map(|&(len, kind)| {
                let insn = MachineInsn { addr, len, kind };
                addr += u64::from(len);
                insn
            })
            .collect();
        compiled.blob = CodeBlob::new(JIT_BASE, code);
        let mut debug = DebugTable::new(fun);
        for &(pc, bci) in records {
            debug.push(DebugRecord {
                pc: JIT_BASE + pc,
                inline_id: 0,
                bci: Bci(bci),
            });
        }
        compiled.debug = debug;
        MetadataArchive {
            templates: jportal_jvm::TemplateTable::new(TEMPLATE_BASE),
            blobs: vec![ArchivedBlob {
                compiled,
                active_from: 0,
                active_to: None,
            }],
        }
    }

    /// Decodes an anchor at the blob's entry followed by eight TNT bits,
    /// all `taken` or all not; returns the decoded bcis. Once the walk
    /// has left the image the remaining bits go unconsumed.
    fn walk_bcis(program: &Program, archive: &MetadataArchive, taken: bool) -> Vec<u32> {
        use jportal_ipt::packet::{IpCompression, TntBits};
        use jportal_ipt::TimedPacket;
        let ip = jportal_jvm::code_cache::JIT_BASE;
        let packets = vec![
            TimedPacket {
                packet: Packet::TipPge {
                    compression: IpCompression::Full,
                    ip,
                },
                offset: 0,
                ts: 1,
            },
            TimedPacket {
                packet: Packet::Tnt {
                    bits: TntBits::from_raw(if taken { 0xff } else { 0 }, 8),
                },
                offset: 9,
                ts: 1,
            },
        ];
        let raw = RawSegment::from_packets(packets, None, 0);
        decode_segment(program, archive, &raw)
            .events
            .iter()
            .map(|e| e.bci.expect("JIT event").0)
            .collect()
    }

    #[test]
    fn walk_ends_at_a_jump_target_outside_the_blob() {
        let p = paper_fun_program();
        let a = hand_archive(
            &p,
            &[(4, MiKind::Other), (4, MiKind::Jump { target: 0x10 })],
            &[(0, 0), (4, 6)],
        );
        let index = WalkIndex::new(&p, &a);
        assert_eq!(index.rows[1].succ, Succ::Next(EXIT));
        assert_eq!(walk_bcis(&p, &a, true), vec![0, 6]);
    }

    #[test]
    fn walk_ends_at_a_jump_target_inside_an_instruction() {
        let p = paper_fun_program();
        let target = jportal_jvm::code_cache::JIT_BASE + 2;
        let a = hand_archive(
            &p,
            &[(4, MiKind::Other), (4, MiKind::Jump { target })],
            &[(0, 0), (4, 6)],
        );
        let index = WalkIndex::new(&p, &a);
        assert_eq!(index.rows[1].succ, Succ::Next(EXIT));
        assert_eq!(walk_bcis(&p, &a, true), vec![0, 6]);
        // At an instruction start the same jump loops back, consuming
        // nothing; a conditional in the loop then drains the TNT bits.
        let base = jportal_jvm::code_cache::JIT_BASE;
        let a = hand_archive(
            &p,
            &[
                (
                    4,
                    MiKind::CondBranch {
                        target: base + 8,
                        taken_means_bytecode_taken: true,
                    },
                ),
                (4, MiKind::Ret),
                (4, MiKind::Jump { target: base }),
            ],
            &[(0, 1), (8, 6)],
        );
        let index = WalkIndex::new(&p, &a);
        assert_eq!(index.rows[2].succ, Succ::Next(0));
        assert_eq!(
            walk_bcis(&p, &a, true),
            [1, 6].repeat(8).into_iter().chain([1]).collect::<Vec<_>>()
        );
    }

    #[test]
    fn walk_ends_falling_through_off_the_blob_end() {
        let p = paper_fun_program();
        let base = jportal_jvm::code_cache::JIT_BASE;
        let a = hand_archive(
            &p,
            &[
                (4, MiKind::Other),
                (
                    4,
                    MiKind::CondBranch {
                        target: base,
                        taken_means_bytecode_taken: true,
                    },
                ),
            ],
            &[(0, 0), (4, 1)],
        );
        let index = WalkIndex::new(&p, &a);
        assert_eq!(
            index.rows[1].succ,
            Succ::Cond {
                taken: 0,
                not_taken: EXIT
            }
        );
        assert_eq!(walk_bcis(&p, &a, false), vec![0, 1]);
        // Taken, the branch loops once per bit and then waits.
        assert_eq!(walk_bcis(&p, &a, true).len(), 18);
        let a = hand_archive(
            &p,
            &[(4, MiKind::Other), (2, MiKind::Other)],
            &[(0, 0), (4, 2)],
        );
        let index = WalkIndex::new(&p, &a);
        assert_eq!(index.rows[1].succ, Succ::Next(EXIT));
        assert_eq!(walk_bcis(&p, &a, true), vec![0, 2]);
    }

    #[test]
    fn debug_record_with_out_of_range_bci_emits_nothing() {
        let p = paper_fun_program();
        let a = hand_archive(
            &p,
            &[(4, MiKind::Other), (4, MiKind::Other), (4, MiKind::Ret)],
            &[(0, 0), (4, 99), (8, 16)],
        );
        let index = WalkIndex::new(&p, &a);
        assert!(index.rows[1].event.is_none());
        assert_eq!(walk_bcis(&p, &a, true), vec![0, 16]);
    }
}
