//! The pc-walking reference JIT decoder, included by the decode
//! equivalence suite with `#[path]`, so the oracle stays out of the
//! shipped API.
//!
//! This is the decoder `WalkIndex` replaced, kept verbatim: every JIT
//! step binary-searches the code blob (`CodeBlob::insn_at`) and the debug
//! table (`DebugTable::at_exact`), re-checks `CodeBlob::contains` after
//! each transfer and resolves `program.method(..).insn(..)` per event.

use jportal_bytecode::{Bci, MethodId, Program};
use jportal_cfg::{BranchDir, Sym};
use jportal_core::{BcEvent, BcSegment};
use jportal_ipt::{Packet, RawSegment};
use jportal_jvm::MetadataArchive;
use std::collections::VecDeque;

/// Walker position inside JIT code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WalkState {
    /// Not inside walkable code; waiting for a TIP to anchor.
    Idle,
    /// Walking blob `archive index` at `pc`.
    Jit { blob: usize, pc: u64 },
    /// Paused at a conditional branch in a blob, waiting for a TNT bit.
    JitAtCond { blob: usize, pc: u64 },
}

/// Decodes one raw packet segment into bytecode events (§3): the
/// reference walk.
///
/// The decoder is resilient by construction: unknown TIP targets, missing
/// TNT bits (dropped at segment boundaries) and debug-info gaps degrade
/// into skipped events rather than failures — the reconstruction and
/// recovery stages deal with the consequences, exactly as in the paper.
pub fn reference_decode_segment(
    program: &Program,
    archive: &MetadataArchive,
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
    let mut last_jit_branch: Option<(usize, MethodId, Bci)> = None;

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
                state = drain_jit(
                    program,
                    archive,
                    state,
                    &mut tnt,
                    &mut out,
                    &mut last_jit_branch,
                    ts,
                );
            }
            Packet::Tip { ip, .. } | Packet::TipPge { ip, .. } => {
                pending_dir = None;
                state = anchor(archive, templates, *ip, ts, &mut out, &mut pending_dir);
                state = drain_jit(
                    program,
                    archive,
                    state,
                    &mut tnt,
                    &mut out,
                    &mut last_jit_branch,
                    ts,
                );
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
    resolve_jit_branch_dirs(program, &mut out);
    out
}

/// Re-anchors the walker at a TIP target.
fn anchor(
    archive: &MetadataArchive,
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
        WalkState::Jit { blob, pc: ip }
    } else {
        WalkState::Idle
    }
}

/// Advances a JIT walk as far as available TNT bits allow.
fn drain_jit(
    program: &Program,
    archive: &MetadataArchive,
    mut state: WalkState,
    tnt: &mut VecDeque<bool>,
    out: &mut BcSegment,
    last_jit_branch: &mut Option<(usize, MethodId, Bci)>,
    ts: u64,
) -> WalkState {
    loop {
        let (blob_idx, pc, at_cond) = match state {
            WalkState::Jit { blob, pc } => (blob, pc, false),
            WalkState::JitAtCond { blob, pc } => (blob, pc, true),
            WalkState::Idle => return WalkState::Idle,
        };
        let archived = &archive.blobs[blob_idx];
        let blob = &archived.compiled.blob;
        let Some(insn) = blob.insn_at(pc) else {
            return WalkState::Idle;
        };

        if !at_cond {
            // Emit the bytecode event anchored at this pc, if the debug
            // info still has a record here (degraded metadata loses some).
            if let Some(rec) = archived.compiled.debug.at_exact(pc) {
                let method = archived.compiled.debug.method_of(rec.inline_id);
                let m = program.method(method);
                if rec.bci.index() < m.code.len() {
                    let insn_bc = m.insn(rec.bci);
                    out.events.push(BcEvent {
                        sym: Sym::of_instruction(insn_bc),
                        method: Some(method),
                        bci: Some(rec.bci),
                        ts,
                    });
                    if insn_bc.is_conditional_branch() {
                        *last_jit_branch = Some((out.events.len() - 1, method, rec.bci));
                    }
                }
            }
        }

        use jportal_jvm::MiKind;
        state = match insn.kind {
            MiKind::Other => WalkState::Jit {
                blob: blob_idx,
                pc: insn.next_addr(),
            },
            MiKind::Jump { target } | MiKind::Call { target } => WalkState::Jit {
                blob: blob_idx,
                pc: target,
            },
            MiKind::CondBranch { target, .. } => match tnt.pop_front() {
                Some(true) => WalkState::Jit {
                    blob: blob_idx,
                    pc: target,
                },
                Some(false) => WalkState::Jit {
                    blob: blob_idx,
                    pc: insn.next_addr(),
                },
                None => {
                    // Wait for more TNT bits at this instruction.
                    return WalkState::JitAtCond { blob: blob_idx, pc };
                }
            },
            MiKind::IndirectJump | MiKind::IndirectCall | MiKind::Ret => {
                // The next TIP re-anchors the walk.
                return WalkState::Idle;
            }
        };
        if state == WalkState::Idle {
            return state;
        }
        // Walking off the end of the blob ends the walk.
        if let WalkState::Jit { pc, .. } = state {
            if !blob.contains(pc) {
                return WalkState::Idle;
            }
        }
    }
}

/// Sets branch directions on JIT-decoded conditional events by looking at
/// the event that follows: if it is the branch's taken target, the branch
/// was taken; if it is the fall-through, it was not.
fn resolve_jit_branch_dirs(program: &Program, seg: &mut BcSegment) {
    for i in 0..seg.events.len() {
        let (Some(method), Some(bci)) = (seg.events[i].method, seg.events[i].bci) else {
            continue;
        };
        let insn = program.method(method).insn(bci);
        if !insn.is_conditional_branch() {
            continue;
        }
        let taken_target = insn.branch_targets()[0];
        if let Some(next) = seg.events.get(i + 1) {
            if next.method == Some(method) {
                if next.bci == Some(taken_target) {
                    seg.events[i].sym.dir = BranchDir::Taken;
                } else if next.bci == Some(bci.next()) {
                    seg.events[i].sym.dir = BranchDir::NotTaken;
                }
            }
        }
    }
}
