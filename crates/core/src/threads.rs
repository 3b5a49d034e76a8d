//! Multi-core / multi-thread trace segregation (§6).
//!
//! PT records per physical core; threads migrate between cores. JPortal
//! uses the thread-switch sideband records (timestamps at which each
//! thread is scheduled in/out) to cut each core's packet stream into
//! per-thread pieces, then splices the pieces of each thread across cores
//! in timestamp order.
//!
//! The paper notes this is a genuine source of imprecision: packet
//! timestamps come from periodic TSC packets and are coarser than
//! scheduling decisions, so packets near a switch boundary can land on
//! the wrong thread — that effect is faithfully present here.

use jportal_ipt::sideband::schedule_intervals;
use jportal_ipt::{
    decode_packets_into, segment_stream, CollectedTraces, DecodeScratch, DecodeStats, RawSegment,
    ThreadId,
};
use jportal_par::ParMetrics;
use std::cell::RefCell;
use std::collections::HashMap;

/// A per-thread piece of trace, tagged with its source core.
#[derive(Debug, Clone)]
pub struct ThreadPiece {
    /// The core the piece was captured on.
    pub core: u32,
    /// The raw packets (loss information preserved).
    pub segment: RawSegment,
}

/// Splits all per-core traces into per-thread, time-ordered piece lists.
///
/// Pieces created by scheduling splits carry `loss_before: None` (no data
/// was lost; only decoder context); pieces following a buffer overflow
/// keep their [`jportal_ipt::LossRecord`].
pub fn segregate(collected: &CollectedTraces) -> HashMap<ThreadId, Vec<ThreadPiece>> {
    segregate_with_stats(collected, 1).0
}

/// [`segregate`] with a per-worker decode fan-out.
///
/// Each core's byte stream decodes independently, so the streams fan out
/// over `workers`; every worker thread reuses one [`DecodeScratch`]
/// arena across the streams it claims (packet capacity carried over, the
/// PR-3 `MatchScratch` pattern). The decoded stream becomes one shared
/// [`jportal_ipt::PacketBuf`], and every piece — segmentation cut or
/// scheduling split — is an index range over it: packets are never
/// re-vectored.
///
/// The returned [`DecodeStats`] are summed in core order and depend only
/// on the trace bytes, so they are identical at every worker count (part
/// of the determinism contract, unlike scratch high-water gauges).
pub fn segregate_with_stats(
    collected: &CollectedTraces,
    workers: usize,
) -> (HashMap<ThreadId, Vec<ThreadPiece>>, DecodeStats) {
    thread_local! {
        static DECODE_SCRATCH: RefCell<DecodeScratch> = RefCell::new(DecodeScratch::new());
    }
    let cores: Vec<usize> = (0..collected.per_core.len()).collect();
    let per_core: Vec<(Vec<(ThreadId, ThreadPiece)>, DecodeStats)> =
        jportal_par::par_map(workers, &cores, &ParMetrics::noop(), |_, &core_idx| {
            let core = core_idx as u32;
            let trace = &collected.per_core[core_idx];
            let intervals = schedule_intervals(&collected.sideband, core, collected.end_ts);
            if intervals.is_empty() {
                return (Vec::new(), DecodeStats::default());
            }
            let (buf, stats) = DECODE_SCRATCH.with(|s| {
                let mut scratch = s.borrow_mut();
                let before = scratch.stats();
                decode_packets_into(&trace.bytes, &mut scratch);
                let after = scratch.stats();
                let stats = DecodeStats {
                    resync_bytes: after.resync_bytes - before.resync_bytes,
                    packets: after.packets - before.packets,
                };
                (scratch.to_shared(), stats)
            });
            let raw_segments = segment_stream(buf, &trace.losses, core);

            let mut pieces: Vec<(ThreadId, ThreadPiece)> = Vec::new();
            for seg in raw_segments {
                // Split the segment wherever the owning interval changes.
                let mut current_thread: Option<ThreadId> = None;
                let mut piece_start = 0usize;
                let mut first_piece = true;
                let mut flush = |thread: Option<ThreadId>, range: std::ops::Range<usize>| {
                    if let (Some(t), false) = (thread, range.is_empty()) {
                        let loss_before = if first_piece { seg.loss_before } else { None };
                        first_piece = false;
                        pieces.push((
                            t,
                            ThreadPiece {
                                core,
                                segment: seg.slice(range.start, range.end, loss_before),
                            },
                        ));
                    }
                };
                for (i, p) in seg.packets().iter().enumerate() {
                    let owner = owner_at(&intervals, p.ts);
                    if owner != current_thread {
                        flush(current_thread, piece_start..i);
                        current_thread = owner;
                        piece_start = i;
                    }
                }
                flush(current_thread, piece_start..seg.len());
            }
            (pieces, stats)
        });

    let mut per_thread: HashMap<ThreadId, Vec<ThreadPiece>> = HashMap::new();
    let mut stats = DecodeStats::default();
    for (pieces, core_stats) in per_core {
        stats.merge(&core_stats);
        for (t, piece) in pieces {
            per_thread.entry(t).or_default().push(piece);
        }
    }

    // Order each thread's pieces by time (stable, so same-timestamp
    // pieces keep core order — identical to the sequential path).
    for pieces in per_thread.values_mut() {
        pieces.sort_by_key(|p| p.segment.packets().first().map(|tp| tp.ts).unwrap_or(0));
    }
    (per_thread, stats)
}

/// The thread whose interval `[start, end)` holds `ts`; packets after the
/// last interval belong to its thread, packets in a gap to none.
///
/// `intervals` is [`schedule_intervals`] output: disjoint, in time order,
/// ends non-decreasing. So the first interval ending after `ts` is the
/// only one that can hold it, and a binary search finds it.
fn owner_at(intervals: &[(ThreadId, u64, u64)], ts: u64) -> Option<ThreadId> {
    let i = intervals.partition_point(|&(_, _, end)| end <= ts);
    match intervals.get(i) {
        Some(&(t, start, _)) => (start <= ts).then_some(t),
        None => intervals.last().map(|&(t, _, _)| t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_bytecode::builder::ProgramBuilder;
    use jportal_bytecode::{CmpKind, Instruction as I};
    use jportal_ipt::SidebandRecord;
    use jportal_jvm::runtime::{Jvm, JvmConfig, ThreadSpec};
    use proptest::prelude::*;

    fn loopy() -> jportal_bytecode::Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut m = pb.method(c, "main", 0, false);
        let head = m.label();
        let done = m.label();
        m.emit(I::Iconst(30));
        m.emit(I::Istore(0));
        m.bind(head);
        m.emit(I::Iload(0));
        m.branch_if(CmpKind::Le, done);
        m.emit(I::Iinc(0, -1));
        m.jump(head);
        m.bind(done);
        m.emit(I::Return);
        let main = m.finish();
        pb.finish_with_entry(main).unwrap()
    }

    #[test]
    fn single_thread_single_core_is_one_stream() {
        let p = loopy();
        let r = Jvm::new(JvmConfig::default()).run(&p);
        let collected = r.traces.unwrap();
        let per_thread = segregate(&collected);
        assert_eq!(per_thread.len(), 1);
        let pieces = &per_thread[&ThreadId(0)];
        assert!(!pieces.is_empty());
        let total: usize = pieces.iter().map(|p| p.segment.len()).sum();
        assert!(total > 10);
    }

    #[test]
    fn multiple_threads_are_separated() {
        let p = loopy();
        let jvm = Jvm::new(JvmConfig {
            cores: 2,
            quantum: 512, // force many switches
            ..JvmConfig::default()
        });
        let main = p.entry();
        let r = jvm.run_threads(
            &p,
            &[
                ThreadSpec {
                    method: main,
                    args: vec![],
                },
                ThreadSpec {
                    method: main,
                    args: vec![],
                },
                ThreadSpec {
                    method: main,
                    args: vec![],
                },
            ],
        );
        let collected = r.traces.unwrap();
        let per_thread = segregate(&collected);
        assert_eq!(per_thread.len(), 3, "all three threads have pieces");
        for pieces in per_thread.values() {
            // Pieces are time-ordered.
            let starts: Vec<u64> = pieces
                .iter()
                .map(|p| p.segment.packets().first().map(|tp| tp.ts).unwrap_or(0))
                .collect();
            let mut sorted = starts.clone();
            sorted.sort();
            assert_eq!(starts, sorted);
        }
    }

    #[test]
    fn decoded_segments_keep_per_core_attribution() {
        let p = loopy();
        let jvm = Jvm::new(JvmConfig {
            cores: 2,
            quantum: 512,
            ..JvmConfig::default()
        });
        let main = p.entry();
        let r = jvm.run_threads(
            &p,
            &[
                ThreadSpec {
                    method: main,
                    args: vec![],
                },
                ThreadSpec {
                    method: main,
                    args: vec![],
                },
                ThreadSpec {
                    method: main,
                    args: vec![],
                },
            ],
        );
        let collected = r.traces.unwrap();
        let per_thread = segregate(&collected);
        let mut cores_seen = std::collections::HashSet::new();
        for pieces in per_thread.values() {
            for piece in pieces {
                // The raw segment carries the core it was drained from,
                // and decoding preserves it.
                assert_eq!(piece.segment.core, piece.core);
                let decoded = crate::decode::decode_segment(&p, &r.archive, &piece.segment);
                assert_eq!(decoded.core, piece.core, "core id lost in decode");
                cores_seen.insert(piece.core);
            }
        }
        assert_eq!(
            cores_seen.len(),
            2,
            "three threads over two cores must produce pieces on both"
        );
    }

    /// The linear scan `owner_at` replaced: the first interval holding
    /// `ts`, else the last interval's thread for packets after its end.
    fn owner_at_linear(intervals: &[(ThreadId, u64, u64)], ts: u64) -> Option<ThreadId> {
        intervals
            .iter()
            .find(|&&(_, start, end)| start <= ts && ts < end)
            .map(|&(t, _, _)| t)
            .or_else(|| {
                intervals
                    .last()
                    .filter(|&&(_, _, end)| ts >= end)
                    .map(|&(t, _, _)| t)
            })
    }

    #[test]
    fn owner_lookup_semantics() {
        let iv = vec![(ThreadId(1), 10, 20), (ThreadId(2), 20, 30)];
        for (ts, want) in [
            (5, None),
            (10, Some(ThreadId(1))),
            (19, Some(ThreadId(1))),
            (20, Some(ThreadId(2))),
            (99, Some(ThreadId(2))), // the tail belongs to the last thread
        ] {
            assert_eq!(owner_at(&iv, ts), want, "ts {ts}");
            assert_eq!(owner_at_linear(&iv, ts), want, "oracle, ts {ts}");
        }
        assert_eq!(owner_at(&[], 7), None);
    }

    fn arb_switch() -> impl Strategy<Value = SidebandRecord> {
        prop_oneof![
            (0u32..2, 0u32..4, 0u64..40).prop_map(|(core, t, ts)| SidebandRecord::SwitchIn {
                core,
                thread: ThreadId(t),
                ts,
            }),
            (0u32..2, 0u32..4, 0u64..40).prop_map(|(core, t, ts)| SidebandRecord::SwitchOut {
                core,
                thread: ThreadId(t),
                ts,
            }),
        ]
    }

    proptest! {
        /// The binary-search lookup agrees with the linear oracle on real
        /// `schedule_intervals` output (duplicate timestamps, zero-length
        /// intervals, gaps from out-records) at every interval boundary,
        /// one tick either side of it, before the first interval and
        /// after the last.
        #[test]
        fn owner_at_matches_linear_oracle(
            records in prop::collection::vec(arb_switch(), 0..40),
            end_of_time in 0u64..48,
        ) {
            let iv = schedule_intervals(&records, 0, end_of_time);
            let mut probes = vec![0, u64::MAX];
            for &(_, start, end) in &iv {
                for b in [start, end] {
                    probes.extend([b.saturating_sub(1), b, b + 1]);
                }
            }
            for ts in probes {
                prop_assert_eq!(owner_at(&iv, ts), owner_at_linear(&iv, ts), "ts {} in {:?}", ts, iv);
            }
        }
    }
}
