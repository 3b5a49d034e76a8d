//! Perf-style sideband records.
//!
//! Besides the PT byte stream itself, a `perf_event_open` session delivers
//! sideband records: aux-data loss notifications and context-switch events
//! with timestamps. JPortal uses the loss records to localize missing data
//! (§4) and the switch records to segregate per-core traces into
//! per-thread traces (§6 "Multi-Cores and Multi-Threads").

use std::fmt;

use crate::ring::LossRecord;

/// Identifier of a simulated thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One sideband record, tagged with the core it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SidebandRecord {
    /// Aux data was lost (`PERF_RECORD_AUX` with the truncated flag).
    AuxLost {
        /// Core whose buffer overflowed.
        core: u32,
        /// The loss span.
        loss: LossRecord,
    },
    /// A thread was scheduled onto a core at a timestamp
    /// (`PERF_RECORD_SWITCH`).
    SwitchIn {
        /// Core the thread runs on.
        core: u32,
        /// The scheduled thread.
        thread: ThreadId,
        /// Schedule-in timestamp.
        ts: u64,
    },
    /// A thread was descheduled from a core at a timestamp.
    SwitchOut {
        /// Core the thread ran on.
        core: u32,
        /// The descheduled thread.
        thread: ThreadId,
        /// Schedule-out timestamp.
        ts: u64,
    },
}

impl SidebandRecord {
    /// The record's timestamp (loss records use their first lost ts).
    pub fn ts(&self) -> u64 {
        match self {
            SidebandRecord::AuxLost { loss, .. } => loss.first_ts,
            SidebandRecord::SwitchIn { ts, .. } | SidebandRecord::SwitchOut { ts, .. } => *ts,
        }
    }

    /// The core the record belongs to.
    pub fn core(&self) -> u32 {
        match self {
            SidebandRecord::AuxLost { core, .. }
            | SidebandRecord::SwitchIn { core, .. }
            | SidebandRecord::SwitchOut { core, .. } => *core,
        }
    }
}

/// Extracts, for one core, the time-ordered intervals during which each
/// thread ran: `(thread, start_ts, end_ts)`. An interval still open at the
/// end of the records is closed at `end_of_time`, or at its own start if
/// the records run past `end_of_time`.
///
/// The output is sorted and disjoint: `start <= end` for every interval
/// and each start is at or after the previous end, so the ends are
/// non-decreasing and a lookup may binary-search them.
pub fn schedule_intervals(
    records: &[SidebandRecord],
    core: u32,
    end_of_time: u64,
) -> Vec<(ThreadId, u64, u64)> {
    let mut out = Vec::new();
    let mut open: Option<(ThreadId, u64)> = None;
    let mut sorted: Vec<&SidebandRecord> = records.iter().filter(|r| r.core() == core).collect();
    sorted.sort_by_key(|r| r.ts());
    for r in sorted {
        match *r {
            SidebandRecord::SwitchIn { thread, ts, .. } => {
                if let Some((t, start)) = open.take() {
                    out.push((t, start, ts));
                }
                open = Some((thread, ts));
            }
            // A mismatched out-record still closes what was open.
            SidebandRecord::SwitchOut { ts, .. } => {
                if let Some((t, start)) = open.take() {
                    out.push((t, start, ts));
                }
            }
            SidebandRecord::AuxLost { .. } => {}
        }
    }
    if let Some((t, start)) = open {
        out.push((t, start, end_of_time.max(start)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sw_in(core: u32, t: u32, ts: u64) -> SidebandRecord {
        SidebandRecord::SwitchIn {
            core,
            thread: ThreadId(t),
            ts,
        }
    }

    fn sw_out(core: u32, t: u32, ts: u64) -> SidebandRecord {
        SidebandRecord::SwitchOut {
            core,
            thread: ThreadId(t),
            ts,
        }
    }

    #[test]
    fn intervals_from_alternating_switches() {
        let recs = vec![
            sw_in(0, 1, 10),
            sw_out(0, 1, 20),
            sw_in(0, 2, 20),
            sw_out(0, 2, 35),
            sw_in(0, 1, 35),
        ];
        let iv = schedule_intervals(&recs, 0, 100);
        assert_eq!(
            iv,
            vec![
                (ThreadId(1), 10, 20),
                (ThreadId(2), 20, 35),
                (ThreadId(1), 35, 100),
            ]
        );
    }

    #[test]
    fn intervals_filter_by_core() {
        let recs = vec![sw_in(0, 1, 10), sw_in(1, 2, 12), sw_out(0, 1, 20)];
        let iv0 = schedule_intervals(&recs, 0, 50);
        assert_eq!(iv0, vec![(ThreadId(1), 10, 20)]);
        let iv1 = schedule_intervals(&recs, 1, 50);
        assert_eq!(iv1, vec![(ThreadId(2), 12, 50)]);
    }

    #[test]
    fn implicit_switch_without_out_record() {
        // A switch-in while another thread is running closes the previous
        // interval at the new timestamp.
        let recs = vec![sw_in(0, 1, 5), sw_in(0, 2, 9)];
        let iv = schedule_intervals(&recs, 0, 20);
        assert_eq!(iv, vec![(ThreadId(1), 5, 9), (ThreadId(2), 9, 20)]);
    }

    #[test]
    fn record_accessors() {
        let loss = LossRecord {
            stream_offset: 0,
            first_ts: 7,
            last_ts: 9,
            lost_bytes: 10,
            lost_packets: 2,
        };
        let r = SidebandRecord::AuxLost { core: 3, loss };
        assert_eq!(r.ts(), 7);
        assert_eq!(r.core(), 3);
        assert_eq!(ThreadId(4).to_string(), "t4");
    }
}
