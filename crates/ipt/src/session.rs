//! Multi-core tracing sessions.
//!
//! PT records each physical core separately (§6 "Multi-Cores and
//! Multi-Threads"); a [`PtSession`] owns one encoder per core plus the
//! shared sideband stream, and hands the per-core traces and sideband
//! records to the offline pipeline at the end of a run.

use crate::encoder::{EncoderConfig, PtEncoder, PtTrace};
use crate::sideband::{SidebandRecord, ThreadId};
use jportal_obs::{ContentionCounter, Gauge, MetricClass, TelemetryPlane};
use std::sync::Arc;

/// Identifier of a simulated CPU core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CoreId(pub u32);

impl CoreId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A whole-machine tracing session: one PT encoder per core plus sideband.
///
/// # Examples
///
/// ```
/// use jportal_ipt::{CoreId, EncoderConfig, HwEvent, PtSession, ThreadId};
///
/// let mut session = PtSession::new(2, EncoderConfig::default());
/// session.record_switch_in(CoreId(0), ThreadId(1), 0);
/// session.core_mut(CoreId(0)).set_time(5);
/// session.core_mut(CoreId(0)).event(HwEvent::Indirect { at: 0x10, target: 0x20 });
/// let collected = session.finish(100);
/// assert_eq!(collected.per_core.len(), 2);
/// ```
#[derive(Debug)]
pub struct PtSession {
    cores: Vec<PtEncoder>,
    sideband: Vec<SidebandRecord>,
    /// Exporter rate: bytes drained per call to [`PtSession::drain_all`].
    drain_quantum: usize,
    /// Live telemetry: the plane, pre-registered per-core ring gauges
    /// (so the drain path never formats a metric name), and contention
    /// accounting over the plane-offer latency (`lock.ipt.drain_tick`).
    telemetry: Option<(Arc<TelemetryPlane>, Vec<CoreGauges>, ContentionCounter)>,
}

/// Per-core ring-occupancy gauges, registered once at attach time.
#[derive(Debug)]
struct CoreGauges {
    pending: Gauge,
    written: Gauge,
    lost: Gauge,
}

/// Everything collected by a finished session.
#[derive(Debug, Clone, Default)]
pub struct CollectedTraces {
    /// Per-core exported traces, indexed by core.
    pub per_core: Vec<PtTrace>,
    /// All sideband records (loss + thread switches), time-ordered.
    pub sideband: Vec<SidebandRecord>,
    /// End-of-run timestamp (closes open schedule intervals).
    pub end_ts: u64,
}

impl PtSession {
    /// Creates a session over `n_cores` cores, each with its own encoder
    /// configured from `cfg`.
    pub fn new(n_cores: usize, cfg: EncoderConfig) -> PtSession {
        PtSession {
            cores: (0..n_cores).map(|_| PtEncoder::new(cfg)).collect(),
            sideband: Vec::new(),
            drain_quantum: 512,
            telemetry: None,
        }
    }

    /// Attaches a live telemetry plane: per-core ring occupancy gauges
    /// (`ipt.core<i>.ring_{pending,written,lost}_bytes`) update on every
    /// [`PtSession::drain_core`], which also offers the plane a
    /// sim-time tick. Without a plane the drain path is untouched.
    pub fn set_telemetry(&mut self, plane: Arc<TelemetryPlane>) {
        let reg = plane.obs().registry();
        let exact = MetricClass::Exact;
        let gauges = (0..self.cores.len())
            .map(|i| CoreGauges {
                pending: reg.gauge(&format!("ipt.core{i}.ring_pending_bytes"), exact),
                written: reg.gauge(&format!("ipt.core{i}.ring_written_bytes"), exact),
                lost: reg.gauge(&format!("ipt.core{i}.ring_lost_bytes"), exact),
            })
            .collect();
        // The plane's producer mutex lives behind `tick_sim`; from the
        // drain's point of view the whole offer is the critical
        // section, so it is timed as one, not re-locked here.
        let tick_cc = ContentionCounter::register(reg, "lock.ipt.drain_tick");
        self.telemetry = Some((plane, gauges, tick_cc));
    }

    /// Drains up to `n` bytes from one core's ring (the per-core version
    /// of [`PtSession::drain_all`]). With telemetry attached, updates
    /// that core's ring gauges and offers the plane a sim tick stamped
    /// `now` (simulation cycles); the plane throttles acceptance, so
    /// calling this every drain quantum is fine. Returns bytes drained.
    ///
    /// # Panics
    ///
    /// Panics if the core id is out of range.
    pub fn drain_core(&mut self, core: CoreId, n: usize, now: u64) -> usize {
        let drained = self.cores[core.index()].drain(n);
        if let Some((plane, gauges, tick_cc)) = &self.telemetry {
            let s = self.cores[core.index()].ring_sample();
            let g = &gauges[core.index()];
            g.pending.set(s.pending as u64);
            g.written.set(s.total_written);
            g.lost.set(s.total_lost_bytes);
            tick_cc.timed(|| plane.tick_sim(now));
        }
        drained
    }

    /// Sets how many bytes each core's exporter drains per
    /// [`PtSession::drain_all`] call.
    pub fn set_drain_quantum(&mut self, bytes: usize) {
        self.drain_quantum = bytes;
    }

    /// Mutable access to a core's encoder.
    ///
    /// # Panics
    ///
    /// Panics if the core id is out of range.
    pub fn core_mut(&mut self, core: CoreId) -> &mut PtEncoder {
        &mut self.cores[core.index()]
    }

    /// Records a thread being scheduled onto a core.
    pub fn record_switch_in(&mut self, core: CoreId, thread: ThreadId, ts: u64) {
        self.sideband.push(SidebandRecord::SwitchIn {
            core: core.0,
            thread,
            ts,
        });
    }

    /// Records a thread being descheduled from a core.
    pub fn record_switch_out(&mut self, core: CoreId, thread: ThreadId, ts: u64) {
        self.sideband.push(SidebandRecord::SwitchOut {
            core: core.0,
            thread,
            ts,
        });
    }

    /// Runs every core's exporter for one quantum (the periodic dump of
    /// trace buffers to files, §3).
    pub fn drain_all(&mut self) {
        for enc in &mut self.cores {
            enc.drain(self.drain_quantum);
        }
    }

    /// Finishes the session: flushes all encoders, converts loss records
    /// into sideband records, and returns everything the offline pipeline
    /// needs.
    pub fn finish(self, end_ts: u64) -> CollectedTraces {
        let mut sideband = self.sideband;
        let mut per_core = Vec::with_capacity(self.cores.len());
        for (i, enc) in self.cores.into_iter().enumerate() {
            let trace = enc.finish();
            for &loss in &trace.losses {
                sideband.push(SidebandRecord::AuxLost {
                    core: i as u32,
                    loss,
                });
            }
            per_core.push(trace);
        }
        sideband.sort_by_key(SidebandRecord::ts);
        CollectedTraces {
            per_core,
            sideband,
            end_ts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::HwEvent;
    use crate::sideband::schedule_intervals;

    #[test]
    fn per_core_traces_are_independent() {
        let mut s = PtSession::new(2, EncoderConfig::default());
        s.core_mut(CoreId(0)).event(HwEvent::Indirect {
            at: 0x10,
            target: 0x1000,
        });
        s.core_mut(CoreId(1)).event(HwEvent::Indirect {
            at: 0x10,
            target: 0x2000,
        });
        let c = s.finish(10);
        assert_eq!(c.per_core.len(), 2);
        assert!(!c.per_core[0].bytes.is_empty());
        assert!(!c.per_core[1].bytes.is_empty());
        assert_ne!(c.per_core[0].bytes, c.per_core[1].bytes);
    }

    #[test]
    fn sideband_merges_switches_and_losses_in_time_order() {
        let mut s = PtSession::new(
            1,
            EncoderConfig {
                buffer_capacity: 16,
                ..EncoderConfig::default()
            },
        );
        s.record_switch_in(CoreId(0), ThreadId(7), 1);
        // Overflow the tiny buffer to force a loss record.
        for i in 0..10u64 {
            s.core_mut(CoreId(0)).set_time(10 + i);
            s.core_mut(CoreId(0)).event(HwEvent::Indirect {
                at: 0x1000,
                target: 0x2000 + 0x1000 * i,
            });
        }
        s.record_switch_out(CoreId(0), ThreadId(7), 100);
        let c = s.finish(100);
        assert!(c
            .sideband
            .iter()
            .any(|r| matches!(r, SidebandRecord::AuxLost { .. })));
        let ts: Vec<u64> = c.sideband.iter().map(SidebandRecord::ts).collect();
        let mut sorted = ts.clone();
        sorted.sort();
        assert_eq!(ts, sorted);
        let intervals = schedule_intervals(&c.sideband, 0, 100);
        assert_eq!(intervals, vec![(ThreadId(7), 1, 100)]);
    }

    #[test]
    fn drain_all_prevents_loss() {
        let cfg = EncoderConfig {
            buffer_capacity: 64,
            ..EncoderConfig::default()
        };
        let mut s = PtSession::new(1, cfg);
        s.set_drain_quantum(1 << 12);
        for i in 0..100u64 {
            s.core_mut(CoreId(0)).set_time(i);
            s.core_mut(CoreId(0)).event(HwEvent::Indirect {
                at: 0x1000,
                target: 0x2000 + 0x10 * i,
            });
            s.drain_all();
        }
        let c = s.finish(100);
        assert!(c.per_core[0].losses.is_empty());
    }
}
