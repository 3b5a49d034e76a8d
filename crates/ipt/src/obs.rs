//! Collection-side telemetry: per-core loss and drain statistics.
//!
//! The online component's loss information used to die inside this
//! crate — each [`crate::ring::RingBuffer`] tracked its drops, the
//! session folded them into sideband records, and nothing aggregate ever
//! reached the report. [`CollectionStats`] lifts it out: one summary per
//! core (exported bytes, lost bytes/packets, overflow spans, effective
//! drain rate) computed from a finished [`CollectedTraces`], ready to be
//! attached to the offline report and recorded into a metric registry.

use crate::session::CollectedTraces;
use jportal_obs::{ArgValue, MetricClass, MetricsRegistry, Obs};

/// Collection summary for one core.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreCollection {
    /// The core.
    pub core: u32,
    /// Bytes successfully exported off the core's ring buffer.
    pub exported_bytes: u64,
    /// Bytes dropped in buffer overflows.
    pub lost_bytes: u64,
    /// Whole packets dropped in buffer overflows.
    pub lost_packets: u64,
    /// Number of distinct overflow (loss) spans.
    pub loss_spans: usize,
}

impl CoreCollection {
    /// Fraction of produced bytes that were lost, in `[0, 1]`.
    pub fn loss_fraction(&self) -> f64 {
        let produced = self.exported_bytes + self.lost_bytes;
        if produced == 0 {
            0.0
        } else {
            self.lost_bytes as f64 / produced as f64
        }
    }
}

/// Aggregated collection statistics over all cores of a session — the
/// §6 overflow-regime numbers (the paper measures 22–28% loss at full
/// load) made visible on the report instead of buried in the ipt crate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CollectionStats {
    /// Per-core summaries, indexed by core id.
    pub per_core: Vec<CoreCollection>,
    /// End-of-run timestamp (cycles); bounds the effective drain rate.
    pub end_ts: u64,
}

impl CollectionStats {
    /// Summarizes a finished session's traces.
    pub fn of(traces: &CollectedTraces) -> CollectionStats {
        CollectionStats {
            per_core: traces
                .per_core
                .iter()
                .enumerate()
                .map(|(i, t)| CoreCollection {
                    core: i as u32,
                    exported_bytes: t.bytes.len() as u64,
                    lost_bytes: t.losses.iter().map(|l| l.lost_bytes).sum(),
                    lost_packets: t.losses.iter().map(|l| l.lost_packets).sum(),
                    loss_spans: t.losses.len(),
                })
                .collect(),
            end_ts: traces.end_ts,
        }
    }

    /// Total bytes exported over all cores.
    pub fn total_exported_bytes(&self) -> u64 {
        self.per_core.iter().map(|c| c.exported_bytes).sum()
    }

    /// Total bytes lost over all cores.
    pub fn total_lost_bytes(&self) -> u64 {
        self.per_core.iter().map(|c| c.lost_bytes).sum()
    }

    /// Total packets lost over all cores.
    pub fn total_lost_packets(&self) -> u64 {
        self.per_core.iter().map(|c| c.lost_packets).sum()
    }

    /// Whole-session loss fraction in `[0, 1]`.
    pub fn loss_fraction(&self) -> f64 {
        let produced = self.total_exported_bytes() + self.total_lost_bytes();
        if produced == 0 {
            0.0
        } else {
            self.total_lost_bytes() as f64 / produced as f64
        }
    }

    /// Records the summary into `registry` under `ipt.*` names: totals
    /// as counters, per-core values and drain rates as gauges. All are
    /// pure functions of the collected traces, so all are exact.
    pub fn record_into(&self, registry: &MetricsRegistry) {
        let counter = |name: &str, v: u64| registry.counter(name, MetricClass::Exact).add(v);
        let gauge = |name: String, v: u64| registry.gauge(&name, MetricClass::Exact).set(v);
        counter("ipt.lost_bytes", self.total_lost_bytes());
        counter("ipt.lost_packets", self.total_lost_packets());
        counter("ipt.exported_bytes", self.total_exported_bytes());
        counter(
            "ipt.loss_spans",
            self.per_core.iter().map(|c| c.loss_spans as u64).sum(),
        );
        for c in &self.per_core {
            let core = c.core;
            gauge(format!("ipt.core{core}.exported_bytes"), c.exported_bytes);
            gauge(format!("ipt.core{core}.lost_bytes"), c.lost_bytes);
            gauge(format!("ipt.core{core}.lost_packets"), c.lost_packets);
            // Effective exporter throughput: bytes drained per kilocycle
            // of session time (the knob JvmConfig tunes, measured).
            if let Some(rate) = (c.exported_bytes * 1000).checked_div(self.end_ts) {
                gauge(format!("ipt.core{core}.drain_bytes_per_kilocycle"), rate);
            }
        }
    }

    /// Emits one simulated-time span per overflow window (category
    /// `collect`, one lane per core), so the holes the offline pipeline
    /// must recover across are visible next to its wall-time stage spans
    /// in the Chrome trace.
    pub fn emit_overflow_spans(traces: &CollectedTraces, obs: &Obs) {
        for (i, t) in traces.per_core.iter().enumerate() {
            for loss in &t.losses {
                obs.sim_event(
                    "collect",
                    "overflow",
                    i as u32,
                    loss.first_ts,
                    (loss.last_ts - loss.first_ts).max(1),
                    vec![
                        ("core", ArgValue::Int(i as i64)),
                        ("lost_bytes", ArgValue::Int(loss.lost_bytes as i64)),
                        ("lost_packets", ArgValue::Int(loss.lost_packets as i64)),
                        ("stream_offset", ArgValue::Int(loss.stream_offset as i64)),
                    ],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{EncoderConfig, HwEvent};
    use crate::session::{CoreId, PtSession};

    fn lossy_traces() -> CollectedTraces {
        let mut s = PtSession::new(
            2,
            EncoderConfig {
                buffer_capacity: 16,
                ..EncoderConfig::default()
            },
        );
        for i in 0..20u64 {
            s.core_mut(CoreId(0)).set_time(i);
            s.core_mut(CoreId(0)).event(HwEvent::Indirect {
                at: 0x1000,
                target: 0x2000 + 0x1000 * i,
            });
        }
        s.finish(100)
    }

    #[test]
    fn stats_aggregate_per_core_losses() {
        let traces = lossy_traces();
        let stats = CollectionStats::of(&traces);
        assert_eq!(stats.per_core.len(), 2);
        assert!(stats.per_core[0].lost_bytes > 0, "core 0 must overflow");
        assert!(stats.per_core[0].lost_packets > 0);
        assert!(stats.per_core[0].loss_spans >= 1);
        assert_eq!(stats.per_core[1].lost_bytes, 0, "core 1 idle");
        assert_eq!(stats.total_lost_bytes(), stats.per_core[0].lost_bytes);
        assert!(stats.loss_fraction() > 0.0 && stats.loss_fraction() < 1.0);
        assert_eq!(stats.end_ts, 100);
    }

    #[test]
    fn stats_match_the_sum_of_loss_records() {
        let traces = lossy_traces();
        let stats = CollectionStats::of(&traces);
        let raw_bytes: u64 = traces.per_core[0].losses.iter().map(|l| l.lost_bytes).sum();
        let raw_packets: u64 = traces.per_core[0]
            .losses
            .iter()
            .map(|l| l.lost_packets)
            .sum();
        assert_eq!(stats.total_lost_bytes(), raw_bytes);
        assert_eq!(stats.total_lost_packets(), raw_packets);
        assert_eq!(
            stats.per_core[0].exported_bytes,
            traces.per_core[0].bytes.len() as u64
        );
    }

    #[test]
    fn record_into_registry_and_spans() {
        let traces = lossy_traces();
        let stats = CollectionStats::of(&traces);
        let obs = Obs::new(true);
        stats.record_into(obs.registry());
        CollectionStats::emit_overflow_spans(&traces, &obs);
        let report = obs.telemetry();
        assert_eq!(
            report.metrics.counter("ipt.lost_bytes"),
            Some(stats.total_lost_bytes())
        );
        assert_eq!(
            report.metrics.gauge("ipt.core0.lost_packets"),
            Some(stats.per_core[0].lost_packets)
        );
        assert!(report
            .metrics
            .gauge("ipt.core0.drain_bytes_per_kilocycle")
            .is_some());
        let overflows = report.spans.iter().filter(|s| s.name == "overflow").count();
        assert_eq!(overflows, stats.per_core[0].loss_spans);
        assert!(report.span_categories().contains("collect"));
    }

    #[test]
    fn clean_session_has_zero_loss() {
        let mut s = PtSession::new(1, EncoderConfig::default());
        s.core_mut(CoreId(0)).event(HwEvent::Indirect {
            at: 0x10,
            target: 0x20,
        });
        let traces = s.finish(10);
        let stats = CollectionStats::of(&traces);
        assert_eq!(stats.total_lost_bytes(), 0);
        assert_eq!(stats.loss_fraction(), 0.0);
        assert!(stats.total_exported_bytes() > 0);
    }
}
