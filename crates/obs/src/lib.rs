//! `jportal-obs` — zero-dependency telemetry for the JPortal pipeline.
//!
//! JPortal's business is tracing *other* programs; this crate lets the
//! pipeline trace itself. Three pieces, matching the in-tree
//! shim philosophy (no external dependencies anywhere):
//!
//! * a [`MetricsRegistry`] of sharded atomic counters, gauges and
//!   quantile sketches, cheap enough to stay enabled in production.
//!   Every counter and gauge carries a [`MetricClass`] — `Exact`
//!   (identical at any worker count), `Scheduling` or `Wall` — so the
//!   determinism contract is selected by class, never by name;
//! * scoped spans ([`span!`] / [`Obs::span`]) recording wall time and
//!   logical parent/child structure into per-worker buffers that merge
//!   deterministically;
//! * exporters ([`TelemetryReport`]): Chrome trace-event JSON (loadable
//!   in `chrome://tracing` / Perfetto), a flat JSON metrics snapshot and
//!   a human-readable summary table.
//!
//! Everything hangs off an [`Obs`] handle (a cheap `Arc` clone). A
//! disabled handle's instruments are no-ops whose fast path is a single
//! branch — no allocation, no atomics — so call sites stay
//! unconditional even on hot paths.
//!
//! # Examples
//!
//! ```
//! use jportal_obs::{span, MetricClass, Obs};
//!
//! let obs = Obs::new(true);
//! let segments = obs.registry().counter("pipeline.segments", MetricClass::Exact);
//! {
//!     let _s = span!(obs, "decode", "segment", core = 0u32);
//!     segments.incr();
//! }
//! let report = obs.telemetry();
//! assert_eq!(report.metrics.counter("pipeline.segments"), Some(1));
//! assert!(report.chrome_trace_json().contains("\"cat\":\"decode\""));
//! ```

pub mod export;
pub mod flame;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod plane;
pub mod profile;
pub mod series;
pub mod serve;
pub mod sketch;
pub mod span;

pub use export::{
    metrics_snapshot_json, metrics_snapshot_json_with_profile, prometheus_text, TelemetryReport,
};
pub use flame::flame_svg;
pub use journal::{
    CandidateOutcome, Journal, JournalEvent, JournalKey, JournalRecord, JournalRecorder,
    JournalSnapshot,
};
pub use metrics::{Counter, Gauge, MetricClass, MetricsRegistry, MetricsSnapshot, Reading};
pub use plane::{PlaneSnapshot, TelemetryConfig, TelemetryPlane};
pub use profile::{ContentionCounter, ProfileConfig, ProfileSnapshot, Profiler, PROFILE_MAX_DEPTH};
pub use series::{Series, SeriesPoint, SeriesStore};
pub use serve::{
    http_get, parse_request, sse_frame, sse_keepalive_frame, HttpResponse, Request, TelemetryServer,
};
pub use sketch::{
    Sketch, SketchSnapshot, SKETCH_BUCKETS, SKETCH_LINEAR_MAX, SKETCH_MAX_RELATIVE_ERROR,
    SKETCH_SUBBUCKETS,
};
pub use span::{ArgValue, SpanCollector, SpanEvent, SpanGuard};

use std::sync::Arc;

#[derive(Debug)]
struct ObsInner {
    enabled: bool,
    registry: MetricsRegistry,
    spans: SpanCollector,
    journal: Journal,
}

/// The telemetry handle: a registry plus a span collector behind one
/// cheaply-cloneable `Arc`.
#[derive(Debug, Clone)]
pub struct Obs(Arc<ObsInner>);

impl Obs {
    /// A new handle; `enabled = false` makes every instrument a no-op.
    pub fn new(enabled: bool) -> Obs {
        Obs::with_journal_capacity(enabled, journal::DEFAULT_JOURNAL_CAPACITY)
    }

    /// A new handle with an explicit decision-journal ring capacity
    /// (tests exercise the drop counter with tiny rings).
    pub fn with_journal_capacity(enabled: bool, capacity: usize) -> Obs {
        let registry = MetricsRegistry::new(enabled);
        let mut spans = SpanCollector::new();
        // Disabled registries hand out noop handles, so this wiring is
        // free in dark mode.
        spans.set_contention(ContentionCounter::register(&registry, "lock.obs.spans"));
        Obs(Arc::new(ObsInner {
            enabled,
            registry,
            spans,
            journal: Journal::with_capacity(capacity),
        }))
    }

    /// A handle that records nothing.
    pub fn disabled() -> Obs {
        Obs::new(false)
    }

    /// Whether instruments record anything.
    pub fn is_enabled(&self) -> bool {
        self.0.enabled
    }

    /// The metric registry (hands out no-op instruments when disabled).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.0.registry
    }

    /// Opens a wall-time span; the returned guard records on drop.
    /// Inert (branch-only) when disabled.
    pub fn span(&self, cat: &'static str, name: &'static str) -> SpanGuard<'_> {
        if self.0.enabled {
            SpanGuard::open(&self.0.spans, cat, name)
        } else {
            SpanGuard::inert()
        }
    }

    /// Records a complete event on the **simulated-time** track (`ts` and
    /// `dur` are simulation cycles, `lane` picks the row — e.g. the core
    /// id). Used for telemetry reconstructed from collected data, like PT
    /// overflow windows.
    pub fn sim_event(
        &self,
        cat: &'static str,
        name: &'static str,
        lane: u32,
        ts: u64,
        dur: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.0.enabled {
            return;
        }
        self.0.spans.push(SpanEvent {
            cat,
            name,
            parent: None,
            args,
            ts_us: ts,
            dur_us: dur,
            tid: lane,
            sim: true,
        });
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.0.spans.len()
    }

    /// The decision journal (flight recorder).
    pub fn journal(&self) -> &Journal {
        &self.0.journal
    }

    /// A journal recorder bound to `thread`: the single-producer handle
    /// reconstruction stages emit decisions through. Inert (one branch
    /// per emit) when the handle is disabled.
    pub fn journal_recorder(&self, thread: u32) -> JournalRecorder<'_> {
        Journal::recorder(self.0.enabled.then_some(&self.0.journal), thread)
    }

    /// Deterministic snapshot of the decision journal.
    pub fn journal_snapshot(&self) -> JournalSnapshot {
        self.0.journal.snapshot()
    }

    /// Snapshot of everything recorded so far: metrics plus
    /// deterministically-merged spans, ready for export.
    pub fn telemetry(&self) -> TelemetryReport {
        TelemetryReport {
            metrics: self.0.registry.snapshot(),
            spans: self.0.spans.snapshot(),
        }
    }
}

impl Default for Obs {
    /// Enabled by default — the instruments are cheap enough to stay on.
    fn default() -> Obs {
        Obs::new(true)
    }
}

/// Opens a scoped span on an [`Obs`] handle with optional `key = value`
/// arguments. Expands to a guard expression; bind it (`let _s = ...`) so
/// the span covers the intended scope.
///
/// ```
/// use jportal_obs::{span, Obs};
/// let obs = Obs::new(true);
/// let _s = span!(obs, "recover", "fill_hole", thread = 0u32, hole = 3usize);
/// ```
#[macro_export]
macro_rules! span {
    ($obs:expr, $cat:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut __span = $obs.span($cat, $name);
        $(__span = __span.arg(stringify!($k), $v);)*
        __span
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use MetricClass::Exact;

    #[test]
    fn enabled_handle_records_spans_and_metrics() {
        let obs = Obs::new(true);
        obs.registry().counter("c", Exact).add(2);
        {
            let _s = span!(obs, "decode", "piece", idx = 1usize);
        }
        obs.sim_event(
            "collect",
            "overflow",
            0,
            100,
            20,
            vec![("core", 0u32.into())],
        );
        let report = obs.telemetry();
        assert_eq!(report.metrics.counter("c"), Some(2));
        assert_eq!(report.spans.len(), 2);
        let cats = report.span_categories();
        assert!(cats.contains("decode") && cats.contains("collect"));
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        obs.registry().counter("c", Exact).add(2);
        {
            let _s = span!(obs, "decode", "piece", idx = 1usize);
        }
        obs.sim_event("collect", "overflow", 0, 100, 20, Vec::new());
        let report = obs.telemetry();
        assert!(report.metrics.counters.is_empty());
        assert!(report.spans.is_empty());
        assert_eq!(obs.span_count(), 0);
        let mut rec = obs.journal_recorder(0);
        rec.emit(JournalEvent::HoleUnfilled { hole: 1 });
        assert!(obs.journal().is_empty());
    }

    #[test]
    fn journal_recorder_feeds_the_shared_journal() {
        let obs = Obs::new(true);
        let mut rec = obs.journal_recorder(3);
        rec.emit(JournalEvent::HoleUnfilled { hole: 1 });
        let snap = obs.journal_snapshot();
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.records[0].key.thread, 3);
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::new(true);
        let other = obs.clone();
        other.registry().counter("shared", Exact).incr();
        assert_eq!(obs.telemetry().metrics.counter("shared"), Some(1));
    }
}
