//! Scoped spans: wall-time intervals with category, arguments and
//! logical parent/child structure, recorded into per-worker buffers.
//!
//! A [`SpanGuard`] measures from creation to drop and appends one
//! [`SpanEvent`] to a thread-striped buffer shard (one short lock per
//! span *end*, never per operation inside the span). Each OS thread gets
//! a stable track id, so the Chrome exporter can draw one lane per
//! worker thread.
//!
//! Parent/child structure is logical, not thread-ancestry: a span's
//! parent defaults to the innermost open span **on the same thread**,
//! and spans created inside parallel fan-outs pass their logical parent
//! explicitly ([`SpanBuilderExt::parent`]) so the recorded tree is
//! identical whether the stage ran inline or on worker threads. Timing
//! fields are the only scheduling-dependent data in an event.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::profile::ContentionCounter;
use crate::sketch::Sketch;

/// A span argument value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArgValue {
    /// Integer argument.
    Int(i64),
    /// String argument.
    Str(String),
}

impl std::fmt::Display for ArgValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgValue::Int(v) => write!(f, "{v}"),
            ArgValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> ArgValue {
        ArgValue::Int(v)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::Int(v as i64)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::Int(v as i64)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> ArgValue {
        ArgValue::Int(v as i64)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Category (Chrome trace `cat`; e.g. `"decode"`, `"recover"`).
    pub cat: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Logical parent span name, if any.
    pub parent: Option<&'static str>,
    /// Arguments, in the order they were attached.
    pub args: Vec<(&'static str, ArgValue)>,
    /// Start, µs since the collector's epoch (simulated cycles for
    /// simulated-time events).
    pub ts_us: u64,
    /// Duration in the same unit as [`SpanEvent::ts_us`].
    pub dur_us: u64,
    /// Track: the recording OS thread's stable id (wall spans) or a
    /// caller-chosen lane (simulated spans).
    pub tid: u32,
    /// `true` for events on the simulated-time track (timestamps are
    /// simulation cycles, not wall µs).
    pub sim: bool,
}

impl SpanEvent {
    /// A stable, timing-free description of the span: category, logical
    /// parent, name and arguments. Two runs of the same workload produce
    /// the same multiset of structure strings regardless of worker
    /// count.
    pub fn structure(&self) -> String {
        let mut s = format!("{}/{}/{}", self.cat, self.parent.unwrap_or("-"), self.name);
        if !self.args.is_empty() {
            s.push('{');
            for (i, (k, v)) in self.args.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(k);
                s.push('=');
                s.push_str(&v.to_string());
            }
            s.push('}');
        }
        s
    }
}

/// Buffer shard count (power of two; threads stripe over shards).
const SPAN_SHARDS: usize = 16;

/// Stable per-OS-thread track id, assigned on first use.
fn thread_track() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static TRACK: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TRACK.with(|t| *t)
}

thread_local! {
    /// Innermost-open-span stack of the current thread (names only; the
    /// default parent of a new span).
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Collects finished spans from all threads.
#[derive(Debug)]
pub struct SpanCollector {
    shards: Vec<Mutex<Vec<SpanEvent>>>,
    epoch: Instant,
    /// Contention accounting over the shard mutexes (`lock.obs.spans.*`
    /// when wired by `Obs`; noop by default).
    contention: ContentionCounter,
}

impl SpanCollector {
    /// An empty collector; wall timestamps count from now.
    pub fn new() -> SpanCollector {
        SpanCollector {
            shards: (0..SPAN_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            epoch: Instant::now(),
            contention: ContentionCounter::noop(),
        }
    }

    /// Wire contention accounting for the shard locks.
    pub fn set_contention(&mut self, contention: ContentionCounter) {
        self.contention = contention;
    }

    /// µs elapsed since the collector's epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Appends a finished event (thread-striped).
    pub fn push(&self, event: SpanEvent) {
        let shard = thread_track() as usize % SPAN_SHARDS;
        self.contention.lock(&self.shards[shard]).push(event);
    }

    /// All recorded events, merged deterministically: sorted by the
    /// timing-free structure key first, then by timestamp — so the order
    /// of equal-structure spans is stable across worker counts except
    /// where wall time itself differs.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        // One allocation for the merged vector: size it from a first
        // pass over the shard lengths instead of growing per shard.
        let total: usize = self
            .shards
            .iter()
            .map(|s| self.contention.lock(s).len())
            .sum();
        let mut all: Vec<SpanEvent> = Vec::with_capacity(total);
        for shard in &self.shards {
            all.extend(self.contention.lock(shard).iter().cloned());
        }
        all.sort_by(|a, b| {
            a.structure()
                .cmp(&b.structure())
                .then(a.ts_us.cmp(&b.ts_us))
        });
        all
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| self.contention.lock(s).len())
            .sum()
    }

    #[cfg(test)]
    fn shard_lens(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().len())
            .collect()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for SpanCollector {
    fn default() -> SpanCollector {
        SpanCollector::new()
    }
}

/// An open span; records one [`SpanEvent`] when dropped.
///
/// Created via `Obs::span` (or the `span!` macro). A disabled `Obs`
/// produces an inert guard: creation and drop are a branch each.
pub struct SpanGuard<'c> {
    /// `None` when observability is disabled.
    collector: Option<&'c SpanCollector>,
    cat: &'static str,
    name: &'static str,
    parent: Option<&'static str>,
    args: Vec<(&'static str, ArgValue)>,
    start: Option<Instant>,
    start_us: u64,
    /// Optional quantile sketch receiving the duration in µs on drop.
    dur_sketch: Option<Sketch>,
    /// `true` when this span was pushed onto the thread's profiler
    /// [`crate::profile::ActiveStack`]; the drop must pop it back off.
    profiled: bool,
}

impl<'c> SpanGuard<'c> {
    /// An inert guard (disabled observability).
    pub fn inert() -> SpanGuard<'static> {
        SpanGuard {
            collector: None,
            cat: "",
            name: "",
            parent: None,
            args: Vec::new(),
            start: None,
            start_us: 0,
            dur_sketch: None,
            profiled: false,
        }
    }

    /// Opens a span on `collector`. The default parent is the innermost
    /// span currently open on this thread.
    pub fn open(
        collector: &'c SpanCollector,
        cat: &'static str,
        name: &'static str,
    ) -> SpanGuard<'c> {
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(name);
            parent
        });
        // Maintain the sampler-visible active stack only while a
        // profiler is live: one relaxed load otherwise.
        let profiled = crate::profile::profiling_active();
        if profiled {
            crate::profile::stack_push(cat, name);
        }
        SpanGuard {
            collector: Some(collector),
            cat,
            name,
            parent,
            args: Vec::new(),
            start: Some(Instant::now()),
            start_us: collector.now_us(),
            dur_sketch: None,
            profiled,
        }
    }

    /// Attaches an argument (builder-style).
    pub fn arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> SpanGuard<'c> {
        if self.collector.is_some() {
            self.args.push((key, value.into()));
        }
        self
    }

    /// Overrides the logical parent. Spans created inside parallel
    /// fan-outs use this so the recorded tree does not depend on which
    /// thread ran the stage.
    pub fn parent(mut self, parent: &'static str) -> SpanGuard<'c> {
        if self.collector.is_some() {
            self.parent = Some(parent);
        }
        self
    }

    /// Also records the span's duration (µs) into quantile sketch `s`
    /// on drop.
    pub fn record_sketch(mut self, s: &Sketch) -> SpanGuard<'c> {
        if self.collector.is_some() {
            self.dur_sketch = Some(s.clone());
        }
        self
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(collector) = self.collector else {
            return;
        };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            debug_assert_eq!(s.last().copied(), Some(self.name), "spans drop LIFO");
            s.pop();
        });
        if self.profiled {
            crate::profile::stack_pop();
        }
        let dur_us = self
            .start
            .map(|t| t.elapsed().as_micros() as u64)
            .unwrap_or(0);
        if let Some(s) = &self.dur_sketch {
            s.record(dur_us);
        }
        collector.push(SpanEvent {
            cat: self.cat,
            name: self.name,
            parent: self.parent,
            args: std::mem::take(&mut self.args),
            ts_us: self.start_us,
            dur_us,
            tid: thread_track(),
            sim: false,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_nesting_and_args() {
        let c = SpanCollector::new();
        {
            let _outer = SpanGuard::open(&c, "pipeline", "analyze");
            let _inner = SpanGuard::open(&c, "decode", "piece").arg("idx", 3u64);
        }
        let events = c.snapshot();
        assert_eq!(events.len(), 2);
        let inner = events.iter().find(|e| e.name == "piece").unwrap();
        assert_eq!(inner.parent, Some("analyze"));
        assert_eq!(inner.structure(), "decode/analyze/piece{idx=3}");
        let outer = events.iter().find(|e| e.name == "analyze").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(outer.structure(), "pipeline/-/analyze");
    }

    #[test]
    fn explicit_parent_overrides_thread_stack() {
        let c = SpanCollector::new();
        {
            let _s = SpanGuard::open(&c, "decode", "piece").parent("analyze");
        }
        assert_eq!(c.snapshot()[0].parent, Some("analyze"));
    }

    #[test]
    fn inert_guard_records_nothing() {
        let c = SpanCollector::new();
        {
            let _g = SpanGuard::inert().arg("k", 1u64).parent("p");
        }
        assert!(c.is_empty());
    }

    #[test]
    fn cross_thread_spans_merge_deterministically() {
        let c = SpanCollector::new();
        std::thread::scope(|s| {
            for i in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    let _g = SpanGuard::open(c, "work", "unit")
                        .arg("i", i)
                        .parent("root");
                });
            }
        });
        let structures: Vec<String> = c.snapshot().iter().map(|e| e.structure()).collect();
        assert_eq!(
            structures,
            vec![
                "work/root/unit{i=0}",
                "work/root/unit{i=1}",
                "work/root/unit{i=2}",
                "work/root/unit{i=3}",
            ]
        );
    }

    #[test]
    fn record_sketch_feeds_sketch() {
        let c = SpanCollector::new();
        let reg = crate::MetricsRegistry::new(true);
        let s = reg.sketch("span.wall_us");
        {
            let _g = SpanGuard::open(&c, "x", "y").record_sketch(&s);
        }
        assert_eq!(s.count(), 1);
    }

    /// Pushes from distinct threads must stripe across *all* 16 shards.
    /// Track ids are process-global and other tests spawn threads
    /// concurrently, so spawn until every shard residue has been hit
    /// (a bounded number of attempts: ids are assigned sequentially).
    #[test]
    fn pushes_spread_across_all_shards() {
        let c = SpanCollector::new();
        for _ in 0..64 {
            std::thread::scope(|s| {
                for _ in 0..SPAN_SHARDS {
                    s.spawn(|| {
                        let _g = SpanGuard::open(&c, "work", "unit");
                    });
                }
            });
            if c.shard_lens().iter().all(|&n| n > 0) {
                break;
            }
        }
        let lens = c.shard_lens();
        assert!(
            lens.iter().all(|&n| n > 0),
            "expected pushes in every shard, got {lens:?}"
        );
        assert_eq!(lens.iter().sum::<usize>(), c.len());
    }

    /// The collector's shard locks feed the wired contention counter on
    /// push, snapshot and len.
    #[test]
    fn collector_contention_counter_is_fed() {
        let reg = crate::MetricsRegistry::new(true);
        let mut c = SpanCollector::new();
        c.set_contention(ContentionCounter::register(&reg, "lock.obs.spans"));
        {
            let _g = SpanGuard::open(&c, "x", "y");
        }
        let _ = c.snapshot();
        let snap = reg.snapshot();
        // 1 push + 16 len locks + 16 extend locks in snapshot.
        assert_eq!(snap.counter("lock.obs.spans.acquires"), Some(33));
    }
}
