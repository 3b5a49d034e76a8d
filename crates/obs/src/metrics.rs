//! The metric registry: sharded atomic counters, set/max gauges and
//! quantile sketches.
//!
//! Handles are cheap `Arc` clones registered by name; updating one is a
//! relaxed atomic on a thread-striped shard (counters) or a single atomic
//! (gauges, sketch buckets), so instruments can stay on in production.
//! A registry built disabled hands out **no-op handles**: the update fast
//! path is then a single branch on an `Option` discriminant — no
//! allocation, no atomic access — which is what lets the pipeline keep
//! `record` calls unconditionally inline on hot paths.
//!
//! Every counter and gauge is registered with its [`MetricClass`], and
//! snapshots carry it: the determinism contract (identical values at any
//! worker count) covers exactly the [`MetricClass::Exact`] metrics, so
//! tests and consumers select them by class, never by name. Sketches
//! record µs durations and are [`MetricClass::Wall`] by construction.
//!
//! Snapshots iterate a `BTreeMap`, so exported metrics are always sorted
//! by name regardless of registration or update order.

use crate::sketch::{Sketch, SketchCells, SketchSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Shard count for counters: a power of two small enough to keep
/// snapshots cheap but large enough that concurrent workers rarely
/// collide on a cache line.
pub const COUNTER_SHARDS: usize = 8;

/// One cache line per shard so two workers bumping the same counter from
/// different threads never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedAtomic(AtomicU64);

/// Backing cells of one counter.
#[derive(Default)]
pub(crate) struct CounterCells {
    shards: [PaddedAtomic; COUNTER_SHARDS],
}

impl CounterCells {
    fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Monotonically-assigned per-thread shard index (round-robin over
/// threads, fixed for a thread's lifetime).
///
/// Const-initialized thread-local (no lazy-init flag or destructor on
/// the access path — this sits under every counter update on the hot
/// matcher loop) with the slot assigned on first use.
fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
            s.set(v);
            v
        }
    })
}

/// A monotonically-increasing counter.
///
/// Cloning shares the cells. The default value is a no-op handle.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<CounterCells>>);

impl Counter {
    /// A handle that ignores every update (what disabled registries hand
    /// out). The update path is a branch on the `Option` — nothing else.
    pub fn noop() -> Counter {
        Counter(None)
    }

    /// A live counter not attached to any registry (for components that
    /// must count even without a configured registry, e.g. the abstract
    /// DFA's stats view when constructed standalone).
    pub fn detached() -> Counter {
        Counter(Some(Arc::new(CounterCells::default())))
    }

    /// Whether updates actually land anywhere.
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cells) = &self.0 {
            cells.shards[thread_shard()]
                .0
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total over all shards (0 for no-op handles).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map(|c| c.sum()).unwrap_or(0)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("live", &self.is_live())
            .field("value", &self.value())
            .finish()
    }
}

/// A last-value / high-water gauge.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A handle that ignores every update.
    pub fn noop() -> Gauge {
        Gauge(None)
    }

    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if it is higher (high-water-mark
    /// semantics).
    #[inline]
    pub fn set_max(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for no-op handles).
    pub fn value(&self) -> u64 {
        self.0
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gauge")
            .field("value", &self.value())
            .finish()
    }
}

/// Determinism class of a counter or gauge, fixed at registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MetricClass {
    /// A pure function of the input: identical at every worker count
    /// (summed after the deterministic joins, or recorded on the
    /// collection side before the offline phases run).
    Exact,
    /// Depends on how workers interleave: lock acquisitions and
    /// contention, cache hit/miss splits, queue depth at a scrape,
    /// high-water marks of per-worker scratch.
    Scheduling,
    /// Measures wall time. Every sketch is `Wall`.
    Wall,
}

/// One counter or gauge in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reading {
    /// Metric name.
    pub name: String,
    /// The class the metric was registered with.
    pub class: MetricClass,
    /// Counter total or gauge value.
    pub value: u64,
}

/// Binary search of a name-sorted reading list.
fn find<'s>(readings: &'s [Reading], name: &str) -> Option<&'s Reading> {
    readings
        .binary_search_by(|r| r.name.as_str().cmp(name))
        .ok()
        .map(|i| &readings[i])
}

/// Point-in-time reading of a whole registry, sorted by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<Reading>,
    /// Gauges, sorted by name.
    pub gauges: Vec<Reading>,
    /// Quantile sketches, sorted by name (all [`MetricClass::Wall`]).
    pub sketches: Vec<SketchSnapshot>,
}

impl MetricsSnapshot {
    /// The counter with this exact name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        find(&self.counters, name).map(|r| r.value)
    }

    /// The gauge with this exact name, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        find(&self.gauges, name).map(|r| r.value)
    }

    /// The sketch with this exact name, if present.
    pub fn sketch(&self, name: &str) -> Option<&SketchSnapshot> {
        self.sketches
            .binary_search_by(|s| s.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.sketches[i])
    }

    /// Every counter and gauge under its series name: `counter.<name>`
    /// or `gauge.<name>`, so a counter and a gauge sharing a base name
    /// never collide.
    pub fn series_readings(&self) -> impl Iterator<Item = (String, &Reading)> {
        let counters = self
            .counters
            .iter()
            .map(|r| (format!("counter.{}", r.name), r));
        counters.chain(self.gauges.iter().map(|r| (format!("gauge.{}", r.name), r)))
    }

    /// The class of the counter or gauge behind a series name
    /// (`counter.<name>` / `gauge.<name>`).
    pub fn series_class(&self, series: &str) -> Option<MetricClass> {
        let found = match series.strip_prefix("counter.") {
            Some(name) => find(&self.counters, name),
            None => find(&self.gauges, series.strip_prefix("gauge.")?),
        };
        found.map(|r| r.class)
    }
}

/// Registered cells keyed by name, each with its class.
type Classified<T> = BTreeMap<String, (MetricClass, Arc<T>)>;

#[derive(Default)]
struct RegistryInner {
    counters: Classified<CounterCells>,
    gauges: Classified<AtomicU64>,
    sketches: BTreeMap<String, Arc<SketchCells>>,
}

/// Readings of a classified map, sorted by name.
fn readings<T>(map: &Classified<T>, read: impl Fn(&T) -> u64) -> Vec<Reading> {
    map.iter()
        .map(|(name, (class, cells))| Reading {
            name: name.clone(),
            class: *class,
            value: read(cells),
        })
        .collect()
}

/// A named collection of instruments.
///
/// Registration (`counter`/`gauge`/`sketch`) takes a short lock and is
/// get-or-create by name; callers hold the returned handles, so hot
/// paths never touch the registry itself. Counters and gauges name
/// their [`MetricClass`]; asking for an existing name under a different
/// class panics. A registry constructed disabled registers nothing and
/// hands out no-op handles.
///
/// # Examples
///
/// ```
/// use jportal_obs::{MetricClass, MetricsRegistry};
///
/// let reg = MetricsRegistry::new(true);
/// let c = reg.counter("pipeline.segments", MetricClass::Exact);
/// c.add(3);
/// assert_eq!(reg.snapshot().counter("pipeline.segments"), Some(3));
///
/// let off = MetricsRegistry::new(false);
/// off.counter("ignored", MetricClass::Exact).add(1);
/// assert!(off.snapshot().counters.is_empty());
/// ```
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: bool,
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for RegistryInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryInner")
            .field("counters", &self.counters.len())
            .field("gauges", &self.gauges.len())
            .field("sketches", &self.sketches.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates a registry; `enabled = false` makes every handle a no-op.
    pub fn new(enabled: bool) -> MetricsRegistry {
        MetricsRegistry {
            enabled,
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    /// Whether instruments record anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The registration lock. Class conflicts panic only after it is
    /// released, so poisoning means a bug inside the registry itself.
    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().expect("metrics registry lock poisoned")
    }

    /// Get-or-create `name` in the map `pick` selects, panicking if it
    /// exists under a class other than `class`.
    fn classified<T: Default>(
        &self,
        pick: impl FnOnce(&mut RegistryInner) -> &mut Classified<T>,
        kind: &str,
        name: &str,
        class: MetricClass,
    ) -> Arc<T> {
        let (have, cells) = {
            let mut inner = self.lock();
            let (have, cells) = pick(&mut inner)
                .entry(name.to_string())
                .or_insert_with(|| (class, Arc::default()));
            (*have, Arc::clone(cells))
        };
        assert_eq!(
            have, class,
            "{kind} {name:?} is registered as {have:?}, requested as {class:?}"
        );
        cells
    }

    /// Get-or-create the counter with this name and class.
    ///
    /// # Panics
    ///
    /// If `name` is already a counter of another class.
    pub fn counter(&self, name: &str, class: MetricClass) -> Counter {
        if !self.enabled {
            return Counter::noop();
        }
        Counter(Some(self.classified(
            |i| &mut i.counters,
            "counter",
            name,
            class,
        )))
    }

    /// Get-or-create the gauge with this name and class.
    ///
    /// # Panics
    ///
    /// If `name` is already a gauge of another class.
    pub fn gauge(&self, name: &str, class: MetricClass) -> Gauge {
        if !self.enabled {
            return Gauge::noop();
        }
        Gauge(Some(self.classified(
            |i| &mut i.gauges,
            "gauge",
            name,
            class,
        )))
    }

    /// Get-or-create the quantile sketch with this name.
    pub fn sketch(&self, name: &str) -> Sketch {
        if !self.enabled {
            return Sketch::noop();
        }
        let mut inner = self.lock();
        let cells = inner
            .sketches
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(SketchCells::default()));
        Sketch(Some(Arc::clone(cells)))
    }

    /// Reads every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: readings(&inner.counters, CounterCells::sum),
            gauges: readings(&inner.gauges, |g| g.load(Ordering::Relaxed)),
            sketches: inner
                .sketches
                .iter()
                .map(|(n, s)| Sketch::snapshot_named(s, n))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use MetricClass::{Exact, Scheduling, Wall};

    #[test]
    fn counter_sums_across_threads_and_shards() {
        let reg = MetricsRegistry::new(true);
        let c = reg.counter("x", Exact);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
        assert_eq!(reg.snapshot().counter("x"), Some(8000));
    }

    #[test]
    fn counter_get_or_create_shares_cells() {
        let reg = MetricsRegistry::new(true);
        reg.counter("shared", Exact).add(2);
        reg.counter("shared", Exact).add(3);
        assert_eq!(reg.snapshot().counter("shared"), Some(5));
    }

    #[test]
    fn disabled_registry_is_a_noop() {
        let reg = MetricsRegistry::new(false);
        let c = reg.counter("c", Exact);
        let g = reg.gauge("g", Exact);
        let s = reg.sketch("s");
        c.add(10);
        g.set(10);
        s.record(10);
        assert!(!c.is_live());
        assert_eq!(c.value(), 0);
        assert_eq!(reg.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn gauge_set_and_set_max() {
        let reg = MetricsRegistry::new(true);
        let g = reg.gauge("hw", Exact);
        g.set_max(5);
        g.set_max(3);
        assert_eq!(g.value(), 5);
        g.set(1);
        assert_eq!(g.value(), 1);
    }

    #[test]
    fn snapshot_reports_each_metric_under_its_registered_class() {
        let reg = MetricsRegistry::new(true);
        reg.counter("work.items", Exact).add(4);
        reg.counter("lock.site.acquires", Scheduling).incr();
        reg.counter("timer.ticks", Wall).incr();
        reg.gauge("queue.depth", Scheduling).set(2);
        reg.gauge("ring.bytes", Exact).set(9);
        // A gauge may share a counter's base name under its own class.
        reg.gauge("work.items", Scheduling).set(1);
        let snap = reg.snapshot();
        let classes = |rs: &[Reading]| -> Vec<(String, MetricClass)> {
            rs.iter().map(|r| (r.name.clone(), r.class)).collect()
        };
        assert_eq!(
            classes(&snap.counters),
            [
                ("lock.site.acquires".to_string(), Scheduling),
                ("timer.ticks".to_string(), Wall),
                ("work.items".to_string(), Exact),
            ]
        );
        assert_eq!(
            classes(&snap.gauges),
            [
                ("queue.depth".to_string(), Scheduling),
                ("ring.bytes".to_string(), Exact),
                ("work.items".to_string(), Scheduling),
            ]
        );
        assert_eq!(snap.series_class("counter.work.items"), Some(Exact));
        assert_eq!(snap.series_class("gauge.work.items"), Some(Scheduling));
        assert_eq!(
            snap.series_class("counter.lock.site.acquires"),
            Some(Scheduling)
        );
        assert_eq!(snap.series_class("work.items"), None);
        assert_eq!(snap.series_class("gauge.missing"), None);
        let series: Vec<String> = snap.series_readings().map(|(n, _)| n).collect();
        assert_eq!(series[0], "counter.lock.site.acquires");
        assert_eq!(series[5], "gauge.work.items");
    }

    #[test]
    #[should_panic(expected = "counter \"dup\" is registered as Exact, requested as Scheduling")]
    fn reregistering_a_counter_under_another_class_panics() {
        let reg = MetricsRegistry::new(true);
        reg.counter("dup", Exact);
        reg.counter("dup", Scheduling);
    }

    #[test]
    #[should_panic(expected = "gauge \"dup\" is registered as Scheduling, requested as Exact")]
    fn reregistering_a_gauge_under_another_class_panics() {
        let reg = MetricsRegistry::new(true);
        reg.gauge("dup", Scheduling);
        reg.gauge("dup", Exact);
    }

    #[test]
    fn class_conflict_leaves_the_registry_usable() {
        let reg = MetricsRegistry::new(true);
        reg.counter("dup", Exact).incr();
        let conflict =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.counter("dup", Wall)));
        assert!(conflict.is_err());
        // The panic fires after the lock is released: nothing poisoned,
        // and the original registration is unchanged.
        reg.counter("dup", Exact).incr();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("dup"), Some(2));
        assert_eq!(snap.series_class("counter.dup"), Some(Exact));
    }

    #[test]
    fn registry_sketches_snapshot_sorted() {
        let reg = MetricsRegistry::new(true);
        reg.sketch("z.lat").record(10);
        reg.sketch("a.lat").record(20);
        reg.sketch("a.lat").record(30);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.sketches.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a.lat", "z.lat"]);
        assert_eq!(snap.sketch("a.lat").unwrap().count, 2);
        assert_eq!(snap.sketch("missing"), None);
        let off = MetricsRegistry::new(false);
        off.sketch("ignored").record(1);
        assert!(off.snapshot().sketches.is_empty());
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = MetricsRegistry::new(true);
        for name in ["zeta", "alpha", "mid"] {
            reg.counter(name, Exact).incr();
        }
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        assert_eq!(snap.counter("alpha"), Some(1));
        assert_eq!(snap.counter("missing"), None);
    }
}
