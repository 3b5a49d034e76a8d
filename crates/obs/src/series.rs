//! Windowed time-series: fixed-capacity rings of periodic counter and
//! gauge readings, with per-tick deltas for rate readouts.
//!
//! A [`SeriesStore`] turns point-in-time [`MetricsSnapshot`]s into
//! per-metric histories: every [`SeriesStore::tick`] appends one
//! [`SeriesPoint`] per live counter/gauge, recording the absolute value
//! and the delta since the previous tick. Rings are bounded
//! (capacity-oldest-out), so a long-running pipeline's telemetry
//! footprint is fixed no matter how long it runs.
//!
//! Ticks are driven by the caller — sim-time from the workload replay
//! loop or stage boundaries — so under a deterministic tick sequence the
//! stored series are bit-for-bit reproducible, which is what the
//! determinism tests pin.
//!
//! # Examples
//!
//! ```
//! use jportal_obs::{MetricClass, MetricsRegistry, SeriesStore};
//!
//! let reg = MetricsRegistry::new(true);
//! let c = reg.counter("bytes", MetricClass::Exact);
//! let mut store = SeriesStore::new(4);
//! c.add(10);
//! store.tick(100, &reg.snapshot());
//! c.add(5);
//! store.tick(200, &reg.snapshot());
//! let s = store.series("counter.bytes").unwrap();
//! assert_eq!(s.points.len(), 2);
//! assert_eq!(s.points[1].value, 15);
//! assert_eq!(s.points[1].delta, 5);
//! assert_eq!(s.rate_per_unit(), Some(0.05)); // 5 over 100 ts units
//! ```

use crate::metrics::MetricsSnapshot;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// One periodic reading of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Tick sequence number (monotone across the store's lifetime).
    pub seq: u64,
    /// Caller-supplied timestamp of the tick (sim cycles or wall µs).
    pub ts: u64,
    /// Absolute value at the tick.
    pub value: u64,
    /// Change since the previous tick of this metric (equal to `value`
    /// on its first point; negative only for gauges that moved down).
    pub delta: i64,
}

/// The windowed history of one metric.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Series {
    /// Qualified metric name (`counter.*` / `gauge.*`).
    pub name: String,
    /// Oldest-to-newest retained points.
    pub points: Vec<SeriesPoint>,
}

impl Series {
    /// Latest point, if any.
    pub fn last(&self) -> Option<&SeriesPoint> {
        self.points.last()
    }

    /// Average delta per timestamp unit over the retained window
    /// (`None` with fewer than two points or a zero-length window).
    pub fn rate_per_unit(&self) -> Option<f64> {
        let (first, last) = (self.points.first()?, self.points.last()?);
        if last.ts <= first.ts {
            return None;
        }
        let moved = self.points[1..].iter().map(|p| p.delta).sum::<i64>();
        Some(moved as f64 / (last.ts - first.ts) as f64)
    }
}

#[derive(Debug, Default)]
struct Ring {
    points: VecDeque<SeriesPoint>,
    last_value: u64,
}

/// Bounded per-metric time-series rings fed by periodic snapshots.
///
/// Not internally synchronized: the telemetry plane owns one behind its
/// own lock and ticks it from a single site at a time.
#[derive(Debug)]
pub struct SeriesStore {
    capacity: usize,
    next_seq: u64,
    rings: BTreeMap<String, Ring>,
}

impl SeriesStore {
    /// A store retaining at most `capacity` points per metric.
    pub fn new(capacity: usize) -> SeriesStore {
        SeriesStore {
            capacity: capacity.max(1),
            next_seq: 0,
            rings: BTreeMap::new(),
        }
    }

    /// Number of ticks recorded so far.
    pub fn ticks(&self) -> u64 {
        self.next_seq
    }

    /// Appends one point per counter and gauge in `snap`, stamped `ts`,
    /// under its series name (see [`MetricsSnapshot::series_readings`]).
    pub fn tick(&mut self, ts: u64, snap: &MetricsSnapshot) {
        let seq = self.next_seq;
        self.next_seq += 1;
        for (name, reading) in snap.series_readings() {
            let value = reading.value;
            let ring = self.rings.entry(name).or_default();
            let delta = if ring.points.is_empty() {
                value as i64
            } else {
                value.wrapping_sub(ring.last_value) as i64
            };
            if ring.points.len() == self.capacity {
                ring.points.pop_front();
            }
            ring.points.push_back(SeriesPoint {
                seq,
                ts,
                value,
                delta,
            });
            ring.last_value = value;
        }
    }

    /// The retained window of this qualified metric name.
    pub fn series(&self, name: &str) -> Option<Series> {
        self.rings.get(name).map(|r| Series {
            name: name.to_string(),
            points: r.points.iter().copied().collect(),
        })
    }

    /// All qualified metric names with at least one point, sorted.
    pub fn names(&self) -> Vec<String> {
        self.rings.keys().cloned().collect()
    }

    /// Every retained series, sorted by name.
    pub fn all(&self) -> Vec<Series> {
        self.rings
            .iter()
            .map(|(n, r)| Series {
                name: n.clone(),
                points: r.points.iter().copied().collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricClass::Exact, MetricsRegistry};

    #[test]
    fn deltas_and_window_eviction() {
        let reg = MetricsRegistry::new(true);
        let c = reg.counter("ops", Exact);
        let mut store = SeriesStore::new(3);
        for i in 1..=5u64 {
            c.add(i);
            store.tick(i * 10, &reg.snapshot());
        }
        let s = store.series("counter.ops").unwrap();
        // Capacity 3: ticks 3, 4, 5 survive; values 6, 10, 15.
        assert_eq!(s.points.len(), 3);
        assert_eq!(
            s.points.iter().map(|p| p.value).collect::<Vec<_>>(),
            vec![6, 10, 15]
        );
        assert_eq!(
            s.points.iter().map(|p| p.delta).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(s.points[0].seq, 2);
        assert_eq!(store.ticks(), 5);
    }

    #[test]
    fn gauges_can_move_down() {
        let reg = MetricsRegistry::new(true);
        let g = reg.gauge("depth", Exact);
        let mut store = SeriesStore::new(8);
        g.set(10);
        store.tick(1, &reg.snapshot());
        g.set(4);
        store.tick(2, &reg.snapshot());
        let s = store.series("gauge.depth").unwrap();
        assert_eq!(s.points[1].delta, -6);
        assert_eq!(s.last().unwrap().value, 4);
    }

    #[test]
    fn rate_over_window() {
        let reg = MetricsRegistry::new(true);
        let c = reg.counter("bytes", Exact);
        let mut store = SeriesStore::new(16);
        c.add(100);
        store.tick(0, &reg.snapshot());
        c.add(300);
        store.tick(100, &reg.snapshot());
        let s = store.series("counter.bytes").unwrap();
        assert_eq!(s.rate_per_unit(), Some(3.0));
        // A single point has no rate.
        let mut one = SeriesStore::new(4);
        one.tick(5, &reg.snapshot());
        assert_eq!(one.series("counter.bytes").unwrap().rate_per_unit(), None);
    }

    #[test]
    fn names_are_sorted_and_prefixed() {
        let reg = MetricsRegistry::new(true);
        reg.counter("b", Exact).incr();
        reg.gauge("a", Exact).set(1);
        let mut store = SeriesStore::new(4);
        store.tick(1, &reg.snapshot());
        assert_eq!(store.names(), vec!["counter.b", "gauge.a"]);
        assert_eq!(store.all().len(), 2);
    }
}
