//! The live telemetry plane: periodic snapshot publication for scrapers.
//!
//! A [`TelemetryPlane`] sits between the recording side (an [`Obs`]
//! handle whose instruments the pipeline updates) and the serving side
//! (the `obs::serve` listener and SSE stream). Producers call
//! [`TelemetryPlane::tick_stage`] at pipeline stage boundaries and
//! [`TelemetryPlane::tick_sim`] from per-core ring drains; each accepted
//! tick appends one point per metric to the windowed [`SeriesStore`] and
//! publishes an immutable [`PlaneSnapshot`] behind an `Arc`.
//!
//! Consumers never touch producer state: [`TelemetryPlane::latest`] is
//! an `Arc` clone under a momentary pointer-swap lock (no allocation, no
//! metric reads), so a slow scraper can never block the pipeline — it
//! only ever sees an older snapshot.
//!
//! # Tick model
//!
//! * **Stage ticks** fire on the pipeline's main thread at fixed stage
//!   boundaries — their count and order is a property of the pipeline,
//!   not of scheduling.
//! * **Sim ticks** fire from ring drains, throttled to one accepted tick
//!   per [`TelemetryConfig::sim_tick_interval`] simulation cycles. A
//!   *regressing* sim timestamp (a replay loop restarting its clock)
//!   resets the throttle window.
//! * In deterministic mode ([`TelemetryConfig::deterministic`]) every
//!   accepted tick is stamped with its logical tick index; otherwise
//!   with wall µs since plane creation. Under sim-time with a
//!   deterministic workload the entire stored series is bit-for-bit
//!   reproducible — the contract the determinism tests pin.

use crate::metrics::MetricsSnapshot;
use crate::profile::{ContentionCounter, Profiler};
use crate::series::{Series, SeriesStore};
use crate::Obs;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Configuration of the live telemetry plane.
///
/// `Copy` so it can ride inside copyable pipeline configs. Serving is
/// not configured here — binding a listener is an explicit act
/// (`TelemetryServer::bind`), never a side effect of a config value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Points retained per metric series (oldest evicted first).
    pub series_capacity: usize,
    /// Minimum simulation-cycle distance between accepted sim ticks.
    pub sim_tick_interval: u64,
    /// Stamp ticks with their logical index instead of wall µs, making
    /// stored series reproducible across runs and worker counts.
    pub deterministic: bool,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            series_capacity: 240,
            sim_tick_interval: 10_000,
            deterministic: false,
        }
    }
}

/// One published, immutable view of the plane: the full metrics snapshot
/// plus every windowed series, as of tick `seq`.
#[derive(Debug, Clone, Default)]
pub struct PlaneSnapshot {
    /// Tick sequence number (1 = first published snapshot).
    pub seq: u64,
    /// Stamp of the publishing tick (logical index or wall µs — see the
    /// module docs).
    pub ts: u64,
    /// Point-in-time metrics at the tick.
    pub metrics: MetricsSnapshot,
    /// Windowed series, sorted by qualified name.
    pub series: Vec<Series>,
}

impl PlaneSnapshot {
    /// The series with this qualified name (`counter.*` / `gauge.*`).
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series
            .binary_search_by(|s| s.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.series[i])
    }
}

#[derive(Debug)]
struct PlaneProducer {
    store: SeriesStore,
    /// Raw sim timestamp of the last *accepted* sim tick.
    last_sim_raw: Option<u64>,
}

/// The live telemetry plane (see module docs).
#[derive(Debug)]
pub struct TelemetryPlane {
    obs: Obs,
    cfg: TelemetryConfig,
    epoch: Instant,
    producer: Mutex<PlaneProducer>,
    published: Mutex<Arc<PlaneSnapshot>>,
    changed: Condvar,
    /// Contention accounting for the producer lock (`lock.obs.plane.producer.*`).
    producer_cc: ContentionCounter,
    /// Contention accounting for the publish pointer-swap lock
    /// (`lock.obs.plane.publish.*`).
    publish_cc: ContentionCounter,
    /// Attached self-profiler, if any; a deterministic one is sampled
    /// at every accepted tick, and the serve layer exposes it under
    /// `/profile/*`.
    profiler: Mutex<Option<Arc<Profiler>>>,
}

impl TelemetryPlane {
    /// A plane recording through `obs` (which should be enabled — a
    /// disabled handle publishes empty snapshots).
    pub fn new(obs: Obs, cfg: TelemetryConfig) -> Arc<TelemetryPlane> {
        let producer_cc = ContentionCounter::register(obs.registry(), "lock.obs.plane.producer");
        let publish_cc = ContentionCounter::register(obs.registry(), "lock.obs.plane.publish");
        Arc::new(TelemetryPlane {
            obs,
            cfg,
            epoch: Instant::now(),
            producer: Mutex::new(PlaneProducer {
                store: SeriesStore::new(cfg.series_capacity),
                last_sim_raw: None,
            }),
            published: Mutex::new(Arc::new(PlaneSnapshot::default())),
            changed: Condvar::new(),
            producer_cc,
            publish_cc,
            profiler: Mutex::new(None),
        })
    }

    /// Attaches a self-profiler: deterministic profilers get sampled at
    /// every accepted tick, and `/profile/*` endpoints start serving.
    pub fn attach_profiler(&self, profiler: Arc<Profiler>) {
        *self.profiler.lock().unwrap() = Some(profiler);
    }

    /// The attached self-profiler, if any.
    pub fn profiler(&self) -> Option<Arc<Profiler>> {
        self.profiler.lock().unwrap().clone()
    }

    /// The recording handle whose instruments feed this plane.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The plane's configuration.
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    /// Ticks unconditionally — called from pipeline stage boundaries on
    /// the main thread, so count and order are deterministic.
    pub fn tick_stage(&self) {
        let mut p = self.producer_cc.lock(&self.producer);
        self.tick_locked(&mut p);
    }

    /// Offers a sim-time tick (e.g. from a per-core ring drain at
    /// simulation timestamp `ts`); accepted only when at least
    /// `sim_tick_interval` cycles have passed since the last accepted
    /// one. Returns whether the tick was accepted.
    pub fn tick_sim(&self, ts: u64) -> bool {
        let mut p = self.producer_cc.lock(&self.producer);
        let accept = match p.last_sim_raw {
            None => true,
            // A regression means a replay loop restarted its sim clock.
            Some(last) => ts < last || ts - last >= self.cfg.sim_tick_interval,
        };
        if accept {
            p.last_sim_raw = Some(ts);
            self.tick_locked(&mut p);
        }
        accept
    }

    fn tick_locked(&self, p: &mut PlaneProducer) {
        // Logical-tick-driven sampling: a deterministic profiler takes
        // one sample of the ticking thread's span stack per accepted
        // tick, making the profile a pure function of the tick stream.
        if let Some(profiler) = &*self.profiler.lock().unwrap() {
            if profiler.config().deterministic {
                profiler.sample_now();
            }
        }
        let stamp = if self.cfg.deterministic {
            p.store.ticks()
        } else {
            self.epoch.elapsed().as_micros() as u64
        };
        let metrics = self.obs.registry().snapshot();
        p.store.tick(stamp, &metrics);
        let snap = Arc::new(PlaneSnapshot {
            seq: p.store.ticks(),
            ts: stamp,
            metrics,
            series: p.store.all(),
        });
        *self.publish_cc.lock(&self.published) = snap;
        self.changed.notify_all();
    }

    /// Number of accepted ticks so far.
    pub fn ticks(&self) -> u64 {
        self.producer.lock().unwrap().store.ticks()
    }

    /// The most recently published snapshot (an `Arc` clone — the
    /// consumer-side fast path; never reads a live instrument).
    pub fn latest(&self) -> Arc<PlaneSnapshot> {
        Arc::clone(&self.publish_cc.lock(&self.published))
    }

    /// Blocks until a snapshot with `seq > after` is published or the
    /// timeout elapses; the SSE stream's wait primitive. Only the
    /// initial acquisition is contention-accounted; condvar re-wakes
    /// reacquire uninstrumented.
    pub fn wait_newer(&self, after: u64, timeout: Duration) -> Option<Arc<PlaneSnapshot>> {
        let deadline = Instant::now() + timeout;
        let mut published = self.publish_cc.lock(&self.published);
        loop {
            if published.seq > after {
                return Some(Arc::clone(&published));
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            let (guard, res) = self.changed.wait_timeout(published, left).unwrap();
            published = guard;
            if res.timed_out() && published.seq <= after {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricClass;

    fn det_plane() -> (Arc<TelemetryPlane>, crate::Counter) {
        let obs = Obs::new(true);
        let c = obs.registry().counter("work", MetricClass::Exact);
        let plane = TelemetryPlane::new(
            obs,
            TelemetryConfig {
                deterministic: true,
                sim_tick_interval: 100,
                ..TelemetryConfig::default()
            },
        );
        (plane, c)
    }

    #[test]
    fn stage_ticks_publish_snapshots() {
        let (plane, c) = det_plane();
        assert_eq!(plane.latest().seq, 0);
        c.add(5);
        plane.tick_stage();
        c.add(3);
        plane.tick_stage();
        let snap = plane.latest();
        assert_eq!(snap.seq, 2);
        assert_eq!(snap.metrics.counter("work"), Some(8));
        let s = snap.series("counter.work").unwrap();
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[1].delta, 3);
        // Deterministic stamps are logical tick indices.
        assert_eq!(s.points[0].ts, 0);
        assert_eq!(s.points[1].ts, 1);
    }

    #[test]
    fn sim_ticks_throttle_and_reset_on_regression() {
        let (plane, _c) = det_plane();
        assert!(plane.tick_sim(1000));
        assert!(!plane.tick_sim(1050), "inside the interval");
        assert!(plane.tick_sim(1100), "interval elapsed");
        // Replay loop restarted its sim clock: accepted.
        assert!(plane.tick_sim(10));
        assert_eq!(plane.ticks(), 3);
    }

    #[test]
    fn wait_newer_wakes_on_publish() {
        let (plane, _c) = det_plane();
        assert!(plane.wait_newer(0, Duration::from_millis(10)).is_none());
        let p2 = Arc::clone(&plane);
        let waiter = std::thread::spawn(move || p2.wait_newer(0, Duration::from_secs(5)));
        // Publish from this thread; the waiter must observe it.
        std::thread::sleep(Duration::from_millis(20));
        plane.tick_stage();
        let got = waiter.join().unwrap().expect("waiter saw the publish");
        assert_eq!(got.seq, 1);
    }

    #[test]
    fn consumers_see_immutable_snapshots() {
        let (plane, c) = det_plane();
        c.add(1);
        plane.tick_stage();
        let old = plane.latest();
        c.add(41);
        plane.tick_stage();
        // The earlier Arc still reads the old values.
        assert_eq!(old.metrics.counter("work"), Some(1));
        assert_eq!(plane.latest().metrics.counter("work"), Some(42));
    }
}
