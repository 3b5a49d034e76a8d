//! Minimal data-parallel executor for the offline pipeline.
//!
//! A rayon-style fan-out built on `std::thread::scope`: a shared atomic
//! cursor hands out item indices to a fixed set of workers (dynamic load
//! balancing, so one slow item does not idle the other workers), and the
//! results are reassembled in item order, making the output **independent
//! of scheduling**. With `workers <= 1` (or one item) everything runs
//! inline on the caller's stack — the exact legacy sequential order, with
//! no threads spawned.
//!
//! The executor is deliberately tiny: no pools are kept alive between
//! calls, no task graph, no nested-scheduling policy. JPortal's offline
//! phases are long, coarse-grained and embarrassingly parallel (decode a
//! segment, score a candidate), so scoped threads per phase are cheap
//! relative to the work they carry.

use jportal_obs::{ContentionCounter, Gauge, MetricClass, MetricsRegistry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Telemetry handles for one fan-out call site: a queue-depth gauge
/// over the not-yet-claimed items (`par.queue.pending`) and contention
/// accounting over the shared result-collection mutex
/// (`lock.par.collect.*`). Untelemetered callers pass
/// [`ParMetrics::noop`]; the pipeline passes a registered set at its
/// fan-outs.
#[derive(Debug, Clone, Default)]
pub struct ParMetrics {
    pending: Gauge,
    collect: ContentionCounter,
}

impl ParMetrics {
    /// Handles that record nothing.
    pub fn noop() -> ParMetrics {
        ParMetrics::default()
    }

    /// Registers `par.queue.pending` and `lock.par.collect.*` (noop
    /// handles when the registry is disabled). The queue depth a scrape
    /// sees depends on claim interleaving, so the gauge is
    /// [`MetricClass::Scheduling`].
    pub fn register(reg: &MetricsRegistry) -> ParMetrics {
        ParMetrics {
            pending: reg.gauge("par.queue.pending", MetricClass::Scheduling),
            collect: ContentionCounter::register(reg, "lock.par.collect"),
        }
    }
}

/// Number of workers the machine can usefully run.
pub fn max_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a parallelism request: `None` means "all cores",
/// `Some(n)` is clamped to at least 1.
pub fn effective_workers(requested: Option<usize>) -> usize {
    match requested {
        None => max_parallelism(),
        Some(n) => n.max(1),
    }
}

/// Applies `f` to every item, fanning out over at most `workers` threads,
/// and returns the results **in item order**.
///
/// `f` receives `(index, &item)`. Output order — and therefore anything
/// the caller folds over the output — is deterministic regardless of the
/// worker count or scheduling. A panic in any worker propagates.
///
/// `metrics` tracks how many items remain unclaimed in
/// `par.queue.pending` (updated at every claim, so a scrape mid-fan-out
/// sees the live backlog) and accounts the result-collection mutex
/// through `lock.par.collect.*`.
///
/// # Examples
///
/// ```
/// use jportal_par::{par_map, ParMetrics};
///
/// let squares = par_map(4, &[1u64, 2, 3, 4], &ParMetrics::noop(), |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// // workers = 1 is the inline sequential path, same result.
/// assert_eq!(par_map(1, &[1u64, 2, 3, 4], &ParMetrics::noop(), |_, &x| x * x), squares);
/// ```
pub fn par_map<T, R, F>(workers: usize, items: &[T], metrics: &ParMetrics, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    fan_out(workers, items.len(), metrics, |i| f(i, &items[i]))
}

/// Like [`par_map`] but consumes the items, handing each worker ownership
/// of the elements it claims. Results are returned in item order.
pub fn par_map_owned<T, R, F>(workers: usize, items: Vec<T>, metrics: &ParMetrics, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    fan_out(workers, slots.len(), metrics, |i| {
        // The slot guard drops at the end of this statement, before `f`.
        let item = slots[i]
            .lock()
            .expect("slot lock is never held across f")
            .take()
            .expect("item claimed once");
        f(i, item)
    })
}

/// Like [`par_map`] over the index range `0..n` without materializing a
/// slice of inputs, and without telemetry.
pub fn par_map_range<R, F>(workers: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    fan_out(workers, n, &ParMetrics::noop(), f)
}

/// The one scheduler loop: workers claim indices `0..n` from a shared
/// cursor, buffer their results locally, hand them over under the
/// collection lock once, and the caller's thread sorts them back into
/// index order. With one worker (or at most one item) `f` runs inline,
/// in order, on the caller's thread.
fn fan_out<R, F>(workers: usize, n: usize, metrics: &ParMetrics, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.min(n).max(1);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }

    metrics.pending.set(n as u64);
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    metrics.pending.set((n - i - 1) as u64);
                    local.push((i, f(i)));
                }
                if !local.is_empty() {
                    metrics.collect.lock(&collected).extend(local);
                }
            });
        }
    });
    metrics.pending.set(0);

    // Reassemble in item order. A worker panic propagates out of the
    // scope above, so the lock can only be poisoned by a bug here.
    let mut tagged = collected.into_inner().expect("collection lock poisoned");
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), n);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_at_any_worker_count() {
        let items: Vec<usize> = (0..1000).collect();
        let seq = par_map(1, &items, &ParMetrics::noop(), |i, &x| i * 31 + x);
        for workers in [2, 3, 4, 8, 16] {
            assert_eq!(
                par_map(workers, &items, &ParMetrics::noop(), |i, &x| i * 31 + x),
                seq
            );
        }
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        let noop = ParMetrics::noop();
        assert!(par_map(8, &empty, &noop, |_, &x| x).is_empty());
        assert_eq!(par_map(8, &[7u32], &noop, |_, &x| x + 1), vec![8]);
        assert!(par_map_owned(8, empty, &noop, |_, x| x).is_empty());
        assert!(par_map_range(8, 0, |i| i).is_empty());
    }

    #[test]
    fn owned_variant_preserves_order_and_moves() {
        let items: Vec<String> = (0..100).map(|i| format!("s{i}")).collect();
        let noop = ParMetrics::noop();
        let seq = par_map_owned(1, items.clone(), &noop, |i, s| format!("{i}:{s}"));
        for workers in [2, 4, 8] {
            assert_eq!(
                par_map_owned(workers, items.clone(), &noop, |i, s| format!("{i}:{s}")),
                seq
            );
        }
    }

    #[test]
    fn range_variant_matches() {
        let a = par_map_range(4, 257, |i| i * i);
        let b: Vec<usize> = (0..257).map(|i| i * i).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn effective_workers_resolution() {
        assert_eq!(effective_workers(Some(1)), 1);
        assert_eq!(effective_workers(Some(0)), 1);
        assert_eq!(effective_workers(Some(6)), 6);
        assert!(effective_workers(None) >= 1);
    }

    #[test]
    fn metered_fanout_records_queue_and_collect_lock() {
        let reg = MetricsRegistry::new(true);
        let metrics = ParMetrics::register(&reg);
        let items: Vec<usize> = (0..512).collect();
        let out = par_map(4, &items, &metrics, |i, &x| i + x);
        assert_eq!(out, par_map(1, &items, &ParMetrics::noop(), |i, &x| i + x));
        let owned = par_map_owned(4, (0..64u64).collect(), &metrics, |_, x| x * 2);
        assert_eq!(owned, (0..64u64).map(|x| x * 2).collect::<Vec<_>>());
        let snap = reg.snapshot();
        let gauge = snap
            .gauge("par.queue.pending")
            .expect("queue gauge registered");
        assert_eq!(gauge, 0, "gauge returns to zero after the fan-out");
        let acquires = snap
            .counter("lock.par.collect.acquires")
            .expect("collect lock accounted");
        // Each worker with a non-empty local batch takes the lock once
        // per fan-out; two fan-outs at 4 workers bound it to 8.
        assert!((2..=8).contains(&acquires));
        // Both families are scheduling-dependent by registration.
        for series in [
            "gauge.par.queue.pending",
            "counter.lock.par.collect.acquires",
        ] {
            assert_eq!(snap.series_class(series), Some(MetricClass::Scheduling));
        }
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let _ = par_map(4, &items, &ParMetrics::noop(), |_, &x| {
            assert!(x < 10, "boom");
            x
        });
    }
}
