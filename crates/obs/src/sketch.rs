//! Streaming quantile sketches: log-linear bucketed, mergeable, with a
//! bounded relative error on every reported quantile.
//!
//! A p99 read off a plain power-of-two bucket bound can overestimate by
//! up to 2×. A [`Sketch`] keeps that update cost (one relaxed atomic add
//! into a fixed array, no allocation) while bounding the quantile error:
//!
//! * values below [`SKETCH_LINEAR_MAX`] get **one bucket each** (exact);
//! * larger values are bucketed **log-linearly**: each power-of-two
//!   octave is split into [`SKETCH_SUBBUCKETS`] equal sub-buckets keyed
//!   by the top mantissa bits, so reporting a bucket's midpoint is off
//!   by at most half a sub-bucket width —
//!   [`SKETCH_MAX_RELATIVE_ERROR`] = 1/32 ≈ 3.1% of the true value.
//!
//! Snapshots are plain bucket-count vectors, so per-worker shards
//! [`SketchSnapshot::merge`] exactly (bucket-wise addition — associative
//! and commutative by construction), which is what lets a fan-out record
//! locally and publish one mergeable summary.
//!
//! Every sketch in the pipeline records a µs duration, so sketches take
//! no [`crate::MetricClass`]: they are [`crate::MetricClass::Wall`] by
//! construction and never part of the determinism contract.
//!
//! # Examples
//!
//! ```
//! use jportal_obs::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new(true);
//! let s = reg.sketch("decode.wall_us");
//! for v in [120u64, 450, 470, 500, 9000] {
//!     s.record(v);
//! }
//! let snap = reg.snapshot();
//! let sk = snap.sketch("decode.wall_us").unwrap();
//! assert_eq!(sk.count, 5);
//! assert_eq!(sk.quantile(1.0), 9000); // max is tracked exactly
//! let p50 = sk.quantile(0.5) as f64;
//! assert!((p50 - 470.0).abs() / 470.0 <= jportal_obs::SKETCH_MAX_RELATIVE_ERROR);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Values below this are bucketed exactly (one bucket per value).
pub const SKETCH_LINEAR_MAX: u64 = 128;

/// Sub-buckets per power-of-two octave in the logarithmic region.
pub const SKETCH_SUBBUCKETS: usize = 16;

/// Worst-case relative error of a reported quantile for values in the
/// logarithmic region (values below [`SKETCH_LINEAR_MAX`] are exact):
/// the reported midpoint and the true value share a sub-bucket of width
/// `2^(e-4)`, and the true value is at least `2^e`, so the error is
/// under `2^(e-5) / 2^e = 1/32`.
pub const SKETCH_MAX_RELATIVE_ERROR: f64 = 1.0 / 32.0;

/// First octave of the logarithmic region (`log2(SKETCH_LINEAR_MAX)`).
const FIRST_LOG_OCTAVE: usize = 7;

/// Total bucket count: one per value below [`SKETCH_LINEAR_MAX`], then
/// [`SKETCH_SUBBUCKETS`] per octave for exponents 7..=63.
pub const SKETCH_BUCKETS: usize =
    SKETCH_LINEAR_MAX as usize + (64 - FIRST_LOG_OCTAVE) * SKETCH_SUBBUCKETS;

/// Bucket index of a value.
#[inline]
pub fn sketch_bucket(v: u64) -> usize {
    if v < SKETCH_LINEAR_MAX {
        v as usize
    } else {
        let e = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (e - 4)) & 0xF) as usize;
        SKETCH_LINEAR_MAX as usize + (e - FIRST_LOG_OCTAVE) * SKETCH_SUBBUCKETS + sub
    }
}

/// Inclusive `(low, high)` bounds of a bucket.
pub fn sketch_bucket_bounds(index: usize) -> (u64, u64) {
    if index < SKETCH_LINEAR_MAX as usize {
        (index as u64, index as u64)
    } else {
        let rel = index - SKETCH_LINEAR_MAX as usize;
        let e = FIRST_LOG_OCTAVE + rel / SKETCH_SUBBUCKETS;
        let sub = (rel % SKETCH_SUBBUCKETS) as u64;
        let lo = (16 + sub) << (e - 4);
        let hi = lo + ((1u64 << (e - 4)) - 1);
        (lo, hi)
    }
}

/// The value a bucket reports for quantiles: itself in the linear
/// region, the midpoint in the logarithmic region.
fn sketch_bucket_mid(index: usize) -> u64 {
    let (lo, hi) = sketch_bucket_bounds(index);
    lo + (hi - lo) / 2
}

/// Backing cells of one sketch.
pub(crate) struct SketchCells {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    /// Exact extrema, so `quantile(0.0)` / `quantile(1.0)` are exact and
    /// interior estimates clamp into the observed range.
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for SketchCells {
    fn default() -> SketchCells {
        SketchCells {
            buckets: (0..SKETCH_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A streaming quantile sketch over `u64` values.
///
/// Cloning shares the cells; the default value is a no-op handle (what
/// disabled registries hand out), whose update path is a single branch.
#[derive(Clone, Default)]
pub struct Sketch(pub(crate) Option<Arc<SketchCells>>);

impl Sketch {
    /// A handle that ignores every update.
    pub fn noop() -> Sketch {
        Sketch(None)
    }

    /// A live sketch not attached to any registry.
    pub fn detached() -> Sketch {
        Sketch(Some(Arc::new(SketchCells::default())))
    }

    /// Whether updates actually land anywhere.
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(cells) = &self.0 {
            cells.buckets[sketch_bucket(v)].fetch_add(1, Ordering::Relaxed);
            cells.count.fetch_add(1, Ordering::Relaxed);
            cells.sum.fetch_add(v, Ordering::Relaxed);
            cells.min.fetch_min(v, Ordering::Relaxed);
            cells.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map(|c| c.count.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Point-in-time reading under `name`.
    pub(crate) fn snapshot_named(cells: &SketchCells, name: &str) -> SketchSnapshot {
        let count = cells.count.load(Ordering::Relaxed);
        SketchSnapshot {
            name: name.to_string(),
            count,
            sum: cells.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                cells.min.load(Ordering::Relaxed)
            },
            max: cells.max.load(Ordering::Relaxed),
            buckets: cells
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u32, n))
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for Sketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sketch")
            .field("live", &self.is_live())
            .field("count", &self.count())
            .finish()
    }
}

/// Point-in-time reading of one sketch: exact count/sum/extrema plus the
/// non-empty log-linear buckets as `(bucket index, count)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SketchSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(bucket index, count)`, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl SketchSnapshot {
    /// Quantile estimate (`0.0..=1.0`) with relative error bounded by
    /// [`SKETCH_MAX_RELATIVE_ERROR`] (exact for values below
    /// [`SKETCH_LINEAR_MAX`] and at both extremes).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for &(idx, n) in &self.buckets {
            cum += n;
            if cum >= target {
                return sketch_bucket_mid(idx as usize).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges another shard into this one — exact bucket-wise addition,
    /// so merging is associative and commutative and a merged sketch is
    /// indistinguishable from one that saw every observation itself.
    pub fn merge(&mut self, other: &SketchSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        let mut merged: Vec<(u32, u64)> =
            Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.buckets.len() || j < other.buckets.len() {
            match (self.buckets.get(i), other.buckets.get(j)) {
                (Some(&(a, an)), Some(&(b, bn))) => match a.cmp(&b) {
                    std::cmp::Ordering::Less => {
                        merged.push((a, an));
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push((b, bn));
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push((a, an + bn));
                        i += 1;
                        j += 1;
                    }
                },
                (Some(&(a, an)), None) => {
                    merged.push((a, an));
                    i += 1;
                }
                (None, Some(&(b, bn))) => {
                    merged.push((b, bn));
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        self.buckets = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotone_and_bounded() {
        let mut last = 0usize;
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1 << 20,
            (1 << 20) + 12345,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let b = sketch_bucket(v);
            assert!(b >= last, "bucket index must be monotone in the value");
            assert!(b < SKETCH_BUCKETS);
            last = b;
            let (lo, hi) = sketch_bucket_bounds(b);
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
        assert_eq!(sketch_bucket(u64::MAX), SKETCH_BUCKETS - 1);
        let (_, hi) = sketch_bucket_bounds(SKETCH_BUCKETS - 1);
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn linear_region_is_exact() {
        let s = Sketch::detached();
        for v in 0..SKETCH_LINEAR_MAX {
            s.record(v);
        }
        let snap = Sketch::snapshot_named(s.0.as_ref().unwrap(), "x");
        // 128 values, one per bucket: quantile(q) is the exact value.
        assert_eq!(snap.quantile(0.5), 63);
        assert_eq!(snap.quantile(0.25), 31);
        assert_eq!(snap.quantile(0.0), 0);
        assert_eq!(snap.quantile(1.0), 127);
    }

    #[test]
    fn log_region_error_is_bounded() {
        let s = Sketch::detached();
        let values: Vec<u64> = (0..1000).map(|i| 1000 + i * 37).collect();
        for &v in &values {
            s.record(v);
        }
        let snap = Sketch::snapshot_named(s.0.as_ref().unwrap(), "x");
        let mut sorted = values.clone();
        sorted.sort();
        for q in [0.1, 0.5, 0.9, 0.99] {
            let target = ((q * sorted.len() as f64).ceil().max(1.0) as usize).min(sorted.len());
            let truth = sorted[target - 1] as f64;
            let est = snap.quantile(q) as f64;
            assert!(
                (est - truth).abs() <= truth * SKETCH_MAX_RELATIVE_ERROR + 1.0,
                "q={q}: est {est} vs truth {truth}"
            );
        }
    }

    #[test]
    fn merge_is_exact_bucketwise_addition() {
        let a = Sketch::detached();
        let b = Sketch::detached();
        let whole = Sketch::detached();
        for v in 0..500u64 {
            let side = if v % 2 == 0 { &a } else { &b };
            side.record(v * 13);
            whole.record(v * 13);
        }
        let mut sa = Sketch::snapshot_named(a.0.as_ref().unwrap(), "x");
        let sb = Sketch::snapshot_named(b.0.as_ref().unwrap(), "x");
        let sw = Sketch::snapshot_named(whole.0.as_ref().unwrap(), "x");
        sa.merge(&sb);
        assert_eq!(sa, sw, "merged shards must equal the unsharded sketch");
    }

    #[test]
    fn empty_and_extreme_quantiles() {
        let empty = SketchSnapshot::default();
        assert_eq!(empty.quantile(0.5), 0);
        let s = Sketch::detached();
        s.record(42);
        let snap = Sketch::snapshot_named(s.0.as_ref().unwrap(), "x");
        assert_eq!(snap.quantile(0.0), 42);
        assert_eq!(snap.quantile(0.5), 42);
        assert_eq!(snap.quantile(1.0), 42);
        assert_eq!(snap.min, 42);
        assert_eq!(snap.max, 42);
    }
}
