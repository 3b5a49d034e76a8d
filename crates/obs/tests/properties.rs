//! Property tests for the telemetry layer's concurrency and export
//! invariants: sharded counters never lose or double-count updates under
//! any thread/plan mix, sketches conserve count and sum, and both
//! exporters always emit valid JSON.

use proptest::prelude::*;

use jportal_obs::json::validate;
use jportal_obs::{MetricClass, MetricsRegistry, Obs};

proptest! {
    /// Concurrent increments over the sharded counter cells sum exactly:
    /// any split of a plan of additions across up to 8 threads yields the
    /// plain sequential total (no lost updates across shards).
    #[test]
    fn sharded_counter_conserves_additions(
        plan in prop::collection::vec(1u64..100, 1..64),
        threads in 1usize..8,
    ) {
        let reg = MetricsRegistry::new(true);
        let c = reg.counter("t", MetricClass::Exact);
        let expected: u64 = plan.iter().sum();
        let chunk = plan.len().div_ceil(threads).max(1);
        std::thread::scope(|s| {
            for part in plan.chunks(chunk) {
                let c = c.clone();
                s.spawn(move || {
                    for &n in part {
                        c.add(n);
                    }
                });
            }
        });
        prop_assert_eq!(c.value(), expected);
        prop_assert_eq!(reg.snapshot().counter("t"), Some(expected));
    }

    /// Sketches conserve observation count and sum across threads,
    /// bucket counts always add up to the total count, and the extremes
    /// are exact.
    #[test]
    fn sketch_conserves_count_and_sum(
        values in prop::collection::vec(0u64..1_000_000, 1..64),
        threads in 1usize..6,
    ) {
        let reg = MetricsRegistry::new(true);
        let sketch = reg.sketch("v");
        let chunk = values.len().div_ceil(threads).max(1);
        std::thread::scope(|s| {
            for part in values.chunks(chunk) {
                let sketch = sketch.clone();
                s.spawn(move || {
                    for &v in part {
                        sketch.record(v);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        let sk = snap.sketch("v").unwrap();
        prop_assert_eq!(sk.count, values.len() as u64);
        prop_assert_eq!(sk.sum, values.iter().sum::<u64>());
        let bucket_total: u64 = sk.buckets.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(bucket_total, sk.count);
        prop_assert_eq!(sk.min, *values.iter().min().unwrap());
        prop_assert_eq!(sk.max, *values.iter().max().unwrap());
    }

    /// Span structure is independent of how work is split over threads:
    /// the same logical set of spans produces the same sorted structure
    /// whether recorded from 1 thread or many.
    #[test]
    fn span_structure_is_thread_independent(
        n in 1usize..32,
        threads in 1usize..6,
    ) {
        let run = |workers: usize| {
            let obs = Obs::new(true);
            let ids: Vec<usize> = (0..n).collect();
            let chunk = n.div_ceil(workers).max(1);
            std::thread::scope(|s| {
                for part in ids.chunks(chunk) {
                    let obs = obs.clone();
                    s.spawn(move || {
                        for &i in part {
                            let _g = obs
                                .span("work", "unit")
                                .arg("i", i)
                                .parent("root");
                        }
                    });
                }
            });
            obs.telemetry().span_structure()
        };
        prop_assert_eq!(run(1), run(threads));
    }

    /// Whatever ends up in a report, both exporters emit valid JSON and
    /// every counter value survives into the flat snapshot document.
    #[test]
    fn exporters_always_emit_valid_json(
        counters in prop::collection::vec((0usize..6, 1u64..1000), 0..24),
        record in prop::collection::vec(0u64..10_000, 0..16),
    ) {
        let obs = Obs::new(true);
        let names = ["a", "b.c", "d-e", "f g", "h\"i", "j\\k"];
        for &(which, v) in &counters {
            obs.registry().counter(names[which], MetricClass::Exact).add(v);
        }
        let sketch = obs.registry().sketch("sketch");
        for &v in &record {
            sketch.record(v);
        }
        {
            let _s = obs.span("cat", "name").arg("v", 1u64);
        }
        let report = obs.telemetry();
        prop_assert!(validate(&report.chrome_trace_json()).is_ok());
        prop_assert!(validate(&report.metrics_json()).is_ok());
        for r in &report.metrics.counters {
            prop_assert_eq!(report.metrics.counter(&r.name), Some(r.value));
        }
        let sk = report.metrics.sketch("sketch").unwrap();
        prop_assert_eq!(sk.count, record.len() as u64);
    }

    /// Sketch merge is associative and order-independent: merging
    /// per-shard snapshots in any grouping reproduces the snapshot of
    /// one sketch that saw every value (merge is exact bucket-wise
    /// addition, so this is equality, not approximation).
    #[test]
    fn sketch_merge_is_associative(
        a in prop::collection::vec(0u64..1_000_000, 0..48),
        b in prop::collection::vec(0u64..1_000_000, 0..48),
        c in prop::collection::vec(0u64..1_000_000, 0..48),
    ) {
        let shard = |values: &[u64]| {
            let reg = MetricsRegistry::new(true);
            let s = reg.sketch("s");
            for &v in values {
                s.record(v);
            }
            reg.snapshot().sketch("s").unwrap().clone()
        };
        let (sa, sb, sc) = (shard(&a), shard(&b), shard(&c));
        // (a ⊔ b) ⊔ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊔ (b ⊔ c)
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        // Both equal the unsharded whole.
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        let whole = shard(&all);
        if whole.count > 0 {
            prop_assert_eq!(&left, &whole);
        }
    }

    /// Merging an empty sketch is the identity: count, sum, min/max and
    /// every quantile are untouched, and the merge in the other
    /// direction reproduces the non-empty side exactly.
    #[test]
    fn sketch_merge_empty_is_identity(
        values in prop::collection::vec(0u64..1_000_000, 1..64),
    ) {
        let shard = |values: &[u64]| {
            let reg = MetricsRegistry::new(true);
            let s = reg.sketch("s");
            for &v in values {
                s.record(v);
            }
            reg.snapshot().sketch("s").unwrap().clone()
        };
        let full = shard(&values);
        let empty = shard(&[]);
        prop_assert_eq!(empty.count, 0);

        let mut merged = full.clone();
        merged.merge(&empty);
        prop_assert_eq!(&merged, &full, "rhs empty must be the identity");
        prop_assert_eq!(merged.quantile(0.0), *values.iter().min().unwrap());
        prop_assert_eq!(merged.quantile(1.0), *values.iter().max().unwrap());

        let mut adopted = empty.clone();
        adopted.merge(&full);
        prop_assert_eq!(&adopted, &full, "empty lhs must adopt rhs wholesale");
    }

    /// Merging sketches over disjoint octave ranges (one fed small
    /// values, one fed values ~2^16 larger, so no bucket overlaps)
    /// equals the sketch that saw both populations, and the extremes
    /// come from the respective sides.
    #[test]
    fn sketch_merge_disjoint_octaves_matches_combined(
        low in prop::collection::vec(1u64..256, 1..32),
        high in prop::collection::vec(1u64..256, 1..32),
    ) {
        let shard = |values: &[u64]| {
            let reg = MetricsRegistry::new(true);
            let s = reg.sketch("s");
            for &v in values {
                s.record(v);
            }
            reg.snapshot().sketch("s").unwrap().clone()
        };
        let high: Vec<u64> = high.iter().map(|&v| v << 16).collect();
        let mut merged = shard(&low);
        merged.merge(&shard(&high));
        let all: Vec<u64> = low.iter().chain(&high).copied().collect();
        prop_assert_eq!(&merged, &shard(&all));
        prop_assert_eq!(merged.count, (low.len() + high.len()) as u64);
        prop_assert_eq!(merged.quantile(0.0), *low.iter().min().unwrap());
        prop_assert_eq!(merged.quantile(1.0), *high.iter().max().unwrap());
    }

    /// Sketch quantiles stay within the documented relative error bound
    /// (1/32, the half-width of a log-linear bucket) of a sorted-oracle
    /// quantile at the same rank, at every probed q.
    #[test]
    fn sketch_quantiles_meet_rank_error_bound(
        values in prop::collection::vec(0u64..50_000_000, 1..128),
    ) {
        let mut values = values;
        let reg = MetricsRegistry::new(true);
        let s = reg.sketch("lat");
        for &v in &values {
            s.record(v);
        }
        let snap = reg.snapshot();
        let sk = snap.sketch("lat").unwrap();
        values.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99] {
            // Same rank convention as SketchSnapshot::quantile.
            let target = (q * values.len() as f64).ceil().max(1.0) as usize;
            let oracle = values[target - 1];
            let est = sk.quantile(q);
            let bound = oracle / 32 + 1;
            prop_assert!(
                est.abs_diff(oracle) <= bound,
                "q={q}: estimate {est} vs oracle {oracle} (bound {bound})"
            );
        }
        prop_assert_eq!(sk.quantile(0.0), values[0]);
        prop_assert_eq!(sk.quantile(1.0), *values.last().unwrap());
    }
}
