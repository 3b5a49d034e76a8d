//! Guard for the parallel statistics reduction: merging per-segment
//! statistics in any grouping/order must equal the plain sequential sum
//! (a lost-update or double-count in a merge shows up here immediately).

use jportal_core::{ProjectionStats, RecoveryStats};
use jportal_par::ParMetrics;

/// Deterministic pseudo-random stream (SplitMix64) for filling fields.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn small(&mut self) -> usize {
        (self.next() % 1000) as usize
    }
}

fn random_projection(rng: &mut Rng) -> ProjectionStats {
    ProjectionStats {
        matched: rng.small(),
        unmatched: rng.small(),
        restarts: rng.small(),
        candidates_tried: rng.small(),
        candidates_pruned: rng.small(),
        summary_pruned: rng.small(),
        dfa_runs: rng.small(),
        frontier_width_max: rng.small(),
    }
}

fn random_recovery(rng: &mut Rng) -> RecoveryStats {
    RecoveryStats {
        holes: rng.small(),
        filled_from_cs: rng.small(),
        filled_by_walk: rng.small(),
        unfilled: rng.small(),
        recovered_events: rng.small(),
        candidates: rng.small(),
        pruned_tier1: rng.small(),
        pruned_tier2: rng.small(),
        summary_pruned: rng.small(),
        fallback_walks: rng.small(),
        budget_truncations: rng.small(),
        corpus_lookups: rng.small(),
        corpus_candidates: rng.small(),
        corpus_hits: rng.small(),
        corpus_misses: rng.small(),
    }
}

/// Reduces `items` the way the parallel pipeline does: fan out with
/// `jportal_par`, partial-merge per chunk, then merge the partials.
fn tree_reduce_projection(items: &[ProjectionStats], workers: usize) -> ProjectionStats {
    let chunks: Vec<&[ProjectionStats]> =
        items.chunks(items.len().div_ceil(workers).max(1)).collect();
    let partials = jportal_par::par_map(workers, &chunks, &ParMetrics::noop(), |_, chunk| {
        let mut acc = ProjectionStats::default();
        for s in *chunk {
            acc.merge(s);
        }
        acc
    });
    let mut total = ProjectionStats::default();
    for p in &partials {
        total.merge(p);
    }
    total
}

fn tree_reduce_recovery(items: &[RecoveryStats], workers: usize) -> RecoveryStats {
    let chunks: Vec<&[RecoveryStats]> =
        items.chunks(items.len().div_ceil(workers).max(1)).collect();
    let partials = jportal_par::par_map(workers, &chunks, &ParMetrics::noop(), |_, chunk| {
        let mut acc = RecoveryStats::default();
        for s in *chunk {
            acc.merge(s);
        }
        acc
    });
    let mut total = RecoveryStats::default();
    for p in &partials {
        total.merge(p);
    }
    total
}

#[test]
fn projection_stats_parallel_reduction_equals_sequential_sum() {
    let mut rng = Rng(1);
    let items: Vec<ProjectionStats> = (0..257).map(|_| random_projection(&mut rng)).collect();
    let mut sequential = ProjectionStats::default();
    for s in &items {
        sequential.merge(s);
    }
    // Field-level spot check against independent sums.
    assert_eq!(
        sequential.matched,
        items.iter().map(|s| s.matched).sum::<usize>()
    );
    assert_eq!(
        sequential.candidates_pruned,
        items.iter().map(|s| s.candidates_pruned).sum::<usize>()
    );
    for workers in [1, 2, 3, 4, 8, 16] {
        assert_eq!(
            tree_reduce_projection(&items, workers),
            sequential,
            "workers={workers}"
        );
    }
}

#[test]
fn recovery_stats_parallel_reduction_equals_sequential_sum() {
    let mut rng = Rng(2);
    let items: Vec<RecoveryStats> = (0..257).map(|_| random_recovery(&mut rng)).collect();
    let mut sequential = RecoveryStats::default();
    for s in &items {
        sequential.merge(s);
    }
    assert_eq!(
        sequential.holes,
        items.iter().map(|s| s.holes).sum::<usize>()
    );
    assert_eq!(
        sequential.recovered_events,
        items.iter().map(|s| s.recovered_events).sum::<usize>()
    );
    for workers in [1, 2, 3, 4, 8, 16] {
        assert_eq!(
            tree_reduce_recovery(&items, workers),
            sequential,
            "workers={workers}"
        );
    }
}

#[test]
fn prune_rates_come_from_merged_totals_not_averaged_rates() {
    // Two shards with very different candidate volumes: averaging the
    // per-shard rates would weight them equally; the merged rate must
    // weight by candidates (sum of numerators / sum of denominators).
    let a = RecoveryStats {
        candidates: 100,
        pruned_tier1: 90,
        pruned_tier2: 5,
        ..Default::default()
    };
    let b = RecoveryStats {
        candidates: 10,
        pruned_tier1: 1,
        pruned_tier2: 2,
        ..Default::default()
    };
    let mut merged = a;
    merged.merge(&b);
    assert_eq!(merged.candidates, 110);
    assert!((merged.tier1_prune_rate() - 91.0 / 110.0).abs() < 1e-12);
    assert!((merged.tier2_prune_rate() - 7.0 / 110.0).abs() < 1e-12);
    let averaged = (a.tier1_prune_rate() + b.tier1_prune_rate()) / 2.0;
    assert!(
        (merged.tier1_prune_rate() - averaged).abs() > 0.1,
        "merged rate must not equal the average of shard rates"
    );
    // No candidates → a defined zero rate, not NaN.
    assert_eq!(RecoveryStats::default().tier1_prune_rate(), 0.0);
    assert_eq!(RecoveryStats::default().tier2_prune_rate(), 0.0);
}

#[test]
fn frontier_width_merges_as_max() {
    let mut a = ProjectionStats {
        frontier_width_max: 3,
        ..Default::default()
    };
    a.merge(&ProjectionStats {
        frontier_width_max: 7,
        ..Default::default()
    });
    assert_eq!(a.frontier_width_max, 7);
    a.merge(&ProjectionStats {
        frontier_width_max: 2,
        ..Default::default()
    });
    assert_eq!(a.frontier_width_max, 7, "max never regresses");
}

#[test]
fn merge_identity_and_accumulation() {
    let mut rng = Rng(3);
    let a = random_projection(&mut rng);
    let mut b = a;
    b.merge(&ProjectionStats::default());
    assert_eq!(a, b, "merging the identity changes nothing");
    let r = random_recovery(&mut rng);
    let mut acc = RecoveryStats::default();
    acc.merge(&r);
    assert_eq!(acc, r, "merge into identity is a copy");
}
