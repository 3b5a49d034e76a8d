//! The candidate search before the streaming pass, kept verbatim as the
//! test oracle of [`Recovery::candidate_stream`] and the two searches
//! over it: a per-hole `Vec` of candidates, a `can_confirm` probe from
//! scratch per candidate, and `partition_point` tier counts. The
//! property below pins ranked lists, [`RecoveryStats`] and journal
//! events of the shipped searches to these.

use super::*;

impl IndexedSegment {
    /// Number of tier-l symbols at or before position `end` (exclusive).
    pub(super) fn tier_count_before(&self, tier: Tier, end: usize) -> usize {
        let idx = match tier {
            Tier::CallStructure => &self.t1,
            Tier::Control => &self.t2,
            Tier::Concrete => return end,
        };
        idx.partition_point(|&p| (p as usize) < end)
    }

    /// Backward common-suffix length at tier `tier` between `self[..a]`
    /// and `other[..b]`, capped at `cap` comparisons.
    pub(super) fn tier_suffix(
        &self,
        a: usize,
        other: &IndexedSegment,
        b: usize,
        tier: Tier,
        cap: usize,
    ) -> usize {
        match tier {
            // Concrete tier: the SWAR kernel, eight symbols per step.
            // Pinned byte-identical to the scalar backward scan by the
            // corpus crate's `swar_equivalence` proptest suite — the
            // packed `compat` (equal op byte, non-contradicting 2-bit
            // dir codes) is exactly `sym_compat`.
            Tier::Concrete => suffix_swar(
                &self.packed.ops,
                &self.packed.dirs,
                a,
                &other.packed.ops,
                &other.packed.dirs,
                b,
                cap,
            ),
            _ => {
                let (ia, ib) = match tier {
                    Tier::CallStructure => (&self.t1, &other.t1),
                    Tier::Control => (&self.t2, &other.t2),
                    Tier::Concrete => unreachable!(),
                };
                let ca = self.tier_count_before(tier, a);
                let cb = other.tier_count_before(tier, b);
                let mut n = 0;
                while n < cap && n < ca && n < cb {
                    let pa = ia[ca - 1 - n] as usize;
                    let pb = ib[cb - 1 - n] as usize;
                    if !sym_compat(self.syms[pa], other.syms[pb]) {
                        break;
                    }
                    n += 1;
                }
                n
            }
        }
    }
}

impl Recovery<'_> {
    /// Candidate CS positions for an IS ending with `anchor` syms, each
    /// tagged `true` if the summary prefilter proved it can never
    /// confirm for the hole described by `ctx` (pruned counts land in
    /// [`RecoveryStats::summary_pruned`], not in
    /// [`RecoveryStats::candidates`]).
    pub(super) fn candidates(
        &self,
        is_seg: usize,
        anchor: &[Sym],
        ctx: Option<&HoleCtx<'_>>,
    ) -> Vec<(Candidate, bool)> {
        let key = AnchorKey::of(anchor);
        let is_end = self.indexed[is_seg].syms.len() - 1;
        self.anchor_index
            .get(&key)
            .map(|v| {
                v.iter()
                    .copied()
                    // The IS's own tail is not a usable CS for itself.
                    .filter(|&(si, end)| !(si == is_seg && end == is_end))
                    // Hashed long-anchor keys can collide: verify the
                    // candidate's op window (≤ 8 op keys are exact).
                    .filter(|&(si, end)| {
                        anchor.len() <= 8
                            || anchor.iter().enumerate().all(|(k, a)| {
                                self.indexed[si].syms[end + 1 - anchor.len() + k].op == a.op
                            })
                    })
                    .map(|cand| {
                        let dead = match ctx {
                            Some(c) if self.summaries.is_some() => !self.can_confirm(cand, c),
                            _ => false,
                        };
                        (cand, dead)
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// `true` unless candidate `(si, end)`'s suffix provably contains no
    /// window matching `ctx.post_window` within `ctx.budget` — the exact
    /// success condition of [`confirm_scan`]. The scan walks the
    /// occurrences of the window's rarest op kind (per-segment position
    /// index), so a hopeless candidate is usually rejected in O(log n);
    /// after [`CONFIRM_PROBE_CAP`] occurrence probes the candidate is
    /// kept (undecided ⇒ alive keeps the prefilter sound).
    pub(super) fn can_confirm(&self, (si, end): Candidate, ctx: &HoleCtx<'_>) -> bool {
        let cs = &self.indexed[si];
        let suffix_start = end + 1;
        let y = ctx.post_window.len();
        let len = cs.syms.len();
        let available = len - suffix_start;
        if available < y {
            return false;
        }
        // Highest window start the confirm scan would try: `d` is capped
        // by the budget and the window must fit inside the segment.
        let hi = (suffix_start + ctx.budget.min(available)).min(len - y);
        let k_rare = (0..y)
            .min_by_key(|&k| cs.op_pos[ctx.post_window[k].op.index()].len())
            .unwrap_or(0);
        let positions = &cs.op_pos[ctx.post_window[k_rare].op.index()];
        let lo = suffix_start + k_rare;
        let mut probes = 0usize;
        for &p in &positions[positions.partition_point(|&q| (q as usize) < lo)..] {
            let p = p as usize;
            if p > hi + k_rare {
                break;
            }
            probes += 1;
            if probes > CONFIRM_PROBE_CAP {
                return true;
            }
            let from = p - k_rare;
            if ctx
                .post_window
                .iter()
                .enumerate()
                .all(|(k, &s)| sym_compat(cs.syms[from + k], s))
            {
                return true;
            }
        }
        false
    }

    pub(super) fn oracle_search_naive_journaled(
        &self,
        is_seg: usize,
        stats: &mut RecoveryStats,
        ctx: Option<&HoleCtx<'_>>,
        journal: &mut CandidateJournal<'_, '_>,
    ) -> Vec<(Candidate, usize)> {
        let is = &self.indexed[is_seg];
        if is.syms.len() < self.cfg.anchor_len {
            return Vec::new();
        }
        let anchor = &is.syms[is.syms.len() - self.cfg.anchor_len..];
        let mut scored: Vec<((Candidate, bool), usize)> = self
            .candidates(is_seg, anchor, ctx)
            .into_iter()
            .map(|(cand, dead)| {
                let (si, end) = cand;
                let m3 = is.tier_suffix(
                    is.syms.len(),
                    &self.indexed[si],
                    end + 1,
                    Tier::Concrete,
                    usize::MAX,
                );
                ((cand, dead), m3)
            })
            .collect();
        // Prefilter-pruned candidates keep their score (the ranking must
        // be identical with the prefilter off) but are not journaled
        // individually.
        for (rank, &((cand, dead), score)) in scored.iter().enumerate() {
            if dead {
                stats.summary_pruned += 1;
            } else {
                stats.candidates += 1;
                journal.consider(rank as u32, cand, CandidateOutcome::Scored, score);
            }
        }
        scored.sort_by_key(|&(_, score)| std::cmp::Reverse(score));
        scored.truncate(self.cfg.top_n);
        scored.into_iter().map(|((c, _), s)| (c, s)).collect()
    }

    /// Prefilter-pruned candidates are processed through **exactly** the
    /// same gates, maxima updates and ranking as live ones — the ranked
    /// list (and therefore the chosen fill) is identical with the
    /// prefilter on or off by construction, not by a theorem about what
    /// pruning may drop. What they skip is every per-candidate journal
    /// event; they are tallied as [`RecoveryStats::summary_pruned`]
    /// instead of [`RecoveryStats::candidates`].
    pub(super) fn oracle_search_abstraction_journaled(
        &self,
        is_seg: usize,
        stats: &mut RecoveryStats,
        ctx: Option<&HoleCtx<'_>>,
        journal: &mut CandidateJournal<'_, '_>,
    ) -> Vec<(Candidate, usize)> {
        let is = &self.indexed[is_seg];
        if is.syms.len() < self.cfg.anchor_len {
            return Vec::new();
        }
        let anchor = &is.syms[is.syms.len() - self.cfg.anchor_len..];
        let cands = self.candidates(is_seg, anchor, ctx);

        let mut best: Vec<(Candidate, usize)> = Vec::new();
        // Running maxima ⟨m1, m2, m3⟩ of Algorithm 4; pruning compares
        // against the weakest kept candidate when the list is full.
        let (mut m1, mut m2, mut m3) = (0usize, 0usize, 0usize);
        for (rank, (cand, dead)) in cands.into_iter().enumerate() {
            let (si, end) = cand;
            let cs = &self.indexed[si];
            if dead {
                stats.summary_pruned += 1;
            } else {
                stats.candidates += 1;
            }
            let full = self.cfg.top_n > best.len();
            // Tier 1: cheap test first.
            let ml1 = is.tier_suffix(is.syms.len(), cs, end + 1, Tier::CallStructure, m1 + 64);
            if !full && ml1 < m1 {
                if !dead {
                    stats.pruned_tier1 += 1;
                    journal.consider(rank as u32, cand, CandidateOutcome::PrunedTier1, ml1);
                }
                continue;
            }
            let ml2 = is.tier_suffix(is.syms.len(), cs, end + 1, Tier::Control, m2 + 64);
            if !full && ml2 < m2 {
                if !dead {
                    stats.pruned_tier2 += 1;
                    journal.consider(rank as u32, cand, CandidateOutcome::PrunedTier2, ml2);
                }
                continue;
            }
            let ml3 = is.tier_suffix(is.syms.len(), cs, end + 1, Tier::Concrete, usize::MAX);
            if ml3 >= m3 {
                m3 = ml3;
                m1 = ml1;
                m2 = ml2;
            }
            if !dead {
                journal.consider(rank as u32, cand, CandidateOutcome::Scored, ml3);
            }
            best.push((cand, ml3));
            best.sort_by_key(|&(_, score)| std::cmp::Reverse(score));
            best.truncate(self.cfg.top_n);
        }
        best
    }
}

mod tests {
    use super::super::tests::{splitmix, tiny_program};
    use super::*;
    use jportal_analysis::SummaryTable;
    use jportal_cfg::BranchDir;
    use jportal_obs::JournalRecord;
    use proptest::prelude::*;

    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            (splitmix(&mut self.0) % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())]
        }
    }

    const DIRS: [BranchDir; 3] = [BranchDir::Unknown, BranchDir::Taken, BranchDir::NotTaken];

    /// A random symbol over `alphabet`. With `one_way`, every branch is
    /// not-taken, so a window asking for a taken one never matches and
    /// the probe cap alone decides its candidates.
    fn draw(rng: &mut Rng, alphabet: &[OpKind], one_way: bool) -> Sym {
        let op = rng.pick(alphabet);
        let dir = match (op, one_way) {
            (OpKind::Ifeq, true) => BranchDir::NotTaken,
            (OpKind::Ifeq, false) => rng.pick(&DIRS),
            _ => BranchDir::Unknown,
        };
        Sym { op, dir }
    }

    fn segment(syms: &[Sym]) -> SegmentView {
        SegmentView {
            events: syms
                .iter()
                .enumerate()
                .map(|(i, &sym)| BcEvent {
                    sym,
                    method: None,
                    bci: None,
                    ts: i as u64 * 10,
                })
                .collect(),
            nodes: vec![None; syms.len()],
            breaks: Vec::new(),
            loss_before: None,
        }
    }

    /// A budget whose range, for the first candidate with enough
    /// rare-op positions after it, holds exactly `count` of them.
    fn budget_holding(
        rec: &Recovery<'_>,
        is_seg: usize,
        window: &[Sym],
        count: usize,
    ) -> Option<usize> {
        let is = &rec.indexed[is_seg];
        let x = rec.cfg.anchor_len;
        if window.is_empty() || is.syms.len() < x {
            return None;
        }
        rec.candidates(is_seg, &is.syms[is.syms.len() - x..], None)
            .into_iter()
            .find_map(|((si, end), _)| {
                let cs = &rec.indexed[si];
                let k = (0..window.len())
                    .min_by_key(|&k| cs.op_pos[window[k].op.index()].len())
                    .unwrap_or(0);
                let ps = &cs.op_pos[window[k].op.index()];
                let lo = ps.partition_point(|&p| (p as usize) < end + 1 + k);
                let last = *ps.get(lo + count - 1)? as usize - k;
                (last + window.len() <= cs.syms.len()).then(|| last - (end + 1))
            })
    }

    /// Ranked list, stats and journal records of one search.
    type Outcome = (Vec<(Candidate, usize)>, RecoveryStats, Vec<JournalRecord>);

    fn run(
        search: impl FnOnce(
            &mut RecoveryStats,
            &mut CandidateJournal<'_, '_>,
        ) -> Vec<(Candidate, usize)>,
    ) -> Outcome {
        let journal = Journal::new();
        let mut rec = Journal::recorder(Some(&journal), 0);
        let mut stats = RecoveryStats::default();
        let mut cj = CandidateJournal::new(Some(&mut rec), 1);
        let ranked = search(&mut stats, &mut cj);
        cj.finish();
        (ranked, stats, journal.snapshot().records)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Both shipped searches equal their oracles in ranked list,
        /// every [`RecoveryStats`] field and every journal event, over
        /// small op alphabets (hundreds of anchor hits), budgets whose
        /// ranges hold exactly 64 and 65 rare-op positions, empty post
        /// windows, anchors long enough to hash (9 ops), top-1 and
        /// top-5 lists, and summaries on and off.
        #[test]
        fn streaming_search_equals_the_oracle(seed in any::<u64>()) {
            let rng = &mut Rng(seed);
            let (p, icfg) = tiny_program();
            let summaries = SummaryTable::build(&p, &icfg);
            let pool = [OpKind::Iadd, OpKind::Isub, OpKind::Goto, OpKind::InvokeStatic, OpKind::Ireturn];
            let mut alphabet = vec![OpKind::Ifeq];
            for _ in 0..1 + rng.below(3) {
                alphabet.push(rng.pick(&pool));
            }
            let one_way = rng.below(2) == 0;
            let segs: Vec<SegmentView> = (0..2 + rng.below(4))
                .map(|_| {
                    let len = if rng.below(4) == 0 { rng.below(12) } else { 200 + rng.below(500) };
                    let syms: Vec<Sym> = (0..len).map(|_| draw(rng, &alphabet, one_way)).collect();
                    segment(&syms)
                })
                .collect();
            let window: Vec<Sym> = (0..rng.below(6))
                .map(|_| {
                    let mut s = draw(rng, &alphabet, false);
                    if one_way && s.op == OpKind::Ifeq {
                        s.dir = BranchDir::Taken;
                    }
                    s
                })
                .collect();
            let cfg = RecoveryConfig {
                anchor_len: rng.pick(&[1, 2, 3, 3, 3, 9]),
                top_n: rng.pick(&[1, 5]),
                ..RecoveryConfig::default()
            };
            let mut rec = Recovery::new(&p, &icfg, &segs, cfg);
            if rng.below(2) == 0 {
                rec = rec.with_summaries(&summaries);
            }
            let is_seg = rng.below(segs.len());
            let mut budget = rng.below(300);
            if rec.summaries.is_some() {
                let count = rng.pick(&[0, 64, 65]);
                if count > 0 {
                    budget = budget_holding(&rec, is_seg, &window, count).unwrap_or(budget);
                }
            }
            let ctx = HoleCtx { post_window: &window, budget, span: (0, 0), estimate: 0.0 };
            // As `fill_hole_journaled`: no prefilter for an empty window.
            let prefilter = (!window.is_empty()).then_some(&ctx);
            for abstraction in [true, false] {
                let got = run(|stats, j| {
                    let work = &mut SearchWork::default();
                    if abstraction {
                        rec.search_abstraction_journaled(is_seg, stats, prefilter, j, work)
                    } else {
                        rec.search_naive_journaled(is_seg, stats, prefilter, j, work)
                    }
                });
                let want = run(|stats, j| {
                    if abstraction {
                        rec.oracle_search_abstraction_journaled(is_seg, stats, prefilter, j)
                    } else {
                        rec.oracle_search_naive_journaled(is_seg, stats, prefilter, j)
                    }
                });
                prop_assert_eq!(got, want, "abstraction={} cfg={:?} budget={} window={:?}", abstraction, cfg, budget, window);
            }
        }
    }
}
