//! Abstraction-guided missing-data recovery (§5).
//!
//! A hole `⋄` between two decoded segments is filled from a **complete
//! segment** (CS) whose context matches the **incomplete segment** (IS)
//! ending at the hole (Definition 5.1): the last `x` instructions before
//! the hole are the *anchor*; candidate CS positions matching the anchor
//! are ranked by the longest common suffix of their prefix with the IS,
//! compared through the three-tier abstraction hierarchy of Definition
//! 5.2 with the pruning guarantee of Theorem 5.5 — tier-1 (call
//! structure) comparisons reject most candidates before tier-2 (control
//! structure) or tier-3 (concrete) work happens (Algorithm 4; Algorithm 3
//! is the naive per-instruction scan kept as the benchmark baseline).
//!
//! The winning CS's suffix fills the hole until `y` consecutive
//! instructions match what follows the hole, bounded by the hole's
//! timestamp budget; if no CS works, a bounded ICFG walk connects the two
//! sides (the paper's random-path fallback).

use jportal_analysis::{AnalysisIndex, LintStep, SummaryTable};
use jportal_bytecode::{Bci, MethodId, OpKind, Program};
use jportal_cfg::{FxHashMap, Icfg, NodeId, Sym, Tier};
use jportal_corpus::pack::{suffix_swar, PackedSyms};
use jportal_corpus::{Corpus, CorpusCandidate, SegView};
use jportal_ipt::ring::LossRecord;
use jportal_obs::{CandidateOutcome, Journal, JournalEvent, JournalRecorder};
use std::collections::VecDeque;

use crate::decode::BcEvent;
use crate::reconstruct::StatsCounters;

/// Where a reconstructed trace entry came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOrigin {
    /// Directly decoded from captured packets and projected (§3–§4).
    Decoded,
    /// Filled in from a matching complete segment (§5).
    Recovered,
    /// Filled in by the fallback ICFG walk (§5, last resort).
    Walked,
}

/// One entry of the final reconstructed control-flow trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Operation kind.
    pub op: OpKind,
    /// Method, when known (projection or JIT decode).
    pub method: Option<MethodId>,
    /// Bytecode index, when known.
    pub bci: Option<Bci>,
    /// Timestamp (interpolated for recovered entries).
    pub ts: u64,
    /// Provenance.
    pub origin: TraceOrigin,
}

/// One decoded segment with its projection, as recovery consumes it.
#[derive(Debug, Clone, Default)]
pub struct SegmentView {
    /// Decoded events.
    pub events: Vec<BcEvent>,
    /// Projected ICFG nodes, aligned with `events`.
    pub nodes: Vec<Option<NodeId>>,
    /// Projection restart seams: event indices with no ICFG-edge
    /// guarantee from the previous event (see
    /// [`crate::reconstruct::Projection::breaks`]). Sorted, never 0.
    pub breaks: Vec<usize>,
    /// Loss separating this segment from the previous one.
    pub loss_before: Option<LossRecord>,
}

/// One harvested complete segment, ready for
/// [`jportal_corpus::CorpusBuilder::insert`]: symbols, packed
/// `(method, bci)` locations, projection seams.
pub(crate) type HarvestSeg = (Vec<Sym>, Vec<u64>, Vec<u32>);

// A decoded segment's event buffer is rewritten in place into its
// trace entries (`SegmentView::into_entries`): the allocation is reused
// only while both element types share one size and alignment.
const _: () = assert!(
    std::mem::size_of::<BcEvent>() == std::mem::size_of::<TraceEntry>()
        && std::mem::align_of::<BcEvent>() == std::mem::align_of::<TraceEntry>()
);

impl SegmentView {
    /// The linter's view of this segment, one step per event, read in
    /// place. The segment start is a lossy seam (a hole or a fresh
    /// trace buffer precedes it, so events may be missing); within the
    /// segment, projection restarts (`breaks`) mark positions with no
    /// edge guarantee to their predecessor, but every hardware-observed
    /// event in between is present.
    pub(crate) fn lint_steps(&self) -> impl Iterator<Item = LintStep> + '_ {
        debug_assert!(
            self.breaks.first() != Some(&0) && self.breaks.windows(2).all(|w| w[0] < w[1]),
            "projection breaks must be strictly ascending and never 0"
        );
        // Ascending seam cursor over `breaks`.
        let mut seams = self.breaks.iter().copied().peekable();
        self.events
            .iter()
            .zip(&self.nodes)
            .enumerate()
            .map(move |(idx, (e, &node))| LintStep {
                node,
                op: e.sym.op,
                dir: e.sym.dir,
                boundary: idx == 0 || seams.next_if_eq(&idx).is_some(),
                lossy: idx == 0,
            })
    }

    /// This segment's decoded trace entries, written over its event
    /// buffer.
    pub(crate) fn into_entries(self, icfg: &Icfg) -> Vec<TraceEntry> {
        self.events
            .into_iter()
            .zip(&self.nodes)
            .map(|(e, &node)| {
                let (method, bci) = event_loc(icfg, &e, node);
                TraceEntry {
                    op: e.sym.op,
                    method,
                    bci,
                    ts: e.ts,
                    origin: TraceOrigin::Decoded,
                }
            })
            .collect()
    }

    /// This segment as the persistent corpus stores it, locations
    /// resolved by [`event_loc`] exactly as emitted entries are, so a
    /// corpus splice reproduces what the in-run splice would emit.
    pub(crate) fn harvest(&self, icfg: &Icfg) -> HarvestSeg {
        let syms = self.events.iter().map(|e| e.sym).collect();
        let locs = self
            .events
            .iter()
            .zip(&self.nodes)
            .map(|(e, &node)| {
                let (m, b) = event_loc(icfg, e, node);
                jportal_corpus::pack_loc(m.map(|m| m.0), b.map(|b| b.0))
            })
            .collect();
        let breaks = self.breaks.iter().map(|&i| i as u32).collect();
        (syms, locs, breaks)
    }
}

/// The result of filling one hole: the spliced entries plus the
/// lint-relevant structure of the splice.
///
/// `steps` is aligned one-to-one with `entries`. A fill spliced from a
/// complete segment starts at a seam (`steps[0].boundary == true`) and
/// inherits the CS's own internal seams; a fallback ICFG walk is
/// edge-connected to both sides by construction, so its steps carry no
/// boundaries at all — the feasibility linter checks every one of its
/// transitions.
#[derive(Debug, Clone, Default)]
pub struct Fill {
    /// Recovered trace entries, in timeline order.
    pub entries: Vec<TraceEntry>,
    /// Feasibility-linter steps aligned with `entries`.
    pub steps: Vec<LintStep>,
    /// How much to trust this fill, in `[0, 1]`: the winning candidate's
    /// suffix strength × its score margin over the runner-up × the
    /// timestamp-budget coverage of the confirm scan × how well the fill
    /// length agrees with the hole's estimated event count, scaled down
    /// hard for fallback walks (see `confidence` in the journal event
    /// schema, DESIGN.md §13). `0.0` for an unfilled hole.
    pub confidence: f64,
}

/// Recovery tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Anchor length `x` (instructions before the hole used to find CSes).
    pub anchor_len: usize,
    /// Confirmation length `y` (post-hole instructions that must match to
    /// end the fill).
    pub confirm_len: usize,
    /// How many top-ranked CSes to try (the paper's top-N list).
    pub top_n: usize,
    /// Budget multiplier applied to the hole's estimated event count.
    pub budget_factor: f64,
    /// Use the tiered pruning of Algorithm 4 (`false` = Algorithm 3).
    pub use_abstraction: bool,
    /// Maximum steps of the fallback ICFG walk.
    pub max_walk: usize,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            anchor_len: 3,
            confirm_len: 4,
            top_n: 5,
            budget_factor: 2.0,
            use_abstraction: true,
            max_walk: 64,
        }
    }
}

/// Statistics from recovering one thread's holes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Holes encountered.
    pub holes: usize,
    /// Holes filled from a CS.
    pub filled_from_cs: usize,
    /// Holes filled by the fallback walk.
    pub filled_by_walk: usize,
    /// Holes left unfilled.
    pub unfilled: usize,
    /// Entries produced by recovery.
    pub recovered_events: usize,
    /// CS candidates examined.
    pub candidates: usize,
    /// Candidates rejected at tier 1.
    pub pruned_tier1: usize,
    /// Candidates rejected at tier 2.
    pub pruned_tier2: usize,
    /// Candidates rejected by the summary prefilter: the candidate's
    /// suffix provably contains no confirm window for this hole (checked
    /// against the per-segment op-kind position index), so it can never
    /// be chosen as the fill. Pruned candidates still run through the
    /// search gates and ranking — which keeps the chosen fill identical
    /// to a run without the prefilter — but skip all per-candidate
    /// journaling. Not counted in [`RecoveryStats::candidates`] (nor in
    /// the tier-prune tallies).
    pub summary_pruned: usize,
    /// Fallback ICFG walks attempted (successful or not); always ≥
    /// [`RecoveryStats::filled_by_walk`].
    pub fallback_walks: usize,
    /// Candidate confirm scans whose window was clipped by the hole's
    /// timestamp budget (the scan saw less than the candidate's full
    /// suffix, so a confirmation may have been missed).
    pub budget_truncations: usize,
    /// Holes that consulted the persistent segment corpus (only holes
    /// no in-run candidate could confirm — the corpus is a secondary
    /// source, so attaching one never changes an in-run fill).
    pub corpus_lookups: usize,
    /// Corpus candidates returned by the sharded anchor index across
    /// all lookups.
    pub corpus_candidates: usize,
    /// Corpus lookups whose winning candidate confirmed and filled the
    /// hole (these holes also count in
    /// [`RecoveryStats::filled_from_cs`]).
    pub corpus_hits: usize,
    /// Corpus lookups that found no confirmable candidate (the hole
    /// fell through to the fallback walk).
    pub corpus_misses: usize,
}

impl RecoveryStats {
    /// The fields the pipeline mirrors into its telemetry registry, as
    /// `(counter name, field)`: summed over threads after the joins,
    /// so every entry is an exact metric.
    pub(crate) const COUNTERS: &'static StatsCounters<RecoveryStats> = &[
        ("core.recover.holes", |s| s.holes),
        ("core.recover.filled_from_cs", |s| s.filled_from_cs),
        ("core.recover.filled_by_walk", |s| s.filled_by_walk),
        ("core.recover.unfilled", |s| s.unfilled),
        ("core.recover.recovered_events", |s| s.recovered_events),
        ("core.recover.candidates", |s| s.candidates),
        ("core.recover.pruned_tier1", |s| s.pruned_tier1),
        ("core.recover.pruned_tier2", |s| s.pruned_tier2),
        ("core.recover.summary_pruned", |s| s.summary_pruned),
        ("core.recover.fallback_walks", |s| s.fallback_walks),
        ("core.recover.budget_truncations", |s| s.budget_truncations),
        ("core.corpus.lookups", |s| s.corpus_lookups),
        ("core.corpus.candidates", |s| s.corpus_candidates),
        ("core.corpus.hits", |s| s.corpus_hits),
        ("core.corpus.misses", |s| s.corpus_misses),
    ];

    /// Folds another run's statistics into this one (commutative and
    /// associative, so parallel tree reduction equals sequential sums).
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.holes += other.holes;
        self.filled_from_cs += other.filled_from_cs;
        self.filled_by_walk += other.filled_by_walk;
        self.unfilled += other.unfilled;
        self.recovered_events += other.recovered_events;
        self.candidates += other.candidates;
        self.pruned_tier1 += other.pruned_tier1;
        self.pruned_tier2 += other.pruned_tier2;
        self.summary_pruned += other.summary_pruned;
        self.fallback_walks += other.fallback_walks;
        self.budget_truncations += other.budget_truncations;
        self.corpus_lookups += other.corpus_lookups;
        self.corpus_candidates += other.corpus_candidates;
        self.corpus_hits += other.corpus_hits;
        self.corpus_misses += other.corpus_misses;
    }

    /// Fraction of considered candidates rejected by the tier-1
    /// (call-structure) comparison. `0.0` when nothing was considered.
    ///
    /// Rates are computed from the *merged* totals, never averaged per
    /// shard: `merge` sums numerators and denominators, so the rate of a
    /// merged stat equals the rate over the union of the runs.
    pub fn tier1_prune_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pruned_tier1 as f64 / self.candidates as f64
        }
    }

    /// Fraction of considered candidates rejected by the tier-2
    /// (control-structure) comparison. `0.0` when nothing was considered.
    pub fn tier2_prune_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pruned_tier2 as f64 / self.candidates as f64
        }
    }
}

/// Compatibility of two symbols for matching: same opcode, and branch
/// directions must not contradict.
fn sym_compat(a: Sym, b: Sym) -> bool {
    a.op == b.op && a.dir.matches(b.dir)
}

/// Human-readable anchor spelling for the journal: opcode mnemonics
/// joined with `·` (`invokestatic·iload·ifge`).
fn spell_anchor(anchor: &[Sym]) -> String {
    let mut out = String::new();
    for (i, s) in anchor.iter().enumerate() {
        if i > 0 {
            out.push('·');
        }
        out.push_str(s.op.mnemonic());
    }
    out
}

/// Confidence in `[0, 1]` as parts-per-million, the journal's
/// integer-only wire form.
fn ppm(confidence: f64) -> u32 {
    (confidence.clamp(0.0, 1.0) * 1_000_000.0).round() as u32
}

/// How well a fill's length agrees with the hole's timestamp-derived
/// event estimate, in `[0, 1]`: `min/max` of the two lengths. A fill
/// that plugs a fraction of the estimated loss — or overshoots it —
/// can at best align that fraction of the truth, whatever its splice
/// score, so this dominates when lengths disagree badly.
fn length_agreement(fill_len: usize, estimate: f64) -> f64 {
    let f = fill_len as f64;
    let e = estimate.max(1.0);
    (f.min(e) / f.max(e)).clamp(0.0, 1.0)
}

/// Confidence of a CS-sourced fill: suffix strength (how long the
/// common suffix is, saturating) × score margin over the best other
/// candidate (1.0 when the winner was the only candidate) × budget
/// coverage of the confirm scan (1.0 when the window was not clipped)
/// × length agreement with the hole's event estimate.
fn cs_confidence(
    score: usize,
    runner_up: usize,
    sole: bool,
    max_fill: usize,
    available: usize,
    fill_len: usize,
    estimate: f64,
) -> f64 {
    let strength = score as f64 / (score as f64 + 4.0);
    let margin_factor = if sole {
        1.0
    } else {
        let s = score.max(1) as f64;
        (0.5 + 0.5 * (s - runner_up as f64) / s).clamp(0.1, 1.0)
    };
    let coverage = if max_fill < available {
        max_fill as f64 / available as f64
    } else {
        1.0
    };
    strength * margin_factor * coverage * length_agreement(fill_len, estimate)
}

/// Confidence of a fallback-walk fill: capped low (the walk is a guess
/// consistent with the ICFG, not a witnessed execution) and scaled by
/// how much of the estimated loss the walk actually plugged.
fn walk_confidence(fill_len: usize, estimate: f64) -> f64 {
    0.3 * length_agreement(fill_len, estimate)
}

/// Pre-indexed segment: symbols plus tier-1/tier-2 position indices.
#[derive(Debug, Clone)]
struct IndexedSegment {
    syms: Vec<Sym>,
    /// The same symbols packed for the SWAR suffix kernel (op bytes
    /// eight per word, dir codes thirty-two per word) — the concrete
    /// tier scores on these, eight symbols per step.
    packed: PackedSyms,
    /// Positions of tier-1 (call-structure) symbols.
    t1: Vec<u32>,
    /// The tier-1 symbols themselves, contiguous: `t1_syms[j] ==
    /// syms[t1[j]]`, so a tier-1 suffix compare reads adjacent memory.
    t1_syms: Vec<Sym>,
    /// Positions of tier-2 (control) symbols.
    t2: Vec<u32>,
    /// The tier-2 symbols, contiguous like `t1_syms`.
    t2_syms: Vec<Sym>,
    /// Positions of each [`OpKind`] in `syms`, indexed by
    /// [`OpKind::index`]. Empty until [`IndexedSegment::build_op_index`]
    /// runs (only the summary prefilter reads it).
    op_pos: Vec<Vec<u32>>,
}

impl IndexedSegment {
    fn new(view: &SegmentView) -> IndexedSegment {
        let events = &view.events;
        let syms: Vec<Sym> = events.iter().map(|e| e.sym).collect();
        let (mut t1, mut t1_syms, mut t2, mut t2_syms) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (i, &s) in syms.iter().enumerate() {
            let tier = Tier::of_op(s.op);
            if tier == Tier::CallStructure {
                t1.push(i as u32);
                t1_syms.push(s);
            }
            if tier != Tier::Concrete {
                t2.push(i as u32);
                t2_syms.push(s);
            }
        }
        IndexedSegment {
            packed: PackedSyms::from_syms(&syms),
            syms,
            t1,
            t1_syms,
            t2,
            t2_syms,
            op_pos: Vec::new(),
        }
    }

    /// Common-suffix length of this whole segment and `other[..b]` at
    /// the concrete tier, through the SWAR kernel, eight symbols per
    /// step. Pinned byte-identical to the scalar backward scan by the
    /// corpus crate's `swar_equivalence` proptest suite — the packed
    /// `compat` (equal op byte, non-contradicting 2-bit dir codes) is
    /// exactly `sym_compat`.
    fn concrete_suffix(&self, other: &IndexedSegment, b: usize) -> usize {
        suffix_swar(
            &self.packed.ops,
            &self.packed.dirs,
            self.syms.len(),
            &other.packed.ops,
            &other.packed.dirs,
            b,
            usize::MAX,
        )
    }

    /// Builds the per-[`OpKind`] position index used by the summary
    /// prefilter's confirm-window feasibility check.
    fn build_op_index(&mut self) {
        if !self.op_pos.is_empty() {
            return;
        }
        self.op_pos = vec![Vec::new(); OpKind::ALL.len()];
        for (i, s) in self.syms.iter().enumerate() {
            self.op_pos[s.op.index()].push(i as u32);
        }
    }
}

/// Backward common-suffix length of two tier symbol streams, capped at
/// `cap` symbols; `read` counts the symbol pairs compared.
fn common_suffix(a: &[Sym], b: &[Sym], cap: usize, read: &mut u64) -> usize {
    let limit = cap.min(a.len()).min(b.len());
    let n = a[a.len() - limit..]
        .iter()
        .rev()
        .zip(b[b.len() - limit..].iter().rev())
        .take_while(|&(&x, &y)| sym_compat(x, y))
        .count();
    *read += (n + 1).min(limit) as u64;
    n
}

/// A CS candidate: `(segment index, anchor end offset)` — the anchor's
/// last symbol sits at `offset` (inclusive) in that segment.
type Candidate = (usize, usize);

/// One hole as the summary prefilter and both complete-segment sources
/// see it: the post-hole window the winning fill must reproduce, the
/// hole's timestamp budget, the timestamp span spliced entries
/// interpolate across (see [`hole_span`]), and the raw event estimate
/// a fill's length is judged against.
struct HoleCtx<'w> {
    post_window: &'w [Sym],
    budget: usize,
    span: (u64, u64),
    estimate: f64,
}

/// Rare-op positions a candidate's range may hold before the summary
/// prefilter keeps it undecided: a candidate with more than this many is
/// alive without a probe. Keeps the prefilter's worst case (a window of
/// ubiquitous op kinds) cheaper than the scoring it short-circuits; an
/// undecided candidate is simply not pruned.
const CONFIRM_PROBE_CAP: usize = 64;

/// Work counts of the candidate search, recorded as exact counters after
/// the join. They are not [`RecoveryStats`] fields: they measure the
/// search's cost, not its decisions, and the stats are part of every
/// report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SearchWork {
    /// Rare-op positions at which the summary prefilter compared the
    /// post-hole window.
    pub(crate) window_probes: u64,
    /// Symbol pairs the tier-1 and tier-2 suffix comparisons read.
    pub(crate) tier_symbols: u64,
}

impl SearchWork {
    pub(crate) fn merge(&mut self, other: &SearchWork) {
        self.window_probes += other.window_probes;
        self.tier_symbols += other.tier_symbols;
    }
}

/// The summary prefilter over one segment's candidates, in ascending
/// anchor order. A candidate whose suffix starts at `s` can confirm iff
/// the post-hole window occurs at a start in `[s, hi(s)]` with
/// `hi(s) = min(s + budget, len - y)`, so a window start the prefilter
/// compares must be a position of the window's rarest op kind, shifted
/// by that op's offset. Both range ends only grow with `s`: two cursors
/// over those positions slide along the segment, each position's window
/// compare runs at most once per hole, and the rightmost match in a
/// range keeps every later candidate that starts at or before it alive
/// without a look. A candidate is alive if more than
/// [`CONFIRM_PROBE_CAP`] positions fall in its range, or if one of them
/// matches the window.
struct Sweep<'r> {
    /// The segment's symbols.
    syms: &'r [Sym],
    /// Positions of the window's rarest op kind in the segment.
    positions: &'r [u32],
    /// That op's offset in the window.
    k_rare: usize,
    /// First position at or after the last counted range's start.
    lo: usize,
    /// First position past the last counted range's end.
    hi: usize,
    /// Every position in `lo..compared` past `found` was compared and
    /// did not match.
    compared: usize,
    /// Start of the rightmost window found to match.
    found: Option<usize>,
}

impl<'r> Sweep<'r> {
    /// A sweep over `cs` whose first candidate's suffix starts at
    /// `suffix_start`. The rarest op kind is the first of the window's
    /// least frequent in `cs`.
    fn new(cs: &'r IndexedSegment, window: &[Sym], suffix_start: usize) -> Sweep<'r> {
        let k_rare = (0..window.len())
            .min_by_key(|&k| cs.op_pos[window[k].op.index()].len())
            .unwrap_or(0);
        let positions = &cs.op_pos[window[k_rare].op.index()][..];
        let lo = positions.partition_point(|&p| (p as usize) < suffix_start + k_rare);
        Sweep {
            syms: &cs.syms,
            positions,
            k_rare,
            lo,
            hi: lo,
            compared: lo,
            found: None,
        }
    }

    /// Whether the candidate whose suffix starts at `suffix_start` (no
    /// lower than the previous call's) can confirm the hole `ctx`;
    /// `probes` counts the window compares this call ran.
    fn alive(&mut self, ctx: &HoleCtx<'_>, suffix_start: usize, probes: &mut u64) -> bool {
        let window = ctx.post_window;
        let len = self.syms.len();
        if len - suffix_start < window.len() {
            return false;
        }
        // Range ends never shrink: a match at or past this start is in range.
        if self.found.is_some_and(|s| s >= suffix_start) {
            return true;
        }
        let hi = suffix_start
            .saturating_add(ctx.budget)
            .min(len - window.len());
        let (ps, k) = (self.positions, self.k_rare);
        while self.lo < ps.len() && (ps[self.lo] as usize) < suffix_start + k {
            self.lo += 1;
        }
        self.hi = self.hi.max(self.lo);
        while self.hi < ps.len() && ps[self.hi] as usize <= hi + k {
            self.hi += 1;
        }
        if self.hi - self.lo > CONFIRM_PROBE_CAP {
            return true;
        }
        // `found` is behind this range, so nothing in `lo..compared`
        // matches: compare the rest right to left.
        let floor = self.compared.max(self.lo);
        self.compared = self.hi;
        for at in (floor..self.hi).rev() {
            *probes += 1;
            let from = ps[at] as usize - k;
            if window
                .iter()
                .zip(&self.syms[from..])
                .all(|(&w, &s)| sym_compat(s, w))
            {
                self.found = Some(from);
                return true;
            }
        }
        false
    }
}

/// One candidate of [`Recovery::candidate_stream`], with its segment's
/// cursors advanced to it.
struct Streamed<'r> {
    cand: Candidate,
    /// Its position in the filtered anchor list: the journal's rank.
    rank: u32,
    /// The summary prefilter proved it can never confirm.
    dead: bool,
    cs: &'r IndexedSegment,
    /// Tier-1 symbols before the candidate's suffix start.
    t1_before: usize,
}

/// The candidates for one hole, streamed in anchor-list order (segment,
/// then anchor end, ascending) with per-segment cursors: the tier-1
/// count before each suffix start and the summary prefilter's
/// [`Sweep`]. Both searches consume it, so each candidate costs the
/// same constant work whatever ranks it.
struct CandidateStream<'r, 'c> {
    indexed: &'r [IndexedSegment],
    list: std::slice::Iter<'r, Candidate>,
    /// The IS's own tail, never a usable CS for itself.
    own_tail: Candidate,
    /// The anchor, checked against candidates whose hashed key may
    /// collide (anchors longer than 8 ops).
    anchor: &'r [Sym],
    prefilter: Option<&'c HoleCtx<'c>>,
    rank: u32,
    /// Segment the cursors below describe.
    seg: usize,
    t1: usize,
    sweep: Option<Sweep<'r>>,
    window_probes: u64,
}

impl<'r> Iterator for CandidateStream<'r, '_> {
    type Item = Streamed<'r>;

    fn next(&mut self) -> Option<Streamed<'r>> {
        loop {
            let cand @ (si, end) = *self.list.next()?;
            let cs = &self.indexed[si];
            let x = self.anchor.len();
            if cand == self.own_tail
                || (x > 8
                    && !self
                        .anchor
                        .iter()
                        .zip(&cs.syms[end + 1 - x..])
                        .all(|(a, s)| a.op == s.op))
            {
                continue;
            }
            if si != self.seg {
                self.seg = si;
                self.t1 = cs.t1.partition_point(|&p| p as usize <= end);
                self.sweep = self
                    .prefilter
                    .map(|ctx| Sweep::new(cs, ctx.post_window, end + 1));
            }
            while self.t1 < cs.t1.len() && cs.t1[self.t1] as usize <= end {
                self.t1 += 1;
            }
            let dead = match (self.sweep.as_mut(), self.prefilter) {
                (Some(sweep), Some(ctx)) => !sweep.alive(ctx, end + 1, &mut self.window_probes),
                _ => false,
            };
            let rank = self.rank;
            self.rank += 1;
            return Some(Streamed {
                cand,
                rank,
                dead,
                cs,
                t1_before: self.t1,
            });
        }
    }
}

/// The timestamp span a CS splice interpolates across: the loss
/// record's, or a zero-width span at the IS's last event for a hole
/// with no loss record.
fn hole_span(segments: &[SegmentView], is_seg: usize, loss: Option<LossRecord>) -> (u64, u64) {
    let t = segments[is_seg].events.last().map_or(0, |e| e.ts);
    loss.map_or((t, t), |l| (l.first_ts, l.last_ts))
}

/// Where a decoded event sits: its projected node's location, falling
/// back to what the raw decode carried (JIT debug info). Emitted,
/// spliced and harvested entries all resolve locations through this.
pub(crate) fn event_loc(
    icfg: &Icfg,
    event: &BcEvent,
    node: Option<NodeId>,
) -> (Option<MethodId>, Option<Bci>) {
    match node {
        Some(n) => {
            let (m, b) = icfg.location(n);
            (Some(m), Some(b))
        }
        None => (event.method, event.bci),
    }
}

/// A complete segment as the confirm scan and the splice read it. The
/// in-run segments ([`RunSeg`]) and the persistent corpus's
/// ([`jportal_corpus::SegView`]) share one fill path, monomorphised per
/// source.
trait CsSource: Copy {
    /// Symbol count.
    fn len(self) -> usize;
    /// The symbol at position `i`.
    fn sym(self, i: usize) -> Sym;
    /// The projected ICFG node at `i`.
    fn node(self, i: usize) -> Option<NodeId>;
    /// The `(method, bci)` location at `i`.
    fn loc(self, i: usize) -> (Option<MethodId>, Option<Bci>);
    /// Ascending projection-seam positions strictly after `pos`.
    fn seams_after(self, pos: usize) -> impl Iterator<Item = usize>;
}

/// An in-run complete segment: the indexed symbols plus the projection
/// they were decoded with.
#[derive(Clone, Copy)]
struct RunSeg<'s> {
    syms: &'s [Sym],
    view: &'s SegmentView,
    icfg: &'s Icfg,
}

impl CsSource for RunSeg<'_> {
    fn len(self) -> usize {
        self.syms.len()
    }

    fn sym(self, i: usize) -> Sym {
        self.syms[i]
    }

    fn node(self, i: usize) -> Option<NodeId> {
        self.view.nodes[i]
    }

    fn loc(self, i: usize) -> (Option<MethodId>, Option<Bci>) {
        event_loc(self.icfg, &self.view.events[i], self.view.nodes[i])
    }

    fn seams_after(self, pos: usize) -> impl Iterator<Item = usize> {
        let b = &self.view.breaks;
        b[b.partition_point(|&s| s <= pos)..].iter().copied()
    }
}

/// A corpus segment carries no ICFG node (the corpus outlives any one
/// projection), so the linter grades its splices like unlocated ones;
/// locations and seams come from what the harvest recorded.
impl CsSource for SegView<'_> {
    fn len(self) -> usize {
        self.len
    }

    fn sym(self, i: usize) -> Sym {
        SegView::sym(&self, i)
    }

    fn node(self, _: usize) -> Option<NodeId> {
        None
    }

    fn loc(self, i: usize) -> (Option<MethodId>, Option<Bci>) {
        let (m, b) = SegView::loc(&self, i);
        (m.map(MethodId), b.map(Bci))
    }

    fn seams_after(self, pos: usize) -> impl Iterator<Item = usize> {
        let b = self.breaks;
        b[b.partition_point(|&s| s as usize <= pos)..]
            .iter()
            .map(|&s| s as usize)
    }
}

/// What a successful confirm scan found. The budget clipped the scan
/// when `max_fill < available`.
#[derive(Clone, Copy)]
struct Confirmed {
    /// Offset of the post-hole window past the suffix start: the fill
    /// is the `d` symbols before it.
    d: usize,
    /// The scan's reach, `budget.min(available)`.
    max_fill: usize,
    /// Symbols after the candidate's anchor.
    available: usize,
}

/// The confirm scan: the first offset `d ∈ 0..=budget` past
/// `suffix_start` at which `cs` reproduces the post-hole window. A scan
/// the budget clips counts one [`RecoveryStats::budget_truncations`],
/// confirmed or not.
fn confirm_scan<S: CsSource>(
    cs: S,
    suffix_start: usize,
    ctx: &HoleCtx<'_>,
    stats: &mut RecoveryStats,
) -> Option<Confirmed> {
    let available = cs.len().saturating_sub(suffix_start);
    let max_fill = ctx.budget.min(available);
    if max_fill < available {
        stats.budget_truncations += 1;
    }
    let window = ctx.post_window;
    (0..=max_fill)
        .take_while(|d| suffix_start + d + window.len() <= cs.len())
        .find(|d| {
            let from = suffix_start + d;
            window
                .iter()
                .enumerate()
                .all(|(k, &s)| sym_compat(cs.sym(from + k), s))
        })
        .map(|d| Confirmed {
            d,
            max_fill,
            available,
        })
}

/// Splices `cs[from..from + len]` into a hole spanning `(t0, t1)`:
/// recovered entries with interpolated timestamps, and lint steps whose
/// seams are the splice point plus the CS's own projection seams.
/// Spliced content stands in for events the hardware dropped, so every
/// seam inside it is lossy for the linter.
fn splice<S: CsSource>(cs: S, from: usize, len: usize, (t0, t1): (u64, u64)) -> Fill {
    let mut fill = Fill::default();
    let mut seams = cs.seams_after(from).peekable();
    for k in 0..len {
        let i = from + k;
        let s = cs.sym(i);
        let (method, bci) = cs.loc(i);
        let ts = if len > 1 {
            t0 + (t1 - t0) * k as u64 / (len as u64 - 1)
        } else {
            t0
        };
        fill.entries.push(TraceEntry {
            op: s.op,
            method,
            bci,
            ts,
            origin: TraceOrigin::Recovered,
        });
        let boundary = k == 0 || seams.next_if_eq(&i).is_some();
        fill.steps.push(LintStep {
            node: cs.node(i),
            op: s.op,
            dir: s.dir,
            boundary,
            lossy: boundary,
        });
    }
    fill
}

/// The candidate [`Recovery::fill_from_ranked`] spliced, with what each
/// source's journal event reports about it.
struct CsFill<C> {
    cand: C,
    score: usize,
    runner_up: usize,
    truncated: bool,
    fill: Fill,
}

/// Key of the anchor index: the opcode sequence of an anchor window,
/// always one `Copy` word (see [`jportal_corpus::anchor_key`]).
///
/// Anchors are short (`anchor_len` defaults to 3), so the common case
/// packs the opcodes into one `u64` — `OpKind` is `#[repr(u8)]` — and a
/// probe is hash-one-word. Longer anchors (> 8 opcodes, never under
/// default configs) hash the op slice directly instead of allocating a
/// `Vec` spelling per lookup; hashed keys can collide, so the
/// [`CandidateStream`] verifies each candidate's window against the
/// query ops for long anchors — a collision costs one wasted compare,
/// never a wrong candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct AnchorKey(u64);

impl AnchorKey {
    fn of(anchor: &[Sym]) -> AnchorKey {
        AnchorKey(jportal_corpus::anchor_key(anchor))
    }
}

/// Reusable buffers for [`Recovery::fill_hole_with`]: the fallback walk's
/// BFS parent map and queue, reusable across holes, plus the work counts
/// of the candidate searches run with it.
#[derive(Debug, Default)]
pub struct FillScratch {
    parent: FxHashMap<NodeId, NodeId>,
    queue: VecDeque<(NodeId, usize)>,
    /// Corpus candidate buffer, reused across holes so the corpus
    /// lookup path stays allocation-free per hole.
    corpus_cands: Vec<CorpusCandidate>,
    work: SearchWork,
}

impl FillScratch {
    /// A fresh, empty scratch.
    pub fn new() -> FillScratch {
        FillScratch::default()
    }

    /// Capacity high-water mark (BFS parent-map plus queue slots), read
    /// into a telemetry gauge after a thread's holes are filled.
    pub fn high_water(&self) -> usize {
        self.parent.capacity() + self.queue.capacity()
    }

    /// Work counts of every candidate search filled through this scratch.
    pub(crate) fn work(&self) -> SearchWork {
        self.work
    }
}

/// Per-hole cap on individually-journaled candidate events. Busy anchors
/// can have thousands of candidates; journaling the first few dozen
/// (always the head of the deterministic consideration order) keeps the
/// ring bounded while the tail is summarised by one
/// [`JournalEvent::CandidatesElided`].
const JOURNAL_CANDIDATES_MAX: u32 = 32;

/// Capped per-hole emitter of [`JournalEvent::CandidateConsidered`]
/// events. Candidates are scored sequentially in a deterministic order,
/// so the event stream is the same at any worker count.
struct CandidateJournal<'r, 'j> {
    rec: Option<&'r mut JournalRecorder<'j>>,
    hole: u32,
    emitted: u32,
    elided: u32,
}

impl<'r, 'j> CandidateJournal<'r, 'j> {
    fn new(rec: Option<&'r mut JournalRecorder<'j>>, hole: u32) -> CandidateJournal<'r, 'j> {
        CandidateJournal {
            rec,
            hole,
            emitted: 0,
            elided: 0,
        }
    }

    fn consider(&mut self, rank: u32, cand: Candidate, outcome: CandidateOutcome, score: usize) {
        let Some(rec) = self.rec.as_deref_mut() else {
            return;
        };
        if self.emitted >= JOURNAL_CANDIDATES_MAX {
            self.elided += 1;
            return;
        }
        self.emitted += 1;
        rec.emit(JournalEvent::CandidateConsidered {
            hole: self.hole,
            rank,
            cs_segment: cand.0 as u32,
            offset: cand.1 as u32,
            outcome,
            score: score.min(u32::MAX as usize) as u32,
        });
    }

    fn finish(&mut self) {
        if self.elided > 0 {
            if let Some(rec) = self.rec.as_deref_mut() {
                rec.emit(JournalEvent::CandidatesElided {
                    hole: self.hole,
                    count: self.elided,
                });
            }
        }
    }
}

/// Recovery engine over one thread's segments.
#[derive(Debug)]
pub struct Recovery<'a> {
    program: &'a Program,
    icfg: &'a Icfg,
    cfg: RecoveryConfig,
    /// Per-method dominator facts for anchor ranking (optional).
    doms: Option<&'a AnalysisIndex>,
    /// Interprocedural method summaries for candidate prefiltering
    /// (optional; see [`Recovery::with_summaries`]).
    summaries: Option<&'a SummaryTable>,
    /// Persistent cross-run segment corpus, consulted as a **secondary**
    /// candidate source (optional; see [`Recovery::with_corpus`]).
    corpus: Option<&'a Corpus>,
    indexed: Vec<IndexedSegment>,
    /// Anchor index: packed op-kind key → candidate positions.
    anchor_index: FxHashMap<AnchorKey, Vec<Candidate>>,
}

impl<'a> Recovery<'a> {
    /// Builds the recovery engine, indexing all segments as CS sources.
    pub fn new(
        program: &'a Program,
        icfg: &'a Icfg,
        segments: &[SegmentView],
        cfg: RecoveryConfig,
    ) -> Recovery<'a> {
        let indexed: Vec<IndexedSegment> = segments.iter().map(IndexedSegment::new).collect();
        let x = cfg.anchor_len;
        let mut anchor_index: FxHashMap<AnchorKey, Vec<Candidate>> = FxHashMap::default();
        for (si, seg) in indexed.iter().enumerate() {
            if seg.syms.len() < x + 1 {
                continue;
            }
            // Anchor ends at `end` (inclusive); a suffix must follow.
            for end in (x - 1)..seg.syms.len() - 1 {
                let key = AnchorKey::of(&seg.syms[end + 1 - x..=end]);
                anchor_index.entry(key).or_default().push((si, end));
            }
        }
        Recovery {
            program,
            icfg,
            cfg,
            doms: None,
            summaries: None,
            corpus: None,
            indexed,
            anchor_index,
        }
    }

    /// Attaches a persistent segment corpus as a **secondary** candidate
    /// source: for a hole, the corpus is consulted only after every
    /// in-run candidate fails the confirm scan, and before the fallback
    /// walk. In-run fills are therefore byte-identical with or without a
    /// corpus attached — what the corpus changes is holes that would
    /// otherwise degrade to a low-confidence walk or stay unfilled, which
    /// is why fill rate and mean confidence are non-decreasing in corpus
    /// size. Ignored (with a miss-free stats profile) when the corpus was
    /// indexed for a different `anchor_len` than this engine's.
    pub fn with_corpus(mut self, corpus: &'a Corpus) -> Recovery<'a> {
        self.corpus = Some(corpus);
        self
    }

    /// Supplies per-method dominator facts. When present, candidates with
    /// equal common-suffix scores are re-ranked: an anchor whose located
    /// instructions **dominate** the hole's resume point (the first
    /// located node after the hole) is a stronger witness — every
    /// execution reaching the resume point must have passed through it —
    /// so it wins the tie. The re-rank is a stable sort over the already
    /// deterministic ranking, so reports stay identical at any worker
    /// count.
    pub fn with_dominators(mut self, doms: &'a AnalysisIndex) -> Recovery<'a> {
        self.doms = Some(doms);
        self
    }

    /// Does nothing: candidate scoring is always sequential. The
    /// speculative parallel scoring this once enabled made a
    /// single-thread lossy analysis 2.1x slower with two workers than
    /// with one on a 2-core machine, because its uncapped suffix scans
    /// cost more than the capped sequential pruning saves. Kept only so
    /// existing callers, such as the repository benchmark, still compile.
    pub fn with_workers(self, _workers: usize) -> Recovery<'a> {
        self
    }

    /// Entries in the anchor index: one per complete-segment position an
    /// anchor can end at.
    pub(crate) fn anchor_inserts(&self) -> usize {
        self.anchor_index.values().map(Vec::len).sum()
    }

    /// Enables the summary prefilter. When present, candidates whose
    /// suffix **provably cannot contain this hole's confirm window**
    /// (the `y` post-hole symbols, within budget) are marked as the
    /// search streams past them — they can never be chosen as the fill.
    /// The check is **exact** up to a probe cap (an undecided candidate
    /// is kept),
    /// and pruned candidates still flow through Algorithm 4's gates and
    /// ranking unchanged (see [`Recovery::search_abstraction`]), so
    /// reconstructed timelines are identical with the prefilter on or
    /// off; what pruning buys is the journal-noise reduction and the
    /// `summary_pruned` diagnostics.
    ///
    /// Method-identity-based pruning (matching the candidate's located
    /// method against the IS's) was deliberately rejected: a projection
    /// restart can *relocate* a run to any window-matching position, so
    /// located method identity is not trustworthy evidence on lossy
    /// input — the same reasoning that grades the linter's frame checks
    /// (see `jportal_analysis::lint`). Only op-kind facts recorded by
    /// the hardware survive relocation, and this prefilter uses nothing
    /// else.
    pub fn with_summaries(mut self, summaries: &'a SummaryTable) -> Recovery<'a> {
        self.summaries = Some(summaries);
        for seg in &mut self.indexed {
            seg.build_op_index();
        }
        self
    }

    /// The IS `is_seg`'s anchor (its last `anchor_len` symbols, fewer
    /// when it is shorter) and the anchor-index entries for it.
    fn anchor_list(&self, is_seg: usize) -> (&[Sym], &[Candidate]) {
        let is = &self.indexed[is_seg];
        let x = self.cfg.anchor_len.min(is.syms.len());
        let anchor = &is.syms[is.syms.len() - x..];
        let list = if x == self.cfg.anchor_len {
            self.anchor_index.get(&AnchorKey::of(anchor))
        } else {
            None
        };
        (anchor, list.map_or(&[], Vec::as_slice))
    }

    /// Anchor-index entries for the IS `is_seg`'s anchor: about as many
    /// candidates as the search for the hole after it streams.
    pub(crate) fn anchor_hits(&self, is_seg: usize) -> usize {
        self.anchor_list(is_seg).1.len()
    }

    /// The candidate CS positions for the IS `is_seg`: every anchor-index
    /// entry for its anchor, tagged by the summary prefilter when `ctx`
    /// is given and summaries are attached.
    fn candidate_stream<'r, 'c>(
        &'r self,
        is_seg: usize,
        ctx: Option<&'c HoleCtx<'c>>,
    ) -> CandidateStream<'r, 'c> {
        let is = &self.indexed[is_seg];
        let (anchor, list) = self.anchor_list(is_seg);
        CandidateStream {
            indexed: &self.indexed,
            list: list.iter(),
            // An empty IS has no tail, and no candidates either.
            own_tail: (is_seg, is.syms.len().wrapping_sub(1)),
            anchor,
            prefilter: ctx.filter(|_| self.summaries.is_some()),
            rank: 0,
            seg: usize::MAX,
            t1: 0,
            sweep: None,
            window_probes: 0,
        }
    }

    /// **Algorithm 3**: naive CS search — full concrete comparison per
    /// candidate, ranked by a stable sort on the score.
    pub fn search_naive(
        &self,
        is_seg: usize,
        stats: &mut RecoveryStats,
    ) -> Vec<(Candidate, usize)> {
        let mut journal = CandidateJournal::new(None, 0);
        self.search_naive_journaled(
            is_seg,
            stats,
            None,
            &mut journal,
            &mut SearchWork::default(),
        )
    }

    /// Prefilter-pruned candidates keep their score (the ranking must be
    /// identical with the prefilter off) but are not journaled
    /// individually.
    fn search_naive_journaled(
        &self,
        is_seg: usize,
        stats: &mut RecoveryStats,
        ctx: Option<&HoleCtx<'_>>,
        journal: &mut CandidateJournal<'_, '_>,
        work: &mut SearchWork,
    ) -> Vec<(Candidate, usize)> {
        let is = &self.indexed[is_seg];
        let mut best = Vec::with_capacity(self.cfg.top_n + 1);
        let mut stream = self.candidate_stream(is_seg, ctx);
        for c in &mut stream {
            let m3 = is.concrete_suffix(c.cs, c.cand.1 + 1);
            if c.dead {
                stats.summary_pruned += 1;
            } else {
                stats.candidates += 1;
                journal.consider(c.rank, c.cand, CandidateOutcome::Scored, m3);
            }
            self.keep_top(&mut best, c.cand, m3);
        }
        work.window_probes += stream.window_probes;
        best
    }

    /// Inserts a scored candidate into the top-N list, after every kept
    /// candidate scoring at least as much: the first N of a stable sort
    /// by descending score over everything offered so far.
    fn keep_top(&self, best: &mut Vec<(Candidate, usize)>, cand: Candidate, score: usize) {
        let at = best.partition_point(|&(_, s)| s >= score);
        if at < self.cfg.top_n {
            best.insert(at, (cand, score));
            best.truncate(self.cfg.top_n);
        }
    }

    /// **Algorithm 4**: abstraction-guided CS search with tier-1/tier-2
    /// pruning (Theorem 5.5): each tier-l measurement is capped at
    /// `mₗ + 64`, since a capped measurement only ever prunes candidates
    /// that cannot win.
    pub fn search_abstraction(
        &self,
        is_seg: usize,
        stats: &mut RecoveryStats,
    ) -> Vec<(Candidate, usize)> {
        let mut journal = CandidateJournal::new(None, 0);
        self.search_abstraction_journaled(
            is_seg,
            stats,
            None,
            &mut journal,
            &mut SearchWork::default(),
        )
    }

    /// One pass over [`Recovery::candidate_stream`]. The IS's tier counts
    /// are its whole tier streams, so a candidate's tier-1 measurement
    /// is one backward compare of two contiguous streams from its
    /// cursor; tier 2 and the concrete tier run only for the candidates
    /// tier 1 keeps.
    ///
    /// Prefilter-pruned candidates are processed through **exactly** the
    /// same gates, maxima updates and ranking as live ones — the ranked
    /// list (and therefore the chosen fill) is identical with the
    /// prefilter on or off by construction, not by a theorem about what
    /// pruning may drop. What they skip is every per-candidate journal
    /// event; they are tallied as [`RecoveryStats::summary_pruned`]
    /// instead of [`RecoveryStats::candidates`].
    fn search_abstraction_journaled(
        &self,
        is_seg: usize,
        stats: &mut RecoveryStats,
        ctx: Option<&HoleCtx<'_>>,
        journal: &mut CandidateJournal<'_, '_>,
        work: &mut SearchWork,
    ) -> Vec<(Candidate, usize)> {
        let is = &self.indexed[is_seg];
        let mut best: Vec<(Candidate, usize)> = Vec::with_capacity(self.cfg.top_n + 1);
        // Running maxima ⟨m1, m2, m3⟩ of Algorithm 4; pruning compares
        // against the weakest kept candidate when the list is full.
        let (mut m1, mut m2, mut m3) = (0usize, 0usize, 0usize);
        let mut stream = self.candidate_stream(is_seg, ctx);
        for c in &mut stream {
            let Streamed {
                cand,
                rank,
                dead,
                cs,
                t1_before,
            } = c;
            let (_, end) = cand;
            if dead {
                stats.summary_pruned += 1;
            } else {
                stats.candidates += 1;
            }
            let full = self.cfg.top_n <= best.len();
            // Tier 1: cheap test first.
            let ml1 = common_suffix(
                &is.t1_syms,
                &cs.t1_syms[..t1_before],
                m1 + 64,
                &mut work.tier_symbols,
            );
            if full && ml1 < m1 {
                if !dead {
                    stats.pruned_tier1 += 1;
                    journal.consider(rank, cand, CandidateOutcome::PrunedTier1, ml1);
                }
                continue;
            }
            let t2_before = cs.t2.partition_point(|&p| p as usize <= end);
            let ml2 = common_suffix(
                &is.t2_syms,
                &cs.t2_syms[..t2_before],
                m2 + 64,
                &mut work.tier_symbols,
            );
            if full && ml2 < m2 {
                if !dead {
                    stats.pruned_tier2 += 1;
                    journal.consider(rank, cand, CandidateOutcome::PrunedTier2, ml2);
                }
                continue;
            }
            let ml3 = is.concrete_suffix(cs, end + 1);
            if ml3 >= m3 {
                m3 = ml3;
                m1 = ml1;
                m2 = ml2;
            }
            if !dead {
                journal.consider(rank, cand, CandidateOutcome::Scored, ml3);
            }
            self.keep_top(&mut best, cand, ml3);
        }
        work.window_probes += stream.window_probes;
        best
    }

    /// Fills the hole after `is_seg`, reusing `scratch` buffers for the
    /// fallback walk; callers filling many holes (one per loss record per
    /// thread) keep one scratch alive across all of them.
    pub fn fill_hole_with(
        &self,
        segments: &[SegmentView],
        is_seg: usize,
        post_seg: usize,
        loss: Option<LossRecord>,
        stats: &mut RecoveryStats,
        scratch: &mut FillScratch,
    ) -> Fill {
        let mut inert = Journal::recorder(None, 0);
        self.fill_hole_journaled(
            segments, is_seg, post_seg, loss, stats, scratch, &mut inert, 1,
        )
    }

    /// [`Recovery::fill_hole_with`] plus flight-recorder emission: the
    /// hole opening, every considered candidate (capped, with the tier it
    /// died at), the winner with its margin and confidence, the fallback
    /// walk, or the unfilled verdict — all through `recorder`, keyed
    /// under the IS's segment index. `hole` is the 1-based hole index
    /// within the thread (matching `ThreadReport::holes` order).
    #[allow(clippy::too_many_arguments)]
    pub fn fill_hole_journaled(
        &self,
        segments: &[SegmentView],
        is_seg: usize,
        post_seg: usize,
        loss: Option<LossRecord>,
        stats: &mut RecoveryStats,
        scratch: &mut FillScratch,
        recorder: &mut JournalRecorder<'_>,
        hole: u32,
    ) -> Fill {
        stats.holes += 1;
        let post = &self.indexed[post_seg];
        let budget = self.hole_budget(segments, is_seg, loss);
        let ctx = HoleCtx {
            post_window: &post.syms[..self.cfg.confirm_len.min(post.syms.len())],
            budget,
            span: hole_span(segments, is_seg, loss),
            // The raw (pre-`budget_factor`) event estimate: the best guess
            // at how many truth events the hole actually swallowed.
            estimate: budget as f64 / self.cfg.budget_factor.max(1.0),
        };

        if recorder.is_enabled() {
            recorder.set_segment(is_seg as u32);
            let is = &self.indexed[is_seg];
            let x = self.cfg.anchor_len.min(is.syms.len());
            let (first_ts, last_ts) = loss.map_or((0, 0), |l| (l.first_ts, l.last_ts));
            recorder.emit(JournalEvent::HoleOpened {
                hole,
                first_ts,
                last_ts,
                anchor_len: self.cfg.anchor_len as u32,
                anchor: spell_anchor(&is.syms[is.syms.len() - x..]),
                budget: budget as u64,
            });
        }
        let pre_candidates = stats.candidates;
        let pre_summary_pruned = stats.summary_pruned;
        // An empty post window means nothing can ever confirm, so there
        // is no point prefiltering.
        let prefilter = (!ctx.post_window.is_empty()).then_some(&ctx);
        let mut journal =
            CandidateJournal::new(recorder.is_enabled().then_some(&mut *recorder), hole);
        let work = &mut scratch.work;
        let mut ranked = if self.cfg.use_abstraction {
            self.search_abstraction_journaled(is_seg, stats, prefilter, &mut journal, work)
        } else {
            self.search_naive_journaled(is_seg, stats, prefilter, &mut journal, work)
        };
        journal.finish();
        if self.summaries.is_some() {
            let pruned = stats.summary_pruned - pre_summary_pruned;
            let considered = stats.candidates - pre_candidates + pruned;
            if considered > 0 {
                recorder.emit(JournalEvent::SummaryPrefilter {
                    hole,
                    considered: considered as u32,
                    pruned: pruned as u32,
                });
            }
        }
        self.rank_with_dominators(&mut ranked, segments, post_seg);

        let in_run = |(si, end): Candidate| {
            let cs = RunSeg {
                syms: &self.indexed[si].syms,
                view: &segments[si],
                icfg: self.icfg,
            };
            (cs, end + 1)
        };
        if let Some(won) = self.fill_from_ranked(&ranked, in_run, &ctx, stats) {
            let (si, end) = won.cand;
            recorder.emit(JournalEvent::CandidateChosen {
                hole,
                cs_segment: si as u32,
                offset: end as u32,
                score: won.score as u32,
                runner_up: won.runner_up as u32,
                margin: won.score.saturating_sub(won.runner_up) as u32,
                fill_len: won.fill.entries.len() as u32,
                budget: budget as u64,
                truncated: won.truncated,
                confidence_ppm: ppm(won.fill.confidence),
            });
            return won.fill;
        }

        // Secondary source: the persistent cross-run corpus, consulted
        // only now that every in-run candidate has failed to confirm —
        // so attaching a corpus never changes an in-run fill, and a
        // growing corpus can only upgrade walk/unfilled holes.
        if let Some(fill) = self.corpus_fill(is_seg, &ctx, stats, scratch, recorder, hole) {
            return fill;
        }

        // Fallback: walk the ICFG between the surrounding nodes.
        stats.fallback_walks += 1;
        if let Some(mut fill) = self.walk_fill(segments, is_seg, post_seg, loss, scratch) {
            fill.confidence = walk_confidence(fill.entries.len(), ctx.estimate);
            stats.filled_by_walk += 1;
            stats.recovered_events += fill.entries.len();
            recorder.emit(JournalEvent::FallbackWalk {
                hole,
                fill_len: fill.entries.len() as u32,
                confidence_ppm: ppm(fill.confidence),
            });
            return fill;
        }
        stats.unfilled += 1;
        recorder.emit(JournalEvent::HoleUnfilled { hole });
        Fill::default()
    }

    /// Tries to fill the hole from the persistent corpus: candidates
    /// come from the corpus's sharded anchor index
    /// (O(candidates-for-anchor) regardless of corpus size), are ranked
    /// by the SWAR common suffix against the IS, and the top-N go
    /// through the same confirm → splice → confidence path as in-run
    /// candidates. Returns `None` — falling through to the walk — when
    /// no corpus is attached, its anchor length differs from the
    /// engine's, or nothing confirms.
    fn corpus_fill(
        &self,
        is_seg: usize,
        ctx: &HoleCtx<'_>,
        stats: &mut RecoveryStats,
        scratch: &mut FillScratch,
        recorder: &mut JournalRecorder<'_>,
        hole: u32,
    ) -> Option<Fill> {
        let corpus = self.corpus?;
        let x = self.cfg.anchor_len;
        let is = &self.indexed[is_seg];
        if corpus.anchor_len() != x || is.syms.len() < x {
            return None;
        }
        corpus.candidates_into(&is.syms[is.syms.len() - x..], &mut scratch.corpus_cands);
        let candidates = scratch.corpus_cands.len() as u32;
        stats.corpus_lookups += 1;
        stats.corpus_candidates += scratch.corpus_cands.len();

        // Rank by SWAR common suffix, index order breaking ties — the
        // corpus candidate order is deterministic, so the ranking is too.
        let mut ranked: Vec<(CorpusCandidate, usize)> = scratch
            .corpus_cands
            .iter()
            .map(|&(seg, end)| {
                let v = corpus.segment(seg);
                let score = suffix_swar(
                    &is.packed.ops,
                    &is.packed.dirs,
                    is.syms.len(),
                    v.ops,
                    v.dirs,
                    end as usize + 1,
                    usize::MAX,
                );
                ((seg, end), score)
            })
            .collect();
        ranked.sort_by_key(|&(_, score)| std::cmp::Reverse(score));
        ranked.truncate(self.cfg.top_n);

        let stored = |(seg, end): CorpusCandidate| (corpus.segment(seg), end as usize + 1);
        let Some(won) = self.fill_from_ranked(&ranked, stored, ctx, stats) else {
            stats.corpus_misses += 1;
            recorder.emit(JournalEvent::CorpusLookup {
                hole,
                candidates,
                hit: false,
                cs_segment: 0,
                score: 0,
                fill_len: 0,
                confidence_ppm: 0,
            });
            return None;
        };
        stats.corpus_hits += 1;
        recorder.emit(JournalEvent::CorpusLookup {
            hole,
            candidates,
            hit: true,
            cs_segment: won.cand.0,
            score: won.score.min(u32::MAX as usize) as u32,
            fill_len: won.fill.entries.len() as u32,
            confidence_ppm: ppm(won.fill.confidence),
        });
        Some(won.fill)
    }

    /// Confirm → splice → confidence over one source's ranked
    /// candidates: the first candidate, in rank order, whose suffix
    /// confirms the post-hole window within the budget is spliced into
    /// the hole and scored. `source` maps a candidate to its complete
    /// segment and the suffix start right after its anchor.
    fn fill_from_ranked<C: Copy, S: CsSource>(
        &self,
        ranked: &[(C, usize)],
        source: impl Fn(C) -> (S, usize),
        ctx: &HoleCtx<'_>,
        stats: &mut RecoveryStats,
    ) -> Option<CsFill<C>> {
        // A `y`-window cut to nothing by an empty post segment can never
        // confirm: no candidate is scanned, so none counts a budget
        // truncation either.
        if self.cfg.confirm_len > 0 && ctx.post_window.is_empty() {
            return None;
        }
        for (idx, &(cand, score)) in ranked.iter().enumerate() {
            let (cs, suffix_start) = source(cand);
            let Some(hit) = confirm_scan(cs, suffix_start, ctx, stats) else {
                continue;
            };
            let mut fill = splice(cs, suffix_start, hit.d, ctx.span);
            // Margin over the best *other* ranked score: candidates
            // earlier in rank order failed to confirm, so a non-top
            // winner gets margin 0 (its score was not the best).
            let runner_up = if idx == 0 {
                ranked.get(1).map_or(0, |&(_, s)| s)
            } else {
                ranked[0].1
            };
            fill.confidence = cs_confidence(
                score,
                runner_up,
                ranked.len() == 1,
                hit.max_fill,
                hit.available,
                fill.entries.len(),
                ctx.estimate,
            );
            stats.filled_from_cs += 1;
            stats.recovered_events += fill.entries.len();
            return Some(CsFill {
                cand,
                score,
                runner_up,
                truncated: hit.max_fill < hit.available,
                fill,
            });
        }
        None
    }

    /// Stable dominator-informed re-rank of the candidate list (see
    /// [`Recovery::with_dominators`]): ties on the common-suffix score are
    /// broken by how many of the anchor's located instructions dominate
    /// the hole's resume point.
    fn rank_with_dominators(
        &self,
        ranked: &mut [(Candidate, usize)],
        segments: &[SegmentView],
        post_seg: usize,
    ) {
        let Some(doms) = self.doms else { return };
        let Some(&resume) = segments[post_seg].nodes.iter().flatten().next() else {
            return;
        };
        let (rm, rb) = self.icfg.location(resume);
        let x = self.cfg.anchor_len;
        let bonus = |&(si, end): &Candidate| -> usize {
            segments[si].nodes[end + 1 - x..=end]
                .iter()
                .flatten()
                .filter(|&&n| {
                    let (m, b) = self.icfg.location(n);
                    m == rm && doms.bci_dominates(m, b, rb)
                })
                .count()
        };
        ranked.sort_by_key(|(cand, score)| {
            (std::cmp::Reverse(*score), std::cmp::Reverse(bonus(cand)))
        });
    }

    /// Estimated maximum number of events the hole can hold, from its
    /// timestamp span and the IS's observed event rate.
    fn hole_budget(
        &self,
        segments: &[SegmentView],
        is_seg: usize,
        loss: Option<LossRecord>,
    ) -> usize {
        let Some(loss) = loss else {
            return self.cfg.max_walk;
        };
        let is = &segments[is_seg];
        let span = loss.last_ts.saturating_sub(loss.first_ts).max(1);
        let is_events = is.events.len().max(2) as f64;
        let is_span = is
            .events
            .last()
            .map(|l| l.ts.saturating_sub(is.events[0].ts))
            .unwrap_or(0)
            .max(1) as f64;
        let rate = is_events / is_span; // events per cycle
        ((span as f64 * rate * self.cfg.budget_factor) as usize).clamp(4, 100_000)
    }

    /// Fallback: bounded breadth-first walk on the ICFG from the last
    /// projected node before the hole to the first projected node after
    /// it (the paper "walks the ICFG and returns a random path").
    fn walk_fill(
        &self,
        segments: &[SegmentView],
        is_seg: usize,
        post_seg: usize,
        loss: Option<LossRecord>,
        scratch: &mut FillScratch,
    ) -> Option<Fill> {
        let from = segments[is_seg]
            .nodes
            .iter()
            .rev()
            .flatten()
            .next()
            .copied()?;
        let to = segments[post_seg].nodes.iter().flatten().next().copied()?;
        let max = self.cfg.max_walk;
        // BFS for a shortest connecting path, on reusable buffers.
        let parent = &mut scratch.parent;
        let queue = &mut scratch.queue;
        parent.clear();
        queue.clear();
        queue.push_back((from, 0usize));
        parent.insert(from, from);
        let mut reached = false;
        while let Some((n, d)) = queue.pop_front() {
            if n == to && d > 0 {
                reached = true;
                break;
            }
            if d >= max {
                continue;
            }
            for e in self.icfg.edges(n) {
                if let std::collections::hash_map::Entry::Vacant(v) = parent.entry(e.to) {
                    v.insert(n);
                    queue.push_back((e.to, d + 1));
                }
            }
        }
        if !reached {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            path.push(cur);
            cur = parent[&cur];
        }
        path.reverse();
        // Drop the final node (it is the post segment's first event).
        path.pop();
        let (t0, t1) = loss.map_or((0, 0), |l| (l.first_ts, l.last_ts));
        let len = path.len().max(1) as u64;
        let mut fill = Fill::default();
        for (k, &n) in path.iter().enumerate() {
            let (m, b) = self.icfg.location(n);
            let insn = self.program.method(m).insn(b);
            let op = insn.op_kind();
            fill.entries.push(TraceEntry {
                op,
                method: Some(m),
                bci: Some(b),
                ts: t0 + (t1.saturating_sub(t0)) * k as u64 / len,
                origin: TraceOrigin::Walked,
            });
            // A walk is a real ICFG path starting at the IS's last located
            // node and ending one edge before the post segment's first —
            // edge-connected on both sides, so no boundaries: the linter
            // verifies every transition of the walk.
            fill.steps.push(LintStep::at(n, op));
        }
        Some(fill)
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_cfg::BranchDir;

    fn sym(op: OpKind) -> Sym {
        Sym::plain(op)
    }

    fn seg_from_ops(ops: &[OpKind]) -> SegmentView {
        SegmentView {
            events: ops
                .iter()
                .enumerate()
                .map(|(i, &op)| BcEvent {
                    sym: sym(op),
                    method: None,
                    bci: None,
                    ts: i as u64 * 10,
                })
                .collect(),
            nodes: vec![None; ops.len()],
            breaks: Vec::new(),
            loss_before: None,
        }
    }

    pub(super) fn tiny_program() -> (Program, Icfg) {
        use jportal_bytecode::builder::ProgramBuilder;
        use jportal_bytecode::Instruction as I;
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut m = pb.method(c, "main", 0, false);
        m.emit(I::Iconst(1));
        m.emit(I::Pop);
        m.emit(I::Return);
        let id = m.finish();
        let p = pb.finish_with_entry(id).unwrap();
        let icfg = Icfg::build(&p);
        (p, icfg)
    }

    use jportal_bytecode::Program;

    #[test]
    fn segment_entries_reuse_the_event_buffer() {
        let (_, icfg) = tiny_program();
        let mut seg = seg_from_ops(&[OpKind::Iconst, OpKind::Pop, OpKind::Return]);
        seg.nodes[1] = Some(icfg.node(MethodId(0), Bci(1)));
        let buffer = seg.events.as_ptr() as usize;
        let entries = seg.into_entries(&icfg);
        assert_eq!(entries.as_ptr() as usize, buffer, "rewritten in place");
        let locs: Vec<_> = entries.iter().map(|e| (e.method, e.bci)).collect();
        assert_eq!(locs[0], (None, None));
        assert_eq!(locs[1], (Some(MethodId(0)), Some(Bci(1))));
        assert_eq!(entries[2].ts, 20);
        assert!(entries.iter().all(|e| e.origin == TraceOrigin::Decoded));
    }

    #[test]
    fn indexed_segment_tiers() {
        let seg = IndexedSegment::new(&seg_from_ops(&[
            OpKind::Iload,
            OpKind::InvokeStatic,
            OpKind::Ifeq,
            OpKind::Iadd,
            OpKind::Ireturn,
        ]));
        assert_eq!(seg.t1, vec![1, 4]);
        assert_eq!(seg.t2, vec![1, 2, 4]);
        assert_eq!(seg.tier_count_before(Tier::CallStructure, 5), 2);
        assert_eq!(seg.tier_count_before(Tier::Control, 3), 2);
        assert_eq!(seg.tier_count_before(Tier::Concrete, 3), 3);
    }

    #[test]
    fn tier_suffix_lengths_obey_lemma_5_4() {
        // |α_l(ω0) ◦ α_l(ω1)| ≥ |α_l(ω0 ◦ ω1)| spot check.
        let a = IndexedSegment::new(&seg_from_ops(&[
            OpKind::Iload,
            OpKind::Ifeq,
            OpKind::Iadd,
            OpKind::Istore,
        ]));
        let b = IndexedSegment::new(&seg_from_ops(&[
            OpKind::Istore,
            OpKind::Ifeq,
            OpKind::Iadd,
            OpKind::Istore,
        ]));
        let m3 = a.tier_suffix(4, &b, 4, Tier::Concrete, usize::MAX);
        assert_eq!(m3, 3);
        let m2 = a.tier_suffix(4, &b, 4, Tier::Control, usize::MAX);
        assert_eq!(m2, 1, "one control symbol in the shared region");
        // Abstract suffix can only be ≥ the abstraction of the concrete
        // common suffix (here: equal).
        assert!(m2 >= 1);
    }

    pub(super) fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The summary prefilter's [`Sweep`] must agree exactly with the
    /// confirm scan both sources fill through (scan
    /// `d ∈ 0..=budget.min(available)` for a window match): a pruned
    /// candidate that the scan would actually confirm changes the chosen
    /// fill, breaking the on/off report equivalence. Each query sweeps a
    /// random ascending subset of suffix starts, as the candidate stream
    /// does. Segments stay below [`CONFIRM_PROBE_CAP`] occurrences so the
    /// cap never forces a conservative "alive" answer and the check must
    /// be *exact*, not just sound.
    #[test]
    fn confirm_prefilter_matches_literal_confirm_scan() {
        use OpKind as O;
        let (p, icfg) = tiny_program();
        let pool = [
            O::Iadd,
            O::Isub,
            O::Dup,
            O::Pop,
            O::Ifeq,
            O::InvokeStatic,
            O::Ireturn,
        ];
        let mut s = 0x5EED_u64;
        let mut pruned = 0usize;
        let mut alive = 0usize;
        for _ in 0..200 {
            let len = 3 + (splitmix(&mut s) % 60) as usize;
            let ops: Vec<OpKind> = (0..len)
                .map(|_| pool[(splitmix(&mut s) % pool.len() as u64) as usize])
                .collect();
            let segs = vec![seg_from_ops(&ops)];
            let mut rec = Recovery::new(&p, &icfg, &segs, RecoveryConfig::default());
            for seg in &mut rec.indexed {
                seg.build_op_index();
            }
            let cs = &rec.indexed[0];
            for _ in 0..20 {
                let y = 1 + (splitmix(&mut s) % 5) as usize;
                let window: Vec<Sym> = (0..y)
                    .map(|_| sym(pool[(splitmix(&mut s) % pool.len() as u64) as usize]))
                    .collect();
                let budget = (splitmix(&mut s) % 40) as usize;
                let ctx = HoleCtx {
                    post_window: &window,
                    budget,
                    span: (0, 0),
                    estimate: 0.0,
                };
                let ends: Vec<usize> = (0..len).filter(|_| splitmix(&mut s) & 1 == 0).collect();
                let Some(&first) = ends.first() else {
                    continue;
                };
                let mut sweep = Sweep::new(cs, &window, first + 1);
                for end in ends {
                    let got = sweep.alive(&ctx, end + 1, &mut 0);
                    let run_seg = RunSeg {
                        syms: &cs.syms,
                        view: &segs[0],
                        icfg: &icfg,
                    };
                    let expect =
                        confirm_scan(run_seg, end + 1, &ctx, &mut RecoveryStats::default())
                            .is_some();
                    assert_eq!(
                        got, expect,
                        "ops={ops:?} end={end} window={window:?} budget={budget}"
                    );
                    if expect {
                        alive += 1;
                    } else {
                        pruned += 1;
                    }
                }
            }
        }
        // The sweep must actually exercise both verdicts.
        assert!(pruned > 100, "too few unconfirmable cases: {pruned}");
        assert!(alive > 100, "too few confirmable cases: {alive}");
    }

    /// Builds the paper's Figure 6 scenario: an IS `…XEF⋄` with the true
    /// continuation `GHX`, a good CS containing `…CDXEFGHX…`, and a decoy
    /// whose anchor matches but whose prefix does not.
    fn figure6() -> (Program, Icfg, Vec<SegmentView>) {
        let (p, icfg) = tiny_program();
        use OpKind as O;
        // Alphabet mapping: A..Z → arbitrary distinct op kinds.
        let (a, b, c, d, e, f, g, h, x, j, y, m) = (
            O::Iadd,
            O::Isub,
            O::Imul,
            O::Iand,
            O::Ior,
            O::Ixor,
            O::Ishl,
            O::Ishr,
            O::Dup,
            O::Pop,
            O::Swap,
            O::Ineg,
        );
        // CS #1 (good): M C D X E F G H X B D C A C B X E F J Y X B
        let cs1 = seg_from_ops(&[
            m, c, d, x, e, f, g, h, x, b, d, c, a, c, b, x, e, f, j, y, x, b,
        ]);
        // CS #2 (decoy): A C D X E F B D C A — wait, the decoy in the
        // paper matches the anchor XEF but has a *different* prefix; build
        // one with no shared prefix before the anchor.
        let cs2 = seg_from_ops(&[y, j, x, e, f, j, j, j, j, j]);
        // IS: … C D X E F ⋄   (prefix shares "CD" with CS#1)
        let mut is = seg_from_ops(&[a, c, d, x, e, f]);
        is.loss_before = None;
        // Post segment: B D C A …
        let mut post = seg_from_ops(&[b, d, c, a, m, m]);
        post.loss_before = Some(LossRecord {
            stream_offset: 0,
            first_ts: 60,
            last_ts: 100,
            lost_bytes: 10,
            lost_packets: 3,
        });
        (p, icfg, vec![cs1, cs2, is, post])
    }

    #[test]
    fn figure6_recovery_prefers_the_matching_cs() {
        let (p, icfg, segs) = figure6();
        let cfg = RecoveryConfig {
            anchor_len: 3,
            confirm_len: 3,
            budget_factor: 16.0,
            ..RecoveryConfig::default()
        };
        let rec = Recovery::new(&p, &icfg, &segs, cfg);
        let mut stats = RecoveryStats::default();
        let fill = rec.fill_hole_with(
            &segs,
            2,
            3,
            segs[3].loss_before,
            &mut stats,
            &mut FillScratch::new(),
        );
        // Fill must be G H X (the CS suffix up to where BDC matches).
        let ops: Vec<OpKind> = fill.entries.iter().map(|e| e.op).collect();
        assert_eq!(ops, vec![OpKind::Ishl, OpKind::Ishr, OpKind::Dup]);
        assert!(fill
            .entries
            .iter()
            .all(|e| e.origin == TraceOrigin::Recovered));
        // A CS splice starts at a seam; steps align with entries.
        assert_eq!(fill.steps.len(), fill.entries.len());
        assert!(fill.steps[0].boundary);
        assert_eq!(stats.filled_from_cs, 1);
        assert_eq!(stats.holes, 1);
    }

    /// Both sources splice through one path: Figure 6's winning CS,
    /// harvested into a corpus, fills the hole with exactly the entries
    /// and seams the in-run splice produces.
    #[test]
    fn corpus_splice_equals_in_run_splice() {
        let (p, icfg, mut segs) = figure6();
        for (i, e) in segs[0].events.iter_mut().enumerate() {
            e.method = Some(MethodId(0));
            e.bci = Some(Bci(i as u32));
        }
        // A projection seam inside the spliced window `G H X` (6..=8).
        segs[0].breaks = vec![7];
        let cfg = RecoveryConfig {
            anchor_len: 3,
            confirm_len: 3,
            budget_factor: 16.0,
            ..RecoveryConfig::default()
        };
        let loss = segs[3].loss_before;
        let mut stats = RecoveryStats::default();
        let in_run = Recovery::new(&p, &icfg, &segs, cfg).fill_hole_with(
            &segs,
            2,
            3,
            loss,
            &mut stats,
            &mut FillScratch::new(),
        );
        assert_eq!(stats.filled_from_cs, 1);

        let mut builder = jportal_corpus::CorpusBuilder::new(cfg.anchor_len);
        let (syms, locs, breaks) = segs[0].harvest(&icfg);
        assert!(builder.insert(&syms, &locs, &breaks));
        let corpus = builder.finish();
        // Without the good CS in-run only the decoy is left, which cannot
        // confirm, so the hole falls through to the corpus.
        let rest = segs[1..].to_vec();
        let mut stats = RecoveryStats::default();
        let from_corpus = Recovery::new(&p, &icfg, &rest, cfg)
            .with_corpus(&corpus)
            .fill_hole_with(&rest, 1, 2, loss, &mut stats, &mut FillScratch::new());
        assert_eq!(stats.corpus_hits, 1);
        assert_eq!(from_corpus.entries, in_run.entries);
        let boundaries = |f: &Fill| f.steps.iter().map(|s| s.boundary).collect::<Vec<_>>();
        assert_eq!(boundaries(&from_corpus), boundaries(&in_run));
        assert_eq!(boundaries(&in_run), vec![true, true, false]);
    }

    /// An empty post window (only a direct call with an empty post
    /// segment produces one; compaction keeps `analyze` from it) can
    /// never confirm: no candidate is scanned, so none counts a budget
    /// truncation, even where the budget is far shorter than the suffix.
    #[test]
    fn empty_post_window_scans_no_candidate() {
        let (p, icfg, mut segs) = figure6();
        segs[3] = seg_from_ops(&[]);
        let loss = LossRecord {
            stream_offset: 0,
            first_ts: 60,
            last_ts: 61,
            lost_bytes: 1,
            lost_packets: 1,
        };
        let rec = Recovery::new(&p, &icfg, &segs, RecoveryConfig::default());
        let mut stats = RecoveryStats::default();
        let fill = rec.fill_hole_with(&segs, 2, 3, Some(loss), &mut stats, &mut FillScratch::new());
        assert!(fill.entries.is_empty());
        assert!(stats.candidates > 0, "the anchor has candidates: {stats:?}");
        assert_eq!(stats.budget_truncations, 0);
        assert_eq!(stats.unfilled, 1);
    }

    #[test]
    fn algorithm3_and_algorithm4_rank_the_same_winner() {
        let (p, icfg, segs) = figure6();
        let cfg = RecoveryConfig {
            anchor_len: 3,
            confirm_len: 3,
            ..RecoveryConfig::default()
        };
        let rec = Recovery::new(&p, &icfg, &segs, cfg);
        let mut s3 = RecoveryStats::default();
        let mut s4 = RecoveryStats::default();
        let naive = rec.search_naive(2, &mut s3);
        let guided = rec.search_abstraction(2, &mut s4);
        assert!(!naive.is_empty() && !guided.is_empty());
        assert_eq!(naive[0].0, guided[0].0, "same best CS");
        assert_eq!(naive[0].1, guided[0].1, "same concrete suffix length");
    }

    #[test]
    fn timestamps_interpolate_across_the_hole() {
        let (p, icfg, segs) = figure6();
        let cfg = RecoveryConfig {
            anchor_len: 3,
            confirm_len: 3,
            budget_factor: 16.0,
            ..RecoveryConfig::default()
        };
        let rec = Recovery::new(&p, &icfg, &segs, cfg);
        let mut stats = RecoveryStats::default();
        let fill = rec.fill_hole_with(
            &segs,
            2,
            3,
            segs[3].loss_before,
            &mut stats,
            &mut FillScratch::new(),
        );
        assert_eq!(fill.entries.first().unwrap().ts, 60);
        assert_eq!(fill.entries.last().unwrap().ts, 100);
    }

    #[test]
    fn unfillable_hole_falls_back_or_reports() {
        let (p, icfg) = tiny_program();
        // Two segments with nothing in common and no nodes projected:
        // neither CS search nor the walk can help.
        let segs = vec![
            seg_from_ops(&[OpKind::Iadd, OpKind::Isub, OpKind::Imul, OpKind::Iand]),
            seg_from_ops(&[OpKind::Swap, OpKind::Dup, OpKind::Pop]),
        ];
        let rec = Recovery::new(&p, &icfg, &segs, RecoveryConfig::default());
        let mut stats = RecoveryStats::default();
        let fill = rec.fill_hole_with(&segs, 0, 1, None, &mut stats, &mut FillScratch::new());
        assert!(fill.entries.is_empty());
        assert_eq!(stats.unfilled, 1);
    }

    #[test]
    fn walk_fallback_connects_projected_nodes() {
        let (p, icfg) = tiny_program();
        // IS ends projected at node(main, 0); post starts at node(main, 2).
        let entry = p.entry();
        let mut is = seg_from_ops(&[OpKind::Iconst]);
        is.nodes = vec![Some(icfg.node(entry, Bci(0)))];
        let mut post = seg_from_ops(&[OpKind::Return]);
        post.nodes = vec![Some(icfg.node(entry, Bci(2)))];
        let segs = vec![is, post];
        let rec = Recovery::new(&p, &icfg, &segs, RecoveryConfig::default());
        let mut stats = RecoveryStats::default();
        let fill = rec.fill_hole_with(&segs, 0, 1, None, &mut stats, &mut FillScratch::new());
        assert_eq!(stats.filled_by_walk, 1);
        // The walk passes through bci 1 (pop).
        assert_eq!(fill.entries.len(), 1);
        assert_eq!(fill.entries[0].op, OpKind::Pop);
        assert_eq!(fill.entries[0].origin, TraceOrigin::Walked);
        // Walk steps are located and boundary-free: fully lintable.
        assert!(fill.steps.iter().all(|s| s.node.is_some() && !s.boundary));
    }

    #[test]
    fn seeded_fault_in_recovered_segment_is_linted() {
        use jportal_analysis::{lint_steps_summarized, LintStep};
        let (p, icfg) = tiny_program();
        let entry = p.entry();
        let mut is = seg_from_ops(&[OpKind::Iconst]);
        is.nodes = vec![Some(icfg.node(entry, Bci(0)))];
        let mut post = seg_from_ops(&[OpKind::Return]);
        post.nodes = vec![Some(icfg.node(entry, Bci(2)))];
        let segs = vec![is, post];
        let rec = Recovery::new(&p, &icfg, &segs, RecoveryConfig::default());
        let mut stats = RecoveryStats::default();
        let fill = rec.fill_hole_with(&segs, 0, 1, None, &mut stats, &mut FillScratch::new());
        assert_eq!(stats.filled_by_walk, 1);

        // Splice the fill between the located IS tail and post head, the
        // way `assemble_thread` does (segment starts are seams).
        let splice = |fill_steps: &[LintStep]| {
            let mut steps = vec![LintStep::at(icfg.node(entry, Bci(0)), OpKind::Iconst).seam()];
            steps.extend_from_slice(fill_steps);
            steps.push(LintStep::at(icfg.node(entry, Bci(2)), OpKind::Return));
            steps
        };
        // The honest fill is feasible end to end.
        assert!(lint_steps_summarized(&p, &icfg, splice(&fill.steps), None).is_empty());

        // Seeded fault: corrupt the recovered step to claim the walk
        // revisited bci 0 — no such ICFG edge exists, and the linter
        // must say so.
        let mut bad = fill.steps.clone();
        bad[0] = LintStep::at(icfg.node(entry, Bci(0)), OpKind::Iconst);
        let diags = lint_steps_summarized(&p, &icfg, splice(&bad), None);
        assert!(
            !diags.is_empty(),
            "corrupted recovered segment must produce a diagnostic"
        );
    }

    #[test]
    fn dir_compat_matters_in_matching() {
        assert!(sym_compat(
            Sym::plain(OpKind::Ifeq),
            Sym::branch(OpKind::Ifeq, true)
        ));
        assert!(!sym_compat(
            Sym::branch(OpKind::Ifeq, false),
            Sym::branch(OpKind::Ifeq, true)
        ));
        assert!(!sym_compat(sym(OpKind::Iadd), sym(OpKind::Isub)));
        let _ = BranchDir::Unknown;
    }
}
