//! The end-to-end JPortal pipeline.
//!
//! Ties together trace segregation (§6), decoding (§3), ICFG projection
//! (§4) and missing-data recovery (§5) into one call:
//! [`JPortal::analyze`] takes what the online component collected — the
//! per-core PT traces with sideband and the exported machine-code
//! metadata — and produces, per thread, the reconstructed bytecode-level
//! control-flow trace with per-entry provenance.

use jportal_analysis::{
    lint_steps_journaled, AnalysisIndex, LintDiagnostic, LintSummary, Rta, SummaryTable,
};
use jportal_bytecode::Program;
use jportal_cfg::abs::{AbstractNfa, DfaCacheStats};
use jportal_cfg::{Icfg, MatchScratch};
use jportal_corpus::{Corpus, CorpusBuilder};
use jportal_ipt::ring::LossRecord;
use jportal_ipt::{CollectedTraces, CollectionStats, ThreadId};
use jportal_jvm::MetadataArchive;
use jportal_obs::{
    JournalEvent, MetricClass, Obs, ProfileConfig, Profiler, TelemetryConfig, TelemetryPlane,
    TelemetryReport,
};
use std::cell::RefCell;

use crate::decode::{decode_segment_with, WalkIndex};
use crate::quality::{FillQuality, QualityReport, ThreadQuality};
use crate::reconstruct::{project_segment_with, ProjectionConfig, ProjectionStats};
use crate::recover::{
    Fill, FillScratch, HarvestSeg, Recovery, RecoveryConfig, RecoveryStats, SearchWork, SegmentView,
};
pub use crate::recover::{TraceEntry, TraceOrigin};
use crate::threads::{segregate_with_stats, ThreadPiece};

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JPortalConfig {
    /// Projection (§4) tuning.
    pub projection: ProjectionConfig,
    /// Recovery (§5) tuning.
    pub recovery: RecoveryConfig,
    /// Disable recovery entirely (ablation: what decoding alone gives).
    pub disable_recovery: bool,
    /// Build the ICFG over RTA-refined virtual-call targets instead of
    /// plain CHA. Sound for traces produced by executions rooted at
    /// [`Program::entry`] (call sites in methods RTA cannot reach keep
    /// their full CHA target set, so even foreign roots only lose the
    /// refinement, never correctness). Shrinks NFA nondeterminism during
    /// projection and the recovery search space.
    pub devirtualize: bool,
    /// Run the trace-feasibility linter over every reconstructed thread
    /// timeline and attach the diagnostics to the report.
    pub lint: bool,
    /// Build interprocedural method summaries (an abstract-interpretation
    /// fixpoint over the ICFG, see `jportal_analysis::summary`) and wire
    /// them through the pipeline: the §4 matcher screens restart
    /// candidates by method alphabet before the abstract-DFA probe, §5
    /// recovery pre-filters complete-segment candidates that provably
    /// cannot pass the hole's confirm scan, and the linter tracks the
    /// call stack across seams instead of resetting it. Reconstructed
    /// timelines are **identical** with this on or off (the matcher
    /// filter is subsumed by the abstract filter; prefiltered recovery
    /// candidates still rank exactly as before, they just skip per-candidate
    /// journaling — see `Recovery::with_summaries`) — only
    /// prune-rate diagnostics, journal decisions and lint precision
    /// change. Off is the ablation baseline.
    pub summaries: bool,
    /// Consult the persistent cross-run segment corpus (attached with
    /// [`JPortal::with_corpus_store`]) as a secondary recovery source:
    /// holes no in-run candidate can confirm are matched against the
    /// corpus's sharded anchor index before degrading to the fallback
    /// walk. Off by default — with the flag off (or no store attached)
    /// reports are byte-identical to the corpus-less pipeline.
    pub corpus: bool,
    /// Worker threads for the offline fan-out: `None` uses every core,
    /// `Some(1)` is the exact legacy sequential path (no threads spawned).
    ///
    /// The report is **identical for every setting** — parallel stages
    /// reassemble their results in deterministic order, including a
    /// thread's holes when spare workers fill them in parallel.
    pub parallelism: Option<usize>,
    /// Record telemetry (metrics and spans) during analysis. Designed to
    /// be cheap enough to leave on in production: the hot matcher inner
    /// loop carries no probes at all, and every other site amortizes to a
    /// shard-striped relaxed atomic add. With `false`, every probe
    /// reduces to a single branch on a `None` handle — no allocation, no
    /// atomics, nothing recorded.
    pub observability: bool,
    /// Live telemetry plane (see `jportal_obs::plane`): periodic series
    /// snapshots published at pipeline stage boundaries, scrapeable
    /// while an analysis runs. `None` (the default) adds **nothing** —
    /// no plane, no ticks, no new atomics — and reports stay
    /// byte-identical to a build without the feature. `Some` implies an
    /// enabled recording handle even when
    /// [`JPortalConfig::observability`] is off (live telemetry without
    /// instruments would publish empty snapshots).
    pub telemetry: Option<TelemetryConfig>,
    /// Continuous self-profiling (see `jportal_obs::profile`): a
    /// background sampler snapshots every worker's span stack through a
    /// seqlock — the workers never block — and folds the samples into a
    /// weighted stack profile served as folded stacks, a flamegraph SVG
    /// and pprof-style JSON alongside `/metrics.json` when a telemetry
    /// plane is attached. `None` (the default) adds **nothing** beyond
    /// one relaxed load per span open; `Some` implies an enabled
    /// recording handle like [`JPortalConfig::telemetry`]. Reports are
    /// byte-identical with profiling on or off. With
    /// [`ProfileConfig::deterministic`] set, sampling is driven by
    /// plane-tick boundaries instead of wall time, so the folded
    /// profile is identical at any worker count.
    pub profiling: Option<ProfileConfig>,
}

impl Default for JPortalConfig {
    fn default() -> JPortalConfig {
        JPortalConfig {
            projection: ProjectionConfig::default(),
            recovery: RecoveryConfig::default(),
            disable_recovery: false,
            devirtualize: true,
            lint: true,
            summaries: true,
            corpus: false,
            parallelism: None,
            observability: true,
            telemetry: None,
            profiling: None,
        }
    }
}

/// Per-thread reconstruction result.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadReport {
    /// The thread.
    pub thread: ThreadId,
    /// The reconstructed control-flow trace.
    pub entries: Vec<TraceEntry>,
    /// Hole time ranges `(first_ts, last_ts)` that recovery worked on.
    pub holes: Vec<(u64, u64)>,
    /// Projection statistics summed over segments.
    pub projection: ProjectionStats,
    /// Recovery statistics.
    pub recovery: RecoveryStats,
    /// Number of decoded segments.
    pub segments: usize,
    /// Feasibility-linter diagnostics over the reconstructed timeline
    /// (empty when linting is disabled or the timeline is clean).
    pub lint: Vec<LintDiagnostic>,
}

/// The full analysis result.
#[derive(Debug, Clone, Default)]
pub struct JPortalReport {
    /// Per-thread reconstructions, sorted by thread id.
    pub threads: Vec<ThreadReport>,
    /// Abstract-DFA transition-cache counters for this analysis
    /// (diagnostics; see [`DfaCacheStats`]).
    pub dfa_cache: DfaCacheStats,
    /// Per-core collection-side summary: what the online component
    /// exported and what it dropped (per-core lost bytes/packets,
    /// overflow spans, effective drain rate) before the offline pipeline
    /// ever ran.
    pub collection: CollectionStats,
    /// Per-fill confidence rollup (see [`crate::quality`]). Diagnostic,
    /// so excluded from report equality like `dfa_cache`/`collection`.
    pub quality: QualityReport,
}

/// Report equality deliberately ignores the telemetry fields —
/// [`JPortalReport::dfa_cache`], [`JPortalReport::collection`] and
/// [`JPortalReport::quality`].
/// The DFA cache counters depend on worker scheduling (two workers can
/// both miss on a key one of them is about to fill) and the collection
/// summary describes the *input* traces rather than the reconstruction;
/// only [`JPortalReport::threads`] is part of the determinism contract.
/// The same exclusion covers everything recorded through
/// [`JPortal::telemetry`]: metric values and span structure are
/// deterministic where documented, but timings never are.
impl PartialEq for JPortalReport {
    fn eq(&self, other: &JPortalReport) -> bool {
        self.threads == other.threads
    }
}

impl JPortalReport {
    /// The report for one thread.
    pub fn thread(&self, id: ThreadId) -> Option<&ThreadReport> {
        self.threads.iter().find(|t| t.thread == id)
    }

    /// Total reconstructed entries over all threads.
    pub fn total_entries(&self) -> usize {
        self.threads.iter().map(|t| t.entries.len()).sum()
    }

    /// Aggregated feasibility-linter summary over all threads.
    pub fn lint_summary(&self) -> LintSummary {
        let mut s = LintSummary::default();
        for t in &self.threads {
            s.merge(&LintSummary::of(&t.lint));
        }
        s
    }

    /// Entries by provenance: `(decoded, recovered, walked)`.
    pub fn provenance_counts(&self) -> (usize, usize, usize) {
        let mut d = 0;
        let mut r = 0;
        let mut w = 0;
        for t in &self.threads {
            for e in &t.entries {
                match e.origin {
                    TraceOrigin::Decoded => d += 1,
                    TraceOrigin::Recovered => r += 1,
                    TraceOrigin::Walked => w += 1,
                }
            }
        }
        (d, r, w)
    }
}

/// The JPortal offline analyzer.
///
/// # Examples
///
/// ```no_run
/// use jportal_bytecode::Program;
/// use jportal_core::JPortal;
/// use jportal_jvm::{Jvm, JvmConfig};
///
/// # fn example(program: &Program) {
/// let result = Jvm::new(JvmConfig::default()).run(program);
/// let jportal = JPortal::new(program);
/// let report = jportal.analyze(result.traces.as_ref().unwrap(), &result.archive);
/// for thread in &report.threads {
///     println!("{}: {} entries", thread.thread, thread.entries.len());
/// }
/// # }
/// ```
#[derive(Debug)]
pub struct JPortal<'p> {
    program: &'p Program,
    icfg: Icfg,
    /// Per-method static facts (dominators, loops), computed once before
    /// any parallel fan-out so every worker reads the same immutable
    /// index — part of the determinism contract.
    analysis: AnalysisIndex,
    /// Interprocedural method summaries, built once over the (possibly
    /// RTA-refined) ICFG and shared read-only by every worker; `None`
    /// when [`JPortalConfig::summaries`] is off.
    summaries: Option<SummaryTable>,
    config: JPortalConfig,
    /// Persistent cross-run segment corpus, shared read-only by every
    /// worker; consulted only when [`JPortalConfig::corpus`] is on.
    corpus: Option<std::sync::Arc<Corpus>>,
    /// Telemetry sink shared by every stage; inert when
    /// [`JPortalConfig::observability`] is off.
    obs: Obs,
    /// Live telemetry plane, present only when
    /// [`JPortalConfig::telemetry`] is on; ticked at stage boundaries.
    plane: Option<std::sync::Arc<TelemetryPlane>>,
    /// Span-stack sampling profiler, present only when
    /// [`JPortalConfig::profiling`] is on; stopped (sampler thread
    /// joined) when the analyzer drops.
    profiler: Option<std::sync::Arc<Profiler>>,
}

/// Candidates a thread's hole searches stream, summed, below which its
/// holes are filled on the calling thread even with workers to spare:
/// the worker threads cost more than the searches they would share. On
/// 2 vCPUs the lossy fop@3 trace (34 holes, 22k candidates) ran 10%
/// slower with two workers, fop@4 (71 holes, 91k) about as fast, and
/// fop@5 (124 holes, 1.09M) 45% faster.
const HOLE_FAN_OUT_MIN_CANDIDATES: usize = 1 << 16;

/// One assembled thread: its report, fill quality, harvested segments
/// when harvesting, and, when the recovery engine was built, its
/// anchor-index size and the work its candidate searches did.
type Assembled = (
    ThreadReport,
    ThreadQuality,
    Option<Vec<HarvestSeg>>,
    Option<(usize, SearchWork)>,
);

/// Stops the sampler thread (and decrements the global profiling
/// enable-count, so span opens stop pushing frames) when the analyzer
/// goes away. Dropping mid-analysis is fine — workers only ever see the
/// flag flip, never a dangling stack.
impl Drop for JPortal<'_> {
    fn drop(&mut self) {
        if let Some(profiler) = &self.profiler {
            profiler.stop();
        }
    }
}

impl<'p> JPortal<'p> {
    /// Builds the analyzer (constructs the program's ICFG over RTA-refined
    /// call targets, plus the per-method static-fact index).
    pub fn new(program: &'p Program) -> JPortal<'p> {
        JPortal::with_config(program, JPortalConfig::default())
    }

    /// Builds the analyzer with explicit configuration.
    pub fn with_config(program: &'p Program, config: JPortalConfig) -> JPortal<'p> {
        let icfg = if config.devirtualize {
            let rta = Rta::analyze(program);
            Icfg::build_with_targets(program, &rta)
        } else {
            Icfg::build(program)
        };
        let summaries = config
            .summaries
            .then(|| SummaryTable::build(program, &icfg));
        let obs = Obs::new(
            config.observability || config.telemetry.is_some() || config.profiling.is_some(),
        );
        let plane = config
            .telemetry
            .map(|t| TelemetryPlane::new(obs.clone(), t));
        let profiler = config.profiling.map(Profiler::start);
        if let (Some(plane), Some(profiler)) = (&plane, &profiler) {
            // Deterministic profiles sample at plane ticks; wall-clock
            // profiles ride along so `/profile/*` can serve snapshots.
            plane.attach_profiler(profiler.clone());
        }
        JPortal {
            program,
            icfg,
            analysis: AnalysisIndex::build(program),
            summaries,
            corpus: None,
            obs,
            plane,
            profiler,
            config,
        }
    }

    /// Attaches a persistent segment corpus (see `jportal-corpus`).
    /// Consulted during recovery only when [`JPortalConfig::corpus`] is
    /// also on; the corpus must have been indexed with the same
    /// `anchor_len` as [`JPortalConfig::recovery`] to contribute. A
    /// corpus is program-version-specific: method ids and bytecode
    /// indices are only meaningful against the program that produced
    /// them.
    pub fn with_corpus_store(mut self, corpus: std::sync::Arc<Corpus>) -> JPortal<'p> {
        self.corpus = Some(corpus);
        self
    }

    /// The ICFG (exposed for clients that want to inspect projections).
    pub fn icfg(&self) -> &Icfg {
        &self.icfg
    }

    /// The static-fact index (exposed for clients and diagnostics).
    pub fn analysis(&self) -> &AnalysisIndex {
        &self.analysis
    }

    /// The interprocedural summary table, when
    /// [`JPortalConfig::summaries`] is on (exposed for clients and
    /// diagnostics).
    pub fn summaries(&self) -> Option<&SummaryTable> {
        self.summaries.as_ref()
    }

    /// The telemetry handle (for registering client metrics or opening
    /// client spans around calls into the analyzer).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The live telemetry plane, when [`JPortalConfig::telemetry`] is
    /// on. Clone the `Arc` into anything that should feed or serve it:
    /// `TelemetryServer::bind` for scraping, `Jvm::with_telemetry` so
    /// collection-side ring drains tick it too.
    pub fn telemetry_plane(&self) -> Option<&std::sync::Arc<TelemetryPlane>> {
        self.plane.as_ref()
    }

    /// The sampling profiler, when [`JPortalConfig::profiling`] is on.
    /// `Profiler::snapshot` at any point gives the profile so far;
    /// `ProfileSnapshot::folded_text` / `jportal_obs::flame_svg` render
    /// it, and an attached telemetry plane serves it live.
    pub fn profiler(&self) -> Option<&std::sync::Arc<Profiler>> {
        self.profiler.as_ref()
    }

    /// One stage-boundary tick of the live plane (no-op without one).
    /// In deterministic profiling mode the stage boundary *is* the
    /// sample point: with a plane attached the plane's tick samples
    /// (keeping sample indices aligned with published snapshot
    /// sequence numbers), otherwise the profiler samples here directly.
    fn tick_stage(&self) {
        if let Some(p) = &self.plane {
            p.tick_stage();
        } else if let Some(pr) = &self.profiler {
            if pr.config().deterministic {
                pr.sample_now();
            }
        }
    }

    /// Snapshot of everything recorded so far: metric values plus the
    /// span tree. Export with [`TelemetryReport::chrome_trace_json`],
    /// [`TelemetryReport::metrics_json`] or
    /// [`TelemetryReport::summary_table`]. Empty when
    /// [`JPortalConfig::observability`] is off.
    pub fn telemetry(&self) -> TelemetryReport {
        self.obs.telemetry()
    }

    /// Runs the full offline analysis.
    ///
    /// The work fans out over [`JPortalConfig::parallelism`] workers at
    /// two levels: decode+projection runs over every `(thread, piece)`
    /// pair of the whole trace at once (one global work list, so a core
    /// never idles because "its" thread finished early), then per-thread
    /// assembly — compaction, recovery, lint, entry emission — fans out
    /// across threads. The holes of one thread are independent (a fill
    /// reads only the compacted segments, never an earlier fill), so
    /// workers left over when there are fewer threads fill a busy
    /// thread's holes in parallel; each hole's candidates are searched
    /// sequentially. Results are reassembled in deterministic order at
    /// every join, so the report is identical for every worker count.
    pub fn analyze(&self, traces: &CollectedTraces, archive: &MetadataArchive) -> JPortalReport {
        self.analyze_impl(traces, archive, None)
    }

    /// [`JPortal::analyze`] plus corpus harvesting: every decoded
    /// complete segment of this run is inserted (dedup-aware) into
    /// `builder` after analysis, so the caller can persist it for future
    /// runs — the cross-run accumulation loop is load → analyze_harvest
    /// → save. Harvesting reads the same per-thread segment data the
    /// report is built from, in deterministic thread order after the
    /// parallel joins, so the builder's contents are identical at any
    /// worker count; the report itself is unchanged by harvesting.
    pub fn analyze_harvest(
        &self,
        traces: &CollectedTraces,
        archive: &MetadataArchive,
        builder: &mut CorpusBuilder,
    ) -> JPortalReport {
        self.analyze_impl(traces, archive, Some(builder))
    }

    fn analyze_impl(
        &self,
        traces: &CollectedTraces,
        archive: &MetadataArchive,
        mut harvest: Option<&mut CorpusBuilder>,
    ) -> JPortalReport {
        let obs = &self.obs;
        let _analyze = obs
            .span("pipeline", "analyze")
            .record_sketch(&obs.registry().sketch("core.analyze.wall_us"));
        let workers = jportal_par::effective_workers(self.config.parallelism);
        let anfa = AbstractNfa::with_metrics(self.program, &self.icfg, obs.registry());
        if workers > 1 {
            // One up-front pass fills the ANFA closure caches so the
            // projection workers start hot instead of racing to compute
            // the same entries.
            let _prewarm = obs.span("pipeline", "prewarm").arg("workers", workers);
            anfa.prewarm(workers);
        }

        // Collection-side telemetry: what the online component exported
        // and dropped, per core, before this pipeline ever saw the data.
        let collection = CollectionStats::of(traces);
        if obs.is_enabled() {
            collection.record_into(obs.registry());
            CollectionStats::emit_overflow_spans(traces, obs);
        }

        let (per_thread, decode_stats) = {
            let _segregate = obs.span("collect", "segregate");
            segregate_with_stats(traces, workers)
        };
        let mut thread_pieces: Vec<(ThreadId, Vec<ThreadPiece>)> = per_thread.into_iter().collect();
        thread_pieces.sort_by_key(|(t, _)| *t);
        // Stream-decode telemetry: summed in core order inside
        // `segregate_with_stats`, a pure function of the trace bytes —
        // identical at every parallelism setting.
        if obs.is_enabled() {
            let reg = obs.registry();
            reg.counter("ipt.decode.resync_bytes", MetricClass::Exact)
                .add(decode_stats.resync_bytes);
            reg.counter("ipt.decode.packets", MetricClass::Exact)
                .add(decode_stats.packets);
        }
        self.tick_stage();

        // Level 1: decode + project every (thread, piece) pair globally,
        // walking JIT code through one set of tables shared by every
        // worker.
        let walk_index = WalkIndex::new(self.program, archive);
        let work: Vec<(usize, usize)> = thread_pieces
            .iter()
            .enumerate()
            .flat_map(|(ti, (_, pieces))| (0..pieces.len()).map(move |pi| (ti, pi)))
            .collect();
        // Each worker thread keeps one `MatchScratch` for the whole pass
        // (workers are fresh scoped threads per par_map call, so the
        // thread-local starts empty and is reused across every piece the
        // worker claims — no per-segment frontier allocations).
        thread_local! {
            static PROJ_SCRATCH: RefCell<MatchScratch> = RefCell::new(MatchScratch::new());
        }
        let decode_sketch = obs.registry().sketch("core.decode.wall_us");
        let project_sketch = obs.registry().sketch("core.project.wall_us");
        // Per-worker scratch: its high water depends on which pieces
        // each worker claimed.
        let arena_hw = obs
            .registry()
            .gauge("core.project.scratch_arena_hw", MetricClass::Scheduling);
        // Both fan-outs share one queue gauge and collect-lock counter:
        // the pipeline never runs two fan-outs concurrently, so the
        // gauge always describes the active one.
        let par_metrics = jportal_par::ParMetrics::register(obs.registry());
        let projected: Vec<(SegmentView, ProjectionStats)> =
            jportal_par::par_map(workers, &work, &par_metrics, |_, &(ti, pi)| {
                let piece = &thread_pieces[ti].1[pi];
                // `piece.segment` carries its capture core from the
                // per-core drain path, so the decoded segment is already
                // attributed correctly. Worker threads start with an
                // empty span stack, so the parent is pinned explicitly —
                // the span tree is identical under any `parallelism`.
                let decoded = {
                    let _s = obs
                        .span("decode", "decode_segment")
                        .parent("analyze")
                        .arg("core", piece.core)
                        .record_sketch(&decode_sketch);
                    decode_segment_with(archive, &walk_index, &piece.segment)
                };
                debug_assert_eq!(decoded.core, piece.core);
                let proj = PROJ_SCRATCH.with(|s| {
                    let mut scratch = s.borrow_mut();
                    let _s = obs
                        .span("project", "project_segment")
                        .parent("analyze")
                        .arg("events", decoded.events.len())
                        .record_sketch(&project_sketch);
                    let proj = project_segment_with(
                        self.program,
                        &self.icfg,
                        &anfa,
                        &decoded.events,
                        &self.config.projection,
                        self.summaries.as_ref(),
                        &mut scratch,
                    );
                    arena_hw.set_max(scratch.arena_high_water() as u64);
                    proj
                });
                // Flight recorder: one `SegmentMatched` per piece, keyed
                // (thread, piece index, 0). Emission happens inside the
                // worker, but keys depend only on the work item — the
                // sorted snapshot is identical at any worker count.
                let mut rec = obs.journal_recorder(thread_pieces[ti].0 .0);
                if rec.is_enabled() {
                    rec.set_segment(pi as u32);
                    rec.emit(JournalEvent::SegmentMatched {
                        events: decoded.events.len() as u32,
                        matched: proj.stats.matched as u32,
                        restarts: proj.stats.restarts as u32,
                        frontier_width: proj.stats.frontier_width_max as u32,
                        candidates_tried: proj.stats.candidates_tried as u32,
                        candidates_pruned: proj.stats.candidates_pruned as u32,
                        dfa_path: proj.stats.dfa_runs > 0,
                    });
                }
                (
                    SegmentView {
                        events: decoded.events,
                        nodes: proj.nodes,
                        breaks: proj.breaks,
                        loss_before: decoded.loss_before,
                    },
                    proj.stats,
                )
            });

        // Regroup per thread, reducing projection statistics in piece
        // order (merge is commutative, but a fixed order keeps the code
        // trivially deterministic).
        let mut grouped: Vec<(ThreadId, Vec<SegmentView>, ProjectionStats)> = thread_pieces
            .iter()
            .map(|(t, _)| (*t, Vec::new(), ProjectionStats::default()))
            .collect();
        for (&(ti, _), (view, stats)) in work.iter().zip(projected) {
            grouped[ti].1.push(view);
            grouped[ti].2.merge(&stats);
        }
        self.tick_stage();

        // Level 2: per-thread assembly, fanned out across threads; the
        // workers left over when there are fewer threads fan out each
        // thread's holes.
        let harvesting = harvest.is_some();
        let hole_workers = workers / grouped.len().max(1);
        let assembled: Vec<Assembled> = jportal_par::par_map_owned(
            workers,
            grouped,
            &par_metrics,
            |_, (thread, views, projection)| {
                self.assemble_thread(thread, views, projection, harvesting, hole_workers)
            },
        );
        let mut threads = Vec::with_capacity(assembled.len());
        let mut quality = QualityReport::default();
        let (mut index_builds, mut anchor_inserts) = (0u64, 0u64);
        let mut search_work = SearchWork::default();
        for (t, q, h, index) in assembled {
            if let Some((inserts, work)) = index {
                index_builds += 1;
                anchor_inserts += inserts as u64;
                search_work.merge(&work);
            }
            // Harvest inserts happen here — after the join, in sorted
            // thread order — so the builder's segment order (and the
            // index built from it) is identical at any worker count.
            if let (Some(builder), Some(segs)) = (harvest.as_deref_mut(), h) {
                for (syms, locs, breaks) in segs {
                    builder.insert(&syms, &locs, &breaks);
                }
            }
            threads.push(t);
            quality.threads.push(q);
        }

        // Per-stage totals are summed *after* the joins, from the
        // deterministically merged per-thread statistics, rather than
        // bumped inside workers — so these counters register as
        // `MetricClass::Exact`, part of the determinism contract
        // (unlike the `cfg.dfa.*` cache counters, which record inline).
        if obs.is_enabled() {
            let reg = obs.registry();
            let sum = |f: &dyn Fn(&ThreadReport) -> usize| -> u64 {
                threads.iter().map(|t| f(t) as u64).sum()
            };
            let exact = |name: &str, total: u64| reg.counter(name, MetricClass::Exact).add(total);
            exact("core.threads", threads.len() as u64);
            exact("core.segments", sum(&|t| t.segments));
            exact("core.entries", sum(&|t| t.entries.len()));
            for &(name, field) in ProjectionStats::COUNTERS {
                exact(name, sum(&|t| field(&t.projection)));
            }
            for &(name, field) in RecoveryStats::COUNTERS {
                exact(name, sum(&|t| field(&t.recovery)));
            }
            exact("core.recover.index_builds", index_builds);
            exact("core.recover.anchor_inserts", anchor_inserts);
            exact("core.recover.window_probes", search_work.window_probes);
            exact("core.recover.tier_symbols", search_work.tier_symbols);
            if let Some(corpus) = self.corpus.as_deref() {
                reg.gauge("core.corpus.segments", MetricClass::Exact)
                    .set_max(corpus.segment_count() as u64);
            }
            if let Some(builder) = harvest.as_ref() {
                // Builder lifetime totals (may span several analyses):
                // gauges, not counters, so re-recording never inflates.
                reg.gauge("core.corpus.harvest_inserted", MetricClass::Exact)
                    .set_max(builder.inserted());
                reg.gauge("core.corpus.harvest_deduped", MetricClass::Exact)
                    .set_max(builder.deduped());
            }
            reg.gauge("cfg.dfa.interned", MetricClass::Scheduling)
                .set_max(anfa.dfa_stats().interned);
        }

        // `thread_pieces` was sorted by thread id and every join above is
        // order-preserving, so the report is already deterministically
        // sorted.
        let mut dfa_cache = anfa.dfa_stats();
        // The summary filter runs in front of the DFA, so its prune count
        // belongs with the DFA cache diagnostics; summed from the
        // deterministically merged per-thread stats.
        dfa_cache.summary_pruned = threads
            .iter()
            .map(|t| t.projection.summary_pruned as u64)
            .sum();
        // Close the analyze span before the final stage tick so this
        // run's `core.analyze.wall_us` is in the published snapshot.
        drop(_analyze);
        self.tick_stage();
        JPortalReport {
            threads,
            dfa_cache,
            collection,
            quality,
        }
    }

    /// Compacts one thread's projected segments, recovers across lossy
    /// boundaries and emits the final timeline. Each fill reads only the
    /// compacted segments, never an earlier fill, so the holes are
    /// independent: with `hole_workers > 1` they fan out over the shared
    /// recovery engine, each with its own scratch, stats and journal
    /// recorder, and everything is merged and emitted in hole order.
    ///
    /// The timeline is held once: lint and harvest read the segments
    /// and fills in place, and only then are the entries emitted,
    /// consuming the segments.
    ///
    /// The recovery engine, and with it the anchor and op-position
    /// indices, is built only when the thread has a hole to fill: a
    /// thread with no holes, or any thread with recovery disabled, never
    /// pays for it.
    fn assemble_thread(
        &self,
        thread: ThreadId,
        views: Vec<SegmentView>,
        projection: ProjectionStats,
        harvest: bool,
        hole_workers: usize,
    ) -> Assembled {
        let obs = &self.obs;
        let _assemble = obs
            .span("recover", "assemble_thread")
            .parent("analyze")
            .arg("thread", thread.0)
            .record_sketch(&obs.registry().sketch("core.assemble.wall_us"));
        // Drop empty segments but keep their loss marks attached to
        // the following segment.
        let mut compacted: Vec<SegmentView> = Vec::new();
        let mut pending_loss = None;
        for mut v in views {
            if v.loss_before.is_some() {
                pending_loss = v.loss_before;
            }
            if v.events.is_empty() {
                continue;
            }
            v.loss_before = pending_loss.take();
            compacted.push(v);
        }

        // Fill every hole: the segment after it and its loss record.
        let lossy: Vec<(usize, LossRecord)> = compacted
            .iter()
            .enumerate()
            .skip(1)
            .filter_map(|(i, v)| Some((i, v.loss_before?)))
            .collect();
        let holes: Vec<(u64, u64)> = lossy.iter().map(|(_, l)| (l.first_ts, l.last_ts)).collect();
        let recovery = (!self.config.disable_recovery && !lossy.is_empty())
            .then(|| self.recovery_engine(&compacted));
        let fill_sketch = obs.registry().sketch("core.recover.fill_wall_us");
        let filled: Vec<(Fill, RecoveryStats, SearchWork, usize)> = match &recovery {
            None => Vec::new(),
            Some(recovery) => {
                let candidates: usize = lossy
                    .iter()
                    .map(|&(i, _)| recovery.anchor_hits(i - 1))
                    .sum();
                let workers = if candidates >= HOLE_FAN_OUT_MIN_CANDIDATES {
                    hole_workers
                } else {
                    1
                };
                jportal_par::par_map(
                    workers,
                    &lossy,
                    &jportal_par::ParMetrics::noop(),
                    |h, &(i, loss)| {
                        let hole = h + 1;
                        // Pinned to the thread's span: a fan-out worker
                        // starts with an empty span stack.
                        let _fill = obs
                            .span("recover", "fill_hole")
                            .parent("assemble_thread")
                            .arg("thread", thread.0)
                            .arg("hole", hole)
                            .record_sketch(&fill_sketch);
                        let (mut stats, mut scratch) =
                            (RecoveryStats::default(), FillScratch::new());
                        let fill = recovery.fill_hole_journaled(
                            &compacted,
                            i - 1,
                            i,
                            Some(loss),
                            &mut stats,
                            &mut scratch,
                            &mut obs.journal_recorder(thread.0),
                            hole as u32,
                        );
                        (fill, stats, scratch.work(), scratch.high_water())
                    },
                )
            }
        };
        // Pair each fill with the segment after its hole, merging the
        // per-hole stats in hole order.
        let mut recovery_stats = RecoveryStats::default();
        let mut work = SearchWork::default();
        let mut scratch_hw = 0;
        let mut fills: Vec<FillQuality> = Vec::with_capacity(filled.len());
        let mut before: Vec<Option<Fill>> = vec![None; compacted.len()];
        for (&(i, _), (fill, stats, hole_work, hw)) in lossy.iter().zip(filled) {
            recovery_stats.merge(&stats);
            work.merge(&hole_work);
            scratch_hw = scratch_hw.max(hw);
            fills.push(FillQuality {
                hole: fills.len() + 1,
                origin: fill.entries.first().map(|e| e.origin),
                confidence: fill.confidence,
                entries: fill.entries.len(),
            });
            before[i] = Some(fill);
        }
        // Scheduling-dependent: the gauge is the max over whichever
        // threads each worker assembled.
        obs.registry()
            .gauge("core.recover.fill_scratch_hw", MetricClass::Scheduling)
            .set_max(scratch_hw as u64);
        // Dropped before the timeline is built: the engine holds an
        // indexed copy of every segment.
        let index = recovery.map(|r| (r.anchor_inserts(), work));

        // The timeline: each fill right before the segment after its
        // hole. Fill steps line up with fill entries, so this is both
        // the entry and the lint step count.
        let len = compacted.iter().map(|s| s.events.len()).sum::<usize>()
            + fills.iter().map(|f| f.entries).sum::<usize>();
        let lint = if self.config.lint {
            // Lint breaks go under the reserved segment key so they sort
            // after every per-segment decision for the thread.
            let mut recorder = obs.journal_recorder(thread.0);
            recorder.set_segment(jportal_obs::journal::LINT_SEGMENT);
            let steps = before.iter().zip(&compacted).flat_map(|(fill, seg)| {
                let fill = fill.iter().flat_map(|f| f.steps.iter().copied());
                fill.chain(seg.lint_steps())
            });
            lint_steps_journaled(
                self.program,
                &self.icfg,
                steps,
                len,
                self.summaries.as_ref(),
                obs,
                &mut recorder,
            )
        } else {
            Vec::new()
        };

        // Harvest this thread's decoded complete segments for the
        // persistent corpus.
        let harvested = harvest.then(|| {
            compacted
                .iter()
                .map(|seg| seg.harvest(&self.icfg))
                .collect()
        });

        // Emission consumes the segments; the first event buffer,
        // rewritten in place, seeds the timeline.
        let segments = compacted.len();
        let mut entries: Vec<TraceEntry> = Vec::new();
        for (fill, seg) in before.into_iter().zip(compacted) {
            entries.extend(fill.into_iter().flat_map(|f| f.entries));
            let decoded = seg.into_entries(&self.icfg);
            if entries.is_empty() {
                entries = decoded;
                entries.reserve_exact(len - entries.len());
            } else {
                entries.extend(decoded);
            }
        }

        (
            ThreadReport {
                thread,
                entries,
                holes,
                projection,
                recovery: recovery_stats,
                segments,
                lint,
            },
            ThreadQuality { thread, fills },
            harvested,
            index,
        )
    }

    /// The recovery engine over one thread's compacted segments.
    fn recovery_engine(&self, compacted: &[SegmentView]) -> Recovery<'_> {
        let mut recovery = Recovery::new(self.program, &self.icfg, compacted, self.config.recovery)
            .with_dominators(&self.analysis);
        if let Some(table) = self.summaries.as_ref() {
            recovery = recovery.with_summaries(table);
        }
        if self.config.corpus {
            if let Some(corpus) = self.corpus.as_deref() {
                recovery = recovery.with_corpus(corpus);
            }
        }
        recovery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_bytecode::builder::ProgramBuilder;
    use jportal_bytecode::{CmpKind, Instruction as I};
    use jportal_jvm::runtime::{Jvm, JvmConfig};

    fn workload() -> Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut h = pb.method(c, "helper", 1, true);
        let odd = h.label();
        h.emit(I::Iload(0));
        h.emit(I::Iconst(2));
        h.emit(I::Irem);
        h.branch_if(CmpKind::Ne, odd);
        h.emit(I::Iconst(10));
        h.emit(I::Ireturn);
        h.bind(odd);
        h.emit(I::Iconst(20));
        h.emit(I::Ireturn);
        let helper = h.finish();
        let mut m = pb.method(c, "main", 0, false);
        let head = m.label();
        let done = m.label();
        m.emit(I::Iconst(50));
        m.emit(I::Istore(0));
        m.bind(head);
        m.emit(I::Iload(0));
        m.branch_if(CmpKind::Le, done);
        m.emit(I::Iload(0));
        m.emit(I::InvokeStatic(helper));
        m.emit(I::Pop);
        m.emit(I::Iinc(0, -1));
        m.jump(head);
        m.bind(done);
        m.emit(I::Return);
        let main = m.finish();
        pb.finish_with_entry(main).unwrap()
    }

    use jportal_bytecode::Program;

    #[test]
    fn clean_run_reconstructs_everything_decoded() {
        let p = workload();
        let r = Jvm::new(JvmConfig {
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        })
        .run(&p);
        let jp = JPortal::new(&p);
        let report = jp.analyze(r.traces.as_ref().unwrap(), &r.archive);
        assert_eq!(report.threads.len(), 1);
        let t = &report.threads[0];
        let truth_len = r.truth.trace(ThreadId(0)).len();
        assert_eq!(t.entries.len(), truth_len, "lossless run: 1:1 entries");
        let (d, rec, w) = report.provenance_counts();
        assert_eq!(d, truth_len);
        assert_eq!(rec + w, 0);
        // Every entry's location must match the truth exactly.
        for (e, truth) in t.entries.iter().zip(r.truth.trace(ThreadId(0))) {
            assert_eq!(e.method, Some(truth.method));
            assert_eq!(e.bci, Some(truth.bci));
        }
    }

    #[test]
    fn lossy_run_recovers_some_entries() {
        let p = workload();
        let r = Jvm::new(JvmConfig {
            pt_buffer_capacity: 640,
            drain_bytes_per_kilocycle: 6,
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        })
        .run(&p);
        let traces = r.traces.as_ref().unwrap();
        assert!(
            !traces.per_core[0].losses.is_empty(),
            "this configuration must lose data"
        );
        let jp = JPortal::new(&p);
        let report = jp.analyze(traces, &r.archive);
        let t = &report.threads[0];
        assert!(t.recovery.holes > 0);
        assert!(!t.holes.is_empty());
        let (_d, rec, w) = report.provenance_counts();
        assert!(rec + w > 0, "recovery must contribute entries");
    }

    #[test]
    fn disable_recovery_ablation() {
        let p = workload();
        let r = Jvm::new(JvmConfig {
            pt_buffer_capacity: 640,
            drain_bytes_per_kilocycle: 6,
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        })
        .run(&p);
        let jp = JPortal::with_config(
            &p,
            JPortalConfig {
                disable_recovery: true,
                ..JPortalConfig::default()
            },
        );
        let report = jp.analyze(r.traces.as_ref().unwrap(), &r.archive);
        let (_, rec, w) = report.provenance_counts();
        assert_eq!(rec + w, 0);
    }

    #[test]
    fn jit_mode_entries_carry_locations() {
        let p = workload();
        let r = Jvm::new(JvmConfig {
            c1_threshold: 4,
            c2_threshold: 12,
            ..JvmConfig::default()
        })
        .run(&p);
        assert!(r.compilations > 0);
        let jp = JPortal::new(&p);
        let report = jp.analyze(r.traces.as_ref().unwrap(), &r.archive);
        let t = &report.threads[0];
        let with_loc = t
            .entries
            .iter()
            .filter(|e| e.method.is_some() && e.bci.is_some())
            .count();
        assert!(
            with_loc as f64 / t.entries.len() as f64 > 0.95,
            "nearly all entries should be located"
        );
    }
}
