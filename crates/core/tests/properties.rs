//! The big end-to-end property: **any** runnable program traced without
//! loss reconstructs its control flow exactly, through both execution
//! modes — the invariant the entire system hangs on.

use proptest::prelude::*;

use jportal_bytecode::builder::ProgramBuilder;
use jportal_bytecode::{CmpKind, Instruction as I, Program};
use jportal_cfg::abs::AbstractNfa;
use jportal_cfg::{Icfg, MatchScratch};
use jportal_core::reconstruct::{project_segment_with, ProjectionConfig};
use jportal_core::{decode_segment, JPortal};
use jportal_ipt::{decode_packets, segment_stream, ThreadId};
use jportal_jvm::runtime::{Jvm, JvmConfig};

/// A random two-method program: `main` loops calling `f(i)` whose body
/// has a random branchy shape. Always terminates and verifies.
fn arb_program() -> impl Strategy<Value = Program> {
    (
        1i64..30,                                 // loop iterations
        prop::collection::vec(any::<u8>(), 1..6), // f's block script
    )
        .prop_map(|(iters, script)| {
            let mut pb = ProgramBuilder::new();
            let c = pb.add_class("P", None, 0);
            let mut f = pb.method(c, "f", 1, true);
            let exit = f.label();
            let labels: Vec<_> = (0..script.len()).map(|_| f.label()).collect();
            for (bi, &b) in script.iter().enumerate() {
                f.bind(labels[bi]);
                match b % 4 {
                    0 => {
                        f.emit(I::Iload(0));
                        f.emit(I::Iconst(1 + i64::from(b % 5)));
                        f.emit(I::Iadd);
                        f.emit(I::Istore(0));
                    }
                    1 => {
                        f.emit(I::Iload(0));
                        f.emit(I::Iconst(2));
                        f.emit(I::Irem);
                        // Branch forward only.
                        let t = labels
                            .get(bi + 1 + (b as usize % 2))
                            .copied()
                            .unwrap_or(exit);
                        f.branch_if(CmpKind::Eq, t);
                    }
                    2 => {
                        f.emit(I::Iload(0));
                        f.emit(I::Ineg);
                        f.emit(I::Istore(0));
                    }
                    _ => {
                        let t = labels.get(bi + 2).copied().unwrap_or(exit);
                        f.jump(t);
                    }
                }
            }
            f.bind(exit);
            f.emit(I::Iload(0));
            f.emit(I::Ireturn);
            let fid = f.finish();

            let mut m = pb.method(c, "main", 0, false);
            m.reserve_locals(2);
            let head = m.label();
            let done = m.label();
            m.emit(I::Iconst(iters));
            m.emit(I::Istore(1));
            m.bind(head);
            m.emit(I::Iload(1));
            m.branch_if(CmpKind::Le, done);
            m.emit(I::Iload(1));
            m.emit(I::InvokeStatic(fid));
            m.emit(I::Pop);
            m.emit(I::Iinc(1, -1));
            m.jump(head);
            m.bind(done);
            m.emit(I::Return);
            let main = m.finish();
            pb.finish_with_entry(main)
                .expect("generated program verifies")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lossless tracing + full pipeline == ground truth, exactly, for
    /// arbitrary programs — interpreted-only configuration.
    #[test]
    fn interpreted_reconstruction_is_exact(program in arb_program()) {
        let r = Jvm::new(JvmConfig {
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        })
        .run(&program);
        prop_assert!(r.thread_errors.is_empty());
        let report = JPortal::new(&program).analyze(r.traces.as_ref().unwrap(), &r.archive);
        let truth = r.truth.trace(ThreadId(0));
        let entries = &report.threads[0].entries;
        prop_assert_eq!(entries.len(), truth.len());
        for (e, t) in entries.iter().zip(truth) {
            prop_assert_eq!(e.method, Some(t.method));
            prop_assert_eq!(e.bci, Some(t.bci));
        }
    }

    /// Same invariant with aggressive tiered compilation: mode switches,
    /// JIT metadata and inline decoding must not cost a single event.
    #[test]
    fn tiered_reconstruction_is_exact(program in arb_program()) {
        let r = Jvm::new(JvmConfig {
            c1_threshold: 2,
            c2_threshold: 5,
            ..JvmConfig::default()
        })
        .run(&program);
        prop_assert!(r.thread_errors.is_empty());
        let report = JPortal::new(&program).analyze(r.traces.as_ref().unwrap(), &r.archive);
        let truth = r.truth.trace(ThreadId(0));
        let entries = &report.threads[0].entries;
        prop_assert_eq!(entries.len(), truth.len());
        for (e, t) in entries.iter().zip(truth) {
            prop_assert_eq!(e.method, Some(t.method));
            prop_assert_eq!(e.bci, Some(t.bci));
        }
    }

    /// Projection seams come out as the pipeline's seam cursor reads
    /// them: strictly ascending, never 0 and inside the segment — on
    /// clean decodes and on event streams with random deletions and
    /// reversed order, which force restarts.
    #[test]
    fn projection_breaks_are_strictly_increasing_and_in_range(
        program in arb_program(),
        drops in prop::collection::vec(any::<u16>(), 0..12),
    ) {
        let r = Jvm::new(JvmConfig {
            c1_threshold: 2,
            c2_threshold: 5,
            ..JvmConfig::default()
        })
        .run(&program);
        let icfg = Icfg::build(&program);
        let anfa = AbstractNfa::new(&program, &icfg);
        let mut scratch = MatchScratch::new();
        let trace = &r.traces.as_ref().unwrap().per_core[0];
        for raw in segment_stream(decode_packets(&trace.bytes), &trace.losses, 0) {
            let events = decode_segment(&program, &r.archive, &raw).events;
            let mut corrupted = events.clone();
            for &d in &drops {
                if !corrupted.is_empty() {
                    corrupted.remove(usize::from(d) % corrupted.len());
                }
            }
            corrupted.reverse();
            for events in [events, corrupted] {
                let proj = project_segment_with(
                    &program,
                    &icfg,
                    &anfa,
                    &events,
                    &ProjectionConfig::default(),
                    None,
                    &mut scratch,
                );
                prop_assert!(proj.breaks.first() != Some(&0));
                prop_assert!(proj.breaks.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(proj.breaks.iter().all(|&b| b < events.len()));
            }
        }
    }

    /// Under arbitrary buffer pressure the pipeline never fabricates
    /// timestamps out of range and provenance counts stay consistent.
    #[test]
    fn lossy_pipeline_invariants(program in arb_program(), buffer in 96usize..2048) {
        let r = Jvm::new(JvmConfig {
            pt_buffer_capacity: buffer,
            drain_bytes_per_kilocycle: 15,
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        })
        .run(&program);
        let report = JPortal::new(&program).analyze(r.traces.as_ref().unwrap(), &r.archive);
        let (d, rec, w) = report.provenance_counts();
        prop_assert_eq!(d + rec + w, report.total_entries());
        for t in &report.threads {
            for e in &t.entries {
                prop_assert!(e.ts <= r.wall_cycles);
                if let (Some(m), Some(b)) = (e.method, e.bci) {
                    // Location is a real instruction of the right kind.
                    prop_assert_eq!(program.method(m).insn(b).op_kind(), e.op);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The parallelism knob is invisible in the output: the legacy
    /// sequential path (`parallelism = Some(1)`), an explicit 4-worker
    /// fan-out and the all-cores default produce byte-identical reports
    /// on a lossy multi-threaded workload — serialized forms compared
    /// verbatim, so even statistics ordering cannot drift.
    #[test]
    fn parallel_analysis_is_deterministic(
        program in arb_program(),
        buffer in 256usize..2048,
        threads in 1usize..4,
    ) {
        use jportal_core::JPortalConfig;
        use jportal_jvm::runtime::ThreadSpec;

        let jvm = Jvm::new(JvmConfig {
            cores: 2,
            quantum: 700,
            pt_buffer_capacity: buffer,
            drain_bytes_per_kilocycle: 15,
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        });
        let entry = program.entry();
        let specs: Vec<ThreadSpec> = (0..threads)
            .map(|_| ThreadSpec { method: entry, args: vec![] })
            .collect();
        let r = jvm.run_threads(&program, &specs);
        let traces = r.traces.as_ref().unwrap();

        let run = |parallelism| {
            JPortal::with_config(&program, JPortalConfig { parallelism, ..JPortalConfig::default() })
                .analyze(traces, &r.archive)
        };
        let mut sequential = run(Some(1));
        let mut four_workers = run(Some(4));
        let mut default_workers = run(None);

        // Structural equality and serialized byte equality. The DFA
        // transition-cache counters are scheduling-dependent diagnostics
        // (two workers can both count a miss for the same key), so report
        // equality excludes them and the serialized comparison zeroes
        // them; everything else must match byte for byte.
        prop_assert_eq!(&sequential, &four_workers);
        prop_assert_eq!(&sequential, &default_workers);
        sequential.dfa_cache = Default::default();
        four_workers.dfa_cache = Default::default();
        default_workers.dfa_cache = Default::default();
        let ser_seq = format!("{sequential:?}");
        prop_assert_eq!(&ser_seq, &format!("{four_workers:?}"));
        prop_assert_eq!(&ser_seq, &format!("{default_workers:?}"));
    }
}
