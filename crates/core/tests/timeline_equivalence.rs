//! Timeline equivalence: `assemble_thread` holds a thread's timeline
//! once — lint reads the segments and fills in place, and emission
//! rewrites each segment's event buffer into its entries. The report
//! must equal what the materialising assembly gives (the test-support
//! oracle `support/materialised_timeline.rs`): identical entries,
//! identical lint diagnostics, and a lint step count equal to the
//! `analysis.lint.steps` counter — with summaries on and off, on one
//! worker and two.

use jportal_bytecode::builder::ProgramBuilder;
use jportal_bytecode::{Instruction as I, Program};
use jportal_core::{JPortal, JPortalConfig};
use jportal_ipt::CollectedTraces;
use jportal_jvm::runtime::{Jvm, JvmConfig, RunResult};
use jportal_workloads::{workload_by_name, Workload};

mod support {
    pub mod materialised_timeline;
}
use support::materialised_timeline::assemble;

/// Deterministic pseudo-random stream (SplitMix64) for corruption.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Overwrites stretches of the exported packet bytes with pseudo-random
/// garbage and truncates core 0's tail (as `tests/summary_equivalence.rs`
/// does): the decoder resyncs and the matcher sees nonsense windows.
fn corrupt(traces: &mut CollectedTraces, seed: u64) {
    let mut rng = Rng(seed);
    for (ci, core) in traces.per_core.iter_mut().enumerate() {
        if core.bytes.is_empty() {
            continue;
        }
        let stretches = 1 + core.bytes.len() / 400;
        for _ in 0..stretches {
            let start = (rng.next() as usize) % core.bytes.len();
            for off in 0..8 {
                if let Some(b) = core.bytes.get_mut(start + off) {
                    *b = (rng.next() & 0xff) as u8;
                }
            }
        }
        if ci == 0 {
            let keep = core.bytes.len() * 4 / 5;
            core.bytes.truncate(keep);
        }
    }
}

fn run(w: &Workload, buffer: Option<(usize, u64)>) -> RunResult {
    let defaults = JvmConfig::default();
    let (pt_buffer_capacity, drain_bytes_per_kilocycle) = buffer.unwrap_or((
        defaults.pt_buffer_capacity,
        defaults.drain_bytes_per_kilocycle,
    ));
    let r = Jvm::new(JvmConfig {
        cores: if w.multithreaded { 2 } else { 1 },
        pt_buffer_capacity,
        drain_bytes_per_kilocycle,
        ..defaults
    })
    .run_threads(&w.program, &w.threads);
    assert!(r.thread_errors.is_empty(), "{} failed", w.name);
    r
}

/// Checks one trace, analysed against `program`, in all four modes and
/// returns the diagnostics the oracle found.
fn check(case: &str, program: &Program, r: &RunResult) -> usize {
    let traces = r.traces.as_ref().unwrap();
    let mut diagnostics = 0;
    for summaries in [false, true] {
        let config = JPortalConfig {
            summaries,
            ..JPortalConfig::default()
        };
        let oracle = assemble(
            &JPortal::with_config(program, config),
            program,
            traces,
            &r.archive,
            &config,
        );
        let oracle_steps: usize = oracle.iter().map(|t| t.steps.len()).sum();
        diagnostics += oracle.iter().map(|t| t.lint.len()).sum::<usize>();
        for parallelism in [Some(1), Some(2)] {
            let mode = format!("{case}, summaries {summaries}, {parallelism:?}");
            let jp = JPortal::with_config(
                program,
                JPortalConfig {
                    parallelism,
                    ..config
                },
            );
            let report = jp.analyze(traces, &r.archive);
            assert_eq!(report.threads.len(), oracle.len(), "{mode}: threads");
            for (t, o) in report.threads.iter().zip(&oracle) {
                assert_eq!(t.thread, o.thread, "{mode}: thread order");
                assert!(t.entries == o.entries, "{mode}: {:?} entries", t.thread);
                assert_eq!(t.lint, o.lint, "{mode}: {:?} lint", t.thread);
                assert_eq!(o.steps.len(), o.entries.len(), "{mode}: one step per entry");
            }
            let counted = jp
                .telemetry()
                .metrics
                .series_readings()
                .find(|(n, _)| n == "counter.analysis.lint.steps")
                .map(|(_, r)| r.value as usize);
            assert_eq!(counted, Some(oracle_steps), "{mode}: analysis.lint.steps");
        }
    }
    diagnostics
}

/// The trace of one program version analysed against the next, as with
/// stale metadata. The run is `main → A → B`, all void. In the analysed
/// version `A` returns a value through a call to `Z`, and a static
/// caller `X` of `B` was added. Projection matches `main → A`, restarts
/// at `B`'s `iconst`, and returns from `B` into `X`. In summaries mode
/// the linter carries the stack across the restart, so `A`'s frame is
/// still pending: it is relocated, not tainted, and `A` cannot exit
/// with `return`, which is one `StackImbalance`. A lossy seam there
/// would pop `A`'s frame instead, because `A` cannot reach `B`, and the
/// linter would stay silent.
fn version_skew() -> (Program, Program) {
    let executed = {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut b = pb.method(c, "B", 0, false);
        b.emit(I::Iconst(1));
        b.emit(I::Pop);
        b.emit(I::Return);
        let b = b.finish();
        let mut a = pb.method(c, "A", 0, false);
        a.emit(I::Nop);
        a.emit(I::InvokeStatic(b));
        a.emit(I::Return);
        let a = a.finish();
        let mut m = pb.method(c, "main", 0, false);
        m.emit(I::InvokeStatic(a));
        m.emit(I::Return);
        let main = m.finish();
        pb.finish_with_entry(main).unwrap()
    };
    let analysed = {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut b = pb.method(c, "B", 0, false);
        b.emit(I::Iconst(1));
        b.emit(I::Pop);
        b.emit(I::Return);
        let b = b.finish();
        let mut z = pb.method(c, "Z", 0, true);
        z.emit(I::Nop);
        z.emit(I::Iconst(5));
        z.emit(I::Ireturn);
        let z = z.finish();
        let mut a = pb.method(c, "A", 0, true);
        a.emit(I::Nop);
        a.emit(I::InvokeStatic(z));
        a.emit(I::Ireturn);
        let a = a.finish();
        let mut x = pb.method(c, "X", 0, false);
        x.emit(I::InvokeStatic(b));
        x.emit(I::Return);
        x.finish();
        let mut m = pb.method(c, "main", 0, false);
        m.emit(I::InvokeStatic(a));
        m.emit(I::Pop);
        m.emit(I::Return);
        let main = m.finish();
        pb.finish_with_entry(main).unwrap()
    };
    (executed, analysed)
}

#[test]
fn timelines_equal_the_materialised_assembly() {
    let mut diagnostics = 0;
    // One thread, one segment.
    let w = workload_by_name("sunflow", 1);
    diagnostics += check("sunflow lossless", &w.program, &run(&w, None));
    // Several threads on two cores.
    let w = workload_by_name("lusearch", 1);
    diagnostics += check("lusearch", &w.program, &run(&w, None));
    // Holes filled from complete segments and by walks.
    let w = workload_by_name("fop", 4);
    diagnostics += check("fop lossy", &w.program, &run(&w, Some((1000, 50))));
    // Garbage and truncation: the decoder resyncs, and with this seed a
    // TNT bit that came out of the garbage contradicts the branch it
    // lands on.
    let w = workload_by_name("h2", 1);
    let mut r = run(&w, Some((2500, 90)));
    corrupt(r.traces.as_mut().unwrap(), 0xBAD5EED ^ 0x9E37);
    diagnostics += check("h2 lossy+garbage", &w.program, &r);
    // A stack diagnostic across a projection restart.
    let (executed, analysed) = version_skew();
    let r = Jvm::new(JvmConfig {
        c1_threshold: u64::MAX,
        c2_threshold: u64::MAX,
        ..JvmConfig::default()
    })
    .run(&executed);
    diagnostics += check("version skew", &analysed, &r);
    assert!(diagnostics > 0, "equal lint results must not be vacuous");
}
