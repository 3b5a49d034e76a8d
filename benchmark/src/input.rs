//! Workload definitions and seeded input generation.
//!
//! The seed reaches the simulated JVM's configuration only: it jitters the
//! scheduler quantum by at most ±1.5%, which moves every context switch
//! and ring drain. The JIT debug-record degradation seed stays at the
//! harness default: re-seeding it swings Figure-7 accuracy between 0.69
//! and 0.92 on `lossless-single` and between 0.47 and 0.62 on
//! `lossy-recovery`, far more than any change under test would. The
//! analyzer sees nothing but the generated `CollectedTraces` and
//! `MetadataArchive`.

use jportal_bench::harness::{buffer_presets, jvm_config};
use jportal_core::JPortalReport;
use jportal_ipt::CollectedTraces;
use jportal_jvm::{Jvm, JvmConfig, RunResult};
use jportal_workloads::{workload_by_name, Workload};

/// One benchmark workload: a DaCapo analog at a fixed scale, collected
/// with an unbounded ring or under its own smallest buffer preset.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name as `--workload` takes it.
    pub name: &'static str,
    /// The DaCapo analog it runs.
    pub subject: &'static str,
    /// Analog scale.
    pub scale: u32,
    /// Collect under the subject's own "64M" preset instead of an
    /// unbounded ring.
    pub lossy: bool,
}

/// Every workload, in the order `--workload all` runs them.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "lossless-multithread",
        subject: "lusearch",
        scale: 130,
        lossy: false,
    },
    Spec {
        name: "lossless-single",
        subject: "sunflow",
        scale: 80,
        lossy: false,
    },
    Spec {
        name: "lossy-recovery",
        subject: "fop",
        scale: 5,
        lossy: true,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// Builds the analog program and its thread list (seed-independent).
    pub fn workload(&self) -> Workload {
        workload_by_name(self.subject, self.scale)
    }
}

/// SplitMix64: spreads consecutive seeds over the whole `u64` range.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Figure-7 harness configuration with the seed applied.
fn seeded_config(
    w: &Workload,
    seed: u64,
    tracing: bool,
    preset: Option<(usize, u64)>,
) -> JvmConfig {
    let mut cfg = jvm_config(w, tracing, preset.map(|p| p.0), preset.map(|p| p.1));
    // ±1.5% of the quantum: enough to move every context switch, small
    // enough that trace volume stays within a few percent.
    let span = cfg.quantum * 3 / 100;
    cfg.quantum = cfg.quantum - span / 2 + mix(seed) % (span + 1);
    cfg
}

/// What the online component hands the analyzer, plus the ground truth
/// and the simulated cost of producing it.
pub struct Collected {
    /// The traced run (traces, metadata archive, ground truth, cycles).
    pub run: RunResult,
    /// The ring preset `(bytes per core, drain per kilocycle)` used, if
    /// the workload is lossy.
    pub preset: Option<(usize, u64)>,
}

impl Collected {
    /// The collected PT traces.
    pub fn traces(&self) -> &CollectedTraces {
        self.run
            .traces
            .as_ref()
            .expect("a traced run always returns traces")
    }
}

/// Runs the traced collection: for a lossy workload, first the lossless
/// sizing run that derives the preset, then the traced run itself.
pub fn collect(spec: &Spec, w: &Workload, seed: u64) -> Collected {
    let preset = spec.lossy.then(|| {
        let (_, buffer, drain) = buffer_presets(w)[2];
        (buffer, drain)
    });
    let run = Jvm::new(seeded_config(w, seed, true, preset)).run_threads(&w.program, &w.threads);
    Collected { run, preset }
}

/// The same seeded run with tracing off (the overhead baseline).
pub fn run_untraced(w: &Workload, seed: u64, preset: Option<(usize, u64)>) -> RunResult {
    Jvm::new(seeded_config(w, seed, false, preset)).run_threads(&w.program, &w.threads)
}

/// The generated input's identity: a later change that alters the input
/// for a seed changes at least one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Exported PT bytes over all cores.
    pub pt_bytes: u64,
    /// Packets the decoder recovers from those bytes.
    pub packets: u64,
    /// Entries in the reconstructed report.
    pub entries: u64,
    /// Holes recovery worked on.
    pub holes: u64,
    /// Bytes the PT rings dropped.
    pub lost_bytes: u64,
}

impl Fingerprint {
    /// Fingerprints a collected input and the report reconstructed from it.
    pub fn of(traces: &CollectedTraces, packets: u64, report: &JPortalReport) -> Fingerprint {
        Fingerprint {
            pt_bytes: traces.per_core.iter().map(|t| t.bytes.len() as u64).sum(),
            packets,
            entries: report.total_entries() as u64,
            holes: report.threads.iter().map(|t| t.holes.len() as u64).sum(),
            lost_bytes: traces
                .per_core
                .iter()
                .flat_map(|t| &t.losses)
                .map(|l| l.lost_bytes)
                .sum(),
        }
    }

    /// Share of produced PT bytes the rings dropped.
    pub fn lost_frac(&self) -> f64 {
        self.lost_bytes as f64 / (self.lost_bytes + self.pt_bytes).max(1) as f64
    }
}

/// One recorded seed measurement from `fingerprints.tsv`.
#[derive(Debug, Clone, Copy)]
pub struct Recorded {
    /// The seed.
    pub seed: u64,
    /// The input fingerprint at that seed.
    pub fingerprint: Fingerprint,
    /// Figure-7 accuracy of the reference report at that seed.
    pub accuracy: f64,
}

/// The recorded seed table, compiled in so a run cannot read a stale copy.
const RECORDED: &str = include_str!("../fingerprints.tsv");

/// The recorded seeds of one workload.
pub fn recorded(workload: &str) -> Vec<Recorded> {
    RECORDED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            if f.len() != 8 || f[0] != workload {
                return None;
            }
            let n = |i: usize| {
                f[i].parse::<u64>()
                    .expect("fingerprints.tsv: integer column")
            };
            Some(Recorded {
                seed: n(1),
                fingerprint: Fingerprint {
                    pt_bytes: n(2),
                    packets: n(3),
                    entries: n(4),
                    holes: n(5),
                    lost_bytes: n(6),
                },
                accuracy: f[7].parse().expect("fingerprints.tsv: accuracy column"),
            })
        })
        .collect()
}

/// Tab-separated line in the `fingerprints.tsv` format.
pub fn tsv_line(workload: &str, seed: u64, fp: &Fingerprint, accuracy: f64) -> String {
    format!(
        "{workload}\t{seed}\t{}\t{}\t{}\t{}\t{}\t{accuracy:.6}",
        fp.pt_bytes, fp.packets, fp.entries, fp.holes, fp.lost_bytes
    )
}

/// How far below the lowest recorded accuracy a run may score.
const ACCURACY_SLACK: f64 = 0.01;

/// How far PT volume may stray from the recorded median at an unrecorded
/// seed.
const VOLUME_BAND: f64 = 0.05;

/// Checks a run's input against the recorded table: exact at a recorded
/// seed, within [`VOLUME_BAND`] of the recorded median volume elsewhere,
/// and accuracy at or above the floor. Returns the problems found.
pub fn check(workload: &str, seed: u64, fp: &Fingerprint, accuracy: f64) -> Vec<String> {
    let table = recorded(workload);
    let mut problems = Vec::new();
    if table.is_empty() {
        problems.push(format!(
            "no recorded seeds for {workload} in fingerprints.tsv"
        ));
        return problems;
    }
    if let Some(r) = table.iter().find(|r| r.seed == seed) {
        if r.fingerprint != *fp {
            problems.push(format!(
                "input for seed {seed} changed: recorded {:?}, generated {:?}",
                r.fingerprint, fp
            ));
        }
    }
    let mut volumes: Vec<u64> = table.iter().map(|r| r.fingerprint.pt_bytes).collect();
    volumes.sort_unstable();
    let median = volumes[volumes.len() / 2] as f64;
    if (fp.pt_bytes as f64 / median - 1.0).abs() > VOLUME_BAND {
        problems.push(format!(
            "PT volume {} strays more than {:.0}% from the recorded median {median}",
            fp.pt_bytes,
            VOLUME_BAND * 100.0
        ));
    }
    let floor = accuracy_floor(&table);
    if accuracy < floor {
        problems.push(format!("accuracy {accuracy:.4} below the floor {floor:.4}"));
    }
    problems
}

/// The accuracy floor: the lowest recorded accuracy less [`ACCURACY_SLACK`].
pub fn accuracy_floor(table: &[Recorded]) -> f64 {
    table
        .iter()
        .map(|r| r.accuracy)
        .fold(f64::INFINITY, f64::min)
        - ACCURACY_SLACK
}
