//! The committed-baseline protocol shared by every gated bench.
//!
//! A gated bench measures, checks its numbers against budgets and
//! against its committed `BENCH_*.json` at the repo root, and then
//! either writes a new baseline or leaves the committed one alone. One
//! rule covers every bench:
//!
//! * A quick run (`JPORTAL_BENCH_QUICK=1`: short windows, few reps) is
//!   too noisy to become a baseline, so its verdict is its only output:
//!   a budget breach ([`Baseline::fail`]) exits 1, and the baseline is
//!   written only when no file exists yet.
//! * A full run writes the baseline unless a breach or a regression
//!   against the committed numbers ([`Baseline::regress`]) refuses the
//!   overwrite; `JPORTAL_BENCH_FORCE=1` overrides the refusal.
//!
//! Baselines are flat `"key": value` JSON documents, read back by
//! [`Baseline::number`] without a parser. The generated
//! `docs/results/*.md` pages follow the same rule ([`Baseline::commit_doc`]).

use std::path::{Path, PathBuf};
use std::time::Instant;

/// How a bench run was invoked, read once from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Mode {
    /// `JPORTAL_BENCH_QUICK=1`: a smoke run whose verdict is its output.
    pub quick: bool,
    /// `JPORTAL_BENCH_FORCE=1`: a full run writes despite a breach or
    /// regression.
    pub force: bool,
}

impl Mode {
    /// Reads `JPORTAL_BENCH_QUICK` and `JPORTAL_BENCH_FORCE` (`"1"` = on).
    pub fn from_env() -> Mode {
        let on = |key| std::env::var(key).is_ok_and(|v| v == "1");
        Mode {
            quick: on("JPORTAL_BENCH_QUICK"),
            force: on("JPORTAL_BENCH_FORCE"),
        }
    }
}

/// What the protocol does with one measured run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The baseline is (re)written.
    Write,
    /// Nothing is written; the run exits 0.
    Keep,
    /// A quick run breached a budget: nothing is written, the run exits 1.
    Exit,
}

impl Verdict {
    /// The decision table: `exists` is whether the target file is on
    /// disk, `breached`/`regressed` whether the run recorded any
    /// [`Baseline::fail`] / [`Baseline::regress`].
    fn of(mode: Mode, exists: bool, breached: bool, regressed: bool) -> Verdict {
        if mode.quick {
            match (breached, exists) {
                (true, _) => Verdict::Exit,
                (false, true) => Verdict::Keep,
                (false, false) => Verdict::Write,
            }
        } else if (breached || regressed) && !mode.force {
            Verdict::Keep
        } else {
            Verdict::Write
        }
    }

    /// The process exit code this verdict stands for.
    fn exit_code(self) -> i32 {
        match self {
            Verdict::Exit => 1,
            Verdict::Write | Verdict::Keep => 0,
        }
    }
}

/// The repository root (two levels above the bench crate).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// One bench's committed baseline plus the verdict signals of this run.
#[derive(Debug)]
pub struct Baseline {
    mode: Mode,
    root: PathBuf,
    file: String,
    committed: Option<String>,
    breaches: usize,
    regressions: usize,
}

impl Baseline {
    /// Loads `file` (a `BENCH_*.json` name) from the repo root, if present.
    pub fn open(file: &str, mode: Mode) -> Baseline {
        Baseline::open_in(&repo_root(), file, mode)
    }

    fn open_in(root: &Path, file: &str, mode: Mode) -> Baseline {
        Baseline {
            mode,
            root: root.to_path_buf(),
            file: file.to_string(),
            committed: std::fs::read_to_string(root.join(file)).ok(),
            breaches: 0,
            regressions: 0,
        }
    }

    /// Reads `"key": <number>` from the committed file; `None` when the
    /// file or the key is missing or the value is not a number.
    pub fn number(&self, key: &str) -> Option<f64> {
        let json = self.committed.as_deref()?;
        let needle = format!("\"{key}\":");
        let rest = json[json.find(&needle)? + needle.len()..].trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    /// Records a budget breach: exits 1 in a quick run, refuses the
    /// overwrite in an unforced full run.
    pub fn fail(&mut self, msg: &str) {
        eprintln!("FAILED: {msg}");
        self.breaches += 1;
    }

    /// Records a result worse than the committed one: refuses the
    /// overwrite in an unforced full run, reported only in a quick run.
    pub fn regress(&mut self, msg: &str) {
        println!("{}: regression: {msg}", self.file);
        self.regressions += 1;
    }

    fn verdict(&self, exists: bool) -> Verdict {
        Verdict::of(self.mode, exists, self.breaches > 0, self.regressions > 0)
    }

    /// Writes the baseline as flat `"key": value` lines in `fields`
    /// order (each value already formatted as JSON), or says why not;
    /// exits 1 when a quick run breached a budget.
    pub fn commit(&self, fields: &[(&str, String)]) {
        let verdict = self.write_baseline(fields);
        if verdict == Verdict::Exit {
            eprintln!("FAILED: {} budget breached in a quick run", self.file);
            std::process::exit(verdict.exit_code());
        }
    }

    fn write_baseline(&self, fields: &[(&str, String)]) -> Verdict {
        let verdict = self.verdict(self.committed.is_some());
        match verdict {
            Verdict::Write => {
                let body: Vec<String> = fields.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
                self.write(&self.file, &format!("{{\n{}\n}}\n", body.join(",\n")));
            }
            Verdict::Keep if self.mode.quick => {
                println!("{} kept: a quick run never rewrites a committed baseline", self.file)
            }
            Verdict::Keep => println!(
                "{} NOT overwritten: breach or regression (see above; JPORTAL_BENCH_FORCE=1 overrides)",
                self.file
            ),
            Verdict::Exit => {}
        }
        verdict
    }

    /// Regenerates the doc at `path` (relative to the repo root) under
    /// the same rule as the baseline itself.
    pub fn commit_doc(&self, path: &str, md: &str) {
        if self.verdict(self.root.join(path).exists()) == Verdict::Write {
            self.write(path, md);
        }
    }

    fn write(&self, path: &str, text: &str) {
        match std::fs::write(self.root.join(path), text) {
            Ok(()) => println!("{path} written"),
            Err(e) => eprintln!("{path} not written: {e}"),
        }
    }
}

/// Times `reps` pairs of `a` and `b` after one warm-up of each,
/// alternating which side runs first so clock drift hits both sides of
/// a pair equally. Returns each side's wall times in seconds.
pub fn paired<A, B>(
    reps: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (Vec<f64>, Vec<f64>) {
    let mut time_a = || timed(&mut a);
    let mut time_b = || timed(&mut b);
    time_a();
    time_b();
    let (mut sa, mut sb) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for i in 0..reps {
        if i % 2 == 0 {
            sa.push(time_a());
            sb.push(time_b());
        } else {
            sb.push(time_b());
            sa.push(time_a());
        }
    }
    (sa, sb)
}

fn timed<R>(f: &mut impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64()
}

/// The upper median (`v[len / 2]` of the sorted samples).
pub fn median(v: &[f64]) -> f64 {
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// The smallest sample (`+inf` for none).
pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = "BENCH_test.json";
    const OLD: &str = "{\n  \"x\": 1\n}\n";

    /// A fresh empty directory under the system temp dir, unique per tag.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jportal-gate-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn committed(text: &str) -> Baseline {
        Baseline {
            mode: Mode::default(),
            root: PathBuf::new(),
            file: FILE.to_string(),
            committed: Some(text.to_string()),
            breaches: 0,
            regressions: 0,
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Signal {
        Breach,
        Regress,
        Clean,
    }

    #[test]
    fn decision_table() {
        use Signal::*;
        // (quick, force, file present, signal) → (written, exit code)
        let table = [
            (true, false, false, Breach, false, 1),
            (true, false, false, Regress, true, 0),
            (true, false, false, Clean, true, 0),
            (true, false, true, Breach, false, 1),
            (true, false, true, Regress, false, 0),
            (true, false, true, Clean, false, 0),
            (true, true, false, Breach, false, 1),
            (true, true, false, Regress, true, 0),
            (true, true, false, Clean, true, 0),
            (true, true, true, Breach, false, 1),
            (true, true, true, Regress, false, 0),
            (true, true, true, Clean, false, 0),
            (false, false, false, Breach, false, 0),
            (false, false, false, Regress, false, 0),
            (false, false, false, Clean, true, 0),
            (false, false, true, Breach, false, 0),
            (false, false, true, Regress, false, 0),
            (false, false, true, Clean, true, 0),
            (false, true, false, Breach, true, 0),
            (false, true, false, Regress, true, 0),
            (false, true, false, Clean, true, 0),
            (false, true, true, Breach, true, 0),
            (false, true, true, Regress, true, 0),
            (false, true, true, Clean, true, 0),
        ];
        let dir = scratch_dir("table");
        for (i, &(quick, force, present, signal, written, exit)) in table.iter().enumerate() {
            let case =
                format!("case {i}: quick={quick} force={force} present={present} {signal:?}");
            let path = dir.join(FILE);
            let _ = std::fs::remove_file(&path);
            if present {
                std::fs::write(&path, OLD).unwrap();
            }
            let mut base = Baseline::open_in(&dir, FILE, Mode { quick, force });
            match signal {
                Breach => base.fail("test breach"),
                Regress => base.regress("test regression"),
                Clean => {}
            }
            let verdict = base.write_baseline(&[("x", "2".to_string())]);
            let now = std::fs::read_to_string(&path).ok();
            assert_eq!(
                now.as_deref() == Some("{\n  \"x\": 2\n}\n"),
                written,
                "{case}"
            );
            if !written {
                assert_eq!(now.as_deref(), present.then_some(OLD), "{case}");
            }
            assert_eq!(verdict.exit_code(), exit, "{case}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quick_run_never_rewrites_an_existing_baseline() {
        // A committed file that lacks the keys a bench compares against
        // is still a committed baseline, forced or not.
        let dir = scratch_dir("quick");
        let old = "{\n  \"workload\": \"luindex@48\"\n}\n";
        std::fs::write(dir.join(FILE), old).unwrap();
        std::fs::write(dir.join("doc.md"), "old doc").unwrap();
        for force in [false, true] {
            let base = Baseline::open_in(&dir, FILE, Mode { quick: true, force });
            assert_eq!(base.number("e2e_off_median_seconds"), None);
            let fields = [("e2e_off_median_seconds", "0.008388".to_string())];
            assert_eq!(base.write_baseline(&fields), Verdict::Keep);
            base.commit_doc("doc.md", "new doc");
            assert_eq!(std::fs::read_to_string(dir.join(FILE)).unwrap(), old);
            assert_eq!(
                std::fs::read_to_string(dir.join("doc.md")).unwrap(),
                "old doc"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn number_reads_values_by_exact_key() {
        let base = committed(
            "{\n  \"delta\": -0.0110,\n  \"tiny\": 1.5e-3,\n  \"big\": 2E+4,\n  \
             \"large_median_seconds\": 0.115767,\n  \"workload\": \"luindex\"\n}\n",
        );
        assert_eq!(base.number("delta"), Some(-0.011));
        assert_eq!(base.number("tiny"), Some(0.0015));
        assert_eq!(base.number("big"), Some(20000.0));
        assert_eq!(base.number("large_median_seconds"), Some(0.115767));
        // A suffix of a present key is not that key.
        assert_eq!(base.number("median_seconds"), None);
        assert_eq!(base.number("missing"), None);
        assert_eq!(base.number("workload"), None);
        assert_eq!(
            Baseline::open_in(Path::new("/nonexistent"), FILE, Mode::default()).number("x"),
            None
        );
    }

    #[test]
    fn committed_file_is_strict_json_and_round_trips() {
        let dir = scratch_dir("json");
        let fields = [
            ("workload", "\"luindex@48\"".to_string()),
            ("iterations", "31".to_string()),
            ("delta", format!("{:.4}", -0.011)),
            ("rate", format!("{:.3}", 0.409)),
            (
                "sizes",
                "[\n    {\"segments\": 1000},\n    {\"segments\": 10000}\n  ]".to_string(),
            ),
        ];
        let base = Baseline::open_in(&dir, FILE, Mode::default());
        assert_eq!(base.write_baseline(&fields), Verdict::Write);
        let text = std::fs::read_to_string(dir.join(FILE)).unwrap();
        jportal_obs::json::validate(&text).expect("strict JSON");
        let back = Baseline::open_in(&dir, FILE, Mode::default());
        assert_eq!(back.number("iterations"), Some(31.0));
        assert_eq!(back.number("delta"), Some(-0.011));
        assert_eq!(back.number("rate"), Some(0.409));
        assert!(text.starts_with("{\n  \"workload\": \"luindex@48\",\n  \"iterations\": 31,\n"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn paired_alternates_which_side_runs_first() {
        let log = std::cell::RefCell::new(String::new());
        let (a, b) = paired(
            4,
            || log.borrow_mut().push('a'),
            || log.borrow_mut().push('b'),
        );
        // Warm-up ab, then ab, ba, ab, ba.
        assert_eq!(log.into_inner(), "ababbaabba");
        assert_eq!((a.len(), b.len()), (4, 4));
    }

    #[test]
    fn median_and_min() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
    }
}
