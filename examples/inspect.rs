//! `jportal-inspect` — flight-recorder explorer: turn the decision
//! journal of a lossy analysis into per-thread quality tables, per-hole
//! candidate narratives, and decision-level diffs between runs.
//!
//! ```sh
//! cargo run --release --example inspect -- summarize            # all seed workloads
//! cargo run --release --example inspect -- summarize sunflow    # one workload
//! cargo run --release --example inspect -- explain --hole 1 sunflow
//! cargo run --release --example inspect -- diff a.jsonl b.jsonl
//! cargo run --release --example inspect -- corpus fop.jpcorpus --check
//! cargo run --release --example inspect -- telemetry http://127.0.0.1:9100
//! cargo run --release --example inspect -- telemetry target/obs/fop.metrics.json --check
//! cargo run --release --example inspect -- profile http://127.0.0.1:9100 --top 10
//! cargo run --release --example inspect -- profile profile.folded --check
//! cargo run --release --example inspect -- --check              # CI schema gate
//! ```
//!
//! `summarize` also writes `target/obs/<name>.journal.jsonl` so two runs
//! (e.g. before/after a matcher change) can be `diff`ed decision by
//! decision. `--check` validates the JSONL schema round-trip, the ring's
//! drop counter, and byte-identical journal structure between
//! `parallelism: Some(1)` and `None`.

use jportal::core::{JPortal, JPortalConfig, JPortalReport};
use jportal::jvm::{Jvm, JvmConfig, RunResult};
use jportal::obs::journal::{parse_jsonl, ParsedRecord};
use jportal::obs::json::{self, Value};
use jportal::obs::{http_get, JournalSnapshot};
use jportal::workloads::{all_workloads, workload_by_name, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Lossy collection config (same regime as `observe`): small PT buffers
/// and a slow exporter force per-core overflows, so recovery — and
/// therefore the journal — has decisions to record.
fn run_jvm(w: &Workload) -> RunResult {
    let cfg = JvmConfig {
        cores: if w.multithreaded { 2 } else { 1 },
        pt_buffer_capacity: 1600,
        drain_bytes_per_kilocycle: 60,
        ..JvmConfig::default()
    };
    Jvm::new(cfg).run_threads(&w.program, &w.threads)
}

fn analyze(w: &Workload, r: &RunResult, config: JPortalConfig) -> (JPortalReport, JournalSnapshot) {
    let jp = JPortal::with_config(&w.program, config);
    let report = jp.analyze(r.traces.as_ref().unwrap(), &r.archive);
    let journal = jp.obs().journal_snapshot();
    (report, journal)
}

/// Every event kind the current schema emits (the `--check` allow-list;
/// `journal_summary` is the JSONL trailer, not an event).
const KNOWN_KINDS: &[&str] = &[
    "segment_matched",
    "hole_opened",
    "candidate_considered",
    "candidates_elided",
    "candidate_chosen",
    "fallback_walk",
    "hole_unfilled",
    "summary_prefilter",
    "corpus_lookup",
    "lint_break",
    "journal_summary",
];

// ---------------------------------------------------------------- summarize

fn summarize(w: &Workload) -> Result<(), String> {
    let r = run_jvm(w);
    let (report, journal) = analyze(w, &r, JPortalConfig::default());

    println!("=== {} ===", w.name);
    println!(
        "{:>7} {:>6} {:>4} {:>5} {:>9} {:>11} {:>11} {:>8}",
        "thread", "holes", "cs", "walk", "unfilled", "mean conf", "min conf", "records"
    );
    for (t, q) in report.threads.iter().zip(&report.quality.threads) {
        let recs = journal.thread(t.thread.0).count();
        let min_conf = q
            .weakest()
            .map(|f| format!("{:.3}", f.confidence))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:>7} {:>6} {:>4} {:>5} {:>9} {:>11.3} {:>11} {:>8}",
            t.thread.0,
            t.recovery.holes,
            t.recovery.filled_from_cs,
            t.recovery.filled_by_walk,
            t.recovery.unfilled,
            q.mean_confidence(),
            min_conf,
            recs,
        );
    }
    println!(
        "journal: {} records, {} dropped, kinds {:?}",
        journal.records.len(),
        journal.dropped,
        journal.kinds()
    );

    let dir = PathBuf::from("target/obs");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: mkdir failed: {e}", w.name))?;
    let path = dir.join(format!("{}.journal.jsonl", w.name));
    std::fs::write(&path, journal.to_jsonl())
        .map_err(|e| format!("{}: write failed: {e}", w.name))?;
    println!("wrote {}\n", path.display());
    Ok(())
}

// ------------------------------------------------------------------ explain

/// All parsed records of `thread` whose `hole` payload field equals
/// `hole`, in journal (sorted-key) order.
fn hole_records(records: &[ParsedRecord], thread: u64, hole: u32) -> Vec<&ParsedRecord> {
    records
        .iter()
        .filter(|r| r.thread == thread && r.field("hole") == Some(hole.to_string().as_str()))
        .collect()
}

fn explain_hole(records: &[ParsedRecord], thread: u64, hole: u32) -> Option<String> {
    let recs = hole_records(records, thread, hole);
    let opened = recs.iter().find(|r| r.kind == "hole_opened")?;
    let mut out = String::new();
    out.push_str(&format!("=== thread {thread}, hole {hole} ===\n"));
    out.push_str(&format!(
        "opened after segment {}: loss window [{}, {}], anchor {} (x={}), budget {} events\n",
        opened.segment,
        opened.field("first_ts").unwrap_or("?"),
        opened.field("last_ts").unwrap_or("?"),
        opened.field("anchor").unwrap_or("?"),
        opened.field("anchor_len").unwrap_or("?"),
        opened.field("budget").unwrap_or("?"),
    ));

    let considered: Vec<&&ParsedRecord> = recs
        .iter()
        .filter(|r| r.kind == "candidate_considered")
        .collect();
    if considered.is_empty() {
        out.push_str("no candidate CS matched the anchor\n");
    } else {
        out.push_str(&format!("candidates considered ({}):\n", considered.len()));
        for c in &considered {
            out.push_str(&format!(
                "  rank {:>4}  cs_segment {:>4} offset {:>6}  {:<13} score {}\n",
                c.field("rank").unwrap_or("?"),
                c.field("cs_segment").unwrap_or("?"),
                c.field("offset").unwrap_or("?"),
                c.field("outcome").unwrap_or("?"),
                c.field("score").unwrap_or("?"),
            ));
        }
    }
    if let Some(e) = recs.iter().find(|r| r.kind == "candidates_elided") {
        out.push_str(&format!(
            "  (+{} more candidates elided past the journal cap)\n",
            e.field("count").unwrap_or("?")
        ));
    }

    if let Some(c) = recs.iter().find(|r| r.kind == "candidate_chosen") {
        let conf: f64 = c
            .field("confidence_ppm")
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
            / 1e6;
        out.push_str(&format!(
            "chosen: cs_segment {} offset {}, score {} vs runner-up {} (margin {}), \
             {} entries, budget-truncated {}, confidence {:.3}\n",
            c.field("cs_segment").unwrap_or("?"),
            c.field("offset").unwrap_or("?"),
            c.field("score").unwrap_or("?"),
            c.field("runner_up").unwrap_or("?"),
            c.field("margin").unwrap_or("?"),
            c.field("fill_len").unwrap_or("?"),
            c.field("truncated").unwrap_or("?"),
            conf,
        ));
    } else if let Some(f) = recs.iter().find(|r| r.kind == "fallback_walk") {
        let conf: f64 = f
            .field("confidence_ppm")
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
            / 1e6;
        out.push_str(&format!(
            "no candidate confirmed; fallback ICFG walk filled {} entries, confidence {:.3}\n",
            f.field("fill_len").unwrap_or("?"),
            conf,
        ));
    } else if recs.iter().any(|r| r.kind == "hole_unfilled") {
        out.push_str("no candidate confirmed and the fallback walk failed: hole left unfilled\n");
    }
    Some(out)
}

fn explain(name: &str, hole: u32) -> Result<(), String> {
    let w = workload_by_name(name, 1);
    let r = run_jvm(&w);
    let (_report, journal) = analyze(&w, &r, JPortalConfig::default());
    let records =
        parse_jsonl(&journal.to_jsonl()).map_err(|e| format!("{name}: journal reparse: {e}"))?;
    let threads: Vec<u64> = {
        let mut t: Vec<u64> = records.iter().map(|r| r.thread).collect();
        t.sort();
        t.dedup();
        t
    };
    let mut found = false;
    for t in threads {
        if let Some(narrative) = explain_hole(&records, t, hole) {
            print!("{narrative}");
            found = true;
        }
    }
    if !found {
        return Err(format!(
            "{name}: no thread has a hole {hole} in its journal (try summarize first)"
        ));
    }
    Ok(())
}

// ------------------------------------------------------------------- corpus

/// `corpus <path>`: structural tour of a persisted segment corpus —
/// segment/arena totals, shard fill of the anchor index, and the top-10
/// busiest anchors. With `--check`, additionally proves the durability
/// contract: the checksum and version were already verified by the load,
/// and re-serializing must reproduce the file byte for byte.
fn corpus(path: &str, check: bool) -> Result<(), String> {
    let p = std::path::Path::new(path);
    let corpus = jportal::corpus::Corpus::load(p).map_err(|e| format!("{path}: {e}"))?;
    let stats = corpus.stats();
    println!("=== {path} ===");
    println!(
        "format v{}, anchor length {}",
        jportal::corpus::FORMAT_VERSION,
        corpus.anchor_len()
    );
    println!(
        "{} segments, {} syms, {} arena bytes, {} distinct anchors",
        stats.segments, stats.syms, stats.arena_bytes, stats.anchor_keys
    );
    let total: usize = stats.shard_fill.iter().sum();
    print!("shard fill ({} positions):", total);
    for (i, n) in stats.shard_fill.iter().enumerate() {
        print!("{}{n}", if i == 0 { " " } else { " | " });
    }
    println!();
    let busiest = corpus.busiest_anchors(10);
    if !busiest.is_empty() {
        println!("busiest anchors:");
        for (key, n) in &busiest {
            println!("  {:>8} positions  {}", n, corpus.spell_key(*key));
        }
    }
    if check {
        let bytes = std::fs::read(p).map_err(|e| format!("{path}: {e}"))?;
        if corpus.to_bytes() != bytes {
            return Err(format!(
                "{path}: re-serialization is not byte-identical to the file"
            ));
        }
        println!("check ok: magic, version, checksum, and byte round-trip all hold");
    }
    Ok(())
}

// ---------------------------------------------------------------- telemetry

/// Numeric members of the object at `doc[key]`, in document order.
fn section(doc: &Value, key: &str) -> Vec<(String, f64)> {
    match doc.get(key) {
        Some(Value::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| v.as_num().map(|n| (k.clone(), n)))
            .collect(),
        _ => Vec::new(),
    }
}

/// Compound members (sketches) of the object at `doc[key]`.
fn compound_section<'v>(doc: &'v Value, key: &str) -> Vec<(&'v String, &'v Value)> {
    match doc.get(key) {
        Some(Value::Obj(pairs)) => pairs.iter().map(|(k, v)| (k, v)).collect(),
        _ => Vec::new(),
    }
}

/// `telemetry <url-or-file>`: fetch a `/metrics.json` document — from a
/// live endpoint (any `http://` source; bare base URLs get
/// `/metrics.json` appended) or a file written by `observe` — and render
/// the same aligned summary table the pipeline prints for itself. With
/// `--check`, additionally asserts the schema: strict JSON, the three
/// sections, and ordered sketch percentiles.
fn telemetry(source: &str, check: bool) -> Result<(), String> {
    let body = if let Some(rest) = source.strip_prefix("http://") {
        let url = if rest.contains('/') {
            source.to_string()
        } else {
            format!("{source}/metrics.json")
        };
        let r = http_get(&url).map_err(|e| format!("{url}: {e}"))?;
        if r.status != 200 {
            return Err(format!("{url}: status {}", r.status));
        }
        r.body
    } else {
        std::fs::read_to_string(source).map_err(|e| format!("{source}: {e}"))?
    };
    json::validate(&body).map_err(|e| format!("{source}: not strict JSON: {e}"))?;
    let doc = json::parse(&body).expect("validated above");

    let counters = section(&doc, "counters");
    let gauges = section(&doc, "gauges");
    let sketches = compound_section(&doc, "sketches");
    let width = counters
        .iter()
        .map(|(n, _)| n.len())
        .chain(gauges.iter().map(|(n, _)| n.len()))
        .chain(sketches.iter().map(|(n, _)| n.len()))
        .max()
        .unwrap_or(8)
        .max(8);

    println!("=== {source} ===");
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_num).unwrap_or(f64::NAN);
    if !counters.is_empty() {
        println!("counters");
        for (name, v) in &counters {
            println!("  {name:<width$}  {v:>12}");
        }
    }
    if !gauges.is_empty() {
        println!("gauges");
        for (name, v) in &gauges {
            println!("  {name:<width$}  {v:>12}");
        }
    }
    if !sketches.is_empty() {
        println!("sketches (count / ~p50 / ~p90 / ~p99 / max)");
        for (name, s) in &sketches {
            println!(
                "  {name:<width$}  {:>8} {:>10} {:>10} {:>10} {:>10}",
                num(s, "count"),
                num(s, "p50"),
                num(s, "p90"),
                num(s, "p99"),
                num(s, "max"),
            );
        }
    }

    if check {
        for key in ["counters", "gauges", "sketches"] {
            if !matches!(doc.get(key), Some(Value::Obj(_))) {
                return Err(format!(
                    "{source}: section {key:?} missing or not an object"
                ));
            }
        }
        for (name, v) in counters.iter().chain(&gauges) {
            if *v < 0.0 || !v.is_finite() {
                return Err(format!("{source}: {name} has non-counter value {v}"));
            }
        }
        for (name, s) in &sketches {
            let (min, p50, p90, p99, max) = (
                num(s, "min"),
                num(s, "p50"),
                num(s, "p90"),
                num(s, "p99"),
                num(s, "max"),
            );
            if !(min <= p50 && p50 <= p90 && p90 <= p99 && p99 <= max) {
                return Err(format!(
                    "{source}: sketch {name} percentiles out of order: \
                     min {min} p50 {p50} p90 {p90} p99 {p99} max {max}"
                ));
            }
        }
        println!(
            "check ok: strict JSON, all three sections, {} sketches ordered",
            sketches.len()
        );
    }
    Ok(())
}

// ------------------------------------------------------------------ profile

/// `profile <url-or-file>`: render the hottest span stacks of a folded
/// profile — from a live `/profile/folded` endpoint (a bare base URL
/// gets the path appended, and the contention table is pulled from
/// `/metrics.json` alongside) or from a folded-stacks text file. With
/// `--check`, additionally asserts the folded grammar, positive stack
/// weights, and contention-counter consistency.
fn profile(source: &str, check: bool, top_n: usize) -> Result<(), String> {
    let (folded, metrics) = if let Some(rest) = source.strip_prefix("http://") {
        let base_only = !rest.contains('/');
        let folded_url = if base_only {
            format!("{source}/profile/folded")
        } else {
            source.to_string()
        };
        let r = http_get(&folded_url).map_err(|e| format!("{folded_url}: {e}"))?;
        if r.status != 200 {
            return Err(format!("{folded_url}: status {}", r.status));
        }
        let metrics = if base_only {
            let url = format!("{source}/metrics.json");
            let m = http_get(&url).map_err(|e| format!("{url}: {e}"))?;
            if m.status != 200 {
                return Err(format!("{url}: status {}", m.status));
            }
            json::validate(&m.body).map_err(|e| format!("{url}: not strict JSON: {e}"))?;
            Some(json::parse(&m.body).expect("validated above"))
        } else {
            None
        };
        (r.body, metrics)
    } else {
        (
            std::fs::read_to_string(source).map_err(|e| format!("{source}: {e}"))?,
            None,
        )
    };

    let mut stacks = jportal::ProfileSnapshot::parse_folded(&folded)
        .map_err(|e| format!("{source}: folded profile does not parse: {e}"))?;
    let total: u64 = stacks.iter().map(|(_, n)| n).sum();
    stacks.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    println!("=== {source} ===");
    println!("{} samples over {} distinct stacks", total, stacks.len());
    if !stacks.is_empty() {
        println!("hottest stacks (top {top_n}):");
        for (stack, count) in stacks.iter().take(top_n) {
            println!(
                "  {:>8} {:>6.2}%  {}",
                count,
                100.0 * *count as f64 / total.max(1) as f64,
                stack.join(";")
            );
        }
    }

    // Contention table: every `lock.<site>` family in the metrics
    // document, acquisitions vs contended slow paths plus wait-time
    // percentiles from the `wait_us` sketch.
    if let Some(doc) = &metrics {
        let counters = section(doc, "counters");
        let value = |name: &str| {
            counters
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        };
        let mut sites: Vec<&str> = counters
            .iter()
            .filter_map(|(k, _)| k.strip_suffix(".acquires"))
            .filter(|k| k.starts_with("lock."))
            .collect();
        sites.sort_unstable();
        if !sites.is_empty() {
            let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_num).unwrap_or(0.0);
            let width = sites.iter().map(|s| s.len()).max().unwrap_or(8);
            println!("contention ({} instrumented sites):", sites.len());
            println!(
                "  {:<width$} {:>10} {:>10} {:>9} {:>9} {:>9}",
                "site", "acquires", "contended", "wait p50", "wait p99", "wait max"
            );
            for site in &sites {
                let (acquires, contended) = (
                    value(&format!("{site}.acquires")),
                    value(&format!("{site}.contended")),
                );
                let wait = compound_section(doc, "sketches")
                    .into_iter()
                    .find(|(k, _)| *k == &format!("{site}.wait_us"))
                    .map(|(_, v)| (num(v, "p50"), num(v, "p99"), num(v, "max")))
                    .unwrap_or((0.0, 0.0, 0.0));
                println!(
                    "  {:<width$} {:>10} {:>10} {:>9} {:>9} {:>9}",
                    site, acquires, contended, wait.0, wait.1, wait.2
                );
                if check && contended > acquires {
                    return Err(format!(
                        "{source}: {site} contended {contended} exceeds acquires {acquires}"
                    ));
                }
            }
        }
        if check && !matches!(doc.get("profile"), Some(Value::Obj(_))) {
            return Err(format!(
                "{source}: /metrics.json has no profile section while profiling"
            ));
        }
    }

    if check {
        if stacks.iter().any(|(_, n)| *n == 0) {
            return Err(format!("{source}: zero-weight folded stack"));
        }
        println!(
            "check ok: folded grammar, {} stacks, contention counters consistent",
            stacks.len()
        );
    }
    Ok(())
}

// --------------------------------------------------------------------- diff

fn load(path: &str) -> Result<Vec<ParsedRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

/// Decision-level diff: records are joined on their identity
/// `(thread, segment, seq, kind)`; a decision present in both runs but
/// with different payload fields is "changed".
fn diff(path_a: &str, path_b: &str) -> Result<bool, String> {
    let a = load(path_a)?;
    let b = load(path_b)?;
    let index = |recs: &[ParsedRecord]| -> BTreeMap<(u64, u64, u64, String), ParsedRecord> {
        recs.iter()
            .filter(|r| r.kind != "journal_summary")
            .map(|r| {
                let (t, s, q, k) = r.identity();
                ((t, s, q, k.to_string()), r.clone())
            })
            .collect()
    };
    let ia = index(&a);
    let ib = index(&b);

    let mut only_a = 0usize;
    let mut only_b = 0usize;
    let mut changed = 0usize;
    const SHOW: usize = 20;
    let mut shown = 0usize;
    let show = |line: String, shown: &mut usize| {
        if *shown < SHOW {
            println!("{line}");
        } else if *shown == SHOW {
            println!("  ... (further differences elided)");
        }
        *shown += 1;
    };

    for (k, ra) in &ia {
        match ib.get(k) {
            None => {
                only_a += 1;
                show(
                    format!("- {}:{}:{} {}", k.0, k.1, k.2, ra.render()),
                    &mut shown,
                );
            }
            Some(rb) if rb.fields != ra.fields => {
                changed += 1;
                show(
                    format!("~ {}:{}:{} {}", k.0, k.1, k.2, ra.render()),
                    &mut shown,
                );
                show(format!("            -> {}", rb.render()), &mut shown);
            }
            Some(_) => {}
        }
    }
    for (k, rb) in &ib {
        if !ia.contains_key(k) {
            only_b += 1;
            show(
                format!("+ {}:{}:{} {}", k.0, k.1, k.2, rb.render()),
                &mut shown,
            );
        }
    }

    println!(
        "{} decisions vs {}: {} only in {}, {} only in {}, {} changed",
        ia.len(),
        ib.len(),
        only_a,
        path_a,
        only_b,
        path_b,
        changed
    );
    Ok(only_a + only_b + changed == 0)
}

// -------------------------------------------------------------------- check

/// The CI schema gate: drop counter zero, JSONL round-trips through the
/// strict parser, only known kinds, determinism across `parallelism`,
/// silence when observability is off, and per-hole/quality agreement.
fn check(w: &Workload) -> Result<(), String> {
    let fail = |msg: String| Err(format!("{}: {msg}", w.name));
    let r = run_jvm(w);
    let (report, journal) = analyze(w, &r, JPortalConfig::default());

    if journal.dropped != 0 {
        return fail(format!(
            "journal dropped {} records under the default capacity",
            journal.dropped
        ));
    }
    if journal.records.is_empty() {
        return fail("lossy run journaled nothing".into());
    }

    let jsonl = journal.to_jsonl();
    let parsed = match parse_jsonl(&jsonl) {
        Ok(p) => p,
        Err(e) => return fail(format!("journal JSONL does not re-parse: {e}")),
    };
    // Every line (records + the summary trailer) must survive the strict
    // parser, and nothing may carry an unknown kind.
    if parsed.len() != journal.records.len() + 1 {
        return fail(format!(
            "parsed {} lines from {} records (+1 summary expected)",
            parsed.len(),
            journal.records.len()
        ));
    }
    for p in &parsed {
        if !KNOWN_KINDS.contains(&p.kind.as_str()) {
            return fail(format!("unknown journal kind {:?}", p.kind));
        }
    }
    let summary = parsed.last().expect("non-empty");
    if summary.kind != "journal_summary"
        || summary.field("records") != Some(journal.records.len().to_string().as_str())
    {
        return fail("journal_summary trailer disagrees with the record count".into());
    }

    // Determinism: sequential analysis produces a byte-identical journal.
    let (_seq_report, seq_journal) = analyze(
        w,
        &r,
        JPortalConfig {
            parallelism: Some(1),
            ..JPortalConfig::default()
        },
    );
    if seq_journal.to_jsonl() != jsonl {
        return fail("journal differs between parallelism Some(1) and None".into());
    }

    // Observability off: branch-only recorders, nothing journaled.
    let (_dark_report, dark_journal) = analyze(
        w,
        &r,
        JPortalConfig {
            observability: false,
            ..JPortalConfig::default()
        },
    );
    if !dark_journal.records.is_empty() || dark_journal.dropped != 0 {
        return fail("disabled observability still journaled decisions".into());
    }

    // The quality rollup and the journal must tell the same story: one
    // hole_opened per fill record, and every confidence within [0, 1].
    for (t, q) in report.threads.iter().zip(&report.quality.threads) {
        let opened = journal
            .thread(t.thread.0)
            .filter(|r| r.event.kind() == "hole_opened")
            .count();
        if opened != q.fills.len() {
            return fail(format!(
                "thread {}: {} hole_opened events vs {} quality fills",
                t.thread.0,
                opened,
                q.fills.len()
            ));
        }
        for f in &q.fills {
            if !(0.0..=1.0).contains(&f.confidence) {
                return fail(format!(
                    "thread {}: hole {} confidence {} outside [0, 1]",
                    t.thread.0, f.hole, f.confidence
                ));
            }
        }
    }

    // `explain` must reproduce at least one hole's candidate ranking.
    let explained = parsed.iter().filter(|p| p.kind == "hole_opened").any(|p| {
        match explain_hole(&parsed, p.thread, 1) {
            Some(n) => n.contains("rank") || n.contains("no candidate CS matched"),
            None => false,
        }
    });
    if report.quality.total_fills() > 0 && !explained {
        return fail("explain could not reconstruct any hole narrative".into());
    }

    println!(
        "{:<10} ok: {} journal records, 0 dropped, kinds {:?}",
        w.name,
        journal.records.len(),
        journal.kinds()
    );
    Ok(())
}

// --------------------------------------------------------------------- main

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--check")
        && !matches!(
            args.first().map(String::as_str),
            Some("corpus") | Some("telemetry") | Some("profile")
        )
    {
        let names: Vec<&String> = args
            .iter()
            .filter(|a| !a.starts_with("--") && a.as_str() != "check")
            .collect();
        let workloads: Vec<Workload> = if names.is_empty() {
            all_workloads(1)
        } else {
            names.iter().map(|n| workload_by_name(n, 1)).collect()
        };
        for w in &workloads {
            if let Err(e) = check(w) {
                eprintln!("FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!("all journal checks passed");
        return ExitCode::SUCCESS;
    }

    let cmd = args.first().map(|s| s.as_str()).unwrap_or("summarize");
    let rest = &args[args.len().min(1)..];
    let result: Result<(), String> = match cmd {
        "summarize" => {
            let names: Vec<&String> = rest.iter().filter(|a| !a.starts_with("--")).collect();
            let workloads: Vec<Workload> = if names.is_empty() {
                all_workloads(1)
            } else {
                names.iter().map(|n| workload_by_name(n, 1)).collect()
            };
            workloads.iter().try_for_each(summarize)
        }
        "explain" => {
            let mut hole = 1u32;
            let mut name = "sunflow".to_string();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                if a == "--hole" {
                    hole = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--hole needs a number; using 1");
                        1
                    });
                } else if !a.starts_with("--") {
                    name = a.clone();
                }
            }
            explain(&name, hole)
        }
        "corpus" => {
            let files: Vec<&String> = rest.iter().filter(|a| !a.starts_with("--")).collect();
            let check = rest.iter().any(|a| a == "--check");
            if files.len() != 1 {
                Err("corpus needs exactly one .jpcorpus path".into())
            } else {
                corpus(files[0], check)
            }
        }
        "telemetry" => {
            let sources: Vec<&String> = rest.iter().filter(|a| !a.starts_with("--")).collect();
            let check = rest.iter().any(|a| a == "--check");
            if sources.len() != 1 {
                Err("telemetry needs exactly one URL or metrics.json path".into())
            } else {
                telemetry(sources[0], check)
            }
        }
        "profile" => {
            let check = rest.iter().any(|a| a == "--check");
            let mut top_n = 15usize;
            let mut sources: Vec<String> = Vec::new();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                if a == "--top" {
                    match it.next().and_then(|v| v.parse().ok()) {
                        Some(n) => top_n = n,
                        None => {
                            eprintln!("--top needs a number; using 15");
                        }
                    }
                } else if !a.starts_with("--") {
                    sources.push(a.clone());
                }
            }
            if sources.len() != 1 {
                Err("profile needs exactly one URL or folded-stacks path".into())
            } else {
                profile(&sources[0], check, top_n)
            }
        }
        "diff" => {
            let files: Vec<&String> = rest.iter().filter(|a| !a.starts_with("--")).collect();
            if files.len() != 2 {
                Err("diff needs exactly two JSONL paths".into())
            } else {
                match diff(files[0], files[1]) {
                    Ok(true) => {
                        println!("journals are decision-identical");
                        Ok(())
                    }
                    Ok(false) => Err("journals differ".into()),
                    Err(e) => Err(e),
                }
            }
        }
        other => Err(format!(
            "unknown command {other:?} (expected summarize, explain, corpus, telemetry, \
             profile, diff, or --check)"
        )),
    };

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
