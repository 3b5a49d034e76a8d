//! Exporters: Chrome trace-event JSON, a flat metrics JSON snapshot and
//! a human-readable summary table.
//!
//! The Chrome document loads in `chrome://tracing` / Perfetto: wall-time
//! spans render as one track per worker thread under pid 1, and
//! simulated-time events (e.g. PT overflow windows, timestamped in
//! simulation cycles) under pid 2 so the two time bases never share an
//! axis.

use std::collections::BTreeSet;

use crate::json::write_escaped;
use crate::metrics::{MetricsSnapshot, Reading};
use crate::span::{ArgValue, SpanEvent};

/// Everything one observed run produced: a metrics snapshot plus the
/// merged span list.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Counters, gauges and sketches, sorted by name.
    pub metrics: MetricsSnapshot,
    /// Spans, deterministically merged (see `SpanCollector::snapshot`).
    pub spans: Vec<SpanEvent>,
}

impl TelemetryReport {
    /// Distinct span categories, sorted.
    pub fn span_categories(&self) -> BTreeSet<&'static str> {
        self.spans.iter().map(|s| s.cat).collect()
    }

    /// Timing-free span structure: the sorted multiset of
    /// `cat/parent/name{args}` strings. Identical across worker counts
    /// for a deterministic pipeline.
    pub fn span_structure(&self) -> Vec<String> {
        let mut v: Vec<String> = self.spans.iter().map(SpanEvent::structure).collect();
        v.sort();
        v
    }

    /// Chrome trace-event JSON (the "JSON Object Format" with a
    /// `traceEvents` array of complete `"ph": "X"` events).
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        // Process-name metadata so the two time bases are labelled.
        out.push_str(concat!(
            r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"#,
            r#""args":{"name":"jportal offline (wall time)"}},"#,
            r#"{"name":"process_name","ph":"M","pid":2,"tid":0,"#,
            r#""args":{"name":"jportal collection (simulated time)"}}"#,
        ));
        for e in &self.spans {
            out.push(',');
            out.push_str("{\"name\":");
            write_escaped(&mut out, e.name);
            out.push_str(",\"cat\":");
            write_escaped(&mut out, e.cat);
            out.push_str(&format!(
                ",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}",
                e.ts_us,
                e.dur_us,
                if e.sim { 2 } else { 1 },
                e.tid
            ));
            out.push_str(",\"args\":{");
            let mut first = true;
            if let Some(p) = e.parent {
                out.push_str("\"parent\":");
                write_escaped(&mut out, p);
                first = false;
            }
            for (k, v) in &e.args {
                if !first {
                    out.push(',');
                }
                first = false;
                write_escaped(&mut out, k);
                out.push(':');
                match v {
                    ArgValue::Int(i) => out.push_str(&i.to_string()),
                    ArgValue::Str(s) => write_escaped(&mut out, s),
                }
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Flat metrics JSON (see [`metrics_snapshot_json`]).
    pub fn metrics_json(&self) -> String {
        metrics_snapshot_json(&self.metrics)
    }

    /// A human-readable summary: counters, gauges, sketch quantiles and
    /// a per-category span rollup.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .metrics
            .counters
            .iter()
            .chain(&self.metrics.gauges)
            .map(|r| r.name.len())
            .chain(self.metrics.sketches.iter().map(|s| s.name.len()))
            .chain(self.span_categories().iter().map(|c| c.len()))
            .max()
            .unwrap_or(8)
            .max(8);
        if !self.metrics.counters.is_empty() {
            out.push_str("counters\n");
            // Recovery prune counters read as *rates* over the candidates
            // considered — raw counts are meaningless across workloads of
            // different sizes, and the rate of a merged run is the rate
            // over summed numerator/denominator, never an average of
            // per-shard rates.
            let candidates = self.metrics.counter("core.recover.candidates");
            for Reading { name, value: v, .. } in &self.metrics.counters {
                match (name.as_str(), candidates) {
                    ("core.recover.pruned_tier1" | "core.recover.pruned_tier2", Some(c))
                        if c > 0 =>
                    {
                        let rate = *v as f64 / c as f64;
                        out.push_str(&format!(
                            "  {name:<width$}  {:>12} ({:.1}% of candidates)\n",
                            v,
                            rate * 100.0
                        ));
                    }
                    _ => out.push_str(&format!("  {name:<width$}  {v:>12}\n")),
                }
            }
        }
        if !self.metrics.gauges.is_empty() {
            out.push_str("gauges\n");
            for Reading { name, value: v, .. } in &self.metrics.gauges {
                out.push_str(&format!("  {name:<width$}  {v:>12}\n"));
            }
        }
        if !self.metrics.sketches.is_empty() {
            out.push_str("sketches (count / ~p50 / ~p90 / ~p99 / max)\n");
            for s in &self.metrics.sketches {
                out.push_str(&format!(
                    "  {:<width$}  {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                    s.name,
                    s.count,
                    s.quantile(0.5),
                    s.quantile(0.9),
                    s.quantile(0.99),
                    s.max
                ));
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans by category (count / total µs·cycles)\n");
            for cat in self.span_categories() {
                let (n, total): (usize, u64) = self
                    .spans
                    .iter()
                    .filter(|s| s.cat == cat)
                    .fold((0, 0), |(n, t), s| (n + 1, t + s.dur_us));
                out.push_str(&format!("  {cat:<width$}  {n:>8} {total:>12}\n"));
            }
        }
        if out.is_empty() {
            out.push_str("(observability disabled: nothing recorded)\n");
        }
        out
    }
}

/// Flat metrics JSON from a bare snapshot: `{"counters": {..}, "gauges":
/// {..}, "sketches": {name: {count, sum, min, max, p50, p90, p99,
/// buckets: [[index, n], ..]}}}`, all keys sorted. Always valid per the
/// strict `obs::json` validator.
pub fn metrics_snapshot_json(metrics: &MetricsSnapshot) -> String {
    metrics_snapshot_json_with_profile(metrics, None)
}

/// [`metrics_snapshot_json`] plus an optional `"profile"` section
/// holding a pprof-like sample dump (see
/// [`crate::profile::ProfileSnapshot::json_object`]). With `None` the
/// output is byte-identical to the plain snapshot, so existing
/// consumers never see the extra key unless a profiler is attached.
pub fn metrics_snapshot_json_with_profile(
    metrics: &MetricsSnapshot,
    profile: Option<&crate::profile::ProfileSnapshot>,
) -> String {
    let mut out = metrics_snapshot_json_inner(metrics);
    if let Some(p) = profile {
        // Splice before the closing brace of the document object.
        out.pop();
        out.push_str(",\"profile\":");
        out.push_str(&p.json_object());
        out.push('}');
    }
    out
}

fn metrics_snapshot_json_inner(metrics: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, Reading { name, value: v, .. }) in metrics.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(&mut out, name);
        out.push_str(&format!(":{v}"));
    }
    out.push_str("},\"gauges\":{");
    for (i, Reading { name, value: v, .. }) in metrics.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(&mut out, name);
        out.push_str(&format!(":{v}"));
    }
    out.push_str("},\"sketches\":{");
    for (i, s) in metrics.sketches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(&mut out, &s.name);
        out.push_str(&format!(
            ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
             \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
            s.count,
            s.sum,
            s.min,
            s.max,
            s.quantile(0.5),
            s.quantile(0.9),
            s.quantile(0.99)
        ));
        for (j, (idx, n)) in s.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{idx},{n}]"));
        }
        out.push_str("]}");
    }
    out.push_str("}}");
    out
}

/// A metric name in Prometheus form: `jportal_` prefix, dots and any
/// other non-`[a-zA-Z0-9_]` characters replaced by underscores.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(8 + name.len());
    out.push_str("jportal_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        });
    }
    out
}

/// HELP-text escaping per the Prometheus text format: backslash and
/// newline only.
fn prometheus_help(out: &mut String, text: &str) {
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Prometheus text exposition (version 0.0.4) of a metrics snapshot:
/// counters and gauges as-is, sketches as summaries with `quantile`
/// labels. HELP lines carry the original dotted metric name.
pub fn prometheus_text(metrics: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(256);
    for Reading { name, value: v, .. } in &metrics.counters {
        let p = prometheus_name(name);
        out.push_str(&format!("# HELP {p} "));
        prometheus_help(&mut out, name);
        out.push('\n');
        out.push_str(&format!("# TYPE {p} counter\n{p} {v}\n"));
    }
    for Reading { name, value: v, .. } in &metrics.gauges {
        let p = prometheus_name(name);
        out.push_str(&format!("# HELP {p} "));
        prometheus_help(&mut out, name);
        out.push('\n');
        out.push_str(&format!("# TYPE {p} gauge\n{p} {v}\n"));
    }
    for s in &metrics.sketches {
        let p = prometheus_name(&s.name);
        out.push_str(&format!("# HELP {p} "));
        prometheus_help(&mut out, &s.name);
        out.push('\n');
        out.push_str(&format!("# TYPE {p} summary\n"));
        for q in [0.5, 0.9, 0.99] {
            out.push_str(&format!("{p}{{quantile=\"{q}\"}} {}\n", s.quantile(q)));
        }
        out.push_str(&format!("{p}_sum {}\n{p}_count {}\n", s.sum, s.count));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use crate::MetricClass::Exact;
    use crate::MetricsRegistry;

    fn sample_report() -> TelemetryReport {
        let reg = MetricsRegistry::new(true);
        reg.counter("a.count", Exact).add(7);
        reg.gauge("b.high_water", Exact).set_max(42);
        let s = reg.sketch("d.lat_us");
        s.record(40);
        s.record(4000);
        TelemetryReport {
            metrics: reg.snapshot(),
            spans: vec![
                SpanEvent {
                    cat: "decode",
                    name: "piece",
                    parent: Some("analyze"),
                    args: vec![
                        ("idx", ArgValue::Int(0)),
                        ("who", ArgValue::Str("a\"b".into())),
                    ],
                    ts_us: 10,
                    dur_us: 5,
                    tid: 1,
                    sim: false,
                },
                SpanEvent {
                    cat: "collect",
                    name: "overflow",
                    parent: None,
                    args: vec![("core", ArgValue::Int(0))],
                    ts_us: 100,
                    dur_us: 50,
                    tid: 0,
                    sim: true,
                },
            ],
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_fields() {
        let r = sample_report();
        let doc = r.chrome_trace_json();
        validate(&doc).expect("chrome trace must parse");
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"ph\":\"X\""));
        // Wall span on pid 1, simulated span on pid 2.
        assert!(doc.contains("\"pid\":1,\"tid\":1"));
        assert!(doc.contains("\"pid\":2,\"tid\":0"));
        // Escaped argument survived.
        assert!(doc.contains("a\\\"b"));
    }

    #[test]
    fn metrics_json_is_valid_and_flat() {
        let r = sample_report();
        let doc = r.metrics_json();
        validate(&doc).expect("metrics json must parse");
        assert!(doc.contains("\"a.count\":7"));
        assert!(doc.contains("\"b.high_water\":42"));
        assert!(doc.contains("\"count\":2"));
        assert!(doc.contains("\"sketches\":{\"d.lat_us\""));
        assert!(doc.contains("\"min\":40"));
        assert!(doc.contains("\"max\":4000"));
    }

    #[test]
    fn prometheus_text_has_all_families() {
        let r = sample_report();
        let text = prometheus_text(&r.metrics);
        assert!(text.contains("# TYPE jportal_a_count counter"));
        assert!(text.contains("jportal_a_count 7"));
        assert!(text.contains("# TYPE jportal_b_high_water gauge"));
        assert!(text.contains("jportal_d_lat_us_count 2"));
        assert!(text.contains("# TYPE jportal_d_lat_us summary"));
        assert!(text.contains("jportal_d_lat_us{quantile=\"0.99\"}"));
        // HELP carries the dotted original name.
        assert!(text.contains("# HELP jportal_a_count a.count"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn summary_table_lists_everything() {
        let r = sample_report();
        let t = r.summary_table();
        assert!(t.contains("a.count"));
        assert!(t.contains("b.high_water"));
        assert!(t.contains("d.lat_us"));
        assert!(t.contains("decode"));
        assert!(t.contains("collect"));
    }

    #[test]
    fn summary_table_shows_prune_rates_over_candidates() {
        let reg = MetricsRegistry::new(true);
        reg.counter("core.recover.candidates", Exact).add(200);
        reg.counter("core.recover.pruned_tier1", Exact).add(150);
        reg.counter("core.recover.pruned_tier2", Exact).add(30);
        let r = TelemetryReport {
            metrics: reg.snapshot(),
            spans: Vec::new(),
        };
        let t = r.summary_table();
        assert!(t.contains("75.0% of candidates"), "tier-1 rate:\n{t}");
        assert!(t.contains("15.0% of candidates"), "tier-2 rate:\n{t}");
        // Without the denominator the raw count renders unannotated.
        let reg2 = MetricsRegistry::new(true);
        reg2.counter("core.recover.pruned_tier1", Exact).add(150);
        let t2 = TelemetryReport {
            metrics: reg2.snapshot(),
            spans: Vec::new(),
        }
        .summary_table();
        assert!(!t2.contains("of candidates"));
    }

    #[test]
    fn categories_and_structure_are_sorted() {
        let r = sample_report();
        let cats: Vec<&str> = r.span_categories().into_iter().collect();
        assert_eq!(cats, vec!["collect", "decode"]);
        let s = r.span_structure();
        assert_eq!(s.len(), 2);
        assert!(s[0] < s[1]);
    }

    #[test]
    fn empty_report_renders() {
        let r = TelemetryReport::default();
        validate(&r.chrome_trace_json()).unwrap();
        validate(&r.metrics_json()).unwrap();
        assert!(r.summary_table().contains("disabled"));
    }
}
