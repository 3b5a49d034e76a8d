//! Live-telemetry determinism: with a deterministic plane (ticks
//! stamped by logical index), the stored time-series of an analysis are
//! identical between `parallelism: Some(1)` and `Some(4)` — the stage
//! ticks happen on the main thread at fixed points, and every exact
//! metric they sample is deterministically merged before the tick.
//!
//! Series are selected by the class their metric was registered with:
//! only `MetricClass::Exact` series are part of the contract.

use jportal::core::{JPortal, JPortalConfig};
use jportal::jvm::{Jvm, JvmConfig};
use jportal::obs::{MetricClass, TelemetryConfig};
use jportal::workloads::workload_by_name;
use std::collections::BTreeMap;

/// Every stored series of the plane's newest snapshot whose metric is
/// exact, as plain data.
type SeriesMap = BTreeMap<String, Vec<(u64, u64, u64, i64)>>;

fn analyze_series(w_name: &str, parallelism: Option<usize>) -> (u64, SeriesMap) {
    let w = workload_by_name(w_name, 1);
    let r = Jvm::new(JvmConfig {
        cores: if w.multithreaded { 2 } else { 1 },
        pt_buffer_capacity: 1600,
        drain_bytes_per_kilocycle: 60,
        ..JvmConfig::default()
    })
    .run_threads(&w.program, &w.threads);
    let jp = JPortal::with_config(
        &w.program,
        JPortalConfig {
            parallelism,
            telemetry: Some(TelemetryConfig {
                deterministic: true,
                ..TelemetryConfig::default()
            }),
            ..JPortalConfig::default()
        },
    );
    jp.analyze(r.traces.as_ref().unwrap(), &r.archive);
    let plane = jp.telemetry_plane().unwrap();
    let snap = plane.latest();
    let series = snap
        .series
        .iter()
        .filter(|s| snap.metrics.series_class(&s.name) == Some(MetricClass::Exact))
        .map(|s| {
            let points = s
                .points
                .iter()
                .map(|p| (p.seq, p.ts, p.value, p.delta))
                .collect();
            (s.name.clone(), points)
        })
        .collect();
    (snap.seq, series)
}

#[test]
fn deterministic_series_are_parallelism_independent() {
    for name in ["fop", "sunflow"] {
        let (seq_seq, sequential) = analyze_series(name, Some(1));
        let (par_seq, parallel) = analyze_series(name, Some(4));
        assert_eq!(seq_seq, par_seq, "{name}: tick counts differ");
        assert!(seq_seq >= 3, "{name}: expected at least the stage ticks");
        let seq_names: Vec<&String> = sequential.keys().collect();
        let par_names: Vec<&String> = parallel.keys().collect();
        assert_eq!(seq_names, par_names, "{name}: series sets differ");
        assert!(sequential.contains_key("counter.ipt.decode.packets"));
        for (series, points) in &sequential {
            assert_eq!(
                points, &parallel[series],
                "{name}: series {series} differs between Some(1) and Some(4)"
            );
        }
    }
}

#[test]
fn telemetry_off_is_the_default_and_adds_nothing() {
    let w = workload_by_name("fop", 1);
    let r = Jvm::new(JvmConfig::default()).run_threads(&w.program, &w.threads);
    let jp = JPortal::new(&w.program);
    assert!(jp.telemetry_plane().is_none(), "no plane without opt-in");
    // Reports are identical with and without a plane: the plane only
    // snapshots metrics that already exist.
    let plain = jp.analyze(r.traces.as_ref().unwrap(), &r.archive);
    let jp_live = JPortal::with_config(
        &w.program,
        JPortalConfig {
            telemetry: Some(TelemetryConfig::default()),
            ..JPortalConfig::default()
        },
    );
    let live = jp_live.analyze(r.traces.as_ref().unwrap(), &r.archive);
    assert_eq!(plain, live);
    assert!(jp_live.telemetry_plane().unwrap().ticks() >= 3);
}
