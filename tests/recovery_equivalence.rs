//! Recovery scores candidates sequentially at every worker count. This
//! pins the case where spare workers once fanned candidate scoring out:
//! one thread, so the thread fan-out leaves workers idle, and a lossy fop
//! trace with many holes whose anchors have many candidates. The report,
//! every `RecoveryStats` field and the decision journal must not depend
//! on `parallelism`, with summaries on or off and with a corpus attached
//! or not.

use std::sync::Arc;

use jportal::core::{JPortal, JPortalConfig, JPortalReport};
use jportal::corpus::{Corpus, CorpusBuilder};
use jportal::jvm::{Jvm, JvmConfig, RunResult};
use jportal::workloads::workload_by_name;

fn lossy_config() -> JvmConfig {
    JvmConfig {
        cores: 1,
        pt_buffer_capacity: 1000,
        drain_bytes_per_kilocycle: 50,
        ..JvmConfig::default()
    }
}

#[test]
fn recovery_is_identical_at_every_parallelism() {
    let w = workload_by_name("fop", 4);
    let clean = Jvm::new(JvmConfig {
        cores: 1,
        ..JvmConfig::default()
    })
    .run(&w.program);
    let mut builder = CorpusBuilder::new(JPortalConfig::default().recovery.anchor_len);
    JPortal::new(&w.program).analyze_harvest(
        clean.traces.as_ref().unwrap(),
        &clean.archive,
        &mut builder,
    );
    let corpus = Arc::new(builder.finish());

    let r: RunResult = Jvm::new(lossy_config()).run(&w.program);
    let traces = r.traces.as_ref().unwrap();
    let analyze = |summaries: bool, corpus: Option<&Arc<Corpus>>, parallelism| {
        let mut jp = JPortal::with_config(
            &w.program,
            JPortalConfig {
                summaries,
                corpus: corpus.is_some(),
                parallelism,
                ..JPortalConfig::default()
            },
        );
        if let Some(c) = corpus {
            jp = jp.with_corpus_store(Arc::clone(c));
        }
        let report: JPortalReport = jp.analyze(traces, &r.archive);
        let journal = jp.obs().journal_snapshot();
        assert_eq!(journal.dropped, 0, "the journal must hold every decision");
        (report, journal)
    };

    for summaries in [false, true] {
        for corpus in [None, Some(&corpus)] {
            let mode = format!("summaries={summaries} corpus={}", corpus.is_some());
            let (reference, journal) = analyze(summaries, corpus, Some(1));
            assert_eq!(reference.threads.len(), 1, "{mode}: one thread");
            let stats = reference.threads[0].recovery;
            assert!(stats.holes >= 50, "{mode}: too few holes: {stats:?}");
            assert!(
                stats.candidates + stats.summary_pruned >= 48 * stats.holes,
                "{mode}: too few candidates per hole: {stats:?}"
            );
            assert_eq!(
                stats.corpus_lookups > 0,
                corpus.is_some(),
                "{mode}: the corpus is consulted exactly when attached"
            );
            for parallelism in [Some(2), None] {
                let (report, other) = analyze(summaries, corpus, parallelism);
                assert_eq!(report, reference, "{mode} {parallelism:?}: report");
                assert_eq!(
                    report.threads[0].recovery, stats,
                    "{mode} {parallelism:?}: recovery stats"
                );
                assert_eq!(
                    other.to_jsonl(),
                    journal.to_jsonl(),
                    "{mode} {parallelism:?}: journal"
                );
            }
        }
    }
}
