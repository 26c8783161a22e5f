//! Event-stream determinism: the serialized JSONL run log (canonical
//! per-file ordering, timing fields off) must be **byte-identical** at
//! every worker count.

use squality::core::{Harness, StudyConfig};
use squality::corpus::generate_suite_scaled;
use squality::engine::EngineDialect;
use squality::formats::SuiteKind;
use squality::runner::{JsonlObserver, RunObserver};

fn slt_log(workers: usize) -> String {
    let gs = generate_suite_scaled(SuiteKind::Slt, 11, 0.05);
    let events = JsonlObserver::new();
    let run = Harness::builder()
        .suite(&gs)
        .host(EngineDialect::Duckdb)
        .workers(workers)
        .observer(&events)
        .build()
        .expect("suite configured")
        .run();
    assert!(run.summary.total > 0);
    events.log()
}

#[test]
fn jsonl_log_is_byte_identical_at_any_worker_count() {
    let baseline = slt_log(1);
    assert!(baseline.contains("\"event\":\"suite_started\""));
    assert!(baseline.contains("\"event\":\"record\""));
    assert!(baseline.contains("\"event\":\"suite_finished\""));
    // Skip reasons ride along in the log, traceable to their record ids.
    assert!(baseline.contains("\"outcome\":\"skip\""), "SLT on a cross host must skip");
    for workers in [2, 8] {
        assert_eq!(slt_log(workers), baseline, "workers={workers} changed the event log");
    }
}

#[test]
fn study_events_are_deterministic_across_worker_counts() {
    let study_log = |workers: usize| {
        let events = JsonlObserver::new();
        let observers: [&dyn RunObserver; 1] = [&events];
        let config = StudyConfig::default()
            .with_seed(5)
            .with_scale(0.02)
            .with_workers(workers)
            .with_translated_arm(true);
        let study = squality::core::run_study_with_observers(config, &observers);
        assert_eq!(study.matrix.len(), 12);
        events.log()
    };
    let baseline = study_log(1);
    // One suite_started per cell: 3 donor runs + 12 verbatim + 12
    // translated matrix cells (Table 8 reuses the verbatim cells).
    assert_eq!(baseline.matches("\"event\":\"suite_started\"").count(), 3 + 12 + 12);
    assert!(baseline.contains("(translated)"));
    assert_eq!(study_log(3), baseline, "study event log changed with worker count");
}
