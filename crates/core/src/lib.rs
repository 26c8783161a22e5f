//! SQuaLity core: the unified test suite and the full empirical study.
//!
//! This crate ties the substrates together into the paper's contribution:
//!
//! * [`harness`] — **the public entry point**: [`Harness::builder`]
//!   configures any suite × host run (client, faults, translation,
//!   workers, plan cache, observers — all defaulted) and executes it
//!   through the parallel scheduler with a typed, deterministic run-event
//!   stream,
//! * [`transplant`] — provision levels, summaries, and failure/skip
//!   accounting for donor-suite transplants (§2),
//! * [`experiments`] — the complete study: donor validation (RQ3),
//!   the cross-DBMS matrix (RQ4) with Table 8's coverage harvested from
//!   its verbatim cells, and the crash/hang findings (§6),
//! * [`report`] — regenerate every table and figure of the evaluation with
//!   the paper's published values alongside,
//! * [`triage`] — signature clustering of every study failure into
//!   root-cause clusters, plus a parallel ddmin reducer that shrinks one
//!   exemplar per cluster into a minimal, verified repro file; with a
//!   [`BugStore`] attached, reduction is incremental against the
//!   persistent bug repository,
//! * [`replay`] — the regression-replay service: run the whole bug-store
//!   repro corpus as a first-class suite and report still-failing /
//!   fixed / regressed transitions per entry,
//! * [`stability`] — the flakiness arm: perturbed re-execution of every
//!   failure (reruns, worker count, execution strategy, plan cache,
//!   fault profile, seeded backend fault schedules) classifying each as
//!   stable, flaky, or perturbation-sensitive.
//!
//! Runs execute in-process by default; [`BackendSpec::Subprocess`] (via
//! [`HarnessBuilder::backend`](harness::HarnessBuilder::backend)) moves
//! each worker connection into a `squality-backend-worker` child process
//! with per-statement deadlines and bounded restart, so engine crashes
//! and hangs become classified failures instead of harness aborts.
//!
//! # Example
//!
//! Run one suite on one host through the builder:
//!
//! ```no_run
//! use squality_core::Harness;
//! use squality_corpus::generate_suite_scaled;
//! use squality_engine::EngineDialect;
//! use squality_formats::SuiteKind;
//!
//! let suite = generate_suite_scaled(SuiteKind::PgRegress, 42, 0.1);
//! let run = Harness::builder()
//!     .suite(&suite)
//!     .host(EngineDialect::Duckdb)
//!     .workers(0) // all cores; results are identical at any count
//!     .build()?
//!     .run();
//! println!("success rate: {:.1}%", run.summary.success_rate() * 100.0);
//! # Ok::<(), squality_core::HarnessError>(())
//! ```
//!
//! Or reproduce the whole evaluation:
//!
//! ```no_run
//! use squality_core::{full_report, run_study, StudyConfig};
//!
//! let config = StudyConfig::default().with_seed(42).with_scale(0.1);
//! let study = run_study(config);
//! println!("{}", full_report(&study));
//! ```

pub mod cache;
pub mod experiments;
pub mod harness;
pub mod replay;
pub mod report;
pub mod stability;
pub mod transplant;
pub mod triage;

pub use cache::{CachedFileRun, CellSpec, FileKey, ResultCache, SCHEMA_VERSION};
pub use experiments::{
    dependency_breakdown, difficulty_summary, incompatibility_breakdown, run_study,
    run_study_cached, run_study_with_observers, BugFinding, CoverageRow, MatrixCell, Study,
    StudyConfig, EXECUTED_SUITES,
};
pub use harness::{Harness, HarnessBuilder, HarnessError, Run};
pub use replay::{
    replay_store, replay_store_with_observers, ReplayConfig, ReplayEntry, ReplayReport,
    ReplayStatus,
};
pub use report::{
    bug_report, bug_store_table, figure1, figure2, figure3, figure4, full_report, replay_table,
    stability_table, table1, table2, table3, table4, table5, table6, table7, table8,
    translation_table, triage_table,
};
pub use squality_backend::{BackendFaultBreakdown, BackendSpec};
pub use squality_bugstore::{signature_key, BugArm, BugEntry, BugStore};
pub use stability::{
    annotate_study, stability_report, BugVerdict, ClusterVerdict, StabilityConfig, StabilityReport,
};
pub use transplant::{
    sample_failures, FailureCase, Incident, Provision, SkipBreakdown, SuiteRunSummary,
};
