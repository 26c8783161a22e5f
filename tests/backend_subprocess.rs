//! Out-of-process backend smoke tests at the harness level: a
//! `BackendSpec::Subprocess` run must produce the same verdicts as the
//! in-process engine, and a worker killed mid-suite must surface as a
//! classified `FailureCase` with bounded restarts — never a harness
//! abort.

use squality::core::{BackendSpec, Harness};
use squality::corpus::generate_suite_scaled;
use squality::engine::EngineDialect;
use squality::formats::SuiteKind;
use squality::runner::{FailKind, Outcome};
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Mutex, OnceLock};

/// The crash/hang hooks are process-global environment variables, and the
/// harness forwards them to workers at run time — serialize the tests
/// that run subprocess backends so one test's injection cannot leak into
/// another's clean run.
fn env_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Locate `squality-backend-worker` next to this test binary, building it
/// on demand so the umbrella crate's `cargo test` does not depend on a
/// prior whole-workspace build.
fn worker_bin() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let mut dir = std::env::current_exe().expect("test executable path");
        dir.pop(); // target/<profile>/deps
        dir.pop(); // target/<profile>
        let bin = dir.join(format!("squality-backend-worker{}", std::env::consts::EXE_SUFFIX));
        if !bin.exists() {
            let mut cmd = Command::new(env!("CARGO"));
            cmd.args(["build", "-p", "squality-backend", "--bin", "squality-backend-worker"]);
            if !cfg!(debug_assertions) {
                cmd.arg("--release");
            }
            let status = cmd.status().expect("spawn cargo to build the worker binary");
            assert!(status.success(), "building squality-backend-worker failed");
        }
        assert!(bin.exists(), "worker binary missing at {}", bin.display());
        bin
    })
    .clone()
}

/// A subprocess spec with the worker binary pinned explicitly.
fn subprocess_spec() -> BackendSpec {
    match BackendSpec::subprocess() {
        BackendSpec::Subprocess { deadline, max_restarts, .. } => {
            BackendSpec::Subprocess { bin: Some(worker_bin()), deadline, max_restarts }
        }
        other => other,
    }
}

#[test]
fn subprocess_run_matches_the_in_process_run() {
    let _guard = env_lock().lock().unwrap();
    let gs = generate_suite_scaled(SuiteKind::Slt, 13, 0.05);
    let run_with = |backend: BackendSpec| {
        Harness::builder()
            .suite(&gs)
            .host(EngineDialect::Sqlite)
            .workers(2)
            .backend(backend)
            .build()
            .expect("suite configured")
            .run()
    };
    let inproc = run_with(BackendSpec::InProcess);
    let sub = run_with(subprocess_spec());

    assert!(inproc.backend_faults.is_none(), "in-process runs have no backend counters");
    let faults = sub.backend_faults.expect("subprocess runs report fault counters");
    assert_eq!(faults.faults(), 0, "clean run must not count transport faults: {faults:?}");
    assert!(faults.spawns >= 1, "at least one worker process must have spawned");

    // Verdict-for-verdict equality across the process boundary.
    assert_eq!(sub.summary.total, inproc.summary.total);
    assert_eq!(sub.summary.passed, inproc.summary.passed);
    assert_eq!(sub.summary.failed, inproc.summary.failed);
    assert_eq!(sub.summary.skipped, inproc.summary.skipped);
    assert_eq!(sub.summary.failures, inproc.summary.failures);
    assert_eq!(sub.summary.skip_reasons, inproc.summary.skip_reasons);
}

/// Table 8 reads each cell's coverage back from the workers: a clean
/// subprocess run of a matrix diagonal cell (own suite, full environment,
/// CLI client) must report exactly the in-process coverage.
#[test]
fn diagonal_cell_coverage_matches_across_the_process_boundary() {
    let _guard = env_lock().lock().unwrap();
    use squality::core::Provision;
    use squality::engine::ClientKind;
    let gs = generate_suite_scaled(SuiteKind::PgRegress, 13, 0.05);
    let run_with = |backend: BackendSpec| {
        Harness::builder()
            .suite(&gs)
            .client(ClientKind::Cli)
            .provision(Provision::Full)
            .workers(2)
            .backend(backend)
            .build()
            .expect("suite configured")
            .run()
    };
    let inproc = run_with(BackendSpec::InProcess);
    let sub = run_with(subprocess_spec());
    assert_eq!(sub.backend_faults.expect("subprocess counters").faults(), 0);
    assert!(inproc.coverage.line_ratio() > 0.0);
    assert_eq!(sub.coverage, inproc.coverage);
}

#[test]
fn worker_crash_mid_suite_is_a_classified_failure_not_an_abort() {
    let _guard = env_lock().lock().unwrap();
    let gs = generate_suite_scaled(SuiteKind::Slt, 13, 0.05);
    std::env::set_var("SQUALITY_CRASH_AFTER", "7");
    let run = Harness::builder()
        .suite(&gs)
        .host(EngineDialect::Sqlite)
        .workers(1)
        .backend(subprocess_spec())
        .build()
        .expect("suite configured")
        .run();
    std::env::remove_var("SQUALITY_CRASH_AFTER");

    let faults = run.backend_faults.expect("subprocess runs report fault counters");
    assert!(faults.crashes >= 1, "the crash hook must be counted: {faults:?}");
    assert!(faults.restarts >= 1, "crashed workers must be restarted: {faults:?}");

    // The dead backend shows up as ordinary classified failures, each
    // with a stable (pid- and exit-status-free) signature.
    let crash_failures: Vec<_> = run
        .summary
        .failures
        .iter()
        .filter_map(|f| match &f.result.outcome {
            Outcome::Fail(info) if info.kind == FailKind::BackendCrash => Some(info),
            _ => None,
        })
        .collect();
    assert!(
        !crash_failures.is_empty(),
        "a dead backend must become a classified FailureCase, not a harness abort"
    );
    for info in &crash_failures {
        assert!(
            info.signature.normalized.contains("backend process died"),
            "unexpected crash signature: {}",
            info.signature.normalized
        );
        assert!(
            !info.signature.normalized.contains(|c: char| c.is_ascii_digit()),
            "crash signatures must not embed pids or exit statuses: {}",
            info.signature.normalized
        );
    }
}

/// The Listing-11 DuckDB "Python client" exception is simulated in the
/// client layer, not the engine — the parent must apply it to results
/// shipped over the wire exactly as it does in-process, or the RQ3
/// taxonomy diverges between backends.
#[test]
fn duckdb_client_exception_crosses_the_process_boundary() {
    let _guard = env_lock().lock().unwrap();
    use squality::core::Provision;
    let gs = generate_suite_scaled(SuiteKind::Duckdb, 7, 0.05);
    let run_with = |backend: BackendSpec| {
        Harness::builder()
            .suite(&gs)
            .host(EngineDialect::Duckdb)
            .provision(Provision::Bare)
            .workers(1)
            .backend(backend)
            .build()
            .expect("suite configured")
            .run()
    };
    let inproc = run_with(BackendSpec::InProcess).summary;
    let sub = run_with(subprocess_spec()).summary;
    assert!(
        inproc.failures.iter().any(|f| match &f.result.outcome {
            Outcome::Fail(info) => info.detail.contains("Python client"),
            _ => false,
        }),
        "this corpus slice should exercise the simulated client exception"
    );
    assert_eq!(sub.failures, inproc.failures);
    assert_eq!(sub.skip_reasons, inproc.skip_reasons);
}
