//! Determinism under fault injection: the contract that summaries and
//! JSONL event logs are byte-identical at any worker count must survive
//! the *fault* paths too — subprocess workers crashing on injected hooks,
//! bounded restarts, and the stability arm's backend probes. A crash that
//! moved with worker placement would make flakiness verdicts themselves
//! flaky.

use squality::core::{annotate_run, BackendSpec, Harness, StabilityConfig};
use squality::corpus::generate_suite_scaled;
use squality::engine::EngineDialect;
use squality::formats::{parse_slt, SltFlavor, SuiteKind};
use squality::runner::{FailKind, JsonlObserver, Outcome, PerturbationAxis, Stability};
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Worker-binary discovery and the workers' fault hooks ride on
/// process-global environment state — serialize the tests that spawn
/// subprocess backends.
fn env_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A worker fault hook set in this process's environment, which every
/// subprocess backend forwards to its workers; removed on drop. Set only
/// while holding [`env_lock`].
struct Hook(&'static str);

impl Hook {
    fn set(key: &'static str, after: u64) -> Hook {
        std::env::set_var(key, after.to_string());
        Hook(key)
    }
}

impl Drop for Hook {
    fn drop(&mut self) {
        std::env::remove_var(self.0);
    }
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

/// With a crash hook injected into every worker, the run must still be
/// byte-identical at workers 1, 2, and 8: the worker counts execs per
/// *file* (its counter resets on the RESET frame), and the restart
/// budget is per file too, so every crash point is a function of the
/// file alone — worker placement cannot move it.
#[test]
fn crash_injected_run_is_byte_identical_at_any_worker_count() {
    let _guard = env_lock();
    let _crash = Hook::set("SQUALITY_CRASH_AFTER", 7);
    std::env::remove_var("SQUALITY_HANG_AFTER");
    let gs = generate_suite_scaled(SuiteKind::Slt, 13, 0.05);
    let run_at = |workers: usize| {
        let events = JsonlObserver::new();
        let run = Harness::builder()
            .suite(&gs)
            .host(EngineDialect::Sqlite)
            .workers(workers)
            .backend(subprocess_spec())
            .observer(&events)
            .build()
            .expect("suite configured")
            .run();
        (run, events.log())
    };

    let (base, base_log) = run_at(1);
    let faults = base.backend_faults.expect("subprocess runs report fault counters");
    assert!(faults.crashes >= 1, "the hook must kill at least one worker: {faults:?}");
    assert!(faults.restarts >= 1, "crashed workers must be restarted: {faults:?}");
    assert!(
        base.summary.failures.iter().any(|f| matches!(
            &f.result.outcome,
            Outcome::Fail(info) if info.kind == FailKind::BackendCrash
        )),
        "injected crashes must surface as classified failures"
    );

    for workers in [2, 8] {
        let (run, log) = run_at(workers);
        assert_eq!(log, base_log, "workers={workers}: event log diverged under crash injection");
        assert_eq!(run.summary.failures, base.summary.failures, "workers={workers}");
        assert_eq!(run.summary.passed, base.summary.passed, "workers={workers}");
        assert_eq!(run.summary.skipped, base.summary.skipped, "workers={workers}");
        assert_eq!(run.summary.skip_reasons, base.summary.skip_reasons, "workers={workers}");
        let refaults = run.backend_faults.expect("subprocess runs report fault counters");
        assert_eq!(refaults.crashes, faults.crashes, "workers={workers}: crash count moved");
    }
}

/// The backend axis spawns real subprocess probes; the verdicts it
/// stitches onto the summary must nonetheless be identical at every
/// harness *and* analysis worker count.
#[test]
fn backend_axis_verdicts_match_at_any_worker_count() {
    let _guard = env_lock();
    // The axis discovers the worker binary itself at probe time — pin it
    // so a bare `cargo test` needs no prior whole-workspace build.
    std::env::set_var("SQUALITY_BACKEND_WORKER", worker_bin());
    let gs = generate_suite_scaled(SuiteKind::Slt, 11, 0.04);
    let run_at = |workers: usize| {
        let builder = Harness::builder().suite(&gs).host(EngineDialect::Duckdb).workers(workers);
        let mut summary = builder.clone().build().expect("suite configured").run().summary;
        let config =
            StabilityConfig::default().with_reruns(2).with_workers(workers).with_backend_axis(true);
        annotate_run(&builder, &mut summary, &config);
        summary
    };

    let base = run_at(1);
    let annotated = base
        .failures
        .iter()
        .filter(|f| {
            matches!(
                &f.result.outcome,
                Outcome::Fail(info) if info.signature.stability.is_some()
            )
        })
        .count();
    assert!(annotated > 0, "the arm must annotate this cell's failures");

    let two = run_at(2);
    let eight = run_at(8);
    std::env::remove_var("SQUALITY_BACKEND_WORKER");

    assert_eq!(two.failures, base.failures, "workers=2: verdicts diverged");
    assert_eq!(eight.failures, base.failures, "workers=8: verdicts diverged");
    assert_eq!(two.failed, base.failed);
    assert_eq!(eight.failed, base.failed);
}

/// The stability arm re-runs a failure in the configuration that produced
/// it. A worker crash behind a subprocess backend reproduces on every
/// baseline rerun (the probes run behind the same backend, and the hook
/// is part of their environment), survives every in-process axis, and
/// vanishes only when the backend flips to in-process: the verdict is
/// `sensitive[backend]`. Probes that re-ran the file in-process would read
/// `flaky[fail|pass]` instead.
#[test]
fn a_worker_crash_reads_sensitive_to_the_backend() {
    let _guard = env_lock();
    let _crash = Hook::set("SQUALITY_CRASH_AFTER", 7);
    std::env::remove_var("SQUALITY_HANG_AFTER");
    let gs = generate_suite_scaled(SuiteKind::Slt, 13, 0.05);
    let builder =
        Harness::builder().suite(&gs).host(EngineDialect::Sqlite).backend(subprocess_spec());
    let mut summary = builder.clone().build().expect("suite configured").run().summary;
    let config = StabilityConfig::default().with_reruns(2).with_workers(1).with_backend_axis(true);
    annotate_run(&builder, &mut summary, &config);

    let verdicts: Vec<&Option<Stability>> = summary
        .failures
        .iter()
        .filter_map(|f| match &f.result.outcome {
            Outcome::Fail(info) if info.kind == FailKind::BackendCrash => {
                Some(&info.signature.stability)
            }
            _ => None,
        })
        .collect();
    assert!(!verdicts.is_empty(), "the hook must surface as classified crashes");
    let backend = Stability::PerturbationSensitive { axis: PerturbationAxis::Backend };
    for verdict in verdicts {
        assert_eq!(verdict.as_ref(), Some(&backend), "a worker crash misclassified");
    }
}

/// The crash hook as a self-check with a known answer. The file sends
/// five statements, and its fourth record fails on its own. A kill at any
/// statement up to that record surfaces as a classified crash on or
/// before it; a kill after the file's last statement never fires and
/// leaves the summary equal to a run without a hook.
#[test]
fn a_crash_hook_reads_as_its_known_answer() {
    let _guard = env_lock();
    std::env::remove_var("SQUALITY_CRASH_AFTER");
    std::env::remove_var("SQUALITY_HANG_AFTER");
    let text = "statement ok\nCREATE TABLE t(a INTEGER)\n\n\
                statement ok\nINSERT INTO t VALUES (1)\n\n\
                statement ok\nINSERT INTO t VALUES (2)\n\n\
                query I nosort\nSELECT a FROM t ORDER BY a\n----\n1\n3\n\n\
                statement ok\nDROP TABLE t\n";
    let files = [parse_slt("hook.test", text, SltFlavor::Classic)];
    let run = || {
        Harness::builder()
            .files(SuiteKind::Slt, &files)
            .host(EngineDialect::Sqlite)
            .backend(subprocess_spec())
            .build()
            .expect("files configured")
            .run()
            .summary
    };

    let clean = run();
    let [target] = clean.failures.as_slice() else {
        panic!("exactly the query record must fail: {:?}", clean.failures)
    };
    assert!(clean.crashes.is_empty() && clean.hangs.is_empty(), "{clean:?}");
    assert_eq!(target.id.ordinal, 3, "the failing query is the fourth statement");

    for after in 1..=u64::from(target.id.ordinal) + 1 {
        let _crash = Hook::set("SQUALITY_CRASH_AFTER", after);
        let hooked = run();
        let crashed_record = hooked.failures.iter().any(|f| {
            f.id.line <= target.id.line
                && matches!(
                    &f.result.outcome,
                    Outcome::Fail(info) if info.kind == FailKind::BackendCrash
                )
        });
        let crashed_file = hooked.crashes.iter().any(|c| c.line <= target.id.line as usize);
        assert!(
            crashed_record || crashed_file,
            "a kill at statement {after} is no classified crash on or before line {}: {hooked:?}",
            target.id.line
        );
    }

    let _past_the_end = Hook::set("SQUALITY_CRASH_AFTER", 6);
    assert_eq!(format!("{:?}", run()), format!("{clean:?}"), "a hook past the file fired");
}
