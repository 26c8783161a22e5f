//! End-to-end tests against a real `squality-backend-worker` process.
//!
//! `cargo test` builds every workspace binary before running integration
//! tests, so the worker is discoverable next to the test executable's
//! parent directory (`target/<profile>`).

use squality_backend::{discover_worker_bin, SubprocessConnectorFactory};
use squality_engine::{ClientKind, EngineDialect, QueryResult, Value};
use squality_runner::{
    Connector, ConnectorError, ConnectorFactory, DependencyClass, EngineConnector, FailKind,
    FailureSignature, IncompatibilityClass, TransportErrorKind,
};
use std::time::Duration;

fn worker() -> std::path::PathBuf {
    discover_worker_bin().expect("worker binary next to the test executable")
}

fn factory() -> SubprocessConnectorFactory {
    SubprocessConnectorFactory::new(worker(), EngineDialect::Sqlite, ClientKind::Cli)
        .deadline(Duration::from_millis(2_000))
}

fn run(conn: &mut impl Connector, sql: &str) -> Result<QueryResult, ConnectorError> {
    conn.execute(sql)
}

#[test]
fn executes_statements_out_of_process() {
    let factory = factory();
    let mut conn = factory.connect().expect("spawn worker");
    assert!(conn.backend_pid().is_some());
    run(&mut conn, "CREATE TABLE t(a INTEGER, b TEXT)").unwrap();
    run(&mut conn, "INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap();
    let result = run(&mut conn, "SELECT a, b FROM t ORDER BY a").unwrap();
    assert_eq!(result.rows.len(), 2);
    assert_eq!(result.rows[0][0], Value::Integer(1));
    // Engine errors cross the wire as engine errors, not transport faults.
    match run(&mut conn, "SELECT * FROM missing") {
        Err(ConnectorError::Engine(e)) => assert!(e.message.contains("missing"), "{e:?}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn subprocess_results_match_in_process_results() {
    let factory = factory();
    let mut sub = factory.connect().unwrap();
    let mut inproc = EngineConnector::new(EngineDialect::Sqlite, ClientKind::Cli);
    let script = [
        "CREATE TABLE t(i INTEGER, f REAL, s TEXT)",
        "INSERT INTO t VALUES (1, 1.5, 'a'), (2, -0.0, NULL), (3, 0.1, 'b''q')",
        "SELECT i, f, s FROM t ORDER BY i",
        "SELECT avg(f), count(*) FROM t",
        "SELECT * FROM nowhere",
    ];
    for sql in script {
        let a = sub.execute(sql);
        let b = inproc.execute(sql);
        match (a, b) {
            (Ok(ra), Ok(rb)) => {
                assert_eq!(ra, rb, "{sql}");
                for (row_a, row_b) in ra.rows.iter().zip(&rb.rows) {
                    for (va, vb) in row_a.iter().zip(row_b) {
                        assert_eq!(sub.render(va), inproc.render(vb), "{sql}");
                    }
                }
            }
            (Err(ConnectorError::Engine(ea)), Err(ConnectorError::Engine(eb))) => {
                assert_eq!(ea.kind, eb.kind, "{sql}");
                assert_eq!(ea.message, eb.message, "{sql}");
            }
            (a, b) => panic!("{sql}: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn reset_clears_tables_but_keeps_environment() {
    let factory = factory();
    let mut conn = factory.connect().unwrap();
    conn.provide_file("/data/onek.data", vec!["1|one".into()]);
    conn.provide_extension("regresslib");
    run(&mut conn, "CREATE TABLE t(a INTEGER)").unwrap();
    conn.reset();
    assert!(run(&mut conn, "SELECT * FROM t").is_err(), "reset dropped the table");
    assert!(conn.has_extension("regresslib"));
    assert!(!conn.has_extension("nope"));
    // The same worker process served both sides of the reset.
    assert_eq!(factory.stats().snapshot().spawns, 1);
}

#[test]
fn crash_hook_is_a_recovered_crash_fault_with_stable_signature() {
    let factory = factory().env("SQUALITY_CRASH_AFTER", "2").max_restarts(3);
    let mut conn = factory.connect().unwrap();
    let pid_before = conn.backend_pid();
    run(&mut conn, "SELECT 1").unwrap();
    let fault = match run(&mut conn, "SELECT 2") {
        Err(ConnectorError::Transport(t)) => t,
        other => panic!("{other:?}"),
    };
    assert_eq!(fault.kind, TransportErrorKind::Crash);
    assert!(fault.recovered, "within the restart budget: {fault:?}");
    assert_eq!(conn.restarts_this_file(), 1);
    assert_ne!(conn.backend_pid(), pid_before, "a fresh worker took over");
    // The fresh worker answers (its own exec counter restarts at 1).
    run(&mut conn, "SELECT 3").unwrap();
    let stats = factory.stats().snapshot();
    assert_eq!((stats.crashes, stats.restarts, stats.spawns), (1, 1, 2));

    // The fault classifies like any failure — and its signature is stable
    // (exit statuses normalize away), so repeated backend deaths cluster
    // into one triage bucket.
    let kind = FailKind::BackendCrash;
    let sig =
        |detail: &str| FailureSignature::compute(kind, None, detail, &[], &[], Some("SELECT 2"));
    let sig_a = sig(&fault.to_string());
    let sig_b = sig("backend crash: backend process died (exit status: 999)");
    assert_eq!(sig_a, sig_b, "exit statuses must not leak into the signature");
    assert_eq!(sig_a.dependency, DependencyClass::Runner);
    assert_eq!(sig_a.incompatibility, IncompatibilityClass::Misc);
}

#[test]
fn hang_hook_is_a_recovered_timeout_fault() {
    let factory = factory().env("SQUALITY_HANG_AFTER", "1").deadline(Duration::from_millis(120));
    let mut conn = factory.connect().unwrap();
    let fault = match run(&mut conn, "SELECT 1") {
        Err(ConnectorError::Transport(t)) => t,
        other => panic!("{other:?}"),
    };
    assert_eq!(fault.kind, TransportErrorKind::Timeout);
    assert!(fault.recovered);
    assert!(fault.to_string().contains("deadline"), "{fault}");
    let stats = factory.stats().snapshot();
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.restarts, 1);
}

#[test]
fn restart_budget_is_bounded_and_refills_per_file() {
    // Crash on every statement: the budget drains, then faults surface
    // unrecovered (which the runner maps to a file-stopping crash).
    let factory = factory().env("SQUALITY_CRASH_AFTER", "1").max_restarts(2);
    let mut conn = factory.connect().unwrap();
    let mut last = None;
    for _ in 0..3 {
        match run(&mut conn, "SELECT 1") {
            Err(ConnectorError::Transport(t)) => last = Some(t),
            other => panic!("{other:?}"),
        }
    }
    let last = last.unwrap();
    assert!(!last.recovered, "budget exhausted: {last:?}");
    assert!(last.to_string().contains("budget"), "{last}");
    assert_eq!(conn.restarts_this_file(), 2);
    // A new file refills the budget.
    conn.reset();
    assert_eq!(conn.restarts_this_file(), 0);
    match run(&mut conn, "SELECT 1") {
        Err(ConnectorError::Transport(t)) => assert!(t.recovered, "{t:?}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn connect_failure_is_a_transport_error_not_a_panic() {
    let factory = SubprocessConnectorFactory::new(
        "/nonexistent/squality-backend-worker",
        EngineDialect::Sqlite,
        ClientKind::Cli,
    );
    match factory.connect() {
        Err(ConnectorError::Transport(t)) => {
            assert_eq!(t.kind, TransportErrorKind::Connect);
            assert!(!t.recovered);
        }
        other => panic!("{other:?}"),
    }
    // Factory info stays static and deterministic even when no worker
    // can spawn (it never probes).
    let info = factory.info();
    assert_eq!(info.transport, "subprocess");
    assert_eq!(info.backend_pid, None);
}

#[test]
fn factory_info_is_static_and_connection_info_is_live() {
    let factory = factory();
    let info = factory.info();
    assert_eq!(info.engine, "sqlite");
    assert_eq!(info.transport, "subprocess");
    assert_eq!(info.backend_pid, None, "suite metadata must not depend on pids");
    assert_eq!(info.backend_version.as_deref(), Some("worker/2"));
    let conn = factory.connect().unwrap();
    let live = conn.info();
    assert_eq!(live.backend_pid, conn.backend_pid());
    assert_eq!(live.transport, "subprocess");
}
