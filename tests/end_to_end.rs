//! End-to-end integration tests spanning all crates: format parsing →
//! unified IR → runner → engine simulators, organised around the paper's
//! listings and findings.

use squality::core::{run_study, StudyConfig};
use squality::corpus::{donor_dialect, generate_suite_scaled};
use squality::engine::{ClientKind, EngineDialect};
use squality::formats::{parse_mysql_test, parse_pg_regress, parse_slt, SltFlavor, SuiteKind};
use squality::runner::{EngineConnector, Outcome, Runner};

#[test]
fn listing1_runs_through_the_full_stack() {
    let slt = "\
statement ok
CREATE TABLE t1(a INTEGER, b INTEGER, c INTEGER)

statement ok
INSERT INTO t1(c,b,a) VALUES (3,4,2), (5,1,3), (1,6,4)

query II rowsort
SELECT a, b FROM t1 WHERE c > a
----
2
4
3
1
";
    let file = parse_slt("listing1.test", slt, SltFlavor::Classic);
    for dialect in EngineDialect::ALL {
        let mut conn = EngineConnector::new(dialect, ClientKind::Connector);
        let r = Runner::default().run_file(&mut conn, &file);
        assert_eq!(r.failed(), 0, "{dialect}: {:?}", r.results);
        assert_eq!(r.passed(), 3, "{dialect}");
    }
}

#[test]
fn listing2_mysql_pair_replays_on_mysql() {
    let test = "\
CREATE TABLE t1(a INTEGER, b INTEGER, c INTEGER);
INSERT INTO t1(c,b,a) VALUES (3,4,2), (5,1,3), (1,6,4);
SELECT a, b FROM t1 WHERE c > a;
";
    let result = "\
CREATE TABLE t1(a INTEGER, b INTEGER, c INTEGER);
INSERT INTO t1(c,b,a) VALUES (3,4,2), (5,1,3), (1,6,4);
SELECT a, b FROM t1 WHERE c > a;
a\tb
2\t4
3\t1
";
    let file = parse_mysql_test("example.test", test, result);
    let mut conn = EngineConnector::new(EngineDialect::Mysql, ClientKind::Cli);
    let r = Runner::default().run_file(&mut conn, &file);
    assert_eq!(r.failed(), 0, "{:?}", r.results);
    assert_eq!(r.passed(), 3);
}

#[test]
fn pg_regress_pair_replays_on_postgres() {
    let sql = "CREATE TABLE q(a int);\nINSERT INTO q VALUES (7);\nSELECT a FROM q;\n";
    let out = "\
CREATE TABLE q(a int);
CREATE TABLE
INSERT INTO q VALUES (7);
INSERT 0 1
SELECT a FROM q;
 a
---
 7
(1 row)
";
    let file = parse_pg_regress("basic.sql", sql, out);
    let mut conn = EngineConnector::new(EngineDialect::Postgres, ClientKind::Cli);
    let r = Runner::default().run_file(&mut conn, &file);
    assert_eq!(r.failed(), 0, "{:?}", r.results);
}

#[test]
fn cross_engine_transplant_of_duckdb_test() {
    // A DuckDB test using PRAGMA and a list literal fails on the other
    // hosts in the classes the paper's Table 6 predicts.
    let duck = "\
statement ok
PRAGMA explain_output = PHYSICAL_ONLY

query I nosort
SELECT [1, 2, 3]
----
[1, 2, 3]
";
    let file = parse_slt("duck.test", duck, SltFlavor::Duckdb);
    let runner = Runner::default();

    let mut on_duck = EngineConnector::new(EngineDialect::Duckdb, ClientKind::Cli);
    assert_eq!(runner.run_file(&mut on_duck, &file).failed(), 0);

    let mut on_pg = EngineConnector::new(EngineDialect::Postgres, ClientKind::Cli);
    let r = runner.run_file(&mut on_pg, &file);
    assert_eq!(r.failed(), 2, "{:?}", r.results); // PRAGMA + list literal
}

#[test]
fn paper_bugs_reproduce_through_suites() {
    // A micro version of the §6 campaign over hand-written donor records.
    let pg_style = "\
statement ok
CREATE SCHEMA a

statement ok
ALTER SCHEMA a RENAME TO b
";
    let file = parse_slt("alter_schema.test", pg_style, SltFlavor::Classic);
    let mut duck = EngineConnector::new(EngineDialect::Duckdb, ClientKind::Connector);
    let r = Runner::default().run_file(&mut duck, &file);
    assert!(r.crashed, "Listing 12 must crash DuckDB: {:?}", r.results);
}

#[test]
fn donor_environments_control_dependency_failures() {
    // The same pg suite: provisioned donor ≈ perfect, bare donor fails —
    // the paper's RQ3 in one assertion.
    let gs = generate_suite_scaled(SuiteKind::PgRegress, 99, 0.1);
    let runner = Runner::new(squality::runner::RunnerOptions {
        fresh_database: false,
        ..Default::default()
    });

    let mut provisioned_failed = 0;
    let mut bare_failed = 0;
    for file in &gs.files {
        let mut conn = gs.environment.donor_connector(donor_dialect(SuiteKind::PgRegress));
        provisioned_failed += runner.run_file(&mut conn, file).failed();

        let mut bare = EngineConnector::new(EngineDialect::Postgres, ClientKind::Connector);
        bare_failed += runner.run_file(&mut bare, file).failed();
    }
    assert_eq!(provisioned_failed, 0);
    assert!(bare_failed > 0);
}

#[test]
fn full_study_smoke() {
    let study = run_study(StudyConfig::default().with_seed(123).with_scale(0.04));
    // All four suites generated; the three executed ones have matrix rows.
    assert_eq!(study.suites.len(), 4);
    assert_eq!(study.matrix.len(), 12);
    assert_eq!(study.translated_matrix.len(), 12);
    // The report renders, including the translated-arm comparison.
    let report = squality::core::full_report(&study);
    assert!(report.contains("Figure 4"));
    assert!(report.contains("Table 8"));
    assert!(report.contains("Translation arm"));
}

#[test]
fn study_results_identical_across_worker_counts() {
    // The parallel pipeline is a pure throughput knob: the whole study —
    // matrix, donor runs, coverage, bug findings — must be byte-identical
    // at any worker count.
    let a = run_study(StudyConfig::default().with_seed(9).with_scale(0.03).with_workers(1));
    let b = run_study(StudyConfig::default().with_seed(9).with_scale(0.03).with_workers(3));
    assert_eq!(a.matrix.len(), b.matrix.len());
    for (ca, cb) in a.matrix.iter().zip(&b.matrix) {
        assert_eq!(ca.suite, cb.suite);
        assert_eq!(ca.host, cb.host);
        assert_eq!(ca.summary.total, cb.summary.total);
        assert_eq!(ca.summary.passed, cb.summary.passed);
        assert_eq!(ca.summary.failed, cb.summary.failed);
        assert_eq!(ca.summary.skipped, cb.summary.skipped);
        assert_eq!(ca.summary.failures, cb.summary.failures);
        assert_eq!(ca.summary.crashes, cb.summary.crashes);
        assert_eq!(ca.summary.hangs, cb.summary.hangs);
    }
    // The translated arm is part of the contract too: outcomes and the
    // per-rule translation counters are worker-count independent.
    assert_eq!(a.translated_matrix.len(), b.translated_matrix.len());
    for (ca, cb) in a.translated_matrix.iter().zip(&b.translated_matrix) {
        assert_eq!(ca.summary.passed, cb.summary.passed);
        assert_eq!(ca.summary.failed, cb.summary.failed);
        assert_eq!(ca.summary.failures, cb.summary.failures);
        assert_eq!(ca.summary.translation, cb.summary.translation);
        assert_eq!(ca.summary.syntax_failures(), cb.summary.syntax_failures());
    }
    for (da, db) in a.donor_runs.iter().zip(&b.donor_runs) {
        assert_eq!(da.failures, db.failures);
    }
    for (ra, rb) in a.coverage.iter().zip(&b.coverage) {
        assert_eq!(ra.engine, rb.engine);
        assert!((ra.original_line - rb.original_line).abs() < 1e-12);
        assert!((ra.original_branch - rb.original_branch).abs() < 1e-12);
        assert!((ra.squality_line - rb.squality_line).abs() < 1e-12);
        assert!((ra.squality_branch - rb.squality_branch).abs() < 1e-12);
    }
    assert_eq!(a.bugs.len(), b.bugs.len());
    // The shared plan cache must absorb a meaningful share of the study's
    // parse work (suites replay across donor runs, the matrix, coverage).
    assert!(a.parse_cache.hit_rate() > 0.3, "{:?}", a.parse_cache);
    // Texts are admitted on their second sighting, so the one-shot texts
    // among the misses leave no plan behind.
    assert!(a.parse_cache.entries < a.parse_cache.misses, "{:?}", a.parse_cache);
}

#[test]
fn skip_semantics_match_paper_table4() {
    // SLT on its donor skips a chunk of records (engine conditions);
    // DuckDB's suite skips via `require`.
    let slt = generate_suite_scaled(SuiteKind::Slt, 5, 0.1);
    let duck = generate_suite_scaled(SuiteKind::Duckdb, 5, 0.2);
    let runner = Runner::new(squality::runner::RunnerOptions {
        fresh_database: false,
        ..Default::default()
    });
    let mut skipped_slt = 0usize;
    let mut total_slt = 0usize;
    for f in &slt.files {
        let mut conn = EngineConnector::new(EngineDialect::Sqlite, ClientKind::Connector);
        let r = runner.run_file(&mut conn, f);
        skipped_slt += r.skipped();
        total_slt += r.total();
    }
    let rate = skipped_slt as f64 / total_slt as f64;
    assert!(rate > 0.05, "SLT skip rate {rate} (paper: 19.8%)");

    let mut any_require_skip = false;
    for f in &duck.files {
        let mut conn = EngineConnector::new(EngineDialect::Duckdb, ClientKind::Connector);
        let r = runner.run_file(&mut conn, f);
        if r.results
            .iter()
            .any(|x| matches!(&x.outcome, Outcome::Skipped(reason) if reason.contains("extension")))
        {
            any_require_skip = true;
        }
    }
    assert!(any_require_skip, "DuckDB require-gating must skip on bare engines");
}
