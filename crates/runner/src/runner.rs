//! The unified test runner (the paper's SQuaLity runner core).
//!
//! Executes unified-IR test files statement-by-statement against any
//! [`Connector`], honouring skipif/onlyif conditions, `require`, loops with
//! variable substitution, halt, and recording per-record outcomes. CLI
//! meta-commands, shell execution, and includes are deliberately *not*
//! interpreted (the paper: "We did not seek to interpret and implement
//! these commands"), which surfaces as the Runner/Misc failure class.

use crate::connector::{Connector, ConnectorError, TransportError, TransportErrorKind};
use crate::events::{RunEvent, RunObserver};
use crate::outcome::{FailInfo, FailKind, FileResult, Outcome, RecordResult, SkipReason};
use crate::validate::{validate_query, NumericMode, Verdict};
use squality_engine::ErrorKind;
use squality_formats::{
    ControlCommand, QueryExpectation, RecordId, RecordKind, StatementExpect, TestFile, TestRecord,
};
use squality_sqlast::translate::{TranslationCache, TranslationStats};
use squality_sqltext::TextDialect;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Whether the runner adapts donor statements to the host dialect before
/// executing them (the paper's "what if we translate?" counterfactual).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TranslationMode {
    /// Execute donor statement text as written (the paper's methodology).
    #[default]
    Verbatim,
    /// Rewrite each statement from the donor dialect to the host dialect
    /// via `parse → translate → print`. A same-dialect pair is the
    /// identity: the original text runs byte-for-byte unchanged.
    Translated {
        /// The donor suite's dialect (what the statement text is written in).
        from: TextDialect,
        /// The host engine's dialect (what the text must run on).
        to: TextDialect,
    },
}

/// Runner configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunnerOptions {
    /// Numeric comparison mode (Exact = SQuaLity, Tolerant = original
    /// DuckDB runner; see the ablation bench).
    pub numeric: NumericMode,
    /// Reset the connector's database before the file (donor suites assume
    /// independent files for SLT/DuckDB).
    pub fresh_database: bool,
    /// Statement translation applied before execution.
    pub translation: TranslationMode,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            numeric: NumericMode::Exact,
            fresh_database: true,
            translation: TranslationMode::Verbatim,
        }
    }
}

/// The unified runner.
#[derive(Default)]
pub struct Runner {
    pub options: RunnerOptions,
    /// Per-rule translation counters of the files this runner executes
    /// directly. [`Runner::run_files`] instead measures each file with a
    /// private set and reports per-file deltas, which sum to the same
    /// totals. Counters record per execution; memoisation through
    /// [`Runner::translation_cache`] never changes the totals.
    pub translation_stats: Arc<TranslationStats>,
    /// Memoised text → translated-text cache shared across workers, so a
    /// loop-replayed statement is parsed and printed once per suite run.
    pub translation_cache: Arc<TranslationCache>,
}

impl Runner {
    /// Runner with explicit options and fresh translation counters.
    pub fn new(options: RunnerOptions) -> Runner {
        Runner {
            options,
            translation_stats: Arc::new(TranslationStats::new()),
            translation_cache: Arc::new(TranslationCache::new()),
        }
    }

    /// Execute a test file against a connector.
    pub fn run_file(&self, conn: &mut dyn Connector, file: &TestFile) -> FileResult {
        self.run_file_inner(conn, file, 0, None)
    }

    /// [`Runner::run_file`] emitting [`RunEvent`]s to `observer`:
    /// `FileStarted`, one `RecordFinished` per record (in execution
    /// order, with its stable [`RecordId`]), then `FileFinished`. `index`
    /// is the file's input index within its suite run (0 when running a
    /// file standalone).
    pub fn run_file_observed(
        &self,
        conn: &mut dyn Connector,
        file: &TestFile,
        index: usize,
        observer: &dyn RunObserver,
    ) -> FileResult {
        self.run_file_inner(conn, file, index, Some(observer))
    }

    /// The execution loop. `observer: None` skips event emission *and*
    /// the per-record wall-clock reads, keeping the unobserved hot path
    /// exactly as cheap as before events existed.
    fn run_file_inner(
        &self,
        conn: &mut dyn Connector,
        file: &TestFile,
        index: usize,
        observer: Option<&dyn RunObserver>,
    ) -> FileResult {
        let started = observer.is_some().then(std::time::Instant::now);
        if let Some(obs) = observer {
            obs.on_event(&RunEvent::FileStarted { index, file: &file.name });
        }
        if self.options.fresh_database {
            conn.reset();
        }
        let mut ctx = RunCtx {
            conn,
            numeric: self.options.numeric,
            translation: self.options.translation,
            tstats: &self.translation_stats,
            tcache: &self.translation_cache,
            vars: BTreeMap::new(),
            stopped: None,
            mode_skip: false,
            cond_reason: None,
            results: Vec::new(),
            observer,
            file_index: index,
            file_name: &file.name,
        };
        ctx.run_records(&file.records);
        let crashed = ctx.results.iter().any(|r| matches!(r.outcome, Outcome::Crash(_)));
        let hung = ctx.results.iter().any(|r| matches!(r.outcome, Outcome::Hang(_)));
        let result = FileResult { file: file.name.clone(), results: ctx.results, crashed, hung };
        if let Some(obs) = observer {
            obs.on_event(&RunEvent::FileFinished {
                index,
                file: &file.name,
                result: &result,
                elapsed_nanos: started.map_or(0, |s| s.elapsed().as_nanos() as u64),
            });
        }
        result
    }
}

struct RunCtx<'a> {
    conn: &'a mut dyn Connector,
    numeric: NumericMode,
    translation: TranslationMode,
    tstats: &'a TranslationStats,
    tcache: &'a TranslationCache,
    vars: BTreeMap<String, String>,
    /// Some(reason) once a halt/require/crash stops the file. Interned:
    /// every remaining record clones the `Arc`, not the text.
    stopped: Option<SkipReason>,
    mode_skip: bool,
    /// Interned "condition excludes <engine>" reason for this connection.
    cond_reason: Option<SkipReason>,
    results: Vec<RecordResult>,
    /// `None` = no event emission and no per-record clock reads.
    observer: Option<&'a dyn RunObserver>,
    file_index: usize,
    file_name: &'a str,
}

/// Interned reason for `mode skip` suppression (one allocation per
/// process, not one per suppressed record).
fn mode_skip_reason() -> SkipReason {
    use std::sync::OnceLock;
    static REASON: OnceLock<SkipReason> = OnceLock::new();
    SkipReason::clone(REASON.get_or_init(|| SkipReason::from("mode skip")))
}

impl<'a> RunCtx<'a> {
    /// Record one outcome: emit the `RecordFinished` event (the ordinal is
    /// the record's position in execution order), then store the result.
    fn record(&mut self, line: usize, sql: Option<String>, outcome: Outcome, elapsed_nanos: u64) {
        if let Some(obs) = self.observer {
            obs.on_event(&RunEvent::RecordFinished {
                index: self.file_index,
                file: self.file_name,
                id: RecordId::new(line, self.results.len()),
                outcome: &outcome,
                elapsed_nanos,
            });
        }
        self.results.push(RecordResult { line, sql, outcome });
    }

    fn condition_excludes_reason(&mut self) -> SkipReason {
        if self.cond_reason.is_none() {
            self.cond_reason =
                Some(SkipReason::from(format!("condition excludes {}", self.conn.engine_name())));
        }
        SkipReason::clone(self.cond_reason.as_ref().expect("just set"))
    }

    fn run_records(&mut self, records: &[TestRecord]) {
        for rec in records {
            if let Some(reason) = self.stopped.clone() {
                self.record(rec.line, None, Outcome::Skipped(reason), 0);
                continue;
            }
            if self.mode_skip {
                // `mode skip` suppresses everything except `mode unskip`.
                if let RecordKind::Control(ControlCommand::Mode(m)) = &rec.kind {
                    if m == "unskip" {
                        self.mode_skip = false;
                    }
                }
                self.record(rec.line, None, Outcome::Skipped(mode_skip_reason()), 0);
                continue;
            }
            if !rec.applies_to(self.conn.engine_name()) {
                let reason = self.condition_excludes_reason();
                self.record(rec.line, None, Outcome::Skipped(reason), 0);
                continue;
            }
            self.run_record(rec);
        }
    }

    fn run_record(&mut self, rec: &TestRecord) {
        match &rec.kind {
            RecordKind::Statement { sql, expect } => {
                let sql = self.prepare_sql(sql);
                let started = self.observer.is_some().then(std::time::Instant::now);
                let outcome = self.run_statement(&sql, expect);
                let elapsed = started.map_or(0, |s| s.elapsed().as_nanos() as u64);
                self.check_stop(&outcome);
                self.record(rec.line, Some(sql), outcome, elapsed);
            }
            RecordKind::Query { sql, types, sort, expected, .. } => {
                let sql = self.prepare_sql(sql);
                let started = self.observer.is_some().then(std::time::Instant::now);
                let outcome = self.run_query(&sql, types, *sort, expected);
                let elapsed = started.map_or(0, |s| s.elapsed().as_nanos() as u64);
                self.check_stop(&outcome);
                self.record(rec.line, Some(sql), outcome, elapsed);
            }
            RecordKind::Control(cmd) => self.run_control(rec.line, cmd),
        }
    }

    fn check_stop(&mut self, outcome: &Outcome) {
        match outcome {
            Outcome::Crash(m) => {
                self.stopped = Some(format!("engine crashed: {m}").into());
            }
            Outcome::Hang(m) => {
                self.stopped = Some(format!("engine hung: {m}").into());
            }
            _ => {}
        }
    }

    /// The outcome of a transport fault: a recovered fault (the backend
    /// restarted within its budget) is a classified failure and the file
    /// continues on the fresh backend; an unrecovered one stops the file
    /// like an engine crash (an unrecovered timeout reads as a hang).
    /// Transport faults are diagnosed *before* expectation matching — a
    /// `statement error` record never passes on a dead backend.
    fn transport_outcome(&self, fault: TransportError, sql: &str) -> Outcome {
        if !fault.recovered {
            return match fault.kind {
                TransportErrorKind::Timeout => Outcome::Hang(fault.to_string()),
                _ => Outcome::Crash(fault.to_string()),
            };
        }
        let kind = match fault.kind {
            TransportErrorKind::Timeout => FailKind::BackendTimeout,
            TransportErrorKind::Protocol => FailKind::BackendProtocol,
            TransportErrorKind::Crash | TransportErrorKind::Connect => FailKind::BackendCrash,
        };
        Outcome::Fail(FailInfo::new(
            kind,
            None,
            fault.to_string(),
            Vec::new(),
            Vec::new(),
            Some(sql),
        ))
    }

    fn run_statement(&mut self, sql: &str, expect: &StatementExpect) -> Outcome {
        let result = match self.conn.execute(sql) {
            Ok(r) => Ok(r),
            Err(ConnectorError::Engine(e)) => Err(e),
            Err(ConnectorError::Transport(t)) => return self.transport_outcome(t, sql),
        };
        match (result, expect) {
            (Ok(_), StatementExpect::Ok) | (Ok(_), StatementExpect::Count(_)) => Outcome::Pass,
            (Ok(_), StatementExpect::Error { .. }) => Outcome::Fail(FailInfo::new(
                FailKind::ExpectedErrorButOk,
                None,
                "statement succeeded but an error was expected",
                Vec::new(),
                Vec::new(),
                Some(sql),
            )),
            (Err(e), expect) => {
                if e.kind == ErrorKind::Fatal {
                    return Outcome::Crash(e.message);
                }
                if e.kind == ErrorKind::Hang {
                    return Outcome::Hang(e.message);
                }
                match expect {
                    StatementExpect::Error { message } => match message {
                        Some(m) if !e.message.contains(m.as_str()) => Outcome::Fail(FailInfo::new(
                            FailKind::WrongErrorMessage,
                            Some(e.kind),
                            format!("expected error containing {m:?}, got {:?}", e.message),
                            vec![m.clone()],
                            vec![e.message],
                            Some(sql),
                        )),
                        _ => Outcome::Pass,
                    },
                    _ => Outcome::Fail(FailInfo::new(
                        FailKind::UnexpectedError,
                        Some(e.kind),
                        e.message,
                        Vec::new(),
                        Vec::new(),
                        Some(sql),
                    )),
                }
            }
        }
    }

    fn run_query(
        &mut self,
        sql: &str,
        types: &str,
        sort: squality_formats::SortMode,
        expected: &QueryExpectation,
    ) -> Outcome {
        let result = match self.conn.execute(sql) {
            Ok(r) => Ok(r),
            Err(ConnectorError::Engine(e)) => Err(e),
            Err(ConnectorError::Transport(t)) => return self.transport_outcome(t, sql),
        };
        match result {
            Err(e) => {
                if e.kind == ErrorKind::Fatal {
                    Outcome::Crash(e.message)
                } else if e.kind == ErrorKind::Hang {
                    Outcome::Hang(e.message)
                } else {
                    Outcome::Fail(FailInfo::new(
                        FailKind::UnexpectedError,
                        Some(e.kind),
                        e.message,
                        Vec::new(),
                        Vec::new(),
                        Some(sql),
                    ))
                }
            }
            Ok(result) => {
                // SLT type strings pin the column count.
                if !types.is_empty() && result.columns.len() != types.len() {
                    return Outcome::Fail(FailInfo::new(
                        FailKind::WrongResult,
                        None,
                        format!(
                            "expected {} result columns, got {}",
                            types.len(),
                            result.columns.len()
                        ),
                        vec![types.to_string()],
                        vec!["?".repeat(result.columns.len())],
                        Some(sql),
                    ));
                }
                let rendered: Vec<Vec<String>> = result
                    .rows
                    .iter()
                    .map(|row| row.iter().map(|v| self.conn.render(v)).collect())
                    .collect();
                match validate_query(&rendered, expected, sort, self.numeric) {
                    Verdict::Match => Outcome::Pass,
                    Verdict::Mismatch { expected, actual, detail } => Outcome::Fail(FailInfo::new(
                        FailKind::WrongResult,
                        None,
                        detail,
                        expected,
                        actual,
                        Some(sql),
                    )),
                }
            }
        }
    }

    fn run_control(&mut self, line: usize, cmd: &ControlCommand) {
        let outcome = match cmd {
            ControlCommand::Halt => {
                self.stopped = Some("halt".into());
                Outcome::Pass
            }
            ControlCommand::HashThreshold(_) => Outcome::Pass,
            ControlCommand::Require(ext) => {
                if self.conn.has_extension(ext) {
                    Outcome::Pass
                } else {
                    // DuckDB semantics: the rest of the file is skipped
                    // (paper: 26.2% of DuckDB cases pre-filtered this way).
                    self.stopped = Some(format!("require {ext}: extension not loaded").into());
                    Outcome::Skipped(format!("extension {ext} not loaded").into())
                }
            }
            ControlCommand::SetVar { name, value } => {
                self.vars.insert(name.clone(), value.clone());
                Outcome::Pass
            }
            ControlCommand::Loop { var, start, end, body } => {
                self.record(line, None, Outcome::Pass, 0);
                for i in *start..*end {
                    self.vars.insert(var.clone(), i.to_string());
                    self.run_records(body);
                    if self.stopped.is_some() {
                        break;
                    }
                }
                self.vars.remove(var);
                return;
            }
            ControlCommand::Foreach { var, values, body } => {
                self.record(line, None, Outcome::Pass, 0);
                for v in values {
                    self.vars.insert(var.clone(), v.clone());
                    self.run_records(body);
                    if self.stopped.is_some() {
                        break;
                    }
                }
                self.vars.remove(var);
                return;
            }
            ControlCommand::Mode(m) => {
                if m == "skip" {
                    self.mode_skip = true;
                }
                Outcome::Pass
            }
            ControlCommand::Restart => {
                self.conn.reset();
                Outcome::Pass
            }
            ControlCommand::Sleep(_) | ControlCommand::Echo(_) => Outcome::Pass,
            ControlCommand::Load(path) => Outcome::Skipped(
                format!("load {path}: external data loading is environment-dependent").into(),
            ),
            ControlCommand::Connection(c) => Outcome::Skipped(
                format!(
                    "connection {c}: multi-connection execution not supported by the unified runner"
                )
                .into(),
            ),
            ControlCommand::Include(p) => {
                Outcome::Skipped(format!("source {p}: includes are not resolved").into())
            }
            ControlCommand::CliCommand(c) => Outcome::Skipped(
                format!("{c}: psql meta-commands are processed by the client, not the runner")
                    .into(),
            ),
            ControlCommand::ShellExec(c) => {
                Outcome::Skipped(format!("exec {c}: shell execution is never performed").into())
            }
            ControlCommand::Unknown(u) => {
                Outcome::Skipped(format!("unsupported runner command: {u}").into())
            }
        };
        self.record(line, None, outcome, 0);
    }

    /// Variable substitution followed by optional dialect translation —
    /// the text a record actually executes (and what its result records).
    fn prepare_sql(&self, sql: &str) -> String {
        let sql = self.substitute(sql);
        match self.translation {
            TranslationMode::Verbatim => sql,
            TranslationMode::Translated { from, to } => {
                self.tcache.translate_sql(&sql, from, to, self.tstats).unwrap_or(sql)
            }
        }
    }

    /// Substitute `${var}` and `$var` occurrences.
    fn substitute(&self, sql: &str) -> String {
        let mut out = sql.to_string();
        for (k, v) in &self.vars {
            out = out.replace(&format!("${{{k}}}"), v);
            out = out.replace(&format!("${k}"), v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::EngineConnector;
    use squality_engine::{ClientKind, EngineDialect};
    use squality_formats::{parse_slt, SltFlavor};

    fn run(dialect: EngineDialect, slt: &str) -> FileResult {
        let file = parse_slt("test", slt, SltFlavor::Classic);
        let mut conn = EngineConnector::new(dialect, ClientKind::Connector);
        Runner::default().run_file(&mut conn, &file)
    }

    fn run_duckdb_flavor(dialect: EngineDialect, slt: &str) -> FileResult {
        let file = parse_slt("test", slt, SltFlavor::Duckdb);
        let mut conn = EngineConnector::new(dialect, ClientKind::Cli);
        Runner::default().run_file(&mut conn, &file)
    }

    const LISTING1: &str = "\
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

    #[test]
    fn paper_listing1_passes_on_all_engines() {
        for d in EngineDialect::ALL {
            let r = run(d, LISTING1);
            assert_eq!(r.passed(), 3, "{d}: {:?}", r.results);
        }
    }

    #[test]
    fn conditions_route_by_engine() {
        let slt = "\
onlyif mysql
query I nosort
SELECT ALL 62 DIV ( + - 2 )
----
-31

skipif mysql
query I nosort
SELECT ALL 62 / ( + - 2 )
----
-31
";
        // MySQL runs record 1 (DIV) and skips record 2.
        let r = run(EngineDialect::Mysql, slt);
        assert!(r.results[0].outcome.is_pass());
        assert!(r.results[1].outcome.is_skip());
        // SQLite skips record 1 and passes record 2 (integer division).
        let r = run(EngineDialect::Sqlite, slt);
        assert!(r.results[0].outcome.is_skip());
        assert!(r.results[1].outcome.is_pass());
        // DuckDB skips record 1, and record 2 FAILS: decimal division
        // returns -31.0 — the paper's 104K-case semantic divergence.
        let r = run(EngineDialect::Duckdb, slt);
        assert!(r.results[0].outcome.is_skip());
        let Outcome::Fail(info) = &r.results[1].outcome else {
            panic!("{:?}", r.results[1].outcome)
        };
        assert_eq!(info.kind, FailKind::WrongResult);
        assert_eq!(info.actual, vec!["-31.0"]);
    }

    #[test]
    fn statement_error_expectation() {
        let slt = "\
statement error
SELECT * FROM missing_table

statement ok
SELECT 1
";
        let r = run(EngineDialect::Sqlite, slt);
        assert_eq!(r.passed(), 2);
    }

    #[test]
    fn expected_error_but_ok_fails() {
        let slt = "statement error\nSELECT 1\n";
        let r = run(EngineDialect::Sqlite, slt);
        let Outcome::Fail(info) = &r.results[0].outcome else { panic!() };
        assert_eq!(info.kind, FailKind::ExpectedErrorButOk);
    }

    #[test]
    fn halt_skips_remaining() {
        let slt = "statement ok\nSELECT 1\n\nhalt\n\nstatement ok\nSELECT 2\n";
        let r = run(EngineDialect::Sqlite, slt);
        assert_eq!(r.passed(), 2); // SELECT 1 + halt itself
        assert_eq!(r.skipped(), 1);
    }

    #[test]
    fn require_missing_extension_skips_rest() {
        let slt = "\
require sqlsmith

statement ok
SELECT 1
";
        let r = run_duckdb_flavor(EngineDialect::Duckdb, slt);
        assert_eq!(r.passed(), 0);
        assert_eq!(r.skipped(), 2);
    }

    #[test]
    fn loops_expand_with_variables() {
        let slt = "\
statement ok
CREATE TABLE t(a INTEGER)

loop i 0 4

statement ok
INSERT INTO t VALUES (${i})

endloop

query I nosort
SELECT count(*) FROM t
----
4
";
        let r = run_duckdb_flavor(EngineDialect::Duckdb, slt);
        assert_eq!(r.failed(), 0, "{:?}", r.results);
        // 1 create + 1 loop marker + 4 inserts + 1 query = 7 records.
        assert_eq!(r.total(), 7);
    }

    #[test]
    fn crash_stops_file() {
        let slt = "\
statement ok
ALTER SCHEMA a RENAME TO b

statement ok
SELECT 1
";
        let r = run_duckdb_flavor(EngineDialect::Duckdb, slt);
        assert!(r.crashed);
        assert_eq!(r.crashes(), 1);
        assert!(r.results[1].outcome.is_skip());
    }

    #[test]
    fn hang_detected() {
        let slt = "\
query I nosort
SELECT count(*) FROM generate_series(9223372036854775807,9223372036854775807)
----
1
";
        let r = run(EngineDialect::Sqlite, slt);
        assert!(r.hung);
        assert_eq!(r.hangs(), 1);
    }

    #[test]
    fn column_count_checked_against_types() {
        let slt = "\
query III nosort
SELECT 1, 2
----
1
2
";
        let r = run(EngineDialect::Sqlite, slt);
        let Outcome::Fail(info) = &r.results[0].outcome else { panic!() };
        assert_eq!(info.kind, FailKind::WrongResult);
        assert!(info.detail.contains("columns"));
    }

    #[test]
    fn cli_commands_are_skipped_not_failed() {
        use squality_formats::parse_pg_sql_only;
        let file = parse_pg_sql_only("t.sql", "\\d t1\nSELECT 1;");
        let mut conn = EngineConnector::new(EngineDialect::Postgres, ClientKind::Connector);
        let r = Runner::default().run_file(&mut conn, &file);
        assert!(r.results[0].outcome.is_skip());
    }

    #[test]
    fn tolerant_mode_accepts_close_floats() {
        let slt = "\
query R nosort
SELECT 4999.5
----
4999
";
        let file = parse_slt("t", slt, SltFlavor::Classic);
        let mut conn = EngineConnector::new(EngineDialect::Duckdb, ClientKind::Cli);
        let exact = Runner::default().run_file(&mut conn, &file);
        assert_eq!(exact.failed(), 1);
        let tolerant = Runner::new(RunnerOptions {
            numeric: NumericMode::Tolerant(0.01),
            fresh_database: true,
            translation: TranslationMode::Verbatim,
        })
        .run_file(&mut conn, &file);
        assert_eq!(tolerant.failed(), 0);
    }

    #[test]
    fn translated_mode_fixes_cross_dialect_syntax() {
        use squality_sqltext::TextDialect;
        // PostgreSQL-style `::` casts are syntax errors on SQLite verbatim;
        // translation rewrites them to CAST(...) and the file passes.
        let slt = "\
statement ok
CREATE TABLE t(a INTEGER)

statement ok
INSERT INTO t VALUES (1::integer)

query I nosort
SELECT count(*) FROM t
----
1
";
        let file = parse_slt("t", slt, SltFlavor::Classic);
        let mut conn = EngineConnector::new(EngineDialect::Sqlite, ClientKind::Connector);
        let verbatim = Runner::default().run_file(&mut conn, &file);
        assert_eq!(verbatim.failed(), 2, "{:?}", verbatim.results);

        let translated = Runner::new(RunnerOptions {
            translation: TranslationMode::Translated {
                from: TextDialect::Postgres,
                to: TextDialect::Sqlite,
            },
            ..RunnerOptions::default()
        });
        let r = translated.run_file(&mut conn, &file);
        assert_eq!(r.failed(), 0, "{:?}", r.results);
        assert_eq!(r.passed(), 3);
        // The executed SQL recorded for the insert is the translated text.
        assert!(r.results[1].sql.as_deref().unwrap().contains("CAST(1 AS INTEGER)"));
        let counts = translated.translation_stats.counts();
        assert_eq!(counts.translated, 3);
        // Translation is memoised per unique text, but counters stay
        // per-execution: replaying the file doubles them exactly (hits
        // replay the stored delta).
        let again = translated.run_file(&mut conn, &file);
        assert_eq!(again.failed(), 0);
        let replayed = translated.translation_stats.counts();
        assert_eq!(replayed.translated, 2 * counts.translated);
        assert_eq!(replayed.applied_total(), 2 * counts.applied_total());
    }

    /// A connector that injects transport faults on marker statements.
    struct FaultyConn {
        inner: EngineConnector,
    }

    impl Connector for FaultyConn {
        fn engine_name(&self) -> &'static str {
            self.inner.engine_name()
        }
        fn execute(&mut self, sql: &str) -> Result<squality_engine::QueryResult, ConnectorError> {
            if let Some(rest) = sql.strip_prefix("FAULT ") {
                let (kind, recovered) = match rest {
                    "crash" => (TransportErrorKind::Crash, true),
                    "timeout" => (TransportErrorKind::Timeout, true),
                    "protocol" => (TransportErrorKind::Protocol, true),
                    "crash-unrecovered" => (TransportErrorKind::Crash, false),
                    "timeout-unrecovered" => (TransportErrorKind::Timeout, false),
                    other => panic!("unknown fault {other}"),
                };
                let mut t = TransportError::new(kind, format!("injected {rest}"));
                t.recovered = recovered;
                return Err(t.into());
            }
            self.inner.execute(sql)
        }
        fn render(&self, v: &squality_engine::Value) -> String {
            self.inner.render(v)
        }
        fn reset(&mut self) {
            self.inner.reset()
        }
        fn has_extension(&self, name: &str) -> bool {
            self.inner.has_extension(name)
        }
    }

    fn run_faulty(slt: &str) -> FileResult {
        let file = parse_slt("faulty", slt, SltFlavor::Classic);
        let mut conn =
            FaultyConn { inner: EngineConnector::new(EngineDialect::Sqlite, ClientKind::Cli) };
        Runner::default().run_file(&mut conn, &file)
    }

    #[test]
    fn recovered_transport_fault_is_classified_and_file_continues() {
        let slt = "\
statement ok
FAULT crash

statement ok
SELECT 1
";
        let r = run_faulty(slt);
        assert!(!r.crashed, "{:?}", r.results);
        let Outcome::Fail(info) = &r.results[0].outcome else { panic!("{:?}", r.results) };
        assert_eq!(info.kind, FailKind::BackendCrash);
        assert!(info.detail.contains("backend crash"), "{}", info.detail);
        // The file continued on the restarted backend.
        assert!(r.results[1].outcome.is_pass());
    }

    #[test]
    fn transport_fault_trumps_error_expectation() {
        // A `statement error` record must NOT pass on a dead backend: the
        // statement has no verdict at all.
        let slt = "statement error\nFAULT timeout\n";
        let r = run_faulty(slt);
        let Outcome::Fail(info) = &r.results[0].outcome else { panic!("{:?}", r.results) };
        assert_eq!(info.kind, FailKind::BackendTimeout);
    }

    #[test]
    fn unrecovered_transport_faults_stop_the_file() {
        let slt = "\
statement ok
FAULT crash-unrecovered

statement ok
SELECT 1
";
        let r = run_faulty(slt);
        assert!(r.crashed);
        assert!(matches!(r.results[0].outcome, Outcome::Crash(_)), "{:?}", r.results);
        assert!(r.results[1].outcome.is_skip());
        // An unrecovered timeout reads as a hang.
        let r = run_faulty("statement ok\nFAULT timeout-unrecovered\n");
        assert!(r.hung);
        assert!(matches!(r.results[0].outcome, Outcome::Hang(_)), "{:?}", r.results);
    }

    #[test]
    fn protocol_fault_signature_is_stable() {
        let a = run_faulty("query I nosort\nFAULT protocol\n----\n1\n");
        let b = run_faulty("query I nosort\nFAULT protocol\n----\n1\n");
        let (Outcome::Fail(fa), Outcome::Fail(fb)) = (&a.results[0].outcome, &b.results[0].outcome)
        else {
            panic!("{:?} {:?}", a.results, b.results)
        };
        assert_eq!(fa.kind, FailKind::BackendProtocol);
        assert_eq!(fa.signature, fb.signature);
    }

    #[test]
    fn fresh_database_per_file() {
        let slt_a = "statement ok\nCREATE TABLE t(a INTEGER)\n";
        let slt_b = "statement error\nSELECT * FROM t\n";
        let file_a = parse_slt("a", slt_a, SltFlavor::Classic);
        let file_b = parse_slt("b", slt_b, SltFlavor::Classic);
        let mut conn = EngineConnector::new(EngineDialect::Sqlite, ClientKind::Cli);
        let runner = Runner::default();
        assert_eq!(runner.run_file(&mut conn, &file_a).passed(), 1);
        // t must be gone in the next file.
        assert_eq!(runner.run_file(&mut conn, &file_b).passed(), 1);
    }
}
