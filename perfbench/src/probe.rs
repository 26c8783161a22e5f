//! Probes the traced run attaches from outside the crates: a timing
//! [`Connector`] wrapper, a [`RunObserver`] that turns suite and file
//! boundaries into spans, and the single-threaded replica of the study's
//! verbatim matrix arm that drives [`Runner::run_file`] through the wrapper.

use crate::trace::{SpanId, Tracer};
use squality_backend::SubprocessConnector;
use squality_core::{MatrixCell, Provision, Study, EXECUTED_SUITES};
use squality_corpus::{donor_dialect, DonorEnvironment};
use squality_engine::{ClientKind, EngineDialect, QueryResult, Value};
use squality_runner::{
    Connector, ConnectorError, EngineConnector, FileResult, NumericMode, RunEvent, RunObserver,
    Runner, RunnerOptions, TranslationMode,
};
use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;
use std::time::Instant;

/// Counters and timings one [`TimedConnector`] accumulates.
#[derive(Debug, Default)]
pub struct ConnStats {
    pub execute_ns: u64,
    pub stmts: u64,
    pub errors: u64,
    pub transport_faults: u64,
    pub reset_ns: u64,
    pub render_ns: u64,
    /// Per-statement execute latency, for percentiles.
    pub stmt_ns: Vec<u64>,
}

impl ConnStats {
    pub fn merge(&mut self, other: ConnStats) {
        self.execute_ns += other.execute_ns;
        self.stmts += other.stmts;
        self.errors += other.errors;
        self.transport_faults += other.transport_faults;
        self.reset_ns += other.reset_ns;
        self.render_ns += other.render_ns;
        self.stmt_ns.extend(other.stmt_ns);
    }
}

/// The environment hooks both connector kinds offer besides the
/// [`Connector`] trait, so the replica provisions either the way
/// `Harness::provision_conn` does.
pub trait Provisionable: Connector {
    fn provide_file(&mut self, path: &str, lines: Vec<String>);
    fn provide_extension(&mut self, name: &str);
}

impl Provisionable for EngineConnector {
    fn provide_file(&mut self, path: &str, lines: Vec<String>) {
        EngineConnector::provide_file(self, path, lines);
    }
    fn provide_extension(&mut self, name: &str) {
        EngineConnector::provide_extension(self, name);
    }
}

impl Provisionable for SubprocessConnector {
    fn provide_file(&mut self, path: &str, lines: Vec<String>) {
        SubprocessConnector::provide_file(self, path, lines);
    }
    fn provide_extension(&mut self, name: &str) {
        SubprocessConnector::provide_extension(self, name);
    }
}

/// A connector wrapper that times `execute`, `render` and `reset`. Each
/// execute is a span under the current file span, sharing the file's key;
/// renders run per value and are too short to span, so they are summed.
pub struct TimedConnector<'t, C> {
    inner: C,
    tracer: &'t Tracer,
    file_span: Option<SpanId>,
    key: u64,
    render_ns: std::cell::Cell<u64>,
    stats: ConnStats,
}

impl<'t, C: Provisionable> TimedConnector<'t, C> {
    pub fn new(inner: C, tracer: &'t Tracer) -> Self {
        TimedConnector {
            inner,
            tracer,
            file_span: None,
            key: 0,
            render_ns: Default::default(),
            stats: ConnStats::default(),
        }
    }

    pub fn begin_file(&mut self, span: SpanId, key: u64) {
        self.file_span = Some(span);
        self.key = key;
    }

    pub fn into_stats(mut self) -> ConnStats {
        self.stats.render_ns = self.render_ns.get();
        self.stats
    }

    /// Reset, then provision like `Harness::provision_conn` (and its
    /// subprocess twin) from the environment's public fields. Provisioning
    /// statements go through [`Connector::execute`] and count as
    /// statements; the rest counts as reset time.
    pub fn reset_and_provision(&mut self, env: &DonorEnvironment, provision: Provision) {
        let span = self.tracer.open("reset", self.file_span, self.key);
        let started = Instant::now();
        self.inner.reset();
        if provision != Provision::Bare {
            for (path, lines) in &env.data_files {
                self.inner.provide_file(path, lines.clone());
            }
        }
        if provision == Provision::Full {
            for ext in &env.extensions {
                self.inner.provide_extension(ext);
            }
        }
        self.stats.reset_ns += started.elapsed().as_nanos() as u64;
        self.tracer.close(span);
        if provision != Provision::Bare {
            for sql in &env.setup_sql {
                let _ = self.execute(sql);
            }
        }
    }
}

impl<C: Provisionable> Connector for TimedConnector<'_, C> {
    fn engine_name(&self) -> &'static str {
        self.inner.engine_name()
    }

    fn execute(&mut self, sql: &str) -> Result<QueryResult, ConnectorError> {
        let span = self.tracer.open("execute", self.file_span, self.key);
        let started = Instant::now();
        let result = self.inner.execute(sql);
        let ns = started.elapsed().as_nanos() as u64;
        self.tracer.close(span);
        self.stats.execute_ns += ns;
        self.stats.stmts += 1;
        self.stats.stmt_ns.push(ns);
        match &result {
            Err(ConnectorError::Engine(_)) => self.stats.errors += 1,
            Err(ConnectorError::Transport(_)) => {
                self.stats.errors += 1;
                self.stats.transport_faults += 1;
            }
            Ok(_) => {}
        }
        result
    }

    fn render(&self, v: &Value) -> String {
        let started = Instant::now();
        let out = self.inner.render(v);
        self.render_ns.set(self.render_ns.get() + started.elapsed().as_nanos() as u64);
        out
    }

    fn reset(&mut self) {
        let started = Instant::now();
        self.inner.reset();
        self.stats.reset_ns += started.elapsed().as_nanos() as u64;
    }

    fn has_extension(&self, name: &str) -> bool {
        self.inner.has_extension(name)
    }
}

/// Suite and file boundaries of a study, as spans: one span per suite
/// (cell) under `parent`, one per file under its suite. Files of one cell
/// run on parallel workers, so their spans may overlap.
pub struct PhaseObserver<'t> {
    tracer: &'t Tracer,
    parent: SpanId,
    state: Mutex<PhaseState>,
}

#[derive(Default)]
struct PhaseState {
    suite: Option<SpanId>,
    suites: u64,
    files: HashMap<usize, SpanId>,
}

impl<'t> PhaseObserver<'t> {
    pub fn new(tracer: &'t Tracer, parent: SpanId) -> Self {
        PhaseObserver { tracer, parent, state: Mutex::new(PhaseState::default()) }
    }
}

impl RunObserver for PhaseObserver<'_> {
    fn on_event(&self, event: &RunEvent<'_>) {
        let mut st = self.state.lock().expect("phase observer poisoned");
        match event {
            RunEvent::SuiteStarted { label, .. } => {
                st.suites += 1;
                let span = self.tracer.open(format!("suite:{label}"), Some(self.parent), 0);
                st.suite = Some(span);
            }
            RunEvent::FileStarted { index, .. } => {
                let key = st.suites << 32 | *index as u64;
                let span = self.tracer.open("file", st.suite, key);
                st.files.insert(*index, span);
            }
            RunEvent::FileFinished { index, .. } => {
                if let Some(span) = st.files.remove(index) {
                    self.tracer.close(span);
                }
            }
            RunEvent::SuiteFinished { .. } => {
                if let Some(span) = st.suite.take() {
                    self.tracer.close(span);
                }
            }
            RunEvent::RecordFinished { .. } => {}
        }
    }
}

/// Which phase of the study a suite label belongs to.
pub fn phase_of(label: &str) -> &'static str {
    if label.starts_with("donor ") {
        "donor"
    } else if label.starts_with("coverage ") {
        "coverage"
    } else if label.ends_with(" (translated)") {
        "translated"
    } else {
        "verbatim"
    }
}

/// What the replica of the verbatim arm measured.
#[derive(Debug, Default)]
pub struct Replica {
    pub conn: ConnStats,
    /// Summed `Runner::run_file` wall-clock (the records loop).
    pub loop_ns: u64,
    /// Summed file wall-clock including reset and provisioning.
    pub file_ns: u64,
    pub records: u64,
    pub passed: u64,
    pub failed: u64,
    pub skipped: u64,
    /// Cells whose pass/fail/skip counts differ from the study's.
    pub mismatched_cells: u64,
    pub cells: u64,
    /// Distinct statement texts executed, keyed by the host's index in
    /// [`EngineDialect::ALL`].
    pub texts: BTreeSet<(usize, String)>,
}

/// Re-run the study's verbatim matrix arm cell by cell on one connection
/// per cell, single-threaded, through [`TimedConnector`]. `connect` mints
/// the connection for a host and client. Each cell's pass/fail/skip counts
/// are checked against the study's [`MatrixCell`] summaries.
pub fn replicate_verbatim<C: Provisionable>(
    study: &Study,
    tracer: &Tracer,
    parent: SpanId,
    mut connect: impl FnMut(EngineDialect, ClientKind) -> C,
) -> Replica {
    let runner = Runner::new(RunnerOptions {
        numeric: NumericMode::Exact,
        fresh_database: false,
        translation: TranslationMode::Verbatim,
    });
    let mut out = Replica::default();
    for (cell_no, suite) in EXECUTED_SUITES.iter().enumerate() {
        let gs = study.suite(*suite);
        for (host_no, host) in EngineDialect::ALL.iter().enumerate() {
            let is_donor = *host == donor_dialect(*suite);
            let (client, provision) = if is_donor {
                (ClientKind::Cli, Provision::Full)
            } else {
                (ClientKind::Connector, Provision::CrossHost)
            };
            let label = format!("replica:{}→{}", suite.donor_name(), host.name());
            let cell_span = tracer.open(label, Some(parent), 0);
            let mut conn = TimedConnector::new(connect(*host, client), tracer);
            let mut results: Vec<FileResult> = Vec::with_capacity(gs.files.len());
            for (i, file) in gs.files.iter().enumerate() {
                let key = ((cell_no * 4 + host_no + 1) as u64) << 32 | i as u64;
                let file_span = tracer.open("file", Some(cell_span), key);
                let file_started = Instant::now();
                conn.begin_file(file_span, key);
                conn.reset_and_provision(&gs.environment, provision);
                let loop_started = Instant::now();
                let result = runner.run_file(&mut conn, file);
                out.loop_ns += loop_started.elapsed().as_nanos() as u64;
                out.file_ns += file_started.elapsed().as_nanos() as u64;
                tracer.close(file_span);
                for r in &result.results {
                    if let Some(sql) = &r.sql {
                        out.texts.insert((host_no, sql.clone()));
                    }
                }
                results.push(result);
            }
            tracer.close(cell_span);
            out.conn.merge(conn.into_stats());
            let sum = |f: fn(&FileResult) -> usize| results.iter().map(f).sum::<usize>();
            let (passed, failed, skipped) =
                (sum(FileResult::passed), sum(FileResult::failed), sum(FileResult::skipped));
            out.records += sum(FileResult::total) as u64;
            out.passed += passed as u64;
            out.failed += failed as u64;
            out.skipped += skipped as u64;
            out.cells += 1;
            let MatrixCell { summary, .. } = study.cell(*suite, *host);
            if (summary.passed, summary.failed, summary.skipped) != (passed, failed, skipped) {
                eprintln!(
                    "replica {}→{}: {passed}/{failed}/{skipped} vs study {}/{}/{}",
                    suite.donor_name(),
                    host.name(),
                    summary.passed,
                    summary.failed,
                    summary.skipped
                );
                out.mismatched_cells += 1;
            }
        }
    }
    out
}
