//! The connector abstraction between the unified runner and a DBMS.
//!
//! The paper's SQuaLity talks to real DBMSs through Python connectors; here
//! a [`Connector`] wraps an engine simulator plus a client render layer.
//! Supporting a new DBMS means implementing this trait — the paper reports
//! ~33 LOC per DBMS for the same interface (§9 "Supporting a new DBMS");
//! [`EngineConnector`]'s trait impl is about that size.
//!
//! For parallel suite execution a caller hands the scheduler a
//! [`ConnectorFactory`] instead of a single `&mut dyn Connector`: every
//! worker thread mints its own connection, the way one process-per-worker
//! harnesses open one DBMS connection per worker.

use crate::events::ConnectorInfo;
use squality_engine::{
    ClientKind, Engine, EngineDialect, EngineError, ExecStrategy, FaultProfile, PlanCache,
    QueryResult, Value,
};
use std::sync::Arc;

/// What kind of transport fault an out-of-process backend suffered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportErrorKind {
    /// The backend process died (exit, signal, closed pipe).
    Crash,
    /// A statement exceeded its per-statement deadline.
    Timeout,
    /// The backend broke the wire protocol (malformed frame).
    Protocol,
    /// A fresh backend connection could not be established.
    Connect,
}

impl TransportErrorKind {
    /// Short lowercase label ("crash", "timeout", "protocol", "connect").
    pub fn label(self) -> &'static str {
        match self {
            TransportErrorKind::Crash => "crash",
            TransportErrorKind::Timeout => "timeout",
            TransportErrorKind::Protocol => "protocol",
            TransportErrorKind::Connect => "connect",
        }
    }
}

/// A fault in the transport between the harness and a backend — the
/// backend process crashed, hung past its deadline, or spoke garbage —
/// as opposed to the engine *rejecting a statement*, which is the normal
/// [`EngineError`] path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportError {
    pub kind: TransportErrorKind,
    /// Human-readable fault description (exit status, deadline, ...).
    pub message: String,
    /// Whether the connection recovered: the backend was restarted within
    /// its restart budget and can execute the *next* statement. A
    /// recovered fault becomes a classified failure; an unrecovered one
    /// stops the file like an engine crash.
    pub recovered: bool,
}

impl TransportError {
    pub fn new(kind: TransportErrorKind, message: impl Into<String>) -> TransportError {
        TransportError { kind, message: message.into(), recovered: false }
    }

    /// Mark the fault as recovered (the backend restarted).
    pub fn recovered(mut self) -> TransportError {
        self.recovered = true;
        self
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "backend {}: {}", self.kind.label(), self.message)
    }
}

impl std::error::Error for TransportError {}

/// Why a connector call failed: the engine refused the statement (the
/// semantically meaningful error every expectation check consumes), or
/// the transport to the backend faulted (only possible for
/// out-of-process backends; in-process connectors never produce it).
#[derive(Debug, Clone, PartialEq)]
pub enum ConnectorError {
    /// The engine executed the statement and reported an error.
    Engine(EngineError),
    /// The transport faulted before a verdict existed.
    Transport(TransportError),
}

impl From<EngineError> for ConnectorError {
    fn from(e: EngineError) -> ConnectorError {
        ConnectorError::Engine(e)
    }
}

impl From<TransportError> for ConnectorError {
    fn from(e: TransportError) -> ConnectorError {
        ConnectorError::Transport(e)
    }
}

impl std::fmt::Display for ConnectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectorError::Engine(e) => write!(f, "{}", e.message),
            ConnectorError::Transport(t) => write!(f, "{t}"),
        }
    }
}

impl std::error::Error for ConnectorError {}

/// A connection to a DBMS under test.
pub trait Connector {
    /// Lowercase engine name as used in skipif/onlyif conditions
    /// ("sqlite", "postgresql", "duckdb", "mysql").
    fn engine_name(&self) -> &'static str;

    /// Metadata describing this connection, reported in
    /// [`RunEvent::SuiteStarted`](crate::RunEvent::SuiteStarted) events.
    /// The default is the engine name alone; implementations that know
    /// their client or server version should say so.
    fn info(&self) -> ConnectorInfo {
        ConnectorInfo::named(self.engine_name())
    }

    /// Execute one SQL statement. An [`ConnectorError::Engine`] error is
    /// the engine's verdict on the statement (checked against the
    /// record's expectation); an [`ConnectorError::Transport`] error
    /// means the backend itself faulted before a verdict existed.
    fn execute(&mut self, sql: &str) -> Result<QueryResult, ConnectorError>;

    /// Render a result value the way this connection's client prints it.
    fn render(&self, v: &Value) -> String;

    /// Drop all state and start a fresh database (between test files).
    fn reset(&mut self);

    /// Is an extension available (DuckDB `require`)?
    fn has_extension(&self, name: &str) -> bool;
}

/// Mints fresh connections for scheduler workers.
///
/// Implementations must be cheap to call and produce connections that
/// behave identically — the scheduler's determinism guarantee (identical
/// results at any worker count) holds exactly when every connection starts
/// from the same state.
pub trait ConnectorFactory: Sync {
    /// The connection type produced.
    type Conn: Connector + Send;

    /// Open a fresh connection. Fails with
    /// [`ConnectorError::Transport`] (kind
    /// [`TransportErrorKind::Connect`]) when the backend cannot be
    /// reached — in-process factories never fail.
    fn connect(&self) -> Result<Self::Conn, ConnectorError>;

    /// Metadata of the connections this factory mints, reported in
    /// `SuiteStarted` events. The default mints (and drops) a probe
    /// connection; factories that know their metadata statically should
    /// override to skip that cost (mandatory for factories whose connect
    /// can fail, so metadata stays available when the backend is down).
    fn info(&self) -> ConnectorInfo {
        match self.connect() {
            Ok(conn) => conn.info(),
            Err(_) => ConnectorInfo::named("unavailable"),
        }
    }
}

/// Factory for [`EngineConnector`]s: captures dialect, client, faults,
/// execution strategy, and an optional shared plan cache. Connections come
/// out unprovisioned; a harness provisions each one per file.
#[derive(Debug, Clone)]
pub struct EngineConnectorFactory {
    dialect: EngineDialect,
    client: ClientKind,
    faults: FaultProfile,
    plan_cache: Option<Arc<PlanCache>>,
    exec_strategy: ExecStrategy,
}

impl EngineConnectorFactory {
    /// Factory with the paper-version fault profile.
    pub fn new(dialect: EngineDialect, client: ClientKind) -> EngineConnectorFactory {
        Self::with_faults(dialect, client, FaultProfile::default())
    }

    /// Factory with an explicit fault profile.
    pub fn with_faults(
        dialect: EngineDialect,
        client: ClientKind,
        faults: FaultProfile,
    ) -> EngineConnectorFactory {
        EngineConnectorFactory {
            dialect,
            client,
            faults,
            plan_cache: None,
            exec_strategy: ExecStrategy::default(),
        }
    }

    /// Share a statement-plan cache across every minted connection.
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// Every minted connection executes with this strategy (the stability
    /// arm's naive-vs-hash perturbation axis).
    pub fn exec_strategy(mut self, strategy: ExecStrategy) -> Self {
        self.exec_strategy = strategy;
        self
    }
}

/// The data files and extensions a connection carries across resets, each
/// held once: provisioning a path or name again replaces its entry, so a
/// long-lived connection provisioned before every file stays as cheap to
/// reset as a fresh one.
#[derive(Debug, Clone, Default)]
pub struct Provisioned {
    files: Vec<(String, Vec<String>)>,
    extensions: Vec<String>,
}

impl Provisioned {
    /// Hold `lines` as the content of `path`.
    pub fn file(&mut self, path: &str, lines: Vec<String>) {
        match self.files.iter_mut().find(|(p, _)| p == path) {
            Some((_, held)) => *held = lines,
            None => self.files.push((path.to_string(), lines)),
        }
    }

    /// Hold the extension `name`.
    pub fn extension(&mut self, name: &str) {
        if !self.extensions.iter().any(|e| e == name) {
            self.extensions.push(name.to_string());
        }
    }

    /// Every held file as `(path, lines)`, in first-provisioned order.
    pub fn files(&self) -> impl Iterator<Item = (&str, &[String])> {
        self.files.iter().map(|(path, lines)| (path.as_str(), lines.as_slice()))
    }

    /// Every held extension name, in first-provisioned order.
    pub fn extensions(&self) -> impl Iterator<Item = &str> {
        self.extensions.iter().map(String::as_str)
    }
}

/// A connection that also takes a donor environment's data files and
/// extensions, so one provisioning routine serves the in-process
/// [`EngineConnector`] and the subprocess backend's connector alike.
pub trait Provisionable: Connector {
    /// Register a data file visible to COPY, surviving resets.
    fn provide_file(&mut self, path: &str, lines: Vec<String>);
    /// Register an available extension, surviving resets.
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

/// The lowercase engine name a dialect goes by in skipif/onlyif
/// conditions — the single source for both condition matching
/// ([`Connector::engine_name`]) and event metadata. Shared with the
/// out-of-process backend layer, whose connectors must report the same
/// names for the same dialects.
pub fn engine_token(dialect: EngineDialect) -> &'static str {
    match dialect {
        EngineDialect::Sqlite => "sqlite",
        EngineDialect::Postgres => "postgresql",
        EngineDialect::Duckdb => "duckdb",
        EngineDialect::Mysql => "mysql",
    }
}

/// Connection metadata for a dialect × client pair — shared by the
/// connector and its factory (and the out-of-process backend layer) so
/// all report identical `SuiteStarted` metadata.
pub fn engine_info(dialect: EngineDialect, client: ClientKind) -> ConnectorInfo {
    // The simulated versions are the ones the paper studied.
    let version = match dialect {
        EngineDialect::Sqlite => "3.39.0 (simulated)",
        EngineDialect::Postgres => "15.2 (simulated)",
        EngineDialect::Duckdb => "0.7.0 (simulated)",
        EngineDialect::Mysql => "8.0.32 (simulated)",
    };
    let client = match client {
        ClientKind::Cli => "cli",
        ClientKind::Connector => "connector",
    };
    ConnectorInfo {
        client: Some(client.to_string()),
        version: Some(version.to_string()),
        ..ConnectorInfo::named(engine_token(dialect))
    }
}

impl ConnectorFactory for EngineConnectorFactory {
    type Conn = EngineConnector;

    fn info(&self) -> ConnectorInfo {
        engine_info(self.dialect, self.client)
    }

    fn connect(&self) -> Result<EngineConnector, ConnectorError> {
        let mut conn = EngineConnector::with_faults(self.dialect, self.client, self.faults);
        conn.set_exec_strategy(self.exec_strategy);
        if let Some(cache) = &self.plan_cache {
            conn.set_plan_cache(Arc::clone(cache));
        }
        Ok(conn)
    }
}

/// Adapter: any infallible `Fn() -> C` closure as a factory.
pub struct FnFactory<F>(pub F);

impl<C, F> ConnectorFactory for FnFactory<F>
where
    C: Connector + Send,
    F: Fn() -> C + Sync,
{
    type Conn = C;

    fn connect(&self) -> Result<C, ConnectorError> {
        Ok((self.0)())
    }
}

/// A connector over an in-process engine simulator.
pub struct EngineConnector {
    engine: Engine,
    client: ClientKind,
    faults: FaultProfile,
    /// Environment carried across resets: registered files/extensions.
    provisioned: Provisioned,
    /// Shared parse cache, re-attached to the engine on every reset.
    plan_cache: Option<Arc<PlanCache>>,
    /// Execution strategy, re-applied to the engine on every reset.
    exec_strategy: ExecStrategy,
    /// Coverage accumulated before a capture window opened (see
    /// [`EngineConnector::begin_coverage_capture`]).
    parked_coverage: Option<squality_engine::Coverage>,
}

impl EngineConnector {
    /// Connector with the paper-version fault profile.
    pub fn new(dialect: EngineDialect, client: ClientKind) -> EngineConnector {
        Self::with_faults(dialect, client, FaultProfile::default())
    }

    /// Connector with an explicit fault profile.
    pub fn with_faults(
        dialect: EngineDialect,
        client: ClientKind,
        faults: FaultProfile,
    ) -> EngineConnector {
        EngineConnector {
            engine: Engine::with_faults(dialect, faults),
            client,
            faults,
            provisioned: Provisioned::default(),
            plan_cache: None,
            exec_strategy: ExecStrategy::default(),
            parked_coverage: None,
        }
    }

    /// Switch the execution strategy (kept across resets).
    pub fn set_exec_strategy(&mut self, strategy: ExecStrategy) {
        self.engine.set_exec_strategy(strategy);
        self.exec_strategy = strategy;
    }

    /// The execution strategy connections run with.
    pub fn exec_strategy(&self) -> ExecStrategy {
        self.exec_strategy
    }

    /// Open a coverage capture window: park the coverage accumulated so
    /// far and start recording into the dialect's fresh, unhit universe,
    /// so everything hit until
    /// [`end_coverage_capture`](EngineConnector::end_coverage_capture) is
    /// attributable to the window alone. The study result cache uses this
    /// to record *per-file* coverage deltas alongside results. A window
    /// never sees points that earlier files on this connector
    /// auto-registered, so it is the same whichever files ran before it.
    pub fn begin_coverage_capture(&mut self) {
        let window = Engine::coverage_universe(self.engine.dialect());
        self.parked_coverage = Some(std::mem::replace(self.engine.coverage_mut(), window));
    }

    /// Close the capture window: return the coverage hit inside it
    /// (universe included) and union the parked pre-window hits back, so
    /// the connector's cumulative coverage is identical to a run without
    /// any capture windows.
    pub fn end_coverage_capture(&mut self) -> squality_engine::Coverage {
        let captured = self.engine.coverage().clone();
        if let Some(parked) = self.parked_coverage.take() {
            self.engine.coverage_mut().union_with(&parked);
        }
        captured
    }

    /// Share a statement-plan cache with the wrapped engine (kept across
    /// resets).
    pub fn set_plan_cache(&mut self, cache: Arc<PlanCache>) {
        self.engine.set_plan_cache(Arc::clone(&cache));
        self.plan_cache = Some(cache);
    }

    /// The wrapped engine's dialect.
    pub fn dialect(&self) -> EngineDialect {
        self.engine.dialect()
    }

    /// The client kind used for rendering.
    pub fn client(&self) -> ClientKind {
        self.client
    }

    /// Register a data file visible to COPY, surviving resets (the donor's
    /// environment).
    pub fn provide_file(&mut self, path: &str, lines: Vec<String>) {
        self.engine.register_file(path, lines.clone());
        self.provisioned.file(path, lines);
    }

    /// Register an available extension/shared library, surviving resets.
    pub fn provide_extension(&mut self, name: &str) {
        self.engine.register_extension(name);
        self.provisioned.extension(name);
    }

    /// Immutable access to the engine (coverage readout).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the engine.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }
}

/// Client-level result post-processing, applied to every successful
/// execution regardless of where the engine runs.
///
/// Paper Listing 11: DuckDB's Python connector raised a `Not Implemented
/// Error` materialising UNION/STRUCT values that the CLI printed fine —
/// the RQ3 "client exception" dependency. The simulation lives in the
/// client layer (not the engine), so out-of-process backends must apply
/// it on the harness side of the boundary, exactly like rendering.
pub fn client_result_error(
    client: ClientKind,
    dialect: EngineDialect,
    result: &QueryResult,
) -> Option<EngineError> {
    (client == ClientKind::Connector
        && dialect == EngineDialect::Duckdb
        && result.rows.iter().any(|row| row.iter().any(|v| matches!(v, Value::Struct(_)))))
    .then(|| {
        EngineError::new(
            squality_engine::ErrorKind::NotImplemented,
            "Not Implemented Error: unsupported result type in Python client",
        )
    })
}

impl Connector for EngineConnector {
    fn engine_name(&self) -> &'static str {
        engine_token(self.engine.dialect())
    }

    fn info(&self) -> ConnectorInfo {
        engine_info(self.engine.dialect(), self.client)
    }

    fn execute(&mut self, sql: &str) -> Result<QueryResult, ConnectorError> {
        let result = self.engine.execute(sql)?;
        if let Some(error) = client_result_error(self.client, self.engine.dialect(), &result) {
            return Err(error.into());
        }
        Ok(result)
    }

    fn render(&self, v: &Value) -> String {
        squality_engine::client::render_slt_value(v, self.engine.dialect(), self.client)
    }

    fn reset(&mut self) {
        let dialect = self.engine.dialect();
        // Preserve accumulated coverage across resets: coverage is a
        // per-engine experiment-level measurement (Table 8). It moves into
        // the fresh engine, universe included.
        let coverage = std::mem::take(self.engine.coverage_mut());
        self.engine = Engine::with_coverage(dialect, self.faults, coverage);
        self.engine.set_exec_strategy(self.exec_strategy);
        if let Some(cache) = &self.plan_cache {
            self.engine.set_plan_cache(Arc::clone(cache));
        }
        for (path, lines) in self.provisioned.files() {
            self.engine.register_file(path, lines.to_vec());
        }
        for ext in self.provisioned.extensions() {
            self.engine.register_extension(ext);
        }
    }

    fn has_extension(&self, name: &str) -> bool {
        self.engine.has_extension(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_window_is_independent_of_earlier_statements() {
        // `SELECT -1` hits a point outside the registered universe, which
        // auto-registers it in the connector's recorder. A window opened
        // afterwards must not carry it along.
        let window = |earlier: Option<&str>| {
            let mut conn = EngineConnector::new(EngineDialect::Sqlite, ClientKind::Cli);
            if let Some(sql) = earlier {
                conn.execute(sql).expect("earlier statement");
            }
            conn.begin_coverage_capture();
            conn.execute("SELECT 1").expect("windowed statement");
            conn.end_coverage_capture()
        };
        assert_eq!(window(Some("SELECT -1")), window(None));
    }

    #[test]
    fn engine_names_match_slt_conditions() {
        // skipif/onlyif in SLT use these exact names.
        assert_eq!(
            EngineConnector::new(EngineDialect::Sqlite, ClientKind::Cli).engine_name(),
            "sqlite"
        );
        assert_eq!(
            EngineConnector::new(EngineDialect::Postgres, ClientKind::Cli).engine_name(),
            "postgresql"
        );
        assert_eq!(
            EngineConnector::new(EngineDialect::Mysql, ClientKind::Cli).engine_name(),
            "mysql"
        );
    }

    #[test]
    fn info_reports_engine_client_and_version() {
        let conn = EngineConnector::new(EngineDialect::Duckdb, ClientKind::Connector);
        let info = conn.info();
        assert_eq!(info.engine, "duckdb");
        assert_eq!(info.client.as_deref(), Some("connector"));
        assert!(info.version.as_deref().unwrap_or_default().contains("0.7.0"));
        // The trait-level default carries the engine name only.
        struct Bare;
        impl Connector for Bare {
            fn engine_name(&self) -> &'static str {
                "bare"
            }
            fn execute(&mut self, _sql: &str) -> Result<QueryResult, ConnectorError> {
                unimplemented!()
            }
            fn render(&self, _v: &Value) -> String {
                unimplemented!()
            }
            fn reset(&mut self) {}
            fn has_extension(&self, _name: &str) -> bool {
                false
            }
        }
        let info = Bare.info();
        assert_eq!(info.engine, "bare");
        assert_eq!(info.client, None);
        assert_eq!(info.version, None);
    }

    #[test]
    fn reset_clears_tables_but_keeps_environment() {
        let mut c = EngineConnector::new(EngineDialect::Postgres, ClientKind::Connector);
        c.provide_extension("regresslib");
        c.execute("CREATE TABLE t(a INTEGER)").unwrap();
        c.reset();
        assert!(c.execute("SELECT * FROM t").is_err());
        assert!(c.has_extension("regresslib"));
    }

    #[test]
    fn reset_preserves_coverage() {
        let mut c = EngineConnector::new(EngineDialect::Sqlite, ClientKind::Cli);
        c.execute("SELECT 1").unwrap();
        let (hit_before, _) = c.engine().coverage().line_counts();
        assert!(hit_before > 0);
        c.reset();
        let (hit_after, _) = c.engine().coverage().line_counts();
        assert_eq!(hit_before, hit_after);
    }

    #[test]
    fn repeated_provisioning_keeps_one_entry_per_path() {
        let mut c = EngineConnector::new(EngineDialect::Postgres, ClientKind::Connector);
        for cycle in 0..50 {
            c.reset();
            c.provide_file("/data/a.data", vec![format!("{cycle}")]);
            c.provide_file("/data/b.data", vec!["1".into(), "2".into()]);
            c.provide_extension("regresslib");
        }
        assert_eq!(c.provisioned.files().count(), 2);
        assert_eq!(c.provisioned.extensions().collect::<Vec<_>>(), ["regresslib"]);
        // A reset re-registers the held entries, and COPY reads the latest
        // lines provisioned under a path.
        c.reset();
        c.execute("CREATE TABLE t(a INTEGER)").unwrap();
        c.execute("COPY t FROM '/data/a.data'").unwrap();
        let rows = c.execute("SELECT a FROM t").unwrap().rows;
        assert_eq!(rows, vec![vec![Value::Integer(49)]]);
        assert!(c.has_extension("regresslib"));
    }

    #[test]
    fn connector_error_distinguishes_engine_from_transport() {
        let mut c = EngineConnector::new(EngineDialect::Sqlite, ClientKind::Cli);
        // In-process execution only ever produces the Engine arm.
        let err = c.execute("SELECT * FROM missing").unwrap_err();
        assert!(matches!(err, ConnectorError::Engine(_)), "{err:?}");
        // A transport fault renders with its kind label and carries the
        // recovered flag.
        let t = TransportError::new(TransportErrorKind::Timeout, "deadline 250ms exceeded");
        assert!(!t.recovered);
        assert_eq!(t.to_string(), "backend timeout: deadline 250ms exceeded");
        let t = t.recovered();
        assert!(t.recovered);
        let as_connector: ConnectorError = t.into();
        assert!(matches!(as_connector, ConnectorError::Transport(_)));
    }

    #[test]
    fn render_uses_client_kind() {
        let cli = EngineConnector::new(EngineDialect::Duckdb, ClientKind::Cli);
        let conn = EngineConnector::new(EngineDialect::Duckdb, ClientKind::Connector);
        let v = Value::List(vec![Value::Text("1".into())]);
        assert_eq!(cli.render(&v), "[1]");
        assert_eq!(conn.render(&v), "['1']");
    }
}
