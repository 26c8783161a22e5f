//! A [`Connector`] that drives an out-of-process backend worker.
//!
//! The worker (`squality-backend-worker`) hosts the engine in its own
//! process and speaks the length-prefixed protocol in
//! [`crate::protocol`] over stdin/stdout. The parent side enforces a
//! per-statement deadline (a dedicated reader thread feeds a channel the
//! parent waits on with a timeout) and a bounded restart-with-backoff
//! policy: when the worker crashes, hangs past its deadline, or breaks
//! the protocol, the child is killed and respawned, the provisioned
//! environment (data files, extensions) is replayed, and the fault is
//! surfaced as a *recovered* [`TransportError`] — a classified failure,
//! not a harness abort. Once a file exhausts its restart budget the
//! fault surfaces unrecovered, which stops the file exactly like an
//! engine crash; the budget refills on [`Connector::reset`] (a new
//! file).
//!
//! Restarting mid-file loses the database state the file had built, so
//! records after a recovered fault can fail for follow-on reasons
//! (missing tables). That mirrors what a real DBMS crash does to a test
//! session and is exactly what the failure taxonomy should see.

use crate::protocol::{
    encode_ext_request, encode_file_request, parse_response, read_frame, write_frame, Response,
    WorkerArgs, PROTO_VERSION,
};
use squality_engine::{
    ClientKind, Coverage, EngineDialect, ExecStrategy, FaultProfile, QueryResult, Value,
};
use squality_runner::{
    client_result_error, engine_info, engine_token, Connector, ConnectorError, ConnectorFactory,
    ConnectorInfo, Provisionable, Provisioned, TransportError, TransportErrorKind,
};
use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Default per-statement deadline.
pub const DEFAULT_DEADLINE: Duration = Duration::from_millis(2_000);

/// Default per-file restart budget.
pub const DEFAULT_MAX_RESTARTS: u32 = 3;

/// Fault counters aggregated across every connection a factory mints.
/// Shared (`Arc`) between the factory and its connections so a study can
/// report a backend-fault breakdown after the run.
#[derive(Debug, Default)]
pub struct BackendStats {
    /// Successful worker (re)spawns after a fault.
    pub restarts: AtomicU64,
    /// Worker crashes observed (process exit / closed pipe).
    pub crashes: AtomicU64,
    /// Statements killed at the deadline.
    pub timeouts: AtomicU64,
    /// Protocol violations (malformed frames / responses).
    pub protocol_errors: AtomicU64,
    /// Worker processes spawned in total (initial connects + restarts).
    pub spawns: AtomicU64,
}

impl BackendStats {
    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> BackendFaultBreakdown {
        BackendFaultBreakdown {
            restarts: self.restarts.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            spawns: self.spawns.load(Ordering::Relaxed),
        }
    }
}

/// A plain copy of [`BackendStats`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendFaultBreakdown {
    pub restarts: u64,
    pub crashes: u64,
    pub timeouts: u64,
    pub protocol_errors: u64,
    pub spawns: u64,
}

impl BackendFaultBreakdown {
    /// Total transport faults of any kind.
    pub fn faults(&self) -> u64 {
        self.crashes + self.timeouts + self.protocol_errors
    }

    /// Accumulate another breakdown (e.g. across a study's cells).
    pub fn merge(&mut self, other: &BackendFaultBreakdown) {
        self.restarts += other.restarts;
        self.crashes += other.crashes;
        self.timeouts += other.timeouts;
        self.protocol_errors += other.protocol_errors;
        self.spawns += other.spawns;
    }
}

/// Locate the worker binary: the `SQUALITY_BACKEND_WORKER` environment
/// variable wins; otherwise look next to the current executable and in
/// its parent directory (`target/<profile>/deps/x` → `target/<profile>`,
/// where cargo places workspace binaries).
pub fn discover_worker_bin() -> Option<PathBuf> {
    if let Ok(path) = std::env::var("SQUALITY_BACKEND_WORKER") {
        if !path.is_empty() {
            return Some(PathBuf::from(path));
        }
    }
    let exe = std::env::current_exe().ok()?;
    let name = format!("squality-backend-worker{}", std::env::consts::EXE_SUFFIX);
    let dir = exe.parent()?;
    [dir.join(&name), dir.parent()?.join(&name)].into_iter().find(|c| c.is_file())
}

/// Shared configuration for a subprocess connection.
#[derive(Debug, Clone)]
struct SubprocessConfig {
    bin: PathBuf,
    worker: WorkerArgs,
    deadline: Duration,
    max_restarts: u32,
    provisioned: Provisioned,
    env: Vec<(String, String)>,
}

/// Mints [`SubprocessConnector`]s: one worker process per connection.
#[derive(Debug)]
pub struct SubprocessConnectorFactory {
    config: SubprocessConfig,
    stats: Arc<BackendStats>,
}

impl SubprocessConnectorFactory {
    /// Factory for `dialect` × `client` worker processes run from `bin`.
    pub fn new(
        bin: impl Into<PathBuf>,
        dialect: EngineDialect,
        client: ClientKind,
    ) -> SubprocessConnectorFactory {
        SubprocessConnectorFactory {
            config: SubprocessConfig {
                bin: bin.into(),
                worker: WorkerArgs {
                    dialect,
                    client,
                    faults: FaultProfile::default(),
                    exec_strategy: ExecStrategy::default(),
                    plan_cache: false,
                },
                deadline: DEFAULT_DEADLINE,
                max_restarts: DEFAULT_MAX_RESTARTS,
                provisioned: Provisioned::default(),
                env: Vec::new(),
            },
            stats: Arc::new(BackendStats::default()),
        }
    }

    /// Use an explicit engine fault profile.
    pub fn with_faults(mut self, faults: FaultProfile) -> Self {
        self.config.worker.faults = faults;
        self
    }

    /// The engine's execution strategy in every worker (default: hash).
    pub fn exec_strategy(mut self, strategy: ExecStrategy) -> Self {
        self.config.worker.exec_strategy = strategy;
        self
    }

    /// Give every worker its own statement-plan cache (default: none); a
    /// restarted worker starts with an empty one.
    pub fn plan_cache(mut self, on: bool) -> Self {
        self.config.worker.plan_cache = on;
        self
    }

    /// Per-statement deadline (default [`DEFAULT_DEADLINE`]).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.config.deadline = deadline;
        self
    }

    /// Per-file restart budget (default [`DEFAULT_MAX_RESTARTS`]).
    pub fn max_restarts(mut self, max_restarts: u32) -> Self {
        self.config.max_restarts = max_restarts;
        self
    }

    /// Pass an environment variable to every worker process — the seam
    /// the fault-injection tests use (`SQUALITY_CRASH_AFTER` etc.)
    /// without touching the harness's own process environment.
    pub fn env(mut self, key: &str, value: &str) -> Self {
        self.config.env.push((key.to_string(), value.to_string()));
        self
    }

    /// The shared fault counters across every minted connection.
    pub fn stats(&self) -> Arc<BackendStats> {
        Arc::clone(&self.stats)
    }
}

impl ConnectorFactory for SubprocessConnectorFactory {
    type Conn = SubprocessConnector;

    fn connect(&self) -> Result<SubprocessConnector, ConnectorError> {
        let mut conn = SubprocessConnector {
            config: self.config.clone(),
            worker: None,
            restarts_this_file: 0,
            stats: Arc::clone(&self.stats),
        };
        conn.respawn().map_err(|message| {
            ConnectorError::Transport(TransportError::new(TransportErrorKind::Connect, message))
        })?;
        Ok(conn)
    }

    /// Static metadata — no probe process is spawned, and no pid is
    /// reported, so suite-level metadata is deterministic across runs.
    fn info(&self) -> ConnectorInfo {
        ConnectorInfo {
            backend_version: Some(format!("worker/{PROTO_VERSION}")),
            ..engine_info(self.config.worker.dialect, self.config.worker.client).subprocess()
        }
    }
}

/// A live worker process with its reader thread.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    /// Frames from the worker's stdout, fed by a dedicated reader thread
    /// — the channel is what makes `recv_timeout` deadlines possible.
    frames: mpsc::Receiver<std::io::Result<Vec<u8>>>,
    pid: u32,
}

impl Worker {
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What went wrong on the wire (pre-recovery).
enum Fault {
    Crash(String),
    Timeout(String),
    Protocol(String),
}

impl Fault {
    fn kind(&self) -> TransportErrorKind {
        match self {
            Fault::Crash(_) => TransportErrorKind::Crash,
            Fault::Timeout(_) => TransportErrorKind::Timeout,
            Fault::Protocol(_) => TransportErrorKind::Protocol,
        }
    }

    fn message(self) -> String {
        match self {
            Fault::Crash(m) | Fault::Timeout(m) | Fault::Protocol(m) => m,
        }
    }
}

impl std::fmt::Debug for SubprocessConnector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubprocessConnector")
            .field("pid", &self.backend_pid())
            .field("restarts_this_file", &self.restarts_this_file)
            .finish_non_exhaustive()
    }
}

/// A connection to one backend worker process.
pub struct SubprocessConnector {
    config: SubprocessConfig,
    worker: Option<Worker>,
    /// Restarts consumed since the last reset (= since the file started;
    /// the scheduler resets before every file).
    restarts_this_file: u32,
    stats: Arc<BackendStats>,
}

impl SubprocessConnector {
    /// The worker process id, when the worker is alive.
    pub fn backend_pid(&self) -> Option<u32> {
        self.worker.as_ref().map(|w| w.pid)
    }

    /// Restarts consumed since the last reset.
    pub fn restarts_this_file(&self) -> u32 {
        self.restarts_this_file
    }

    /// Register a data file on this connection, surviving resets and
    /// worker restarts (mirrors `EngineConnector::provide_file`). A dead
    /// worker is not an error here — the file is recorded in the replay
    /// mirror and reaches the next worker on respawn.
    pub fn provide_file(&mut self, path: &str, lines: Vec<String>) {
        if let Some(worker) = self.worker.as_mut() {
            let _ =
                Self::roundtrip(worker, self.config.deadline, &encode_file_request(path, &lines));
        }
        self.config.provisioned.file(path, lines);
    }

    /// Register an available extension, surviving resets and restarts.
    pub fn provide_extension(&mut self, name: &str) {
        if let Some(worker) = self.worker.as_mut() {
            let _ = Self::roundtrip(worker, self.config.deadline, &encode_ext_request(name));
        }
        self.config.provisioned.extension(name);
    }

    /// The engine coverage the worker process has accumulated (a `COV`
    /// round-trip). Coverage lives in the worker, so a worker that died
    /// took its hits with it: a dead or misbehaving worker contributes
    /// nothing, and under injected crashes the result is a lower bound on
    /// an in-process run's.
    pub fn coverage(&mut self) -> Coverage {
        let Some(worker) = self.worker.as_mut() else { return Coverage::new() };
        match Self::roundtrip(worker, self.config.deadline, b"COV").map(|r| parse_response(&r)) {
            Ok(Ok(Response::Coverage(coverage))) => coverage,
            _ => Coverage::new(),
        }
    }

    /// Spawn a fresh worker, handshake, and replay the provisioned
    /// environment. On success the previous worker (if any) is already
    /// gone. Errors are returned as human-readable messages.
    fn respawn(&mut self) -> Result<(), String> {
        if let Some(worker) = self.worker.take() {
            worker.kill();
        }
        let mut command = Command::new(&self.config.bin);
        command
            .args(self.config.worker.encode())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (key, value) in &self.config.env {
            command.env(key, value);
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", self.config.bin.display()))?;
        self.stats.spawns.fetch_add(1, Ordering::Relaxed);
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, frames) = mpsc::channel();
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            loop {
                match read_frame(&mut reader) {
                    Ok(Some(payload)) => {
                        if tx.send(Ok(payload)).is_err() {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        break;
                    }
                }
            }
        });
        let pid = child.id();
        let mut worker = Worker { child, stdin, frames, pid };
        // Handshake: proves the binary speaks our protocol version before
        // any statement reaches it.
        let response =
            Self::roundtrip(&mut worker, self.config.deadline, b"HELLO").map_err(Fault::message)?;
        match parse_response(&response) {
            Ok(Response::Hello { proto, pid: _ }) if proto == PROTO_VERSION => {}
            Ok(Response::Hello { proto, .. }) => {
                worker.kill();
                return Err(format!(
                    "protocol version mismatch: worker speaks {proto}, harness {PROTO_VERSION}"
                ));
            }
            other => {
                worker.kill();
                return Err(format!("bad handshake: {other:?}"));
            }
        }
        for (path, lines) in self.config.provisioned.files() {
            let response = Self::roundtrip(
                &mut worker,
                self.config.deadline,
                &encode_file_request(path, lines),
            )
            .map_err(Fault::message)?;
            if parse_response(&response) != Ok(Response::Ok) {
                worker.kill();
                return Err(format!("file provisioning rejected for {path}"));
            }
        }
        for ext in self.config.provisioned.extensions() {
            let response =
                Self::roundtrip(&mut worker, self.config.deadline, &encode_ext_request(ext))
                    .map_err(Fault::message)?;
            if parse_response(&response) != Ok(Response::Ok) {
                worker.kill();
                return Err(format!("extension provisioning rejected for {ext}"));
            }
        }
        self.worker = Some(worker);
        Ok(())
    }

    /// One request/response exchange against a specific worker.
    fn roundtrip(
        worker: &mut Worker,
        deadline: Duration,
        payload: &[u8],
    ) -> Result<Vec<u8>, Fault> {
        if let Err(e) = write_frame(&mut worker.stdin, payload) {
            return Err(Fault::Crash(format!("backend stdin closed: {e}")));
        }
        let _ = worker.stdin.flush();
        match worker.frames.recv_timeout(deadline) {
            Ok(Ok(payload)) => Ok(payload),
            Ok(Err(e)) => Err(Fault::Protocol(format!("malformed frame from backend: {e}"))),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(Fault::Timeout(format!(
                "statement exceeded the {}ms deadline",
                deadline.as_millis()
            ))),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let status = worker
                    .child
                    .wait()
                    .map(|s| s.to_string())
                    .unwrap_or_else(|_| "unknown status".to_string());
                Err(Fault::Crash(format!("backend process died ({status})")))
            }
        }
    }

    /// Kill the worker, count the fault, and try to restart within the
    /// per-file budget. Returns the fault as a [`TransportError`] whose
    /// `recovered` flag says whether a fresh worker is ready.
    fn handle_fault(&mut self, fault: Fault) -> TransportError {
        let kind = fault.kind();
        let counter = match kind {
            TransportErrorKind::Timeout => &self.stats.timeouts,
            TransportErrorKind::Protocol => &self.stats.protocol_errors,
            _ => &self.stats.crashes,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(worker) = self.worker.take() {
            worker.kill();
        }
        let mut message = fault.message();
        let mut recovered = false;
        while self.restarts_this_file < self.config.max_restarts {
            self.restarts_this_file += 1;
            // Small exponential backoff: 5ms, 10ms, 20ms, ... capped.
            let backoff = 5u64 << (self.restarts_this_file - 1).min(4);
            std::thread::sleep(Duration::from_millis(backoff));
            match self.respawn() {
                Ok(()) => {
                    self.stats.restarts.fetch_add(1, Ordering::Relaxed);
                    recovered = true;
                    break;
                }
                Err(e) => message = format!("{message}; restart failed: {e}"),
            }
        }
        if !recovered {
            message =
                format!("{message} (restart budget of {} exhausted)", self.config.max_restarts);
        }
        TransportError { kind, message, recovered }
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

impl Connector for SubprocessConnector {
    fn engine_name(&self) -> &'static str {
        engine_token(self.config.worker.dialect)
    }

    fn info(&self) -> ConnectorInfo {
        ConnectorInfo {
            backend_pid: self.backend_pid(),
            backend_version: Some(format!("worker/{PROTO_VERSION}")),
            ..engine_info(self.config.worker.dialect, self.config.worker.client).subprocess()
        }
    }

    fn execute(&mut self, sql: &str) -> Result<QueryResult, ConnectorError> {
        if self.worker.is_none() {
            // A previous file exhausted its budget, or reset's respawn
            // failed; try once more before declaring the backend gone.
            if let Err(message) = self.respawn() {
                return Err(ConnectorError::Transport(TransportError::new(
                    TransportErrorKind::Connect,
                    message,
                )));
            }
        }
        let mut payload = b"EXEC ".to_vec();
        payload.extend_from_slice(sql.as_bytes());
        let worker = self.worker.as_mut().expect("respawned above");
        let response = match Self::roundtrip(worker, self.config.deadline, &payload) {
            Ok(response) => response,
            Err(fault) => return Err(ConnectorError::Transport(self.handle_fault(fault))),
        };
        match parse_response(&response) {
            Ok(Response::Result(result)) => {
                // Client-level behaviour stays on this side of the process
                // boundary, like rendering: the worker ships raw engine
                // results, the parent applies the client simulation.
                let WorkerArgs { client, dialect, .. } = self.config.worker;
                match client_result_error(client, dialect, &result) {
                    Some(error) => Err(ConnectorError::Engine(error)),
                    None => Ok(result),
                }
            }
            Ok(Response::Error(error)) => Err(ConnectorError::Engine(error)),
            Ok(other) => {
                let fault = Fault::Protocol(format!("unexpected EXEC response: {other:?}"));
                Err(ConnectorError::Transport(self.handle_fault(fault)))
            }
            Err(e) => {
                let fault = Fault::Protocol(format!("undecodable EXEC response: {e}"));
                Err(ConnectorError::Transport(self.handle_fault(fault)))
            }
        }
    }

    fn render(&self, v: &Value) -> String {
        // Rendering is parent-side: the worker ships typed values with
        // exact bit patterns, the parent prints them the way this
        // dialect × client pair would.
        squality_engine::client::render_slt_value(
            v,
            self.config.worker.dialect,
            self.config.worker.client,
        )
    }

    fn reset(&mut self) {
        // A new file: the restart budget refills.
        self.restarts_this_file = 0;
        if let Some(worker) = self.worker.as_mut() {
            match Self::roundtrip(worker, self.config.deadline, b"RESET") {
                Ok(response) if parse_response(&response) == Ok(Response::Ok) => return,
                _ => {}
            }
        }
        // Dead or misbehaving worker: a fresh spawn IS a reset. A spawn
        // failure here is benign — the next execute retries and surfaces
        // it as a Connect fault.
        let _ = self.respawn();
    }

    fn has_extension(&self, name: &str) -> bool {
        // Answered from the parent-side mirror: the provisioned extension
        // list is part of the factory configuration, and `&self` permits
        // no wire round-trip.
        let name = name.to_lowercase();
        self.config.provisioned.extensions().any(|e| e.to_lowercase() == name)
    }
}

impl Drop for SubprocessConnector {
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            worker.kill();
        }
    }
}
