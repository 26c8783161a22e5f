//! The unified public entry point: a builder for suite × host runs.
//!
//! PRs 1–3 each widened the free-function surface (`run_suite_on`,
//! `run_suite_sharded`, `run_suite_with_connector`) and its struct-literal
//! configs, breaking callers every time a knob landed. [`Harness`]
//! replaces that scatter with one builder — suite → host engine → client →
//! faults → translation → workers → plan cache, all defaulted — whose
//! [`Run`]s execute through the existing parallel scheduler and emit the
//! typed [`RunEvent`] stream to any number of
//! [`RunObserver`] sinks.
//!
//! The determinism contract carries over unchanged: summaries and the
//! event multiset are byte-identical at every worker count (timing fields
//! aside); see [`squality_runner::events`].

use crate::cache::{CachedFileRun, CellSpec, FileKey, ResultCache};
use crate::stability::StabilityConfig;
use crate::transplant::{summarize, Provision, SuiteRunSummary};
use squality_backend::{
    discover_worker_bin, BackendFaultBreakdown, BackendSpec, SubprocessConnector,
    SubprocessConnectorFactory,
};
use squality_corpus::{donor_dialect, DonorEnvironment, GeneratedSuite};
use squality_engine::{
    execution_fingerprint, ClientKind, Coverage, EngineDialect, ExecStrategy, FaultProfile,
    PlanCache,
};
use squality_formats::{file_content_hash, SuiteKind, TestFile};
use squality_runner::{
    emit_suite_finished, replay_file_events, Connector, ConnectorFactory, EngineConnector,
    EngineConnectorFactory, FanoutObserver, NumericMode, Provisionable, RunEvent, RunObserver,
    Runner, RunnerOptions, TranslationCounts, TranslationMode,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// What a harness executes: a generated donor suite (with its recorded
/// environment) or a bare slice of parsed test files.
enum SuiteSource<'a> {
    Generated(&'a GeneratedSuite),
    Files { kind: SuiteKind, files: &'a [TestFile] },
}

impl SuiteSource<'_> {
    fn kind(&self) -> SuiteKind {
        match self {
            SuiteSource::Generated(gs) => gs.suite,
            SuiteSource::Files { kind, .. } => *kind,
        }
    }

    fn files(&self) -> &[TestFile] {
        match self {
            SuiteSource::Generated(gs) => &gs.files,
            SuiteSource::Files { files, .. } => files,
        }
    }
}

/// Why a [`HarnessBuilder`] could not produce a [`Harness`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum HarnessError {
    /// No suite was given: call [`HarnessBuilder::suite`] or
    /// [`HarnessBuilder::files`] before [`HarnessBuilder::build`].
    MissingSuite,
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::MissingSuite => {
                write!(f, "no suite configured: call .suite(..) or .files(..) before .build()")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

/// Builder for a [`Harness`]. Every knob is defaulted; only the suite is
/// required. See [`Harness::builder`] for a complete example.
pub struct HarnessBuilder<'a> {
    source: Option<SuiteSource<'a>>,
    environment: Option<&'a DonorEnvironment>,
    host: Option<EngineDialect>,
    client: ClientKind,
    provision: Option<Provision>,
    numeric: NumericMode,
    faults: FaultProfile,
    translate: bool,
    workers: usize,
    backend: BackendSpec,
    backend_env: Vec<(String, String)>,
    exec_strategy: ExecStrategy,
    plan_cache: Option<Arc<PlanCache>>,
    result_cache: Option<Arc<ResultCache>>,
    stability: Option<StabilityConfig>,
    observers: Vec<&'a dyn RunObserver>,
    label: Option<String>,
}

impl<'a> HarnessBuilder<'a> {
    fn new() -> HarnessBuilder<'a> {
        HarnessBuilder {
            source: None,
            environment: None,
            host: None,
            client: ClientKind::Connector,
            provision: None,
            numeric: NumericMode::Exact,
            faults: FaultProfile::default(),
            translate: false,
            workers: 1,
            backend: BackendSpec::InProcess,
            backend_env: Vec::new(),
            exec_strategy: ExecStrategy::default(),
            plan_cache: None,
            result_cache: None,
            stability: None,
            observers: Vec::new(),
            label: None,
        }
    }

    /// The donor suite to execute, with its recorded environment
    /// (provisioned per [`HarnessBuilder::provision`]).
    pub fn suite(mut self, suite: &'a GeneratedSuite) -> Self {
        self.source = Some(SuiteSource::Generated(suite));
        self
    }

    /// Execute bare parsed test files of donor format `kind` instead of a
    /// generated suite. There is no environment to provision, so the run
    /// behaves like [`Provision::Bare`].
    pub fn files(mut self, kind: SuiteKind, files: &'a [TestFile]) -> Self {
        self.source = Some(SuiteSource::Files { kind, files });
        self
    }

    /// Provision runs from this donor environment instead of the suite's
    /// own. This is what lets a [`HarnessBuilder::files`] run — a triage
    /// reduction probe, a minimized repro re-execution — replay under the
    /// exact environment its cell observed. A generated suite defaults to
    /// its recorded environment; bare files default to none.
    pub fn environment(mut self, env: &'a DonorEnvironment) -> Self {
        self.environment = Some(env);
        self
    }

    /// Host engine the suite runs on. Default: the suite's own donor
    /// engine.
    pub fn host(mut self, host: EngineDialect) -> Self {
        self.host = Some(host);
        self
    }

    /// Client the results are rendered through. Default:
    /// [`ClientKind::Connector`] (the paper's unified runner).
    pub fn client(mut self, client: ClientKind) -> Self {
        self.client = client;
        self
    }

    /// How much of the donor environment the host receives. Default:
    /// [`Provision::CrossHost`] for a generated suite, [`Provision::Bare`]
    /// for bare files.
    pub fn provision(mut self, provision: Provision) -> Self {
        self.provision = Some(provision);
        self
    }

    /// Numeric comparison mode. Default: [`NumericMode::Exact`].
    pub fn numeric(mut self, numeric: NumericMode) -> Self {
        self.numeric = numeric;
        self
    }

    /// Fault profile of the host engine. Default: the paper-version
    /// profile (every studied bug present).
    pub fn faults(mut self, faults: FaultProfile) -> Self {
        self.faults = faults;
        self
    }

    /// Adapt each statement from the donor dialect to the host dialect
    /// before execution (the translated arm). Default: off — donor text
    /// runs verbatim, the paper's methodology. A same-dialect pair is the
    /// identity either way.
    pub fn translate(mut self, translate: bool) -> Self {
        self.translate = translate;
        self
    }

    /// Worker connections to shard files over (`0` = all cores, clamped
    /// to the file count). Default: 1. Purely a throughput knob: results
    /// and events are byte-identical at every count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Where host engines run. Default: [`BackendSpec::InProcess`] — the
    /// engine as a library call, byte-identical to every prior release.
    /// [`BackendSpec::Subprocess`] puts each worker connection behind a
    /// `squality-backend-worker` child process with per-statement
    /// deadlines and bounded restart: an engine crash or hang becomes a
    /// classified failure instead of taking the harness down.
    pub fn backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Set an environment variable on every spawned backend worker
    /// process (no effect in-process). Entries set here override any
    /// forwarded variable of the same name from the harness's own
    /// environment — this is how the stability arm injects *seeded*
    /// `SQUALITY_CRASH_AFTER`/`SQUALITY_HANG_AFTER` schedules without
    /// mutating (thread-unsafe) process-global state.
    pub fn backend_env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.backend_env.push((key.into(), value.into()));
        self
    }

    /// Execution strategy of the host engine (the stability arm's
    /// naive-vs-hash perturbation axis). Default: [`ExecStrategy::Hash`].
    /// Participates in the result-cache cell key, so strategies never
    /// share cached results.
    pub fn exec_strategy(mut self, strategy: ExecStrategy) -> Self {
        self.exec_strategy = strategy;
        self
    }

    /// Re-execute every failing record under the stability arm's
    /// perturbation matrix after the run, annotating each failure's
    /// [`FailureSignature`](squality_runner::FailureSignature) with a
    /// [`Stability`](squality_runner::Stability) verdict. Stability runs
    /// bypass the result cache: verdicts must come from live perturbed
    /// re-execution, never replayed entries. Default: off.
    pub fn stability(mut self, config: StabilityConfig) -> Self {
        self.stability = Some(config);
        self
    }

    /// Share a statement-plan cache across this run's connections (and,
    /// by passing the same `Arc`, across runs). Default: none.
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// Use a content-addressed result cache: files whose content and run
    /// configuration match a cached entry are **not executed** — their
    /// recorded results are replayed through the observer path instead,
    /// byte-identical to a live run. Share one cache `Arc` across runs
    /// (and across studies) for cross-run reuse. Default: off.
    pub fn result_cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.result_cache = Some(cache);
        self
    }

    /// Register an event sink. May be called repeatedly; observers
    /// receive every [`RunEvent`] in registration order.
    pub fn observer(mut self, observer: &'a dyn RunObserver) -> Self {
        self.observers.push(observer);
        self
    }

    /// Human-readable label carried in `SuiteStarted`/`SuiteFinished`
    /// events. Default: `"<donor>→<host>"`, with a ` (translated)`
    /// suffix when translation is on.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Resolve defaults and produce the [`Harness`].
    pub fn build(self) -> Result<Harness<'a>, HarnessError> {
        let source = self.source.ok_or(HarnessError::MissingSuite)?;
        let host = self.host.unwrap_or_else(|| donor_dialect(source.kind()));
        let provision = self.provision.unwrap_or(match source {
            SuiteSource::Generated(_) => Provision::CrossHost,
            SuiteSource::Files { .. } => Provision::Bare,
        });
        let label = self.label.unwrap_or_else(|| {
            format!(
                "{}→{}{}",
                source.kind().donor_name(),
                host.name(),
                if self.translate { " (translated)" } else { "" }
            )
        });
        Ok(Harness {
            source,
            environment: self.environment,
            host,
            client: self.client,
            provision,
            numeric: self.numeric,
            faults: self.faults,
            translate: self.translate,
            workers: self.workers,
            backend: self.backend,
            backend_env: self.backend_env,
            exec_strategy: self.exec_strategy,
            plan_cache: self.plan_cache,
            result_cache: self.result_cache,
            stability: self.stability,
            observers: self.observers,
            label,
        })
    }
}

/// A fully-configured suite × host execution. Build one with
/// [`Harness::builder`], then call [`Harness::run`] (scheduler-backed,
/// any worker count) or [`Harness::run_on`] (a caller-owned connection).
pub struct Harness<'a> {
    source: SuiteSource<'a>,
    environment: Option<&'a DonorEnvironment>,
    host: EngineDialect,
    client: ClientKind,
    provision: Provision,
    numeric: NumericMode,
    faults: FaultProfile,
    translate: bool,
    workers: usize,
    backend: BackendSpec,
    backend_env: Vec<(String, String)>,
    exec_strategy: ExecStrategy,
    plan_cache: Option<Arc<PlanCache>>,
    result_cache: Option<Arc<ResultCache>>,
    stability: Option<StabilityConfig>,
    observers: Vec<&'a dyn RunObserver>,
    label: String,
}

/// Everything one [`Harness::run`] produces: the aggregate summary, the
/// engine coverage the run reached, and the backend's fault counters.
pub struct Run {
    /// Aggregate result of the run, in input order.
    pub summary: SuiteRunSummary,
    /// The union of every file's engine coverage, whether the file ran
    /// live or was replayed from the result cache (Table 8 reads it). A
    /// subprocess run asks each worker process for its coverage; a worker
    /// that died contributes only what its restarted successor reached.
    pub coverage: Coverage,
    /// Backend fault counters (crashes, timeouts, restarts) when the run
    /// executed on [`BackendSpec::Subprocess`]; `None` in-process.
    pub backend_faults: Option<BackendFaultBreakdown>,
}

impl<'a> Harness<'a> {
    /// Start configuring a run. Everything except the suite is defaulted.
    ///
    /// ```
    /// use squality_core::Harness;
    /// use squality_corpus::generate_suite_scaled;
    /// use squality_engine::EngineDialect;
    /// use squality_formats::SuiteKind;
    /// use squality_runner::JsonlObserver;
    ///
    /// let suite = generate_suite_scaled(SuiteKind::Slt, 7, 0.02);
    /// let events = JsonlObserver::new();
    /// let run = Harness::builder()
    ///     .suite(&suite)
    ///     .host(EngineDialect::Duckdb)
    ///     .workers(2)
    ///     .observer(&events)
    ///     .build()
    ///     .expect("a suite was configured")
    ///     .run();
    /// assert_eq!(run.summary.host, EngineDialect::Duckdb);
    /// assert!(events.log().contains("\"event\":\"suite_finished\""));
    /// ```
    pub fn builder() -> HarnessBuilder<'a> {
        HarnessBuilder::new()
    }

    /// The resolved host engine.
    pub fn host(&self) -> EngineDialect {
        self.host
    }

    /// The run label used in suite events.
    pub fn label(&self) -> &str {
        &self.label
    }

    fn translation_mode(&self) -> TranslationMode {
        if self.translate {
            TranslationMode::Translated {
                from: donor_dialect(self.source.kind()).text_dialect(),
                to: self.host.text_dialect(),
            }
        } else {
            TranslationMode::Verbatim
        }
    }

    /// The donor environment this run provisions from: an explicit
    /// [`HarnessBuilder::environment`] wins; a generated suite falls back
    /// to its recorded environment; bare files have none.
    fn resolved_environment(&self) -> Option<&DonorEnvironment> {
        match (&self.environment, &self.source) {
            (Some(env), _) => Some(env),
            (None, SuiteSource::Generated(gs)) => Some(&gs.environment),
            (None, SuiteSource::Files { .. }) => None,
        }
    }

    /// Apply the configured provision level to a freshly-reset connection,
    /// in-process or subprocess.
    fn provision_conn(&self, conn: &mut impl Provisionable) {
        let Some(env) = self.resolved_environment() else { return };
        match self.provision {
            Provision::Full => env.provision(conn),
            Provision::CrossHost => {
                for (path, lines) in &env.data_files {
                    conn.provide_file(path, lines.clone());
                }
                for sql in &env.setup_sql {
                    let _ = conn.execute(sql);
                }
            }
            Provision::Bare => {}
        }
    }

    fn runner(&self) -> Runner {
        Runner::new(RunnerOptions {
            numeric: self.numeric,
            fresh_database: false,
            translation: self.translation_mode(),
        })
    }

    fn factory(&self) -> EngineConnectorFactory {
        let mut factory = EngineConnectorFactory::with_faults(self.host, self.client, self.faults)
            .exec_strategy(self.exec_strategy);
        if let Some(cache) = &self.plan_cache {
            factory = factory.plan_cache(Arc::clone(cache));
        }
        factory
    }

    /// The content-addressed keys this run's files cache under. The cell
    /// half hashes every outcome-relevant knob of this harness; the file
    /// half hashes each file's canonical content.
    fn file_keys(&self) -> Vec<FileKey> {
        let fingerprint = execution_fingerprint(self.host, self.exec_strategy);
        let cell = CellSpec {
            suite: self.source.kind(),
            engine_fingerprint: &fingerprint,
            client: self.client,
            provision: self.provision,
            numeric: self.numeric,
            translation: self.translation_mode(),
            faults: self.faults,
            environment: self.resolved_environment(),
            backend: self.backend.tag(),
        }
        .cell_hash();
        self.source.files().iter().map(|f| FileKey { cell, file: file_content_hash(f) }).collect()
    }

    /// Execute through the parallel scheduler: the configured worker
    /// count, a fresh provisioned connection per file, results stitched
    /// in input order, events streamed to every registered observer.
    ///
    /// With a [`HarnessBuilder::result_cache`], files whose key matches a
    /// cached entry are replayed instead of executed; everything
    /// observable (summary, events, tables, coverage unions) is
    /// byte-identical either way.
    pub fn run(&self) -> Run {
        let mut run = if matches!(self.backend, BackendSpec::Subprocess { .. }) {
            // Subprocess runs are never cached: their point is observing
            // live process faults. Each worker process reports the
            // coverage it reached; a worker that died contributes only
            // what its restarted successor reached.
            let factory = self.subprocess_factory();
            let mut run =
                self.execute(&factory, None, |conn: &mut SubprocessConnector| conn.coverage());
            run.backend_faults = Some(factory.stats().snapshot());
            run
        } else {
            // Stability runs are never cached either (satellite of the
            // same contract): a warm cache must not replay stale
            // verdicts, so the run executes live and the rerun arm
            // probes live too.
            let capture =
                self.result_cache.as_deref().filter(|_| self.stability.is_none()).map(|cache| {
                    Capture {
                        cache,
                        begin: EngineConnector::begin_coverage_capture,
                        end: EngineConnector::end_coverage_capture,
                    }
                });
            self.execute(&self.factory(), capture, |conn: &mut EngineConnector| {
                std::mem::take(conn.engine_mut().coverage_mut())
            })
        };
        if let Some(config) = &self.stability {
            crate::stability::annotate_summary(
                &self.probe_cell(),
                self.source.files(),
                &mut run.summary,
                config,
            );
        }
        run
    }

    /// The probe configuration the stability arm replicates this
    /// harness's failures under.
    fn probe_cell(&self) -> crate::stability::ProbeCell<'_> {
        crate::stability::ProbeCell {
            kind: self.source.kind(),
            host: self.host,
            client: self.client,
            provision: self.provision,
            translate: self.translate,
            faults: self.faults,
            env: self.resolved_environment(),
            label: self.label.clone(),
        }
    }

    /// The out-of-process connector factory. The scheduler, runner, and
    /// event paths are the same as in-process — only the factory differs:
    /// a worker process dying mid-file surfaces as transport faults in
    /// the results, and the suite keeps going.
    fn subprocess_factory(&self) -> SubprocessConnectorFactory {
        let BackendSpec::Subprocess { bin, deadline, max_restarts } = &self.backend else {
            unreachable!("subprocess_factory is only called for subprocess backends");
        };
        let bin = bin
            .clone()
            .or_else(discover_worker_bin)
            // Last resort: let the OS search PATH at spawn time.
            .unwrap_or_else(|| std::path::PathBuf::from("squality-backend-worker"));
        let mut factory = SubprocessConnectorFactory::new(bin, self.host, self.client)
            .with_faults(self.faults)
            .deadline(*deadline)
            .max_restarts(*max_restarts);
        for (key, value) in std::env::vars() {
            // Forward the fault-injection hooks so crash-containment
            // tests (and CI fault legs) reach the workers.
            if key == "SQUALITY_CRASH_AFTER" || key == "SQUALITY_HANG_AFTER" {
                factory = factory.env(&key, &value);
            }
        }
        // Explicit per-harness entries land after the forwarded ones, so
        // they win (Command::env is last-wins) — seeded stability-arm
        // schedules override whatever the parent process carries.
        for (key, value) in &self.backend_env {
            factory = factory.env(key, value);
        }
        factory
    }

    /// The one execution path behind [`Harness::run`]: emit the suite
    /// events, replay cache hits, run the stale files through
    /// [`Runner::run_files`], and stitch everything back in input order.
    ///
    /// Without a `capture` every file is stale. With one, files whose key
    /// the cache holds replay their event blocks and stored coverage
    /// windows, and each stale file runs inside a coverage window opened
    /// before provisioning (so provision hits are captured too) and
    /// stored with its result. Suite-level events are always emitted
    /// live, and the [`JsonlObserver`](squality_runner::JsonlObserver)
    /// orders file blocks by input index, so the log is byte-identical
    /// whatever mix of hits and misses occurred. Summary translation
    /// counters are summed from per-file deltas, which equals one shared
    /// counter set's total because counters record per execution.
    ///
    /// `coverage_of` empties a retired connection's coverage recorder. A
    /// closed window unions back into its connection's recorder, so the
    /// union of hit windows and retired recorders equals an uncached
    /// run's coverage.
    fn execute<F>(
        &self,
        factory: &F,
        capture: Option<Capture<'_, F::Conn>>,
        coverage_of: impl Fn(&mut F::Conn) -> Coverage,
    ) -> Run
    where
        F: ConnectorFactory,
        F::Conn: Provisionable,
    {
        let started = std::time::Instant::now();
        let files = self.source.files();
        let fanout = FanoutObserver(&self.observers);
        let observer = (!self.observers.is_empty()).then_some(&fanout as &dyn RunObserver);
        if let Some(observer) = observer {
            let info = factory.info();
            observer.on_event(&RunEvent::SuiteStarted {
                label: &self.label,
                files: files.len(),
                connector: &info,
            });
        }

        let keys = if capture.is_some() { self.file_keys() } else { Vec::new() };
        let hits: Vec<Option<CachedFileRun>> = match &capture {
            Some(capture) => keys.iter().map(|key| capture.cache.lookup(key)).collect(),
            None => files.iter().map(|_| None).collect(),
        };
        let stale: Vec<(usize, &TestFile)> = hits
            .iter()
            .enumerate()
            .filter(|(_, hit)| hit.is_none())
            .map(|(i, _)| (i, &files[i]))
            .collect();
        if let Some(observer) = observer {
            for (i, hit) in hits.iter().enumerate() {
                if let Some(hit) = hit {
                    replay_file_events(observer, i, &hit.result);
                }
            }
        }

        let windows: Mutex<BTreeMap<usize, Coverage>> = Mutex::default();
        let execution = self.runner().run_files(
            factory,
            &stale,
            self.workers,
            |conn: &mut F::Conn| {
                if let Some(capture) = &capture {
                    (capture.begin)(conn);
                }
                self.provision_conn(conn);
            },
            |conn: &mut F::Conn, index: usize| {
                if let Some(capture) = &capture {
                    let window = (capture.end)(conn);
                    windows.lock().expect("coverage windows poisoned").insert(index, window);
                }
            },
            observer,
        );
        let mut windows = windows.into_inner().expect("coverage windows poisoned");

        // Move the first recorder rather than copying it into an empty one
        // (most runs retire one or two connections).
        let mut recorders = execution.connectors.into_iter().map(|mut conn| coverage_of(&mut conn));
        let mut coverage = recorders.next().unwrap_or_default();
        for recorder in recorders {
            coverage.union_with(&recorder);
        }
        let mut results = Vec::with_capacity(files.len());
        let mut translation = TranslationCounts::default();
        let mut records = execution.records.into_iter();
        for hit in hits {
            let run = match hit {
                Some(hit) => {
                    coverage.union_with(&hit.coverage);
                    hit
                }
                None => {
                    let record = records.next().expect("scheduler ran every stale file");
                    let run = CachedFileRun {
                        coverage: windows.remove(&record.index).unwrap_or_default(),
                        result: record.result,
                        translation: record.translation,
                    };
                    if let Some(capture) = &capture {
                        capture.cache.store(&keys[record.index], &run);
                    }
                    run
                }
            };
            translation.merge(&run.translation);
            results.push(run.result);
        }
        if let Some(observer) = observer {
            emit_suite_finished(
                observer,
                &self.label,
                &results,
                started.elapsed().as_nanos() as u64,
            );
        }
        let mut summary = summarize(self.source.kind(), self.host, &results);
        summary.translation = translation;
        Run { summary, coverage, backend_faults: None }
    }

    /// Execute sequentially on one existing, caller-owned connection —
    /// for callers that accumulate engine state (coverage, extensions)
    /// across several suites on a single connection. Emits the same event
    /// stream as a 1-worker [`Harness::run`].
    pub fn run_on(&self, conn: &mut EngineConnector) -> SuiteRunSummary {
        let runner = self.runner();
        let files = self.source.files();
        let fanout = FanoutObserver(&self.observers);
        let observed = !self.observers.is_empty();
        let started = std::time::Instant::now();
        if observed {
            let info = conn.info();
            fanout.on_event(&RunEvent::SuiteStarted {
                label: &self.label,
                files: files.len(),
                connector: &info,
            });
        }
        let mut results = Vec::with_capacity(files.len());
        for (i, file) in files.iter().enumerate() {
            // Fresh database per file, then provision per the config.
            conn.reset();
            self.provision_conn(conn);
            results.push(if observed {
                runner.run_file_observed(conn, file, i, &fanout)
            } else {
                runner.run_file(conn, file)
            });
        }
        if observed {
            squality_runner::events::emit_suite_finished(
                &fanout,
                &self.label,
                &results,
                started.elapsed().as_nanos() as u64,
            );
        }
        let mut summary = summarize(self.source.kind(), self.host, &results);
        summary.translation = runner.translation_stats.counts();
        summary
    }
}

/// How a cached run captures per-file coverage: the cache the stale
/// files' entries go to, and the connection's window hooks.
struct Capture<'c, C> {
    cache: &'c ResultCache,
    begin: fn(&mut C),
    end: fn(&mut C) -> Coverage,
}

#[cfg(test)]
mod tests {
    use super::*;
    use squality_corpus::generate_suite_scaled;
    use squality_runner::JsonlObserver;

    #[test]
    fn builder_requires_a_suite() {
        let err = Harness::builder().build().err().expect("suite missing must error");
        assert_eq!(err, HarnessError::MissingSuite);
        assert!(err.to_string().contains("suite"));
    }

    #[test]
    fn defaults_are_the_unified_runner_on_the_donor() {
        let gs = generate_suite_scaled(SuiteKind::PgRegress, 3, 0.05);
        let h = Harness::builder().suite(&gs).build().unwrap();
        assert_eq!(h.host(), EngineDialect::Postgres);
        assert_eq!(h.label(), "PostgreSQL→PostgreSQL");
        let default = h.run();
        let explicit = Harness::builder()
            .suite(&gs)
            .client(ClientKind::Connector)
            .provision(Provision::CrossHost)
            .build()
            .unwrap()
            .run();
        assert_eq!(default.summary.passed, explicit.summary.passed);
        assert_eq!(default.summary.failures, explicit.summary.failures);
        assert_eq!(default.summary.skip_reasons, explicit.summary.skip_reasons);
        assert_eq!(default.coverage, explicit.coverage);
    }

    #[test]
    fn run_matches_any_worker_count_and_run_on() {
        let gs = generate_suite_scaled(SuiteKind::Duckdb, 5, 0.06);
        let build = |workers: usize| {
            Harness::builder()
                .suite(&gs)
                .host(EngineDialect::Sqlite)
                .workers(workers)
                .build()
                .unwrap()
        };
        let base = build(1).run().summary;
        for workers in [2, 4] {
            let got = build(workers).run().summary;
            assert_eq!(got.passed, base.passed, "workers={workers}");
            assert_eq!(got.failed, base.failed, "workers={workers}");
            assert_eq!(got.failures, base.failures, "workers={workers}");
            assert_eq!(got.skip_reasons, base.skip_reasons, "workers={workers}");
        }
        let mut conn = EngineConnector::new(EngineDialect::Sqlite, ClientKind::Connector);
        let seq = build(1).run_on(&mut conn);
        assert_eq!(seq.passed, base.passed);
        assert_eq!(seq.failures, base.failures);
    }

    #[test]
    fn files_source_runs_bare() {
        use squality_formats::{parse_slt, SltFlavor};
        let files = vec![parse_slt("probe.test", "statement ok\nSELECT 1\n", SltFlavor::Classic)];
        let events = JsonlObserver::new();
        let run = Harness::builder()
            .files(SuiteKind::Slt, &files)
            .host(EngineDialect::Mysql)
            .label("probe")
            .observer(&events)
            .build()
            .unwrap()
            .run();
        assert_eq!(run.summary.passed, 1);
        let log = events.log();
        assert!(log.contains("\"label\":\"probe\""), "{log}");
        assert!(log.contains("\"engine\":\"mysql\""), "{log}");
        assert!(log.contains("\"outcome\":\"pass\""), "{log}");
    }

    #[test]
    fn unreachable_backend_crashes_every_file_inside_one_suite_bracket() {
        let gs = generate_suite_scaled(SuiteKind::Slt, 3, 0.02);
        let files = gs.files.len();
        assert!(files >= 2, "need several files across the workers");
        let events = JsonlObserver::new();
        let run = Harness::builder()
            .suite(&gs)
            .backend(BackendSpec::Subprocess {
                bin: Some("/nonexistent/squality-backend-worker".into()),
                deadline: std::time::Duration::from_secs(5),
                max_restarts: 1,
            })
            .workers(2)
            .observer(&events)
            .build()
            .unwrap()
            .run();
        // Every file becomes a connect-failure crash, not a harness abort.
        assert_eq!(run.summary.crashes.len(), files);
        assert_eq!(run.summary.passed, 0);
        let log = events.log();
        let lines: Vec<&str> = log.lines().collect();
        let count = |event: &str| lines.iter().filter(|l| l.contains(event)).count();
        assert_eq!(count("\"event\":\"suite_started\""), 1, "{log}");
        assert_eq!(count("\"event\":\"suite_finished\""), 1, "{log}");
        assert_eq!(count("\"event\":\"file_started\""), files, "{log}");
        assert!(lines[0].contains("suite_started"), "{log}");
        let last = lines.last().unwrap();
        assert!(last.contains("suite_finished"), "{log}");
        assert!(last.contains(&format!("\"crashes\":{files}")), "{last}");
    }

    #[test]
    fn translated_harness_counts_rules() {
        let gs = generate_suite_scaled(SuiteKind::PgRegress, 5, 0.08);
        let verbatim =
            Harness::builder().suite(&gs).host(EngineDialect::Sqlite).build().unwrap().run();
        let translated = Harness::builder()
            .suite(&gs)
            .host(EngineDialect::Sqlite)
            .translate(true)
            .build()
            .unwrap()
            .run();
        assert!(translated.summary.syntax_failures() < verbatim.summary.syntax_failures());
        assert!(translated.summary.translation.applied_total() > 0);
    }
}
