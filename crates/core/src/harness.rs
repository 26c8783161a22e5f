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
    emit_suite_finished, replay_file_events, ConnectorError, ConnectorFactory, ConnectorInfo,
    EngineConnector, EngineConnectorFactory, FanoutObserver, NumericMode, Provisionable, RunEvent,
    RunObserver, Runner, RunnerOptions, TranslationCounts, TranslationMode,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// What a harness executes: a generated donor suite (with its recorded
/// environment) or a bare slice of parsed test files.
#[derive(Clone, Copy)]
enum SuiteSource<'a> {
    Generated(&'a GeneratedSuite),
    Files { kind: SuiteKind, files: &'a [TestFile] },
}

impl<'a> SuiteSource<'a> {
    fn kind(&self) -> SuiteKind {
        match self {
            SuiteSource::Generated(gs) => gs.suite,
            SuiteSource::Files { kind, .. } => *kind,
        }
    }

    fn files(self) -> &'a [TestFile] {
        match self {
            SuiteSource::Generated(gs) => &gs.files,
            SuiteSource::Files { files, .. } => files,
        }
    }

    /// The environment a run provisions from when none is set explicitly.
    fn recorded_environment(self) -> Option<&'a DonorEnvironment> {
        match self {
            SuiteSource::Generated(gs) => Some(&gs.environment),
            SuiteSource::Files { .. } => None,
        }
    }

    /// The provision level a run uses when none is set explicitly.
    fn default_provision(self) -> Provision {
        match self {
            SuiteSource::Generated(_) => Provision::CrossHost,
            SuiteSource::Files { .. } => Provision::Bare,
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
/// required. See [`Harness::builder`] for a complete example. A clone is
/// an independent preset: the stability arm narrows a clone to one file
/// per probe and flips a single knob.
#[derive(Clone)]
pub struct HarnessBuilder<'a> {
    source: Option<SuiteSource<'a>>,
    environment: Option<&'a DonorEnvironment>,
    host: Option<EngineDialect>,
    client: ClientKind,
    provision: Option<Provision>,
    pub(crate) faults: FaultProfile,
    translate: bool,
    workers: usize,
    pub(crate) backend: BackendSpec,
    pub(crate) exec_strategy: ExecStrategy,
    pub(crate) plan_cache: Option<Arc<PlanCache>>,
    result_cache: Option<Arc<ResultCache>>,
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
            faults: FaultProfile::default(),
            translate: false,
            workers: 1,
            backend: BackendSpec::InProcess,
            exec_strategy: ExecStrategy::default(),
            plan_cache: None,
            result_cache: None,
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

    /// Execution strategy of the host engine (the stability arm's
    /// naive-vs-hash perturbation axis). Default: [`ExecStrategy::Hash`].
    /// Participates in the result-cache cell key, so strategies never
    /// share cached results.
    pub fn exec_strategy(mut self, strategy: ExecStrategy) -> Self {
        self.exec_strategy = strategy;
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

    /// This preset narrowed to the one file of its suite named `name`,
    /// without observers or result cache: a live re-run of that file in
    /// the configuration the preset runs every file in. The environment
    /// and provision level a generated suite implies are kept. `None`
    /// without a suite, or when no file has that name.
    pub(crate) fn for_file(&self, name: &str) -> Option<HarnessBuilder<'a>> {
        let source = self.source?;
        let file = source.files().iter().find(|f| f.name == name)?;
        Some(HarnessBuilder {
            source: Some(SuiteSource::Files {
                kind: source.kind(),
                files: std::slice::from_ref(file),
            }),
            environment: self.environment.or(source.recorded_environment()),
            provision: Some(self.provision.unwrap_or(source.default_provision())),
            result_cache: None,
            observers: Vec::new(),
            ..self.clone()
        })
    }

    /// Resolve defaults and produce the [`Harness`].
    pub fn build(self) -> Result<Harness<'a>, HarnessError> {
        let source = self.source.ok_or(HarnessError::MissingSuite)?;
        let host = self.host.unwrap_or_else(|| donor_dialect(source.kind()));
        let provision = self.provision.unwrap_or(source.default_provision());
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
            faults: self.faults,
            translate: self.translate,
            workers: self.workers,
            backend: self.backend,
            exec_strategy: self.exec_strategy,
            plan_cache: self.plan_cache,
            result_cache: self.result_cache,
            observers: self.observers,
            label,
        })
    }
}

/// A fully-configured suite × host execution. Build one with
/// [`Harness::builder`], then call [`Harness::run`]: every file runs
/// through the worker pool on the configured backend, at any worker count.
pub struct Harness<'a> {
    source: SuiteSource<'a>,
    environment: Option<&'a DonorEnvironment>,
    host: EngineDialect,
    client: ClientKind,
    provision: Provision,
    faults: FaultProfile,
    translate: bool,
    workers: usize,
    backend: BackendSpec,
    exec_strategy: ExecStrategy,
    plan_cache: Option<Arc<PlanCache>>,
    result_cache: Option<Arc<ResultCache>>,
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

/// A connection parked between the runs of one caller, so the next run
/// resets and reuses it instead of opening its own: a triage cluster's
/// probes share one in-process connection or one worker process. Every
/// run through a slot must come from one preset. Each run reads every
/// connection's coverage, the parked one's included, so the union of a
/// slot's runs' [`Run::coverage`] is everything they reached.
#[derive(Default)]
pub(crate) struct Slot {
    pub(crate) in_process: Option<EngineConnector>,
    /// The factory stays with its worker, so a run through the slot reports
    /// the fault counters of every run since the slot was fresh.
    pub(crate) subprocess: Option<(SubprocessConnectorFactory, Option<SubprocessConnector>)>,
}

/// `factory`, except that the first connection it hands out is the one a
/// [`Slot`] parked, when there is one. The scheduler resets every
/// connection before each file, so a parked one starts each file as a
/// fresh one would.
struct Lend<'f, F: ConnectorFactory> {
    factory: &'f F,
    parked: Mutex<Option<F::Conn>>,
}

impl<F: ConnectorFactory> ConnectorFactory for Lend<'_, F> {
    type Conn = F::Conn;

    fn connect(&self) -> Result<F::Conn, ConnectorError> {
        match self.parked.lock().expect("parked connection poisoned").take() {
            Some(conn) => Ok(conn),
            None => self.factory.connect(),
        }
    }

    fn info(&self) -> ConnectorInfo {
        self.factory.info()
    }
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
        translation_mode(self.source.kind(), self.host, self.translate)
    }

    /// The donor environment this run provisions from: an explicit
    /// [`HarnessBuilder::environment`] wins; a generated suite falls back
    /// to its recorded environment; bare files have none.
    fn resolved_environment(&self) -> Option<&DonorEnvironment> {
        self.environment.or(self.source.recorded_environment())
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
            numeric: NumericMode::Exact,
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
            numeric: NumericMode::Exact,
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
        self.run_in(&mut Slot::default())
    }

    /// [`Harness::run`], reusing the connection `slot` parked (if any) and
    /// parking one of this run's connections in it afterwards.
    pub(crate) fn run_in(&self, slot: &mut Slot) -> Run {
        if matches!(self.backend, BackendSpec::Subprocess { .. }) {
            // Subprocess runs are never cached: their point is observing
            // live process faults. Each worker process reports the
            // coverage it reached; a worker that died contributes only
            // what its restarted successor reached.
            let (factory, mut parked) =
                slot.subprocess.take().unwrap_or_else(|| (self.subprocess_factory(), None));
            let mut run = self.execute(&factory, &mut parked, None, SubprocessConnector::coverage);
            run.backend_faults = Some(factory.stats().snapshot());
            slot.subprocess = Some((factory, parked));
            run
        } else {
            let capture = self.result_cache.as_deref().map(|cache| Capture {
                cache,
                begin: EngineConnector::begin_coverage_capture,
                end: EngineConnector::end_coverage_capture,
            });
            self.execute(&self.factory(), &mut slot.in_process, capture, |conn| {
                std::mem::take(conn.engine_mut().coverage_mut())
            })
        }
    }

    /// The out-of-process connector factory. The scheduler, runner, and
    /// event paths are the same as in-process — only the factory differs:
    /// a worker process dying mid-file surfaces as transport faults in
    /// the results, and the suite keeps going. Each worker hosts the
    /// harness's exec strategy and, when the harness shares a plan cache,
    /// a plan cache of its own; it inherits this process's environment,
    /// fault-injection hooks included.
    fn subprocess_factory(&self) -> SubprocessConnectorFactory {
        let BackendSpec::Subprocess { bin, deadline, max_restarts } = &self.backend else {
            unreachable!("subprocess_factory is only called for subprocess backends");
        };
        let bin = bin
            .clone()
            .or_else(discover_worker_bin)
            // Last resort: let the OS search PATH at spawn time.
            .unwrap_or_else(|| std::path::PathBuf::from("squality-backend-worker"));
        SubprocessConnectorFactory::new(bin, self.host, self.client)
            .with_faults(self.faults)
            .exec_strategy(self.exec_strategy)
            .plan_cache(self.plan_cache.is_some())
            .deadline(*deadline)
            .max_restarts(*max_restarts)
    }

    /// The one execution path behind [`Harness::run`]: emit the suite
    /// events, replay cache hits, run the stale files through
    /// [`Runner::run_files`], and stitch everything back in input order.
    ///
    /// `parked` is lent to the run as the first connection it would
    /// otherwise open, and afterwards holds one of the run's connections;
    /// the others retire.
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
    /// `coverage_of` empties a connection's coverage recorder. A closed
    /// window unions back into its connection's recorder, so the union of
    /// hit windows and connection recorders equals an uncached run's
    /// coverage.
    fn execute<F>(
        &self,
        factory: &F,
        parked: &mut Option<F::Conn>,
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
        let lend = Lend { factory, parked: Mutex::new(parked.take()) };
        let execution = self.runner().run_files(
            &lend,
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
        // (most runs use one or two connections).
        let mut connectors = execution.connectors;
        let mut recorders = connectors.iter_mut().map(coverage_of);
        let mut coverage = recorders.next().unwrap_or_default();
        for recorder in recorders {
            coverage.union_with(&recorder);
        }
        let unused = lend.parked.into_inner().expect("parked connection poisoned");
        *parked = unused.or_else(|| connectors.into_iter().next());
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
}

/// How a run translates a `kind` suite's statements on `host`: verbatim,
/// or from the donor's text dialect to the host's. Shared with the bug
/// store, which records it in each entry.
pub(crate) fn translation_mode(
    kind: SuiteKind,
    host: EngineDialect,
    translate: bool,
) -> TranslationMode {
    if translate {
        TranslationMode::Translated {
            from: donor_dialect(kind).text_dialect(),
            to: host.text_dialect(),
        }
    } else {
        TranslationMode::Verbatim
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
    fn run_matches_any_worker_count_and_a_reused_slot() {
        let gs = generate_suite_scaled(SuiteKind::Duckdb, 5, 0.06);
        let build = |workers: usize| {
            Harness::builder()
                .suite(&gs)
                .host(EngineDialect::Sqlite)
                .workers(workers)
                .build()
                .unwrap()
        };
        let base = build(1).run();
        for workers in [2, 4] {
            let got = build(workers).run().summary;
            assert_eq!(got.passed, base.summary.passed, "workers={workers}");
            assert_eq!(got.failed, base.summary.failed, "workers={workers}");
            assert_eq!(got.failures, base.summary.failures, "workers={workers}");
            assert_eq!(got.skip_reasons, base.summary.skip_reasons, "workers={workers}");
        }
        // Runs through one slot reuse its connection and answer as fresh
        // runs do; together they reach what the fresh run reached.
        let mut slot = Slot::default();
        let mut coverage = Coverage::new();
        for workers in [1, 2, 1] {
            let got = build(workers).run_in(&mut slot);
            assert_eq!(got.summary.failures, base.summary.failures, "workers={workers}");
            assert_eq!(got.summary.skip_reasons, base.summary.skip_reasons, "workers={workers}");
            assert!(slot.in_process.is_some(), "a connection is parked");
            coverage.union_with(&got.coverage);
        }
        assert_eq!(coverage, base.coverage);
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
    fn for_file_reruns_one_file_as_the_preset_runs_it() {
        let gs = generate_suite_scaled(SuiteKind::PgRegress, 5, 0.06);
        let events = JsonlObserver::new();
        let preset = Harness::builder()
            .suite(&gs)
            .host(EngineDialect::Sqlite)
            .exec_strategy(ExecStrategy::Naive)
            .plan_cache(PlanCache::shared())
            .observer(&events);
        let full = preset.clone().build().unwrap().run().summary;
        let log = events.log();
        let case = full.failures.first().expect("a cross-host cell fails records");

        let narrowed = preset.for_file(&case.file).expect("the file is in the suite");
        assert_eq!(narrowed.exec_strategy, ExecStrategy::Naive);
        assert!(narrowed.plan_cache.is_some());
        // The suite's environment and cross-host provision carry over, so
        // the file fails exactly as it did inside the suite.
        let again = narrowed.build().unwrap().run().summary;
        let expected: Vec<_> =
            full.failures.iter().filter(|f| f.file == case.file).cloned().collect();
        assert_eq!(again.failures, expected);
        assert_eq!(events.log(), log, "the narrowed run must not reach the preset's observers");
        assert!(preset.for_file("no-such-file.sql").is_none());
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
