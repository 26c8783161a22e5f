//! Parallel suite execution: shard test files across a worker pool.
//!
//! The paper's runner executes suites statement-by-statement over one
//! connection; the follow-up work on scaling automated DBMS testing shows
//! the same loop fans out naturally at *file* granularity, because donor
//! suites assume independent files (each starts from a fresh database).
//! [`Runner::run_suite`] exploits exactly that: a [`ConnectorFactory`]
//! mints one connection per worker, workers pull files from a shared
//! queue, and results are stitched back **in input order**, so the output
//! is byte-identical whatever the worker count — parallelism is purely a
//! throughput knob, never an observability one.
//!
//! The calling thread is one of the workers, so a run of `n` workers
//! spawns `n - 1` threads. Each spawned thread allocates from a glibc
//! malloc arena, and one spawned while the previous phase's threads are
//! still exiting can get a fresh arena. Fewer spawns per phase keep a long
//! run from accumulating arenas, each of which retains its own freed
//! memory.
//!
//! Files that need cross-file state (`fresh_database: false` carry-over)
//! are inherently sequential and must keep using [`Runner::run_file`];
//! the scheduler resets every connection before every file.

use crate::connector::{Connector, ConnectorError, ConnectorFactory};
use crate::events::{RunEvent, RunObserver};
use crate::outcome::{FileResult, Outcome, RecordResult};
use crate::runner::{Runner, RunnerOptions};
use squality_formats::TestFile;
use squality_sqlast::translate::{TranslationCounts, TranslationStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Everything a parallel suite run produces: per-file results in input
/// order plus the retired worker connections (whose engines carry
/// accumulated coverage and other run-scoped state).
pub struct SuiteExecution<C> {
    /// One result per input file, ordered by input index.
    pub results: Vec<FileResult>,
    /// The retired worker connections — one per worker that claimed at
    /// least one file (workers connect lazily, so a worker that never got
    /// a file contributes nothing here).
    pub connectors: Vec<C>,
}

/// The result a file gets when no connection could be opened for it: a
/// single synthetic crash record, so a down backend surfaces as a
/// counted, classified crash in every table and event log instead of a
/// harness abort. The worker retries [`ConnectorFactory::connect`] for
/// its next file — a transient outage fails only the files it covered.
fn connect_failure_result(file: &str, error: &ConnectorError) -> FileResult {
    let message = format!("connect failed: {error}");
    FileResult {
        file: file.to_string(),
        results: vec![RecordResult { line: 0, sql: None, outcome: Outcome::Crash(message) }],
        crashed: true,
        hung: false,
    }
}

/// One file's complete execution record from
/// [`Runner::run_files_recorded`]: everything the study result cache
/// needs to persist so the file can be skipped — and its effects replayed
/// — on the next run.
pub struct FileRunRecord {
    /// The caller's index for this file (its position in the *original*
    /// suite, not in the possibly-partial slice that ran).
    pub index: usize,
    /// The per-record outcomes.
    pub result: FileResult,
    /// Translation counter deltas attributable to this file alone.
    pub translation: TranslationCounts,
}

impl Runner {
    /// Execute `files` on `workers` parallel connections minted by
    /// `factory`. `workers == 0` uses the machine's available parallelism.
    ///
    /// Results are ordered by input index and byte-identical for every
    /// worker count. Each file runs on a freshly-reset connection.
    pub fn run_suite<F: ConnectorFactory>(
        &self,
        factory: &F,
        files: &[TestFile],
        workers: usize,
    ) -> Vec<FileResult> {
        self.run_suite_with(factory, files, workers, |_| {}).results
    }

    /// [`Runner::run_suite`] with a per-file `prepare` hook, invoked on the
    /// freshly-reset connection before each file — the seam for environment
    /// provisioning (data files, extensions, set-up SQL).
    pub fn run_suite_with<F: ConnectorFactory>(
        &self,
        factory: &F,
        files: &[TestFile],
        workers: usize,
        prepare: impl Fn(&mut F::Conn) + Sync,
    ) -> SuiteExecution<F::Conn> {
        self.run_suite_inner(factory, files, workers, prepare, None)
    }

    /// [`Runner::run_suite_with`] emitting the typed event stream to
    /// `observer`: one `SuiteStarted` (carrying `label` and the factory's
    /// connection metadata from [`Connector::info`]), per-file
    /// `FileStarted`/`RecordFinished`/`FileFinished` events as workers
    /// execute, and a final `SuiteFinished` with aggregate counts.
    ///
    /// The event *multiset* is identical at every worker count (timings
    /// aside); see [`crate::events`] for the full contract. The metadata
    /// comes from [`ConnectorFactory::info`] before the workers start.
    pub fn run_suite_observed<F: ConnectorFactory>(
        &self,
        factory: &F,
        files: &[TestFile],
        workers: usize,
        label: &str,
        prepare: impl Fn(&mut F::Conn) + Sync,
        observer: &dyn RunObserver,
    ) -> SuiteExecution<F::Conn> {
        self.run_suite_inner(factory, files, workers, prepare, Some((label, observer)))
    }

    /// Execute a *subset* of a suite's files — `(original_index, file)`
    /// pairs — recording per-file translation counter deltas alongside the
    /// results. This is the cache-miss path of the incremental study
    /// cache: only the stale files run, their events carry the original
    /// indices (so an observer's log interleaves correctly with replayed
    /// cache hits), and each record is self-contained enough to persist.
    ///
    /// Unlike [`Runner::run_suite_observed`] this emits **no suite-level
    /// events** — the caller owns `SuiteStarted`/`SuiteFinished`, because
    /// only it knows the full suite. `prepare` runs on the freshly-reset
    /// connection before each file; `epilogue` runs right after the file,
    /// with its original index (the harness closes its per-file coverage
    /// capture window there). Records are returned in slice order; each
    /// file's translation counters are measured with a private counter set
    /// so the deltas are per-file exact, while the memoisation cache stays
    /// shared (it replays counter deltas on hit, so totals are unchanged).
    pub fn run_files_recorded<F: ConnectorFactory>(
        &self,
        factory: &F,
        files: &[(usize, &TestFile)],
        workers: usize,
        prepare: impl Fn(&mut F::Conn) + Sync,
        epilogue: impl Fn(&mut F::Conn, usize) + Sync,
        observer: Option<&dyn RunObserver>,
    ) -> Vec<FileRunRecord> {
        let workers = effective_workers(workers, files.len());
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<FileRunRecord>>> =
            files.iter().map(|_| Mutex::new(None)).collect();

        let work = || {
            let mut conn: Option<F::Conn> = None;
            loop {
                let slot = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(index, file)) = files.get(slot) else { break };
                let conn = match &mut conn {
                    Some(conn) => conn,
                    None => match factory.connect() {
                        Ok(fresh) => conn.insert(fresh),
                        Err(e) => {
                            let result = connect_failure_result(&file.name, &e);
                            if let Some(observer) = observer {
                                crate::events::replay_file_events(observer, index, &result);
                            }
                            *slots[slot].lock().expect("record slot poisoned") =
                                Some(FileRunRecord {
                                    index,
                                    result,
                                    translation: TranslationStats::new().counts(),
                                });
                            continue;
                        }
                    },
                };
                conn.reset();
                prepare(conn);
                // A private counter set per file isolates this
                // file's translation deltas; the shared memo cache
                // still deduplicates the parse/print work.
                let stats = std::sync::Arc::new(TranslationStats::new());
                let per_file = Runner {
                    options: RunnerOptions { fresh_database: false, ..self.options },
                    translation_stats: std::sync::Arc::clone(&stats),
                    translation_cache: std::sync::Arc::clone(&self.translation_cache),
                };
                let result = match observer {
                    Some(observer) => per_file.run_file_observed(conn, file, index, observer),
                    None => per_file.run_file(conn, file),
                };
                epilogue(conn, index);
                *slots[slot].lock().expect("record slot poisoned") =
                    Some(FileRunRecord { index, result, translation: stats.counts() });
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner().expect("record slot poisoned").expect("scheduler ran every file")
            })
            .collect()
    }

    fn run_suite_inner<F: ConnectorFactory>(
        &self,
        factory: &F,
        files: &[TestFile],
        workers: usize,
        prepare: impl Fn(&mut F::Conn) + Sync,
        observed: Option<(&str, &dyn RunObserver)>,
    ) -> SuiteExecution<F::Conn> {
        let started = std::time::Instant::now();
        if let Some((label, observer)) = observed {
            let info = factory.info();
            observer.on_event(&RunEvent::SuiteStarted {
                label,
                files: files.len(),
                connector: &info,
            });
        }
        let workers = effective_workers(workers, files.len());
        // The scheduler owns the per-file reset (reset → prepare → run), so
        // the inner runner must not reset again and wipe the preparation.
        // Translation counters and the memo cache are shared, not forked:
        // the whole suite run aggregates into this runner's stats and
        // translates each unique text once, whatever the worker count.
        let per_file = Runner {
            options: RunnerOptions { fresh_database: false, ..self.options },
            translation_stats: std::sync::Arc::clone(&self.translation_stats),
            translation_cache: std::sync::Arc::clone(&self.translation_cache),
        };
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<FileResult>>> =
            files.iter().map(|_| Mutex::new(None)).collect();
        let retired = Mutex::new(Vec::with_capacity(workers));

        let work = || {
            // Connect lazily on the first claimed file: a worker
            // that loses the queue race entirely never pays engine
            // construction and retires no connection.
            let mut conn: Option<F::Conn> = None;
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(file) = files.get(i) else { break };
                let conn = match &mut conn {
                    Some(conn) => conn,
                    None => match factory.connect() {
                        Ok(fresh) => conn.insert(fresh),
                        Err(e) => {
                            let result = connect_failure_result(&file.name, &e);
                            if let Some((_, observer)) = observed {
                                crate::events::replay_file_events(observer, i, &result);
                            }
                            *slots[i].lock().expect("result slot poisoned") = Some(result);
                            continue;
                        }
                    },
                };
                conn.reset();
                prepare(conn);
                let result = match observed {
                    Some((_, observer)) => per_file.run_file_observed(conn, file, i, observer),
                    None => per_file.run_file(conn, file),
                };
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            }
            if let Some(conn) = conn {
                retired.lock().expect("retired list poisoned").push(conn);
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });

        let execution = SuiteExecution {
            results: slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("result slot poisoned")
                        .expect("scheduler ran every file")
                })
                .collect(),
            connectors: retired.into_inner().expect("retired list poisoned"),
        };
        if let Some((label, observer)) = observed {
            crate::events::emit_suite_finished(
                observer,
                label,
                &execution.results,
                started.elapsed().as_nanos() as u64,
            );
        }
        execution
    }
}

/// Clamp a requested worker count: `0` means "all cores" (the machine's
/// available parallelism, falling back to 1 when it cannot be queried), and
/// there is never a point in more workers than files — the count is clamped
/// to `max(1, n_files)`, so an empty suite still gets one (idle) worker and
/// `workers > files` never spawns threads that could not claim a file.
fn effective_workers(requested: usize, n_files: usize) -> usize {
    let requested = if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    };
    requested.clamp(1, n_files.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::{EngineConnectorFactory, FnFactory};
    use crate::EngineConnector;
    use squality_engine::{ClientKind, EngineDialect, PlanCache};
    use squality_formats::{parse_slt, SltFlavor};

    /// A small synthetic suite with loops, passes, and skips. The first
    /// loop substitutes its variable (distinct SQL each iteration); the
    /// second replays one constant statement many times — the loop-heavy
    /// shape that makes a parse cache pay off.
    fn suite(n_files: usize) -> Vec<TestFile> {
        (0..n_files)
            .map(|i| {
                let slt = format!(
                    "statement ok\n\
                     CREATE TABLE t{i}(a INTEGER)\n\n\
                     loop v 0 {vreps}\n\n\
                     statement ok\n\
                     INSERT INTO t{i} VALUES (${{v}})\n\n\
                     endloop\n\n\
                     loop v 0 25\n\n\
                     statement ok\n\
                     INSERT INTO t{i} VALUES (7)\n\n\
                     endloop\n\n\
                     query I nosort\n\
                     SELECT count(*) FROM t{i}\n\
                     ----\n\
                     {total}\n\n\
                     skipif sqlite\n\
                     statement ok\n\
                     SELECT 1\n",
                    vreps = 3 + i % 5,
                    total = 25 + 3 + i % 5,
                );
                parse_slt(&format!("file{i}.test"), &slt, SltFlavor::Duckdb)
            })
            .collect()
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let files = suite(13);
        let factory = EngineConnectorFactory::new(EngineDialect::Sqlite, ClientKind::Cli);
        let runner = Runner::default();
        let baseline = runner.run_suite(&factory, &files, 1);
        for workers in [2, 3, 8] {
            let got = runner.run_suite(&factory, &files, workers);
            assert_eq!(got, baseline, "worker count {workers} changed results");
        }
    }

    #[test]
    fn plan_cache_does_not_change_results_and_hits() {
        let files = suite(6);
        let runner = Runner::default();
        let plain = EngineConnectorFactory::new(EngineDialect::Duckdb, ClientKind::Cli);
        let cache = PlanCache::shared();
        let cached = EngineConnectorFactory::new(EngineDialect::Duckdb, ClientKind::Cli)
            .plan_cache(std::sync::Arc::clone(&cache));
        let a = runner.run_suite(&plain, &files, 4);
        let b = runner.run_suite(&cached, &files, 4);
        assert_eq!(a, b);
        let stats = cache.stats();
        // The loop bodies replay the same INSERT text: hits must dominate.
        assert!(stats.hits > stats.misses, "{stats:?}");
    }

    #[test]
    fn prepare_hook_runs_before_every_file() {
        let files = suite(5);
        let factory = EngineConnectorFactory::new(EngineDialect::Postgres, ClientKind::Cli);
        let runner = Runner::default();
        let bare = runner.run_suite(&factory, &files, 2);
        // Provision a marker table; every file must then see it.
        let exec = runner.run_suite_with(&factory, &files, 2, |conn: &mut EngineConnector| {
            conn.execute("CREATE TABLE provisioned(x INTEGER)").unwrap();
        });
        assert_eq!(exec.results.len(), bare.len());
        // Workers connect lazily, so every retired connector claimed at
        // least one file and carries accumulated coverage.
        assert!(!exec.connectors.is_empty());
        assert!(exec.connectors.iter().all(|conn| conn.engine().coverage().line_ratio() > 0.0));
        let probe = parse_slt(
            "probe.test",
            "statement ok\nSELECT * FROM provisioned\n",
            SltFlavor::Classic,
        );
        let with_env = runner.run_suite_with(&factory, std::slice::from_ref(&probe), 1, |conn| {
            conn.execute("CREATE TABLE provisioned(x INTEGER)").unwrap();
        });
        assert_eq!(with_env.results[0].passed(), 1);
        let without_env = runner.run_suite(&factory, &[probe], 1);
        assert_eq!(without_env[0].failed(), 1);
    }

    #[test]
    fn connect_failure_becomes_crashed_results_not_a_panic() {
        use crate::connector::{ConnectorError, TransportError, TransportErrorKind};
        use crate::events::CollectingObserver;
        struct DownFactory;
        impl ConnectorFactory for DownFactory {
            type Conn = EngineConnector;
            fn connect(&self) -> Result<EngineConnector, ConnectorError> {
                Err(TransportError::new(TransportErrorKind::Connect, "worker binary not found")
                    .into())
            }
            fn info(&self) -> crate::events::ConnectorInfo {
                crate::events::ConnectorInfo::named("down")
            }
        }
        let files = suite(4);
        let runner = Runner::default();
        let obs = CollectingObserver::new();
        let exec = runner.run_suite_observed(&DownFactory, &files, 2, "down", |_| {}, &obs);
        assert_eq!(exec.results.len(), 4);
        assert!(exec.connectors.is_empty());
        for (i, r) in exec.results.iter().enumerate() {
            assert!(r.crashed, "file {i} not marked crashed");
            assert_eq!(r.results.len(), 1);
            let Outcome::Crash(m) = &r.results[0].outcome else { panic!("{:?}", r.results) };
            assert!(m.contains("connect failed"), "{m}");
        }
        // The event stream still forms complete per-file blocks.
        let lines = obs.lines();
        assert_eq!(lines.iter().filter(|l| l.contains("\"event\":\"file_started\"")).count(), 4);
        assert_eq!(lines.iter().filter(|l| l.contains("\"event\":\"file_finished\"")).count(), 4);
        assert!(lines.last().unwrap().contains("\"crashes\":4"), "{:?}", lines.last());
    }

    #[test]
    fn closure_factories_work() {
        let files = suite(4);
        let factory =
            FnFactory(|| EngineConnector::new(EngineDialect::Mysql, ClientKind::Connector));
        let results = Runner::default().run_suite(&factory, &files, 3);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.failed() == 0), "{results:?}");
    }

    #[test]
    fn zero_workers_means_auto_and_empty_suites_are_fine() {
        let factory = EngineConnectorFactory::new(EngineDialect::Sqlite, ClientKind::Cli);
        let results = Runner::default().run_suite(&factory, &[], 0);
        assert!(results.is_empty());
        let files = suite(2);
        let results = Runner::default().run_suite(&factory, &files, 0);
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn effective_workers_clamps() {
        assert_eq!(effective_workers(4, 2), 2);
        assert_eq!(effective_workers(1, 100), 1);
        assert_eq!(effective_workers(8, 0), 1);
        assert!(effective_workers(0, 64) >= 1);
    }

    #[test]
    fn effective_workers_edge_cases() {
        // 0 files: every request resolves to exactly one (idle) worker,
        // including the "all cores" request.
        assert_eq!(effective_workers(0, 0), 1);
        assert_eq!(effective_workers(1, 0), 1);
        assert_eq!(effective_workers(usize::MAX, 0), 1);
        // workers > files: clamped to the file count.
        assert_eq!(effective_workers(100, 3), 3);
        assert_eq!(effective_workers(2, 1), 1);
        // "all cores" never exceeds the file count either.
        let auto = effective_workers(0, 2);
        assert!((1..=2).contains(&auto), "auto workers {auto} not clamped to 2 files");
    }

    #[test]
    fn observed_run_emits_deterministic_event_multiset() {
        use crate::events::CollectingObserver;
        let files = suite(7);
        let factory = EngineConnectorFactory::new(EngineDialect::Sqlite, ClientKind::Cli);
        let runner = Runner::default();
        let collect = |workers: usize| {
            let obs = CollectingObserver::new();
            let exec = runner.run_suite_observed(&factory, &files, workers, "det", |_| {}, &obs);
            (exec.results, obs.lines())
        };
        let (base_results, base_lines) = collect(1);
        // Event bookkeeping against the stitched results.
        let records: usize = base_results.iter().map(FileResult::total).sum();
        assert_eq!(
            base_lines.iter().filter(|l| l.contains("\"event\":\"record\"")).count(),
            records
        );
        assert_eq!(
            base_lines.iter().filter(|l| l.contains("\"event\":\"file_started\"")).count(),
            files.len()
        );
        assert!(base_lines.first().unwrap().contains("suite_started"));
        assert!(base_lines.last().unwrap().contains("suite_finished"));
        assert!(base_lines.last().unwrap().contains("\"label\":\"det\""));
        // The multiset contract: identical events at any worker count,
        // whatever the interleaving.
        let mut base_sorted = base_lines.clone();
        base_sorted.sort();
        for workers in [2, 8] {
            let (results, lines) = collect(workers);
            assert_eq!(results, base_results, "workers={workers}");
            let mut sorted = lines;
            sorted.sort();
            assert_eq!(sorted, base_sorted, "workers={workers}");
        }
    }

    #[test]
    fn translated_same_dialect_pair_is_byte_identical_to_verbatim() {
        use crate::runner::TranslationMode;
        use squality_sqltext::TextDialect;
        // The satellite invariant: Translated on a same-dialect pair must
        // equal Verbatim exactly, across the scheduler at 1 and 4 workers.
        let files = suite(9);
        let factory = EngineConnectorFactory::new(EngineDialect::Duckdb, ClientKind::Cli);
        let verbatim = Runner::default().run_suite(&factory, &files, 1);
        let translated = Runner::new(RunnerOptions {
            translation: TranslationMode::Translated {
                from: TextDialect::Duckdb,
                to: TextDialect::Duckdb,
            },
            ..RunnerOptions::default()
        });
        for workers in [1, 4] {
            let got = translated.run_suite(&factory, &files, workers);
            assert_eq!(got, verbatim, "workers={workers}");
        }
        // Identity means no statement was rewritten at all.
        let counts = translated.translation_stats.counts();
        assert_eq!(counts.translated, 0);
        assert_eq!(counts.applied_total(), 0);
    }
}
