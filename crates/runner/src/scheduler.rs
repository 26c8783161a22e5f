//! Parallel execution: one worker pool, and suite files sharded over it.
//!
//! The paper's runner executes suites statement-by-statement over one
//! connection; the follow-up work on scaling automated DBMS testing shows
//! the same loop fans out naturally at *file* granularity, because donor
//! suites assume independent files (each starts from a fresh database).
//!
//! [`pool`] is the crate's only worker pool: workers claim the next job
//! index from a shared counter, and outputs come back **in index order**,
//! so whatever runs on it is byte-identical at any worker count —
//! parallelism is purely a throughput knob, never an observability one.
//! [`Runner::run_files`] runs suite files on it, one lazily-opened
//! [`ConnectorFactory`] connection per worker; the triage reducer and the
//! stability arm run their clusters and targets on it too.
//!
//! The calling thread is one of the workers, so a pool of `n` workers
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
use crate::events::RunObserver;
use crate::outcome::{FileResult, Outcome, RecordResult};
use crate::runner::{Runner, RunnerOptions};
use squality_formats::TestFile;
use squality_sqlast::translate::{TranslationCounts, TranslationStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Run `job` for every index in `0..jobs` on `workers` threads and return
/// the outputs in index order, with every worker's final state.
///
/// `workers == 0` means the machine's available parallelism, and the count
/// is clamped to `max(1, jobs)`. Each worker starts from `S::default()` and
/// threads it through every job it claims — the seam for per-worker
/// resources such as a connection. The calling thread is one of the
/// workers, so a 1-worker pool spawns nothing. A panicking job propagates
/// once every worker has stopped.
pub fn pool<S, T, J>(workers: usize, jobs: usize, job: J) -> (Vec<T>, Vec<S>)
where
    S: Default + Send,
    T: Send,
    J: Fn(&mut S, usize) -> T + Sync,
{
    let workers = effective_workers(workers, jobs);
    let next = AtomicUsize::new(0);
    let work = || {
        let mut state = S::default();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                return (state, done);
            }
            done.push((i, job(&mut state, i)));
        }
    };
    let finished: Vec<_> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let own = work();
        std::iter::once(own)
            .chain(spawned.into_iter().map(|handle| {
                handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }))
            .collect()
    });

    let mut outputs: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    let mut states = Vec::with_capacity(workers);
    for (state, done) in finished {
        for (i, output) in done {
            outputs[i] = Some(output);
        }
        states.push(state);
    }
    let outputs = outputs.into_iter().map(|o| o.expect("pool ran every job")).collect();
    (outputs, states)
}

/// Clamp a requested worker count: `0` means "all cores" (the machine's
/// available parallelism, falling back to 1 when it cannot be queried), and
/// there is never a point in more workers than jobs — the count is clamped
/// to `max(1, jobs)`, so an empty pool still gets one (idle) worker and
/// `workers > jobs` never spawns threads that could not claim a job.
fn effective_workers(requested: usize, jobs: usize) -> usize {
    let requested = if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    };
    requested.clamp(1, jobs.max(1))
}

/// Everything a [`Runner::run_files`] call produces: one record per input
/// file, in input order, plus the retired worker connections (whose
/// engines carry accumulated coverage and other run-scoped state).
pub struct SuiteExecution<C> {
    /// One record per input file, in the order of the input slice.
    pub records: Vec<FileRunRecord>,
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

/// One file's complete execution record from [`Runner::run_files`]:
/// everything the study result cache needs to persist so the file can be
/// skipped — and its effects replayed — on the next run.
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
    /// Execute suite files — `(index, file)` pairs — on `workers` parallel
    /// connections minted by `factory` (`workers == 0` uses the machine's
    /// available parallelism). `index` is the file's position in its whole
    /// suite: events carry it, so a caller that runs only part of a suite
    /// (the result cache's stale files) interleaves correctly with event
    /// blocks it replays itself.
    ///
    /// Each worker connects lazily on its first file. Every file runs on a
    /// freshly-reset connection: `prepare` runs before it (the seam for
    /// environment provisioning: data files, extensions, set-up SQL) and
    /// `epilogue` right after it, with its index. Records come back in
    /// slice order and are byte-identical at every worker count.
    ///
    /// Each file's translation counters are measured with a private
    /// counter set, so the deltas are per-file exact, while the
    /// memoisation cache stays shared (it replays counter deltas on hit,
    /// so the sum over files equals one shared counter set's total).
    ///
    /// This emits **no suite-level events**: with an `observer`, each file
    /// streams `FileStarted`/`RecordFinished`/`FileFinished`, and the
    /// caller owns `SuiteStarted`/`SuiteFinished`, because only it knows
    /// the full suite. See [`crate::events`] for the determinism contract.
    pub fn run_files<F: ConnectorFactory>(
        &self,
        factory: &F,
        files: &[(usize, &TestFile)],
        workers: usize,
        prepare: impl Fn(&mut F::Conn) + Sync,
        epilogue: impl Fn(&mut F::Conn, usize) + Sync,
        observer: Option<&dyn RunObserver>,
    ) -> SuiteExecution<F::Conn> {
        let (records, connectors) =
            pool(workers, files.len(), |conn: &mut Option<F::Conn>, slot| {
                let (index, file) = files[slot];
                let conn = match conn {
                    Some(conn) => conn,
                    None => match factory.connect() {
                        Ok(fresh) => conn.insert(fresh),
                        Err(e) => {
                            let result = connect_failure_result(&file.name, &e);
                            if let Some(observer) = observer {
                                crate::events::replay_file_events(observer, index, &result);
                            }
                            let translation = TranslationCounts::default();
                            return FileRunRecord { index, result, translation };
                        }
                    },
                };
                conn.reset();
                prepare(conn);
                // The scheduler owns the per-file reset (reset → prepare →
                // run), so the inner runner must not reset again and wipe the
                // preparation.
                let stats = Arc::new(TranslationStats::new());
                let per_file = Runner {
                    options: RunnerOptions { fresh_database: false, ..self.options },
                    translation_stats: Arc::clone(&stats),
                    translation_cache: Arc::clone(&self.translation_cache),
                };
                let result = match observer {
                    Some(observer) => per_file.run_file_observed(conn, file, index, observer),
                    None => per_file.run_file(conn, file),
                };
                epilogue(conn, index);
                FileRunRecord { index, result, translation: stats.counts() }
            });
        SuiteExecution { records, connectors: connectors.into_iter().flatten().collect() }
    }
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

    /// Every file of a suite, indexed by its position.
    fn indexed(files: &[TestFile]) -> Vec<(usize, &TestFile)> {
        files.iter().enumerate().collect()
    }

    /// [`Runner::run_files`] over a whole suite with optional hooks,
    /// keeping each record's index.
    fn run_with<F: ConnectorFactory>(
        runner: &Runner,
        factory: &F,
        files: &[TestFile],
        workers: usize,
        prepare: impl Fn(&mut F::Conn) + Sync,
        observer: Option<&dyn RunObserver>,
    ) -> SuiteExecution<F::Conn> {
        let exec =
            runner.run_files(factory, &indexed(files), workers, prepare, |_, _| {}, observer);
        assert!(exec.records.iter().enumerate().all(|(i, r)| r.index == i));
        exec
    }

    /// The per-file results of a whole suite.
    fn run_suite<F: ConnectorFactory>(
        runner: &Runner,
        factory: &F,
        files: &[TestFile],
        workers: usize,
    ) -> Vec<FileResult> {
        let exec = run_with(runner, factory, files, workers, |_| {}, None);
        exec.records.into_iter().map(|r| r.result).collect()
    }

    #[test]
    fn pool_returns_outputs_in_index_order_and_one_state_per_worker() {
        for workers in [0, 1, 2, 8] {
            for jobs in [0, 1, 5] {
                let (outputs, states) = pool(workers, jobs, |claimed: &mut usize, i| {
                    *claimed += 1;
                    i * 10
                });
                let want: Vec<usize> = (0..jobs).map(|i| i * 10).collect();
                assert_eq!(outputs, want, "workers={workers} jobs={jobs}");
                assert_eq!(states.len(), effective_workers(workers, jobs), "workers={workers}");
                assert_eq!(states.iter().sum::<usize>(), jobs, "every job claimed once");
            }
        }
    }

    #[test]
    fn single_worker_pool_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let (threads, _) = pool(1, 4, |_: &mut (), _| std::thread::current().id());
        assert_eq!(threads, vec![caller; 4]);
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let files = suite(13);
        let factory = EngineConnectorFactory::new(EngineDialect::Sqlite, ClientKind::Cli);
        let runner = Runner::default();
        let baseline = run_suite(&runner, &factory, &files, 1);
        for workers in [2, 3, 8] {
            let got = run_suite(&runner, &factory, &files, workers);
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
            .plan_cache(Arc::clone(&cache));
        let a = run_suite(&runner, &plain, &files, 4);
        let b = run_suite(&runner, &cached, &files, 4);
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
        let bare = run_suite(&runner, &factory, &files, 2);
        // Provision a marker table; every file must then see it.
        let provision = |conn: &mut EngineConnector| {
            conn.execute("CREATE TABLE provisioned(x INTEGER)").unwrap();
        };
        let exec = run_with(&runner, &factory, &files, 2, provision, None);
        assert_eq!(exec.records.len(), bare.len());
        // Workers connect lazily, so every retired connector claimed at
        // least one file and carries accumulated coverage.
        assert!(!exec.connectors.is_empty());
        assert!(exec.connectors.iter().all(|conn| conn.engine().coverage().line_ratio() > 0.0));
        let probe = parse_slt(
            "probe.test",
            "statement ok\nSELECT * FROM provisioned\n",
            SltFlavor::Classic,
        );
        let probe = std::slice::from_ref(&probe);
        let with_env = run_with(&runner, &factory, probe, 1, provision, None);
        assert_eq!(with_env.records[0].result.passed(), 1);
        let without_env = run_suite(&runner, &factory, probe, 1);
        assert_eq!(without_env[0].failed(), 1);
    }

    #[test]
    fn epilogue_runs_after_every_file_with_its_suite_index() {
        let files = suite(6);
        let factory = EngineConnectorFactory::new(EngineDialect::Sqlite, ClientKind::Cli);
        // Run only the odd files: the epilogue sees their suite indices.
        let odd: Vec<(usize, &TestFile)> = indexed(&files).into_iter().skip(1).step_by(2).collect();
        let seen = std::sync::Mutex::new(Vec::new());
        let exec = Runner::default().run_files(
            &factory,
            &odd,
            2,
            |_| {},
            |conn: &mut EngineConnector, index| {
                // The file's table still exists: the epilogue precedes the
                // next file's reset.
                let probe = format!("SELECT count(*) FROM t{index}");
                assert!(conn.execute(&probe).is_ok(), "epilogue after reset for file {index}");
                seen.lock().unwrap().push(index);
            },
            None,
        );
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, [1, 3, 5]);
        assert_eq!(exec.records.iter().map(|r| r.index).collect::<Vec<_>>(), [1, 3, 5]);
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
        let obs = CollectingObserver::new();
        let exec = run_with(&Runner::default(), &DownFactory, &files, 2, |_| {}, Some(&obs));
        assert_eq!(exec.records.len(), 4);
        assert!(exec.connectors.is_empty());
        for (i, record) in exec.records.iter().enumerate() {
            let r = &record.result;
            assert!(r.crashed, "file {i} not marked crashed");
            assert_eq!(r.results.len(), 1);
            let Outcome::Crash(m) = &r.results[0].outcome else { panic!("{:?}", r.results) };
            assert!(m.contains("connect failed"), "{m}");
        }
        // The event stream still forms complete per-file blocks (the
        // suite-level events belong to the caller; the harness tests check
        // them).
        let lines = obs.lines();
        assert_eq!(lines.iter().filter(|l| l.contains("\"event\":\"file_started\"")).count(), 4);
        assert_eq!(lines.iter().filter(|l| l.contains("\"event\":\"file_finished\"")).count(), 4);
        assert!(!lines.iter().any(|l| l.contains("\"event\":\"suite_")), "{lines:?}");
    }

    #[test]
    fn closure_factories_work() {
        let files = suite(4);
        let factory =
            FnFactory(|| EngineConnector::new(EngineDialect::Mysql, ClientKind::Connector));
        let results = run_suite(&Runner::default(), &factory, &files, 3);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.failed() == 0), "{results:?}");
    }

    #[test]
    fn zero_workers_means_auto_and_empty_suites_are_fine() {
        let factory = EngineConnectorFactory::new(EngineDialect::Sqlite, ClientKind::Cli);
        let results = run_suite(&Runner::default(), &factory, &[], 0);
        assert!(results.is_empty());
        let files = suite(2);
        let results = run_suite(&Runner::default(), &factory, &files, 0);
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
        // 0 jobs: every request resolves to exactly one (idle) worker,
        // including the "all cores" request.
        assert_eq!(effective_workers(0, 0), 1);
        assert_eq!(effective_workers(1, 0), 1);
        assert_eq!(effective_workers(usize::MAX, 0), 1);
        // workers > jobs: clamped to the job count.
        assert_eq!(effective_workers(100, 3), 3);
        assert_eq!(effective_workers(2, 1), 1);
        // "all cores" never exceeds the job count either.
        let auto = effective_workers(0, 2);
        assert!((1..=2).contains(&auto), "auto workers {auto} not clamped to 2 jobs");
    }

    #[test]
    fn observed_run_emits_deterministic_event_multiset() {
        use crate::events::CollectingObserver;
        let files = suite(7);
        let factory = EngineConnectorFactory::new(EngineDialect::Sqlite, ClientKind::Cli);
        let runner = Runner::default();
        let collect = |workers: usize| {
            let obs = CollectingObserver::new();
            let exec = run_with(&runner, &factory, &files, workers, |_| {}, Some(&obs));
            let results: Vec<FileResult> = exec.records.into_iter().map(|r| r.result).collect();
            (results, obs.lines())
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
        let verbatim = run_suite(&Runner::default(), &factory, &files, 1);
        let translated = Runner::new(RunnerOptions {
            translation: TranslationMode::Translated {
                from: TextDialect::Duckdb,
                to: TextDialect::Duckdb,
            },
            ..RunnerOptions::default()
        });
        for workers in [1, 4] {
            let exec = run_with(&translated, &factory, &files, workers, |_| {}, None);
            let mut counts = TranslationCounts::default();
            let mut got = Vec::new();
            for record in exec.records {
                counts.merge(&record.translation);
                got.push(record.result);
            }
            assert_eq!(got, verbatim, "workers={workers}");
            // Identity means no statement was rewritten at all.
            assert_eq!(counts.translated, 0);
            assert_eq!(counts.applied_total(), 0);
        }
    }
}
