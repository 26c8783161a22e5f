//! The content-addressed result cache's contract: a warm study replays
//! **byte-identically** — same report tables, same JSONL event log, same
//! triage clusters — at any worker count, with every file answered from
//! the cache; and editing one file re-runs exactly that file.

use squality::core::triage::{triage_study_with_observers, TriageConfig};
use squality::core::{
    full_report, run_study_cached, run_study_with_observers, triage_table, Harness, ResultCache,
    Study, StudyConfig,
};
use squality::corpus::generate_suite_scaled;
use squality::engine::EngineDialect;
use squality::formats::SuiteKind;
use squality::runner::{JsonlObserver, RunObserver};
use std::path::PathBuf;
use std::sync::Arc;

/// A private cache directory under the system temp dir, removed on drop.
struct TempCacheDir(PathBuf);

impl TempCacheDir {
    fn new(tag: &str) -> TempCacheDir {
        let dir = std::env::temp_dir()
            .join(format!("squality-result-cache-it-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempCacheDir(dir)
    }

    /// A fresh handle over the same store: per-run hit/miss counters.
    fn cache(&self) -> Arc<ResultCache> {
        ResultCache::shared(&self.0)
    }
}

impl Drop for TempCacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn study_config(workers: usize) -> StudyConfig {
    StudyConfig::default()
        .with_seed(5)
        .with_scale(0.02)
        .with_workers(workers)
        .with_translated_arm(true)
}

fn run_logged(workers: usize, cache: Option<Arc<ResultCache>>) -> (Study, String) {
    let events = JsonlObserver::new();
    let observers: [&dyn RunObserver; 1] = [&events];
    let study = run_study_cached(study_config(workers), &observers, cache);
    (study, events.log())
}

/// One cold cached run, then warm runs at several worker counts: the
/// report, the event log, and the triage table must be byte-identical to
/// each other **and** to an uncached run — and the warm runs must answer
/// every file from the cache.
#[test]
fn warm_study_replays_byte_identically() {
    let dir = TempCacheDir::new("warm");

    let events = JsonlObserver::new();
    let observers: [&dyn RunObserver; 1] = [&events];
    let baseline = run_study_with_observers(study_config(2), &observers);
    let baseline_log = events.log();
    let baseline_report = full_report(&baseline);
    assert_eq!(baseline.result_cache.hits + baseline.result_cache.misses, 0);

    let (cold, cold_log) = run_logged(2, Some(dir.cache()));
    assert_eq!(full_report(&cold), baseline_report, "cold cached report diverged");
    assert_eq!(cold_log, baseline_log, "cold cached event log diverged");
    assert!(cold.result_cache.stores > 0);

    let baseline_triage =
        triage_table(&triage_study_with_observers(&baseline, &TriageConfig::default(), &[]));

    for workers in [1, 2, 8] {
        let (warm, warm_log) = run_logged(workers, Some(dir.cache()));
        assert_eq!(warm.result_cache.misses, 0, "workers={workers}: warm run missed");
        assert!(warm.result_cache.hits > 0, "workers={workers}: warm run never hit");
        assert_eq!(full_report(&warm), baseline_report, "workers={workers}: warm report diverged");
        assert_eq!(warm_log, baseline_log, "workers={workers}: warm event log diverged");
        // Satellite: triage consumes a cache-replayed study unchanged.
        let warm_triage =
            triage_table(&triage_study_with_observers(&warm, &TriageConfig::default(), &[]));
        assert_eq!(warm_triage, baseline_triage, "workers={workers}: triage diverged");
    }
}

/// Stability runs bypass the result cache entirely: verdicts must come
/// from live perturbed re-execution, never replayed entries — a harness
/// carrying **both** a cache and a stability config performs zero
/// lookups and zero stores, and leaves the cache cold for later runs.
#[test]
fn stability_runs_never_touch_the_result_cache() {
    use squality::core::StabilityConfig;
    use squality::runner::Outcome;

    let dir = TempCacheDir::new("stability");
    let gs = generate_suite_scaled(SuiteKind::Slt, 11, 0.05);
    let cache = dir.cache();

    let run = Harness::builder()
        .suite(&gs)
        .host(EngineDialect::Duckdb)
        .result_cache(Arc::clone(&cache))
        .stability(StabilityConfig::default().with_reruns(1).with_workers(1))
        .build()
        .expect("suite configured")
        .run();

    let stats = cache.stats();
    assert_eq!(stats.hits, 0, "stability run answered files from the cache");
    assert_eq!(stats.misses, 0, "stability run performed cache lookups");
    assert_eq!(stats.stores, 0, "stability run stored results");

    // The bypass still produced a live, fully-annotated run.
    assert!(run.summary.failed > 0, "this cross-host cell should fail records");
    for f in &run.summary.failures {
        let Outcome::Fail(info) = &f.result.outcome else { continue };
        assert!(
            info.signature.stability.is_some(),
            "failure missing a stability verdict: {}",
            info.signature.normalized
        );
    }

    // The same cell without the stability arm uses the cache normally —
    // and starts cold, proving the arm really stored nothing.
    let plain = Harness::builder()
        .suite(&gs)
        .host(EngineDialect::Duckdb)
        .result_cache(Arc::clone(&cache))
        .build()
        .expect("suite configured")
        .run();
    let stats = cache.stats();
    assert_eq!(stats.hits, 0, "the stability run must not have warmed the cache");
    assert_eq!(stats.misses, gs.files.len() as u64);
    assert_eq!(stats.stores, gs.files.len() as u64);
    assert_eq!(plain.summary.failed, run.summary.failed);
}

/// File-level invalidation: editing one file's content re-executes exactly
/// that file; every other file replays.
#[test]
fn editing_one_file_invalidates_exactly_that_file() {
    let dir = TempCacheDir::new("dirty");
    let gs = generate_suite_scaled(SuiteKind::Slt, 11, 0.05);
    assert!(gs.files.len() >= 2, "need several files to tell invalidation scopes apart");

    let run = |suite, cache: Arc<ResultCache>| {
        let run = Harness::builder()
            .suite(suite)
            .host(EngineDialect::Duckdb)
            .result_cache(Arc::clone(&cache))
            .build()
            .expect("suite configured")
            .run();
        (run.summary, cache.stats())
    };

    let (cold_summary, cold_stats) = run(&gs, dir.cache());
    assert_eq!(cold_stats.misses, gs.files.len() as u64);
    assert_eq!(cold_stats.stores, gs.files.len() as u64);

    // Edit one file: any hashed field counts as content.
    let mut edited = gs.clone();
    edited.files[1].records[0].line += 1000;

    let (dirty_summary, dirty_stats) = run(&edited, dir.cache());
    assert_eq!(dirty_stats.misses, 1, "exactly the edited file must re-run");
    assert_eq!(dirty_stats.hits, gs.files.len() as u64 - 1);
    assert_eq!(dirty_stats.stores, 1);
    // The edit only moved a line number, so the roll-up is unchanged.
    assert_eq!(dirty_summary.passed, cold_summary.passed);
    assert_eq!(dirty_summary.failed, cold_summary.failed);
    assert_eq!(dirty_summary.skipped, cold_summary.skipped);

    // And the untouched suite still replays fully.
    let (_, warm_stats) = run(&gs, dir.cache());
    assert_eq!(warm_stats.misses, 0);
    assert_eq!(warm_stats.hits, gs.files.len() as u64);
}

/// The coverage union when hits and misses mix: one cell run uncached,
/// cold-cached, warm, and with one file edited (one miss, the rest hits)
/// must report equal `Run.coverage` and summary every way, at one worker
/// and at several.
#[test]
fn coverage_union_is_the_same_whatever_mix_of_hits_and_misses() {
    use squality::formats::Condition;
    let gs = generate_suite_scaled(SuiteKind::Slt, 11, 0.05);
    assert!(gs.files.len() >= 3, "need several files to mix hits and misses");
    // A hashed edit that cannot change an outcome on the DuckDB host.
    let mut edited = gs.clone();
    edited.files[1].records[0].conditions.push(Condition::SkipIf("mysql".into()));

    for workers in [1, 3] {
        let dir = TempCacheDir::new(&format!("mix-w{workers}"));
        let run = |suite, cache: Option<Arc<ResultCache>>| {
            let mut builder = Harness::builder().suite(suite).host(EngineDialect::Duckdb);
            if let Some(cache) = cache {
                builder = builder.result_cache(cache);
            }
            let run = builder.workers(workers).build().expect("suite configured").run();
            (format!("{:?}", run.summary), run.coverage)
        };
        let uncached = run(&gs, None);
        assert!(uncached.1.line_ratio() > 0.0);

        let cache = dir.cache();
        assert_eq!(run(&gs, Some(Arc::clone(&cache))), uncached, "cold, workers={workers}");
        assert_eq!(cache.stats().misses, gs.files.len() as u64);

        let cache = dir.cache();
        assert_eq!(run(&gs, Some(Arc::clone(&cache))), uncached, "warm, workers={workers}");
        assert_eq!(cache.stats().misses, 0);

        let cache = dir.cache();
        assert_eq!(run(&edited, Some(Arc::clone(&cache))), uncached, "mixed, workers={workers}");
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, gs.files.len() as u64 - 1);
    }
}
