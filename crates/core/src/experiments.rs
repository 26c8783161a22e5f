//! The full empirical study: every experiment from the paper's evaluation,
//! orchestrated over the generated corpora and the four engine simulators.

use crate::cache::ResultCache;
use crate::harness::{Harness, HarnessBuilder};
use crate::stability::{StabilityConfig, StabilityReport};
use crate::transplant::{sample_failures, Incident, Provision, SuiteRunSummary};
use squality_backend::{BackendFaultBreakdown, BackendSpec};
use squality_corpus::{donor_dialect, generate_suite_scaled, GeneratedSuite};
use squality_engine::{ClientKind, Coverage, EngineDialect, PlanCache, PlanCacheStats};
use squality_formats::SuiteKind;
use squality_runner::{
    normalize_error, DependencyClass, IncompatibilityClass, Outcome, ReuseDifficulty, RunObserver,
    StoreStats,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Study parameters.
///
/// `#[non_exhaustive]`: future knobs can land without breaking callers.
/// Outside this crate, start from [`StudyConfig::default`] and chain the
/// setters you need:
///
/// ```
/// use squality_core::StudyConfig;
///
/// let config = StudyConfig::default().with_scale(0.05).with_workers(2);
/// assert_eq!(config.workers, 2);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct StudyConfig {
    /// Corpus generation seed (the study is deterministic given it).
    pub seed: u64,
    /// Corpus scale: 1.0 reproduces the default sizes, benches use less.
    pub scale: f64,
    /// Worker threads per suite × host cell.
    ///
    /// `0` means "all cores": the scheduler resolves it to the machine's
    /// available parallelism (falling back to 1 when that cannot be
    /// queried). Whatever is requested is then clamped to the cell's file
    /// count — extra workers beyond the number of files would never claim
    /// a file, so `workers > files` behaves exactly like `workers ==
    /// files`, and an empty suite resolves to a single idle worker. The
    /// study's results are byte-identical for every worker count; this is
    /// purely a throughput knob.
    pub workers: usize,
    /// Also run the **translated arm** of the suite × host matrix: every
    /// cell re-executed with cross-dialect statement translation enabled,
    /// populating [`Study::translated_matrix`] (the reproduction's
    /// analogue of the paper's "what if we adapt the statements?"
    /// discussion).
    pub translated_arm: bool,
    /// Where the study's cells execute. [`BackendSpec::InProcess`]
    /// (default) keeps the engine in the harness process —
    /// byte-identical results to every prior release.
    /// [`BackendSpec::Subprocess`] puts every worker connection behind a
    /// `squality-backend-worker` child process, and Table 8's coverage is
    /// read back from the workers over the wire. Under injected worker
    /// crashes that coverage is a lower bound: a dead worker's hits die
    /// with it.
    pub backend: BackendSpec,
    /// Also run the **stability arm**: after the matrix, re-execute one
    /// exemplar per failure cluster (and every bug finding) under the
    /// perturbation matrix of [`crate::stability`], classifying each as
    /// stable, flaky, or perturbation-sensitive, and annotate the
    /// study's failures and bugs with the verdicts. `None` (default)
    /// skips the arm; results elsewhere are byte-identical either way.
    pub stability: Option<StabilityConfig>,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            seed: 0x5C0A11,
            scale: 1.0,
            workers: 0,
            translated_arm: true,
            backend: BackendSpec::InProcess,
            stability: None,
        }
    }
}

impl StudyConfig {
    /// Replace the corpus-generation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the corpus scale.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Replace the per-cell worker count (0 = all cores).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enable or disable the translated arm.
    pub fn with_translated_arm(mut self, translated_arm: bool) -> Self {
        self.translated_arm = translated_arm;
        self
    }

    /// Replace the execution backend.
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Enable the stability arm with the given configuration.
    pub fn with_stability_arm(mut self, stability: StabilityConfig) -> Self {
        self.stability = Some(stability);
        self
    }

    /// A compact provenance fingerprint of everything that determines
    /// this study's corpus and outcomes: seed, scale, arms, backend, and
    /// the engine semantics version. Bug-store entries record the
    /// fingerprints of the studies that first/last observed them; worker
    /// count is deliberately absent (determinism contract).
    pub fn fingerprint(&self) -> String {
        let mut h = squality_formats::ContentHasher::new();
        h.write_str("squality-study");
        h.write_u64(self.seed);
        h.write_u64(self.scale.to_bits());
        h.write_tag(self.translated_arm as u8);
        h.write_str(self.backend.tag());
        h.write_tag(self.stability.is_some() as u8);
        h.write_u64(squality_engine::ENGINE_SEMANTICS_VERSION as u64);
        format!("{:016x}", h.finish())
    }
}

/// The three executed suites (MySQL's is censused but not executed, like
/// the paper).
pub const EXECUTED_SUITES: [SuiteKind; 3] =
    [SuiteKind::Slt, SuiteKind::PgRegress, SuiteKind::Duckdb];

/// One cell of the Figure 4 heatmap.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    pub suite: SuiteKind,
    pub host: EngineDialect,
    pub summary: SuiteRunSummary,
}

/// Table 8 rows: coverage of one engine under two test regimes.
#[derive(Debug, Clone, Copy)]
pub struct CoverageRow {
    pub engine: EngineDialect,
    pub original_line: f64,
    pub original_branch: f64,
    pub squality_line: f64,
    pub squality_branch: f64,
}

/// A deduplicated crash/hang finding (paper §6).
#[derive(Debug, Clone)]
pub struct BugFinding {
    pub host: EngineDialect,
    pub donor_suite: SuiteKind,
    pub is_crash: bool,
    pub incident: Incident,
    /// The stability arm's verdict for this finding; `None` until a
    /// study with [`StudyConfig::stability`] classifies it.
    pub stability: Option<squality_runner::Stability>,
}

/// Everything the report renderer needs.
pub struct Study {
    pub config: StudyConfig,
    pub suites: Vec<GeneratedSuite>,
    /// Donor-on-donor runs in a bare environment (Tables 4–5).
    pub donor_runs: Vec<SuiteRunSummary>,
    /// Suite × host matrix (Figure 4, Tables 6–7). Diagonal runs use the
    /// full donor environment, off-diagonal the cross-host provision.
    pub matrix: Vec<MatrixCell>,
    /// The translated arm: the same 12 cells re-run with statement
    /// translation enabled (empty when `config.translated_arm` is false).
    pub translated_matrix: Vec<MatrixCell>,
    /// Coverage comparison (Table 8).
    pub coverage: Vec<CoverageRow>,
    /// Crashes and hangs discovered across all runs (§6).
    pub bugs: Vec<BugFinding>,
    /// Statement-plan cache counters for the whole study: how much parse
    /// work the shared cache absorbed across cells, files, and workers.
    pub parse_cache: PlanCacheStats,
    /// Result-cache counters for the whole study (all zero when the study
    /// ran without a cache): how many per-file executions were replayed
    /// from disk instead of re-run.
    pub result_cache: StoreStats,
    /// Backend fault counters summed over every cell (all zero when the
    /// study ran in-process): worker crashes, deadline kills, protocol
    /// errors, and the restarts that contained them.
    pub backend_faults: BackendFaultBreakdown,
    /// The stability arm's report (`None` unless
    /// [`StudyConfig::stability`] was set). When present, every failure
    /// signature and bug finding in the study also carries its verdict.
    pub stability: Option<StabilityReport>,
}

impl Study {
    /// The generated suite for a kind.
    pub fn suite(&self, kind: SuiteKind) -> &GeneratedSuite {
        self.suites.iter().find(|s| s.suite == kind).expect("suite generated")
    }

    /// Matrix cell lookup.
    pub fn cell(&self, suite: SuiteKind, host: EngineDialect) -> &MatrixCell {
        self.matrix.iter().find(|c| c.suite == suite && c.host == host).expect("matrix cell")
    }

    /// Translated-arm cell lookup (None when the arm was not run).
    pub fn translated_cell(&self, suite: SuiteKind, host: EngineDialect) -> Option<&MatrixCell> {
        self.translated_matrix.iter().find(|c| c.suite == suite && c.host == host)
    }

    /// Study-wide translation counters, aggregated over the translated arm.
    pub fn translation_counts(&self) -> squality_runner::TranslationCounts {
        let mut total = squality_runner::TranslationCounts::default();
        for cell in &self.translated_matrix {
            total.merge(&cell.summary.translation);
        }
        total
    }

    /// The donor-on-donor bare run for a suite.
    pub fn donor_run(&self, suite: SuiteKind) -> &SuiteRunSummary {
        self.donor_runs.iter().find(|s| s.suite == suite).expect("donor run")
    }
}

/// A pre-configured [`HarnessBuilder`] for one study cell: the shared
/// worker count, study-wide plan cache, optional study-wide result
/// cache, and observer set applied.
fn cell_builder<'a>(
    gs: &'a GeneratedSuite,
    workers: usize,
    backend: &BackendSpec,
    plan_cache: &Arc<PlanCache>,
    result_cache: Option<&Arc<ResultCache>>,
    observers: &[&'a dyn RunObserver],
) -> HarnessBuilder<'a> {
    let mut builder = Harness::builder()
        .suite(gs)
        .workers(workers)
        .backend(backend.clone())
        .plan_cache(Arc::clone(plan_cache));
    if let Some(cache) = result_cache {
        builder = builder.result_cache(Arc::clone(cache));
    }
    for obs in observers {
        builder = builder.observer(*obs);
    }
    builder
}

/// Run the full study.
///
/// Every suite × host cell executes through a [`Harness`]: the study is
/// [`run_study_with_observers`] with no observers attached.
pub fn run_study(config: StudyConfig) -> Study {
    run_study_with_observers(config, &[])
}

/// Run the full study, streaming every cell's [`RunEvent`] stream — donor
/// validation and both matrix arms, in their fixed execution order — to
/// the given observers (e.g. a
/// [`JsonlObserver`](squality_runner::JsonlObserver) for a
/// machine-readable run log, a
/// [`ProgressObserver`](squality_runner::ProgressObserver) for the CLI).
///
/// Every cell executes through the parallel scheduler: `config.workers`
/// connections per cell share one statement-plan cache, so a statement
/// text parses once for the whole study no matter how many cells, files,
/// or loop iterations replay it. Observers never change results — the
/// study is byte-identical with or without them, at any worker count.
///
/// [`RunEvent`]: squality_runner::RunEvent
pub fn run_study_with_observers(config: StudyConfig, observers: &[&dyn RunObserver]) -> Study {
    run_study_cached(config, observers, None)
}

/// [`run_study_with_observers`] with an optional content-addressed result
/// cache shared across every cell: files already cached under the same
/// (configuration, content) key replay from disk instead of executing, so
/// a repeated study is near-instant and an incremental one only re-runs
/// what changed. Results, reports, event logs, and coverage rows are
/// byte-identical with or without the cache, warm or cold.
pub fn run_study_cached(
    config: StudyConfig,
    observers: &[&dyn RunObserver],
    result_cache: Option<Arc<ResultCache>>,
) -> Study {
    let result_cache = result_cache.as_ref();
    // 1. Generate all four corpora (MySQL included for RQ1/Table 1-2).
    let suites: Vec<GeneratedSuite> = SuiteKind::ALL
        .iter()
        .map(|s| generate_suite_scaled(*s, config.seed, config.scale))
        .collect();

    let executed: Vec<&GeneratedSuite> = EXECUTED_SUITES
        .iter()
        .map(|k| suites.iter().find(|s| s.suite == *k).expect("generated"))
        .collect();

    let plan_cache = PlanCache::shared();
    let workers = config.workers;

    // 2. Donor validation in a bare environment (Tables 4–5).
    let mut backend_faults = BackendFaultBreakdown::default();
    let mut donor_runs: Vec<SuiteRunSummary> = Vec::with_capacity(executed.len());
    for gs in &executed {
        let run = cell_builder(gs, workers, &config.backend, &plan_cache, result_cache, observers)
            .label(format!("donor {} (bare)", gs.suite.donor_name()))
            .host(donor_dialect(gs.suite))
            .client(ClientKind::Connector)
            .provision(Provision::Bare)
            .build()
            .expect("suite is always set")
            .run();
        if let Some(faults) = &run.backend_faults {
            backend_faults.merge(faults);
        }
        donor_runs.push(run.summary);
    }

    // 3. The cross-DBMS matrix (Figure 4 / Tables 6–7). The diagonal runs
    // the donor suite as its own framework would — full environment and the
    // original client — which is why Figure 4's diagonal reads 100% even
    // though Table 4 reports donor failures under the unified runner.
    let run_arm = |translate: bool,
                   backend_faults: &mut BackendFaultBreakdown|
     -> Vec<(MatrixCell, Coverage)> {
        let mut cells = Vec::new();
        for gs in &executed {
            for host in EngineDialect::ALL {
                let is_donor = host == donor_dialect(gs.suite);
                let run = cell_builder(
                    gs,
                    workers,
                    &config.backend,
                    &plan_cache,
                    result_cache,
                    observers,
                )
                .host(host)
                .client(if is_donor { ClientKind::Cli } else { ClientKind::Connector })
                .provision(if is_donor { Provision::Full } else { Provision::CrossHost })
                .translate(translate)
                .build()
                .expect("suite is always set")
                .run();
                if let Some(faults) = &run.backend_faults {
                    backend_faults.merge(faults);
                }
                cells.push((
                    MatrixCell { suite: gs.suite, host, summary: run.summary },
                    run.coverage,
                ));
            }
        }
        cells
    };
    let (matrix, cell_coverage): (Vec<MatrixCell>, Vec<Coverage>) =
        run_arm(false, &mut backend_faults).into_iter().unzip();

    // 3b. The translated arm: the same 12 cells with cross-dialect
    // statement translation. Translated text is just another key in the
    // shared plan cache, so the arm reuses the study-wide cache too.
    let translated_matrix = if config.translated_arm {
        run_arm(true, &mut backend_faults).into_iter().map(|(cell, _)| cell).collect()
    } else {
        Vec::new()
    };

    // 4. Table 8, from the verbatim cells' coverage.
    let coverage = table8_rows(&matrix, &cell_coverage);

    // 5. Collect crash/hang findings across all runs (§6).
    let mut bugs = Vec::new();
    for cell in &matrix {
        for inc in &cell.summary.crashes {
            bugs.push(BugFinding {
                host: cell.host,
                donor_suite: cell.suite,
                is_crash: true,
                incident: inc.clone(),
                stability: None,
            });
        }
        for inc in &cell.summary.hangs {
            bugs.push(BugFinding {
                host: cell.host,
                donor_suite: cell.suite,
                is_crash: false,
                incident: inc.clone(),
                stability: None,
            });
        }
    }
    dedupe_bugs(&mut bugs);

    let parse_cache = plan_cache.stats();
    let result_cache = result_cache.map(|c| c.stats()).unwrap_or_default();
    let stability_config = config.stability.clone();
    let mut study = Study {
        config,
        suites,
        donor_runs,
        matrix,
        translated_matrix,
        coverage,
        bugs,
        parse_cache,
        result_cache,
        backend_faults,
        stability: None,
    };

    // 6. The stability arm: classify one exemplar per failure cluster and
    // every bug finding under the perturbation matrix, then thread the
    // verdicts back onto the study's failures and bugs. Probes always
    // execute live — never through the result cache — so a warm cached
    // study can never replay stale verdicts.
    if let Some(stability_config) = stability_config {
        let report = crate::stability::stability_report(&study, &stability_config);
        crate::stability::annotate_study(&mut study, &report);
        study.stability = Some(report);
    }
    study
}

/// Keep one finding per (host, error-signature, stability verdict). The
/// signature is the message under the same normalization the failure
/// taxonomy uses ([`normalize_error`]): digits, quoted literals, and
/// paths abstract away, so the same crash triggered from two generated
/// files counts once, while distinct bugs sharing an "INTERNAL Error"
/// prefix (the paper notes that prefix marks DuckDB bugs) stay separate.
/// The stability label participates so an annotated finding never merges
/// with an unannotated (or differently-classified) one — inside a study
/// this is vacuous, since dedup runs before the stability arm.
fn dedupe_bugs(bugs: &mut Vec<BugFinding>) {
    let mut seen: Vec<(EngineDialect, String, Option<String>)> = Vec::new();
    bugs.retain(|b| {
        let key =
            (b.host, normalize_error(&b.incident.message), b.stability.as_ref().map(|s| s.label()));
        if seen.contains(&key) {
            false
        } else {
            seen.push(key);
            true
        }
    });
}

/// Table 8: each engine's coverage under its original suite vs under the
/// unified SQuaLity corpus (all three suites), harvested from the verbatim
/// matrix arm. "Original" is the diagonal cell — the engine's own suite on
/// that engine — and "SQuaLity" is the union of the three suites' cells on
/// it (feature coverage is a monotone hit set). The translated arm never
/// contributes: it executes different statement text.
fn table8_rows(matrix: &[MatrixCell], cell_coverage: &[Coverage]) -> Vec<CoverageRow> {
    let engines = [EngineDialect::Sqlite, EngineDialect::Duckdb, EngineDialect::Postgres];
    engines
        .into_iter()
        .map(|engine| {
            let mut original = Coverage::new();
            let mut unified = Coverage::new();
            for (cell, coverage) in matrix.iter().zip(cell_coverage) {
                if cell.host != engine {
                    continue;
                }
                if donor_dialect(cell.suite) == engine {
                    original.union_with(coverage);
                }
                unified.union_with(coverage);
            }
            CoverageRow {
                engine,
                original_line: original.line_ratio(),
                original_branch: original.branch_ratio(),
                squality_line: unified.line_ratio(),
                squality_branch: unified.branch_ratio(),
            }
        })
        .collect()
}

/// Table 5: classify a 100-case sample of a donor run's failures.
///
/// The class is read off each failure's precomputed
/// [`FailureSignature`](squality_runner::FailureSignature) — the ad-hoc
/// per-table string matching this helper once carried lives (once) in
/// signature construction now.
pub fn dependency_breakdown(
    summary: &SuiteRunSummary,
    seed: u64,
) -> BTreeMap<DependencyClass, usize> {
    let sample = sample_failures(&summary.failures, 100, seed);
    let mut counts = BTreeMap::new();
    for case in sample {
        if let Outcome::Fail(info) = &case.result.outcome {
            *counts.entry(info.signature.dependency).or_insert(0) += 1;
        }
    }
    counts
}

/// Table 6: classify cross-host failures off the precomputed signature.
/// SLT cells are analysed exhaustively (the paper does the same); others
/// use 100-case samples.
pub fn incompatibility_breakdown(
    cell: &MatrixCell,
    seed: u64,
) -> BTreeMap<IncompatibilityClass, usize> {
    let exhaustive = cell.suite == SuiteKind::Slt;
    let take = if exhaustive { usize::MAX } else { 100 };
    let sample =
        sample_failures(&cell.summary.failures, take.min(cell.summary.failures.len()), seed);
    let mut counts = BTreeMap::new();
    for case in sample {
        if let Outcome::Fail(info) = &case.result.outcome {
            *counts.entry(info.signature.incompatibility).or_insert(0) += 1;
        }
    }
    counts
}

/// Table 7: difficulty-bucket percentages over all cross-host failures of a
/// suite, derived from the precomputed signature classes.
pub fn difficulty_summary(study: &Study, suite: SuiteKind) -> BTreeMap<ReuseDifficulty, f64> {
    let mut counts: BTreeMap<ReuseDifficulty, usize> = BTreeMap::new();
    let mut total = 0usize;
    for cell in &study.matrix {
        if cell.suite != suite || cell.host == donor_dialect(suite) {
            continue;
        }
        for case in &cell.summary.failures {
            if let Outcome::Fail(info) = &case.result.outcome {
                let class = ReuseDifficulty::from_class(info.signature.incompatibility);
                *counts.entry(class).or_insert(0) += 1;
                total += 1;
            }
        }
    }
    let mut out = BTreeMap::new();
    for d in ReuseDifficulty::ALL {
        out.insert(d, *counts.get(&d).unwrap_or(&0) as f64 / total.max(1) as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_study() -> Study {
        run_study(StudyConfig::default().with_seed(21).with_scale(0.08))
    }

    #[test]
    fn study_shape() {
        let s = small_study();
        assert_eq!(s.suites.len(), 4);
        assert_eq!(s.donor_runs.len(), 3);
        assert_eq!(s.matrix.len(), 12); // 3 suites × 4 hosts
        assert_eq!(s.translated_matrix.len(), 12);
        assert_eq!(s.coverage.len(), 3);
    }

    #[test]
    fn translated_arm_never_adds_syntax_errors_and_fixes_some() {
        let s = small_study();
        let mut verbatim_total = 0usize;
        let mut translated_total = 0usize;
        for suite in EXECUTED_SUITES {
            for host in EngineDialect::ALL {
                let v = s.cell(suite, host).summary.syntax_failures();
                let t = s.translated_cell(suite, host).expect("arm ran").summary.syntax_failures();
                assert!(t <= v, "{suite:?} on {host}: translation added syntax errors {v} -> {t}");
                verbatim_total += v;
                translated_total += t;
            }
        }
        assert!(
            translated_total < verbatim_total,
            "translation must strictly reduce syntax errors: {verbatim_total} -> {translated_total}"
        );
        // The cells where the rules demonstrably bite: PostgreSQL and
        // DuckDB donors carry `::` casts onto hosts that reject them.
        for (suite, host) in [
            (SuiteKind::PgRegress, EngineDialect::Sqlite),
            (SuiteKind::PgRegress, EngineDialect::Mysql),
            (SuiteKind::Duckdb, EngineDialect::Sqlite),
            (SuiteKind::Duckdb, EngineDialect::Mysql),
        ] {
            let v = s.cell(suite, host).summary.syntax_failures();
            let t = s.translated_cell(suite, host).unwrap().summary.syntax_failures();
            assert!(v > 0, "{suite:?} on {host}: expected verbatim syntax failures");
            assert!(t < v, "{suite:?} on {host}: {v} -> {t} not a strict reduction");
        }
    }

    #[test]
    fn translated_arm_diagonal_matches_verbatim() {
        let s = small_study();
        for suite in EXECUTED_SUITES {
            let donor = donor_dialect(suite);
            let v = &s.cell(suite, donor).summary;
            let t = &s.translated_cell(suite, donor).unwrap().summary;
            assert_eq!(v.passed, t.passed, "{suite:?} diagonal changed under translation");
            assert_eq!(v.failed, t.failed);
            // Identity: nothing was rewritten on the donor's own engine.
            assert_eq!(t.translation.applied_total(), 0);
        }
    }

    #[test]
    fn translation_counters_are_consistent() {
        let s = small_study();
        let total = s.translation_counts();
        assert!(total.applied_total() > 0, "study-wide counters empty: {total:?}");
        // The study-wide snapshot is exactly the sum of the per-cell ones.
        let mut applied_sum = 0u64;
        for cell in &s.translated_matrix {
            applied_sum += cell.summary.translation.applied_total();
        }
        assert_eq!(total.applied_total(), applied_sum);
        // Verbatim cells never count anything.
        assert!(s.matrix.iter().all(|c| c.summary.translation.applied_total() == 0));
    }

    #[test]
    fn figure4_shape_holds() {
        let s = small_study();
        // Diagonal ≈ 100%.
        for suite in EXECUTED_SUITES {
            let donor = donor_dialect(suite);
            let diag = s.cell(suite, donor).summary.success_rate();
            assert!(diag > 0.99, "{suite:?} diagonal {diag}");
        }
        // SLT transfers best (paper: >98% on every host).
        for host in EngineDialect::ALL {
            let r = s.cell(SuiteKind::Slt, host).summary.success_rate();
            assert!(r > 0.9, "SLT on {host}: {r}");
        }
        // The PostgreSQL suite is the least compatible (paper: ~28% mean);
        // DuckDB sits between (paper: ~45%).
        let mean = |suite: SuiteKind| {
            let hosts: Vec<f64> = EngineDialect::ALL
                .iter()
                .filter(|h| **h != donor_dialect(suite))
                .map(|h| s.cell(suite, *h).summary.success_rate())
                .collect();
            hosts.iter().sum::<f64>() / hosts.len() as f64
        };
        let slt = mean(SuiteKind::Slt);
        let pg = mean(SuiteKind::PgRegress);
        let duck = mean(SuiteKind::Duckdb);
        assert!(pg < duck, "pg {pg} must transfer worse than duckdb {duck}");
        assert!(duck < slt, "duckdb {duck} must transfer worse than SLT {slt}");
        assert!(pg < 0.75, "pg suite must lose most cases cross-host: {pg}");
    }

    #[test]
    fn donor_runs_expose_dependencies() {
        let s = small_study();
        // SQLite's suite has (almost) no dependencies; PostgreSQL's and
        // DuckDB's do (paper Table 4: 2 vs 4,075 vs 1,035 failures).
        let slt = s.donor_run(SuiteKind::Slt);
        let pg = s.donor_run(SuiteKind::PgRegress);
        let duck = s.donor_run(SuiteKind::Duckdb);
        let rate = |r: &SuiteRunSummary| r.failed as f64 / r.executed.max(1) as f64;
        assert!(rate(slt) < 0.02, "SLT donor failure rate {}", rate(slt));
        assert!(rate(pg) > rate(slt), "pg must fail more than SLT on donor");
        assert!(duck.failed > 0, "DuckDB donor must fail on client deps");
    }

    #[test]
    fn dependency_classes_match_paper_shape() {
        // Larger scale so every injected dependency class appears in the
        // PostgreSQL sample (the paper samples from 4,075 failures).
        let s = run_study(
            StudyConfig::default().with_seed(21).with_scale(0.25).with_translated_arm(false),
        );
        // PostgreSQL: environment-dominated (Set Up biggest — Table 5).
        let pg = dependency_breakdown(s.donor_run(SuiteKind::PgRegress), 5);
        let setup = *pg.get(&DependencyClass::SetUp).unwrap_or(&0);
        assert!(setup > 0, "pg sample must contain Set Up failures: {pg:?}");
        // DuckDB: client-dominated (Format biggest — Table 5).
        let duck = dependency_breakdown(s.donor_run(SuiteKind::Duckdb), 5);
        let format = *duck.get(&DependencyClass::ClientFormat).unwrap_or(&0);
        let client_total = format
            + *duck.get(&DependencyClass::ClientNumeric).unwrap_or(&0)
            + *duck.get(&DependencyClass::ClientException).unwrap_or(&0);
        let total: usize = duck.values().sum();
        assert!(client_total * 2 > total, "DuckDB failures must be client-dominated: {duck:?}");
    }

    #[test]
    fn bugs_are_found() {
        let s = small_study();
        let crashes = s.bugs.iter().filter(|b| b.is_crash).count();
        let hangs = s.bugs.iter().filter(|b| !b.is_crash).count();
        // The paper found 3 crashes and 3 hangs; at small scale at least
        // one of each must surface through cross-suite execution.
        assert!(crashes >= 1, "bugs: {:?}", s.bugs);
        assert!(hangs >= 1, "bugs: {:?}", s.bugs);
    }

    #[test]
    fn coverage_union_dominates() {
        let s = small_study();
        for row in &s.coverage {
            assert!(
                row.squality_line >= row.original_line - 1e-12,
                "{:?}: union coverage must not shrink",
                row.engine
            );
            assert!(row.squality_branch >= row.original_branch - 1e-12);
            assert!(row.original_line > 0.0);
        }
        // At least one engine strictly improves (paper Table 8: all do).
        assert!(s.coverage.iter().any(|r| r.squality_line > r.original_line + 1e-12));
    }

    #[test]
    fn difficulty_summary_sums_to_one() {
        let s = small_study();
        for suite in EXECUTED_SUITES {
            let d = difficulty_summary(&s, suite);
            let sum: f64 = d.values().sum();
            assert!((sum - 1.0).abs() < 1e-9 || sum == 0.0, "{suite:?}: {sum}");
        }
    }
}
