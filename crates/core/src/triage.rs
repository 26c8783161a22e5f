//! Failure triage: signature clustering and ddmin test-case reduction.
//!
//! The paper's authors classified thousands of cross-DBMS failures by hand
//! and manually shrank failing files into minimal bug reports (§7, Tables
//! 5–6). This module mechanizes both steps over a finished [`Study`]:
//!
//! 1. **Clustering** — every failure in the study (every cell of
//!    [`Study::cells`]: donor-bare runs and both matrix arms) carries a
//!    precomputed
//!    [`FailureSignature`]; grouping by signature collapses the raw
//!    failure volume into root-cause clusters, each knowing which cells
//!    it afflicts and an exemplar record to point at.
//! 2. **Reduction** — for each cluster's exemplar, a delta-debugging
//!    (`ddmin`) loop probes record subsets of the failing file, sliced
//!    with their setup closure via [`slice()`](squality_formats::slice()), until the
//!    file is minimal while *still failing with the identical signature*.
//!    Probes re-execute through [`Harness::run`](crate::Harness::run)'s
//!    one execution path, from the exemplar cell's [`CellRef::builder`],
//!    so they run under the cell's exact configuration (host, client,
//!    provision, translation, backend). The probes of one cluster reuse
//!    one connection, or under `--backend subprocess` one worker process,
//!    parked between probes; clusters fan out over a worker pool, and
//!    every probe of the same statement text is a statement-plan-cache
//!    hit, which is what makes reduction fast.
//!
//! The result is the reusable asset the BugForge line of work argues for:
//! a deduplicated, minimized corpus of self-contained repro files, each
//! verified to re-fail standalone with its cluster's signature.
//!
//! # Example
//!
//! ```
//! use squality_core::{run_study, StudyConfig};
//! use squality_core::triage::{triage_study, TriageConfig};
//!
//! let study = run_study(StudyConfig::default().with_scale(0.04).with_seed(7));
//! let report = triage_study(&study, &TriageConfig::default());
//! assert!(report.clusters.len() > 0);
//! assert!(report.dedup_factor() > 1.0);
//! // Every cluster knows its taxonomy class and an exemplar record.
//! let top = &report.clusters[0];
//! println!("{} × {} ({})", top.count, top.signature.normalized, top.class_label());
//! ```

use crate::experiments::{CellRef, Study};
use crate::harness::{translation_mode, HarnessBuilder, Slot};
use squality_backend::BackendSpec;
use squality_bugstore::{BugArm, BugEntry, BugStore};
use squality_engine::{EngineDialect, PlanCache, ENGINE_SEMANTICS_VERSION};
use squality_formats::{
    parse_slt, write_duckdb, ControlCommand, RecordId, RecordKind, SliceIndex, SliceKey, SltFlavor,
    SuiteKind, TestFile, TestRecord,
};
use squality_runner::{pool, FailureSignature, Outcome, RunObserver};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

/// The failure a cluster points at: one concrete record to reduce from.
#[derive(Debug, Clone)]
pub struct Exemplar {
    pub cell: CellRef,
    /// Name of the failing test file within its suite.
    pub file: String,
    /// Stable record id of the failure inside that file.
    pub id: RecordId,
}

/// One root-cause cluster: all study failures sharing a signature.
#[derive(Debug, Clone)]
pub struct FailureCluster {
    pub signature: FailureSignature,
    /// Total failing records across every cell.
    pub count: usize,
    /// The cells this cluster afflicts, with per-cell counts, in study
    /// execution order.
    pub cells: Vec<(CellRef, usize)>,
    /// The first failure observed (study execution order).
    pub exemplar: Exemplar,
}

impl FailureCluster {
    /// The taxonomy row label for this cluster, read in the exemplar
    /// cell's context: a Table 5 class for donor-bare clusters, a Table 6
    /// class cross-host.
    pub fn class_label(&self) -> &'static str {
        self.signature.class_label(self.exemplar.cell.taxonomy())
    }
}

/// Triage parameters.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TriageConfig {
    /// Also run the ddmin reducer over one exemplar per cluster.
    pub reduce: bool,
    /// Worker threads the reducer fans clusters out over (`0` = all
    /// cores). Purely a throughput knob: the report and the emitted
    /// repro files are byte-identical at every worker count.
    pub workers: usize,
    /// Probe budget per cluster. ddmin stops early when the budget runs
    /// out, leaving a (correct, possibly non-minimal) larger slice.
    pub max_probes: usize,
    /// Where probe runs execute. A study run on
    /// [`BackendSpec::Subprocess`] should re-verify through the same
    /// backend, so repros are confirmed against a live worker process.
    pub backend: BackendSpec,
    /// Persistent bug repository. When set, reduction becomes
    /// *incremental*: clusters whose signature is already stored (at the
    /// current engine semantics version) reuse the persisted repro with
    /// zero probes, entries stored under a stale semantics version are
    /// re-verified with a single probe, and new clusters are minimized
    /// and written back — tombstones included, so non-reproducing
    /// clusters are not re-probed every run.
    pub store: Option<Arc<BugStore>>,
}

impl Default for TriageConfig {
    fn default() -> Self {
        TriageConfig {
            reduce: false,
            workers: 0,
            max_probes: 192,
            backend: BackendSpec::InProcess,
            store: None,
        }
    }
}

impl TriageConfig {
    /// Enable or disable the reducer.
    pub fn with_reduce(mut self, reduce: bool) -> Self {
        self.reduce = reduce;
        self
    }

    /// Replace the reducer worker count (0 = all cores).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replace the per-cluster probe budget.
    pub fn with_max_probes(mut self, max_probes: usize) -> Self {
        self.max_probes = max_probes;
        self
    }

    /// Replace the probe execution backend.
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Attach a persistent bug repository (see [`TriageConfig::store`]).
    pub fn with_store(mut self, store: Arc<BugStore>) -> Self {
        self.store = Some(store);
        self
    }
}

/// The outcome of reducing one cluster's exemplar file.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// Index of the cluster in [`TriageReport::clusters`].
    pub cluster: usize,
    /// The exemplar file that was reduced.
    pub file: String,
    /// Flattened record count of the original file.
    pub original_records: usize,
    /// Record count of the minimized slice.
    pub reduced_records: usize,
    /// Probes spent (initial check, ddmin, and standalone verification).
    pub probes: usize,
    /// File name the repro is emitted under.
    pub repro_name: String,
    /// The self-contained repro file, in DuckDB-flavor SLT (the richest
    /// of the writers — it round-trips loops, variables, and expected
    /// error messages).
    pub repro_text: String,
    /// The emitted text was parsed back and re-executed standalone under
    /// the exemplar cell's configuration, and failed with the identical
    /// signature.
    pub verified: bool,
}

/// Aggregate reducer throughput, for the perf trajectory (BENCH output).
/// `elapsed_nanos` is wall-clock and therefore advisory — everything else
/// is deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReductionStats {
    pub probes: usize,
    pub records_before: usize,
    pub records_after: usize,
    pub elapsed_nanos: u64,
}

impl ReductionStats {
    /// Probes per second (0 when nothing ran).
    pub fn probes_per_sec(&self) -> f64 {
        if self.elapsed_nanos == 0 {
            0.0
        } else {
            self.probes as f64 / (self.elapsed_nanos as f64 / 1e9)
        }
    }

    /// Records the reducer eliminated across all clusters.
    pub fn records_eliminated(&self) -> usize {
        self.records_before.saturating_sub(self.records_after)
    }
}

/// How incremental reduction interacted with the bug store, when
/// [`TriageConfig::store`] was set. `added + reused + refreshed` equals
/// the cluster count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TriageStoreStats {
    /// Clusters minimized from scratch and written as new entries
    /// (tombstones for non-reproducing clusters included).
    pub added: usize,
    /// Clusters answered from the store with zero probes.
    pub reused: usize,
    /// Stale entries (older engine semantics version) re-verified with a
    /// single probe — or fully re-minimized when the old repro no longer
    /// failed.
    pub refreshed: usize,
}

/// Everything triage produces.
#[derive(Debug, Clone, Default)]
pub struct TriageReport {
    /// Raw failing records across the whole study.
    pub total_failures: usize,
    /// Signature clusters, largest first.
    pub clusters: Vec<FailureCluster>,
    /// Per-cluster reductions (empty unless [`TriageConfig::reduce`]),
    /// ordered by cluster index.
    pub reductions: Vec<Reduction>,
    /// Aggregate reducer throughput.
    pub stats: ReductionStats,
    /// Bug-store interaction counters (`None` without a store).
    pub store_stats: Option<TriageStoreStats>,
}

impl TriageReport {
    /// How many raw failures each cluster absorbs on average — the
    /// dedup factor the acceptance bar measures (≥ 10× at full scale).
    pub fn dedup_factor(&self) -> f64 {
        if self.clusters.is_empty() {
            1.0
        } else {
            self.total_failures as f64 / self.clusters.len() as f64
        }
    }

    /// The verified repro files, in cluster order.
    pub fn verified_repros(&self) -> impl Iterator<Item = &Reduction> {
        self.reductions.iter().filter(|r| r.verified)
    }
}

/// Cluster every failure of a finished study by signature. Returns the
/// raw failure total and the clusters, largest first (ties keep study
/// execution order).
pub fn cluster_failures(study: &Study) -> (usize, Vec<FailureCluster>) {
    let mut clusters: Vec<FailureCluster> = Vec::new();
    // Keyed by the study's own signatures: a failure costs a hash and a
    // lookup, and only the first of each cluster is cloned.
    let mut index: HashMap<&FailureSignature, usize> = HashMap::new();
    let mut total = 0usize;

    for (cell, summary) in study.cells() {
        for case in &summary.failures {
            let Outcome::Fail(info) = &case.result.outcome else { continue };
            total += 1;
            let at = *index.entry(&info.signature).or_insert_with(|| {
                clusters.push(FailureCluster {
                    signature: info.signature.clone(),
                    count: 0,
                    cells: Vec::new(),
                    exemplar: Exemplar { cell, file: case.file.clone(), id: case.id },
                });
                clusters.len() - 1
            });
            let cluster = &mut clusters[at];
            cluster.count += 1;
            match cluster.cells.iter_mut().find(|(c, _)| *c == cell) {
                Some((_, n)) => *n += 1,
                None => cluster.cells.push((cell, 1)),
            }
        }
    }

    // Largest first; the stable sort keeps study execution order on ties.
    clusters.sort_by_key(|c| std::cmp::Reverse(c.count));
    (total, clusters)
}

/// Run the full triage pipeline over a finished study: cluster, then (when
/// configured) reduce one exemplar per cluster. See the module docs.
pub fn triage_study(study: &Study, config: &TriageConfig) -> TriageReport {
    triage_study_with_observers(study, config, &[])
}

/// [`triage_study`], streaming each cluster's standalone verification run
/// as [`RunEvent`](squality_runner::RunEvent)s to the observers — a
/// [`ProgressObserver`](squality_runner::ProgressObserver) shows one line
/// per verified cluster. (Inner ddmin probes are not streamed: clusters
/// reduce in parallel and probe volume is high.)
///
/// Clusters reduce concurrently, but observed verification runs are
/// serialized through an internal lock: observers see whole suites one
/// at a time (in cluster *completion* order, which varies with worker
/// count), so per-suite-buffering sinks like
/// [`JsonlObserver`](squality_runner::JsonlObserver) stay well-formed.
pub fn triage_study_with_observers(
    study: &Study,
    config: &TriageConfig,
    observers: &[&dyn RunObserver],
) -> TriageReport {
    let (total_failures, clusters) = cluster_failures(study);
    let mut report = TriageReport {
        total_failures,
        clusters,
        reductions: Vec::new(),
        stats: ReductionStats::default(),
        store_stats: None,
    };
    if !config.reduce || report.clusters.is_empty() {
        if config.store.is_some() {
            report.store_stats = Some(TriageStoreStats::default());
        }
        return report;
    }

    let started = std::time::Instant::now();
    let clusters = &report.clusters;
    let run = TriageRun {
        study,
        config,
        plan_cache: PlanCache::shared(),
        observers,
        observer_gate: Mutex::new(()),
        indexes: clusters.iter().map(|c| (index_key(&c.exemplar), OnceLock::new())).collect(),
    };
    let (outputs, _) =
        pool(config.workers, clusters.len(), |_: &mut (), i| run.process_cluster(&clusters[i], i));

    let mut store_stats = TriageStoreStats::default();
    for (reduction, action) in outputs {
        match action {
            Some(StoreAction::Added) => store_stats.added += 1,
            Some(StoreAction::Reused) => store_stats.reused += 1,
            Some(StoreAction::Refreshed) => store_stats.refreshed += 1,
            None => {}
        }
        if let Some(reduction) = reduction {
            report.stats.probes += reduction.probes;
            report.stats.records_before += reduction.original_records;
            report.stats.records_after += reduction.reduced_records;
            report.reductions.push(reduction);
        }
    }
    if config.store.is_some() {
        report.store_stats = Some(store_stats);
    }
    // Advisory only — excluded from the determinism contract.
    report.stats.elapsed_nanos = started.elapsed().as_nanos() as u64;
    report
}

/// What [`TriageRun::process_cluster`] did against the bug store.
enum StoreAction {
    Added,
    Reused,
    Refreshed,
}

/// The study file a cluster's exemplar points into.
fn exemplar_file<'s>(study: &'s Study, exemplar: &Exemplar) -> Option<&'s TestFile> {
    study.suite(exemplar.cell.suite).files.iter().find(|f| f.name == exemplar.file)
}

fn index_key(exemplar: &Exemplar) -> (SuiteKind, &str) {
    (exemplar.cell.suite, exemplar.file.as_str())
}

/// What every cluster's reduction shares within one triage run.
struct TriageRun<'s> {
    study: &'s Study,
    config: &'s TriageConfig,
    /// Replayed statement texts parse once across all probes.
    plan_cache: Arc<PlanCache>,
    observers: &'s [&'s dyn RunObserver],
    /// Serializes the observed verification runs (see
    /// [`triage_study_with_observers`]).
    observer_gate: Mutex<()>,
    /// One slice index per exemplar file, built by the first cluster that
    /// reduces the file and shared with the rest. Clusters answered from
    /// the bug store build none.
    indexes: HashMap<(SuiteKind, &'s str), OnceLock<SliceIndex<'s>>>,
}

impl<'s> TriageRun<'s> {
    fn index(&self, exemplar: &'s Exemplar, file: &'s TestFile) -> &SliceIndex<'s> {
        self.indexes[&index_key(exemplar)].get_or_init(|| SliceIndex::new(file))
    }

    /// A cluster's prober: its cell's preset with the study's environment,
    /// the shared plan cache and the backend.
    fn prober(&self, cluster: &FailureCluster) -> Prober<'s> {
        let cell = cluster.exemplar.cell;
        let preset = cell
            .builder()
            .environment(&self.study.suite(cell.suite).environment)
            .plan_cache(Arc::clone(&self.plan_cache))
            .backend(self.config.backend.clone());
        Prober::new(cell, preset, &cluster.signature)
    }

    /// Reduce one cluster, consulting the bug store first when one is
    /// configured: a stored signature at the current semantics version is
    /// reused verbatim (zero probes, tombstones produce no reduction row), a
    /// stale entry is re-verified with one probe (falling back to full
    /// minimization when its repro no longer fails), and a miss runs the
    /// full [`reduce_cluster`](TriageRun::reduce_cluster) path and persists
    /// the result.
    fn process_cluster(
        &self,
        cluster: &'s FailureCluster,
        cluster_index: usize,
    ) -> (Option<Reduction>, Option<StoreAction>) {
        let Some(store) = &self.config.store else {
            return (self.reduce_cluster(cluster, cluster_index), None);
        };

        let study = self.study;
        let fingerprint = study.config.fingerprint();
        let exemplar = &cluster.exemplar;
        let file = exemplar_file(study, exemplar);
        let stability = cluster.signature.stability.clone();

        if let Some(mut entry) = store.lookup(&cluster.signature) {
            if entry.semantics_version == ENGINE_SEMANTICS_VERSION {
                // Current entry: answer from the store with zero probes.
                // Only rewrite it when the observation actually moved.
                if entry.last_seen != fingerprint || entry.stability != stability {
                    entry.last_seen = fingerprint;
                    entry.stability = stability;
                    store.upsert(&entry);
                }
                let reduction = (!entry.repro_text.is_empty()).then(|| Reduction {
                    cluster: cluster_index,
                    file: exemplar.file.clone(),
                    original_records: file.map_or(entry.records_before, |f| f.record_count()),
                    reduced_records: entry.records_after,
                    probes: 0,
                    repro_name: entry.repro_name.clone(),
                    repro_text: entry.repro_text.clone(),
                    verified: entry.reproduced,
                });
                return (reduction, Some(StoreAction::Reused));
            }
            // Stale semantics version: one probe decides whether the stored
            // repro still fails. If it does, refresh the entry in place;
            // otherwise fall through to full re-minimization below.
            if !entry.repro_text.is_empty() {
                if let Some(file) = file {
                    let mut reparsed =
                        parse_slt(&entry.repro_name, &entry.repro_text, SltFlavor::Duckdb);
                    reparsed.suite = exemplar.cell.suite;
                    if self.prober(cluster).fails_with_signature(&reparsed, &[]) {
                        entry.semantics_version = ENGINE_SEMANTICS_VERSION;
                        entry.last_seen = fingerprint;
                        entry.stability = stability;
                        entry.reproduced = true;
                        store.upsert(&entry);
                        let reduction = Reduction {
                            cluster: cluster_index,
                            file: exemplar.file.clone(),
                            original_records: file.record_count(),
                            reduced_records: entry.records_after,
                            probes: 1,
                            repro_name: entry.repro_name,
                            repro_text: entry.repro_text,
                            verified: true,
                        };
                        return (Some(reduction), Some(StoreAction::Refreshed));
                    }
                }
            }
            let reduction = self.reduce_cluster(cluster, cluster_index);
            store_entry(store, study, cluster, reduction.as_ref(), file, &fingerprint);
            return (reduction, Some(StoreAction::Refreshed));
        }

        let reduction = self.reduce_cluster(cluster, cluster_index);
        store_entry(store, study, cluster, reduction.as_ref(), file, &fingerprint);
        (reduction, Some(StoreAction::Added))
    }

    /// Reduce one cluster's exemplar file to a minimal slice still failing
    /// with the cluster signature. Returns `None` when the exemplar file is
    /// gone from the suite (cannot happen for a study's own clusters) or
    /// the full file no longer reproduces the signature under the replayed
    /// cell configuration (a state-dependent failure the slicer cannot
    /// close over — left unreduced rather than misreported).
    fn reduce_cluster(
        &self,
        cluster: &'s FailureCluster,
        cluster_index: usize,
    ) -> Option<Reduction> {
        let exemplar = &cluster.exemplar;
        let file = exemplar_file(self.study, exemplar)?;
        let mut probe = SliceProbe::new(
            self.index(exemplar, file),
            exemplar.id.line as usize,
            self.prober(cluster),
        );

        // The whole file must reproduce the signature before ddmin can
        // trust a "probe fails ⇒ subset insufficient" reading.
        let mut probes = 1usize;
        let candidates = probe.candidates();
        if !probe.fails(&candidates) {
            return None;
        }

        let max_probes = self.config.max_probes;
        let mut budget = max_probes.saturating_sub(probes);
        let kept = ddmin(&candidates, &mut |subset| probe.fails(subset), &mut budget);
        probes += max_probes.saturating_sub(probes) - budget;

        let minimized = probe.slice(&kept);
        let repro_name = format!(
            "cluster-{:03}-{}.test",
            cluster_index,
            cluster.class_label().to_lowercase().replace(' ', "-")
        );
        let repro_text = write_duckdb(&minimized);

        // Standalone verification: parse the emitted text back and re-run
        // it under the cell's configuration, never from the memo. This is
        // the one observed run per cluster; the gate keeps concurrent
        // clusters' event streams from interleaving inside
        // per-suite-buffering observers.
        probes += 1;
        let mut reparsed = parse_slt(&repro_name, &repro_text, SltFlavor::Duckdb);
        reparsed.suite = exemplar.cell.suite;
        let verified = if self.observers.is_empty() {
            probe.prober.fails_with_signature(&reparsed, &[])
        } else {
            let _serialized = self.observer_gate.lock().expect("observer gate poisoned");
            probe.prober.fails_with_signature(&reparsed, self.observers)
        };

        Some(Reduction {
            cluster: cluster_index,
            file: exemplar.file.clone(),
            original_records: file.record_count(),
            reduced_records: minimized.record_count(),
            probes,
            repro_name,
            repro_text,
            verified,
        })
    }
}

/// Persist one cluster's reduction outcome. A `None` reduction writes a
/// *tombstone* (empty repro text): the cluster's failure did not
/// reproduce standalone, and recording that prevents every later run
/// from re-probing it.
fn store_entry(
    store: &BugStore,
    study: &Study,
    cluster: &FailureCluster,
    reduction: Option<&Reduction>,
    file: Option<&TestFile>,
    fingerprint: &str,
) {
    let cell = cluster.exemplar.cell;
    let gs = study.suite(cell.suite);
    let rule_counters =
        study.cells().find(|(c, _)| *c == cell).map(|(_, s)| s.translation).unwrap_or_default();
    let mut signature = cluster.signature.clone();
    let stability = signature.stability.take();
    let entry = BugEntry {
        signature,
        stability,
        repro_name: reduction.map(|r| r.repro_name.clone()).unwrap_or_default(),
        repro_text: reduction.map(|r| r.repro_text.clone()).unwrap_or_default(),
        reproduced: reduction.is_some_and(|r| r.verified),
        suite: cell.suite,
        host: cell.host,
        arm: cell.arm,
        translation: translation_mode(cell.suite, cell.host, cell.arm == BugArm::Translated),
        rule_counters,
        environment: gs.environment.clone(),
        probes: reduction.map_or(1, |r| r.probes),
        records_before: reduction
            .map(|r| r.original_records)
            .or_else(|| file.map(|f| f.record_count()))
            .unwrap_or(0),
        records_after: reduction.map_or(0, |r| r.reduced_records),
        semantics_version: ENGINE_SEMANTICS_VERSION,
        first_seen: fingerprint.to_string(),
        last_seen: fingerprint.to_string(),
    };
    store.upsert(&entry);
}

/// One cluster's probe environment: enough to execute any record slice
/// under the exemplar cell's configuration and ask "does it still fail
/// with the target signature?".
struct Prober<'a> {
    cell: CellRef,
    /// The exemplar cell's configuration; each probe narrows it to one
    /// candidate file.
    preset: HarnessBuilder<'a>,
    /// The cluster signature without its stability verdict: probe failures
    /// are always pre-annotation (`stability: None`), while a cluster
    /// signature from a stability-arm study carries its verdict.
    want: FailureSignature,
    /// The connection (or worker process) every probe reuses, opened by
    /// the first and reset before each file.
    slot: Slot,
}

impl<'a> Prober<'a> {
    fn new(cell: CellRef, preset: HarnessBuilder<'a>, signature: &FailureSignature) -> Prober<'a> {
        let mut want = signature.clone();
        want.stability = None;
        Prober { cell, preset, want, slot: Slot::default() }
    }

    fn fails_with_signature(
        &mut self,
        candidate: &TestFile,
        observers: &[&dyn RunObserver],
    ) -> bool {
        let mut builder = self
            .preset
            .clone()
            .files(self.cell.suite, std::slice::from_ref(candidate))
            .label(format!("triage {} {}", self.cell.label(), candidate.name));
        for obs in observers {
            builder = builder.observer(*obs);
        }
        let run = builder.build().expect("files are always set").run_in(&mut self.slot);
        run.summary.failures.iter().any(|f| match &f.result.outcome {
            Outcome::Fail(info) => info.signature == self.want,
            _ => false,
        })
    }
}

/// ddmin's probe over one exemplar file: slice the file to a candidate
/// subset plus the exemplar, and run the slice unless an identical one
/// already ran for this cluster.
struct SliceProbe<'i, 'a> {
    index: &'i SliceIndex<'i>,
    exemplar_line: usize,
    prober: Prober<'a>,
    /// Outcome of every slice this cluster has executed. The engine is
    /// deterministic, so a repeated slice is answered here; it still
    /// counts as a probe.
    memo: HashMap<SliceKey, bool>,
}

impl<'i, 'a> SliceProbe<'i, 'a> {
    fn new(index: &'i SliceIndex<'i>, exemplar_line: usize, prober: Prober<'a>) -> Self {
        SliceProbe { index, exemplar_line, prober, memo: HashMap::new() }
    }

    /// Every statement/query line of the file except the exemplar's.
    fn candidates(&self) -> Vec<usize> {
        let lines = statement_lines(&self.index.file().records);
        lines.into_iter().filter(|l| *l != self.exemplar_line).collect()
    }

    fn key(&self, extra: &[usize]) -> SliceKey {
        self.index.closure(extra.iter().copied().chain([self.exemplar_line]))
    }

    fn slice(&self, extra: &[usize]) -> TestFile {
        self.index.extract(&self.key(extra))
    }

    fn fails(&mut self, extra: &[usize]) -> bool {
        let key = self.key(extra);
        let (index, prober) = (self.index, &mut self.prober);
        memoized(&mut self.memo, key, |key| prober.fails_with_signature(&index.extract(key), &[]))
    }
}

/// `run(key)` the first time `key` is seen; its recorded outcome after.
fn memoized<K: Hash + Eq>(
    memo: &mut HashMap<K, bool>,
    key: K,
    run: impl FnOnce(&K) -> bool,
) -> bool {
    *memo.entry(key).or_insert_with_key(run)
}

/// Source lines of every statement/query record, loop bodies included.
fn statement_lines(records: &[TestRecord]) -> Vec<usize> {
    let mut out = Vec::new();
    fn walk(records: &[TestRecord], out: &mut Vec<usize>) {
        for rec in records {
            match &rec.kind {
                RecordKind::Statement { .. } | RecordKind::Query { .. } => out.push(rec.line),
                RecordKind::Control(ControlCommand::Loop { body, .. })
                | RecordKind::Control(ControlCommand::Foreach { body, .. }) => walk(body, out),
                RecordKind::Control(_) => {}
            }
        }
    }
    walk(records, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

/// Delta-debugging minimization over `candidates`: find a small subset for
/// which `probe` still returns `true`, assuming `probe(candidates)` holds.
/// Deterministic; spends at most `budget` probes (decremented in place).
fn ddmin(
    candidates: &[usize],
    probe: &mut dyn FnMut(&[usize]) -> bool,
    budget: &mut usize,
) -> Vec<usize> {
    let mut current: Vec<usize> = candidates.to_vec();
    if current.is_empty() || *budget == 0 {
        return current;
    }
    // Quick win first: the exemplar plus its setup closure alone.
    *budget -= 1;
    if probe(&[]) {
        return Vec::new();
    }
    let mut n = 2usize;
    while current.len() >= 2 && *budget > 0 {
        let chunk = current.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0usize;
        while start < current.len() && *budget > 0 {
            let end = (start + chunk).min(current.len());
            let complement: Vec<usize> =
                current[..start].iter().chain(&current[end..]).copied().collect();
            *budget -= 1;
            if probe(&complement) {
                current = complement;
                n = 2.max(n - 1);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if n >= current.len() {
                break;
            }
            n = (n * 2).min(current.len());
        }
    }
    current
}

/// The simplest reducer entry point, for benches and standalone use: run
/// `file` bare on `host`, take the **first** failure as the reduction
/// target, and ddmin the file down to a minimal slice still failing with
/// that signature. Returns `None` when the file does not fail at all.
///
/// ```
/// use squality_core::triage::reduce_file;
/// use squality_engine::EngineDialect;
/// use squality_formats::{parse_slt, SltFlavor, SuiteKind};
///
/// let text = "\
/// statement ok
/// CREATE TABLE t(a INTEGER)
///
/// statement ok
/// INSERT INTO t VALUES (1)
///
/// query I nosort
/// SELECT count(*) FROM missing_table
/// ----
/// 1
/// ";
/// let file = parse_slt("probe.test", text, SltFlavor::Classic);
/// let r = reduce_file(&file, SuiteKind::Slt, EngineDialect::Sqlite, 64).unwrap();
/// // The failing query needs neither the CREATE nor the INSERT.
/// assert_eq!(r.reduced.record_count(), 1);
/// assert!(r.probes >= 1);
/// ```
pub fn reduce_file(
    file: &TestFile,
    kind: SuiteKind,
    host: EngineDialect,
    max_probes: usize,
) -> Option<FileReduction> {
    let cell = CellRef { suite: kind, host, arm: BugArm::DonorBare };
    let preset = cell.builder().plan_cache(PlanCache::shared());

    // Find the target: the first failure of the bare run.
    let mut slot = Slot::default();
    let harness = preset.clone().files(kind, std::slice::from_ref(file)).build();
    let summary = harness.expect("files are set").run_in(&mut slot).summary;
    let target = summary.failures.first()?;
    let Outcome::Fail(info) = &target.result.outcome else { return None };
    let signature = info.signature.clone();
    let exemplar_line = target.id.line as usize;

    let index = SliceIndex::new(file);
    let mut prober = Prober::new(cell, preset, &signature);
    // The bare run's connection is exactly what the probes need.
    prober.slot = slot;
    let mut probe = SliceProbe::new(&index, exemplar_line, prober);
    let candidates = probe.candidates();
    let mut budget = max_probes;
    let kept = ddmin(&candidates, &mut |subset| probe.fails(subset), &mut budget);
    let reduced = probe.slice(&kept);
    Some(FileReduction {
        probes: max_probes - budget,
        original_records: file.record_count(),
        reduced_records: reduced.record_count(),
        signature,
        reduced,
    })
}

/// What [`reduce_file`] produces.
#[derive(Debug, Clone)]
pub struct FileReduction {
    /// Probes spent.
    pub probes: usize,
    pub original_records: usize,
    pub reduced_records: usize,
    /// The reduction target.
    pub signature: FailureSignature,
    /// The minimized file (exemplar + surviving records + setup closure).
    pub reduced: TestFile,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{run_study, StudyConfig};

    fn study() -> Study {
        run_study(StudyConfig::default().with_seed(21).with_scale(0.06))
    }

    #[test]
    fn clustering_dedupes_heavily() {
        let s = study();
        let (total, clusters) = cluster_failures(&s);
        assert!(total > 0);
        assert!(!clusters.is_empty());
        assert!(
            clusters.len() * 10 <= total,
            "dedup below 10x: {total} failures -> {} clusters",
            clusters.len()
        );
        // Largest-first ordering.
        for pair in clusters.windows(2) {
            assert!(pair[0].count >= pair[1].count);
        }
        // Counts are consistent.
        assert_eq!(clusters.iter().map(|c| c.count).sum::<usize>(), total);
        for c in &clusters {
            assert_eq!(c.cells.iter().map(|(_, n)| n).sum::<usize>(), c.count);
        }
    }

    #[test]
    fn clusters_span_cells() {
        let s = study();
        let (_, clusters) = cluster_failures(&s);
        // Cross-DBMS root causes afflict several cells (the same missing
        // function fails on every non-donor host).
        assert!(
            clusters.iter().any(|c| c.cells.len() >= 3),
            "no cluster spans 3+ cells: {:?}",
            clusters.iter().map(|c| c.cells.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reduction_minimizes_and_verifies() {
        let s = study();
        let config = TriageConfig::default().with_reduce(true).with_workers(2).with_max_probes(96);
        let report = triage_study(&s, &config);
        assert!(!report.reductions.is_empty(), "no cluster reduced");
        let verified = report.verified_repros().count();
        assert!(verified > 0, "no reduction verified standalone");
        for r in &report.reductions {
            assert!(r.reduced_records <= r.original_records, "{:?}", r.file);
            assert!(r.probes >= 1);
            if r.verified {
                assert!(!r.repro_text.is_empty());
            }
        }
        // The bulk of the records must be gone: reduction is the point.
        assert!(
            report.stats.records_after * 2 < report.stats.records_before,
            "weak reduction: {} -> {}",
            report.stats.records_before,
            report.stats.records_after
        );
        assert_eq!(report.stats.probes, report.reductions.iter().map(|r| r.probes).sum());
    }

    #[test]
    fn triage_is_deterministic_across_worker_counts() {
        let s = study();
        let run = |workers: usize| {
            triage_study(
                &s,
                &TriageConfig::default()
                    .with_reduce(true)
                    .with_workers(workers)
                    .with_max_probes(48),
            )
        };
        let base = run(1);
        let base_table = crate::report::triage_table(&base);
        assert!(base_table.contains("raw failures ->"), "{base_table}");
        for workers in [2, 8] {
            let got = run(workers);
            assert_eq!(got.total_failures, base.total_failures, "workers={workers}");
            assert_eq!(got.clusters.len(), base.clusters.len(), "workers={workers}");
            for (a, b) in base.clusters.iter().zip(got.clusters.iter()) {
                assert_eq!(a.signature, b.signature, "workers={workers}");
                assert_eq!(a.count, b.count, "workers={workers}");
                assert_eq!(a.cells, b.cells, "workers={workers}");
            }
            assert_eq!(got.reductions.len(), base.reductions.len(), "workers={workers}");
            for (a, b) in base.reductions.iter().zip(got.reductions.iter()) {
                assert_eq!(a.repro_name, b.repro_name, "workers={workers}");
                assert_eq!(a.repro_text, b.repro_text, "workers={workers}");
                assert_eq!(a.probes, b.probes, "workers={workers}");
                assert_eq!(a.verified, b.verified, "workers={workers}");
            }
            // The rendered triage table — and therefore the emitted repro
            // set — is byte-identical at every worker count.
            assert_eq!(crate::report::triage_table(&got), base_table, "workers={workers}");
        }
    }

    fn temp_store(tag: &str) -> Arc<BugStore> {
        let dir = std::env::temp_dir()
            .join(format!("squality-triage-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        BugStore::shared(dir)
    }

    #[test]
    fn second_store_run_reuses_every_cluster_with_zero_probes() {
        let s = study();
        let store = temp_store("incremental");
        let config = TriageConfig::default()
            .with_reduce(true)
            .with_workers(2)
            .with_max_probes(48)
            .with_store(Arc::clone(&store));
        let cold = triage_study(&s, &config);
        let cold_stats = cold.store_stats.expect("store stats present");
        assert_eq!(cold_stats.added, cold.clusters.len(), "every cluster stored");
        assert_eq!((cold_stats.reused, cold_stats.refreshed), (0, 0));
        assert!(cold.stats.probes > 0, "cold run probes");
        // Tombstones included: the store holds one entry per cluster.
        assert_eq!(store.entries().len(), cold.clusters.len());

        let warm = triage_study(&s, &config);
        let warm_stats = warm.store_stats.expect("store stats present");
        assert_eq!(warm_stats.reused, warm.clusters.len(), "every cluster reused");
        assert_eq!((warm_stats.added, warm_stats.refreshed), (0, 0));
        // The acceptance bar: an unchanged study performs zero ddmin
        // probes on the second run.
        assert_eq!(warm.stats.probes, 0, "warm run must not probe");
        // Same reductions, modulo the probe counts.
        assert_eq!(warm.reductions.len(), cold.reductions.len());
        for (a, b) in cold.reductions.iter().zip(warm.reductions.iter()) {
            assert_eq!(a.cluster, b.cluster);
            assert_eq!(a.repro_name, b.repro_name);
            assert_eq!(a.repro_text, b.repro_text);
            assert_eq!(a.verified, b.verified);
            assert_eq!(b.probes, 0);
        }
        store.clear().unwrap();
    }

    #[test]
    fn stale_semantics_entries_are_reverified_not_reminimized() {
        let s = study();
        let store = temp_store("stale");
        let config = TriageConfig::default()
            .with_reduce(true)
            .with_workers(2)
            .with_max_probes(48)
            .with_store(Arc::clone(&store));
        let cold = triage_study(&s, &config);
        // Age every entry: pretend it was verified under older engine
        // semantics.
        for (_, mut entry) in store.entries() {
            entry.semantics_version = ENGINE_SEMANTICS_VERSION - 1;
            store.store(&entry);
        }
        let refreshed = triage_study(&s, &config);
        let stats = refreshed.store_stats.expect("store stats present");
        assert_eq!(stats.refreshed, refreshed.clusters.len(), "every cluster refreshed");
        assert_eq!(stats.reused, 0);
        // Verified repros re-verify with exactly one probe each — never a
        // full ddmin pass. Tombstoned and unverified clusters may fall
        // back to full minimization, so bound rather than equate.
        let verified_cold = cold.reductions.iter().filter(|r| r.verified).count();
        let single_probe =
            refreshed.reductions.iter().filter(|r| r.verified && r.probes == 1).count();
        assert!(verified_cold > 0);
        assert_eq!(single_probe, verified_cold, "verified entries take one probe");
        // The store is current again: a third run reuses everything.
        let warm = triage_study(&s, &config);
        assert_eq!(warm.stats.probes, 0);
        assert_eq!(warm.store_stats.expect("stats").reused, warm.clusters.len());
        store.clear().unwrap();
    }

    #[test]
    fn store_entries_carry_provenance() {
        let s = study();
        let store = temp_store("provenance");
        let config = TriageConfig::default()
            .with_reduce(true)
            .with_workers(2)
            .with_max_probes(48)
            .with_store(Arc::clone(&store));
        let report = triage_study(&s, &config);
        let fingerprint = s.config.fingerprint();
        let entries = store.entries();
        assert_eq!(entries.len(), report.clusters.len());
        for (_, entry) in &entries {
            assert!(entry.signature.stability.is_none(), "stored signatures are pre-annotation");
            assert_eq!(entry.semantics_version, ENGINE_SEMANTICS_VERSION);
            assert_eq!(entry.first_seen, fingerprint);
            assert_eq!(entry.last_seen, fingerprint);
            if entry.reproduced {
                assert!(!entry.repro_text.is_empty());
                assert!(entry.records_after <= entry.records_before);
            }
        }
        // At least one verified entry replays standalone from the entry
        // alone (environment included) — the replay service's contract.
        assert!(entries.iter().any(|(_, e)| e.reproduced), "no verified entry stored");
        store.clear().unwrap();
    }

    #[test]
    fn ddmin_finds_single_culprits() {
        // Probe: "true iff 7 is in the set" — minimal subset is {7}.
        let candidates: Vec<usize> = (0..32).collect();
        let mut budget = 256;
        let kept = ddmin(&candidates, &mut |s| s.contains(&7), &mut budget);
        assert_eq!(kept, vec![7]);
        // Empty needs: minimal is the empty set, found in one probe.
        let mut budget = 8;
        let kept = ddmin(&candidates, &mut |_| true, &mut budget);
        assert!(kept.is_empty());
        assert_eq!(budget, 7);
    }

    #[test]
    fn memoized_ddmin_skips_repeated_slices_without_changing_the_result() {
        // A slice keeps whole pairs: keeping either line of {2k, 2k+1}
        // pulls in both, so different subsets often run the same slice.
        let key = |subset: &[usize]| subset.iter().map(|c| c / 2).collect::<Vec<_>>();
        let fails = |slice: &Vec<usize>| slice.contains(&3) && slice.contains(&9);
        let candidates: Vec<usize> = (0..32).collect();

        let mut plain_budget = 256;
        let plain = ddmin(&candidates, &mut |s| fails(&key(s)), &mut plain_budget);

        let (mut memo, mut executions) = (HashMap::new(), 0usize);
        let mut budget = 256;
        let kept = ddmin(
            &candidates,
            &mut |s| {
                memoized(&mut memo, key(s), |slice| {
                    executions += 1;
                    fails(slice)
                })
            },
            &mut budget,
        );
        let probes = 256 - budget;
        assert_eq!(kept, plain);
        assert_eq!(budget, plain_budget, "a memo hit still counts as a probe");
        assert!(executions < probes, "{executions} executions for {probes} probes");
    }

    #[test]
    fn reductions_match_fresh_connection_probes_without_a_memo() {
        // The reference reducer: a new connection for every probe and
        // every slice executed, as before connections were reused and
        // slices memoized.
        let s = study();
        let config = TriageConfig::default().with_reduce(true).with_workers(2).with_max_probes(48);
        let report = triage_study(&s, &config);
        let plan_cache = PlanCache::shared();
        let (mut compared, mut varied) = (0, 0);
        for r in &report.reductions {
            let cluster = &report.clusters[r.cluster];
            let exemplar = &cluster.exemplar;
            let file = exemplar_file(&s, exemplar).expect("exemplar file");
            let env = &s.suite(exemplar.cell.suite).environment;
            let line = exemplar.id.line as usize;
            let sliced = |subset: &[usize]| {
                let keep: Vec<RecordId> =
                    subset.iter().chain([&line]).map(|l| RecordId::new(*l, 0)).collect();
                squality_formats::slice(file, &keep)
            };
            let preset =
                exemplar.cell.builder().environment(env).plan_cache(Arc::clone(&plan_cache));
            let fresh = |candidate: &TestFile| {
                Prober::new(exemplar.cell, preset.clone(), &cluster.signature)
                    .fails_with_signature(candidate, &[])
            };
            let candidates: Vec<usize> =
                statement_lines(&file.records).into_iter().filter(|l| *l != line).collect();
            assert!(fresh(&sliced(&candidates)), "{}", r.repro_name);
            let mut budget = config.max_probes - 1;
            let kept = ddmin(&candidates, &mut |subset| fresh(&sliced(subset)), &mut budget);
            assert_eq!(r.probes, config.max_probes - budget + 1, "{}", r.repro_name);
            assert_eq!(r.repro_text, write_duckdb(&sliced(&kept)), "{}", r.repro_name);

            compared += 1;
            if fresh(&sliced(&[])) {
                continue; // the exemplar fails alone: every probe passes
            }

            // ddmin stops early on most clusters, so also drive the
            // production probe (shared index, one connection, memo) on a
            // cluster whose outcome depends on the kept records, through
            // pseudo-random subsets, every third one a repeat.
            let index = SliceIndex::new(file);
            let prober = Prober::new(exemplar.cell, preset.clone(), &cluster.signature);
            let mut probe = SliceProbe::new(&index, line, prober);
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ r.cluster as u64;
            let mut asked: Vec<Vec<usize>> = Vec::new();
            let mut outcomes = [0usize; 2];
            for step in 0..36 {
                let subset = if step % 3 == 2 {
                    asked[step / 2].clone()
                } else {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let bits = state >> 11;
                    let pick = |(i, _): &(usize, &usize)| bits >> (i % 53) & 1 == 1;
                    candidates.iter().enumerate().filter(pick).map(|(_, l)| *l).collect()
                };
                let fails = probe.fails(&subset);
                assert_eq!(fails, fresh(&sliced(&subset)), "{} keeping {subset:?}", r.repro_name);
                outcomes[usize::from(fails)] += 1;
                asked.push(subset);
            }
            assert!(probe.memo.len() < asked.len(), "{}: no memo hit", r.repro_name);
            assert!(outcomes[0] > 0 && outcomes[1] > 0, "{}: {outcomes:?}", r.repro_name);
            varied += 1;
        }
        assert!(compared > 0 && varied > 0, "{compared} reductions, {varied} varied");
    }

    /// A subprocess spec running the worker binary next to this test
    /// executable, built on demand when this crate's tests run alone.
    fn worker_spec() -> BackendSpec {
        let mut dir = std::env::current_exe().expect("test executable path");
        dir.pop(); // target/<profile>/deps
        dir.pop(); // target/<profile>
        let bin = dir.join(format!("squality-backend-worker{}", std::env::consts::EXE_SUFFIX));
        if !bin.exists() {
            let mut cmd = std::process::Command::new(env!("CARGO"));
            cmd.args(["build", "-p", "squality-backend", "--bin", "squality-backend-worker"]);
            if !cfg!(debug_assertions) {
                cmd.arg("--release");
            }
            assert!(cmd.status().expect("spawn cargo").success(), "building the worker failed");
        }
        let BackendSpec::Subprocess { deadline, max_restarts, .. } = BackendSpec::subprocess()
        else {
            unreachable!("subprocess() is a subprocess spec")
        };
        BackendSpec::Subprocess { bin: Some(bin), deadline, max_restarts }
    }

    #[test]
    fn a_clusters_probes_share_one_worker_process() {
        let text = "statement ok\nCREATE TABLE t(a INTEGER)\n\n\
                    query I nosort\nSELECT count(*) FROM missing_table\n----\n1\n";
        let file = parse_slt("probe.test", text, SltFlavor::Classic);
        let target = reduce_file(&file, SuiteKind::Slt, EngineDialect::Sqlite, 8).unwrap();
        let cell =
            CellRef { suite: SuiteKind::Slt, host: EngineDialect::Sqlite, arm: BugArm::DonorBare };
        let mut prober =
            Prober::new(cell, cell.builder().backend(worker_spec()), &target.signature);
        let mut pids = Vec::new();
        for candidate in [&file, &target.reduced, &file] {
            // Out of process, the probes read as the in-process reduction did.
            assert!(prober.fails_with_signature(candidate, &[]), "{}", write_duckdb(candidate));
            let Some((factory, Some(conn))) = &prober.slot.subprocess else {
                panic!("no worker parked after a subprocess probe");
            };
            assert_eq!(factory.stats().snapshot().spawns, 1, "one worker for the cluster");
            pids.push(conn.backend_pid().expect("the parked worker is alive"));
        }
        assert!(pids.iter().all(|pid| *pid == pids[0]), "{pids:?}");
    }

    #[test]
    fn ddmin_respects_budget() {
        let candidates: Vec<usize> = (0..64).collect();
        let mut budget = 3;
        let _ = ddmin(&candidates, &mut |s| s.len() >= 60, &mut budget);
        assert_eq!(budget, 0);
    }

    #[test]
    fn reduce_file_finds_a_dependency_hidden_behind_a_variable() {
        // `CREATE TABLE ${d}` creates `dep` through a variable, which the
        // slicer's textual def-use scan cannot see. The `DROP TABLE dep`
        // expects an error but succeeds (ExpectedErrorButOk) only when the
        // hidden CREATE runs, so ddmin must search 32 records for it.
        let mut text = String::from("set d dep\n\n");
        for i in 1..32 {
            text.push_str(&match i {
                8 => "statement ok\nCREATE TABLE ${d}(a INTEGER)\n\n".to_string(),
                24 => "statement error\nDROP TABLE dep\n\n".to_string(),
                i if i % 3 == 0 => format!("statement ok\nCREATE TABLE noise{i}(a INTEGER)\n\n"),
                i if i % 3 == 1 => format!("statement ok\nSELECT {i}\n\n"),
                i => format!("query I nosort\nSELECT {i}\n----\n{i}\n\n"),
            });
        }
        let file = parse_slt("hidden-dependency.test", &text, SltFlavor::Duckdb);
        let r = reduce_file(&file, SuiteKind::Slt, EngineDialect::Sqlite, 256).unwrap();
        // The failing DROP, the hidden CREATE, and the `set` it pulls in.
        assert_eq!(r.reduced_records, 3, "reduced to {} records", r.reduced_records);
        assert!(r.probes > 3, "quick win should be impossible: {} probes", r.probes);
        assert_eq!(&*r.signature.statement, "DROP TABLE");
    }
}
