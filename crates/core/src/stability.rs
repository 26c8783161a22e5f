//! The flakiness arm: perturbed re-execution and stability classification.
//!
//! The paper treats every failure as a fixed fact about a suite × host
//! pair, but real harnesses ask a prior question first: *does this
//! failure even reproduce?* A result that appears only under one execution
//! strategy, one plan cache or one backend is a harness finding, not a
//! portability finding, and mixing the two poisons every downstream
//! table. This module answers the question mechanically:
//!
//! 1. **Rerun** — every failing record (and every crash/hang bug
//!    finding) re-executes [`StabilityConfig::reruns`] times under the
//!    configuration that produced it. Any divergence across identical
//!    runs is [`Stability::Flaky`] with the observed outcome set.
//! 2. **Perturb** — records that rerun identically are then probed once
//!    per [`PerturbationAxis`], each flipping one knob of that
//!    configuration: hash ↔ naive execution strategy, statement-plan
//!    cache present ↔ absent, the engine fault profile between
//!    paper-versions and all-fixed, and (opt-in,
//!    [`StabilityConfig::backend_axis`]) in-process ↔ subprocess backend.
//!    The first axis that changes the outcome yields
//!    [`Stability::PerturbationSensitive`].
//! 3. **Classify** — everything else is [`Stability::Stable`]: the
//!    failure reproduces byte-identically under every probe, so it is
//!    safe to cluster, dedupe, reduce, and report as a real
//!    incompatibility.
//!
//! Every probe is a [`Harness`](crate::Harness) run of the target's file
//! from a clone of the exact [`HarnessBuilder`] that produced the
//! observation, without its observers and result cache. There are two
//! front-ends to that one probe path: [`annotate_run`] takes the builder
//! of one finished run, and the study's arm
//! ([`StudyConfig::with_stability_arm`](crate::StudyConfig::with_stability_arm))
//! takes the configuration each study cell ran in — its
//! [`CellRef::builder`] preset with the study's workers, backend and
//! shared plan cache.
//!
//! Verdicts are threaded back in place:
//! [`FailureSignature::stability`] is annotated on every failure (so
//! triage clustering separates a stable cluster from a
//! perturbation-sensitive one with the same message) and
//! [`BugFinding::stability`] on every crash/hang finding. The analysis
//! itself is deterministic — probes are pure harness runs and the worker
//! pool stitches verdicts in target order — so the stability table is
//! byte-identical at every worker count.
//!
//! # Example
//!
//! ```
//! use squality_core::{run_study, StabilityConfig, StudyConfig};
//!
//! let config = StudyConfig::default()
//!     .with_scale(0.04)
//!     .with_seed(7)
//!     .with_stability_arm(StabilityConfig::default().with_reruns(2));
//! let study = run_study(config);
//! let report = study.stability.as_ref().expect("stability arm ran");
//! // Every cluster and every bug finding received a verdict…
//! assert_eq!(report.total(), report.clusters.len() + report.bugs.len());
//! // …and the injected engine faults are exposed as fault-profile
//! // sensitive: they vanish when the profile flips to all-fixed.
//! assert!(report.nondeterministic_count() >= 1);
//! ```
//!
//! [`FailureSignature::stability`]: squality_runner::FailureSignature
//! [`BugFinding::stability`]: crate::experiments::BugFinding

use crate::experiments::{cell_run, CellRef, Study};
use crate::harness::HarnessBuilder;
use crate::transplant::SuiteRunSummary;
use crate::triage::{cluster_failures, FailureCluster};
use squality_backend::BackendSpec;
use squality_bugstore::BugArm;
use squality_engine::{EngineDialect, ExecStrategy, FaultProfile, PlanCache};
use squality_formats::RecordId;
use squality_runner::{pool, FailureSignature, Outcome, PerturbationAxis, Stability};
use std::collections::HashMap;
use std::sync::Arc;

/// Parameters of the stability arm.
///
/// `#[non_exhaustive]`: start from [`StabilityConfig::default`] and chain
/// the setters you need.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct StabilityConfig {
    /// Baseline re-executions per failure before the perturbation probes
    /// run. More reruns buy more confidence in a `Stable`/`Flaky` split;
    /// the probes are single files, so the cost stays proportional to
    /// the number of distinct failure signatures, not raw failures.
    pub reruns: usize,
    /// Worker threads the targets fan out over (`0` = all cores).
    /// Purely a throughput knob: verdicts are stitched in target order,
    /// so the report is byte-identical at every count.
    pub workers: usize,
    /// Also probe the backend axis: re-run each target behind a
    /// `squality-backend-worker` process when it failed in-process, and
    /// in-process when it failed behind one. Off by default — an
    /// in-process run spawns one child process per target.
    pub backend_axis: bool,
}

impl Default for StabilityConfig {
    fn default() -> Self {
        StabilityConfig { reruns: 3, workers: 0, backend_axis: false }
    }
}

impl StabilityConfig {
    /// Replace the baseline rerun count.
    pub fn with_reruns(mut self, reruns: usize) -> Self {
        self.reruns = reruns;
        self
    }

    /// Replace the analysis worker count (0 = all cores).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enable or disable the backend axis.
    pub fn with_backend_axis(mut self, backend_axis: bool) -> Self {
        self.backend_axis = backend_axis;
        self
    }
}

/// One record (or incident) under stability analysis.
struct Target<'a> {
    /// The builder that produced the observation, narrowed to the
    /// target's file by [`HarnessBuilder::for_file`]. Each probe clones it
    /// and flips at most one knob.
    preset: HarnessBuilder<'a>,
    /// 1-based source line — how crashes and hangs are matched.
    line: usize,
    /// Record id for failure targets; `None` for crash/hang bug targets,
    /// which have no surviving record result to compare against.
    id: Option<RecordId>,
    /// Pre-annotation signature the probe must reproduce for a `"fail"`
    /// reading; `None` accepts any failure at the target record.
    signature: Option<FailureSignature>,
    /// The outcome label of the original observation.
    original: &'static str,
}

/// One probe of the perturbation matrix.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variation {
    /// The original configuration, unchanged (the rerun arm).
    Baseline,
    /// One axis flipped.
    Axis(PerturbationAxis),
}

/// What one cluster's exemplar resolved to.
#[derive(Debug, Clone)]
pub struct ClusterVerdict {
    /// The cluster's (pre-annotation) signature.
    pub signature: FailureSignature,
    /// Raw failing records the cluster absorbed.
    pub count: usize,
    /// Exemplar cell display label (`"PostgreSQL→sqlite"`-style).
    pub cell: String,
    /// Taxonomy row label, read in the exemplar cell's context.
    pub class_label: &'static str,
    /// Exemplar file name.
    pub file: String,
    pub stability: Stability,
}

/// What one crash/hang bug finding resolved to.
#[derive(Debug, Clone)]
pub struct BugVerdict {
    pub host: EngineDialect,
    pub is_crash: bool,
    /// File and 1-based line of the incident.
    pub file: String,
    pub line: usize,
    pub stability: Stability,
}

/// Everything the stability arm produces over a study.
#[derive(Debug, Clone)]
pub struct StabilityReport {
    /// Baseline reruns each target received.
    pub reruns: usize,
    /// Raw failing records across the whole study (the clusters' total).
    pub total_failures: usize,
    /// One verdict per failure cluster, in cluster order (largest
    /// first, matching [`cluster_failures`]).
    pub clusters: Vec<ClusterVerdict>,
    /// One verdict per deduplicated bug finding, in study order.
    pub bugs: Vec<BugVerdict>,
}

impl StabilityReport {
    /// Every verdict in report order: clusters, then bugs.
    fn verdicts(&self) -> impl Iterator<Item = &Stability> {
        self.clusters.iter().map(|c| &c.stability).chain(self.bugs.iter().map(|b| &b.stability))
    }

    /// Targets analysed (clusters + bug findings).
    pub fn total(&self) -> usize {
        self.clusters.len() + self.bugs.len()
    }

    /// Targets that reproduced identically under every probe.
    pub fn stable_count(&self) -> usize {
        self.verdicts().filter(|s| matches!(s, Stability::Stable)).count()
    }

    /// Targets that diverged across identical baseline reruns.
    pub fn flaky_count(&self) -> usize {
        self.verdicts().filter(|s| matches!(s, Stability::Flaky { .. })).count()
    }

    /// Targets that flipped under exactly one perturbed axis.
    pub fn sensitive_count(&self) -> usize {
        self.verdicts().filter(|s| matches!(s, Stability::PerturbationSensitive { .. })).count()
    }

    /// Flaky + perturbation-sensitive: everything a report must flag as
    /// not deterministically reachable.
    pub fn nondeterministic_count(&self) -> usize {
        self.verdicts().filter(|s| s.is_nondeterministic()).count()
    }
}

/// Classify every distinct failure signature of one finished run and
/// annotate the summary's failures in place. `preset` is the builder the
/// run was built from: each probe re-runs a failing file from a clone of
/// it, narrowed to that file and without observers or result cache, so
/// the baseline replays exactly the configuration that failed.
///
/// ```
/// use squality_core::{annotate_run, Harness, StabilityConfig};
/// use squality_corpus::generate_suite_scaled;
/// use squality_engine::EngineDialect;
/// use squality_formats::SuiteKind;
/// use squality_runner::Outcome;
///
/// let suite = generate_suite_scaled(SuiteKind::PgRegress, 7, 0.03);
/// let builder = Harness::builder().suite(&suite).host(EngineDialect::Sqlite);
/// let mut run = builder.clone().build().expect("a suite was configured").run();
/// annotate_run(&builder, &mut run.summary, &StabilityConfig::default().with_reruns(1));
/// assert!(run.summary.failures.iter().all(|case| match &case.result.outcome {
///     Outcome::Fail(info) => info.signature.stability.is_some(),
///     _ => true,
/// }));
/// ```
pub fn annotate_run(
    preset: &HarnessBuilder<'_>,
    summary: &mut SuiteRunSummary,
    config: &StabilityConfig,
) {
    let mut targets: Vec<Target<'_>> = Vec::new();
    let mut seen: HashMap<FailureSignature, usize> = HashMap::new();
    for case in &summary.failures {
        let Outcome::Fail(info) = &case.result.outcome else { continue };
        if seen.contains_key(&info.signature) {
            continue;
        }
        // The failing file is always among the run's own files; skipping a
        // (impossible) miss beats poisoning the whole annotation pass.
        let Some(file_preset) = preset.for_file(&case.file) else { continue };
        seen.insert(info.signature.clone(), targets.len());
        targets.push(Target {
            preset: file_preset,
            line: case.id.line as usize,
            id: Some(case.id),
            signature: Some(info.signature.clone()),
            original: "fail",
        });
    }
    let verdicts = classify_targets(&targets, config);
    let verdicts: HashMap<FailureSignature, Stability> =
        seen.into_iter().map(|(signature, at)| (signature, verdicts[at].clone())).collect();
    stamp(summary, &verdicts);
}

/// The study's stability arm: cluster every failure, take one exemplar
/// per cluster plus every deduplicated bug finding, classify each from
/// the configuration its cell ran in ([`cell_run`] with the study's
/// `plan_cache`), thread the verdicts back onto the study's failures and
/// bugs, and file the report as `study.stability`. Annotated and
/// pre-annotation signatures are distinct clustering keys by design:
/// `stability` participates in `Eq`/`Hash`.
pub(crate) fn classify_study(
    study: &mut Study,
    plan_cache: &Arc<PlanCache>,
    config: &StabilityConfig,
) {
    let (total_failures, clusters) = cluster_failures(study);
    let verdicts = classify_targets(&study_targets(study, plan_cache, &clusters), config);
    let (cluster_verdicts, bug_verdicts) = verdicts.split_at(clusters.len());
    let clusters: Vec<ClusterVerdict> = clusters
        .iter()
        .zip(cluster_verdicts)
        .map(|(c, stability)| ClusterVerdict {
            signature: strip(&c.signature),
            count: c.count,
            cell: c.exemplar.cell.label(),
            class_label: c.class_label(),
            file: c.exemplar.file.clone(),
            stability: stability.clone(),
        })
        .collect();
    let bugs: Vec<BugVerdict> = study
        .bugs
        .iter()
        .zip(bug_verdicts)
        .map(|(b, stability)| BugVerdict {
            host: b.host,
            is_crash: b.is_crash,
            file: b.incident.file.clone(),
            line: b.incident.line,
            stability: stability.clone(),
        })
        .collect();

    let by_signature: HashMap<FailureSignature, Stability> =
        clusters.iter().map(|c| (c.signature.clone(), c.stability.clone())).collect();
    for run in &mut study.donor_runs {
        stamp(run, &by_signature);
    }
    for cell in study.matrix.iter_mut().chain(&mut study.translated_matrix) {
        stamp(&mut cell.summary, &by_signature);
    }
    for (bug, verdict) in study.bugs.iter_mut().zip(&bugs) {
        bug.stability = Some(verdict.stability.clone());
    }
    study.stability =
        Some(StabilityReport { reruns: config.reruns, total_failures, clusters, bugs });
}

/// One target per cluster exemplar, then one per bug finding, each
/// preset from the configuration its study cell ran in.
fn study_targets<'s>(
    study: &'s Study,
    plan_cache: &Arc<PlanCache>,
    clusters: &[FailureCluster],
) -> Vec<Target<'s>> {
    let preset = |cell: CellRef, name: &str| {
        cell_run(cell, &study.suites, &study.config, plan_cache)
            .for_file(name)
            .expect("target file is in its suite")
    };
    let clusters = clusters.iter().map(|cluster| Target {
        preset: preset(cluster.exemplar.cell, &cluster.exemplar.file),
        line: cluster.exemplar.id.line as usize,
        id: Some(cluster.exemplar.id),
        signature: Some(strip(&cluster.signature)),
        original: "fail",
    });
    // Bugs are collected from the verbatim matrix (see `run_study_cached`),
    // so that is the cell the probe replays.
    let bugs = study.bugs.iter().map(|bug| Target {
        preset: preset(
            CellRef { suite: bug.donor_suite, host: bug.host, arm: BugArm::Verbatim },
            &bug.incident.file,
        ),
        line: bug.incident.line,
        id: None,
        signature: None,
        original: if bug.is_crash { "crash" } else { "hang" },
    });
    clusters.chain(bugs).collect()
}

/// Set `signature.stability` on every failure of `summary` whose signature
/// has a verdict.
fn stamp(summary: &mut SuiteRunSummary, verdicts: &HashMap<FailureSignature, Stability>) {
    for case in &mut summary.failures {
        if let Outcome::Fail(info) = &mut case.result.outcome {
            if let Some(verdict) = verdicts.get(&info.signature) {
                info.signature.stability = Some(verdict.clone());
            }
        }
    }
}

/// Classify every target on the shared worker [`pool`]. Verdicts come
/// back in target order whatever the worker count, and the calling thread
/// is one of the workers.
fn classify_targets(targets: &[Target<'_>], config: &StabilityConfig) -> Vec<Stability> {
    pool(config.workers, targets.len(), |_: &mut (), i| classify_target(&targets[i], config)).0
}

/// The rerun + perturbation matrix for one target. Baseline reruns come
/// first — any divergence is flakiness and the axes are not consulted —
/// then each axis in [`PerturbationAxis::ALL`] order, first flip wins.
fn classify_target(target: &Target<'_>, config: &StabilityConfig) -> Stability {
    let mut observed: Vec<&'static str> = vec![target.original];
    for _ in 0..config.reruns {
        observed.push(probe(target, Variation::Baseline));
    }
    let mut distinct = observed;
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() > 1 {
        return Stability::Flaky {
            observed_outcomes: distinct.into_iter().map(String::from).collect(),
        };
    }
    for axis in PerturbationAxis::ALL {
        if axis == PerturbationAxis::Backend && !config.backend_axis {
            continue;
        }
        if probe(target, Variation::Axis(axis)) != target.original {
            return Stability::PerturbationSensitive { axis };
        }
    }
    Stability::Stable
}

/// Execute one probe: the target's preset with at most one knob flipped,
/// read back as an outcome label.
fn probe(target: &Target<'_>, variation: Variation) -> &'static str {
    let mut builder = target.preset.clone();
    match variation {
        Variation::Baseline => {}
        Variation::Axis(PerturbationAxis::ExecStrategy) => {
            builder.exec_strategy = match builder.exec_strategy {
                ExecStrategy::Hash => ExecStrategy::Naive,
                ExecStrategy::Naive => ExecStrategy::Hash,
            };
        }
        Variation::Axis(PerturbationAxis::PlanCache) => {
            builder.plan_cache = match builder.plan_cache {
                Some(_) => None,
                None => Some(PlanCache::shared()),
            };
        }
        Variation::Axis(PerturbationAxis::FaultProfile) => {
            builder.faults = flip_faults(builder.faults);
        }
        // No fault hooks are added: the question is whether the failure
        // crosses the process boundary, not whether the worker survives.
        Variation::Axis(PerturbationAxis::Backend) => {
            builder.backend = match builder.backend {
                BackendSpec::InProcess => BackendSpec::subprocess(),
                BackendSpec::Subprocess { .. } => BackendSpec::InProcess,
            };
        }
    }
    observe(&builder.build().expect("files are always set").run().summary, target)
}

/// Read a probe summary back as the target's outcome label: `"fail"`
/// (same record, same signature), `"fail-other"` (same record, different
/// signature), `"crash"`, `"hang"`, or `"pass"`.
fn observe(summary: &SuiteRunSummary, target: &Target<'_>) -> &'static str {
    if let Some(id) = target.id {
        if let Some(case) = summary.failures.iter().find(|f| f.id == id) {
            let Outcome::Fail(info) = &case.result.outcome else { return "fail-other" };
            return match &target.signature {
                Some(want) if info.signature == *want => "fail",
                Some(_) => "fail-other",
                None => "fail",
            };
        }
    } else if summary.failures.iter().any(|f| f.id.line as usize == target.line) {
        // Bug targets have no record id: an ordinary failure at the
        // incident line means the crash/hang degraded to a plain failure.
        return "fail";
    }
    if summary.crashes.iter().any(|c| c.line == target.line) {
        "crash"
    } else if summary.hangs.iter().any(|h| h.line == target.line) {
        "hang"
    } else {
        "pass"
    }
}

/// The fault-profile axis: paper-versions ↔ all-fixed. An
/// injected-fault finding vanishes under the flip — that is exactly the
/// "not deterministically reachable on a fixed engine" reading.
fn flip_faults(faults: FaultProfile) -> FaultProfile {
    if faults == FaultProfile::all_fixed() {
        FaultProfile::default()
    } else {
        FaultProfile::all_fixed()
    }
}

/// A signature with the stability annotation removed — the form every
/// probe observes, and the clustering key verdicts are filed under.
fn strip(signature: &FailureSignature) -> FailureSignature {
    let mut stripped = signature.clone();
    stripped.stability = None;
    stripped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{run_study, StudyConfig};

    fn stable_study() -> Study {
        run_study(
            StudyConfig::default()
                .with_seed(21)
                .with_scale(0.06)
                .with_stability_arm(StabilityConfig::default().with_reruns(2)),
        )
    }

    #[test]
    fn every_target_is_classified_and_faults_read_sensitive() {
        let s = stable_study();
        let report = s.stability.as_ref().expect("stability arm ran");
        assert!(report.total_failures > 0);
        assert!(!report.clusters.is_empty());
        assert!(!report.bugs.is_empty());
        assert_eq!(
            report.stable_count() + report.flaky_count() + report.sensitive_count(),
            report.total(),
            "every cluster and bug must receive a verdict"
        );
        // Crash findings only exist as injected engine faults, and those
        // vanish when the profile flips to all-fixed: every crash must
        // read fault-profile sensitive. (Hangs may also be emergent —
        // the step-budget guard converting a genuinely looping query —
        // and those correctly read stable: they reproduce everywhere.)
        let sensitive = Stability::PerturbationSensitive { axis: PerturbationAxis::FaultProfile };
        for bug in report.bugs.iter().filter(|b| b.is_crash) {
            assert_eq!(
                bug.stability, sensitive,
                "crash at {}:{} misclassified",
                bug.file, bug.line
            );
        }
        assert!(
            report
                .bugs
                .iter()
                .all(|b| b.stability == sensitive || b.stability == Stability::Stable),
            "unexpected bug verdicts: {:?}",
            report.bugs
        );
        assert!(report.nondeterministic_count() >= 1);
        // The simulated engines are deterministic, so the ordinary
        // incompatibility clusters must read stable.
        assert!(report.stable_count() >= 1, "no stable cluster at all");
    }

    #[test]
    fn verdicts_are_threaded_onto_the_study() {
        let s = stable_study();
        let report = s.stability.as_ref().expect("stability arm ran");
        // Every bug finding carries its verdict.
        for bug in &s.bugs {
            assert!(bug.stability.is_some(), "unannotated bug: {bug:?}");
        }
        // Every matrix failure whose signature was classified carries it.
        let mut annotated = 0usize;
        for cell in &s.matrix {
            for case in &cell.summary.failures {
                if let Outcome::Fail(info) = &case.result.outcome {
                    if info.signature.stability.is_some() {
                        annotated += 1;
                    }
                }
            }
        }
        assert!(annotated > 0, "no annotated matrix failure");
        // A stable-classified cluster signature round-trips: stripping
        // the annotation recovers the clustering key.
        let stable = report
            .clusters
            .iter()
            .find(|c| c.stability == Stability::Stable)
            .expect("a stable cluster");
        assert_eq!(strip(&stable.signature), stable.signature);
    }

    #[test]
    fn stability_table_is_deterministic_across_worker_counts() {
        let mut study = run_study(StudyConfig::default().with_seed(21).with_scale(0.05));
        let plan_cache = PlanCache::shared();
        // Re-classifying an annotated study reads the same clusters: every
        // failure of a cluster carries the same verdict.
        let mut run = |workers: usize| {
            let config = StabilityConfig::default().with_reruns(2).with_workers(workers);
            classify_study(&mut study, &plan_cache, &config);
            study.stability.take().expect("the arm files its report")
        };
        let base = run(1);
        let base_table = crate::report::stability_table(&base);
        assert!(base_table.contains("non-deterministically reachable"), "{base_table}");
        for workers in [2, 8] {
            let got = run(workers);
            assert_eq!(got.clusters.len(), base.clusters.len(), "workers={workers}");
            for (a, b) in base.clusters.iter().zip(got.clusters.iter()) {
                assert_eq!(a.signature, b.signature, "workers={workers}");
                assert_eq!(a.stability, b.stability, "workers={workers}");
            }
            for (a, b) in base.bugs.iter().zip(got.bugs.iter()) {
                assert_eq!(a.stability, b.stability, "workers={workers}");
            }
            assert_eq!(crate::report::stability_table(&got), base_table, "workers={workers}");
        }
    }

    #[test]
    fn each_in_process_axis_reads_as_the_verdicts_expect() {
        // Every in-process probe runs the target's preset with one builder
        // knob changed. Read axis by axis, the outcomes must add up to the
        // verdicts `every_target_is_classified_and_faults_read_sensitive`
        // checks: the cell replays its observation, strategy and plan
        // cache never move a deterministic engine, and only the
        // fault-profile flip makes the injected crashes vanish.
        let s = run_study(StudyConfig::default().with_seed(21).with_scale(0.06));
        let (_, clusters) = cluster_failures(&s);
        let targets = study_targets(&s, &PlanCache::shared(), &clusters);
        assert_eq!(targets.len(), clusters.len() + s.bugs.len());
        // The presets are the study's cell configuration: paper faults,
        // the hash strategy and the shared plan cache.
        for target in &targets {
            assert_eq!(
                target.preset.faults,
                FaultProfile::default(),
                "study cells run paper faults"
            );
            assert_eq!(target.preset.exec_strategy, ExecStrategy::Hash);
            assert!(target.preset.plan_cache.is_some(), "study cells share a plan cache");
        }
        let (mut crashes, mut fault_flips) = (0, 0);
        for (i, target) in targets.iter().enumerate() {
            let read = |variation| probe(target, variation);
            assert_eq!(read(Variation::Baseline), target.original, "target {i} baseline");
            for axis in [PerturbationAxis::ExecStrategy, PerturbationAxis::PlanCache] {
                assert_eq!(read(Variation::Axis(axis)), target.original, "target {i} {axis:?}");
            }
            let fixed = read(Variation::Axis(PerturbationAxis::FaultProfile));
            if target.original == "crash" {
                crashes += 1;
                assert_ne!(fixed, "crash", "target {i}: crash survived the all-fixed profile");
            }
            if fixed != target.original {
                fault_flips += 1;
            }
        }
        assert!(crashes >= 1, "no crash finding to flip");
        // Nondeterministic targets exist, and ordinary clusters stay put.
        assert!(fault_flips >= crashes);
        assert!(fault_flips < targets.len(), "every target flipped");
    }
}
