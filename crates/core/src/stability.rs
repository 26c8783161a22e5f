//! The flakiness arm: perturbed re-execution and stability classification.
//!
//! The paper treats every failure as a fixed fact about a suite × host
//! pair, but real harnesses ask a prior question first: *does this
//! failure even reproduce?* A result that appears only under one worker
//! count, one execution strategy, or one fault schedule is a harness
//! finding, not a portability finding, and mixing the two poisons every
//! downstream table. This module answers the question mechanically:
//!
//! 1. **Rerun** — every failing record (and every crash/hang bug
//!    finding) re-executes [`StabilityConfig::reruns`] times under its
//!    original cell configuration. Any divergence across identical runs
//!    is [`Stability::Flaky`] with the observed outcome set.
//! 2. **Perturb** — records that rerun identically are then probed once
//!    per [`PerturbationAxis`]: scheduler worker count, naive-vs-hash
//!    execution strategy, statement-plan cache on/off, the engine fault
//!    profile flipped between paper-versions and all-fixed, and (opt-in,
//!    [`StabilityConfig::fault_schedules`]) a subprocess backend under a
//!    seeded `SQUALITY_CRASH_AFTER`/`SQUALITY_HANG_AFTER` schedule. The
//!    first axis that changes the outcome yields
//!    [`Stability::PerturbationSensitive`].
//! 3. **Classify** — everything else is [`Stability::Stable`]: the
//!    failure reproduces byte-identically under every probe, so it is
//!    safe to cluster, dedupe, reduce, and report as a real
//!    incompatibility.
//!
//! Verdicts are threaded back onto the study in place:
//! [`FailureSignature::stability`] is annotated on every failure (so
//! triage clustering separates a stable cluster from a
//! perturbation-sensitive one with the same message) and
//! [`BugFinding::stability`] on every crash/hang finding. The analysis
//! itself is deterministic — probes are pure harness runs, schedules are
//! seeded, and the worker pool stitches verdicts in target order — so
//! the stability table is byte-identical at every worker count.
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

use crate::experiments::Study;
use crate::harness::Harness;
use crate::transplant::{Provision, SuiteRunSummary};
use crate::triage::{cluster_failures, Arm, CellRef};
use squality_backend::BackendSpec;
use squality_corpus::DonorEnvironment;
use squality_engine::{ClientKind, EngineDialect, ExecStrategy, FaultProfile, PlanCache};
use squality_formats::{RecordId, SuiteKind, TestFile};
use squality_runner::{
    pool, EngineConnector, FailureSignature, Outcome, PerturbationAxis, Stability,
};
use std::collections::HashMap;
use std::time::Duration;

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
    /// Seed for the subprocess fault schedules (and any future
    /// randomized probe). The analysis is deterministic given it.
    pub seed: u64,
    /// Worker threads the targets fan out over (`0` = all cores).
    /// Purely a throughput knob: verdicts are stitched in target order,
    /// so the report is byte-identical at every count.
    pub workers: usize,
    /// Also probe the subprocess-backend axis: re-run each target behind
    /// a `squality-backend-worker` process under a seeded
    /// `SQUALITY_CRASH_AFTER`/`SQUALITY_HANG_AFTER` schedule. Off by
    /// default — it spawns one child process per target.
    pub fault_schedules: bool,
    /// Per-statement deadline for the fault-schedule probes. Short by
    /// default so hang-prone records rerun quickly.
    pub backend_deadline: Duration,
}

impl Default for StabilityConfig {
    fn default() -> Self {
        StabilityConfig {
            reruns: 3,
            seed: 0x57AB1E,
            workers: 0,
            fault_schedules: false,
            backend_deadline: Duration::from_millis(250),
        }
    }
}

impl StabilityConfig {
    /// Replace the baseline rerun count.
    pub fn with_reruns(mut self, reruns: usize) -> Self {
        self.reruns = reruns;
        self
    }

    /// Replace the fault-schedule seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the analysis worker count (0 = all cores).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enable or disable the subprocess fault-schedule axis.
    pub fn with_fault_schedules(mut self, fault_schedules: bool) -> Self {
        self.fault_schedules = fault_schedules;
        self
    }

    /// Replace the fault-schedule probe deadline.
    pub fn with_backend_deadline(mut self, deadline: Duration) -> Self {
        self.backend_deadline = deadline;
        self
    }
}

/// The cell configuration a stability probe replicates: everything a
/// [`Harness`] needs to re-execute one file the way the original run
/// executed it. Built by `Harness::run` for its own failures and from a
/// triage [`CellRef`] for study clusters.
#[derive(Clone)]
pub(crate) struct ProbeCell<'a> {
    pub(crate) kind: SuiteKind,
    pub(crate) host: EngineDialect,
    pub(crate) client: ClientKind,
    pub(crate) provision: Provision,
    pub(crate) translate: bool,
    pub(crate) faults: FaultProfile,
    pub(crate) env: Option<&'a DonorEnvironment>,
    pub(crate) label: String,
}

/// One record (or incident) under stability analysis.
struct Target<'a> {
    cell: ProbeCell<'a>,
    file: &'a TestFile,
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
    /// The original cell configuration, unchanged (the rerun arm).
    Baseline,
    /// One axis perturbed.
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

/// Run the stability arm over a finished study: cluster every failure,
/// take one exemplar per cluster plus every deduplicated bug finding,
/// and classify each under the rerun + perturbation matrix. Pure
/// analysis — the study is untouched; see [`annotate_study`] for
/// threading the verdicts back.
pub fn stability_report(study: &Study, config: &StabilityConfig) -> StabilityReport {
    let (total_failures, clusters) = cluster_failures(study);

    let mut targets: Vec<Target<'_>> = Vec::new();
    for cluster in &clusters {
        let cell_ref = cluster.exemplar.cell;
        let gs = study.suite(cell_ref.suite);
        let file = gs
            .files
            .iter()
            .find(|f| f.name == cluster.exemplar.file)
            .expect("exemplar file is in its suite");
        targets.push(Target {
            cell: probe_cell_of(cell_ref, &gs.environment),
            file,
            line: cluster.exemplar.id.line as usize,
            id: Some(cluster.exemplar.id),
            signature: Some(strip(&cluster.signature)),
            original: "fail",
        });
    }
    for bug in &study.bugs {
        // Bugs are collected from the verbatim matrix (see
        // `run_study_cached`), so that is the cell the probe replays.
        let cell_ref = CellRef { suite: bug.donor_suite, host: bug.host, arm: Arm::Verbatim };
        let gs = study.suite(bug.donor_suite);
        let file = gs
            .files
            .iter()
            .find(|f| f.name == bug.incident.file)
            .expect("incident file is in its suite");
        targets.push(Target {
            cell: probe_cell_of(cell_ref, &gs.environment),
            file,
            line: bug.incident.line,
            id: None,
            signature: None,
            original: if bug.is_crash { "crash" } else { "hang" },
        });
    }

    let mut verdicts = classify_targets(&targets, config).into_iter();
    let clusters = clusters
        .iter()
        .map(|c| ClusterVerdict {
            signature: strip(&c.signature),
            count: c.count,
            cell: c.exemplar.cell.label(),
            class_label: c.class_label(),
            file: c.exemplar.file.clone(),
            stability: verdicts.next().expect("one verdict per cluster"),
        })
        .collect();
    let bugs = study
        .bugs
        .iter()
        .map(|b| BugVerdict {
            host: b.host,
            is_crash: b.is_crash,
            file: b.incident.file.clone(),
            line: b.incident.line,
            stability: verdicts.next().expect("one verdict per bug"),
        })
        .collect();
    StabilityReport { reruns: config.reruns, total_failures, clusters, bugs }
}

/// Thread a report's verdicts back onto the study: every failure whose
/// signature matches a classified cluster gets
/// `signature.stability = Some(verdict)` — in the donor runs and both
/// matrix arms — and every bug finding gets its verdict. Annotated and
/// pre-annotation signatures are distinct clustering keys by design:
/// `stability` participates in `Eq`/`Hash`.
pub fn annotate_study(study: &mut Study, report: &StabilityReport) {
    let verdicts: HashMap<FailureSignature, Stability> =
        report.clusters.iter().map(|c| (c.signature.clone(), c.stability.clone())).collect();
    let annotate = |summary: &mut SuiteRunSummary| {
        for case in &mut summary.failures {
            if let Outcome::Fail(info) = &mut case.result.outcome {
                if let Some(verdict) = verdicts.get(&info.signature) {
                    info.signature.stability = Some(verdict.clone());
                }
            }
        }
    };
    for run in &mut study.donor_runs {
        annotate(run);
    }
    for cell in &mut study.matrix {
        annotate(&mut cell.summary);
    }
    for cell in &mut study.translated_matrix {
        annotate(&mut cell.summary);
    }
    for (bug, verdict) in study.bugs.iter_mut().zip(&report.bugs) {
        bug.stability = Some(verdict.stability.clone());
    }
}

/// The harness-level entry point: classify every distinct failure
/// signature of one finished run and annotate the summary's failures in
/// place. Called by `Harness::run` when
/// [`stability`](crate::HarnessBuilder::stability) is configured.
pub(crate) fn annotate_summary(
    cell: &ProbeCell<'_>,
    files: &[TestFile],
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
        let Some(file) = files.iter().find(|f| f.name == case.file) else { continue };
        seen.insert(info.signature.clone(), targets.len());
        targets.push(Target {
            cell: cell.clone(),
            file,
            line: case.id.line as usize,
            id: Some(case.id),
            signature: Some(info.signature.clone()),
            original: "fail",
        });
    }
    let verdicts = classify_targets(&targets, config);
    for case in &mut summary.failures {
        if let Outcome::Fail(info) = &mut case.result.outcome {
            if let Some(&at) = seen.get(&info.signature) {
                info.signature.stability = Some(verdicts[at].clone());
            }
        }
    }
}

/// Classify every target on the shared worker [`pool`]. Verdicts come
/// back in target order whatever the worker count, and the calling thread
/// is one of the workers.
fn classify_targets(targets: &[Target<'_>], config: &StabilityConfig) -> Vec<Stability> {
    pool(config.workers, targets.len(), |_: &mut (), i| classify_target(&targets[i], i, config)).0
}

/// The rerun + perturbation matrix for one target. Baseline reruns come
/// first — any divergence is flakiness and the axes are not consulted —
/// then each axis in [`PerturbationAxis::ALL`] order, first flip wins.
fn classify_target(target: &Target<'_>, index: usize, config: &StabilityConfig) -> Stability {
    let mut observed: Vec<&'static str> = vec![target.original];
    for _ in 0..config.reruns {
        observed.push(probe(target, Variation::Baseline, index, config));
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
        if axis == PerturbationAxis::BackendSchedule && !config.fault_schedules {
            continue;
        }
        if probe(target, Variation::Axis(axis), index, config) != target.original {
            return Stability::PerturbationSensitive { axis };
        }
    }
    Stability::Stable
}

/// Execute one probe: the target's file under its cell configuration
/// with at most one knob perturbed, read back as an outcome label.
fn probe(
    target: &Target<'_>,
    variation: Variation,
    index: usize,
    config: &StabilityConfig,
) -> &'static str {
    let cell = &target.cell;
    let faults = if variation == Variation::Axis(PerturbationAxis::FaultProfile) {
        flip_faults(cell.faults)
    } else {
        cell.faults
    };
    let files = std::slice::from_ref(target.file);
    let mut builder = Harness::builder()
        .files(cell.kind, files)
        .host(cell.host)
        .client(cell.client)
        .provision(cell.provision)
        .translate(cell.translate)
        .faults(faults)
        .label(format!("stability {} {}", cell.label, target.file.name));
    if let Some(env) = cell.env {
        builder = builder.environment(env);
    }
    let summary = match variation {
        Variation::Axis(PerturbationAxis::Workers) => {
            // Through the parallel scheduler — the determinism contract's
            // own axis. (A single file clamps to one worker; the probe
            // still exercises the scheduler path vs `run_on`.)
            builder.workers(2).build().expect("files are always set").run().summary
        }
        Variation::Axis(PerturbationAxis::BackendSchedule) => {
            // Behind a worker process under a seeded crash/hang schedule.
            // Both hooks are always set — the unused one to 0, which the
            // worker can never reach — so parent-process hooks are
            // overridden rather than inherited.
            let (crash, after) = seeded_schedule(config.seed, index);
            let (crash_after, hang_after) = if crash { (after, 0) } else { (0, after) };
            builder
                .backend(
                    BackendSpec::subprocess()
                        .with_deadline(config.backend_deadline)
                        .with_max_restarts(1),
                )
                .backend_env("SQUALITY_CRASH_AFTER", crash_after.to_string())
                .backend_env("SQUALITY_HANG_AFTER", hang_after.to_string())
                .build()
                .expect("files are always set")
                .run()
                .summary
        }
        // Baseline and the remaining axes run on one in-process
        // connection, like a triage probe. The connection is minted with
        // the probe's fault profile — `run_on` executes on the caller's
        // engine, so the profile must be set here, not on the builder.
        _ => {
            let mut conn = EngineConnector::with_faults(cell.host, cell.client, faults);
            if variation == Variation::Axis(PerturbationAxis::ExecStrategy) {
                conn.set_exec_strategy(ExecStrategy::Naive);
            }
            if variation == Variation::Axis(PerturbationAxis::PlanCache) {
                // The original cells run cache-less connections per probe;
                // the perturbation is attaching one.
                conn.set_plan_cache(PlanCache::shared());
            }
            builder.build().expect("files are always set").run_on(&mut conn)
        }
    };
    observe(&summary, target)
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

/// Build a probe cell from a triage cell reference: the study's
/// execution configuration for that cell, with the suite's recorded
/// environment.
fn probe_cell_of(cell_ref: CellRef, env: &DonorEnvironment) -> ProbeCell<'_> {
    let (client, provision, translate) = cell_ref.exec();
    ProbeCell {
        kind: cell_ref.suite,
        host: cell_ref.host,
        client,
        provision,
        translate,
        // Study cells run the default (paper-versions) profile.
        faults: FaultProfile::default(),
        env: Some(env),
        label: cell_ref.label(),
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

fn lcg(state: u64) -> u64 {
    state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// Seeded per-target schedule for the backend axis: crash or hang (by
/// parity) after 1–6 statements. Deterministic in (seed, target index).
fn seeded_schedule(seed: u64, index: usize) -> (bool, u64) {
    let s = lcg(lcg(seed ^ index as u64));
    (s & 1 == 0, 1 + (s >> 33) % 6)
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
        let study = run_study(StudyConfig::default().with_seed(21).with_scale(0.05));
        let run = |workers: usize| {
            stability_report(
                &study,
                &StabilityConfig::default().with_reruns(2).with_workers(workers),
            )
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
    fn seeded_schedules_are_deterministic_and_varied() {
        let a: Vec<(bool, u64)> = (0..16).map(|i| seeded_schedule(0x57AB1E, i)).collect();
        let b: Vec<(bool, u64)> = (0..16).map(|i| seeded_schedule(0x57AB1E, i)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|(crash, _)| *crash));
        assert!(a.iter().any(|(crash, _)| !*crash));
        assert!(a.iter().all(|(_, after)| (1..=6).contains(after)));
        // A different seed reshuffles.
        let c: Vec<(bool, u64)> = (0..16).map(|i| seeded_schedule(7, i)).collect();
        assert_ne!(a, c);
    }
}
