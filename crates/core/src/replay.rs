//! Regression replay: run the whole bug-store repro corpus as a suite.
//!
//! Each [`BugEntry`] is a self-contained, minimized repro with full
//! provenance: the cell configuration it failed under and the donor
//! environment it needs. Replay turns the store into a first-class
//! regression suite — parse every verified repro, group entries by cell
//! configuration, execute each group through one [`Harness`] run (any
//! backend, any worker count, byte-deterministic event log), and report
//! each entry's *transition*:
//!
//! * **still-failing** — the repro re-failed with its stored signature
//!   (modulo stability annotation): the bug is still present,
//! * **fixed** — the repro ran cleanly: the bug is gone,
//! * **regressed** — the repro failed *differently* (another signature,
//!   a crash, or a hang): behavior moved in a new way and the entry
//!   needs human eyes.
//!
//! Tombstones and unverified entries are skipped (they never reproduced
//! standalone, so a clean replay says nothing) and counted in
//! [`ReplayReport::skipped`].

use crate::harness::Harness;
use crate::triage::{Arm, CellRef};
use squality_backend::BackendSpec;
use squality_bugstore::{BugArm, BugEntry, BugStore};
use squality_formats::{parse_slt, suite_tag, ContentHasher, SltFlavor, TestFile};
use squality_runner::sigcodec::engine_dialect_tag;
use squality_runner::{FailureSignature, Outcome, RunObserver, Stability};

/// Replay parameters.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ReplayConfig {
    /// Scheduler workers per group run (`0` = all cores). Purely a
    /// throughput knob: the report and event log are byte-identical at
    /// every worker count.
    pub workers: usize,
    /// Where replay runs execute — [`BackendSpec::Subprocess`] replays
    /// the corpus across the process boundary.
    pub backend: BackendSpec,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig { workers: 0, backend: BackendSpec::InProcess }
    }
}

impl ReplayConfig {
    /// Replace the worker count (0 = all cores).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replace the execution backend.
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }
}

/// What one entry's replay observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayStatus {
    /// Re-failed with the stored signature: the bug is still there.
    StillFailing,
    /// Ran cleanly: the bug is gone.
    Fixed,
    /// Failed differently (new signature, crash, or hang).
    Regressed,
}

impl ReplayStatus {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            ReplayStatus::StillFailing => "still-failing",
            ReplayStatus::Fixed => "fixed",
            ReplayStatus::Regressed => "REGRESSED",
        }
    }
}

/// One replayed entry's transition.
#[derive(Debug, Clone)]
pub struct ReplayEntry {
    /// Store key of the entry.
    pub key: u64,
    /// Repro file name from the entry.
    pub repro_name: String,
    /// Cell display label (`"PostgreSQL→duckdb (translated)"`-style).
    pub cell_label: String,
    /// The stored signature the replay compares against.
    pub signature: FailureSignature,
    /// The stored stability verdict, when one was recorded.
    pub stability: Option<Stability>,
    /// The transition.
    pub status: ReplayStatus,
    /// For [`ReplayStatus::Regressed`]: the first differing failure
    /// signature observed, when the regression was a classified failure
    /// (crashes and hangs carry none).
    pub observed: Option<FailureSignature>,
    /// Record count of the replayed repro.
    pub records: usize,
}

/// Everything a replay run produces. The entries are ordered by store
/// key, so the report is independent of grouping and worker count.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Per-entry transitions, ordered by key.
    pub entries: Vec<ReplayEntry>,
    /// Entries not replayed: tombstones and unverified repros.
    pub skipped: usize,
    /// Records executed across all group runs (throughput accounting).
    pub total_statements: usize,
    /// Wall clock — advisory only, excluded from determinism.
    pub elapsed_nanos: u64,
}

impl ReplayReport {
    /// Entries that re-failed with their stored signature.
    pub fn still_failing(&self) -> usize {
        self.entries.iter().filter(|e| e.status == ReplayStatus::StillFailing).count()
    }

    /// Entries that ran cleanly.
    pub fn fixed(&self) -> usize {
        self.entries.iter().filter(|e| e.status == ReplayStatus::Fixed).count()
    }

    /// Entries that failed differently.
    pub fn regressed(&self) -> usize {
        self.entries.iter().filter(|e| e.status == ReplayStatus::Regressed).count()
    }

    /// Replayed records per second (0 when nothing ran).
    pub fn statements_per_sec(&self) -> f64 {
        if self.elapsed_nanos == 0 {
            0.0
        } else {
            self.total_statements as f64 / (self.elapsed_nanos as f64 / 1e9)
        }
    }
}

/// Replay every verified entry of `store`. See the module docs.
pub fn replay_store(store: &BugStore, config: &ReplayConfig) -> ReplayReport {
    replay_store_with_observers(store, config, &[])
}

/// [`replay_store`], streaming each group run's
/// [`RunEvent`](squality_runner::RunEvent)s to the observers. Groups
/// execute sequentially in a deterministic order (cell configuration,
/// then environment hash), so the combined event log is byte-identical
/// at every worker count.
pub fn replay_store_with_observers(
    store: &BugStore,
    config: &ReplayConfig,
    observers: &[&dyn RunObserver],
) -> ReplayReport {
    let started = std::time::Instant::now();
    let mut report = ReplayReport::default();

    // Group replayable entries by everything a Harness run fixes: cell
    // configuration plus the exact donor environment. Entries from
    // different studies may carry different environments for the same
    // cell, so the environment hash is part of the key.
    let mut groups: Vec<(GroupKey, Vec<(u64, BugEntry)>)> = Vec::new();
    for (key, entry) in store.entries() {
        if !entry.reproduced || entry.repro_text.is_empty() {
            report.skipped += 1;
            continue;
        }
        let gk = group_key(&entry);
        match groups.iter_mut().find(|(k, _)| *k == gk) {
            Some((_, members)) => members.push((key, entry)),
            None => groups.push((gk, vec![(key, entry)])),
        }
    }
    groups.sort_by_key(|(k, _)| *k);

    for (_, members) in &groups {
        let cell = cell_of(&members[0].1);
        let env = members[0].1.environment.clone();
        let (client, provision, translate) = cell.exec();
        // Prefix each file with its key: repro names are only unique
        // within the study that minted them.
        let files: Vec<TestFile> = members
            .iter()
            .map(|(key, entry)| {
                let name = format!("{key:016x}-{}", entry.repro_name);
                let mut file = parse_slt(&name, &entry.repro_text, SltFlavor::Duckdb);
                file.suite = cell.suite;
                file
            })
            .collect();
        let mut builder = Harness::builder()
            .files(cell.suite, &files)
            .environment(&env)
            .host(cell.host)
            .client(client)
            .provision(provision)
            .translate(translate)
            .workers(config.workers)
            .backend(config.backend.clone())
            .label(format!("replay {}", cell.label()));
        for obs in observers {
            builder = builder.observer(*obs);
        }
        let summary = builder.build().expect("files are always set").run().summary;
        report.total_statements += summary.executed;

        for ((key, entry), file) in members.iter().zip(&files) {
            let mut want = entry.signature.clone();
            want.stability = None;
            let mut observed = None;
            let mut still_failing = false;
            let mut other_failure = false;
            for f in summary.failures.iter().filter(|f| f.file == file.name) {
                let Outcome::Fail(info) = &f.result.outcome else { continue };
                if info.signature == want {
                    still_failing = true;
                } else {
                    other_failure = true;
                    if observed.is_none() {
                        observed = Some(info.signature.clone());
                    }
                }
            }
            let abnormal = summary.crashes.iter().any(|c| c.file == file.name)
                || summary.hangs.iter().any(|h| h.file == file.name);
            let status = if still_failing {
                ReplayStatus::StillFailing
            } else if other_failure || abnormal {
                ReplayStatus::Regressed
            } else {
                ReplayStatus::Fixed
            };
            report.entries.push(ReplayEntry {
                key: *key,
                repro_name: entry.repro_name.clone(),
                cell_label: cell.label(),
                signature: entry.signature.clone(),
                stability: entry.stability.clone(),
                status,
                observed: if status == ReplayStatus::Regressed { observed } else { None },
                records: file.record_count(),
            });
        }
    }

    report.entries.sort_by_key(|e| e.key);
    report.elapsed_nanos = started.elapsed().as_nanos() as u64;
    report
}

/// The triage-side cell a bug entry came from.
pub(crate) fn cell_of(entry: &BugEntry) -> CellRef {
    CellRef {
        suite: entry.suite,
        host: entry.host,
        arm: match entry.arm {
            BugArm::DonorBare => Arm::DonorBare,
            BugArm::Verbatim => Arm::Verbatim,
            BugArm::Translated => Arm::Translated,
        },
    }
}

type GroupKey = (u8, u8, u8, u64);

fn group_key(entry: &BugEntry) -> GroupKey {
    let env = &entry.environment;
    let mut h = ContentHasher::new();
    h.write_usize(env.data_files.len());
    for (path, lines) in &env.data_files {
        h.write_str(path);
        h.write_usize(lines.len());
        for line in lines {
            h.write_str(line);
        }
    }
    h.write_usize(env.extensions.len());
    for ext in &env.extensions {
        h.write_str(ext);
    }
    h.write_usize(env.setup_sql.len());
    for sql in &env.setup_sql {
        h.write_str(sql);
    }
    (suite_tag(entry.suite), engine_dialect_tag(entry.host), entry.arm.tag(), h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{run_study, StudyConfig};
    use crate::triage::{triage_study, TriageConfig};
    use std::sync::Arc;

    fn temp_store(tag: &str) -> Arc<BugStore> {
        let dir =
            std::env::temp_dir().join(format!("squality-replay-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        BugStore::shared(dir)
    }

    fn populated_store(tag: &str) -> Arc<BugStore> {
        let study = run_study(StudyConfig::default().with_seed(21).with_scale(0.06));
        let store = temp_store(tag);
        let config = TriageConfig::default()
            .with_reduce(true)
            .with_workers(2)
            .with_max_probes(48)
            .with_store(Arc::clone(&store));
        triage_study(&study, &config);
        store
    }

    #[test]
    fn replay_reports_every_verified_entry_still_failing() {
        let store = populated_store("transitions");
        let verified = store
            .entries()
            .iter()
            .filter(|(_, e)| e.reproduced && !e.repro_text.is_empty())
            .count();
        assert!(verified > 0, "triage stored no verified repros");
        let report = replay_store(&store, &ReplayConfig::default().with_workers(2));
        assert_eq!(report.entries.len(), verified);
        assert_eq!(report.skipped, store.entries().len() - verified);
        // Nothing changed between triage and replay: every repro must
        // re-fail with its stored signature.
        assert_eq!(report.still_failing(), verified, "entries regressed or got fixed");
        assert_eq!((report.fixed(), report.regressed()), (0, 0));
        assert!(report.total_statements > 0);
        for pair in report.entries.windows(2) {
            assert!(pair[0].key < pair[1].key, "entries ordered by key");
        }
        store.clear().unwrap();
    }

    #[test]
    fn replay_is_deterministic_across_worker_counts() {
        let store = populated_store("determinism");
        let base = replay_store(&store, &ReplayConfig::default().with_workers(1));
        let base_table = crate::report::replay_table(&base);
        for workers in [2, 8] {
            let got = replay_store(&store, &ReplayConfig::default().with_workers(workers));
            assert_eq!(
                crate::report::replay_table(&got),
                base_table,
                "replay table differs at workers={workers}"
            );
        }
        store.clear().unwrap();
    }

    #[test]
    fn fixed_and_regressed_transitions_are_detected() {
        let store = populated_store("edits");
        let (key, mut entry) = store
            .entries()
            .into_iter()
            .find(|(_, e)| e.reproduced && !e.repro_text.is_empty())
            .expect("a verified entry");
        // A repro that cannot fail: the entry must read as fixed.
        entry.repro_text = "statement ok\nSELECT 1\n".to_string();
        store.store(&entry);
        let report = replay_store(&store, &ReplayConfig::default().with_workers(2));
        let replayed = report.entries.iter().find(|e| e.key == key).expect("entry replayed");
        assert_eq!(replayed.status, ReplayStatus::Fixed);
        // A repro failing with a different signature: regressed.
        entry.repro_text = "statement ok\nSELECT no_such_fn_xyz(1)\n".to_string();
        store.store(&entry);
        let report = replay_store(&store, &ReplayConfig::default().with_workers(2));
        let replayed = report.entries.iter().find(|e| e.key == key).expect("entry replayed");
        assert_eq!(replayed.status, ReplayStatus::Regressed);
        assert!(replayed.observed.is_some(), "regression carries the observed signature");
        store.clear().unwrap();
    }
}
