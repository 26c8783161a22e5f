//! Transplanting suites onto hosts (the paper's §2 methodology).
//!
//! A *donor* suite executes on a *host* engine under a chosen environment
//! provision level and client. The combinations reproduce the paper's
//! experiments:
//!
//! | Experiment | Host | Provision | Client |
//! |---|---|---|---|
//! | Donor validation (Tables 4–5) | donor | `Bare` | `Connector` |
//! | Cross-DBMS matrix (Fig. 4, Tables 6–7) | others | `CrossHost` | `Connector` |
//! | Expectation recording (corpus) | donor | `Full` | `Cli` |

use squality_engine::{EngineDialect, ErrorKind};
use squality_formats::{RecordId, SuiteKind};
use squality_runner::{FileResult, Outcome, RecordResult, SkipReason, TranslationCounts};

/// How much of the donor environment the host receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provision {
    /// Everything: data files, extensions, scheduler set-up (the donor CI).
    Full,
    /// What a porting engineer can carry over: data files and set-up SQL,
    /// but not the donor's binary extensions.
    CrossHost,
    /// Nothing — a fresh default installation (the paper's RQ3 situation).
    Bare,
}

/// A crash or hang observed while running a suite (paper §6).
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    pub file: String,
    pub line: usize,
    pub sql: Option<String>,
    pub message: String,
}

/// A failed record with its file, for sampling, classification, and
/// triage clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureCase {
    pub file: String,
    /// Stable id of the failing record within its file (source line plus
    /// execution ordinal) — what the triage table prints and the reducer
    /// anchors on.
    pub id: RecordId,
    pub result: RecordResult,
}

/// One distinct skip reason observed during a run, with its volume and
/// the first record (input order) that produced it — enough to trace an
/// aggregate count back to a concrete record, the way sampled failures
/// are traced through [`FailureCase`].
#[derive(Debug, Clone, PartialEq)]
pub struct SkipBreakdown {
    /// The interned reason, exactly as the runner recorded it.
    pub reason: SkipReason,
    /// How many records were skipped with this reason.
    pub count: usize,
    /// File of the first record skipped for this reason.
    pub first_file: String,
    /// Stable id of that record within its file.
    pub first: RecordId,
}

/// Aggregated result of one suite × host run.
#[derive(Debug, Clone)]
pub struct SuiteRunSummary {
    pub suite: SuiteKind,
    pub host: EngineDialect,
    pub total: usize,
    pub executed: usize,
    pub passed: usize,
    pub failed: usize,
    pub skipped: usize,
    pub crashes: Vec<Incident>,
    pub hangs: Vec<Incident>,
    pub failures: Vec<FailureCase>,
    /// Per-reason skip accounting, ordered by first occurrence (input
    /// order). Sums to `skipped`.
    pub skip_reasons: Vec<SkipBreakdown>,
    /// Per-rule translation counters for this run (all zero when the run
    /// was verbatim or the donor ran on itself).
    pub translation: TranslationCounts,
}

impl SuiteRunSummary {
    /// Success rate among executed, non-abnormal cases — the Figure 4
    /// metric (crashes and hangs are excluded there and reported apart).
    pub fn success_rate(&self) -> f64 {
        let denom = self.passed + self.failed;
        if denom == 0 {
            1.0
        } else {
            self.passed as f64 / denom as f64
        }
    }

    /// Failures the host rejected at the syntax level (the paper's
    /// "Statements" class core) — the metric the translated arm targets.
    pub fn syntax_failures(&self) -> usize {
        self.failures
            .iter()
            .filter(|f| match &f.result.outcome {
                Outcome::Fail(info) => info.error_kind == Some(ErrorKind::Syntax),
                _ => false,
            })
            .count()
    }
}

/// Fold per-file results into the aggregate summary, in input order.
pub(crate) fn summarize(
    suite: SuiteKind,
    host: EngineDialect,
    results: &[FileResult],
) -> SuiteRunSummary {
    let mut summary = SuiteRunSummary {
        suite,
        host,
        total: 0,
        executed: 0,
        passed: 0,
        failed: 0,
        skipped: 0,
        crashes: Vec::new(),
        hangs: Vec::new(),
        failures: Vec::new(),
        skip_reasons: Vec::new(),
        translation: TranslationCounts::default(),
    };
    for r in results {
        fold_file(&mut summary, r);
    }
    summary
}

fn fold_file(summary: &mut SuiteRunSummary, r: &FileResult) {
    summary.total += r.total();
    summary.executed += r.executed();
    summary.passed += r.passed();
    summary.failed += r.failed();
    summary.skipped += r.skipped();
    for (ordinal, res) in r.results.iter().enumerate() {
        match &res.outcome {
            Outcome::Crash(m) => summary.crashes.push(Incident {
                file: r.file.clone(),
                line: res.line,
                sql: res.sql.clone(),
                message: m.clone(),
            }),
            Outcome::Hang(m) => summary.hangs.push(Incident {
                file: r.file.clone(),
                line: res.line,
                sql: res.sql.clone(),
                message: m.clone(),
            }),
            Outcome::Fail(_) => summary.failures.push(FailureCase {
                file: r.file.clone(),
                id: RecordId::new(res.line, ordinal),
                result: res.clone(),
            }),
            Outcome::Skipped(reason) => {
                // Interned reasons come from per-connection `Arc`s, so
                // compare by text; distinct reasons stay few per run.
                match summary.skip_reasons.iter_mut().find(|s| *s.reason == **reason) {
                    Some(entry) => entry.count += 1,
                    None => summary.skip_reasons.push(SkipBreakdown {
                        reason: reason.clone(),
                        count: 1,
                        first_file: r.file.clone(),
                        first: RecordId::new(res.line, ordinal),
                    }),
                }
            }
            Outcome::Pass => {}
        }
    }
}

/// Deterministically sample up to `n` failures (the paper samples 100 per
/// cell, following standard SE sampling methodology).
pub fn sample_failures(failures: &[FailureCase], n: usize, seed: u64) -> Vec<&FailureCase> {
    if failures.len() <= n {
        return failures.iter().collect();
    }
    // Deterministic LCG-based index shuffle (no rand dependency here).
    let mut indices: Vec<usize> = (0..failures.len()).collect();
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    for i in (1..indices.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        indices.swap(i, j);
    }
    indices.truncate(n);
    indices.into_iter().map(|i| &failures[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Harness, HarnessBuilder};
    use squality_corpus::{generate_suite_scaled, GeneratedSuite};
    use squality_engine::{ClientKind, PlanCache};
    use std::sync::Arc;

    /// A builder for `suite` on `host` with the unified-runner defaults.
    fn unified(suite: &GeneratedSuite, host: EngineDialect) -> HarnessBuilder<'_> {
        Harness::builder().suite(suite).host(host)
    }

    /// Run a configured builder (one worker unless it says otherwise).
    fn run_one(builder: HarnessBuilder<'_>) -> SuiteRunSummary {
        builder.build().expect("suite is always set").run().summary
    }

    #[test]
    fn donor_full_provision_passes_everything() {
        let gs = generate_suite_scaled(SuiteKind::Slt, 3, 0.05);
        let s = run_one(
            unified(&gs, EngineDialect::Sqlite).client(ClientKind::Cli).provision(Provision::Full),
        );
        // The only tolerated failures are SLT's two runner-format
        // artifacts (paper Table 4: 2 failures).
        assert_eq!(s.failed, 2, "failures: {:?}", s.failures.first());
        assert!(s.passed > 0);
        assert!(s.success_rate() > 0.99);
    }

    #[test]
    fn donor_bare_run_fails_on_dependencies() {
        // The RQ3 situation: PostgreSQL donor without its environment.
        let gs = generate_suite_scaled(SuiteKind::PgRegress, 3, 0.2);
        let s = run_one(unified(&gs, EngineDialect::Postgres).provision(Provision::Bare));
        assert!(s.failed > 0, "bare environment must expose dependencies");
        assert!(s.success_rate() < 1.0);
    }

    #[test]
    fn cross_host_run_fails_more_than_donor() {
        let gs = generate_suite_scaled(SuiteKind::PgRegress, 3, 0.1);
        let donor = run_one(
            unified(&gs, EngineDialect::Postgres)
                .client(ClientKind::Cli)
                .provision(Provision::Full),
        );
        let host = run_one(unified(&gs, EngineDialect::Mysql));
        assert!(host.success_rate() < donor.success_rate());
        assert!(host.failed > 0);
    }

    #[test]
    fn sharded_runs_match_sequential_at_any_worker_count() {
        let gs = generate_suite_scaled(SuiteKind::Duckdb, 11, 0.08);
        let sequential = run_one(unified(&gs, EngineDialect::Sqlite));
        let cache = Arc::new(PlanCache::new());
        for workers in [2, 4, 8] {
            let sharded = run_one(
                unified(&gs, EngineDialect::Sqlite).workers(workers).plan_cache(Arc::clone(&cache)),
            );
            assert_eq!(sharded.total, sequential.total, "workers={workers}");
            assert_eq!(sharded.passed, sequential.passed, "workers={workers}");
            assert_eq!(sharded.failed, sequential.failed, "workers={workers}");
            assert_eq!(sharded.skipped, sequential.skipped, "workers={workers}");
            assert_eq!(sharded.failures, sequential.failures, "workers={workers}");
            assert_eq!(sharded.crashes, sequential.crashes, "workers={workers}");
            assert_eq!(sharded.hangs, sequential.hangs, "workers={workers}");
            assert_eq!(sharded.skip_reasons, sequential.skip_reasons, "workers={workers}");
        }
        // The same files replayed three times: the cache must be hot.
        assert!(cache.stats().hits > 0);
    }

    #[test]
    fn skip_reasons_trace_to_records() {
        // SLT suites carry skipif/onlyif conditions, so a cross-host run
        // must surface at least the "condition excludes" reason.
        let gs = generate_suite_scaled(SuiteKind::Slt, 5, 0.05);
        let s = run_one(unified(&gs, EngineDialect::Mysql));
        assert!(s.skipped > 0);
        let counted: usize = s.skip_reasons.iter().map(|b| b.count).sum();
        assert_eq!(counted, s.skipped, "{:?}", s.skip_reasons);
        for b in &s.skip_reasons {
            assert!(!b.first_file.is_empty());
            assert!(b.count > 0);
        }
        assert!(
            s.skip_reasons.iter().any(|b| b.reason.contains("condition excludes mysql")),
            "{:?}",
            s.skip_reasons
        );
    }

    #[test]
    fn translated_arm_reduces_syntax_failures_cross_dialect() {
        let pg = generate_suite_scaled(SuiteKind::PgRegress, 7, 0.15);
        let duck = generate_suite_scaled(SuiteKind::Duckdb, 7, 0.15);
        for (gs, host) in [
            (&pg, EngineDialect::Sqlite),
            (&pg, EngineDialect::Mysql),
            (&duck, EngineDialect::Sqlite),
            (&duck, EngineDialect::Mysql),
        ] {
            let verbatim = run_one(unified(gs, host));
            let translated = run_one(unified(gs, host).translate(true));
            let (v, t) = (verbatim.syntax_failures(), translated.syntax_failures());
            assert!(v > 0, "{:?} on {host}: no verbatim syntax failures to fix", gs.suite);
            assert!(t < v, "{:?} on {host}: syntax failures {v} -> {t}", gs.suite);
            assert!(translated.translation.applied_total() > 0);
            assert_eq!(verbatim.translation, TranslationCounts::default());
        }
    }

    #[test]
    fn translated_arm_on_donor_is_identity() {
        let gs = generate_suite_scaled(SuiteKind::PgRegress, 5, 0.08);
        let host = EngineDialect::Postgres;
        let verbatim = run_one(unified(&gs, host));
        let translated = run_one(unified(&gs, host).translate(true));
        assert_eq!(translated.passed, verbatim.passed);
        assert_eq!(translated.failed, verbatim.failed);
        assert_eq!(translated.failures, verbatim.failures);
        // Same-dialect translation never rewrites anything.
        assert_eq!(translated.translation.applied_total(), 0);
        assert_eq!(translated.translation.translated, 0);
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let fc: Vec<FailureCase> = (0..250)
            .map(|i| FailureCase {
                file: format!("f{i}"),
                id: RecordId::new(i, i),
                result: RecordResult { line: i, sql: None, outcome: Outcome::Pass },
            })
            .collect();
        let a = sample_failures(&fc, 100, 9);
        let b = sample_failures(&fc, 100, 9);
        assert_eq!(a.len(), 100);
        let fa: Vec<&str> = a.iter().map(|f| f.file.as_str()).collect();
        let fb: Vec<&str> = b.iter().map(|f| f.file.as_str()).collect();
        assert_eq!(fa, fb);
        let c = sample_failures(&fc[..50], 100, 9);
        assert_eq!(c.len(), 50);
    }
}
