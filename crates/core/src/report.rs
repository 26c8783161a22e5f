//! Render every table and figure of the paper's evaluation from a [`Study`],
//! with the paper's published values alongside for comparison.

use crate::experiments::{
    dependency_breakdown, difficulty_summary, incompatibility_breakdown, Study, EXECUTED_SUITES,
};
use squality_analysis::{
    command_usage, compliance, loc_stats, predicate_distribution, statement_distribution,
};
use squality_corpus::{donor_dialect, SuiteProfile};
use squality_engine::EngineDialect;
use squality_formats::{command_count, feature_matrix, SuiteKind};
use squality_runner::{DependencyClass, IncompatibilityClass, ReuseDifficulty};
use squality_sqltext::PredicateBucket;

fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Table 1: DBMS rankings and test-suite metadata (paper values plus the
/// generated corpus sizes used in this run).
pub fn table1(study: &Study) -> String {
    let mut out = String::from(
        "Table 1. DBMS rankings and their test suites information\n\
         DBMS        DB-Engines  GitHub   DBMS      Paper   Generated  Generated\n\
         Names       Rankings    Stars    Version   Files   Files      Records\n",
    );
    for suite in SuiteKind::ALL {
        let p = SuiteProfile::for_suite(suite);
        let gs = study.suite(suite);
        out.push_str(&format!(
            "{:<11} {:<11} {:<8} {:<9} {:<7} {:<10} {}\n",
            suite.donor_name(),
            p.paper_db_engines_rank,
            format!("{}k", p.paper_github_stars_k),
            p.paper_dbms_version,
            p.paper_test_files,
            gs.files.len(),
            gs.total_records(),
        ));
    }
    out
}

/// Figure 1: lines of code per test file (the paper plots the distribution
/// on a log scale; the quartiles convey the same shape).
pub fn figure1(study: &Study) -> String {
    let mut out = String::from(
        "Figure 1. Lines of code per test file (native format)\n\
         Suite        files   min   p25   median   p75    max     mean\n",
    );
    for suite in SuiteKind::ALL {
        let s = loc_stats(&study.suite(suite).files);
        out.push_str(&format!(
            "{:<12} {:<7} {:<5} {:<5} {:<8} {:<6} {:<7} {:.1}\n",
            suite.donor_name(),
            s.files,
            s.min,
            s.p25,
            s.median,
            s.p75,
            s.max,
            s.mean,
        ));
    }
    out
}

/// Table 2: non-SQL commands of each test runner.
pub fn table2(study: &Study) -> String {
    let mut out = String::from(
        "Table 2. Non-SQL commands of each DBMS test runner\n\
         Feature            SQLite  MySQL  PostgreSQL  DuckDB\n",
    );
    let suites = [SuiteKind::Slt, SuiteKind::MysqlTest, SuiteKind::PgRegress, SuiteKind::Duckdb];
    let mark = |b: bool| if b { "yes" } else { "-" };
    let fm: Vec<_> = suites.iter().map(|s| feature_matrix(*s)).collect();
    for (label, get) in [
        ("Include", 0usize),
        ("Set Variable", 1),
        ("Load", 2),
        ("Loop", 3),
        ("Skiptest", 4),
        ("Multi-Connections", 5),
    ] {
        let v = |i: usize| {
            let f = fm[i];
            match get {
                0 => f.include,
                1 => f.set_variable,
                2 => f.load,
                3 => f.loop_,
                4 => f.skiptest,
                _ => f.multi_connections,
            }
        };
        out.push_str(&format!(
            "{:<18} {:<7} {:<6} {:<11} {}\n",
            label,
            mark(v(0)),
            mark(v(1)),
            mark(v(2)),
            mark(v(3)),
        ));
    }
    out.push_str(&format!(
        "{:<18} {:<7} {:<6} {:<11} {}\n",
        "Runner Commands",
        command_count(SuiteKind::Slt),
        command_count(SuiteKind::MysqlTest),
        format!("{} (CLI)", command_count(SuiteKind::PgRegress)),
        command_count(SuiteKind::Duckdb),
    ));
    // Commands actually used by the generated corpora.
    out.push_str("Used in corpus    ");
    for s in suites {
        let u = command_usage(&study.suite(s).files);
        out.push_str(&format!(" {:<6}", u.distinct()));
    }
    out.push('\n');
    out
}

/// Figure 2: distribution of SQL statement types per suite.
pub fn figure2(study: &Study) -> String {
    let mut out = String::from("Figure 2. Distribution of SQL statement types\n");
    for suite in [SuiteKind::Slt, SuiteKind::PgRegress, SuiteKind::Duckdb] {
        let d = statement_distribution(&study.suite(suite).files);
        out.push_str(&format!("  {} ({} statements):\n", suite.donor_name(), d.total));
        for (label, frac) in d.ranked().into_iter().take(12) {
            let bar = "#".repeat(((frac * 120.0).round() as usize).clamp(1, 70));
            out.push_str(&format!("    {label:<16} {:>7}  {bar}\n", pct(frac)));
        }
    }
    out
}

/// Table 3: standard-compliance percentages.
pub fn table3(study: &Study) -> String {
    let mut out = String::from(
        "Table 3. Standard-compliant SQL statements among the test cases\n\
         Suite        Standard SQL (paper)   Exclusive files (paper)   w/ CREATE INDEX\n",
    );
    let paper = [
        (SuiteKind::Slt, "99.76%", "63.92%"),
        (SuiteKind::PgRegress, "68.89%", "10.37%"),
        (SuiteKind::Duckdb, "76.14%", "16.24%"),
    ];
    for (suite, p_std, p_files) in paper {
        let c = compliance(&study.suite(suite).files);
        out.push_str(&format!(
            "{:<12} {:<8} ({:<7})      {:<8} ({:<7})       {}\n",
            suite.donor_name(),
            pct(c.statement_fraction),
            p_std,
            pct(c.exclusive_file_fraction),
            p_files,
            pct(c.exclusive_file_fraction_with_index),
        ));
    }
    out
}

/// Figure 3: WHERE-predicate token buckets.
pub fn figure3(study: &Study) -> String {
    let mut out = String::from(
        "Figure 3. Tokens in WHERE predicates of SELECT statements\n\
         Suite        0        1-2      3-10     11-100   100+     joins  implicit  inner\n",
    );
    for suite in [SuiteKind::Slt, SuiteKind::PgRegress, SuiteKind::Duckdb] {
        let r = predicate_distribution(&study.suite(suite).files);
        out.push_str(&format!(
            "{:<12} {:<8} {:<8} {:<8} {:<8} {:<8} {:<6} {:<9} {}\n",
            suite.donor_name(),
            pct(r.bucket_fractions[0]),
            pct(r.bucket_fractions[1]),
            pct(r.bucket_fractions[2]),
            pct(r.bucket_fractions[3]),
            pct(r.bucket_fractions[4]),
            pct(r.join_fraction),
            pct(r.implicit_join_fraction),
            pct(r.inner_join_fraction),
        ));
    }
    let _ = PredicateBucket::ALL; // axis order documented by the type
    out
}

/// Table 4: running donor test suites against the donor (bare environment).
pub fn table4(study: &Study) -> String {
    let mut out = String::from(
        "Table 4. Running donor test suites against donor (bare environment)\n\
         Suite        Total     Executed  Failed   (paper: total/executed/failed)\n",
    );
    let paper = [
        (SuiteKind::Slt, "7,406,130 / 5,939,879 / 2"),
        (SuiteKind::PgRegress, "36,677 / 35,534 / 4,075"),
        (SuiteKind::Duckdb, "33,113 / 20,619 / 1,035"),
    ];
    for (suite, paper_vals) in paper {
        let s = study.donor_run(suite);
        out.push_str(&format!(
            "{:<12} {:<9} {:<9} {:<8} ({paper_vals})\n",
            suite.donor_name(),
            s.total,
            s.executed,
            s.failed,
        ));
    }
    out
}

/// Table 5: classification of sampled donor failures.
pub fn table5(study: &Study) -> String {
    let mut out = String::from(
        "Table 5. Classification of sampled failing donor test cases\n\
         Reason       SQLite   DuckDB   PostgreSQL   (paper: SQLite/DuckDB/PostgreSQL)\n",
    );
    let paper: &[(&str, &str)] = &[
        ("File Paths", "0 / 22 / 14"),
        ("Setting", "0 / 0 / 7"),
        ("Set Up", "0 / 0 / 67"),
        ("Extension", "0 / 0 / 10"),
        ("Format", "0 / 58 / 0"),
        ("Numeric", "0 / 17 / 0"),
        ("Exception", "0 / 2 / 0"),
        ("Runner", "2 / 1 / 2"),
    ];
    let samples: Vec<_> = [SuiteKind::Slt, SuiteKind::Duckdb, SuiteKind::PgRegress]
        .iter()
        .map(|s| dependency_breakdown(study.donor_run(*s), study.config.seed))
        .collect();
    for (class, (label, paper_vals)) in DependencyClass::ALL.iter().zip(paper) {
        let v = |i: usize| *samples[i].get(class).unwrap_or(&0);
        out.push_str(&format!(
            "{:<12} {:<8} {:<8} {:<12} ({paper_vals})\n",
            label,
            v(0),
            v(1),
            v(2),
        ));
    }
    out
}

/// Figure 4: the success-rate heatmap.
pub fn figure4(study: &Study) -> String {
    let mut out = String::from(
        "Figure 4. Percentage of test cases that execute successfully\n\
         Test Suite   SQLite     PostgreSQL  DuckDB     MySQL\n",
    );
    let hosts = [
        EngineDialect::Sqlite,
        EngineDialect::Postgres,
        EngineDialect::Duckdb,
        EngineDialect::Mysql,
    ];
    let paper = [
        (SuiteKind::Slt, ["100.00%", "99.80%", "98.11%", "99.99%"]),
        (SuiteKind::PgRegress, ["30.51%", "100.00%", "28.62%", "25.08%"]),
        (SuiteKind::Duckdb, ["51.45%", "49.33%", "100.00%", "34.69%"]),
    ];
    for (suite, paper_row) in paper {
        let mut line = format!("{:<12}", suite.donor_name());
        for (host, p) in hosts.iter().zip(paper_row.iter()) {
            let r = study.cell(suite, *host).summary.success_rate();
            line.push_str(&format!(" {:>7} ", pct(r)));
            line.push_str(&format!("[{p}]"));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("(measured [paper]; diagonal uses the donor environment)\n");
    out
}

/// Table 6: failure reasons per suite × host.
pub fn table6(study: &Study) -> String {
    let mut out = String::from("Table 6. Reasons for failed test cases across hosts\n");
    for suite in EXECUTED_SUITES {
        out.push_str(&format!("  Donor suite: {}\n", suite.donor_name()));
        out.push_str("    Host         ");
        for class in IncompatibilityClass::ALL {
            out.push_str(&format!("{:<12}", class.label()));
        }
        out.push_str("Timeout  Crash\n");
        for host in EngineDialect::ALL {
            if host == donor_dialect(suite) {
                continue;
            }
            let cell = study.cell(suite, host);
            let counts = incompatibility_breakdown(cell, study.config.seed);
            out.push_str(&format!("    {:<12} ", host.name()));
            for class in IncompatibilityClass::ALL {
                out.push_str(&format!("{:<12}", counts.get(&class).unwrap_or(&0)));
            }
            out.push_str(&format!(
                "{:<8} {}\n",
                cell.summary.hangs.len(),
                cell.summary.crashes.len()
            ));
        }
    }
    out.push_str(
        "(SLT cells analysed exhaustively; others are 100-case samples, like the paper)\n",
    );
    out
}

/// Table 7: reuse-difficulty summary per suite.
pub fn table7(study: &Study) -> String {
    let mut out = String::from(
        "Table 7. Test cases that bring difficulties for reuse\n\
         Category                    SQLite     DuckDB     PostgreSQL  (paper)\n",
    );
    let paper = [
        ("Dialect-specific features", "0.1% / 70.2% / 72.7%"),
        ("Syntax differences", "12.8% / 23.9% / 26.4%"),
        ("Semantic differences", "87.1% / 5.9% / 0.9%"),
    ];
    let sums: Vec<_> = [SuiteKind::Slt, SuiteKind::Duckdb, SuiteKind::PgRegress]
        .iter()
        .map(|s| difficulty_summary(study, *s))
        .collect();
    for (difficulty, (label, paper_vals)) in ReuseDifficulty::ALL.iter().zip(paper) {
        out.push_str(&format!(
            "{:<27} {:<10} {:<10} {:<11} ({paper_vals})\n",
            label,
            pct(*sums[0].get(difficulty).unwrap_or(&0.0)),
            pct(*sums[1].get(difficulty).unwrap_or(&0.0)),
            pct(*sums[2].get(difficulty).unwrap_or(&0.0)),
        ));
    }
    out
}

/// Table 8: coverage of original suite vs SQuaLity union.
pub fn table8(study: &Study) -> String {
    let mut out = String::from(
        "Table 8. Feature coverage: original suite vs SQuaLity union\n\
         Engine       Original line/branch     SQuaLity line/branch   (paper line/branch orig -> squality)\n",
    );
    let paper = [
        (EngineDialect::Sqlite, "26.9%/19.8% -> 43.4%/34.5%"),
        (EngineDialect::Duckdb, "72.8%/46.4% -> 74.0%/47.2%"),
        (EngineDialect::Postgres, "62.1%/47.2% -> 63.0%/48.2%"),
    ];
    for (engine, paper_vals) in paper {
        let row = study.coverage.iter().find(|r| r.engine == engine).expect("coverage row");
        out.push_str(&format!(
            "{:<12} {:<8} / {:<12} {:<8} / {:<10} ({paper_vals})\n",
            engine.name(),
            pct(row.original_line),
            pct(row.original_branch),
            pct(row.squality_line),
            pct(row.squality_branch),
        ));
    }
    out
}

/// The translated arm: host-side error rates per cell, verbatim vs
/// translated, plus the per-rule rewrite counters. This is the
/// reproduction's analogue of the paper's "what if we adapt the
/// statements?" discussion (RQ4: most cross-DBMS failures are mundane
/// syntax/type/function differences, not bugs).
pub fn translation_table(study: &Study) -> String {
    let mut out = String::from(
        "Translation arm. Host-side failures, verbatim vs translated\n\
         Donor suite  Host         Verbatim fail/syntax   Translated fail/syntax   Success v->t\n",
    );
    if study.translated_matrix.is_empty() {
        out.push_str("(translated arm not run: StudyConfig.translated_arm = false)\n");
        return out;
    }
    for suite in EXECUTED_SUITES {
        for host in EngineDialect::ALL {
            if host == donor_dialect(suite) {
                continue;
            }
            let v = &study.cell(suite, host).summary;
            let t = &study.translated_cell(suite, host).expect("arm ran").summary;
            out.push_str(&format!(
                "{:<12} {:<12} {:>7} / {:<12} {:>7} / {:<15} {} -> {}\n",
                suite.donor_name(),
                host.name(),
                v.failed,
                v.syntax_failures(),
                t.failed,
                t.syntax_failures(),
                pct(v.success_rate()),
                pct(t.success_rate()),
            ));
        }
    }
    let counts = study.translation_counts();
    out.push_str(&format!(
        "Statement executions translated: {} (pass-through: {})\n",
        counts.translated, counts.passthrough
    ));
    out.push_str("Rule                 Applied   Skipped (host-incompatible, untranslatable)\n");
    for rule in squality_runner::TranslationRule::ALL {
        out.push_str(&format!(
            "{:<20} {:<9} {}\n",
            rule.label(),
            counts.applied_for(rule),
            counts.skipped_for(rule),
        ));
    }
    out.push_str(&format!(
        "Total                {:<9} {}\n",
        counts.applied_total(),
        counts.skipped_total()
    ));
    out
}

/// §6 bug findings: the crashes and hangs rediscovered by cross-suite runs.
pub fn bug_report(study: &Study) -> String {
    let crashes: Vec<_> = study.bugs.iter().filter(|b| b.is_crash).collect();
    let hangs: Vec<_> = study.bugs.iter().filter(|b| !b.is_crash).collect();
    let mut out = format!(
        "Bug findings (paper Section 6: 3 crashes, 3 hangs)\n\
         Found: {} crash signatures, {} hang signatures\n",
        crashes.len(),
        hangs.len()
    );
    for b in &study.bugs {
        out.push_str(&format!(
            "  [{}] {} on {} via {} suite: {}\n      {}\n",
            if b.is_crash { "CRASH" } else { "HANG" },
            b.incident.file,
            b.host.name(),
            b.donor_suite.donor_name(),
            b.incident.sql.as_deref().unwrap_or("<control>"),
            b.incident.message,
        ));
    }
    out
}

/// The triage table: every root-cause signature cluster across the whole
/// study (donor-bare runs plus both matrix arms), largest first, with the
/// taxonomy class, the cells it afflicts, and an exemplar record to look
/// at — the mechanized version of the paper's manual failure analysis
/// (§7). When the report carries reductions, a ddmin summary follows:
/// per-cluster record counts before/after and whether the emitted repro
/// re-failed standalone with the identical signature.
pub fn triage_table(report: &crate::triage::TriageReport) -> String {
    let mut out = String::from("Failure triage. Root-cause signature clusters\n");
    out.push_str(&format!(
        "{} raw failures -> {} clusters (dedup {:.1}x)\n",
        report.total_failures,
        report.clusters.len(),
        report.dedup_factor()
    ));
    out.push_str(&format!(
        "{:<5} {:<15} {:<7} {:<6} {:<28} Signature\n",
        "#", "Class", "Count", "Cells", "Exemplar"
    ));
    for (i, c) in report.clusters.iter().enumerate() {
        out.push_str(&format!(
            "{:<5} {:<15} {:<7} {:<6} {:<28} [{}] {}\n",
            format!("#{i:03}"),
            c.class_label(),
            c.count,
            c.cells.len(),
            format!("{} {} ({})", c.exemplar.file, c.exemplar.id, c.exemplar.cell.label()),
            c.signature.statement,
            c.signature.normalized,
        ));
    }
    if !report.reductions.is_empty() {
        let verified = report.verified_repros().count();
        out.push_str(&format!(
            "Reduction (ddmin): {} clusters reduced, {} probes, {} -> {} records \
             ({} eliminated), {} verified repros\n",
            report.reductions.len(),
            report.stats.probes,
            report.stats.records_before,
            report.stats.records_after,
            report.stats.records_eliminated(),
            verified,
        ));
        for r in &report.reductions {
            out.push_str(&format!(
                "  {:<36} {} {:>4} -> {:<4} records, {:>3} probes, {}\n",
                r.repro_name,
                r.file,
                r.original_records,
                r.reduced_records,
                r.probes,
                if r.verified { "verified" } else { "UNVERIFIED" },
            ));
        }
    }
    if let Some(s) = &report.store_stats {
        out.push_str(&format!(
            "bug store: {} added, {} reused, {} re-verified\n",
            s.added, s.reused, s.refreshed,
        ));
    }
    out
}

/// The bug-store listing: every persisted entry, ordered by key, with its
/// provenance and verification state — the `squality-tables bugs list`
/// surface.
pub fn bug_store_table(entries: &[(u64, squality_bugstore::BugEntry)]) -> String {
    let verified = entries.iter().filter(|(_, e)| e.reproduced).count();
    let tombstones = entries.iter().filter(|(_, e)| e.repro_text.is_empty()).count();
    let mut out = String::from("Bug store. Persisted minimized repros\n");
    out.push_str(&format!(
        "{} entries ({} verified, {} tombstones)\n",
        entries.len(),
        verified,
        tombstones,
    ));
    out.push_str(&format!(
        "{:<17} {:<30} {:<24} {:>4}  {:<10} Signature\n",
        "Key", "Cell", "Stability", "Recs", "State"
    ));
    for (key, e) in entries {
        let state = if e.repro_text.is_empty() {
            "tombstone"
        } else if e.reproduced {
            "verified"
        } else {
            "unverified"
        };
        out.push_str(&format!(
            "{key:016x}  {:<30} {:<24} {:>4}  {:<10} [{}] {}\n",
            crate::CellRef { suite: e.suite, host: e.host, arm: e.arm }.label(),
            e.stability.as_ref().map_or("-".to_string(), |s| s.label()),
            e.records_after,
            state,
            e.signature.statement,
            e.signature.normalized,
        ));
    }
    out
}

/// The replay transition table: one row per replayed entry with its
/// still-failing / fixed / regressed verdict, plus the corpus summary.
/// Deterministic given the store — byte-identical at every worker count
/// (timing is deliberately excluded).
pub fn replay_table(report: &crate::replay::ReplayReport) -> String {
    let mut out = String::from("Regression replay. Bug-store repro corpus\n");
    out.push_str(&format!(
        "{:<17} {:<36} {:<30} {:<14} Signature\n",
        "Key", "Repro", "Cell", "Transition"
    ));
    for e in &report.entries {
        out.push_str(&format!(
            "{:016x}  {:<36} {:<30} {:<14} [{}] {}\n",
            e.key,
            e.repro_name,
            e.cell_label,
            e.status.label(),
            e.signature.statement,
            e.signature.normalized,
        ));
        if let Some(observed) = &e.observed {
            out.push_str(&format!(
                "{:>17} observed instead: [{}] {}\n",
                "", observed.statement, observed.normalized
            ));
        }
    }
    out.push_str(&format!(
        "Replay: {} entries, {} still-failing, {} fixed, {} regressed ({} skipped)\n",
        report.entries.len(),
        report.still_failing(),
        report.fixed(),
        report.regressed(),
        report.skipped,
    ));
    out
}

/// The stability table: every failure cluster and bug finding with its
/// flakiness verdict from the perturbed re-execution arm. Deterministic
/// given the study and [`StabilityConfig`](crate::StabilityConfig) —
/// byte-identical at every analysis worker count.
pub fn stability_table(report: &crate::stability::StabilityReport) -> String {
    let mut out = String::from("Stability. Perturbed re-execution of every failure\n");
    out.push_str(&format!(
        "{} raw failures -> {} clusters + {} bug findings, {} baseline reruns each\n",
        report.total_failures,
        report.clusters.len(),
        report.bugs.len(),
        report.reruns,
    ));
    out.push_str(&format!(
        "{:<5} {:<24} {:<15} {:<7} {:<28} Signature\n",
        "#", "Stability", "Class", "Count", "Cell"
    ));
    for (i, c) in report.clusters.iter().enumerate() {
        out.push_str(&format!(
            "{:<5} {:<24} {:<15} {:<7} {:<28} [{}] {}\n",
            format!("#{i:03}"),
            c.stability.label(),
            c.class_label,
            c.count,
            c.cell,
            c.signature.statement,
            c.signature.normalized,
        ));
    }
    for b in &report.bugs {
        out.push_str(&format!(
            "{:<5} {:<24} {:<15} {:<7} {}:{}\n",
            if b.is_crash { "CRASH" } else { "HANG" },
            b.stability.label(),
            b.host.name(),
            1,
            b.file,
            b.line,
        ));
    }
    out.push_str(&format!(
        "Verdicts: {} stable, {} flaky, {} perturbation-sensitive \
         (non-deterministically reachable: {} of {})\n",
        report.stable_count(),
        report.flaky_count(),
        report.sensitive_count(),
        report.nondeterministic_count(),
        report.total(),
    ));
    out
}

/// Render the full study report (all tables and figures). The stability
/// table appears only when the study ran with
/// [`StudyConfig::stability`](crate::StudyConfig) set.
pub fn full_report(study: &Study) -> String {
    let mut sections = vec![
        table1(study),
        figure1(study),
        table2(study),
        figure2(study),
        table3(study),
        figure3(study),
        table4(study),
        table5(study),
        figure4(study),
        table6(study),
        table7(study),
        table8(study),
        translation_table(study),
        bug_report(study),
    ];
    if let Some(report) = &study.stability {
        sections.push(stability_table(report));
    }
    sections.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{run_study, StudyConfig};

    fn study() -> Study {
        run_study(StudyConfig::default().with_seed(77).with_scale(0.06))
    }

    #[test]
    fn all_sections_render() {
        let s = study();
        let report = full_report(&s);
        for needle in [
            "Table 1",
            "Figure 1",
            "Table 2",
            "Figure 2",
            "Table 3",
            "Figure 3",
            "Table 4",
            "Table 5",
            "Figure 4",
            "Table 6",
            "Table 7",
            "Table 8",
            "Translation arm",
            "Bug findings",
        ] {
            assert!(report.contains(needle), "missing section {needle}");
        }
    }

    #[test]
    fn translation_table_reports_rules_and_reduction() {
        let s = study();
        let t = translation_table(&s);
        assert!(t.contains("type names"));
        assert!(t.contains("function renames"));
        assert!(t.contains("Statement executions translated"));
        // Without the arm, the table degrades gracefully.
        let bare = run_study(
            StudyConfig::default().with_seed(77).with_scale(0.04).with_translated_arm(false),
        );
        assert!(translation_table(&bare).contains("translated arm not run"));
    }

    #[test]
    fn table2_has_paper_counts() {
        let s = study();
        let t = table2(&s);
        assert!(t.contains("112"));
        assert!(t.contains("114 (CLI)"));
        assert!(t.contains("16"));
    }

    #[test]
    fn figure4_mentions_paper_values() {
        let s = study();
        let f = figure4(&s);
        assert!(f.contains("[30.51%]"));
        assert!(f.contains("[98.11%]"));
    }
}
