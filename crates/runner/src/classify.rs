//! Failure signatures and the paper's two classification taxonomies.
//!
//! * **[`FailureSignature`]** — the normalized root-cause identity of a
//!   failure, computed **once** when a [`FailInfo`](crate::FailInfo) is built and carried on
//!   it ever after. The signature abstracts numerals, quoted literals, and
//!   absolute paths out of the error text, fingerprints the failing
//!   statement's kind, and precomputes both taxonomy classes — so the
//!   runner, the study aggregation, the report tables, and the triage
//!   clustering all read one representation instead of re-deriving it from
//!   raw strings.
//! * **RQ3 (Table 5)** — why donor tests fail *on their own donor*:
//!   environment (file paths / settings / set-up), extensions, clients
//!   (format / numeric / exception), and runner limitations.
//! * **RQ4 (Table 6)** — why donor tests fail *on foreign hosts*:
//!   unsupported statements / functions / types / operators, configuration
//!   mismatches, semantic divergences, and miscellaneous; crashes and
//!   timeouts counted separately.

use crate::outcome::{FailKind, Outcome, RecordResult};
use crate::validate::{values_equal, NumericMode};
use squality_engine::ErrorKind;
use squality_sqltext::{classify as classify_statement, StatementType, TextDialect};
use std::sync::Arc;

/// RQ3 dependency classes (rows of paper Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DependencyClass {
    /// Environment: hard-coded data file paths.
    FilePaths,
    /// Environment: locale / configuration differences.
    Setting,
    /// Environment: missing schedule-dependent set-up (PostgreSQL).
    SetUp,
    /// Required extension not loaded.
    Extension,
    /// Client: output-format differences (lists, structs, booleans...).
    ClientFormat,
    /// Client: numeric precision/rounding differences.
    ClientNumeric,
    /// Client: client-side exception (e.g. DuckDB Python NotImplemented).
    ClientException,
    /// Runner limitation (unsupported command, multi-connection, include).
    Runner,
}

impl DependencyClass {
    /// Table 5 row label.
    pub fn label(self) -> &'static str {
        match self {
            DependencyClass::FilePaths => "File Paths",
            DependencyClass::Setting => "Setting",
            DependencyClass::SetUp => "Set Up",
            DependencyClass::Extension => "Extension",
            DependencyClass::ClientFormat => "Format",
            DependencyClass::ClientNumeric => "Numeric",
            DependencyClass::ClientException => "Exception",
            DependencyClass::Runner => "Runner",
        }
    }

    /// All classes in Table 5 order.
    pub const ALL: [DependencyClass; 8] = [
        DependencyClass::FilePaths,
        DependencyClass::Setting,
        DependencyClass::SetUp,
        DependencyClass::Extension,
        DependencyClass::ClientFormat,
        DependencyClass::ClientNumeric,
        DependencyClass::ClientException,
        DependencyClass::Runner,
    ];
}

/// RQ4 incompatibility classes (rows of paper Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IncompatibilityClass {
    Statements,
    Functions,
    Types,
    Operators,
    Configurations,
    Semantic,
    Misc,
}

impl IncompatibilityClass {
    /// Table 6 row label.
    pub fn label(self) -> &'static str {
        match self {
            IncompatibilityClass::Statements => "Statements",
            IncompatibilityClass::Functions => "Functions",
            IncompatibilityClass::Types => "Types",
            IncompatibilityClass::Operators => "Operators",
            IncompatibilityClass::Configurations => "Configurations",
            IncompatibilityClass::Semantic => "Semantic",
            IncompatibilityClass::Misc => "Misc",
        }
    }

    /// All classes in Table 6 order.
    pub const ALL: [IncompatibilityClass; 7] = [
        IncompatibilityClass::Statements,
        IncompatibilityClass::Functions,
        IncompatibilityClass::Types,
        IncompatibilityClass::Operators,
        IncompatibilityClass::Configurations,
        IncompatibilityClass::Semantic,
        IncompatibilityClass::Misc,
    ];
}

/// The normalized root-cause identity of one failure.
///
/// Two failures share a signature exactly when they look like the same
/// underlying problem: same failure kind, same engine error category, same
/// statement kind, and the same error text **after abstraction** — digits
/// collapse to `<n>`, quoted literals to `<q>`, absolute paths to
/// `<path>`, case folds, whitespace runs collapse, and trailing
/// punctuation is stripped (see [`normalize_error`]). That is what lets
/// the triage layer dedupe tens of thousands of raw matrix failures into
/// a few hundred root-cause clusters: `no such table: t17` and
/// `no such table: t4` are one missing-set-up cause, not two.
///
/// The signature is computed once, in [`FailInfo::new`](crate::FailInfo::new),
/// and carried on the [`FailInfo`](crate::FailInfo) — the runner, study
/// aggregation, report tables, and event stream all consume this one
/// precomputed representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FailureSignature {
    /// The abstracted error text / mismatch digest (the clustering key's
    /// textual component).
    pub normalized: Arc<str>,
    /// Statement-kind fingerprint: the paper's Figure-2 label of the
    /// failing statement (`"SELECT"`, `"CREATE TABLE"`, ... or
    /// `"<control>"` when the record carried no SQL).
    pub statement: Arc<str>,
    /// Why the record failed.
    pub kind: FailKind,
    /// Engine error category, when an engine error was involved.
    pub error_kind: Option<ErrorKind>,
    /// Precomputed RQ3 class (Table 5) — how this failure reads as a
    /// donor-environment dependency.
    pub dependency: DependencyClass,
    /// Precomputed RQ4 class (Table 6) — how this failure reads as a
    /// cross-DBMS incompatibility.
    pub incompatibility: IncompatibilityClass,
    /// Stability verdict from the rerun arm, when one has been computed.
    /// `None` until a stability analysis annotates the failure; the field
    /// participates in `Eq`/`Hash`, so annotated and unannotated
    /// signatures never silently merge in clustering or dedupe keys.
    pub stability: Option<Stability>,
}

impl FailureSignature {
    /// Compute the signature for a failure. `sql` is the statement text
    /// that ran (post variable-substitution), when the record had one.
    pub fn compute(
        kind: FailKind,
        error_kind: Option<ErrorKind>,
        detail: &str,
        expected: &[String],
        actual: &[String],
        sql: Option<&str>,
    ) -> FailureSignature {
        let statement_type = sql
            .map(|s| classify_statement(s, TextDialect::Generic))
            .unwrap_or_else(|| StatementType::Unknown("<control>".into()));
        let statement: Arc<str> = match &statement_type {
            StatementType::Unknown(w) if w == "<control>" => Arc::from("<control>"),
            other => Arc::from(other.label().as_str()),
        };
        let dependency =
            dependency_class(kind, error_kind, detail, expected, actual, &statement_type);
        let incompatibility = incompatibility_class(kind, error_kind);
        FailureSignature {
            normalized: Arc::from(normalize_error(detail).as_str()),
            statement,
            kind,
            error_kind,
            dependency,
            incompatibility,
            stability: None,
        }
    }

    /// The taxonomy label for this failure in `ctx`: the Table 5 row name
    /// for donor-on-donor failures, the Table 6 row name cross-host.
    pub fn class_label(&self, ctx: TaxonomyContext) -> &'static str {
        match ctx {
            TaxonomyContext::DonorDependency => self.dependency.label(),
            TaxonomyContext::CrossHost => self.incompatibility.label(),
        }
    }
}

/// One axis of the stability arm's perturbation matrix.
///
/// Each axis names one configuration knob the rerun subsystem flips while
/// holding everything else at the configuration that produced the
/// failure. An axis whose flip changes a failure's observed outcome makes
/// the failure [`PerturbationSensitive`](Stability::PerturbationSensitive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PerturbationAxis {
    /// Execution strategy: hash-based ↔ the naive nested-loop oracle.
    ExecStrategy,
    /// Shared statement-plan cache present ↔ absent.
    PlanCache,
    /// Engine fault-injection profile: paper-faithful faults ↔ all-fixed.
    FaultProfile,
    /// Where the engine runs: in-process ↔ a subprocess worker (with no
    /// fault hooks of its own).
    Backend,
}

impl PerturbationAxis {
    /// Short label used in stability verdicts and the report table.
    pub fn label(self) -> &'static str {
        match self {
            PerturbationAxis::ExecStrategy => "exec-strategy",
            PerturbationAxis::PlanCache => "plan-cache",
            PerturbationAxis::FaultProfile => "fault-profile",
            PerturbationAxis::Backend => "backend",
        }
    }

    /// Every axis, in the fixed order the rerun arm probes them.
    pub const ALL: [PerturbationAxis; 4] = [
        PerturbationAxis::ExecStrategy,
        PerturbationAxis::PlanCache,
        PerturbationAxis::FaultProfile,
        PerturbationAxis::Backend,
    ];
}

/// The stability verdict the rerun arm assigns to a failure.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stability {
    /// Every baseline rerun and every perturbed probe reproduced the
    /// original failure identically.
    Stable,
    /// Baseline reruns alone disagreed: the failure is intermittent even
    /// with no knob flipped. Carries the sorted, deduplicated set of
    /// outcome labels observed (e.g. `["fail", "pass"]`).
    Flaky { observed_outcomes: Vec<String> },
    /// Baseline reruns agree, but flipping one perturbation axis changed
    /// the outcome. Carries the first axis (in [`PerturbationAxis::ALL`]
    /// order) whose flip diverged.
    PerturbationSensitive { axis: PerturbationAxis },
}

impl Stability {
    /// Short verdict label for tables and dedupe keys.
    pub fn label(&self) -> String {
        match self {
            Stability::Stable => "stable".to_string(),
            Stability::Flaky { observed_outcomes } => {
                format!("flaky[{}]", observed_outcomes.join("|"))
            }
            Stability::PerturbationSensitive { axis } => {
                format!("sensitive[{}]", axis.label())
            }
        }
    }

    /// Whether this verdict marks the failure as non-deterministically
    /// reachable (flaky or perturbation-sensitive).
    pub fn is_nondeterministic(&self) -> bool {
        !matches!(self, Stability::Stable)
    }
}

/// Which of the paper's two failure taxonomies applies to a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaxonomyContext {
    /// A donor suite on its own engine in a bare environment (RQ3).
    DonorDependency,
    /// A donor suite transplanted onto a foreign host (RQ4).
    CrossHost,
}

/// Normalize an error message for cross-dialect comparison.
///
/// The four engines phrase the same root cause differently — PostgreSQL
/// says `ERROR:  relation "t1" does not exist`, SQLite `no such table:
/// t1`, DuckDB `Catalog Error: Table with name t1 does not exist!`, MySQL
/// `ERROR 1146 (42S02): Table 'test.t1' doesn't exist` — and even one
/// engine varies generated identifiers, row numbers, and file paths
/// between otherwise-identical failures. Normalization removes exactly
/// the noise axes:
///
/// * ASCII case folds to lowercase,
/// * quoted spans (`'…'`, `"…"`, `` `…` ``) collapse to `<q>` — an
///   apostrophe *inside a word* (`doesn't`) is part of the word, never an
///   opening quote, and an unclosed quote stays a literal character,
/// * absolute path tokens (`/srv/data/x.csv`) collapse to `<path>`,
/// * digit runs (with decimal points) collapse to `<n>`,
/// * whitespace runs collapse to one space,
/// * trailing punctuation (`. ! ; : ,`) is stripped.
pub fn normalize_error(message: &str) -> String {
    let chars: Vec<char> = message.chars().collect();
    let mut out = String::with_capacity(message.len());
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\'' | '"' | '`' => {
                // A quote opens a span only at a word boundary (MySQL's
                // `doesn't exist` must not swallow the rest of the
                // message) and only when a matching close exists.
                let word_internal = c == '\''
                    && out.chars().last().is_some_and(|p| p.is_alphanumeric() || p == '>');
                let close =
                    if word_internal { None } else { chars[i + 1..].iter().position(|&n| n == c) };
                match close {
                    Some(offset) => {
                        out.push_str("<q>");
                        i += offset + 2;
                        continue;
                    }
                    None => out.push(c),
                }
            }
            '/' if (out.is_empty() || out.ends_with(' ') || out.ends_with(':'))
                && chars.get(i + 1).is_some_and(|n| n.is_alphanumeric() || *n == '_') =>
            {
                // An absolute path token: consume to the next whitespace.
                while chars.get(i + 1).is_some_and(|n| !n.is_whitespace()) {
                    i += 1;
                }
                out.push_str("<path>");
            }
            c if c.is_ascii_digit() => {
                while chars.get(i + 1).is_some_and(|n| n.is_ascii_digit() || *n == '.') {
                    i += 1;
                }
                out.push_str("<n>");
            }
            c if c.is_whitespace() => {
                if !(out.is_empty() || out.ends_with(' ')) {
                    out.push(' ');
                }
            }
            c => out.extend(c.to_lowercase()),
        }
        i += 1;
    }
    while matches!(out.chars().last(), Some('.' | '!' | ';' | ':' | ',' | ' ')) {
        out.pop();
    }
    out
}

/// Classify a donor-on-donor failure into a dependency class (RQ3).
/// Returns `None` for passes/skips/crashes/hangs.
///
/// This reads the class precomputed on the failure's
/// [`FailureSignature`]; the decision logic lives in
/// [`FailureSignature::compute`].
pub fn classify_dependency(result: &RecordResult) -> Option<DependencyClass> {
    let Outcome::Fail(info) = &result.outcome else { return None };
    Some(info.signature.dependency)
}

/// The RQ3 decision procedure, evaluated once per failure at signature
/// construction time.
fn dependency_class(
    kind: FailKind,
    error_kind: Option<ErrorKind>,
    detail: &str,
    expected: &[String],
    actual: &[String],
    statement: &StatementType,
) -> DependencyClass {
    match kind {
        // Backend transport faults are harness-side limitations like
        // runner-unsupported commands: the statement never got a verdict.
        FailKind::Runner
        | FailKind::BackendCrash
        | FailKind::BackendTimeout
        | FailKind::BackendProtocol => DependencyClass::Runner,
        FailKind::UnexpectedError | FailKind::WrongErrorMessage | FailKind::ExpectedErrorButOk => {
            match error_kind {
                Some(ErrorKind::FileNotFound) => DependencyClass::FilePaths,
                Some(ErrorKind::UnknownConfig) => DependencyClass::Setting,
                Some(ErrorKind::ExtensionMissing) => DependencyClass::Extension,
                // An unknown function on the *donor* is the symptom of a failed
                // extension load earlier in the file (paper Listing 7).
                Some(ErrorKind::UnknownFunction) => DependencyClass::Extension,
                Some(ErrorKind::Catalog) => DependencyClass::SetUp,
                Some(ErrorKind::NotImplemented) => DependencyClass::ClientException,
                _ => {
                    if detail.contains("Not implemented") || detail.contains("NotImplemented") {
                        DependencyClass::ClientException
                    } else {
                        DependencyClass::SetUp
                    }
                }
            }
        }
        FailKind::WrongResult => result_mismatch_class(detail, expected, actual, statement),
    }
}

/// A result mismatch on the donor itself is usually a *client* dependency
/// (numeric precision or format differences between the original client and
/// the unified runner's connector); configuration-probing statements and
/// runner-level artifacts are recognised first.
fn result_mismatch_class(
    detail: &str,
    expected: &[String],
    actual: &[String],
    statement: &StatementType,
) -> DependencyClass {
    // A SHOW/configuration probe whose value differs is an environment
    // Setting difference (locale etc.), not a client problem. The
    // statement-kind fingerprint replaces the old per-call prefix scan.
    if matches!(statement, StatementType::Show | StatementType::Pragma) {
        return DependencyClass::Setting;
    }
    // Column-count disagreements with the SLT type string are runner-level
    // artifacts of the unified format.
    if detail.contains("result columns") {
        return DependencyClass::Runner;
    }
    // Numeric: every differing pair is numerically close.
    if !expected.is_empty()
        && expected.len() == actual.len()
        && expected
            .iter()
            .zip(actual.iter())
            .all(|(e, a)| values_equal(e, a, NumericMode::Tolerant(0.01)))
    {
        return DependencyClass::ClientNumeric;
    }
    DependencyClass::ClientFormat
}

/// Classify a cross-DBMS failure into an incompatibility class (RQ4).
///
/// Like [`classify_dependency`], this reads the precomputed
/// [`FailureSignature`] class.
pub fn classify_incompatibility(result: &RecordResult) -> Option<IncompatibilityClass> {
    let Outcome::Fail(info) = &result.outcome else { return None };
    Some(info.signature.incompatibility)
}

/// The RQ4 decision procedure, evaluated once per failure at signature
/// construction time.
fn incompatibility_class(kind: FailKind, error_kind: Option<ErrorKind>) -> IncompatibilityClass {
    match kind {
        FailKind::WrongResult => IncompatibilityClass::Semantic,
        FailKind::ExpectedErrorButOk => IncompatibilityClass::Semantic,
        FailKind::Runner
        | FailKind::BackendCrash
        | FailKind::BackendTimeout
        | FailKind::BackendProtocol => IncompatibilityClass::Misc,
        FailKind::UnexpectedError | FailKind::WrongErrorMessage => match error_kind {
            Some(ErrorKind::Syntax)
            | Some(ErrorKind::UnsupportedStatement)
            | Some(ErrorKind::NotImplemented) => IncompatibilityClass::Statements,
            Some(ErrorKind::UnknownFunction) => IncompatibilityClass::Functions,
            Some(ErrorKind::UnsupportedType) | Some(ErrorKind::Conversion) => {
                IncompatibilityClass::Types
            }
            Some(ErrorKind::UnsupportedOperator) => IncompatibilityClass::Operators,
            Some(ErrorKind::UnknownConfig) => IncompatibilityClass::Configurations,
            Some(ErrorKind::Arithmetic) => IncompatibilityClass::Semantic,
            _ => IncompatibilityClass::Misc,
        },
    }
}

/// The paper Table 7 difficulty buckets, derived from the RQ4 class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReuseDifficulty {
    /// Dialect-specific features (unique statements, functions, types).
    DialectFeature,
    /// Syntax differences (translatable in principle).
    SyntaxDifference,
    /// Semantic differences (same syntax, different meaning).
    SemanticDifference,
}

impl ReuseDifficulty {
    /// Table 7 row label.
    pub fn label(self) -> &'static str {
        match self {
            ReuseDifficulty::DialectFeature => "Dialect-specific features",
            ReuseDifficulty::SyntaxDifference => "Syntax differences",
            ReuseDifficulty::SemanticDifference => "Semantic differences",
        }
    }

    /// Derive from an incompatibility class. Functions/types/configurations
    /// are dialect features, statement/operator failures are syntax-level,
    /// result mismatches are semantic.
    pub fn from_class(class: IncompatibilityClass) -> ReuseDifficulty {
        match class {
            IncompatibilityClass::Functions
            | IncompatibilityClass::Types
            | IncompatibilityClass::Configurations
            | IncompatibilityClass::Misc => ReuseDifficulty::DialectFeature,
            IncompatibilityClass::Statements | IncompatibilityClass::Operators => {
                ReuseDifficulty::SyntaxDifference
            }
            IncompatibilityClass::Semantic => ReuseDifficulty::SemanticDifference,
        }
    }

    pub const ALL: [ReuseDifficulty; 3] = [
        ReuseDifficulty::DialectFeature,
        ReuseDifficulty::SyntaxDifference,
        ReuseDifficulty::SemanticDifference,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::FailInfo;

    fn fail(kind: FailKind, error_kind: Option<ErrorKind>, detail: &str) -> RecordResult {
        RecordResult {
            line: 1,
            sql: Some("SELECT 1".into()),
            outcome: Outcome::Fail(FailInfo::new(
                kind,
                error_kind,
                detail,
                Vec::new(),
                Vec::new(),
                Some("SELECT 1"),
            )),
        }
    }

    fn mismatch(
        sql: Option<&str>,
        detail: &str,
        expected: &[&str],
        actual: &[&str],
    ) -> RecordResult {
        RecordResult {
            line: 1,
            sql: sql.map(String::from),
            outcome: Outcome::Fail(FailInfo::new(
                FailKind::WrongResult,
                None,
                detail,
                expected.iter().map(|s| s.to_string()).collect(),
                actual.iter().map(|s| s.to_string()).collect(),
                sql,
            )),
        }
    }

    #[test]
    fn dependency_environment_classes() {
        let r = fail(FailKind::UnexpectedError, Some(ErrorKind::FileNotFound), "no file");
        assert_eq!(classify_dependency(&r), Some(DependencyClass::FilePaths));
        let r = fail(FailKind::UnexpectedError, Some(ErrorKind::UnknownConfig), "bad lc");
        assert_eq!(classify_dependency(&r), Some(DependencyClass::Setting));
        let r = fail(FailKind::UnexpectedError, Some(ErrorKind::Catalog), "no such table");
        assert_eq!(classify_dependency(&r), Some(DependencyClass::SetUp));
        let r = fail(FailKind::UnexpectedError, Some(ErrorKind::ExtensionMissing), "no lib");
        assert_eq!(classify_dependency(&r), Some(DependencyClass::Extension));
    }

    #[test]
    fn dependency_client_numeric() {
        let r = mismatch(None, "value mismatch", &["4999"], &["4999.5"]);
        assert_eq!(classify_dependency(&r), Some(DependencyClass::ClientNumeric));
    }

    #[test]
    fn dependency_client_format() {
        let r = mismatch(None, "value mismatch", &["[1, 2, 3, 4]"], &["['1', '2', '3', '4']"]);
        assert_eq!(classify_dependency(&r), Some(DependencyClass::ClientFormat));
    }

    #[test]
    fn dependency_setting_via_statement_fingerprint() {
        let r = mismatch(Some("SHOW lc_messages"), "value mismatch", &["C"], &["en_US.UTF-8"]);
        assert_eq!(classify_dependency(&r), Some(DependencyClass::Setting));
        let r = mismatch(Some("PRAGMA cache_size"), "value mismatch", &["10"], &["20"]);
        assert_eq!(classify_dependency(&r), Some(DependencyClass::Setting));
    }

    #[test]
    fn incompatibility_classes_from_error_kinds() {
        use IncompatibilityClass::*;
        let cases = [
            (ErrorKind::Syntax, Statements),
            (ErrorKind::UnsupportedStatement, Statements),
            (ErrorKind::UnknownFunction, Functions),
            (ErrorKind::UnsupportedType, Types),
            (ErrorKind::Conversion, Types),
            (ErrorKind::UnsupportedOperator, Operators),
            (ErrorKind::UnknownConfig, Configurations),
            (ErrorKind::Constraint, Misc),
        ];
        for (ek, expected) in cases {
            let r = fail(FailKind::UnexpectedError, Some(ek), "");
            assert_eq!(classify_incompatibility(&r), Some(expected), "{ek:?}");
        }
    }

    #[test]
    fn backend_faults_classify_as_runner_misc() {
        for kind in [FailKind::BackendCrash, FailKind::BackendTimeout, FailKind::BackendProtocol] {
            let r = fail(kind, None, "backend worker exited with signal 9");
            assert_eq!(classify_dependency(&r), Some(DependencyClass::Runner), "{kind:?}");
            assert_eq!(classify_incompatibility(&r), Some(IncompatibilityClass::Misc), "{kind:?}");
        }
    }

    #[test]
    fn wrong_result_is_semantic() {
        let r = fail(FailKind::WrongResult, None, "mismatch");
        assert_eq!(classify_incompatibility(&r), Some(IncompatibilityClass::Semantic));
    }

    #[test]
    fn passes_and_crashes_unclassified() {
        let pass = RecordResult { line: 1, sql: None, outcome: Outcome::Pass };
        assert_eq!(classify_dependency(&pass), None);
        assert_eq!(classify_incompatibility(&pass), None);
        let crash = RecordResult { line: 1, sql: None, outcome: Outcome::Crash("boom".into()) };
        assert_eq!(classify_incompatibility(&crash), None);
    }

    #[test]
    fn difficulty_buckets() {
        assert_eq!(
            ReuseDifficulty::from_class(IncompatibilityClass::Functions),
            ReuseDifficulty::DialectFeature
        );
        assert_eq!(
            ReuseDifficulty::from_class(IncompatibilityClass::Statements),
            ReuseDifficulty::SyntaxDifference
        );
        assert_eq!(
            ReuseDifficulty::from_class(IncompatibilityClass::Semantic),
            ReuseDifficulty::SemanticDifference
        );
    }

    #[test]
    fn boolean_format_equivalence() {
        let r = mismatch(None, "", &["t"], &["true"]);
        assert_eq!(classify_dependency(&r), Some(DependencyClass::ClientFormat));
    }

    /// The satellite normalization table: one equivalent root cause phrased
    /// in each of the four engines' error styles must normalize to a form
    /// with the identifier, code, and punctuation noise abstracted away —
    /// plus the individual rules (case, trailing punctuation, absolute
    /// paths, quotes, digits, whitespace) pinned one by one.
    #[test]
    fn signature_normalization() {
        // Rule-by-rule.
        let cases: &[(&str, &str)] = &[
            // Case folds.
            ("No Such Table: T1", "no such table: t<n>"),
            // Trailing punctuation stripped (DuckDB loves '!').
            ("Table does not exist!", "table does not exist"),
            ("unexpected end of input.", "unexpected end of input"),
            // Absolute paths abstracted.
            ("cannot open file /srv/data/onek.data", "cannot open file <path>"),
            ("could not open: /tmp/x17.csv", "could not open: <path>"),
            // Quoted literals abstracted (single, double, backtick).
            ("relation \"t1\" does not exist", "relation <q> does not exist"),
            (
                "invalid input syntax for type integer: 'abc'",
                "invalid input syntax for type integer: <q>",
            ),
            ("unknown column `c2`", "unknown column <q>"),
            // Digit runs (including decimals) abstracted.
            ("row 42 of 1000", "row <n> of <n>"),
            ("expected 4999.5, got 4999", "expected <n>, got <n>"),
            // Whitespace runs collapse (PostgreSQL's double-space prefix).
            ("ERROR:  syntax error", "error: syntax error"),
            // Division is not a path.
            ("cannot evaluate 1 / 0", "cannot evaluate <n> / <n>"),
            // A contraction's apostrophe is part of the word — it must not
            // open a quote span and swallow the rest of the message, or
            // distinct MySQL root causes would merge into one cluster.
            ("Table 'a' doesn't exist", "table <q> doesn't exist"),
            (
                "Table 'a' doesn't support FULLTEXT indexes",
                "table <q> doesn't support fulltext indexes",
            ),
            // An unclosed quote is a literal character, not a span opener.
            ("unterminated 'literal", "unterminated 'literal"),
        ];
        for (raw, want) in cases {
            assert_eq!(normalize_error(raw), *want, "normalize({raw:?})");
        }

        // The four dialect stylings of one root cause (a missing table)
        // all abstract their identifier/code noise; the *shared* content
        // survives in every style.
        let styles = [
            "ERROR:  relation \"t1\" does not exist", // PostgreSQL
            "no such table: t1",                      // SQLite
            "Catalog Error: Table with name t1 does not exist!", // DuckDB
            "ERROR 1146 (42S02): Table 't1' doesn't exist", // MySQL
        ];
        for style in styles {
            let n = normalize_error(style);
            assert!(!n.contains("t1"), "identifier not abstracted in {n:?}");
            assert!(n == n.to_lowercase(), "case not folded in {n:?}");
            assert!(!n.ends_with('!') && !n.ends_with('.'), "punctuation kept in {n:?}");
        }
        // Same-engine, different generated identifier: identical signature.
        assert_eq!(normalize_error("no such table: t17"), normalize_error("no such table: t4"));
    }

    #[test]
    fn signatures_cluster_across_generated_identifiers() {
        let a = FailureSignature::compute(
            FailKind::UnexpectedError,
            Some(ErrorKind::Catalog),
            "no such table: setup_tbl0",
            &[],
            &[],
            Some("SELECT * FROM setup_tbl0"),
        );
        let b = FailureSignature::compute(
            FailKind::UnexpectedError,
            Some(ErrorKind::Catalog),
            "no such table: setup_tbl1",
            &[],
            &[],
            Some("SELECT k FROM setup_tbl1 WHERE k > 3"),
        );
        assert_eq!(a, b, "generated identifiers must not split clusters");
        assert_eq!(&*a.statement, "SELECT");
        assert_eq!(a.dependency, DependencyClass::SetUp);
        assert_eq!(a.incompatibility, IncompatibilityClass::Misc);
        // A different statement kind is a different signature.
        let c = FailureSignature::compute(
            FailKind::UnexpectedError,
            Some(ErrorKind::Catalog),
            "no such table: setup_tbl0",
            &[],
            &[],
            Some("INSERT INTO setup_tbl0 VALUES (1)"),
        );
        assert_ne!(a, c);
    }

    #[test]
    fn class_label_follows_taxonomy_context() {
        let sig = FailureSignature::compute(
            FailKind::UnexpectedError,
            Some(ErrorKind::UnknownFunction),
            "no such function: pg_typeof",
            &[],
            &[],
            Some("SELECT pg_typeof(1)"),
        );
        // Donor context: symptom of a failed extension load (Table 5).
        assert_eq!(sig.class_label(TaxonomyContext::DonorDependency), "Extension");
        // Cross-host context: an unsupported function (Table 6).
        assert_eq!(sig.class_label(TaxonomyContext::CrossHost), "Functions");
    }

    #[test]
    fn control_records_fingerprint_as_control() {
        let sig = FailureSignature::compute(
            FailKind::Runner,
            None,
            "unsupported runner command",
            &[],
            &[],
            None,
        );
        assert_eq!(&*sig.statement, "<control>");
        assert_eq!(sig.dependency, DependencyClass::Runner);
    }
}
