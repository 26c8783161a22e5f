//! Shared line-oriented codec for persisted failure signatures.
//!
//! Two on-disk stores carry [`FailureSignature`]s: the incremental result
//! cache (per-file execution replay) and the bug repository (minimized
//! repros). Both use the repo's no-serde, line-per-record text format, and
//! both must decode byte-exactly what they encoded — a signature is a
//! clustering key, so a lossy round trip silently splits or merges
//! clusters. This module is the single owner of that wire format: the
//! escaping rules, the enum spellings, the numeric dialect tags, and the
//! one-line signature layout.
//!
//! A signature encodes to exactly one line (no trailing newline) of three
//! tab-separated fields:
//!
//! ```text
//! <kind> <error-kind|-> <dependency> <incompatibility> <stability>\t<normalized>\t<statement>
//! ```
//!
//! where `<stability>` is `-` (unannotated), `stable`,
//! `flaky:<label|label|..>`, or `sensitive:<axis-label>`. The free-form
//! fields are escaped so embedded newlines and tabs cannot break the
//! framing.

use crate::classify::{
    DependencyClass, FailureSignature, IncompatibilityClass, PerturbationAxis, Stability,
};
use crate::outcome::FailKind;
use squality_engine::{EngineDialect, ErrorKind};
use squality_sqlast::translate::TranslationCounts;
use squality_sqltext::TextDialect;

/// Escape a free-form string for embedding in a line-oriented entry:
/// backslash, newline, carriage return, and tab become two-character
/// escapes, so escaped text never spans lines or collides with tab
/// field separators.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape`]. `None` on a dangling or unknown escape — callers
/// treat that as entry corruption.
pub fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            _ => return None,
        }
    }
    Some(out)
}

/// Parse the `Debug` spelling of a [`FailKind`].
pub fn parse_fail_kind(s: &str) -> Option<FailKind> {
    Some(match s {
        "UnexpectedError" => FailKind::UnexpectedError,
        "ExpectedErrorButOk" => FailKind::ExpectedErrorButOk,
        "WrongErrorMessage" => FailKind::WrongErrorMessage,
        "WrongResult" => FailKind::WrongResult,
        "Runner" => FailKind::Runner,
        "BackendCrash" => FailKind::BackendCrash,
        "BackendTimeout" => FailKind::BackendTimeout,
        "BackendProtocol" => FailKind::BackendProtocol,
        _ => return None,
    })
}

/// Parse the `Debug` spelling of an [`ErrorKind`].
pub fn parse_error_kind(s: &str) -> Option<ErrorKind> {
    Some(match s {
        "Syntax" => ErrorKind::Syntax,
        "UnsupportedStatement" => ErrorKind::UnsupportedStatement,
        "UnknownFunction" => ErrorKind::UnknownFunction,
        "UnsupportedType" => ErrorKind::UnsupportedType,
        "UnsupportedOperator" => ErrorKind::UnsupportedOperator,
        "UnknownConfig" => ErrorKind::UnknownConfig,
        "Catalog" => ErrorKind::Catalog,
        "Constraint" => ErrorKind::Constraint,
        "Conversion" => ErrorKind::Conversion,
        "Arithmetic" => ErrorKind::Arithmetic,
        "Transaction" => ErrorKind::Transaction,
        "ExtensionMissing" => ErrorKind::ExtensionMissing,
        "FileNotFound" => ErrorKind::FileNotFound,
        "Fatal" => ErrorKind::Fatal,
        "Hang" => ErrorKind::Hang,
        "NotImplemented" => ErrorKind::NotImplemented,
        _ => return None,
    })
}

/// Parse the `Debug` spelling of a [`DependencyClass`].
pub fn parse_dependency(s: &str) -> Option<DependencyClass> {
    Some(match s {
        "FilePaths" => DependencyClass::FilePaths,
        "Setting" => DependencyClass::Setting,
        "SetUp" => DependencyClass::SetUp,
        "Extension" => DependencyClass::Extension,
        "ClientFormat" => DependencyClass::ClientFormat,
        "ClientNumeric" => DependencyClass::ClientNumeric,
        "ClientException" => DependencyClass::ClientException,
        "Runner" => DependencyClass::Runner,
        _ => return None,
    })
}

/// Parse the `Debug` spelling of an [`IncompatibilityClass`].
pub fn parse_incompatibility(s: &str) -> Option<IncompatibilityClass> {
    Some(match s {
        "Statements" => IncompatibilityClass::Statements,
        "Functions" => IncompatibilityClass::Functions,
        "Types" => IncompatibilityClass::Types,
        "Operators" => IncompatibilityClass::Operators,
        "Configurations" => IncompatibilityClass::Configurations,
        "Semantic" => IncompatibilityClass::Semantic,
        "Misc" => IncompatibilityClass::Misc,
        _ => return None,
    })
}

/// The one-byte tag an [`EngineDialect`] is stored and grouped as.
pub fn engine_dialect_tag(dialect: EngineDialect) -> u8 {
    match dialect {
        EngineDialect::Sqlite => 0,
        EngineDialect::Postgres => 1,
        EngineDialect::Duckdb => 2,
        EngineDialect::Mysql => 3,
    }
}

/// Invert [`engine_dialect_tag`] from its decimal text.
pub fn parse_engine_dialect(tag: &str) -> Option<EngineDialect> {
    EngineDialect::ALL.into_iter().find(|&d| engine_dialect_tag(d).to_string() == tag)
}

/// The one-byte tag a [`TextDialect`] is stored and hashed as (the
/// translation mode's dialect pair).
pub fn text_dialect_tag(dialect: TextDialect) -> u8 {
    match dialect {
        TextDialect::Sqlite => 0,
        TextDialect::Postgres => 1,
        TextDialect::Duckdb => 2,
        TextDialect::Mysql => 3,
        TextDialect::Generic => 4,
    }
}

/// Invert [`text_dialect_tag`] from its decimal text.
pub fn parse_text_dialect(tag: &str) -> Option<TextDialect> {
    TextDialect::ALL.into_iter().find(|&d| text_dialect_tag(d).to_string() == tag)
}

fn encode_stability(stability: &Option<Stability>) -> String {
    match stability {
        None => "-".to_string(),
        Some(Stability::Stable) => "stable".to_string(),
        // Observed-outcome labels are single words ("pass", "fail",
        // "crash", ...), but escape anyway: the separator must survive
        // any future label.
        Some(Stability::Flaky { observed_outcomes }) => {
            format!(
                "flaky:{}",
                observed_outcomes.iter().map(|o| escape(o)).collect::<Vec<_>>().join("|")
            )
        }
        Some(Stability::PerturbationSensitive { axis }) => format!("sensitive:{}", axis.label()),
    }
}

fn decode_stability(s: &str) -> Option<Option<Stability>> {
    if s == "-" {
        return Some(None);
    }
    if s == "stable" {
        return Some(Some(Stability::Stable));
    }
    if let Some(rest) = s.strip_prefix("flaky:") {
        let observed_outcomes = rest.split('|').map(unescape).collect::<Option<Vec<String>>>()?;
        return Some(Some(Stability::Flaky { observed_outcomes }));
    }
    if let Some(label) = s.strip_prefix("sensitive:") {
        let axis = PerturbationAxis::ALL.into_iter().find(|a| a.label() == label)?;
        return Some(Some(Stability::PerturbationSensitive { axis }));
    }
    None
}

/// Encode a signature as one line (no trailing newline). The inverse of
/// [`decode_signature`].
pub fn encode_signature(sig: &FailureSignature) -> String {
    format!(
        "{:?} {} {:?} {:?} {}\t{}\t{}",
        sig.kind,
        sig.error_kind.map_or("-".to_string(), |k| format!("{k:?}")),
        sig.dependency,
        sig.incompatibility,
        encode_stability(&sig.stability),
        escape(&sig.normalized),
        escape(&sig.statement)
    )
}

/// Decode one [`encode_signature`] line. `None` on any malformation.
///
/// The signature is stored verbatim rather than recomputed on read: its
/// inputs (the statement text at diagnosis time) are not all retained,
/// and byte-identical replay demands the exact original.
pub fn decode_signature(line: &str) -> Option<FailureSignature> {
    let mut tabs = line.split('\t');
    let head = tabs.next()?;
    let normalized = unescape(tabs.next()?)?;
    let statement = unescape(tabs.next()?)?;
    if tabs.next().is_some() {
        return None;
    }
    let mut fields = head.split(' ');
    let kind = parse_fail_kind(fields.next()?)?;
    let error_kind = match fields.next()? {
        "-" => None,
        s => Some(parse_error_kind(s)?),
    };
    let dependency = parse_dependency(fields.next()?)?;
    let incompatibility = parse_incompatibility(fields.next()?)?;
    let stability = decode_stability(fields.next()?)?;
    if fields.next().is_some() {
        return None;
    }
    Some(FailureSignature {
        normalized: normalized.into(),
        statement: statement.into(),
        kind,
        error_kind,
        dependency,
        incompatibility,
        stability,
    })
}

/// Encode translation counters as the single-line
/// `a0,..;s0,..;<translated>;<passthrough>` payload shared by both stores.
pub fn encode_translation_counts(t: &TranslationCounts) -> String {
    let csv = |xs: &[u64]| xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    format!("{};{};{};{}", csv(&t.applied), csv(&t.skipped), t.translated, t.passthrough)
}

/// Decode an [`encode_translation_counts`] payload. `None` on any
/// malformation, including a rule-count mismatch (the counter arrays are
/// indexed by rule order, so a different-width entry is from a different
/// rule set).
pub fn decode_translation_counts(s: &str) -> Option<TranslationCounts> {
    let mut parts = s.split(';');
    let mut counts = TranslationCounts::default();
    let parse_csv = |s: &str, dst: &mut [u64]| -> Option<()> {
        let vals: Vec<u64> = s.split(',').map(|n| n.parse().ok()).collect::<Option<_>>()?;
        (vals.len() == dst.len()).then(|| dst.copy_from_slice(&vals))
    };
    parse_csv(parts.next()?, &mut counts.applied)?;
    parse_csv(parts.next()?, &mut counts.skipped)?;
    counts.translated = parts.next()?.parse().ok()?;
    counts.passthrough = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_signature(stability: Option<Stability>) -> FailureSignature {
        FailureSignature {
            normalized: "conversion: expected \"1\"\nsaw \"2\"\ttabbed".into(),
            statement: "SELECT".into(),
            kind: FailKind::WrongResult,
            error_kind: Some(ErrorKind::Conversion),
            dependency: DependencyClass::ClientNumeric,
            incompatibility: IncompatibilityClass::Semantic,
            stability,
        }
    }

    #[test]
    fn signature_roundtrips_every_stability_variant() {
        let variants = [
            None,
            Some(Stability::Stable),
            Some(Stability::Flaky {
                observed_outcomes: vec!["crash".to_string(), "fail".to_string()],
            }),
            Some(Stability::PerturbationSensitive { axis: PerturbationAxis::FaultProfile }),
        ];
        for stability in variants {
            let sig = sample_signature(stability);
            let line = encode_signature(&sig);
            assert!(!line.contains('\n'), "one line: {line:?}");
            let decoded = decode_signature(&line).expect("roundtrip");
            assert_eq!(decoded, sig);
        }
    }

    #[test]
    fn signature_without_error_kind_roundtrips() {
        let mut sig = sample_signature(None);
        sig.error_kind = None;
        sig.kind = FailKind::Runner;
        assert_eq!(decode_signature(&encode_signature(&sig)), Some(sig));
    }

    #[test]
    fn every_perturbation_axis_roundtrips() {
        for axis in PerturbationAxis::ALL {
            let sig = sample_signature(Some(Stability::PerturbationSensitive { axis }));
            assert_eq!(decode_signature(&encode_signature(&sig)), Some(sig));
        }
    }

    #[test]
    fn malformed_signature_lines_are_rejected() {
        let good = encode_signature(&sample_signature(Some(Stability::Stable)));
        for bad in [
            "",
            "WrongResult",
            "NotAKind - Misc Semantic -\tx\ty",
            "WrongResult - NotADep Semantic -\tx\ty",
            "WrongResult - Runner Semantic wobbly\tx\ty",
            good.trim_end_matches(|c| c != '\t'), // missing last field's text is fine, but...
        ] {
            // ...a truncated head or unknown token must fail; the last probe
            // (everything up to the final tab) still has three fields, so it
            // decodes — just assert it never panics.
            let _ = decode_signature(bad);
        }
        assert!(decode_signature("WrongResult - Runner Semantic\tx\ty").is_none(), "short head");
        assert!(decode_signature(&format!("{good}\textra")).is_none(), "extra tab field");
        assert!(
            decode_signature("WrongResult - Runner Semantic - extra\tx\ty").is_none(),
            "extra head field"
        );
    }

    #[test]
    fn dialect_tags_roundtrip_and_reject_unknown_text() {
        for d in EngineDialect::ALL {
            assert_eq!(parse_engine_dialect(&engine_dialect_tag(d).to_string()), Some(d));
        }
        for d in TextDialect::ALL {
            assert_eq!(parse_text_dialect(&text_dialect_tag(d).to_string()), Some(d));
        }
        for bad in ["", "4", "01", "+1", "x"] {
            assert_eq!(parse_engine_dialect(bad), None, "{bad:?}");
        }
        assert_eq!(parse_text_dialect("5"), None);
    }

    #[test]
    fn translation_counts_roundtrip() {
        let mut counts = TranslationCounts::default();
        counts.applied[0] = 3;
        counts.skipped[1] = 2;
        counts.translated = 11;
        counts.passthrough = 4;
        let line = encode_translation_counts(&counts);
        assert_eq!(decode_translation_counts(&line), Some(counts));
        assert!(decode_translation_counts("1,2;3,4;5;6").is_none(), "rule-count mismatch");
        assert!(decode_translation_counts(&format!("{line};7")).is_none(), "extra field");
    }
}
