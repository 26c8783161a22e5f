//! Best-effort statement-type classification (the paper's RQ2 instrument).
//!
//! The classifier assigns one of [`StatementType`] to a statement by
//! examining its leading tokens, after skipping comments and redundant outer
//! parentheses. Like the paper's `sqlparse`-based analyzer it is
//! dialect-agnostic and tolerant: unknown or intentionally-malformed verbs
//! (e.g. `SELEC`) classify as [`StatementType::Unknown`], and deeply
//! parenthesised queries like `(((((select * from t)))))` resolve to
//! `Select` (the paper notes its analyzer misclassified these; ours peels
//! parens but records the paren depth so both behaviours can be studied).

use crate::dialect::TextDialect;
use crate::lexer::Lexer;
use crate::token::{Token, TokenKind};
use std::borrow::Borrow;

/// The type of a SQL statement at the granularity used by the paper's
/// Figure 2 and Table 6 analyses.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StatementType {
    Select,
    Insert,
    Update,
    Delete,
    CreateTable,
    CreateIndex,
    CreateView,
    CreateSchema,
    CreateSequence,
    CreateFunction,
    CreateTrigger,
    CreateType,
    CreateDatabase,
    CreateExtension,
    DropTable,
    DropIndex,
    DropView,
    DropSchema,
    DropOther,
    AlterTable,
    AlterSchema,
    AlterOther,
    Begin,
    Commit,
    Rollback,
    Savepoint,
    Set,
    Reset,
    Pragma,
    Explain,
    Analyze,
    Vacuum,
    Copy,
    Show,
    Use,
    Values,
    With,
    Execute,
    Prepare,
    Deallocate,
    Grant,
    Revoke,
    Truncate,
    Call,
    Declare,
    Fetch,
    Close,
    Discard,
    Checkpoint,
    Load,
    Install,
    Attach,
    Detach,
    Reindex,
    Comment,
    Do,
    Notify,
    Listen,
    Unlisten,
    Lock,
    Cluster,
    Refresh,
    Merge,
    Import,
    Export,
    Describe,
    /// A psql/mysql client meta-command such as `\d` or `\c` — the paper's
    /// `CLI_COMMAND` category.
    CliCommand,
    /// Anything unrecognised; the payload is the upper-cased first word.
    Unknown(String),
}

impl StatementType {
    /// Short display name matching the paper's figure labels.
    pub fn label(&self) -> String {
        match self {
            StatementType::Select => "SELECT".into(),
            StatementType::Insert => "INSERT".into(),
            StatementType::Update => "UPDATE".into(),
            StatementType::Delete => "DELETE".into(),
            StatementType::CreateTable => "CREATE TABLE".into(),
            StatementType::CreateIndex => "CREATE INDEX".into(),
            StatementType::CreateView => "CREATE VIEW".into(),
            StatementType::CreateSchema => "CREATE SCHEMA".into(),
            StatementType::CreateSequence => "CREATE SEQUENCE".into(),
            StatementType::CreateFunction => "CREATE FUNCTION".into(),
            StatementType::CreateTrigger => "CREATE TRIGGER".into(),
            StatementType::CreateType => "CREATE TYPE".into(),
            StatementType::CreateDatabase => "CREATE DATABASE".into(),
            StatementType::CreateExtension => "CREATE EXTENSION".into(),
            StatementType::DropTable => "DROP TABLE".into(),
            StatementType::DropIndex => "DROP INDEX".into(),
            StatementType::DropView => "DROP VIEW".into(),
            StatementType::DropSchema => "DROP SCHEMA".into(),
            StatementType::DropOther => "DROP".into(),
            StatementType::AlterTable => "ALTER TABLE".into(),
            StatementType::AlterSchema => "ALTER SCHEMA".into(),
            StatementType::AlterOther => "ALTER".into(),
            StatementType::Begin => "BEGIN".into(),
            StatementType::Commit => "COMMIT".into(),
            StatementType::Rollback => "ROLLBACK".into(),
            StatementType::Savepoint => "SAVEPOINT".into(),
            StatementType::Set => "SET".into(),
            StatementType::Reset => "RESET".into(),
            StatementType::Pragma => "PRAGMA".into(),
            StatementType::Explain => "EXPLAIN".into(),
            StatementType::Analyze => "ANALYZE".into(),
            StatementType::Vacuum => "VACUUM".into(),
            StatementType::Copy => "COPY".into(),
            StatementType::Show => "SHOW".into(),
            StatementType::Use => "USE".into(),
            StatementType::Values => "VALUES".into(),
            StatementType::With => "WITH".into(),
            StatementType::Execute => "EXECUTE".into(),
            StatementType::Prepare => "PREPARE".into(),
            StatementType::Deallocate => "DEALLOCATE".into(),
            StatementType::Grant => "GRANT".into(),
            StatementType::Revoke => "REVOKE".into(),
            StatementType::Truncate => "TRUNCATE".into(),
            StatementType::Call => "CALL".into(),
            StatementType::Declare => "DECLARE".into(),
            StatementType::Fetch => "FETCH".into(),
            StatementType::Close => "CLOSE".into(),
            StatementType::Discard => "DISCARD".into(),
            StatementType::Checkpoint => "CHECKPOINT".into(),
            StatementType::Load => "LOAD".into(),
            StatementType::Install => "INSTALL".into(),
            StatementType::Attach => "ATTACH".into(),
            StatementType::Detach => "DETACH".into(),
            StatementType::Reindex => "REINDEX".into(),
            StatementType::Comment => "COMMENT".into(),
            StatementType::Do => "DO".into(),
            StatementType::Notify => "NOTIFY".into(),
            StatementType::Listen => "LISTEN".into(),
            StatementType::Unlisten => "UNLISTEN".into(),
            StatementType::Lock => "LOCK".into(),
            StatementType::Cluster => "CLUSTER".into(),
            StatementType::Refresh => "REFRESH".into(),
            StatementType::Merge => "MERGE".into(),
            StatementType::Import => "IMPORT".into(),
            StatementType::Export => "EXPORT".into(),
            StatementType::Describe => "DESCRIBE".into(),
            StatementType::CliCommand => "CLI_COMMAND".into(),
            StatementType::Unknown(w) => w.clone(),
        }
    }

    /// True for the query-like types whose results a test validates.
    pub fn is_query(&self) -> bool {
        matches!(
            self,
            StatementType::Select
                | StatementType::Values
                | StatementType::With
                | StatementType::Show
                | StatementType::Explain
                | StatementType::Describe
        )
    }
}

/// Classify one SQL statement. Tokens are lexed on demand: only the
/// leading parentheses, the verb and `CREATE`'s noise words are read, so
/// the cost does not grow with the statement's length.
pub fn classify(sql: &str, dialect: TextDialect) -> StatementType {
    let trimmed = sql.trim_start();
    if trimmed.starts_with('\\') {
        return StatementType::CliCommand;
    }
    classify_stream(Lexer::new(sql, dialect).filter(|t| t.kind != TokenKind::Comment))
}

/// Classify from an existing token stream (comments must be pre-filtered).
pub fn classify_tokens(tokens: &[Token]) -> StatementType {
    classify_stream(tokens.iter())
}

fn classify_stream<T: Borrow<Token>>(mut tokens: impl Iterator<Item = T>) -> StatementType {
    // Peel leading parentheses: "(((select ...)))" classifies as SELECT.
    let first = loop {
        match tokens.next() {
            Some(tok) if tok.borrow().is_symbol("(") => continue,
            Some(tok) => break tok,
            None => return StatementType::Unknown(String::new()),
        }
    };
    let first = first.borrow();
    if first.kind != TokenKind::Word {
        return StatementType::Unknown(first.text.clone());
    }
    let mut second = || tokens.next().map(|t| t.borrow().upper());
    match first.upper().as_str() {
        "SELECT" => StatementType::Select,
        "INSERT" | "REPLACE" => StatementType::Insert,
        "UPDATE" => StatementType::Update,
        "DELETE" => StatementType::Delete,
        "CREATE" => classify_create(tokens),
        "DROP" => match second().as_deref() {
            Some("TABLE") => StatementType::DropTable,
            Some("INDEX") => StatementType::DropIndex,
            Some("VIEW") => StatementType::DropView,
            Some("SCHEMA") => StatementType::DropSchema,
            _ => StatementType::DropOther,
        },
        "ALTER" => match second().as_deref() {
            Some("TABLE") => StatementType::AlterTable,
            Some("SCHEMA") => StatementType::AlterSchema,
            _ => StatementType::AlterOther,
        },
        "BEGIN" => StatementType::Begin,
        "START" => {
            if tokens.next().is_some_and(|t| t.borrow().is_keyword("TRANSACTION")) {
                StatementType::Begin
            } else {
                StatementType::Unknown("START".into())
            }
        }
        "COMMIT" | "END" => StatementType::Commit,
        "ROLLBACK" | "ABORT" => StatementType::Rollback,
        "SAVEPOINT" | "RELEASE" => StatementType::Savepoint,
        "SET" => StatementType::Set,
        "RESET" => StatementType::Reset,
        "PRAGMA" => StatementType::Pragma,
        "EXPLAIN" => StatementType::Explain,
        "ANALYZE" | "ANALYSE" => StatementType::Analyze,
        "VACUUM" => StatementType::Vacuum,
        "COPY" => StatementType::Copy,
        "SHOW" => StatementType::Show,
        "USE" => StatementType::Use,
        "VALUES" => StatementType::Values,
        // WITH stays its own category (the paper reports it as such,
        // 0.48%) whatever main verb follows the CTE list.
        "WITH" => StatementType::With,
        "EXECUTE" | "EXEC" => StatementType::Execute,
        "PREPARE" => StatementType::Prepare,
        "DEALLOCATE" => StatementType::Deallocate,
        "GRANT" => StatementType::Grant,
        "REVOKE" => StatementType::Revoke,
        "TRUNCATE" => StatementType::Truncate,
        "CALL" => StatementType::Call,
        "DECLARE" => StatementType::Declare,
        "FETCH" => StatementType::Fetch,
        "CLOSE" => StatementType::Close,
        "DISCARD" => StatementType::Discard,
        "CHECKPOINT" => StatementType::Checkpoint,
        "LOAD" => StatementType::Load,
        "INSTALL" => StatementType::Install,
        "FORCE" => StatementType::Install, // DuckDB: FORCE INSTALL ext
        "ATTACH" => StatementType::Attach,
        "DETACH" => StatementType::Detach,
        "REINDEX" => StatementType::Reindex,
        "COMMENT" => StatementType::Comment,
        "DO" => StatementType::Do,
        "NOTIFY" => StatementType::Notify,
        "LISTEN" => StatementType::Listen,
        "UNLISTEN" => StatementType::Unlisten,
        "LOCK" => StatementType::Lock,
        "CLUSTER" => StatementType::Cluster,
        "REFRESH" => StatementType::Refresh,
        "MERGE" => StatementType::Merge,
        "IMPORT" => StatementType::Import,
        "EXPORT" => StatementType::Export,
        "DESCRIBE" | "DESC" => StatementType::Describe,
        other => StatementType::Unknown(other.to_string()),
    }
}

/// CREATE is the most overloaded verb; read past OR REPLACE / TEMP /
/// UNIQUE / MATERIALIZED / GLOBAL|LOCAL noise words to the object kind.
fn classify_create<T: Borrow<Token>>(tokens: impl Iterator<Item = T>) -> StatementType {
    for tok in tokens {
        let tok = tok.borrow();
        if tok.kind != TokenKind::Word {
            break;
        }
        match tok.upper().as_str() {
            "OR" | "REPLACE" | "TEMP" | "TEMPORARY" | "UNIQUE" | "MATERIALIZED" | "GLOBAL"
            | "LOCAL" | "UNLOGGED" | "VIRTUAL" | "RECURSIVE" => {}
            "TABLE" => return StatementType::CreateTable,
            "INDEX" => return StatementType::CreateIndex,
            "VIEW" => return StatementType::CreateView,
            "SCHEMA" => return StatementType::CreateSchema,
            "SEQUENCE" => return StatementType::CreateSequence,
            "FUNCTION" | "PROCEDURE" | "AGGREGATE" | "MACRO" => {
                return StatementType::CreateFunction
            }
            "TRIGGER" => return StatementType::CreateTrigger,
            "TYPE" | "DOMAIN" => return StatementType::CreateType,
            "DATABASE" => return StatementType::CreateDatabase,
            "EXTENSION" => return StatementType::CreateExtension,
            _ => break,
        }
    }
    StatementType::Unknown("CREATE".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(sql: &str) -> StatementType {
        classify(sql, TextDialect::Generic)
    }

    #[test]
    fn basic_verbs() {
        assert_eq!(c("SELECT * FROM t"), StatementType::Select);
        assert_eq!(c("insert into t values (1)"), StatementType::Insert);
        assert_eq!(c("UPDATE t SET a=1"), StatementType::Update);
        assert_eq!(c("DELETE FROM t"), StatementType::Delete);
        assert_eq!(c("VALUES (1),(2)"), StatementType::Values);
    }

    #[test]
    fn create_variants() {
        assert_eq!(c("CREATE TABLE t(a int)"), StatementType::CreateTable);
        assert_eq!(c("CREATE TEMP TABLE t(a int)"), StatementType::CreateTable);
        assert_eq!(c("CREATE UNIQUE INDEX i ON t(a)"), StatementType::CreateIndex);
        assert_eq!(c("CREATE OR REPLACE VIEW v AS SELECT 1"), StatementType::CreateView);
        assert_eq!(c("CREATE MATERIALIZED VIEW v AS SELECT 1"), StatementType::CreateView);
        assert_eq!(
            c("CREATE FUNCTION f(internal) RETURNS void AS 'lib' LANGUAGE C"),
            StatementType::CreateFunction
        );
        assert_eq!(c("CREATE SCHEMA s"), StatementType::CreateSchema);
        assert_eq!(c("CREATE EXTENSION pgcrypto"), StatementType::CreateExtension);
    }

    #[test]
    fn drop_and_alter_variants() {
        assert_eq!(c("DROP TABLE t"), StatementType::DropTable);
        assert_eq!(c("DROP INDEX i"), StatementType::DropIndex);
        assert_eq!(c("DROP ROLE r"), StatementType::DropOther);
        assert_eq!(c("ALTER TABLE t ADD COLUMN b int"), StatementType::AlterTable);
        assert_eq!(c("ALTER SCHEMA a RENAME TO b"), StatementType::AlterSchema);
        assert_eq!(c("ALTER SEQUENCE s RESTART"), StatementType::AlterOther);
    }

    #[test]
    fn transactions() {
        assert_eq!(c("BEGIN"), StatementType::Begin);
        assert_eq!(c("BEGIN TRANSACTION"), StatementType::Begin);
        assert_eq!(c("START TRANSACTION"), StatementType::Begin);
        assert_eq!(c("COMMIT"), StatementType::Commit);
        assert_eq!(c("END"), StatementType::Commit);
        assert_eq!(c("ROLLBACK"), StatementType::Rollback);
        assert_eq!(c("ABORT"), StatementType::Rollback);
        assert_eq!(c("SAVEPOINT sp1"), StatementType::Savepoint);
    }

    #[test]
    fn config_statements() {
        assert_eq!(c("SET search_path TO public"), StatementType::Set);
        assert_eq!(c("PRAGMA explain_output = OPTIMIZED_ONLY"), StatementType::Pragma);
        assert_eq!(c("RESET all"), StatementType::Reset);
        assert_eq!(c("SHOW tables"), StatementType::Show);
    }

    #[test]
    fn parenthesised_select_resolves() {
        assert_eq!(c("(((((select * from int8_tbl)))))"), StatementType::Select);
    }

    #[test]
    fn misspelled_verb_is_unknown() {
        assert_eq!(c("SELEC 1"), StatementType::Unknown("SELEC".into()));
    }

    #[test]
    fn cli_command() {
        assert_eq!(c("\\d t1"), StatementType::CliCommand);
        assert_eq!(c("  \\c testdb"), StatementType::CliCommand);
    }

    #[test]
    fn with_statement() {
        assert_eq!(c("WITH RECURSIVE x(n) AS (SELECT 1) SELECT * FROM x"), StatementType::With);
    }

    #[test]
    fn leading_comment_skipped() {
        assert_eq!(c("/* hi */ SELECT 1"), StatementType::Select);
        assert_eq!(c("-- line\nSELECT 1"), StatementType::Select);
    }

    #[test]
    fn empty_is_unknown() {
        assert_eq!(c(""), StatementType::Unknown(String::new()));
        assert_eq!(c("   "), StatementType::Unknown(String::new()));
    }

    /// The eager reference: tokenize everything, then classify.
    fn eager(sql: &str) -> StatementType {
        if sql.trim_start().starts_with('\\') {
            return StatementType::CliCommand;
        }
        classify_tokens(&crate::lexer::tokenize(sql, TextDialect::Generic))
    }

    #[test]
    fn lazy_classification_matches_the_eager_token_scan() {
        let cases = [
            ("((((( (select 1) )))))", StatementType::Select),
            ("((( insert into t values (1)", StatementType::Insert),
            ("(", StatementType::Unknown(String::new())),
            ("( 42 )", StatementType::Unknown("42".into())),
            ("/* a */ -- b\n /* c */ UPDATE t SET a = 1", StatementType::Update),
            ("-- only a comment", StatementType::Unknown(String::new())),
            (
                "CREATE OR REPLACE GLOBAL TEMPORARY UNLOGGED VIRTUAL RECURSIVE MATERIALIZED VIEW v",
                StatementType::CreateView,
            ),
            ("CREATE OR REPLACE TEMP UNIQUE INDEX i ON t(a)", StatementType::CreateIndex),
            ("CREATE OR REPLACE TEMP", StatementType::Unknown("CREATE".into())),
            ("CREATE OR REPLACE TEMP (a)", StatementType::Unknown("CREATE".into())),
            ("create temp macro m(a) AS a", StatementType::CreateFunction),
            ("DROP", StatementType::DropOther),
            ("ALTER", StatementType::AlterOther),
            ("START", StatementType::Unknown("START".into())),
            ("START /* x */ transaction", StatementType::Begin),
            ("WITH x AS (SELECT 1) DELETE FROM t", StatementType::With),
            ("WITH", StatementType::With),
            ("", StatementType::Unknown(String::new())),
            ("\\d t1", StatementType::CliCommand),
            ("\t\n \\set x 1", StatementType::CliCommand),
        ];
        for (sql, want) in cases {
            assert_eq!(c(sql), want, "{sql:?}");
            assert_eq!(c(sql), eager(sql), "{sql:?}");
        }
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(StatementType::CliCommand.label(), "CLI_COMMAND");
        assert_eq!(StatementType::CreateTable.label(), "CREATE TABLE");
        assert_eq!(StatementType::Unknown("SELEC".into()).label(), "SELEC");
    }

    #[test]
    fn query_detection() {
        assert!(StatementType::Select.is_query());
        assert!(StatementType::Values.is_query());
        assert!(!StatementType::Insert.is_query());
    }
}
