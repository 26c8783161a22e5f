//! Canonical content hashing of the unified IR.
//!
//! The incremental study cache keys cached per-file results by *content*,
//! not by file name or mtime: two structurally identical [`TestFile`]s
//! hash equal wherever they came from, and any observable difference —
//! one SQL byte, a reordered condition, a loop bound — produces a
//! different hash. The hash walks the IR itself (not a re-rendered text)
//! so files that only differ in parse-irrelevant surface syntax still
//! collide deliberately: the runner cannot tell them apart either.
//!
//! The hasher is FNV-1a over a tagged canonical byte stream, the same
//! family as [`result_hash`](crate::result_hash). Every variant writes a
//! distinct tag before its payload and every variable-length field is
//! length-prefixed, so `["ab","c"]` and `["a","bc"]` never collide.

use crate::ir::{
    Condition, ControlCommand, QueryExpectation, RecordKind, SortMode, StatementExpect, SuiteKind,
    TestFile, TestRecord,
};

/// An incremental FNV-1a 64-bit hasher over a tagged canonical stream.
///
/// Shared by the per-file content hash below and the study cache's
/// cell-configuration hash in `squality-core`.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    /// FNV-1a offset basis.
    pub fn new() -> ContentHasher {
        ContentHasher { state: 0xcbf29ce484222325 }
    }

    /// Feed raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.state ^= *b as u64;
            self.state = self.state.wrapping_mul(0x100000001b3);
        }
    }

    /// Feed a little-endian u64.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feed a usize (canonicalised to u64).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feed an i64 (canonicalised to its u64 bit pattern).
    pub fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// Feed a one-byte tag (enum discriminants, booleans).
    pub fn write_tag(&mut self, tag: u8) {
        self.write_bytes(&[tag]);
    }

    /// Feed a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Feed an optional length-prefixed string.
    pub fn write_opt_str(&mut self, s: Option<&str>) {
        match s {
            None => self.write_tag(0),
            Some(s) => {
                self.write_tag(1);
                self.write_str(s);
            }
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// The one-byte tag a [`SuiteKind`] is hashed and stored as: the single
/// mapping behind content hashes, cell hashes and bug-store entries.
pub fn suite_tag(kind: SuiteKind) -> u8 {
    match kind {
        SuiteKind::Slt => 0,
        SuiteKind::Duckdb => 1,
        SuiteKind::PgRegress => 2,
        SuiteKind::MysqlTest => 3,
    }
}

/// Invert [`suite_tag`] from its decimal text.
pub fn parse_suite_tag(tag: &str) -> Option<SuiteKind> {
    SuiteKind::ALL.into_iter().find(|&kind| suite_tag(kind).to_string() == tag)
}

fn hash_records(h: &mut ContentHasher, records: &[TestRecord]) {
    h.write_usize(records.len());
    for rec in records {
        h.write_usize(rec.conditions.len());
        for cond in &rec.conditions {
            match cond {
                Condition::SkipIf(db) => {
                    h.write_tag(0);
                    h.write_str(db);
                }
                Condition::OnlyIf(db) => {
                    h.write_tag(1);
                    h.write_str(db);
                }
            }
        }
        h.write_usize(rec.line);
        match &rec.kind {
            RecordKind::Statement { sql, expect } => {
                h.write_tag(0);
                h.write_str(sql);
                match expect {
                    StatementExpect::Ok => h.write_tag(0),
                    StatementExpect::Error { message } => {
                        h.write_tag(1);
                        h.write_opt_str(message.as_deref());
                    }
                    StatementExpect::Count(n) => {
                        h.write_tag(2);
                        h.write_usize(*n);
                    }
                }
            }
            RecordKind::Query { sql, types, sort, label, expected } => {
                h.write_tag(1);
                h.write_str(sql);
                h.write_str(types);
                h.write_tag(match sort {
                    SortMode::NoSort => 0,
                    SortMode::RowSort => 1,
                    SortMode::ValueSort => 2,
                });
                h.write_opt_str(label.as_deref());
                match expected {
                    QueryExpectation::Values(vals) => {
                        h.write_tag(0);
                        h.write_usize(vals.len());
                        for v in vals {
                            h.write_str(v);
                        }
                    }
                    QueryExpectation::Rows(rows) => {
                        h.write_tag(1);
                        h.write_usize(rows.len());
                        for row in rows {
                            h.write_usize(row.len());
                            for v in row {
                                h.write_str(v);
                            }
                        }
                    }
                    QueryExpectation::Hash { count, hash } => {
                        h.write_tag(2);
                        h.write_usize(*count);
                        h.write_str(hash);
                    }
                }
            }
            RecordKind::Control(cmd) => {
                h.write_tag(2);
                hash_control(h, cmd);
            }
        }
    }
}

fn hash_control(h: &mut ContentHasher, cmd: &ControlCommand) {
    match cmd {
        ControlCommand::Halt => h.write_tag(0),
        ControlCommand::HashThreshold(n) => {
            h.write_tag(1);
            h.write_usize(*n);
        }
        ControlCommand::Require(ext) => {
            h.write_tag(2);
            h.write_str(ext);
        }
        ControlCommand::Load(path) => {
            h.write_tag(3);
            h.write_str(path);
        }
        ControlCommand::SetVar { name, value } => {
            h.write_tag(4);
            h.write_str(name);
            h.write_str(value);
        }
        ControlCommand::Loop { var, start, end, body } => {
            h.write_tag(5);
            h.write_str(var);
            h.write_i64(*start);
            h.write_i64(*end);
            hash_records(h, body);
        }
        ControlCommand::Foreach { var, values, body } => {
            h.write_tag(6);
            h.write_str(var);
            h.write_usize(values.len());
            for v in values {
                h.write_str(v);
            }
            hash_records(h, body);
        }
        ControlCommand::Connection(name) => {
            h.write_tag(7);
            h.write_str(name);
        }
        ControlCommand::Sleep(ms) => {
            h.write_tag(8);
            h.write_u64(*ms);
        }
        ControlCommand::Include(path) => {
            h.write_tag(9);
            h.write_str(path);
        }
        ControlCommand::Echo(text) => {
            h.write_tag(10);
            h.write_str(text);
        }
        ControlCommand::CliCommand(cmd) => {
            h.write_tag(11);
            h.write_str(cmd);
        }
        ControlCommand::ShellExec(cmd) => {
            h.write_tag(12);
            h.write_str(cmd);
        }
        ControlCommand::Mode(mode) => {
            h.write_tag(13);
            h.write_str(mode);
        }
        ControlCommand::Restart => h.write_tag(14),
        ControlCommand::Unknown(text) => {
            h.write_tag(15);
            h.write_str(text);
        }
    }
}

/// Canonical content hash of one test file: name, suite, and the full
/// record tree (conditions, SQL, expectations, loop bodies, lines).
///
/// Structurally equal files hash equal; any observable mutation changes
/// the hash. This is the per-file half of the study cache's `FileKey`.
pub fn file_content_hash(file: &TestFile) -> u64 {
    let mut h = ContentHasher::new();
    h.write_str(&file.name);
    h.write_tag(suite_tag(file.suite));
    hash_records(&mut h, &file.records);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slt::{parse_slt, SltFlavor};

    fn probe(sql: &str) -> TestFile {
        parse_slt("probe.test", &format!("statement ok\n{sql}\n"), SltFlavor::Classic)
    }

    #[test]
    fn equal_files_hash_equal() {
        assert_eq!(file_content_hash(&probe("SELECT 1")), file_content_hash(&probe("SELECT 1")));
    }

    #[test]
    fn any_field_perturbs_the_hash() {
        let base = probe("SELECT 1");
        let sql = probe("SELECT 2");
        assert_ne!(file_content_hash(&base), file_content_hash(&sql));
        let mut renamed = base.clone();
        renamed.name = "other.test".into();
        assert_ne!(file_content_hash(&base), file_content_hash(&renamed));
        let mut resuited = base.clone();
        resuited.suite = SuiteKind::Duckdb;
        assert_ne!(file_content_hash(&base), file_content_hash(&resuited));
        let mut conditioned = base.clone();
        conditioned.records[0].conditions.push(Condition::SkipIf("mysql".into()));
        assert_ne!(file_content_hash(&base), file_content_hash(&conditioned));
    }

    #[test]
    fn length_prefixing_prevents_concatenation_collisions() {
        let a = parse_slt(
            "f",
            "statement ok\nSELECT 'ab'\n\nstatement ok\nSELECT 'c'\n",
            SltFlavor::Classic,
        );
        let b = parse_slt(
            "f",
            "statement ok\nSELECT 'a'\n\nstatement ok\nSELECT 'bc'\n",
            SltFlavor::Classic,
        );
        assert_ne!(file_content_hash(&a), file_content_hash(&b));
    }

    #[test]
    fn loop_bodies_participate() {
        let mk = |end: i64| {
            parse_slt(
                "f",
                &format!("loop v 0 {end}\n\nstatement ok\nSELECT ${{v}}\n\nendloop\n"),
                SltFlavor::Duckdb,
            )
        };
        assert_eq!(file_content_hash(&mk(3)), file_content_hash(&mk(3)));
        assert_ne!(file_content_hash(&mk(3)), file_content_hash(&mk(4)));
    }
}
