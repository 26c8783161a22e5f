//! Record-level slicing of IR test files.
//!
//! The triage reducer shrinks a failing file to a minimal record set, but a
//! record rarely fails in isolation: the `SELECT` that exposes a semantic
//! divergence needs the `CREATE TABLE` and the `INSERT`s that built its
//! data, and a `${v}`-substituted statement needs the `set` that defined
//! `v`. [`slice()`] therefore keeps the requested records **plus their setup
//! closure**, found by a lightweight table/variable def-use scan — no SQL
//! parse, just token-level name extraction — so every slice is a
//! self-contained, runnable test file that round-trips through the
//! existing writers.
//!
//! A reducer slices the same file hundreds of times, so the scan runs
//! once: a [`SliceIndex`] records each record's defined names, used names
//! and variable references as interned integer ids, and every slice is a
//! fixpoint over those integers. [`SliceIndex::closure`] returns the
//! slice's membership as a [`SliceKey`] before any record is cloned; equal
//! keys mean byte-identical slices, which is what lets a reducer skip a
//! probe it has already run. [`slice()`] is the one-shot form: build the
//! index, then slice.

use crate::ir::{ControlCommand, RecordId, RecordKind, StatementExpect, TestFile, TestRecord};
use std::collections::HashMap;

/// Slice `file` down to the records whose source lines appear in `keep`,
/// plus the setup dependencies they need to run:
///
/// * **DDL/DML statements** (`CREATE` / `INSERT` / `UPDATE` / `DELETE` /
///   `ALTER` / `DROP` / `COPY`) that touch a table referenced — directly or
///   transitively — by a kept record,
/// * **variable definitions** (`set` controls) whose variable a kept
///   record substitutes via `$name` / `${name}`,
/// * **execution-context controls** (`hash-threshold`, `mode`) preceding a
///   kept record, which change how later records execute without defining
///   names.
///
/// Loop/foreach bodies are sliced recursively; a loop survives only if
/// some body record does. Relative record order is always preserved, so
/// the slice replays the same state transitions as the original prefix.
/// `halt` records are never added by the closure (a kept failure was
/// necessarily executed, so no `halt` preceded it).
pub fn slice(file: &TestFile, keep: &[RecordId]) -> TestFile {
    SliceIndex::new(file).slice(keep)
}

/// The def-use facts of one file, computed once and shared by every slice
/// taken from it.
///
/// Table-ish words and variable names are interned into two separate id
/// spaces, and every distinct source line gets a dense slot, so growing a
/// closure touches only integers.
#[derive(Debug)]
pub struct SliceIndex<'a> {
    file: &'a TestFile,
    /// Every record in pre-order: a loop header precedes its body.
    records: Vec<Indexed>,
    /// Dense slot of each distinct source line.
    slots: HashMap<usize, u32>,
    names: usize,
    vars: usize,
}

#[derive(Debug)]
struct Indexed {
    slot: u32,
    role: Role,
}

#[derive(Debug)]
enum Role {
    /// A statement or query: the words and variables it references, and
    /// the names it defines when it is an `ok` setup statement (empty
    /// otherwise, so it never joins a closure on its own).
    Sql { uses: Vec<u32>, vars: Vec<u32>, defines: Vec<u32> },
    /// A `set` control, by variable id.
    SetVar(u32),
    /// Anything else; the closure never adds it.
    Other,
}

/// Which records a slice keeps, as a bitset over a [`SliceIndex`]'s line
/// slots. Two keys from the same index are equal exactly when the slices
/// they [`extract`](SliceIndex::extract) to keep the same source lines.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SliceKey(Vec<u64>);

impl SliceKey {
    fn empty(slots: usize) -> SliceKey {
        SliceKey(vec![0; slots.div_ceil(64)])
    }

    fn contains(&self, slot: u32) -> bool {
        self.0[slot as usize / 64] & (1 << (slot % 64)) != 0
    }

    /// Set a slot's bit; true when it was clear.
    fn insert(&mut self, slot: u32) -> bool {
        let (word, bit) = (slot as usize / 64, 1u64 << (slot % 64));
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }
}

/// Assigns consecutive ids to strings in first-seen order.
#[derive(Default)]
struct Interner(HashMap<String, u32>);

impl Interner {
    fn id(&mut self, s: String) -> u32 {
        let next = self.0.len() as u32;
        *self.0.entry(s).or_insert(next)
    }
}

impl<'a> SliceIndex<'a> {
    /// Scan `file` once: split and lowercase every statement's words,
    /// extract its defined names and variable references, and intern them.
    pub fn new(file: &'a TestFile) -> SliceIndex<'a> {
        struct Builder {
            records: Vec<Indexed>,
            slots: HashMap<usize, u32>,
            names: Interner,
            vars: Interner,
        }
        impl Builder {
            fn walk(&mut self, records: &[TestRecord]) {
                for rec in records {
                    let next = self.slots.len() as u32;
                    let slot = *self.slots.entry(rec.line).or_insert(next);
                    let role = match &rec.kind {
                        RecordKind::Statement { sql, .. } | RecordKind::Query { sql, .. } => {
                            let uses = words_of(sql).map(|w| self.names.id(w)).collect();
                            let vars =
                                variable_refs(sql).into_iter().map(|v| self.vars.id(v)).collect();
                            let defines = match &rec.kind {
                                RecordKind::Statement { expect: StatementExpect::Ok, .. } => {
                                    defined_names(sql)
                                        .into_iter()
                                        .map(|n| self.names.id(n))
                                        .collect()
                                }
                                _ => Vec::new(),
                            };
                            Role::Sql { uses, vars, defines }
                        }
                        RecordKind::Control(ControlCommand::SetVar { name, .. }) => {
                            Role::SetVar(self.vars.id(name.to_lowercase()))
                        }
                        _ => Role::Other,
                    };
                    self.records.push(Indexed { slot, role });
                    if let RecordKind::Control(
                        ControlCommand::Loop { body, .. } | ControlCommand::Foreach { body, .. },
                    ) = &rec.kind
                    {
                        self.walk(body);
                    }
                }
            }
        }
        let mut builder = Builder {
            records: Vec::new(),
            slots: HashMap::new(),
            names: Interner::default(),
            vars: Interner::default(),
        };
        builder.walk(&file.records);
        SliceIndex {
            file,
            records: builder.records,
            slots: builder.slots,
            names: builder.names.0.len(),
            vars: builder.vars.0.len(),
        }
    }

    /// The file this index describes.
    pub fn file(&self) -> &'a TestFile {
        self.file
    }

    /// The records a slice keeping the source lines `keep` contains: the
    /// kept records plus their setup closure (see [`slice()`]). Lines that
    /// name no record are ignored.
    pub fn closure(&self, keep: impl IntoIterator<Item = usize>) -> SliceKey {
        let mut kept = SliceKey::empty(self.slots.len());
        for line in keep {
            if let Some(&slot) = self.slots.get(&line) {
                kept.insert(slot);
            }
        }

        // Seed the use sets with what the kept records reference.
        let mut used = vec![false; self.names];
        let mut used_vars = vec![false; self.vars];
        let add =
            |ids: &[u32], set: &mut [bool]| ids.iter().for_each(|&id| set[id as usize] = true);
        for rec in &self.records {
            if let Role::Sql { uses, vars, .. } = &rec.role {
                if kept.contains(rec.slot) {
                    add(uses, &mut used);
                    add(vars, &mut used_vars);
                }
            }
        }

        // Grow the closure in record order until a pass adds no line. A
        // setup record that defines a used name joins the slice and
        // contributes its own references (CREATE TABLE t AS SELECT * FROM
        // s pulls in s's setup).
        let mut member = kept.clone();
        loop {
            let mut grew = false;
            for rec in &self.records {
                if kept.contains(rec.slot) {
                    continue;
                }
                match &rec.role {
                    Role::Sql { uses, vars, defines }
                        if defines.iter().any(|&n| used[n as usize]) =>
                    {
                        add(uses, &mut used);
                        add(vars, &mut used_vars);
                        grew |= member.insert(rec.slot);
                    }
                    Role::SetVar(var) if used_vars[*var as usize] => {
                        grew |= member.insert(rec.slot);
                    }
                    _ => {}
                }
            }
            if !grew {
                return member;
            }
        }
    }

    /// Materialize the slice `key` describes. `key` must come from this
    /// index's [`closure`](SliceIndex::closure).
    pub fn extract(&self, key: &SliceKey) -> TestFile {
        let mut cursor = 0usize;
        TestFile {
            name: self.file.name.clone(),
            suite: self.file.suite,
            records: self.filter_records(&self.file.records, key, &mut cursor),
        }
    }

    /// [`closure`](SliceIndex::closure) then
    /// [`extract`](SliceIndex::extract): the indexed form of [`slice()`].
    pub fn slice(&self, keep: &[RecordId]) -> TestFile {
        self.extract(&self.closure(keep.iter().map(|id| id.line as usize)))
    }

    /// Walk `records` in the same pre-order the index was built in;
    /// `cursor` tracks the current record's position in `self.records`.
    fn filter_records(
        &self,
        records: &[TestRecord],
        key: &SliceKey,
        cursor: &mut usize,
    ) -> Vec<TestRecord> {
        let mut out = Vec::new();
        for rec in records {
            let in_slice = key.contains(self.records[*cursor].slot);
            *cursor += 1;
            match &rec.kind {
                RecordKind::Statement { .. } | RecordKind::Query { .. } => {
                    if in_slice {
                        out.push(rec.clone());
                    }
                }
                RecordKind::Control(cmd) => match cmd {
                    ControlCommand::Loop { var, start, end, body } => {
                        let kept_body = self.filter_records(body, key, cursor);
                        if !kept_body.is_empty() {
                            out.push(TestRecord {
                                conditions: rec.conditions.clone(),
                                kind: RecordKind::Control(ControlCommand::Loop {
                                    var: var.clone(),
                                    start: *start,
                                    end: *end,
                                    body: kept_body,
                                }),
                                line: rec.line,
                            });
                        }
                    }
                    ControlCommand::Foreach { var, values, body } => {
                        let kept_body = self.filter_records(body, key, cursor);
                        if !kept_body.is_empty() {
                            out.push(TestRecord {
                                conditions: rec.conditions.clone(),
                                kind: RecordKind::Control(ControlCommand::Foreach {
                                    var: var.clone(),
                                    values: values.clone(),
                                    body: kept_body,
                                }),
                                line: rec.line,
                            });
                        }
                    }
                    // Execution-context controls are cheap and change how
                    // later records run; keep them whenever anything follows.
                    ControlCommand::HashThreshold(_) | ControlCommand::Mode(_) => {
                        out.push(rec.clone());
                    }
                    _ => {
                        if in_slice {
                            out.push(rec.clone());
                        }
                    }
                },
            }
        }
        // Trailing context controls (after the last kept record) are dead
        // weight; trim them.
        while matches!(
            out.last().map(|r| &r.kind),
            Some(RecordKind::Control(ControlCommand::HashThreshold(_)))
                | Some(RecordKind::Control(ControlCommand::Mode(_)))
        ) {
            out.pop();
        }
        out
    }
}

/// The table-ish names a DDL/DML statement defines or mutates: the
/// identifier after the object keyword (`CREATE [noise] TABLE t`,
/// `INSERT INTO t`, `UPDATE t`, `DELETE FROM t`, `DROP TABLE t`,
/// `ALTER TABLE t`, `COPY t`), lowercased. Non-setup statements return
/// an empty list.
fn defined_names(sql: &str) -> Vec<String> {
    let words: Vec<String> = words_of(sql).take(8).collect();
    let Some(first) = words.first() else { return Vec::new() };
    let after_keyword = |kws: &[&str]| -> Option<String> {
        let mut iter = words.iter().skip(1).peekable();
        while let Some(w) = iter.next() {
            if kws.contains(&w.as_str()) {
                // Skip IF [NOT] EXISTS noise.
                let mut name = iter.next()?;
                if name == "if" {
                    while name == "if" || name == "not" || name == "exists" {
                        name = iter.next()?;
                    }
                }
                return Some(name.clone());
            }
        }
        None
    };
    match first.as_str() {
        "create" | "drop" | "alter" => {
            after_keyword(&["table", "view", "index", "sequence"]).into_iter().collect()
        }
        "insert" | "replace" => after_keyword(&["into"]).into_iter().collect(),
        "update" => words.get(1).cloned().into_iter().collect(),
        "delete" => after_keyword(&["from"]).into_iter().collect(),
        "copy" => words.get(1).cloned().into_iter().collect(),
        _ => Vec::new(),
    }
}

/// Every identifier-shaped word of a statement, lowercased — the
/// conservative use-set (SQL keywords included; they only ever match a
/// defined name if a table shares the keyword's spelling).
fn words_of(sql: &str) -> impl Iterator<Item = String> + '_ {
    sql.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| {
            !w.is_empty() && w.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
        })
        .map(|w| w.to_lowercase())
}

/// `$name` / `${name}` variable references, lowercased.
fn variable_refs(sql: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = sql.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'$' {
            let start = i + 1;
            let (from, until): (usize, Box<dyn Fn(u8) -> bool>) = if bytes.get(start) == Some(&b'{')
            {
                (start + 1, Box::new(|b: u8| b == b'}'))
            } else {
                (start, Box::new(|b: u8| !(b.is_ascii_alphanumeric() || b == b'_')))
            };
            let mut end = from;
            while end < bytes.len() && !until(bytes[end]) {
                end += 1;
            }
            if end > from {
                out.push(sql[from..end].to_lowercase());
            }
            i = end;
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slt::{parse_slt, SltFlavor};
    use crate::writer::write_duckdb;

    const FILE: &str = "\
statement ok
CREATE TABLE used(a INTEGER)

statement ok
CREATE TABLE unrelated(b INTEGER)

statement ok
INSERT INTO used VALUES (1), (2)

statement ok
INSERT INTO unrelated VALUES (9)

query I nosort
SELECT count(*) FROM used
----
2

query I nosort
SELECT count(*) FROM unrelated
----
1
";

    fn parsed() -> TestFile {
        parse_slt("t.test", FILE, SltFlavor::Classic)
    }

    fn lines(file: &TestFile) -> Vec<usize> {
        file.records.iter().map(|r| r.line).collect()
    }

    #[test]
    fn slice_keeps_setup_closure_only() {
        let file = parsed();
        // Keep only the `SELECT count(*) FROM used` query.
        let target = file
            .records
            .iter()
            .find(|r| matches!(&r.kind, RecordKind::Query { sql, .. } if sql.contains("FROM used")))
            .unwrap();
        let sliced = slice(&file, &[RecordId::new(target.line, 0)]);
        // CREATE used + INSERT used + the query; nothing about `unrelated`.
        assert_eq!(sliced.records.len(), 3, "{:?}", lines(&sliced));
        for rec in &sliced.records {
            let (RecordKind::Statement { sql, .. } | RecordKind::Query { sql, .. }) = &rec.kind
            else {
                panic!()
            };
            assert!(!sql.contains("unrelated"), "unrelated record kept: {sql}");
        }
    }

    #[test]
    fn slice_closure_is_transitive() {
        let text = "\
statement ok
CREATE TABLE base(a INTEGER)

statement ok
INSERT INTO base VALUES (1)

statement ok
CREATE TABLE derived AS SELECT * FROM base

query I nosort
SELECT count(*) FROM derived
----
1
";
        let file = parse_slt("t.test", text, SltFlavor::Classic);
        let query_line = file.records.last().unwrap().line;
        let sliced = slice(&file, &[RecordId::new(query_line, 0)]);
        // derived needs base's CREATE and INSERT transitively.
        assert_eq!(sliced.records.len(), 4);
    }

    #[test]
    fn slice_keeps_variable_definitions() {
        let text = "\
set tbl target

statement ok
CREATE TABLE target(a INTEGER)

query I nosort
SELECT count(*) FROM ${tbl}
----
0
";
        let file = parse_slt("t.test", text, SltFlavor::Duckdb);
        let query_line = file.records.last().unwrap().line;
        let sliced = slice(&file, &[RecordId::new(query_line, 0)]);
        assert!(
            sliced
                .records
                .iter()
                .any(|r| matches!(&r.kind, RecordKind::Control(ControlCommand::SetVar { name, .. }) if name == "tbl")),
            "set control dropped: {:?}",
            lines(&sliced)
        );
        // The CREATE is *not* reachable through `${tbl}` textually — the
        // variable value is — so the conservative scan keeps it via the
        // substituted name only if the text mentions it. Here it does not,
        // which is exactly why reduction *probes* slices instead of
        // trusting the closure: a slice that under-keeps simply fails its
        // probe. The set + query pair must still be present.
        assert!(sliced.records.len() >= 2);
    }

    #[test]
    fn slice_preserves_loops_with_kept_bodies() {
        let text = "\
statement ok
CREATE TABLE t(a INTEGER)

loop i 0 3

statement ok
INSERT INTO t VALUES (${i})

endloop

query I nosort
SELECT count(*) FROM t
----
3
";
        let file = parse_slt("t.test", text, SltFlavor::Duckdb);
        let query_line = file.records.last().unwrap().line;
        let sliced = slice(&file, &[RecordId::new(query_line, 0)]);
        // CREATE + loop (with INSERT body) + query.
        assert_eq!(sliced.records.len(), 3, "{:?}", lines(&sliced));
        assert!(sliced
            .records
            .iter()
            .any(|r| matches!(&r.kind, RecordKind::Control(ControlCommand::Loop { body, .. }) if body.len() == 1)));
    }

    #[test]
    fn slice_keeps_multi_var_setup_closure_inside_loops() {
        let text = "\
set src base_tbl

set dst copy_tbl

statement ok
CREATE TABLE base_tbl(a INTEGER)

statement ok
CREATE TABLE copy_tbl(a INTEGER)

loop i 0 3

statement ok
INSERT INTO ${src} VALUES (${i})

statement ok
INSERT INTO unrelated VALUES (${i})

endloop

query I nosort
SELECT count(*) FROM ${src}, ${dst}
----
0
";
        let file = parse_slt("t.test", text, SltFlavor::Duckdb);
        let query_line = file.records.last().unwrap().line;
        let sliced = slice(&file, &[RecordId::new(query_line, 0)]);
        // Both `set` definitions the query substitutes must survive.
        for var in ["src", "dst"] {
            assert!(
                sliced.records.iter().any(|r| matches!(
                    &r.kind,
                    RecordKind::Control(ControlCommand::SetVar { name, .. }) if name == var
                )),
                "set {var} dropped: {:?}",
                lines(&sliced)
            );
        }
        // The loop survives, its body holding only the `${src}` INSERT —
        // the `unrelated` INSERT touches no used name. (The CREATEs are
        // reachable only through the *values* of src/dst, which the
        // textual scan cannot see; the reducer's probe step catches such
        // under-keeps.)
        let body = sliced
            .records
            .iter()
            .find_map(|r| match &r.kind {
                RecordKind::Control(ControlCommand::Loop { body, .. }) => Some(body),
                _ => None,
            })
            .expect("loop dropped");
        assert_eq!(body.len(), 1, "{:?}", lines(&sliced));
        let RecordKind::Statement { sql, .. } = &body[0].kind else { panic!() };
        assert!(sql.contains("${src}") && !sql.contains("unrelated"), "wrong body kept: {sql}");
        assert_eq!(sliced.records.len(), 4, "{:?}", lines(&sliced));
    }

    #[test]
    fn slice_grows_closure_from_a_record_nested_in_a_loop() {
        let text = "\
statement ok
CREATE TABLE t(a INTEGER)

statement ok
CREATE TABLE unrelated(a INTEGER)

loop i 0 2

statement ok
INSERT INTO t VALUES (${i})

query I nosort
SELECT count(*) FROM t WHERE a = ${i}
----
1

endloop
";
        let file = parse_slt("t.test", text, SltFlavor::Duckdb);
        // Keep only the query *inside* the loop body.
        let query_line = file
            .records
            .iter()
            .find_map(|r| match &r.kind {
                RecordKind::Control(ControlCommand::Loop { body, .. }) => body
                    .iter()
                    .find(|b| matches!(&b.kind, RecordKind::Query { .. }))
                    .map(|b| b.line),
                _ => None,
            })
            .expect("query in loop body");
        let sliced = slice(&file, &[RecordId::new(query_line, 0)]);
        // The closure grows outward through the loop: the sibling INSERT
        // (same table) joins, then the top-level CREATE; `unrelated` and
        // the loop variable `${i}` (defined by the loop itself, not a
        // `set`) add nothing.
        assert_eq!(sliced.records.len(), 2, "{:?}", lines(&sliced));
        let RecordKind::Statement { sql, .. } = &sliced.records[0].kind else { panic!() };
        assert!(sql.contains("CREATE TABLE t"), "wrong setup kept: {sql}");
        let RecordKind::Control(ControlCommand::Loop { body, .. }) = &sliced.records[1].kind else {
            panic!("loop dropped")
        };
        assert_eq!(body.len(), 2, "{:?}", lines(&sliced));
    }

    #[test]
    fn slice_drops_empty_loops() {
        let text = "\
loop i 0 3

statement ok
SELECT ${i}

endloop

query I nosort
SELECT 1
----
1
";
        let file = parse_slt("t.test", text, SltFlavor::Duckdb);
        let query_line = file.records.last().unwrap().line;
        let sliced = slice(&file, &[RecordId::new(query_line, 0)]);
        assert_eq!(sliced.records.len(), 1, "{:?}", lines(&sliced));
    }

    #[test]
    fn slice_round_trips_through_the_writer() {
        let file = parsed();
        let target_line = file.records[4].line;
        let sliced = slice(&file, &[RecordId::new(target_line, 0)]);
        let text = write_duckdb(&sliced);
        let back = parse_slt("t.test", &text, SltFlavor::Duckdb);
        assert_eq!(back.records.len(), sliced.records.len());
        for (a, b) in sliced.records.iter().zip(back.records.iter()) {
            match (&a.kind, &b.kind) {
                (RecordKind::Statement { sql: s1, .. }, RecordKind::Statement { sql: s2, .. })
                | (RecordKind::Query { sql: s1, .. }, RecordKind::Query { sql: s2, .. }) => {
                    assert_eq!(s1, s2)
                }
                other => panic!("kind mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn defined_names_extraction() {
        assert_eq!(defined_names("CREATE TABLE t1(a INTEGER)"), vec!["t1"]);
        assert_eq!(defined_names("CREATE TEMP TABLE IF NOT EXISTS t2(a INTEGER)"), vec!["t2"]);
        assert_eq!(defined_names("INSERT INTO t3 VALUES (1)"), vec!["t3"]);
        assert_eq!(defined_names("UPDATE t4 SET a = 1"), vec!["t4"]);
        assert_eq!(defined_names("DELETE FROM t5 WHERE a = 1"), vec!["t5"]);
        assert_eq!(defined_names("DROP TABLE t6"), vec!["t6"]);
        assert_eq!(defined_names("SELECT * FROM t7"), Vec::<String>::new());
    }

    #[test]
    fn variable_reference_extraction() {
        assert_eq!(variable_refs("SELECT ${a}, $b FROM t"), vec!["a", "b"]);
        assert_eq!(variable_refs("SELECT 1"), Vec::<String>::new());
    }
}
