//! Oracles for the reducer's fast paths, checked over every file of the
//! four generated suites:
//!
//! * the indexed slicer ([`SliceIndex`]) against the string-based slicer it
//!   replaced, frozen below as the reference, over seeded random keep
//!   sets;
//! * the lazy statement classifier against a full tokenize-then-classify
//!   scan.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use squality::corpus::generate_suite_scaled;
use squality::formats::{
    slice, ControlCommand, RecordId, RecordKind, SliceIndex, SuiteKind, TestFile, TestRecord,
};
use squality::sqltext::classify::classify_tokens;
use squality::sqltext::{classify, tokenize, StatementType, TextDialect};

/// The string-based slicer, as it stood before the index: every pass
/// re-splits and lowercases each statement, and closure membership lives
/// in one string set next to the names.
mod reference {
    use super::*;
    use squality::formats::StatementExpect;
    use std::collections::BTreeSet;

    pub fn slice(file: &TestFile, keep: &[RecordId]) -> TestFile {
        let keep_lines: BTreeSet<usize> = keep.iter().map(|id| id.line as usize).collect();
        let mut used = NameSet::default();
        collect_uses(&file.records, &keep_lines, &mut used);
        loop {
            let mut grew = false;
            grow_closure(&file.records, &keep_lines, &mut used, &mut grew);
            if !grew {
                break;
            }
        }
        TestFile {
            name: file.name.clone(),
            suite: file.suite,
            records: filter_records(&file.records, &keep_lines, &used),
        }
    }

    #[derive(Default)]
    struct NameSet(BTreeSet<String>);

    impl NameSet {
        fn add_tables_of(&mut self, sql: &str) {
            for w in words_of(sql) {
                self.0.insert(w);
            }
        }
        fn add_vars_of(&mut self, sql: &str) {
            for v in variable_refs(sql) {
                self.0.insert(format!("var:{v}"));
            }
        }
        fn uses_any(&self, names: &[String]) -> bool {
            names.iter().any(|n| self.0.contains(n))
        }
    }

    fn collect_uses(records: &[TestRecord], keep_lines: &BTreeSet<usize>, used: &mut NameSet) {
        for rec in records {
            match &rec.kind {
                RecordKind::Statement { sql, .. } | RecordKind::Query { sql, .. } => {
                    if keep_lines.contains(&rec.line) {
                        used.add_tables_of(sql);
                        used.add_vars_of(sql);
                    }
                }
                RecordKind::Control(ControlCommand::Loop { body, .. })
                | RecordKind::Control(ControlCommand::Foreach { body, .. }) => {
                    collect_uses(body, keep_lines, used);
                }
                RecordKind::Control(_) => {}
            }
        }
    }

    fn grow_closure(
        records: &[TestRecord],
        keep_lines: &BTreeSet<usize>,
        used: &mut NameSet,
        grew: &mut bool,
    ) {
        for rec in records {
            match &rec.kind {
                RecordKind::Statement { sql, expect } => {
                    if keep_lines.contains(&rec.line) || !matches!(expect, StatementExpect::Ok) {
                        continue;
                    }
                    let touched = defined_names(sql);
                    if !touched.is_empty() && used.uses_any(&touched) {
                        used.add_tables_of(sql);
                        used.add_vars_of(sql);
                        mark(rec.line, used, grew);
                    }
                }
                RecordKind::Control(ControlCommand::SetVar { name, .. })
                    if !keep_lines.contains(&rec.line)
                        && used.0.contains(&format!("var:{}", name.to_lowercase())) =>
                {
                    mark(rec.line, used, grew);
                }
                RecordKind::Control(ControlCommand::Loop { body, .. })
                | RecordKind::Control(ControlCommand::Foreach { body, .. }) => {
                    grow_closure(body, keep_lines, used, grew);
                }
                _ => {}
            }
        }
    }

    fn mark(line: usize, used: &mut NameSet, grew: &mut bool) {
        if used.0.insert(format!("line:{line}")) {
            *grew = true;
        }
    }

    fn in_slice(rec: &TestRecord, keep_lines: &BTreeSet<usize>, used: &NameSet) -> bool {
        keep_lines.contains(&rec.line) || used.0.contains(&format!("line:{}", rec.line))
    }

    fn filter_records(
        records: &[TestRecord],
        keep_lines: &BTreeSet<usize>,
        used: &NameSet,
    ) -> Vec<TestRecord> {
        let mut out = Vec::new();
        for rec in records {
            match &rec.kind {
                RecordKind::Statement { .. } | RecordKind::Query { .. } => {
                    if in_slice(rec, keep_lines, used) {
                        out.push(rec.clone());
                    }
                }
                RecordKind::Control(cmd) => match cmd {
                    ControlCommand::Loop { var, start, end, body } => {
                        let kept_body = filter_records(body, keep_lines, used);
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
                        let kept_body = filter_records(body, keep_lines, used);
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
                    ControlCommand::HashThreshold(_) | ControlCommand::Mode(_) => {
                        out.push(rec.clone());
                    }
                    _ => {
                        if in_slice(rec, keep_lines, used) {
                            out.push(rec.clone());
                        }
                    }
                },
            }
        }
        while matches!(
            out.last().map(|r| &r.kind),
            Some(RecordKind::Control(ControlCommand::HashThreshold(_)))
                | Some(RecordKind::Control(ControlCommand::Mode(_)))
        ) {
            out.pop();
        }
        out
    }

    fn defined_names(sql: &str) -> Vec<String> {
        let words: Vec<String> = words_of(sql).take(8).collect();
        let Some(first) = words.first() else { return Vec::new() };
        let after_keyword = |kws: &[&str]| -> Option<String> {
            let mut iter = words.iter().skip(1).peekable();
            while let Some(w) = iter.next() {
                if kws.contains(&w.as_str()) {
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

    fn words_of(sql: &str) -> impl Iterator<Item = String> + '_ {
        sql.split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| {
                !w.is_empty() && w.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
            })
            .map(|w| w.to_lowercase())
    }

    fn variable_refs(sql: &str) -> Vec<String> {
        let mut out = Vec::new();
        let bytes = sql.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'$' {
                let start = i + 1;
                let (from, until): (usize, Box<dyn Fn(u8) -> bool>) =
                    if bytes.get(start) == Some(&b'{') {
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
}

fn generated_files() -> Vec<TestFile> {
    SuiteKind::ALL
        .into_iter()
        .flat_map(|kind| generate_suite_scaled(kind, 0x5EED, 0.05).files)
        .collect()
}

/// `file` with random runs of its records folded into `loop` and
/// `foreach` bodies (nested up to two deep), `set` controls scattered
/// among them, some statements referencing those variables, and every
/// record renumbered. The generators emit no loops and no variable
/// references, so this is how the slicer's loop-body and variable paths
/// see generated content.
fn with_loops_and_vars(file: &TestFile, rng: &mut SmallRng) -> TestFile {
    fn fold(records: Vec<TestRecord>, depth: usize, rng: &mut SmallRng) -> Vec<TestRecord> {
        let mut out = Vec::new();
        let mut rest = records.into_iter().peekable();
        while rest.peek().is_some() {
            if rng.gen_bool(0.1) {
                // Upper-case names: references match them case-insensitively.
                let name = format!("V{}", rng.gen_range(0..4));
                let set = ControlCommand::SetVar { name, value: "x".into() };
                out.push(TestRecord::new(RecordKind::Control(set)));
            }
            if depth < 2 && rng.gen_bool(0.3) {
                let run: Vec<TestRecord> = rest.by_ref().take(rng.gen_range(1..6)).collect();
                let body = fold(run, depth + 1, rng);
                let kind = if rng.gen_bool(0.5) {
                    ControlCommand::Loop { var: "i".into(), start: 0, end: 2, body }
                } else {
                    ControlCommand::Foreach { var: "v".into(), values: vec!["x".into()], body }
                };
                out.push(TestRecord::new(RecordKind::Control(kind)));
                continue;
            }
            let Some(mut rec) = rest.next() else { break };
            if let RecordKind::Statement { sql, .. } | RecordKind::Query { sql, .. } = &mut rec.kind
            {
                if rng.gen_bool(0.25) {
                    let var = rng.gen_range(0..4);
                    sql.push_str(&if rng.gen_bool(0.5) {
                        format!(" /* ${{v{var}}} */")
                    } else {
                        format!(" /* $v{var} */")
                    });
                }
            }
            out.push(rec);
        }
        out
    }
    let mut varied = TestFile { records: fold(file.records.clone(), 0, rng), ..file.clone() };
    varied.assign_synthetic_lines();
    varied
}

/// Every record in pre-order, loop bodies included.
fn flatten(records: &[TestRecord], out: &mut Vec<TestRecord>) {
    for rec in records {
        out.push(rec.clone());
        if let RecordKind::Control(
            ControlCommand::Loop { body, .. } | ControlCommand::Foreach { body, .. },
        ) = &rec.kind
        {
            flatten(body, out);
        }
    }
}

#[test]
fn indexed_slices_equal_the_string_based_reference() {
    let mut rng = SmallRng::seed_from_u64(0x511CE);
    let (mut slices, mut loop_files, mut set_files) = (0usize, 0usize, 0usize);
    let generated = generated_files();
    let varied: Vec<TestFile> =
        generated.iter().map(|f| with_loops_and_vars(f, &mut rng)).collect();
    for file in generated.into_iter().chain(varied) {
        let mut records = Vec::new();
        flatten(&file.records, &mut records);
        let is_loop = |r: &TestRecord| {
            matches!(
                &r.kind,
                RecordKind::Control(ControlCommand::Loop { .. } | ControlCommand::Foreach { .. })
            )
        };
        let is_set =
            |r: &TestRecord| matches!(&r.kind, RecordKind::Control(ControlCommand::SetVar { .. }));
        loop_files += usize::from(records.iter().any(is_loop));
        set_files += usize::from(records.iter().any(is_set));

        let index = SliceIndex::new(&file);
        let mut check = |keep: Vec<RecordId>| {
            let want = reference::slice(&file, &keep);
            assert_eq!(index.slice(&keep), want, "{} keeping {keep:?}", file.name);
            assert_eq!(slice(&file, &keep), want, "{} keeping {keep:?}", file.name);
            slices += 1;
        };
        // Single records (loop-body records and `set` controls included),
        // about 24 per file, then random subsets at three densities.
        let single = (24.0 / records.len() as f64).min(1.0);
        for rec in records.iter().filter(|_| rng.gen_bool(single)) {
            check(vec![RecordId::new(rec.line, 0)]);
        }
        for density in [0.05, 0.2, 0.5] {
            for _ in 0..4 {
                let keep = records
                    .iter()
                    .filter(|_| rng.gen_bool(density))
                    .map(|r| RecordId::new(r.line, 0))
                    .collect();
                check(keep);
            }
        }
        check(Vec::new());
    }
    assert!(slices > 1000, "only {slices} slices compared");
    assert!(loop_files > 0 && set_files > 0, "loops in {loop_files} files, sets in {set_files}");
}

#[test]
fn equal_slice_keys_extract_equal_slices() {
    for file in generated_files().iter().filter(|f| f.record_count() > 4) {
        let index = SliceIndex::new(file);
        let mut records = Vec::new();
        flatten(&file.records, &mut records);
        let lines: Vec<usize> = records.iter().map(|r| r.line).collect();
        let mut seen = std::collections::HashMap::new();
        for window in lines.windows(3) {
            for keep in [&window[..1], &window[..2], window] {
                let key = index.closure(keep.iter().copied());
                let sliced = index.extract(&key);
                if let Some(earlier) = seen.insert(key, sliced.clone()) {
                    assert_eq!(earlier, sliced, "{}", file.name);
                }
            }
        }
    }
}

#[test]
fn lazy_classification_equals_the_full_token_scan() {
    fn statements(records: &[TestRecord], out: &mut Vec<String>) {
        for rec in records {
            match &rec.kind {
                RecordKind::Statement { sql, .. } | RecordKind::Query { sql, .. } => {
                    out.push(sql.clone())
                }
                RecordKind::Control(
                    ControlCommand::Loop { body, .. } | ControlCommand::Foreach { body, .. },
                ) => statements(body, out),
                RecordKind::Control(_) => {}
            }
        }
    }
    let mut sqls = Vec::new();
    for file in generated_files() {
        statements(&file.records, &mut sqls);
    }
    assert!(sqls.len() > 1000, "only {} statements", sqls.len());
    for sql in &sqls {
        for dialect in
            [TextDialect::Generic, TextDialect::Sqlite, TextDialect::Postgres, TextDialect::Mysql]
        {
            let eager = if sql.trim_start().starts_with('\\') {
                StatementType::CliCommand
            } else {
                classify_tokens(&tokenize(sql, dialect))
            };
            assert_eq!(classify(sql, dialect), eager, "{sql:?} under {dialect:?}");
        }
    }
}
