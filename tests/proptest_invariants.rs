//! Property-based tests over the core data structures and pipelines.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use squality::corpus::{donor_dialect, SqlGen, StatementClass};
use squality::engine::{ClientKind, Engine, EngineDialect, PlanCache, Value};
use squality::formats::{
    parse_slt, result_hash, write_slt, QueryExpectation, RecordKind, SltFlavor, SortMode,
    StatementExpect, SuiteKind, TestFile, TestRecord,
};
use squality::runner::{validate_query, NumericMode, Verdict};
use squality::sqlast::{parse_statement, print_statement, translate_sql, TranslationStats};
use squality::sqltext::{split_statements, tokenize, TextDialect};
use std::sync::Arc;

/// Statement classes whose generated SQL is meant to parse on the donor
/// (ParserGarbage and CliCommand are deliberately unparsable).
const PRINTABLE_CLASSES: [StatementClass; 18] = [
    StatementClass::CreateTable,
    StatementClass::Insert,
    StatementClass::Select,
    StatementClass::Update,
    StatementClass::Delete,
    StatementClass::DropTable,
    StatementClass::AlterTable,
    StatementClass::CreateIndex,
    StatementClass::CreateView,
    StatementClass::Begin,
    StatementClass::Commit,
    StatementClass::Rollback,
    StatementClass::Set,
    StatementClass::Pragma,
    StatementClass::Explain,
    StatementClass::With,
    StatementClass::DialectSelect,
    StatementClass::DivisionProbe,
];

proptest! {
    /// The lexer never panics and its spans always slice the input exactly.
    #[test]
    fn lexer_total_and_spans_valid(input in "\\PC{0,200}") {
        for dialect in TextDialect::ALL {
            for tok in tokenize(&input, dialect) {
                prop_assert!(tok.start <= tok.end);
                prop_assert!(tok.end <= input.len());
                prop_assert_eq!(&input[tok.start..tok.end], tok.text.as_str());
            }
        }
    }

    /// Statement splitting never loses SQL words: every word of every piece
    /// appears in the original script.
    #[test]
    fn splitter_preserves_content(
        stmts in prop::collection::vec("[a-zA-Z][a-zA-Z0-9_ ]{0,30}", 1..6)
    ) {
        let script = stmts.join("; ");
        let pieces = split_statements(&script, TextDialect::Generic);
        for p in &pieces {
            prop_assert!(script.contains(&p.text));
        }
        prop_assert!(pieces.len() <= stmts.len());
    }

    /// The best-effort classifier is total on arbitrary text.
    #[test]
    fn classifier_is_total(input in "\\PC{0,120}") {
        let _ = squality::sqltext::classify(&input, TextDialect::Generic);
    }

    /// The AST→SQL printer is round-trip stable over the statement shapes
    /// the corpus generators emit: `parse(print(ast)) == ast` under the
    /// donor's own dialect.
    #[test]
    fn printer_roundtrip_is_stable(seed in 0i64..192) {
        for suite in SuiteKind::ALL {
            let dialect = donor_dialect(suite).text_dialect();
            let mut gen = SqlGen::with_seasoning(suite, seed as usize, 0.6);
            let mut rng = SmallRng::seed_from_u64(seed as u64);
            for (i, class) in PRINTABLE_CLASSES.into_iter().enumerate() {
                let stmt = gen.generate(class, (seed as usize + i) % 5, i % 3 == 0, &mut rng);
                // Some generated statements are donor-invalid on purpose
                // (e.g. SET on SQLite); only parsed statements are in scope.
                let Ok(ast) = parse_statement(&stmt.sql, dialect) else { continue };
                let printed = print_statement(&ast, dialect);
                let reparsed = match parse_statement(&printed, dialect) {
                    Ok(r) => r,
                    Err(e) => return Err(TestCaseError::fail(format!(
                        "printed SQL no longer parses under {dialect}\n  in:  {}\n  out: {printed}\n  err: {e}",
                        stmt.sql
                    ))),
                };
                prop_assert!(
                    reparsed == ast,
                    "round trip changed the AST\n  in:  {}\n  out: {printed}",
                    stmt.sql
                );
            }
        }
    }

    /// Same-dialect translation is the identity for any statement text:
    /// the runner keeps the original bytes, so a translated run on the
    /// donor's own engine can never diverge from a verbatim one.
    #[test]
    fn translation_same_dialect_is_identity(seed in 0i64..128) {
        let stats = TranslationStats::new();
        for suite in SuiteKind::ALL {
            let dialect = donor_dialect(suite).text_dialect();
            let mut gen = SqlGen::with_seasoning(suite, seed as usize, 0.6);
            let mut rng = SmallRng::seed_from_u64(seed as u64 ^ 0xA5A5);
            for (i, class) in PRINTABLE_CLASSES.into_iter().enumerate() {
                let stmt = gen.generate(class, i % 5, false, &mut rng);
                prop_assert!(
                    translate_sql(&stmt.sql, dialect, dialect, &stats).is_none(),
                    "same-dialect translation must be identity: {}",
                    stmt.sql
                );
            }
        }
        prop_assert!(stats.counts().applied_total() == 0);
    }

    /// Value ordering is reflexive and antisymmetric under every NULL rule.
    #[test]
    fn value_total_cmp_is_consistent(a in value_strategy(), b in value_strategy()) {
        for nulls_smallest in [true, false] {
            let ab = a.total_cmp(&b, nulls_smallest);
            let ba = b.total_cmp(&a, nulls_smallest);
            prop_assert_eq!(ab, ba.reverse());
            prop_assert_eq!(a.total_cmp(&a, nulls_smallest), std::cmp::Ordering::Equal);
        }
    }

    /// rowsort validation is invariant under row permutation.
    #[test]
    fn rowsort_permutation_invariant(
        mut rows in prop::collection::vec(
            prop::collection::vec("[a-z0-9]{1,4}", 2..3), 1..6
        )
    ) {
        let expected: Vec<String> = rows.iter().flatten().cloned().collect();
        let exp = QueryExpectation::Values(expected);
        let original = validate_query(&rows, &exp, SortMode::RowSort, NumericMode::Exact);
        rows.reverse();
        let permuted = validate_query(&rows, &exp, SortMode::RowSort, NumericMode::Exact);
        prop_assert_eq!(
            matches!(original, Verdict::Match),
            matches!(permuted, Verdict::Match)
        );
    }

    /// Hash expectations agree with full-value expectations.
    #[test]
    fn hash_threshold_equivalent_to_values(
        values in prop::collection::vec("[a-z0-9]{1,6}", 1..20)
    ) {
        let rows: Vec<Vec<String>> = values.iter().map(|v| vec![v.clone()]).collect();
        let full = validate_query(
            &rows,
            &QueryExpectation::Values(values.clone()),
            SortMode::NoSort,
            NumericMode::Exact,
        );
        let hashed = validate_query(
            &rows,
            &QueryExpectation::Hash { count: values.len(), hash: result_hash(&values) },
            SortMode::NoSort,
            NumericMode::Exact,
        );
        prop_assert_eq!(matches!(full, Verdict::Match), matches!(hashed, Verdict::Match));
    }

    /// SLT writer → parser round-trips statement and query SQL.
    #[test]
    fn slt_roundtrip_preserves_sql(
        sqls in prop::collection::vec("SELECT [a-z0-9 ,]{1,20}", 1..8)
    ) {
        let file = TestFile {
            name: "prop.test".into(),
            suite: SuiteKind::Slt,
            records: sqls
                .iter()
                .map(|s| TestRecord::new(RecordKind::Statement {
                    sql: s.trim().to_string(),
                    expect: StatementExpect::Ok,
                }))
                .collect(),
        };
        let text = write_slt(&file);
        let back = parse_slt("prop.test", &text, SltFlavor::Classic);
        prop_assert_eq!(back.records.len(), file.records.len());
        for (a, b) in file.records.iter().zip(back.records.iter()) {
            let (RecordKind::Statement { sql: s1, .. }, RecordKind::Statement { sql: s2, .. })
                = (&a.kind, &b.kind) else {
                return Err(TestCaseError::fail("kind changed"));
            };
            prop_assert_eq!(s1, s2);
        }
    }

    /// Engine invariant: inserting N rows makes count(*) report N, on every
    /// dialect, for arbitrary integer payloads.
    #[test]
    fn insert_count_invariant(values in prop::collection::vec(-1000i64..1000, 1..20)) {
        for dialect in EngineDialect::ALL {
            let mut e = Engine::new(dialect);
            e.execute("CREATE TABLE t(a INTEGER)").unwrap();
            for v in &values {
                e.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
            }
            let r = e.execute("SELECT count(*) FROM t").unwrap();
            prop_assert_eq!(r.rows[0][0].clone(), Value::Integer(values.len() as i64));
        }
    }

    /// Engine invariant: ORDER BY really sorts, whatever the NULL rule.
    #[test]
    fn order_by_sorts(values in prop::collection::vec(-100i64..100, 1..15)) {
        for dialect in EngineDialect::ALL {
            let mut e = Engine::new(dialect);
            e.execute("CREATE TABLE t(a INTEGER)").unwrap();
            for v in &values {
                e.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
            }
            let r = e.execute("SELECT a FROM t ORDER BY a").unwrap();
            let got: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            prop_assert_eq!(got, sorted);
        }
    }

    /// Rendered values never contain a newline — the SLT value-wise format
    /// depends on one-value-per-line.
    #[test]
    fn rendering_is_single_line(v in value_strategy()) {
        for dialect in EngineDialect::ALL {
            for client in [ClientKind::Cli, ClientKind::Connector] {
                let s = squality::engine::render_value(&v, dialect, client);
                prop_assert!(!s.contains('\n'), "{s:?}");
            }
        }
    }
}

proptest! {
    /// All four format parsers are total: arbitrary text never panics and
    /// produces a well-formed IR (the suites contain garbage on purpose).
    #[test]
    fn format_parsers_are_total(input in "\\PC{0,400}") {
        let _ = parse_slt("f.test", &input, SltFlavor::Classic);
        let _ = parse_slt("f.test", &input, SltFlavor::Duckdb);
        let _ = squality::formats::parse_pg_sql_only("f.sql", &input);
        let _ = squality::formats::parse_mysql_test_only("f.test", &input);
    }

    /// The SQL statement parser is total over arbitrary input in every
    /// dialect: it may reject, never crash.
    #[test]
    fn sql_parser_is_total(input in "\\PC{0,200}") {
        for d in TextDialect::ALL {
            let _ = squality::sqlast::parse_statement(&input, d);
        }
    }

    /// The engines are total over arbitrary statement text: any input maps
    /// to Ok or a typed error (a panic would be a simulator crash *bug*,
    /// not a simulated crash finding).
    #[test]
    fn engines_are_total_over_text(input in "\\PC{0,120}") {
        for d in EngineDialect::ALL {
            let mut e = Engine::new(d);
            let _ = e.execute(&input);
        }
    }

    /// Plan-cached execution is observationally identical to uncached
    /// execution: for any generated statement sequence (valid and garbage
    /// alike), a cache-sharing engine and a plain engine agree result for
    /// result — and the third replay is answered from the cache, because
    /// a text is admitted on its second sighting.
    #[test]
    fn plan_cached_execution_matches_uncached(
        stmts in prop::collection::vec(sql_statement_strategy(), 1..25)
    ) {
        for dialect in EngineDialect::ALL {
            let cache = PlanCache::shared();
            let mut cached = Engine::new(dialect);
            cached.set_plan_cache(Arc::clone(&cache));
            let mut plain = Engine::new(dialect);
            let mut hits_before_pass3 = 0;
            for pass in 0..3 {
                if pass == 2 {
                    hits_before_pass3 = cache.stats().hits;
                }
                for sql in &stmts {
                    let a = cached.execute(sql);
                    let b = plain.execute(sql);
                    prop_assert_eq!(a, b);
                }
            }
            // Pass 3 re-executes every statement text: all cache hits.
            prop_assert_eq!(cache.stats().hits - hits_before_pass3, stmts.len() as u64);
        }
    }
}

proptest! {
    /// Content addressing: perturbing any hashed field of one file's
    /// records changes that file's content hash — and nobody else's. The
    /// result cache keys files by this hash, so an incremental study
    /// re-runs exactly the edited file.
    #[test]
    fn file_mutation_invalidates_exactly_that_file(
        seed in 0i64..32,
        victim_frac in 0.0f64..1.0,
        record_frac in 0.0f64..1.0,
        bump in 1i64..100_000,
    ) {
        use squality::formats::file_content_hash;
        let suite = SuiteKind::ALL[(seed % 4) as usize];
        let gs = squality::corpus::generate_suite_scaled(suite, seed as u64, 0.03);
        if gs.files.is_empty() {
            return Ok(());
        }
        let before: Vec<u64> = gs.files.iter().map(file_content_hash).collect();

        let mut files = gs.files.clone();
        let victim = ((files.len() - 1) as f64 * victim_frac) as usize;
        if files[victim].records.is_empty() {
            return Ok(());
        }
        let r = ((files[victim].records.len() - 1) as f64 * record_frac) as usize;
        files[victim].records[r].line += bump as usize;

        let after: Vec<u64> = files.iter().map(file_content_hash).collect();
        for (i, (a, b)) in before.iter().zip(after.iter()).enumerate() {
            if i == victim {
                prop_assert!(a != b, "edited file {} kept its hash", i);
            } else {
                prop_assert!(a == b, "untouched file {} changed hash", i);
            }
        }
    }

    /// The triage reducer's contract: for a generated failing file, the
    /// ddmin output (a) is a subset of the original records, and (b) still
    /// fails with the **identical** `FailureSignature` when re-executed
    /// standalone under the same configuration.
    #[test]
    fn reduced_file_preserves_signature(
        noise in prop::collection::vec(noise_record_strategy(), 2..12),
        fail_kind in 0i64..3,
        fail_pos_frac in 0.0f64..1.0,
    ) {
        use squality::core::triage::reduce_file;
        use squality::core::Harness;
        use squality::runner::{EngineConnector, Outcome};

        // Assemble the file as SLT text so records carry real line numbers.
        let failing = match fail_kind {
            0 => "query I nosort\nSELECT count(*) FROM no_such_table\n----\n0\n\n",
            1 => "statement ok\nSELECT definitely_not_a_function(1)\n\n",
            _ => "query I nosort\nSELECT 1\n----\n2\n\n",
        };
        let fail_at = ((noise.len() as f64) * fail_pos_frac) as usize;
        let mut text = String::new();
        for (i, rec) in noise.iter().enumerate() {
            if i == fail_at {
                text.push_str(failing);
            }
            text.push_str(rec);
        }
        if fail_at >= noise.len() {
            text.push_str(failing);
        }
        let file = parse_slt("prop-reduce.test", &text, SltFlavor::Classic);

        let Some(r) = reduce_file(&file, SuiteKind::Slt, EngineDialect::Sqlite, 128) else {
            // Noise prefixes can mask the intended failure (e.g. an earlier
            // record fails first with a state-dependent signature the full
            // file cannot reproduce in isolation); reduce_file declining is
            // the documented behaviour, not a property violation.
            return Ok(());
        };

        // (a) Subset: every reduced record's SQL text occurs in the original.
        prop_assert!(r.reduced_records <= file.record_count());
        for rec in &r.reduced.records {
            let (RecordKind::Statement { sql, .. } | RecordKind::Query { sql, .. }) = &rec.kind
            else { continue };
            prop_assert!(text.contains(sql), "reduced record not from the original: {sql}");
        }

        // (b) Standalone re-execution fails with the identical signature.
        let files = [r.reduced.clone()];
        let mut conn = EngineConnector::new(EngineDialect::Sqlite, ClientKind::Connector);
        let summary = Harness::builder()
            .files(SuiteKind::Slt, &files)
            .host(EngineDialect::Sqlite)
            .build()
            .unwrap()
            .run_on(&mut conn);
        let preserved = summary.failures.iter().any(|f| match &f.result.outcome {
            Outcome::Fail(info) => info.signature == r.signature,
            _ => false,
        });
        prop_assert!(preserved, "signature lost: {:?}", r.signature.normalized);
    }

    /// The stability arm's core promise: a record it classifies `Stable`
    /// really is deterministic — an independent re-run of the same file
    /// under the same configuration yields the **identical**
    /// `FailureSignature`, stability verdict included, on every dialect.
    #[test]
    fn stable_classified_failures_reproduce_identically(
        noise in prop::collection::vec(noise_record_strategy(), 1..5),
        fail_kind in 0i64..3,
    ) {
        use squality::core::{Harness, StabilityConfig};
        use squality::runner::{Outcome, Stability};

        let failing = match fail_kind {
            0 => "query I nosort\nSELECT count(*) FROM no_such_table\n----\n0\n\n",
            1 => "statement ok\nSELECT definitely_not_a_function(1)\n\n",
            _ => "query I nosort\nSELECT 1\n----\n2\n\n",
        };
        let mut text = String::new();
        for rec in &noise {
            text.push_str(rec);
        }
        text.push_str(failing);
        let files = [parse_slt("prop-stability.test", &text, SltFlavor::Classic)];

        for dialect in EngineDialect::ALL {
            let run = || {
                Harness::builder()
                    .files(SuiteKind::Slt, &files)
                    .host(dialect)
                    .stability(StabilityConfig::default().with_reruns(1).with_workers(1))
                    .build()
                    .unwrap()
                    .run()
                    .summary
            };
            let first = run();
            let second = run();
            let mut stable_seen = 0usize;
            for f in &first.failures {
                let Outcome::Fail(info) = &f.result.outcome else { continue };
                prop_assert!(
                    info.signature.stability.is_some(),
                    "{dialect:?}: failure missing a verdict: {}",
                    info.signature.normalized
                );
                if info.signature.stability != Some(Stability::Stable) {
                    continue;
                }
                stable_seen += 1;
                let twin = second.failures.iter().find(|g| g.id == f.id);
                let Some(twin) = twin else {
                    return Err(TestCaseError::fail(format!(
                        "{dialect:?}: stable failure at {:?} vanished on re-run", f.id
                    )));
                };
                let Outcome::Fail(twin_info) = &twin.result.outcome else {
                    return Err(TestCaseError::fail(format!(
                        "{dialect:?}: stable failure at {:?} changed outcome kind", f.id
                    )));
                };
                prop_assert!(
                    twin_info.signature == info.signature,
                    "{dialect:?}: stable signature drifted\n  first:  {:?} ({:?})\n  second: {:?} ({:?})",
                    info.signature.normalized, info.signature.stability,
                    twin_info.signature.normalized, twin_info.signature.stability
                );
            }
            // The deliberate failing record fails the same way under every
            // perturbation axis, so at least it must read Stable.
            prop_assert!(stable_seen >= 1, "{dialect:?}: no Stable-classified failure");
        }
    }
}

/// Benign SLT records for the reduction property: DDL/DML/query noise that
/// passes on SQLite.
fn noise_record_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-d]".prop_map(|t| format!(
            "statement ok\nCREATE TABLE IF NOT EXISTS n_{t}(a INTEGER)\n\n"
        )),
        ("[a-d]", 0i64..50).prop_map(|(t, v)| format!(
            "statement ok\nCREATE TABLE IF NOT EXISTS n_{t}(a INTEGER)\n\nstatement ok\nINSERT INTO n_{t} VALUES ({v})\n\n"
        )),
        (1i64..9).prop_map(|v| format!("query I nosort\nSELECT {v}\n----\n{v}\n\n")),
    ]
}

/// Statements across DDL, DML, queries, and deliberate garbage — the mix a
/// loop-heavy SLT file replays.
fn sql_statement_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        "CREATE TABLE t[0-3](a INTEGER, b INTEGER)",
        "INSERT INTO t[0-3] VALUES ([0-9]{1,3}, [0-9]{1,3})",
        "SELECT [0-9]{1,2} + [0-9]{1,2}",
        "SELECT [0-9]{1,2} / [0-9]{1,2}",
        "SELECT a, b FROM t[0-3] WHERE a > [0-9]{1,2}",
        "SELECT count(*) FROM t[0-3]",
        "DROP TABLE t[0-3]",
        "SELEC [a-z]{1,8}",
        "UPDATE t[0-3] SET a = [0-9]{1,2} WHERE b < [0-9]{1,2}",
    ]
}

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Integer),
        (-1e12..1e12f64).prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::text),
        any::<bool>().prop_map(Value::Boolean),
        prop::collection::vec(any::<u8>(), 0..8).prop_map(Value::Blob),
    ];
    leaf.prop_recursive(2, 8, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            prop::collection::vec(("[a-z]{1,4}", inner), 0..3).prop_map(Value::Struct),
        ]
    })
}
