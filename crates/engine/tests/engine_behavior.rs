//! End-to-end behavioural tests for the four engine simulators, organised
//! around the paper's listings and incompatibility classes.

use squality_engine::{ClientKind, Engine, EngineDialect, ErrorKind, FaultProfile, Value};

fn fresh(d: EngineDialect) -> Engine {
    Engine::new(d)
}

fn one_value(e: &mut Engine, sql: &str) -> Value {
    let r = e.execute(sql).unwrap_or_else(|err| panic!("{sql}: {err}"));
    assert_eq!(r.rows.len(), 1, "{sql} returned {} rows", r.rows.len());
    r.rows[0][0].clone()
}

// ---- basics -------------------------------------------------------------

#[test]
fn create_insert_select_roundtrip_all_dialects() {
    for d in EngineDialect::ALL {
        let mut e = fresh(d);
        e.execute("CREATE TABLE t1(a INTEGER, b INTEGER, c INTEGER)").unwrap();
        e.execute("INSERT INTO t1(c,b,a) VALUES (3,4,2), (5,1,3), (1,6,4)").unwrap();
        let r = e.execute("SELECT a, b FROM t1 WHERE c > a ORDER BY a").unwrap();
        // Paper Listing 1/3: rows (2,4) and (3,1).
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Integer(2), Value::Integer(4)],
                vec![Value::Integer(3), Value::Integer(1)],
            ],
            "{d}"
        );
    }
}

#[test]
fn select_without_from() {
    for d in EngineDialect::ALL {
        let mut e = fresh(d);
        assert_eq!(one_value(&mut e, "SELECT 1 + 2"), Value::Integer(3), "{d}");
    }
}

#[test]
fn update_and_delete() {
    let mut e = fresh(EngineDialect::Sqlite);
    e.execute("CREATE TABLE t(a INTEGER, b TEXT)").unwrap();
    e.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')").unwrap();
    let r = e.execute("UPDATE t SET b = 'q' WHERE a >= 2").unwrap();
    assert_eq!(r.affected, 2);
    let r = e.execute("DELETE FROM t WHERE b = 'q'").unwrap();
    assert_eq!(r.affected, 2);
    assert_eq!(one_value(&mut e, "SELECT count(*) FROM t"), Value::Integer(1));
}

#[test]
fn insert_column_subset_uses_defaults_and_nulls() {
    let mut e = fresh(EngineDialect::Postgres);
    e.execute("CREATE TABLE t(a INTEGER, b INTEGER DEFAULT 7, c TEXT)").unwrap();
    e.execute("INSERT INTO t(a) VALUES (1)").unwrap();
    let r = e.execute("SELECT a, b, c FROM t").unwrap();
    assert_eq!(r.rows[0], vec![Value::Integer(1), Value::Integer(7), Value::Null]);
}

#[test]
fn constraint_violations() {
    let mut e = fresh(EngineDialect::Sqlite);
    e.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER NOT NULL)").unwrap();
    e.execute("INSERT INTO t VALUES (1, 2)").unwrap();
    let err = e.execute("INSERT INTO t VALUES (1, 3)").unwrap_err();
    assert_eq!(err.kind, ErrorKind::Constraint);
    let err = e.execute("INSERT INTO t VALUES (2, NULL)").unwrap_err();
    assert_eq!(err.kind, ErrorKind::Constraint);
}

// ---- the paper's division divergence (§6, Listing 4) ----------------------

#[test]
fn division_semantics_follow_the_paper() {
    // SELECT ALL 62 / (+ - 2): -31 on SQLite/PostgreSQL (integer division),
    // -31.0 on DuckDB/MySQL (decimal/float division).
    for d in [EngineDialect::Sqlite, EngineDialect::Postgres] {
        let mut e = fresh(d);
        assert_eq!(one_value(&mut e, "SELECT ALL 62 / ( + - 2 )"), Value::Integer(-31), "{d}");
    }
    for d in [EngineDialect::Duckdb, EngineDialect::Mysql] {
        let mut e = fresh(d);
        assert_eq!(one_value(&mut e, "SELECT ALL 62 / ( + - 2 )"), Value::Float(-31.0), "{d}");
    }
    // MySQL DIV performs the integer division (Listing 4).
    let mut my = fresh(EngineDialect::Mysql);
    assert_eq!(one_value(&mut my, "SELECT ALL 62 DIV ( + - 2 )"), Value::Integer(-31));
    // ... and DIV is a syntax error elsewhere.
    let mut pg = fresh(EngineDialect::Postgres);
    let err = pg.execute("SELECT 62 DIV 2").unwrap_err();
    assert_eq!(err.kind, ErrorKind::Syntax);
}

#[test]
fn division_by_zero_dialects() {
    let mut s = fresh(EngineDialect::Sqlite);
    assert_eq!(one_value(&mut s, "SELECT 1 / 0"), Value::Null);
    let mut m = fresh(EngineDialect::Mysql);
    assert_eq!(one_value(&mut m, "SELECT 1 / 0"), Value::Null);
    let mut p = fresh(EngineDialect::Postgres);
    assert_eq!(p.execute("SELECT 1 / 0").unwrap_err().kind, ErrorKind::Arithmetic);
    let mut d = fresh(EngineDialect::Duckdb);
    assert_eq!(d.execute("SELECT 1 / 0").unwrap_err().kind, ErrorKind::Arithmetic);
}

#[test]
fn i64_min_by_minus_one_is_an_error_or_a_value_never_a_panic() {
    const MIN: &str = "(-9223372036854775807 - 1)";
    // `MIN / -1`: integer-division dialects overflow exactly as `*` does;
    // the others divide in floating point. `%` and `mod()` are exactly 0.
    let quotients = [
        (EngineDialect::Sqlite, None),
        (EngineDialect::Postgres, None),
        (EngineDialect::Duckdb, Some(Value::Float(9_223_372_036_854_775_808.0))),
        (EngineDialect::Mysql, Some(Value::Float(9_223_372_036_854_775_808.0))),
    ];
    for (d, quotient) in quotients {
        let mut e = fresh(d);
        let divided = e.execute(&format!("SELECT {MIN} / -1"));
        match quotient {
            Some(v) => assert_eq!(divided.unwrap().rows[0][0], v, "{d}"),
            None => {
                let err = divided.unwrap_err();
                let overflow = e.execute("SELECT 9223372036854775807 * 2").unwrap_err();
                assert_eq!(err.kind, ErrorKind::Arithmetic, "{d}");
                assert_eq!(err.message, overflow.message, "{d}");
            }
        }
        for sql in [format!("SELECT {MIN} % -1"), format!("SELECT mod({MIN}, -1)")] {
            assert_eq!(one_value(&mut e, &sql), Value::Integer(0), "{d}: {sql}");
        }
    }
}

// ---- concat and MySQL pipes (§6) -----------------------------------------

#[test]
fn pipes_concat_vs_logical_or() {
    for d in [EngineDialect::Sqlite, EngineDialect::Postgres, EngineDialect::Duckdb] {
        let mut e = fresh(d);
        assert_eq!(one_value(&mut e, "SELECT 'a' || 'b'"), Value::Text("ab".into()), "{d}");
    }
    // MySQL: || is logical OR in the default SQL mode; 'a' and 'b' coerce
    // to 0, so the result is 0.
    let mut my = fresh(EngineDialect::Mysql);
    assert_eq!(one_value(&mut my, "SELECT 'a' || 'b'"), Value::Integer(0));
    assert_eq!(one_value(&mut my, "SELECT '1' || 'b'"), Value::Integer(1));
}

// ---- COALESCE typing (§6) ---------------------------------------------------

#[test]
fn coalesce_cross_engine_results() {
    // Paper: SQLite → integer 1; PostgreSQL renders 1; MySQL/DuckDB → 1.0.
    let mut s = fresh(EngineDialect::Sqlite);
    assert_eq!(one_value(&mut s, "SELECT COALESCE(1, 1.0)"), Value::Integer(1));
    let mut p = fresh(EngineDialect::Postgres);
    let pv = one_value(&mut p, "SELECT COALESCE(1, 1.0)");
    assert_eq!(squality_engine::render_value(&pv, EngineDialect::Postgres, ClientKind::Cli), "1");
    for d in [EngineDialect::Duckdb, EngineDialect::Mysql] {
        let mut e = fresh(d);
        let v = one_value(&mut e, "SELECT COALESCE(1, 1.0)");
        assert_eq!(squality_engine::render_value(&v, d, ClientKind::Cli), "1.0", "{d}");
    }
    // All four agree on COALESCE(1, 1).
    for d in EngineDialect::ALL {
        let mut e = fresh(d);
        assert_eq!(one_value(&mut e, "SELECT COALESCE(1, 1)"), Value::Integer(1), "{d}");
    }
}

// ---- row-value comparison (Listing 17) ---------------------------------------

#[test]
fn row_value_null_comparison_listing17() {
    // DuckDB: true. Others: NULL.
    let mut d = fresh(EngineDialect::Duckdb);
    assert_eq!(one_value(&mut d, "SELECT (null, 0) > (0, 0)"), Value::Boolean(true));
    for dialect in [EngineDialect::Postgres, EngineDialect::Sqlite, EngineDialect::Mysql] {
        let mut e = fresh(dialect);
        assert_eq!(one_value(&mut e, "SELECT (null, 0) > (0, 0)"), Value::Null, "{dialect}");
    }
}

// ---- has_column_privilege (Listing 18) -----------------------------------------

#[test]
fn has_column_privilege_listing18() {
    let mut d = fresh(EngineDialect::Duckdb);
    assert_eq!(one_value(&mut d, "select has_column_privilege(1,1,1)"), Value::Boolean(true));
    let mut p = fresh(EngineDialect::Postgres);
    assert!(p.execute("select has_column_privilege(1,1,1)").is_err());
}

// ---- ARRAY typing (Listing 8) ---------------------------------------------------

#[test]
fn array_literal_listing8() {
    let mut d = fresh(EngineDialect::Duckdb);
    let v = one_value(&mut d, "SELECT [1,2,3,'4']");
    assert_eq!(
        squality_engine::render_value(&v, EngineDialect::Duckdb, ClientKind::Cli),
        "[1, 2, 3, 4]"
    );
    assert_eq!(
        squality_engine::render_value(&v, EngineDialect::Duckdb, ClientKind::Connector),
        "['1', '2', '3', '4']"
    );
    let mut p = fresh(EngineDialect::Postgres);
    let v = one_value(&mut p, "SELECT ARRAY[1,2,3,'4']");
    assert_eq!(
        squality_engine::render_value(&v, EngineDialect::Postgres, ClientKind::Cli),
        "{1,2,3,4}"
    );
}

// ---- injected crashes (Listings 12-14) --------------------------------------------

#[test]
fn duckdb_alter_schema_crash_listing12() {
    let mut d = fresh(EngineDialect::Duckdb);
    let err = d.execute("ALTER SCHEMA a RENAME TO b").unwrap_err();
    assert_eq!(err.kind, ErrorKind::Fatal);
    assert!(d.is_crashed());
    // Subsequent statements fail: the server is gone.
    assert_eq!(d.execute("SELECT 1").unwrap_err().kind, ErrorKind::Fatal);
    // With the bug fixed (0.6.1 behaviour): Not implemented Error.
    let mut fixed = Engine::with_faults(EngineDialect::Duckdb, FaultProfile::all_fixed());
    let err = fixed.execute("ALTER SCHEMA a RENAME TO b").unwrap_err();
    assert_eq!(err.kind, ErrorKind::NotImplemented);
    assert!(!fixed.is_crashed());
}

#[test]
fn duckdb_update_after_commit_crash_listing13() {
    let mut d = fresh(EngineDialect::Duckdb);
    d.execute("CREATE TABLE a (b int)").unwrap();
    d.execute("BEGIN").unwrap();
    d.execute("INSERT INTO a VALUES (1)").unwrap();
    d.execute("UPDATE a SET b = b + 10").unwrap();
    d.execute("COMMIT").unwrap();
    let err = d.execute("UPDATE a SET b = b + 10").unwrap_err();
    assert_eq!(err.kind, ErrorKind::Fatal);
    assert!(err.message.contains("INTERNAL Error"));
    // The fixed engine executes the same script fine.
    let mut fixed = Engine::with_faults(EngineDialect::Duckdb, FaultProfile::all_fixed());
    for sql in [
        "CREATE TABLE a (b int)",
        "BEGIN",
        "INSERT INTO a VALUES (1)",
        "UPDATE a SET b = b + 10",
        "COMMIT",
        "UPDATE a SET b = b + 10",
    ] {
        fixed.execute(sql).unwrap();
    }
    let mut f2 = Engine::with_faults(EngineDialect::Duckdb, FaultProfile::all_fixed());
    f2.execute("CREATE TABLE a (b int)").unwrap();
    f2.execute("INSERT INTO a VALUES (1)").unwrap();
    assert_eq!(f2.execute("SELECT b FROM a").unwrap().rows[0][0], Value::Integer(1));
}

#[test]
fn mysql_recursive_cte_crash_listing14() {
    let sql = "WITH RECURSIVE t(x) AS (SELECT 1 UNION ALL (SELECT x+1 FROM t WHERE x < 4 UNION SELECT x*2 FROM t WHERE x >= 4 AND x < 8)) SELECT * FROM t ORDER BY x";
    let mut my = fresh(EngineDialect::Mysql);
    let err = my.execute(sql).unwrap_err();
    assert_eq!(err.kind, ErrorKind::Fatal);
    assert!(err.message.contains("FollowTailIterator"));
    // Other engines execute it (it terminates: x grows past the guards).
    let mut d = fresh(EngineDialect::Duckdb);
    let r = d.execute(sql).unwrap();
    assert!(!r.rows.is_empty());
}

// ---- injected hangs (Listings 15-16, §6) --------------------------------------------

#[test]
fn duckdb_recursive_cte_hang_listing15() {
    let sql = "WITH RECURSIVE x(n) AS (SELECT 1 UNION ALL SELECT n+1 FROM x WHERE n IN (SELECT * FROM x)) SELECT * FROM x";
    // PostgreSQL / MySQL / SQLite reject the subquery self-reference.
    for d in [EngineDialect::Postgres, EngineDialect::Mysql, EngineDialect::Sqlite] {
        let mut e = fresh(d);
        let err = e.execute(sql).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Syntax, "{d}");
        assert!(err.message.contains("subquery"), "{d}: {}", err.message);
    }
    // DuckDB deliberately allows it and loops until the budget trips.
    let mut d = fresh(EngineDialect::Duckdb);
    d.set_step_budget(50_000);
    let err = d.execute(sql).unwrap_err();
    assert_eq!(err.kind, ErrorKind::Hang);
}

#[test]
fn sqlite_generate_series_overflow_hang_listing16() {
    let sql = "SELECT count(*) FROM generate_series(9223372036854775807,9223372036854775807)";
    let mut s = fresh(EngineDialect::Sqlite);
    let err = s.execute(sql).unwrap_err();
    assert_eq!(err.kind, ErrorKind::Hang);
    // After the upstream fix, one row comes back.
    let mut fixed = Engine::with_faults(EngineDialect::Sqlite, FaultProfile::all_fixed());
    assert_eq!(one_value(&mut fixed, sql), Value::Integer(1));
    // PostgreSQL was always correct here.
    let mut p = fresh(EngineDialect::Postgres);
    assert_eq!(one_value(&mut p, sql), Value::Integer(1));
}

#[test]
fn mysql_join_search_hang() {
    let mut my = fresh(EngineDialect::Mysql);
    let mut tables = Vec::new();
    for i in 0..42 {
        my.execute(&format!("CREATE TABLE j{i}(a INTEGER)")).unwrap();
        my.execute(&format!("INSERT INTO j{i} VALUES ({i})")).unwrap();
        tables.push(format!("j{i}"));
    }
    let sql = format!("SELECT count(*) FROM {}", tables.join(", "));
    let err = my.execute(&sql).unwrap_err();
    assert_eq!(err.kind, ErrorKind::Hang);
    // The paper's workaround: optimizer_search_depth = 0.
    my.execute("SET optimizer_search_depth = 0").unwrap();
    assert_eq!(one_value(&mut my, &sql), Value::Integer(1));
}

// ---- recursive CTEs that terminate ------------------------------------------------

#[test]
fn recursive_cte_terminates_normally() {
    for d in EngineDialect::ALL {
        let mut e = fresh(d);
        let r = e
            .execute(
                "WITH RECURSIVE cnt(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM cnt WHERE x < 5) SELECT * FROM cnt ORDER BY x",
            )
            .unwrap();
        let got: Vec<i64> = r.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 5], "{d}");
    }
}

// ---- typing differences (Table 6 "Types") ------------------------------------------

#[test]
fn varchar_without_length_fails_only_on_mysql() {
    let sql = "CREATE TABLE v(t VARCHAR)";
    let mut my = fresh(EngineDialect::Mysql);
    assert!(my.execute(sql).is_err());
    for d in [EngineDialect::Sqlite, EngineDialect::Postgres, EngineDialect::Duckdb] {
        let mut e = fresh(d);
        assert!(e.execute(sql).is_ok(), "{d}");
    }
}

#[test]
fn sqlite_dynamic_typing_stores_anything() {
    let mut s = fresh(EngineDialect::Sqlite);
    s.execute("CREATE TABLE t(a INTEGER)").unwrap();
    s.execute("INSERT INTO t VALUES ('not a number')").unwrap();
    assert_eq!(one_value(&mut s, "SELECT a FROM t"), Value::Text("not a number".into()));
    // Strict engines reject it.
    let mut p = fresh(EngineDialect::Postgres);
    p.execute("CREATE TABLE t(a INTEGER)").unwrap();
    assert!(p.execute("INSERT INTO t VALUES ('not a number')").is_err());
}

#[test]
fn nested_union_type_duckdb_only_listing11() {
    let sql = "CREATE TABLE tbl1 (union_struct UNION(str VARCHAR, obj STRUCT(k VARCHAR, v INT)))";
    let mut d = fresh(EngineDialect::Duckdb);
    d.execute(sql).unwrap();
    d.execute("INSERT INTO tbl1 VALUES ({'k': 'key1', 'v': 1})").unwrap();
    let v = one_value(&mut d, "SELECT * FROM tbl1");
    assert_eq!(
        squality_engine::render_value(&v, EngineDialect::Duckdb, ClientKind::Cli),
        "{'k': key1, 'v': 1}"
    );
    let mut p = fresh(EngineDialect::Postgres);
    assert!(p.execute(sql).is_err());
}

// ---- operators (Table 6 "Operators") --------------------------------------------------

#[test]
fn string_plus_integer_divergence() {
    // Paper: `+` between string and integer unsupported in PostgreSQL,
    // supported in SQLite.
    let mut s = fresh(EngineDialect::Sqlite);
    assert_eq!(one_value(&mut s, "SELECT 'abc' + 1"), Value::Float(1.0));
    let mut p = fresh(EngineDialect::Postgres);
    assert!(p.execute("SELECT 'abc' + 1").is_err());
    // But a numeric string works everywhere.
    for d in EngineDialect::ALL {
        let mut e = fresh(d);
        let v = one_value(&mut e, "SELECT '5' + 1");
        assert_eq!(v.as_f64(), Some(6.0), "{d}");
    }
}

#[test]
fn double_colon_cast_pg_duckdb_only() {
    for d in [EngineDialect::Postgres, EngineDialect::Duckdb] {
        let mut e = fresh(d);
        assert_eq!(one_value(&mut e, "SELECT '42'::integer"), Value::Integer(42), "{d}");
    }
    for d in [EngineDialect::Sqlite, EngineDialect::Mysql] {
        let mut e = fresh(d);
        assert_eq!(e.execute("SELECT '42'::integer").unwrap_err().kind, ErrorKind::Syntax, "{d}");
    }
}

// ---- functions (Table 6 "Functions") -----------------------------------------------------

#[test]
fn pg_typeof_function_availability() {
    let mut p = fresh(EngineDialect::Postgres);
    assert_eq!(one_value(&mut p, "SELECT pg_typeof(1)"), Value::Text("integer".into()));
    let mut d = fresh(EngineDialect::Duckdb);
    assert_eq!(one_value(&mut d, "SELECT pg_typeof(1)"), Value::Text("INTEGER".into()));
    let mut m = fresh(EngineDialect::Mysql);
    let err = m.execute("SELECT pg_typeof(1)").unwrap_err();
    assert_eq!(err.kind, ErrorKind::UnknownFunction);
}

#[test]
fn duckdb_range_function() {
    let mut d = fresh(EngineDialect::Duckdb);
    let v = one_value(&mut d, "SELECT range(3)");
    assert_eq!(v, Value::List(vec![Value::Integer(0), Value::Integer(1), Value::Integer(2)]));
    // As a table function with LIMIT (paper Listing 9 shape).
    let r = d
        .execute("SELECT 1 UNION ALL SELECT * FROM range(2, 100) UNION ALL SELECT 999 LIMIT 5")
        .unwrap();
    let got: Vec<i64> = r.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(got, vec![1, 2, 3, 4, 5]);
}

// ---- configurations (Table 6 "Configurations") ----------------------------------------------

#[test]
fn default_null_order_configuration() {
    // DuckDB: NULLs last by default; SET default_null_order flips it.
    let mut d = fresh(EngineDialect::Duckdb);
    d.execute("CREATE TABLE t(a INTEGER)").unwrap();
    d.execute("INSERT INTO t VALUES (1), (NULL), (2)").unwrap();
    let r = d.execute("SELECT a FROM t ORDER BY a").unwrap();
    assert_eq!(r.rows[2][0], Value::Null);
    d.execute("SET default_null_order='nulls_first'").unwrap();
    let r = d.execute("SELECT a FROM t ORDER BY a").unwrap();
    assert_eq!(r.rows[0][0], Value::Null);
    // The same SET fails on PostgreSQL (the paper's example).
    let mut p = fresh(EngineDialect::Postgres);
    let err = p.execute("SET default_null_order='nulls_first'").unwrap_err();
    assert_eq!(err.kind, ErrorKind::UnknownConfig);
}

#[test]
fn sqlite_silently_ignores_unknown_pragma() {
    let mut s = fresh(EngineDialect::Sqlite);
    assert!(s.execute("PRAGMA made_up_setting = 42").is_ok());
    let mut d = fresh(EngineDialect::Duckdb);
    assert!(d.execute("PRAGMA made_up_setting = 42").is_err());
}

// ---- environment / extension dependencies (Table 5) ----------------------------------------

#[test]
fn copy_file_dependency() {
    let mut p = fresh(EngineDialect::Postgres);
    p.execute("CREATE TABLE onek(a INTEGER, b TEXT)").unwrap();
    let err = p.execute("COPY onek FROM '/data/onek.data'").unwrap_err();
    assert_eq!(err.kind, ErrorKind::FileNotFound);
    // Registering the file (the donor's environment) fixes it.
    p.register_file("/data/onek.data", vec!["1,aaa".into(), "2,bbb".into()]);
    let r = p.execute("COPY onek FROM '/data/onek.data'").unwrap();
    assert_eq!(r.affected, 2);
    assert_eq!(one_value(&mut p, "SELECT count(*) FROM onek"), Value::Integer(2));
}

#[test]
fn create_function_extension_dependency_listing7() {
    let sql = "CREATE FUNCTION test_opclass_options_func(internal) RETURNS void AS 'regresslib', 'test_opclass_options_func' LANGUAGE C";
    let mut p = fresh(EngineDialect::Postgres);
    let err = p.execute(sql).unwrap_err();
    assert_eq!(err.kind, ErrorKind::ExtensionMissing);
    p.register_extension("regresslib");
    p.execute(sql).unwrap();
    // The registered function is now callable (returns NULL).
    assert_eq!(one_value(&mut p, "SELECT test_opclass_options_func(1)"), Value::Null);
}

#[test]
fn duckdb_install_load_extensions() {
    let mut d = fresh(EngineDialect::Duckdb);
    d.execute("INSTALL json").unwrap();
    assert!(d.has_extension("json"));
    let err = d.execute("INSTALL nonexistent_ext").unwrap_err();
    assert_eq!(err.kind, ErrorKind::ExtensionMissing);
}

// ---- transactions ---------------------------------------------------------------------------

#[test]
fn rollback_restores_state() {
    for d in EngineDialect::ALL {
        let mut e = fresh(d);
        e.execute("CREATE TABLE t(a INTEGER)").unwrap();
        e.execute("INSERT INTO t VALUES (1)").unwrap();
        e.execute("BEGIN").unwrap();
        e.execute("INSERT INTO t VALUES (2)").unwrap();
        assert_eq!(one_value(&mut e, "SELECT count(*) FROM t"), Value::Integer(2), "{d}");
        e.execute("ROLLBACK").unwrap();
        assert_eq!(one_value(&mut e, "SELECT count(*) FROM t"), Value::Integer(1), "{d}");
    }
}

#[test]
fn nested_begin_dialects() {
    // SQLite/DuckDB error; PostgreSQL warns (ok); MySQL implicitly commits.
    for d in [EngineDialect::Sqlite, EngineDialect::Duckdb] {
        let mut e = fresh(d);
        e.execute("BEGIN").unwrap();
        assert_eq!(e.execute("BEGIN").unwrap_err().kind, ErrorKind::Transaction, "{d}");
    }
    let mut p = fresh(EngineDialect::Postgres);
    p.execute("BEGIN").unwrap();
    p.execute("BEGIN").unwrap();
    let mut m = fresh(EngineDialect::Mysql);
    m.execute("CREATE TABLE t(a INTEGER)").unwrap();
    m.execute("BEGIN").unwrap();
    m.execute("INSERT INTO t VALUES (1)").unwrap();
    m.execute("BEGIN").unwrap(); // implicit commit
    m.execute("ROLLBACK").unwrap();
    assert_eq!(one_value(&mut m, "SELECT count(*) FROM t"), Value::Integer(1));
}

// ---- aggregates, grouping, set ops -----------------------------------------------------------

#[test]
fn aggregates_and_group_by() {
    let mut e = fresh(EngineDialect::Postgres);
    e.execute("CREATE TABLE t(g INTEGER, v INTEGER)").unwrap();
    e.execute("INSERT INTO t VALUES (1, 10), (1, 20), (2, 5), (2, NULL)").unwrap();
    let r = e
        .execute("SELECT g, count(*), count(v), sum(v), avg(v) FROM t GROUP BY g ORDER BY g")
        .unwrap();
    assert_eq!(r.rows[0][1], Value::Integer(2));
    assert_eq!(r.rows[0][3], Value::Integer(30));
    assert_eq!(r.rows[1][2], Value::Integer(1)); // count(v) skips NULL
    assert_eq!(r.rows[1][4], Value::Float(5.0));
    let r = e.execute("SELECT g FROM t GROUP BY g HAVING count(v) > 1 ORDER BY g").unwrap();
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn duckdb_median_listing10() {
    let mut d = fresh(EngineDialect::Duckdb);
    d.execute("CREATE TABLE quantile(r INTEGER)").unwrap();
    // 0..=9999 — true median 4999.5 (the paper's exact-comparison example).
    d.execute("INSERT INTO quantile SELECT * FROM range(0, 10000)").unwrap();
    d.execute("INSERT INTO quantile VALUES (NULL), (NULL), (NULL)").unwrap();
    assert_eq!(one_value(&mut d, "SELECT median(r) FROM quantile"), Value::Float(4999.5));
    // median is DuckDB-only.
    let mut p = fresh(EngineDialect::Postgres);
    p.execute("CREATE TABLE q(r INTEGER)").unwrap();
    assert_eq!(p.execute("SELECT median(r) FROM q").unwrap_err().kind, ErrorKind::UnknownFunction);
}

#[test]
fn set_operations() {
    let mut e = fresh(EngineDialect::Sqlite);
    let r = e.execute("SELECT 1 UNION SELECT 1 UNION SELECT 2").unwrap();
    assert_eq!(r.rows.len(), 2);
    let r = e.execute("SELECT 1 UNION ALL SELECT 1").unwrap();
    assert_eq!(r.rows.len(), 2);
    let r = e.execute("SELECT 1 INTERSECT SELECT 2").unwrap();
    assert_eq!(r.rows.len(), 0);
    let r = e.execute("SELECT 1 EXCEPT SELECT 2").unwrap();
    assert_eq!(r.rows.len(), 1);
    let err = e.execute("SELECT 1 UNION SELECT 1, 2").unwrap_err();
    assert_eq!(err.kind, ErrorKind::Syntax);
}

#[test]
fn joins_inner_left_implicit() {
    let mut e = fresh(EngineDialect::Postgres);
    e.execute("CREATE TABLE a(x INTEGER)").unwrap();
    e.execute("CREATE TABLE b(x INTEGER, y TEXT)").unwrap();
    e.execute("INSERT INTO a VALUES (1), (2), (3)").unwrap();
    e.execute("INSERT INTO b VALUES (1, 'one'), (3, 'three')").unwrap();
    let r = e.execute("SELECT a.x, b.y FROM a INNER JOIN b ON a.x = b.x ORDER BY a.x").unwrap();
    assert_eq!(r.rows.len(), 2);
    let r = e.execute("SELECT a.x, b.y FROM a LEFT JOIN b ON a.x = b.x ORDER BY a.x").unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[1][1], Value::Null);
    let r = e.execute("SELECT count(*) FROM a, b").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(6));
    // USING join.
    let r = e.execute("SELECT count(*) FROM a JOIN b USING (x)").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(2));
}

#[test]
fn asof_join_duckdb_only() {
    let sql = "SELECT * FROM a ASOF JOIN b ON a.x >= b.x";
    let mut d = fresh(EngineDialect::Duckdb);
    d.execute("CREATE TABLE a(x INTEGER)").unwrap();
    d.execute("CREATE TABLE b(x INTEGER)").unwrap();
    assert!(d.execute(sql).is_ok());
    let mut p = fresh(EngineDialect::Postgres);
    p.execute("CREATE TABLE a(x INTEGER)").unwrap();
    p.execute("CREATE TABLE b(x INTEGER)").unwrap();
    assert_eq!(p.execute(sql).unwrap_err().kind, ErrorKind::Syntax);
}

// ---- subqueries --------------------------------------------------------------------------------

#[test]
fn correlated_subquery() {
    let mut e = fresh(EngineDialect::Postgres);
    e.execute("CREATE TABLE t(a INTEGER, b INTEGER)").unwrap();
    e.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)").unwrap();
    let r = e
        .execute(
            "SELECT a FROM t WHERE b = (SELECT max(b) FROM t AS inner_t WHERE inner_t.a <= t.a) ORDER BY a",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    let r = e
        .execute("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM t s WHERE s.b > 25 AND s.a = t.a)")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Integer(3)]]);
}

#[test]
fn scalar_subquery_multi_row_divergence() {
    // SQLite takes the first row; strict engines error.
    let mut s = fresh(EngineDialect::Sqlite);
    s.execute("CREATE TABLE t(a INTEGER)").unwrap();
    s.execute("INSERT INTO t VALUES (7), (8)").unwrap();
    assert_eq!(one_value(&mut s, "SELECT (SELECT a FROM t)"), Value::Integer(7));
    let mut p = fresh(EngineDialect::Postgres);
    p.execute("CREATE TABLE t(a INTEGER)").unwrap();
    p.execute("INSERT INTO t VALUES (7), (8)").unwrap();
    assert!(p.execute("SELECT (SELECT a FROM t)").is_err());
}

// ---- views, EXPLAIN, SHOW ------------------------------------------------------------------------

#[test]
fn views_work() {
    let mut e = fresh(EngineDialect::Sqlite);
    e.execute("CREATE TABLE t(a INTEGER)").unwrap();
    e.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    e.execute("CREATE VIEW v AS SELECT a * 10 AS ten FROM t").unwrap();
    let r = e.execute("SELECT ten FROM v ORDER BY ten").unwrap();
    assert_eq!(r.rows[1][0], Value::Integer(20));
    e.execute("DROP VIEW v").unwrap();
    assert!(e.execute("SELECT * FROM v").is_err());
}

#[test]
fn explain_formats_diverge() {
    let mut results = Vec::new();
    for d in EngineDialect::ALL {
        let mut e = fresh(d);
        e.execute("CREATE TABLE integers(i INTEGER, j INTEGER, k INTEGER)").unwrap();
        let r = e.execute("EXPLAIN SELECT k FROM integers WHERE j = 5").unwrap();
        results.push(r.rows);
    }
    for i in 0..results.len() {
        for j in i + 1..results.len() {
            assert_ne!(results[i], results[j]);
        }
    }
}

#[test]
fn show_and_use() {
    let mut p = fresh(EngineDialect::Postgres);
    let r = p.execute("SHOW search_path").unwrap();
    assert_eq!(r.rows.len(), 1);
    let mut m = fresh(EngineDialect::Mysql);
    m.execute("CREATE TABLE t(a INTEGER)").unwrap();
    let r = m.execute("SHOW tables").unwrap();
    assert_eq!(r.rows.len(), 1);
    m.execute("USE main").unwrap();
    // USE is a syntax error on PostgreSQL.
    assert_eq!(p.execute("USE main").unwrap_err().kind, ErrorKind::Syntax);
}

// ---- ORDER BY null placement -----------------------------------------------------------------------

#[test]
fn null_ordering_defaults_differ() {
    let setup = ["CREATE TABLE t(a INTEGER)", "INSERT INTO t VALUES (1), (NULL), (2)"];
    // SQLite/MySQL: NULLs first in ASC.
    for d in [EngineDialect::Sqlite, EngineDialect::Mysql] {
        let mut e = fresh(d);
        for s in setup {
            e.execute(s).unwrap();
        }
        let r = e.execute("SELECT a FROM t ORDER BY a").unwrap();
        assert_eq!(r.rows[0][0], Value::Null, "{d}");
    }
    // PostgreSQL/DuckDB: NULLs last in ASC.
    for d in [EngineDialect::Postgres, EngineDialect::Duckdb] {
        let mut e = fresh(d);
        for s in setup {
            e.execute(s).unwrap();
        }
        let r = e.execute("SELECT a FROM t ORDER BY a").unwrap();
        assert_eq!(r.rows[2][0], Value::Null, "{d}");
    }
    // Explicit NULLS FIRST overrides.
    let mut p = fresh(EngineDialect::Postgres);
    for s in setup {
        p.execute(s).unwrap();
    }
    let r = p.execute("SELECT a FROM t ORDER BY a NULLS FIRST").unwrap();
    assert_eq!(r.rows[0][0], Value::Null);
}

// ---- coverage instrumentation (Table 8 substrate) ----------------------------------------------------

#[test]
fn coverage_accumulates() {
    let mut e = fresh(EngineDialect::Sqlite);
    let before = e.coverage().line_ratio();
    e.execute("CREATE TABLE t(a INTEGER)").unwrap();
    e.execute("INSERT INTO t VALUES (1)").unwrap();
    e.execute("SELECT abs(a) FROM t WHERE a > 0").unwrap();
    let after = e.coverage().line_ratio();
    assert!(after > before);
    let (hit, total) = e.coverage().line_counts();
    assert!(hit >= 4, "stmt:CREATE TABLE, stmt:INSERT, stmt:SELECT, fn:abs");
    assert!(total > hit, "universe must be larger than what one script hits");
}

// ---- misc statements ------------------------------------------------------------------------------------

#[test]
fn alter_table_actions() {
    let mut e = fresh(EngineDialect::Postgres);
    e.execute("CREATE TABLE t(a INTEGER)").unwrap();
    e.execute("INSERT INTO t VALUES (1)").unwrap();
    e.execute("ALTER TABLE t ADD COLUMN b TEXT DEFAULT 'd'").unwrap();
    assert_eq!(one_value(&mut e, "SELECT b FROM t"), Value::Text("d".into()));
    e.execute("ALTER TABLE t RENAME COLUMN b TO c").unwrap();
    assert!(e.execute("SELECT c FROM t").is_ok());
    e.execute("ALTER TABLE t RENAME TO t2").unwrap();
    assert!(e.execute("SELECT * FROM t2").is_ok());
    e.execute("ALTER TABLE t2 DROP COLUMN c").unwrap();
    assert!(e.execute("SELECT c FROM t2").is_err());
}

#[test]
fn truncate_and_indexes() {
    let mut e = fresh(EngineDialect::Mysql);
    e.execute("CREATE TABLE t(a INTEGER)").unwrap();
    e.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    e.execute("CREATE INDEX idx_a ON t(a)").unwrap();
    assert!(e.execute("CREATE INDEX idx_a ON t(a)").is_err());
    e.execute("TRUNCATE TABLE t").unwrap();
    assert_eq!(one_value(&mut e, "SELECT count(*) FROM t"), Value::Integer(0));
    e.execute("DROP INDEX idx_a").unwrap();
}

#[test]
fn case_expressions_and_like() {
    let mut e = fresh(EngineDialect::Sqlite);
    assert_eq!(
        one_value(&mut e, "SELECT CASE WHEN 1 > 0 THEN 'pos' ELSE 'neg' END"),
        Value::Text("pos".into())
    );
    // SQLite LIKE is case-insensitive; PostgreSQL's is not.
    assert_eq!(one_value(&mut e, "SELECT 'ABC' LIKE 'abc'"), Value::Boolean(true));
    let mut p = fresh(EngineDialect::Postgres);
    assert_eq!(one_value(&mut p, "SELECT 'ABC' LIKE 'abc'"), Value::Boolean(false));
    assert_eq!(one_value(&mut p, "SELECT 'ABC' ILIKE 'abc'"), Value::Boolean(true));
}

#[test]
fn create_table_as_select() {
    let mut e = fresh(EngineDialect::Duckdb);
    e.execute("CREATE TABLE src(a INTEGER)").unwrap();
    e.execute("INSERT INTO src VALUES (1), (2), (3)").unwrap();
    e.execute("CREATE TABLE dst AS SELECT a * 2 AS b FROM src").unwrap();
    assert_eq!(one_value(&mut e, "SELECT sum(b) FROM dst"), Value::Integer(12));
}

#[test]
fn distinct_and_order_with_limit() {
    let mut e = fresh(EngineDialect::Sqlite);
    e.execute("CREATE TABLE t(a INTEGER)").unwrap();
    e.execute("INSERT INTO t VALUES (3), (1), (3), (2), (1)").unwrap();
    let r = e.execute("SELECT DISTINCT a FROM t ORDER BY a DESC LIMIT 2").unwrap();
    let got: Vec<i64> = r.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(got, vec![3, 2]);
}

#[test]
fn from_clause_step_charges_are_unchanged() {
    // The smallest step budget each query completes under, as measured
    // when the FROM fold still crossed every scan with a one-empty-row
    // seed. The fold charges one step per row of the first relation
    // either way, and a budget one below the threshold trips the same
    // hang error.
    for (sql, threshold) in [
        ("SELECT a FROM t", 42),
        ("SELECT a FROM t WHERE a > 4", 72),
        ("SELECT count(*) FROM t, t AS u", 135),
        ("SELECT 1", 3),
    ] {
        let budget_run = |budget: u64| {
            let mut e = fresh(EngineDialect::Sqlite);
            e.execute("CREATE TABLE t(a INTEGER)").unwrap();
            e.execute("INSERT INTO t VALUES (0), (1), (2), (3), (4), (5), (6), (7), (8), (9)")
                .unwrap();
            e.set_step_budget(budget);
            e.execute(sql)
        };
        let least = (0..1000).find(|&b| budget_run(b).is_ok()).expect("completes under 1000");
        assert_eq!(least, threshold, "{sql}");
        let err = budget_run(threshold - 1).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Hang, "{sql}");
        assert_eq!(
            err.message,
            format!("statement exceeded execution budget ({} steps): likely hang", threshold - 1),
            "{sql}"
        );
    }
}
