//! Scalar-function registries for the four simulated engines.
//!
//! Function availability is a headline incompatibility class in the paper
//! (Table 6 "Functions"): `pg_typeof` exists on PostgreSQL and DuckDB but
//! not MySQL; `range()` is DuckDB-only; SQLite's dynamic `typeof` has no
//! MySQL equivalent. Semantic divergences on *shared* names are also
//! modelled — `has_column_privilege` returns `true` for any arguments on
//! DuckDB but raises an error on PostgreSQL (paper Listing 18).

use crate::dialect::EngineDialect;
use crate::env::QueryEnv;
use crate::error::{EngineError, ErrorKind};
use crate::value::{parse_leading_number, Value};

/// Names of aggregate functions (dialect-gated where needed).
pub fn is_aggregate(dialect: EngineDialect, name: &str) -> bool {
    match name {
        "count" | "sum" | "avg" | "min" | "max" | "total" => true,
        "median" | "quantile" => dialect == EngineDialect::Duckdb,
        "group_concat" => {
            matches!(dialect, EngineDialect::Sqlite | EngineDialect::Mysql)
        }
        "string_agg" => {
            matches!(dialect, EngineDialect::Postgres | EngineDialect::Duckdb)
        }
        _ => false,
    }
}

/// The scalar function vocabulary of a dialect, for coverage registration
/// and the RQ1 census.
pub fn scalar_function_names(dialect: EngineDialect) -> Vec<&'static str> {
    let mut names = vec![
        "abs",
        "length",
        "upper",
        "lower",
        "substr",
        "substring",
        "coalesce",
        "nullif",
        "round",
        "replace",
        "trim",
        "ltrim",
        "rtrim",
        "floor",
        "ceil",
        "ceiling",
        "sqrt",
        "power",
        "pow",
        "sign",
        "mod",
        "char_length",
        "reverse",
        "hex",
        "instr",
    ];
    match dialect {
        EngineDialect::Sqlite => {
            names.extend([
                "typeof",
                "ifnull",
                "sqlite_version",
                "random",
                "quote",
                "unicode",
                "zeroblob",
                "iif",
                "likelihood",
                "likely",
                "unlikely",
            ]);
        }
        EngineDialect::Postgres => {
            names.extend([
                "pg_typeof",
                "to_json",
                "version",
                "current_database",
                "pg_backend_pid",
                "has_column_privilege",
                "array_length",
                "to_char",
                "ascii",
                "chr",
                "pg_table_size",
                "quote_literal",
                "quote_ident",
                "current_schema",
                "concat",
                "greatest",
                "least",
            ]);
        }
        EngineDialect::Duckdb => {
            names.extend([
                "pg_typeof",
                "typeof",
                "range",
                "list_value",
                "struct_pack",
                "version",
                "current_database",
                "has_column_privilege",
                "len",
                "list_contains",
                "array_length",
                "greatest",
                "least",
                "current_schema",
                "concat",
            ]);
        }
        EngineDialect::Mysql => {
            names.extend([
                "database",
                "connection_id",
                "last_insert_id",
                "concat",
                "ifnull",
                "if",
                "version",
                "ascii",
                "char",
                "greatest",
                "least",
                "truncate",
                "rand",
            ]);
        }
    }
    names
}

/// Does a scalar function with this name exist in the dialect's registry or
/// among CREATE FUNCTION registrations? Used by the planner-style validation
/// pass, which must reject unknown functions even when no rows flow (real
/// DBMSs resolve functions at plan time).
pub fn scalar_exists(env: &QueryEnv<'_>, name: &str) -> bool {
    let lname = name.to_lowercase();
    scalar_function_names(env.dialect).iter().any(|n| *n == lname)
        || env.user_functions.contains(&lname)
}

/// Call a scalar function with already-evaluated arguments.
///
/// `Ok(None)` signals "no such function in this dialect" — the caller turns
/// that into an [`ErrorKind::UnknownFunction`] error mentioning the name.
pub fn call_scalar(
    env: &QueryEnv<'_>,
    name: &str,
    args: &[Value],
) -> Result<Option<Value>, EngineError> {
    let d = env.dialect;
    env.cov_line(format!("fn:{name}"));
    let v = match name {
        // --- universal string/number helpers -----------------------------
        "abs" => one_numeric(args, "abs", |f| f.abs(), |i| i.checked_abs())?,
        "floor" => one_float(args, |f| f.floor())?,
        "ceil" | "ceiling" => one_float(args, |f| f.ceil())?,
        "sqrt" => one_float(args, |f| f.sqrt())?,
        "sign" => one_float(args, |f| {
            if f > 0.0 {
                1.0
            } else if f < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
        .map(|v| match v {
            Value::Float(f) => Value::Integer(f as i64),
            other => other,
        })?,
        "round" => {
            if args.is_empty() || args.len() > 2 {
                return Err(wrong_args("round"));
            }
            if args[0].is_null() {
                Value::Null
            } else {
                let digits = if args.len() == 2 { args[1].as_i64().unwrap_or(0) } else { 0 };
                let f = coerce_num(&args[0], d)?;
                let scale = 10f64.powi(digits as i32);
                Value::Float((f * scale).round() / scale)
            }
        }
        "power" | "pow" => {
            if args.len() != 2 {
                return Err(wrong_args(name));
            }
            if args.iter().any(Value::is_null) {
                Value::Null
            } else {
                Value::Float(coerce_num(&args[0], d)?.powf(coerce_num(&args[1], d)?))
            }
        }
        "mod" => {
            if args.len() != 2 {
                return Err(wrong_args("mod"));
            }
            match (args[0].as_i64(), args[1].as_i64()) {
                (Some(_), Some(0)) => Value::Null,
                // `i64::MIN % -1` overflows; the exact remainder is 0.
                (Some(a), Some(b)) => Value::Integer(a.checked_rem(b).unwrap_or(0)),
                _ if args.iter().any(Value::is_null) => Value::Null,
                _ => Value::Float(coerce_num(&args[0], d)? % coerce_num(&args[1], d)?),
            }
        }
        "length" | "char_length" | "len" => {
            if name == "len" && d != EngineDialect::Duckdb {
                return Ok(None);
            }
            match args.first() {
                Some(Value::Null) => Value::Null,
                Some(Value::Text(s)) => Value::Integer(s.chars().count() as i64),
                Some(Value::Blob(b)) => Value::Integer(b.len() as i64),
                Some(Value::List(l)) if d == EngineDialect::Duckdb => {
                    Value::Integer(l.len() as i64)
                }
                Some(v) => Value::Integer(render_plain(v).chars().count() as i64),
                None => return Err(wrong_args(name)),
            }
        }
        "upper" => one_text(args, |s| s.to_uppercase())?,
        "lower" => one_text(args, |s| s.to_lowercase())?,
        "reverse" => one_text(args, |s| s.chars().rev().collect())?,
        "trim" => one_text(args, |s| s.trim().to_string())?,
        "ltrim" => one_text(args, |s| s.trim_start().to_string())?,
        "rtrim" => one_text(args, |s| s.trim_end().to_string())?,
        "hex" => match args.first() {
            Some(Value::Blob(b)) => {
                Value::text(b.iter().map(|x| format!("{x:02X}")).collect::<String>())
            }
            Some(Value::Null) => Value::text(""),
            Some(v) => {
                Value::text(render_plain(v).bytes().map(|x| format!("{x:02X}")).collect::<String>())
            }
            None => return Err(wrong_args("hex")),
        },
        "substr" | "substring" => {
            if args.len() < 2 || args.len() > 3 {
                return Err(wrong_args(name));
            }
            if args.iter().any(Value::is_null) {
                Value::Null
            } else {
                let s = text_of(&args[0]);
                let start = args[1].as_i64().unwrap_or(1).max(1) as usize;
                let chars: Vec<char> = s.chars().collect();
                let from = start.saturating_sub(1).min(chars.len());
                let taken: String = match args.get(2) {
                    Some(n) => {
                        let count = n.as_i64().unwrap_or(0).max(0) as usize;
                        chars[from..].iter().take(count).collect()
                    }
                    None => chars[from..].iter().collect(),
                };
                Value::text(taken)
            }
        }
        "replace" => {
            if args.len() != 3 {
                return Err(wrong_args("replace"));
            }
            if args.iter().any(Value::is_null) {
                Value::Null
            } else {
                Value::text(text_of(&args[0]).replace(&*text_of(&args[1]), &text_of(&args[2])))
            }
        }
        "instr" => {
            if args.len() != 2 {
                return Err(wrong_args("instr"));
            }
            if args.iter().any(Value::is_null) {
                Value::Null
            } else {
                let hay = text_of(&args[0]);
                let needle = text_of(&args[1]);
                Value::Integer(hay.find(&*needle).map(|i| i as i64 + 1).unwrap_or(0))
            }
        }
        "coalesce" => {
            // Dialect-sensitive typing (paper §6): SQLite returns the first
            // non-NULL as-is; the others unify the result type, so
            // COALESCE(1, 1.0) is a float there.
            let first = args.iter().find(|v| !v.is_null()).cloned().unwrap_or(Value::Null);
            if d != EngineDialect::Sqlite
                && matches!(first, Value::Integer(_))
                && args.iter().any(|v| matches!(v, Value::Float(_)))
            {
                env.cov_branch("coalesce:promoted");
                Value::Float(first.as_f64().expect("integer"))
            } else {
                first
            }
        }
        "nullif" => {
            if args.len() != 2 {
                return Err(wrong_args("nullif"));
            }
            if args[0].sql_grouping_eq(&args[1]) {
                Value::Null
            } else {
                args[0].clone()
            }
        }
        "ifnull" => {
            if !matches!(d, EngineDialect::Sqlite | EngineDialect::Mysql) {
                return Ok(None);
            }
            if args.len() != 2 {
                return Err(wrong_args("ifnull"));
            }
            if args[0].is_null() {
                args[1].clone()
            } else {
                args[0].clone()
            }
        }
        "iif" | "if" => {
            let allowed = (name == "iif" && d == EngineDialect::Sqlite)
                || (name == "if" && d == EngineDialect::Mysql);
            if !allowed {
                return Ok(None);
            }
            if args.len() != 3 {
                return Err(wrong_args(name));
            }
            match crate::value::truthiness(&args[0]) {
                crate::value::Truth::True => args[1].clone(),
                _ => args[2].clone(),
            }
        }
        "concat" => {
            if !matches!(d, EngineDialect::Mysql | EngineDialect::Postgres | EngineDialect::Duckdb)
            {
                return Ok(None);
            }
            if d == EngineDialect::Mysql && args.iter().any(Value::is_null) {
                Value::Null
            } else {
                Value::text(
                    args.iter()
                        .filter(|v| !v.is_null())
                        .map(render_plain)
                        .collect::<Vec<_>>()
                        .join(""),
                )
            }
        }
        "greatest" | "least" => {
            if !matches!(d, EngineDialect::Mysql | EngineDialect::Duckdb | EngineDialect::Postgres)
            {
                return Ok(None);
            }
            let non_null: Vec<&Value> = args.iter().filter(|v| !v.is_null()).collect();
            if non_null.is_empty() || (d == EngineDialect::Mysql && non_null.len() < args.len()) {
                Value::Null
            } else {
                let mut best = non_null[0].clone();
                for v in &non_null[1..] {
                    let take = if name == "greatest" {
                        v.total_cmp(&best, true) == std::cmp::Ordering::Greater
                    } else {
                        v.total_cmp(&best, true) == std::cmp::Ordering::Less
                    };
                    if take {
                        best = (*v).clone();
                    }
                }
                best
            }
        }

        // --- type-introspection functions ---------------------------------
        "typeof" => {
            if !matches!(d, EngineDialect::Sqlite | EngineDialect::Duckdb) {
                return Ok(None);
            }
            match args.first() {
                Some(v) if d == EngineDialect::Sqlite => Value::text(v.sqlite_type_name()),
                Some(v) => Value::text(duckdb_type_name(v)),
                None => return Err(wrong_args("typeof")),
            }
        }
        "pg_typeof" => {
            // Shared by PostgreSQL and DuckDB; missing on MySQL/SQLite
            // (the paper's example of a Functions failure). DuckDB's
            // implementation reports its own type names.
            match d {
                EngineDialect::Postgres => match args.first() {
                    Some(v) => Value::text(pg_type_name(v)),
                    None => return Err(wrong_args("pg_typeof")),
                },
                EngineDialect::Duckdb => match args.first() {
                    Some(v) => Value::text(duckdb_type_name(v)),
                    None => return Err(wrong_args("pg_typeof")),
                },
                _ => return Ok(None),
            }
        }

        // --- system / admin functions --------------------------------------
        "version" => match d {
            EngineDialect::Sqlite => return Ok(None), // sqlite_version instead
            EngineDialect::Postgres => Value::Text("PostgreSQL 15.2 (squality-sim)".into()),
            EngineDialect::Duckdb => Value::Text("v0.8.1 (squality-sim)".into()),
            EngineDialect::Mysql => Value::Text("8.0.33-squality-sim".into()),
        },
        "sqlite_version" => {
            if d != EngineDialect::Sqlite {
                return Ok(None);
            }
            Value::Text("3.41.1".into())
        }
        "current_database" => {
            if !matches!(d, EngineDialect::Postgres | EngineDialect::Duckdb) {
                return Ok(None);
            }
            Value::Text("main".into())
        }
        "current_schema" => {
            if !matches!(d, EngineDialect::Postgres | EngineDialect::Duckdb) {
                return Ok(None);
            }
            Value::Text("main".into())
        }
        "database" => {
            if d != EngineDialect::Mysql {
                return Ok(None);
            }
            Value::Text("main".into())
        }
        "connection_id" => {
            if d != EngineDialect::Mysql {
                return Ok(None);
            }
            Value::Integer(1)
        }
        "last_insert_id" => {
            if d != EngineDialect::Mysql {
                return Ok(None);
            }
            Value::Integer(0)
        }
        "pg_backend_pid" => {
            if d != EngineDialect::Postgres {
                return Ok(None);
            }
            Value::Integer(4242)
        }
        "has_column_privilege" => {
            // Paper Listing 18: DuckDB returns true for ANY arguments; real
            // PostgreSQL validates and errors on nonsense.
            match d {
                EngineDialect::Duckdb => {
                    env.cov_branch("fn:has_column_privilege:lenient");
                    Value::Boolean(true)
                }
                EngineDialect::Postgres => {
                    let valid = args.len() >= 2 && args.iter().all(|a| matches!(a, Value::Text(_)));
                    if !valid {
                        return Err(EngineError::new(
                            ErrorKind::Conversion,
                            "ERROR: column privilege check arguments are invalid",
                        ));
                    }
                    Value::Boolean(true)
                }
                _ => return Ok(None),
            }
        }
        "to_json" => {
            if d != EngineDialect::Postgres {
                return Ok(None);
            }
            match args.first() {
                Some(v) => Value::text(to_json(v)),
                None => return Err(wrong_args("to_json")),
            }
        }
        "quote_literal" => {
            if d != EngineDialect::Postgres {
                return Ok(None);
            }
            match args.first() {
                Some(Value::Null) => Value::Null,
                Some(v) => Value::text(format!("'{}'", render_plain(v).replace('\'', "''"))),
                None => return Err(wrong_args("quote_literal")),
            }
        }
        "ascii" => {
            if !matches!(d, EngineDialect::Postgres | EngineDialect::Mysql) {
                return Ok(None);
            }
            match args.first() {
                Some(Value::Text(s)) => {
                    Value::Integer(s.chars().next().map(|c| c as i64).unwrap_or(0))
                }
                Some(Value::Null) => Value::Null,
                _ => return Err(wrong_args("ascii")),
            }
        }

        // --- DuckDB nested-data functions -----------------------------------
        "range" => {
            // Scalar form returns a LIST (paper §6: `SELECT range(3)` →
            // `[0, 1, 2]`, unsupported elsewhere).
            if d != EngineDialect::Duckdb {
                return Ok(None);
            }
            let (start, stop, step) = range_bounds(args)?;
            let mut items = Vec::new();
            let mut i = start;
            while (step > 0 && i < stop) || (step < 0 && i > stop) {
                env.tick(1)?;
                items.push(Value::Integer(i));
                i = i.saturating_add(step);
            }
            Value::List(items)
        }
        "list_value" => {
            if d != EngineDialect::Duckdb {
                return Ok(None);
            }
            Value::List(args.to_vec())
        }
        "list_contains" => {
            if d != EngineDialect::Duckdb {
                return Ok(None);
            }
            match (args.first(), args.get(1)) {
                (Some(Value::List(items)), Some(needle)) => {
                    Value::Boolean(items.iter().any(|v| v.sql_grouping_eq(needle)))
                }
                (Some(Value::Null), _) => Value::Null,
                _ => return Err(wrong_args("list_contains")),
            }
        }
        "struct_pack" => {
            if d != EngineDialect::Duckdb {
                return Ok(None);
            }
            Value::Struct(
                args.iter().enumerate().map(|(i, v)| (format!("v{}", i + 1), v.clone())).collect(),
            )
        }
        "array_length" => {
            if !matches!(d, EngineDialect::Postgres | EngineDialect::Duckdb) {
                return Ok(None);
            }
            match args.first() {
                Some(Value::List(items)) => Value::Integer(items.len() as i64),
                Some(Value::Null) => Value::Null,
                _ => return Err(wrong_args("array_length")),
            }
        }

        // Unknown to every registry.
        _ => {
            // User-defined functions from CREATE FUNCTION return NULL.
            if env.user_functions.contains(&name.to_lowercase()) {
                return Ok(Some(Value::Null));
            }
            return Ok(None);
        }
    };
    Ok(Some(v))
}

fn range_bounds(args: &[Value]) -> Result<(i64, i64, i64), EngineError> {
    let get = |i: usize| -> Result<i64, EngineError> {
        args.get(i).and_then(Value::as_i64).ok_or_else(|| wrong_args("range"))
    };
    match args.len() {
        1 => Ok((0, get(0)?, 1)),
        2 => Ok((get(0)?, get(1)?, 1)),
        3 => {
            let step = get(2)?;
            if step == 0 {
                return Err(EngineError::new(ErrorKind::Arithmetic, "range step cannot be zero"));
            }
            Ok((get(0)?, get(1)?, step))
        }
        _ => Err(wrong_args("range")),
    }
}

fn wrong_args(name: &str) -> EngineError {
    EngineError::new(
        ErrorKind::UnknownFunction,
        format!("wrong number of arguments to function {name}()"),
    )
}

fn one_text(args: &[Value], f: impl Fn(&str) -> String) -> Result<Value, EngineError> {
    match args.first() {
        Some(Value::Null) => Ok(Value::Null),
        Some(v) => Ok(Value::text(f(&text_of(v)))),
        None => Err(wrong_args("text function")),
    }
}

fn one_float(args: &[Value], f: impl Fn(f64) -> f64) -> Result<Value, EngineError> {
    match args.first() {
        Some(Value::Null) => Ok(Value::Null),
        Some(v) => match v.as_f64() {
            Some(x) => Ok(Value::Float(f(x))),
            None => match parse_leading_number(&text_of(v)) {
                Some(x) => Ok(Value::Float(f(x))),
                None => Ok(Value::Float(f(0.0))),
            },
        },
        None => Err(wrong_args("numeric function")),
    }
}

fn one_numeric(
    args: &[Value],
    name: &str,
    ff: impl Fn(f64) -> f64,
    fi: impl Fn(i64) -> Option<i64>,
) -> Result<Value, EngineError> {
    match args.first() {
        Some(Value::Null) => Ok(Value::Null),
        Some(Value::Integer(i)) => match fi(*i) {
            Some(v) => Ok(Value::Integer(v)),
            None => Err(EngineError::new(ErrorKind::Arithmetic, "integer overflow")),
        },
        Some(Value::Float(f)) => Ok(Value::Float(ff(*f))),
        Some(v) => Ok(Value::Float(ff(v.as_f64().unwrap_or(0.0)))),
        None => Err(wrong_args(name)),
    }
}

fn coerce_num(v: &Value, _d: EngineDialect) -> Result<f64, EngineError> {
    v.as_f64()
        .or_else(|| parse_leading_number(&text_of(v)))
        .ok_or_else(|| EngineError::conversion("could not convert value to number"))
}

/// Plain textual rendering used inside functions (client rendering differs;
/// see `client.rs`).
pub fn render_plain(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Integer(i) => i.to_string(),
        Value::Float(f) => {
            if f.fract() == 0.0 && f.is_finite() && f.abs() < 1e15 {
                format!("{:.1}", f)
            } else {
                format!("{}", f)
            }
        }
        Value::Text(s) => s.to_string(),
        Value::Blob(b) => b.iter().map(|x| format!("{x:02X}")).collect(),
        Value::Boolean(b) => if *b { "true" } else { "false" }.to_string(),
        Value::List(items) => {
            let inner: Vec<String> = items.iter().map(render_plain).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Struct(fields) => {
            let inner: Vec<String> =
                fields.iter().map(|(k, v)| format!("'{k}': {}", render_plain(v))).collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

fn text_of(v: &Value) -> std::borrow::Cow<'_, str> {
    match v {
        Value::Text(s) => std::borrow::Cow::Borrowed(&**s),
        other => std::borrow::Cow::Owned(render_plain(other)),
    }
}

fn duckdb_type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "\"NULL\"",
        Value::Integer(_) => "INTEGER",
        Value::Float(_) => "DOUBLE",
        Value::Text(_) => "VARCHAR",
        Value::Blob(_) => "BLOB",
        Value::Boolean(_) => "BOOLEAN",
        Value::List(_) => "LIST",
        Value::Struct(_) => "STRUCT",
    }
}

fn pg_type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "unknown",
        Value::Integer(_) => "integer",
        Value::Float(_) => "numeric",
        Value::Text(_) => "text",
        Value::Blob(_) => "bytea",
        Value::Boolean(_) => "boolean",
        Value::List(_) => "anyarray",
        Value::Struct(_) => "record",
    }
}

fn to_json(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Integer(i) => i.to_string(),
        Value::Float(f) => format!("{}", f),
        Value::Text(s) => format!("\"{}\"", s.replace('"', "\\\"")),
        Value::Boolean(b) => b.to_string(),
        Value::Blob(b) => {
            format!("\"{}\"", b.iter().map(|x| format!("{x:02x}")).collect::<String>())
        }
        Value::List(items) => {
            let inner: Vec<String> = items.iter().map(to_json).collect();
            format!("[{}]", inner.join(","))
        }
        Value::Struct(fields) => {
            let inner: Vec<String> =
                fields.iter().map(|(k, v)| format!("\"{k}\":{}", to_json(v))).collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigStore;
    use crate::faults::FaultProfile;
    use crate::schema::Catalog;
    use std::collections::BTreeSet;

    struct Fixture {
        catalog: Catalog,
        config: ConfigStore,
        faults: FaultProfile,
        exts: BTreeSet<String>,
        fns: BTreeSet<String>,
    }

    impl Fixture {
        fn new(d: EngineDialect) -> Fixture {
            Fixture {
                catalog: Catalog::new(),
                config: ConfigStore::new(d),
                faults: FaultProfile::default(),
                exts: BTreeSet::new(),
                fns: BTreeSet::new(),
            }
        }
        fn env(&self, d: EngineDialect) -> QueryEnv<'_> {
            QueryEnv::new(
                d,
                &self.catalog,
                &self.config,
                &self.faults,
                &self.exts,
                &self.fns,
                1_000_000,
            )
        }
    }

    fn call(d: EngineDialect, name: &str, args: &[Value]) -> Result<Option<Value>, EngineError> {
        let fx = Fixture::new(d);
        let env = fx.env(d);
        call_scalar(&env, name, args)
    }

    #[test]
    fn pg_typeof_availability() {
        // Paper: pg_typeof on PostgreSQL & DuckDB, not MySQL.
        assert!(call(EngineDialect::Postgres, "pg_typeof", &[Value::Integer(1)])
            .unwrap()
            .is_some());
        assert!(call(EngineDialect::Duckdb, "pg_typeof", &[Value::Integer(1)]).unwrap().is_some());
        assert!(call(EngineDialect::Mysql, "pg_typeof", &[Value::Integer(1)]).unwrap().is_none());
        assert!(call(EngineDialect::Sqlite, "pg_typeof", &[Value::Integer(1)]).unwrap().is_none());
    }

    #[test]
    fn range_is_duckdb_only() {
        let r = call(EngineDialect::Duckdb, "range", &[Value::Integer(3)]).unwrap().unwrap();
        assert_eq!(r, Value::List(vec![Value::Integer(0), Value::Integer(1), Value::Integer(2)]));
        assert!(call(EngineDialect::Postgres, "range", &[Value::Integer(3)]).unwrap().is_none());
    }

    #[test]
    fn has_column_privilege_listing18() {
        // DuckDB: true for garbage args; PostgreSQL: error.
        let garbage = [Value::Integer(1), Value::Integer(1), Value::Integer(1)];
        assert_eq!(
            call(EngineDialect::Duckdb, "has_column_privilege", &garbage).unwrap(),
            Some(Value::Boolean(true))
        );
        assert!(call(EngineDialect::Postgres, "has_column_privilege", &garbage).is_err());
    }

    #[test]
    fn coalesce_typing_matches_paper() {
        // COALESCE(1, 1.0): SQLite → integer 1; others → float 1.0.
        let args = [Value::Integer(1), Value::Float(1.0)];
        assert_eq!(
            call(EngineDialect::Sqlite, "coalesce", &args).unwrap(),
            Some(Value::Integer(1))
        );
        for d in [EngineDialect::Postgres, EngineDialect::Duckdb, EngineDialect::Mysql] {
            assert_eq!(call(d, "coalesce", &args).unwrap(), Some(Value::Float(1.0)), "{d}");
        }
        // COALESCE(1, 1) is integer 1 everywhere.
        let ints = [Value::Integer(1), Value::Integer(1)];
        for d in EngineDialect::ALL {
            assert_eq!(call(d, "coalesce", &ints).unwrap(), Some(Value::Integer(1)), "{d}");
        }
    }

    #[test]
    fn typeof_variants() {
        assert_eq!(
            call(EngineDialect::Sqlite, "typeof", &[Value::Text("x".into())]).unwrap(),
            Some(Value::Text("text".into()))
        );
        assert_eq!(
            call(EngineDialect::Duckdb, "typeof", &[Value::Text("x".into())]).unwrap(),
            Some(Value::Text("VARCHAR".into()))
        );
        assert!(call(EngineDialect::Postgres, "typeof", &[Value::Integer(1)]).unwrap().is_none());
    }

    #[test]
    fn string_functions() {
        assert_eq!(
            call(EngineDialect::Sqlite, "upper", &[Value::Text("abc".into())]).unwrap(),
            Some(Value::Text("ABC".into()))
        );
        assert_eq!(
            call(EngineDialect::Postgres, "length", &[Value::Text("héllo".into())]).unwrap(),
            Some(Value::Integer(5))
        );
        assert_eq!(
            call(
                EngineDialect::Sqlite,
                "substr",
                &[Value::Text("hello".into()), Value::Integer(2), Value::Integer(3)]
            )
            .unwrap(),
            Some(Value::Text("ell".into()))
        );
        assert_eq!(
            call(
                EngineDialect::Sqlite,
                "instr",
                &[Value::Text("hello".into()), Value::Text("ll".into())]
            )
            .unwrap(),
            Some(Value::Integer(3))
        );
    }

    #[test]
    fn null_propagation() {
        assert_eq!(
            call(EngineDialect::Sqlite, "upper", &[Value::Null]).unwrap(),
            Some(Value::Null)
        );
        assert_eq!(
            call(EngineDialect::Postgres, "abs", &[Value::Null]).unwrap(),
            Some(Value::Null)
        );
    }

    #[test]
    fn mysql_if_and_concat() {
        assert_eq!(
            call(
                EngineDialect::Mysql,
                "if",
                &[Value::Integer(1), Value::Text("y".into()), Value::Text("n".into())]
            )
            .unwrap(),
            Some(Value::Text("y".into()))
        );
        assert_eq!(
            call(EngineDialect::Mysql, "concat", &[Value::Text("a".into()), Value::Integer(1)])
                .unwrap(),
            Some(Value::Text("a1".into()))
        );
        // MySQL concat is NULL-propagating; PostgreSQL's skips NULLs.
        assert_eq!(
            call(EngineDialect::Mysql, "concat", &[Value::Null, Value::Text("x".into())]).unwrap(),
            Some(Value::Null)
        );
        assert_eq!(
            call(EngineDialect::Postgres, "concat", &[Value::Null, Value::Text("x".into())])
                .unwrap(),
            Some(Value::Text("x".into()))
        );
    }

    #[test]
    fn unknown_function_returns_none() {
        assert!(call(EngineDialect::Sqlite, "no_such_fn", &[]).unwrap().is_none());
    }

    #[test]
    fn aggregate_names() {
        assert!(is_aggregate(EngineDialect::Sqlite, "count"));
        assert!(is_aggregate(EngineDialect::Duckdb, "median"));
        assert!(!is_aggregate(EngineDialect::Postgres, "median"));
        assert!(is_aggregate(EngineDialect::Postgres, "string_agg"));
        assert!(!is_aggregate(EngineDialect::Sqlite, "string_agg"));
    }

    #[test]
    fn to_json_renders() {
        assert_eq!(
            call(EngineDialect::Postgres, "to_json", &[Value::Text("2014-05-28".into())]).unwrap(),
            Some(Value::Text("\"2014-05-28\"".into()))
        );
        assert!(call(EngineDialect::Duckdb, "to_json", &[Value::Integer(1)]).unwrap().is_none());
    }

    #[test]
    fn abs_overflow_errors() {
        let err = call(EngineDialect::Postgres, "abs", &[Value::Integer(i64::MIN)]).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Arithmetic);
    }

    #[test]
    fn registry_names_unique_per_dialect() {
        for d in EngineDialect::ALL {
            let names = scalar_function_names(d);
            let mut dedup = names.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), names.len(), "{d}: duplicate registry entries");
        }
    }
}
