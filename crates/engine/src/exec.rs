//! Query execution: FROM resolution, joins, grouping, set operations,
//! ordering, CTEs (including recursive ones with the paper's fault hooks).

use crate::dialect::EngineDialect;
use crate::env::{ColBinding, ExecStrategy, QueryEnv, Relation, Scope};
use crate::error::{EngineError, ErrorKind};
use crate::eval::{eval, AggCtx, Binder, EvalCtx};
use crate::faults::FaultId;
use crate::functions::is_aggregate;
use crate::value::{comparison_f64_bits, try_row_group_key, GroupKey, Value};
use squality_sqlast::ast::{
    BinaryOp, Cte, Expr, JoinKind, OrderItem, SelectCore, SelectItem, SelectStmt, SetExpr, SetOp,
    TableRef,
};
use std::collections::{HashMap, HashSet};

/// Execute a full query in the given environment, with an optional outer
/// scope for correlated subqueries.
pub fn run_query(
    q: &SelectStmt,
    env: &QueryEnv<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Relation, EngineError> {
    env.tick(1)?;
    let mut pushed = 0usize;
    if let Some(with) = &q.with {
        for cte in &with.ctes {
            let rel = materialize_cte(cte, with.recursive, env, outer)?;
            env.ctes.borrow_mut().push((cte.name.clone(), rel));
            pushed += 1;
        }
    }
    let result = run_body_ordered(q, env, outer);
    for _ in 0..pushed {
        env.ctes.borrow_mut().pop();
    }
    result
}

fn run_body_ordered(
    q: &SelectStmt,
    env: &QueryEnv<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Relation, EngineError> {
    // The extended order-source relation is only materialized when an
    // ORDER BY can actually reference it — otherwise every projected row
    // would be deep-copied a second time for nothing.
    let (mut rel, order_source) = run_set_expr(&q.body, env, outer, !q.order_by.is_empty())?;

    if !q.order_by.is_empty() {
        sort_relation(&mut rel, order_source.as_ref(), &q.order_by, env, outer)?;
    }

    // OFFSET / LIMIT.
    let offset = match &q.offset {
        Some(e) => eval_const_int(e, env, outer)?.max(0) as usize,
        None => 0,
    };
    if offset > 0 {
        env.cov_branch("query:offset");
        rel.rows.drain(..offset.min(rel.rows.len()));
    }
    if let Some(e) = &q.limit {
        let n = eval_const_int(e, env, outer)?;
        if n >= 0 {
            env.cov_branch("query:limit");
            rel.rows.truncate(n as usize);
        }
    }
    Ok(rel)
}

fn eval_const_int(
    e: &Expr,
    env: &QueryEnv<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<i64, EngineError> {
    let ctx = EvalCtx { env, scope: outer, agg: None, binder: None };
    let v = eval(e, &ctx)?;
    v.as_i64().ok_or_else(|| EngineError::syntax("LIMIT/OFFSET must be an integer"))
}

/// Evaluate a set-expression body. The second return value, when present,
/// is an "extended" relation (source columns + projection columns) whose
/// rows align 1:1 with the primary relation — it lets ORDER BY reference
/// un-projected source columns. It is built only when `want_order_source`
/// is set (i.e. an ORDER BY exists to consume it).
fn run_set_expr(
    body: &SetExpr,
    env: &QueryEnv<'_>,
    outer: Option<&Scope<'_>>,
    want_order_source: bool,
) -> Result<(Relation, Option<Relation>), EngineError> {
    match body {
        SetExpr::Select(core) => run_select_core(core, env, outer, want_order_source),
        SetExpr::Values(rows) => {
            env.cov_line("stmt:VALUES");
            let mut out = Relation::default();
            let width = rows.first().map(|r| r.len()).unwrap_or(0);
            out.cols = (1..=width).map(|i| ColBinding::bare(format!("column{i}"))).collect();
            for row_exprs in rows {
                env.tick(1)?;
                if row_exprs.len() != width {
                    return Err(EngineError::syntax(
                        "all VALUES rows must have the same number of terms",
                    ));
                }
                let ctx = EvalCtx { env, scope: outer, agg: None, binder: None };
                let mut row = Vec::with_capacity(width);
                for e in row_exprs {
                    row.push(eval(e, &ctx)?);
                }
                out.rows.push(row);
            }
            Ok((out, None))
        }
        SetExpr::Query(q) => Ok((run_query(q, env, outer)?, None)),
        SetExpr::SetOp { op, all, left, right } => {
            let (l, _) = run_set_expr(left, env, outer, false)?;
            let (r, _) = run_set_expr(right, env, outer, false)?;
            if l.cols.len() != r.cols.len() {
                return Err(EngineError::syntax(
                    "SELECTs to the left and right of a set operation do not have the same number of result columns",
                ));
            }
            env.cov_branch(setop_cov_key(*op, *all));
            let mut out = Relation::with_cols(l.cols.clone());
            match (op, all) {
                (SetOp::Union, true) => {
                    out.rows = l.rows;
                    out.rows.extend(r.rows);
                }
                (SetOp::Union, false) => {
                    out.rows = l.rows;
                    out.rows.extend(r.rows);
                    dedupe_rows(env, &mut out.rows);
                }
                (SetOp::Intersect, _) | (SetOp::Except, _) => {
                    // Keep the left rows that are (INTERSECT) / are not
                    // (EXCEPT) members of the right side. Membership uses
                    // grouping equality, so the hash path probes a set of
                    // grouping keys; left-to-right output order and the
                    // one-tick-per-left-row step cost match the scan. Any
                    // hash-unsafe cell (no grouping key) drops the whole
                    // operation back onto the scan.
                    let keep_if_member = *op == SetOp::Intersect;
                    let hashed = if env.strategy == ExecStrategy::Hash {
                        r.rows
                            .iter()
                            .map(|row| try_row_group_key(row))
                            .collect::<Option<HashSet<Vec<GroupKey>>>>()
                            .and_then(|right_keys| {
                                l.rows
                                    .iter()
                                    .map(|row| try_row_group_key(row))
                                    .collect::<Option<Vec<_>>>()
                                    .map(|left_keys| (right_keys, left_keys))
                            })
                    } else {
                        None
                    };
                    let mut rows = Vec::new();
                    match hashed {
                        Some((right_keys, left_keys)) => {
                            for (row, key) in l.rows.into_iter().zip(left_keys) {
                                env.tick(1)?;
                                if right_keys.contains(&key) == keep_if_member {
                                    rows.push(row);
                                }
                            }
                        }
                        None => {
                            for row in &l.rows {
                                env.tick(1)?;
                                let member = r.rows.iter().any(|other| rows_eq(row, other));
                                if member == keep_if_member {
                                    rows.push(row.clone());
                                }
                            }
                        }
                    }
                    if !*all {
                        dedupe_rows(env, &mut rows);
                    }
                    out.rows = rows;
                }
            }
            Ok((out, None))
        }
    }
}

fn setop_cov_key(op: SetOp, all: bool) -> &'static str {
    match (op, all) {
        (SetOp::Union, true) => "setop:Union:all",
        (SetOp::Union, false) => "setop:Union:distinct",
        (SetOp::Intersect, true) => "setop:Intersect:all",
        (SetOp::Intersect, false) => "setop:Intersect:distinct",
        (SetOp::Except, true) => "setop:Except:all",
        (SetOp::Except, false) => "setop:Except:distinct",
    }
}

fn rows_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.sql_grouping_eq(y))
}

/// Drop duplicate rows under grouping equality, keeping first occurrences
/// in order. The hash path and the retained linear-scan oracle produce
/// identical output (insertion-ordered in both); hash-unsafe cells fall
/// back to the scan.
fn dedupe_rows(env: &QueryEnv<'_>, rows: &mut Vec<Vec<Value>>) {
    if env.strategy == ExecStrategy::Hash {
        if let Some(keys) =
            rows.iter().map(|row| try_row_group_key(row)).collect::<Option<Vec<_>>>()
        {
            let mut seen: HashSet<Vec<GroupKey>> = HashSet::with_capacity(rows.len());
            let mut keys = keys.into_iter();
            rows.retain(|_| seen.insert(keys.next().expect("one key per row")));
            return;
        }
    }
    let mut seen: Vec<Vec<Value>> = Vec::new();
    rows.retain(|row| {
        if seen.iter().any(|s| rows_eq(s, row)) {
            false
        } else {
            seen.push(row.clone());
            true
        }
    });
}

fn run_select_core(
    core: &SelectCore,
    env: &QueryEnv<'_>,
    outer: Option<&Scope<'_>>,
    want_order_source: bool,
) -> Result<(Relation, Option<Relation>), EngineError> {
    env.cov_line("stmt:SELECT");
    validate_functions(core, env)?;

    // MySQL's exhaustive join-order search hang (paper §6 "Hangs"): joining
    // 40+ tables with the default optimizer_search_depth takes minutes.
    let table_count = count_base_tables(&core.from);
    if env.dialect == EngineDialect::Mysql
        && env.faults.is_enabled(FaultId::MysqlJoinSearchHang)
        && table_count > 40
        && env.config.get("optimizer_search_depth").map(|v| v != "0").unwrap_or(true)
    {
        return Err(EngineError::hang(
            "join-order enumeration exceeded time budget (optimizer_search_depth=62); \
             set optimizer_search_depth=0 to use a greedy order",
        ));
    }

    // FROM: fold the table list into one relation via cross products. The
    // first relation is taken as is: crossing it with the one-empty-row
    // seed would copy every row, so only the seed's per-row steps are
    // charged.
    let mut source: Option<Relation> = None;
    for tref in &core.from {
        let rel = relation_of(tref, env, outer)?;
        source = Some(match source {
            None => {
                for _ in &rel.rows {
                    env.tick(1)?;
                }
                rel
            }
            Some(left) => cross_product(env, left, rel)?,
        });
    }
    // One empty row, so a FROM-less SELECT yields 1 row.
    let mut source = source.unwrap_or(Relation { cols: Vec::new(), rows: vec![Vec::new()] });

    // WHERE. Rows move (not clone) from the source into the filtered set;
    // one binder serves every per-row evaluation of the predicate.
    let source_rows = std::mem::take(&mut source.rows);
    let filtered_rows = match &core.where_clause {
        Some(pred) => {
            let binder = Binder::new();
            let mut kept = Vec::with_capacity(source_rows.len());
            for row in source_rows {
                env.tick(1)?;
                let scope = Scope { cols: &source.cols, row: &row, parent: outer };
                let ctx = EvalCtx { env, scope: Some(&scope), agg: None, binder: Some(&binder) };
                let v = eval(pred, &ctx)?;
                let t = crate::value::truthiness(&v);
                if t == crate::value::Truth::True {
                    env.cov_branch("where:true");
                    kept.push(row);
                } else {
                    env.cov_branch("where:false");
                }
            }
            kept
        }
        None => source_rows,
    };

    let has_aggregates =
        core.projection.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => expr_has_aggregate(expr, env.dialect),
            _ => false,
        }) || core.having.as_ref().map(|h| expr_has_aggregate(h, env.dialect)).unwrap_or(false);

    let mut out;
    let mut order_source = None;

    if !core.group_by.is_empty() || has_aggregates {
        out = run_grouped(core, env, outer, &source.cols, &filtered_rows)?;
    } else {
        // Plain projection.
        let cols = projection_bindings(&core.projection, &source.cols)?;
        out = Relation::with_cols(cols);
        let want_extended = want_order_source && !core.distinct;
        let mut extended = want_extended.then(|| {
            Relation::with_cols(
                source.cols.iter().cloned().chain(out.cols.iter().cloned()).collect(),
            )
        });
        let binder = Binder::new();
        for row in &filtered_rows {
            env.tick(1)?;
            let scope = Scope { cols: &source.cols, row, parent: outer };
            let ctx = EvalCtx { env, scope: Some(&scope), agg: None, binder: Some(&binder) };
            let projected = project_row(&core.projection, &source.cols, row, &ctx)?;
            if let Some(extended) = &mut extended {
                let mut ext = row.clone();
                ext.extend(projected.iter().cloned());
                extended.rows.push(ext);
            }
            out.rows.push(projected);
        }
        order_source = extended;
    }

    if core.distinct {
        env.cov_branch("select:distinct");
        dedupe_rows(env, &mut out.rows);
    }

    Ok((out, order_source))
}

fn run_grouped(
    core: &SelectCore,
    env: &QueryEnv<'_>,
    outer: Option<&Scope<'_>>,
    cols: &[ColBinding],
    rows: &[Vec<Value>],
) -> Result<Relation, EngineError> {
    env.cov_branch("select:grouped");
    // One binder serves key evaluation, HAVING, and the projection: all of
    // them evaluate against scopes with the same layout (source columns,
    // same outer chain).
    let binder = Binder::new();

    // Compute groups as (key values, member row indices): members borrow
    // the filtered rows instead of deep-copying them. Keys are evaluated
    // for every row first (same tick sequence as the scan, which never
    // ticked while grouping), then grouped — hashed when every key is
    // hash-safe, by linear scan otherwise. Both fill groups in first-seen
    // order, so output order is identical.
    let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
    if core.group_by.is_empty() {
        // Implicit single group over all rows (even when empty).
        groups.push((Vec::new(), (0..rows.len()).collect()));
    } else {
        let mut row_keys: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
        for row in rows {
            env.tick(1)?;
            let scope = Scope { cols, row, parent: outer };
            let ctx = EvalCtx { env, scope: Some(&scope), agg: None, binder: Some(&binder) };
            let mut key = Vec::with_capacity(core.group_by.len());
            for g in &core.group_by {
                key.push(eval(g, &ctx)?);
            }
            row_keys.push(key);
        }
        let hash_keys = if env.strategy == ExecStrategy::Hash {
            row_keys.iter().map(|key| try_row_group_key(key)).collect::<Option<Vec<_>>>()
        } else {
            None
        };
        match hash_keys {
            Some(hash_keys) => {
                let mut index: HashMap<Vec<GroupKey>, usize> = HashMap::new();
                for (ri, (key, hkey)) in row_keys.into_iter().zip(hash_keys).enumerate() {
                    match index.entry(hkey) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            groups[*e.get()].1.push(ri);
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(groups.len());
                            groups.push((key, vec![ri]));
                        }
                    }
                }
            }
            None => {
                for (ri, key) in row_keys.into_iter().enumerate() {
                    match groups.iter_mut().find(|(k, _)| rows_eq(k, &key)) {
                        Some((_, members)) => members.push(ri),
                        None => groups.push((key, vec![ri])),
                    }
                }
            }
        }
    }

    let out_cols = projection_bindings(&core.projection, cols)?;
    let mut out = Relation::with_cols(out_cols);

    for (_, members) in &groups {
        env.tick(1)?;
        let member_rows: Vec<&[Value]> = members.iter().map(|&ri| rows[ri].as_slice()).collect();
        let rep_row: Vec<Value> = member_rows
            .first()
            .map(|r| r.to_vec())
            .unwrap_or_else(|| vec![Value::Null; cols.len()]);
        let scope = Scope { cols, row: &rep_row, parent: outer };
        let agg = AggCtx { cols, rows: &member_rows, outer };
        let ctx = EvalCtx { env, scope: Some(&scope), agg: Some(&agg), binder: Some(&binder) };

        if let Some(having) = &core.having {
            let v = eval(having, &ctx)?;
            if crate::value::truthiness(&v) != crate::value::Truth::True {
                env.cov_branch("having:false");
                continue;
            }
            env.cov_branch("having:true");
        }
        let projected = project_row(&core.projection, cols, &rep_row, &ctx)?;
        out.rows.push(projected);
    }
    Ok(out)
}

fn projection_bindings(
    projection: &[SelectItem],
    source_cols: &[ColBinding],
) -> Result<Vec<ColBinding>, EngineError> {
    let mut cols = Vec::new();
    for item in projection {
        match item {
            SelectItem::Wildcard => {
                if source_cols.is_empty() {
                    return Err(EngineError::syntax("SELECT * with no tables specified"));
                }
                cols.extend(source_cols.iter().cloned());
            }
            SelectItem::QualifiedWildcard(t) => {
                let mut any = false;
                for c in source_cols {
                    if c.qualifier.as_deref().map(|q| q.eq_ignore_ascii_case(t)).unwrap_or(false) {
                        cols.push(c.clone());
                        any = true;
                    }
                }
                if !any {
                    return Err(EngineError::catalog(format!("no such table: {t}")));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| derive_name(expr));
                cols.push(ColBinding::bare(name));
            }
        }
    }
    Ok(cols)
}

fn derive_name(expr: &Expr) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.clone(),
        _ => "?column?".to_string(),
    }
}

fn project_row(
    projection: &[SelectItem],
    source_cols: &[ColBinding],
    row: &[Value],
    ctx: &EvalCtx<'_>,
) -> Result<Vec<Value>, EngineError> {
    let mut out = Vec::new();
    for item in projection {
        match item {
            SelectItem::Wildcard => out.extend(row.iter().cloned()),
            SelectItem::QualifiedWildcard(t) => {
                for (i, c) in source_cols.iter().enumerate() {
                    if c.qualifier.as_deref().map(|q| q.eq_ignore_ascii_case(t)).unwrap_or(false) {
                        out.push(row[i].clone());
                    }
                }
            }
            SelectItem::Expr { expr, .. } => out.push(eval(expr, ctx)?),
        }
    }
    Ok(out)
}

// ---- FROM resolution ----------------------------------------------------

fn count_base_tables(from: &[TableRef]) -> usize {
    fn leaves(t: &TableRef) -> usize {
        match t {
            TableRef::Join { left, right, .. } => leaves(left) + leaves(right),
            _ => 1,
        }
    }
    from.iter().map(leaves).sum()
}

fn relation_of(
    tref: &TableRef,
    env: &QueryEnv<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Relation, EngineError> {
    match tref {
        TableRef::Named { name, alias } => {
            let binding = alias.as_deref().unwrap_or(name.as_str());
            // CTEs shadow tables.
            if let Some(rel) = env.cte(name) {
                env.cov_branch("from:cte");
                return Ok(requalify(rel, binding));
            }
            if let Some(table) = env.catalog.table(name) {
                env.cov_branch("from:table");
                env.tick(table.rows.len() as u64 + 1)?;
                let cols =
                    table.columns.iter().map(|c| ColBinding::qualified(binding, &c.name)).collect();
                return Ok(Relation { cols, rows: table.rows.clone() });
            }
            if let Some(view) = env.catalog.view(name) {
                env.cov_branch("from:view");
                let rel = run_query(&view.query, env, None)?;
                let renamed =
                    if view.columns.is_empty() { rel } else { rename_columns(rel, &view.columns)? };
                return Ok(requalify(renamed, binding));
            }
            Err(no_such_table(env.dialect, name))
        }
        TableRef::Subquery { query, alias } => {
            let rel = run_query(query, env, outer)?;
            Ok(match alias {
                Some(a) => requalify(rel, a),
                None => rel,
            })
        }
        TableRef::Function { name, args, alias } => {
            table_function(env, name, args, alias.as_deref(), outer)
        }
        TableRef::Join { left, right, kind, on, using } => {
            let l = relation_of(left, env, outer)?;
            let r = relation_of(right, env, outer)?;
            join(env, l, r, *kind, on.as_ref(), using, outer)
        }
    }
}

fn requalify(mut rel: Relation, binding: &str) -> Relation {
    for c in &mut rel.cols {
        c.qualifier = Some(binding.to_string());
    }
    rel
}

fn rename_columns(mut rel: Relation, names: &[String]) -> Result<Relation, EngineError> {
    if names.len() > rel.cols.len() {
        return Err(EngineError::syntax("too many column names specified"));
    }
    for (c, n) in rel.cols.iter_mut().zip(names) {
        c.name = n.clone();
    }
    Ok(rel)
}

fn no_such_table(dialect: EngineDialect, name: &str) -> EngineError {
    let msg = match dialect {
        EngineDialect::Sqlite => format!("no such table: {name}"),
        EngineDialect::Postgres => format!("relation \"{name}\" does not exist"),
        EngineDialect::Duckdb => {
            format!("Catalog Error: Table with name {name} does not exist!")
        }
        EngineDialect::Mysql => format!("Table 'main.{name}' doesn't exist"),
    };
    EngineError::catalog(msg)
}

/// Table-valued functions: `generate_series` (PostgreSQL, DuckDB, and
/// SQLite's extension — with the paper's Listing 16 overflow hang),
/// `range` (DuckDB), `unnest` (PostgreSQL/DuckDB).
fn table_function(
    env: &QueryEnv<'_>,
    name: &str,
    args: &[Expr],
    alias: Option<&str>,
    outer: Option<&Scope<'_>>,
) -> Result<Relation, EngineError> {
    let ctx = EvalCtx { env, scope: outer, agg: None, binder: None };
    let lname = name.to_lowercase();
    env.cov_line(format!("tablefn:{lname}"));
    match lname.as_str() {
        "generate_series" | "range" => {
            if lname == "range" && env.dialect != EngineDialect::Duckdb {
                return Err(no_such_table_function(env.dialect, name));
            }
            if lname == "generate_series" && env.dialect == EngineDialect::Mysql {
                return Err(no_such_table_function(env.dialect, name));
            }
            let mut vals = Vec::new();
            for a in args {
                vals.push(eval(a, &ctx)?);
            }
            let ints: Vec<i64> = vals.iter().filter_map(Value::as_i64).collect();
            if ints.len() != vals.len() || ints.is_empty() || ints.len() > 3 {
                return Err(EngineError::syntax(format!("invalid arguments to {name}()")));
            }
            let (start, stop_incl, step) = match ints.len() {
                1 => {
                    if lname == "range" {
                        (0, ints[0] - 1, 1) // range(n) is exclusive
                    } else {
                        (1, ints[0], 1)
                    }
                }
                2 => {
                    if lname == "range" {
                        (ints[0], ints[1] - 1, 1)
                    } else {
                        (ints[0], ints[1], 1)
                    }
                }
                _ => (ints[0], ints[1], ints[2]),
            };
            if step == 0 {
                return Err(EngineError::new(ErrorKind::Arithmetic, "step size cannot be 0"));
            }
            // Paper Listing 16: SQLite's generate_series extension hung on
            // i64::MAX bounds because the internal counter overflowed.
            if env.dialect == EngineDialect::Sqlite
                && env.faults.is_enabled(FaultId::SqliteGenerateSeriesOverflowHang)
                && (start == i64::MAX || stop_incl == i64::MAX)
            {
                return Err(EngineError::hang(
                    "generate_series counter overflow caused an infinite loop",
                ));
            }
            let col = match env.dialect {
                EngineDialect::Sqlite => "value",
                EngineDialect::Postgres => "generate_series",
                _ => {
                    if lname == "range" {
                        "range"
                    } else {
                        "generate_series"
                    }
                }
            };
            let mut rel =
                Relation::with_cols(vec![ColBinding::qualified(alias.unwrap_or(col), col)]);
            let mut i = start;
            loop {
                if (step > 0 && i > stop_incl) || (step < 0 && i < stop_incl) {
                    break;
                }
                env.tick(1)?;
                rel.rows.push(vec![Value::Integer(i)]);
                match i.checked_add(step) {
                    Some(next) => i = next,
                    None => break, // fixed engines saturate and stop
                }
            }
            Ok(rel)
        }
        "unnest" => {
            if !matches!(env.dialect, EngineDialect::Postgres | EngineDialect::Duckdb) {
                return Err(no_such_table_function(env.dialect, name));
            }
            let v = eval(
                args.first().ok_or_else(|| EngineError::syntax("unnest() requires an argument"))?,
                &ctx,
            )?;
            let mut rel = Relation::with_cols(vec![ColBinding::qualified(
                alias.unwrap_or("unnest"),
                "unnest",
            )]);
            if let Value::List(items) = v {
                for item in items {
                    env.tick(1)?;
                    rel.rows.push(vec![item]);
                }
            }
            Ok(rel)
        }
        _ => Err(no_such_table_function(env.dialect, name)),
    }
}

fn no_such_table_function(dialect: EngineDialect, name: &str) -> EngineError {
    let msg = match dialect {
        EngineDialect::Sqlite => format!("no such table: {name}"),
        EngineDialect::Postgres => format!("function {name} does not exist"),
        EngineDialect::Duckdb => {
            format!("Catalog Error: Table Function with name {name} does not exist!")
        }
        EngineDialect::Mysql => format!("FUNCTION {name} does not exist"),
    };
    EngineError::new(ErrorKind::UnknownFunction, msg)
}

// ---- joins ----------------------------------------------------------------

fn cross_product(
    env: &QueryEnv<'_>,
    left: Relation,
    right: Relation,
) -> Result<Relation, EngineError> {
    let mut cols = left.cols;
    cols.extend(right.cols);
    let mut rows = Vec::with_capacity(left.rows.len() * right.rows.len().max(1));
    for l in &left.rows {
        for r in &right.rows {
            env.tick(1)?;
            let mut row = l.clone();
            row.extend(r.iter().cloned());
            rows.push(row);
        }
    }
    Ok(Relation { cols, rows })
}

fn join(
    env: &QueryEnv<'_>,
    left: Relation,
    right: Relation,
    kind: JoinKind,
    on: Option<&Expr>,
    using: &[String],
    outer: Option<&Scope<'_>>,
) -> Result<Relation, EngineError> {
    env.cov_branch(join_cov_key(kind));
    let mut cols = left.cols.clone();
    cols.extend(right.cols.clone());

    // Equi-joins execute as build/probe hash joins when the plan proves
    // the rewrite unobservable (see `plan_hash_join`); everything else —
    // and the naive oracle strategy — takes the nested loop below.
    if env.strategy == ExecStrategy::Hash {
        if let Some(plan) = plan_hash_join(env, &left, &right, kind, on, using) {
            return hash_join(env, &left, &right, cols, kind, &plan);
        }
    }

    let on_binder = Binder::new();
    let match_pred = |lrow: &[Value], rrow: &[Value]| -> Result<bool, EngineError> {
        if !using.is_empty() {
            for u in using {
                let li = left
                    .cols
                    .iter()
                    .position(|c| c.name.eq_ignore_ascii_case(u))
                    .ok_or_else(|| EngineError::catalog(format!("no such column: {u}")))?;
                let ri = right
                    .cols
                    .iter()
                    .position(|c| c.name.eq_ignore_ascii_case(u))
                    .ok_or_else(|| EngineError::catalog(format!("no such column: {u}")))?;
                let eq = crate::eval::sql_compare(env.dialect, &lrow[li], &rrow[ri])?;
                if eq != crate::value::Truth::True {
                    return Ok(false);
                }
            }
            return Ok(true);
        }
        match on {
            None => Ok(true), // bare JOIN without ON behaves as CROSS
            Some(pred) => {
                let mut row = lrow.to_vec();
                row.extend(rrow.iter().cloned());
                let scope = Scope { cols: &cols, row: &row, parent: outer };
                let ctx = EvalCtx { env, scope: Some(&scope), agg: None, binder: Some(&on_binder) };
                let v = eval(pred, &ctx)?;
                Ok(crate::value::truthiness(&v) == crate::value::Truth::True)
            }
        }
    };

    let mut rows = Vec::new();
    let mut right_matched = vec![false; right.rows.len()];

    for lrow in &left.rows {
        let mut matched = false;
        if kind == JoinKind::Cross {
            for rrow in &right.rows {
                env.tick(1)?;
                let mut row = lrow.clone();
                row.extend(rrow.iter().cloned());
                rows.push(row);
            }
            continue;
        }
        for (ri, rrow) in right.rows.iter().enumerate() {
            env.tick(1)?;
            if match_pred(lrow, rrow)? {
                matched = true;
                right_matched[ri] = true;
                let mut row = lrow.clone();
                row.extend(rrow.iter().cloned());
                rows.push(row);
            }
        }
        if !matched && matches!(kind, JoinKind::Left | JoinKind::Full) {
            let mut row = lrow.clone();
            row.extend(std::iter::repeat_n(Value::Null, right.cols.len()));
            rows.push(row);
        }
    }
    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        for (ri, rrow) in right.rows.iter().enumerate() {
            if !right_matched[ri] {
                let mut row: Vec<Value> =
                    std::iter::repeat_n(Value::Null, left.cols.len()).collect();
                row.extend(rrow.iter().cloned());
                rows.push(row);
            }
        }
    }
    Ok(Relation { cols, rows })
}

fn join_cov_key(kind: JoinKind) -> &'static str {
    match kind {
        JoinKind::Inner => "join:Inner",
        JoinKind::Left => "join:Left",
        JoinKind::Right => "join:Right",
        JoinKind::Full => "join:Full",
        JoinKind::Cross => "join:Cross",
        JoinKind::AsOf => "join:AsOf",
    }
}

/// A proven-safe hash-join execution plan for one join node.
struct HashJoinPlan {
    /// Equi-key column pairs: (index into left cols, index into right cols).
    keys: Vec<(usize, usize)>,
    /// Case-fold text keys (MySQL's case-insensitive comparison collation).
    fold_text_case: bool,
    /// Steps the nested loop would consume per (left, right) row pair —
    /// replayed in O(1) per left row so the hang-budget behaviour of a
    /// statement does not depend on the execution strategy.
    pair_ticks: u64,
    /// The nested loop would have evaluated an `=` expression per pair;
    /// emit its (set-semantics) coverage point once if any pair exists.
    covers_eq_op: bool,
}

/// Decide whether this join can run as a build/probe hash join *without
/// any observable difference* from the nested loop. Returns `None` — fall
/// back to the nested loop — unless all of the following hold:
///
/// * the join kind is INNER/LEFT/RIGHT/FULL (CROSS and AsOf keep their
///   existing paths);
/// * the predicate is `USING(col, ...)`, or `ON` is a single
///   `column = column` conjunct with one side resolving (unambiguously)
///   into each input — multi-conjunct `AND`s fall back because their
///   short-circuit coverage and step accounting are data-dependent;
/// * every key column is class-homogeneous across both inputs (all
///   numeric, all text, or all blob, NULLs aside, NaN-free): mixed-class
///   key pairs hit the dialect's text-vs-number coercion/error semantics,
///   which only the row-at-a-time comparison reproduces.
///
/// Resolution failures (unknown/ambiguous columns) also fall back, so the
/// nested loop raises exactly the error it always raised.
fn plan_hash_join(
    env: &QueryEnv<'_>,
    left: &Relation,
    right: &Relation,
    kind: JoinKind,
    on: Option<&Expr>,
    using: &[String],
) -> Option<HashJoinPlan> {
    if !matches!(kind, JoinKind::Inner | JoinKind::Left | JoinKind::Right | JoinKind::Full) {
        return None;
    }
    let mut plan = HashJoinPlan {
        keys: Vec::new(),
        fold_text_case: env.dialect == EngineDialect::Mysql,
        pair_ticks: 1, // the nested loop's own tick per pair
        covers_eq_op: false,
    };
    if !using.is_empty() {
        for u in using {
            let li = left.cols.iter().position(|c| c.name.eq_ignore_ascii_case(u))?;
            let ri = right.cols.iter().position(|c| c.name.eq_ignore_ascii_case(u))?;
            plan.keys.push((li, ri));
        }
    } else {
        let Some(Expr::Binary { left: le, op: BinaryOp::Eq, right: re }) = on else {
            return None;
        };
        let a = resolve_join_column(left, right, le)?;
        let b = resolve_join_column(left, right, re)?;
        let (li, ri) = match (a, b) {
            (JoinSide::Left(li), JoinSide::Right(ri))
            | (JoinSide::Right(ri), JoinSide::Left(li)) => (li, ri),
            _ => return None, // both keys on one side: a filter, not a join key
        };
        plan.keys.push((li, ri));
        // eval(Binary) + eval(Column) + eval(Column) = 3 ticks per pair.
        plan.pair_ticks += 3;
        plan.covers_eq_op = true;
    }
    for &(li, ri) in &plan.keys {
        let lc = key_class(&left.rows, li)?;
        let rc = key_class(&right.rows, ri)?;
        match (lc, rc) {
            (Some(a), Some(b)) if a != b => return None,
            _ => {}
        }
    }
    Some(plan)
}

/// Which input relation a column reference lands in.
enum JoinSide {
    Left(usize),
    Right(usize),
}

/// Resolve an ON-clause operand the way the per-pair `Scope` would: it
/// must be a plain column reference matching exactly one column of the
/// concatenated layout (ambiguity or resolution through an outer scope
/// falls back to the nested loop, preserving error/correlation semantics).
fn resolve_join_column(left: &Relation, right: &Relation, e: &Expr) -> Option<JoinSide> {
    let Expr::Column { table, name } = e else {
        return None;
    };
    let mut found: Option<usize> = None;
    for (i, c) in left.cols.iter().chain(right.cols.iter()).enumerate() {
        if c.matches(table.as_deref(), name) {
            if found.is_some() {
                return None; // ambiguous (qualified refs can shadow too)
            }
            found = Some(i);
        }
    }
    let i = found?;
    Some(if i < left.cols.len() { JoinSide::Left(i) } else { JoinSide::Right(i - left.cols.len()) })
}

/// Storage class of a join-key column.
#[derive(Clone, Copy, PartialEq, Eq)]
enum KeyClass {
    Num,
    Text,
    Blob,
}

/// Classify a key column: `Some(Some(class))` — uniform non-NULL class;
/// `Some(None)` — empty or all NULL; `None` — unsafe to hash (mixed
/// classes, nested values, or NaN).
fn key_class(rows: &[Vec<Value>], idx: usize) -> Option<Option<KeyClass>> {
    let mut class: Option<KeyClass> = None;
    for row in rows {
        let c = match &row[idx] {
            Value::Null => continue,
            Value::Integer(_) | Value::Boolean(_) => KeyClass::Num,
            Value::Float(f) if !f.is_nan() => KeyClass::Num,
            Value::Float(_) => return None,
            Value::Text(_) => KeyClass::Text,
            Value::Blob(_) => KeyClass::Blob,
            Value::List(_) | Value::Struct(_) => return None,
        };
        match class {
            None => class = Some(c),
            Some(prev) if prev != c => return None,
            Some(_) => {}
        }
    }
    Some(class)
}

/// The comparison key of one join side's row, or `None` when any key
/// column is NULL (NULL keys never satisfy an equality predicate, exactly
/// as the three-valued comparison decides).
///
/// Join keys follow `sql_compare` — not grouping — semantics: *every*
/// numeric pair (integer–integer included) compares as f64 there, so
/// numerics key by comparison bit pattern. NaN and nested values never
/// reach here (`key_class` rejects them at plan time).
fn join_key(
    row: &[Value],
    key_cols: impl Iterator<Item = usize>,
    fold_case: bool,
) -> Option<Vec<GroupKey>> {
    let mut key = Vec::new();
    for idx in key_cols {
        let k = match &row[idx] {
            Value::Null => return None,
            v @ (Value::Integer(_) | Value::Float(_) | Value::Boolean(_)) => {
                GroupKey::Number(comparison_f64_bits(v.as_f64().expect("numeric")))
            }
            Value::Text(s) if fold_case => GroupKey::Text(s.to_lowercase().into()),
            Value::Text(s) => GroupKey::Text(std::sync::Arc::clone(s)),
            Value::Blob(b) => GroupKey::Blob(b.clone()),
            Value::List(_) | Value::Struct(_) => return None, // plan-excluded
        };
        key.push(k);
    }
    Some(key)
}

/// Build/probe execution of a planned equi-join. Builds on the right
/// input, probes left rows in order, and emits matches in right-row order
/// per probe — the exact output order of the nested loop — while replaying
/// the loop's step costs in O(1) per left row.
fn hash_join(
    env: &QueryEnv<'_>,
    left: &Relation,
    right: &Relation,
    cols: Vec<ColBinding>,
    kind: JoinKind,
    plan: &HashJoinPlan,
) -> Result<Relation, EngineError> {
    if plan.covers_eq_op && !left.rows.is_empty() && !right.rows.is_empty() {
        // The nested loop would have evaluated the `=` at least once.
        env.cov_line(crate::eval::op_cov_key(BinaryOp::Eq));
    }
    let mut table: HashMap<Vec<GroupKey>, Vec<usize>> = HashMap::with_capacity(right.rows.len());
    for (ri, rrow) in right.rows.iter().enumerate() {
        if let Some(key) = join_key(rrow, plan.keys.iter().map(|&(_, r)| r), plan.fold_text_case) {
            table.entry(key).or_default().push(ri);
        }
    }

    let per_left_ticks = plan.pair_ticks * right.rows.len() as u64;
    let mut rows = Vec::new();
    let mut right_matched = vec![false; right.rows.len()];
    for lrow in &left.rows {
        env.tick(per_left_ticks)?;
        let mut matched = false;
        if let Some(key) = join_key(lrow, plan.keys.iter().map(|&(l, _)| l), plan.fold_text_case) {
            if let Some(ris) = table.get(&key) {
                for &ri in ris {
                    matched = true;
                    right_matched[ri] = true;
                    let mut row = lrow.clone();
                    row.extend(right.rows[ri].iter().cloned());
                    rows.push(row);
                }
            }
        }
        if !matched && matches!(kind, JoinKind::Left | JoinKind::Full) {
            let mut row = lrow.clone();
            row.extend(std::iter::repeat_n(Value::Null, right.cols.len()));
            rows.push(row);
        }
    }
    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        for (ri, rrow) in right.rows.iter().enumerate() {
            if !right_matched[ri] {
                let mut row: Vec<Value> =
                    std::iter::repeat_n(Value::Null, left.cols.len()).collect();
                row.extend(rrow.iter().cloned());
                rows.push(row);
            }
        }
    }
    Ok(Relation { cols, rows })
}

// ---- ORDER BY --------------------------------------------------------------

fn sort_relation(
    rel: &mut Relation,
    order_source: Option<&Relation>,
    order_by: &[OrderItem],
    env: &QueryEnv<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<(), EngineError> {
    // Decide default NULL placement: explicit NULLS FIRST/LAST wins; DuckDB
    // honours its default_null_order setting (the paper's Configurations
    // failure shows what happens when that SET fails on another engine).
    let dialect_nulls_smallest = match env.dialect {
        EngineDialect::Duckdb => env
            .config
            .get("default_null_order")
            .map(|v| v.eq_ignore_ascii_case("nulls_first"))
            .unwrap_or(false),
        d => d.default_nulls_smallest(),
    };

    // Precompute sort keys per row, binding expression references once for
    // the whole pass (every row evaluates against the same layout).
    let binder = Binder::new();
    let mut keys: Vec<Vec<Value>> = Vec::with_capacity(rel.rows.len());
    for (idx, row) in rel.rows.iter().enumerate() {
        env.tick(1)?;
        let mut key_row = Vec::with_capacity(order_by.len());
        for item in order_by {
            let v = order_key_value(item, rel, order_source, idx, row, env, outer, &binder)?;
            key_row.push(v);
        }
        keys.push(key_row);
    }

    let mut indices: Vec<usize> = (0..rel.rows.len()).collect();
    indices.sort_by(|&a, &b| {
        for (k, item) in order_by.iter().enumerate() {
            let (x, y) = (&keys[a][k], &keys[b][k]);
            // Explicit NULLS FIRST/LAST overrides the default for ASC; the
            // default flips for DESC (matching PostgreSQL semantics).
            let nulls_smallest = match item.nulls_first {
                Some(first) => first != item.desc, // normalize to pre-reverse order
                None => dialect_nulls_smallest,
            };
            let mut ord = x.total_cmp(y, nulls_smallest);
            if item.desc {
                ord = ord.reverse();
            }
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });

    rel.rows = indices.into_iter().map(|i| std::mem::take(&mut rel.rows[i])).collect();
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn order_key_value(
    item: &OrderItem,
    rel: &Relation,
    order_source: Option<&Relation>,
    row_idx: usize,
    row: &[Value],
    env: &QueryEnv<'_>,
    outer: Option<&Scope<'_>>,
    binder: &Binder,
) -> Result<Value, EngineError> {
    // Ordinal reference: ORDER BY 2.
    if let Expr::Literal(squality_sqlast::ast::Literal::Integer(n)) = &item.expr {
        let i = *n;
        if i >= 1 && (i as usize) <= rel.cols.len() {
            return Ok(row[i as usize - 1].clone());
        }
        return Err(EngineError::syntax(format!("ORDER BY position {i} is not in select list")));
    }
    // Alias reference into the projection.
    if let Expr::Column { table: None, name } = &item.expr {
        if let Some(i) = rel.cols.iter().position(|c| c.name.eq_ignore_ascii_case(name)) {
            return Ok(row[i].clone());
        }
    }
    // General expression against the extended source row when available.
    // Exactly one of the two layouts below is used for a given sort pass,
    // so the shared binder stays layout-consistent.
    if let Some(src) = order_source {
        let src_row = &src.rows[row_idx];
        let scope = Scope { cols: &src.cols, row: src_row, parent: outer };
        let ctx = EvalCtx { env, scope: Some(&scope), agg: None, binder: Some(binder) };
        return eval(&item.expr, &ctx);
    }
    let scope = Scope { cols: &rel.cols, row, parent: outer };
    let ctx = EvalCtx { env, scope: Some(&scope), agg: None, binder: Some(binder) };
    eval(&item.expr, &ctx)
}

// ---- CTEs -------------------------------------------------------------------

fn materialize_cte(
    cte: &Cte,
    recursive: bool,
    env: &QueryEnv<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Relation, EngineError> {
    let is_self_recursive = recursive && set_expr_references(&cte.query.body, &cte.name);
    if !is_self_recursive {
        env.cov_branch("cte:plain");
        let rel = run_query(&cte.query, env, outer)?;
        return finish_cte_columns(rel, cte);
    }
    env.cov_branch("cte:recursive");

    // Split UNION [ALL] into base and recursive arms.
    let SetExpr::SetOp { op: SetOp::Union, all, left, right } = &cte.query.body else {
        return Err(EngineError::syntax(
            "recursive CTE must be of the form base UNION [ALL] recursive",
        ));
    };

    // Paper Listing 14 (CVE-2024-20962): MySQL crashed when the recursive
    // arm was itself a nested set operation.
    let recursive_arm_is_setop = matches!(unwrap_query(right), SetExpr::SetOp { .. });
    if env.dialect == EngineDialect::Mysql
        && env.faults.is_enabled(FaultId::MysqlRecursiveCteCrash)
        && recursive_arm_is_setop
        && set_expr_references(right, &cte.name)
    {
        return Err(EngineError::fatal(
            "server crash in FollowTailIterator::Read() while executing recursive CTE \
             (CVE-2024-20962)",
        ));
    }

    // Self-reference inside a subquery expression: rejected by PostgreSQL,
    // MySQL, and SQLite; deliberately allowed by DuckDB (paper Listing 15),
    // where it loops until the step budget calls it a hang.
    if self_ref_in_subquery_set(right, &cte.name) && !env.dialect.allows_recursive_ref_in_subquery()
    {
        return Err(EngineError::syntax(format!(
            "recursive reference to query \"{}\" must not appear within a subquery",
            cte.name
        )));
    }

    // Evaluate the base arm with the CTE not yet bound.
    let base = run_set_query(left, env, outer)?;
    let mut result = finish_cte_columns(base, cte)?;
    let mut working = result.clone();

    // UNION DISTINCT fixpoints keep a hash set of every accumulated row so
    // each step is O(step) instead of O(result × step). The naive oracle
    // keeps the original scan, and a hash-unsafe row (no grouping key)
    // permanently degrades the set back to that scan. Both check a step's
    // rows against the rows accumulated *before* the step (in-step
    // duplicates survive, as ever).
    let mut seen: Option<HashSet<Vec<GroupKey>>> = if !*all && env.strategy == ExecStrategy::Hash {
        result.rows.iter().map(|r| try_row_group_key(r)).collect::<Option<HashSet<_>>>()
    } else {
        None
    };

    loop {
        env.tick(working.rows.len() as u64 + 1)?;
        if working.rows.is_empty() {
            break;
        }
        // Bind the working table and evaluate the recursive arm.
        env.ctes.borrow_mut().push((cte.name.clone(), working.clone()));
        let step = run_set_query(right, env, outer);
        env.ctes.borrow_mut().pop();
        let step = finish_cte_columns(step?, cte)?;

        let mut new_rows = Vec::new();
        for row in step.rows {
            let fresh = if *all {
                true
            } else {
                let probed =
                    seen.as_ref().and_then(|s| try_row_group_key(&row).map(|k| !s.contains(&k)));
                match probed {
                    Some(fresh) => fresh,
                    None => {
                        seen = None; // unsafe row: scan from here on
                        !result.rows.iter().any(|r| rows_eq(r, &row))
                    }
                }
            };
            if fresh {
                new_rows.push(row);
            }
        }
        if new_rows.is_empty() {
            break;
        }
        if let Some(set) = &mut seen {
            for row in &new_rows {
                match try_row_group_key(row) {
                    Some(k) => {
                        set.insert(k);
                    }
                    None => unreachable!("unsafe rows cleared `seen` during admission"),
                }
            }
        }
        result.rows.extend(new_rows.iter().cloned());
        working = Relation { cols: result.cols.clone(), rows: new_rows };
    }
    Ok(result)
}

fn unwrap_query(body: &SetExpr) -> &SetExpr {
    match body {
        SetExpr::Query(q) if q.order_by.is_empty() && q.limit.is_none() => &q.body,
        other => other,
    }
}

fn run_set_query(
    body: &SetExpr,
    env: &QueryEnv<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Relation, EngineError> {
    let (rel, _) = run_set_expr(body, env, outer, false)?;
    Ok(rel)
}

fn finish_cte_columns(rel: Relation, cte: &Cte) -> Result<Relation, EngineError> {
    if cte.columns.is_empty() {
        Ok(rel)
    } else {
        if cte.columns.len() != rel.cols.len() {
            return Err(EngineError::syntax(format!("CTE {} column count mismatch", cte.name)));
        }
        rename_columns(rel, &cte.columns)
    }
}

/// Plan-time function resolution: unknown scalar functions error even when
/// the query processes zero rows, matching real DBMS planners.
fn validate_functions(core: &SelectCore, env: &QueryEnv<'_>) -> Result<(), EngineError> {
    let mut check = Ok(());
    let mut visit = |name: &str| {
        if check.is_err() {
            return;
        }
        if !is_aggregate(env.dialect, name) && !crate::functions::scalar_exists(env, name) {
            check = Err(crate::eval::unknown_function_error(env.dialect, name));
        }
    };
    let exprs = core
        .projection
        .iter()
        .filter_map(|i| match i {
            SelectItem::Expr { expr, .. } => Some(expr),
            _ => None,
        })
        .chain(core.where_clause.iter())
        .chain(core.group_by.iter())
        .chain(core.having.iter());
    for e in exprs {
        for_each_function(e, &mut visit);
    }
    check
}

/// Visit every function name in an expression tree (not descending into
/// subqueries, which are validated when they run).
fn for_each_function(expr: &Expr, f: &mut impl FnMut(&str)) {
    match expr {
        Expr::Function { name, args, .. } => {
            f(name);
            for a in args {
                for_each_function(a, f);
            }
        }
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
            for_each_function(expr, f)
        }
        Expr::Binary { left, right, .. } | Expr::IsDistinctFrom { left, right, .. } => {
            for_each_function(left, f);
            for_each_function(right, f);
        }
        Expr::Case { operand, branches, else_branch } => {
            if let Some(e) = operand {
                for_each_function(e, f);
            }
            for (c, r) in branches {
                for_each_function(c, f);
                for_each_function(r, f);
            }
            if let Some(e) = else_branch {
                for_each_function(e, f);
            }
        }
        Expr::InList { expr, list, .. } => {
            for_each_function(expr, f);
            for e in list {
                for_each_function(e, f);
            }
        }
        Expr::Between { expr, low, high, .. } => {
            for_each_function(expr, f);
            for_each_function(low, f);
            for_each_function(high, f);
        }
        Expr::Like { expr, pattern, .. } => {
            for_each_function(expr, f);
            for_each_function(pattern, f);
        }
        Expr::Row(items) | Expr::Array(items) => {
            for e in items {
                for_each_function(e, f);
            }
        }
        Expr::Struct(fields) => {
            for (_, e) in fields {
                for_each_function(e, f);
            }
        }
        Expr::InSubquery { expr, .. } => for_each_function(expr, f),
        _ => {}
    }
}

// ---- AST walkers -------------------------------------------------------------

/// Does this expression tree contain an aggregate call (at this level, not
/// inside subqueries)?
pub fn expr_has_aggregate(expr: &Expr, dialect: EngineDialect) -> bool {
    match expr {
        Expr::Function { name, args, .. } => {
            is_aggregate(dialect, name) || args.iter().any(|a| expr_has_aggregate(a, dialect))
        }
        Expr::Unary { expr, .. } => expr_has_aggregate(expr, dialect),
        Expr::Binary { left, right, .. } => {
            expr_has_aggregate(left, dialect) || expr_has_aggregate(right, dialect)
        }
        Expr::Cast { expr, .. } => expr_has_aggregate(expr, dialect),
        Expr::Case { operand, branches, else_branch } => {
            operand.as_ref().map(|e| expr_has_aggregate(e, dialect)).unwrap_or(false)
                || branches
                    .iter()
                    .any(|(c, r)| expr_has_aggregate(c, dialect) || expr_has_aggregate(r, dialect))
                || else_branch.as_ref().map(|e| expr_has_aggregate(e, dialect)).unwrap_or(false)
        }
        Expr::IsNull { expr, .. } => expr_has_aggregate(expr, dialect),
        Expr::IsDistinctFrom { left, right, .. } => {
            expr_has_aggregate(left, dialect) || expr_has_aggregate(right, dialect)
        }
        Expr::InList { expr, list, .. } => {
            expr_has_aggregate(expr, dialect) || list.iter().any(|e| expr_has_aggregate(e, dialect))
        }
        Expr::Between { expr, low, high, .. } => {
            expr_has_aggregate(expr, dialect)
                || expr_has_aggregate(low, dialect)
                || expr_has_aggregate(high, dialect)
        }
        Expr::Like { expr, pattern, .. } => {
            expr_has_aggregate(expr, dialect) || expr_has_aggregate(pattern, dialect)
        }
        Expr::Row(items) | Expr::Array(items) => {
            items.iter().any(|e| expr_has_aggregate(e, dialect))
        }
        Expr::Struct(fields) => fields.iter().any(|(_, e)| expr_has_aggregate(e, dialect)),
        Expr::InSubquery { expr, .. } => expr_has_aggregate(expr, dialect),
        _ => false,
    }
}

/// Does a set-expression reference `name` as a FROM relation anywhere?
pub fn set_expr_references(body: &SetExpr, name: &str) -> bool {
    match body {
        SetExpr::Select(core) => core.from.iter().any(|t| tref_references(t, name)),
        SetExpr::Values(_) => false,
        SetExpr::Query(q) => set_expr_references(&q.body, name),
        SetExpr::SetOp { left, right, .. } => {
            set_expr_references(left, name) || set_expr_references(right, name)
        }
    }
}

fn tref_references(t: &TableRef, name: &str) -> bool {
    match t {
        TableRef::Named { name: n, .. } => n.eq_ignore_ascii_case(name),
        TableRef::Subquery { query, .. } => set_expr_references(&query.body, name),
        TableRef::Function { .. } => false,
        TableRef::Join { left, right, .. } => {
            tref_references(left, name) || tref_references(right, name)
        }
    }
}

/// Does the recursive arm reference the CTE inside a *subquery expression*
/// (IN/EXISTS/scalar), as opposed to its FROM clause?
fn self_ref_in_subquery_set(body: &SetExpr, name: &str) -> bool {
    match body {
        SetExpr::Select(core) => {
            let exprs = core
                .projection
                .iter()
                .filter_map(|i| match i {
                    SelectItem::Expr { expr, .. } => Some(expr),
                    _ => None,
                })
                .chain(core.where_clause.iter())
                .chain(core.group_by.iter())
                .chain(core.having.iter());
            for e in exprs {
                if expr_has_subquery_ref(e, name) {
                    return true;
                }
            }
            false
        }
        SetExpr::Values(_) => false,
        SetExpr::Query(q) => self_ref_in_subquery_set(&q.body, name),
        SetExpr::SetOp { left, right, .. } => {
            self_ref_in_subquery_set(left, name) || self_ref_in_subquery_set(right, name)
        }
    }
}

fn expr_has_subquery_ref(expr: &Expr, name: &str) -> bool {
    match expr {
        Expr::Subquery(q) => set_expr_references(&q.body, name),
        Expr::InSubquery { expr, query, .. } => {
            set_expr_references(&query.body, name) || expr_has_subquery_ref(expr, name)
        }
        Expr::Exists { query, .. } => set_expr_references(&query.body, name),
        Expr::Unary { expr, .. } => expr_has_subquery_ref(expr, name),
        Expr::Binary { left, right, .. } => {
            expr_has_subquery_ref(left, name) || expr_has_subquery_ref(right, name)
        }
        Expr::Cast { expr, .. } => expr_has_subquery_ref(expr, name),
        Expr::Case { operand, branches, else_branch } => {
            operand.as_ref().map(|e| expr_has_subquery_ref(e, name)).unwrap_or(false)
                || branches
                    .iter()
                    .any(|(c, r)| expr_has_subquery_ref(c, name) || expr_has_subquery_ref(r, name))
                || else_branch.as_ref().map(|e| expr_has_subquery_ref(e, name)).unwrap_or(false)
        }
        Expr::IsNull { expr, .. } => expr_has_subquery_ref(expr, name),
        Expr::InList { expr, list, .. } => {
            expr_has_subquery_ref(expr, name) || list.iter().any(|e| expr_has_subquery_ref(e, name))
        }
        Expr::Between { expr, low, high, .. } => {
            expr_has_subquery_ref(expr, name)
                || expr_has_subquery_ref(low, name)
                || expr_has_subquery_ref(high, name)
        }
        Expr::Like { expr, pattern, .. } => {
            expr_has_subquery_ref(expr, name) || expr_has_subquery_ref(pattern, name)
        }
        Expr::Row(items) | Expr::Array(items) => {
            items.iter().any(|e| expr_has_subquery_ref(e, name))
        }
        Expr::Struct(fields) => fields.iter().any(|(_, e)| expr_has_subquery_ref(e, name)),
        _ => false,
    }
}
