//! Expression evaluation with per-dialect semantics.
//!
//! This module is where the paper's "Semantic" incompatibility class comes
//! from: the same expression, evaluated under different
//! [`EngineDialect`]s, legitimately produces
//! different values (`/` division, `||`, COALESCE typing, row-value
//! comparisons with NULL, text coercion rules).

use crate::dialect::EngineDialect;
use crate::env::{ColBinding, QueryEnv, Scope};
use crate::error::{EngineError, ErrorKind};
use crate::functions::{call_scalar, is_aggregate, render_plain};
use crate::types::{resolve_type, DataType};
use crate::value::{parse_leading_number, truthiness, Truth, Value};
use squality_sqlast::ast::{BinaryOp, Expr, Literal, UnaryOp};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Aggregate-evaluation context: the rows of the current group (borrowed
/// from the source relation — grouping no longer deep-copies member rows).
pub struct AggCtx<'a> {
    pub cols: &'a [ColBinding],
    pub rows: &'a [&'a [Value]],
    pub outer: Option<&'a Scope<'a>>,
}

/// Full evaluation context.
pub struct EvalCtx<'a> {
    pub env: &'a QueryEnv<'a>,
    pub scope: Option<&'a Scope<'a>>,
    pub agg: Option<&'a AggCtx<'a>>,
    /// Expression binder shared by every row of one scan loop; `None`
    /// falls back to per-row name resolution.
    pub binder: Option<&'a Binder>,
}

impl<'a> EvalCtx<'a> {
    /// Context with only an environment (constant expressions).
    pub fn constant(env: &'a QueryEnv<'a>) -> EvalCtx<'a> {
        EvalCtx { env, scope: None, agg: None, binder: None }
    }
}

/// Per-scan-loop expression binder.
///
/// A scan loop (WHERE filter, projection, grouped evaluation, join
/// predicate, ORDER BY keys, UPDATE/DELETE predicates) evaluates the same
/// expression tree once per row against scopes whose *column layouts* never
/// change — only the row data does. The binder exploits that: the first row
/// resolves each `Expr::Column` via the usual outward name walk and caches
/// the resulting `(scope depth, column index)` under the AST node's
/// address; every later row is one pointer-keyed hash probe plus an indexed
/// load, with no `eq_ignore_ascii_case` scans. LIKE patterns built from
/// literals are compiled once per loop the same way.
///
/// A binder must only be shared across evaluations whose scope chain
/// layout is identical (the loop owning it guarantees that); AST nodes are
/// pinned by the `Arc<Stmt>` plan for the whole execution, so node
/// addresses are stable keys.
#[derive(Default)]
pub struct Binder {
    slots: RefCell<HashMap<usize, Slot>>,
}

#[derive(Clone)]
enum Slot {
    /// Cached column resolution (or its stable resolution error).
    Col(Result<(u32, usize), EngineError>),
    /// Compiled LIKE pattern for a literal pattern expression.
    Like(Rc<LikePattern>),
}

impl Binder {
    /// Fresh binder for one scan loop.
    pub fn new() -> Binder {
        Binder::default()
    }

    fn col(
        &self,
        key: usize,
        resolve: impl FnOnce() -> Result<(u32, usize), EngineError>,
    ) -> Result<(u32, usize), EngineError> {
        if let Some(Slot::Col(r)) = self.slots.borrow().get(&key) {
            return r.clone();
        }
        let r = resolve();
        self.slots.borrow_mut().insert(key, Slot::Col(r.clone()));
        r
    }

    fn like(&self, key: usize, compile: impl FnOnce() -> LikePattern) -> Rc<LikePattern> {
        if let Some(Slot::Like(p)) = self.slots.borrow().get(&key) {
            return Rc::clone(p);
        }
        let p = Rc::new(compile());
        self.slots.borrow_mut().insert(key, Slot::Like(Rc::clone(&p)));
        p
    }
}

fn expr_key(e: &Expr) -> usize {
    e as *const Expr as usize
}

/// Evaluate an expression to a value.
pub fn eval(expr: &Expr, ctx: &EvalCtx<'_>) -> Result<Value, EngineError> {
    ctx.env.tick(1)?;
    match expr {
        Expr::Literal(lit) => Ok(literal_value(lit)),
        Expr::Column { table, name } => match ctx.scope {
            Some(scope) => match ctx.binder {
                Some(binder) => {
                    let (depth, idx) =
                        binder.col(expr_key(expr), || scope.resolve(table.as_deref(), name))?;
                    Ok(scope.at_depth(depth).row[idx].clone())
                }
                None => scope.lookup(table.as_deref(), name),
            },
            None => Err(EngineError::catalog(format!("no such column: {name}"))),
        },
        Expr::Unary { op, expr } => {
            let v = eval(expr, ctx)?;
            eval_unary(ctx.env, *op, v)
        }
        Expr::Binary { left, op, right } => {
            // AND/OR get three-valued shortcut handling.
            match op {
                BinaryOp::And => {
                    let l = truthiness(&eval(left, ctx)?);
                    if l == Truth::False {
                        ctx.env.cov_branch("logic:and:short");
                        return Ok(Value::Boolean(false));
                    }
                    let r = truthiness(&eval(right, ctx)?);
                    Ok(l.and(r).to_value())
                }
                BinaryOp::Or => {
                    let l = truthiness(&eval(left, ctx)?);
                    if l == Truth::True {
                        ctx.env.cov_branch("logic:or:short");
                        return Ok(Value::Boolean(true));
                    }
                    let r = truthiness(&eval(right, ctx)?);
                    Ok(l.or(r).to_value())
                }
                _ => {
                    let l = eval(left, ctx)?;
                    let r = eval(right, ctx)?;
                    eval_binary(ctx.env, *op, l, r)
                }
            }
        }
        Expr::Function { name, args, distinct, star } => {
            if is_aggregate(ctx.env.dialect, name) {
                let Some(agg) = ctx.agg else {
                    return Err(EngineError::syntax(format!(
                        "misuse of aggregate function {name}()"
                    )));
                };
                return compute_aggregate(ctx, name, args, *distinct, *star, agg);
            }
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, ctx)?);
            }
            match call_scalar(ctx.env, name, &vals)? {
                Some(v) => Ok(v),
                None => Err(unknown_function_error(ctx.env.dialect, name)),
            }
        }
        Expr::Cast { expr, ty } => {
            let v = eval(expr, ctx)?;
            let target = resolve_type(ty, ctx.env.dialect)?;
            ctx.env.cov_branch(format!("cast:{}", target.name()));
            cast_value(ctx.env.dialect, v, &target)
        }
        Expr::Case { operand, branches, else_branch } => {
            let op_val = match operand {
                Some(e) => Some(eval(e, ctx)?),
                None => None,
            };
            for (cond, result) in branches {
                let hit = match &op_val {
                    Some(base) => {
                        let c = eval(cond, ctx)?;
                        sql_compare(ctx.env.dialect, base, &c)? == Truth::True
                    }
                    None => truthiness(&eval(cond, ctx)?) == Truth::True,
                };
                if hit {
                    ctx.env.cov_branch("case:branch");
                    return eval(result, ctx);
                }
            }
            ctx.env.cov_branch("case:else");
            match else_branch {
                Some(e) => eval(e, ctx),
                None => Ok(Value::Null),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, ctx)?;
            let is_null = v.is_null();
            Ok(Value::Boolean(is_null != *negated))
        }
        Expr::IsDistinctFrom { left, right, negated } => {
            let l = eval(left, ctx)?;
            let r = eval(right, ctx)?;
            let distinct = !l.sql_grouping_eq(&r);
            Ok(Value::Boolean(distinct != *negated))
        }
        Expr::InList { expr, list, negated } => {
            let needle = eval(expr, ctx)?;
            let mut any_unknown = false;
            for item in list {
                let v = eval(item, ctx)?;
                match sql_compare(ctx.env.dialect, &needle, &v)? {
                    Truth::True => {
                        return Ok(Truth::from_bool(!*negated).to_value());
                    }
                    Truth::Unknown => any_unknown = true,
                    Truth::False => {}
                }
            }
            if any_unknown {
                Ok(Value::Null)
            } else {
                Ok(Truth::from_bool(*negated).to_value())
            }
        }
        Expr::InSubquery { expr, query, negated } => {
            let needle = eval(expr, ctx)?;
            let rel = crate::exec::run_query(query, ctx.env, ctx.scope)?;
            if rel.cols.len() != 1 {
                return Err(EngineError::syntax("subquery in IN must return exactly one column"));
            }
            let mut any_unknown = false;
            for row in &rel.rows {
                ctx.env.tick(1)?;
                match sql_compare(ctx.env.dialect, &needle, &row[0])? {
                    Truth::True => return Ok(Truth::from_bool(!*negated).to_value()),
                    Truth::Unknown => any_unknown = true,
                    Truth::False => {}
                }
            }
            if any_unknown {
                Ok(Value::Null)
            } else {
                Ok(Truth::from_bool(*negated).to_value())
            }
        }
        Expr::Between { expr, low, high, negated } => {
            let v = eval(expr, ctx)?;
            let lo = eval(low, ctx)?;
            let hi = eval(high, ctx)?;
            let ge =
                sql_compare_ord(ctx.env.dialect, &v, &lo)?.map(|o| o != std::cmp::Ordering::Less);
            let le = sql_compare_ord(ctx.env.dialect, &v, &hi)?
                .map(|o| o != std::cmp::Ordering::Greater);
            let t = truth_of_option(ge).and(truth_of_option(le));
            Ok(if *negated { t.not().to_value() } else { t.to_value() })
        }
        Expr::Like { expr, pattern, negated, case_insensitive } => {
            let v = eval(expr, ctx)?;
            let p = eval(pattern, ctx)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            // SQLite and MySQL LIKE are case-insensitive by default.
            let ci = *case_insensitive
                || matches!(ctx.env.dialect, EngineDialect::Sqlite | EngineDialect::Mysql);
            // Literal patterns compile once per scan loop; dynamic patterns
            // (computed from row data) compile per row as before.
            let matched = match ctx.binder {
                Some(binder) if matches!(&**pattern, Expr::Literal(_)) => binder
                    .like(expr_key(pattern), || LikePattern::compile(&text_of(&p), ci))
                    .matches(&text_of(&v)),
                _ => LikePattern::compile(&text_of(&p), ci).matches(&text_of(&v)),
            };
            Ok(Value::Boolean(matched != *negated))
        }
        Expr::Exists { query, negated } => {
            let rel = crate::exec::run_query(query, ctx.env, ctx.scope)?;
            Ok(Value::Boolean(rel.rows.is_empty() == *negated))
        }
        Expr::Subquery(query) => {
            let rel = crate::exec::run_query(query, ctx.env, ctx.scope)?;
            if rel.cols.len() != 1 {
                return Err(EngineError::syntax(
                    "subquery used as an expression must return one column",
                ));
            }
            match rel.rows.len() {
                0 => Ok(Value::Null),
                1 => Ok(rel.rows[0][0].clone()),
                _ => {
                    if ctx.env.dialect == EngineDialect::Sqlite {
                        // SQLite silently takes the first row.
                        ctx.env.cov_branch("subquery:first-row");
                        Ok(rel.rows[0][0].clone())
                    } else {
                        Err(EngineError::syntax(
                            "more than one row returned by a subquery used as an expression",
                        ))
                    }
                }
            }
        }
        Expr::Row(items) => {
            let mut vals = Vec::with_capacity(items.len());
            for e in items {
                vals.push(eval(e, ctx)?);
            }
            // Row values ride on List; comparison handles them specially.
            Ok(Value::List(vals))
        }
        Expr::Array(items) => {
            if !ctx.env.dialect.supports_arrays() {
                return Err(EngineError::unsupported_type("ARRAY"));
            }
            let mut vals = Vec::with_capacity(items.len());
            for e in items {
                vals.push(eval(e, ctx)?);
            }
            Ok(unify_array(ctx.env.dialect, vals)?)
        }
        Expr::Struct(fields) => {
            if !ctx.env.dialect.supports_nested_types() {
                return Err(EngineError::unsupported_type("STRUCT"));
            }
            let mut out = Vec::with_capacity(fields.len());
            for (k, e) in fields {
                out.push((k.clone(), eval(e, ctx)?));
            }
            Ok(Value::Struct(out))
        }
        Expr::Interval(text) => Ok(Value::text(text.as_str())),
        Expr::Parameter(p) => Err(EngineError::syntax(format!(
            "bind parameter {p} is not supported in direct execution"
        ))),
    }
}

fn truth_of_option(o: Option<bool>) -> Truth {
    match o {
        Some(true) => Truth::True,
        Some(false) => Truth::False,
        None => Truth::Unknown,
    }
}

fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Integer(i) => Value::Integer(*i),
        Literal::Float(f) => Value::Float(*f),
        Literal::String(s) => Value::text(s.as_str()),
        Literal::Blob(b) => Value::Blob(b.clone()),
        Literal::Boolean(b) => Value::Boolean(*b),
        Literal::Null => Value::Null,
    }
}

fn eval_unary(env: &QueryEnv<'_>, op: UnaryOp, v: Value) -> Result<Value, EngineError> {
    env.cov_line(match op {
        UnaryOp::Not => "unary:Not",
        UnaryOp::Neg => "unary:Neg",
        UnaryOp::Pos => "unary:Pos",
        UnaryOp::BitNot => "unary:BitNot",
    });
    match op {
        UnaryOp::Not => Ok(truthiness(&v).not().to_value()),
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Integer(i) => {
                i.checked_neg().map(Value::Integer).ok_or_else(|| overflow_error(env.dialect))
            }
            Value::Float(f) => Ok(Value::Float(-f)),
            other => {
                let f = numeric_coerce(env.dialect, &other)?;
                Ok(Value::Float(-f))
            }
        },
        UnaryOp::Pos => match v {
            Value::Null => Ok(Value::Null),
            Value::Integer(_) | Value::Float(_) => Ok(v),
            other => Ok(Value::Float(numeric_coerce(env.dialect, &other)?)),
        },
        UnaryOp::BitNot => match v.as_i64() {
            Some(i) => Ok(Value::Integer(!i)),
            None if v.is_null() => Ok(Value::Null),
            None => Ok(Value::Integer(!0)),
        },
    }
}

/// Evaluate a binary operator on two values under the engine's semantics.
pub fn eval_binary(
    env: &QueryEnv<'_>,
    op: BinaryOp,
    l: Value,
    r: Value,
) -> Result<Value, EngineError> {
    env.cov_line(op_cov_key(op));
    let d = env.dialect;
    match op {
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul => arith(env, op, l, r),
        BinaryOp::Div => divide(env, l, r),
        BinaryOp::IntDiv => int_divide(env, l, r),
        BinaryOp::Mod => modulo(env, l, r),
        BinaryOp::Concat => {
            if !d.pipes_are_concat() {
                // MySQL default mode: `||` is logical OR (a real semantic
                // trap for transplanted tests).
                env.cov_branch("concat:as-or");
                let t = truthiness(&l).or(truthiness(&r));
                return Ok(match t {
                    Truth::Unknown => Value::Null,
                    Truth::True => Value::Integer(1),
                    Truth::False => Value::Integer(0),
                });
            }
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::text(format!("{}{}", text_of(&l), text_of(&r))))
        }
        BinaryOp::Eq
        | BinaryOp::NotEq
        | BinaryOp::Lt
        | BinaryOp::Gt
        | BinaryOp::LtEq
        | BinaryOp::GtEq => {
            let t = compare_with_op(env, op, &l, &r)?;
            Ok(t.to_value())
        }
        BinaryOp::And | BinaryOp::Or => unreachable!("handled with shortcut semantics"),
        BinaryOp::BitAnd
        | BinaryOp::BitOr
        | BinaryOp::BitXor
        | BinaryOp::ShiftLeft
        | BinaryOp::ShiftRight => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let a = l.as_i64().or_else(|| parse_leading_number(&text_of(&l)).map(|f| f as i64));
            let b = r.as_i64().or_else(|| parse_leading_number(&text_of(&r)).map(|f| f as i64));
            let (Some(a), Some(b)) = (a, b) else {
                return Err(EngineError::unsupported_operator(format!(
                    "operator {} requires integer operands",
                    op.sql()
                )));
            };
            Ok(Value::Integer(match op {
                BinaryOp::BitAnd => a & b,
                BinaryOp::BitOr => a | b,
                BinaryOp::BitXor => a ^ b,
                BinaryOp::ShiftLeft => a.wrapping_shl(b as u32),
                BinaryOp::ShiftRight => a.wrapping_shr(b as u32),
                _ => unreachable!(),
            }))
        }
        BinaryOp::RegexMatch => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Boolean(regex_lite_match(&text_of(&l), &text_of(&r))))
        }
    }
}

/// The coverage point for a binary operator — same spelling as the old
/// `format!("op:{}", op.sql())`, but a static key: this is recorded per
/// operator evaluation, i.e. per row, so it must not allocate.
pub(crate) fn op_cov_key(op: BinaryOp) -> &'static str {
    match op {
        BinaryOp::Add => "op:+",
        BinaryOp::Sub => "op:-",
        BinaryOp::Mul => "op:*",
        BinaryOp::Div => "op:/",
        BinaryOp::IntDiv => "op:DIV",
        BinaryOp::Mod => "op:%",
        BinaryOp::Concat => "op:||",
        BinaryOp::Eq => "op:=",
        BinaryOp::NotEq => "op:<>",
        BinaryOp::Lt => "op:<",
        BinaryOp::Gt => "op:>",
        BinaryOp::LtEq => "op:<=",
        BinaryOp::GtEq => "op:>=",
        BinaryOp::And => "op:AND",
        BinaryOp::Or => "op:OR",
        BinaryOp::BitAnd => "op:&",
        BinaryOp::BitOr => "op:|",
        BinaryOp::BitXor => "op:#",
        BinaryOp::ShiftLeft => "op:<<",
        BinaryOp::ShiftRight => "op:>>",
        BinaryOp::RegexMatch => "op:~",
    }
}

fn compare_with_op(
    env: &QueryEnv<'_>,
    op: BinaryOp,
    l: &Value,
    r: &Value,
) -> Result<Truth, EngineError> {
    // Row values (carried as List from Expr::Row / Array) compare specially.
    if let (Value::List(a), Value::List(b)) = (l, r) {
        return row_compare(env, op, a, b);
    }
    let ord = sql_compare_ord(env.dialect, l, r)?;
    Ok(match ord {
        None => Truth::Unknown,
        Some(o) => Truth::from_bool(match op {
            BinaryOp::Eq => o == std::cmp::Ordering::Equal,
            BinaryOp::NotEq => o != std::cmp::Ordering::Equal,
            BinaryOp::Lt => o == std::cmp::Ordering::Less,
            BinaryOp::Gt => o == std::cmp::Ordering::Greater,
            BinaryOp::LtEq => o != std::cmp::Ordering::Greater,
            BinaryOp::GtEq => o != std::cmp::Ordering::Less,
            _ => unreachable!(),
        }),
    })
}

/// Row-value comparison. DuckDB decides totally (NULLs greatest — paper
/// Listing 17 `(NULL,0) > (0,0)` is true); the others use three-valued
/// lexicographic comparison and return NULL on the first unknown pair.
fn row_compare(
    env: &QueryEnv<'_>,
    op: BinaryOp,
    a: &[Value],
    b: &[Value],
) -> Result<Truth, EngineError> {
    if a.len() != b.len() {
        return Err(EngineError::syntax("row value misused: arity mismatch"));
    }
    if env.dialect.row_compare_total_order() {
        env.cov_branch("rowcmp:total");
        let mut ord = std::cmp::Ordering::Equal;
        for (x, y) in a.iter().zip(b.iter()) {
            // NULLs greatest: compare with nulls_smallest = false.
            let c = x.total_cmp(y, false);
            if c != std::cmp::Ordering::Equal {
                ord = c;
                break;
            }
        }
        return Ok(Truth::from_bool(match op {
            BinaryOp::Eq => ord == std::cmp::Ordering::Equal,
            BinaryOp::NotEq => ord != std::cmp::Ordering::Equal,
            BinaryOp::Lt => ord == std::cmp::Ordering::Less,
            BinaryOp::Gt => ord == std::cmp::Ordering::Greater,
            BinaryOp::LtEq => ord != std::cmp::Ordering::Greater,
            BinaryOp::GtEq => ord != std::cmp::Ordering::Less,
            _ => return Err(EngineError::syntax("row value misused")),
        }));
    }
    env.cov_branch("rowcmp:3vl");
    // Standard three-valued lexicographic walk.
    for (x, y) in a.iter().zip(b.iter()) {
        match sql_compare_ord(env.dialect, x, y)? {
            None => return Ok(Truth::Unknown),
            Some(std::cmp::Ordering::Equal) => continue,
            Some(o) => {
                return Ok(Truth::from_bool(match op {
                    BinaryOp::Eq => false,
                    BinaryOp::NotEq => true,
                    BinaryOp::Lt | BinaryOp::LtEq => o == std::cmp::Ordering::Less,
                    BinaryOp::Gt | BinaryOp::GtEq => o == std::cmp::Ordering::Greater,
                    _ => return Err(EngineError::syntax("row value misused")),
                }))
            }
        }
    }
    Ok(Truth::from_bool(matches!(op, BinaryOp::Eq | BinaryOp::LtEq | BinaryOp::GtEq)))
}

/// Compare two scalars: `None` means SQL NULL (unknown).
pub fn sql_compare_ord(
    dialect: EngineDialect,
    l: &Value,
    r: &Value,
) -> Result<Option<std::cmp::Ordering>, EngineError> {
    if l.is_null() || r.is_null() {
        return Ok(None);
    }
    let numeric = |v: &Value| matches!(v, Value::Integer(_) | Value::Float(_) | Value::Boolean(_));
    match (l, r) {
        (Value::Text(a), Value::Text(b)) => {
            // MySQL's default collation is case-insensitive.
            if dialect == EngineDialect::Mysql {
                Ok(Some(ci_text_cmp(a, b)))
            } else {
                Ok(Some(a.cmp(b)))
            }
        }
        (Value::Blob(a), Value::Blob(b)) => Ok(Some(a.cmp(b))),
        (Value::List(_), Value::List(_)) | (Value::Struct(_), Value::Struct(_)) => {
            Ok(Some(l.total_cmp(r, true)))
        }
        (a, b) if numeric(a) && numeric(b) => {
            let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
            Ok(x.partial_cmp(&y))
        }
        (Value::Text(s), b) if numeric(b) => text_num_compare(dialect, s, b, false),
        (a, Value::Text(s)) if numeric(a) => text_num_compare(dialect, s, a, true),
        _ => Err(EngineError::unsupported_operator(format!(
            "cannot compare {} with {}",
            l.sqlite_type_name(),
            r.sqlite_type_name()
        ))),
    }
}

/// Case-insensitive text comparison (MySQL's default collation) without
/// per-row `to_lowercase` allocations: ASCII strings — the overwhelmingly
/// common case in the suites — compare byte-wise through
/// `to_ascii_lowercase`, which is exactly the order the old
/// `a.to_lowercase().cmp(&b.to_lowercase())` produced for them (UTF-8 is
/// order-preserving). Non-ASCII input falls back to the allocating path so
/// Unicode special-casing stays bit-for-bit identical.
pub(crate) fn ci_text_cmp(a: &str, b: &str) -> std::cmp::Ordering {
    if a.is_ascii() && b.is_ascii() {
        a.bytes().map(|c| c.to_ascii_lowercase()).cmp(b.bytes().map(|c| c.to_ascii_lowercase()))
    } else {
        a.to_lowercase().cmp(&b.to_lowercase())
    }
}

/// Text-vs-number comparison is one of the paper's clearest dialect splits:
/// SQLite orders by storage class (numbers sort before all text), MySQL
/// coerces text to a number, PostgreSQL/DuckDB must parse the text fully or
/// error out.
fn text_num_compare(
    dialect: EngineDialect,
    text: &str,
    num: &Value,
    text_on_right: bool,
) -> Result<Option<std::cmp::Ordering>, EngineError> {
    use std::cmp::Ordering;
    let n = num.as_f64().expect("numeric side");
    let ord = match dialect {
        EngineDialect::Sqlite => {
            // numeric storage class < text storage class, always.
            Some(Ordering::Greater)
        }
        EngineDialect::Mysql => {
            let t = parse_leading_number(text).unwrap_or(0.0);
            t.partial_cmp(&n)
        }
        EngineDialect::Postgres => match text.trim().parse::<f64>() {
            Ok(t) => t.partial_cmp(&n),
            Err(_) => {
                return Err(EngineError::conversion(format!(
                    "invalid input syntax for type numeric: \"{text}\""
                )))
            }
        },
        EngineDialect::Duckdb => match text.trim().parse::<f64>() {
            Ok(t) => t.partial_cmp(&n),
            Err(_) => {
                return Err(EngineError::conversion(format!(
                    "Conversion Error: Could not convert string '{text}' to numeric"
                )))
            }
        },
    };
    Ok(ord.map(|o| if text_on_right { o.reverse() } else { o }))
}

/// Convenience equality-style compare returning three-valued truth.
pub fn sql_compare(dialect: EngineDialect, l: &Value, r: &Value) -> Result<Truth, EngineError> {
    match sql_compare_ord(dialect, l, r)? {
        None => Ok(Truth::Unknown),
        Some(o) => Ok(Truth::from_bool(o == std::cmp::Ordering::Equal)),
    }
}

fn arith(env: &QueryEnv<'_>, op: BinaryOp, l: Value, r: Value) -> Result<Value, EngineError> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    let d = env.dialect;
    // Integer fast path with overflow semantics.
    if let (Value::Integer(a), Value::Integer(b)) = (&l, &r) {
        let res = match op {
            BinaryOp::Add => a.checked_add(*b),
            BinaryOp::Sub => a.checked_sub(*b),
            BinaryOp::Mul => a.checked_mul(*b),
            _ => unreachable!(),
        };
        return match res {
            Some(v) => Ok(Value::Integer(v)),
            None => Err(overflow_error(d)),
        };
    }
    let a = numeric_coerce(d, &l)?;
    let b = numeric_coerce(d, &r)?;
    let v = match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        _ => unreachable!(),
    };
    Ok(Value::Float(v))
}

/// `/`: the paper's biggest semantic divergence. Integer division on SQLite
/// and PostgreSQL; non-integer on DuckDB and MySQL. Division by zero errors
/// on PostgreSQL/DuckDB and yields NULL on SQLite/MySQL.
fn divide(env: &QueryEnv<'_>, l: Value, r: Value) -> Result<Value, EngineError> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    let d = env.dialect;
    let b = numeric_coerce(d, &r)?;
    if b == 0.0 {
        env.cov_branch("div:zero");
        return match d {
            EngineDialect::Postgres => {
                Err(EngineError::new(ErrorKind::Arithmetic, "division by zero"))
            }
            EngineDialect::Duckdb => {
                Err(EngineError::new(ErrorKind::Arithmetic, "Division by zero!"))
            }
            EngineDialect::Sqlite | EngineDialect::Mysql => Ok(Value::Null),
        };
    }
    if let (Value::Integer(x), Value::Integer(y)) = (&l, &r) {
        if d.integer_division() {
            env.cov_branch("div:integer");
            // `i64::MIN / -1` is the one quotient that overflows.
            return x.checked_div(*y).map(Value::Integer).ok_or_else(|| overflow_error(d));
        }
        env.cov_branch("div:decimal");
        return Ok(Value::Float(*x as f64 / *y as f64));
    }
    let a = numeric_coerce(d, &l)?;
    Ok(Value::Float(a / b))
}

/// MySQL `DIV` (integer division).
fn int_divide(env: &QueryEnv<'_>, l: Value, r: Value) -> Result<Value, EngineError> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    let a = numeric_coerce(env.dialect, &l)?;
    let b = numeric_coerce(env.dialect, &r)?;
    if b == 0.0 {
        return Ok(Value::Null); // MySQL yields NULL with a warning
    }
    Ok(Value::Integer((a / b).trunc() as i64))
}

fn modulo(env: &QueryEnv<'_>, l: Value, r: Value) -> Result<Value, EngineError> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    let d = env.dialect;
    if let (Some(a), Some(b)) = (l.as_i64(), r.as_i64()) {
        if b == 0 {
            return match d {
                EngineDialect::Postgres | EngineDialect::Duckdb => {
                    Err(EngineError::new(ErrorKind::Arithmetic, "division by zero"))
                }
                _ => Ok(Value::Null),
            };
        }
        // `i64::MIN % -1` overflows in the machine op; the exact remainder
        // is 0.
        return Ok(Value::Integer(a.checked_rem(b).unwrap_or(0)));
    }
    let a = numeric_coerce(d, &l)?;
    let b = numeric_coerce(d, &r)?;
    if b == 0.0 {
        return Ok(Value::Null);
    }
    Ok(Value::Float(a % b))
}

/// Coerce a value to f64 under the dialect's text-coercion policy.
fn numeric_coerce(dialect: EngineDialect, v: &Value) -> Result<f64, EngineError> {
    if let Some(f) = v.as_f64() {
        return Ok(f);
    }
    let Value::Text(s) = v else {
        return Err(EngineError::unsupported_operator(format!(
            "cannot use {} in arithmetic",
            v.sqlite_type_name()
        )));
    };
    match dialect {
        // SQLite and MySQL silently coerce the numeric prefix (or 0).
        EngineDialect::Sqlite | EngineDialect::Mysql => Ok(parse_leading_number(s).unwrap_or(0.0)),
        // PostgreSQL and DuckDB demand a fully-numeric string.
        EngineDialect::Postgres => s.trim().parse::<f64>().map_err(|_| {
            EngineError::conversion(format!("invalid input syntax for type numeric: \"{s}\""))
        }),
        EngineDialect::Duckdb => s.trim().parse::<f64>().map_err(|_| {
            EngineError::conversion(format!(
                "Conversion Error: Could not convert string '{s}' to numeric"
            ))
        }),
    }
}

fn overflow_error(dialect: EngineDialect) -> EngineError {
    let msg = match dialect {
        EngineDialect::Sqlite => "integer overflow",
        EngineDialect::Postgres => "integer out of range",
        EngineDialect::Duckdb => "Out of Range Error: integer overflow",
        EngineDialect::Mysql => "BIGINT value is out of range",
    };
    EngineError::new(ErrorKind::Arithmetic, msg)
}

/// Cast a runtime value to a resolved target type.
pub fn cast_value(
    dialect: EngineDialect,
    v: Value,
    target: &DataType,
) -> Result<Value, EngineError> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    match target {
        DataType::Any => Ok(v),
        DataType::Integer => match &v {
            Value::Integer(_) => Ok(v),
            Value::Float(f) => Ok(Value::Integer(f.trunc() as i64)),
            Value::Boolean(b) => Ok(Value::Integer(if *b { 1 } else { 0 })),
            Value::Text(s) => match dialect {
                EngineDialect::Sqlite | EngineDialect::Mysql => {
                    Ok(Value::Integer(parse_leading_number(s).unwrap_or(0.0) as i64))
                }
                EngineDialect::Postgres => {
                    s.trim().parse::<i64>().map(Value::Integer).map_err(|_| {
                        EngineError::conversion(format!(
                            "invalid input syntax for type integer: \"{s}\""
                        ))
                    })
                }
                EngineDialect::Duckdb => {
                    s.trim().parse::<i64>().map(Value::Integer).map_err(|_| {
                        EngineError::conversion(format!(
                            "Conversion Error: Could not convert string '{s}' to INT64"
                        ))
                    })
                }
            },
            _ => Err(EngineError::conversion("cannot cast to INTEGER")),
        },
        DataType::Float => match &v {
            Value::Float(_) => Ok(v),
            Value::Integer(i) => Ok(Value::Float(*i as f64)),
            Value::Boolean(b) => Ok(Value::Float(if *b { 1.0 } else { 0.0 })),
            Value::Text(s) => match dialect {
                EngineDialect::Sqlite | EngineDialect::Mysql => {
                    Ok(Value::Float(parse_leading_number(s).unwrap_or(0.0)))
                }
                _ => s.trim().parse::<f64>().map(Value::Float).map_err(|_| {
                    EngineError::conversion(format!("could not cast \"{s}\" to DOUBLE"))
                }),
            },
            _ => Err(EngineError::conversion("cannot cast to DOUBLE")),
        },
        DataType::Text { max_len } => {
            let s = text_of(&v);
            if let Some(n) = max_len {
                // MySQL truncates; the strict engines error on overflow.
                if s.chars().count() as i64 > *n {
                    return match dialect {
                        EngineDialect::Mysql => {
                            Ok(Value::text(s.chars().take(*n as usize).collect::<String>()))
                        }
                        EngineDialect::Sqlite => Ok(Value::text(s)),
                        _ => Err(EngineError::conversion(format!(
                            "value too long for type character varying({n})"
                        ))),
                    };
                }
            }
            Ok(Value::text(s))
        }
        DataType::Blob => match v {
            Value::Blob(_) => Ok(v),
            Value::Text(s) => Ok(Value::Blob(s.as_bytes().to_vec())),
            other => Ok(Value::Blob(render_plain(&other).into_bytes())),
        },
        DataType::Boolean => match &v {
            Value::Boolean(_) => Ok(v),
            Value::Integer(i) => Ok(Value::Boolean(*i != 0)),
            Value::Float(f) => Ok(Value::Boolean(*f != 0.0)),
            Value::Text(s) => match s.trim().to_lowercase().as_str() {
                "t" | "true" | "yes" | "on" | "1" => Ok(Value::Boolean(true)),
                "f" | "false" | "no" | "off" | "0" => Ok(Value::Boolean(false)),
                _ => Err(EngineError::conversion(format!(
                    "invalid input syntax for type boolean: \"{s}\""
                ))),
            },
            _ => Err(EngineError::conversion("cannot cast to BOOLEAN")),
        },
        DataType::List(inner) => match v {
            Value::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(cast_value(dialect, item, inner)?);
                }
                Ok(Value::List(out))
            }
            other => Ok(Value::List(vec![cast_value(dialect, other, inner)?])),
        },
        DataType::Struct(_) | DataType::Union(_) => match v {
            Value::Struct(_) => Ok(v),
            _ => Err(EngineError::conversion("cannot cast to nested type")),
        },
    }
}

/// PostgreSQL arrays must be homogeneous (text elements parse to the common
/// numeric type or it errors); DuckDB instead widens everything to VARCHAR —
/// exactly the Listing 8 divergence.
fn unify_array(dialect: EngineDialect, vals: Vec<Value>) -> Result<Value, EngineError> {
    let has_num = vals.iter().any(|v| matches!(v, Value::Integer(_) | Value::Float(_)));
    let has_text = vals.iter().any(|v| matches!(v, Value::Text(_)));
    if !(has_num && has_text) {
        return Ok(Value::List(vals));
    }
    match dialect {
        EngineDialect::Postgres => {
            let mut out = Vec::with_capacity(vals.len());
            for v in vals {
                match v {
                    Value::Text(s) => match s.trim().parse::<i64>() {
                        Ok(i) => out.push(Value::Integer(i)),
                        Err(_) => match s.trim().parse::<f64>() {
                            Ok(f) => out.push(Value::Float(f)),
                            Err(_) => {
                                return Err(EngineError::conversion(format!(
                                    "invalid input syntax for type integer: \"{s}\""
                                )))
                            }
                        },
                    },
                    other => out.push(other),
                }
            }
            Ok(Value::List(out))
        }
        _ => {
            // DuckDB widens to VARCHAR.
            Ok(Value::List(
                vals.into_iter()
                    .map(|v| match v {
                        Value::Text(_) | Value::Null => v,
                        other => Value::text(render_plain(&other)),
                    })
                    .collect(),
            ))
        }
    }
}

/// Compute an aggregate over the rows of a group.
pub fn compute_aggregate(
    outer_ctx: &EvalCtx<'_>,
    name: &str,
    args: &[Expr],
    distinct: bool,
    star: bool,
    agg: &AggCtx<'_>,
) -> Result<Value, EngineError> {
    let env = outer_ctx.env;
    env.cov_line(format!("agg:{name}"));
    if star {
        if name != "count" {
            return Err(EngineError::syntax(format!("{name}(*) is not valid")));
        }
        return Ok(Value::Integer(agg.rows.len() as i64));
    }
    let arg = args
        .first()
        .ok_or_else(|| EngineError::syntax(format!("aggregate {name}() requires an argument")))?;
    // Evaluate the argument per row of the group. The member-row scopes
    // have the same layout as the caller's group scope (same cols, same
    // outer chain), so the caller's binder carries over.
    let mut vals = Vec::with_capacity(agg.rows.len());
    for &row in agg.rows {
        env.tick(1)?;
        let scope = Scope { cols: agg.cols, row, parent: agg.outer };
        let ctx = EvalCtx { env, scope: Some(&scope), agg: None, binder: outer_ctx.binder };
        let v = eval(arg, &ctx)?;
        if !v.is_null() {
            vals.push(v);
        }
    }
    if distinct {
        // Hash-dedupe when every value has a grouping key; hash-unsafe
        // values (and the naive oracle) keep the linear scan.
        let hash_keys = (env.strategy == crate::env::ExecStrategy::Hash)
            .then(|| vals.iter().map(Value::try_group_key).collect::<Option<Vec<_>>>())
            .flatten();
        match hash_keys {
            Some(keys) => {
                let mut seen = std::collections::HashSet::with_capacity(vals.len());
                let mut keys = keys.into_iter();
                vals.retain(|_| seen.insert(keys.next().expect("one key per value")));
            }
            None => {
                let mut unique: Vec<Value> = Vec::new();
                for v in vals {
                    if !unique.iter().any(|u| u.sql_grouping_eq(&v)) {
                        unique.push(v);
                    }
                }
                vals = unique;
            }
        }
    }
    match name {
        "count" => Ok(Value::Integer(vals.len() as i64)),
        "sum" | "total" => {
            if vals.is_empty() {
                return Ok(if name == "total" { Value::Float(0.0) } else { Value::Null });
            }
            let all_int = vals.iter().all(|v| matches!(v, Value::Integer(_)));
            if all_int && name == "sum" {
                let mut acc: i64 = 0;
                for v in &vals {
                    acc = acc
                        .checked_add(v.as_i64().unwrap())
                        .ok_or_else(|| overflow_error(env.dialect))?;
                }
                Ok(Value::Integer(acc))
            } else {
                let mut acc = 0.0;
                for v in &vals {
                    acc += numeric_coerce(env.dialect, v)?;
                }
                Ok(Value::Float(acc))
            }
        }
        "avg" => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let mut acc = 0.0;
            for v in &vals {
                acc += numeric_coerce(env.dialect, v)?;
            }
            Ok(Value::Float(acc / vals.len() as f64))
        }
        "min" | "max" => {
            let mut best: Option<Value> = None;
            for v in vals {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = if name == "min" {
                            v.total_cmp(&b, true) == std::cmp::Ordering::Less
                        } else {
                            v.total_cmp(&b, true) == std::cmp::Ordering::Greater
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
        "median" => {
            // DuckDB median: midpoint interpolation for even counts —
            // 0..=9999 has median 4999.5 (paper Listing 10).
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let mut nums: Vec<f64> = Vec::with_capacity(vals.len());
            for v in &vals {
                nums.push(numeric_coerce(env.dialect, v)?);
            }
            nums.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let n = nums.len();
            let m = if n % 2 == 1 { nums[n / 2] } else { (nums[n / 2 - 1] + nums[n / 2]) / 2.0 };
            Ok(Value::Float(m))
        }
        "quantile" => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let q = args
                .get(1)
                .map(|e| {
                    // Evaluated against the *outer* scope — a different
                    // layout than the group scope, so no shared binder.
                    let ctx =
                        EvalCtx { env, scope: agg.outer.map(|s| s as _), agg: None, binder: None };
                    eval(e, &ctx).map(|v| v.as_f64().unwrap_or(0.5))
                })
                .transpose()?
                .unwrap_or(0.5);
            let mut nums: Vec<f64> = Vec::with_capacity(vals.len());
            for v in &vals {
                nums.push(numeric_coerce(env.dialect, v)?);
            }
            nums.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let idx = ((nums.len() - 1) as f64 * q).round() as usize;
            Ok(Value::Float(nums[idx.min(nums.len() - 1)]))
        }
        "group_concat" | "string_agg" => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let sep = ",";
            Ok(Value::text(vals.iter().map(render_plain).collect::<Vec<_>>().join(sep)))
        }
        _ => Err(unknown_function_error(env.dialect, name)),
    }
}

/// Dialect-flavoured unknown-function error messages so the RQ4 classifiers
/// see realistic strings.
pub fn unknown_function_error(dialect: EngineDialect, name: &str) -> EngineError {
    let msg = match dialect {
        EngineDialect::Sqlite => format!("no such function: {name}"),
        EngineDialect::Postgres => format!("function {name} does not exist"),
        EngineDialect::Duckdb => {
            format!("Catalog Error: Scalar Function with name {name} does not exist!")
        }
        EngineDialect::Mysql => format!("FUNCTION {name} does not exist"),
    };
    EngineError::new(ErrorKind::UnknownFunction, msg)
}

/// A LIKE pattern compiled to a token list: `%` any-run, `_` any-char,
/// everything else a literal. Compiling once per scan loop replaces the
/// old per-row `to_lowercase` + `Vec<char>` collection of *both* operands.
pub struct LikePattern {
    toks: Vec<LikeTok>,
    case_insensitive: bool,
}

enum LikeTok {
    AnyRun,
    AnyChar,
    Lit(char),
}

impl LikePattern {
    /// Compile a pattern (lowercased here, once, when case-insensitive).
    pub fn compile(pattern: &str, case_insensitive: bool) -> LikePattern {
        let src: Cow<'_, str> =
            if case_insensitive { Cow::Owned(pattern.to_lowercase()) } else { pattern.into() };
        let toks = src
            .chars()
            .map(|c| match c {
                '%' => LikeTok::AnyRun,
                '_' => LikeTok::AnyChar,
                c => LikeTok::Lit(c),
            })
            .collect();
        LikePattern { toks, case_insensitive }
    }

    /// Match a text against the compiled pattern.
    pub fn matches(&self, text: &str) -> bool {
        if self.case_insensitive {
            like_toks(&text.to_lowercase(), &self.toks)
        } else {
            like_toks(text, &self.toks)
        }
    }
}

/// Minimal LIKE matcher: `%` any-run, `_` any-char.
pub fn like_match(text: &str, pattern: &str, case_insensitive: bool) -> bool {
    LikePattern::compile(pattern, case_insensitive).matches(text)
}

fn like_toks(t: &str, p: &[LikeTok]) -> bool {
    match p.first() {
        None => t.is_empty(),
        Some(LikeTok::AnyRun) => {
            // Try every suffix of `t` at a char boundary (incl. empty).
            let rest = &p[1..];
            let mut at = 0usize;
            loop {
                if like_toks(&t[at..], rest) {
                    return true;
                }
                match t[at..].chars().next() {
                    Some(c) => at += c.len_utf8(),
                    None => return false,
                }
            }
        }
        Some(LikeTok::AnyChar) => {
            let mut cs = t.chars();
            cs.next().is_some() && like_toks(cs.as_str(), &p[1..])
        }
        Some(LikeTok::Lit(c)) => {
            let mut cs = t.chars();
            cs.next() == Some(*c) && like_toks(cs.as_str(), &p[1..])
        }
    }
}

/// Tiny regex subset for `~`: `^`/`$` anchors, `.` wildcard, literal chars,
/// `.*` runs. Enough for the suites' smoke uses.
fn regex_lite_match(text: &str, pattern: &str) -> bool {
    let anchored_start = pattern.starts_with('^');
    let anchored_end = pattern.ends_with('$');
    let core =
        pattern.trim_start_matches('^').trim_end_matches('$').replace(".*", "%").replace('.', "_");
    let like = match (anchored_start, anchored_end) {
        (true, true) => core,
        (true, false) => format!("{core}%"),
        (false, true) => format!("%{core}"),
        (false, false) => format!("%{core}%"),
    };
    like_match(text, &like, false)
}

fn text_of(v: &Value) -> Cow<'_, str> {
    match v {
        Value::Text(s) => Cow::Borrowed(&**s),
        other => Cow::Owned(render_plain(other)),
    }
}
