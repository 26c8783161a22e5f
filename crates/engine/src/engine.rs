//! The public engine API: a single-connection, in-memory DBMS simulator.

use crate::config::ConfigStore;
use crate::coverage::Coverage;
use crate::dialect::EngineDialect;
use crate::env::{ExecStrategy, QueryEnv, Relation};
use crate::error::{EngineError, ErrorKind};
use crate::eval::{cast_value, eval, EvalCtx};
use crate::exec::run_query;
use crate::faults::{FaultId, FaultProfile};
use crate::functions::{render_plain, scalar_function_names};
use crate::plan_cache::PlanCache;
use crate::schema::{Catalog, Column, Index, Table, View};
use crate::types::{resolve_type, DataType};
use crate::value::{GroupKey, Value};
use squality_sqlast::ast::*;
use squality_sqlast::parse_statement;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Default execution budget: large enough for the synthetic corpora, small
/// enough that the injected infinite loops resolve to hangs in milliseconds.
pub const DEFAULT_STEP_BUDGET: u64 = 2_000_000;

/// Step cost the naive UPDATE/DELETE scan pays per row for a
/// `col = literal` predicate: 1 loop tick plus 3 eval ticks (Binary,
/// Column, Literal). The index fast paths replay exactly this, so budget
/// exhaustion stays byte-identical between strategies.
const EQ_SCAN_TICKS_PER_ROW: u64 = 4;

/// Version of the simulators' observable semantics. Bump whenever an
/// engine change can alter any record outcome, rendered value, error
/// message, or coverage point — the study result cache folds this into
/// its keys, so a bump invalidates every cached result at once.
pub const ENGINE_SEMANTICS_VERSION: u32 = 1;

/// Stable fingerprint of everything about the execution backend that can
/// change a result: dialect, executor strategy, and the semantics version.
/// Plan caching is deliberately absent — it memoizes parsing only and is
/// required to be outcome-invisible.
pub fn execution_fingerprint(dialect: EngineDialect, strategy: ExecStrategy) -> String {
    let strategy = match strategy {
        ExecStrategy::Hash => "hash",
        ExecStrategy::Naive => "naive",
    };
    format!("{}/{}/v{}", dialect.name(), strategy, ENGINE_SEMANTICS_VERSION)
}

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Output column names (empty for non-queries).
    pub columns: Vec<String>,
    /// Result rows (empty for non-queries).
    pub rows: Vec<Vec<Value>>,
    /// Rows affected by DML.
    pub affected: usize,
}

impl QueryResult {
    fn from_relation(rel: Relation) -> QueryResult {
        QueryResult {
            columns: rel.cols.iter().map(|c| c.name.clone()).collect(),
            rows: rel.rows,
            affected: 0,
        }
    }

    fn ok() -> QueryResult {
        QueryResult::default()
    }
}

/// A single-connection DBMS simulator for one dialect.
#[derive(Debug, Clone)]
pub struct Engine {
    dialect: EngineDialect,
    catalog: Catalog,
    config: ConfigStore,
    faults: FaultProfile,
    coverage: Coverage,
    extensions: BTreeSet<String>,
    user_functions: BTreeSet<String>,
    /// Simulated filesystem for COPY: path → CSV lines.
    vfs: BTreeMap<String, Vec<String>>,
    txn_snapshot: Option<Catalog>,
    /// Fault bookkeeping for Listing 13: tables INSERTed / UPDATEd in the
    /// open transaction, and tables poisoned by the last COMMIT.
    txn_inserted: BTreeSet<String>,
    txn_updated: BTreeSet<String>,
    poisoned_tables: BTreeSet<String>,
    crashed: bool,
    step_budget: u64,
    /// Executor algorithm selection; `Naive` replays the pre-hash paths
    /// (the differential oracle).
    exec_strategy: ExecStrategy,
    /// Shared parse cache; `None` parses every statement from scratch.
    plan_cache: Option<Arc<PlanCache>>,
}

impl Engine {
    /// New engine with the paper-version fault profile.
    pub fn new(dialect: EngineDialect) -> Engine {
        Engine::with_faults(dialect, FaultProfile::default())
    }

    /// New engine with an explicit fault profile.
    pub fn with_faults(dialect: EngineDialect, faults: FaultProfile) -> Engine {
        Engine::with_coverage(dialect, faults, Engine::coverage_universe(dialect))
    }

    /// The coverage recorder a fresh engine of `dialect` starts with: the
    /// dialect's fixed universe of feature and decision points, none hit.
    pub fn coverage_universe(dialect: EngineDialect) -> Coverage {
        let mut coverage = Coverage::new();
        register_coverage_universe(&mut coverage, dialect);
        coverage
    }

    /// New engine that keeps accumulating into `coverage`, the recorder of
    /// an engine of the same dialect this one replaces (a connection
    /// reset). The coverage universe is not registered again: `coverage`
    /// already holds it.
    pub fn with_coverage(
        dialect: EngineDialect,
        faults: FaultProfile,
        coverage: Coverage,
    ) -> Engine {
        let mut extensions = BTreeSet::new();
        if dialect == EngineDialect::Sqlite {
            // The CLI bundles the series extension (paper Listing 16).
            extensions.insert("series".to_string());
        }
        Engine {
            dialect,
            catalog: Catalog::new(),
            config: ConfigStore::new(dialect),
            faults,
            coverage,
            extensions,
            user_functions: BTreeSet::new(),
            vfs: BTreeMap::new(),
            txn_snapshot: None,
            txn_inserted: BTreeSet::new(),
            txn_updated: BTreeSet::new(),
            poisoned_tables: BTreeSet::new(),
            crashed: false,
            step_budget: DEFAULT_STEP_BUDGET,
            exec_strategy: ExecStrategy::default(),
            plan_cache: None,
        }
    }

    /// Select the executor algorithms (hash-based vs the retained naive
    /// oracle). Both strategies are required to produce byte-identical
    /// results; `Naive` exists for differential testing.
    pub fn set_exec_strategy(&mut self, strategy: ExecStrategy) {
        self.exec_strategy = strategy;
    }

    /// The current executor strategy.
    pub fn exec_strategy(&self) -> ExecStrategy {
        self.exec_strategy
    }

    /// Share a statement-plan cache with this engine. Repeated statement
    /// texts (loops, replayed files, sibling engines of the same dialect)
    /// then parse once process-wide.
    pub fn set_plan_cache(&mut self, cache: Arc<PlanCache>) {
        self.plan_cache = Some(cache);
    }

    /// The attached plan cache, if any.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.plan_cache.as_ref()
    }

    /// This engine's dialect.
    pub fn dialect(&self) -> EngineDialect {
        self.dialect
    }

    /// Has a simulated crash terminated this engine?
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Adjust the execution budget (hang sensitivity).
    pub fn set_step_budget(&mut self, budget: u64) {
        self.step_budget = budget;
    }

    /// Access accumulated coverage.
    pub fn coverage(&self) -> &Coverage {
        &self.coverage
    }

    /// Mutable coverage access (for reset between experiments).
    pub fn coverage_mut(&mut self) -> &mut Coverage {
        &mut self.coverage
    }

    /// Register a file in the simulated filesystem for COPY (the paper's
    /// "File Paths" environment dependency).
    pub fn register_file(&mut self, path: &str, csv_lines: Vec<String>) {
        self.vfs.insert(path.to_string(), csv_lines);
    }

    /// Register an available extension / shared library (paper's
    /// "Extension" dependency; e.g. `regresslib` for Listing 7).
    pub fn register_extension(&mut self, name: &str) {
        self.extensions.insert(name.to_lowercase());
    }

    /// Is an extension loaded?
    pub fn has_extension(&self, name: &str) -> bool {
        self.extensions.contains(&name.to_lowercase())
    }

    /// Execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, EngineError> {
        if self.crashed {
            return Err(EngineError::fatal(
                "connection to server was lost (server crashed earlier)",
            ));
        }
        let parsed = match &self.plan_cache {
            Some(cache) => cache.parse(self.dialect.text_dialect(), sql),
            None => parse_statement(sql, self.dialect.text_dialect()).map(Arc::new),
        };
        let stmt = match parsed {
            Ok(s) => s,
            Err(e) => {
                self.coverage.hit_branch("err:Syntax");
                return Err(EngineError::from(e));
            }
        };
        let result = self.execute_stmt(&stmt);
        if let Err(e) = &result {
            self.coverage.hit_branch(&format!("err:{:?}", e.kind));
            if e.kind == ErrorKind::Fatal {
                self.crashed = true;
            }
            // A statement error aborts the implicit statement, and on
            // PostgreSQL it also aborts the open transaction.
            if self.dialect == EngineDialect::Postgres
                && self.txn_snapshot.is_some()
                && !e.kind.is_abnormal()
            {
                self.coverage.hit_branch("txn:aborted-by-error");
            }
        }
        result
    }

    /// Execute a parsed statement.
    pub fn execute_stmt(&mut self, stmt: &Stmt) -> Result<QueryResult, EngineError> {
        self.coverage.hit_line(&format!("stmt:{}", stmt_tag(stmt)));
        match stmt {
            Stmt::Select(q) | Stmt::Values(q) => {
                let rel = self.with_env(|env| run_query(q, env, None))?;
                Ok(QueryResult::from_relation(rel))
            }
            Stmt::Insert(ins) => self.insert(ins),
            Stmt::Update(u) => self.update(u),
            Stmt::Delete(d) => self.delete(d),
            Stmt::CreateTable(ct) => self.create_table(ct),
            Stmt::DropTable { names, if_exists } => self.drop_table(names, *if_exists),
            Stmt::AlterTable { table, action } => self.alter_table(table, action),
            Stmt::CreateIndex { name, table, columns, unique, if_not_exists } => {
                self.create_index(name, table, columns, *unique, *if_not_exists)
            }
            Stmt::DropIndex { name, if_exists } => {
                if self.catalog.indexes.remove(name).is_none() && !if_exists {
                    return Err(EngineError::catalog(format!("no such index: {name}")));
                }
                Ok(QueryResult::ok())
            }
            Stmt::CreateView { name, columns, query, or_replace } => {
                if self.catalog.views.contains_key(name) && !or_replace {
                    return Err(EngineError::catalog(format!("view {name} already exists")));
                }
                self.catalog
                    .views
                    .insert(name.clone(), View { columns: columns.clone(), query: query.clone() });
                Ok(QueryResult::ok())
            }
            Stmt::DropView { name, if_exists } => {
                if self.catalog.views.remove(name).is_none() && !if_exists {
                    return Err(EngineError::catalog(format!("no such view: {name}")));
                }
                Ok(QueryResult::ok())
            }
            Stmt::CreateSchema { name, if_not_exists } => {
                if self.dialect == EngineDialect::Sqlite {
                    return Err(EngineError::syntax("near \"SCHEMA\": syntax error"));
                }
                if self.catalog.schemas.contains_key(name) {
                    if *if_not_exists {
                        return Ok(QueryResult::ok());
                    }
                    return Err(EngineError::catalog(format!("schema \"{name}\" already exists")));
                }
                self.catalog.schemas.insert(name.clone(), ());
                Ok(QueryResult::ok())
            }
            Stmt::AlterSchema { name, rename_to } => self.alter_schema(name, rename_to),
            Stmt::DropSchema { name, if_exists, .. } => {
                if self.dialect == EngineDialect::Sqlite {
                    return Err(EngineError::syntax("near \"SCHEMA\": syntax error"));
                }
                if self.catalog.schemas.remove(name).is_none() && !if_exists {
                    return Err(EngineError::catalog(format!("schema \"{name}\" does not exist")));
                }
                Ok(QueryResult::ok())
            }
            Stmt::CreateFunction { name, language, library } => {
                self.create_function(name, language, library.as_deref())
            }
            Stmt::Begin => self.begin(),
            Stmt::Commit => self.commit(),
            Stmt::Rollback => self.rollback(),
            Stmt::Savepoint { .. } | Stmt::Release { .. } => Ok(QueryResult::ok()),
            Stmt::Set { name, value } => {
                let rendered = match value {
                    SetValue::Ident(s) => s.clone(),
                    SetValue::Default => "default".to_string(),
                    SetValue::Expr(e) => {
                        let v = self.with_env(|env| {
                            let ctx = EvalCtx::constant(env);
                            eval(e, &ctx)
                        })?;
                        render_plain(&v)
                    }
                };
                self.config.set(name, &rendered)?;
                Ok(QueryResult::ok())
            }
            Stmt::Pragma { name, value } => {
                self.config.pragma(name, value.as_deref())?;
                // PRAGMA table_info(t) returns the column list.
                if name.eq_ignore_ascii_case("table_info") {
                    if let Some(t) = value.as_deref().and_then(|v| self.catalog.table(v)) {
                        let rows = t
                            .columns
                            .iter()
                            .enumerate()
                            .map(|(i, c)| {
                                vec![
                                    Value::Integer(i as i64),
                                    Value::text(c.name.as_str()),
                                    Value::text(c.ty.name()),
                                ]
                            })
                            .collect();
                        return Ok(QueryResult {
                            columns: vec!["cid".into(), "name".into(), "type".into()],
                            rows,
                            affected: 0,
                        });
                    }
                }
                Ok(QueryResult::ok())
            }
            Stmt::Explain { inner, .. } => {
                let text = crate::explain::render_plan(self.dialect, inner, &self.config);
                Ok(QueryResult {
                    columns: vec!["explain".to_string()],
                    rows: text.into_iter().map(|l| vec![Value::text(l)]).collect(),
                    affected: 0,
                })
            }
            Stmt::Copy { table, path, from } => self.copy(table, path, *from),
            Stmt::Show { name } => self.show(name),
            Stmt::Use { .. } => Ok(QueryResult::ok()),
            Stmt::Truncate { table } => {
                let key = self
                    .catalog
                    .resolve_table_key(table)
                    .ok_or_else(|| EngineError::catalog(format!("no such table: {table}")))?;
                let n = {
                    let t = self.catalog.tables.get_mut(&key).expect("resolved");
                    let n = t.rows.len();
                    t.rows.clear();
                    t.invalidate_constraint_indexes();
                    n
                };
                Ok(QueryResult { affected: n, ..QueryResult::ok() })
            }
            Stmt::LoadExtension { name } => {
                const AVAILABLE: [&str; 6] =
                    ["json", "parquet", "httpfs", "icu", "tpch", "sqlsmith"];
                if AVAILABLE.contains(&name.to_lowercase().as_str()) {
                    self.extensions.insert(name.to_lowercase());
                    Ok(QueryResult::ok())
                } else {
                    Err(EngineError::new(
                        ErrorKind::ExtensionMissing,
                        format!("IO Error: extension \"{name}\" not found"),
                    ))
                }
            }
            Stmt::Vacuum | Stmt::Analyze { .. } => Ok(QueryResult::ok()),
        }
    }

    /// Run a closure with a read-only query environment.
    fn with_env<T>(
        &mut self,
        f: impl FnOnce(&QueryEnv<'_>) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let mut env = QueryEnv::new(
            self.dialect,
            &self.catalog,
            &self.config,
            &self.faults,
            &self.extensions,
            &self.user_functions,
            self.step_budget,
        );
        env.strategy = self.exec_strategy;
        let result = f(&env);
        for (is_line, point) in env.hits.borrow().iter() {
            if *is_line {
                self.coverage.hit_line(point);
            } else {
                self.coverage.hit_branch(point);
            }
        }
        result
    }

    // ---- DML ----------------------------------------------------------------

    fn insert(&mut self, ins: &InsertStmt) -> Result<QueryResult, EngineError> {
        let key = self
            .catalog
            .resolve_table_key(&ins.table)
            .ok_or_else(|| self.no_such_table(&ins.table))?;

        // Resolve target column indexes.
        let (col_indexes, col_types): (Vec<usize>, Vec<DataType>) = {
            let table = self.catalog.tables.get(&key).expect("resolved");
            if ins.columns.is_empty() {
                (
                    (0..table.columns.len()).collect(),
                    table.columns.iter().map(|c| c.ty.clone()).collect(),
                )
            } else {
                let mut idxs = Vec::with_capacity(ins.columns.len());
                let mut tys = Vec::with_capacity(ins.columns.len());
                for c in &ins.columns {
                    let i = table.column_index(c).ok_or_else(|| {
                        EngineError::catalog(format!("table {} has no column named {c}", ins.table))
                    })?;
                    idxs.push(i);
                    tys.push(table.columns[i].ty.clone());
                }
                (idxs, tys)
            }
        };

        // Evaluate source rows.
        let source_rows: Vec<Vec<Value>> = match &ins.source {
            InsertSource::DefaultValues => vec![Vec::new()],
            InsertSource::Values(rows) => {
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    let vals = self.with_env(|env| {
                        let ctx = EvalCtx::constant(env);
                        row.iter().map(|e| eval(e, &ctx)).collect::<Result<Vec<_>, _>>()
                    })?;
                    out.push(vals);
                }
                out
            }
            InsertSource::Query(q) => {
                let rel = self.with_env(|env| run_query(q, env, None))?;
                rel.rows
            }
        };

        // Coerce and write: one defaults template and one coercion pass per
        // statement. Under the hash strategy the UNIQUE/PK probes go through
        // the persistent constraint indexes; the naive strategy keeps the
        // full scan below as the differential oracle.
        let dialect = self.dialect;
        let use_index = self.exec_strategy == ExecStrategy::Hash && {
            let table = self.catalog.tables.get_mut(&key).expect("resolved");
            let constrained = table.has_constrained_columns();
            if constrained {
                table.ensure_constraint_indexes();
            }
            constrained
        };
        let mut staged: Vec<Vec<Value>> = Vec::with_capacity(source_rows.len());
        // Grouping keys staged so far, per constrained column: within one
        // multi-row INSERT, later rows must see earlier staged rows as
        // potential UNIQUE clashes.
        let mut staged_keys: HashMap<usize, HashSet<GroupKey>> = HashMap::new();
        let mut staged_unsafe: HashSet<usize> = HashSet::new();
        {
            let table = self.catalog.tables.get(&key).expect("resolved");
            let defaults: Vec<Value> =
                table.columns.iter().map(|c| c.default.clone().unwrap_or(Value::Null)).collect();
            for src in &source_rows {
                if !matches!(ins.source, InsertSource::DefaultValues)
                    && src.len() != col_indexes.len()
                {
                    return Err(EngineError::syntax(format!(
                        "table {} has {} columns but {} values were supplied",
                        ins.table,
                        col_indexes.len(),
                        src.len()
                    )));
                }
                let mut row = defaults.clone();
                for ((slot, ty), v) in col_indexes.iter().zip(col_types.iter()).zip(src.iter()) {
                    row[*slot] = coerce_for_storage(dialect, v.clone(), ty)?;
                }
                // Constraints. Column order and the NOT-NULL-before-UNIQUE
                // precedence decide which message surfaces; both strategies
                // walk them identically.
                for (i, c) in table.columns.iter().enumerate() {
                    if (c.not_null || c.primary_key) && row[i].is_null() {
                        return Err(EngineError::new(
                            ErrorKind::Constraint,
                            format!("NOT NULL constraint failed: {}.{}", ins.table, c.name),
                        ));
                    }
                    if c.unique || c.primary_key {
                        let v = &row[i];
                        let clash = if v.is_null() {
                            // NULL is distinct from everything, itself
                            // included (the scan's `!r[i].is_null()` filter
                            // can never pair it either).
                            false
                        } else if use_index {
                            match (table.constraint_index(i), v.try_group_key()) {
                                (Some(ix), Some(k)) => {
                                    ix.contains_key(&k)
                                        || ix
                                            .unsafe_rows()
                                            .iter()
                                            .any(|&r| table.rows[r as usize][i].sql_grouping_eq(v))
                                        || staged_keys.get(&i).is_some_and(|s| s.contains(&k))
                                        || (staged_unsafe.contains(&i)
                                            && staged.iter().any(|r| {
                                                !r[i].is_null() && r[i].sql_grouping_eq(v)
                                            }))
                                }
                                // Hash-unsafe probe value (NaN, whole floats
                                // ≥ 2^53): only the scan's order-dependent
                                // merging is defined for these.
                                _ => table
                                    .rows
                                    .iter()
                                    .chain(staged.iter())
                                    .any(|r| !r[i].is_null() && r[i].sql_grouping_eq(v)),
                            }
                        } else {
                            table
                                .rows
                                .iter()
                                .chain(staged.iter())
                                .any(|r| !r[i].is_null() && r[i].sql_grouping_eq(v))
                        };
                        if clash && !ins.or_replace {
                            return Err(EngineError::new(
                                ErrorKind::Constraint,
                                format!("UNIQUE constraint failed: {}.{}", ins.table, c.name),
                            ));
                        }
                    }
                }
                if use_index {
                    for (i, c) in table.columns.iter().enumerate() {
                        if (c.unique || c.primary_key) && !row[i].is_null() {
                            match row[i].try_group_key() {
                                Some(k) => {
                                    staged_keys.entry(i).or_default().insert(k);
                                }
                                None => {
                                    staged_unsafe.insert(i);
                                }
                            }
                        }
                    }
                }
                staged.push(row);
            }
        }
        let n = staged.len();
        let table = self.catalog.tables.get_mut(&key).expect("resolved");
        let appended_from = table.rows.len();
        table.rows.reserve(staged.len());
        table.rows.extend(staged);
        table.index_append_rows(appended_from);
        if self.txn_snapshot.is_some() {
            self.txn_inserted.insert(key);
        }
        Ok(QueryResult { affected: n, ..QueryResult::ok() })
    }

    fn update(&mut self, u: &UpdateStmt) -> Result<QueryResult, EngineError> {
        let key =
            self.catalog.resolve_table_key(&u.table).ok_or_else(|| self.no_such_table(&u.table))?;

        // Paper Listing 13: UPDATE after COMMIT of an insert+update txn
        // crashed DuckDB.
        if self.dialect == EngineDialect::Duckdb
            && self.faults.is_enabled(FaultId::DuckdbUpdateAfterCommitCrash)
            && self.poisoned_tables.contains(&key)
            && self.txn_snapshot.is_none()
        {
            return Err(EngineError::fatal(
                "INTERNAL Error: attempted to update a row that was updated in a \
                 committed transaction (row-group version mismatch)",
            ));
        }

        // Plan updates against an immutable view, then apply.
        let dialect = self.dialect;
        // Index fast path: `WHERE col = literal` on a UNIQUE/PK column
        // resolves the touched rows with one probe instead of an O(rows)
        // scan. `plan_eq_probe` only claims predicates whose naive
        // evaluation provably cannot error or diverge; the scan below stays
        // the differential oracle under `ExecStrategy::Naive`.
        let probe: Option<Vec<usize>> = if self.exec_strategy == ExecStrategy::Hash {
            let table = self.catalog.tables.get_mut(&key).expect("resolved");
            plan_eq_probe(table, dialect, &u.table, u.where_clause.as_ref())
        } else {
            None
        };
        let (assignments_idx, planned): (Vec<usize>, Vec<(usize, Vec<Value>)>) = {
            let table = self.catalog.tables.get(&key).expect("resolved");
            let mut idxs = Vec::with_capacity(u.assignments.len());
            for (c, _) in &u.assignments {
                idxs.push(
                    table
                        .column_index(c)
                        .ok_or_else(|| EngineError::catalog(format!("no such column: {c}")))?,
                );
            }
            let cols: Vec<crate::env::ColBinding> = table
                .columns
                .iter()
                .map(|c| crate::env::ColBinding::qualified(&u.table, &c.name))
                .collect();
            let mut planned = Vec::new();
            let mut env = QueryEnv::new(
                dialect,
                &self.catalog,
                &self.config,
                &self.faults,
                &self.extensions,
                &self.user_functions,
                self.step_budget,
            );
            env.strategy = self.exec_strategy;
            let binder = crate::eval::Binder::new();
            if let Some(cands) = &probe {
                // Tick parity with the naive scan: each scanned row costs 1
                // loop tick + 3 eval ticks (Binary, Column, Literal). Ticks
                // replay incrementally so a budget exhaustion surfaces at
                // the same point — before a matching row's assignments,
                // after every preceding row — as the oracle's would.
                if !table.rows.is_empty() {
                    env.cov_line(crate::eval::op_cov_key(BinaryOp::Eq));
                }
                let mut ticked = 0u64;
                for &ri in cands {
                    env.tick(EQ_SCAN_TICKS_PER_ROW * (ri as u64 + 1 - ticked))?;
                    ticked = ri as u64 + 1;
                    let row = &table.rows[ri];
                    let scope = crate::env::Scope { cols: &cols, row, parent: None };
                    let ctx = EvalCtx {
                        env: &env,
                        scope: Some(&scope),
                        agg: None,
                        binder: Some(&binder),
                    };
                    let mut vals = Vec::with_capacity(u.assignments.len());
                    for (ai, (_, e)) in u.assignments.iter().enumerate() {
                        let v = eval(e, &ctx)?;
                        let ty = table.columns[idxs[ai]].ty.clone();
                        vals.push(coerce_for_storage(dialect, v, &ty)?);
                    }
                    planned.push((ri, vals));
                }
                env.tick(EQ_SCAN_TICKS_PER_ROW * (table.rows.len() as u64 - ticked))?;
            } else {
                for (ri, row) in table.rows.iter().enumerate() {
                    env.tick(1)?;
                    let scope = crate::env::Scope { cols: &cols, row, parent: None };
                    let ctx = EvalCtx {
                        env: &env,
                        scope: Some(&scope),
                        agg: None,
                        binder: Some(&binder),
                    };
                    let hit = match &u.where_clause {
                        Some(p) => {
                            crate::value::truthiness(&eval(p, &ctx)?) == crate::value::Truth::True
                        }
                        None => true,
                    };
                    if hit {
                        let mut vals = Vec::with_capacity(u.assignments.len());
                        for (ai, (_, e)) in u.assignments.iter().enumerate() {
                            let v = eval(e, &ctx)?;
                            let ty = table.columns[idxs[ai]].ty.clone();
                            vals.push(coerce_for_storage(dialect, v, &ty)?);
                        }
                        planned.push((ri, vals));
                    }
                }
            }
            for (is_line, point) in env.hits.borrow().iter() {
                if *is_line {
                    self.coverage.hit_line(point);
                } else {
                    self.coverage.hit_branch(point);
                }
            }
            (idxs, planned)
        };

        let n = planned.len();
        let table = self.catalog.tables.get_mut(&key).expect("resolved");
        for (ri, vals) in planned {
            for (ai, v) in vals.into_iter().enumerate() {
                let col = assignments_idx[ai];
                table.index_replace_cell(ri, col, &v);
                table.rows[ri][col] = v;
            }
        }
        if self.txn_snapshot.is_some() {
            self.txn_updated.insert(key);
        }
        Ok(QueryResult { affected: n, ..QueryResult::ok() })
    }

    fn delete(&mut self, d: &DeleteStmt) -> Result<QueryResult, EngineError> {
        let key =
            self.catalog.resolve_table_key(&d.table).ok_or_else(|| self.no_such_table(&d.table))?;
        let dialect = self.dialect;
        // Same index fast path as update(); see plan_eq_probe.
        let probe: Option<Vec<usize>> = if self.exec_strategy == ExecStrategy::Hash {
            let table = self.catalog.tables.get_mut(&key).expect("resolved");
            plan_eq_probe(table, dialect, &d.table, d.where_clause.as_ref())
        } else {
            None
        };
        let keep: Vec<bool> = {
            let table = self.catalog.tables.get(&key).expect("resolved");
            if let Some(cands) = &probe {
                // Tick parity with the naive scan below (whose env — and
                // coverage buffer — is dropped without being applied; this
                // one matches by carrying no hits at all).
                let env = QueryEnv::new(
                    dialect,
                    &self.catalog,
                    &self.config,
                    &self.faults,
                    &self.extensions,
                    &self.user_functions,
                    self.step_budget,
                );
                env.tick(EQ_SCAN_TICKS_PER_ROW * table.rows.len() as u64)?;
                let mut keep = vec![true; table.rows.len()];
                for &ri in cands {
                    keep[ri] = false;
                }
                keep
            } else {
                let cols: Vec<crate::env::ColBinding> = table
                    .columns
                    .iter()
                    .map(|c| crate::env::ColBinding::qualified(&d.table, &c.name))
                    .collect();
                let mut env = QueryEnv::new(
                    dialect,
                    &self.catalog,
                    &self.config,
                    &self.faults,
                    &self.extensions,
                    &self.user_functions,
                    self.step_budget,
                );
                env.strategy = self.exec_strategy;
                let binder = crate::eval::Binder::new();
                let mut keep = Vec::with_capacity(table.rows.len());
                for row in &table.rows {
                    env.tick(1)?;
                    let retain = match &d.where_clause {
                        Some(p) => {
                            let scope = crate::env::Scope { cols: &cols, row, parent: None };
                            let ctx = EvalCtx {
                                env: &env,
                                scope: Some(&scope),
                                agg: None,
                                binder: Some(&binder),
                            };
                            crate::value::truthiness(&eval(p, &ctx)?) != crate::value::Truth::True
                        }
                        None => false,
                    };
                    keep.push(retain);
                }
                keep
            }
        };
        let table = self.catalog.tables.get_mut(&key).expect("resolved");
        let before = table.rows.len();
        let mut it = keep.iter();
        table.rows.retain(|_| *it.next().expect("aligned"));
        table.index_remap_after_retain(&keep);
        Ok(QueryResult { affected: before - table.rows.len(), ..QueryResult::ok() })
    }

    // ---- DDL ------------------------------------------------------------------

    fn create_table(&mut self, ct: &CreateTableStmt) -> Result<QueryResult, EngineError> {
        if self.catalog.tables.contains_key(&ct.name)
            || self.catalog.resolve_table_key(&ct.name).is_some()
        {
            if ct.if_not_exists {
                return Ok(QueryResult::ok());
            }
            return Err(EngineError::catalog(format!("table {} already exists", ct.name)));
        }
        let mut columns = Vec::with_capacity(ct.columns.len());
        for c in &ct.columns {
            let ty = resolve_type(&c.type_name, self.dialect)?;
            self.coverage.hit_line(&format!("type:{}", ty.name()));
            let default = match &c.default {
                Some(e) => Some(self.with_env(|env| {
                    let ctx = EvalCtx::constant(env);
                    eval(e, &ctx)
                })?),
                None => None,
            };
            columns.push(Column {
                name: c.name.clone(),
                ty,
                not_null: c.not_null,
                primary_key: c.primary_key,
                unique: c.unique,
                default,
            });
        }
        let mut table = Table { columns, rows: Vec::new(), cindex: Default::default() };
        if let Some(q) = &ct.as_query {
            let rel = self.with_env(|env| run_query(q, env, None))?;
            table.columns = rel.cols.iter().map(|c| Column::new(&c.name, DataType::Any)).collect();
            table.rows = rel.rows;
        }
        self.catalog.tables.insert(ct.name.clone(), table);
        Ok(QueryResult::ok())
    }

    fn drop_table(
        &mut self,
        names: &[String],
        if_exists: bool,
    ) -> Result<QueryResult, EngineError> {
        for name in names {
            match self.catalog.resolve_table_key(name) {
                Some(key) => {
                    self.catalog.tables.remove(&key);
                    self.poisoned_tables.remove(&key);
                    self.catalog.indexes.retain(|_, ix| !ix.table.eq_ignore_ascii_case(name));
                }
                None if if_exists => {}
                None => return Err(self.no_such_table(name)),
            }
        }
        Ok(QueryResult::ok())
    }

    fn alter_table(
        &mut self,
        name: &str,
        action: &AlterTableAction,
    ) -> Result<QueryResult, EngineError> {
        let key = self.catalog.resolve_table_key(name).ok_or_else(|| self.no_such_table(name))?;
        let dialect = self.dialect;
        match action {
            AlterTableAction::AddColumn(def) => {
                let ty = resolve_type(&def.type_name, dialect)?;
                let default = match &def.default {
                    Some(e) => Some(self.with_env(|env| {
                        let ctx = EvalCtx::constant(env);
                        eval(e, &ctx)
                    })?),
                    None => None,
                };
                let table = self.catalog.tables.get_mut(&key).expect("resolved");
                table.invalidate_constraint_indexes();
                if table.column_index(&def.name).is_some() {
                    return Err(EngineError::catalog(format!(
                        "duplicate column name: {}",
                        def.name
                    )));
                }
                let fill = default.clone().unwrap_or(Value::Null);
                table.columns.push(Column {
                    name: def.name.clone(),
                    ty,
                    not_null: def.not_null,
                    primary_key: false,
                    unique: def.unique,
                    default,
                });
                for row in &mut table.rows {
                    row.push(fill.clone());
                }
            }
            AlterTableAction::DropColumn { name: col, if_exists } => {
                let table = self.catalog.tables.get_mut(&key).expect("resolved");
                table.invalidate_constraint_indexes();
                match table.column_index(col) {
                    Some(i) => {
                        table.columns.remove(i);
                        for row in &mut table.rows {
                            row.remove(i);
                        }
                    }
                    None if *if_exists => {}
                    None => return Err(EngineError::catalog(format!("no such column: {col}"))),
                }
            }
            AlterTableAction::RenameTo(new) => {
                let table = self.catalog.tables.remove(&key).expect("resolved");
                self.catalog.tables.insert(new.clone(), table);
            }
            AlterTableAction::RenameColumn { old, new } => {
                let table = self.catalog.tables.get_mut(&key).expect("resolved");
                match table.column_index(old) {
                    Some(i) => table.columns[i].name = new.clone(),
                    None => return Err(EngineError::catalog(format!("no such column: {old}"))),
                }
            }
        }
        Ok(QueryResult::ok())
    }

    fn alter_schema(&mut self, name: &str, rename_to: &str) -> Result<QueryResult, EngineError> {
        match self.dialect {
            EngineDialect::Duckdb => {
                // Paper Listing 12: 0.7.0 crashed; 0.6.1 raised a
                // Not implemented Error.
                if self.faults.is_enabled(FaultId::DuckdbAlterSchemaCrash) {
                    Err(EngineError::fatal(
                        "INTERNAL Error: unhandled ALTER SCHEMA RENAME path (segfault)",
                    ))
                } else {
                    Err(EngineError::new(
                        ErrorKind::NotImplemented,
                        "Not implemented Error: ALTER SCHEMA ... RENAME TO",
                    ))
                }
            }
            EngineDialect::Postgres => {
                if self.catalog.schemas.remove(name).is_none() {
                    return Err(EngineError::catalog(format!("schema \"{name}\" does not exist")));
                }
                self.catalog.schemas.insert(rename_to.to_string(), ());
                Ok(QueryResult::ok())
            }
            EngineDialect::Mysql => Err(EngineError::new(
                ErrorKind::UnsupportedStatement,
                "ALTER SCHEMA ... RENAME is not supported",
            )),
            EngineDialect::Sqlite => Err(EngineError::syntax("near \"SCHEMA\": syntax error")),
        }
    }

    fn create_index(
        &mut self,
        name: &str,
        table: &str,
        columns: &[String],
        unique: bool,
        if_not_exists: bool,
    ) -> Result<QueryResult, EngineError> {
        if self.catalog.indexes.contains_key(name) {
            if if_not_exists {
                return Ok(QueryResult::ok());
            }
            return Err(EngineError::catalog(format!("index {name} already exists")));
        }
        let key = self.catalog.resolve_table_key(table).ok_or_else(|| self.no_such_table(table))?;
        {
            let t = self.catalog.tables.get(&key).expect("resolved");
            for c in columns {
                if t.column_index(c).is_none() {
                    return Err(EngineError::catalog(format!("no such column: {c}")));
                }
            }
        }
        self.catalog
            .indexes
            .insert(name.to_string(), Index { table: key, columns: columns.to_vec(), unique });
        Ok(QueryResult::ok())
    }

    fn create_function(
        &mut self,
        name: &str,
        language: &str,
        library: Option<&str>,
    ) -> Result<QueryResult, EngineError> {
        // Paper Listing 7: C-language functions load a shared library; the
        // test fails when the extension file is absent.
        if language == "c" {
            let lib = library.unwrap_or("");
            if !self.extensions.contains(&lib.to_lowercase()) {
                return Err(EngineError::new(
                    ErrorKind::ExtensionMissing,
                    format!("could not access file \"{lib}\": No such file or directory"),
                ));
            }
        }
        self.user_functions.insert(name.to_lowercase());
        Ok(QueryResult::ok())
    }

    // ---- transactions -----------------------------------------------------------

    fn begin(&mut self) -> Result<QueryResult, EngineError> {
        if self.txn_snapshot.is_some() {
            if self.dialect.begin_implicitly_commits() {
                self.coverage.hit_branch("txn:implicit-commit");
                self.commit_inner();
            } else if self.dialect == EngineDialect::Postgres {
                // PostgreSQL: WARNING, transaction continues.
                return Ok(QueryResult::ok());
            } else {
                return Err(EngineError::new(
                    ErrorKind::Transaction,
                    "cannot start a transaction within a transaction",
                ));
            }
        }
        self.txn_snapshot = Some(self.catalog.clone());
        self.txn_inserted.clear();
        self.txn_updated.clear();
        Ok(QueryResult::ok())
    }

    fn commit_inner(&mut self) {
        self.txn_snapshot = None;
        // Listing 13 bookkeeping: tables both inserted and updated in the
        // transaction become poisoned on DuckDB-with-fault.
        let both: Vec<String> =
            self.txn_inserted.intersection(&self.txn_updated).cloned().collect();
        for t in both {
            self.poisoned_tables.insert(t);
        }
        self.txn_inserted.clear();
        self.txn_updated.clear();
    }

    fn commit(&mut self) -> Result<QueryResult, EngineError> {
        if self.txn_snapshot.is_none() {
            return match self.dialect {
                EngineDialect::Mysql | EngineDialect::Postgres => Ok(QueryResult::ok()),
                _ => Err(EngineError::new(
                    ErrorKind::Transaction,
                    "cannot commit - no transaction is active",
                )),
            };
        }
        self.coverage.hit_branch("txn:commit");
        self.commit_inner();
        Ok(QueryResult::ok())
    }

    fn rollback(&mut self) -> Result<QueryResult, EngineError> {
        match self.txn_snapshot.take() {
            Some(snapshot) => {
                self.coverage.hit_branch("txn:rollback");
                self.catalog = snapshot;
                self.txn_inserted.clear();
                self.txn_updated.clear();
                Ok(QueryResult::ok())
            }
            None => match self.dialect {
                EngineDialect::Mysql | EngineDialect::Postgres => Ok(QueryResult::ok()),
                _ => Err(EngineError::new(
                    ErrorKind::Transaction,
                    "cannot rollback - no transaction is active",
                )),
            },
        }
    }

    // ---- misc ---------------------------------------------------------------------

    fn copy(&mut self, table: &str, path: &str, from: bool) -> Result<QueryResult, EngineError> {
        if !from {
            return Ok(QueryResult::ok()); // COPY TO is a no-op sink
        }
        let key = self.catalog.resolve_table_key(table).ok_or_else(|| self.no_such_table(table))?;
        let Some(lines) = self.vfs.get(path).cloned() else {
            // The paper's "File Paths" environment dependency.
            return Err(EngineError::new(
                ErrorKind::FileNotFound,
                format!("could not open file \"{path}\" for reading: No such file or directory"),
            ));
        };
        let dialect = self.dialect;
        let t = self.catalog.tables.get_mut(&key).expect("resolved");
        // Rows land directly (and stay on a mid-file error), so drop any
        // built indexes up front.
        t.invalidate_constraint_indexes();
        let mut n = 0usize;
        for line in lines {
            let parts: Vec<&str> = line.split(',').collect();
            if parts.len() != t.columns.len() {
                return Err(EngineError::conversion(format!(
                    "COPY row has {} fields, table has {} columns",
                    parts.len(),
                    t.columns.len()
                )));
            }
            let mut row = Vec::with_capacity(parts.len());
            for (part, col) in parts.iter().zip(&t.columns) {
                let v = if part.eq_ignore_ascii_case("\\n") || part.is_empty() {
                    Value::Null
                } else {
                    Value::text(*part)
                };
                row.push(coerce_for_storage(dialect, v, &col.ty)?);
            }
            t.rows.push(row);
            n += 1;
        }
        Ok(QueryResult { affected: n, ..QueryResult::ok() })
    }

    fn show(&mut self, name: &str) -> Result<QueryResult, EngineError> {
        if name.eq_ignore_ascii_case("tables") {
            let rows = self.catalog.tables.keys().map(|k| vec![Value::text(k.as_str())]).collect();
            return Ok(QueryResult { columns: vec!["name".into()], rows, affected: 0 });
        }
        match self.config.get(name) {
            Some(v) => Ok(QueryResult {
                columns: vec![name.to_string()],
                rows: vec![vec![Value::text(v)]],
                affected: 0,
            }),
            None => Err(EngineError::new(
                ErrorKind::UnknownConfig,
                format!("unrecognized configuration parameter \"{name}\""),
            )),
        }
    }

    fn no_such_table(&self, name: &str) -> EngineError {
        let msg = match self.dialect {
            EngineDialect::Sqlite => format!("no such table: {name}"),
            EngineDialect::Postgres => format!("relation \"{name}\" does not exist"),
            EngineDialect::Duckdb => {
                format!("Catalog Error: Table with name {name} does not exist!")
            }
            EngineDialect::Mysql => format!("Table 'main.{name}' doesn't exist"),
        };
        EngineError::catalog(msg)
    }
}

/// Coerce a value for storage into a column of the given type.
fn coerce_for_storage(
    dialect: EngineDialect,
    v: Value,
    ty: &DataType,
) -> Result<Value, EngineError> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    if dialect.dynamic_typing() {
        // SQLite stores whatever arrives, applying affinity only when the
        // conversion is lossless.
        return Ok(match (ty, &v) {
            (DataType::Integer, Value::Text(s)) => match s.trim().parse::<i64>() {
                Ok(i) => Value::Integer(i),
                Err(_) => v,
            },
            (DataType::Float, Value::Integer(i)) => Value::Float(*i as f64),
            (DataType::Text { .. }, Value::Integer(_) | Value::Float(_)) => {
                Value::text(render_plain(&v))
            }
            _ => v,
        });
    }
    cast_value(dialect, v, ty)
}

/// Claim a `WHERE col = literal` predicate for the UNIQUE/PK constraint
/// index, returning the ascending row positions it matches — or `None`
/// whenever the predicate (or the column's stored data) falls outside the
/// subset where the probe is provably equivalent to the naive per-row
/// evaluation, so errors, coercions, and collations keep surfacing from
/// the scan:
///
/// * the column must resolve unambiguously to this table (wrong qualifier,
///   unknown or duplicated names must error through the scan);
/// * it must be UNIQUE/PK (that's what the index covers);
/// * a NULL literal matches nothing and can never error — empty probe;
/// * numeric literals only probe columns that have only ever stored
///   numerics (text-vs-numeric comparison errors on pg/duckdb and coerces
///   on mysql/sqlite), and only within f64's exact-integer range, since
///   `=` compares numerics through f64 while the index keys exactly;
/// * text literals only probe all-text columns and never on MySQL, whose
///   `=` is case-insensitive while the index keys exact bytes;
/// * stored hash-unsafe values can't `=`-match any claimed literal: NaN
///   compares Unknown, and whole floats ≥ 2^53 are f64-unequal to every
///   in-range literal.
fn plan_eq_probe(
    table: &mut Table,
    dialect: EngineDialect,
    stmt_table: &str,
    where_clause: Option<&Expr>,
) -> Option<Vec<usize>> {
    let Expr::Binary { left, op: BinaryOp::Eq, right } = where_clause? else {
        return None;
    };
    let (qualifier, name, lit) = match (left.as_ref(), right.as_ref()) {
        (Expr::Column { table: q, name }, Expr::Literal(l))
        | (Expr::Literal(l), Expr::Column { table: q, name }) => (q, name, l),
        _ => return None,
    };
    if let Some(q) = qualifier {
        if !q.eq_ignore_ascii_case(stmt_table) {
            return None;
        }
    }
    let mut matches =
        table.columns.iter().enumerate().filter(|(_, c)| c.name.eq_ignore_ascii_case(name));
    let (col, def) = matches.next()?;
    if matches.next().is_some() || !(def.unique || def.primary_key) {
        return None;
    }
    if matches!(lit, Literal::Null) {
        return Some(Vec::new());
    }
    let (key, allowed_classes) = match lit {
        Literal::Integer(i) => {
            if i.unsigned_abs() >= 1u64 << 53 {
                return None;
            }
            (GroupKey::Int(*i), 1u8 << 1)
        }
        Literal::Float(f) => (Value::Float(*f).try_group_key()?, 1u8 << 1),
        Literal::String(s) => {
            if dialect == EngineDialect::Mysql {
                return None;
            }
            (GroupKey::Text(Arc::from(s.as_str())), 1u8 << 2)
        }
        // Boolean/blob literals are rare enough to stay on the scan.
        _ => return None,
    };
    table.ensure_constraint_indexes();
    let ix = table.constraint_index(col)?;
    if !ix.classes_within(allowed_classes) {
        return None;
    }
    let mut rows = ix.candidates(&key);
    rows.sort_unstable();
    Some(rows)
}

fn stmt_tag(stmt: &Stmt) -> &'static str {
    match stmt {
        Stmt::Select(_) => "SELECT",
        Stmt::Insert(_) => "INSERT",
        Stmt::Update(_) => "UPDATE",
        Stmt::Delete(_) => "DELETE",
        Stmt::CreateTable(_) => "CREATE TABLE",
        Stmt::DropTable { .. } => "DROP TABLE",
        Stmt::AlterTable { .. } => "ALTER TABLE",
        Stmt::CreateIndex { .. } => "CREATE INDEX",
        Stmt::DropIndex { .. } => "DROP INDEX",
        Stmt::CreateView { .. } => "CREATE VIEW",
        Stmt::DropView { .. } => "DROP VIEW",
        Stmt::CreateSchema { .. } => "CREATE SCHEMA",
        Stmt::AlterSchema { .. } => "ALTER SCHEMA",
        Stmt::DropSchema { .. } => "DROP SCHEMA",
        Stmt::CreateFunction { .. } => "CREATE FUNCTION",
        Stmt::Begin => "BEGIN",
        Stmt::Commit => "COMMIT",
        Stmt::Rollback => "ROLLBACK",
        Stmt::Savepoint { .. } => "SAVEPOINT",
        Stmt::Release { .. } => "RELEASE",
        Stmt::Set { .. } => "SET",
        Stmt::Pragma { .. } => "PRAGMA",
        Stmt::Explain { .. } => "EXPLAIN",
        Stmt::Copy { .. } => "COPY",
        Stmt::Show { .. } => "SHOW",
        Stmt::Use { .. } => "USE",
        Stmt::Values(_) => "VALUES",
        Stmt::Truncate { .. } => "TRUNCATE",
        Stmt::LoadExtension { .. } => "LOAD",
        Stmt::Vacuum => "VACUUM",
        Stmt::Analyze { .. } => "ANALYZE",
    }
}

/// Register the fixed coverage universe for a dialect: statement kinds,
/// operators, functions, type heads, and decision points.
fn register_coverage_universe(cov: &mut Coverage, dialect: EngineDialect) {
    const STATEMENTS: [&str; 29] = [
        "SELECT",
        "INSERT",
        "UPDATE",
        "DELETE",
        "CREATE TABLE",
        "DROP TABLE",
        "ALTER TABLE",
        "CREATE INDEX",
        "DROP INDEX",
        "CREATE VIEW",
        "DROP VIEW",
        "CREATE SCHEMA",
        "ALTER SCHEMA",
        "DROP SCHEMA",
        "CREATE FUNCTION",
        "BEGIN",
        "COMMIT",
        "ROLLBACK",
        "SAVEPOINT",
        "RELEASE",
        "SET",
        "PRAGMA",
        "EXPLAIN",
        "COPY",
        "SHOW",
        "USE",
        "VALUES",
        "TRUNCATE",
        "VACUUM",
    ];
    for s in STATEMENTS {
        cov.register_line(format!("stmt:{s}"));
    }
    for op in [
        "+", "-", "*", "/", "DIV", "%", "||", "=", "<>", "<", ">", "<=", ">=", "&", "|", "#", "<<",
        ">>", "~",
    ] {
        cov.register_line(format!("op:{op}"));
    }
    for f in scalar_function_names(dialect) {
        cov.register_line(format!("fn:{f}"));
    }
    for a in ["count", "sum", "avg", "min", "max", "median", "group_concat", "string_agg"] {
        cov.register_line(format!("agg:{a}"));
    }
    for t in ["INTEGER", "DOUBLE", "VARCHAR", "BLOB", "BOOLEAN", "ANY", "STRUCT", "UNION"] {
        cov.register_line(format!("type:{t}"));
    }
    for tf in ["generate_series", "range", "unnest"] {
        cov.register_line(format!("tablefn:{tf}"));
    }
    // Decision points.
    for b in [
        "where:true",
        "where:false",
        "select:distinct",
        "select:grouped",
        "having:true",
        "having:false",
        "query:limit",
        "query:offset",
        "from:table",
        "from:view",
        "from:cte",
        "cte:plain",
        "cte:recursive",
        "txn:commit",
        "txn:rollback",
        "div:zero",
        "div:integer",
        "div:decimal",
        "concat:as-or",
        "rowcmp:total",
        "rowcmp:3vl",
        "case:branch",
        "case:else",
        "logic:and:short",
        "logic:or:short",
        "coalesce:promoted",
        "subquery:first-row",
    ] {
        cov.register_branch(b);
    }
    for j in ["Inner", "Left", "Right", "Full", "Cross", "AsOf"] {
        cov.register_branch(format!("join:{j}"));
    }
    for e in [
        "Syntax",
        "UnsupportedStatement",
        "UnknownFunction",
        "UnsupportedType",
        "UnsupportedOperator",
        "UnknownConfig",
        "Catalog",
        "Constraint",
        "Conversion",
        "Arithmetic",
        "Transaction",
        "ExtensionMissing",
        "FileNotFound",
        "Fatal",
        "Hang",
        "NotImplemented",
    ] {
        cov.register_branch(format!("err:{e}"));
    }
    for so in ["Union", "Intersect", "Except"] {
        for all in ["all", "distinct"] {
            cov.register_branch(format!("setop:{so}:{all}"));
        }
    }
}
