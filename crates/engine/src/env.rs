//! Query-execution environment: relations, scopes, step budget.

use crate::config::ConfigStore;
use crate::dialect::EngineDialect;
use crate::error::EngineError;
use crate::faults::FaultProfile;
use crate::schema::Catalog;
use crate::value::Value;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;

/// Which algorithms the executor uses for grouping, deduplication, set
/// operations, and joins.
///
/// `Hash` is the production default. `Naive` replays the original
/// linear-scan / nested-loop implementations; it is retained as the
/// differential-testing oracle (the two must produce byte-identical
/// results).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecStrategy {
    /// Hash-based grouping/dedup/set-ops and build–probe equi-joins.
    #[default]
    Hash,
    /// Linear scans over groups and nested-loop joins (the oracle).
    Naive,
}

/// A column binding inside a relation: optional qualifier (table alias) and
/// column name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColBinding {
    pub qualifier: Option<String>,
    pub name: String,
}

impl ColBinding {
    /// Unqualified binding.
    pub fn bare(name: impl Into<String>) -> ColBinding {
        ColBinding { qualifier: None, name: name.into() }
    }

    /// Qualified binding.
    pub fn qualified(q: impl Into<String>, name: impl Into<String>) -> ColBinding {
        ColBinding { qualifier: Some(q.into()), name: name.into() }
    }

    /// Does this binding match a reference `[table.]name`?
    pub fn matches(&self, table: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match table {
            None => true,
            Some(t) => {
                self.qualifier.as_deref().map(|q| q.eq_ignore_ascii_case(t)).unwrap_or(false)
            }
        }
    }
}

/// An intermediate relation: bindings plus rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Relation {
    pub cols: Vec<ColBinding>,
    pub rows: Vec<Vec<Value>>,
}

impl Relation {
    /// Empty relation with the given bindings.
    pub fn with_cols(cols: Vec<ColBinding>) -> Relation {
        Relation { cols, rows: Vec::new() }
    }
}

/// A lexical scope for column resolution: one row of a relation, chained to
/// outer scopes for correlated subqueries.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    pub cols: &'a [ColBinding],
    pub row: &'a [Value],
    pub parent: Option<&'a Scope<'a>>,
}

impl<'a> Scope<'a> {
    /// Resolve `[table.]name`, walking outward. Returns the value, or an
    /// error for unknown/ambiguous names.
    pub fn lookup(&self, table: Option<&str>, name: &str) -> Result<Value, EngineError> {
        let (depth, idx) = self.resolve(table, name)?;
        Ok(self.at_depth(depth).row[idx].clone())
    }

    /// Resolve `[table.]name` to a (scope depth, column index) pair —
    /// depth 0 is this scope, 1 its parent, and so on. The pair is stable
    /// for every row of a scan loop (only `row` varies between iterations,
    /// never the column layouts), which is what lets the expression binder
    /// cache it and skip the per-row name scans.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> Result<(u32, usize), EngineError> {
        let mut scope = self;
        let mut depth = 0u32;
        loop {
            let mut matches = scope.cols.iter().enumerate().filter(|(_, c)| c.matches(table, name));
            if let Some((idx, _)) = matches.next() {
                if table.is_none() && matches.next().is_some() {
                    return Err(EngineError::catalog(format!("ambiguous column name: {name}")));
                }
                return Ok((depth, idx));
            }
            match scope.parent {
                Some(parent) => {
                    scope = parent;
                    depth += 1;
                }
                None => {
                    let full = match table {
                        Some(t) => format!("{t}.{name}"),
                        None => name.to_string(),
                    };
                    return Err(EngineError::catalog(format!("no such column: {full}")));
                }
            }
        }
    }

    /// The scope `depth` levels up the parent chain.
    pub fn at_depth(&self, depth: u32) -> &Scope<'a> {
        let mut scope = self;
        for _ in 0..depth {
            scope = scope.parent.expect("resolved depth stays within the scope chain");
        }
        scope
    }
}

/// Shared read-only execution context plus step accounting.
pub struct QueryEnv<'a> {
    pub dialect: EngineDialect,
    pub catalog: &'a Catalog,
    pub config: &'a ConfigStore,
    pub faults: &'a FaultProfile,
    pub extensions: &'a BTreeSet<String>,
    /// User-defined function names registered by CREATE FUNCTION.
    pub user_functions: &'a BTreeSet<String>,
    steps: Cell<u64>,
    budget: u64,
    /// Executor algorithm selection (hash-based vs the naive oracle).
    pub strategy: ExecStrategy,
    /// Coverage hits buffered for the engine to apply: (is_line, point).
    /// Static points borrow; only dynamically-built names allocate.
    pub hits: RefCell<Vec<(bool, Cow<'static, str>)>>,
    /// CTE bindings, innermost last.
    pub ctes: RefCell<Vec<(String, Relation)>>,
}

impl<'a> QueryEnv<'a> {
    /// Build an environment with the given step budget.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        dialect: EngineDialect,
        catalog: &'a Catalog,
        config: &'a ConfigStore,
        faults: &'a FaultProfile,
        extensions: &'a BTreeSet<String>,
        user_functions: &'a BTreeSet<String>,
        budget: u64,
    ) -> QueryEnv<'a> {
        QueryEnv {
            dialect,
            catalog,
            config,
            faults,
            extensions,
            user_functions,
            steps: Cell::new(0),
            budget,
            strategy: ExecStrategy::Hash,
            hits: RefCell::new(Vec::new()),
            ctes: RefCell::new(Vec::new()),
        }
    }

    /// Consume `n` execution steps; exceeding the budget reports a hang,
    /// which is how the simulators surface the paper's infinite loops
    /// deterministically.
    pub fn tick(&self, n: u64) -> Result<(), EngineError> {
        let t = self.steps.get().saturating_add(n);
        self.steps.set(t);
        if t > self.budget {
            Err(EngineError::hang(format!(
                "statement exceeded execution budget ({} steps): likely hang",
                self.budget
            )))
        } else {
            Ok(())
        }
    }

    /// Steps consumed so far.
    pub fn steps_used(&self) -> u64 {
        self.steps.get()
    }

    /// Record a feature ("line") coverage point.
    pub fn cov_line(&self, point: impl Into<Cow<'static, str>>) {
        self.push_hit(true, point.into());
    }

    /// Record a decision ("branch") coverage point.
    pub fn cov_branch(&self, point: impl Into<Cow<'static, str>>) {
        self.push_hit(false, point.into());
    }

    /// Buffer a hit. Coverage is a set of flags, so each distinct point is
    /// buffered at most once per statement: row loops and recursive-CTE
    /// iterations repeat a handful of points, and the buffer must not grow
    /// per row or per iteration. The scan runs newest first, so a
    /// consecutive repeat, the common shape, costs one comparison.
    fn push_hit(&self, is_line: bool, point: Cow<'static, str>) {
        let mut hits = self.hits.borrow_mut();
        if hits.iter().rev().any(|(l, p)| *l == is_line && *p == point) {
            return;
        }
        hits.push((is_line, point));
    }

    /// Find a CTE binding by name (innermost first).
    pub fn cte(&self, name: &str) -> Option<Relation> {
        self.ctes
            .borrow()
            .iter()
            .rev()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, r)| r.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn env_fixture() -> (Catalog, ConfigStore, FaultProfile, BTreeSet<String>, BTreeSet<String>) {
        (
            Catalog::new(),
            ConfigStore::new(EngineDialect::Sqlite),
            FaultProfile::default(),
            BTreeSet::new(),
            BTreeSet::new(),
        )
    }

    #[test]
    fn scope_lookup_and_ambiguity() {
        let cols = vec![
            ColBinding::qualified("t1", "a"),
            ColBinding::qualified("t2", "a"),
            ColBinding::qualified("t1", "b"),
        ];
        let row = vec![Value::Integer(1), Value::Integer(2), Value::Integer(3)];
        let scope = Scope { cols: &cols, row: &row, parent: None };
        assert_eq!(scope.lookup(Some("t2"), "a").unwrap(), Value::Integer(2));
        assert_eq!(scope.lookup(None, "b").unwrap(), Value::Integer(3));
        let err = scope.lookup(None, "a").unwrap_err();
        assert!(err.message.contains("ambiguous"));
        assert!(scope.lookup(None, "zzz").is_err());
    }

    #[test]
    fn scope_walks_to_parent() {
        let outer_cols = vec![ColBinding::bare("x")];
        let outer_row = vec![Value::Integer(42)];
        let outer = Scope { cols: &outer_cols, row: &outer_row, parent: None };
        let inner_cols = vec![ColBinding::bare("y")];
        let inner_row = vec![Value::Integer(7)];
        let inner = Scope { cols: &inner_cols, row: &inner_row, parent: Some(&outer) };
        assert_eq!(inner.lookup(None, "x").unwrap(), Value::Integer(42));
        assert_eq!(inner.lookup(None, "y").unwrap(), Value::Integer(7));
    }

    #[test]
    fn step_budget_hangs() {
        let (cat, cfg, faults, exts, fns) = env_fixture();
        let env = QueryEnv::new(EngineDialect::Sqlite, &cat, &cfg, &faults, &exts, &fns, 100);
        assert!(env.tick(50).is_ok());
        assert!(env.tick(50).is_ok());
        let err = env.tick(1).unwrap_err();
        assert_eq!(err.kind, crate::error::ErrorKind::Hang);
    }

    #[test]
    fn cte_stack_lookup() {
        let (cat, cfg, faults, exts, fns) = env_fixture();
        let env = QueryEnv::new(EngineDialect::Sqlite, &cat, &cfg, &faults, &exts, &fns, 100);
        env.ctes
            .borrow_mut()
            .push(("x".to_string(), Relation::with_cols(vec![ColBinding::bare("n")])));
        assert!(env.cte("X").is_some());
        assert!(env.cte("y").is_none());
    }

    #[test]
    fn alternating_hits_buffer_each_point_once() {
        let (cat, cfg, faults, exts, fns) = env_fixture();
        let env = QueryEnv::new(EngineDialect::Sqlite, &cat, &cfg, &faults, &exts, &fns, 100);
        for i in 0..10_000 {
            env.cov_branch(if i % 2 == 0 { "cmp:true" } else { "cmp:false" });
        }
        assert_eq!(env.hits.borrow().len(), 2);
        // Owned (dynamically built) points compare by content, not address.
        env.hits.borrow_mut().clear();
        for i in 0..10_000 {
            env.cov_line(format!("fn:{}", if i % 2 == 0 { "abs" } else { "round" }));
        }
        assert_eq!(env.hits.borrow().len(), 2);
        // The same name is a distinct point as a line and as a branch.
        env.cov_branch("fn:abs");
        assert_eq!(env.hits.borrow().len(), 3);
    }

    #[test]
    fn binding_matching() {
        let b = ColBinding::qualified("T1", "Alpha");
        assert!(b.matches(None, "alpha"));
        assert!(b.matches(Some("t1"), "ALPHA"));
        assert!(!b.matches(Some("t2"), "alpha"));
        let _ = DataType::Integer; // silence unused import in cfg(test)
    }
}
