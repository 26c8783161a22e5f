//! Feature/decision coverage instrumentation.
//!
//! The paper's Table 8 compares line and branch coverage of each DBMS when
//! running its original suite vs SQuaLity's union. Real gcov coverage needs
//! the real C/C++ code bases; the simulators instead expose a *feature
//! coverage* analogue with the same monotone-union property: a fixed
//! universe of feature points ("lines": statements, functions, types) and
//! decision points ("branches": operator×outcome, error paths, join kinds)
//! is registered at engine construction, and execution marks points hit.

use std::collections::BTreeMap;

/// Coverage recorder with a fixed registered universe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    lines: BTreeMap<String, bool>,
    branches: BTreeMap<String, bool>,
}

impl Coverage {
    /// Empty recorder.
    pub fn new() -> Coverage {
        Coverage::default()
    }

    /// Register a feature point (unhit). Idempotent.
    pub fn register_line(&mut self, point: impl Into<String>) {
        self.lines.entry(point.into()).or_insert(false);
    }

    /// Register a decision point (unhit). Idempotent.
    pub fn register_branch(&mut self, point: impl Into<String>) {
        self.branches.entry(point.into()).or_insert(false);
    }

    /// Mark a feature point as executed; auto-registers unknown points so
    /// the ratio can never exceed 1.
    pub fn hit_line(&mut self, point: &str) {
        if let Some(v) = self.lines.get_mut(point) {
            *v = true;
        } else {
            self.lines.insert(point.to_string(), true);
        }
    }

    /// Mark a decision point as taken.
    pub fn hit_branch(&mut self, point: &str) {
        if let Some(v) = self.branches.get_mut(point) {
            *v = true;
        } else {
            self.branches.insert(point.to_string(), true);
        }
    }

    /// (hit, total) for feature points.
    pub fn line_counts(&self) -> (usize, usize) {
        (self.lines.values().filter(|v| **v).count(), self.lines.len())
    }

    /// (hit, total) for decision points.
    pub fn branch_counts(&self) -> (usize, usize) {
        (self.branches.values().filter(|v| **v).count(), self.branches.len())
    }

    /// Fraction of feature points hit, in [0, 1].
    pub fn line_ratio(&self) -> f64 {
        let (hit, total) = self.line_counts();
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    }

    /// Fraction of decision points hit, in [0, 1].
    pub fn branch_ratio(&self) -> f64 {
        let (hit, total) = self.branch_counts();
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    }

    /// Iterate feature points as `(point, hit)`, in sorted order. The
    /// study result cache serializes recorders through these entry
    /// iterators and rebuilds them with [`set_line`](Coverage::set_line) /
    /// [`set_branch`](Coverage::set_branch).
    pub fn line_entries(&self) -> impl Iterator<Item = (&str, bool)> {
        self.lines.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate decision points as `(point, hit)`, in sorted order.
    pub fn branch_entries(&self) -> impl Iterator<Item = (&str, bool)> {
        self.branches.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Insert a feature point with an explicit hit bit (deserialization).
    pub fn set_line(&mut self, point: impl Into<String>, hit: bool) {
        self.lines.insert(point.into(), hit);
    }

    /// Insert a decision point with an explicit hit bit (deserialization).
    pub fn set_branch(&mut self, point: impl Into<String>, hit: bool) {
        self.branches.insert(point.into(), hit);
    }

    /// Merge another recorder's hits into this one (union coverage).
    pub fn union_with(&mut self, other: &Coverage) {
        for (k, v) in &other.lines {
            let e = self.lines.entry(k.clone()).or_insert(false);
            *e = *e || *v;
        }
        for (k, v) in &other.branches {
            let e = self.branches.entry(k.clone()).or_insert(false);
            *e = *e || *v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let mut c = Coverage::new();
        c.register_line("a");
        c.register_line("b");
        c.register_branch("x");
        assert_eq!(c.line_ratio(), 0.0);
        c.hit_line("a");
        assert_eq!(c.line_counts(), (1, 2));
        c.hit_branch("x");
        assert_eq!(c.branch_ratio(), 1.0);
    }

    #[test]
    fn unknown_hits_grow_universe() {
        let mut c = Coverage::new();
        c.hit_line("surprise");
        assert_eq!(c.line_counts(), (1, 1));
    }

    #[test]
    fn union_is_monotone() {
        let mut a = Coverage::new();
        a.register_line("p");
        a.register_line("q");
        a.hit_line("p");
        let mut b = Coverage::new();
        b.register_line("p");
        b.register_line("q");
        b.hit_line("q");
        let before = a.line_ratio();
        a.union_with(&b);
        assert!(a.line_ratio() >= before);
        assert_eq!(a.line_counts(), (2, 2));
    }
}
