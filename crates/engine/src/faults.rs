//! Injected reproductions of the bugs the paper found (RQ4).
//!
//! Each fault corresponds to a numbered listing in the paper and fires on
//! the same triggering statement shape. Faults default to *enabled* so the
//! bug-finding pipeline demonstrably rediscoveres them; a fixed profile
//! turns them off, modelling the upstream fixes the paper reports.

use crate::dialect::EngineDialect;

/// Identifiers for the injected bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultId {
    /// Paper Listing 12: `ALTER SCHEMA a RENAME TO b` crashed DuckDB 0.7.0
    /// (0.6.1 raised a Not implemented Error instead).
    DuckdbAlterSchemaCrash,
    /// Paper Listing 13: UPDATE after COMMIT of a transaction that both
    /// inserted and updated the same table crashed DuckDB.
    DuckdbUpdateAfterCommitCrash,
    /// Paper Listing 14 (CVE-2024-20962): a recursive CTE whose recursive
    /// arm contains a nested set operation crashed MySQL in
    /// `FollowTailIterator::Read()`.
    MysqlRecursiveCteCrash,
    /// Paper Listing 15: DuckDB loops forever on a recursive CTE whose
    /// self-reference sits in a subquery (deliberate "friendly SQL" choice).
    DuckdbRecursiveCteHang,
    /// Paper Listing 16: SQLite's `generate_series` extension hung on
    /// `generate_series(9223372036854775807, 9223372036854775807)` due to a
    /// step overflow (3-year-old bug, found by suite-seeded fuzzing).
    SqliteGenerateSeriesOverflowHang,
    /// Paper §6 "Hangs": MySQL's exhaustive join-order search
    /// (`optimizer_search_depth = 62`) made a 40+-table join take minutes.
    MysqlJoinSearchHang,
}

impl FaultId {
    /// The engine the fault lives in.
    pub fn dialect(self) -> EngineDialect {
        match self {
            FaultId::DuckdbAlterSchemaCrash
            | FaultId::DuckdbUpdateAfterCommitCrash
            | FaultId::DuckdbRecursiveCteHang => EngineDialect::Duckdb,
            FaultId::MysqlRecursiveCteCrash | FaultId::MysqlJoinSearchHang => EngineDialect::Mysql,
            FaultId::SqliteGenerateSeriesOverflowHang => EngineDialect::Sqlite,
        }
    }

    /// Whether the fault manifests as a crash (vs a hang).
    pub fn is_crash(self) -> bool {
        matches!(
            self,
            FaultId::DuckdbAlterSchemaCrash
                | FaultId::DuckdbUpdateAfterCommitCrash
                | FaultId::MysqlRecursiveCteCrash
        )
    }

    /// All injected faults.
    pub const ALL: [FaultId; 6] = [
        FaultId::DuckdbAlterSchemaCrash,
        FaultId::DuckdbUpdateAfterCommitCrash,
        FaultId::MysqlRecursiveCteCrash,
        FaultId::DuckdbRecursiveCteHang,
        FaultId::SqliteGenerateSeriesOverflowHang,
        FaultId::MysqlJoinSearchHang,
    ];
}

/// Which faults are active in an engine instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultProfile {
    enabled: [bool; 6],
}

impl FaultProfile {
    /// The versions the paper studied: every bug present.
    pub fn paper_versions() -> FaultProfile {
        FaultProfile { enabled: [true; 6] }
    }

    /// All bugs fixed (post-report upstream state).
    pub fn all_fixed() -> FaultProfile {
        FaultProfile { enabled: [false; 6] }
    }

    /// Is a fault active?
    pub fn is_enabled(&self, id: FaultId) -> bool {
        self.enabled[Self::slot(id)]
    }

    /// Enable or disable one fault.
    pub fn set(&mut self, id: FaultId, on: bool) {
        self.enabled[Self::slot(id)] = on;
    }

    fn slot(id: FaultId) -> usize {
        FaultId::ALL.iter().position(|f| *f == id).expect("fault in ALL")
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::paper_versions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_has_all_faults() {
        let p = FaultProfile::default();
        for f in FaultId::ALL {
            assert!(p.is_enabled(f), "{f:?}");
        }
    }

    #[test]
    fn fixed_profile_has_none() {
        let p = FaultProfile::all_fixed();
        for f in FaultId::ALL {
            assert!(!p.is_enabled(f));
        }
    }

    #[test]
    fn toggling() {
        let mut p = FaultProfile::all_fixed();
        p.set(FaultId::DuckdbAlterSchemaCrash, true);
        assert!(p.is_enabled(FaultId::DuckdbAlterSchemaCrash));
        assert!(!p.is_enabled(FaultId::MysqlRecursiveCteCrash));
    }

    #[test]
    fn paper_counts() {
        // The paper reports 3 crashes and 3 hangs.
        let crashes = FaultId::ALL.iter().filter(|f| f.is_crash()).count();
        assert_eq!(crashes, 3);
        assert_eq!(FaultId::ALL.len() - crashes, 3);
    }
}
