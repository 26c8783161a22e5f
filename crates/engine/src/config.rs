//! Per-engine configuration stores (SET / PRAGMA vocabularies).
//!
//! The paper's "Configurations" failure class (Table 6) and "Setting"
//! dependency class (Table 5) both stem from engines recognising different
//! parameter names: `SET default_null_order` works on DuckDB and is an
//! "unrecognized configuration parameter" error on PostgreSQL, silently
//! skewing later ORDER BY expectations.

use crate::dialect::EngineDialect;
use crate::error::{EngineError, ErrorKind};
use std::collections::BTreeMap;

/// A configuration store with a dialect-specific vocabulary.
#[derive(Debug, Clone)]
pub struct ConfigStore {
    dialect: EngineDialect,
    values: BTreeMap<String, String>,
}

impl ConfigStore {
    /// Create the store pre-populated with the engine's defaults.
    pub fn new(dialect: EngineDialect) -> ConfigStore {
        let mut values = BTreeMap::new();
        for (k, v) in defaults(dialect) {
            values.insert((*k).to_string(), (*v).to_string());
        }
        ConfigStore { dialect, values }
    }

    /// Read a parameter.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(&name.to_lowercase()).map(|s| s.as_str())
    }

    /// `SET name = value`, enforcing the dialect vocabulary.
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), EngineError> {
        let key = name.to_lowercase();
        // MySQL user variables (@x) are always assignable.
        if self.dialect == EngineDialect::Mysql && key.starts_with('@') {
            self.values.insert(key, value.to_string());
            return Ok(());
        }
        if let std::collections::btree_map::Entry::Occupied(mut e) = self.values.entry(key) {
            e.insert(value.to_string());
            return Ok(());
        }
        Err(match self.dialect {
            EngineDialect::Postgres => EngineError::new(
                ErrorKind::UnknownConfig,
                format!("unrecognized configuration parameter \"{name}\""),
            ),
            EngineDialect::Mysql => EngineError::new(
                ErrorKind::UnknownConfig,
                format!("Unknown system variable '{name}'"),
            ),
            EngineDialect::Duckdb => EngineError::new(
                ErrorKind::UnknownConfig,
                format!("Catalog Error: unrecognized configuration parameter \"{name}\""),
            ),
            EngineDialect::Sqlite => {
                EngineError::new(ErrorKind::UnknownConfig, format!("unknown setting: {name}"))
            }
        })
    }

    /// PRAGMA handling: SQLite silently ignores unknown pragmas (the paper
    /// flags this as a reuse hazard); DuckDB errors.
    pub fn pragma(&mut self, name: &str, value: Option<&str>) -> Result<(), EngineError> {
        let key = name.to_lowercase();
        if let std::collections::btree_map::Entry::Occupied(mut e) = self.values.entry(key) {
            if let Some(v) = value {
                e.insert(v.to_string());
            }
            return Ok(());
        }
        if self.dialect.ignores_unknown_pragma() {
            return Ok(()); // SQLite: no error, no effect
        }
        Err(EngineError::new(
            ErrorKind::UnknownConfig,
            format!("Catalog Error: unrecognized pragma \"{name}\""),
        ))
    }
}

/// Default parameter vocabulary per engine. Only parameters that influence
/// simulator behaviour or appear in the studied suites are modelled.
fn defaults(dialect: EngineDialect) -> &'static [(&'static str, &'static str)] {
    match dialect {
        EngineDialect::Sqlite => &[
            ("case_sensitive_like", "0"),
            ("cache_size", "-2000"),
            ("encoding", "UTF-8"),
            ("foreign_keys", "0"),
            ("journal_mode", "memory"),
            ("legacy_file_format", "0"),
            ("page_size", "4096"),
            ("synchronous", "2"),
            ("table_info", ""),
            ("integrity_check", "ok"),
        ],
        EngineDialect::Postgres => &[
            ("bytea_output", "hex"),
            ("datestyle", "ISO, MDY"),
            ("default_transaction_isolation", "read committed"),
            ("enable_seqscan", "on"),
            ("extra_float_digits", "1"),
            ("intervalstyle", "postgres"),
            ("lc_messages", "C"),
            ("search_path", "\"$user\", public"),
            ("standard_conforming_strings", "on"),
            ("statement_timeout", "0"),
            ("timezone", "UTC"),
            ("work_mem", "4096"),
        ],
        EngineDialect::Duckdb => &[
            ("default_null_order", "nulls_last"),
            ("default_order", "asc"),
            ("enable_external_access", "true"),
            ("explain_output", "physical_only"),
            ("max_memory", "unlimited"),
            ("memory_limit", "unlimited"),
            ("null_order", "nulls_last"),
            ("preserve_insertion_order", "true"),
            ("threads", "1"),
        ],
        EngineDialect::Mysql => &[
            ("autocommit", "1"),
            ("big_tables", "0"),
            ("character_set_server", "utf8mb4"),
            ("foreign_key_checks", "1"),
            ("max_allowed_packet", "67108864"),
            ("optimizer_search_depth", "62"),
            ("sql_mode", "ONLY_FULL_GROUP_BY,STRICT_TRANS_TABLES"),
            ("sql_safe_updates", "0"),
            ("time_zone", "SYSTEM"),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_known_parameter() {
        let mut c = ConfigStore::new(EngineDialect::Postgres);
        assert!(c.set("search_path", "public").is_ok());
        assert_eq!(c.get("search_path"), Some("public"));
    }

    #[test]
    fn duckdb_null_order_not_on_postgres() {
        // The paper's Configurations example.
        let mut pg = ConfigStore::new(EngineDialect::Postgres);
        let err = pg.set("default_null_order", "nulls_first").unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownConfig);
        let mut duck = ConfigStore::new(EngineDialect::Duckdb);
        assert!(duck.set("default_null_order", "nulls_first").is_ok());
    }

    #[test]
    fn sqlite_ignores_unknown_pragma() {
        let mut s = ConfigStore::new(EngineDialect::Sqlite);
        assert!(s.pragma("totally_unknown", Some("1")).is_ok());
        let mut d = ConfigStore::new(EngineDialect::Duckdb);
        assert!(d.pragma("totally_unknown", Some("1")).is_err());
    }

    #[test]
    fn mysql_user_variables_always_ok() {
        let mut m = ConfigStore::new(EngineDialect::Mysql);
        assert!(m.set("@anything", "42").is_ok());
        assert!(m.set("no_such_system_var", "1").is_err());
        assert!(m.set("optimizer_search_depth", "0").is_ok());
        assert_eq!(m.get("optimizer_search_depth"), Some("0"));
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let mut c = ConfigStore::new(EngineDialect::Postgres);
        assert!(c.set("TimeZone", "PST8PDT").is_ok());
        assert_eq!(c.get("timezone"), Some("PST8PDT"));
    }
}
