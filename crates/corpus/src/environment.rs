//! Donor environments: the files, extensions, and set-up state the donor's
//! CI had when its expectations were recorded.
//!
//! RQ3's central finding is that donor tests depend on environment state
//! that a fresh runner lacks. The generators therefore record expectations
//! under a *provisioned* connector and the experiments replay under either
//! the same provisioned environment (cross-engine RQ4 runs, Figure 4) or a
//! *bare* one (donor dependency study, Tables 4–5).

use squality_engine::{ClientKind, EngineDialect, FaultProfile};
use squality_formats::SuiteKind;
use squality_runner::{EngineConnector, Provisionable};

/// Environment state a donor suite assumes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DonorEnvironment {
    /// Data files for COPY: (path, CSV lines).
    pub data_files: Vec<(String, Vec<String>)>,
    /// Available extensions / shared libraries.
    pub extensions: Vec<String>,
    /// Scheduler set-up statements run before each test file (PostgreSQL's
    /// regression scheduler).
    pub setup_sql: Vec<String>,
}

impl DonorEnvironment {
    /// The canonical environment for a suite.
    pub fn for_suite(suite: SuiteKind) -> DonorEnvironment {
        match suite {
            SuiteKind::Slt => DonorEnvironment::default(),
            SuiteKind::PgRegress => DonorEnvironment {
                data_files: Vec::new(),
                extensions: vec!["regresslib".to_string()],
                setup_sql: vec![
                    "CREATE TABLE setup_tbl0(k INTEGER, v VARCHAR)".to_string(),
                    "INSERT INTO setup_tbl0 VALUES (1, 'a'), (2, 'b'), (3, 'c')".to_string(),
                    "CREATE TABLE setup_tbl1(k INTEGER)".to_string(),
                    "INSERT INTO setup_tbl1 VALUES (10), (20)".to_string(),
                    "SET lc_messages = 'en_US.UTF-8'".to_string(),
                ],
            },
            SuiteKind::Duckdb => DonorEnvironment {
                data_files: Vec::new(),
                extensions: vec!["sqlsmith".to_string()],
                setup_sql: Vec::new(),
            },
            SuiteKind::MysqlTest => DonorEnvironment {
                data_files: Vec::new(),
                extensions: Vec::new(),
                setup_sql: vec![
                    "CREATE TABLE setup_tbl0(k INTEGER)".to_string(),
                    "INSERT INTO setup_tbl0 VALUES (1), (2)".to_string(),
                ],
            },
        }
    }

    /// Provision a freshly-reset connection, in-process or subprocess,
    /// with this environment. Set-up statements that the target dialect
    /// rejects are skipped, matching a porting engineer copying what
    /// applies.
    pub fn provision(&self, conn: &mut impl Provisionable) {
        for (path, lines) in &self.data_files {
            conn.provide_file(path, lines.clone());
        }
        for ext in &self.extensions {
            conn.provide_extension(ext);
        }
        for sql in &self.setup_sql {
            let _ = squality_runner::Connector::execute(conn, sql);
        }
    }

    /// Build a provisioned donor connector (CLI client — what the donor's
    /// own runner observes).
    pub fn donor_connector(&self, dialect: EngineDialect) -> EngineConnector {
        let mut conn =
            EngineConnector::with_faults(dialect, ClientKind::Cli, FaultProfile::all_fixed());
        self.provision(&mut conn);
        conn
    }
}

/// Map a suite to its donor engine dialect.
pub fn donor_dialect(suite: SuiteKind) -> EngineDialect {
    match suite {
        SuiteKind::Slt => EngineDialect::Sqlite,
        SuiteKind::PgRegress => EngineDialect::Postgres,
        SuiteKind::Duckdb => EngineDialect::Duckdb,
        SuiteKind::MysqlTest => EngineDialect::Mysql,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squality_runner::Connector;

    #[test]
    fn pg_environment_provisions_setup_tables() {
        let env = DonorEnvironment::for_suite(SuiteKind::PgRegress);
        let mut conn = env.donor_connector(EngineDialect::Postgres);
        let r = conn.execute("SELECT count(*) FROM setup_tbl0").unwrap();
        assert_eq!(r.rows[0][0], squality_engine::Value::Integer(3));
        assert!(conn.has_extension("regresslib"));
        // The locale setting is applied.
        let r = conn.execute("SHOW lc_messages").unwrap();
        assert_eq!(r.rows[0][0], squality_engine::Value::Text("en_US.UTF-8".into()));
    }

    #[test]
    fn duckdb_environment_has_sqlsmith() {
        let env = DonorEnvironment::for_suite(SuiteKind::Duckdb);
        let conn = env.donor_connector(EngineDialect::Duckdb);
        assert!(conn.has_extension("sqlsmith"));
    }

    #[test]
    fn bare_connector_lacks_everything() {
        let mut bare = EngineConnector::new(EngineDialect::Postgres, ClientKind::Connector);
        assert!(bare.execute("SELECT count(*) FROM setup_tbl0").is_err());
        assert!(!bare.has_extension("regresslib"));
    }

    #[test]
    fn donor_dialect_mapping() {
        assert_eq!(donor_dialect(SuiteKind::Slt), EngineDialect::Sqlite);
        assert_eq!(donor_dialect(SuiteKind::Duckdb), EngineDialect::Duckdb);
    }
}
