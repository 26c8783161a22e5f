//! Test-suite formats: parsers for the four donor formats, writers back to
//! them, and the unified intermediate representation they share.
//!
//! Paper §2–3: SQuaLity "can parse test files from each DBMS into
//! individual SQL statements and extract the test runner commands",
//! converting everything into an internal unified format. This crate is
//! that machinery:
//!
//! * [`slt`] — sqllogictest, classic and DuckDB flavours (Listings 1, 3, 4)
//! * [`pgreg`] — PostgreSQL regression `.sql`/`.out` pairs
//! * [`mysqltest`] — MySQL `.test`/`.result` pairs (Listing 2)
//! * [`ir`] — the unified IR every parser targets
//! * [`writer`] — IR back to native formats (round-trip tested)
//! * [`commands`] — the RQ1 runner-command censuses (Table 2)
//! * [`hash`] — canonical content hashing of the IR (study cache keys)

pub mod commands;
pub mod hash;
pub mod ir;
pub mod mysqltest;
pub mod pgreg;
pub mod slice;
pub mod slt;
pub mod writer;

pub use commands::{command_count, feature_matrix, FeatureSupport};
pub use hash::{file_content_hash, parse_suite_tag, suite_tag, ContentHasher};
pub use ir::{
    result_hash, Condition, ControlCommand, QueryExpectation, RecordId, RecordKind, SortMode,
    StatementExpect, SuiteKind, TestFile, TestRecord,
};
pub use mysqltest::{parse_mysql_test, parse_mysql_test_only};
pub use pgreg::{parse_pg_regress, parse_pg_sql_only};
pub use slice::{slice, SliceIndex, SliceKey};
pub use slt::{parse_slt, SltFlavor};
pub use writer::{write_duckdb, write_mysql_test, write_pg_regress, write_slt};
