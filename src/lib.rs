//! SQuaLity-rs — umbrella crate re-exporting the full public API.
//!
//! A Rust reproduction of *"Understanding and Reusing Test Suites Across
//! Database Systems"* (SIGMOD 2024): a unified cross-DBMS test-suite format,
//! runner, four dialect-faithful engine simulators, calibrated synthetic
//! corpora, and the harnesses that regenerate every table and figure of the
//! paper's evaluation. See `DESIGN.md` for the system inventory; the
//! report that `squality-tables all` prints sets every regenerated table
//! and figure beside the paper's numbers.

pub use squality_analysis as analysis;
pub use squality_core as core;
pub use squality_corpus as corpus;
pub use squality_engine as engine;
pub use squality_formats as formats;
pub use squality_runner as runner;
pub use squality_sqlast as sqlast;
pub use squality_sqltext as sqltext;
