//! Pin Tables 5 and 6 byte-identical to their pre-signature-refactor
//! baseline.
//!
//! The triage PR collapsed three classifier code paths (runner-side RQ3
//! and RQ4 decision procedures plus the report-side string matching) into
//! one precomputed `FailureSignature`. The golden files were rendered by
//! the last commit *before* that refactor at this exact configuration
//! (seed 77, scale 0.06); the classification the report prints must not
//! have moved by a byte.
//!
//! Table 8 is pinned the same way: its golden is the coverage rows'
//! `{:#?}` rendering from the last commit that re-ran 12 dedicated
//! coverage cells, so harvesting coverage from the verbatim matrix must
//! reproduce every f64 ratio bit for bit.

use squality_core::{run_study, table5, table6, StudyConfig};

const GOLDEN_TABLE5: &str = include_str!("golden_table5.txt");
const GOLDEN_TABLE6: &str = include_str!("golden_table6.txt");
const GOLDEN_TABLE8: &str = include_str!("golden_table8.txt");

#[test]
fn tables_5_and_6_are_byte_identical_to_the_pre_refactor_baseline() {
    let study =
        run_study(StudyConfig::default().with_seed(77).with_scale(0.06).with_translated_arm(false));
    assert_eq!(table5(&study), GOLDEN_TABLE5, "Table 5 drifted from the pre-refactor baseline");
    assert_eq!(table6(&study), GOLDEN_TABLE6, "Table 6 drifted from the pre-refactor baseline");
    assert_eq!(
        format!("{:#?}", study.coverage),
        GOLDEN_TABLE8,
        "Table 8 drifted from the coverage re-run baseline"
    );
}
