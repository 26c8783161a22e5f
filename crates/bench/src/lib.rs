//! Benchmark helpers shared by the criterion benches and the
//! `squality-tables` binary.

use squality_core::{run_study, Study, StudyConfig};

pub mod hot_paths;
pub mod throughput;

/// Create the parent directory of an output-file path when it is
/// missing, so flags like `--events deep/nested/run.jsonl` and
/// `--bench-out target/bench/BENCH_engine.json` work on a fresh
/// checkout. A bare filename (no parent component) is a no-op.
pub fn ensure_parent_dir(path: &std::path::Path) -> std::io::Result<()> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent),
        _ => Ok(()),
    }
}

/// Build a study at the given scale (deterministic seed, all cores).
pub fn study_at_scale(scale: f64) -> Study {
    study_at_scale_with_workers(scale, 0)
}

/// Build a study at the given scale with an explicit worker count (the
/// `parallel_scale` bench sweeps this; results are identical either way).
pub fn study_at_scale_with_workers(scale: f64, workers: usize) -> Study {
    let config =
        StudyConfig::default().with_scale(scale).with_workers(workers).with_translated_arm(false);
    run_study(config)
}

/// The scale used by benches: small enough to iterate, large enough that
/// every failure class appears.
pub const BENCH_SCALE: f64 = 0.05;

/// The scale used by the tables binary by default (full report).
pub const REPORT_SCALE: f64 = 0.25;

#[cfg(test)]
mod tests {
    use super::ensure_parent_dir;
    use std::path::Path;

    #[test]
    fn ensure_parent_dir_creates_nested_dirs_and_tolerates_bare_names() {
        let root =
            std::env::temp_dir().join(format!("squality-ensure-parent-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let target = root.join("a/b/c/out.json");
        ensure_parent_dir(&target).expect("create nested parents");
        assert!(target.parent().unwrap().is_dir());
        std::fs::write(&target, "x").expect("write into created dir");
        // Re-running against an existing tree and against bare filenames
        // must both be no-ops.
        ensure_parent_dir(&target).expect("idempotent");
        ensure_parent_dir(Path::new("bare-file.json")).expect("no parent component");
        let _ = std::fs::remove_dir_all(&root);
    }
}
