//! The repository benchmark: three workloads through the workspace crates'
//! public APIs, with output checks, end-to-end metrics (untraced) and
//! per-layer metrics (a separate traced run).
//!
//! ```text
//! perfbench --workload study_cold|study_warm|study_subprocess
//!           --seed N --seconds S --trace 0|1 --work-dir DIR
//!           [--scale F] [--min-iters K]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Lines before it give the
//! run's context and its deterministic counters. See `README.md` beside
//! this package for the workloads, metrics and seeds.

mod probe;
mod report;
mod study;
mod trace;

use report::{result_line, Metrics, Ops};
use std::path::PathBuf;

/// The study's own default seed.
pub const DEFAULT_SEED: u64 = 0x5C0A11;
/// Reserved for confirming a later performance claim on a seed that was
/// not used while the change was written.
pub const HELD_OUT_SEED: u64 = 0x2024_0611;

/// End-to-end metrics, measured with tracing off.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("study_s", "s"),
    ("triage_s", "s"),
    ("records_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A layer the workload bypasses
/// reads 0.
const PER_LAYER: [(&str, &str); 58] = [
    ("engine.execute_s", "s"),
    ("engine.ns_per_stmt", "ns"),
    ("engine.stmts", "count"),
    ("engine.errors", "count"),
    ("engine.reset_s", "s"),
    ("engine.render_s", "s"),
    ("engine.stmt_p50_us", "us"),
    ("engine.stmt_p99_us", "us"),
    ("engine.plan_cache.hits", "count"),
    ("engine.plan_cache.misses", "count"),
    ("engine.plan_cache.hit_ratio", "ratio"),
    ("sqlast.parse_s", "s"),
    ("sqlast.parse_ns_per_text", "ns"),
    ("sqlast.translate_s", "s"),
    ("sqlast.rules_applied", "count"),
    ("runner.self_s", "s"),
    ("runner.records", "count"),
    ("runner.passed", "count"),
    ("runner.failed", "count"),
    ("runner.skipped", "count"),
    ("runner.file_p50_ms", "ms"),
    ("runner.file_p99_ms", "ms"),
    ("core.phase.donor_s", "s"),
    ("core.phase.verbatim_s", "s"),
    ("core.phase.translated_s", "s"),
    ("core.phase.coverage_s", "s"),
    ("core.report_s", "s"),
    ("analysis.rq1_s", "s"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.stores", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.bytes", "count"),
    ("formats.hash_s", "s"),
    ("corpus.gen_s", "s"),
    ("corpus.files", "count"),
    ("corpus.records", "count"),
    ("core.triage.clusters", "count"),
    ("core.triage.probes", "count"),
    ("core.triage.probes_per_s", "1/s"),
    ("core.triage.records_kept_ratio", "ratio"),
    ("core.triage.unverified", "count"),
    ("bugstore.hits", "count"),
    ("bugstore.misses", "count"),
    ("bugstore.stores", "count"),
    ("bugstore.bytes", "count"),
    ("backend.roundtrip_s", "s"),
    ("backend.ns_per_stmt", "ns"),
    ("backend.spawns", "count"),
    ("backend.restarts", "count"),
    ("backend.faults", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_s", "s"),
    ("share.engine", "ratio"),
    ("share.parse", "ratio"),
    ("share.translate", "ratio"),
    ("share.table8", "ratio"),
];

/// Run parameters. The program sees only the inputs generated from them.
pub struct Params {
    pub seed: u64,
    pub scale: f64,
    /// Scheduler and reducer workers per study cell.
    pub workers: usize,
    pub seconds: f64,
    /// Timed iterations run even when `seconds` has passed.
    pub min_iters: usize,
    /// Scratch directory for the result cache, bug store and trace file.
    pub work: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload study_cold|study_warm|study_subprocess \
         --seed N --seconds S --trace 0|1 --work-dir DIR [--scale F] [--min-iters K]"
    );
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| usage(&format!("bad value for {flag}: {value}")))
}

fn main() {
    let mut workload = None;
    let mut trace = false;
    let mut p = Params {
        seed: DEFAULT_SEED,
        scale: 1.0,
        workers: 2,
        seconds: 10.0,
        min_iters: 3,
        work: PathBuf::from(".bench_work"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("missing value for {flag}")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => p.seed = parse(&flag, &value),
            "--seconds" => p.seconds = parse(&flag, &value),
            "--trace" => trace = parse::<u8>(&flag, &value) == 1,
            "--scale" => p.scale = parse(&flag, &value),
            "--min-iters" => p.min_iters = parse(&flag, &value),
            "--work-dir" => p.work = PathBuf::from(&value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let kind = match workload.as_str() {
        "study_cold" => study::Kind::Cold,
        "study_warm" => study::Kind::Warm,
        "study_subprocess" => study::Kind::Subprocess,
        other => usage(&format!("unknown workload {other}")),
    };
    // Each run gets its own scratch directory, removed when it ends.
    let root = p.work.clone();
    p.work = root.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&p.work).expect("create the work directory");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench context: {{\"workload\": \"{workload}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"scale\": {}, \"workers\": {}, \"nproc\": {nproc}, \"trace\": {}, \
         \"rustc\": \"{}\", \"revision\": \"{}\"}}",
        p.seed,
        p.scale,
        p.workers,
        u8::from(trace),
        std::env::var("PERFBENCH_RUSTC").unwrap_or_default(),
        std::env::var("PERFBENCH_REVISION").unwrap_or_default(),
    );

    let mut ops = Ops::default();
    let metrics = if trace {
        let (measured, tracer) = study::traced(kind, &p, &mut ops);
        let path = root.join(format!("trace-{workload}.tsv"));
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("cannot write {}: {e}", path.display());
        }
        complete(&measured, &PER_LAYER)
    } else {
        complete(&study::run(kind, &p, &mut ops), &END_TO_END)
    };
    let _ = std::fs::remove_dir_all(&p.work);
    println!("{}", result_line(ops, &metrics));
}

/// Emit `names` in order, taking each from `measured` and reading 0 for a
/// layer the workload bypasses. A measured metric missing from `names`,
/// or with another unit, is a bug in this benchmark.
fn complete(measured: &Metrics, names: &[(&str, &'static str)]) -> Metrics {
    for (name, _, unit) in measured.entries() {
        let known = names.iter().any(|(n, u)| n == name && u == unit);
        assert!(known, "metric {name} [{unit}] is not in the benchmark's list");
    }
    let mut out = Metrics::default();
    for (name, unit) in names {
        let value = measured.entries().iter().find(|(n, ..)| n == name).map_or(0.0, |(_, v, _)| *v);
        out.put(name, value, unit);
    }
    out
}
