//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! squality-tables [section...] [--scale F] [--seed N] [--workers W]
//!                 [--backend in-process|subprocess] [--backend-deadline-ms MS]
//!                 [--events PATH] [--progress]
//!                 [--cache] [--cache-dir DIR] [--no-cache]
//!                 [--reduce] [--out DIR] [--max-probes N] [--store DIR]
//!                 [--reruns N] [--backend-axis]
//! sections: table1 figure1 table2 figure2 table3 figure3 table4 table5
//!           figure4 table6 table7 table8 translation bugs all (default: all)
//!           triage (signature clustering [+ --reduce ddmin repros → --out]
//!                   [+ --store incremental reduction against a bug store])
//!           stability (flakiness arm: --reruns baseline re-executions +
//!                      perturbation probes per failure cluster and bug;
//!                      table also written to --out/stability.txt)
//! squality-tables cache stats|clear [--cache-dir DIR]
//! squality-tables bugs list|show KEY|replay|import DIR|gc [--store DIR]
//! ```
//!
//! `--workers 0` (the default) shards suite execution over all cores; any
//! worker count produces byte-identical tables.
//!
//! `--backend subprocess` runs every study cell against
//! `squality-backend-worker` child processes instead of the in-process
//! engine: worker crashes, hangs, and protocol breaks become classified
//! failures with bounded restarts, and a fault breakdown is reported on
//! stderr after the run. Subprocess cells are never served from the
//! result cache; Table 8's coverage is read back from the workers.
//!
//! `--events PATH` streams every study cell's run events to a JSONL log
//! (byte-identical at any worker count); `--progress` reports per-file
//! progress live on stderr.
//!
//! `triage` clusters every study failure by its `FailureSignature` and
//! prints the triage table; with `--reduce` it also ddmin-minimizes one
//! exemplar per cluster (fanned out over `--workers`) and writes each
//! **verified** repro — re-parsed and re-executed standalone to the same
//! signature — as a self-contained `.test` file under `--out` (default
//! `triage-repros`).
//!
//! `stability` runs the flakiness arm: every failure cluster and bug
//! finding re-executes `--reruns` times in the configuration its cell ran
//! in (`--backend` included), then once per perturbation axis with one
//! knob flipped (exec strategy, plan cache, fault profile, and — with
//! `--backend-axis` — in-process ↔ subprocess backend), classifying each
//! as stable, flaky, or perturbation-sensitive. The table is printed and,
//! when `--out` is given, written to `--out/stability.txt` — it is
//! byte-identical at every `--workers` count.
//!
//! `--store DIR` attaches the persistent bug repository to `triage
//! --reduce`: clusters whose signature already has a stored, verified
//! repro replay from disk with **zero** ddmin probes, entries minimized
//! under an older `ENGINE_SEMANTICS_VERSION` are re-verified with a
//! single probe, and new clusters are minimized and persisted. The
//! `bugs` subcommands then operate on that repository directly: `list`
//! tabulates every entry, `show KEY` dumps one entry with its repro
//! text, `replay` runs the whole repro corpus as a regression suite and
//! reports still-failing / fixed / regressed transitions (exit status 1
//! if anything regressed; byte-identical output at any `--workers`
//! count), `import DIR` merges entries from another store, and `gc`
//! drops entries minimized under a stale semantics version.
//!
//! `--cache` replays study cells from the content-addressed result cache
//! (default `.squality-cache/`, override with `--cache-dir`): a repeated
//! run skips every unchanged file and produces byte-identical tables and
//! event logs. `cache stats` / `cache clear` introspect the store.
//!
//! Timings are not this binary's job: the repository benchmark is
//! `python3 perfbench/run.py` (see `perfbench/README.md`).

use squality_core::triage::{triage_study_with_observers, TriageConfig};
use squality_core::{
    bug_store_table, replay_store_with_observers, replay_table, run_study_cached, stability_table,
    triage_table, BackendSpec, BugStore, ReplayConfig, ResultCache, StabilityConfig, Study,
    StudyConfig,
};
use squality_engine::ENGINE_SEMANTICS_VERSION;
use squality_runner::{JsonlObserver, ProgressObserver, RunObserver};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The default `--scale`: the full report.
const REPORT_SCALE: f64 = 0.25;

/// Every study section this binary renders.
const SECTIONS: &str = "table1 figure1 table2 figure2 table3 figure3 table4 table5 figure4 \
                        table6 table7 table8 translation bugs all triage stability";

/// The parsed command line.
struct Args {
    sections: Vec<String>,
    scale: f64,
    seed: u64,
    workers: usize,
    events: Option<String>,
    progress: bool,
    reduce: bool,
    out_dir: Option<String>,
    max_probes: usize,
    reruns: usize,
    backend_axis: bool,
    use_cache: bool,
    cache_dir: Option<PathBuf>,
    store_dir: Option<PathBuf>,
    backend: BackendSpec,
}

/// Parse the arguments after the program name. `Err` carries the usage
/// error (empty for `--help`); an unknown flag is one.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        sections: Vec::new(),
        scale: REPORT_SCALE,
        seed: 0x5C0A11,
        workers: 0,
        events: None,
        progress: false,
        reduce: false,
        out_dir: None,
        max_probes: 192,
        reruns: 3,
        backend_axis: false,
        use_cache: false,
        cache_dir: None,
        store_dir: None,
        backend: BackendSpec::InProcess,
    };
    let mut deadline_ms: Option<u64> = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("missing value for {arg}"));
        match arg.as_str() {
            "--cache" => a.use_cache = true,
            "--no-cache" => (a.use_cache, a.cache_dir) = (false, None),
            "--cache-dir" => (a.use_cache, a.cache_dir) = (true, Some(value()?.into())),
            "--events" => a.events = Some(value()?),
            "--progress" => a.progress = true,
            "--reduce" => a.reduce = true,
            "--out" => a.out_dir = Some(value()?),
            "--store" => a.store_dir = Some(value()?.into()),
            "--reruns" => a.reruns = number(&arg, value()?)?,
            "--backend-axis" => a.backend_axis = true,
            "--backend-deadline-ms" => deadline_ms = Some(number(&arg, value()?)?),
            "--max-probes" => a.max_probes = number(&arg, value()?)?,
            "--scale" => a.scale = number(&arg, value()?)?,
            "--seed" => a.seed = number(&arg, value()?)?,
            "--workers" => a.workers = number(&arg, value()?)?,
            "--backend" => match value()?.as_str() {
                "in-process" => a.backend = BackendSpec::InProcess,
                "subprocess" => a.backend = BackendSpec::subprocess(),
                other => {
                    return Err(format!(
                        "--backend must be `in-process` or `subprocess`, got {other}"
                    ))
                }
            },
            "--help" | "-h" => return Err(String::new()),
            s if s.starts_with('-') => return Err(format!("unknown flag {s}")),
            _ => a.sections.push(arg),
        }
    }
    if a.sections.is_empty() {
        a.sections.push("all".to_string());
    }
    // The configurable subprocess deadline applies to the study backend
    // (and so to the stability arm's reruns of its cells) and to bug-store
    // replay alike.
    if let Some(ms) = deadline_ms {
        a.backend = a.backend.with_deadline(Duration::from_millis(ms));
    }
    Ok(a)
}

/// A numeric flag value.
fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad value {value:?} for {flag}"))
}

/// Reject a study run that names a section this binary does not render,
/// before any corpus is generated. The `cache` and `bugs` subcommands
/// take their own words and are checked where they run.
fn check_sections(sections: &[String]) -> Result<(), String> {
    match sections.iter().find(|s| !SECTIONS.split_whitespace().any(|known| known == *s)) {
        Some(unknown) => Err(format!("unknown section {unknown}")),
        None => Ok(()),
    }
}

fn main() {
    let a = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| usage(&msg));
    let (sections, workers, backend) = (&a.sections, a.workers, &a.backend);

    // The `bugs list|show|replay|import|gc` subcommands operate on the
    // persistent bug repository without running a study. A bare `bugs`
    // section (no subcommand word) still renders the crash-findings
    // report from a fresh study, as it always has.
    if sections.first().map(String::as_str) == Some("bugs")
        && matches!(
            sections.get(1).map(String::as_str),
            Some("list" | "show" | "replay" | "import" | "gc")
        )
    {
        let root = a.store_dir.clone().unwrap_or_else(BugStore::default_dir);
        let store = BugStore::new(&root);
        match sections.get(1).map(String::as_str) {
            Some("list") => bugs_list(&store),
            Some("show") => bugs_show(&store, sections.get(2).map(String::as_str)),
            Some("replay") => bugs_replay(&store, workers, backend, a.events.as_deref()),
            Some("import") => bugs_import(&store, sections.get(2).map(String::as_str)),
            Some("gc") => bugs_gc(&store),
            _ => unreachable!(),
        }
        return;
    }

    // The `cache` subcommand introspects the store without running anything.
    if sections.first().map(String::as_str) == Some("cache") {
        let root = a.cache_dir.clone().unwrap_or_else(ResultCache::default_dir);
        match sections.get(1).map(String::as_str) {
            Some("stats") => cache_stats(&root),
            Some("clear") => cache_clear(&root),
            other => usage(&format!(
                "cache subcommand must be `stats` or `clear`, got {}",
                other.unwrap_or("nothing")
            )),
        }
        return;
    }

    check_sections(sections).unwrap_or_else(|msg| usage(&msg));

    // The translated arm doubles matrix execution; only pay for it when a
    // requested section renders it.
    let translated_arm = sections.iter().any(|s| s == "translation" || s == "all");

    let stability_config = sections.iter().any(|s| s == "stability").then(|| {
        StabilityConfig::default()
            .with_reruns(a.reruns)
            .with_workers(workers)
            .with_backend_axis(a.backend_axis)
    });

    eprintln!(
        "generating corpora and running the study (seed={}, scale={}, workers={}, backend={})...",
        a.seed,
        a.scale,
        if workers == 0 { "auto".to_string() } else { workers.to_string() },
        backend.tag()
    );
    let jsonl = a.events.as_deref().map(open_events_log);
    let progress_obs = a.progress.then(ProgressObserver::stderr);
    let mut observers: Vec<&dyn RunObserver> = Vec::new();
    if let Some(obs) = &jsonl {
        observers.push(obs);
    }
    if let Some(obs) = &progress_obs {
        observers.push(obs);
    }
    let mut config = StudyConfig::default()
        .with_seed(a.seed)
        .with_scale(a.scale)
        .with_workers(workers)
        .with_translated_arm(translated_arm)
        .with_backend(backend.clone());
    if let Some(stability) = &stability_config {
        config = config.with_stability_arm(stability.clone());
    }
    let cache = a.use_cache.then(|| {
        let root = a.cache_dir.clone().unwrap_or_else(ResultCache::default_dir);
        eprintln!("result cache: {}", root.display());
        Arc::new(ResultCache::new(root))
    });
    let study = run_study_cached(config, &observers, cache.clone());
    if let Some(cache) = &cache {
        let s = cache.stats();
        eprintln!(
            "result cache: {} hits, {} misses, {} stored ({:.1}% hit rate)",
            s.hits,
            s.misses,
            s.stores,
            s.hit_rate() * 100.0
        );
        cache.persist_stats();
    }
    if matches!(backend, BackendSpec::Subprocess { .. }) {
        let f = &study.backend_faults;
        eprintln!(
            "backend faults: {} crashes, {} timeouts, {} protocol errors \
             ({} restarts, {} worker spawns)",
            f.crashes, f.timeouts, f.protocol_errors, f.restarts, f.spawns
        );
    }
    if let Some(path) = &a.events {
        eprintln!("wrote run events to {path}");
    }
    for section in sections {
        if section == "triage" {
            run_triage(&study, &a);
        } else if section == "stability" {
            run_stability(&study, a.out_dir.as_deref());
        } else {
            print_section(&study, section);
        }
    }
}

/// The stability section: print the flakiness table (already computed by
/// the study's stability arm) and, with `--out`, persist it as an
/// artifact for cross-run comparison.
fn run_stability(study: &Study, out_dir: Option<&str>) {
    let Some(report) = &study.stability else {
        // Unreachable from main (requesting the section enables the arm),
        // but degrade gracefully for future callers.
        eprintln!("stability arm did not run");
        return;
    };
    let table = stability_table(report);
    print!("{table}");
    if let Some(dir) = out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create output dir {dir}: {e}");
            std::process::exit(1);
        }
        let path = format!("{dir}/stability.txt");
        if let Err(e) = std::fs::write(&path, &table) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote stability table to {path}");
    }
}

/// The triage section: cluster, optionally reduce, emit verified repros
/// (to `--out`, default `triage-repros`). With a `--store` directory,
/// reduction runs incrementally against the persistent bug repository.
fn run_triage(study: &Study, a: &Args) {
    let mut config = TriageConfig::default()
        .with_reduce(a.reduce)
        .with_workers(a.workers)
        .with_max_probes(a.max_probes)
        .with_backend(a.backend.clone());
    let store = a.store_dir.as_deref().map(|root| {
        eprintln!("bug store: {}", root.display());
        BugStore::shared(root)
    });
    if let Some(store) = &store {
        config = config.with_store(Arc::clone(store));
    }
    // Only the progress observer follows into triage: reduction probes run
    // in parallel across clusters, and the JSONL observer's per-suite
    // buffering assumes one suite at a time.
    let progress_obs = a.progress.then(ProgressObserver::stderr);
    let observers: Vec<&dyn RunObserver> = match &progress_obs {
        Some(obs) => vec![obs],
        None => Vec::new(),
    };
    let report = triage_study_with_observers(study, &config, &observers);
    print!("{}", triage_table(&report));
    if let Some(store) = &store {
        let s = store.stats();
        let (entries, bytes) = store.disk_usage();
        eprintln!(
            "bug store: {} hits, {} misses, {} stored, {} corrupt \
             ({entries} entries, {bytes} bytes on disk)",
            s.hits, s.misses, s.stores, s.corrupt
        );
    }
    if !a.reduce {
        return;
    }
    let out_dir = a.out_dir.as_deref().unwrap_or("triage-repros");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("error: cannot create repro dir {out_dir}: {e}");
        std::process::exit(1);
    }
    let mut written = 0usize;
    for r in report.verified_repros() {
        let path = format!("{out_dir}/{}", r.repro_name);
        if let Err(e) = std::fs::write(&path, &r.repro_text) {
            eprintln!("error: cannot write repro {path}: {e}");
            std::process::exit(1);
        }
        written += 1;
    }
    let unverified = report.reductions.len() - written;
    println!(
        "Emitted {written} verified repro files to {out_dir}/ \
         ({unverified} reductions withheld as unverified)"
    );
}

fn print_section(study: &Study, section: &str) {
    use squality_core::report::*;
    let text = match section {
        "table1" => table1(study),
        "figure1" => figure1(study),
        "table2" => table2(study),
        "figure2" => figure2(study),
        "table3" => table3(study),
        "figure3" => figure3(study),
        "table4" => table4(study),
        "table5" => table5(study),
        "figure4" => figure4(study),
        "table6" => table6(study),
        "table7" => table7(study),
        "table8" => table8(study),
        "translation" => translation_table(study),
        "bugs" => bug_report(study),
        "all" => full_report(study),
        other => unreachable!("section {other} passed check_sections"),
    };
    println!("{text}");
}

/// Create the parent directory of an output-file path when it is
/// missing, so a flag like `--events deep/nested/run.jsonl` works on a
/// fresh checkout. A bare filename (no parent component) is a no-op.
fn ensure_parent_dir(path: &Path) -> std::io::Result<()> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent),
        _ => Ok(()),
    }
}

/// Open the `--events` JSONL log, creating missing parent directories so
/// a nested path works on a fresh checkout.
fn open_events_log(path: &str) -> JsonlObserver {
    if let Err(e) = ensure_parent_dir(Path::new(path)) {
        eprintln!("error: cannot create events log directory for {path}: {e}");
        std::process::exit(1);
    }
    JsonlObserver::to_path(path).unwrap_or_else(|e| {
        eprintln!("error: cannot create events log {path}: {e}");
        std::process::exit(1);
    })
}

/// `bugs list`: tabulate every persisted entry.
fn bugs_list(store: &BugStore) {
    print!("{}", bug_store_table(&store.entries()));
    let (entries, bytes) = store.disk_usage();
    eprintln!("bug store: {} ({entries} entries, {bytes} bytes)", store.root().display());
}

/// `bugs show KEY`: dump one entry, provenance and repro text included.
fn bugs_show(store: &BugStore, key: Option<&str>) {
    let raw = key.unwrap_or_else(|| usage("bugs show needs a 16-hex-digit entry key"));
    let key = u64::from_str_radix(raw.trim_start_matches("0x"), 16)
        .unwrap_or_else(|_| usage(&format!("bugs show key must be hex, got {raw}")));
    let Some(entry) = store.lookup_key(key) else {
        eprintln!("no entry {key:016x} in {}", store.root().display());
        std::process::exit(1);
    };
    println!("key:         {key:016x}");
    println!("cell:        {:?} on {:?} ({})", entry.suite, entry.host, entry.arm.label());
    println!("signature:   [{}] {}", entry.signature.statement, entry.signature.normalized);
    println!(
        "stability:   {}",
        entry.stability.as_ref().map_or_else(|| "-".to_string(), |s| s.label())
    );
    println!("translation: {:?}", entry.translation);
    println!(
        "reduction:   {} -> {} records in {} probes ({})",
        entry.records_before,
        entry.records_after,
        entry.probes,
        if entry.reproduced { "verified" } else { "tombstone" }
    );
    println!("semantics:   v{} (current v{ENGINE_SEMANTICS_VERSION})", entry.semantics_version);
    println!("first seen:  study {}", entry.first_seen);
    println!("last seen:   study {}", entry.last_seen);
    if entry.repro_text.is_empty() {
        println!("repro:       (none — cluster did not reproduce standalone)");
    } else {
        println!("repro:       {}", entry.repro_name);
        println!("---");
        print!("{}", entry.repro_text);
    }
}

/// `bugs replay`: run the repro corpus as a regression suite. Exit
/// status 1 when any stored bug regressed into a new failure mode.
fn bugs_replay(store: &BugStore, workers: usize, backend: &BackendSpec, events: Option<&str>) {
    let config = ReplayConfig::default().with_workers(workers).with_backend(backend.clone());
    let jsonl = events.map(open_events_log);
    let observers: Vec<&dyn RunObserver> = match &jsonl {
        Some(obs) => vec![obs],
        None => Vec::new(),
    };
    let report = replay_store_with_observers(store, &config, &observers);
    print!("{}", replay_table(&report));
    eprintln!(
        "replayed {} statements in {:.1} ms ({:.0} statements/sec)",
        report.total_statements,
        report.elapsed_nanos as f64 / 1e6,
        report.statements_per_sec()
    );
    if let Some(path) = events {
        eprintln!("wrote run events to {path}");
    }
    if report.regressed() > 0 {
        std::process::exit(1);
    }
}

/// `bugs import DIR`: merge entries from another store, keeping ours on
/// key collisions.
fn bugs_import(store: &BugStore, src: Option<&str>) {
    let src = src.unwrap_or_else(|| usage("bugs import needs a source store directory"));
    let (imported, skipped) = store.import(&BugStore::new(src));
    println!(
        "imported {imported} entries from {src} into {} ({skipped} already present)",
        store.root().display()
    );
}

/// `bugs gc`: drop entries minimized under a stale semantics version.
fn bugs_gc(store: &BugStore) {
    let (removed, kept) = store.gc(ENGINE_SEMANTICS_VERSION);
    println!(
        "removed {removed} stale entries, kept {kept} at semantics v{ENGINE_SEMANTICS_VERSION}"
    );
}

/// `cache stats`: entry count, bytes on disk, and the counters persisted
/// by the last cached study run.
fn cache_stats(root: &std::path::Path) {
    let cache = ResultCache::new(root);
    let (entries, bytes) = cache.disk_usage();
    println!("cache directory: {}", root.display());
    println!("entries: {entries}");
    println!("bytes: {bytes}");
    match ResultCache::last_run_stats(root) {
        Some(s) => {
            println!(
                "last run: {} hits, {} misses, {} stored, {} corrupt ({:.1}% hit rate)",
                s.hits,
                s.misses,
                s.stores,
                s.corrupt,
                s.hit_rate() * 100.0
            );
        }
        None => println!("last run: no recorded stats"),
    }
}

/// `cache clear`: drop every stored entry.
fn cache_clear(root: &std::path::Path) {
    let cache = ResultCache::new(root);
    let (entries, bytes) = cache.disk_usage();
    if let Err(e) = cache.clear() {
        eprintln!("error: cannot clear cache {}: {e}", root.display());
        std::process::exit(1);
    }
    println!("cleared {entries} entries ({bytes} bytes) from {}", root.display());
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: squality-tables [section...] [--scale F] [--seed N] [--workers W]\n\
         \x20                      [--backend in-process|subprocess] [--backend-deadline-ms MS]\n\
         \x20                      [--events PATH] [--progress]\n\
         \x20                      [--cache] [--cache-dir DIR] [--no-cache]\n\
         \x20                      [--reduce] [--out DIR] [--max-probes N] [--store DIR]\n\
         \x20                      [--reruns N] [--backend-axis]\n\
         \x20      squality-tables cache stats|clear [--cache-dir DIR]\n\
         \x20      squality-tables bugs list|show KEY|replay|import DIR|gc [--store DIR]\n\
         sections: table1..table8, figure1..figure4, translation, bugs, all, triage,\n\
         \x20         stability"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::{check_sections, ensure_parent_dir, parse_args};
    use std::path::Path;

    fn parse(args: &[&str]) -> Result<Vec<String>, String> {
        let args = parse_args(args.iter().map(|a| a.to_string()))?;
        check_sections(&args.sections)?;
        Ok(args.sections)
    }

    #[test]
    fn unknown_flags_and_sections_are_rejected_before_the_study() {
        assert_eq!(parse(&[]).unwrap(), ["all"]);
        assert_eq!(
            parse(&["triage", "--reduce", "--scale", "0.05", "stability"]).unwrap(),
            ["triage", "stability"]
        );
        // A retired flag is an error, not a section the study runs for.
        assert_eq!(
            parse(&["stability", "--fault-schedules"]).unwrap_err(),
            "unknown flag --fault-schedules"
        );
        assert_eq!(parse(&["-x"]).unwrap_err(), "unknown flag -x");
        assert_eq!(parse(&["figure9"]).unwrap_err(), "unknown section figure9");
        assert_eq!(parse(&["--scale"]).unwrap_err(), "missing value for --scale");
        assert_eq!(parse(&["--seed", "x"]).unwrap_err(), "bad value \"x\" for --seed");
        assert_eq!(parse(&["--help"]).unwrap_err(), "");
    }

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
