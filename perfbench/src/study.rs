//! The three study workloads: `study_cold`, `study_warm` and
//! `study_subprocess`. Each timed iteration is one closed-loop harness
//! client doing what a user does: run the study, triage its failures, and
//! render every table.

use crate::probe::{phase_of, replicate_verbatim, PhaseObserver, Replica};
use crate::report::{
    digest, measure, median, percentile, ratio, DigestWriter, Metrics, Ops, Sample,
};
use crate::trace::{wall_self_times, SpanId, Tracer};
use crate::Params;
use squality_backend::{discover_worker_bin, SubprocessConnectorFactory};
use squality_core::report::{figure4, full_report, table6, table7, triage_table};
use squality_core::triage::{triage_study, TriageConfig, TriageReport};
use squality_core::{
    run_study_cached, BackendSpec, BugStore, ResultCache, Study, StudyConfig, EXECUTED_SUITES,
};
use squality_corpus::{donor_dialect, generate_suite_scaled};
use squality_engine::{EngineDialect, PlanCache};
use squality_formats::{file_content_hash, SuiteKind};
use squality_runner::{ConnectorFactory, EngineConnector, JsonlObserver, RunObserver};
use squality_sqlast::translate::{translate_sql, TranslationStats};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Extra timings of the warm re-triage, which takes milliseconds and can
/// repeat without side effects.
const REPEATS: usize = 30;
/// Extra timings of a triage into an empty store (a full ddmin reduction
/// each).
const FRESH_REPEATS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Warm,
    Subprocess,
}

/// Where an iteration keeps its on-disk stores.
struct Dirs {
    cache: PathBuf,
    store: PathBuf,
}

/// One timed iteration's results.
struct Iteration {
    wall_s: f64,
    study_s: f64,
    triage_s: f64,
    report_s: f64,
    study: Study,
    triage: TriageReport,
    /// Digest of the full report (every table and figure).
    report_digest: u64,
    events_digest: u64,
    /// Digest of the repro set: name, text and verification per cluster.
    repro_digest: u64,
    /// Figure 4, Tables 6 and 7, rendered outside the timed part.
    matrix_tables: String,
    cache: Option<Arc<ResultCache>>,
    store: Arc<BugStore>,
}

impl Kind {
    fn config(self, p: &Params) -> StudyConfig {
        let config =
            StudyConfig::default().with_seed(p.seed).with_scale(p.scale).with_workers(p.workers);
        match self {
            Kind::Cold | Kind::Warm => config.with_translated_arm(true),
            Kind::Subprocess => {
                config.with_translated_arm(false).with_backend(BackendSpec::subprocess())
            }
        }
    }

    /// Cold and subprocess iterations reduce into an empty bug store;
    /// warm ones re-triage against the store filled in set-up.
    fn fresh_store(self) -> bool {
        self != Kind::Warm
    }
}

/// Run the study, triage it and render the report: the timed part. With a
/// tracer, the iteration is a span tree rooted at `workload`.
fn iteration(
    kind: Kind,
    p: &Params,
    dirs: &Dirs,
    cache: bool,
    trace: Option<&Tracer>,
) -> Iteration {
    let cache = cache.then(|| ResultCache::shared(&dirs.cache));
    let store = BugStore::shared(&dirs.store);
    let events_digest = DigestWriter::new();
    let events = JsonlObserver::to_writer(Box::new(events_digest.clone()));
    let root = trace.map(|t| t.open("workload", None, 0));
    let started = Instant::now();

    let study_span = trace.map(|t| t.open("study", root, 0));
    let phases = trace.zip(study_span).map(|(t, s)| PhaseObserver::new(t, s));
    let mut observers: Vec<&dyn RunObserver> = Vec::new();
    if kind != Kind::Subprocess {
        observers.push(&events);
    }
    if let Some(obs) = &phases {
        observers.push(obs);
    }
    let study = run_study_cached(kind.config(p), &observers, cache.clone());
    let study_s = started.elapsed().as_secs_f64();
    close(trace, study_span);

    let triage_config = |store: Arc<BugStore>| {
        TriageConfig::default().with_workers(p.workers).with_reduce(true).with_store(store)
    };
    let triage_span = trace.map(|t| t.open("triage", root, 0));
    let triage_started = Instant::now();
    let triage = triage_study(&study, &triage_config(store.clone()));
    let mut triage_s = triage_started.elapsed().as_secs_f64();
    close(trace, triage_span);

    let report_span = trace.map(|t| t.open("report", root, 0));
    let report_started = Instant::now();
    let report = full_report(&study);
    let triage_text = triage_table(&triage);
    let report_s = report_started.elapsed().as_secs_f64();
    close(trace, report_span);
    let wall_s = started.elapsed().as_secs_f64();
    close(trace, root);

    std::hint::black_box(triage_text);
    // Triage is short next to the study, so one sample is mostly scheduler
    // jitter: time it again outside the wall-clock and keep the median.
    // Warm re-triage (pure bug-store reuse) leaves no state behind; a
    // repeat of a fresh-store triage reduces into another empty store.
    let (repeats, repeat_store) = if kind.fresh_store() {
        (FRESH_REPEATS, dirs.store.with_extension("repeat"))
    } else {
        (REPEATS, dirs.store.clone())
    };
    let mut times = vec![triage_s];
    for _ in 0..repeats {
        if kind.fresh_store() {
            reset_dir(&repeat_store);
        }
        let store = BugStore::shared(&repeat_store);
        let started = Instant::now();
        std::hint::black_box(triage_study(&study, &triage_config(store)));
        times.push(started.elapsed().as_secs_f64());
    }
    triage_s = median(&times);
    let matrix_tables = [figure4(&study), table6(&study), table7(&study)].join("\n");
    let repros: Vec<String> = triage
        .reductions
        .iter()
        .map(|r| format!("{}\n{}\n{}\n", r.repro_name, r.verified, r.repro_text))
        .collect();
    Iteration {
        wall_s,
        study_s,
        triage_s,
        report_s,
        report_digest: digest(report.as_bytes()),
        events_digest: events_digest.digest(),
        repro_digest: digest(repros.concat().as_bytes()),
        matrix_tables,
        study,
        triage,
        cache,
        store,
    }
}

fn close(trace: Option<&Tracer>, span: Option<SpanId>) {
    if let (Some(t), Some(s)) = (trace, span) {
        t.close(s);
    }
}

/// Records the study resolved (live or replayed) in its donor and matrix
/// cells.
fn records(study: &Study) -> u64 {
    let cells = study.matrix.iter().chain(&study.translated_matrix).map(|c| &c.summary);
    study.donor_runs.iter().chain(cells).map(|s| s.total as u64).sum()
}

/// The deterministic counters of one iteration: equal on every run of a
/// seed, at any worker count.
fn counters(it: &Iteration) -> Vec<(&'static str, u64)> {
    let cells = || {
        let cells = it.study.matrix.iter().chain(&it.study.translated_matrix).map(|c| &c.summary);
        it.study.donor_runs.iter().chain(cells)
    };
    let cache = it.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
    let store = it.triage.store_stats.unwrap_or_default();
    vec![
        ("records", records(&it.study)),
        ("passed", cells().map(|s| s.passed as u64).sum()),
        ("failed", cells().map(|s| s.failed as u64).sum()),
        ("skipped", cells().map(|s| s.skipped as u64).sum()),
        ("translation_rules_applied", it.study.translation_counts().applied_total()),
        ("result_cache_hits", cache.hits),
        ("result_cache_misses", cache.misses),
        ("result_cache_stores", cache.stores),
        ("clusters", it.triage.clusters.len() as u64),
        ("ddmin_probes", it.triage.stats.probes as u64),
        ("bugstore_added", store.added as u64),
        ("bugstore_reused", store.reused as u64),
        ("backend_spawns", it.study.backend_faults.spawns),
    ]
}

/// What set-up leaves for the timed iterations to be checked against.
struct Reference {
    report_digest: u64,
    events_digest: u64,
    repro_digest: u64,
    matrix_tables: String,
}

/// Set-up: the cold workload's reference pass, the warm workload's cold
/// pre-fill of the result cache and bug store, or the subprocess
/// workload's in-process reference study. The warm pre-fill is flushed to
/// disk and followed by one untimed warm iteration, so write-back of the
/// fresh entries does not land in the timed part.
fn setup(kind: Kind, p: &Params, dirs: &Dirs, ops: &mut Ops) -> Reference {
    reset_dir(&dirs.cache);
    reset_dir(&dirs.store);
    match kind {
        Kind::Cold | Kind::Warm => {
            let it = iteration(kind, p, dirs, kind == Kind::Warm, None);
            let unverified = it.triage.reductions.iter().filter(|r| !r.verified).count();
            ops.many(
                it.triage.reductions.len() as u64,
                unverified as u64,
                "set-up repros unverified",
            );
            if kind == Kind::Warm {
                sync_tree(&dirs.cache);
                sync_tree(&dirs.store);
                drop(iteration(kind, p, dirs, true, None));
            }
            Reference {
                report_digest: it.report_digest,
                events_digest: it.events_digest,
                repro_digest: it.repro_digest,
                matrix_tables: it.matrix_tables,
            }
        }
        Kind::Subprocess => {
            ops.check(discover_worker_bin().is_some(), "squality-backend-worker binary not found");
            let study = run_study_cached(
                Kind::Subprocess.config(p).with_backend(BackendSpec::InProcess),
                &[],
                None,
            );
            let matrix_tables = [figure4(&study), table6(&study), table7(&study)].join("\n");
            Reference { report_digest: 0, events_digest: 0, repro_digest: 0, matrix_tables }
        }
    }
}

/// `fsync` every file under `dir`.
fn sync_tree(dir: &std::path::Path) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            sync_tree(&path);
        } else if let Ok(f) = std::fs::File::open(&path) {
            let _ = f.sync_all();
        }
    }
}

fn reset_dir(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create benchmark work directory");
}

/// The output checks of one timed iteration. Cold iterations are checked
/// against the reference pass, warm ones against their cold pre-fill, and
/// subprocess ones against the in-process study.
fn check(kind: Kind, it: &Iteration, reference: &Reference, ops: &mut Ops) {
    let unverified = it.triage.reductions.iter().filter(|r| !r.verified).count() as u64;
    ops.many(it.triage.reductions.len() as u64, unverified, "repros unverified");
    if kind == Kind::Subprocess {
        ops.check(
            it.matrix_tables == reference.matrix_tables,
            "subprocess Figure 4 / Tables 6-7 differ from in-process",
        );
        let faults = &it.study.backend_faults;
        ops.many(faults.spawns.max(1), faults.faults(), "backend faults");
        ops.check(faults.spawns > 0, "no backend worker was spawned");
        return;
    }
    ops.check(it.report_digest == reference.report_digest, "report differs from set-up's");
    ops.check(it.events_digest == reference.events_digest, "event log differs from set-up's");
    ops.check(it.repro_digest == reference.repro_digest, "repro set differs from set-up's");
    if kind == Kind::Warm {
        let misses = it.cache.as_ref().map_or(1, |c| c.stats().misses);
        ops.check(misses == 0, "warm study missed the result cache");
        ops.check(it.triage.stats.probes == 0, "warm re-triage spent ddmin probes");
    }
}

/// The untraced run: set up, then iterate and report medians.
pub fn run(kind: Kind, p: &Params, ops: &mut Ops) -> Metrics {
    let dirs = Dirs { cache: p.work.join("cache"), store: p.work.join("store") };
    let setup_started = Instant::now();
    let reference = setup(kind, p, &dirs, ops);
    let setup_s = setup_started.elapsed().as_secs_f64();
    measure(p, setup_s, ops, |ops| {
        if kind.fresh_store() {
            reset_dir(&dirs.store);
        }
        let it = iteration(kind, p, &dirs, kind == Kind::Warm, None);
        check(kind, &it, &reference, ops);
        Sample {
            wall_s: it.wall_s,
            study_s: it.study_s,
            triage_s: it.triage_s,
            records: records(&it.study),
            counters: counters(&it),
        }
    })
}

/// The traced run: set up, one untraced and one traced iteration, then the
/// probes and separate timed passes that split the work by layer.
pub fn traced(kind: Kind, p: &Params, ops: &mut Ops) -> (Metrics, Tracer) {
    let dirs = Dirs { cache: p.work.join("cache"), store: p.work.join("store") };
    let reference = setup(kind, p, &dirs, ops);
    let warm = kind == Kind::Warm;
    if kind.fresh_store() {
        reset_dir(&dirs.store);
    }
    let untraced = iteration(kind, p, &dirs, warm, None);
    check(kind, &untraced, &reference, ops);
    drop(untraced.study);

    let tracer = Tracer::new();
    if kind.fresh_store() {
        reset_dir(&dirs.store);
    }
    let it = iteration(kind, p, &dirs, warm, Some(&tracer));
    check(kind, &it, &reference, ops);
    let mut m = Metrics::default();
    // Only the workload's spans: the replica and passes below add their own.
    let spans = tracer.snapshot();

    // The workload tree: its layers' self times must add up to its
    // wall-clock, within the tracing overhead.
    let root = spans.iter().position(|s| s.name == "workload").expect("workload span");
    let wall_ns = spans[root].dur_ns();
    let overhead_s = it.wall_s - untraced.wall_s;
    let mut layers = std::collections::BTreeMap::<String, u64>::new();
    for (name, ns) in wall_self_times(&spans, root) {
        let layer = match name.strip_prefix("suite:") {
            Some(label) => format!("phase.{}", phase_of(label)),
            None => name,
        };
        *layers.entry(layer).or_default() += ns;
    }
    let body: Vec<String> =
        layers.iter().map(|(k, v)| format!("\"{k}\": {:.6}", *v as f64 / 1e9)).collect();
    println!("perfbench layer self-times (s): {{{}}}", body.join(", "));
    let self_sum: u64 = layers.values().sum();
    let gap_s = (self_sum as f64 - wall_ns as f64).abs() / 1e9;
    ops.check(
        gap_s <= overhead_s.abs() + 1e-3,
        "layer self-times do not add up to the traced wall-clock",
    );

    // Phase split and per-file latency from the observer's spans.
    let mut phase = std::collections::BTreeMap::<&str, f64>::new();
    let mut file_ns: Vec<u64> = Vec::new();
    for s in &spans {
        if let Some(label) = s.name.strip_prefix("suite:") {
            *phase.entry(phase_of(label)).or_default() += s.dur_ns() as f64 / 1e9;
        } else if s.name == "file" {
            file_ns.push(s.dur_ns());
        }
    }
    let phase_s = |name: &str| phase.get(name).copied().unwrap_or(0.0);

    // The replica of the verbatim arm, in-process (and through the
    // subprocess backend for the subprocess workload). The warm workload
    // executes no statements, so it has no replica.
    let plan_cache = PlanCache::shared();
    let replica = if warm {
        Replica::default()
    } else {
        tracer.span("replica.in_process", None, |span| {
            replicate_verbatim(&it.study, &tracer, span, |host, client| {
                let mut conn = EngineConnector::new(host, client);
                conn.set_plan_cache(Arc::clone(&plan_cache));
                conn
            })
        })
    };
    ops.many(replica.cells, replica.mismatched_cells, "replica cells differ from the study");
    let backend = if kind == Kind::Subprocess {
        let bin = discover_worker_bin().unwrap_or_else(|| PathBuf::from("squality-backend-worker"));
        let r = tracer.span("replica.subprocess", None, |span| {
            replicate_verbatim(&it.study, &tracer, span, |host, client| {
                SubprocessConnectorFactory::new(&bin, host, client)
                    .connect()
                    .expect("spawn a squality-backend-worker process")
            })
        });
        ops.many(r.cells, r.mismatched_cells, "subprocess replica cells differ");
        ops.many(
            r.conn.stmts.max(1),
            r.conn.transport_faults,
            "subprocess replica transport faults",
        );
        r
    } else {
        Replica::default()
    };

    // Separate timed passes.
    let (corpus_s, suites) = tracer.span("pass.corpus", None, |_| {
        let started = Instant::now();
        let suites: Vec<_> =
            SuiteKind::ALL.iter().map(|s| generate_suite_scaled(*s, p.seed, p.scale)).collect();
        (started.elapsed().as_secs_f64(), suites)
    });
    let (parse_s, parsed) =
        if warm { (0.0, 0) } else { tracer.span("pass.parse", None, |_| parse_pass(&replica)) };
    let (translate_s, _) = if kind == Kind::Cold {
        tracer.span("pass.translate", None, |_| translate_pass(&it.study))
    } else {
        (0.0, 0)
    };
    let hash_s = if warm { tracer.span("pass.hash", None, |_| hash_pass(&it.study)) } else { 0.0 };
    let rq1_s = tracer.span("pass.analysis", None, |_| rq1_pass(&it.study));

    // Engine layer (from the in-process replica).
    let c = &replica.conn;
    let mut stmt_ns = c.stmt_ns.clone();
    let pc = plan_cache.stats();
    m.put("engine.execute_s", c.execute_ns as f64 / 1e9, "s");
    m.put("engine.ns_per_stmt", ratio(c.execute_ns as f64, c.stmts as f64), "ns");
    m.count("engine.stmts", c.stmts);
    m.count("engine.errors", c.errors);
    m.put("engine.reset_s", c.reset_ns as f64 / 1e9, "s");
    m.put("engine.render_s", c.render_ns as f64 / 1e9, "s");
    m.put("engine.stmt_p50_us", percentile(&mut stmt_ns, 0.50) as f64 / 1e3, "us");
    m.put("engine.stmt_p99_us", percentile(&mut stmt_ns, 0.99) as f64 / 1e3, "us");
    m.count("engine.plan_cache.hits", pc.hits);
    m.count("engine.plan_cache.misses", pc.misses);
    m.put("engine.plan_cache.hit_ratio", pc.hit_rate(), "ratio");
    // Parse and translation.
    m.put("sqlast.parse_s", parse_s, "s");
    m.put("sqlast.parse_ns_per_text", ratio(parse_s * 1e9, parsed as f64), "ns");
    m.put("sqlast.translate_s", translate_s, "s");
    m.count("sqlast.rules_applied", it.study.translation_counts().applied_total());
    // Runner (from the replica) and per-file latency (from the study).
    let runner_ns = replica.file_ns.saturating_sub(c.execute_ns + c.reset_ns + c.render_ns);
    m.put("runner.self_s", runner_ns as f64 / 1e9, "s");
    m.count("runner.records", replica.records);
    m.count("runner.passed", replica.passed);
    m.count("runner.failed", replica.failed);
    m.count("runner.skipped", replica.skipped);
    m.put("runner.file_p50_ms", percentile(&mut file_ns.clone(), 0.50) as f64 / 1e6, "ms");
    m.put("runner.file_p99_ms", percentile(&mut file_ns, 0.99) as f64 / 1e6, "ms");
    // Study phases, report and analysis.
    m.put("core.phase.donor_s", phase_s("donor"), "s");
    m.put("core.phase.verbatim_s", phase_s("verbatim"), "s");
    m.put("core.phase.translated_s", phase_s("translated"), "s");
    m.put("core.phase.coverage_s", phase_s("coverage"), "s");
    m.put("core.report_s", it.report_s, "s");
    m.put("analysis.rq1_s", rq1_s, "s");
    // Result cache, hashing and corpus generation.
    let cache = it.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
    m.count("core.cache.hits", cache.hits);
    m.count("core.cache.misses", cache.misses);
    m.count("core.cache.stores", cache.stores);
    m.put("core.cache.hit_ratio", cache.hit_rate(), "ratio");
    m.count("core.cache.bytes", it.cache.as_ref().map_or(0, |c| c.disk_usage().1));
    m.put("formats.hash_s", hash_s, "s");
    m.put("corpus.gen_s", corpus_s, "s");
    m.count("corpus.files", suites.iter().map(|s| s.files.len() as u64).sum());
    m.count("corpus.records", suites.iter().map(|s| s.total_records() as u64).sum());
    // Triage and the bug store.
    let t = &it.triage;
    let unverified = t.reductions.iter().filter(|r| !r.verified).count() as u64;
    m.count("core.triage.clusters", t.clusters.len() as u64);
    m.count("core.triage.probes", t.stats.probes as u64);
    m.put("core.triage.probes_per_s", t.stats.probes_per_sec(), "1/s");
    m.put(
        "core.triage.records_kept_ratio",
        ratio(t.stats.records_after as f64, t.stats.records_before as f64),
        "ratio",
    );
    m.count("core.triage.unverified", unverified);
    let store = it.store.stats();
    m.count("bugstore.hits", store.hits);
    m.count("bugstore.misses", store.misses);
    m.count("bugstore.stores", store.stores);
    m.count("bugstore.bytes", it.store.disk_usage().1);
    // Backend (from the subprocess replica and the study's counters).
    let b = &backend.conn;
    let faults = &it.study.backend_faults;
    m.put("backend.roundtrip_s", b.execute_ns as f64 / 1e9, "s");
    m.put("backend.ns_per_stmt", ratio(b.execute_ns as f64, b.stmts as f64), "ns");
    m.count("backend.spawns", faults.spawns);
    m.count("backend.restarts", faults.restarts);
    m.count("backend.faults", faults.faults() + b.transport_faults);
    // Tracing and layer shares.
    m.put("trace.wall_s", wall_ns as f64 / 1e9, "s");
    m.put("trace.overhead_s", overhead_s, "s");
    m.put("trace.self_sum_s", self_sum as f64 / 1e9, "s");
    let parse_in_loop = pc.misses as f64 * ratio(parse_s * 1e9, parsed as f64);
    let loop_ns = replica.loop_ns as f64;
    m.put("share.engine", ratio(c.execute_ns as f64 - parse_in_loop, loop_ns), "ratio");
    m.put("share.parse", ratio(parse_in_loop, loop_ns), "ratio");
    m.put("share.translate", ratio(translate_s * 1e9, translate_s * 1e9 + loop_ns), "ratio");
    m.put("share.table8", ratio(phase_s("coverage"), it.study_s), "ratio");
    (m, tracer)
}

/// `PlanCache::parse` on a cold cache over the distinct texts the replica
/// executed, each under its host's dialect.
fn parse_pass(replica: &Replica) -> (f64, usize) {
    let cache = PlanCache::new();
    let started = Instant::now();
    for (host, sql) in &replica.texts {
        let dialect = EngineDialect::ALL[*host].text_dialect();
        let _ = std::hint::black_box(cache.parse(dialect, sql));
    }
    (started.elapsed().as_secs_f64(), replica.texts.len())
}

/// Uncached translation of every distinct statement text of each executed
/// suite to every other host's dialect — the work the translated arm's
/// memo does once per cell.
fn translate_pass(study: &Study) -> (f64, usize) {
    let stats = TranslationStats::new();
    let mut texts = 0;
    let mut elapsed = 0.0;
    for kind in EXECUTED_SUITES {
        let from = donor_dialect(kind);
        let distinct: BTreeSet<String> =
            squality_analysis::statements::all_sql(&study.suite(kind).files).into_iter().collect();
        let started = Instant::now();
        for host in EngineDialect::ALL.into_iter().filter(|h| *h != from) {
            for sql in &distinct {
                let _ = std::hint::black_box(translate_sql(
                    sql,
                    from.text_dialect(),
                    host.text_dialect(),
                    &stats,
                ));
                texts += 1;
            }
        }
        elapsed += started.elapsed().as_secs_f64();
    }
    (elapsed, texts)
}

/// `file_content_hash` over every file of the executed suites, once per
/// study cell that keys its files by content (donor, both matrix arms and
/// the coverage re-runs: 3 + 12 + 12 + 12 cells).
fn hash_pass(study: &Study) -> f64 {
    let started = Instant::now();
    for kind in EXECUTED_SUITES {
        let cells = 1 + 4 * if study.translated_matrix.is_empty() { 1 } else { 2 } + 4;
        for _ in 0..cells {
            for f in &study.suite(kind).files {
                std::hint::black_box(file_content_hash(f));
            }
        }
    }
    started.elapsed().as_secs_f64()
}

/// The RQ1 census analyses behind Tables 1-3 and Figures 1-3, over all
/// four generated suites.
fn rq1_pass(study: &Study) -> f64 {
    use squality_analysis::{
        command_usage, compliance, loc_stats, predicate_distribution, statement_distribution,
    };
    let started = Instant::now();
    for gs in &study.suites {
        std::hint::black_box(loc_stats(&gs.files));
        std::hint::black_box(command_usage(&gs.files));
        std::hint::black_box(statement_distribution(&gs.files));
        std::hint::black_box(compliance(&gs.files));
        std::hint::black_box(predicate_distribution(&gs.files));
    }
    started.elapsed().as_secs_f64()
}
