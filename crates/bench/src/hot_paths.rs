//! The `engine_hot_paths` workload: the four execution-core shapes this
//! repo's hash rewrite targets (grouped aggregation, DISTINCT, equi-join,
//! set operations), each runnable under either [`ExecStrategy`] so the
//! criterion group and the `squality-tables bench-engine` mode can measure
//! before (naive) vs after (hash) on identical data.

use squality_engine::{Engine, EngineDialect, ExecStrategy};
use std::time::Instant;

/// One benchmark case: setup DDL/DML plus the measured query.
pub struct HotPathCase {
    /// Stable case name (used in bench ids and `BENCH_engine.json`).
    pub name: &'static str,
    /// Scale knob: rows in the driving table.
    pub rows: usize,
    /// Statements that build the tables (run once, unmeasured).
    pub setup: Vec<String>,
    /// The measured statement.
    pub query: String,
}

/// The four hot-path cases at a given row count.
///
/// Key domains are chosen so groups collide, joins fan out, and the
/// quadratic cost of the naive paths is visible but bounded: the join and
/// set-op probe sides carry `rows / 10` rows, so the naive nested
/// loop/scan does `rows²/10` comparisons.
pub fn cases(rows: usize) -> Vec<HotPathCase> {
    let rows = rows.max(20);
    // High-cardinality keys are where the naive O(rows × groups) scans
    // hurt: a quarter of the rows are distinct group keys.
    let groups = (rows / 4).max(5);
    let distinct_a = (rows / 10).max(5);
    let probe = (rows / 10).max(5);
    let keys = (rows / 5).max(10);
    vec![
        HotPathCase {
            name: "grouped_aggregate",
            rows,
            setup: vec![
                "CREATE TABLE g(k INTEGER, v INTEGER)".into(),
                format!("INSERT INTO g SELECT value % {groups}, value FROM generate_series(1, {rows})"),
            ],
            query: "SELECT k, count(*), sum(v), min(v), max(v) FROM g GROUP BY k".into(),
        },
        HotPathCase {
            name: "distinct",
            rows,
            setup: vec![
                "CREATE TABLE d(a INTEGER, b INTEGER)".into(),
                format!("INSERT INTO d SELECT value % {distinct_a}, value % 8 FROM generate_series(1, {rows})"),
            ],
            query: "SELECT DISTINCT a, b FROM d".into(),
        },
        HotPathCase {
            name: "equi_join",
            rows,
            setup: vec![
                "CREATE TABLE jl(k INTEGER, v INTEGER)".into(),
                "CREATE TABLE jr(k INTEGER, v INTEGER)".into(),
                format!("INSERT INTO jl SELECT value % {keys}, value FROM generate_series(1, {rows})"),
                format!("INSERT INTO jr SELECT value % {keys}, value FROM generate_series(1, {probe})"),
            ],
            query: "SELECT count(*), sum(jl.v + jr.v) FROM jl INNER JOIN jr ON jl.k = jr.k".into(),
        },
        HotPathCase {
            name: "set_ops",
            rows,
            setup: vec![
                "CREATE TABLE s1(a INTEGER)".into(),
                "CREATE TABLE s2(a INTEGER)".into(),
                format!("INSERT INTO s1 SELECT value % {keys} FROM generate_series(1, {rows})"),
                format!("INSERT INTO s2 SELECT value % {keys} FROM generate_series(1, {probe})"),
            ],
            query: "SELECT a FROM s1 INTERSECT SELECT a FROM s2".into(),
        },
    ]
}

/// Build an engine with the case's tables loaded, under the given
/// strategy. The step budget is lifted so the naive arm's quadratic work
/// is measured rather than reported as a simulated hang (the budget *cost
/// model* is strategy-independent by design; see DESIGN.md).
pub fn prepare(case: &HotPathCase, strategy: ExecStrategy) -> Engine {
    let mut e = Engine::new(EngineDialect::Sqlite);
    e.set_step_budget(u64::MAX);
    e.set_exec_strategy(strategy);
    for sql in &case.setup {
        e.execute(sql).expect("hot-path setup statement");
    }
    e
}

/// Median wall-clock nanoseconds for one execution of the case's query.
pub fn median_query_ns(engine: &mut Engine, query: &str, samples: usize) -> f64 {
    engine.execute(query).expect("hot-path query"); // warm-up
    let mut times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples.max(3) {
        let start = Instant::now();
        let r = engine.execute(query).expect("hot-path query");
        let dt = start.elapsed().as_nanos() as f64;
        std::hint::black_box(r);
        times.push(dt);
    }
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// One measured comparison row of `BENCH_engine.json`.
pub struct HotPathResult {
    pub case: &'static str,
    pub rows: usize,
    pub naive_median_ns: f64,
    pub hash_median_ns: f64,
}

impl HotPathResult {
    /// Naive-over-hash speedup factor.
    pub fn speedup(&self) -> f64 {
        if self.hash_median_ns > 0.0 {
            self.naive_median_ns / self.hash_median_ns
        } else {
            f64::INFINITY
        }
    }
}

/// Run every case at every row count under both strategies.
pub fn run_comparison(row_counts: &[usize], samples: usize) -> Vec<HotPathResult> {
    let mut out = Vec::new();
    for &rows in row_counts {
        for case in cases(rows) {
            let mut naive = prepare(&case, ExecStrategy::Naive);
            let mut hash = prepare(&case, ExecStrategy::Hash);
            // Sanity: the two strategies must agree before we time them.
            let a = naive.execute(&case.query).expect("naive query");
            let b = hash.execute(&case.query).expect("hash query");
            assert_eq!(a, b, "strategy divergence in case {}", case.name);
            out.push(HotPathResult {
                case: case.name,
                rows,
                naive_median_ns: median_query_ns(&mut naive, &case.query, samples),
                hash_median_ns: median_query_ns(&mut hash, &case.query, samples),
            });
        }
    }
    out
}

/// Render the comparison as the `BENCH_engine.json` document. Flood
/// workload rows (see [`crate::throughput`]) add the `"throughput"`
/// section with sustained statements/sec under both strategies.
pub fn render_json(
    results: &[HotPathResult],
    throughput: &[crate::throughput::ThroughputResult],
) -> String {
    let mut s = String::from(
        "{\n  \"bench\": \"engine_hot_paths\",\n  \"unit\": \"ms (median per query execution)\",\n  \"cases\": [\n",
    );
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"case\": \"{}\", \"rows\": {}, \"naive_median_ms\": {:.3}, \"hash_median_ms\": {:.3}, \"speedup\": {:.1}}}{}\n",
            r.case,
            r.rows,
            r.naive_median_ns / 1e6,
            r.hash_median_ns / 1e6,
            r.speedup(),
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    if throughput.is_empty() {
        s.push_str("  ]\n}\n");
    } else {
        s.push_str("  ],\n");
        s.push_str(&crate::throughput::render_throughput_json(throughput));
        s.push_str("}\n");
    }
    s
}
