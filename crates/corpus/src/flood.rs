//! Fuzzer-throughput flood workloads.
//!
//! "Scaling Automated Database System Testing" argues the decisive factor
//! for reused/generated suites is raw feedback-loop throughput. Each
//! workload here is a deterministic (seeded) stream of raw SQL statements
//! shaped like the ingestion-heavy parts of donor suites and generated
//! corpora:
//!
//! * [`insert_flood`] — the O(n²) killer: n rows into a UNIQUE/PK table,
//!   emitted as multi-row `VALUES` lists, where every row pays a
//!   per-UNIQUE-column membership probe;
//! * [`mixed_dml`] — interleaved INSERT/UPDATE/DELETE (plus a trickle of
//!   point SELECTs) with equality predicates on the key column;
//! * [`loop_heavy`] — a tiny set of distinct statement texts repeated
//!   thousands of times, the shape SLT loops expand to, where the plan
//!   cache should absorb all parsing.
//!
//! Workloads deliberately emit *statement text*, not ASTs, so they drive
//! the full parse → plan-cache → execute pipeline. The tests below run
//! every stream under both [`ExecStrategy`](squality_engine::ExecStrategy)
//! arms and demand identical per-statement outcomes: the naive executor is
//! the oracle for the indexed DML paths at hundreds of rows.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A flood workload: setup DDL plus the measured statement stream.
#[derive(Debug, Clone)]
pub struct FloodWorkload {
    /// Stable workload name.
    pub name: &'static str,
    /// Unmeasured preparation statements (DDL, initial population).
    pub setup: Vec<String>,
    /// The measured statement stream.
    pub statements: Vec<String>,
    /// Rows the stream ingests/touches — the workload's scale knob.
    pub rows: usize,
}

fn rng_for(name: &str, seed: u64) -> SmallRng {
    let tag = name.bytes().fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
    SmallRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Fisher–Yates shuffle (the vendored `rand` has no `seq` module).
fn shuffle(items: &mut [usize], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// INSERT-flood: `rows` distinct keys into a table with an INTEGER PRIMARY
/// KEY and a TEXT UNIQUE column, batched `values_per_stmt` rows per
/// statement. Key order is shuffled so the probes are not an append-only
/// best case.
pub fn insert_flood(rows: usize, values_per_stmt: usize, seed: u64) -> FloodWorkload {
    let mut rng = rng_for("insert_flood", seed);
    let mut ids: Vec<usize> = (0..rows).collect();
    shuffle(&mut ids, &mut rng);
    let per = values_per_stmt.max(1);
    let mut statements = Vec::with_capacity(rows.div_ceil(per));
    for chunk in ids.chunks(per) {
        let values: Vec<String> = chunk
            .iter()
            .map(|id| format!("({id}, 't{id}', {})", rng.gen_range(0..1_000_000)))
            .collect();
        statements.push(format!("INSERT INTO flood VALUES {}", values.join(", ")));
    }
    FloodWorkload {
        name: "insert_flood",
        setup: vec![
            "CREATE TABLE flood(id INTEGER PRIMARY KEY, tag TEXT UNIQUE, v INTEGER)".to_string()
        ],
        statements,
        rows,
    }
}

/// Mixed DML: a keyed table populated up front, then a stream of INSERTs
/// of fresh keys, UPDATEs and DELETEs with `WHERE id = k` equality
/// predicates, and a trickle of point SELECTs. Targets may already be
/// deleted — empty probes are part of the workload.
pub fn mixed_dml(rows: usize, seed: u64) -> FloodWorkload {
    let mut rng = rng_for("mixed_dml", seed);
    let initial = rows / 4;
    let mut setup = vec!["CREATE TABLE mix(id INTEGER PRIMARY KEY, v INTEGER)".to_string()];
    if initial > 0 {
        for chunk in (0..initial).collect::<Vec<_>>().chunks(64) {
            let values: Vec<String> =
                chunk.iter().map(|id| format!("({id}, {})", rng.gen_range(0..1000))).collect();
            setup.push(format!("INSERT INTO mix VALUES {}", values.join(", ")));
        }
    }
    let mut next_id = initial;
    let mut statements = Vec::with_capacity(rows);
    for _ in 0..rows {
        let target = rng.gen_range(0..next_id.max(1));
        let roll = rng.gen_range(0..100);
        statements.push(if roll < 55 {
            let id = next_id;
            next_id += 1;
            format!("INSERT INTO mix VALUES ({id}, {})", rng.gen_range(0..1000))
        } else if roll < 80 {
            format!("UPDATE mix SET v = v + 1 WHERE id = {target}")
        } else if roll < 95 {
            format!("DELETE FROM mix WHERE id = {target}")
        } else {
            format!("SELECT v FROM mix WHERE id = {target}")
        });
    }
    FloodWorkload { name: "mixed_dml", setup, statements, rows }
}

/// Loop-heavy: the statement shape SLT `loop` blocks expand to — a
/// four-statement body over one key, repeated until `rows` statements are
/// emitted. Every text repeats verbatim, so a shared plan cache should
/// answer ~100% of parses; the table stays one row, isolating per-statement
/// pipeline overhead.
pub fn loop_heavy(rows: usize, seed: u64) -> FloodWorkload {
    let _ = seed; // the stream is a fixed cycle; seeded for uniformity
    let body = [
        "INSERT INTO lp VALUES (1, 0)",
        "UPDATE lp SET v = v + 1 WHERE k = 1",
        "SELECT v FROM lp WHERE k = 1",
        "DELETE FROM lp WHERE k = 1",
    ];
    let statements: Vec<String> = body.iter().cycle().take(rows).map(|s| s.to_string()).collect();
    FloodWorkload {
        name: "loop_heavy",
        setup: vec!["CREATE TABLE lp(k INTEGER PRIMARY KEY, v INTEGER)".to_string()],
        statements,
        rows,
    }
}

/// The full flood profile at one scale: every workload above.
pub fn flood_workloads(rows: usize, seed: u64) -> Vec<FloodWorkload> {
    vec![insert_flood(rows, 8, seed), mixed_dml(rows, seed), loop_heavy(rows, seed)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use squality_engine::{Engine, EngineDialect, ExecStrategy, PlanCache};

    /// Fresh engine with the workload's setup applied and a shared plan
    /// cache, the shape the study runner uses. The step budget is lifted
    /// so the naive arm's O(rows) constraint scans run to completion
    /// instead of being reported as hangs.
    fn prepare(workload: &FloodWorkload, strategy: ExecStrategy) -> Engine {
        let mut e = Engine::new(EngineDialect::Sqlite);
        e.set_step_budget(u64::MAX);
        e.set_exec_strategy(strategy);
        e.set_plan_cache(PlanCache::shared());
        for sql in &workload.setup {
            e.execute(sql).expect("flood setup statement");
        }
        e
    }

    #[test]
    fn strategies_agree_on_every_flood_workload() {
        for w in flood_workloads(400, 0x5147_4c46) {
            let mut naive = prepare(&w, ExecStrategy::Naive);
            let mut hash = prepare(&w, ExecStrategy::Hash);
            for (i, sql) in w.statements.iter().enumerate() {
                let a = format!("{:?}", naive.execute(sql));
                let b = format!("{:?}", hash.execute(sql));
                assert_eq!(a, b, "strategy divergence in {} at statement {i}: {sql}", w.name);
            }
        }
    }

    #[test]
    fn insert_flood_is_deterministic_and_covers_every_key() {
        let a = insert_flood(1000, 8, 7);
        let b = insert_flood(1000, 8, 7);
        assert_eq!(a.statements, b.statements);
        assert_ne!(a.statements, insert_flood(1000, 8, 8).statements);
        assert_eq!(a.rows, 1000);
        // Multi-row VALUES emission: far fewer statements than rows.
        assert_eq!(a.statements.len(), 125);
        let joined = a.statements.join("\n");
        for id in [0, 1, 999] {
            assert!(joined.contains(&format!("({id}, 't{id}',")), "key {id} missing");
        }
    }

    #[test]
    fn mixed_dml_emits_the_advertised_mix() {
        let w = mixed_dml(2000, 7);
        assert_eq!(w.statements.len(), 2000);
        let count = |p: &str| w.statements.iter().filter(|s| s.starts_with(p)).count();
        for prefix in ["INSERT", "UPDATE", "DELETE", "SELECT"] {
            assert!(count(prefix) > 0, "no {prefix} statements generated");
        }
        assert_eq!(mixed_dml(2000, 7).statements, w.statements);
    }

    #[test]
    fn loop_heavy_repeats_a_tiny_text_set() {
        let w = loop_heavy(999, 7);
        assert_eq!(w.statements.len(), 999);
        let distinct: std::collections::BTreeSet<&str> =
            w.statements.iter().map(|s| s.as_str()).collect();
        assert_eq!(distinct.len(), 4);
    }
}
