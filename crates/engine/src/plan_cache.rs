//! A shared, thread-safe statement-plan cache.
//!
//! The paper's runner executes suites "statement-by-statement", and SLT
//! loops replay the same statement text hundreds of times with only
//! variable substitution between iterations; across the suite × host
//! matrix the same file is parsed once per host. Parsing is the dominant
//! per-statement fixed cost, so the cache keys parses by the logical pair
//! `(TextDialect, String)` and shares the resulting [`Stmt`] behind an
//! `Arc` — across loop iterations, files, worker threads, and the four
//! dialect engines.
//!
//! The map is sharded (per dialect, then by a hash of the SQL) so parallel
//! suite workers do not serialize on one lock, and lookups borrow the SQL
//! as `&str` so a cache hit allocates nothing. Parse *errors* are cached
//! too: suites deliberately contain invalid statements (`SELEC ...`) that
//! loops replay just as often as valid ones.
//!
//! A plan is admitted on its text's *second* sighting. Most distinct texts
//! are seen exactly once (substituted loop variables mint a fresh text per
//! iteration), and a retained AST is the cache's whole memory cost, so the
//! first miss only records the text's 64-bit hash in a per-shard "seen"
//! set; the second miss stores the plan, and later lookups hit. The price
//! is one extra parse per reused text.

use squality_sqlast::{ast::Stmt, parse_statement, ParseError};
use squality_sqltext::TextDialect;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Hash shards per dialect; must be a power of two.
const SHARDS_PER_DIALECT: usize = 8;

/// Capacity bound per shard. Loop-variable substitution mints a distinct
/// statement text per iteration, so an unbounded map would grow linearly
/// with total distinct statements for the process lifetime. A full shard
/// stops admitting new entries (hot texts — loop bodies, setup SQL —
/// recur early and are already in); lookups still hit, misses just parse.
/// Bound: 5 dialects × 8 shards × 8192 entries.
const MAX_ENTRIES_PER_SHARD: usize = 8192;

/// Capacity bound of each shard's seen set. A full set is cleared, which
/// forgets pending first sightings: each forgotten text costs one extra
/// parse before it is admitted. Bound: 5 dialects × 8 shards × 8192
/// hashes of 8 bytes.
const MAX_SEEN_PER_SHARD: usize = 8192;

#[derive(Debug, Default)]
struct ShardState {
    plans: HashMap<Box<str>, Result<Arc<Stmt>, ParseError>>,
    /// Hashes of texts missed once and not yet admitted.
    seen: HashSet<u64>,
}

type Shard = RwLock<ShardState>;

/// A concurrent parse cache keyed by `(TextDialect, String)`.
///
/// Cheap to share: clone the surrounding [`Arc`]. One cache may serve any
/// number of engines, connectors, and scheduler workers concurrently.
#[derive(Debug, Default)]
pub struct PlanCache {
    shards: [[Shard; SHARDS_PER_DIALECT]; TextDialect::ALL.len()],
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Counter snapshot for reporting and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to parse, including each reused text's first
    /// sighting, which is not admitted.
    pub misses: u64,
    /// Plans retained when the snapshot was taken.
    pub entries: u64,
}

impl PlanCacheStats {
    /// Hit fraction in [0, 1]; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl PlanCache {
    /// Empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Empty cache, pre-wrapped for sharing.
    pub fn shared() -> Arc<PlanCache> {
        Arc::new(PlanCache::new())
    }

    /// The shard holding `sql` under `dialect`, and the text's hash.
    fn shard(&self, dialect: TextDialect, sql: &str) -> (&Shard, u64) {
        let d = TextDialect::ALL
            .iter()
            .position(|x| *x == dialect)
            .expect("dialect registered in TextDialect::ALL");
        let mut h = std::collections::hash_map::DefaultHasher::new();
        sql.hash(&mut h);
        let hash = h.finish();
        (&self.shards[d][(hash as usize) & (SHARDS_PER_DIALECT - 1)], hash)
    }

    /// Parse `sql` under `dialect`, reusing a prior parse of the identical
    /// text when available. Hits allocate nothing.
    pub fn parse(&self, dialect: TextDialect, sql: &str) -> Result<Arc<Stmt>, ParseError> {
        let (shard, hash) = self.shard(dialect, sql);
        if let Some(cached) = shard.read().expect("plan cache poisoned").plans.get(sql) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let parsed = parse_statement(sql, dialect).map(Arc::new);
        let mut state = shard.write().expect("plan cache poisoned");
        if !state.plans.contains_key(sql) {
            if state.seen.remove(&hash) {
                if state.plans.len() < MAX_ENTRIES_PER_SHARD {
                    state.plans.insert(Box::from(sql), parsed.clone());
                }
            } else {
                if state.seen.len() >= MAX_SEEN_PER_SHARD {
                    state.seen.clear();
                }
                state.seen.insert(hash);
            }
        }
        parsed
    }

    /// Hit/miss counters and the number of retained plans.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    /// Cached entries across all shards.
    pub fn len(&self) -> usize {
        self.all_shards().map(|s| s.read().expect("plan cache poisoned").plans.len()).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all entries and pending sightings, keeping the counters.
    pub fn clear(&self) {
        for shard in self.all_shards() {
            let mut state = shard.write().expect("plan cache poisoned");
            state.plans.clear();
            state.seen.clear();
        }
    }

    fn all_shards(&self) -> impl Iterator<Item = &Shard> {
        self.shards.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_parse_hits() {
        let cache = PlanCache::new();
        cache.parse(TextDialect::Sqlite, "SELECT 1 + 2").unwrap();
        let a = cache.parse(TextDialect::Sqlite, "SELECT 1 + 2").unwrap();
        let b = cache.parse(TextDialect::Sqlite, "SELECT 1 + 2").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must share the admitted statement");
        assert_eq!(cache.stats(), PlanCacheStats { hits: 1, misses: 2, entries: 1 });
    }

    #[test]
    fn dialects_are_keyed_separately() {
        // `DIV` parses on MySQL and is a syntax error on PostgreSQL; one
        // cache must keep both answers apart.
        let cache = PlanCache::new();
        let sql = "SELECT 62 DIV 2";
        for _sighting in 0..2 {
            assert!(cache.parse(TextDialect::Mysql, sql).is_ok());
            assert!(cache.parse(TextDialect::Postgres, sql).is_err());
        }
        assert!(cache.parse(TextDialect::Mysql, sql).is_ok());
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn errors_are_cached() {
        let cache = PlanCache::new();
        cache.parse(TextDialect::Sqlite, "SELEC garbage").unwrap_err();
        let e1 = cache.parse(TextDialect::Sqlite, "SELEC garbage").unwrap_err();
        let e2 = cache.parse(TextDialect::Sqlite, "SELEC garbage").unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = PlanCache::new();
        cache.parse(TextDialect::Sqlite, "SELECT 1").ok();
        cache.parse(TextDialect::Sqlite, "SELECT 1").ok();
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 2);
        // Pending sightings are dropped too: the next lookup is a first one.
        cache.parse(TextDialect::Sqlite, "SELECT 2").ok();
        cache.clear();
        cache.parse(TextDialect::Sqlite, "SELECT 2").ok();
        assert!(cache.is_empty());
    }

    #[test]
    fn one_shot_texts_are_not_retained() {
        let cache = PlanCache::new();
        for i in 0..1000 {
            cache.parse(TextDialect::Postgres, &format!("SELECT {i}")).unwrap();
        }
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats(), PlanCacheStats { hits: 0, misses: 1000, entries: 0 });
    }

    #[test]
    fn seen_set_stays_bounded() {
        let cache = PlanCache::new();
        let bound = SHARDS_PER_DIALECT * MAX_SEEN_PER_SHARD;
        for i in 0..bound + 500 {
            cache.parse(TextDialect::Sqlite, &format!("SELECT {i}")).unwrap();
        }
        for shard in cache.all_shards() {
            let seen = shard.read().unwrap().seen.len();
            assert!(seen <= MAX_SEEN_PER_SHARD, "{seen} > {MAX_SEEN_PER_SHARD}");
        }
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_parses_converge() {
        let cache = PlanCache::shared();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..50 {
                        let sql = format!("SELECT {}", i % 10);
                        cache.parse(TextDialect::Duckdb, &sql).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.len(), 10);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 200);
        // Per text: at most one miss per thread before it is admitted, plus
        // the second sighting of the thread whose miss was recorded first.
        assert!(stats.hits >= 200 - (4 + 1) * 10, "{stats:?}");
    }

    #[test]
    fn racing_second_sightings_admit_one_entry() {
        let cache = PlanCache::new();
        let sql = "SELECT 7 * 6";
        cache.parse(TextDialect::Sqlite, sql).unwrap();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    barrier.wait();
                    cache.parse(TextDialect::Sqlite, sql).unwrap();
                });
            }
        });
        assert_eq!(cache.len(), 1);
        let hits = cache.stats().hits;
        cache.parse(TextDialect::Sqlite, sql).unwrap();
        assert_eq!(cache.stats().hits, hits + 1);
    }

    #[test]
    fn full_shards_stop_admitting_but_keep_hitting() {
        let cache = PlanCache::new();
        // Overfill one dialect's shards; len must plateau at the bound.
        let bound = SHARDS_PER_DIALECT * MAX_ENTRIES_PER_SHARD;
        for i in 0..bound + 500 {
            let sql = format!("SELECT {i}");
            cache.parse(TextDialect::Sqlite, &sql).unwrap();
            cache.parse(TextDialect::Sqlite, &sql).unwrap();
        }
        assert!(cache.len() <= bound, "{} > {bound}", cache.len());
        // Entries admitted early still hit after the cache fills.
        let before = cache.stats().hits;
        cache.parse(TextDialect::Sqlite, "SELECT 0").unwrap();
        assert_eq!(cache.stats().hits, before + 1);
    }

    #[test]
    fn hit_rate_ranges() {
        assert_eq!(PlanCacheStats::default().hit_rate(), 0.0);
        let s = PlanCacheStats { hits: 3, misses: 1, entries: 0 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
