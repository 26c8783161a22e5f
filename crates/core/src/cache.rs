//! Content-addressed incremental study cache.
//!
//! The study matrix re-executes every suite file in every cell on every
//! invocation, even when nothing changed — the dominant cost of repeated
//! studies. This module caches *per-file* execution results keyed by
//! content: a [`FileKey`] combines a hash of everything configuration-side
//! that can change an outcome (the **cell hash**, [`CellSpec`]) with the
//! canonical content hash of the one test file
//! ([`squality_formats::file_content_hash`]). Editing one donor file
//! therefore invalidates one file's entry, not the whole cell.
//!
//! On a hit the harness replays the cached [`FileResult`] through the
//! normal observer path, so summaries, report tables, JSONL event logs,
//! triage input, and coverage unions are **byte-identical** to a cold run
//! — the determinism contract (results independent of worker count and
//! timing excluded from canonical logs) is exactly what makes such replay
//! possible.
//!
//! The on-disk side is the shared [`squality_runner::store`]: one file
//! per entry under a schema-versioned directory, written atomically, with
//! *any* read problem degrading to a miss and a recompute, never an
//! error. This module adds the key derivation and the entry codec, whose
//! header line double-checks the version.

use crate::transplant::Provision;
use squality_corpus::DonorEnvironment;
use squality_engine::{ClientKind, Coverage, FaultId, FaultProfile};
use squality_formats::{suite_tag, ContentHasher, SuiteKind};
use squality_runner::sigcodec::{
    decode_signature, decode_translation_counts, encode_signature, encode_translation_counts,
    escape, text_dialect_tag, unescape,
};
use squality_runner::{
    FailInfo, FileResult, NumericMode, Outcome, RecordResult, Store, StoreStats, TranslationCounts,
    TranslationMode, TranslationRule,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// On-disk format version. Bumping it orphans (and ignores) every entry
/// written by older code: the version appears in both the directory name
/// and each entry's header line.
///
/// v2: the failure line delegates signature serialization to the shared
/// [`squality_runner::sigcodec`] codec (also used by the bug store).
pub const SCHEMA_VERSION: u32 = 2;

/// Everything configuration-side that determines a cell's results — the
/// cell half of a [`FileKey`]. Fields that provably cannot change an
/// outcome are deliberately **absent**: worker count (determinism
/// contract), plan cache (parse memoisation is outcome-invisible),
/// observers (read-only), and the run label (suite-level events are
/// always emitted live, never replayed). See DESIGN.md "Incremental
/// study cache" for the full derivation table.
#[derive(Clone, Copy)]
pub struct CellSpec<'a> {
    /// Donor suite format.
    pub suite: SuiteKind,
    /// Execution backend fingerprint from
    /// [`squality_engine::execution_fingerprint`]: host dialect, executor
    /// strategy, and the engine semantics version.
    pub engine_fingerprint: &'a str,
    /// Client render layer.
    pub client: ClientKind,
    /// Provision level.
    pub provision: Provision,
    /// Numeric comparison mode.
    pub numeric: NumericMode,
    /// Verbatim vs translated execution (with dialect pair).
    pub translation: TranslationMode,
    /// Host fault schedule.
    pub faults: FaultProfile,
    /// The resolved donor environment, when the run has one.
    pub environment: Option<&'a DonorEnvironment>,
    /// Execution backend ([`squality_backend::BackendSpec::tag`]):
    /// in-process and subprocess runs must never share entries, even
    /// though the in-process path is today the only one that caches.
    pub backend: &'a str,
}

impl CellSpec<'_> {
    /// The configuration hash. Every field participates, with the
    /// environment narrowed to what the provision level actually applies
    /// (a `Bare` run ignores the environment entirely, so environment
    /// edits must not invalidate its entries).
    pub fn cell_hash(&self) -> u64 {
        let mut h = ContentHasher::new();
        h.write_str("squality-cell");
        h.write_tag(suite_tag(self.suite));
        h.write_str(self.engine_fingerprint);
        h.write_tag(match self.client {
            ClientKind::Cli => 0,
            ClientKind::Connector => 1,
        });
        h.write_tag(match self.provision {
            Provision::Full => 0,
            Provision::CrossHost => 1,
            Provision::Bare => 2,
        });
        match self.numeric {
            NumericMode::Exact => h.write_tag(0),
            NumericMode::Tolerant(eps) => {
                h.write_tag(1);
                h.write_u64(eps.to_bits());
            }
        }
        match self.translation {
            TranslationMode::Verbatim => h.write_tag(0),
            TranslationMode::Translated { from, to } => {
                h.write_tag(1);
                h.write_tag(text_dialect_tag(from));
                h.write_tag(text_dialect_tag(to));
                // The rule-set fingerprint: adding, removing, or renaming
                // a translation rule invalidates every *translated* entry
                // (verbatim runs never consult the rules).
                for rule in TranslationRule::ALL {
                    h.write_str(rule.label());
                }
            }
        }
        for fault in FaultId::ALL {
            h.write_tag(self.faults.is_enabled(fault) as u8);
        }
        h.write_str(self.backend);
        match (self.environment, self.provision) {
            (None, _) | (_, Provision::Bare) => h.write_tag(0),
            (Some(env), level) => {
                h.write_tag(1);
                h.write_usize(env.data_files.len());
                for (path, lines) in &env.data_files {
                    h.write_str(path);
                    h.write_usize(lines.len());
                    for line in lines {
                        h.write_str(line);
                    }
                }
                h.write_usize(env.setup_sql.len());
                for sql in &env.setup_sql {
                    h.write_str(sql);
                }
                // Extensions only load under Full provisioning.
                if level == Provision::Full {
                    h.write_usize(env.extensions.len());
                    for ext in &env.extensions {
                        h.write_str(ext);
                    }
                }
            }
        }
        h.finish()
    }
}

/// Address of one cached per-file result: cell configuration hash × file
/// content hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileKey {
    /// [`CellSpec::cell_hash`] of the run configuration.
    pub cell: u64,
    /// [`squality_formats::file_content_hash`] of the test file.
    pub file: u64,
}

/// One file's cached execution: everything needed to replay its effects
/// without a connector — outcomes for summaries/events/triage, the
/// file's translation counter deltas, and the coverage it hit.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedFileRun {
    /// The per-record outcomes, byte-equal to what a live run produces.
    pub result: FileResult,
    /// Translation counters attributable to this file alone.
    pub translation: TranslationCounts,
    /// Coverage hit while provisioning + running this file (universe
    /// included), captured in a per-file window.
    pub coverage: Coverage,
}

/// The content-addressed on-disk result store.
///
/// Cheap to construct; share one per run via [`ResultCache::shared`] and
/// [`crate::HarnessBuilder::result_cache`]. All methods take `&self` and
/// are thread-safe; lookups and stores from racing workers are safe
/// because writes are atomic renames of complete entries.
pub struct ResultCache {
    store: Store,
}

impl ResultCache {
    /// A cache rooted at `root` (created lazily on first store).
    pub fn new(root: impl Into<PathBuf>) -> ResultCache {
        ResultCache { store: Store::new(root, SCHEMA_VERSION, "entry") }
    }

    /// [`ResultCache::new`] wrapped for sharing across cells of a study.
    pub fn shared(root: impl Into<PathBuf>) -> Arc<ResultCache> {
        Arc::new(ResultCache::new(root))
    }

    /// The conventional cache location: `.squality-cache/` under the
    /// current directory.
    pub fn default_dir() -> PathBuf {
        PathBuf::from(".squality-cache")
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        self.store.root()
    }

    /// Fetch a cached run. Any failure — absent entry, version mismatch,
    /// truncation, garbage — is a miss, never an error.
    pub fn lookup(&self, key: &FileKey) -> Option<CachedFileRun> {
        self.store.lookup(&stem(key), decode_entry)
    }

    /// Persist one run atomically. IO failures are swallowed — a cache
    /// that cannot write simply never hits.
    pub fn store(&self, key: &FileKey, run: &CachedFileRun) {
        self.store.store(&stem(key), &encode_entry(run));
    }

    /// Snapshot of this instance's lookup/store counters.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// `(entry count, total bytes)` on disk, over every schema version.
    pub fn disk_usage(&self) -> (usize, u64) {
        self.store.disk_usage()
    }

    /// Delete the entire cache directory.
    pub fn clear(&self) -> std::io::Result<()> {
        self.store.clear()
    }

    /// Record this instance's counters as the cache's "last run" stats,
    /// read back by [`ResultCache::last_run_stats`] (the
    /// `squality-tables cache stats` surface).
    pub fn persist_stats(&self) {
        let s = self.stats();
        if std::fs::create_dir_all(self.root()).is_ok() {
            let _ = std::fs::write(
                self.root().join("last-run-stats"),
                format!("{} {} {} {}\n", s.hits, s.misses, s.stores, s.corrupt),
            );
        }
    }

    /// The counters persisted by the most recent [`ResultCache::persist_stats`]
    /// under `root`, if any.
    pub fn last_run_stats(root: &Path) -> Option<StoreStats> {
        let text = std::fs::read_to_string(root.join("last-run-stats")).ok()?;
        let mut nums = text.split_whitespace().map(|n| n.parse::<u64>());
        let mut next = || nums.next()?.ok();
        Some(StoreStats { hits: next()?, misses: next()?, stores: next()?, corrupt: next()? })
    }
}

/// The entry's file stem; its first two hex digits (the cell hash's top
/// byte) name the shard.
fn stem(key: &FileKey) -> String {
    format!("{:016x}-{:016x}", key.cell, key.file)
}

// --- entry codec -----------------------------------------------------------
//
// Hand-rolled line-based format, consistent with the repo's no-serde
// stance. One entry is:
//
//   squality-result-cache v<SCHEMA_VERSION>
//   F <file name>                      (escaped)
//   X <crashed> <hung>                 (0|1)
//   T a0,..,a6;s0,..,s6;<translated>;<passthrough>
//   R <line> <sql>                     (one per record; sql is `-` or `=text`)
//   <outcome line>                     (P | K | C | H | B)
//   B <n-exp> <n-act>\t<detail>\t<sig> (failure: counts, detail, signature)
//   VL <n>                             (n feature-point lines follow)
//   l <hit> <point>
//   VB <n>                             (n decision-point lines follow)
//   b <hit> <point>
//   END
//
// Every free-form string is escaped (`\\`, `\n`, `\r`, `\t`), so lines
// stay one-per-record and tab can separate the failure line's text
// fields. A missing END means a truncated write: the entry is rejected.
// Escaping and the failure line's signature payload come from the shared
// `squality_runner::sigcodec` codec, which the bug store also uses.

fn encode_entry(run: &CachedFileRun) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(&format!("squality-result-cache v{SCHEMA_VERSION}\n"));
    out.push_str(&format!("F {}\n", escape(&run.result.file)));
    out.push_str(&format!("X {} {}\n", run.result.crashed as u8, run.result.hung as u8));
    out.push_str(&format!("T {}\n", encode_translation_counts(&run.translation)));
    for r in &run.result.results {
        match &r.sql {
            None => out.push_str(&format!("R {} -\n", r.line)),
            Some(sql) => out.push_str(&format!("R {} ={}\n", r.line, escape(sql))),
        }
        match &r.outcome {
            Outcome::Pass => out.push_str("P\n"),
            Outcome::Skipped(reason) => out.push_str(&format!("K {}\n", escape(reason))),
            Outcome::Crash(m) => out.push_str(&format!("C {}\n", escape(m))),
            Outcome::Hang(m) => out.push_str(&format!("H {}\n", escape(m))),
            Outcome::Fail(info) => {
                out.push_str(&format!(
                    "B {} {}\t{}\t{}\n",
                    info.expected.len(),
                    info.actual.len(),
                    escape(&info.detail),
                    encode_signature(&info.signature)
                ));
                for v in &info.expected {
                    out.push_str(&format!("E {}\n", escape(v)));
                }
                for v in &info.actual {
                    out.push_str(&format!("A {}\n", escape(v)));
                }
            }
        }
    }
    let lines: Vec<_> = run.coverage.line_entries().collect();
    out.push_str(&format!("VL {}\n", lines.len()));
    for (point, hit) in lines {
        out.push_str(&format!("l {} {}\n", hit as u8, escape(point)));
    }
    let branches: Vec<_> = run.coverage.branch_entries().collect();
    out.push_str(&format!("VB {}\n", branches.len()));
    for (point, hit) in branches {
        out.push_str(&format!("b {} {}\n", hit as u8, escape(point)));
    }
    out.push_str("END\n");
    out
}

fn decode_entry(text: &str) -> Option<CachedFileRun> {
    let mut lines = text.lines();
    if lines.next()? != format!("squality-result-cache v{SCHEMA_VERSION}") {
        return None;
    }
    let file = unescape(lines.next()?.strip_prefix("F ")?)?;
    let mut flags = lines.next()?.strip_prefix("X ")?.split(' ');
    let crashed = flags.next()? == "1";
    let hung = flags.next()? == "1";
    let translation = decode_translation_counts(lines.next()?.strip_prefix("T ")?)?;

    let mut results = Vec::new();
    let mut coverage = Coverage::new();
    let mut saw_end = false;
    while let Some(line) = lines.next() {
        if let Some(rest) = line.strip_prefix("R ") {
            let (line_no, sql) = rest.split_once(' ')?;
            let line_no: usize = line_no.parse().ok()?;
            let sql = match sql {
                "-" => None,
                s => Some(unescape(s.strip_prefix('=')?)?),
            };
            let outcome_line = lines.next()?;
            let outcome = if outcome_line == "P" {
                Outcome::Pass
            } else if let Some(reason) = outcome_line.strip_prefix("K ") {
                Outcome::Skipped(unescape(reason)?.into())
            } else if let Some(m) = outcome_line.strip_prefix("C ") {
                Outcome::Crash(unescape(m)?)
            } else if let Some(m) = outcome_line.strip_prefix("H ") {
                Outcome::Hang(unescape(m)?)
            } else if let Some(rest) = outcome_line.strip_prefix("B ") {
                let (head, rest) = rest.split_once('\t')?;
                let (detail, sig_line) = rest.split_once('\t')?;
                let detail = unescape(detail)?;
                let mut fields = head.split(' ');
                let n_expected: usize = fields.next()?.parse().ok()?;
                let n_actual: usize = fields.next()?.parse().ok()?;
                if fields.next().is_some() {
                    return None;
                }
                // Stability verdicts are never cached: the rerun arm
                // bypasses the result cache entirely (see `Harness::run`),
                // so a decoded signature must be pre-annotation.
                let signature = decode_signature(sig_line)?;
                if signature.stability.is_some() {
                    return None;
                }
                let mut take = |n: usize, prefix: &str| -> Option<Vec<String>> {
                    (0..n).map(|_| unescape(lines.next()?.strip_prefix(prefix)?)).collect()
                };
                let expected = take(n_expected, "E ")?;
                let actual = take(n_actual, "A ")?;
                Outcome::Fail(FailInfo {
                    kind: signature.kind,
                    error_kind: signature.error_kind,
                    detail,
                    expected,
                    actual,
                    signature,
                })
            } else {
                return None;
            };
            results.push(RecordResult { line: line_no, sql, outcome });
        } else if let Some(n) = line.strip_prefix("VL ") {
            let n: usize = n.parse().ok()?;
            for _ in 0..n {
                let (hit, point) = lines.next()?.strip_prefix("l ")?.split_once(' ')?;
                coverage.set_line(unescape(point)?, hit == "1");
            }
        } else if let Some(n) = line.strip_prefix("VB ") {
            let n: usize = n.parse().ok()?;
            for _ in 0..n {
                let (hit, point) = lines.next()?.strip_prefix("b ")?.split_once(' ')?;
                coverage.set_branch(unescape(point)?, hit == "1");
            }
        } else if line == "END" {
            saw_end = true;
            break;
        } else {
            return None;
        }
    }
    saw_end.then_some(CachedFileRun {
        result: FileResult { file, results, crashed, hung },
        translation,
        coverage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use squality_engine::ErrorKind;
    use squality_runner::FailKind;

    fn temp_cache(tag: &str) -> ResultCache {
        let dir =
            std::env::temp_dir().join(format!("squality-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::new(dir)
    }

    fn sample_run() -> CachedFileRun {
        let fail = FailInfo::new(
            FailKind::WrongResult,
            Some(ErrorKind::Conversion),
            "expected \"1\"\nsaw \"2\"\ttabbed",
            vec!["1".into(), "two words".into()],
            vec!["2".into()],
            Some("SELECT a / 4 FROM t"),
        );
        let mut coverage = Coverage::new();
        coverage.register_line("stmt:SELECT");
        coverage.hit_line("fn:count");
        coverage.register_branch("op:/:ok");
        coverage.hit_branch("op:+:ok");
        let mut translation = TranslationCounts::default();
        translation.applied[2] = 5;
        translation.skipped[0] = 1;
        translation.translated = 7;
        translation.passthrough = 3;
        CachedFileRun {
            result: FileResult {
                file: "weird name\twith\ntabs.test".into(),
                results: vec![
                    RecordResult { line: 1, sql: Some("SELECT 1".into()), outcome: Outcome::Pass },
                    RecordResult {
                        line: 4,
                        sql: None,
                        outcome: Outcome::Skipped("condition excludes sqlite".into()),
                    },
                    RecordResult {
                        line: 9,
                        sql: Some("bad\nsql".into()),
                        outcome: Outcome::Fail(fail),
                    },
                    RecordResult { line: 12, sql: None, outcome: Outcome::Crash("boom".into()) },
                    RecordResult { line: 15, sql: None, outcome: Outcome::Hang("spin".into()) },
                ],
                crashed: true,
                hung: true,
            },
            translation,
            coverage,
        }
    }

    #[test]
    fn codec_roundtrips_every_outcome_kind() {
        let run = sample_run();
        let decoded = decode_entry(&encode_entry(&run)).expect("roundtrip");
        assert_eq!(decoded.result, run.result);
        assert_eq!(decoded.translation, run.translation);
        assert_eq!(
            decoded.coverage.line_entries().collect::<Vec<_>>(),
            run.coverage.line_entries().collect::<Vec<_>>()
        );
        assert_eq!(
            decoded.coverage.branch_entries().collect::<Vec<_>>(),
            run.coverage.branch_entries().collect::<Vec<_>>()
        );
    }

    #[test]
    fn store_then_lookup_hits() {
        let cache = temp_cache("hit");
        let key = FileKey { cell: 0xabc, file: 0xdef };
        let run = sample_run();
        assert!(cache.lookup(&key).is_none());
        cache.store(&key, &run);
        let got = cache.lookup(&key).expect("stored entry hits");
        assert_eq!(got.result, run.result);
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
        let path = cache.store.entry_path(&stem(&key));
        assert!(path.ends_with("v2/00/0000000000000abc-0000000000000def.entry"), "{path:?}");
        cache.clear().unwrap();
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let text = encode_entry(&sample_run());
        let bumped =
            text.replacen(&format!("v{SCHEMA_VERSION}"), &format!("v{}", SCHEMA_VERSION + 1), 1);
        assert!(decode_entry(&bumped).is_none(), "future-version entry must not decode");
    }

    #[test]
    fn truncated_or_garbage_entry_is_rejected() {
        let text = encode_entry(&sample_run());
        // Drop the END terminator and a bit more — a torn write.
        let cut = text.len() - "END\n".len() - 7;
        assert!(decode_entry(&text[..cut]).is_none(), "truncated entry must not decode");
        assert!(decode_entry(&text[..text.len() - "END\n".len()]).is_none(), "missing END");
        assert!(decode_entry("not an entry at all\n\0\0\0").is_none());
    }

    #[test]
    fn last_run_stats_roundtrip() {
        let cache = temp_cache("stats");
        cache.store(&FileKey { cell: 9, file: 1 }, &sample_run());
        let _ = cache.lookup(&FileKey { cell: 9, file: 1 });
        let _ = cache.lookup(&FileKey { cell: 9, file: 2 });
        cache.persist_stats();
        let stats = ResultCache::last_run_stats(cache.root()).expect("persisted stats");
        assert_eq!(stats, cache.stats());
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
        cache.clear().unwrap();
    }

    #[test]
    fn cell_hash_tracks_configuration() {
        let env = DonorEnvironment::for_suite(SuiteKind::PgRegress);
        let base = CellSpec {
            suite: SuiteKind::PgRegress,
            engine_fingerprint: "SQLite/hash/v1",
            client: ClientKind::Connector,
            provision: Provision::CrossHost,
            numeric: NumericMode::Exact,
            translation: TranslationMode::Verbatim,
            faults: FaultProfile::default(),
            environment: Some(&env),
            backend: "in-process",
        };
        let h = base.cell_hash();
        assert_eq!(h, base.cell_hash(), "hash must be stable");
        assert_ne!(
            h,
            CellSpec { backend: "subprocess", ..base }.cell_hash(),
            "backend participates"
        );
        assert_ne!(
            h,
            CellSpec { engine_fingerprint: "SQLite/naive/v1", ..base }.cell_hash(),
            "exec strategy participates"
        );
        assert_ne!(
            h,
            CellSpec { client: ClientKind::Cli, ..base }.cell_hash(),
            "client participates"
        );
        assert_ne!(
            h,
            CellSpec { numeric: NumericMode::Tolerant(0.01), ..base }.cell_hash(),
            "numeric mode participates"
        );
        let mut edited = env.clone();
        edited.setup_sql.push("CREATE TABLE extra(x INTEGER)".to_string());
        assert_ne!(
            h,
            CellSpec { environment: Some(&edited), ..base }.cell_hash(),
            "setup SQL participates under CrossHost"
        );
        // Bare provisioning ignores the environment entirely.
        let bare = CellSpec { provision: Provision::Bare, ..base };
        let bare_edited =
            CellSpec { provision: Provision::Bare, environment: Some(&edited), ..base };
        assert_eq!(bare.cell_hash(), bare_edited.cell_hash());
        // Extensions only matter under Full provisioning.
        let mut more_ext = env.clone();
        more_ext.extensions.push("vector".to_string());
        let cross = CellSpec { environment: Some(&more_ext), ..base };
        assert_eq!(h, cross.cell_hash(), "extensions ignored under CrossHost");
        let full = CellSpec { provision: Provision::Full, ..base };
        let full_ext =
            CellSpec { provision: Provision::Full, environment: Some(&more_ext), ..base };
        assert_ne!(full.cell_hash(), full_ext.cell_hash(), "extensions matter under Full");
    }
}
