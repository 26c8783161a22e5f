//! Persistent, signature-indexed bug repository.
//!
//! Triage dedupes a study's raw failures into a handful of minimized,
//! verified repros — and previously threw them away, so every study paid
//! the full clustering/ddmin cost again and no bug ever became a
//! regression test. This crate makes the repro corpus durable: a
//! versioned on-disk store (`.squality-bugs/v1/`) where each entry is one
//! root-cause bug, addressed by a content hash of its normalized
//! [`FailureSignature`] (modulo stability annotation), carrying
//!
//! * the minimized repro itself (SLT text) plus the reduction stats that
//!   produced it,
//! * the stability verdict from the rerun arm, when one was computed,
//! * full provenance: donor suite, host dialect, matrix arm, translation
//!   mode, per-rule translation counters, the resolved donor environment
//!   (repros must replay standalone, and generation mutates the
//!   environment), the engine semantics version the repro was verified
//!   against, and the first/last study fingerprints that saw it.
//!
//! Consumers: incremental triage skips clustering/ddmin for stored
//! signatures and re-verifies entries whose semantics version is stale;
//! the replay service runs the whole corpus as a first-class suite and
//! reports still-failing / fixed / regressed transitions per entry.
//!
//! The store sits on the same [`squality_runner::store`] as the result
//! cache: one file per entry under a schema-versioned directory, atomic
//! temp-file + rename writes, and *any* read problem degrading to a miss —
//! the store can always be rebuilt by one triage run. This crate adds the
//! entry codec, whose header line double-checks the version and whose key
//! line double-checks the file name. Signature serialization and the enum
//! tags are the shared [`squality_runner::sigcodec`] codec, so the cache
//! and the bug store can never drift apart on the wire format.

use squality_corpus::DonorEnvironment;
use squality_engine::EngineDialect;
use squality_formats::{parse_suite_tag, suite_tag, ContentHasher, SuiteKind};
use squality_runner::sigcodec::{
    decode_signature, decode_translation_counts, encode_signature, encode_translation_counts,
    engine_dialect_tag, escape, parse_engine_dialect, parse_text_dialect, text_dialect_tag,
    unescape,
};
use squality_runner::{
    FailureSignature, Stability, Store, StoreStats, TranslationCounts, TranslationMode,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// On-disk format version: directory name (`v1/`) and entry header.
/// Bumping it orphans every entry written by older code.
pub const STORE_VERSION: u32 = 1;

/// The study's arm enum: which execution arm a study cell belongs to, and
/// so which arm an entry's exemplar failure came from. It lives here
/// because core depends on this crate, not vice versa; core re-exports it
/// and its `CellRef` uses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BugArm {
    /// Donor suite on its own engine, bare provisioning.
    DonorBare,
    /// Matrix cell executed verbatim.
    Verbatim,
    /// Matrix cell executed through the translation layer.
    Translated,
}

impl BugArm {
    /// Short label for tables (`""` / `" [verbatim]"`-style suffixes are
    /// the caller's concern; this is the bare arm name).
    pub fn label(self) -> &'static str {
        match self {
            BugArm::DonorBare => "donor-bare",
            BugArm::Verbatim => "verbatim",
            BugArm::Translated => "translated",
        }
    }

    /// The one-byte tag the arm is stored and grouped as.
    pub fn tag(self) -> u8 {
        match self {
            BugArm::DonorBare => 0,
            BugArm::Verbatim => 1,
            BugArm::Translated => 2,
        }
    }

    fn parse_tag(tag: &str) -> Option<BugArm> {
        [BugArm::DonorBare, BugArm::Verbatim, BugArm::Translated]
            .into_iter()
            .find(|arm| arm.tag().to_string() == tag)
    }
}

/// One persisted bug: a minimized repro plus everything needed to replay
/// it standalone and to account for where it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct BugEntry {
    /// The clustering signature, always pre-annotation
    /// (`stability: None`); the verdict lives in
    /// [`BugEntry::stability`] so annotated and unannotated observations
    /// of the same bug share one entry.
    pub signature: FailureSignature,
    /// Rerun-arm verdict, when one has been computed.
    pub stability: Option<Stability>,
    /// Repro file name (`cluster-NNN-<class>.test` convention).
    pub repro_name: String,
    /// The minimized repro, DuckDB-flavor SLT text. Empty for a
    /// *tombstone*: a cluster whose failure never reproduced standalone
    /// (recorded so incremental triage does not re-probe it every run).
    pub repro_text: String,
    /// Whether the repro re-failed standalone with the same signature
    /// when it was minimized (triage's verification probe).
    pub reproduced: bool,
    /// Donor suite of the originating cell.
    pub suite: SuiteKind,
    /// Host engine of the originating cell.
    pub host: EngineDialect,
    /// Which matrix arm observed it.
    pub arm: BugArm,
    /// Verbatim vs translated execution (with the dialect pair).
    pub translation: TranslationMode,
    /// The originating cell's per-rule translation counters at store
    /// time — which rewrites were live when this bug surfaced.
    pub rule_counters: TranslationCounts,
    /// The resolved donor environment the repro needs (generation
    /// mutates the suite environment, so the canonical per-suite one is
    /// not sufficient).
    pub environment: DonorEnvironment,
    /// ddmin probes spent minimizing.
    pub probes: usize,
    /// Records in the exemplar file before reduction.
    pub records_before: usize,
    /// Records in the minimized repro.
    pub records_after: usize,
    /// [`squality_engine::ENGINE_SEMANTICS_VERSION`] the entry was last
    /// verified against; a bump marks it stale for re-verification.
    pub semantics_version: u32,
    /// Study fingerprint that first stored this signature.
    pub first_seen: String,
    /// Study fingerprint that most recently observed it.
    pub last_seen: String,
}

/// Content hash addressing an entry: the signature modulo its stability
/// annotation, so the rerun arm's verdict updates an entry in place
/// instead of forking it.
pub fn signature_key(sig: &FailureSignature) -> u64 {
    let mut h = ContentHasher::new();
    h.write_str("squality-bug");
    h.write_str(&sig.normalized);
    h.write_str(&sig.statement);
    h.write_str(&format!("{:?}", sig.kind));
    match sig.error_kind {
        None => h.write_tag(0),
        Some(k) => {
            h.write_tag(1);
            h.write_str(&format!("{k:?}"));
        }
    }
    h.write_str(&format!("{:?}", sig.dependency));
    h.write_str(&format!("{:?}", sig.incompatibility));
    h.finish()
}

/// The on-disk bug repository.
///
/// Cheap to construct; share one per run via [`BugStore::shared`]. All
/// methods take `&self` and are thread-safe: writes are atomic renames
/// of complete entries, so racing workers both leave a valid file.
#[derive(Debug)]
pub struct BugStore {
    store: Store,
}

impl BugStore {
    /// A store rooted at `root` (created lazily on first write).
    pub fn new(root: impl Into<PathBuf>) -> BugStore {
        BugStore { store: Store::new(root, STORE_VERSION, "bug") }
    }

    /// [`BugStore::new`] wrapped for sharing across triage workers.
    pub fn shared(root: impl Into<PathBuf>) -> Arc<BugStore> {
        Arc::new(BugStore::new(root))
    }

    /// The conventional store location: `.squality-bugs/` under the
    /// current directory.
    pub fn default_dir() -> PathBuf {
        PathBuf::from(".squality-bugs")
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        self.store.root()
    }

    /// Fetch the entry for a signature (modulo stability). Any failure —
    /// absent entry, version mismatch, truncation, garbage — is a miss,
    /// never an error.
    pub fn lookup(&self, sig: &FailureSignature) -> Option<BugEntry> {
        self.lookup_key(signature_key(sig))
    }

    /// Fetch an entry by its key directly (CLI `bugs show`). An entry
    /// whose key line names another key is corrupt.
    pub fn lookup_key(&self, key: u64) -> Option<BugEntry> {
        self.store.lookup(&stem(key), |text| decode_entry(text, key))
    }

    /// Persist one entry atomically under its signature key. IO failures
    /// are swallowed — a store that cannot write simply never hits.
    pub fn store(&self, entry: &BugEntry) {
        let key = signature_key(&entry.signature);
        self.store.store(&stem(key), &encode_entry(key, entry));
    }

    /// Store `entry`, preserving an existing entry's `first_seen`
    /// fingerprint. Returns `true` when the signature was new.
    pub fn upsert(&self, entry: &BugEntry) -> bool {
        match self.lookup(&entry.signature) {
            Some(existing) => {
                let mut merged = entry.clone();
                merged.first_seen = existing.first_seen;
                self.store(&merged);
                false
            }
            None => {
                self.store(entry);
                true
            }
        }
    }

    /// Every valid entry on disk, sorted by key — the deterministic
    /// iteration order for listings and replay.
    pub fn entries(&self) -> Vec<(u64, BugEntry)> {
        let mut out: Vec<_> =
            self.store.entry_files().iter().filter_map(|p| read_file(p)).collect();
        out.sort_by_key(|(key, _)| *key);
        out
    }

    /// Delete one entry. Returns `true` if it existed.
    pub fn remove(&self, key: u64) -> bool {
        std::fs::remove_file(self.store.entry_path(&stem(key))).is_ok()
    }

    /// Drop every entry whose semantics version is not `current` and
    /// every unreadable file. Returns `(removed, kept)`.
    pub fn gc(&self, current: u32) -> (usize, usize) {
        let mut removed = 0;
        let mut kept = 0;
        for path in self.store.entry_files() {
            let stale = read_file(&path).is_none_or(|(_, e)| e.semantics_version != current);
            if stale && std::fs::remove_file(&path).is_ok() {
                removed += 1;
            } else {
                kept += 1;
            }
        }
        (removed, kept)
    }

    /// Copy every entry `other` has that this store lacks (by key).
    /// Returns `(imported, skipped)`.
    pub fn import(&self, other: &BugStore) -> (usize, usize) {
        let mut imported = 0;
        let mut skipped = 0;
        for (key, entry) in other.entries() {
            if self.lookup_key(key).is_some() {
                skipped += 1;
            } else {
                self.store(&entry);
                imported += 1;
            }
        }
        (imported, skipped)
    }

    /// Snapshot of this instance's lookup/store counters.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// `(entry count, total bytes)` on disk.
    pub fn disk_usage(&self) -> (usize, u64) {
        self.store.disk_usage()
    }

    /// Delete the entire store directory.
    pub fn clear(&self) -> std::io::Result<()> {
        self.store.clear()
    }
}

/// The entry's file stem: its key in hex, whose first two digits (the
/// key's top byte) name the shard.
fn stem(key: u64) -> String {
    format!("{key:016x}")
}

/// Decode one entry file, keyed by its name; `None` when the name is not
/// a key or the file is not a valid entry under that key.
fn read_file(path: &Path) -> Option<(u64, BugEntry)> {
    let key = u64::from_str_radix(path.file_stem()?.to_str()?, 16).ok()?;
    let text = std::fs::read_to_string(path).ok()?;
    Some((key, decode_entry(&text, key)?))
}

// --- entry codec -----------------------------------------------------------
//
// Same discipline as the result cache: hand-rolled line-based text, one
// file per entry, escaped free-form strings, END terminator rejecting
// truncated writes. Layout:
//
//   squality-bug-store v<STORE_VERSION>
//   K <key>                (16 hex digits, must match the file name)
//   S <signature>          (sigcodec line; stability folded in)
//   N <repro name>
//   C <suite> <host> <arm> <semver> <probes> <before> <after> <reproduced>
//   M V | M X <from> <to>  (translation mode, text-dialect tags)
//   T <translation counts> (sigcodec payload)
//   F <first-seen> / L <last-seen>
//   ED <n>; then per data file: d <path> <m> + m × x <line>
//   EX <n>; then n × e <extension>
//   ES <n>; then n × s <setup sql>
//   R <n>; then n × r <repro line>
//   END

fn encode_entry(key: u64, entry: &BugEntry) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str(&format!("squality-bug-store v{STORE_VERSION}\n"));
    out.push_str(&format!("K {key:016x}\n"));
    // The stability verdict rides inside the signature line on disk (the
    // codec already carries the field); in memory the two are split so
    // the signature stays a pre-annotation clustering key.
    let mut sig = entry.signature.clone();
    sig.stability = entry.stability.clone();
    out.push_str(&format!("S {}\n", encode_signature(&sig)));
    out.push_str(&format!("N {}\n", escape(&entry.repro_name)));
    out.push_str(&format!(
        "C {} {} {} {} {} {} {} {}\n",
        suite_tag(entry.suite),
        engine_dialect_tag(entry.host),
        entry.arm.tag(),
        entry.semantics_version,
        entry.probes,
        entry.records_before,
        entry.records_after,
        entry.reproduced as u8,
    ));
    match entry.translation {
        TranslationMode::Verbatim => out.push_str("M V\n"),
        TranslationMode::Translated { from, to } => {
            out.push_str(&format!("M X {} {}\n", text_dialect_tag(from), text_dialect_tag(to)));
        }
    }
    out.push_str(&format!("T {}\n", encode_translation_counts(&entry.rule_counters)));
    out.push_str(&format!("F {}\n", escape(&entry.first_seen)));
    out.push_str(&format!("L {}\n", escape(&entry.last_seen)));
    let env = &entry.environment;
    out.push_str(&format!("ED {}\n", env.data_files.len()));
    for (path, lines) in &env.data_files {
        out.push_str(&format!("d {} {}\n", escape(path), lines.len()));
        for line in lines {
            out.push_str(&format!("x {}\n", escape(line)));
        }
    }
    out.push_str(&format!("EX {}\n", env.extensions.len()));
    for ext in &env.extensions {
        out.push_str(&format!("e {}\n", escape(ext)));
    }
    out.push_str(&format!("ES {}\n", env.setup_sql.len()));
    for sql in &env.setup_sql {
        out.push_str(&format!("s {}\n", escape(sql)));
    }
    let repro_lines: Vec<&str> =
        if entry.repro_text.is_empty() { Vec::new() } else { entry.repro_text.lines().collect() };
    out.push_str(&format!("R {}\n", repro_lines.len()));
    for line in repro_lines {
        out.push_str(&format!("r {}\n", escape(line)));
    }
    out.push_str("END\n");
    out
}

/// Decode the entry stored under `key`: a key line naming any other key
/// (a file copied or renamed under the wrong name) rejects the entry.
fn decode_entry(text: &str, key: u64) -> Option<BugEntry> {
    let mut lines = text.lines();
    if lines.next()? != format!("squality-bug-store v{STORE_VERSION}") {
        return None;
    }
    if u64::from_str_radix(lines.next()?.strip_prefix("K ")?, 16).ok()? != key {
        return None;
    }
    let mut signature = decode_signature(lines.next()?.strip_prefix("S ")?)?;
    let stability = signature.stability.take();
    let repro_name = unescape(lines.next()?.strip_prefix("N ")?)?;
    let mut c = lines.next()?.strip_prefix("C ")?.split(' ');
    let suite = parse_suite_tag(c.next()?)?;
    let host = parse_engine_dialect(c.next()?)?;
    let arm = BugArm::parse_tag(c.next()?)?;
    let semantics_version: u32 = c.next()?.parse().ok()?;
    let probes: usize = c.next()?.parse().ok()?;
    let records_before: usize = c.next()?.parse().ok()?;
    let records_after: usize = c.next()?.parse().ok()?;
    let reproduced = c.next()? == "1";
    if c.next().is_some() {
        return None;
    }
    let m = lines.next()?.strip_prefix("M ")?;
    let translation = if m == "V" {
        TranslationMode::Verbatim
    } else {
        let mut parts = m.strip_prefix("X ")?.split(' ');
        let from = parse_text_dialect(parts.next()?)?;
        let to = parse_text_dialect(parts.next()?)?;
        TranslationMode::Translated { from, to }
    };
    let rule_counters = decode_translation_counts(lines.next()?.strip_prefix("T ")?)?;
    let first_seen = unescape(lines.next()?.strip_prefix("F ")?)?;
    let last_seen = unescape(lines.next()?.strip_prefix("L ")?)?;
    let n_data: usize = lines.next()?.strip_prefix("ED ")?.parse().ok()?;
    let mut data_files = Vec::with_capacity(n_data);
    for _ in 0..n_data {
        let (path, m) = lines.next()?.strip_prefix("d ")?.rsplit_once(' ')?;
        let m: usize = m.parse().ok()?;
        let path = unescape(path)?;
        let rows = (0..m)
            .map(|_| unescape(lines.next()?.strip_prefix("x ")?))
            .collect::<Option<Vec<String>>>()?;
        data_files.push((path, rows));
    }
    let n_ext: usize = lines.next()?.strip_prefix("EX ")?.parse().ok()?;
    let extensions = (0..n_ext)
        .map(|_| unescape(lines.next()?.strip_prefix("e ")?))
        .collect::<Option<Vec<String>>>()?;
    let n_setup: usize = lines.next()?.strip_prefix("ES ")?.parse().ok()?;
    let setup_sql = (0..n_setup)
        .map(|_| unescape(lines.next()?.strip_prefix("s ")?))
        .collect::<Option<Vec<String>>>()?;
    let n_repro: usize = lines.next()?.strip_prefix("R ")?.parse().ok()?;
    let repro_lines = (0..n_repro)
        .map(|_| unescape(lines.next()?.strip_prefix("r ")?))
        .collect::<Option<Vec<String>>>()?;
    let repro_text = if repro_lines.is_empty() {
        String::new()
    } else {
        // Repro files are newline-terminated (writer convention).
        let mut text = repro_lines.join("\n");
        text.push('\n');
        text
    };
    if lines.next()? != "END" {
        return None;
    }
    Some(BugEntry {
        signature,
        stability,
        repro_name,
        repro_text,
        reproduced,
        suite,
        host,
        arm,
        translation,
        rule_counters,
        environment: DonorEnvironment { data_files, extensions, setup_sql },
        probes,
        records_before,
        records_after,
        semantics_version,
        first_seen,
        last_seen,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use squality_engine::ErrorKind;
    use squality_runner::{DependencyClass, FailKind, IncompatibilityClass, PerturbationAxis};
    use squality_sqltext::TextDialect;

    fn temp_store(tag: &str) -> BugStore {
        let dir = std::env::temp_dir()
            .join(format!("squality-bugstore-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        BugStore::new(dir)
    }

    fn sample_signature(statement: &str) -> FailureSignature {
        FailureSignature {
            normalized: "conversion: cannot cast 'x'\tto INTEGER".into(),
            statement: statement.into(),
            kind: FailKind::UnexpectedError,
            error_kind: Some(ErrorKind::Conversion),
            dependency: DependencyClass::SetUp,
            incompatibility: IncompatibilityClass::Types,
            stability: None,
        }
    }

    fn sample_entry() -> BugEntry {
        let mut rule_counters = TranslationCounts::default();
        rule_counters.applied[1] = 4;
        rule_counters.translated = 9;
        BugEntry {
            signature: sample_signature("SELECT"),
            stability: Some(Stability::PerturbationSensitive {
                axis: PerturbationAxis::FaultProfile,
            }),
            repro_name: "cluster-001-types.test".to_string(),
            repro_text:
                "statement ok\nCREATE TABLE t(a INTEGER)\n\nquery I\nSELECT a FROM t\n----\n\n"
                    .to_string(),
            reproduced: true,
            suite: SuiteKind::PgRegress,
            host: EngineDialect::Duckdb,
            arm: BugArm::Translated,
            translation: TranslationMode::Translated {
                from: TextDialect::Postgres,
                to: TextDialect::Duckdb,
            },
            rule_counters,
            environment: DonorEnvironment {
                data_files: vec![(
                    "data/t.csv".to_string(),
                    vec!["1,a".to_string(), "2,b".to_string()],
                )],
                extensions: vec!["regresslib".to_string()],
                setup_sql: vec!["CREATE TABLE setup_tbl0(k INTEGER)".to_string()],
            },
            probes: 12,
            records_before: 40,
            records_after: 2,
            semantics_version: 1,
            first_seen: "a1b2c3d4e5f60718".to_string(),
            last_seen: "a1b2c3d4e5f60718".to_string(),
        }
    }

    #[test]
    fn entry_codec_roundtrips() {
        let entry = sample_entry();
        let key = signature_key(&entry.signature);
        let decoded = decode_entry(&encode_entry(key, &entry), key).expect("roundtrip");
        assert_eq!(decoded, entry);
    }

    #[test]
    fn entry_codec_rejects_version_key_and_truncation_mismatches() {
        let entry = sample_entry();
        let key = signature_key(&entry.signature);
        let text = encode_entry(key, &entry);
        let bumped =
            text.replacen(&format!("v{STORE_VERSION}"), &format!("v{}", STORE_VERSION + 1), 1);
        assert!(decode_entry(&bumped, key).is_none(), "future-version entry must not decode");
        assert!(decode_entry(&text, key ^ 1).is_none(), "key line must match the expected key");
        let cut = text.len() - "END\n".len();
        assert!(decode_entry(&text[..cut], key).is_none(), "missing END");
        assert!(decode_entry(&text[..cut / 2], key).is_none(), "torn write");
    }

    #[test]
    fn entry_codec_roundtrips_tombstone_and_verbatim() {
        let mut entry = sample_entry();
        entry.repro_text = String::new();
        entry.reproduced = false;
        entry.stability = None;
        entry.translation = TranslationMode::Verbatim;
        entry.arm = BugArm::DonorBare;
        entry.environment = DonorEnvironment::default();
        let key = signature_key(&entry.signature);
        let decoded = decode_entry(&encode_entry(key, &entry), key).expect("roundtrip");
        assert_eq!(decoded, entry);
    }

    #[test]
    fn signature_key_ignores_stability_only() {
        let base = sample_signature("SELECT");
        let mut annotated = base.clone();
        annotated.stability = Some(Stability::Stable);
        assert_eq!(signature_key(&base), signature_key(&annotated));
        let other = sample_signature("INSERT");
        assert_ne!(signature_key(&base), signature_key(&other));
    }

    #[test]
    fn store_lookup_and_upsert_preserve_first_seen() {
        let store = temp_store("upsert");
        let entry = sample_entry();
        assert!(store.lookup(&entry.signature).is_none());
        assert!(store.upsert(&entry), "first store is new");
        let mut updated = entry.clone();
        updated.first_seen = "ffffffffffffffff".to_string();
        updated.last_seen = "ffffffffffffffff".to_string();
        assert!(!store.upsert(&updated), "second store is an update");
        let got = store.lookup(&entry.signature).expect("stored entry hits");
        assert_eq!(got.first_seen, entry.first_seen, "first_seen preserved");
        assert_eq!(got.last_seen, "ffffffffffffffff", "last_seen updated");
        let stats = store.stats();
        assert_eq!(stats.stores, 2);
        assert!(stats.hits >= 2);
        store.clear().unwrap();
    }

    #[test]
    fn corrupt_entry_is_a_miss() {
        let store = temp_store("corrupt");
        let entry = sample_entry();
        store.store(&entry);
        let path = store.store.entry_files().pop().expect("one entry");
        std::fs::write(&path, "not an entry\n").unwrap();
        assert!(store.lookup(&entry.signature).is_none());
        assert_eq!(store.stats().corrupt, 1);
        store.clear().unwrap();
    }

    #[test]
    fn entry_under_another_keys_name_is_skipped_everywhere() {
        let src = temp_store("misnamed-src");
        let a = sample_entry();
        let mut b = sample_entry();
        b.signature = sample_signature("INSERT");
        src.store(&b);
        // Copy `a`'s file over `b`'s name: the key line still says `a`.
        let (key_a, key_b) = (signature_key(&a.signature), signature_key(&b.signature));
        let tmp = temp_store("misnamed-tmp");
        tmp.store(&a);
        std::fs::copy(tmp.store.entry_files().pop().unwrap(), src.store.entry_path(&stem(key_b)))
            .unwrap();
        assert!(src.lookup_key(key_b).is_none(), "misnamed entry must not be served");
        assert_eq!(src.stats().corrupt, 1);
        assert!(src.entries().is_empty(), "entries() must skip it");
        // Importing must not overwrite our own `a` with the copied one.
        let dst = temp_store("misnamed-dst");
        let mut ours = a.clone();
        ours.last_seen = "ffffffffffffffff".to_string();
        dst.store(&ours);
        assert_eq!(dst.import(&src), (0, 0));
        assert_eq!(dst.lookup_key(key_a).expect("ours survives"), ours);
        assert!(dst.lookup_key(key_b).is_none());
        // gc drops it as unreadable.
        assert_eq!(src.gc(a.semantics_version), (1, 0));
        for store in [src, tmp, dst] {
            store.clear().unwrap();
        }
    }

    #[test]
    fn entries_sorted_by_key_and_remove() {
        let store = temp_store("entries");
        let a = sample_entry();
        let mut b = sample_entry();
        b.signature = sample_signature("INSERT");
        store.store(&a);
        store.store(&b);
        let listed = store.entries();
        assert_eq!(listed.len(), 2);
        assert!(listed[0].0 < listed[1].0, "sorted by key");
        assert!(store.remove(listed[0].0));
        assert!(!store.remove(listed[0].0), "second remove is a no-op");
        assert_eq!(store.entries().len(), 1);
        store.clear().unwrap();
    }

    #[test]
    fn gc_drops_stale_semantics_versions() {
        let store = temp_store("gc");
        let current = sample_entry();
        let mut stale = sample_entry();
        stale.signature = sample_signature("UPDATE");
        stale.semantics_version = 0;
        store.store(&current);
        store.store(&stale);
        let (removed, kept) = store.gc(current.semantics_version);
        assert_eq!((removed, kept), (1, 1));
        assert!(store.lookup(&current.signature).is_some());
        assert!(store.lookup(&stale.signature).is_none());
        store.clear().unwrap();
    }

    #[test]
    fn import_copies_only_missing_entries() {
        let src = temp_store("import-src");
        let dst = temp_store("import-dst");
        let shared = sample_entry();
        let mut only_src = sample_entry();
        only_src.signature = sample_signature("DELETE");
        src.store(&shared);
        src.store(&only_src);
        dst.store(&shared);
        let (imported, skipped) = dst.import(&src);
        assert_eq!((imported, skipped), (1, 1));
        assert_eq!(dst.entries().len(), 2);
        src.clear().unwrap();
        dst.clear().unwrap();
    }
}
