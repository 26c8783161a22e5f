//! On-disk compatibility of the result cache and the bug store.
//!
//! `tests/fixtures/` holds one result-cache entry and one bug-store entry
//! written by the stores' previous, separate implementations, at
//! `--scale 0.05 --seed 7` (`squality-tables all --cache` and `all triage
//! --reduce --store`). Each must still be found by its key, decode, and
//! re-encode to the same bytes; the key
//! hashes that name them are pinned too, so a change to a tag or a hash
//! input shows up here as a format change rather than as silent misses.

use squality_core::{signature_key, BugArm, BugStore, CellSpec, FileKey, Provision, ResultCache};
use squality_engine::{
    execution_fingerprint, ClientKind, EngineDialect, ExecStrategy, FaultProfile,
};
use squality_formats::SuiteKind;
use squality_runner::{NumericMode, Outcome, StoreStats, TranslationMode};
use squality_sqltext::TextDialect;
use std::path::{Path, PathBuf};

const ENTRY: &str = "3e4c1b89bc0de66a-b3b0be43b93443f5.entry";
const BUG: &str = "e561373e5d4813f1.bug";

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name))
        .expect("fixture")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("squality-compat-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Place `name` under `root/<version dir>/<shard>/`, as its store would.
fn install(root: &Path, version_dir: &str, name: &str) {
    let dir = root.join(version_dir).join(&name[..2]);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(name), fixture(name)).unwrap();
}

fn cell_spec<'a>(fingerprint: &'a str, translation: TranslationMode) -> CellSpec<'a> {
    CellSpec {
        suite: SuiteKind::Slt,
        engine_fingerprint: fingerprint,
        client: ClientKind::Connector,
        provision: Provision::Bare,
        numeric: NumericMode::Exact,
        translation,
        faults: FaultProfile::default(),
        environment: None,
        backend: "in-process",
    }
}

#[test]
fn cell_hashes_are_pinned() {
    // The fixture's cell: the SLT donor run on SQLite, bare provisioning.
    let sqlite = execution_fingerprint(EngineDialect::Sqlite, ExecStrategy::Hash);
    assert_eq!(cell_spec(&sqlite, TranslationMode::Verbatim).cell_hash(), 0x3e4c1b89bc0de66a);
    // A translated cell, which also hashes the text-dialect tags.
    let duckdb = execution_fingerprint(EngineDialect::Duckdb, ExecStrategy::Hash);
    let translated = CellSpec {
        suite: SuiteKind::PgRegress,
        provision: Provision::CrossHost,
        ..cell_spec(
            &duckdb,
            TranslationMode::Translated { from: TextDialect::Postgres, to: TextDialect::Duckdb },
        )
    };
    assert_eq!(translated.cell_hash(), 0x1d5c20b2e633343f);
}

#[test]
fn result_cache_entry_from_the_previous_store_round_trips() {
    let old = temp_dir("cache-old");
    install(&old, "v2", ENTRY);
    let cache = ResultCache::new(&old);
    let key = FileKey { cell: 0x3e4c1b89bc0de66a, file: 0xb3b0be43b93443f5 };
    let run = cache.lookup(&key).expect("the old entry is found and decodes");
    assert_eq!(cache.stats(), StoreStats { hits: 1, misses: 0, stores: 0, corrupt: 0 });
    assert_eq!(run.result.file, "slt/typestring.test");
    let failures = run.result.results.iter().filter(|r| matches!(r.outcome, Outcome::Fail(_)));
    assert_eq!(failures.count(), 2);

    let new = temp_dir("cache-new");
    ResultCache::new(&new).store(&key, &run);
    let rewritten = std::fs::read(new.join("v2/3e").join(ENTRY)).expect("same path");
    assert!(rewritten == fixture(ENTRY), "re-encoding changed the entry's bytes");
    for dir in [old, new] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn bug_store_entry_from_the_previous_store_round_trips() {
    let old = temp_dir("bugs-old");
    install(&old, "v1", BUG);
    let store = BugStore::new(&old);
    let entry = store.lookup_key(0xe561373e5d4813f1).expect("the old entry is found and decodes");
    assert_eq!(signature_key(&entry.signature), 0xe561373e5d4813f1);
    assert_eq!(store.entries().len(), 1);
    // Every enum tag of the `C` and `M` lines.
    assert_eq!(
        (entry.suite, entry.host, entry.arm),
        (SuiteKind::PgRegress, EngineDialect::Duckdb, BugArm::Translated)
    );
    assert_eq!(
        entry.translation,
        TranslationMode::Translated { from: TextDialect::Postgres, to: TextDialect::Duckdb }
    );

    let new = temp_dir("bugs-new");
    BugStore::new(&new).store(&entry);
    let rewritten = std::fs::read(new.join("v1/e5").join(BUG)).expect("same path");
    assert!(rewritten == fixture(BUG), "re-encoding changed the entry's bytes");
    for dir in [old, new] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
