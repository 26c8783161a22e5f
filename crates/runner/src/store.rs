//! The on-disk entry store under the result cache and the bug repository.
//!
//! Both persist one text file per entry and share one durability
//! discipline, which lives here:
//!
//! * **Layout.** `<root>/v<version>/<shard>/<stem>.<ext>`, where the stem
//!   is the entry's key in hex and the shard is the stem's first two hex
//!   digits (the key's top byte), which keeps directories small. The
//!   version in the directory name orphans entries written by other
//!   schema versions; each codec double-checks it in a header line.
//! * **Reads never fail.** Any read problem (absent file, unreadable
//!   file) is a miss; a file the caller's decoder rejects (bad header,
//!   truncation, garbage) is a miss that also counts as `corrupt`. The
//!   store can always be deleted and rebuilt.
//! * **Writes are atomic.** A complete entry goes to a uniquely named
//!   temp file, which is then renamed into place. Two writers racing one
//!   key each rename a valid entry, so readers never see a partial write.
//!   IO failures are swallowed: a store that cannot write never hits.
//!
//! The store knows nothing about entry formats: callers hand it encoded
//! text and a decode closure. The codecs stay with their typed layers
//! ([`crate::sigcodec`] holds the pieces they share).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide counter making concurrent writers' temp file names unique.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Lookup and write counters of one store instance over one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that found no valid entry.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries that existed but failed to decode: a subset of `misses`.
    pub corrupt: u64,
}

impl StoreStats {
    /// Fraction of lookups answered from disk, in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A versioned directory of entry files with hit/miss accounting.
///
/// All methods take `&self` and are thread-safe.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    version: u32,
    ext: &'static str,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt: AtomicU64,
}

impl Store {
    /// A store of `*.<ext>` entries under `<root>/v<version>/`. Nothing is
    /// created until the first write.
    pub fn new(root: impl Into<PathBuf>, version: u32, ext: &'static str) -> Store {
        Store {
            root: root.into(),
            version,
            ext,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where the entry named `stem` lives. The stem must start with two
    /// hex digits, which name its shard.
    pub fn entry_path(&self, stem: &str) -> PathBuf {
        self.root
            .join(format!("v{}", self.version))
            .join(&stem[..2])
            .join(format!("{stem}.{}", self.ext))
    }

    /// Read and decode the entry named `stem`, counting a hit or a miss.
    pub fn lookup<T>(&self, stem: &str, decode: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        let Ok(text) = std::fs::read_to_string(self.entry_path(stem)) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let entry = decode(&text);
        if entry.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        entry
    }

    /// Write `text` as the entry named `stem`, atomically.
    pub fn store(&self, stem: &str, text: &str) {
        let path = self.entry_path(stem);
        let Some(dir) = path.parent() else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, &path).is_ok() {
            self.stores.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Every entry file under the root, of every version, sorted.
    pub fn entry_files(&self) -> Vec<PathBuf> {
        let mut out = Vec::new();
        let mut stack = vec![self.root.clone()];
        while let Some(dir) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else { continue };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == self.ext) {
                    out.push(path);
                }
            }
        }
        out.sort();
        out
    }

    /// `(entry count, total bytes)` on disk.
    pub fn disk_usage(&self) -> (usize, u64) {
        let paths = self.entry_files();
        let bytes = paths.iter().filter_map(|p| std::fs::metadata(p).ok()).map(|m| m.len()).sum();
        (paths.len(), bytes)
    }

    /// Delete the whole root directory. A missing root is not an error.
    pub fn clear(&self) -> std::io::Result<()> {
        match std::fs::remove_dir_all(&self.root) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Snapshot of this instance's counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("squality-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::new(dir, 3, "entry")
    }

    /// Accepts only texts that end in the `END` line, like both codecs.
    fn decode(text: &str) -> Option<String> {
        text.strip_suffix("END\n").map(str::to_string)
    }

    #[test]
    fn layout_shards_by_the_stem_prefix() {
        let store = temp_store("layout");
        let path = store.entry_path("ab12cd");
        assert_eq!(path, store.root().join("v3").join("ab").join("ab12cd.entry"));
    }

    #[test]
    fn store_then_lookup_counts_hits_misses_and_stores() {
        let store = temp_store("counters");
        assert_eq!(store.lookup("00aa", decode), None);
        store.store("00aa", "payload\nEND\n");
        assert_eq!(store.lookup("00aa", decode).as_deref(), Some("payload\n"));
        let stats = store.stats();
        assert_eq!(stats, StoreStats { hits: 1, misses: 1, stores: 1, corrupt: 0 });
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(StoreStats::default().hit_rate(), 0.0);
        let (entries, bytes) = store.disk_usage();
        assert_eq!((entries, bytes), (1, "payload\nEND\n".len() as u64));
        store.clear().unwrap();
        assert_eq!(store.disk_usage().0, 0);
        store.clear().expect("clearing a missing root is fine");
    }

    #[test]
    fn undecodable_entry_is_a_corrupt_miss() {
        let store = temp_store("corrupt");
        store.store("01bb", "torn wri");
        assert_eq!(store.lookup("01bb", decode), None);
        assert_eq!(store.stats(), StoreStats { hits: 0, misses: 1, stores: 1, corrupt: 1 });
        store.clear().unwrap();
    }

    #[test]
    fn unreadable_entry_is_a_plain_miss() {
        let store = temp_store("unreadable");
        // A directory where the entry file should be cannot be read.
        std::fs::create_dir_all(store.entry_path("02cc")).unwrap();
        assert_eq!(store.lookup("02cc", decode), None);
        assert_eq!(store.stats(), StoreStats { hits: 0, misses: 1, stores: 0, corrupt: 0 });
        // Nor written: the failed rename leaves no temp file behind.
        store.store("02cc", "x\nEND\n");
        assert_eq!(store.stats().stores, 0);
        let shard = store.entry_path("02cc").parent().unwrap().to_path_buf();
        assert_eq!(std::fs::read_dir(shard).unwrap().count(), 1, "only the blocking directory");
        store.clear().unwrap();
    }

    #[test]
    fn entry_files_walks_every_version_and_only_its_extension() {
        let store = temp_store("walk");
        store.store("ff01", "a\nEND\n");
        store.store("0a02", "b\nEND\n");
        let other_version = Store::new(store.root(), 9, "entry");
        other_version.store("5503", "c\nEND\n");
        let other_ext = Store::new(store.root(), 3, "bug");
        other_ext.store("5504", "d\nEND\n");
        let names: Vec<_> = store
            .entry_files()
            .iter()
            .map(|p| p.strip_prefix(store.root()).unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["v3/0a/0a02.entry", "v3/ff/ff01.entry", "v9/55/5503.entry"]);
        store.clear().unwrap();
    }

    #[test]
    fn concurrent_writers_racing_one_key_leave_a_valid_entry() {
        let store = temp_store("race");
        let text = format!("{}END\n", "row\n".repeat(2000));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        store.store("07dd", &text);
                    }
                });
            }
        });
        assert_eq!(store.lookup("07dd", decode).map(|t| t.len()), Some(text.len() - 4));
        assert_eq!(store.stats().stores, 160);
        // No temp litter: exactly the one entry file remains.
        assert_eq!(store.disk_usage().0, 1);
        let shard = store.entry_path("07dd").parent().unwrap().to_path_buf();
        assert_eq!(std::fs::read_dir(shard).unwrap().count(), 1, "temp files must not leak");
        store.clear().unwrap();
    }
}
