//! A crash-safe, content-addressed result store for simulation
//! outcomes.
//!
//! Simulation results are pure functions of their structural
//! fingerprint, so the store is content-addressed: the key *is* the
//! identity, and a valid record for a key is always the right answer.
//! That makes corruption handling simple in principle — a record that
//! fails validation is worth nothing, so it is treated as a miss and
//! recomputed — and this crate makes it true in practice:
//!
//! * [`record`] — the checksummed on-disk envelope; every way a record
//!   can be wrong maps to a typed error.
//! * [`disk`] — the [`Store`]: durable segments written temp+rename
//!   through a serialized writer with bounded retry, reads that
//!   quarantine damage instead of failing, and a kill-point harness for
//!   simulating mid-write crashes.
//! * [`faults`] — deterministic, seeded corruption of segment reads
//!   (`--inject-store`) to prove the recovery path.
//!
//! The store is a durable tier and nothing else: it keeps no in-memory
//! copy of an outcome, because the caller's memo map already holds the
//! one copy a process needs. Nothing in the store is an error:
//! [`Store::open`] gives no store for an unusable directory (the
//! caller's memo still works) and a read-only one for an unwritable
//! directory, each with a warning, and a corrupt record is a miss.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod faults;
pub mod record;

use std::path::PathBuf;

pub use disk::{KillPoint, KillSpec, Store};
pub use faults::{StoreFaultConfig, StoreFaultInjector, StoreFaultKind};
pub use record::{RecordError, RECORD_SCHEMA};

/// How to open a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Disk root (created if absent).
    pub dir: PathBuf,
    /// Seeded store fault injection (`--inject-store`).
    pub faults: Option<StoreFaultConfig>,
    /// Simulated mid-write crash (test harness only).
    pub kill: Option<KillSpec>,
}

impl StoreConfig {
    /// Store rooted at `dir` with default settings.
    #[must_use]
    pub fn at(dir: PathBuf) -> StoreConfig {
        StoreConfig {
            dir,
            faults: None,
            kill: None,
        }
    }
}

/// What [`Store::open`] degraded, if anything. `warnings` is for the
/// user; one line each.
#[derive(Debug, Clone, Default)]
pub struct OpenReport {
    /// A store was opened (possibly read-only).
    pub disk_enabled: bool,
    /// Human-readable degradation warnings (print once).
    pub warnings: Vec<String>,
}

/// Counter snapshot for `--timings`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Always 0: the store keeps no in-memory tier. Kept because the
    /// repository benchmark (`latte-perf`) reads it.
    pub mem_hits: u64,
    /// Hits served (and re-validated) from disk.
    pub disk_hits: u64,
    /// Records durably written this run.
    pub durable_writes: u64,
    /// Writes dropped (read-only store or dead writer).
    pub dropped_writes: u64,
    /// Writes abandoned after the retry budget.
    pub write_failures: u64,
    /// Records that failed validation on read, plus foreign names moved
    /// aside at open.
    pub quarantined: u64,
    /// Listed records whose file had vanished at read time.
    pub missing: u64,
    /// Torn temp files removed at open.
    pub torn_removed: u64,
    /// Always 0: with no in-memory tier nothing is evicted. Kept
    /// because the repository benchmark (`latte-perf`) reads it.
    pub evictions: u64,
    /// Faults injected by `--inject-store`.
    pub injected_faults: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::Path;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("latte-store-facade-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open(root: &Path) -> Store {
        let (store, report) = Store::open(StoreConfig::at(root.to_path_buf()));
        assert!(report.disk_enabled);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        store.unwrap()
    }

    #[test]
    fn disk_backed_survives_process_restart() {
        let root = tmp_root("restart");
        {
            let store = open(&root);
            store.put(9, b"persisted".to_vec());
            store.flush();
            assert_eq!(store.get(9).as_deref(), Some(&b"persisted"[..]));
            store.shutdown();
        }
        let store = open(&root);
        let bytes = store.get(9).unwrap();
        assert_eq!(&bytes[..], b"persisted");
        // No in-memory tier: the second read also comes from disk.
        assert_eq!(store.get(9).unwrap(), bytes);
        assert_eq!(store.stats().disk_hits, 2);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unusable_directory_degrades_to_memory_only() {
        let root = tmp_root("degrade");
        fs::create_dir_all(&root).unwrap();
        // Make `segments` impossible to create: occupy the name with a
        // file.
        fs::write(root.join("segments"), b"not a directory").unwrap();
        let (store, report) = Store::open(StoreConfig::at(root.clone()));
        // No store: the caller's memo is the only copy.
        assert!(store.is_none());
        assert!(!report.disk_enabled);
        assert_eq!(report.warnings.len(), 1);
        assert!(
            report.warnings[0].contains("in-memory only"),
            "{:?}",
            report.warnings
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_disk_record_falls_back_to_miss() {
        let root = tmp_root("corrupt");
        {
            let store = open(&root);
            store.put(5, b"fragile".to_vec());
            store.flush();
            store.shutdown();
        }
        corrupt_one_segment(&root);
        let store = open(&root);
        assert_eq!(store.get(5), None, "corruption must be a miss, not data");
        assert_eq!(store.stats().quarantined, 1);
        // The slot is writable again.
        store.put(5, b"fragile".to_vec());
        store.flush();
        assert_eq!(store.get(5).as_deref(), Some(&b"fragile"[..]));
        fs::remove_dir_all(&root).unwrap();
    }

    fn corrupt_one_segment(root: &Path) {
        let seg_dir = root.join("segments");
        let entry = fs::read_dir(&seg_dir).unwrap().flatten().next().unwrap();
        let mut bytes = fs::read(entry.path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(entry.path(), bytes).unwrap();
    }

    #[test]
    fn stats_merge_recovery_counts() {
        let root = tmp_root("stats");
        fs::create_dir_all(root.join("segments")).unwrap();
        fs::write(root.join("segments/junk.rec.tmp"), b"torn").unwrap();
        fs::write(
            root.join("segments").join(format!("{:032x}.rec", 3u128)),
            b"garbage",
        )
        .unwrap();
        let store = open(&root);
        // Open removed the torn write; the garbage segment is listed and
        // quarantined only when read.
        assert_eq!(store.stats().torn_removed, 1);
        assert_eq!(store.stats().quarantined, 0);
        assert_eq!(store.get(3), None);
        let stats = store.stats();
        assert_eq!(stats.torn_removed, 1);
        assert_eq!(stats.quarantined, 1);
        fs::remove_dir_all(&root).unwrap();
    }
}
