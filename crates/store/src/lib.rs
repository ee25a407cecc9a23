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
//! * [`disk`] — durable segments written temp+rename through a
//!   serialized writer with bounded retry, a recovery scan that
//!   quarantines damage instead of failing, and a kill-point harness
//!   for simulating mid-write crashes.
//! * [`faults`] — deterministic, seeded corruption of the disk tier
//!   (`--inject-store`) to prove the recovery path.
//!
//! The store is a durable tier and nothing else: it keeps no in-memory
//! copy of an outcome, because the caller's memo map already holds the
//! one copy a process needs. The [`Store`] facade puts the disk tier
//! behind a degradation ladder: an unusable directory leaves no disk
//! tier (the caller's memo still works), an unwritable one serves its
//! records read-only, and a corrupt record is a miss — each with a
//! warning, never an error. `Store::open` cannot fail.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod faults;
pub mod record;

use std::path::PathBuf;
use std::sync::Arc;

pub use disk::{DiskConfig, DiskStats, DiskTier, KillPoint, KillSpec, RecoveryReport};
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

/// The outcome of [`Store::open`]: what was recovered and what, if
/// anything, was degraded. `warnings` is for the user; one line each.
#[derive(Debug, Clone, Default)]
pub struct OpenReport {
    /// The disk tier is active.
    pub disk_enabled: bool,
    /// What the recovery scan found (zeroed when the disk tier is off).
    pub recovery: RecoveryReport,
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
    /// Writes dropped (read-only tier or dead writer).
    pub dropped_writes: u64,
    /// Writes abandoned after the retry budget.
    pub write_failures: u64,
    /// Records quarantined, including at open.
    pub quarantined: u64,
    /// Indexed records missing at read time.
    pub missing: u64,
    /// Valid unindexed segments adopted at open.
    pub adopted: u64,
    /// Torn temp files removed at open.
    pub torn_removed: u64,
    /// Always 0: with no in-memory tier nothing is evicted. Kept
    /// because the repository benchmark (`latte-perf`) reads it.
    pub evictions: u64,
    /// Faults injected by `--inject-store`.
    pub injected_faults: u64,
}

/// The store facade over the durable disk tier. Thread-safe; share
/// via reference or `Arc`.
#[derive(Debug)]
pub struct Store {
    disk: Option<DiskTier>,
    recovery: RecoveryReport,
}

impl Store {
    /// Opens a store. Never fails: every problem steps down the
    /// degradation ladder (disk → read-only → no disk tier) and is
    /// reported in the [`OpenReport`].
    #[must_use]
    pub fn open(config: StoreConfig) -> (Store, OpenReport) {
        let StoreConfig { dir, faults, kill } = config;
        let mut report = OpenReport::default();
        let disk = match DiskTier::open(DiskConfig {
            dir: dir.clone(),
            faults,
            kill,
        }) {
            Ok((tier, recovery)) => {
                report.disk_enabled = true;
                report.recovery = recovery;
                if recovery.read_only {
                    report.warnings.push(format!(
                        "store: {} is not writable; serving existing entries read-only, new results stay in memory",
                        dir.display()
                    ));
                }
                if recovery.quarantined > 0 {
                    report.warnings.push(format!(
                        "store: quarantined {} corrupt record(s) during recovery at {}",
                        recovery.quarantined,
                        dir.display()
                    ));
                }
                Some(tier)
            }
            Err(err) => {
                report.warnings.push(format!(
                    "store: {} unavailable ({err}); continuing in-memory only",
                    dir.display()
                ));
                None
            }
        };
        let recovery = report.recovery;
        (Store { disk, recovery }, report)
    }

    /// Reads `key` from disk, re-validating the record. A miss, a
    /// corrupt record and a disabled disk tier all return `None`.
    pub fn get(&self, key: u128) -> Option<Vec<u8>> {
        self.disk.as_ref()?.get(key)
    }

    /// Queues `bytes` for durable storage under `key`. The write is
    /// asynchronous; poll [`Store::durable`] or call [`Store::flush`].
    pub fn put(&self, key: u128, bytes: Arc<Vec<u8>>) {
        if let Some(disk) = &self.disk {
            disk.put(key, bytes);
        }
    }

    /// `true` when `key` has a durable on-disk record. Always `false`
    /// without a disk tier.
    #[must_use]
    pub fn durable(&self, key: u128) -> bool {
        self.disk.as_ref().is_some_and(|d| d.durable(key))
    }

    /// Blocks until queued writes are applied and the index is
    /// persisted.
    pub fn flush(&self) {
        if let Some(disk) = &self.disk {
            disk.flush();
        }
    }

    /// Flushes and joins the writer thread. Idempotent.
    pub fn shutdown(&self) {
        if let Some(disk) = &self.disk {
            disk.shutdown();
        }
    }

    /// Counter snapshot (open-time recovery counts included).
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let disk = self.disk.as_ref().map(DiskTier::stats).unwrap_or_default();
        StoreStats {
            mem_hits: 0,
            disk_hits: disk.reads_ok,
            durable_writes: disk.durable_writes,
            dropped_writes: disk.dropped_writes,
            write_failures: disk.write_failures,
            quarantined: disk.quarantined + self.recovery.quarantined,
            missing: disk.missing + self.recovery.missing_dropped,
            adopted: self.recovery.adopted,
            torn_removed: self.recovery.torn_removed,
            evictions: 0,
            injected_faults: disk.injected_faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::Path;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "latte-store-facade-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_backed_survives_process_restart() {
        let root = tmp_root("restart");
        {
            let (store, report) = Store::open(StoreConfig::at(root.clone()));
            assert!(report.disk_enabled);
            store.put(9, Arc::new(b"persisted".to_vec()));
            store.flush();
            assert!(store.durable(9));
            store.shutdown();
        }
        let (store, _) = Store::open(StoreConfig::at(root.clone()));
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
        assert!(!report.disk_enabled);
        assert_eq!(report.warnings.len(), 1);
        assert!(report.warnings[0].contains("in-memory only"), "{:?}", report.warnings);
        // No disk tier: a put is dropped and the caller's memo is the
        // only copy.
        store.put(2, Arc::new(b"two".to_vec()));
        assert!(store.get(2).is_none());
        assert!(!store.durable(2));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_disk_record_falls_back_to_miss() {
        let root = tmp_root("corrupt");
        {
            let (store, _) = Store::open(StoreConfig::at(root.clone()));
            store.put(5, Arc::new(b"fragile".to_vec()));
            store.flush();
            store.shutdown();
        }
        corrupt_one_segment(&root);
        let (store, _) = Store::open(StoreConfig::at(root.clone()));
        assert_eq!(store.get(5), None, "corruption must be a miss, not data");
        assert_eq!(store.stats().quarantined, 1);
        // The slot is writable again.
        store.put(5, Arc::new(b"fragile".to_vec()));
        store.flush();
        assert!(store.durable(5));
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
        let (store, report) = Store::open(StoreConfig::at(root.clone()));
        assert_eq!(report.recovery.torn_removed, 1);
        let stats = store.stats();
        assert_eq!(stats.torn_removed, 1);
        assert_eq!(stats.quarantined, 1);
        assert!(report.warnings.iter().any(|w| w.contains("quarantined")));
        fs::remove_dir_all(&root).unwrap();
    }
}
