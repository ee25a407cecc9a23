//! The store: checksummed segment files, a serialized writer with
//! bounded retry, and an open that trusts the segment directory's
//! listing.
//!
//! On-disk layout under the store root:
//!
//! ```text
//! <root>/segments/<key:032x>.rec      one record per key
//! <root>/segments/<key:032x>.rec.tmp  in-flight write (removed on open)
//! <root>/quarantine/<name>.<tag>.bad  records that failed validation
//! ```
//!
//! Invariants:
//!
//! * The listing of `segments/` is the only record of which keys are
//!   durable. A segment appears there only via `rename` of a fully
//!   written temp file, so readers never observe a half-written record,
//!   and a second put for a key atomically replaces the first.
//! * Opening reads no segment: it removes torn temp files, moves names
//!   that are not `<32 hex>.rec` into quarantine, and trusts the rest.
//! * Every read re-validates the record; a record that fails is moved
//!   to quarantine and reported as a miss. Corruption can cost a
//!   recompute, never a wrong answer.
//! * All writes funnel through one writer thread (serialized, bounded
//!   retry with backoff); if the filesystem is unwritable the store
//!   serves its records read-only and counts dropped writes.

// latte-lint: allow-file(F1, reason = "this module implements the temp+rename atomic writer the rule mandates; every create/write here is renamed into place or is the writability probe")

use std::collections::HashSet;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use crate::faults::StoreFaultInjector;
use crate::record;
use crate::{OpenReport, StoreConfig, StoreStats};

/// Backoff schedule for transient write errors, in milliseconds.
const RETRY_BACKOFF_MS: [u64; 3] = [1, 5, 25];

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where the kill-point harness simulates a crash inside one put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Crash with the temp file half-written.
    MidTempWrite,
    /// Crash after the temp file is complete but before the rename.
    BeforeRename,
}

/// Kill the writer at `point` while serving the `at_put`-th put
/// (1-based). After the kill the writer behaves like a dead process:
/// it drops every later put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Which crash site to simulate.
    pub point: KillPoint,
    /// 1-based ordinal of the put to crash in.
    pub at_put: u64,
}

#[derive(Debug, Default)]
struct Counters {
    reads_ok: AtomicU64,
    quarantined: AtomicU64,
    missing: AtomicU64,
    durable_writes: AtomicU64,
    dropped_writes: AtomicU64,
    write_failures: AtomicU64,
    torn_removed: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct Shared {
    /// Keys with a segment file: the open-time listing plus every
    /// completed write, minus every failed read.
    keys: Mutex<HashSet<u128>>,
    /// Keys whose corrupt segment could be neither moved nor deleted;
    /// never read again this process.
    denylist: Mutex<HashSet<u128>>,
    counters: Counters,
}

enum Cmd {
    Put { key: u128, payload: Vec<u8> },
    Flush(mpsc::Sender<()>),
    Shutdown,
}

/// The persistent result store. See the module docs for the layout and
/// invariants. Thread-safe; share it by reference.
#[derive(Debug)]
pub struct Store {
    segments: PathBuf,
    quarantine: PathBuf,
    shared: Arc<Shared>,
    /// `--inject-store`; only ever set on a writable store.
    injector: Option<StoreFaultInjector>,
    /// `None` on a read-only store.
    writer_tx: Option<mpsc::Sender<Cmd>>,
    writer_join: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Store {
    /// Opens (creating if needed) the store at `config.dir`. Never
    /// fails: a directory that cannot be created or listed gives no
    /// store, and an unwritable one serves its records read-only, each
    /// with a warning in the [`OpenReport`].
    #[must_use]
    pub fn open(config: StoreConfig) -> (Option<Store>, OpenReport) {
        let dir = config.dir.clone();
        let mut report = OpenReport::default();
        match Store::open_dir(config) {
            Ok((store, read_only)) => {
                report.disk_enabled = true;
                if read_only {
                    report.warnings.push(format!(
                        "store: {} is not writable; serving existing entries read-only, new results stay in memory",
                        dir.display()
                    ));
                }
                (Some(store), report)
            }
            Err(err) => {
                report.warnings.push(format!(
                    "store: {} unavailable ({err}); continuing in-memory only",
                    dir.display()
                ));
                (None, report)
            }
        }
    }

    /// Opens the directory tree and starts the writer; also returns
    /// whether the store is read-only.
    fn open_dir(config: StoreConfig) -> io::Result<(Store, bool)> {
        let segments = config.dir.join("segments");
        let quarantine = config.dir.join("quarantine");
        fs::create_dir_all(&segments)?;
        fs::create_dir_all(&quarantine)?;
        let read_only = !probe_writable(&config.dir);

        let counters = Counters::default();
        let keys = scan(&segments, &quarantine, read_only, &counters)?;
        let shared = Arc::new(Shared {
            keys: Mutex::new(keys),
            denylist: Mutex::new(HashSet::new()),
            counters,
        });

        let (writer_tx, writer_join) = if read_only {
            (None, None)
        } else {
            let (tx, rx) = mpsc::channel();
            let ctx = WriterCtx {
                segments: segments.clone(),
                shared: Arc::clone(&shared),
                kill: config.kill,
            };
            let join = thread::Builder::new()
                .name("latte-store-writer".into())
                .spawn(move || writer_loop(&ctx, &rx))?;
            (Some(tx), Some(join))
        };

        let store = Store {
            segments,
            quarantine,
            shared,
            injector: config
                .faults
                .filter(|_| !read_only)
                .map(StoreFaultInjector::new),
            writer_tx,
            writer_join: Mutex::new(writer_join),
        };
        Ok((store, read_only))
    }

    /// Reads and validates the record for `key`. Any validation
    /// failure quarantines the file and returns `None`: a corrupt
    /// entry is a miss, never an answer.
    pub fn get(&self, key: u128) -> Option<Vec<u8>> {
        if lock(&self.shared.denylist).contains(&key) || !lock(&self.shared.keys).contains(&key)
        {
            return None;
        }
        let path = segment_path(&self.segments, key);
        if let Some(inj) = &self.injector {
            if let Some((kind, ordinal)) = inj.roll_read() {
                inj.apply(kind, ordinal, &path);
            }
        }
        let counters = &self.shared.counters;
        let Ok(bytes) = fs::read(&path) else {
            Counters::bump(&counters.missing);
            lock(&self.shared.keys).remove(&key);
            return None;
        };
        match record::decode(&bytes, key) {
            Ok(payload) => {
                Counters::bump(&counters.reads_ok);
                Some(payload.to_vec())
            }
            Err(err) => {
                self.quarantine_segment(key, &path, err.tag());
                Counters::bump(&counters.quarantined);
                lock(&self.shared.keys).remove(&key);
                None
            }
        }
    }

    /// Queues `payload` for durable storage under `key`, replacing any
    /// record the key already has. Returns immediately; call
    /// [`Self::flush`] to wait for the write. On a read-only store the
    /// write is counted as dropped.
    pub fn put(&self, key: u128, payload: Vec<u8>) {
        let queued = self
            .writer_tx
            .as_ref()
            .is_some_and(|tx| tx.send(Cmd::Put { key, payload }).is_ok());
        if !queued {
            Counters::bump(&self.shared.counters.dropped_writes);
        }
    }

    /// Blocks until every queued write has been applied (or the writer
    /// has died).
    pub fn flush(&self) {
        if let Some(tx) = &self.writer_tx {
            let (ack_tx, ack_rx) = mpsc::channel();
            if tx.send(Cmd::Flush(ack_tx)).is_ok() {
                let _ = ack_rx.recv_timeout(Duration::from_secs(30));
            }
        }
    }

    /// Applies every queued write and joins the writer thread.
    /// Idempotent.
    pub fn shutdown(&self) {
        if let Some(tx) = &self.writer_tx {
            let _ = tx.send(Cmd::Shutdown);
        }
        if let Some(join) = lock(&self.writer_join).take() {
            let _ = join.join();
        }
    }

    /// Counter snapshot, open-time counts included.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let c = &self.shared.counters;
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        StoreStats {
            mem_hits: 0,
            disk_hits: load(&c.reads_ok),
            durable_writes: load(&c.durable_writes),
            dropped_writes: load(&c.dropped_writes),
            write_failures: load(&c.write_failures),
            quarantined: load(&c.quarantined),
            missing: load(&c.missing),
            torn_removed: load(&c.torn_removed),
            evictions: 0,
            injected_faults: self.injector.as_ref().map_or(0, StoreFaultInjector::injected),
        }
    }

    /// Moves a failed segment out of the way. Escalation ladder:
    /// rename into quarantine → delete → in-memory denylist. Each step
    /// only runs if the previous one failed, so a read-only filesystem
    /// still ends with the entry unreachable.
    fn quarantine_segment(&self, key: u128, path: &Path, tag: &str) {
        let dest = self.quarantine.join(format!("{key:032x}.{tag}.bad"));
        if fs::rename(path, &dest).is_ok() {
            return;
        }
        if fs::remove_file(path).is_ok() {
            return;
        }
        lock(&self.shared.denylist).insert(key);
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Can we create, write, and remove a file under `root`?
fn probe_writable(root: &Path) -> bool {
    let probe = root.join(format!(".probe.{}", std::process::id()));
    let ok = fs::File::create(&probe)
        .and_then(|mut f| f.write_all(b"probe"))
        .is_ok();
    let _ = fs::remove_file(&probe);
    ok
}

/// Lists `segments/` and returns every key with a segment name. On a
/// writable store it also removes torn temp files and moves every other
/// name into quarantine, so nothing can shadow a future segment. Reads
/// no segment: each one is validated when it is first read.
fn scan(
    segments: &Path,
    quarantine: &Path,
    read_only: bool,
    counters: &Counters,
) -> io::Result<HashSet<u128>> {
    let mut keys = HashSet::new();
    for entry in fs::read_dir(segments)?.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(key) = parse_segment_name(&name) {
            keys.insert(key);
        } else if read_only {
            // Leave a read-only store exactly as found.
        } else if name.ends_with(".tmp") {
            // A torn write from an earlier process: its rename never
            // happened, so no key ever referred to this file.
            if fs::remove_file(&path).is_ok() {
                Counters::bump(&counters.torn_removed);
            }
        } else if fs::rename(&path, quarantine.join(format!("{name}.foreign.bad"))).is_ok() {
            Counters::bump(&counters.quarantined);
        }
    }
    Ok(keys)
}

fn segment_path(segments: &Path, key: u128) -> PathBuf {
    segments.join(format!("{key:032x}.rec"))
}

fn temp_path(segments: &Path, key: u128) -> PathBuf {
    segments.join(format!("{key:032x}.rec.tmp"))
}

fn parse_segment_name(name: &str) -> Option<u128> {
    let stem = name.strip_suffix(".rec")?;
    if stem.len() != 32 {
        return None;
    }
    u128::from_str_radix(stem, 16).ok()
}

struct WriterCtx {
    segments: PathBuf,
    shared: Arc<Shared>,
    kill: Option<KillSpec>,
}

fn writer_loop(ctx: &WriterCtx, rx: &mpsc::Receiver<Cmd>) {
    let mut put_ordinal: u64 = 0;
    // Set by a simulated crash: a dead process loses every later write.
    let mut crashed = false;
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Put { .. } if crashed => Counters::bump(&ctx.shared.counters.dropped_writes),
            Cmd::Put { key, payload } => {
                put_ordinal += 1;
                match ctx.kill.filter(|k| k.at_put == put_ordinal) {
                    Some(kill) => {
                        simulate_crash(ctx, kill.point, key, &payload);
                        crashed = true;
                    }
                    None => write_one(ctx, key, &payload),
                }
            }
            Cmd::Flush(ack) => {
                let _ = ack.send(());
            }
            Cmd::Shutdown => break,
        }
    }
}

/// Writes one record durably: encode → temp file → rename. Transient
/// I/O errors retry on the bounded backoff schedule; after that the
/// write is abandoned and counted as a failure (the result still exists
/// in memory, so correctness is unaffected).
fn write_one(ctx: &WriterCtx, key: u128, payload: &[u8]) {
    let rec = record::encode(key, payload);
    let (tmp, dest) = (temp_path(&ctx.segments, key), segment_path(&ctx.segments, key));
    let counters = &ctx.shared.counters;
    for (attempt, backoff) in RETRY_BACKOFF_MS.iter().enumerate() {
        match try_write(&rec, &tmp, &dest) {
            Ok(()) => {
                lock(&ctx.shared.keys).insert(key);
                Counters::bump(&counters.durable_writes);
                return;
            }
            Err(_) if attempt + 1 < RETRY_BACKOFF_MS.len() => {
                thread::sleep(Duration::from_millis(*backoff));
            }
            Err(_) => break,
        }
    }
    let _ = fs::remove_file(&tmp);
    Counters::bump(&counters.write_failures);
}

fn try_write(rec: &[u8], tmp: &Path, dest: &Path) -> io::Result<()> {
    let mut file = fs::File::create(tmp)?;
    file.write_all(rec)?;
    file.sync_all()?;
    drop(file);
    fs::rename(tmp, dest)
}

/// Leaves the filesystem exactly as a crash at `point` would: a temp
/// file, half or fully written, that was never renamed into place.
fn simulate_crash(ctx: &WriterCtx, point: KillPoint, key: u128, payload: &[u8]) {
    let rec = record::encode(key, payload);
    let written = match point {
        KillPoint::MidTempWrite => &rec[..rec.len() / 2],
        KillPoint::BeforeRename => &rec[..],
    };
    if let Ok(mut file) = fs::File::create(temp_path(&ctx.segments, key)) {
        let _ = file.write_all(written);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::StoreFaultConfig;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "latte-store-disk-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open_plain(dir: &Path) -> Store {
        Store::open(StoreConfig::at(dir.to_path_buf())).0.unwrap()
    }

    fn put_and_flush(store: &Store, key: u128, payload: &[u8]) {
        store.put(key, payload.to_vec());
        store.flush();
    }

    fn segment(root: &Path, key: u128) -> PathBuf {
        segment_path(&root.join("segments"), key)
    }

    #[test]
    fn write_then_read_round_trips() {
        let root = tmp_root("roundtrip");
        let store = open_plain(&root);
        put_and_flush(&store, 7, b"payload");
        assert_eq!(store.get(7).as_deref(), Some(&b"payload"[..]));
        assert_eq!(store.stats().durable_writes, 1);
        store.shutdown();
        fs::remove_dir_all(&root).unwrap();
    }

    /// The persisted index is the segment directory itself: a reopened
    /// store serves every listed key, and nothing but segments and
    /// quarantined records lives under the root.
    #[test]
    fn reopen_trusts_persisted_index() {
        let root = tmp_root("reopen");
        {
            let store = open_plain(&root);
            put_and_flush(&store, 1, b"one");
            put_and_flush(&store, 2, b"two");
            store.shutdown();
        }
        let store = open_plain(&root);
        assert_eq!(store.get(1).as_deref(), Some(&b"one"[..]));
        assert_eq!(store.get(2).as_deref(), Some(&b"two"[..]));
        let mut names: Vec<_> = fs::read_dir(&root)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["quarantine", "segments"]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_segment_is_quarantined_on_read() {
        let root = tmp_root("quarantine");
        let store = open_plain(&root);
        put_and_flush(&store, 5, b"soon to be corrupt");
        let seg = segment(&root, 5);
        let mut bytes = fs::read(&seg).unwrap();
        let len = bytes.len();
        bytes[len - 3] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();

        assert_eq!(store.get(5), None, "corrupt entry must be a miss");
        assert_eq!(store.stats().quarantined, 1);
        assert!(!seg.exists(), "segment must be moved out of segments/");
        let quarantined: Vec<_> = fs::read_dir(root.join("quarantine"))
            .unwrap()
            .flatten()
            .collect();
        assert_eq!(quarantined.len(), 1);
        // And once quarantined it can be rewritten.
        put_and_flush(&store, 5, b"soon to be corrupt");
        assert_eq!(store.get(5).as_deref(), Some(&b"soon to be corrupt"[..]));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_tmp_files_are_removed_on_open() {
        let root = tmp_root("torn");
        fs::create_dir_all(root.join("segments")).unwrap();
        fs::write(root.join("segments/deadbeef.rec.tmp"), b"half a rec").unwrap();
        let store = open_plain(&root);
        assert_eq!(store.stats().torn_removed, 1);
        assert!(!root.join("segments/deadbeef.rec.tmp").exists());
        fs::remove_dir_all(&root).unwrap();
    }

    /// Open moves foreign names aside but reads no segment: a keyed
    /// name with garbage inside stays put until its first read.
    #[test]
    fn unindexed_garbage_is_quarantined_on_open() {
        let root = tmp_root("garbage");
        fs::create_dir_all(root.join("segments")).unwrap();
        fs::write(segment(&root, 9), b"not a record").unwrap();
        fs::write(root.join("segments/readme.txt"), b"hello").unwrap();
        let store = open_plain(&root);
        assert_eq!(store.stats().quarantined, 1);
        assert!(!root.join("segments/readme.txt").exists());
        assert!(segment(&root, 9).exists(), "open must not read segments");
        assert_eq!(store.get(9), None);
        assert_eq!(store.stats().quarantined, 2);
        assert!(!segment(&root, 9).exists());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn index_entry_without_file_is_dropped() {
        let root = tmp_root("missing");
        let store = open_plain(&root);
        put_and_flush(&store, 3, b"three");
        fs::remove_file(segment(&root, 3)).unwrap();
        assert_eq!(store.get(3), None);
        assert_eq!(store.get(3), None);
        // Only the first read looked for the file.
        assert_eq!(store.stats().missing, 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn kill_points_lose_at_most_the_in_flight_write() {
        for point in [KillPoint::MidTempWrite, KillPoint::BeforeRename] {
            let root = tmp_root(&format!("kill-{point:?}"));
            {
                let (store, _) = Store::open(StoreConfig {
                    dir: root.clone(),
                    faults: None,
                    kill: Some(KillSpec { point, at_put: 2 }),
                });
                let store = store.unwrap();
                put_and_flush(&store, 1, b"before crash");
                store.put(2, b"crashes".to_vec());
                store.put(3, b"after crash".to_vec());
                store.flush();
                assert_eq!(store.get(2), None, "{point:?}: crashed write must not be durable");
                assert_eq!(store.get(3), None, "{point:?}: post-crash write must be dropped");
                assert_eq!(store.stats().dropped_writes, 1, "{point:?}");
                store.shutdown();
            }
            let store = open_plain(&root);
            assert_eq!(
                store.get(1).as_deref(),
                Some(&b"before crash"[..]),
                "{point:?}: pre-crash durable write lost"
            );
            assert_eq!(store.get(2), None, "{point:?}: torn write must be a miss");
            assert_eq!(store.get(3), None, "{point:?}");
            assert_eq!(store.stats().torn_removed, 1, "{point:?}");
            fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn second_put_replaces_the_record() {
        let root = tmp_root("replace");
        let store = open_plain(&root);
        put_and_flush(&store, 7, b"stale");
        put_and_flush(&store, 7, b"fresh");
        assert_eq!(store.get(7).as_deref(), Some(&b"fresh"[..]));
        assert_eq!(store.stats().durable_writes, 2);
        store.shutdown();
        let store = open_plain(&root);
        assert_eq!(store.get(7).as_deref(), Some(&b"fresh"[..]));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn injected_faults_never_serve_corrupt_data() {
        let root = tmp_root("inject");
        let (store, _) = Store::open(StoreConfig {
            dir: root.clone(),
            faults: Some(StoreFaultConfig { seed: 1234, rate: 1.0 }),
            kill: None,
        });
        let store = store.unwrap();
        for key in 0..8u128 {
            put_and_flush(&store, key, format!("payload {key}").as_bytes());
        }
        // Every read is corrupted first; all must come back as misses,
        // never as wrong bytes.
        for key in 0..8u128 {
            assert_eq!(store.get(key), None, "key {key}");
        }
        let stats = store.stats();
        assert_eq!(stats.injected_faults, 8);
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(stats.quarantined + stats.missing, 8);
        fs::remove_dir_all(&root).unwrap();
    }
}
