//! The durable tier: checksummed segment files, a serialized writer
//! with bounded retry, and a recovery scan that quarantines instead of
//! failing.
//!
//! On-disk layout under the store root:
//!
//! ```text
//! <root>/segments/<key:032x>.rec      one record per key
//! <root>/segments/<key:032x>.rec.tmp  in-flight write (removed on open)
//! <root>/index.v1                     checksummed list of durable keys
//! <root>/quarantine/<name>.<tag>.bad  records that failed validation
//! ```
//!
//! Invariants:
//!
//! * A segment becomes visible only via `rename` of a fully written
//!   temp file — readers never observe a half-written record.
//! * Every read re-validates the record checksum; a record that fails
//!   is moved to quarantine and reported as a miss. Corruption can cost
//!   a recompute, never a wrong answer.
//! * Opening a store with torn temp files, a missing or corrupt index,
//!   or mangled segments always succeeds: damage is counted and
//!   quarantined, and the store carries on with what validates.
//! * All writes funnel through one writer thread (serialized, bounded
//!   retry with backoff); if the filesystem is unwritable the tier
//!   degrades to read-only and counts dropped writes.

// latte-lint: allow-file(F1, reason = "this module implements the temp+rename atomic writer the rule mandates; every create/write here is renamed into place or is the writability probe")

use std::collections::HashSet;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use crate::faults::StoreFaultInjector;
use crate::record;
use crate::StoreConfig;

/// Index file name (versioned so a future format can coexist).
const INDEX_FILE: &str = "index.v1";
/// First line of the index file.
const INDEX_HEADER: &str = "latte-store-index v1";
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
    /// Crash after the rename but before the key is indexed.
    AfterRename,
}

/// Kill the writer at `point` while serving the `at_put`-th put
/// (1-based). After the kill the writer behaves like a dead process:
/// it ignores every later command and never persists the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Which crash site to simulate.
    pub point: KillPoint,
    /// 1-based ordinal of the put to crash in.
    pub at_put: u64,
}

/// What the recovery scan found while opening the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The tier opened without write permission.
    pub read_only: bool,
    /// Leftover `.tmp` files from interrupted writes, removed.
    pub torn_removed: u64,
    /// Valid segments found outside the index and adopted into it.
    pub adopted: u64,
    /// Segments that failed validation and were quarantined.
    pub quarantined: u64,
    /// Index entries whose segment file no longer exists, dropped.
    pub missing_dropped: u64,
    /// The index file was absent or corrupt and was rebuilt by a full
    /// segment scan.
    pub index_rebuilt: bool,
}

/// Runtime counter snapshot for the `--timings` report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Reads that validated and returned a payload.
    pub reads_ok: u64,
    /// Records quarantined after failing validation on read.
    pub quarantined: u64,
    /// Indexed records whose file had vanished at read time.
    pub missing: u64,
    /// Records durably written (temp file renamed into place).
    pub durable_writes: u64,
    /// Writes dropped because the tier is read-only or the writer died.
    pub dropped_writes: u64,
    /// Writes abandoned after exhausting the retry budget.
    pub write_failures: u64,
    /// Faults injected by `--inject-store`.
    pub injected_faults: u64,
}

#[derive(Debug, Default)]
struct Counters {
    reads_ok: AtomicU64,
    quarantined: AtomicU64,
    missing: AtomicU64,
    durable_writes: AtomicU64,
    dropped_writes: AtomicU64,
    write_failures: AtomicU64,
}

#[derive(Debug)]
struct Shared {
    /// Keys with a durable, last-known-good segment file.
    index: Mutex<HashSet<u128>>,
    /// Keys whose corrupt segment could be neither moved nor deleted;
    /// never read again this process.
    denylist: Mutex<HashSet<u128>>,
    counters: Counters,
    /// The simulated-crash flag: once set, the writer is "dead".
    crashed: AtomicBool,
}

enum Cmd {
    Put { key: u128, payload: Arc<Vec<u8>> },
    Flush(mpsc::Sender<()>),
    Shutdown,
}

/// The disk-backed tier. See the module docs for the layout and
/// invariants.
#[derive(Debug)]
pub struct DiskTier {
    root: PathBuf,
    segments: PathBuf,
    quarantine: PathBuf,
    shared: Arc<Shared>,
    read_only: bool,
    injector: Option<Arc<StoreFaultInjector>>,
    writer_tx: Option<mpsc::Sender<Cmd>>,
    writer_join: Mutex<Option<thread::JoinHandle<()>>>,
}

impl DiskTier {
    /// Opens (creating if needed) the store at `config.dir`, running
    /// the recovery scan.
    ///
    /// # Errors
    ///
    /// Only if the directory tree cannot even be created or read — the
    /// caller should then degrade to the in-memory tier. Damage inside
    /// an openable store never errors; it is quarantined and counted in
    /// the [`RecoveryReport`].
    pub fn open(config: StoreConfig) -> io::Result<(DiskTier, RecoveryReport)> {
        let root = config.dir;
        let segments = root.join("segments");
        let quarantine = root.join("quarantine");
        fs::create_dir_all(&segments)?;
        fs::create_dir_all(&quarantine)?;

        let read_only = !probe_writable(&root);
        let injector = config
            .faults
            .map(|f| Arc::new(StoreFaultInjector::new(f)));

        // Open-time fault: lose the index, forcing a full rebuild.
        if let Some(inj) = injector.as_deref() {
            if !read_only && inj.roll_index_delete() {
                let _ = fs::remove_file(root.join(INDEX_FILE));
            }
        }

        let mut report = RecoveryReport {
            read_only,
            ..RecoveryReport::default()
        };
        let index = recover(&root, &segments, &quarantine, read_only, &mut report);

        let shared = Arc::new(Shared {
            index: Mutex::new(index),
            denylist: Mutex::new(HashSet::new()),
            counters: Counters::default(),
            crashed: AtomicBool::new(false),
        });

        let (writer_tx, writer_join) = if read_only {
            (None, None)
        } else {
            let (tx, rx) = mpsc::channel();
            let ctx = WriterCtx {
                root: root.clone(),
                segments: segments.clone(),
                shared: Arc::clone(&shared),
                kill: config.kill,
            };
            let join = thread::Builder::new()
                .name("latte-store-writer".into())
                .spawn(move || writer_loop(&ctx, &rx))?;
            (Some(tx), Some(join))
        };

        Ok((
            DiskTier {
                root,
                segments,
                quarantine,
                shared,
                read_only,
                injector,
                writer_tx,
                writer_join: Mutex::new(writer_join),
            },
            report,
        ))
    }

    /// `true` when the tier opened without write permission.
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// `true` when `key` has a durable segment (written and renamed
    /// into place, or adopted by the recovery scan).
    #[must_use]
    pub fn durable(&self, key: u128) -> bool {
        lock(&self.shared.index).contains(&key)
    }

    /// Number of durable keys.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.shared.index).len()
    }

    /// `true` when no keys are durable.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads and validates the record for `key`. Any validation
    /// failure quarantines the file and returns `None` — a corrupt
    /// entry is a miss, never an answer.
    pub fn get(&self, key: u128) -> Option<Vec<u8>> {
        if lock(&self.shared.denylist).contains(&key) {
            return None;
        }
        if !lock(&self.shared.index).contains(&key) {
            return None;
        }
        let path = self.segment_path(key);
        if let Some(inj) = self.injector.as_deref() {
            if !self.read_only {
                if let Some((kind, ordinal)) = inj.roll_read() {
                    inj.apply(kind, ordinal, &path);
                }
            }
        }
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                self.shared.counters.missing.fetch_add(1, Ordering::Relaxed);
                lock(&self.shared.index).remove(&key);
                return None;
            }
        };
        match record::decode(&bytes, key) {
            Ok(payload) => {
                self.shared.counters.reads_ok.fetch_add(1, Ordering::Relaxed);
                Some(payload.to_vec())
            }
            Err(err) => {
                self.quarantine_segment(key, &path, err.tag());
                self.shared
                    .counters
                    .quarantined
                    .fetch_add(1, Ordering::Relaxed);
                lock(&self.shared.index).remove(&key);
                None
            }
        }
    }

    /// Queues `payload` for durable storage under `key`. Returns
    /// immediately; durability is observable later via
    /// [`Self::durable`]. On a read-only tier the write is counted as
    /// dropped.
    pub fn put(&self, key: u128, payload: Arc<Vec<u8>>) {
        if lock(&self.shared.index).contains(&key) {
            return; // already durable; content-addressed, so identical
        }
        match &self.writer_tx {
            Some(tx) => {
                if tx.send(Cmd::Put { key, payload }).is_err() {
                    self.shared
                        .counters
                        .dropped_writes
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                self.shared
                    .counters
                    .dropped_writes
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Blocks until every queued write has been applied and the index
    /// is persisted (or the writer has died).
    pub fn flush(&self) {
        if let Some(tx) = &self.writer_tx {
            let (ack_tx, ack_rx) = mpsc::channel();
            if tx.send(Cmd::Flush(ack_tx)).is_ok() {
                let _ = ack_rx.recv_timeout(Duration::from_secs(30));
            }
        }
    }

    /// Flushes, persists the index, and joins the writer thread.
    /// Idempotent.
    pub fn shutdown(&self) {
        if let Some(tx) = &self.writer_tx {
            let _ = tx.send(Cmd::Shutdown);
        }
        if let Some(join) = lock(&self.writer_join).take() {
            let _ = join.join();
        }
    }

    /// Runtime counter snapshot.
    #[must_use]
    pub fn stats(&self) -> DiskStats {
        let c = &self.shared.counters;
        DiskStats {
            reads_ok: c.reads_ok.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            missing: c.missing.load(Ordering::Relaxed),
            durable_writes: c.durable_writes.load(Ordering::Relaxed),
            dropped_writes: c.dropped_writes.load(Ordering::Relaxed),
            write_failures: c.write_failures.load(Ordering::Relaxed),
            injected_faults: self.injector.as_deref().map_or(0, StoreFaultInjector::injected),
        }
    }

    /// The store root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn segment_path(&self, key: u128) -> PathBuf {
        self.segments.join(format!("{key:032x}.rec"))
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

impl Drop for DiskTier {
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

/// The recovery scan. Returns the set of keys the store will trust.
fn recover(
    root: &Path,
    segments: &Path,
    quarantine: &Path,
    read_only: bool,
    report: &mut RecoveryReport,
) -> HashSet<u128> {
    let indexed = match load_index(&root.join(INDEX_FILE)) {
        Some(keys) => keys,
        None => {
            report.index_rebuilt = true;
            HashSet::new()
        }
    };

    let mut trusted = HashSet::new();
    let mut seen = HashSet::new();
    let entries = match fs::read_dir(segments) {
        Ok(entries) => entries,
        Err(_) => return trusted,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".tmp") {
            // A torn write from a previous process; the rename never
            // happened, so nothing ever referenced this file.
            if !read_only && fs::remove_file(&path).is_ok() {
                report.torn_removed += 1;
            }
            continue;
        }
        let Some(key) = parse_segment_name(&name) else {
            // Not one of ours; move it aside so it cannot shadow a
            // future segment.
            if !read_only {
                let dest = quarantine.join(format!("{name}.foreign.bad"));
                let _ = fs::rename(&path, dest);
            }
            continue;
        };
        seen.insert(key);
        if indexed.contains(&key) {
            // Indexed segments are trusted now and re-validated on
            // every read.
            trusted.insert(key);
            continue;
        }
        // Unindexed segment (crash after rename, or lost index):
        // adopt only what fully validates.
        let valid = fs::read(&path)
            .ok()
            .and_then(|bytes| record::decode(&bytes, key).map(<[u8]>::to_vec).ok());
        match valid {
            Some(_) => {
                trusted.insert(key);
                report.adopted += 1;
            }
            None => {
                let tag = match fs::read(&path) {
                    Ok(bytes) => match record::decode(&bytes, key) {
                        Err(err) => err.tag(),
                        Ok(_) => "race",
                    },
                    Err(_) => "unreadable",
                };
                if !read_only {
                    let dest = quarantine.join(format!("{key:032x}.{tag}.bad"));
                    if fs::rename(&path, dest).is_err() {
                        let _ = fs::remove_file(&path);
                    }
                }
                report.quarantined += 1;
            }
        }
    }
    report.missing_dropped = indexed.iter().filter(|k| !seen.contains(k)).count() as u64;
    trusted
}

fn parse_segment_name(name: &str) -> Option<u128> {
    let stem = name.strip_suffix(".rec")?;
    if stem.len() != 32 {
        return None;
    }
    u128::from_str_radix(stem, 16).ok()
}

/// Loads the index file; `None` if absent or failing any validation
/// (the caller then rebuilds by scanning segments).
fn load_index(path: &Path) -> Option<HashSet<u128>> {
    let text = fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    if lines.next()? != INDEX_HEADER {
        return None;
    }
    let mut keys = HashSet::new();
    let mut body = String::new();
    body.push_str(INDEX_HEADER);
    body.push('\n');
    for line in lines {
        if let Some(sum_hex) = line.strip_prefix("sum ") {
            let stored = u64::from_str_radix(sum_hex, 16).ok()?;
            if record::checksum(body.as_bytes()) != stored {
                return None;
            }
            return Some(keys);
        }
        if line.len() != 32 {
            return None;
        }
        keys.insert(u128::from_str_radix(line, 16).ok()?);
        body.push_str(line);
        body.push('\n');
    }
    None // no trailing checksum line: torn index write
}

/// Serializes the index with a trailing checksum; written temp+rename.
fn persist_index(root: &Path, keys: &HashSet<u128>) -> io::Result<()> {
    let mut sorted: Vec<&u128> = keys.iter().collect();
    sorted.sort_unstable();
    let mut body = String::with_capacity(sorted.len() * 33 + 64);
    body.push_str(INDEX_HEADER);
    body.push('\n');
    for key in sorted {
        body.push_str(&format!("{key:032x}\n"));
    }
    let sum = record::checksum(body.as_bytes());
    body.push_str(&format!("sum {sum:016x}\n"));
    let tmp = root.join(format!("{INDEX_FILE}.tmp"));
    fs::write(&tmp, body)?;
    fs::rename(&tmp, root.join(INDEX_FILE))
}

struct WriterCtx {
    root: PathBuf,
    segments: PathBuf,
    shared: Arc<Shared>,
    kill: Option<KillSpec>,
}

fn writer_loop(ctx: &WriterCtx, rx: &mpsc::Receiver<Cmd>) {
    let mut put_ordinal: u64 = 0;
    while let Ok(cmd) = rx.recv() {
        let crashed = ctx.shared.crashed.load(Ordering::Relaxed);
        match cmd {
            Cmd::Put { key, payload } => {
                if crashed {
                    // A crashed writer is a dead process: the write is
                    // simply lost.
                    ctx.shared
                        .counters
                        .dropped_writes
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                put_ordinal += 1;
                let kill_now = ctx
                    .kill
                    .filter(|k| k.at_put == put_ordinal)
                    .map(|k| k.point);
                write_one(ctx, key, &payload, kill_now);
            }
            Cmd::Flush(ack) => {
                if !crashed {
                    let _ = persist_index(&ctx.root, &lock(&ctx.shared.index));
                }
                let _ = ack.send(());
            }
            Cmd::Shutdown => {
                if !crashed {
                    let _ = persist_index(&ctx.root, &lock(&ctx.shared.index));
                }
                break;
            }
        }
    }
}

/// Writes one record durably: encode → temp file → rename → index.
/// Transient I/O errors retry on the bounded backoff schedule; after
/// that the write is abandoned and counted as a failure (the result
/// still exists in memory, so correctness is unaffected).
fn write_one(ctx: &WriterCtx, key: u128, payload: &[u8], kill_now: Option<KillPoint>) {
    let rec = record::encode(key, payload);
    let tmp = ctx.segments.join(format!("{key:032x}.rec.tmp"));
    let dest = ctx.segments.join(format!("{key:032x}.rec"));

    if let Some(point) = kill_now {
        simulate_crash(ctx, point, &rec, &tmp, &dest);
        return;
    }

    for (attempt, backoff) in RETRY_BACKOFF_MS.iter().enumerate() {
        match try_write(&rec, &tmp, &dest) {
            Ok(()) => {
                lock(&ctx.shared.index).insert(key);
                ctx.shared
                    .counters
                    .durable_writes
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(_) if attempt + 1 < RETRY_BACKOFF_MS.len() => {
                thread::sleep(Duration::from_millis(*backoff));
            }
            Err(_) => break,
        }
    }
    let _ = fs::remove_file(&tmp);
    ctx.shared
        .counters
        .write_failures
        .fetch_add(1, Ordering::Relaxed);
}

fn try_write(rec: &[u8], tmp: &Path, dest: &Path) -> io::Result<()> {
    let mut file = fs::File::create(tmp)?;
    file.write_all(rec)?;
    file.sync_all()?;
    drop(file);
    fs::rename(tmp, dest)
}

/// Leaves the filesystem exactly as a crash at `point` would, then
/// marks the writer dead.
fn simulate_crash(ctx: &WriterCtx, point: KillPoint, rec: &[u8], tmp: &Path, dest: &Path) {
    match point {
        KillPoint::MidTempWrite => {
            if let Ok(mut file) = fs::File::create(tmp) {
                let _ = file.write_all(&rec[..rec.len() / 2]);
            }
        }
        KillPoint::BeforeRename => {
            if let Ok(mut file) = fs::File::create(tmp) {
                let _ = file.write_all(rec);
            }
        }
        KillPoint::AfterRename => {
            if let Ok(mut file) = fs::File::create(tmp) {
                let _ = file.write_all(rec);
                let _ = fs::rename(tmp, dest);
            }
            // ...but the key is never indexed and the index is never
            // persisted again: recovery must adopt the orphan segment.
        }
    }
    ctx.shared.crashed.store(true, Ordering::Relaxed);
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

    fn open_plain(dir: &Path) -> (DiskTier, RecoveryReport) {
        DiskTier::open(StoreConfig::at(dir.to_path_buf())).unwrap()
    }

    fn put_and_flush(tier: &DiskTier, key: u128, payload: &[u8]) {
        tier.put(key, Arc::new(payload.to_vec()));
        tier.flush();
    }

    #[test]
    fn write_then_read_round_trips() {
        let root = tmp_root("roundtrip");
        let (tier, report) = open_plain(&root);
        assert_eq!(report, RecoveryReport { index_rebuilt: true, ..Default::default() });
        put_and_flush(&tier, 7, b"payload");
        assert!(tier.durable(7));
        assert_eq!(tier.get(7).as_deref(), Some(&b"payload"[..]));
        assert_eq!(tier.stats().durable_writes, 1);
        tier.shutdown();
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_trusts_persisted_index() {
        let root = tmp_root("reopen");
        {
            let (tier, _) = open_plain(&root);
            put_and_flush(&tier, 1, b"one");
            put_and_flush(&tier, 2, b"two");
            tier.shutdown();
        }
        let (tier, report) = open_plain(&root);
        assert!(!report.index_rebuilt);
        assert_eq!(report.adopted, 0);
        assert_eq!(tier.len(), 2);
        assert_eq!(tier.get(1).as_deref(), Some(&b"one"[..]));
        assert_eq!(tier.get(2).as_deref(), Some(&b"two"[..]));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_index_rebuilds_by_validation() {
        let root = tmp_root("rebuild");
        {
            let (tier, _) = open_plain(&root);
            put_and_flush(&tier, 1, b"one");
            tier.shutdown();
        }
        fs::remove_file(root.join(INDEX_FILE)).unwrap();
        let (tier, report) = open_plain(&root);
        assert!(report.index_rebuilt);
        assert_eq!(report.adopted, 1);
        assert_eq!(tier.get(1).as_deref(), Some(&b"one"[..]));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_segment_is_quarantined_on_read() {
        let root = tmp_root("quarantine");
        let (tier, _) = open_plain(&root);
        put_and_flush(&tier, 5, b"soon to be corrupt");
        let seg = root.join("segments").join(format!("{:032x}.rec", 5u128));
        let mut bytes = fs::read(&seg).unwrap();
        let len = bytes.len();
        bytes[len - 3] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();

        assert_eq!(tier.get(5), None, "corrupt entry must be a miss");
        assert_eq!(tier.stats().quarantined, 1);
        assert!(!tier.durable(5));
        assert!(!seg.exists(), "segment must be moved out of segments/");
        let quarantined: Vec<_> = fs::read_dir(root.join("quarantine"))
            .unwrap()
            .flatten()
            .collect();
        assert_eq!(quarantined.len(), 1);
        // And once quarantined it can be rewritten.
        put_and_flush(&tier, 5, b"soon to be corrupt");
        assert_eq!(tier.get(5).as_deref(), Some(&b"soon to be corrupt"[..]));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_tmp_files_are_removed_on_open() {
        let root = tmp_root("torn");
        fs::create_dir_all(root.join("segments")).unwrap();
        fs::write(root.join("segments/deadbeef.rec.tmp"), b"half a rec").unwrap();
        let (_tier, report) = open_plain(&root);
        assert_eq!(report.torn_removed, 1);
        assert!(!root.join("segments/deadbeef.rec.tmp").exists());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unindexed_garbage_is_quarantined_on_open() {
        let root = tmp_root("garbage");
        fs::create_dir_all(root.join("segments")).unwrap();
        // A keyed name with invalid contents.
        fs::write(
            root.join("segments").join(format!("{:032x}.rec", 9u128)),
            b"not a record",
        )
        .unwrap();
        // A foreign file.
        fs::write(root.join("segments/readme.txt"), b"hello").unwrap();
        let (tier, report) = open_plain(&root);
        assert_eq!(report.quarantined, 1);
        assert!(tier.is_empty());
        assert_eq!(tier.get(9), None);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn index_entry_without_file_is_dropped() {
        let root = tmp_root("missing");
        {
            let (tier, _) = open_plain(&root);
            put_and_flush(&tier, 3, b"three");
            tier.shutdown();
        }
        fs::remove_file(root.join("segments").join(format!("{:032x}.rec", 3u128))).unwrap();
        let (tier, report) = open_plain(&root);
        assert_eq!(report.missing_dropped, 1);
        assert!(!tier.durable(3));
        assert_eq!(tier.get(3), None);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn kill_points_lose_at_most_the_in_flight_write() {
        for (point, survives_on_disk) in [
            (KillPoint::MidTempWrite, false),
            (KillPoint::BeforeRename, false),
            (KillPoint::AfterRename, true),
        ] {
            let root = tmp_root(&format!("kill-{point:?}"));
            {
                let (tier, _) = DiskTier::open(StoreConfig {
                    dir: root.clone(),
                    faults: None,
                    kill: Some(KillSpec { point, at_put: 2 }),
                })
                .unwrap();
                put_and_flush(&tier, 1, b"before crash");
                tier.put(2, Arc::new(b"crashes".to_vec()));
                tier.put(3, Arc::new(b"after crash".to_vec()));
                tier.flush();
                assert!(!tier.durable(2), "{point:?}: crashed write must not be durable");
                assert!(!tier.durable(3), "{point:?}: post-crash write must be dropped");
                tier.shutdown();
            }
            let (tier, report) = open_plain(&root);
            // Key 1 was written and the index was persisted by the
            // pre-crash flush; it must always survive.
            assert_eq!(
                tier.get(1).as_deref(),
                Some(&b"before crash"[..]),
                "{point:?}: pre-crash durable write lost"
            );
            if survives_on_disk {
                // AfterRename: the segment landed; recovery adopts it.
                assert_eq!(report.adopted, 1, "{point:?}");
                assert_eq!(tier.get(2).as_deref(), Some(&b"crashes"[..]));
            } else {
                assert_eq!(tier.get(2), None, "{point:?}: torn write must be a miss");
                assert_eq!(report.adopted, 0, "{point:?}");
            }
            assert_eq!(tier.get(3), None, "{point:?}");
            // No stale tmp files remain after recovery.
            let tmps: Vec<_> = fs::read_dir(root.join("segments"))
                .unwrap()
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
                .collect();
            assert!(tmps.is_empty(), "{point:?}: {tmps:?}");
            fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn duplicate_put_is_skipped() {
        let root = tmp_root("dup");
        let (tier, _) = open_plain(&root);
        put_and_flush(&tier, 4, b"four");
        put_and_flush(&tier, 4, b"four");
        assert_eq!(tier.stats().durable_writes, 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn injected_faults_never_serve_corrupt_data() {
        let root = tmp_root("inject");
        let (tier, _) = DiskTier::open(StoreConfig {
            dir: root.clone(),
            faults: Some(StoreFaultConfig { seed: 1234, rate: 1.0 }),
            kill: None,
        })
        .unwrap();
        for key in 0..8u128 {
            put_and_flush(&tier, key, format!("payload {key}").as_bytes());
        }
        // Every read is corrupted first; all must come back as misses,
        // never as wrong bytes.
        for key in 0..8u128 {
            assert_eq!(tier.get(key), None, "key {key}");
        }
        let stats = tier.stats();
        assert_eq!(stats.injected_faults, 8);
        assert_eq!(stats.reads_ok, 0);
        assert_eq!(stats.quarantined + stats.missing, 8);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_index_file_forces_rebuild() {
        let root = tmp_root("torn-index");
        {
            let (tier, _) = open_plain(&root);
            put_and_flush(&tier, 6, b"six");
            tier.shutdown();
        }
        // Chop the checksum line off the index.
        let index = root.join(INDEX_FILE);
        let text = fs::read_to_string(&index).unwrap();
        let cut = text.rfind("sum ").unwrap();
        fs::write(&index, &text[..cut]).unwrap();
        let (tier, report) = open_plain(&root);
        assert!(report.index_rebuilt);
        assert_eq!(tier.get(6).as_deref(), Some(&b"six"[..]));
        fs::remove_dir_all(&root).unwrap();
    }
}
