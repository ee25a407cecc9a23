//! Property tests for store recovery: under *arbitrary* injected
//! corruption — truncation at any offset, any flipped byte, deleted
//! segments, stray temp files — reopening the store always
//! succeeds, and every subsequent read returns either the exact
//! original bytes or a miss. Corruption may cost a recompute; it may
//! never produce a wrong answer.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use latte_store::{Store, StoreConfig, StoreFaultConfig};
use proptest::prelude::*;

static DIR_SERIAL: AtomicU64 = AtomicU64::new(0);

fn fresh_root(tag: &str) -> PathBuf {
    let serial = DIR_SERIAL.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "latte-store-recovery-{tag}-{}-{serial}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn payload_for(key: u128) -> Vec<u8> {
    format!("result bytes for key {key:#034x} ")
        .repeat((key as usize % 5) + 1)
        .into_bytes()
}

/// Builds a store with `keys` populated and durably flushed.
fn populate(root: &Path, keys: u128) {
    let store = open(root);
    for key in 0..keys {
        store.put(key, payload_for(key));
    }
    store.flush();
    for key in 0..keys {
        assert_eq!(
            store.get(key),
            Some(payload_for(key)),
            "key {key} not durable after flush"
        );
    }
    store.shutdown();
}

/// Opens the store at `root`; damage must never disable it.
fn open(root: &Path) -> Store {
    let (store, report) = Store::open(StoreConfig::at(root.to_path_buf()));
    assert!(report.disk_enabled, "damage must never disable the store");
    store.expect("an enabled store")
}

fn segment_path(root: &Path, key: u128) -> PathBuf {
    root.join("segments").join(format!("{key:032x}.rec"))
}

/// One corruption to apply between runs. Positions are raw draws,
/// reduced modulo the file length at apply time so any offset is
/// reachable for any file size.
#[derive(Debug, Clone)]
enum Damage {
    Truncate { key: u128, pos: u64 },
    FlipByte { key: u128, pos: u64, mask: u8 },
    DeleteSegment { key: u128 },
    StrayTmp { name_salt: u64 },
}

fn damage_strategy(keys: u128) -> impl Strategy<Value = Damage> {
    let keys = keys as u64;
    prop_oneof![
        3 => (0..keys, 0u64..1 << 20).prop_map(|(k, pos)| Damage::Truncate { key: k as u128, pos }),
        3 => (0..keys, 0u64..1 << 20, 1u8..=255).prop_map(|(k, pos, mask)| Damage::FlipByte {
            key: k as u128,
            pos,
            mask,
        }),
        1 => (0..keys).prop_map(|k| Damage::DeleteSegment { key: k as u128 }),
        1 => (0u64..1 << 16).prop_map(|name_salt| Damage::StrayTmp { name_salt }),
    ]
}

fn apply(root: &Path, damage: &Damage) {
    match damage {
        Damage::Truncate { key, pos } => {
            let path = segment_path(root, *key);
            if let Ok(meta) = fs::metadata(&path) {
                if meta.len() > 0 {
                    if let Ok(f) = fs::OpenOptions::new().write(true).open(&path) {
                        let _ = f.set_len(pos % meta.len());
                    }
                }
            }
        }
        Damage::FlipByte { key, pos, mask } => {
            let path = segment_path(root, *key);
            if let Ok(mut bytes) = fs::read(&path) {
                if !bytes.is_empty() {
                    let i = (*pos as usize) % bytes.len();
                    bytes[i] ^= mask;
                    let _ = fs::write(&path, bytes);
                }
            }
        }
        Damage::DeleteSegment { key } => {
            let _ = fs::remove_file(segment_path(root, *key));
        }
        Damage::StrayTmp { name_salt } => {
            let _ = fs::write(
                root.join("segments")
                    .join(format!("{name_salt:032x}.rec.tmp")),
                b"interrupted write",
            );
        }
    }
}

/// The core oracle: after any damage, a reopened store must serve
/// every key either exactly right or not at all, and a rewrite of the
/// lost keys must fully restore the store.
fn check_recovery(root: &Path, keys: u128, damages: &[Damage]) {
    for damage in damages {
        apply(root, damage);
    }

    let store = open(root);
    let mut lost = Vec::new();
    for key in 0..keys {
        match store.get(key) {
            Some(bytes) => {
                assert_eq!(
                    bytes.as_slice(),
                    payload_for(key).as_slice(),
                    "key {key}: store served wrong bytes after {damages:?}"
                );
            }
            None => lost.push(key),
        }
    }
    // Compute-through: every lost key is rewritable, and the store is
    // whole again afterwards.
    for &key in &lost {
        store.put(key, payload_for(key));
    }
    store.flush();
    for key in 0..keys {
        let bytes = store
            .get(key)
            .unwrap_or_else(|| panic!("key {key} still missing after rewrite"));
        assert_eq!(bytes.as_slice(), payload_for(key).as_slice());
    }
    store.shutdown();

    // A second reopen must also be clean (recovery is idempotent).
    let store = open(root);
    for key in 0..keys {
        let bytes = store
            .get(key)
            .unwrap_or_else(|| panic!("key {key} missing after second reopen"));
        assert_eq!(bytes.as_slice(), payload_for(key).as_slice());
    }
    store.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_corruption_recovers_to_correct_or_miss(
        damages in prop::collection::vec(damage_strategy(6), 0..10)
    ) {
        let root = fresh_root("prop");
        populate(&root, 6);
        check_recovery(&root, 6, &damages);
        let _ = fs::remove_dir_all(&root);
    }
}

#[test]
fn every_truncation_offset_of_one_segment_recovers() {
    let root = fresh_root("trunc-sweep");
    populate(&root, 1);
    let len = fs::metadata(segment_path(&root, 0))
        .map(|m| m.len())
        .unwrap_or(0);
    assert!(len > 0);
    // Sweep a spread of truncation points including both edges.
    let mut cuts: Vec<u64> = (0..len).step_by((len as usize / 16).max(1)).collect();
    cuts.push(len - 1);
    for cut in cuts {
        populate(&root, 1); // restore
        apply(&root, &Damage::Truncate { key: 0, pos: cut });
        let store = open(&root);
        if let Some(bytes) = store.get(0) {
            assert_eq!(bytes.as_slice(), payload_for(0).as_slice());
        }
        store.shutdown();
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn seeded_injector_full_sweep_never_serves_wrong_bytes() {
    for seed in [1u64, 42, 0xdead_beef] {
        let root = fresh_root(&format!("inject-{seed}"));
        populate(&root, 12);
        let mut config = StoreConfig::at(root.clone());
        config.faults = Some(StoreFaultConfig { seed, rate: 0.5 });
        let store = Store::open(config).0.expect("an enabled store");
        let mut misses = 0u64;
        for key in 0..12u128 {
            match store.get(key) {
                Some(bytes) => {
                    assert_eq!(
                        bytes.as_slice(),
                        payload_for(key).as_slice(),
                        "seed {seed} key {key}"
                    );
                }
                None => misses += 1,
            }
        }
        let stats = store.stats();
        assert_eq!(
            stats.injected_faults > 0,
            misses > 0 || stats.quarantined > 0 || stats.missing > 0,
            "seed {seed}: faults and misses must correlate ({stats:?})"
        );
        store.shutdown();
        let _ = fs::remove_dir_all(&root);
    }
}
