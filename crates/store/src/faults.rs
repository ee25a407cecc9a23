//! Store-level fault injection: deterministic, seeded corruption of
//! segment files, used to prove the recovery path end to end.
//!
//! The injector sits between the key lookup and the segment read: on
//! each read of a listed key it rolls a seeded splitmix64 stream and,
//! at the configured rate, mutilates the segment file *before* the
//! store reads it — truncation, a single bit flip, a stale schema
//! stamp, or outright deletion, cycled deterministically.
//!
//! Faults only ever touch files the store owns, and only when the store
//! is writable (corrupting a read-only store would mutate state the
//! user asked us not to touch). Everything is a pure function of
//! `(seed, operation ordinal)`, so a failing run replays exactly.

// latte-lint: allow-file(F1, reason = "the corruptor deliberately mutilates segment files in place; simulating non-atomic damage is its entire purpose")

use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration for the `--inject-store` fault family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreFaultConfig {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Probability in `[0, 1]` that any given disk read is corrupted.
    pub rate: f64,
}

/// Which mutilation a fault roll selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFaultKind {
    /// Truncate the segment at a seeded offset.
    Truncate,
    /// Flip one seeded bit.
    BitFlip,
    /// Overwrite the schema field with a bogus version.
    StaleSchema,
    /// Delete the segment file entirely.
    Delete,
}

const KINDS: [StoreFaultKind; 4] = [
    StoreFaultKind::Truncate,
    StoreFaultKind::BitFlip,
    StoreFaultKind::StaleSchema,
    StoreFaultKind::Delete,
];

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded corruptor. One instance per store; thread-safe because
/// reads can race under the parallel driver (the ordinal counter is the
/// only mutable state).
#[derive(Debug)]
pub struct StoreFaultInjector {
    config: StoreFaultConfig,
    /// Operation ordinal — each read consumes one slot in the stream.
    ordinal: AtomicU64,
    /// Faults actually injected.
    injected: AtomicU64,
}

impl StoreFaultInjector {
    /// A new injector for `config`.
    #[must_use]
    pub fn new(config: StoreFaultConfig) -> StoreFaultInjector {
        StoreFaultInjector {
            config,
            ordinal: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Number of faults injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Draws the raw stream value for slot `n`, domain-separated by
    /// `salt`.
    fn draw(&self, n: u64, salt: u64) -> u64 {
        splitmix(self.config.seed ^ splitmix(n.wrapping_mul(2).wrapping_add(salt)))
    }

    /// Rolls the next per-read fault. Returns the selected kind when
    /// the roll fires; callers then apply it via [`Self::apply`].
    #[must_use]
    pub fn roll_read(&self) -> Option<(StoreFaultKind, u64)> {
        let n = self.ordinal.fetch_add(1, Ordering::Relaxed);
        let v = self.draw(n, 0x5eed);
        if (v as f64 / u64::MAX as f64) < self.config.rate {
            Some((KINDS[(n % KINDS.len() as u64) as usize], n))
        } else {
            None
        }
    }

    /// Applies `kind` to the segment at `path`. Best-effort: an I/O
    /// error while corrupting (file already gone, etc.) is itself an
    /// acceptable fault outcome, so errors are swallowed. Returns
    /// whether anything was actually mutated.
    pub fn apply(&self, kind: StoreFaultKind, ordinal: u64, path: &Path) -> bool {
        let done = match kind {
            StoreFaultKind::Delete => fs::remove_file(path).is_ok(),
            StoreFaultKind::Truncate => self.truncate(ordinal, path),
            StoreFaultKind::BitFlip => self.flip_bit(ordinal, path),
            StoreFaultKind::StaleSchema => stamp_stale_schema(path),
        };
        if done {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        done
    }

    fn truncate(&self, ordinal: u64, path: &Path) -> bool {
        let Ok(meta) = fs::metadata(path) else {
            return false;
        };
        let len = meta.len();
        if len == 0 {
            return false;
        }
        let cut = self.draw(ordinal, 0x7c07) % len;
        let Ok(file) = fs::OpenOptions::new().write(true).open(path) else {
            return false;
        };
        file.set_len(cut).is_ok()
    }

    fn flip_bit(&self, ordinal: u64, path: &Path) -> bool {
        let Ok(mut bytes) = fs::read(path) else {
            return false;
        };
        if bytes.is_empty() {
            return false;
        }
        let bit = self.draw(ordinal, 0xf11b) % (bytes.len() as u64 * 8);
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        overwrite_in_place(path, &bytes)
    }
}

/// Stamps a bogus schema version over bytes [8, 12) of the record
/// header, simulating a record left behind by a different store
/// generation.
fn stamp_stale_schema(path: &Path) -> bool {
    let Ok(mut file) = fs::OpenOptions::new().write(true).open(path) else {
        return false;
    };
    if file.seek(SeekFrom::Start(8)).is_err() {
        return false;
    }
    file.write_all(&u32::MAX.to_le_bytes()).is_ok()
}

/// Overwrites `path` with `bytes` *without* temp+rename — deliberately:
/// the corruptor simulates in-place damage (bit rot, partial
/// overwrites), which is exactly the failure mode atomic writes exist
/// to prevent.
fn overwrite_in_place(path: &Path, bytes: &[u8]) -> bool {
    fs::write(path, bytes).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(rate: f64) -> StoreFaultInjector {
        StoreFaultInjector::new(StoreFaultConfig { seed: 42, rate })
    }

    #[test]
    fn zero_rate_never_fires() {
        let inj = injector(0.0);
        for _ in 0..1000 {
            assert!(inj.roll_read().is_none());
        }
    }

    #[test]
    fn full_rate_always_fires_and_cycles_kinds() {
        let inj = injector(1.0);
        let kinds: Vec<_> = (0..8).filter_map(|_| inj.roll_read()).collect();
        assert_eq!(kinds.len(), 8);
        assert_eq!(kinds[0].0, kinds[4].0);
        assert_eq!(kinds[1].0, kinds[5].0);
        // All four kinds appear in one cycle.
        let first_four: Vec<_> = kinds[..4].iter().map(|k| k.0).collect();
        for kind in KINDS {
            assert!(first_four.contains(&kind), "{kind:?} missing from cycle");
        }
    }

    #[test]
    fn stream_is_deterministic_across_instances() {
        let a = injector(0.3);
        let b = injector(0.3);
        for _ in 0..100 {
            assert_eq!(a.roll_read(), b.roll_read());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = StoreFaultInjector::new(StoreFaultConfig { seed: 1, rate: 0.5 });
        let b = StoreFaultInjector::new(StoreFaultConfig { seed: 2, rate: 0.5 });
        let rolls_a: Vec<_> = (0..64).map(|_| a.roll_read().is_some()).collect();
        let rolls_b: Vec<_> = (0..64).map(|_| b.roll_read().is_some()).collect();
        assert_ne!(rolls_a, rolls_b);
    }

    #[test]
    fn apply_mutilates_files() {
        let dir = std::env::temp_dir().join(format!("latte-store-faults-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let inj = injector(1.0);

        let rec = crate::record::encode(9, b"victim payload bytes");

        let p = dir.join("del.rec");
        fs::write(&p, &rec).unwrap();
        assert!(inj.apply(StoreFaultKind::Delete, 0, &p));
        assert!(!p.exists());

        let p = dir.join("trunc.rec");
        fs::write(&p, &rec).unwrap();
        assert!(inj.apply(StoreFaultKind::Truncate, 1, &p));
        assert!(fs::metadata(&p).unwrap().len() < rec.len() as u64);

        let p = dir.join("flip.rec");
        fs::write(&p, &rec).unwrap();
        assert!(inj.apply(StoreFaultKind::BitFlip, 2, &p));
        let mutated = fs::read(&p).unwrap();
        assert_eq!(mutated.len(), rec.len());
        assert_ne!(mutated, rec);

        let p = dir.join("schema.rec");
        fs::write(&p, &rec).unwrap();
        assert!(inj.apply(StoreFaultKind::StaleSchema, 3, &p));
        assert!(matches!(
            crate::record::decode(&fs::read(&p).unwrap(), 9),
            Err(crate::record::RecordError::StaleSchema { .. })
        ));

        assert_eq!(inj.injected(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }
}
