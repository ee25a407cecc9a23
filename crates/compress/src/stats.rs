//! Cumulative compressor-operation accounting for the driver's
//! `--timings` report: how much work went into size probes vs full
//! encodes vs decodes, across the whole process.
//!
//! The sim crates must stay wall-clock-free (lint rule D1), so this
//! module never reads a clock itself. Operation *counts* are always
//! accumulated (an atomic add per operation); operation *time* is only
//! accumulated after the driver injects a monotonic nanosecond clock via
//! [`install_clock`] — the bench binary, the workspace's single
//! wall-clock authority, installs one when `--timings` is requested.
//! Nothing here ever feeds back into simulation results.
// latte-lint: shared-boundary-file(reason = "process-wide monotonic op/time counters: commutative atomic adds, read only by the driver's --timings report; no simulated state observes them")

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The injected clock: monotonic nanoseconds since an arbitrary baseline.
static CLOCK: OnceLock<fn() -> u64> = OnceLock::new();

static PROBE_OPS: AtomicU64 = AtomicU64::new(0);
static PROBE_NS: AtomicU64 = AtomicU64::new(0);
static ENCODE_OPS: AtomicU64 = AtomicU64::new(0);
static ENCODE_NS: AtomicU64 = AtomicU64::new(0);
static DECODE_OPS: AtomicU64 = AtomicU64::new(0);
static DECODE_NS: AtomicU64 = AtomicU64::new(0);

/// Injects the process-wide monotonic clock used to time compressor
/// operations. Until a clock is installed only operation counts are
/// tracked. The first installation wins; later calls are ignored.
pub fn install_clock(clock: fn() -> u64) {
    let _ = CLOCK.set(clock);
}

/// A started measurement: the clock reading at operation start, if a
/// clock is installed.
#[derive(Debug, Clone, Copy)]
pub struct Started(Option<u64>);

/// Begins timing one compressor operation.
#[must_use]
pub fn start() -> Started {
    Started(CLOCK.get().map(|clock| clock()))
}

fn finish(t: Started, ops: &AtomicU64, ns: &AtomicU64) {
    ops.fetch_add(1, Ordering::Relaxed);
    if let (Started(Some(t0)), Some(clock)) = (t, CLOCK.get()) {
        ns.fetch_add(clock().saturating_sub(t0), Ordering::Relaxed);
    }
}

/// Records one completed size probe (no payload emission).
pub fn record_probe(t: Started) {
    finish(t, &PROBE_OPS, &PROBE_NS);
}

/// Records one completed full encode (payload bits materialised).
pub fn record_encode(t: Started) {
    finish(t, &ENCODE_OPS, &ENCODE_NS);
}

/// Records one completed decode.
pub fn record_decode(t: Started) {
    finish(t, &DECODE_OPS, &DECODE_NS);
}

/// A point-in-time copy of the process-wide compressor counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Size-only probes completed.
    pub probe_ops: u64,
    /// Nanoseconds spent probing (0 until a clock is installed).
    pub probe_ns: u64,
    /// Full encodes completed.
    pub encode_ops: u64,
    /// Nanoseconds spent fully encoding.
    pub encode_ns: u64,
    /// Decodes completed.
    pub decode_ops: u64,
    /// Nanoseconds spent decoding.
    pub decode_ns: u64,
}

impl Snapshot {
    /// Total operations across all three categories.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.probe_ops + self.encode_ops + self.decode_ops
    }
}

/// Reads the current counters.
#[must_use]
pub fn snapshot() -> Snapshot {
    Snapshot {
        probe_ops: PROBE_OPS.load(Ordering::Relaxed),
        probe_ns: PROBE_NS.load(Ordering::Relaxed),
        encode_ops: ENCODE_OPS.load(Ordering::Relaxed),
        encode_ns: ENCODE_NS.load(Ordering::Relaxed),
        decode_ops: DECODE_OPS.load(Ordering::Relaxed),
        decode_ns: DECODE_NS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_without_a_clock() {
        let before = snapshot();
        record_probe(start());
        record_encode(start());
        record_decode(start());
        let after = snapshot();
        assert!(after.probe_ops > before.probe_ops);
        assert!(after.encode_ops > before.encode_ops);
        assert!(after.decode_ops > before.decode_ops);
        assert!(after.total_ops() >= before.total_ops() + 3);
    }
}
