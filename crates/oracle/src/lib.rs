//! Timing-free functional reference model for differential verification.
//!
//! The cycle-level simulator in `latte-gpusim` models *when* things happen
//! — compressed placement, decompression queues, MSHR merging, latency
//! spikes. This crate models only *what* the memory hierarchy must return:
//! a plain map of [`LineAddr`] → [`CacheLine`] with no compression, no
//! latency and no capacity limit. Hooked into a [`Gpu`](latte_gpusim::Gpu)
//! via [`latte_gpusim::ShadowCheck`], the oracle shadows every fill and
//! compares every load's observed bytes against the reference, and records
//! the structural-invariant failures the SMs report at checkpoints
//! (EP boundaries, mode switches, kernel end).
//!
//! The oracle is deliberately simple: simple enough to be obviously
//! correct, so any divergence indicts the timing model, the compressors or
//! the placement logic — not the reference.
//!
//! # Example
//!
//! ```
//! use latte_gpusim::{Gpu, GpuConfig, ShadowConfig, UncompressedPolicy};
//! use latte_gpusim::testing::StridedKernel;
//! use latte_oracle::MemoryOracle;
//!
//! let mut gpu = Gpu::new(&GpuConfig::small(), |_| Box::new(UncompressedPolicy));
//! let (oracle, handle) = MemoryOracle::new();
//! gpu.set_shadow_check(Box::new(oracle), ShadowConfig::default());
//! gpu.run_kernel(&StridedKernel::new(4, 64, 16));
//! let report = handle.report();
//! assert!(report.loads_checked > 0);
//! assert!(report.is_clean(), "unexpected violations: {:?}", report.violations);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use latte_cache::{LineAddr, LineMap, LineSet};
use latte_compress::{CacheLine, Cycles};
use latte_gpusim::{ShadowCheck, ShadowCheckpoint, ShadowViolation, ShadowViolationKind};
use std::sync::{Arc, Mutex, PoisonError};

/// Cap on violations kept verbatim in the report; past this, only the
/// total count grows. A corrupted run can diverge on every load, and the
/// first few violations carry all the diagnostic value.
pub const MAX_STORED_VIOLATIONS: usize = 64;

/// Everything the oracle observed during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// L1 hits whose observed bytes were compared against the reference.
    pub loads_checked: u64,
    /// Fills mirrored into the reference memory.
    pub fills_observed: u64,
    /// Stores overlaid onto the reference memory (write-back runs only).
    pub stores_observed: u64,
    /// Structural checkpoints taken (EP boundaries, mode switches,
    /// kernel-end audits), across all SMs.
    pub checkpoints: u64,
    /// Every violation detected, including those beyond the storage cap.
    pub violations_total: u64,
    /// The first [`MAX_STORED_VIOLATIONS`] violations, in detection order.
    pub violations: Vec<ShadowViolation>,
}

impl OracleReport {
    /// `true` when the run diverged nowhere: no data mismatches, no
    /// structural-invariant failures.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations_total == 0
    }
}

/// Read-side handle to a [`MemoryOracle`]'s report.
///
/// The oracle itself is boxed into the GPU; the handle stays with the
/// caller and can snapshot the report at any time (including after the
/// GPU is dropped).
#[derive(Debug, Clone)]
pub struct OracleHandle {
    report: Arc<Mutex<OracleReport>>,
}

impl OracleHandle {
    /// Snapshots the current report.
    #[must_use]
    pub fn report(&self) -> OracleReport {
        self.report
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// The functional reference model: an unbounded, uncompressed,
/// zero-latency memory shadowing the simulated hierarchy.
#[derive(Debug)]
pub struct MemoryOracle {
    /// Reference contents. Keyed access only — never iterated.
    memory: LineMap<CacheLine>,
    /// Lines with architecturally committed stores this kernel. A refetch
    /// of such a line must deliver the reference bytes — anything else
    /// means the hierarchy lost a dirty write-back. Keyed access only.
    stored: LineSet,
    report: Arc<Mutex<OracleReport>>,
}

impl MemoryOracle {
    /// Creates an oracle and the handle through which its report is read
    /// after the oracle has been handed to the GPU.
    #[must_use]
    pub fn new() -> (MemoryOracle, OracleHandle) {
        let report = Arc::new(Mutex::new(OracleReport::default()));
        let handle = OracleHandle {
            report: Arc::clone(&report),
        };
        (
            MemoryOracle {
                memory: LineMap::default(),
                stored: LineSet::default(),
                report,
            },
            handle,
        )
    }

    fn record(&self, violation: ShadowViolation) {
        let mut report = self.report.lock().unwrap_or_else(PoisonError::into_inner);
        report.violations_total += 1;
        if report.violations.len() < MAX_STORED_VIOLATIONS {
            report.violations.push(violation);
        }
    }

    fn bump(&self, f: impl FnOnce(&mut OracleReport)) {
        f(&mut self.report.lock().unwrap_or_else(PoisonError::into_inner));
    }
}

/// Detail string for a payload mismatch: the first differing byte, what
/// the cache held and what the reference expected.
fn mismatch_detail(observed: &CacheLine, expected: &CacheLine) -> String {
    let obs = observed.as_bytes();
    let exp = expected.as_bytes();
    for (i, (o, e)) in obs.iter().zip(exp.iter()).enumerate() {
        if o != e {
            return format!(
                "payload diverges at byte {i}: cache returned {o:#04x}, reference holds {e:#04x}"
            );
        }
    }
    // Unreachable in practice (callers compare first), but stay total.
    "payload diverges (no differing byte found)".to_string()
}

impl ShadowCheck for MemoryOracle {
    fn on_fill(&mut self, sm: usize, addr: LineAddr, data: &CacheLine, cycle: Cycles) {
        self.bump(|r| r.fills_observed += 1);
        if self.stored.contains(&addr) {
            // A line we saw stores commit on is being refetched: the
            // hierarchy must hand back the bytes it was given (the dirty
            // line was written back before, or during, the eviction that
            // made this refetch necessary). A mismatch means a dirty
            // write-back was lost between L1 and the backing store.
            if let Some(expected) = self.memory.get(&addr) {
                if data != expected {
                    let detail = format!(
                        "refetch lost a dirty write-back: {}",
                        mismatch_detail(data, expected)
                    );
                    self.record(ShadowViolation {
                        sm,
                        cycle,
                        addr: Some(addr),
                        kind: ShadowViolationKind::DataIntegrity,
                        detail,
                    });
                }
            }
        }
        // Adopt the delivered bytes either way: after the (single)
        // violation above, the model follows the machine so one lost
        // write-back doesn't cascade into a violation on every load.
        self.memory.insert(addr, *data);
    }

    fn on_store(&mut self, _sm: usize, addr: LineAddr, data: &CacheLine, _cycle: Cycles) {
        // Eager overlay: `data` is the full line after the sector merge,
        // architecturally committed the moment the hook fires.
        self.memory.insert(addr, *data);
        self.stored.insert(addr);
        self.bump(|r| r.stores_observed += 1);
    }

    fn on_load(&mut self, sm: usize, addr: LineAddr, observed: Option<&CacheLine>, cycle: Cycles) {
        self.bump(|r| r.loads_checked += 1);
        let Some(expected) = self.memory.get(&addr) else {
            self.record(ShadowViolation {
                sm,
                cycle,
                addr: Some(addr),
                kind: ShadowViolationKind::DataIntegrity,
                detail: "hit on a line the reference memory never saw filled".to_string(),
            });
            return;
        };
        match observed {
            None => self.record(ShadowViolation {
                sm,
                cycle,
                addr: Some(addr),
                kind: ShadowViolationKind::DataIntegrity,
                detail: "resident line has no recorded payload".to_string(),
            }),
            Some(observed) if observed != expected => self.record(ShadowViolation {
                sm,
                cycle,
                addr: Some(addr),
                kind: ShadowViolationKind::DataIntegrity,
                detail: mismatch_detail(observed, expected),
            }),
            Some(_) => {}
        }
    }

    fn on_checkpoint(
        &mut self,
        sm: usize,
        cycle: Cycles,
        kind: ShadowCheckpoint,
        structural_errors: &[String],
    ) {
        self.bump(|r| r.checkpoints += 1);
        for error in structural_errors {
            self.record(ShadowViolation {
                sm,
                cycle,
                addr: None,
                kind: ShadowViolationKind::Structural,
                detail: format!("{kind}: {error}"),
            });
        }
        if kind == ShadowCheckpoint::KernelEnd {
            // Dirty state does not outlive a kernel: the simulator flushes
            // (or deliberately drops, under the planted mutation) every
            // dirty line before these checkpoints fire, and a config that
            // resets caches at kernel boundaries refills from pristine
            // kernel data the next kernel. Keeping the marks would turn
            // those legitimate pristine refills into false positives. The
            // byte contents stay: a persistent-cache config can keep
            // serving the stored bytes, and `on_fill` overwrites stale
            // entries before any load checks against them.
            self.stored.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(fill: u8) -> CacheLine {
        CacheLine::from_bytes([fill; CacheLine::SIZE_BYTES])
    }

    #[test]
    fn matching_load_is_clean() {
        let (mut oracle, handle) = MemoryOracle::new();
        let addr = LineAddr::new(7);
        oracle.on_fill(0, addr, &line(0xAB), 10);
        oracle.on_load(0, addr, Some(&line(0xAB)), 20);
        let report = handle.report();
        assert!(report.is_clean());
        assert_eq!(report.loads_checked, 1);
        assert_eq!(report.fills_observed, 1);
    }

    #[test]
    fn mismatched_load_names_the_first_differing_byte() {
        let (mut oracle, handle) = MemoryOracle::new();
        let addr = LineAddr::new(7);
        oracle.on_fill(0, addr, &line(0xAB), 10);
        let mut bad = line(0xAB);
        bad.as_bytes_mut()[5] ^= 0x01;
        oracle.on_load(1, addr, Some(&bad), 20);
        let report = handle.report();
        assert_eq!(report.violations_total, 1);
        let v = &report.violations[0];
        assert_eq!(v.sm, 1);
        assert_eq!(v.cycle, 20);
        assert_eq!(v.addr, Some(addr));
        assert_eq!(v.kind, ShadowViolationKind::DataIntegrity);
        assert!(v.detail.contains("byte 5"), "detail: {}", v.detail);
    }

    #[test]
    fn load_of_unknown_line_is_a_violation() {
        let (mut oracle, handle) = MemoryOracle::new();
        oracle.on_load(0, LineAddr::new(99), Some(&line(0)), 5);
        let report = handle.report();
        assert_eq!(report.violations_total, 1);
        assert!(report.violations[0].detail.contains("never saw filled"));
    }

    #[test]
    fn missing_payload_is_a_violation() {
        let (mut oracle, handle) = MemoryOracle::new();
        let addr = LineAddr::new(3);
        oracle.on_fill(0, addr, &line(1), 1);
        oracle.on_load(0, addr, None, 2);
        assert_eq!(handle.report().violations_total, 1);
    }

    #[test]
    fn store_overlays_the_reference_eagerly() {
        let (mut oracle, handle) = MemoryOracle::new();
        let addr = LineAddr::new(11);
        oracle.on_fill(0, addr, &line(0x10), 1);
        oracle.on_store(0, addr, &line(0x20), 2);
        // A hit after the store must observe the stored bytes...
        oracle.on_load(0, addr, Some(&line(0x20)), 3);
        assert!(handle.report().is_clean());
        // ...and observing the pre-store bytes is a violation.
        oracle.on_load(0, addr, Some(&line(0x10)), 4);
        let report = handle.report();
        assert_eq!(report.violations_total, 1);
        assert_eq!(report.stores_observed, 1);
    }

    #[test]
    fn refetch_matching_the_stored_bytes_is_clean() {
        let (mut oracle, handle) = MemoryOracle::new();
        let addr = LineAddr::new(12);
        oracle.on_fill(0, addr, &line(1), 1);
        oracle.on_store(0, addr, &line(2), 2);
        // Evicted (dirty write-back) then refetched with the same bytes.
        oracle.on_fill(0, addr, &line(2), 50);
        assert!(handle.report().is_clean());
    }

    #[test]
    fn refetch_losing_a_writeback_is_flagged_once() {
        let (mut oracle, handle) = MemoryOracle::new();
        let addr = LineAddr::new(13);
        oracle.on_fill(0, addr, &line(1), 1);
        oracle.on_store(1, addr, &line(2), 2);
        // The write-back was dropped: the refetch hands back stale bytes.
        oracle.on_fill(1, addr, &line(1), 50);
        let report = handle.report();
        assert_eq!(report.violations_total, 1);
        let v = &report.violations[0];
        assert_eq!(v.kind, ShadowViolationKind::DataIntegrity);
        assert!(v.detail.contains("lost a dirty write-back"), "{}", v.detail);
        // The model adopted the delivered bytes: no cascade on later loads.
        oracle.on_load(1, addr, Some(&line(1)), 60);
        assert_eq!(handle.report().violations_total, 1);
    }

    #[test]
    fn kernel_end_retires_dirty_marks_but_keeps_bytes() {
        let (mut oracle, handle) = MemoryOracle::new();
        let addr = LineAddr::new(14);
        oracle.on_fill(0, addr, &line(1), 1);
        oracle.on_store(0, addr, &line(2), 2);
        oracle.on_checkpoint(0, 100, ShadowCheckpoint::KernelEnd, &[]);
        // Next kernel refills from pristine data — not a violation.
        oracle.on_fill(0, addr, &line(1), 200);
        assert!(handle.report().is_clean());
        // A persistent-cache hit before any refill still checks against
        // the stored bytes (exercised via a fresh store + load).
        oracle.on_store(0, addr, &line(3), 300);
        oracle.on_load(0, addr, Some(&line(3)), 301);
        assert!(handle.report().is_clean());
    }

    #[test]
    fn refill_updates_the_reference() {
        let (mut oracle, handle) = MemoryOracle::new();
        let addr = LineAddr::new(4);
        oracle.on_fill(0, addr, &line(1), 1);
        oracle.on_fill(0, addr, &line(2), 5);
        oracle.on_load(0, addr, Some(&line(2)), 6);
        assert!(handle.report().is_clean());
    }

    #[test]
    fn checkpoint_errors_become_structural_violations() {
        let (mut oracle, handle) = MemoryOracle::new();
        oracle.on_checkpoint(2, 100, ShadowCheckpoint::ModeSwitch, &[]);
        oracle.on_checkpoint(
            2,
            200,
            ShadowCheckpoint::KernelEnd,
            &["l1: set 3: duplicate tag".to_string()],
        );
        let report = handle.report();
        assert_eq!(report.checkpoints, 2);
        assert_eq!(report.violations_total, 1);
        let v = &report.violations[0];
        assert_eq!(v.kind, ShadowViolationKind::Structural);
        assert_eq!(v.addr, None);
        assert!(v.detail.contains("kernel-end"), "detail: {}", v.detail);
        assert!(v.detail.contains("duplicate tag"));
    }

    #[test]
    fn stored_violations_cap_but_the_total_keeps_counting() {
        let (mut oracle, handle) = MemoryOracle::new();
        for i in 0..(MAX_STORED_VIOLATIONS as u64 + 10) {
            oracle.on_load(0, LineAddr::new(1000 + i), Some(&line(0)), i);
        }
        let report = handle.report();
        assert_eq!(report.violations_total, MAX_STORED_VIOLATIONS as u64 + 10);
        assert_eq!(report.violations.len(), MAX_STORED_VIOLATIONS);
    }
}
