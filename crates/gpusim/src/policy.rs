//! The hook through which a compression management policy (LATTE-CC or a
//! baseline) plugs into the simulator.
//!
//! The simulator owns the caches and the pipeline; the policy owns the
//! compressors and the decision logic. On every L1 fill the simulator asks
//! the policy how to compress the incoming line ([`FillLine`]); on every
//! L1 access and at
//! every experimental-phase (EP) boundary it feeds the policy the
//! measurements LATTE-CC's controller needs (per-set hit/miss events and
//! the latency-tolerance probe of Eq. 4).

use crate::ops::Kernel;
use latte_cache::{CacheGeometry, LineAddr};
use latte_compress::{CacheLine, Compression, CompressionAlgo, Cycles};

/// A line arriving at the L1, as the fill hook
/// ([`L1CompressionPolicy::compress_fill_line`]) sees it.
///
/// Its bytes are made only when something reads them
/// ([`FillLine::bytes`]), and at most once: a policy that decides
/// without looking at the bytes (no compression, or a memoized size)
/// costs no [`Kernel::line_data`] call. The simulator reads the same
/// bytes after the policy for the write-back path, the payload shadow
/// and the oracle, so a fill makes them once whoever asks first.
///
/// The memo key ([`FillLine::key`]) is `Some(addr)` only when the bytes
/// are the current kernel's pristine `line_data(addr)`. Those bytes, and
/// therefore the line's compressed size under an unchanged compressor,
/// are the same for every fill of `addr` until the kernel ends. Bytes
/// from the write-back image or a store merge carry no key.
pub struct FillLine<'a> {
    key: Option<LineAddr>,
    /// The kernel whose `line_data(key)` the bytes are, until they are
    /// made.
    pending: Option<&'a dyn Kernel>,
    bytes: CacheLine,
}

impl<'a> FillLine<'a> {
    /// `kernel`'s pristine bytes of `addr`, made on first read; keyed by
    /// `addr`.
    #[must_use]
    pub fn pristine(kernel: &'a dyn Kernel, addr: LineAddr) -> FillLine<'a> {
        FillLine {
            key: Some(addr),
            pending: Some(kernel),
            bytes: CacheLine::zeroed(),
        }
    }

    /// Bytes in hand that the caller vouches are the current kernel's
    /// pristine bytes of `addr`; keyed by `addr`.
    #[must_use]
    pub fn keyed(addr: LineAddr, bytes: CacheLine) -> FillLine<'static> {
        FillLine {
            key: Some(addr),
            pending: None,
            bytes,
        }
    }

    /// Bytes with no memo key: a write-back image payload, a store
    /// merge, or any line whose origin is unknown.
    #[must_use]
    pub fn unkeyed(bytes: CacheLine) -> FillLine<'static> {
        FillLine {
            key: None,
            pending: None,
            bytes,
        }
    }

    /// The memo key: the line's address when its bytes are the current
    /// kernel's pristine data, `None` otherwise.
    #[must_use]
    pub fn key(&self) -> Option<LineAddr> {
        self.key
    }

    /// The line's bytes, made on the first call.
    pub fn bytes(&mut self) -> &CacheLine {
        if let (Some(kernel), Some(addr)) = (self.pending.take(), self.key) {
            self.bytes = kernel.line_data(addr);
        }
        &self.bytes
    }
}

/// One L1 access, as seen by the policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessEvent {
    /// Cache set accessed.
    pub set: usize,
    /// `true` on a hit.
    pub hit: bool,
    /// Algorithm of the resident line (hits only; `None` otherwise).
    pub algo: CompressionAlgo,
    /// Cycle of the access.
    pub cycle: Cycles,
}

/// Scheduler measurements over one experimental phase, from which the
/// latency tolerance of Eq. (4) is derived.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpProbe {
    /// Index of the EP that just ended (monotonic within a kernel).
    pub ep_index: u64,
    /// Mean number of ready warps per scheduler cycle.
    pub avg_warps_available: f64,
    /// Mean number of consecutive issues a warp enjoyed before the
    /// scheduler switched away (GTO greed run length).
    pub avg_exec_cycles_per_schedule: f64,
    /// L1 accesses in the EP (== the configured EP length, except for the
    /// final truncated EP of a kernel).
    pub l1_accesses: u64,
    /// Cycles the EP spanned.
    pub cycles: Cycles,
    /// Cycle at which the EP ended.
    pub end_cycle: Cycles,
}

impl EpProbe {
    /// The latency tolerance estimate of Eq. (4):
    /// `average_warps_available / average_execution_cycles_per_schedule`.
    #[must_use]
    pub fn latency_tolerance(&self) -> f64 {
        if self.avg_exec_cycles_per_schedule <= 0.0 {
            0.0
        } else {
            self.avg_warps_available / self.avg_exec_cycles_per_schedule
        }
    }
}

/// Summary of a policy's recent decisions, for experiment reporting
/// (e.g. the Fig 15 agreement analysis). Counters reset at kernel start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyReport {
    /// EPs spent in [no-compression, low-latency, high-capacity] mode
    /// since the last kernel start (all zero for non-adaptive policies).
    pub eps_in_mode: [u64; 3],
}

impl PolicyReport {
    /// Total EPs recorded.
    #[must_use]
    pub fn total_eps(&self) -> u64 {
        self.eps_in_mode.iter().sum()
    }
}

/// A per-SM compression management policy.
///
/// The default method bodies make a minimal policy trivial to write: only
/// [`L1CompressionPolicy::compress_fill`] is required. A policy that can
/// decide without the line's bytes, or memoizes sizes, also implements
/// [`L1CompressionPolicy::compress_fill_line`] and makes
/// `compress_fill` a one-line adapter onto it.
///
/// Policies must be [`Send`]: the parallel experiment driver runs whole
/// simulations on worker threads, so every piece of per-SM state — the
/// policy included — has to be movable across threads. Policies are still
/// driven single-threaded (one `Gpu` never crosses a thread mid-run), so
/// `Sync` is *not* required and interior state needs no locking.
pub trait L1CompressionPolicy: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Decides how to store `line`, whose bytes are in hand, in `set`.
    /// Returns the algorithm tag to record and the achieved compression.
    /// Returning `(CompressionAlgo::None, Compression::UNCOMPRESSED)`
    /// stores raw.
    ///
    /// The bytes carry no memo key, so the answer must come from the
    /// bytes themselves. The simulator calls this for store merges; every
    /// L1 fill goes through [`L1CompressionPolicy::compress_fill_line`],
    /// whose default calls this. A policy that implements
    /// `compress_fill_line` makes this a one-line adapter passing
    /// [`FillLine::unkeyed`], so it keeps one decision body.
    fn compress_fill(&mut self, set: usize, line: &CacheLine) -> (CompressionAlgo, Compression);

    /// Decides how to store the line being filled into `set` (same
    /// contract as [`L1CompressionPolicy::compress_fill`]). The simulator
    /// calls this on every L1 fill.
    ///
    /// This is the fill hot path and the simulator only needs the *size*:
    /// read [`FillLine::bytes`] only when the decision needs them, and
    /// size with [`latte_compress::Compressor::probe`] (probe/compress
    /// parity is pinned by the compress crate's parity suite). When
    /// [`FillLine::key`] is `Some(addr)`, the size of `addr` under an
    /// unchanged compressor is the same for the rest of the kernel, so a
    /// policy may memoize it by address until
    /// [`L1CompressionPolicy::on_kernel_start`] or until its compressor
    /// changes (an SC codebook swap). An unkeyed line must be sized from
    /// its bytes. Simulated statistics and energy count one compression
    /// per fill whatever the policy skips.
    ///
    /// The default makes the bytes and calls `compress_fill`.
    fn compress_fill_line(
        &mut self,
        set: usize,
        line: &mut FillLine<'_>,
    ) -> (CompressionAlgo, Compression) {
        self.compress_fill(set, line.bytes())
    }

    /// Called once when the policy is attached to its SM, with that SM's
    /// L1 geometry. Policies size per-SM host-side tables from it (the
    /// fill-size memo's cap); the default ignores it.
    fn on_attach(&mut self, _l1: &CacheGeometry) {}

    /// Decompression latency charged for a hit on a line stored with
    /// `algo`. Defaults to the Table I latencies.
    fn decompression_latency(&self, algo: CompressionAlgo) -> Cycles {
        algo.decompression_latency()
    }

    /// Called on every L1 data access.
    fn on_access(&mut self, _ev: &AccessEvent) {}

    /// Called when a compressed line stored with `algo` fails to
    /// decompress (detected corruption). The access has already been
    /// re-classified as a miss and the line invalidated; adaptive
    /// policies may use this to demote themselves to uncompressed
    /// operation when the error rate is suspicious.
    fn on_decode_error(&mut self, _algo: CompressionAlgo) {}

    /// Called at every EP boundary with the latency-tolerance probe.
    fn on_ep(&mut self, _probe: &EpProbe) {}

    /// Called when a kernel starts.
    fn on_kernel_start(&mut self) {}

    /// Called when a kernel ends.
    fn on_kernel_end(&mut self) {}

    /// Polled after EP boundaries: a policy may request invalidation of
    /// all lines stored with a given algorithm (SC does this when its
    /// codebook is rebuilt at a period boundary, §IV-C2).
    fn pending_invalidation(&mut self) -> Option<CompressionAlgo> {
        None
    }

    /// Decision summary since the last kernel start (adaptive policies
    /// override this for the Fig 15 analysis).
    fn report(&self) -> PolicyReport {
        PolicyReport::default()
    }

    /// The mode index ([no-compression, low-latency, high-capacity])
    /// currently selected, if the policy is adaptive. Used by the
    /// decision-trace instrumentation.
    fn current_mode_index(&self) -> Option<usize> {
        None
    }

    /// Verifies the policy's internal invariants (e.g. SC dictionary and
    /// period-clock consistency) without panicking. Called by the
    /// shadow-verification checkpoints; stateless policies are trivially
    /// consistent.
    ///
    /// # Errors
    ///
    /// Returns `Err` describing the first violated invariant.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }
}

/// The baseline policy: never compress.
#[derive(Debug, Clone, Copy, Default)]
pub struct UncompressedPolicy;

impl L1CompressionPolicy for UncompressedPolicy {
    fn name(&self) -> &'static str {
        "Baseline"
    }

    fn compress_fill(&mut self, set: usize, line: &CacheLine) -> (CompressionAlgo, Compression) {
        self.compress_fill_line(set, &mut FillLine::unkeyed(*line))
    }

    fn compress_fill_line(
        &mut self,
        _set: usize,
        _line: &mut FillLine<'_>,
    ) -> (CompressionAlgo, Compression) {
        (CompressionAlgo::None, Compression::UNCOMPRESSED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OpStream;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Counts `line_data` calls.
    #[derive(Default)]
    struct CountingKernel {
        calls: AtomicU64,
    }

    impl Kernel for CountingKernel {
        fn name(&self) -> &str {
            "counting"
        }

        fn warps_on_sm(&self, _sm: usize) -> usize {
            0
        }

        fn warp_program(&self, _sm: usize, _warp: usize) -> Box<dyn OpStream> {
            Box::new(crate::ops::VecStream::new(Vec::new()))
        }

        fn line_data(&self, addr: LineAddr) -> CacheLine {
            self.calls.fetch_add(1, Ordering::Relaxed);
            CacheLine::from_u32_words(&[addr.line_number() as u32; 32])
        }
    }

    #[test]
    fn fill_line_makes_pristine_bytes_once_on_demand() {
        let kernel = CountingKernel::default();
        let addr = LineAddr::new(9);
        let mut line = FillLine::pristine(&kernel, addr);
        assert_eq!(line.key(), Some(addr));
        assert_eq!(kernel.calls.load(Ordering::Relaxed), 0, "nothing read yet");
        let first = *line.bytes();
        assert_eq!(first, kernel.line_data(addr));
        assert_eq!(*line.bytes(), first);
        // One call from the handle (however often it is read), one above.
        assert_eq!(kernel.calls.load(Ordering::Relaxed), 2);
        assert_eq!(FillLine::unkeyed(first).key(), None);
        assert_eq!(FillLine::keyed(addr, first).key(), Some(addr));
    }

    #[test]
    fn the_default_fill_hook_reads_the_bytes_and_the_baseline_does_not() {
        struct Raw;
        impl L1CompressionPolicy for Raw {
            fn name(&self) -> &'static str {
                "raw"
            }
            fn compress_fill(&mut self, _: usize, _: &CacheLine) -> (CompressionAlgo, Compression) {
                (CompressionAlgo::None, Compression::UNCOMPRESSED)
            }
        }
        let kernel = CountingKernel::default();
        let _ = Raw.compress_fill_line(0, &mut FillLine::pristine(&kernel, LineAddr::new(1)));
        assert_eq!(kernel.calls.load(Ordering::Relaxed), 1);
        let _ = UncompressedPolicy
            .compress_fill_line(0, &mut FillLine::pristine(&kernel, LineAddr::new(2)));
        assert_eq!(kernel.calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn probe_latency_tolerance() {
        let probe = EpProbe {
            avg_warps_available: 12.0,
            avg_exec_cycles_per_schedule: 3.0,
            ..EpProbe::default()
        };
        assert!((probe.latency_tolerance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn probe_tolerance_handles_zero_denominator() {
        let probe = EpProbe::default();
        assert_eq!(probe.latency_tolerance(), 0.0);
    }

    #[test]
    fn uncompressed_policy_stores_raw() {
        let mut p = UncompressedPolicy;
        let (algo, c) = p.compress_fill(0, &CacheLine::zeroed());
        assert_eq!(algo, CompressionAlgo::None);
        assert!(!c.is_compressed());
        assert_eq!(p.decompression_latency(CompressionAlgo::Sc), 14);
    }
}
