//! Simulation statistics: per-kernel and aggregated.

use crate::faults::FaultStats;
use latte_cache::CacheStats;
use latte_compress::{CompressionAlgo, Cycles};

/// Why a kernel's simulation loop stopped. Ordered by severity, so
/// accumulating kernels keeps the worst outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TerminationReason {
    /// Every warp retired and the memory system drained.
    #[default]
    Completed,
    /// The kernel hit [`crate::GpuConfig::max_cycles_per_kernel`] with
    /// structurally sound simulator state: the workload is slow or
    /// livelocked, not the simulator.
    CycleLimit,
    /// No warp can ever make progress again (e.g. a barrier that can
    /// never release) while the simulator state is structurally sound:
    /// a workload deadlock.
    Deadlock,
    /// The watchdog's structural audit found corrupted simulator state;
    /// the run's statistics are suspect beyond this kernel.
    FaultAbort,
}

impl TerminationReason {
    /// `true` when the kernel ran to completion.
    #[must_use]
    pub fn is_clean(self) -> bool {
        self == TerminationReason::Completed
    }
}

impl std::fmt::Display for TerminationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TerminationReason::Completed => "completed",
            TerminationReason::CycleLimit => "cycle-limit",
            TerminationReason::Deadlock => "deadlock",
            TerminationReason::FaultAbort => "fault-abort",
        })
    }
}

/// Per-algorithm event counts (compressions or decompressions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlgoCounts {
    counts: [u64; 6],
}

impl AlgoCounts {
    fn index(algo: CompressionAlgo) -> usize {
        match algo {
            CompressionAlgo::None => 0,
            CompressionAlgo::Bdi => 1,
            CompressionAlgo::Fpc => 2,
            CompressionAlgo::CpackZ => 3,
            CompressionAlgo::Bpc => 4,
            CompressionAlgo::Sc => 5,
        }
    }

    /// Increments the counter for `algo`.
    pub fn bump(&mut self, algo: CompressionAlgo) {
        self.counts[Self::index(algo)] += 1;
    }

    /// Adds `n` to the counter for `algo` (used when reconstructing
    /// counts from a serialized record).
    pub fn add(&mut self, algo: CompressionAlgo, n: u64) {
        self.counts[Self::index(algo)] += n;
    }

    /// The count for `algo`.
    #[must_use]
    pub fn get(&self, algo: CompressionAlgo) -> u64 {
        self.counts[Self::index(algo)]
    }

    /// Total across all real algorithms (excludes `None`).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts[1..].iter().sum()
    }

    /// Iterates `(algo, count)` over the real algorithms.
    pub fn iter(&self) -> impl Iterator<Item = (CompressionAlgo, u64)> + '_ {
        CompressionAlgo::ALL.iter().map(|&a| (a, self.get(a)))
    }
}

impl std::ops::AddAssign for AlgoCounts {
    fn add_assign(&mut self, rhs: AlgoCounts) {
        for (a, b) in self.counts.iter_mut().zip(rhs.counts) {
            *a += b;
        }
    }
}

/// One experimental phase's trace record (for the Fig 5 / Fig 16
/// time-series plots; recorded on SM 0 when tracing is enabled).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpTraceEntry {
    /// EP index within the simulation.
    pub ep_index: u64,
    /// Cycle at which the EP ended.
    pub end_cycle: Cycles,
    /// Latency tolerance estimate (Eq. 4) over the EP.
    pub latency_tolerance: f64,
    /// Effective L1 capacity at the EP boundary, relative to the baseline
    /// capacity (1.0 = uncompressed full cache).
    pub effective_capacity: f64,
    /// L1 hit rate within the EP window (cumulative approximation).
    pub l1_hit_rate: f64,
    /// Mode index selected by an adaptive policy for the next EP
    /// (None for static policies).
    pub selected_mode: Option<usize>,
}

/// Statistics from running one kernel (or a whole benchmark when summed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Cycles the kernel took.
    pub cycles: Cycles,
    /// Warp instructions issued.
    pub instructions: u64,
    /// Aggregated L1 statistics across SMs.
    pub l1: CacheStats,
    /// Shared L2 statistics.
    pub l2: CacheStats,
    /// DRAM accesses (L2 misses).
    pub dram_accesses: u64,
    /// Warp-level loads issued.
    pub loads: u64,
    /// Warp-level stores issued.
    pub stores: u64,
    /// Dirty lines written back to the L2/DRAM (write-back mode only;
    /// includes the kernel-end dirty flush).
    pub writebacks: u64,
    /// Compression operations per algorithm.
    pub compressions: AlgoCounts,
    /// Decompression operations per algorithm.
    pub decompressions: AlgoCounts,
    /// Cycles a load stalled because the MSHR file was full.
    pub mshr_stalls: u64,
    /// Total cycles warps spent blocked on L1 hits (incl. decompression).
    pub hit_wait_cycles: u64,
    /// Total cycles warps spent blocked waiting for refills.
    pub miss_wait_cycles: u64,
    /// Total cycles warps spent parked at barriers.
    pub barrier_wait_cycles: u64,
    /// Number of completed experimental phases (all SMs).
    pub eps_completed: u64,
    /// Sum over decompressions of the queueing component of the effective
    /// hit latency (Eq. 3), for contention statistics.
    pub decompression_queue_wait: u64,
    /// Per-EP traces from SM 0 (empty unless tracing is enabled).
    pub traces: Vec<EpTraceEntry>,
    /// True if the kernel stopped before completing (any
    /// [`TerminationReason`] other than `Completed`).
    pub timed_out: bool,
    /// Why the simulation loop stopped (worst across kernels when
    /// accumulated).
    pub termination: TerminationReason,
    /// Injected-fault counters (all zero when injection is disabled).
    pub faults: FaultStats,
}

impl KernelStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Accumulates another kernel's stats (traces are appended).
    pub fn accumulate(&mut self, other: &KernelStats) {
        let KernelStats {
            cycles,
            instructions,
            l1,
            l2,
            dram_accesses,
            loads,
            stores,
            writebacks,
            compressions,
            decompressions,
            mshr_stalls,
            hit_wait_cycles,
            miss_wait_cycles,
            barrier_wait_cycles,
            eps_completed,
            decompression_queue_wait,
            traces,
            timed_out,
            termination,
            faults,
        } = other;
        self.cycles += cycles;
        self.instructions += instructions;
        self.l1 = self.l1 + *l1;
        self.l2 = self.l2 + *l2;
        self.dram_accesses += dram_accesses;
        self.loads += loads;
        self.stores += stores;
        self.writebacks += writebacks;
        self.compressions += *compressions;
        self.decompressions += *decompressions;
        self.mshr_stalls += mshr_stalls;
        self.hit_wait_cycles += hit_wait_cycles;
        self.miss_wait_cycles += miss_wait_cycles;
        self.barrier_wait_cycles += barrier_wait_cycles;
        self.eps_completed += eps_completed;
        self.decompression_queue_wait += decompression_queue_wait;
        self.traces.extend_from_slice(traces);
        self.timed_out |= timed_out;
        self.termination = self.termination.max(*termination);
        self.faults += *faults;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_counts() {
        let mut c = AlgoCounts::default();
        c.bump(CompressionAlgo::Bdi);
        c.bump(CompressionAlgo::Bdi);
        c.bump(CompressionAlgo::Sc);
        c.bump(CompressionAlgo::None);
        assert_eq!(c.get(CompressionAlgo::Bdi), 2);
        assert_eq!(c.get(CompressionAlgo::Sc), 1);
        assert_eq!(c.total(), 3, "None excluded from total");
    }

    #[test]
    fn ipc() {
        let s = KernelStats {
            cycles: 100,
            instructions: 250,
            ..KernelStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert_eq!(KernelStats::default().ipc(), 0.0);
    }

    #[test]
    fn accumulate_sums() {
        let mut a = KernelStats {
            cycles: 10,
            instructions: 20,
            dram_accesses: 3,
            ..KernelStats::default()
        };
        let b = a.clone();
        a.accumulate(&b);
        assert_eq!(a.cycles, 20);
        assert_eq!(a.instructions, 40);
        assert_eq!(a.dram_accesses, 6);
    }

    #[test]
    fn accumulate_keeps_worst_termination() {
        let mut a = KernelStats {
            termination: TerminationReason::Deadlock,
            timed_out: true,
            ..KernelStats::default()
        };
        a.accumulate(&KernelStats::default());
        assert_eq!(a.termination, TerminationReason::Deadlock);
        let mut b = KernelStats::default();
        b.accumulate(&a);
        assert_eq!(b.termination, TerminationReason::Deadlock);
        assert!(b.timed_out);
    }

    #[test]
    fn termination_severity_order() {
        use TerminationReason::*;
        assert!(Completed < CycleLimit);
        assert!(CycleLimit < Deadlock);
        assert!(Deadlock < FaultAbort);
        assert!(Completed.is_clean());
        assert!(!Deadlock.is_clean());
        assert_eq!(FaultAbort.to_string(), "fault-abort");
    }
}
