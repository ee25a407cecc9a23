//! Kernel-OPT (§V-B): an offline oracle that runs every kernel under
//! each static compression mode and commits, per kernel, the mode with the
//! lowest execution time.
//!
//! The paper uses it as an upper-bound reference for coarse-grained
//! (kernel-boundary) adaptation; LATTE-CC's fine-grained adaptation can
//! beat it on workloads whose best mode changes *within* a kernel.
//!
//! The oracle is a pure fold over per-kernel cycle counts: the caller
//! runs the three static configurations (whose policy state persists
//! across kernels, exactly as a real static configuration would) and
//! hands over each kernel's cycles. This requires
//! `GpuConfig::flush_at_kernel_boundary`, so kernels are independent;
//! that is the simulator's default.

use crate::mode::CompressionMode;

/// Kernel-OPT's choice for one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelOptKernel {
    /// The fastest static mode.
    pub best: CompressionMode,
    /// Execution cycles under that mode.
    pub cycles: u64,
}

/// Picks each kernel's fastest mode from its execution cycles under
/// [none, low-latency, high-capacity]. Ties go to the lowest mode index.
#[must_use]
pub fn kernel_opt(cycles: &[[u64; 3]]) -> Vec<KernelOptKernel> {
    cycles
        .iter()
        .map(|modes| {
            let best = (0..3).min_by_key(|&i| modes[i]).unwrap_or(0);
            KernelOptKernel {
                best: CompressionMode::ALL[best],
                cycles: modes[best],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_picks_the_fastest_mode_per_kernel() {
        use CompressionMode as M;
        let picks = kernel_opt(&[[900, 700, 800], [500, 600, 400], [300, 300, 300]]);
        let picks: Vec<(M, u64)> = picks.iter().map(|k| (k.best, k.cycles)).collect();
        // The all-equal kernel ties to the lowest mode.
        assert_eq!(
            picks,
            [(M::LowLatency, 700), (M::HighCapacity, 400), (M::None, 300)]
        );
    }

    #[test]
    fn oracle_beats_or_matches_every_static_mode() {
        let runs = [[1200, 1000, 1400], [350, 410, 380], [2000, 2000, 1990]];
        let total: u64 = kernel_opt(&runs).iter().map(|k| k.cycles).sum();
        for mode in 0..3 {
            let static_total: u64 = runs.iter().map(|k| k[mode]).sum();
            assert!(
                total <= static_total,
                "oracle must not lose to a static mode"
            );
        }
        assert_eq!(total, 1000 + 350 + 1990);
    }
}
