//! Behavioural tests of the fault-injection harness: determinism,
//! recovery of detected bit flips as misses, invisibility of disabled
//! injection, and termination reporting.

use latte_compress::{Compression, CompressionAlgo};
use latte_gpusim::testing::StridedKernel;
use latte_gpusim::{
    FaultConfig, Gpu, GpuConfig, Kernel, KernelStats, L1CompressionPolicy, TerminationReason,
    UncompressedPolicy,
};

fn base_config() -> GpuConfig {
    GpuConfig {
        num_sms: 2,
        ..GpuConfig::small()
    }
}

/// A policy that compresses everything with one algorithm at a fixed size.
struct FixedPolicy {
    algo: CompressionAlgo,
    size: usize,
    decode_errors: u64,
}

impl FixedPolicy {
    fn bdi() -> FixedPolicy {
        FixedPolicy {
            algo: CompressionAlgo::Bdi,
            size: 32,
            decode_errors: 0,
        }
    }
}

impl L1CompressionPolicy for FixedPolicy {
    fn name(&self) -> &'static str {
        "Fixed"
    }

    fn compress_fill(
        &mut self,
        _set: usize,
        _line: &latte_compress::CacheLine,
    ) -> (CompressionAlgo, Compression) {
        (self.algo, Compression::new(self.size))
    }

    fn on_decode_error(&mut self, _algo: CompressionAlgo) {
        self.decode_errors += 1;
    }
}

fn run_compressed(config: GpuConfig, kernel: &dyn Kernel) -> KernelStats {
    let mut gpu = Gpu::new(&config, |_| {
        Box::new(FixedPolicy::bdi()) as Box<dyn L1CompressionPolicy>
    });
    gpu.run_kernel(kernel)
}

#[test]
fn fault_runs_are_bit_identical_across_same_seed_runs() {
    let kernel = StridedKernel::new(8, 400, 256);
    let config = GpuConfig {
        faults: Some(FaultConfig {
            seed: 42,
            bitflip_rate: 0.05,
            tag_corruption_rate: 0.01,
            latency_spike_rate: 0.01,
            latency_spike_cycles: 150,
            mshr_exhaust_rate: 0.01,
            fill_bitflip_rate: 0.02,
            wakeup_drop_rate: 0.0,
            writeback_fault_rate: 0.0,
            drop_writebacks: false,
            disable_recovery: false,
        }),
        ..base_config()
    };
    let a = run_compressed(config.clone(), &kernel);
    let b = run_compressed(config, &kernel);
    assert_eq!(a, b);
    assert!(
        a.faults.total() > 0,
        "faults must actually fire: {:?}",
        a.faults
    );
}

#[test]
fn different_seeds_inject_different_sequences() {
    let kernel = StridedKernel::new(8, 400, 256);
    let config = |seed| GpuConfig {
        faults: Some(FaultConfig::bitflips(seed, 0.05)),
        ..base_config()
    };
    let a = run_compressed(config(1), &kernel);
    let b = run_compressed(config(2), &kernel);
    assert_ne!(a, b);
}

#[test]
fn detected_bitflips_recover_as_misses() {
    let kernel = StridedKernel::new(8, 400, 64); // fits the L1: hits dominate
    let clean = run_compressed(base_config(), &kernel);
    let faulty = run_compressed(
        GpuConfig {
            faults: Some(FaultConfig::bitflips(7, 0.1)),
            ..base_config()
        },
        &kernel,
    );
    assert!(faulty.faults.bitflips_injected > 0);
    assert!(faulty.faults.bitflips_detected > 0);
    assert_eq!(
        faulty.faults.bitflips_injected,
        faulty.faults.bitflips_detected + faulty.faults.bitflips_masked
    );
    // Every detected flip became exactly one L1 decode failure + re-fetch.
    assert_eq!(faulty.l1.decode_failures, faulty.faults.bitflips_detected);
    assert!(faulty.l1.misses > clean.l1.misses);
    // The workload still completes all its work.
    assert_eq!(faulty.termination, TerminationReason::Completed);
    assert!(!faulty.timed_out);
    assert_eq!(faulty.instructions, clean.instructions);
    assert_eq!(faulty.loads, clean.loads);
    // Accounting stays coherent under injection.
    assert_eq!(faulty.l1.accesses(), faulty.loads);
}

#[test]
fn decode_errors_reach_the_policy() {
    let kernel = StridedKernel::new(8, 400, 64);
    let mut gpu = Gpu::new(
        &GpuConfig {
            faults: Some(FaultConfig::bitflips(7, 0.1)),
            ..base_config()
        },
        |_| Box::new(FixedPolicy::bdi()) as Box<dyn L1CompressionPolicy>,
    );
    let stats = gpu.run_kernel(&kernel);
    assert!(stats.faults.bitflips_detected > 0);
}

#[test]
fn zero_rate_injection_is_invisible() {
    let kernel = StridedKernel::new(8, 300, 128);
    let without = run_compressed(base_config(), &kernel);
    let with_zero = run_compressed(
        GpuConfig {
            faults: Some(FaultConfig {
                seed: 123,
                ..FaultConfig::default()
            }),
            ..base_config()
        },
        &kernel,
    );
    assert_eq!(without, with_zero);
    assert_eq!(with_zero.faults.total(), 0);
}

#[test]
fn tag_corruption_forces_refetches() {
    let kernel = StridedKernel::new(8, 400, 64);
    let clean = run_compressed(base_config(), &kernel);
    let faulty = run_compressed(
        GpuConfig {
            faults: Some(FaultConfig {
                seed: 5,
                tag_corruption_rate: 0.2,
                ..FaultConfig::default()
            }),
            ..base_config()
        },
        &kernel,
    );
    assert!(faulty.faults.tag_corruptions > 0);
    // Dropped fills mean fewer lines retained and more misses.
    assert!(faulty.l1.fills < clean.l1.fills + faulty.faults.tag_corruptions);
    assert!(faulty.l1.misses > clean.l1.misses);
    assert_eq!(faulty.termination, TerminationReason::Completed);
    assert_eq!(faulty.instructions, clean.instructions);
}

#[test]
fn mshr_exhaustion_and_latency_spikes_slow_but_complete() {
    let kernel = StridedKernel::new(8, 300, 1024); // miss-heavy
    let clean = run_compressed(base_config(), &kernel);
    let faulty = run_compressed(
        GpuConfig {
            faults: Some(FaultConfig {
                seed: 9,
                latency_spike_rate: 0.1,
                latency_spike_cycles: 400,
                mshr_exhaust_rate: 0.05,
                ..FaultConfig::default()
            }),
            ..base_config()
        },
        &kernel,
    );
    assert!(faulty.faults.latency_spikes > 0);
    assert!(faulty.faults.mshr_exhaustions > 0);
    assert!(faulty.faults.spike_cycles_added >= 400 * faulty.faults.latency_spikes);
    assert!(faulty.cycles > clean.cycles);
    assert_eq!(faulty.termination, TerminationReason::Completed);
    assert_eq!(faulty.instructions, clean.instructions);
}

#[test]
fn fill_bitflips_delay_fills_but_preserve_work() {
    let kernel = StridedKernel::new(8, 300, 1024); // miss-heavy: many fills
    let clean = run_compressed(base_config(), &kernel);
    let faulty = run_compressed(
        GpuConfig {
            faults: Some(FaultConfig::fill_bitflips(11, 0.2)),
            ..base_config()
        },
        &kernel,
    );
    assert!(
        faulty.faults.fill_bitflips > 0,
        "return-path flips must fire"
    );
    // Every detected return-path flip costs exactly one retry round trip.
    assert_eq!(
        faulty.faults.fill_retry_cycles,
        faulty.faults.fill_bitflips * base_config().l2_latency
    );
    // Retries delay completion but never lose work.
    assert!(faulty.cycles > clean.cycles);
    assert_eq!(faulty.termination, TerminationReason::Completed);
    assert_eq!(faulty.instructions, clean.instructions);
    assert_eq!(faulty.loads, clean.loads);
}

#[test]
fn fill_bitflips_at_rate_one_still_terminate() {
    // Every first delivery is rejected by parity; the retry is verified
    // and must not be re-rolled, or the kernel would never finish.
    let kernel = StridedKernel::new(4, 100, 256);
    let faulty = run_compressed(
        GpuConfig {
            faults: Some(FaultConfig::fill_bitflips(3, 1.0)),
            ..base_config()
        },
        &kernel,
    );
    assert_eq!(faulty.termination, TerminationReason::Completed);
    assert!(faulty.faults.fill_bitflips > 0);
}

#[test]
fn fill_bitflip_runs_are_deterministic() {
    let kernel = StridedKernel::new(8, 300, 512);
    let config = GpuConfig {
        faults: Some(FaultConfig::fill_bitflips(21, 0.1)),
        ..base_config()
    };
    let a = run_compressed(config.clone(), &kernel);
    let b = run_compressed(config, &kernel);
    assert_eq!(a, b);
    assert!(a.faults.fill_bitflips > 0);
}

#[test]
fn refetch_after_decode_failure_is_not_trusted() {
    // Enable both the L1 hit-path flips (whose recovery refetches lines)
    // and the return-path flips (which corrupt refetches too): both sites
    // must fire in the same run and the workload must still complete.
    let kernel = StridedKernel::new(8, 400, 64); // hit-heavy: many refetches
    let faulty = run_compressed(
        GpuConfig {
            faults: Some(FaultConfig {
                seed: 13,
                bitflip_rate: 0.1,
                fill_bitflip_rate: 0.1,
                ..FaultConfig::default()
            }),
            ..base_config()
        },
        &kernel,
    );
    assert!(faulty.faults.bitflips_detected > 0);
    assert!(faulty.faults.fill_bitflips > 0);
    assert_eq!(faulty.termination, TerminationReason::Completed);
}

#[test]
fn cycle_limit_is_reported_as_termination_reason() {
    let kernel = StridedKernel::new(8, 400, 1024);
    let mut gpu = Gpu::new(
        &GpuConfig {
            max_cycles_per_kernel: 200,
            ..base_config()
        },
        |_| Box::new(UncompressedPolicy) as Box<dyn L1CompressionPolicy>,
    );
    let stats = gpu.run_kernel(&kernel);
    assert!(stats.timed_out);
    assert_eq!(stats.termination, TerminationReason::CycleLimit);
}

#[test]
fn dropped_wakeups_deadlock_and_are_reported_as_such() {
    // At rate 1.0 every refill's wakeup notification is lost: the data
    // lands in the cache, but the warps blocked on it are never re-marked
    // ready. That is architecturally unrecoverable, so the run must end
    // with the watchdog's Deadlock verdict — not CycleLimit (the machine
    // goes fully idle long before the limit) and not FaultAbort (the L1
    // itself is structurally intact).
    let kernel = StridedKernel::new(8, 300, 1024); // miss-heavy: every warp blocks
    let faulty = run_compressed(
        GpuConfig {
            faults: Some(FaultConfig::wakeup_drops(17, 1.0)),
            ..base_config()
        },
        &kernel,
    );
    assert!(
        faulty.faults.wakeup_drops > 0,
        "drops must fire: {:?}",
        faulty.faults
    );
    assert_eq!(faulty.termination, TerminationReason::Deadlock);
    assert!(faulty.timed_out);
    assert!(!faulty.termination.is_clean());
}

#[test]
fn wakeup_drop_runs_are_deterministic() {
    let kernel = StridedKernel::new(8, 300, 512);
    let config = GpuConfig {
        faults: Some(FaultConfig::wakeup_drops(23, 0.02)),
        ..base_config()
    };
    let a = run_compressed(config.clone(), &kernel);
    let b = run_compressed(config, &kernel);
    assert_eq!(a, b);
}

#[test]
fn completed_kernels_report_clean_termination() {
    let kernel = StridedKernel::new(4, 50, 32);
    let stats = run_compressed(base_config(), &kernel);
    assert_eq!(stats.termination, TerminationReason::Completed);
    assert!(stats.termination.is_clean());
    assert_eq!(stats.faults.total(), 0);
}
