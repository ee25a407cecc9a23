//! Property tests for the GPU simulator: arbitrary (well-formed) kernels
//! complete, conserve instructions, and produce internally consistent
//! statistics under every scheduler and policy configuration.

use latte_cache::LineAddr;
use latte_compress::{CacheLine, Compression, CompressionAlgo};
use latte_gpusim::{
    Gpu, GpuConfig, Kernel, L1CompressionPolicy, Op, OpStream, SchedulerKind, UncompressedPolicy,
    VecStream,
};
use proptest::prelude::*;

/// A kernel built from explicit per-warp op vectors (barrier-free; barrier
/// correctness has dedicated tests).
#[derive(Debug, Clone)]
struct OpsKernel {
    warps: Vec<Vec<Op>>,
}

impl Kernel for OpsKernel {
    fn name(&self) -> &str {
        "proptest-kernel"
    }

    fn warps_on_sm(&self, sm: usize) -> usize {
        if sm == 0 {
            self.warps.len()
        } else {
            0
        }
    }

    fn warp_program(&self, _sm: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(VecStream::new(self.warps[warp].clone()))
    }

    fn line_data(&self, addr: LineAddr) -> CacheLine {
        let words: Vec<u32> = (0..32)
            .map(|i| {
                (addr.line_number() as u32)
                    .wrapping_mul(0x9e37)
                    .wrapping_add(i)
            })
            .collect();
        CacheLine::from_u32_words(&words)
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1u32..20).prop_map(|cycles| Op::Compute { cycles }),
        4 => (0u64..64).prop_map(|line| Op::Load { addr: line * 128 }),
        2 => (0u64..64).prop_map(|line| Op::LoadAsync { addr: line * 128 }),
        1 => (0u64..64, 0u64..4, any::<u8>()).prop_map(|(line, sector, fill)| Op::Store {
            addr: line * 128 + sector * 32,
            data: [fill; 32],
        }),
    ]
}

fn kernel_strategy() -> impl Strategy<Value = OpsKernel> {
    prop::collection::vec(prop::collection::vec(op_strategy(), 0..60), 1..12)
        .prop_map(|warps| OpsKernel { warps })
}

fn config(kind: SchedulerKind) -> GpuConfig {
    GpuConfig {
        num_sms: 1,
        scheduler: kind,
        max_cycles_per_kernel: 2_000_000,
        ..GpuConfig::small()
    }
}

/// A policy compressing everything to a fixed fraction, for stressing the
/// compressed paths under random traffic.
struct FixedSc;
impl L1CompressionPolicy for FixedSc {
    fn name(&self) -> &'static str {
        "FixedSc"
    }
    fn compress_fill(&mut self, _set: usize, _line: &CacheLine) -> (CompressionAlgo, Compression) {
        (CompressionAlgo::Sc, Compression::new(40))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_kernels_complete_and_conserve_instructions(kernel in kernel_strategy()) {
        let expected: u64 = kernel.warps.iter().map(|w| w.len() as u64 + 1).sum(); // +1 Exit
        let mut gpu = Gpu::new(&config(SchedulerKind::Gto), |_| Box::new(UncompressedPolicy));
        let stats = gpu.run_kernel(&kernel);
        prop_assert!(!stats.timed_out);
        prop_assert_eq!(stats.instructions, expected);
        let loads = kernel
            .warps
            .iter()
            .flatten()
            .filter(|o| matches!(o, Op::Load { .. } | Op::LoadAsync { .. }))
            .count() as u64;
        prop_assert_eq!(stats.loads, loads);
        prop_assert_eq!(stats.l1.accesses(), loads);
    }

    #[test]
    fn schedulers_agree_on_work_done(kernel in kernel_strategy()) {
        let run = |kind| {
            let mut gpu = Gpu::new(&config(kind), |_| {
                Box::new(UncompressedPolicy) as Box<dyn L1CompressionPolicy>
            });
            gpu.run_kernel(&kernel)
        };
        let gto = run(SchedulerKind::Gto);
        let lrr = run(SchedulerKind::Lrr);
        prop_assert_eq!(gto.instructions, lrr.instructions);
        prop_assert_eq!(gto.loads, lrr.loads);
        prop_assert!(!gto.timed_out && !lrr.timed_out);
    }

    #[test]
    fn compressed_runs_complete_with_consistent_stats(kernel in kernel_strategy()) {
        let mut gpu = Gpu::new(&config(SchedulerKind::Gto), |_| {
            Box::new(FixedSc) as Box<dyn L1CompressionPolicy>
        });
        let stats = gpu.run_kernel(&kernel);
        prop_assert!(!stats.timed_out);
        // Every hit on a compressed line decompresses; every decompression
        // implies a hit.
        prop_assert!(stats.decompressions.total() <= stats.l1.hits);
        prop_assert_eq!(
            stats.decompressions.get(CompressionAlgo::Sc),
            stats.decompressions.total()
        );
        // Compressions happen once per fill.
        prop_assert_eq!(stats.compressions.get(CompressionAlgo::Sc), stats.l1.fills);
    }

    #[test]
    fn runs_are_reproducible(kernel in kernel_strategy()) {
        let run = || {
            let mut gpu = Gpu::new(&config(SchedulerKind::Gto), |_| {
                Box::new(FixedSc) as Box<dyn L1CompressionPolicy>
            });
            gpu.run_kernel(&kernel)
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn extra_hit_latency_never_speeds_up_hit_bound_kernels(
        lines in 1u64..8,
        loads in 20usize..80,
    ) {
        // All warps loop over a tiny line set: pure hit workload. Adding
        // hit latency must not make it faster.
        let warps: Vec<Vec<Op>> = (0..4)
            .map(|w| {
                (0..loads)
                    .map(|i| Op::Load {
                        addr: (((i as u64) + w) % lines) * 128,
                    })
                    .collect()
            })
            .collect();
        let kernel = OpsKernel { warps };
        let run = |extra| {
            let mut gpu = Gpu::new(
                &GpuConfig {
                    extra_hit_latency: extra,
                    ..config(SchedulerKind::Gto)
                },
                |_| Box::new(UncompressedPolicy) as Box<dyn L1CompressionPolicy>,
            );
            gpu.run_kernel(&kernel).cycles
        };
        prop_assert!(run(12) >= run(0));
    }
}

/// Barriers with equal arrival counts across a block always release.
#[test]
fn uniform_barriers_release() {
    let warps: Vec<Vec<Op>> = (0..6)
        .map(|w| {
            vec![
                Op::Compute { cycles: 5 + w },
                Op::Barrier,
                Op::Load {
                    addr: 128 * w as u64,
                },
                Op::Barrier,
                Op::Compute { cycles: 3 },
            ]
        })
        .collect();
    let kernel = OpsKernel { warps };
    let mut gpu = Gpu::new(
        &GpuConfig {
            warps_per_block: 3,
            ..config(SchedulerKind::Gto)
        },
        |_| Box::new(UncompressedPolicy),
    );
    let stats = gpu.run_kernel(&kernel);
    assert!(!stats.timed_out);
    assert!(
        stats.barrier_wait_cycles > 0,
        "staggered arrivals must wait"
    );
}
