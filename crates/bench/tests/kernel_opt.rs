//! Kernel-OPT derived from memoized static runs equals the direct
//! oracle: each kernel replayed under all three static modes on its own
//! GPU (whose policy state persists across kernels), committing the
//! fastest.

use latte_bench::{run_benchmark_with_config, PolicyKind};
use latte_core::{kernel_opt, CompressionMode, KernelOptKernel, StaticBdi, StaticSc};
use latte_gpusim::{Gpu, GpuConfig, Kernel, L1CompressionPolicy, UncompressedPolicy};

/// The reference: three GPUs, one per static mode, stepping through
/// the kernels side by side.
fn replayed(config: &GpuConfig, abbr: &str) -> Vec<KernelOptKernel> {
    let bench = latte_workloads::benchmark(abbr).expect("suite benchmark");
    let mut gpus: [Gpu; 3] = [
        Gpu::new(config, |_| {
            Box::new(UncompressedPolicy) as Box<dyn L1CompressionPolicy>
        }),
        Gpu::new(config, |_| Box::new(StaticBdi::new())),
        Gpu::new(config, |_| Box::new(StaticSc::new())),
    ];
    bench
        .build_kernels()
        .iter()
        .map(|kernel| {
            let cycles = gpus
                .each_mut()
                .map(|gpu| gpu.run_kernel(kernel as &dyn Kernel).cycles);
            let best = (0..3).min_by_key(|&i| cycles[i]).expect("three modes");
            KernelOptKernel {
                best: CompressionMode::ALL[best],
                cycles: cycles[best],
            }
        })
        .collect()
}

/// The memo path: the three static runs as simulation requests, folded
/// over their per-kernel records.
fn from_memo(config: &GpuConfig, abbr: &str) -> Vec<KernelOptKernel> {
    let bench = latte_workloads::benchmark(abbr).expect("suite benchmark");
    let runs = [
        PolicyKind::Baseline,
        PolicyKind::StaticBdi,
        PolicyKind::StaticSc,
    ]
    .map(|policy| run_benchmark_with_config(policy, &bench, config));
    let cycles: Vec<[u64; 3]> = (0..runs[0].kernels.len())
        .map(|k| runs.each_ref().map(|r| r.kernels[k].cycles))
        .collect();
    for run in &runs {
        assert_eq!(run.kernels.len(), cycles.len());
        let total: u64 = run.kernels.iter().map(|k| k.cycles).sum();
        assert_eq!(
            total, run.stats.cycles,
            "{abbr}: kernel records sum to the run"
        );
    }
    kernel_opt(&cycles)
}

#[test]
fn memo_derived_kernel_opt_matches_the_replay() {
    let config = GpuConfig {
        num_sms: 1,
        ..GpuConfig::small()
    };
    for abbr in ["BO", "BFS", "BC"] {
        let reference = replayed(&config, abbr);
        assert!(reference.len() > 1, "{abbr} has several kernels");
        assert_eq!(from_memo(&config, abbr), reference, "{abbr}");
    }
}
