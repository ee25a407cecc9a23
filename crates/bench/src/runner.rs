//! Benchmark runners: execute a [`BenchmarkSpec`] under a compression
//! management policy and collect aggregate statistics.

use crate::report::outln;
use latte_compress::CompressionAlgo;
use latte_core::{AssistWarp, LatteCc, LatteConfig, StaticBdi, StaticBpc, StaticSc};
use latte_energy::{EnergyModel, EnergyReport};
use latte_gpusim::{
    FaultConfig, Gpu, GpuConfig, Kernel, KernelStats, L1CompressionPolicy, ShadowConfig,
    UncompressedPolicy,
};
use latte_oracle::{MemoryOracle, OracleReport};
use latte_workloads::BenchmarkSpec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide intra-simulation thread count, set from the
/// `--sim-threads` command-line flag (default 1 = one shard on the
/// calling thread). Unlike the write-once [`FAULT_INJECTION`] style
/// globals this is a plain atomic: the cycle loop is byte-identical at
/// every thread count, so flipping it mid-process (as the determinism
/// tests do) can never change a result — only how fast it arrives.
static SIM_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the worker-thread count each simulation's cycle loop uses
/// (`--sim-threads`). Values are clamped per-config by the simulator;
/// `0`/`1` mean the unchanged serial path.
pub fn set_sim_threads(n: usize) {
    SIM_THREADS.store(n.max(1), Ordering::SeqCst);
}

/// The current intra-simulation thread count (see [`set_sim_threads`]).
#[must_use]
pub fn sim_threads() -> usize {
    SIM_THREADS.load(Ordering::SeqCst)
}

/// Process-wide fault-injection override, set once from the `--inject`
/// command-line flag. Experiments build their own [`GpuConfig`]s in many
/// places; routing the override through [`run_benchmark_with_config`]
/// means every experiment picks it up without plumbing a parameter
/// through two dozen signatures.
static FAULT_INJECTION: OnceLock<FaultConfig> = OnceLock::new();

/// Enables fault injection for every subsequent benchmark run in this
/// process. Returns `false` if injection was already configured (the
/// first configuration wins).
pub fn set_fault_injection(config: FaultConfig) -> bool {
    FAULT_INJECTION.set(config).is_ok()
}

/// The process-wide fault-injection override, if `--inject` was given.
#[must_use]
pub fn fault_injection() -> Option<FaultConfig> {
    FAULT_INJECTION.get().copied()
}

/// Process-wide shadow-check switch, set once from the `--shadow-check`
/// command-line flag (same write-once pattern as [`set_fault_injection`]).
/// When enabled, every simulation the service computes runs with a
/// [`MemoryOracle`] attached and reports its verification summary into
/// the experiment's captured output.
static SHADOW_CHECK: OnceLock<bool> = OnceLock::new();

/// Enables oracle shadow-checking for every subsequent benchmark run in
/// this process. Returns `false` if the switch was already set.
pub fn set_shadow_check(enabled: bool) -> bool {
    SHADOW_CHECK.set(enabled).is_ok()
}

/// Whether `--shadow-check` is active in this process.
#[must_use]
pub fn shadow_check_enabled() -> bool {
    SHADOW_CHECK.get().copied().unwrap_or(false)
}

/// Process-wide write-back switch, set once from the `--write-back`
/// command-line flag. When enabled, [`experiment_config`] (and thus
/// every experiment that does not pin its own machine) runs the L1 as
/// write-back/write-allocate with dirty compressed lines instead of the
/// default write-through data path. `write_back` *is* part of the config
/// fingerprint, so memoized and stored results never mix the two modes.
static WRITE_BACK: OnceLock<bool> = OnceLock::new();

/// Enables the write-back data path for every subsequent benchmark run
/// in this process. Returns `false` if the switch was already set.
pub fn set_write_back(enabled: bool) -> bool {
    WRITE_BACK.set(enabled).is_ok()
}

/// Whether `--write-back` is active in this process.
#[must_use]
pub fn write_back_enabled() -> bool {
    WRITE_BACK.get().copied().unwrap_or(false)
}

/// Aggregate shadow-check counters across every simulation the memo
/// resolved in this process, by compute or store fill (replays do not
/// re-count). See [`crate::sim::shadow_tally`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowTally {
    /// Simulations that ran with an oracle attached.
    pub sims: u64,
    /// Loads whose bytes were compared against the reference model.
    pub loads_checked: u64,
    /// Structural checkpoints taken.
    pub checkpoints: u64,
    /// Violations detected (data integrity + structural).
    pub violations: u64,
}

/// The compression management policies under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Uncompressed baseline.
    Baseline,
    /// Static BDI on every fill.
    StaticBdi,
    /// Static SC on every fill.
    StaticSc,
    /// Static BPC on every fill.
    StaticBpc,
    /// LATTE-CC with BDI + SC component algorithms.
    LatteCc,
    /// LATTE-CC with BDI + BPC component algorithms (Fig 18).
    LatteCcBdiBpc,
    /// The generalised four-mode controller (None/BDI/BPC/SC) — the §V-E
    /// extension.
    LatteCcMulti,
    /// Adaptive-Hit-Count (§V-D).
    AdaptiveHitCount,
    /// Adaptive-CMP (§V-D).
    AdaptiveCmp,
    /// CABA-style software assist warps (arXiv 1602.01348): BDI in
    /// software, gated EP-by-EP on latency tolerance.
    AssistWarp,
}

/// Every policy, in report order.
pub const ALL_POLICIES: [PolicyKind; 10] = [
    PolicyKind::Baseline,
    PolicyKind::StaticBdi,
    PolicyKind::StaticSc,
    PolicyKind::StaticBpc,
    PolicyKind::LatteCc,
    PolicyKind::LatteCcBdiBpc,
    PolicyKind::LatteCcMulti,
    PolicyKind::AdaptiveHitCount,
    PolicyKind::AdaptiveCmp,
    PolicyKind::AssistWarp,
];

impl PolicyKind {
    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Baseline => "Baseline",
            PolicyKind::StaticBdi => "Static-BDI",
            PolicyKind::StaticSc => "Static-SC",
            PolicyKind::StaticBpc => "Static-BPC",
            PolicyKind::LatteCc => "LATTE-CC",
            PolicyKind::LatteCcBdiBpc => "LATTE-CC-BDI-BPC",
            PolicyKind::LatteCcMulti => "LATTE-CC-4mode",
            PolicyKind::AdaptiveHitCount => "Adaptive-Hit-Count",
            PolicyKind::AdaptiveCmp => "Adaptive-CMP",
            PolicyKind::AssistWarp => "Assist-Warp",
        }
    }

    /// Builds a fresh policy instance, tuned to `gpu_config`'s L1. The
    /// five set-sampling policies are all [`LatteCc`]s.
    #[must_use]
    pub fn build(self, gpu_config: &GpuConfig) -> Box<dyn L1CompressionPolicy> {
        PolicySpec::named(self, gpu_config).build()
    }

    /// Whether this policy is a [`LatteCc`] built from a
    /// [`PolicySpec::latte`] config.
    #[must_use]
    pub(crate) fn is_latte_family(self) -> bool {
        matches!(
            self,
            PolicyKind::LatteCc
                | PolicyKind::LatteCcBdiBpc
                | PolicyKind::LatteCcMulti
                | PolicyKind::AdaptiveHitCount
                | PolicyKind::AdaptiveCmp
        )
    }
}

/// The controller config the LATTE-family policies start from on
/// `gpu_config`'s L1.
#[must_use]
pub(crate) fn latte_config(gpu_config: &GpuConfig) -> LatteConfig {
    LatteConfig {
        num_l1_sets: gpu_config.l1_geometry.num_sets(),
        l1_base_hit_latency: gpu_config.l1_hit_latency as f64,
        ..LatteConfig::paper()
    }
}

/// A policy as a simulation request names it: its kind, and the
/// controller config a LATTE-family kind runs under (other kinds ignore
/// it). This is the only way to configure the controller: ablations
/// send explicit configs, and every other request uses the default
/// controller config ([`latte_config`]).
#[derive(Debug, Clone)]
pub struct PolicySpec {
    /// The policy.
    pub kind: PolicyKind,
    /// The controller config before the kind's own option list.
    pub latte: LatteConfig,
}

impl PolicySpec {
    /// `kind` with the default controller config for `gpu_config`
    /// ([`latte_config`]).
    #[must_use]
    pub(crate) fn named(kind: PolicyKind, gpu_config: &GpuConfig) -> PolicySpec {
        PolicySpec {
            kind,
            latte: latte_config(gpu_config),
        }
    }

    /// Builds a fresh policy instance.
    #[must_use]
    pub fn build(&self) -> Box<dyn L1CompressionPolicy> {
        use CompressionAlgo::{Bdi, Bpc, Sc};
        let latte = self.latte.clone();
        match self.kind {
            PolicyKind::Baseline => Box::new(UncompressedPolicy),
            PolicyKind::StaticBdi => Box::new(StaticBdi::new()),
            PolicyKind::StaticSc => Box::new(StaticSc::new()),
            PolicyKind::StaticBpc => Box::new(StaticBpc::new()),
            PolicyKind::LatteCc => Box::new(LatteCc::new(latte)),
            PolicyKind::LatteCcBdiBpc => Box::new(LatteCc::new(LatteConfig {
                options: vec![CompressionAlgo::None, Bdi, Bpc],
                ..latte
            })),
            // The extension arbitrates four options without the
            // three-mode controller's demotion and calibration hooks.
            PolicyKind::LatteCcMulti => Box::new(LatteCc::new(
                LatteConfig {
                    options: vec![CompressionAlgo::None, Bdi, Bpc, Sc],
                    ..latte
                }
                .without_hooks(),
            )),
            PolicyKind::AdaptiveHitCount => Box::new(LatteCc::adaptive_hit_count(latte)),
            PolicyKind::AdaptiveCmp => Box::new(LatteCc::adaptive_cmp(latte)),
            PolicyKind::AssistWarp => Box::new(AssistWarp::new()),
        }
    }
}

/// One kernel of a benchmark run: what Kernel-OPT and the Fig 15
/// agreement analysis read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelSummary {
    /// Execution cycles.
    pub cycles: u64,
    /// EPs the policies spent in [none, low-latency, high-capacity]
    /// mode during this kernel, summed over SMs.
    pub eps_in_mode: [u64; 3],
}

/// Aggregate result of one benchmark under one policy.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark abbreviation.
    pub abbr: &'static str,
    /// Policy evaluated.
    pub policy: PolicyKind,
    /// Summed statistics over all kernels.
    pub stats: KernelStats,
    /// Energy report over the whole benchmark.
    pub energy: EnergyReport,
    /// Per-SM policy decision reports after the final kernel.
    pub reports: Vec<latte_gpusim::PolicyReport>,
    /// Per-kernel records, in execution order.
    pub kernels: Vec<KernelSummary>,
    /// Oracle verification report, when the run was shadow-checked.
    pub shadow: Option<OracleReport>,
}

impl BenchResult {
    /// Total cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Speedup of this result relative to `baseline` (cycles ratio).
    #[must_use]
    pub fn speedup_over(&self, baseline: &BenchResult) -> f64 {
        baseline.stats.cycles as f64 / self.stats.cycles.max(1) as f64
    }

    /// L1 miss reduction relative to `baseline` (positive = fewer misses).
    #[must_use]
    pub fn miss_reduction_over(&self, baseline: &BenchResult) -> f64 {
        let b = baseline.stats.l1.misses.max(1) as f64;
        (b - self.stats.l1.misses as f64) / b
    }

    /// Energy relative to `baseline` (1.0 = equal, <1 = saves energy).
    #[must_use]
    pub fn energy_ratio_over(&self, baseline: &BenchResult) -> f64 {
        self.energy.total_nj() / baseline.energy.total_nj().max(1e-9)
    }
}

/// The default experiment machine: a scaled-down Table II configuration
/// (fewer SMs, proportional L2) chosen for wall-clock reasons; per-SM
/// behaviour is unchanged. Experiments that need the full 15-SM machine
/// construct [`GpuConfig::paper`] themselves.
#[must_use]
pub fn experiment_config() -> GpuConfig {
    GpuConfig {
        num_sms: 2,
        faults: fault_injection(),
        write_back: write_back_enabled(),
        ..GpuConfig::small()
    }
}

/// Runs `bench` under `policy` on the default experiment machine,
/// memoized by the simulation service (see [`crate::sim`]).
#[must_use]
pub fn run_benchmark(policy: PolicyKind, bench: &BenchmarkSpec) -> BenchResult {
    run_benchmark_with_config(policy, bench, &experiment_config())
}

/// Runs `bench` under `policy` on a specific machine configuration.
///
/// Routed through the memoized simulation service: each unique
/// (policy, benchmark, config) combination is simulated at
/// most once per process, and repeat requests replay the stored result
/// *and* its diagnostics into the caller's output capture. Experiments
/// that must genuinely re-execute (e.g. a determinism self-check) call
/// [`run_benchmark_uncached`] instead.
#[must_use]
pub fn run_benchmark_with_config(
    policy: PolicyKind,
    bench: &BenchmarkSpec,
    config: &GpuConfig,
) -> BenchResult {
    crate::sim::run_cached(policy, bench, config)
}

/// Runs `bench` under `policy` on `config`, **bypassing** the simulation
/// memo cache: the simulator genuinely executes, and diagnostics are
/// emitted directly into the current capture. The cached path
/// ([`run_benchmark_with_config`]) is observationally identical and
/// almost always what you want; this exists for callers whose *point* is
/// re-execution, like `resilience`'s determinism self-check.
#[must_use]
pub fn run_benchmark_uncached(
    policy: PolicyKind,
    bench: &BenchmarkSpec,
    config: &GpuConfig,
) -> BenchResult {
    let spec = PolicySpec::named(policy, config);
    run_instrumented(&spec, bench, config, shadow_check_enabled())
}

/// Runs `bench` under `policy` with the oracle shadow check attached,
/// regardless of the `--shadow-check` flag, bypassing the memo cache.
/// This is the entry point for the `verify` experiment and the
/// verification tests, which need the report even when the process-wide
/// switch is off.
#[must_use]
pub fn run_benchmark_shadowed(
    policy: PolicyKind,
    bench: &BenchmarkSpec,
    config: &GpuConfig,
) -> (BenchResult, OracleReport) {
    // Outside the memo, so not in the process-wide tally: explicit
    // shadowed runs (including the `verify` experiment's deliberate
    // corruption demos) must not trip the driver's "--shadow-check found
    // violations" exit.
    let mut result = run_instrumented(&PolicySpec::named(policy, config), bench, config, true);
    let report = result.shadow.take().unwrap_or_default();
    result.shadow = Some(report.clone());
    (result, report)
}

/// The one place a simulator is actually constructed and driven for a
/// benchmark. `shadowed` attaches a [`MemoryOracle`] before the first
/// kernel and folds its report into the result (and the output capture)
/// afterwards.
pub(crate) fn run_instrumented(
    spec: &PolicySpec,
    bench: &BenchmarkSpec,
    config: &GpuConfig,
    shadowed: bool,
) -> BenchResult {
    let mut config = config.clone();
    if config.faults.is_none() {
        config.faults = fault_injection();
    }
    if config.sim_threads <= 1 {
        // Configs that don't pin a thread count inherit the process-wide
        // `--sim-threads` setting. Results are byte-identical either way
        // (which is why `sim_threads` stays outside the fingerprint).
        config.sim_threads = sim_threads();
    }
    let policy = spec.kind;
    let mut gpu = Gpu::new(&config, |_| spec.build());
    let handle = if shadowed {
        let (oracle, handle) = MemoryOracle::new();
        gpu.set_shadow_check(Box::new(oracle), ShadowConfig::default());
        Some(handle)
    } else {
        None
    };
    let kernels = bench.build_kernels();
    let mut stats = KernelStats::default();
    let mut summaries = Vec::with_capacity(kernels.len());
    for kernel in &kernels {
        let ks = gpu.run_kernel(kernel as &dyn Kernel);
        // Simulator diagnostics (the watchdog's audit) join the same
        // per-experiment capture as the runner's own output.
        for line in gpu.take_diagnostics() {
            outln!("{line}");
        }
        // Policy reports reset at each kernel start, so these count
        // this kernel's EPs only.
        let mut eps_in_mode = [0; 3];
        for report in gpu.policy_reports() {
            for (sum, eps) in eps_in_mode.iter_mut().zip(report.eps_in_mode) {
                *sum += eps;
            }
        }
        summaries.push(KernelSummary {
            cycles: ks.cycles,
            eps_in_mode,
        });
        if !ks.termination.is_clean() {
            outln!(
                "latte-bench: {}/{} under {} stopped early: {} after {} cycles \
                 (statistics for this benchmark are partial)",
                bench.abbr,
                kernel.name(),
                policy.name(),
                ks.termination,
                ks.cycles
            );
        }
        stats.accumulate(&ks);
    }
    let shadow = handle.map(|h| {
        let report = h.report();
        // The summary prints into the capture, so memo-cache replays of a
        // shadow-checked simulation reproduce it byte-for-byte.
        outln!(
            "[shadow] {}/{}: {} loads checked, {} checkpoints, {} violation(s)",
            bench.abbr,
            policy.name(),
            report.loads_checked,
            report.checkpoints,
            report.violations_total
        );
        for violation in report.violations.iter().take(3) {
            outln!("[shadow]   {violation}");
        }
        report
    });
    crate::timing::record_epoch_stats(&gpu.take_epoch_stats());
    let energy = EnergyModel::paper().account(&stats);
    BenchResult {
        abbr: bench.abbr,
        policy,
        stats,
        energy,
        reports: gpu.policy_reports(),
        kernels: summaries,
        shadow,
    }
}

/// Geometric mean of a nonempty slice.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn all_policies_have_unique_names() {
        let mut names: Vec<&str> = ALL_POLICIES.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_POLICIES.len());
    }

    #[test]
    fn runner_executes_a_small_benchmark() {
        let bench = latte_workloads::benchmark("NW").expect("NW exists");
        let baseline = run_benchmark(PolicyKind::Baseline, &bench);
        let bdi = run_benchmark(PolicyKind::StaticBdi, &bench);
        assert!(baseline.stats.instructions > 0);
        assert_eq!(baseline.stats.instructions, bdi.stats.instructions);
        assert!(bdi.energy.total_nj() > 0.0);
    }
}
