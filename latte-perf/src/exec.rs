//! One simulation, driven through the layers' public entry points:
//! policies from `PolicyKind::build`, `Gpu::run_kernel` per kernel, and
//! `EnergyModel::account` over the summed statistics.

use crate::trace::{CountingKernel, CountingPolicy, CountingShadow, HookCounters, SpanLog};
use crate::workload::JobSpec;
use latte_bench::timing::Stopwatch;
use latte_bench::PolicyKind;
use latte_energy::{EnergyModel, EnergyReport};
use latte_gpusim::{
    EpochStats, Fingerprinter, Gpu, GpuConfig, Kernel, KernelStats, L1CompressionPolicy,
    PolicyReport, ShadowCheck, ShadowConfig, TerminationReason,
};
use latte_oracle::MemoryOracle;
use latte_workloads::{BenchmarkSpec, SyntheticKernel};
use std::sync::Arc;

/// A simulation ready to run: its kernels are built during set-up.
#[derive(Debug)]
pub struct Job {
    pub policy: PolicyKind,
    pub bench: BenchmarkSpec,
    pub kernels: Vec<SyntheticKernel>,
    pub config: GpuConfig,
    pub shadowed: bool,
}

impl Job {
    pub fn build(spec: JobSpec) -> Job {
        Job {
            kernels: spec.bench.build_kernels(),
            policy: spec.policy,
            bench: spec.bench,
            config: spec.config,
            shadowed: spec.shadowed,
        }
    }

    /// `<policy> <benchmark>`, the job's key in `expected.txt`.
    pub fn key(&self) -> String {
        format!("{} {}", self.policy.name(), self.bench.abbr)
    }
}

/// What one simulation produced.
#[derive(Debug, Clone)]
pub struct SimRun {
    pub digest: u128,
    /// Host seconds from building the GPU to the energy account.
    pub secs: f64,
    pub stats: KernelStats,
    pub termination: TerminationReason,
    pub violations: u64,
    pub epoch: EpochStats,
}

/// Where a traced simulation records: the shared hook counters, the span
/// log, the span that caused this simulation, and the host time of the
/// entry points timed from outside.
pub struct SimTrace<'a> {
    pub hooks: &'a Arc<HookCounters>,
    pub spans: &'a mut SpanLog,
    pub parent: Option<usize>,
    pub run_kernel_s: f64,
    pub run_kernel_calls: u64,
    pub account_s: f64,
}

/// The output digest of one simulation, over named fields only, so that
/// adding a counter elsewhere does not change it: cycles, instructions,
/// L1/L2 hits, misses and fills, DRAM accesses, write-backs, every SM's
/// EPs per mode, and the bits of the energy total.
pub fn digest(stats: &KernelStats, reports: &[PolicyReport], energy: &EnergyReport) -> u128 {
    let mut fp = Fingerprinter::new();
    fp.write_str("latte-perf/digest/v1");
    for v in [stats.cycles, stats.instructions] {
        fp.write_u64(v);
    }
    for cache in [&stats.l1, &stats.l2] {
        fp.write_u64(cache.hits);
        fp.write_u64(cache.misses);
        fp.write_u64(cache.fills);
    }
    fp.write_u64(stats.dram_accesses);
    fp.write_u64(stats.writebacks);
    fp.write_usize(reports.len());
    for report in reports {
        for eps in report.eps_in_mode {
            fp.write_u64(eps);
        }
    }
    fp.write_f64(energy.total_nj());
    fp.finish()
}

/// Runs `job` once. With `trace`, the policy, kernels, op streams and
/// oracle are wrapped in counting decorators and spans are recorded.
pub fn run_sim(job: &Job, mut trace: Option<&mut SimTrace<'_>>) -> SimRun {
    let watch = Stopwatch::start();
    let hooks = trace.as_ref().map(|t| Arc::clone(t.hooks));
    let sim_span = trace.as_mut().map(|t| {
        let label = format!("{}/{}", job.policy.name(), job.bench.abbr);
        t.spans.open("sim", label, t.parent)
    });
    let config = &job.config;
    let mut gpu = Gpu::new(config, |_| {
        let policy = job.policy.build(config);
        match &hooks {
            Some(h) => {
                Box::new(CountingPolicy::new(policy, Arc::clone(h))) as Box<dyn L1CompressionPolicy>
            }
            None => policy,
        }
    });
    let oracle = job.shadowed.then(|| {
        let (oracle, handle) = MemoryOracle::new();
        let check: Box<dyn ShadowCheck> = match &hooks {
            Some(h) => Box::new(CountingShadow::new(Box::new(oracle), Arc::clone(h))),
            None => Box::new(oracle),
        };
        gpu.set_shadow_check(check, ShadowConfig::default());
        handle
    });

    let mut stats = KernelStats::default();
    for kernel in &job.kernels {
        let ks = match (trace.as_deref_mut(), &hooks) {
            (Some(t), Some(h)) => {
                let counted = CountingKernel::new(kernel, Arc::clone(h));
                let span = t
                    .spans
                    .open("gpusim.run_kernel", kernel.name().to_owned(), sim_span);
                let timer = Stopwatch::start();
                let ks = gpu.run_kernel(&counted);
                t.run_kernel_s += timer.elapsed_secs();
                t.run_kernel_calls += 1;
                t.spans.close(span);
                ks
            }
            _ => gpu.run_kernel(kernel),
        };
        stats.accumulate(&ks);
    }

    let energy = match trace.as_deref_mut() {
        Some(t) => {
            let span = t.spans.open("energy.account", String::new(), sim_span);
            let timer = Stopwatch::start();
            let energy = EnergyModel::paper().account(&stats);
            t.account_s += timer.elapsed_secs();
            t.spans.close(span);
            energy
        }
        None => EnergyModel::paper().account(&stats),
    };
    let reports = gpu.policy_reports();
    let epoch = gpu.take_epoch_stats();
    // Dropping the GPU drops the decorators, which fold their tallies
    // into the shared counters.
    drop(gpu);
    let violations = oracle.map_or(0, |h| h.report().violations_total);
    let secs = watch.elapsed_secs();
    if let (Some(t), Some(span)) = (trace, sim_span) {
        t.spans.close(span);
    }
    SimRun {
        digest: digest(&stats, &reports, &energy),
        secs,
        termination: stats.termination,
        violations,
        stats,
        epoch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latte_bench::ALL_POLICIES;

    /// Wrapping every layer in counting decorators must not change a
    /// single output bit, and both paths must match the bench crate's own
    /// runner, for all ten policies, with and without the oracle.
    #[test]
    fn decorated_and_plain_runs_agree_with_the_bench_runner() {
        let bench = latte_workloads::benchmark("NW").expect("NW is in the suite");
        let config = GpuConfig {
            num_sms: 1,
            ..GpuConfig::small()
        };
        for shadowed in [false, true] {
            for policy in ALL_POLICIES {
                let job = Job::build(JobSpec {
                    policy,
                    bench: bench.clone(),
                    config: config.clone(),
                    shadowed,
                });
                let plain = run_sim(&job, None);
                let hooks = Arc::new(HookCounters::default());
                let mut spans = SpanLog::new();
                let mut trace = SimTrace {
                    hooks: &hooks,
                    spans: &mut spans,
                    parent: None,
                    run_kernel_s: 0.0,
                    run_kernel_calls: 0,
                    account_s: 0.0,
                };
                let traced = run_sim(&job, Some(&mut trace));
                let reference = if shadowed {
                    latte_bench::run_benchmark_shadowed(policy, &bench, &config).0
                } else {
                    latte_bench::run_benchmark_uncached(policy, &bench, &config)
                };
                let expected = digest(&reference.stats, &reference.reports, &reference.energy);
                let name = policy.name();
                assert_eq!(
                    plain.digest, expected,
                    "{name} shadowed={shadowed}: plain run"
                );
                assert_eq!(
                    traced.digest, expected,
                    "{name} shadowed={shadowed}: traced run"
                );
                assert_eq!(plain.violations, 0);
                assert!(plain.termination.is_clean());
                assert!(hooks.calls(crate::trace::Hook::NextOp) > 0);
                assert!(hooks.calls(crate::trace::Hook::CompressFill) > 0);
                assert_eq!(
                    hooks.oracle_total().0 > 0,
                    shadowed,
                    "{name}: the oracle decorator counts exactly when attached"
                );
            }
        }
    }
}
