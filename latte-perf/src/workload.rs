//! The five workloads: which simulations (or which driver run) make up one
//! round, and why each was chosen.

use latte_bench::runner::experiment_config;
use latte_bench::PolicyKind;
use latte_gpusim::GpuConfig;
use latte_workloads::{mix64, BenchmarkSpec};

/// One simulation of a batch, before its kernels are built.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub policy: PolicyKind,
    pub bench: BenchmarkSpec,
    pub config: GpuConfig,
    /// Attach the differential oracle (`MemoryOracle`).
    pub shadowed: bool,
}

/// What one round of a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Body {
    /// A fixed batch of simulations, run one after another in this
    /// process through `Gpu::run_kernel`.
    Sims(fn(u64) -> Vec<JobSpec>),
    /// The experiment driver over [`SWEEP_EXPERIMENT`] in a fresh child
    /// process per round (the memo cache is process-wide, so a second
    /// round in one process would only replay).
    Sweep,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Rounds run even when `--seconds` has already elapsed. Fixes the
    /// smallest sample count, and with it the tail percentile.
    pub min_rounds: usize,
    /// Host-time samples (simulations) per round.
    pub sims_per_round: usize,
    pub body: Body,
}

impl WorkloadDef {
    /// The tail percentile reported as `sim_tail_ms`: chosen from the
    /// guaranteed sample count (`min_rounds` x `sims_per_round`
    /// per-simulation host times), so every run of a workload reports the
    /// same percentile.
    pub fn tail_percentile(&self) -> f64 {
        crate::stats::tail_percentile(self.min_rounds * self.sims_per_round)
    }
}

/// The `sweep-fig17` workload's one experiment: the driver's `fig17`
/// (the adaptive-policy comparison), exactly as `latte-bench fig17`
/// registers it.
pub const SWEEP_EXPERIMENT: latte_bench::Experiment = (
    "fig17",
    "adaptive policy comparison",
    latte_bench::experiments::fig17::run,
);

/// What `fig17` simulates: these policies over the C-Sens benchmarks on
/// the default experiment machine.
pub const SWEEP_POLICIES: [PolicyKind; 4] = [
    PolicyKind::Baseline,
    PolicyKind::LatteCc,
    PolicyKind::AdaptiveHitCount,
    PolicyKind::AdaptiveCmp,
];

/// The CSV `fig17` writes, whose bytes are digested.
pub const SWEEP_CSV: &str = "fig17_adaptive_comparison";

/// Worker threads asked of the sweep's experiment driver (`nproc` here).
/// The pool starts no more workers than there are experiments, so the
/// one-experiment sweep runs on a single worker.
pub const SWEEP_JOBS: usize = 2;

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "csens-adaptive",
        why: "11 C-Sens benchmarks x LATTE-CC, LATTE-CC-4mode, Adaptive-CMP on 2 SMs: the paper's headline path, where the controller and compressor probes work most",
        min_rounds: 4,
        sims_per_round: 33,
        body: Body::Sims(csens_adaptive),
    },
    WorkloadDef {
        name: "cinsens-baseline",
        why: "12 C-InSens benchmarks, uncompressed: streaming with no compression, so gpusim core and op generation dominate and core/compress gains must show no change",
        min_rounds: 9,
        sims_per_round: 12,
        body: Body::Sims(cinsens_baseline),
    },
    WorkloadDef {
        name: "writeback-oracle",
        why: "write-heavy WSC/WRR/WAC x Baseline, LATTE-CC, Assist-Warp with write-back L1 and the oracle attached: the only store, dirty write-back and shadow paths",
        min_rounds: 12,
        sims_per_round: 9,
        body: Body::Sims(writeback_oracle),
    },
    WorkloadDef {
        name: "paper15-sharded",
        why: "the 15-SM Table II machine with 2 sim threads on SS, KM, MM, PF, BC, FW x Baseline, LATTE-CC: the only workload through the epoch barrier and L2 arbiter",
        min_rounds: 4,
        sims_per_round: 12,
        body: Body::Sims(paper15_sharded),
    },
    WorkloadDef {
        name: "sweep-fig17",
        why: "latte-bench fig17 (4 policies x 11 C-Sens) through the experiment driver with 2 jobs, a fresh result store and a CSV: the only pool, memo, store and CSV path",
        min_rounds: 3,
        sims_per_round: 44,
        body: Body::Sweep,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What `--seed N` XORs into every generated `BenchmarkSpec::seed`. Seed 0
/// leaves the registry's specs unchanged, so its outputs can be pinned.
pub fn seed_mask(seed: u64) -> u64 {
    if seed == 0 {
        0
    } else {
        mix64(seed)
    }
}

fn cross(
    benches: Vec<BenchmarkSpec>,
    policies: &[PolicyKind],
    config: &GpuConfig,
    shadowed: bool,
    seed: u64,
) -> Vec<JobSpec> {
    let mask = seed_mask(seed);
    benches
        .into_iter()
        .flat_map(|mut bench| {
            bench.seed ^= mask;
            policies.iter().map(move |&policy| JobSpec {
                policy,
                bench: bench.clone(),
                config: config.clone(),
                shadowed,
            })
        })
        .collect()
}

fn csens_adaptive(seed: u64) -> Vec<JobSpec> {
    let policies = [
        PolicyKind::LatteCc,
        PolicyKind::LatteCcMulti,
        PolicyKind::AdaptiveCmp,
    ];
    cross(
        latte_workloads::c_sens(),
        &policies,
        &experiment_config(),
        false,
        seed,
    )
}

fn cinsens_baseline(seed: u64) -> Vec<JobSpec> {
    cross(
        latte_workloads::c_insens(),
        &[PolicyKind::Baseline],
        &experiment_config(),
        false,
        seed,
    )
}

fn writeback_oracle(seed: u64) -> Vec<JobSpec> {
    let config = GpuConfig {
        write_back: true,
        ..experiment_config()
    };
    let policies = [
        PolicyKind::Baseline,
        PolicyKind::LatteCc,
        PolicyKind::AssistWarp,
    ];
    cross(
        latte_workloads::write_heavy_suite(),
        &policies,
        &config,
        true,
        seed,
    )
}

fn paper15_sharded(seed: u64) -> Vec<JobSpec> {
    let config = GpuConfig {
        sim_threads: 2,
        ..GpuConfig::paper()
    };
    // FW first: it is the shortest, and set-up warms up on the first job.
    let benches = ["FW", "SS", "KM", "MM", "PF", "BC"]
        .iter()
        .filter_map(|abbr| latte_workloads::benchmark(abbr))
        .collect();
    cross(
        benches,
        &[PolicyKind::Baseline, PolicyKind::LatteCc],
        &config,
        false,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_identity() {
        assert_eq!(seed_mask(0), 0);
        for w in &WORKLOADS {
            if let Body::Sims(build) = w.body {
                let plain = build(0);
                let seeded = build(1);
                assert_eq!(plain.len(), seeded.len());
                for (a, b) in plain.iter().zip(&seeded) {
                    let registry = latte_workloads::suite()
                        .into_iter()
                        .chain(latte_workloads::write_heavy_suite())
                        .find(|s| s.abbr == a.bench.abbr)
                        .map(|s| s.seed);
                    assert_eq!(
                        Some(a.bench.seed),
                        registry,
                        "{}: seed 0 changed a spec",
                        w.name
                    );
                    assert_eq!(b.bench.seed, a.bench.seed ^ mix64(1));
                }
            }
        }
    }

    #[test]
    fn batches_match_their_declared_sizes() {
        for w in &WORKLOADS {
            let n = match w.body {
                Body::Sims(build) => build(0).len(),
                Body::Sweep => SWEEP_POLICIES.len() * latte_workloads::c_sens().len(),
            };
            assert_eq!(n, w.sims_per_round, "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn tail_percentiles_have_ten_samples_beyond() {
        let chosen: Vec<f64> = WORKLOADS.iter().map(WorkloadDef::tail_percentile).collect();
        assert_eq!(chosen, [90.0, 90.0, 90.0, 75.0, 90.0]);
        for w in &WORKLOADS {
            let n = w.min_rounds * w.sims_per_round;
            assert!(
                crate::stats::leaves_ten_beyond(n, w.tail_percentile() as usize),
                "{}",
                w.name
            );
        }
    }
}
