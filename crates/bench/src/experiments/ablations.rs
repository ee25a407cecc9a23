//! Ablation studies over LATTE-CC's design choices (called out in
//! DESIGN.md §4): the latency-tolerance term, the effective miss-latency
//! constant, the experimental-phase length, the number of dedicated
//! sampling sets, and the warp scheduler.
//!
//! Each ablation reports the C-Sens-subset geomean speedup of LATTE-CC
//! under the varied parameter, everything else held at the defaults.

use crate::report::outln;
use crate::experiments::{lookup_benchmark, write_csv};
use crate::runner::{experiment_config, geomean, latte_config, PolicyKind, PolicySpec};
use crate::sim::{self, SimJob};
use latte_core::LatteConfig;
use latte_gpusim::{GpuConfig, SchedulerKind};
use latte_workloads::BenchmarkSpec;

/// A representative cache-sensitive subset (one per behaviour class) that
/// keeps each ablation under a minute.
fn subset() -> std::io::Result<Vec<BenchmarkSpec>> {
    ["SS", "KM", "BC", "FW", "PRK", "DJK"]
        .iter()
        .map(|a| lookup_benchmark(a))
        .collect()
}

/// Geomean speedup of `latte` (a LATTE-CC spec) over the Baseline on
/// `config`, across the subset.
///
/// Every run is a memoized request: the Baseline references are shared
/// across every ablation point that keeps the machine config fixed, and
/// a point equal to the defaults shares its LATTE-CC runs with the
/// figures.
fn subset_geomean(config: &GpuConfig, latte: &PolicySpec) -> std::io::Result<f64> {
    let baseline = PolicySpec::named(PolicyKind::Baseline, config);
    let jobs = subset()?
        .into_iter()
        .flat_map(|bench| {
            [&baseline, latte].map(|spec| SimJob {
                spec: spec.clone(),
                bench: bench.clone(),
                config: config.clone(),
            })
        })
        .collect();
    let speedups: Vec<f64> = sim::run_batch(jobs)
        .chunks(2)
        .map(|pair| pair[1].speedup_over(&pair[0]))
        .collect();
    Ok(geomean(&speedups))
}

/// LATTE-CC on `config` with its controller config changed by `vary`.
fn latte_with(config: &GpuConfig, vary: impl FnOnce(LatteConfig) -> LatteConfig) -> PolicySpec {
    PolicySpec {
        kind: PolicyKind::LatteCc,
        latte: vary(latte_config(config)),
    }
}

/// Tolerance-awareness ablation: scale the Eq. (4) estimate from 0
/// (tolerance-blind, i.e. conventional AMAT) upwards.
pub fn tolerance() -> std::io::Result<()> {
    outln!("Ablation: latency-tolerance scale (0 = tolerance-blind)\n");
    let config = experiment_config();
    let mut rows = vec![vec!["tolerance_scale".to_owned(), "csens_subset_geomean".to_owned()]];
    for scale in [0.0, 0.5, 1.0, 2.0, 4.0] {
        let latte = latte_with(&config, |l| l.with_tolerance_scale(scale));
        let g = subset_geomean(&config, &latte)?;
        outln!("scale {scale:>4.1}: {g:.4}");
        rows.push(vec![format!("{scale}"), format!("{g:.4}")]);
    }
    write_csv("ablation_tolerance_scale", &rows)
}

/// Miss-latency constant ablation: how sensitive are the AMAT decisions
/// to the assumed effective miss cost?
pub fn miss_latency() -> std::io::Result<()> {
    outln!("Ablation: AMAT effective miss-latency constant\n");
    let config = experiment_config();
    let mut rows = vec![vec!["miss_latency".to_owned(), "csens_subset_geomean".to_owned()]];
    for ml in [40.0, 80.0, 110.0, 150.0, 230.0] {
        let latte = latte_with(&config, |l| l.with_miss_latency(ml));
        let g = subset_geomean(&config, &latte)?;
        outln!("miss_latency {ml:>5.0}: {g:.4}");
        rows.push(vec![format!("{ml}"), format!("{g:.4}")]);
    }
    write_csv("ablation_miss_latency", &rows)
}

/// EP-length ablation (the paper empirically picked 256 accesses/EP):
/// shorter EPs adapt faster but sample less; longer EPs the reverse.
pub fn ep_length() -> std::io::Result<()> {
    outln!("Ablation: experimental-phase length (L1 accesses per EP)\n");
    let base = experiment_config();
    let mut rows = vec![vec!["ep_accesses".to_owned(), "csens_subset_geomean".to_owned()]];
    for ep in [64u64, 128, 256, 512, 1024] {
        let config = GpuConfig {
            ep_accesses: ep,
            ..base.clone()
        };
        let latte = PolicySpec::named(PolicyKind::LatteCc, &config);
        let g = subset_geomean(&config, &latte)?;
        outln!("EP {ep:>5}: {g:.4}");
        rows.push(vec![ep.to_string(), format!("{g:.4}")]);
    }
    write_csv("ablation_ep_length", &rows)
}

/// Dedicated-set count ablation: sampling fidelity vs sampling overhead.
pub fn dedicated_sets() -> std::io::Result<()> {
    outln!("Ablation: dedicated sets per compression mode\n");
    let config = experiment_config();
    let mut rows = vec![vec![
        "dedicated_per_mode".to_owned(),
        "csens_subset_geomean".to_owned(),
    ]];
    for d in [1usize, 2, 4, 8] {
        let latte = latte_with(&config, |l| LatteConfig {
            dedicated_sets_per_mode: d,
            ..l
        });
        let g = subset_geomean(&config, &latte)?;
        outln!("dedicated {d}: {g:.4}  (overhead {:.0}% of sets)", 3.0 * d as f64 / 32.0 * 100.0);
        rows.push(vec![d.to_string(), format!("{g:.4}")]);
    }
    write_csv("ablation_dedicated_sets", &rows)
}

/// Scheduler ablation: the paper's GTO vs loose round-robin.
pub fn scheduler() -> std::io::Result<()> {
    outln!("Ablation: warp scheduler (GTO vs LRR)\n");
    let base = experiment_config();
    let mut rows = vec![vec![
        "scheduler".to_owned(),
        "csens_subset_geomean".to_owned(),
    ]];
    for (name, kind) in [("GTO", SchedulerKind::Gto), ("LRR", SchedulerKind::Lrr)] {
        let config = GpuConfig {
            scheduler: kind,
            ..base.clone()
        };
        let latte = PolicySpec::named(PolicyKind::LatteCc, &config);
        let g = subset_geomean(&config, &latte)?;
        outln!("{name}: {g:.4}");
        rows.push(vec![name.to_owned(), format!("{g:.4}")]);
    }
    write_csv("ablation_scheduler", &rows)
}

/// Runs every ablation.
pub fn run() -> std::io::Result<()> {
    tolerance()?;
    outln!();
    miss_latency()?;
    outln!();
    ep_length()?;
    outln!();
    dedicated_sets()?;
    outln!();
    scheduler()
}
