//! **Table III** — The benchmark suite and its cache-sensitivity
//! classification: a workload is C-Sens if a 4× larger L1 speeds it up by
//! more than 20%. This experiment *measures* the classification on the
//! synthetic suite and reports any divergence from the declared category.

use crate::report::outln;
use crate::experiments::write_csv;
use crate::runner::{experiment_config, PolicyKind, PolicySpec};
use crate::sim;
use latte_cache::CacheGeometry;
use latte_gpusim::GpuConfig;
use latte_workloads::{suite, Category};

/// Runs the Table III classification check.
pub fn run() -> std::io::Result<()> {
    outln!("Table III: benchmarks and measured 4x-cache sensitivity\n");
    outln!(
        "{:6} {:28} {:>9} {:>10} {:>10} {:>6}",
        "abbr", "name", "declared", "4x-speedup", "measured", "match"
    );
    let base_config = experiment_config();
    let big_config = GpuConfig {
        l1_geometry: CacheGeometry {
            size_bytes: base_config.l1_geometry.size_bytes * 4,
            ..base_config.l1_geometry
        },
        ..base_config.clone()
    };
    let mut csv = vec![vec![
        "abbr".to_owned(),
        "name".to_owned(),
        "declared_category".to_owned(),
        "speedup_with_4x_cache".to_owned(),
        "measured_category".to_owned(),
    ]];
    let mut mismatches = 0;
    let benches = suite();
    // One batch over both machine sizes; the normal-cache Baseline runs
    // are the same simulations every figure uses, so they come from the
    // memo cache on a full sweep.
    let mut jobs = Vec::new();
    for config in [&base_config, &big_config] {
        for bench in &benches {
            jobs.push(sim::SimJob {
                spec: PolicySpec::named(PolicyKind::Baseline, config),
                bench: bench.clone(),
                config: config.clone(),
            });
        }
    }
    let results = sim::run_batch(jobs);
    let (base_runs, big_runs) = results.split_at(benches.len());
    for ((bench, base_r), big_r) in benches.iter().zip(base_runs).zip(big_runs) {
        let base = base_r.cycles();
        let big = big_r.cycles();
        let speedup = base as f64 / big.max(1) as f64;
        let measured = if speedup > 1.20 {
            Category::CSens
        } else {
            Category::CInSens
        };
        let matches = measured == bench.category;
        mismatches += usize::from(!matches);
        outln!(
            "{:6} {:28} {:>9} {:>10.3} {:>10} {:>6}",
            bench.abbr,
            bench.name,
            bench.category.to_string(),
            speedup,
            measured.to_string(),
            if matches { "yes" } else { "NO" }
        );
        csv.push(vec![
            bench.abbr.to_owned(),
            bench.name.to_owned(),
            bench.category.to_string(),
            format!("{speedup:.4}"),
            measured.to_string(),
        ]);
    }
    outln!("\n{mismatches} classification mismatches");
    write_csv("table3_benchmarks", &csv)
}
