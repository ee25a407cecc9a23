//! **Figure 1** — Performance sensitivity of GPU workloads to L1 data
//! cache hit latency. The paper sweeps the added hit latency from 0 to 14
//! cycles for PRK, CLR, MIS, BC and FW: PRK is insensitive, CLR and MIS
//! tolerate ~9 cycles, BC and FW degrade quickly.

use crate::report::{out, outln};
use crate::experiments::{lookup_benchmark, write_csv};
use crate::runner::{experiment_config, PolicyKind, PolicySpec};
use crate::sim;
use latte_gpusim::GpuConfig;

const BENCHES: [&str; 5] = ["PRK", "CLR", "MIS", "BC", "FW"];
const LATENCIES: [u64; 6] = [0, 3, 6, 9, 12, 14];

/// Runs the Fig 1 sweep.
pub fn run() -> std::io::Result<()> {
    outln!("Figure 1: IPC (normalised to +0) vs added L1 hit latency\n");
    let mut rows = vec![{
        let mut h = vec!["benchmark".to_owned()];
        h.extend(LATENCIES.iter().map(|l| format!("+{l}")));
        h
    }];
    out!("{:6}", "bench");
    for l in LATENCIES {
        out!(" {:>7}", format!("+{l}"));
    }
    outln!();
    // One batch over the whole (benchmark × latency) grid. The +0 point
    // is the standard Baseline/experiment-machine simulation, so it is
    // shared with every other figure through the memo cache.
    let mut jobs = Vec::new();
    for abbr in BENCHES {
        let bench = lookup_benchmark(abbr)?;
        for &extra in &LATENCIES {
            let config = GpuConfig {
                extra_hit_latency: extra,
                ..experiment_config()
            };
            jobs.push(sim::SimJob {
                spec: PolicySpec::named(PolicyKind::Baseline, &config),
                bench: bench.clone(),
                config,
            });
        }
    }
    let results = sim::run_batch(jobs);
    for (abbr, grid) in BENCHES.iter().zip(results.chunks(LATENCIES.len())) {
        let cycles: Vec<u64> = grid.iter().map(crate::runner::BenchResult::cycles).collect();
        let base = cycles[0] as f64;
        let normalised: Vec<f64> = cycles.iter().map(|&c| base / c as f64).collect();
        out!("{:6}", abbr);
        for n in &normalised {
            out!(" {n:>7.3}");
        }
        outln!();
        let mut row = vec![(*abbr).to_owned()];
        row.extend(normalised.iter().map(|n| format!("{n:.4}")));
        rows.push(row);
    }
    write_csv("fig01_hit_latency_sensitivity", &rows)
}
