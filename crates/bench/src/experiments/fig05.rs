//! **Figure 5** — GPU latency tolerance over time for the Similarity
//! Score (SS) benchmark: SS cycles through phases of high, moderate and
//! low latency tolerance, which is exactly what LATTE-CC's fine-grained
//! adaptation exploits.

use crate::report::outln;
use crate::experiments::{lookup_benchmark, write_csv};
use crate::runner::{experiment_config, PolicyKind};
use crate::sim;
use latte_gpusim::GpuConfig;

/// Runs the Fig 5 tolerance trace.
pub fn run() -> std::io::Result<()> {
    outln!("Figure 5: latency tolerance over time (SS, SM 0)\n");
    let bench = lookup_benchmark("SS")?;
    let config = GpuConfig {
        record_traces: true,
        ..experiment_config()
    };
    let all = sim::run_cached(PolicyKind::Baseline, &bench, &config).stats.traces;
    let mut rows = vec![vec![
        "ep".to_owned(),
        "end_cycle".to_owned(),
        "latency_tolerance".to_owned(),
        "l1_hit_rate".to_owned(),
    ]];
    // Print a compact sparkline-style summary: one line per 8 EPs.
    let mut i = 0;
    for chunk in all.chunks(8) {
        let mean: f64 =
            chunk.iter().map(|t| t.latency_tolerance).sum::<f64>() / chunk.len() as f64;
        let bar_len = (mean * 2.0).min(60.0) as usize;
        outln!("EP {:>4}..{:<4} tol {:>6.2} {}", i, i + chunk.len(), mean, "#".repeat(bar_len));
        i += chunk.len();
    }
    let min = all.iter().map(|t| t.latency_tolerance).fold(f64::MAX, f64::min);
    let max = all.iter().map(|t| t.latency_tolerance).fold(0.0, f64::max);
    outln!("\n{} EPs, tolerance range [{min:.2}, {max:.2}]", all.len());
    assert!(
        max > 2.0 * (min + 0.5),
        "SS should show strong tolerance variation over time"
    );
    for (ep, t) in all.iter().enumerate() {
        rows.push(vec![
            ep.to_string(),
            t.end_cycle.to_string(),
            format!("{:.4}", t.latency_tolerance),
            format!("{:.4}", t.l1_hit_rate),
        ]);
    }
    write_csv("fig05_ss_latency_tolerance", &rows)
}
