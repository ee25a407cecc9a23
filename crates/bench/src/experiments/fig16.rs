//! **Figure 16** — Effective cache capacity over time for SS under
//! Static-BDI, Static-SC and LATTE-CC. Static-BDI stays near 1x (BDI
//! cannot compress SS's float data), Static-SC stays high (~3x), LATTE-CC
//! hovers between 1-2x, opportunistically taking SC capacity only during
//! tolerant phases.

use crate::report::outln;
use crate::experiments::{lookup_benchmark, write_csv};
use crate::runner::{experiment_config, PolicyKind};
use crate::sim;
use latte_gpusim::GpuConfig;

/// Runs the Fig 16 capacity trace.
pub fn run() -> std::io::Result<()> {
    outln!("Figure 16: effective L1 capacity over time (SS, SM 0, 1.0 = baseline)\n");
    let policies = [PolicyKind::StaticBdi, PolicyKind::StaticSc, PolicyKind::LatteCc];
    let config = GpuConfig {
        record_traces: true,
        ..experiment_config()
    };
    let runs = sim::run_matrix(&policies, &[lookup_benchmark("SS")?], &config);
    let traces: Vec<Vec<f64>> = runs
        .iter()
        .flatten()
        .map(|r| r.stats.traces.iter().map(|t| t.effective_capacity).collect())
        .collect();
    let len = traces.iter().map(Vec::len).min().unwrap_or(0);
    outln!("{:>6} {:>9} {:>9} {:>9}", "EP", "BDI", "SC", "LATTE");
    let mut rows = vec![vec![
        "ep".to_owned(),
        "static_bdi".to_owned(),
        "static_sc".to_owned(),
        "latte_cc".to_owned(),
    ]];
    #[allow(clippy::needless_range_loop)] // parallel indexing into three traces
    for ep in 0..len {
        if ep % 8 == 0 {
            outln!(
                "{:>6} {:>9.2} {:>9.2} {:>9.2}",
                ep, traces[0][ep], traces[1][ep], traces[2][ep]
            );
        }
        rows.push(vec![
            ep.to_string(),
            format!("{:.4}", traces[0][ep]),
            format!("{:.4}", traces[1][ep]),
            format!("{:.4}", traces[2][ep]),
        ]);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    outln!(
        "\nmeans: BDI {:.2}x  SC {:.2}x  LATTE {:.2}x",
        mean(&traces[0][..len]),
        mean(&traces[1][..len]),
        mean(&traces[2][..len])
    );
    write_csv("fig16_ss_effective_capacity", &rows)
}
