//! **Figure 15** — How often LATTE-CC's fine-grained decisions agree with
//! the Kernel-OPT oracle, and the performance gap between the two.
//! Disagreement is not necessarily loss: for phase-changing workloads
//! (KM, SS, MM) LATTE-CC beats the oracle *because* it deviates within
//! kernels.

use crate::report::outln;
use crate::experiments::fig11::{kernel_opt_of, POLICIES};
use crate::experiments::write_csv;
use crate::runner::experiment_config;
use crate::sim;
use latte_workloads::c_sens;

/// Runs the Fig 15 agreement analysis.
pub fn run() -> std::io::Result<()> {
    outln!("Figure 15: LATTE-CC vs Kernel-OPT decision agreement (C-Sens)\n");
    outln!(
        "{:6} {:>8} {:>11} {:>11} {:>9}",
        "bench", "agree%", "spd-LATTE", "spd-K-OPT", "perfΔ%"
    );
    let mut csv = vec![vec![
        "benchmark".to_owned(),
        "agreement_pct".to_owned(),
        "latte_speedup".to_owned(),
        "kernel_opt_speedup".to_owned(),
        "perf_delta_pct".to_owned(),
    ]];
    let benches = c_sens();
    let matrix = sim::run_matrix(&POLICIES, &benches, &experiment_config());
    for (bench, runs) in benches.iter().zip(&matrix) {
        let (base, latte) = (&runs[0], &runs[3]);
        let opt = kernel_opt_of(base, &runs[1], &runs[2]);
        // The share of LATTE-CC's EPs spent in each kernel's oracle mode.
        let (mut agree_eps, mut total_eps) = (0u64, 0u64);
        for (kernel, choice) in latte.kernels.iter().zip(&opt) {
            agree_eps += kernel.eps_in_mode[choice.best.index()];
            total_eps += kernel.eps_in_mode.iter().sum::<u64>();
        }
        let agreement = agree_eps as f64 / total_eps.max(1) as f64 * 100.0;
        let opt_cycles: u64 = opt.iter().map(|k| k.cycles).sum();
        let spd_latte = latte.speedup_over(base);
        let spd_opt = base.stats.cycles as f64 / opt_cycles.max(1) as f64;
        let delta = (spd_opt - spd_latte) * 100.0;
        outln!(
            "{:6} {:>7.1}% {:>11.3} {:>11.3} {:>9.1}",
            bench.abbr, agreement, spd_latte, spd_opt, delta
        );
        csv.push(vec![
            bench.abbr.to_owned(),
            format!("{agreement:.2}"),
            format!("{spd_latte:.4}"),
            format!("{spd_opt:.4}"),
            format!("{delta:.2}"),
        ]);
    }
    outln!("\n(negative perfΔ: LATTE-CC beats the oracle via intra-kernel adaptation)");
    write_csv("fig15_kernel_opt_agreement", &csv)
}
