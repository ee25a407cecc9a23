//! **Headline summary** — the paper's §V-A aggregate claims, measured:
//! per-category mean speedups, miss reductions and energy savings for
//! every policy, side by side with the paper's reported values.

use crate::report::outln;
use crate::experiments::write_csv;
use crate::runner::{geomean, PolicyKind, ALL_POLICIES};
use crate::sim;
use latte_workloads::{suite, Category};

/// Runs the summary aggregation.
pub fn run() -> std::io::Result<()> {
    outln!("Headline summary (C-Sens geomeans vs paper)\n");
    let benches = suite();
    let mut csv = vec![vec![
        "policy".to_owned(),
        "csens_speedup".to_owned(),
        "cinsens_speedup".to_owned(),
        "csens_miss_reduction_pct".to_owned(),
        "csens_energy_ratio".to_owned(),
    ]];
    outln!(
        "{:20} {:>10} {:>10} {:>10} {:>10}",
        "policy", "spd-Sens", "spd-InSens", "mr-Sens%", "en-Sens"
    );
    // One 10-policy × full-suite matrix: every simulation the summary
    // needs, fanned out across the whole pool in a single batch.
    let matrix = sim::run_matrix_default(&ALL_POLICIES, &benches);
    for (pi, &policy) in ALL_POLICIES.iter().enumerate() {
        if policy == PolicyKind::Baseline {
            continue;
        }
        let mut spd = (Vec::new(), Vec::new());
        let mut mr = Vec::new();
        let mut en = Vec::new();
        for (bench, runs) in benches.iter().zip(&matrix) {
            let base = &runs[0];
            debug_assert_eq!(base.policy, PolicyKind::Baseline);
            let r = &runs[pi];
            match bench.category {
                Category::CSens => {
                    spd.0.push(r.speedup_over(base));
                    mr.push(r.miss_reduction_over(base) * 100.0);
                    en.push(r.energy_ratio_over(base));
                }
                Category::CInSens => spd.1.push(r.speedup_over(base)),
            }
        }
        let amean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        outln!(
            "{:20} {:>10.3} {:>10.3} {:>9.1}% {:>10.3}",
            policy.name(),
            geomean(&spd.0),
            geomean(&spd.1),
            amean(&mr),
            geomean(&en)
        );
        csv.push(vec![
            policy.name().to_owned(),
            format!("{:.4}", geomean(&spd.0)),
            format!("{:.4}", geomean(&spd.1)),
            format!("{:.2}", amean(&mr)),
            format!("{:.4}", geomean(&en)),
        ]);
    }
    outln!("\npaper (C-Sens): LATTE-CC +19.2% spd / 24.6% mr / 0.90 energy;");
    outln!("               Static-BDI +13.7% / 19.2% / 0.95; Static-SC -8.2% / 28.7% / ~1.0");
    write_csv("summary_headline", &csv)
}
