//! **Figure 11** — Application speedup under Static-BDI, Static-SC,
//! LATTE-CC and Kernel-OPT, normalised to the uncompressed baseline.
//!
//! Paper shape: LATTE-CC wins on average for C-Sens (+19.2%, vs +13.7%
//! Static-BDI and −8.2% Static-SC) and slightly beats the Kernel-OPT
//! oracle; C-InSens workloads are unaffected except Static-SC, which
//! degrades several of them.

use crate::report::outln;
use crate::experiments::write_csv;
use crate::runner::{experiment_config, geomean, BenchResult, PolicyKind};
use crate::sim;
use latte_core::{kernel_opt, KernelOptKernel};
use latte_workloads::{suite, Category};

/// One benchmark's Fig 11 numbers.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Benchmark abbreviation.
    pub abbr: &'static str,
    /// Sensitivity category.
    pub category: Category,
    /// Speedups: [Static-BDI, Static-SC, LATTE-CC, Kernel-OPT].
    pub speedups: [f64; 4],
}

/// The runs Fig 11 and Fig 15 read: the three static modes Kernel-OPT
/// folds over, then LATTE-CC.
pub(crate) const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Baseline,
    PolicyKind::StaticBdi,
    PolicyKind::StaticSc,
    PolicyKind::LatteCc,
];

/// Kernel-OPT over one benchmark, folded from the per-kernel cycles of
/// its Baseline, Static-BDI and Static-SC runs.
pub(crate) fn kernel_opt_of(
    base: &BenchResult,
    bdi: &BenchResult,
    sc: &BenchResult,
) -> Vec<KernelOptKernel> {
    let cycles: Vec<[u64; 3]> = base
        .kernels
        .iter()
        .zip(&bdi.kernels)
        .zip(&sc.kernels)
        .map(|((none, low), high)| [none.cycles, low.cycles, high.cycles])
        .collect();
    kernel_opt(&cycles)
}

/// Computes the Fig 11 data set.
#[must_use]
pub fn collect() -> Vec<Fig11Row> {
    let benches = suite();
    let matrix = sim::run_matrix(&POLICIES, &benches, &experiment_config());
    benches
        .iter()
        .zip(matrix)
        .map(|(bench, runs)| {
            let (base, bdi, sc, latte) = (&runs[0], &runs[1], &runs[2], &runs[3]);
            let opt_cycles: u64 = kernel_opt_of(base, bdi, sc).iter().map(|k| k.cycles).sum();
            Fig11Row {
                abbr: bench.abbr,
                category: bench.category,
                speedups: [
                    bdi.speedup_over(base),
                    sc.speedup_over(base),
                    latte.speedup_over(base),
                    base.stats.cycles as f64 / opt_cycles.max(1) as f64,
                ],
            }
        })
        .collect()
}

/// Prints per-category geomeans for a set of rows.
fn print_means(rows: &[Fig11Row], category: Category, csv: &mut Vec<Vec<String>>) {
    let in_cat: Vec<&Fig11Row> = rows.iter().filter(|r| r.category == category).collect();
    let mut means = [0.0; 4];
    for (i, m) in means.iter_mut().enumerate() {
        *m = geomean(&in_cat.iter().map(|r| r.speedups[i]).collect::<Vec<_>>());
    }
    outln!(
        "{:6} {:>9.3} {:>9.3} {:>9.3} {:>9.3}   ({category} geomean)",
        "MEAN", means[0], means[1], means[2], means[3]
    );
    csv.push(vec![
        format!("{category}_GEOMEAN"),
        format!("{:.4}", means[0]),
        format!("{:.4}", means[1]),
        format!("{:.4}", means[2]),
        format!("{:.4}", means[3]),
    ]);
}

/// Runs the Fig 11 experiment.
pub fn run() -> std::io::Result<()> {
    outln!("Figure 11: speedup over uncompressed baseline\n");
    outln!(
        "{:6} {:>9} {:>9} {:>9} {:>9}",
        "bench", "BDI", "SC", "LATTE", "K-OPT"
    );
    let rows = collect();
    let mut csv = vec![vec![
        "benchmark".to_owned(),
        "static_bdi".to_owned(),
        "static_sc".to_owned(),
        "latte_cc".to_owned(),
        "kernel_opt".to_owned(),
    ]];
    for cat in [Category::CInSens, Category::CSens] {
        for r in rows.iter().filter(|r| r.category == cat) {
            outln!(
                "{:6} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                r.abbr, r.speedups[0], r.speedups[1], r.speedups[2], r.speedups[3]
            );
            csv.push(vec![
                r.abbr.to_owned(),
                format!("{:.4}", r.speedups[0]),
                format!("{:.4}", r.speedups[1]),
                format!("{:.4}", r.speedups[2]),
                format!("{:.4}", r.speedups[3]),
            ]);
        }
        print_means(&rows, cat, &mut csv);
        outln!();
    }
    write_csv("fig11_speedups", &csv)
}
