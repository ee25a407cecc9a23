//! **Decision trace** — a temporal view of LATTE-CC's operation on one
//! benchmark (the paper's Fig 10 schematic, rendered with real data):
//! per-EP latency tolerance, selected mode, effective capacity and hit
//! rate on SM 0.

use crate::report::outln;
use crate::experiments::{lookup_benchmark, write_csv};
use crate::runner::{experiment_config, PolicyKind};
use crate::sim;
use latte_gpusim::GpuConfig;

fn mode_glyph(m: Option<usize>) -> char {
    match m {
        Some(0) => '.',
        Some(1) => 'L',
        Some(2) => 'H',
        _ => '?',
    }
}

/// Runs the decision trace for SS.
pub fn run() -> std::io::Result<()> {
    let bench = lookup_benchmark("SS")?;
    outln!(
        "LATTE-CC decision trace: {} ({}), SM 0\n",
        bench.name, bench.abbr
    );
    let config = GpuConfig {
        record_traces: true,
        ..experiment_config()
    };
    let traces = sim::run_cached(PolicyKind::LatteCc, &bench, &config).stats.traces;

    // Mode strip, 64 EPs per row.
    outln!("mode per EP ('.' none, 'L' low-latency, 'H' high-capacity):");
    for (row, chunk) in traces.chunks(64).enumerate() {
        let strip: String = chunk.iter().map(|t| mode_glyph(t.selected_mode)).collect();
        outln!("  EP {:>4} | {strip}", row * 64);
    }

    // Tolerance and capacity summary per 16-EP window.
    outln!("\n{:>6} {:>10} {:>10} {:>8} {:>6}", "EP", "tolerance", "capacity", "hit%", "mode");
    let mut rows = vec![vec![
        "ep".to_owned(),
        "latency_tolerance".to_owned(),
        "effective_capacity".to_owned(),
        "l1_hit_rate".to_owned(),
        "mode".to_owned(),
    ]];
    for (ep, t) in traces.iter().enumerate() {
        if ep % 16 == 0 {
            outln!(
                "{:>6} {:>10.2} {:>9.2}x {:>7.1}% {:>6}",
                ep,
                t.latency_tolerance,
                t.effective_capacity,
                t.l1_hit_rate * 100.0,
                mode_glyph(t.selected_mode)
            );
        }
        rows.push(vec![
            ep.to_string(),
            format!("{:.4}", t.latency_tolerance),
            format!("{:.4}", t.effective_capacity),
            format!("{:.4}", t.l1_hit_rate),
            mode_glyph(t.selected_mode).to_string(),
        ]);
    }
    let switches = traces
        .windows(2)
        .filter(|w| w[0].selected_mode != w[1].selected_mode)
        .count();
    outln!("\n{} EPs, {} mode switches", traces.len(), switches);
    write_csv("trace_ss", &rows)
}
