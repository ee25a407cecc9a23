//! **Resilience sweep** — the simulator's answer to "what happens when
//! stored compressed lines rot?". Sweeps deterministic bit-flip injection
//! across four corruption rates (1e-6 .. 1e-3 per compressed hit) over
//! the full benchmark suite under LATTE-CC, reporting per-kernel
//! termination reasons and decode-error recovery counts, and verifying
//! that two runs with the same seed are bit-identical.
//!
//! Detected flips are recovered by re-classifying the access as a miss
//! and re-fetching from the L2, so every workload must still complete all
//! of its work; past the per-kernel demotion threshold LATTE-CC stops
//! compressing for the remainder of the kernel (integrity analogue of the
//! paper's latency fallback).

use crate::report::outln;
use crate::experiments::write_csv;
use crate::pool;
use crate::runner::{experiment_config, fault_injection, PolicyKind};
use latte_gpusim::{FaultConfig, Gpu, GpuConfig, Kernel, KernelStats, TerminationReason};
use latte_workloads::suite;
use std::io;

const RATES: [f64; 4] = [1e-6, 1e-5, 1e-4, 1e-3];

/// The rate in [`RATES`] whose records the determinism self-check
/// re-runs.
const CHECK_RATE: f64 = 1e-4;

/// Fill-return-path rates (per fill; fills are far rarer than hits, so
/// the interesting range sits higher than [`RATES`]).
const FILL_RATES: [f64; 2] = [1e-4, 1e-3];

/// Statistics of one kernel run under injection.
struct KernelRecord {
    abbr: &'static str,
    kernel: String,
    stats: KernelStats,
}

/// Runs the whole suite under LATTE-CC with bit flips at `rate` per
/// compressed L1 hit.
fn run_suite(rate: f64, seed: u64) -> Vec<KernelRecord> {
    run_suite_faults(FaultConfig::bitflips(seed, rate))
}

/// Runs the whole suite under LATTE-CC with the given fault model.
///
/// Each benchmark runs as a pool subtask. Deliberately NOT routed through
/// the simulation memo cache: the sweep's determinism self-check re-runs
/// the same configuration and must be a genuine re-execution, and fault
/// sweeps are one-shot configurations nothing else shares.
fn run_suite_faults(faults: FaultConfig) -> Vec<KernelRecord> {
    pool::run_subtasks(
        suite()
            .into_iter()
            .map(|bench| {
                Box::new(move || {
                    let config = GpuConfig {
                        faults: Some(faults),
                        ..experiment_config()
                    };
                    let mut gpu = Gpu::new(&config, |_| PolicyKind::LatteCc.build(&config));
                    bench
                        .build_kernels()
                        .iter()
                        .map(|kernel| KernelRecord {
                            abbr: bench.abbr,
                            kernel: kernel.name().to_owned(),
                            stats: gpu.run_kernel(kernel as &dyn Kernel),
                        })
                        .collect::<Vec<_>>()
                }) as Box<dyn FnOnce() -> Vec<KernelRecord> + Send>
            })
            .collect(),
    )
    .into_iter()
    .flatten()
    .collect()
}

/// Runs the resilience sweep.
pub fn run() -> std::io::Result<()> {
    let seed = fault_injection().map_or(42, |f| f.seed);
    outln!("Resilience: LATTE-CC under compressed-line bit flips (seed {seed})\n");
    outln!(
        "{:>9} {:>8} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9}",
        "rate", "kernels", "complete", "injected", "detected", "masked", "refetches", "demoted*"
    );
    let mut rows = vec![vec![
        "rate".to_owned(),
        "benchmark".to_owned(),
        "kernel".to_owned(),
        "termination".to_owned(),
        "cycles".to_owned(),
        "bitflips_injected".to_owned(),
        "bitflips_detected".to_owned(),
        "bitflips_masked".to_owned(),
        "decode_failures".to_owned(),
    ]];
    let mut checked = Vec::new();
    for rate in RATES {
        let records = run_suite(rate, seed);
        let kernels = records.len();
        let complete = records
            .iter()
            .filter(|r| r.stats.termination == TerminationReason::Completed)
            .count();
        let injected: u64 = records.iter().map(|r| r.stats.faults.bitflips_injected).sum();
        let detected: u64 = records.iter().map(|r| r.stats.faults.bitflips_detected).sum();
        let masked: u64 = records.iter().map(|r| r.stats.faults.bitflips_masked).sum();
        let refetches: u64 = records.iter().map(|r| r.stats.l1.decode_failures).sum();
        // Kernels that crossed the decode-error demotion threshold on at
        // least one SM and finished uncompressed.
        let demoted = records
            .iter()
            .filter(|r| r.stats.l1.decode_failures >= 8)
            .count();
        outln!(
            "{rate:>9.0e} {kernels:>8} {complete:>9} {injected:>9} {detected:>9} {masked:>9} {refetches:>10} {demoted:>9}"
        );
        for r in &records {
            rows.push(vec![
                format!("{rate:e}"),
                r.abbr.to_owned(),
                r.kernel.clone(),
                r.stats.termination.to_string(),
                r.stats.cycles.to_string(),
                r.stats.faults.bitflips_injected.to_string(),
                r.stats.faults.bitflips_detected.to_string(),
                r.stats.faults.bitflips_masked.to_string(),
                r.stats.l1.decode_failures.to_string(),
            ]);
        }
        if complete != kernels {
            for r in records
                .iter()
                .filter(|r| r.stats.termination != TerminationReason::Completed)
            {
                outln!(
                    "  !! {}/{}: {} after {} cycles",
                    r.abbr, r.kernel, r.stats.termination, r.stats.cycles
                );
            }
        }
        if rate == CHECK_RATE {
            checked = records;
        }
    }
    outln!("\n* kernels with >= 8 decode-error refetches (LATTE-CC's demotion threshold)");

    // Second sweep: bit flips on the L2/DRAM fill return path. These are
    // parity-detected at the L1 and recovered by a re-send one L2 round
    // trip later, so every kernel must still complete; the cost shows up
    // purely as retry latency.
    outln!("\nFill return path: bit flips per L2/DRAM fill (parity-detected, re-sent)\n");
    outln!(
        "{:>9} {:>8} {:>9} {:>11} {:>13}",
        "rate", "kernels", "complete", "fill_flips", "retry_cycles"
    );
    let mut fill_rows = vec![vec![
        "rate".to_owned(),
        "benchmark".to_owned(),
        "kernel".to_owned(),
        "termination".to_owned(),
        "cycles".to_owned(),
        "fill_bitflips".to_owned(),
        "fill_retry_cycles".to_owned(),
    ]];
    for rate in FILL_RATES {
        let records = run_suite_faults(FaultConfig::fill_bitflips(seed, rate));
        let kernels = records.len();
        let complete = records
            .iter()
            .filter(|r| r.stats.termination == TerminationReason::Completed)
            .count();
        let fill_flips: u64 = records.iter().map(|r| r.stats.faults.fill_bitflips).sum();
        let retry_cycles: u64 = records.iter().map(|r| r.stats.faults.fill_retry_cycles).sum();
        outln!("{rate:>9.0e} {kernels:>8} {complete:>9} {fill_flips:>11} {retry_cycles:>13}");
        for r in &records {
            fill_rows.push(vec![
                format!("{rate:e}"),
                r.abbr.to_owned(),
                r.kernel.clone(),
                r.stats.termination.to_string(),
                r.stats.cycles.to_string(),
                r.stats.faults.fill_bitflips.to_string(),
                r.stats.faults.fill_retry_cycles.to_string(),
            ]);
        }
        if complete != kernels {
            return Err(io::Error::other(format!(
                "fill-path injection at {rate:e} left {} kernel(s) incomplete",
                kernels - complete
            )));
        }
    }
    write_csv("resilience_fill_fault_sweep", &fill_rows)?;

    // Determinism: a fresh run at 1e-4 with the same seed must reproduce
    // every kernel's statistics of the sweep's own run bit for bit.
    let a = checked;
    let b = run_suite(CHECK_RATE, seed);
    let mismatches = a
        .iter()
        .zip(&b)
        .filter(|(x, y)| x.stats != y.stats)
        .count();
    if mismatches == 0 && a.len() == b.len() {
        outln!(
            "determinism: two seed-{seed} runs at 1e-4 are bit-identical over all {} kernels",
            a.len()
        );
    } else {
        return Err(io::Error::other(format!(
            "same-seed fault runs diverged on {mismatches} kernel(s)"
        )));
    }
    write_csv("resilience_fault_sweep", &rows)
}
