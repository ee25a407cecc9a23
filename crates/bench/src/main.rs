//! `latte-bench` — the experiment harness regenerating every table and
//! figure of the LATTE-CC paper (HPCA 2018).
//!
//! ```text
//! latte-bench [options] <experiment> [<experiment> ...]
//! latte-bench [options] all
//! ```
//!
//! Experiments run on a thread pool (`--jobs`, default = available
//! parallelism). The run is deterministic: `--jobs N` writes
//! byte-identical `results/` files to `--jobs 1`; only the order of the
//! finished-experiment blocks on stdout may differ.
//!
//! `--inject <rate>` enables deterministic bit-flip fault injection into
//! compressed L1 lines at the given per-hit probability for every
//! experiment that follows (seeded by `--seed`, default 42), exercising
//! the detect-and-refetch recovery path and LATTE-CC's integrity
//! demotion. `--inject-fill <rate>` does the same for the L2/DRAM fill
//! return path (parity-detected, retried after one L2 round trip).
//!
//! The controller knobs that used to be hidden `LATTE_*` environment
//! variables are now explicit flags: `--miss-latency`,
//! `--tolerance-scale`, `--force-mode`, `--debug-decide`.

use latte_bench::experiments as exp;
use latte_bench::{Experiment, LatteOverrides};
use latte_core::CompressionMode;
use latte_gpusim::FaultConfig;

const EXPERIMENTS: &[Experiment] = &[
    ("fig1", "L1 hit-latency sensitivity sweep", exp::fig01::run),
    ("table1", "compression algorithm comparison", exp::table1::run),
    ("fig2", "per-benchmark compression ratios", exp::fig02::run),
    ("fig3", "zero-latency capacity upper bound", exp::fig03::run),
    ("fig4", "decompression-latency-only degradation", exp::fig04::run),
    ("fig5", "SS latency tolerance over time", exp::fig05::run),
    ("fig6", "static vs adaptive potential (perf + energy)", exp::fig06::run),
    ("table2", "simulated GPU configuration", exp::table2::run),
    ("table3", "benchmarks + cache-sensitivity classification", exp::table3::run),
    ("fig11", "speedups: BDI / SC / LATTE-CC / Kernel-OPT", exp::fig11::run),
    ("fig12", "L1 miss reductions", exp::fig12::run),
    ("fig13", "normalised GPU energy", exp::fig13::run),
    ("fig14", "LATTE-CC energy-saving breakdown", exp::fig14::run),
    ("fig15", "Kernel-OPT agreement analysis", exp::fig15::run),
    ("fig16", "SS effective cache capacity over time", exp::fig16::run),
    ("fig17", "adaptive policy comparison", exp::fig17::run),
    ("fig18", "LATTE-CC-BDI-BPC variant", exp::fig18::run),
    ("sens-cache", "48 KB L1 sensitivity", exp::sens_cache::run),
    ("sens-write", "write-policy sensitivity (write-avoid vs write-allocate)", exp::sens_write::run),
    ("summary", "headline aggregate numbers", exp::summary::run),
    ("ablations", "design-choice ablation studies", exp::ablations::run),
    ("trace", "LATTE-CC decision trace on SS (Fig 10-style)", exp::trace::run),
    ("paper-machine", "C-Sens comparison on the full 15-SM Table II machine", exp::paper_machine::run),
    ("multi-mode", "4-mode LATTE-CC extension (None/BDI/BPC/SC)", exp::multi_mode::run),
    ("resilience", "fault-injection resilience sweep (bit-flip rates 1e-6..1e-3)", exp::resilience::run),
    ("verify", "differential-oracle verification: clean shadow-checked runs + mutation detection", exp::verify::run),
    ("fig_writeback", "write-back data path: LATTE-CC vs Assist-Warp vs Baseline on write-heavy workloads", exp::fig_writeback::run),
];

fn usage() -> ! {
    eprintln!("usage: latte-bench [options] <experiment> [<experiment> ...] | all\n");
    eprintln!("options:");
    eprintln!("  --jobs <n>             worker threads (default: available parallelism");
    eprintln!("                         divided by --sim-threads; results are byte-identical");
    eprintln!("                         for every n)");
    eprintln!("  --sim-threads <n>      shard each simulation's SMs across n threads");
    eprintln!("                         behind a deterministic epoch barrier (default 1 = the");
    eprintln!("                         serial loop; results are byte-identical for every n)");
    eprintln!("  --inject <rate>        flip one bit per compressed L1 hit with this probability");
    eprintln!("  --inject-fill <rate>   flip one bit per L2/DRAM fill return with this probability");
    eprintln!("  --inject-wakeup-drop <rate>");
    eprintln!("                         lose a refill's wakeup notification with this probability");
    eprintln!("                         (unrecoverable: exercises the deadlock watchdog)");
    eprintln!("  --write-back           run the L1 as write-back/write-allocate with dirty");
    eprintln!("                         compressed lines (default: write-through); stores carry");
    eprintln!("                         data and dirty victims write back to L2/DRAM");
    eprintln!("  --inject-writeback <rate>");
    eprintln!("                         parity-fault an outbound dirty write-back with this");
    eprintln!("                         probability (stats-only retry; requires --write-back)");
    eprintln!("  --no-writeback         deliberate mutation: silently drop every dirty");
    eprintln!("                         write-back (requires --write-back; used to demonstrate");
    eprintln!("                         that --shadow-check catches lost stores)");
    eprintln!("  --seed <n>             fault-injection seed (default 42; same seed => same faults)");
    eprintln!("  --miss-latency <c>     AMAT effective miss-latency constant (default 150)");
    eprintln!("  --tolerance-scale <s>  latency-tolerance scale factor (default 2)");
    eprintln!("  --force-mode <m>       pin the controller: none | lowlatency | highcapacity");
    eprintln!("  --shadow-check         attach the differential oracle to every simulation;");
    eprintln!("                         exit nonzero if any run diverges from the reference model");
    eprintln!("  --no-fault-recovery    deliberate mutation: detected bit flips are consumed");
    eprintln!("                         instead of refetched (requires an --inject* flag; used to");
    eprintln!("                         demonstrate that --shadow-check catches real corruption)");
    eprintln!("  --debug-decide         print the controller's per-decision trace");
    eprintln!("  --store <dir>          persist simulation results in a crash-safe store at <dir>;");
    eprintln!("                         a warm rerun replays every result byte-identically without");
    eprintln!("                         simulating (corrupt entries are quarantined and recomputed)");
    eprintln!("  --store-verify         re-simulate every store hit and byte-compare it against");
    eprintln!("                         the stored record; exit nonzero on any divergence");
    eprintln!("  --inject-store <rate>  deterministically corrupt store reads at this probability");
    eprintln!("                         (truncation / bit flip / stale schema / deletion, seeded");
    eprintln!("                         by --seed; requires --store)");
    eprintln!("  --timings              after the run, print per-experiment / per-simulation");
    eprintln!("                         wall times and the simulation cache's hit statistics\n");
    eprintln!("experiments:");
    for (name, desc, _) in EXPERIMENTS {
        eprintln!("  {name:12} {desc}");
    }
    std::process::exit(2);
}

/// Command-line options parsed (and removed) from the argument list
/// before the remaining words are matched against experiment names.
struct Options {
    jobs: usize,
    sim_threads: usize,
    write_back: bool,
    faults: Option<FaultConfig>,
    overrides: LatteOverrides,
    timings: bool,
    shadow_check: bool,
    store_dir: Option<std::path::PathBuf>,
    store_verify: bool,
    inject_store_rate: Option<f64>,
    seed: u64,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn parse_force_mode(v: &str) -> Option<CompressionMode> {
    match v.to_ascii_lowercase().as_str() {
        "none" => Some(CompressionMode::None),
        "lowlatency" | "low-latency" | "bdi" => Some(CompressionMode::LowLatency),
        "highcapacity" | "high-capacity" | "sc" => Some(CompressionMode::HighCapacity),
        _ => None,
    }
}

/// Extracts every `--flag [value]` option from `args` (removing them).
#[allow(clippy::too_many_lines)]
fn parse_options(args: &mut Vec<String>) -> Options {
    let mut jobs: Option<usize> = None;
    let mut sim_threads = 1usize;
    let mut bitflip_rate: Option<f64> = None;
    let mut fill_bitflip_rate: Option<f64> = None;
    let mut wakeup_drop_rate: Option<f64> = None;
    let mut writeback_fault_rate: Option<f64> = None;
    let mut write_back = false;
    let mut no_writeback = false;
    let mut seed: u64 = 42;
    let mut overrides = LatteOverrides::default();
    let mut timings = false;
    let mut shadow_check = false;
    let mut no_fault_recovery = false;
    let mut store_dir: Option<std::path::PathBuf> = None;
    let mut store_verify = false;
    let mut inject_store_rate: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        let take_value = |args: &mut Vec<String>, i: usize, flag: &str| -> String {
            if i + 1 >= args.len() {
                eprintln!("{flag} requires a value\n");
                usage();
            }
            args.remove(i + 1)
        };
        let parse_rate = |flag: &str, v: &str| -> f64 {
            match v.parse::<f64>() {
                Ok(r) if (0.0..=1.0).contains(&r) => r,
                _ => {
                    eprintln!("{flag} expects a probability in [0, 1], got {v}\n");
                    usage();
                }
            }
        };
        match args[i].as_str() {
            "--jobs" => {
                let v = take_value(args, i, "--jobs");
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => jobs = Some(n),
                    _ => {
                        eprintln!("--jobs expects a positive integer, got {v}\n");
                        usage();
                    }
                }
                args.remove(i);
            }
            "--sim-threads" => {
                let v = take_value(args, i, "--sim-threads");
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => sim_threads = n,
                    _ => {
                        eprintln!("--sim-threads expects a positive integer, got {v}\n");
                        usage();
                    }
                }
                args.remove(i);
            }
            "--inject" => {
                let v = take_value(args, i, "--inject");
                bitflip_rate = Some(parse_rate("--inject", &v));
                args.remove(i);
            }
            "--inject-fill" => {
                let v = take_value(args, i, "--inject-fill");
                fill_bitflip_rate = Some(parse_rate("--inject-fill", &v));
                args.remove(i);
            }
            "--write-back" => {
                write_back = true;
                args.remove(i);
            }
            "--inject-writeback" => {
                let v = take_value(args, i, "--inject-writeback");
                writeback_fault_rate = Some(parse_rate("--inject-writeback", &v));
                args.remove(i);
            }
            "--no-writeback" => {
                no_writeback = true;
                args.remove(i);
            }
            "--inject-wakeup-drop" => {
                let v = take_value(args, i, "--inject-wakeup-drop");
                wakeup_drop_rate = Some(parse_rate("--inject-wakeup-drop", &v));
                args.remove(i);
            }
            "--seed" => {
                let v = take_value(args, i, "--seed");
                match v.parse::<u64>() {
                    Ok(s) => seed = s,
                    Err(_) => {
                        eprintln!("--seed expects an integer, got {v}\n");
                        usage();
                    }
                }
                args.remove(i);
            }
            "--miss-latency" => {
                let v = take_value(args, i, "--miss-latency");
                match v.parse::<f64>() {
                    Ok(c) if c > 0.0 && c.is_finite() => overrides.miss_latency = Some(c),
                    _ => {
                        eprintln!("--miss-latency expects a positive number of cycles, got {v}\n");
                        usage();
                    }
                }
                args.remove(i);
            }
            "--tolerance-scale" => {
                let v = take_value(args, i, "--tolerance-scale");
                match v.parse::<f64>() {
                    Ok(s) if s >= 0.0 && s.is_finite() => overrides.tolerance_scale = Some(s),
                    _ => {
                        eprintln!("--tolerance-scale expects a non-negative number, got {v}\n");
                        usage();
                    }
                }
                args.remove(i);
            }
            "--force-mode" => {
                let v = take_value(args, i, "--force-mode");
                match parse_force_mode(&v) {
                    Some(mode) => overrides.force_mode = Some(mode),
                    None => {
                        eprintln!("--force-mode expects none | lowlatency | highcapacity, got {v}\n");
                        usage();
                    }
                }
                args.remove(i);
            }
            "--debug-decide" => {
                overrides.debug_decide = true;
                args.remove(i);
            }
            "--store" => {
                let v = take_value(args, i, "--store");
                store_dir = Some(std::path::PathBuf::from(v));
                args.remove(i);
            }
            "--store-verify" => {
                store_verify = true;
                args.remove(i);
            }
            "--inject-store" => {
                let v = take_value(args, i, "--inject-store");
                inject_store_rate = Some(parse_rate("--inject-store", &v));
                args.remove(i);
            }
            "--timings" => {
                timings = true;
                args.remove(i);
            }
            "--shadow-check" => {
                shadow_check = true;
                args.remove(i);
            }
            "--no-fault-recovery" => {
                no_fault_recovery = true;
                args.remove(i);
            }
            _ => i += 1,
        }
    }
    if (writeback_fault_rate.is_some() || no_writeback) && !write_back {
        eprintln!("--inject-writeback / --no-writeback require --write-back\n");
        usage();
    }
    let faults = (bitflip_rate.is_some()
        || fill_bitflip_rate.is_some()
        || wakeup_drop_rate.is_some()
        || writeback_fault_rate.is_some()
        || no_writeback)
        .then(|| FaultConfig {
            seed,
            bitflip_rate: bitflip_rate.unwrap_or(0.0),
            fill_bitflip_rate: fill_bitflip_rate.unwrap_or(0.0),
            wakeup_drop_rate: wakeup_drop_rate.unwrap_or(0.0),
            writeback_fault_rate: writeback_fault_rate.unwrap_or(0.0),
            drop_writebacks: no_writeback,
            disable_recovery: no_fault_recovery,
            ..FaultConfig::default()
        });
    if no_fault_recovery && faults.is_none() {
        eprintln!("--no-fault-recovery only makes sense with an --inject* flag\n");
        usage();
    }
    if (inject_store_rate.is_some() || store_verify) && store_dir.is_none() {
        eprintln!("--inject-store / --store-verify require --store <dir>\n");
        usage();
    }
    // Experiment-level jobs and intra-simulation shards multiply into
    // total thread demand, so an unspecified --jobs shares the core
    // budget with --sim-threads instead of oversubscribing the host.
    let jobs = jobs.unwrap_or_else(|| (default_jobs() / sim_threads).max(1));
    Options {
        jobs,
        sim_threads,
        write_back,
        faults,
        overrides,
        timings,
        shadow_check,
        store_dir,
        store_verify,
        inject_store_rate,
        seed,
    }
}

/// Environment variables that used to configure `LatteConfig::paper`
/// (removed: they were hidden process-global state, racy under the
/// parallel experiment driver). Setting any of them now only triggers a
/// warning on stderr. This check lives in the driver binary — the only
/// place in the workspace allowed to touch the process environment or
/// write to stderr directly.
const REMOVED_ENV_KNOBS: [(&str, &str); 4] = [
    ("LATTE_MISS_LATENCY", "--miss-latency / LatteConfig::with_miss_latency"),
    ("LATTE_TOLERANCE_SCALE", "--tolerance-scale / LatteConfig::with_tolerance_scale"),
    ("LATTE_FORCE_MODE", "--force-mode / LatteConfig::force_mode"),
    ("LATTE_DEBUG_DECIDE", "--debug-decide / LatteConfig::decide_trace"),
];

/// Warns if any removed `LATTE_*` env knob is still set, so stale
/// calibration scripts fail loudly instead of silently running the
/// defaults.
fn warn_on_removed_env_knobs() {
    for (var, replacement) in REMOVED_ENV_KNOBS {
        if std::env::var_os(var).is_some() {
            eprintln!(
                "latte-bench: warning: the {var} environment variable is no longer read \
                 (env knobs were hidden process-global state, racy under the parallel \
                 experiment driver); it is IGNORED. Use {replacement} instead."
            );
        }
    }
}

fn main() {
    warn_on_removed_env_knobs();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_options(&mut args);
    if opts.sim_threads > 1 {
        latte_bench::set_sim_threads(opts.sim_threads);
        println!(
            "[sim threads: {} — each simulation's SMs sharded behind a deterministic \
             epoch barrier; results are byte-identical to --sim-threads 1]",
            opts.sim_threads
        );
    }
    if opts.write_back {
        latte_bench::set_write_back(true);
        println!("[write-back on: L1 runs write-back/write-allocate with dirty compressed lines]");
    }
    if let Some(faults) = opts.faults {
        latte_bench::set_fault_injection(faults);
        println!(
            "[fault injection on: L1-hit bit-flip rate {:e}, fill bit-flip rate {:e}, \
             wakeup-drop rate {:e}, write-back fault rate {:e}{}, seed {}]",
            faults.bitflip_rate,
            faults.fill_bitflip_rate,
            faults.wakeup_drop_rate,
            faults.writeback_fault_rate,
            if faults.drop_writebacks {
                ", DROPPING dirty write-backs (planted mutation)"
            } else {
                ""
            },
            faults.seed
        );
    }
    if opts.overrides != LatteOverrides::default() {
        latte_bench::set_latte_overrides(opts.overrides);
    }
    if opts.shadow_check {
        latte_bench::set_shadow_check(true);
        println!("[shadow check on: every simulation runs against the differential oracle]");
    }
    if let Some(dir) = &opts.store_dir {
        let mut config = latte_store::StoreConfig::at(dir.clone());
        if let Some(rate) = opts.inject_store_rate {
            config.faults = Some(latte_store::StoreFaultConfig {
                seed: opts.seed,
                rate,
            });
            println!("[store fault injection on: rate {rate:e}, seed {}]", opts.seed);
        }
        match latte_bench::sim::configure_store(config) {
            Ok(report) => {
                for warning in &report.warnings {
                    eprintln!("latte-bench: warning: {warning}");
                }
                if report.disk_enabled {
                    let r = report.recovery;
                    println!(
                        "[store at {} — recovery: {} torn removed, {} adopted, \
                         {} quarantined, {} missing dropped{}]",
                        dir.display(),
                        r.torn_removed,
                        r.adopted,
                        r.quarantined,
                        r.missing_dropped,
                        if r.index_rebuilt { ", index rebuilt" } else { "" }
                    );
                }
            }
            Err(err) => {
                eprintln!("latte-bench: {err}");
                std::process::exit(2);
            }
        }
        if opts.store_verify {
            latte_bench::sim::set_store_verify(true);
            println!("[store verify on: every store hit is re-simulated and byte-compared]");
        }
    }
    if args.is_empty() {
        usage();
    }
    let selected: Vec<&Experiment> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().collect()
    } else {
        args.iter()
            .map(|a| {
                EXPERIMENTS
                    .iter()
                    .find(|(name, _, _)| name.eq_ignore_ascii_case(a))
                    .unwrap_or_else(|| {
                        eprintln!("unknown experiment: {a}\n");
                        usage()
                    })
            })
            .collect()
    };
    if opts.timings {
        latte_bench::timing::install_compressor_clock();
    }
    let (failed, outcomes) = latte_bench::run_experiments_with_outcomes(&selected, opts.jobs);
    // Make every pending store write durable (and its counters final)
    // before the timing report reads them.
    latte_bench::sim::shutdown_store();
    if opts.timings {
        let experiments: Vec<(&str, f64)> =
            outcomes.iter().map(|o| (o.name, o.secs)).collect();
        latte_bench::timing::print_report(&experiments, &latte_bench::sim::stats());
    }
    // The service's "each unique simulation ran exactly once" contract is
    // cheap to check and load-bearing for both correctness and the perf
    // model, so assert it on every invocation.
    if let Err(violation) = latte_bench::sim::verify_each_sim_ran_once() {
        eprintln!("latte-bench: {violation}");
        std::process::exit(1);
    }
    if opts.store_verify {
        let verify_failures = latte_bench::sim::stats().verify_failures;
        if verify_failures > 0 {
            eprintln!(
                "latte-bench: --store-verify found {verify_failures} stored record(s) \
                 diverging from a fresh recompute — see the [store-verify] lines above"
            );
            std::process::exit(1);
        }
    }
    if opts.shadow_check {
        let tally = latte_bench::shadow_tally();
        if tally.violations > 0 {
            eprintln!(
                "latte-bench: shadow check found {} violation(s) across {} simulation(s) \
                 ({} loads checked) — see the [shadow] lines above",
                tally.violations, tally.sims, tally.loads_checked
            );
            std::process::exit(1);
        }
    }
    if failed > 0 {
        eprintln!("{failed} experiment(s) failed");
        std::process::exit(1);
    }
}
