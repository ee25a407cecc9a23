//! Wall-clock bookkeeping behind the `--timings` flag.
//!
//! This module is deliberately the **only** place in the workspace's
//! non-test code that reads a clock. The simulation crates model time as
//! cycles and must stay wall-clock-free so results are a pure function
//! of their inputs (lint rule D1 enforces this for the sim crates); the
//! bench binary is the one component that may observe real time, and it
//! funnels every such read through [`Stopwatch`] here so the boundary
//! stays auditable.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Whether `--timings` was passed: gates *printing* the report, not
/// collection (recording a label and an `f64` per simulation is far too
/// cheap to branch on).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enables or disables the end-of-run timing report (`--timings`).
pub fn set_report_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
    if on {
        install_compressor_clock();
    }
}

/// Installs this binary's monotonic clock into the compress crate's
/// operation counters, so the `--timings` report can split cumulative
/// compressor time by stage (probe vs full encode vs decode). The
/// compress crate itself stays wall-clock-free (lint rule D1); it only
/// ever sees the injected function below. Idempotent: the first
/// installation wins.
pub fn install_compressor_clock() {
    fn monotonic_ns() -> u64 {
        static BASELINE: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        let base = *BASELINE.get_or_init(Instant::now);
        u64::try_from(base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
    // Prime the baseline so the first sample isn't measured against itself.
    let _ = monotonic_ns();
    latte_compress::stats::install_clock(monotonic_ns);
    // The epoch-barrier scheduler shares the same injected clock so its
    // per-thread busy/stall split lands in the same time base. Like the
    // compressor counters, gpusim itself never reads a clock (rule D1).
    latte_gpusim::install_epoch_clock(monotonic_ns);
}

/// Returns whether the end-of-run timing report was requested.
pub fn report_enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// A started wall-clock measurement.
#[derive(Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the clock.
    pub fn start() -> Self {
        // latte-lint: allow(T1, reason = "the bench driver's single wall-clock read; elapsed times go to host-time report columns only and never feed back into simulated results")
        Stopwatch(Instant::now())
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// One timed simulation compute (cache hits are not re-timed; replaying
/// a memoized result costs microseconds).
#[derive(Debug, Clone)]
struct SimRecord {
    label: String,
    secs: f64,
}

static SIM_TIMES: Mutex<Vec<SimRecord>> = Mutex::new(Vec::new());

/// Records the wall time of one simulation compute. `label` should
/// identify the job, e.g. `"Baseline/NW"` or `"LatteCC/KM [cfg 3f2a]"`.
pub fn record_sim(label: String, secs: f64) {
    let mut times = SIM_TIMES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    times.push(SimRecord { label, secs });
}

/// Drains and returns all recorded sim timings as `(label, secs)`,
/// slowest first. Used by the report printer and by tests.
pub fn take_sim_times() -> Vec<(String, f64)> {
    let mut times = std::mem::take(
        &mut *SIM_TIMES
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    times.sort_by(|a, b| b.secs.total_cmp(&a.secs).then_with(|| a.label.cmp(&b.label)));
    times.into_iter().map(|r| (r.label, r.secs)).collect()
}

/// Epoch-barrier telemetry accumulated across every parallel simulation
/// of the run (`Option` because [`latte_gpusim::EpochStats`] owns
/// per-thread vectors and has no `const` constructor).
static EPOCH: Mutex<Option<latte_gpusim::EpochStats>> = Mutex::new(None);

/// Folds one simulation's epoch-barrier telemetry into the run-wide
/// accumulator. Serial runs produce zero epochs and are skipped, so the
/// report section only appears when `--sim-threads` actually sharded
/// something.
pub fn record_epoch_stats(stats: &latte_gpusim::EpochStats) {
    if stats.epochs == 0 {
        return;
    }
    let mut slot = EPOCH
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    slot.get_or_insert_with(latte_gpusim::EpochStats::default)
        .merge(stats);
}

/// Drains the run-wide epoch-barrier telemetry, if any parallel
/// simulation recorded some. Used by the report printer and by tests.
pub fn take_epoch_stats() -> Option<latte_gpusim::EpochStats> {
    EPOCH
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take()
}

/// Prints the `--timings` report to stdout: per-experiment wall time
/// (slowest first), then per-sim-job compute time, then the simulation
/// cache's counters (split by tier: in-process replay vs store memory
/// vs store disk vs computed), then — when a persistent store is
/// configured — the store's write/quarantine/fault counters, then the
/// cumulative compressor work split by stage (probe/encode/decode).
///
/// `experiments` is `(name, secs)` per completed experiment; `cache` is
/// the simulation service's counters.
pub fn print_report(experiments: &[(&str, f64)], cache: &crate::sim::SimStats) {
    let mut exps: Vec<&(&str, f64)> = experiments.iter().collect();
    exps.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));

    println!("==================== timings ====================");
    println!("experiments ({} total, slowest first):", exps.len());
    for (name, secs) in exps {
        println!("  {secs:>8.2}s  {name}");
    }

    let sims = take_sim_times();
    // `+ 0.0` normalises the -0.0 an empty float sum starts from, which
    // would otherwise print as "-0.00s".
    let total: f64 = sims.iter().map(|(_, s)| s).sum::<f64>() + 0.0;
    println!(
        "simulation jobs ({} computed, {:.2}s simulating, slowest first):",
        sims.len(),
        total
    );
    const SHOWN: usize = 25;
    for (label, secs) in sims.iter().take(SHOWN) {
        println!("  {secs:>8.2}s  {label}");
    }
    if sims.len() > SHOWN {
        println!("  ... and {} more under {:.2}s", sims.len() - SHOWN, sims[SHOWN - 1].1);
    }

    let pct = if cache.requests == 0 {
        0.0
    } else {
        100.0 * cache.hits() as f64 / cache.requests as f64
    };
    println!(
        "sim cache: {} requests, {} hits ({pct:.0}%): {} memory, {} store; {} computed",
        cache.requests,
        cache.hits(),
        cache.replay_hits,
        cache.store_fills,
        cache.computed
    );

    if let Some(store) = crate::sim::store_stats() {
        println!(
            "store: {} durable writes, {} dropped, {} write failures; {} quarantined, \
             {} missing, {} adopted, {} torn removed; {} fault(s) injected",
            store.durable_writes,
            store.dropped_writes,
            store.write_failures,
            store.quarantined,
            store.missing,
            store.adopted,
            store.torn_removed,
            store.injected_faults
        );
    }
    if cache.verify_failures > 0 {
        println!(
            "store verify: {} stored record(s) diverged from recompute",
            cache.verify_failures
        );
    }

    let comp = latte_compress::stats::snapshot();
    if comp.total_ops() > 0 {
        let secs = |ns: u64| ns as f64 / 1e9;
        println!(
            "compressors: {} size probes ({:.2}s), {} full encodes ({:.2}s), \
             {} decodes ({:.2}s)",
            comp.probe_ops,
            secs(comp.probe_ns),
            comp.encode_ops,
            secs(comp.encode_ns),
            comp.decode_ops,
            secs(comp.decode_ns)
        );
    }

    if let Some(epoch) = take_epoch_stats() {
        let secs = |ns: u64| ns as f64 / 1e9;
        println!(
            "epoch barrier: {} epochs over {} simulated cycles \
             (mean {:.1} cycles/epoch, longest {}), {} shard(s)",
            epoch.epochs,
            epoch.advanced_cycles,
            epoch.mean_epoch_cycles(),
            epoch.max_epoch_cycles,
            epoch.shards
        );
        for (i, (&busy, &stall)) in epoch.busy_ns.iter().zip(&epoch.stall_ns).enumerate() {
            let span = busy + stall;
            let pct = if span == 0 {
                0.0
            } else {
                100.0 * stall as f64 / span as f64
            };
            println!(
                "  thread {i}: {:>8.2}s busy, {:>8.2}s barrier stall ({pct:.0}%)",
                secs(busy),
                secs(stall)
            );
        }
    }

    let shadow = crate::runner::shadow_tally();
    if shadow.sims > 0 {
        // Overhead is visible directly above: shadow-checked jobs carry a
        // "[shadow]" label suffix in the per-job times.
        println!(
            "shadow check: {} sims, {} loads checked, {} checkpoints, {} violation(s)",
            shadow.sims, shadow.loads_checked, shadow.checkpoints, shadow.violations
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_moves_forward() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(sw.elapsed_secs() > 0.0);
    }

    #[test]
    fn sim_times_drain_sorted() {
        // Use labels unlikely to collide with other tests' records; the
        // registry is process-global and tests run concurrently.
        record_sim("timing-test/slow".to_owned(), 123_456.0);
        record_sim("timing-test/fast".to_owned(), 123_455.0);
        let times = take_sim_times();
        let slow = times.iter().position(|(l, _)| l == "timing-test/slow");
        let fast = times.iter().position(|(l, _)| l == "timing-test/fast");
        match (slow, fast) {
            (Some(s), Some(f)) => assert!(s < f, "slowest must sort first"),
            _ => panic!("records missing from drained registry"),
        }
    }

    #[test]
    fn report_enable_round_trips() {
        let before = report_enabled();
        set_report_enabled(true);
        assert!(report_enabled());
        set_report_enabled(before);
    }
}
