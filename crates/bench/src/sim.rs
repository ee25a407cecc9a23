//! The memoized simulation service, optionally backed by the crash-safe
//! persistent result store (`latte-store`).
//!
//! Every benchmark simulation in the bench harness flows through
//! [`run_cached`]: the job is keyed by *what would be simulated* — the
//! policy, a structural fingerprint of the [`BenchmarkSpec`], a
//! structural fingerprint of the [`GpuConfig`] (including fault
//! injection) and the process-wide controller overrides — and a
//! process-wide cache guarantees each unique key is **computed exactly
//! once per invocation**, no matter how many experiments request it.
//! The default sweep requests the Baseline/`experiment_config` run of
//! every suite benchmark from a dozen different figures; under the
//! service those all share one simulation.
//!
//! Because simulations are deterministic (enforced by
//! `crates/bench/tests/determinism.rs` and lint rule D1), replaying a
//! memoized result is observationally identical to re-running it — with
//! one subtlety: simulations also *print* (watchdog diagnostics,
//! early-stop warnings, `--debug-decide` traces). The service captures
//! everything a compute prints into [`SimOutcome::diag`] and re-emits it
//! into the requesting experiment's output buffer on **every**
//! consumption, so each experiment's captured output is the same whether
//! it hit or missed the cache.
//!
//! # Persistence (`--store`)
//!
//! When [`configure_store`] is called (the `--store <dir>` flag), each
//! first-in-process request additionally consults the persistent store
//! under a salted content key before simulating, and each fresh compute
//! is written through. A store hit is decoded by [`crate::codec`] —
//! whose decode *is* validation on top of the store's own checksum — and
//! then treated exactly like a computed result: same diagnostics
//! re-emission, same shadow-tally accounting, same result bytes. Any
//! store-side problem (corrupt record, stale schema, unwritable
//! directory) degrades to a recompute; the store can cost time, never
//! correctness. `--store-verify` re-simulates every store hit and
//! byte-compares the re-encoded outcome against the stored record,
//! counting (and healing) any divergence.
//!
//! The memo map holds the only in-memory copy of an outcome, and every
//! resolved cell stays resident for the whole process; the store is a
//! durable disk tier only.
//!
//! Concurrency: one mutex guards the cell map together with the
//! service's counters, so a request is counted as a replay or a claim
//! at lookup, and a cell's resolution (its counter bump and its change
//! to `Ready` or `Failed`) is a single step under that lock. The first
//! requester claims the cell and computes inline, outside the lock;
//! later requesters block on the service's condvar until it resolves. A
//! compute never requests another simulation (single-level, enforced by
//! structure: computes call [`runner::run_benchmark_uncached`] which
//! goes straight to the simulator), so cell waits cannot cycle. A
//! panicking compute parks the panic message in the cell, and every
//! requester re-raises it — one poisoned simulation fails exactly the
//! experiments that depend on it.

use crate::codec;
use crate::pool;
use crate::report;
use crate::runner::{self, BenchResult, PolicyKind};
use crate::timing;
use latte_gpusim::{Fingerprinter, GpuConfig};
use latte_store::{OpenReport, Store, StoreConfig, StoreStats};
use latte_workloads::BenchmarkSpec;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Canonical identity of one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SimKey {
    policy: PolicyKind,
    /// Structural fingerprint of (benchmark spec, gpu config, controller
    /// overrides).
    fingerprint: u128,
}

/// A finished simulation: its result plus everything it printed.
#[derive(Debug)]
struct SimOutcome {
    result: BenchResult,
    diag: String,
}

/// Lifecycle of one cache slot.
enum CellState {
    /// A thread is computing (or loading from the store) this simulation.
    InFlight,
    /// The outcome is resident in memory.
    Ready(Arc<SimOutcome>),
    /// The compute panicked; every requester re-raises the message.
    Failed(String),
}

/// The cell map and the counters that account for it, kept under one
/// lock so that every snapshot of them is consistent.
#[derive(Default)]
struct Memo {
    cells: HashMap<SimKey, CellState>,
    stats: SimStats,
}

/// The memo and the condvar its waiters block on.
struct Service {
    memo: Mutex<Memo>,
    /// Signalled whenever a cell resolves.
    resolved: Condvar,
}

static SERVICE: OnceLock<Service> = OnceLock::new();

/// The persistent result store, configured at most once per process
/// from `--store`. `None` (never configured) means the service behaves
/// exactly as the original process-local memo cache.
static STORE: OnceLock<Arc<Store>> = OnceLock::new();
/// Whether `--store-verify` re-simulates and byte-compares store hits.
static STORE_VERIFY: OnceLock<bool> = OnceLock::new();

fn lock<'a, T: ?Sized>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn service() -> &'static Service {
    SERVICE.get_or_init(|| Service {
        memo: Mutex::new(Memo::default()),
        resolved: Condvar::new(),
    })
}

/// Opens the persistent result store and installs it for every
/// subsequent simulation in this process. Never fails: an unusable
/// directory leaves the service memo-only, reported in the returned
/// [`OpenReport`]'s warnings.
///
/// # Errors
///
/// Returns `Err` if a store was already configured (write-once, same
/// discipline as the other process-global switches); the redundant
/// store is shut down before returning.
pub fn configure_store(config: StoreConfig) -> Result<OpenReport, &'static str> {
    let (store, open_report) = Store::open(config);
    let store = Arc::new(store);
    match STORE.set(Arc::clone(&store)) {
        Ok(()) => Ok(open_report),
        Err(_) => {
            store.shutdown();
            Err("result store already configured")
        }
    }
}

/// Enables `--store-verify`. Returns `false` if already set.
pub fn set_store_verify(enabled: bool) -> bool {
    STORE_VERIFY.set(enabled).is_ok()
}

fn store_verify_enabled() -> bool {
    STORE_VERIFY.get().copied().unwrap_or(false)
}

fn store() -> Option<&'static Arc<Store>> {
    STORE.get()
}

/// The persistent store's counters, when one is configured.
#[must_use]
pub fn store_stats() -> Option<StoreStats> {
    STORE.get().map(|s| s.stats())
}

/// Blocks until every pending store write is durable.
pub fn flush_store() {
    if let Some(store) = STORE.get() {
        store.flush();
    }
}

/// Flushes and stops the store's writer. Called by the driver before
/// printing timings so `durable_writes` is final.
pub fn shutdown_store() {
    if let Some(store) = STORE.get() {
        store.shutdown();
    }
}

fn key_for(policy: PolicyKind, bench: &BenchmarkSpec, config: &GpuConfig) -> SimKey {
    let mut fp = Fingerprinter::new();
    bench.write_fingerprint(&mut fp);
    fp.write_u64(0x5e70_ffff); // domain separator: spec | config
    let cfg_fp = config.fingerprint();
    fp.write_u64(cfg_fp as u64);
    fp.write_u64((cfg_fp >> 64) as u64);
    // The controller overrides are process-global and write-once, but
    // folding them in keeps the key honest about everything that shapes
    // the simulation.
    let ov = runner::latte_overrides();
    fp.write_opt_f64(ov.miss_latency);
    fp.write_opt_f64(ov.tolerance_scale);
    fp.write_u64(match ov.force_mode {
        None => 0,
        Some(latte_core::CompressionMode::None) => 1,
        Some(latte_core::CompressionMode::LowLatency) => 2,
        Some(latte_core::CompressionMode::HighCapacity) => 3,
    });
    fp.write_bool(ov.debug_decide);
    // A shadow-checked simulation prints a verification summary and
    // carries an oracle report, so it must not alias an unchecked run.
    fp.write_bool(runner::shadow_check_enabled());
    SimKey {
        policy,
        fingerprint: fp.finish(),
    }
}

/// Derives the persistent-store content key for a simulation. Salted by
/// a store-payload domain string (folded together with the fingerprint
/// schema version) so that any change to the outcome encoding or the
/// fingerprint algorithm retires every old record as a clean miss.
fn disk_key_for(key: &SimKey) -> u128 {
    let mut fp = Fingerprinter::salted("latte-sim-outcome/v1");
    fp.write_u64(u64::from(codec::policy_tag(key.policy)));
    fp.write_u64(key.fingerprint as u64);
    fp.write_u64((key.fingerprint >> 64) as u64);
    fp.finish()
}

/// Computes one simulation with its printed output harvested into the
/// returned [`SimOutcome`] instead of the current capture.
fn compute(
    policy: PolicyKind,
    bench: &BenchmarkSpec,
    config: &GpuConfig,
) -> Result<Arc<SimOutcome>, String> {
    let watch = timing::Stopwatch::start();
    let saved = report::swap_capture(Some(String::new()));
    let result = catch_unwind(AssertUnwindSafe(|| {
        runner::run_benchmark_uncached(policy, bench, config)
    }));
    let diag = report::swap_capture(saved).unwrap_or_default();
    let shadow_suffix = if runner::shadow_check_enabled() {
        " [shadow]"
    } else {
        ""
    };
    timing::record_sim(
        format!("{}/{}{shadow_suffix}", policy.name(), bench.abbr),
        watch.elapsed_secs(),
    );
    match result {
        Ok(result) => Ok(Arc::new(SimOutcome { result, diag })),
        Err(payload) => {
            // The experiment that triggered the compute still gets the
            // partial diagnostics; the panic itself is parked in the
            // cell and re-raised by every requester.
            report::emit(format_args!("{diag}"));
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            Err(format!(
                "simulation {}/{} panicked: {msg}",
                policy.name(),
                bench.abbr
            ))
        }
    }
}

/// Resolves a claimed cell: counts how it was resolved and installs its
/// final state in one step under the memo lock, then wakes any waiters.
fn resolve(key: SimKey, state: CellState, from_store: bool) {
    let service = service();
    let mut memo = lock(&service.memo);
    if from_store {
        memo.stats.store_fills += 1;
    } else {
        memo.stats.computed += 1;
    }
    memo.cells.insert(key, state);
    service.resolved.notify_all();
}

/// Encodes and writes `outcome` through to the store (if configured).
fn persist(disk_key: u128, outcome: &SimOutcome) {
    if let Some(store) = store() {
        let bytes = codec::encode_outcome(&outcome.result, &outcome.diag);
        store.put(disk_key, Arc::new(bytes));
    }
}

/// Tries to resolve a cell from the persistent store. Returns the
/// decoded outcome together with the stored bytes, or `None` on miss /
/// undecodable payload (the store already quarantined anything that
/// failed its checksum; a codec-level reject here means a record from
/// an incompatible build — treated identically as a miss).
fn load_from_store(
    disk_key: u128,
    policy: PolicyKind,
    bench: &BenchmarkSpec,
) -> Option<(Arc<SimOutcome>, Vec<u8>)> {
    let bytes = store()?.get(disk_key)?;
    let (result, diag) = codec::decode_outcome(&bytes, policy, bench).ok()?;
    Some((Arc::new(SimOutcome { result, diag }), bytes))
}

fn count_verify_failure() {
    lock(&service().memo).stats.verify_failures += 1;
}

/// `--store-verify`: re-simulates a store hit and byte-compares the
/// re-encoded outcome against the stored record. On mismatch, prefers
/// the freshly computed result and heals the store with it.
fn verify_store_hit(
    disk_key: u128,
    policy: PolicyKind,
    bench: &BenchmarkSpec,
    config: &GpuConfig,
    stored_bytes: &[u8],
) -> Option<Arc<SimOutcome>> {
    let watch = timing::Stopwatch::start();
    let saved = report::swap_capture(Some(String::new()));
    let recomputed = catch_unwind(AssertUnwindSafe(|| {
        runner::run_benchmark_untallied(policy, bench, config)
    }));
    let diag = report::swap_capture(saved).unwrap_or_default();
    timing::record_sim(
        format!("{}/{} [store-verify]", policy.name(), bench.abbr),
        watch.elapsed_secs(),
    );
    let Ok(result) = recomputed else {
        // The reference recompute itself died: the stored record cannot
        // be confirmed, which is exactly what --store-verify exists to
        // surface.
        count_verify_failure();
        report::emit(format_args!(
            "[store-verify] {}/{}: recompute panicked; stored record unconfirmed\n",
            policy.name(),
            bench.abbr
        ));
        return None;
    };
    let fresh = codec::encode_outcome(&result, &diag);
    if fresh == stored_bytes {
        return None;
    }
    count_verify_failure();
    report::emit(format_args!(
        "[store-verify] {}/{}: stored record diverges from recompute \
         ({} vs {} bytes); using the recompute and overwriting the record\n",
        policy.name(),
        bench.abbr,
        stored_bytes.len(),
        fresh.len()
    ));
    if let Some(store) = store() {
        store.put(disk_key, Arc::new(fresh));
    }
    Some(Arc::new(SimOutcome { result, diag }))
}

/// Resolves a freshly claimed cell: persistent store first, then a real
/// compute (written through to the store).
fn resolve_claimed(
    key: SimKey,
    policy: PolicyKind,
    bench: &BenchmarkSpec,
    config: &GpuConfig,
) -> Arc<SimOutcome> {
    let disk_key = disk_key_for(&key);
    if let Some((outcome, bytes)) = load_from_store(disk_key, policy, bench) {
        // A cold compute would have folded its oracle report into the
        // process tally; a warm fill must look identical.
        if let Some(shadow) = &outcome.result.shadow {
            runner::tally_shadow_replay(shadow);
        }
        let outcome = if store_verify_enabled() {
            verify_store_hit(disk_key, policy, bench, config, &bytes).unwrap_or(outcome)
        } else {
            outcome
        };
        resolve(key, CellState::Ready(Arc::clone(&outcome)), true);
        return outcome;
    }
    match compute(policy, bench, config) {
        Ok(outcome) => {
            persist(disk_key, &outcome);
            resolve(key, CellState::Ready(Arc::clone(&outcome)), false);
            outcome
        }
        Err(msg) => {
            resolve(key, CellState::Failed(msg.clone()), false);
            resume_unwind(Box::new(msg))
        }
    }
}

/// Returns the memoized outcome for a key, computing it if this is the
/// first request.
fn outcome_for(policy: PolicyKind, bench: &BenchmarkSpec, config: &GpuConfig) -> Arc<SimOutcome> {
    let key = key_for(policy, bench, config);
    let service = service();
    let mut memo = lock(&service.memo);
    memo.stats.requests += 1;
    if let Entry::Vacant(cell) = memo.cells.entry(key) {
        cell.insert(CellState::InFlight);
        drop(memo);
        return resolve_claimed(key, policy, bench, config);
    }
    memo.stats.replay_hits += 1;
    loop {
        match memo.cells.get(&key) {
            Some(CellState::Ready(outcome)) => return Arc::clone(outcome),
            Some(CellState::Failed(msg)) => {
                let msg = msg.clone();
                drop(memo);
                resume_unwind(Box::new(msg));
            }
            // Cells are never removed, so a present key stays present.
            Some(CellState::InFlight) | None => {
                memo = service
                    .resolved
                    .wait(memo)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
    }
}

/// Runs (or replays) `bench` under `policy` on `config`, re-emitting the
/// simulation's diagnostics into the current output capture. This is the
/// single entry point behind [`runner::run_benchmark_with_config`].
pub fn run_cached(policy: PolicyKind, bench: &BenchmarkSpec, config: &GpuConfig) -> BenchResult {
    let outcome = outcome_for(policy, bench, config);
    report::emit(format_args!("{}", outcome.diag));
    outcome.result.clone()
}

/// One simulation request for the batch APIs.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Policy to evaluate.
    pub policy: PolicyKind,
    /// Benchmark to run.
    pub bench: BenchmarkSpec,
    /// Machine configuration.
    pub config: GpuConfig,
}

/// Runs a batch of simulations as pool subtasks, saturating every
/// driver worker, and returns results in submission order. Diagnostics
/// land in the calling experiment's capture in submission order, so a
/// batched experiment prints the same bytes at any `--jobs` level.
///
/// Duplicate keys within one batch are fine: the cache computes the
/// first and the rest await the same cell.
pub fn run_batch(jobs: Vec<SimJob>) -> Vec<BenchResult> {
    let tasks: Vec<Box<dyn FnOnce() -> BenchResult + Send>> = jobs
        .into_iter()
        .map(|job| {
            Box::new(move || run_cached(job.policy, &job.bench, &job.config))
                as Box<dyn FnOnce() -> BenchResult + Send>
        })
        .collect();
    pool::run_subtasks(tasks)
}

/// [`run_batch`] over the cross product `policies` × `benches` on one
/// config; returns results grouped per benchmark, policies in the given
/// order (`result[b][p]` = `benches[b]` under `policies[p]`).
pub fn run_matrix(
    policies: &[PolicyKind],
    benches: &[BenchmarkSpec],
    config: &GpuConfig,
) -> Vec<Vec<BenchResult>> {
    let jobs: Vec<SimJob> = benches
        .iter()
        .flat_map(|bench| {
            policies.iter().map(|&policy| SimJob {
                policy,
                bench: bench.clone(),
                config: config.clone(),
            })
        })
        .collect();
    let mut flat = run_batch(jobs).into_iter();
    benches
        .iter()
        .map(|_| (0..policies.len()).filter_map(|_| flat.next()).collect())
        .collect()
}

/// [`run_matrix`] on the default experiment machine
/// ([`runner::experiment_config`]).
pub fn run_matrix_default(
    policies: &[PolicyKind],
    benches: &[BenchmarkSpec],
) -> Vec<Vec<BenchResult>> {
    run_matrix(policies, benches, &runner::experiment_config())
}

/// Simulation-service counters since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Simulations requested through the service.
    pub requests: u64,
    /// Requests served by a cell already claimed in this process
    /// (the original memo-cache hit).
    pub replay_hits: u64,
    /// Cells resolved by running the simulator.
    pub computed: u64,
    /// Cells resolved from the persistent store instead of computed.
    pub store_fills: u64,
    /// `--store-verify` divergences detected.
    pub verify_failures: u64,
}

impl SimStats {
    /// Requests that did not run the simulator, from memory or store.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.replay_hits + self.store_fills
    }
}

/// The service's counters since process start.
#[must_use]
pub fn stats() -> SimStats {
    lock(&service().memo).stats
}

/// Checks the service's "each unique simulation ran exactly once"
/// contract on one consistent snapshot of the memo: every request
/// either claimed a new key or replayed a claimed one, and every
/// claimed key is in flight or was resolved exactly once (by compute or
/// by store fill).
///
/// # Errors
///
/// Returns a description of the violated invariant.
pub fn verify_each_sim_ran_once() -> Result<(), String> {
    let memo = lock(&service().memo);
    let s = memo.stats;
    let unique = memo.cells.len() as u64;
    let in_flight = memo
        .cells
        .values()
        .filter(|c| matches!(c, CellState::InFlight))
        .count() as u64;
    drop(memo);
    if s.requests != s.replay_hits + unique {
        return Err(format!(
            "sim cache invariant violated: {} requests != {} replays + {unique} unique keys",
            s.requests, s.replay_hits
        ));
    }
    if s.computed + s.store_fills + in_flight != unique {
        return Err(format!(
            "sim cache invariant violated: {} computes + {} store fills + {in_flight} in flight \
             for {unique} unique keys",
            s.computed, s.store_fills
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nw() -> BenchmarkSpec {
        latte_workloads::benchmark("NW").expect("NW exists")
    }

    #[test]
    fn cache_replays_results_and_diagnostics_identically() {
        let bench = nw();
        let config = GpuConfig {
            num_sms: 1,
            ..GpuConfig::small()
        };
        let resolved_before = stats().computed + stats().store_fills;

        report::begin_capture();
        let cold = run_cached(PolicyKind::StaticBdi, &bench, &config);
        let cold_text = report::end_capture();
        let resolved_mid = stats().computed + stats().store_fills;

        report::begin_capture();
        let warm = run_cached(PolicyKind::StaticBdi, &bench, &config);
        let warm_text = report::end_capture();
        let resolved_after = stats().computed + stats().store_fills;

        assert_eq!(cold.stats.cycles, warm.stats.cycles);
        assert_eq!(cold.energy.total_nj(), warm.energy.total_nj());
        assert_eq!(cold_text, warm_text, "replayed diagnostics must match");
        // Other tests run concurrently against the same process-wide
        // cache, so assert deltas local to this key: the warm request
        // resolved nothing new.
        assert!(resolved_mid > resolved_before);
        assert_eq!(resolved_mid, resolved_after);
    }

    #[test]
    fn distinct_configs_do_not_alias() {
        let bench = nw();
        let a = GpuConfig {
            num_sms: 1,
            ..GpuConfig::small()
        };
        let b = GpuConfig {
            num_sms: 1,
            l1_hit_latency: a.l1_hit_latency + 1,
            ..GpuConfig::small()
        };
        let ra = run_cached(PolicyKind::Baseline, &bench, &a);
        let rb = run_cached(PolicyKind::Baseline, &bench, &b);
        assert_ne!(ra.stats.cycles, rb.stats.cycles);
    }

    #[test]
    fn batch_matches_serial_results() {
        let bench = nw();
        let config = GpuConfig {
            num_sms: 1,
            ..GpuConfig::small()
        };
        let policies = [PolicyKind::Baseline, PolicyKind::StaticSc];
        let matrix = run_matrix(&policies, std::slice::from_ref(&bench), &config);
        assert_eq!(matrix.len(), 1);
        assert_eq!(matrix[0].len(), 2);
        for (i, &policy) in policies.iter().enumerate() {
            let serial = run_cached(policy, &bench, &config);
            assert_eq!(matrix[0][i].policy, policy);
            assert_eq!(matrix[0][i].stats.cycles, serial.stats.cycles);
        }
        assert!(verify_each_sim_ran_once().is_ok());
    }

    /// A sibling's in-flight simulation must never break the invariant:
    /// a poll that lands mid-compute sees the claimed key as in flight.
    #[test]
    fn invariant_holds_while_a_sibling_computes() {
        let bench = nw();
        let small = GpuConfig::small();
        let config = GpuConfig {
            num_sms: 1,
            l1_hit_latency: small.l1_hit_latency + 7,
            ..small
        };
        let sibling = std::thread::spawn(move || run_cached(PolicyKind::Baseline, &bench, &config));
        let (mut polls, mut violations, mut first) = (0u64, 0u64, None);
        while !sibling.is_finished() {
            polls += 1;
            if let Err(e) = verify_each_sim_ran_once() {
                violations += 1;
                first.get_or_insert(e);
            }
            std::thread::yield_now();
        }
        sibling.join().expect("sibling simulation");
        assert_eq!(violations, 0, "{violations} of {polls} polls: {first:?}");
    }

    /// End-to-end store integration inside one process: a fresh
    /// compute is written through, and its record decodes to the cold
    /// run's result and diagnostics.
    #[test]
    fn store_writes_computes_through() {
        let dir = std::env::temp_dir().join(format!("latte-sim-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // No other test in this binary configures a store.
        configure_store(StoreConfig::at(dir.clone())).expect("store not yet configured");
        let bench = nw();
        let config = GpuConfig {
            num_sms: 1,
            ..GpuConfig::small()
        };

        report::begin_capture();
        let cold = run_cached(PolicyKind::StaticBpc, &bench, &config);
        let cold_text = report::end_capture();
        flush_store();

        let disk_key = disk_key_for(&key_for(PolicyKind::StaticBpc, &bench, &config));
        let bytes = store()
            .and_then(|s| s.get(disk_key))
            .expect("the compute was written through");
        let (result, diag) =
            codec::decode_outcome(&bytes, PolicyKind::StaticBpc, &bench).expect("record decodes");
        assert_eq!(result.stats, cold.stats);
        assert_eq!(diag, cold_text, "stored diagnostics must match");
        assert_eq!(
            codec::encode_outcome(&result, &diag),
            codec::encode_outcome(&cold, &cold_text),
            "stored outcome must match the cold run field for field"
        );
        assert!(verify_each_sim_ran_once().is_ok());
    }
}
