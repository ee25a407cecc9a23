//! Deterministic intra-simulation parallelism (`GpuConfig::sim_threads`).
//!
//! Shards of `(Sm, policy)` pairs simulate independently for bounded
//! *epochs*, one shard per thread: the calling thread coordinates and
//! runs the lightest shard, and each other shard stays on one worker
//! thread for the whole kernel. All threads meet at one reusable
//! barrier per epoch; while the workers wait there, the coordinator's
//! arbiter drains every shard's buffered L2 traffic through the real
//! shared cache in a fixed total order and routes the resulting
//! completions back to the owning shards. The result is
//! **byte-identical** to the serial loop — every counter, trace line,
//! shadow call and termination cycle — which the determinism suite pins.
//!
//! # Why byte-identity holds
//!
//! * **Epoch bound.** An epoch spans `Δ = min(l2_latency, dram_latency)`
//!   simulated cycles. Every shared-memory round trip takes ≥ Δ cycles,
//!   so a request issued inside an epoch cannot complete — and therefore
//!   cannot influence any SM — before the epoch ends. Within an epoch
//!   the shards are fully independent. (`Δ == 0` forces the serial
//!   path; see [`effective_threads`].)
//! * **Total order at the barrier.** Each SM performs at most one L2
//!   access per cycle (the single LD/ST port), and the serial loop
//!   issues SMs in id order within a cycle, so sorting buffered requests
//!   by `(cycle, sm, seq)` replays the serial L2 access order exactly —
//!   preserving the cache's internal LRU clock and hit/miss statistics.
//! * **Self-targeted events.** Every event an SM pushes targets itself
//!   (fill retries, write-allocate fetches), so per-shard event heaps
//!   pop the same per-SM subsequences as the global serial heap, and
//!   arbiter-generated completions land at cycles ≥ the epoch end.
//! * **Idle equivalence.** A scheduler swept with nothing ready behaves
//!   identically to `account_idle_cycles(1)`: both add its maintained
//!   available-warp count once. No warp changes state inside an idle
//!   gap, so that count is constant across it, and shards only need to
//!   process their own "interesting" cycles — the same fast-forward the
//!   serial loop does.
//! * **Shadow replay.** Shards record oracle calls into a local buffer;
//!   the barrier replays them into the real hook sorted by
//!   `(cycle, phase, sm, seq)` (fills before issues within a cycle),
//!   which is exactly the serial call order.
//!
//! The thread count is *excluded* from the config fingerprint: it cannot
//! change results, so memoized/stored results transfer freely between
//! serial and parallel runs.

use crate::config::GpuConfig;
use crate::ops::Kernel;
use crate::policy::L1CompressionPolicy;
use crate::shadow::{ShadowCheck, ShadowCheckpoint};
use crate::sm::{L2Buffer, L2Port, L2Request, L2RequestKind, MemCtx, MemEvent, MemImage, Sm};
use crate::stats::{KernelStats, TerminationReason};
use latte_cache::{LineAddr, SimpleCache};
use latte_compress::{CacheLine, Cycles};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;

/// Injected wall clock for epoch busy/stall accounting. The simulation
/// crates are wall-clock-free (lint rule D1); like the compressor stage
/// counters, this module only ever sees a clock the driver installs.
/// Without one, all busy/stall figures are zero and epoch *counts* still
/// accumulate. Write-once; the first installation wins.
// latte-lint: shared-boundary(reason = "write-once injected clock fn pointer; read only for epoch busy/stall telemetry that never feeds back into simulated state")
static EPOCH_CLOCK: OnceLock<fn() -> u64> = OnceLock::new();

/// Installs the monotonic nanosecond clock used for epoch/barrier
/// telemetry. Idempotent: the first installation wins.
pub fn install_epoch_clock(clock: fn() -> u64) {
    let _ = EPOCH_CLOCK.set(clock);
}

fn now_ns() -> u64 {
    EPOCH_CLOCK.get().map_or(0, |clock| clock())
}

/// The `(owner, field)` edges of the SM state graph that the epoch
/// barrier machinery touches — the runtime counterpart of lint rule S1's
/// `shared` classification. The partition-conformance test asserts every
/// entry here is classified `shared` in `results/lint_partition.json`,
/// so the static report and the runtime barrier cannot drift apart
/// silently.
pub const ARBITER_SHARED_FIELDS: &[(&str, &str)] = &[
    ("MemCtx", "l2"),
    ("MemCtx", "events"),
    ("MemCtx", "policy"),
    ("MemCtx", "kernel"),
    ("MemCtx", "config"),
    ("MemCtx", "stats"),
    ("MemCtx", "shadow"),
    ("L2Port", "Direct"),
    ("L2Port", "Deferred"),
];

/// Epoch/barrier accounting for `--timings` (host-side telemetry only;
/// deliberately *not* part of [`KernelStats`], which is serialized into
/// the result store and must stay a pure function of the inputs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Barrier rounds run (0 after a serial run).
    pub epochs: u64,
    /// Total simulated cycles covered by those epochs.
    pub advanced_cycles: u64,
    /// Largest single-epoch advance in simulated cycles.
    pub max_epoch_cycles: u64,
    /// Shard/worker count of the widest parallel run recorded.
    pub shards: usize,
    /// Per-thread nanoseconds spent simulating inside epochs. Thread 0
    /// is the coordinator, which runs the lightest shard.
    pub busy_ns: Vec<u64>,
    /// Per-thread nanoseconds spent waiting at the barrier: the
    /// coordinator for the slowest worker, a worker for the next epoch's
    /// release (which includes the coordinator's arbitration).
    pub stall_ns: Vec<u64>,
    /// Nanoseconds the coordinator spent in the serial arbitration step:
    /// draining L2 traffic through the arbiter plus shadow replay.
    pub arbiter_ns: u64,
}

impl EpochStats {
    /// Folds another accounting record into this one (element-wise).
    pub fn merge(&mut self, other: &EpochStats) {
        self.epochs += other.epochs;
        self.advanced_cycles += other.advanced_cycles;
        self.max_epoch_cycles = self.max_epoch_cycles.max(other.max_epoch_cycles);
        self.shards = self.shards.max(other.shards);
        self.arbiter_ns += other.arbiter_ns;
        if self.busy_ns.len() < other.busy_ns.len() {
            self.busy_ns.resize(other.busy_ns.len(), 0);
        }
        if self.stall_ns.len() < other.stall_ns.len() {
            self.stall_ns.resize(other.stall_ns.len(), 0);
        }
        for (into, from) in self.busy_ns.iter_mut().zip(&other.busy_ns) {
            *into += from;
        }
        for (into, from) in self.stall_ns.iter_mut().zip(&other.stall_ns) {
            *into += from;
        }
    }

    /// Mean simulated cycles advanced per epoch.
    #[must_use]
    pub fn mean_epoch_cycles(&self) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            self.advanced_cycles as f64 / self.epochs as f64
        }
    }
}

/// The worker count a config actually gets: `sim_threads`, clamped to
/// the SM count, and forced to 1 when the epoch bound `Δ` would be zero
/// (a zero-latency L2 *and* DRAM leaves no window in which shards are
/// independent).
#[must_use]
pub(crate) fn effective_threads(config: &GpuConfig) -> usize {
    let delta = config.l2_latency.min(config.dram_latency);
    if delta == 0 {
        return 1;
    }
    config.sim_threads.max(1).min(config.num_sms.max(1))
}

/// What the parallel loop hands back to [`crate::Gpu::run_kernel`].
pub(crate) struct Outcome {
    /// Final processed cycle (the serial loop's `cycle` at its break).
    pub cycle: Cycles,
    /// Early-termination reason to run the watchdog audit with, if any.
    pub fallback: Option<TerminationReason>,
}

/// One recorded oracle call, tagged with its deterministic replay key.
enum ShadowCall {
    Fill { addr: LineAddr, data: CacheLine },
    Load { addr: LineAddr, observed: Option<CacheLine> },
    Store { addr: LineAddr, data: CacheLine },
    Checkpoint { kind: ShadowCheckpoint, errors: Vec<String> },
}

struct ShadowRecord {
    cycle: Cycles,
    /// 0 = delivery phase, 1 = issue phase; the serial loop delivers
    /// before issuing within a cycle.
    phase: u8,
    sm: usize,
    /// Emission order within this recorder (ties inside one phase of one
    /// SM's cycle replay in emission order).
    seq: u64,
    call: ShadowCall,
}

/// Shard-local [`ShadowCheck`] implementation: buffers every call with
/// its replay key instead of touching the real (single-threaded) hook.
///
/// The replay phase is a recorder *state* set by `process_cycle`, not a
/// property of the call kind: fills happen only at delivery and
/// loads/checkpoints only at issue, but a store call fires in either —
/// at issue for a store hit, at delivery when a fill merges a pending
/// write-allocate store — and must replay exactly where the serial loop
/// would have made it.
#[derive(Default)]
struct ShadowRecorder {
    records: Vec<ShadowRecord>,
    seq: u64,
    /// 0 = delivery phase, 1 = issue phase (set by `process_cycle`).
    phase: u8,
}

impl ShadowRecorder {
    fn record(&mut self, cycle: Cycles, sm: usize, call: ShadowCall) {
        self.records.push(ShadowRecord {
            cycle,
            phase: self.phase,
            sm,
            seq: self.seq,
            call,
        });
        self.seq += 1;
    }
}

impl ShadowCheck for ShadowRecorder {
    fn on_fill(&mut self, sm: usize, addr: LineAddr, data: &CacheLine, cycle: Cycles) {
        self.record(cycle, sm, ShadowCall::Fill { addr, data: *data });
    }

    fn on_load(
        &mut self,
        sm: usize,
        addr: LineAddr,
        observed: Option<&CacheLine>,
        cycle: Cycles,
    ) {
        self.record(
            cycle,
            sm,
            ShadowCall::Load {
                addr,
                observed: observed.copied(),
            },
        );
    }

    fn on_store(&mut self, sm: usize, addr: LineAddr, data: &CacheLine, cycle: Cycles) {
        self.record(cycle, sm, ShadowCall::Store { addr, data: *data });
    }

    fn on_checkpoint(
        &mut self,
        sm: usize,
        cycle: Cycles,
        kind: ShadowCheckpoint,
        structural_errors: &[String],
    ) {
        self.record(
            cycle,
            sm,
            ShadowCall::Checkpoint {
                kind,
                errors: structural_errors.to_vec(),
            },
        );
    }
}

/// One SM and its private compression policy.
struct ShardUnit {
    sm: Sm,
    policy: Box<dyn L1CompressionPolicy>,
}

/// A work-balanced set of the machine's SMs (see [`assign_shards`]; the
/// ids need not be contiguous) plus everything they need to simulate an
/// epoch without touching shared state. Shard 0 runs on the coordinator
/// thread; every other shard stays with one worker thread for the whole
/// kernel.
struct Shard<'a> {
    /// The shard's SMs, in id order.
    units: Vec<ShardUnit>,
    /// Shard-private completion heap (every SM event is self-targeted).
    events: BinaryHeap<Reverse<MemEvent>>,
    /// Deferred shared-L2 traffic for the barrier arbiter.
    buffer: L2Buffer,
    /// Present iff the run is shadow-checked.
    recorder: Option<ShadowRecorder>,
    /// Shard-local counters, merged into the launch totals at the end.
    stats: KernelStats,
    /// Last processed cycle (`None` before cycle 0 runs).
    last: Option<Cycles>,
    /// Whether the last processed cycle issued any instruction.
    issued_last: bool,
    /// Cycle at which this shard went locally quiescent, if it has.
    done_at: Option<Cycles>,
    /// Nanoseconds the owning thread spent simulating this shard.
    busy_ns: u64,
    /// Nanoseconds the owning thread spent waiting at the barrier.
    stall_ns: u64,
    /// Each SM's index in its own shard's `units`, by SM id.
    slot_of: &'a [usize],
    kernel: &'a dyn Kernel,
    config: &'a GpuConfig,
    shadow_every: u64,
}

impl Shard<'_> {
    /// The next cycle this shard would process — the exact analogue of
    /// the serial loop's advance rule, restricted to this shard's SMs.
    /// `None` means stuck: nothing pending, not all finished (revivable
    /// only by an arbiter completion; otherwise a deadlock).
    fn next_candidate(&self) -> Option<Cycles> {
        let Some(last) = self.last else {
            // Cycle 0 is processed unconditionally, as in the serial loop.
            return Some(0);
        };
        if self.issued_last {
            return Some(last + 1);
        }
        let next_event = self.events.peek().map(|&Reverse(e)| e.cycle);
        let next_wake = self.units.iter().filter_map(|u| u.sm.next_wake()).min();
        let target = match (next_event, next_wake) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return None,
        };
        Some(target.max(last + 1))
    }

    /// Local quiescence. Buffered load-fill requests count as pending
    /// work: a fire-and-forget store's write-allocate fill leaves no
    /// blocked warp behind, so without this term a shard would declare
    /// itself done while the fill (and its eventual dirty write-back)
    /// is still waiting for the barrier arbiter. The serial loop gets
    /// this for free — `L2Port::Direct` pushes the completion into the
    /// global heap before the `done` check ever runs. Buffered stores
    /// and write-backs do NOT block doneness: they produce no
    /// completion event, the arbiter drains every shard's buffer
    /// regardless of `done_at`, and the serial loop likewise observes
    /// `done` on the very cycle it processes them inline.
    fn is_done(&self) -> bool {
        self.units.iter().all(|u| u.sm.all_finished())
            && self.events.is_empty()
            && !self
                .buffer
                .requests
                .iter()
                .any(|r| matches!(r.kind, L2RequestKind::LoadFill { .. }))
    }

    /// Processes one cycle exactly as the serial loop would for these
    /// SMs: account the idle gap, deliver due local completions, issue
    /// every SM in id order, then note quiescence.
    fn process_cycle(&mut self, cycle: Cycles) {
        if let Some(last) = self.last {
            let skipped = cycle - last - 1;
            if skipped > 0 {
                for unit in &mut self.units {
                    unit.sm.account_idle(skipped);
                }
            }
        }
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.phase = 0;
        }
        while let Some(&Reverse(ev)) = self.events.peek() {
            if ev.cycle > cycle {
                break;
            }
            self.events.pop();
            let unit = &mut self.units[self.slot_of[ev.sm]];
            let mut ctx = MemCtx {
                l2: L2Port::Deferred(&mut self.buffer),
                events: &mut self.events,
                policy: unit.policy.as_mut(),
                kernel: self.kernel,
                config: self.config,
                stats: &mut self.stats,
                shadow: self
                    .recorder
                    .as_mut()
                    .map(|r| r as &mut (dyn ShadowCheck + 'static)),
                shadow_every: self.shadow_every,
            };
            unit.sm
                .handle_fill(ev.addr, ev.cycle.max(cycle), ev.verified, ev.data, &mut ctx);
        }
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.phase = 1;
        }
        let mut issued = 0;
        for unit in &mut self.units {
            let mut ctx = MemCtx {
                l2: L2Port::Deferred(&mut self.buffer),
                events: &mut self.events,
                policy: unit.policy.as_mut(),
                kernel: self.kernel,
                config: self.config,
                stats: &mut self.stats,
                shadow: self
                    .recorder
                    .as_mut()
                    .map(|r| r as &mut (dyn ShadowCheck + 'static)),
                shadow_every: self.shadow_every,
            };
            issued += unit.sm.issue_cycle(cycle, &mut ctx);
        }
        self.stats.instructions += issued;
        self.last = Some(cycle);
        self.issued_last = issued > 0;
        if self.done_at.is_none() && self.is_done() {
            self.done_at = Some(cycle);
        }
    }

    /// Simulates until the epoch end, the cycle limit, quiescence, or a
    /// stuck state — whichever comes first.
    fn run_epoch(&mut self, epoch_end: Cycles) {
        let limit = self.config.max_cycles_per_kernel;
        while self.done_at.is_none() {
            let Some(cycle) = self.next_candidate() else {
                return;
            };
            if cycle >= epoch_end || cycle >= limit {
                return;
            }
            self.process_cycle(cycle);
        }
    }

    /// [`Shard::run_epoch`], timed into `busy_ns`.
    fn run_epoch_timed(&mut self, epoch_end: Cycles) {
        let start = now_ns();
        self.run_epoch(epoch_end);
        self.busy_ns += now_ns().saturating_sub(start);
    }
}

/// Splits SMs into `threads` shards by a deterministic work estimate
/// (`work[sm]`, the warps the SM launches). Greedy, heaviest SM first
/// with ties broken by SM id: each SM joins the shard with the least
/// work so far (ties: fewer SMs, then lower index), so no shard is
/// empty while `threads <= work.len()`. Returns each shard's SM ids in
/// ascending order, lightest shard first: the coordinator runs that one
/// beside its arbitration work.
fn assign_shards(work: &[usize], threads: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..work.len()).collect();
    order.sort_by_key(|&sm| (Reverse(work[sm]), sm));
    let mut shards: Vec<(usize, Vec<usize>)> = vec![(0, Vec::new()); threads.max(1)];
    for sm in order {
        if let Some((load, ids)) = shards
            .iter_mut()
            .min_by_key(|(load, ids)| (*load, ids.len()))
        {
            *load += work[sm];
            ids.push(sm);
        }
    }
    shards.sort_by_key(|(load, ids)| (*load, ids.len()));
    shards
        .into_iter()
        .map(|(_, mut ids)| {
            ids.sort_unstable();
            ids
        })
        .collect()
}

/// Folds the shard-locally accumulated counters into the launch totals.
/// Only the counters SM stepping code touches are listed; `cycles`,
/// `l1`/`l2`, `barrier_wait_cycles` and the termination fields are set
/// by the caller's epilogue, exactly as after a serial run.
fn merge_counters(into: &mut KernelStats, from: &KernelStats) {
    into.instructions += from.instructions;
    into.dram_accesses += from.dram_accesses;
    into.loads += from.loads;
    into.stores += from.stores;
    into.compressions += from.compressions;
    into.decompressions += from.decompressions;
    into.mshr_stalls += from.mshr_stalls;
    into.hit_wait_cycles += from.hit_wait_cycles;
    into.miss_wait_cycles += from.miss_wait_cycles;
    into.eps_completed += from.eps_completed;
    into.decompression_queue_wait += from.decompression_queue_wait;
    into.traces.extend(from.traces.iter().copied());
    into.writebacks += from.writebacks;
    into.faults += from.faults;
}

/// Visits the items of several runs in ascending `key` order, passing
/// each with the index of the run it came from, then empties the runs
/// (keeping their capacity). Each run is sorted first — one linear pass
/// when, as usual, it already is — and the runs are then merged in
/// place, so the items are never concatenated or sorted as a whole.
fn merge_runs<T, K: Ord>(
    runs: &mut [Vec<T>],
    key: impl Fn(&T) -> K,
    mut visit: impl FnMut(usize, &T),
) {
    for run in runs.iter_mut() {
        run.sort_unstable_by_key(&key);
    }
    let mut next = vec![0; runs.len()];
    loop {
        let mut first: Option<(usize, K)> = None;
        for (i, run) in runs.iter().enumerate() {
            if let Some(item) = run.get(next[i]) {
                let k = key(item);
                if first.as_ref().is_none_or(|(_, min)| k < *min) {
                    first = Some((i, k));
                }
            }
        }
        let Some((i, _)) = first else {
            break;
        };
        visit(i, &runs[i][next[i]]);
        next[i] += 1;
    }
    for run in runs.iter_mut() {
        run.clear();
    }
}

/// Drains every shard's buffered L2 traffic through the real cache in
/// the serial total order — `(cycle, phase, sm, seq)` — updating the
/// launch stats and routing each load-fill completion back into the heap
/// of the shard that buffered the request (the shard that owns its SM).
/// The `phase` key exists for the write-back path: dirty evictions at
/// fill delivery reach the L2 in the serial loop's delivery sweep
/// (phase 0), before any of that cycle's issued traffic (phase 1).
fn arbitrate(
    shards: &mut [&mut Shard<'_>],
    l2: &mut SimpleCache,
    image: &mut MemImage,
    config: &GpuConfig,
    stats: &mut KernelStats,
) {
    let mut runs: Vec<Vec<L2Request>> = shards
        .iter_mut()
        .map(|shard| std::mem::take(&mut shard.buffer.requests))
        .collect();
    merge_runs(
        &mut runs,
        |r| (r.cycle, r.phase, r.sm, r.seq),
        |owner, req| match req.kind {
            L2RequestKind::Store => {
                if !l2.access_and_fill(req.addr) {
                    stats.dram_accesses += 1;
                }
            }
            L2RequestKind::WriteBack { data } => {
                image.insert(req.addr, data);
                if !l2.access_and_fill(req.addr) {
                    stats.dram_accesses += 1;
                }
            }
            L2RequestKind::LoadFill { spike } => {
                let mut latency = if l2.access_and_fill(req.addr) {
                    config.l2_latency
                } else {
                    stats.dram_accesses += 1;
                    config.dram_latency
                };
                latency += spike;
                shards[owner].events.push(Reverse(MemEvent {
                    cycle: req.cycle + latency,
                    sm: req.sm,
                    addr: req.addr,
                    verified: false,
                    data: image.get(&req.addr).copied(),
                }));
            }
        },
    );
    for (shard, run) in shards.iter_mut().zip(runs) {
        shard.buffer.requests = run;
    }
}

/// Replays every shard's recorded oracle calls into the real hook in the
/// serial call order: `(cycle, phase, sm, seq)`.
fn replay_shadow(
    shards: &mut [&mut Shard<'_>],
    shadow: &mut Option<&mut (dyn ShadowCheck + 'static)>,
) {
    let Some(hook) = shadow.as_mut() else {
        return;
    };
    let mut runs: Vec<Vec<ShadowRecord>> = shards
        .iter_mut()
        .filter_map(|shard| shard.recorder.as_mut())
        .map(|recorder| std::mem::take(&mut recorder.records))
        .collect();
    merge_runs(
        &mut runs,
        |r| (r.cycle, r.phase, r.sm, r.seq),
        |_, record| match &record.call {
            ShadowCall::Fill { addr, data } => {
                hook.on_fill(record.sm, *addr, data, record.cycle);
            }
            ShadowCall::Load { addr, observed } => {
                hook.on_load(record.sm, *addr, observed.as_ref(), record.cycle);
            }
            ShadowCall::Store { addr, data } => {
                hook.on_store(record.sm, *addr, data, record.cycle);
            }
            ShadowCall::Checkpoint { kind, errors } => {
                hook.on_checkpoint(record.sm, record.cycle, *kind, errors);
            }
        },
    );
    for (recorder, run) in shards
        .iter_mut()
        .filter_map(|shard| shard.recorder.as_mut())
        .zip(runs)
    {
        recorder.records = run;
    }
}

/// Busy-wait rounds a thread spends polling a barrier condition before
/// it parks: [`SPIN_ROUNDS`] with a pause instruction (~5 µs on a
/// current x86 core), then up to [`YIELD_ROUNDS`] that yield the core.
/// On a host with a core per thread a yield returns at once, so the
/// whole budget (well under a millisecond) covers a typical epoch
/// imbalance without a sleep/wake round trip. On an oversubscribed host
/// the yields hand the core to a thread that still has work, which pure
/// spinning would starve.
const SPIN_ROUNDS: u32 = 1 << 8;
/// See [`SPIN_ROUNDS`].
const YIELD_ROUNDS: u32 = 1 << 11;

/// Polls `ready` for the bounded spin-then-yield budget, then parks
/// until it holds. Whoever makes `ready` true unparks the waiter
/// afterwards; an unpark that lands before the park leaves a token, so
/// none is lost.
fn spin_then_park(ready: impl Fn() -> bool) {
    for round in 0..SPIN_ROUNDS + YIELD_ROUNDS {
        if ready() {
            return;
        }
        if round < SPIN_ROUNDS {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
    while !ready() {
        std::thread::park();
    }
}

/// The one reusable epoch barrier. A worker counts itself into
/// `arrived` when its epoch is done and waits for the next release; the
/// coordinator waits for every arrival, runs the serial arbitration step
/// with all shards at rest, and releases the next epoch (or the stop).
/// `released` is the synchronising flag: its `Release` increment
/// publishes `arrived`, `epoch_end` and `stop` to the workers' `Acquire`
/// loads, and each worker's `AcqRel` arrival publishes its epoch to the
/// coordinator's `Acquire` load of `arrived`.
struct EpochBarrier {
    /// Workers done with the current epoch.
    arrived: AtomicUsize,
    /// Release count; each release starts one epoch or the stop.
    released: AtomicU64,
    /// Exclusive end cycle of the released epoch.
    epoch_end: AtomicU64,
    /// Set with the last release: workers exit instead of simulating.
    stop: AtomicBool,
    /// Set by a worker that is unwinding from a panic, so the
    /// coordinator stops waiting for it.
    lost: AtomicBool,
    coordinator: Thread,
}

/// The coordinator's side of the barrier: the worker threads to wake.
/// Dropping it releases the stop, so the workers exit however the
/// coordinator leaves the loop, a panic included.
struct Coordinator<'b> {
    barrier: &'b EpochBarrier,
    workers: Vec<Thread>,
}

impl Coordinator<'_> {
    fn release(&self, epoch_end: Cycles) {
        self.barrier.arrived.store(0, Ordering::Relaxed);
        self.barrier.epoch_end.store(epoch_end, Ordering::Relaxed);
        self.barrier.released.fetch_add(1, Ordering::Release);
        for worker in &self.workers {
            worker.unpark();
        }
    }

    /// Waits until every worker has arrived; `false` if one unwound.
    fn wait_for_workers(&self) -> bool {
        let barrier = self.barrier;
        let all = self.workers.len();
        spin_then_park(|| {
            barrier.arrived.load(Ordering::Acquire) == all || barrier.lost.load(Ordering::Acquire)
        });
        !barrier.lost.load(Ordering::Acquire)
    }
}

impl Drop for Coordinator<'_> {
    fn drop(&mut self) {
        self.barrier.stop.store(true, Ordering::Relaxed);
        self.release(0);
    }
}

/// Flags an unwinding worker on the barrier and wakes the coordinator.
struct UnwindAlarm<'b>(&'b EpochBarrier);

impl Drop for UnwindAlarm<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lost.store(true, Ordering::Release);
            self.0.coordinator.unpark();
        }
    }
}

/// A worker thread's life: wait for a release, simulate its own shard up
/// to the released epoch end, arrive, until the stop.
fn worker(barrier: &EpochBarrier, slot: &Mutex<Shard<'_>>, workers: usize) {
    let _alarm = UnwindAlarm(barrier);
    let mut seen = 0;
    loop {
        let wait_start = now_ns();
        spin_then_park(|| barrier.released.load(Ordering::Acquire) != seen);
        seen += 1;
        if barrier.stop.load(Ordering::Relaxed) {
            return;
        }
        let mut shard = lock(slot);
        shard.stall_ns += now_ns().saturating_sub(wait_start);
        shard.run_epoch_timed(barrier.epoch_end.load(Ordering::Relaxed));
        drop(shard);
        if barrier.arrived.fetch_add(1, Ordering::AcqRel) + 1 == workers {
            barrier.coordinator.unpark();
        }
    }
}

/// Locks a worker's shard. The barrier already orders every access, so
/// the lock is never contended; it is how safe code hands the shard
/// between its worker and the coordinator's serial step. A poisoned
/// lock means its worker panicked, and the coordinator stops locking
/// once `lost` is set, so the guard is only recovered on a clean lock.
fn lock<'m, 'a>(slot: &'m Mutex<Shard<'a>>) -> MutexGuard<'m, Shard<'a>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the coordinator decides at a barrier, with every shard at rest.
enum Step {
    /// Simulate `[start, end)` on every shard.
    Epoch { start: Cycles, end: Cycles },
    /// The cycle-limit endgame ran inline; the run is over.
    Limit(Outcome),
    /// Every shard is done or stuck; the run is over.
    Finished(Outcome),
}

/// Classifies every shard and picks the next step. The cycle-limit
/// endgame runs here: the serial loop would process exactly that one
/// cycle, observe the limit, and break — cheap enough to run inline.
fn next_step(
    shards: &mut [&mut Shard<'_>],
    l2: &mut SimpleCache,
    image: &mut MemImage,
    shadow: &mut Option<&mut (dyn ShadowCheck + 'static)>,
    config: &GpuConfig,
    stats: &mut KernelStats,
) -> Step {
    let mut any_stuck = false;
    let mut epoch_start: Option<Cycles> = None;
    for shard in shards.iter().filter(|s| s.done_at.is_none()) {
        match shard.next_candidate() {
            Some(c) => epoch_start = Some(epoch_start.map_or(c, |s| s.min(c))),
            None => any_stuck = true,
        }
    }
    let Some(epoch_start) = epoch_start else {
        if any_stuck {
            // Workload deadlock: the serial loop would coast to one
            // cycle past the last issuing cycle and bail.
            let cycle = shards
                .iter()
                .map(|s| s.last.unwrap_or(0) + u64::from(s.issued_last))
                .max()
                .unwrap_or(0);
            return Step::Finished(Outcome {
                cycle,
                fallback: Some(TerminationReason::Deadlock),
            });
        }
        let cycle = shards.iter().filter_map(|s| s.done_at).max().unwrap_or(0);
        return Step::Finished(Outcome {
            cycle,
            fallback: None,
        });
    };
    if epoch_start >= config.max_cycles_per_kernel {
        for shard in shards.iter_mut() {
            if shard.done_at.is_none() && shard.next_candidate() == Some(epoch_start) {
                shard.process_cycle(epoch_start);
            }
        }
        arbitrate(shards, l2, image, config, stats);
        replay_shadow(shards, shadow);
        let all_done = shards.iter().all(|s| s.done_at.is_some());
        return Step::Limit(Outcome {
            cycle: epoch_start,
            fallback: (!all_done).then_some(TerminationReason::CycleLimit),
        });
    }
    let delta = config.l2_latency.min(config.dram_latency);
    Step::Epoch {
        start: epoch_start,
        end: epoch_start.saturating_add(delta),
    }
}

/// Runs the kernel's cycle loop across `threads` shards of SMs with a
/// deterministic epoch barrier, on `threads` threads: the calling thread
/// coordinates and simulates the lightest shard, and every other shard
/// stays on one scoped worker thread for the whole kernel. On return,
/// `sms`/`policies` are restored in id order and `stats` holds the same
/// counters a serial run would have produced; the caller runs the
/// common epilogue.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_cycles(
    threads: usize,
    sms: &mut Vec<Sm>,
    policies: &mut Vec<Box<dyn L1CompressionPolicy>>,
    l2: &mut SimpleCache,
    image: &mut MemImage,
    mut shadow: Option<&mut (dyn ShadowCheck + 'static)>,
    shadow_every: u64,
    config: &GpuConfig,
    kernel: &dyn Kernel,
    stats: &mut KernelStats,
    epoch_stats: &mut EpochStats,
) -> Outcome {
    let work: Vec<usize> = sms
        .iter()
        .map(|sm| kernel.warps_on_sm(sm.id).min(config.max_warps_per_sm))
        .collect();
    let ids = assign_shards(&work, threads);
    let mut slot_of = vec![0; sms.len()];
    for members in &ids {
        for (slot, &sm) in members.iter().enumerate() {
            slot_of[sm] = slot;
        }
    }
    let slot_of = &slot_of;

    // Move the SMs and their policies into their shards.
    let mut units: Vec<Option<ShardUnit>> = sms
        .drain(..)
        .zip(policies.drain(..))
        .map(|(sm, policy)| Some(ShardUnit { sm, policy }))
        .collect();
    let mut new_shard = |members: &[usize]| Shard {
        units: members.iter().filter_map(|&sm| units[sm].take()).collect(),
        events: BinaryHeap::new(),
        buffer: L2Buffer::default(),
        recorder: shadow.is_some().then(ShadowRecorder::default),
        stats: KernelStats::default(),
        last: None,
        issued_last: false,
        done_at: None,
        busy_ns: 0,
        stall_ns: 0,
        slot_of,
        kernel,
        config,
        shadow_every,
    };
    // `assign_shards` returns at least one shard; the first is the
    // lightest, and the coordinator runs it.
    let mut own = new_shard(&ids[0]);
    let others: Vec<Mutex<Shard<'_>>> = ids[1..]
        .iter()
        .map(|members| Mutex::new(new_shard(members)))
        .collect();
    let barrier = EpochBarrier {
        arrived: AtomicUsize::new(0),
        released: AtomicU64::new(0),
        epoch_end: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        lost: AtomicBool::new(false),
        coordinator: std::thread::current(),
    };
    let mut epochs = 0u64;
    let mut max_advance = 0u64;
    let mut prev_start: Option<Cycles> = None;
    let mut arbiter_ns = 0u64;

    let outcome = std::thread::scope(|scope| {
        let coordinator = Coordinator {
            barrier: &barrier,
            workers: others
                .iter()
                .map(|slot| {
                    let (barrier, workers) = (&barrier, others.len());
                    scope
                        .spawn(move || worker(barrier, slot, workers))
                        .thread()
                        .clone()
                })
                .collect(),
        };
        loop {
            // Every shard is at rest: arbitrate the epoch just run, then
            // pick the next one.
            let mut guards: Vec<MutexGuard<'_, Shard<'_>>> = others.iter().map(lock).collect();
            let mut all: Vec<&mut Shard<'_>> = std::iter::once(&mut own)
                .chain(guards.iter_mut().map(|guard| &mut **guard))
                .collect();
            let arbiter_start = now_ns();
            arbitrate(&mut all, l2, image, config, stats);
            replay_shadow(&mut all, &mut shadow);
            arbiter_ns += now_ns().saturating_sub(arbiter_start);
            let (start, end) = match next_step(&mut all, l2, image, &mut shadow, config, stats) {
                Step::Epoch { start, end } => (start, end),
                Step::Limit(outcome) => {
                    epochs += 1;
                    return outcome;
                }
                Step::Finished(outcome) => return outcome,
            };
            drop(all);
            drop(guards);

            coordinator.release(end);
            own.run_epoch_timed(end);
            let wait_start = now_ns();
            if !coordinator.wait_for_workers() {
                // A worker is unwinding: stop here. The scope re-raises
                // its panic, so this value is never observed.
                return Outcome {
                    cycle: 0,
                    fallback: None,
                };
            }
            own.stall_ns += now_ns().saturating_sub(wait_start);
            epochs += 1;
            if let Some(prev) = prev_start {
                max_advance = max_advance.max(start - prev);
            }
            prev_start = Some(start);
        }
    });

    // Reassemble the machine in SM id order and fold the shard counters
    // into the launch totals.
    let shards: Vec<Shard<'_>> = std::iter::once(own)
        .chain(
            others
                .into_iter()
                .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner)),
        )
        .collect();
    let mut busy = Vec::with_capacity(shards.len());
    let mut stall = Vec::with_capacity(shards.len());
    for shard in shards {
        merge_counters(stats, &shard.stats);
        busy.push(shard.busy_ns);
        stall.push(shard.stall_ns);
        for unit in shard.units {
            let id = unit.sm.id;
            units[id] = Some(unit);
        }
    }
    for unit in units.into_iter().flatten() {
        sms.push(unit.sm);
        policies.push(unit.policy);
    }

    if let Some(prev) = prev_start {
        max_advance = max_advance.max(outcome.cycle.saturating_sub(prev));
    }
    epoch_stats.merge(&EpochStats {
        epochs,
        advanced_cycles: outcome.cycle,
        max_epoch_cycles: max_advance,
        shards: busy.len(),
        busy_ns: busy,
        stall_ns: stall,
        arbiter_ns,
    });
    outcome
}

#[cfg(test)]
mod tests {
    use super::assign_shards;

    #[test]
    fn equal_work_interleaves_and_the_lighter_shard_comes_first() {
        // The 15-SM Table II machine at 2 threads: 8 SMs against 7, and
        // the coordinator takes the 7.
        let shards = assign_shards(&[48; 15], 2);
        assert_eq!(
            shards,
            vec![vec![1, 3, 5, 7, 9, 11, 13], vec![0, 2, 4, 6, 8, 10, 12, 14]]
        );
    }

    #[test]
    fn uneven_work_balances_into_non_contiguous_non_empty_shards() {
        let work = [6, 0, 3, 8, 1];
        assert_eq!(assign_shards(&work, 2), vec![vec![0, 2], vec![1, 3, 4]]);
        assert_eq!(
            assign_shards(&work, 3),
            vec![vec![1, 2, 4], vec![0], vec![3]]
        );
        assert_eq!(
            assign_shards(&work, 4),
            vec![vec![1, 4], vec![2], vec![0], vec![3]]
        );
        // Zero-work SMs still spread so that no shard is empty.
        assert_eq!(
            assign_shards(&[0; 4], 4),
            vec![vec![0], vec![1], vec![2], vec![3]]
        );
    }
}
