//! One streaming multiprocessor: warps, schedulers, L1, decompression
//! queue, MSHRs and the experimental-phase (EP) bookkeeping.

use crate::config::GpuConfig;
use crate::faults::{BitflipOutcome, FaultInjector};
use crate::ops::{Kernel, Op};
use crate::policy::{AccessEvent, EpProbe, FillLine, L1CompressionPolicy};
use crate::scheduler::WarpScheduler;
use crate::shadow::{roundtrip_stored, ShadowCheck, ShadowCheckpoint};
use crate::stats::{EpTraceEntry, KernelStats};
use crate::warp::{Warp, WarpState};
use latte_cache::{
    CompressedCache, DecompressionQueue, EvictedLine, LineAddr, LineMap, LookupOutcome, Mshr,
    MshrOutcome,
};
use latte_compress::{CacheLine, Compression, Cycles};
use std::collections::VecDeque;
use std::num::NonZeroU32;

/// A memory request completing at `cycle` for `sm`'s line `addr`: 32
/// bytes, so the completion queue moves no line data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MemEvent {
    /// Cycle the completion is due.
    pub cycle: Cycles,
    /// The SM the line returns to.
    pub sm: usize,
    /// The completed line.
    pub addr: LineAddr,
    /// `true` for a parity-retry re-send: the return-path data has
    /// already been checked, so the fill-bitflip site must not roll
    /// again (guarantees forward progress even at injection rate 1.0).
    pub verified: bool,
    /// Handle of the refill payload resolved from the backing-store image
    /// at L2-access time, parked in the owning [`EventQueue`]'s slab
    /// (`None` = the line is pristine and the fill delivers
    /// [`Kernel::line_data`]). Always `None` outside write-back mode.
    /// Kept as the last field so the derived order stays
    /// `(cycle, sm, addr, verified)`-major; the handle can never decide
    /// a tie because each SM has at most one outstanding fill per line.
    pub payload: Option<PayloadId>,
}

/// A line parked in a [`PayloadSlab`]. Non-zero, so an
/// `Option<PayloadId>` takes four bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PayloadId(NonZeroU32);

/// Line payloads kept beside the records that carry them, so a record
/// holds a four-byte [`PayloadId`] instead of the 128-byte line. Freed
/// slots are reused: once the slab has grown to its peak occupancy,
/// parking a line does not allocate. Only the write-back data path parks
/// any lines.
#[derive(Debug, Default)]
pub(crate) struct PayloadSlab {
    lines: Vec<CacheLine>,
    free: Vec<u32>,
}

impl PayloadSlab {
    /// Parks `line` and returns its handle.
    pub(crate) fn park(&mut self, line: CacheLine) -> PayloadId {
        let index = match self.free.pop() {
            Some(index) => {
                self.lines[index as usize] = line;
                index
            }
            None => {
                self.lines.push(line);
                (self.lines.len() - 1) as u32
            }
        };
        PayloadId(NonZeroU32::MIN.saturating_add(index))
    }

    /// Removes the line behind `id` and frees its slot.
    pub(crate) fn take(&mut self, id: PayloadId) -> CacheLine {
        let index = id.0.get() - 1;
        self.free.push(index);
        self.lines[index as usize]
    }
}

/// A shard's pending memory completions in [`MemEvent`] order, plus the
/// slab their refill payloads wait in. Public for the simulator's
/// criterion rows.
///
/// The records are kept in one sorted deque rather than a heap: the
/// arbiter pushes each latency class (an L2 hit, a DRAM access) already
/// in due order, so a push mostly lands at or near the back, and a pop
/// takes the front. A record due before others (an L2 hit behind DRAM
/// fills, a latency spike, a fill-bitflip retry) is inserted in sorted
/// position, shifting the shorter side. The deque keeps its capacity
/// once drained, so steady-state pushes do not allocate.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Pending records, sorted front to back.
    pending: VecDeque<MemEvent>,
    payloads: PayloadSlab,
}

impl EventQueue {
    /// Schedules the completion of `sm`'s line `addr` at `cycle`, with
    /// the refill payload `payload` (`None` for pristine memory).
    pub fn push(
        &mut self,
        cycle: Cycles,
        sm: usize,
        addr: LineAddr,
        verified: bool,
        payload: Option<CacheLine>,
    ) {
        let payload = payload.map(|line| self.payloads.park(line));
        let ev = MemEvent {
            cycle,
            sm,
            addr,
            verified,
            payload,
        };
        // Most records belong at the back: skip the search for them.
        match self.pending.back() {
            Some(&back) if back >= ev => {
                let at = self.pending.partition_point(|&queued| queued < ev);
                self.pending.insert(at, ev);
            }
            _ => self.pending.push_back(ev),
        }
    }

    /// The due cycle of the earliest pending completion.
    #[must_use]
    pub fn next_due(&self) -> Option<Cycles> {
        self.pending.front().map(|ev| ev.cycle)
    }

    /// `true` when no completion is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Removes the earliest completion if it is due by `cycle`, and
    /// returns it with its payload.
    pub fn pop_due(&mut self, cycle: Cycles) -> Option<(MemEvent, Option<CacheLine>)> {
        let ev = self.pending.pop_front_if(|ev| ev.cycle <= cycle)?;
        Some((ev, ev.payload.map(|id| self.payloads.take(id))))
    }
}

/// The stage a record is made in, within its cycle: a completion's due
/// cycle while the loop delivers it, [`ISSUE_STAGE`] while SMs issue.
/// The loop delivers due completions in `(due, sm, addr)` order
/// and then issues every SM in id order, so each shard emits its L2
/// requests and oracle calls already sorted by `(cycle, stage, sm)`, and
/// merging the shards by that key replays the one-loop order. A
/// completion is delivered on its due cycle, except that with Δ = 0 one
/// that falls due at `c` during or after `c`'s issue phase (the
/// arbiter's completion of a load fill, a write-allocate fetch) arrives
/// at `c + 1` (see [`crate::parallel`]). One pushed while delivering,
/// such as a fill-bitflip retry, can still fall due and arrive at `c`.
pub(crate) type Stage = Cycles;

/// The stage of every issue-time record: after all of its cycle's
/// deliveries.
pub(crate) const ISSUE_STAGE: Stage = Cycles::MAX;

/// One buffered shared-L2 access awaiting the epoch barrier, where the
/// arbiter replays every shard's requests through the real cache in
/// `(cycle, stage, sm)` order (see [`Stage`]). Each SM performs at most
/// one issue-time access per cycle (the single LD/ST port); requests of
/// one SM with equal keys keep their emission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct L2Request {
    /// Cycle the SM performed the access.
    pub cycle: Cycles,
    /// See [`Stage`].
    pub stage: Stage,
    /// Issuing SM.
    pub sm: usize,
    /// Line accessed.
    pub addr: LineAddr,
    /// What the access was.
    pub kind: L2RequestKind,
}

/// The kinds of shared-L2 traffic an SM generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum L2RequestKind {
    /// A load miss's fill round trip; the arbiter owes the SM a
    /// completion event. `spike` carries the latency-spike fault rolled
    /// SM-locally at issue time, so the injector's stream position does
    /// not depend on the thread count.
    LoadFill {
        /// Extra cycles from an injected latency spike (0 when none).
        spike: Cycles,
    },
    /// A write-through store; no completion is delivered.
    Store,
    /// A dirty line's write-back: `data` lands in the backing-store
    /// image so later fills of the line observe the written bytes. No
    /// completion is delivered (stores are fire-and-forget).
    WriteBack {
        /// The evicted line's architectural bytes, parked in the
        /// buffer's [`PayloadSlab`].
        data: PayloadId,
    },
}

/// Epoch-local buffer of deferred L2 accesses (one per shard). Plain
/// owned data: the shared cache itself is only ever touched by the
/// arbiter draining these records at the barrier.
#[derive(Debug, Default)]
pub(crate) struct L2Buffer {
    /// Buffered requests, in emission order.
    pub requests: Vec<L2Request>,
    /// The stage new requests are made in, set by the cycle loop.
    pub stage: Stage,
    /// Write-back payloads of the buffered requests; the arbiter takes
    /// each one as it replays its request.
    pub payloads: PayloadSlab,
}

impl L2Buffer {
    fn push(&mut self, cycle: Cycles, sm: usize, addr: LineAddr, kind: L2RequestKind) {
        self.requests.push(L2Request {
            cycle,
            stage: self.stage,
            sm,
            addr,
            kind,
        });
    }
}

/// Shared resources an SM needs while stepping (split off `Gpu` to keep
/// borrows disjoint).
pub(crate) struct MemCtx<'a> {
    // latte-lint: shared-boundary(reason = "epoch-local request buffer; the barrier arbiter serializes it through the real L2 in fixed (cycle, stage, sm) order, so no two threads ever race on cache state")
    pub l2: &'a mut L2Buffer,
    // latte-lint: shared-boundary(reason = "the DRAM completion queue; every push is self-targeted, so each shard owns a private queue and the barrier arbiter routes cross-stage completions, ordered by (cycle, sm, addr)")
    pub events: &'a mut EventQueue,
    // latte-lint: shared-boundary(reason = "the SM's own per-SM compression policy; it travels with its SM into a shard and is only consulted while that SM steps")
    pub policy: &'a mut dyn L1CompressionPolicy,
    // latte-lint: shared-boundary(reason = "read-only kernel description (Kernel: Send + Sync); immutable during a launch, safe to share by reference across shard threads")
    pub kernel: &'a dyn Kernel,
    // latte-lint: shared-boundary(reason = "read-only GpuConfig; immutable for the whole run")
    pub config: &'a GpuConfig,
    // latte-lint: shared-boundary(reason = "launch-wide counters; all updates are commutative adds, accumulated shard-locally and summed at the end of the run")
    pub stats: &'a mut KernelStats,
    /// Differential-verification hook (`None` in normal runs).
    // latte-lint: shared-boundary(reason = "verification-only shadow model; a lone shard calls it directly, several shards record into shard-local recorders that the barrier replays in deterministic (cycle, stage, sm) order")
    pub shadow: Option<&'a mut (dyn ShadowCheck + 'static)>,
    /// Structural-checkpoint cadence in EPs (meaningless without `shadow`).
    pub shadow_every: u64,
}

impl MemCtx<'_> {
    /// A write-through store reaching the shared L2.
    fn l2_store(&mut self, line: LineAddr, cycle: Cycles, sm: usize) {
        self.l2.push(cycle, sm, line, L2RequestKind::Store);
    }

    /// A primary miss's fill round trip; the arbiter accesses the L2 and
    /// schedules the completion, whose payload it resolves from the
    /// backing-store image at that point, so a fill ordered after a
    /// write-back of the same line observes the written bytes. `spike`
    /// is the SM-locally rolled latency-spike fault (0 when none).
    fn l2_load_miss(&mut self, line: LineAddr, cycle: Cycles, sm: usize, spike: Cycles) {
        self.l2
            .push(cycle, sm, line, L2RequestKind::LoadFill { spike });
    }

    /// A dirty line's write-back reaching the shared L2 and the
    /// backing-store image. Under the planted `drop_writebacks` mutation
    /// the write-back is silently discarded — the lost-store failure
    /// mode the shadow oracle must catch.
    fn l2_writeback(&mut self, line: LineAddr, data: CacheLine, cycle: Cycles, sm: usize) {
        if self.config.faults.is_some_and(|f| f.drop_writebacks) {
            self.stats.faults.writebacks_dropped += 1;
            return;
        }
        self.stats.writebacks += 1;
        let data = self.l2.payloads.park(data);
        self.l2
            .push(cycle, sm, line, L2RequestKind::WriteBack { data });
    }
}

pub(crate) struct Sm {
    pub id: usize,
    pub warps: Vec<Warp>,
    schedulers: Vec<WarpScheduler>,
    /// Each warp's `(scheduler, slot)`, fixed at launch.
    sched_slot: Vec<(usize, usize)>,
    pub l1: CompressedCache,
    mshr: Mshr,
    dq: DecompressionQueue,
    /// Warps blocked on each outstanding line, with the cycle each one
    /// missed. Keyed access only; the list behind each key keeps wakeups
    /// in enqueue order.
    waiters: LineMap<WaitList>,
    /// Emptied waiter lists kept for the next missed line, so that a miss
    /// reuses a list instead of allocating one.
    spare_lists: Vec<WaitList>,
    /// Write-back mode: sectors stored while the line's allocating fill
    /// is in flight, merged into the line when the fill arrives (last
    /// write to a sector wins). Keyed access only, never iterated.
    pending_stores: LineMap<[Option<[u8; 32]>; 4]>,
    /// Reused buffer for the lines a fill evicts, so fills do not
    /// allocate. Empty between fills.
    victims: Vec<EvictedLine>,
    /// Warp ids per thread block (barrier scope).
    blocks: Vec<Vec<usize>>,
    /// Deterministic fault source (absent when injection is disabled).
    faults: Option<FaultInjector>,
    /// Bumped by every fill delivery and every launch: the only events
    /// that can let a replay the full MSHR refused through (see
    /// [`Sm::issue_cycle`]).
    fill_gen: u64,
    // EP bookkeeping.
    ep_access_count: u64,
    ep_hits: u64,
    ep_index: u64,
    ep_start_cycle: Cycles,
    pub barrier_wait: Cycles,
    /// Mode index at the previous EP boundary (outer `None` until the
    /// first boundary is seen), for the shadow hook's mode-switch
    /// checkpoints (tracked only while a hook is installed).
    last_mode: Option<Option<usize>>,
}

impl Sm {
    pub(crate) fn new(id: usize, config: &GpuConfig) -> Sm {
        let mut l1 = CompressedCache::new(config.l1_geometry);
        if config.write_back {
            // The write-back data path needs every resident line's
            // architectural bytes (store merges, dirty evictions).
            l1.enable_data_tracking();
        }
        Sm {
            id,
            warps: Vec::new(),
            schedulers: Vec::new(),
            sched_slot: Vec::new(),
            l1,
            mshr: Mshr::new(config.mshr_entries, config.mshr_merges),
            dq: DecompressionQueue::new(),
            waiters: LineMap::default(),
            spare_lists: Vec::new(),
            pending_stores: LineMap::default(),
            victims: Vec::new(),
            blocks: Vec::new(),
            faults: config.faults.map(|fc| FaultInjector::new(fc, id)),
            fill_gen: 0,
            ep_access_count: 0,
            ep_hits: 0,
            ep_index: 0,
            ep_start_cycle: 0,
            barrier_wait: 0,
            last_mode: None,
        }
    }

    /// Launches a kernel's warps onto this SM.
    pub(crate) fn launch(&mut self, kernel: &dyn Kernel, config: &GpuConfig) {
        let n = kernel.warps_on_sm(self.id).min(config.max_warps_per_sm);
        self.warps = (0..n)
            .map(|w| {
                Warp::new(
                    w,
                    w / config.warps_per_block,
                    kernel.warp_program(self.id, w),
                )
            })
            .collect();
        let num_blocks = n.div_ceil(config.warps_per_block.max(1));
        self.blocks = (0..num_blocks)
            .map(|b| (0..n).filter(|w| w / config.warps_per_block == b).collect())
            .collect();
        // Split warps round-robin across schedulers: warp `w` sits in
        // slot `w / k` of scheduler `w % k`.
        let k = config.schedulers_per_sm.max(1);
        self.sched_slot = (0..n).map(|w| (w % k, w / k)).collect();
        self.schedulers = (0..config.schedulers_per_sm)
            .map(|s| {
                WarpScheduler::new(
                    config.scheduler,
                    (0..n)
                        .filter(|w| w % config.schedulers_per_sm == s)
                        .collect(),
                )
            })
            .collect();
        if config.flush_at_kernel_boundary {
            self.l1.invalidate_all();
            self.mshr.flush();
            self.dq.flush();
            self.waiters.clear();
            self.pending_stores.clear();
        }
        self.l1.reset_stats();
        if let Some(f) = &mut self.faults {
            // Re-seed per kernel so each kernel's fault sequence depends
            // only on (seed, SM), not on what ran before it.
            f.reseed();
        }
        self.fill_gen += 1;
        self.ep_access_count = 0;
        self.ep_hits = 0;
        self.ep_index = 0;
        self.ep_start_cycle = 0;
        self.barrier_wait = 0;
        self.last_mode = None;
    }

    pub(crate) fn all_finished(&self) -> bool {
        self.schedulers.iter().all(WarpScheduler::all_finished) && self.waiters.is_empty()
    }

    /// `(MSHR entries in use, lines with warps waiting on them)`.
    pub(crate) fn outstanding_misses(&self) -> (usize, usize) {
        (self.mshr.used(), self.waiters.len())
    }

    /// Earliest cycle at which a warp can issue, if any warp can without
    /// a refill or a barrier release.
    pub(crate) fn next_wake(&mut self) -> Option<Cycles> {
        self.schedulers
            .iter_mut()
            .filter_map(WarpScheduler::next_wake)
            .min()
    }

    /// Adds `n` skipped cycles to every scheduler's probe window.
    pub(crate) fn account_idle(&mut self, n: u64) {
        for s in &mut self.schedulers {
            s.account_idle_cycles(n);
        }
    }

    /// Sets warp `wid`'s state and reports the change to the scheduler
    /// that owns it. Every warp state write goes through here, so the
    /// schedulers' readiness tables never go stale (`structural_errors`
    /// audits them).
    fn set_state(&mut self, wid: usize, state: WarpState) {
        let (s, slot) = self.sched_slot[wid];
        let from = std::mem::replace(&mut self.warps[wid].state, state);
        self.schedulers[s].on_state_change(slot, from, state);
    }

    /// Runs one issue cycle: each scheduler issues at most one op, and the
    /// SM's single LD/ST port accepts at most one memory op per cycle
    /// (the structural hazard that bounds L1 bandwidth — and hence
    /// decompressor demand — to one access per cycle).
    /// Returns the number of instructions issued.
    ///
    /// A warp whose pushed-back memory op stalled on the full MSHR at the
    /// current fill generation is not fetched again: only a fill frees an
    /// MSHR entry or makes a line resident, so its replay would stall
    /// again, and [`Sm::replay_mshr_stall`] books that stall directly.
    pub(crate) fn issue_cycle(&mut self, cycle: Cycles, ctx: &mut MemCtx<'_>) -> u64 {
        let mut issued = 0;
        let mut ldst_free = true;
        let n = self.schedulers.len();
        // Rotate LD/ST port priority between schedulers.
        let first = cycle.checked_rem(n as u64).unwrap_or(0) as usize;
        for i in 0..n {
            let s = if first + i < n {
                first + i
            } else {
                first + i - n
            };
            let Some(wid) = self.schedulers[s].pick(cycle) else {
                continue;
            };
            if self.warps[wid].mshr_stall_gen == Some(self.fill_gen) {
                // With the port taken, the full path would roll the
                // fetch back and leave the warp as it is.
                if ldst_free {
                    self.replay_mshr_stall(wid, cycle, ctx);
                }
                continue;
            }
            let op = self.warps[wid].fetch_op();
            let is_mem = matches!(
                op,
                Op::Load { .. } | Op::LoadAsync { .. } | Op::Store { .. }
            );
            if is_mem && !ldst_free {
                // Port conflict: roll back; the warp retries next cycle.
                self.warps[wid].unfetch(op);
                continue;
            }
            if self.execute(wid, op, cycle, ctx) {
                issued += 1;
                if is_mem {
                    ldst_free = false;
                }
            }
        }
        issued
    }

    /// Hands `op` back to warp `wid` after the MSHR refused its line, and
    /// parks the warp for the back-off before its replay (hardware keeps
    /// the replay in the instruction buffer, so the warp does not hog its
    /// scheduler's issue slot every cycle). Without fault injection the
    /// stall is stamped with the fill generation, so the replays that
    /// follow before the next fill skip the fetch and the checks. With
    /// injection every replay takes the full path: each one draws the
    /// MSHR-exhaustion fault from the injector's stream.
    fn stall_on_mshr(&mut self, wid: usize, op: Op, cycle: Cycles, ctx: &mut MemCtx<'_>) {
        ctx.stats.mshr_stalls += 1;
        let warp = &mut self.warps[wid];
        warp.unfetch(op);
        if self.faults.is_none() {
            warp.mshr_stall_gen = Some(self.fill_gen);
        }
        self.set_state(wid, WarpState::BusyUntil(cycle + 8));
    }

    /// A replay of a stamped MSHR stall (see [`Sm::stall_on_mshr`]): the
    /// warp, busy since its last stall, backs off again. It stays busy,
    /// so only its slot's ready cycle moves.
    fn replay_mshr_stall(&mut self, wid: usize, cycle: Cycles, ctx: &mut MemCtx<'_>) {
        debug_assert!(
            self.replay_would_stall(wid, ctx.config),
            "warp {wid}'s stamped replay would not stall"
        );
        ctx.stats.mshr_stalls += 1;
        let until = cycle + 8;
        let (s, slot) = self.sched_slot[wid];
        let state = &mut self.warps[wid].state;
        debug_assert!(matches!(state, WarpState::BusyUntil(_)), "{state:?}");
        *state = WarpState::BusyUntil(until);
        self.schedulers[s].on_busy_moved(slot, until);
    }

    /// The full path's verdict on warp `wid`'s pushed-back op: a load, or
    /// a write-back store, whose line is not resident and which the MSHR
    /// cannot take, with no fault injector to roll.
    fn replay_would_stall(&self, wid: usize, config: &GpuConfig) -> bool {
        let addr = match self.warps[wid].pushed_back() {
            Some(Op::Load { addr } | Op::LoadAsync { addr }) => addr,
            Some(Op::Store { addr, .. }) if config.write_back => addr,
            _ => return false,
        };
        let line = LineAddr::from_byte_addr(addr);
        self.faults.is_none() && !self.l1.contains(line) && !self.mshr.would_accept(line)
    }

    /// Returns `false` when the op could not issue (structural stall) and
    /// was rolled back.
    fn execute(&mut self, wid: usize, op: Op, cycle: Cycles, ctx: &mut MemCtx<'_>) -> bool {
        match op {
            Op::Compute { cycles } => {
                self.set_state(
                    wid,
                    WarpState::BusyUntil(cycle + Cycles::from(cycles.max(1))),
                );
                true
            }
            Op::Load { addr } => self.execute_load(wid, addr, cycle, true, ctx),
            Op::LoadAsync { addr } => self.execute_load(wid, addr, cycle, false, ctx),
            Op::Store { addr, data } => {
                if ctx.config.write_back {
                    return self.execute_store_writeback(wid, addr, data, cycle, ctx);
                }
                // Write-through; the warp does not wait for completion,
                // and the payload is architecturally ignored (memory is
                // modelled as pristine `Kernel::line_data`). Default is
                // the paper's write-avoid L1 (§IV-C3: no allocation
                // pressure from writes); with `write_allocate` a store
                // miss also fetches the line into the L1.
                ctx.stats.stores += 1;
                let line = LineAddr::from_byte_addr(addr);
                ctx.l2_store(line, cycle, self.id);
                if ctx.config.write_allocate
                    && !self.l1.contains(line)
                    && self.mshr.would_accept(line)
                    && self.mshr.allocate(line) == MshrOutcome::Primary
                {
                    // Fetch in the background; no warp waits on it.
                    ctx.events
                        .push(cycle + ctx.config.l2_latency, self.id, line, false, None);
                }
                self.set_state(wid, WarpState::BusyUntil(cycle + 1));
                true
            }
            Op::Barrier => {
                self.set_state(wid, WarpState::AtBarrier(cycle));
                self.check_barrier(self.warps[wid].block, cycle);
                true
            }
            Op::Exit => {
                self.set_state(wid, WarpState::Finished);
                // A warp exiting may release a barrier its block-mates wait on.
                self.check_barrier(self.warps[wid].block, cycle);
                true
            }
        }
    }

    fn execute_load(
        &mut self,
        wid: usize,
        addr: u64,
        cycle: Cycles,
        blocking: bool,
        ctx: &mut MemCtx<'_>,
    ) -> bool {
        let line = LineAddr::from_byte_addr(addr);
        // One tag scan finds the line's set and slot for both the
        // residency check and the lookup below.
        let at = self.l1.locate(line);

        // If this would be a miss the MSHR cannot take — really full, or
        // transiently exhausted by an injected fault — stall before any
        // statistics are recorded and retry shortly.
        let mshr_blocked = !at.is_resident() && {
            let injected = self
                .faults
                .as_mut()
                .is_some_and(FaultInjector::roll_mshr_exhaust);
            if injected {
                ctx.stats.faults.mshr_exhaustions += 1;
            }
            injected || !self.mshr.would_accept(line)
        };
        if mshr_blocked {
            let op = if blocking {
                Op::Load { addr }
            } else {
                Op::LoadAsync { addr }
            };
            self.stall_on_mshr(wid, op, cycle, ctx);
            return false;
        }

        ctx.stats.loads += 1;
        let mut outcome = self.l1.lookup_at(at);
        // Fault injection: a compressed hit may read a payload with one
        // flipped bit. A detected flip becomes a decode failure — the hit
        // is re-classified as a miss and the line re-fetched — while a
        // masked flip proceeds as a normal hit. Injection is skipped when
        // the MSHR could not absorb the resulting miss. With recovery
        // disabled (a deliberate verification mutation) a detected flip is
        // consumed anyway and the corrupted bytes flow to the shadow hook.
        let mut corrupted: Option<latte_compress::CacheLine> = None;
        if let LookupOutcome::Hit {
            algo,
            compressed: true,
        } = outcome
        {
            if let Some(inj) = self.faults.as_mut() {
                if inj.roll_bitflip() && self.mshr.would_accept(line) {
                    ctx.stats.faults.bitflips_injected += 1;
                    // Ground truth is the line's architectural bytes: the
                    // tracked (possibly store-merged) data in write-back
                    // mode, pristine kernel data otherwise. Note the
                    // recovery path re-fetches from memory, so a detected
                    // flip on a *dirty* line loses its unwritten stores —
                    // a modelled (and documented) hazard of parity-only
                    // dirty data, not a simulator bug.
                    let data = self
                        .l1
                        .line_data(line)
                        .copied()
                        .unwrap_or_else(|| ctx.kernel.line_data(line));
                    match inj.corrupt_compressed_read_observed(algo, &data) {
                        (BitflipOutcome::Detected, observed) => {
                            ctx.stats.faults.bitflips_detected += 1;
                            if inj.config().disable_recovery {
                                corrupted = Some(observed);
                            } else {
                                self.l1.on_decode_failure(line);
                                ctx.policy.on_decode_error(algo);
                                outcome = LookupOutcome::Miss;
                            }
                        }
                        (BitflipOutcome::Masked, _) => {
                            ctx.stats.faults.bitflips_masked += 1;
                        }
                    }
                }
            }
        }
        // Snapshot the hit's payload *now*: an EP boundary inside
        // note_ep_access below may invalidate this very line (SC codebook
        // rebuild), but the data was read before that — the shadow must
        // compare what the warp actually received.
        let observed = match outcome {
            LookupOutcome::Hit { .. } if ctx.shadow.is_some() => {
                corrupted.or_else(|| self.l1.payload(line).copied())
            }
            _ => None,
        };
        let set = at.set();
        let (hit, algo) = match outcome {
            LookupOutcome::Hit { algo, .. } => (true, algo),
            LookupOutcome::Miss => (false, latte_compress::CompressionAlgo::None),
        };
        ctx.policy.on_access(&AccessEvent {
            set,
            hit,
            algo,
            cycle,
        });
        self.note_ep_access(hit, cycle, ctx);

        match outcome {
            LookupOutcome::Hit { algo, compressed } => {
                if let Some(shadow) = ctx.shadow.as_deref_mut() {
                    shadow.on_load(self.id, line, observed.as_ref(), cycle);
                }
                let mut latency = ctx.config.l1_hit_latency + ctx.config.extra_hit_latency;
                if compressed {
                    ctx.stats.decompressions.bump(algo);
                    if !ctx.config.zero_decompression_latency {
                        let pipeline = ctx.policy.decompression_latency(algo);
                        let effective = self.dq.enqueue(cycle, pipeline);
                        ctx.stats.decompression_queue_wait += effective - pipeline;
                        latency += effective;
                    }
                }
                ctx.stats.hit_wait_cycles += latency;
                let ready_at = cycle + latency;
                let warp = &mut self.warps[wid];
                warp.data_ready_at = warp.data_ready_at.max(ready_at);
                let state = if blocking {
                    WarpState::WaitingData {
                        until: std::mem::take(&mut warp.data_ready_at),
                        pending_misses: std::mem::take(&mut warp.outstanding_misses),
                    }
                } else {
                    // One cycle of issue occupancy; the data arrives in
                    // the background.
                    WarpState::BusyUntil(cycle + 1)
                };
                self.set_state(wid, state);
            }
            LookupOutcome::Miss => {
                match self.mshr.allocate(line) {
                    MshrOutcome::Primary => {
                        // Roll the latency-spike fault here, SM-locally:
                        // the arbiter only adds it to the access latency.
                        let spike = match self
                            .faults
                            .as_mut()
                            .and_then(FaultInjector::roll_latency_spike)
                        {
                            Some(spike) => {
                                ctx.stats.faults.latency_spikes += 1;
                                ctx.stats.faults.spike_cycles_added += spike;
                                spike
                            }
                            None => 0,
                        };
                        ctx.l2_load_miss(line, cycle, self.id, spike);
                    }
                    MshrOutcome::Merged => {}
                    MshrOutcome::Full => unreachable!("would_accept checked above"),
                }
                self.waiters
                    .entry(line)
                    .or_insert_with(|| self.spare_lists.pop().unwrap_or_default())
                    .push((wid, cycle));
                let warp = &mut self.warps[wid];
                let state = if blocking {
                    WarpState::WaitingData {
                        until: std::mem::take(&mut warp.data_ready_at),
                        pending_misses: std::mem::take(&mut warp.outstanding_misses) + 1,
                    }
                } else {
                    warp.outstanding_misses += 1;
                    WarpState::BusyUntil(cycle + 1)
                };
                self.set_state(wid, state);
            }
        }
        true
    }

    /// A store under the write-back/write-allocate data path
    /// (`GpuConfig::write_back`). A hit merges the addressed 32-byte
    /// sector into the line's architectural bytes, re-compresses the
    /// line in place (a grown line may evict its set-mates — never
    /// itself — and dirty victims are written back), and marks it dirty.
    /// A miss allocates through the MSHR like a load, parks the sector
    /// in the pending-store buffer, and commits when the allocating fill
    /// arrives. Stores stay fire-and-forget: the warp never blocks on
    /// completion, but a miss the MSHR cannot absorb replays like a
    /// load would.
    fn execute_store_writeback(
        &mut self,
        wid: usize,
        addr: u64,
        sector: [u8; 32],
        cycle: Cycles,
        ctx: &mut MemCtx<'_>,
    ) -> bool {
        let line = LineAddr::from_byte_addr(addr);
        let resident = self.l1.contains(line);
        if !resident && !self.mshr.would_accept(line) {
            self.stall_on_mshr(wid, Op::Store { addr, data: sector }, cycle, ctx);
            return false;
        }
        ctx.stats.stores += 1;
        let sector_index = ((addr >> 5) & 3) as usize;
        if resident {
            let base = self
                .l1
                .line_data(line)
                .copied()
                .unwrap_or_else(|| ctx.kernel.line_data(line));
            let merged = merge_sector(&base, sector_index, &sector);
            self.commit_store(line, merged, cycle, ctx);
        } else {
            if self.mshr.allocate(line) == MshrOutcome::Primary {
                // Write-allocate fetch. No latency-spike roll: stores are
                // fire-and-forget, so a spike could never be observed.
                ctx.l2_load_miss(line, cycle, self.id, 0);
            }
            self.pending_stores.entry(line).or_insert([None; 4])[sector_index] = Some(sector);
        }
        self.set_state(wid, WarpState::BusyUntil(cycle + 1));
        true
    }

    /// Commits a store's fully merged line into the L1: re-compress
    /// under the policy's choice, rewrite the line in place (marking it
    /// dirty), write back any dirty victims the size change displaced,
    /// and report the committed bytes to the shadow hook.
    fn commit_store(
        &mut self,
        line: LineAddr,
        merged: CacheLine,
        cycle: Cycles,
        ctx: &mut MemCtx<'_>,
    ) {
        let set = self.l1.set_of(line);
        let (algo, mut compression) = ctx.policy.compress_fill(set, &merged);
        if algo != latte_compress::CompressionAlgo::None {
            ctx.stats.compressions.bump(algo);
        }
        if ctx.config.ignore_capacity_benefit && compression.is_compressed() {
            compression = Compression::new(CacheLine::SIZE_BYTES - 1);
        }
        if let Some(evicted) = self.l1.write(line, algo, compression, &merged, cycle) {
            if self.l1.payload_shadow_enabled() {
                let stored_algo = if compression.is_compressed() {
                    algo
                } else {
                    latte_compress::CompressionAlgo::None
                };
                self.l1
                    .record_payload(line, roundtrip_stored(stored_algo, &merged));
            }
            for victim in evicted {
                self.writeback_victim(&victim, cycle, ctx);
            }
            if let Some(shadow) = ctx.shadow.as_deref_mut() {
                shadow.on_store(self.id, line, &merged, cycle);
            }
        }
    }

    /// Sends one evicted line's dirty bytes back to the L2/DRAM (no-op
    /// for clean victims). The outbound-link fault is rolled SM-locally,
    /// so the injector's stream position does not depend on the thread
    /// count; a parity-detected
    /// corruption is re-sent by the memory partition, costing link
    /// occupancy (counted) but no warp-visible latency.
    fn writeback_victim(&mut self, victim: &EvictedLine, cycle: Cycles, ctx: &mut MemCtx<'_>) {
        if !victim.dirty {
            return;
        }
        let Some(data) = victim.data else { return };
        if self
            .faults
            .as_mut()
            .is_some_and(FaultInjector::roll_writeback_fault)
        {
            ctx.stats.faults.writeback_faults += 1;
            ctx.stats.faults.writeback_retry_cycles += ctx.config.l2_latency;
        }
        ctx.l2_writeback(victim.addr, data, cycle, self.id);
    }

    /// Handles a refill arriving from the memory system. `verified` is
    /// `true` when this delivery is a parity-retry re-send whose data has
    /// already been checked on the return path.
    pub(crate) fn handle_fill(
        &mut self,
        addr: LineAddr,
        cycle: Cycles,
        verified: bool,
        payload: Option<CacheLine>,
        ctx: &mut MemCtx<'_>,
    ) {
        // Any fill may free an MSHR entry or make a line resident.
        self.fill_gen += 1;
        // Fault injection on the L2/DRAM return path: the refill arrives
        // with a flipped bit. Per-sector parity always detects a
        // single-bit flip, so the data is never consumed; the memory
        // partition re-sends the line after another L2 round trip. The
        // MSHR entry and the waiting warps stay parked until the re-send
        // lands. Recovery refetches (after an L1 decode failure) travel
        // this same path, so refetched lines are not implicitly trusted.
        if !verified {
            let flipped = self
                .faults
                .as_mut()
                .is_some_and(FaultInjector::roll_fill_bitflip);
            if flipped {
                let retry_latency = ctx.config.l2_latency;
                ctx.stats.faults.fill_bitflips += 1;
                ctx.stats.faults.fill_retry_cycles += retry_latency;
                ctx.events
                    .push(cycle + retry_latency, self.id, addr, true, payload);
                return;
            }
        }
        // Fault injection: a corrupted tag write loses the fill. The
        // refill data still reaches the waiting warps below, but the line
        // is not retained, so the next access misses and re-fetches.
        let drop_fill = self
            .faults
            .as_mut()
            .is_some_and(FaultInjector::roll_tag_corruption);
        // The ground-truth refill payload: the backing-store image's
        // bytes when a write-back landed on this line, pristine kernel
        // data otherwise, made only if something below reads it.
        let mut line = match payload {
            Some(bytes) => FillLine::unkeyed(bytes),
            None => FillLine::pristine(ctx.kernel, addr),
        };
        if drop_fill {
            ctx.stats.faults.tag_corruptions += 1;
            // Write-back mode: the allocation was lost, but a store that
            // was waiting on this fill must still commit architecturally
            // — send the merged line straight through to memory so the
            // written bytes are not silently lost.
            if ctx.config.write_back {
                if let Some(sectors) = self.pending_stores.remove(&addr) {
                    let merged = merge_sectors(line.bytes(), &sectors);
                    ctx.l2_writeback(addr, merged, cycle, self.id);
                    if let Some(shadow) = ctx.shadow.as_deref_mut() {
                        shadow.on_store(self.id, addr, &merged, cycle);
                    }
                }
            }
        } else {
            let set = self.l1.set_of(addr);
            let (algo, mut compression) = ctx.policy.compress_fill_line(set, &mut line);
            if algo != latte_compress::CompressionAlgo::None {
                // The compressor ran regardless of whether it succeeded.
                ctx.stats.compressions.bump(algo);
            }
            if ctx.config.ignore_capacity_benefit && compression.is_compressed() {
                // Fig 4 study: charge the hit-latency penalty but store at full
                // size (127 B quantises to the full four sub-blocks).
                compression = Compression::new(latte_compress::CacheLine::SIZE_BYTES - 1);
            }
            let mut victims = std::mem::take(&mut self.victims);
            self.l1
                .fill_into(addr, algo, compression, cycle, &mut victims);
            for victim in victims.drain(..) {
                self.writeback_victim(&victim, cycle, ctx);
            }
            self.victims = victims;
            if self.l1.data_tracking_enabled() {
                self.l1.record_line_data(addr, *line.bytes());
            }
            if self.l1.payload_shadow_enabled() {
                // Record what the array actually holds: the encode/decode
                // round trip under the stored algorithm (fill() downgrades
                // incompressible lines to an uncompressed store).
                let stored_algo = if compression.is_compressed() {
                    algo
                } else {
                    latte_compress::CompressionAlgo::None
                };
                self.l1
                    .record_payload(addr, roundtrip_stored(stored_algo, line.bytes()));
            }
            if let Some(shadow) = ctx.shadow.as_deref_mut() {
                shadow.on_fill(self.id, addr, line.bytes(), cycle);
            }
            // Write-allocate commit: sectors stored while this fill was
            // in flight merge into the just-filled line, which becomes
            // dirty. Ordered after `on_fill` so the shadow model sees
            // the delivered bytes before the store overlays them.
            if ctx.config.write_back {
                if let Some(sectors) = self.pending_stores.remove(&addr) {
                    let merged = merge_sectors(line.bytes(), &sectors);
                    self.commit_store(addr, merged, cycle, ctx);
                }
            }
        }
        self.mshr.release(addr);
        // Fault injection: the wakeup notification is lost (scoreboard
        // corruption). The data landed above, but the warps blocked on
        // this line are discarded without being re-marked ready, so they
        // wait forever — the deadlock watchdog's job to report. Rolled
        // only when warps are actually waiting, so a zero-waiter fill
        // cannot perturb the fault stream.
        if self.waiters.contains_key(&addr) {
            let dropped = self
                .faults
                .as_mut()
                .is_some_and(FaultInjector::roll_wakeup_drop);
            if dropped {
                ctx.stats.faults.wakeup_drops += 1;
                if let Some(waiters) = self.waiters.remove(&addr) {
                    self.spare_lists.push(recycled(waiters));
                }
                return;
            }
        }
        if let Some(waiters) = self.waiters.remove(&addr) {
            for &(wid, issued_at) in &waiters {
                ctx.stats.miss_wait_cycles += cycle.saturating_sub(issued_at);
                match self.warps[wid].state {
                    WarpState::WaitingData {
                        until,
                        pending_misses,
                    } => {
                        let pending = pending_misses.saturating_sub(1);
                        let state = if pending == 0 {
                            WarpState::BusyUntil(until.max(cycle))
                        } else {
                            WarpState::WaitingData {
                                until,
                                pending_misses: pending,
                            }
                        };
                        self.set_state(wid, state);
                    }
                    // The warp is still running past an async miss (or
                    // already exited/hit a barrier): just retire the
                    // outstanding count.
                    _ => {
                        let warp = &mut self.warps[wid];
                        warp.outstanding_misses = warp.outstanding_misses.saturating_sub(1);
                    }
                }
            }
            self.spare_lists.push(recycled(waiters));
        }
    }

    fn check_barrier(&mut self, block: usize, cycle: Cycles) {
        let Some(members) = self.blocks.get(block) else {
            return;
        };
        let all_arrived = members.iter().all(|&w| {
            matches!(
                self.warps[w].state,
                WarpState::AtBarrier(_) | WarpState::Finished
            )
        });
        if all_arrived {
            for i in 0..members.len() {
                let w = self.blocks[block][i];
                if let WarpState::AtBarrier(since) = self.warps[w].state {
                    self.barrier_wait += cycle - since;
                    self.set_state(w, WarpState::BusyUntil(cycle + 1));
                }
            }
        }
    }

    fn note_ep_access(&mut self, hit: bool, cycle: Cycles, ctx: &mut MemCtx<'_>) {
        self.ep_access_count += 1;
        self.ep_hits += u64::from(hit);
        if self.ep_access_count >= ctx.config.ep_accesses {
            self.finish_ep(cycle, ctx);
        }
    }

    fn finish_ep(&mut self, cycle: Cycles, ctx: &mut MemCtx<'_>) {
        let mut samples = 0;
        let mut ready_sum = 0;
        let mut runs = 0;
        let mut run_length_sum = 0;
        for s in &mut self.schedulers {
            let p = s.take_probe();
            samples += p.samples;
            ready_sum += p.ready_sum;
            runs += p.runs;
            run_length_sum += p.run_length_sum;
        }
        let probe = EpProbe {
            ep_index: self.ep_index,
            avg_warps_available: if samples == 0 {
                0.0
            } else {
                // Average over per-scheduler samples; scale by scheduler
                // count to express "warps available in the SM".
                ready_sum as f64 / samples as f64 * self.schedulers.len() as f64
            },
            avg_exec_cycles_per_schedule: if runs == 0 {
                0.0
            } else {
                run_length_sum as f64 / runs as f64
            },
            l1_accesses: self.ep_access_count,
            cycles: cycle.saturating_sub(self.ep_start_cycle),
            end_cycle: cycle,
        };
        ctx.policy.on_ep(&probe);
        if let Some(algo) = ctx.policy.pending_invalidation() {
            // A retrain invalidation may drop dirty lines (e.g. the SC
            // codebook rebuild); their bytes must still reach memory.
            for victim in self.l1.invalidate_algo(algo) {
                self.writeback_victim(&victim, cycle, ctx);
            }
        }
        ctx.stats.eps_completed += 1;
        if ctx.config.record_traces && self.id == 0 {
            ctx.stats.traces.push(EpTraceEntry {
                ep_index: self.ep_index,
                end_cycle: cycle,
                latency_tolerance: probe.latency_tolerance(),
                effective_capacity: self.l1.effective_capacity_bytes() as f64
                    / self.l1.geometry().size_bytes as f64,
                l1_hit_rate: self.ep_hits as f64 / self.ep_access_count as f64,
                selected_mode: ctx.policy.current_mode_index(),
            });
        }
        if ctx.shadow.is_some() {
            let mode = ctx.policy.current_mode_index();
            let switched = self.last_mode.is_some_and(|prev| prev != mode);
            let kind = if switched {
                ShadowCheckpoint::ModeSwitch
            } else {
                ShadowCheckpoint::EpBoundary
            };
            let due = switched || self.ep_index.is_multiple_of(ctx.shadow_every.max(1));
            if due {
                let errors = self.structural_errors(&*ctx.policy);
                if let Some(shadow) = ctx.shadow.as_deref_mut() {
                    shadow.on_checkpoint(self.id, cycle, kind, &errors);
                }
            }
            self.last_mode = Some(mode);
        }
        self.ep_access_count = 0;
        self.ep_hits = 0;
        self.ep_index += 1;
        self.ep_start_cycle = cycle;
    }

    /// Drains every dirty line into `(addr, data)` pairs for the
    /// kernel-end flush (deterministic set/slot order; lines stay
    /// resident but clean). The GPU epilogue routes them to the L2 and
    /// the backing-store image.
    pub(crate) fn drain_dirty(&mut self) -> Vec<(LineAddr, CacheLine)> {
        self.l1.drain_dirty()
    }

    /// Collects every structural-invariant failure visible from this SM:
    /// the compressed L1's tag/capacity/shadow checks, the MSHR bounds,
    /// each scheduler's readiness table against its warps' states, and
    /// the compression policy's internal-state checks.
    pub(crate) fn structural_errors(&self, policy: &dyn L1CompressionPolicy) -> Vec<String> {
        let mut errors = Vec::new();
        if let Err(e) = self.l1.validate() {
            errors.push(format!("l1: {e}"));
        }
        if let Err(e) = self.mshr.validate() {
            errors.push(format!("mshr: {e}"));
        }
        for (i, scheduler) in self.schedulers.iter().enumerate() {
            if let Err(e) = scheduler.validate(&self.warps) {
                errors.push(format!("scheduler {i}: {e}"));
            }
        }
        if let Err(e) = policy.validate() {
            errors.push(format!("policy: {e}"));
        }
        errors
    }
}

/// The warps waiting on one line, with the cycle each one missed, in
/// enqueue order.
type WaitList = Vec<(usize, Cycles)>;

/// Empties a waiter list for reuse, keeping its capacity.
fn recycled(mut list: WaitList) -> WaitList {
    list.clear();
    list
}

/// Replaces one 32-byte sector of `base` with `bytes`.
fn merge_sector(base: &CacheLine, sector: usize, bytes: &[u8; 32]) -> CacheLine {
    let mut out = *base.as_bytes();
    out[sector * 32..(sector + 1) * 32].copy_from_slice(bytes);
    CacheLine::from_bytes(out)
}

/// Overlays every pending sector write onto `base` (absent sectors keep
/// the delivered bytes).
fn merge_sectors(base: &CacheLine, sectors: &[Option<[u8; 32]>; 4]) -> CacheLine {
    let mut out = *base.as_bytes();
    for (i, s) in sectors.iter().enumerate() {
        if let Some(bytes) = s {
            out[i * 32..(i + 1) * 32].copy_from_slice(bytes);
        }
    }
    CacheLine::from_bytes(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::UncompressedPolicy;
    use crate::testing::StridedKernel;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    #[test]
    fn records_carry_handles_not_lines() {
        assert_eq!(std::mem::size_of::<MemEvent>(), 32);
        assert_eq!(std::mem::size_of::<L2Request>(), 48);
        let mut events = EventQueue::default();
        let line = CacheLine::from_bytes([7; CacheLine::SIZE_BYTES]);
        events.push(9, 1, LineAddr::new(3), false, Some(line));
        events.push(5, 0, LineAddr::new(4), false, None);
        assert_eq!(events.next_due(), Some(5));
        assert!(events.pop_due(4).is_none(), "nothing due before cycle 5");
        let (ev, payload) = events.pop_due(9).expect("due by cycle 9");
        assert_eq!((ev.cycle, ev.addr, payload), (5, LineAddr::new(4), None));
        let (ev, payload) = events.pop_due(9).expect("due by cycle 9");
        assert_eq!((ev.cycle, ev.sm, payload), (9, 1, Some(line)));
        assert!(events.is_empty());
        // The freed slot is reused rather than grown.
        events.push(12, 0, LineAddr::new(5), true, Some(line));
        assert_eq!(events.payloads.lines.len(), 1);
    }

    /// Pops everything due by `cycle` from both queues and checks they
    /// agree record for record.
    fn drain_both(
        events: &mut EventQueue,
        reference: &mut BinaryHeap<Reverse<(Cycles, usize, LineAddr, bool)>>,
        payloads: &mut HashMap<(usize, LineAddr), Option<CacheLine>>,
        cycle: Cycles,
    ) -> Result<(), String> {
        loop {
            let expected = match reference.peek() {
                Some(&Reverse(key)) if key.0 <= cycle => {
                    reference.pop();
                    Some((key, payloads.remove(&(key.1, key.2)).flatten()))
                }
                _ => None,
            };
            let actual = events
                .pop_due(cycle)
                .map(|(ev, payload)| ((ev.cycle, ev.sm, ev.addr, ev.verified), payload));
            if actual != expected {
                return Err(format!(
                    "at cycle {cycle}: popped {actual:?}, expected {expected:?}"
                ));
            }
            if actual.is_none() {
                return Ok(());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sorted queue pops exactly what a binary min-heap of the
        /// same records pops, under random interleavings of pushes in
        /// latency-class order, pushes before the current tails (spikes,
        /// retries), equal-cycle ties and draining pops.
        #[test]
        fn event_queue_pops_in_heap_order(
            steps in prop::collection::vec(
                (0u8..8, 0u64..300, 0usize..3, 0u64..48, any::<bool>(), any::<bool>()),
                1..200,
            ),
        ) {
            let mut events = EventQueue::default();
            let mut reference = BinaryHeap::new();
            let mut payloads = HashMap::new();
            let mut now: Cycles = 0;
            for (action, offset, sm, addr, verified, with_payload) in steps {
                let addr = LineAddr::new(addr);
                match action {
                    0..=3 => {
                        // An SM has at most one outstanding fill per line.
                        if payloads.contains_key(&(sm, addr)) {
                            continue;
                        }
                        let cycle = now + match action {
                            0 => 120,
                            1 => 230,
                            2 => offset,
                            _ => offset % 4,
                        };
                        let payload = with_payload
                            .then(|| CacheLine::from_bytes([offset as u8; CacheLine::SIZE_BYTES]));
                        events.push(cycle, sm, addr, verified, payload);
                        reference.push(Reverse((cycle, sm, addr, verified)));
                        payloads.insert((sm, addr), payload);
                    }
                    4..=6 => {
                        now += offset / 8;
                        prop_assert_eq!(drain_both(&mut events, &mut reference, &mut payloads, now), Ok(()));
                    }
                    _ => {
                        let due = reference.peek().map(|Reverse(key)| key.0);
                        prop_assert_eq!(events.next_due(), due);
                        prop_assert_eq!(events.is_empty(), reference.is_empty());
                    }
                }
            }
            prop_assert_eq!(
                drain_both(&mut events, &mut reference, &mut payloads, Cycles::MAX),
                Ok(())
            );
            prop_assert!(events.is_empty());
        }
    }

    #[test]
    fn event_queue_refills_without_growing() {
        let mut events = EventQueue::default();
        // Two latency classes, interleaved, and one record before both.
        let fill = |events: &mut EventQueue, base: Cycles| {
            for n in 0..4 {
                events.push(base + 200 + n, 1, LineAddr::new(n), false, None);
                events.push(base + 100 + n, 0, LineAddr::new(n), false, None);
            }
            events.push(base + 50, 1, LineAddr::new(9), false, None);
        };
        fill(&mut events, 0);
        assert_eq!(events.next_due(), Some(50));
        let capacity = events.pending.capacity();
        let popped: Vec<Cycles> = std::iter::from_fn(|| events.pop_due(Cycles::MAX))
            .map(|(ev, _)| ev.cycle)
            .collect();
        assert!(popped.is_sorted(), "{popped:?}");
        assert_eq!(popped.len(), 9);
        assert!(events.is_empty());
        fill(&mut events, 1000);
        assert_eq!(events.pending.capacity(), capacity);
    }

    #[test]
    fn merged_misses_wake_in_enqueue_order_on_a_recycled_list() {
        let config = GpuConfig::small();
        let kernel = StridedKernel::new(5, 4, 64);
        let mut sm = Sm::new(0, &config);
        sm.launch(&kernel, &config);
        let mut l2 = L2Buffer::default();
        let mut events = EventQueue::default();
        let mut policy = UncompressedPolicy;
        let mut stats = KernelStats::default();
        let mut ctx = MemCtx {
            l2: &mut l2,
            events: &mut events,
            policy: &mut policy,
            kernel: &kernel,
            config: &config,
            stats: &mut stats,
            shadow: None,
            shadow_every: 1,
        };
        // A first miss and its fill leave one emptied list behind.
        let first = LineAddr::new(1);
        assert!(sm.execute_load(0, first.byte_addr(), 10, true, &mut ctx));
        sm.handle_fill(first, 20, true, None, &mut ctx);
        assert_eq!(sm.spare_lists.len(), 1);
        // Three warps miss on one line, out of id order: the misses merge
        // onto the recycled list in the order they were enqueued.
        let line = LineAddr::new(2);
        for (wid, cycle) in [(3, 30), (1, 31), (4, 32)] {
            assert!(sm.execute_load(wid, line.byte_addr(), cycle, true, &mut ctx));
        }
        assert!(sm.spare_lists.is_empty(), "the miss took the spare list");
        assert_eq!(sm.waiters[&line], vec![(3, 30), (1, 31), (4, 32)]);
        sm.handle_fill(line, 40, true, None, &mut ctx);
        for wid in [3, 1, 4] {
            assert_eq!(sm.warps[wid].state, WarpState::BusyUntil(40), "warp {wid}");
        }
        assert_eq!(ctx.stats.miss_wait_cycles, 10 + 10 + 9 + 8);
        assert!(sm.waiters.is_empty());
        assert_eq!(sm.spare_lists.len(), 1, "the list went back for reuse");
    }

    #[test]
    fn structural_errors_report_a_stale_readiness_table() {
        let config = GpuConfig::small();
        let mut sm = Sm::new(0, &config);
        sm.launch(&StridedKernel::new(5, 4, 64), &config);
        assert_eq!(
            sm.structural_errors(&UncompressedPolicy),
            Vec::<String>::new()
        );
        // Warp 3 (slot 1 of scheduler 1) is Ready, but its slot now
        // claims it is busy: a state change the warp never made.
        sm.schedulers[1].on_state_change(1, WarpState::Ready, WarpState::BusyUntil(7));
        let errors = sm.structural_errors(&UncompressedPolicy);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].starts_with("scheduler 1: slot 1 (warp 3) ready at 7"),
            "{errors:?}"
        );
    }
}
