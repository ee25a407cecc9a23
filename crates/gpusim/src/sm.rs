//! One streaming multiprocessor: warps, schedulers, L1, decompression
//! queue, MSHRs and the experimental-phase (EP) bookkeeping.

use crate::config::GpuConfig;
use crate::faults::{BitflipOutcome, FaultInjector};
use crate::ops::{Kernel, Op};
use crate::policy::{AccessEvent, EpProbe, L1CompressionPolicy};
use crate::scheduler::WarpScheduler;
use crate::shadow::{roundtrip_stored, ShadowCheck, ShadowCheckpoint};
use crate::stats::{EpTraceEntry, KernelStats};
use crate::warp::{Warp, WarpState};
use latte_cache::{
    CompressedCache, DecompressionQueue, LineAddr, LineMap, LookupOutcome, Mshr, MshrOutcome,
};
use latte_compress::{CacheLine, Compression, Cycles};

/// The backing-store image: architectural memory contents *behind* the
/// L2, as modified by dirty write-backs. Lines absent from the map still
/// hold their pristine [`Kernel::line_data`] bytes, so the map stays
/// empty (and the write-through configurations stay allocation-free)
/// unless the write-back data path runs. Accessed only at L2-access
/// points — inline in the serial loop, at the barrier arbiter under
/// `--sim-threads` — so both paths read and write it in the identical
/// `(cycle, phase, sm, seq)` order.
pub(crate) type MemImage = LineMap<CacheLine>;

/// A memory request completing at `cycle` for `sm`'s line `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct MemEvent {
    pub cycle: Cycles,
    pub sm: usize,
    pub addr: LineAddr,
    /// `true` for a parity-retry re-send: the return-path data has
    /// already been checked, so the fill-bitflip site must not roll
    /// again (guarantees forward progress even at injection rate 1.0).
    pub verified: bool,
    /// Refill payload resolved from the backing-store image at L2-access
    /// time (`None` = the line is pristine and the fill delivers
    /// [`Kernel::line_data`]). Always `None` outside write-back mode.
    /// Kept as the last field so the derived heap order stays
    /// `(cycle, sm, addr, verified)`-major; the payload can never decide
    /// a tie because each SM has at most one outstanding fill per line.
    pub data: Option<CacheLine>,
}

/// One buffered shared-L2 access awaiting the epoch barrier.
///
/// Under `--sim-threads`, SMs never touch the L2 directly; they emit
/// these records into a shard-local [`L2Buffer`] and the barrier arbiter
/// replays them through the real cache in `(cycle, phase, sm, seq)`
/// order — exactly the order the serial loop would have performed them.
/// Issue-phase traffic (loads, stores) is unique per `(cycle, sm)`
/// thanks to the single LD/ST port, and the serial loop issues SMs in id
/// order within a cycle; delivery-phase traffic (dirty write-backs from
/// fill-time evictions) drains from per-shard event heaps whose pop
/// order matches the serial heap's `(cycle, sm, addr)` order, with `seq`
/// preserving each SM's emission order inside one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct L2Request {
    /// Cycle the SM performed the access.
    pub cycle: Cycles,
    /// 0 = memory-delivery phase (write-backs from fill-time evictions),
    /// 1 = issue phase (loads, stores, issue-time write-backs); the
    /// serial loop delivers completions before issuing within a cycle.
    pub phase: u8,
    /// Issuing SM.
    pub sm: usize,
    /// Emission sequence within the buffer, ordering one SM's multiple
    /// accesses inside a single `(cycle, phase)`.
    pub seq: u64,
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
    /// SM-locally at issue time, so the injector's stream position is
    /// identical to the serial run.
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
        /// The evicted line's architectural bytes.
        data: CacheLine,
    },
}

/// Epoch-local buffer of deferred L2 accesses (one per shard). Plain
/// owned data: the shared cache itself is only ever touched by the
/// arbiter draining these records at the barrier.
#[derive(Debug, Default)]
pub(crate) struct L2Buffer {
    /// Buffered requests, in emission order.
    pub requests: Vec<L2Request>,
    seq: u64,
}

impl L2Buffer {
    fn push(&mut self, cycle: Cycles, phase: u8, sm: usize, addr: LineAddr, kind: L2RequestKind) {
        self.requests.push(L2Request {
            cycle,
            phase,
            sm,
            seq: self.seq,
            addr,
            kind,
        });
        self.seq += 1;
    }
}

/// How an SM reaches the shared L2 while stepping: inline in the serial
/// loop, or deferred to the epoch-barrier arbiter under `--sim-threads`.
/// The serial variant is the only place SM code can reach shared cache
/// state, and it is exercised strictly one SM at a time.
pub(crate) enum L2Port<'a> {
    /// Serial path: access the shared L2 (and the backing-store image
    /// behind it) inline, exactly as the single-threaded loop always has.
    // latte-lint: shared-boundary(reason = "the shared L2 and backing-store image, accessed inline by the single-threaded loop only; one SM steps at a time, so the references are never aliased")
    Direct {
        /// The shared L2.
        l2: &'a mut latte_cache::SimpleCache,
        /// The backing-store image dirty write-backs land in.
        image: &'a mut MemImage,
    },
    /// Parallel path: buffer the access into shard-local memory; the
    /// epoch-barrier arbiter drains every shard's buffer through the
    /// real L2 in `(cycle, sm, seq)` order.
    // latte-lint: shared-boundary(reason = "epoch-local request buffer; the barrier arbiter serializes it through the real L2 in fixed (cycle, sm, seq) order, so no two threads ever race on cache state")
    Deferred(&'a mut L2Buffer),
}

/// Shared resources an SM needs while stepping (split off `Gpu` to keep
/// borrows disjoint).
pub(crate) struct MemCtx<'a> {
    /// The SM's window onto the shared L2 (see [`L2Port`]).
    pub l2: L2Port<'a>,
    // latte-lint: shared-boundary(reason = "the DRAM completion heap; every push is self-targeted, so under --sim-threads each shard owns a private heap and the barrier arbiter routes cross-stage completions, ordered by (cycle, sm, addr)")
    pub events: &'a mut std::collections::BinaryHeap<std::cmp::Reverse<MemEvent>>,
    // latte-lint: shared-boundary(reason = "the SM's own per-SM compression policy; it travels with its SM into a shard under --sim-threads and is only consulted while that SM steps")
    pub policy: &'a mut dyn L1CompressionPolicy,
    // latte-lint: shared-boundary(reason = "read-only kernel description (Kernel: Send + Sync); immutable during a launch, safe to share by reference across shard threads")
    pub kernel: &'a dyn Kernel,
    // latte-lint: shared-boundary(reason = "read-only GpuConfig; immutable for the whole run")
    pub config: &'a GpuConfig,
    // latte-lint: shared-boundary(reason = "launch-wide counters; all updates are commutative adds, accumulated shard-locally under --sim-threads and summed at the end of the run")
    pub stats: &'a mut KernelStats,
    /// Differential-verification hook (`None` in normal runs).
    // latte-lint: shared-boundary(reason = "verification-only shadow model; serial oracle runs call it directly, parallel runs record into a shard-local recorder that the barrier replays in deterministic (cycle, phase, sm, seq) order")
    pub shadow: Option<&'a mut (dyn ShadowCheck + 'static)>,
    /// Structural-checkpoint cadence in EPs (meaningless without `shadow`).
    pub shadow_every: u64,
}

impl MemCtx<'_> {
    /// A write-through store reaching the shared L2. Serial: the access
    /// happens now (a miss counts one DRAM access). Parallel: buffered
    /// for the barrier arbiter, which applies the identical logic in the
    /// identical order.
    fn l2_store(&mut self, line: LineAddr, cycle: Cycles, sm: usize) {
        match &mut self.l2 {
            L2Port::Direct { l2, .. } => {
                if !l2.access_and_fill(line) {
                    self.stats.dram_accesses += 1;
                }
            }
            L2Port::Deferred(buf) => buf.push(cycle, 1, sm, line, L2RequestKind::Store),
        }
    }

    /// A primary load miss's fill round trip. Serial: access the L2 now
    /// and schedule the completion event directly. Parallel: buffer the
    /// request; the arbiter performs the access at the barrier and pushes
    /// the completion into the owning shard's heap. `spike` is the
    /// SM-locally rolled latency-spike fault (0 when none) — rolled
    /// before this call in both paths so the fault stream is identical.
    /// The refill payload is resolved from the backing-store image at
    /// the L2-access point in both paths, so a fill issued after a
    /// write-back of the same line (in `(cycle, phase, sm, seq)` order)
    /// always observes the written bytes.
    fn l2_load_miss(&mut self, line: LineAddr, cycle: Cycles, sm: usize, spike: Cycles) {
        match &mut self.l2 {
            L2Port::Direct { l2, image } => {
                let mut latency = if l2.access_and_fill(line) {
                    self.config.l2_latency
                } else {
                    self.stats.dram_accesses += 1;
                    self.config.dram_latency
                };
                latency += spike;
                self.events.push(std::cmp::Reverse(MemEvent {
                    cycle: cycle + latency,
                    sm,
                    addr: line,
                    verified: false,
                    data: image.get(&line).copied(),
                }));
            }
            L2Port::Deferred(buf) => {
                buf.push(cycle, 1, sm, line, L2RequestKind::LoadFill { spike });
            }
        }
    }

    /// A dirty line's write-back reaching the shared L2 and the
    /// backing-store image. `phase` is 0 for write-backs emitted while
    /// delivering fills and 1 for issue-time ones, mirroring the serial
    /// loop's deliver-then-issue order within a cycle. Under the planted
    /// `drop_writebacks` mutation the write-back is silently discarded —
    /// the lost-store failure mode the shadow oracle must catch.
    fn l2_writeback(&mut self, line: LineAddr, data: CacheLine, cycle: Cycles, sm: usize, phase: u8) {
        if self.config.faults.is_some_and(|f| f.drop_writebacks) {
            self.stats.faults.writebacks_dropped += 1;
            return;
        }
        self.stats.writebacks += 1;
        match &mut self.l2 {
            L2Port::Direct { l2, image } => {
                image.insert(line, data);
                if !l2.access_and_fill(line) {
                    self.stats.dram_accesses += 1;
                }
            }
            L2Port::Deferred(buf) => {
                buf.push(cycle, phase, sm, line, L2RequestKind::WriteBack { data });
            }
        }
    }
}

pub(crate) struct Sm {
    pub id: usize,
    pub warps: Vec<Warp>,
    schedulers: Vec<WarpScheduler>,
    pub l1: CompressedCache,
    mshr: Mshr,
    dq: DecompressionQueue,
    /// Warps blocked on each outstanding line. Keyed access only; the
    /// Vec behind each key keeps wakeups in enqueue order.
    waiters: LineMap<Vec<(usize, Cycles)>>,
    /// Write-back mode: sectors stored while the line's allocating fill
    /// is in flight, merged into the line when the fill arrives (last
    /// write to a sector wins). Keyed access only, never iterated.
    pending_stores: LineMap<[Option<[u8; 32]>; 4]>,
    /// Warp ids per thread block (barrier scope).
    blocks: Vec<Vec<usize>>,
    /// Deterministic fault source (absent when injection is disabled).
    faults: Option<FaultInjector>,
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
            l1,
            mshr: Mshr::new(config.mshr_entries, config.mshr_merges),
            dq: DecompressionQueue::new(),
            waiters: LineMap::default(),
            pending_stores: LineMap::default(),
            blocks: Vec::new(),
            faults: config.faults.map(|fc| FaultInjector::new(fc, id)),
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
            .map(|b| {
                (0..n)
                    .filter(|w| w / config.warps_per_block == b)
                    .collect()
            })
            .collect();
        // Split warps round-robin across schedulers.
        self.schedulers = (0..config.schedulers_per_sm)
            .map(|s| {
                WarpScheduler::new(
                    config.scheduler,
                    (0..n).filter(|w| w % config.schedulers_per_sm == s).collect(),
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
        self.ep_access_count = 0;
        self.ep_hits = 0;
        self.ep_index = 0;
        self.ep_start_cycle = 0;
        self.barrier_wait = 0;
        self.last_mode = None;
    }

    pub(crate) fn all_finished(&self) -> bool {
        self.warps.iter().all(Warp::is_finished) && self.waiters.is_empty()
    }

    /// Earliest cycle at which a busy warp becomes ready, if any.
    pub(crate) fn next_wake(&self) -> Option<Cycles> {
        self.warps
            .iter()
            .filter_map(|w| match w.state {
                WarpState::BusyUntil(u) => Some(u),
                WarpState::Ready => Some(0),
                WarpState::WaitingData {
                    until,
                    pending_misses: 0,
                } => Some(until),
                _ => None,
            })
            .min()
    }

    /// Adds `n` skipped cycles to every scheduler's probe window.
    pub(crate) fn account_idle(&mut self, n: u64) {
        for s in &mut self.schedulers {
            s.account_idle_cycles(n, &self.warps);
        }
    }

    /// Runs one issue cycle: each scheduler issues at most one op, and the
    /// SM's single LD/ST port accepts at most one memory op per cycle
    /// (the structural hazard that bounds L1 bandwidth — and hence
    /// decompressor demand — to one access per cycle).
    /// Returns the number of instructions issued.
    pub(crate) fn issue_cycle(&mut self, cycle: Cycles, ctx: &mut MemCtx<'_>) -> u64 {
        let mut issued = 0;
        let mut ldst_free = true;
        let n = self.schedulers.len();
        // Rotate LD/ST port priority between schedulers.
        for i in 0..n {
            let s = (i + cycle as usize) % n;
            let Some(wid) = self.schedulers[s].pick(&self.warps, cycle) else {
                continue;
            };
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

    /// Returns `false` when the op could not issue (structural stall) and
    /// was rolled back.
    fn execute(&mut self, wid: usize, op: Op, cycle: Cycles, ctx: &mut MemCtx<'_>) -> bool {
        match op {
            Op::Compute { cycles } => {
                self.warps[wid].state = WarpState::BusyUntil(cycle + Cycles::from(cycles.max(1)));
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
                    ctx.events.push(std::cmp::Reverse(MemEvent {
                        cycle: cycle + ctx.config.l2_latency,
                        sm: self.id,
                        addr: line,
                        verified: false,
                        data: None,
                    }));
                }
                self.warps[wid].state = WarpState::BusyUntil(cycle + 1);
                true
            }
            Op::Barrier => {
                self.warps[wid].state = WarpState::AtBarrier(cycle);
                self.check_barrier(self.warps[wid].block, cycle);
                true
            }
            Op::Exit => {
                self.warps[wid].state = WarpState::Finished;
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

        // If this would be a miss the MSHR cannot take — really full, or
        // transiently exhausted by an injected fault — stall before any
        // statistics are recorded and retry shortly.
        let mshr_blocked = !self.l1.contains(line) && {
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
            ctx.stats.mshr_stalls += 1;
            let op = if blocking {
                Op::Load { addr }
            } else {
                Op::LoadAsync { addr }
            };
            self.warps[wid].unfetch(op);
            // Back off before replaying so the stalled warp does not hog
            // its scheduler's issue slot every cycle (hardware parks the
            // replay in the instruction buffer).
            self.warps[wid].state = WarpState::BusyUntil(cycle + 8);
            return false;
        }

        ctx.stats.loads += 1;
        let mut outcome = self.l1.lookup(line, cycle);
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
        let set = self.l1.set_of(line);
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
                if blocking {
                    warp.state = WarpState::WaitingData {
                        until: warp.data_ready_at,
                        pending_misses: warp.outstanding_misses,
                    };
                    warp.data_ready_at = 0;
                    warp.outstanding_misses = 0;
                } else {
                    // One cycle of issue occupancy; the data arrives in
                    // the background.
                    warp.state = WarpState::BusyUntil(cycle + 1);
                }
            }
            LookupOutcome::Miss => {
                match self.mshr.allocate(line) {
                    MshrOutcome::Primary => {
                        // Roll the latency-spike fault *before* touching
                        // the port: the injector is SM-local state, so its
                        // stream position must not depend on which path
                        // (direct vs deferred) the access takes.
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
                self.waiters.entry(line).or_default().push((wid, cycle));
                let warp = &mut self.warps[wid];
                if blocking {
                    warp.state = WarpState::WaitingData {
                        until: warp.data_ready_at,
                        pending_misses: warp.outstanding_misses + 1,
                    };
                    warp.data_ready_at = 0;
                    warp.outstanding_misses = 0;
                } else {
                    warp.outstanding_misses += 1;
                    warp.state = WarpState::BusyUntil(cycle + 1);
                }
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
        if !self.l1.contains(line) && !self.mshr.would_accept(line) {
            ctx.stats.mshr_stalls += 1;
            self.warps[wid].unfetch(Op::Store { addr, data: sector });
            self.warps[wid].state = WarpState::BusyUntil(cycle + 8);
            return false;
        }
        ctx.stats.stores += 1;
        let sector_index = ((addr >> 5) & 3) as usize;
        if self.l1.contains(line) {
            let base = self
                .l1
                .line_data(line)
                .copied()
                .unwrap_or_else(|| ctx.kernel.line_data(line));
            let merged = merge_sector(&base, sector_index, &sector);
            self.commit_store(line, merged, cycle, 1, ctx);
        } else {
            if self.mshr.allocate(line) == MshrOutcome::Primary {
                // Write-allocate fetch. No latency-spike roll: stores are
                // fire-and-forget, so a spike could never be observed.
                ctx.l2_load_miss(line, cycle, self.id, 0);
            }
            self.pending_stores.entry(line).or_insert([None; 4])[sector_index] = Some(sector);
        }
        self.warps[wid].state = WarpState::BusyUntil(cycle + 1);
        true
    }

    /// Commits a store's fully merged line into the L1: re-compress
    /// under the policy's choice, rewrite the line in place (marking it
    /// dirty), write back any dirty victims the size change displaced,
    /// and report the committed bytes to the shadow hook. `phase`
    /// follows the [`MemCtx::l2_writeback`] convention.
    fn commit_store(
        &mut self,
        line: LineAddr,
        merged: CacheLine,
        cycle: Cycles,
        phase: u8,
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
                self.l1.record_payload(line, roundtrip_stored(stored_algo, &merged));
            }
            for victim in evicted {
                self.writeback_victim(&victim, cycle, phase, ctx);
            }
            if let Some(shadow) = ctx.shadow.as_deref_mut() {
                shadow.on_store(self.id, line, &merged, cycle);
            }
        }
    }

    /// Sends one evicted line's dirty bytes back to the L2/DRAM (no-op
    /// for clean victims). The outbound-link fault is rolled SM-locally
    /// before the port access so the injector's stream position is
    /// identical in the serial and deferred paths; a parity-detected
    /// corruption is re-sent by the memory partition, costing link
    /// occupancy (counted) but no warp-visible latency.
    fn writeback_victim(
        &mut self,
        victim: &latte_cache::EvictedLine,
        cycle: Cycles,
        phase: u8,
        ctx: &mut MemCtx<'_>,
    ) {
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
        ctx.l2_writeback(victim.addr, data, cycle, self.id, phase);
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
                ctx.events.push(std::cmp::Reverse(MemEvent {
                    cycle: cycle + retry_latency,
                    sm: self.id,
                    addr,
                    verified: true,
                    data: payload,
                }));
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
        // data otherwise.
        let data = payload.unwrap_or_else(|| ctx.kernel.line_data(addr));
        if drop_fill {
            ctx.stats.faults.tag_corruptions += 1;
            // Write-back mode: the allocation was lost, but a store that
            // was waiting on this fill must still commit architecturally
            // — send the merged line straight through to memory so the
            // written bytes are not silently lost.
            if ctx.config.write_back {
                if let Some(sectors) = self.pending_stores.remove(&addr) {
                    let merged = merge_sectors(&data, &sectors);
                    ctx.l2_writeback(addr, merged, cycle, self.id, 0);
                    if let Some(shadow) = ctx.shadow.as_deref_mut() {
                        shadow.on_store(self.id, addr, &merged, cycle);
                    }
                }
            }
        } else {
            let set = self.l1.set_of(addr);
            let (algo, mut compression) = ctx.policy.compress_fill(set, &data);
            if algo != latte_compress::CompressionAlgo::None {
                // The compressor ran regardless of whether it succeeded.
                ctx.stats.compressions.bump(algo);
            }
            if ctx.config.ignore_capacity_benefit && compression.is_compressed() {
                // Fig 4 study: charge the hit-latency penalty but store at full
                // size (127 B quantises to the full four sub-blocks).
                compression = Compression::new(latte_compress::CacheLine::SIZE_BYTES - 1);
            }
            for victim in self.l1.fill(addr, algo, compression, cycle) {
                self.writeback_victim(&victim, cycle, 0, ctx);
            }
            self.l1.record_line_data(addr, data);
            if self.l1.payload_shadow_enabled() {
                // Record what the array actually holds: the encode/decode
                // round trip under the stored algorithm (fill() downgrades
                // incompressible lines to an uncompressed store).
                let stored_algo = if compression.is_compressed() {
                    algo
                } else {
                    latte_compress::CompressionAlgo::None
                };
                self.l1.record_payload(addr, roundtrip_stored(stored_algo, &data));
            }
            if let Some(shadow) = ctx.shadow.as_deref_mut() {
                shadow.on_fill(self.id, addr, &data, cycle);
            }
            // Write-allocate commit: sectors stored while this fill was
            // in flight merge into the just-filled line, which becomes
            // dirty. Ordered after `on_fill` so the shadow model sees
            // the delivered bytes before the store overlays them.
            if ctx.config.write_back {
                if let Some(sectors) = self.pending_stores.remove(&addr) {
                    let merged = merge_sectors(&data, &sectors);
                    self.commit_store(addr, merged, cycle, 0, ctx);
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
                self.waiters.remove(&addr);
                return;
            }
        }
        if let Some(waiters) = self.waiters.remove(&addr) {
            for (wid, issued_at) in waiters {
                ctx.stats.miss_wait_cycles += cycle.saturating_sub(issued_at);
                let warp = &mut self.warps[wid];
                match warp.state {
                    WarpState::WaitingData {
                        until,
                        pending_misses,
                    } => {
                        let pending = pending_misses.saturating_sub(1);
                        warp.state = if pending == 0 {
                            WarpState::BusyUntil(until.max(cycle))
                        } else {
                            WarpState::WaitingData {
                                until,
                                pending_misses: pending,
                            }
                        };
                    }
                    // The warp is still running past an async miss (or
                    // already exited/hit a barrier): just retire the
                    // outstanding count.
                    _ => {
                        warp.outstanding_misses = warp.outstanding_misses.saturating_sub(1);
                    }
                }
            }
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
            for &w in members {
                if let WarpState::AtBarrier(since) = self.warps[w].state {
                    self.barrier_wait += cycle - since;
                    self.warps[w].state = WarpState::BusyUntil(cycle + 1);
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
            // EP boundaries are observed at issue time, hence phase 1.
            for victim in self.l1.invalidate_algo(algo) {
                self.writeback_victim(&victim, cycle, 1, ctx);
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
    /// and the compression policy's internal-state checks.
    pub(crate) fn structural_errors(&self, policy: &dyn L1CompressionPolicy) -> Vec<String> {
        let mut errors = Vec::new();
        if let Err(e) = self.l1.validate() {
            errors.push(format!("l1: {e}"));
        }
        if let Err(e) = self.mshr.validate() {
            errors.push(format!("mshr: {e}"));
        }
        if let Err(e) = policy.validate() {
            errors.push(format!("policy: {e}"));
        }
        errors
    }
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
