//! The top-level GPU: SMs, shared L2, memory event queue and the
//! cycle-stepping loop.

use crate::config::GpuConfig;
use crate::ops::Kernel;
use crate::parallel::{self, EpochStats};
use crate::policy::L1CompressionPolicy;
use crate::shadow::{ShadowCheck, ShadowCheckpoint, ShadowConfig};
use crate::sm::{L2Port, MemCtx, MemEvent, MemImage, Sm};
use crate::stats::{KernelStats, TerminationReason};
use crate::trace::TraceSink;
use latte_cache::SimpleCache;
use latte_compress::Cycles;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The simulated GPU.
///
/// Construct it with one policy instance per SM (LATTE-CC runs a private
/// controller per SM; static policies are stateless so replication is
/// harmless), then run kernels against it. Policies persist across kernels
/// so training state carries over; caches flush at kernel boundaries when
/// the config says so.
///
/// # Example
///
/// ```
/// use latte_gpusim::{Gpu, GpuConfig, UncompressedPolicy};
/// use latte_gpusim::testing::StridedKernel;
///
/// let config = GpuConfig::small();
/// let mut gpu = Gpu::new(&config, |_| Box::new(UncompressedPolicy));
/// let kernel = StridedKernel::new(4, 64, 1024);
/// let stats = gpu.run_kernel(&kernel);
/// assert!(stats.instructions > 0);
/// assert!(stats.cycles > 0);
/// ```
pub struct Gpu {
    config: GpuConfig,
    sms: Vec<Sm>,
    l2: SimpleCache,
    /// Backing-store image behind the L2: architectural memory as
    /// modified by dirty write-backs (empty — lines pristine — outside
    /// write-back mode). Keyed access only, never iterated.
    image: MemImage,
    policies: Vec<Box<dyn L1CompressionPolicy>>,
    events: BinaryHeap<Reverse<MemEvent>>,
    diag: Option<TraceSink>,
    shadow: Option<Box<dyn ShadowCheck>>,
    shadow_cfg: ShadowConfig,
    epoch_stats: EpochStats,
}

impl Gpu {
    /// Creates a GPU, building one policy per SM via `make_policy(sm_id)`.
    ///
    /// The config is taken by reference and cloned exactly once, so
    /// `make_policy` can freely borrow the caller's copy (policies are
    /// typically tuned to the same config the GPU runs).
    pub fn new(
        config: &GpuConfig,
        mut make_policy: impl FnMut(usize) -> Box<dyn L1CompressionPolicy>,
    ) -> Gpu {
        let sms = (0..config.num_sms).map(|i| Sm::new(i, config)).collect();
        let policies = (0..config.num_sms).map(&mut make_policy).collect();
        let l2 = SimpleCache::new(config.l2_geometry);
        Gpu {
            config: config.clone(),
            sms,
            l2,
            image: MemImage::default(),
            policies,
            events: BinaryHeap::new(),
            diag: None,
            shadow: None,
            shadow_cfg: ShadowConfig::default(),
            epoch_stats: EpochStats::default(),
        }
    }

    /// Installs a differential-verification hook (see [`ShadowCheck`]).
    ///
    /// Every SM's L1 switches on its payload shadow, so subsequent loads
    /// report the bytes the cache actually holds. Install the hook before
    /// running kernels: enabling the shadow invalidates all L1 contents so
    /// no resident line can predate its payload record.
    pub fn set_shadow_check(&mut self, check: Box<dyn ShadowCheck>, cfg: ShadowConfig) {
        for sm in &mut self.sms {
            sm.l1.enable_payload_shadow();
        }
        self.shadow = Some(check);
        self.shadow_cfg = cfg;
    }

    /// Installs the sink that receives watchdog and early-termination
    /// diagnostics. Without one, diagnostics are dropped — the driver
    /// decides where (and whether) they surface; the simulator never
    /// writes to stdout/stderr itself.
    pub fn set_diag_sink(&mut self, sink: TraceSink) {
        self.diag = Some(sink);
    }

    fn emit_diag(&self, line: &str) {
        if let Some(sink) = &self.diag {
            sink.emit(line);
        }
    }

    /// The configuration this GPU runs.
    #[must_use]
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Runs `kernel` to completion (or the cycle limit) and returns its
    /// statistics.
    pub fn run_kernel(&mut self, kernel: &dyn Kernel) -> KernelStats {
        let mut stats = KernelStats::default();
        self.events.clear();
        if self.config.flush_at_kernel_boundary {
            self.l2.invalidate_all();
            // Each kernel's memory is defined by its own `line_data`
            // function, so the write-back image resets with the caches.
            // Without boundary flushes, caches stay warm, dirty lines
            // stay resident, and the image must persist with them.
            self.image.clear();
        }
        self.l2.reset_stats();
        for (sm, policy) in self.sms.iter_mut().zip(&mut self.policies) {
            sm.launch(kernel, &self.config);
            policy.on_kernel_start();
        }

        let threads = parallel::effective_threads(&self.config);
        let cycle = if threads > 1 {
            self.run_cycles_parallel(kernel, threads, &mut stats)
        } else {
            self.run_cycles_serial(kernel, &mut stats)
        };

        // Kernel-end dirty flush: when caches flush at the boundary,
        // dirty lines drain to the L2 and the backing-store image first
        // (SM id order, deterministic in both loops — this runs after
        // the parallel workers have reassembled the machine). Without
        // boundary flushes, dirty lines legitimately stay resident. The
        // planted `drop_writebacks` mutation discards the flush too.
        if self.config.write_back && self.config.flush_at_kernel_boundary {
            let dropped = self.config.faults.is_some_and(|f| f.drop_writebacks);
            for sm in &mut self.sms {
                for (addr, data) in sm.drain_dirty() {
                    if dropped {
                        stats.faults.writebacks_dropped += 1;
                        continue;
                    }
                    stats.writebacks += 1;
                    self.image.insert(addr, data);
                    if !self.l2.access_and_fill(addr) {
                        stats.dram_accesses += 1;
                    }
                }
            }
        }

        // Kernel-end checkpoint: every SM's structural invariants must
        // hold at quiescence regardless of the in-kernel cadence.
        if let Some(shadow) = &mut self.shadow {
            for (sm, policy) in self.sms.iter().zip(&self.policies) {
                let errors = sm.structural_errors(policy.as_ref());
                shadow.on_checkpoint(sm.id, cycle, ShadowCheckpoint::KernelEnd, &errors);
            }
        }

        stats.cycles = cycle.max(1);
        // Instruction counts accumulate in warps as well; cross-check.
        debug_assert_eq!(
            stats.instructions,
            self.sms
                .iter()
                .flat_map(|s| s.warps.iter())
                .map(|w| w.instructions)
                .sum::<u64>()
        );
        stats.barrier_wait_cycles = self.sms.iter().map(|s| s.barrier_wait).sum();
        stats.l1 = self.sms.iter().map(|s| *s.l1.stats()).sum();
        stats.l2 = *self.l2.stats();
        stats
    }

    /// The original single-threaded cycle loop: deliver due completions,
    /// issue every SM in id order, fast-forward idle gaps. Returns the
    /// final processed cycle; early terminations are recorded in `stats`.
    fn run_cycles_serial(&mut self, kernel: &dyn Kernel, stats: &mut KernelStats) -> Cycles {
        let mut cycle: Cycles = 0;
        loop {
            // Deliver memory completions due by now.
            while let Some(&Reverse(ev)) = self.events.peek() {
                if ev.cycle > cycle {
                    break;
                }
                self.events.pop();
                let sm = &mut self.sms[ev.sm];
                let mut ctx = MemCtx {
                    l2: L2Port::Direct {
                        l2: &mut self.l2,
                        image: &mut self.image,
                    },
                    events: &mut self.events,
                    policy: self.policies[ev.sm].as_mut(),
                    kernel,
                    config: &self.config,
                    stats,
                    shadow: self.shadow.as_deref_mut(),
                    shadow_every: self.shadow_cfg.structural_every_eps,
                };
                sm.handle_fill(ev.addr, ev.cycle.max(cycle), ev.verified, ev.data, &mut ctx);
            }

            // Issue.
            let mut issued = 0;
            for (sm, policy) in self.sms.iter_mut().zip(&mut self.policies) {
                let mut ctx = MemCtx {
                    l2: L2Port::Direct {
                        l2: &mut self.l2,
                        image: &mut self.image,
                    },
                    events: &mut self.events,
                    policy: policy.as_mut(),
                    kernel,
                    config: &self.config,
                    stats,
                    shadow: self.shadow.as_deref_mut(),
                    shadow_every: self.shadow_cfg.structural_every_eps,
                };
                issued += sm.issue_cycle(cycle, &mut ctx);
            }
            stats.instructions += issued;

            let done = self.sms.iter().all(Sm::all_finished) && self.events.is_empty();
            if done {
                break;
            }
            if cycle >= self.config.max_cycles_per_kernel {
                stats.timed_out = true;
                stats.termination = self.audit_termination(TerminationReason::CycleLimit);
                break;
            }

            if issued > 0 {
                cycle += 1;
                continue;
            }
            // Nothing issued: fast-forward to the next interesting cycle.
            let next_event = self.events.peek().map(|&Reverse(e)| e.cycle);
            let next_wake = self
                .sms
                .iter()
                .filter_map(Sm::next_wake)
                .map(|w| w.max(cycle + 1))
                .min();
            let target = match (next_event, next_wake) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => {
                    // No pending work but not all finished. The watchdog
                    // audit decides whether this is a workload deadlock
                    // (e.g. a barrier that can never release) or the
                    // simulator's own state went bad. Bail out either way.
                    stats.timed_out = true;
                    stats.termination = self.audit_termination(TerminationReason::Deadlock);
                    break;
                }
            };
            let target = target.max(cycle + 1);
            let skipped = target - cycle - 1;
            if skipped > 0 {
                for sm in &mut self.sms {
                    sm.account_idle(skipped);
                }
            }
            cycle = target;
        }
        cycle
    }

    /// The epoch-barrier parallel loop (see [`crate::parallel`]): shards
    /// of SMs simulate on worker threads for bounded epochs, and the
    /// barrier arbiter replays their buffered L2 traffic in the serial
    /// order. Byte-identical to [`Gpu::run_cycles_serial`] by design;
    /// the determinism suite pins it.
    fn run_cycles_parallel(
        &mut self,
        kernel: &dyn Kernel,
        threads: usize,
        stats: &mut KernelStats,
    ) -> Cycles {
        let outcome = parallel::run_cycles(
            threads,
            &mut self.sms,
            &mut self.policies,
            &mut self.l2,
            &mut self.image,
            self.shadow.as_deref_mut(),
            self.shadow_cfg.structural_every_eps,
            &self.config,
            kernel,
            stats,
            &mut self.epoch_stats,
        );
        if let Some(fallback) = outcome.fallback {
            stats.timed_out = true;
            stats.termination = self.audit_termination(fallback);
        }
        outcome.cycle
    }

    /// Drains the accumulated epoch/barrier accounting (populated only by
    /// parallel runs; empty after serial ones). The bench driver's
    /// `--timings` report surfaces it.
    pub fn take_epoch_stats(&mut self) -> EpochStats {
        std::mem::take(&mut self.epoch_stats)
    }

    /// Watchdog audit: distinguishes a stalled workload from corrupted
    /// simulator state. Returns `fallback` when every L1 passes its
    /// structural validation and `FaultAbort` otherwise (the violation is
    /// reported through the diagnostic sink; statistics past this point
    /// are suspect).
    fn audit_termination(&self, fallback: TerminationReason) -> TerminationReason {
        for sm in &self.sms {
            if let Err(violation) = sm.l1.validate() {
                self.emit_diag(&format!(
                    "latte-gpusim: watchdog found corrupted L1 state on SM {}: {violation}",
                    sm.id
                ));
                return TerminationReason::FaultAbort;
            }
        }
        fallback
    }

    /// Runs a sequence of kernels, returning per-kernel statistics.
    /// Kernels that stop early (cycle limit, deadlock, fault abort) are
    /// reported through the diagnostic sink instead of failing silently.
    pub fn run_kernels<'k>(
        &mut self,
        kernels: impl IntoIterator<Item = &'k dyn Kernel>,
    ) -> Vec<KernelStats> {
        kernels
            .into_iter()
            .enumerate()
            .map(|(i, k)| {
                let stats = self.run_kernel(k);
                if !stats.termination.is_clean() {
                    self.emit_diag(&format!(
                        "latte-gpusim: kernel {i} ({}) stopped early: {} after {} cycles",
                        k.name(),
                        stats.termination,
                        stats.cycles
                    ));
                }
                stats
            })
            .collect()
    }

    /// Decision reports from every SM's policy (see
    /// [`crate::policy::PolicyReport`]).
    #[must_use]
    pub fn policy_reports(&self) -> Vec<crate::policy::PolicyReport> {
        self.policies.iter().map(|p| p.report()).collect()
    }

    /// Sum of the effective capacities of all L1s, relative to the
    /// baseline total (instrumentation for Fig 16).
    #[must_use]
    pub fn l1_effective_capacity_ratio(&self) -> f64 {
        let total: usize = self.sms.iter().map(|s| s.l1.effective_capacity_bytes()).sum();
        let baseline: usize = self.sms.iter().map(|s| s.l1.geometry().size_bytes).sum();
        if baseline == 0 {
            0.0
        } else {
            total as f64 / baseline as f64
        }
    }
}

// The parallel experiment driver moves whole simulations onto worker
// threads, so the GPU — SMs, caches, fault injectors, policies — must be
// `Send`. Enforced at compile time; losing this (e.g. by storing an `Rc`
// in per-SM state) is a build error, not a runtime surprise.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<Gpu>();
    assert_send::<crate::sm::Sm>();
    assert_send::<crate::faults::FaultInjector>();
    // Kernel descriptions are shared by reference across SMs during a
    // launch, so trait objects over them must be Send + Sync (backed by
    // the `Kernel: Send + Sync` supertraits; lint rule S1 audits the
    // fields that rely on this).
    assert_send::<Box<dyn crate::ops::Kernel>>();
    assert_sync::<Box<dyn crate::ops::Kernel>>();
};

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("num_sms", &self.sms.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}
