//! Thread-count byte-identity against pinned digests: every scenario
//! runs at `sim_threads` 1 through 4 and each run must reproduce the
//! same digest of every counter, cycle count, trace entry, fault tally,
//! termination reason and shadow-hook call, across kernels, policies,
//! fault families and termination paths. The digests were recorded from
//! the original single-threaded cycle loop, so its outputs stay the
//! reference as data. These tests are the core guarantee that lets
//! `sim_threads` stay outside the config fingerprint.

use std::sync::{Arc, Mutex};

use latte_compress::{Compression, CompressionAlgo};
use latte_gpusim::testing::{HotsetKernel, StridedKernel};
use latte_gpusim::{
    EpochStats, FaultConfig, Fingerprinter, Gpu, GpuConfig, Kernel, KernelStats,
    L1CompressionPolicy, Op, OpStream, SchedulerKind, ShadowCheck, ShadowCheckpoint, ShadowConfig,
    TerminationReason, UncompressedPolicy, VecStream,
};

/// Five SMs: at 2 threads the shards split 3+2, at 4 threads 2+1+1+1 —
/// deliberately uneven, and interleaved by the balanced assignment, so
/// the arbiter's completion routing is exercised.
fn config() -> GpuConfig {
    GpuConfig {
        num_sms: 5,
        record_traces: true,
        ..GpuConfig::small()
    }
}

/// A policy compressing everything with one algorithm at a fixed size
/// (enough to exercise decompression queues and EP machinery).
struct FixedPolicy;

impl L1CompressionPolicy for FixedPolicy {
    fn name(&self) -> &'static str {
        "Fixed"
    }

    fn compress_fill(
        &mut self,
        _set: usize,
        _line: &latte_compress::CacheLine,
    ) -> (CompressionAlgo, Compression) {
        (CompressionAlgo::Bdi, Compression::new(32))
    }
}

/// A kernel mixing loads, stores, compute and barriers so the store
/// (write-through) path and the write-allocate background fetches cross
/// the epoch barrier too.
#[derive(Clone)]
struct MixedKernel;

impl Kernel for MixedKernel {
    fn name(&self) -> &str {
        "mixed-test"
    }

    fn warps_on_sm(&self, _sm: usize) -> usize {
        6
    }

    fn warp_program(&self, sm: usize, warp: usize) -> Box<dyn OpStream> {
        let line = |i: u64| ((sm as u64) << 20 | i) * 128;
        let mut ops = Vec::new();
        for i in 0..40u64 {
            let a = line((i * 7 + warp as u64) % 96);
            if i % 3 == 0 {
                // Sector and payload vary with (warp, i) so write-back
                // runs exercise sector merging and dirty re-compression.
                let sector = (i + warp as u64) % 4;
                let mut data = [0u8; 32];
                for (j, b) in data.iter_mut().enumerate() {
                    *b = (i as u8)
                        .wrapping_mul(13)
                        .wrapping_add(warp as u8)
                        .wrapping_add(j as u8);
                }
                ops.push(Op::Store {
                    addr: a + sector * 32,
                    data,
                });
            } else {
                ops.push(Op::Load { addr: a });
            }
            if i % 5 == 0 {
                ops.push(Op::Compute { cycles: 3 });
            }
            if i % 16 == 0 {
                ops.push(Op::Barrier);
            }
        }
        ops.push(Op::Exit);
        Box::new(VecStream::new(ops))
    }

    fn line_data(&self, addr: latte_cache::LineAddr) -> latte_compress::CacheLine {
        let words: Vec<u32> = (0..32)
            .map(|i| (addr.line_number() as u32).wrapping_mul(31).wrapping_add(i))
            .collect();
        latte_compress::CacheLine::from_u32_words(&words)
    }
}

/// A store-dominated kernel whose working set far exceeds the L1, so
/// dirty lines are evicted and refetched *within* the kernel — the
/// in-flight traffic the outbound write-back fault site rolls on (the
/// kernel-end flush deliberately rolls no faults, so [`MixedKernel`],
/// which fits the L1, never exercises that site).
#[derive(Clone)]
struct WritePressureKernel;

impl Kernel for WritePressureKernel {
    fn name(&self) -> &str {
        "write-pressure-test"
    }

    fn warps_on_sm(&self, _sm: usize) -> usize {
        8
    }

    fn warp_program(&self, sm: usize, warp: usize) -> Box<dyn OpStream> {
        let line = |i: u64| ((sm as u64) << 20 | i) * 128;
        let mut ops = Vec::new();
        for i in 0..120u64 {
            let a = line((i * 13 + warp as u64 * 7) % 1024);
            if i % 2 == 0 {
                let sector = (i + warp as u64) % 4;
                let mut data = [0u8; 32];
                for (j, b) in data.iter_mut().enumerate() {
                    *b = (i as u8)
                        .wrapping_mul(29)
                        .wrapping_add(warp as u8)
                        .wrapping_add(j as u8);
                }
                ops.push(Op::Store {
                    addr: a + sector * 32,
                    data,
                });
            } else {
                ops.push(Op::Load { addr: a });
            }
        }
        ops.push(Op::Exit);
        Box::new(VecStream::new(ops))
    }

    fn line_data(&self, addr: latte_cache::LineAddr) -> latte_compress::CacheLine {
        let words: Vec<u32> = (0..32)
            .map(|i| (addr.line_number() as u32).wrapping_mul(31).wrapping_add(i))
            .collect();
        latte_compress::CacheLine::from_u32_words(&words)
    }
}

/// A kernel whose very last operations are stores to lines that are
/// not resident: each one misses, write-allocates a background fill,
/// and the warp exits without waiting (stores are fire-and-forget).
/// The machine must keep running until the fill's completion is
/// delivered: a shard's done condition must count the buffered fill
/// request as pending work or it declares the kernel over early —
/// cycles, write-backs and the shadow transcript all diverge.
#[derive(Clone)]
struct TailStoreKernel;

impl Kernel for TailStoreKernel {
    fn name(&self) -> &str {
        "tail-store-test"
    }

    fn warps_on_sm(&self, _sm: usize) -> usize {
        4
    }

    fn warp_program(&self, sm: usize, warp: usize) -> Box<dyn OpStream> {
        let line = |i: u64| ((sm as u64) << 20 | i) * 128;
        let mut ops = Vec::new();
        // A short load phase warms unrelated lines...
        for i in 0..12u64 {
            ops.push(Op::Load {
                addr: line((i + warp as u64 * 3) % 24),
            });
        }
        // ...then the warp's final ops are stores to fresh lines.
        for i in 0..4u64 {
            let mut data = [0u8; 32];
            for (j, b) in data.iter_mut().enumerate() {
                *b = (i as u8)
                    .wrapping_mul(37)
                    .wrapping_add(warp as u8)
                    .wrapping_add(j as u8);
            }
            ops.push(Op::Store {
                addr: line(512 + i * 16 + warp as u64 * 4),
                data,
            });
        }
        ops.push(Op::Exit);
        Box::new(VecStream::new(ops))
    }

    fn line_data(&self, addr: latte_cache::LineAddr) -> latte_compress::CacheLine {
        let words: Vec<u32> = (0..32)
            .map(|i| (addr.line_number() as u32).wrapping_mul(31).wrapping_add(i))
            .collect();
        latte_compress::CacheLine::from_u32_words(&words)
    }
}

/// A streaming kernel that keeps a two-entry MSHR full: every warp
/// walks its own lines with blocking loads, async loads and stores, and
/// every fourth access lands on a line its neighbour warp also touches,
/// so misses merge as well as stall. Most picks of a memory op replay
/// one the MSHR cannot take yet.
#[derive(Clone)]
struct MshrStallKernel;

impl Kernel for MshrStallKernel {
    fn name(&self) -> &str {
        "mshr-stall-test"
    }

    fn warps_on_sm(&self, _sm: usize) -> usize {
        8
    }

    fn warp_program(&self, sm: usize, warp: usize) -> Box<dyn OpStream> {
        let line = |i: u64| ((sm as u64) << 20 | i) * 128;
        let w = warp as u64;
        let mut ops = Vec::new();
        for i in 0..48u64 {
            let shared = i % 4 == 3;
            let a = if shared {
                line(4096 + i * 2 + w / 2)
            } else {
                line(w * 256 + i)
            };
            match i % 6 {
                0 | 3 => ops.push(Op::Load { addr: a }),
                1 | 4 => ops.push(Op::LoadAsync { addr: a }),
                2 => {
                    let mut data = [0u8; 32];
                    for (j, b) in data.iter_mut().enumerate() {
                        *b = (i as u8).wrapping_mul(7).wrapping_add(w as u8 ^ j as u8);
                    }
                    ops.push(Op::Store {
                        addr: a + (i + w) % 4 * 32,
                        data,
                    });
                }
                _ => ops.push(Op::Compute { cycles: 2 }),
            }
        }
        ops.push(Op::Exit);
        Box::new(VecStream::new(ops))
    }

    fn line_data(&self, addr: latte_cache::LineAddr) -> latte_compress::CacheLine {
        MixedKernel.line_data(addr)
    }
}

/// Warps per SM for [`UnevenKernel`]: SM 1 launches none, and the
/// warp-count-balanced assignment splits the five SMs into
/// non-contiguous shards at every thread count from 2 to 4 (for
/// example `{0, 2}` and `{1, 3, 4}` at 2 threads).
const UNEVEN_WARPS: [usize; 5] = [6, 0, 3, 8, 1];

/// [`MixedKernel`]'s programs with a load that varies by SM, including
/// an SM with no warps at all.
#[derive(Clone)]
struct UnevenKernel;

impl Kernel for UnevenKernel {
    fn name(&self) -> &str {
        "uneven-test"
    }

    fn warps_on_sm(&self, sm: usize) -> usize {
        UNEVEN_WARPS[sm % UNEVEN_WARPS.len()]
    }

    fn warp_program(&self, sm: usize, warp: usize) -> Box<dyn OpStream> {
        MixedKernel.warp_program(sm, warp)
    }

    fn line_data(&self, addr: latte_cache::LineAddr) -> latte_compress::CacheLine {
        MixedKernel.line_data(addr)
    }
}

/// [`MixedKernel`], except that SM `sm`'s warps panic on their first
/// op. Warp programs are built at launch, on the calling thread; ops are
/// drawn while the SM steps, so the panic fires inside the SM's shard.
struct PanickingKernel {
    sm: usize,
}

impl Kernel for PanickingKernel {
    fn name(&self) -> &str {
        "panicking-test"
    }

    fn warps_on_sm(&self, sm: usize) -> usize {
        MixedKernel.warps_on_sm(sm)
    }

    fn warp_program(&self, sm: usize, warp: usize) -> Box<dyn OpStream> {
        if sm == self.sm {
            Box::new(PanickingStream)
        } else {
            MixedKernel.warp_program(sm, warp)
        }
    }

    fn line_data(&self, addr: latte_cache::LineAddr) -> latte_compress::CacheLine {
        MixedKernel.line_data(addr)
    }
}

/// An op stream that panics when the SM draws from it.
struct PanickingStream;

impl OpStream for PanickingStream {
    fn next_op(&mut self) -> Op {
        panic!("planted next_op failure");
    }
}

/// Every thread count the suite checks: one shard, then 3+2, 2+2+1 and
/// 2+1+1+1 splits of the five SMs.
const THREADS: std::ops::RangeInclusive<usize> = 1..=4;

fn digest(text: &str) -> u128 {
    let mut fp = Fingerprinter::new();
    fp.write_str(text);
    fp.finish()
}

fn run_with_threads(
    config: &GpuConfig,
    threads: usize,
    fixed_policy: bool,
    kernels: &[&dyn Kernel],
) -> (Vec<KernelStats>, f64) {
    let config = GpuConfig {
        sim_threads: threads,
        ..config.clone()
    };
    let mut gpu = Gpu::new(&config, |_| {
        if fixed_policy {
            Box::new(FixedPolicy) as Box<dyn L1CompressionPolicy>
        } else {
            Box::new(UncompressedPolicy) as Box<dyn L1CompressionPolicy>
        }
    });
    let stats = run_conserving(&mut gpu, kernels);
    let capacity = gpu.l1_effective_capacity_ratio();
    let epochs = gpu.take_epoch_stats();
    if threads > 1 {
        assert!(epochs.epochs > 0, "sharded run must record epochs");
        assert!(epochs.advanced_cycles > 0);
    } else {
        assert_eq!(
            epochs,
            EpochStats::default(),
            "a one-shard run has no barrier"
        );
    }
    (stats, capacity)
}

/// Runs each kernel and checks the conservation laws that hold whatever
/// the thread count: every L2 miss is one DRAM access, and a kernel that
/// ran to completion leaves no MSHR entry or waiting warp behind.
fn run_conserving(gpu: &mut Gpu, kernels: &[&dyn Kernel]) -> Vec<KernelStats> {
    kernels
        .iter()
        .map(|kernel| {
            let stats = gpu.run_kernel(*kernel);
            assert_eq!(
                stats.dram_accesses,
                stats.l2.misses,
                "{}: each L2 miss is one DRAM access",
                kernel.name()
            );
            if stats.termination == TerminationReason::Completed {
                assert_eq!(
                    gpu.outstanding_misses(),
                    (0, 0),
                    "{}: a completed kernel leaves no miss outstanding",
                    kernel.name()
                );
            }
            stats
        })
        .collect()
}

/// The digest of one run's output: every kernel's statistics and the
/// final effective L1 capacity.
fn run_digest(
    config: &GpuConfig,
    threads: usize,
    fixed_policy: bool,
    kernels: &[&dyn Kernel],
) -> (u128, Vec<KernelStats>) {
    let (stats, capacity) = run_with_threads(config, threads, fixed_policy, kernels);
    (digest(&format!("{stats:?}\n{capacity:?}")), stats)
}

/// Runs the scenario at every thread count in [`THREADS`] and checks
/// each run's [`run_digest`] against `pinned`, which was recorded from
/// the original single-threaded cycle loop. Returns the one-thread
/// run's statistics for the scenario's own sanity checks.
fn assert_pinned(
    label: &str,
    config: &GpuConfig,
    fixed_policy: bool,
    kernels: &[&dyn Kernel],
    pinned: u128,
) -> Vec<KernelStats> {
    let mut first = None;
    for threads in THREADS {
        let (actual, stats) = run_digest(config, threads, fixed_policy, kernels);
        assert_eq!(
            actual, pinned,
            "{label} at sim_threads={threads}: digest {actual:#034x} is not the pinned one"
        );
        first.get_or_insert(stats);
    }
    first.expect("THREADS is not empty")
}

#[test]
fn strided_kernel_is_identical_across_thread_counts() {
    let strided = StridedKernel::new(12, 300, 512);
    assert_pinned(
        "strided/uncompressed",
        &config(),
        false,
        &[&strided],
        0x2f1719d55a0fe20f6efec64183485dcf,
    );
    assert_pinned(
        "strided/fixed",
        &config(),
        true,
        &[&strided],
        0xe27b58fa52ba63df7394e00c8d9ca0ca,
    );
}

#[test]
fn hotset_kernel_is_identical_across_thread_counts() {
    let hotset = HotsetKernel::new(16, 200, 4);
    assert_pinned(
        "hotset/uncompressed",
        &config(),
        false,
        &[&hotset],
        0x2a1e1753a9519d298904c10d4c5f2892,
    );
    assert_pinned(
        "hotset/fixed",
        &config(),
        true,
        &[&hotset],
        0x1e58ed7d6311fa4179999521055a4780,
    );
}

#[test]
fn store_and_barrier_traffic_is_identical() {
    assert_pinned(
        "mixed/uncompressed",
        &config(),
        false,
        &[&MixedKernel],
        0xfaf5f2781bccb8c05c7deba1c7bddd09,
    );
    assert_pinned(
        "mixed/fixed",
        &config(),
        true,
        &[&MixedKernel],
        0x98db95f32afa05b45aa366e445e6e902,
    );
    // Write-allocate adds background fetch events on store misses.
    let wa = GpuConfig {
        write_allocate: true,
        ..config()
    };
    assert_pinned(
        "mixed/write-allocate",
        &wa,
        false,
        &[&MixedKernel],
        0x3ca8644130d753ea863910b657a7eac5,
    );
}

#[test]
fn mshr_stall_replays_are_identical() {
    // Two MSHR entries of two merges each: loads, async loads and
    // write-back stores replay while the MSHR is full, under both
    // schedulers and both store paths.
    for (write_back, scheduler, pinned) in [
        (
            false,
            SchedulerKind::Gto,
            0x4fc47f0537f2e9ea14edd629779897fb_u128,
        ),
        (
            false,
            SchedulerKind::Lrr,
            0xa9eee6a0291b8a9e35d5b864edb9218d,
        ),
        (true, SchedulerKind::Gto, 0xaaa1b5856700dd69439bf4d3c5a5d898),
        (true, SchedulerKind::Lrr, 0xb314429274b492c56604463d1966bdd6),
    ] {
        let cfg = GpuConfig {
            mshr_entries: 2,
            mshr_merges: 2,
            write_back,
            scheduler,
            ..config()
        };
        let label = format!("mshr-stall/write-back={write_back}/{scheduler:?}");
        let stats = assert_pinned(&label, &cfg, true, &[&MshrStallKernel], pinned);
        assert_eq!(stats[0].termination, TerminationReason::Completed);
        let loads = stats[0].loads;
        assert!(
            stats[0].mshr_stalls > loads,
            "{label}: {} stalls for {loads} loads is not stall-heavy",
            stats[0].mshr_stalls
        );
    }
}

#[test]
fn multi_kernel_runs_preserve_policy_state_identically() {
    let strided = StridedKernel::new(8, 200, 256);
    let hotset = HotsetKernel::new(8, 150, 8);
    assert_pinned(
        "multi-kernel",
        &config(),
        true,
        &[&strided, &hotset, &MixedKernel],
        0x7b0b6298fdbae0bbd549f18f365daf46,
    );
}

#[test]
fn fault_injection_families_are_identical() {
    let strided = StridedKernel::new(10, 250, 384);
    let kernels: [&dyn Kernel; 2] = [&strided, &MixedKernel];
    let families = [
        (
            "bitflips",
            FaultConfig::bitflips(7, 2e-3),
            0xca67142fbe7437cfbabd17459de8d2d4,
        ),
        (
            "fill-bitflips",
            FaultConfig::fill_bitflips(11, 2e-3),
            0x4aedde2a45cd3dd16f9740d59bec93c6,
        ),
        (
            "latency-spikes",
            FaultConfig {
                latency_spike_rate: 5e-3,
                latency_spike_cycles: 64,
                ..FaultConfig::bitflips(13, 0.0)
            },
            0xf6d15a0e1d4cb6c5ff4187c22f9a24ba,
        ),
        (
            "mshr-exhaust+tag-corruption",
            FaultConfig {
                mshr_exhaust_rate: 5e-3,
                tag_corruption_rate: 2e-3,
                ..FaultConfig::bitflips(17, 1e-3)
            },
            0x4c9cba587fac0f8e3222601b108f8c53,
        ),
        (
            "no-recovery",
            FaultConfig {
                disable_recovery: true,
                ..FaultConfig::bitflips(19, 2e-3)
            },
            0xdd8737526e499dd995d93ff409481bed,
        ),
    ];
    for (label, faults, pinned) in families {
        let cfg = GpuConfig {
            faults: Some(faults),
            ..config()
        };
        assert_pinned(label, &cfg, true, &kernels, pinned);
    }
}

#[test]
fn cycle_limit_termination_is_identical() {
    // A limit mid-run: every thread count must stop at the exact cycle
    // the pinned run did, with the same timed_out/termination fields.
    let strided = StridedKernel::new(12, 300, 512);
    let cfg = GpuConfig {
        max_cycles_per_kernel: 700,
        ..config()
    };
    let stats = assert_pinned(
        "cycle-limit",
        &cfg,
        false,
        &[&strided],
        0x0b52bfa20dbc840d5af877473f8ed97c,
    );
    assert!(stats[0].timed_out, "limit must actually bite");
    assert_eq!(stats[0].termination, TerminationReason::CycleLimit);
}

#[test]
fn deadlock_termination_is_identical() {
    // Wakeup drops at rate 1.0 strand every missing warp: a guaranteed
    // workload deadlock, detected at the same cycle at every thread count.
    let strided = StridedKernel::new(6, 50, 256);
    let cfg = GpuConfig {
        faults: Some(FaultConfig::wakeup_drops(23, 1.0)),
        ..config()
    };
    let stats = assert_pinned(
        "deadlock",
        &cfg,
        false,
        &[&strided],
        0x4c514e487633c7769e85d3db4a4bb866,
    );
    assert!(stats[0].timed_out, "deadlock must actually happen");
    assert_eq!(stats[0].termination, TerminationReason::Deadlock);
}

#[test]
fn uneven_load_with_an_idle_sm_is_identical_at_every_thread_count() {
    let stats = assert_pinned(
        "uneven",
        &config(),
        true,
        &[&UnevenKernel],
        0x14c708a553d4441a4f7198aa147aca68,
    );
    assert!(stats[0].instructions > 0);
    let log = assert_transcript_pinned(
        "uneven/shadow",
        &config(),
        &[&UnevenKernel],
        0x00dea26b837041c7f30f1944bdf237d3,
    );
    assert!(!log.is_empty(), "shadow hook must actually fire");
}

#[test]
fn a_panic_on_any_thread_reaches_the_caller() {
    // At 2 threads SMs {1, 3} run on the coordinator (the calling
    // thread) and {0, 2, 4} on the worker. Either side panicking must
    // unwind out of `run_kernel` rather than leave the other waiting at
    // the barrier.
    let cfg = GpuConfig {
        sim_threads: 2,
        ..config()
    };
    for sm in [0, 1] {
        let mut gpu = Gpu::new(&cfg, |_| {
            Box::new(UncompressedPolicy) as Box<dyn L1CompressionPolicy>
        });
        let kernel = PanickingKernel { sm };
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| gpu.run_kernel(&kernel)));
        assert!(
            outcome.is_err(),
            "a panic simulating SM {sm} must propagate"
        );
    }
}

#[test]
fn oversized_thread_count_clamps_and_stays_identical() {
    let strided = StridedKernel::new(8, 150, 256);
    let pinned = 0x9fd99a5e6e5c494d4d4b487c804ddb73;
    assert_pinned("oversized", &config(), false, &[&strided], pinned);
    let (wide, _) = run_digest(&config(), 64, false, &[&strided]);
    assert_eq!(
        wide, pinned,
        "sim_threads > num_sms must clamp, not diverge"
    );
}

/// Records every shadow call as a rendered line, through a shared handle
/// so the transcript survives the `Gpu` owning the hook.
struct TranscriptShadow(Arc<Mutex<Vec<String>>>);

impl ShadowCheck for TranscriptShadow {
    fn on_fill(
        &mut self,
        sm: usize,
        addr: latte_cache::LineAddr,
        data: &latte_compress::CacheLine,
        cycle: u64,
    ) {
        let byte = data.as_bytes()[0];
        if let Ok(mut log) = self.0.lock() {
            log.push(format!("fill sm={sm} {addr} b0={byte} @{cycle}"));
        }
    }

    fn on_load(
        &mut self,
        sm: usize,
        addr: latte_cache::LineAddr,
        observed: Option<&latte_compress::CacheLine>,
        cycle: u64,
    ) {
        let byte = observed.map(|l| l.as_bytes()[0]);
        if let Ok(mut log) = self.0.lock() {
            log.push(format!("load sm={sm} {addr} b0={byte:?} @{cycle}"));
        }
    }

    fn on_store(
        &mut self,
        sm: usize,
        addr: latte_cache::LineAddr,
        data: &latte_compress::CacheLine,
        cycle: u64,
    ) {
        let byte = data.as_bytes()[0];
        if let Ok(mut log) = self.0.lock() {
            log.push(format!("store sm={sm} {addr} b0={byte} @{cycle}"));
        }
    }

    fn on_checkpoint(
        &mut self,
        sm: usize,
        cycle: u64,
        kind: ShadowCheckpoint,
        structural_errors: &[String],
    ) {
        if let Ok(mut log) = self.0.lock() {
            log.push(format!(
                "checkpoint sm={sm} {kind} errs={} @{cycle}",
                structural_errors.len()
            ));
        }
    }
}

/// Runs `kernels` with [`FixedPolicy`] and a [`TranscriptShadow`]
/// installed; returns the transcript and the summed statistics.
fn shadow_transcript(
    config: &GpuConfig,
    threads: usize,
    kernels: &[&dyn Kernel],
) -> (Vec<String>, KernelStats) {
    let cfg = GpuConfig {
        sim_threads: threads,
        ..config.clone()
    };
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut gpu = Gpu::new(&cfg, |_| {
        Box::new(FixedPolicy) as Box<dyn L1CompressionPolicy>
    });
    gpu.set_shadow_check(
        Box::new(TranscriptShadow(Arc::clone(&log))),
        ShadowConfig::default(),
    );
    let mut total = KernelStats::default();
    for stats in run_conserving(&mut gpu, kernels) {
        total.accumulate(&stats);
    }
    let transcript = log.lock().map(|l| l.clone()).unwrap_or_default();
    (transcript, total)
}

/// [`assert_pinned`] for a shadow-checked run: the digest covers the
/// whole shadow call transcript, in call order, plus the summed
/// statistics. Returns the one-thread transcript.
fn assert_transcript_pinned(
    label: &str,
    config: &GpuConfig,
    kernels: &[&dyn Kernel],
    pinned: u128,
) -> Vec<String> {
    let mut first = None;
    for threads in THREADS {
        let (log, stats) = shadow_transcript(config, threads, kernels);
        let actual = digest(&format!("{}\n{stats:?}", log.join("\n")));
        assert_eq!(
            actual, pinned,
            "{label} at sim_threads={threads}: transcript digest {actual:#034x} is not the pinned one"
        );
        first.get_or_insert(log);
    }
    first.expect("THREADS is not empty")
}

#[test]
fn shadow_call_stream_is_identical_across_thread_counts() {
    let strided = StridedKernel::new(10, 260, 320);
    let log = assert_transcript_pinned(
        "shadow",
        &config(),
        &[&strided, &MixedKernel],
        0x2b61bb6014672eec599aff29e1e734f6,
    );
    assert!(!log.is_empty(), "shadow hook must actually fire");
}

#[test]
fn shadow_call_stream_is_identical_under_fault_injection() {
    let strided = StridedKernel::new(10, 260, 320);
    let cfg = GpuConfig {
        faults: Some(FaultConfig {
            fill_bitflip_rate: 2e-3,
            ..FaultConfig::bitflips(29, 2e-3)
        }),
        ..config()
    };
    assert_transcript_pinned(
        "shadow/faults",
        &cfg,
        &[&strided, &MixedKernel],
        0x6c4bd7216eec46590482ac93abc42720,
    );
}

#[test]
fn shadow_call_stream_is_identical_with_write_back() {
    let strided = StridedKernel::new(10, 260, 320);
    let cfg = GpuConfig {
        write_back: true,
        ..config()
    };
    let log = assert_transcript_pinned(
        "shadow/write-back",
        &cfg,
        &[&strided, &MixedKernel],
        0xc68b7739b2079066d84cb4e252ec5876,
    );
    assert!(
        log.iter().any(|l| l.starts_with("store ")),
        "write-back runs must emit store shadow calls"
    );
}

#[test]
fn write_back_traffic_is_identical() {
    // Clean write-back: dirty evictions, write-allocate pending-store
    // merges and the kernel-end flush all cross the epoch barrier.
    let wb = GpuConfig {
        write_back: true,
        ..config()
    };
    assert_pinned(
        "write-back/uncompressed",
        &wb,
        false,
        &[&MixedKernel],
        0xa7b80ea5b8a02c26ddc29789193cc7ba,
    );
    let stats = assert_pinned(
        "write-back/fixed",
        &wb,
        true,
        &[&MixedKernel],
        0xda7c21927cc3bc9635b81de544c97923,
    );
    assert!(
        stats[0].writebacks > 0,
        "dirty lines must actually write back"
    );
}

#[test]
fn tail_store_write_allocate_fills_outlive_all_warps() {
    // Pins the shard-done condition: at warp exit the last stores'
    // write-allocate fills are still in flight with no blocked warp
    // behind them, so only the buffered/enqueued fill traffic keeps
    // the run alive.
    let wb = GpuConfig {
        write_back: true,
        ..config()
    };
    assert_pinned(
        "tail-store/uncompressed",
        &wb,
        false,
        &[&TailStoreKernel],
        0x06c4359a20fea1f74bf9a99052cae309,
    );
    let stats = assert_pinned(
        "tail-store/fixed",
        &wb,
        true,
        &[&TailStoreKernel],
        0x58f99e04939968240a49b570dd5b412c,
    );
    assert!(
        stats[0].writebacks > 0,
        "the tail stores' dirty lines must flush at kernel end"
    );
}

#[test]
fn write_back_fault_injection_is_identical() {
    // --inject-writeback: outbound write-back parity faults (stats-only
    // retries) plus the wider bitflip family for cross-fire coverage.
    let inj = GpuConfig {
        write_back: true,
        faults: Some(FaultConfig {
            writeback_fault_rate: 5e-2,
            ..FaultConfig::bitflips(31, 1e-3)
        }),
        ..config()
    };
    let stats = assert_pinned(
        "write-back-faults",
        &inj,
        true,
        &[&WritePressureKernel],
        0xaaebd65712c4dc44d72e430e02fe97e9,
    );
    assert!(
        stats[0].faults.writeback_faults > 0,
        "write-back faults must actually fire at this rate"
    );
    assert_eq!(
        stats[0].faults.writeback_retry_cycles,
        stats[0].faults.writeback_faults * inj.l2_latency,
        "each write-back fault costs exactly one retry round trip"
    );
    // The planted drop-dirty-write-backs mutation must also be
    // thread-count invariant (the oracle flags it either way).
    let dropped = GpuConfig {
        write_back: true,
        faults: Some(FaultConfig {
            drop_writebacks: true,
            ..FaultConfig::default()
        }),
        ..config()
    };
    let stats = assert_pinned(
        "dropped-write-backs",
        &dropped,
        true,
        &[&MixedKernel],
        0x83e08ac43f70373355c9a0e147de6999,
    );
    assert!(stats[0].faults.writebacks_dropped > 0);
    assert_eq!(
        stats[0].writebacks, 0,
        "dropped write-backs never count as sent"
    );
}

#[test]
fn write_back_deadlock_termination_is_identical() {
    let strided = StridedKernel::new(6, 50, 256);
    let cfg = GpuConfig {
        write_back: true,
        faults: Some(FaultConfig {
            wakeup_drop_rate: 1.0,
            ..FaultConfig::wakeup_drops(41, 1.0)
        }),
        ..config()
    };
    let stats = assert_pinned(
        "write-back-deadlock",
        &cfg,
        false,
        &[&strided, &MixedKernel],
        0x172483ca41f36f6c93db2c5796a62939,
    );
    assert!(
        stats.iter().any(|s| s.timed_out),
        "deadlock must actually happen"
    );
}

/// Δ = min(L2, DRAM latency) = 0: a completion is due the cycle its
/// request issues and is delivered the cycle after, so no two cycles
/// are independent and every epoch is one cycle long.
fn zero_latency() -> GpuConfig {
    GpuConfig {
        l2_latency: 0,
        dram_latency: 0,
        ..config()
    }
}

#[test]
fn zero_latency_memory_is_identical_at_every_thread_count() {
    let strided = StridedKernel::new(10, 250, 384);
    let kernels: [&dyn Kernel; 2] = [&strided, &MixedKernel];
    assert_pinned(
        "zero-latency",
        &zero_latency(),
        true,
        &kernels,
        0xa594acdd7bcdc9ec346714c19cf4d8bc,
    );
    // Latency spikes make completions due at different cycles arrive
    // together, and write-back sends dirty victims to the L2 while they
    // are delivered: the delivery order must still be the pinned one.
    let wb = GpuConfig {
        write_back: true,
        faults: Some(FaultConfig {
            latency_spike_rate: 2e-2,
            latency_spike_cycles: 3,
            fill_bitflip_rate: 2e-3,
            ..FaultConfig::bitflips(37, 1e-3)
        }),
        ..zero_latency()
    };
    let kernels: [&dyn Kernel; 2] = [&WritePressureKernel, &MixedKernel];
    let stats = assert_pinned(
        "zero-latency/write-back",
        &wb,
        true,
        &kernels,
        0xbad0d2b6303dfb840f6426f8cb004e6b,
    );
    assert!(stats[0].faults.latency_spikes > 0 && stats[0].writebacks > 0);
    assert_transcript_pinned(
        "zero-latency/shadow",
        &wb,
        &kernels,
        0x8c1c5996e987249b4de4cc08673e9b77,
    );
}

#[test]
fn epoch_stats_account_for_the_whole_run() {
    let cfg = GpuConfig {
        sim_threads: 2,
        ..config()
    };
    let strided = StridedKernel::new(8, 200, 256);
    let mut gpu = Gpu::new(&cfg, |_| {
        Box::new(UncompressedPolicy) as Box<dyn L1CompressionPolicy>
    });
    let stats = gpu.run_kernel(&strided);
    let epochs = gpu.take_epoch_stats();
    assert!(epochs.epochs > 0);
    assert_eq!(
        epochs.advanced_cycles, stats.cycles,
        "epoch advances must cover exactly the simulated cycles"
    );
    assert!(epochs.max_epoch_cycles > 0);
    assert!(epochs.mean_epoch_cycles() > 0.0);
    assert_eq!(epochs.shards, 2);
    // take_epoch_stats drains.
    assert_eq!(gpu.take_epoch_stats(), EpochStats::default());
}
