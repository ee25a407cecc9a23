//! Serial vs `sim_threads > 1` byte-identity: the epoch-barrier parallel
//! loop must reproduce the serial loop's results *exactly* — every
//! counter, cycle count, trace entry, fault tally, termination reason and
//! shadow-hook call — across kernels, policies, fault families and
//! termination paths. These tests are the core guarantee that lets
//! `sim_threads` stay outside the config fingerprint.

use std::sync::{Arc, Mutex};

use latte_compress::{Compression, CompressionAlgo};
use latte_gpusim::testing::{HotsetKernel, StridedKernel};
use latte_gpusim::{
    FaultConfig, Gpu, GpuConfig, Kernel, KernelStats, L1CompressionPolicy, Op, OpStream,
    ShadowCheck, ShadowCheckpoint, ShadowConfig, TerminationReason, UncompressedPolicy,
    VecStream,
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
/// The serial loop keeps running until the fill's completion event
/// drains from the global heap; the parallel loop's shard-done
/// condition must count the buffered fill request as pending work or
/// it declares the kernel over early — cycles, write-backs and the
/// shadow transcript all diverge.
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
    let stats = gpu.run_kernels(kernels.iter().copied());
    let capacity = gpu.l1_effective_capacity_ratio();
    if threads > 1 {
        let epochs = gpu.take_epoch_stats();
        assert!(epochs.epochs > 0, "parallel run must record epochs");
        assert!(epochs.advanced_cycles > 0);
    }
    (stats, capacity)
}

fn assert_identical(config: &GpuConfig, fixed_policy: bool, kernels: &[&dyn Kernel]) {
    let (serial, serial_cap) = run_with_threads(config, 1, fixed_policy, kernels);
    for threads in [2, 4] {
        let (parallel, parallel_cap) = run_with_threads(config, threads, fixed_policy, kernels);
        assert_eq!(
            serial, parallel,
            "sim_threads={threads} must be byte-identical to serial"
        );
        assert!(
            (serial_cap - parallel_cap).abs() < f64::EPSILON,
            "effective capacity must match at sim_threads={threads}"
        );
    }
}

#[test]
fn strided_kernel_is_identical_across_thread_counts() {
    let strided = StridedKernel::new(12, 300, 512);
    assert_identical(&config(), false, &[&strided]);
    assert_identical(&config(), true, &[&strided]);
}

#[test]
fn hotset_kernel_is_identical_across_thread_counts() {
    let hotset = HotsetKernel::new(16, 200, 4);
    assert_identical(&config(), false, &[&hotset]);
    assert_identical(&config(), true, &[&hotset]);
}

#[test]
fn store_and_barrier_traffic_is_identical() {
    assert_identical(&config(), false, &[&MixedKernel]);
    assert_identical(&config(), true, &[&MixedKernel]);
    // Write-allocate adds background fetch events on store misses.
    let wa = GpuConfig {
        write_allocate: true,
        ..config()
    };
    assert_identical(&wa, false, &[&MixedKernel]);
}

#[test]
fn multi_kernel_runs_preserve_policy_state_identically() {
    let strided = StridedKernel::new(8, 200, 256);
    let hotset = HotsetKernel::new(8, 150, 8);
    assert_identical(&config(), true, &[&strided, &hotset, &MixedKernel]);
}

#[test]
fn fault_injection_families_are_identical() {
    let strided = StridedKernel::new(10, 250, 384);
    let kernels: [&dyn Kernel; 2] = [&strided, &MixedKernel];
    let families = [
        FaultConfig::bitflips(7, 2e-3),
        FaultConfig::fill_bitflips(11, 2e-3),
        FaultConfig {
            latency_spike_rate: 5e-3,
            latency_spike_cycles: 64,
            ..FaultConfig::bitflips(13, 0.0)
        },
        FaultConfig {
            mshr_exhaust_rate: 5e-3,
            tag_corruption_rate: 2e-3,
            ..FaultConfig::bitflips(17, 1e-3)
        },
        FaultConfig {
            disable_recovery: true,
            ..FaultConfig::bitflips(19, 2e-3)
        },
    ];
    for faults in families {
        let cfg = GpuConfig {
            faults: Some(faults),
            ..config()
        };
        assert_identical(&cfg, true, &kernels);
    }
}

#[test]
fn cycle_limit_termination_is_identical() {
    // A limit mid-run: the parallel endgame must stop at the exact cycle
    // the serial loop would, with the same timed_out/termination fields.
    let strided = StridedKernel::new(12, 300, 512);
    let cfg = GpuConfig {
        max_cycles_per_kernel: 700,
        ..config()
    };
    let (serial, _) = run_with_threads(&cfg, 1, false, &[&strided]);
    assert!(serial[0].timed_out, "limit must actually bite");
    assert_eq!(serial[0].termination, TerminationReason::CycleLimit);
    assert_identical(&cfg, false, &[&strided]);
}

#[test]
fn deadlock_termination_is_identical() {
    // Wakeup drops at rate 1.0 strand every missing warp: a guaranteed
    // workload deadlock, detected at the same cycle in both loops.
    let strided = StridedKernel::new(6, 50, 256);
    let cfg = GpuConfig {
        faults: Some(FaultConfig::wakeup_drops(23, 1.0)),
        ..config()
    };
    let (serial, _) = run_with_threads(&cfg, 1, false, &[&strided]);
    assert!(serial[0].timed_out, "deadlock must actually happen");
    assert_eq!(serial[0].termination, TerminationReason::Deadlock);
    assert_identical(&cfg, false, &[&strided]);
}

#[test]
fn uneven_load_with_an_idle_sm_is_identical_at_every_thread_count() {
    let (serial, _) = run_with_threads(&config(), 1, true, &[&UnevenKernel]);
    assert!(serial[0].instructions > 0);
    for threads in [2, 3, 4] {
        let (parallel, _) = run_with_threads(&config(), threads, true, &[&UnevenKernel]);
        assert_eq!(
            serial, parallel,
            "uneven load at sim_threads={threads} must be byte-identical to serial"
        );
    }
    let (serial_log, serial_stats) = shadow_transcript_of(1, None, false, &[&UnevenKernel]);
    assert!(!serial_log.is_empty(), "shadow hook must actually fire");
    for threads in [2, 3, 4] {
        let (par_log, par_stats) = shadow_transcript_of(threads, None, false, &[&UnevenKernel]);
        assert_eq!(serial_stats, par_stats);
        assert_eq!(
            serial_log, par_log,
            "uneven-load shadow replay at sim_threads={threads} must keep the serial order"
        );
    }
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
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gpu.run_kernel(&kernel)
        }));
        assert!(outcome.is_err(), "a panic simulating SM {sm} must propagate");
    }
}

#[test]
fn oversized_thread_count_clamps_and_stays_identical() {
    let strided = StridedKernel::new(8, 150, 256);
    let (serial, _) = run_with_threads(&config(), 1, false, &[&strided]);
    let (wide, _) = run_with_threads(&config(), 64, false, &[&strided]);
    assert_eq!(serial, wide, "sim_threads > num_sms must clamp, not diverge");
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

fn shadow_transcript(
    threads: usize,
    faults: Option<FaultConfig>,
    write_back: bool,
) -> (Vec<String>, KernelStats) {
    let strided = StridedKernel::new(10, 260, 320);
    shadow_transcript_of(threads, faults, write_back, &[&strided, &MixedKernel])
}

fn shadow_transcript_of(
    threads: usize,
    faults: Option<FaultConfig>,
    write_back: bool,
    kernels: &[&dyn Kernel],
) -> (Vec<String>, KernelStats) {
    let cfg = GpuConfig {
        sim_threads: threads,
        faults,
        write_back,
        ..config()
    };
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut gpu = Gpu::new(&cfg, |_| Box::new(FixedPolicy) as Box<dyn L1CompressionPolicy>);
    gpu.set_shadow_check(
        Box::new(TranscriptShadow(Arc::clone(&log))),
        ShadowConfig::default(),
    );
    let mut total = KernelStats::default();
    for stats in gpu.run_kernels(kernels.iter().copied()) {
        total.accumulate(&stats);
    }
    let transcript = log.lock().map(|l| l.clone()).unwrap_or_default();
    (transcript, total)
}

#[test]
fn shadow_call_stream_is_identical_across_thread_counts() {
    let (serial_log, serial_stats) = shadow_transcript(1, None, false);
    assert!(!serial_log.is_empty(), "shadow hook must actually fire");
    for threads in [2, 4] {
        let (par_log, par_stats) = shadow_transcript(threads, None, false);
        assert_eq!(serial_stats, par_stats);
        assert_eq!(
            serial_log, par_log,
            "shadow replay at sim_threads={threads} must reproduce the serial call order"
        );
    }
}

#[test]
fn shadow_call_stream_is_identical_under_fault_injection() {
    let faults = Some(FaultConfig {
        fill_bitflip_rate: 2e-3,
        ..FaultConfig::bitflips(29, 2e-3)
    });
    let (serial_log, serial_stats) = shadow_transcript(1, faults, false);
    let (par_log, par_stats) = shadow_transcript(4, faults, false);
    assert_eq!(serial_stats, par_stats);
    assert_eq!(serial_log, par_log);
}

#[test]
fn shadow_call_stream_is_identical_with_write_back() {
    let (serial_log, serial_stats) = shadow_transcript(1, None, true);
    assert!(
        serial_log.iter().any(|l| l.starts_with("store ")),
        "write-back runs must emit store shadow calls"
    );
    for threads in [2, 4] {
        let (par_log, par_stats) = shadow_transcript(threads, None, true);
        assert_eq!(serial_stats, par_stats);
        assert_eq!(
            serial_log, par_log,
            "store shadow replay at sim_threads={threads} must reproduce the serial order"
        );
    }
}

#[test]
fn write_back_traffic_is_identical() {
    // Clean write-back: dirty evictions, write-allocate pending-store
    // merges and the kernel-end flush all cross the epoch barrier.
    let wb = GpuConfig {
        write_back: true,
        ..config()
    };
    assert_identical(&wb, false, &[&MixedKernel]);
    assert_identical(&wb, true, &[&MixedKernel]);
    let (serial, _) = run_with_threads(&wb, 1, true, &[&MixedKernel]);
    assert!(serial[0].writebacks > 0, "dirty lines must actually write back");
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
    assert_identical(&wb, false, &[&TailStoreKernel]);
    assert_identical(&wb, true, &[&TailStoreKernel]);
    let (serial, _) = run_with_threads(&wb, 1, true, &[&TailStoreKernel]);
    assert!(
        serial[0].writebacks > 0,
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
    assert_identical(&inj, true, &[&WritePressureKernel]);
    let (serial, _) = run_with_threads(&inj, 1, true, &[&WritePressureKernel]);
    assert!(
        serial[0].faults.writeback_faults > 0,
        "write-back faults must actually fire at this rate"
    );
    assert_eq!(
        serial[0].faults.writeback_retry_cycles,
        serial[0].faults.writeback_faults * inj.l2_latency,
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
    assert_identical(&dropped, true, &[&MixedKernel]);
    let (serial, _) = run_with_threads(&dropped, 1, true, &[&MixedKernel]);
    assert!(serial[0].faults.writebacks_dropped > 0);
    assert_eq!(serial[0].writebacks, 0, "dropped write-backs never count as sent");
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
    let (serial, _) = run_with_threads(&cfg, 1, false, &[&strided, &MixedKernel]);
    assert!(serial.iter().any(|s| s.timed_out), "deadlock must actually happen");
    assert_identical(&cfg, false, &[&strided, &MixedKernel]);
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
    assert_eq!(gpu.take_epoch_stats(), latte_gpusim::EpochStats::default());
}
