//! Warp pools that do not split evenly across the SM's schedulers: one
//! warp on two schedulers (the second owns nothing) and five warps on two
//! (three and two). Each scheduler's readiness table is indexed by slot,
//! so any mistake in the warp → (scheduler, slot) mapping shows up here
//! as a different simulation. The digests pin every `KernelStats` field,
//! EP trace included (its latency tolerance is the scheduler probe), and
//! must only change together with a deliberate model change.

use latte_compress::{CacheLine, Compression, CompressionAlgo};
use latte_gpusim::{
    Fingerprinter, Gpu, GpuConfig, Kernel, KernelStats, L1CompressionPolicy, Op, OpStream,
    SchedulerKind, VecStream,
};

/// Compresses every fill with BDI at a quarter line, so hits queue at
/// the decompressor and warps wait on hit data as well as on misses.
struct QuarterBdi;

impl L1CompressionPolicy for QuarterBdi {
    fn name(&self) -> &'static str {
        "QuarterBdi"
    }

    fn compress_fill(&mut self, _set: usize, _line: &CacheLine) -> (CompressionAlgo, Compression) {
        (CompressionAlgo::Bdi, Compression::new(32))
    }
}

/// `warps` warps per SM mixing blocking and async loads, stores, compute
/// and block barriers; warp `w` runs `40 + 7w` iterations over a small shared working set, so the warps
/// of one block reach their barriers and exits at different times.
struct PoolKernel {
    warps: usize,
}

impl Kernel for PoolKernel {
    fn name(&self) -> &str {
        "uneven-pool-test"
    }

    fn warps_on_sm(&self, _sm: usize) -> usize {
        self.warps
    }

    fn warp_program(&self, sm: usize, warp: usize) -> Box<dyn OpStream> {
        let line = |i: u64| ((sm as u64) << 20 | i) * CacheLine::SIZE_BYTES as u64;
        let w = warp as u64;
        let mut ops = Vec::new();
        for i in 0..40 + 7 * w {
            let addr = line((i * 5 + w * 3) % 24);
            ops.push(match i % 4 {
                0 => Op::Load { addr },
                1 => Op::LoadAsync { addr },
                2 => Op::Store {
                    addr: addr + (i % 4) * 32,
                    data: [(i as u8).wrapping_add(warp as u8); 32],
                },
                _ => Op::Compute {
                    cycles: (1 + (i + w) % 5) as u32,
                },
            });
            if i % 3 == 2 {
                ops.push(Op::LoadAsync {
                    addr: line(100 + (i + w) % 40),
                });
            }
            if i % 9 == 4 {
                ops.push(Op::Barrier);
            }
        }
        Box::new(VecStream::new(ops))
    }

    fn line_data(&self, addr: latte_cache::LineAddr) -> CacheLine {
        let words: Vec<u32> = (0..32)
            .map(|i| 0x4000_0000 + (addr.line_number() as u32).wrapping_mul(17) + i)
            .collect();
        CacheLine::from_u32_words(&words)
    }
}

fn config(scheduler: SchedulerKind, write_back: bool, sim_threads: usize) -> GpuConfig {
    GpuConfig {
        num_sms: 2,
        warps_per_block: 4,
        schedulers_per_sm: 2,
        scheduler,
        ep_accesses: 16,
        record_traces: true,
        write_back,
        sim_threads,
        ..GpuConfig::small()
    }
}

fn run(warps: usize, config: &GpuConfig) -> KernelStats {
    let mut gpu = Gpu::new(config, |_| {
        Box::new(QuarterBdi) as Box<dyn L1CompressionPolicy>
    });
    gpu.run_kernel(&PoolKernel { warps })
}

fn digest(stats: &KernelStats) -> u128 {
    let mut fp = Fingerprinter::new();
    fp.write_str(&format!("{stats:?}"));
    fp.finish()
}

/// `(warps per SM, scheduler, write-back, KernelStats digest)`.
const PINNED: &[(usize, &str, bool, u128)] = &[
    (1, "Gto", false, 0x048ee94e945c096deae7ac7aaaa9b0b0),
    (1, "Gto", true, 0x11b1da0a7fd06bcbbb9afef0a1333249),
    (1, "Lrr", false, 0xd13979c5dac158abdd92e43f15118852),
    (1, "Lrr", true, 0x6ef8772c2481daee74c4349d32aeefbc),
    (5, "Gto", false, 0x69fd9f8625ddbbf30f09a0c5bd6691b9),
    (5, "Gto", true, 0xf11b39ccab7e7854e2fad42feb0c25f9),
    (5, "Lrr", false, 0x5d6231dcb39f32c13211c58233767567),
    (5, "Lrr", true, 0x0ecf0bcbcc05dc0a8840e34aedea1b9f),
];

#[test]
fn uneven_pools_match_pinned_digests() {
    let mut actual = Vec::new();
    for warps in [1, 5] {
        for kind in [SchedulerKind::Gto, SchedulerKind::Lrr] {
            for write_back in [false, true] {
                let stats = run(warps, &config(kind, write_back, 1));
                assert!(!stats.timed_out, "{warps} warps, {kind:?}: {stats:?}");
                assert!(stats.eps_completed > 0 && stats.l1.hits > 0);
                assert_eq!(
                    stats,
                    run(warps, &config(kind, write_back, 2)),
                    "{warps} warps, {kind:?}: sharded run differs from serial"
                );
                let name = match kind {
                    SchedulerKind::Gto => "Gto",
                    SchedulerKind::Lrr => "Lrr",
                };
                actual.push((warps, name, write_back, digest(&stats)));
            }
        }
    }
    let listing: String = actual
        .iter()
        .map(|(warps, kind, wb, d)| format!("    ({warps}, {kind:?}, {wb}, {d:#034x}),\n"))
        .collect();
    assert_eq!(
        actual, PINNED,
        "uneven-pool simulations drifted; now:\n{listing}"
    );
}
