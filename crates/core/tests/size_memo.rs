//! The fill-size memo is invisible to simulation: a keyed fill returns
//! exactly what the unkeyed `compress_fill` of the same bytes returns,
//! across kernels, SC codebook swaps and a footprint beyond the cap. It
//! only saves host work: refills skip `line_data` and the probe.

use latte_cache::{CacheGeometry, LineAddr};
use latte_compress::{Bdi, CacheLine, Compression, CompressionAlgo, Compressor};
use latte_core::{AssistWarp, LatteCc, LatteConfig, SizeMemo, StaticBdi, StaticBpc, StaticSc};
use latte_gpusim::testing::StridedKernel;
use latte_gpusim::{
    EpProbe, FillLine, Gpu, GpuConfig, Kernel, L1CompressionPolicy, OpStream, UncompressedPolicy,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// The pristine bytes of `addr` in kernel `kernel`: a mix of
/// BDI-friendly, SC-friendly and incompressible lines, all different
/// from one kernel to the next.
fn pristine(kernel: u32, addr: u64) -> CacheLine {
    let a = addr as u32;
    let words: Vec<u32> = (0..32u32)
        .map(|i| match addr % 4 {
            0 => 0x1000_0000 + kernel * 0x100 + a * 32 + i,
            1 => [0x3fc0_0000, 0xc050_0000, 0, 0x4120_0000][((a + i + kernel) % 4) as usize],
            2 => a.wrapping_mul(0x9e37_79b9) ^ i.wrapping_mul(0x85eb_ca6b) ^ kernel,
            _ => kernel * 1000 + (a + i) % 6,
        })
        .collect();
    CacheLine::from_u32_words(&words)
}

/// Builds a fresh policy.
type MakePolicy = fn() -> Box<dyn L1CompressionPolicy>;

fn every_policy() -> Vec<(&'static str, MakePolicy)> {
    vec![
        ("LATTE-CC", || Box::new(LatteCc::new(short_period()))),
        ("LATTE-CC-4mode", || {
            Box::new(LatteCc::new(LatteConfig {
                options: vec![
                    CompressionAlgo::None,
                    CompressionAlgo::Bdi,
                    CompressionAlgo::Bpc,
                    CompressionAlgo::Sc,
                ],
                ..short_period()
            }))
        }),
        ("Adaptive-CMP", || {
            Box::new(LatteCc::adaptive_cmp(short_period()))
        }),
        ("Static-BDI", || Box::new(StaticBdi::new())),
        ("Static-BPC", || Box::new(StaticBpc::new())),
        ("Static-SC", || Box::new(StaticSc::with_period(3))),
        ("Assist-Warp", || Box::new(AssistWarp::new())),
        ("Baseline", || Box::new(UncompressedPolicy)),
    ]
}

/// A three-EP period, so SC trains, scores and swaps often.
fn short_period() -> LatteConfig {
    LatteConfig {
        eps_per_period: 3,
        ..LatteConfig::paper()
    }
}

fn probe(avail: f64) -> EpProbe {
    EpProbe {
        avg_warps_available: avail,
        avg_exec_cycles_per_schedule: 1.0,
        l1_accesses: 64,
        cycles: 500,
        ..EpProbe::default()
    }
}

#[derive(Debug, Clone)]
enum Event {
    Fill { addr: u64 },
    Ep { avail: f64 },
    KernelBoundary,
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        12 => (0u64..96).prop_map(|addr| Event::Fill { addr }),
        2 => (0.0f64..8.0).prop_map(|avail| Event::Ep { avail }),
        1 => Just(Event::KernelBoundary),
    ]
}

/// Drives `keyed` with keyed fills and `plain` with `compress_fill` of
/// the same bytes, asserting equal answers fill by fill. Returns the
/// number of SC codebook swaps `plain` asked to invalidate for.
fn assert_transparent(
    name: &str,
    keyed: &mut dyn L1CompressionPolicy,
    plain: &mut dyn L1CompressionPolicy,
    events: &[Event],
) -> u64 {
    let mut kernel = 0;
    let mut swaps = 0;
    for (i, ev) in events.iter().enumerate() {
        match ev {
            Event::Fill { addr } => {
                let bytes = pristine(kernel, *addr);
                let set = (*addr % 32) as usize;
                let memoized = keyed
                    .compress_fill_line(set, &mut FillLine::keyed(LineAddr::new(*addr), bytes));
                let probed = plain.compress_fill(set, &bytes);
                assert_eq!(
                    memoized, probed,
                    "{name}: event {i} ({ev:?}) in kernel {kernel}"
                );
            }
            Event::Ep { avail } => {
                keyed.on_ep(&probe(*avail));
                plain.on_ep(&probe(*avail));
                let invalidation = plain.pending_invalidation();
                assert_eq!(
                    keyed.pending_invalidation(),
                    invalidation,
                    "{name}: event {i}"
                );
                swaps += u64::from(invalidation.is_some());
            }
            Event::KernelBoundary => {
                kernel += 1;
                keyed.on_kernel_start();
                plain.on_kernel_start();
            }
        }
    }
    swaps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn keyed_fills_return_what_unkeyed_fills_return(
        events in prop::collection::vec(event(), 1..400)
    ) {
        for (name, make) in every_policy() {
            let (mut keyed, mut plain) = (make(), make());
            assert_transparent(name, keyed.as_mut(), plain.as_mut(), &events);
        }
    }
}

/// A scripted run of the property above that is known to swap SC
/// codebooks several times inside one kernel and to cross kernels.
#[test]
fn transparency_holds_across_codebook_swaps() {
    let mut events = Vec::new();
    for kernel in 0..3 {
        for ep in 0..12u64 {
            // Each EP fills one of two address ranges with different
            // value alphabets, so the SC distribution keeps shifting.
            let base = if ep % 4 < 2 { 0 } else { 48 };
            events.extend((0..40).map(|i| Event::Fill {
                addr: base + (i * 7 + ep) % 48,
            }));
            events.push(Event::Ep {
                avail: (ep % 5) as f64,
            });
        }
        if kernel < 2 {
            events.push(Event::KernelBoundary);
        }
    }
    for (name, make) in every_policy() {
        let (mut keyed, mut plain) = (make(), make());
        let swaps = assert_transparent(name, keyed.as_mut(), plain.as_mut(), &events);
        if name == "Static-SC" || name.starts_with("LATTE-CC") {
            assert!(swaps >= 3, "{name}: only {swaps} codebook swaps");
        }
    }
}

#[test]
fn the_same_address_in_a_new_kernel_is_never_stale() {
    let addr = LineAddr::new(8);
    let (first, second) = (pristine(0, 8), pristine(7, 2));
    let bdi = Bdi::new();
    assert_ne!(
        bdi.probe(&first),
        bdi.probe(&second),
        "the two kernels' bytes size differently"
    );
    for (name, make) in every_policy() {
        let mut policy = make();
        // A follower set of LATTE-CC compresses nothing at first; set 1
        // is its BDI sampling set.
        let a = policy.compress_fill_line(1, &mut FillLine::keyed(addr, first));
        policy.on_kernel_start();
        let b = policy.compress_fill_line(1, &mut FillLine::keyed(addr, second));
        let mut fresh = make();
        fresh.on_kernel_start();
        assert_eq!(
            b,
            fresh.compress_fill(1, &second),
            "{name}: stale size after a kernel boundary"
        );
        if name == "Static-BDI" {
            assert_ne!(a, b);
        }
    }
}

#[test]
fn an_unkeyed_fill_neither_reads_nor_writes_the_memo() {
    let bdi = Bdi::new();
    let mut memo = SizeMemo::new();
    let (kept, other) = (pristine(0, 8), pristine(0, 6));
    assert_ne!(bdi.probe(&kept), bdi.probe(&other));
    let addr = LineAddr::new(8);
    let kept_size = memo.size(
        &mut FillLine::keyed(addr, kept),
        CompressionAlgo::Bdi,
        |l| bdi.probe(l),
    );
    assert_eq!(memo.len(), 1);
    // Unkeyed bytes are sized from themselves, never from the entry.
    let size = memo.size(&mut FillLine::unkeyed(other), CompressionAlgo::Bdi, |l| {
        bdi.probe(l)
    });
    assert_eq!(size, bdi.probe(&other));
    assert_eq!(memo.len(), 1);
    assert_eq!(memo.get(addr, CompressionAlgo::Bdi), Some(kept_size));
    // And they add nothing.
    let mut empty = SizeMemo::new();
    let _ = empty.size(&mut FillLine::unkeyed(kept), CompressionAlgo::Bdi, |l| {
        bdi.probe(l)
    });
    assert!(empty.is_empty());
}

#[test]
fn forgetting_sc_keeps_bdi() {
    let mut memo = SizeMemo::new();
    let addr = LineAddr::new(3);
    let line = pristine(0, 3);
    let bdi = memo.size(
        &mut FillLine::keyed(addr, line),
        CompressionAlgo::Bdi,
        |l| Bdi::new().probe(l),
    );
    let sc = Compression::new(17);
    assert_eq!(
        memo.size(
            &mut FillLine::keyed(addr, line),
            CompressionAlgo::Sc,
            |_| sc
        ),
        sc
    );
    memo.forget(CompressionAlgo::Sc);
    assert_eq!(memo.get(addr, CompressionAlgo::Sc), None);
    assert_eq!(memo.get(addr, CompressionAlgo::Bdi), Some(bdi));
    assert_eq!(
        memo.get(addr, CompressionAlgo::None),
        None,
        "None is never stored"
    );
}

/// A [`StridedKernel`] that counts its `line_data` calls.
struct Counted {
    inner: StridedKernel,
    calls: AtomicU64,
}

impl Counted {
    fn new(inner: StridedKernel) -> Counted {
        Counted {
            inner,
            calls: AtomicU64::new(0),
        }
    }

    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl Kernel for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn warps_on_sm(&self, sm: usize) -> usize {
        self.inner.warps_on_sm(sm)
    }

    fn warp_program(&self, sm: usize, warp: usize) -> Box<dyn OpStream> {
        self.inner.warp_program(sm, warp)
    }

    fn line_data(&self, addr: LineAddr) -> CacheLine {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.line_data(addr)
    }
}

#[test]
fn an_sc_codebook_install_drops_sc_sizes_but_keeps_bdi_sizes() {
    // Paper sampling: set 1 is LATTE-CC's BDI set, set 2 its SC set.
    // `plain` mirrors every call with unkeyed bytes.
    let mut pair = [
        LatteCc::new(LatteConfig::paper()),
        LatteCc::new(LatteConfig::paper()),
    ];
    let kernel = Counted::new(StridedKernel::new(1, 1, 1));
    let addr = LineAddr::new(1);
    let line = kernel.inner.line_data(addr);
    let fill = |[latte, plain]: &mut [LatteCc; 2], set| {
        let got = latte.compress_fill_line(set, &mut FillLine::pristine(&kernel, addr));
        assert_eq!(got, plain.compress_fill(set, &line));
        got
    };
    // EP 0 trains SC: every fill reads its bytes.
    let (_, untrained) = fill(&mut pair, 2);
    let _ = fill(&mut pair, 1);
    assert!(!untrained.is_compressed());
    assert_eq!(kernel.calls(), 2);
    for policy in &mut pair {
        policy.on_ep(&probe(1.0));
        assert_eq!(
            policy.pending_invalidation(),
            Some(CompressionAlgo::Sc),
            "bootstrap install"
        );
    }
    // SC is idle now: the BDI size survived the install, the SC size
    // did not and is re-probed under the new codebook.
    let _ = fill(&mut pair, 1);
    assert_eq!(kernel.calls(), 2, "BDI size kept across the install");
    let (_, trained) = fill(&mut pair, 2);
    assert_eq!(kernel.calls(), 3, "SC size dropped by the install");
    assert!(trained.is_compressed());
}

#[test]
fn a_footprint_beyond_the_cap_stays_within_the_cap() {
    let bdi = Bdi::new();
    let mut memo = SizeMemo::for_l1(&CacheGeometry::paper_l1());
    let cap = memo.cap();
    for round in 0..2 {
        for addr in 0..(3 * cap as u64) {
            let line = pristine(0, addr);
            let size = memo.size(
                &mut FillLine::keyed(LineAddr::new(addr), line),
                CompressionAlgo::Bdi,
                |l| bdi.probe(l),
            );
            assert_eq!(size, bdi.probe(&line), "round {round}, line {addr}");
            assert!(memo.len() <= cap, "{} lines held, cap {cap}", memo.len());
        }
    }
}

/// The saving, counted where the simulator makes bytes: a reuse-heavy
/// kernel whose working set is twice the L1's tags. Every fill made its
/// bytes before the memo; now a compressing policy makes them only on a
/// memo miss, and the baseline never does.
#[test]
fn refills_make_no_bytes() {
    let config = GpuConfig {
        num_sms: 1,
        ..GpuConfig::small()
    };
    let run = |policy: MakePolicy| {
        let kernel = Counted::new(StridedKernel::new(8, 800, 1024));
        let mut gpu = Gpu::new(&config, |_| policy());
        let fills = gpu.run_kernel(&kernel).l1.fills;
        (kernel.calls(), fills)
    };
    let (calls, fills) = run(|| Box::new(UncompressedPolicy));
    assert!(fills > 0);
    assert_eq!(calls, 0, "the baseline never reads fill bytes");
    let (calls, fills) = run(|| Box::new(StaticBdi::new()));
    // Each of the 1024 lines is made once; everything else is a refill.
    assert!(fills > 2 * 1024, "{fills} fills");
    assert_eq!(calls, 1024, "{calls} line_data calls for {fills} fills");
}
