//! Pins every set-sampling policy's simulated output on small synthetic
//! kernels: the five adaptive `PolicyKind`s (LATTE-CC, its BDI+BPC
//! variant, the four-mode extension and the two §V-D baselines) under a
//! plain run, bit-flip injection, the differential oracle and EP trace
//! recording, plus direct `LatteCc` configs exercising `force_mode`,
//! the dedicated-set count and the decision trace, and finally the
//! process-wide `--force-mode`/`--debug-decide` overrides.
//!
//! Each digest covers the `KernelStats` and every SM's `PolicyReport`
//! after each of three back-to-back kernels (so state carried across a
//! kernel boundary counts) and, where shadowed, the oracle's counts with
//! its checkpoints split by kind. A digest may only change together with a
//! deliberate change to a controller's behaviour.

use latte_bench::{set_latte_overrides, LatteOverrides, PolicyKind};
use latte_cache::LineAddr;
use latte_compress::{CacheLine, Cycles};
use latte_core::{CompressionMode, LatteCc, LatteConfig};
use latte_gpusim::{
    FaultConfig, Fingerprinter, Gpu, GpuConfig, Kernel, KernelStats, L1CompressionPolicy, Op,
    OpStream, ShadowCheck, ShadowCheckpoint, ShadowConfig, TraceSink, VecStream,
};
use latte_oracle::MemoryOracle;
use std::sync::{Arc, Mutex};

/// The adaptive policies, in the order their digests are listed.
const ADAPTIVE: [PolicyKind; 5] = [
    PolicyKind::LatteCc,
    PolicyKind::LatteCcBdiBpc,
    PolicyKind::LatteCcMulti,
    PolicyKind::AdaptiveHitCount,
    PolicyKind::AdaptiveCmp,
];

/// One kernel phase: `warps` warps per SM, each streaming over a
/// `footprint`-line working set with a compute burst of up to
/// `compute` cycles between loads. Line values mix three profiles by
/// address (narrow deltas BDI compresses, a few repeated values SC
/// compresses, and noise neither does), so the modes really differ.
struct PhaseKernel {
    name: &'static str,
    warps: usize,
    iters: u64,
    footprint: u64,
    compute: u64,
}

impl Kernel for PhaseKernel {
    fn name(&self) -> &str {
        self.name
    }

    fn warps_on_sm(&self, _sm: usize) -> usize {
        self.warps
    }

    fn warp_program(&self, sm: usize, warp: usize) -> Box<dyn OpStream> {
        let line = |i: u64| ((sm as u64) << 20 | i) * CacheLine::SIZE_BYTES as u64;
        let w = warp as u64;
        let mut ops = Vec::new();
        for i in 0..self.iters {
            let addr = match self.footprint {
                0 => line(1 << 16 | (w * self.iters + i)),
                n => line((i * 7 + w * 13) % n),
            };
            ops.push(if i % 5 == 4 {
                Op::LoadAsync { addr }
            } else {
                Op::Load { addr }
            });
            for _ in 0..(i + w) % (self.compute + 1) {
                ops.push(Op::Compute { cycles: 1 });
            }
        }
        Box::new(VecStream::new(ops))
    }

    fn line_data(&self, addr: LineAddr) -> CacheLine {
        let n = addr.line_number() as u32;
        let words: Vec<u32> = match n % 3 {
            0 => (0..32).map(|i| 0x1000_0000 + n.wrapping_mul(64) + i).collect(),
            1 => (0..32).map(|i| [7, 0, 0xffff_ffff, 42][(i + n as usize) % 4]).collect(),
            _ => (0..32u32)
                .map(|i| (n ^ i.wrapping_mul(0x9e37_79b9)).wrapping_mul(0x85eb_ca6b).rotate_left(i))
                .collect(),
        };
        CacheLine::from_u32_words(&words)
    }
}

/// A streaming phase with no reuse (every mode samples zero hits, so
/// the decision rules meet a tie), a thrashing phase compression helps,
/// then a tolerant phase whose working set fits only when compressed.
fn kernels() -> [PhaseKernel; 3] {
    [
        PhaseKernel {
            name: "stream",
            warps: 8,
            iters: 40,
            footprint: 0,
            compute: 1,
        },
        PhaseKernel {
            name: "thrash",
            warps: 32,
            iters: 80,
            footprint: 200,
            compute: 8,
        },
        PhaseKernel {
            name: "fits",
            warps: 48,
            iters: 60,
            footprint: 150,
            compute: 3,
        },
    ]
}

fn config(record_traces: bool, faults: Option<FaultConfig>) -> GpuConfig {
    GpuConfig {
        num_sms: 2,
        ep_accesses: 32,
        record_traces,
        faults,
        ..GpuConfig::small()
    }
}

/// Forwards to the oracle and counts checkpoints by kind.
struct CountingOracle {
    inner: MemoryOracle,
    counts: Arc<Mutex<[u64; 3]>>,
}

impl ShadowCheck for CountingOracle {
    fn on_fill(&mut self, sm: usize, addr: LineAddr, data: &CacheLine, cycle: Cycles) {
        self.inner.on_fill(sm, addr, data, cycle);
    }

    fn on_load(&mut self, sm: usize, addr: LineAddr, observed: Option<&CacheLine>, cycle: Cycles) {
        self.inner.on_load(sm, addr, observed, cycle);
    }

    fn on_store(&mut self, sm: usize, addr: LineAddr, data: &CacheLine, cycle: Cycles) {
        self.inner.on_store(sm, addr, data, cycle);
    }

    fn on_checkpoint(&mut self, sm: usize, cycle: Cycles, kind: ShadowCheckpoint, errors: &[String]) {
        let slot = match kind {
            ShadowCheckpoint::EpBoundary => 0,
            ShadowCheckpoint::ModeSwitch => 1,
            ShadowCheckpoint::KernelEnd => 2,
        };
        self.counts.lock().expect("counts lock")[slot] += 1;
        self.inner.on_checkpoint(sm, cycle, kind, errors);
    }
}

/// What one simulation produced, reduced to the pinned text.
struct Run {
    stats: Vec<KernelStats>,
    text: String,
}

fn simulate(
    config: &GpuConfig,
    shadowed: bool,
    build: &dyn Fn() -> Box<dyn L1CompressionPolicy>,
) -> Run {
    let mut gpu = Gpu::new(config, |_| build());
    let oracle = shadowed.then(|| {
        let (inner, handle) = MemoryOracle::new();
        let counts = Arc::new(Mutex::new([0u64; 3]));
        let check = CountingOracle {
            inner,
            counts: Arc::clone(&counts),
        };
        gpu.set_shadow_check(Box::new(check), ShadowConfig::default());
        (handle, counts)
    });
    let mut stats = Vec::new();
    let mut text = String::new();
    for kernel in &kernels() {
        let kernel_stats = gpu.run_kernel(kernel);
        text.push_str(&format!("{kernel_stats:?}\n{:?}\n", gpu.policy_reports()));
        stats.push(kernel_stats);
    }
    if let Some((handle, counts)) = oracle {
        let r = handle.report();
        assert_eq!(r.violations_total, 0, "oracle violations: {:?}", r.violations);
        let [ep, switch, end] = *counts.lock().expect("counts lock");
        text.push_str(&format!(
            "loads {} fills {} stores {} checkpoints {} (ep {ep} switch {switch} end {end})\n",
            r.loads_checked, r.fills_observed, r.stores_observed, r.checkpoints
        ));
    }
    Run { stats, text }
}

fn digest(text: &str) -> u128 {
    let mut fp = Fingerprinter::new();
    fp.write_str(text);
    fp.finish()
}

fn latte(config: &GpuConfig, tweak: impl Fn(&mut LatteConfig)) -> LatteConfig {
    let mut latte = LatteConfig {
        num_l1_sets: config.l1_geometry.num_sets(),
        l1_base_hit_latency: config.l1_hit_latency as f64,
        ..LatteConfig::paper()
    };
    tweak(&mut latte);
    latte
}

/// `(policy or config, condition, digest)`.
const PINNED: &[(&str, &str, u128)] = &[
    ("LATTE-CC", "plain", 0x4df8a4288d290b05b807780cf0f04883),
    ("LATTE-CC", "bitflips", 0x5c0f8d7f6d0d4c71feaa4b4758007149),
    ("LATTE-CC", "shadow", 0x5fc36d7e1a2058f8840c77090e4d331a),
    ("LATTE-CC", "traces", 0xc12fd3629a4d8b767e1a8f8191c087a2),
    ("LATTE-CC-BDI-BPC", "plain", 0x8ce2a3684105d5ce83eff2477b57ddfd),
    ("LATTE-CC-BDI-BPC", "bitflips", 0xabd7678c87f8721bcfc0005ff6306ad9),
    ("LATTE-CC-BDI-BPC", "shadow", 0xb6bb735edacebca095fb8919355a3940),
    ("LATTE-CC-BDI-BPC", "traces", 0xb2dc7359fcd9c5eb264f409f311f2290),
    ("LATTE-CC-4mode", "plain", 0xb72732a12f88995dfc3beff875ed1bd5),
    ("LATTE-CC-4mode", "bitflips", 0x85f7f092f17d784b044fad1301cfe28a),
    ("LATTE-CC-4mode", "shadow", 0x5790767689ac40ef94b7c26c5401a8cc),
    ("LATTE-CC-4mode", "traces", 0x46f389b161836572ab9e190aaf2545a3),
    ("Adaptive-Hit-Count", "plain", 0x6734695645b29d29664fecb16f5fa130),
    ("Adaptive-Hit-Count", "bitflips", 0x4cb3f73c327502a733639244b4ae37c7),
    ("Adaptive-Hit-Count", "shadow", 0x45ea386dfc9cad19c5b07973c60cbbb2),
    ("Adaptive-Hit-Count", "traces", 0x3a6be962e8d0d43e3b307dc7e1636d25),
    ("Adaptive-CMP", "plain", 0x5d5648f65e0a904ad2d0858a3f52832a),
    ("Adaptive-CMP", "bitflips", 0x991926bcd1f495fed49a2548c4c5d8ea),
    ("Adaptive-CMP", "shadow", 0x985008be25184929fd606ec5e8924e35),
    ("Adaptive-CMP", "traces", 0x496fbd561c36f0df99d9ee34a57afd98),
    ("LatteCc", "force-none", 0xdc49a7fdbd3bb7cf9e152fb25dc26155),
    ("LatteCc", "force-low", 0x63c3aeae62e8e7df2c1b200df39fe235),
    ("LatteCc", "force-high", 0x33af3936bb27c9a17e365d21cc078fc2),
    ("LatteCc", "dedicated-1", 0x6f2e07c182c4de93228e3c8ccee2ccc7),
    ("LatteCc", "dedicated-8", 0x818ef061dd8d9903934a536692ce13c0),
    ("LatteCc", "decide-trace", 0xc185330a3ef5e648160cd967411ac15b),
    ("LATTE-CC", "overrides", 0x6c6f6cb50cc106af77fb98eee62a697a),
    ("LATTE-CC-BDI-BPC", "overrides", 0x859524dd3b5d28268804e3718ad152cc),
    ("LATTE-CC-4mode", "overrides", 0xb72732a12f88995dfc3beff875ed1bd5),
    ("Adaptive-Hit-Count", "overrides", 0x6734695645b29d29664fecb16f5fa130),
    ("Adaptive-CMP", "overrides", 0x5d5648f65e0a904ad2d0858a3f52832a),
];

#[test]
fn adaptive_policies_match_pinned_digests() {
    let mut actual: Vec<(String, &str, u128)> = Vec::new();
    let mut plain_digests = Vec::new();
    let flips = FaultConfig::bitflips(11, 0.02);
    for policy in ADAPTIVE {
        let build = || policy.build(&config(false, None));
        let plain = simulate(&config(false, None), false, &build);
        assert!(plain.stats.iter().all(|s| s.termination.is_clean()));
        assert!(plain.stats.iter().all(|s| s.eps_completed >= 10));
        plain_digests.push(digest(&plain.text));

        let faulty = simulate(&config(false, Some(flips)), false, &build);
        let detected: u64 = faulty.stats.iter().map(|s| s.faults.bitflips_detected).sum();
        assert!(
            detected >= LatteConfig::paper().decode_error_demotion_threshold,
            "{}: only {detected} bit flips detected",
            policy.name()
        );

        let shadowed = simulate(&config(false, None), true, &build);
        let traced = simulate(&config(true, None), false, &build);
        // The baselines decide once per period and report no mode index.
        let baseline = matches!(policy, PolicyKind::AdaptiveHitCount | PolicyKind::AdaptiveCmp);
        for trace in traced.stats.iter().flat_map(|s| &s.traces) {
            assert_eq!(trace.selected_mode.is_none(), baseline, "{}", policy.name());
        }

        for (condition, run) in [
            ("plain", plain),
            ("bitflips", faulty),
            ("shadow", shadowed),
            ("traces", traced),
        ] {
            actual.push((policy.name().to_owned(), condition, digest(&run.text)));
        }
    }

    let traced_config = config(true, None);
    let mut direct: Vec<(&str, LatteConfig)> = Vec::new();
    for (name, mode) in [
        ("force-none", CompressionMode::None),
        ("force-low", CompressionMode::LowLatency),
        ("force-high", CompressionMode::HighCapacity),
    ] {
        direct.push((name, latte(&traced_config, |c| c.force_mode = Some(mode))));
    }
    for (name, sets) in [("dedicated-1", 1), ("dedicated-8", 8)] {
        direct.push((name, latte(&traced_config, |c| c.dedicated_sets_per_mode = sets)));
    }
    for (name, cfg) in direct {
        let run = simulate(&traced_config, false, &|| Box::new(LatteCc::new(cfg.clone())));
        actual.push(("LatteCc".to_owned(), name, digest(&run.text)));
    }

    let lines = Arc::new(Mutex::new(Vec::<String>::new()));
    let sink = {
        let lines = Arc::clone(&lines);
        TraceSink::new(move |line| lines.lock().expect("trace lock").push(line.to_owned()))
    };
    let cfg = latte(&traced_config, |c| c.decide_trace = Some(sink.clone()));
    let run = simulate(&traced_config, false, &|| Box::new(LatteCc::new(cfg.clone())));
    let lines = lines.lock().expect("trace lock").join("\n");
    assert!(lines.contains("decide: tol="), "the trace sink saw no decisions");
    actual.push(("LatteCc".to_owned(), "decide-trace", digest(&format!("{}{lines}", run.text))));

    // Last, because the overrides are process-wide and write-once. They
    // reach every policy `PolicyKind::build` makes, but only the two
    // three-mode LATTE-CC variants act on a forced mode or trace sink.
    assert!(set_latte_overrides(LatteOverrides {
        force_mode: Some(CompressionMode::HighCapacity),
        debug_decide: true,
        ..LatteOverrides::default()
    }));
    for (policy, plain) in ADAPTIVE.into_iter().zip(plain_digests) {
        let run = simulate(&config(false, None), false, &|| policy.build(&config(false, None)));
        let d = digest(&run.text);
        let obeys = matches!(policy, PolicyKind::LatteCc | PolicyKind::LatteCcBdiBpc);
        assert_eq!(d != plain, obeys, "{}: overrides", policy.name());
        actual.push((policy.name().to_owned(), "overrides", d));
    }

    let listing: String = actual
        .iter()
        .map(|(who, condition, d)| format!("    ({who:?}, {condition:?}, {d:#034x}),\n"))
        .collect();
    let expected: Vec<(String, &str, u128)> =
        PINNED.iter().map(|&(who, c, d)| (who.to_owned(), c, d)).collect();
    assert_eq!(
        actual, expected,
        "adaptive-policy simulations drifted; now:\n{listing}"
    );
}
