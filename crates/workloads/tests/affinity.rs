//! Per-benchmark characterisation tests: each synthetic benchmark must
//! exhibit the compression affinity the paper attributes to its namesake
//! (Fig 2 / §II-A). These tests pin the calibration — if a value profile
//! change breaks a benchmark's identity, they fail.

use latte_cache::LineAddr;
use latte_compress::{Bdi, Bpc, CacheLine, Compressor, Sc, VftBuilder};
use latte_gpusim::{Kernel, Op};
use latte_workloads::{benchmark, suite, BenchmarkSpec};

/// Collects a sample of the benchmark's actual load-stream lines.
fn stream_lines(bench: &BenchmarkSpec, cap: usize) -> Vec<CacheLine> {
    let mut lines = Vec::with_capacity(cap);
    let kernels = bench.build_kernels();
    'outer: for kernel in &kernels {
        for warp in 0..kernel.warps_on_sm(0).min(8) {
            let mut stream = kernel.warp_program(0, warp);
            for _ in 0..2048 {
                match stream.next_op() {
                    Op::Load { addr } | Op::LoadAsync { addr } => {
                        lines.push(kernel.line_data(LineAddr::from_byte_addr(addr)));
                        if lines.len() >= cap {
                            break 'outer;
                        }
                    }
                    Op::Exit => break,
                    _ => {}
                }
            }
        }
    }
    lines
}

fn ratios(bench: &BenchmarkSpec) -> (f64, f64, f64) {
    let lines = stream_lines(bench, 800);
    assert!(!lines.is_empty(), "{} produced no loads", bench.abbr);
    let mut vft = VftBuilder::new();
    for l in lines.iter().take(lines.len() / 4) {
        vft.observe_line(l);
    }
    let sc = Sc::new(vft.build());
    let total = (lines.len() * CacheLine::SIZE_BYTES) as f64;
    let size = |c: &dyn Compressor| -> f64 {
        total
            / lines
                .iter()
                .map(|l| c.compress(l).size_bytes())
                .sum::<usize>() as f64
    };
    (size(&Bdi::new()), size(&Bpc::new()), size(&sc))
}

#[test]
fn graph_benchmarks_are_bdi_affine() {
    for abbr in ["BC", "DJK", "CLR", "MIS", "PF", "BFS"] {
        let (bdi, _, sc) = ratios(&benchmark(abbr).expect("exists"));
        assert!(bdi > 2.0, "{abbr}: BDI ratio {bdi:.2} too low");
        assert!(
            bdi > sc,
            "{abbr}: BDI ({bdi:.2}) must beat SC ({sc:.2}) on spatial data"
        );
    }
}

#[test]
fn float_benchmarks_are_sc_affine() {
    for abbr in ["SS", "KM", "MM", "PRK"] {
        let (bdi, _, sc) = ratios(&benchmark(abbr).expect("exists"));
        assert!(sc > 1.8, "{abbr}: SC ratio {sc:.2} too low");
        assert!(
            sc > bdi + 0.5,
            "{abbr}: SC ({sc:.2}) must clearly beat BDI ({bdi:.2}) on temporal data"
        );
    }
}

#[test]
fn bpc_affine_benchmarks_prefer_bpc() {
    for abbr in ["PF", "MIS", "CLR", "BFS"] {
        let (bdi, bpc, _) = ratios(&benchmark(abbr).expect("exists"));
        assert!(
            bpc >= bdi,
            "{abbr}: BPC ({bpc:.2}) should be at least BDI ({bdi:.2})"
        );
    }
}

#[test]
fn incompressible_benchmarks_stay_incompressible() {
    for abbr in ["HOT", "SR1", "SCL", "BP"] {
        let (bdi, bpc, sc) = ratios(&benchmark(abbr).expect("exists"));
        assert!(
            bdi < 1.2 && bpc < 1.25 && sc < 1.5,
            "{abbr}: should resist compression, got BDI {bdi:.2} BPC {bpc:.2} SC {sc:.2}"
        );
    }
}

#[test]
fn suite_is_complete_and_balanced() {
    let s = suite();
    assert_eq!(s.len(), 23);
    let sens = s
        .iter()
        .filter(|b| b.category == latte_workloads::Category::CSens)
        .count();
    assert_eq!(sens, 11);
    for b in &s {
        // Every benchmark yields a usable insertion stream.
        assert!(stream_lines(b, 64).len() >= 32, "{}", b.abbr);
    }
}

#[test]
fn kernel_streams_are_sm_disjoint() {
    let bench = benchmark("SS").expect("exists");
    let kernels = bench.build_kernels();
    let addr_of = |sm: usize| -> u64 {
        let mut s = kernels[0].warp_program(sm, 0);
        loop {
            match s.next_op() {
                Op::Load { addr } | Op::LoadAsync { addr } => return addr,
                Op::Exit => panic!("no loads"),
                _ => {}
            }
        }
    };
    assert_ne!(
        addr_of(0) >> 39,
        addr_of(1) >> 39,
        "SMs share address space"
    );
}

#[test]
fn latency_fragile_benchmarks_use_dependent_loads() {
    // The paper's most latency-fragile workloads (FW, BC) must model
    // dependent (mlp = 1) accesses.
    for abbr in ["FW", "BC", "HW"] {
        let bench = benchmark(abbr).expect("exists");
        for k in &bench.kernels {
            for p in &k.phases {
                assert_eq!(p.mlp, 1, "{abbr}/{}: expected dependent loads", k.name);
            }
        }
    }
}
