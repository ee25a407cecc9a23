//! Criterion micro-benchmarks: the workload generators that feed every
//! simulation — a warp's op stream per access pattern, and line
//! synthesis per value profile.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use latte_cache::LineAddr;
use latte_gpusim::{Kernel, Op};
use latte_workloads::{
    AccessPattern, BenchmarkSpec, Category, KernelSpec, LineGenerator, PhaseSpec, ValueProfile,
};
use std::hint::black_box;

/// Warps per SM in the op-generation kernels (the suite's common count).
const WARPS: usize = 32;

/// Loads per warp in the op-generation phase.
const LOADS: u32 = 1500;

/// Lines synthesised per line-data iteration.
const LINES: u64 = 128;

/// A one-kernel, one-phase benchmark running `pattern` with the shape of
/// the suite's C-Sens phases: a little compute per load, MLP 2.
fn one_phase(pattern: AccessPattern) -> BenchmarkSpec {
    BenchmarkSpec {
        abbr: "GEN",
        name: "op generation",
        category: Category::CSens,
        kernels: vec![KernelSpec {
            name: "gen".to_owned(),
            warps_per_sm: WARPS,
            phases: vec![PhaseSpec::loads(pattern, LOADS, 2).with_mlp(2)],
        }],
        generator: LineGenerator::uniform(ValueProfile::Zeros, 1),
        seed: 0x1a77e,
    }
}

/// One warp's whole phase: every op from the first load to `Exit`. The
/// warp is the middle one of the SM, so stream offsets and Zipf hashes
/// see a nonzero warp index.
fn bench_op_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("op_generation");
    let cases = [
        ("stream", AccessPattern::Stream),
        (
            "uniform",
            AccessPattern::UniformReuse {
                working_set_lines: 384,
            },
        ),
        (
            "zipf",
            AccessPattern::Zipf {
                universe_lines: 384,
                alpha_x100: 95,
            },
        ),
        (
            "tiled",
            AccessPattern::Tiled {
                tile_lines: 64,
                reuse_factor: 4,
            },
        ),
    ];
    for (name, pattern) in cases {
        let kernels = one_phase(pattern).build_kernels();
        let kernel = &kernels[0];
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut stream = kernel.warp_program(0, WARPS / 2);
                let mut ops = 0u32;
                while stream.next_op() != Op::Exit {
                    ops += 1;
                }
                black_box(ops)
            });
        });
    }
    group.finish();
}

/// [`LINES`] consecutive lines of one profile per iteration.
fn bench_line_data(c: &mut Criterion) {
    let mut group = c.benchmark_group("line_data");
    let cases = [
        ("zeros", ValueProfile::Zeros),
        ("small_ints", ValueProfile::SmallInts { max: 1024 }),
        ("pointers", ValueProfile::Pointers),
        (
            "indices",
            ValueProfile::Indices {
                stride: 4,
                noise_bits: 2,
            },
        ),
        ("hot_floats", ValueProfile::HotFloats { alphabet: 64 }),
        ("random_floats", ValueProfile::RandomFloats),
        ("text", ValueProfile::Text),
    ];
    for (name, profile) in cases {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut acc = 0u8;
                for line in 0..LINES {
                    acc ^= profile.line(LineAddr::new(black_box(line)), 7).as_bytes()[5];
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_op_generation, bench_line_data);
criterion_main!(benches);
