//! Criterion micro-benchmarks: compressor throughput on characteristic
//! cache-line contents.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use latte_cache::LineAddr;
use latte_compress::{
    Bdi, BitSink, Bpc, CacheLine, CompressionAlgo, Compressor, CpackZ, Fpc, Sc, VftBuilder,
    VFT_COUNTER_MAX, VFT_ENTRIES,
};
use latte_core::SizeMemo;
use latte_gpusim::{FillLine, Kernel};
use latte_workloads::{
    AccessPattern, BenchmarkSpec, Category, KernelSpec, LineGenerator, PhaseSpec, RegionSpec,
    ValueProfile, REGION_SHIFT,
};
use std::hint::black_box;

/// The value profiles of the mixed 640-line streams, 128 lines each.
const STREAM_PROFILES: [ValueProfile; 5] = [
    ValueProfile::Zeros,
    ValueProfile::SmallInts { max: 1024 },
    ValueProfile::Pointers,
    ValueProfile::HotFloats { alphabet: 64 },
    ValueProfile::RandomFloats,
];

fn lines_for(profile: ValueProfile) -> Vec<CacheLine> {
    (0..128).map(|i| profile.line(LineAddr::new(i), 7)).collect()
}

fn bench_compressors(c: &mut Criterion) {
    let mut group = c.benchmark_group("compress_line");
    let cases = [
        ("small_ints", ValueProfile::SmallInts { max: 1024 }),
        ("pointers", ValueProfile::Pointers),
        ("hot_floats", ValueProfile::HotFloats { alphabet: 64 }),
        ("random_floats", ValueProfile::RandomFloats),
    ];
    for (name, profile) in cases {
        let lines = lines_for(profile);
        let mut vft = VftBuilder::new();
        for l in &lines {
            vft.observe_line(l);
        }
        let sc = Sc::new(vft.build());
        let algos: Vec<(&str, Box<dyn Compressor>)> = vec![
            ("bdi", Box::new(Bdi::new())),
            ("fpc", Box::new(Fpc::new())),
            ("cpack", Box::new(CpackZ::new())),
            ("bpc", Box::new(Bpc::new())),
            ("sc", Box::new(sc)),
        ];
        for (algo_name, algo) in algos {
            group.bench_with_input(BenchmarkId::new(algo_name, name), &lines, |b, lines| {
                let mut i = 0;
                b.iter(|| {
                    let line = &lines[i % lines.len()];
                    i += 1;
                    black_box(algo.compress(black_box(line)))
                });
            });
        }
    }
    group.finish();
}

/// The simulator's per-access hot path: every L1 fill sizes the line
/// under one compressor via the size-only `probe()` stage. Benchmarked
/// as a whole mixed stream per iteration — the shape the cache model
/// actually produces — so this number tracks the staged/no-alloc work
/// directly. The `*_full_encode` entries run the payload-materialising
/// `BitWriter` path over the same stream: the probe/encode gap is the
/// point of the staging split.
fn bench_hot_path_stream(c: &mut Criterion) {
    let mut stream: Vec<CacheLine> = Vec::new();
    for profile in STREAM_PROFILES {
        stream.extend(lines_for(profile));
    }
    let mut vft = VftBuilder::new();
    for l in &stream {
        vft.observe_line(l);
    }
    let sc = Sc::new(vft.build());
    let algos: Vec<(&str, Box<dyn Compressor>)> = vec![
        ("bdi", Box::new(Bdi::new())),
        ("fpc", Box::new(Fpc::new())),
        ("cpack", Box::new(CpackZ::new())),
        ("bpc", Box::new(Bpc::new())),
        ("sc", Box::new(sc)),
    ];
    let mut group = c.benchmark_group("hot_path_stream_640_lines");
    for (name, algo) in &algos {
        group.bench_function(*name, |b| {
            b.iter(|| {
                let mut total = 0usize;
                for line in &stream {
                    total += black_box(algo.probe(black_box(line))).size_bytes();
                }
                black_box(total)
            });
        });
    }
    let cpack = CpackZ::new();
    group.bench_function("cpack_full_encode", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for line in &stream {
                total += black_box(cpack.encode(black_box(line))).byte_len();
            }
            black_box(total)
        });
    });
    let bpc = Bpc::new();
    group.bench_function("bpc_full_encode", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for line in &stream {
                total += black_box(bpc.encode(black_box(line))).byte_len();
            }
            black_box(total)
        });
    });
    group.finish();
}

/// Size-only probe vs full bit-exact encode for the variable-length
/// coders: the gap is what routing `compress()` through `BitCounter`
/// instead of a real `BitWriter` buys on the hot path.
fn bench_size_probe_vs_encode(c: &mut Criterion) {
    let lines = lines_for(ValueProfile::SmallInts { max: 1024 });
    let fpc = Fpc::new();
    let bpc = Bpc::new();
    let mut group = c.benchmark_group("size_probe_vs_encode");
    group.bench_function("fpc_count_only", |b| {
        b.iter(|| {
            let mut bits = 0usize;
            for line in &lines {
                let mut counter = latte_compress::BitCounter::new();
                fpc.encode_into(black_box(line), &mut counter);
                bits += counter.bit_len();
            }
            black_box(bits)
        });
    });
    group.bench_function("fpc_full_encode", |b| {
        b.iter(|| {
            let mut bits = 0usize;
            for line in &lines {
                bits += fpc.encode(black_box(line)).bit_len();
            }
            black_box(bits)
        });
    });
    group.bench_function("bpc_count_only", |b| {
        b.iter(|| {
            let mut bits = 0usize;
            for line in &lines {
                let mut counter = latte_compress::BitCounter::new();
                bpc.encode_into(black_box(line), &mut counter);
                bits += counter.bit_len();
            }
            black_box(bits)
        });
    });
    group.bench_function("bpc_fast_probe", |b| {
        // The transposed bit-plane probe: no BitCounter walk at all.
        b.iter(|| {
            let mut bytes = 0usize;
            for line in &lines {
                bytes += bpc.probe(black_box(line)).size_bytes();
            }
            black_box(bytes)
        });
    });
    let cpack = CpackZ::new();
    group.bench_function("cpack_count_only", |b| {
        b.iter(|| {
            let mut bits = 0usize;
            for line in &lines {
                let mut counter = latte_compress::BitCounter::new();
                cpack.encode_into(black_box(line), &mut counter);
                bits += counter.bit_len();
            }
            black_box(bits)
        });
    });
    group.bench_function("cpack_full_encode", |b| {
        b.iter(|| {
            let mut bits = 0usize;
            for line in &lines {
                bits += cpack.encode(black_box(line)).bit_len();
            }
            black_box(bits)
        });
    });
    group.bench_function("bpc_full_encode", |b| {
        b.iter(|| {
            let mut bits = 0usize;
            for line in &lines {
                bits += bpc.encode(black_box(line)).bit_len();
            }
            black_box(bits)
        });
    });
    group.finish();
}

/// What one L1 fill spends to size its line, per 640-line stream: a
/// refill answered by the fill-size memo, against what every fill paid
/// without it (`line_data` to make the bytes, then a BDI or SC probe).
/// The lines are a `SyntheticKernel`'s, one region per value profile of
/// `hot_path_stream_640_lines`, 128 lines each. The memo rows start warm
/// (every line sized once), as a refill finds them; `memo_hit` hands the
/// memo pristine fill handles, so it never makes the bytes.
fn bench_fill_path(c: &mut Criterion) {
    let regions = STREAM_PROFILES
        .iter()
        .map(|&profile| RegionSpec {
            profile,
            zero_percent: 0,
        })
        .collect();
    let bench = BenchmarkSpec {
        abbr: "FILL",
        name: "fill path",
        category: Category::CSens,
        kernels: vec![KernelSpec {
            name: "fill".to_owned(),
            warps_per_sm: 1,
            phases: vec![PhaseSpec::loads(AccessPattern::Stream, 1, 0)],
        }],
        generator: LineGenerator::new(regions, 7),
        seed: 7,
    };
    let kernel = &bench.build_kernels()[0];
    let addrs: Vec<LineAddr> = (0..STREAM_PROFILES.len() as u64)
        .flat_map(|region| (0..128).map(move |i| LineAddr::new(region << REGION_SHIFT | i)))
        .collect();
    let lines: Vec<CacheLine> = addrs.iter().map(|&a| kernel.line_data(a)).collect();
    let mut vft = VftBuilder::new();
    for l in &lines {
        vft.observe_line(l);
    }
    let sc = Sc::new(vft.build());
    let bdi = Bdi::new();
    let mut memo = SizeMemo::new();
    for &addr in &addrs {
        let mut line = FillLine::pristine(kernel, addr);
        let _ = memo.size(&mut line, CompressionAlgo::Bdi, |l| bdi.probe(l));
    }

    let mut group = c.benchmark_group("fill_path");
    group.bench_function("memo_hit", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &addr in &addrs {
                let mut line = FillLine::pristine(kernel, black_box(addr));
                total += memo.size(&mut line, CompressionAlgo::Bdi, |l| bdi.probe(l)).size_bytes();
            }
            black_box(total)
        });
    });
    group.bench_function("bdi_probe", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for line in &lines {
                total += bdi.probe(black_box(line)).size_bytes();
            }
            black_box(total)
        });
    });
    group.bench_function("sc_probe", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for line in &lines {
                total += sc.probe(black_box(line)).size_bytes();
            }
            black_box(total)
        });
    });
    group.bench_function("line_data", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for &addr in &addrs {
                total += u64::from(kernel.line_data(black_box(addr)).as_bytes()[0]);
            }
            black_box(total)
        });
    });
    group.finish();
}

fn bench_sc_training(c: &mut Criterion) {
    let lines = lines_for(ValueProfile::HotFloats { alphabet: 256 });
    c.bench_function("sc_vft_train_and_build", |b| {
        b.iter(|| {
            let mut vft = VftBuilder::new();
            for l in &lines {
                vft.observe_line(black_box(l));
            }
            black_box(vft.build())
        });
    });
}

/// Freezing a full VFT into a codebook: what every SC training window
/// pays at its end. 1024 distinct values (the VFT capacity) with skewed,
/// partly saturated counters.
fn bench_sc_codebook_build(c: &mut Criterion) {
    let mut vft = VftBuilder::new();
    for i in 0..VFT_ENTRIES as u32 {
        let value = i.wrapping_mul(0x9e37_79b9);
        for _ in 0..(1 + (i * i) % 97 + if i % 64 == 0 { VFT_COUNTER_MAX } else { 0 }) {
            vft.observe(value);
        }
    }
    assert_eq!(vft.len(), VFT_ENTRIES);
    c.bench_function("sc_codebook_build", |b| b.iter(|| black_box(black_box(&vft).build())));
}

criterion_group!(
    benches,
    bench_compressors,
    bench_hot_path_stream,
    bench_size_probe_vs_encode,
    bench_fill_path,
    bench_sc_training,
    bench_sc_codebook_build
);
criterion_main!(benches);
