//! Criterion macro-benchmarks: whole-simulation throughput per policy —
//! how long a simulated kernel takes to run on the substrate — plus the
//! per-cycle warp-scheduler step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use latte_bench::PolicyKind;
use latte_gpusim::{
    Gpu, GpuConfig, Kernel, Op, SchedulerKind, VecStream, Warp, WarpScheduler, WarpState,
};
use latte_workloads::benchmark;
use std::hint::black_box;

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_kernel");
    group.sample_size(10);
    let config = GpuConfig {
        num_sms: 1,
        ..GpuConfig::small()
    };
    let bench = benchmark("NW").expect("NW is small and quick");
    for policy in [
        PolicyKind::Baseline,
        PolicyKind::StaticBdi,
        PolicyKind::StaticSc,
        PolicyKind::LatteCc,
    ] {
        group.bench_with_input(
            BenchmarkId::new("nw", policy.name()),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    let mut gpu = Gpu::new(&config, |_| policy.build(&config));
                    let mut cycles = 0;
                    for kernel in bench.build_kernels() {
                        cycles += gpu.run_kernel(black_box(&kernel as &dyn Kernel)).cycles;
                    }
                    black_box(cycles)
                });
            },
        );
    }
    group.finish();
}

/// The per-cycle warp-scheduler step: a 48-warp SM pool split across
/// two schedulers, both picking every cycle as `Sm::issue_cycle` does.
/// An issued warp turns busy or waits on data for a few cycles, so GTO
/// keeps switching warps and LRR keeps rotating; a quarter of the pool
/// is memory-stalled or finished throughout. One iteration is 64 cycles
/// (128 picks).
fn bench_scheduler_pick(c: &mut Criterion) {
    const WARPS: usize = 48;
    let mut group = c.benchmark_group("scheduler_pick");
    for kind in [SchedulerKind::Gto, SchedulerKind::Lrr] {
        group.bench_function(BenchmarkId::from_parameter(format!("{kind:?}")), |b| {
            let mut warps: Vec<Warp> = (0..WARPS)
                .map(|i| {
                    let mut w = Warp::new(i, i / 8, Box::new(VecStream::new(vec![Op::Exit])));
                    w.state = match i % 8 {
                        6 => WarpState::WaitingData {
                            until: 0,
                            pending_misses: 1,
                        },
                        7 => WarpState::Finished,
                        _ => WarpState::Ready,
                    };
                    w
                })
                .collect();
            let mut schedulers: Vec<WarpScheduler> = (0..2)
                .map(|s| WarpScheduler::new(kind, (s..WARPS).step_by(2).collect()))
                .collect();
            let mut cycle = 0;
            b.iter(|| {
                for _ in 0..64 {
                    for s in &mut schedulers {
                        if let Some(w) = s.pick(black_box(&warps), cycle) {
                            warps[w].state = match (w as u64 + cycle) % 4 {
                                0 => WarpState::WaitingData {
                                    until: cycle + 4,
                                    pending_misses: 0,
                                },
                                1 => WarpState::BusyUntil(cycle + 1),
                                2 => WarpState::BusyUntil(cycle + 3),
                                _ => WarpState::BusyUntil(cycle + 8),
                            };
                        }
                    }
                    cycle += 1;
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulation, bench_scheduler_pick);
criterion_main!(benches);
