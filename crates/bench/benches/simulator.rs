//! Criterion macro-benchmarks: whole-simulation throughput per policy and
//! on an MSHR-bound streaming benchmark — how long a simulated kernel
//! takes to run on the substrate — plus the per-cycle warp-scheduler
//! step, the idle fast-forward and the memory completion queue.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use latte_bench::PolicyKind;
use latte_cache::LineAddr;
use latte_gpusim::{EventQueue, Gpu, GpuConfig, Kernel, SchedulerKind, WarpScheduler, WarpState};
use latte_workloads::benchmark;
use std::hint::black_box;

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_kernel");
    group.sample_size(10);
    let config = GpuConfig {
        num_sms: 1,
        ..GpuConfig::small()
    };
    // NW is small and never stalls on the MSHR; FWT streams, so most of
    // its scheduler picks replay a load the full MSHR cannot take yet.
    let rows: [(&str, &[PolicyKind]); 2] = [
        (
            "NW",
            &[
                PolicyKind::Baseline,
                PolicyKind::StaticBdi,
                PolicyKind::StaticSc,
                PolicyKind::LatteCc,
            ],
        ),
        ("FWT", &[PolicyKind::Baseline]),
    ];
    for (abbr, policies) in rows {
        let bench = benchmark(abbr).expect("the suite defines every row's benchmark");
        for &policy in policies {
            group.bench_with_input(
                BenchmarkId::new(abbr.to_lowercase(), policy.name()),
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
    }
    group.finish();
}

/// The per-cycle warp-scheduler step: a 48-warp SM pool split across
/// two schedulers, both picking every cycle as `Sm::issue_cycle` does.
/// An issued warp turns busy or waits on data for a few cycles (reported
/// to its scheduler, as the SM's state setter does), so GTO keeps
/// switching warps and LRR keeps rotating; a quarter of the pool is
/// memory-stalled or finished throughout. One iteration is 64 cycles
/// (128 picks).
fn bench_scheduler_pick(c: &mut Criterion) {
    const WARPS: usize = 48;
    let mut group = c.benchmark_group("scheduler_pick");
    for kind in [SchedulerKind::Gto, SchedulerKind::Lrr] {
        group.bench_function(BenchmarkId::from_parameter(format!("{kind:?}")), |b| {
            // Warp `w` sits in slot `w / 2` of scheduler `w % 2`.
            let mut states = vec![WarpState::Ready; WARPS];
            let mut schedulers: Vec<WarpScheduler> = (0..2)
                .map(|s| WarpScheduler::new(kind, (s..WARPS).step_by(2).collect()))
                .collect();
            let mut set = |schedulers: &mut [WarpScheduler], w: usize, to: WarpState| {
                schedulers[w % 2].on_state_change(w / 2, states[w], to);
                states[w] = to;
            };
            for w in 0..WARPS {
                match w % 8 {
                    6 => set(
                        &mut schedulers,
                        w,
                        WarpState::WaitingData {
                            until: 0,
                            pending_misses: 1,
                        },
                    ),
                    7 => set(&mut schedulers, w, WarpState::Finished),
                    _ => {}
                }
            }
            let mut cycle = 0;
            b.iter(|| {
                for _ in 0..64 {
                    for s in 0..2 {
                        if let Some(w) = schedulers[s].pick(black_box(cycle)) {
                            let to = match (w as u64 + cycle) % 4 {
                                0 => WarpState::WaitingData {
                                    until: cycle + 4,
                                    pending_misses: 0,
                                },
                                1 => WarpState::BusyUntil(cycle + 1),
                                2 => WarpState::BusyUntil(cycle + 3),
                                _ => WarpState::BusyUntil(cycle + 8),
                            };
                            set(&mut schedulers, w, to);
                        }
                    }
                    cycle += 1;
                }
            });
        });
    }
    group.finish();
}

/// The idle fast-forward: with every warp of a 48-warp SM waiting on a
/// miss or busy, the cycle loop asks both schedulers for their next wake
/// and jumps there. Four warps are in flight, waking in turn: the one
/// that wakes issues a load that misses (no ready cycle), and a refill
/// makes the fourth warp after it busy for another 40 cycles, so the
/// earliest wake moves on at every step. One iteration is 64
/// fast-forwards (128 wake queries, 128 state changes).
fn bench_scheduler_next_wake(c: &mut Criterion) {
    const WARPS: usize = 48;
    const IN_FLIGHT: usize = 4;
    let mut group = c.benchmark_group("scheduler_next_wake");
    group.bench_function(BenchmarkId::from_parameter("idle_fast_forward"), |b| {
        // Warp `w` sits in slot `w / 2` of scheduler `w % 2`.
        let mut states = vec![WarpState::Ready; WARPS];
        let mut schedulers: Vec<WarpScheduler> = (0..2)
            .map(|s| WarpScheduler::new(SchedulerKind::Gto, (s..WARPS).step_by(2).collect()))
            .collect();
        let mut set = |schedulers: &mut [WarpScheduler], w: usize, to: WarpState| {
            schedulers[w % 2].on_state_change(w / 2, states[w], to);
            states[w] = to;
        };
        let miss = WarpState::WaitingData {
            until: 0,
            pending_misses: 1,
        };
        for w in 0..WARPS {
            let to = if w < IN_FLIGHT {
                WarpState::BusyUntil(10 * w as u64 + 10)
            } else {
                miss
            };
            set(&mut schedulers, w, to);
        }
        let mut next = 0;
        b.iter(|| {
            for _ in 0..64 {
                let wake = schedulers
                    .iter_mut()
                    .filter_map(WarpScheduler::next_wake)
                    .min()
                    .expect("four warps are in flight");
                set(&mut schedulers, next, miss);
                let refilled = (next + IN_FLIGHT) % WARPS;
                set(
                    &mut schedulers,
                    refilled,
                    WarpState::BusyUntil(black_box(wake) + 40),
                );
                next = (next + 1) % WARPS;
            }
        });
    });
    group.finish();
}

/// The shard's completion queue: 64 outstanding fills, each popped when
/// due and replaced by a new one 120 (an L2 hit) or 230 (a DRAM access)
/// cycles later, alternating between two SMs. One iteration is 64
/// pop-and-push pairs.
fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.bench_function(BenchmarkId::from_parameter("fills_64_outstanding"), |b| {
        let latency = |n: u64| if n.is_multiple_of(3) { 230 } else { 120 };
        let mut events = EventQueue::default();
        for n in 0..64u64 {
            events.push(
                latency(n) + n,
                (n % 2) as usize,
                LineAddr::new(n),
                false,
                None,
            );
        }
        let mut n = 64u64;
        b.iter(|| {
            for _ in 0..64 {
                let due = events.next_due().expect("64 fills are outstanding");
                let (ev, payload) = events.pop_due(due).expect("the earliest fill is due");
                black_box((ev.addr, payload));
                events.push(due + latency(n), ev.sm, LineAddr::new(n), false, None);
                n += 1;
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simulation,
    bench_scheduler_pick,
    bench_scheduler_next_wake,
    bench_event_queue
);
criterion_main!(benches);
