//! Write-heavy synthetic benchmarks for the write-back data path.
//!
//! The Table III suite is read-dominated (stores are 10–20% of traffic
//! and fire-and-forget under write-through). These benchmarks invert
//! that: stores are a large fraction of every phase, working sets exceed
//! the L1 so dirty lines are *evicted and refetched within a kernel* —
//! the round trip that makes lost write-backs architecturally visible to
//! the differential oracle — and compute density varies so the
//! latency-tolerance-gated policies (LATTE-CC, Assist-Warp) actually
//! switch modes under store traffic.
//!
//! Kept separate from [`crate::suite`] so the paper-figure suite stays
//! at its pinned 23 benchmarks. Store targets are SM-disjoint by
//! construction (the SM id occupies the address high bits), which is
//! also what makes the write-back model coherence-free; see
//! `latte-gpusim`'s store documentation.

use crate::access::AccessPattern;
use crate::spec::{BenchmarkSpec, Category, KernelSpec, PhaseSpec};
use crate::values::{LineGenerator, RegionSpec, ValueProfile};

fn kernel(name: &str, warps: usize, phases: Vec<PhaseSpec>) -> KernelSpec {
    KernelSpec {
        name: name.to_owned(),
        warps_per_sm: warps,
        phases,
    }
}

fn reuse(ws: u32) -> AccessPattern {
    AccessPattern::UniformReuse {
        working_set_lines: ws,
    }
}

/// The write-heavy benchmarks: ≥40% stores, intra-kernel dirty-eviction
/// round trips, and a spread of latency tolerance.
#[must_use]
pub fn write_heavy_suite() -> Vec<BenchmarkSpec> {
    // Scatter-update: random read-modify-write over a working set well
    // past the L1, little compute — latency intolerant, every eviction
    // is a dirty write-back.
    let wsc = BenchmarkSpec {
        abbr: "WSC",
        name: "Write Scatter",
        category: Category::CSens,
        kernels: vec![kernel(
            "wsc_k0",
            16,
            vec![PhaseSpec::loads(reuse(512), 1200, 1)
                .with_stores(50)
                .with_mlp(2)],
        )],
        generator: LineGenerator::uniform(ValueProfile::SmallInts { max: 256 }, 0x5C1),
        seed: 0x5C1,
    };

    // Streaming writer with a re-read pass: phase 0 writes a large
    // region front to back, phase 1 reads it back — every dropped
    // write-back shows up as a stale refetch in phase 1.
    let wrr = BenchmarkSpec {
        abbr: "WRR",
        name: "Write Then Reread",
        category: Category::CSens,
        kernels: vec![kernel(
            "wrr_k0",
            24,
            vec![
                PhaseSpec::loads(reuse(384), 900, 2)
                    .with_stores(70)
                    .with_mlp(4),
                PhaseSpec::loads(reuse(384), 900, 2).with_mlp(4),
            ],
        )],
        generator: LineGenerator::new(
            vec![RegionSpec {
                profile: ValueProfile::Pointers,
                zero_percent: 10,
            }],
            0x33E,
        ),
        seed: 0x33E,
    };

    // Compute-dense accumulator: heavy compute between read-modify-write
    // pairs — latency tolerant, so assist warps and LATTE-CC both keep
    // compression on while the dirty traffic flows.
    let wac = BenchmarkSpec {
        abbr: "WAC",
        name: "Write Accumulate",
        category: Category::CInSens,
        kernels: vec![
            kernel(
                "wac_k0",
                32,
                vec![PhaseSpec::loads(reuse(256), 800, 8)
                    .with_stores(45)
                    .with_mlp(4)],
            ),
            kernel(
                "wac_k1",
                32,
                vec![PhaseSpec::loads(reuse(256), 800, 8)
                    .with_stores(45)
                    .with_mlp(4)],
            ),
        ],
        generator: LineGenerator::uniform(ValueProfile::HotFloats { alphabet: 64 }, 0xACC),
        seed: 0xACC,
    };

    vec![wsc, wrr, wac]
}

/// Looks a write-heavy benchmark up by abbreviation (case-insensitive).
#[must_use]
pub fn write_heavy_benchmark(abbr: &str) -> Option<BenchmarkSpec> {
    write_heavy_suite()
        .into_iter()
        .find(|b| b.abbr.eq_ignore_ascii_case(abbr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use latte_gpusim::{Kernel, Op};

    #[test]
    fn suite_has_at_least_three_distinct_benchmarks() {
        let suite = write_heavy_suite();
        assert!(suite.len() >= 3);
        let mut abbrs: Vec<&str> = suite.iter().map(|b| b.abbr).collect();
        abbrs.sort_unstable();
        abbrs.dedup();
        assert_eq!(abbrs.len(), suite.len());
        // None shadow a paper-suite abbreviation.
        for b in &suite {
            assert!(crate::benchmark(b.abbr).is_none(), "{} collides", b.abbr);
        }
    }

    #[test]
    fn every_benchmark_is_genuinely_write_heavy() {
        for bench in write_heavy_suite() {
            let kernels = bench.build_kernels();
            let mut stores = 0u64;
            let mut total = 0u64;
            for kernel in &kernels {
                let mut stream = kernel.warp_program(0, 0);
                loop {
                    match stream.next_op() {
                        Op::Exit => break,
                        Op::Store { .. } => {
                            stores += 1;
                            total += 1;
                        }
                        Op::Load { .. } | Op::LoadAsync { .. } => total += 1,
                        _ => {}
                    }
                }
            }
            assert!(
                stores * 100 >= total * 30,
                "{}: {stores}/{total} stores",
                bench.abbr
            );
        }
    }

    #[test]
    fn store_addresses_are_sm_disjoint() {
        for bench in write_heavy_suite() {
            let kernels = bench.build_kernels();
            for sm in 0..2u64 {
                let mut stream = kernels[0].warp_program(sm as usize, 0);
                loop {
                    match stream.next_op() {
                        Op::Exit => break,
                        Op::Store { addr, .. } => {
                            assert_eq!((addr / 128) >> 32, sm, "{}", bench.abbr);
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}
