//! The synthetic benchmark suite modelling Table III of the paper.
//!
//! Each entry reproduces the *characterised behaviour* of its namesake —
//! cache-sensitivity class, compressibility profile (Fig 2), latency
//! tolerance (Fig 1/4), and phase behaviour (Fig 5) — not its source code.
//! Parameters were chosen per the paper's per-benchmark observations:
//!
//! * graph codes (BFS, BC, FW, DJK) carry integer/pointer data → spatial
//!   value locality → BDI-friendly; BC and FW run few warps with little
//!   compute → poor latency tolerance (Fig 4: −22% and −47% under SC);
//! * numeric codes (KM, SS, MM, PRK) carry floating-point data drawn from
//!   small recurring alphabets → temporal value locality → SC-friendly;
//!   PRK is extremely latency tolerant (Fig 1);
//! * PF, MIS and CLR show BPC affinity (Fig 2, §V-E);
//! * KM, SS, MM and VM change their best mode *within* kernels, which is
//!   where LATTE-CC beats Kernel-OPT (Fig 15).

use crate::access::AccessPattern;
use crate::spec::{BenchmarkSpec, Category, KernelSpec, PhaseSpec};
use crate::values::{LineGenerator, RegionSpec, ValueProfile};

fn region(profile: ValueProfile, zero_percent: u8) -> RegionSpec {
    RegionSpec {
        profile,
        zero_percent,
    }
}

fn kernel(name: &str, warps: usize, phases: Vec<PhaseSpec>) -> KernelSpec {
    KernelSpec {
        name: name.to_owned(),
        warps_per_sm: warps,
        phases,
    }
}

/// Uniform-random reuse over a working set.
fn reuse(ws: u32) -> AccessPattern {
    AccessPattern::UniformReuse {
        working_set_lines: ws,
    }
}

/// Zipf reuse: `universe` lines, exponent `alpha_x100`/100.
fn zipf(universe: u32, alpha_x100: u32) -> AccessPattern {
    AccessPattern::Zipf {
        universe_lines: universe,
        alpha_x100,
    }
}

/// The full 23-benchmark suite (Table III plus KM, MIS and VM, which the
/// paper's figures use but its table omits).
#[must_use]
pub fn suite() -> Vec<BenchmarkSpec> {
    let mut v = Vec::new();

    // ---------------- C-InSens ----------------

    // Binomial Options: compute-bound on a tiny working set.
    v.push(BenchmarkSpec {
        abbr: "BO",
        name: "Binomial Options",
        category: Category::CInSens,
        kernels: vec![
            kernel(
                "bo_k0",
                32,
                vec![PhaseSpec::loads(reuse(48), 800, 10).with_mlp(4)],
            ),
            kernel(
                "bo_k1",
                32,
                vec![PhaseSpec::loads(reuse(48), 800, 10).with_mlp(4)],
            ),
        ],
        generator: LineGenerator::uniform(ValueProfile::HotFloats { alphabet: 128 }, 0xB0),
        seed: 0xB0,
    });

    // PathFinder: pure streaming over a grid.
    v.push(BenchmarkSpec {
        abbr: "PTH",
        name: "Path Finder",
        category: Category::CInSens,
        kernels: vec![kernel(
            "pth_k0",
            32,
            vec![PhaseSpec::loads(AccessPattern::Stream, 1500, 2)
                .with_stores(10)
                .with_mlp(4)],
        )],
        generator: LineGenerator::new(vec![region(ValueProfile::SmallInts { max: 64 }, 10)], 0x47),
        seed: 0x47,
    });

    // Hotspot: stencil over a grid that fits in the L1.
    v.push(BenchmarkSpec {
        abbr: "HOT",
        name: "Hotspot",
        category: Category::CInSens,
        kernels: vec![kernel(
            "hot_k0",
            24,
            vec![PhaseSpec::loads(reuse(96), 1200, 5)
                .with_stores(10)
                .with_mlp(4)],
        )],
        generator: LineGenerator::uniform(ValueProfile::RandomFloats, 0x107),
        seed: 0x107,
    });

    // Fast Walsh Transform: streaming butterflies.
    v.push(BenchmarkSpec {
        abbr: "FWT",
        name: "Fast Walsh Transform",
        category: Category::CInSens,
        kernels: vec![
            kernel(
                "fwt_k0",
                48,
                vec![PhaseSpec::loads(AccessPattern::Stream, 900, 3).with_mlp(4)],
            ),
            kernel(
                "fwt_k1",
                48,
                vec![PhaseSpec::loads(AccessPattern::Stream, 900, 3).with_mlp(4)],
            ),
        ],
        generator: LineGenerator::uniform(ValueProfile::HotFloats { alphabet: 256 }, 0xF17),
        seed: 0xF17,
    });

    // Back Propagation: tiled layer sweeps, weak reuse.
    v.push(BenchmarkSpec {
        abbr: "BP",
        name: "Back Propagation",
        category: Category::CInSens,
        kernels: vec![kernel(
            "bp_k0",
            32,
            vec![PhaseSpec::loads(AccessPattern::Stream, 1200, 3)
                .with_stores(10)
                .with_mlp(4)],
        )],
        generator: LineGenerator::uniform(ValueProfile::RandomFloats, 0xB9),
        seed: 0xB9,
    });

    // Needleman-Wunsch: wavefront with few warps, small table.
    v.push(BenchmarkSpec {
        abbr: "NW",
        name: "Needleman-Wunsch",
        category: Category::CInSens,
        kernels: vec![kernel(
            "nw_k0",
            8,
            vec![PhaseSpec::loads(reuse(64), 1500, 1).with_stores(15)],
        )],
        generator: LineGenerator::uniform(ValueProfile::SmallInts { max: 256 }, 0x2b1),
        seed: 0x2b1,
    });

    // SRAD1: streaming stencil.
    v.push(BenchmarkSpec {
        abbr: "SR1",
        name: "SRAD1",
        category: Category::CInSens,
        kernels: vec![kernel(
            "sr1_k0",
            32,
            vec![PhaseSpec::loads(AccessPattern::Stream, 1200, 4)
                .with_stores(15)
                .with_mlp(4)],
        )],
        generator: LineGenerator::uniform(ValueProfile::RandomFloats, 0x521),
        seed: 0x521,
    });

    // Heartwall: few warps, tight tile reuse on SC-compressible floats —
    // the workload Static-SC damages most (+53% energy, Fig 13).
    v.push(BenchmarkSpec {
        abbr: "HW",
        name: "Heartwall",
        category: Category::CInSens,
        kernels: vec![kernel(
            "hw_k0",
            8,
            vec![PhaseSpec::loads(
                AccessPattern::Tiled {
                    tile_lines: 64,
                    reuse_factor: 6,
                },
                1500,
                1,
            )],
        )],
        generator: LineGenerator::uniform(ValueProfile::HotFloats { alphabet: 512 }, 0x4A11),
        seed: 0x4A11,
    });

    // Streamcluster: streaming with a small resident centre set.
    v.push(BenchmarkSpec {
        abbr: "SCL",
        name: "Streamcluster",
        category: Category::CInSens,
        kernels: vec![kernel(
            "scl_k0",
            24,
            vec![
                PhaseSpec::loads(AccessPattern::Stream, 1000, 2).with_mlp(4),
                PhaseSpec::loads(reuse(112), 600, 2)
                    .in_region(1)
                    .with_mlp(4),
            ],
        )],
        generator: LineGenerator::new(
            vec![
                region(ValueProfile::RandomFloats, 0),
                region(ValueProfile::RandomFloats, 0),
            ],
            0x5c1,
        ),
        seed: 0x5c1,
    });

    // B+Tree: pointer chasing over a hot index that fits; few warps.
    v.push(BenchmarkSpec {
        abbr: "BT",
        name: "B+Tree",
        category: Category::CInSens,
        kernels: vec![kernel(
            "bt_k0",
            12,
            vec![PhaseSpec::loads(zipf(128, 115), 1200, 1)],
        )],
        generator: LineGenerator::uniform(ValueProfile::SmallInts { max: 4096 }, 0xb7),
        seed: 0xb7,
    });

    // Word Count: streaming text.
    v.push(BenchmarkSpec {
        abbr: "WC",
        name: "Word Count",
        category: Category::CInSens,
        kernels: vec![kernel(
            "wc_k0",
            32,
            vec![PhaseSpec::loads(AccessPattern::Stream, 1500, 1)
                .with_stores(20)
                .with_mlp(4)],
        )],
        generator: LineGenerator::uniform(ValueProfile::Text, 0x3c),
        seed: 0x3c,
    });

    // BFS: highly compressible graph data but a universe so large that
    // even a 4x cache misses (bandwidth-bound, hence C-InSens).
    v.push(BenchmarkSpec {
        abbr: "BFS",
        name: "Breadth First Search",
        category: Category::CInSens,
        kernels: vec![
            kernel(
                "bfs_k0",
                48,
                vec![PhaseSpec::loads(zipf(3072, 45), 700, 1).with_mlp(2)],
            ),
            kernel(
                "bfs_k1",
                48,
                vec![PhaseSpec::loads(zipf(3072, 45), 700, 1)
                    .in_region(1)
                    .with_mlp(2)],
            ),
        ],
        generator: LineGenerator::new(
            vec![
                region(
                    ValueProfile::Indices {
                        stride: 3,
                        noise_bits: 2,
                    },
                    0,
                ),
                region(ValueProfile::SmallInts { max: 1 << 16 }, 30),
            ],
            0xBF5,
        ),
        seed: 0xBF5,
    });

    // ---------------- C-Sens ----------------

    // Particle Filter: BPC-affine structured indices (Fig 18).
    v.push(BenchmarkSpec {
        abbr: "PF",
        name: "Particle Filter",
        category: Category::CSens,
        kernels: vec![kernel(
            "pf_k0",
            32,
            vec![PhaseSpec::loads(zipf(384, 95), 1500, 3).with_mlp(2)],
        )],
        generator: LineGenerator::uniform(
            ValueProfile::Indices {
                stride: 1,
                noise_bits: 3,
            },
            0x9F,
        ),
        seed: 0x9F,
    });

    // Similarity Score: the paper's showcase (Fig 5/16). Alternating
    // phases of high-tolerance/high-reuse (SC territory) and
    // low-tolerance/latency-critical execution; SC-friendly floats.
    v.push(BenchmarkSpec {
        abbr: "SS",
        name: "Similarity Score",
        category: Category::CSens,
        kernels: (0..2)
            .map(|k| {
                let mut phases = Vec::new();
                for _ in 0..2 {
                    phases.push(PhaseSpec::loads(zipf(768, 100), 800, 8).with_mlp(4));
                    phases.push(PhaseSpec::loads(zipf(112, 90), 1100, 0).with_active(25));
                }
                kernel(&format!("ss_k{k}"), 32, phases)
            })
            .collect(),
        generator: LineGenerator::uniform(ValueProfile::HotFloats { alphabet: 1024 }, 0x55),
        seed: 0x55,
    });

    // Matrix Multiplication: tiled reuse with occupancy swings.
    v.push(BenchmarkSpec {
        abbr: "MM",
        name: "Matrix Multiplication",
        category: Category::CSens,
        kernels: vec![kernel(
            "mm_k0",
            16,
            vec![
                // Tiles larger than the 128-line L1: the baseline spills,
                // a 3-4x compressed cache holds a whole tile (the classic
                // tiling crossover). Moderate warp counts keep miss
                // latency from being fully overlapped away.
                PhaseSpec::loads(
                    AccessPattern::Tiled {
                        tile_lines: 384,
                        reuse_factor: 6,
                    },
                    900,
                    5,
                )
                .with_mlp(4),
                PhaseSpec::loads(zipf(112, 90), 700, 0).with_active(40),
                PhaseSpec::loads(
                    AccessPattern::Tiled {
                        tile_lines: 384,
                        reuse_factor: 6,
                    },
                    900,
                    8,
                )
                .with_mlp(4),
            ],
        )],
        generator: LineGenerator::uniform(ValueProfile::HotFloats { alphabet: 768 }, 0x3131),
        seed: 0x3131,
    });

    // K-Means: centroid passes (hot, tolerant) alternate with assignment
    // sweeps (streaming, intolerant) — fine-grained adaptation pays.
    v.push(BenchmarkSpec {
        abbr: "KM",
        name: "K-Means",
        category: Category::CSens,
        kernels: vec![kernel("km_k0", 32, {
            let mut phases = Vec::new();
            for _ in 0..3 {
                phases.push(PhaseSpec::loads(zipf(576, 95), 900, 6).with_mlp(4));
                // Assignment sweep: streaming with little parallelism —
                // compression buys nothing here, and the best mode flips
                // from high-capacity back to none within the kernel.
                phases.push(PhaseSpec::loads(zipf(112, 90), 450, 0).with_active(30));
            }
            phases
        })],
        generator: LineGenerator::uniform(ValueProfile::HotFloats { alphabet: 768 }, 0x6b3),
        seed: 0x6b3,
    });

    // Betweenness Centrality: pointer-heavy graph walk, few warps, almost
    // no compute — BDI-favoured and latency-fragile (Fig 4: −22%).
    v.push(BenchmarkSpec {
        abbr: "BC",
        name: "Betweenness Centrality",
        category: Category::CSens,
        kernels: vec![
            kernel("bc_k0", 16, vec![PhaseSpec::loads(zipf(384, 85), 1500, 1)]),
            kernel(
                "bc_k1",
                16,
                vec![PhaseSpec::loads(zipf(320, 85), 1000, 1).in_region(1)],
            ),
        ],
        generator: LineGenerator::new(
            vec![
                region(ValueProfile::Pointers, 0),
                // Distance values cluster just beyond the VFT's reach: SC
                // compresses them a little — enough to pay its latency,
                // not enough to buy capacity (the paper's BC behaviour).
                region(ValueProfile::SmallInts { max: 2048 }, 15),
            ],
            0xBC,
        ),
        seed: 0xBC,
    });

    // Graph Coloring: BPC-affine (Fig 18), tolerant up to ~9 cycles
    // (Fig 1).
    v.push(BenchmarkSpec {
        abbr: "CLR",
        name: "Graph Coloring",
        category: Category::CSens,
        kernels: vec![kernel(
            "clr_k0",
            24,
            vec![PhaseSpec::loads(zipf(288, 90), 1400, 4).with_mlp(2)],
        )],
        generator: LineGenerator::uniform(
            ValueProfile::Indices {
                stride: 2,
                noise_bits: 4,
            },
            0xC18,
        ),
        seed: 0xC18,
    });

    // Floyd-Warshall: distance-matrix integers, few warps, zero compute —
    // the most latency-fragile workload (Fig 4: −47% under Static-SC).
    v.push(BenchmarkSpec {
        abbr: "FW",
        name: "Floyd Warshall",
        category: Category::CSens,
        kernels: vec![kernel(
            "fw_k0",
            10,
            vec![PhaseSpec::loads(zipf(256, 90), 1800, 0).with_stores(10)],
        )],
        generator: LineGenerator::uniform(ValueProfile::SmallInts { max: 20000 }, 0xF3),
        seed: 0xF3,
    });

    // Pagerank (SpMV): massive warp parallelism and compute density —
    // tolerates even 14-cycle hits (Fig 1); SC-friendly rank vector.
    v.push(BenchmarkSpec {
        abbr: "PRK",
        name: "Pagerank",
        category: Category::CSens,
        kernels: vec![kernel(
            "prk_k0",
            20,
            vec![
                PhaseSpec::loads(zipf(384, 75), 800, 20).with_mlp(4),
                PhaseSpec::loads(zipf(384, 75), 400, 20)
                    .in_region(1)
                    .with_mlp(4),
            ],
        )],
        generator: LineGenerator::new(
            vec![
                region(ValueProfile::HotFloats { alphabet: 48 }, 0),
                region(
                    ValueProfile::Indices {
                        stride: 1,
                        noise_bits: 2,
                    },
                    0,
                ),
            ],
            0x99C,
        ),
        seed: 0x99C,
    });

    // Dijkstra: graph adjacency + distance arrays, BDI-favoured.
    v.push(BenchmarkSpec {
        abbr: "DJK",
        name: "Dijkstra",
        category: Category::CSens,
        kernels: vec![kernel(
            "djk_k0",
            16,
            vec![
                PhaseSpec::loads(zipf(384, 80), 1200, 2),
                PhaseSpec::loads(zipf(384, 80), 800, 2).in_region(1),
            ],
        )],
        generator: LineGenerator::new(
            vec![
                region(ValueProfile::Pointers, 0),
                region(ValueProfile::SmallInts { max: 3000 }, 10),
            ],
            0xD7C,
        ),
        seed: 0xD7C,
    });

    // Maximal Independent Set: BPC-affine, moderately tolerant.
    v.push(BenchmarkSpec {
        abbr: "MIS",
        name: "Maximal Independent Set",
        category: Category::CSens,
        kernels: vec![kernel(
            "mis_k0",
            32,
            vec![PhaseSpec::loads(zipf(256, 85), 1200, 5).with_mlp(2)],
        )],
        generator: LineGenerator::uniform(
            ValueProfile::Indices {
                stride: 4,
                noise_bits: 3,
            },
            0x315,
        ),
        seed: 0x315,
    });

    // VM: phase-alternating mixed-type workload with a large adaptive
    // upside (Fig 6).
    v.push(BenchmarkSpec {
        abbr: "VM",
        name: "Virus Matching",
        category: Category::CSens,
        kernels: vec![kernel("vm_k0", 24, {
            let mut phases = Vec::new();
            for _ in 0..3 {
                phases.push(PhaseSpec::loads(zipf(576, 95), 700, 7).with_mlp(4));
                phases.push(
                    PhaseSpec::loads(zipf(112, 90), 800, 0)
                        .in_region(1)
                        .with_active(30),
                );
            }
            phases
        })],
        generator: LineGenerator::new(
            vec![
                region(ValueProfile::HotFloats { alphabet: 1024 }, 0),
                region(ValueProfile::SmallInts { max: 3000 }, 0),
            ],
            0x1111,
        ),
        seed: 0x1111,
    });

    v
}

/// Looks a benchmark up by its figure abbreviation (case-insensitive).
#[must_use]
pub fn benchmark(abbr: &str) -> Option<BenchmarkSpec> {
    suite()
        .into_iter()
        .find(|b| b.abbr.eq_ignore_ascii_case(abbr))
}

/// The cache-sensitive subset.
#[must_use]
pub fn c_sens() -> Vec<BenchmarkSpec> {
    suite()
        .into_iter()
        .filter(|b| b.category == Category::CSens)
        .collect()
}

/// The cache-insensitive subset.
#[must_use]
pub fn c_insens() -> Vec<BenchmarkSpec> {
    suite()
        .into_iter()
        .filter(|b| b.category == Category::CInSens)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_all_benchmarks() {
        let s = suite();
        assert_eq!(s.len(), 23);
        assert_eq!(c_sens().len(), 11);
        assert_eq!(c_insens().len(), 12);
    }

    #[test]
    fn abbreviations_are_unique() {
        let s = suite();
        let mut abbrs: Vec<&str> = s.iter().map(|b| b.abbr).collect();
        abbrs.sort_unstable();
        abbrs.dedup();
        assert_eq!(abbrs.len(), s.len());
    }

    #[test]
    fn lookup_by_abbr() {
        assert!(benchmark("ss").is_some());
        assert!(benchmark("SS").is_some());
        assert!(benchmark("NOPE").is_none());
    }

    #[test]
    fn every_benchmark_builds_kernels() {
        for b in suite() {
            let kernels = b.build_kernels();
            assert!(!kernels.is_empty(), "{} has no kernels", b.abbr);
            assert!(
                b.approx_loads_per_sm() > 5_000,
                "{} too short: {}",
                b.abbr,
                b.approx_loads_per_sm()
            );
            assert!(
                b.approx_loads_per_sm() < 500_000,
                "{} too long: {}",
                b.abbr,
                b.approx_loads_per_sm()
            );
        }
    }

    #[test]
    fn warp_counts_fit_the_paper_machine() {
        for b in suite() {
            for k in &b.kernels {
                assert!(k.warps_per_sm >= 1 && k.warps_per_sm <= 48, "{}", b.abbr);
            }
        }
    }
}
