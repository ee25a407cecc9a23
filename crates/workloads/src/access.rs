//! Memory access pattern generators: the synthetic stand-in for the
//! benchmarks' address streams.
//!
//! A benchmark's cache sensitivity is set by how its per-SM working set
//! compares to the 128-line L1 and how reuse is distributed; its latency
//! tolerance is set by warp parallelism and the compute:memory ratio.
//! Patterns are stateless functions of `(iteration, warp, seed)`, so warp
//! programs can be regenerated for oracle replays.
//!
//! [`AccessPattern::line_offset`] is the reference definition. Kernels
//! generate ops through a [`PreparedPattern`] instead, which hoists the
//! work that is constant over a phase (the Zipf inverse-CDF constants and
//! the rank scatter permutation) out of the per-op path while producing
//! the same offsets bit for bit.

use crate::values::mix64;

/// How a phase's loads pick their target lines (within the phase's
/// region).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Sequential streaming, each warp over its own disjoint slice: no
    /// reuse at all (bandwidth-bound kernels).
    Stream,
    /// Uniform-random accesses over a shared working set of
    /// `working_set_lines`: hit rate ≈ min(1, capacity / working set),
    /// smooth in effective capacity (the C-Sens backbone).
    UniformReuse {
        /// Size of the shared working set, in lines.
        working_set_lines: u32,
    },
    /// Zipf-distributed accesses over `universe_lines` (graph-style skewed
    /// reuse); `alpha_x100` is the exponent × 100.
    Zipf {
        /// Universe size in lines.
        universe_lines: u32,
        /// Zipf exponent scaled by 100 (e.g. 90 → α = 0.9).
        alpha_x100: u32,
    },
    /// Blocked/tiled reuse: warps sweep a tile of `tile_lines` with
    /// `reuse_factor` passes before moving to the next tile — strong
    /// short-range temporal locality with phase changes at tile
    /// boundaries.
    Tiled {
        /// Tile size in lines.
        tile_lines: u32,
        /// Passes over each tile before advancing.
        reuse_factor: u32,
    },
}

impl AccessPattern {
    /// Folds this pattern (discriminant + parameters) into a simulation
    /// fingerprint.
    pub fn write_fingerprint(&self, fp: &mut latte_gpusim::Fingerprinter) {
        match *self {
            AccessPattern::Stream => fp.write_u64(0),
            AccessPattern::UniformReuse { working_set_lines } => {
                fp.write_u64(1);
                fp.write_u32(working_set_lines);
            }
            AccessPattern::Zipf {
                universe_lines,
                alpha_x100,
            } => {
                fp.write_u64(2);
                fp.write_u32(universe_lines);
                fp.write_u32(alpha_x100);
            }
            AccessPattern::Tiled {
                tile_lines,
                reuse_factor,
            } => {
                fp.write_u64(3);
                fp.write_u32(tile_lines);
                fp.write_u32(reuse_factor);
            }
        }
    }

    /// The line offset (within the phase's region) of load `i` issued by
    /// `warp`, out of `warps` total.
    #[must_use]
    pub fn line_offset(&self, i: u64, warp: u64, warps: u64, seed: u64) -> u64 {
        match *self {
            AccessPattern::Stream => {
                // Disjoint slices (within the 24-bit region offset space):
                // warp w covers [w << 17, (w + 1) << 17).
                (warp << 17) + i
            }
            AccessPattern::UniformReuse { working_set_lines } => {
                mix64(seed ^ (i.wrapping_mul(warps) + warp).wrapping_mul(0x2545_f491_4f6c_dd1d))
                    % u64::from(working_set_lines.max(1))
            }
            AccessPattern::Zipf {
                universe_lines,
                alpha_x100,
            } => {
                let n = u64::from(universe_lines.max(1));
                let u = zipf_random(i, warp, seed);
                let rank = zipf_sample(u, n, alpha_x100);
                // Scatter ranks over lines with a bijection so hot ranks
                // do not all land in the first few cache sets (which would
                // bias any set-sampling scheme).
                scatter(rank, n, seed)
            }
            AccessPattern::Tiled {
                tile_lines,
                reuse_factor,
            } => {
                let tile_lines = u64::from(tile_lines.max(1));
                let span = tile_lines * u64::from(reuse_factor.max(1));
                // Stagger tile boundaries across warps (real blocks do not
                // cross tiles in lockstep); this also keeps the simulated
                // dynamics smooth instead of stampede-driven.
                let stagger = if warps > 1 { warp * span / warps } else { 0 };
                let tile = (i + stagger) / span;
                let r = mix64(seed ^ i ^ (warp << 40)) % tile_lines;
                tile * tile_lines + r
            }
        }
    }
}

/// Largest Zipf universe whose scatter permutation is tabulated (every
/// rank then fits a `u16`). Larger universes, which only hand-built specs
/// use, evaluate the Feistel network per op instead of allocating a table
/// proportional to the universe.
const MAX_TABULATED_UNIVERSE: u64 = 1 << 16;

/// An [`AccessPattern`] prepared for one phase: the phase seed is bound
/// and everything that depends only on the phase is computed once, so
/// [`PreparedPattern::line_offset`] returns exactly what
/// [`AccessPattern::line_offset`] returns for the same arguments, at a
/// fraction of the cost for Zipf phases.
#[derive(Debug, Clone)]
pub(crate) struct PreparedPattern {
    pattern: AccessPattern,
    seed: u64,
    /// Present for Zipf phases only.
    zipf: Option<PreparedZipf>,
}

/// A Zipf phase's prepared sampler and rank scatter.
#[derive(Debug, Clone)]
struct PreparedZipf {
    sampler: ZipfSampler,
    scatter: Scatter,
}

/// The rank → line bijection of one Zipf phase.
#[derive(Debug, Clone)]
enum Scatter {
    /// `table[rank] == scatter(rank, n, seed)` for every rank. The table
    /// depends only on the universe and the phase seed, not on the SM or
    /// warp, so a kernel builds it once and every warp's stream reads it.
    Table(Box<[u16]>),
    /// Universes above [`MAX_TABULATED_UNIVERSE`]: evaluated per op.
    Feistel {
        /// Universe size.
        n: u64,
    },
}

impl PreparedPattern {
    /// Prepares `pattern` for a phase whose loads use `seed` (the seed
    /// [`AccessPattern::line_offset`] would be called with).
    pub(crate) fn new(pattern: AccessPattern, seed: u64) -> PreparedPattern {
        let zipf = match pattern {
            AccessPattern::Zipf {
                universe_lines,
                alpha_x100,
            } => {
                let n = u64::from(universe_lines.max(1));
                let scatter = if n <= MAX_TABULATED_UNIVERSE {
                    Scatter::Table(scatter_table(n, seed))
                } else {
                    Scatter::Feistel { n }
                };
                Some(PreparedZipf {
                    sampler: ZipfSampler::new(n, alpha_x100),
                    scatter,
                })
            }
            _ => None,
        };
        PreparedPattern {
            pattern,
            seed,
            zipf,
        }
    }

    /// The line offset of load `i` issued by `warp`, out of `warps`:
    /// `self.pattern.line_offset(i, warp, warps, seed)` for the seed this
    /// pattern was prepared with.
    #[inline]
    pub(crate) fn line_offset(&self, i: u64, warp: u64, warps: u64) -> u64 {
        match &self.zipf {
            Some(zipf) => zipf.line_offset(i, warp, self.seed),
            None => self.pattern.line_offset(i, warp, warps, self.seed),
        }
    }
}

impl PreparedZipf {
    /// [`PreparedPattern::line_offset`] of a Zipf phase. Kept out of
    /// line: inlined, its `powf` call and table lookup bloat the op
    /// generator's hot loop and slow the other patterns' ops.
    #[inline(never)]
    fn line_offset(&self, i: u64, warp: u64, seed: u64) -> u64 {
        let rank = self.sampler.sample(zipf_random(i, warp, seed));
        match &self.scatter {
            Scatter::Table(table) => u64::from(table[rank as usize]),
            Scatter::Feistel { n } => scatter(rank, *n, seed),
        }
    }
}

/// The uniform random bits behind Zipf load `i` of `warp`.
#[inline]
fn zipf_random(i: u64, warp: u64, seed: u64) -> u64 {
    mix64(seed ^ (i * 0x9e37 + warp * 0x79b9) ^ 0x5a5a)
}

/// `scatter(rank, n, seed)` for every rank in `[0, n)`, `n ≤`
/// [`MAX_TABULATED_UNIVERSE`].
fn scatter_table(n: u64, seed: u64) -> Box<[u16]> {
    debug_assert!(n <= MAX_TABULATED_UNIVERSE);
    (0..n).map(|rank| scatter(rank, n, seed) as u16).collect()
}

/// A bijective scatter of `[0, n)` onto itself: a 3-round Feistel network
/// over the next power-of-two domain with cycle walking. Unlike an affine
/// map, this scrambles residues modulo small powers of two, so hot ranks
/// cannot correlate with cache-set indices.
fn scatter(x: u64, n: u64, seed: u64) -> u64 {
    if n <= 1 {
        return 0;
    }
    let bits = 64 - (n - 1).leading_zeros() as u64;
    let half = bits.div_ceil(2);
    let mask = (1u64 << half) - 1;
    let mut v = x;
    loop {
        let (mut l, mut r) = (v & mask, v >> half);
        for round in 0..3u64 {
            let f = mix64(r ^ seed.wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15))) & mask;
            (l, r) = (r, l ^ f);
        }
        v = (r << half) | l;
        if v < n {
            return v;
        }
    }
}

/// Samples a Zipf(α)-distributed rank in `[0, n)` from uniform random bits
/// using the inverse-CDF power-law approximation: rank ≈ n·u^(1/(1−α))
/// for α < 1, and a bounded harmonic approximation above. Exactness is
/// irrelevant — only the skew matters.
///
/// This is the reference definition; [`ZipfSampler`] evaluates the same
/// expression with its phase-constant terms hoisted.
fn zipf_sample(random: u64, n: u64, alpha_x100: u32) -> u64 {
    let u = ((random >> 11) as f64) / ((1u64 << 53) as f64); // [0, 1)
    let alpha = f64::from(alpha_x100) / 100.0;
    let rank = if (alpha - 1.0).abs() < 0.01 {
        // α ≈ 1: exponential of log-uniform.
        ((n as f64).powf(u) - 1.0).max(0.0)
    } else {
        let p = 1.0 - alpha;
        // Inverse CDF of f(x) ∝ x^-α on [1, n].
        let x = (u * ((n as f64).powf(p) - 1.0) + 1.0).powf(1.0 / p) - 1.0;
        x.max(0.0)
    };
    (rank as u64).min(n - 1)
}

/// [`zipf_sample`] for one `(n, α)`, with the terms that depend only on
/// them computed once. Every remaining f64 operation is the one
/// `zipf_sample` performs, on the same operands in the same order, so the
/// sampled ranks are bit-identical; each sample costs one `powf` instead
/// of two.
#[derive(Debug, Clone, Copy)]
struct ZipfSampler {
    /// `n - 1`, the largest rank.
    max_rank: u64,
    /// `n as f64`.
    n: f64,
    /// Whether α ≈ 1 (the log-uniform branch).
    harmonic: bool,
    /// `n^(1−α) − 1` (unused when `harmonic`).
    span: f64,
    /// `1/(1−α)` (unused when `harmonic`).
    inv_p: f64,
}

impl ZipfSampler {
    fn new(n: u64, alpha_x100: u32) -> ZipfSampler {
        let alpha = f64::from(alpha_x100) / 100.0;
        let p = 1.0 - alpha;
        let nf = n as f64;
        ZipfSampler {
            max_rank: n - 1,
            n: nf,
            harmonic: (alpha - 1.0).abs() < 0.01,
            span: nf.powf(p) - 1.0,
            inv_p: 1.0 / p,
        }
    }

    #[inline]
    fn sample(&self, random: u64) -> u64 {
        let u = ((random >> 11) as f64) / ((1u64 << 53) as f64); // [0, 1)
        let rank = if self.harmonic {
            (self.n.powf(u) - 1.0).max(0.0)
        } else {
            ((u * self.span + 1.0).powf(self.inv_p) - 1.0).max(0.0)
        };
        (rank as u64).min(self.max_rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Universe sizes around the edges that matter: degenerate universes,
    /// powers of two (the Feistel domain is exact, no cycle walking) and
    /// one past them (the most cycle walking), up to 2^20 — well past
    /// [`MAX_TABULATED_UNIVERSE`].
    fn universe() -> impl Strategy<Value = u32> {
        prop_oneof![
            Just(1u32),
            Just(2u32),
            Just(3u32),
            (0u32..=20).prop_map(|k| 1u32 << k),
            (0u32..=20).prop_map(|k| (1u32 << k) + 1),
        ]
    }

    /// Zipf exponents × 100, with the α ≈ 1 branch edges drawn often.
    fn alpha_x100() -> impl Strategy<Value = u32> {
        prop_oneof![0u32..=200, Just(99u32), Just(100u32), Just(101u32)]
    }

    fn pattern() -> impl Strategy<Value = AccessPattern> {
        (0u32..4, universe(), alpha_x100(), 0u32..9).prop_map(|(kind, n, alpha_x100, reuse)| {
            match kind {
                0 => AccessPattern::Stream,
                1 => AccessPattern::UniformReuse {
                    working_set_lines: n,
                },
                2 => AccessPattern::Zipf {
                    universe_lines: n,
                    alpha_x100,
                },
                _ => AccessPattern::Tiled {
                    tile_lines: n,
                    reuse_factor: reuse,
                },
            }
        })
    }

    proptest! {
        #[test]
        fn prepared_pattern_matches_reference(
            pattern in pattern(),
            seed in any::<u64>(),
            first in 0u64..1 << 32,
            warp in 0u64..64,
            warps in 1u64..=64,
        ) {
            let prepared = PreparedPattern::new(pattern, seed);
            // A run of consecutive loads per case amortises the table
            // build over many samples.
            for i in first..first + 64 {
                prop_assert_eq!(
                    prepared.line_offset(i, warp, warps),
                    pattern.line_offset(i, warp, warps, seed),
                    "{:?} seed {} load {} warp {}/{}", pattern, seed, i, warp, warps
                );
            }
        }

        #[test]
        fn zipf_sampler_matches_reference(
            n in universe(),
            alpha_x100 in alpha_x100(),
            random in any::<u64>(),
        ) {
            let n = u64::from(n);
            prop_assert_eq!(
                ZipfSampler::new(n, alpha_x100).sample(random),
                zipf_sample(random, n, alpha_x100)
            );
        }
    }

    #[test]
    fn scatter_tables_are_bijections_matching_scatter() {
        let mut universes = vec![1u64, 2, 3, 112, 384, 3072];
        for k in 1..=16 {
            universes.extend([(1u64 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        universes.retain(|&n| n <= MAX_TABULATED_UNIVERSE);
        for n in universes {
            for seed in [0u64, 7, 0x5eed << 48, u64::MAX] {
                let table = scatter_table(n, seed);
                assert_eq!(table.len() as u64, n);
                let mut seen = vec![false; table.len()];
                for (rank, &line) in table.iter().enumerate() {
                    assert_eq!(
                        u64::from(line),
                        scatter(rank as u64, n, seed),
                        "n {n} rank {rank}"
                    );
                    assert!(
                        !std::mem::replace(&mut seen[usize::from(line)], true),
                        "n {n}: {line} twice"
                    );
                }
            }
        }
    }

    #[test]
    fn only_universes_up_to_the_limit_are_tabulated() {
        let tabulated = |n: u32| {
            let zipf = AccessPattern::Zipf {
                universe_lines: n,
                alpha_x100: 90,
            };
            matches!(
                PreparedPattern::new(zipf, 1).zipf,
                Some(PreparedZipf {
                    scatter: Scatter::Table(_),
                    ..
                })
            )
        };
        assert!(tabulated(0) && tabulated(3072) && tabulated(1 << 16));
        assert!(!tabulated((1 << 16) + 1));
        let stream = PreparedPattern::new(AccessPattern::Stream, 1);
        assert!(stream.zipf.is_none());
    }

    #[test]
    fn stream_is_disjoint_across_warps() {
        let p = AccessPattern::Stream;
        let a: Vec<u64> = (0..100).map(|i| p.line_offset(i, 0, 4, 1)).collect();
        let b: Vec<u64> = (0..100).map(|i| p.line_offset(i, 1, 4, 1)).collect();
        assert!(a.iter().all(|x| !b.contains(x)));
        // And sequential within a warp.
        assert_eq!(a[1], a[0] + 1);
    }

    #[test]
    fn uniform_reuse_stays_in_working_set() {
        let p = AccessPattern::UniformReuse {
            working_set_lines: 64,
        };
        for i in 0..1000 {
            assert!(p.line_offset(i, 3, 8, 42) < 64);
        }
    }

    #[test]
    fn uniform_reuse_covers_working_set() {
        let p = AccessPattern::UniformReuse {
            working_set_lines: 32,
        };
        let seen: std::collections::HashSet<u64> =
            (0..2000).map(|i| p.line_offset(i, 0, 1, 7)).collect();
        assert_eq!(seen.len(), 32);
    }

    /// Mass carried by the `k` most frequent lines of 20k samples.
    fn top_k_mass(p: &AccessPattern, k: usize) -> usize {
        let mut counts = std::collections::HashMap::new();
        for i in 0..20_000u64 {
            *counts.entry(p.line_offset(i, 0, 1, 3)).or_insert(0usize) += 1;
        }
        let mut v: Vec<usize> = counts.into_values().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v.into_iter().take(k).sum()
    }

    #[test]
    fn zipf_is_skewed() {
        let p = AccessPattern::Zipf {
            universe_lines: 1024,
            alpha_x100: 90,
        };
        // The 32 hottest lines (of 1024) must carry a large share.
        assert!(top_k_mass(&p, 32) > 20_000 / 4);
        for i in 0..2000 {
            assert!(p.line_offset(i, 0, 1, 3) < 1024);
        }
    }

    #[test]
    fn zipf_alpha_controls_skew() {
        let flat = AccessPattern::Zipf {
            universe_lines: 1024,
            alpha_x100: 20,
        };
        let skewed = AccessPattern::Zipf {
            universe_lines: 1024,
            alpha_x100: 110,
        };
        assert!(top_k_mass(&skewed, 64) > top_k_mass(&flat, 64) * 2);
    }

    #[test]
    fn zipf_hot_lines_spread_over_sets() {
        // The hottest lines must not cluster in the low line numbers
        // (set-sampling bias).
        let p = AccessPattern::Zipf {
            universe_lines: 512,
            alpha_x100: 100,
        };
        let mut counts = std::collections::HashMap::new();
        for i in 0..20_000u64 {
            *counts.entry(p.line_offset(i, 0, 1, 3)).or_insert(0usize) += 1;
        }
        let mut hot: Vec<(usize, u64)> = counts.into_iter().map(|(l, c)| (c, l)).collect();
        hot.sort_unstable_by(|a, b| b.cmp(a));
        let low_sets = hot
            .iter()
            .take(16)
            .filter(|&&(_, line)| line % 32 < 4)
            .count();
        assert!(low_sets <= 8, "hot lines clustered in low sets: {low_sets}/16");
    }

    #[test]
    fn tiled_advances_through_tiles() {
        let p = AccessPattern::Tiled {
            tile_lines: 16,
            reuse_factor: 4,
        };
        // First 64 loads stay in tile 0, next 64 in tile 1.
        for i in 0..64 {
            assert!(p.line_offset(i, 0, 1, 9) < 16);
        }
        for i in 64..128 {
            let off = p.line_offset(i, 0, 1, 9);
            assert!((16..32).contains(&off));
        }
    }
}
