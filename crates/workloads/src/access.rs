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
//! the same offsets bit for bit. A Zipf draw is looked up in its
//! `(universe, α)`'s [`ZipfTable`] of rank steps, one per benchmark
//! build; only draws in a narrow guard band around a step evaluate the
//! reference's `powf`.

use crate::values::mix64;
use std::sync::Arc;

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

/// Largest Zipf universe whose scatter permutation and rank steps are
/// tabulated (every rank then fits a `u16`). Larger universes, which only
/// hand-built specs use, evaluate the Feistel network and the `powf` per
/// op instead of allocating tables proportional to the universe.
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
    /// [`AccessPattern::line_offset`] would be called with), taking a
    /// Zipf phase's sampler from `samplers`.
    pub(crate) fn new(
        pattern: AccessPattern,
        seed: u64,
        samplers: &mut ZipfSamplers,
    ) -> PreparedPattern {
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
                    sampler: samplers.get(n, alpha_x100),
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
    /// line: inlined, its two table lookups and the rank scan bloat the
    /// op generator's hot loop and slow the other patterns' ops.
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
/// This is the reference definition; [`ZipfSampler`] returns the same
/// rank from a [`ZipfTable`] or from this expression with its
/// phase-constant terms hoisted.
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

/// [`zipf_sample`] for one `(n, α)`: a [`ZipfTable`] lookup, or the
/// reference expression with the terms that depend only on `(n, α)`
/// computed once. Every f64 operation left on that path is the one
/// `zipf_sample` performs, on the same operands in the same order, so
/// the sampled ranks are bit-identical either way.
#[derive(Debug, Clone)]
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
    /// The rank steps, for `3 ≤ n ≤` [`MAX_TABULATED_UNIVERSE`].
    table: Option<Arc<ZipfTable>>,
}

impl ZipfSampler {
    fn new(n: u64, alpha_x100: u32) -> ZipfSampler {
        let alpha = f64::from(alpha_x100) / 100.0;
        let p = 1.0 - alpha;
        let nf = n as f64;
        let mut sampler = ZipfSampler {
            max_rank: n - 1,
            n: nf,
            harmonic: (alpha - 1.0).abs() < 0.01,
            span: nf.powf(p) - 1.0,
            inv_p: 1.0 / p,
            table: None,
        };
        if (3..=MAX_TABULATED_UNIVERSE).contains(&n) {
            sampler.table = Some(Arc::new(ZipfTable::new(&sampler, p)));
        }
        sampler
    }

    #[inline]
    fn sample(&self, random: u64) -> u64 {
        match self.table.as_ref().and_then(|table| table.rank(random)) {
            Some(rank) => rank,
            None => self.sample_powf(random),
        }
    }

    /// [`zipf_sample`] with the phase-constant terms hoisted: one `powf`
    /// instead of two. Out of line, since tabulated universes take it
    /// for a few draws in a million.
    #[cold]
    #[inline(never)]
    fn sample_powf(&self, random: u64) -> u64 {
        let u = ((random >> 11) as f64) / ((1u64 << 53) as f64); // [0, 1)
        let rank = if self.harmonic {
            (self.n.powf(u) - 1.0).max(0.0)
        } else {
            ((u * self.span + 1.0).powf(self.inv_p) - 1.0).max(0.0)
        };
        (rank as u64).min(self.max_rank)
    }
}

/// Keys within this many of a rank step's key fall back to the `powf`
/// (see [`ZipfTable::rank`]).
const GUARD_KEYS: u32 = 2;

/// The rank steps of one `(n, α)`, `3 ≤ n ≤` [`MAX_TABULATED_UNIVERSE`],
/// which turn a [`zipf_sample`] draw into a guide lookup and a short
/// scan. They do not depend on the seed, so a benchmark builds one table
/// per distinct `(n, α)` and its phases share it (see [`ZipfSamplers`]).
///
/// `zipf_sample`'s rank is `⌊y⌋ − 1` for the `y` its `powf` returns (the
/// subtraction is exact), so it steps exactly where `y` reaches an
/// integer: rank `r ≥ 1` begins where `y = r + 1`, at the draw fraction
/// `u_r = ((r+1)^(1−α) − 1)/(n^(1−α) − 1)`, or `ln(r+1)/ln n` when
/// α ≈ 1. Draws are compared by their key, the top 32 bits of the 53-bit
/// draw; a draw whose key lies within [`GUARD_KEYS`] of a step's key is
/// left to the `powf`. Every other draw lies at least 2^21 draws from
/// the step, far beyond where rounding (the crossing's own, the two
/// flops before the reference's `powf`, and libm's `powf`) can move it,
/// so its rank is the reference's. DESIGN.md §2.4 has the bound.
#[derive(Debug)]
struct ZipfTable {
    /// `crossings[r]` for `1 ≤ r ≤ n − 2`: `⌊2^32·u_r⌋`, the key in
    /// which rank `r` begins. `crossings[0] = 0`, and `crossings[n − 1]`
    /// is `u32::MAX`: rank `n − 1` begins at `u = 1`, past every key, so
    /// it also ends every scan. Non-decreasing.
    crossings: Box<[u32]>,
    /// `guide[j]`: the rank of key `j << shift` (the number of crossings
    /// before it), where a draw's scan starts. About two buckets per
    /// rank, so a scan passes half a crossing on average.
    guide: Box<[u16]>,
    /// `32 − log2(guide.len())`.
    shift: u32,
}

impl ZipfTable {
    /// The table of `sampler`'s `(n, α)`, whose exponent is `p = 1 − α`:
    /// one `powf` (or `ln`) per rank.
    fn new(sampler: &ZipfSampler, p: f64) -> ZipfTable {
        let max_rank = sampler.max_rank as usize;
        debug_assert!((2..MAX_TABULATED_UNIVERSE as usize).contains(&max_rank));
        let crossings: Box<[u32]> = (0..=max_rank)
            .map(|r| {
                if r == 0 {
                    return 0;
                }
                if r == max_rank {
                    return u32::MAX;
                }
                let step = (r + 1) as f64;
                let u = if sampler.harmonic {
                    step.ln() / sampler.n.ln()
                } else {
                    (step.powf(p) - 1.0) / sampler.span
                };
                // Saturates at u32::MAX should rounding put u at 1.
                (u * 4_294_967_296.0) as u32
            })
            .collect();
        debug_assert!(crossings.is_sorted());
        let buckets = (2 * max_rank + 2).next_power_of_two();
        let shift = 32 - buckets.trailing_zeros();
        let mut rank = 0;
        let guide = (0..buckets)
            .map(|j| {
                let first = (j as u32) << shift;
                while crossings[rank + 1] < first {
                    rank += 1;
                }
                rank as u16
            })
            .collect();
        ZipfTable {
            crossings,
            guide,
            shift,
        }
    }

    /// The rank `zipf_sample` draws from `random`, or `None` when the
    /// draw's key lies within [`GUARD_KEYS`] of a step.
    #[inline]
    fn rank(&self, random: u64) -> Option<u64> {
        let key = (random >> 32) as u32;
        let mut rank = usize::from(self.guide[(key >> self.shift) as usize]);
        while self.crossings[rank + 1] < key {
            rank += 1;
        }
        // The scan leaves crossings[rank] < key ≤ crossings[rank + 1]
        // (or rank 0), so neither subtraction wraps.
        let clear = key - self.crossings[rank] >= GUARD_KEYS
            && self.crossings[rank + 1] - key >= GUARD_KEYS;
        clear.then_some(rank as u64)
    }
}

/// The Zipf samplers of one benchmark build, one per distinct
/// `(universe, α)`: every phase of every kernel with that pair shares
/// its [`ZipfTable`].
#[derive(Debug, Default)]
pub(crate) struct ZipfSamplers(Vec<((u64, u32), ZipfSampler)>);

impl ZipfSamplers {
    /// The sampler of `(n, α)`, built on its first request.
    fn get(&mut self, n: u64, alpha_x100: u32) -> ZipfSampler {
        let key = (n, alpha_x100);
        if let Some((_, sampler)) = self.0.iter().find(|(k, _)| *k == key) {
            return sampler.clone();
        }
        let sampler = ZipfSampler::new(n, alpha_x100);
        self.0.push((key, sampler.clone()));
        sampler
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
            let prepared = PreparedPattern::new(pattern, seed, &mut ZipfSamplers::default());
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
                PreparedPattern::new(zipf, 1, &mut ZipfSamplers::default()).zipf,
                Some(PreparedZipf {
                    scatter: Scatter::Table(_),
                    ..
                })
            )
        };
        assert!(tabulated(0) && tabulated(3072) && tabulated(1 << 16));
        assert!(!tabulated((1 << 16) + 1));
        let stream = PreparedPattern::new(AccessPattern::Stream, 1, &mut ZipfSamplers::default());
        assert!(stream.zipf.is_none());
    }

    /// Every distinct `(universe, α)` of the Zipf phases in the suites.
    fn suite_zipf_pairs() -> Vec<(u64, u32)> {
        let mut pairs = Vec::new();
        for bench in crate::suite().into_iter().chain(crate::write_heavy_suite()) {
            for phase in bench.kernels.iter().flat_map(|k| &k.phases) {
                if let AccessPattern::Zipf {
                    universe_lines,
                    alpha_x100,
                } = phase.pattern
                {
                    let pair = (u64::from(universe_lines.max(1)), alpha_x100);
                    if !pairs.contains(&pair) {
                        pairs.push(pair);
                    }
                }
            }
        }
        pairs
    }

    /// Random bits whose 53-bit draw is `draw`.
    fn bits(draw: u64) -> u64 {
        draw << 11
    }

    /// The first 53-bit draw `zipf_sample` maps to `rank` or above
    /// (`2^53` if none), found by bisection.
    fn true_step(n: u64, alpha_x100: u32, rank: u64) -> u64 {
        let (mut lo, mut hi) = (0u64, 1u64 << 53);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if zipf_sample(bits(mid), n, alpha_x100) >= rank {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    #[test]
    fn suite_zipf_pairs_are_tabulated() {
        let pairs = suite_zipf_pairs();
        assert!(pairs.len() >= 13, "{pairs:?}");
        assert!(pairs.contains(&(768, 100)), "the α ≈ 1 branch");
        for (n, alpha_x100) in pairs {
            assert!(ZipfSampler::new(n, alpha_x100).table.is_some(), "n {n}");
        }
    }

    #[test]
    fn zipf_table_matches_reference_around_every_step() {
        for (n, alpha_x100) in suite_zipf_pairs() {
            let sampler = ZipfSampler::new(n, alpha_x100);
            for rank in 1..n {
                let step = true_step(n, alpha_x100, rank);
                for draw in step.saturating_sub(256)..(step + 257).min(1 << 53) {
                    assert_eq!(
                        sampler.sample(bits(draw)),
                        zipf_sample(bits(draw), n, alpha_x100),
                        "n {n} α×100 {alpha_x100} rank {rank} draw {draw}"
                    );
                }
            }
        }
    }

    #[test]
    fn zipf_table_matches_reference_at_guard_band_edges() {
        for (n, alpha_x100) in suite_zipf_pairs() {
            let sampler = ZipfSampler::new(n, alpha_x100);
            let table = sampler.table.as_deref().unwrap();
            for &crossing in &table.crossings[1..] {
                // The band around a crossing key c is keys c − 1 ..= c + 1:
                // its first draw and the one before it, its last draw and
                // the one after it.
                let key = u64::from(crossing);
                let first = key.saturating_sub(u64::from(GUARD_KEYS) - 1) << 21;
                let end = (key + u64::from(GUARD_KEYS)) << 21;
                for (draw, inside) in [
                    (first.wrapping_sub(1), false),
                    (first, true),
                    (end - 1, true),
                    (end, false),
                ] {
                    if draw >= 1 << 53 {
                        continue;
                    }
                    let random = bits(draw);
                    if inside {
                        assert_eq!(table.rank(random), None, "n {n} draw {draw}");
                    }
                    assert_eq!(
                        sampler.sample(random),
                        zipf_sample(random, n, alpha_x100),
                        "n {n} α×100 {alpha_x100} draw {draw}"
                    );
                }
            }
        }
    }

    #[test]
    fn zipf_table_matches_reference_on_random_draws() {
        for (n, alpha_x100) in suite_zipf_pairs() {
            let sampler = ZipfSampler::new(n, alpha_x100);
            for i in 0..1_000_000u64 {
                let random = mix64(i ^ n << 40 ^ u64::from(alpha_x100) << 20);
                assert_eq!(
                    sampler.sample(random),
                    zipf_sample(random, n, alpha_x100),
                    "n {n} α×100 {alpha_x100} random {random:#x}"
                );
            }
        }
    }

    #[test]
    fn tiny_and_huge_universes_take_the_reference_path() {
        for n in [1, 2, MAX_TABULATED_UNIVERSE + 1] {
            let sampler = ZipfSampler::new(n, 90);
            assert!(sampler.table.is_none(), "n {n}");
            for i in 0..1000u64 {
                let random = mix64(i);
                assert_eq!(sampler.sample(random), zipf_sample(random, n, 90));
            }
        }
        assert!(ZipfSampler::new(3, 90).table.is_some());
        assert!(ZipfSampler::new(MAX_TABULATED_UNIVERSE, 90).table.is_some());
    }

    #[test]
    fn samplers_share_one_table_per_universe_and_alpha() {
        let mut samplers = ZipfSamplers::default();
        let table = |sampler: ZipfSampler| sampler.table.unwrap();
        let a = table(samplers.get(384, 95));
        assert!(Arc::ptr_eq(&a, &table(samplers.get(384, 95))));
        assert!(!Arc::ptr_eq(&a, &table(samplers.get(384, 90))));
        assert!(!Arc::ptr_eq(&a, &table(samplers.get(385, 95))));
        assert_eq!(samplers.0.len(), 3);
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
        assert!(
            low_sets <= 8,
            "hot lines clustered in low sets: {low_sets}/16"
        );
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
