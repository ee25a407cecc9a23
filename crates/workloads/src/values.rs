//! Data-value generators: the synthetic stand-in for the benchmarks' real
//! memory contents.
//!
//! Compression behaviour is a function of the bytes in each cache line.
//! §II-A of the paper explains the two relevant axes:
//!
//! * **spatial value locality** — low variance between adjacent values
//!   (pointers, indices, small integers) → BDI/BPC/FPC compress well;
//! * **temporal value locality** — few distinct values recurring over time
//!   (quantised floats, categorical data) → SC/C-PACK compress well.
//!
//! Each profile below produces lines as a *pure function* of
//! `(line address, seed)`, so refills are deterministic and SC's trained
//! codebook stays meaningful across evictions.

use latte_cache::LineAddr;
use latte_compress::CacheLine;

/// Stateless 64-bit mixer (splitmix64 finaliser).
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A family of line contents with known compressibility structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueProfile {
    /// All-zero lines (freshly initialised arrays).
    Zeros,
    /// 32-bit integers uniform in `[0, max)` — spatial locality; also
    /// temporal locality when `max` is small enough to fit the VFT.
    SmallInts {
        /// Exclusive upper bound of the values.
        max: u32,
    },
    /// 64-bit pointers into a shared heap segment: a large common base
    /// with multi-byte offsets. Strong spatial locality (BDI's sweet
    /// spot), alphabet far too large for SC.
    Pointers,
    /// Monotonic 32-bit indices with `noise_bits` of low-bit jitter —
    /// BPC's sweet spot (constant deltas), decent for BDI.
    Indices {
        /// Nominal distance between consecutive words.
        stride: u32,
        /// Bits of additive noise per word.
        noise_bits: u32,
    },
    /// 32-bit floats drawn from a fixed alphabet of `alphabet` distinct
    /// values — high per-word bit variance (BDI-hostile) but strong
    /// temporal locality (SC's sweet spot).
    HotFloats {
        /// Number of distinct values in circulation (≤ the VFT capacity
        /// for full SC benefit).
        alphabet: u16,
    },
    /// Floats with fully random mantissas in a shared magnitude range —
    /// nearly incompressible (only the shared exponent bits help BPC a
    /// little).
    RandomFloats,
    /// ASCII text packed four bytes per word — weak, pattern-level
    /// compressibility only.
    Text,
}

impl ValueProfile {
    /// Folds this profile (discriminant + parameters) into a simulation
    /// fingerprint.
    pub fn write_fingerprint(&self, fp: &mut latte_gpusim::Fingerprinter) {
        match *self {
            ValueProfile::Zeros => fp.write_u64(0),
            ValueProfile::SmallInts { max } => {
                fp.write_u64(1);
                fp.write_u32(max);
            }
            ValueProfile::Pointers => fp.write_u64(2),
            ValueProfile::Indices { stride, noise_bits } => {
                fp.write_u64(3);
                fp.write_u32(stride);
                fp.write_u32(noise_bits);
            }
            ValueProfile::HotFloats { alphabet } => {
                fp.write_u64(4);
                fp.write_u32(u32::from(alphabet));
            }
            ValueProfile::RandomFloats => fp.write_u64(5),
            ValueProfile::Text => fp.write_u64(6),
        }
    }

    /// Generates the contents of `addr` under this profile.
    #[must_use]
    pub fn line(&self, addr: LineAddr, seed: u64) -> CacheLine {
        let base = mix64(addr.line_number() ^ seed.rotate_left(17));
        match *self {
            ValueProfile::Zeros => CacheLine::zeroed(),
            ValueProfile::SmallInts { max } => {
                let max = u64::from(max.max(1));
                CacheLine::from_u32_words(&u32_words(|i| (mix64(base ^ i) % max) as u32))
            }
            ValueProfile::Pointers => {
                // One small heap segment per line (objects from one
                // allocation site): strong intra-line spatial locality for
                // BDI, but no cross-line value reuse SC could table. An
                // eighth of the slots are null (list ends).
                let segment = 0x7f3a_0000_0000_0000u64
                    | ((mix64(base ^ 0x5e9_0001) & 0xffff) << 32)
                    | ((mix64(base ^ 0x5e9_0002) & 0xfff) << 20);
                let words: [u64; CacheLine::NUM_U64_WORDS] = std::array::from_fn(|i| {
                    let r = mix64(base ^ (i as u64 + 100));
                    if r.is_multiple_of(8) {
                        0
                    } else {
                        // 16 KiB object span: deltas fit two bytes.
                        segment + (r % 2048) * 8
                    }
                });
                CacheLine::from_u64_words(&words)
            }
            ValueProfile::Indices { stride, noise_bits } => {
                let start = (base as u32) & 0x00ff_ffff;
                let noise_mask = (1u32 << noise_bits.min(31)) - 1;
                CacheLine::from_u32_words(&u32_words(|i| {
                    let noise = (mix64(base ^ i ^ 0xabcd) as u32) & noise_mask;
                    start.wrapping_add(i as u32 * stride).wrapping_add(noise)
                }))
            }
            ValueProfile::HotFloats { alphabet } => {
                let alphabet = u64::from(alphabet.max(1));
                CacheLine::from_u32_words(&u32_words(|i| {
                    // Pick an alphabet slot, then derive a stable float
                    // for that slot from the *seed only* (not the
                    // address), so the same values recur everywhere.
                    let slot = mix64(base ^ (i * 7 + 13)) % alphabet;
                    let v = mix64(seed ^ (slot.wrapping_mul(0x5851_f42d_4c95_7f2d)));
                    // A plausible float: random sign/mantissa, bounded
                    // exponent.
                    let sign = (v & 1) << 31;
                    let exp = (96 + (v >> 1) % 64) << 23; // 2^-31 .. 2^32
                    let mantissa = (v >> 8) & 0x7f_ffff;
                    (sign | exp | mantissa) as u32
                }))
            }
            ValueProfile::RandomFloats => {
                CacheLine::from_u32_words(&u32_words(|i| {
                    let v = mix64(base ^ (i + 999));
                    let sign = (v & 1) << 31;
                    // Wide exponent spread: enough entropy in the top
                    // bits that even BPC's bit-plane transform finds
                    // nothing to strip.
                    let exp = (32 + (v >> 1) % 192) << 23;
                    let mantissa = (v >> 8) & 0x7f_ffff;
                    (sign | exp | mantissa) as u32
                }))
            }
            ValueProfile::Text => {
                let mut bytes = [0u8; CacheLine::SIZE_BYTES];
                for (i, b) in bytes.iter_mut().enumerate() {
                    let v = mix64(base ^ (i as u64 * 31));
                    // Mostly lowercase letters and spaces, like prose.
                    *b = match v % 8 {
                        0 => b' ',
                        1 => b'e',
                        2 => b't',
                        _ => b'a' + (v % 26) as u8,
                    };
                }
                CacheLine::from_bytes(bytes)
            }
        }
    }
}

/// The 32 words of a line, word `i` being `word(i)`; filled in place, so
/// generating a line allocates nothing.
#[inline]
fn u32_words(mut word: impl FnMut(u64) -> u32) -> [u32; CacheLine::NUM_U32_WORDS] {
    let mut words = [0u32; CacheLine::NUM_U32_WORDS];
    for (i, w) in words.iter_mut().enumerate() {
        *w = word(i as u64);
    }
    words
}

/// A region-aware generator: benchmarks often mix data types (e.g. a graph
/// kernel touching pointer adjacency lists *and* integer distance arrays).
/// The top address bits select a region, each with its own profile and an
/// optional fraction of all-zero lines.
#[derive(Debug, Clone)]
pub struct LineGenerator {
    regions: Vec<RegionSpec>,
    seed: u64,
}

/// One address region's value behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionSpec {
    /// The value profile of lines in this region.
    pub profile: ValueProfile,
    /// Percentage (0–100) of lines that are all zeros regardless of the
    /// profile (sparse/initialised-but-unused data).
    pub zero_percent: u8,
}

/// Bit position where the region id lives in a line address (bits 24–31;
/// SM-disjoint base addresses live at bit 32 and above).
pub const REGION_SHIFT: u32 = 24;

/// Mask for the 8-bit region field.
pub const REGION_MASK: u64 = 0xff;

impl LineGenerator {
    /// Creates a generator over `regions` (region `i` spans line addresses
    /// whose bits `[24..)` equal `i`, modulo the region count).
    ///
    /// # Panics
    ///
    /// Panics if `regions` is empty.
    #[must_use]
    pub fn new(regions: Vec<RegionSpec>, seed: u64) -> LineGenerator {
        assert!(!regions.is_empty(), "need at least one region");
        LineGenerator { regions, seed }
    }

    /// A single-region generator.
    #[must_use]
    pub fn uniform(profile: ValueProfile, seed: u64) -> LineGenerator {
        LineGenerator::new(
            vec![RegionSpec {
                profile,
                zero_percent: 0,
            }],
            seed,
        )
    }

    /// Number of address regions.
    #[cfg(test)]
    pub(crate) fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Folds every region and the seed into a simulation fingerprint.
    pub fn write_fingerprint(&self, fp: &mut latte_gpusim::Fingerprinter) {
        fp.write_usize(self.regions.len());
        for region in &self.regions {
            region.profile.write_fingerprint(fp);
            fp.write_u64(u64::from(region.zero_percent));
        }
        fp.write_u64(self.seed);
    }

    /// Generates the contents of `addr`.
    #[must_use]
    pub fn line(&self, addr: LineAddr) -> CacheLine {
        let region_id =
            ((addr.line_number() >> REGION_SHIFT) & REGION_MASK) as usize % self.regions.len();
        let region = &self.regions[region_id];
        if region.zero_percent > 0 {
            let roll = mix64(addr.line_number() ^ self.seed ^ 0x5eed) % 100;
            if roll < u64::from(region.zero_percent) {
                return CacheLine::zeroed();
            }
        }
        region
            .profile
            .line(addr, self.seed ^ (region_id as u64) << 56)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latte_compress::{Bdi, Bpc, Compressor, Sc, VftBuilder};
    use proptest::prelude::*;

    /// [`ValueProfile::line`] as it was written before lines were filled
    /// in place: every profile collects its words into a `Vec`. The
    /// reference the array-based version must reproduce byte for byte.
    fn line_reference(profile: ValueProfile, addr: LineAddr, seed: u64) -> CacheLine {
        let base = mix64(addr.line_number() ^ seed.rotate_left(17));
        match profile {
            ValueProfile::Zeros => CacheLine::zeroed(),
            ValueProfile::SmallInts { max } => {
                let max = max.max(1);
                let words: Vec<u32> = (0..32)
                    .map(|i| (mix64(base ^ i) % u64::from(max)) as u32)
                    .collect();
                CacheLine::from_u32_words(&words)
            }
            ValueProfile::Pointers => {
                let segment = 0x7f3a_0000_0000_0000u64
                    | ((mix64(base ^ 0x5e9_0001) & 0xffff) << 32)
                    | ((mix64(base ^ 0x5e9_0002) & 0xfff) << 20);
                let words: Vec<u64> = (0..16)
                    .map(|i| {
                        let r = mix64(base ^ (i + 100));
                        if r.is_multiple_of(8) {
                            0
                        } else {
                            segment + (r % 2048) * 8
                        }
                    })
                    .collect();
                CacheLine::from_u64_words(&words)
            }
            ValueProfile::Indices { stride, noise_bits } => {
                let start = (base as u32) & 0x00ff_ffff;
                let noise_mask = (1u32 << noise_bits.min(31)) - 1;
                let words: Vec<u32> = (0..32u32)
                    .map(|i| {
                        let noise = (mix64(base ^ u64::from(i) ^ 0xabcd) as u32) & noise_mask;
                        start.wrapping_add(i * stride).wrapping_add(noise)
                    })
                    .collect();
                CacheLine::from_u32_words(&words)
            }
            ValueProfile::HotFloats { alphabet } => {
                let alphabet = u64::from(alphabet.max(1));
                let words: Vec<u32> = (0..32)
                    .map(|i| {
                        let slot = mix64(base ^ (i * 7 + 13)) % alphabet;
                        let v = mix64(seed ^ (slot.wrapping_mul(0x5851_f42d_4c95_7f2d)));
                        let sign = (v & 1) << 31;
                        let exp = (96 + (v >> 1) % 64) << 23;
                        let mantissa = (v >> 8) & 0x7f_ffff;
                        (sign | exp | mantissa) as u32
                    })
                    .collect();
                CacheLine::from_u32_words(&words)
            }
            ValueProfile::RandomFloats => {
                let words: Vec<u32> = (0..32)
                    .map(|i| {
                        let v = mix64(base ^ (i + 999));
                        let sign = (v & 1) << 31;
                        let exp = (32 + (v >> 1) % 192) << 23;
                        let mantissa = (v >> 8) & 0x7f_ffff;
                        (sign | exp | mantissa) as u32
                    })
                    .collect();
                CacheLine::from_u32_words(&words)
            }
            // Text always filled a byte array in place.
            ValueProfile::Text => profile.line(addr, seed),
        }
    }

    fn profile() -> impl Strategy<Value = ValueProfile> {
        (0u32..7, any::<u32>(), 0u32..40, any::<u16>()).prop_map(|(kind, a, b, c)| match kind {
            0 => ValueProfile::Zeros,
            1 => ValueProfile::SmallInts { max: a },
            2 => ValueProfile::Pointers,
            3 => ValueProfile::Indices {
                stride: a % 4096,
                noise_bits: b,
            },
            4 => ValueProfile::HotFloats { alphabet: c },
            5 => ValueProfile::RandomFloats,
            _ => ValueProfile::Text,
        })
    }

    proptest! {
        #[test]
        fn in_place_lines_match_the_vec_reference(
            profile in profile(),
            line in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let addr = LineAddr::new(line);
            prop_assert_eq!(profile.line(addr, seed), line_reference(profile, addr, seed), "{:?}", profile);
        }
    }

    fn ratio_of(compressor: &dyn Compressor, profile: ValueProfile, n: u64) -> f64 {
        let total: usize = (0..n)
            .map(|i| {
                compressor
                    .compress(&profile.line(LineAddr::new(i), 42))
                    .size_bytes()
            })
            .sum();
        (n as usize * CacheLine::SIZE_BYTES) as f64 / total as f64
    }

    fn sc_trained(profile: ValueProfile, n: u64) -> Sc {
        let mut vft = VftBuilder::new();
        for i in 0..n {
            vft.observe_line(&profile.line(LineAddr::new(i), 42));
        }
        Sc::new(vft.build())
    }

    #[test]
    fn determinism() {
        for profile in [
            ValueProfile::SmallInts { max: 100 },
            ValueProfile::Pointers,
            ValueProfile::HotFloats { alphabet: 64 },
            ValueProfile::Text,
        ] {
            let a = profile.line(LineAddr::new(7), 1);
            let b = profile.line(LineAddr::new(7), 1);
            assert_eq!(a, b);
            let c = profile.line(LineAddr::new(8), 1);
            assert_ne!(a, c, "different addresses produce different data");
        }
    }

    #[test]
    fn pointers_favor_bdi_over_sc() {
        let profile = ValueProfile::Pointers;
        let bdi_ratio = ratio_of(&Bdi::new(), profile, 200);
        let sc = sc_trained(profile, 200);
        let sc_ratio = ratio_of(&sc, profile, 200);
        assert!(bdi_ratio > 1.4, "BDI on pointers: {bdi_ratio:.2}");
        assert!(
            bdi_ratio > sc_ratio,
            "BDI ({bdi_ratio:.2}) must beat SC ({sc_ratio:.2}) on pointers"
        );
    }

    #[test]
    fn hot_floats_favor_sc_over_bdi() {
        let profile = ValueProfile::HotFloats { alphabet: 64 };
        let bdi_ratio = ratio_of(&Bdi::new(), profile, 200);
        let sc = sc_trained(profile, 200);
        let sc_ratio = ratio_of(&sc, profile, 200);
        assert!(
            bdi_ratio < 1.2,
            "BDI on random-mantissa floats: {bdi_ratio:.2}"
        );
        assert!(sc_ratio > 2.0, "SC on a 64-value alphabet: {sc_ratio:.2}");
    }

    #[test]
    fn indices_favor_bpc() {
        let profile = ValueProfile::Indices {
            stride: 4,
            noise_bits: 1,
        };
        let bpc_ratio = ratio_of(&Bpc::new(), profile, 200);
        assert!(bpc_ratio > 3.0, "BPC on strided indices: {bpc_ratio:.2}");
    }

    #[test]
    fn random_floats_resist_compression() {
        let profile = ValueProfile::RandomFloats;
        let bdi_ratio = ratio_of(&Bdi::new(), profile, 200);
        let bpc_ratio = ratio_of(&Bpc::new(), profile, 200);
        let sc = sc_trained(profile, 200);
        let sc_ratio = ratio_of(&sc, profile, 200);
        assert!(bdi_ratio < 1.1, "BDI: {bdi_ratio:.2}");
        assert!(bpc_ratio < 1.15, "BPC: {bpc_ratio:.2}");
        assert!(sc_ratio < 1.3, "SC: {sc_ratio:.2}");
    }

    #[test]
    fn hot_float_alphabet_is_shared_across_lines() {
        // The same values must recur on different lines or SC's temporal
        // locality premise breaks.
        let profile = ValueProfile::HotFloats { alphabet: 8 };
        let mut seen = std::collections::HashSet::new();
        for i in 0..50 {
            for w in profile.line(LineAddr::new(i), 3).u32_words() {
                seen.insert(w);
            }
        }
        assert!(seen.len() <= 8, "alphabet leaked: {} distinct", seen.len());
    }

    #[test]
    fn regions_select_profiles() {
        let generator = LineGenerator::new(
            vec![
                RegionSpec {
                    profile: ValueProfile::Zeros,
                    zero_percent: 0,
                },
                RegionSpec {
                    profile: ValueProfile::Pointers,
                    zero_percent: 0,
                },
            ],
            9,
        );
        let region0 = generator.line(LineAddr::new(5));
        assert!(region0.is_zero());
        let region1 = generator.line(LineAddr::new((1 << REGION_SHIFT) + 5));
        assert!(!region1.is_zero());
    }

    #[test]
    fn zero_fraction_applies() {
        let generator = LineGenerator::new(
            vec![RegionSpec {
                profile: ValueProfile::RandomFloats,
                zero_percent: 50,
            }],
            11,
        );
        let zeros = (0..400)
            .filter(|&i| generator.line(LineAddr::new(i)).is_zero())
            .count();
        assert!((120..280).contains(&zeros), "got {zeros} zero lines");
    }
}
