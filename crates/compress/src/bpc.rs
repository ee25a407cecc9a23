//! Bit-Plane Compression (BPC) — Kim et al., ISCA 2016.
//!
//! BPC targets homogeneously-typed data arrays (the common case for GPU
//! memory). A line is viewed as 32 32-bit words; consecutive words are
//! delta-encoded (31 deltas of 33 bits), the delta array is transposed into
//! 33 bit-planes of 31 bits (Delta-BitPlane, DBP), and adjacent planes are
//! XORed (DBX). For regular data (constant strides, shared exponents, low
//! bit variance) almost every DBX plane collapses to zero or near-zero and
//! is coded in a handful of bits.
//!
//! The paper's Table I lists BPC with an 11-cycle decompression latency and
//! compression ratios comparable to SC, making it the alternative
//! high-capacity mode studied in §V-E (Fig 18).

use crate::bitstream::{BitCounter, BitReader, BitSink, BitWriter};
use crate::error::DecodeError;
use crate::line::CacheLine;
use crate::{stats, Compression, Compressor, Cycles};

const NUM_DELTAS: usize = CacheLine::NUM_U32_WORDS - 1; // 31
const NUM_PLANES: usize = 33; // 33-bit signed deltas
const PLANE_MASK: u32 = (1 << NUM_DELTAS) - 1;

/// The BPC compressor.
///
/// # Example
///
/// ```
/// use latte_compress::{Bpc, CacheLine, Compressor};
///
/// // A constant-stride index array: all deltas equal, DBX almost all zero.
/// let words: Vec<u32> = (0..32).map(|i| 0x4000_0000 + i * 4).collect();
/// let line = CacheLine::from_u32_words(&words);
/// assert!(Bpc::new().compress(&line).size_bytes() <= 16);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bpc {
    _private: (),
}

impl Bpc {
    /// Creates a BPC compressor.
    #[must_use]
    pub fn new() -> Bpc {
        Bpc::default()
    }

    /// Encodes a line into a BPC bitstream (the payload path; the
    /// simulator's size probes use [`Compressor::probe`] instead).
    #[must_use]
    pub fn encode(&self, line: &CacheLine) -> BitWriter {
        let t = stats::start();
        let mut w = BitWriter::new();
        self.encode_into(line, &mut w);
        stats::record_encode(t);
        w
    }

    /// Encodes `line` into any [`BitSink`]. This is the reference
    /// encoder: it materialises the DBP/DBX transforms plane by plane.
    /// The size-only hot path is [`Compressor::probe`], which computes
    /// the identical bit count via a word-wide bit-matrix transpose
    /// without the per-bit plane loop; the property suite pins the two
    /// against each other.
    pub fn encode_into<S: BitSink>(&self, line: &CacheLine, w: &mut S) {
        let words = line.to_u32_words();
        encode_base(w, words[0]);

        let dbp = to_bit_planes(&words);
        // DBX planes, iterated from the sign plane (32) down to plane 0.
        // dbx[b] = dbp[b] ^ dbp[b+1]; the topmost plane is sent as-is.
        let mut b = NUM_PLANES as isize - 1;
        while b >= 0 {
            let (dbx, cur_dbp) = dbx_at(&dbp, b as usize);
            if dbx == 0 {
                // Count the zero run (including this plane).
                let mut run = 1usize;
                while b - (run as isize) >= 0 {
                    let (next_dbx, _) = dbx_at(&dbp, (b - run as isize) as usize);
                    if next_dbx != 0 || run == NUM_PLANES {
                        break;
                    }
                    run += 1;
                }
                if run >= 2 {
                    w.write_bits(0b01, 2);
                    w.write_bits((run - 2) as u64, 6);
                } else {
                    w.write_bits(0b001, 3);
                }
                b -= run as isize;
                continue;
            }
            if dbx == PLANE_MASK {
                w.write_bits(0b00000, 5);
            } else if cur_dbp == 0 {
                w.write_bits(0b00001, 5);
            } else if let Some(pos) = two_consecutive_ones(dbx) {
                w.write_bits(0b00010, 5);
                w.write_bits(pos as u64, 5);
            } else if dbx.count_ones() == 1 {
                w.write_bits(0b00011, 5);
                w.write_bits(u64::from(dbx.trailing_zeros()), 5);
            } else {
                w.write_bit(true);
                w.write_bits(u64::from(dbx), NUM_DELTAS as u32);
            }
            b -= 1;
        }
    }

    /// Exact encoded size of `line` in bits, computed without touching a
    /// [`BitSink`] or materialising the DBP planes.
    ///
    /// Folding the DBP→DBX XOR into each delta — `e_j = d_j ^ (d_j >> 1)`
    /// — makes bit `b` of `e_j` exactly bit `j` of DBX plane `b`, so one
    /// 32×32 bit-matrix transpose of the `e` rows yields every DBX plane
    /// at once. Plane classification then needs only the plane values, an
    /// OR-mask of the deltas (`DBP plane b == 0` ⟺ bit `b` clear), and a
    /// nonzero-plane mask for run scanning.
    fn probe_size_bits(&self, line: &CacheLine) -> usize {
        let words = line.to_u32_words();
        let mut bits = base_cost_bits(words[0]);

        let mut planes = [0u32; 32]; // rows e_j in, DBX planes 0..=31 out
        let mut sign_plane = 0u32; // DBX plane 32, gathered from e_j bit 32
        let mut or_d = 0u64; // bit b set ⟺ DBP plane b nonzero
        for j in 0..NUM_DELTAS {
            let d = (i64::from(words[j + 1]) - i64::from(words[j])) as u64 & 0x1_ffff_ffff;
            or_d |= d;
            let e = d ^ (d >> 1);
            planes[j] = e as u32;
            sign_plane |= (((e >> 32) & 1) as u32) << j;
        }
        // planes[31] stays 0 (only 31 deltas), so after the transpose
        // every plane keeps bit 31 clear — within PLANE_MASK.
        transpose32(&mut planes);

        let mut nonzero = 0u64;
        for (b, &p) in planes.iter().enumerate() {
            if p != 0 {
                nonzero |= 1 << b;
            }
        }
        if sign_plane != 0 {
            nonzero |= 1 << 32;
        }

        let mut b = NUM_PLANES as isize - 1;
        while b >= 0 {
            let below = nonzero & ((1u64 << (b + 1)) - 1);
            if below >> b == 0 {
                // Zero-DBX run down to the next nonzero plane (or the end).
                let run = if below == 0 {
                    b + 1
                } else {
                    b - (63 - below.leading_zeros() as isize)
                };
                bits += if run >= 2 { 8 } else { 3 };
                b -= run;
                continue;
            }
            let dbx = if b as usize == NUM_PLANES - 1 {
                sign_plane
            } else {
                planes[b as usize]
            };
            // Mirrors the encoder's branch order; equal-cost branches
            // (PLANE_MASK / DBP=0 at 5 bits, two-ones / one-one at 10)
            // collapse into one test each.
            if dbx == PLANE_MASK || (or_d >> b) & 1 == 0 {
                bits += 5;
            } else if two_consecutive_ones(dbx).is_some() || dbx.count_ones() == 1 {
                bits += 10;
            } else {
                bits += 1 + NUM_DELTAS;
            }
            b -= 1;
        }
        bits
    }

    /// Decodes a bitstream produced by [`Bpc::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the bitstream is truncated, a zero
    /// run overshoots the plane count, or an unused code word appears.
    pub fn decode(&self, w: &BitWriter) -> Result<CacheLine, DecodeError> {
        let t = stats::start();
        let result = self.decode_impl(w);
        stats::record_decode(t);
        result
    }

    fn decode_impl(&self, w: &BitWriter) -> Result<CacheLine, DecodeError> {
        let mut r = BitReader::new(w.as_slice(), w.bit_len());
        let base = decode_base(&mut r)?;

        let mut dbp = [0u32; NUM_PLANES];
        let mut b = NUM_PLANES as isize - 1;
        let mut prev_dbp = 0u32; // dbp[b + 1]; zero above the top plane
        while b >= 0 {
            if r.try_read_bit()? {
                // '1': raw DBX plane.
                let dbx = r.try_read_bits(NUM_DELTAS as u32)? as u32;
                prev_dbp ^= dbx;
                dbp[b as usize] = prev_dbp;
                b -= 1;
                continue;
            }
            if r.try_read_bit()? {
                // '01': zero-DBX run.
                let run = r.try_read_bits(6)? as isize + 2;
                if run > b + 1 {
                    return Err(DecodeError::LengthMismatch {
                        algo: "BPC",
                        expected: (b + 1) as usize,
                        actual: run as usize,
                    });
                }
                for i in 0..run {
                    // dbx == 0 means dbp[b] == dbp[b+1].
                    dbp[(b - i) as usize] = prev_dbp;
                }
                b -= run;
                continue;
            }
            if r.try_read_bit()? {
                // '001': single zero-DBX plane.
                dbp[b as usize] = prev_dbp;
                b -= 1;
                continue;
            }
            // '000xx': one of the four 5-bit codes.
            let dbx = match r.try_read_bits(2)? {
                0b00 => PLANE_MASK,
                0b01 => {
                    // DBP == 0: dbx must equal prev_dbp, and the encoder
                    // never uses this code when the resulting DBX is zero.
                    if prev_dbp == 0 {
                        return Err(DecodeError::InvalidCode {
                            algo: "BPC",
                            detail: "DBP=0 code with zero previous plane",
                        });
                    }
                    prev_dbp
                }
                0b10 => {
                    let pos = r.try_read_bits(5)? as u32;
                    0b11 << pos
                }
                0b11 => 1 << (r.try_read_bits(5)? as u32),
                _ => unreachable!("2-bit code"),
            };
            prev_dbp ^= dbx;
            dbp[b as usize] = prev_dbp;
            b -= 1;
        }

        Ok(CacheLine::from_u32_words(&from_bit_planes(base, &dbp)))
    }
}

/// Transposes the 31 word-deltas into 33 bit-planes of 31 bits each.
fn to_bit_planes(words: &[u32]) -> [u32; NUM_PLANES] {
    let mut dbp = [0u32; NUM_PLANES];
    for j in 0..NUM_DELTAS {
        let delta = i64::from(words[j + 1]) - i64::from(words[j]);
        let delta33 = (delta as u64) & 0x1_ffff_ffff;
        for (b, plane) in dbp.iter_mut().enumerate() {
            if (delta33 >> b) & 1 == 1 {
                *plane |= 1 << j;
            }
        }
    }
    dbp
}

/// Inverse of [`to_bit_planes`], rebuilding the words from base + planes.
fn from_bit_planes(base: u32, dbp: &[u32; NUM_PLANES]) -> [u32; CacheLine::NUM_U32_WORDS] {
    let mut words = [0u32; CacheLine::NUM_U32_WORDS];
    words[0] = base;
    for j in 0..NUM_DELTAS {
        let mut delta33 = 0u64;
        for (b, plane) in dbp.iter().enumerate() {
            if (plane >> j) & 1 == 1 {
                delta33 |= 1 << b;
            }
        }
        // Sign-extend from 33 bits.
        let delta = ((delta33 << 31) as i64) >> 31;
        let prev = i64::from(words[j]);
        words[j + 1] = (prev + delta) as u32;
    }
    words
}

/// Returns `(dbx, dbp)` at plane `b`, where `dbx = dbp[b] ^ dbp[b+1]` and
/// the plane above the sign plane is implicitly zero.
fn dbx_at(dbp: &[u32; NUM_PLANES], b: usize) -> (u32, u32) {
    let above = if b + 1 < NUM_PLANES { dbp[b + 1] } else { 0 };
    (dbp[b] ^ above, dbp[b])
}

/// If `plane` has exactly two set bits and they are adjacent, returns the
/// position of the lower one.
fn two_consecutive_ones(plane: u32) -> Option<u32> {
    if plane.count_ones() == 2 {
        let pos = plane.trailing_zeros();
        if plane == 0b11 << pos {
            return Some(pos);
        }
    }
    None
}

fn encode_base<S: BitSink>(w: &mut S, base: u32) {
    let signed = base as i32;
    if base == 0 {
        w.write_bits(0b000, 3);
    } else if (-8..8).contains(&signed) {
        w.write_bits(0b001, 3);
        w.write_bits(u64::from(base & 0xf), 4);
    } else if (-128..128).contains(&signed) {
        w.write_bits(0b010, 3);
        w.write_bits(u64::from(base & 0xff), 8);
    } else if (-32768..32768).contains(&signed) {
        w.write_bits(0b011, 3);
        w.write_bits(u64::from(base & 0xffff), 16);
    } else {
        w.write_bits(0b111, 3);
        w.write_bits(u64::from(base), 32);
    }
}

fn decode_base(r: &mut BitReader<'_>) -> Result<u32, DecodeError> {
    match r.try_read_bits(3)? {
        0b000 => Ok(0),
        0b001 => Ok(sign_extend32(r.try_read_bits(4)? as u32, 4)),
        0b010 => Ok(sign_extend32(r.try_read_bits(8)? as u32, 8)),
        0b011 => Ok(sign_extend32(r.try_read_bits(16)? as u32, 16)),
        0b111 => Ok(r.try_read_bits(32)? as u32),
        _ => Err(DecodeError::InvalidCode {
            algo: "BPC",
            detail: "unused base prefix",
        }),
    }
}

fn sign_extend32(v: u32, bits: u32) -> u32 {
    let shift = 32 - bits;
    ((v << shift) as i32 >> shift) as u32
}

/// Bits [`encode_base`] writes for `base`, without writing them.
fn base_cost_bits(base: u32) -> usize {
    let signed = base as i32;
    if base == 0 {
        3
    } else if (-8..8).contains(&signed) {
        7
    } else if (-128..128).contains(&signed) {
        11
    } else if (-32768..32768).contains(&signed) {
        19
    } else {
        35
    }
}

/// In-place 32×32 bit-matrix transpose (Hacker's Delight §7-3, adapted
/// to LSB-first column numbering): afterwards, bit `j` of word `b`
/// equals bit `b` of input word `j`. Runs in 5 swap stages — O(32·log 32)
/// word operations instead of the 32×32 per-bit gather.
fn transpose32(a: &mut [u32; 32]) {
    let mut j = 16usize;
    let mut m = 0x0000_ffffu32;
    while j != 0 {
        let mut k = 0usize;
        while k < 32 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k + j] ^= t;
            a[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

impl Compressor for Bpc {
    fn name(&self) -> &'static str {
        "BPC"
    }

    fn compress(&self, line: &CacheLine) -> Compression {
        // Reference size path: count bits through the real encoder.
        let t = stats::start();
        let mut c = BitCounter::new();
        self.encode_into(line, &mut c);
        stats::record_probe(t);
        Compression::new(c.byte_len())
    }

    fn probe(&self, line: &CacheLine) -> Compression {
        let t = stats::start();
        let bits = self.probe_size_bits(line);
        stats::record_probe(t);
        Compression::new(bits.div_ceil(8))
    }

    fn decompression_latency(&self) -> Cycles {
        11
    }

    fn compression_latency(&self) -> Cycles {
        11
    }

    fn compression_energy_nj(&self) -> f64 {
        0.36
    }

    fn decompression_energy_nj(&self) -> f64 {
        0.27
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(line: &CacheLine) -> usize {
        let bpc = Bpc::new();
        let w = bpc.encode(line);
        assert_eq!(bpc.decode(&w).as_ref(), Ok(line));
        // The mask-based probe must agree bit-for-bit with the stream.
        assert_eq!(bpc.probe_size_bits(line), w.bit_len());
        assert_eq!(bpc.probe(line), bpc.compress(line));
        w.byte_len()
    }

    #[test]
    fn transpose32_matches_reference_gather() {
        let mut a = [0u32; 32];
        let mut state = 0x1234_5678u32;
        for row in a.iter_mut() {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            *row = state;
        }
        let orig = a;
        transpose32(&mut a);
        for (b, plane) in a.iter().enumerate() {
            for (j, word) in orig.iter().enumerate() {
                assert_eq!(
                    (plane >> j) & 1,
                    (word >> b) & 1,
                    "plane {b} bit {j}"
                );
            }
        }
        // Transposing twice is the identity.
        transpose32(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn base_cost_matches_encoder() {
        for base in [
            0u32, 1, 7, 8, 0xffff_fff8, 0xffff_fff7, 127, 128, 0xffff_ff80,
            32767, 32768, 0xffff_8000, 0xdead_beef, u32::MAX,
        ] {
            let mut c = BitCounter::new();
            encode_base(&mut c, base);
            assert_eq!(base_cost_bits(base), c.bit_len(), "base {base:#x}");
        }
    }

    #[test]
    fn probe_parity_on_adversarial_planes() {
        // Lines engineered to hit each plane-classification branch: all
        // ones, DBP=0 transitions, adjacent pairs, single bits, raw.
        let cases: Vec<Vec<u32>> = vec![
            (0..32).map(|i| i * 2).collect(), // constant stride
            (0..32).map(|i| if i % 2 == 0 { 0 } else { u32::MAX }).collect(), // all-ones deltas
            (0..32).map(|i| 1u32 << (i % 31)).collect(), // walking bit
            (0..32).map(|i| 3u32 << (i % 30)).collect(), // walking pair
            (0..32).map(|i| 0x9e37_79b9u32.wrapping_mul(i)).collect(), // noisy
            vec![0x8000_0000; 32], // sign-plane stress
            (0..32).map(|i: i32| (i - 16) as u32).collect(), // negative deltas
        ];
        for words in cases {
            round_trip(&CacheLine::from_u32_words(&words));
        }
    }

    #[test]
    fn unused_base_prefix_is_an_error() {
        for prefix in [0b100u64, 0b101, 0b110] {
            let mut w = BitWriter::new();
            w.write_bits(prefix, 3);
            assert!(matches!(
                Bpc::new().decode(&w),
                Err(DecodeError::InvalidCode { algo: "BPC", .. })
            ));
        }
    }

    #[test]
    fn overshooting_zero_run_is_an_error() {
        // A zero base, one single zero plane, then a 64-plane run: only
        // 32 planes remain, so the run overshoots.
        let mut w = BitWriter::new();
        w.write_bits(0b000, 3);
        w.write_bits(0b001, 3);
        w.write_bits(0b01, 2);
        w.write_bits(62, 6); // run = 64
        assert!(matches!(
            Bpc::new().decode(&w),
            Err(DecodeError::LengthMismatch { algo: "BPC", .. })
        ));
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let bpc = Bpc::new();
        let words: Vec<u32> = (0..32u32)
            .map(|i| 0x9e37_79b9u32.wrapping_mul(i ^ 0x55aa))
            .collect();
        let w = bpc.encode(&CacheLine::from_u32_words(&words));
        let mut cut = BitWriter::new();
        let mut r = BitReader::new(w.as_slice(), w.bit_len());
        for _ in 0..w.bit_len() / 3 {
            cut.write_bit(r.read_bit());
        }
        assert!(bpc.decode(&cut).is_err());
    }

    #[test]
    fn zero_line() {
        // Base 3 bits + one full zero-DBX run (2 + 6 bits) = 11 bits.
        assert_eq!(round_trip(&CacheLine::zeroed()), 2);
    }

    #[test]
    fn constant_stride_indices() {
        let words: Vec<u32> = (0..32).map(|i| 0x4000_0000 + i * 4).collect();
        let size = round_trip(&CacheLine::from_u32_words(&words));
        assert!(size <= 16, "constant stride should be tiny, got {size}");
    }

    #[test]
    fn repeated_word() {
        let words = vec![0xdead_beefu32; 32];
        let size = round_trip(&CacheLine::from_u32_words(&words));
        assert!(size <= 8, "zero deltas, got {size}");
    }

    #[test]
    fn low_variance_integers() {
        let words: Vec<u32> = (0..32u32)
            .map(|i| 5000 + (i.wrapping_mul(2654435761u32.wrapping_mul(i)) >> 27))
            .collect();
        let size = round_trip(&CacheLine::from_u32_words(&words));
        assert!(size < 64, "small noisy ints compress, got {size}");
    }

    #[test]
    fn shared_exponent_floats() {
        // Floats in [1, 2): same sign+exponent, noisy mantissa. BPC strips
        // the shared top bits; mantissa planes stay raw.
        let words: Vec<u32> = (0..32u32)
            .map(|i| f32::to_bits(1.0 + (i as f32) * 0.013))
            .collect();
        let size = round_trip(&CacheLine::from_u32_words(&words));
        assert!(size < CacheLine::SIZE_BYTES, "got {size}");
    }

    #[test]
    fn random_line_round_trips() {
        let words: Vec<u32> = (0..32u32)
            .map(|i| 0x9e37_79b9u32.wrapping_mul(i ^ 0xabcd_1234).rotate_left(i))
            .collect();
        round_trip(&CacheLine::from_u32_words(&words));
    }

    #[test]
    fn negative_deltas() {
        let words: Vec<u32> = (0..32).map(|i| 0x8000_0000u32 - i * 128).collect();
        let size = round_trip(&CacheLine::from_u32_words(&words));
        assert!(size < 32, "got {size}");
    }

    #[test]
    fn base_encodings_round_trip() {
        for base in [0u32, 5, 0xffff_fffb, 100, 0xffff_ff00, 30000, 0xdead_beef] {
            let mut words = vec![base; 32];
            words[1] = base.wrapping_add(1);
            round_trip(&CacheLine::from_u32_words(&words));
        }
    }
}
