//! Frequent Pattern Compression (FPC) — Alameldeen & Wood, ISCA 2004.
//!
//! Each 32-bit word is encoded with a 3-bit prefix selecting one of eight
//! patterns (zero runs, sign-extended narrow values, half-word patterns,
//! repeated bytes, or raw). FPC exploits spatial value locality at word
//! granularity; per Table I it achieves lower compression ratios than BDI
//! on GPGPU data but is included as a characterised comparison point.

use crate::bitstream::{BitCounter, BitReader, BitSink, BitWriter};
use crate::error::DecodeError;
use crate::line::CacheLine;
use crate::{stats, Compression, Compressor, Cycles};

/// 3-bit FPC prefixes (Table 1 of the FPC paper).
mod prefix {
    pub const ZERO_RUN: u64 = 0b000;
    pub const SE_4BIT: u64 = 0b001;
    pub const SE_8BIT: u64 = 0b010;
    pub const SE_16BIT: u64 = 0b011;
    pub const HALF_PADDED: u64 = 0b100; // lower half zero, upper half stored
    pub const HALF_SE_BYTES: u64 = 0b101; // two half-words, each a sign-extended byte
    pub const REP_BYTES: u64 = 0b110; // word = one byte repeated 4x
    pub const RAW: u64 = 0b111;
}

const MAX_ZERO_RUN: u32 = 8;

/// The FPC compressor.
///
/// # Example
///
/// ```
/// use latte_compress::{CacheLine, Compressor, Fpc};
///
/// let line = CacheLine::zeroed();
/// // 32 zero words collapse into four 8-word zero runs: 4 * 6 bits -> 3 bytes.
/// assert_eq!(Fpc::new().compress(&line).size_bytes(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fpc {
    _private: (),
}

impl Fpc {
    /// Creates an FPC compressor.
    #[must_use]
    pub fn new() -> Fpc {
        Fpc::default()
    }

    /// Encodes a line into an FPC bitstream (the payload path: shadow
    /// roundtrips, fault injection, and round-trip tests; the simulator's
    /// size probes use [`Compressor::probe`]).
    #[must_use]
    pub fn encode(&self, line: &CacheLine) -> BitWriter {
        let t = stats::start();
        let mut w = BitWriter::new();
        self.encode_into(line, &mut w);
        stats::record_encode(t);
        w
    }

    /// Encodes `line` into any [`BitSink`]. The simulator's per-line hot
    /// path drives a counting sink, so the common case allocates nothing.
    pub fn encode_into<S: BitSink>(&self, line: &CacheLine, w: &mut S) {
        let words = line.to_u32_words();
        let mut i = 0;
        while i < words.len() {
            let word = words[i];
            if word == 0 {
                let mut run = 1u32;
                while run < MAX_ZERO_RUN && i + (run as usize) < words.len() && words[i + run as usize] == 0
                {
                    run += 1;
                }
                w.write_bits(prefix::ZERO_RUN, 3);
                w.write_bits(u64::from(run - 1), 3);
                i += run as usize;
                continue;
            }
            encode_word(w, word);
            i += 1;
        }
    }

    /// Decodes an FPC bitstream produced by [`Fpc::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the bitstream is truncated or a
    /// zero run overshoots the fixed line size.
    pub fn decode(&self, w: &BitWriter) -> Result<CacheLine, DecodeError> {
        let t = stats::start();
        let result = self.decode_impl(w);
        stats::record_decode(t);
        result
    }

    fn decode_impl(&self, w: &BitWriter) -> Result<CacheLine, DecodeError> {
        let mut r = BitReader::new(w.as_slice(), w.bit_len());
        let mut words = [0u32; CacheLine::NUM_U32_WORDS];
        let mut len = 0usize;
        while len < CacheLine::NUM_U32_WORDS {
            let p = r.try_read_bits(3)?;
            if p == prefix::ZERO_RUN {
                let run = r.try_read_bits(3)? as usize + 1;
                if len + run > CacheLine::NUM_U32_WORDS {
                    return Err(DecodeError::LengthMismatch {
                        algo: "FPC",
                        expected: CacheLine::NUM_U32_WORDS,
                        actual: len + run,
                    });
                }
                // The array is zero-initialized; a run just advances.
                len += run;
                continue;
            }
            words[len] = match p {
                prefix::SE_4BIT => se_bits(r.try_read_bits(4)?, 4),
                prefix::SE_8BIT => se_bits(r.try_read_bits(8)?, 8),
                prefix::SE_16BIT => se_bits(r.try_read_bits(16)?, 16),
                prefix::HALF_PADDED => (r.try_read_bits(16)? as u32) << 16,
                prefix::HALF_SE_BYTES => {
                    let hi = se_bits(r.try_read_bits(8)?, 8) & 0xffff;
                    let lo = se_bits(r.try_read_bits(8)?, 8) & 0xffff;
                    hi << 16 | lo
                }
                prefix::REP_BYTES => {
                    let b = r.try_read_bits(8)? as u32;
                    b * 0x0101_0101
                }
                prefix::RAW => r.try_read_bits(32)? as u32,
                _ => unreachable!("3-bit prefix"),
            };
            len += 1;
        }
        Ok(CacheLine::from_u32_words(&words))
    }
}

fn encode_word<S: BitSink>(w: &mut S, word: u32) {
    let sword = word as i32;
    if (-8..8).contains(&sword) {
        w.write_bits(prefix::SE_4BIT, 3);
        w.write_bits(u64::from(word & 0xf), 4);
    } else if (-128..128).contains(&sword) {
        w.write_bits(prefix::SE_8BIT, 3);
        w.write_bits(u64::from(word & 0xff), 8);
    } else if (-32768..32768).contains(&sword) {
        w.write_bits(prefix::SE_16BIT, 3);
        w.write_bits(u64::from(word & 0xffff), 16);
    } else if word & 0xffff == 0 {
        w.write_bits(prefix::HALF_PADDED, 3);
        w.write_bits(u64::from(word >> 16), 16);
    } else if half_words_are_se_bytes(word) {
        w.write_bits(prefix::HALF_SE_BYTES, 3);
        w.write_bits(u64::from((word >> 16) & 0xff), 8);
        w.write_bits(u64::from(word & 0xff), 8);
    } else if is_repeated_bytes(word) {
        w.write_bits(prefix::REP_BYTES, 3);
        w.write_bits(u64::from(word & 0xff), 8);
    } else {
        w.write_bits(prefix::RAW, 3);
        w.write_bits(u64::from(word), 32);
    }
}

fn se_bits(v: u64, bits: u32) -> u32 {
    let shift = 32 - bits;
    (((v as u32) << shift) as i32 >> shift) as u32
}

fn half_words_are_se_bytes(word: u32) -> bool {
    let hi = (word >> 16) as u16 as i16;
    let lo = word as u16 as i16;
    (-128..128).contains(&hi) && (-128..128).contains(&lo)
}

fn is_repeated_bytes(word: u32) -> bool {
    let b = word & 0xff;
    word == b * 0x0101_0101
}

impl Compressor for Fpc {
    fn name(&self) -> &'static str {
        "FPC"
    }

    fn compress(&self, line: &CacheLine) -> Compression {
        // Size-only probe: count bits without materializing the stream.
        let t = stats::start();
        let mut c = BitCounter::new();
        self.encode_into(line, &mut c);
        stats::record_probe(t);
        Compression::new(c.byte_len())
    }

    fn decompression_latency(&self) -> Cycles {
        5
    }

    fn compression_latency(&self) -> Cycles {
        5
    }

    fn compression_energy_nj(&self) -> f64 {
        // Scaled between BDI and SC by circuit complexity (Table I: "High").
        0.25
    }

    fn decompression_energy_nj(&self) -> f64 {
        0.12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(line: &CacheLine) -> usize {
        let fpc = Fpc::new();
        let w = fpc.encode(line);
        assert_eq!(fpc.decode(&w).as_ref(), Ok(line));
        w.byte_len()
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let fpc = Fpc::new();
        let w = fpc.encode(&CacheLine::from_u32_words(&[0xdead_beef; 32]));
        let mut cut = BitWriter::new();
        let mut r = BitReader::new(w.as_slice(), w.bit_len());
        for _ in 0..w.bit_len() / 2 {
            cut.write_bit(r.read_bit());
        }
        assert!(matches!(
            fpc.decode(&cut),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn overshooting_zero_run_is_an_error() {
        // 31 single-word zero runs then a run of 8 words: 31 + 8 > 32.
        let mut w = BitWriter::new();
        for _ in 0..31 {
            w.write_bits(prefix::ZERO_RUN, 3);
            w.write_bits(0, 3);
        }
        w.write_bits(prefix::ZERO_RUN, 3);
        w.write_bits(7, 3);
        assert!(matches!(
            Fpc::new().decode(&w),
            Err(DecodeError::LengthMismatch { algo: "FPC", .. })
        ));
    }

    #[test]
    fn zero_line_collapses_to_runs() {
        assert_eq!(round_trip(&CacheLine::zeroed()), 3);
    }

    #[test]
    fn small_signed_values() {
        let words: Vec<u32> = (0..32).map(|i: i32| (i - 16) as u32).collect();
        let size = round_trip(&CacheLine::from_u32_words(&words));
        // Mostly 4/8-bit sign-extended encodings: far below 128 bytes.
        assert!(size < 64, "got {size}");
    }

    #[test]
    fn half_padded_pattern() {
        let words = [0xabcd_0000u32; 32];
        let size = round_trip(&CacheLine::from_u32_words(&words));
        assert_eq!(size, (32 * 19usize).div_ceil(8));
    }

    #[test]
    fn repeated_byte_pattern() {
        let words = [0x4747_4747u32; 32];
        let size = round_trip(&CacheLine::from_u32_words(&words));
        assert_eq!(size, (32 * 11usize).div_ceil(8));
    }

    #[test]
    fn half_se_bytes_pattern() {
        // 0x00ff00fe: halves 0x00ff (=255, not a SE byte) — ensure the
        // encoder handles borderline half-word cases by round-tripping.
        let words = [0x0042_0017u32; 32];
        let size = round_trip(&CacheLine::from_u32_words(&words));
        assert_eq!(size, (32 * 19usize).div_ceil(8));
    }

    #[test]
    fn incompressible_words_cost_35_bits() {
        let words: Vec<u32> = (0..32).map(|i| 0x9e37_79b9u32.wrapping_mul(i * 2 + 12345) | 1).collect();
        let line = CacheLine::from_u32_words(&words);
        let size = round_trip(&line);
        assert!(size > CacheLine::SIZE_BYTES, "raw words carry prefix overhead, got {size}");
        assert!(!Fpc::new().compress(&line).is_compressed());
    }

    #[test]
    fn mixed_line_round_trips() {
        let mut words = vec![0u32; 8];
        words.extend((0..8).map(|i| i * 1000));
        words.extend([0xdead_beef; 8]);
        words.extend([0x7f7f_7f7f; 8]);
        round_trip(&CacheLine::from_u32_words(&words));
    }
}
