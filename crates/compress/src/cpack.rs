//! C-PACK dictionary compression with zero-line detection (CPACK-Z) —
//! Chen et al., IEEE TVLSI 2010, extended with the zero-block detector the
//! LATTE-CC paper cites alongside it.
//!
//! C-PACK processes a line as 32-bit words against a small FIFO dictionary
//! seeded per line. Each word is coded as: all-zero, full dictionary match,
//! partial (3- or 2-byte) match with the low bytes spelled out, a
//! zero-prefixed byte, or raw. Full and partial matches exploit *temporal*
//! value locality within and across words of the line.
//!
//! The encoder is staged: [`CpackZ::encode_into`] is generic over
//! [`BitSink`], so the cache's per-fill size probe drives an inline
//! [`BitCounter`](crate::BitCounter) (no payload bits, no allocation —
//! the dictionary is a fixed array) while the payload paths (shadow
//! roundtrip, fault injection, round-trip tests) drive a [`BitWriter`].

use crate::bitstream::{BitCounter, BitReader, BitSink, BitWriter};
use crate::error::DecodeError;
use crate::line::CacheLine;
use crate::{stats, Compression, Compressor, Cycles};

/// Number of dictionary entries (16 x 4-byte words, per the C-PACK paper).
const DICT_ENTRIES: usize = 16;

/// Code words (pattern, code-length-in-bits excluding payload).
mod code {
    /// `00` — word is all zeros.
    pub const ZZZZ: u64 = 0b00;
    /// `01` — no match; 32 raw bits follow.
    pub const XXXX: u64 = 0b01;
    /// `10` — full match; 4-bit dictionary index follows.
    pub const MMMM: u64 = 0b10;
    /// `1100` — upper-2-byte match; 4-bit index + 16 raw bits follow.
    pub const MMXX: u64 = 0b1100;
    /// `1101` — three zero bytes; 8 raw bits follow.
    pub const ZZZX: u64 = 0b1101;
    /// `1110` — upper-3-byte match; 4-bit index + 8 raw bits follow.
    pub const MMMX: u64 = 0b1110;
}

/// The C-PACK+Z compressor.
///
/// # Example
///
/// ```
/// use latte_compress::{CacheLine, Compressor, CpackZ};
///
/// // A line repeating one word compresses via full dictionary matches:
/// // one raw insertion, then 31 six-bit `mmmm` codes.
/// let line = CacheLine::from_u32_words(&[0x12345678; 32]);
/// assert_eq!(CpackZ::new().compress(&line).size_bytes(), 28);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpackZ {
    _private: (),
}

/// The per-line FIFO dictionary. Encode and decode must perform identical
/// updates or round-tripping breaks, so the logic lives in one place.
///
/// Storage is a fixed inline array — seeding a dictionary per line is the
/// innermost loop of every compressibility probe and must not touch the
/// heap.
#[derive(Debug)]
struct Dictionary {
    entries: [u32; DICT_ENTRIES],
    len: usize,
    next: usize,
}

impl Default for Dictionary {
    fn default() -> Dictionary {
        Dictionary {
            entries: [0; DICT_ENTRIES],
            len: 0,
            next: 0,
        }
    }
}

impl Dictionary {
    /// Empties the dictionary for the next line without touching the
    /// entry array (`len` gates every read).
    fn reset(&mut self) {
        self.len = 0;
        self.next = 0;
    }

    fn push(&mut self, word: u32) {
        if self.len < DICT_ENTRIES {
            self.entries[self.len] = word;
            self.len += 1;
        } else {
            self.entries[self.next] = word;
            self.next = (self.next + 1) % DICT_ENTRIES;
        }
    }

    fn full_match(&self, word: u32) -> Option<usize> {
        self.entries[..self.len].iter().position(|&e| e == word)
    }

    fn match_high_bytes(&self, word: u32, bytes: u32) -> Option<usize> {
        let mask = !0u32 << (8 * (4 - bytes));
        self.entries[..self.len]
            .iter()
            .position(|&e| e & mask == word & mask)
    }

    /// Looks up `idx`, failing on indexes past the entries inserted so
    /// far — reachable only from corrupted streams.
    fn get(&self, idx: usize) -> Result<u32, DecodeError> {
        self.entries[..self.len]
            .get(idx)
            .copied()
            .ok_or(DecodeError::CorruptMetadata {
                algo: "C-PACK",
                detail: "dictionary index beyond inserted entries",
            })
    }
}

impl CpackZ {
    /// Creates a C-PACK+Z compressor.
    #[must_use]
    pub fn new() -> CpackZ {
        CpackZ::default()
    }

    /// Encodes a line into a C-PACK bitstream (the payload path; the
    /// simulator's size probes use [`Compressor::probe`] instead).
    #[must_use]
    pub fn encode(&self, line: &CacheLine) -> BitWriter {
        let t = stats::start();
        let mut w = BitWriter::new();
        let mut dict = Dictionary::default();
        self.encode_with(line, &mut w, &mut dict);
        stats::record_encode(t);
        w
    }

    /// Encodes `line` into any [`BitSink`]: real bits for a
    /// [`BitWriter`], a pure bit count for a
    /// [`BitCounter`](crate::BitCounter). One implementation serves both,
    /// so probe/encode size parity holds by construction.
    pub fn encode_into<S: BitSink>(&self, line: &CacheLine, w: &mut S) {
        let mut dict = Dictionary::default();
        self.encode_with(line, w, &mut dict);
    }

    /// [`CpackZ::encode_into`] against a caller-owned dictionary, so
    /// batch probes reuse one dictionary across a burst. `dict` is reset
    /// before use.
    fn encode_with<S: BitSink>(&self, line: &CacheLine, w: &mut S, dict: &mut Dictionary) {
        // Zero-line detection: a single bit flags the all-zero line.
        if line.is_zero() {
            w.write_bit(true);
            return;
        }
        w.write_bit(false);
        dict.reset();
        for word in line.to_u32_words() {
            if word == 0 {
                w.write_bits(code::ZZZZ, 2);
            } else if let Some(idx) = dict.full_match(word) {
                w.write_bits(code::MMMM, 2);
                w.write_bits(idx as u64, 4);
            } else if word & 0xffff_ff00 == 0 {
                w.write_bits(code::ZZZX, 4);
                w.write_bits(u64::from(word & 0xff), 8);
                dict.push(word);
            } else if let Some(idx) = dict.match_high_bytes(word, 3) {
                w.write_bits(code::MMMX, 4);
                w.write_bits(idx as u64, 4);
                w.write_bits(u64::from(word & 0xff), 8);
                dict.push(word);
            } else if let Some(idx) = dict.match_high_bytes(word, 2) {
                w.write_bits(code::MMXX, 4);
                w.write_bits(idx as u64, 4);
                w.write_bits(u64::from(word & 0xffff), 16);
                dict.push(word);
            } else {
                w.write_bits(code::XXXX, 2);
                w.write_bits(u64::from(word), 32);
                dict.push(word);
            }
        }
    }

    /// Decodes a bitstream produced by [`CpackZ::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the bitstream is truncated, uses the
    /// unassigned `1111` code, or references a dictionary entry that was
    /// never inserted.
    pub fn decode(&self, w: &BitWriter) -> Result<CacheLine, DecodeError> {
        let t = stats::start();
        let result = self.decode_impl(w);
        stats::record_decode(t);
        result
    }

    fn decode_impl(&self, w: &BitWriter) -> Result<CacheLine, DecodeError> {
        let mut r = BitReader::new(w.as_slice(), w.bit_len());
        if r.try_read_bit()? {
            return Ok(CacheLine::zeroed());
        }
        let mut dict = Dictionary::default();
        let mut words = [0u32; CacheLine::NUM_U32_WORDS];
        for slot in &mut words {
            let word = match r.try_read_bits(2)? {
                code::ZZZZ => 0,
                code::XXXX => {
                    let word = r.try_read_bits(32)? as u32;
                    dict.push(word);
                    word
                }
                code::MMMM => dict.get(r.try_read_bits(4)? as usize)?,
                0b11 => {
                    // Extended 4-bit codes: read the remaining 2 bits.
                    let full = 0b1100 | r.try_read_bits(2)?;
                    match full {
                        code::MMXX => {
                            let idx = r.try_read_bits(4)? as usize;
                            let low = r.try_read_bits(16)? as u32;
                            let word = (dict.get(idx)? & 0xffff_0000) | low;
                            dict.push(word);
                            word
                        }
                        code::ZZZX => {
                            let word = r.try_read_bits(8)? as u32;
                            dict.push(word);
                            word
                        }
                        code::MMMX => {
                            let idx = r.try_read_bits(4)? as usize;
                            let low = r.try_read_bits(8)? as u32;
                            let word = (dict.get(idx)? & 0xffff_ff00) | low;
                            dict.push(word);
                            word
                        }
                        _ => {
                            return Err(DecodeError::InvalidCode {
                                algo: "C-PACK",
                                detail: "unassigned code 1111",
                            })
                        }
                    }
                }
                _ => unreachable!("2-bit code"),
            };
            *slot = word;
        }
        Ok(CacheLine::from_u32_words(&words))
    }
}

impl Compressor for CpackZ {
    fn name(&self) -> &'static str {
        "CPACK-Z"
    }

    fn compress(&self, line: &CacheLine) -> Compression {
        // Size-only probe: drive the shared encoder with a counting sink.
        let t = stats::start();
        let mut c = BitCounter::new();
        self.encode_into(line, &mut c);
        stats::record_probe(t);
        Compression::new(c.byte_len())
    }

    fn decompression_latency(&self) -> Cycles {
        8
    }

    fn compression_latency(&self) -> Cycles {
        8
    }

    fn compression_energy_nj(&self) -> f64 {
        0.31
    }

    fn decompression_energy_nj(&self) -> f64 {
        0.18
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(line: &CacheLine) -> usize {
        let c = CpackZ::new();
        let w = c.encode(line);
        assert_eq!(c.decode(&w).as_ref(), Ok(line));
        // The counting probe must agree with the materialised stream.
        assert_eq!(
            c.probe(line).size_bytes(),
            Compression::new(w.byte_len()).size_bytes()
        );
        w.byte_len()
    }

    #[test]
    fn unassigned_code_1111_is_an_error() {
        let mut w = BitWriter::new();
        w.write_bit(false); // not the zero line
        w.write_bits(0b1111, 4);
        assert!(matches!(
            CpackZ::new().decode(&w),
            Err(DecodeError::InvalidCode { algo: "C-PACK", .. })
        ));
    }

    #[test]
    fn dangling_dictionary_index_is_an_error() {
        // A full-match code before anything was inserted.
        let mut w = BitWriter::new();
        w.write_bit(false);
        w.write_bits(code::MMMM, 2);
        w.write_bits(9, 4);
        assert!(matches!(
            CpackZ::new().decode(&w),
            Err(DecodeError::CorruptMetadata { algo: "C-PACK", .. })
        ));
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let mut w = BitWriter::new();
        w.write_bit(false);
        w.write_bits(code::XXXX, 2); // promises 32 raw bits, delivers none
        assert!(matches!(
            CpackZ::new().decode(&w),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn zero_line_is_one_bit() {
        assert_eq!(round_trip(&CacheLine::zeroed()), 1);
    }

    #[test]
    fn repeated_word_uses_full_matches() {
        let line = CacheLine::from_u32_words(&[0xcafe_babe; 32]);
        // 1 flag + 34 (xxxx) + 31 * 6 (mmmm) bits = 221 bits = 28 bytes.
        assert_eq!(round_trip(&line), 28);
    }

    #[test]
    fn partial_match_mmmx() {
        let words: Vec<u32> = (0..32).map(|i| 0x1234_5600 | i).collect();
        let size = round_trip(&CacheLine::from_u32_words(&words));
        // First word raw, rest 16-bit mmmx codes: 1 + 34 + 31*16 bits = 67 bytes.
        assert_eq!(size, 67);
    }

    #[test]
    fn partial_match_mmxx() {
        let words: Vec<u32> = (0..32).map(|i| 0x1234_0000 | (i * 0x101)).collect();
        let size = round_trip(&CacheLine::from_u32_words(&words));
        assert!(size < CacheLine::SIZE_BYTES);
    }

    #[test]
    fn small_bytes_use_zzzx() {
        let words: Vec<u32> = (0..32).map(|i| i % 200).collect();
        let size = round_trip(&CacheLine::from_u32_words(&words));
        assert!(size < 52, "got {size}");
    }

    #[test]
    fn random_line_expands_to_uncompressed() {
        let words: Vec<u32> = (0..32u32)
            .map(|i| 0x9e37_79b9u32.wrapping_mul(i.wrapping_add(7).wrapping_mul(0x85eb_ca6b)) | 0x0101_0100)
            .collect();
        let line = CacheLine::from_u32_words(&words);
        let c = CpackZ::new().compress(&line);
        // Raw words cost 34 bits each: the clamp must kick in.
        assert!(!c.is_compressed() || c.size_bytes() < CacheLine::SIZE_BYTES);
        round_trip(&line);
    }

    #[test]
    fn dictionary_fifo_eviction_round_trips() {
        // More than 16 distinct words forces FIFO replacement; later
        // repetitions must still decode correctly.
        let mut words: Vec<u32> = (0..20).map(|i| 0xa000_0000 + i * 0x0101_0101).collect();
        words.extend_from_slice(&[0xa000_0000 + 18 * 0x0101_0101; 12]);
        round_trip(&CacheLine::from_u32_words(&words));
    }
}
