//! Huffman-based Statistical Compression (SC) — Arelakis & Stenström,
//! ISCA 2014, with the LATTE-CC paper's GPU-specific revision (§IV-C2).
//!
//! SC exploits *temporal* value locality: frequent 32-bit values are
//! replaced with short Huffman codes. Code generation needs a trained
//! value-frequency table (VFT): a 1024-entry table with 12-bit saturating
//! counters, built by sampling inserted lines. The LATTE-CC revision
//! retrains the VFT each period (the controller drives retraining; this
//! module provides the mechanics):
//!
//! 1. sample lines into a [`VftBuilder`] during the training window,
//! 2. freeze it into an immutable [`ScCodebook`] (canonical Huffman codes
//!    plus an escape code for untabled values),
//! 3. compress with [`Sc`] until the next retraining point.

use crate::bitstream::{BitReader, BitWriter};
use crate::error::DecodeError;
use crate::line::CacheLine;
use crate::{stats, Compression, Compressor, Cycles};

/// Capacity of the value-frequency table (§IV-C2).
pub const VFT_ENTRIES: usize = 1024;

/// Saturation limit of the VFT's 12-bit counters.
pub const VFT_COUNTER_MAX: u32 = (1 << 12) - 1;

/// Longest permitted Huffman code. The builder degrades counter resolution
/// until all codes fit, which bounds decompressor pipeline depth.
const MAX_CODE_LEN: u32 = 27;

/// Length slots of the canonical decode tables (index = code length).
const LEN_SLOTS: usize = MAX_CODE_LEN as usize + 1;

/// Encode-table slots pack `code << LEN_BITS | len`; a zero length marks
/// an empty slot.
const LEN_BITS: u32 = 5;
const _: () = assert!(MAX_CODE_LEN < 1 << LEN_BITS && MAX_CODE_LEN + LEN_BITS <= 32);

/// Slots of the VFT's open-addressed index: twice its capacity, so the
/// table is never more than half full and probe runs stay short.
const VFT_SLOTS: usize = 2 * VFT_ENTRIES;

/// Home slot of `value` in a table of `2^(32 - shift)` slots (Fibonacci
/// hashing: the top bits of a multiplicative hash).
fn home_slot(value: u32, shift: u32) -> usize {
    (value.wrapping_mul(0x9e37_79b9) >> shift) as usize
}

/// Accumulates value frequencies from sampled cache lines.
///
/// A flat, fixed-capacity table like the hardware VFT: the distinct
/// values and their counters in first-observation order, indexed by an
/// open-addressed slot array.
///
/// # Example
///
/// ```
/// use latte_compress::{CacheLine, VftBuilder};
///
/// let mut vft = VftBuilder::new();
/// vft.observe_line(&CacheLine::from_u32_words(&[42; 32]));
/// let codebook = vft.build();
/// assert!(codebook.code_len(42).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct VftBuilder {
    /// `(value, counter)` per distinct value, in first-observation order.
    entries: Vec<(u32, u32)>,
    /// Slot -> index into `entries` plus one; 0 marks an empty slot.
    slots: Vec<u16>,
    /// Samples that arrived while the table was full (statistics only).
    overflowed: u64,
}

impl Default for VftBuilder {
    fn default() -> VftBuilder {
        VftBuilder {
            entries: Vec::new(),
            slots: vec![0; VFT_SLOTS],
            overflowed: 0,
        }
    }
}

impl VftBuilder {
    /// Creates an empty VFT.
    #[must_use]
    pub fn new() -> VftBuilder {
        VftBuilder::default()
    }

    /// Records one 32-bit value. New values are dropped once the table
    /// holds [`VFT_ENTRIES`] distinct entries (a hardware VFT has fixed
    /// capacity); existing counters saturate at [`VFT_COUNTER_MAX`].
    pub fn observe(&mut self, value: u32) {
        const SHIFT: u32 = 32 - VFT_SLOTS.trailing_zeros();
        let mut slot = home_slot(value, SHIFT);
        while let Some(entry) = self.slots[slot].checked_sub(1) {
            let (v, count) = &mut self.entries[usize::from(entry)];
            if *v == value {
                *count = (*count + 1).min(VFT_COUNTER_MAX);
                return;
            }
            slot = (slot + 1) % VFT_SLOTS;
        }
        if self.entries.len() < VFT_ENTRIES {
            self.entries.push((value, 1));
            // At most VFT_ENTRIES (1024) entries, so the index fits.
            self.slots[slot] = self.entries.len() as u16;
        } else {
            self.overflowed += 1;
        }
    }

    /// Records every 32-bit word of a line.
    pub fn observe_line(&mut self, line: &CacheLine) {
        for w in line.u32_words() {
            self.observe(w);
        }
    }

    /// Number of distinct values currently tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no values have been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of samples dropped because the table was full.
    #[must_use]
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// Freezes the table into a canonical-Huffman codebook.
    #[must_use]
    pub fn build(&self) -> ScCodebook {
        ScCodebook::from_counts(&self.entries)
    }

    /// Iterates the observed `(value, count)` pairs in first-observation
    /// order.
    pub fn iter_counts(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.entries.iter().copied()
    }
}

/// Symbols of the SC alphabet: tabled values plus the escape marker that
/// prefixes a raw 32-bit literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symbol {
    Value(u32),
    Escape,
}

/// An immutable canonical-Huffman codebook (the compressor's code-word
/// table and the decompressor's lookup table, DeLUT, of §IV-C2).
///
/// Encoding goes through an open-addressed `value -> (code, len)` table;
/// decoding is canonical: codes of one length are consecutive integers,
/// so per-length `(first, count, offset)` ranges map a `(len, code)` pair
/// to its symbol without any table lookup.
#[derive(Debug, Clone)]
pub struct ScCodebook {
    /// Encode table: `(value, code << LEN_BITS | len)`, a power-of-two
    /// number of slots at most half full; `len == 0` marks an empty slot.
    slots: Vec<(u32, u32)>,
    /// Shift giving [`home_slot`] the table's index width.
    shift: u32,
    escape: (u32, u32),
    /// Every symbol in canonical `(len, symbol)` order.
    symbols: Vec<Symbol>,
    /// Indexed by code length, `0..=max_len`.
    lens: Vec<LenRange>,
    max_len: u32,
}

/// The canonical codes of one length: `count` consecutive codes from
/// `first`, whose symbols start at `symbols[offset]`.
#[derive(Debug, Clone, Copy, Default)]
struct LenRange {
    first: u32,
    count: u32,
    offset: u32,
}

impl Default for ScCodebook {
    /// The untrained codebook: no symbols at all, not even a decodable
    /// escape. Every value costs a 32-bit literal.
    fn default() -> ScCodebook {
        ScCodebook {
            slots: vec![(0, 0); 2],
            shift: 31,
            escape: (0, 0),
            symbols: Vec::new(),
            lens: Vec::new(),
            max_len: 0,
        }
    }
}

impl ScCodebook {
    /// Builds a codebook from raw `(value, count)` pairs. Zero counts are
    /// ignored; a value listed twice keeps the sum of its counts. An
    /// escape symbol is always included so any line remains encodable.
    #[must_use]
    pub fn from_counts(counts: &[(u32, u32)]) -> ScCodebook {
        let mut values: Vec<(u32, u64)> = counts
            .iter()
            .filter(|&&(_, c)| c > 0)
            .map(|&(v, c)| (v, u64::from(c)))
            .collect();
        // Symbol order (values ascending, escape last) fixes the node
        // indices and so every tie-break below.
        values.sort_unstable_by_key(|&(v, _)| v);
        values.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        let n = values.len();
        let symbol = |i: usize| values.get(i).map_or(Symbol::Escape, |&(v, _)| Symbol::Value(v));
        // The escape symbol must stay cheap enough to be usable but should
        // not distort the tabled codes; weight 1 puts it at the bottom.
        let mut weights: Vec<u64> = values.iter().map(|&(_, w)| w).collect();
        weights.push(1);

        let mut lengths = huffman_code_lengths(&weights);
        while lengths.iter().any(|&l| l > MAX_CODE_LEN) {
            // Degrade counter resolution until the tree flattens enough.
            for w in &mut weights {
                *w = (*w / 2).max(1);
            }
            lengths = huffman_code_lengths(&weights);
        }

        // Canonical code assignment: sort by (length, symbol).
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_unstable_by_key(|&i| (lengths[i], i));
        let slot_count = (2 * n).next_power_of_two().max(2);
        let mut book = ScCodebook {
            slots: vec![(0, 0); slot_count],
            shift: 32 - slot_count.trailing_zeros(),
            symbols: Vec::with_capacity(n + 1),
            lens: vec![LenRange::default(); LEN_SLOTS],
            ..ScCodebook::default()
        };
        let mut code = 0u32;
        let mut prev_len = 0u32;
        for &i in &order {
            let len = lengths[i];
            code <<= len - prev_len;
            prev_len = len;
            let range = &mut book.lens[len as usize];
            if range.count == 0 {
                range.first = code;
                range.offset = book.symbols.len() as u32;
            }
            range.count += 1;
            book.max_len = book.max_len.max(len);
            let sym = symbol(i);
            book.symbols.push(sym);
            match sym {
                Symbol::Value(v) => book.insert(v, code, len),
                Symbol::Escape => book.escape = (code, len),
            }
            code += 1;
        }
        book.lens.truncate(book.max_len as usize + 1);
        book
    }

    /// Places a new value in the encode table (linear probing).
    fn insert(&mut self, value: u32, code: u32, len: u32) {
        let mask = self.slots.len() - 1;
        let mut slot = home_slot(value, self.shift);
        while self.slots[slot].1 != 0 {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = (value, code << LEN_BITS | len);
    }

    /// `(code, len)` of a tabled value.
    #[inline]
    fn lookup(&self, value: u32) -> Option<(u32, u32)> {
        let mask = self.slots.len() - 1;
        let mut slot = home_slot(value, self.shift);
        loop {
            let (v, packed) = self.slots[slot];
            if packed == 0 {
                return None;
            }
            if v == value {
                return Some((packed >> LEN_BITS, packed & ((1 << LEN_BITS) - 1)));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Code length in bits for a tabled value, or `None` if the value
    /// escapes.
    #[must_use]
    pub fn code_len(&self, value: u32) -> Option<u32> {
        self.lookup(value).map(|(_, l)| l)
    }

    /// Cost in bits of encoding `value` (tabled code or escape + literal).
    #[must_use]
    pub fn cost_bits(&self, value: u32) -> u32 {
        self.code_len(value).unwrap_or(self.escape.1 + 32)
    }

    /// Number of tabled values.
    #[must_use]
    pub fn len(&self) -> usize {
        // Every symbol but the escape (absent only from the untrained
        // codebook, which has no symbols at all).
        self.symbols.len().saturating_sub(1)
    }

    /// `true` if both codebooks table exactly the same values. Used to
    /// detect no-op retrains: when the dictionary is unchanged, lines
    /// compressed under the old codebook would re-encode to the same
    /// values, so stale-line invalidation can be skipped.
    #[must_use]
    pub fn same_dictionary(&self, other: &ScCodebook) -> bool {
        self.len() == other.len()
            && self.symbols.iter().all(|&s| match s {
                Symbol::Value(v) => other.lookup(v).is_some(),
                Symbol::Escape => true,
            })
    }

    /// `true` when no values are tabled (everything escapes).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encodes a line against this codebook (the payload path; size
    /// probes go through [`Compressor::compress`] on [`Sc`], which sums
    /// code lengths without emitting bits).
    #[must_use]
    pub fn encode_line(&self, line: &CacheLine) -> BitWriter {
        let t = stats::start();
        let mut w = BitWriter::new();
        for word in line.u32_words() {
            match self.lookup(word) {
                Some((code, len)) => w.write_bits(u64::from(code), len),
                None => {
                    let (code, len) = self.escape;
                    w.write_bits(u64::from(code), len);
                    w.write_bits(u64::from(word), 32);
                }
            }
        }
        stats::record_encode(t);
        w
    }

    /// Decodes a line produced by [`ScCodebook::encode_line`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the bitstream is truncated or was
    /// produced by a different codebook (a code exceeds the maximum
    /// length without matching any table entry).
    pub fn decode_line(&self, w: &BitWriter) -> Result<CacheLine, DecodeError> {
        let t = stats::start();
        let result = self.decode_line_impl(w);
        stats::record_decode(t);
        result
    }

    fn decode_line_impl(&self, w: &BitWriter) -> Result<CacheLine, DecodeError> {
        let mut r = BitReader::new(w.as_slice(), w.bit_len());
        let mut words = [0u32; CacheLine::NUM_U32_WORDS];
        for slot in &mut words {
            let mut code = 0u32;
            let mut len = 0usize;
            let sym = loop {
                code = (code << 1) | u32::from(r.try_read_bit()?);
                len += 1;
                if len > self.max_len as usize {
                    return Err(DecodeError::InvalidCode {
                        algo: "SC",
                        detail: "code exceeds codebook maximum length",
                    });
                }
                // Codes of one length are consecutive from `first`.
                let range = self.lens[len];
                let rank = code.wrapping_sub(range.first);
                if rank < range.count {
                    break self.symbols[(range.offset + rank) as usize];
                }
            };
            *slot = match sym {
                Symbol::Value(v) => v,
                Symbol::Escape => r.try_read_bits(32)? as u32,
            };
        }
        Ok(CacheLine::from_u32_words(&words))
    }
}

/// Computes Huffman code lengths for `weights` (one per symbol, in symbol
/// order).
///
/// Two-queue construction: leaves sorted by `(weight, index)` form one
/// queue, internal nodes in creation order the other. Merged weights
/// never decrease and internal indices only grow, so the second queue is
/// sorted by `(weight, index)` too, and taking the smaller head of the
/// two (a leaf on equal weight: its index is lower) pops nodes in exactly
/// the order of a min-heap over `(weight, index)` — the same tree, hence
/// the same lengths, in `O(n log n)` for the initial sort and `O(n)`
/// after it.
fn huffman_code_lengths(weights: &[u64]) -> Vec<u32> {
    let n = weights.len();
    if n < 2 {
        return vec![1; n];
    }
    let mut leaves: Vec<usize> = (0..n).collect();
    leaves.sort_unstable_by_key(|&i| (weights[i], i));
    // Node arena: leaves first, internal nodes appended as created.
    let mut weight: Vec<u64> = weights.to_vec();
    let mut parent: Vec<usize> = vec![0; 2 * n - 1];
    let (mut next_leaf, mut next_internal) = (0, n);
    for _ in 1..n {
        let mut take = || {
            let leaf = leaves.get(next_leaf).copied();
            match leaf {
                Some(l) if next_internal == weight.len() || weight[l] <= weight[next_internal] => {
                    next_leaf += 1;
                    l
                }
                _ => {
                    next_internal += 1;
                    next_internal - 1
                }
            }
        };
        let (a, b) = (take(), take());
        let merged = weight.len();
        parent[a] = merged;
        parent[b] = merged;
        weight.push(weight[a] + weight[b]);
    }
    // Children precede their parent in the arena, so one backwards sweep
    // from the root assigns every depth.
    let root = 2 * n - 2;
    let mut depth = vec![0u32; 2 * n - 1];
    for i in (0..root).rev() {
        depth[i] = depth[parent[i]] + 1;
    }
    depth.truncate(n);
    depth
}

/// The SC compressor: an immutable codebook plus the Table I cost model.
///
/// # Example
///
/// ```
/// use latte_compress::{CacheLine, Compressor, Sc, VftBuilder};
///
/// let hot = CacheLine::from_u32_words(&(0..32).map(|i| i % 4).collect::<Vec<_>>());
/// let mut vft = VftBuilder::new();
/// for _ in 0..100 {
///     vft.observe_line(&hot);
/// }
/// let sc = Sc::new(vft.build());
/// assert!(sc.compress(&hot).size_bytes() <= 16);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sc {
    codebook: ScCodebook,
}

impl Sc {
    /// Creates an SC compressor over a trained codebook.
    #[must_use]
    pub fn new(codebook: ScCodebook) -> Sc {
        Sc { codebook }
    }

    /// An SC compressor with an empty codebook: every word escapes, so
    /// every line stays uncompressed. Used as the state before the first
    /// training period completes.
    #[must_use]
    pub fn untrained() -> Sc {
        Sc::default()
    }

    /// The underlying codebook.
    #[must_use]
    pub fn codebook(&self) -> &ScCodebook {
        &self.codebook
    }

    /// Replaces the codebook at a retraining boundary.
    pub fn set_codebook(&mut self, codebook: ScCodebook) {
        self.codebook = codebook;
    }
}

impl Compressor for Sc {
    fn name(&self) -> &'static str {
        "SC"
    }

    fn compress(&self, line: &CacheLine) -> Compression {
        // Size-only probe: sums code lengths; never emits a bit.
        let t = stats::start();
        let bits: u64 = line.u32_words().map(|w| u64::from(self.codebook.cost_bits(w))).sum();
        stats::record_probe(t);
        Compression::new((bits as usize).div_ceil(8))
    }

    fn decompression_latency(&self) -> Cycles {
        14
    }

    fn compression_latency(&self) -> Cycles {
        6
    }

    fn compression_energy_nj(&self) -> f64 {
        0.42
    }

    fn decompression_energy_nj(&self) -> f64 {
        0.336
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn train(lines: &[CacheLine]) -> ScCodebook {
        let mut vft = VftBuilder::new();
        for l in lines {
            vft.observe_line(l);
        }
        vft.build()
    }

    #[test]
    fn hot_values_get_short_codes() {
        let hot = CacheLine::from_u32_words(&vec![7u32; 32]);
        let cold = CacheLine::from_u32_words(&(100..132).collect::<Vec<_>>());
        let mut lines = vec![hot; 50];
        lines.push(cold);
        let cb = train(&lines);
        let hot_len = cb.code_len(7).expect("hot value tabled");
        let cold_len = cb.code_len(100).expect("cold value tabled");
        assert!(hot_len < cold_len, "{hot_len} vs {cold_len}");
    }

    #[test]
    fn encode_decode_round_trip_tabled() {
        let line = CacheLine::from_u32_words(&(0..32).map(|i| i % 8).collect::<Vec<_>>());
        let cb = train(&[line]);
        let w = cb.encode_line(&line);
        assert_eq!(cb.decode_line(&w), Ok(line));
    }

    #[test]
    fn foreign_codebook_stream_never_panics_or_aliases() {
        // Encode under one codebook, decode under a disjoint one: either a
        // detected error or a (wrong) well-formed line — never a panic,
        // never the original data by accident.
        let line = CacheLine::from_u32_words(&vec![7u32; 32]);
        let a = train(&[line]);
        let b = train(&[CacheLine::from_u32_words(&vec![0xdead_beefu32; 32])]);
        let w = a.encode_line(&line);
        assert_ne!(b.decode_line(&w), Ok(line));
    }

    #[test]
    fn encode_decode_round_trip_with_escapes() {
        let trained = CacheLine::from_u32_words(&vec![42u32; 32]);
        let cb = train(&[trained]);
        // A line full of values the codebook never saw.
        let unseen = CacheLine::from_u32_words(&(0..32).map(|i| 0xdead_0000 + i).collect::<Vec<_>>());
        let w = cb.encode_line(&unseen);
        assert_eq!(cb.decode_line(&w), Ok(unseen));
    }

    #[test]
    fn untrained_sc_never_compresses() {
        let sc = Sc::untrained();
        let line = CacheLine::from_u32_words(&vec![1u32; 32]);
        assert!(!sc.compress(&line).is_compressed());
    }

    #[test]
    fn trained_sc_beats_bdi_on_temporal_locality() {
        use crate::bdi::Bdi;
        // FP-like values: few distinct bit patterns, high per-word variance.
        let values = [
            f32::to_bits(3.25),
            f32::to_bits(-1.5e10),
            f32::to_bits(0.001),
            f32::to_bits(7.75e-20),
        ];
        let words: Vec<u32> = (0..32).map(|i| values[i % 4]).collect();
        let line = CacheLine::from_u32_words(&words);
        let mut vft = VftBuilder::new();
        for _ in 0..20 {
            vft.observe_line(&line);
        }
        let sc = Sc::new(vft.build());
        let sc_size = sc.compress(&line).size_bytes();
        let bdi_size = Bdi::new().compress(&line).size_bytes();
        assert!(
            sc_size < bdi_size,
            "SC ({sc_size}) should beat BDI ({bdi_size}) on temporal locality"
        );
    }

    #[test]
    fn vft_capacity_is_bounded() {
        let mut vft = VftBuilder::new();
        for v in 0..(VFT_ENTRIES as u32 * 2) {
            vft.observe(v);
        }
        assert_eq!(vft.len(), VFT_ENTRIES);
        assert_eq!(vft.overflowed(), VFT_ENTRIES as u64);
    }

    #[test]
    fn vft_counters_saturate() {
        let mut vft = VftBuilder::new();
        for _ in 0..(VFT_COUNTER_MAX + 100) {
            vft.observe(9);
        }
        let cb = vft.build();
        assert!(cb.code_len(9).is_some());
    }

    #[test]
    fn codebook_codes_are_prefix_free() {
        let mut vft = VftBuilder::new();
        for i in 0..200u32 {
            for _ in 0..(i % 17 + 1) {
                vft.observe(i * 3);
            }
        }
        let cb = vft.build();
        let mut codes: Vec<(u32, u32)> = (0..200u32).filter_map(|i| cb.lookup(i * 3)).collect();
        assert_eq!(codes.len(), 200);
        codes.push(cb.escape);
        for (i, &(c1, l1)) in codes.iter().enumerate() {
            for &(c2, l2) in &codes[i + 1..] {
                if l1 == l2 {
                    assert_ne!(c1, c2, "duplicate code of length {l1}");
                } else {
                    let (short, slen, long, llen) =
                        if l1 < l2 { (c1, l1, c2, l2) } else { (c2, l2, c1, l1) };
                    assert_ne!(
                        long >> (llen - slen),
                        short,
                        "code {short:#b}/{slen} is a prefix of {long:#b}/{llen}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_codebooks() {
        // Observation order must not leak into code assignment.
        let build = || {
            let mut vft = VftBuilder::new();
            for i in 0..100u32 {
                for _ in 0..=(i % 5) {
                    vft.observe(i.wrapping_mul(0x9e37_79b9));
                }
            }
            vft.build()
        };
        let a = build();
        let b = build();
        for i in 0..100u32 {
            let v = i.wrapping_mul(0x9e37_79b9);
            assert_eq!(a.lookup(v), b.lookup(v));
        }
    }

    #[test]
    fn empty_codebook_contains_only_escape() {
        let cb = ScCodebook::from_counts(&[]);
        assert!(cb.is_empty());
        assert_eq!(cb.cost_bits(5), cb.escape.1 + 32);
        // Even an empty codebook round-trips via escapes.
        let line = CacheLine::from_u32_words(&(0..32).collect::<Vec<_>>());
        assert_eq!(cb.decode_line(&cb.encode_line(&line)), Ok(line));
    }

    #[test]
    fn duplicate_counts_merge() {
        let merged = ScCodebook::from_counts(&[(5, 3), (9, 1), (5, 4)]);
        let summed = ScCodebook::from_counts(&[(9, 1), (5, 7)]);
        for v in [5, 9] {
            assert_eq!(merged.lookup(v), summed.lookup(v));
        }
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn untrained_codebook_matches_reference_default() {
        let new = ScCodebook::default();
        let old = reference::Codebook::default();
        let line = CacheLine::from_u32_words(&(0..32).map(|i| i * 7).collect::<Vec<_>>());
        assert!(new.is_empty());
        assert_eq!(new.cost_bits(3), 32);
        let w = new.encode_line(&line);
        assert_eq!(w, old.encode_line(&line));
        assert_eq!(new.decode_line(&w), old.decode_line(&w));
        assert_eq!(new.decode_line(&BitWriter::new()), old.decode_line(&BitWriter::new()));
    }

    /// The original codebook builder — `HashMap` VFT and tables, a
    /// `BinaryHeap` Huffman — kept as the reference the flat tables must
    /// match bit for bit.
    mod reference {
        use super::super::{Symbol, MAX_CODE_LEN, VFT_COUNTER_MAX, VFT_ENTRIES};
        use crate::bitstream::{BitReader, BitWriter};
        use crate::error::DecodeError;
        use crate::line::CacheLine;
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashMap};

        /// The `HashMap` VFT: `(counts, overflowed)` after `values`.
        pub fn vft(values: &[u32]) -> (HashMap<u32, u32>, u64) {
            let mut counts: HashMap<u32, u32> = HashMap::new();
            let mut overflowed = 0;
            for &value in values {
                if let Some(c) = counts.get_mut(&value) {
                    *c = (*c + 1).min(VFT_COUNTER_MAX);
                } else if counts.len() < VFT_ENTRIES {
                    counts.insert(value, 1);
                } else {
                    overflowed += 1;
                }
            }
            (counts, overflowed)
        }

        #[derive(Debug, Default)]
        pub struct Codebook {
            pub encode: HashMap<u32, (u32, u32)>,
            pub escape: (u32, u32),
            decode: HashMap<(u32, u32), Symbol>,
            pub max_len: u32,
        }

        /// Values sort by value, escape last.
        fn rank(s: Symbol) -> (bool, u32) {
            match s {
                Symbol::Value(v) => (false, v),
                Symbol::Escape => (true, 0),
            }
        }

        pub fn from_counts(counts: &HashMap<u32, u32>) -> Codebook {
            let mut weights: Vec<(Symbol, u64)> = counts
                .iter()
                .filter(|&(_, &c)| c > 0)
                .map(|(&v, &c)| (Symbol::Value(v), u64::from(c)))
                .collect();
            weights.sort_unstable_by_key(|&(s, _)| rank(s));
            weights.push((Symbol::Escape, 1));
            let mut lengths = huffman_code_lengths(&weights);
            while lengths.iter().any(|&(_, l)| l > MAX_CODE_LEN) {
                for w in weights.iter_mut() {
                    w.1 = (w.1 / 2).max(1);
                }
                lengths = huffman_code_lengths(&weights);
            }
            lengths.sort_unstable_by_key(|&(s, l)| (l, rank(s)));
            let mut book = Codebook::default();
            let mut code = 0u32;
            let mut prev_len = 0u32;
            for &(sym, len) in &lengths {
                code <<= len - prev_len;
                prev_len = len;
                book.max_len = book.max_len.max(len);
                match sym {
                    Symbol::Value(v) => {
                        book.encode.insert(v, (code, len));
                    }
                    Symbol::Escape => book.escape = (code, len),
                }
                book.decode.insert((len, code), sym);
                code += 1;
            }
            book
        }

        pub fn huffman_code_lengths(weights: &[(Symbol, u64)]) -> Vec<(Symbol, u32)> {
            if weights.len() == 1 {
                return vec![(weights[0].0, 1)];
            }
            let mut children: Vec<Option<(usize, usize)>> = vec![None; weights.len()];
            let mut heap: BinaryHeap<Reverse<(u64, usize)>> = weights
                .iter()
                .enumerate()
                .map(|(i, &(_, w))| Reverse((w, i)))
                .collect();
            while heap.len() > 1 {
                let (Some(Reverse((w1, n1))), Some(Reverse((w2, n2)))) = (heap.pop(), heap.pop())
                else {
                    break;
                };
                let idx = children.len();
                children.push(Some((n1, n2)));
                heap.push(Reverse((w1 + w2, idx)));
            }
            let Some(Reverse((_, root))) = heap.pop() else {
                return Vec::new();
            };
            let mut lengths = vec![0u32; weights.len()];
            let mut stack = vec![(root, 0u32)];
            while let Some((node, depth)) = stack.pop() {
                match children[node] {
                    None => lengths[node] = depth.max(1),
                    Some((l, r)) => {
                        stack.push((l, depth + 1));
                        stack.push((r, depth + 1));
                    }
                }
            }
            weights.iter().zip(lengths).map(|(&(s, _), l)| (s, l)).collect()
        }

        impl Codebook {
            pub fn encode_line(&self, line: &CacheLine) -> BitWriter {
                let mut w = BitWriter::new();
                for word in line.u32_words() {
                    match self.encode.get(&word) {
                        Some(&(code, len)) => w.write_bits(u64::from(code), len),
                        None => {
                            let (code, len) = self.escape;
                            w.write_bits(u64::from(code), len);
                            w.write_bits(u64::from(word), 32);
                        }
                    }
                }
                w
            }

            pub fn decode_line(&self, w: &BitWriter) -> Result<CacheLine, DecodeError> {
                let mut r = BitReader::new(w.as_slice(), w.bit_len());
                let mut words = [0u32; CacheLine::NUM_U32_WORDS];
                for slot in &mut words {
                    let mut code = 0u32;
                    let mut len = 0u32;
                    let sym = loop {
                        code = (code << 1) | u32::from(r.try_read_bit()?);
                        len += 1;
                        if len > self.max_len {
                            return Err(DecodeError::InvalidCode {
                                algo: "SC",
                                detail: "code exceeds codebook maximum length",
                            });
                        }
                        if let Some(&sym) = self.decode.get(&(len, code)) {
                            break sym;
                        }
                    };
                    *slot = match sym {
                        Symbol::Value(v) => v,
                        Symbol::Escape => r.try_read_bits(32)? as u32,
                    };
                }
                Ok(CacheLine::from_u32_words(&words))
            }
        }
    }

    /// The first `bits` bits of `w`.
    fn truncated(w: &BitWriter, bits: usize) -> BitWriter {
        let mut r = BitReader::new(w.as_slice(), w.bit_len());
        let mut out = BitWriter::new();
        for _ in 0..bits {
            out.write_bit(r.read_bit());
        }
        out
    }

    /// Asserts the flat codebook built from `table` equals the reference
    /// one: every `(code, len)`, the escape, `max_len`, and the bytes and
    /// decode results (errors included) of `lines`, their truncations,
    /// and `foreign` bitstreams.
    fn assert_matches_reference(table: &[(u32, u32)], lines: &[CacheLine], foreign: &[BitWriter]) {
        let new = ScCodebook::from_counts(table);
        let old = reference::from_counts(&table.iter().copied().collect());
        assert_eq!(new.len(), old.encode.len());
        for &(v, _) in table {
            assert_eq!(new.lookup(v), old.encode.get(&v).copied(), "value {v:#x}");
        }
        assert_eq!(new.escape, old.escape);
        assert_eq!(new.max_len, old.max_len);
        for line in lines {
            let w = new.encode_line(line);
            assert_eq!(w, old.encode_line(line));
            assert_eq!(new.decode_line(&w), Ok(*line));
            for bits in (0..w.bit_len()).step_by(w.bit_len() / 16 + 1) {
                let cut = truncated(&w, bits);
                assert_eq!(new.decode_line(&cut), old.decode_line(&cut), "cut at {bits}");
            }
        }
        for w in foreign {
            assert_eq!(new.decode_line(w), old.decode_line(w));
        }
    }

    /// Distinct values `seed + i * stride` (odd stride: no repeats).
    fn distinct(seed: u32, stride: u32, n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| seed.wrapping_add(i.wrapping_mul(stride | 1))).collect()
    }

    /// Fibonacci counts from 2: with the weight-1 escape, every merge
    /// joins the running subtree with the next count, so Huffman builds a
    /// chain `n` deep.
    fn fibonacci(n: usize) -> Vec<u32> {
        let mut f = vec![2u32, 3];
        while f.len() < n {
            f.push(f[f.len() - 1] + f[f.len() - 2]);
        }
        f.truncate(n);
        f
    }

    /// `(value, count)` tables of the families the flat builder must get
    /// exactly right.
    fn table() -> impl Strategy<Value = Vec<(u32, u32)>> {
        prop_oneof![
            // Ties: many values sharing a few counts.
            (any::<u32>(), any::<u32>(), prop::collection::vec(1u32..4, 1..300)).prop_map(
                |(seed, stride, counts)| {
                    distinct(seed, stride, counts.len()).into_iter().zip(counts).collect()
                }
            ),
            // A single entry.
            (any::<u32>(), 1u32..=VFT_COUNTER_MAX).prop_map(|(v, c)| vec![(v, c)]),
            // A full 1024-entry VFT.
            (any::<u32>(), any::<u32>(), prop::collection::vec(1u32..=VFT_COUNTER_MAX, VFT_ENTRIES))
                .prop_map(|(seed, stride, counts)| {
                    distinct(seed, stride, VFT_ENTRIES).into_iter().zip(counts).collect()
                }),
            // Saturated 12-bit counters everywhere.
            (any::<u32>(), any::<u32>(), 1usize..=VFT_ENTRIES).prop_map(|(seed, stride, n)| {
                distinct(seed, stride, n).into_iter().map(|v| (v, VFT_COUNTER_MAX)).collect()
            }),
            // Fibonacci weights: a maximally skewed tree deeper than
            // MAX_CODE_LEN, so the degrade loop runs.
            (any::<u32>(), any::<u32>(), 30usize..=44).prop_map(|(seed, stride, n)| {
                distinct(seed, stride, n).into_iter().zip(fibonacci(n)).collect()
            }),
        ]
    }

    fn lines_over(table: &[(u32, u32)], noise: &[u32]) -> Vec<CacheLine> {
        (0..4)
            .map(|j| {
                let words: Vec<u32> = (0..CacheLine::NUM_U32_WORDS)
                    .map(|k| {
                        if (j + k) % 3 == 0 {
                            noise[(j * 32 + k) % noise.len()]
                        } else {
                            table[(j * 31 + k * 7) % table.len()].0
                        }
                    })
                    .collect();
                CacheLine::from_u32_words(&words)
            })
            .collect()
    }

    fn foreign_streams(raw: &[Vec<u8>]) -> Vec<BitWriter> {
        raw.iter()
            .map(|bytes| {
                let mut w = BitWriter::new();
                for &b in bytes {
                    w.write_bits(u64::from(b), 8);
                }
                w
            })
            .collect()
    }

    #[test]
    fn fibonacci_table_runs_the_degrade_loop() {
        let n = 40;
        let counts = fibonacci(n);
        let mut weights: Vec<(Symbol, u64)> =
            (0..n as u32).map(|v| (Symbol::Value(v), u64::from(counts[v as usize]))).collect();
        weights.push((Symbol::Escape, 1));
        let first = reference::huffman_code_lengths(&weights);
        assert!(first.iter().any(|&(_, l)| l > MAX_CODE_LEN), "no degrade needed");
        let table: Vec<(u32, u32)> = (0..n as u32).zip(counts).collect();
        let cb = ScCodebook::from_counts(&table);
        assert!(cb.max_len <= MAX_CODE_LEN);
        assert_matches_reference(&table, &lines_over(&table, &[1, 2, 3]), &[]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn flat_codebook_matches_hashmap_heap_reference(
            table in table(),
            noise in prop::collection::vec(any::<u32>(), 1..64),
            raw in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 0..6),
        ) {
            assert_matches_reference(&table, &lines_over(&table, &noise), &foreign_streams(&raw));
        }

        #[test]
        fn flat_vft_matches_hashmap_vft(
            alphabet in 1u32..1600,
            stream in prop::collection::vec(any::<u32>(), 0..3000),
            hot in any::<u32>(),
            hot_repeats in 0usize..5000,
        ) {
            // Values from an alphabet that may overflow the 1024 entries,
            // plus one value repeated past counter saturation.
            let mut values: Vec<u32> = stream.iter().map(|v| v % alphabet).collect();
            values.extend(std::iter::repeat_n(hot, hot_repeats));
            let mut vft = VftBuilder::new();
            for &v in &values {
                vft.observe(v);
            }
            let (counts, overflowed) = reference::vft(&values);
            prop_assert_eq!(vft.len(), counts.len());
            prop_assert_eq!(vft.overflowed(), overflowed);
            let mut flat: Vec<(u32, u32)> = vft.iter_counts().collect();
            flat.sort_unstable();
            let mut hashed: Vec<(u32, u32)> = counts.into_iter().collect();
            hashed.sort_unstable();
            prop_assert_eq!(&flat, &hashed);
            if !flat.is_empty() {
                assert_matches_reference(&flat, &lines_over(&flat, &[hot]), &[]);
            }
        }
    }
}
