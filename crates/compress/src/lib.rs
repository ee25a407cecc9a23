//! Cache-line compression algorithms for the LATTE-CC reproduction.
//!
//! This crate implements the five state-of-the-art cache compression
//! algorithms characterised in Table I of the LATTE-CC paper (HPCA 2018):
//!
//! * [`Bdi`] — Base-Delta-Immediate compression (Pekhimenko et al., PACT'12),
//!   exploiting *spatial* value locality. 2-cycle decompression.
//! * [`Fpc`] — Frequent Pattern Compression (Alameldeen & Wood, ISCA'04),
//!   spatial value locality. 5-cycle decompression.
//! * [`CpackZ`] — C-PACK dictionary compression with zero-line detection
//!   (Chen et al., TVLSI'10). 8-cycle decompression.
//! * [`Bpc`] — Bit-Plane Compression (Kim et al., ISCA'16), spatial value
//!   locality via delta + bit-plane transforms. 11-cycle decompression.
//! * [`Sc`] — Huffman-based Statistical Compression (Arelakis & Stenström,
//!   ISCA'14), *temporal* value locality. 14-cycle decompression.
//!
//! All algorithms operate on fixed 128-byte [`CacheLine`]s (the line size of
//! the simulated GPU's caches, Table II) and report an exact compressed size
//! in **bytes**; the cache layer quantises sizes to 32-byte sub-blocks.
//!
//! # Example
//!
//! ```
//! use latte_compress::{Bdi, CacheLine, Compressor};
//!
//! // A line of small integers has low per-word variance, so BDI does well.
//! let words: Vec<u32> = (1000..1032).collect();
//! let line = CacheLine::from_u32_words(&words);
//! let bdi = Bdi::new();
//! let size = bdi.compress(&line).size_bytes();
//! assert!(size < CacheLine::SIZE_BYTES);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bdi;
mod bitstream;
mod bpc;
mod cpack;
mod error;
mod fpc;
mod line;
mod sc;
pub mod stats;

pub use bdi::{Bdi, BdiCompressed, BdiEncoding};
pub use bitstream::{BitCounter, BitReader, BitSink, BitWriter};
pub use error::DecodeError;
pub use bpc::Bpc;
pub use cpack::CpackZ;
pub use fpc::Fpc;
pub use line::CacheLine;
pub use sc::{Sc, ScCodebook, VftBuilder, VFT_COUNTER_MAX, VFT_ENTRIES};

use std::fmt;

/// Number of cycles, the simulator's unit of time.
pub type Cycles = u64;

/// The outcome of compressing one cache line: the exact compressed size and
/// whether the algorithm fell back to storing the line uncompressed.
///
/// Algorithms never return a size larger than [`CacheLine::SIZE_BYTES`]:
/// whenever the encoded form would exceed the original, the line is stored
/// raw and [`Compression::is_compressed`] is `false` (a real design marks
/// this with an encoding bit so no decompression is needed on a hit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Compression {
    size_bytes: u16,
    compressed: bool,
}

impl Compression {
    /// A line stored raw (uncompressed), occupying the full line size.
    pub const UNCOMPRESSED: Compression = Compression {
        size_bytes: CacheLine::SIZE_BYTES as u16,
        compressed: false,
    };

    /// Creates a compression result of `size_bytes`, clamped to the line
    /// size. Sizes equal to or above the line size degrade to
    /// [`Compression::UNCOMPRESSED`].
    #[must_use]
    pub fn new(size_bytes: usize) -> Compression {
        if size_bytes >= CacheLine::SIZE_BYTES {
            Compression::UNCOMPRESSED
        } else {
            Compression {
                size_bytes: size_bytes as u16,
                compressed: true,
            }
        }
    }

    /// Exact compressed size in bytes (≤ 128).
    #[must_use]
    pub fn size_bytes(self) -> usize {
        usize::from(self.size_bytes)
    }

    /// `true` when the stored form is actually compressed; `false` when the
    /// algorithm stored the line raw.
    #[must_use]
    pub fn is_compressed(self) -> bool {
        self.compressed
    }

    /// Compression ratio = original size / compressed size.
    #[must_use]
    pub fn ratio(self) -> f64 {
        CacheLine::SIZE_BYTES as f64 / f64::from(self.size_bytes.max(1))
    }
}

/// A cache-line compression algorithm.
///
/// Implementations are stateless with respect to individual lines (SC's
/// codebook is immutable at compression time; training it is a separate,
/// explicit step via [`VftBuilder`]).
///
/// # Staging: probe vs full encode
///
/// The trait separates two stages of compression:
///
/// * **Size probe** ([`Compressor::probe`]) —
///   computes the exact compressed footprint without emitting a single
///   payload bit. This is the cache's hot path: every fill probes one or
///   more algorithms to make a compressibility decision, and only the
///   *size* feeds the decision. Probes are allocation-free.
/// * **Full encode** (the per-algorithm `encode`/`encode_line` methods) —
///   materialises the actual bitstream. Only paths that store or corrupt
///   payload bytes need it: the payload-shadow roundtrip, fault injection,
///   and the round-trip test suites.
///
/// `probe(line).size_bytes()` always equals the byte length of the full
/// encoding — the property suite pins this parity for every algorithm.
pub trait Compressor {
    /// Short human-readable name, e.g. `"BDI"`.
    fn name(&self) -> &'static str;

    /// Compresses one line, returning its compressed footprint.
    fn compress(&self, line: &CacheLine) -> Compression;

    /// Size-only probe: the compressed footprint of `line` without
    /// emitting payload bits. Defaults to [`Compressor::compress`];
    /// algorithms with a faster dedicated size path override it. Must
    /// report exactly the same size as `compress`.
    fn probe(&self, line: &CacheLine) -> Compression {
        self.compress(line)
    }

    /// Latency of decompressing a line on the hit path, in cycles
    /// (Table I / §IV-C of the paper).
    fn decompression_latency(&self) -> Cycles;

    /// Latency of compressing a line on the fill path, in cycles.
    fn compression_latency(&self) -> Cycles;

    /// Energy of one compression operation, in nanojoules (§IV-C).
    fn compression_energy_nj(&self) -> f64;

    /// Energy of one decompression operation, in nanojoules (§IV-C).
    fn decompression_energy_nj(&self) -> f64;
}

/// Identifies one of the implemented compression algorithms.
///
/// `None` is the baseline (uncompressed) "algorithm": identity compression
/// with zero latency and zero energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum CompressionAlgo {
    /// No compression: lines stored raw.
    #[default]
    None,
    /// Base-Delta-Immediate.
    Bdi,
    /// Frequent Pattern Compression.
    Fpc,
    /// C-PACK with zero-line detection.
    CpackZ,
    /// Bit-Plane Compression.
    Bpc,
    /// Huffman-based statistical compression.
    Sc,
}

impl CompressionAlgo {
    /// All real algorithms (excludes `None`).
    pub const ALL: [CompressionAlgo; 5] = [
        CompressionAlgo::Bdi,
        CompressionAlgo::Fpc,
        CompressionAlgo::CpackZ,
        CompressionAlgo::Bpc,
        CompressionAlgo::Sc,
    ];

    /// Decompression latency in cycles (Table I; `None` costs nothing).
    #[must_use]
    pub fn decompression_latency(self) -> Cycles {
        match self {
            CompressionAlgo::None => 0,
            CompressionAlgo::Bdi => 2,
            CompressionAlgo::Fpc => 5,
            CompressionAlgo::CpackZ => 8,
            CompressionAlgo::Bpc => 11,
            CompressionAlgo::Sc => 14,
        }
    }

    /// Compression latency in cycles (§IV-C; pattern-based schemes are
    /// symmetric, SC compresses in 6 cycles).
    #[must_use]
    pub fn compression_latency(self) -> Cycles {
        match self {
            CompressionAlgo::None => 0,
            CompressionAlgo::Bdi => 2,
            CompressionAlgo::Fpc => 5,
            CompressionAlgo::CpackZ => 8,
            CompressionAlgo::Bpc => 11,
            CompressionAlgo::Sc => 6,
        }
    }

    /// Energy of one compression operation in nanojoules (§IV-C gives BDI
    /// 0.192 nJ and SC 0.42 nJ; the others are scaled by circuit
    /// complexity between those anchors).
    #[must_use]
    pub fn compression_energy_nj(self) -> f64 {
        match self {
            CompressionAlgo::None => 0.0,
            CompressionAlgo::Bdi => 0.192,
            CompressionAlgo::Fpc => 0.25,
            CompressionAlgo::CpackZ => 0.31,
            CompressionAlgo::Bpc => 0.36,
            CompressionAlgo::Sc => 0.42,
        }
    }

    /// Energy of one decompression operation in nanojoules (§IV-C gives
    /// BDI 0.056 nJ and SC 0.336 nJ).
    #[must_use]
    pub fn decompression_energy_nj(self) -> f64 {
        match self {
            CompressionAlgo::None => 0.0,
            CompressionAlgo::Bdi => 0.056,
            CompressionAlgo::Fpc => 0.12,
            CompressionAlgo::CpackZ => 0.18,
            CompressionAlgo::Bpc => 0.27,
            CompressionAlgo::Sc => 0.336,
        }
    }
}

impl fmt::Display for CompressionAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompressionAlgo::None => "None",
            CompressionAlgo::Bdi => "BDI",
            CompressionAlgo::Fpc => "FPC",
            CompressionAlgo::CpackZ => "CPACK-Z",
            CompressionAlgo::Bpc => "BPC",
            CompressionAlgo::Sc => "SC",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_clamps_to_line_size() {
        assert_eq!(Compression::new(200), Compression::UNCOMPRESSED);
        assert_eq!(Compression::new(128), Compression::UNCOMPRESSED);
        assert!(Compression::new(127).is_compressed());
        assert_eq!(Compression::new(16).size_bytes(), 16);
    }

    #[test]
    fn compression_ratio() {
        assert!((Compression::new(32).ratio() - 4.0).abs() < 1e-12);
        assert!((Compression::UNCOMPRESSED.ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table_i_latency_ordering() {
        // Table I: BDI < FPC < CPACK-Z < BPC < SC.
        let lats: Vec<Cycles> = CompressionAlgo::ALL
            .iter()
            .map(|a| a.decompression_latency())
            .collect();
        let mut sorted = lats.clone();
        sorted.sort_unstable();
        assert_eq!(lats, sorted);
        assert_eq!(CompressionAlgo::Bdi.decompression_latency(), 2);
        assert_eq!(CompressionAlgo::Sc.decompression_latency(), 14);
    }

    #[test]
    fn algo_display_names() {
        assert_eq!(CompressionAlgo::Bdi.to_string(), "BDI");
        assert_eq!(CompressionAlgo::None.to_string(), "None");
        assert_eq!(CompressionAlgo::CpackZ.to_string(), "CPACK-Z");
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Compression>();
        assert_send_sync::<CompressionAlgo>();
        assert_send_sync::<CacheLine>();
    }
}
