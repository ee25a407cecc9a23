//! Compressed cache models for the LATTE-CC reproduction.
//!
//! The centrepiece is [`CompressedCache`], the paper's L1 data cache
//! organisation (§IV-A): a set-associative cache provisioned with **4× the
//! tag blocks** of a conventional cache whose data array is managed in
//! **32-byte sub-blocks**, so a set that nominally holds four 128-byte
//! lines can hold up to sixteen compressed lines as long as their combined
//! footprint fits in the set's sixteen sub-blocks.
//!
//! Also provided:
//!
//! * [`SimpleCache`] — a conventional uncompressed set-associative cache
//!   (used for the L2 and for baseline configurations),
//! * [`DecompressionQueue`] — the shared decompressor port that gives
//!   compressed hits their *effective* hit latency (Eq. 3 of the paper),
//! * [`Mshr`] — miss-status holding registers that merge outstanding
//!   misses to the same line.
//!
//! Which sets run which compression mode during LATTE-CC's learning
//! phase is the controller's business (`latte_core::LatteCc`); the cache
//! only stores what each fill is compressed to.
//!
//! # Example
//!
//! ```
//! use latte_cache::{CacheGeometry, CompressedCache, LineAddr};
//! use latte_compress::{Compression, CompressionAlgo};
//!
//! // The paper's per-SM L1: 16 KB, 128 B lines, 4-way, 4x tags.
//! let mut l1 = CompressedCache::new(CacheGeometry::paper_l1());
//! let addr = LineAddr::from_byte_addr(0x1000);
//! assert!(l1.lookup(addr, 0).is_miss());
//! // Fill with a line BDI-compressed to one sub-block.
//! l1.fill(addr, CompressionAlgo::Bdi, Compression::new(24), 10);
//! assert!(l1.lookup(addr, 11).is_hit());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compressed;
mod geometry;
mod mshr;
mod queue;
mod simple;
mod stats;

pub use compressed::{CompressedCache, EvictedLine, LookupOutcome};
pub use geometry::{CacheGeometry, LineAddr, LineHasher, LineMap, LineSet, SUBBLOCK_BYTES};
pub use mshr::{Mshr, MshrOutcome};
pub use queue::DecompressionQueue;
pub use simple::SimpleCache;
pub use stats::CacheStats;
