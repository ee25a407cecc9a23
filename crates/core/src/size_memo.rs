//! The fill-size memo: each line's compressed size under each
//! compressor, computed once per kernel.
//!
//! A refill of an address the SM already filled in the same kernel
//! brings the same pristine bytes, so under an unchanged compressor it
//! compresses to the same size. The memo keeps that size by address
//! ([`FillLine::key`]), which lets a refill skip both making the bytes
//! and probing the compressor. It holds no copy of the bytes, and it
//! grows only with the lines actually filled, up to a cap derived from
//! the L1 geometry.

use latte_cache::{CacheGeometry, LineAddr, LineMap};
use latte_compress::{CacheLine, Compression, CompressionAlgo};
use latte_gpusim::FillLine;

/// One line's sizes, one byte per compressing algorithm in
/// [`CompressionAlgo::ALL`] order: [`UNKNOWN`], [`RAW`], or one more
/// than a compressed size (sizes are below the 128-byte line).
type Sizes = [u8; CompressionAlgo::ALL.len()];

/// Not probed under this algorithm since the entry was made or the
/// algorithm was last forgotten.
const UNKNOWN: u8 = 0;
/// Probed, and the line stays uncompressed.
const RAW: u8 = u8::MAX;

/// Per-SM memo of compressed sizes, keyed by line address.
///
/// Only keyed fills read or write it; an unkeyed line is always probed.
/// Its owner must [`SizeMemo::clear`] it when a kernel starts (another
/// kernel's bytes live at the same addresses) and [`SizeMemo::forget`]
/// an algorithm whose compressor changes (an SC codebook swap). Entries
/// are 16 bytes; when `cap` lines are held, the next new line clears it.
#[derive(Debug, Clone)]
pub struct SizeMemo {
    sizes: LineMap<Sizes>,
    cap: usize,
}

impl SizeMemo {
    /// A memo for the paper's L1 ([`CacheGeometry::paper_l1`]).
    #[must_use]
    pub fn new() -> SizeMemo {
        SizeMemo::for_l1(&CacheGeometry::paper_l1())
    }

    /// A memo for an SM with `l1`: it holds up to twice as many lines as
    /// the L1 has tags.
    #[must_use]
    pub fn for_l1(l1: &CacheGeometry) -> SizeMemo {
        SizeMemo {
            sizes: LineMap::default(),
            cap: 2 * l1.num_sets() * l1.tags_per_set(),
        }
    }

    /// The size of `line` under `algo`: memoized for a keyed line,
    /// otherwise `probe` of its bytes. `CompressionAlgo::None` is
    /// always uncompressed and reads nothing.
    pub fn size(
        &mut self,
        line: &mut FillLine<'_>,
        algo: CompressionAlgo,
        probe: impl FnOnce(&CacheLine) -> Compression,
    ) -> Compression {
        let Some(slot) = slot_of(algo) else {
            return Compression::UNCOMPRESSED;
        };
        let Some(addr) = line.key() else {
            return probe(line.bytes());
        };
        if let Some(sizes) = self.sizes.get_mut(&addr) {
            if sizes[slot] == UNKNOWN {
                sizes[slot] = encode(probe(line.bytes()));
            }
            return decode(sizes[slot]);
        }
        if self.sizes.len() >= self.cap {
            self.sizes.clear();
        }
        let mut sizes = [UNKNOWN; CompressionAlgo::ALL.len()];
        sizes[slot] = encode(probe(line.bytes()));
        self.sizes.insert(addr, sizes);
        decode(sizes[slot])
    }

    /// The memoized size of `addr` under `algo`, if any.
    #[must_use]
    pub fn get(&self, addr: LineAddr, algo: CompressionAlgo) -> Option<Compression> {
        let code = self.sizes.get(&addr)?[slot_of(algo)?];
        (code != UNKNOWN).then(|| decode(code))
    }

    /// Drops every size under `algo`, keeping the others.
    pub fn forget(&mut self, algo: CompressionAlgo) {
        if let Some(slot) = slot_of(algo) {
            // latte-lint: allow(T1, reason = "order-independent update: every entry loses the same byte, so any iteration order leaves the same map")
            for sizes in self.sizes.values_mut() {
                sizes[slot] = UNKNOWN;
            }
        }
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.sizes.clear();
    }

    /// Lines held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// `true` when no line is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// The most lines held at once.
    #[must_use]
    pub fn cap(&self) -> usize {
        self.cap
    }
}

impl Default for SizeMemo {
    fn default() -> SizeMemo {
        SizeMemo::new()
    }
}

fn slot_of(algo: CompressionAlgo) -> Option<usize> {
    CompressionAlgo::ALL.iter().position(|&a| a == algo)
}

fn encode(c: Compression) -> u8 {
    if c.is_compressed() {
        // A compressed size is below the 128-byte line, so this fits.
        c.size_bytes() as u8 + 1
    } else {
        RAW
    }
}

fn decode(code: u8) -> Compression {
    if code == RAW {
        Compression::UNCOMPRESSED
    } else {
        Compression::new(usize::from(code) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_sixteen_bytes() {
        assert!(std::mem::size_of::<(LineAddr, Sizes)>() <= 16);
    }

    #[test]
    fn every_size_round_trips_through_its_code() {
        for size in 0..CacheLine::SIZE_BYTES {
            let c = Compression::new(size);
            assert_eq!(decode(encode(c)), c, "size {size}");
            assert_ne!(encode(c), UNKNOWN);
        }
        assert_eq!(
            decode(encode(Compression::UNCOMPRESSED)),
            Compression::UNCOMPRESSED
        );
    }

    #[test]
    fn the_cap_follows_the_l1() {
        assert_eq!(SizeMemo::new().cap(), 1024);
        assert_eq!(SizeMemo::for_l1(&CacheGeometry::large_l1()).cap(), 3072);
    }
}
