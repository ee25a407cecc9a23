//! Cache geometry: sizes, set/way arithmetic and line addressing.

use latte_compress::CacheLine;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Sub-block granularity of the compressed data array (§IV-A: "allows data
/// to be stored in 32B sub blocks").
pub const SUBBLOCK_BYTES: usize = 32;

/// The address of a cache line (byte address with the line offset shifted
/// out). Using a newtype keeps line and byte addresses from mixing.
///
/// # Example
///
/// ```
/// use latte_cache::LineAddr;
///
/// let a = LineAddr::from_byte_addr(0x1234);
/// assert_eq!(a.byte_addr(), 0x1200);
/// assert_eq!(LineAddr::new(0x24), a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Wraps a raw line number.
    #[must_use]
    pub fn new(line_number: u64) -> LineAddr {
        LineAddr(line_number)
    }

    /// The line containing a byte address.
    #[must_use]
    pub fn from_byte_addr(byte_addr: u64) -> LineAddr {
        LineAddr(byte_addr / CacheLine::SIZE_BYTES as u64)
    }

    /// The raw line number.
    #[must_use]
    pub fn line_number(self) -> u64 {
        self.0
    }

    /// The first byte address of the line.
    #[must_use]
    pub fn byte_addr(self) -> u64 {
        self.0 * CacheLine::SIZE_BYTES as u64
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:#x}", self.0)
    }
}

/// Hasher behind [`LineMap`] and [`LineSet`]: a fixed (unseeded) hasher
/// whose `write_u64` runs the full splitmix64 finaliser over the key.
///
/// The finaliser matters. hashbrown picks buckets from the *low* bits of
/// the hash, and line addresses of strided or set-aligned streams share
/// their low bits; a bare multiplicative hash would leave those bits
/// depending only on the key's low bits and cluster such streams into a
/// few buckets. Every output bit of splitmix64 depends on every key bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Not reached by `LineAddr` (its derived `Hash` is one
        // `write_u64`); kept total for any other key fed through it.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut z = self.0.rotate_left(32) ^ n;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }
}

// Order-independence audit: this is the one hash-container site of the
// simulation crates. Every `LineAddr`-keyed map (MSHR file, miss
// waiters, pending stores, backing-store image, L1 line data and payload
// shadow, oracle memory) is a `LineMap`/`LineSet`. The hasher is fixed,
// so iteration order is a function of the insertion history alone — the
// same in every process — and the users are audited keyed-access only
// (the MSHR's `validate()` folds values into an order-free count).
// latte-lint: allow-file(D3, reason = "LineMap/LineSet use a fixed unseeded hasher, so iteration order is identical in every process; all users are keyed-access only (audit note above)")
/// A `LineAddr`-keyed hash map with the fixed [`LineHasher`]. Build one
/// with `LineMap::default()`.
pub type LineMap<V> = HashMap<LineAddr, V, BuildHasherDefault<LineHasher>>;

/// A set of line addresses with the fixed [`LineHasher`].
pub type LineSet = HashSet<LineAddr, BuildHasherDefault<LineHasher>>;

/// Geometry of one cache: capacity, associativity and (for compressed
/// caches) tag over-provisioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Data capacity in bytes.
    pub size_bytes: usize,
    /// Nominal associativity (data ways).
    pub ways: usize,
    /// Tag blocks per set = `ways * tag_factor` (4 for the paper's
    /// compressed L1, 1 for a conventional cache).
    pub tag_factor: usize,
}

impl CacheGeometry {
    /// The paper's per-SM L1 data cache: 16 KB, 128 B lines, 4-way, 4× tags
    /// (Table II + §IV-A).
    #[must_use]
    pub fn paper_l1() -> CacheGeometry {
        CacheGeometry {
            size_bytes: 16 * 1024,
            ways: 4,
            tag_factor: 4,
        }
    }

    /// The §V-E sensitivity configuration: 48 KB L1 per SM.
    #[must_use]
    pub fn large_l1() -> CacheGeometry {
        CacheGeometry {
            size_bytes: 48 * 1024,
            ways: 4,
            tag_factor: 4,
        }
    }

    /// The paper's shared L2: 768 KB, 8-way (Table II). Uncompressed, so
    /// `tag_factor` is 1.
    #[must_use]
    pub fn paper_l2() -> CacheGeometry {
        CacheGeometry {
            size_bytes: 768 * 1024,
            ways: 8,
            tag_factor: 1,
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into whole sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        let set_bytes = self.ways * CacheLine::SIZE_BYTES;
        assert!(
            self.size_bytes.is_multiple_of(set_bytes),
            "cache size {} is not a multiple of the set size {set_bytes}",
            self.size_bytes
        );
        self.size_bytes / set_bytes
    }

    /// Tag entries per set.
    #[must_use]
    pub fn tags_per_set(&self) -> usize {
        self.ways * self.tag_factor
    }

    /// Data sub-blocks per set.
    #[must_use]
    pub fn subblocks_per_set(&self) -> usize {
        self.ways * CacheLine::SIZE_BYTES / SUBBLOCK_BYTES
    }

    /// The set index for a line address (modulo interleaving).
    #[must_use]
    pub fn set_of(&self, addr: LineAddr) -> usize {
        (addr.line_number() % self.num_sets() as u64) as usize
    }

    /// Sub-blocks needed for a payload of `bytes` (rounded up, minimum 1).
    #[must_use]
    pub fn subblocks_for(bytes: usize) -> usize {
        bytes.div_ceil(SUBBLOCK_BYTES).max(1)
    }
}

/// A geometry's line-to-set mapping with the set count computed once: a
/// mask when the count is a power of two, a modulo otherwise. Agrees with
/// [`CacheGeometry::set_of`] on every address without its per-call
/// division and divisibility check.
///
/// # Example
///
/// ```
/// use latte_cache::{CacheGeometry, LineAddr, SetIndex};
///
/// let l1 = CacheGeometry::paper_l1();
/// let index = SetIndex::new(&l1);
/// assert_eq!(index.num_sets(), 32);
/// assert_eq!(index.set_of(LineAddr::new(70)), l1.set_of(LineAddr::new(70)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetIndex {
    sets: u64,
    /// `sets - 1` when `sets` is a power of two.
    mask: Option<u64>,
}

impl SetIndex {
    /// The mapping of `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into whole sets (see
    /// [`CacheGeometry::num_sets`]).
    #[must_use]
    pub fn new(geometry: &CacheGeometry) -> SetIndex {
        let sets = geometry.num_sets() as u64;
        SetIndex {
            sets,
            mask: sets.is_power_of_two().then(|| sets - 1),
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(self) -> usize {
        self.sets as usize
    }

    /// The set index for a line address (modulo interleaving).
    #[must_use]
    pub fn set_of(self, addr: LineAddr) -> usize {
        let line = addr.line_number();
        let set = match self.mask {
            Some(mask) => line & mask,
            None => line % self.sets,
        };
        set as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l1_geometry() {
        let g = CacheGeometry::paper_l1();
        assert_eq!(g.num_sets(), 32);
        assert_eq!(g.tags_per_set(), 16);
        assert_eq!(g.subblocks_per_set(), 16);
    }

    #[test]
    fn paper_l2_geometry() {
        let g = CacheGeometry::paper_l2();
        assert_eq!(g.num_sets(), 768);
        assert_eq!(g.tags_per_set(), 8);
    }

    #[test]
    fn line_addr_round_trip() {
        let a = LineAddr::from_byte_addr(0x12345678);
        assert_eq!(LineAddr::from_byte_addr(a.byte_addr()), a);
        assert_eq!(a.byte_addr() % 128, 0);
    }

    #[test]
    fn subblock_rounding() {
        assert_eq!(CacheGeometry::subblocks_for(1), 1);
        assert_eq!(CacheGeometry::subblocks_for(32), 1);
        assert_eq!(CacheGeometry::subblocks_for(33), 2);
        assert_eq!(CacheGeometry::subblocks_for(128), 4);
        assert_eq!(CacheGeometry::subblocks_for(0), 1);
    }

    #[test]
    fn line_hasher_mixes_high_key_bits_into_low_hash_bits() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        // Set-aligned lines (a stride of 2^12) differ only in high key
        // bits; their hashes must still spread over the low bits that
        // pick hashbrown buckets.
        let build = BuildHasherDefault::<LineHasher>::default();
        let low: std::collections::BTreeSet<u64> = (0..256u64)
            .map(|i| build.hash_one(LineAddr::new(i << 12)) & 0xff)
            .collect();
        assert!(low.len() > 128, "only {} distinct low bytes", low.len());
        // Fixed hasher: the same key hashes the same in every map.
        assert_eq!(
            build.hash_one(LineAddr::new(7)),
            BuildHasherDefault::<LineHasher>::default().hash_one(LineAddr::new(7))
        );
    }

    #[test]
    fn set_mapping_is_total() {
        let g = CacheGeometry::paper_l1();
        for i in 0..1000 {
            assert!(g.set_of(LineAddr::new(i)) < g.num_sets());
        }
    }
}
