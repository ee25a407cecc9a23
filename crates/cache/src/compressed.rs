//! The compressed L1 data cache organisation of §IV-A.

use crate::geometry::{CacheGeometry, LineAddr, LineMap};
use crate::stats::CacheStats;
use latte_compress::{CacheLine, Compression, CompressionAlgo};

/// One allocated tag in a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TagEntry {
    addr: LineAddr,
    algo: CompressionAlgo,
    compressed: bool,
    subblocks: u8,
    lru: u64,
    /// The line has been written since it was filled and its current
    /// bytes exist only in this cache — eviction must write it back.
    dirty: bool,
}

/// One cache set: up to `tags_per_set` lines sharing `subblocks_per_set`
/// data sub-blocks.
#[derive(Debug, Clone, Default)]
struct Set {
    tags: Vec<TagEntry>,
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// The line is resident.
    Hit {
        /// Algorithm the stored line was compressed with.
        algo: CompressionAlgo,
        /// `false` when the line is stored raw (no decompression needed).
        compressed: bool,
    },
    /// The line is not resident.
    Miss,
}

impl LookupOutcome {
    /// `true` on a hit.
    #[must_use]
    pub fn is_hit(self) -> bool {
        matches!(self, LookupOutcome::Hit { .. })
    }

    /// `true` on a miss.
    #[must_use]
    pub fn is_miss(self) -> bool {
        !self.is_hit()
    }

    /// `true` when the hit requires decompression.
    #[must_use]
    pub fn needs_decompression(self) -> bool {
        matches!(
            self,
            LookupOutcome::Hit {
                compressed: true,
                ..
            }
        )
    }
}

/// A line evicted by a fill or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Address of the evicted line.
    pub addr: LineAddr,
    /// Algorithm it was stored with.
    pub algo: CompressionAlgo,
    /// Whether the line was dirty (written since fill): the caller must
    /// write `data` back to the next level or the write is lost.
    pub dirty: bool,
    /// The line's architectural bytes at eviction, when line-data
    /// tracking is enabled ([`CompressedCache::enable_data_tracking`]).
    pub data: Option<CacheLine>,
}

/// The compressed sector cache (§IV-A): 4× tags, 32-byte sub-block data
/// array, LRU replacement that frees both a tag and enough sub-blocks.
///
/// The cache tracks *placement*, not payload bytes: in the simulator, line
/// contents are a deterministic function of the address (the workload's
/// value generator), so only sizes and compression metadata need modelling.
/// Accordingly, fills are fed from the compressors' size-only probe stage
/// (`Compressor::probe`) — no bitstream is ever materialised on this path.
/// For shadow-checked runs an optional **payload shadow**
/// ([`CompressedCache::enable_payload_shadow`]) additionally carries the
/// bytes each resident line would hold after its compression round trip,
/// giving the differential oracle a real data path to diff against.
///
/// # Example
///
/// ```
/// use latte_cache::{CacheGeometry, CompressedCache, LineAddr};
/// use latte_compress::{Compression, CompressionAlgo};
///
/// let mut cache = CompressedCache::new(CacheGeometry::paper_l1());
/// // Compressed fills pack many lines per set: here 16 lines at 32 B each
/// // land in one 512 B set without eviction.
/// for i in 0..16u64 {
///     let addr = LineAddr::new(i * 32); // all map to set 0
///     let evicted = cache.fill(addr, CompressionAlgo::Bdi, Compression::new(24), i);
///     assert!(evicted.is_empty());
/// }
/// assert_eq!(cache.valid_lines(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct CompressedCache {
    geometry: CacheGeometry,
    sets: Vec<Set>,
    stats: CacheStats,
    clock: u64,
    /// When enabled, the post-round-trip bytes of every resident line,
    /// maintained in lockstep with the tag array (every eviction and
    /// invalidation path removes its entry). `None` in normal runs: the
    /// timing model needs no payloads and pays nothing for them.
    payload_shadow: Option<LineMap<CacheLine>>,
    /// When enabled (the write-back data path), the *architectural* bytes
    /// of every resident line — the fill data as delivered, overlaid with
    /// every store since. Unlike the payload shadow this is part of the
    /// simulation proper: dirty evictions carry these bytes to the next
    /// level, and re-compression on write probes them.
    line_data: Option<LineMap<CacheLine>>,
}

impl CompressedCache {
    /// Creates an empty cache with the given geometry.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> CompressedCache {
        CompressedCache {
            geometry,
            sets: vec![Set::default(); geometry.num_sets()],
            stats: CacheStats::new(),
            clock: 0,
            payload_shadow: None,
            line_data: None,
        }
    }

    /// Turns on architectural line-data tracking (the write-back data
    /// path). All resident lines are invalidated so every tracked line
    /// entered through a recorded fill.
    pub fn enable_data_tracking(&mut self) {
        self.invalidate_all();
        self.line_data = Some(LineMap::default());
    }

    /// Whether [`CompressedCache::enable_data_tracking`] was called.
    #[must_use]
    pub fn data_tracking_enabled(&self) -> bool {
        self.line_data.is_some()
    }

    /// Records the architectural bytes of a just-filled resident line.
    /// No-op when tracking is disabled or the line is not resident.
    pub fn record_line_data(&mut self, addr: LineAddr, data: CacheLine) {
        if self.line_data.is_some() && self.contains(addr) {
            if let Some(map) = &mut self.line_data {
                map.insert(addr, data);
            }
        }
    }

    /// The architectural bytes of a resident line, when tracking is on.
    #[must_use]
    pub fn line_data(&self, addr: LineAddr) -> Option<&CacheLine> {
        self.line_data.as_ref().and_then(|m| m.get(&addr))
    }

    /// Whether a resident line is dirty.
    #[must_use]
    pub fn is_dirty(&self, addr: LineAddr) -> bool {
        self.sets[self.geometry.set_of(addr)]
            .tags
            .iter()
            .any(|t| t.addr == addr && t.dirty)
    }

    /// Number of dirty resident lines.
    #[must_use]
    pub fn dirty_lines(&self) -> usize {
        self.sets
            .iter()
            .flat_map(|s| s.tags.iter())
            .filter(|t| t.dirty)
            .count()
    }

    /// Clears every dirty bit and returns the drained lines with their
    /// architectural bytes, in deterministic (set index, tag slot) order.
    /// Used by the kernel-end flush: the lines stay resident and clean.
    pub fn drain_dirty(&mut self) -> Vec<(LineAddr, CacheLine)> {
        let mut out = Vec::new();
        for set in &mut self.sets {
            for tag in &mut set.tags {
                if tag.dirty {
                    tag.dirty = false;
                    let data = self
                        .line_data
                        .as_ref()
                        .and_then(|m| m.get(&tag.addr))
                        .copied()
                        .unwrap_or_else(CacheLine::zeroed);
                    out.push((tag.addr, data));
                }
            }
        }
        out
    }

    /// Turns on the payload shadow for differential verification. All
    /// resident lines are invalidated so that every line the shadow ever
    /// covers entered through a recorded fill.
    pub fn enable_payload_shadow(&mut self) {
        self.invalidate_all();
        self.payload_shadow = Some(LineMap::default());
    }

    /// Whether [`CompressedCache::enable_payload_shadow`] was called.
    #[must_use]
    pub fn payload_shadow_enabled(&self) -> bool {
        self.payload_shadow.is_some()
    }

    /// Records the bytes a just-filled resident line holds. No-op when
    /// the shadow is disabled or the line is not resident (e.g. the fill
    /// was dropped by tag corruption).
    pub fn record_payload(&mut self, addr: LineAddr, data: CacheLine) {
        if self.payload_shadow.is_some() && self.contains(addr) {
            if let Some(map) = &mut self.payload_shadow {
                map.insert(addr, data);
            }
        }
    }

    /// The recorded payload of a resident line, when the shadow is on.
    #[must_use]
    pub fn payload(&self, addr: LineAddr) -> Option<&CacheLine> {
        self.payload_shadow.as_ref().and_then(|m| m.get(&addr))
    }

    /// The cache's geometry.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics (contents stay).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// The set index a line maps to (used by set sampling).
    #[must_use]
    pub fn set_of(&self, addr: LineAddr) -> usize {
        self.geometry.set_of(addr)
    }

    /// Looks up `addr`, updating LRU state and hit/miss statistics.
    pub fn lookup(&mut self, addr: LineAddr, _cycle: u64) -> LookupOutcome {
        self.clock += 1;
        let clock = self.clock;
        let set = &mut self.sets[self.geometry.set_of(addr)];
        if let Some(tag) = set.tags.iter_mut().find(|t| t.addr == addr) {
            tag.lru = clock;
            self.stats.hits += 1;
            if tag.compressed {
                self.stats.compressed_hits += 1;
            }
            LookupOutcome::Hit {
                algo: tag.algo,
                compressed: tag.compressed,
            }
        } else {
            self.stats.misses += 1;
            LookupOutcome::Miss
        }
    }

    /// Checks residency without perturbing LRU or statistics.
    #[must_use]
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.sets[self.geometry.set_of(addr)]
            .tags
            .iter()
            .any(|t| t.addr == addr)
    }

    /// Inserts (or re-inserts) a line stored with `algo` at the compressed
    /// size `compression`, evicting LRU lines as needed. Returns the
    /// evicted lines.
    ///
    /// Sizes are quantised to 32-byte sub-blocks; an uncompressed line
    /// always occupies four sub-blocks.
    pub fn fill(
        &mut self,
        addr: LineAddr,
        algo: CompressionAlgo,
        compression: Compression,
        _cycle: u64,
    ) -> Vec<EvictedLine> {
        self.clock += 1;
        let clock = self.clock;
        let (algo, compressed) = if compression.is_compressed() {
            (algo, true)
        } else {
            (CompressionAlgo::None, false)
        };
        let needed = if compressed {
            CacheGeometry::subblocks_for(compression.size_bytes())
        } else {
            CacheLine::SIZE_BYTES / crate::geometry::SUBBLOCK_BYTES
        } as u8;

        self.stats.fills += 1;
        if compressed {
            self.stats.compressed_fills += 1;
        }
        self.stats.filled_bytes_uncompressed += CacheLine::SIZE_BYTES as u64;
        self.stats.filled_bytes_stored +=
            u64::from(needed) * crate::geometry::SUBBLOCK_BYTES as u64;

        let set_idx = self.geometry.set_of(addr);
        let max_tags = self.geometry.tags_per_set();
        let max_subblocks = self.geometry.subblocks_per_set() as u32;
        let set = &mut self.sets[set_idx];

        // Re-fill in place when the line is already resident. The stale
        // payload and data go too; the caller re-records after the fill.
        if let Some(pos) = set.tags.iter().position(|t| t.addr == addr) {
            set.tags.remove(pos);
            if let Some(map) = &mut self.payload_shadow {
                map.remove(&addr);
            }
            if let Some(map) = &mut self.line_data {
                map.remove(&addr);
            }
        }

        let evicted = Self::make_room(
            set,
            needed,
            max_tags,
            max_subblocks,
            &mut self.stats,
            &mut self.payload_shadow,
            &mut self.line_data,
        );

        set.tags.push(TagEntry {
            addr,
            algo,
            compressed,
            subblocks: needed,
            lru: clock,
            dirty: false,
        });
        evicted
    }

    /// Evicts LRU lines from `set` until a `needed`-sub-block line fits,
    /// returning the victims (with their dirty bits and, when tracking is
    /// on, their architectural bytes — the caller owns writing them back).
    fn make_room(
        set: &mut Set,
        needed: u8,
        max_tags: usize,
        max_subblocks: u32,
        stats: &mut CacheStats,
        payload_shadow: &mut Option<LineMap<CacheLine>>,
        line_data: &mut Option<LineMap<CacheLine>>,
    ) -> Vec<EvictedLine> {
        let mut evicted = Vec::new();
        loop {
            let used: u32 = set.tags.iter().map(|t| u32::from(t.subblocks)).sum();
            let tags_free = set.tags.len() < max_tags;
            let space_free = used + u32::from(needed) <= max_subblocks;
            if tags_free && space_free {
                break;
            }
            // An empty set always has both a free tag and enough
            // sub-blocks (needed ≤ subblocks_per_set), so a missing
            // victim is unreachable; bail out instead of panicking.
            let Some(victim_pos) = set
                .tags
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.lru)
                .map(|(i, _)| i)
            else {
                break;
            };
            let victim = set.tags.remove(victim_pos);
            if let Some(map) = payload_shadow {
                map.remove(&victim.addr);
            }
            let data = line_data.as_mut().and_then(|map| map.remove(&victim.addr));
            evicted.push(EvictedLine {
                addr: victim.addr,
                algo: victim.algo,
                dirty: victim.dirty,
                data,
            });
            stats.evictions += 1;
        }
        evicted
    }

    /// Writes a full line image to a *resident* line: re-places it at its
    /// re-compressed size (`algo`, `compression`, probed by the caller on
    /// the merged bytes), marks it dirty, and records `data` as its
    /// architectural bytes. A grown line that no longer fits evicts LRU
    /// victims — never itself. Returns `None` when the line is not
    /// resident (the caller should treat the store as a miss), otherwise
    /// the evicted lines.
    ///
    /// Unlike [`CompressedCache::fill`] this bumps no fill statistics: a
    /// write to a resident line is not a fill, and a silent store (same
    /// bytes, same size) leaves every miss/eviction counter untouched.
    pub fn write(
        &mut self,
        addr: LineAddr,
        algo: CompressionAlgo,
        compression: Compression,
        data: &CacheLine,
        _cycle: u64,
    ) -> Option<Vec<EvictedLine>> {
        self.clock += 1;
        let clock = self.clock;
        let (algo, compressed) = if compression.is_compressed() {
            (algo, true)
        } else {
            (CompressionAlgo::None, false)
        };
        let needed = if compressed {
            CacheGeometry::subblocks_for(compression.size_bytes())
        } else {
            CacheLine::SIZE_BYTES / crate::geometry::SUBBLOCK_BYTES
        } as u8;

        let set_idx = self.geometry.set_of(addr);
        let max_tags = self.geometry.tags_per_set();
        let max_subblocks = self.geometry.subblocks_per_set() as u32;
        let set = &mut self.sets[set_idx];
        let pos = set.tags.iter().position(|t| t.addr == addr)?;
        // Pull the line out, make room for its new size, re-insert dirty.
        set.tags.remove(pos);
        if let Some(map) = &mut self.payload_shadow {
            map.remove(&addr);
        }
        let evicted = Self::make_room(
            set,
            needed,
            max_tags,
            max_subblocks,
            &mut self.stats,
            &mut self.payload_shadow,
            &mut self.line_data,
        );
        set.tags.push(TagEntry {
            addr,
            algo,
            compressed,
            subblocks: needed,
            lru: clock,
            dirty: true,
        });
        if let Some(map) = &mut self.line_data {
            map.insert(addr, *data);
        }
        Some(evicted)
    }

    /// Reacts to a failed decompression of a line that just hit: the hit
    /// is re-classified as a miss (the requester must re-fetch from the
    /// next level), the corrupted line is invalidated, and
    /// [`CacheStats::decode_failures`] is bumped. Returns whether the line
    /// was resident.
    ///
    /// Call this immediately after the [`CompressedCache::lookup`] that
    /// reported the hit, so the hit/compressed-hit counters being rolled
    /// back are the ones that lookup just incremented.
    pub fn on_decode_failure(&mut self, addr: LineAddr) -> bool {
        let was_resident = self.invalidate(addr);
        if was_resident {
            self.stats.hits = self.stats.hits.saturating_sub(1);
            self.stats.compressed_hits = self.stats.compressed_hits.saturating_sub(1);
            self.stats.misses += 1;
        }
        self.stats.decode_failures += 1;
        was_resident
    }

    /// Invalidates one line if resident; returns whether it was.
    pub fn invalidate(&mut self, addr: LineAddr) -> bool {
        let set = &mut self.sets[self.geometry.set_of(addr)];
        if let Some(pos) = set.tags.iter().position(|t| t.addr == addr) {
            set.tags.remove(pos);
            if let Some(map) = &mut self.payload_shadow {
                map.remove(&addr);
            }
            if let Some(map) = &mut self.line_data {
                map.remove(&addr);
            }
            true
        } else {
            false
        }
    }

    /// Invalidates every line; returns how many were valid. Used at kernel
    /// boundaries.
    pub fn invalidate_all(&mut self) -> usize {
        let mut count = 0;
        for set in &mut self.sets {
            count += set.tags.len();
            set.tags.clear();
        }
        if let Some(map) = &mut self.payload_shadow {
            map.clear();
        }
        if let Some(map) = &mut self.line_data {
            map.clear();
        }
        count
    }

    /// Invalidates every line stored with `algo`, returning the dropped
    /// lines (with their dirty bits and tracked bytes, so the caller can
    /// write dirty victims back). The paper's SC invalidates stale lines
    /// when a period's codebook is rebuilt (§IV-C2).
    pub fn invalidate_algo(&mut self, algo: CompressionAlgo) -> Vec<EvictedLine> {
        let mut dropped = Vec::new();
        for set in &mut self.sets {
            let payload_shadow = &mut self.payload_shadow;
            let line_data = &mut self.line_data;
            set.tags.retain(|t| {
                let keep = t.algo != algo;
                if !keep {
                    if let Some(map) = payload_shadow {
                        map.remove(&t.addr);
                    }
                    let data = line_data.as_mut().and_then(|map| map.remove(&t.addr));
                    dropped.push(EvictedLine {
                        addr: t.addr,
                        algo: t.algo,
                        dirty: t.dirty,
                        data,
                    });
                }
                keep
            });
        }
        dropped
    }

    /// Number of valid lines.
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.sets.iter().map(|s| s.tags.len()).sum()
    }

    /// Sum of the *uncompressed* sizes of all valid lines, in bytes — the
    /// "effective cache capacity" metric of Fig 16.
    #[must_use]
    pub fn effective_capacity_bytes(&self) -> usize {
        self.valid_lines() * CacheLine::SIZE_BYTES
    }

    /// Sum of the stored (sub-block-quantised) sizes of all valid lines.
    #[must_use]
    pub fn stored_bytes(&self) -> usize {
        self.sets
            .iter()
            .flat_map(|s| s.tags.iter())
            .map(|t| usize::from(t.subblocks) * crate::geometry::SUBBLOCK_BYTES)
            .sum()
    }

    /// Verifies the structural invariants of every set without panicking,
    /// returning a description of the first violation found. Used by the
    /// simulator's forward-progress watchdog to distinguish a workload
    /// that is merely stalled from corrupted cache state.
    ///
    /// # Errors
    ///
    /// Returns `Err` if a set exceeds its tag or sub-block budget, holds
    /// duplicate addresses, holds a line mapped to the wrong set, holds
    /// a tag with an out-of-range sub-block count, or (when the payload
    /// shadow is enabled) the shadow and the tag array disagree about
    /// which lines are resident.
    pub fn validate(&self) -> Result<(), String> {
        for (i, set) in self.sets.iter().enumerate() {
            if set.tags.len() > self.geometry.tags_per_set() {
                return Err(format!(
                    "set {i} exceeds tag budget: {} > {}",
                    set.tags.len(),
                    self.geometry.tags_per_set()
                ));
            }
            let used: u32 = set.tags.iter().map(|t| u32::from(t.subblocks)).sum();
            if used > self.geometry.subblocks_per_set() as u32 {
                return Err(format!("set {i} exceeds sub-block budget: {used}"));
            }
            for (j, t) in set.tags.iter().enumerate() {
                if set.tags[j + 1..].iter().any(|u| u.addr == t.addr) {
                    return Err(format!("set {i} holds duplicate address {}", t.addr));
                }
                if t.subblocks < 1 || t.subblocks > 4 {
                    return Err(format!(
                        "set {i} holds tag with {} sub-blocks",
                        t.subblocks
                    ));
                }
                if self.geometry.set_of(t.addr) != i {
                    return Err(format!("line {} mapped to wrong set {i}", t.addr));
                }
            }
        }
        if let Some(map) = &self.payload_shadow {
            // Keyed lookups against the deterministic tag walk; the map
            // itself is never iterated, so the check is order-free.
            let mut resident = 0usize;
            for (i, set) in self.sets.iter().enumerate() {
                for t in &set.tags {
                    resident += 1;
                    if !map.contains_key(&t.addr) {
                        return Err(format!(
                            "set {i}: resident {} has no shadow payload",
                            t.addr
                        ));
                    }
                }
            }
            if map.len() != resident {
                return Err(format!(
                    "payload shadow holds {} entries for {resident} resident lines (orphaned payloads)",
                    map.len()
                ));
            }
        }
        if let Some(map) = &self.line_data {
            // Same keyed walk as the payload shadow: every resident line
            // must carry architectural bytes, dirty or not, and the map
            // must hold nothing else (an orphaned entry would be a write
            // surviving its line's eviction without a write-back).
            let mut resident = 0usize;
            for (i, set) in self.sets.iter().enumerate() {
                for t in &set.tags {
                    resident += 1;
                    if !map.contains_key(&t.addr) {
                        return Err(format!(
                            "set {i}: resident {} has no tracked line data{}",
                            t.addr,
                            if t.dirty { " (and is dirty)" } else { "" }
                        ));
                    }
                }
            }
            if map.len() != resident {
                return Err(format!(
                    "line-data map holds {} entries for {resident} resident lines (orphaned data)",
                    map.len()
                ));
            }
        } else {
            for (i, set) in self.sets.iter().enumerate() {
                if let Some(t) = set.tags.iter().find(|t| t.dirty) {
                    return Err(format!(
                        "set {i}: {} is dirty but line-data tracking is off — its bytes are nowhere",
                        t.addr
                    ));
                }
            }
        }
        Ok(())
    }

    /// Verifies the structural invariants of every set. Intended for tests.
    ///
    /// # Panics
    ///
    /// Panics if [`CompressedCache::validate`] reports a violation.
    pub fn assert_invariants(&self) {
        if let Err(violation) = self.validate() {
            // latte-lint: allow(P1, reason = "documented panicking test-support API; sim paths use validate()")
            panic!("{violation}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> CompressedCache {
        CompressedCache::new(CacheGeometry::paper_l1())
    }

    /// Addresses that all map to set 0 of the paper L1 (32 sets).
    fn set0_addr(i: u64) -> LineAddr {
        LineAddr::new(i * 32)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = l1();
        let a = LineAddr::new(42);
        assert!(c.lookup(a, 0).is_miss());
        c.fill(a, CompressionAlgo::Bdi, Compression::new(40), 1);
        let out = c.lookup(a, 2);
        assert!(out.is_hit());
        assert!(out.needs_decompression());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn uncompressed_fill_occupies_four_subblocks() {
        let mut c = l1();
        // 4 uncompressed lines fill a set; the 5th evicts.
        for i in 0..4 {
            let ev = c.fill(set0_addr(i), CompressionAlgo::None, Compression::UNCOMPRESSED, i);
            assert!(ev.is_empty());
        }
        let ev = c.fill(set0_addr(4), CompressionAlgo::None, Compression::UNCOMPRESSED, 4);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].addr, set0_addr(0), "LRU victim");
        c.assert_invariants();
    }

    #[test]
    fn compressed_fills_quadruple_capacity() {
        let mut c = l1();
        for i in 0..16 {
            let ev = c.fill(set0_addr(i), CompressionAlgo::Sc, Compression::new(32), i);
            assert!(ev.is_empty(), "line {i} evicted {ev:?}");
        }
        assert_eq!(c.valid_lines(), 16);
        assert_eq!(c.effective_capacity_bytes(), 16 * 128);
        // The 17th line exceeds the tag budget.
        let ev = c.fill(set0_addr(16), CompressionAlgo::Sc, Compression::new(32), 99);
        assert_eq!(ev.len(), 1);
        c.assert_invariants();
    }

    #[test]
    fn mixed_sizes_evict_until_space() {
        let mut c = l1();
        // Two uncompressed (4 sb each) + three 2-sb lines: 14/16 sub-blocks.
        c.fill(set0_addr(0), CompressionAlgo::None, Compression::UNCOMPRESSED, 0);
        c.fill(set0_addr(1), CompressionAlgo::None, Compression::UNCOMPRESSED, 1);
        c.fill(set0_addr(2), CompressionAlgo::Bdi, Compression::new(64), 2);
        c.fill(set0_addr(3), CompressionAlgo::Bdi, Compression::new(64), 3);
        c.fill(set0_addr(5), CompressionAlgo::Bdi, Compression::new(64), 5);
        // An uncompressed fill needs 4 sub-blocks but only 2 are free:
        // exactly one eviction (the LRU, a 4-sb line) frees enough.
        let ev = c.fill(set0_addr(4), CompressionAlgo::None, Compression::UNCOMPRESSED, 6);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].addr, set0_addr(0));
        c.assert_invariants();
    }

    #[test]
    fn lru_respects_lookups() {
        let mut c = l1();
        for i in 0..4 {
            c.fill(set0_addr(i), CompressionAlgo::None, Compression::UNCOMPRESSED, i);
        }
        // Touch line 0 so line 1 becomes LRU.
        assert!(c.lookup(set0_addr(0), 10).is_hit());
        let ev = c.fill(set0_addr(9), CompressionAlgo::None, Compression::UNCOMPRESSED, 11);
        assert_eq!(ev[0].addr, set0_addr(1));
    }

    #[test]
    fn refill_replaces_in_place() {
        let mut c = l1();
        let a = set0_addr(0);
        c.fill(a, CompressionAlgo::Bdi, Compression::new(24), 0);
        // Recompress the same line to a larger footprint.
        let ev = c.fill(a, CompressionAlgo::None, Compression::UNCOMPRESSED, 1);
        assert!(ev.is_empty());
        assert_eq!(c.valid_lines(), 1);
        assert_eq!(c.stored_bytes(), 128);
        c.assert_invariants();
    }

    #[test]
    fn incompressible_fill_downgrades_to_none() {
        let mut c = l1();
        let a = set0_addr(0);
        c.fill(a, CompressionAlgo::Sc, Compression::UNCOMPRESSED, 0);
        let out = c.lookup(a, 1);
        assert_eq!(
            out,
            LookupOutcome::Hit {
                algo: CompressionAlgo::None,
                compressed: false
            }
        );
        assert!(!out.needs_decompression());
    }

    #[test]
    fn invalidate_algo_removes_only_matching() {
        let mut c = l1();
        c.fill(set0_addr(0), CompressionAlgo::Sc, Compression::new(16), 0);
        c.fill(set0_addr(1), CompressionAlgo::Bdi, Compression::new(16), 1);
        c.fill(set0_addr(2), CompressionAlgo::Sc, Compression::new(16), 2);
        assert_eq!(c.invalidate_algo(CompressionAlgo::Sc).len(), 2);
        assert_eq!(c.valid_lines(), 1);
        assert!(c.contains(set0_addr(1)));
    }

    #[test]
    fn invalidate_all_counts() {
        let mut c = l1();
        for i in 0..10 {
            c.fill(LineAddr::new(i), CompressionAlgo::Bdi, Compression::new(30), i);
        }
        assert_eq!(c.invalidate_all(), 10);
        assert_eq!(c.valid_lines(), 0);
        assert_eq!(c.effective_capacity_bytes(), 0);
    }

    #[test]
    fn contains_does_not_touch_stats() {
        let mut c = l1();
        let a = LineAddr::new(7);
        c.fill(a, CompressionAlgo::Bdi, Compression::new(30), 0);
        let before = *c.stats();
        assert!(c.contains(a));
        assert!(!c.contains(LineAddr::new(8)));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn decode_failure_reclassifies_hit_as_miss() {
        let mut c = l1();
        let a = set0_addr(0);
        c.fill(a, CompressionAlgo::Bdi, Compression::new(40), 0);
        assert!(c.lookup(a, 1).needs_decompression());
        assert!(c.on_decode_failure(a));
        // The hit above is rolled back into a miss, and the corrupted
        // line is gone so the next access re-fetches.
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().compressed_hits, 0);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().decode_failures, 1);
        assert!(!c.contains(a));
        assert!(c.lookup(a, 2).is_miss());
        c.assert_invariants();
    }

    #[test]
    fn decode_failure_on_absent_line_only_counts() {
        let mut c = l1();
        let before = *c.stats();
        assert!(!c.on_decode_failure(set0_addr(3)));
        assert_eq!(c.stats().hits, before.hits);
        assert_eq!(c.stats().misses, before.misses);
        assert_eq!(c.stats().decode_failures, 1);
    }

    #[test]
    fn validate_accepts_live_state() {
        let mut c = l1();
        for i in 0..40 {
            c.fill(LineAddr::new(i * 32), CompressionAlgo::Bdi, Compression::new(48), i);
            c.lookup(LineAddr::new(i * 16), i);
        }
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn payload_shadow_tracks_fills_and_evictions() {
        let mut c = l1();
        c.enable_payload_shadow();
        let data = CacheLine::from_u32_words(&[7; 32]);
        for i in 0..4 {
            c.fill(set0_addr(i), CompressionAlgo::None, Compression::UNCOMPRESSED, i);
            c.record_payload(set0_addr(i), data);
        }
        assert_eq!(c.payload(set0_addr(0)), Some(&data));
        assert_eq!(c.validate(), Ok(()));
        // The 5th uncompressed fill evicts the LRU line and its payload.
        c.fill(set0_addr(9), CompressionAlgo::None, Compression::UNCOMPRESSED, 9);
        c.record_payload(set0_addr(9), data);
        assert_eq!(c.payload(set0_addr(0)), None);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn payload_shadow_follows_every_invalidation_path() {
        let mut c = l1();
        c.enable_payload_shadow();
        let data = CacheLine::zeroed();
        c.fill(set0_addr(0), CompressionAlgo::Sc, Compression::new(16), 0);
        c.record_payload(set0_addr(0), data);
        c.fill(set0_addr(1), CompressionAlgo::Bdi, Compression::new(16), 1);
        c.record_payload(set0_addr(1), data);

        c.invalidate_algo(CompressionAlgo::Sc);
        assert_eq!(c.payload(set0_addr(0)), None);
        assert_eq!(c.validate(), Ok(()));

        assert!(c.invalidate(set0_addr(1)));
        assert_eq!(c.payload(set0_addr(1)), None);

        c.fill(set0_addr(2), CompressionAlgo::Bdi, Compression::new(16), 2);
        c.record_payload(set0_addr(2), data);
        c.invalidate_all();
        assert_eq!(c.payload(set0_addr(2)), None);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn refill_drops_the_stale_payload_until_rerecorded() {
        let mut c = l1();
        c.enable_payload_shadow();
        let old = CacheLine::from_u32_words(&[1; 32]);
        let new = CacheLine::from_u32_words(&[2; 32]);
        c.fill(set0_addr(0), CompressionAlgo::Bdi, Compression::new(24), 0);
        c.record_payload(set0_addr(0), old);
        c.fill(set0_addr(0), CompressionAlgo::None, Compression::UNCOMPRESSED, 1);
        assert_eq!(c.payload(set0_addr(0)), None, "stale payload must not survive a refill");
        c.record_payload(set0_addr(0), new);
        assert_eq!(c.payload(set0_addr(0)), Some(&new));
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn record_payload_ignores_non_resident_lines() {
        let mut c = l1();
        c.enable_payload_shadow();
        c.record_payload(set0_addr(5), CacheLine::zeroed());
        assert_eq!(c.payload(set0_addr(5)), None);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_flags_shadow_divergence() {
        let mut c = l1();
        c.enable_payload_shadow();
        // A resident line without a payload is a divergence…
        c.fill(set0_addr(0), CompressionAlgo::Bdi, Compression::new(24), 0);
        let err = c.validate().expect_err("missing payload must fail validation");
        assert!(err.contains("no shadow payload"), "{err}");
        c.record_payload(set0_addr(0), CacheLine::zeroed());
        assert_eq!(c.validate(), Ok(()));
        // …and so is an orphaned payload with no resident line.
        if let Some(map) = &mut c.payload_shadow {
            map.insert(set0_addr(31), CacheLine::zeroed());
        }
        let err = c.validate().expect_err("orphaned payload must fail validation");
        assert!(err.contains("orphaned"), "{err}");
    }

    fn tracked() -> CompressedCache {
        let mut c = l1();
        c.enable_data_tracking();
        c
    }

    fn line_of(byte: u8) -> CacheLine {
        CacheLine::from_bytes([byte; CacheLine::SIZE_BYTES])
    }

    #[test]
    fn write_marks_dirty_and_records_bytes() {
        let mut c = tracked();
        let a = set0_addr(0);
        c.fill(a, CompressionAlgo::Bdi, Compression::new(24), 0);
        c.record_line_data(a, line_of(1));
        assert!(!c.is_dirty(a));
        let ev = c.write(a, CompressionAlgo::Bdi, Compression::new(24), &line_of(2), 1);
        assert_eq!(ev, Some(vec![]), "same size: no evictions");
        assert!(c.is_dirty(a));
        assert_eq!(c.line_data(a), Some(&line_of(2)));
        assert_eq!(c.stats().fills, 1, "a write is not a fill");
        assert_eq!(c.stats().evictions, 0);
        c.assert_invariants();
    }

    #[test]
    fn write_to_absent_line_is_none() {
        let mut c = tracked();
        assert_eq!(
            c.write(set0_addr(7), CompressionAlgo::None, Compression::UNCOMPRESSED, &line_of(0), 0),
            None
        );
    }

    #[test]
    fn grown_write_evicts_others_never_itself() {
        let mut c = tracked();
        // Pack the set to exactly its 16-sub-block budget: four 1-block
        // compressed lines plus three uncompressed ones.
        for i in 0..4 {
            c.fill(set0_addr(i), CompressionAlgo::Bdi, Compression::new(32), i);
            c.record_line_data(set0_addr(i), line_of(i as u8));
        }
        for i in 4..7 {
            c.fill(set0_addr(i), CompressionAlgo::None, Compression::UNCOMPRESSED, i);
            c.record_line_data(set0_addr(i), line_of(i as u8));
        }
        // Growing line 0 from 1 to 4 sub-blocks exceeds the budget by 3.
        let ev = c
            .write(set0_addr(0), CompressionAlgo::None, Compression::UNCOMPRESSED, &line_of(9), 6)
            .unwrap_or_default();
        assert!(!ev.is_empty(), "grown line must evict");
        assert!(ev.iter().all(|e| e.addr != set0_addr(0)), "never evicts itself");
        assert!(ev.iter().all(|e| e.data.is_some()), "victims carry their bytes");
        assert!(c.is_dirty(set0_addr(0)));
        assert_eq!(c.line_data(set0_addr(0)), Some(&line_of(9)));
        c.assert_invariants();
    }

    #[test]
    fn evicted_dirty_line_carries_its_written_bytes() {
        let mut c = tracked();
        for i in 0..4 {
            c.fill(set0_addr(i), CompressionAlgo::None, Compression::UNCOMPRESSED, i);
            c.record_line_data(set0_addr(i), line_of(i as u8));
        }
        c.write(set0_addr(0), CompressionAlgo::None, Compression::UNCOMPRESSED, &line_of(0xAA), 4);
        // Touch the clean lines so the dirty one becomes LRU.
        for i in 1..4 {
            c.lookup(set0_addr(i), 5 + i);
        }
        let ev = c.fill(set0_addr(9), CompressionAlgo::None, Compression::UNCOMPRESSED, 9);
        c.record_line_data(set0_addr(9), line_of(9));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].addr, set0_addr(0));
        assert!(ev[0].dirty);
        assert_eq!(ev[0].data, Some(line_of(0xAA)));
        c.assert_invariants();
    }

    #[test]
    fn drain_dirty_clears_bits_in_deterministic_order() {
        let mut c = tracked();
        for i in 0..3 {
            c.fill(set0_addr(i), CompressionAlgo::Bdi, Compression::new(32), i);
            c.record_line_data(set0_addr(i), line_of(i as u8));
        }
        c.write(set0_addr(2), CompressionAlgo::Bdi, Compression::new(32), &line_of(12), 3);
        c.write(set0_addr(0), CompressionAlgo::Bdi, Compression::new(32), &line_of(10), 4);
        assert_eq!(c.dirty_lines(), 2);
        let drained = c.drain_dirty();
        // Tag-slot order within the set, regardless of write order.
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0], (set0_addr(2), line_of(12)));
        assert_eq!(drained[1], (set0_addr(0), line_of(10)));
        assert_eq!(c.dirty_lines(), 0);
        assert_eq!(c.valid_lines(), 3, "flushed lines stay resident");
        assert!(c.drain_dirty().is_empty());
        c.assert_invariants();
    }

    #[test]
    fn invalidate_algo_reports_dirty_victims() {
        let mut c = tracked();
        c.fill(set0_addr(0), CompressionAlgo::Sc, Compression::new(16), 0);
        c.record_line_data(set0_addr(0), line_of(1));
        c.write(set0_addr(0), CompressionAlgo::Sc, Compression::new(16), &line_of(2), 1);
        let dropped = c.invalidate_algo(CompressionAlgo::Sc);
        assert_eq!(dropped.len(), 1);
        assert!(dropped[0].dirty);
        assert_eq!(dropped[0].data, Some(line_of(2)));
        c.assert_invariants();
    }

    #[test]
    fn fill_ratio_statistics() {
        let mut c = l1();
        c.fill(LineAddr::new(0), CompressionAlgo::Bdi, Compression::new(32), 0);
        c.fill(LineAddr::new(1), CompressionAlgo::Bdi, Compression::new(32), 1);
        // 2 lines of 128 B stored in 2 x 32 B.
        assert!((c.stats().fill_compression_ratio() - 4.0).abs() < 1e-12);
    }
}
