//! A conventional (uncompressed) set-associative cache with LRU
//! replacement, used for the shared L2 and for baseline configurations.

use crate::geometry::{CacheGeometry, LineAddr, SetIndex};
use crate::stats::CacheStats;

#[derive(Debug, Clone, Copy)]
struct Way {
    addr: LineAddr,
    lru: u64,
}

/// An uncompressed set-associative LRU cache tracking line presence only.
///
/// # Example
///
/// ```
/// use latte_cache::{CacheGeometry, LineAddr, SimpleCache};
///
/// let mut l2 = SimpleCache::new(CacheGeometry::paper_l2());
/// let addr = LineAddr::new(99);
/// assert!(!l2.access_and_fill(addr));
/// assert!(l2.access_and_fill(addr));
/// ```
#[derive(Debug, Clone)]
pub struct SimpleCache {
    geometry: CacheGeometry,
    index: SetIndex,
    sets: Vec<Vec<Way>>,
    stats: CacheStats,
    clock: u64,
}

impl SimpleCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> SimpleCache {
        let index = SetIndex::new(&geometry);
        SimpleCache {
            geometry,
            index,
            sets: vec![Vec::new(); index.num_sets()],
            stats: CacheStats::new(),
            clock: 0,
        }
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

    /// Looks up `addr`; on a miss, fills it (evicting the LRU way when the
    /// set is full). Returns `true` on a hit.
    pub fn access_and_fill(&mut self, addr: LineAddr) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let ways = self.geometry.ways;
        let set = &mut self.sets[self.index.set_of(addr)];
        if let Some(w) = set.iter_mut().find(|w| w.addr == addr) {
            w.lru = clock;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        self.stats.fills += 1;
        if set.len() == ways {
            // `ways` is nonzero, so a full set always yields a victim;
            // the `if let` keeps the path panic-free regardless.
            if let Some(victim) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
            {
                set.remove(victim);
                self.stats.evictions += 1;
            }
        }
        set.push(Way { addr, lru: clock });
        false
    }

    /// Checks residency without perturbing LRU or statistics.
    #[must_use]
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.sets[self.index.set_of(addr)]
            .iter()
            .any(|w| w.addr == addr)
    }

    /// Invalidates every line; returns how many were valid.
    pub fn invalidate_all(&mut self) -> usize {
        let mut n = 0;
        for set in &mut self.sets {
            n += set.len();
            set.clear();
        }
        n
    }

    /// Number of valid lines.
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SimpleCache {
        // 2 sets x 2 ways for easy eviction testing.
        SimpleCache::new(CacheGeometry {
            size_bytes: 4 * 128,
            ways: 2,
            tag_factor: 1,
        })
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = small();
        let a = LineAddr::new(0);
        assert!(!c.access_and_fill(a));
        assert!(c.access_and_fill(a));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut c = small();
        let (a, b, d) = (LineAddr::new(0), LineAddr::new(2), LineAddr::new(4));
        c.access_and_fill(a);
        c.access_and_fill(b);
        c.access_and_fill(a); // b is now LRU
        c.access_and_fill(d); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = small();
        // Lines 0 and 1 map to different sets.
        c.access_and_fill(LineAddr::new(0));
        c.access_and_fill(LineAddr::new(1));
        c.access_and_fill(LineAddr::new(2));
        c.access_and_fill(LineAddr::new(3));
        assert_eq!(c.valid_lines(), 4);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn invalidate_all() {
        let mut c = small();
        c.access_and_fill(LineAddr::new(0));
        c.access_and_fill(LineAddr::new(1));
        assert_eq!(c.invalidate_all(), 2);
        assert!(!c.contains(LineAddr::new(0)));
    }
}
