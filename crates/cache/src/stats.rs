//! Per-cache event counters.

/// Counters accumulated by a cache over its lifetime (or since the last
/// [`CacheStats::reset`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the line.
    pub hits: u64,
    /// Lookups that found the line stored in compressed form.
    pub compressed_hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines inserted.
    pub fills: u64,
    /// Lines inserted in compressed form.
    pub compressed_fills: u64,
    /// Valid lines evicted to make room.
    pub evictions: u64,
    /// Total uncompressed bytes of all filled lines.
    pub filled_bytes_uncompressed: u64,
    /// Total stored (compressed, sub-block-quantised) bytes of all filled
    /// lines.
    pub filled_bytes_stored: u64,
    /// Hits whose decompression failed (corrupted stored line); each is
    /// re-classified as a miss and the line re-fetched.
    pub decode_failures: u64,
}

impl CacheStats {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> CacheStats {
        CacheStats::default()
    }

    /// Total lookups.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in [0, 1]; 0 when no accesses were made.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Miss rate in [0, 1]; 0 when no accesses were made.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }

    /// Mean compression ratio of filled lines (1.0 when nothing stored).
    #[must_use]
    pub fn fill_compression_ratio(&self) -> f64 {
        if self.filled_bytes_stored == 0 {
            1.0
        } else {
            self.filled_bytes_uncompressed as f64 / self.filled_bytes_stored as f64
        }
    }

    /// Zeroes all counters.
    pub fn reset(&mut self) {
        *self = CacheStats::default();
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    fn add(self, rhs: CacheStats) -> CacheStats {
        let CacheStats {
            hits,
            compressed_hits,
            misses,
            fills,
            compressed_fills,
            evictions,
            filled_bytes_uncompressed,
            filled_bytes_stored,
            decode_failures,
        } = rhs;
        CacheStats {
            hits: self.hits + hits,
            compressed_hits: self.compressed_hits + compressed_hits,
            misses: self.misses + misses,
            fills: self.fills + fills,
            compressed_fills: self.compressed_fills + compressed_fills,
            evictions: self.evictions + evictions,
            filled_bytes_uncompressed: self.filled_bytes_uncompressed + filled_bytes_uncompressed,
            filled_bytes_stored: self.filled_bytes_stored + filled_bytes_stored,
            decode_failures: self.decode_failures + decode_failures,
        }
    }
}

impl std::iter::Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        iter.fold(CacheStats::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let s = CacheStats {
            hits: 30,
            misses: 70,
            ..CacheStats::default()
        };
        assert!((s.hit_rate() - 0.3).abs() < 1e-12);
        assert!((s.miss_rate() - 0.7).abs() < 1e-12);
        assert_eq!(s.accesses(), 100);
    }

    #[test]
    fn empty_rates_are_zero() {
        let s = CacheStats::new();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.fill_compression_ratio(), 1.0);
    }

    #[test]
    fn sum_adds_fields() {
        let a = CacheStats {
            hits: 1,
            misses: 2,
            fills: 3,
            ..CacheStats::default()
        };
        let total: CacheStats = [a, a, a].into_iter().sum();
        assert_eq!(total.hits, 3);
        assert_eq!(total.misses, 6);
        assert_eq!(total.fills, 9);
    }
}
