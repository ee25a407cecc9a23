//! LATTE-CC's three compression operating modes (§III).

use latte_compress::CompressionAlgo;
use std::fmt;

/// One of LATTE-CC's three operating modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompressionMode {
    /// Baseline: store lines raw.
    #[default]
    None,
    /// Low-latency compression (BDI: 2-cycle decompression).
    LowLatency,
    /// High-capacity compression (SC: 14-cycle, or BPC: 11-cycle).
    HighCapacity,
}

impl CompressionMode {
    /// All three modes, in learning-phase order.
    pub const ALL: [CompressionMode; 3] = [
        CompressionMode::None,
        CompressionMode::LowLatency,
        CompressionMode::HighCapacity,
    ];

    /// The mode class of lines stored under `algo`: raw, BDI's low
    /// latency, or high capacity for every slower algorithm.
    #[must_use]
    pub fn of(algo: CompressionAlgo) -> CompressionMode {
        match algo {
            CompressionAlgo::None => CompressionMode::None,
            CompressionAlgo::Bdi => CompressionMode::LowLatency,
            _ => CompressionMode::HighCapacity,
        }
    }

    /// A small dense index (for per-mode counter arrays).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            CompressionMode::None => 0,
            CompressionMode::LowLatency => 1,
            CompressionMode::HighCapacity => 2,
        }
    }
}

impl fmt::Display for CompressionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompressionMode::None => "no-compression",
            CompressionMode::LowLatency => "low-latency",
            CompressionMode::HighCapacity => "high-capacity",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_algo_mapping() {
        assert_eq!(
            CompressionMode::of(CompressionAlgo::None),
            CompressionMode::None
        );
        assert_eq!(
            CompressionMode::of(CompressionAlgo::Bdi),
            CompressionMode::LowLatency
        );
        assert_eq!(
            CompressionMode::of(CompressionAlgo::Sc),
            CompressionMode::HighCapacity
        );
        assert_eq!(
            CompressionMode::of(CompressionAlgo::Bpc),
            CompressionMode::HighCapacity
        );
    }

    #[test]
    fn indices_are_dense() {
        let mut seen = [false; 3];
        for m in CompressionMode::ALL {
            seen[m.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn display_names() {
        assert_eq!(CompressionMode::LowLatency.to_string(), "low-latency");
    }
}
