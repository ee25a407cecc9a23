//! An event-based GPU energy model — the GPUWattch substitute for the
//! LATTE-CC reproduction (§IV-A: "a modified version of GPUWattch that is
//! augmented with the BDI and SC compressor and decompressor power
//! models").
//!
//! Energy is accounted per simulator event (instructions, cache accesses,
//! DRAM accesses, on-chip data movement, compression operations) plus a
//! static component proportional to runtime. Absolute joules differ from
//! GPUWattch's RTL-calibrated numbers; the *structure* — which Fig 13/14
//! decompose — is the same, and the compressor/decompressor energies are
//! the paper's own (§IV-C).
//!
//! # Example
//!
//! ```
//! use latte_energy::EnergyModel;
//! use latte_gpusim::KernelStats;
//!
//! let model = EnergyModel::paper();
//! let stats = KernelStats { cycles: 1_000_000, instructions: 2_000_000,
//!                           ..KernelStats::default() };
//! let report = model.account(&stats);
//! assert!(report.total_nj() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use latte_compress::CacheLine;
use latte_gpusim::KernelStats;

/// Per-event energy constants, in nanojoules (and watts for static).
///
/// Magnitudes follow the 40 nm-era GPUWattch/CACTI literature: SRAM
/// accesses cost tens of picojoules per16 KB array, DRAM costs ~15–25 nJ
/// per 128-byte burst, moving a byte across the on-chip network costs
/// ~6 pJ, and static power is a large fraction (~40%) of a ~100 W TDP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConstants {
    /// Core dynamic energy per warp instruction (fetch/decode/execute for
    /// 32 lanes).
    pub core_per_instruction_nj: f64,
    /// One L1 data array + tag access.
    pub l1_access_nj: f64,
    /// One L2 bank access.
    pub l2_access_nj: f64,
    /// One DRAM line transfer (activation + burst).
    pub dram_access_nj: f64,
    /// Moving one byte over the SM↔L2 interconnect.
    pub noc_per_byte_nj: f64,
    /// Whole-GPU static (leakage + constant) power.
    pub static_power_w: f64,
    /// Core clock in GHz (converts cycles to seconds).
    pub clock_ghz: f64,
}

impl EnergyConstants {
    /// Constants for the paper's GTX480-class machine.
    #[must_use]
    pub fn paper() -> EnergyConstants {
        EnergyConstants {
            core_per_instruction_nj: 0.8,
            l1_access_nj: 0.06,
            l2_access_nj: 0.35,
            dram_access_nj: 20.0,
            noc_per_byte_nj: 0.006,
            static_power_w: 42.0,
            clock_ghz: 1.4,
        }
    }
}

impl Default for EnergyConstants {
    fn default() -> EnergyConstants {
        EnergyConstants::paper()
    }
}

/// A GPU energy breakdown, in nanojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyReport {
    /// Core pipeline dynamic energy.
    pub core_nj: f64,
    /// L1 data cache access energy.
    pub l1_nj: f64,
    /// L2 access energy.
    pub l2_nj: f64,
    /// DRAM access energy.
    pub dram_nj: f64,
    /// On-chip data-movement energy (L1↔L2 and L2↔DRAM traffic).
    pub noc_nj: f64,
    /// Compressor energy.
    pub compression_nj: f64,
    /// Decompressor energy.
    pub decompression_nj: f64,
    /// Static energy (power × runtime).
    pub static_nj: f64,
}

impl EnergyReport {
    /// Total energy.
    #[must_use]
    pub fn total_nj(&self) -> f64 {
        self.core_nj
            + self.l1_nj
            + self.l2_nj
            + self.dram_nj
            + self.noc_nj
            + self.compression_nj
            + self.decompression_nj
            + self.static_nj
    }

    /// Energy attributable to data movement (NoC + DRAM + L2), the Fig 14
    /// "data movement" component.
    #[must_use]
    pub fn data_movement_nj(&self) -> f64 {
        self.noc_nj + self.dram_nj + self.l2_nj
    }

    /// Compression + decompression overhead, the Fig 14 "overhead"
    /// component.
    #[must_use]
    pub fn compression_overhead_nj(&self) -> f64 {
        self.compression_nj + self.decompression_nj
    }
}

/// The energy model: constants + the accounting rule.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyModel {
    constants: EnergyConstants,
}

impl EnergyModel {
    /// A model with the paper-calibrated constants.
    #[must_use]
    pub fn paper() -> EnergyModel {
        EnergyModel {
            constants: EnergyConstants::paper(),
        }
    }

    /// A model with custom constants.
    #[must_use]
    pub fn new(constants: EnergyConstants) -> EnergyModel {
        EnergyModel { constants }
    }

    /// The constants in use.
    #[must_use]
    pub fn constants(&self) -> &EnergyConstants {
        &self.constants
    }

    /// Accounts the energy of one kernel (or benchmark aggregate).
    #[must_use]
    pub fn account(&self, stats: &KernelStats) -> EnergyReport {
        let c = &self.constants;
        let line = CacheLine::SIZE_BYTES as f64;
        // Traffic: every L2 access moves a line between an SM and the L2;
        // every DRAM access moves a line between the L2 and memory.
        let noc_bytes = stats.l2.accesses() as f64 * line + stats.dram_accesses as f64 * line;
        let seconds = stats.cycles as f64 / (c.clock_ghz * 1e9);
        let compression_nj: f64 = stats
            .compressions
            .iter()
            .map(|(algo, n)| n as f64 * algo.compression_energy_nj())
            .sum();
        let decompression_nj: f64 = stats
            .decompressions
            .iter()
            .map(|(algo, n)| n as f64 * algo.decompression_energy_nj())
            .sum();
        EnergyReport {
            core_nj: stats.instructions as f64 * c.core_per_instruction_nj,
            l1_nj: stats.l1.accesses() as f64 * c.l1_access_nj,
            l2_nj: stats.l2.accesses() as f64 * c.l2_access_nj,
            dram_nj: stats.dram_accesses as f64 * c.dram_access_nj,
            noc_nj: noc_bytes * c.noc_per_byte_nj,
            compression_nj,
            decompression_nj,
            static_nj: c.static_power_w * seconds * 1e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latte_cache::CacheStats;
    use latte_compress::CompressionAlgo;
    use latte_gpusim::AlgoCounts;

    fn stats() -> KernelStats {
        let mut compressions = AlgoCounts::default();
        compressions.bump(CompressionAlgo::Bdi);
        let mut decompressions = AlgoCounts::default();
        decompressions.bump(CompressionAlgo::Sc);
        KernelStats {
            cycles: 1_400_000, // exactly 1 ms at 1.4 GHz
            instructions: 1_000_000,
            l1: CacheStats {
                hits: 600_000,
                misses: 150_000,
                ..CacheStats::default()
            },
            l2: CacheStats {
                hits: 80_000,
                misses: 40_000,
                ..CacheStats::default()
            },
            dram_accesses: 40_000,
            compressions,
            decompressions,
            ..KernelStats::default()
        }
    }

    #[test]
    fn totals_add_up() {
        let r = EnergyModel::paper().account(&stats());
        let sum = r.core_nj
            + r.l1_nj
            + r.l2_nj
            + r.dram_nj
            + r.noc_nj
            + r.compression_nj
            + r.decompression_nj
            + r.static_nj;
        assert!((r.total_nj() - sum).abs() < 1e-6);
    }

    #[test]
    fn static_energy_tracks_runtime() {
        let model = EnergyModel::paper();
        let mut s = stats();
        let e1 = model.account(&s).static_nj;
        s.cycles *= 2;
        let e2 = model.account(&s).static_nj;
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
        // 1 ms at 42 W = 42 mJ = 4.2e7 nJ.
        assert!((e1 - 4.2e7).abs() / 4.2e7 < 1e-9);
    }

    #[test]
    fn compression_energies_use_paper_constants() {
        let r = EnergyModel::paper().account(&stats());
        assert!(
            (r.compression_nj - 0.192).abs() < 1e-12,
            "one BDI compression"
        );
        assert!(
            (r.decompression_nj - 0.336).abs() < 1e-12,
            "one SC decompression"
        );
    }

    #[test]
    fn fewer_misses_mean_less_energy() {
        let model = EnergyModel::paper();
        let base = stats();
        let mut better = base.clone();
        better.dram_accesses /= 2;
        better.l2.misses /= 2;
        better.l2.hits /= 2;
        better.cycles = base.cycles * 9 / 10;
        assert!(model.account(&better).total_nj() < model.account(&base).total_nj());
    }

    #[test]
    fn overhead_is_tiny_relative_to_total() {
        // §V-A: compression/decompression energy < 0.25% of GPU energy.
        let mut s = stats();
        let mut c = AlgoCounts::default();
        let mut d = AlgoCounts::default();
        for _ in 0..150_000 {
            c.bump(CompressionAlgo::Sc);
        }
        for _ in 0..600_000 {
            d.bump(CompressionAlgo::Sc);
        }
        s.compressions = c;
        s.decompressions = d;
        let r = EnergyModel::paper().account(&s);
        assert!(r.compression_overhead_nj() / r.total_nj() < 0.01);
    }
}
