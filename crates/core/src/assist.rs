//! The assist-warp comparison policy: CABA-style software-managed cache
//! compression (Vijaykumar et al., "A Case for Core-Assisted Bottleneck
//! Acceleration in GPUs", ISCA 2015; arXiv 1602.01348).
//!
//! CABA performs (de)compression with *assist warps* — short software
//! routines dispatched onto the SM's own SIMD lanes — instead of
//! dedicated hardware. The routines are free when the scheduler has
//! spare issue slots, but they compete with regular warps for those
//! slots when the SM is already issue-bound. This policy models that
//! trade-off at EP granularity using the same latency-tolerance probe
//! LATTE-CC consumes:
//!
//! * **Tolerant EPs** (spare warps cover memory latency): compress every
//!   fill with BDI and charge only the pipeline-visible portion of the
//!   software decompression routine — the rest hides in idle slots.
//! * **Intolerant EPs**: stop compressing new fills, because an assist
//!   warp would steal issue slots from the warps the SM is starved for.
//!   Hits on *resident* BDI lines still pay the full software routine,
//!   now exposed — the hysteresis cost that distinguishes assist warps
//!   from LATTE-CC's hardware decompressors.

use crate::size_memo::SizeMemo;
use latte_cache::CacheGeometry;
use latte_compress::{Bdi, CacheLine, Compression, CompressionAlgo, Compressor, Cycles};
use latte_gpusim::{EpProbe, FillLine, L1CompressionPolicy, PolicyReport};

/// Tuning knobs for [`AssistWarp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssistWarpConfig {
    /// Latency-tolerance threshold (Eq. 4 units) above which assist
    /// warps are considered free: at least one spare ready warp per
    /// scheduler greed-run.
    pub tolerance_threshold: f64,
    /// Cycles of the software decompression routine that stay visible
    /// when the SM is issue-bound (the full SIMD routine: one warp
    /// sweeping 32 words plus the dispatch handshake).
    pub exposed_latency: Cycles,
    /// Visible latency when spare issue slots hide the routine —
    /// the dispatch handshake only, matching hardware BDI's 2 cycles.
    pub hidden_latency: Cycles,
}

impl Default for AssistWarpConfig {
    fn default() -> AssistWarpConfig {
        AssistWarpConfig {
            tolerance_threshold: 1.0,
            exposed_latency: 8,
            hidden_latency: 2,
        }
    }
}

/// The assist-warp policy: BDI in software, gated by latency tolerance.
#[derive(Debug, Clone)]
pub struct AssistWarp {
    config: AssistWarpConfig,
    bdi: Bdi,
    memo: SizeMemo,
    /// Whether the current EP dispatches assist warps on fills.
    compressing: bool,
    eps_in_mode: [u64; 3],
}

impl AssistWarp {
    /// Creates the policy with the default knobs.
    #[must_use]
    pub fn new() -> AssistWarp {
        AssistWarp::with_config(AssistWarpConfig::default())
    }

    /// Creates the policy with explicit knobs.
    #[must_use]
    pub fn with_config(config: AssistWarpConfig) -> AssistWarp {
        AssistWarp {
            config,
            bdi: Bdi::new(),
            memo: SizeMemo::new(),
            // CABA ships with compression on; the first EP probe adjusts.
            compressing: true,
            eps_in_mode: [0; 3],
        }
    }
}

impl Default for AssistWarp {
    fn default() -> AssistWarp {
        AssistWarp::new()
    }
}

impl L1CompressionPolicy for AssistWarp {
    fn name(&self) -> &'static str {
        "Assist-Warp"
    }

    fn compress_fill(&mut self, set: usize, line: &CacheLine) -> (CompressionAlgo, Compression) {
        self.compress_fill_line(set, &mut FillLine::unkeyed(*line))
    }

    fn compress_fill_line(
        &mut self,
        _set: usize,
        line: &mut FillLine<'_>,
    ) -> (CompressionAlgo, Compression) {
        if self.compressing {
            let size = self
                .memo
                .size(line, CompressionAlgo::Bdi, |line| self.bdi.probe(line));
            (CompressionAlgo::Bdi, size)
        } else {
            (CompressionAlgo::None, Compression::UNCOMPRESSED)
        }
    }

    fn decompression_latency(&self, algo: CompressionAlgo) -> Cycles {
        match algo {
            CompressionAlgo::None => 0,
            CompressionAlgo::Bdi => {
                if self.compressing {
                    self.config.hidden_latency
                } else {
                    self.config.exposed_latency
                }
            }
            // Lines this policy never produces keep their hardware cost
            // (only reachable if a cache carries foreign lines).
            other => other.decompression_latency(),
        }
    }

    fn on_ep(&mut self, probe: &EpProbe) {
        self.compressing = probe.latency_tolerance() >= self.config.tolerance_threshold;
        self.eps_in_mode[usize::from(self.compressing)] += 1;
    }

    fn on_attach(&mut self, l1: &CacheGeometry) {
        self.memo = SizeMemo::for_l1(l1);
    }

    fn on_kernel_start(&mut self) {
        self.compressing = true;
        self.eps_in_mode = [0; 3];
        self.memo.clear();
    }

    fn report(&self) -> PolicyReport {
        PolicyReport {
            eps_in_mode: self.eps_in_mode,
        }
    }

    fn current_mode_index(&self) -> Option<usize> {
        Some(usize::from(self.compressing))
    }

    fn validate(&self) -> Result<(), String> {
        if !self.config.tolerance_threshold.is_finite() || self.config.tolerance_threshold < 0.0 {
            return Err(format!(
                "assist-warp tolerance threshold {} is not a finite non-negative number",
                self.config.tolerance_threshold
            ));
        }
        if self.config.hidden_latency > self.config.exposed_latency {
            return Err(format!(
                "assist-warp hidden latency {} exceeds exposed latency {}",
                self.config.hidden_latency, self.config.exposed_latency
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bdi_friendly() -> CacheLine {
        CacheLine::from_u32_words(&(0..32).map(|i| 0x1000 + i).collect::<Vec<_>>())
    }

    fn probe(tolerance: f64) -> EpProbe {
        EpProbe {
            avg_warps_available: tolerance,
            avg_exec_cycles_per_schedule: 1.0,
            ..EpProbe::default()
        }
    }

    #[test]
    fn compresses_while_tolerant() {
        let mut p = AssistWarp::new();
        let (algo, c) = p.compress_fill(0, &bdi_friendly());
        assert_eq!(algo, CompressionAlgo::Bdi);
        assert!(c.is_compressed());
        assert_eq!(p.decompression_latency(CompressionAlgo::Bdi), 2);
    }

    #[test]
    fn intolerant_ep_stops_compressing_and_exposes_residents() {
        let mut p = AssistWarp::new();
        p.on_ep(&probe(0.25));
        let (algo, c) = p.compress_fill(0, &bdi_friendly());
        assert_eq!(algo, CompressionAlgo::None);
        assert!(!c.is_compressed());
        // Resident BDI lines now pay the full software routine.
        assert_eq!(p.decompression_latency(CompressionAlgo::Bdi), 8);
        assert_eq!(p.current_mode_index(), Some(0));
    }

    #[test]
    fn tolerance_recovery_re_enables_assist_warps() {
        let mut p = AssistWarp::new();
        p.on_ep(&probe(0.25));
        p.on_ep(&probe(4.0));
        let (algo, _) = p.compress_fill(0, &bdi_friendly());
        assert_eq!(algo, CompressionAlgo::Bdi);
        assert_eq!(p.report().eps_in_mode, [1, 1, 0]);
        assert_eq!(p.current_mode_index(), Some(1));
    }

    #[test]
    fn kernel_start_resets_state() {
        let mut p = AssistWarp::new();
        p.on_ep(&probe(0.25));
        p.on_kernel_start();
        assert_eq!(p.current_mode_index(), Some(1));
        assert_eq!(p.report().total_eps(), 0);
    }

    #[test]
    fn validate_rejects_inverted_latencies() {
        let p = AssistWarp::with_config(AssistWarpConfig {
            hidden_latency: 10,
            exposed_latency: 4,
            ..AssistWarpConfig::default()
        });
        assert!(p.validate().is_err());
        assert!(AssistWarp::new().validate().is_ok());
    }
}
