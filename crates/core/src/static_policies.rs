//! The static (non-adaptive) compression policies the paper compares
//! against: Static-BDI, Static-SC and Static-BPC (§V-A).

use crate::sc_manager::ScManager;
use crate::size_memo::SizeMemo;
use latte_cache::CacheGeometry;
use latte_compress::{Bdi, Bpc, CacheLine, Compression, CompressionAlgo, Compressor};
use latte_gpusim::{EpProbe, FillLine, L1CompressionPolicy};

/// Static-BDI: compress every fill with BDI.
#[derive(Debug, Clone, Default)]
pub struct StaticBdi {
    bdi: Bdi,
    memo: SizeMemo,
}

impl StaticBdi {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> StaticBdi {
        StaticBdi::default()
    }
}

impl L1CompressionPolicy for StaticBdi {
    fn name(&self) -> &'static str {
        "Static-BDI"
    }

    fn compress_fill(&mut self, set: usize, line: &CacheLine) -> (CompressionAlgo, Compression) {
        self.compress_fill_line(set, &mut FillLine::unkeyed(*line))
    }

    fn compress_fill_line(
        &mut self,
        _set: usize,
        line: &mut FillLine<'_>,
    ) -> (CompressionAlgo, Compression) {
        let size = self.memo.size(line, CompressionAlgo::Bdi, |line| self.bdi.probe(line));
        (CompressionAlgo::Bdi, size)
    }

    fn on_attach(&mut self, l1: &CacheGeometry) {
        self.memo = SizeMemo::for_l1(l1);
    }

    fn on_kernel_start(&mut self) {
        self.memo.clear();
    }
}

/// Static-BPC: compress every fill with bit-plane compression.
#[derive(Debug, Clone, Default)]
pub struct StaticBpc {
    bpc: Bpc,
    memo: SizeMemo,
}

impl StaticBpc {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> StaticBpc {
        StaticBpc::default()
    }
}

impl L1CompressionPolicy for StaticBpc {
    fn name(&self) -> &'static str {
        "Static-BPC"
    }

    fn compress_fill(&mut self, set: usize, line: &CacheLine) -> (CompressionAlgo, Compression) {
        self.compress_fill_line(set, &mut FillLine::unkeyed(*line))
    }

    fn compress_fill_line(
        &mut self,
        _set: usize,
        line: &mut FillLine<'_>,
    ) -> (CompressionAlgo, Compression) {
        let size = self.memo.size(line, CompressionAlgo::Bpc, |line| self.bpc.probe(line));
        (CompressionAlgo::Bpc, size)
    }

    fn on_attach(&mut self, l1: &CacheGeometry) {
        self.memo = SizeMemo::for_l1(l1);
    }

    fn on_kernel_start(&mut self) {
        self.memo.clear();
    }
}

/// Static-SC: compress every fill with statistical compression, retraining
/// the VFT each period per §IV-C2.
#[derive(Debug, Clone)]
pub struct StaticSc {
    manager: ScManager,
    memo: SizeMemo,
}

impl StaticSc {
    /// Creates the policy with the paper's 10-EP period.
    #[must_use]
    pub fn new() -> StaticSc {
        StaticSc::with_period(10)
    }

    /// Creates the policy with a custom period length.
    #[must_use]
    pub fn with_period(eps_per_period: u64) -> StaticSc {
        StaticSc {
            manager: ScManager::new(eps_per_period),
            memo: SizeMemo::new(),
        }
    }
}

impl Default for StaticSc {
    fn default() -> StaticSc {
        StaticSc::new()
    }
}

impl L1CompressionPolicy for StaticSc {
    fn name(&self) -> &'static str {
        "Static-SC"
    }

    fn compress_fill(&mut self, set: usize, line: &CacheLine) -> (CompressionAlgo, Compression) {
        self.compress_fill_line(set, &mut FillLine::unkeyed(*line))
    }

    fn compress_fill_line(
        &mut self,
        _set: usize,
        line: &mut FillLine<'_>,
    ) -> (CompressionAlgo, Compression) {
        if self.manager.reads_fills() {
            self.manager.observe_fill(line.bytes());
        }
        let size = self.memo.size(line, CompressionAlgo::Sc, |line| self.manager.probe(line));
        (CompressionAlgo::Sc, size)
    }

    fn on_ep(&mut self, _probe: &EpProbe) {
        if self.manager.on_ep_end() {
            self.memo.forget(CompressionAlgo::Sc);
        }
    }

    fn on_attach(&mut self, l1: &CacheGeometry) {
        self.memo = SizeMemo::for_l1(l1);
    }

    fn on_kernel_start(&mut self) {
        self.manager.on_kernel_start();
        self.memo.clear();
    }

    fn pending_invalidation(&mut self) -> Option<CompressionAlgo> {
        self.manager.take_invalidation().then_some(CompressionAlgo::Sc)
    }

    fn validate(&self) -> Result<(), String> {
        self.manager.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bdi_friendly() -> CacheLine {
        CacheLine::from_u32_words(&(0..32).map(|i| 0x1000 + i).collect::<Vec<_>>())
    }

    fn sc_friendly() -> CacheLine {
        let vals = [f32::to_bits(1.5), f32::to_bits(-2.25), f32::to_bits(9.75), 0];
        CacheLine::from_u32_words(&(0..32).map(|i| vals[i % 4]).collect::<Vec<_>>())
    }

    #[test]
    fn static_bdi_compresses_spatial_lines() {
        let mut p = StaticBdi::new();
        let (algo, c) = p.compress_fill(0, &bdi_friendly());
        assert_eq!(algo, CompressionAlgo::Bdi);
        assert!(c.is_compressed());
    }

    #[test]
    fn static_bpc_compresses_strided_lines() {
        let mut p = StaticBpc::new();
        let (algo, c) = p.compress_fill(0, &bdi_friendly());
        assert_eq!(algo, CompressionAlgo::Bpc);
        assert!(c.is_compressed());
    }

    #[test]
    fn static_sc_trains_then_compresses() {
        let mut p = StaticSc::with_period(10);
        // First EP: training, no compression yet.
        let (_, c) = p.compress_fill(0, &sc_friendly());
        assert!(!c.is_compressed());
        for _ in 0..20 {
            let _ = p.compress_fill(0, &sc_friendly());
        }
        p.on_ep(&EpProbe::default());
        assert_eq!(p.pending_invalidation(), Some(CompressionAlgo::Sc));
        assert_eq!(p.pending_invalidation(), None);
        let (algo, c) = p.compress_fill(0, &sc_friendly());
        assert_eq!(algo, CompressionAlgo::Sc);
        assert!(c.is_compressed());
        assert!(c.size_bytes() <= 32, "4-symbol alphabet: got {}", c.size_bytes());
    }
}
