//! Small deterministic kernels for tests, documentation examples and
//! micro-benchmarks. Real workloads live in the `latte-workloads` crate.

use crate::ops::{Kernel, Op, OpStream};
use latte_cache::LineAddr;
use latte_compress::CacheLine;

/// A kernel whose warps stream through a shared working set with a fixed
/// stride, interleaving a little compute between loads. Line data is
/// BDI-friendly (a large base plus small per-word offsets).
#[derive(Debug, Clone)]
pub struct StridedKernel {
    warps_per_sm: usize,
    loads_per_warp: usize,
    working_set_lines: u64,
}

impl StridedKernel {
    /// Creates a strided kernel: `warps_per_sm` warps each issuing
    /// `loads_per_warp` loads over a working set of `working_set_lines`
    /// cache lines (per SM).
    #[must_use]
    pub fn new(
        warps_per_sm: usize,
        loads_per_warp: usize,
        working_set_lines: u64,
    ) -> StridedKernel {
        StridedKernel {
            warps_per_sm,
            loads_per_warp,
            working_set_lines,
        }
    }
}

struct StridedStream {
    base: u64,
    stride: u64,
    span: u64,
    remaining: usize,
    i: u64,
    emit_compute: bool,
}

impl OpStream for StridedStream {
    fn next_op(&mut self) -> Op {
        if self.remaining == 0 {
            return Op::Exit;
        }
        if self.emit_compute {
            self.emit_compute = false;
            return Op::Compute { cycles: 2 };
        }
        self.emit_compute = true;
        self.remaining -= 1;
        let line = self.base + (self.i * self.stride) % self.span;
        self.i += 1;
        Op::Load {
            addr: line * CacheLine::SIZE_BYTES as u64,
        }
    }
}

impl Kernel for StridedKernel {
    fn name(&self) -> &str {
        "strided-test"
    }

    fn warps_on_sm(&self, _sm: usize) -> usize {
        self.warps_per_sm
    }

    fn warp_program(&self, sm: usize, warp: usize) -> Box<dyn OpStream> {
        // Each SM works on a disjoint address range; warps interleave.
        let base = (sm as u64) << 32;
        Box::new(StridedStream {
            base: base / CacheLine::SIZE_BYTES as u64 + warp as u64,
            stride: self.warps_per_sm as u64,
            span: self.working_set_lines,
            remaining: self.loads_per_warp,
            i: 0,
            emit_compute: false,
        })
    }

    fn line_data(&self, addr: LineAddr) -> CacheLine {
        // Low-variance integers: compressible by BDI (and everything else).
        let base = 0x1000_0000u32.wrapping_add((addr.line_number() as u32) << 8);
        let words: Vec<u32> = (0..32).map(|i| base + i).collect();
        CacheLine::from_u32_words(&words)
    }
}

/// A kernel that makes every warp hammer the same few lines (maximal
/// temporal locality, maximal MSHR merging).
#[derive(Debug, Clone)]
pub struct HotsetKernel {
    warps_per_sm: usize,
    loads_per_warp: usize,
    hot_lines: u64,
}

impl HotsetKernel {
    /// Creates a kernel of `warps_per_sm` warps looping `loads_per_warp`
    /// loads over `hot_lines` shared lines.
    #[must_use]
    pub fn new(warps_per_sm: usize, loads_per_warp: usize, hot_lines: u64) -> HotsetKernel {
        HotsetKernel {
            warps_per_sm,
            loads_per_warp,
            hot_lines,
        }
    }
}

impl Kernel for HotsetKernel {
    fn name(&self) -> &str {
        "hotset-test"
    }

    fn warps_on_sm(&self, _sm: usize) -> usize {
        self.warps_per_sm
    }

    fn warp_program(&self, sm: usize, _warp: usize) -> Box<dyn OpStream> {
        let base = (sm as u64) << 32;
        Box::new(StridedStream {
            base: base / CacheLine::SIZE_BYTES as u64,
            stride: 1,
            span: self.hot_lines,
            remaining: self.loads_per_warp,
            i: 0,
            emit_compute: false,
        })
    }

    fn line_data(&self, addr: LineAddr) -> CacheLine {
        // A four-value alphabet: SC-friendly, BDI-hostile.
        let seeds = [
            f32::to_bits(1.5e10),
            f32::to_bits(-3.25),
            f32::to_bits(2.0e-5),
            f32::to_bits(7.875),
        ];
        let words: Vec<u32> = (0..32)
            .map(|i| seeds[((addr.line_number() as usize) + i as usize) % 4])
            .collect();
        CacheLine::from_u32_words(&words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_stream_interleaves_compute() {
        let k = StridedKernel::new(2, 3, 100);
        let mut s = k.warp_program(0, 0);
        assert!(matches!(s.next_op(), Op::Load { .. }));
        assert!(matches!(s.next_op(), Op::Compute { .. }));
        assert!(matches!(s.next_op(), Op::Load { .. }));
        assert!(matches!(s.next_op(), Op::Compute { .. }));
        assert!(matches!(s.next_op(), Op::Load { .. }));
        assert_eq!(s.next_op(), Op::Exit);
    }

    #[test]
    fn line_data_is_deterministic() {
        let k = StridedKernel::new(1, 1, 1);
        let a = LineAddr::new(42);
        assert_eq!(k.line_data(a), k.line_data(a));
    }

    #[test]
    fn sms_use_disjoint_ranges() {
        let k = StridedKernel::new(1, 4, 16);
        let mut s0 = k.warp_program(0, 0);
        let mut s1 = k.warp_program(1, 0);
        let (Op::Load { addr: a0 }, Op::Load { addr: a1 }) = (s0.next_op(), s1.next_op()) else {
            panic!("expected loads");
        };
        assert_ne!(LineAddr::from_byte_addr(a0), LineAddr::from_byte_addr(a1));
    }
}
