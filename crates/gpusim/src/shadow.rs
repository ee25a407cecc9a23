//! The shadow-verification hook: a seam through which a timing-free
//! reference model (the differential oracle in `crates/oracle`) observes
//! every architecturally visible data movement of the cycle-level
//! simulator and is asked to confirm, at configurable checkpoints, that
//! the machine's structural invariants still hold.
//!
//! The simulator stays in charge of *what* is checked structurally (it
//! owns the caches, MSHRs and policies); the hook implementor decides
//! what to do with the evidence. `gpusim` deliberately knows nothing
//! about the oracle crate — the dependency points the other way — so the
//! hook is a trait object installed via [`crate::Gpu::set_shadow_check`].
//!
//! Everything here is clock-free and panic-free: a violation is data,
//! not a crash, so a shadow-checked run finishes and reports rather than
//! aborting mid-simulation.

use latte_cache::LineAddr;
use latte_compress::{Bdi, Bpc, CacheLine, CompressionAlgo, CpackZ, Cycles, Fpc};
use std::fmt;

/// Where in the simulation a structural checkpoint fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowCheckpoint {
    /// An experimental-phase boundary (periodic cadence, see
    /// [`ShadowConfig::structural_every_eps`]).
    EpBoundary,
    /// An EP boundary at which the policy's selected compression mode
    /// changed — the moment compressed-cache invariants are most at risk
    /// (lines stored under the old mode coexist with new fills).
    ModeSwitch,
    /// The end of a kernel, after the event queue drained.
    KernelEnd,
}

impl fmt::Display for ShadowCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShadowCheckpoint::EpBoundary => write!(f, "ep-boundary"),
            ShadowCheckpoint::ModeSwitch => write!(f, "mode-switch"),
            ShadowCheckpoint::KernelEnd => write!(f, "kernel-end"),
        }
    }
}

/// What kind of divergence a shadow check found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowViolationKind {
    /// A load observed data different from the last value stored at that
    /// address (or hit a line the reference model never saw filled).
    DataIntegrity,
    /// A structural invariant of the cache/MSHR/policy state failed at a
    /// checkpoint.
    Structural,
}

impl fmt::Display for ShadowViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShadowViolationKind::DataIntegrity => write!(f, "data-integrity"),
            ShadowViolationKind::Structural => write!(f, "structural"),
        }
    }
}

/// One divergence between the cycle-level machine and the reference
/// model, with enough context to reproduce it (SM, cycle, line address).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowViolation {
    /// SM on which the divergence was observed.
    pub sm: usize,
    /// Simulation cycle of the observation.
    pub cycle: Cycles,
    /// Line address involved, when the violation concerns one line.
    pub addr: Option<LineAddr>,
    /// Divergence class.
    pub kind: ShadowViolationKind,
    /// Human-readable specifics (first differing byte, failed invariant).
    pub detail: String,
}

impl fmt::Display for ShadowViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] sm {} cycle {}", self.kind, self.sm, self.cycle)?;
        if let Some(addr) = self.addr {
            write!(f, " {addr}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Cadence knobs for the shadow hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowConfig {
    /// Run the structural invariant sweep every N experimental phases
    /// (mode switches and kernel ends always check, whatever this says).
    /// The default of 1 checks every EP; raise it to trade coverage for
    /// speed on long runs.
    pub structural_every_eps: u64,
}

impl Default for ShadowConfig {
    fn default() -> ShadowConfig {
        ShadowConfig {
            structural_every_eps: 1,
        }
    }
}

/// A reference model shadowing the cycle-level simulator.
///
/// `Send` for the same reason policies are: whole simulations run on
/// worker threads of the parallel driver. Calls arrive strictly in
/// simulation order from a single thread.
pub trait ShadowCheck: Send {
    /// A line was filled into an L1: `data` is the ground-truth refill
    /// payload as delivered by the memory hierarchy (pre-compression).
    fn on_fill(&mut self, sm: usize, addr: LineAddr, data: &CacheLine, cycle: Cycles);

    /// A load hit the L1 and the pipeline observed `observed`. `None`
    /// means the cache had no payload recorded for a resident line —
    /// itself a violation. Misses are not reported here: their data comes
    /// from the fill path, which [`ShadowCheck::on_fill`] sees.
    fn on_load(&mut self, sm: usize, addr: LineAddr, observed: Option<&CacheLine>, cycle: Cycles);

    /// A store committed architecturally on `sm`: `data` is the full
    /// 128-byte line *after* the store's sector was merged in (for a
    /// store hit, at the cycle the L1 line was rewritten; for a
    /// write-allocate miss, at the cycle the allocating fill arrived and
    /// the pending sector merged). Only emitted when the write-back data
    /// path is on; the default write-through configuration never calls
    /// this, which the default no-op implementation reflects.
    fn on_store(&mut self, sm: usize, addr: LineAddr, data: &CacheLine, cycle: Cycles) {
        let _ = (sm, addr, data, cycle);
    }

    /// A structural checkpoint fired on `sm`. `structural_errors` holds
    /// the failures the simulator's own validators found (empty when the
    /// machine is consistent).
    fn on_checkpoint(
        &mut self,
        sm: usize,
        cycle: Cycles,
        kind: ShadowCheckpoint,
        structural_errors: &[String],
    );
}

/// The payload a line holds after being stored under `algo` and read
/// back: the genuine `decode(encode(data))` round trip of the stored
/// representation. For a correct compressor this is `data` itself — and
/// that is exactly what the shadow oracle verifies end to end. SC's
/// codebook lives in the policy and is modelled lossless; raw storage is
/// trivially lossless. A decoder that errors on its own encoder's output
/// yields a deterministically garbled line so the bug surfaces as a
/// data-integrity violation instead of vanishing.
#[must_use]
pub fn roundtrip_stored(algo: CompressionAlgo, data: &CacheLine) -> CacheLine {
    fn garble(data: &CacheLine) -> CacheLine {
        let mut bytes = *data.as_bytes();
        bytes[0] ^= 0x01;
        CacheLine::from_bytes(bytes)
    }
    match algo {
        CompressionAlgo::None | CompressionAlgo::Sc => *data,
        CompressionAlgo::Bdi => {
            let bdi = Bdi::new();
            bdi.decode(&bdi.encode(data))
                .unwrap_or_else(|_| garble(data))
        }
        CompressionAlgo::Fpc => {
            let fpc = Fpc::new();
            fpc.decode(&fpc.encode(data))
                .unwrap_or_else(|_| garble(data))
        }
        CompressionAlgo::CpackZ => {
            let cp = CpackZ::new();
            cp.decode(&cp.encode(data)).unwrap_or_else(|_| garble(data))
        }
        CompressionAlgo::Bpc => {
            let bpc = Bpc::new();
            bpc.decode(&bpc.encode(data))
                .unwrap_or_else(|_| garble(data))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_lossless_for_every_algo() {
        let lines = [
            CacheLine::zeroed(),
            CacheLine::from_u32_words(&(0..32).collect::<Vec<u32>>()),
            CacheLine::from_u32_words(&[0x4000_0007; 32]),
        ];
        for algo in CompressionAlgo::ALL {
            for line in &lines {
                assert_eq!(
                    roundtrip_stored(algo, line),
                    *line,
                    "{algo:?} round trip must be lossless"
                );
            }
        }
    }

    #[test]
    fn violations_render_with_address_and_cycle() {
        let v = ShadowViolation {
            sm: 1,
            cycle: 4242,
            addr: Some(LineAddr::new(0x80)),
            kind: ShadowViolationKind::DataIntegrity,
            detail: "byte 3 differs".to_owned(),
        };
        let s = v.to_string();
        assert!(s.contains("sm 1"), "{s}");
        assert!(s.contains("4242"), "{s}");
        assert!(s.contains("0x80"), "{s}");
        assert!(s.contains("data-integrity"), "{s}");
    }

    #[test]
    fn checkpoint_kinds_render_distinctly() {
        let all = [
            ShadowCheckpoint::EpBoundary,
            ShadowCheckpoint::ModeSwitch,
            ShadowCheckpoint::KernelEnd,
        ];
        let mut rendered: Vec<String> = all.iter().map(ShadowCheckpoint::to_string).collect();
        rendered.sort_unstable();
        rendered.dedup();
        assert_eq!(rendered.len(), all.len());
    }
}
