//! The AMAT_GPU model of §III-A.
//!
//! Conventional AMAT (Eq. 1) charges every hit its full hit latency. On a
//! GPU, ready warps hide part (or all) of the hit latency, so Eq. (2)
//! charges only the *exposed* portion:
//!
//! ```text
//! AMAT_GPU = (N_hits · max(hit_latency − latency_tolerance, 0)
//!             + N_misses · miss_latency) / (N_hits + N_misses)
//! ```
//!
//! (The paper's formula prints `min[.., 0]`; the surrounding text makes
//! clear tolerance *subtracts from* exposed latency with a floor at zero —
//! as printed the hit term would always be ≤ 0. We implement the `max`
//! reading and record the deviation in DESIGN.md.)

/// Per-mode measurements collected from the dedicated sets during a
/// learning phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeSample {
    /// Cache hits observed on the mode's dedicated sets.
    pub hits: u64,
    /// Cache line insertions (misses) observed on the mode's dedicated
    /// sets (§III-B1 counts insertions, not lookup misses).
    pub insertions: u64,
}

impl ModeSample {
    /// Total accesses in the sample.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.insertions
    }

    /// Hit rate within the sample (0 when empty).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

/// Computes AMAT_GPU (Eq. 2) for one mode.
///
/// * `sample` — hit/insertion counts from the mode's dedicated sets,
/// * `hit_latency` — the mode's effective L1 hit latency in cycles
///   (base + decompression pipeline + expected queueing),
/// * `miss_latency` — average L1 miss service latency in cycles,
/// * `latency_tolerance` — the Eq. (4) estimate for the current EP.
///
/// # Example
///
/// ```
/// use latte_core::{amat_gpu, ModeSample};
///
/// let sample = ModeSample { hits: 80, insertions: 20 };
/// // Fully tolerant pipeline: only misses cost anything.
/// let tolerant = amat_gpu(sample, 18.0, 200.0, 100.0);
/// // Intolerant pipeline: hits expose their full latency.
/// let exposed = amat_gpu(sample, 18.0, 200.0, 0.0);
/// assert!(tolerant < exposed);
/// ```
#[must_use]
pub fn amat_gpu(
    sample: ModeSample,
    hit_latency: f64,
    miss_latency: f64,
    latency_tolerance: f64,
) -> f64 {
    let accesses = sample.accesses();
    if accesses == 0 {
        return 0.0;
    }
    let exposed_hit = (hit_latency - latency_tolerance).max(0.0);
    let total_hit = sample.hits as f64 * exposed_hit;
    let total_miss = sample.insertions as f64 * miss_latency;
    (total_hit + total_miss) / accesses as f64
}

/// Conventional AMAT (Eq. 1) — what a latency-tolerance-blind adaptive
/// policy (Adaptive-CMP, §V-D) minimises.
#[must_use]
pub fn amat_cmp(sample: ModeSample, hit_latency: f64, miss_latency: f64) -> f64 {
    amat_gpu(sample, hit_latency, miss_latency, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_reduces_amat() {
        let s = ModeSample {
            hits: 100,
            insertions: 10,
        };
        let a0 = amat_gpu(s, 18.0, 200.0, 0.0);
        let a10 = amat_gpu(s, 18.0, 200.0, 10.0);
        let a18 = amat_gpu(s, 18.0, 200.0, 18.0);
        let a30 = amat_gpu(s, 18.0, 200.0, 30.0);
        assert!(a0 > a10 && a10 > a18);
        assert_eq!(a18, a30, "tolerance beyond the hit latency is free");
    }

    #[test]
    fn exposed_latency_never_negative() {
        let s = ModeSample {
            hits: 100,
            insertions: 0,
        };
        assert_eq!(amat_gpu(s, 5.0, 200.0, 100.0), 0.0);
    }

    #[test]
    fn capacity_vs_latency_tradeoff() {
        // High-capacity mode: more hits, longer hit latency.
        let hc = ModeSample {
            hits: 90,
            insertions: 10,
        };
        // No compression: fewer hits, short hit latency.
        let none = ModeSample {
            hits: 60,
            insertions: 40,
        };
        // With zero tolerance the decompression cost is exposed but misses
        // dominate: HC still wins here because its miss saving is huge.
        let hc_amat = amat_gpu(hc, 19.0, 200.0, 0.0);
        let none_amat = amat_gpu(none, 4.0, 200.0, 0.0);
        assert!(hc_amat < none_amat);
        // But if HC barely saves misses, exposure flips the decision...
        let hc_marginal = ModeSample {
            hits: 62,
            insertions: 38,
        };
        let hc_marginal_amat = amat_gpu(hc_marginal, 19.0, 200.0, 0.0);
        assert!(none_amat < hc_marginal_amat);
        // ...unless the pipeline can hide the decompression latency.
        let hc_tolerant = amat_gpu(hc_marginal, 19.0, 200.0, 19.0);
        assert!(hc_tolerant < none_amat);
    }

    #[test]
    fn empty_sample_is_zero() {
        assert_eq!(amat_gpu(ModeSample::default(), 4.0, 200.0, 0.0), 0.0);
    }

    #[test]
    fn cmp_variant_ignores_tolerance() {
        let s = ModeSample {
            hits: 10,
            insertions: 10,
        };
        assert_eq!(amat_cmp(s, 18.0, 200.0), amat_gpu(s, 18.0, 200.0, 0.0));
    }

    #[test]
    fn sample_hit_rate() {
        let s = ModeSample {
            hits: 30,
            insertions: 10,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(ModeSample::default().hit_rate(), 0.0);
    }
}
