//! Lifecycle management for the SC compressor's value-frequency table
//! (§IV-C2): the VFT is rebuilt periodically and stale SC-compressed lines
//! are invalidated whenever a new codebook takes effect.
//!
//! Deviation from the paper (recorded in DESIGN.md): the paper retrains
//! unconditionally during the final EP of every period. On value streams
//! with high churn (index arrays, pointers) that swaps one useless
//! dictionary for another *and* invalidates every SC-compressed line — a
//! refetch storm each period. This implementation scores the candidate
//! codebook against the incumbent on a held-out window of live fill lines
//! and swaps only when the candidate is materially better, which is both
//! hardware-plausible (shadow-table scoring) and statistically unbiased.

use latte_compress::{
    CacheLine, Compression, Compressor, Sc, ScCodebook, VftBuilder, VFT_COUNTER_MAX, VFT_ENTRIES,
};

/// Swap when the candidate encodes the held-out window in fewer than
/// `SWAP_NUM/SWAP_DEN` of the incumbent's bits.
const SWAP_NUM: u64 = 9;
const SWAP_DEN: u64 = 10;

#[derive(Debug, Clone, Default)]
enum Window {
    /// No training activity.
    #[default]
    Idle,
    /// Sampling fills into a fresh VFT.
    Training(VftBuilder),
    /// Comparing the candidate codebook against the incumbent on live
    /// fill lines.
    Scoring {
        candidate: ScCodebook,
        old_bits: u64,
        new_bits: u64,
    },
}

/// Drives SC training/retraining across experimental phases. Used both by
/// the Static-SC policy and by LATTE-CC's high-capacity mode.
///
/// # Example
///
/// ```
/// use latte_core::ScManager;
/// use latte_compress::CacheLine;
///
/// let mut sc = ScManager::new(10);
/// let hot = CacheLine::from_u32_words(&[7; 32]);
/// // During the first EP the manager trains; lines stay uncompressed.
/// sc.observe_fill(&hot);
/// assert!(!sc.compress(&hot).is_compressed());
/// // After the first EP completes, the codebook is live.
/// sc.on_ep_end();
/// assert!(sc.take_invalidation());
/// assert!(sc.compress(&hot).is_compressed());
/// ```
#[derive(Debug, Clone)]
pub struct ScManager {
    sc: Sc,
    window: Window,
    bootstrap_done: bool,
    eps_completed_in_period: u64,
    eps_per_period: u64,
    pending_invalidation: bool,
    rebuilds: u64,
}

impl ScManager {
    /// Creates a manager for periods of `eps_per_period` experimental
    /// phases (the paper uses 10).
    ///
    /// # Panics
    ///
    /// Panics if `eps_per_period < 2` (there must be room for a training
    /// EP and at least one compressing EP).
    #[must_use]
    pub fn new(eps_per_period: u64) -> ScManager {
        assert!(eps_per_period >= 2, "a period needs at least 2 EPs");
        ScManager {
            sc: Sc::untrained(),
            window: Window::Training(VftBuilder::new()),
            bootstrap_done: false,
            eps_completed_in_period: 0,
            eps_per_period,
            pending_invalidation: false,
            rebuilds: 0,
        }
    }

    /// Whether the current window reads fill bytes (training or
    /// scoring). While it does not, [`ScManager::observe_fill`] is a
    /// no-op and a caller may skip making the bytes.
    #[must_use]
    pub fn reads_fills(&self) -> bool {
        !matches!(self.window, Window::Idle)
    }

    /// Samples a line being inserted into the cache. Trains the VFT during
    /// a training window; scores codebooks during a scoring window.
    pub fn observe_fill(&mut self, line: &CacheLine) {
        match &mut self.window {
            Window::Idle => {}
            Window::Training(vft) => vft.observe_line(line),
            Window::Scoring {
                candidate,
                old_bits,
                new_bits,
            } => {
                for w in line.u32_words() {
                    *old_bits += u64::from(self.sc.codebook().cost_bits(w));
                    *new_bits += u64::from(candidate.cost_bits(w));
                }
            }
        }
    }

    /// Compresses a line against the current codebook.
    #[must_use]
    pub fn compress(&self, line: &CacheLine) -> Compression {
        self.sc.compress(line)
    }

    /// Size-only probe against the current codebook (the fill hot path;
    /// identical result to [`ScManager::compress`] without touching the
    /// encode machinery).
    #[must_use]
    pub fn probe(&self, line: &CacheLine) -> Compression {
        self.sc.probe(line)
    }

    /// The underlying SC compressor (latency/energy constants).
    #[must_use]
    pub fn sc(&self) -> &Sc {
        &self.sc
    }

    /// Advances the EP clock; must be called once per EP boundary.
    /// Returns `true` when a new codebook took effect, which changes the
    /// size SC gives a line.
    pub fn on_ep_end(&mut self) -> bool {
        let rebuilds = self.rebuilds;
        self.advance_clock();
        self.rebuilds != rebuilds
    }

    fn advance_clock(&mut self) {
        self.eps_completed_in_period += 1;
        if !self.bootstrap_done {
            // §IV-C2: the VFT is built during the first EP of the first
            // period; codes go live immediately after (nothing to score
            // against).
            if self.eps_completed_in_period == 1 {
                if let Window::Training(vft) = std::mem::take(&mut self.window) {
                    if vft.is_empty() {
                        // Nothing observed yet; keep training.
                        self.window = Window::Training(vft);
                        return;
                    }
                    self.install(vft.build());
                    self.bootstrap_done = true;
                }
            }
            return;
        }
        if self.eps_completed_in_period == self.eps_per_period.saturating_sub(2).max(1) {
            // Train during the penultimate EP of the period.
            self.window = Window::Training(VftBuilder::new());
        } else if self.eps_completed_in_period == self.eps_per_period - 1 {
            // Score during the final EP.
            if let Window::Training(vft) = std::mem::take(&mut self.window) {
                if !vft.is_empty() {
                    self.window = Window::Scoring {
                        candidate: vft.build(),
                        old_bits: 0,
                        new_bits: 0,
                    };
                }
            }
        } else if self.eps_completed_in_period >= self.eps_per_period {
            if let Window::Scoring {
                candidate,
                old_bits,
                new_bits,
            } = std::mem::take(&mut self.window)
            {
                if !candidate.same_dictionary(self.sc.codebook())
                    && new_bits * SWAP_DEN < old_bits * SWAP_NUM
                {
                    self.install(candidate);
                }
            }
            self.eps_completed_in_period = 0;
        }
    }

    /// Must be called at kernel boundaries: restarts the current period
    /// (the codebook survives across kernels as the hardware table would).
    pub fn on_kernel_start(&mut self) {
        self.eps_completed_in_period = 0;
        if self.bootstrap_done {
            self.window = Window::Idle;
        }
    }

    /// True once per codebook swap: the caller must invalidate all
    /// SC-compressed lines (their encodings are stale).
    pub fn take_invalidation(&mut self) -> bool {
        std::mem::take(&mut self.pending_invalidation)
    }

    /// Number of codebook installs so far (including the bootstrap).
    #[must_use]
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    fn install(&mut self, codebook: ScCodebook) {
        self.sc.set_codebook(codebook);
        self.pending_invalidation = true;
        self.rebuilds += 1;
    }

    /// Verifies the manager's dictionary and period-clock invariants
    /// without panicking: the period clock stays inside the period once
    /// bootstrapped, a live codebook implies at least one recorded
    /// rebuild (and vice versa), a pending invalidation can only follow a
    /// rebuild, the training VFT respects its hardware capacity and
    /// counter saturation bounds, and the installed codebook fits the
    /// VFT. Called from the shadow-verification checkpoints via
    /// `L1CompressionPolicy::validate`.
    ///
    /// The VFT check reports *how many* counters are out of bounds,
    /// never which.
    ///
    /// # Errors
    ///
    /// Returns `Err` describing the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.eps_per_period < 2 {
            return Err(format!(
                "SC period of {} EPs cannot hold training + compressing phases",
                self.eps_per_period
            ));
        }
        if self.bootstrap_done && self.eps_completed_in_period >= self.eps_per_period {
            return Err(format!(
                "SC period clock at {} of {} EPs (missed reset)",
                self.eps_completed_in_period, self.eps_per_period
            ));
        }
        if self.bootstrap_done != (self.rebuilds >= 1) {
            return Err(format!(
                "SC bootstrap flag ({}) disagrees with rebuild count ({})",
                self.bootstrap_done, self.rebuilds
            ));
        }
        if self.pending_invalidation && self.rebuilds == 0 {
            return Err("SC invalidation pending without any codebook rebuild".to_owned());
        }
        if let Window::Training(vft) = &self.window {
            if vft.len() > VFT_ENTRIES {
                return Err(format!(
                    "VFT tracks {} values, hardware capacity {VFT_ENTRIES}",
                    vft.len()
                ));
            }
            let out_of_bounds = vft
                .iter_counts()
                .filter(|&(_, c)| c == 0 || c > VFT_COUNTER_MAX)
                .count();
            if out_of_bounds > 0 {
                return Err(format!(
                    "{out_of_bounds} VFT counters outside 1..={VFT_COUNTER_MAX}"
                ));
            }
        }
        if self.sc.codebook().len() > VFT_ENTRIES {
            return Err(format!(
                "SC codebook holds {} symbols, VFT capacity {VFT_ENTRIES}",
                self.sc.codebook().len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_line() -> CacheLine {
        CacheLine::from_u32_words(&(0..32).map(|i| i % 4).collect::<Vec<_>>())
    }

    fn churn_line(i: u32) -> CacheLine {
        CacheLine::from_u32_words(&(0..32).map(|w| 0x5000_0000 + i * 64 + w).collect::<Vec<_>>())
    }

    #[test]
    fn validate_holds_across_a_full_period() {
        let mut sc = ScManager::new(4);
        assert_eq!(sc.validate(), Ok(()));
        for ep in 0..20 {
            for i in 0..8 {
                sc.observe_fill(&churn_line(ep * 8 + i));
            }
            sc.on_ep_end();
            assert_eq!(sc.validate(), Ok(()), "after EP {ep}");
            let _ = sc.take_invalidation();
        }
        sc.on_kernel_start();
        assert_eq!(sc.validate(), Ok(()));
    }

    #[test]
    fn validate_flags_corrupted_period_clock() {
        let mut sc = ScManager::new(4);
        sc.observe_fill(&hot_line());
        sc.on_ep_end(); // bootstrap
        sc.eps_completed_in_period = 99;
        let err = sc.validate().expect_err("period clock 99/4 must fail");
        assert!(err.contains("period clock"), "{err}");
    }

    #[test]
    fn validate_flags_inconsistent_bootstrap_state() {
        let mut sc = ScManager::new(4);
        sc.bootstrap_done = true; // no rebuild recorded
        let err = sc.validate().expect_err("bootstrap without rebuild must fail");
        assert!(err.contains("rebuild count"), "{err}");
    }

    #[test]
    fn bootstrap_after_first_ep() {
        let mut m = ScManager::new(10);
        assert!(m.reads_fills(), "the first EP trains");
        for _ in 0..50 {
            m.observe_fill(&hot_line());
        }
        assert!(!m.compress(&hot_line()).is_compressed());
        assert!(m.on_ep_end(), "the bootstrap installs a codebook");
        assert!(!m.reads_fills(), "idle after the bootstrap");
        assert!(!m.on_ep_end());
        assert!(m.take_invalidation());
        assert!(!m.take_invalidation(), "invalidation is one-shot");
        assert!(m.compress(&hot_line()).is_compressed());
        assert_eq!(m.rebuilds(), 1);
    }

    #[test]
    fn stationary_stream_never_reswaps() {
        let mut m = ScManager::new(4);
        m.observe_fill(&hot_line());
        m.on_ep_end(); // bootstrap
        let _ = m.take_invalidation();
        // Run several periods of the same value stream: the candidate is
        // never materially better, so no swap and no invalidation.
        for _ in 0..12 {
            for _ in 0..8 {
                m.observe_fill(&hot_line());
            }
            m.on_ep_end();
        }
        assert_eq!(m.rebuilds(), 1);
        assert!(!m.take_invalidation());
    }

    #[test]
    fn churning_stream_does_not_thrash() {
        // Every line distinct: no codebook generalises, so the candidate
        // never beats the incumbent on held-out data and the manager must
        // not swap-and-invalidate every period.
        let mut m = ScManager::new(4);
        let mut i = 0;
        let mut feed = |m: &mut ScManager, n: u32| {
            for _ in 0..n {
                m.observe_fill(&churn_line(i));
                i += 1;
            }
        };
        feed(&mut m, 30);
        m.on_ep_end(); // bootstrap
        let _ = m.take_invalidation();
        for _ in 0..16 {
            feed(&mut m, 30);
            m.on_ep_end();
        }
        assert_eq!(m.rebuilds(), 1, "churn must not cause repeated swaps");
    }

    #[test]
    fn distribution_shift_triggers_swap() {
        let mut m = ScManager::new(4);
        m.observe_fill(&hot_line());
        m.on_ep_end(); // bootstrap on the old distribution (period clock: 1)
        let _ = m.take_invalidation();
        let new_line = CacheLine::from_u32_words(&[0xdead_beef; 32]);
        // Feed the new distribution through at least one full period so a
        // train -> score -> swap cycle sees it.
        for _ in 0..12 {
            for _ in 0..20 {
                m.observe_fill(&new_line);
            }
            m.on_ep_end();
        }
        assert!(m.rebuilds() >= 2, "shifted distribution must swap");
        assert!(m.compress(&new_line).is_compressed());
    }

    #[test]
    fn no_rebuild_from_empty_vft() {
        let mut m = ScManager::new(4);
        m.on_ep_end(); // bootstrap window saw nothing
        assert!(!m.take_invalidation());
        assert_eq!(m.rebuilds(), 0);
    }

    #[test]
    fn kernel_start_resets_period_clock() {
        let mut m = ScManager::new(4);
        m.observe_fill(&hot_line());
        m.on_ep_end();
        let _ = m.take_invalidation();
        m.on_ep_end();
        m.on_kernel_start();
        m.on_ep_end();
        m.on_ep_end();
        assert_eq!(m.rebuilds(), 1);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_period_panics() {
        let _ = ScManager::new(1);
    }
}
