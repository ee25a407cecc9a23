//! The set-sampling controller of §III-B1 and its three decision rules.
//!
//! One type, [`LatteCc`], runs every adaptive policy of the evaluation.
//! They share the learning machinery: a few dedicated L1 sets per
//! compression option, per-option hit and insertion counters, and a
//! period/EWMA clock that freezes those counters for a decision
//! function. They differ in the option list ([`LatteConfig::options`])
//! and in the decision rule:
//!
//! * **LATTE-CC** ([`LatteCc::new`]) — argmin AMAT_GPU (Eq. 2),
//!   re-evaluated at *every* EP with the current latency tolerance
//!   (Eq. 4). With `[None, Bdi, Sc]` this is the paper's controller,
//!   with `[None, Bdi, Bpc]` its Fig 18 variant, and with
//!   `[None, Bdi, Bpc, Sc]` the four-mode extension §V-E gestures at
//!   ("LATTE-CC is agnostic to the underlying compression algorithms").
//! * **Adaptive-Hit-Count** ([`LatteCc::adaptive_hit_count`]) — argmax
//!   sampled hits, once per period, latency-blind.
//! * **Adaptive-CMP** ([`LatteCc::adaptive_cmp`]) — argmin conventional
//!   AMAT (Eq. 1), once per period: decompression latency accounted,
//!   latency tolerance not.

use crate::amat::{amat_cmp, amat_gpu, ModeSample};
use crate::mode::CompressionMode;
use crate::sc_manager::ScManager;
use crate::size_memo::SizeMemo;
use latte_cache::CacheGeometry;
use latte_compress::{Bdi, Bpc, CacheLine, Compression, CompressionAlgo, Compressor, CpackZ, Fpc};
use latte_gpusim::{AccessEvent, EpProbe, FillLine, L1CompressionPolicy, PolicyReport};

/// Tunables of the set-sampling controller (§IV-C3 defaults).
///
/// # Example
///
/// The four-mode extension is the paper's controller over four options.
///
/// ```
/// use latte_compress::CompressionAlgo;
/// use latte_core::{LatteCc, LatteConfig};
/// use latte_gpusim::{Gpu, GpuConfig};
/// use latte_gpusim::testing::StridedKernel;
///
/// let four = LatteConfig {
///     options: vec![
///         CompressionAlgo::None,
///         CompressionAlgo::Bdi,
///         CompressionAlgo::Bpc,
///         CompressionAlgo::Sc,
///     ],
///     ..LatteConfig::paper()
/// };
/// let mut gpu = Gpu::new(&GpuConfig::small(), |_| Box::new(LatteCc::new(four.clone())));
/// assert!(gpu.run_kernel(&StridedKernel::new(8, 256, 200)).instructions > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatteConfig {
    /// EPs per period: 1 learning + (N−1) adaptive (paper: 10).
    pub eps_per_period: u64,
    /// Number of L1 sets (32 for the paper's 16 KB L1).
    pub num_l1_sets: usize,
    /// Dedicated sets per compression option. The paper dedicates 4 per
    /// mode (12 of 32 sets, §IV-C3) but reverts them to followers after
    /// the learning EP; this reproduction keeps sets dedicated for the
    /// whole period and compensates by dedicating only 2 per mode (6 of
    /// 32 sets) — see DESIGN.md §4.6 for the measured justification.
    /// `0` disables sampling: every set follows the selected option.
    pub dedicated_sets_per_mode: usize,
    /// Base L1 hit latency in cycles; must match the GPU config.
    pub l1_base_hit_latency: f64,
    /// Average L1 miss service latency in cycles, used in the AMAT
    /// estimate (between the 120-cycle L2 and 230-cycle DRAM latencies).
    pub miss_latency: f64,
    /// Scale applied to the Eq. (4) tolerance estimate (calibration knob).
    pub tolerance_scale: f64,
    /// The compression options arbitrated, in sampling-slot order. The
    /// first must be [`CompressionAlgo::None`]: it is the initial
    /// selection and the integrity fallback. The paper's controller
    /// uses `[None, Bdi, Sc]`.
    pub options: Vec<CompressionAlgo>,
    /// Decode failures tolerated within one kernel before the controller
    /// demotes itself to uncompressed operation — the integrity analogue
    /// of the paper's latency fallback (compression must never endanger
    /// the baseline). Resets at kernel boundaries. `u64::MAX` disables
    /// demotion.
    pub decode_error_demotion_threshold: u64,
    /// Calibration hook: pin the selected option to the first one in
    /// this mode class, bypassing the decision while keeping all
    /// sampling machinery running.
    pub force_mode: Option<CompressionMode>,
}

impl LatteConfig {
    /// The paper's configuration for the 16 KB L1.
    #[must_use]
    pub fn paper() -> LatteConfig {
        LatteConfig {
            eps_per_period: 10,
            num_l1_sets: 32,
            dedicated_sets_per_mode: 2,
            l1_base_hit_latency: 4.0,
            // The *effective* cost of an L1 miss as the pipeline sees it:
            // below the raw 120-cycle L2 round trip because concurrent
            // misses overlap across (and within) warps.
            miss_latency: 150.0,
            tolerance_scale: 2.0,
            options: vec![
                CompressionAlgo::None,
                CompressionAlgo::Bdi,
                CompressionAlgo::Sc,
            ],
            decode_error_demotion_threshold: 8,
            force_mode: None,
        }
    }

    /// Sets the AMAT effective miss latency (replaces the removed
    /// `LATTE_MISS_LATENCY` env knob).
    #[must_use]
    pub fn with_miss_latency(mut self, cycles: f64) -> LatteConfig {
        self.miss_latency = cycles;
        self
    }

    /// Sets the Eq. (4) tolerance-estimate scale (replaces the removed
    /// `LATTE_TOLERANCE_SCALE` env knob).
    #[must_use]
    pub fn with_tolerance_scale(mut self, scale: f64) -> LatteConfig {
        self.tolerance_scale = scale;
        self
    }

    /// This config without LATTE-CC's integrity fallback and calibration
    /// hooks: no decode-error demotion and no forced mode. The adaptive
    /// baselines and the four-mode extension run this way.
    #[must_use]
    pub fn without_hooks(self) -> LatteConfig {
        LatteConfig {
            decode_error_demotion_threshold: u64::MAX,
            force_mode: None,
            ..self
        }
    }

    /// Effective hit latency the AMAT model charges for lines stored
    /// under `algo` (base + decompression pipeline + one decompressor
    /// service slot, Eq. 3 with an idle queue).
    #[must_use]
    pub fn hit_latency(&self, algo: CompressionAlgo) -> f64 {
        match algo {
            CompressionAlgo::None => self.l1_base_hit_latency,
            _ => self.l1_base_hit_latency + algo.decompression_latency() as f64 + 1.0,
        }
    }
}

impl Default for LatteConfig {
    fn default() -> LatteConfig {
        LatteConfig::paper()
    }
}

/// How the frozen samples become a selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// LATTE-CC: argmin AMAT_GPU (Eq. 2), every EP.
    AmatGpu,
    /// Adaptive-Hit-Count: argmax sampled hits, once per period.
    HitCount,
    /// Adaptive-CMP: argmin conventional AMAT (Eq. 1), once per period.
    Amat,
}

/// The set-sampling controller: LATTE-CC, its variants and the two
/// adaptive baselines of §V-D (one instance per SM).
///
/// A period of `eps_per_period` EPs runs: EP 0 is the **learning phase**
/// (dedicated sets fill under their own options), insertions and hits
/// on dedicated sets count through EP 1 (refills and reuse land after
/// the miss), and the counters freeze at the end of EP 1 for the
/// decision rule to consume.
///
/// # Example
///
/// ```
/// use latte_core::{LatteCc, LatteConfig};
/// use latte_gpusim::{Gpu, GpuConfig};
/// use latte_gpusim::testing::StridedKernel;
///
/// let gpu_config = GpuConfig::small();
/// let mut gpu = Gpu::new(&gpu_config, |_| Box::new(LatteCc::new(LatteConfig::paper())));
/// let stats = gpu.run_kernel(&StridedKernel::new(8, 512, 200));
/// assert!(stats.instructions > 0);
/// ```
#[derive(Debug, Clone)]
pub struct LatteCc {
    cfg: LatteConfig,
    rule: Rule,
    /// Sets per sampling stride; the first `options.len()` sets of each
    /// stride are dedicated, one per option. `0` when sampling is off.
    stride: usize,
    /// Completed EPs in the current period; the in-flight EP has this
    /// index.
    ep_in_period: u64,
    live: Vec<ModeSample>,
    frozen: Vec<ModeSample>,
    bdi: Bdi,
    fpc: Fpc,
    cpack: CpackZ,
    bpc: Bpc,
    sc: ScManager,
    memo: SizeMemo,
    tolerance: f64,
    /// Index into `cfg.options` that follower sets apply.
    selected: usize,
    eps_in_mode: [u64; 3],
    decode_errors: u64,
    demoted: bool,
}

impl LatteCc {
    /// Creates a LATTE-CC controller.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two options are configured, the first is not
    /// [`CompressionAlgo::None`], the cache has too few sets to dedicate
    /// samples to every option, or `eps_per_period < 2`.
    ///
    /// # Example
    ///
    /// Sets are grouped in `num_l1_sets / dedicated_sets_per_mode`-set
    /// strides; the first sets of each stride are dedicated, one per
    /// option in order, and the rest follow the selected option.
    ///
    /// ```
    /// use latte_compress::{CacheLine, CompressionAlgo};
    /// use latte_core::{LatteCc, LatteConfig};
    /// use latte_gpusim::L1CompressionPolicy;
    ///
    /// // 32 sets and 4 dedicated per option: stride 8.
    /// let cfg = LatteConfig {
    ///     dedicated_sets_per_mode: 4,
    ///     ..LatteConfig::paper()
    /// };
    /// let mut latte = LatteCc::new(cfg);
    /// let line = CacheLine::zeroed();
    /// let mut algo_of = |set| latte.compress_fill(set, &line).0;
    /// assert_eq!(algo_of(0), CompressionAlgo::None);
    /// assert_eq!(algo_of(1), CompressionAlgo::Bdi);
    /// assert_eq!(algo_of(2), CompressionAlgo::Sc);
    /// assert_eq!(algo_of(3), CompressionAlgo::None); // follower
    /// assert_eq!(algo_of(9), CompressionAlgo::Bdi);
    /// ```
    #[must_use]
    pub fn new(cfg: LatteConfig) -> LatteCc {
        LatteCc::with_rule(cfg, Rule::AmatGpu)
    }

    /// Creates the Adaptive-Hit-Count baseline (§V-D): set sampling like
    /// LATTE-CC, but the decision maximises sampled hits once per period
    /// and ignores decompression latency. Runs without LATTE-CC's hooks
    /// ([`LatteConfig::without_hooks`]).
    #[must_use]
    pub fn adaptive_hit_count(cfg: LatteConfig) -> LatteCc {
        LatteCc::with_rule(cfg.without_hooks(), Rule::HitCount)
    }

    /// Creates the Adaptive-CMP baseline (§V-D; after Alameldeen & Wood):
    /// accounts for the decompression latency via conventional AMAT
    /// (Eq. 1) once per period, blind to GPU latency tolerance. Runs
    /// without LATTE-CC's hooks ([`LatteConfig::without_hooks`]).
    #[must_use]
    pub fn adaptive_cmp(cfg: LatteConfig) -> LatteCc {
        LatteCc::with_rule(cfg.without_hooks(), Rule::Amat)
    }

    fn with_rule(cfg: LatteConfig, rule: Rule) -> LatteCc {
        let n = cfg.options.len();
        assert!(n >= 2, "arbitration needs at least two options");
        assert_eq!(
            cfg.options[0],
            CompressionAlgo::None,
            "the first option must be no compression"
        );
        assert!(
            cfg.num_l1_sets >= n * cfg.dedicated_sets_per_mode,
            "{} sets cannot host {n}x{} dedicated sets",
            cfg.num_l1_sets,
            cfg.dedicated_sets_per_mode
        );
        LatteCc {
            rule,
            stride: cfg
                .num_l1_sets
                .checked_div(cfg.dedicated_sets_per_mode)
                .unwrap_or(0),
            ep_in_period: 0,
            live: vec![ModeSample::default(); n],
            frozen: vec![ModeSample::default(); n],
            bdi: Bdi::new(),
            fpc: Fpc::new(),
            cpack: CpackZ::new(),
            bpc: Bpc::new(),
            sc: ScManager::new(cfg.eps_per_period),
            memo: SizeMemo::new(),
            tolerance: 0.0,
            selected: 0,
            eps_in_mode: [0; 3],
            decode_errors: 0,
            demoted: false,
            cfg,
        }
    }

    /// The option currently selected for follower sets.
    #[must_use]
    pub fn selected_algo(&self) -> CompressionAlgo {
        self.cfg.options[self.selected]
    }

    /// The mode class of the selected option.
    #[must_use]
    pub fn selected_mode(&self) -> CompressionMode {
        CompressionMode::of(self.selected_algo())
    }

    /// The frozen per-option samples of the last learning window, in
    /// option order.
    #[must_use]
    pub fn samples(&self) -> &[ModeSample] {
        &self.frozen
    }

    /// Decode failures observed since the kernel started.
    #[must_use]
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// `true` when the controller has demoted itself to uncompressed
    /// operation because the decode-failure rate crossed the threshold.
    #[must_use]
    pub fn is_demoted(&self) -> bool {
        self.demoted
    }

    /// The latest latency-tolerance estimate, in cycles.
    #[must_use]
    pub fn latency_tolerance(&self) -> f64 {
        self.tolerance
    }

    /// The option slot set `set` is dedicated to, or `None` for a
    /// follower.
    ///
    /// Deviation from the paper (recorded in DESIGN.md): dedicated sets
    /// stay dedicated through the whole period rather than reverting to
    /// followers after the learning EP. Refills land one L2/DRAM round
    /// trip (often a whole EP) after the triggering miss, so
    /// follower-reversion would fill dedicated sets with follower-mode
    /// lines and corrupt the per-option samples.
    fn dedicated_slot(&self, set: usize) -> Option<usize> {
        let slot = set.checked_rem(self.stride)?;
        (slot < self.cfg.options.len()).then_some(slot)
    }

    /// Advances the period clock. Returns `true` when fresh frozen
    /// samples just became available (end of the hit-counting window).
    fn advance_clock(&mut self) -> bool {
        self.ep_in_period += 1;
        if self.ep_in_period == 2 {
            // Blend the new window into the running estimate (EWMA with
            // α = ½): a few dozen sampled accesses per option per period
            // is noisy enough to flip decisions period-to-period otherwise.
            for (frozen, live) in self.frozen.iter_mut().zip(&self.live) {
                frozen.hits = (frozen.hits + live.hits).div_ceil(2);
                frozen.insertions = (frozen.insertions + live.insertions).div_ceil(2);
            }
            return true;
        }
        if self.ep_in_period >= self.cfg.eps_per_period {
            self.ep_in_period = 0;
            self.live.fill(ModeSample::default());
        }
        false
    }

    fn compress_with(
        &mut self,
        slot: usize,
        line: &mut FillLine<'_>,
    ) -> (CompressionAlgo, Compression) {
        let algo = self.cfg.options[slot];
        let compression = self.memo.size(line, algo, |line| match algo {
            CompressionAlgo::None => Compression::UNCOMPRESSED,
            CompressionAlgo::Bdi => self.bdi.probe(line),
            CompressionAlgo::Fpc => self.fpc.probe(line),
            CompressionAlgo::CpackZ => self.cpack.probe(line),
            CompressionAlgo::Bpc => self.bpc.probe(line),
            CompressionAlgo::Sc => self.sc.probe(line),
        });
        (algo, compression)
    }

    fn decide(&mut self) {
        let mut best = match self.rule {
            // `max_by_key` keeps the last maximum: ties go to the later
            // (higher-capacity) option.
            Rule::HitCount => (0..self.frozen.len())
                .max_by_key(|&i| self.frozen[i].hits)
                .unwrap_or(0),
            // Strict `<`: ties keep the first (cheaper) option.
            Rule::AmatGpu | Rule::Amat => {
                (0..self.frozen.len())
                    .map(|i| (i, self.amat(i)))
                    .fold((0, f64::INFINITY), |best, (i, amat)| {
                        if amat < best.1 {
                            (i, amat)
                        } else {
                            best
                        }
                    })
                    .0
            }
        };
        if let Some(forced) = self.cfg.force_mode {
            if let Some(slot) = self
                .cfg
                .options
                .iter()
                .position(|&a| CompressionMode::of(a) == forced)
            {
                best = slot;
            }
        }
        // Integrity fallback: once demoted, stay uncompressed for the
        // rest of the kernel no matter what the samples prefer.
        if self.demoted {
            best = 0;
        }
        self.selected = best;
    }

    fn amat(&self, slot: usize) -> f64 {
        let sample = self.frozen[slot];
        let hit_latency = self.cfg.hit_latency(self.cfg.options[slot]);
        match self.rule {
            Rule::AmatGpu => amat_gpu(sample, hit_latency, self.cfg.miss_latency, self.tolerance),
            Rule::HitCount | Rule::Amat => amat_cmp(sample, hit_latency, self.cfg.miss_latency),
        }
    }
}

impl L1CompressionPolicy for LatteCc {
    fn name(&self) -> &'static str {
        match self.rule {
            Rule::AmatGpu => "LATTE-CC",
            Rule::HitCount => "Adaptive-Hit-Count",
            Rule::Amat => "Adaptive-CMP",
        }
    }

    fn compress_fill(&mut self, set: usize, line: &CacheLine) -> (CompressionAlgo, Compression) {
        self.compress_fill_line(set, &mut FillLine::unkeyed(*line))
    }

    fn compress_fill_line(
        &mut self,
        set: usize,
        line: &mut FillLine<'_>,
    ) -> (CompressionAlgo, Compression) {
        if self.demoted {
            // Demoted: store everything raw, dedicated sets included —
            // the compressed samples are untrustworthy when stored lines
            // are being corrupted.
            return (CompressionAlgo::None, Compression::UNCOMPRESSED);
        }
        // SC trains on inserted lines whenever its window is open.
        if self.sc.reads_fills() {
            self.sc.observe_fill(line.bytes());
        }
        let slot = match self.dedicated_slot(set) {
            Some(slot) => {
                if self.ep_in_period <= 1 {
                    self.live[slot].insertions += 1;
                }
                slot
            }
            None => self.selected,
        };
        self.compress_with(slot, line)
    }

    fn on_access(&mut self, ev: &AccessEvent) {
        if ev.hit && self.ep_in_period <= 1 {
            if let Some(slot) = self.dedicated_slot(ev.set) {
                self.live[slot].hits += 1;
            }
        }
    }

    fn on_decode_error(&mut self, _algo: CompressionAlgo) {
        self.decode_errors += 1;
        if !self.demoted && self.decode_errors >= self.cfg.decode_error_demotion_threshold {
            self.demoted = true;
            self.selected = 0;
        }
    }

    fn on_ep(&mut self, probe: &EpProbe) {
        self.tolerance = probe.latency_tolerance() * self.cfg.tolerance_scale;
        let fresh = self.advance_clock();
        if self.sc.on_ep_end() {
            self.memo.forget(CompressionAlgo::Sc);
        }
        // §III-C: LATTE-CC re-chooses for *every* EP of the adaptive
        // phase with the freshest tolerance estimate; the baselines
        // choose once per period, when the samples freeze.
        if fresh || self.rule == Rule::AmatGpu {
            self.decide();
        }
        self.eps_in_mode[self.selected_mode().index()] += 1;
    }

    fn on_attach(&mut self, l1: &CacheGeometry) {
        self.memo = SizeMemo::for_l1(l1);
    }

    fn on_kernel_start(&mut self) {
        self.ep_in_period = 0;
        self.live.fill(ModeSample::default());
        self.sc.on_kernel_start();
        self.memo.clear();
        self.eps_in_mode = [0; 3];
        self.decode_errors = 0;
        self.demoted = false;
    }

    fn pending_invalidation(&mut self) -> Option<CompressionAlgo> {
        self.sc.take_invalidation().then_some(CompressionAlgo::Sc)
    }

    fn report(&self) -> PolicyReport {
        PolicyReport {
            eps_in_mode: self.eps_in_mode,
        }
    }

    fn current_mode_index(&self) -> Option<usize> {
        // The baselines switch only when their samples freeze and
        // report no mode, so shadow mode-switch checkpoints skip them.
        (self.rule == Rule::AmatGpu).then(|| self.selected_mode().index())
    }

    fn validate(&self) -> Result<(), String> {
        if self.demoted && self.selected != 0 {
            return Err(format!(
                "demoted controller still selects {} mode",
                self.selected_mode()
            ));
        }
        self.sc.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FOUR: [CompressionAlgo; 4] = [
        CompressionAlgo::None,
        CompressionAlgo::Bdi,
        CompressionAlgo::Bpc,
        CompressionAlgo::Sc,
    ];

    fn cfg() -> LatteConfig {
        LatteConfig::paper()
    }

    fn four_mode() -> LatteCc {
        LatteCc::new(LatteConfig {
            options: FOUR.to_vec(),
            ..cfg()
        })
    }

    fn sampled(num_l1_sets: usize, dedicated_sets_per_mode: usize) -> LatteCc {
        LatteCc::new(LatteConfig {
            num_l1_sets,
            dedicated_sets_per_mode,
            ..cfg()
        })
    }

    fn line(step: u32) -> CacheLine {
        CacheLine::from_u32_words(&(0..32).map(|i| 0x40 + i * step).collect::<Vec<_>>())
    }

    fn sample(hits: u64, insertions: u64) -> ModeSample {
        ModeSample { hits, insertions }
    }

    fn hit(set: usize) -> AccessEvent {
        AccessEvent {
            set,
            hit: true,
            algo: CompressionAlgo::None,
            cycle: 0,
        }
    }

    #[test]
    fn paper_config_matches_documented_constants() {
        // Regression test for the doc/value mismatch: the paper (§IV-C3)
        // dedicates 4 sets per mode during learning EPs; this
        // reproduction deliberately dedicates 2 permanently (DESIGN.md
        // §4.6). `paper()` must produce the reproduction's documented
        // constants — and no hidden env var may change them.
        let c = LatteConfig::paper();
        assert_eq!(c.eps_per_period, 10);
        assert_eq!(c.num_l1_sets, 32);
        assert_eq!(
            c.dedicated_sets_per_mode, 2,
            "DESIGN.md §4.6: 2 per mode, not the paper's 4"
        );
        assert_eq!(c.l1_base_hit_latency, 4.0);
        assert_eq!(c.miss_latency, 150.0);
        assert_eq!(c.tolerance_scale, 2.0);
        assert_eq!(
            c.options,
            [
                CompressionAlgo::None,
                CompressionAlgo::Bdi,
                CompressionAlgo::Sc
            ]
        );
        assert_eq!(c.decode_error_demotion_threshold, 8);
        assert_eq!(c.force_mode, None);
    }

    #[test]
    fn builder_methods_replace_env_knobs() {
        let c = LatteConfig::paper()
            .with_miss_latency(80.0)
            .with_tolerance_scale(0.5);
        assert_eq!(c.miss_latency, 80.0);
        assert_eq!(c.tolerance_scale, 0.5);
    }

    #[test]
    fn force_mode_pins_the_decision() {
        let mut latte = LatteCc::new(LatteConfig {
            force_mode: Some(CompressionMode::LowLatency),
            ..cfg()
        });
        // Samples that would otherwise select HighCapacity.
        latte.frozen = vec![sample(10, 90), sample(50, 50), sample(90, 10)];
        latte.tolerance = 30.0;
        latte.decide();
        assert_eq!(latte.selected_mode(), CompressionMode::LowLatency);
    }

    #[test]
    fn sampling_roles_drive_learning_fills() {
        let mut latte = sampled(32, 4);
        assert_eq!(latte.ep_in_period, 0, "learning phase");
        assert_eq!(latte.dedicated_slot(0), Some(0));
        assert_eq!(latte.dedicated_slot(1), Some(1));
        assert_eq!(latte.dedicated_slot(2), Some(2));
        assert_eq!(latte.dedicated_slot(3), None, "follower set");
        let _ = latte.compress_fill(2, &line(1));
        assert_eq!(latte.live[2].insertions, 1);
        let _ = latte.compress_fill(3, &line(1));
        assert_eq!(latte.live.iter().map(|m| m.insertions).sum::<u64>(), 1);
        // Dedicated sets stay dedicated after the learning EP (see
        // `dedicated_slot` for why this deviates from the paper).
        latte.on_ep(&EpProbe::default());
        assert_eq!(latte.compress_fill(2, &line(1)).0, CompressionAlgo::Sc);
    }

    #[test]
    fn insertion_counts_only_in_learning_window() {
        let mut latte = LatteCc::new(cfg());
        let _ = latte.compress_fill(1, &line(1));
        let _ = latte.compress_fill(1, &line(1));
        assert!(!latte.advance_clock());
        let _ = latte.compress_fill(1, &line(1)); // EP1: still counted (refill-delay window)
        assert!(latte.advance_clock(), "samples freeze at the end of EP1");
        let _ = latte.compress_fill(1, &line(1)); // EP2: not counted
                                                  // 3 insertions blended into an empty estimate: ceil(3/2) = 2.
        assert_eq!(latte.samples()[1].insertions, 2);
    }

    #[test]
    fn hits_count_through_one_extra_ep() {
        let mut latte = LatteCc::new(cfg());
        latte.on_access(&hit(2)); // EP0: counted
        latte.advance_clock();
        latte.on_access(&hit(2)); // EP1: still counted (§III-B1)
        latte.advance_clock();
        latte.on_access(&hit(2)); // EP2: not counted
                                  // 2 hits blended into an empty estimate: ceil(2/2) = 1.
        assert_eq!(latte.samples()[2].hits, 1);
    }

    #[test]
    fn period_wraps_and_counters_clear() {
        let mut latte = LatteCc::new(LatteConfig {
            eps_per_period: 4,
            ..cfg()
        });
        let _ = latte.compress_fill(0, &line(1));
        for _ in 0..4 {
            latte.advance_clock();
        }
        assert_eq!(latte.ep_in_period, 0, "period wrapped");
        let _ = latte.compress_fill(0, &line(1));
        latte.advance_clock();
        latte.advance_clock();
        // ceil((1 + 1) / 2): the old estimate blended with the new window.
        assert_eq!(latte.samples()[0].insertions, 1);
    }

    #[test]
    fn latte_decides_by_tolerance() {
        let mut latte = LatteCc::new(cfg());
        // High-capacity has many more hits but a long latency. Low
        // tolerance: HC's 19-cycle hits are exposed, but its miss saving
        // (40 fewer misses x 150 cycles) still dominates here.
        latte.frozen = vec![sample(50, 50), sample(60, 40), sample(90, 10)];
        latte.tolerance = 0.0;
        latte.decide();
        assert_eq!(latte.selected_mode(), CompressionMode::HighCapacity);

        // Make the capacity benefit marginal: now exposure matters.
        latte.frozen = vec![sample(85, 15), sample(86, 14), sample(88, 12)];
        latte.decide();
        assert_eq!(latte.selected_mode(), CompressionMode::None);
        // With enough tolerance the decompression latency is free and the
        // extra hits win.
        latte.tolerance = 30.0;
        latte.decide();
        assert_eq!(latte.selected_mode(), CompressionMode::HighCapacity);
    }

    #[test]
    fn latte_tracks_mode_histogram() {
        let mut latte = LatteCc::new(cfg());
        latte.on_ep(&EpProbe::default());
        latte.on_ep(&EpProbe::default());
        assert_eq!(latte.report().total_eps(), 2);
        latte.on_kernel_start();
        assert_eq!(latte.report().total_eps(), 0);
    }

    #[test]
    fn hit_count_policy_ignores_latency() {
        let mut p = LatteCc::adaptive_hit_count(cfg());
        p.live = vec![sample(85, 15), sample(86, 14), sample(88, 12)];
        p.on_ep(&EpProbe::default());
        p.on_ep(&EpProbe::default()); // freeze + decide
                                      // Marginal capacity benefit, zero tolerance: LATTE-CC would pick
                                      // None (see latte_decides_by_tolerance) but hit-count picks HC.
        assert_eq!(p.selected_mode(), CompressionMode::HighCapacity);
        assert_eq!(p.current_mode_index(), None, "baselines report no mode");
    }

    #[test]
    fn cmp_policy_accounts_latency_but_not_tolerance() {
        let mut p = LatteCc::adaptive_cmp(cfg());
        // Large counts so the EWMA halving keeps the ratios exact.
        p.live = vec![sample(850, 150), sample(860, 140), sample(880, 120)];
        // Give it a probe with huge tolerance: must make no difference.
        let probe = EpProbe {
            avg_warps_available: 100.0,
            avg_exec_cycles_per_schedule: 1.0,
            ..EpProbe::default()
        };
        p.on_ep(&probe);
        p.on_ep(&probe);
        assert_eq!(p.selected_mode(), CompressionMode::None);
    }

    #[test]
    fn baselines_decide_only_when_samples_freeze() {
        let mut p = LatteCc::adaptive_cmp(cfg());
        p.on_ep(&EpProbe::default());
        p.on_ep(&EpProbe::default()); // freeze + decide on empty samples
        p.frozen = vec![sample(0, 90), sample(0, 90), sample(90, 0)];
        for _ in 2..10 {
            p.on_ep(&EpProbe::default()); // no decision until the next freeze
        }
        assert_eq!(p.selected_mode(), CompressionMode::None);
        p.on_ep(&EpProbe::default());
        p.on_ep(&EpProbe::default());
        assert_eq!(p.selected_mode(), CompressionMode::HighCapacity);
    }

    #[test]
    fn ties_break_per_rule() {
        // All-zero hits: Adaptive-Hit-Count's `max_by_key` takes the last
        // option, the AMAT rules keep the first.
        let mut ahc = LatteCc::adaptive_hit_count(cfg());
        let mut cmp = LatteCc::adaptive_cmp(cfg());
        let mut latte = LatteCc::new(cfg());
        for p in [&mut ahc, &mut cmp, &mut latte] {
            p.frozen = vec![sample(0, 10); 3];
            p.decide();
        }
        assert_eq!(ahc.selected_mode(), CompressionMode::HighCapacity);
        assert_eq!(cmp.selected_mode(), CompressionMode::None);
        assert_eq!(latte.selected_mode(), CompressionMode::None);
    }

    #[test]
    fn baselines_run_without_hooks() {
        let hooked = LatteConfig {
            force_mode: Some(CompressionMode::HighCapacity),
            ..cfg()
        };
        for mut p in [
            LatteCc::adaptive_hit_count(hooked.clone()),
            LatteCc::adaptive_cmp(hooked.clone()),
        ] {
            assert_eq!(p.cfg, hooked.clone().without_hooks());
            for _ in 0..20 {
                p.on_decode_error(CompressionAlgo::Bdi);
            }
            assert!(!p.is_demoted());
        }
    }

    #[test]
    fn latte_learning_fills_use_dedicated_modes() {
        let mut latte = LatteCc::new(cfg());
        let (algo, _) = latte.compress_fill(0, &line(1));
        assert_eq!(algo, CompressionAlgo::None);
        let (algo, c) = latte.compress_fill(1, &line(1));
        assert_eq!(algo, CompressionAlgo::Bdi);
        assert!(c.is_compressed());
        let (algo, _) = latte.compress_fill(2, &line(1));
        assert_eq!(algo, CompressionAlgo::Sc);
    }

    #[test]
    fn decode_errors_demote_to_uncompressed() {
        let mut latte = LatteCc::new(LatteConfig {
            decode_error_demotion_threshold: 3,
            ..cfg()
        });
        // A dedicated low-latency set compresses while healthy.
        let (algo, _) = latte.compress_fill(1, &line(1));
        assert_eq!(algo, CompressionAlgo::Bdi);

        latte.on_decode_error(CompressionAlgo::Bdi);
        latte.on_decode_error(CompressionAlgo::Sc);
        assert!(!latte.is_demoted(), "below threshold");
        latte.on_decode_error(CompressionAlgo::Bdi);
        assert!(latte.is_demoted());
        assert_eq!(latte.decode_errors(), 3);
        assert_eq!(latte.selected_mode(), CompressionMode::None);

        // Demoted: everything stores raw, even dedicated sets, without
        // counting a sample; EP decisions cannot re-enable compression
        // within this kernel.
        let before = latte.live[1];
        let (algo, c) = latte.compress_fill(1, &line(1));
        assert_eq!(algo, CompressionAlgo::None);
        assert!(!c.is_compressed());
        assert_eq!(latte.live[1], before);
        latte.frozen = vec![sample(10, 90), sample(90, 10), sample(90, 10)];
        latte.on_ep(&EpProbe::default());
        assert_eq!(latte.selected_mode(), CompressionMode::None);
        assert!(latte.validate().is_ok());

        // A new kernel gets a clean slate.
        latte.on_kernel_start();
        assert!(!latte.is_demoted());
        assert_eq!(latte.decode_errors(), 0);
        let (algo, _) = latte.compress_fill(1, &line(1));
        assert_eq!(algo, CompressionAlgo::Bdi);
    }

    #[test]
    fn latte_bpc_variant_uses_bpc() {
        let mut latte = LatteCc::new(LatteConfig {
            options: vec![
                CompressionAlgo::None,
                CompressionAlgo::Bdi,
                CompressionAlgo::Bpc,
            ],
            ..cfg()
        });
        let (algo, c) = latte.compress_fill(2, &line(2));
        assert_eq!(algo, CompressionAlgo::Bpc);
        assert!(c.is_compressed());
    }

    // The set % stride slot rule.

    #[test]
    fn paper_configuration() {
        // 32 sets, 4 dedicated per option: stride 8, slots 0..3.
        let latte = sampled(32, 4);
        let mut per_slot = [0; 4];
        for set in 0..32 {
            per_slot[latte.dedicated_slot(set).unwrap_or(3)] += 1;
        }
        assert_eq!(per_slot, [4, 4, 4, 20]);
        assert_eq!(latte.dedicated_slot(8), Some(0));
    }

    #[test]
    fn dedicated_sets_iterator() {
        let latte = sampled(32, 4);
        assert_eq!(
            (0..32)
                .filter(|&s| latte.dedicated_slot(s).is_some())
                .count(),
            12
        );
    }

    #[test]
    fn follower_majority() {
        let latte = sampled(64, 4);
        let followers = (0..64)
            .filter(|&s| latte.dedicated_slot(s).is_none())
            .count();
        assert_eq!(followers, 64 - 12);
    }

    #[test]
    #[should_panic(expected = "cannot host")]
    fn too_small_cache_panics() {
        let _ = sampled(8, 4);
    }

    #[test]
    fn zero_dedicated_disables_sampling() {
        let mut latte = sampled(32, 0);
        assert!((0..32).all(|s| latte.dedicated_slot(s).is_none()));
        let _ = latte.compress_fill(1, &line(1));
        assert_eq!(latte.live[1].insertions, 0);
    }

    #[test]
    fn minimum_viable() {
        let latte = sampled(3, 1);
        let slots: Vec<_> = (0..3).map(|s| latte.dedicated_slot(s)).collect();
        assert_eq!(slots, [Some(0), Some(1), Some(2)]);
    }

    // The four-option (None/BDI/BPC/SC) extension.

    #[test]
    fn four_mode_roles_cover_all_options() {
        let m = four_mode();
        // 2 dedicated per option over 32 sets -> stride 16.
        let slots: Vec<_> = [0, 1, 2, 3, 4, 16]
            .iter()
            .map(|&s| m.dedicated_slot(s))
            .collect();
        assert_eq!(slots, [Some(0), Some(1), Some(2), Some(3), None, Some(0)]);
    }

    #[test]
    fn learning_fills_use_each_algorithm() {
        let mut m = four_mode();
        let algos: Vec<_> = (0..4).map(|s| m.compress_fill(s, &line(2)).0).collect();
        assert_eq!(algos, FOUR);
    }

    #[test]
    fn decision_prefers_cheap_modes_without_capacity_evidence() {
        let mut m = four_mode();
        // Identical samples for every option: the no-compression option
        // (lowest hit latency) must win.
        m.frozen = vec![sample(50, 10); 4];
        m.decide();
        assert_eq!(m.selected_algo(), CompressionAlgo::None);
    }

    #[test]
    fn decision_takes_capacity_when_tolerant() {
        let mut m = four_mode();
        m.frozen = vec![
            sample(500, 500),
            sample(550, 450),
            sample(700, 300),
            sample(900, 100),
        ];
        m.tolerance = 30.0; // everything hidden
        m.decide();
        assert_eq!(m.selected_algo(), CompressionAlgo::Sc);
        // Intolerant pipeline with SC's capacity edge shrunk: BPC or
        // cheaper should win over SC.
        m.frozen[3] = sample(710, 290);
        m.tolerance = 0.0;
        m.decide();
        assert_ne!(m.selected_algo(), CompressionAlgo::Sc);
    }

    #[test]
    fn report_folds_into_three_buckets() {
        let mut m = four_mode();
        for _ in 0..6 {
            m.on_ep(&EpProbe::default());
        }
        assert_eq!(m.report().total_eps(), 6);
    }

    #[test]
    #[should_panic(expected = "at least two options")]
    fn single_option_panics() {
        let _ = LatteCc::new(LatteConfig {
            options: vec![CompressionAlgo::None],
            ..cfg()
        });
    }
}
