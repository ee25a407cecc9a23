//! Deterministic fault injection for resilience experiments.
//!
//! The injector models four failure sites of a compressed cache
//! hierarchy:
//!
//! * **bit flips** in the stored compressed payload, discovered when a
//!   compressed hit decompresses the line;
//! * **tag/metadata corruption** on a fill (the tag write is lost and the
//!   line is not retained);
//! * **latency spikes** on memory refills (e.g. a flaky channel retry);
//! * **transient MSHR exhaustion** (a miss finds the MSHR file full even
//!   though entries are architecturally free).
//!
//! Bit flips are injected *for real*: the line's data is genuinely
//! encoded with the algorithm it is stored under, one seeded bit of the
//! encoded form is toggled, and the decoder runs on the corrupted input.
//! A flip is **detected** when the decoder errors or produces different
//! data, and **masked** when the round trip still yields the original
//! line (e.g. a flip in dead padding). Detected flips feed the cache's
//! decode-failure recovery path; masked flips are invisible by
//! construction and only counted.
//!
//! Every SM owns one [`FaultInjector`] seeded from the global
//! [`FaultConfig::seed`] and the SM id, and injectors re-seed at kernel
//! launch, so two runs with the same seed inject bit-identical fault
//! sequences.

use latte_compress::{Bdi, Bpc, CacheLine, CompressionAlgo, CpackZ, Fpc};

/// Configuration of the fault injector. All rates are per-opportunity
/// probabilities in `[0, 1]`; a rate of zero disables that fault site
/// without consuming random numbers, so a zero-rate injector behaves
/// exactly like no injector at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// RNG seed. Runs with equal seeds and configs are bit-identical.
    pub seed: u64,
    /// Probability that a compressed hit reads a payload with one
    /// flipped bit.
    pub bitflip_rate: f64,
    /// Probability that a fill's tag write is corrupted (the refill data
    /// still reaches the waiting warps, but the line is not cached).
    pub tag_corruption_rate: f64,
    /// Probability that a memory refill suffers an added latency spike.
    pub latency_spike_rate: f64,
    /// Cycles one latency spike adds to the refill.
    pub latency_spike_cycles: u64,
    /// Probability that a missing load finds the MSHR file transiently
    /// exhausted and must replay.
    pub mshr_exhaust_rate: f64,
    /// Probability that a refill returning over the L2/DRAM path carries
    /// a flipped bit. The return path is parity-protected per sector, so
    /// a single-bit flip is always *detected*; the memory partition then
    /// re-sends the line, costing one extra L2 round trip. This is what
    /// keeps refetched lines from being implicitly trusted: the recovery
    /// refetch after an L1 decode failure goes through this same path
    /// and can itself be corrupted (and retried) again.
    pub fill_bitflip_rate: f64,
    /// Probability that a refill's wakeup notification is lost:
    /// scoreboard-corruption model where the data lands in the cache but
    /// the warps blocked on it are never re-marked ready. A dropped
    /// wakeup is architecturally unrecoverable — the affected warps wait
    /// forever — so this site exists to exercise the simulator's
    /// deadlock watchdog ([`crate::TerminationReason::Deadlock`]).
    pub wakeup_drop_rate: f64,
    /// Probability that a dirty write-back leaving the L1 is corrupted on
    /// the outbound L2/DRAM link. Like [`FaultConfig::fill_bitflip_rate`]
    /// the link is parity-protected per sector, so the corruption is
    /// always *detected* and the write-back is re-sent, costing one extra
    /// L2 round trip of occupancy (charged to the write-back path's
    /// stats, not to any warp — stores are fire-and-forget).
    pub writeback_fault_rate: f64,
    /// Silently drops every dirty write-back instead of sending it to the
    /// L2/DRAM image. This is a deliberate correctness mutation, the
    /// write-back analogue of [`FaultConfig::disable_recovery`]: the
    /// verification harness plants it (`latte-bench verify`,
    /// `--no-writeback`) to prove the shadow oracle catches lost stores
    /// when a victim's dirty bytes never reach memory.
    pub drop_writebacks: bool,
    /// Disables the decode-failure recovery path: a *detected* payload
    /// bit flip is still counted, but instead of invalidating the line
    /// and re-fetching, the SM consumes the corrupted decoded data as if
    /// the hit were clean. This is a deliberate correctness mutation used
    /// by the verification harness to prove the shadow oracle catches
    /// silent data corruption (`latte-bench verify`, `--no-fault-recovery`);
    /// it models a cache whose parity/ECC reporting is broken.
    pub disable_recovery: bool,
}

impl FaultConfig {
    /// A configuration injecting only payload bit flips, at `rate`.
    #[must_use]
    pub fn bitflips(seed: u64, rate: f64) -> FaultConfig {
        FaultConfig {
            seed,
            bitflip_rate: rate,
            ..FaultConfig::default()
        }
    }

    /// A configuration injecting only L2/DRAM return-path bit flips, at
    /// `rate`.
    #[must_use]
    pub fn fill_bitflips(seed: u64, rate: f64) -> FaultConfig {
        FaultConfig {
            seed,
            fill_bitflip_rate: rate,
            ..FaultConfig::default()
        }
    }

    /// A configuration injecting only outbound write-back link faults, at
    /// `rate`.
    #[must_use]
    pub fn writeback_faults(seed: u64, rate: f64) -> FaultConfig {
        FaultConfig {
            seed,
            writeback_fault_rate: rate,
            ..FaultConfig::default()
        }
    }

    /// A configuration dropping refill wakeup notifications, at `rate`.
    #[must_use]
    pub fn wakeup_drops(seed: u64, rate: f64) -> FaultConfig {
        FaultConfig {
            seed,
            wakeup_drop_rate: rate,
            ..FaultConfig::default()
        }
    }

    /// Folds every field into `fp` (part of
    /// [`crate::GpuConfig::fingerprint`]; see there for the contract).
    pub fn write_fingerprint(&self, fp: &mut crate::Fingerprinter) {
        let FaultConfig {
            seed,
            bitflip_rate,
            tag_corruption_rate,
            latency_spike_rate,
            latency_spike_cycles,
            mshr_exhaust_rate,
            fill_bitflip_rate,
            wakeup_drop_rate,
            writeback_fault_rate,
            drop_writebacks,
            disable_recovery,
        } = *self;
        fp.write_u64(seed);
        fp.write_f64(bitflip_rate);
        fp.write_f64(tag_corruption_rate);
        fp.write_f64(latency_spike_rate);
        fp.write_u64(latency_spike_cycles);
        fp.write_f64(mshr_exhaust_rate);
        fp.write_f64(fill_bitflip_rate);
        fp.write_f64(wakeup_drop_rate);
        fp.write_f64(writeback_fault_rate);
        fp.write_bool(drop_writebacks);
        fp.write_bool(disable_recovery);
    }
}

impl Default for FaultConfig {
    /// All fault sites disabled; spikes, when enabled, add 100 cycles.
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0,
            bitflip_rate: 0.0,
            tag_corruption_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike_cycles: 100,
            mshr_exhaust_rate: 0.0,
            fill_bitflip_rate: 0.0,
            wakeup_drop_rate: 0.0,
            writeback_fault_rate: 0.0,
            drop_writebacks: false,
            disable_recovery: false,
        }
    }
}

/// Counters for injected faults, accumulated into
/// [`crate::KernelStats::faults`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Bit flips injected into compressed payloads.
    pub bitflips_injected: u64,
    /// Injected flips the decoder caught (error or altered data); each
    /// one became a cache decode failure and a re-fetch.
    pub bitflips_detected: u64,
    /// Injected flips that left the decoded line unchanged.
    pub bitflips_masked: u64,
    /// Fills dropped because the tag write was corrupted.
    pub tag_corruptions: u64,
    /// Refills delayed by a latency spike.
    pub latency_spikes: u64,
    /// Total cycles added by latency spikes.
    pub spike_cycles_added: u64,
    /// Misses that found the MSHR file transiently exhausted.
    pub mshr_exhaustions: u64,
    /// Bit flips injected on the L2/DRAM return path. Each one is
    /// detected by link parity and costs the fill a retry round trip.
    pub fill_bitflips: u64,
    /// Total extra cycles spent re-sending parity-rejected refills.
    pub fill_retry_cycles: u64,
    /// Refill wakeup notifications dropped (warps left waiting forever).
    pub wakeup_drops: u64,
    /// Dirty write-backs corrupted on the outbound link. Each one is
    /// detected by parity and re-sent.
    pub writeback_faults: u64,
    /// Total extra cycles of link occupancy spent re-sending
    /// parity-rejected write-backs.
    pub writeback_retry_cycles: u64,
    /// Dirty write-backs silently discarded by the planted
    /// [`FaultConfig::drop_writebacks`] mutation.
    pub writebacks_dropped: u64,
}

impl FaultStats {
    /// Total faults injected across all sites.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bitflips_injected
            + self.tag_corruptions
            + self.latency_spikes
            + self.mshr_exhaustions
            + self.fill_bitflips
            + self.wakeup_drops
            + self.writeback_faults
            + self.writebacks_dropped
    }
}

impl std::ops::AddAssign for FaultStats {
    fn add_assign(&mut self, rhs: FaultStats) {
        let FaultStats {
            bitflips_injected,
            bitflips_detected,
            bitflips_masked,
            tag_corruptions,
            latency_spikes,
            spike_cycles_added,
            mshr_exhaustions,
            fill_bitflips,
            fill_retry_cycles,
            wakeup_drops,
            writeback_faults,
            writeback_retry_cycles,
            writebacks_dropped,
        } = rhs;
        self.bitflips_injected += bitflips_injected;
        self.bitflips_detected += bitflips_detected;
        self.bitflips_masked += bitflips_masked;
        self.tag_corruptions += tag_corruptions;
        self.latency_spikes += latency_spikes;
        self.spike_cycles_added += spike_cycles_added;
        self.mshr_exhaustions += mshr_exhaustions;
        self.fill_bitflips += fill_bitflips;
        self.fill_retry_cycles += fill_retry_cycles;
        self.wakeup_drops += wakeup_drops;
        self.writeback_faults += writeback_faults;
        self.writeback_retry_cycles += writeback_retry_cycles;
        self.writebacks_dropped += writebacks_dropped;
    }
}

/// Outcome of one injected payload bit flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitflipOutcome {
    /// The decoder errored or returned different data: the corruption is
    /// observable and the cache must recover.
    Detected,
    /// The round trip still produced the original line: the flip is
    /// architecturally invisible.
    Masked,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SM's deterministic fault source.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    sm: u64,
    state: u64,
}

impl FaultInjector {
    /// Creates an injector for SM `sm`, decorrelated from its siblings.
    #[must_use]
    pub fn new(config: FaultConfig, sm: usize) -> FaultInjector {
        let mut inj = FaultInjector {
            config,
            sm: sm as u64,
            state: 0,
        };
        inj.reseed();
        inj
    }

    /// Resets the RNG to its launch state (called at kernel start so each
    /// kernel sees a reproducible fault sequence).
    pub fn reseed(&mut self) {
        // Mix the SM id in multiplicatively so seed 0 / SM 0 does not
        // collapse to the same stream as seed 0 / SM 1.
        self.state = self.config.seed ^ 0xD6E8_FEB8_6659_FD93u64.wrapping_mul(self.sm + 1);
    }

    /// The configuration this injector runs.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Bernoulli trial at probability `rate`. Zero rates consume no
    /// random numbers, so disabled fault sites cannot perturb the
    /// sequence of an enabled one.
    fn roll(&mut self, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < rate
    }

    /// Should this compressed hit read a flipped payload?
    pub fn roll_bitflip(&mut self) -> bool {
        let rate = self.config.bitflip_rate;
        self.roll(rate)
    }

    /// Should this fill lose its tag write?
    pub fn roll_tag_corruption(&mut self) -> bool {
        let rate = self.config.tag_corruption_rate;
        self.roll(rate)
    }

    /// Should this miss find the MSHR file transiently exhausted?
    pub fn roll_mshr_exhaust(&mut self) -> bool {
        let rate = self.config.mshr_exhaust_rate;
        self.roll(rate)
    }

    /// Should this refill arrive with a flipped bit on the L2/DRAM
    /// return path (detected by parity, forcing a re-send)?
    pub fn roll_fill_bitflip(&mut self) -> bool {
        let rate = self.config.fill_bitflip_rate;
        self.roll(rate)
    }

    /// Should this refill's wakeup notification be lost?
    pub fn roll_wakeup_drop(&mut self) -> bool {
        let rate = self.config.wakeup_drop_rate;
        self.roll(rate)
    }

    /// Should this dirty write-back be corrupted on the outbound link
    /// (detected by parity, forcing a re-send)?
    pub fn roll_writeback_fault(&mut self) -> bool {
        let rate = self.config.writeback_fault_rate;
        self.roll(rate)
    }

    /// Cycles of latency spike to add to this refill, if any.
    pub fn roll_latency_spike(&mut self) -> Option<u64> {
        let rate = self.config.latency_spike_rate;
        if self.roll(rate) {
            Some(self.config.latency_spike_cycles)
        } else {
            None
        }
    }

    /// Injects one bit flip into the compressed form of `line` under
    /// `algo` and reports whether decoding catches it.
    ///
    /// SC is modelled as always detected: its codebook lives inside the
    /// policy, and a flipped Huffman stream that survives the length
    /// checks still fails the line's tag-side consistency in the modelled
    /// design.
    pub fn corrupt_compressed_read(
        &mut self,
        algo: CompressionAlgo,
        line: &CacheLine,
    ) -> BitflipOutcome {
        self.corrupt_compressed_read_observed(algo, line).0
    }

    /// Like [`FaultInjector::corrupt_compressed_read`], but also returns
    /// the line the pipeline *observes* if nothing recovers the access:
    /// the decoder's output on the corrupted input (or a deterministic
    /// single-bit garble of the raw line when the decoder errors out, or
    /// for SC, whose corruption is detected at the tag side before any
    /// bytes are produced). Masked flips observe the original line by
    /// definition.
    ///
    /// Consumes exactly one random draw, in the same position as
    /// [`FaultInjector::corrupt_compressed_read`] always has, so the
    /// injected fault sequence is unchanged by which entry point is used.
    pub fn corrupt_compressed_read_observed(
        &mut self,
        algo: CompressionAlgo,
        line: &CacheLine,
    ) -> (BitflipOutcome, CacheLine) {
        let flip = self.next_u64();
        let garbled = garble_line(line, flip);
        let (detected, observed) = match algo {
            // Raw lines carry no compressed payload to corrupt.
            CompressionAlgo::None => (false, *line),
            CompressionAlgo::Bdi => {
                let bdi = Bdi::new();
                let mut c = bdi.encode(line);
                if c.flip_bit(flip) {
                    match bdi.decode(&c) {
                        Ok(out) => (out != *line, out),
                        Err(_) => (true, garbled),
                    }
                } else {
                    (false, *line)
                }
            }
            CompressionAlgo::Fpc => {
                let fpc = Fpc::new();
                let mut w = fpc.encode(line);
                w.toggle_bit(flip as usize % w.bit_len());
                match fpc.decode(&w) {
                    Ok(out) => (out != *line, out),
                    Err(_) => (true, garbled),
                }
            }
            CompressionAlgo::CpackZ => {
                let cp = CpackZ::new();
                let mut w = cp.encode(line);
                w.toggle_bit(flip as usize % w.bit_len());
                match cp.decode(&w) {
                    Ok(out) => (out != *line, out),
                    Err(_) => (true, garbled),
                }
            }
            CompressionAlgo::Bpc => {
                let bpc = Bpc::new();
                let mut w = bpc.encode(line);
                w.toggle_bit(flip as usize % w.bit_len());
                match bpc.decode(&w) {
                    Ok(out) => (out != *line, out),
                    Err(_) => (true, garbled),
                }
            }
            CompressionAlgo::Sc => (true, garbled),
        };
        if detected {
            (BitflipOutcome::Detected, observed)
        } else {
            (BitflipOutcome::Masked, *line)
        }
    }
}

/// Toggles one seeded bit of `line` — the stand-in corrupted output for
/// decoders that error instead of producing bytes. Always differs from
/// the input, so an unrecovered detected flip is guaranteed observable.
fn garble_line(line: &CacheLine, flip: u64) -> CacheLine {
    let mut bytes = *line.as_bytes();
    let bit = (flip % (bytes.len() as u64 * 8)) as usize;
    bytes[bit / 8] ^= 1 << (bit % 8);
    CacheLine::from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = FaultInjector::new(FaultConfig::bitflips(7, 0.25), 3);
        let mut b = FaultInjector::new(FaultConfig::bitflips(7, 0.25), 3);
        let seq_a: Vec<bool> = (0..64).map(|_| a.roll_bitflip()).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.roll_bitflip()).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|&x| x));
        assert!(seq_a.iter().any(|&x| !x));
    }

    #[test]
    fn sms_are_decorrelated() {
        let mut a = FaultInjector::new(FaultConfig::bitflips(7, 0.5), 0);
        let mut b = FaultInjector::new(FaultConfig::bitflips(7, 0.5), 1);
        let seq_a: Vec<bool> = (0..64).map(|_| a.roll_bitflip()).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.roll_bitflip()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn reseed_replays_the_stream() {
        let mut inj = FaultInjector::new(FaultConfig::bitflips(99, 0.5), 2);
        let first: Vec<bool> = (0..32).map(|_| inj.roll_bitflip()).collect();
        inj.reseed();
        let second: Vec<bool> = (0..32).map(|_| inj.roll_bitflip()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn zero_rate_consumes_no_randomness() {
        let mut inj = FaultInjector::new(FaultConfig::default(), 0);
        let before = inj.state;
        assert!(!inj.roll_bitflip());
        assert!(!inj.roll_tag_corruption());
        assert!(!inj.roll_mshr_exhaust());
        assert!(!inj.roll_wakeup_drop());
        assert!(!inj.roll_writeback_fault());
        assert!(inj.roll_latency_spike().is_none());
        assert_eq!(inj.state, before);
    }

    #[test]
    fn bitflips_hit_every_decoder_without_panicking() {
        let mut inj = FaultInjector::new(FaultConfig::bitflips(1, 1.0), 0);
        let words: Vec<u32> = (0..32).map(|i| 0x4000_0000 + i * 3).collect();
        let line = CacheLine::from_u32_words(&words);
        let mut detected = 0;
        for algo in CompressionAlgo::ALL {
            for _ in 0..16 {
                if inj.corrupt_compressed_read(algo, &line) == BitflipOutcome::Detected {
                    detected += 1;
                }
            }
        }
        // SC alone contributes 16 detections; real decoders add more.
        assert!(detected > 16, "flips must be detectable, got {detected}");
    }

    #[test]
    fn zero_line_bdi_flip_is_masked() {
        // The all-zero line encodes to BDI's Zeros form, which carries no
        // payload bits: a flip has nowhere to land.
        let mut inj = FaultInjector::new(FaultConfig::bitflips(5, 1.0), 0);
        let out = inj.corrupt_compressed_read(CompressionAlgo::Bdi, &CacheLine::zeroed());
        assert_eq!(out, BitflipOutcome::Masked);
    }

    #[test]
    fn observed_data_differs_exactly_when_detected() {
        let words: Vec<u32> = (0..32).map(|i| 0x4000_0000 + i * 3).collect();
        let line = CacheLine::from_u32_words(&words);
        let mut inj = FaultInjector::new(FaultConfig::bitflips(11, 1.0), 0);
        for algo in CompressionAlgo::ALL {
            for _ in 0..16 {
                let (outcome, observed) = inj.corrupt_compressed_read_observed(algo, &line);
                match outcome {
                    BitflipOutcome::Detected => assert_ne!(
                        observed, line,
                        "{algo:?}: a detected flip must corrupt the observed data"
                    ),
                    BitflipOutcome::Masked => assert_eq!(
                        observed, line,
                        "{algo:?}: a masked flip must leave the line intact"
                    ),
                }
            }
        }
    }

    #[test]
    fn observed_entry_point_preserves_the_draw_sequence() {
        // Both entry points must consume exactly one draw so the injected
        // fault sequence is independent of which one the SM calls.
        let line = CacheLine::from_u32_words(&(0..32).collect::<Vec<u32>>());
        let mut a = FaultInjector::new(FaultConfig::bitflips(42, 1.0), 1);
        let mut b = FaultInjector::new(FaultConfig::bitflips(42, 1.0), 1);
        for algo in CompressionAlgo::ALL {
            let oa = a.corrupt_compressed_read(algo, &line);
            let (ob, _) = b.corrupt_compressed_read_observed(algo, &line);
            assert_eq!(oa, ob);
            assert_eq!(a.state, b.state);
        }
    }

    #[test]
    fn disable_recovery_changes_the_fingerprint() {
        let mut a = crate::Fingerprinter::new();
        FaultConfig::default().write_fingerprint(&mut a);
        let mut b = crate::Fingerprinter::new();
        FaultConfig {
            disable_recovery: true,
            ..FaultConfig::default()
        }
        .write_fingerprint(&mut b);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fault_stats_accumulate() {
        let mut a = FaultStats {
            bitflips_injected: 2,
            bitflips_detected: 1,
            bitflips_masked: 1,
            tag_corruptions: 3,
            latency_spikes: 1,
            spike_cycles_added: 100,
            mshr_exhaustions: 4,
            fill_bitflips: 5,
            fill_retry_cycles: 120,
            wakeup_drops: 6,
            writeback_faults: 7,
            writeback_retry_cycles: 240,
            writebacks_dropped: 8,
        };
        a += a;
        assert_eq!(a.bitflips_injected, 4);
        assert_eq!(a.spike_cycles_added, 200);
        assert_eq!(a.fill_bitflips, 10);
        assert_eq!(a.fill_retry_cycles, 240);
        assert_eq!(a.wakeup_drops, 12);
        assert_eq!(a.writeback_faults, 14);
        assert_eq!(a.writeback_retry_cycles, 480);
        assert_eq!(a.writebacks_dropped, 16);
        assert_eq!(a.total(), 4 + 6 + 2 + 8 + 10 + 12 + 14 + 16);
    }
}
