//! A versioned binary codec for simulation outcomes
//! ([`BenchResult`] plus its captured diagnostics), used as the store
//! payload format.
//!
//! Hand-rolled little-endian writer/reader — the workspace has no serde
//! and takes no new dependencies. Two principles:
//!
//! * **Self-contained versioning.** The payload leads with a codec
//!   version; any mismatch is a typed error, which the simulation
//!   service treats as a miss. (Defense in depth: the store key already
//!   folds in [`latte_gpusim::FINGERPRINT_SCHEMA_VERSION`], so a layout
//!   change normally changes the key and old records are simply never
//!   requested.)
//! * **Decode is validation.** Every tag and length is checked, the
//!   decoded identity (benchmark abbreviation, policy) must match what
//!   the caller asked for, and trailing bytes are an error. A payload
//!   that decodes is exactly a result this binary could have produced.

use crate::runner::{BenchResult, KernelSummary, PolicyKind};
use latte_cache::{CacheStats, LineAddr};
use latte_compress::CompressionAlgo;
use latte_energy::EnergyReport;
use latte_gpusim::{
    AlgoCounts, EpTraceEntry, FaultStats, KernelStats, PolicyReport, ShadowViolation,
    ShadowViolationKind, TerminationReason,
};
use latte_oracle::OracleReport;
use latte_workloads::BenchmarkSpec;
use std::fmt;

/// Bump on ANY change to the encoded layout, alongside
/// [`latte_gpusim::FINGERPRINT_SCHEMA_VERSION`].
/// v2: `writebacks` kernel counter, write-back fault counters
/// (`writeback_faults`/`writeback_retry_cycles`/`writebacks_dropped`),
/// Assist-Warp policy tag.
/// v3: per-kernel records (`BenchResult::kernels`).
pub const CODEC_VERSION: u32 = 3;

/// Everything that can be wrong with a stored payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of bytes mid-field.
    Truncated,
    /// Encoded by a different codec version.
    BadVersion(u32),
    /// An enum tag or flag byte is out of range.
    BadTag {
        /// Which field the tag belongs to.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A string field is not UTF-8.
    BadUtf8,
    /// The stored result is for a different benchmark than requested.
    BenchMismatch {
        /// Abbreviation found in the payload.
        found: String,
    },
    /// The stored result is for a different policy than requested.
    PolicyMismatch {
        /// Policy found in the payload.
        found: PolicyKind,
    },
    /// Bytes left over after a complete decode.
    TrailingBytes {
        /// How many bytes remain.
        remaining: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated"),
            CodecError::BadVersion(v) => {
                write!(f, "codec version {v} (current {CODEC_VERSION})")
            }
            CodecError::BadTag { what, value } => write!(f, "bad {what} tag {value}"),
            CodecError::BadUtf8 => write!(f, "non-UTF-8 string field"),
            CodecError::BenchMismatch { found } => {
                write!(f, "payload is for benchmark {found:?}")
            }
            CodecError::PolicyMismatch { found } => {
                write!(f, "payload is for policy {found:?}")
            }
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing byte(s)")
            }
        }
    }
}

/// Algorithm order for [`AlgoCounts`]: `None` first, then the real
/// algorithms in `CompressionAlgo::ALL` order. Part of the format.
const ALGO_ORDER: [CompressionAlgo; 6] = [
    CompressionAlgo::None,
    CompressionAlgo::Bdi,
    CompressionAlgo::Fpc,
    CompressionAlgo::CpackZ,
    CompressionAlgo::Bpc,
    CompressionAlgo::Sc,
];

pub(crate) fn policy_tag(policy: PolicyKind) -> u8 {
    match policy {
        PolicyKind::Baseline => 0,
        PolicyKind::StaticBdi => 1,
        PolicyKind::StaticSc => 2,
        PolicyKind::StaticBpc => 3,
        PolicyKind::LatteCc => 4,
        PolicyKind::LatteCcBdiBpc => 5,
        PolicyKind::LatteCcMulti => 6,
        PolicyKind::AdaptiveHitCount => 7,
        PolicyKind::AdaptiveCmp => 8,
        PolicyKind::AssistWarp => 9,
    }
}

fn policy_from_tag(tag: u8) -> Option<PolicyKind> {
    Some(match tag {
        0 => PolicyKind::Baseline,
        1 => PolicyKind::StaticBdi,
        2 => PolicyKind::StaticSc,
        3 => PolicyKind::StaticBpc,
        4 => PolicyKind::LatteCc,
        5 => PolicyKind::LatteCcBdiBpc,
        6 => PolicyKind::LatteCcMulti,
        7 => PolicyKind::AdaptiveHitCount,
        8 => PolicyKind::AdaptiveCmp,
        9 => PolicyKind::AssistWarp,
        _ => return None,
    })
}

fn termination_tag(t: TerminationReason) -> u8 {
    match t {
        TerminationReason::Completed => 0,
        TerminationReason::CycleLimit => 1,
        TerminationReason::Deadlock => 2,
        TerminationReason::FaultAbort => 3,
    }
}

fn termination_from_tag(tag: u8) -> Option<TerminationReason> {
    Some(match tag {
        0 => TerminationReason::Completed,
        1 => TerminationReason::CycleLimit,
        2 => TerminationReason::Deadlock,
        3 => TerminationReason::FaultAbort,
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.out.extend_from_slice(s.as_bytes());
    }
    fn algo_counts(&mut self, c: &AlgoCounts) {
        for algo in ALGO_ORDER {
            self.u64(c.get(algo));
        }
    }
    fn cache_stats(&mut self, s: &CacheStats) {
        self.u64(s.hits);
        self.u64(s.compressed_hits);
        self.u64(s.misses);
        self.u64(s.fills);
        self.u64(s.compressed_fills);
        self.u64(s.evictions);
        self.u64(s.filled_bytes_uncompressed);
        self.u64(s.filled_bytes_stored);
        self.u64(s.decode_failures);
    }
}

/// Serializes one outcome (result + captured diagnostics).
#[must_use]
pub fn encode_outcome(result: &BenchResult, diag: &str) -> Vec<u8> {
    let mut w = Writer {
        out: Vec::with_capacity(1024 + diag.len()),
    };
    w.u32(CODEC_VERSION);
    w.u8(policy_tag(result.policy));
    w.str(result.abbr);

    let s = &result.stats;
    w.u64(s.cycles);
    w.u64(s.instructions);
    w.cache_stats(&s.l1);
    w.cache_stats(&s.l2);
    w.u64(s.dram_accesses);
    w.u64(s.loads);
    w.u64(s.stores);
    w.u64(s.writebacks);
    w.algo_counts(&s.compressions);
    w.algo_counts(&s.decompressions);
    w.u64(s.mshr_stalls);
    w.u64(s.hit_wait_cycles);
    w.u64(s.miss_wait_cycles);
    w.u64(s.barrier_wait_cycles);
    w.u64(s.eps_completed);
    w.u64(s.decompression_queue_wait);
    w.u64(s.traces.len() as u64);
    for t in &s.traces {
        w.u64(t.ep_index);
        w.u64(t.end_cycle);
        w.f64(t.latency_tolerance);
        w.f64(t.effective_capacity);
        w.f64(t.l1_hit_rate);
        w.opt_u64(t.selected_mode.map(|m| m as u64));
    }
    w.u8(u8::from(s.timed_out));
    w.u8(termination_tag(s.termination));
    let f = &s.faults;
    for v in [
        f.bitflips_injected,
        f.bitflips_detected,
        f.bitflips_masked,
        f.tag_corruptions,
        f.latency_spikes,
        f.spike_cycles_added,
        f.mshr_exhaustions,
        f.fill_bitflips,
        f.fill_retry_cycles,
        f.wakeup_drops,
        f.writeback_faults,
        f.writeback_retry_cycles,
        f.writebacks_dropped,
    ] {
        w.u64(v);
    }

    let e = &result.energy;
    for v in [
        e.core_nj,
        e.l1_nj,
        e.l2_nj,
        e.dram_nj,
        e.noc_nj,
        e.compression_nj,
        e.decompression_nj,
        e.static_nj,
    ] {
        w.f64(v);
    }

    w.u64(result.reports.len() as u64);
    for r in &result.reports {
        for m in r.eps_in_mode {
            w.u64(m);
        }
    }

    w.u64(result.kernels.len() as u64);
    for k in &result.kernels {
        w.u64(k.cycles);
        for m in k.eps_in_mode {
            w.u64(m);
        }
    }

    match &result.shadow {
        None => w.u8(0),
        Some(o) => {
            w.u8(1);
            w.u64(o.loads_checked);
            w.u64(o.fills_observed);
            w.u64(o.stores_observed);
            w.u64(o.checkpoints);
            w.u64(o.violations_total);
            w.u64(o.violations.len() as u64);
            for v in &o.violations {
                w.u64(v.sm as u64);
                w.u64(v.cycle);
                w.opt_u64(v.addr.map(LineAddr::line_number));
                w.u8(match v.kind {
                    ShadowViolationKind::DataIntegrity => 0,
                    ShadowViolationKind::Structural => 1,
                });
                w.str(&v.detail);
            }
        }
    }

    w.str(diag);
    w.out
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }
    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            v => Err(CodecError::BadTag {
                what: "option",
                value: u64::from(v),
            }),
        }
    }
    fn str(&mut self) -> Result<String, CodecError> {
        let len = self.len_prefix()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }
    /// A length prefix, sanity-bounded by the bytes actually remaining
    /// so corrupt lengths fail fast instead of attempting huge
    /// allocations.
    fn len_prefix(&mut self) -> Result<usize, CodecError> {
        let len = self.u64()?;
        if len > (self.bytes.len() - self.pos) as u64 {
            return Err(CodecError::Truncated);
        }
        Ok(len as usize)
    }
    fn algo_counts(&mut self) -> Result<AlgoCounts, CodecError> {
        let mut c = AlgoCounts::default();
        for algo in ALGO_ORDER {
            c.add(algo, self.u64()?);
        }
        Ok(c)
    }
    fn cache_stats(&mut self) -> Result<CacheStats, CodecError> {
        Ok(CacheStats {
            hits: self.u64()?,
            compressed_hits: self.u64()?,
            misses: self.u64()?,
            fills: self.u64()?,
            compressed_fills: self.u64()?,
            evictions: self.u64()?,
            filled_bytes_uncompressed: self.u64()?,
            filled_bytes_stored: self.u64()?,
            decode_failures: self.u64()?,
        })
    }
}

/// Decodes an outcome, validating it is for exactly the requested
/// `(policy, bench)`. Returns the result (with `bench`'s `'static`
/// abbreviation, after matching it against the stored one) and the
/// captured diagnostics.
///
/// # Errors
///
/// Any structural problem or identity mismatch; see [`CodecError`].
/// Callers treat every error as a cache miss.
pub fn decode_outcome(
    bytes: &[u8],
    policy: PolicyKind,
    bench: &BenchmarkSpec,
) -> Result<(BenchResult, String), CodecError> {
    let mut r = Reader { bytes, pos: 0 };
    let version = r.u32()?;
    if version != CODEC_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let stored_policy = {
        let tag = r.u8()?;
        policy_from_tag(tag).ok_or(CodecError::BadTag {
            what: "policy",
            value: u64::from(tag),
        })?
    };
    if stored_policy != policy {
        return Err(CodecError::PolicyMismatch {
            found: stored_policy,
        });
    }
    let stored_abbr = r.str()?;
    if stored_abbr != bench.abbr {
        return Err(CodecError::BenchMismatch { found: stored_abbr });
    }

    let mut stats = KernelStats {
        cycles: r.u64()?,
        instructions: r.u64()?,
        l1: r.cache_stats()?,
        l2: r.cache_stats()?,
        dram_accesses: r.u64()?,
        loads: r.u64()?,
        stores: r.u64()?,
        writebacks: r.u64()?,
        compressions: r.algo_counts()?,
        decompressions: r.algo_counts()?,
        mshr_stalls: r.u64()?,
        hit_wait_cycles: r.u64()?,
        miss_wait_cycles: r.u64()?,
        barrier_wait_cycles: r.u64()?,
        eps_completed: r.u64()?,
        decompression_queue_wait: r.u64()?,
        ..KernelStats::default()
    };
    let n_traces = r.len_prefix()?;
    let mut traces = Vec::with_capacity(n_traces);
    for _ in 0..n_traces {
        traces.push(EpTraceEntry {
            ep_index: r.u64()?,
            end_cycle: r.u64()?,
            latency_tolerance: r.f64()?,
            effective_capacity: r.f64()?,
            l1_hit_rate: r.f64()?,
            selected_mode: r.opt_u64()?.map(|m| m as usize),
        });
    }
    stats.traces = traces;
    stats.timed_out = match r.u8()? {
        0 => false,
        1 => true,
        v => {
            return Err(CodecError::BadTag {
                what: "timed_out",
                value: u64::from(v),
            })
        }
    };
    stats.termination = {
        let tag = r.u8()?;
        termination_from_tag(tag).ok_or(CodecError::BadTag {
            what: "termination",
            value: u64::from(tag),
        })?
    };
    stats.faults = FaultStats {
        bitflips_injected: r.u64()?,
        bitflips_detected: r.u64()?,
        bitflips_masked: r.u64()?,
        tag_corruptions: r.u64()?,
        latency_spikes: r.u64()?,
        spike_cycles_added: r.u64()?,
        mshr_exhaustions: r.u64()?,
        fill_bitflips: r.u64()?,
        fill_retry_cycles: r.u64()?,
        wakeup_drops: r.u64()?,
        writeback_faults: r.u64()?,
        writeback_retry_cycles: r.u64()?,
        writebacks_dropped: r.u64()?,
    };

    let energy = EnergyReport {
        core_nj: r.f64()?,
        l1_nj: r.f64()?,
        l2_nj: r.f64()?,
        dram_nj: r.f64()?,
        noc_nj: r.f64()?,
        compression_nj: r.f64()?,
        decompression_nj: r.f64()?,
        static_nj: r.f64()?,
    };

    let n_reports = r.len_prefix()?;
    let mut reports = Vec::with_capacity(n_reports);
    for _ in 0..n_reports {
        reports.push(PolicyReport {
            eps_in_mode: [r.u64()?, r.u64()?, r.u64()?],
        });
    }

    let n_kernels = r.len_prefix()?;
    let mut kernels = Vec::with_capacity(n_kernels);
    for _ in 0..n_kernels {
        kernels.push(KernelSummary {
            cycles: r.u64()?,
            eps_in_mode: [r.u64()?, r.u64()?, r.u64()?],
        });
    }

    let shadow = match r.u8()? {
        0 => None,
        1 => {
            let loads_checked = r.u64()?;
            let fills_observed = r.u64()?;
            let stores_observed = r.u64()?;
            let checkpoints = r.u64()?;
            let violations_total = r.u64()?;
            let n_violations = r.len_prefix()?;
            let mut violations = Vec::with_capacity(n_violations);
            for _ in 0..n_violations {
                violations.push(ShadowViolation {
                    sm: r.u64()? as usize,
                    cycle: r.u64()?,
                    addr: r.opt_u64()?.map(LineAddr::new),
                    kind: match r.u8()? {
                        0 => ShadowViolationKind::DataIntegrity,
                        1 => ShadowViolationKind::Structural,
                        v => {
                            return Err(CodecError::BadTag {
                                what: "violation kind",
                                value: u64::from(v),
                            })
                        }
                    },
                    detail: r.str()?,
                });
            }
            Some(OracleReport {
                loads_checked,
                fills_observed,
                stores_observed,
                checkpoints,
                violations_total,
                violations,
            })
        }
        v => {
            return Err(CodecError::BadTag {
                what: "shadow option",
                value: u64::from(v),
            })
        }
    };

    let diag = r.str()?;
    if r.pos != bytes.len() {
        return Err(CodecError::TrailingBytes {
            remaining: bytes.len() - r.pos,
        });
    }
    Ok((
        BenchResult {
            abbr: bench.abbr,
            policy,
            stats,
            energy,
            reports,
            kernels,
            shadow,
        },
        diag,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use latte_gpusim::GpuConfig;

    fn nw() -> BenchmarkSpec {
        latte_workloads::benchmark("NW").expect("NW exists")
    }

    fn sample_result(bench: &BenchmarkSpec) -> BenchResult {
        // A genuinely simulated result exercises every field population
        // path (including nonzero cache stats and energy).
        crate::runner::run_benchmark_uncached(
            PolicyKind::StaticBdi,
            bench,
            &GpuConfig {
                num_sms: 1,
                ..GpuConfig::small()
            },
        )
    }

    fn enriched(bench: &BenchmarkSpec) -> BenchResult {
        // Layer on the optional parts a plain run leaves empty.
        let mut result = sample_result(bench);
        result.stats.traces = vec![
            EpTraceEntry {
                ep_index: 3,
                end_cycle: 4096,
                latency_tolerance: 1.25,
                effective_capacity: 1.75,
                l1_hit_rate: 0.5,
                selected_mode: Some(2),
            },
            EpTraceEntry {
                ep_index: 4,
                end_cycle: 8192,
                latency_tolerance: f64::INFINITY,
                effective_capacity: 0.0,
                l1_hit_rate: 0.0,
                selected_mode: None,
            },
        ];
        result.kernels.push(KernelSummary {
            cycles: u64::MAX,
            eps_in_mode: [3, 0, 40],
        });
        result.stats.timed_out = true;
        result.stats.termination = TerminationReason::CycleLimit;
        result.stats.faults.bitflips_injected = 7;
        result.shadow = Some(OracleReport {
            loads_checked: 100,
            fills_observed: 50,
            stores_observed: 25,
            checkpoints: 9,
            violations_total: 2,
            violations: vec![
                ShadowViolation {
                    sm: 1,
                    cycle: 777,
                    addr: Some(LineAddr::new(0xabc)),
                    kind: ShadowViolationKind::DataIntegrity,
                    detail: "byte 3 differs".to_owned(),
                },
                ShadowViolation {
                    sm: 0,
                    cycle: 999,
                    addr: None,
                    kind: ShadowViolationKind::Structural,
                    detail: "MSHR leak".to_owned(),
                },
            ],
        });
        result
    }

    fn assert_results_equal(a: &BenchResult, b: &BenchResult) {
        assert_eq!(a.abbr, b.abbr);
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.reports, b.reports);
        assert_eq!(a.kernels, b.kernels);
        assert_eq!(
            format!("{:?}", a.shadow),
            format!("{:?}", b.shadow),
            "shadow reports differ"
        );
        // Energy must round-trip bit-exactly (CSV output depends on it).
        for (x, y) in [
            (a.energy.core_nj, b.energy.core_nj),
            (a.energy.l1_nj, b.energy.l1_nj),
            (a.energy.l2_nj, b.energy.l2_nj),
            (a.energy.dram_nj, b.energy.dram_nj),
            (a.energy.noc_nj, b.energy.noc_nj),
            (a.energy.compression_nj, b.energy.compression_nj),
            (a.energy.decompression_nj, b.energy.decompression_nj),
            (a.energy.static_nj, b.energy.static_nj),
        ] {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let bench = nw();
        let result = enriched(&bench);
        let diag = "watchdog: something\n[shadow] NW/Static-BDI: ...\n";
        let bytes = encode_outcome(&result, diag);
        let (decoded, decoded_diag) =
            decode_outcome(&bytes, PolicyKind::StaticBdi, &bench).expect("round trip");
        assert_results_equal(&result, &decoded);
        assert_eq!(diag, decoded_diag);
        // Re-encoding the decoded result is byte-identical: the format
        // has one canonical serialization.
        assert_eq!(bytes, encode_outcome(&decoded, &decoded_diag));
    }

    #[test]
    fn identity_mismatches_are_rejected() {
        let bench = nw();
        let result = sample_result(&bench);
        let bytes = encode_outcome(&result, "");
        assert!(matches!(
            decode_outcome(&bytes, PolicyKind::Baseline, &bench),
            Err(CodecError::PolicyMismatch { .. })
        ));
        let other = latte_workloads::benchmark("BFS").expect("BFS exists");
        assert!(matches!(
            decode_outcome(&bytes, PolicyKind::StaticBdi, &other),
            Err(CodecError::BenchMismatch { .. })
        ));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let bench = nw();
        let mut bytes = encode_outcome(&sample_result(&bench), "");
        bytes[0..4].copy_from_slice(&(CODEC_VERSION + 1).to_le_bytes());
        assert!(matches!(
            decode_outcome(&bytes, PolicyKind::StaticBdi, &bench),
            Err(CodecError::BadVersion(v)) if v == CODEC_VERSION + 1
        ));
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let bench = nw();
        let bytes = encode_outcome(&enriched(&bench), "diagnostics text");
        for len in 0..bytes.len() {
            assert!(
                decode_outcome(&bytes[..len], PolicyKind::StaticBdi, &bench).is_err(),
                "truncation to {len} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let bench = nw();
        let mut bytes = encode_outcome(&sample_result(&bench), "");
        bytes.push(0);
        assert!(matches!(
            decode_outcome(&bytes, PolicyKind::StaticBdi, &bench),
            Err(CodecError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn huge_length_prefix_fails_without_allocating() {
        let bench = nw();
        let result = sample_result(&bench);
        let mut bytes = encode_outcome(&result, "");
        // Corrupt the kernel-record count. It precedes the records
        // (32 bytes each), the shadow flag byte and the empty diag
        // string's 8-byte length prefix.
        let n = result.kernels.len();
        let at = bytes.len() - 8 - 1 - 32 * n - 8;
        assert_eq!(bytes[at..at + 8], (n as u64).to_le_bytes());
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_outcome(&bytes, PolicyKind::StaticBdi, &bench),
            Err(CodecError::Truncated)
        ));
    }
}
