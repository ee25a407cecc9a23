//! A versioned binary codec for simulation outcomes
//! ([`BenchResult`] plus its captured diagnostics), used as the store
//! payload format.
//!
//! Hand-rolled and little-endian: the workspace has no serde and takes
//! no new dependencies. Each record's layout is stated once, as one
//! field list that generates both directions, so a field missing from
//! its list does not compile. Two principles:
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

use crate::runner::{BenchResult, KernelSummary, PolicyKind, ALL_POLICIES};
use latte_cache::{CacheStats, LineAddr};
use latte_compress::CompressionAlgo::{self, Bdi, Bpc, CpackZ, Fpc, Sc};
use latte_energy::EnergyReport;
use latte_gpusim::ShadowViolationKind::{self, DataIntegrity, Structural};
use latte_gpusim::TerminationReason::{self, Completed, CycleLimit, Deadlock, FaultAbort};
use latte_gpusim::{
    AlgoCounts, EpTraceEntry, FaultStats, KernelStats, PolicyReport, ShadowViolation,
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
            CodecError::BadVersion(v) => write!(f, "codec version {v} (current {CODEC_VERSION})"),
            CodecError::BadTag { what, value } => write!(f, "bad {what} tag {value}"),
            CodecError::BadUtf8 => write!(f, "non-UTF-8 string field"),
            CodecError::BenchMismatch { found } => write!(f, "payload is for benchmark {found:?}"),
            CodecError::PolicyMismatch { found } => write!(f, "payload is for policy {found:?}"),
            CodecError::TrailingBytes { remaining } => write!(f, "{remaining} trailing byte(s)"),
        }
    }
}

/// Algorithm order for [`AlgoCounts`]: `None` first, then the real
/// algorithms in `CompressionAlgo::ALL` order. Part of the format.
const ALGO_ORDER: [CompressionAlgo; 6] = [CompressionAlgo::None, Bdi, Fpc, CpackZ, Bpc, Sc];

/// The policy's tag: its index in [`ALL_POLICIES`]. Part of the format
/// and of the store key.
pub(crate) fn policy_tag(policy: PolicyKind) -> u8 {
    tag_in(&ALL_POLICIES, &policy)
}

/// `value`'s index in its tag table. A variant missing from its table
/// gets an out-of-range tag, so its records fail to decode and are
/// recomputed instead of misread.
fn tag_in<T: PartialEq>(table: &[T], value: &T) -> u8 {
    let index = table.iter().position(|t| t == value);
    index.map_or(u8::MAX, |i| i as u8)
}

/// A value's encoding, both directions in one place.
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let slice = self.bytes[self.pos..]
            .get(..n)
            .ok_or(CodecError::Truncated)?;
        self.pos += n;
        Ok(slice)
    }
    /// A length prefix, sanity-bounded by the bytes actually remaining
    /// so corrupt lengths fail fast instead of attempting huge
    /// allocations.
    fn len_prefix(&mut self) -> Result<usize, CodecError> {
        let len = u64::get(self)?;
        if len > (self.bytes.len() - self.pos) as u64 {
            return Err(CodecError::Truncated);
        }
        Ok(len as usize)
    }
}

/// Integers travel little-endian at their own width.
macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                let mut buf = [0u8; std::mem::size_of::<$t>()];
                buf.copy_from_slice(bytes);
                Ok(<$t>::from_le_bytes(buf))
            }
        }
    )*};
}
wire_int!(u8, u32, u64);

/// Types that travel as one `u64`.
macro_rules! wire_as_u64 {
    ($($t:ty: $to:expr, $from:expr;)*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                $to(*self).put(out);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                u64::get(r).map($from)
            }
        }
    )*};
}
wire_as_u64! {
    usize: |v: usize| v as u64, |v| v as usize;
    f64: f64::to_bits, f64::from_bits;
    LineAddr: LineAddr::line_number, LineAddr::new;
}

/// A presence flag, then the value when present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        bool::get(r)?.then(|| T::get(r)).transpose()
    }
}

fn put_str(s: &str, out: &mut Vec<u8>) {
    s.len().put(out);
    out.extend_from_slice(s.as_bytes());
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_str(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.len_prefix()?;
        String::from_utf8(r.take(len)?.to_vec()).map_err(|_| CodecError::BadUtf8)
    }
}

/// A length prefix, then the elements.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.len_prefix()?;
        (0..n).map(|_| T::get(r)).collect()
    }
}

/// Fixed-size arrays carry no prefix.
impl<const N: usize> Wire for [u64; N] {
    fn put(&self, out: &mut Vec<u8>) {
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut items = [0; N];
        for v in &mut items {
            *v = u64::get(r)?;
        }
        Ok(items)
    }
}

impl Wire for AlgoCounts {
    fn put(&self, out: &mut Vec<u8>) {
        for algo in ALGO_ORDER {
            self.get(algo).put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut counts = AlgoCounts::default();
        for algo in ALGO_ORDER {
            counts.add(algo, u64::get(r)?);
        }
        Ok(counts)
    }
}

/// Enums travel as one byte: the value's index in its tag table. The
/// tables are part of the format.
macro_rules! wire_enum {
    ($($ty:ty: $table:expr;)*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                tag_in(&$table, self).put(out);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let tag = u8::get(r)?;
                $table.get(usize::from(tag)).copied().ok_or(CodecError::BadTag {
                    what: stringify!($ty),
                    value: u64::from(tag),
                })
            }
        }
    )*};
}
wire_enum! {
    bool: [false, true];
    PolicyKind: ALL_POLICIES;
    TerminationReason: [Completed, CycleLimit, Deadlock, FaultAbort];
    ShadowViolationKind: [DataIntegrity, Structural];
}

/// Both directions of a record from one list of its fields, in wire
/// order. `put` destructures the record exhaustively and `get` builds
/// it with a struct literal that has no `..`, so a field left off the
/// list is a compile error.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                let $ty { $($field),* } = self;
                $($field.put(out);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                $(let $field = Wire::get(r)?;)*
                Ok($ty { $($field),* })
            }
        }
    )*};
}
wire_struct! {
    CacheStats {
        hits, compressed_hits, misses, fills, compressed_fills, evictions,
        filled_bytes_uncompressed, filled_bytes_stored, decode_failures,
    }
    EpTraceEntry {
        ep_index, end_cycle, latency_tolerance, effective_capacity, l1_hit_rate, selected_mode,
    }
    FaultStats {
        bitflips_injected, bitflips_detected, bitflips_masked, tag_corruptions,
        latency_spikes, spike_cycles_added, mshr_exhaustions, fill_bitflips,
        fill_retry_cycles, wakeup_drops, writeback_faults, writeback_retry_cycles,
        writebacks_dropped,
    }
    KernelStats {
        cycles, instructions, l1, l2, dram_accesses, loads, stores, writebacks,
        compressions, decompressions, mshr_stalls, hit_wait_cycles, miss_wait_cycles,
        barrier_wait_cycles, eps_completed, decompression_queue_wait, traces, timed_out,
        termination, faults,
    }
    EnergyReport {
        core_nj, l1_nj, l2_nj, dram_nj, noc_nj, compression_nj, decompression_nj, static_nj,
    }
    PolicyReport { eps_in_mode }
    KernelSummary { cycles, eps_in_mode }
    ShadowViolation { sm, cycle, addr, kind, detail }
    OracleReport {
        loads_checked, fills_observed, stores_observed, checkpoints, violations_total,
        violations,
    }
}

/// Serializes one outcome: the header (codec version, policy tag,
/// benchmark abbreviation), the result's records, then `diag`.
#[must_use]
pub fn encode_outcome(result: &BenchResult, diag: &str) -> Vec<u8> {
    let BenchResult {
        abbr,
        policy,
        stats,
        energy,
        reports,
        kernels,
        shadow,
    } = result;
    let mut out = Vec::with_capacity(1024 + diag.len());
    CODEC_VERSION.put(&mut out);
    policy.put(&mut out);
    put_str(abbr, &mut out);
    stats.put(&mut out);
    energy.put(&mut out);
    reports.put(&mut out);
    kernels.put(&mut out);
    shadow.put(&mut out);
    put_str(diag, &mut out);
    out
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
    let r = &mut Reader { bytes, pos: 0 };
    let version = u32::get(r)?;
    if version != CODEC_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let found = PolicyKind::get(r)?;
    if found != policy {
        return Err(CodecError::PolicyMismatch { found });
    }
    let found = String::get(r)?;
    if found != bench.abbr {
        return Err(CodecError::BenchMismatch { found });
    }
    // Fields are read in the order written.
    let result = BenchResult {
        abbr: bench.abbr,
        policy,
        stats: Wire::get(r)?,
        energy: Wire::get(r)?,
        reports: Wire::get(r)?,
        kernels: Wire::get(r)?,
        shadow: Wire::get(r)?,
    };
    let diag = String::get(r)?;
    let remaining = bytes.len() - r.pos;
    if remaining != 0 {
        return Err(CodecError::TrailingBytes { remaining });
    }
    Ok((result, diag))
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

    /// A hand-built result with no simulation behind it: every counter
    /// nonzero and distinct, both arms of every `Option`, two EP traces
    /// and two shadow violations.
    fn pinned_result() -> BenchResult {
        let algo_counts = |base: u64| {
            let mut c = AlgoCounts::default();
            for (i, algo) in (0u64..).zip(ALGO_ORDER) {
                c.add(algo, base + i);
            }
            c
        };
        let cache_stats = |base: u64| CacheStats {
            hits: base + 1,
            compressed_hits: base + 2,
            misses: base + 3,
            fills: base + 4,
            compressed_fills: base + 5,
            evictions: base + 6,
            filled_bytes_uncompressed: base + 7,
            filled_bytes_stored: base + 8,
            decode_failures: base + 9,
        };
        BenchResult {
            abbr: "NW",
            policy: PolicyKind::AssistWarp,
            stats: KernelStats {
                cycles: 1_000_001,
                instructions: 1_000_002,
                l1: cache_stats(100),
                l2: cache_stats(200),
                dram_accesses: 1_000_003,
                loads: 1_000_004,
                stores: 1_000_005,
                writebacks: 1_000_006,
                compressions: algo_counts(300),
                decompressions: algo_counts(400),
                mshr_stalls: 1_000_007,
                hit_wait_cycles: 1_000_008,
                miss_wait_cycles: 1_000_009,
                barrier_wait_cycles: 1_000_010,
                eps_completed: 1_000_011,
                decompression_queue_wait: 1_000_012,
                traces: vec![
                    EpTraceEntry {
                        ep_index: 501,
                        end_cycle: 502,
                        latency_tolerance: 5.03,
                        effective_capacity: 5.04,
                        l1_hit_rate: 0.505,
                        selected_mode: None,
                    },
                    EpTraceEntry {
                        ep_index: 511,
                        end_cycle: 512,
                        latency_tolerance: f64::INFINITY,
                        effective_capacity: 5.14,
                        l1_hit_rate: 0.515,
                        selected_mode: Some(2),
                    },
                ],
                timed_out: true,
                termination: TerminationReason::Deadlock,
                faults: FaultStats {
                    bitflips_injected: 601,
                    bitflips_detected: 602,
                    bitflips_masked: 603,
                    tag_corruptions: 604,
                    latency_spikes: 605,
                    spike_cycles_added: 606,
                    mshr_exhaustions: 607,
                    fill_bitflips: 608,
                    fill_retry_cycles: 609,
                    wakeup_drops: 610,
                    writeback_faults: 611,
                    writeback_retry_cycles: 612,
                    writebacks_dropped: 613,
                },
            },
            energy: EnergyReport {
                core_nj: 701.5,
                l1_nj: 702.25,
                l2_nj: 703.125,
                dram_nj: 704.0625,
                noc_nj: 705.5,
                compression_nj: 706.25,
                decompression_nj: 707.125,
                static_nj: 708.0625,
            },
            reports: vec![
                PolicyReport {
                    eps_in_mode: [801, 802, 803],
                },
                PolicyReport {
                    eps_in_mode: [811, 812, 813],
                },
            ],
            kernels: vec![
                KernelSummary {
                    cycles: 901,
                    eps_in_mode: [902, 903, 904],
                },
                KernelSummary {
                    cycles: 911,
                    eps_in_mode: [912, 913, 914],
                },
            ],
            shadow: Some(OracleReport {
                loads_checked: 1001,
                fills_observed: 1002,
                stores_observed: 1003,
                checkpoints: 1004,
                violations_total: 1005,
                violations: vec![
                    ShadowViolation {
                        sm: 3,
                        cycle: 1011,
                        addr: Some(LineAddr::new(0x1012)),
                        kind: ShadowViolationKind::DataIntegrity,
                        detail: "byte 7 differs".to_owned(),
                    },
                    ShadowViolation {
                        sm: 4,
                        cycle: 1021,
                        addr: None,
                        kind: ShadowViolationKind::Structural,
                        detail: "MSHR leak".to_owned(),
                    },
                ],
            }),
        }
    }

    /// Pins the encoded layout byte for byte. Any change to it makes
    /// stored records unreadable, so bump [`CODEC_VERSION`] (and
    /// [`latte_gpusim::FINGERPRINT_SCHEMA_VERSION`]) together with the
    /// constants here; a refactor of the codec must leave them alone.
    #[test]
    fn layout_is_pinned() {
        let mut result = pinned_result();
        let full = encode_outcome(&result, "[shadow] NW/Assist-Warp: 2 violation(s)\n");
        result.shadow = None;
        let bare = encode_outcome(&result, "");
        let mut fp = latte_gpusim::Fingerprinter::new();
        fp.write_bytes(&full);
        fp.write_bytes(&bare);
        assert_eq!((full.len(), bare.len()), (927, 756));
        assert_eq!(fp.finish(), 0x4d1f_e861_ea7a_f40a_8a83_a591_ec6d_57a2);
        let bench = latte_workloads::benchmark("NW").expect("NW exists");
        for bytes in [&full, &bare] {
            let (decoded, diag) =
                decode_outcome(bytes, PolicyKind::AssistWarp, &bench).expect("pinned decodes");
            assert_eq!(*bytes, encode_outcome(&decoded, &diag));
        }
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
