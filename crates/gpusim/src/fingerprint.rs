//! Deterministic structural fingerprints for configuration types.
//!
//! The bench harness memoizes simulations keyed by *what would be
//! simulated*: (policy, benchmark, machine configuration). The
//! configuration part of that key is a 128-bit fingerprint computed
//! here. Unlike `std::hash::Hash`, the result is stable across
//! processes and runs (no per-process `RandomState`), so equal configs
//! always produce equal keys — the property the memo cache's
//! "each unique simulation runs exactly once" contract rests on.
//!
//! The fingerprint folds every field through two independent mixing
//! functions (FNV-1a and a splitmix64-style avalanche over a second
//! accumulator) and concatenates the two 64-bit states. Collisions
//! between *different* configs would silently alias two simulations, so
//! the 128-bit width and the field-tagging discipline below err on the
//! side of paranoia: every write is preceded by nothing, but every
//! `Option` writes a presence tag so `Some(0)` and `None` differ, and
//! floats are folded via their IEEE-754 bit patterns so `-0.0`/`0.0`
//! and NaN payloads are distinguished rather than conflated.

/// Version of the fingerprint *schema*: the set and order of fields the
/// simulation key folds, plus the serialized-result layout persistent
/// stores key on. Bump this whenever a change makes previously computed
/// results incomparable with fresh ones — a new config field entering
/// the fingerprint, a semantic change to an existing field, or a change
/// to the on-disk result encoding. Keys salted with different schema
/// versions never collide, so a persistent result store written by an
/// older build simply misses (and re-records) instead of serving stale
/// results under a new meaning.
pub const FINGERPRINT_SCHEMA_VERSION: u64 = 3;

/// Accumulates a stable 128-bit fingerprint from a stream of typed
/// field writes.
///
/// # Example
///
/// ```
/// use latte_gpusim::Fingerprinter;
///
/// let mut a = Fingerprinter::new();
/// a.write_u64(1);
/// a.write_bool(true);
/// let mut b = Fingerprinter::new();
/// b.write_u64(1);
/// b.write_bool(true);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    fnv: u64,
    mix: u64,
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// splitmix64 finalizer: a full-avalanche bijection on u64.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Fingerprinter {
    /// A fresh fingerprinter with fixed initial state.
    #[must_use]
    pub fn new() -> Fingerprinter {
        Fingerprinter {
            fnv: FNV_OFFSET,
            mix: 0x5851_f42d_4c95_7f2d,
        }
    }

    /// A fingerprinter pre-seeded with [`FINGERPRINT_SCHEMA_VERSION`]
    /// and a caller-chosen domain string. Keys derived through different
    /// domains (or different schema versions) live in disjoint key
    /// spaces, which is what lets a persistent store mix record
    /// generations in one directory without ever aliasing them.
    #[must_use]
    pub fn salted(domain: &str) -> Fingerprinter {
        let mut fp = Fingerprinter::new();
        fp.write_u64(FINGERPRINT_SCHEMA_VERSION);
        fp.write_str(domain);
        fp
    }

    /// Folds one 64-bit value into both accumulators.
    pub fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.fnv = (self.fnv ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        self.mix = splitmix(self.mix ^ v);
    }

    /// Folds a `usize` (widened so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    /// Folds a bool as a full word so adjacent bools cannot merge.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u64(u64::from(v));
    }

    /// Folds a byte string, length-prefixed so `("ab", "c")` and
    /// `("a", "bc")` written back-to-back cannot collide.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// Folds a string ([`Fingerprinter::write_bytes`] of its UTF-8).
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Folds an `f64` via its exact bit pattern (`-0.0 != 0.0`, NaN
    /// payloads preserved) — equal-valued configs hash equal, nothing
    /// more is promised for floats.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The final 128-bit fingerprint.
    #[must_use]
    pub fn finish(&self) -> u128 {
        // One extra avalanche round so trailing writes affect high bits.
        (u128::from(splitmix(self.fnv)) << 64) | u128::from(splitmix(self.mix))
    }
}

impl Default for Fingerprinter {
    fn default() -> Fingerprinter {
        Fingerprinter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn salted_domains_are_disjoint() {
        let a = Fingerprinter::salted("store/a").finish();
        let b = Fingerprinter::salted("store/b").finish();
        let plain = Fingerprinter::new().finish();
        assert_ne!(a, b);
        assert_ne!(a, plain);
        // Same domain => same starting state.
        assert_eq!(a, Fingerprinter::salted("store/a").finish());
    }

    #[test]
    fn equal_streams_agree_and_order_matters() {
        let mut a = Fingerprinter::new();
        a.write_u64(7);
        a.write_u64(9);
        let mut b = Fingerprinter::new();
        b.write_u64(7);
        b.write_u64(9);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fingerprinter::new();
        c.write_u64(9);
        c.write_u64(7);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn float_sign_of_zero_is_significant() {
        let mut pos = Fingerprinter::new();
        pos.write_f64(0.0);
        let mut neg = Fingerprinter::new();
        neg.write_f64(-0.0);
        assert_ne!(pos.finish(), neg.finish());
    }

    #[test]
    fn byte_strings_are_length_prefixed() {
        let mut a = Fingerprinter::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fingerprinter::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
        let mut c = Fingerprinter::new();
        c.write_str("ab");
        c.write_str("c");
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn single_bit_flips_change_the_fingerprint() {
        let mut base = Fingerprinter::new();
        base.write_u64(0);
        let base = base.finish();
        for bit in 0..64 {
            let mut f = Fingerprinter::new();
            f.write_u64(1u64 << bit);
            assert_ne!(f.finish(), base, "bit {bit}");
        }
    }
}
