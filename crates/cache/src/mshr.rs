//! Miss-status holding registers: outstanding misses to the same line are
//! merged so the memory system sees one request per line.

use crate::geometry::{LineAddr, LineMap};

/// Outcome of reserving an MSHR for a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First miss to this line: a memory request must be issued.
    Primary,
    /// A request for this line is already in flight; this miss merged.
    Merged,
    /// No MSHR entry (or merge slot) available; the access must stall and
    /// retry.
    Full,
}

/// A fixed-capacity MSHR file.
///
/// # Example
///
/// ```
/// use latte_cache::{LineAddr, Mshr, MshrOutcome};
///
/// let mut mshr = Mshr::new(2, 4);
/// let a = LineAddr::new(1);
/// assert_eq!(mshr.allocate(a), MshrOutcome::Primary);
/// assert_eq!(mshr.allocate(a), MshrOutcome::Merged);
/// mshr.release(a);
/// assert_eq!(mshr.allocate(a), MshrOutcome::Primary);
/// ```
#[derive(Debug, Clone)]
pub struct Mshr {
    entries: LineMap<u32>,
    capacity: usize,
    max_merges: u32,
    peak_used: usize,
    merged_total: u64,
}

impl Mshr {
    /// Creates an MSHR file with `capacity` entries, each able to hold
    /// `max_merges` merged requests (including the primary).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `max_merges` is zero.
    #[must_use]
    pub fn new(capacity: usize, max_merges: u32) -> Mshr {
        assert!(capacity > 0, "MSHR needs at least one entry");
        assert!(max_merges > 0, "MSHR entries need at least one slot");
        Mshr {
            entries: LineMap::default(),
            capacity,
            max_merges,
            peak_used: 0,
            merged_total: 0,
        }
    }

    /// `true` if [`Mshr::allocate`] for `addr` would succeed (as primary
    /// or merged) without changing any state.
    #[must_use]
    pub fn would_accept(&self, addr: LineAddr) -> bool {
        match self.entries.get(&addr) {
            Some(&count) => count < self.max_merges,
            None => self.entries.len() < self.capacity,
        }
    }

    /// Reserves an entry (or merge slot) for a miss to `addr`.
    pub fn allocate(&mut self, addr: LineAddr) -> MshrOutcome {
        if let Some(count) = self.entries.get_mut(&addr) {
            if *count >= self.max_merges {
                return MshrOutcome::Full;
            }
            *count += 1;
            self.merged_total += 1;
            return MshrOutcome::Merged;
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        self.entries.insert(addr, 1);
        self.peak_used = self.peak_used.max(self.entries.len());
        MshrOutcome::Primary
    }

    /// Releases the entry for `addr` when its refill returns. Releasing an
    /// address with no entry is a no-op.
    pub fn release(&mut self, addr: LineAddr) {
        self.entries.remove(&addr);
    }

    /// `true` if a request for `addr` is in flight.
    #[must_use]
    pub fn is_pending(&self, addr: LineAddr) -> bool {
        self.entries.contains_key(&addr)
    }

    /// Entries currently in use.
    #[must_use]
    pub fn used(&self) -> usize {
        self.entries.len()
    }

    /// Peak simultaneous entries.
    #[must_use]
    pub fn peak_used(&self) -> usize {
        self.peak_used
    }

    /// Total merged (secondary) misses.
    #[must_use]
    pub fn merged_total(&self) -> u64 {
        self.merged_total
    }

    /// Clears all in-flight state (kernel boundary).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Verifies the MSHR file's structural invariants without panicking:
    /// entries never exceed capacity, every entry's merge count is in
    /// `1..=max_merges`, and the peak-usage statistic is within capacity.
    /// Used by the shadow-verification checkpoints.
    ///
    /// The error message reports *how many* entries are out of bounds —
    /// an order-independent aggregate — never *which* entry, so map
    /// iteration order cannot leak into diagnostics.
    ///
    /// # Errors
    ///
    /// Returns `Err` describing the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.entries.len() > self.capacity {
            return Err(format!(
                "MSHR holds {} entries, capacity {}",
                self.entries.len(),
                self.capacity
            ));
        }
        if self.peak_used > self.capacity {
            return Err(format!(
                "MSHR peak usage {} exceeds capacity {}",
                self.peak_used, self.capacity
            ));
        }
        let out_of_bounds = self
            .entries
            // latte-lint: allow(T1, reason = "order-independent fold: filter().count() yields the same value under any iteration order")
            .values()
            .filter(|&&c| c == 0 || c > self.max_merges)
            .count();
        if out_of_bounds > 0 {
            return Err(format!(
                "{out_of_bounds} MSHR entries hold merge counts outside 1..={}",
                self.max_merges
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_then_release() {
        let mut m = Mshr::new(4, 8);
        let a = LineAddr::new(10);
        assert_eq!(m.allocate(a), MshrOutcome::Primary);
        assert_eq!(m.allocate(a), MshrOutcome::Merged);
        assert!(m.is_pending(a));
        m.release(a);
        assert!(!m.is_pending(a));
        assert_eq!(m.merged_total(), 1);
    }

    #[test]
    fn capacity_limit() {
        let mut m = Mshr::new(2, 8);
        assert_eq!(m.allocate(LineAddr::new(1)), MshrOutcome::Primary);
        assert_eq!(m.allocate(LineAddr::new(2)), MshrOutcome::Primary);
        assert_eq!(m.allocate(LineAddr::new(3)), MshrOutcome::Full);
        // Merging into an existing entry still works when full.
        assert_eq!(m.allocate(LineAddr::new(1)), MshrOutcome::Merged);
        assert_eq!(m.peak_used(), 2);
    }

    #[test]
    fn merge_limit() {
        let mut m = Mshr::new(2, 2);
        let a = LineAddr::new(5);
        assert_eq!(m.allocate(a), MshrOutcome::Primary);
        assert_eq!(m.allocate(a), MshrOutcome::Merged);
        assert_eq!(m.allocate(a), MshrOutcome::Full);
    }

    #[test]
    fn release_unknown_is_noop() {
        let mut m = Mshr::new(1, 1);
        m.release(LineAddr::new(99));
        assert_eq!(m.used(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = Mshr::new(0, 1);
    }

    #[test]
    fn validate_accepts_live_state_and_bounds() {
        let mut m = Mshr::new(4, 2);
        for i in 0..4 {
            assert_eq!(m.allocate(LineAddr::new(i)), MshrOutcome::Primary);
        }
        assert_eq!(m.allocate(LineAddr::new(0)), MshrOutcome::Merged);
        assert_eq!(m.validate(), Ok(()));
        m.release(LineAddr::new(2));
        assert_eq!(m.validate(), Ok(()));
        m.flush();
        assert_eq!(m.validate(), Ok(()));
    }

    #[test]
    fn validate_flags_corrupted_merge_counts() {
        let mut m = Mshr::new(4, 2);
        m.allocate(LineAddr::new(1));
        // Corrupt the internal state directly — no public API can produce
        // this, which is exactly what validate() is for.
        if let Some(c) = m.entries.get_mut(&LineAddr::new(1)) {
            *c = 99;
        }
        let err = m.validate().expect_err("merge count 99 must fail");
        assert!(err.contains("merge counts"), "{err}");
    }

    #[test]
    fn iteration_order_cannot_leak() {
        // Backs the `LineMap` keyed-access audit: every observable output
        // of an MSHR filled in two different insertion orders must be
        // identical, because no API iterates the underlying map. If
        // someone adds an iterating accessor, this test is the reminder
        // to make it order-stable (and to re-audit `LineMap`).
        let addrs: Vec<LineAddr> = (0..32).map(|i| LineAddr::new(i * 7 + 1)).collect();
        let mut fwd = Mshr::new(64, 4);
        for &a in &addrs {
            fwd.allocate(a);
        }
        let mut rev = Mshr::new(64, 4);
        for &a in addrs.iter().rev() {
            rev.allocate(a);
        }
        assert_eq!(fwd.used(), rev.used());
        assert_eq!(fwd.peak_used(), rev.peak_used());
        assert_eq!(fwd.merged_total(), rev.merged_total());
        for &a in &addrs {
            assert_eq!(fwd.is_pending(a), rev.is_pending(a));
            assert_eq!(fwd.would_accept(a), rev.would_accept(a));
        }
    }
}
