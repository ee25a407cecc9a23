//! Warp schedulers: Greedy-Then-Oldest (GTO) and loose round-robin (LRR).
//!
//! Each SM has two schedulers (Table II); the warp pool is split evenly
//! between them. The scheduler also measures the two quantities LATTE-CC's
//! latency-tolerance estimator needs (Eq. 4): the mean number of
//! available warps per cycle and the mean greedy run length per schedule.
//!
//! A scheduler never reads the warps themselves. It keeps a readiness
//! table, one slot per owned warp, that the SM updates on every warp
//! state change ([`WarpScheduler::on_state_change`]): the cycle from
//! which the slot's warp can issue, plus maintained counts of available
//! and finished warps. A pick compares cycles in that table; the probe
//! sample reads the count.

use crate::config::SchedulerKind;
use crate::warp::{Warp, WarpState};
use latte_compress::Cycles;

/// One warp scheduler: owns a fixed set of the SM's warps (by index) and
/// picks at most one to issue per cycle.
#[derive(Debug, Clone)]
pub struct WarpScheduler {
    kind: SchedulerKind,
    /// Indices (into the SM's warp vector) this scheduler arbitrates, in
    /// ascending (launch) order; slot `i` of the tables is `warp_ids[i]`.
    warp_ids: Vec<usize>,
    /// Per slot: the cycle from which the warp can issue (`Cycles::MAX`
    /// while it waits on misses, sits at a barrier or has finished).
    ready_at: Vec<Cycles>,
    /// Owned warps holding execution work (Ready or BusyUntil).
    available: u64,
    /// Owned warps that executed their final op.
    finished: usize,
    /// The slot currently favoured by GTO greed (or the LRR rotor).
    current: Option<usize>,
    /// Length of the current greedy run, in issues.
    run_length: u64,
    /// Probe accumulators (reset each EP).
    ready_samples: u64,
    ready_sum: u64,
    runs_completed: u64,
    run_length_sum: u64,
}

/// Probe counters extracted at an EP boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerProbe {
    /// Number of cycles sampled.
    pub samples: u64,
    /// Sum of available-warp counts over those cycles.
    pub ready_sum: u64,
    /// Number of completed greedy runs.
    pub runs: u64,
    /// Sum of greedy run lengths.
    pub run_length_sum: u64,
}

/// A warp state's readiness-table entry: the cycle from which the warp
/// can issue, and whether it is *available* — holding execution work
/// (issuable now or busy with compute) rather than stalled on memory, a
/// barrier, or done. Available warps are the Eq. (4) latency-tolerance
/// count: their work can hide another warp's decompression stall.
fn table_entry(state: WarpState) -> (Cycles, bool) {
    match state {
        WarpState::Ready => (0, true),
        WarpState::BusyUntil(until) => (until, true),
        WarpState::WaitingData {
            until,
            pending_misses: 0,
        } => (until, false),
        WarpState::WaitingData { .. } | WarpState::AtBarrier(_) | WarpState::Finished => {
            (Cycles::MAX, false)
        }
    }
}

impl WarpScheduler {
    /// Creates a scheduler arbitrating `warp_ids`, all of them
    /// [`WarpState::Ready`] (as [`Warp::new`] creates them). The ids are
    /// kept in ascending order: slot `i` is the `i`-th smallest id.
    #[must_use]
    pub fn new(kind: SchedulerKind, mut warp_ids: Vec<usize>) -> WarpScheduler {
        warp_ids.sort_unstable();
        let n = warp_ids.len();
        WarpScheduler {
            kind,
            warp_ids,
            ready_at: vec![0; n],
            available: n as u64,
            finished: 0,
            current: None,
            run_length: 0,
            ready_samples: 0,
            ready_sum: 0,
            runs_completed: 0,
            run_length_sum: 0,
        }
    }

    /// The warp indices this scheduler owns, in slot order.
    #[must_use]
    pub fn warp_ids(&self) -> &[usize] {
        &self.warp_ids
    }

    /// Records that the warp in `slot` changed from state `from` to
    /// `to`. Every state change of an owned warp must be reported here,
    /// in order; the SM does so through its single state setter.
    pub fn on_state_change(&mut self, slot: usize, from: WarpState, to: WarpState) {
        let (ready_at, available) = table_entry(to);
        self.ready_at[slot] = ready_at;
        self.available = self.available + u64::from(available) - u64::from(table_entry(from).1);
        self.finished = self.finished + usize::from(to == WarpState::Finished)
            - usize::from(from == WarpState::Finished);
    }

    /// Picks the warp to issue at `cycle`, or `None` if no owned warp is
    /// ready. Also samples the available count for the tolerance probe.
    ///
    /// GTO's greedy hit (the current warp still ready) is one table read;
    /// otherwise GTO takes the first ready slot (the oldest warp, since
    /// slots are in launch order) and LRR the first ready slot after the
    /// rotor, wrapping around.
    pub fn pick(&mut self, cycle: Cycles) -> Option<usize> {
        self.sample(1);
        let slot = match self.kind {
            SchedulerKind::Gto => self.pick_gto(cycle),
            SchedulerKind::Lrr => self.pick_lrr(cycle),
        };
        slot.map(|slot| self.warp_ids[slot])
    }

    fn pick_gto(&mut self, cycle: Cycles) -> Option<usize> {
        if let Some(cur) = self.current {
            if self.ready_at[cur] <= cycle {
                self.run_length += 1;
                return Some(cur);
            }
        }
        // An unready current warp ends its greedy run.
        self.end_run();
        let oldest = self.ready_at.iter().position(|&at| at <= cycle)?;
        self.current = Some(oldest);
        self.run_length = 1;
        Some(oldest)
    }

    fn pick_lrr(&mut self, cycle: Cycles) -> Option<usize> {
        // Rotate: the next ready slot after the last issued one,
        // wrapping to the first ready slot.
        let start = self.current.map_or(0, |rotor| rotor + 1);
        let (before, after) = self.ready_at.split_at(start);
        let ready = |at: &Cycles| *at <= cycle;
        let Some(next) = after
            .iter()
            .position(ready)
            .map(|p| start + p)
            .or_else(|| before.iter().position(ready))
        else {
            self.end_run();
            return None;
        };
        self.current = Some(next);
        self.runs_completed += 1;
        self.run_length_sum += 1;
        Some(next)
    }

    /// Adds `n` cycles at the current available count to the probe.
    fn sample(&mut self, n: u64) {
        self.ready_samples += n;
        self.ready_sum += self.available * n;
    }

    /// Accounts `n` skipped (no-issue) cycles into the probe. Warps may
    /// still hold compute work during skipped cycles, so availability is
    /// sampled rather than assumed zero.
    pub fn account_idle_cycles(&mut self, n: u64) {
        self.sample(n);
        self.end_run();
    }

    /// Earliest cycle at which an owned warp can issue, or `None` when
    /// every owned warp waits on misses, sits at a barrier or finished.
    pub(crate) fn next_wake(&self) -> Option<Cycles> {
        self.ready_at
            .iter()
            .copied()
            .min()
            .filter(|&at| at != Cycles::MAX)
    }

    /// `true` once every owned warp executed its final op.
    pub(crate) fn all_finished(&self) -> bool {
        self.finished == self.warp_ids.len()
    }

    /// Checks the readiness table against the owned warps' states: each
    /// slot's ready cycle and both counts must be what the states imply.
    /// A mismatch means a state change bypassed
    /// [`WarpScheduler::on_state_change`].
    pub(crate) fn validate(&self, warps: &[Warp]) -> Result<(), String> {
        let mut available = 0;
        let mut finished = 0;
        for (slot, (&w, &ready_at)) in self.warp_ids.iter().zip(&self.ready_at).enumerate() {
            let Some(warp) = warps.get(w) else {
                return Err(format!("slot {slot} names warp {w}, beyond the pool"));
            };
            let (expected, is_available) = table_entry(warp.state);
            if ready_at != expected {
                return Err(format!(
                    "slot {slot} (warp {w}) ready at {ready_at}, but {:?} implies {expected}",
                    warp.state
                ));
            }
            available += u64::from(is_available);
            finished += usize::from(warp.state == WarpState::Finished);
        }
        if available != self.available {
            return Err(format!(
                "available count {} but {available} owned warps are available",
                self.available
            ));
        }
        if finished != self.finished {
            return Err(format!(
                "finished count {} but {finished} owned warps finished",
                self.finished
            ));
        }
        Ok(())
    }

    /// Reads and resets the probe accumulators.
    pub fn take_probe(&mut self) -> SchedulerProbe {
        // Count the in-flight greedy run so long runs are not invisible.
        let probe = SchedulerProbe {
            samples: self.ready_samples,
            ready_sum: self.ready_sum,
            runs: self.runs_completed + u64::from(self.run_length > 0),
            run_length_sum: self.run_length_sum + self.run_length,
        };
        self.ready_samples = 0;
        self.ready_sum = 0;
        self.runs_completed = 0;
        self.run_length_sum = 0;
        // The greedy run itself continues (the current warp stays
        // favoured), but the issues seen so far were attributed to this
        // probe window; start counting afresh for the next one.
        self.run_length = 0;
        probe
    }

    fn end_run(&mut self) {
        if self.run_length > 0 {
            self.runs_completed += 1;
            self.run_length_sum += self.run_length;
            self.run_length = 0;
        }
        if self.kind == SchedulerKind::Gto {
            self.current = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Op, VecStream};
    use crate::warp::{Warp, WarpState};
    use proptest::prelude::*;

    /// The original three-pass `pick` (available count, ready count, then
    /// a policy-specific search) over the `Warp`s themselves, kept as the
    /// reference the table-driven version must match pick for pick and
    /// probe for probe. It never reads the readiness table.
    fn reference_pick(s: &mut WarpScheduler, warps: &[Warp], cycle: Cycles) -> Option<usize> {
        let available = s
            .warp_ids
            .iter()
            .filter(|&&w| warps[w].is_available())
            .count() as u64;
        s.ready_samples += 1;
        s.ready_sum += available;
        let ready = s
            .warp_ids
            .iter()
            .filter(|&&w| warps[w].is_ready(cycle))
            .count() as u64;
        if ready == 0 {
            s.end_run();
            return None;
        }
        match s.kind {
            SchedulerKind::Gto => {
                if let Some(cur) = s.current {
                    if warps[s.warp_ids[cur]].is_ready(cycle) {
                        s.run_length += 1;
                        return Some(s.warp_ids[cur]);
                    }
                    s.end_run();
                }
                let oldest = s
                    .warp_ids
                    .iter()
                    .copied()
                    .filter(|&w| warps[w].is_ready(cycle))
                    .min()?;
                s.current = s.warp_ids.iter().position(|&w| w == oldest);
                s.run_length = 1;
                Some(oldest)
            }
            SchedulerKind::Lrr => {
                let start = s.current.map_or(0, |p| p + 1);
                let n = s.warp_ids.len();
                let next = (0..n)
                    .map(|i| (start + i) % n)
                    .find(|&p| warps[s.warp_ids[p]].is_ready(cycle))?;
                s.current = Some(next);
                s.runs_completed += 1;
                s.run_length_sum += 1;
                Some(s.warp_ids[next])
            }
        }
    }

    /// The original `account_idle_cycles`, counting available warps.
    fn reference_idle(s: &mut WarpScheduler, warps: &[Warp], n: u64) {
        let available = s
            .warp_ids
            .iter()
            .filter(|&&w| warps[w].is_available())
            .count() as u64;
        s.ready_samples += n;
        s.ready_sum += available * n;
        s.end_run();
    }

    /// The original warp-scanning `Sm::next_wake`, over owned warps.
    fn reference_next_wake(s: &WarpScheduler, warps: &[Warp]) -> Option<Cycles> {
        s.warp_ids
            .iter()
            .filter_map(|&w| match warps[w].state {
                WarpState::BusyUntil(u) => Some(u),
                WarpState::Ready => Some(0),
                WarpState::WaitingData {
                    until,
                    pending_misses: 0,
                } => Some(until),
                _ => None,
            })
            .min()
    }

    /// A warp state relative to `cycle`, covering every `is_ready` /
    /// `is_available` combination (past, present and future deadlines).
    fn state_at(code: u8, offset: u64, cycle: Cycles) -> WarpState {
        let at = (cycle + offset).saturating_sub(1);
        match code {
            0 => WarpState::Ready,
            1 => WarpState::BusyUntil(at),
            2 => WarpState::WaitingData {
                until: at,
                pending_misses: (offset % 2) as u32,
            },
            3 => WarpState::AtBarrier(cycle),
            _ => WarpState::Finished,
        }
    }

    const POOL: usize = 12;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn single_pass_pick_matches_three_pass_reference(
            gto in any::<bool>(),
            owned in prop::collection::vec(0usize..POOL, 1..POOL),
            steps in prop::collection::vec(
                (0u64..3, prop::collection::vec((0u8..5, 0u64..4), POOL), 0u8..8),
                1..60,
            ),
        ) {
            // A distinct subset of the pool, in arbitrary order.
            let mut ids: Vec<usize> = Vec::new();
            for w in owned {
                if !ids.contains(&w) {
                    ids.push(w);
                }
            }
            let kind = if gto { SchedulerKind::Gto } else { SchedulerKind::Lrr };
            // `fast` learns of state changes only through its
            // notification path; `slow` is driven by the reference
            // functions, which read the warps. Both are notified, so
            // their whole state (tables included) must stay equal.
            let mut fast = WarpScheduler::new(kind, ids.clone());
            let mut slow = WarpScheduler::new(kind, ids);
            let mut ws = warps(POOL);
            let mut cycle = 0;
            for (step, (delta, states, action)) in steps.into_iter().enumerate() {
                cycle += delta;
                for (w, &(code, offset)) in states.iter().enumerate() {
                    let to = state_at(code, offset, cycle);
                    let from = std::mem::replace(&mut ws[w].state, to);
                    if let Some(slot) = fast.warp_ids().iter().position(|&id| id == w) {
                        fast.on_state_change(slot, from, to);
                        slow.on_state_change(slot, from, to);
                    }
                }
                prop_assert_eq!(fast.validate(&ws), Ok(()), "table at step {}", step);
                prop_assert_eq!(
                    fast.next_wake(),
                    reference_next_wake(&slow, &ws),
                    "next wake at step {}",
                    step
                );
                prop_assert_eq!(
                    fast.all_finished(),
                    slow.warp_ids.iter().all(|&w| ws[w].is_finished()),
                    "finished at step {}",
                    step
                );
                match action {
                    0 => {
                        fast.account_idle_cycles(2);
                        reference_idle(&mut slow, &ws, 2);
                    }
                    1 => prop_assert_eq!(fast.take_probe(), slow.take_probe(), "step {}", step),
                    _ => prop_assert_eq!(
                        fast.pick(cycle),
                        reference_pick(&mut slow, &ws, cycle),
                        "step {}",
                        step
                    ),
                }
                // The probe as it would read now, without resetting the
                // accumulators the next steps build on.
                prop_assert_eq!(
                    fast.clone().take_probe(),
                    slow.clone().take_probe(),
                    "probe at step {}",
                    step
                );
                prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "state at step {}", step);
            }
        }
    }

    fn warps(n: usize) -> Vec<Warp> {
        (0..n)
            .map(|i| Warp::new(i, 0, Box::new(VecStream::new(vec![Op::Exit])) as Box<_>))
            .collect()
    }

    #[test]
    fn gto_sticks_with_current_warp() {
        let mut s = WarpScheduler::new(SchedulerKind::Gto, vec![0, 1, 2, 3]);
        assert_eq!(s.pick(0), Some(0));
        assert_eq!(s.pick(1), Some(0));
        assert_eq!(s.pick(2), Some(0));
    }

    #[test]
    fn gto_switches_to_oldest_on_stall() {
        let mut s = WarpScheduler::new(SchedulerKind::Gto, vec![0, 1, 2, 3]);
        assert_eq!(s.pick(0), Some(0));
        s.on_state_change(0, WarpState::Ready, WarpState::BusyUntil(100));
        s.on_state_change(1, WarpState::Ready, WarpState::BusyUntil(100));
        assert_eq!(s.pick(1), Some(2), "oldest ready warp");
        // Warp 0 becoming ready again does not preempt the greedy run.
        s.on_state_change(0, WarpState::BusyUntil(100), WarpState::Ready);
        assert_eq!(s.pick(2), Some(2));
    }

    #[test]
    fn lrr_rotates() {
        let mut s = WarpScheduler::new(SchedulerKind::Lrr, vec![0, 1, 2]);
        assert_eq!(s.pick(0), Some(0));
        assert_eq!(s.pick(1), Some(1));
        assert_eq!(s.pick(2), Some(2));
        assert_eq!(s.pick(3), Some(0));
    }

    #[test]
    fn slots_map_to_owned_warp_ids() {
        // The odd half of a pool: slot i is warp 2i + 1.
        let mut s = WarpScheduler::new(SchedulerKind::Gto, vec![5, 1, 3]);
        assert_eq!(s.warp_ids(), &[1, 3, 5]);
        s.on_state_change(0, WarpState::Ready, WarpState::AtBarrier(0));
        assert_eq!(s.pick(0), Some(3));
    }

    #[test]
    fn probe_measures_runs_and_ready_counts() {
        let mut s = WarpScheduler::new(SchedulerKind::Gto, vec![0, 1]);
        s.pick(0);
        s.pick(1);
        let waiting = WarpState::WaitingData {
            until: 0,
            pending_misses: 1,
        };
        s.on_state_change(0, WarpState::Ready, waiting);
        s.pick(2); // switches to warp 1, ending a run of 2
        let probe = s.take_probe();
        assert_eq!(probe.samples, 3);
        assert_eq!(probe.ready_sum, 2 + 2 + 1);
        assert_eq!(probe.runs, 2); // completed run of 2 + in-flight run of 1
        assert_eq!(probe.run_length_sum, 3);
    }

    #[test]
    fn no_ready_warps_returns_none() {
        let mut s = WarpScheduler::new(SchedulerKind::Gto, vec![0]);
        s.on_state_change(0, WarpState::Ready, WarpState::Finished);
        assert!(s.all_finished());
        assert_eq!(s.next_wake(), None);
        assert_eq!(s.pick(0), None);
        let probe = s.take_probe();
        assert_eq!(probe.ready_sum, 0);
        assert_eq!(probe.samples, 1);
    }

    #[test]
    fn probe_resets_after_take() {
        let mut s = WarpScheduler::new(SchedulerKind::Gto, vec![0, 1]);
        s.pick(0);
        let _ = s.take_probe();
        let probe = s.take_probe();
        assert_eq!(probe, SchedulerProbe::default());
    }

    #[test]
    fn validate_reports_a_stale_slot() {
        let mut ws = warps(2);
        let mut s = WarpScheduler::new(SchedulerKind::Gto, vec![0, 1]);
        assert_eq!(s.validate(&ws), Ok(()));
        // A state change the table never heard of.
        ws[1].state = WarpState::BusyUntil(9);
        let err = s.validate(&ws).unwrap_err();
        assert!(err.contains("slot 1 (warp 1) ready at 0"), "{err}");
        // A notification that got the old state wrong skews the counts.
        s.on_state_change(1, WarpState::Ready, WarpState::BusyUntil(9));
        s.on_state_change(0, WarpState::AtBarrier(0), WarpState::Ready);
        let err = s.validate(&ws).unwrap_err();
        assert!(err.starts_with("available count 3"), "{err}");
    }
}
