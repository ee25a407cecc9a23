//! Warp schedulers: Greedy-Then-Oldest (GTO) and loose round-robin (LRR).
//!
//! Each SM has two schedulers (Table II); the warp pool is split evenly
//! between them. The scheduler also measures the two quantities LATTE-CC's
//! latency-tolerance estimator needs (Eq. 4): the mean number of ready
//! warps per cycle and the mean greedy run length per schedule.

use crate::config::SchedulerKind;
use crate::warp::Warp;
use latte_compress::Cycles;

/// Fold sentinel: "no ready warp" (no real id or slice position).
const NONE: usize = usize::MAX;

/// One warp scheduler: owns a fixed slice of the SM's warps (by index) and
/// picks at most one to issue per cycle.
#[derive(Debug, Clone)]
pub struct WarpScheduler {
    kind: SchedulerKind,
    /// Indices (into the SM's warp vector) this scheduler arbitrates.
    warp_ids: Vec<usize>,
    /// The warp currently favoured by GTO greed (or the LRR rotor).
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
    /// Sum of ready-warp counts over those cycles.
    pub ready_sum: u64,
    /// Number of completed greedy runs.
    pub runs: u64,
    /// Sum of greedy run lengths.
    pub run_length_sum: u64,
}

impl WarpScheduler {
    /// Creates a scheduler arbitrating `warp_ids`.
    #[must_use]
    pub fn new(kind: SchedulerKind, warp_ids: Vec<usize>) -> WarpScheduler {
        WarpScheduler {
            kind,
            warp_ids,
            current: None,
            run_length: 0,
            ready_samples: 0,
            ready_sum: 0,
            runs_completed: 0,
            run_length_sum: 0,
        }
    }

    /// The warp indices this scheduler owns.
    #[must_use]
    pub fn warp_ids(&self) -> &[usize] {
        &self.warp_ids
    }

    /// Picks the warp to issue at `cycle`, or `None` if no owned warp is
    /// ready. Also samples the ready count for the tolerance probe.
    ///
    /// Each call makes one pass over the owned warps. GTO's greedy hit
    /// (the current warp still ready) needs only the availability count;
    /// otherwise the pass also folds the lowest ready warp id (GTO's
    /// oldest) or the first ready warp after the rotor (LRR).
    pub fn pick(&mut self, warps: &[Warp], cycle: Cycles) -> Option<usize> {
        match self.kind {
            SchedulerKind::Gto => self.pick_gto(warps, cycle),
            SchedulerKind::Lrr => self.pick_lrr(warps, cycle),
        }
    }

    fn pick_gto(&mut self, warps: &[Warp], cycle: Cycles) -> Option<usize> {
        if let Some(cur) = self.current {
            if warps[cur].is_ready(cycle) {
                self.sample(self.available(warps));
                self.run_length += 1;
                return Some(cur);
            }
        }
        let mut available = 0u64;
        let mut oldest = NONE;
        for &w in &self.warp_ids {
            let warp = &warps[w];
            available += u64::from(warp.is_available());
            oldest = oldest.min(if warp.is_ready(cycle) { w } else { NONE });
        }
        self.sample(available);
        // An unready current warp ends its greedy run.
        self.end_run();
        if oldest == NONE {
            return None;
        }
        // Oldest = lowest warp id (warps are launched in id order).
        self.current = Some(oldest);
        self.run_length = 1;
        Some(oldest)
    }

    fn pick_lrr(&mut self, warps: &[Warp], cycle: Cycles) -> Option<usize> {
        // Rotate: the next ready warp after the last issued one (its
        // first slice position), wrapping to the first ready warp.
        let rotor = self.current.unwrap_or(NONE);
        let mut available = 0u64;
        let mut first = NONE;
        let mut after_rotor = NONE;
        let mut past_rotor = false;
        for (pos, &w) in self.warp_ids.iter().enumerate() {
            let warp = &warps[w];
            let ready = warp.is_ready(cycle);
            available += u64::from(warp.is_available());
            first = first.min(if ready { pos } else { NONE });
            after_rotor = after_rotor.min(if ready && past_rotor { pos } else { NONE });
            past_rotor |= w == rotor;
        }
        self.sample(available);
        if first == NONE {
            self.end_run();
            return None;
        }
        let next = self.warp_ids[if after_rotor == NONE { first } else { after_rotor }];
        self.current = Some(next);
        self.runs_completed += 1;
        self.run_length_sum += 1;
        Some(next)
    }

    /// Number of owned warps holding execution work.
    ///
    /// The tolerance probe counts *available* warps — those holding
    /// execution work (ready or computing) rather than stalled on memory
    /// — since those are the warps whose work can hide a decompression
    /// stall.
    fn available(&self, warps: &[Warp]) -> u64 {
        self.warp_ids
            .iter()
            .filter(|&&w| warps[w].is_available())
            .count() as u64
    }

    /// Adds one cycle's availability count to the probe.
    fn sample(&mut self, available: u64) {
        self.ready_samples += 1;
        self.ready_sum += available;
    }

    /// Accounts `n` skipped (no-issue) cycles into the probe. Warps may
    /// still hold compute work during skipped cycles, so availability is
    /// sampled rather than assumed zero.
    pub fn account_idle_cycles(&mut self, n: u64, warps: &[Warp]) {
        let available = self.available(warps);
        self.ready_samples += n;
        self.ready_sum += available * n;
        self.end_run();
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
    /// a policy-specific search), kept as the reference the single-pass
    /// version must match pick for pick and probe for probe.
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
                    if warps[cur].is_ready(cycle) {
                        s.run_length += 1;
                        return Some(cur);
                    }
                    s.end_run();
                }
                let oldest = s
                    .warp_ids
                    .iter()
                    .copied()
                    .filter(|&w| warps[w].is_ready(cycle))
                    .min()?;
                s.current = Some(oldest);
                s.run_length = 1;
                Some(oldest)
            }
            SchedulerKind::Lrr => {
                let start = s
                    .current
                    .and_then(|c| s.warp_ids.iter().position(|&w| w == c))
                    .map(|p| p + 1)
                    .unwrap_or(0);
                let n = s.warp_ids.len();
                let next = (0..n)
                    .map(|i| s.warp_ids[(start + i) % n])
                    .find(|&w| warps[w].is_ready(cycle))?;
                s.current = Some(next);
                s.runs_completed += 1;
                s.run_length_sum += 1;
                Some(next)
            }
        }
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
            let mut fast = WarpScheduler::new(kind, ids.clone());
            let mut slow = WarpScheduler::new(kind, ids);
            let mut ws = warps(POOL);
            let mut cycle = 0;
            for (step, (delta, states, action)) in steps.into_iter().enumerate() {
                cycle += delta;
                for (warp, &(code, offset)) in ws.iter_mut().zip(&states) {
                    warp.state = state_at(code, offset, cycle);
                }
                match action {
                    0 => {
                        fast.account_idle_cycles(2, &ws);
                        slow.account_idle_cycles(2, &ws);
                    }
                    1 => prop_assert_eq!(fast.take_probe(), slow.take_probe(), "step {}", step),
                    _ => prop_assert_eq!(
                        fast.pick(&ws, cycle),
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
        let ws = warps(4);
        let mut s = WarpScheduler::new(SchedulerKind::Gto, vec![0, 1, 2, 3]);
        assert_eq!(s.pick(&ws, 0), Some(0));
        assert_eq!(s.pick(&ws, 1), Some(0));
        assert_eq!(s.pick(&ws, 2), Some(0));
    }

    #[test]
    fn gto_switches_to_oldest_on_stall() {
        let mut ws = warps(4);
        let mut s = WarpScheduler::new(SchedulerKind::Gto, vec![0, 1, 2, 3]);
        assert_eq!(s.pick(&ws, 0), Some(0));
        ws[0].state = WarpState::BusyUntil(100);
        ws[1].state = WarpState::BusyUntil(100);
        assert_eq!(s.pick(&ws, 1), Some(2), "oldest ready warp");
        // Warp 0 becoming ready again does not preempt the greedy run.
        ws[0].state = WarpState::Ready;
        assert_eq!(s.pick(&ws, 2), Some(2));
    }

    #[test]
    fn lrr_rotates() {
        let ws = warps(3);
        let mut s = WarpScheduler::new(SchedulerKind::Lrr, vec![0, 1, 2]);
        assert_eq!(s.pick(&ws, 0), Some(0));
        assert_eq!(s.pick(&ws, 1), Some(1));
        assert_eq!(s.pick(&ws, 2), Some(2));
        assert_eq!(s.pick(&ws, 3), Some(0));
    }

    #[test]
    fn probe_measures_runs_and_ready_counts() {
        let mut ws = warps(2);
        let mut s = WarpScheduler::new(SchedulerKind::Gto, vec![0, 1]);
        s.pick(&ws, 0);
        s.pick(&ws, 1);
        ws[0].state = WarpState::WaitingData { until: 0, pending_misses: 1 };
        s.pick(&ws, 2); // switches to warp 1, ending a run of 2
        let probe = s.take_probe();
        assert_eq!(probe.samples, 3);
        assert_eq!(probe.ready_sum, 2 + 2 + 1);
        assert_eq!(probe.runs, 2); // completed run of 2 + in-flight run of 1
        assert_eq!(probe.run_length_sum, 3);
    }

    #[test]
    fn no_ready_warps_returns_none() {
        let mut ws = warps(1);
        ws[0].state = WarpState::Finished;
        let mut s = WarpScheduler::new(SchedulerKind::Gto, vec![0]);
        assert_eq!(s.pick(&ws, 0), None);
        let probe = s.take_probe();
        assert_eq!(probe.ready_sum, 0);
        assert_eq!(probe.samples, 1);
    }

    #[test]
    fn probe_resets_after_take() {
        let ws = warps(2);
        let mut s = WarpScheduler::new(SchedulerKind::Gto, vec![0, 1]);
        s.pick(&ws, 0);
        let _ = s.take_probe();
        let probe = s.take_probe();
        assert_eq!(probe, SchedulerProbe::default());
    }
}
