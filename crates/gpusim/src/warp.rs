//! Warp state tracking.

use crate::ops::OpStream;
use latte_compress::Cycles;

/// Execution state of one warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// Can issue this cycle.
    Ready,
    /// Busy (compute latency or a cache-hit round trip) until the given
    /// cycle.
    BusyUntil(Cycles),
    /// Blocked at a load join point: ready once `pending_misses` refills
    /// have arrived *and* the clock reaches `until` (hit data in flight).
    WaitingData {
        /// Cycle at which all in-flight hit data is available.
        until: Cycles,
        /// Refills still outstanding.
        pending_misses: u32,
    },
    /// Parked at a block-wide barrier since the given cycle.
    AtBarrier(Cycles),
    /// Program finished.
    Finished,
}

/// One warp: its instruction stream plus scheduling state.
pub struct Warp {
    /// Warp index within the SM.
    pub id: usize,
    /// Thread-block index (barrier scope).
    pub block: usize,
    stream: Box<dyn OpStream>,
    /// An op handed back by [`Warp::unfetch`] (e.g. on an MSHR stall),
    /// replayed by the next fetch.
    pushback: Option<crate::ops::Op>,
    /// Async-load misses issued but not yet returned (while running).
    pub outstanding_misses: u32,
    /// Latest completion time of in-flight async-load hits.
    pub data_ready_at: Cycles,
    /// Current state. Written only by the SM's state setter, which keeps
    /// the owning scheduler's readiness table in step; read it through
    /// [`Warp::state`].
    pub(crate) state: WarpState,
    /// Instructions issued so far.
    pub instructions: u64,
}

impl Warp {
    /// Creates a ready warp over `stream`.
    #[must_use]
    pub fn new(id: usize, block: usize, stream: Box<dyn OpStream>) -> Warp {
        Warp {
            id,
            block,
            stream,
            pushback: None,
            outstanding_misses: 0,
            data_ready_at: 0,
            state: WarpState::Ready,
            instructions: 0,
        }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> WarpState {
        self.state
    }

    /// `true` when the warp can issue at `cycle`. A `BusyUntil` warp whose
    /// deadline passed counts as ready (the transition is lazy).
    #[must_use]
    pub fn is_ready(&self, cycle: Cycles) -> bool {
        match self.state {
            WarpState::Ready => true,
            WarpState::BusyUntil(until) => until <= cycle,
            WarpState::WaitingData {
                until,
                pending_misses,
            } => pending_misses == 0 && until <= cycle,
            _ => false,
        }
    }

    /// `true` while the warp has execution work (issuable now or busy with
    /// compute) rather than being stalled on memory, a barrier, or done.
    /// This is the "available warp" of the Eq. (4) latency-tolerance
    /// estimate: such warps can absorb another warp's decompression stall.
    #[must_use]
    pub fn is_available(&self) -> bool {
        matches!(self.state, WarpState::Ready | WarpState::BusyUntil(_))
    }

    /// `true` once the warp executed its final op.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.state == WarpState::Finished
    }

    /// Pulls the next op from the stream, counting it as issued.
    pub fn fetch_op(&mut self) -> crate::ops::Op {
        self.instructions += 1;
        match self.pushback.take() {
            Some(op) => op,
            None => self.stream.next_op(),
        }
    }

    /// Hands an op back after a structural stall (MSHR full): the issue is
    /// rolled back and the op is replayed on the next fetch.
    pub fn unfetch(&mut self, op: crate::ops::Op) {
        debug_assert!(self.pushback.is_none(), "double unfetch");
        self.instructions -= 1;
        self.pushback = Some(op);
    }
}

impl std::fmt::Debug for Warp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Warp")
            .field("id", &self.id)
            .field("block", &self.block)
            .field("state", &self.state)
            .field("instructions", &self.instructions)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Op, VecStream};

    #[test]
    fn readiness_transitions() {
        let mut w = Warp::new(0, 0, Box::new(VecStream::new(vec![])));
        assert!(w.is_ready(0));
        w.state = WarpState::BusyUntil(10);
        assert!(!w.is_ready(9));
        assert!(w.is_ready(10));
        w.state = WarpState::WaitingData { until: 0, pending_misses: 1 };
        assert!(!w.is_ready(100));
        w.state = WarpState::WaitingData { until: 50, pending_misses: 0 };
        assert!(!w.is_ready(49));
        assert!(w.is_ready(50));
        w.state = WarpState::Finished;
        assert!(!w.is_ready(100));
        assert!(w.is_finished());
    }

    #[test]
    fn fetch_counts_instructions() {
        let mut w = Warp::new(0, 0, Box::new(VecStream::new(vec![Op::Barrier])));
        assert_eq!(w.fetch_op(), Op::Barrier);
        assert_eq!(w.fetch_op(), Op::Exit);
        assert_eq!(w.instructions, 2);
    }
}
