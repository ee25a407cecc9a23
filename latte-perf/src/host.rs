//! Host-speed calibration.
//!
//! On a shared host the machine's speed drifts by ±20% over tens of
//! seconds with co-tenant load, and every host time of a run moves with
//! it, however long the run or whatever statistic is taken inside it. So a
//! run interleaves short calibration bursts (a fixed amount of work in
//! this file's own code, which no change to the simulator touches) with
//! what it measures, and reports each time scaled by
//! [`REFERENCE_BURST_S`] over the median burst measured beside it: the
//! time the work would take on a host where one burst takes
//! [`REFERENCE_BURST_S`].
//!
//! A burst does the kinds of work a simulation does, so that it slows
//! down with the host as a simulation does: tag lookups in a toy
//! set-associative cache, a branch on hit or miss, a heap of pending
//! fills, bit arithmetic that sizes a missed line as a compressor would,
//! and a sort. (A burst of random memory accesses alone tracked the host
//! about half as well: it slows down more than a simulation when the
//! host is busy.)

use crate::metrics::ratio;
use crate::stats::median;
use latte_bench::timing::Stopwatch;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// Seconds one burst takes on the reference host. A round number of the
/// order of one burst on the 2-vCPU host the README's measurements come
/// from (6–8 ms), so reported times are of the order of its wall-clock
/// times.
pub const REFERENCE_BURST_S: f64 = 0.006;

/// Ways per set of the toy cache.
const WAYS: usize = 8;
/// The toy cache's `tag << 16 | age` words, 0 when empty (512 KiB).
const TAG_WORDS: usize = 1 << 16;
/// Lines whose contents a miss sizes (512 KiB).
const LINES: usize = 4096;
/// Keys of the sort (128 KiB).
const KEYS: usize = 1 << 15;
/// Room for the pending fills, which stay under 200.
const EVENTS: usize = 256;
/// Cache accesses and sorts per burst.
const ACCESSES: u32 = 70_000;
const SORTS: u32 = 3;

/// One thread's working memory, allocated once.
#[derive(Debug)]
struct Arena {
    tags: Vec<u64>,
    lines: Vec<[u64; 16]>,
    events: BinaryHeap<Reverse<u64>>,
    keys: Vec<u32>,
}

impl Arena {
    fn new() -> Arena {
        Arena {
            tags: vec![0; TAG_WORDS],
            lines: (0..LINES as u64).map(line_contents).collect(),
            events: BinaryHeap::with_capacity(EVENTS),
            keys: vec![0; KEYS],
        }
    }

    fn bytes(&self) -> usize {
        self.tags.len() * 8
            + self.lines.len() * 128
            + self.keys.len() * 4
            + self.events.capacity() * 8
    }

    /// The same work on every call.
    fn burst(&mut self) -> u64 {
        self.cache() ^ self.sort()
    }

    fn cache(&mut self) -> u64 {
        self.tags.fill(0);
        self.events.clear();
        let sets = (self.tags.len() / WAYS) as u64;
        let mut x = SEED;
        let (mut now, mut hits, mut bits) = (0u64, 0u64, 0u64);
        for step in 0..ACCESSES {
            x = xorshift(x);
            // Three accesses in four fall near a base that moves on every
            // 64 steps; the rest anywhere.
            let addr = if x & 3 != 0 {
                u64::from(step / 64) * 64 + (x >> 8) % 4096
            } else {
                x >> 20
            };
            let line = addr >> 2;
            let set = (line % sets) as usize;
            let tag = line / sets + 1;
            let stamp = tag << 16 | (now & 0xffff);
            let ways = &mut self.tags[set * WAYS..(set + 1) * WAYS];
            if let Some(way) = ways.iter().position(|&t| t >> 16 == tag) {
                hits += 1;
                ways[way] = stamp;
            } else {
                let lru = (0..WAYS).min_by_key(|&w| ways[w] & 0xffff).unwrap_or(0);
                ways[lru] = stamp;
                bits += size_bits(&self.lines[line as usize % LINES]);
                self.events.push(Reverse(now + 100 + (x & 63)));
            }
            while self.events.peek().is_some_and(|Reverse(t)| *t <= now) {
                self.events.pop();
            }
            now += 1 + u64::from(self.events.len() > 32);
        }
        hits ^ bits
    }

    fn sort(&mut self) -> u64 {
        let mut x = SEED;
        let mut acc = 0;
        for _ in 0..SORTS {
            for key in &mut self.keys {
                x = xorshift(x);
                *key = x as u32;
            }
            self.keys.sort_unstable();
            acc ^= u64::from(self.keys[KEYS / 2]);
        }
        acc
    }
}

const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// A line's words: one line in four a base plus small steps, the rest
/// pseudo-random.
fn line_contents(i: u64) -> [u64; 16] {
    let mut x = xorshift(SEED ^ (i + 1));
    std::array::from_fn(|w| {
        x = xorshift(x);
        if i.is_multiple_of(4) {
            (i << 32) + w as u64 * (x & 0xff)
        } else {
            x
        }
    })
}

/// Bits to store `line` as deltas from its first word.
fn size_bits(line: &[u64; 16]) -> u64 {
    line.iter()
        .map(|&w| match w.wrapping_sub(line[0]) {
            0 => 0,
            1..=0xff => 8,
            0x100..=0xffff => 16,
            d => u64::from(64 - d.leading_zeros()),
        })
        .sum()
}

/// Runs bursts on as many threads as the measured work uses.
#[derive(Debug)]
pub struct Calibrator {
    arenas: Vec<Arena>,
}

impl Calibrator {
    /// Allocates every thread's memory and runs one burst, which touches
    /// all of it. A run makes its calibrator before anything else, so this
    /// memory is resident for the whole process and its peak resident set
    /// is the work's own peak plus [`Calibrator::resident_mb`].
    pub fn new(threads: usize) -> Calibrator {
        let mut calibrator = Calibrator {
            arenas: (0..threads.max(1)).map(|_| Arena::new()).collect(),
        };
        calibrator.burst();
        calibrator
    }

    /// The threads' memory in MiB (give or take the allocator's headers).
    pub fn resident_mb(&self) -> f64 {
        let bytes: usize = self.arenas.iter().map(Arena::bytes).sum();
        bytes as f64 / (1024.0 * 1024.0)
    }

    /// Runs one burst on every thread at once; returns its wall-clock
    /// seconds (until the slowest thread is done, as an epoch barrier
    /// waits for its slowest shard).
    pub fn burst(&mut self) -> f64 {
        let clock = Stopwatch::start();
        match self.arenas.as_mut_slice() {
            [one] => {
                black_box(one.burst());
            }
            many => std::thread::scope(|s| {
                for arena in many {
                    s.spawn(|| black_box(arena.burst()));
                }
            }),
        }
        clock.elapsed_secs()
    }

    /// Runs one burst on one thread, beside work that uses one thread
    /// although the calibrator has more: two threads' bursts slow down
    /// with the busier of two vCPUs, one thread's with its own.
    pub fn burst_one(&mut self) -> f64 {
        let clock = Stopwatch::start();
        if let Some(arena) = self.arenas.first_mut() {
            black_box(arena.burst());
        }
        clock.elapsed_secs()
    }
}

/// The factor that turns host seconds measured beside `bursts` into
/// reference-host seconds; 0 when there are no bursts.
pub fn scale(bursts: &[f64]) -> f64 {
    ratio(REFERENCE_BURST_S, median(bursts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_burst_does_the_same_work() {
        let mut arena = Arena::new();
        let room = arena.events.capacity();
        let first = arena.burst();
        assert_eq!(arena.burst(), first);
        assert_eq!(
            arena.events.capacity(),
            room,
            "pending fills outgrew EVENTS"
        );
        for threads in [1, 2] {
            let mut calibrator = Calibrator::new(threads);
            assert!(calibrator.burst() > 0.0);
            assert!(calibrator.burst_one() > 0.0);
            assert!((calibrator.resident_mb() - 1.127 * threads as f64).abs() < 0.01);
        }
    }

    #[test]
    fn the_median_burst_sets_the_scale() {
        assert_eq!(scale(&[REFERENCE_BURST_S * 2.0]), 0.5);
        assert_eq!(scale(&[0.5 * REFERENCE_BURST_S, 1.0, 0.0]), 2.0);
        assert_eq!(scale(&[]), 0.0);
    }
}
