//! Property tests for the write-back data path: under arbitrary
//! store/load interleavings the cache and a byte-exact reference model
//! agree on every resident line's architectural bytes, every dirty
//! eviction carries the last-written bytes through a real
//! `decode(encode(..))` round trip, and size-changing writes never
//! orphan a tracked segment or exceed the set's sub-block budget.

use std::collections::{HashMap, HashSet};

use latte_cache::{CacheGeometry, CompressedCache, EvictedLine, LineAddr};
use latte_compress::{Bdi, CacheLine, Compression, CompressionAlgo, Compressor, Fpc};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum WbOp {
    /// A load: miss-fill from backing memory (write-allocate shape).
    Access(u64),
    /// A store of `[fill; 32]` into `sector` of the line at `addr`
    /// (allocating on miss), re-compressed with the selected algorithm.
    Store {
        addr: u64,
        sector: u8,
        fill: u8,
        algo_sel: u8,
    },
    /// The kernel-end flush: every dirty line written back in place.
    DrainDirty,
    /// Invalidation of one line (dirty bytes written back first, as the
    /// simulator does).
    Invalidate(u64),
    /// The SC-style bulk invalidation path, aimed at BDI lines here.
    InvalidateBdi,
}

fn op_strategy(addr_space: u64) -> impl Strategy<Value = WbOp> {
    prop_oneof![
        4 => (0..addr_space).prop_map(WbOp::Access),
        4 => (0..addr_space, 0u8..4, any::<u8>(), 0u8..3).prop_map(|(addr, sector, fill, algo_sel)| {
            WbOp::Store { addr, sector, fill, algo_sel }
        }),
        1 => Just(WbOp::DrainDirty),
        1 => (0..addr_space).prop_map(WbOp::Invalidate),
        1 => Just(WbOp::InvalidateBdi),
    ]
}

fn algo_of(sel: u8) -> CompressionAlgo {
    match sel {
        0 => CompressionAlgo::Bdi,
        1 => CompressionAlgo::Fpc,
        _ => CompressionAlgo::None,
    }
}

fn probe(algo: CompressionAlgo, line: &CacheLine) -> Compression {
    match algo {
        CompressionAlgo::Bdi => Bdi::new().probe(line),
        CompressionAlgo::Fpc => Fpc::new().probe(line),
        _ => Compression::UNCOMPRESSED,
    }
}

/// The bytes the line would hold after its stored representation is read
/// back: the genuine compressor round trip for the payload-bearing
/// algorithms, identity for raw storage.
fn roundtrip(algo: CompressionAlgo, line: &CacheLine) -> CacheLine {
    match algo {
        CompressionAlgo::Bdi => {
            let bdi = Bdi::new();
            bdi.decode(&bdi.encode(line))
                .expect("BDI decodes its own encoding")
        }
        CompressionAlgo::Fpc => {
            let fpc = Fpc::new();
            fpc.decode(&fpc.encode(line))
                .expect("FPC decodes its own encoding")
        }
        _ => *line,
    }
}

/// Deterministic backing-memory contents for lines never written.
fn pristine(addr: u64) -> CacheLine {
    let mut bytes = [0u8; CacheLine::SIZE_BYTES];
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = (addr as u8).wrapping_mul(37).wrapping_add(i as u8);
    }
    CacheLine::from_bytes(bytes)
}

/// The byte-exact reference model the cache is diffed against: backing
/// memory, the expected bytes of every resident line, and the dirty set.
#[derive(Default)]
struct Model {
    mem: HashMap<u64, CacheLine>,
    resident: HashMap<u64, CacheLine>,
    dirty: HashSet<u64>,
}

impl Model {
    fn mem_bytes(&self, addr: u64) -> CacheLine {
        self.mem
            .get(&addr)
            .copied()
            .unwrap_or_else(|| pristine(addr))
    }

    /// Audits one eviction batch: every victim must carry exactly the
    /// bytes the model expected for it (no orphaned or stale segments),
    /// and dirty victims write those bytes back to memory.
    fn absorb_evictions(&mut self, evicted: &[EvictedLine]) {
        for e in evicted {
            let key = e.addr.line_number();
            let expected = self.resident.remove(&key);
            prop_assert!(expected.is_some(), "evicted non-resident line {}", e.addr);
            prop_assert_eq!(
                e.data.as_ref(),
                expected.as_ref(),
                "victim {} must carry its tracked bytes",
                e.addr
            );
            let was_dirty = self.dirty.remove(&key);
            prop_assert_eq!(e.dirty, was_dirty, "dirty bit of {} diverged", e.addr);
            if e.dirty {
                let data = e.data.expect("dirty victims carry data");
                self.mem.insert(key, data);
            }
        }
    }
}

/// Fills `addr` from backing memory (the miss path) and syncs the model.
fn fill_line(cache: &mut CompressedCache, model: &mut Model, addr: u64, cycle: u64) {
    let data = model.mem_bytes(addr);
    let line = LineAddr::new(addr);
    // Fills always come from memory at BDI size here; the algorithm mix
    // on the write path is what varies sizes.
    let evicted = cache.fill(line, CompressionAlgo::Bdi, Bdi::new().probe(&data), cycle);
    prop_assert!(
        evicted.iter().all(|e| e.addr != line),
        "fill evicted itself"
    );
    model.absorb_evictions(&evicted);
    cache.record_line_data(line, data);
    model.resident.insert(addr, data);
}

/// Checks the cache against the model after every step.
fn check_sync(cache: &CompressedCache, model: &Model) {
    prop_assert_eq!(cache.validate(), Ok(()));
    prop_assert!(cache.stored_bytes() <= cache.geometry().size_bytes);
    prop_assert_eq!(cache.valid_lines(), model.resident.len());
    prop_assert_eq!(cache.dirty_lines(), model.dirty.len());
    for (&addr, bytes) in &model.resident {
        let line = LineAddr::new(addr);
        prop_assert!(cache.contains(line), "model thinks {line} is resident");
        prop_assert_eq!(
            cache.line_data(line),
            Some(bytes),
            "bytes of {} diverged",
            line
        );
        prop_assert_eq!(cache.is_dirty(line), model.dirty.contains(&addr));
    }
}

fn run_interleaving(ops: &[WbOp], addr_space: u64) {
    let mut cache = CompressedCache::new(CacheGeometry::paper_l1());
    cache.enable_data_tracking();
    let mut model = Model::default();
    let mut last_written: HashMap<u64, CacheLine> = HashMap::new();

    for (cycle, op) in ops.iter().enumerate() {
        let cycle = cycle as u64;
        match *op {
            WbOp::Access(addr) => {
                let line = LineAddr::new(addr);
                if cache.lookup(line, cycle).is_miss() {
                    fill_line(&mut cache, &mut model, addr, cycle);
                }
            }
            WbOp::Store {
                addr,
                sector,
                fill,
                algo_sel,
            } => {
                let line = LineAddr::new(addr);
                if !cache.contains(line) {
                    // Write-allocate: fetch the line, then merge the store.
                    fill_line(&mut cache, &mut model, addr, cycle);
                }
                let mut bytes = *model.resident[&addr].as_bytes();
                let lo = usize::from(sector) * 32;
                bytes[lo..lo + 32].fill(fill);
                let merged = CacheLine::from_bytes(bytes);
                let algo = algo_of(algo_sel);
                // The dirty line's stored representation must read back
                // as exactly the bytes just written.
                prop_assert_eq!(
                    roundtrip(algo, &merged),
                    merged,
                    "{:?} round trip lost a write to {}",
                    algo,
                    line
                );
                let evicted = cache
                    .write(line, algo, probe(algo, &merged), &merged, cycle)
                    .expect("line is resident");
                prop_assert!(
                    evicted.iter().all(|e| e.addr != line),
                    "grown write evicted itself"
                );
                model.absorb_evictions(&evicted);
                model.resident.insert(addr, merged);
                model.dirty.insert(addr);
                last_written.insert(addr, merged);
            }
            WbOp::DrainDirty => {
                let drained = cache.drain_dirty();
                prop_assert_eq!(drained.len(), model.dirty.len());
                for (line, data) in drained {
                    let key = line.line_number();
                    prop_assert!(model.dirty.remove(&key), "drained clean line {line}");
                    prop_assert_eq!(
                        Some(&data),
                        model.resident.get(&key),
                        "flush of {} diverged",
                        line
                    );
                    model.mem.insert(key, data);
                }
                prop_assert_eq!(cache.dirty_lines(), 0);
            }
            WbOp::Invalidate(addr) => {
                let line = LineAddr::new(addr);
                if cache.contains(line) {
                    if cache.is_dirty(line) {
                        model.mem.insert(addr, model.resident[&addr]);
                        model.dirty.remove(&addr);
                    }
                    prop_assert!(cache.invalidate(line));
                    model.resident.remove(&addr);
                }
            }
            WbOp::InvalidateBdi => {
                let dropped = cache.invalidate_algo(CompressionAlgo::Bdi);
                model.absorb_evictions(&dropped);
            }
        }
        check_sync(&cache, &model);
    }

    // End of run: flush everything, then replay every line ever written
    // through a cold refetch — the bytes that come back from memory must
    // be the last bytes stored, or a write-back was lost along the way.
    for (line, data) in cache.drain_dirty() {
        model.mem.insert(line.line_number(), data);
    }
    for addr in 0..addr_space {
        if let Some(expected) = last_written.get(&addr) {
            prop_assert_eq!(
                &model.mem_bytes(addr),
                expected,
                "cold refetch of line {} lost the last write",
                addr
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Wide address space: cross-set traffic with moderate contention.
    #[test]
    fn interleavings_preserve_last_written_bytes(
        ops in prop::collection::vec(op_strategy(96), 1..300)
    ) {
        run_interleaving(&ops, 96);
    }

    /// Every address maps to set 0 (strides of the set count), so
    /// size-changing writes constantly grow/shrink against a full set —
    /// the worst case for sub-block budget and orphaned-segment bugs.
    #[test]
    fn single_set_churn_never_orphans_or_overflows(
        raw in prop::collection::vec(op_strategy(16), 1..300)
    ) {
        // Spread the 16 logical lines across set-0 aliases.
        let sets = CacheGeometry::paper_l1().num_sets() as u64;
        let ops: Vec<WbOp> = raw
            .into_iter()
            .map(|op| match op {
                WbOp::Access(a) => WbOp::Access(a * sets),
                WbOp::Store { addr, sector, fill, algo_sel } => WbOp::Store {
                    addr: addr * sets,
                    sector,
                    fill,
                    algo_sel,
                },
                WbOp::Invalidate(a) => WbOp::Invalidate(a * sets),
                other => other,
            })
            .collect();
        run_interleaving(&ops, 16 * sets);
    }
}
