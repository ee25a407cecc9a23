//! Property tests for the LATTE-CC controller machinery: no event
//! sequence may panic, corrupt counters, or produce out-of-range
//! decisions.

use latte_compress::{CacheLine, CompressionAlgo};
use latte_core::{amat_gpu, CompressionMode, LatteCc, LatteConfig, ModeSample, ScManager};
use latte_gpusim::{AccessEvent, EpProbe, L1CompressionPolicy};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Event {
    Access { set: usize, hit: bool },
    Fill { set: usize, word: u32 },
    Ep { avail: f64, run_len: f64 },
    KernelBoundary,
}

fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        5 => (0usize..32, any::<bool>()).prop_map(|(set, hit)| Event::Access { set, hit }),
        5 => (0usize..32, any::<u32>()).prop_map(|(set, word)| Event::Fill { set, word }),
        2 => (0.0f64..48.0, 0.5f64..8.0).prop_map(|(avail, run_len)| Event::Ep { avail, run_len }),
        1 => Just(Event::KernelBoundary),
    ]
}

fn drive(policy: &mut dyn L1CompressionPolicy, events: &[Event]) {
    let mut cycle = 0;
    for ev in events {
        cycle += 7;
        match ev {
            Event::Access { set, hit } => policy.on_access(&AccessEvent {
                set: *set,
                hit: *hit,
                algo: CompressionAlgo::None,
                cycle,
            }),
            Event::Fill { set, word } => {
                let line = CacheLine::from_u32_words(&[*word; 32]);
                let (algo, compression) = policy.compress_fill(*set, &line);
                // Fill results are always well-formed.
                assert!(compression.size_bytes() <= CacheLine::SIZE_BYTES);
                if !compression.is_compressed() {
                    // An uncompressed result may carry any attempted algo
                    // tag; the cache downgrades it. Just exercise it.
                    let _ = algo;
                }
            }
            Event::Ep { avail, run_len } => policy.on_ep(&EpProbe {
                avg_warps_available: *avail,
                avg_exec_cycles_per_schedule: *run_len,
                l1_accesses: 256,
                cycles: 1000,
                end_cycle: cycle,
                ep_index: 0,
            }),
            Event::KernelBoundary => {
                policy.on_kernel_end();
                policy.on_kernel_start();
            }
        }
        // Invalidation requests must always name a real algorithm.
        if let Some(algo) = policy.pending_invalidation() {
            assert_ne!(algo, CompressionAlgo::None);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn latte_survives_any_event_sequence(events in prop::collection::vec(event_strategy(), 1..300)) {
        let mut latte = LatteCc::new(LatteConfig::paper());
        drive(&mut latte, &events);
        // The decision is always one of the three modes and the histogram
        // is consistent with the number of EP events since kernel start.
        let report = latte.report();
        prop_assert!(report.total_eps() <= events.len() as u64);
        prop_assert!(latte.latency_tolerance() >= 0.0);
    }

    #[test]
    fn adaptive_baselines_survive_any_event_sequence(
        events in prop::collection::vec(event_strategy(), 1..200)
    ) {
        let mut ahc = LatteCc::adaptive_hit_count(LatteConfig::paper());
        drive(&mut ahc, &events);
        let mut acmp = LatteCc::adaptive_cmp(LatteConfig::paper());
        drive(&mut acmp, &events);
    }

    #[test]
    fn sampling_controller_counters_are_bounded(
        ops in prop::collection::vec((0usize..32, any::<bool>()), 1..500),
        period in 2u64..16,
        four_options in any::<bool>(),
    ) {
        let mut options = LatteConfig::paper().options;
        if four_options {
            options.insert(2, CompressionAlgo::Bpc);
        }
        let mut latte = LatteCc::new(LatteConfig {
            eps_per_period: period,
            options,
            ..LatteConfig::paper()
        });
        let line = CacheLine::from_u32_words(&[7; 32]);
        let mut fills = 0u64;
        let mut hits = 0u64;
        for (i, (set, is_fill)) in ops.iter().enumerate() {
            if *is_fill {
                let _ = latte.compress_fill(*set, &line);
                fills += 1;
            } else {
                latte.on_access(&AccessEvent { set: *set, hit: true, algo: CompressionAlgo::None, cycle: 0 });
                hits += 1;
            }
            if i % 64 == 63 {
                latte.on_ep(&EpProbe::default());
            }
        }
        let total_ins: u64 = latte.samples().iter().map(|m| m.insertions).sum();
        let total_hits: u64 = latte.samples().iter().map(|m| m.hits).sum();
        // EWMA of counted subsets can never exceed the raw event counts.
        prop_assert!(total_ins <= fills);
        prop_assert!(total_hits <= hits);
    }

    #[test]
    fn amat_is_monotone_in_its_arguments(
        hits in 0u64..1000,
        insertions in 0u64..1000,
        hit_lat in 1.0f64..40.0,
        miss_lat in 40.0f64..400.0,
        tol in 0.0f64..60.0,
    ) {
        let s = ModeSample { hits, insertions };
        let a = amat_gpu(s, hit_lat, miss_lat, tol);
        prop_assert!(a >= 0.0);
        // More tolerance never increases AMAT.
        prop_assert!(amat_gpu(s, hit_lat, miss_lat, tol + 5.0) <= a + 1e-9);
        // Higher hit latency never decreases AMAT.
        prop_assert!(amat_gpu(s, hit_lat + 5.0, miss_lat, tol) >= a - 1e-9);
        // Higher miss latency never decreases AMAT (when misses exist).
        prop_assert!(amat_gpu(s, hit_lat, miss_lat + 50.0, tol) >= a - 1e-9);
    }

    #[test]
    fn sc_manager_never_panics_and_invalidations_pair_with_rebuilds(
        words in prop::collection::vec(any::<u32>(), 1..120),
        period in 2u64..12,
    ) {
        let mut m = ScManager::new(period);
        let mut invalidations = 0u64;
        for (i, w) in words.iter().enumerate() {
            m.observe_fill(&CacheLine::from_u32_words(&[*w; 32]));
            let _ = m.compress(&CacheLine::from_u32_words(&[*w; 32]));
            if i % 8 == 7 {
                m.on_ep_end();
            }
            if m.take_invalidation() {
                invalidations += 1;
            }
        }
        prop_assert!(invalidations <= m.rebuilds());
    }
}

/// Mode decisions stay stable when the same probe repeats (no oscillation
/// from pure bookkeeping).
#[test]
fn repeated_identical_probes_stabilise() {
    let mut latte = LatteCc::new(LatteConfig::paper());
    let probe = EpProbe {
        avg_warps_available: 8.0,
        avg_exec_cycles_per_schedule: 2.0,
        l1_accesses: 256,
        cycles: 1024,
        end_cycle: 0,
        ep_index: 0,
    };
    for _ in 0..5 {
        latte.on_ep(&probe);
    }
    let first = latte.selected_mode();
    for _ in 0..50 {
        latte.on_ep(&probe);
        assert_eq!(latte.selected_mode(), first, "decision oscillated");
    }
}

/// The three modes map to three distinct storage behaviours.
#[test]
fn learning_fills_differ_by_role() {
    let mut latte = LatteCc::new(LatteConfig::paper());
    let line = CacheLine::from_u32_words(&(0..32).map(|i| 100 + i).collect::<Vec<_>>());
    // Paper L1 with 2 dedicated sets/mode: roles at sets 0,1,2 / 16,17,18.
    let (a0, _) = latte.compress_fill(0, &line);
    let (a1, c1) = latte.compress_fill(1, &line);
    let (a2, _) = latte.compress_fill(2, &line);
    assert_eq!(a0, CompressionAlgo::None);
    assert_eq!(a1, CompressionAlgo::Bdi);
    assert!(c1.is_compressed());
    assert_eq!(a2, CompressionAlgo::Sc);
    assert_eq!(CompressionMode::ALL.len(), 3);
}
