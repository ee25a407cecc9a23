//! Probe/encode parity: the staged compressor backends compute sizes two
//! ways — a fast size-only probe and the reference full encoder — and a
//! divergence between them would silently change every paper figure. For
//! arbitrary lines and for each algorithm's sweet-spot distribution, this
//! suite pins:
//!
//! * `probe(line) == compress(line)` (fast path vs reference size),
//! * `probe(line)` equals the byte length of the materialised bitstream,
//! * `decode(encode(line)) == line` (full-encode fidelity).

use latte_compress::{
    Bdi, Bpc, CacheLine, Compression, Compressor, CpackZ, Fpc, Sc, VftBuilder,
};
use proptest::prelude::*;

/// Arbitrary raw lines: mostly incompressible.
fn any_line() -> impl Strategy<Value = CacheLine> {
    prop::collection::vec(any::<u8>(), CacheLine::SIZE_BYTES).prop_map(|v| {
        let mut bytes = [0u8; CacheLine::SIZE_BYTES];
        bytes.copy_from_slice(&v);
        CacheLine::from_bytes(bytes)
    })
}

/// Structured lines: a base value plus bounded per-word noise — the
/// BDI/BPC sweet spot, where the interesting plane codes fire.
fn structured_line() -> impl Strategy<Value = CacheLine> {
    (
        any::<u64>(),
        prop::collection::vec(-512i64..512, CacheLine::NUM_U64_WORDS),
        any::<bool>(),
    )
        .prop_map(|(base, noise, wide)| {
            if wide {
                let words: Vec<u64> = noise
                    .iter()
                    .map(|&n| base.wrapping_add(n as u64))
                    .collect();
                CacheLine::from_u64_words(&words)
            } else {
                let words: Vec<u32> = noise
                    .iter()
                    .flat_map(|&n| {
                        let w = (base as u32).wrapping_add(n as u32);
                        [w, w.wrapping_add(1)]
                    })
                    .collect();
                CacheLine::from_u32_words(&words)
            }
        })
}

/// Lines drawn from a small value alphabet — dictionary/codebook heaven.
fn temporal_line() -> impl Strategy<Value = CacheLine> {
    (
        prop::collection::vec(any::<u32>(), 4),
        prop::collection::vec(0usize..4, CacheLine::NUM_U32_WORDS),
    )
        .prop_map(|(alphabet, picks)| {
            let words: Vec<u32> = picks.iter().map(|&p| alphabet[p]).collect();
            CacheLine::from_u32_words(&words)
        })
}

fn trained_sc(lines: &[CacheLine]) -> Sc {
    let mut vft = VftBuilder::new();
    for l in lines {
        vft.observe_line(l);
    }
    Sc::new(vft.build())
}

/// Probe == compress == materialised stream length, and the stream
/// round-trips, for one line under every bitstream compressor.
fn assert_staged_parity(line: &CacheLine) {
    let fpc = Fpc::new();
    let w = fpc.encode(line);
    assert_eq!(fpc.probe(line), fpc.compress(line), "FPC probe/compress");
    assert_eq!(fpc.probe(line), Compression::new(w.byte_len()), "FPC size");
    assert_eq!(fpc.decode(&w).as_ref(), Ok(line), "FPC roundtrip");

    let cp = CpackZ::new();
    let w = cp.encode(line);
    assert_eq!(cp.probe(line), cp.compress(line), "C-PACK probe/compress");
    assert_eq!(cp.probe(line), Compression::new(w.byte_len()), "C-PACK size");
    assert_eq!(cp.decode(&w).as_ref(), Ok(line), "C-PACK roundtrip");

    let bpc = Bpc::new();
    let w = bpc.encode(line);
    assert_eq!(bpc.probe(line), bpc.compress(line), "BPC probe/compress");
    assert_eq!(bpc.probe(line), Compression::new(w.byte_len()), "BPC size");
    assert_eq!(bpc.decode(&w).as_ref(), Ok(line), "BPC roundtrip");

    let bdi = Bdi::new();
    let c = bdi.encode(line);
    assert_eq!(bdi.probe(line), bdi.compress(line), "BDI probe/compress");
    assert_eq!(
        bdi.probe(line),
        Compression::new(c.size_bytes()),
        "BDI size"
    );
    assert_eq!(bdi.decode(&c).as_ref(), Ok(line), "BDI roundtrip");
}

fn assert_sc_parity(sc: &Sc, line: &CacheLine) {
    assert_sc_size_parity(sc, line);
    let w = sc.codebook().encode_line(line);
    assert_eq!(sc.codebook().decode_line(&w).as_ref(), Ok(line), "SC roundtrip");
}

/// Size parity only: the *untrained* default codebook has a degenerate
/// zero-length escape code — its streams are not decodable (the sim
/// models SC payloads as lossless), but probe and encode must still
/// agree on the size.
fn assert_sc_size_parity(sc: &Sc, line: &CacheLine) {
    let w = sc.codebook().encode_line(line);
    assert_eq!(sc.probe(line), sc.compress(line), "SC probe/compress");
    assert_eq!(sc.probe(line), Compression::new(w.byte_len()), "SC size");
}

proptest! {
    #[test]
    fn probe_matches_encode_on_arbitrary_lines(line in any_line()) {
        assert_staged_parity(&line);
    }

    #[test]
    fn probe_matches_encode_on_structured_lines(line in structured_line()) {
        assert_staged_parity(&line);
    }

    #[test]
    fn probe_matches_encode_on_temporal_lines(line in temporal_line()) {
        assert_staged_parity(&line);
    }

    #[test]
    fn sc_probe_matches_encode(
        training in prop::collection::vec(temporal_line(), 1..4),
        line in any_line(),
        temporal in temporal_line(),
    ) {
        let sc = trained_sc(&training);
        assert_sc_parity(&sc, &line);
        assert_sc_parity(&sc, &temporal);
        // The untrained codebook (everything escapes) must agree too.
        let untrained = Sc::untrained();
        assert_sc_size_parity(&untrained, &line);
    }

}

#[test]
fn zero_line_parity() {
    assert_staged_parity(&CacheLine::zeroed());
    assert_sc_size_parity(&Sc::untrained(), &CacheLine::zeroed());
    assert_sc_parity(&trained_sc(&[CacheLine::zeroed()]), &CacheLine::zeroed());
}
