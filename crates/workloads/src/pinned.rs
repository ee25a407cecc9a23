//! Pinned digests of everything this crate generates for the shipped
//! suites: the full op stream of SM 0's first and last warp of every
//! kernel, and the contents of the first 256 lines of every region.
//!
//! The simulator's results are a pure function of these streams, so any
//! change to op or line generation — a reordered float operation in the
//! Zipf sampler, a scatter table off by one rank, a line filled in a
//! different order — fails here, in `cargo test`, before it can move a
//! simulated number. The constants were computed with the reference
//! implementations (`AccessPattern::line_offset` evaluated per op, line
//! words collected into a `Vec`) and must only change together with a
//! deliberate model change.

use crate::{suite, write_heavy_suite, BenchmarkSpec, REGION_SHIFT};
use latte_cache::LineAddr;
use latte_gpusim::{Fingerprinter, Kernel, Op};

/// Lines digested per region.
const LINES_PER_REGION: u64 = 256;

/// Folds one op into `fp`, discriminant first.
fn write_op(fp: &mut Fingerprinter, op: Op) {
    match op {
        Op::Compute { cycles } => {
            fp.write_u64(0);
            fp.write_u32(cycles);
        }
        Op::Load { addr } => {
            fp.write_u64(1);
            fp.write_u64(addr);
        }
        Op::LoadAsync { addr } => {
            fp.write_u64(2);
            fp.write_u64(addr);
        }
        Op::Store { addr, data } => {
            fp.write_u64(3);
            fp.write_u64(addr);
            fp.write_bytes(&data);
        }
        Op::Barrier => fp.write_u64(4),
        Op::Exit => fp.write_u64(5),
    }
}

/// `(op-stream digest, line-data digest)` of one benchmark.
fn digests(bench: &BenchmarkSpec) -> (u128, u128) {
    let mut ops = Fingerprinter::new();
    for kernel in bench.build_kernels() {
        let warps = kernel.warps_on_sm(0);
        let mut picked = vec![0, warps - 1];
        picked.dedup();
        for warp in picked {
            let mut stream = kernel.warp_program(0, warp);
            loop {
                let op = stream.next_op();
                write_op(&mut ops, op);
                if op == Op::Exit {
                    break;
                }
            }
        }
    }
    let mut lines = Fingerprinter::new();
    for region in 0..bench.generator.region_count() as u64 {
        for k in 0..LINES_PER_REGION {
            let addr = LineAddr::new((region << REGION_SHIFT) | k);
            lines.write_bytes(bench.generator.line(addr).as_bytes());
        }
    }
    (ops.finish(), lines.finish())
}

/// `(abbr, op-stream digest, line-data digest)` for every benchmark of
/// `suite()` then `write_heavy_suite()`, in registry order.
#[rustfmt::skip]
const PINNED: &[(&str, u128, u128)] = &[
    ("BO", 0x41c3b438f310cbf2ed700a3322c1baae, 0x0c966763c4f97be58e46fa43bdbea47d),
    ("PTH", 0xc965efcdda392f3b1ba41a2578c3423f, 0x3ddfe2b2ecd63d24e4a1cb22105d3810),
    ("HOT", 0xa6494941e528c60e291b86db6d589e05, 0x20e4340a2655eb524dcc0262ff849b3e),
    ("FWT", 0xf9000d47fd186e21423a476012555d8d, 0x461da9cff1cbc51cf82e83bf46a8287c),
    ("BP", 0x817b9fe7b3efe3fdbd3bf5ce246e695d, 0x474915eabe8cc149659265939a80b200),
    ("NW", 0x8dfbd7415be80cc13cc6ade4bd93a428, 0x0fa812a2dd8a3d7efdd9960ab7267d3e),
    ("SR1", 0x406bb6d440c6833bb3f8e810c1492718, 0x93290761494c41a0d219fc5ae766192c),
    ("HW", 0xd56e364cc811a0bfbcacd0b85fe4a2da, 0x107ca1244c683bdc7144f5a347dc2dc8),
    ("SCL", 0x00818f281420df9237606f7a85b2d7b0, 0xb484df19eb18d8d0faf3dd1540c09a4f),
    ("BT", 0xa306b46ff90f5a9bce1de8b658047562, 0x469e0fed59eacf4b3e96f775bf41253c),
    ("WC", 0x9d3f7652fcca6b1fb731280ce341d31c, 0xc6c0341b83df8a898b864ea99897b760),
    ("BFS", 0xc50f6aeceaae666dd03ab7c07ecd87c4, 0x48651c74d42820d35196d17b2c0fb683),
    ("PF", 0xe9bd37db2f8d962293f180410da2fb23, 0x064e681fe8210ca74d059b17597f1e07),
    ("SS", 0x2716a4ba28923112fe3476f2b9fb1b6d, 0x9b8ba2c4e0d814acd78912ead96e9322),
    ("MM", 0x7c8c7f8881837838bb0465d1b48d30b7, 0xaaa8108d4fc272bbd971b390383d56e6),
    ("KM", 0x9a5d1422fcac5813afc64f8a321b8539, 0x6f4bf4ed3fbe86e198571a1f62f88232),
    ("BC", 0x953466056e5191572f2950bf12cf30ba, 0xb2abc1fb2f781d4817f3a9799f7cf4d3),
    ("CLR", 0xe3a25a0b4a0eab9ed3b8585161592b3a, 0xae46952ee0836728cb4b9458470e6242),
    ("FW", 0x8c334f4c9dce463108fee4c89a71016b, 0x062c28bed74afd756e98717e00909aa5),
    ("PRK", 0x327341ede9433934b986f64552e575b2, 0xf2dbad0a53bf34f7b05d25146ce5fc1c),
    ("DJK", 0x97b93207147382b6eda6f529a47dd57e, 0x9703a79ea811239683f3e5a028a4784a),
    ("MIS", 0x063c18287d2ad7c5874edb64c55d5c76, 0xd26075058015f410fcee7c0699ea9ffc),
    ("VM", 0x8b7d26d282500883545d01a5946cd49d, 0xd06b8a1bbe67fd0c3f1ba4ef192ca9fb),
    ("WSC", 0xb96eab5f6bc9991b4f8f37b863da6a02, 0xdd840a3f0764c08c23949c9b11d64cf9),
    ("WRR", 0x02bfc145d642a9f22f79cec9332bf50c, 0x139d034945ddc35d3c8d0155e4789a54),
    ("WAC", 0x1f5b436e2707c5c57cf95f13c881dfa2, 0xf77fb004935124ffde71a732715a535a),
];

#[test]
fn generated_streams_match_pinned_digests() {
    let actual: Vec<(&str, u128, u128)> = suite()
        .iter()
        .chain(write_heavy_suite().iter())
        .map(|b| {
            let (ops, lines) = digests(b);
            (b.abbr, ops, lines)
        })
        .collect();
    let listing: String = actual
        .iter()
        .map(|(abbr, ops, lines)| format!("    ({abbr:?}, {ops:#034x}, {lines:#034x}),\n"))
        .collect();
    assert_eq!(actual, PINNED, "generated streams drifted; now:\n{listing}");
}
