//! **Table I** — Comparison of the five compression algorithms:
//! decompression latency, exploited value locality, and the mean
//! compression ratio measured over the whole workload suite's line
//! population.

use crate::report::outln;
use crate::experiments::write_csv;
use latte_cache::LineAddr;
use latte_compress::{
    Bdi, Bpc, CompressionAlgo, Compressor, CpackZ, Fpc, Sc, VftBuilder,
};
use latte_workloads::suite;

/// Measured mean compression ratio of `algo` over sampled workload lines.
fn mean_ratio(algo: CompressionAlgo) -> f64 {
    let mut total_raw = 0usize;
    let mut total_stored = 0usize;
    for bench in suite() {
        // Sample the benchmark's address space: region-spread lines.
        let lines: Vec<_> = (0..256u64)
            .map(|i| bench.generator.line(LineAddr::new(((i % 4) << 24) | ((i * 37) % 1024))))
            .collect();
        let compressor: Box<dyn Compressor> = match algo {
            CompressionAlgo::Bdi => Box::new(Bdi::new()),
            CompressionAlgo::Fpc => Box::new(Fpc::new()),
            CompressionAlgo::CpackZ => Box::new(CpackZ::new()),
            CompressionAlgo::Bpc => Box::new(Bpc::new()),
            CompressionAlgo::Sc => {
                let mut vft = VftBuilder::new();
                for l in &lines {
                    vft.observe_line(l);
                }
                Box::new(Sc::new(vft.build()))
            }
            CompressionAlgo::None => unreachable!("table covers real algorithms"),
        };
        total_raw += lines.len() * latte_compress::CacheLine::SIZE_BYTES;
        total_stored += lines.iter().map(|l| compressor.probe(l).size_bytes()).sum::<usize>();
    }
    total_raw as f64 / total_stored as f64
}

/// Prints Table I.
pub fn run() -> std::io::Result<()> {
    outln!("Table I: compression algorithm comparison\n");
    outln!(
        "{:10} {:>12} {:>10} {:>18} {:>12}",
        "algorithm", "decomp(cyc)", "comp(cyc)", "value locality", "mean ratio"
    );
    let locality = |a: CompressionAlgo| match a {
        CompressionAlgo::Bdi | CompressionAlgo::Fpc | CompressionAlgo::Bpc => "spatial",
        CompressionAlgo::CpackZ => "both",
        CompressionAlgo::Sc => "temporal",
        CompressionAlgo::None => "-",
    };
    let mut rows = vec![vec![
        "algorithm".to_owned(),
        "decompression_cycles".to_owned(),
        "compression_cycles".to_owned(),
        "value_locality".to_owned(),
        "mean_ratio".to_owned(),
    ]];
    for algo in CompressionAlgo::ALL {
        let ratio = mean_ratio(algo);
        outln!(
            "{:10} {:>12} {:>10} {:>18} {:>12.2}",
            algo.to_string(),
            algo.decompression_latency(),
            algo.compression_latency(),
            locality(algo),
            ratio
        );
        rows.push(vec![
            algo.to_string(),
            algo.decompression_latency().to_string(),
            algo.compression_latency().to_string(),
            locality(algo).to_owned(),
            format!("{ratio:.3}"),
        ]);
    }
    write_csv("table1_algorithms", &rows)
}
