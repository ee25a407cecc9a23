//! **Figure 2** — Compression ratio of all five algorithms over each
//! benchmark's L1 insertion stream.
//!
//! Per §II-A: graph workloads (BFS, BC, FW, DJK) compress under both
//! spatial and temporal schemes; float workloads (KM, SS, MM, PRK) only
//! under temporal (SC); PF/MIS/CLR favour BPC; SC and BDI/BPC achieve the
//! highest ratios overall while FPC and C-PACK trail.

use crate::report::outln;
use crate::experiments::write_csv;
use latte_cache::LineAddr;
use latte_compress::{
    Bdi, Bpc, CacheLine, Compressor, CpackZ, Fpc, Sc, VftBuilder,
};
use latte_gpusim::{Kernel, Op};
use latte_workloads::{suite, BenchmarkSpec};

/// Collects (up to `cap`) distinct lines from the benchmark's actual load
/// stream — a faithful proxy for the L1 insertion stream.
fn insertion_stream(bench: &BenchmarkSpec, cap: usize) -> Vec<CacheLine> {
    let mut lines = Vec::with_capacity(cap);
    let kernels = bench.build_kernels();
    'outer: for kernel in &kernels {
        for warp in 0..kernel.warps_on_sm(0).min(8) {
            let mut stream = kernel.warp_program(0, warp);
            for _ in 0..4096 {
                match stream.next_op() {
                    Op::Load { addr } => {
                        lines.push(kernel.line_data(LineAddr::from_byte_addr(addr)));
                        if lines.len() >= cap {
                            break 'outer;
                        }
                    }
                    Op::Exit => break,
                    _ => {}
                }
            }
        }
    }
    lines
}

/// Measures each algorithm's ratio over one benchmark's stream.
pub fn ratios_for(bench: &BenchmarkSpec) -> [f64; 5] {
    let lines = insertion_stream(bench, 2000);
    let mut vft = VftBuilder::new();
    for l in lines.iter().take(lines.len() / 4) {
        vft.observe_line(l);
    }
    let sc = Sc::new(vft.build());
    let algos: [&dyn Compressor; 5] = [
        &Bdi::new(),
        &Fpc::new(),
        &CpackZ::new(),
        &Bpc::new(),
        &sc,
    ];
    let mut out = [0.0; 5];
    for (i, algo) in algos.iter().enumerate() {
        // Size probe over the whole insertion stream.
        let stored: usize = lines.iter().map(|l| algo.probe(l).size_bytes()).sum();
        out[i] = (lines.len() * CacheLine::SIZE_BYTES) as f64 / stored.max(1) as f64;
    }
    out
}

/// Runs the Fig 2 characterisation.
pub fn run() -> std::io::Result<()> {
    outln!("Figure 2: compression ratio per algorithm (L1 insertion stream)\n");
    outln!(
        "{:6} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "bench", "BDI", "FPC", "CPACK", "BPC", "SC"
    );
    let mut rows = vec![vec![
        "benchmark".to_owned(),
        "BDI".to_owned(),
        "FPC".to_owned(),
        "CPACK-Z".to_owned(),
        "BPC".to_owned(),
        "SC".to_owned(),
    ]];
    let mut sums = [0.0; 5];
    let benches = suite();
    for bench in &benches {
        let r = ratios_for(bench);
        outln!(
            "{:6} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2}",
            bench.abbr, r[0], r[1], r[2], r[3], r[4]
        );
        for (s, v) in sums.iter_mut().zip(r) {
            *s += v.ln();
        }
        let mut row = vec![bench.abbr.to_owned()];
        row.extend(r.iter().map(|v| format!("{v:.3}")));
        rows.push(row);
    }
    let n = benches.len() as f64;
    let gm: Vec<f64> = sums.iter().map(|s| (s / n).exp()).collect();
    outln!(
        "{:6} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2}   (geomean)",
        "MEAN", gm[0], gm[1], gm[2], gm[3], gm[4]
    );
    let mut mean_row = vec!["GEOMEAN".to_owned()];
    mean_row.extend(gm.iter().map(|v| format!("{v:.3}")));
    rows.push(mean_row);
    write_csv("fig02_compression_ratios", &rows)
}
