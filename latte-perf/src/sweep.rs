//! The `sweep-fig17` workload: the experiment driver
//! (`latte_bench::run_experiments_with_outcomes`) running `fig17` with a
//! fresh result store and results directory, one child process per round.
//!
//! The driver's memo cache lives for the whole process, so a second round
//! in one process would only replay; a fresh process per round is also
//! what a user running `latte-bench fig17` pays. The parent times nothing
//! inside a round: the child measures its set-up and the round, between
//! calibration bursts before and after the round, and writes `round.txt`
//! in its scratch directory as `workload metric value unit` lines (the
//! format `compare` reads), and its output digests as `digests.txt` in the
//! format of `expected.txt`. The parent reads both and removes the
//! directory.
//!
//! The driver's simulations run on its pool's worker thread and cannot be
//! interleaved with bursts, and the host's speed drifts per vCPU: bursts
//! beside the round on a second thread (which runs on the other vCPU)
//! tracked it no better than no calibration at all. So a round is kept
//! short (about 5 s), and a run takes the median of several.

use crate::compare::metric_lines;
use crate::exec::digest;
use crate::expected::{self, Expected};
use crate::host::{self, Calibrator};
use crate::metrics::{self, ratio, Values, PER_LAYER};
use crate::run::{
    compress_delta, host_note, latency_percentiles, peak_rss_mb, rounds_note, scratch_child,
    write_atomic, write_trace, Checks, LayerTotals, Measured, RunArgs,
};
use crate::stats::median;
use crate::trace::SpanLog;
use crate::workload::{WorkloadDef, SWEEP_CSV, SWEEP_EXPERIMENT, SWEEP_JOBS, SWEEP_POLICIES};
use latte_bench::timing::{self, Stopwatch};
use latte_bench::PolicyKind;
use latte_gpusim::Fingerprinter;
use latte_store::StoreConfig;
use latte_workloads::BenchmarkSpec;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Calibration bursts before and after a round.
const BURSTS: usize = 16;

/// The sweep's set-up: creates `dir/results` as the driver's results
/// directory, opens a fresh result store at `dir/store`, and runs one
/// warm-up simulation outside the memo cache, as the simulation workloads
/// do before their first round. Returns the results directory.
fn setup(dir: &Path, benches: &[BenchmarkSpec]) -> Result<PathBuf, String> {
    let results = dir.join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    latte_bench::experiments::set_results_dir(Some(results.clone()));
    let opened = latte_bench::sim::configure_store(StoreConfig::at(dir.join("store")))?;
    if !opened.disk_enabled {
        return Err(format!(
            "result store unusable: {}",
            opened.warnings.join("; ")
        ));
    }
    let first = benches.first().ok_or("no C-Sens benchmark")?;
    let config = latte_bench::runner::experiment_config();
    let _ = latte_bench::run_benchmark_uncached(PolicyKind::Baseline, first, &config);
    let _ = timing::take_sim_times();
    Ok(results)
}

/// The child side: `latte-perf sweep-round [--trace] --dir <dir>`.
pub fn child_main(dir: &Path, traced: bool) -> Result<(), String> {
    // First, so `peak_rss_mb` can leave it out (see `Calibrator::new`).
    let mut calibrator = Calibrator::new(1);
    if traced {
        timing::install_compressor_clock();
    }
    let benches = latte_workloads::c_sens();
    let clock = Stopwatch::start();
    let results = setup(dir, &benches)?;
    let setup_s = clock.elapsed_secs();

    let mut bursts: Vec<f64> = (0..BURSTS).map(|_| calibrator.burst()).collect();
    let before = latte_compress::stats::snapshot();
    let clock = Stopwatch::start();
    let (_, outcomes) =
        latte_bench::run_experiments_with_outcomes(&[&SWEEP_EXPERIMENT], SWEEP_JOBS);
    // Results are durable before the round counts as done.
    latte_bench::sim::shutdown_store();
    let round_s = clock.elapsed_secs();
    bursts.extend((0..BURSTS).map(|_| calibrator.burst()));
    let scale = host::scale(&bursts);

    let mut problems = Vec::new();
    match outcomes.first() {
        Some(o) => problems.extend(o.result.as_ref().err().map(|e| format!("{}: {e}", o.name))),
        None => problems.push(format!("{}: worker died", SWEEP_EXPERIMENT.0)),
    }
    if let Err(e) = latte_bench::sim::verify_each_sim_ran_once() {
        problems.push(e);
    }
    let memo = latte_bench::sim::stats();
    let store = latte_bench::sim::store_stats().unwrap_or_default();
    let sims = timing::take_sim_times();
    let mut totals = LayerTotals {
        rounds: 1,
        compress: compress_delta(before, latte_compress::stats::snapshot()),
        sim_s: sims.iter().map(|(_, s)| s).sum(),
        memo_requests: memo.requests,
        memo_hits: memo.hits(),
        memo_computed: memo.computed,
        store: [
            store.durable_writes,
            store.write_failures,
            store.mem_hits,
            store.evictions,
        ],
        pool_jobs: SWEEP_JOBS,
        traced_batch_s: round_s,
        ..LayerTotals::default()
    };

    // Every simulation the experiment requested, replayed from the memo
    // cache (no recompute): their digests and simulated counts.
    let mut digests = Expected::new();
    for bench in &benches {
        for policy in SWEEP_POLICIES {
            let r = latte_bench::run_benchmark(policy, bench);
            digests.insert(
                format!("{} {}", policy.name(), bench.abbr),
                digest(&r.stats, &r.reports, &r.energy),
            );
            totals.stats.accumulate(&r.stats);
            totals.run_kernel_calls += bench.kernels.len() as u64;
        }
    }
    if latte_bench::sim::stats().computed != memo.computed {
        problems.push("a replayed simulation was not in the memo cache".to_owned());
    }
    let mut csvs: Vec<PathBuf> = std::fs::read_dir(&results)
        .map_err(|e| format!("{}: {e}", results.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    csvs.sort();
    for csv in csvs {
        let bytes = std::fs::read(&csv).map_err(|e| format!("{}: {e}", csv.display()))?;
        let mut fp = Fingerprinter::new();
        fp.write_bytes(&bytes);
        let name = csv
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        digests.insert(format!("csv:{name}"), fp.finish());
    }

    for p in &problems {
        eprintln!("latte-perf: sweep round: {p}");
    }
    let mut out = String::new();
    let mut line = |name: &str, value: f64, unit: &str| {
        let _ = writeln!(out, "round {name} {} {unit}", metrics::number(value));
    };
    // Host times at reference-host speed; `wall_s` and `burst_s` for the
    // notes.
    line("setup_s", setup_s * scale, "s");
    line("round_s", round_s * scale, "s");
    line("wall_s", round_s, "s");
    line("burst_s", median(&bursts), "s");
    line(
        "peak_rss_mb",
        peak_rss_mb() - calibrator.resident_mb(),
        "MiB",
    );
    line("problems", problems.len() as f64, "count");
    for (_, secs) in &sims {
        line("sim_s", secs * scale, "s");
    }
    for (name, value) in totals.values() {
        line(
            name,
            value,
            metrics::per_layer(name).map_or("-", |m| m.unit),
        );
    }
    write_atomic(&dir.join("digests.txt"), &expected::render(&digests))?;
    write_atomic(&dir.join("round.txt"), &out)
}

/// One child round as the parent reads it back.
#[derive(Debug, Default)]
struct Round {
    /// Every value of `round.txt`, by metric name, in file order.
    values: BTreeMap<String, Vec<f64>>,
    digests: Expected,
}

impl Round {
    fn all(&self, name: &str) -> &[f64] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    fn one(&self, name: &str) -> Result<f64, String> {
        self.all(name)
            .first()
            .copied()
            .ok_or_else(|| format!("round.txt has no {name}"))
    }
}

/// Runs one round in a child process and reads back what it wrote.
fn child_round(w: &WorkloadDef, traced: bool) -> Result<Round, String> {
    let args: &[&str] = if traced {
        &["sweep-round", "--trace"]
    } else {
        &["sweep-round"]
    };
    let texts = scratch_child(w.name, args, &["round.txt", "digests.txt"])?;
    let [values, digests] = &texts[..] else {
        return Err("the sweep round wrote no round.txt or digests.txt".to_owned());
    };
    let mut round = Round::default();
    for (_, metric, value, _) in metric_lines(values) {
        round
            .values
            .entry(metric.to_owned())
            .or_default()
            .push(value);
    }
    round.digests = expected::parse(digests)?;
    Ok(round)
}

/// Checks one round's outputs: the round is one operation, failed by a
/// problem the child reported, a wrong or missing digest.
fn check_round(w: &WorkloadDef, round: &Round, checks: &mut Checks<'_>) {
    let mut problems = Vec::new();
    match round.one("problems") {
        Ok(n) if n > 0.0 => problems.push(format!("{n} problem(s) reported by the round")),
        Ok(_) => {}
        Err(e) => problems.push(e),
    }
    let sims = round
        .digests
        .keys()
        .filter(|k| !k.starts_with("csv:"))
        .count();
    if sims != w.sims_per_round || !round.digests.contains_key(&format!("csv:{SWEEP_CSV}")) {
        problems.push(format!(
            "{sims} simulation digests (expected {}) or no {SWEEP_CSV}.csv",
            w.sims_per_round
        ));
    }
    for (key, d) in &round.digests {
        if let Some(p) = checks.digest_problem(key, *d) {
            problems.push(format!("{key}: {p}"));
        }
    }
    checks.op(SWEEP_EXPERIMENT.0, problems);
}

/// Runs child rounds until `seconds` have passed and at least
/// `min_rounds` ran, checking each; a round that fails to run is a failed
/// operation.
fn rounds(
    w: &WorkloadDef,
    min_rounds: usize,
    seconds: f64,
    traced: bool,
    checks: &mut Checks<'_>,
    spans: &mut SpanLog,
    parent: Option<usize>,
) -> Vec<Round> {
    let clock = Stopwatch::start();
    let mut out = Vec::new();
    let mut attempts = 0;
    while attempts < min_rounds || clock.elapsed_secs() < seconds {
        let span = spans.open("round", attempts.to_string(), parent);
        match child_round(w, traced) {
            Ok(round) => {
                check_round(w, &round, checks);
                out.push(round);
            }
            Err(e) => checks.op("round", vec![e]),
        }
        spans.close(span);
        attempts += 1;
    }
    out
}

/// `name` of every round, or why a round lacks it.
fn each(rounds: &[Round], name: &str) -> Result<Vec<f64>, String> {
    rounds.iter().map(|r| r.one(name)).collect()
}

/// The parent side of the workload.
pub fn run(w: &WorkloadDef, args: RunArgs, checks: &mut Checks<'_>) -> Measured {
    let mut spans = SpanLog::new();
    let seed_note = format!(
        "{} runs the driver's fixed registry: --seed {} does not change its inputs",
        w.name, args.seed
    );
    if !args.traced {
        let recs = rounds(
            w,
            w.min_rounds,
            args.seconds,
            false,
            checks,
            &mut spans,
            None,
        );
        let setups = each(&recs, "setup_s")?;
        let first = recs.first().ok_or("no sweep round completed")?;
        let batch_s = each(&recs, "round_s")?;
        let batch = median(&batch_s);
        let samples: Vec<f64> = recs.iter().flat_map(|r| r.all("sim_s")).copied().collect();
        let (p50, tail, tail_note) = latency_percentiles(w, &samples);
        let values: Values = [
            ("setup_s", median(&setups)),
            ("batch_s", batch),
            (
                "minst_per_s",
                ratio(first.one("gpusim.instructions")? / 1e6, batch),
            ),
            ("sim_p50_ms", p50),
            ("sim_tail_ms", tail),
            (
                "peak_rss_mb",
                each(&recs, "peak_rss_mb")?.into_iter().fold(0.0, f64::max),
            ),
        ]
        .into_iter()
        .collect();
        let notes = vec![
            seed_note,
            format!(
                "set-up (a results directory, a fresh result store and one warm-up simulation) \
                 timed once per round; one child process per round, `{}` on {SWEEP_JOBS} driver \
                 jobs; {}",
                SWEEP_EXPERIMENT.0,
                rounds_note(&batch_s, 1)
            ),
            host_note(&each(&recs, "burst_s")?, &each(&recs, "wall_s")?),
            tail_note,
        ];
        return Ok((values, notes));
    }

    let phase_rounds = (w.min_rounds / 2).max(1);
    let untraced = rounds(
        w,
        phase_rounds,
        args.seconds / 2.0,
        false,
        checks,
        &mut spans,
        None,
    );
    let workload_span = spans.open("workload", w.name.to_owned(), None);
    let traced = rounds(
        w,
        phase_rounds,
        args.seconds / 2.0,
        true,
        checks,
        &mut spans,
        Some(workload_span),
    );
    spans.close(workload_span);
    if traced.is_empty() || untraced.is_empty() {
        return Err("no sweep round completed".to_owned());
    }
    // Each traced round reports its own per-layer values; take their
    // medians, then the tracing overhead against the untraced rounds.
    let mut values = Values::new();
    for m in PER_LAYER {
        values.insert(m.name, median(&each(&traced, m.name)?));
    }
    let traced_s = median(&each(&traced, "round_s")?);
    let untraced_s = median(&each(&untraced, "round_s")?);
    values.insert("tracing.traced_batch_s", traced_s);
    values.insert("tracing.untraced_batch_s", untraced_s);
    values.insert("tracing.overhead_frac", ratio(traced_s, untraced_s) - 1.0);
    let path = write_trace(w, args.seed, &spans, &values, Vec::new())?;
    let notes = vec![
        seed_note,
        format!(
            "{} untraced and {} traced rounds; the simulations run inside the driver, so only \
             their simulated counts and compressor time are attributed here",
            untraced.len(),
            traced.len()
        ),
        format!("trace written to {}", path.display()),
    ];
    Ok((values, notes))
}

/// Runs one round for `bless`: its digests, or why it failed.
pub fn bless_round(w: &WorkloadDef) -> Result<Expected, String> {
    let round = child_round(w, false)?;
    match round.one("problems")? {
        n if n > 0.0 => Err(format!("{n} problem(s) in the round (see above)")),
        _ => Ok(round.digests),
    }
}
