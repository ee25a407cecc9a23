//! `run --workload`: set-up, timed rounds, output checks, and the
//! reduction of a run to its metrics.

use crate::exec::{run_sim, Job, SimRun, SimTrace};
use crate::expected::Expected;
use crate::host::{self, Calibrator};
use crate::metrics::{ratio, Report, Values};
use crate::stats::{median, smoothed_percentile};
use crate::trace::{Hook, HookCounters, SpanLog};
use crate::workload::{seed_mask, Body, JobSpec, WorkloadDef};
use latte_bench::timing::{self, Stopwatch};
use latte_compress::stats::Snapshot;
use latte_gpusim::{EpochStats, KernelStats};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;

/// A run sets up this many times; `setup_s` is the median.
const SETUPS: usize = 5;

/// How a run was asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Runs one workload in this process and reduces it to a [`Report`].
/// `expected` is `None` when the seed is not 0: outputs are then checked
/// for self-consistency only.
pub fn run_workload(w: &'static WorkloadDef, args: RunArgs, expected: Option<&Expected>) -> Report {
    let mut checks = Checks::new(w.name, expected);
    let mut report = Report {
        workload: w.name,
        traced: args.traced,
        ..Report::default()
    };
    let outcome = match w.body {
        Body::Sims(build) if args.traced => traced_sims(w, build, args, &mut checks),
        Body::Sims(build) => untraced_sims(w, build, args, &mut checks),
        Body::Sweep => crate::sweep::run(w, args, &mut checks),
    };
    match outcome {
        Ok((values, notes)) => {
            report.values = values;
            report.notes = notes;
        }
        Err(e) => checks.fail(format!("run aborted: {e}")),
    }
    report.notes.insert(0, format!("{}: {}", w.name, w.why));
    report.notes.insert(
        1,
        format!(
            "seed {} (spec seed mask {:#018x})",
            args.seed,
            seed_mask(args.seed)
        ),
    );
    report.attempted = checks.attempted;
    report.failed = checks.failed;
    report.failures = checks.failures;
    report
}

/// Output checks. Every simulation (or sweep experiment) is one
/// operation; it fails on an unclean termination, an oracle violation,
/// a digest that differs from `expected.txt`, or a digest that differs
/// from an earlier run of the same job in this process.
pub struct Checks<'e> {
    workload: &'static str,
    expected: Option<&'e Expected>,
    seen: BTreeMap<String, u128>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl<'e> Checks<'e> {
    pub fn new(workload: &'static str, expected: Option<&'e Expected>) -> Checks<'e> {
        Checks {
            workload,
            expected,
            seen: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Why `digest` is wrong for `key`, if it is.
    pub fn digest_problem(&mut self, key: &str, digest: u128) -> Option<String> {
        if let Some(expected) = self.expected {
            match expected.get(&format!("{} {key}", self.workload)) {
                None => return Some("no digest in expected.txt".to_owned()),
                Some(&d) if d != digest => {
                    return Some(format!("digest {digest:032x} != expected {d:032x}"))
                }
                Some(_) => {}
            }
        }
        match self.seen.get(key) {
            Some(&d) if d != digest => {
                Some(format!("digest {digest:032x} != earlier run {d:032x}"))
            }
            Some(_) => None,
            None => {
                self.seen.insert(key.to_owned(), digest);
                None
            }
        }
    }

    /// Records one operation, failed when `problems` is non-empty.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .push(format!("{} {what}: {}", self.workload, problems.join("; ")));
        }
    }

    pub fn sim(&mut self, job: &Job, run: &SimRun) {
        let key = job.key();
        let mut problems = Vec::new();
        if !run.termination.is_clean() {
            problems.push(format!("terminated {}", run.termination));
        }
        if run.violations > 0 {
            problems.push(format!("{} oracle violation(s)", run.violations));
        }
        problems.extend(self.digest_problem(&key, run.digest));
        self.op(&key, problems);
    }

    /// Records a failure that is not tied to one operation.
    pub fn fail(&mut self, why: String) {
        self.attempted = self.attempted.max(1);
        self.failed = self.failed.max(1);
        self.failures.push(format!("{} {why}", self.workload));
    }
}

/// Builds the batch's kernels.
fn setup(specs: Vec<JobSpec>) -> Result<Vec<Job>, String> {
    let jobs: Vec<Job> = specs.into_iter().map(Job::build).collect();
    if jobs.is_empty() {
        return Err("empty batch".to_owned());
    }
    Ok(jobs)
}

/// What [`prepare`] leaves for the rounds.
struct Prepared {
    calibrator: Calibrator,
    jobs: Vec<Job>,
    /// Each set-up's host time in reference-host seconds.
    setup_s: Vec<f64>,
}

/// Makes the calibrator first (see [`Calibrator::new`]), with a thread for
/// each simulation thread the batch uses, then sets up [`SETUPS`] times,
/// each followed by a one-thread burst (set-up runs on one thread), and
/// keeps the last batch. One set-up is what
/// a run does before its first timed round: building the batch's specs and
/// kernels (which generate their ops lazily) and one warm-up simulation of
/// the first job on the serial loop, whose digest later rounds must
/// reproduce (so on the sharded workload it is the serial reference).
/// Only the first set-up starts cold.
fn prepare(
    build: fn(u64) -> Vec<JobSpec>,
    seed: u64,
    checks: &mut Checks<'_>,
) -> Result<Prepared, String> {
    let threads = build(seed).iter().map(|s| s.config.sim_threads).max();
    let mut calibrator = Calibrator::new(threads.unwrap_or(1));
    let mut timed = Pass::default();
    let mut jobs = Vec::new();
    for _ in 0..SETUPS {
        let clock = Stopwatch::start();
        jobs = setup(build(seed))?;
        let first = jobs.first_mut().ok_or("empty batch")?;
        let threads = first.config.sim_threads;
        first.config.sim_threads = 1;
        let warm = run_sim(first, None);
        first.config.sim_threads = threads;
        timed.secs.push(clock.elapsed_secs());
        timed.bursts.push(calibrator.burst_one());
        if let Some(problem) = checks.digest_problem(&first.key(), warm.digest) {
            checks.fail(format!("warm-up {}: {problem}", first.key()));
        }
    }
    Ok(Prepared {
        calibrator,
        jobs,
        setup_s: timed.samples().collect(),
    })
}

/// Rounds until `seconds` have passed and at least `min_rounds` ran.
/// Returns what each round measured.
fn rounds<T>(min_rounds: usize, seconds: f64, mut round: impl FnMut(usize) -> T) -> Vec<T> {
    let clock = Stopwatch::start();
    let mut out = Vec::new();
    while out.len() < min_rounds || clock.elapsed_secs() < seconds {
        out.push(round(out.len()));
    }
    out
}

/// One pass over the batch: each simulation's host seconds, and the
/// calibration burst run after each.
#[derive(Debug, Default)]
struct Pass {
    secs: Vec<f64>,
    bursts: Vec<f64>,
}

impl Pass {
    /// Runs `sim` (which returns the simulation's host seconds) on every
    /// job, each followed by a burst of `calibrator`.
    fn run(jobs: &[Job], calibrator: &mut Calibrator, mut sim: impl FnMut(&Job) -> f64) -> Pass {
        let mut pass = Pass::default();
        for job in jobs {
            pass.secs.push(sim(job));
            pass.bursts.push(calibrator.burst());
        }
        pass
    }

    fn wall_s(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// The pass's host time in reference-host seconds.
    fn batch_s(&self) -> f64 {
        self.wall_s() * host::scale(&self.bursts)
    }

    /// Each simulation's host time in reference-host seconds.
    fn samples(&self) -> impl Iterator<Item = f64> + '_ {
        let scale = host::scale(&self.bursts);
        self.secs.iter().map(move |s| s * scale)
    }
}

/// How fast the host ran, for the notes: the median burst against the
/// reference, and each round's wall-clock seconds.
pub fn host_note(bursts: &[f64], wall_s: &[f64]) -> String {
    let times: Vec<String> = wall_s.iter().map(|t| format!("{t:.3}")).collect();
    format!(
        "times are reference-host seconds: median calibration burst {:.3} ms against {:.3} ms; \
         rounds at this host's speed (s): {}",
        median(bursts) * 1e3,
        host::REFERENCE_BURST_S * 1e3,
        times.join(" ")
    )
}

/// The compressor work done between two snapshots.
pub fn compress_delta(before: Snapshot, after: Snapshot) -> Snapshot {
    Snapshot {
        probe_ops: after.probe_ops.saturating_sub(before.probe_ops),
        probe_ns: after.probe_ns.saturating_sub(before.probe_ns),
        encode_ops: after.encode_ops.saturating_sub(before.encode_ops),
        encode_ns: after.encode_ns.saturating_sub(before.encode_ns),
        decode_ops: after.decode_ops.saturating_sub(before.decode_ops),
        decode_ns: after.decode_ns.saturating_sub(before.decode_ns),
    }
}

/// Everything the traced rounds recorded, summed over `rounds` rounds;
/// [`LayerTotals::values`] reports it per round (per batch).
#[derive(Debug, Default)]
pub struct LayerTotals {
    pub rounds: usize,
    /// The simulated counts of every traced simulation, folded with
    /// `KernelStats::accumulate`.
    pub stats: KernelStats,
    /// Compressor work over the traced rounds.
    pub compress: Snapshot,
    pub hooks: Option<Arc<HookCounters>>,
    pub run_kernel_calls: u64,
    pub run_kernel_s: f64,
    pub account_s: f64,
    pub epoch: EpochStats,
    pub oracle_violations: u64,
    pub sim_s: f64,
    pub memo_requests: u64,
    pub memo_hits: u64,
    pub memo_computed: u64,
    pub store: [u64; 4],
    /// Serial-pass over sharded-round host time; 0 when not measured.
    pub speedup: f64,
    /// Threads of the experiment driver's pool; 0 when unused.
    pub pool_jobs: usize,
    pub traced_batch_s: f64,
    pub untraced_batch_s: f64,
}

impl LayerTotals {
    pub fn values(&self) -> Values {
        let r = self.rounds.max(1) as f64;
        let hook = |h: Hook| {
            self.hooks
                .as_ref()
                .map_or((0.0, 0.0), |c| (c.calls(h) as f64 / r, c.secs(h) / r))
        };
        let policy_s = self.hooks.as_ref().map_or(0.0, |c| c.policy_total().1);
        let (oracle_calls, oracle_s) = self.hooks.as_ref().map_or((0, 0.0), |c| c.oracle_total());
        let c = &self.stats;
        let per = |v: u64| v as f64 / r;
        let secs = |ns: u64| ns as f64 / 1e9 / r;
        let (next_op, line_data, warp_program) = (
            hook(Hook::NextOp),
            hook(Hook::LineData),
            hook(Hook::WarpProgram),
        );
        let (fill, access, ep) = (
            hook(Hook::CompressFill),
            hook(Hook::OnAccess),
            hook(Hook::OnEp),
        );
        let d = self.compress;
        let run_kernel_s = self.run_kernel_s / r;
        let l1_accesses = per(c.l1.hits + c.l1.misses);
        let l2_accesses = per(c.l2.hits + c.l2.misses);
        let busy_ns: u64 = self.epoch.busy_ns.iter().sum();
        let stall_ns: u64 = self.epoch.stall_ns.iter().sum();
        let children_s = policy_s / r + next_op.1 + line_data.1 + warp_program.1 + oracle_s / r;
        let pairs: [(&'static str, f64); 56] = [
            ("workloads.next_op.calls", next_op.0),
            ("workloads.next_op.s", next_op.1),
            ("workloads.line_data.calls", line_data.0),
            ("workloads.line_data.s", line_data.1),
            ("core.compress_fill.calls", fill.0),
            ("core.compress_fill.s", fill.1),
            ("core.on_access.calls", access.0),
            ("core.on_access.s", access.1),
            ("core.on_ep.calls", ep.0),
            ("core.on_ep.s", ep.1),
            (
                "core.self_s",
                if self.hooks.is_some() {
                    fill.1 + access.1 + ep.1 - secs(d.probe_ns)
                } else {
                    0.0
                },
            ),
            ("compress.probe.ops", per(d.probe_ops)),
            ("compress.probe.s", secs(d.probe_ns)),
            ("compress.encode.ops", per(d.encode_ops)),
            ("compress.encode.s", secs(d.encode_ns)),
            ("compress.decode.ops", per(d.decode_ops)),
            ("compress.decode.s", secs(d.decode_ns)),
            (
                "compress.probes_per_fill",
                ratio(d.probe_ops as f64, c.l1.fills as f64),
            ),
            (
                "compress.useful_ratio",
                ratio(c.l1.compressed_fills as f64, d.probe_ops as f64),
            ),
            ("cache.l1.accesses", l1_accesses),
            (
                "cache.l1.hit_ratio",
                ratio(c.l1.hits as f64, (c.l1.hits + c.l1.misses) as f64),
            ),
            ("cache.l1.fills", per(c.l1.fills)),
            ("cache.mshr.stalls", per(c.mshr_stalls)),
            (
                "cache.decomp_queue.wait_cycles",
                per(c.decompression_queue_wait),
            ),
            ("cache.l2.accesses", l2_accesses),
            (
                "cache.l2.hit_ratio",
                ratio(c.l2.hits as f64, (c.l2.hits + c.l2.misses) as f64),
            ),
            ("cache.dram.accesses", per(c.dram_accesses)),
            ("cache.writebacks", per(c.writebacks)),
            ("gpusim.run_kernel.calls", per(self.run_kernel_calls)),
            ("gpusim.run_kernel.s", run_kernel_s),
            (
                "gpusim.self_s",
                if run_kernel_s > 0.0 {
                    run_kernel_s - children_s - secs(d.encode_ns + d.decode_ns)
                } else {
                    0.0
                },
            ),
            (
                "gpusim.ns_per_inst",
                ratio(self.sim_s * 1e9, c.instructions as f64),
            ),
            ("gpusim.instructions", per(c.instructions)),
            ("gpusim.sim_cycles", per(c.cycles)),
            ("gpusim.ipc", ratio(c.instructions as f64, c.cycles as f64)),
            ("gpusim.parallel.epochs", per(self.epoch.epochs)),
            (
                "gpusim.parallel.mean_epoch_cycles",
                self.epoch.mean_epoch_cycles(),
            ),
            ("gpusim.parallel.busy_s", secs(busy_ns)),
            (
                "gpusim.parallel.stall_frac",
                ratio(stall_ns as f64, (busy_ns + stall_ns) as f64),
            ),
            ("gpusim.parallel.speedup", self.speedup),
            ("oracle.calls", oracle_calls as f64 / r),
            ("oracle.s", oracle_s / r),
            ("oracle.violations", per(self.oracle_violations)),
            ("energy.account.s", self.account_s / r),
            ("bench.memo.requests", per(self.memo_requests)),
            (
                "bench.memo.hit_ratio",
                ratio(self.memo_hits as f64, self.memo_requests as f64),
            ),
            ("bench.memo.computed", per(self.memo_computed)),
            ("bench.sim_s", self.sim_s / r),
            (
                "bench.pool.busy_frac",
                ratio(self.sim_s / r, self.traced_batch_s * self.pool_jobs as f64),
            ),
            ("store.durable_writes", per(self.store[0])),
            ("store.write_failures", per(self.store[1])),
            ("store.mem_hits", per(self.store[2])),
            ("store.evictions", per(self.store[3])),
            (
                "tracing.overhead_frac",
                ratio(self.traced_batch_s, self.untraced_batch_s) - 1.0,
            ),
            ("tracing.traced_batch_s", self.traced_batch_s),
            ("tracing.untraced_batch_s", self.untraced_batch_s),
        ];
        pairs.into_iter().collect()
    }

    /// Every hook's calls and seconds per round, for the trace file
    /// (prefixed `hook.` so they never collide with the metric names).
    pub fn hook_counters(&self) -> Vec<(String, f64)> {
        let r = self.rounds.max(1) as f64;
        let Some(c) = &self.hooks else {
            return Vec::new();
        };
        Hook::ALL
            .into_iter()
            .flat_map(|h| {
                [
                    (format!("hook.{}.calls", h.name()), c.calls(h) as f64 / r),
                    (format!("hook.{}.s", h.name()), c.secs(h) / r),
                ]
            })
            .collect()
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where the benchmark keeps its traces and scratch directories.
pub fn out_dir() -> PathBuf {
    Path::new("target").join("latte-perf")
}

/// Runs `latte-perf <args> --dir <dir>` in a fresh scratch directory
/// under [`out_dir`] and removes the directory afterwards, whatever
/// happened. Returns the contents of the files named in `read`, in that
/// order.
pub fn scratch_child(tag: &str, args: &[&str], read: &[&str]) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let tmp = out_dir().join("tmp");
    let dir = tmp.join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let status = Command::new(exe)
        .args(args)
        .arg("--dir")
        .arg(&dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status();
    let texts: Vec<_> = read
        .iter()
        .map(|name| std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}")))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    // Leaves `tmp` behind only while another run still uses it.
    let _ = std::fs::remove_dir(&tmp);
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => return Err(format!("`latte-perf {}` exited with {s}", args.join(" "))),
        Err(e) => return Err(format!("cannot start `latte-perf {}`: {e}", args.join(" "))),
    }
    texts.into_iter().collect()
}

/// Writes `text` to `path` through a temp file renamed into place.
pub fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let tmp = path.with_extension("tmp");
    // latte-lint: allow(F1, reason = "this IS the temp+rename pattern: the write targets the temp name and the next line renames it over the final path")
    std::fs::write(&tmp, text).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes the span log, every metric and the per-hook counters to
/// `trace-<workload>.json`.
pub fn write_trace(
    w: &WorkloadDef,
    seed: u64,
    spans: &SpanLog,
    values: &Values,
    hook_counters: Vec<(String, f64)>,
) -> Result<PathBuf, String> {
    let mut counters: Vec<(String, f64)> =
        values.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect();
    counters.extend(hook_counters);
    let path = out_dir().join(format!("trace-{}.json", w.name));
    write_atomic(&path, &spans.to_json(w.name, seed, &counters))?;
    Ok(path)
}

/// `sim_p50_ms` and `sim_tail_ms` over every per-simulation host time of
/// the run (each simulation of each round is one sample), with the note
/// that states which percentile the tail is. The percentile is fixed per
/// workload from its guaranteed sample count, so it leaves at least ten
/// samples beyond it in every run. Both are smoothed
/// ([`smoothed_percentile`]): the samples cluster by benchmark.
pub fn latency_percentiles(w: &WorkloadDef, samples: &[f64]) -> (f64, f64, String) {
    let tail = w.tail_percentile();
    let note = format!(
        "sim_tail_ms is p{tail} over {} per-simulation samples \
         (at least {} rounds x {} simulations); both percentiles smoothed",
        samples.len(),
        w.min_rounds,
        w.sims_per_round
    );
    (
        smoothed_percentile(samples, 50.0) * 1e3,
        smoothed_percentile(samples, tail) * 1e3,
        note,
    )
}

/// The rounds' count and host times, for the notes.
pub fn rounds_note(batch_s: &[f64], batch: usize) -> String {
    let times: Vec<String> = batch_s.iter().map(|t| format!("{t:.3}")).collect();
    format!(
        "{} rounds of {batch} (s): {}",
        batch_s.len(),
        times.join(" ")
    )
}

/// A run's metric values and notes, or why it could not finish.
pub type Measured = Result<(Values, Vec<String>), String>;

fn untraced_sims(
    w: &WorkloadDef,
    build: fn(u64) -> Vec<JobSpec>,
    args: RunArgs,
    checks: &mut Checks<'_>,
) -> Measured {
    let Prepared {
        mut calibrator,
        jobs,
        setup_s,
    } = prepare(build, args.seed, checks)?;
    let mut instructions = 0u64;
    let passes = rounds(w.min_rounds, args.seconds, |round| {
        Pass::run(&jobs, &mut calibrator, |job| {
            let run = run_sim(job, None);
            if round == 0 {
                instructions += run.stats.instructions;
            }
            checks.sim(job, &run);
            run.secs
        })
    });
    let batch_s: Vec<f64> = passes.iter().map(Pass::batch_s).collect();
    let batch = median(&batch_s);
    let samples: Vec<f64> = passes.iter().flat_map(Pass::samples).collect();
    let (p50, tail, tail_note) = latency_percentiles(w, &samples);
    let bursts: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.bursts.iter().copied())
        .collect();
    let wall_s: Vec<f64> = passes.iter().map(Pass::wall_s).collect();
    let values: Values = [
        ("setup_s", median(&setup_s)),
        ("batch_s", batch),
        ("minst_per_s", ratio(instructions as f64 / 1e6, batch)),
        ("sim_p50_ms", p50),
        ("sim_tail_ms", tail),
        ("peak_rss_mb", peak_rss_mb() - calibrator.resident_mb()),
    ]
    .into_iter()
    .collect();
    let notes = vec![
        format!(
            "set-up (building the batch and one warm-up simulation) timed {} times; {}",
            setup_s.len(),
            rounds_note(&batch_s, jobs.len())
        ),
        host_note(&bursts, &wall_s),
        tail_note,
    ];
    Ok((values, notes))
}

fn traced_sims(
    w: &WorkloadDef,
    build: fn(u64) -> Vec<JobSpec>,
    args: RunArgs,
    checks: &mut Checks<'_>,
) -> Measured {
    let Prepared {
        mut calibrator,
        mut jobs,
        ..
    } = prepare(build, args.seed, checks)?;
    let phase_rounds = (w.min_rounds / 2).max(1);
    let half = args.seconds / 2.0;
    let plain = |job: &Job, checks: &mut Checks<'_>| {
        let run = run_sim(job, None);
        checks.sim(job, &run);
        run.secs
    };

    // Untraced rounds first: the injected compressor clock, once
    // installed, times every compressor operation for the rest of the
    // process.
    let untraced = rounds(phase_rounds, half, |_| {
        Pass::run(&jobs, &mut calibrator, |job| plain(job, checks))
    });
    let untraced_s: Vec<f64> = untraced.iter().map(Pass::batch_s).collect();
    let mut totals = LayerTotals {
        untraced_batch_s: median(&untraced_s),
        ..LayerTotals::default()
    };
    let mut notes = Vec::new();
    let threads: Vec<usize> = jobs.iter().map(|j| j.config.sim_threads).collect();
    if threads.iter().any(|&t| t > 1) {
        // The serial pass calibrates on as many threads as the sharded
        // rounds, so both are scaled by the same measure of the host.
        for job in &mut jobs {
            job.config.sim_threads = 1;
        }
        let serial = Pass::run(&jobs, &mut calibrator, |job| plain(job, checks));
        for (job, t) in jobs.iter_mut().zip(threads) {
            job.config.sim_threads = t;
        }
        totals.speedup = ratio(serial.batch_s(), totals.untraced_batch_s);
        notes.push(format!(
            "serial pass {:.3} s vs sharded {:.3} s (reference-host seconds) on {} host threads",
            serial.batch_s(),
            totals.untraced_batch_s,
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        ));
    }

    timing::install_compressor_clock();
    let hooks = Arc::new(HookCounters::default());
    let mut spans = SpanLog::new();
    let workload_span = spans.open("workload", w.name.to_owned(), None);
    let before = latte_compress::stats::snapshot();
    let traced = rounds(phase_rounds, half, |round| {
        let round_span = spans.open("round", round.to_string(), Some(workload_span));
        let pass = Pass::run(&jobs, &mut calibrator, |job| {
            let mut trace = SimTrace {
                hooks: &hooks,
                spans: &mut spans,
                parent: Some(round_span),
                run_kernel_s: 0.0,
                run_kernel_calls: 0,
                account_s: 0.0,
            };
            let run = run_sim(job, Some(&mut trace));
            totals.run_kernel_s += trace.run_kernel_s;
            totals.run_kernel_calls += trace.run_kernel_calls;
            totals.account_s += trace.account_s;
            totals.sim_s += run.secs;
            totals.stats.accumulate(&run.stats);
            totals.epoch.merge(&run.epoch);
            totals.oracle_violations += run.violations;
            checks.sim(job, &run);
            run.secs
        });
        spans.close(round_span);
        pass
    });
    spans.close(workload_span);
    totals.compress = compress_delta(before, latte_compress::stats::snapshot());
    totals.rounds = traced.len();
    let traced_s: Vec<f64> = traced.iter().map(Pass::batch_s).collect();
    totals.traced_batch_s = median(&traced_s);
    totals.hooks = Some(hooks);
    let values = totals.values();
    let path = write_trace(w, args.seed, &spans, &values, totals.hook_counters())?;
    notes.push(format!(
        "{} untraced and {} traced rounds of {} simulations; trace written to {}",
        untraced.len(),
        traced.len(),
        jobs.len(),
        path.display()
    ));
    Ok((values, notes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::JobSpec;
    use latte_bench::PolicyKind;
    use latte_gpusim::GpuConfig;

    fn tiny(seed: u64) -> Vec<JobSpec> {
        let mut bench = latte_workloads::benchmark("NW").expect("NW is in the suite");
        bench.seed ^= seed_mask(seed);
        vec![JobSpec {
            policy: PolicyKind::Baseline,
            bench,
            config: GpuConfig {
                num_sms: 1,
                ..GpuConfig::small()
            },
            shadowed: false,
        }]
    }

    const TINY: WorkloadDef = WorkloadDef {
        name: "tiny",
        why: "",
        min_rounds: 2,
        sims_per_round: 1,
        body: Body::Sims(tiny),
    };

    fn tiny_expected(digest: u128) -> Expected {
        [("tiny Baseline NW".to_owned(), digest)]
            .into_iter()
            .collect()
    }

    fn tiny_digest() -> u128 {
        let jobs: Vec<Job> = tiny(0).into_iter().map(Job::build).collect();
        run_sim(&jobs[0], None).digest
    }

    const ARGS: RunArgs = RunArgs {
        seed: 0,
        seconds: 0.0,
        traced: false,
    };

    #[test]
    fn a_matching_digest_passes() {
        let expected = tiny_expected(tiny_digest());
        let w: &'static WorkloadDef = &TINY;
        let report = run_workload(w, ARGS, Some(&expected));
        assert_eq!(
            (report.attempted, report.failed),
            (2, 0),
            "{:?}",
            report.failures
        );
        assert_eq!(report.exit_code(), 0);
        assert!(report.json().is_ok());
    }

    #[test]
    fn a_corrupted_expected_digest_fails_every_operation() {
        let expected = tiny_expected(tiny_digest() ^ 1);
        let w: &'static WorkloadDef = &TINY;
        let report = run_workload(w, ARGS, Some(&expected));
        assert_eq!(report.failed_frac(), 1.0, "{:?}", report.failures);
        assert_ne!(report.exit_code(), 0);
        assert!(report
            .json()
            .unwrap_or_default()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn other_seeds_are_checked_for_self_consistency() {
        let w: &'static WorkloadDef = &TINY;
        let report = run_workload(w, RunArgs { seed: 7, ..ARGS }, None);
        assert_eq!(
            (report.attempted, report.failed),
            (2, 0),
            "{:?}",
            report.failures
        );
        let mut traced = run_workload(
            w,
            RunArgs {
                seed: 7,
                traced: true,
                ..ARGS
            },
            None,
        );
        assert_eq!(traced.failed, 0, "{:?}", traced.failures);
        assert!(traced.values["workloads.next_op.calls"] > 0.0);
        assert!(traced.values["gpusim.instructions"] > 0.0);
        traced.values.clear();
        assert!(traced.json().is_err());
    }
}
