//! The traced run's instruments: counting decorators around the layers'
//! trait objects, and an in-memory span log written out at the end.
//!
//! Every decorated call is counted. One call in [`SAMPLE_EVERY`] per hook
//! and decorator, chosen by call index, is timed with the bench crate's
//! `Stopwatch` and its time scaled by [`SAMPLE_EVERY`], so the recorded
//! seconds estimate the hook's total host time (each estimate includes
//! about one clock read per call). Decorators keep plain per-instance
//! tallies and fold them into the shared [`HookCounters`] when dropped;
//! only `Kernel::line_data` and `Kernel::warp_program`, which take
//! `&self` on a kernel shared by every SM thread, count atomically.

use latte_bench::timing::Stopwatch;
use latte_cache::LineAddr;
use latte_compress::{CacheLine, Compression, CompressionAlgo, Cycles};
use latte_gpusim::{
    AccessEvent, EpProbe, Kernel, L1CompressionPolicy, Op, OpStream, PolicyReport, ShadowCheck,
    ShadowCheckpoint,
};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One call in this many is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Every decorated call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    PolicyName,
    CompressFill,
    DecompressionLatency,
    OnAccess,
    OnDecodeError,
    OnEp,
    OnKernelStart,
    OnKernelEnd,
    PendingInvalidation,
    PolicyReport,
    CurrentModeIndex,
    Validate,
    NextOp,
    WarpProgram,
    LineData,
    OracleFill,
    OracleLoad,
    OracleStore,
    OracleCheckpoint,
}

pub const HOOKS: usize = 19;

impl Hook {
    pub const ALL: [Hook; HOOKS] = [
        Hook::PolicyName,
        Hook::CompressFill,
        Hook::DecompressionLatency,
        Hook::OnAccess,
        Hook::OnDecodeError,
        Hook::OnEp,
        Hook::OnKernelStart,
        Hook::OnKernelEnd,
        Hook::PendingInvalidation,
        Hook::PolicyReport,
        Hook::CurrentModeIndex,
        Hook::Validate,
        Hook::NextOp,
        Hook::WarpProgram,
        Hook::LineData,
        Hook::OracleFill,
        Hook::OracleLoad,
        Hook::OracleStore,
        Hook::OracleCheckpoint,
    ];

    /// `<crate>.<method>`, the prefix of the hook's metric names.
    pub fn name(self) -> &'static str {
        match self {
            Hook::PolicyName => "core.name",
            Hook::CompressFill => "core.compress_fill",
            Hook::DecompressionLatency => "core.decompression_latency",
            Hook::OnAccess => "core.on_access",
            Hook::OnDecodeError => "core.on_decode_error",
            Hook::OnEp => "core.on_ep",
            Hook::OnKernelStart => "core.on_kernel_start",
            Hook::OnKernelEnd => "core.on_kernel_end",
            Hook::PendingInvalidation => "core.pending_invalidation",
            Hook::PolicyReport => "core.report",
            Hook::CurrentModeIndex => "core.current_mode_index",
            Hook::Validate => "core.validate",
            Hook::NextOp => "workloads.next_op",
            Hook::WarpProgram => "workloads.warp_program",
            Hook::LineData => "workloads.line_data",
            Hook::OracleFill => "oracle.on_fill",
            Hook::OracleLoad => "oracle.on_load",
            Hook::OracleStore => "oracle.on_store",
            Hook::OracleCheckpoint => "oracle.on_checkpoint",
        }
    }

    fn is_policy(self) -> bool {
        (self as usize) < Hook::NextOp as usize
    }

    fn is_oracle(self) -> bool {
        (self as usize) >= Hook::OracleFill as usize
    }
}

/// Call counts and estimated host nanoseconds per hook, shared by every
/// decorator of one traced pass.
#[derive(Debug, Default)]
pub struct HookCounters {
    calls: [AtomicU64; HOOKS],
    ns: [AtomicU64; HOOKS],
}

impl HookCounters {
    pub fn calls(&self, hook: Hook) -> u64 {
        self.calls[hook as usize].load(Ordering::Relaxed)
    }

    pub fn secs(&self, hook: Hook) -> f64 {
        self.ns[hook as usize].load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Total calls and seconds over the policy hooks (the `core` layer).
    pub fn policy_total(&self) -> (u64, f64) {
        self.total(Hook::is_policy)
    }

    /// Total calls and seconds over the oracle hooks.
    pub fn oracle_total(&self) -> (u64, f64) {
        self.total(Hook::is_oracle)
    }

    fn total(&self, pick: fn(Hook) -> bool) -> (u64, f64) {
        Hook::ALL
            .into_iter()
            .filter(|&h| pick(h))
            .fold((0, 0.0), |(c, s), h| (c + self.calls(h), s + self.secs(h)))
    }

    fn add(&self, hook: Hook, calls: u64, secs: f64) {
        self.calls[hook as usize].fetch_add(calls, Ordering::Relaxed);
        self.ns[hook as usize].fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
    }
}

/// One decorator's private tally, folded into the shared counters on
/// drop. `Cell`s because several trait methods take `&self`.
#[derive(Debug)]
struct Tally {
    calls: [Cell<u64>; HOOKS],
    secs: [Cell<f64>; HOOKS],
    sink: Arc<HookCounters>,
}

impl Tally {
    fn new(sink: Arc<HookCounters>) -> Tally {
        Tally {
            calls: Default::default(),
            secs: Default::default(),
            sink,
        }
    }

    fn time<R>(&self, hook: Hook, call: impl FnOnce() -> R) -> R {
        let i = hook as usize;
        let n = self.calls[i].get();
        self.calls[i].set(n + 1);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return call();
        }
        let watch = Stopwatch::start();
        let out = call();
        self.secs[i].set(self.secs[i].get() + watch.elapsed_secs() * SAMPLE_EVERY as f64);
        out
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        for hook in Hook::ALL {
            let calls = self.calls[hook as usize].get();
            if calls > 0 {
                self.sink.add(hook, calls, self.secs[hook as usize].get());
            }
        }
    }
}

/// Forwards every method of a compression policy, counting each call.
pub struct CountingPolicy {
    inner: Box<dyn L1CompressionPolicy>,
    tally: Tally,
}

impl CountingPolicy {
    pub fn new(inner: Box<dyn L1CompressionPolicy>, sink: Arc<HookCounters>) -> CountingPolicy {
        CountingPolicy {
            inner,
            tally: Tally::new(sink),
        }
    }
}

impl L1CompressionPolicy for CountingPolicy {
    fn name(&self) -> &'static str {
        self.tally.time(Hook::PolicyName, || self.inner.name())
    }

    fn compress_fill(&mut self, set: usize, line: &CacheLine) -> (CompressionAlgo, Compression) {
        let inner = &mut self.inner;
        self.tally
            .time(Hook::CompressFill, || inner.compress_fill(set, line))
    }

    fn decompression_latency(&self, algo: CompressionAlgo) -> Cycles {
        self.tally.time(Hook::DecompressionLatency, || {
            self.inner.decompression_latency(algo)
        })
    }

    fn on_access(&mut self, ev: &AccessEvent) {
        let inner = &mut self.inner;
        self.tally.time(Hook::OnAccess, || inner.on_access(ev));
    }

    fn on_decode_error(&mut self, algo: CompressionAlgo) {
        let inner = &mut self.inner;
        self.tally
            .time(Hook::OnDecodeError, || inner.on_decode_error(algo));
    }

    fn on_ep(&mut self, probe: &EpProbe) {
        let inner = &mut self.inner;
        self.tally.time(Hook::OnEp, || inner.on_ep(probe));
    }

    fn on_kernel_start(&mut self) {
        let inner = &mut self.inner;
        self.tally
            .time(Hook::OnKernelStart, || inner.on_kernel_start());
    }

    fn on_kernel_end(&mut self) {
        let inner = &mut self.inner;
        self.tally.time(Hook::OnKernelEnd, || inner.on_kernel_end());
    }

    fn pending_invalidation(&mut self) -> Option<CompressionAlgo> {
        let inner = &mut self.inner;
        self.tally
            .time(Hook::PendingInvalidation, || inner.pending_invalidation())
    }

    fn report(&self) -> PolicyReport {
        self.tally.time(Hook::PolicyReport, || self.inner.report())
    }

    fn current_mode_index(&self) -> Option<usize> {
        self.tally
            .time(Hook::CurrentModeIndex, || self.inner.current_mode_index())
    }

    fn validate(&self) -> Result<(), String> {
        self.tally.time(Hook::Validate, || self.inner.validate())
    }
}

/// Forwards a kernel, counting the streams it hands out and every
/// `line_data` refill.
pub struct CountingKernel<'k> {
    inner: &'k dyn Kernel,
    sink: Arc<HookCounters>,
}

impl<'k> CountingKernel<'k> {
    pub fn new(inner: &'k dyn Kernel, sink: Arc<HookCounters>) -> CountingKernel<'k> {
        CountingKernel { inner, sink }
    }

    /// Counts one shared-`&self` call, timing it when its index is due.
    fn time<R>(&self, hook: Hook, call: impl FnOnce() -> R) -> R {
        let i = hook as usize;
        let n = self.sink.calls[i].fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return call();
        }
        let watch = Stopwatch::start();
        let out = call();
        let ns = watch.elapsed_secs() * SAMPLE_EVERY as f64 * 1e9;
        self.sink.ns[i].fetch_add(ns as u64, Ordering::Relaxed);
        out
    }
}

impl Kernel for CountingKernel<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn warps_on_sm(&self, sm: usize) -> usize {
        self.inner.warps_on_sm(sm)
    }

    fn warp_program(&self, sm: usize, warp: usize) -> Box<dyn OpStream> {
        let inner = self.time(Hook::WarpProgram, || self.inner.warp_program(sm, warp));
        Box::new(CountingStream {
            inner,
            tally: Tally::new(Arc::clone(&self.sink)),
        })
    }

    fn line_data(&self, addr: LineAddr) -> CacheLine {
        self.time(Hook::LineData, || self.inner.line_data(addr))
    }
}

/// Forwards one warp's op stream, counting `next_op`.
struct CountingStream {
    inner: Box<dyn OpStream>,
    tally: Tally,
}

impl OpStream for CountingStream {
    fn next_op(&mut self) -> Op {
        let inner = &mut self.inner;
        self.tally.time(Hook::NextOp, || inner.next_op())
    }
}

/// Forwards the differential oracle's hook, counting each call.
pub struct CountingShadow {
    inner: Box<dyn ShadowCheck>,
    tally: Tally,
}

impl CountingShadow {
    pub fn new(inner: Box<dyn ShadowCheck>, sink: Arc<HookCounters>) -> CountingShadow {
        CountingShadow {
            inner,
            tally: Tally::new(sink),
        }
    }
}

impl ShadowCheck for CountingShadow {
    fn on_fill(&mut self, sm: usize, addr: LineAddr, data: &CacheLine, cycle: Cycles) {
        let inner = &mut self.inner;
        self.tally
            .time(Hook::OracleFill, || inner.on_fill(sm, addr, data, cycle));
    }

    fn on_load(&mut self, sm: usize, addr: LineAddr, observed: Option<&CacheLine>, cycle: Cycles) {
        let inner = &mut self.inner;
        self.tally.time(Hook::OracleLoad, || {
            inner.on_load(sm, addr, observed, cycle)
        });
    }

    fn on_store(&mut self, sm: usize, addr: LineAddr, data: &CacheLine, cycle: Cycles) {
        let inner = &mut self.inner;
        self.tally
            .time(Hook::OracleStore, || inner.on_store(sm, addr, data, cycle));
    }

    fn on_checkpoint(
        &mut self,
        sm: usize,
        cycle: Cycles,
        kind: ShadowCheckpoint,
        structural_errors: &[String],
    ) {
        let inner = &mut self.inner;
        self.tally.time(Hook::OracleCheckpoint, || {
            inner.on_checkpoint(sm, cycle, kind, structural_errors);
        });
    }
}

/// One recorded span: a named interval, its cause, and seconds since the
/// log started.
#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    label: String,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// Spans of one traced run, kept in memory until the run ends. A span's
/// id is its index.
#[derive(Debug)]
pub struct SpanLog {
    clock: Stopwatch,
    spans: Vec<SpanRec>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            clock: Stopwatch::start(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, label: String, parent: Option<usize>) -> usize {
        let now = self.clock.elapsed_secs();
        self.spans.push(SpanRec {
            name,
            label,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let now = self.clock.elapsed_secs();
        if let Some(span) = self.spans.get_mut(id) {
            span.end = now;
        }
    }

    /// Renders the log and `counters` as the trace file's JSON.
    pub fn to_json(&self, workload: &str, seed: u64, counters: &[(String, f64)]) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [");
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n  {{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"label\": \"{}\", \"start_s\": {}, \"end_s\": {}}}",
                s.name,
                s.label.replace(['"', '\\'], "_"),
                crate::metrics::number(s.start),
                crate::metrics::number(s.end)
            );
        }
        out.push_str("\n], \"counters\": {");
        for (i, (name, value)) in counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n  \"{name}\": {}",
                crate::metrics::number(*value)
            );
        }
        out.push_str("\n}}\n");
        out
    }
}
