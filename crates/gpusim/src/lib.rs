//! A cycle-level, trace-driven GPU simulator — the substrate on which the
//! LATTE-CC reproduction runs.
//!
//! The paper implements its design in GPGPU-Sim 3.2.2; this crate rebuilds
//! the parts of that infrastructure the contribution actually depends on:
//!
//! * **SMs and warps** — up to 48 warps per SM execute lazily-generated
//!   instruction streams ([`Op`]); warps block on loads and barriers and
//!   hide each other's latency exactly as in hardware.
//! * **Warp scheduling** — Greedy-Then-Oldest (the paper's scheduler) and
//!   loose round-robin, two schedulers per SM, with the probe counters the
//!   latency-tolerance estimator of Eq. (4) needs.
//! * **Memory hierarchy** — a compressed L1 per SM (4× tags, 32 B
//!   sub-blocks), MSHRs with miss merging, a decompression queue on the
//!   hit path (Eq. 3), a shared L2 and a fixed-latency DRAM behind it
//!   (Table II latencies).
//! * **Policy hook** — [`L1CompressionPolicy`], through which LATTE-CC
//!   and the baseline schemes decide, per fill, how to compress.
//! * **Experimental phases** — per-SM EP accounting (256 L1 accesses per
//!   EP) driving the policy's learning/adaptive machinery.
//!
//! # Example
//!
//! ```
//! use latte_gpusim::testing::StridedKernel;
//! use latte_gpusim::{Gpu, GpuConfig, UncompressedPolicy};
//!
//! let mut gpu = Gpu::new(&GpuConfig::small(), |_| Box::new(UncompressedPolicy));
//! let stats = gpu.run_kernel(&StridedKernel::new(8, 128, 256));
//! println!("IPC = {:.2}", stats.ipc());
//! # assert!(stats.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod faults;
mod fingerprint;
mod gpu;
mod ops;
mod parallel;
mod policy;
mod scheduler;
mod shadow;
mod sm;
mod stats;
pub mod testing;
mod warp;

pub use config::{GpuConfig, SchedulerKind};
pub use faults::{BitflipOutcome, FaultConfig, FaultInjector, FaultStats};
pub use fingerprint::{Fingerprinter, FINGERPRINT_SCHEMA_VERSION};
pub use gpu::Gpu;
pub use ops::{Kernel, Op, OpStream, VecStream};
pub use parallel::{install_epoch_clock, EpochStats, ARBITER_SHARED_FIELDS};
pub use policy::{
    AccessEvent, EpProbe, FillLine, L1CompressionPolicy, PolicyReport, UncompressedPolicy,
};
pub use scheduler::{SchedulerProbe, WarpScheduler};
pub use shadow::{
    roundtrip_stored, ShadowCheck, ShadowCheckpoint, ShadowConfig, ShadowViolation,
    ShadowViolationKind,
};
pub use sm::{EventQueue, MemEvent, PayloadId};
pub use stats::{AlgoCounts, EpTraceEntry, KernelStats, TerminationReason};
pub use warp::{Warp, WarpState};
