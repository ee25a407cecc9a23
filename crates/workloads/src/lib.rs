//! Synthetic GPGPU workloads modelling the benchmark suite of the
//! LATTE-CC paper (Table III).
//!
//! The paper drives GPGPU-Sim with 20+ CUDA benchmarks from Rodinia,
//! Pannotia, Mars and the NVIDIA SDK. Those binaries cannot run here, so
//! this crate rebuilds each benchmark as a *behavioural model* with two
//! independently calibrated components:
//!
//! * a **value model** ([`ValueProfile`]/[`LineGenerator`]) that
//!   reproduces the benchmark's compressibility profile — which
//!   algorithms compress its data, and by how much (Fig 2);
//! * an **access model** ([`AccessPattern`]/[`PhaseSpec`]) that
//!   reproduces its cache sensitivity (Table III), warp parallelism and
//!   compute density (latency tolerance, Fig 1/4), and phase behaviour
//!   (Fig 5).
//!
//! [`suite`] returns all 23 benchmarks; each builds into
//! [`SyntheticKernel`]s that plug directly into `latte_gpusim::Gpu`.
//!
//! # Example
//!
//! ```
//! use latte_gpusim::{Gpu, GpuConfig, UncompressedPolicy};
//! use latte_workloads::benchmark;
//!
//! let ss = benchmark("SS").expect("similarity score exists");
//! let kernels = ss.build_kernels();
//! let mut gpu = Gpu::new(&GpuConfig { num_sms: 1, ..GpuConfig::small() },
//!                        |_| Box::new(UncompressedPolicy));
//! let stats = gpu.run_kernel(&kernels[0]);
//! assert!(stats.l1.accesses() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
#[cfg(test)]
mod pinned;
mod spec;
mod suite;
mod values;
mod write_heavy;

pub use access::AccessPattern;
pub use spec::{store_payload, BenchmarkSpec, Category, KernelSpec, PhaseSpec, SyntheticKernel};
pub use suite::{benchmark, c_insens, c_sens, suite};
pub use values::{mix64, LineGenerator, RegionSpec, ValueProfile, REGION_MASK, REGION_SHIFT};
pub use write_heavy::{write_heavy_benchmark, write_heavy_suite};
