//! **LATTE-CC**: Latency Tolerance Aware Adaptive Cache Compression
//! Management for Energy Efficient GPUs — the core contribution of the
//! HPCA 2018 paper, reproduced in Rust.
//!
//! GPU L1 data caches are capacity-starved, and cache compression can
//! expand them — but every compressed hit pays a decompression latency.
//! Whether that latency matters depends on the GPU's *latency tolerance*:
//! how many other warps are ready to execute while a hit decompresses.
//! LATTE-CC measures that tolerance at fine (experimental-phase) grain and
//! switches the L1 between three operating modes to minimise the
//! GPU-specific average memory access time ([`amat_gpu`], Eq. 2):
//!
//! * [`CompressionMode::None`] — when compression doesn't pay,
//! * [`CompressionMode::LowLatency`] — BDI, 2-cycle decompression,
//! * [`CompressionMode::HighCapacity`] — SC (14 cycles) or BPC (11).
//!
//! This crate provides the [`LatteCc`] set-sampling controller — which
//! also runs the Adaptive-Hit-Count and Adaptive-CMP baselines
//! ([`LatteCc::adaptive_hit_count`], [`LatteCc::adaptive_cmp`]) and any
//! option list, such as the four-mode None/BDI/BPC/SC extension — plus
//! the static comparison policies [`StaticBdi`], [`StaticSc`],
//! [`StaticBpc`] and the [`run_kernel_opt`] oracle. All plug into the
//! `latte-gpusim` simulator through the
//! [`latte_gpusim::L1CompressionPolicy`] hook.
//!
//! # Example
//!
//! ```
//! use latte_core::{LatteCc, LatteConfig, StaticBdi};
//! use latte_gpusim::testing::StridedKernel;
//! use latte_gpusim::{Gpu, GpuConfig};
//!
//! let kernel = StridedKernel::new(8, 400, 300);
//! let mut latte = Gpu::new(&GpuConfig::small(), |_| Box::new(LatteCc::new(LatteConfig::paper())));
//! let mut bdi = Gpu::new(&GpuConfig::small(), |_| Box::new(StaticBdi::new()));
//! let latte_stats = latte.run_kernel(&kernel);
//! let bdi_stats = bdi.run_kernel(&kernel);
//! println!("LATTE-CC {:.2} IPC vs Static-BDI {:.2} IPC", latte_stats.ipc(), bdi_stats.ipc());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod amat;
mod assist;
mod controller;
mod error;
mod kernel_opt;
mod mode;
mod sc_manager;
mod static_policies;

pub use amat::{amat_cmp, amat_gpu, ModeSample};
pub use assist::{AssistWarp, AssistWarpConfig};
pub use controller::{LatteCc, LatteConfig};
pub use error::SimError;
pub use kernel_opt::{run_kernel_opt, KernelOptKernel, KernelOptResult};
pub use mode::CompressionMode;
pub use sc_manager::ScManager;
pub use static_policies::{StaticBdi, StaticBpc, StaticSc};
