//! Shared experiment infrastructure for the LATTE-CC reproduction: policy
//! construction, benchmark runners, and report formatting. The
//! `latte-bench` binary dispatches one subcommand per paper table/figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed `io::Result`s the
// experiment driver can report — never panics (tests may unwrap
// freely). Enforced here rather than via clippy's command line because
// `-D clippy::unwrap_used` on the command line also gates this crate's
// whole path-dependency closure.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod driver;
pub mod experiments;
pub mod pool;
mod report;
pub mod runner;
pub mod sim;
pub mod timing;

pub use driver::{
    run_experiments, run_experiments_with_outcomes, Experiment, ExperimentOutcome,
};
pub use runner::{
    fault_injection, geomean, latte_overrides, run_benchmark, run_benchmark_shadowed,
    run_benchmark_uncached, run_benchmark_with_config, set_fault_injection, set_latte_overrides,
    set_shadow_check, set_sim_threads, set_write_back, shadow_check_enabled, sim_threads,
    write_back_enabled, BenchResult, LatteOverrides, PolicyKind, ShadowTally, ALL_POLICIES,
};
pub use sim::shadow_tally;
