//! The parallel experiment driver: runs a batch of experiments on the
//! thread pool in [`crate::pool`], captures each experiment's stdout into
//! a private buffer, and reports finished experiments one block at a
//! time from the calling thread so tables never interleave.
//!
//! Determinism contract: a run with `--jobs N` produces byte-identical
//! `results/` files to `--jobs 1`. This holds because (a) every
//! experiment builds its whole simulator state privately and all
//! simulation RNG flows through per-SM splitmix64 streams seeded only by
//! `(seed, sm)`, (b) result files are written atomically (temp file +
//! rename) under experiment-unique names, and (c) nothing in an
//! experiment reads wall-clock time or another experiment's output.
//! Only the stdout *ordering* of finished blocks may differ between
//! runs. The contract is enforced by `crates/bench/tests/determinism.rs`.

use crate::pool;
use crate::report;
use crate::timing;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One registered experiment: name, description, entry point.
pub type Experiment = (&'static str, &'static str, fn() -> io::Result<()>);

/// Outcome of one experiment under the driver.
#[derive(Debug)]
pub struct ExperimentOutcome {
    /// Experiment name.
    pub name: &'static str,
    /// Everything the experiment printed, as one block.
    pub output: String,
    /// The experiment's result; panics are converted into errors so one
    /// crashing experiment cannot take down the batch.
    pub result: io::Result<()>,
    /// Wall-clock seconds the experiment took.
    pub secs: f64,
}

fn run_one(name: &'static str, run: fn() -> io::Result<()>) -> ExperimentOutcome {
    let watch = timing::Stopwatch::start();
    report::begin_capture();
    let result = match catch_unwind(AssertUnwindSafe(run)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            Err(io::Error::other(format!("experiment panicked: {msg}")))
        }
    };
    ExperimentOutcome {
        name,
        output: report::end_capture(),
        result,
        secs: watch.elapsed_secs(),
    }
}

/// Runs `selected` on `jobs` worker threads, printing each finished
/// experiment's output as one atomic block (completion order). Returns
/// the number of failed experiments; every experiment runs even when an
/// earlier one fails or panics.
pub fn run_experiments(selected: &[&Experiment], jobs: usize) -> usize {
    run_experiments_with_outcomes(selected, jobs).0
}

/// [`run_experiments`], additionally returning every completed
/// [`ExperimentOutcome`] in submission order (experiments whose worker
/// died are absent). The `--timings` report and the determinism
/// integration test consume the outcomes.
pub fn run_experiments_with_outcomes(
    selected: &[&Experiment],
    jobs: usize,
) -> (usize, Vec<ExperimentOutcome>) {
    let total = selected.len();
    let tasks: Vec<Box<dyn FnOnce() -> ExperimentOutcome + Send>> = selected
        .iter()
        .map(|&&(name, _, run)| {
            Box::new(move || run_one(name, run)) as Box<dyn FnOnce() -> ExperimentOutcome + Send>
        })
        .collect();

    let mut failed = 0usize;
    let mut done = 0usize;
    let outcomes = pool::run_tasks(jobs, tasks, |_, outcome: &ExperimentOutcome| {
        done += 1;
        println!("==================== {} [{done}/{total}] ====================", outcome.name);
        print!("{}", outcome.output);
        match &outcome.result {
            Ok(()) => println!("[{} done in {:.1}s]\n", outcome.name, outcome.secs),
            Err(e) => {
                failed += 1;
                eprintln!("[{} FAILED after {:.1}s: {e}]\n", outcome.name, outcome.secs);
            }
        }
    });
    // Workers only die if a panic escapes `catch_unwind` (e.g. an abort
    // in a dependency); count the experiments that never reported.
    let died = outcomes.iter().filter(|o| o.is_none()).count();
    (failed + died, outcomes.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_exp() -> io::Result<()> {
        crate::report::outln!("ok experiment output");
        Ok(())
    }

    fn err_exp() -> io::Result<()> {
        Err(io::Error::other("intentional failure"))
    }

    fn panic_exp() -> io::Result<()> {
        panic!("intentional panic");
    }

    #[test]
    fn failures_and_panics_do_not_stop_the_batch() {
        static EXPS: [Experiment; 4] = [
            ("a", "", ok_exp),
            ("b", "", err_exp),
            ("c", "", panic_exp),
            ("d", "", ok_exp),
        ];
        let selected: Vec<&Experiment> = EXPS.iter().collect();
        let failed = run_experiments(&selected, 2);
        assert_eq!(failed, 2);
    }

    #[test]
    fn panics_are_reported_as_errors_with_payload() {
        let outcome = run_one("p", panic_exp);
        let err = outcome.result.expect_err("panic must become an error");
        assert!(err.to_string().contains("intentional panic"));
    }
}
