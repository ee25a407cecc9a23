//! One thread vs `--sim-threads N` byte-identity, driven through the real
//! `latte-bench` binary so every run is a genuinely separate process
//! (the sim-threads setting, fault injection and the shadow flag are
//! all process-global). The epoch-barrier scheduler's whole contract is
//! that `--sim-threads N` is an *invisible* optimisation: every results
//! file must match the one-thread run byte for byte — under clean runs,
//! under the differential oracle, and under every fault-injection
//! family, including runs that end in the deadlock watchdog.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn fresh_work(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "latte-bench-simthreads-det-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create work dir");
    dir
}

/// Runs the real binary on fig1 in its own work dir; returns
/// (exit code, results files as `name -> bytes`).
fn run_bench(tag: &str, extra: &[&str]) -> (i32, BTreeMap<String, Vec<u8>>) {
    let work = fresh_work(tag);
    let out = Command::new(env!("CARGO_BIN_EXE_latte-bench"))
        .current_dir(&work)
        .args(extra)
        .arg("fig1")
        .output()
        .expect("spawn latte-bench");
    let code = out.status.code().unwrap_or(-1);
    let mut files = BTreeMap::new();
    if let Ok(entries) = fs::read_dir(work.join("results")) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            files.insert(name, fs::read(entry.path()).expect("read result file"));
        }
    }
    let _ = fs::remove_dir_all(&work);
    (code, files)
}

/// Clean runs: `--sim-threads {2, 4}` write byte-identical results to
/// the one-thread default (4 also exercises the shard-count clamp — the
/// cheap config has fewer SMs than that on some experiments).
#[test]
fn clean_runs_are_byte_identical_across_sim_threads() {
    let (code, serial) = run_bench("clean-serial", &[]);
    assert_eq!(code, 0, "serial run failed");
    assert!(!serial.is_empty(), "fig1 must write result files");
    for threads in ["2", "4"] {
        let (code, parallel) = run_bench(
            &format!("clean-t{threads}"),
            &["--sim-threads", threads],
        );
        assert_eq!(code, 0, "--sim-threads {threads} run failed");
        assert_eq!(
            parallel, serial,
            "--sim-threads {threads} results differ from serial"
        );
    }
}

/// The differential oracle sees the same loads, fills and checkpoints
/// in the same order under the epoch barrier: a shadow-checked
/// `--sim-threads 2` run passes and matches the one-thread
/// shadow-checked run byte for byte.
#[test]
fn shadow_checked_runs_are_byte_identical_across_sim_threads() {
    let (code, serial) = run_bench("shadow-serial", &["--shadow-check"]);
    assert_eq!(code, 0, "serial shadow-checked run failed");
    let (code, parallel) =
        run_bench("shadow-t2", &["--shadow-check", "--sim-threads", "2"]);
    assert_eq!(code, 0, "parallel shadow-checked run must verify clean");
    assert_eq!(parallel, serial, "shadow-checked results differ");
}

/// Fault injection is seeded per (SM, stream position); the arbiter
/// must deliver the exact same fault sequence regardless of sharding.
/// Covers the L1-hit bit-flip, fill bit-flip and recovery-disabled
/// families in one run each.
#[test]
fn fault_injected_runs_are_byte_identical_across_sim_threads() {
    let inject: &[&str] = &["--inject", "1e-3", "--inject-fill", "1e-3", "--seed", "9"];
    let (code_s, serial) = run_bench("inject-serial", inject);
    let args_t: Vec<&str> = inject.iter().copied().chain(["--sim-threads", "2"]).collect();
    let (code_t, parallel) = run_bench("inject-t2", &args_t);
    assert_eq!(code_t, code_s, "exit codes differ under injection");
    assert_eq!(parallel, serial, "fault-injected results differ");

    let no_rec: &[&str] = &["--inject", "1e-3", "--seed", "9", "--no-fault-recovery"];
    let (code_s, serial) = run_bench("norec-serial", no_rec);
    let args_t: Vec<&str> = no_rec.iter().copied().chain(["--sim-threads", "4"]).collect();
    let (code_t, parallel) = run_bench("norec-t4", &args_t);
    assert_eq!(code_t, code_s, "exit codes differ with recovery disabled");
    assert_eq!(parallel, serial, "recovery-disabled results differ");
}

/// Wakeup drops park warps forever and trip the deadlock watchdog; the
/// coordinator's deadlock cycle formula must agree with the lone
/// shard's, so even these abnormal terminations are byte-identical.
#[test]
fn deadlocked_runs_are_byte_identical_across_sim_threads() {
    let drops: &[&str] = &["--inject-wakeup-drop", "0.05", "--seed", "3"];
    let (code_s, serial) = run_bench("drop-serial", drops);
    let args_t: Vec<&str> = drops.iter().copied().chain(["--sim-threads", "2"]).collect();
    let (code_t, parallel) = run_bench("drop-t2", &args_t);
    assert_eq!(code_t, code_s, "exit codes differ under wakeup drops");
    assert_eq!(parallel, serial, "deadlock-terminated results differ");
}
