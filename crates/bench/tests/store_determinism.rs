//! End-to-end persistent-store determinism, driven through the real
//! `latte-bench` binary so cold and warm runs are genuinely separate
//! processes (nothing in-process can leak between them):
//!
//! 1. A cold `--store` run computes and persists every simulation.
//! 2. A warm rerun computes **zero** simulations and writes
//!    byte-identical result CSVs.
//! 3. Corrupting a segment on disk costs exactly one quarantine and one
//!    recompute — never a wrong answer, never a nonzero exit.
//! 4. A `--inject-store` run (seeded, high rate) still exits 0 with
//!    byte-identical results.
//! 5. A `--store-verify` rerun re-simulates every hit, finds no
//!    divergence, and exits 0.
//! 6. A record that is well formed but wrong is caught by
//!    `--store-verify` (exit 1, one divergence) and overwritten with the
//!    recompute, so the next `--store-verify` run exits 0.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

struct Runs {
    work: PathBuf,
    store: PathBuf,
}

fn setup(tag: &str) -> Runs {
    let base = std::env::temp_dir().join(format!(
        "latte-bench-store-determinism-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&base);
    let work = base.join("work");
    let store = base.join("store");
    fs::create_dir_all(&work).expect("create work dir");
    Runs { work, store }
}

/// Runs the real binary in `work` and returns (exit code, stdout).
fn run_bench(runs: &Runs, extra: &[&str]) -> (i32, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_latte-bench"));
    cmd.current_dir(&runs.work)
        .arg("--store")
        .arg(&runs.store)
        .arg("--timings")
        .args(extra)
        .arg("fig1");
    let out = cmd.output().expect("spawn latte-bench");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Every results CSV as `name -> bytes`.
fn snapshot_results(runs: &Runs) -> BTreeMap<String, Vec<u8>> {
    let dir = runs.work.join("results");
    let mut map = BTreeMap::new();
    for entry in fs::read_dir(&dir).expect("results dir exists").flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        map.insert(name, fs::read(entry.path()).expect("read result file"));
    }
    assert!(!map.is_empty(), "fig1 must write at least one results file");
    map
}

/// The `sim cache: ...` line of a `--timings` report.
fn sim_cache_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("sim cache:"))
        .unwrap_or_else(|| panic!("no sim cache line in:\n{stdout}"))
}

fn store_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("store:") && l.contains("quarantined"))
        .unwrap_or_else(|| panic!("no store line in:\n{stdout}"))
}

fn first_segment(store: &Path) -> PathBuf {
    fs::read_dir(store.join("segments"))
        .expect("segments dir")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "rec"))
        .expect("at least one segment")
}

#[test]
fn warm_store_replays_byte_identically_and_survives_corruption() {
    let runs = setup("e2e");

    // 1. Cold: everything computes, everything persists.
    let (code, stdout) = run_bench(&runs, &[]);
    assert_eq!(code, 0, "cold run failed:\n{stdout}");
    assert!(
        !sim_cache_line(&stdout).contains(" 0 computed"),
        "cold run must compute: {}",
        sim_cache_line(&stdout)
    );
    let cold = snapshot_results(&runs);

    // 2. Warm: a fresh process computes nothing and reproduces every
    //    byte from the store alone.
    let (code, stdout) = run_bench(&runs, &[]);
    assert_eq!(code, 0, "warm run failed:\n{stdout}");
    assert!(
        sim_cache_line(&stdout).contains(" 0 computed"),
        "warm run must compute nothing: {}",
        sim_cache_line(&stdout)
    );
    assert_eq!(snapshot_results(&runs), cold, "warm run must be byte-identical");

    // 3. Corruption: truncate one segment mid-record. The damaged entry
    //    is quarantined and recomputed; output is still byte-identical.
    let victim = first_segment(&runs.store);
    let bytes = fs::read(&victim).expect("read victim segment");
    fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate victim");
    let (code, stdout) = run_bench(&runs, &[]);
    assert_eq!(code, 0, "corrupted-store run failed:\n{stdout}");
    assert!(
        store_line(&stdout).contains("1 quarantined"),
        "exactly the damaged record is quarantined: {}",
        store_line(&stdout)
    );
    assert_eq!(
        snapshot_results(&runs),
        cold,
        "corruption may cost a recompute, never a different answer"
    );
    let quarantine = runs.store.join("quarantine");
    assert!(
        fs::read_dir(&quarantine).map(|d| d.count() > 0).unwrap_or(false),
        "quarantined record is preserved for inspection"
    );

    // 4. Seeded store fault injection: reads are being actively
    //    corrupted and the run still exits 0 with identical bytes.
    let (code, stdout) = run_bench(&runs, &["--inject-store", "0.5", "--seed", "7"]);
    assert_eq!(code, 0, "--inject-store run failed:\n{stdout}");
    assert_eq!(
        snapshot_results(&runs),
        cold,
        "fault injection must never change results"
    );

    // 5. Store-verify: every surviving record byte-matches a fresh
    //    recompute.
    let (code, stdout) = run_bench(&runs, &["--store-verify"]);
    assert_eq!(code, 0, "--store-verify run failed:\n{stdout}");
    assert_eq!(snapshot_results(&runs), cold);

    // 6. A wrong but well-formed record: bump the cycle counter inside
    //    one payload and re-seal the envelope, so both the checksum and
    //    the outcome codec accept it. The first --store-verify run
    //    catches it and overwrites it with the recompute; the second
    //    finds nothing left to heal.
    let victim = first_segment(&runs.store);
    let key = victim
        .file_stem()
        .and_then(|stem| u128::from_str_radix(&stem.to_string_lossy(), 16).ok())
        .expect("segment names are hex keys");
    let sealed = fs::read(&victim).expect("read victim segment");
    let mut payload = latte_store::record::decode(&sealed, key)
        .expect("victim segment is valid")
        .to_vec();
    // Payload layout: codec version (u32), policy tag (u8), benchmark
    // abbreviation (u64 length + bytes), then the cycle count (u64).
    let abbr_len = u64::from_le_bytes(payload[5..13].try_into().expect("8 bytes")) as usize;
    payload[13 + abbr_len] ^= 0x01;
    fs::write(&victim, latte_store::record::encode(key, &payload)).expect("rewrite victim");
    let (code, stdout) = run_bench(&runs, &["--store-verify"]);
    assert_eq!(code, 1, "a wrong record must fail --store-verify:\n{stdout}");
    assert!(
        stdout.contains("store verify: 1 stored record(s) diverged"),
        "exactly the edited record diverges:\n{stdout}"
    );
    assert_eq!(snapshot_results(&runs), cold, "verify serves the recompute");
    let (code, stdout) = run_bench(&runs, &["--store-verify"]);
    assert_eq!(code, 0, "the diverging record must have been overwritten:\n{stdout}");
    assert_eq!(snapshot_results(&runs), cold);

    let _ = fs::remove_dir_all(runs.work.parent().expect("base dir"));
}

/// `sim_threads` is excluded from the simulation fingerprint, so store
/// records written by a serial process replay warm in a `--sim-threads`
/// process and vice versa — zero recomputes, byte-identical results in
/// both crossover directions.
#[test]
fn warm_store_hits_transfer_between_serial_and_sim_threads() {
    // Cold serial -> warm parallel.
    let runs = setup("simthreads-fwd");
    let (code, stdout) = run_bench(&runs, &[]);
    assert_eq!(code, 0, "cold serial run failed:\n{stdout}");
    let cold = snapshot_results(&runs);
    let (code, stdout) = run_bench(&runs, &["--sim-threads", "2"]);
    assert_eq!(code, 0, "warm --sim-threads 2 run failed:\n{stdout}");
    assert!(
        sim_cache_line(&stdout).contains(" 0 computed"),
        "serial store records must replay under --sim-threads: {}",
        sim_cache_line(&stdout)
    );
    assert_eq!(snapshot_results(&runs), cold, "forward crossover must be byte-identical");
    let _ = fs::remove_dir_all(runs.work.parent().expect("base dir"));

    // Cold parallel -> warm serial.
    let runs = setup("simthreads-rev");
    let (code, stdout) = run_bench(&runs, &["--sim-threads", "4"]);
    assert_eq!(code, 0, "cold --sim-threads 4 run failed:\n{stdout}");
    assert_eq!(
        snapshot_results(&runs),
        cold,
        "a parallel cold run must write the same bytes as a serial one"
    );
    let (code, stdout) = run_bench(&runs, &[]);
    assert_eq!(code, 0, "warm serial run failed:\n{stdout}");
    assert!(
        sim_cache_line(&stdout).contains(" 0 computed"),
        "parallel store records must replay serially: {}",
        sim_cache_line(&stdout)
    );
    assert_eq!(snapshot_results(&runs), cold, "reverse crossover must be byte-identical");
    let _ = fs::remove_dir_all(runs.work.parent().expect("base dir"));
}
