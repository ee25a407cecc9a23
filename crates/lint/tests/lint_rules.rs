//! Fixture-driven rule tests plus end-to-end runs of the `latte-lint`
//! binary, and the self-test that keeps the workspace itself clean.
//!
//! Fixtures live in `tests/fixtures/` (a directory cargo does not
//! compile and the scanner skips); each is lexed and checked as if it
//! were library code of a simulation crate.

use latte_lint::{scan_source, Analysis, Class, Violation};
use std::fs;
use std::path::Path;
use std::process::Command;

/// Scans fixture source as if it were sim-crate library code and
/// returns the distinct rule ids that fired.
fn rules_fired(src: &str) -> Vec<&'static str> {
    let violations = scan_source("crates/gpusim/src/fixture.rs", src);
    let mut ids: Vec<&'static str> = violations.iter().map(|v| v.rule).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn assert_clean(name: &str, src: &str) {
    let violations = scan_source("crates/gpusim/src/fixture.rs", src);
    assert!(
        violations.is_empty(),
        "{name} should be clean, got: {violations:?}"
    );
}

#[test]
fn d1_wall_clock_in_sim_lib_fires() {
    let fired = rules_fired(include_str!("fixtures/d1_fail.rs"));
    assert_eq!(fired, ["D1"]);
}

#[test]
fn d1_simulated_time_and_test_code_pass() {
    assert_clean("d1_pass", include_str!("fixtures/d1_pass.rs"));
}

#[test]
fn d2_ambient_randomness_fires() {
    let fired = rules_fired(include_str!("fixtures/d2_fail.rs"));
    assert_eq!(fired, ["D2"]);
}

#[test]
fn d2_seeded_prng_passes() {
    assert_clean("d2_pass", include_str!("fixtures/d2_pass.rs"));
}

#[test]
fn d2_fires_even_in_test_code() {
    // D2 has no test exemption: a seeded stream is required everywhere.
    let src = "#[cfg(test)]\nmod tests {\n    fn f() { let r = thread_rng(); }\n}\n";
    let fired = rules_fired(src);
    assert_eq!(fired, ["D2"]);
}

#[test]
fn d3_unannotated_hash_container_fires() {
    let fired = rules_fired(include_str!("fixtures/d3_fail.rs"));
    assert_eq!(fired, ["D3"]);
}

#[test]
fn d3_annotated_hash_container_passes() {
    assert_clean("d3_pass", include_str!("fixtures/d3_pass.rs"));
}

#[test]
fn d3_does_not_apply_outside_sim_crates() {
    let src = include_str!("fixtures/d3_fail.rs");
    let violations = scan_source("crates/bench/src/runner.rs", src);
    assert!(violations.is_empty(), "driver crates may use HashMap freely");
}

#[test]
fn d4_raw_print_in_sim_lib_fires() {
    let fired = rules_fired(include_str!("fixtures/d4_fail.rs"));
    assert_eq!(fired, ["D4"]);
}

#[test]
fn d4_sink_based_output_passes() {
    assert_clean("d4_pass", include_str!("fixtures/d4_pass.rs"));
}

#[test]
fn d4_does_not_apply_to_binaries() {
    let src = include_str!("fixtures/d4_fail.rs");
    let violations = scan_source("crates/bench/src/main.rs", src);
    assert!(violations.is_empty(), "binaries own stdout; D4 is lib-only");
}

#[test]
fn p1_panicking_library_code_fires() {
    let fired = rules_fired(include_str!("fixtures/p1_fail.rs"));
    assert_eq!(fired, ["P1"]);
    // All three constructs (unwrap, panic!, todo!) are reported.
    let violations = scan_source(
        "crates/gpusim/src/fixture.rs",
        include_str!("fixtures/p1_fail.rs"),
    );
    assert_eq!(violations.len(), 3, "{violations:?}");
}

#[test]
fn p1_fallible_code_and_test_unwraps_pass() {
    assert_clean("p1_pass", include_str!("fixtures/p1_pass.rs"));
}

#[test]
fn f1_non_atomic_writes_in_store_code_fire() {
    let violations = scan_source(
        "crates/store/src/fixture.rs",
        include_str!("fixtures/f1_fail.rs"),
    );
    let f1 = violations.iter().filter(|v| v.rule == "F1").count();
    // fs::write, File::create, and fs::OpenOptions::new each fire once.
    assert_eq!(f1, 3, "{violations:?}");
}

#[test]
fn f1_temp_rename_and_reads_and_tests_pass() {
    let violations = scan_source(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/f1_pass.rs"),
    );
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn f1_does_not_apply_outside_bench_and_store() {
    let violations = scan_source(
        "crates/gpusim/src/fixture.rs",
        include_str!("fixtures/f1_fail.rs"),
    );
    assert!(
        violations.iter().all(|v| v.rule != "F1"),
        "sim crates never write files; F1 is scoped to bench/store: {violations:?}"
    );
}

#[test]
fn f1_does_not_apply_to_test_targets() {
    let violations = scan_source(
        "crates/store/tests/fixture.rs",
        include_str!("fixtures/f1_fail.rs"),
    );
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn a0_markers_without_reasons_fire_and_do_not_suppress() {
    let violations = scan_source(
        "crates/gpusim/src/fixture.rs",
        include_str!("fixtures/a0_fail.rs"),
    );
    let a0 = violations.iter().filter(|v| v.rule == "A0").count();
    assert_eq!(a0, 2, "both bad markers are A0 violations: {violations:?}");
    // The malformed markers must not silence the sites they annotate.
    assert!(violations.iter().any(|v| v.rule == "D3"), "{violations:?}");
    assert!(violations.iter().any(|v| v.rule == "D4"), "{violations:?}");
}

#[test]
fn s1_unpartitionable_state_fires() {
    let src = include_str!("fixtures/s1_fail.rs");
    let fired = rules_fired(src);
    assert_eq!(fired, ["S1"]);
    let violations = scan_source("crates/gpusim/src/fixture.rs", src);
    // Rc/RefCell, raw pointer, unannotated Arc, non-Send dyn, static mut.
    assert_eq!(violations.len(), 5, "{violations:?}");
    let msgs: String = violations.iter().map(|v| v.message.as_str()).collect();
    assert!(msgs.contains("non-Send shared-mutability type `Rc`"), "{msgs}");
    assert!(msgs.contains("raw pointer"), "{msgs}");
    assert!(msgs.contains("shared handle (`Arc`)"), "{msgs}");
    assert!(msgs.contains("`dyn Hooks` has no Send bound"), "{msgs}");
    assert!(msgs.contains("`static mut`"), "{msgs}");
}

#[test]
fn s1_partitionable_state_passes() {
    assert_clean("s1_pass", include_str!("fixtures/s1_pass.rs"));
}

#[test]
fn s1_partition_report_classifies_fields() {
    let analysis = Analysis::new(vec![(
        "crates/gpusim/src/fixture.rs".to_owned(),
        include_str!("fixtures/s1_pass.rs").to_owned(),
    )])
    .run();
    let p = &analysis.partition;
    assert_eq!(p.roots, ["Sm"]);
    assert!(p.is_clean());
    let class_of = |owner: &str, field: &str| {
        p.fields
            .iter()
            .find(|e| e.owner == owner && e.field == field)
            .map(|e| e.class)
    };
    assert_eq!(class_of("Sm", "warps"), Some(Class::PerSm));
    assert_eq!(class_of("Warp", "pc"), Some(Class::PerSm), "closure descends into Warp");
    assert_eq!(class_of("Sm", "shared_cycles"), Some(Class::Shared));
    let annotated = p
        .fields
        .iter()
        .find(|e| e.field == "shared_cycles")
        .unwrap();
    assert!(annotated.reason.as_deref().unwrap_or("").contains("commutative atomic adds"));
}

#[test]
fn t1_taint_fires_on_iteration_and_tainted_calls() {
    let src = include_str!("fixtures/t1_fail.rs");
    let fired = rules_fired(src);
    assert_eq!(fired, ["T1"]);
    let violations = scan_source("crates/gpusim/src/fixture.rs", src);
    assert_eq!(violations.len(), 2, "{violations:?}");
    assert!(
        violations.iter().any(|v| v.message.contains("hash-container iteration")),
        "{violations:?}"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.message.contains("nondeterministic function")
                && v.message.contains("wall-clock")),
        "{violations:?}"
    );
}

#[test]
fn t1_barriers_suppress_and_stop_propagation() {
    assert_clean("t1_pass", include_str!("fixtures/t1_pass.rs"));
}

#[test]
fn a1_stale_markers_fire() {
    let src = include_str!("fixtures/a1_fail.rs");
    let fired = rules_fired(src);
    assert_eq!(fired, ["A1"]);
    let violations = scan_source("crates/gpusim/src/fixture.rs", src);
    // Stale allow(D3), stale shared-boundary, stale allow(P1).
    assert_eq!(violations.len(), 3, "{violations:?}");
}

#[test]
fn a1_used_markers_pass() {
    assert_clean("a1_pass", include_str!("fixtures/a1_pass.rs"));
}

#[test]
fn violations_carry_precise_locations() {
    let violations = scan_source(
        "crates/gpusim/src/fixture.rs",
        include_str!("fixtures/d1_fail.rs"),
    );
    let v: &Violation = violations.first().unwrap();
    assert_eq!(v.path, "crates/gpusim/src/fixture.rs");
    // `use std::time::Instant;` is line 3 of the fixture.
    assert_eq!((v.line, v.col), (3, 16), "{v:?}");
    assert!(v.snippet.contains("Instant"));
}

// ---------------------------------------------------------------------------
// End-to-end: run the compiled binary against a synthetic workspace.
// ---------------------------------------------------------------------------

/// Builds `<tmp>/<name>/{Cargo.toml, crates/gpusim/src/lib.rs}` with the
/// given library source and returns the workspace root.
fn synth_workspace(name: &str, lib_src: &str) -> std::path::PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src_dir = root.join("crates/gpusim/src");
    fs::create_dir_all(&src_dir).unwrap();
    fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    fs::write(src_dir.join("lib.rs"), lib_src).unwrap();
    root
}

fn run_lint(root: &Path, extra: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_latte-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn binary_reports_violations_with_exit_code_one() {
    let root = synth_workspace("lint_e2e_fail", include_str!("fixtures/d1_fail.rs"));
    let (code, stdout, _) = run_lint(&root, &[]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("crates/gpusim/src/lib.rs:3:16"), "{stdout}");
    assert!(stdout.contains("[D1]"), "{stdout}");

    let (code, stdout, _) = run_lint(&root, &["--format", "json"]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("\"clean\":false"), "{stdout}");
    assert!(stdout.contains("\"rule\":\"D1\""), "{stdout}");
}

#[test]
fn binary_exits_zero_on_clean_tree() {
    let root = synth_workspace("lint_e2e_pass", include_str!("fixtures/d1_pass.rs"));
    let (code, stdout, _) = run_lint(&root, &["--format", "json"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("\"clean\":true"), "{stdout}");
}

#[test]
fn binary_writes_partition_report_and_flags_s1() {
    let root = synth_workspace("lint_e2e_s1", include_str!("fixtures/s1_fail.rs"));
    let (code, stdout, _) = run_lint(&root, &[]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("[S1]"), "{stdout}");
    let partition = fs::read_to_string(root.join("results/lint_partition.json")).unwrap();
    assert!(partition.contains("\"clean\":false"), "{partition}");
    assert!(partition.contains("\"class\":\"violating\""), "{partition}");
}

#[test]
fn binary_explains_rules() {
    let out = Command::new(env!("CARGO_BIN_EXE_latte-lint"))
        .args(["--explain", "T1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("barrier"), "{stdout}");
    let out = Command::new(env!("CARGO_BIN_EXE_latte-lint"))
        .args(["--explain", "Z9"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn binary_rejects_bad_usage_and_missing_root() {
    let (code, _, stderr) = run_lint(Path::new("/nonexistent-latte-root"), &[]);
    assert_eq!(code, Some(2), "{stderr}");
    let out = Command::new(env!("CARGO_BIN_EXE_latte-lint"))
        .arg("--format")
        .arg("yaml")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

// ---------------------------------------------------------------------------
// Self-test: the workspace this crate lives in must be clean.
// ---------------------------------------------------------------------------

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .unwrap();
    let report = latte_lint::scan_workspace(root).unwrap();
    assert!(report.files_scanned > 20, "walked {} files", report.files_scanned);
    for v in &report.violations {
        eprintln!("{}:{}:{}: [{}] {}", v.path, v.line, v.col, v.rule, v.message);
    }
    assert!(
        report.is_clean(),
        "workspace has {} lint violation(s); see stderr",
        report.violations.len()
    );
}

#[test]
fn workspace_partition_is_clean_and_sm_is_per_sm() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .unwrap();
    let analysis = latte_lint::analyze_workspace(root).unwrap();
    let p = &analysis.partition;
    assert_eq!(p.roots, ["Sm", "MemCtx", "Gpu"]);
    let (per_sm, shared, violating) = p.counts();
    assert_eq!(violating, 0, "unexplained partition violations: {:?}", {
        let mut bad: Vec<_> = p
            .fields
            .iter()
            .chain(&p.statics)
            .filter(|e| e.class == Class::Violating)
            .map(|e| format!("{}.{} ({})", e.owner, e.field, e.path))
            .collect();
        bad.sort();
        bad
    });
    assert!(per_sm > 100, "closure unexpectedly small: {per_sm} per-SM fields");
    assert!(shared >= 9, "expected the MemCtx/L2/stats boundaries: {shared}");
    // The tentpole claim: everything Sm itself owns is per-SM movable.
    assert!(
        p.fields
            .iter()
            .filter(|e| e.owner == "Sm")
            .all(|e| e.class == Class::PerSm),
        "Sm's own fields must be exclusively owned"
    );
    // Every directly-annotated shared edge carries its justification.
    assert!(
        p.fields
            .iter()
            .chain(&p.statics)
            .filter(|e| e.class == Class::Shared && e.via.is_empty())
            .all(|e| e.reason.is_some()),
        "annotated shared edges must carry reasons"
    );
}
