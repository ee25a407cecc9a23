//! Workspace walking, the two-pass analysis pipeline, and the `A1`
//! stale-allow audit.
//!
//! Pass 1 lexes + parses every in-scope file into a [`FileUnit`]. Pass 2
//! runs the lexer-tier rules pre-suppression ([`crate::rules::check_raw`])
//! plus the graph-tier analyses ([`crate::graph`] for S1,
//! [`crate::taint`] for T1) over the whole unit set, then applies
//! suppressions while recording which markers actually earned their
//! keep. Any marker that suppressed nothing (and never served as a T1
//! barrier or a consumed shared-boundary annotation) is itself reported
//! as `A1`.

use crate::graph;
use crate::lexer::{lex, LexOutput};
use crate::parser::{parse, ParsedFile};
use crate::rules::{
    check_raw, is_unsuppressible, marker_covers, rule, FileContext, FileKind, Severity, Violation,
    SIM_CRATES,
};
use crate::taint;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never descended into.
///
/// * `target` — build output.
/// * `vendor` — offline API-subset shims of third-party crates
///   (proptest/criterion); they are not this project's code and
///   legitimately contain RNG plumbing.
/// * `fixtures` — latte-lint's own test fixtures, which *deliberately*
///   violate the rules.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git", "results"];

/// One in-scope source file, fully lexed and parsed. The graph-tier
/// analyses index into a slice of these by position.
#[derive(Debug)]
pub struct FileUnit {
    /// Workspace-relative path (forward slashes).
    pub rel_path: String,
    /// Classification (crate, sim-ness, target kind).
    pub ctx: FileContext,
    /// Raw source text.
    pub src: String,
    /// Token stream, markers, boundary annotations.
    pub lex: LexOutput,
    /// Item-level parse (structs, fns, calls, uses, ...).
    pub parsed: ParsedFile,
}

/// Result of scanning a tree.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// All violations, in path order.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files checked.
    pub files_scanned: usize,
}

impl ScanReport {
    /// `true` when no violation was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Everything a full analysis produces: the violation report plus the
/// S1 partition classification.
#[derive(Debug, Default)]
pub struct AnalysisReport {
    /// Violations + file count.
    pub report: ScanReport,
    /// The Send-partitionability classification
    /// (`results/lint_partition.json`).
    pub partition: graph::PartitionReport,
    /// Every tainted function with its cause chain (for `--graph`).
    pub tainted: Vec<taint::TaintedFn>,
}

/// The two-pass analyzer over a set of source files.
#[derive(Debug, Default)]
pub struct Analysis {
    files: Vec<FileUnit>,
}

impl Analysis {
    /// Builds the unit set from `(rel_path, source)` pairs, dropping
    /// out-of-scope paths.
    #[must_use]
    pub fn new(sources: Vec<(String, String)>) -> Self {
        let mut files = Vec::new();
        for (rel_path, src) in sources {
            let Some(ctx) = classify(&rel_path) else {
                continue;
            };
            let lexed = lex(&src);
            let parsed = parse(&lexed.tokens);
            files.push(FileUnit { rel_path, ctx, src, lex: lexed, parsed });
        }
        Analysis { files }
    }

    /// The analyzed units, in input order.
    #[must_use]
    pub fn files(&self) -> &[FileUnit] {
        &self.files
    }

    /// Runs every tier and assembles the final report.
    #[must_use]
    pub fn run(&self) -> AnalysisReport {
        let idx = graph::TypeIndex::build(&self.files);
        let s1 = graph::analyze(&idx);
        let t1 = taint::analyze(&idx);

        // Markers earn their keep by suppressing a raw finding, serving
        // as a T1 taint barrier, or annotating a genuinely shared field.
        let mut used_allow: BTreeSet<(usize, u32)> = t1.barrier_uses.clone();
        let used_boundary: &BTreeSet<(usize, u32)> = &s1.used_boundaries;

        let mut kept: Vec<Violation> = Vec::new();
        let mut suppress = |fi: usize, unit: &FileUnit, v: Violation, out: &mut Vec<Violation>| {
            if is_unsuppressible(v.rule) {
                out.push(v);
                return;
            }
            let mut suppressed = false;
            for m in &unit.lex.markers {
                if m.rule == v.rule && marker_covers(m.file_scope, m.line, v.line) {
                    used_allow.insert((fi, m.line));
                    suppressed = true;
                }
            }
            if !suppressed {
                out.push(v);
            }
        };

        for (fi, unit) in self.files.iter().enumerate() {
            for v in check_raw(&unit.rel_path, &unit.src, &unit.lex, &unit.ctx) {
                suppress(fi, unit, v, &mut kept);
            }
        }
        for v in s1.violations.into_iter().chain(t1.violations) {
            if let Some(fi) = self.files.iter().position(|u| u.rel_path == v.path) {
                suppress(fi, &self.files[fi], v, &mut kept);
            } else {
                kept.push(v);
            }
        }

        // A1: every surviving marker must have done something.
        for (fi, unit) in self.files.iter().enumerate() {
            for m in &unit.lex.markers {
                // Unknown-rule and allow(A0)/allow(A1) markers are A0
                // findings already; flagging them A1 too is noise.
                if rule(&m.rule).is_none() || is_unsuppressible(&m.rule) {
                    continue;
                }
                if !used_allow.contains(&(fi, m.line)) {
                    kept.push(Violation {
                        rule: "A1",
                        severity: Severity::Error,
                        path: unit.rel_path.clone(),
                        line: m.line,
                        col: 1,
                        message: format!(
                            "stale suppression: rule `{}` no longer fires in this marker's \
                             scope; delete the marker",
                            m.rule
                        ),
                        snippet: snippet_of(unit, m.line),
                    });
                }
            }
            for b in &unit.lex.boundaries {
                if !used_boundary.contains(&(fi, b.line)) {
                    kept.push(Violation {
                        rule: "A1",
                        severity: Severity::Error,
                        path: unit.rel_path.clone(),
                        line: b.line,
                        col: 1,
                        message: "stale shared-boundary marker: it annotates no field or \
                                  static holding a shared capability; delete the marker"
                            .to_owned(),
                        snippet: snippet_of(unit, b.line),
                    });
                }
            }
        }

        kept.sort_by(|a, b| {
            (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule))
        });
        AnalysisReport {
            report: ScanReport { violations: kept, files_scanned: self.files.len() },
            partition: s1.partition,
            tainted: t1.tainted,
        }
    }
}

fn snippet_of(unit: &FileUnit, line: u32) -> String {
    unit.src
        .lines()
        .nth(line.saturating_sub(1) as usize)
        .map(|l| l.trim_end().to_owned())
        .unwrap_or_default()
}

/// Classifies a workspace-relative path, or returns `None` when the file
/// is out of scope for linting.
#[must_use]
pub fn classify(rel_path: &str) -> Option<FileContext> {
    let parts: Vec<&str> = rel_path.split('/').filter(|p| !p.is_empty()).collect();
    if parts.iter().any(|p| SKIP_DIRS.contains(p)) {
        return None;
    }
    match parts.as_slice() {
        ["crates", crate_dir, rest @ ..] => {
            let crate_name = (*crate_dir).to_owned();
            let is_sim_crate = SIM_CRATES.contains(crate_dir);
            let kind = match rest {
                ["src", "main.rs"] | ["src", "bin", ..] | ["build.rs"] => FileKind::Bin,
                ["src", ..] => FileKind::Lib,
                ["tests", ..] | ["benches", ..] => FileKind::Test,
                ["examples", ..] => FileKind::Example,
                _ => return None,
            };
            Some(FileContext {
                crate_name: Some(crate_name),
                is_sim_crate,
                kind,
            })
        }
        // Repository-root integration tests and examples belong to the
        // bench (driver) crate via explicit [[test]]/[[example]] paths.
        ["tests", ..] => Some(FileContext {
            crate_name: Some("bench".to_owned()),
            is_sim_crate: false,
            kind: FileKind::Test,
        }),
        ["examples", ..] => Some(FileContext {
            crate_name: Some("bench".to_owned()),
            is_sim_crate: false,
            kind: FileKind::Example,
        }),
        _ => None,
    }
}

/// Runs the full analysis on one file's source under the context derived
/// from `rel_path` (graph-tier rules see just this file). Returns an
/// empty list for out-of-scope paths.
#[must_use]
pub fn scan_source(rel_path: &str, src: &str) -> Vec<Violation> {
    Analysis::new(vec![(rel_path.to_owned(), src.to_owned())])
        .run()
        .report
        .violations
}

/// Recursively collects `.rs` files under `dir`, sorted for
/// deterministic report order.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the full analysis over every in-scope `.rs` file of the
/// workspace rooted at `root`.
///
/// # Errors
///
/// Returns an error when `root` is not a workspace root (no
/// `Cargo.toml`) or a file cannot be read.
pub fn analyze_workspace(root: &Path) -> io::Result<AnalysisReport> {
    if !root.join("Cargo.toml").is_file() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} does not look like a workspace root (no Cargo.toml)", root.display()),
        ));
    }
    let mut paths = Vec::new();
    for top in ["crates", "examples", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut paths)?;
        }
    }
    let mut sources = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if classify(&rel).is_none() {
            continue;
        }
        sources.push((rel, fs::read_to_string(&path)?));
    }
    Ok(Analysis::new(sources).run())
}

/// Scans every in-scope `.rs` file of the workspace rooted at `root`
/// (violations only; see [`analyze_workspace`] for the partition
/// report).
///
/// # Errors
///
/// Returns an error when `root` is not a workspace root or a file
/// cannot be read.
pub fn scan_workspace(root: &Path) -> io::Result<ScanReport> {
    analyze_workspace(root).map(|a| a.report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_layout() {
        let lib = classify("crates/gpusim/src/sm.rs").map(|c| (c.is_sim_crate, c.kind));
        assert_eq!(lib, Some((true, FileKind::Lib)));
        let bin = classify("crates/bench/src/main.rs").map(|c| (c.is_sim_crate, c.kind));
        assert_eq!(bin, Some((false, FileKind::Bin)));
        let tool = classify("crates/bench/src/bin/tool.rs").map(|c| c.kind);
        assert_eq!(tool, Some(FileKind::Bin));
        let test = classify("crates/cache/tests/proptests.rs").map(|c| c.kind);
        assert_eq!(test, Some(FileKind::Test));
        let bench = classify("crates/bench/benches/simulator.rs").map(|c| c.kind);
        assert_eq!(bench, Some(FileKind::Test));
        let root_test = classify("tests/end_to_end.rs").map(|c| c.kind);
        assert_eq!(root_test, Some(FileKind::Test));
        let example = classify("examples/quickstart.rs").map(|c| c.kind);
        assert_eq!(example, Some(FileKind::Example));
    }

    #[test]
    fn out_of_scope_paths_are_skipped() {
        assert_eq!(classify("vendor/proptest/src/lib.rs"), None);
        assert_eq!(classify("target/debug/build/x.rs"), None);
        assert_eq!(classify("crates/lint/tests/fixtures/d1_fail.rs"), None);
        assert_eq!(classify("README.md"), None);
    }

    #[test]
    fn used_marker_survives_stale_marker_fires_a1() {
        let src = "
// latte-lint: allow(D3, reason = \"keyed access only, never iterated\")
use std::collections::HashMap;
// latte-lint: allow(D4, reason = \"nothing prints here anymore\")
fn quiet() -> u32 { 1 }
";
        let v = scan_source("crates/gpusim/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "A1");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn a1_cannot_be_suppressed() {
        let src = "
// latte-lint: allow(A1, reason = \"please ignore the audit\")
fn f() -> u32 { 1 }
";
        let v = scan_source("crates/gpusim/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "A0");
    }

    #[test]
    fn stale_boundary_marker_fires_a1() {
        let src = "
struct Sm {
    // latte-lint: shared-boundary(reason = \"this field is not actually shared\")
    counter: u64,
}
";
        let v = scan_source("crates/gpusim/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "A1");
        assert_eq!(v[0].line, 3);
    }
}
