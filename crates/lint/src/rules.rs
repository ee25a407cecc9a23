//! The lint rules and the token-stream checker.
//!
//! Every rule is named, severity-tagged and documented here; DESIGN.md's
//! "Determinism invariants" section is the prose counterpart. A rule
//! fires on a token pattern in a *context* (which crate the file belongs
//! to, whether it is library/binary/test code, whether the token sits in
//! a `#[cfg(test)]` region) and can be suppressed per-site with
//! `// latte-lint: allow(RULE, reason = "...")` — the reason is
//! mandatory and checked (rule `A0`).

use crate::lexer::{LexOutput, Tok, TokKind};

/// Crates whose code runs *inside* a simulation (anything that can
/// influence simulated results). The bench driver and this linter are
/// deliberately not listed: wall-clock timing and stdout are their job.
pub const SIM_CRATES: &[&str] = &[
    "gpusim",
    "cache",
    "compress",
    "core",
    "workloads",
    "energy",
    "oracle",
];

/// How severe a violation is. Every current rule is `Error` (the binary
/// exits nonzero); the distinction exists so a future rule can be
/// introduced as `Warn` before being promoted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the run.
    Error,
    /// Reported but does not fail the run.
    Warn,
}

impl Severity {
    /// Lowercase display name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warning",
        }
    }
}

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Short stable identifier (`D1`, `P1`, ...).
    pub id: &'static str,
    /// One-line summary.
    pub title: &'static str,
    /// Why the invariant exists.
    pub rationale: &'static str,
    /// Long-form guidance shown by `latte-lint --explain <rule>`: what
    /// the rule analyzes, how to fix a finding, and when (if ever) a
    /// suppression is appropriate.
    pub explain: &'static str,
    /// Severity of a violation.
    pub severity: Severity,
}

/// Every rule latte-lint enforces, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        title: "no wall-clock reads in simulation crates",
        rationale: "std::time::Instant/SystemTime in simulation code makes results depend on \
                    host timing; wall-clock measurement belongs to the bench driver only",
        explain: "Lexer tier. Flags the identifiers `Instant` and `SystemTime` in non-test \
                  library/binary code of simulation crates. Simulated time is the cycle \
                  counter; host time may only be observed by the bench driver. Fix by \
                  threading the cycle count (or a caller-supplied clock fn) to the use site. \
                  Suppress only for code that is provably reporting-side, with \
                  `// latte-lint: allow(D1, reason = \"...\")`.",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "D2",
        title: "no ambient randomness anywhere",
        rationale: "thread_rng/from_entropy/OsRng/random() draw from process-global or OS \
                    entropy; all randomness must flow through explicitly seeded streams \
                    (e.g. FaultInjector) so equal seeds give bit-identical runs",
        explain: "Lexer tier. Flags `thread_rng`, `from_entropy`, `OsRng` and `random(` \
                  everywhere, including tests (a test drawing OS entropy is a flaky test). \
                  Fix by accepting a seed or an explicitly seeded stream (splitmix64 et al.) \
                  from the caller. There is almost never a valid suppression.",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "D3",
        title: "hash containers in simulation library code need an order-independence marker",
        rationale: "HashMap/HashSet iteration order is unspecified and can leak into stats or \
                    replay order; each use site must either switch to an ordered container or \
                    carry an allow marker asserting it is never iterated (keyed access only)",
        explain: "Lexer tier. Flags the identifiers `HashMap`/`HashSet` in non-test library \
                  code of simulation crates. Keyed access is fine; iteration is not (see T1, \
                  which checks the iteration sites themselves). Either switch to \
                  BTreeMap/BTreeSet, or keep the hash container for O(1) access and assert \
                  keyed-only use with `// latte-lint: allow(D3, reason = \"...\")`.",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "D4",
        title: "no direct stdout/stderr printing in simulation library code",
        rationale: "println!/eprintln! from inside a simulation interleaves across the parallel \
                    driver's worker threads; output must flow through the bench capture macros \
                    or a caller-supplied TraceSink",
        explain: "Lexer tier. Flags `println!`, `print!`, `eprintln!`, `eprint!` and `dbg!` in \
                  non-test library code of simulation crates. Route diagnostics through a \
                  caller-supplied `TraceSink` and driver output through the bench capture \
                  macros, which serialize per worker.",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "P1",
        title: "no panic!/todo!/unimplemented!/unwrap/expect outside test code",
        rationale: "library and binary code must surface failures as typed Results (a panicking \
                    simulation loses the whole experiment batch); extends the clippy \
                    unwrap_used/expect_used gate to crates it cannot cover",
        explain: "Lexer tier. Flags `panic!`/`todo!`/`unimplemented!` and `.unwrap()`/\
                  `.expect()` in non-test, non-example code. Propagate a typed error instead. \
                  Suppress only where a panic is provably unreachable and the proof is in the \
                  marker's reason.",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "F1",
        title: "non-atomic file writes in bench/store code must use temp+rename",
        rationale: "File::create / fs::write / OpenOptions aimed at a final path can leave a \
                    torn file behind a crash; results and store segments are contracts with \
                    the *next* run, so they must be written to a temp name in the same \
                    directory and renamed into place (the sites that implement exactly that \
                    pattern carry a justified allow marker)",
        explain: "Lexer tier. Flags `File::create`, `fs::write` and `OpenOptions` in bench/\
                  store library and binary code. Write to `<final>.tmp.<nonce>` in the same \
                  directory, fsync, then rename into place. The helpers that implement \
                  exactly that pattern carry the justified allow markers; new code should \
                  call them instead of adding markers.",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "S1",
        title: "per-SM state must be Send-partitionable; shared edges need a boundary marker",
        rationale: "--sim-threads steps shards of Sms on separate threads between epoch \
                    barriers; that is only sound if everything Sm transitively owns is Send \
                    and free of shared mutability, and every edge into shared Gpu-level \
                    state (L2, DRAM queue, TraceSink, stats) is explicit and auditable",
        explain: "Graph tier. Walks the type-field graph from the partition roots (Sm, \
                  MemCtx, Gpu) and classifies every reachable field as per_sm, shared or \
                  violating; the result is exported as results/lint_partition.json. \
                  Rc/RefCell/Cell/UnsafeCell/OnceCell, raw pointers, `static mut` and trait \
                  objects without a Send bound are violations nothing can bless — restructure \
                  to owned data, atomics or locks. Arc/Mutex/atomics/&-references are shared \
                  handles: legal, but only under an explicit \
                  `// latte-lint: shared-boundary(reason = \"...\")` marker on the field or \
                  static, which documents why cross-SM sharing through it is deterministic.",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "T1",
        title: "no nondeterminism may flow through the call graph into simulation or output",
        rationale: "per-line source checks (D1-D3) cannot see a clock read two calls away; \
                    taint propagation over the approximate call graph can, and it also checks \
                    the hash-container *iteration* sites that D3's declaration-site check \
                    structurally cannot",
        explain: "Graph tier. Marks functions that read wall-clock/ambient RNG or iterate a \
                  hash container as tainted, propagates taint over resolved workspace call \
                  edges, and reports: hash iteration in simulation library code (T1a), \
                  simulation call sites whose callee is tainted (T1b), and output written by \
                  a tainted non-simulation function (T1c). An \
                  `// latte-lint: allow(T1, reason = \"...\")` marker is also a taint \
                  *barrier*: the seed or call edge under it stops propagating, so one \
                  justified marker at the source replaces many downstream ones.",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "A0",
        title: "allow markers must be well-formed and carry a nonempty reason",
        rationale: "a suppression is a claim about the code; an unjustified or malformed \
                    marker is itself a violation and suppresses nothing",
        explain: "Marker tier. A marker must parse as `allow(RULE, reason = \"...\")`, \
                  `allow-file(...)`, `shared-boundary(reason = \"...\")` or \
                  `shared-boundary-file(...)`, name a real rule, and carry a nonempty \
                  reason. The audit rules A0 and A1 cannot themselves be suppressed.",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "A1",
        title: "stale suppressions: every marker must still do something",
        rationale: "an allow marker whose rule no longer fires in its scope (or a \
                    shared-boundary marker annotating nothing shared) is dead weight that \
                    hides real future findings; the marker inventory may only shrink",
        explain: "Audit tier. After all rules run pre-suppression, every `allow` marker must \
                  have suppressed at least one raw finding (or served as a T1 taint barrier), \
                  and every `shared-boundary` marker must annotate a field or static that \
                  actually holds a shared capability. Anything else is reported at the marker \
                  itself: delete the marker. A1 cannot be suppressed.",
        severity: Severity::Error,
    },
];

/// Looks up a rule by id.
#[must_use]
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// What kind of target a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (`src/` except `src/main.rs` and `src/bin/`).
    Lib,
    /// Binary code (`src/main.rs`, `src/bin/`, `build.rs`).
    Bin,
    /// Integration tests and benches (`tests/`, `benches/`).
    Test,
    /// Examples (`examples/`).
    Example,
}

/// Per-file context the rules dispatch on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileContext {
    /// Crate directory name (`gpusim`, `bench`, ...), if under `crates/`.
    pub crate_name: Option<String>,
    /// `true` when the crate is in [`SIM_CRATES`].
    pub is_sim_crate: bool,
    /// Target kind.
    pub kind: FileKind,
}

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (`D1`, ..., `A0`).
    pub rule: &'static str,
    /// Rule severity.
    pub severity: Severity,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong at this site.
    pub message: String,
    /// The offending source line, trimmed of trailing whitespace.
    pub snippet: String,
}

/// Wall-clock types (D1); the taint engine seeds T1 from the same list.
pub(crate) const D1_IDENTS: &[&str] = &["Instant", "SystemTime"];
/// Ambient RNG sources (D2); the taint engine seeds T1 from the same list.
pub(crate) const D2_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng"];
const D3_IDENTS: &[&str] = &["HashMap", "HashSet"];
const D4_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];
const P1_MACROS: &[&str] = &["panic", "todo", "unimplemented"];
const P1_METHODS: &[&str] = &["unwrap", "expect"];

/// Rules that audit the marker inventory itself and therefore can never
/// be suppressed by a marker.
#[must_use]
pub fn is_unsuppressible(rule_id: &str) -> bool {
    matches!(rule_id, "A0" | "A1")
}

/// `true` when a marker at `marker_line` (with the given scope) covers
/// source `line`: file-scope markers cover everything; line markers
/// cover their own line and the next.
#[must_use]
pub fn marker_covers(file_scope: bool, marker_line: u32, line: u32) -> bool {
    file_scope || marker_line == line || marker_line + 1 == line
}

/// Checks one lexed file against every lexer-tier rule, applying
/// `allow` suppressions. Equivalent to [`check_raw`] filtered through
/// the file's markers.
#[must_use]
pub fn check(path: &str, src: &str, lexed: &LexOutput, ctx: &FileContext) -> Vec<Violation> {
    check_raw(path, src, lexed, ctx)
        .into_iter()
        .filter(|v| {
            is_unsuppressible(v.rule)
                || !lexed
                    .markers
                    .iter()
                    .any(|m| m.rule == v.rule && marker_covers(m.file_scope, m.line, v.line))
        })
        .collect()
}

/// Checks one lexed file against every lexer-tier rule **without**
/// applying suppressions. The scan layer consumes raw findings so the
/// `A1` stale-allow audit can tell which markers actually earn their
/// keep.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn check_raw(path: &str, src: &str, lexed: &LexOutput, ctx: &FileContext) -> Vec<Violation> {
    let mut violations = Vec::new();
    let lines: Vec<&str> = src.lines().collect();
    let snippet = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| l.trim_end().to_owned())
            .unwrap_or_default()
    };

    // Malformed markers are violations in their own right (A0), and so
    // are markers naming a rule that does not exist (a typo would
    // otherwise silently suppress nothing while looking intentional).
    for err in &lexed.marker_errors {
        violations.push(Violation {
            rule: "A0",
            severity: Severity::Error,
            path: path.to_owned(),
            line: err.line,
            col: 1,
            message: err.message.clone(),
            snippet: snippet(err.line),
        });
    }
    for marker in &lexed.markers {
        if rule(&marker.rule).is_none() {
            violations.push(Violation {
                rule: "A0",
                severity: Severity::Error,
                path: path.to_owned(),
                line: marker.line,
                col: 1,
                message: format!("allow marker names unknown rule `{}`", marker.rule),
                snippet: snippet(marker.line),
            });
        } else if is_unsuppressible(&marker.rule) {
            violations.push(Violation {
                rule: "A0",
                severity: Severity::Error,
                path: path.to_owned(),
                line: marker.line,
                col: 1,
                message: format!(
                    "rule `{}` audits the marker inventory itself and cannot be suppressed",
                    marker.rule
                ),
                snippet: snippet(marker.line),
            });
        }
    }

    let in_code = matches!(ctx.kind, FileKind::Lib | FileKind::Bin);
    let sim_lib = ctx.is_sim_crate && ctx.kind == FileKind::Lib;

    // `#[cfg(test)]` region tracking: `pending` is set when the attribute
    // is seen and resolves at the next `{` (opening the test item's body)
    // or dies at a `;` (attribute on a brace-less item).
    let mut depth: i32 = 0;
    let mut test_region_entry: Option<i32> = None;
    let mut pending_cfg_test = false;

    let toks = &lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match &t.kind {
            TokKind::Punct('{') => {
                depth += 1;
                if pending_cfg_test {
                    pending_cfg_test = false;
                    if test_region_entry.is_none() {
                        test_region_entry = Some(depth);
                    }
                }
            }
            TokKind::Punct('}') => {
                depth -= 1;
                if test_region_entry.is_some_and(|entry| depth < entry) {
                    test_region_entry = None;
                }
            }
            TokKind::Punct(';') => {
                pending_cfg_test = false;
            }
            TokKind::Punct('#') if is_cfg_test_attr(toks, i) => {
                pending_cfg_test = true;
                i += 7; // past `# [ cfg ( test ) ]`
                continue;
            }
            TokKind::Punct(_) => {}
            TokKind::Ident(name) => {
                let in_test = test_region_entry.is_some() || matches!(ctx.kind, FileKind::Test);
                let next_punct = |ch: char| toks.get(i + 1).is_some_and(|n| n.is_punct(ch));
                let prev_is_dot = i > 0 && toks[i - 1].is_punct('.');

                let mut report = |rule_id: &'static str, message: String| {
                    violations.push(Violation {
                        rule: rule_id,
                        severity: Severity::Error,
                        path: path.to_owned(),
                        line: t.line,
                        col: t.col,
                        message,
                        snippet: snippet(t.line),
                    });
                };

                // D1: wall-clock in simulation crates (lib and bin; test
                // code may time things for diagnostics).
                if ctx.is_sim_crate && in_code && !in_test && D1_IDENTS.contains(&name.as_str()) {
                    report(
                        "D1",
                        format!("`{name}` (wall-clock) in simulation crate `{}`; timing belongs to the driver", crate_label(ctx)),
                    );
                }

                // D2: ambient randomness — everywhere, including tests
                // (a test drawing OS entropy is a flaky test).
                if D2_IDENTS.contains(&name.as_str()) || (name == "random" && next_punct('(')) {
                    report(
                        "D2",
                        format!("`{name}` draws ambient randomness; route RNG through an explicitly seeded stream"),
                    );
                }

                // D3: hash containers in simulation library code.
                if sim_lib && !in_test && D3_IDENTS.contains(&name.as_str()) {
                    report(
                        "D3",
                        format!(
                            "`{name}` in simulation crate `{}`: iteration order may leak into results; \
                             use an ordered container or assert order-independence with an allow marker",
                            crate_label(ctx)
                        ),
                    );
                }

                // D4: direct printing from simulation library code.
                if sim_lib && !in_test && next_punct('!') && D4_MACROS.contains(&name.as_str()) {
                    report(
                        "D4",
                        format!("`{name}!` in simulation library code; use the bench capture macros or a TraceSink"),
                    );
                }

                // P1: panic-freedom outside test code (examples are
                // documentation and may unwrap for brevity).
                if in_code && !in_test {
                    if next_punct('!') && P1_MACROS.contains(&name.as_str()) {
                        report(
                            "P1",
                            format!("`{name}!` in non-test code; surface the failure as a typed Result"),
                        );
                    }
                    if prev_is_dot && next_punct('(') && P1_METHODS.contains(&name.as_str()) {
                        report(
                            "P1",
                            format!("`.{name}()` in non-test code; propagate the error or handle the None/Err case"),
                        );
                    }
                }

                // F1: non-atomic file writes in the two crates whose
                // files a later run depends on (results CSVs, store
                // segments). `::` lexes as two ':' puncts.
                let writes_durable_files =
                    matches!(ctx.crate_name.as_deref(), Some("bench" | "store"));
                if writes_durable_files && in_code && !in_test {
                    let prev_path_seg = |seg: &str| -> bool {
                        i >= 3
                            && toks[i - 1].is_punct(':')
                            && toks[i - 2].is_punct(':')
                            && toks[i - 3].ident() == Some(seg)
                    };
                    if (name == "create" && prev_path_seg("File"))
                        || (name == "write" && prev_path_seg("fs"))
                        || (name == "OpenOptions" && next_punct(':'))
                    {
                        report(
                            "F1",
                            format!(
                                "`{name}` writes a file directly in crate `{}`; write to a temp \
                                 name and rename into place, or justify the site with an allow \
                                 marker",
                                crate_label(ctx)
                            ),
                        );
                    }
                }
            }
        }
        i += 1;
    }
    violations
}

fn crate_label(ctx: &FileContext) -> &str {
    ctx.crate_name.as_deref().unwrap_or("?")
}

/// `true` when `toks[i..]` spells `# [ cfg ( test ) ]`.
fn is_cfg_test_attr(toks: &[Tok], i: usize) -> bool {
    let idents = [None, Some("cfg"), None, Some("test"), None, None];
    let puncts = ['[', '\0', '(', '\0', ')', ']'];
    for (off, (want_ident, want_punct)) in idents.iter().zip(puncts).enumerate() {
        let Some(t) = toks.get(i + 1 + off) else {
            return false;
        };
        match want_ident {
            Some(name) => {
                if t.ident() != Some(name) {
                    return false;
                }
            }
            None => {
                if !t.is_punct(want_punct) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn sim_lib_ctx() -> FileContext {
        FileContext {
            crate_name: Some("gpusim".to_owned()),
            is_sim_crate: true,
            kind: FileKind::Lib,
        }
    }

    fn check_src(src: &str, ctx: &FileContext) -> Vec<Violation> {
        check("crates/gpusim/src/x.rs", src, &lex(src), ctx)
    }

    #[test]
    fn cfg_test_region_exempts_p1_and_d4() {
        let src = "
fn lib_code() -> u32 { 1 }
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v: Option<u32> = Some(1);
        v.unwrap();
        println!(\"test output is fine\");
        panic!(\"also fine\");
    }
}
";
        assert_eq!(check_src(src, &sim_lib_ctx()), []);
    }

    #[test]
    fn cfg_test_on_single_item_without_braces_does_not_leak() {
        let src = "
#[cfg(test)]
use std::x::Y;
fn f(o: Option<u32>) -> u32 { o.unwrap() }
";
        let v = check_src(src, &sim_lib_ctx());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "P1");
    }

    #[test]
    fn d2_fires_even_in_tests() {
        let src = "
#[cfg(test)]
mod tests {
    fn t() { let x = thread_rng(); }
}
";
        let v = check_src(src, &sim_lib_ctx());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "D2");
    }

    #[test]
    fn allow_marker_suppresses_next_line() {
        let src = "
// latte-lint: allow(D3, reason = \"keyed access only, never iterated\")
use std::collections::HashMap;
";
        assert_eq!(check_src(src, &sim_lib_ctx()), []);
    }

    #[test]
    fn file_scope_marker_suppresses_everywhere() {
        let src = "
// latte-lint: allow-file(D3, reason = \"keyed access only, never iterated\")
use std::collections::HashMap;
struct S { m: HashMap<u32, u32> }
";
        assert_eq!(check_src(src, &sim_lib_ctx()), []);
    }

    #[test]
    fn unknown_rule_in_marker_is_a0() {
        let src = "// latte-lint: allow(D9, reason = \"typo\")\n";
        let v = check_src(src, &sim_lib_ctx());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "A0");
    }

    #[test]
    fn unwrap_or_and_expect_err_are_not_p1() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap_or(0).max(o.unwrap_or_default()) }";
        assert_eq!(check_src(src, &sim_lib_ctx()), []);
    }

    #[test]
    fn bench_crate_is_exempt_from_sim_rules_but_not_p1() {
        let ctx = FileContext {
            crate_name: Some("bench".to_owned()),
            is_sim_crate: false,
            kind: FileKind::Lib,
        };
        let src = "
use std::time::Instant;
use std::collections::HashMap;
fn f() { println!(\"driver output\"); }
fn g(o: Option<u32>) -> u32 { o.unwrap() }
";
        let v = check("crates/bench/src/x.rs", src, &lex(src), &ctx);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "P1");
    }

    #[test]
    fn examples_are_exempt_from_p1() {
        let ctx = FileContext {
            crate_name: Some("bench".to_owned()),
            is_sim_crate: false,
            kind: FileKind::Example,
        };
        let src = "fn main() { let b = benchmark(\"SS\").expect(\"exists\"); run(b); }";
        assert_eq!(check("examples/q.rs", src, &lex(src), &ctx), []);
    }

    #[test]
    fn every_rule_id_is_unique() {
        let mut ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), RULES.len());
    }
}
