//! The type-field graph and the `S1` Send-partitionability audit.
//!
//! The future `--sim-threads` refactor shards per-SM state across worker
//! threads; that is only sound if everything transitively owned by `Sm`
//! is `Send` and free of shared mutability, and if every edge from
//! per-SM state into shared `Gpu`-level state (the L2, the DRAM event
//! queue, the stats) is explicit. This module walks the
//! type-field graph from the partition roots and classifies every
//! reachable field:
//!
//! * **`per_sm`** — exclusively owned data, freely movable to a worker.
//! * **`shared`** — crosses into shared state through an explicitly
//!   annotated boundary (`// latte-lint: shared-boundary(reason = ...)`)
//!   or contains a type that does.
//! * **`violating`** — non-`Send` shared mutability (`Rc`, `RefCell`,
//!   `Cell`, raw pointers, `static mut`, un-`Send`-bounded trait
//!   objects) or an *unannotated* shared handle. Each such field is an
//!   `S1` violation.
//!
//! The classification is exported as `results/lint_partition.json`; the
//! parallelism PR consumes it as a machine-checked precondition.

use crate::lexer::BoundaryMarker;
use crate::parser::{FieldDef, TypeExpr};
use crate::rules::{FileKind, Severity, Violation};
use crate::scan::FileUnit;
use std::collections::{BTreeMap, BTreeSet};

/// The partition roots: the types whose transitive fields must be
/// cleanly partitionable before SMs can be sharded across threads.
/// `Sm` is the per-SM state itself, `MemCtx` is the borrowed view of
/// shared memory-system state every SM tick receives, and `Gpu` owns
/// both sides.
pub const PARTITION_ROOTS: &[&str] = &["Sm", "MemCtx", "Gpu"];

/// Capability types that are fundamentally non-`Send`-partitionable:
/// shared mutability without synchronization.
const NONSEND_CAPS: &[&str] = &["Rc", "RefCell", "Cell", "UnsafeCell", "OnceCell"];

/// Capability types that make a field a *shared* handle: fine under
/// SM-parallelism, but only across an explicitly annotated boundary.
const SHARED_CAPS: &[&str] = &[
    "Arc", "Weak", "Mutex", "RwLock", "Condvar", "OnceLock", "LazyLock", "Sender", "SyncSender",
    "Receiver", "Barrier", "JoinHandle",
];

/// How a field partitions. Ordering is by severity: a type's summary
/// class is the maximum over its fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Exclusively owned, Send-movable per-SM data.
    PerSm,
    /// Crosses into shared state through an annotated boundary (or
    /// contains a type that does).
    Shared,
    /// Non-Send shared mutability or an unannotated shared handle.
    Violating,
}

impl Class {
    /// Stable lowercase name used in the JSON report.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Class::PerSm => "per_sm",
            Class::Shared => "shared",
            Class::Violating => "violating",
        }
    }
}

/// One classified field (or audited static) in the partition report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionEntry {
    /// Owning type name (or `"static"` for the statics audit).
    pub owner: String,
    /// Field name (statics: `crate::NAME`).
    pub field: String,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line of the field.
    pub line: u32,
    /// Declared type (token-joined text).
    pub type_text: String,
    /// Partition class.
    pub class: Class,
    /// For contained classes: the chain of type names leading to the
    /// decisive capability (`["Warp", "Inner"]`).
    pub via: Vec<String>,
    /// The boundary-marker reason, when the field is annotated shared.
    pub reason: Option<String>,
    /// Which partition roots reach this field's owner.
    pub roots: Vec<String>,
    /// `true` when a violating entry carries an `allow(S1)` suppression.
    pub allowed: bool,
}

/// The machine-readable partition report (`results/lint_partition.json`).
#[derive(Debug, Clone, Default)]
pub struct PartitionReport {
    /// Root type names that resolved in this workspace.
    pub roots: Vec<String>,
    /// Classified fields of every type reachable from the roots.
    pub fields: Vec<PartitionEntry>,
    /// Audited statics in simulation crates.
    pub statics: Vec<PartitionEntry>,
}

impl PartitionReport {
    /// `true` when no entry is violating without a suppression.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.fields
            .iter()
            .chain(&self.statics)
            .all(|e| e.class != Class::Violating || e.allowed)
    }

    /// `(per_sm, shared, violating)` counts over fields and statics.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for e in self.fields.iter().chain(&self.statics) {
            match e.class {
                Class::PerSm => c.0 += 1,
                Class::Shared => c.1 += 1,
                Class::Violating => c.2 += 1,
            }
        }
        c
    }
}

/// Everything the S1 analysis produces.
#[derive(Debug, Default)]
pub struct GraphOutput {
    /// The partition report.
    pub partition: PartitionReport,
    /// Raw (pre-suppression) `S1` violations.
    pub violations: Vec<Violation>,
    /// Boundary markers that were consumed by an annotated field or
    /// static, as `(file index, marker line)`.
    pub used_boundaries: BTreeSet<(usize, u32)>,
}

/// A type expression's features after alias expansion.
#[derive(Debug, Clone, Default)]
pub struct Expanded {
    /// All identifiers, including those pulled in through aliases.
    pub idents: BTreeSet<String>,
    /// `&` reference anywhere in the (expanded) type.
    pub has_ref: bool,
    /// Raw pointer anywhere in the (expanded) type.
    pub has_raw_ptr: bool,
    /// `dyn Trait` heads anywhere in the (expanded) type.
    pub dyn_traits: BTreeSet<String>,
}

/// Name-indexed view of every parsed file: types, traits and aliases,
/// with crate-aware resolution. Shared by the S1 partition walk and the
/// T1 taint propagation.
pub struct TypeIndex<'a> {
    /// The files under analysis (indices into this slice are the file
    /// ids used throughout).
    pub files: &'a [FileUnit],
    types: BTreeMap<String, Vec<(usize, usize)>>,
    traits: BTreeMap<String, Vec<(usize, usize)>>,
    aliases: BTreeMap<String, Vec<(usize, usize)>>,
}

/// `true` when the file's items define workspace (non-test) API surface
/// worth indexing.
fn indexable(f: &FileUnit) -> bool {
    matches!(f.ctx.kind, FileKind::Lib | FileKind::Bin)
}

impl<'a> TypeIndex<'a> {
    /// Builds the index over `files`. Items under `#[cfg(test)]` and
    /// test/example targets are excluded: a test-local type must never
    /// shadow a workspace type during resolution.
    #[must_use]
    pub fn build(files: &'a [FileUnit]) -> Self {
        let mut types: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        let mut traits: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        let mut aliases: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            if !indexable(f) {
                continue;
            }
            for (si, s) in f.parsed.structs.iter().enumerate() {
                if !s.in_test {
                    types.entry(s.name.clone()).or_default().push((fi, si));
                }
            }
            for (ti, t) in f.parsed.traits.iter().enumerate() {
                if !t.in_test {
                    traits.entry(t.name.clone()).or_default().push((fi, ti));
                }
            }
            for (ai, a) in f.parsed.aliases.iter().enumerate() {
                if !a.in_test {
                    aliases.entry(a.name.clone()).or_default().push((fi, ai));
                }
            }
        }
        TypeIndex { files, types, traits, aliases }
    }

    fn crate_of(&self, file: usize) -> Option<&str> {
        self.files.get(file).and_then(|f| f.ctx.crate_name.as_deref())
    }

    /// A `use`-based crate hint: `use latte_cache::mshr::Mshr;` means
    /// `Mshr` in this file resolves into crate `cache`.
    fn use_hint(&self, from_file: usize, name: &str) -> Option<String> {
        let uses = &self.files.get(from_file)?.parsed.uses;
        for u in uses {
            if u.path.last().map(String::as_str) == Some(name) {
                if let Some(first) = u.path.first() {
                    if let Some(c) = first.strip_prefix("latte_") {
                        return Some(c.to_owned());
                    }
                }
            }
        }
        None
    }

    fn resolve_pref(
        &self,
        map: &BTreeMap<String, Vec<(usize, usize)>>,
        name: &str,
        from_file: usize,
    ) -> Vec<(usize, usize)> {
        let Some(cands) = map.get(name) else {
            return Vec::new();
        };
        let from_crate = self.crate_of(from_file).map(str::to_owned);
        let same: Vec<(usize, usize)> = cands
            .iter()
            .copied()
            .filter(|&(fi, _)| self.crate_of(fi).map(str::to_owned) == from_crate)
            .collect();
        if !same.is_empty() {
            return same;
        }
        if let Some(hint) = self.use_hint(from_file, name) {
            let hinted: Vec<(usize, usize)> = cands
                .iter()
                .copied()
                .filter(|&(fi, _)| self.crate_of(fi) == Some(hint.as_str()))
                .collect();
            if !hinted.is_empty() {
                return hinted;
            }
        }
        cands.clone()
    }

    /// Resolves a type name to its candidate definitions, preferring the
    /// referring file's own crate, then its `use` hints, then anything.
    #[must_use]
    pub fn resolve_type(&self, name: &str, from_file: usize) -> Vec<(usize, usize)> {
        self.resolve_pref(&self.types, name, from_file)
    }

    /// All definitions of a type name across the workspace.
    #[must_use]
    pub fn resolve_type_anywhere(&self, name: &str) -> Vec<(usize, usize)> {
        self.types.get(name).cloned().unwrap_or_default()
    }

    /// `true` when trait `name`'s supertrait closure contains `Send`.
    #[must_use]
    pub fn trait_is_send(&self, name: &str, from_file: usize, depth: u32) -> bool {
        if name == "Send" {
            return true;
        }
        if depth > 8 {
            return false;
        }
        for (fi, ti) in self.resolve_pref(&self.traits, name, from_file) {
            if let Some(t) = self.files.get(fi).and_then(|f| f.parsed.traits.get(ti)) {
                if t.supertraits.iter().any(|s| self.trait_is_send(s, fi, depth + 1)) {
                    return true;
                }
            }
        }
        false
    }

    /// `true` when `name` names a known trait (or a std `Fn` trait).
    #[must_use]
    pub fn is_known_trait(&self, name: &str) -> bool {
        self.traits.contains_key(name) || matches!(name, "Fn" | "FnMut" | "FnOnce" | "Send" | "Sync")
    }

    /// Expands a type expression through type aliases, merging the
    /// features of every alias target.
    #[must_use]
    pub fn expand(&self, ty: &TypeExpr, from_file: usize) -> Expanded {
        let mut e = Expanded {
            idents: BTreeSet::new(),
            has_ref: ty.has_ref,
            has_raw_ptr: ty.has_raw_ptr,
            dyn_traits: ty.dyn_traits.iter().cloned().collect(),
        };
        let mut work: Vec<String> = ty.idents.clone();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        while let Some(n) = work.pop() {
            if !seen.insert(n.clone()) {
                continue;
            }
            e.idents.insert(n.clone());
            for (fi, ai) in self.resolve_pref(&self.aliases, &n, from_file) {
                if let Some(a) = self.files.get(fi).and_then(|f| f.parsed.aliases.get(ai)) {
                    e.has_ref |= a.ty.has_ref;
                    e.has_raw_ptr |= a.ty.has_raw_ptr;
                    e.dyn_traits.extend(a.ty.dyn_traits.iter().cloned());
                    work.extend(a.ty.idents.iter().cloned());
                }
            }
        }
        e
    }
}

/// Finds the boundary marker (if any) annotating `line` of file `fi`:
/// file-scope markers, or a line marker on the line itself / the line
/// above.
fn boundary_for(files: &[FileUnit], fi: usize, line: u32) -> Option<&BoundaryMarker> {
    files
        .get(fi)?
        .lex
        .boundaries
        .iter()
        .find(|b| b.file_scope || b.line == line || b.line + 1 == line)
}

/// `true` when an `allow(S1)` suppression covers `line` of file `fi`.
fn s1_allowed(files: &[FileUnit], fi: usize, line: u32) -> bool {
    files.get(fi).is_some_and(|f| {
        f.lex
            .markers
            .iter()
            .any(|m| m.rule == "S1" && (m.file_scope || m.line == line || m.line + 1 == line))
    })
}

/// How one field classified, before boundary annotation is applied.
struct FieldVerdict {
    class: Class,
    /// Chain of type names to the decisive capability (empty for direct).
    via: Vec<String>,
    /// For a *direct* problem at this field: the violation message.
    direct_problem: Option<String>,
    /// `true` when the field holds a direct shared capability (what a
    /// boundary annotation can bless).
    direct_shared: Option<String>,
}

/// The S1 analysis engine.
struct Partitioner<'a> {
    idx: &'a TypeIndex<'a>,
    /// Memoized per-type summaries: worst field class + via chain.
    summaries: BTreeMap<(usize, usize), (Class, Vec<String>)>,
    in_progress: BTreeSet<(usize, usize)>,
}

impl Partitioner<'_> {
    /// Worst-case class over a type's fields, with the chain of type
    /// names leading to the decisive capability. Cycles break as
    /// `PerSm`: a recursive type contributes whatever its other fields
    /// say, and every member of the cycle is classified individually.
    fn summary(&mut self, tid: (usize, usize)) -> (Class, Vec<String>) {
        if let Some(s) = self.summaries.get(&tid) {
            return s.clone();
        }
        if !self.in_progress.insert(tid) {
            return (Class::PerSm, Vec::new());
        }
        let mut worst = (Class::PerSm, Vec::new());
        let Some(def) = self
            .idx
            .files
            .get(tid.0)
            .and_then(|f| f.parsed.structs.get(tid.1))
            .cloned()
        else {
            self.in_progress.remove(&tid);
            return worst;
        };
        for field in &def.fields {
            let annotated = boundary_for(self.idx.files, tid.0, field.line).cloned();
            let v = self.field_verdict(tid.0, field);
            let (class, via) = apply_annotation(&v, annotated.is_some());
            if class > worst.0 {
                let mut chain = vec![format!("{}.{}", def.name, field.name)];
                chain.extend(via);
                worst = (class, chain);
            }
        }
        self.in_progress.remove(&tid);
        self.summaries.insert(tid, worst.clone());
        worst
    }

    /// Classifies one field ignoring any boundary annotation on it.
    fn field_verdict(&mut self, file: usize, field: &FieldDef) -> FieldVerdict {
        let exp = self.idx.expand(&field.ty, file);
        // 1. Fundamentally non-Send capabilities: nothing blesses these.
        if let Some(tok) = NONSEND_CAPS.iter().find(|c| exp.idents.contains(**c)) {
            return FieldVerdict {
                class: Class::Violating,
                via: Vec::new(),
                direct_problem: Some(format!(
                    "non-Send shared-mutability type `{tok}`; per-SM state must use owned data \
                     or a synchronized handle behind a shared-boundary marker"
                )),
                direct_shared: None,
            };
        }
        if exp.has_raw_ptr {
            return FieldVerdict {
                class: Class::Violating,
                via: Vec::new(),
                direct_problem: Some(
                    "raw pointer in per-SM-reachable state; raw pointers are not Send-auditable"
                        .to_owned(),
                ),
                direct_shared: None,
            };
        }
        // 2. Trait objects must be Send-bounded (inline `+ Send` or via
        // the trait's supertrait closure).
        for tr in &exp.dyn_traits {
            let send = exp.idents.contains("Send") || self.idx.trait_is_send(tr, file, 0);
            if !send {
                return FieldVerdict {
                    class: Class::Violating,
                    via: Vec::new(),
                    direct_problem: Some(format!(
                        "trait object `dyn {tr}` has no Send bound; add `Send` to the trait's \
                         supertraits (or `+ Send` at this use) so the field can move to a worker"
                    )),
                    direct_shared: None,
                };
            }
        }
        // 3. Direct shared capabilities (annotatable).
        let direct_shared = SHARED_CAPS
            .iter()
            .find(|c| exp.idents.contains(**c))
            .map(|c| format!("`{c}`"))
            .or_else(|| {
                exp.idents
                    .iter()
                    .find(|i| i.starts_with("Atomic"))
                    .map(|i| format!("`{i}`"))
            })
            .or_else(|| exp.has_ref.then(|| "`&`-reference".to_owned()));
        // 4. Containment: the worst over resolvable child types.
        let mut child_worst = (Class::PerSm, Vec::new());
        for ident in &exp.idents {
            if NONSEND_CAPS.contains(&ident.as_str()) || SHARED_CAPS.contains(&ident.as_str()) {
                continue;
            }
            for tid in self.idx.resolve_type(ident, file) {
                let (class, via) = self.summary(tid);
                if class > child_worst.0 {
                    let mut chain = vec![ident.clone()];
                    chain.extend(via);
                    child_worst = (class, chain);
                }
            }
        }
        let class = if direct_shared.is_some() {
            Class::Violating // pending annotation; `apply_annotation` downgrades
        } else {
            child_worst.0
        };
        FieldVerdict {
            class,
            via: if direct_shared.is_some() { Vec::new() } else { child_worst.1 },
            direct_problem: None,
            direct_shared,
        }
    }
}

/// Applies a boundary annotation to a verdict: an annotated direct
/// shared capability becomes `Shared`; everything else is unchanged
/// (annotations cannot bless `Rc` or a non-Send trait object).
fn apply_annotation(v: &FieldVerdict, annotated: bool) -> (Class, Vec<String>) {
    if v.direct_problem.is_some() {
        return (Class::Violating, v.via.clone());
    }
    if v.direct_shared.is_some() {
        if annotated {
            return (Class::Shared, Vec::new());
        }
        return (Class::Violating, Vec::new());
    }
    (v.class, v.via.clone())
}

/// Runs the S1 partition audit over the indexed workspace.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn analyze(idx: &TypeIndex<'_>) -> GraphOutput {
    let mut out = GraphOutput::default();
    let files = idx.files;

    // Reachability closure: every type transitively reachable from the
    // partition roots, tagged with the roots that reach it.
    let mut closure: BTreeMap<(usize, usize), BTreeSet<&'static str>> = BTreeMap::new();
    let mut resolved_roots: Vec<String> = Vec::new();
    for root in PARTITION_ROOTS {
        let mut cands = idx.resolve_type_anywhere(root);
        // Prefer the simulator's own definition when several crates
        // define a type with a root's name.
        let gpusim: Vec<(usize, usize)> = cands
            .iter()
            .copied()
            .filter(|&(fi, _)| idx.files.get(fi).is_some_and(|f| f.ctx.crate_name.as_deref() == Some("gpusim")))
            .collect();
        if !gpusim.is_empty() {
            cands = gpusim;
        }
        if cands.is_empty() {
            continue;
        }
        resolved_roots.push((*root).to_owned());
        let mut work: Vec<(usize, usize)> = cands;
        while let Some(tid) = work.pop() {
            if !closure.entry(tid).or_default().insert(root) {
                continue;
            }
            let Some(def) = files.get(tid.0).and_then(|f| f.parsed.structs.get(tid.1)) else {
                continue;
            };
            for field in &def.fields {
                let exp = idx.expand(&field.ty, tid.0);
                for ident in &exp.idents {
                    for child in idx.resolve_type(ident, tid.0) {
                        work.push(child);
                    }
                }
            }
        }
    }
    out.partition.roots = resolved_roots;

    // Classify every field of every closure type.
    let mut part = Partitioner { idx, summaries: BTreeMap::new(), in_progress: BTreeSet::new() };
    for (&tid, roots) in &closure {
        let Some(def) = files.get(tid.0).and_then(|f| f.parsed.structs.get(tid.1)) else {
            continue;
        };
        let path = files[tid.0].rel_path.clone();
        for field in &def.fields {
            let annotated = boundary_for(files, tid.0, field.line).cloned();
            let v = part.field_verdict(tid.0, field);
            let (class, via) = apply_annotation(&v, annotated.is_some());
            let mut reason = None;
            if let Some(b) = &annotated {
                if v.direct_shared.is_some() && v.direct_problem.is_none() {
                    out.used_boundaries.insert((tid.0, b.line));
                    reason = Some(b.reason.clone());
                }
            }
            let allowed = s1_allowed(files, tid.0, field.line);
            // Direct problems are violations here; contained problems
            // were reported at the field that owns the capability.
            let message = if let Some(p) = &v.direct_problem {
                Some(format!("field `{}.{}`: {p}", def.name, field.name))
            } else if v.direct_shared.is_some() && class == Class::Violating {
                v.direct_shared.as_ref().map(|cap| {
                    format!(
                        "field `{}.{}` holds a shared handle ({cap}) crossing the per-SM \
                         boundary without a marker; annotate it with `// latte-lint: \
                         shared-boundary(reason = \"...\")` or make the state per-SM owned",
                        def.name, field.name
                    )
                })
            } else {
                None
            };
            if let Some(message) = message {
                out.violations.push(Violation {
                    rule: "S1",
                    severity: Severity::Error,
                    path: path.clone(),
                    line: field.line,
                    col: field.col,
                    message,
                    snippet: snippet_of(files, tid.0, field.line),
                });
            }
            out.partition.fields.push(PartitionEntry {
                owner: def.name.clone(),
                field: field.name.clone(),
                path: path.clone(),
                line: field.line,
                type_text: field.ty.text.clone(),
                class,
                via,
                reason,
                roots: roots.iter().map(|r| (*r).to_owned()).collect(),
                allowed,
            });
        }
    }
    out.partition.fields.sort_by(|a, b| {
        (&a.owner, &a.field, &a.path, a.line).cmp(&(&b.owner, &b.field, &b.path, b.line))
    });

    // Statics audit: simulation crates must not hide shared state in
    // globals. `static mut` and non-Send caps are violations outright;
    // synchronized globals (atomics, OnceLock, ...) need a boundary
    // marker like any other shared handle.
    for (fi, f) in files.iter().enumerate() {
        if !f.ctx.is_sim_crate || !indexable(f) {
            continue;
        }
        for s in &f.parsed.statics {
            if s.in_test {
                continue;
            }
            let exp = idx.expand(&s.ty, fi);
            let nonsend = NONSEND_CAPS.iter().find(|c| exp.idents.contains(**c));
            let shared = SHARED_CAPS
                .iter()
                .find(|c| exp.idents.contains(**c))
                .map(|c| (*c).to_owned())
                .or_else(|| exp.idents.iter().find(|i| i.starts_with("Atomic")).cloned());
            let (class, problem) = if s.is_mut {
                (Class::Violating, Some("`static mut` is unsynchronized shared state".to_owned()))
            } else if let Some(tok) = nonsend {
                (Class::Violating, Some(format!("non-Send type `{tok}` in a static")))
            } else if let Some(tok) = &shared {
                match boundary_for(files, fi, s.line) {
                    Some(_) => (Class::Shared, None),
                    None => (
                        Class::Violating,
                        Some(format!(
                            "synchronized global `{tok}` without a shared-boundary marker; \
                             justify why cross-SM sharing through it is deterministic"
                        )),
                    ),
                }
            } else {
                continue; // plain (immutable, Sync-by-construction) data
            };
            let annotated = boundary_for(files, fi, s.line).cloned();
            let mut reason = None;
            if class == Class::Shared {
                if let Some(b) = &annotated {
                    out.used_boundaries.insert((fi, b.line));
                    reason = Some(b.reason.clone());
                }
            }
            let allowed = s1_allowed(files, fi, s.line);
            if let Some(problem) = problem {
                out.violations.push(Violation {
                    rule: "S1",
                    severity: Severity::Error,
                    path: f.rel_path.clone(),
                    line: s.line,
                    col: 1,
                    message: format!("static `{}`: {problem}", s.name),
                    snippet: snippet_of(files, fi, s.line),
                });
            }
            out.partition.statics.push(PartitionEntry {
                owner: "static".to_owned(),
                field: format!(
                    "{}::{}",
                    f.ctx.crate_name.as_deref().unwrap_or("?"),
                    s.name
                ),
                path: f.rel_path.clone(),
                line: s.line,
                type_text: s.ty.text.clone(),
                class,
                via: Vec::new(),
                reason,
                roots: vec!["static".to_owned()],
                allowed,
            });
        }
    }
    out.partition
        .statics
        .sort_by(|a, b| (&a.field, &a.path, a.line).cmp(&(&b.field, &b.path, b.line)));
    out
}

fn snippet_of(files: &[FileUnit], fi: usize, line: u32) -> String {
    files
        .get(fi)
        .and_then(|f| f.src.lines().nth(line.saturating_sub(1) as usize))
        .map(|l| l.trim_end().to_owned())
        .unwrap_or_default()
}
