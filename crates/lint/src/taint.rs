//! Interprocedural determinism taint (`T1`).
//!
//! The per-line rules `D1`–`D3` flag nondeterminism *sources* (wall-clock
//! reads, ambient RNG, hash containers) where they are written. This
//! module tracks where their values *flow*: a function is **tainted**
//! when it reads a nondeterministic source, or calls (transitively) a
//! function that does. Three things become violations:
//!
//! * **T1a** — hash-map/set iteration in simulation library code. The
//!   container itself may be fine (`allow(D3)` markers justify keyed
//!   access), but iterating one injects platform-dependent order into
//!   whatever consumes the loop.
//! * **T1b** — a simulation-library call site whose resolved workspace
//!   callee is tainted: nondeterminism entering the simulation through a
//!   function boundary, which the per-line rules cannot see.
//! * **T1c** — a tainted non-simulation function that also writes output
//!   (trace/CSV/stdout): the site where nondeterminism reaches an
//!   artifact that the differential oracle would diff.
//!
//! An `allow(T1, reason = ...)` marker is both a suppression and a
//! **taint barrier**: a seed or call edge under a marker does not
//! propagate. Barriers consumed this way count as "used" for the `A1`
//! stale-allow audit even when no violation is ultimately reported.

use crate::graph::TypeIndex;
use crate::parser::{Callee, FnDef};
use crate::rules::{FileKind, Severity, Violation, D1_IDENTS, D2_IDENTS};
use crate::scan::FileUnit;
use std::collections::{BTreeMap, BTreeSet};

/// Hash-container methods whose results depend on iteration order.
const ITER_METHODS: &[&str] = &[
    "iter", "iter_mut", "keys", "values", "values_mut", "drain", "into_iter", "retain",
    "into_keys", "into_values",
];

/// Macros that write program output.
const OUTPUT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "out", "outln"];

/// A function under taint analysis: `(file index, fn index)`.
pub type FnId = (usize, usize);

/// One tainted function, with the chain of calls leading to its source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintedFn {
    /// `crate::Type::name`-style descriptor.
    pub fn_desc: String,
    /// Call chain from this function down to the seed description.
    pub chain: Vec<String>,
    /// Workspace-relative path of the function.
    pub path: String,
    /// 1-based line of the function name.
    pub line: u32,
}

/// Everything the taint analysis produces.
#[derive(Debug, Default)]
pub struct TaintOutput {
    /// Raw (pre-suppression) `T1` violations.
    pub violations: Vec<Violation>,
    /// `allow(T1)` markers consumed as barriers, as
    /// `(file index, marker line)` — input to the `A1` stale-allow audit.
    pub barrier_uses: BTreeSet<(usize, u32)>,
    /// Every tainted function, sorted by descriptor (for `--graph`).
    pub tainted: Vec<TaintedFn>,
}

/// What kind of nondeterminism a seed injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeedKind {
    Clock,
    Rng,
    HashIter,
}

/// One detected seed site inside a function body.
struct Seed {
    kind: SeedKind,
    line: u32,
    col: u32,
    desc: String,
}

struct Tainter<'a> {
    idx: &'a TypeIndex<'a>,
    /// `(owner, method)` → definitions.
    methods: BTreeMap<(String, String), Vec<FnId>>,
    /// free fn name → definitions.
    free: BTreeMap<String, Vec<FnId>>,
    /// All analyzable fns in deterministic order.
    fns: Vec<FnId>,
}

fn analyzable(f: &FileUnit) -> bool {
    matches!(f.ctx.kind, FileKind::Lib | FileKind::Bin)
}

/// `allow(T1)` marker covering `line` of file `fi`, if any; returns the
/// marker line.
fn t1_barrier(files: &[FileUnit], fi: usize, line: u32) -> Option<u32> {
    files.get(fi)?.lex.markers.iter().find_map(|m| {
        (m.rule == "T1" && (m.file_scope || m.line == line || m.line + 1 == line))
            .then_some(m.line)
    })
}

impl<'a> Tainter<'a> {
    fn build(idx: &'a TypeIndex<'a>) -> Self {
        let mut methods: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        let mut free: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut fns = Vec::new();
        for (fi, f) in idx.files.iter().enumerate() {
            if !analyzable(f) {
                continue;
            }
            for (ni, fun) in f.parsed.fns.iter().enumerate() {
                if fun.in_test || !fun.has_body {
                    continue;
                }
                fns.push((fi, ni));
                match &fun.owner {
                    Some(owner) => methods
                        .entry((owner.clone(), fun.name.clone()))
                        .or_default()
                        .push((fi, ni)),
                    None => free.entry(fun.name.clone()).or_default().push((fi, ni)),
                }
            }
        }
        Tainter { idx, methods, free, fns }
    }

    fn fn_def(&self, id: FnId) -> Option<&FnDef> {
        self.idx.files.get(id.0).and_then(|f| f.parsed.fns.get(id.1))
    }

    fn fn_desc(&self, id: FnId) -> String {
        let krate = self
            .idx
            .files
            .get(id.0)
            .and_then(|f| f.ctx.crate_name.clone())
            .unwrap_or_else(|| "?".to_owned());
        match self.fn_def(id) {
            Some(f) => match &f.owner {
                Some(o) => format!("{krate}::{o}::{}", f.name),
                None => format!("{krate}::{}", f.name),
            },
            None => format!("{krate}::?"),
        }
    }

    fn prefer_same_crate(&self, cands: Vec<FnId>, from_file: usize) -> Vec<FnId> {
        let from = self.idx.files.get(from_file).and_then(|f| f.ctx.crate_name.clone());
        let same: Vec<FnId> = cands
            .iter()
            .copied()
            .filter(|&(fi, _)| {
                self.idx.files.get(fi).and_then(|f| f.ctx.crate_name.clone()) == from
            })
            .collect();
        if same.is_empty() { cands } else { same }
    }

    /// `true` when struct field `field` of type `owner` (resolved from
    /// `from_file`) is a hash container after alias expansion.
    fn field_is_hash(&self, owner: &str, field: &str, from_file: usize) -> bool {
        for (fi, si) in self.idx.resolve_type(owner, from_file) {
            let Some(def) = self.idx.files.get(fi).and_then(|f| f.parsed.structs.get(si)) else {
                continue;
            };
            if let Some(fd) = def.fields.iter().find(|fd| fd.name == field) {
                let exp = self.idx.expand(&fd.ty, fi);
                if exp.idents.contains("HashMap") || exp.idents.contains("HashSet") {
                    return true;
                }
            }
        }
        false
    }

    /// Detects nondeterminism seeds in one function body.
    fn seeds(&self, id: FnId) -> Vec<Seed> {
        let Some(fun) = self.fn_def(id) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for call in &fun.calls {
            match &call.callee {
                Callee::Path(segs) => {
                    if let Some(tok) = segs.iter().find(|s| D1_IDENTS.contains(&s.as_str())) {
                        out.push(Seed {
                            kind: SeedKind::Clock,
                            line: call.line,
                            col: call.col,
                            desc: format!("wall-clock read (`{tok}`)"),
                        });
                    } else if segs.iter().any(|s| D2_IDENTS.contains(&s.as_str())) {
                        out.push(Seed {
                            kind: SeedKind::Rng,
                            line: call.line,
                            col: call.col,
                            desc: "ambient RNG".to_owned(),
                        });
                    }
                }
                Callee::Free(name) if D2_IDENTS.contains(&name.as_str()) => {
                    out.push(Seed {
                        kind: SeedKind::Rng,
                        line: call.line,
                        col: call.col,
                        desc: format!("ambient RNG (`{name}`)"),
                    });
                }
                Callee::FieldMethod { field, method }
                    if ITER_METHODS.contains(&method.as_str()) =>
                {
                    if let Some(owner) = &fun.owner {
                        if self.field_is_hash(owner, field, id.0) {
                            out.push(Seed {
                                kind: SeedKind::HashIter,
                                line: call.line,
                                col: call.col,
                                desc: format!(
                                    "hash-container iteration (`self.{field}.{method}`)"
                                ),
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        for (field, line) in &fun.field_iters {
            if let Some(owner) = &fun.owner {
                if self.field_is_hash(owner, field, id.0) {
                    out.push(Seed {
                        kind: SeedKind::HashIter,
                        line: *line,
                        col: 1,
                        desc: format!("hash-container iteration (`for _ in &self.{field}`)"),
                    });
                }
            }
        }
        out
    }

    /// Resolves a call site to its possible workspace definitions.
    fn resolve_call(&self, id: FnId, callee: &Callee) -> Vec<FnId> {
        let Some(fun) = self.fn_def(id) else {
            return Vec::new();
        };
        match callee {
            Callee::SelfMethod(m) => {
                let Some(owner) = &fun.owner else {
                    return Vec::new();
                };
                self.prefer_same_crate(
                    self.methods.get(&(owner.clone(), m.clone())).cloned().unwrap_or_default(),
                    id.0,
                )
            }
            Callee::FieldMethod { field, method } => {
                let Some(owner) = &fun.owner else {
                    return Vec::new();
                };
                let mut out = Vec::new();
                for (fi, si) in self.idx.resolve_type(owner, id.0) {
                    let Some(def) =
                        self.idx.files.get(fi).and_then(|f| f.parsed.structs.get(si))
                    else {
                        continue;
                    };
                    let Some(fd) = def.fields.iter().find(|fd| fd.name == *field) else {
                        continue;
                    };
                    let exp = self.idx.expand(&fd.ty, fi);
                    for ident in &exp.idents {
                        if self.idx.resolve_type(ident, fi).is_empty() {
                            continue;
                        }
                        if let Some(c) = self.methods.get(&(ident.clone(), method.clone())) {
                            out.extend(self.prefer_same_crate(c.clone(), fi));
                        }
                    }
                }
                out.sort_unstable();
                out.dedup();
                out
            }
            Callee::Path(segs) => {
                if segs.len() < 2 {
                    return Vec::new();
                }
                let method = &segs[segs.len() - 1];
                let mut owner = segs[segs.len() - 2].clone();
                if owner == "Self" {
                    match &fun.owner {
                        Some(o) => owner = o.clone(),
                        None => return Vec::new(),
                    }
                }
                if owner == "crate" || owner == "self" || owner == "super" {
                    return self.prefer_same_crate(
                        self.free.get(method).cloned().unwrap_or_default(),
                        id.0,
                    );
                }
                self.prefer_same_crate(
                    self.methods.get(&(owner, method.clone())).cloned().unwrap_or_default(),
                    id.0,
                )
            }
            Callee::Free(name) => {
                let cands = self.free.get(name).cloned().unwrap_or_default();
                let preferred = self.prefer_same_crate(cands.clone(), id.0);
                let from =
                    self.idx.files.get(id.0).and_then(|f| f.ctx.crate_name.clone());
                let same_crate = preferred.iter().any(|&(fi, _)| {
                    self.idx.files.get(fi).and_then(|f| f.ctx.crate_name.clone()) == from
                });
                if same_crate || cands.len() == 1 {
                    preferred
                } else {
                    // Ambiguous cross-crate free fn: no edge (avoids
                    // false taint through unrelated same-name helpers).
                    Vec::new()
                }
            }
            Callee::OtherMethod(_) | Callee::Macro(_) => Vec::new(),
        }
    }

    /// `true` when the call site writes program output.
    fn is_output_op(&self, callee: &Callee) -> bool {
        match callee {
            Callee::Macro(name) => OUTPUT_MACROS.contains(&name.as_str()),
            Callee::SelfMethod(m) | Callee::OtherMethod(m) => m == "emit",
            Callee::FieldMethod { method, .. } => method == "emit",
            Callee::Path(segs) => {
                let last = segs.last().map(String::as_str);
                (segs.iter().any(|s| s == "fs")
                    && matches!(last, Some("write" | "write_all")))
                    || (segs.iter().any(|s| s == "File") && last == Some("create"))
            }
            Callee::Free(_) => false,
        }
    }
}

/// Runs the determinism taint over the indexed workspace.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn analyze(idx: &TypeIndex<'_>) -> TaintOutput {
    let t = Tainter::build(idx);
    let files = idx.files;
    let mut out = TaintOutput::default();

    // Seed pass. Seeds under an allow(T1) barrier consume the marker and
    // do not taint their function.
    let mut taint: BTreeMap<FnId, Vec<String>> = BTreeMap::new();
    let mut seeds_by_fn: BTreeMap<FnId, Vec<Seed>> = BTreeMap::new();
    for &id in &t.fns {
        let seeds = t.seeds(id);
        let mut chain: Option<Vec<String>> = None;
        for s in &seeds {
            if let Some(marker_line) = t1_barrier(files, id.0, s.line) {
                out.barrier_uses.insert((id.0, marker_line));
            } else if chain.is_none() {
                chain = Some(vec![t.fn_desc(id), s.desc.clone()]);
            }
        }
        if let Some(chain) = chain {
            taint.insert(id, chain);
        }
        if !seeds.is_empty() {
            seeds_by_fn.insert(id, seeds);
        }
    }

    // Fixpoint propagation over resolved call edges. A barrier at the
    // call line stops the edge (and consumes the marker).
    loop {
        let mut changed = false;
        for &id in &t.fns {
            if taint.contains_key(&id) {
                continue;
            }
            let Some(fun) = t.fn_def(id) else {
                continue;
            };
            let mut new_chain: Option<Vec<String>> = None;
            for call in &fun.calls {
                let callees = t.resolve_call(id, &call.callee);
                let Some(tainted_callee) =
                    callees.iter().copied().find(|c| taint.contains_key(c))
                else {
                    continue;
                };
                if let Some(marker_line) = t1_barrier(files, id.0, call.line) {
                    out.barrier_uses.insert((id.0, marker_line));
                    continue;
                }
                if new_chain.is_none() {
                    let mut chain = vec![t.fn_desc(id)];
                    if let Some(rest) = taint.get(&tainted_callee) {
                        chain.extend(rest.iter().take(5).cloned());
                    }
                    new_chain = Some(chain);
                }
            }
            if let Some(chain) = new_chain {
                taint.insert(id, chain);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // T1a: hash-iteration seeds in simulation library code are raw
    // violations at the seed site (suppression is the scan layer's job).
    for (&id, seeds) in &seeds_by_fn {
        let f = &files[id.0];
        if !f.ctx.is_sim_crate || f.ctx.kind != FileKind::Lib {
            continue;
        }
        for s in seeds {
            if s.kind != SeedKind::HashIter {
                continue;
            }
            out.violations.push(Violation {
                rule: "T1",
                severity: Severity::Error,
                path: f.rel_path.clone(),
                line: s.line,
                col: s.col,
                message: format!(
                    "{} in `{}`: iteration order is platform/seed-dependent and taints \
                     everything consuming this loop; iterate a sorted projection or a Vec \
                     side-list instead",
                    s.desc,
                    t.fn_desc(id)
                ),
                snippet: snippet_of(files, id.0, s.line),
            });
        }
    }

    // T1b: simulation code calling a tainted workspace function.
    for &id in &t.fns {
        let f = &files[id.0];
        if !f.ctx.is_sim_crate || !matches!(f.ctx.kind, FileKind::Lib | FileKind::Bin) {
            continue;
        }
        let Some(fun) = t.fn_def(id) else {
            continue;
        };
        for call in &fun.calls {
            let callees = t.resolve_call(id, &call.callee);
            let Some(chain) = callees.iter().find_map(|c| taint.get(c)) else {
                continue;
            };
            out.violations.push(Violation {
                rule: "T1",
                severity: Severity::Error,
                path: f.rel_path.clone(),
                line: call.line,
                col: call.col,
                message: format!(
                    "simulation code calls a nondeterministic function: {}",
                    chain.join(" -> ")
                ),
                snippet: snippet_of(files, id.0, call.line),
            });
        }
    }

    // T1c: a tainted non-simulation function that writes output reports
    // at the output site — nondeterminism reaching an artifact.
    for (&id, chain) in &taint {
        let f = &files[id.0];
        if f.ctx.is_sim_crate || !matches!(f.ctx.kind, FileKind::Lib | FileKind::Bin) {
            continue;
        }
        let Some(fun) = t.fn_def(id) else {
            continue;
        };
        for call in &fun.calls {
            if !t.is_output_op(&call.callee) {
                continue;
            }
            out.violations.push(Violation {
                rule: "T1",
                severity: Severity::Error,
                path: f.rel_path.clone(),
                line: call.line,
                col: call.col,
                message: format!(
                    "output written by a nondeterminism-tainted function: {}",
                    chain.join(" -> ")
                ),
                snippet: snippet_of(files, id.0, call.line),
            });
        }
    }

    out.violations
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.message).cmp(&(&b.path, b.line, b.col, &b.message)));
    out.tainted = taint
        .iter()
        .map(|(&id, chain)| TaintedFn {
            fn_desc: t.fn_desc(id),
            chain: chain.clone(),
            path: files[id.0].rel_path.clone(),
            line: t.fn_def(id).map_or(0, |f| f.line),
        })
        .collect();
    out.tainted.sort_by(|a, b| (&a.fn_desc, &a.path, a.line).cmp(&(&b.fn_desc, &b.path, b.line)));
    out
}

fn snippet_of(files: &[FileUnit], fi: usize, line: u32) -> String {
    files
        .get(fi)
        .and_then(|f| f.src.lines().nth(line.saturating_sub(1) as usize))
        .map(|l| l.trim_end().to_owned())
        .unwrap_or_default()
}
