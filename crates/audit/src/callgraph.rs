//! The workspace call graph: every call site resolved to the set of
//! in-workspace fns it may invoke.
//!
//! Resolution is a *sound over-approximation* built from the syntactic
//! evidence the [`model`](crate::model) scanner records — no types, no
//! trait solving. It serves the two reachability rules, R8 and R9. The
//! candidate set for a call starts as every same-named library fn in
//! the caller's crate dependency closure (name-level matching,
//! dependency-direction honest), and is then **narrowed, never
//! widened**, on strong evidence only:
//!
//! * **typed receivers** — when the receiver's type is syntactically
//!   evident (`self.f()` via the enclosing impl; `self.field.f()` via
//!   the struct field table; `x.f()` via a typed param or inferable
//!   `let`), the candidate set is *exactly* the fns of that type: its
//!   inherent/trait-impl methods plus default bodies of traits it
//!   implements. A known type with no matching method means the call is
//!   std/derive surface (`.clone()`, `HashMap::insert`) — **no
//!   fallback**, the edge set is empty. A type from the configured
//!   foreign list (std containers, primitives) resolves to nothing
//!   outright. The workspace's one `Deref` impl is the market's lock
//!   guard, which code binds by destructuring a `(guard, token)` pair:
//!   the binding carries no type evidence, so a call through a guard
//!   keeps every candidate instead of passing silently to the guarded
//!   type (revisit if another `Deref` impl appears);
//! * `self.f()` inside `trait T`'s default body → candidates belonging
//!   to `T`, falling back to all when none match (the implementing
//!   type is unknowable);
//! * `Q::f()` → candidates whose `Self` type *or* trait is `Q` (after
//!   resolving `use .. as Q` renames) — a trait-qualified call fans
//!   out to all impls. When `Q` names no type, it is tried as a
//!   *module*: free fns in files named `Q.rs` (or directory `Q`, or
//!   crate `Q`/`qbdp_Q`) in the caller's dependency closure, so
//!   `json::quote(..)` resolves to the serializer, not the market;
//! * plain `f()` → candidates that are free fns, when any exist
//!   (inherent methods cannot be called bare, and associated fns
//!   cannot be `use`-imported);
//! * `recv.f()` with no receiver evidence (chains, call results,
//!   guards) → no narrowing: every candidate stays.
//!
//! Except for the typed-receiver rule, whenever the narrowed set would
//! be empty, resolution falls back to the full candidate set — an
//! imprecise edge is kept rather than a real one dropped. Free and
//! path call names pass through the file's `use`-rename table first,
//! so `use quote_str as qs; qs()` resolves to the real definition.
//!
//! Determinism: [`Workspace::new`] sorts files by path, candidate lists
//! are traversed in (file, fn) index order, and target sets are sorted
//! — the graph and every walk over it are identical across runs and
//! input orderings (unit-tested in this module).

use crate::model::{Call, CallKind, FileModel, FnItem, Recv};
use crate::rules::{Config, Workspace};
use crate::source::{crate_of, FileClass};
use std::collections::{HashMap, HashSet};

/// The workspace type registry the typed-receiver narrowing consults.
struct TypeInfo {
    /// Every type/trait name defined in library code.
    names: HashSet<String>,
    /// (type, field) → declared base type; `None` marks a conflict
    /// between same-named structs (evidence too ambiguous to use).
    fields: HashMap<(String, String), Option<String>>,
    /// type → traits it implements (for reaching default bodies).
    traits_of: HashMap<String, HashSet<String>>,
    /// Configured non-workspace types (std containers, primitives).
    foreign: HashSet<String>,
}

impl TypeInfo {
    fn build(ws: &Workspace, config: &Config) -> TypeInfo {
        let mut names = HashSet::new();
        let mut fields: HashMap<(String, String), Option<String>> = HashMap::new();
        let mut traits_of: HashMap<String, HashSet<String>> = HashMap::new();
        for f in &ws.files {
            if f.class != FileClass::Library {
                continue;
            }
            names.extend(f.type_names.iter().cloned());
            for (ty, tr) in &f.impl_traits {
                traits_of.entry(ty.clone()).or_default().insert(tr.clone());
            }
            for (ty, flds) in &f.type_fields {
                for (fld, base) in flds {
                    fields
                        .entry((ty.clone(), fld.clone()))
                        .and_modify(|e| {
                            if e.as_deref() != Some(base.as_str()) {
                                *e = None;
                            }
                        })
                        .or_insert_with(|| Some(base.clone()));
                }
            }
        }
        TypeInfo {
            names,
            fields,
            traits_of,
            foreign: config.foreign_types.iter().cloned().collect(),
        }
    }
}

/// A fn's identity in the workspace: (file index, fn index) into
/// [`Workspace::files`].
pub type FnId = (usize, usize);

/// The resolved call graph over a [`Workspace`].
pub struct CallGraph {
    /// `targets[fi][gi][k]`: sorted, deduped [`FnId`]s the `k`-th call
    /// of fn `gi` in file `fi` may invoke. Parallel to
    /// `ws.files[fi].fns[gi].calls`.
    targets: Vec<Vec<Vec<Vec<FnId>>>>,
}

/// One call site reached during a [`CallGraph::walk`], with the
/// evidence a rule needs to report it.
pub struct Visit<'w, 'p> {
    /// The fn making this call.
    pub caller: FnId,
    /// The call site itself.
    pub call: &'w Call,
    /// Index of `call` in the caller's `calls` vector — pass to
    /// [`CallGraph::targets`] to see what it resolves to.
    pub call_idx: usize,
    /// Fn names from the walk origin to `caller`, inclusive — the
    /// witness path printed in diagnostics.
    pub path: &'p [String],
    /// Line of the origin call site in the fn the walk started from
    /// (where the diagnostic is anchored).
    pub origin_line: u32,
}

/// What a [`CallGraph::walk`] visitor wants done with a call site's
/// outgoing edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Follow the resolved targets of this call.
    Descend,
    /// Do not descend through this call (a finding was already
    /// reported here, or a frontier cuts the graph).
    Prune,
}

/// Paths longer than this are diagnosis noise, not evidence; the walk
/// stops descending (same bound the pre-callgraph BFS used).
const MAX_PATH: usize = 24;

impl CallGraph {
    /// Resolve every call site in the workspace.
    pub fn build(ws: &Workspace, config: &Config) -> CallGraph {
        let closures = dep_closures(config);
        let info = TypeInfo::build(ws, config);
        let mut targets = Vec::with_capacity(ws.files.len());
        for f in &ws.files {
            let caller_crate = crate_of(&f.rel_path);
            let mut per_fn = Vec::with_capacity(f.fns.len());
            for g in &f.fns {
                let per_call = g
                    .calls
                    .iter()
                    .map(|c| resolve(ws, &closures, &info, f, caller_crate, g, c))
                    .collect();
                per_fn.push(per_call);
            }
            targets.push(per_fn);
        }
        CallGraph { targets }
    }

    /// The resolved targets of the `call_idx`-th call of `id`.
    pub fn targets(&self, id: FnId, call_idx: usize) -> &[FnId] {
        &self.targets[id.0][id.1][call_idx]
    }

    /// Breadth-first walk over resolved edges starting from `start`'s
    /// own call sites (those passing `enter`). `visit` runs on every
    /// call site reached — including `start`'s own — and decides
    /// whether to descend through it. Each fn is visited at most once;
    /// the witness path carries fn names from `start` to the current
    /// caller.
    pub fn walk<'w>(
        &self,
        ws: &'w Workspace,
        start: FnId,
        mut enter: impl FnMut(&Call) -> bool,
        mut visit: impl FnMut(&Visit<'w, '_>) -> Step,
    ) {
        let start_fn = &ws.files[start.0].fns[start.1];
        let mut visited: HashSet<FnId> = HashSet::new();
        visited.insert(start);
        // (fn to expand, path up to and including it, origin line)
        let mut queue: Vec<(FnId, Vec<String>, Option<u32>)> =
            vec![(start, vec![start_fn.name.clone()], None)];
        let mut qi = 0;
        while qi < queue.len() {
            let (id, path, origin) = queue[qi].clone();
            qi += 1;
            let g = &ws.files[id.0].fns[id.1];
            for (k, c) in g.calls.iter().enumerate() {
                if id == start && !enter(c) {
                    continue;
                }
                let origin_line = origin.unwrap_or(c.line);
                let v = Visit {
                    caller: id,
                    call: c,
                    call_idx: k,
                    path: &path,
                    origin_line,
                };
                if visit(&v) == Step::Prune || path.len() >= MAX_PATH {
                    continue;
                }
                for &t in self.targets(id, k) {
                    if visited.insert(t) {
                        let mut next = path.clone();
                        next.push(ws.files[t.0].fns[t.1].name.clone());
                        queue.push((t, next, Some(origin_line)));
                    }
                }
            }
        }
    }
}

/// Transitive dependency closure per crate (each crate includes itself).
/// Crates absent from the configured edge table close over themselves
/// only, so an unknown crate's names never resolve outside it.
fn dep_closures(config: &Config) -> HashMap<String, HashSet<String>> {
    let direct: HashMap<&str, &Vec<String>> = config
        .crate_deps
        .iter()
        .map(|(n, d)| (n.as_str(), d))
        .collect();
    let mut out = HashMap::new();
    for (name, _) in &config.crate_deps {
        let mut closure: HashSet<String> = HashSet::new();
        let mut stack = vec![name.as_str()];
        while let Some(c) = stack.pop() {
            if closure.insert(c.to_string()) {
                if let Some(deps) = direct.get(c) {
                    stack.extend(deps.iter().map(String::as_str));
                }
            }
        }
        out.insert(name.clone(), closure);
    }
    out
}

/// May a fn defined in `caller_crate` call into `callee_crate`?
fn may_call(
    closures: &HashMap<String, HashSet<String>>,
    caller_crate: &str,
    callee_crate: &str,
) -> bool {
    caller_crate == callee_crate
        || closures
            .get(caller_crate)
            .is_some_and(|c| c.contains(callee_crate))
}

/// Resolve one call site (see the module docs for the narrowing rules).
fn resolve(
    ws: &Workspace,
    closures: &HashMap<String, HashSet<String>>,
    info: &TypeInfo,
    f: &FileModel,
    caller_crate: &str,
    g: &FnItem,
    c: &Call,
) -> Vec<FnId> {
    // The definition name: free and path calls see `use`-renames, a
    // method name is never aliased.
    let def_name = match c.kind {
        CallKind::Method { .. } => c.name.as_str(),
        _ => f.unalias(&c.name),
    };
    let Some(defs) = ws.fn_index.get(def_name) else {
        return Vec::new();
    };
    let mut all: Vec<FnId> = Vec::new();
    for &(fi, gi) in defs {
        let callee = &ws.files[fi].fns[gi];
        let callee_crate = crate_of(&ws.files[fi].rel_path);
        if callee.is_test
            || ws.files[fi].class != FileClass::Library
            || !may_call(closures, caller_crate, callee_crate)
        {
            continue;
        }
        all.push((fi, gi));
    }
    let item = |&(fi, gi): &FnId| &ws.files[fi].fns[gi];
    // Methods callable on a receiver whose type `t` is known: inherent
    // and trait-impl methods of `t`, plus default bodies of `t`'s
    // traits, plus the trait's own surface when `t` *is* a trait
    // (`&dyn T` / `&impl T` receivers).
    let methods_of = |t: &str| -> Vec<FnId> {
        let traits = info.traits_of.get(t);
        all.iter()
            .filter(|id| {
                let it = item(id);
                it.self_ty.as_deref() == Some(t)
                    || it.in_trait.as_deref() == Some(t)
                    || it
                        .in_trait
                        .as_deref()
                        .is_some_and(|tr| traits.is_some_and(|ts| ts.contains(tr)))
            })
            .copied()
            .collect()
    };
    // The receiver's evident type, when the call has one.
    let recv_type: Option<String> = match &c.kind {
        CallKind::Method {
            recv: Recv::SelfDirect,
        } => g.self_ty.clone(),
        CallKind::Method {
            recv: Recv::SelfField(fld),
        } => g.self_ty.as_ref().and_then(|s| {
            info.fields
                .get(&(s.clone(), fld.clone()))
                .cloned()
                .flatten()
        }),
        CallKind::Method {
            recv: Recv::Ident(x),
        } => g.binding_types.get(x).cloned(),
        _ => None,
    };
    match recv_type.as_deref() {
        // A foreign receiver (std container, primitive): the method
        // lives outside the workspace. No edge, no fallback.
        Some(t) if info.foreign.contains(t) => return Vec::new(),
        // A workspace type: exactly its method surface. An empty set is
        // the std/derive surface (`.clone()`, guard methods) — still no
        // fallback: the type is known and defines no such fn.
        Some(t) if info.names.contains(t) => {
            return finish(ws, defs, methods_of(t));
        }
        // Unknown ident (generic param, foreign type not listed): no
        // evidence — fall through to the untyped rules.
        _ => {}
    }
    let narrowed: Vec<FnId> = match &c.kind {
        CallKind::Method {
            recv: Recv::SelfDirect,
        } => match (&g.self_ty, &g.in_trait) {
            // self_ty handled above unless the impl type is somehow
            // unregistered; fall back to the old narrowing then.
            (Some(s), _) => methods_of(s),
            (None, Some(t)) => all
                .iter()
                .filter(|id| item(id).in_trait.as_deref() == Some(t.as_str()))
                .copied()
                .collect(),
            (None, None) => Vec::new(),
        },
        CallKind::Path { qual: Some(q) } => {
            let q = f.unalias(q);
            let q = if q == "Self" {
                g.self_ty.as_deref().unwrap_or(q)
            } else {
                q
            };
            let typed: Vec<FnId> = all
                .iter()
                .filter(|id| {
                    let it = item(id);
                    it.self_ty.as_deref() == Some(q) || it.in_trait.as_deref() == Some(q)
                })
                .copied()
                .collect();
            if typed.is_empty() {
                // Not a type: try `q` as a module — free fns defined in
                // a file/directory/crate of that name.
                all.iter()
                    .filter(|id| {
                        let it = item(id);
                        it.self_ty.is_none()
                            && it.in_trait.is_none()
                            && module_matches(&ws.files[id.0].rel_path, q)
                    })
                    .copied()
                    .collect()
            } else {
                typed
            }
        }
        CallKind::Free => all
            .iter()
            .filter(|id| {
                let it = item(id);
                it.self_ty.is_none() && it.in_trait.is_none()
            })
            .copied()
            .collect(),
        CallKind::Method { .. } | CallKind::Path { qual: None } => Vec::new(),
    };
    let out = if narrowed.is_empty() { all } else { narrowed };
    finish(ws, defs, out)
}

/// Whether `rel_path` is plausibly the module `q` names: the file stem
/// (`json.rs` for `json::quote`), the parent directory (`exact/mod.rs`
/// for `exact::price`), or the crate (`qbdp_obs::record` → any file in
/// `crates/obs/`).
fn module_matches(rel_path: &str, q: &str) -> bool {
    let stem = std::path::Path::new(rel_path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("");
    let parent = std::path::Path::new(rel_path)
        .parent()
        .and_then(|p| p.file_name())
        .and_then(|s| s.to_str())
        .unwrap_or("");
    let krate = crate_of(rel_path);
    stem == q || parent == q || krate == q || q.strip_prefix("qbdp_") == Some(krate)
}

/// Apply the trait-declaration widening and canonicalize the edge set.
fn finish(ws: &Workspace, defs: &[(usize, usize)], mut out: Vec<FnId>) -> Vec<FnId> {
    let item = |&(fi, gi): &FnId| &ws.files[fi].fns[gi];
    // A target that is a bodiless trait declaration stands for every
    // impl: widen to the trait's whole edge set so dispatch through a
    // `&dyn T` or generic bound stays covered.
    let decl_traits: Vec<String> = out
        .iter()
        .filter(|id| item(id).body.is_none())
        .filter_map(|id| item(id).in_trait.clone())
        .collect();
    if !decl_traits.is_empty() {
        for &(fi, gi) in defs {
            let callee = &ws.files[fi].fns[gi];
            if callee.is_test || ws.files[fi].class != FileClass::Library {
                continue;
            }
            if callee
                .in_trait
                .as_deref()
                .is_some_and(|t| decl_traits.iter().any(|d| d == t))
            {
                out.push((fi, gi));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::new(
            files
                .iter()
                .map(|(p, s)| FileModel::build(p, crate::source::classify(p), s))
                .collect(),
        )
    }

    fn graph(w: &Workspace) -> CallGraph {
        CallGraph::build(w, &Config::workspace_defaults())
    }

    /// Every (caller qual_name, callee qual_name) edge, sorted — the
    /// canonical form the determinism tests compare.
    fn edge_list(w: &Workspace, g: &CallGraph) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (fi, f) in w.files.iter().enumerate() {
            for (gi, item) in f.fns.iter().enumerate() {
                for k in 0..item.calls.len() {
                    for &(tf, tg) in g.targets((fi, gi), k) {
                        out.push((item.qual_name(), w.files[tf].fns[tg].qual_name()));
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn self_method_calls_narrow_to_the_impl() {
        let w = ws(&[(
            "crates/market/src/market.rs",
            "impl Market {\n    fn quote(&self) { self.helper(); }\n    fn helper(&self) {}\n}\n\
                 impl Other {\n    fn helper(&self) { bad(); }\n}\nfn bad() {}",
        )]);
        let g = graph(&w);
        let edges = edge_list(&w, &g);
        assert!(edges.contains(&("Market::quote".into(), "Market::helper".into())));
        assert!(
            !edges.contains(&("Market::quote".into(), "Other::helper".into())),
            "self.helper() must not resolve into an unrelated impl: {edges:?}"
        );
    }

    #[test]
    fn unknown_receivers_keep_every_candidate() {
        // `x` is a generic parameter: no type evidence, so both impls
        // stay as candidates.
        let w = ws(&[(
            "crates/market/src/market.rs",
            "impl A {\n    fn m(&self) {}\n}\nimpl B {\n    fn m(&self) {}\n}\n\
             fn f<X>(x: &X) { x.m(); }",
        )]);
        let g = graph(&w);
        let edges = edge_list(&w, &g);
        assert!(edges.contains(&("f".into(), "A::m".into())));
        assert!(edges.contains(&("f".into(), "B::m".into())));
    }

    #[test]
    fn typed_params_narrow_receivers_to_their_type() {
        let w = ws(&[(
            "crates/market/src/market.rs",
            "impl A {\n    fn m(&self) {}\n}\nimpl B {\n    fn m(&self) {}\n}\n\
             fn f(x: &A) { x.m(); }",
        )]);
        let g = graph(&w);
        let edges = edge_list(&w, &g);
        assert!(edges.contains(&("f".into(), "A::m".into())));
        assert!(
            !edges.contains(&("f".into(), "B::m".into())),
            "x: &A must not resolve into B: {edges:?}"
        );
    }

    #[test]
    fn typed_lets_and_struct_fields_narrow_receivers() {
        let w = ws(&[(
            "crates/market/src/market.rs",
            "struct Market {\n    wal: Wal,\n}\n\
             impl Wal {\n    fn append(&self) {}\n}\n\
             impl Journal {\n    fn append(&self) {}\n}\n\
             impl Market {\n    fn insert(&self) { self.wal.append(); }\n}\n\
             fn f() {\n    let w: Wal = mk();\n    w.append();\n}\nfn mk() {}",
        )]);
        let g = graph(&w);
        let edges = edge_list(&w, &g);
        assert!(edges.contains(&("Market::insert".into(), "Wal::append".into())));
        assert!(
            !edges.contains(&("Market::insert".into(), "Journal::append".into())),
            "self.wal is a Wal, not a Journal: {edges:?}"
        );
        assert!(edges.contains(&("f".into(), "Wal::append".into())));
        assert!(!edges.contains(&("f".into(), "Journal::append".into())));
    }

    #[test]
    fn foreign_receivers_resolve_to_nothing() {
        // `map` is a HashMap: its `.insert()` is std surface and must
        // not alias the workspace's `Market::insert`.
        let w = ws(&[(
            "crates/market/src/market.rs",
            "impl Market {\n    fn insert(&self) {}\n}\n\
             fn f(map: &mut HashMap) { map.insert(); }",
        )]);
        let g = graph(&w);
        let edges = edge_list(&w, &g);
        assert!(
            !edges.iter().any(|(c, _)| c == "f"),
            "HashMap::insert must not resolve into the workspace: {edges:?}"
        );
    }

    #[test]
    fn known_type_without_the_method_means_no_fallback() {
        // Wal has no `clear`; the call is derive/std surface, not the
        // unrelated Cache::clear.
        let w = ws(&[(
            "crates/market/src/market.rs",
            "impl Wal {\n    fn append(&self) {}\n}\n\
             impl Cache {\n    fn clear(&self) {}\n}\n\
             fn f(w: &Wal) { w.clear(); }",
        )]);
        let g = graph(&w);
        let edges = edge_list(&w, &g);
        assert!(
            !edges.contains(&("f".into(), "Cache::clear".into())),
            "a known type lacking the method must not fall back: {edges:?}"
        );
    }

    #[test]
    fn typed_receivers_reach_trait_default_bodies() {
        let w = ws(&[(
            "crates/market/src/market.rs",
            "trait Ops {\n    fn run(&self) { self.step(); }\n    fn step(&self);\n}\n\
             impl Ops for A {\n    fn step(&self) {}\n}\n\
             fn f(a: &A) { a.run(); }",
        )]);
        let g = graph(&w);
        let edges = edge_list(&w, &g);
        assert!(
            edges.contains(&("f".into(), "Ops::run".into())),
            "A implements Ops, so a.run() reaches the default body: {edges:?}"
        );
    }

    #[test]
    fn module_qualified_calls_resolve_to_the_module_file() {
        // `json::quote(..)` is the serializer free fn, not the market's
        // quote method — the artifact that motivated module narrowing.
        let w = ws(&[
            ("crates/serve/src/json.rs", "pub fn quote() {}"),
            (
                "crates/market/src/market.rs",
                "impl Market {\n    fn quote(&self) { lock_then_price(); }\n}\nfn lock_then_price() {}",
            ),
            (
                "crates/serve/src/server.rs",
                "fn handle() { json::quote(); }",
            ),
        ]);
        let g = graph(&w);
        let edges = edge_list(&w, &g);
        assert!(edges.contains(&("handle".into(), "quote".into())));
        assert!(
            !edges.contains(&("handle".into(), "Market::quote".into())),
            "json::quote must not resolve into Market: {edges:?}"
        );
    }

    #[test]
    fn path_calls_narrow_by_type_and_fan_out_over_trait_impls() {
        let w = ws(&[(
            "crates/market/src/market.rs",
            "impl Wal {\n    fn open() {}\n}\nimpl Cache {\n    fn open() {}\n}\n\
             trait Ops {\n    fn run(&self);\n}\n\
             impl Ops for A {\n    fn run(&self) {}\n}\n\
             impl Ops for B {\n    fn run(&self) {}\n}\n\
             fn f() { Wal::open(); }\nfn h(o: &dyn Ops) { Ops::run(o); }",
        )]);
        let g = graph(&w);
        let edges = edge_list(&w, &g);
        assert!(edges.contains(&("f".into(), "Wal::open".into())));
        assert!(!edges.contains(&("f".into(), "Cache::open".into())));
        // Trait-qualified dispatch covers every in-workspace impl.
        assert!(edges.contains(&("h".into(), "A::run".into())));
        assert!(edges.contains(&("h".into(), "B::run".into())));
    }

    #[test]
    fn free_calls_skip_methods_but_fall_back_when_nothing_matches() {
        let w = ws(&[(
            "crates/market/src/market.rs",
            "impl S {\n    fn helper(&self) {}\n}\nfn helper() {}\nfn f() { helper(); }\n\
             fn g() { only_method(); }\nimpl T {\n    fn only_method(&self) {}\n}",
        )]);
        let g = graph(&w);
        let edges = edge_list(&w, &g);
        assert!(edges.contains(&("f".into(), "helper".into())));
        assert!(!edges.contains(&("f".into(), "S::helper".into())));
        // No free candidate: keep the full set rather than dropping edges.
        assert!(edges.contains(&("g".into(), "T::only_method".into())));
    }

    #[test]
    fn use_renames_resolve_to_the_original_definition() {
        let w = ws(&[
            (
                "crates/market/src/a.rs",
                "use crate::b::quote_str as qs;\nfn f() { qs(); }",
            ),
            ("crates/market/src/b.rs", "fn quote_str() {}"),
        ]);
        let g = graph(&w);
        let edges = edge_list(&w, &g);
        assert!(
            edges.contains(&("f".into(), "quote_str".into())),
            "aliased free call must resolve through the rename: {edges:?}"
        );
    }

    #[test]
    fn dependency_direction_is_honored() {
        let w = ws(&[
            ("crates/obs/src/lib.rs", "fn f() { helper(); }"),
            ("crates/market/src/lib.rs", "fn helper() {}"),
        ]);
        let g = graph(&w);
        assert!(edge_list(&w, &g).is_empty(), "obs cannot call into market");
    }

    #[test]
    fn trait_declaration_edges_widen_to_all_impls() {
        let w = ws(&[(
            "crates/market/src/market.rs",
            "trait Ops {\n    fn run(&self);\n}\n\
             impl Ops for A {\n    fn run(&self) {}\n}\n\
             fn f(o: &impl Sized) { o.run(); }",
        )]);
        let g = graph(&w);
        let edges = edge_list(&w, &g);
        // The unqualified receiver keeps both the declaration and the
        // impl; the declaration widens to the impl set.
        assert!(edges.contains(&("f".into(), "A::run".into())));
    }

    #[test]
    fn graph_is_identical_across_file_orderings() {
        let files = [
            (
                "crates/market/src/market.rs",
                "impl Market {\n    fn quote(&self) { self.helper(); price_cq(); }\n    fn helper(&self) {}\n}",
            ),
            ("crates/core/src/pricer.rs", "fn price_cq() { inner(); }\nfn inner() {}"),
            ("crates/store/src/wal.rs", "impl Wal {\n    fn append(&self) { self.sync(); }\n    fn sync(&self) {}\n}"),
        ];
        let mut shuffled = files;
        shuffled.reverse();
        let (wa, wb) = (ws(&files), ws(&shuffled));
        let (ga, gb) = (graph(&wa), graph(&wb));
        assert_eq!(edge_list(&wa, &ga), edge_list(&wb, &gb));
        // And across repeated builds of the same input.
        assert_eq!(edge_list(&wa, &ga), edge_list(&wa, &graph(&wa)));
    }

    #[test]
    fn walk_reports_witness_paths_and_respects_prune() {
        let w = ws(&[(
            "crates/market/src/market.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() { target(); }\nfn target() {}",
        )]);
        let g = graph(&w);
        let a = (0usize, 0usize);
        let mut hits: Vec<(String, Vec<String>)> = Vec::new();
        g.walk(
            &w,
            a,
            |_| true,
            |v| {
                hits.push((v.call.name.clone(), v.path.to_vec()));
                Step::Descend
            },
        );
        assert!(hits.contains(&("target".into(), vec!["a".into(), "b".into(), "c".into()])));
        // Pruning at b() keeps the walk from ever reaching c's calls.
        let mut names: Vec<String> = Vec::new();
        g.walk(
            &w,
            a,
            |_| true,
            |v| {
                names.push(v.call.name.clone());
                Step::Prune
            },
        );
        assert_eq!(names, vec!["b".to_string()]);
    }
}
