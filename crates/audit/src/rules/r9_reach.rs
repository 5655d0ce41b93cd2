//! R9 — panic reachability: no panicking call reachable from the
//! serving entry points.
//!
//! The workspace clippy lints ban `unwrap`/`expect`/`panic!`
//! file-locally, but every `#[expect(clippy::…, reason)]` escape is a
//! *claim* — "this invariant holds, the panic cannot fire". R9 checks the part of that claim the file cannot
//! see: whether the site is reachable from a serving entry point
//! (`Market::quote*`, `Server::run`, `Wal::append`, configured as
//! qualified names with `*` prefix wildcards) without passing a panic
//! containment frontier. A buyer-triggered panic beyond a frontier
//! tears down the serving thread; inside one it becomes a degraded
//! quote — the difference is the whole availability story.
//!
//! Panic sites are `unwrap`/`expect` calls and the `panic!` /
//! `unreachable!` / `todo!` / `unimplemented!` macros. `assert!` and
//! friends are deliberately *not* sites: they guard invariants whose
//! failure must abort (and `debug_assert!` vanishes in release);
//! widening R9 to them would drown the signal (DESIGN §5).
//!
//! The walk over the resolved [`CallGraph`] is cut by three frontiers:
//!
//! * the argument list of a direct `catch_unwind(..)` call;
//! * the argument list of a call to any fn that itself calls
//!   `catch_unwind` directly (the workspace's `contain_panic(|| …)`
//!   wrapper — the closure body runs under the hook);
//! * fns annotated `// audit: panic-ok(why)` — their panics are
//!   accepted and the walk does not descend into them.
//!
//! Findings anchor at the panic site (that is where the fix goes), name
//! the entry point, and print the witness path. Each site is reported
//! once even when several entries reach it. Suppression:
//! `// audit: allow(R9: why)` on the site or on the call line that
//! reaches it.

use crate::callgraph::{CallGraph, FnId};
use crate::lexer::Tok;
use crate::model::FileModel;
use crate::rules::{Config, Diagnostic, Workspace};
use std::collections::BTreeSet;

/// Run R9 over the workspace.
pub fn check(ws: &Workspace, graph: &CallGraph, config: &Config) -> Vec<Diagnostic> {
    let containment = containment_fns(ws);
    let mut reported: BTreeSet<(String, u32)> = BTreeSet::new();
    let mut out = Vec::new();
    // Entries in deterministic (file, fn) order; first entry to reach a
    // site claims the report.
    for (fi, f) in ws.files.iter().enumerate() {
        for (gi, g) in f.fns.iter().enumerate() {
            if g.is_test || !is_entry(&g.qual_name(), config) || g.is_panic_ok() {
                continue;
            }
            walk_entry(
                ws,
                graph,
                config,
                &containment,
                (fi, gi),
                &mut reported,
                &mut out,
            );
        }
    }
    out
}

fn is_entry(qual_name: &str, config: &Config) -> bool {
    config
        .panic_entries
        .iter()
        .any(|e| match e.strip_suffix('*') {
            Some(prefix) => qual_name.starts_with(prefix),
            None => qual_name == e,
        })
}

/// Fns that call `catch_unwind` directly: a call to one of these is a
/// containment frontier for everything in its argument list.
fn containment_fns(ws: &Workspace) -> BTreeSet<FnId> {
    let mut out = BTreeSet::new();
    for (fi, f) in ws.files.iter().enumerate() {
        for (gi, g) in f.fns.iter().enumerate() {
            if g.calls.iter().any(|c| c.name == "catch_unwind") {
                out.insert((fi, gi));
            }
        }
    }
    out
}

/// Code-token ranges in `g`'s body that run under a containment
/// frontier: direct `catch_unwind(..)` argument lists plus the argument
/// lists of calls into containment fns.
fn contained_ranges(
    ws: &Workspace,
    graph: &CallGraph,
    containment: &BTreeSet<FnId>,
    id: FnId,
) -> Vec<(usize, usize)> {
    let f = &ws.files[id.0];
    let g = &f.fns[id.1];
    let mut out: Vec<(usize, usize)> = f
        .catch_ranges
        .iter()
        .filter(|&&(s, e)| matches!(g.body, Some((bs, be)) if s >= bs && e <= be))
        .copied()
        .collect();
    for (k, c) in g.calls.iter().enumerate() {
        if graph.targets(id, k).iter().any(|t| containment.contains(t)) {
            out.push((c.idx + 2, f.matching_paren(c.idx + 1)));
        }
    }
    out
}

fn walk_entry(
    ws: &Workspace,
    graph: &CallGraph,
    config: &Config,
    containment: &BTreeSet<FnId>,
    entry: FnId,
    reported: &mut BTreeSet<(String, u32)>,
    out: &mut Vec<Diagnostic>,
) {
    let entry_name = ws.files[entry.0].fns[entry.1].qual_name();
    let mut visited: BTreeSet<FnId> = BTreeSet::new();
    visited.insert(entry);
    let mut queue: Vec<(FnId, Vec<String>)> = vec![(entry, vec![entry_name.clone()])];
    let mut qi = 0;
    while qi < queue.len() {
        let (id, path) = queue[qi].clone();
        qi += 1;
        let f = &ws.files[id.0];
        let g = &f.fns[id.1];
        let contained = contained_ranges(ws, graph, containment, id);
        let under = |idx: usize| contained.iter().any(|&(s, e)| idx >= s && idx < e);

        // Macro panic sites in this body.
        for (idx, line, what) in macro_panics(f, g) {
            if under(idx) || f.allowed(line, "R9") || f.in_test_code(idx) {
                continue;
            }
            report(reported, out, f, line, &entry_name, &path, what);
        }
        for (k, c) in g.calls.iter().enumerate() {
            if under(c.idx) || f.allowed(c.line, "R9") || f.in_test_code(c.idx) {
                continue;
            }
            if matches!(c.name.as_str(), "unwrap" | "expect") {
                report(
                    reported,
                    out,
                    f,
                    c.line,
                    &entry_name,
                    &path,
                    &format!("`.{}()`", c.name),
                );
                continue;
            }
            for &t in graph.targets(id, k) {
                let callee = &ws.files[t.0].fns[t.1];
                if callee.is_panic_ok() || !visited.insert(t) {
                    continue;
                }
                if path.len() >= 24 {
                    continue;
                }
                let mut next = path.clone();
                next.push(callee.name.clone());
                queue.push((t, next));
            }
        }
    }
    let _ = config;
}

/// `panic!` / `unreachable!` / `todo!` / `unimplemented!` sites in the
/// fn body: (token idx, line, description).
fn macro_panics<'a>(f: &'a FileModel, g: &crate::model::FnItem) -> Vec<(usize, u32, &'a str)> {
    let Some((s, e)) = g.body else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for i in s..e.min(f.code.len()) {
        let Tok::Ident(name) = &f.code[i].tok else {
            continue;
        };
        if matches!(
            name.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && f.code.get(i + 1).is_some_and(|t| t.is_punct('!'))
        {
            out.push((i, f.code[i].line, name.as_str()));
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn report(
    reported: &mut BTreeSet<(String, u32)>,
    out: &mut Vec<Diagnostic>,
    f: &FileModel,
    line: u32,
    entry: &str,
    path: &[String],
    what: &str,
) {
    if !reported.insert((f.rel_path.clone(), line)) {
        return;
    }
    out.push(Diagnostic {
        file: f.rel_path.clone(),
        line,
        rule: "R9",
        message: format!(
            "{what} is reachable from serving entry `{entry}` with no panic \
             containment: {} (contain it, annotate `panic-ok(why)`, or return \
             an error)",
            path.join(" -> ")
        ),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;

    fn diags(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let ws = Workspace::new(
            files
                .iter()
                .map(|(p, s)| FileModel::build(p, crate::source::classify(p), s))
                .collect(),
        );
        let config = Config::workspace_defaults();
        let graph = CallGraph::build(&ws, &config);
        check(&ws, &graph, &config)
    }

    #[test]
    fn reachable_unwrap_is_flagged_with_path() {
        let d = diags(&[(
            "crates/market/src/market.rs",
            "impl Market {\n    fn quote_str(&self) {\n        self.normalize();\n    }\n    fn normalize(&self) {\n        deep();\n    }\n}\n\
             fn deep() {\n    let v = table.get(k).unwrap();\n}",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("Market::quote_str"),
            "{}",
            d[0].message
        );
        assert!(
            d[0].message.contains("quote_str -> normalize -> deep"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn macro_panics_are_sites_but_asserts_are_not() {
        let d = diags(&[(
            "crates/market/src/market.rs",
            "impl Market {\n    fn quote_str(&self) {\n        if bad { panic!(\"no\"); }\n        assert!(invariant);\n        debug_assert_eq!(a, b);\n    }\n}",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("panic"), "{}", d[0].message);
    }

    #[test]
    fn catch_unwind_argument_list_is_a_frontier() {
        let d = diags(&[(
            "crates/market/src/market.rs",
            "impl Market {\n    fn quote_str(&self) {\n        let r = catch_unwind(|| self.price_it());\n        after();\n    }\n    fn price_it(&self) {\n        x.unwrap();\n    }\n}",
        )]);
        assert!(d.is_empty(), "contained panic must not be flagged: {d:?}");
    }

    #[test]
    fn containment_wrapper_argument_list_is_a_frontier() {
        // contain_panic calls catch_unwind, so calls inside
        // contain_panic(|| ..) run under the hood's containment.
        let d = diags(&[(
            "crates/market/src/market.rs",
            "fn contain_panic(f: F) -> R {\n    catch_unwind(AssertUnwindSafe(f))\n}\n\
             impl Market {\n    fn quote_str(&self) {\n        contain_panic(|| self.price_it());\n    }\n    fn price_it(&self) {\n        x.unwrap();\n    }\n}",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn panic_ok_cuts_the_walk() {
        let d = diags(&[(
            "crates/market/src/market.rs",
            "impl Market {\n    fn quote_str(&self) {\n        self.shard_index();\n    }\n\
             // audit: panic-ok(shard count is a compile-time constant, index is masked)\n\
             fn shard_index(&self) {\n        masks.get(i).unwrap();\n    }\n}",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn non_entry_fns_are_not_walked() {
        let d = diags(&[(
            "crates/market/src/market.rs",
            "impl Market {\n    fn admin_reset(&self) {\n        x.unwrap();\n    }\n}",
        )]);
        assert!(d.is_empty(), "only serving entries seed the walk: {d:?}");
    }

    #[test]
    fn wildcard_entries_match_prefixes() {
        let d = diags(&[(
            "crates/market/src/market.rs",
            "impl Market {\n    fn quote_batch(&self) {\n        x.unwrap();\n    }\n}\n\
             impl Wal {\n    fn append(&self) {\n        y.unwrap();\n    }\n}\n\
             impl Server {\n    fn run(&self) {\n        z.unwrap();\n    }\n}",
        )]);
        assert_eq!(d.len(), 3, "{d:?}");
    }

    #[test]
    fn sites_are_reported_once_across_entries() {
        let d = diags(&[(
            "crates/market/src/market.rs",
            "impl Market {\n    fn quote_str(&self) {\n        shared();\n    }\n    fn quote_batch(&self) {\n        shared();\n    }\n}\n\
             fn shared() {\n    x.unwrap();\n}",
        )]);
        assert_eq!(d.len(), 1, "one site, one report: {d:?}");
    }

    #[test]
    fn allow_r9_suppresses_the_site() {
        let d = diags(&[(
            "crates/market/src/market.rs",
            "impl Market {\n    fn quote_str(&self) {\n        // audit: allow(R9: the key was inserted two lines up)\n        let v = m.get(k).unwrap();\n    }\n}",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let d = diags(&[(
            "crates/market/src/market.rs",
            "impl Market {\n    fn quote_str(&self) {\n        ok();\n    }\n}\n\
             #[cfg(test)]\nmod tests {\n    fn quote_str_helper() {\n        x.unwrap();\n    }\n}",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }
}
