//! R3 — lock discipline: the WAL mutex, the cache-shard `RwLock`s and
//! the market's plan-cache mutex must never be held across a call into
//! the pricing engines.
//!
//! Pricing is worst-case exponential (Theorem 3.5). A guard held across
//! it turns one expensive quote into a stall of every durable mutation
//! (WAL mutex), every cache hit in a shard (shard lock), or every
//! batch worker pricing a miss (plan mutex). The discipline is
//! annotation-driven:
//!
//! * A fn that acquires or receives one of the guarded locks is marked
//!   `// audit: holds-lock(wal)` / `// audit: holds-lock(cache-shard)`.
//! * Pricing entry points are the configured name list plus any fn
//!   marked `// audit: pricing-entry`.
//! * The checker walks the call edges (name-level, see DESIGN §5 for
//!   the approximation) from every under-lock call site; reaching a
//!   pricing entry is a diagnostic, with the offending path printed.
//!
//! Within the annotated fn, only calls **after** the first lock
//! acquisition count as under-lock — lock-guard lifetimes in this
//! workspace are whole-scope (no mid-fn drops), so textual order is
//! acquisition order. A fn with the annotation but no acquisition
//! (it *receives* a guard) is under-lock for its whole body.
//!
//! Two companion checks keep the annotations honest:
//!
//! * `lock-free` fns (and everything they reach) must contain no lock
//!   acquisition at all;
//! * in `crates/market/src/` and `crates/store/src/`, any fn that
//!   acquires a lock (`.lock()`, zero-argument `.read()`/`.write()`)
//!   must carry a `holds-lock(..)` annotation — new lock users cannot
//!   silently opt out of the discipline.
//!
//! Both walks run over the resolved [`CallGraph`] (receiver-aware,
//! rename-aware, dependency-direction honest); reaching a *pricing
//! entry* still fires on the call-site name, so a call into an
//! annotated engine fires even when the engine fn itself is behind a
//! receiver the graph cannot resolve.

use crate::callgraph::{CallGraph, Step};
use crate::model::{FileModel, FnItem};
use crate::rules::{Config, Diagnostic, Workspace};
use std::collections::{HashMap, HashSet};

/// Transitive dependency closure per crate (each crate includes itself).
/// Crates absent from the configured edge table close over themselves
/// only, so an unknown crate's names never resolve outside it.
/// (Shared with R6, which runs the same dependency-honest call walk.)
pub(crate) fn dep_closures(config: &Config) -> HashMap<String, HashSet<String>> {
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
pub(crate) fn may_call(
    closures: &HashMap<String, HashSet<String>>,
    caller_crate: &str,
    callee_crate: &str,
) -> bool {
    caller_crate == callee_crate
        || closures
            .get(caller_crate)
            .is_some_and(|c| c.contains(callee_crate))
}

/// Run R3 over the workspace.
pub fn check(ws: &Workspace, graph: &CallGraph, config: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let pricing = pricing_entry_names(ws, config);

    for (fi, f) in ws.files.iter().enumerate() {
        for (gi, g) in f.fns.iter().enumerate() {
            if g.is_test {
                continue;
            }
            // (a) guarded-lock holders must not reach pricing.
            if g.held_locks()
                .iter()
                .any(|l| config.guarded_locks.iter().any(|gl| gl == l))
            {
                check_no_pricing_reach(ws, graph, (fi, gi), f, g, &pricing, &mut out);
            }
            // (b) lock-free fns must not acquire or reach an acquire.
            if g.is_lock_free() {
                check_lock_free(ws, graph, (fi, gi), f, g, &mut out);
            }
            // (c) unannotated acquisitions in the lock-discipline paths.
            if config
                .lock_annotation_paths
                .iter()
                .any(|p| f.rel_path.starts_with(p))
                && !g.lock_acquires.is_empty()
                && g.held_locks().is_empty()
            {
                let a = &g.lock_acquires[0];
                if !f.allowed(a.line, "R3") && !f.allowed(g.line, "R3") {
                    out.push(Diagnostic {
                        file: f.rel_path.clone(),
                        line: g.line,
                        rule: "R3",
                        message: format!(
                            "fn `{}` acquires a lock (`.{}()` at line {}) without a \
                             `// audit: holds-lock(..)` annotation",
                            g.name, a.method, a.line
                        ),
                    });
                }
            }
        }
    }
    out
}

fn pricing_entry_names(ws: &Workspace, config: &Config) -> HashSet<String> {
    let mut names: HashSet<String> = config.pricing_entries.iter().cloned().collect();
    for f in &ws.files {
        for g in &f.fns {
            if g.is_pricing_entry() {
                names.insert(g.name.clone());
            }
        }
    }
    names
}

fn check_no_pricing_reach(
    ws: &Workspace,
    graph: &CallGraph,
    id: (usize, usize),
    f: &FileModel,
    g: &FnItem,
    pricing: &HashSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    // Walk the resolved graph from the under-lock call sites,
    // remembering one witness path per finding. Reaching a pricing
    // *name* fires even when the call site has no resolved target (an
    // engine behind an unresolvable receiver must still be flagged).
    let first_acquire = g.lock_acquires.first().map(|a| a.idx).unwrap_or(0);
    graph.walk(
        ws,
        id,
        |c| c.idx >= first_acquire && !f.allowed(c.line, "R3"),
        |v| {
            let caller_file = &ws.files[v.caller.0];
            let name = caller_file.unalias(&v.call.name);
            if pricing.contains(name) || pricing.contains(v.call.name.as_str()) {
                let mut full = v.path.to_vec();
                full.push(v.call.name.clone());
                out.push(Diagnostic {
                    file: f.rel_path.clone(),
                    line: v.origin_line,
                    rule: "R3",
                    message: format!(
                        "fn `{}` holds `{}` across a call path into pricing: {}",
                        g.name,
                        g.held_locks().join("+"),
                        full.join(" -> ")
                    ),
                });
                return Step::Prune;
            }
            Step::Descend
        },
    );
}

fn check_lock_free(
    ws: &Workspace,
    graph: &CallGraph,
    id: (usize, usize),
    f: &FileModel,
    g: &FnItem,
    out: &mut Vec<Diagnostic>,
) {
    if let Some(a) = g.lock_acquires.first() {
        out.push(Diagnostic {
            file: f.rel_path.clone(),
            line: a.line,
            rule: "R3",
            message: format!(
                "fn `{}` is annotated lock-free but acquires a lock (`.{}()`)",
                g.name, a.method
            ),
        });
        return;
    }
    // Transitive: no reached fn may acquire.
    graph.walk(
        ws,
        id,
        |c| !f.allowed(c.line, "R3"),
        |v| {
            for &t in graph.targets(v.caller, v.call_idx) {
                let callee = &ws.files[t.0].fns[t.1];
                if let Some(a) = callee.lock_acquires.first() {
                    let mut full = v.path.to_vec();
                    full.push(callee.name.clone());
                    out.push(Diagnostic {
                        file: f.rel_path.clone(),
                        line: v.origin_line,
                        rule: "R3",
                        message: format!(
                            "fn `{}` is annotated lock-free but reaches a lock \
                             acquisition (`.{}()` in `{}`): {}",
                            g.name,
                            a.method,
                            callee.name,
                            full.join(" -> ")
                        ),
                    });
                    return Step::Prune;
                }
            }
            Step::Descend
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileClass;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::new(
            files
                .iter()
                .map(|(p, s)| FileModel::build(p, crate::source::classify(p), s))
                .collect(),
        )
    }

    fn diags(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let _ = FileClass::Library;
        let w = ws(files);
        let config = Config::workspace_defaults();
        let graph = CallGraph::build(&w, &config);
        check(&w, &graph, &config)
    }

    #[test]
    fn direct_pricing_under_wal_lock_is_flagged() {
        let d = diags(&[(
            "crates/market/src/durable.rs",
            "// audit: holds-lock(wal)\n\
             fn purchase(&self) {\n    let wal = self.wal.lock();\n    self.market.quote_str(q);\n}",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("quote_str"));
    }

    #[test]
    fn transitive_pricing_reach_is_flagged() {
        let d = diags(&[
            (
                "crates/market/src/durable.rs",
                "// audit: holds-lock(wal)\n\
                 fn mutate(&self) {\n    let wal = self.wal.lock();\n    helper();\n}",
            ),
            (
                "crates/market/src/market.rs",
                "fn helper() { deeper(); }\nfn deeper() { pricer.price_cq_within(q, b); }",
            ),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("helper -> deeper -> price_cq_within"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn calls_before_the_acquisition_are_not_under_lock() {
        let d = diags(&[(
            "crates/market/src/durable.rs",
            "// audit: holds-lock(wal)\n\
             fn purchase(&self) {\n    let q = self.market.quote_str(query);\n    let wal = self.wal.lock();\n    wal.append(&q);\n}",
        )]);
        assert!(
            d.is_empty(),
            "pricing before the lock is the fixed pattern: {d:?}"
        );
    }

    #[test]
    fn non_guarded_locks_may_price() {
        // The market state lock is *designed* to pair quotes with data
        // snapshots; holds-lock(state) documents it without denying.
        let d = diags(&[(
            "crates/market/src/market.rs",
            "// audit: holds-lock(state)\n\
             fn quote_str_outer(&self) {\n    let s = self.state.read();\n    pricer.price_cq_within(q, b);\n}",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn annotated_pricing_entry_counts() {
        let d = diags(&[
            (
                "crates/market/src/durable.rs",
                "// audit: holds-lock(cache-shard)\n\
                 fn bad(&self) {\n    let s = self.shard(k).write();\n    custom_engine();\n}",
            ),
            (
                "crates/core/src/custom.rs",
                "// audit: pricing-entry\nfn custom_engine() {}",
            ),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn lock_free_violations() {
        let d = diags(&[(
            "crates/core/src/pricer.rs",
            "// audit: lock-free\nfn a(&self) { self.inner.lock(); }\n\
             // audit: lock-free\nfn b(&self) { c(); }\nfn c() { state.write(); }",
        )]);
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn unannotated_acquire_in_market_is_flagged() {
        let d = diags(&[(
            "crates/market/src/cache.rs",
            "fn get(&self, k: &str) { let s = self.shard(k).read(); }",
        )]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("without a"));
        // Outside the configured paths, no annotation is demanded.
        let d = diags(&[(
            "crates/core/src/budget.rs",
            "fn observe(&self) { let v = self.inner.lock(); }",
        )]);
        assert!(d.is_empty());
    }

    #[test]
    fn harness_fns_are_not_resolution_targets() {
        // `buy` here is a bench-driver fn that prices; the market-side
        // `record` under the WAL lock calls a *different* `buy` (e.g. a
        // ledger helper). Name-level resolution must not route through
        // the harness definition.
        let d = diags(&[
            (
                "crates/market/src/durable.rs",
                "// audit: holds-lock(wal)\n\
                 fn record(&self) {\n    let wal = self.wal.lock();\n    buy(&entry);\n}",
            ),
            (
                "crates/bench/src/lib.rs",
                "fn buy(m: &Market) { m.quote_str(q); }",
            ),
        ]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn resolution_respects_dependency_direction() {
        // qbdp-store does not depend on qbdp-market, so a store fn named
        // like a market helper must not resolve into market code. The
        // same shape with the helper in `core` (a real market dep) is a
        // finding.
        let base = (
            "crates/market/src/durable.rs",
            "// audit: holds-lock(wal)\n\
             fn mutate(&self) {\n    let wal = self.wal.lock();\n    helper();\n}",
        );
        let d = diags(&[
            base,
            (
                "crates/workload/src/gen.rs",
                "fn helper() { pricer.price_cq_within(q, b); }",
            ),
        ]);
        assert!(d.is_empty(), "market cannot call into qbdp-workload: {d:?}");
        let d = diags(&[
            base,
            (
                "crates/core/src/helpers.rs",
                "fn helper() { pricer.price_cq_within(q, b); }",
            ),
        ]);
        assert_eq!(d.len(), 1, "market *can* call into qbdp-core: {d:?}");
    }

    #[test]
    fn test_fns_are_exempt() {
        let d = diags(&[(
            "crates/market/src/cache.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(&self) { self.shard.read(); }\n}",
        )]);
        assert!(d.is_empty());
    }
}
