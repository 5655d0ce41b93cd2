//! The rule engines and the workspace-level analysis driver.
//!
//! Each rule consumes [`FileModel`]s and emits [`Diagnostic`]s. R1 is
//! file-local; the others need the cross-file call graph or fn index,
//! so the driver builds every model first and hands rules a
//! [`Workspace`] view. Panic-freedom and `unsafe` hygiene are not rules
//! here: the workspace's clippy lint table owns them. Nor are lock
//! discipline and the lockless telemetry record path: `qbdp-market`'s
//! lock-level types and the `disallowed-types` lists in
//! `crates/market/clippy.toml` and `crates/obs/clippy.toml` own those.

use crate::model::FileModel;
use std::collections::HashMap;
use std::fmt;

pub mod r1_money;
pub mod r4_fuel;
pub mod r8_taint;
pub mod r9_reach;

/// Every rule id the engine reports, `R0` (malformed annotation) first.
/// `--rule` validates against this list, and `allow(..)` against every
/// entry but `R0`, so an annotation naming a retired rule is itself a
/// finding rather than a silent no-op.
pub const RULES: [&str; 5] = ["R0", "R1", "R4", "R8", "R9"];

/// One finding, printed as `file:line: RULE: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id, one of [`RULES`].
    pub rule: &'static str,
    /// Human-readable finding.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Tunables for the rule engines. [`Config::workspace_defaults`] is the
/// qbdp policy; tests construct narrower configs.
#[derive(Debug, Clone)]
pub struct Config {
    /// R1: identifier words that taint an operand as money-valued.
    pub taint_words: Vec<String>,
    /// R1: fn-name prefixes inside which raw arithmetic is the point
    /// (the wrappers themselves).
    pub blessed_fn_prefixes: Vec<String>,
    /// R4: path prefixes whose loops must be fuel-metered.
    pub metered_paths: Vec<String>,
    /// R4: method/fn names that charge a budget.
    pub meter_calls: Vec<String>,
    /// R8: path prefixes of serving-path code where a `Result` that can
    /// carry `StoreError::Transient` must not be discarded.
    pub transient_paths: Vec<String>,
    /// R9: serving entry points, matched against the fn's qualified
    /// name (`Market::quote_str`); a trailing `*` is a prefix wildcard
    /// (`Market::quote*`).
    pub panic_entries: Vec<String>,
    /// Call resolution: type names known to live outside the workspace
    /// (std containers, sync primitives, primitives). A method call
    /// whose receiver is evidently one of these resolves to no
    /// workspace fn at all — `map.insert(..)` on a `HashMap` must not
    /// route an R8/R9 walk into `Market::insert`.
    pub foreign_types: Vec<String>,
    /// Call resolution: direct `qbdp-*` dependency edges, as short
    /// crate names (`market` → its dependencies). Name-level call
    /// resolution only targets definitions in the caller's dependency
    /// closure — a fn in `qbdp-market` cannot call the root CLI or the
    /// bench drivers, so shared std vocabulary (`get`, `insert`, `run`…)
    /// must not route an R8/R9 walk into them. Crates absent from the
    /// table resolve only within themselves.
    pub crate_deps: Vec<(String, Vec<String>)>,
}

impl Config {
    /// The policy enforced on the qbdp workspace.
    pub fn workspace_defaults() -> Config {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        Config {
            taint_words: s(&["price", "prices", "revenue", "cents", "proceeds"]),
            blessed_fn_prefixes: s(&["checked_", "saturating_", "wrapping_"]),
            metered_paths: s(&[
                "crates/core/src/exact/",
                // The incremental engine: the price-vector diff and the
                // residual warm-start loops it drives must stay metered
                // or provably bounded, or a storm of revisions turns a
                // "warm" reprice into unmetered work.
                "crates/core/src/plan_cache.rs",
                // The GChQ pipeline that plan builds and cold pricing share
                // (its branch loop and per-branch solve).
                "crates/core/src/gchq.rs",
                "crates/core/src/chain/price.rs",
                "crates/determinacy/src/",
                "crates/flow/src/",
                // The serving path: the event loop, the HTTP parser,
                // and the JSON encoder all run on buyer-controlled
                // input, so every loop must be structurally bounded
                // (annotated) or metered — an unbounded scan here is a
                // remote DoS, same threat model as an unmetered pricing
                // loop.
                "crates/serve/src/",
            ]),
            meter_calls: s(&["charge", "tick"]),
            transient_paths: s(&[
                "crates/store/src/",
                "crates/market/src/",
                "crates/serve/src/",
            ]),
            panic_entries: s(&["Market::quote*", "Server::run", "Wal::append"]),
            foreign_types: s(&[
                // std collections / strings / io / net / time / sync
                "Vec",
                "VecDeque",
                "BinaryHeap",
                "HashMap",
                "HashSet",
                "BTreeMap",
                "BTreeSet",
                "String",
                "PathBuf",
                "Path",
                "OsString",
                "File",
                "TcpStream",
                "TcpListener",
                "UdpSocket",
                "Instant",
                "Duration",
                "SystemTime",
                "Mutex",
                "RwLock",
                "Condvar",
                "Cell",
                "RefCell",
                "AtomicBool",
                "AtomicU32",
                "AtomicU64",
                "AtomicUsize",
                "AtomicI64",
                "Option",
                "Result",
                // primitives (no inherent workspace impls possible)
                "bool",
                "char",
                "str",
                "u8",
                "u16",
                "u32",
                "u64",
                "u128",
                "usize",
                "i8",
                "i16",
                "i32",
                "i64",
                "i128",
                "isize",
                "f32",
                "f64",
            ]),
            crate_deps: {
                let d = |name: &str, deps: &[&str]| {
                    (
                        name.to_string(),
                        deps.iter().map(|s| s.to_string()).collect(),
                    )
                };
                vec![
                    d("catalog", &[]),
                    d("obs", &[]),
                    d("flow", &["obs"]),
                    d("store", &["obs"]),
                    d("query", &["catalog"]),
                    d("determinacy", &["catalog", "query"]),
                    d("core", &["catalog", "query", "determinacy", "flow", "obs"]),
                    d(
                        "market",
                        &["catalog", "core", "determinacy", "obs", "query", "store"],
                    ),
                    d("workload", &["catalog", "core", "determinacy", "query"]),
                    d("serve", &["catalog", "core", "market", "obs"]),
                    d(
                        "bench",
                        &[
                            "catalog",
                            "core",
                            "determinacy",
                            "flow",
                            "market",
                            "obs",
                            "query",
                            "serve",
                            "store",
                            "workload",
                        ],
                    ),
                    d(
                        "root",
                        &[
                            "catalog",
                            "core",
                            "determinacy",
                            "flow",
                            "market",
                            "obs",
                            "query",
                            "serve",
                            "store",
                            "workload",
                        ],
                    ),
                ]
            },
        }
    }
}

/// Every audited file, modeled, plus the name-level fn index the
/// cross-file rules resolve calls against.
pub struct Workspace {
    /// All file models, in deterministic (sorted-path) order.
    pub files: Vec<FileModel>,
    /// fn name → (file index, fn index) of every definition.
    pub fn_index: HashMap<String, Vec<(usize, usize)>>,
}

impl Workspace {
    /// Build the index over prebuilt models. Files are sorted by path
    /// first, so the workspace — and everything derived from it (the
    /// call graph, finding order) — is identical regardless of the
    /// order the caller discovered files in.
    pub fn new(mut files: Vec<FileModel>) -> Workspace {
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        let mut fn_index: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (gi, g) in f.fns.iter().enumerate() {
                fn_index.entry(g.name.clone()).or_default().push((fi, gi));
            }
        }
        Workspace { files, fn_index }
    }
}

/// Run every rule over the workspace; diagnostics come back sorted by
/// (file, line, rule). Malformed annotations surface as `R0`.
pub fn run_all(ws: &Workspace, config: &Config) -> Vec<Diagnostic> {
    let graph = crate::callgraph::CallGraph::build(ws, config);
    let mut out = Vec::new();
    for f in &ws.files {
        for (line, msg) in &f.annot_errors {
            out.push(Diagnostic {
                file: f.rel_path.clone(),
                line: *line,
                rule: "R0",
                message: format!("malformed audit annotation: {msg}"),
            });
        }
        out.extend(r1_money::check(f, config));
    }
    out.extend(r4_fuel::check(ws, config));
    out.extend(r8_taint::check(ws, &graph, config));
    out.extend(r9_reach::check(ws, &graph, config));
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out.dedup();
    out
}
