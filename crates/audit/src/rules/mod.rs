//! The rule engines and the workspace-level analysis driver.
//!
//! Each rule consumes [`FileModel`]s and emits [`Diagnostic`]s. R1 is
//! file-local; R4's metering fixpoint spans files, so [`run_all`] builds
//! every model first and hands rules a [`Workspace`] view. Panic-freedom,
//! `unsafe` hygiene and discarded `Result`s are not rules here: the
//! workspace's clippy lint table and the store/market/serve crate roots
//! own them. Nor are lock discipline and the lockless telemetry record
//! path: `qbdp-market`'s lock-level types and the `disallowed-types`
//! lists in `crates/market/clippy.toml` and `crates/obs/clippy.toml` own
//! those.

use crate::model::FileModel;
use std::fmt;

pub mod r1_money;
pub mod r4_fuel;

/// Every rule id the engine reports, `R0` (malformed annotation) first.
/// `--rule` validates against this list, and `allow(..)` against every
/// entry but `R0`, so an annotation naming a retired rule is itself a
/// finding rather than a silent no-op.
pub const RULES: [&str; 3] = ["R0", "R1", "R4"];

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
        }
    }
}

/// Every audited file, modeled.
pub struct Workspace {
    /// All file models, in deterministic (sorted-path) order.
    pub files: Vec<FileModel>,
}

impl Workspace {
    /// Wrap prebuilt models. Files are sorted by path first, so the
    /// workspace — and everything derived from it (finding order,
    /// finding IDs) — is identical regardless of the order the caller
    /// discovered files in.
    pub fn new(mut files: Vec<FileModel>) -> Workspace {
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Workspace { files }
    }
}

/// Run every rule over the workspace; diagnostics come back sorted by
/// (file, line, rule). Malformed annotations surface as `R0`.
pub fn run_all(ws: &Workspace, config: &Config) -> Vec<Diagnostic> {
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
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out.dedup();
    out
}
