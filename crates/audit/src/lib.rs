//! `qbdp-audit` — domain-invariant static analysis for the qbdp
//! workspace.
//!
//! The pricing papers this repo reproduces come with invariants the
//! type system cannot see: arbitrage-freedom is stated over exact
//! prices (so money arithmetic must not silently wrap), and pricing is
//! worst-case exponential (so hot loops must burn [`Budget`] fuel).
//! This crate enforces those invariants offline, with no rustc plugin
//! and no external dependencies: a hand-rolled lexer ([`lexer`]), a
//! structural scanner ([`model`]), and two rule engines ([`rules`]):
//!
//! * **R1** — no unchecked `+`/`-`/`*` on money-tainted operands.
//! * **R4** — every loop in the exact/determinacy/flow hot paths is
//!   fuel-metered or explicitly `bounded(..)` (see the `// audit:`
//!   grammar in [`annot`]).
//!
//! Invariants a type, a standard lint or a test can hold are not rules
//! here. File-local panic-freedom (`unwrap`/`expect`/`panic!` outside
//! tests) and `// SAFETY:` comments on `unsafe` blocks are clippy
//! lints, set once in the workspace's `[workspace.lints.clippy]` table.
//! A discarded `Result` in `qbdp-store`, `qbdp-market` or `qbdp-serve`
//! is rustc's `unused_must_use` plus clippy's `let_underscore_must_use`
//! and `unused_result_ok`, denied at those crates' roots. That the
//! market degrades instead of aborting when pricing panics is
//! `contain_panic` at the engine boundary, held by served-path
//! fault-injection tests. Lock order and "never price under the WAL,
//! plan or a cache shard" are `qbdp_market::lock`'s level types; the
//! lockless telemetry record path is a `disallowed-types` list in
//! `crates/obs/clippy.toml`.
//!
//! Run it with `cargo run -p qbdp-audit -- --deny-all`; the CI
//! `analysis` job gates on it (`--format json` and `--baseline` give
//! machine-readable, line-number-free findings — see [`report`]).
//! Approximations and their soundness arguments are documented in
//! DESIGN.md §5.
//!
//! [`Budget`]: https://docs.rs/qbdp-core

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod annot;
pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;
pub mod source;

pub use rules::{Config, Diagnostic, Workspace};

use model::FileModel;
use std::path::Path;

/// Audit every workspace source file under `root` with the given
/// config. Returns diagnostics sorted by (file, line, rule).
pub fn audit_root(root: &Path, config: &Config) -> std::io::Result<Vec<Diagnostic>> {
    Ok(audit_workspace(root, config)?.1)
}

/// Like [`audit_root`], but also returns the [`Workspace`] the
/// diagnostics were computed over — needed to attach stable symbols to
/// findings (see [`report::findings`]).
pub fn audit_workspace(
    root: &Path,
    config: &Config,
) -> std::io::Result<(Workspace, Vec<Diagnostic>)> {
    let rel_paths = source::discover(root)?;
    let mut files = Vec::with_capacity(rel_paths.len());
    for rel in rel_paths {
        let class = source::classify(&rel);
        let text = std::fs::read_to_string(root.join(&rel))?;
        files.push(FileModel::build(&rel, class, &text));
    }
    let ws = Workspace::new(files);
    let diags = rules::run_all(&ws, config);
    Ok((ws, diags))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole point: the workspace this crate lives in must be
    /// clean. (The golden fixtures proving each rule *fires* live in
    /// `tests/golden.rs`; `fixtures/` is excluded from discovery.)
    #[test]
    fn workspace_is_clean() {
        let Some(root) = source::find_root(None) else {
            return; // not running inside the workspace (e.g. vendored elsewhere)
        };
        let diags = audit_root(&root, &Config::workspace_defaults())
            .expect("workspace sources must be readable");
        assert!(
            diags.is_empty(),
            "audit violations in workspace:\n{}",
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
