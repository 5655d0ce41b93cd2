//! Golden-diagnostic tests: every fixture under `tests/fixtures/` is a
//! deliberately violating snippet for one rule, with `//~ R#` markers
//! naming the line and rule of each diagnostic the auditor must emit —
//! no more, no fewer. The fixtures directory is excluded from workspace
//! discovery (`source::discover` skips `fixtures/`), so the snippets
//! never pollute a real audit run.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qbdp_audit::model::FileModel;
use qbdp_audit::rules::run_all;
use qbdp_audit::source::classify;
use qbdp_audit::{Config, Workspace};

/// Audit one fixture under a virtual workspace path (fixtures borrow
/// the path of the subsystem whose rules they violate, since several
/// rules are path-scoped) and compare diagnostics against the markers.
fn check_fixture(fixture: &str, virtual_path: &str) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let text = std::fs::read_to_string(format!("{dir}/{fixture}")).expect("fixture readable");
    let mut expected: Vec<(u32, String)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if let Some(pos) = line.find("//~ ") {
            expected.push((i as u32 + 1, line[pos + 4..].trim().to_string()));
        }
    }
    assert!(!expected.is_empty(), "{fixture} carries no //~ markers");
    let ws = Workspace::new(vec![FileModel::build(
        virtual_path,
        classify(virtual_path),
        &text,
    )]);
    let got: Vec<(u32, String)> = run_all(&ws, &Config::workspace_defaults())
        .into_iter()
        .map(|d| (d.line, d.rule.to_string()))
        .collect();
    assert_eq!(
        got, expected,
        "{fixture}: diagnostics (left) must match the //~ markers (right)"
    );
}

#[test]
fn r1_unchecked_money_arithmetic_fires() {
    check_fixture("r1.rs", "crates/market/src/fixture_r1.rs");
}

#[test]
fn r4_unmetered_hot_loop_fires() {
    check_fixture("r4.rs", "crates/core/src/exact/fixture_r4.rs");
}
