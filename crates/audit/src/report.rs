//! Machine-readable findings: stable IDs, JSON rendering, and baseline
//! diffing.
//!
//! A finding's identity must survive unrelated edits — a baseline keyed
//! on line numbers churns on every refactor and trains people to
//! regenerate it blindly. IDs are therefore built from what the finding
//! *is*, never where it sits:
//!
//! ```text
//! R1:crates/market/src/ledger.rs:Ledger::record_sale#1
//! ```
//!
//! rule, workspace-relative path (normalized to `/` separators), the
//! qualified name of the innermost enclosing fn (empty for file-level
//! findings), and a 1-based occurrence counter among findings sharing
//! that (rule, file, symbol) triple, in diagnostic order. Moving a fn
//! within its file, reformatting, or adding code above it does not
//! change its findings' IDs; only fixing (or introducing) a finding in
//! the same fn shifts the counters after it.
//!
//! A baseline is a text file of accepted IDs, one per line (`#`
//! comments and blank lines ignored). [`diff_baseline`] splits current
//! findings into *new* (not in the baseline — these gate CI) and
//! reports *fixed* entries (baselined IDs no longer firing — prune them
//! on the next regeneration).

use crate::model::FileModel;
use crate::rules::{Diagnostic, Workspace};
use std::collections::BTreeSet;

/// One finding with its stable identity attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable ID: `rule:file:symbol#occurrence`.
    pub id: String,
    /// The underlying diagnostic.
    pub diag: Diagnostic,
    /// Qualified name of the innermost enclosing fn (`Market::insert`),
    /// empty for findings outside any fn.
    pub symbol: String,
}

/// Attach stable IDs to `diags` (which must be the sorted output of
/// [`run_all`](crate::rules::run_all) over `ws`).
pub fn findings(ws: &Workspace, diags: &[Diagnostic]) -> Vec<Finding> {
    let mut counts: std::collections::HashMap<(String, String, String), u32> =
        std::collections::HashMap::new();
    diags
        .iter()
        .map(|d| {
            let symbol = ws
                .files
                .iter()
                .find(|f| f.rel_path == d.file)
                .and_then(|f| enclosing_fn(f, d.line))
                .unwrap_or_default();
            let file = d.file.replace('\\', "/");
            let key = (d.rule.to_string(), file.clone(), symbol.clone());
            let n = counts.entry(key).or_insert(0);
            *n += 1;
            Finding {
                id: format!("{}:{file}:{symbol}#{n}", d.rule),
                diag: d.clone(),
                symbol,
            }
        })
        .collect()
}

/// The qualified name of the innermost fn whose span covers `line`.
fn enclosing_fn(f: &FileModel, line: u32) -> Option<String> {
    f.fns
        .iter()
        .filter(|g| {
            let Some((_, e)) = g.body else { return false };
            let end = f.code.get(e.saturating_sub(1)).map_or(g.line, |t| t.line);
            g.line <= line && line <= end
        })
        // Innermost = the latest-starting fn still covering the line
        // (nested fns start later than their enclosers).
        .max_by_key(|g| g.line)
        .map(|g| g.qual_name())
}

/// Render findings as a JSON array (stable key order, sorted input
/// preserved). Dependency-free by construction, like the rest of the
/// crate.
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"id\":{},\"rule\":{},\"file\":{},\"line\":{},\"symbol\":{},\"message\":{}}}",
            json_str(&f.id),
            json_str(f.diag.rule),
            json_str(&f.diag.file),
            f.diag.line,
            json_str(&f.symbol),
            json_str(&f.diag.message),
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Escape `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parse a baseline file: one accepted finding ID per line, `#`
/// comments and blank lines ignored.
pub fn parse_baseline(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Split `current` against a baseline: findings whose IDs are *not*
/// baselined (these gate), and baselined IDs that no longer fire
/// (fixed — prune them from the file).
pub fn diff_baseline<'a>(
    current: &'a [Finding],
    baseline: &BTreeSet<String>,
) -> (Vec<&'a Finding>, Vec<String>) {
    let live: BTreeSet<&str> = current.iter().map(|f| f.id.as_str()).collect();
    let new: Vec<&Finding> = current
        .iter()
        .filter(|f| !baseline.contains(&f.id))
        .collect();
    let fixed: Vec<String> = baseline
        .iter()
        .filter(|id| !live.contains(id.as_str()))
        .cloned()
        .collect();
    (new, fixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;
    use crate::rules::{run_all, Config};
    use crate::source::classify;

    fn findings_for(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::new(
            files
                .iter()
                .map(|(p, s)| FileModel::build(p, classify(p), s))
                .collect(),
        );
        let diags = run_all(&ws, &Config::workspace_defaults());
        findings(&ws, &diags)
    }

    const VIOLATION: &str =
        "impl Ledger {\n    fn tally(&self) -> u64 {\n        self.paid_cents + self.due_cents\n    }\n}";

    #[test]
    fn ids_name_the_symbol_not_the_line() {
        let a = findings_for(&[("crates/market/src/ledger.rs", VIOLATION)]);
        // Same fn, pushed down by new code above it: the ID must not move.
        let shifted = format!("fn other() {{}}\n\n\n{VIOLATION}");
        let b = findings_for(&[("crates/market/src/ledger.rs", &shifted)]);
        assert_eq!(a.len(), 1, "{a:?}");
        assert_eq!(a[0].id, "R1:crates/market/src/ledger.rs:Ledger::tally#1");
        assert_eq!(a[0].id, b[0].id);
        assert_ne!(a[0].diag.line, b[0].diag.line, "the line did move");
    }

    #[test]
    fn occurrences_disambiguate_repeats_in_one_fn() {
        let src = "impl Ledger {\n    fn tally(&self) {\n        self.a_cents + 1;\n        self.b_cents + 1;\n    }\n}";
        let f = findings_for(&[("crates/market/src/ledger.rs", src)]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].id.ends_with("Ledger::tally#1"), "{}", f[0].id);
        assert!(f[1].id.ends_with("Ledger::tally#2"), "{}", f[1].id);
    }

    #[test]
    fn file_level_findings_get_an_empty_symbol() {
        // A malformed annotation outside any fn.
        let f = findings_for(&[(
            "crates/market/src/ledger.rs",
            "// audit: allow(R1\nfn ok() {}",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].id, "R0:crates/market/src/ledger.rs:#1");
    }

    #[test]
    fn json_is_wellformed_and_escapes() {
        let f = findings_for(&[("crates/market/src/ledger.rs", VIOLATION)]);
        let j = to_json(&f);
        assert!(j.starts_with("[\n  {\"id\":\"R1:"), "{j}");
        assert!(j.ends_with("}\n]\n"), "{j}");
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(to_json(&[]), "[]\n");
    }

    #[test]
    fn baseline_diff_splits_new_and_fixed() {
        let f = findings_for(&[("crates/market/src/ledger.rs", VIOLATION)]);
        let baseline = parse_baseline(
            "# accepted findings\nR1:crates/market/src/ledger.rs:Ledger::tally#1\nR4:crates/flow/src/lib.rs:augment#1\n",
        );
        let (new, fixed) = diff_baseline(&f, &baseline);
        assert!(new.is_empty(), "baselined finding must not gate: {new:?}");
        assert_eq!(
            fixed,
            vec!["R4:crates/flow/src/lib.rs:augment#1".to_string()]
        );
        let (new, fixed) = diff_baseline(&f, &BTreeSet::new());
        assert_eq!(new.len(), 1);
        assert!(fixed.is_empty());
    }
}
