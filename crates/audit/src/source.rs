//! Workspace discovery: which `.rs` files are audited, and under which
//! policy class.

use std::path::{Path, PathBuf};

/// The policy class of a source file, decided by its path.
///
/// * `Library` — everything else, measurement binaries and examples
///   included: every rule at full strength.
/// * `TestCode` — integration tests and benches (`tests/`, `benches/`
///   directories): exempt from R1 and R4.
///
/// In-file `#[cfg(test)]` / `#[test]` regions get `TestCode` treatment
/// regardless of file class — that is tracked by the
/// [`FileModel`](crate::model::FileModel), not here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Non-test code: every rule at full strength.
    Library,
    /// Test code: exempt from R1/R4.
    TestCode,
}

/// Classify a workspace-relative path.
pub fn classify(rel_path: &str) -> FileClass {
    let components: Vec<&str> = rel_path.split('/').collect();
    if components.iter().any(|c| *c == "tests" || *c == "benches") {
        return FileClass::TestCode;
    }
    FileClass::Library
}

/// Directories never descended into. `vendor/` holds offline stand-ins
/// for external crates (not this project's code); `fixtures/` holds the
/// auditor's own deliberately-violating golden snippets.
const SKIP_DIRS: &[&str] = &[
    "target",
    "vendor",
    ".git",
    "fixtures",
    "data",
    "node_modules",
];

/// Recursively collect workspace-relative paths of every audited `.rs`
/// file under `root`, sorted for deterministic output.
pub fn discover(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Locate the workspace root: `--root` if given, else walk up from the
/// current directory to the first directory holding both a `Cargo.toml`
/// and a `crates/` subdirectory.
pub fn find_root(explicit: Option<&Path>) -> Option<PathBuf> {
    if let Some(p) = explicit {
        return Some(p.to_path_buf());
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(classify("crates/core/src/money.rs"), FileClass::Library);
        assert_eq!(classify("src/cli.rs"), FileClass::Library);
        assert_eq!(
            classify("crates/market/tests/concurrent.rs"),
            FileClass::TestCode
        );
        assert_eq!(classify("tests/governance.rs"), FileClass::TestCode);
        assert_eq!(
            classify("crates/bench/benches/cycle.rs"),
            FileClass::TestCode
        );
        assert_eq!(
            classify("crates/bench/src/bin/experiments.rs"),
            FileClass::Library
        );
        assert_eq!(classify("examples/web_crawl.rs"), FileClass::Library);
    }
}
