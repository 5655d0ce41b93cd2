//! The `qbdp-audit` command-line front end.
//!
//! ```text
//! cargo run -p qbdp-audit -- [--deny-all] [--root PATH] [--rule R#]...
//!                            [--format human|json] [--baseline PATH]
//! ```
//!
//! Human output is one `file:line: RULE: message` per finding; `--format
//! json` emits an array of findings with stable, line-number-free IDs
//! (see `qbdp_audit::report`). With `--baseline PATH`, only findings
//! whose IDs are absent from the baseline file gate the exit code, and
//! baselined IDs that no longer fire are reported as fixed. Exit code 0
//! when clean (or advisory mode), 1 when `--deny-all` and gating
//! findings exist, 2 on usage/IO errors.

#![forbid(unsafe_code)]

use qbdp_audit::rules::RULES;
use qbdp_audit::{audit_workspace, report, source, Config};
use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Human,
    Json,
}

struct Args {
    deny_all: bool,
    root: Option<PathBuf>,
    rules: Vec<String>,
    format: Format,
    baseline: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deny_all: false,
        root: None,
        rules: Vec::new(),
        format: Format::Human,
        baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny-all" => args.deny_all = true,
            "--root" => {
                let p = it.next().ok_or("--root requires a path")?;
                args.root = Some(PathBuf::from(p));
            }
            "--rule" => {
                let r = it.next().ok_or("--rule requires an id (e.g. R4)")?;
                if !RULES.contains(&r.as_str()) {
                    return Err(format!(
                        "unknown rule id `{r}` (expected one of {})",
                        RULES.join(", ")
                    ));
                }
                args.rules.push(r);
            }
            "--format" => {
                let f = it.next().ok_or("--format requires `human` or `json`")?;
                args.format = match f.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}` (human|json)")),
                };
            }
            "--baseline" => {
                let p = it.next().ok_or("--baseline requires a path")?;
                args.baseline = Some(PathBuf::from(p));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: qbdp-audit [--deny-all] [--root PATH] [--rule R#]... \
                     [--format human|json] [--baseline PATH]"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = source::find_root(args.root.as_deref()) else {
        eprintln!("could not locate workspace root (try --root PATH)");
        return ExitCode::from(2);
    };
    let (ws, diags) = match audit_workspace(&root, &Config::workspace_defaults()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("audit failed reading {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let diags: Vec<_> = diags
        .into_iter()
        .filter(|d| args.rules.is_empty() || args.rules.iter().any(|r| r == d.rule))
        .collect();
    let findings = report::findings(&ws, &diags);
    let baseline = match &args.baseline {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(text) => Some(report::parse_baseline(&text)),
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", p.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    // What gates: everything, or only findings not in the baseline.
    let empty = std::collections::BTreeSet::new();
    let (gating, fixed) = match &baseline {
        Some(b) => report::diff_baseline(&findings, b),
        None => report::diff_baseline(&findings, &empty),
    };
    match args.format {
        Format::Json => print!("{}", report::to_json(&findings)),
        Format::Human => {
            for f in &findings {
                let suffix = if baseline.is_some() && !gating.iter().any(|g| g.id == f.id) {
                    " [baselined]"
                } else {
                    ""
                };
                println!("{}{suffix}", f.diag);
            }
        }
    }
    for id in &fixed {
        eprintln!("qbdp-audit: baselined finding no longer fires (prune it): {id}");
    }
    if matches!(args.format, Format::Human) {
        if findings.is_empty() {
            println!("qbdp-audit: clean ({} rules enforced)", RULES.len());
        } else {
            println!(
                "qbdp-audit: {} finding(s), {} gating",
                findings.len(),
                gating.len()
            );
        }
    }
    if args.deny_all && !gating.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
