//! The `// audit:` annotation grammar.
//!
//! Annotations are ordinary line comments the auditor reads back out of
//! the token stream. The grammar (documented in DESIGN §5):
//!
//! ```text
//! // audit: allow(R1: reason)      silence one rule on the next code line
//! //                               (or this line, if trailing)
//! // audit: bounded(reason)        the next loop is trivially bounded
//! ```
//!
//! Every form **requires a reason** — an annotation that disables a
//! check without saying why is itself a diagnostic ([`AnnotError`]), so
//! the escape hatch cannot silently rot. Any other `// audit:` comment
//! is malformed too, including the forms of retired rules: the lock
//! annotations (lock levels are types now, `qbdp_market::lock`) and
//! `panic-ok` (panic containment is `contain_panic` plus a served-path
//! fault-injection test).

use crate::rules::RULES;
use std::fmt;

/// One parsed `// audit:` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Annot {
    /// `allow(R1: reason)` — suppress `rule` on the annotated line.
    Allow {
        /// Rule id, e.g. `R1`.
        rule: String,
        /// Mandatory justification.
        reason: String,
    },
    /// `bounded(reason)` — the next loop is exempt from R4.
    Bounded(String),
}

/// A malformed `// audit:` comment (reported as a diagnostic: a broken
/// annotation must never silently become a no-op).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotError {
    /// What is wrong with the annotation.
    pub message: String,
}

impl fmt::Display for AnnotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

fn err(message: impl Into<String>) -> AnnotError {
    AnnotError {
        message: message.into(),
    }
}

/// Parse the text of a line comment. Returns `Ok(None)` when the
/// comment is not an audit annotation at all.
pub fn parse(comment_text: &str) -> Result<Option<Annot>, AnnotError> {
    let text = comment_text.trim();
    let Some(body) = text.strip_prefix("audit:") else {
        return Ok(None);
    };
    let body = body.trim();
    if let Some(args) = call_args(body, "bounded")? {
        if args.trim().is_empty() {
            return Err(err("bounded needs a reason: bounded(shards are fixed)"));
        }
        return Ok(Some(Annot::Bounded(args.trim().to_string())));
    }
    if let Some(args) = call_args(body, "allow")? {
        let (rule, reason) = match args.split_once(':') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (args.trim(), ""),
        };
        if rule == "R0" || !RULES.contains(&rule) {
            return Err(err(format!(
                "allow needs a live rule id ({}), got `{rule}`",
                RULES[1..].join(", ")
            )));
        }
        if reason.is_empty() {
            return Err(err(format!(
                "allow({rule}) needs a reason: allow({rule}: why this is sound)"
            )));
        }
        return Ok(Some(Annot::Allow {
            rule: rule.to_string(),
            reason: reason.to_string(),
        }));
    }
    Err(err(format!(
        "unknown audit annotation `{body}` (expected allow(..) or bounded(..))"
    )))
}

/// `name(args)` → `Some(args)`; `name` without parens → error; other
/// heads → `None`.
fn call_args<'a>(body: &'a str, name: &str) -> Result<Option<&'a str>, AnnotError> {
    let Some(rest) = body.strip_prefix(name) else {
        return Ok(None);
    };
    let rest = rest.trim();
    let Some(inner) = rest.strip_prefix('(') else {
        return Err(err(format!("`{name}` needs parenthesized arguments")));
    };
    let Some(inner) = inner.strip_suffix(')') else {
        return Err(err(format!("unclosed `{name}(`")));
    };
    Ok(Some(inner))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_annotations_pass_through() {
        assert_eq!(parse(" just a comment"), Ok(None));
        assert_eq!(parse("SAFETY: fine"), Ok(None));
    }

    #[test]
    fn allow_with_reason() {
        assert_eq!(
            parse(" audit: allow(R1: the sum of two u32 cents fits in u64)"),
            Ok(Some(Annot::Allow {
                rule: "R1".into(),
                reason: "the sum of two u32 cents fits in u64".into()
            }))
        );
    }

    #[test]
    fn allow_must_name_a_live_rule() {
        for id in ["R0", "R2", "R3", "R5", "R6", "R7", "R8", "R9", "R42"] {
            let e = parse(&format!(" audit: allow({id}: x)")).unwrap_err();
            assert!(e.message.contains(&format!("got `{id}`")), "{e}");
        }
    }

    #[test]
    fn allow_without_reason_is_an_error() {
        assert!(parse(" audit: allow(R1)").is_err());
        assert!(parse(" audit: allow(R1: )").is_err());
        assert!(parse(" audit: allow(nonsense: x)").is_err());
    }

    #[test]
    fn bounded_needs_reason() {
        assert_eq!(
            parse(" audit: bounded(16 shards)"),
            Ok(Some(Annot::Bounded("16 shards".into())))
        );
        assert!(parse(" audit: bounded()").is_err());
    }

    #[test]
    fn unknown_annotation_is_an_error() {
        assert!(parse(" audit: alow(R1: typo)").is_err());
        // Retired rules' forms are malformed now (R0): lock levels are
        // types, the record path's locks a clippy rule, and panic
        // containment a served-path test.
        for retired in ["holds-lock(wal)", "wait-free", "panic-ok(startup only)"] {
            let e = parse(&format!(" audit: {retired}")).unwrap_err();
            assert!(e.message.contains("unknown audit annotation"), "{e}");
        }
    }
}
