//! The `// audit:` annotation grammar.
//!
//! Annotations are ordinary line comments the auditor reads back out of
//! the token stream. The grammar (documented in DESIGN §5):
//!
//! ```text
//! // audit: allow(R1: reason)      silence one rule on the next code line
//! //                               (or this line, if trailing)
//! // audit: holds-lock(wal)        this fn acquires/holds the named lock
//! // audit: lock-free              this fn must not take any lock
//! // audit: wait-free              this fn is a telemetry hot-path record
//! //                               point: no lock acquisition reachable
//! // audit: pricing-entry          this fn is a pricing-engine entry point
//! // audit: bounded(reason)        the next loop is trivially bounded
//! // audit: panic-ok(reason)       this fn's panics are accepted: R9's
//! //                               reachability walk stops here
//! // audit: lock-order(a < b)      declared acquisition order: `a` is
//! //                               always taken before `b` (feeds R7's
//! //                               lock graph as an explicit edge)
//! ```
//!
//! `allow`, `bounded`, and `panic-ok` **require a reason** — an
//! annotation that disables a check without saying why is itself a
//! diagnostic ([`AnnotError`]), so the escape hatch cannot silently rot.

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
    /// `holds-lock(name)` — the next fn holds the named lock.
    HoldsLock(String),
    /// `lock-free` — the next fn must not acquire any lock.
    LockFree,
    /// `wait-free` — the next fn is a telemetry record point (R6): no
    /// lock acquisition may be reachable from it, even transitively.
    WaitFree,
    /// `pricing-entry` — the next fn is a pricing-engine entry point.
    PricingEntry,
    /// `bounded(reason)` — the next loop is exempt from R4.
    Bounded(String),
    /// `panic-ok(reason)` — the next fn's panics are deliberate; R9's
    /// reachability walk neither reports them nor descends further.
    PanicOk(String),
    /// `lock-order(a < b < …)` — a declared acquisition order. File
    /// scoped, not fn-attached: each adjacent pair becomes an explicit
    /// edge in R7's lock graph, so an inversion elsewhere is a cycle.
    LockOrder(Vec<String>),
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
    if body == "lock-free" {
        return Ok(Some(Annot::LockFree));
    }
    if body == "wait-free" {
        return Ok(Some(Annot::WaitFree));
    }
    if body == "pricing-entry" {
        return Ok(Some(Annot::PricingEntry));
    }
    if let Some(args) = call_args(body, "holds-lock")? {
        if args.trim().is_empty() {
            return Err(err("holds-lock needs a lock name: holds-lock(wal)"));
        }
        return Ok(Some(Annot::HoldsLock(args.trim().to_string())));
    }
    if let Some(args) = call_args(body, "bounded")? {
        if args.trim().is_empty() {
            return Err(err("bounded needs a reason: bounded(shards are fixed)"));
        }
        return Ok(Some(Annot::Bounded(args.trim().to_string())));
    }
    if let Some(args) = call_args(body, "panic-ok")? {
        if args.trim().is_empty() {
            return Err(err(
                "panic-ok needs a reason: panic-ok(why this cannot fire)",
            ));
        }
        return Ok(Some(Annot::PanicOk(args.trim().to_string())));
    }
    if let Some(args) = call_args(body, "lock-order")? {
        let locks: Vec<String> = args.split('<').map(|s| s.trim().to_string()).collect();
        if locks.len() < 2 || locks.iter().any(String::is_empty) {
            return Err(err(
                "lock-order needs two or more `<`-separated lock names: lock-order(wal < cache-shard)",
            ));
        }
        return Ok(Some(Annot::LockOrder(locks)));
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
        "unknown audit annotation `{body}` (expected allow(..), \
         holds-lock(..), lock-free, wait-free, pricing-entry, bounded(..), \
         panic-ok(..), or lock-order(..))"
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
        for id in ["R0", "R2", "R5", "R42"] {
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
    fn lock_annotations() {
        assert_eq!(
            parse(" audit: holds-lock(wal)"),
            Ok(Some(Annot::HoldsLock("wal".into())))
        );
        assert_eq!(parse(" audit: lock-free"), Ok(Some(Annot::LockFree)));
        assert_eq!(parse(" audit: wait-free"), Ok(Some(Annot::WaitFree)));
        assert_eq!(
            parse(" audit: pricing-entry"),
            Ok(Some(Annot::PricingEntry))
        );
        assert!(parse(" audit: holds-lock()").is_err());
        assert!(parse(" audit: holds-lock").is_err());
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
    }

    #[test]
    fn panic_ok_needs_reason() {
        assert_eq!(
            parse(" audit: panic-ok(poisoned mutex means a prior panic)"),
            Ok(Some(Annot::PanicOk(
                "poisoned mutex means a prior panic".into()
            )))
        );
        assert!(parse(" audit: panic-ok()").is_err());
        assert!(parse(" audit: panic-ok").is_err());
    }

    #[test]
    fn lock_order_parses_chains() {
        assert_eq!(
            parse(" audit: lock-order(wal < cache-shard)"),
            Ok(Some(Annot::LockOrder(vec![
                "wal".into(),
                "cache-shard".into()
            ])))
        );
        assert_eq!(
            parse(" audit: lock-order(a < b < c)"),
            Ok(Some(Annot::LockOrder(vec![
                "a".into(),
                "b".into(),
                "c".into()
            ])))
        );
        assert!(parse(" audit: lock-order(one)").is_err());
        assert!(parse(" audit: lock-order(a < )").is_err());
    }
}
