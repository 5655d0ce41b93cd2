//! The structural model of one source file: functions, loops, test
//! regions, call names, and audit annotations —
//! everything the rules consume, extracted in one pass over the token
//! stream.
//!
//! The scanner is an approximation of Rust's grammar, tuned to be
//! *conservative for this workspace* (the approximations are listed in
//! DESIGN §5): brace-depth item tracking, signature scanning that
//! treats `<`/`>` as brackets (sound inside signatures, where
//! comparison operators cannot occur), and the struct-literal
//! restriction of `for`/`while` headers (which guarantees the first
//! `{` at bracket-depth 0 opens the loop body).

use crate::annot::{self, Annot};
use crate::lexer::{lex, Tok, Token};
use crate::source::FileClass;
use std::collections::HashMap;

/// A function item (or method) found in the file.
#[derive(Debug)]
pub struct FnItem {
    /// Bare name (`quote_str`, not `Market::quote_str` — R4's metering
    /// fixpoint matches calls at name granularity).
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Code-token index of the `fn` keyword (used to place the fn
    /// inside its enclosing impl/trait block).
    pub decl_idx: usize,
    /// The `Self` type when this fn sits in an `impl` block (`impl
    /// Market { … }` → `Market`; `impl Ops for DurableMarket` →
    /// `DurableMarket`).
    pub self_ty: Option<String>,
    /// The trait when this fn is a trait method: the trait being
    /// implemented (`impl Ops for X` → `Ops`) or, for a declaration or
    /// default body inside `trait Ops { … }`, the trait itself.
    pub in_trait: Option<String>,
    /// Code-token index range of the body, exclusive of its braces.
    /// `None` for bodiless declarations (trait methods).
    pub body: Option<(usize, usize)>,
    /// Whether the fn is test code (`#[test]`, `#[cfg(test)]`, or
    /// inside a `#[cfg(test)]` module/impl).
    pub is_test: bool,
    /// Possible callees: idents directly followed by `(` in the body,
    /// in token order.
    pub calls: Vec<Call>,
}

impl FnItem {
    /// `Type::name` when the fn is an impl/trait method, bare `name`
    /// otherwise — the stable symbol used in finding IDs.
    pub fn qual_name(&self) -> String {
        match self.self_ty.as_deref().or(self.in_trait.as_deref()) {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One possible call site inside a fn body.
#[derive(Debug)]
pub struct Call {
    /// Callee name (method or free fn — the scanner does not resolve).
    pub name: String,
    /// Code-token index of the callee ident.
    pub idx: usize,
}

/// A `for`/`while`/`loop` found in the file.
#[derive(Debug)]
pub struct LoopItem {
    /// The loop keyword.
    pub keyword: &'static str,
    /// Line of the keyword.
    pub line: u32,
    /// Code-token index range of the body, exclusive of braces.
    pub body: (usize, usize),
    /// Index into [`FileModel::fns`] of the innermost enclosing fn.
    pub fn_index: Option<usize>,
    /// Whether the loop is inside test code.
    pub is_test: bool,
    /// `bounded(reason)` annotation, if present.
    pub bounded: Option<String>,
}

/// Everything the rules need to know about one file.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Policy class (library / harness / test).
    pub class: FileClass,
    /// Code tokens (comments stripped).
    pub code: Vec<Token>,
    /// Function items, in source order.
    pub fns: Vec<FnItem>,
    /// Loops, in source order.
    pub loops: Vec<LoopItem>,
    /// `allow(R#: …)` annotations: line → rule ids silenced there.
    pub allows: HashMap<u32, Vec<String>>,
    /// Malformed `// audit:` comments (reported as R0 diagnostics).
    pub annot_errors: Vec<(u32, String)>,
    /// Code-token index ranges inside `#[cfg(test)]` items.
    test_ranges: Vec<(usize, usize)>,
}

impl FileModel {
    /// Whether the code token at `idx` lies inside `#[cfg(test)]` code.
    pub fn in_test_code(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| idx >= s && idx < e)
    }

    /// The innermost fn whose body contains code-token `idx`.
    pub fn fn_at(&self, idx: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| matches!(f.body, Some((s, e)) if idx >= s && idx < e))
            .min_by_key(|f| match f.body {
                Some((s, e)) => e - s,
                None => usize::MAX,
            })
    }

    /// Whether `rule` is silenced on `line` by an `allow` annotation.
    pub fn allowed(&self, line: u32, rule: &str) -> bool {
        self.allows
            .get(&line)
            .is_some_and(|rules| rules.iter().any(|r| r == rule))
    }

    /// Build the model for one file.
    pub fn build(rel_path: &str, class: FileClass, source: &str) -> FileModel {
        Scanner::new(rel_path, class, lex(source)).run()
    }
}

/// Item keywords that clear a pending test attribute (it was written
/// above something that is not a fn, mod, impl or trait).
const ITEM_KEYWORDS: &[&str] = &[
    "struct",
    "enum",
    "trait",
    "use",
    "static",
    "type",
    "macro_rules",
];

struct Scanner {
    rel_path: String,
    class: FileClass,
    code: Vec<Token>,
    /// For each code token, whether a comment-derived annotation maps to it.
    allows: HashMap<u32, Vec<String>>,
    annot_errors: Vec<(u32, String)>,
    /// (reason, comment line) pending attachment to the next loop.
    bounded_by_line: Vec<(u32, String)>,
}

impl Scanner {
    fn new(rel_path: &str, class: FileClass, all_tokens: Vec<Token>) -> Scanner {
        let mut code = Vec::new();
        let mut allows: HashMap<u32, Vec<String>> = HashMap::new();
        let mut annot_errors = Vec::new();
        let mut bounded_by_line = Vec::new();
        // Allow annotations on comment-only lines bind to the next code
        // line; remember them until it is known. Attribute tokens
        // (`#[allow(clippy::...)]` lines between the comment and its
        // target) are skipped over, matching how rustc applies lints.
        let mut pending_allows: Vec<String> = Vec::new();
        let mut last_code_line = 0u32;
        let mut attr_start = false;
        let mut attr_depth = 0u32;

        for t in all_tokens {
            match &t.tok {
                Tok::LineComment(text) | Tok::BlockComment(text) => match annot::parse(text) {
                    Ok(None) => {}
                    Ok(Some(Annot::Allow { rule, .. })) => {
                        if last_code_line == t.line {
                            allows.entry(t.line).or_default().push(rule);
                        } else {
                            pending_allows.push(rule);
                        }
                    }
                    Ok(Some(Annot::Bounded(reason))) => {
                        bounded_by_line.push((t.line, reason));
                    }
                    Err(e) => annot_errors.push((t.line, e.message)),
                },
                _ => {
                    let in_attr = if attr_depth > 0 {
                        if t.is_punct('[') {
                            attr_depth += 1;
                        } else if t.is_punct(']') {
                            attr_depth -= 1;
                        }
                        true
                    } else if t.is_punct('#') {
                        attr_start = true;
                        true
                    } else if attr_start && t.is_punct('!') {
                        true
                    } else if attr_start && t.is_punct('[') {
                        attr_start = false;
                        attr_depth = 1;
                        true
                    } else {
                        attr_start = false;
                        false
                    };
                    if !in_attr && !pending_allows.is_empty() {
                        allows
                            .entry(t.line)
                            .or_default()
                            .append(&mut pending_allows);
                    }
                    last_code_line = t.line;
                    code.push(t);
                }
            }
        }
        Scanner {
            rel_path: rel_path.to_string(),
            class,
            code,
            allows,
            annot_errors,
            bounded_by_line,
        }
    }

    fn ident_at(&self, i: usize) -> Option<&str> {
        self.code.get(i).and_then(Token::ident)
    }

    fn punct_at(&self, i: usize, c: char) -> bool {
        self.code.get(i).is_some_and(|t| t.is_punct(c))
    }

    /// Find the body-opening `{` for a fn signature starting after the
    /// fn name at `i`. Returns `Some(open_idx)` or `None` for `;`.
    /// Inside a signature, `<`/`>` are generic brackets (comparison
    /// operators cannot occur there), except in `->`.
    fn find_fn_body_open(&self, mut i: usize) -> Option<usize> {
        let (mut paren, mut bracket, mut angle) = (0i32, 0i32, 0i32);
        while i < self.code.len() {
            match &self.code[i].tok {
                Tok::Punct('(') => paren += 1,
                Tok::Punct(')') => paren -= 1,
                Tok::Punct('[') => bracket += 1,
                Tok::Punct(']') => bracket -= 1,
                Tok::Punct('-') if self.punct_at(i + 1, '>') => i += 1, // skip ->
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') => angle = (angle - 1).max(0),
                Tok::Punct('{') if paren == 0 && bracket == 0 && angle == 0 => {
                    return Some(i);
                }
                Tok::Punct(';') if paren == 0 && bracket == 0 && angle == 0 => {
                    return None;
                }
                _ => {}
            }
            i += 1;
        }
        None
    }

    /// Find the body-opening `{` for a loop header starting at `i`
    /// (after the keyword). Only `(`/`[` nest — the struct-literal
    /// restriction keeps stray `{` out of loop headers.
    fn find_loop_body_open(&self, mut i: usize) -> Option<usize> {
        let (mut paren, mut bracket) = (0i32, 0i32);
        while i < self.code.len() {
            match &self.code[i].tok {
                Tok::Punct('(') => paren += 1,
                Tok::Punct(')') => paren -= 1,
                Tok::Punct('[') => bracket += 1,
                Tok::Punct(']') => bracket -= 1,
                Tok::Punct('{') if paren == 0 && bracket == 0 => return Some(i),
                Tok::Punct(';') if paren == 0 && bracket == 0 => return None,
                _ => {}
            }
            i += 1;
        }
        None
    }

    /// Parse an `impl` header starting at `j` (just after the keyword).
    /// Returns the body-opening `{` index (None for `impl Trait for ..;`
    /// forms or scan failure) plus the self type and trait name: the
    /// last depth-0 path segment after/before `for`. Generic parameters,
    /// bounds, and where clauses are skipped by bracket depth.
    fn parse_impl_header(&self, mut j: usize) -> (Option<usize>, Option<String>, Option<String>) {
        let (mut paren, mut bracket, mut angle) = (0i32, 0i32, 0i32);
        let mut before_for: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        let mut saw_where = false;
        while j < self.code.len() {
            match &self.code[j].tok {
                Tok::Punct('(') => paren += 1,
                Tok::Punct(')') => paren -= 1,
                Tok::Punct('[') => bracket += 1,
                Tok::Punct(']') => bracket -= 1,
                Tok::Punct('-') if self.punct_at(j + 1, '>') => j += 1, // skip ->
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') => angle = (angle - 1).max(0),
                Tok::Punct('{') if paren == 0 && bracket == 0 && angle == 0 => {
                    let (ty, tr) = if saw_for {
                        (after_for, before_for)
                    } else {
                        (before_for, None)
                    };
                    return (Some(j), ty, tr);
                }
                Tok::Punct(';') if paren == 0 && bracket == 0 && angle == 0 => {
                    return (None, None, None);
                }
                Tok::Ident(s) if paren == 0 && bracket == 0 && angle == 0 => {
                    match s.as_str() {
                        "for" => saw_for = true,
                        "where" => saw_where = true,
                        "dyn" | "mut" | "unsafe" | "const" => {}
                        _ if !saw_where => {
                            // Track the *last* depth-0 segment on each
                            // side of `for`: `a::b::C` ends at `C`.
                            if saw_for {
                                after_for = Some(s.clone());
                            } else {
                                before_for = Some(s.clone());
                            }
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
            j += 1;
        }
        (None, None, None)
    }

    /// Index of the `}` matching the `{` at `open`.
    fn matching_close(&self, open: usize) -> usize {
        let mut depth = 0i32;
        for i in open..self.code.len() {
            match &self.code[i].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
        self.code.len()
    }

    fn run(mut self) -> FileModel {
        let mut fns: Vec<FnItem> = Vec::new();
        let mut loops: Vec<LoopItem> = Vec::new();
        let mut test_ranges: Vec<(usize, usize)> = Vec::new();
        // (body range, self type, trait) per impl block; (body range,
        // name) per trait block — fns inside inherit them post-scan.
        let mut impl_ranges: Vec<(usize, usize, Option<String>, Option<String>)> = Vec::new();
        let mut trait_ranges: Vec<(usize, usize, String)> = Vec::new();

        // Attribute state, reset after the next item.
        let mut pending_cfg_test = false;
        let mut pending_test_attr = false;

        let mut i = 0usize;
        while i < self.code.len() {
            let line = self.code[i].line;
            match &self.code[i].tok {
                // Attribute: #[...] or #![...]
                Tok::Punct('#') => {
                    let mut j = i + 1;
                    if self.punct_at(j, '!') {
                        j += 1;
                    }
                    if self.punct_at(j, '[') {
                        let mut depth = 0i32;
                        let mut idents: Vec<&str> = Vec::new();
                        while j < self.code.len() {
                            match &self.code[j].tok {
                                Tok::Punct('[') => depth += 1,
                                Tok::Punct(']') => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                Tok::Ident(s) => idents.push(s),
                                _ => {}
                            }
                            j += 1;
                        }
                        let has = |w: &str| idents.contains(&w);
                        if has("cfg") && has("test") && !has("not") {
                            pending_cfg_test = true;
                        } else if has("test") && !has("cfg") && !has("cfg_attr") && !has("not") {
                            pending_test_attr = true;
                        }
                        i = j + 1;
                        continue;
                    }
                    i += 1;
                }
                Tok::Ident(kw) if kw == "fn" => {
                    // `fn(` is a fn-pointer type, not an item.
                    let Some(name) = self.ident_at(i + 1).map(str::to_string) else {
                        i += 1;
                        continue;
                    };
                    let in_test = pending_cfg_test
                        || pending_test_attr
                        || test_ranges.iter().any(|&(s, e)| i >= s && i < e);
                    pending_cfg_test = false;
                    pending_test_attr = false;
                    let body = match self.find_fn_body_open(i + 2) {
                        Some(open) => {
                            let close = self.matching_close(open);
                            if in_test {
                                test_ranges.push((open, close + 1));
                            }
                            Some((open + 1, close))
                        }
                        None => None,
                    };
                    fns.push(FnItem {
                        name,
                        line,
                        decl_idx: i,
                        self_ty: None,
                        in_trait: None,
                        body,
                        is_test: in_test,
                        calls: Vec::new(),
                    });
                    i += 2;
                }
                Tok::Ident(kw) if kw == "mod" || kw == "impl" || kw == "trait" => {
                    // A #[cfg(test)] mod/impl/trait scopes a test range
                    // over its whole body; impl/trait headers also name
                    // the `Type::` of the methods inside (finding IDs).
                    let body_open = match kw.as_str() {
                        "impl" => {
                            let (open, ty, tr) = self.parse_impl_header(i + 1);
                            if let Some(open) = open {
                                let close = self.matching_close(open);
                                impl_ranges.push((open + 1, close, ty, tr));
                            }
                            open
                        }
                        "trait" => {
                            let name = self.ident_at(i + 1).map(str::to_string);
                            let (open, ..) = self.parse_impl_header(i + 2);
                            if let (Some(open), Some(name)) = (open, name) {
                                let close = self.matching_close(open);
                                trait_ranges.push((open + 1, close, name));
                            }
                            open
                        }
                        _ => {
                            let mut j = i + 1;
                            while j < self.code.len()
                                && !self.punct_at(j, '{')
                                && !self.punct_at(j, ';')
                            {
                                j += 1;
                            }
                            self.punct_at(j, '{').then_some(j)
                        }
                    };
                    if pending_cfg_test {
                        if let Some(open) = body_open {
                            let close = self.matching_close(open);
                            test_ranges.push((open, close + 1));
                        }
                        pending_cfg_test = false;
                    }
                    pending_test_attr = false;
                    i += 1;
                }
                Tok::Ident(kw) if kw == "for" || kw == "while" || kw == "loop" => {
                    // `impl Trait for Type` — not a loop: the `for` is
                    // preceded by a type (ident or `>`), a loop's `for`
                    // never is.
                    let prev_is_type = i > 0
                        && (matches!(&self.code[i - 1].tok, Tok::Ident(p)
                                if !matches!(p.as_str(), "if" | "else" | "return" | "break" | "match" | "in" | "unsafe" | "move" | "yield" | "do" | "await"))
                            || self.punct_at(i - 1, '>'));
                    if *kw == "for" && (prev_is_type || self.punct_at(i + 1, '<')) {
                        // `impl Trait for Type` or a higher-ranked
                        // bound `for<'a> Fn(..)` — not a loop.
                        i += 1;
                        continue;
                    }
                    let keyword: &'static str = match kw.as_str() {
                        "for" => "for",
                        "while" => "while",
                        _ => "loop",
                    };
                    if let Some(open) = self.find_loop_body_open(i + 1) {
                        let close = self.matching_close(open);
                        let in_test = test_ranges.iter().any(|&(s, e)| i >= s && i < e);
                        // The bounded(..) annotation binds to the next
                        // loop keyword that follows it in the source.
                        let bounded = {
                            let pos = self.bounded_by_line.iter().position(|(l, _)| *l <= line);
                            pos.map(|p| self.bounded_by_line.remove(p).1)
                        };
                        // fn_index resolved after the scan (fns vector
                        // still growing); store token idx for now.
                        loops.push(LoopItem {
                            keyword,
                            line,
                            body: (open + 1, close),
                            fn_index: Some(i), // placeholder: token idx
                            is_test: in_test,
                            bounded,
                        });
                    }
                    i += 1;
                }
                Tok::Ident(kw) if ITEM_KEYWORDS.contains(&kw.as_str()) => {
                    pending_test_attr = false;
                    // cfg(test) on a struct/use has no body to scope;
                    // consume the flag.
                    pending_cfg_test = false;
                    i += 1;
                }
                _ => {
                    i += 1;
                }
            }
        }

        // Resolve loop → innermost enclosing fn.
        for l in &mut loops {
            let tok_idx = l.fn_index.take().unwrap_or(0);
            l.fn_index = fns
                .iter()
                .enumerate()
                .filter(|(_, f)| matches!(f.body, Some((s, e)) if tok_idx >= s && tok_idx < e))
                .min_by_key(|(_, f)| match f.body {
                    Some((s, e)) => e - s,
                    None => usize::MAX,
                })
                .map(|(idx, _)| idx);
        }

        // Attach each fn to the innermost enclosing impl (self type +
        // trait) or trait block, by the position of its `fn` keyword.
        for f in &mut fns {
            let impl_hit = impl_ranges
                .iter()
                .filter(|&&(s, e, ..)| f.decl_idx >= s && f.decl_idx < e)
                .min_by_key(|&&(s, e, ..)| e - s);
            if let Some((_, _, ty, tr)) = impl_hit {
                f.self_ty = ty.clone();
                f.in_trait = tr.clone();
            } else if let Some((_, _, name)) = trait_ranges
                .iter()
                .filter(|&&(s, e, _)| f.decl_idx >= s && f.decl_idx < e)
                .min_by_key(|&&(s, e, _)| e - s)
            {
                f.in_trait = Some(name.clone());
            }
        }

        // Call names per fn body (R4's metering fixpoint).
        for f in &mut fns {
            let Some((s, e)) = f.body else { continue };
            for i in s..e.min(self.code.len()) {
                let Some(name) = self.ident_at(i) else {
                    continue;
                };
                if !self.punct_at(i + 1, '(') {
                    continue;
                }
                if matches!(
                    name,
                    "if" | "while" | "for" | "match" | "return" | "fn" | "loop" | "move" | "in"
                ) {
                    continue;
                }
                if i > 0 && self.ident_at(i - 1) == Some("fn") {
                    continue; // nested fn definition, not a call
                }
                f.calls.push(Call {
                    name: name.to_string(),
                    idx: i,
                });
            }
        }

        FileModel {
            rel_path: self.rel_path,
            class: self.class,
            code: self.code,
            fns,
            loops,
            allows: self.allows,
            annot_errors: self.annot_errors,
            test_ranges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::build("crates/x/src/lib.rs", FileClass::Library, src)
    }

    #[test]
    fn finds_fns_and_bodies() {
        let m = model("fn a() { b(); }\npub const fn b() -> u64 { 1 }\nfn decl();");
        assert_eq!(m.fns.len(), 3);
        assert_eq!(m.fns[0].name, "a");
        assert!(m.fns[0].body.is_some());
        assert_eq!(m.fns[0].calls.len(), 1);
        assert_eq!(m.fns[0].calls[0].name, "b");
        assert_eq!(m.fns[1].name, "b");
        assert!(m.fns[2].body.is_none());
    }

    #[test]
    fn generic_signatures_and_where_clauses() {
        let m = model(
            "fn g<T: Into<Vec<u8>>>(x: T) -> Result<(), Box<dyn std::error::Error>>\n\
             where T: Clone { x.into(); }",
        );
        assert_eq!(m.fns.len(), 1);
        assert!(m.fns[0].body.is_some());
        assert_eq!(m.fns[0].calls.len(), 1);
    }

    #[test]
    fn cfg_test_mod_scopes_test_range() {
        let m = model(
            "fn live() { x.unwrap(); }\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { y.unwrap(); }\n}",
        );
        assert!(!m.fns[0].is_test);
        assert!(m.fns[1].is_test);
        let live_call = m.fns[0].calls.iter().find(|c| c.name == "unwrap").unwrap();
        assert!(!m.in_test_code(live_call.idx));
        let test_call = m.fns[1].calls.iter().find(|c| c.name == "unwrap").unwrap();
        assert!(m.in_test_code(test_call.idx));
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let m = model("#[cfg(not(test))]\nfn live() {}");
        assert!(!m.fns[0].is_test);
    }

    #[test]
    fn loops_and_impl_for_disambiguation() {
        let m = model(
            "impl Clone for Thing { fn clone(&self) -> Thing { Thing } }\n\
             fn f() { for x in 0..3 { g(x); } while a < b { } loop { break; } }",
        );
        assert_eq!(m.loops.len(), 3);
        assert_eq!(m.loops[0].keyword, "for");
        let f_idx = m.fns.iter().position(|f| f.name == "f").unwrap();
        assert_eq!(m.loops[0].fn_index, Some(f_idx));
    }

    #[test]
    fn allow_binds_to_next_or_same_line() {
        let m = model(
            "// audit: allow(R4: trailing next line)\nfn a() { x.unwrap(); }\n\
             fn b() { y.unwrap(); } // audit: allow(R1: same line)",
        );
        assert!(m.allowed(2, "R4"));
        assert!(m.allowed(3, "R1"));
        assert!(!m.allowed(3, "R4"));
    }

    #[test]
    fn allow_skips_interleaved_attributes() {
        let m = model(
            "fn a() {\n    // audit: allow(R4: invariant)\n    #[expect(clippy::expect_used, reason = \"invariant\")]\n    let x = y.expect(\"m\");\n}",
        );
        assert!(m.allowed(4, "R4"), "allow must skip the attribute line");
        assert!(!m.allowed(3, "R4"));
    }

    #[test]
    fn bounded_binds_to_next_loop() {
        let m = model(
            "fn f() {\n    // audit: bounded(fixed 16 shards)\n    for s in shards { }\n    for t in others { }\n}",
        );
        assert_eq!(m.loops[0].bounded.as_deref(), Some("fixed 16 shards"));
        assert!(m.loops[1].bounded.is_none());
    }

    #[test]
    fn annot_errors_are_collected() {
        let m = model("// audit: allow(R1)\nfn f() {}");
        assert_eq!(m.annot_errors.len(), 1);
    }

    #[test]
    fn impl_blocks_give_fns_a_self_type() {
        let m = model(
            "impl Market {\n    fn quote(&self) {}\n}\n\
             impl super::Ops for Durable {\n    fn run(&self) {}\n}\n\
             trait Ops {\n    fn default_run(&self) { helper(); }\n    fn decl(&self);\n}\n\
             fn free() {}",
        );
        let quote = m.fns.iter().find(|f| f.name == "quote").unwrap();
        assert_eq!(quote.self_ty.as_deref(), Some("Market"));
        assert_eq!(quote.in_trait, None);
        assert_eq!(quote.qual_name(), "Market::quote");
        let run = m.fns.iter().find(|f| f.name == "run").unwrap();
        assert_eq!(run.self_ty.as_deref(), Some("Durable"));
        assert_eq!(run.in_trait.as_deref(), Some("Ops"));
        assert_eq!(run.qual_name(), "Durable::run");
        let dflt = m.fns.iter().find(|f| f.name == "default_run").unwrap();
        assert_eq!(dflt.self_ty, None);
        assert_eq!(dflt.in_trait.as_deref(), Some("Ops"));
        assert_eq!(dflt.qual_name(), "Ops::default_run");
        let free = m.fns.iter().find(|f| f.name == "free").unwrap();
        assert_eq!(free.qual_name(), "free");
    }

    #[test]
    fn generic_impl_headers_resolve_the_base_type() {
        let m = model(
            "impl<T: Clone> Holder<T> where T: Send {\n    fn get(&self) {}\n}\n\
             impl fmt::Display for StoreError {\n    fn fmt(&self) {}\n}",
        );
        let get = m.fns.iter().find(|f| f.name == "get").unwrap();
        assert_eq!(get.self_ty.as_deref(), Some("Holder"));
        let f = m.fns.iter().find(|f| f.name == "fmt").unwrap();
        assert_eq!(f.self_ty.as_deref(), Some("StoreError"));
        assert_eq!(f.in_trait.as_deref(), Some("Display"));
    }
}
