//! The structural model of one source file: functions, loops, test
//! regions, call edges, and audit annotations —
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
use std::collections::{BTreeSet, HashMap};

/// A function item (or method) found in the file.
#[derive(Debug)]
pub struct FnItem {
    /// Bare name (`quote_str`, not `Market::quote_str` — call edges are
    /// matched at name granularity).
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
    /// `// audit:` annotations attached to this fn.
    pub annots: Vec<Annot>,
    /// Possible callees: idents directly followed by `(` in the body,
    /// in token order.
    pub calls: Vec<Call>,
    /// Receiver-type evidence for `Recv::Ident` calls: binding name →
    /// base type ident, from typed params (`wal: &Wal`) and inferable
    /// `let`s (`let h = FxHasher::default()`, `let x: Vec<u8> = …`).
    pub binding_types: HashMap<String, String>,
}

impl FnItem {
    /// Whether the fn is annotated `panic-ok(..)` (R9 accepts its
    /// panics and stops walking).
    pub fn is_panic_ok(&self) -> bool {
        self.annots.iter().any(|a| matches!(a, Annot::PanicOk(_)))
    }

    /// `Type::name` when the fn is an impl/trait method, bare `name`
    /// otherwise — the stable symbol used in finding IDs and entry-point
    /// matching.
    pub fn qual_name(&self) -> String {
        match self.self_ty.as_deref().or(self.in_trait.as_deref()) {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The receiver shape of a method call — the evidence the call graph
/// turns into a receiver *type* (via the enclosing impl, the struct
/// field table, or the fn's param/`let` bindings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// `self.name(..)` — receiver type is the enclosing impl's `Self`.
    SelfDirect,
    /// `self.field.name(..)` — receiver type is the field's declared
    /// type, when the struct table knows it.
    SelfField(String),
    /// `x.name(..)` where `x` opens the expression — receiver type is
    /// `x`'s binding (a typed param or an inferable `let`), when known.
    Ident(String),
    /// Anything else (`a.b.c.m()`, `f().m()`, `v[i].m()`): no evidence.
    Opaque,
}

/// How a call site is written — the syntactic evidence the call graph
/// uses to narrow (never widen) the candidate set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(..)` — a free call (possibly a `use`-imported item).
    Free,
    /// `recv.name(..)` — a method call.
    Method {
        /// The receiver's syntactic shape.
        recv: Recv,
    },
    /// `Qual::name(..)` — a path call. `qual` is the immediate path
    /// segment before the final `::` (`Wal::open` → `Wal`), or `None`
    /// when the qualifier is not a plain ident (`<T as X>::f`).
    Path {
        /// Immediate qualifier segment, if syntactically a plain ident.
        qual: Option<String>,
    },
}

/// One possible call site inside a fn body.
#[derive(Debug)]
pub struct Call {
    /// Callee name (method or free fn — the scanner does not resolve).
    pub name: String,
    /// Code-token index of the callee ident.
    pub idx: usize,
    /// Source line.
    pub line: u32,
    /// The call's syntactic shape (receiver/path evidence).
    pub kind: CallKind,
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
    /// `use` renames in this file: alias → original item name
    /// (`use x as y` → `y → x`). Plain imports need no entry — the
    /// imported name already matches its definition.
    pub aliases: HashMap<String, String>,
    /// Code-token ranges of `catch_unwind(..)` argument lists — panic
    /// frontiers for R9 (call edges originating inside never unwind out).
    pub catch_ranges: Vec<(usize, usize)>,
    /// Types this file defines: struct/enum names, trait names, and
    /// impl `Self` types — the workspace type registry the call graph
    /// checks receiver-type evidence against.
    pub type_names: BTreeSet<String>,
    /// Struct field declarations: struct name → field → base type ident
    /// (`Market` → `cache` → `ShardedQuoteCache`).
    pub type_fields: HashMap<String, HashMap<String, String>>,
    /// `impl Trait for Type` pairs, as (type, trait) — lets a typed
    /// receiver still reach the trait's default-method bodies.
    pub impl_traits: Vec<(String, String)>,
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

    /// Resolve a name through this file's `use` renames: the original
    /// item name for an alias, the name itself otherwise.
    pub fn unalias<'a>(&'a self, name: &'a str) -> &'a str {
        self.aliases.get(name).map_or(name, String::as_str)
    }

    /// Index of the `)` matching the `(` at code-token `open` (or the
    /// end of the stream if unbalanced).
    pub fn matching_paren(&self, open: usize) -> usize {
        matching_paren_in(&self.code, open)
    }

    /// Build the model for one file.
    pub fn build(rel_path: &str, class: FileClass, source: &str) -> FileModel {
        Scanner::new(rel_path, class, lex(source)).run()
    }
}

/// Index of the `)` matching the `(` at code-token `open` (or the end
/// of the stream if unbalanced).
fn matching_paren_in(code: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in code.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    code.len()
}

/// Item keywords that clear pending fn-level annotations (the
/// annotation was written above something that is not a fn).
const ITEM_KEYWORDS: &[&str] = &[
    "struct",
    "enum",
    "trait",
    "use",
    "static",
    "type",
    "macro_rules",
];

/// Keywords that can legally sit between an annotation and its `fn`.
const FN_PREFIX_KEYWORDS: &[&str] = &[
    "pub", "const", "unsafe", "async", "extern", "crate", "in", "default",
];

struct Scanner {
    rel_path: String,
    class: FileClass,
    code: Vec<Token>,
    /// For each code token, whether a comment-derived annotation maps to it.
    allows: HashMap<u32, Vec<String>>,
    annot_errors: Vec<(u32, String)>,
    /// (annotation, comment line) pending attachment to the next fn.
    fn_annots_by_line: Vec<(u32, Annot)>,
    /// (reason, comment line) pending attachment to the next loop.
    bounded_by_line: Vec<(u32, String)>,
}

impl Scanner {
    fn new(rel_path: &str, class: FileClass, all_tokens: Vec<Token>) -> Scanner {
        let mut code = Vec::new();
        let mut allows: HashMap<u32, Vec<String>> = HashMap::new();
        let mut annot_errors = Vec::new();
        let mut fn_annots_by_line = Vec::new();
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
                    Ok(Some(a)) => fn_annots_by_line.push((t.line, a)),
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
            fn_annots_by_line,
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

    /// Scan a `use` declaration starting at `j` (just after the
    /// keyword), recording `as`-renames into `aliases`. Returns the
    /// index just past the terminating `;`.
    fn scan_use(&self, mut j: usize, aliases: &mut HashMap<String, String>) -> usize {
        // `prev` is the path segment most recently seen; a brace group
        // remembers the segment before its `::{` so `self as x` inside
        // it can resolve to the group's parent module.
        let mut prev: Option<String> = None;
        let mut parents: Vec<Option<String>> = Vec::new();
        let mut pending_as = false;
        while j < self.code.len() {
            match &self.code[j].tok {
                Tok::Punct(';') => return j + 1,
                Tok::Punct('{') => parents.push(prev.clone()),
                Tok::Punct('}') => {
                    parents.pop();
                }
                Tok::Ident(s) if s == "as" => pending_as = true,
                Tok::Ident(s) => {
                    if pending_as {
                        pending_as = false;
                        let original = match prev.as_deref() {
                            Some("self") => parents.last().cloned().flatten(),
                            other => other.map(str::to_string),
                        };
                        if let Some(o) = original {
                            if o != *s {
                                aliases.insert(s.clone(), o);
                            }
                        }
                    }
                    prev = Some(s.clone());
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// The base type ident of a type expression starting at `k`:
    /// references, lifetimes, `mut`/`dyn`/`impl`/`const`, and the
    /// transparent pointer wrappers (`Arc<T>`, `Rc<T>`, `Box<T>` —
    /// method calls pass through their `Deref`) are skipped; a
    /// qualified path yields its final segment (`std::net::TcpStream`
    /// → `TcpStream`). `None` when the type is not ident-shaped
    /// (tuples, arrays, fn pointers).
    fn base_type(&self, mut k: usize, limit: usize) -> Option<String> {
        while k < limit.min(self.code.len()) {
            match &self.code[k].tok {
                Tok::Punct('&') | Tok::Punct('*') | Tok::Lifetime => k += 1,
                Tok::Ident(s) if matches!(s.as_str(), "mut" | "dyn" | "impl" | "const") => k += 1,
                Tok::Ident(s)
                    if matches!(s.as_str(), "Arc" | "Rc" | "Box") && self.punct_at(k + 1, '<') =>
                {
                    k += 2;
                }
                Tok::Ident(s) => {
                    if self.punct_at(k + 1, ':') && self.punct_at(k + 2, ':') {
                        k += 3; // path segment: keep walking to the last one
                        continue;
                    }
                    return Some(s.clone());
                }
                _ => return None,
            }
        }
        None
    }

    /// The typed params of a fn whose `fn` keyword sits at `decl_idx`:
    /// plain `name: Type` pairs at paren depth 1 of the signature
    /// (destructured params and `self` carry no binding).
    fn param_types(&self, decl_idx: usize) -> HashMap<String, String> {
        let mut out = HashMap::new();
        // Find the param-list `(`, skipping the generics list.
        let mut j = decl_idx + 2;
        let mut angle = 0i32;
        let open = loop {
            match self.code.get(j).map(|t| &t.tok) {
                Some(Tok::Punct('<')) => angle += 1,
                Some(Tok::Punct('>')) => angle = (angle - 1).max(0),
                Some(Tok::Punct('(')) if angle == 0 => break j,
                Some(Tok::Punct('{')) | Some(Tok::Punct(';')) | None => return out,
                _ => {}
            }
            j += 1;
        };
        let close = matching_paren_in(&self.code, open);
        let mut paren = 0i32;
        for k in open..close {
            match &self.code[k].tok {
                Tok::Punct('(') => paren += 1,
                Tok::Punct(')') => paren -= 1,
                Tok::Ident(name)
                    if paren == 1
                        && name != "self"
                        && self.punct_at(k + 1, ':')
                        && !self.punct_at(k + 2, ':')
                        && !(k > open && self.punct_at(k - 1, ':')) =>
                {
                    if let Some(ty) = self.base_type(k + 2, close) {
                        out.insert(name.clone(), ty);
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Record `let` bindings with visible types into `out`: an explicit
    /// annotation (`let x: Vec<u8> = …`) or a capitalized path RHS
    /// (`let h = FxHasher::default()`, `let e = Entry { … }`).
    fn let_types(&self, body: (usize, usize), out: &mut HashMap<String, String>) {
        let (s, e) = body;
        for i in s..e.min(self.code.len()) {
            if self.ident_at(i) != Some("let") {
                continue;
            }
            let mut j = i + 1;
            if self.ident_at(j) == Some("mut") {
                j += 1;
            }
            let Some(name) = self.ident_at(j).map(str::to_string) else {
                continue;
            };
            if self.punct_at(j + 1, ':') && !self.punct_at(j + 2, ':') {
                if let Some(ty) = self.base_type(j + 2, e) {
                    out.insert(name, ty);
                }
            } else if self.punct_at(j + 1, '=') {
                let is_ctor_path = self.punct_at(j + 3, ':') && self.punct_at(j + 4, ':')
                    || self.punct_at(j + 3, '{');
                if let Some(ty) = self.ident_at(j + 2) {
                    if is_ctor_path && ty.starts_with(char::is_uppercase) {
                        out.insert(name, ty.to_string());
                    }
                }
            }
        }
    }

    /// Parse the named fields of a struct whose name sits at `name_idx`,
    /// into `fields`. Tuple and unit structs contribute nothing.
    fn struct_fields(
        &self,
        name: &str,
        name_idx: usize,
        fields: &mut HashMap<String, HashMap<String, String>>,
    ) {
        let Some(open) = self.find_fn_body_open(name_idx + 1) else {
            return;
        };
        let close = self.matching_close(open);
        let mut paren = 0i32;
        for k in open + 1..close {
            match &self.code[k].tok {
                Tok::Punct('(') => paren += 1,
                Tok::Punct(')') => paren -= 1,
                Tok::Ident(fname)
                    if paren == 0
                        && self.punct_at(k + 1, ':')
                        && !self.punct_at(k + 2, ':')
                        && !(k > open && self.punct_at(k - 1, ':')) =>
                {
                    if let Some(ty) = self.base_type(k + 2, close) {
                        fields
                            .entry(name.to_string())
                            .or_default()
                            .insert(fname.clone(), ty);
                    }
                }
                _ => {}
            }
        }
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
        let mut aliases: HashMap<String, String> = HashMap::new();
        let mut type_names: BTreeSet<String> = BTreeSet::new();
        let mut type_fields: HashMap<String, HashMap<String, String>> = HashMap::new();
        let mut impl_traits: Vec<(String, String)> = Vec::new();
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
                        let start = j;
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
                        let _ = start;
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
                    // Attach the annotations written above this fn
                    // (annotation lines precede the `fn` keyword line);
                    // ones for later fns stay pending.
                    let mut annots: Vec<Annot> = Vec::new();
                    self.fn_annots_by_line.retain(|(l, a)| {
                        if *l <= line {
                            annots.push(a.clone());
                            false
                        } else {
                            true
                        }
                    });
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
                        annots,
                        calls: Vec::new(),
                        binding_types: HashMap::new(),
                    });
                    i += 2;
                }
                Tok::Ident(kw) if kw == "mod" || kw == "impl" || kw == "trait" => {
                    // A #[cfg(test)] mod/impl/trait scopes a test range
                    // over its whole body. Annotations written above it
                    // do not leak into its first fn.
                    self.fn_annots_by_line.retain(|(l, _)| *l > line);
                    // impl/trait headers also carry the receiver facts
                    // the call graph disambiguates methods with.
                    let body_open = match kw.as_str() {
                        "impl" => {
                            let (open, ty, tr) = self.parse_impl_header(i + 1);
                            if let Some(t) = &ty {
                                type_names.insert(t.clone());
                                if let Some(tr) = &tr {
                                    impl_traits.push((t.clone(), tr.clone()));
                                }
                            }
                            if let Some(open) = open {
                                let close = self.matching_close(open);
                                impl_ranges.push((open + 1, close, ty, tr));
                            }
                            open
                        }
                        "trait" => {
                            let name = self.ident_at(i + 1).map(str::to_string);
                            if let Some(name) = &name {
                                type_names.insert(name.clone());
                            }
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
                Tok::Ident(kw) if kw == "use" => {
                    self.fn_annots_by_line.retain(|(l, _)| *l > line);
                    pending_test_attr = false;
                    pending_cfg_test = false;
                    i = self.scan_use(i + 1, &mut aliases);
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
                    if kw == "struct" || kw == "enum" {
                        if let Some(name) = self.ident_at(i + 1).map(str::to_string) {
                            type_names.insert(name.clone());
                            if kw == "struct" {
                                self.struct_fields(&name, i + 1, &mut type_fields);
                            }
                        }
                    }
                    self.fn_annots_by_line.retain(|(l, _)| *l > line);
                    pending_test_attr = false;
                    // cfg(test) on a struct/use has no body to scope;
                    // consume the flag.
                    pending_cfg_test = false;
                    i += 1;
                }
                Tok::Ident(kw) if FN_PREFIX_KEYWORDS.contains(&kw.as_str()) => {
                    // pub / const / async … may sit between an
                    // annotation (or attribute) and its fn: keep state.
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

        // Call edges, lock acquisitions, receiver bindings, and
        // catch_unwind frontiers per fn body.
        let mut catch_ranges: Vec<(usize, usize)> = Vec::new();
        for f in &mut fns {
            f.binding_types = self.param_types(f.decl_idx);
            let Some((s, e)) = f.body else { continue };
            self.let_types((s, e), &mut f.binding_types);
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
                let line = self.code[i].line;
                if name == "catch_unwind" {
                    // Calls inside the argument list cannot unwind past
                    // this frontier; R9 stops its walk here.
                    let close = matching_paren_in(&self.code, i + 1);
                    catch_ranges.push((i + 2, close));
                }
                let kind = if i > 0 && self.punct_at(i - 1, '.') {
                    let prev = self.ident_at(i.wrapping_sub(2));
                    let recv = match prev {
                        Some("self") if !(i >= 3 && self.punct_at(i - 3, '.')) => Recv::SelfDirect,
                        Some(fld)
                            if i >= 4
                                && self.punct_at(i - 3, '.')
                                && self.ident_at(i - 4) == Some("self")
                                && !(i >= 5 && self.punct_at(i - 5, '.')) =>
                        {
                            Recv::SelfField(fld.to_string())
                        }
                        Some(x)
                            if i >= 2
                                && !(i >= 3
                                    && (self.punct_at(i - 3, '.')
                                        || self.punct_at(i - 3, ':'))) =>
                        {
                            Recv::Ident(x.to_string())
                        }
                        _ => Recv::Opaque,
                    };
                    CallKind::Method { recv }
                } else if i >= 2 && self.punct_at(i - 1, ':') && self.punct_at(i - 2, ':') {
                    CallKind::Path {
                        qual: self.ident_at(i.wrapping_sub(3)).map(str::to_string),
                    }
                } else {
                    CallKind::Free
                };
                f.calls.push(Call {
                    name: name.to_string(),
                    idx: i,
                    line,
                    kind,
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
            aliases,
            catch_ranges,
            type_names,
            type_fields,
            impl_traits,
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
    fn fn_annotations_attach() {
        let m = model(
            "// audit: panic-ok(startup only)\npub fn guarded() {}\n\
             // audit: panic-ok(not a fn)\nstruct NotAFn;\nfn unannotated() {}",
        );
        assert!(m.fns[0].is_panic_ok());
        assert!(
            !m.fns[1].is_panic_ok(),
            "annotation above struct must not leak"
        );
    }

    #[test]
    fn allow_binds_to_next_or_same_line() {
        let m = model(
            "// audit: allow(R9: trailing next line)\nfn a() { x.unwrap(); }\n\
             fn b() { y.unwrap(); } // audit: allow(R1: same line)",
        );
        assert!(m.allowed(2, "R9"));
        assert!(m.allowed(3, "R1"));
        assert!(!m.allowed(3, "R9"));
    }

    #[test]
    fn allow_skips_interleaved_attributes() {
        let m = model(
            "fn a() {\n    // audit: allow(R9: invariant)\n    #[expect(clippy::expect_used, reason = \"invariant\")]\n    let x = y.expect(\"m\");\n}",
        );
        assert!(m.allowed(4, "R9"), "allow must skip the attribute line");
        assert!(!m.allowed(3, "R9"));
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

    #[test]
    fn use_renames_are_recorded() {
        let m = model(
            "use crate::market::quote_str as qs;\n\
             use std::io::{Read, Write as IoWrite};\n\
             use crate::wal::{self as walmod, Wal};\n\
             use plain::import;\n\
             fn f() { qs(); }",
        );
        assert_eq!(m.unalias("qs"), "quote_str");
        assert_eq!(m.unalias("IoWrite"), "Write");
        assert_eq!(m.unalias("walmod"), "wal");
        assert_eq!(m.unalias("import"), "import");
        assert_eq!(m.unalias("unrelated"), "unrelated");
    }

    #[test]
    fn call_kinds_capture_receiver_shape() {
        let m = model(
            "fn f(&self) {\n    free();\n    self.own();\n    self.field.other();\n    Wal::open();\n    x.method();\n    self.a.b.deep();\n    make().chained();\n}",
        );
        let kind = |name: &str| {
            m.fns[0]
                .calls
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.kind.clone())
                .unwrap()
        };
        assert_eq!(kind("free"), CallKind::Free);
        assert_eq!(
            kind("own"),
            CallKind::Method {
                recv: Recv::SelfDirect
            }
        );
        assert_eq!(
            kind("other"),
            CallKind::Method {
                recv: Recv::SelfField("field".into())
            }
        );
        assert_eq!(
            kind("method"),
            CallKind::Method {
                recv: Recv::Ident("x".into())
            }
        );
        assert_eq!(
            kind("deep"),
            CallKind::Method { recv: Recv::Opaque },
            "a three-segment receiver chain carries no type evidence"
        );
        assert_eq!(kind("chained"), CallKind::Method { recv: Recv::Opaque });
        assert_eq!(
            kind("open"),
            CallKind::Path {
                qual: Some("Wal".into())
            }
        );
    }

    #[test]
    fn struct_fields_and_type_names_are_recorded() {
        let m = model(
            "struct Market {\n    pub(crate) cache: ShardedQuoteCache,\n    wal: Mutex<Wal>,\n    state: Arc<RwLock<State>>,\n    shards: [RwLock<Map>; 16],\n}\n\
             struct Point(u32, u32);\nenum Kind { A, B }\ntrait Ops {}\nimpl Helper { fn h(&self) {} }",
        );
        let f = &m.type_fields["Market"];
        assert_eq!(f["cache"], "ShardedQuoteCache");
        assert_eq!(f["wal"], "Mutex", "the outer wrapper receives the methods");
        assert_eq!(f["state"], "RwLock", "Arc is transparent under Deref");
        assert!(
            !f.contains_key("shards"),
            "array types are not ident-shaped"
        );
        for t in ["Market", "Point", "Kind", "Ops", "Helper"] {
            assert!(m.type_names.contains(t), "{t} missing: {:?}", m.type_names);
        }
    }

    #[test]
    fn params_and_lets_yield_binding_types() {
        let m = model(
            "fn f<T: Into<Vec<u8>>>(wal: &mut Wal, n: usize, (a, b): (u32, u32), g: T) {\n\
             \x20   let mut h = FxHasher::default();\n\
             \x20   let v: Vec<u8> = make();\n\
             \x20   let e = Entry { x: 1 };\n\
             \x20   let opaque = self.shard(&key).write();\n\
             \x20   let lower = nothing();\n}",
        );
        let b = &m.fns[0].binding_types;
        assert_eq!(b.get("wal").map(String::as_str), Some("Wal"));
        assert_eq!(b.get("n").map(String::as_str), Some("usize"));
        assert_eq!(b.get("h").map(String::as_str), Some("FxHasher"));
        assert_eq!(b.get("v").map(String::as_str), Some("Vec"));
        assert_eq!(b.get("e").map(String::as_str), Some("Entry"));
        assert!(b.get("a").is_none(), "destructured params carry no binding");
        assert!(b.get("opaque").is_none(), "guard locals are untyped");
        assert!(b.get("lower").is_none(), "free-call RHS is untyped");
    }

    #[test]
    fn impl_trait_pairs_are_recorded() {
        let m =
            model("impl Ops for Market { fn run(&self) {} }\nimpl Market { fn quote(&self) {} }");
        assert_eq!(
            m.impl_traits,
            vec![("Market".to_string(), "Ops".to_string())]
        );
    }

    #[test]
    fn catch_unwind_ranges_cover_the_argument_list() {
        let m = model("fn f() {\n    let r = catch_unwind(|| inner());\n    after();\n}");
        assert_eq!(m.catch_ranges.len(), 1);
        let (s, e) = m.catch_ranges[0];
        let inner = m.fns[0].calls.iter().find(|c| c.name == "inner").unwrap();
        let after = m.fns[0].calls.iter().find(|c| c.name == "after").unwrap();
        assert!(inner.idx >= s && inner.idx < e);
        assert!(!(after.idx >= s && after.idx < e));
    }
}
