//! Datalog-style surface syntax for conjunctive queries and UCQs.
//!
//! ```text
//! Q(x, y) :- R(x), S(x, y), T(y)
//! Big(x)  :- Biz(x, s), s = 'WA', x > 100
//! U(x)    :- R(x, y); U(x) :- S(x)          -- UCQ: rules joined by `;`
//! ```
//!
//! * bare identifiers are **variables**;
//! * constants are integers (`42`) or quoted strings (`'WA'`);
//! * interpreted unary predicates: `x OP literal` with
//!   `OP ∈ {=, !=, <, <=, >, >=}`, or `x in {l1, l2, ...}`;
//! * a constant *inside an atom* (`S(x, 'WA')`) is allowed and equivalent to
//!   a fresh variable plus an `=` predicate.

use crate::ast::{Atom, ConjunctiveQuery, Pred, PredAtom, Term, Ucq, Var};
use crate::error::QueryError;
use qbdp_catalog::{Schema, Value};

/// Parse one rule `Head(vars) :- body` into a [`ConjunctiveQuery`].
pub fn parse_rule(schema: &Schema, text: &str) -> Result<ConjunctiveQuery, QueryError> {
    let err = |m: String| QueryError::Parse { message: m };
    let (head_src, body_src) = text
        .split_once(":-")
        .ok_or_else(|| err(format!("rule must contain `:-`: `{text}`")))?;

    let (head_name, head_args) =
        parse_call(head_src.trim()).ok_or_else(|| err(format!("bad head: `{head_src}`")))?;

    let mut var_names: Vec<String> = Vec::new();
    let mut intern = |name: &str, var_names: &mut Vec<String>| -> Var {
        if let Some(i) = var_names.iter().position(|n| n == name) {
            Var(i as u32)
        } else {
            var_names.push(name.to_string());
            Var((var_names.len() - 1) as u32)
        }
    };

    let mut atoms: Vec<Atom> = Vec::new();
    let mut preds: Vec<PredAtom> = Vec::new();

    for item in split_top_level(body_src) {
        let item = item.trim();
        if item.is_empty() {
            return Err(err("empty body item".to_string()));
        }
        if let Some((name, args)) = parse_call(item) {
            // A relational atom.
            let rel = schema
                .rel_id(name)
                .ok_or_else(|| QueryError::UnknownRelation(name.to_string()))?;
            let mut terms = Vec::with_capacity(args.len());
            for a in &args {
                terms.push(parse_term(a, &mut var_names, &mut intern)?);
            }
            atoms.push(Atom { rel, terms });
        } else {
            // An interpreted predicate.
            preds.push(parse_pred(item, &mut var_names, &mut intern)?);
        }
    }

    // Head arguments must be variables.
    let mut head = Vec::with_capacity(head_args.len());
    for a in &head_args {
        if !is_identifier(a) {
            return Err(err(format!("head arguments must be variables, got `{a}`")));
        }
        head.push(intern(a, &mut var_names));
    }

    ConjunctiveQuery::new(head_name, head, atoms, preds, var_names, schema)
}

/// Parse one or more `;`/newline-separated rules with the **same head
/// symbol** into a UCQ.
pub fn parse_query(schema: &Schema, text: &str) -> Result<Ucq, QueryError> {
    let mut disjuncts = Vec::new();
    for rule in text.split(';').flat_map(|part| part.split('\n')) {
        let rule = rule.trim();
        if rule.is_empty() {
            continue;
        }
        disjuncts.push(parse_rule(schema, rule)?);
    }
    let first_name = disjuncts
        .first()
        .ok_or(QueryError::EmptyUnion)?
        .name()
        .to_string();
    if disjuncts.iter().any(|d| d.name() != first_name) {
        return Err(QueryError::Parse {
            message: "all rules of a UCQ must share the head symbol".to_string(),
        });
    }
    Ucq::new(disjuncts)
}

fn parse_term(
    src: &str,
    var_names: &mut Vec<String>,
    intern: &mut impl FnMut(&str, &mut Vec<String>) -> Var,
) -> Result<Term, QueryError> {
    let src = src.trim();
    if is_identifier(src) {
        return Ok(Term::Var(intern(src, var_names)));
    }
    literal(src)
        .map(Term::Const)
        .ok_or_else(|| QueryError::Parse {
            message: format!("bad term `{src}`"),
        })
}

fn parse_pred(
    src: &str,
    var_names: &mut Vec<String>,
    intern: &mut impl FnMut(&str, &mut Vec<String>) -> Var,
) -> Result<PredAtom, QueryError> {
    let err = |m: String| QueryError::Parse { message: m };
    // `x in {a, b, c}`
    if let Some((lhs, rhs)) = src.split_once(" in ") {
        let lhs = lhs.trim();
        let rhs = rhs.trim();
        if !is_identifier(lhs) {
            return Err(err(format!("predicate lhs must be a variable: `{src}`")));
        }
        if !(rhs.starts_with('{') && rhs.ends_with('}')) {
            return Err(err(format!("`in` expects a `{{...}}` set: `{src}`")));
        }
        let vals: Option<Vec<Value>> = rhs[1..rhs.len() - 1]
            .split(',')
            .map(|s| literal(s.trim()))
            .collect();
        let vals = vals.ok_or_else(|| err(format!("bad value in set: `{rhs}`")))?;
        return Ok(PredAtom {
            var: intern(lhs, var_names),
            pred: Pred::InSet(vals),
        });
    }
    // Comparison operators, longest first.
    for (op_src, build) in OPS {
        if let Some(pos) = find_op(src, op_src) {
            let lhs = src[..pos].trim();
            let rhs = src[pos + op_src.len()..].trim();
            if !is_identifier(lhs) {
                return Err(err(format!("predicate lhs must be a variable: `{src}`")));
            }
            let value =
                literal(rhs).ok_or_else(|| err(format!("bad literal `{rhs}` in `{src}`")))?;
            let pred = build(value).map_err(|m| err(format!("{m} in `{src}`")))?;
            return Ok(PredAtom {
                var: intern(lhs, var_names),
                pred,
            });
        }
    }
    Err(err(format!("cannot parse body item `{src}`")))
}

/// A constant's literal syntax read as a value, or `None` when it is not
/// one ([`Value::parse_literal`]). A quoted text may hold no line break:
/// no column can hold one, since the `.qdp` format is line-based, and a
/// sold query's rendered text is one line of the market's ledger.
fn literal(src: &str) -> Option<Value> {
    Value::parse_literal(src).filter(|v| !matches!(v, Value::Text(t) if t.contains(['\n', '\r'])))
}

type PredBuilder = fn(Value) -> Result<Pred, String>;

const OPS: &[(&str, PredBuilder)] = &[
    ("!=", |v| Ok(Pred::Ne(v))),
    ("<=", |v| int(v).map(Pred::Le)),
    (">=", |v| int(v).map(Pred::Ge)),
    ("<", |v| int(v).map(Pred::Lt)),
    (">", |v| int(v).map(Pred::Gt)),
    ("=", |v| Ok(Pred::Eq(v))),
];

fn int(v: Value) -> Result<i64, String> {
    v.as_int()
        .ok_or_else(|| format!("comparison needs an integer, got `{v}`"))
}

/// Find `op` in `src` such that it is not part of a longer operator
/// (`<` inside `<=`, `=` inside `!=`/`<=`/`>=`).
fn find_op(src: &str, op: &str) -> Option<usize> {
    let bytes = src.as_bytes();
    let pos = src.find(op)?;
    if op == "=" && pos > 0 && matches!(bytes[pos - 1], b'!' | b'<' | b'>') {
        return None;
    }
    if (op == "<" || op == ">") && bytes.get(pos + 1) == Some(&b'=') {
        return None;
    }
    Some(pos)
}

/// `Name(arg, arg, ...)` — returns `None` if `src` is not of this shape.
fn parse_call(src: &str) -> Option<(&str, Vec<&str>)> {
    let open = src.find('(')?;
    if !src.ends_with(')') {
        return None;
    }
    let name = src[..open].trim();
    if !is_identifier(name) {
        return None;
    }
    let inner = &src[open + 1..src.len() - 1];
    if inner.trim().is_empty() {
        return Some((name, Vec::new()));
    }
    Some((name, inner.split(',').map(str::trim).collect()))
}

fn is_identifier(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Split on commas at paren/brace depth 0, respecting quotes.
fn split_top_level(src: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut in_quote = false;
    let mut start = 0usize;
    for (i, c) in src.char_indices() {
        match c {
            '\'' => in_quote = !in_quote,
            '(' | '{' if !in_quote => depth += 1,
            ')' | '}' if !in_quote => depth -= 1,
            ',' if depth == 0 && !in_quote => {
                out.push(&src[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&src[start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_cq;
    use qbdp_catalog::{tuple, Catalog, CatalogBuilder, Column};

    fn cat() -> Catalog {
        let col = Column::int_range(0, 10);
        CatalogBuilder::new()
            .uniform_relation("R", &["X"], &col)
            .uniform_relation("S", &["X", "Y"], &col)
            .uniform_relation("T", &["Y"], &col)
            .build()
            .unwrap()
    }

    #[test]
    fn parse_simple_chain() {
        let c = cat();
        let q = parse_rule(c.schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        assert_eq!(q.name(), "Q");
        assert_eq!(q.arity(), 2);
        assert_eq!(q.atoms().len(), 3);
        assert!(q.preds().is_empty());
    }

    #[test]
    fn parse_predicates() {
        let c = cat();
        let q = parse_rule(c.schema(), "Q(x) :- S(x, y), x > 3, y <= 7, y != 5").unwrap();
        assert_eq!(q.preds().len(), 3);
        assert_eq!(q.preds()[0].pred, Pred::Gt(3));
        assert_eq!(q.preds()[1].pred, Pred::Le(7));
        assert_eq!(q.preds()[2].pred, Pred::Ne(Value::Int(5)));
        let q = parse_rule(c.schema(), "Q(x) :- R(x), x in {1, 2, 3}").unwrap();
        assert_eq!(
            q.preds()[0].pred,
            Pred::InSet(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        let q = parse_rule(c.schema(), "Q(x) :- R(x), x >= 2, x < 9, x = 4").unwrap();
        assert_eq!(q.preds().len(), 3);
        assert_eq!(q.preds()[2].pred, Pred::Eq(Value::Int(4)));
    }

    #[test]
    fn parse_constants_in_atoms() {
        let c = cat();
        let q = parse_rule(c.schema(), "Q(y) :- S(3, y)").unwrap();
        assert!(matches!(q.atoms()[0].terms[0], Term::Const(Value::Int(3))));
        let q = parse_rule(c.schema(), "Q(y) :- S(y, 4), T(y)").unwrap();
        assert_eq!(q.atoms().len(), 2);
    }

    #[test]
    fn parse_boolean() {
        let c = cat();
        let q = parse_rule(c.schema(), "Q() :- S(x, y)").unwrap();
        assert!(q.is_boolean());
    }

    #[test]
    fn parse_errors() {
        let c = cat();
        assert!(parse_rule(c.schema(), "no arrow here").is_err());
        assert!(parse_rule(c.schema(), "Q(x) :- Unknown(x)").is_err());
        assert!(parse_rule(c.schema(), "Q(x) :- R(x), 3 > x").is_err());
        assert!(parse_rule(c.schema(), "Q(3) :- R(x)").is_err());
        assert!(parse_rule(c.schema(), "Q(z) :- R(x)").is_err()); // unsafe
        assert!(parse_rule(c.schema(), "Q(x) :- R(x), y ?? 3").is_err());
        assert!(parse_rule(c.schema(), "Q(x) :- S(x)").is_err()); // arity
    }

    #[test]
    fn parse_ucq() {
        let c = cat();
        let u = parse_query(c.schema(), "U(x) :- R(x); U(x) :- S(x, y)").unwrap();
        assert_eq!(u.disjuncts().len(), 2);
        let u = parse_query(c.schema(), "U(x) :- R(x)\nU(x) :- T(x)").unwrap();
        assert_eq!(u.disjuncts().len(), 2);
        assert!(parse_query(c.schema(), "A(x) :- R(x); B(x) :- R(x)").is_err());
        assert!(parse_query(c.schema(), "  ").is_err());
    }

    #[test]
    fn quoted_strings_with_commas() {
        let col = Column::texts(["a,b", "c"]);
        let c = CatalogBuilder::new()
            .relation("N", &[("X", col)])
            .build()
            .unwrap();
        let q = parse_rule(c.schema(), "Q(x) :- N(x), x != 'a,b'").unwrap();
        assert_eq!(q.preds()[0].pred, Pred::Ne(Value::text("a,b")));
    }

    #[test]
    fn a_quoted_constant_holds_no_line_break() {
        let col = Column::texts(["a", "b"]);
        let c = CatalogBuilder::new()
            .relation("N", &[("X", col)])
            .build()
            .unwrap();
        for text in [
            "Q(x) :- N(x), x = 'a\nb'",
            "Q(x) :- N(x), x != 'a\rb'",
            "Q(x) :- N(x), x in {a, 'a\nb'}",
            "Q() :- N('a\r\nb')",
        ] {
            assert!(parse_rule(c.schema(), text).is_err(), "{text:?}");
        }
        // A line break outside every constant is white space.
        assert!(parse_rule(c.schema(), "Q(x) :-\n  N(x), x = 'a b'").is_ok());
    }

    #[test]
    fn parsed_query_evaluates() {
        let c = cat();
        let mut d = c.empty_instance();
        let s = c.schema().rel_id("S").unwrap();
        let r = c.schema().rel_id("R").unwrap();
        d.insert_all(r, [tuple![1], tuple![2]]).unwrap();
        d.insert_all(s, [tuple![1, 5], tuple![2, 9], tuple![3, 1]])
            .unwrap();
        let q = parse_rule(c.schema(), "Q(x, y) :- R(x), S(x, y), y > 6").unwrap();
        let ans = eval_cq(&q, &d).unwrap();
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&tuple![2, 9]));
    }
}
