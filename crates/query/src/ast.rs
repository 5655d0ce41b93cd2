//! Query ASTs: conjunctive queries (CQ), unions of conjunctive queries
//! (UCQ), and interpreted unary predicates.
//!
//! Following the paper (§2.1, §3.1) we consider monotone queries only. A
//! conjunctive query is written `Q(x̄) :- R_1(t̄_1), ..., R_k(t̄_k), C_1, ...`
//! where each `C_j` is an interpreted *unary* predicate over one variable
//! (`x > 10`, `x in {…}`) — binary comparisons like `x < y` are excluded,
//! exactly as in the paper.

use crate::error::QueryError;
use qbdp_catalog::{RelId, Schema, Value};
use std::fmt;
use std::sync::Arc;

/// A query variable, interned per query (index into the query's name table).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// A term in an atom: a variable or a constant.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A query variable.
    Var(Var),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// The variable, if this term is one.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v:?}"),
            Term::Const(c) => write!(f, "{c:?}"),
        }
    }
}

/// A relational atom `R(t_1, ..., t_m)`.
#[derive(Clone, PartialEq, Eq)]
pub struct Atom {
    /// The relation.
    pub rel: RelId,
    /// The terms, one per attribute position.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Construct an atom.
    pub fn new(rel: RelId, terms: impl IntoIterator<Item = Term>) -> Self {
        Atom {
            rel,
            terms: terms.into_iter().collect(),
        }
    }

    /// The distinct variables of the atom, in first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
        }
        out
    }

    /// Positions (0-based) at which `v` occurs.
    pub fn positions_of(&self, v: Var) -> Vec<usize> {
        self.terms
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t, Term::Var(w) if *w == v))
            .map(|(i, _)| i)
            .collect()
    }
}

/// An interpreted unary predicate, evaluable in constant time per value
/// (the paper's `C(x)`: "interpreted unary predicates that can be computed
/// in PTIME", §3.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pred {
    /// `x = c`.
    Eq(Value),
    /// `x != c`.
    Ne(Value),
    /// `x < c` (integers only).
    Lt(i64),
    /// `x <= c` (integers only).
    Le(i64),
    /// `x > c` (integers only).
    Gt(i64),
    /// `x >= c` (integers only).
    Ge(i64),
    /// `x in {c_1, ..., c_m}`.
    InSet(Vec<Value>),
}

impl Pred {
    /// Evaluate the predicate on a value. Integer comparisons on text values
    /// are a type error (rather than silently false), surfacing workload
    /// bugs early.
    pub fn eval(&self, v: &Value) -> Result<bool, QueryError> {
        let int = |v: &Value| {
            v.as_int().ok_or_else(|| QueryError::PredicateType {
                pred: format!("{self:?}"),
                value: v.to_string(),
            })
        };
        Ok(match self {
            Pred::Eq(c) => v == c,
            Pred::Ne(c) => v != c,
            Pred::Lt(c) => int(v)? < *c,
            Pred::Le(c) => int(v)? <= *c,
            Pred::Gt(c) => int(v)? > *c,
            Pred::Ge(c) => int(v)? >= *c,
            Pred::InSet(cs) => cs.contains(v),
        })
    }
}

/// A predicate applied to a variable, e.g. `x > 10`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredAtom {
    /// The constrained variable.
    pub var: Var,
    /// The predicate.
    pub pred: Pred,
}

/// A conjunctive query with interpreted unary predicates.
///
/// Invariants (checked at construction):
/// * every head variable occurs in some relational atom (safety),
/// * every predicate variable occurs in some relational atom,
/// * every atom matches its relation's arity in the given schema.
///
/// The name and the variable table are shared behind an [`Arc`], so the
/// queries the normalization steps derive from one another copy neither.
#[derive(Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    name: Arc<str>,
    head: Vec<Var>,
    atoms: Vec<Atom>,
    preds: Vec<PredAtom>,
    var_names: Arc<[String]>,
}

impl ConjunctiveQuery {
    /// Construct and validate a CQ against a schema.
    pub fn new(
        name: impl Into<Arc<str>>,
        head: Vec<Var>,
        atoms: Vec<Atom>,
        preds: Vec<PredAtom>,
        var_names: Vec<String>,
        schema: &Schema,
    ) -> Result<Self, QueryError> {
        let q = ConjunctiveQuery {
            name: name.into(),
            head,
            atoms,
            preds,
            var_names: var_names.into(),
        };
        q.validate(schema)?;
        Ok(q)
    }

    fn validate(&self, schema: &Schema) -> Result<(), QueryError> {
        for atom in &self.atoms {
            let rs = schema.relation(atom.rel);
            if atom.terms.len() != rs.arity() {
                return Err(QueryError::ArityMismatch {
                    relation: rs.name().to_string(),
                    expected: rs.arity(),
                    got: atom.terms.len(),
                });
            }
        }
        for &v in &self.head {
            if !self.in_body(v) {
                return Err(QueryError::UnsafeHeadVar(self.var_name(v).to_string()));
            }
        }
        for p in &self.preds {
            if !self.in_body(p.var) {
                return Err(QueryError::UnsafePredVar(self.var_name(p.var).to_string()));
            }
        }
        Ok(())
    }

    /// Whether `v` occurs in some relational atom.
    fn in_body(&self, v: Var) -> bool {
        self.atoms
            .iter()
            .any(|a| a.terms.iter().any(|t| t.as_var() == Some(v)))
    }

    /// The query name (head symbol).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Head variables (may repeat).
    pub fn head(&self) -> &[Var] {
        &self.head
    }

    /// Relational atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Interpreted predicates.
    pub fn preds(&self) -> &[PredAtom] {
        &self.preds
    }

    /// Name of a variable.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.0 as usize]
    }

    /// The variable name table (index = `Var` id).
    pub fn var_names(&self) -> &[String] {
        &self.var_names
    }

    /// Number of interned variables (including ones no longer used).
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Distinct variables occurring in relational atoms, in first-occurrence
    /// order. (`Var(Q)` in the paper.)
    pub fn body_vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for a in &self.atoms {
            for v in a.vars() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Head arity.
    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// A boolean query has an empty head.
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// Rebuild with a different head over the same body (used to "fullify"
    /// boolean queries, dichotomy case 3). The caller must keep the head
    /// safe; this re-checks nothing schema-related since the body is
    /// unchanged.
    pub fn with_head(&self, head: Vec<Var>) -> Result<ConjunctiveQuery, QueryError> {
        let body = self.body_vars();
        for &v in &head {
            if !body.contains(&v) {
                let name = self
                    .var_names
                    .get(v.0 as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("?{}", v.0));
                return Err(QueryError::UnsafeHeadVar(name));
            }
        }
        Ok(ConjunctiveQuery {
            head,
            ..self.clone()
        })
    }

    /// Rebuild with different atoms/predicates over the same variable table.
    /// Used by the normalization steps; re-validates against the schema.
    pub fn with_body(
        &self,
        atoms: Vec<Atom>,
        preds: Vec<PredAtom>,
        schema: &Schema,
    ) -> Result<ConjunctiveQuery, QueryError> {
        self.with_head_and_body(self.head.clone(), atoms, preds, schema)
    }

    /// Rebuild with a different head, atoms and predicates over the same
    /// name and variable table (both shared, not copied). Used by Step 3's
    /// projections; re-validates against the schema.
    pub fn with_head_and_body(
        &self,
        head: Vec<Var>,
        atoms: Vec<Atom>,
        preds: Vec<PredAtom>,
        schema: &Schema,
    ) -> Result<ConjunctiveQuery, QueryError> {
        let q = ConjunctiveQuery {
            name: Arc::clone(&self.name),
            head,
            atoms,
            preds,
            var_names: Arc::clone(&self.var_names),
        };
        q.validate(schema)?;
        Ok(q)
    }
}

/// A union of conjunctive queries. All disjuncts share the head arity.
#[derive(Clone, PartialEq, Eq)]
pub struct Ucq {
    disjuncts: Vec<ConjunctiveQuery>,
}

impl Ucq {
    /// Build a UCQ; requires ≥1 disjunct and uniform arity.
    pub fn new(disjuncts: Vec<ConjunctiveQuery>) -> Result<Self, QueryError> {
        let first = disjuncts.first().ok_or(QueryError::EmptyUnion)?;
        let arity = first.arity();
        if disjuncts.iter().any(|d| d.arity() != arity) {
            return Err(QueryError::MixedArity);
        }
        Ok(Ucq { disjuncts })
    }

    /// A single-disjunct UCQ.
    pub fn single(cq: ConjunctiveQuery) -> Self {
        Ucq {
            disjuncts: vec![cq],
        }
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[ConjunctiveQuery] {
        &self.disjuncts
    }

    /// If this UCQ is a single CQ, borrow it.
    pub fn as_single_cq(&self) -> Option<&ConjunctiveQuery> {
        match self.disjuncts.as_slice() {
            [one] => Some(one),
            _ => None,
        }
    }

    /// Head arity.
    pub fn arity(&self) -> usize {
        self.disjuncts[0].arity()
    }

    /// Name (taken from the first disjunct).
    pub fn name(&self) -> &str {
        self.disjuncts[0].name()
    }
}

impl From<ConjunctiveQuery> for Ucq {
    fn from(cq: ConjunctiveQuery) -> Self {
        Ucq::single(cq)
    }
}

/// Incremental CQ builder interning variables by name.
///
/// ```
/// use qbdp_catalog::{CatalogBuilder, Column};
/// use qbdp_query::ast::CqBuilder;
/// let catalog = CatalogBuilder::new()
///     .uniform_relation("R", &["X", "Y"], &Column::int_range(0, 3))
///     .build()
///     .unwrap();
/// let q = CqBuilder::new("Q")
///     .head_var("x")
///     .atom("R", &["x", "y"])
///     .build(catalog.schema())
///     .unwrap();
/// assert_eq!(q.arity(), 1);
/// ```
pub struct CqBuilder {
    name: String,
    head: Vec<String>,
    atoms: Vec<(String, Vec<TermSpec>)>,
    preds: Vec<(String, Pred)>,
}

enum TermSpec {
    Var(String),
    Const(Value),
}

impl CqBuilder {
    /// Start a builder for head symbol `name`.
    pub fn new(name: impl Into<String>) -> Self {
        CqBuilder {
            name: name.into(),
            head: Vec::new(),
            atoms: Vec::new(),
            preds: Vec::new(),
        }
    }

    /// Append a head variable.
    pub fn head_var(mut self, v: impl Into<String>) -> Self {
        self.head.push(v.into());
        self
    }

    /// Append several head variables.
    pub fn head_vars<'a>(mut self, vs: impl IntoIterator<Item = &'a str>) -> Self {
        self.head.extend(vs.into_iter().map(String::from));
        self
    }

    /// Append an atom whose terms are all variables.
    pub fn atom(mut self, rel: impl Into<String>, vars: &[&str]) -> Self {
        self.atoms.push((
            rel.into(),
            vars.iter().map(|v| TermSpec::Var(v.to_string())).collect(),
        ));
        self
    }

    /// Append an atom with mixed variable/constant terms: variables as
    /// `Ok(name)`, constants as `Err(value)`.
    pub fn atom_terms(
        mut self,
        rel: impl Into<String>,
        terms: impl IntoIterator<Item = Result<String, Value>>,
    ) -> Self {
        self.atoms.push((
            rel.into(),
            terms
                .into_iter()
                .map(|t| match t {
                    Ok(v) => TermSpec::Var(v),
                    Err(c) => TermSpec::Const(c),
                })
                .collect(),
        ));
        self
    }

    /// Append an interpreted predicate on a variable.
    pub fn pred(mut self, var: impl Into<String>, pred: Pred) -> Self {
        self.preds.push((var.into(), pred));
        self
    }

    /// Finish, validating against the schema.
    pub fn build(self, schema: &Schema) -> Result<ConjunctiveQuery, QueryError> {
        let mut var_names: Vec<String> = Vec::new();
        let intern = |name: &str, var_names: &mut Vec<String>| -> Var {
            if let Some(i) = var_names.iter().position(|n| n == name) {
                Var(i as u32)
            } else {
                var_names.push(name.to_string());
                Var((var_names.len() - 1) as u32)
            }
        };
        let mut atoms = Vec::with_capacity(self.atoms.len());
        for (rel_name, terms) in &self.atoms {
            let rel = schema
                .rel_id(rel_name)
                .ok_or_else(|| QueryError::UnknownRelation(rel_name.clone()))?;
            let terms = terms
                .iter()
                .map(|t| match t {
                    TermSpec::Var(v) => Term::Var(intern(v, &mut var_names)),
                    TermSpec::Const(c) => Term::Const(c.clone()),
                })
                .collect();
            atoms.push(Atom { rel, terms });
        }
        let head = self
            .head
            .iter()
            .map(|v| intern(v, &mut var_names))
            .collect();
        let preds = self
            .preds
            .iter()
            .map(|(v, p)| PredAtom {
                var: intern(v, &mut var_names),
                pred: p.clone(),
            })
            .collect();
        ConjunctiveQuery::new(self.name, head, atoms, preds, var_names, schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbdp_catalog::{CatalogBuilder, Column};

    fn schema() -> qbdp_catalog::Catalog {
        let col = Column::int_range(0, 4);
        CatalogBuilder::new()
            .uniform_relation("R", &["X"], &col)
            .uniform_relation("S", &["X", "Y"], &col)
            .uniform_relation("T", &["Y"], &col)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_interns_vars() {
        let cat = schema();
        let q = CqBuilder::new("Q")
            .head_vars(["x", "y"])
            .atom("R", &["x"])
            .atom("S", &["x", "y"])
            .atom("T", &["y"])
            .build(cat.schema())
            .unwrap();
        assert_eq!(q.num_vars(), 2);
        assert_eq!(q.body_vars().len(), 2);
        assert_eq!(q.var_name(Var(0)), "x");
        assert!(!q.is_boolean());
    }

    #[test]
    fn safety_enforced() {
        let cat = schema();
        let err = CqBuilder::new("Q")
            .head_var("z")
            .atom("R", &["x"])
            .build(cat.schema());
        assert!(matches!(err, Err(QueryError::UnsafeHeadVar(_))));
        let err = CqBuilder::new("Q")
            .atom("R", &["x"])
            .pred("w", Pred::Gt(0))
            .build(cat.schema());
        assert!(matches!(err, Err(QueryError::UnsafePredVar(_))));
    }

    #[test]
    fn arity_enforced() {
        let cat = schema();
        let err = CqBuilder::new("Q").atom("S", &["x"]).build(cat.schema());
        assert!(matches!(err, Err(QueryError::ArityMismatch { .. })));
    }

    #[test]
    fn unknown_relation() {
        let cat = schema();
        let err = CqBuilder::new("Q").atom("Zed", &["x"]).build(cat.schema());
        assert!(matches!(err, Err(QueryError::UnknownRelation(_))));
    }

    #[test]
    fn predicates_evaluate() {
        assert!(Pred::Gt(3).eval(&Value::Int(4)).unwrap());
        assert!(!Pred::Gt(3).eval(&Value::Int(3)).unwrap());
        assert!(Pred::Ne(Value::text("a")).eval(&Value::text("b")).unwrap());
        assert!(Pred::InSet(vec![Value::Int(1), Value::Int(2)])
            .eval(&Value::Int(2))
            .unwrap());
        assert!(Pred::Lt(3).eval(&Value::text("a")).is_err());
        assert!(Pred::Eq(Value::Int(1)).eval(&Value::Int(1)).unwrap());
        assert!(Pred::Le(2).eval(&Value::Int(2)).unwrap());
        assert!(Pred::Ge(2).eval(&Value::Int(2)).unwrap());
    }

    #[test]
    fn ucq_arity_checked() {
        let cat = schema();
        let q1 = CqBuilder::new("Q")
            .head_var("x")
            .atom("R", &["x"])
            .build(cat.schema())
            .unwrap();
        let q2 = CqBuilder::new("Q")
            .head_vars(["x", "y"])
            .atom("S", &["x", "y"])
            .build(cat.schema())
            .unwrap();
        assert!(Ucq::new(vec![q1.clone(), q2]).is_err());
        assert!(Ucq::new(vec![]).is_err());
        let u = Ucq::new(vec![q1.clone(), q1.clone()]).unwrap();
        assert_eq!(u.arity(), 1);
        assert!(u.as_single_cq().is_none());
        assert!(Ucq::single(q1).as_single_cq().is_some());
    }

    #[test]
    fn with_head_fullifies() {
        let cat = schema();
        let boolean = CqBuilder::new("Q")
            .atom("S", &["x", "y"])
            .build(cat.schema())
            .unwrap();
        assert!(boolean.is_boolean());
        let full = boolean.with_head(boolean.body_vars()).unwrap();
        assert_eq!(full.arity(), 2);
        assert!(boolean.with_head(vec![Var(99)]).is_err());
    }

    #[test]
    fn atom_helpers() {
        let cat = schema();
        let q = CqBuilder::new("Q")
            .head_vars(["x"])
            .atom_terms("S", [Ok("x".to_string()), Err(Value::Int(2))])
            .build(cat.schema())
            .unwrap();
        let atom = &q.atoms()[0];
        assert_eq!(atom.vars(), vec![Var(0)]);
        assert_eq!(atom.positions_of(Var(0)), vec![0]);
        assert!(matches!(atom.terms[1], Term::Const(Value::Int(2))));
    }
}
