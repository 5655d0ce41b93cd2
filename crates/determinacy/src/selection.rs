//! Selection views and the PTIME determinacy oracle (Theorem 3.3).

use qbdp_catalog::{AttrRef, Catalog, FxHashMap, FxHashSet, Instance, RelId, Schema, Tuple, Value};
use qbdp_query::ast::{ConjunctiveQuery, Pred, PredAtom, Term, Ucq, Var};
use qbdp_query::bundle::Bundle;
use qbdp_query::error::QueryError;
use qbdp_query::eval;
use std::fmt;

/// [`SelectionView::show`]: a view rendered as `σ[R.X=a]`.
pub struct ShowView<'a> {
    view: &'a SelectionView,
    schema: &'a Schema,
}

impl fmt::Display for ShowView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.view;
        write!(f, "σ[{}={}]", self.schema.show_attr(v.attr), v.value)
    }
}

/// A selection view `σ_{R.X=a}` (paper §3, "The Views"): all tuples of `R`
/// whose attribute `X` equals the constant `a ∈ Col_{R.X}`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SelectionView {
    /// The attribute position `R.X`.
    pub attr: AttrRef,
    /// The selected constant `a`.
    pub value: Value,
}

impl SelectionView {
    /// Construct a selection view.
    pub fn new(attr: AttrRef, value: impl Into<Value>) -> Self {
        SelectionView {
            attr,
            value: value.into(),
        }
    }

    /// Whether this view *covers* a tuple of its relation: `t.X = a`. A
    /// covered tuple's membership is fixed in every possible world
    /// consistent with the view's answer.
    pub fn covers(&self, rel: RelId, t: &Tuple) -> bool {
        self.attr.rel == rel && t.get(self.attr.attr.0 as usize) == &self.value
    }

    /// Render against a schema, e.g. `σ[S.Y=b1]`.
    pub fn display(&self, schema: &Schema) -> String {
        self.show(schema).to_string()
    }

    /// The view as `σ[S.Y=b1]` against a schema, for writing it into a
    /// larger string (a receipt line) without an intermediate one.
    pub fn show<'a>(&'a self, schema: &'a Schema) -> ShowView<'a> {
        ShowView { view: self, schema }
    }

    /// The view as a conjunctive query `V(x̄) :- R(x̄), x_i = a`, for use
    /// where bundle-typed views are required (e.g. brute-force determinacy).
    #[expect(
        clippy::expect_used,
        reason = "one atom, one safe head var, one predicate"
    )]
    pub fn to_query(&self, schema: &Schema) -> ConjunctiveQuery {
        let rel = schema.relation(self.attr.rel);
        let vars: Vec<Var> = (0..rel.arity() as u32).map(Var).collect();
        let var_names: Vec<String> = rel.attrs().iter().map(|a| format!("x_{a}")).collect();
        let atom = qbdp_query::ast::Atom::new(self.attr.rel, vars.iter().map(|&v| Term::Var(v)));
        let pred = PredAtom {
            var: Var(self.attr.attr.0),
            pred: Pred::Eq(self.value.clone()),
        };
        ConjunctiveQuery::new(
            format!(
                "V_{}_{}",
                schema.attr_display(self.attr).replace('.', "_"),
                self.value
            ),
            vars,
            vec![atom],
            vec![pred],
            var_names,
            schema,
        )
        .expect("selection view query is always well-formed")
    }
}

impl fmt::Debug for SelectionView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "σ[{:?}={}]", self.attr, self.value)
    }
}

/// A set `V ⊆ Σ` of selection views, indexed for O(1) cover tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViewSet {
    per_attr: FxHashMap<AttrRef, FxHashSet<Value>>,
    len: usize,
}

impl ViewSet {
    /// The empty view set.
    pub fn new() -> Self {
        ViewSet::default()
    }

    /// Build from an iterator of views.
    pub fn from_views(views: impl IntoIterator<Item = SelectionView>) -> Self {
        let mut vs = ViewSet::new();
        for v in views {
            vs.insert(v);
        }
        vs
    }

    /// Insert a view; returns `true` if it was new.
    pub fn insert(&mut self, v: SelectionView) -> bool {
        let added = self.per_attr.entry(v.attr).or_default().insert(v.value);
        if added {
            self.len += 1;
        }
        added
    }

    /// Remove a view; returns `true` if it was present.
    pub fn remove(&mut self, v: &SelectionView) -> bool {
        let removed = self
            .per_attr
            .get_mut(&v.attr)
            .is_some_and(|s| s.remove(&v.value));
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    pub fn contains(&self, v: &SelectionView) -> bool {
        self.per_attr
            .get(&v.attr)
            .is_some_and(|s| s.contains(&v.value))
    }

    /// The values selected on one attribute.
    pub fn values_on(&self, attr: AttrRef) -> Option<&FxHashSet<Value>> {
        self.per_attr.get(&attr)
    }

    /// Whether some view of the set covers tuple `t` of relation `rel`
    /// (fixing its membership in all consistent possible worlds).
    pub fn covers_tuple(&self, schema: &Schema, rel: RelId, t: &[Value]) -> bool {
        let arity = schema.relation(rel).arity();
        (0..arity).any(|pos| {
            self.per_attr
                .get(&AttrRef::new(rel, pos as u32))
                .is_some_and(|vals| vals.contains(&t[pos]))
        })
    }

    /// Whether the set **fully covers** `R.X`: `Σ_{R.X} ⊆ V` (every column
    /// value selected). An empty column is vacuously fully covered.
    pub fn fully_covers(&self, catalog: &Catalog, attr: AttrRef) -> bool {
        let col = catalog.column(attr);
        match self.per_attr.get(&attr) {
            Some(vals) => col.iter().all(|v| vals.contains(v)),
            None => col.is_empty(),
        }
    }

    /// Iterate over all views (order unspecified).
    pub fn iter(&self) -> impl Iterator<Item = SelectionView> + '_ {
        self.per_attr.iter().flat_map(|(attr, vals)| {
            vals.iter().map(move |v| SelectionView {
                attr: *attr,
                value: v.clone(),
            })
        })
    }

    /// The views as a query bundle (for cross-validation against the
    /// brute-force determinacy relation).
    pub fn to_bundle(&self, schema: &Schema) -> Bundle {
        Bundle::new(self.iter().map(|v| Ucq::single(v.to_query(schema))))
    }

    /// The full price list `Σ`: every selection view of every attribute.
    pub fn sigma(catalog: &Catalog) -> ViewSet {
        let mut vs = ViewSet::new();
        for attr in catalog.schema().all_attrs() {
            for v in catalog.column(attr).iter() {
                vs.insert(SelectionView {
                    attr,
                    value: v.clone(),
                });
            }
        }
        vs
    }
}

impl FromIterator<SelectionView> for ViewSet {
    fn from_iter<T: IntoIterator<Item = SelectionView>>(iter: T) -> Self {
        ViewSet::from_views(iter)
    }
}

/// **Lemma 3.1**: for `V ⊆ Σ`, `D ⊢ V ։ σ_{R.X=a}` iff (a) trivially
/// `σ_{R.X=a} ∈ V`, or (b) `V` fully covers some attribute `Y` of `R`.
/// Notably instance-independent.
pub fn determines_selection(catalog: &Catalog, views: &ViewSet, target: &SelectionView) -> bool {
    if views.contains(target) {
        return true;
    }
    let arity = catalog.schema().relation(target.attr.rel).arity();
    (0..arity).any(|pos| views.fully_covers(catalog, AttrRef::new(target.attr.rel, pos as u32)))
}

/// Consequence of Lemma 3.1: `V` determines the **whole relation** `R`
/// iff it fully covers some attribute of `R`.
pub fn determines_relation(catalog: &Catalog, views: &ViewSet, rel: RelId) -> bool {
    let arity = catalog.schema().relation(rel).arity();
    (0..arity).any(|pos| views.fully_covers(catalog, AttrRef::new(rel, pos as u32)))
}

/// The **minimal possible world** consistent with `V(D)`: exactly the tuples
/// of `D` covered by some view of `V`.
pub fn min_world(d: &Instance, views: &ViewSet) -> Instance {
    let schema = d.schema().clone();
    let mut out = d.clone();
    for rid in schema.rel_ids() {
        out.retain(rid, |t| views.covers_tuple(&schema, rid, t));
    }
    out
}

/// The **maximal possible world** consistent with `V(D)`: the covered tuples
/// of `D` plus *every* column-product tuple covered by no view of `V`.
///
/// Size is `O(∏_X |Col_{R.X}|)` per relation — polynomial in data complexity
/// (arities are fixed), exactly as Theorem 3.3 requires.
pub fn max_world(catalog: &Catalog, d: &Instance, views: &ViewSet) -> Instance {
    let mut out = min_world(d, views);
    let schema = d.schema().clone();
    for (rid, _) in schema.iter() {
        catalog.for_each_product_tuple(rid, |vals| {
            if !views.covers_tuple(&schema, rid, vals) {
                let t = Tuple::new(vals.to_vec());
                #[expect(
                    clippy::expect_used,
                    reason = "product tuples are generated at schema arity"
                )]
                out.insert(rid, t).expect("arity preserved");
            }
            true
        });
    }
    out
}

/// **Theorem 3.3 oracle**: for selection views `V ⊆ Σ` and a monotone
/// PTIME query `Q` (here: any UCQ with interpreted predicates),
/// `D ⊢ V ։ Q` iff `Q(D_min) = Q(D_max)`.
///
/// Every consistent `D'` satisfies `D_min ⊆ D' ⊆ D_max` and both bounds are
/// themselves consistent, so by monotonicity all answers are sandwiched.
pub fn determines_monotone_ucq(
    catalog: &Catalog,
    d: &Instance,
    views: &ViewSet,
    q: &Ucq,
) -> Result<bool, QueryError> {
    let dmin = min_world(d, views);
    let dmax = max_world(catalog, d, views);
    let lo = eval::eval_ucq(q, &dmin)?;
    let hi = eval::eval_ucq(q, &dmax)?;
    Ok(lo == hi)
}

/// [`determines_monotone_ucq`] for a single CQ.
pub fn determines_monotone_cq(
    catalog: &Catalog,
    d: &Instance,
    views: &ViewSet,
    q: &ConjunctiveQuery,
) -> Result<bool, QueryError> {
    let dmin = min_world(d, views);
    let dmax = max_world(catalog, d, views);
    let lo = eval::eval_cq(q, &dmin)?;
    let hi = eval::eval_cq(q, &dmax)?;
    Ok(lo == hi)
}

/// [`determines_monotone_ucq`] for a bundle: `V` determines `(Q_1,…,Q_m)`
/// iff it determines every member (Lemma 2.6(b)).
pub fn determines_monotone_bundle(
    catalog: &Catalog,
    d: &Instance,
    views: &ViewSet,
    q: &Bundle,
) -> Result<bool, QueryError> {
    // Build both worlds once, evaluate all queries on them.
    let dmin = min_world(d, views);
    let dmax = max_world(catalog, d, views);
    for ucq in q.queries() {
        if eval::eval_ucq(ucq, &dmin)? != eval::eval_ucq(ucq, &dmax)? {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbdp_catalog::{tuple, CatalogBuilder, Column};
    use qbdp_query::ast::CqBuilder;
    use qbdp_query::parser::parse_rule;

    /// Figure 1 database.
    fn figure1() -> (Catalog, Instance) {
        let ax = Column::texts(["a1", "a2", "a3", "a4"]);
        let by = Column::texts(["b1", "b2", "b3"]);
        let cat = CatalogBuilder::new()
            .relation("R", &[("X", ax.clone())])
            .relation("S", &[("X", ax), ("Y", by.clone())])
            .relation("T", &[("Y", by)])
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        let r = cat.schema().rel_id("R").unwrap();
        let s = cat.schema().rel_id("S").unwrap();
        let t = cat.schema().rel_id("T").unwrap();
        d.insert_all(r, [tuple!["a1"], tuple!["a2"]]).unwrap();
        d.insert_all(
            s,
            [
                tuple!["a1", "b1"],
                tuple!["a1", "b2"],
                tuple!["a2", "b2"],
                tuple!["a4", "b1"],
            ],
        )
        .unwrap();
        d.insert_all(t, [tuple!["b1"], tuple!["b3"]]).unwrap();
        (cat, d)
    }

    fn sel(cat: &Catalog, dotted: &str, v: &str) -> SelectionView {
        SelectionView::new(cat.schema().resolve_attr(dotted).unwrap(), v)
    }

    #[test]
    fn viewset_basics() {
        let (cat, _) = figure1();
        let mut vs = ViewSet::new();
        assert!(vs.insert(sel(&cat, "R.X", "a1")));
        assert!(!vs.insert(sel(&cat, "R.X", "a1")));
        assert!(vs.contains(&sel(&cat, "R.X", "a1")));
        assert_eq!(vs.len(), 1);
        assert!(vs.remove(&sel(&cat, "R.X", "a1")));
        assert!(vs.is_empty());
        let sigma = ViewSet::sigma(&cat);
        assert_eq!(sigma.len(), 4 + 4 + 3 + 3); // R.X, S.X, S.Y, T.Y
    }

    #[test]
    fn cover_tests() {
        let (cat, _) = figure1();
        let s = cat.schema().rel_id("S").unwrap();
        let vs = ViewSet::from_views([sel(&cat, "S.Y", "b1")]);
        assert!(vs.covers_tuple(cat.schema(), s, tuple!["a1", "b1"].values()));
        assert!(!vs.covers_tuple(cat.schema(), s, tuple!["a1", "b2"].values()));
        assert!(!vs.fully_covers(&cat, cat.schema().resolve_attr("S.Y").unwrap()));
        let full: ViewSet = ["b1", "b2", "b3"]
            .iter()
            .map(|b| sel(&cat, "S.Y", b))
            .collect();
        assert!(full.fully_covers(&cat, cat.schema().resolve_attr("S.Y").unwrap()));
    }

    #[test]
    fn lemma_3_1() {
        let (cat, _) = figure1();
        let target = sel(&cat, "S.X", "a1");
        // Trivial case.
        let vs = ViewSet::from_views([target.clone()]);
        assert!(determines_selection(&cat, &vs, &target));
        // Full cover of the *other* attribute.
        let vs: ViewSet = ["b1", "b2", "b3"]
            .iter()
            .map(|b| sel(&cat, "S.Y", b))
            .collect();
        assert!(determines_selection(&cat, &vs, &target));
        let s = cat.schema().rel_id("S").unwrap();
        assert!(determines_relation(&cat, &vs, s));
        // Partial cover does not determine.
        let vs: ViewSet = ["b1", "b2"].iter().map(|b| sel(&cat, "S.Y", b)).collect();
        assert!(!determines_selection(&cat, &vs, &target));
        assert!(!determines_relation(&cat, &vs, s));
    }

    #[test]
    fn min_max_worlds() {
        let (cat, d) = figure1();
        let vs = ViewSet::from_views([sel(&cat, "S.Y", "b1"), sel(&cat, "R.X", "a1")]);
        let dmin = min_world(&d, &vs);
        let s = cat.schema().rel_id("S").unwrap();
        let r = cat.schema().rel_id("R").unwrap();
        // Covered: S(a1,b1), S(a4,b1), R(a1).
        assert_eq!(dmin.relation(s).len(), 2);
        assert_eq!(dmin.relation(r).len(), 1);
        let dmax = max_world(&cat, &d, &vs);
        // S product = 4*3 = 12; covered slots: Y=b1 (4 tuples) of which 2 in
        // D. So dmax S = 2 (covered present) + 8 (uncovered product).
        assert_eq!(dmax.relation(s).len(), 10);
        // R: covered slot X=a1 (present), uncovered {a2, a3, a4} all added.
        assert_eq!(dmax.relation(r).len(), 4);
        assert!(dmin.is_subset_of(&dmax));
        assert!(min_world(&d, &vs).is_subset_of(&d));
    }

    #[test]
    fn theorem_3_3_oracle_on_figure1() {
        let (cat, d) = figure1();
        let q = CqBuilder::new("Q")
            .head_vars(["x", "y"])
            .atom("R", &["x"])
            .atom("S", &["x", "y"])
            .atom("T", &["y"])
            .build(cat.schema())
            .unwrap();
        // The minimal determining set from Example 3.8 (price 6).
        let vs = ViewSet::from_views([
            sel(&cat, "R.X", "a1"),
            sel(&cat, "R.X", "a4"),
            sel(&cat, "S.Y", "b1"),
            sel(&cat, "S.Y", "b3"),
            sel(&cat, "T.Y", "b1"),
            sel(&cat, "T.Y", "b2"),
        ]);
        assert!(determines_monotone_cq(&cat, &d, &vs, &q).unwrap());
        // Dropping any single view breaks determinacy (minimality).
        for v in vs.iter() {
            let mut smaller = vs.clone();
            smaller.remove(&v);
            assert!(
                !determines_monotone_cq(&cat, &d, &smaller, &q).unwrap(),
                "dropping {v:?} should break determinacy"
            );
        }
        // The V_0 of Example 3.8 is insufficient.
        let v0 = ViewSet::from_views([
            sel(&cat, "R.X", "a1"),
            sel(&cat, "S.Y", "b1"),
            sel(&cat, "T.Y", "b1"),
        ]);
        assert!(!determines_monotone_cq(&cat, &d, &v0, &q).unwrap());
        // Σ always determines everything.
        assert!(determines_monotone_cq(&cat, &d, &ViewSet::sigma(&cat), &q).unwrap());
    }

    #[test]
    fn example_2_4_instance_based_vs_information_theoretic() {
        // Q1(x,y,z) = R(x,y), S(y,z); Q = R(x,y), S(y,z), T(z,u).
        // On a database where Q1(D) = ∅, Q1 determines Q (both empty), even
        // though Q1 does not determine Q information-theoretically.
        let col = Column::int_range(0, 2);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X", "Y"], &col)
            .uniform_relation("S", &["X", "Y"], &col)
            .uniform_relation("T", &["X", "Y"], &col)
            .build()
            .unwrap();
        // We emulate "knowing Q1(D) = ∅" with the view set that fixes R
        // fully and S fully... that would be stronger. Instead check the
        // *spirit* with selection views: an empty R fully covered makes any
        // query joining through R determined (everything empty).
        let mut d = cat.empty_instance();
        let t = cat.schema().rel_id("T").unwrap();
        d.insert(t, tuple![0, 1]).unwrap();
        let q = parse_rule(cat.schema(), "Q(x,y,z,u) :- R(x,y), S(y,z), T(z,u)").unwrap();
        let vs: ViewSet = (0..2)
            .map(|i| SelectionView::new(cat.schema().resolve_attr("R.X").unwrap(), Value::Int(i)))
            .collect();
        // R is empty and fully covered on X ⇒ R known empty ⇒ Q known empty.
        assert!(determines_monotone_cq(&cat, &d, &vs, &q).unwrap());
        // Same views on a database where R is nonempty do not determine Q.
        let r = cat.schema().rel_id("R").unwrap();
        let s = cat.schema().rel_id("S").unwrap();
        let mut d2 = d.clone();
        d2.insert(r, tuple![0, 0]).unwrap();
        d2.insert(s, tuple![0, 1]).unwrap();
        assert!(!determines_monotone_cq(&cat, &d2, &vs, &q).unwrap());
    }

    #[test]
    fn bundle_determinacy_requires_every_member() {
        let (cat, d) = figure1();
        let q_r = CqBuilder::new("QR")
            .head_var("x")
            .atom("R", &["x"])
            .build(cat.schema())
            .unwrap();
        let q_t = CqBuilder::new("QT")
            .head_var("y")
            .atom("T", &["y"])
            .build(cat.schema())
            .unwrap();
        let full_r: ViewSet = ["a1", "a2", "a3", "a4"]
            .iter()
            .map(|a| sel(&cat, "R.X", a))
            .collect();
        let b_r = Bundle::single(Ucq::single(q_r.clone()));
        let b_rt = Bundle::new([Ucq::single(q_r), Ucq::single(q_t)]);
        assert!(determines_monotone_bundle(&cat, &d, &full_r, &b_r).unwrap());
        assert!(!determines_monotone_bundle(&cat, &d, &full_r, &b_rt).unwrap());
    }

    #[test]
    fn selection_view_as_query() {
        let (cat, d) = figure1();
        let v = sel(&cat, "S.Y", "b1");
        let q = v.to_query(cat.schema());
        let ans = qbdp_query::eval::eval_cq(&q, &d).unwrap();
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&tuple!["a1", "b1"]));
        assert!(ans.contains(&tuple!["a4", "b1"]));
    }
}
