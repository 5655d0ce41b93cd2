//! Database instances `D = (R_1^D, ..., R_k^D)` with per-attribute indexes.
//!
//! The paper's dynamic setting (§2.7) considers only insertions, so
//! [`Relation`] and [`Instance`] are insert-only; this keeps the indexes
//! append-only and makes the `D_1 ⊆ D_2` monotonicity experiments exact.
//!
//! Relations are copy-on-write: an [`Instance`] holds each one behind an
//! [`Arc`], so cloning an instance costs one reference count per relation,
//! and a write copies only the relation it touches, and only while another
//! instance still shares it. The normalization steps of the pricing
//! pipeline derive their instances with [`Instance::retain`] and
//! [`crate::Catalog::project_out`], which rebuild the one relation they
//! change and share the rest.

use crate::error::CatalogError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::schema::{AttrId, RelId, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use std::sync::Arc;

/// The extension of a single relation: a set of tuples plus one hash index
/// per attribute position (value → tuple indices).
#[derive(Clone, Debug, Default)]
pub struct Relation {
    tuples: Vec<Tuple>,
    set: FxHashSet<Tuple>,
    index: Vec<FxHashMap<Value, Vec<u32>>>,
}

impl Relation {
    fn with_arity(arity: usize) -> Self {
        Relation {
            tuples: Vec::new(),
            set: FxHashSet::default(),
            index: (0..arity).map(|_| FxHashMap::default()).collect(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.set.contains(t)
    }

    /// Iterate over the tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Tuples whose attribute `attr` equals `v` — the extension of the
    /// selection view `σ_{R.attr=v}(D)`.
    pub fn select(&self, attr: AttrId, v: &Value) -> impl Iterator<Item = &Tuple> {
        self.index[attr.0 as usize]
            .get(v)
            .into_iter()
            .flatten()
            .map(move |&i| &self.tuples[i as usize])
    }

    /// Number of tuples with `attr = v`, without materializing them.
    pub fn select_count(&self, attr: AttrId, v: &Value) -> usize {
        self.index[attr.0 as usize].get(v).map_or(0, Vec::len)
    }

    /// Distinct values appearing in attribute `attr` (the active domain of
    /// that position).
    pub fn active_values(&self, attr: AttrId) -> impl Iterator<Item = &Value> {
        self.index[attr.0 as usize].keys()
    }

    fn arity(&self) -> usize {
        self.index.len()
    }

    fn insert(&mut self, t: Tuple) -> bool {
        if !self.set.insert(t.clone()) {
            return false;
        }
        let idx = self.tuples.len() as u32;
        for (pos, v) in t.iter().enumerate() {
            self.index[pos].entry(v.clone()).or_default().push(idx);
        }
        self.tuples.push(t);
        true
    }
}

/// A database instance over a shared [`Schema`]. Cloning shares every
/// relation; writes copy a relation only while it is shared.
#[derive(Clone, Debug)]
pub struct Instance {
    schema: Arc<Schema>,
    relations: Vec<Arc<Relation>>,
}

impl Instance {
    /// The empty instance over a schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        let relations = schema
            .iter()
            .map(|(_, r)| Arc::new(Relation::with_arity(r.arity())))
            .collect();
        Instance { schema, relations }
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The extension of a relation.
    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id.0 as usize]
    }

    /// Insert a tuple; returns `Ok(true)` if it was new. Checks arity only —
    /// column-inclusion checks belong to [`crate::Catalog::check_instance`].
    pub fn insert(&mut self, rel: RelId, t: Tuple) -> Result<bool, CatalogError> {
        let rs = self.schema.relation(rel);
        if t.arity() != rs.arity() {
            return Err(CatalogError::ArityMismatch {
                relation: rs.name().to_string(),
                expected: rs.arity(),
                got: t.arity(),
            });
        }
        let r = &mut self.relations[rel.0 as usize];
        if let Some(unshared) = Arc::get_mut(r) {
            return Ok(unshared.insert(t));
        }
        // A duplicate must not copy a shared relation.
        if r.contains(&t) {
            return Ok(false);
        }
        Ok(Arc::make_mut(r).insert(t))
    }

    /// Insert many tuples into one relation.
    pub fn insert_all(
        &mut self,
        rel: RelId,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize, CatalogError> {
        let mut added = 0;
        for t in tuples {
            if self.insert(rel, t)? {
                added += 1;
            }
        }
        Ok(added)
    }

    /// Keep only the tuples of `rel` that satisfy `keep`. The survivors
    /// keep their insertion order and get fresh indexes; when every tuple
    /// survives, the relation stays shared.
    pub fn retain(&mut self, rel: RelId, mut keep: impl FnMut(&Tuple) -> bool) {
        let old = &self.relations[rel.0 as usize];
        let kept: Vec<&Tuple> = old.iter().filter(|t| keep(t)).collect();
        if kept.len() == old.len() {
            return;
        }
        let mut fresh = Relation::with_arity(old.arity());
        for t in kept {
            fresh.insert(t.clone());
        }
        self.relations[rel.0 as usize] = Arc::new(fresh);
    }

    /// This instance with position `pos` of `rel` projected away, over
    /// `schema`: this instance's schema without that attribute, built once
    /// by [`crate::Catalog::project_out`] and shared with the projected
    /// catalog. `rel` keeps the first occurrence of each projected tuple in
    /// insertion order, and every other relation is shared.
    pub(crate) fn project_onto(&self, schema: Arc<Schema>, rel: RelId, pos: usize) -> Instance {
        let mut projected = Relation::with_arity(schema.relation(rel).arity());
        for t in self.relation(rel).iter() {
            projected.insert(t.without_position(pos));
        }
        let mut relations = self.relations.clone();
        relations[rel.0 as usize] = Arc::new(projected);
        Instance { schema, relations }
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// `self ⊆ other`: every tuple of every relation of `self` appears in
    /// `other` (schemas must be the same object or equal).
    pub fn is_subset_of(&self, other: &Instance) -> bool {
        self.schema.as_ref() == other.schema.as_ref()
            && self
                .relations
                .iter()
                .zip(&other.relations)
                .all(|(a, b)| a.iter().all(|t| b.contains(t)))
    }

    /// Instance equality as sets of tuples (insertion order ignored).
    pub fn same_extension(&self, other: &Instance) -> bool {
        self.schema.as_ref() == other.schema.as_ref()
            && self
                .relations
                .iter()
                .zip(&other.relations)
                .all(|(a, b)| a.len() == b.len() && a.iter().all(|t| b.contains(t)))
    }

    /// A copy of `self` with the extra tuples inserted (convenience for the
    /// `D' = D ∪ {...}` constructions in determinacy proofs and tests).
    pub fn with_tuples(
        &self,
        extra: impl IntoIterator<Item = (RelId, Tuple)>,
    ) -> Result<Instance, CatalogError> {
        let mut out = self.clone();
        for (rel, t) in extra {
            out.insert(rel, t)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tuple;

    fn schema_rs() -> Arc<Schema> {
        let mut s = Schema::new();
        s.add_relation(RelationSchema::new("R", ["X"]).unwrap())
            .unwrap();
        s.add_relation(RelationSchema::new("S", ["X", "Y"]).unwrap())
            .unwrap();
        Arc::new(s)
    }

    #[test]
    fn insert_and_lookup() {
        let schema = schema_rs();
        let s_id = schema.rel_id("S").unwrap();
        let mut d = Instance::empty(schema);
        assert!(d.insert(s_id, tuple!["a1", "b1"]).unwrap());
        assert!(!d.insert(s_id, tuple!["a1", "b1"]).unwrap());
        assert!(d.insert(s_id, tuple!["a1", "b2"]).unwrap());
        let rel = d.relation(s_id);
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(&tuple!["a1", "b2"]));
        assert_eq!(rel.select(AttrId(0), &Value::text("a1")).count(), 2);
        assert_eq!(rel.select(AttrId(1), &Value::text("b2")).count(), 1);
        assert_eq!(rel.select_count(AttrId(1), &Value::text("zzz")), 0);
    }

    #[test]
    fn arity_checked() {
        let schema = schema_rs();
        let r_id = schema.rel_id("R").unwrap();
        let mut d = Instance::empty(schema);
        assert!(d.insert(r_id, tuple!["a", "b"]).is_err());
    }

    #[test]
    fn subset_and_equality() {
        let schema = schema_rs();
        let r_id = schema.rel_id("R").unwrap();
        let mut d1 = Instance::empty(schema.clone());
        d1.insert(r_id, tuple!["a"]).unwrap();
        let d2 = d1.with_tuples([(r_id, tuple!["b"])]).unwrap();
        assert!(d1.is_subset_of(&d2));
        assert!(!d2.is_subset_of(&d1));
        assert!(d1.same_extension(&d1.clone()));
        assert!(!d1.same_extension(&d2));
        assert_eq!(d2.total_tuples(), 2);
    }

    #[test]
    fn active_values() {
        let schema = schema_rs();
        let s_id = schema.rel_id("S").unwrap();
        let mut d = Instance::empty(schema);
        d.insert_all(s_id, [tuple!["a", "b"], tuple!["a", "c"]])
            .unwrap();
        let mut vals: Vec<String> = d
            .relation(s_id)
            .active_values(AttrId(0))
            .map(|v| v.to_string())
            .collect();
        vals.sort();
        assert_eq!(vals, ["a"]);
        assert_eq!(d.relation(s_id).active_values(AttrId(1)).count(), 2);
    }

    fn sorted_values(rel: &Relation, attr: AttrId) -> Vec<String> {
        let mut vals: Vec<String> = rel.active_values(attr).map(|v| v.to_string()).collect();
        vals.sort();
        vals
    }

    #[test]
    fn writes_to_a_clone_leave_the_original_unchanged() {
        let schema = schema_rs();
        let (r_id, s_id) = (schema.rel_id("R").unwrap(), schema.rel_id("S").unwrap());
        let mut d = Instance::empty(schema);
        d.insert(r_id, tuple!["a"]).unwrap();
        d.insert_all(s_id, [tuple!["a", "b"], tuple!["a", "c"]])
            .unwrap();
        let mut e = d.clone();
        assert!(Arc::ptr_eq(&d.relations[1], &e.relations[1]));
        assert!(e.insert(s_id, tuple!["z", "b"]).unwrap());
        assert!(!e.insert(r_id, tuple!["a"]).unwrap());
        // Only the written relation was copied; the duplicate insert into
        // R copied nothing.
        assert!(!Arc::ptr_eq(&d.relations[1], &e.relations[1]));
        assert!(Arc::ptr_eq(&d.relations[0], &e.relations[0]));

        let s = d.relation(s_id);
        assert_eq!(s.len(), 2);
        assert!(!s.contains(&tuple!["z", "b"]));
        assert_eq!(s.select(AttrId(1), &Value::text("b")).count(), 1);
        assert_eq!(s.select_count(AttrId(0), &Value::text("z")), 0);
        assert_eq!(sorted_values(s, AttrId(0)), ["a"]);
        assert_eq!(d.total_tuples(), 3);

        let s2 = e.relation(s_id);
        assert_eq!(s2.len(), 3);
        assert_eq!(s2.select(AttrId(1), &Value::text("b")).count(), 2);
        assert_eq!(sorted_values(s2, AttrId(0)), ["a", "z"]);
        assert_eq!(e.total_tuples(), 4);
        assert!(d.is_subset_of(&e));
    }

    #[test]
    fn retain_keeps_order_and_rebuilds_indexes() {
        let schema = schema_rs();
        let (r_id, s_id) = (schema.rel_id("R").unwrap(), schema.rel_id("S").unwrap());
        let mut d = Instance::empty(schema);
        d.insert(r_id, tuple!["a"]).unwrap();
        d.insert_all(
            s_id,
            [
                tuple!["a", "b"],
                tuple!["x", "c"],
                tuple!["a", "c"],
                tuple!["y", "b"],
            ],
        )
        .unwrap();
        let original = d.clone();
        d.retain(s_id, |t| t.get(0) != &Value::text("x"));
        let kept: Vec<&Tuple> = d.relation(s_id).iter().collect();
        assert_eq!(
            kept,
            [&tuple!["a", "b"], &tuple!["a", "c"], &tuple!["y", "b"]]
        );
        let s = d.relation(s_id);
        assert_eq!(
            s.select(AttrId(1), &Value::text("c")).collect::<Vec<_>>(),
            [&tuple!["a", "c"]]
        );
        assert_eq!(s.select_count(AttrId(0), &Value::text("x")), 0);
        assert_eq!(sorted_values(s, AttrId(0)), ["a", "y"]);
        // The source instance is untouched, and R is still shared.
        assert_eq!(original.relation(s_id).len(), 4);
        assert!(original.relation(s_id).contains(&tuple!["x", "c"]));
        assert!(Arc::ptr_eq(&d.relations[0], &original.relations[0]));
        // Keeping everything shares the relation instead of copying it.
        let mut same = original.clone();
        same.retain(s_id, |_| true);
        assert!(Arc::ptr_eq(&same.relations[1], &original.relations[1]));
    }

    #[test]
    fn project_onto_dedups_in_order_and_shares_the_rest() {
        let schema = schema_rs();
        let (r_id, s_id) = (schema.rel_id("R").unwrap(), schema.rel_id("S").unwrap());
        let mut d = Instance::empty(schema);
        d.insert(r_id, tuple!["a"]).unwrap();
        d.insert_all(
            s_id,
            [
                tuple!["a", "c"],
                tuple!["b", "d"],
                tuple!["a", "d"],
                tuple!["e", "c"],
            ],
        )
        .unwrap();
        let projected = Arc::new(d.schema().without_position(s_id, 0).unwrap());
        let p = d.project_onto(Arc::clone(&projected), s_id, 0);
        assert!(Arc::ptr_eq(p.schema(), &projected));
        assert_eq!(p.schema().relation(s_id).attrs(), ["Y"]);
        let rows: Vec<&Tuple> = p.relation(s_id).iter().collect();
        assert_eq!(rows, [&tuple!["c"], &tuple!["d"]]);
        assert_eq!(
            p.relation(s_id).select_count(AttrId(0), &Value::text("d")),
            1
        );
        assert!(Arc::ptr_eq(&p.relations[0], &d.relations[0]));
        assert_eq!(d.relation(s_id).len(), 4);
        // Writes to the projection stay out of the source.
        let mut p = p;
        p.insert(r_id, tuple!["q"]).unwrap();
        assert_eq!(d.relation(r_id).len(), 1);
    }
}
