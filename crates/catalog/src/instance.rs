//! Database instances `D = (R_1^D, ..., R_k^D)` with per-attribute indexes.
//!
//! The paper's dynamic setting (§2.7) considers only insertions, so
//! [`Relation`] and [`Instance`] are insert-only; this keeps the indexes
//! append-only and makes the `D_1 ⊆ D_2` monotonicity experiments exact.
//!
//! A relation stores each row once, in a row arena: one flat `Vec<Value>`
//! with the relation's arity as stride. A hash table of row ids
//! deduplicates it, and each attribute's index (value → row ids) is built
//! on the first [`Relation::select`], [`Relation::select_count`] or
//! [`Relation::active_values`] that needs it, then kept up to date by later
//! inserts. So a base relation builds each index once and every quote that
//! shares it reads the same index, while a derived relation that is only
//! iterated never builds one.
//!
//! Relations are copy-on-write: an [`Instance`] holds each one behind an
//! [`Arc`], so cloning an instance costs one reference count per relation,
//! and a write copies only the relation it touches, and only while another
//! instance still shares it. The normalization steps of the pricing
//! pipeline derive their instances with [`Instance::retain_in`] and
//! [`crate::Catalog::project_out`], which rebuild the one relation they
//! change, copying each row they keep once, and share the rest.
//! [`Instance::retain_in`] reads only the rows its narrowest attribute's
//! index selects.

use crate::column::Column;
use crate::error::CatalogError;
use crate::fxhash::{FxHashMap, FxHasher};
use crate::schema::{AttrId, RelId, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// One attribute's index: value → ids of the rows holding it, ascending.
type AttrIndex = FxHashMap<Value, Vec<u32>>;

/// An empty slot of a relation's row table.
const EMPTY: u32 = u32::MAX;

/// The extension of a single relation: a set of rows in insertion order,
/// stored once in a flat arena, plus one lazily built hash index per
/// attribute position (value → row ids).
#[derive(Clone, Debug)]
pub struct Relation {
    arity: usize,
    /// Row `i` is `values[i * arity..(i + 1) * arity]`.
    values: Vec<Value>,
    /// Open-addressed set of row ids keyed by row content: linear probing,
    /// a power-of-two length (or none), and at most half full.
    slots: Vec<u32>,
    /// Per-attribute indexes, each built on first use.
    index: Box<[OnceLock<AttrIndex>]>,
}

fn hash_row(row: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    for v in row {
        v.hash(&mut h);
    }
    h.finish()
}

impl Relation {
    fn with_capacity(arity: usize, rows: usize) -> Self {
        let mut r = Relation {
            arity,
            values: Vec::with_capacity(rows * arity),
            slots: Vec::new(),
            index: (0..arity).map(|_| OnceLock::new()).collect(),
        };
        if rows > 0 {
            r.rehash(rows);
        }
        r
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.values.len().checked_div(self.arity).unwrap_or(0)
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, row: &[Value]) -> bool {
        !self.slots.is_empty() && self.probe(row).1
    }

    /// Iterate over the rows in insertion order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, Value> {
        self.values.chunks_exact(self.arity.max(1))
    }

    fn row(&self, id: u32) -> &[Value] {
        let start = id as usize * self.arity;
        &self.values[start..start + self.arity]
    }

    /// Rows whose attribute `attr` equals `v` — the extension of the
    /// selection view `σ_{R.attr=v}(D)`.
    pub fn select(&self, attr: AttrId, v: &Value) -> impl Iterator<Item = &[Value]> {
        self.index(attr)
            .get(v)
            .into_iter()
            .flatten()
            .map(move |&id| self.row(id))
    }

    /// Number of rows with `attr = v`, without materializing them.
    pub fn select_count(&self, attr: AttrId, v: &Value) -> usize {
        self.index(attr).get(v).map_or(0, Vec::len)
    }

    /// Distinct values appearing in attribute `attr` (the active domain of
    /// that position).
    pub fn active_values(&self, attr: AttrId) -> impl Iterator<Item = &Value> {
        self.index(attr).keys()
    }

    /// The index of `attr`, built on first use.
    fn index(&self, attr: AttrId) -> &AttrIndex {
        let pos = attr.0 as usize;
        self.index[pos].get_or_init(|| {
            let mut ix = AttrIndex::default();
            for (id, row) in self.iter().enumerate() {
                ix.entry(row[pos].clone()).or_default().push(id as u32);
            }
            ix
        })
    }

    /// The slot of `row` in the row table — holding it, or the empty slot
    /// where it belongs — and whether it was found. The table must have a
    /// slot.
    fn probe(&self, row: &[Value]) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut i = (hash_row(row) >> shift) as usize;
        loop {
            match self.slots[i] {
                EMPTY => return (i, false),
                id if self.row(id) == row => return (i, true),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Resize the row table to hold `rows` rows at most half full, and
    /// re-enter the rows already stored.
    fn rehash(&mut self, rows: usize) {
        self.slots = vec![EMPTY; (rows * 2).next_power_of_two().max(8)];
        for id in 0..self.len() as u32 {
            let (slot, _) = self.probe(self.row(id));
            self.slots[slot] = id;
        }
    }

    /// Append `row` (exactly `arity` values) unless the relation already
    /// holds it; returns whether it was new. The row goes straight into
    /// the arena and is taken back out if it turns out to be a duplicate,
    /// so no value is copied twice.
    fn insert(&mut self, row: impl IntoIterator<Item = Value>) -> bool {
        let id = self.len();
        if (id + 1) * 2 > self.slots.len() {
            self.rehash(id + 1);
        }
        let start = self.values.len();
        self.values.extend(row);
        debug_assert_eq!(self.values.len() - start, self.arity);
        let (slot, found) = self.probe(&self.values[start..]);
        if found {
            self.values.truncate(start);
            return false;
        }
        self.slots[slot] = id as u32;
        for (pos, ix) in self.index.iter_mut().enumerate() {
            if let Some(ix) = ix.get_mut() {
                let v = self.values[start + pos].clone();
                ix.entry(v).or_default().push(id as u32);
            }
        }
        true
    }

    /// The posting lists of `attr`'s rows whose value lies in `column`,
    /// enumerating whichever is smaller: the column, or the attribute's
    /// active values.
    fn postings<'a>(&'a self, attr: AttrId, column: &'a Column) -> Vec<&'a [u32]> {
        let ix = self.index(attr);
        if column.len() <= ix.len() {
            column
                .iter()
                .filter_map(|v| ix.get(v).map(Vec::as_slice))
                .collect()
        } else {
            ix.iter()
                .filter(|(v, _)| column.contains(v))
                .map(|(_, ids)| ids.as_slice())
                .collect()
        }
    }

    /// The rows whose value at each listed attribute lies in the paired
    /// column, in insertion order, or `None` when that is every row. The
    /// candidates are the rows the narrowest attribute's index selects —
    /// never more than a scan would read — and each is then checked
    /// against the other attributes' columns.
    fn filtered(&self, shrunk: &[(AttrId, &Column)]) -> Option<Relation> {
        let mut best: Option<(usize, usize, Vec<&[u32]>)> = None;
        for (i, &(attr, column)) in shrunk.iter().enumerate() {
            let lists = self.postings(attr, column);
            let rows = lists.iter().map(|l| l.len()).sum();
            if best.as_ref().is_none_or(|&(_, fewest, _)| rows < fewest) {
                best = Some((i, rows, lists));
            }
        }
        let (narrowest, rows, lists) = best?;
        let mut ids: Vec<u32> = Vec::with_capacity(rows);
        for list in &lists {
            ids.extend_from_slice(list);
        }
        if lists.len() > 1 {
            ids.sort_unstable();
        }
        ids.retain(|&id| {
            let row = self.row(id);
            shrunk
                .iter()
                .enumerate()
                .all(|(i, (attr, column))| i == narrowest || column.contains(&row[attr.0 as usize]))
        });
        self.subset(ids)
    }

    /// The rows `ids` (ascending) as a fresh relation, each copied once,
    /// or `None` when that is every row.
    fn subset(&self, ids: Vec<u32>) -> Option<Relation> {
        if ids.len() == self.len() {
            return None;
        }
        let mut kept = Relation::with_capacity(self.arity, ids.len());
        for id in ids {
            kept.insert(self.row(id).iter().cloned());
        }
        Some(kept)
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
            .map(|(_, r)| Arc::new(Relation::with_capacity(r.arity(), 0)))
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
        // Collecting a `vec::IntoIter` reuses its buffer: no allocation.
        let mut row: Vec<Value> = t.into_values().collect();
        self.insert_row(rel, &mut row)
    }

    /// [`Instance::insert`] of the row `row` holds, moving its values out:
    /// `row` is left empty with its capacity, so a caller that fills one
    /// buffer per row allocates nothing per row.
    pub(crate) fn insert_row(
        &mut self,
        rel: RelId,
        row: &mut Vec<Value>,
    ) -> Result<bool, CatalogError> {
        self.check_arity(rel, row.len())?;
        let r = &mut self.relations[rel.0 as usize];
        // A duplicate must not copy a shared relation.
        if Arc::get_mut(r).is_none() && r.contains(row) {
            row.clear();
            return Ok(false);
        }
        Ok(Arc::make_mut(r).insert(row.drain(..)))
    }

    /// Make room for `rows` more rows of `rel`, so that inserting them
    /// grows neither its row arena nor its row table.
    pub(crate) fn reserve(&mut self, rel: RelId, rows: usize) {
        let r = Arc::make_mut(&mut self.relations[rel.0 as usize]);
        let total = r.len() + rows;
        r.values.reserve(rows * r.arity);
        if total * 2 > r.slots.len() {
            r.rehash(total);
        }
    }

    fn check_arity(&self, rel: RelId, got: usize) -> Result<(), CatalogError> {
        let rs = self.schema.relation(rel);
        if got != rs.arity() {
            return Err(CatalogError::ArityMismatch {
                relation: rs.name().to_string(),
                expected: rs.arity(),
                got,
            });
        }
        Ok(())
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

    /// Keep only the rows of `rel` that satisfy `keep`, read by a scan.
    /// The survivors keep their insertion order; when every row survives,
    /// the relation stays shared.
    pub fn retain(&mut self, rel: RelId, mut keep: impl FnMut(&[Value]) -> bool) {
        let old = &self.relations[rel.0 as usize];
        let ids = (0..old.len() as u32)
            .filter(|&id| keep(old.row(id)))
            .collect();
        if let Some(kept) = old.subset(ids) {
            self.relations[rel.0 as usize] = Arc::new(kept);
        }
    }

    /// Keep only the rows of `rel` whose value at each listed attribute
    /// lies in the paired column (Step 1's filter by shrunk columns). The
    /// survivors keep their insertion order and are copied once into a
    /// fresh relation whose indexes are built only if someone asks; when
    /// every row survives, the relation stays shared. Only the rows the
    /// narrowest attribute's index selects are read.
    pub fn retain_in(&mut self, rel: RelId, shrunk: &[(AttrId, &Column)]) {
        if let Some(kept) = self.relations[rel.0 as usize].filtered(shrunk) {
            self.relations[rel.0 as usize] = Arc::new(kept);
        }
    }

    /// This instance with position `pos` of `rel` projected away, over
    /// `schema`: this instance's schema without that attribute, built once
    /// by [`crate::Catalog::project_out`] and shared with the projected
    /// catalog. `rel` keeps the first occurrence of each projected tuple in
    /// insertion order, and every other relation is shared.
    pub(crate) fn project_onto(&self, schema: Arc<Schema>, rel: RelId, pos: usize) -> Instance {
        let source = self.relation(rel);
        let mut projected = Relation::with_capacity(schema.relation(rel).arity(), source.len());
        for row in source.iter() {
            let kept = row.iter().enumerate().filter(|&(j, _)| j != pos);
            projected.insert(kept.map(|(_, v)| v.clone()));
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
        assert!(rel.contains(tuple!["a1", "b2"].values()));
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
        let mut row = vec![Value::text("a"), Value::text("b")];
        assert!(d.insert_row(r_id, &mut row).is_err());
    }

    #[test]
    fn rows_insert_from_a_reused_buffer() {
        let schema = schema_rs();
        let s_id = schema.rel_id("S").unwrap();
        let mut d = Instance::empty(schema);
        d.reserve(s_id, 3);
        let slots = d.relation(s_id).slots.len();
        let mut row = Vec::with_capacity(2);
        for (x, y) in [("a", "b"), ("a", "c"), ("a", "b"), ("x", "c")] {
            row.extend([Value::text(x), Value::text(y)]);
            d.insert_row(s_id, &mut row).unwrap();
            assert!(row.is_empty() && row.capacity() >= 2);
        }
        // Three distinct rows fit the reserved table without a rehash.
        assert_eq!(d.relation(s_id).slots.len(), slots);
        assert_eq!(
            rows(d.relation(s_id)),
            [tuple!["a", "b"], tuple!["a", "c"], tuple!["x", "c"]]
        );
        // A duplicate leaves a shared relation shared.
        let shared = d.clone();
        row.extend([Value::text("a"), Value::text("c")]);
        assert!(!d.insert_row(s_id, &mut row).unwrap());
        assert!(Arc::ptr_eq(&d.relations[1], &shared.relations[1]));
        assert!(row.is_empty());
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

    /// A relation's rows, in insertion order.
    fn rows(rel: &Relation) -> Vec<Tuple> {
        rel.iter().map(|r| Tuple::new(r.to_vec())).collect()
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
        assert!(!s.contains(tuple!["z", "b"].values()));
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
        d.retain(s_id, |t| t[0] != Value::text("x"));
        assert_eq!(
            rows(d.relation(s_id)),
            [tuple!["a", "b"], tuple!["a", "c"], tuple!["y", "b"]]
        );
        let s = d.relation(s_id);
        assert_eq!(
            s.select(AttrId(1), &Value::text("c")).collect::<Vec<_>>(),
            [tuple!["a", "c"].values()]
        );
        assert_eq!(s.select_count(AttrId(0), &Value::text("x")), 0);
        assert_eq!(sorted_values(s, AttrId(0)), ["a", "y"]);
        // The source instance is untouched, and R is still shared.
        assert_eq!(original.relation(s_id).len(), 4);
        assert!(original.relation(s_id).contains(tuple!["x", "c"].values()));
        assert!(Arc::ptr_eq(&d.relations[0], &original.relations[0]));
        // Keeping everything shares the relation instead of copying it.
        let mut same = original.clone();
        same.retain(s_id, |_| true);
        assert!(Arc::ptr_eq(&same.relations[1], &original.relations[1]));
    }

    #[test]
    fn retain_in_keeps_order_and_rebuilds_indexes() {
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
        let not_x = Column::texts(["a", "y", "z"]);
        d.retain_in(s_id, &[(AttrId(0), &not_x)]);
        assert_eq!(
            rows(d.relation(s_id)),
            [tuple!["a", "b"], tuple!["a", "c"], tuple!["y", "b"]]
        );
        let s = d.relation(s_id);
        assert_eq!(
            s.select(AttrId(1), &Value::text("c")).collect::<Vec<_>>(),
            [tuple!["a", "c"].values()]
        );
        assert_eq!(s.select_count(AttrId(0), &Value::text("x")), 0);
        assert_eq!(sorted_values(s, AttrId(0)), ["a", "y"]);
        // The source instance is untouched, and R is still shared.
        assert_eq!(original.relation(s_id).len(), 4);
        assert!(original.relation(s_id).contains(tuple!["x", "c"].values()));
        assert!(Arc::ptr_eq(&d.relations[0], &original.relations[0]));
        // Keeping everything shares the relation instead of copying it.
        let mut same = original.clone();
        let all = Column::texts(["a", "x", "y"]);
        same.retain_in(s_id, &[(AttrId(0), &all)]);
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
        assert_eq!(rows(p.relation(s_id)), [tuple!["c"], tuple!["d"]]);
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
