//! Finite columns `Col_{R.X}`: the publicly known, finite sets of values a
//! selection view may select on (paper §3, "The Views").
//!
//! A column is *not* a domain (domains may be infinite) and *not* the active
//! domain (the database need not contain every column value). Columns are
//! part of the input in data complexity and stay fixed under updates.

use crate::fxhash::FxHashMap;
use crate::value::{Literal, LiteralKey, Value};
use std::fmt;
use std::sync::Arc;

/// A finite, deduplicated, deterministically ordered set of values.
///
/// Columns are cheap to clone (`Arc` internals) because many attributes share
/// a column — e.g. in a chain query the join variable's column is the
/// intersection of two attribute columns.
#[derive(Clone, PartialEq, Eq)]
pub struct Column {
    values: Arc<ColumnInner>,
}

#[derive(PartialEq, Eq)]
struct ColumnInner {
    /// Sorted, deduplicated values.
    ordered: Vec<Value>,
    /// Value → dense index within `ordered`.
    index: FxHashMap<Value, u32>,
}

impl Column {
    /// Build a column from any collection of values; duplicates are removed
    /// and the result is sorted, so construction order does not matter.
    pub fn new(values: impl IntoIterator<Item = Value>) -> Self {
        let mut ordered: Vec<Value> = values.into_iter().collect();
        ordered.sort();
        ordered.dedup();
        Column::from_sorted(ordered)
    }

    /// A column of values already sorted and deduplicated.
    fn from_sorted(ordered: Vec<Value>) -> Self {
        debug_assert!(ordered.windows(2).all(|w| w[0] < w[1]));
        let index = ordered
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i as u32))
            .collect();
        Column {
            values: Arc::new(ColumnInner { ordered, index }),
        }
    }

    /// Convenience: the integer column `{lo, lo+1, ..., hi-1}`.
    pub fn int_range(lo: i64, hi: i64) -> Self {
        Column::new((lo..hi).map(Value::Int))
    }

    /// Convenience: a column of text values.
    pub fn texts<'a>(values: impl IntoIterator<Item = &'a str>) -> Self {
        Column::new(values.into_iter().map(Value::from))
    }

    /// Whether `self` and `other` are the same column object (clones of
    /// one another), not merely equal.
    pub fn ptr_eq(&self, other: &Column) -> bool {
        Arc::ptr_eq(&self.values, &other.values)
    }

    /// Number of values in the column.
    pub fn len(&self) -> usize {
        self.values.ordered.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.values.ordered.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, v: &Value) -> bool {
        self.values.index.contains_key(v)
    }

    /// Dense index of a value, if present (stable across clones).
    pub fn index_of(&self, v: &Value) -> Option<u32> {
        self.values.index.get(v).copied()
    }

    /// The column's own value named by `literal`, if the column holds
    /// it: one index lookup and no allocation, so a clone of the result
    /// shares the column's text.
    pub(crate) fn resolve(&self, literal: Literal<'_>) -> Option<&Value> {
        let key: &dyn LiteralKey = &literal;
        self.values.index.get(key).map(|&i| self.value_at(i))
    }

    /// Value at a dense index.
    pub fn value_at(&self, i: u32) -> &Value {
        &self.values.ordered[i as usize]
    }

    /// Iterate values in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.values.ordered.iter()
    }

    /// The sorted value slice.
    pub fn as_slice(&self) -> &[Value] {
        &self.values.ordered
    }

    /// Set intersection of two columns (used for join-variable columns
    /// `Col_{x_i} = Col_{R_{i-1}.Y} ∩ Col_{R_i.X}`, paper Step 4).
    pub fn intersect(&self, other: &Column) -> Column {
        if Arc::ptr_eq(&self.values, &other.values) {
            return self.clone();
        }
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        Column::from_sorted(
            small
                .iter()
                .filter(|v| large.contains(v))
                .cloned()
                .collect(),
        )
    }

    /// Keep only values satisfying a predicate (Step 1 of the GChQ
    /// algorithm shrinks columns by interpreted predicates).
    pub fn filter(&self, mut keep: impl FnMut(&Value) -> bool) -> Column {
        Column::from_sorted(self.iter().filter(|v| keep(v)).cloned().collect())
    }
}

impl fmt::Debug for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Value> for Column {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Column::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_order() {
        let c = Column::new([Value::Int(3), Value::Int(1), Value::Int(3), Value::Int(2)]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.as_slice(), &[Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(c.index_of(&Value::Int(2)), Some(1));
        assert_eq!(c.value_at(2), &Value::Int(3));
    }

    #[test]
    fn construction_order_irrelevant() {
        let a = Column::texts(["b", "a", "c"]);
        let b = Column::texts(["c", "b", "a", "a"]);
        assert_eq!(a, b);
    }

    #[test]
    fn int_range() {
        let c = Column::int_range(0, 4);
        assert_eq!(c.len(), 4);
        assert!(c.contains(&Value::Int(0)));
        assert!(!c.contains(&Value::Int(4)));
    }

    #[test]
    fn intersect() {
        let a = Column::int_range(0, 10);
        let b = Column::int_range(5, 15);
        let i = a.intersect(&b);
        assert_eq!(i, Column::int_range(5, 10));
        // Self-intersection short-circuits via pointer equality.
        assert_eq!(a.intersect(&a.clone()), a);
    }

    #[test]
    fn filter() {
        let c = Column::int_range(0, 10).filter(|v| v.as_int().unwrap() % 2 == 0);
        assert_eq!(c.len(), 5);
        assert!(c.contains(&Value::Int(8)));
        assert!(!c.contains(&Value::Int(7)));
    }

    #[test]
    fn literals_resolve_to_the_column_own_values() {
        let c = Column::new([Value::text("two words"), Value::Int(-5), Value::text("a1")]);
        let v = c.resolve(Literal::Text("two words")).unwrap();
        assert_eq!(v, &Value::text("two words"));
        assert!(std::ptr::eq(
            v.as_text().unwrap(),
            c.value_at(c.index_of(v).unwrap()).as_text().unwrap()
        ));
        assert_eq!(c.resolve(Literal::Int(-5)), Some(&Value::Int(-5)));
        assert_eq!(c.resolve(Literal::Text("-5")), None);
        assert_eq!(c.resolve(Literal::Text("a2")), None);
        assert_eq!(Column::new([]).resolve(Literal::Int(0)), None);
    }

    #[test]
    fn empty() {
        let c = Column::new([]);
        assert!(c.is_empty());
        assert_eq!(c.index_of(&Value::Int(0)), None);
    }
}
