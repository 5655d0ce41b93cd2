//! The [`Catalog`]: a schema together with one declared [`Column`] per
//! attribute position. This is exactly the "public knowledge" of the paper's
//! pricing setting: buyers and sellers both know the schema and all columns;
//! only the instance is the seller's private, priced asset.

use crate::column::Column;
use crate::error::CatalogError;
use crate::instance::Instance;
use crate::schema::{AttrId, AttrRef, RelId, Schema};
use crate::value::Value;
use std::sync::Arc;

/// A catalog and an instance that satisfies its inclusion constraints
/// `R.X ⊆ Col_{R.X}` (paper §3). Only [`Catalog::check`], which checks
/// every tuple, and the `.qdp` reader ([`crate::QdpFile::read`]), which
/// resolves every tuple value through its column as it reads, make one;
/// so holding one proves the check, and its consumer need not repeat it.
#[derive(Debug)]
pub struct CheckedInstance {
    catalog: Catalog,
    instance: Instance,
}

impl CheckedInstance {
    /// Wrap a catalog and an instance the caller has checked as it built
    /// them. Crate-private: the proof is only as good as its makers.
    pub(crate) fn new(catalog: Catalog, instance: Instance) -> Self {
        CheckedInstance { catalog, instance }
    }

    /// The catalog and the instance, unwrapped.
    pub fn into_parts(self) -> (Catalog, Instance) {
        (self.catalog, self.instance)
    }
}

/// Schema + columns. Immutable after construction (columns "always remain
/// fixed when the database is updated", paper §3). Each relation's columns
/// sit behind an [`Arc`], so a clone copies one pointer per relation and a
/// derived catalog rebuilds only the relation it changes.
#[derive(Clone, Debug)]
pub struct Catalog {
    schema: Arc<Schema>,
    /// `columns[rel][attr]` is `Col_{R.X}`.
    columns: Vec<Arc<[Column]>>,
}

impl Catalog {
    /// Assemble a catalog; `columns[r][a]` must cover every relation/attr.
    /// Prefer [`crate::CatalogBuilder`] for ergonomic construction.
    pub fn new(schema: Arc<Schema>, columns: Vec<Vec<Column>>) -> Result<Self, CatalogError> {
        for (rid, rel) in schema.iter() {
            let cols = columns
                .get(rid.0 as usize)
                .ok_or_else(|| CatalogError::MissingColumn(rel.name().to_string()))?;
            if cols.len() != rel.arity() {
                return Err(CatalogError::MissingColumn(format!(
                    "{} (declared {} of {} columns)",
                    rel.name(),
                    cols.len(),
                    rel.arity()
                )));
            }
        }
        let columns = columns.into_iter().map(Arc::from).collect();
        Ok(Catalog { schema, columns })
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The column of an attribute position.
    pub fn column(&self, a: AttrRef) -> &Column {
        &self.columns[a.rel.0 as usize][a.attr.0 as usize]
    }

    /// All columns of one relation, in attribute order.
    pub fn relation_columns(&self, rel: RelId) -> &[Column] {
        &self.columns[rel.0 as usize]
    }

    /// This catalog with the column of `attr` replaced by `column`; every
    /// other column is shared.
    pub fn with_column(&self, attr: AttrRef, column: Column) -> Catalog {
        let mut columns = self.columns.clone();
        let mut rel_columns = columns[attr.rel.0 as usize].to_vec();
        rel_columns[attr.attr.0 as usize] = column;
        columns[attr.rel.0 as usize] = rel_columns.into();
        Catalog {
            schema: self.schema.clone(),
            columns,
        }
    }

    /// This catalog and `instance` (an instance over it) with attribute
    /// `pos` of `rel` projected away, over one shared schema. Every
    /// relation keeps its id, `rel`'s later attributes move down one
    /// position, and every column is shared; `rel` keeps the first
    /// occurrence of each projected tuple in insertion order, and every
    /// other relation is shared.
    pub fn project_out(
        &self,
        instance: &Instance,
        rel: RelId,
        pos: usize,
    ) -> Result<(Catalog, Instance), CatalogError> {
        let schema = Arc::new(self.schema.without_position(rel, pos)?);
        let mut columns = self.columns.clone();
        let mut rel_columns = columns[rel.0 as usize].to_vec();
        if pos < rel_columns.len() {
            rel_columns.remove(pos);
        }
        columns[rel.0 as usize] = rel_columns.into();
        let projected = instance.project_onto(Arc::clone(&schema), rel, pos);
        Ok((Catalog { schema, columns }, projected))
    }

    /// An empty instance over this catalog's schema.
    pub fn empty_instance(&self) -> Instance {
        Instance::empty(self.schema.clone())
    }

    /// Verify the inclusion constraint `R.X ⊆ Col_{R.X}` for every tuple of
    /// every relation. Returns the first violation found.
    pub fn check_instance(&self, d: &Instance) -> Result<(), CatalogError> {
        for (rid, _) in self.schema.iter() {
            for t in d.relation(rid).iter() {
                self.check_tuple(rid, t)?;
            }
        }
        Ok(())
    }

    /// [`Catalog::check_instance`], keeping the proof: the catalog and
    /// the instance, checked.
    pub fn check(self, instance: Instance) -> Result<CheckedInstance, CatalogError> {
        self.check_instance(&instance)?;
        Ok(CheckedInstance {
            catalog: self,
            instance,
        })
    }

    /// Verify that every column value can be written as `.qdp` text that
    /// reads back as the same value ([`crate::qdp`]'s grammar leaves two
    /// kinds of text without such a literal). Returns the first text that
    /// cannot.
    pub fn check_literals(&self) -> Result<(), CatalogError> {
        for attr in self.schema.all_attrs() {
            if let Some(v) = self
                .column(attr)
                .iter()
                .find(|v| !crate::qdp::reads_back(v))
            {
                return Err(CatalogError::UnwritableText {
                    attr: self.schema.show_attr(attr).to_string(),
                    value: format!("{:?}", v.to_string()),
                });
            }
        }
        Ok(())
    }

    /// Verify one tuple of `rel`: its arity matches the schema and each
    /// value lies in its attribute's column.
    pub fn check_tuple(&self, rel: RelId, t: &[Value]) -> Result<(), CatalogError> {
        let rs = self.schema.relation(rel);
        if t.len() != rs.arity() {
            return Err(CatalogError::ArityMismatch {
                relation: rs.name().to_string(),
                expected: rs.arity(),
                got: t.len(),
            });
        }
        for (pos, v) in t.iter().enumerate() {
            let attr = AttrId(pos as u32);
            if !self.column(AttrRef { rel, attr }).contains(v) {
                return Err(CatalogError::ValueOutsideColumn {
                    attr: format!("{}.{}", rs.name(), rs.attr_name(attr)),
                    value: v.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Number of tuples in the full column-product of a relation — the size
    /// of the "maximal possible world" for that relation, used by the
    /// determinacy oracle's complexity accounting.
    pub fn product_size(&self, rel: RelId) -> usize {
        self.columns[rel.0 as usize]
            .iter()
            .map(Column::len)
            .try_fold(1usize, usize::checked_mul)
            .unwrap_or(usize::MAX)
    }

    /// Enumerate the full column-product of a relation: every tuple over the
    /// declared columns. The closure receives each candidate tuple as a value
    /// slice; return `false` from it to stop early.
    pub fn for_each_product_tuple(&self, rel: RelId, mut f: impl FnMut(&[Value]) -> bool) -> bool {
        let cols = &self.columns[rel.0 as usize];
        if cols.iter().any(Column::is_empty) {
            return true;
        }
        let arity = cols.len();
        let mut idx = vec![0u32; arity];
        let mut buf: Vec<Value> = cols.iter().map(|c| c.value_at(0).clone()).collect();
        loop {
            if !f(&buf) {
                return false;
            }
            // Odometer increment.
            let mut pos = arity;
            loop {
                if pos == 0 {
                    return true;
                }
                pos -= 1;
                idx[pos] += 1;
                if (idx[pos] as usize) < cols[pos].len() {
                    buf[pos] = cols[pos].value_at(idx[pos]).clone();
                    break;
                }
                idx[pos] = 0;
                buf[pos] = cols[pos].value_at(0).clone();
            }
        }
    }

    /// Total number of selection views in `Σ` (one per attribute per column
    /// value) — the size of the seller's maximal price list.
    pub fn sigma_size(&self) -> usize {
        self.schema
            .all_attrs()
            .iter()
            .map(|&a| self.column(a).len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CatalogBuilder;
    use crate::tuple;

    fn small_catalog() -> Catalog {
        CatalogBuilder::new()
            .relation("R", &[("X", Column::int_range(0, 2))])
            .relation(
                "S",
                &[
                    ("X", Column::int_range(0, 2)),
                    ("Y", Column::int_range(0, 3)),
                ],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn column_lookup() {
        let c = small_catalog();
        let s = c.schema().rel_id("S").unwrap();
        assert_eq!(c.column(AttrRef::new(s, 1)).len(), 3);
        assert_eq!(c.relation_columns(s).len(), 2);
        assert_eq!(c.sigma_size(), 2 + 2 + 3);
    }

    #[test]
    fn inclusion_constraint() {
        let c = small_catalog();
        let s = c.schema().rel_id("S").unwrap();
        let mut d = c.empty_instance();
        d.insert(s, tuple![1, 2]).unwrap();
        assert!(c.check_instance(&d).is_ok());
        d.insert(s, tuple![1, 99]).unwrap();
        let err = c.check_instance(&d).unwrap_err();
        assert!(err.to_string().contains("S.Y"));
        assert_eq!(c.check_tuple(s, tuple![1, 99].values()), Err(err));
        assert!(c.check_tuple(s, tuple![0, 2].values()).is_ok());
        assert!(matches!(
            c.check_tuple(s, tuple![1].values()),
            Err(CatalogError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn column_rewrites_share_the_rest() {
        let c = small_catalog();
        let r = c.schema().rel_id("R").unwrap();
        let s = c.schema().rel_id("S").unwrap();
        let sy = AttrRef::new(s, 1);
        let shrunk = c.with_column(sy, Column::int_range(0, 1));
        assert_eq!(shrunk.column(sy).len(), 1);
        assert_eq!(c.column(sy).len(), 3);
        assert!(Arc::ptr_eq(shrunk.schema(), c.schema()));
        assert_eq!(
            shrunk.column(AttrRef::new(r, 0)),
            c.column(AttrRef::new(r, 0))
        );

        let mut d = c.empty_instance();
        d.insert_all(s, [tuple![0, 1], tuple![1, 1], tuple![0, 2]])
            .unwrap();
        let (dropped, projected) = c.project_out(&d, s, 0).unwrap();
        assert_eq!(dropped.schema().relation(s).attrs(), &["Y"]);
        assert_eq!(dropped.column(AttrRef::new(s, 0)).len(), 3);
        assert_eq!(dropped.sigma_size(), 2 + 3);
        // The projected catalog and instance share one schema.
        assert!(Arc::ptr_eq(dropped.schema(), projected.schema()));
        assert_eq!(projected.relation(s).len(), 2);
        assert!(projected.relation(s).contains(tuple![2].values()));
        // A relation cannot lose its only attribute.
        assert!(c.project_out(&d, r, 0).is_err());
    }

    #[test]
    fn product_enumeration() {
        let c = small_catalog();
        let s = c.schema().rel_id("S").unwrap();
        assert_eq!(c.product_size(s), 6);
        let mut seen = Vec::new();
        c.for_each_product_tuple(s, |vals| {
            seen.push(crate::Tuple::new(vals.to_vec()));
            true
        });
        assert_eq!(seen.len(), 6);
        assert!(seen.contains(&tuple![1, 2]));
        // Early stop.
        let mut count = 0;
        let completed = c.for_each_product_tuple(s, |_| {
            count += 1;
            count < 3
        });
        assert!(!completed);
        assert_eq!(count, 3);
    }
}
