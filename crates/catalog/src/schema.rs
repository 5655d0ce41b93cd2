//! Relational schemas: relation names, attribute names, and stable ids.

use crate::error::CatalogError;
use crate::fxhash::FxHashMap;
use std::fmt;
use std::sync::Arc;

/// Index of a relation within a [`Schema`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub u32);

/// Index of an attribute within its relation (0-based position).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u32);

/// A fully qualified attribute position `R.X`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrRef {
    /// The relation `R`.
    pub rel: RelId,
    /// The attribute `X` (by position).
    pub attr: AttrId,
}

impl AttrRef {
    /// Construct an attribute reference from raw indices.
    pub fn new(rel: RelId, attr: u32) -> Self {
        AttrRef {
            rel,
            attr: AttrId(attr),
        }
    }
}

impl fmt::Debug for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R#{}", self.0)
    }
}

impl fmt::Debug for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A#{}", self.0)
    }
}

impl fmt::Debug for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R#{}.A#{}", self.rel.0, self.attr.0)
    }
}

/// The schema of one relation: its name and attribute names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationSchema {
    name: String,
    attrs: Vec<String>,
}

impl RelationSchema {
    /// Build a relation schema. Attribute names must be distinct.
    pub fn new(
        name: impl Into<String>,
        attrs: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<Self, CatalogError> {
        let name = name.into();
        let attrs: Vec<String> = attrs.into_iter().map(Into::into).collect();
        if attrs.is_empty() {
            return Err(CatalogError::EmptyRelation(name));
        }
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i].contains(a) {
                return Err(CatalogError::DuplicateAttribute(name, a.clone()));
            }
        }
        Ok(RelationSchema { name, attrs })
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Attribute names, in positional order.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// Attribute name at a position.
    pub fn attr_name(&self, attr: AttrId) -> &str {
        &self.attrs[attr.0 as usize]
    }

    /// Position of a named attribute.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.attrs
            .iter()
            .position(|a| a == name)
            .map(|i| AttrId(i as u32))
    }
}

/// [`Schema::show_attr`]: an attribute reference rendered as `R.X`.
pub struct ShowAttr<'s> {
    schema: &'s Schema,
    a: AttrRef,
}

impl fmt::Display for ShowAttr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rel = self.schema.relation(self.a.rel);
        write!(f, "{}.{}", rel.name(), rel.attr_name(self.a.attr))
    }
}

/// A fixed relational schema `R = (R_1, ..., R_k)`.
///
/// Each relation's schema and the name lookup sit behind an [`Arc`], so a
/// schema with one attribute projected away (by
/// [`crate::Catalog::project_out`]) shares everything but the one relation
/// it changes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schema {
    relations: Vec<Arc<RelationSchema>>,
    by_name: Arc<FxHashMap<String, RelId>>,
}

impl Schema {
    /// The empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Add a relation; returns its id. Fails on duplicate names.
    pub fn add_relation(&mut self, rel: RelationSchema) -> Result<RelId, CatalogError> {
        if self.by_name.contains_key(rel.name()) {
            return Err(CatalogError::DuplicateRelation(rel.name().to_string()));
        }
        let id = RelId(self.relations.len() as u32);
        Arc::make_mut(&mut self.by_name).insert(rel.name().to_string(), id);
        self.relations.push(Arc::new(rel));
        Ok(id)
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the schema has no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Iterate over `(RelId, &RelationSchema)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RelId, &RelationSchema)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, r)| (RelId(i as u32), &**r))
    }

    /// All relation ids.
    pub fn rel_ids(&self) -> impl Iterator<Item = RelId> + 'static {
        (0..self.relations.len() as u32).map(RelId)
    }

    /// The schema of one relation.
    pub fn relation(&self, id: RelId) -> &RelationSchema {
        &self.relations[id.0 as usize]
    }

    /// Look a relation up by name.
    pub fn rel_id(&self, name: &str) -> Option<RelId> {
        self.by_name.get(name).copied()
    }

    /// Resolve `"R.X"`-style dotted notation to an [`AttrRef`].
    pub fn resolve_attr(&self, dotted: &str) -> Result<AttrRef, CatalogError> {
        let (rel_name, attr_name) = dotted
            .split_once('.')
            .ok_or_else(|| CatalogError::BadAttrSyntax(dotted.to_string()))?;
        let rel = self
            .rel_id(rel_name)
            .ok_or_else(|| CatalogError::UnknownRelation(rel_name.to_string()))?;
        let attr = self.relation(rel).attr_id(attr_name).ok_or_else(|| {
            CatalogError::UnknownAttribute(rel_name.to_string(), attr_name.to_string())
        })?;
        Ok(AttrRef { rel, attr })
    }

    /// Render an [`AttrRef`] as `R.X`.
    pub fn attr_display(&self, a: AttrRef) -> String {
        self.show_attr(a).to_string()
    }

    /// An [`AttrRef`] that displays as `R.X`, for writing it into a
    /// larger string without an intermediate one.
    pub fn show_attr(&self, a: AttrRef) -> ShowAttr<'_> {
        ShowAttr { schema: self, a }
    }

    /// This schema with attribute `pos` of `rel` removed; every relation
    /// keeps its id, and `rel`'s later attributes move down one position.
    /// Only `rel`'s schema is rebuilt: every other relation's schema and
    /// the name lookup are shared with `self`.
    pub(crate) fn without_position(&self, rel: RelId, pos: usize) -> Result<Schema, CatalogError> {
        let r = self.relation(rel);
        let attrs = r
            .attrs()
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != pos)
            .map(|(_, a)| a.clone());
        let mut relations = self.relations.clone();
        relations[rel.0 as usize] = Arc::new(RelationSchema::new(r.name(), attrs)?);
        Ok(Schema {
            relations,
            by_name: Arc::clone(&self.by_name),
        })
    }

    /// All attribute positions of all relations, in schema order.
    pub fn all_attrs(&self) -> Vec<AttrRef> {
        let mut out = Vec::new();
        for (rid, rel) in self.iter() {
            for i in 0..rel.arity() {
                out.push(AttrRef::new(rid, i as u32));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_rel_schema() -> Schema {
        let mut s = Schema::new();
        s.add_relation(RelationSchema::new("R", ["X", "Y"]).unwrap())
            .unwrap();
        s.add_relation(RelationSchema::new("S", ["X", "Y", "Z"]).unwrap())
            .unwrap();
        s
    }

    #[test]
    fn relation_schema_validation() {
        assert!(RelationSchema::new("R", Vec::<String>::new()).is_err());
        assert!(RelationSchema::new("R", ["X", "X"]).is_err());
        let r = RelationSchema::new("R", ["X", "Y"]).unwrap();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.attr_id("Y"), Some(AttrId(1)));
        assert_eq!(r.attr_id("Z"), None);
        assert_eq!(r.attr_name(AttrId(0)), "X");
    }

    #[test]
    fn schema_lookup() {
        let s = two_rel_schema();
        assert_eq!(s.len(), 2);
        assert_eq!(s.rel_id("R"), Some(RelId(0)));
        assert_eq!(s.rel_id("S"), Some(RelId(1)));
        assert_eq!(s.rel_id("T"), None);
        assert_eq!(s.relation(RelId(1)).name(), "S");
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut s = two_rel_schema();
        let err = s.add_relation(RelationSchema::new("R", ["A"]).unwrap());
        assert!(err.is_err());
    }

    #[test]
    fn resolve_dotted_attrs() {
        let s = two_rel_schema();
        let a = s.resolve_attr("S.Z").unwrap();
        assert_eq!(a, AttrRef::new(RelId(1), 2));
        assert_eq!(s.attr_display(a), "S.Z");
        assert!(s.resolve_attr("S").is_err());
        assert!(s.resolve_attr("T.X").is_err());
        assert!(s.resolve_attr("S.W").is_err());
    }

    #[test]
    fn all_attrs_enumeration() {
        let s = two_rel_schema();
        assert_eq!(s.all_attrs().len(), 5);
    }
}
