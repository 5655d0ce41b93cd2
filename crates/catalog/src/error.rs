//! Error type for catalog construction and parsing.

use std::fmt;

/// Errors raised while building or loading schemas, columns, and instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// A relation was declared with zero attributes.
    EmptyRelation(String),
    /// Two attributes of one relation share a name.
    DuplicateAttribute(String, String),
    /// Two relations share a name.
    DuplicateRelation(String),
    /// An `R.X` string did not contain a dot.
    BadAttrSyntax(String),
    /// A relation name did not resolve.
    UnknownRelation(String),
    /// An attribute name did not resolve within its relation.
    UnknownAttribute(String, String),
    /// A tuple's arity does not match its relation's schema.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Arity declared by the schema.
        expected: usize,
        /// Arity of the offending tuple.
        got: usize,
    },
    /// A tuple value is outside the declared column `Col_{R.X}` — violates
    /// the inclusion constraint of paper §3.
    ValueOutsideColumn {
        /// The attribute position `R.X`, rendered.
        attr: String,
        /// The offending value, rendered.
        value: String,
    },
    /// A column text whose `.qdp` literal does not read back as the text
    /// (see [`crate::qdp`]'s grammar), so the catalog could not be written
    /// and reopened.
    UnwritableText {
        /// The attribute position `R.X`, rendered.
        attr: String,
        /// The offending text, as a Rust string literal.
        value: String,
    },
    /// No column was declared for an attribute that needs one.
    MissingColumn(String),
    /// A parse error in the `.qdp` text format.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable message.
        message: String,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::EmptyRelation(r) => {
                write!(f, "relation {r} declared with no attributes")
            }
            CatalogError::DuplicateAttribute(r, a) => {
                write!(f, "relation {r} declares attribute {a} twice")
            }
            CatalogError::DuplicateRelation(r) => write!(f, "relation {r} declared twice"),
            CatalogError::BadAttrSyntax(s) => {
                write!(f, "expected dotted attribute `R.X`, got `{s}`")
            }
            CatalogError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            CatalogError::UnknownAttribute(r, a) => {
                write!(f, "relation {r} has no attribute {a}")
            }
            CatalogError::ArityMismatch {
                relation,
                expected,
                got,
            } => {
                write!(
                    f,
                    "tuple for {relation} has arity {got}, schema says {expected}"
                )
            }
            CatalogError::ValueOutsideColumn { attr, value } => {
                write!(f, "value {value} is outside the declared column of {attr}")
            }
            CatalogError::UnwritableText { attr, value } => {
                write!(
                    f,
                    "text {value} in the column of {attr} has no .qdp literal that reads back"
                )
            }
            CatalogError::MissingColumn(a) => write!(f, "no column declared for {a}"),
            CatalogError::Parse { line, message } => {
                write!(f, "qdp parse error on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CatalogError::ArityMismatch {
            relation: "R".into(),
            expected: 2,
            got: 3,
        };
        let s = e.to_string();
        assert!(s.contains('R') && s.contains('2') && s.contains('3'));
        let e = CatalogError::Parse {
            line: 4,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 4"));
    }
}
