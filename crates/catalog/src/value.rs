//! Typed constants appearing in database tuples, columns, and queries.

use std::fmt;
use std::sync::Arc;

/// A database constant.
///
/// The paper works over abstract domains; two concrete types cover all the
/// scenarios it discusses (business names, state codes, team ids, numeric
/// statistics): 64-bit integers and strings. `Value` is totally ordered
/// (integers before texts) so columns can be kept sorted and deterministic.
///
/// A text value shares its string behind an [`Arc`], so cloning a value
/// never allocates: the tuples, indexes, columns, price maps and views that
/// hold the same constant all point at one string.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An integer constant, e.g. a game id or an IP octet.
    Int(i64),
    /// A string constant, e.g. `"WA"` or `"Seattle Mariners"`.
    Text(Arc<str>),
}

impl Value {
    /// Construct a text value.
    pub fn text(s: impl Into<Arc<str>>) -> Self {
        Value::Text(s.into())
    }

    /// Construct an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Returns the integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Text(_) => None,
        }
    }

    /// Returns the text payload, if this is a [`Value::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Int(_) => None,
            Value::Text(s) => Some(s),
        }
    }

    /// Parse a value from its literal syntax: a decimal integer, a
    /// single-quoted string (`'WA'`), or a bare identifier treated as text.
    ///
    /// This is the syntax used by the `.qdp` format and the query parser.
    pub fn parse_literal(s: &str) -> Option<Value> {
        let s = s.trim();
        if s.is_empty() {
            return None;
        }
        if let Ok(i) = s.parse::<i64>() {
            return Some(Value::Int(i));
        }
        if s.len() >= 2 && s.starts_with('\'') && s.ends_with('\'') {
            return Some(Value::text(&s[1..s.len() - 1]));
        }
        // Bare identifiers: must start with a letter and contain no quotes
        // or whitespace, so that the surrounding grammar stays unambiguous.
        let mut chars = s.chars();
        let first = chars.next()?;
        if first.is_ascii_alphabetic()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Some(Value::text(s));
        }
        None
    }

    /// Render back to the literal syntax [`Value::parse_literal`]
    /// accepts: integers bare, identifier-shaped texts bare, everything
    /// else single-quoted. Round-trips for every value the parser can
    /// produce, so the `.qdp` format and the durable event log can use it
    /// as their wire form.
    pub fn render_literal(&self) -> String {
        match self {
            Value::Int(i) => i.to_string(),
            Value::Text(s) => {
                let bare = !s.is_empty()
                    && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
                    && s.chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
                if bare {
                    s.to_string()
                } else {
                    format!("'{s}'")
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::text(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_integers() {
        assert_eq!(Value::parse_literal("42"), Some(Value::Int(42)));
        assert_eq!(Value::parse_literal("-7"), Some(Value::Int(-7)));
        assert_eq!(Value::parse_literal("  13 "), Some(Value::Int(13)));
    }

    #[test]
    fn literal_quoted_text() {
        assert_eq!(Value::parse_literal("'WA'"), Some(Value::text("WA")));
        assert_eq!(Value::parse_literal("''"), Some(Value::text("")));
        assert_eq!(
            Value::parse_literal("'two words'"),
            Some(Value::text("two words"))
        );
    }

    #[test]
    fn literal_bare_identifier() {
        assert_eq!(Value::parse_literal("a1"), Some(Value::text("a1")));
        assert_eq!(
            Value::parse_literal("sea-town_9"),
            Some(Value::text("sea-town_9"))
        );
        assert_eq!(Value::parse_literal("9lives"), None);
        assert_eq!(Value::parse_literal("has space"), None);
        assert_eq!(Value::parse_literal(""), None);
    }

    #[test]
    fn ordering_ints_before_text() {
        assert!(Value::Int(999) < Value::text("a"));
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::text("a") < Value::text("b"));
    }

    #[test]
    fn display_roundtrip_for_identifiers() {
        let v = Value::text("b2");
        assert_eq!(Value::parse_literal(&v.to_string()), Some(v));
        let v = Value::Int(-3);
        assert_eq!(Value::parse_literal(&v.to_string()), Some(v));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("x"), Value::text("x"));
        assert_eq!(Value::from(String::from("y")), Value::text("y"));
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Int(5).as_text(), None);
        assert_eq!(Value::text("z").as_text(), Some("z"));
        assert_eq!(Value::text("z").as_int(), None);
    }

    #[test]
    fn values_are_two_words_and_clones_share_their_text() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
        let v = Value::text("Seattle Mariners");
        let w = v.clone();
        assert_eq!(v, w);
        assert!(std::ptr::eq(v.as_text().unwrap(), w.as_text().unwrap()));
    }
}
