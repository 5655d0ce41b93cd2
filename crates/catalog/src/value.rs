//! Typed constants appearing in database tuples, columns, and queries.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
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
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
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
    /// This is the syntax used by the `.qdp` format and the query parser;
    /// the `.qdp` reader classifies it the same way without allocating.
    pub fn parse_literal(s: &str) -> Option<Value> {
        Literal::classify(s).map(Literal::to_value)
    }

    /// This value as a borrowed [`Literal`]: the key it hashes and
    /// compares by.
    pub(crate) fn as_literal(&self) -> Literal<'_> {
        match self {
            Value::Int(i) => Literal::Int(*i),
            Value::Text(s) => Literal::Text(s),
        }
    }

    /// Render back to the literal syntax [`Value::parse_literal`]
    /// accepts: integers bare, identifier-shaped texts bare, everything
    /// else single-quoted. Round-trips for every value the parser can
    /// produce, so the `.qdp` format and the durable event log can use it
    /// as their wire form.
    pub fn render_literal(&self) -> String {
        let mut out = String::new();
        #[expect(
            clippy::let_underscore_must_use,
            reason = "writing to a String cannot fail"
        )]
        let _ = self.write_literal(&mut out);
        out
    }

    /// [`Value::render_literal`], written into `out`.
    pub(crate) fn write_literal(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Value::Int(i) => write!(out, "{i}"),
            Value::Text(s) if is_bare(s) => out.write_str(s),
            Value::Text(s) => {
                out.write_char('\'')?;
                out.write_str(s)?;
                out.write_char('\'')
            }
        }
    }
}

/// Whether `s` is a bare identifier: a letter, then letters, digits, `_`
/// and `-`. Such a text needs no quotes, and no other text may go
/// without them, so the surrounding grammar stays unambiguous.
fn is_bare(s: &str) -> bool {
    let b = s.as_bytes();
    b.first().is_some_and(u8::is_ascii_alphabetic)
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || c == b'_' || c == b'-')
}

/// A value literal classified but not yet owned: an integer, or the text
/// of a quoted string or bare identifier, borrowed from the source. The
/// one classifier behind [`Value::parse_literal`] and the `.qdp` reader,
/// which resolves a literal to the value its column already holds
/// ([`crate::Column::resolve`]) instead of allocating one.
///
/// A literal hashes and compares exactly as the value it names, so a
/// value-keyed map can be searched by literal (see [`LiteralKey`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum Literal<'a> {
    /// An integer constant.
    Int(i64),
    /// A text constant, without its quotes.
    Text(&'a str),
}

impl<'a> Literal<'a> {
    /// Classify a literal: a decimal integer, a single-quoted string
    /// (`'WA'`), or a bare identifier treated as text; `None` for
    /// anything else. Surrounding whitespace is ignored.
    pub(crate) fn classify(s: &'a str) -> Option<Literal<'a>> {
        let s = s.trim();
        match s.as_bytes().first()? {
            b'0'..=b'9' | b'-' | b'+' => s.parse().ok().map(Literal::Int),
            b'\'' if s.len() >= 2 && s.ends_with('\'') => Some(Literal::Text(&s[1..s.len() - 1])),
            _ => is_bare(s).then_some(Literal::Text(s)),
        }
    }

    /// The owned value, allocating its text.
    pub(crate) fn to_value(self) -> Value {
        match self {
            Literal::Int(i) => Value::Int(i),
            Literal::Text(s) => Value::text(s),
        }
    }
}

impl fmt::Display for Literal<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Text(s) => f.write_str(s),
        }
    }
}

/// A key a [`Value`]-keyed hash map can be searched by: a value, or a
/// [`Literal`] naming one. [`Value`] borrows as `dyn LiteralKey`, and
/// both hash and compare through [`LiteralKey::literal`], so
/// `map.get(&literal as &dyn LiteralKey)` finds the entry of the equal
/// value without building it.
pub(crate) trait LiteralKey {
    /// The literal this key names.
    fn literal(&self) -> Literal<'_>;
}

impl LiteralKey for Value {
    fn literal(&self) -> Literal<'_> {
        self.as_literal()
    }
}

impl LiteralKey for Literal<'_> {
    fn literal(&self) -> Literal<'_> {
        *self
    }
}

impl<'a> Borrow<dyn LiteralKey + 'a> for Value {
    fn borrow(&self) -> &(dyn LiteralKey + 'a) {
        self
    }
}

impl Hash for dyn LiteralKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.literal().hash(state);
    }
}

impl PartialEq for dyn LiteralKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.literal() == other.literal()
    }
}

impl Eq for dyn LiteralKey + '_ {}

/// Hashes as its borrowed literal form, which is what lets a value-keyed
/// map be searched by a literal read from text. The two forms' variants
/// mirror each other, so this is the hash a derived impl would give.
impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_literal().hash(state);
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
    fn literals_classify_without_allocating() {
        assert_eq!(Literal::classify(" -7 "), Some(Literal::Int(-7)));
        assert_eq!(Literal::classify("'5'"), Some(Literal::Text("5")));
        assert_eq!(Literal::classify("'a, b'"), Some(Literal::Text("a, b")));
        assert_eq!(
            Literal::classify("sea-town_9"),
            Some(Literal::Text("sea-town_9"))
        );
        assert_eq!(Literal::classify("9lives"), None);
        assert_eq!(Literal::Text("5").to_value().render_literal(), "'5'");
        assert_eq!(Value::text("c#d").render_literal(), "'c#d'");
        assert_eq!(Value::Int(-3).render_literal(), "-3");
    }

    #[test]
    fn a_value_hashes_as_its_literal() {
        use crate::fxhash::FxHashMap;
        let mut m: FxHashMap<Value, u32> = FxHashMap::default();
        m.insert(Value::text("WA"), 1);
        m.insert(Value::Int(7), 2);
        let key = |l: &Literal<'_>| m.get(l as &dyn LiteralKey).copied();
        assert_eq!(key(&Literal::Text("WA")), Some(1));
        assert_eq!(key(&Literal::Int(7)), Some(2));
        assert_eq!(key(&Literal::Text("7")), None);
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
