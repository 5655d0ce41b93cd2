//! `.qdp` — a small line-oriented text format for catalogs, instances, and
//! selection-view price directives.
//!
//! ```text
//! # Figure 1 of the paper
//! schema R(X)
//! schema S(X, Y)
//! column R.X = {a1, a2, a3, a4}
//! column S.X = {a1, a2, a3, a4}
//! column S.Y = {b1, b2, b3}
//! tuple R(a1)
//! tuple S(a1, b1)
//! price S.Y=b1 100
//! ```
//!
//! # Grammar
//!
//! One directive per line, in any order:
//!
//! ```text
//! schema <Rel>(<Attr>, …)
//! column <Rel>.<Attr> = {<literal>, …}
//! tuple <Rel>(<literal>, …)
//! price <Rel>.<Attr>=<literal> <cents>
//! ```
//!
//! A literal is an integer, a bare identifier, or a `'quoted string'`, as
//! [`crate::Value::parse_literal`] reads it (the two share one
//! classifier). A quoted string may hold any character, `,` and `#` included: a
//! `'` ends it only where the directive can go on after it, that is
//! where it is followed (spaces aside) by a `,`, by a `)` or `}` that
//! ends the line, or by an integer that ends the line (a price's
//! amount). A `'` that follows a `,` (spaces aside) inside a quoted
//! string must be such a closing quote, or the line is refused: it would
//! open the next item, so the string before it lacks its closing quote
//! (`{'a, 'b'}` is an error, not the one text `a, 'b`). So two kinds of
//! text cannot be written: one holding a `'` followed by such a
//! delimiter, as `a', b` does, and one holding a `'` after a `,`, as
//! `a, 'b` does. A `#` outside a quoted string
//! starts a comment that runs to the end of the line. Prices are
//! non-negative integers in the workspace's fixed-point money unit
//! (cents); their interpretation belongs to `qbdp-core`.
//!
//! # Reading
//!
//! [`QdpFile::parse`] reads the text in place. A first pass splits each
//! line into borrowed slices and classifies every literal, so a syntax
//! error anywhere is reported first, at its line. The schema's columns
//! are then built, each declaration once (attributes whose declarations
//! read the same share one [`Column`]). Each tuple and price literal
//! then resolves through its attribute's column to a clone of the
//! column's own value, found by a lookup with the borrowed token, so no
//! token allocates, and
//! a literal the column does not hold is refused at its line: the
//! column-inclusion constraint of paper §3 is checked as the file is
//! read. Rows go into the instance from one reused buffer.

use crate::builder::CatalogBuilder;
use crate::catalog::{Catalog, CheckedInstance};
use crate::column::Column;
use crate::error::CatalogError;
use crate::fxhash::FxHashMap;
use crate::instance::Instance;
use crate::schema::{AttrRef, RelId};
use crate::value::{Literal, Value};
use std::fmt::{self, Write};
use std::ops::Range;

/// A parsed `.qdp` file: catalog, instance, and raw price directives.
#[derive(Clone, Debug)]
pub struct QdpFile {
    /// Schema + columns.
    pub catalog: Catalog,
    /// The tuples.
    pub instance: Instance,
    /// `price R.X=a <cents>` directives, resolved against the schema.
    pub prices: Vec<(AttrRef, Value, u64)>,
}

/// A `.qdp` document as [`QdpFile::read`] returns it: the catalog and
/// instance, checked as they were read, and the `price` directives.
pub type CheckedQdp = (CheckedInstance, Vec<(AttrRef, Value, u64)>);

/// A `column` directive: its attribute, its literals in [`Pass1::lits`],
/// and its `{…}` text, which identifies it for sharing.
struct ColumnDecl<'a> {
    attr: &'a str,
    lits: Range<usize>,
    text: &'a str,
}

/// A `tuple` directive: its relation and its literals in
/// [`Pass1::lits`].
struct TupleDecl<'a> {
    line: usize,
    rel: &'a str,
    lits: Range<usize>,
}

/// A `price` directive.
struct PriceDecl<'a> {
    line: usize,
    attr: &'a str,
    value: Literal<'a>,
    cents: u64,
}

/// The first pass's output: every directive as borrowed slices, with the
/// literals of every column and tuple in one array.
#[derive(Default)]
struct Pass1<'a> {
    schemas: Vec<(usize, &'a str, Vec<&'a str>)>,
    columns: Vec<ColumnDecl<'a>>,
    tuples: Vec<TupleDecl<'a>>,
    prices: Vec<PriceDecl<'a>>,
    lits: Vec<Literal<'a>>,
}

impl QdpFile {
    /// Parse a full `.qdp` document (see the module docs for the grammar
    /// and the order of checks).
    pub fn parse(text: &str) -> Result<QdpFile, CatalogError> {
        let (checked, prices) = QdpFile::read(text)?;
        let (catalog, instance) = checked.into_parts();
        Ok(QdpFile {
            catalog,
            instance,
            prices,
        })
    }

    /// [`QdpFile::parse`], keeping the proof that the instance satisfies
    /// the catalog's inclusion constraints: the reader resolves every
    /// tuple value through its column and refuses one the column does not
    /// hold, so the catalog and instance come back as a
    /// [`CheckedInstance`], beside the price directives.
    pub fn read(text: &str) -> Result<CheckedQdp, CatalogError> {
        let pass1 = Pass1::read(text)?;
        let catalog = pass1.catalog()?;
        let instance = pass1.instance(&catalog)?;
        let prices = pass1.prices(&catalog)?;
        Ok((CheckedInstance::new(catalog, instance), prices))
    }

    /// Serialize back to `.qdp` text (stable ordering; reparses to an equal
    /// catalog/instance/price set).
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.text_size_hint());
        #[expect(
            clippy::let_underscore_must_use,
            reason = "writing to a String cannot fail"
        )]
        let _ = self.write_text(&mut out);
        out
    }

    /// A guess at [`QdpFile::to_text`]'s length, so it seldom regrows.
    fn text_size_hint(&self) -> usize {
        let schema = self.catalog.schema();
        let values: usize = schema
            .all_attrs()
            .iter()
            .map(|&a| self.catalog.column(a).len())
            .sum();
        let lines = self
            .instance
            .total_tuples()
            .saturating_add(self.prices.len());
        values
            .saturating_mul(16)
            .saturating_add(lines.saturating_mul(32))
    }

    /// [`QdpFile::to_text`], written into `out`.
    fn write_text(&self, out: &mut impl Write) -> fmt::Result {
        let schema = self.catalog.schema();
        for (_, rel) in schema.iter() {
            write!(out, "schema {}(", rel.name())?;
            write_list(out, rel.attrs(), |out, a| out.write_str(a))?;
            out.write_str(")\n")?;
        }
        for (rid, rel) in schema.iter() {
            for (attr, col) in rel.attrs().iter().zip(self.catalog.relation_columns(rid)) {
                write!(out, "column {}.{attr} = {{", rel.name())?;
                write_list(out, col.iter(), |out, v| v.write_literal(out))?;
                out.write_str("}\n")?;
            }
        }
        for (rid, rel) in schema.iter() {
            let mut rows: Vec<&[Value]> = self.instance.relation(rid).iter().collect();
            rows.sort();
            for row in rows {
                write!(out, "tuple {}(", rel.name())?;
                write_list(out, row, |out, v| v.write_literal(out))?;
                out.write_str(")\n")?;
            }
        }
        for (aref, value, amount) in &self.prices {
            write!(out, "price {}=", schema.show_attr(*aref))?;
            value.write_literal(out)?;
            writeln!(out, " {amount}")?;
        }
        Ok(())
    }
}

/// Write `items` separated by `, `.
fn write_list<W: Write, T>(
    out: &mut W,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut W, T) -> fmt::Result,
) -> fmt::Result {
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        item(out, x)?;
    }
    Ok(())
}

impl<'a> Pass1<'a> {
    /// Split every line into a directive of borrowed slices, classifying
    /// every literal.
    fn read(text: &'a str) -> Result<Pass1<'a>, CatalogError> {
        let mut p = Pass1::default();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let err = |message: String| CatalogError::Parse { line, message };
            let trimmed = raw.trim_start();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let split = trimmed
                .find(|c: char| c.is_whitespace() || c == '#')
                .unwrap_or(trimmed.len());
            let (keyword, after) = trimmed.split_at(split);
            let rest = after.trim_start();
            if rest.len() == after.len() || ends(rest) {
                let directive = before_comment(trimmed).trim();
                return Err(err(format!("expected directive, got `{directive}`")));
            }
            match keyword {
                "schema" => {
                    let rest = before_comment(rest).trim_end();
                    let (name, attrs) = parse_call(rest)
                        .ok_or_else(|| err(format!("bad schema syntax `{rest}`")))?;
                    p.schemas.push((line, name, attrs));
                }
                "column" => {
                    let bad = || err(format!("bad column syntax `{}`", before_comment(rest)));
                    let (attr, set) = split_at_byte(rest, b'=').ok_or_else(bad)?;
                    if has_byte(attr, b'#') {
                        return Err(bad());
                    }
                    let set = set.trim_start();
                    let start = p.lits.len();
                    let Some(list) = set.strip_prefix('{') else {
                        let set = before_comment(set).trim_end();
                        return Err(err(format!("column values must be `{{...}}`, got `{set}`")));
                    };
                    let after = read_list(list, b'}', &mut p.lits).ok_or_else(|| {
                        let set = before_comment(set).trim_end();
                        err(format!("bad value in column set `{set}`"))
                    })?;
                    p.columns.push(ColumnDecl {
                        attr: attr.trim(),
                        lits: start..p.lits.len(),
                        text: &set[..set.len() - after.len()],
                    });
                }
                "tuple" => {
                    let bad = |what: &str| {
                        err(format!("bad {what} `{}`", before_comment(rest).trim_end()))
                    };
                    let (rel, args) =
                        split_at_byte(rest, b'(').ok_or_else(|| bad("tuple syntax"))?;
                    let rel = rel.trim();
                    if rel.is_empty() || has_byte(rel, b'#') {
                        return Err(bad("tuple syntax"));
                    }
                    let start = p.lits.len();
                    if read_list(args, b')', &mut p.lits).is_none() {
                        return Err(bad("value in tuple"));
                    }
                    p.tuples.push(TupleDecl {
                        line,
                        rel,
                        lits: start..p.lits.len(),
                    });
                }
                "price" => p.prices.push(read_price(line, rest).map_err(err)?),
                other => return Err(err(format!("unknown directive `{other}`"))),
            }
        }
        Ok(p)
    }

    /// Assemble the catalog: every schema attribute needs a column, and
    /// each column declaration is built once.
    fn catalog(&self) -> Result<Catalog, CatalogError> {
        let mut declared: FxHashMap<&str, &ColumnDecl<'a>> = FxHashMap::default();
        for decl in &self.columns {
            declared.entry(decl.attr).or_insert(decl);
        }
        let mut built: FxHashMap<&str, Column> = FxHashMap::default();
        let mut dotted = String::new();
        let mut builder = CatalogBuilder::new();
        for (line, name, attrs) in &self.schemas {
            let mut rel_attrs: Vec<(&str, Column)> = Vec::with_capacity(attrs.len());
            for &attr in attrs {
                dotted.clear();
                dotted.push_str(name);
                dotted.push('.');
                dotted.push_str(attr);
                let decl = declared
                    .get(dotted.as_str())
                    .ok_or_else(|| CatalogError::Parse {
                        line: *line,
                        message: format!("no `column {dotted} = {{...}}` declared"),
                    })?;
                let column = built.entry(decl.text).or_insert_with(|| {
                    Column::new(self.lits[decl.lits.clone()].iter().map(|l| l.to_value()))
                });
                rel_attrs.push((attr, column.clone()));
            }
            builder = builder.relation(*name, &rel_attrs);
        }
        builder.build()
    }

    /// The tuples, each literal resolved to its column's own value.
    fn instance(&self, catalog: &Catalog) -> Result<Instance, CatalogError> {
        let schema = catalog.schema();
        let mut rels = Vec::with_capacity(self.tuples.len());
        let mut rows = vec![0; schema.len()];
        let mut last: Option<(&str, RelId)> = None;
        for t in &self.tuples {
            let rel = match last {
                Some((name, rel)) if name == t.rel => rel,
                _ => schema.rel_id(t.rel).ok_or_else(|| CatalogError::Parse {
                    line: t.line,
                    message: format!("tuple for undeclared relation `{}`", t.rel),
                })?,
            };
            last = Some((t.rel, rel));
            rels.push(rel);
            rows[rel.0 as usize] += 1;
        }
        let mut instance = catalog.empty_instance();
        for (rel, &n) in schema.rel_ids().zip(&rows) {
            instance.reserve(rel, n);
        }
        let mut row = Vec::new();
        for (t, &rel) in self.tuples.iter().zip(&rels) {
            let err = |e: CatalogError| CatalogError::Parse {
                line: t.line,
                message: e.to_string(),
            };
            let lits = &self.lits[t.lits.clone()];
            let columns = catalog.relation_columns(rel);
            if lits.len() != columns.len() {
                return Err(err(CatalogError::ArityMismatch {
                    relation: t.rel.to_string(),
                    expected: columns.len(),
                    got: lits.len(),
                }));
            }
            for (pos, (&lit, column)) in lits.iter().zip(columns).enumerate() {
                let value = column.resolve(lit).ok_or_else(|| {
                    err(CatalogError::ValueOutsideColumn {
                        attr: schema.show_attr(AttrRef::new(rel, pos as u32)).to_string(),
                        value: lit.to_string(),
                    })
                })?;
                row.push(value.clone());
            }
            instance.insert_row(rel, &mut row).map_err(err)?;
        }
        Ok(instance)
    }

    /// The price directives, each literal resolved to its column's own
    /// value.
    fn prices(&self, catalog: &Catalog) -> Result<Vec<(AttrRef, Value, u64)>, CatalogError> {
        let mut prices = Vec::with_capacity(self.prices.len());
        let mut last: Option<(&str, AttrRef)> = None;
        for p in &self.prices {
            let err = |message: String| CatalogError::Parse {
                line: p.line,
                message,
            };
            let aref = match last {
                Some((attr, aref)) if attr == p.attr => aref,
                _ => catalog
                    .schema()
                    .resolve_attr(p.attr)
                    .map_err(|e| err(e.to_string()))?,
            };
            last = Some((p.attr, aref));
            let value = catalog.column(aref).resolve(p.value).ok_or_else(|| {
                err(format!(
                    "price on value {} outside column of {}",
                    p.value, p.attr
                ))
            })?;
            prices.push((aref, value.clone(), p.cents));
        }
        Ok(prices)
    }
}

/// Read `R.X=<literal> <cents>`, the rest of line `line`.
fn read_price(line: usize, rest: &str) -> Result<PriceDecl<'_>, String> {
    let (attr, value) = split_at_byte(rest, b'=').ok_or_else(|| {
        format!(
            "price selector must be `R.X=a`, got `{}`",
            before_comment(rest).trim_end()
        )
    })?;
    if has_byte(attr, b'#') {
        return Err(format!("bad price syntax `{}`", before_comment(rest)));
    }
    let value = value.trim_start();
    let token_end = if value.starts_with('\'') {
        closing_quote(value)
            .ok_or_else(|| format!("bad price value `{}`", before_comment(value).trim_end()))?
    } else {
        value
            .find(|c: char| c.is_whitespace() || c == '#')
            .unwrap_or(value.len())
    };
    let (token, amount) = value.split_at(token_end);
    let amount = before_comment(amount).trim();
    let literal = Literal::classify(token).ok_or_else(|| format!("bad price value `{token}`"))?;
    let cents = amount
        .parse()
        .map_err(|_| format!("bad price amount `{amount}`"))?;
    Ok(PriceDecl {
        line,
        attr: attr.trim(),
        value: literal,
        cents,
    })
}

/// `s` up to the `#` that starts its comment, if any. Only for text
/// that holds no quoted string.
fn before_comment(s: &str) -> &str {
    split_at_byte(s, b'#').map_or(s, |(before, _)| before)
}

/// `s` split around its first `b`, an ASCII byte. A byte scan: the
/// spans are short, and a char pattern's search costs more than they
/// do.
fn split_at_byte(s: &str, b: u8) -> Option<(&str, &str)> {
    let i = s.bytes().position(|c| c == b)?;
    Some((&s[..i], &s[i + 1..]))
}

/// Whether `s` holds the ASCII byte `b`.
fn has_byte(s: &str, b: u8) -> bool {
    s.bytes().any(|c| c == b)
}

/// Whether the directive can end at the start of `s`: only spaces and a
/// comment follow.
fn ends(s: &str) -> bool {
    let s = s.trim_start();
    s.is_empty() || s.starts_with('#')
}

/// The end (one past the closing `'`) of the quoted string `s` starts
/// with: the first later `'` followed, spaces aside, by a `,`, by a `)`
/// or `}` that ends the line, or by an integer that ends the line.
/// `None` if there is none, or if a `'` that follows a `,` (spaces
/// aside) comes first without closing the string: that `'` opens the
/// next item, so the string's own closing quote is missing.
fn closing_quote(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    for i in (1..bytes.len()).filter(|&i| bytes[i] == b'\'') {
        let end = i + 1;
        let after = &s[end..];
        let rest = after.trim_start();
        let closes = match rest.as_bytes().first() {
            Some(b',') => true,
            Some(b')' | b'}') => ends(&rest[1..]),
            Some(b'0'..=b'9') if rest.len() < after.len() => {
                ends(rest.trim_start_matches(|c: char| c.is_ascii_digit()))
            }
            _ => false,
        };
        if closes {
            return Some(end);
        }
        if s[1..i].trim_end().ends_with(',') {
            return None;
        }
    }
    None
}

/// Whether `value`'s literal reads back as `value` wherever the writer
/// puts it: inside a column set or a tuple, last in either, and before a
/// price's amount. An integer or bare literal always does. A quoted one
/// does unless its text holds a line break, or a `'` that [`closing_quote`]
/// takes for the end of the string or for the opening of the next item.
pub(crate) fn reads_back(value: &Value) -> bool {
    let Value::Text(text) = value else {
        return true;
    };
    let mut line = String::with_capacity(text.len() + 8);
    #[expect(
        clippy::let_underscore_must_use,
        reason = "writing to a String cannot fail"
    )]
    let _ = value.write_literal(&mut line);
    let end = line.len();
    if !line.starts_with('\'') {
        return true;
    }
    !text.contains('\n')
        && [", x}", "}", ")", " 100"].into_iter().all(|after| {
            line.truncate(end);
            line.push_str(after);
            closing_quote(&line) == Some(end)
        })
}

/// Read the literals of a `…, …)` or `…, …}` list up to its `closer`
/// into `out`; returns the text after the closer, or `None` on a bad
/// literal, an empty item, a missing closer or anything but a comment
/// after it.
fn read_list<'a>(list: &'a str, closer: u8, out: &mut Vec<Literal<'a>>) -> Option<&'a str> {
    let mut s = list.trim_start();
    if s.as_bytes().first() == Some(&closer) {
        return ends(&s[1..]).then_some(&s[1..]);
    }
    loop {
        let end = if s.starts_with('\'') {
            closing_quote(s)?
        } else {
            s.bytes().position(|b| b == b',' || b == closer)?
        };
        out.push(Literal::classify(&s[..end])?);
        let rest = s[end..].trim_start();
        match rest.as_bytes().first() {
            Some(b',') => s = rest[1..].trim_start(),
            Some(&c) if c == closer => return ends(&rest[1..]).then_some(&rest[1..]),
            _ => return None,
        }
    }
}

/// Parse `Name(a, b, c)` into the name and raw argument strings.
fn parse_call(s: &str) -> Option<(&str, Vec<&str>)> {
    let open = s.find('(')?;
    if !s.ends_with(')') {
        return None;
    }
    let name = s[..open].trim();
    if name.is_empty() {
        return None;
    }
    let inner = &s[open + 1..s.len() - 1];
    if inner.trim().is_empty() {
        return Some((name, Vec::new()));
    }
    Some((name, inner.split(',').map(str::trim).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrId;
    use crate::tuple::Tuple;

    const FIG1: &str = r#"
# Figure 1(a) of the paper
schema R(X)
schema S(X, Y)
schema T(Y)
column R.X = {a1, a2, a3, a4}
column S.X = {a1, a2, a3, a4}
column S.Y = {b1, b2, b3}
column T.Y = {b1, b2, b3}
tuple R(a1)
tuple R(a2)
tuple S(a1, b1)
tuple S(a1, b2)
tuple S(a2, b2)
tuple T(b1)
tuple T(b3)
price S.Y=b1 100
price T.Y=b3 250
"#;

    #[test]
    fn parse_figure1() {
        let f = QdpFile::parse(FIG1).unwrap();
        assert_eq!(f.catalog.schema().len(), 3);
        let s = f.catalog.schema().rel_id("S").unwrap();
        assert_eq!(f.instance.relation(s).len(), 3);
        assert_eq!(f.prices.len(), 2);
        let (aref, v, p) = &f.prices[0];
        assert_eq!(*aref, AttrRef::new(s, 1));
        assert_eq!(v, &Value::text("b1"));
        assert_eq!(*p, 100);
    }

    #[test]
    fn roundtrip() {
        let f = QdpFile::parse(FIG1).unwrap();
        let text = f.to_text();
        let g = QdpFile::parse(&text).unwrap();
        assert_eq!(f.catalog.schema().as_ref(), g.catalog.schema().as_ref());
        assert!(f.instance.same_extension(&g.instance));
        assert_eq!(f.prices, g.prices);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "schema R(X)\ncolumn R.X = {a}\nnonsense here\n";
        match QdpFile::parse(bad) {
            Err(CatalogError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn missing_column_rejected() {
        let bad = "schema R(X, Y)\ncolumn R.X = {a}\n";
        assert!(QdpFile::parse(bad).is_err());
    }

    #[test]
    fn tuple_outside_column_rejected() {
        let bad = "schema R(X)\ncolumn R.X = {a}\ntuple R(zz)\n";
        assert!(QdpFile::parse(bad).is_err());
    }

    #[test]
    fn price_on_unknown_value_rejected() {
        let bad = "schema R(X)\ncolumn R.X = {a}\nprice R.X=b 10\n";
        assert!(QdpFile::parse(bad).is_err());
    }

    #[test]
    fn membership_is_checked_at_the_line_that_breaks_it() {
        let bad = "schema R(X)\ncolumn R.X = {a}\ntuple R(a)\ntuple R(zz)\n";
        match QdpFile::parse(bad) {
            Err(CatalogError::Parse { line, message }) => {
                assert_eq!(line, 4);
                assert!(
                    message.contains("outside the declared column of R.X"),
                    "{message}"
                );
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        let bad = "schema R(X)\ncolumn R.X = {a}\ntuple R(a, a)\n";
        assert!(matches!(
            QdpFile::parse(bad),
            Err(CatalogError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn quoted_commas_and_hashes_roundtrip() {
        let catalog = CatalogBuilder::new()
            .relation(
                "R",
                &[("X", Column::texts(["a, b", "plain", "c#d", "e')f"]))],
            )
            .build()
            .unwrap();
        let mut instance = catalog.empty_instance();
        for v in ["a, b", "c#d", "e')f"] {
            instance
                .insert(RelId(0), Tuple::new([Value::text(v)]))
                .unwrap();
        }
        let prices = vec![(AttrRef::new(RelId(0), 0), Value::text("c#d"), 7)];
        let f = QdpFile {
            catalog,
            instance,
            prices,
        };
        let text = f.to_text();
        assert!(
            text.contains("column R.X = {'a, b', 'c#d', 'e')f', plain}"),
            "{text}"
        );
        let g = QdpFile::parse(&text).unwrap();
        assert_eq!(
            f.catalog.column(AttrRef::new(RelId(0), 0)),
            g.catalog.column(AttrRef::new(RelId(0), 0))
        );
        assert!(f.instance.same_extension(&g.instance));
        assert_eq!(f.prices, g.prices);
        assert_eq!(g.to_text(), text);
    }

    #[test]
    fn comments_start_only_outside_quotes() {
        let text = "schema R(X) # the relation\n\
                    column R.X = {'#1', 'x, #y'}   # two values\n\
                    tuple R('x, #y') # one row\n\
                    price R.X='#1' 250 # a view\n";
        let f = QdpFile::parse(text).unwrap();
        let r = f.instance.relation(RelId(0));
        assert!(r.contains(&[Value::text("x, #y")]));
        assert_eq!(
            f.prices,
            vec![(AttrRef::new(RelId(0), 0), Value::text("#1"), 250)]
        );
        // A quote inside a text ends it only before a delimiter.
        let f = QdpFile::parse("schema R(X)\ncolumn R.X = {'it's', 'x' y'}\n").unwrap();
        let col = f.catalog.column(AttrRef::new(RelId(0), 0));
        assert_eq!(col, &Column::texts(["it's", "x' y"]));
    }

    #[test]
    fn a_missing_closing_quote_is_refused_at_its_line() {
        // At the next item's opening quote, not swallowed into one text.
        for bad in [
            "schema R(X)\ncolumn R.X = {'a, 'b'}\n",
            "schema R(X)\ncolumn R.X = {'a, b}\n",
            "schema R(X, Y)\ncolumn R.X = {a}\ncolumn R.Y = {a}\ntuple R('a, 'a')\n",
            "schema R(X)\ncolumn R.X = {'a, b'}\nprice R.X='a, 'b' 10\n",
        ] {
            let line = bad.lines().count();
            match QdpFile::parse(bad) {
                Err(CatalogError::Parse { line: at, .. }) => assert_eq!(at, line, "{bad}"),
                other => panic!("expected parse error for {bad:?}, got {other:?}"),
            }
        }
        // A `'` after a comma that does close its string is a closing quote.
        let f = QdpFile::parse("schema R(X)\ncolumn R.X = {'a,', 'b, '}\n").unwrap();
        let col = f.catalog.column(AttrRef::new(RelId(0), 0));
        assert_eq!(col, &Column::texts(["a,", "b, "]));
    }

    /// `reads_back` says of a text exactly whether a one-attribute file
    /// holding it in its column, a tuple and a price reads back as written;
    /// `check_literals` refuses the texts it says cannot.
    #[test]
    fn reads_back_agrees_with_the_reader() {
        let texts = [
            "ok",
            "it's",
            "a'b",
            "",
            "'",
            "x')",
            "},",
            "a' }",
            "5' 3",
            "a', b",
            "a, 'b",
            "x')#",
            "a' 5#",
            "p' 100",
            "a',b",
            "two\nlines",
            "#",
            "a # b",
        ];
        let mut unwritable = 0;
        for text in texts {
            let column = Column::texts([text, "zz"]);
            let catalog = CatalogBuilder::new()
                .relation("R", &[("X", column.clone())])
                .build()
                .unwrap();
            let r = RelId(0);
            let mut instance = catalog.empty_instance();
            instance.insert(r, Tuple::new([Value::text(text)])).unwrap();
            let value = Value::text(text);
            let written = QdpFile {
                catalog: catalog.clone(),
                instance,
                prices: vec![(AttrRef::new(r, 0), value.clone(), 100)],
            }
            .to_text();
            let back = QdpFile::parse(&written).ok().filter(|f| {
                f.catalog.column(AttrRef::new(r, 0)) == &column
                    && f.instance
                        .relation(r)
                        .contains(std::slice::from_ref(&value))
                    && f.prices == [(AttrRef::new(r, 0), value.clone(), 100)]
            });
            assert_eq!(reads_back(&value), back.is_some(), "{text:?} in {written}");
            if back.is_none() {
                unwritable += 1;
                assert!(matches!(
                    catalog.check_literals(),
                    Err(CatalogError::UnwritableText { .. })
                ));
            } else {
                assert!(catalog.check_literals().is_ok(), "{text:?}");
            }
        }
        assert_eq!(unwritable, 6, "the tricky texts include unwritable ones");
    }

    #[test]
    fn columns_declared_alike_are_built_once() {
        let f = QdpFile::parse(FIG1).unwrap();
        let schema = f.catalog.schema();
        let col = |a: &str| f.catalog.column(schema.resolve_attr(a).unwrap());
        assert!(col("R.X").ptr_eq(col("S.X")));
        assert!(col("S.Y").ptr_eq(col("T.Y")));
        assert!(!col("R.X").ptr_eq(col("T.Y")));
        // Tuples and prices hold the column's own values.
        let (_, b1, _) = &f.prices[0];
        let in_column = col("S.Y").iter().find(|v| *v == b1).unwrap();
        assert!(std::ptr::eq(
            b1.as_text().unwrap(),
            in_column.as_text().unwrap()
        ));
    }

    #[test]
    fn quoted_and_negative_values() {
        let text =
            "schema R(X)\ncolumn R.X = {'two words', -5}\ntuple R(-5)\ntuple R('two words')\n";
        let f = QdpFile::parse(text).unwrap();
        assert_eq!(f.instance.relation(RelId(0)).len(), 2);
        assert!(f
            .instance
            .relation(RelId(0))
            .select(AttrId(0), &Value::text("two words"))
            .next()
            .is_some());
        // Round-trips through quoting.
        let g = QdpFile::parse(&f.to_text()).unwrap();
        assert!(f.instance.same_extension(&g.instance));
    }
}
