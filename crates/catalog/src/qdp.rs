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
//! Values use [`crate::Value::parse_literal`] syntax (integers, bare
//! identifiers, or `'quoted strings'`). Prices are non-negative integers in
//! the workspace's fixed-point money unit (cents); their interpretation
//! belongs to `qbdp-core`.

use crate::builder::CatalogBuilder;
use crate::catalog::Catalog;
use crate::column::Column;
use crate::error::CatalogError;
use crate::instance::Instance;
use crate::schema::AttrRef;
use crate::tuple::Tuple;
use crate::value::Value;

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

impl QdpFile {
    /// Parse a full `.qdp` document.
    pub fn parse(text: &str) -> Result<QdpFile, CatalogError> {
        // Pass 1: collect raw directives with line numbers.
        let mut schemas: Vec<(usize, String, Vec<String>)> = Vec::new();
        let mut columns: Vec<(usize, String, Vec<Value>)> = Vec::new();
        let mut tuples: Vec<(usize, String, Vec<Value>)> = Vec::new();
        let mut prices: Vec<(usize, String, Value, u64)> = Vec::new();

        for (lineno, raw) in text.lines().enumerate() {
            let lineno = lineno + 1;
            let line = match raw.find('#') {
                Some(i) => &raw[..i],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let err = |message: String| CatalogError::Parse {
                line: lineno,
                message,
            };
            let (keyword, rest) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| err(format!("expected directive, got `{line}`")))?;
            let rest = rest.trim();
            match keyword {
                "schema" => {
                    let (name, attrs) = parse_call(rest)
                        .ok_or_else(|| err(format!("bad schema syntax `{rest}`")))?;
                    schemas.push((
                        lineno,
                        name.to_string(),
                        attrs.iter().map(|s| s.to_string()).collect(),
                    ));
                }
                "column" => {
                    let (attr, set) = rest
                        .split_once('=')
                        .ok_or_else(|| err(format!("bad column syntax `{rest}`")))?;
                    let set = set.trim();
                    if !(set.starts_with('{') && set.ends_with('}')) {
                        return Err(err(format!("column values must be `{{...}}`, got `{set}`")));
                    }
                    let values = parse_value_list(&set[1..set.len() - 1])
                        .ok_or_else(|| err(format!("bad value in column set `{set}`")))?;
                    columns.push((lineno, attr.trim().to_string(), values));
                }
                "tuple" => {
                    let (name, args) = parse_call(rest)
                        .ok_or_else(|| err(format!("bad tuple syntax `{rest}`")))?;
                    let values = args
                        .iter()
                        .map(|a| Value::parse_literal(a))
                        .collect::<Option<Vec<_>>>()
                        .ok_or_else(|| err(format!("bad value in tuple `{rest}`")))?;
                    tuples.push((lineno, name.to_string(), values));
                }
                "price" => {
                    let (sel, amount) = rest
                        .rsplit_once(char::is_whitespace)
                        .ok_or_else(|| err(format!("bad price syntax `{rest}`")))?;
                    let amount: u64 = amount
                        .trim()
                        .parse()
                        .map_err(|_| err(format!("bad price amount `{amount}`")))?;
                    let (attr, value) = sel.split_once('=').ok_or_else(|| {
                        err(format!("price selector must be `R.X=a`, got `{sel}`"))
                    })?;
                    let value = Value::parse_literal(value)
                        .ok_or_else(|| err(format!("bad price value `{value}`")))?;
                    prices.push((lineno, attr.trim().to_string(), value, amount));
                }
                other => return Err(err(format!("unknown directive `{other}`"))),
            }
        }

        // Pass 2: assemble the catalog. Every schema attribute needs a column.
        let mut builder = CatalogBuilder::new();
        for (lineno, name, attrs) in &schemas {
            let mut rel_attrs: Vec<(&str, Column)> = Vec::with_capacity(attrs.len());
            for attr in attrs {
                let dotted_suffix = format!("{name}.{attr}");
                let col = columns
                    .iter()
                    .find(|(_, a, _)| *a == dotted_suffix)
                    .map(|(_, _, vals)| Column::new(vals.iter().cloned()))
                    .ok_or_else(|| CatalogError::Parse {
                        line: *lineno,
                        message: format!("no `column {dotted_suffix} = {{...}}` declared"),
                    })?;
                rel_attrs.push((attr, col));
            }
            builder = builder.relation(name.clone(), &rel_attrs);
        }
        let catalog = builder.build()?;

        // Pass 3: tuples + price directives, resolved against the schema.
        let mut instance = catalog.empty_instance();
        for (lineno, name, values) in tuples {
            let rel = catalog.schema().rel_id(&name).ok_or(CatalogError::Parse {
                line: lineno,
                message: format!("tuple for undeclared relation `{name}`"),
            })?;
            instance
                .insert(rel, Tuple::new(values))
                .map_err(|e| CatalogError::Parse {
                    line: lineno,
                    message: e.to_string(),
                })?;
        }
        catalog.check_instance(&instance)?;

        let mut resolved_prices = Vec::with_capacity(prices.len());
        for (lineno, attr, value, amount) in prices {
            let aref = catalog
                .schema()
                .resolve_attr(&attr)
                .map_err(|e| CatalogError::Parse {
                    line: lineno,
                    message: e.to_string(),
                })?;
            if !catalog.column(aref).contains(&value) {
                return Err(CatalogError::Parse {
                    line: lineno,
                    message: format!("price on value {value} outside column of {attr}"),
                });
            }
            resolved_prices.push((aref, value, amount));
        }

        Ok(QdpFile {
            catalog,
            instance,
            prices: resolved_prices,
        })
    }

    /// Serialize back to `.qdp` text (stable ordering; reparses to an equal
    /// catalog/instance/price set).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let schema = self.catalog.schema();
        for (_, rel) in schema.iter() {
            out.push_str(&format!(
                "schema {}({})\n",
                rel.name(),
                rel.attrs().join(", ")
            ));
        }
        for (rid, rel) in schema.iter() {
            for (pos, attr) in rel.attrs().iter().enumerate() {
                let col = self.catalog.column(AttrRef::new(rid, pos as u32));
                let vals: Vec<String> = col.iter().map(render_value).collect();
                out.push_str(&format!(
                    "column {}.{} = {{{}}}\n",
                    rel.name(),
                    attr,
                    vals.join(", ")
                ));
            }
        }
        for (rid, rel) in schema.iter() {
            let mut rows: Vec<&[Value]> = self.instance.relation(rid).iter().collect();
            rows.sort();
            for t in rows {
                let vals: Vec<String> = t.iter().map(render_value).collect();
                out.push_str(&format!("tuple {}({})\n", rel.name(), vals.join(", ")));
            }
        }
        for (aref, value, amount) in &self.prices {
            out.push_str(&format!(
                "price {}={} {}\n",
                schema.attr_display(*aref),
                render_value(value),
                amount
            ));
        }
        out
    }
}

/// Render a value in literal syntax that `parse_literal` accepts.
fn render_value(v: &Value) -> String {
    v.render_literal()
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

fn parse_value_list(s: &str) -> Option<Vec<Value>> {
    if s.trim().is_empty() {
        return Some(Vec::new());
    }
    s.split(',').map(Value::parse_literal).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrId, RelId};

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
