//! Property tests for the `.qdp` text format: randomly generated catalogs,
//! instances, and price directives round-trip through serialization.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use qbdp_catalog::{AttrRef, CatalogBuilder, Column, QdpFile, Tuple, Value};

#[derive(Debug, Clone)]
struct RandomMarket {
    /// Relation arities (1..=3), up to 3 relations.
    arities: Vec<usize>,
    /// Column sizes per relation per attribute (1..=4 values).
    col_sizes: Vec<Vec<usize>>,
    /// Tuples per relation as value indices.
    tuples: Vec<Vec<Vec<usize>>>,
    /// Price directives: (relation, attribute, value index, cents).
    prices: Vec<(usize, usize, usize, u64)>,
    /// Whether columns use text or integer values.
    text_values: bool,
}

fn market_strategy() -> impl Strategy<Value = RandomMarket> {
    (proptest::collection::vec(1usize..=3, 1..=3), any::<bool>()).prop_flat_map(
        |(arities, text_values)| {
            let n_rels = arities.len();
            let col_sizes = arities
                .iter()
                .map(|&a| proptest::collection::vec(1usize..=4, a..=a))
                .collect::<Vec<_>>();
            let arities2 = arities.clone();
            (
                Just(arities),
                col_sizes,
                proptest::collection::vec(
                    (
                        0..n_rels,
                        proptest::collection::vec(0usize..4, 3),
                        1u64..10_000,
                    ),
                    0..6,
                ),
                proptest::collection::vec(
                    (0..n_rels, proptest::collection::vec(0usize..4, 3)),
                    0..8,
                ),
                Just(text_values),
            )
                .prop_map(
                    move |(arities, col_sizes, price_raw, tuple_raw, text_values)| {
                        let mut tuples: Vec<Vec<Vec<usize>>> = vec![Vec::new(); arities.len()];
                        for (rel, idxs) in tuple_raw {
                            let a = arities2[rel];
                            tuples[rel].push(idxs.into_iter().take(a).collect());
                        }
                        let prices = price_raw
                            .into_iter()
                            .map(|(rel, idxs, cents)| {
                                let attr = idxs[0] % arities2[rel];
                                (rel, attr, idxs[1], cents)
                            })
                            .collect();
                        RandomMarket {
                            arities,
                            col_sizes,
                            tuples,
                            prices,
                            text_values,
                        }
                    },
                )
        },
    )
}

fn build_file(m: &RandomMarket) -> QdpFile {
    let value = |rel: usize, attr: usize, idx: usize, size: usize| -> Value {
        let i = idx % size;
        if m.text_values {
            Value::text(format!("v{rel}-{attr}-{i}"))
        } else {
            Value::Int((rel * 100 + attr * 10 + i) as i64)
        }
    };
    let mut builder = CatalogBuilder::new();
    for (rel, &arity) in m.arities.iter().enumerate() {
        let attrs: Vec<(String, Column)> = (0..arity)
            .map(|attr| {
                let size = m.col_sizes[rel][attr];
                let col = Column::new((0..size).map(|i| value(rel, attr, i, size)));
                (format!("A{attr}"), col)
            })
            .collect();
        let attr_refs: Vec<(&str, Column)> =
            attrs.iter().map(|(n, c)| (n.as_str(), c.clone())).collect();
        builder = builder.relation(format!("Rel{rel}"), &attr_refs);
    }
    let catalog = builder.build().unwrap();
    let mut instance = catalog.empty_instance();
    for (rel, rows) in m.tuples.iter().enumerate() {
        for row in rows {
            let vals: Vec<Value> = row
                .iter()
                .enumerate()
                .map(|(attr, &idx)| value(rel, attr, idx, m.col_sizes[rel][attr]))
                .collect();
            let _ = instance.insert(qbdp_catalog::RelId(rel as u32), Tuple::new(vals));
        }
    }
    let mut prices = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for &(rel, attr, idx, cents) in &m.prices {
        let v = value(rel, attr, idx, m.col_sizes[rel][attr]);
        let aref = AttrRef::new(qbdp_catalog::RelId(rel as u32), attr as u32);
        if seen.insert((aref, v.clone())) {
            prices.push((aref, v, cents));
        }
    }
    QdpFile {
        catalog,
        instance,
        prices,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn qdp_roundtrip(m in market_strategy()) {
        let file = build_file(&m);
        let text = file.to_text();
        let parsed = QdpFile::parse(&text)
            .unwrap_or_else(|e| panic!("serialized qdp failed to parse: {e}\n{text}"));
        prop_assert_eq!(file.catalog.schema().as_ref(), parsed.catalog.schema().as_ref());
        for (rid, _) in file.catalog.schema().iter() {
            prop_assert_eq!(
                file.catalog.relation_columns(rid),
                parsed.catalog.relation_columns(rid)
            );
        }
        prop_assert!(file.instance.same_extension(&parsed.instance));
        let mut a = file.prices.clone();
        let mut b = parsed.prices.clone();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        // Serialization is canonical: a second round-trip is identical text.
        prop_assert_eq!(parsed.to_text(), text);
    }
}

/// Characters a generated text draws from: the `.qdp` delimiters and a
/// few ordinary ones.
const TEXT_CHARS: [char; 14] = [
    'a', 'Z', '5', '_', '-', ' ', ',', '#', ')', '(', '}', '=', '\'', '{',
];

/// Whether `s` has a `'` the format cannot write inside a quoted string:
/// one followed, spaces aside, by a delimiter (`,`, `)`, `}`, `#` or a
/// digit), which reads as the end of the string, or one after a `,`,
/// which reads as the opening quote of the next item.
fn unwritable_quote(s: &str) -> bool {
    s.match_indices('\'').any(|(i, _)| {
        s[i + 1..]
            .trim_start_matches(' ')
            .starts_with(|c: char| matches!(c, ',' | ')' | '}' | '#') || c.is_ascii_digit())
            || s[..i].trim_end_matches(' ').ends_with(',')
    })
}

/// A value of any kind the literal grammar has: an integer (negative
/// ones too), a bare identifier, the text `5`, or a text over
/// [`TEXT_CHARS`] that needs quoting.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1_000i64..1_000).prop_map(Value::Int),
        (0usize..50).prop_map(|i| Value::text(format!("id{i}_x-{}", i % 7))),
        Just(Value::text("5")),
        proptest::collection::vec(0usize..TEXT_CHARS.len(), 0..9).prop_map(|ix| {
            let s: String = ix.iter().map(|&i| TEXT_CHARS[i]).collect();
            if unwritable_quote(&s) {
                Value::text(s.replace('\'', "q"))
            } else {
                Value::text(s)
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse(to_text(f)) == f` for columns, tuples and prices over every
    /// kind of literal, quoted texts holding `,`, `#`, `)`, `=` and `'`
    /// included.
    #[test]
    fn every_literal_kind_roundtrips(
        xs in proptest::collection::vec(value_strategy(), 1..8),
        ys in proptest::collection::vec(value_strategy(), 1..8),
        rows in proptest::collection::vec((0usize..8, 0usize..8), 0..10),
        priced in proptest::collection::vec((0usize..8, 1u64..1_000), 0..6),
    ) {
        let (cx, cy) = (Column::new(xs), Column::new(ys));
        let catalog = CatalogBuilder::new()
            .relation("R", &[("X", cx.clone()), ("Y", cy.clone())])
            .relation("T", &[("Y", cy.clone())])
            .build()
            .unwrap();
        let (r, t) = (qbdp_catalog::RelId(0), qbdp_catalog::RelId(1));
        let mut instance = catalog.empty_instance();
        for &(i, j) in &rows {
            let (x, y) = (cx.value_at((i % cx.len()) as u32), cy.value_at((j % cy.len()) as u32));
            instance.insert(r, Tuple::new([x.clone(), y.clone()])).unwrap();
            instance.insert(t, Tuple::new([y.clone()])).unwrap();
        }
        let mut prices = Vec::new();
        for &(i, cents) in &priced {
            let v = cx.value_at((i % cx.len()) as u32).clone();
            if !prices.iter().any(|(_, w, _)| *w == v) {
                prices.push((AttrRef::new(r, 0), v, cents));
            }
        }
        let file = QdpFile { catalog, instance, prices };
        let text = file.to_text();
        let parsed = QdpFile::parse(&text)
            .unwrap_or_else(|e| panic!("serialized qdp failed to parse: {e}\n{text}"));
        for (rid, _) in file.catalog.schema().iter() {
            prop_assert_eq!(
                file.catalog.relation_columns(rid),
                parsed.catalog.relation_columns(rid)
            );
        }
        prop_assert!(file.instance.same_extension(&parsed.instance));
        prop_assert_eq!(&file.prices, &parsed.prices);
        prop_assert_eq!(parsed.to_text(), text);
    }
}
