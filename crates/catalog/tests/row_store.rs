//! The row store against plain scans.
//!
//! A relation keeps its rows once, in a flat arena, and builds each
//! attribute's index on first use. Over seeded random relations this
//! checks that:
//!
//! * [`Instance::retain_in`], which reads only the rows its narrowest
//!   attribute's index selects, keeps exactly the rows a scan keeps, in
//!   the same order, for `=`, `in` and range predicates, including
//!   shrunk columns larger than the attribute's active domain;
//! * `select`, `select_count` and `active_values` agree with a scan
//!   before an insert, after it, and on a clone sharing the relation,
//!   whichever indexes happened to be built before the insert.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qbdp_catalog::{AttrId, CatalogBuilder, Column, Instance, RelId, Relation, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random instance of one relation `R` of arity 1–3 over `{0, …, dom-1}`
/// per attribute, with up to 40 insert attempts (duplicates included).
fn random_relation(rng: &mut StdRng) -> (Instance, RelId, Vec<i64>) {
    let arity = rng.gen_range(1..=3usize);
    let doms: Vec<i64> = (0..arity).map(|_| rng.gen_range(1..=6)).collect();
    let names: Vec<String> = (0..arity).map(|i| format!("A{i}")).collect();
    let attrs: Vec<(&str, Column)> = names
        .iter()
        .zip(&doms)
        .map(|(n, &d)| (n.as_str(), Column::int_range(0, d)))
        .collect();
    let catalog = CatalogBuilder::new().relation("R", &attrs).build().unwrap();
    let rel = catalog.schema().rel_id("R").unwrap();
    let mut d = catalog.empty_instance();
    for _ in 0..rng.gen_range(0..=40) {
        d.insert(rel, random_row(rng, &doms)).unwrap();
    }
    (d, rel, doms)
}

fn random_row(rng: &mut StdRng, doms: &[i64]) -> Tuple {
    Tuple::new(doms.iter().map(|&d| Value::Int(rng.gen_range(0..d))))
}

/// A shrunk column for one attribute over `{0, …, dom-1}`: an `=`, an
/// `in` or a range predicate's values, sometimes reaching past the
/// domain so the column outgrows the attribute's active values.
fn random_shrunk_column(rng: &mut StdRng, dom: i64) -> Column {
    match rng.gen_range(0..4) {
        0 => Column::new([Value::Int(rng.gen_range(0..dom))]),
        1 => Column::new((0..rng.gen_range(0..=4)).map(|_| Value::Int(rng.gen_range(0..dom + 2)))),
        2 => {
            let lo = rng.gen_range(0..dom);
            Column::int_range(lo, lo + rng.gen_range(1..=dom))
        }
        _ => Column::int_range(-20, dom + 20),
    }
}

fn rows(rel: &Relation) -> Vec<Vec<Value>> {
    rel.iter().map(<[Value]>::to_vec).collect()
}

/// `select`, `select_count` and `active_values` on `attrs` against a
/// scan of the relation's rows.
fn assert_indexes_match_scan(rel: &Relation, attrs: &[usize], doms: &[i64], case: &str) {
    for &a in attrs {
        let attr = AttrId(a as u32);
        for v in (-1..=doms[a]).map(Value::Int) {
            let scan: Vec<&[Value]> = rel.iter().filter(|r| r[a] == v).collect();
            let selected: Vec<&[Value]> = rel.select(attr, &v).collect();
            assert_eq!(selected, scan, "{case}: select A{a}={v}");
            assert_eq!(
                rel.select_count(attr, &v),
                scan.len(),
                "{case}: count A{a}={v}"
            );
        }
        let mut active: Vec<&Value> = rel.active_values(attr).collect();
        active.sort();
        let mut scanned: Vec<&Value> = rel.iter().map(|r| &r[a]).collect();
        scanned.sort();
        scanned.dedup();
        assert_eq!(active, scanned, "{case}: active values of A{a}");
    }
}

#[test]
fn index_driven_filter_keeps_what_a_scan_keeps_in_order() {
    let mut rng = StdRng::seed_from_u64(0xA12E);
    for case in 0..400 {
        let (d, rel, doms) = random_relation(&mut rng);
        let arity = doms.len();
        let mut attrs: Vec<usize> = (0..arity).collect();
        attrs.retain(|_| rng.gen_bool(0.6));
        if attrs.is_empty() {
            attrs.push(rng.gen_range(0..arity));
        }
        let columns: Vec<Column> = attrs
            .iter()
            .map(|&a| random_shrunk_column(&mut rng, doms[a]))
            .collect();
        let shrunk: Vec<(AttrId, &Column)> = attrs
            .iter()
            .zip(&columns)
            .map(|(&a, c)| (AttrId(a as u32), c))
            .collect();

        let source = rows(d.relation(rel));
        let mut by_index = d.clone();
        by_index.retain_in(rel, &shrunk);
        let mut by_scan = d.clone();
        by_scan.retain(rel, |row| {
            shrunk.iter().all(|(a, c)| c.contains(&row[a.0 as usize]))
        });
        let case = format!("case {case}: attrs {attrs:?}, columns {columns:?}");
        assert_eq!(
            rows(by_index.relation(rel)),
            rows(by_scan.relation(rel)),
            "{case}"
        );
        // The filtered relation indexes its own rows, not its source's.
        let all: Vec<usize> = (0..arity).collect();
        assert_indexes_match_scan(by_index.relation(rel), &all, &doms, &case);
        // The source is untouched.
        assert_eq!(rows(d.relation(rel)), source, "{case}");
    }
}

#[test]
fn lazy_indexes_match_a_scan_across_inserts_and_clones() {
    let mut rng = StdRng::seed_from_u64(0x1A21);
    for case in 0..300 {
        let (mut d, rel, doms) = random_relation(&mut rng);
        let arity = doms.len();
        let all: Vec<usize> = (0..arity).collect();
        // Build only some indexes before the inserts.
        let early: Vec<usize> = all.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
        let case = format!("case {case}: early {early:?}");
        assert_indexes_match_scan(d.relation(rel), &early, &doms, &case);

        // A clone shares the relation, built indexes included.
        let shared = d.clone();
        assert!(std::ptr::eq(shared.relation(rel), d.relation(rel)));
        assert_indexes_match_scan(shared.relation(rel), &early, &doms, &case);
        let before = rows(shared.relation(rel));

        // Inserts into the shared relation copy it; inserts into the
        // now unshared copy update its built indexes in place.
        for _ in 0..rng.gen_range(1..=10) {
            let row = random_row(&mut rng, &doms);
            let new = !d.relation(rel).contains(row.values());
            assert_eq!(d.insert(rel, row).unwrap(), new, "{case}");
        }
        assert_indexes_match_scan(d.relation(rel), &all, &doms, &case);
        assert_eq!(rows(shared.relation(rel)), before, "{case}: clone changed");
        assert_indexes_match_scan(shared.relation(rel), &all, &doms, &case);

        // Every row is stored once, and every stored row is found.
        let stored = rows(d.relation(rel));
        let mut distinct = stored.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), stored.len(), "{case}: duplicate rows");
        assert!(stored.iter().all(|r| d.relation(rel).contains(r)), "{case}");
    }
}
