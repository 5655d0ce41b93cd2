//! Differential test of Step 4 over dense column indices.
//!
//! `ChainQuery::partial_answers` computes `Lt`, `Rt` and `Md` over dense
//! indices of the position columns, and `ChainGraph::build` lays the
//! network out by attribute blocks. Both are checked here against a
//! reference written from the paper's definitions on value sets: the
//! partial answers as a dynamic program over `Value`s, and the network
//! with one node per `(attribute, value)` found through an ordered map.
//! Random chains of `k = 0..=4` run over columns that are shared (one
//! `Column` object), merely equal, or overlapping (a true intersection),
//! with empty relations, unpriced views, a Definition 3.9 bundle and §4
//! pair prices. The decoded tables, the price, the sorted cut views and
//! the network's size must all agree.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use qbdp_catalog::{AttrRef, Catalog, CatalogBuilder, Column, Instance, Tuple, Value};
use qbdp_core::chain::multi_attr::{PairPriceList, PairView};
use qbdp_core::chain::ChainGraph;
use qbdp_core::price_points::PriceList;
use qbdp_core::Price;
use qbdp_determinacy::selection::SelectionView;
use qbdp_flow::{dinic, FlowGraph, NodeId, Unmetered, INF};
use qbdp_query::chain::{ChainQuery, PartialAnswers};
use qbdp_query::parser::parse_rule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// A random market holding a chain `R0 … Rk` and a second chain
/// `R0(x0), M(x0, y), E(y)` sharing its first atom.
struct World {
    catalog: Catalog,
    instance: Instance,
    prices: PriceList,
    pairs: PairPriceList,
    chain: ChainQuery,
    other: ChainQuery,
}

fn ints(values: &[i64]) -> Column {
    Column::new(values.iter().map(|&v| Value::Int(v)))
}

fn world(seed: u64, k: usize) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    // One shared object, an equal copy of it, and two overlapping columns.
    let shared = Column::int_range(0, 6);
    let pool = [
        shared.clone(),
        shared.clone(),
        Column::int_range(0, 6),
        Column::int_range(2, 8),
        ints(&[0, 2, 4, 6, 8]),
    ];
    let pick = |rng: &mut StdRng| pool[rng.gen_range(0..pool.len())].clone();

    // Atom shapes: unary ends, random middles; a binary atom may hold its
    // chain-right variable first.
    let mut atoms: Vec<(bool, bool)> = Vec::new(); // (unary, swapped)
    for i in 0..=k {
        let unary = i == 0 || i == k || rng.gen_bool(0.4);
        atoms.push((unary, !unary && rng.gen_bool(0.5)));
    }
    let mut builder = CatalogBuilder::new();
    let mut body = Vec::new();
    let mut var = 0;
    for (i, &(unary, swapped)) in atoms.iter().enumerate() {
        let name = format!("R{i}");
        if unary {
            builder = builder.relation(&name, &[("A", pick(&mut rng))]);
            body.push(format!("{name}(x{var})"));
        } else {
            builder = builder.relation(&name, &[("A", pick(&mut rng)), ("B", pick(&mut rng))]);
            let (a, b) = if swapped {
                (var + 1, var)
            } else {
                (var, var + 1)
            };
            body.push(format!("{name}(x{a}, x{b})"));
            var += 1;
        }
    }
    builder = builder
        .relation("M", &[("A", pick(&mut rng)), ("B", pick(&mut rng))])
        .relation("E", &[("A", pick(&mut rng))]);
    let catalog = builder.build().unwrap();

    let density = [0.0, 0.2, 0.5, 0.9][rng.gen_range(0..4)];
    let mut instance = catalog.empty_instance();
    for (rel, schema) in catalog.schema().iter() {
        let cols: Vec<&Column> = (0..schema.arity())
            .map(|p| catalog.column(AttrRef::new(rel, p as u32)))
            .collect();
        let rows: Vec<Vec<Value>> = match cols.as_slice() {
            [a] => a.iter().map(|x| vec![x.clone()]).collect(),
            [a, b] => a
                .iter()
                .flat_map(|x| b.iter().map(move |y| vec![x.clone(), y.clone()]))
                .collect(),
            _ => unreachable!("unary and binary relations only"),
        };
        for row in rows {
            if rng.gen_bool(density) {
                instance.insert(rel, Tuple::new(row)).unwrap();
            }
        }
    }

    let mut prices = PriceList::new();
    for attr in catalog.schema().all_attrs() {
        for v in catalog.column(attr).iter() {
            if !rng.gen_bool(0.15) {
                let price = Price::dollars(rng.gen_range(0..=5));
                prices.set(SelectionView::new(attr, v.clone()), price);
            }
        }
    }

    let mut pairs = PairPriceList::new();
    let schema = catalog.schema();
    let chain = ChainQuery::from_cq(
        &parse_rule(
            schema,
            &format!(
                "Q({}) :- {}",
                (0..=var)
                    .map(|v| format!("x{v}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                body.join(", ")
            ),
        )
        .unwrap(),
    )
    .unwrap();
    for (i, atom) in chain.atoms().iter().enumerate() {
        if atom.unary {
            continue;
        }
        let (left, right) = (
            catalog.column(chain.left_attr(i)),
            catalog.column(chain.right_attr(i)),
        );
        for a in left.iter() {
            for b in right.iter() {
                if rng.gen_bool(0.3) {
                    let price = Price::dollars(rng.gen_range(1..=5));
                    pairs.set(atom.rel, a.clone(), b.clone(), price);
                }
            }
        }
    }
    let other =
        ChainQuery::from_cq(&parse_rule(schema, "Q(x0, y) :- R0(x0), M(x0, y), E(y)").unwrap())
            .unwrap();
    World {
        catalog,
        instance,
        prices,
        pairs,
        chain,
        other,
    }
}

/// The partial answers on value sets, from their definitions.
struct Reference {
    lt: Vec<BTreeSet<Value>>,
    rt: Vec<BTreeSet<Value>>,
    /// `Md[i:j]` keyed by `(i, j)`.
    md: BTreeMap<(usize, usize), BTreeSet<(Value, Value)>>,
    /// Whether `Q(D) ≠ ∅`.
    answers: bool,
}

fn reference(catalog: &Catalog, d: &Instance, chain: &ChainQuery) -> Reference {
    let k = chain.k();
    let set = |c: &Column| c.iter().cloned().collect::<BTreeSet<Value>>();
    // Col_{x_p}: the attribute columns on both sides of position p.
    let cols: Vec<BTreeSet<Value>> = (0..=k + 1)
        .map(|p| {
            if p == 0 {
                set(catalog.column(chain.left_attr(0)))
            } else if p == k + 1 {
                set(catalog.column(chain.right_attr(k)))
            } else {
                let right = set(catalog.column(chain.left_attr(p)));
                set(catalog.column(chain.right_attr(p - 1)))
                    .intersection(&right)
                    .cloned()
                    .collect()
            }
        })
        .collect();
    let steps = |i: usize| -> Vec<(Value, Value)> {
        let atom = &chain.atoms()[i];
        d.relation(atom.rel)
            .iter()
            .map(|t| (t[atom.left_pos].clone(), t[atom.right_pos].clone()))
            .collect()
    };
    let mut lt = vec![cols[0].clone()];
    for i in 0..k {
        let next = steps(i)
            .into_iter()
            .filter(|(a, b)| lt[i].contains(a) && cols[i + 1].contains(b))
            .map(|(_, b)| b)
            .collect();
        lt.push(next);
    }
    let mut rt = vec![BTreeSet::new(); k + 1];
    rt[k] = cols[k + 1].clone();
    for j in (1..=k).rev() {
        rt[j - 1] = steps(j)
            .into_iter()
            .filter(|(a, b)| rt[j].contains(b) && cols[j].contains(a))
            .map(|(a, _)| a)
            .collect();
    }
    let mut md = BTreeMap::new();
    for i in 1..=k {
        let mut prev: BTreeSet<(Value, Value)> =
            cols[i].iter().map(|v| (v.clone(), v.clone())).collect();
        md.insert((i, i - 1), prev.clone());
        for j in i..k {
            let mut next = BTreeSet::new();
            for (b, c) in steps(j) {
                if !cols[j + 1].contains(&c) {
                    continue;
                }
                for (a, _) in prev.iter().filter(|(_, end)| *end == b) {
                    next.insert((a.clone(), c.clone()));
                }
            }
            md.insert((i, j), next.clone());
            prev = next;
        }
    }
    let answers = if k == 0 {
        steps(0).iter().any(|(a, _)| cols[0].contains(a))
    } else {
        lt[k].intersection(&rt[k - 1]).next().is_some()
    };
    Reference {
        lt,
        rt,
        md,
        answers,
    }
}

/// A solved network: its price, sorted cut views and `(nodes, edges)`.
#[derive(Debug, PartialEq)]
struct Solved {
    price: Price,
    views: Vec<SelectionView>,
    pair_views: Vec<PairView>,
    size: (usize, usize),
}

/// The Step 4 network built straight from the definitions, with nodes
/// found by `(attribute, value)`.
fn reference_network(
    catalog: &Catalog,
    prices: &PriceList,
    members: &[(&ChainQuery, &Reference)],
    pairs: Option<&PairPriceList>,
) -> Solved {
    let mut g = FlowGraph::new();
    let (s, t) = (g.add_node(), g.add_node());
    let mut nodes: BTreeMap<(AttrRef, Value), (NodeId, NodeId)> = BTreeMap::new();
    let mut views = BTreeMap::new();
    let mut pair_of = BTreeMap::new();
    for (chain, _) in members {
        for i in 0..=chain.k() {
            for attr in [chain.left_attr(i), chain.right_attr(i)] {
                if nodes.keys().any(|(a, _)| *a == attr) {
                    continue;
                }
                for value in catalog.column(attr).iter() {
                    let (v, w) = (g.add_node(), g.add_node());
                    let price = prices.get_at(attr, value);
                    let e = g.add_edge(v, w, price.as_capacity());
                    views.insert(e, SelectionView::new(attr, value.clone()));
                    nodes.insert((attr, value.clone()), (v, w));
                }
            }
        }
    }
    let mut tupled = BTreeSet::new();
    for (chain, _) in members {
        for (i, atom) in chain.atoms().iter().enumerate() {
            if atom.unary || !tupled.insert(atom.rel) {
                continue;
            }
            let (la, ra) = (chain.left_attr(i), chain.right_attr(i));
            match pairs {
                None => {
                    let hub = g.add_node();
                    for a in catalog.column(la).iter() {
                        g.add_edge(nodes[&(la, a.clone())].1, hub, INF);
                    }
                    for b in catalog.column(ra).iter() {
                        g.add_edge(hub, nodes[&(ra, b.clone())].0, INF);
                    }
                }
                Some(pairs) => {
                    for a in catalog.column(la).iter() {
                        for b in catalog.column(ra).iter() {
                            let price = pairs.get(atom.rel, a, b);
                            let (w, v) = (nodes[&(la, a.clone())].1, nodes[&(ra, b.clone())].0);
                            let e = g.add_edge(w, v, price.as_capacity());
                            let (rel, left, right) = (atom.rel, a.clone(), b.clone());
                            pair_of.insert(e, PairView { rel, left, right });
                        }
                    }
                }
            }
        }
    }
    for (chain, r) in members {
        let k = chain.k();
        for i in 0..=k {
            for a in &r.lt[i] {
                g.add_edge(s, nodes[&(chain.left_attr(i), a.clone())].0, INF);
            }
            for b in &r.rt[i] {
                g.add_edge(nodes[&(chain.right_attr(i), b.clone())].1, t, INF);
            }
        }
        for ((i, j), md) in &r.md {
            for (b, a) in md {
                let w = nodes[&(chain.right_attr(i - 1), b.clone())].1;
                let v = nodes[&(chain.left_attr(j + 1), a.clone())].0;
                g.add_edge(w, v, INF);
            }
        }
    }
    let flow = dinic(&g, s, t);
    let price = Price::from_cut_value(flow.value);
    let mut solved = Solved {
        price,
        views: Vec::new(),
        pair_views: Vec::new(),
        size: (g.num_nodes(), g.num_edges()),
    };
    if price.is_finite() {
        for e in flow.min_cut_edges(&g, s) {
            if let Some(view) = views.get(&e) {
                solved.views.push(view.clone());
            } else if let Some(pair) = pair_of.get(&e) {
                solved.pair_views.push(pair.clone());
            }
        }
    }
    solved.views.sort();
    solved.pair_views.sort();
    solved
}

fn solve(
    catalog: &Catalog,
    prices: &PriceList,
    members: &[(ChainQuery, PartialAnswers)],
    pairs: Option<&PairPriceList>,
) -> Solved {
    let network = ChainGraph::build(catalog, prices, members, pairs);
    let cut = network.cut(&network.solve(&Unmetered).unwrap());
    let (mut views, mut pair_views) = (cut.views, cut.pair_views);
    views.sort();
    pair_views.sort();
    Solved {
        price: cut.price,
        views,
        pair_views,
        size: (network.graph.num_nodes(), network.graph.num_edges()),
    }
}

/// The decoded dense tables equal the value-set reference.
fn check_tables(pa: &PartialAnswers, r: &Reference) -> Result<(), TestCaseError> {
    let k = pa.k();
    for i in 0..=k {
        let lt: BTreeSet<Value> = pa.lt_values(i).cloned().collect();
        prop_assert_eq!(&lt, &r.lt[i], "Lt_{}", i);
        prop_assert_eq!(pa.lt(i).len(), lt.len());
        let rt: BTreeSet<Value> = pa.rt_values(i).cloned().collect();
        prop_assert_eq!(&rt, &r.rt[i], "Rt_{}", i);
        prop_assert_eq!(pa.rt(i).len(), rt.len());
    }
    for ((i, j), want) in &r.md {
        let md: Vec<(Value, Value)> = pa
            .md_values(*i, *j)
            .map(|(a, b)| (a.clone(), b.clone()))
            .collect();
        prop_assert_eq!(md.len(), want.len(), "Md[{}:{}] has duplicates", i, j);
        let md: BTreeSet<(Value, Value)> = md.into_iter().collect();
        prop_assert_eq!(&md, want, "Md[{}:{}]", i, j);
    }
    prop_assert_eq!(pa.has_answers(), r.answers);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_step4_matches_the_value_set_reference(seed in any::<u64>(), k in 0usize..5) {
        let w = world(seed, k);
        let (cat, d, prices) = (&w.catalog, &w.instance, &w.prices);
        let pa = w.chain.partial_answers(cat, d);
        let r = reference(cat, d, &w.chain);
        check_tables(&pa, &r)?;
        let other_pa = w.other.partial_answers(cat, d);
        let other_r = reference(cat, d, &w.other);
        check_tables(&other_pa, &other_r)?;

        let one = [(w.chain.clone(), pa)];
        let reference_one = [(&w.chain, &r)];
        // The hub network, then the literal one with §4 pair prices.
        prop_assert_eq!(
            solve(cat, prices, &one, None),
            reference_network(cat, prices, &reference_one, None)
        );
        prop_assert_eq!(
            solve(cat, prices, &one, Some(&w.pairs)),
            reference_network(cat, prices, &reference_one, Some(&w.pairs))
        );
        // A Definition 3.9 bundle sharing R0.
        let [(chain, pa)] = one;
        let bundle = [(chain, pa), (w.other.clone(), other_pa)];
        prop_assert_eq!(
            solve(cat, prices, &bundle, None),
            reference_network(cat, prices, &[(&w.chain, &r), (&w.other, &other_r)], None)
        );
    }
}
