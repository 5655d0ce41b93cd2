//! PTIME pricing of **GChQ query bundles** (Definition 3.9).
//!
//! A GChQ bundle is a set of chain queries in which any two members share
//! only a common prefix and/or a common suffix of their atom sequences, and
//! their middles use disjoint relation names. The conference paper defers
//! the bundle algorithm to the full version; the construction implemented
//! here is the natural extension of Step 4, justified by the same
//! invariant:
//!
//! * build **one** graph (with [`ChainGraph::build`]) whose view edges are
//!   shared per attribute-value (each selection view is one finite edge,
//!   priced once — this is where bundle subadditivity materializes) and
//!   whose tuple edges are shared per binary relation;
//! * add each member's skip edges from its own partial answers.
//!
//! Soundness of the union: determinacy of a bundle is determinacy of every
//! member (Lemma 2.6(b)), i.e. the constraint set is the union of the
//! members' constraint sets, i.e. the path set must be the union of the
//! members' path sets. Paths cannot mix members beyond that union because
//! * in a **shared prefix**, `Lt` and intra-prefix `Md` depend only on the
//!   shared atoms, so all members contribute identical skip edges there;
//! * in a **shared suffix**, `Rt` and intra-suffix `Md` likewise coincide;
//! * the **middles are relation-disjoint**, so no edges connect one
//!   member's middle to another's — any s–t path stays within a single
//!   member's edge set (up to edges that are identical across members).
//!
//! The min-cut therefore equals the bundle's arbitrage-price; this is
//! cross-validated against the exact bundle-certificate engine in the
//! tests and in `tests/` at the workspace root.

use super::graph::ChainGraph;
use crate::error::PricingError;
use crate::money::Price;
use crate::normalize::Problem;
use crate::price_points::PriceList;
use qbdp_catalog::{Catalog, Instance, RelId};
use qbdp_determinacy::selection::SelectionView;
use qbdp_flow::Unmetered;
use qbdp_query::ast::ConjunctiveQuery;
use qbdp_query::chain::{ChainQuery, PartialAnswers};

/// Result of pricing a chain bundle.
#[derive(Clone, Debug)]
pub struct BundlePriceResult {
    /// The bundle's arbitrage-price.
    pub price: Price,
    /// The purchased views (the min cut), resolved through provenance.
    pub views: Vec<SelectionView>,
    /// Graph size `(nodes, edges)`.
    pub graph_size: (usize, usize),
}

/// Price a bundle of chain queries sharing prefixes/suffixes per
/// Definition 3.9. Every member must already be in chain form (the Step 1–3
/// normalizations are per-query and must have been applied by the caller —
/// the façade only routes already-chain bundles here).
pub fn chain_bundle_price(
    catalog: &Catalog,
    instance: &Instance,
    prices: &PriceList,
    members: &[ConjunctiveQuery],
    provenance: &crate::normalize::Provenance,
) -> Result<BundlePriceResult, PricingError> {
    let chains: Vec<ChainQuery> = members
        .iter()
        .map(|q| ChainQuery::from_cq(q).map_err(|e| PricingError::NotApplicable(e.to_string())))
        .collect::<Result<_, _>>()?;
    validate_definition_3_9(&chains)?;
    let members: Vec<(ChainQuery, PartialAnswers)> = chains
        .into_iter()
        .map(|c| {
            let pa = c.partial_answers(catalog, instance);
            (c, pa)
        })
        .collect();
    let cg = ChainGraph::build(catalog, prices, &members, None);
    let flow = cg
        .solve(&Unmetered)
        .map_err(|_| PricingError::Internal("unmetered max flow interrupted".into()))?;
    let cut = cg.cut(&flow);
    Ok(BundlePriceResult {
        price: cut.price,
        views: provenance.resolve_all(&cut.views),
        graph_size: (cg.graph.num_nodes(), cg.graph.num_edges()),
    })
}

/// Convenience over a [`Problem`]-shaped input (single provenance).
pub fn chain_bundle_price_problem(
    problem: &Problem,
    members: &[ConjunctiveQuery],
) -> Result<BundlePriceResult, PricingError> {
    chain_bundle_price(
        &problem.catalog,
        &problem.instance,
        &problem.prices,
        members,
        &problem.provenance,
    )
}

/// Check Definition 3.9 pairwise: the shared relations of any two members
/// must lie within a common atom-prefix and/or common atom-suffix, with
/// identical chain structure there.
fn validate_definition_3_9(chains: &[ChainQuery]) -> Result<(), PricingError> {
    // No member may repeat a relation (chains are self-join-free already),
    // and each relation must have a consistent left/right orientation
    // wherever it appears.
    for (x, a) in chains.iter().enumerate() {
        for b in chains.iter().skip(x + 1) {
            let pfx = common_prefix(a, b);
            let sfx = common_suffix(a, b);
            let shared_ok = |rel: RelId| {
                a.atoms()
                    .iter()
                    .position(|at| at.rel == rel)
                    .is_some_and(|ia| {
                        let ka = a.k();
                        ia < pfx || ia + sfx > ka
                    })
            };
            for atom_b in b.atoms() {
                let shared = a.atoms().iter().any(|at| at.rel == atom_b.rel);
                if shared && !shared_ok(atom_b.rel) {
                    return Err(PricingError::NotApplicable(format!(
                        "not a Definition 3.9 bundle: relation R#{} is shared outside the \
                         common prefix/suffix",
                        atom_b.rel.0
                    )));
                }
            }
        }
    }
    Ok(())
}

fn atoms_equal(a: &qbdp_query::chain::ChainAtom, b: &qbdp_query::chain::ChainAtom) -> bool {
    a.rel == b.rel && a.left_pos == b.left_pos && a.right_pos == b.right_pos && a.unary == b.unary
}

fn common_prefix(a: &ChainQuery, b: &ChainQuery) -> usize {
    a.atoms()
        .iter()
        .zip(b.atoms())
        .take_while(|(x, y)| atoms_equal(x, y))
        .count()
}

fn common_suffix(a: &ChainQuery, b: &ChainQuery) -> usize {
    a.atoms()
        .iter()
        .rev()
        .zip(b.atoms().iter().rev())
        .take_while(|(x, y)| atoms_equal(x, y))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::certificates::{certificate_price_bundle, CertificateConfig};
    use qbdp_catalog::{CatalogBuilder, Column, Value};
    use qbdp_query::parser::parse_rule;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The paper's own bundle example (after Definition 3.9):
    /// `{S(x,y), R(y,z), U(z)}`, `{S(x,y), T(y,z)}`, `{S(x,y), T(y,z), U(z)}`
    /// — shared prefix `S`, shared suffix `U` for the 1st/3rd members.
    /// Adapted to chain form with unary caps.
    fn paper_bundle() -> (Catalog, Vec<ConjunctiveQuery>) {
        let col = Column::int_range(0, 3);
        let cat = CatalogBuilder::new()
            .uniform_relation("A", &["X"], &col) // shared first cap
            .uniform_relation("S", &["X", "Y"], &col)
            .uniform_relation("R", &["X", "Y"], &col)
            .uniform_relation("T", &["X", "Y"], &col)
            .uniform_relation("U", &["X"], &col)
            .uniform_relation("W", &["X"], &col)
            .build()
            .unwrap();
        let q1 = parse_rule(cat.schema(), "Q1(x, y, z) :- A(x), S(x, y), R(y, z), U(z)").unwrap();
        let q2 = parse_rule(cat.schema(), "Q2(x, y, z) :- A(x), S(x, y), T(y, z), W(z)").unwrap();
        let q3 = parse_rule(cat.schema(), "Q3(x, y, z) :- A(x), S(x, y), T(y, z), U(z)").unwrap();
        (cat, vec![q1, q2, q3])
    }

    #[test]
    fn bundle_price_matches_exact_on_random_instances() {
        let (cat, members) = paper_bundle();
        let mut rng = StdRng::seed_from_u64(39);
        for case in 0..12 {
            let mut d = cat.empty_instance();
            for (rid, _) in cat.schema().iter() {
                qbdp_workload_free_insert(&cat, &mut d, rid, &mut rng, 4);
            }
            let mut prices = PriceList::new();
            for attr in cat.schema().all_attrs() {
                for v in cat.column(attr).iter() {
                    prices.set(
                        SelectionView::new(attr, v.clone()),
                        Price::dollars(rng.gen_range(1..=4)),
                    );
                }
            }
            let flow = chain_bundle_price(
                &cat,
                &d,
                &prices,
                &members,
                &crate::normalize::Provenance::identity(),
            )
            .unwrap();
            let member_refs: Vec<&ConjunctiveQuery> = members.iter().collect();
            let exact = certificate_price_bundle(
                &cat,
                &d,
                &prices,
                &member_refs,
                CertificateConfig::default(),
            )
            .unwrap();
            assert_eq!(flow.price, exact.price, "case {case}");
            // Subadditivity vs individual chain prices.
            let sum: Price = members
                .iter()
                .map(|q| {
                    let p = Problem::new(cat.clone(), d.clone(), prices.clone(), q.clone());
                    super::super::price::chain_price(&p).unwrap().price
                })
                .sum();
            assert!(flow.price <= sum, "case {case}: bundle above sum");
        }
    }

    /// Simple deterministic insert helper (avoids a workload dev-dependency
    /// cycle).
    fn qbdp_workload_free_insert(
        cat: &Catalog,
        d: &mut Instance,
        rid: RelId,
        rng: &mut StdRng,
        count: usize,
    ) {
        let arity = cat.schema().relation(rid).arity();
        for _ in 0..count {
            let t = qbdp_catalog::Tuple::new((0..arity).map(|_| Value::Int(rng.gen_range(0..3))));
            let _ = d.insert(rid, t);
        }
    }

    #[test]
    fn non_bundle_sharing_rejected() {
        // Two chains sharing a relation in the MIDDLE (not prefix/suffix).
        let col = Column::int_range(0, 2);
        let cat = CatalogBuilder::new()
            .uniform_relation("A", &["X"], &col)
            .uniform_relation("B", &["X"], &col)
            .uniform_relation("M", &["X", "Y"], &col)
            .uniform_relation("P", &["X", "Y"], &col)
            .uniform_relation("C", &["X"], &col)
            .uniform_relation("E", &["X"], &col)
            .build()
            .unwrap();
        // M is shared but surrounded by different caps on both sides.
        let q1 = parse_rule(cat.schema(), "Q1(x, y) :- A(x), M(x, y), C(y)").unwrap();
        let q2 = parse_rule(cat.schema(), "Q2(x, y) :- B(x), M(x, y), E(y)").unwrap();
        let err = chain_bundle_price(
            &cat,
            &cat.empty_instance(),
            &PriceList::uniform(&cat, Price::dollars(1)),
            &[q1, q2],
            &crate::normalize::Provenance::identity(),
        );
        assert!(matches!(err, Err(PricingError::NotApplicable(_))));
    }

    #[test]
    fn singleton_bundle_equals_chain_price() {
        let (cat, members) = paper_bundle();
        let mut d = cat.empty_instance();
        d.insert(cat.schema().rel_id("A").unwrap(), qbdp_catalog::tuple![0])
            .unwrap();
        d.insert(
            cat.schema().rel_id("S").unwrap(),
            qbdp_catalog::tuple![0, 1],
        )
        .unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(2));
        let one = &members[0];
        let bundle = chain_bundle_price(
            &cat,
            &d,
            &prices,
            std::slice::from_ref(one),
            &crate::normalize::Provenance::identity(),
        )
        .unwrap();
        let p = Problem::new(cat.clone(), d, prices, one.clone());
        let single = super::super::price::chain_price(&p).unwrap();
        assert_eq!(bundle.price, single.price);
    }

    /// The members share one block per attribute and one hub per binary
    /// relation; only skip edges are per member.
    #[test]
    fn bundle_graph_shares_blocks_and_hubs() {
        let (cat, members) = paper_bundle();
        let mut d = cat.empty_instance();
        d.insert(cat.schema().rel_id("A").unwrap(), qbdp_catalog::tuple![0])
            .unwrap();
        d.insert(
            cat.schema().rel_id("S").unwrap(),
            qbdp_catalog::tuple![0, 1],
        )
        .unwrap();
        d.insert(
            cat.schema().rel_id("T").unwrap(),
            qbdp_catalog::tuple![1, 2],
        )
        .unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        let r = chain_bundle_price(
            &cat,
            &d,
            &prices,
            &members,
            &crate::normalize::Provenance::identity(),
        )
        .unwrap();
        // 9 attributes (A.X, S.X, S.Y, R.X, R.Y, T.X, T.Y, U.X, W.X) of 3
        // values each: one v/w node pair and one view edge per value.
        // 3 binary relations (S, R, T): one hub node and 3 + 3 edges each.
        let skips: usize = members
            .iter()
            .map(|q| {
                let chain = ChainQuery::from_cq(q).unwrap();
                let pa = chain.partial_answers(&cat, &d);
                let k = chain.k();
                let ends: usize = (0..=k).map(|i| pa.lt(i).len() + pa.rt(i).len()).sum();
                let middles: usize = (1..=k)
                    .flat_map(|i| ((i - 1)..k).map(move |j| (i, j)))
                    .map(|(i, j)| pa.md(i, j).len())
                    .sum();
                ends + middles
            })
            .sum();
        assert!(skips > 0);
        assert_eq!(
            r.graph_size,
            (2 + 2 * 9 * 3 + 3, 9 * 3 + 3 * (3 + 3) + skips)
        );
    }

    #[test]
    fn empty_bundle_is_free() {
        let (cat, _) = paper_bundle();
        let r = chain_bundle_price(
            &cat,
            &cat.empty_instance(),
            &PriceList::uniform(&cat, Price::dollars(1)),
            &[],
            &crate::normalize::Provenance::identity(),
        )
        .unwrap();
        assert_eq!(r.price, Price::ZERO);
    }
}
