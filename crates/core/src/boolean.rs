//! Pricing boolean queries (dichotomy case 3).
//!
//! A boolean `Q` asks only whether any satisfying assignment exists, so
//! instance-based determinacy splits on `Q(D)`:
//!
//! * **`Q(D)` true**: `V` determines `Q` iff it *secures* at least one
//!   witness — every base tuple of some satisfying assignment is covered
//!   (then every consistent world contains that witness). Otherwise, for
//!   each witness remove one uncovered tuple: the resulting world is
//!   consistent and makes `Q` false. The price is therefore the minimum,
//!   over satisfying assignments, of the cheapest cover of the witness's
//!   tuples (a tiny set-cover, since atoms are few).
//! * **`Q(D)` false**: `V` must certify emptiness — exactly the non-answer
//!   certificates of the *fullified* query `Q_f`, whose answer on `D` is
//!   empty. So `p(Q) = p(Q_f)`, and `Q_f` is priced by whatever engine its
//!   class warrants (flow for GChQ shapes — this is why the dichotomy says
//!   boolean queries inherit `Q_f`'s complexity).

use crate::error::PricingError;
use crate::exact::hitting_set::solve_hitting_set;
use crate::money::Price;
use crate::price_points::PriceList;
use qbdp_catalog::{AttrRef, Catalog, Instance};
use qbdp_determinacy::selection::SelectionView;
use qbdp_query::ast::{ConjunctiveQuery, Term};
use qbdp_query::eval::satisfying_assignments;

/// The witness-cover price for a boolean query that is **true** on `D`:
/// min over satisfying assignments of the cheapest full cover of the
/// witness's base tuples. Returns the price and the views.
pub fn secure_witness_price(
    catalog: &Catalog,
    d: &Instance,
    prices: &PriceList,
    q: &ConjunctiveQuery,
) -> Result<(Price, Vec<SelectionView>), PricingError> {
    let _ = catalog; // witness tuples are within columns by the inclusion constraint
    let vars = q.body_vars();
    let assignments = satisfying_assignments(q, d)?;
    let mut best = Price::INFINITE;
    let mut best_views: Vec<SelectionView> = Vec::new();
    for assignment in assignments {
        // Instantiate the witness.
        #[expect(
            clippy::expect_used,
            reason = "assignments are generated over exactly these vars"
        )]
        let value_of = |v: qbdp_query::ast::Var| {
            let i = vars.iter().position(|&w| w == v).expect("body var");
            assignment.get(i).clone()
        };
        // Candidate views and per-tuple constraints for a tiny set cover
        // (views can be shared across tuples when the query has self-joins).
        let mut elements: Vec<SelectionView> = Vec::new();
        let mut weights: Vec<Price> = Vec::new();
        let mut constraints: Vec<Vec<u32>> = Vec::new();
        let mut feasible = true;
        for atom in q.atoms() {
            let tuple: Vec<_> = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => c.clone(),
                    Term::Var(v) => value_of(*v),
                })
                .collect();
            let mut constraint = Vec::new();
            for (pos, value) in tuple.iter().enumerate() {
                let view = SelectionView::new(AttrRef::new(atom.rel, pos as u32), value.clone());
                let price = prices.get(&view);
                if price.is_finite() {
                    let id = match elements.iter().position(|e| *e == view) {
                        Some(i) => i as u32,
                        None => {
                            elements.push(view);
                            weights.push(price);
                            (elements.len() - 1) as u32
                        }
                    };
                    constraint.push(id);
                }
            }
            if constraint.is_empty() {
                feasible = false;
                break;
            }
            constraints.push(constraint);
        }
        if !feasible {
            continue;
        }
        let hs = solve_hitting_set(&weights, &constraints);
        if hs.weight < best {
            best = hs.weight;
            best_views = hs
                .chosen
                .iter()
                .map(|&i| elements[i as usize].clone())
                .collect();
        }
    }
    Ok((best, best_views))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbdp_catalog::{tuple, CatalogBuilder, Column, Value};
    use qbdp_query::parser::parse_rule;

    #[test]
    fn cheapest_witness_wins() {
        let col = Column::int_range(0, 3);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X"], &col)
            .uniform_relation("S", &["X", "Y"], &col)
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        let r = cat.schema().rel_id("R").unwrap();
        let s = cat.schema().rel_id("S").unwrap();
        d.insert_all(r, [tuple![0], tuple![1]]).unwrap();
        d.insert_all(s, [tuple![0, 2], tuple![1, 1]]).unwrap();
        let mut prices = PriceList::uniform(&cat, Price::dollars(5));
        // Make witness (x=1, y=1) cheap: σ_{R.X=1} $1, σ_{S.Y=1} $1.
        let rx = cat.schema().resolve_attr("R.X").unwrap();
        let sy = cat.schema().resolve_attr("S.Y").unwrap();
        prices.set(SelectionView::new(rx, Value::Int(1)), Price::dollars(1));
        prices.set(SelectionView::new(sy, Value::Int(1)), Price::dollars(1));
        let q = parse_rule(cat.schema(), "B() :- R(x), S(x, y)").unwrap();
        let (price, views) = secure_witness_price(&cat, &d, &prices, &q).unwrap();
        assert_eq!(price, Price::dollars(2));
        assert_eq!(views.len(), 2);
    }

    #[test]
    fn unpriced_witness_tuples_skip_assignment() {
        let col = Column::int_range(0, 2);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X"], &col)
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        let r = cat.schema().rel_id("R").unwrap();
        d.insert_all(r, [tuple![0], tuple![1]]).unwrap();
        let mut prices = PriceList::new();
        let rx = cat.schema().resolve_attr("R.X").unwrap();
        // Only R.X=1 is priced: witness x=0 is unsecurable, x=1 costs $4.
        prices.set(SelectionView::new(rx, Value::Int(1)), Price::dollars(4));
        let q = parse_rule(cat.schema(), "B() :- R(x)").unwrap();
        let (price, _) = secure_witness_price(&cat, &d, &prices, &q).unwrap();
        assert_eq!(price, Price::dollars(4));
        // Nothing priced at all ⇒ infinite.
        let (price, _) = secure_witness_price(&cat, &d, &PriceList::new(), &q).unwrap();
        assert!(price.is_infinite());
    }

    #[test]
    fn self_join_shares_views_across_witness_tuples() {
        // B() :- E(x, y), E(y, x) with witness (0, 0): one tuple E(0,0),
        // a single view suffices even though two atoms mention it.
        let col = Column::int_range(0, 2);
        let cat = CatalogBuilder::new()
            .uniform_relation("E", &["X", "Y"], &col)
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        d.insert(cat.schema().rel_id("E").unwrap(), tuple![0, 0])
            .unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(3));
        let q = parse_rule(cat.schema(), "B() :- E(x, y), E(y, x)").unwrap();
        let (price, views) = secure_witness_price(&cat, &d, &prices, &q).unwrap();
        assert_eq!(price, Price::dollars(3));
        assert_eq!(views.len(), 1);
    }
}
