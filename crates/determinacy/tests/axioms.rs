//! Definition 2.5: a determinacy relation must satisfy reflexivity,
//! transitivity, augmentation, and boundedness. The paper proves both
//! instance-based and information-theoretic determinacy satisfy these; here
//! we machine-check the axioms for our brute-force instance-based relation
//! on exhaustively-enumerated tiny worlds, and spot-check the same axioms
//! for the PTIME selection-view oracle.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qbdp_catalog::{tuple, Catalog, CatalogBuilder, Column, Instance};
use qbdp_determinacy::bruteforce::determines_bruteforce;
use qbdp_determinacy::selection::{determines_monotone_bundle, SelectionView, ViewSet};
use qbdp_query::bundle::Bundle;
use qbdp_query::parser::parse_rule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LIMIT: usize = 10;

fn tiny() -> Catalog {
    let col = Column::int_range(0, 2);
    CatalogBuilder::new()
        .uniform_relation("R", &["X"], &col)
        .uniform_relation("S", &["X", "Y"], &col)
        .build()
        .unwrap()
}

fn random_db(cat: &Catalog, rng: &mut StdRng) -> Instance {
    let mut d = cat.empty_instance();
    for x in 0..2i64 {
        if rng.gen_bool(0.5) {
            let _ = d.insert(cat.schema().rel_id("R").unwrap(), tuple![x]);
        }
        for y in 0..2i64 {
            if rng.gen_bool(0.5) {
                let _ = d.insert(cat.schema().rel_id("S").unwrap(), tuple![x, y]);
            }
        }
    }
    d
}

/// A small pool of bundles to draw V1, V2, V3 from.
fn bundle_pool(cat: &Catalog) -> Vec<Bundle> {
    let s = cat.schema();
    let q = |src: &str| Bundle::from(parse_rule(s, src).unwrap());
    vec![
        Bundle::empty(),
        q("A(x) :- R(x)"),
        q("B(x, y) :- S(x, y)"),
        q("C(x, y) :- R(x), S(x, y)"),
        q("D() :- S(x, x)"),
        q("E(x) :- S(x, y)"),
    ]
}

fn det(cat: &Catalog, d: &Instance, v: &Bundle, q: &Bundle) -> bool {
    determines_bruteforce(cat, d, v, q, LIMIT).unwrap()
}

/// Reflexivity: `D ⊢ V1,V2 ։ V1`.
#[test]
fn axiom_reflexivity() {
    let cat = tiny();
    let mut rng = StdRng::seed_from_u64(251);
    let pool = bundle_pool(&cat);
    for _ in 0..6 {
        let d = random_db(&cat, &mut rng);
        for v1 in &pool {
            for v2 in &pool {
                assert!(
                    det(&cat, &d, &v1.union(v2), v1),
                    "reflexivity failed for {v1:?} with {v2:?}"
                );
            }
        }
    }
}

/// Transitivity: `V1 ։ V2` and `V2 ։ V3` imply `V1 ։ V3`.
#[test]
fn axiom_transitivity() {
    let cat = tiny();
    let mut rng = StdRng::seed_from_u64(252);
    let pool = bundle_pool(&cat);
    let mut triggered = 0;
    for _ in 0..6 {
        let d = random_db(&cat, &mut rng);
        for v1 in &pool {
            for v2 in &pool {
                if !det(&cat, &d, v1, v2) {
                    continue;
                }
                for v3 in &pool {
                    if det(&cat, &d, v2, v3) {
                        triggered += 1;
                        assert!(
                            det(&cat, &d, v1, v3),
                            "transitivity failed: {v1:?} ։ {v2:?} ։ {v3:?}"
                        );
                    }
                }
            }
        }
    }
    assert!(
        triggered > 20,
        "transitivity premises rarely held ({triggered})"
    );
}

/// Augmentation: `V1 ։ V2` implies `V1,V' ։ V2,V'`.
#[test]
fn axiom_augmentation() {
    let cat = tiny();
    let mut rng = StdRng::seed_from_u64(253);
    let pool = bundle_pool(&cat);
    let mut triggered = 0;
    for _ in 0..4 {
        let d = random_db(&cat, &mut rng);
        for v1 in &pool {
            for v2 in &pool {
                if !det(&cat, &d, v1, v2) {
                    continue;
                }
                for vp in pool.iter().take(4) {
                    triggered += 1;
                    assert!(
                        det(&cat, &d, &v1.union(vp), &v2.union(vp)),
                        "augmentation failed: {v1:?} ։ {v2:?} with {vp:?}"
                    );
                }
            }
        }
    }
    assert!(
        triggered > 20,
        "augmentation premises rarely held ({triggered})"
    );
}

/// Boundedness: `D ⊢ ID ։ V` for every bundle V.
#[test]
fn axiom_boundedness() {
    let cat = tiny();
    let mut rng = StdRng::seed_from_u64(254);
    let id = Bundle::identity(cat.schema()).unwrap();
    for _ in 0..6 {
        let d = random_db(&cat, &mut rng);
        for v in &bundle_pool(&cat) {
            assert!(det(&cat, &d, &id, v), "boundedness failed for {v:?}");
        }
    }
}

/// The same axioms hold for the PTIME selection-view oracle, phrased over
/// view sets: monotone in V (augmentation's consequence) and bounded by Σ.
#[test]
fn selection_oracle_monotone_and_bounded() {
    let cat = tiny();
    let mut rng = StdRng::seed_from_u64(255);
    let sigma: Vec<SelectionView> = ViewSet::sigma(&cat).iter().collect();
    let q = Bundle::from(parse_rule(cat.schema(), "Q(x, y) :- R(x), S(x, y)").unwrap());
    for _ in 0..30 {
        let d = random_db(&cat, &mut rng);
        let vs: ViewSet = sigma
            .iter()
            .filter(|_| rng.gen_bool(0.4))
            .cloned()
            .collect();
        let determined = determines_monotone_bundle(&cat, &d, &vs, &q).unwrap();
        // Adding one more view never destroys determinacy.
        if determined {
            for extra in &sigma {
                let mut bigger = vs.clone();
                bigger.insert(extra.clone());
                assert!(
                    determines_monotone_bundle(&cat, &d, &bigger, &q).unwrap(),
                    "monotonicity in V failed"
                );
            }
        }
        // Σ always determines.
        let full: ViewSet = sigma.iter().cloned().collect();
        assert!(determines_monotone_bundle(&cat, &d, &full, &q).unwrap());
    }
}
