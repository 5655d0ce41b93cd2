//! Chain queries (Definition 3.12) and their partial-answer tables.
//!
//! A chain query is a full CQ without self-joins `Q = R_0, R_1, ..., R_k`
//! where every atom is unary or binary, consecutive atoms share exactly one
//! variable, and the first and last atoms are unary. Writing `x_i, x_{i+1}`
//! for the variables of `R_i` (with `x_i = x_{i+1}` for unary atoms), the
//! Min-Cut reduction (paper Step 4) needs the *partial answers*:
//!
//! ```text
//! Lt_i     = Π_{x_i}(Q[0:i-1](D))            0 ≤ i ≤ k   (Lt_0 = Col_{x_0})
//! Md[i:j]  = Π_{x_i, x_{j+1}}(Q[i:j](D))     1 ≤ i ≤ k, i-1 ≤ j ≤ k-1
//! Rt_j     = Π_{x_{j+1}}(Q[j+1:k](D))        0 ≤ j ≤ k   (Rt_k = Col_{x_{k+1}})
//! ```
//!
//! with the degenerate diagonal `Md[i:i-1] = Col_{x_i}`. All tables are
//! computed by left/right dynamic programming over the chain in
//! `O(k² · |D| + k · |Col|)` time.
//!
//! The tables hold dense indices of the position columns `Col_{x_i}`
//! ([`Column::index_of`]), not values: `Lt_i` and `Rt_j` are bitsets over
//! their column, `Md[i:j]` a sorted, deduplicated list of index pairs.
//! Each atom's tuples are translated to index pairs once (the only hash
//! lookups, two per tuple), and the dynamic programs run on integers. The
//! diagonal `Md[i:i-1]` and `Md[i:i]`, which is atom `i`'s own pairs, are
//! not stored twice. Callers that want values read them through
//! [`PartialAnswers::lt_values`] and its siblings.

use crate::ast::{ConjunctiveQuery, Term, Var};
use crate::error::QueryError;
use qbdp_catalog::{Catalog, Column, Instance, RelId, Value};

/// One atom of a chain, with its left/right attribute positions resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainAtom {
    /// The relation.
    pub rel: RelId,
    /// Attribute position of the left variable `x_i` within the relation.
    pub left_pos: usize,
    /// Attribute position of the right variable `x_{i+1}`; equals
    /// `left_pos` for unary atoms.
    pub right_pos: usize,
    /// Whether the atom is unary (`x_i = x_{i+1}`).
    pub unary: bool,
}

/// A validated chain query: the atom sequence `R_0 … R_k` plus the resolved
/// join variables `x_0 … x_{k+1}`.
#[derive(Clone, Debug)]
pub struct ChainQuery {
    atoms: Vec<ChainAtom>,
    /// `x_0 ..= x_{k+1}` as variables of the underlying CQ (length k+2).
    join_vars: Vec<Var>,
}

impl ChainQuery {
    /// Validate that `q`'s atoms — in their **given order** — form a chain
    /// query. Interpreted predicates must have been removed already (Step 1)
    /// and atoms must have no constants or repeated variables (Step 2).
    pub fn from_cq(q: &ConjunctiveQuery) -> Result<ChainQuery, QueryError> {
        let fail = |m: &str| Err(QueryError::NotApplicable(format!("not a chain query: {m}")));
        if !q.preds().is_empty() {
            return fail("interpreted predicates present (run Step 1 first)");
        }
        if !crate::analysis::is_full(q) {
            return fail("query is not full");
        }
        if crate::analysis::has_self_join(q) {
            return fail("query has a self-join");
        }
        let n = q.atoms().len();
        if n == 0 {
            return fail("no atoms");
        }
        // Extract per-atom variable lists, rejecting constants/repeats.
        let mut atom_vars: Vec<Vec<Var>> = Vec::with_capacity(n);
        for a in q.atoms() {
            let mut vs = Vec::new();
            for t in &a.terms {
                match t {
                    Term::Const(_) => return fail("constants present (run Step 1 first)"),
                    Term::Var(v) => {
                        if vs.contains(v) {
                            return fail("repeated variable in an atom (run Step 2 first)");
                        }
                        vs.push(*v);
                    }
                }
            }
            if vs.is_empty() || vs.len() > 2 {
                return fail("atoms must be unary or binary");
            }
            atom_vars.push(vs);
        }
        if atom_vars[0].len() != 1 || atom_vars[n - 1].len() != 1 {
            return fail("first and last atoms must be unary");
        }
        // Walk the chain, resolving x_i / x_{i+1}.
        let mut join_vars: Vec<Var> = Vec::with_capacity(n + 1);
        let x0 = atom_vars[0][0];
        join_vars.push(x0); // x_0
        join_vars.push(x0); // x_1 (= x_0, first atom unary)
        let mut atoms: Vec<ChainAtom> = Vec::with_capacity(n);
        atoms.push(ChainAtom {
            rel: q.atoms()[0].rel,
            left_pos: 0,
            right_pos: 0,
            unary: true,
        });
        for i in 1..n {
            let Some(&prev_right) = join_vars.last() else {
                return fail("chain walk lost its join variable");
            }; // x_i
            let vs = &atom_vars[i];
            let atom = &q.atoms()[i];
            if vs.len() == 1 {
                if vs[0] != prev_right {
                    return fail("consecutive atoms must share their join variable");
                }
                join_vars.push(prev_right); // x_{i+1} = x_i
                atoms.push(ChainAtom {
                    rel: atom.rel,
                    left_pos: 0,
                    right_pos: 0,
                    unary: true,
                });
            } else {
                let (left_pos, right_pos, right_var) = if vs[0] == prev_right {
                    (
                        atom.positions_of(vs[0])[0],
                        atom.positions_of(vs[1])[0],
                        vs[1],
                    )
                } else if vs[1] == prev_right {
                    (
                        atom.positions_of(vs[1])[0],
                        atom.positions_of(vs[0])[0],
                        vs[0],
                    )
                } else {
                    return fail("consecutive atoms share no variable");
                };
                // The shared variable must be exactly one: the other variable
                // must be fresh relative to the previous atom.
                if atom_vars[i - 1].contains(&right_var) {
                    return fail("consecutive atoms share two variables");
                }
                join_vars.push(right_var);
                atoms.push(ChainAtom {
                    rel: atom.rel,
                    left_pos,
                    right_pos,
                    unary: false,
                });
            }
        }
        // Each join variable must occupy one contiguous run of positions
        // (runs longer than one come from unary atoms); a variable that
        // *re*-appears after a different variable makes the query a cycle or
        // a non-chain sharing pattern.
        for i in 1..join_vars.len() {
            if join_vars[i] != join_vars[i - 1] && join_vars[..i].contains(&join_vars[i]) {
                return fail("a join variable reappears later in the chain");
            }
        }
        Ok(ChainQuery { atoms, join_vars })
    }

    /// The chain atoms in order.
    pub fn atoms(&self) -> &[ChainAtom] {
        &self.atoms
    }

    /// `k`: the index of the last atom (`R_0 … R_k`).
    pub fn k(&self) -> usize {
        self.atoms.len() - 1
    }

    /// The join variable `x_i` (0 ≤ i ≤ k+1).
    pub fn join_var(&self, i: usize) -> Var {
        self.join_vars[i]
    }

    /// Attribute reference of atom `i`'s left position.
    pub fn left_attr(&self, i: usize) -> qbdp_catalog::AttrRef {
        qbdp_catalog::AttrRef::new(self.atoms[i].rel, self.atoms[i].left_pos as u32)
    }

    /// Attribute reference of atom `i`'s right position.
    pub fn right_attr(&self, i: usize) -> qbdp_catalog::AttrRef {
        qbdp_catalog::AttrRef::new(self.atoms[i].rel, self.atoms[i].right_pos as u32)
    }

    /// `Col_{x_i}` for an **interior** position `1 ≤ i ≤ k`: the intersection
    /// of the adjacent attribute columns `Col_{R_{i-1}.right} ∩
    /// Col_{R_i.left}` (paper: `Q[i:i-1] = Col_{x_i}`). For `i = 0` it is
    /// `Col_{R_0.X}`, and for `i = k+1` it is `Col_{R_k.Y}`.
    pub fn position_column(&self, catalog: &Catalog, i: usize) -> Column {
        let k = self.k();
        if i == 0 {
            catalog.column(self.left_attr(0)).clone()
        } else if i == k + 1 {
            catalog.column(self.right_attr(k)).clone()
        } else {
            let a = catalog.column(self.right_attr(i - 1));
            let b = catalog.column(self.left_attr(i));
            a.intersect(b)
        }
    }

    /// Compute all partial-answer tables on `d`.
    ///
    /// Each atom's tuples are translated once into index pairs over the
    /// position columns it joins (tuples outside them take part in no
    /// partial answer); the three dynamic programs then run on integers.
    pub fn partial_answers(&self, catalog: &Catalog, d: &Instance) -> PartialAnswers {
        let k = self.k();
        let cols: Vec<Column> = (0..=k + 1)
            .map(|i| self.position_column(catalog, i))
            .collect();
        let steps: Vec<Vec<(u32, u32)>> = (0..=k).map(|i| self.steps(d, &cols, i)).collect();

        // Lt DP, left to right. Lt_0 = Col_{x_0}; Lt_{i+1} is the image of
        // Lt_i through atom i.
        let mut lt: Vec<IndexSet> = Vec::with_capacity(k + 1);
        lt.push(IndexSet::full(cols[0].len()));
        for i in 0..k {
            let mut next = IndexSet::empty(cols[i + 1].len());
            for &(a, b) in &steps[i] {
                if lt[i].contains(a) {
                    next.insert(b);
                }
            }
            lt.push(next);
        }

        // Rt DP, right to left. Rt_k = Col_{x_{k+1}}; Rt_{j-1} is the
        // preimage of Rt_j through atom j.
        let mut rt: Vec<IndexSet> = vec![IndexSet::default(); k + 1];
        rt[k] = IndexSet::full(cols[k + 1].len());
        for j in (1..=k).rev() {
            let mut prev = IndexSet::empty(cols[j].len());
            for &(a, b) in &steps[j] {
                if rt[j].contains(b) {
                    prev.insert(a);
                }
            }
            rt[j - 1] = prev;
        }

        // Md DP: Md[i:i-1] is the diagonal and Md[i:i] atom i's steps, both
        // implicit; Md[i:j] for j > i joins Md[i:j-1] with atom j's steps,
        // found by their left index through `starts[j - 2]` (2 ≤ j ≤ k-1).
        let starts: Vec<Vec<u32>> = (2..k)
            .map(|j| step_starts(&steps[j], cols[j].len()))
            .collect();
        let mut md: Vec<Vec<Vec<(u32, u32)>>> = Vec::with_capacity(k);
        for i in 1..=k {
            let mut row: Vec<Vec<(u32, u32)>> = Vec::with_capacity(k.saturating_sub(i + 1));
            for j in i + 1..k {
                let prev = row.last().unwrap_or(&steps[i]);
                let mut next = Vec::new();
                for &(a, b) in prev {
                    let starts = &starts[j - 2];
                    let span = starts[b as usize] as usize..starts[b as usize + 1] as usize;
                    next.extend(steps[j][span].iter().map(|&(_, c)| (a, c)));
                }
                next.sort_unstable();
                next.dedup();
                row.push(next);
            }
            md.push(row);
        }

        // Q(D) ≠ ∅: for k ≥ 1 iff Lt_k ∩ Rt_{k-1} ≠ ∅; for a single unary
        // atom iff some column value is present in the relation.
        let has_answers = if k >= 1 {
            lt[k].intersects(&rt[k - 1])
        } else {
            !steps[0].is_empty()
        };

        PartialAnswers {
            k,
            cols,
            lt,
            rt,
            steps,
            md,
            has_answers,
        }
    }

    /// Atom `i`'s steps: `(t[left], t[right])` for every tuple `t` of its
    /// relation in `D` (for unary atoms both are the one value), as dense
    /// indices into `Col_{x_i}` and `Col_{x_{i+1}}`, sorted and
    /// deduplicated. A tuple with a value outside those columns is left
    /// out.
    fn steps(&self, d: &Instance, cols: &[Column], i: usize) -> Vec<(u32, u32)> {
        let atom = &self.atoms[i];
        let (left, right) = (&cols[i], &cols[i + 1]);
        let same = atom.unary && left.ptr_eq(right);
        let rel = d.relation(atom.rel);
        let mut out = Vec::with_capacity(rel.len());
        for t in rel.iter() {
            let Some(a) = left.index_of(&t[atom.left_pos]) else {
                continue;
            };
            let b = if same {
                Some(a)
            } else {
                right.index_of(&t[atom.right_pos])
            };
            if let Some(b) = b {
                out.push((a, b));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Offsets of sorted `steps` by left index over a column of `n` values:
/// the steps leaving index `a` are `steps[starts[a]..starts[a + 1]]`.
fn step_starts(steps: &[(u32, u32)], n: usize) -> Vec<u32> {
    let mut starts = vec![0u32; n + 1];
    for &(a, _) in steps {
        starts[a as usize + 1] += 1;
    }
    for a in 0..n {
        starts[a + 1] += starts[a];
    }
    starts
}

/// A set of dense column indices, one bit per column value.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexSet {
    words: Vec<u64>,
}

impl IndexSet {
    /// The empty set over a column of `n` values.
    fn empty(n: usize) -> Self {
        IndexSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Every index of a column of `n` values.
    fn full(n: usize) -> Self {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            *last >>= (64 - n % 64) % 64;
        }
        IndexSet { words }
    }

    fn insert(&mut self, i: u32) {
        self.words[i as usize / 64] |= 1 << (i % 64);
    }

    /// Whether index `i` is in the set.
    pub fn contains(&self, i: u32) -> bool {
        self.words
            .get(i as usize / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    fn intersects(&self, other: &IndexSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Number of indices in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let base = 64 * wi as u32;
            std::iter::successors((w != 0).then_some(w), |&rest| {
                let rest = rest & (rest - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |bits| base + bits.trailing_zeros())
        })
    }
}

/// The index pairs of one `Md[i:j]`, in ascending order.
#[derive(Clone, Debug)]
pub enum IndexPairs<'a> {
    /// The diagonal `Md[i:i-1]`: `(v, v)` for every index `v` of
    /// `Col_{x_i}`.
    Diagonal(std::ops::Range<u32>),
    /// Pairs held in a sorted, deduplicated list.
    Listed(std::slice::Iter<'a, (u32, u32)>),
}

impl Iterator for IndexPairs<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        match self {
            IndexPairs::Diagonal(r) => r.next().map(|v| (v, v)),
            IndexPairs::Listed(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            IndexPairs::Diagonal(r) => r.size_hint(),
            IndexPairs::Listed(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for IndexPairs<'_> {}

/// The partial-answer tables of a chain query on an instance, over dense
/// indices of the position columns `Col_{x_i}` ([`Column::index_of`]).
#[derive(Clone, Debug)]
pub struct PartialAnswers {
    k: usize,
    /// `Col_{x_i}` for i = 0 ..= k+1.
    cols: Vec<Column>,
    /// `Lt_i` over `Col_{x_i}`, i = 0 ..= k.
    lt: Vec<IndexSet>,
    /// `Rt_j` over `Col_{x_{j+1}}`, j = 0 ..= k.
    rt: Vec<IndexSet>,
    /// Atom `i`'s steps over `Col_{x_i} × Col_{x_{i+1}}`, sorted and
    /// deduplicated; `steps[i]` is `Md[i:i]` for 1 ≤ i ≤ k-1.
    steps: Vec<Vec<(u32, u32)>>,
    /// `md[i-1][j-i-1]` = `Md[i:j]`, 1 ≤ i, i+1 ≤ j ≤ k-1, sorted and
    /// deduplicated.
    md: Vec<Vec<Vec<(u32, u32)>>>,
    has_answers: bool,
}

impl PartialAnswers {
    /// `k`: index of the last atom.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `Col_{x_i}`, 0 ≤ i ≤ k+1.
    pub fn col(&self, i: usize) -> &Column {
        &self.cols[i]
    }

    /// `Lt_i` as indices of `Col_{x_i}`, 0 ≤ i ≤ k.
    pub fn lt(&self, i: usize) -> &IndexSet {
        &self.lt[i]
    }

    /// `Rt_j` as indices of `Col_{x_{j+1}}`, 0 ≤ j ≤ k.
    pub fn rt(&self, j: usize) -> &IndexSet {
        &self.rt[j]
    }

    /// `Md[i:j]` as index pairs of `Col_{x_i} × Col_{x_{j+1}}`, 1 ≤ i ≤ k,
    /// i-1 ≤ j ≤ k-1.
    pub fn md(&self, i: usize, j: usize) -> IndexPairs<'_> {
        debug_assert!(
            1 <= i && i <= j + 1 && j < self.k,
            "Md[{i}:{j}] out of range"
        );
        if j + 1 == i {
            IndexPairs::Diagonal(0..self.cols[i].len() as u32)
        } else if j == i {
            IndexPairs::Listed(self.steps[i].iter())
        } else {
            IndexPairs::Listed(self.md[i - 1][j - i - 1].iter())
        }
    }

    /// The values of `Lt_i`, in column order.
    pub fn lt_values(&self, i: usize) -> impl Iterator<Item = &Value> {
        self.lt[i].iter().map(move |a| self.cols[i].value_at(a))
    }

    /// The values of `Rt_j`, in column order.
    pub fn rt_values(&self, j: usize) -> impl Iterator<Item = &Value> {
        self.rt[j].iter().map(move |b| self.cols[j + 1].value_at(b))
    }

    /// The value pairs of `Md[i:j]`, in column order.
    pub fn md_values(&self, i: usize, j: usize) -> impl Iterator<Item = (&Value, &Value)> {
        let (left, right) = (&self.cols[i], &self.cols[j + 1]);
        self.md(i, j)
            .map(move |(a, b)| (left.value_at(a), right.value_at(b)))
    }

    /// Whether `Q(D) ≠ ∅` (computed at construction: for k ≥ 1 this is
    /// `Lt_k ∩ Rt_{k-1} ≠ ∅`; the Min-Cut construction itself needs only
    /// `Lt`, `Md`, `Rt`).
    pub fn has_answers(&self) -> bool {
        self.has_answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CqBuilder;
    use qbdp_catalog::{tuple, CatalogBuilder};

    /// Figure 1 database and query.
    fn figure1() -> (Catalog, Instance, ConjunctiveQuery) {
        let ax = Column::texts(["a1", "a2", "a3", "a4"]);
        let by = Column::texts(["b1", "b2", "b3"]);
        let cat = CatalogBuilder::new()
            .relation("R", &[("X", ax.clone())])
            .relation("S", &[("X", ax), ("Y", by.clone())])
            .relation("T", &[("Y", by)])
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        let r = cat.schema().rel_id("R").unwrap();
        let s = cat.schema().rel_id("S").unwrap();
        let t = cat.schema().rel_id("T").unwrap();
        d.insert_all(r, [tuple!["a1"], tuple!["a2"]]).unwrap();
        d.insert_all(
            s,
            [
                tuple!["a1", "b1"],
                tuple!["a1", "b2"],
                tuple!["a2", "b2"],
                tuple!["a4", "b1"],
            ],
        )
        .unwrap();
        d.insert_all(t, [tuple!["b1"], tuple!["b3"]]).unwrap();
        let q = CqBuilder::new("Q")
            .head_vars(["x", "y"])
            .atom("R", &["x"])
            .atom("S", &["x", "y"])
            .atom("T", &["y"])
            .build(cat.schema())
            .unwrap();
        (cat, d, q)
    }

    #[test]
    fn chain_structure() {
        let (_, _, q) = figure1();
        let c = ChainQuery::from_cq(&q).unwrap();
        assert_eq!(c.k(), 2);
        assert!(c.atoms()[0].unary);
        assert!(!c.atoms()[1].unary);
        assert!(c.atoms()[2].unary);
        assert_eq!(c.join_var(0), c.join_var(1)); // x_0 = x_1
        assert_eq!(c.join_var(2), c.join_var(3)); // x_2 = x_3
        assert_ne!(c.join_var(1), c.join_var(2));
    }

    #[test]
    fn figure1_partial_answers() {
        let (cat, d, q) = figure1();
        let c = ChainQuery::from_cq(&q).unwrap();
        let pa = c.partial_answers(&cat, &d);
        // Lt_0 = Col_x (4 values); Lt_1 = R(D) = {a1, a2};
        // Lt_2 = Π_y(R ⋈ S) = {b1, b2}.
        assert_eq!(pa.lt(0).len(), 4);
        assert_eq!(pa.lt(1).len(), 2);
        assert!(pa.lt_values(1).any(|v| v == &Value::text("a1")));
        assert_eq!(pa.lt(2).len(), 2);
        assert!(pa.lt_values(2).any(|v| v == &Value::text("b2")));
        // Rt_2 = Col_y (3 values); Rt_1 = T(D) = {b1, b3};
        // Rt_0 = Π_x(S ⋈ T) = {a1, a4}.
        assert_eq!(pa.rt(2).len(), 3);
        assert_eq!(pa.rt(1).len(), 2);
        assert!(pa.rt_values(1).any(|v| v == &Value::text("b3")));
        assert_eq!(pa.rt(0).len(), 2);
        assert!(pa.rt_values(0).any(|v| v == &Value::text("a4")));
        // Md[1:0] = Col_{x_1} diagonal (4 pairs); Md[1:1] = S(D) (4 pairs);
        // Md[2:1] = Col_{x_2} diagonal (3 pairs).
        assert_eq!(pa.md(1, 0).len(), 4);
        assert_eq!(pa.md(1, 1).len(), 4);
        assert!(pa
            .md_values(1, 1)
            .any(|p| p == (&Value::text("a4"), &Value::text("b1"))));
        assert_eq!(pa.md(2, 1).len(), 3);
        assert!(pa.has_answers());
    }

    #[test]
    fn rejects_non_chains() {
        let col = Column::int_range(0, 3);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X", "Y"], &col)
            .uniform_relation("S", &["X", "Y"], &col)
            .uniform_relation("T", &["X"], &col)
            .build()
            .unwrap();
        // Binary first atom.
        let q = CqBuilder::new("Q")
            .head_vars(["x", "y"])
            .atom("R", &["x", "y"])
            .atom("T", &["y"])
            .build(cat.schema())
            .unwrap();
        assert!(ChainQuery::from_cq(&q).is_err());
        // Two shared variables (C2 with unary caps missing anyway).
        let q = CqBuilder::new("Q")
            .head_vars(["x", "y"])
            .atom("T", &["x"])
            .atom("R", &["x", "y"])
            .atom("S", &["y", "x"])
            .build(cat.schema())
            .unwrap();
        assert!(ChainQuery::from_cq(&q).is_err());
        // Projection.
        let q = CqBuilder::new("Q")
            .head_var("x")
            .atom("T", &["x"])
            .build(cat.schema())
            .unwrap();
        let c = ChainQuery::from_cq(&q);
        assert!(c.is_ok()); // T(x) with head x IS full and a chain
        let q = CqBuilder::new("Q")
            .head_var("x")
            .atom("R", &["x", "y"])
            .build(cat.schema())
            .unwrap();
        assert!(ChainQuery::from_cq(&q).is_err()); // y projected out
    }

    #[test]
    fn middle_unary_atoms() {
        // R0(x), S(x,y), T(y), U(y), V(y,z), W(z): paper's Q2 shape.
        let col = Column::int_range(0, 4);
        let cat = CatalogBuilder::new()
            .uniform_relation("R0", &["X"], &col)
            .uniform_relation("S", &["X", "Y"], &col)
            .uniform_relation("T", &["Y"], &col)
            .uniform_relation("U", &["Y"], &col)
            .uniform_relation("V", &["Y", "Z"], &col)
            .uniform_relation("W", &["Z"], &col)
            .build()
            .unwrap();
        let q = CqBuilder::new("Q2")
            .head_vars(["x", "y", "z"])
            .atom("R0", &["x"])
            .atom("S", &["x", "y"])
            .atom("T", &["y"])
            .atom("U", &["y"])
            .atom("V", &["y", "z"])
            .atom("W", &["z"])
            .build(cat.schema())
            .unwrap();
        let c = ChainQuery::from_cq(&q).unwrap();
        assert_eq!(c.k(), 5);
        let mut d = cat.empty_instance();
        for (name, tuples) in [
            ("R0", vec![tuple![0], tuple![1]]),
            ("T", vec![tuple![2]]),
            ("U", vec![tuple![2]]),
            ("W", vec![tuple![3]]),
        ] {
            let rid = cat.schema().rel_id(name).unwrap();
            d.insert_all(rid, tuples).unwrap();
        }
        let s = cat.schema().rel_id("S").unwrap();
        let v = cat.schema().rel_id("V").unwrap();
        d.insert_all(s, [tuple![0, 2], tuple![1, 3]]).unwrap();
        d.insert_all(v, [tuple![2, 3]]).unwrap();
        let pa = c.partial_answers(&cat, &d);
        // Lt: Col_x → {0,1} → {2,3} → {2} → {2} → {3} ...
        assert_eq!(pa.lt(1).len(), 2);
        assert_eq!(pa.lt(2).len(), 2);
        assert_eq!(pa.lt(3).len(), 1); // after T(y): only 2
        assert_eq!(pa.lt(4).len(), 1); // after U(y)
        assert_eq!(pa.lt(5).len(), 1); // after V: {3}
        assert!(pa.has_answers()); // W(3) present
                                   // Md[2:3] = pairs (y, y) surviving T, U = {(2, 2)}.
        assert_eq!(pa.md(2, 3).len(), 1);
        assert_eq!(
            pa.md_values(2, 3).collect::<Vec<_>>(),
            [(&Value::Int(2), &Value::Int(2))]
        );
    }

    #[test]
    fn empty_database_partials() {
        let (cat, _, q) = figure1();
        let d = cat.empty_instance();
        let c = ChainQuery::from_cq(&q).unwrap();
        let pa = c.partial_answers(&cat, &d);
        assert_eq!(pa.lt(0).len(), 4); // Col_x regardless of D
        assert!(pa.lt(1).is_empty());
        assert!(pa.rt(1).is_empty());
        assert!(!pa.has_answers());
    }
}
