//! The transaction ledger: every quote that turned into a purchase, plus
//! data-update events, with running revenue.
//!
//! A market sells the same few queries again and again, so the ledger
//! keeps one shared copy of each distinct query text it has sold: every
//! sale of a query points at that copy ([`Transaction::Sale`]'s `query`
//! is an [`Arc<str>`]). Recording a sale looks the text up before it
//! allocates, so the live purchase path, the log replay and the snapshot
//! restore ([`Ledger::from_snapshot_text`]) each allocate one string per
//! distinct query, not one per sale, and the ledger never holds a query
//! text that no sale names. The lookup hashes each text once, under the
//! standard library's keyed hasher, because buyers choose the texts. A
//! sale of a query not sold before pays that hash and a table insert on
//! top of the copy, so where no sale repeats a query the ledger records
//! sales somewhat slower than copying every text would. The ledger also
//! counts its sales as it records them, so [`Ledger::sales`] reads a
//! number.
//!
//! The snapshot form is one line per running total and one per
//! transaction, written into one buffer ([`Ledger::to_snapshot_text`]).

use qbdp_catalog::FxHashMap;
use qbdp_core::Price;
use std::collections::hash_map::{Entry, RandomState};
use std::fmt::Write;
use std::hash::BuildHasher;
use std::sync::Arc;

/// One recorded event.
#[derive(Clone, Debug)]
pub enum Transaction {
    /// A completed purchase.
    Sale {
        /// Monotone id.
        id: u64,
        /// The query, rendered; shared by every sale of the same text.
        query: Arc<str>,
        /// The price paid.
        price: Price,
        /// Number of answer tuples delivered.
        answer_tuples: usize,
        /// Number of views in the receipt.
        views: usize,
    },
    /// A data update by the seller.
    Update {
        /// Monotone id.
        id: u64,
        /// Relation name.
        relation: String,
        /// Tuples added.
        added: usize,
    },
}

/// Append-only ledger with revenue accounting.
#[derive(Debug)]
pub struct Ledger {
    transactions: Vec<Transaction>,
    revenue: Price,
    next_id: u64,
    /// Number of [`Transaction::Sale`]s in `transactions`.
    sales: usize,
    /// One copy of each distinct query text sold, under the text's hash
    /// by `keys`. Buyers choose these texts, so they are hashed by the
    /// standard library's keyed hasher, once per sale: the table itself
    /// is keyed by that hash, so neither a miss nor a resize hashes a
    /// text again.
    queries: FxHashMap<u64, Arc<str>>,
    keys: RandomState,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger::new()
    }
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger {
            transactions: Vec::new(),
            revenue: Price::ZERO,
            next_id: 1,
            sales: 0,
            queries: FxHashMap::default(),
            keys: RandomState::new(),
        }
    }

    /// The shared copy of `query`, made on its first sale.
    fn intern(&mut self, query: &str) -> Arc<str> {
        match self.queries.entry(self.keys.hash_one(query)) {
            Entry::Occupied(e) if **e.get() == *query => Arc::clone(e.get()),
            // Another text under the same 64-bit keyed hash: left unshared.
            Entry::Occupied(_) => Arc::from(query),
            Entry::Vacant(e) => Arc::clone(e.insert(Arc::from(query))),
        }
    }

    /// Append a sale at the next id, with `revenue` as the new total.
    fn push_sale(
        &mut self,
        query: &str,
        price: Price,
        answer_tuples: usize,
        views: usize,
        revenue: Price,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.revenue = revenue;
        let query = self.intern(query);
        self.transactions.push(Transaction::Sale {
            id,
            query,
            price,
            answer_tuples,
            views,
        });
        self.sales += 1;
        id
    }

    /// Record a sale; returns its id. The ledger allocates a copy only
    /// of a query text it has not sold before.
    pub fn record_sale(
        &mut self,
        query: &str,
        price: Price,
        answer_tuples: usize,
        views: usize,
    ) -> u64 {
        let revenue = self.revenue.saturating_add(price);
        self.push_sale(query, price, answer_tuples, views, revenue)
    }

    /// Record a sale with **checked** revenue arithmetic: `None` (and no
    /// state change) if the new total would overflow. The durable paths
    /// use this — both live appends and recovery replay — so the books
    /// can never silently wrap or saturate, and a replayed history is
    /// guaranteed to reproduce the live totals digit for digit.
    pub fn record_sale_checked(
        &mut self,
        query: &str,
        price: Price,
        answer_tuples: usize,
        views: usize,
    ) -> Option<u64> {
        let revenue = self.revenue.checked_add(price)?;
        Some(self.push_sale(query, price, answer_tuples, views, revenue))
    }

    /// Record an update; returns its id.
    pub fn record_update(&mut self, relation: String, added: usize) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.transactions.push(Transaction::Update {
            id,
            relation,
            added,
        });
        id
    }

    /// All transactions, oldest first.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Total revenue.
    pub fn revenue(&self) -> Price {
        self.revenue
    }

    /// Number of sales.
    pub fn sales(&self) -> usize {
        self.sales
    }

    /// Serialize for a durable snapshot: one header line each for the
    /// running totals, then one line per transaction.
    pub fn to_snapshot_text(&self) -> String {
        let mut out = String::with_capacity(32 + 64 * self.transactions.len());
        #[expect(
            clippy::let_underscore_must_use,
            reason = "writing to a String cannot fail"
        )]
        let _ = self.write_snapshot_text(&mut out);
        out
    }

    /// [`Ledger::to_snapshot_text`], written into `out`.
    fn write_snapshot_text(&self, out: &mut String) -> std::fmt::Result {
        writeln!(out, "revenue {}", self.revenue.as_cents())?;
        writeln!(out, "next_id {}", self.next_id)?;
        for t in &self.transactions {
            match t {
                Transaction::Sale {
                    id,
                    query,
                    price,
                    answer_tuples,
                    views,
                } => writeln!(
                    out,
                    "sale {id} {} {answer_tuples} {views} {query}",
                    price.as_cents()
                )?,
                Transaction::Update {
                    id,
                    relation,
                    added,
                } => writeln!(out, "update {id} {added} {relation}")?,
            }
        }
        Ok(())
    }

    /// Rebuild a ledger from [`Ledger::to_snapshot_text`] output. The
    /// stored revenue total is cross-checked against the checked sum of
    /// the sale lines, so a tampered or wrapped total is refused.
    pub fn from_snapshot_text(text: &str) -> Result<Ledger, String> {
        let mut lines = text.lines();
        let header = |line: Option<&str>, key: &str| -> Result<u64, String> {
            line.and_then(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| format!("bad ledger `{key}` line"))
        };
        let revenue = Price::cents(header(lines.next(), "revenue ")?);
        let next_id = header(lines.next(), "next_id ")?;
        let mut ledger = Ledger::new();
        let mut sum = Price::ZERO;
        let mut max_id = 0;
        for line in lines {
            let (kind, mut rest) = split_word(line);
            let mut num = |name: &str| -> Result<u64, String> {
                let (field, tail) = split_word(rest);
                rest = tail;
                field
                    .parse()
                    .map_err(|_| format!("bad {kind} {name} in `{line}`"))
            };
            let id = match kind {
                "sale" => {
                    let id = num("id")?;
                    let price = Price::cents(num("price")?);
                    let answer_tuples = num("answer_tuples")? as usize;
                    let views = num("views")? as usize;
                    sum = sum
                        .checked_add(price)
                        .ok_or_else(|| "ledger revenue overflows".to_string())?;
                    let query = ledger.intern(rest);
                    ledger.transactions.push(Transaction::Sale {
                        id,
                        query,
                        price,
                        answer_tuples,
                        views,
                    });
                    ledger.sales += 1;
                    id
                }
                "update" => {
                    let id = num("id")?;
                    let added = num("count")? as usize;
                    ledger.transactions.push(Transaction::Update {
                        id,
                        relation: rest.to_string(),
                        added,
                    });
                    id
                }
                other => return Err(format!("unknown ledger line kind `{other}`")),
            };
            max_id = max_id.max(id);
        }
        if sum != revenue {
            return Err(format!(
                "ledger revenue {} does not match the sum of its sales {}",
                revenue.as_cents(),
                sum.as_cents()
            ));
        }
        // next_id must clear every recorded id (and be at least 1, the
        // empty ledger's counter), or a tampered snapshot would hand out
        // duplicate transaction ids after recovery.
        if next_id <= max_id {
            return Err(format!(
                "ledger next_id {next_id} does not exceed the largest transaction id {max_id}"
            ));
        }
        ledger.revenue = revenue;
        ledger.next_id = next_id;
        Ok(ledger)
    }
}

/// `s` split at its first space: the word before it, and the text after
/// it (empty when there is none). A byte scan: the words are short, and
/// a char pattern's search costs more than they do.
fn split_word(s: &str) -> (&str, &str) {
    match s.bytes().position(|b| b == b' ') {
        Some(i) => (&s[..i], &s[i + 1..]),
        None => (s, ""),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn revenue_accumulates() {
        let mut l = Ledger::new();
        let a = l.record_sale("Q1", Price::dollars(3), 10, 2);
        let b = l.record_sale("Q2", Price::dollars(4), 0, 1);
        let c = l.record_update("R".into(), 5);
        assert!(a < b && b < c);
        assert_eq!(l.revenue(), Price::dollars(7));
        assert_eq!(l.sales(), 2);
        assert_eq!(l.transactions().len(), 3);
    }

    #[test]
    fn checked_sale_refuses_overflow() {
        let mut l = Ledger::new();
        let big = Price::cents(Price::INFINITE.as_cents() - 1);
        assert!(l.record_sale_checked("Q1", big, 1, 1).is_some());
        // The second near-MAX sale would cross the sentinel: refused,
        // and the ledger is untouched.
        assert!(l.record_sale_checked("Q2", big, 1, 1).is_none());
        assert_eq!(l.sales(), 1);
        assert_eq!(l.revenue(), big);
    }

    #[test]
    fn snapshot_text_roundtrip() {
        let mut l = Ledger::new();
        l.record_sale("Q(x, y) :- R(x), S(x, y)", Price::dollars(6), 1, 6);
        l.record_update("T".into(), 2);
        l.record_sale("Q(x) :- R(x)", Price::cents(425), 3, 4);
        let text = l.to_snapshot_text();
        let back = Ledger::from_snapshot_text(&text).unwrap();
        assert_eq!(back.revenue(), l.revenue());
        assert_eq!(back.sales(), l.sales());
        assert_eq!(back.transactions().len(), l.transactions().len());
        // Ids keep counting from where the live ledger stopped.
        let mut back = back;
        assert_eq!(back.record_update("R".into(), 1), 4);
    }

    #[test]
    fn sales_are_counted_and_their_queries_shared_across_a_snapshot() {
        let mut l = Ledger::new();
        let q = "Q(x) :- R(x)";
        l.record_update("R".into(), 2);
        l.record_sale(q, Price::dollars(1), 1, 1);
        l.record_update("S".into(), 1);
        l.record_sale("Q(y) :- T(y)", Price::dollars(2), 1, 1);
        l.record_sale_checked(q, Price::dollars(3), 1, 1).unwrap();
        l.record_update("R".into(), 4);
        assert_eq!((l.sales(), l.transactions().len()), (3, 6));
        let back = Ledger::from_snapshot_text(&l.to_snapshot_text()).unwrap();
        assert_eq!((back.sales(), back.transactions().len()), (3, 6));
        assert_eq!(back.to_snapshot_text(), l.to_snapshot_text());
        // Both sales of `q` point at one text, before and after.
        for ledger in [&l, &back] {
            let texts: Vec<&Arc<str>> = ledger
                .transactions()
                .iter()
                .filter_map(|t| match t {
                    Transaction::Sale { query, .. } if &**query == q => Some(query),
                    _ => None,
                })
                .collect();
            assert_eq!(texts.len(), 2);
            assert!(Arc::ptr_eq(texts[0], texts[1]));
            assert_eq!(ledger.queries.len(), 2);
        }
        // A refused sale counts nothing.
        let mut full = Ledger::new();
        full.record_sale_checked(q, Price::cents(Price::INFINITE.as_cents() - 1), 1, 1);
        assert!(full
            .record_sale_checked(q, Price::dollars(1), 1, 1)
            .is_none());
        assert_eq!(full.sales(), 1);
    }

    #[test]
    fn snapshot_text_rejects_stale_next_id() {
        let mut l = Ledger::new();
        l.record_sale("Q(x) :- R(x)", Price::dollars(2), 1, 1);
        l.record_update("R".into(), 3);
        // next_id 3 is correct; rewinding it to a recorded id would hand
        // out duplicates after recovery.
        let text = l.to_snapshot_text();
        assert!(Ledger::from_snapshot_text(&text).is_ok());
        for bad in ["next_id 2", "next_id 1", "next_id 0"] {
            let tampered = text.replace("next_id 3", bad);
            assert!(
                Ledger::from_snapshot_text(&tampered).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn snapshot_text_rejects_tampered_totals() {
        let mut l = Ledger::new();
        l.record_sale("Q(x) :- R(x)", Price::dollars(2), 1, 1);
        let text = l.to_snapshot_text().replace("revenue 200", "revenue 999");
        assert!(Ledger::from_snapshot_text(&text).is_err());
        assert!(Ledger::from_snapshot_text("garbage").is_err());
    }
}
