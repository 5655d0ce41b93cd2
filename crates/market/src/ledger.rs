//! The transaction ledger: every quote that turned into a purchase, plus
//! data-update events, with running revenue.

use qbdp_core::Price;

/// One recorded event.
#[derive(Clone, Debug)]
pub enum Transaction {
    /// A completed purchase.
    Sale {
        /// Monotone id.
        id: u64,
        /// The query, rendered.
        query: String,
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
        }
    }

    /// Record a sale; returns its id.
    pub fn record_sale(
        &mut self,
        query: String,
        price: Price,
        answer_tuples: usize,
        views: usize,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.revenue = self.revenue.saturating_add(price);
        self.transactions.push(Transaction::Sale {
            id,
            query,
            price,
            answer_tuples,
            views,
        });
        id
    }

    /// Record a sale with **checked** revenue arithmetic: `None` (and no
    /// state change) if the new total would overflow. The durable paths
    /// use this — both live appends and recovery replay — so the books
    /// can never silently wrap or saturate, and a replayed history is
    /// guaranteed to reproduce the live totals digit for digit.
    pub fn record_sale_checked(
        &mut self,
        query: String,
        price: Price,
        answer_tuples: usize,
        views: usize,
    ) -> Option<u64> {
        let revenue = self.revenue.checked_add(price)?;
        let id = self.next_id;
        self.next_id += 1;
        self.revenue = revenue;
        self.transactions.push(Transaction::Sale {
            id,
            query,
            price,
            answer_tuples,
            views,
        });
        Some(id)
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
        self.transactions
            .iter()
            .filter(|t| matches!(t, Transaction::Sale { .. }))
            .count()
    }

    /// Serialize for a durable snapshot: one header line each for the
    /// running totals, then one line per transaction.
    pub fn to_snapshot_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("revenue {}\n", self.revenue.as_cents()));
        out.push_str(&format!("next_id {}\n", self.next_id));
        for t in &self.transactions {
            match t {
                Transaction::Sale {
                    id,
                    query,
                    price,
                    answer_tuples,
                    views,
                } => {
                    out.push_str(&format!(
                        "sale {id} {} {answer_tuples} {views} {query}\n",
                        price.as_cents()
                    ));
                }
                Transaction::Update {
                    id,
                    relation,
                    added,
                } => {
                    out.push_str(&format!("update {id} {added} {relation}\n"));
                }
            }
        }
        out
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
        let mut transactions = Vec::new();
        let mut sum = Price::ZERO;
        for line in lines {
            let mut parts = line.splitn(2, ' ');
            let kind = parts.next().unwrap_or_default();
            let rest = parts.next().unwrap_or_default();
            match kind {
                "sale" => {
                    let mut f = rest.splitn(5, ' ');
                    let mut num = |name: &str| -> Result<u64, String> {
                        f.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| format!("bad sale {name} in `{line}`"))
                    };
                    let id = num("id")?;
                    let price = Price::cents(num("price")?);
                    let answer_tuples = num("answer_tuples")? as usize;
                    let views = num("views")? as usize;
                    let query = f.next().unwrap_or_default().to_string();
                    sum = sum
                        .checked_add(price)
                        .ok_or_else(|| "ledger revenue overflows".to_string())?;
                    transactions.push(Transaction::Sale {
                        id,
                        query,
                        price,
                        answer_tuples,
                        views,
                    });
                }
                "update" => {
                    let mut f = rest.splitn(3, ' ');
                    let id = f
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("bad update id in `{line}`"))?;
                    let added = f
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(|| format!("bad update count in `{line}`"))?
                        as usize;
                    let relation = f.next().unwrap_or_default().to_string();
                    transactions.push(Transaction::Update {
                        id,
                        relation,
                        added,
                    });
                }
                other => return Err(format!("unknown ledger line kind `{other}`")),
            }
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
        let max_id = transactions
            .iter()
            .map(|t| match t {
                Transaction::Sale { id, .. } | Transaction::Update { id, .. } => *id,
            })
            .max()
            .unwrap_or(0);
        if next_id <= max_id {
            return Err(format!(
                "ledger next_id {next_id} does not exceed the largest transaction id {max_id}"
            ));
        }
        Ok(Ledger {
            transactions,
            revenue,
            next_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn revenue_accumulates() {
        let mut l = Ledger::new();
        let a = l.record_sale("Q1".into(), Price::dollars(3), 10, 2);
        let b = l.record_sale("Q2".into(), Price::dollars(4), 0, 1);
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
        assert!(l.record_sale_checked("Q1".into(), big, 1, 1).is_some());
        // The second near-MAX sale would cross the sentinel: refused,
        // and the ledger is untouched.
        assert!(l.record_sale_checked("Q2".into(), big, 1, 1).is_none());
        assert_eq!(l.sales(), 1);
        assert_eq!(l.revenue(), big);
    }

    #[test]
    fn snapshot_text_roundtrip() {
        let mut l = Ledger::new();
        l.record_sale("Q(x, y) :- R(x), S(x, y)".into(), Price::dollars(6), 1, 6);
        l.record_update("T".into(), 2);
        l.record_sale("Q(x) :- R(x)".into(), Price::cents(425), 3, 4);
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
    fn snapshot_text_rejects_stale_next_id() {
        let mut l = Ledger::new();
        l.record_sale("Q(x) :- R(x)".into(), Price::dollars(2), 1, 1);
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
        l.record_sale("Q(x) :- R(x)".into(), Price::dollars(2), 1, 1);
        let text = l.to_snapshot_text().replace("revenue 200", "revenue 999");
        assert!(Ledger::from_snapshot_text(&text).is_err());
        assert!(Ledger::from_snapshot_text("garbage").is_err());
    }
}
