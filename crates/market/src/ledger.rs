//! The transaction ledger: every quote that turned into a purchase, plus
//! data-update events, with running revenue.
//!
//! The ledger keeps its history as its snapshot text: one append-only
//! string of `sale …` and `update …` lines beside the running totals, as
//! large in memory as the snapshot's ledger section. Recording appends a
//! line; a snapshot ([`Ledger::to_snapshot_text`]) is two header lines
//! and a copy of the history; a restore ([`Ledger::from_snapshot_text`])
//! checks the text in one pass and keeps it, allocating nothing per
//! transaction; [`Ledger::transactions`] parses the lines back on demand.
//! A line ends at a line break, so a sale's query text holds none: the
//! query parser refuses one in a quoted constant, and the log replay
//! refuses a logged purchase whose text holds one.

use qbdp_core::Price;

/// One recorded event, borrowing its text from the ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transaction<'a> {
    /// A completed purchase.
    Sale {
        /// Monotone id.
        id: u64,
        /// The query, rendered.
        query: &'a str,
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
        relation: &'a str,
        /// Tuples added.
        added: usize,
    },
}

/// Append-only ledger with revenue accounting.
#[derive(Debug, Default)]
pub struct Ledger {
    /// The snapshot text the ledger was restored from (or nothing), with
    /// every later transaction's line appended: the history is
    /// `text[start..]`, one `\n`-terminated line per transaction.
    text: String,
    start: usize,
    revenue: Price,
    /// The id of the last transaction; 0 before the first.
    last_id: u64,
    sales: usize,
    transactions: usize,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Append the line `<kind> <id> <numbers…> <text>` at the next id.
    fn push_line(&mut self, kind: &str, numbers: &[u64], text: &str) -> u64 {
        self.last_id += 1;
        self.transactions += 1;
        self.text.push_str(kind);
        for &n in std::iter::once(&self.last_id).chain(numbers) {
            self.text.push(' ');
            push_number(&mut self.text, n);
        }
        self.text.push(' ');
        self.text.push_str(text);
        self.text.push('\n');
        self.last_id
    }

    fn push_sale(&mut self, query: &str, price: Price, answer_tuples: usize, views: usize) -> u64 {
        self.sales += 1;
        let numbers = [price.as_cents(), answer_tuples as u64, views as u64];
        self.push_line("sale", &numbers, query)
    }

    /// Record a sale; returns its id.
    pub fn record_sale(
        &mut self,
        query: &str,
        price: Price,
        answer_tuples: usize,
        views: usize,
    ) -> u64 {
        self.revenue = self.revenue.saturating_add(price);
        self.push_sale(query, price, answer_tuples, views)
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
        self.revenue = self.revenue.checked_add(price)?;
        Some(self.push_sale(query, price, answer_tuples, views))
    }

    /// Record an update; returns its id.
    pub fn record_update(&mut self, relation: String, added: usize) -> u64 {
        self.push_line("update", &[added as u64], &relation)
    }

    /// All transactions, oldest first, parsed from the history's lines.
    pub fn transactions(&self) -> impl ExactSizeIterator<Item = Transaction<'_>> + '_ {
        Transactions(Reader(&self.text[self.start..]), self.transactions)
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
    /// running totals, then the history.
    pub fn to_snapshot_text(&self) -> String {
        let (revenue, next_id) = (self.revenue.as_cents(), self.last_id + 1);
        let mut out = format!("revenue {revenue}\nnext_id {next_id}\n");
        out.push_str(&self.text[self.start..]);
        out
    }

    /// Rebuild a ledger from [`Ledger::to_snapshot_text`] output, keeping
    /// `text` (a `String` handed over by value is not copied). One pass
    /// checks every line and number, written as the ledger writes them,
    /// and the stored revenue total against the checked sum of the sale
    /// lines, so a tampered or wrapped total is refused.
    pub fn from_snapshot_text(text: impl Into<String>) -> Result<Ledger, String> {
        let text = text.into();
        let mut reader = Reader(&text);
        let mut header = |key: &str| {
            (reader.word(key).then(|| reader.number(b'\n')).flatten())
                .ok_or_else(|| format!("bad ledger `{key}` line"))
        };
        let revenue = Price::cents(header("revenue ")?);
        let next_id = header("next_id ")?;
        let start = text.len() - reader.0.len();
        let (mut sum, mut max_id, mut sales, mut transactions) = (Price::ZERO, 0, 0, 0);
        while !reader.0.is_empty() {
            let id = match reader.transaction()? {
                Transaction::Sale { id, price, .. } => {
                    sum = (sum.checked_add(price)).ok_or("ledger revenue overflows")?;
                    sales += 1;
                    id
                }
                Transaction::Update { id, .. } => id,
            };
            max_id = max_id.max(id);
            transactions += 1;
        }
        if sum != revenue {
            let (revenue, sum) = (revenue.as_cents(), sum.as_cents());
            return Err(format!(
                "ledger revenue {revenue} does not match the sum of its sales {sum}"
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
        let last_id = next_id - 1;
        Ok(Ledger {
            text,
            start,
            revenue,
            last_id,
            sales,
            transactions,
        })
    }
}

/// A history's transactions, parsed one line at a time, and how many.
struct Transactions<'a>(Reader<'a>, usize);

impl<'a> Iterator for Transactions<'a> {
    type Item = Transaction<'a>;

    fn next(&mut self) -> Option<Transaction<'a>> {
        self.1 = self.1.checked_sub(1)?;
        // The ledger wrote or checked every line it holds.
        self.0.transaction().ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.1, Some(self.1))
    }
}

impl ExactSizeIterator for Transactions<'_> {}

/// The unread rest of a ledger text. A line is read in one pass: the
/// numbers digit by digit, then the text up to the line break.
struct Reader<'a>(&'a str);

impl<'a> Reader<'a> {
    /// Step past `word` if the text goes on with it.
    fn word(&mut self, word: &str) -> bool {
        let rest = self.0.strip_prefix(word);
        self.0 = rest.unwrap_or(self.0);
        rest.is_some()
    }

    /// A number as the ledger writes it — decimal digits, without a sign
    /// or a leading zero, within `u64` — and the `end` byte after it.
    fn number(&mut self, end: u8) -> Option<u64> {
        let bytes = self.0.as_bytes();
        let (mut n, mut len) = (0u64, 0);
        for &d in bytes.iter().take_while(|d| d.is_ascii_digit()) {
            n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
            len += 1;
        }
        let canonical = len == 1 || (len > 1 && bytes[0] != b'0');
        (canonical && bytes.get(len) == Some(&end)).then_some(())?;
        self.0 = &self.0[len + 1..];
        Some(n)
    }

    /// A `sale` or `update` line: its kind, each number followed by one
    /// space, then its text up to the line break.
    fn transaction(&mut self) -> Result<Transaction<'a>, String> {
        let end = line_end(self.0.as_bytes())
            .ok_or_else(|| format!("unterminated ledger line `{}`", self.0))?;
        let (line, mut fields) = (&self.0[..end], Reader(&self.0[..end]));
        self.0 = &self.0[end + 1..];
        let (kind, names): (_, &[&str]) = if fields.word("sale ") {
            ("sale", &["id", "price", "answer_tuples", "views"])
        } else if fields.word("update ") {
            ("update", &["id", "count"])
        } else {
            let kind = line.split(' ').next().unwrap_or_default();
            return Err(format!("unknown ledger line kind `{kind}`"));
        };
        let mut n = [0u64; 4];
        for (n, name) in n.iter_mut().zip(names) {
            *n = (fields.number(b' ')).ok_or_else(|| format!("bad {kind} {name} in `{line}`"))?;
        }
        let [id, a, b, c] = n;
        Ok(match kind {
            "sale" => Transaction::Sale {
                id,
                query: fields.0,
                price: Price::cents(a),
                answer_tuples: b as usize,
                views: c as usize,
            },
            _ => Transaction::Update {
                id,
                relation: fields.0,
                added: a as usize,
            },
        })
    }
}

/// The index of the first `\n` in `bytes`, eight bytes at a time: a
/// ledger line is mostly text, so the restore spends much of its pass
/// here. `x` is zero in a byte exactly where the word holds a `\n`, and
/// the lowest bit of `found` marks the lowest zero byte of `x` (a borrow
/// runs only upward from a zero byte).
fn line_end(bytes: &[u8]) -> Option<usize> {
    let mut words = bytes.chunks_exact(8);
    for (i, word) in (&mut words).enumerate() {
        let x = u64::from_le_bytes(word.try_into().unwrap_or_default()) ^ 0x0a0a_0a0a_0a0a_0a0a;
        let found = x.wrapping_sub(0x0101_0101_0101_0101) & !x & 0x8080_8080_8080_8080;
        if found != 0 {
            return Some(8 * i + found.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = bytes.len() - tail.len();
    tail.iter().position(|&b| b == b'\n').map(|i| at + i)
}

/// Append `n` in decimal.
fn push_number(out: &mut String, n: u64) {
    if n >= 10 {
        push_number(out, n / 10);
    }
    out.push(char::from(b'0' + (n % 10) as u8));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let text = l.to_snapshot_text();
        let back = Ledger::from_snapshot_text(text.clone()).unwrap();
        assert_eq!((back.sales(), back.transactions().len()), (3, 6));
        assert_eq!(back.to_snapshot_text(), text);
        // The restored ledger holds the text it was handed, and parses
        // the same transactions from it.
        assert_eq!(back.text, text);
        assert!(back.transactions().eq(l.transactions()));
        assert_eq!(
            back.transactions().nth(4),
            Some(Transaction::Sale {
                id: 5,
                query: q,
                price: Price::dollars(3),
                answer_tuples: 1,
                views: 1,
            })
        );
        // A refused sale counts nothing.
        let mut full = Ledger::new();
        full.record_sale_checked(q, Price::cents(Price::INFINITE.as_cents() - 1), 1, 1);
        assert!(full
            .record_sale_checked(q, Price::dollars(1), 1, 1)
            .is_none());
        assert_eq!(full.sales(), 1);
        assert_eq!(full.transactions().len(), 1);
    }

    #[test]
    fn a_restored_ledger_appends_after_its_history() {
        let mut l = Ledger::new();
        l.record_sale("Q(x) :- R(x)", Price::dollars(2), 1, 1);
        let mut back = Ledger::from_snapshot_text(l.to_snapshot_text()).unwrap();
        assert_eq!(back.record_sale("Q(y) :- T(y)", Price::cents(5), 0, 2), 2);
        assert_eq!(back.record_update("T".into(), 1), 3);
        assert_eq!(
            back.to_snapshot_text(),
            "revenue 205\nnext_id 4\n\
             sale 1 200 1 1 Q(x) :- R(x)\n\
             sale 2 5 0 2 Q(y) :- T(y)\n\
             update 3 1 T\n"
        );
        assert_eq!(back.transactions().len(), 3);
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

    #[test]
    fn numbers_are_read_as_they_are_written() {
        let read = |field: &str| {
            let text = format!("{field} ");
            Reader(&text).number(b' ')
        };
        for n in [0, 1, 9, 10, 4_250, u64::MAX] {
            let mut text = String::new();
            push_number(&mut text, n);
            assert_eq!(text, n.to_string());
            assert_eq!(read(&text), Some(n));
        }
        for bad in [
            "",
            "+5",
            "-1",
            "007",
            "00",
            "1a",
            " 1",
            "18446744073709551616",
        ] {
            assert_eq!(read(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn line_end_finds_the_first_line_break() {
        let text = "0123456789abcdef\n0123456\n\n";
        for start in 0..text.len() {
            let bytes = &text.as_bytes()[start..];
            assert_eq!(
                line_end(bytes),
                bytes.iter().position(|&b| b == b'\n'),
                "from {start}"
            );
        }
        // A byte just above a line break, and bytes 0x0b and 0x8a.
        for text in [
            "a\n\u{0}bcdefgh",
            "\u{b}\u{b}\n",
            "é\u{8a}\n",
            "no break at all",
        ] {
            let bytes = text.as_bytes();
            assert_eq!(line_end(bytes), bytes.iter().position(|&b| b == b'\n'));
        }
    }

    /// A transaction as the oracle reads it: whether it is a sale, its
    /// id, its three or one numbers, and its text.
    type Owned = (bool, u64, Vec<u64>, String);

    /// What the oracle restores from a text.
    struct Oracle {
        revenue: Price,
        next_id: u64,
        transactions: Vec<Owned>,
    }

    /// The ledger reader from before the ledger kept its snapshot text,
    /// when it rebuilt a `Vec` of owned transactions: the oracle the
    /// byte scan is held to. Its logic is unchanged; it records each
    /// transaction as an [`Owned`].
    fn oracle(text: &str) -> Result<Oracle, String> {
        let split_word = |s: &'_ str| -> (String, String) {
            match s.bytes().position(|b| b == b' ') {
                Some(i) => (s[..i].to_string(), s[i + 1..].to_string()),
                None => (s.to_string(), String::new()),
            }
        };
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
        let mut max_id = 0;
        for line in lines {
            let (kind, mut rest) = split_word(line);
            let mut num = |name: &str| -> Result<u64, String> {
                let (field, tail) = split_word(&rest);
                rest = tail;
                field
                    .parse()
                    .map_err(|_| format!("bad {kind} {name} in `{line}`"))
            };
            let id = match kind.as_str() {
                "sale" => {
                    let id = num("id")?;
                    let price = Price::cents(num("price")?);
                    let answer_tuples = num("answer_tuples")?;
                    let views = num("views")?;
                    sum = sum
                        .checked_add(price)
                        .ok_or_else(|| "ledger revenue overflows".to_string())?;
                    let numbers = vec![price.as_cents(), answer_tuples, views];
                    transactions.push((true, id, numbers, rest));
                    id
                }
                "update" => {
                    let id = num("id")?;
                    let added = num("count")?;
                    transactions.push((false, id, vec![added], rest));
                    id
                }
                other => return Err(format!("unknown ledger line kind `{other}`")),
            };
            max_id = max_id.max(id);
        }
        if sum != revenue {
            return Err("revenue mismatch".to_string());
        }
        if next_id <= max_id {
            return Err("stale next_id".to_string());
        }
        Ok(Oracle {
            revenue,
            next_id,
            transactions,
        })
    }

    /// The text the oracle's writer rendered for what it restored.
    fn oracle_render(o: &Oracle) -> String {
        let mut out = format!("revenue {}\nnext_id {}\n", o.revenue.as_cents(), o.next_id);
        for (sale, id, numbers, text) in &o.transactions {
            let kind = if *sale { "sale" } else { "update" };
            out.push_str(&format!("{kind} {id}"));
            for n in numbers {
                out.push_str(&format!(" {n}"));
            }
            out.push_str(&format!(" {text}\n"));
        }
        out
    }

    fn owned(t: Transaction<'_>) -> Owned {
        match t {
            Transaction::Sale {
                id,
                query,
                price,
                answer_tuples,
                views,
            } => (
                true,
                id,
                vec![price.as_cents(), answer_tuples as u64, views as u64],
                query.to_string(),
            ),
            Transaction::Update {
                id,
                relation,
                added,
            } => (false, id, vec![added as u64], relation.to_string()),
        }
    }

    const QUERIES: [&str; 6] = [
        "Q(x) :- R(x)",
        "Q(x, y) :- R(x), S(x, y), T(y)",
        "Q(n) :- Business(n, 'New York', c)",
        "Q(x) :- R(x), x = 'a\rb'",
        "Q(x) :- R(x), x = 'é ü'",
        "",
    ];

    /// One generated transaction: kind selector, price, answer tuples,
    /// views and text index.
    type Step = (u8, u64, u64, u64, usize);

    /// A ledger text from `steps`, rendered canonically, then broken by
    /// `mutation` (0–3 leave it whole) at a place drawn from `pick`.
    fn ledger_text(steps: &[Step], mutation: u8, pick: u64) -> String {
        let near_top = Price::INFINITE.as_cents() - 1;
        let (mut revenue, mut lines) = (0u64, Vec::new());
        for (i, &(kind, price, answer_tuples, views, q)) in steps.iter().enumerate() {
            let id = i as u64 + 1;
            let text = QUERIES[q % QUERIES.len()];
            if kind == 0 {
                lines.push(format!(
                    "update {id} {answer_tuples} {}",
                    &text[..1.min(text.len())]
                ));
            } else {
                // An overflow mutation prices every sale near the top.
                let price = if mutation == 8 { near_top } else { price };
                revenue = revenue.wrapping_add(price);
                lines.push(format!("sale {id} {price} {answer_tuples} {views} {text}"));
            }
        }
        let mut next_id = steps.len() as u64 + 1;
        let pick_line = |lines: &Vec<String>| (pick as usize) % lines.len().max(1);
        match mutation {
            4 if !lines.is_empty() => {
                // One number of one line, written another way.
                let bad = [
                    "+5",
                    "007",
                    "",
                    "-1",
                    "18446744073709551616",
                    "1a",
                    "00",
                    "0",
                ];
                let i = pick_line(&lines);
                let mut fields: Vec<String> = lines[i].split(' ').map(str::to_string).collect();
                let field = 1 + (pick as usize / 7) % 2;
                fields[field] = bad[(pick as usize / 3) % bad.len()].to_string();
                lines[i] = fields.join(" ");
            }
            5 => {
                let i = pick_line(&lines);
                let kinds = ["sell 1 1 1 1 Q", "", "Sale 1 2 3 4 Q", "update"];
                lines.insert(i, kinds[(pick as usize / 5) % kinds.len()].to_string());
            }
            6 => {
                revenue = revenue
                    .wrapping_add(1 + pick % 3)
                    .wrapping_sub(pick % 2 * 2)
            }
            7 => next_id = pick % next_id,
            // Sales past the sentinel; the header holds the wrapped sum.
            8 => {}
            13 if !lines.is_empty() => {
                // The space before an empty text, dropped.
                let i = pick_line(&lines);
                if lines[i].ends_with(' ') {
                    lines[i].pop();
                } else {
                    lines[i].push_str("  ");
                }
            }
            _ => {}
        }
        let mut text = format!("revenue {revenue}\nnext_id {next_id}\n");
        for line in &lines {
            text.push_str(line);
            text.push('\n');
        }
        match mutation {
            9 => {
                text.pop();
            }
            10 => text = text.replace('\n', "\r\n"),
            11 => {
                let variants = [
                    "revenue  ",
                    "revenue +",
                    "revenue 0",
                    "next_id  ",
                    "next_id 0",
                ];
                let v = variants[(pick as usize) % variants.len()];
                let key = &v[..8];
                text = text.replacen(key, v, 1);
                if pick.is_multiple_of(2) {
                    text = text.replacen('\n', " \n", 1);
                }
            }
            12 => {
                let mut cut = (pick as usize) % (text.len() + 1);
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                text.truncate(cut);
            }
            _ => {}
        }
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// The byte scan against the reader it replaced, on whole and
        /// broken texts: a text the scan accepts, the oracle accepts with
        /// the same totals and transactions, and it renders back byte for
        /// byte; a text the oracle accepts and would have written itself,
        /// the scan accepts. The oracle accepts more only of texts its
        /// writer never wrote (a sign, a leading zero, padding around a
        /// header number, `\r\n` line ends, a missing last line end, a
        /// line with no space before an empty text).
        #[test]
        fn the_byte_scan_agrees_with_the_reader_it_replaced(
            steps in proptest::collection::vec(
                (0u8..3, 0u64..100_000, 0u64..50, 0u64..20, 0usize..12),
                0..10,
            ),
            mutation in 0u8..14,
            pick in any::<u64>(),
        ) {
            let text = ledger_text(&steps, mutation, pick);
            let new = Ledger::from_snapshot_text(text.as_str());
            let old = oracle(&text);
            match (&new, &old) {
                (Ok(new), Ok(old)) => {
                    prop_assert_eq!(new.revenue(), old.revenue);
                    prop_assert_eq!(new.last_id + 1, old.next_id);
                    let sales = old.transactions.iter().filter(|t| t.0).count();
                    prop_assert_eq!(new.sales(), sales);
                    prop_assert_eq!(new.transactions().len(), old.transactions.len());
                    let parsed: Vec<Owned> = new.transactions().map(owned).collect();
                    prop_assert_eq!(&parsed, &old.transactions);
                    prop_assert_eq!(&new.to_snapshot_text(), &text);
                }
                (Ok(_), Err(e)) => {
                    return Err(TestCaseError::fail(format!("only the scan accepts {text:?}: {e}")));
                }
                (Err(e), Ok(old)) => prop_assert!(
                    oracle_render(old) != text,
                    "the scan refuses {:?}, which the oracle's writer writes: {}",
                    text,
                    e
                ),
                (Err(_), Err(_)) => {}
            }
        }
    }
}
