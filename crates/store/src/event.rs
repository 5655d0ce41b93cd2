//! The typed market event log vocabulary and its binary encoding.
//!
//! One [`MarketEvent`] is one durable mutation of a market. The store
//! layer knows nothing about pricing semantics: relations, tuples, and
//! selection views travel as the same rendered literals the `.qdp` text
//! format uses, so the market layer can re-resolve them against its
//! schema on replay and the log stays readable with one `xxd`.
//!
//! # Wire format
//!
//! Every event is `[u8 tag]` followed by its fields in order. Integers
//! are fixed-width little-endian `u64`; strings are `u32` byte length +
//! UTF-8 bytes; `Option<u64>` is a presence byte + value; lists are a
//! `u32` count + elements. The encoding is self-contained per event —
//! framing, length, and checksum belong to [`crate::wal`].
//!
//! An event's texts are [`Cow`]s: a writer lends its own strings to the
//! event it appends, and [`MarketEvent::decode`] lends the payload's
//! bytes, so neither copies a text it only passes through.

use crate::error::StoreError;
use std::borrow::Cow;

/// One durable market mutation, borrowing its texts for `'a`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MarketEvent<'a> {
    /// The seller set (or added) the price of one selection view.
    /// `view` is the `R.X=a` selector syntax; `cents` the new price.
    SetPrice {
        /// Selector in `R.X=a` syntax.
        view: Cow<'a, str>,
        /// New price in cents.
        cents: u64,
    },
    /// The seller inserted one tuple.
    InsertTuple {
        /// Relation name.
        relation: Cow<'a, str>,
        /// Values as `.qdp` literals, in attribute order.
        values: Vec<Cow<'a, str>>,
    },
    /// A buyer completed a purchase. The quoted terms are recorded so
    /// replay can restore the ledger without re-pricing.
    Purchase {
        /// The query, rendered canonically.
        query: Cow<'a, str>,
        /// The price paid, in cents.
        price_cents: u64,
        /// Answer tuples delivered.
        answer_tuples: u64,
        /// Views in the receipt.
        views: u64,
    },
    /// The market's resource policy changed.
    PolicyChange {
        /// Wall-clock deadline per quote, milliseconds (`None` = unlimited).
        deadline_ms: Option<u64>,
        /// Fuel per quote (`None` = unlimited).
        fuel: Option<u64>,
        /// Whether degraded quotes may be sold.
        sell_degraded: bool,
        /// Admission cap on in-flight requests.
        max_in_flight: u64,
        /// Batch worker count (0 = one per core).
        batch_workers: u64,
    },
    /// A snapshot covering the log up to `wal_pos` was written. Purely
    /// informational (recovery trusts the snapshot file's own header);
    /// kept in the log so `replay` can narrate compaction history.
    SnapshotMark {
        /// Byte position of the log the snapshot covers.
        wal_pos: u64,
    },
}

const TAG_SET_PRICE: u8 = 1;
const TAG_INSERT_TUPLE: u8 = 2;
const TAG_PURCHASE: u8 = 3;
const TAG_POLICY_CHANGE: u8 = 4;
const TAG_SNAPSHOT_MARK: u8 = 5;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
        None => out.push(0),
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over an event payload.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            other => Err(format!("bad Option discriminant {other}")),
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(Cow::Borrowed)
            .map_err(|_| "string is not UTF-8".to_string())
    }

    fn done(&self) -> Result<(), String> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing byte(s) after event",
                self.data.len() - self.pos
            ))
        }
    }
}

impl<'a> MarketEvent<'a> {
    /// Serialize to the wire format (payload only; no framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            MarketEvent::SetPrice { view, cents } => {
                out.push(TAG_SET_PRICE);
                put_str(&mut out, view);
                put_u64(&mut out, *cents);
            }
            MarketEvent::InsertTuple { relation, values } => {
                out.push(TAG_INSERT_TUPLE);
                put_str(&mut out, relation);
                out.extend_from_slice(&(values.len() as u32).to_le_bytes());
                for v in values {
                    put_str(&mut out, v);
                }
            }
            MarketEvent::Purchase {
                query,
                price_cents,
                answer_tuples,
                views,
            } => {
                out.push(TAG_PURCHASE);
                put_str(&mut out, query);
                put_u64(&mut out, *price_cents);
                put_u64(&mut out, *answer_tuples);
                put_u64(&mut out, *views);
            }
            MarketEvent::PolicyChange {
                deadline_ms,
                fuel,
                sell_degraded,
                max_in_flight,
                batch_workers,
            } => {
                out.push(TAG_POLICY_CHANGE);
                put_opt_u64(&mut out, *deadline_ms);
                put_opt_u64(&mut out, *fuel);
                out.push(u8::from(*sell_degraded));
                put_u64(&mut out, *max_in_flight);
                put_u64(&mut out, *batch_workers);
            }
            MarketEvent::SnapshotMark { wal_pos } => {
                out.push(TAG_SNAPSHOT_MARK);
                put_u64(&mut out, *wal_pos);
            }
        }
        out
    }

    /// Decode one event from a CRC-validated payload, borrowing its
    /// texts from `payload`. `offset` is the record's position in the
    /// log, used only to type the error.
    pub fn decode(payload: &'a [u8], offset: u64) -> Result<MarketEvent<'a>, StoreError> {
        Self::decode_inner(payload).map_err(|reason| StoreError::CorruptRecord { offset, reason })
    }

    fn decode_inner(payload: &'a [u8]) -> Result<MarketEvent<'a>, String> {
        let mut r = Reader {
            data: payload,
            pos: 0,
        };
        let event = match r.u8()? {
            TAG_SET_PRICE => MarketEvent::SetPrice {
                view: r.string()?,
                cents: r.u64()?,
            },
            TAG_INSERT_TUPLE => {
                let relation = r.string()?;
                let n = r.u32()? as usize;
                // Each value needs at least its 4-byte length prefix, so a
                // plausible count is bounded by the remaining payload.
                if n > payload.len() / 4 + 1 {
                    return Err(format!("implausible value count {n}"));
                }
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(r.string()?);
                }
                MarketEvent::InsertTuple { relation, values }
            }
            TAG_PURCHASE => MarketEvent::Purchase {
                query: r.string()?,
                price_cents: r.u64()?,
                answer_tuples: r.u64()?,
                views: r.u64()?,
            },
            TAG_POLICY_CHANGE => MarketEvent::PolicyChange {
                deadline_ms: r.opt_u64()?,
                fuel: r.opt_u64()?,
                sell_degraded: match r.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("bad bool discriminant {other}")),
                },
                max_in_flight: r.u64()?,
                batch_workers: r.u64()?,
            },
            TAG_SNAPSHOT_MARK => MarketEvent::SnapshotMark { wal_pos: r.u64()? },
            other => return Err(format!("unknown event tag {other}")),
        };
        r.done()?;
        Ok(event)
    }

    /// The same event owning its texts.
    pub fn into_owned(self) -> MarketEvent<'static> {
        let own = |s: Cow<'_, str>| Cow::Owned(s.into_owned());
        match self {
            MarketEvent::SetPrice { view, cents } => MarketEvent::SetPrice {
                view: own(view),
                cents,
            },
            MarketEvent::InsertTuple { relation, values } => MarketEvent::InsertTuple {
                relation: own(relation),
                values: values.into_iter().map(own).collect(),
            },
            MarketEvent::Purchase {
                query,
                price_cents,
                answer_tuples,
                views,
            } => MarketEvent::Purchase {
                query: own(query),
                price_cents,
                answer_tuples,
                views,
            },
            MarketEvent::PolicyChange {
                deadline_ms,
                fuel,
                sell_degraded,
                max_in_flight,
                batch_workers,
            } => MarketEvent::PolicyChange {
                deadline_ms,
                fuel,
                sell_degraded,
                max_in_flight,
                batch_workers,
            },
            MarketEvent::SnapshotMark { wal_pos } => MarketEvent::SnapshotMark { wal_pos },
        }
    }

    /// Short human name for logs and `replay` summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            MarketEvent::SetPrice { .. } => "set-price",
            MarketEvent::InsertTuple { .. } => "insert",
            MarketEvent::Purchase { .. } => "purchase",
            MarketEvent::PolicyChange { .. } => "policy",
            MarketEvent::SnapshotMark { .. } => "snapshot-mark",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<MarketEvent<'static>> {
        vec![
            MarketEvent::SetPrice {
                view: "S.Y=b1".into(),
                cents: 25,
            },
            MarketEvent::InsertTuple {
                relation: "S".into(),
                values: vec!["a1".into(), "'odd name'".into()],
            },
            MarketEvent::InsertTuple {
                relation: "R".into(),
                values: vec![],
            },
            MarketEvent::Purchase {
                query: "Q(x) :- R(x)".into(),
                price_cents: 400,
                answer_tuples: 2,
                views: 4,
            },
            MarketEvent::PolicyChange {
                deadline_ms: Some(50),
                fuel: None,
                sell_degraded: true,
                max_in_flight: 64,
                batch_workers: 0,
            },
            MarketEvent::SnapshotMark { wal_pos: 12345 },
        ]
    }

    #[test]
    fn roundtrip() {
        for ev in samples() {
            let bytes = ev.encode();
            let back = MarketEvent::decode(&bytes, 0).unwrap();
            assert_eq!(ev, back);
            // Every text of the decoded event is a slice of the payload.
            let texts: Vec<&Cow<'_, str>> = match &back {
                MarketEvent::SetPrice { view, .. } => vec![view],
                MarketEvent::InsertTuple { relation, values } => {
                    std::iter::once(relation).chain(values).collect()
                }
                MarketEvent::Purchase { query, .. } => vec![query],
                _ => vec![],
            };
            assert!(texts.iter().all(|t| matches!(t, Cow::Borrowed(_))));
            assert_eq!(back.into_owned(), ev);
        }
    }

    #[test]
    fn truncated_payload_is_typed_error() {
        for ev in samples() {
            let bytes = ev.encode();
            for cut in 0..bytes.len() {
                let err = MarketEvent::decode(&bytes[..cut], 7);
                assert!(
                    matches!(err, Err(StoreError::CorruptRecord { offset: 7, .. })),
                    "cut at {cut} of {ev:?} must be CorruptRecord"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = samples()[0].encode();
        bytes.push(0xAA);
        assert!(matches!(
            MarketEvent::decode(&bytes, 0),
            Err(StoreError::CorruptRecord { .. })
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            MarketEvent::decode(&[200, 0, 0], 0),
            Err(StoreError::CorruptRecord { .. })
        ));
    }
}
