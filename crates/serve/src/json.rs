//! Hand-rolled JSON encoding for the wire responses.
//!
//! No serde in the tree (vendored-shim discipline), and the response
//! shapes are small and fixed, so the encoder is a page of `push_str`
//! calls. Prices travel twice: as raw cents (`*_cents`, the field a
//! programmatic buyer does arithmetic on, `null` when the price is the
//! ∞ sentinel) and as the rendered display string. Degraded quotes
//! carry the sound `[lower, upper]` interval from
//! [`qbdp_core::QuoteQuality::UpperBound`] so a buyer can see exactly
//! how loose a budget-limited price is.

use qbdp_core::{Price, QuoteQuality};
use qbdp_market::{MarketError, MarketHealth, MarketQuote, Purchase};

/// Lowercase hex digits for `\u00XX` escapes.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// Append `s` as a JSON string literal (with escaping). Runs of bytes
/// that need no escape are copied whole; only `"`, `\` and control
/// bytes are rewritten. Every byte that needs an escape is ASCII, so
/// the run boundaries are char boundaries.
pub fn push_str_lit(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    // audit: bounded(one pass over the bytes of the string being encoded)
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            _ => None,
        };
        out.push_str(&s[run..i]);
        match short {
            Some(escape) => out.push_str(escape),
            None => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append a price as `"name_cents":N,"name":"$N.NN"` (cents `null`
/// when infinite).
fn push_price(out: &mut String, name: &str, p: Price) {
    out.push('"');
    out.push_str(name);
    out.push_str("_cents\":");
    if p.is_finite() {
        out.push_str(&p.as_cents().to_string());
    } else {
        out.push_str("null");
    }
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
    push_str_lit(out, &p.to_string());
}

/// Encode one quote.
pub fn quote(q: &MarketQuote) -> String {
    let receipt = q.receipt();
    let receipt_len: usize = receipt.iter().map(|line| line.len() + 3).sum();
    let mut out = String::with_capacity(256 + receipt_len);
    out.push_str("{\"query\":");
    push_str_lit(&mut out, &q.query);
    out.push(',');
    push_price(&mut out, "price", q.price);
    out.push_str(",\"quality\":");
    match q.quality {
        QuoteQuality::Exact => out.push_str("\"exact\""),
        QuoteQuality::UpperBound => {
            out.push_str("\"upper_bound\",\"interval_cents\":[");
            if q.lower_bound.is_finite() {
                out.push_str(&q.lower_bound.as_cents().to_string());
            } else {
                out.push_str("null");
            }
            out.push(',');
            if q.price.is_finite() {
                out.push_str(&q.price.as_cents().to_string());
            } else {
                out.push_str("null");
            }
            out.push(']');
        }
    }
    out.push_str(",\"method\":");
    push_str_lit(&mut out, &format!("{:?}", q.method));
    out.push_str(",\"class\":");
    push_str_lit(&mut out, &format!("{:?}", q.class));
    out.push_str(",\"receipt\":[");
    // audit: bounded(one pass over the quote's receipt lines)
    for (i, line) in receipt.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_lit(&mut out, line);
    }
    out.push_str("]}");
    out
}

/// Encode one completed purchase.
pub fn purchase(p: &Purchase) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("{\"transaction_id\":");
    out.push_str(&p.transaction_id.to_string());
    out.push_str(",\"quote\":");
    out.push_str(&quote(&p.quote));
    out.push_str(",\"answer\":[");
    // audit: bounded(one pass over the purchased answer's tuples)
    for (i, t) in p.answer.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_lit(&mut out, &t.to_string());
    }
    out.push_str("]}");
    out
}

/// Encode one market error.
pub fn error(e: &MarketError) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"error\":{\"kind\":\"");
    out.push_str(kind(e));
    out.push_str("\",\"message\":");
    push_str_lit(&mut out, &e.to_string());
    out.push_str("}}");
    out
}

/// Encode the health probe body.
pub fn health(h: &MarketHealth) -> String {
    match h {
        MarketHealth::Healthy => "{\"status\":\"healthy\"}".to_string(),
        MarketHealth::ReadOnly { reason } => {
            let mut out = String::from("{\"status\":\"read_only\",\"reason\":");
            push_str_lit(&mut out, reason);
            out.push('}');
            out
        }
    }
}

/// The stable machine-readable error kind.
pub fn kind(e: &MarketError) -> &'static str {
    match e {
        MarketError::InconsistentPrices(_) => "inconsistent_prices",
        MarketError::Pricing(_) => "pricing",
        MarketError::Query(_) => "query",
        MarketError::NotForSale => "not_for_sale",
        MarketError::Update(_) => "update",
        MarketError::DeadlineExceeded => "deadline_exceeded",
        MarketError::Overloaded => "overloaded",
        MarketError::Internal(_) => "internal",
        MarketError::Store(_) => "store",
        MarketError::RevenueOverflow => "revenue_overflow",
        MarketError::Contended => "contended",
        MarketError::Degraded(_) => "degraded",
    }
}

/// The typed error→HTTP mapping (documented in DESIGN §4.7):
///
/// | errors | status |
/// |---|---|
/// | `Query`, `Update` | 400 (the buyer's request is wrong) |
/// | `NotForSale` | 404 (no finite price exists) |
/// | `InconsistentPrices`, `Contended` | 409 (state conflict; retryable for `Contended`) |
/// | `Overloaded` | 429 (admission control; retry with backoff) |
/// | `DeadlineExceeded`, `Degraded` | 503 (the service, not the request) |
/// | `Pricing`, `Internal`, `Store`, `RevenueOverflow` | 500 |
pub fn status(e: &MarketError) -> (u16, &'static str) {
    match e {
        MarketError::Query(_) | MarketError::Update(_) => (400, "Bad Request"),
        MarketError::NotForSale => (404, "Not Found"),
        MarketError::InconsistentPrices(_) | MarketError::Contended => (409, "Conflict"),
        MarketError::Overloaded => (429, "Too Many Requests"),
        MarketError::DeadlineExceeded | MarketError::Degraded(_) => (503, "Service Unavailable"),
        MarketError::Pricing(_)
        | MarketError::Internal(_)
        | MarketError::Store(_)
        | MarketError::RevenueOverflow => (500, "Internal Server Error"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The char-at-a-time encoder `push_str_lit` replaced: the oracle
    /// its output must match byte for byte.
    fn push_str_lit_by_char(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Characters the escaper must handle: every control byte, the two
    /// that JSON escapes, receipt text (`σ`, `∞`, `$`, `@`), other
    /// multi-byte UTF-8, and the first byte past the control range.
    fn alphabet() -> Vec<char> {
        let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
        chars.extend([
            '"', '\\', ' ', 'a', 'Z', '0', '$', '@', '.', '=', '[', ']', '/', '\u{7f}', 'é', 'σ',
            '∞', '€', '😀',
        ]);
        chars
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn bulk_escaping_matches_the_char_encoder(
            picks in proptest::collection::vec(0usize..1_000, 0..64),
        ) {
            let alphabet = alphabet();
            let s: String = picks.iter().map(|&i| alphabet[i % alphabet.len()]).collect();
            let (mut bulk, mut by_char) = (String::from("{"), String::from("{"));
            push_str_lit(&mut bulk, &s);
            push_str_lit_by_char(&mut by_char, &s);
            prop_assert_eq!(bulk, by_char);
        }
    }

    #[test]
    fn string_escaping() {
        let mut out = String::new();
        push_str_lit(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn every_control_byte_and_receipt_text_match_the_char_encoder() {
        let mut s: String = (0u8..0x20).map(char::from).collect();
        s.push_str("σ[S.Y=b1] @ $1.00 ∞ \"q\" \\");
        let (mut bulk, mut by_char) = (String::new(), String::new());
        push_str_lit(&mut bulk, &s);
        push_str_lit_by_char(&mut by_char, &s);
        assert_eq!(bulk, by_char);
        assert!(bulk.contains("\\u001f") && bulk.contains("σ[S.Y=b1] @ $1.00 ∞"));
    }

    #[test]
    fn overloaded_maps_to_429() {
        assert_eq!(status(&MarketError::Overloaded).0, 429);
        assert_eq!(kind(&MarketError::Overloaded), "overloaded");
    }

    #[test]
    fn degraded_maps_to_503() {
        assert_eq!(status(&MarketError::Degraded("disk full".into())).0, 503);
    }
}
