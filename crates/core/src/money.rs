//! Exact fixed-point money.
//!
//! Prices are `u64` **cents**. The paper allows prices in ℝ⁺; everything it
//! does with them is `min` and `+`, which fixed-point preserves exactly —
//! and exactness is load-bearing here, because prices become Min-Cut
//! capacities and consistency checks compare sums for equality.

use std::fmt;
use std::iter::Sum;

/// A non-negative price in cents, or [`Price::INFINITE`] ("not for sale").
///
/// Addition is always explicit: [`Price::checked_add`] refuses to reach
/// `INFINITE`, while [`Price::saturating_add`] (and `Sum`) saturates at it,
/// so a sum involving an unavailable view stays unavailable instead of
/// wrapping.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Price(u64);

impl Price {
    /// Zero — the price of the empty bundle (Proposition 2.8, item 3).
    pub const ZERO: Price = Price(0);

    /// "Not for sale." Matches the flow layer's uncuttable-capacity
    /// sentinel so unpriced views become ∞-capacity edges verbatim.
    pub const INFINITE: Price = Price(qbdp_flow::INF);

    /// A price from whole cents. Values at or above the sentinel are
    /// clamped to `INFINITE`.
    pub const fn cents(c: u64) -> Price {
        if c >= qbdp_flow::INF {
            Price::INFINITE
        } else {
            Price(c)
        }
    }

    /// A price from whole dollars.
    pub const fn dollars(d: u64) -> Price {
        Price::cents(d * 100)
    }

    /// The raw cent count (the sentinel value for `INFINITE`).
    pub const fn as_cents(self) -> u64 {
        self.0
    }

    /// Whether this price is the `INFINITE` sentinel.
    pub const fn is_infinite(self) -> bool {
        self.0 >= qbdp_flow::INF
    }

    /// Whether this price is finite.
    pub const fn is_finite(self) -> bool {
        !self.is_infinite()
    }

    /// Checked addition: `None` if either operand is `INFINITE` or the
    /// sum would reach the sentinel. The durable-recovery path uses this
    /// so replaying a pathological purchase history surfaces a typed
    /// overflow error instead of silently saturating revenue to ∞.
    pub fn checked_add(self, other: Price) -> Option<Price> {
        if self.is_infinite() || other.is_infinite() {
            return None;
        }
        let sum = self.0.checked_add(other.0)?;
        if sum >= qbdp_flow::INF {
            None
        } else {
            Some(Price(sum))
        }
    }

    /// Saturating addition: any operand `INFINITE` ⇒ result `INFINITE`.
    pub fn saturating_add(self, other: Price) -> Price {
        if self.is_infinite() || other.is_infinite() {
            Price::INFINITE
        } else {
            Price::cents(self.0.saturating_add(other.0))
        }
    }

    /// The sum `self` with one of its terms, `old`, replaced by `new` —
    /// what re-adding the terms would give, clamp to `INFINITE`
    /// included. `None` when any of the three is `INFINITE`: an infinite
    /// sum does not say what its finite terms add up to, and an infinite
    /// term does not say what the others add up to, so the caller must
    /// re-add them. `old` must be one of the terms `self` was summed
    /// from.
    pub fn replace_term(self, old: Price, new: Price) -> Option<Price> {
        if self.is_infinite() || old.is_infinite() || new.is_infinite() {
            return None;
        }
        let rest = self.0.checked_sub(old.0)?;
        Some(Price::cents(rest.saturating_add(new.0)))
    }

    /// Flow capacity for a view with this price (`INFINITE` ⇒ uncuttable).
    pub const fn as_capacity(self) -> u64 {
        if self.is_infinite() {
            qbdp_flow::INF
        } else {
            self.0
        }
    }

    /// A price from a min-cut value (≥ the flow ∞ scale ⇒ `INFINITE`).
    pub const fn from_cut_value(v: u64) -> Price {
        if v >= qbdp_flow::INF {
            Price::INFINITE
        } else {
            Price(v)
        }
    }
}

impl Sum for Price {
    fn sum<I: Iterator<Item = Price>>(iter: I) -> Price {
        iter.fold(Price::ZERO, Price::saturating_add)
    }
}

impl fmt::Display for Price {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            write!(f, "∞")
        } else {
            write!(f, "${}.{:02}", self.0 / 100, self.0 % 100)
        }
    }
}

impl fmt::Debug for Price {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_display() {
        assert_eq!(Price::dollars(3).as_cents(), 300);
        assert_eq!(Price::cents(199).to_string(), "$1.99");
        assert_eq!(Price::dollars(100).to_string(), "$100.00");
        assert_eq!(Price::INFINITE.to_string(), "∞");
        assert_eq!(Price::ZERO, Price::cents(0));
    }

    #[test]
    fn saturating_arithmetic() {
        assert_eq!(
            Price::cents(1).saturating_add(Price::cents(2)),
            Price::cents(3)
        );
        assert_eq!(
            Price::INFINITE.saturating_add(Price::cents(5)),
            Price::INFINITE
        );
        assert_eq!(
            Price::cents(5).saturating_add(Price::INFINITE),
            Price::INFINITE
        );
        assert!(Price::INFINITE.is_infinite());
        assert!(Price::cents(u64::MAX).is_infinite());
        let total: Price = [Price::cents(10), Price::cents(20)].into_iter().sum();
        assert_eq!(total, Price::cents(30));
        let total: Price = [Price::cents(10), Price::INFINITE].into_iter().sum();
        assert!(total.is_infinite());
    }

    #[test]
    fn checked_arithmetic() {
        assert_eq!(
            Price::cents(1).checked_add(Price::cents(2)),
            Some(Price::cents(3))
        );
        assert_eq!(Price::INFINITE.checked_add(Price::cents(1)), None);
        assert_eq!(Price::cents(1).checked_add(Price::INFINITE), None);
        // Two finite prices whose sum crosses the sentinel: checked
        // refuses where saturating would clamp to ∞.
        let big = Price::cents(qbdp_flow::INF - 1);
        assert!(big.is_finite());
        assert_eq!(big.checked_add(big), None);
        assert!(big.saturating_add(big).is_infinite());
    }

    /// Replacing a term agrees with re-adding the terms, down to the
    /// clamp at the sentinel, and refuses every infinite operand.
    #[test]
    fn replace_term_matches_a_resum() {
        let near = qbdp_flow::INF - 10;
        let cases: [&[u64]; 4] = [&[5, 7, 9], &[0], &[near, 4], &[near / 2, near / 2, 3]];
        for terms in cases {
            let sum: Price = terms.iter().map(|&c| Price::cents(c)).sum();
            for (i, &old) in terms.iter().enumerate() {
                for new in [0, 1, 6, 20, near, qbdp_flow::INF - 1] {
                    let mut revised = terms.to_vec();
                    revised[i] = new;
                    let resum: Price = revised.iter().map(|&c| Price::cents(c)).sum();
                    let got = sum.replace_term(Price::cents(old), Price::cents(new));
                    if sum.is_infinite() {
                        assert_eq!(got, None, "{terms:?}");
                    } else {
                        assert_eq!(got, Some(resum), "{terms:?}[{i}] = {new}");
                    }
                }
            }
        }
        let p = Price::cents(10);
        assert_eq!(p.replace_term(Price::INFINITE, p), None);
        assert_eq!(p.replace_term(p, Price::INFINITE), None);
        assert_eq!(Price::INFINITE.replace_term(p, p), None);
    }

    #[test]
    fn ordering() {
        assert!(Price::cents(1) < Price::cents(2));
        assert!(Price::cents(u64::MAX / 32) < Price::INFINITE);
    }

    #[test]
    fn capacity_roundtrip() {
        assert_eq!(Price::cents(42).as_capacity(), 42);
        assert_eq!(Price::INFINITE.as_capacity(), qbdp_flow::INF);
        assert_eq!(Price::from_cut_value(42), Price::cents(42));
        assert!(Price::from_cut_value(qbdp_flow::INF).is_infinite());
    }
}
