//! A quote's receipt: the views its price stands for, captured once and
//! shared.
//!
//! A quote served from the cache and every copy handed out for it share
//! one [`Receipt`] behind an `Arc`, so a cache hit copies nothing per
//! view. Each view's price is captured when the quote is made, so a
//! later revision cannot change a receipt already quoted. The text
//! lines are rendered on first delivery and at most once per receipt:
//! rendering a 410-view business-directory list costs several times the
//! cache hit that serves it, so rendering per response would make every
//! hit on such a list several times dearer.

use qbdp_catalog::Schema;
use qbdp_core::price_points::PriceList;
use qbdp_core::Price;
use qbdp_determinacy::selection::SelectionView;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The views a quote's price stands for, each with the price it was
/// quoted at, and their rendered lines once someone asks for them.
pub(crate) struct Receipt {
    schema: Arc<Schema>,
    views: Vec<SelectionView>,
    /// `prices[i]` is the list price of `views[i]` at quote time.
    prices: Vec<Price>,
    lines: OnceLock<Vec<String>>,
}

impl Receipt {
    /// Capture `views` at their prices in `list` now.
    pub(crate) fn capture(
        schema: Arc<Schema>,
        views: Vec<SelectionView>,
        list: &PriceList,
    ) -> Receipt {
        let prices = views.iter().map(|v| list.get(v)).collect();
        Receipt {
            schema,
            views,
            prices,
            lines: OnceLock::new(),
        }
    }

    /// The views, in the order the engine reported them.
    pub(crate) fn views(&self) -> &[SelectionView] {
        &self.views
    }

    /// One line per view, `σ[R.X=a] @ $1.00`, rendered on the first call.
    pub(crate) fn lines(&self) -> &[String] {
        self.lines.get_or_init(|| {
            let schema = &self.schema;
            self.views
                .iter()
                .zip(&self.prices)
                .map(|(v, p)| format!("{} @ {p}", v.show(schema)))
                .collect()
        })
    }
}

impl fmt::Debug for Receipt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.lines()).finish()
    }
}
