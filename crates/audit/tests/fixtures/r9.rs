//! R9 golden fixture: panic reachability from serving entries. Never
//! compiled — tests/golden.rs feeds it to the auditor under the virtual
//! path `crates/market/src/…`. R9 finds every panic site on its own and
//! reports the ones a serving entry reaches outside a containment
//! frontier.

impl Market {
    // A serving entry (matches the configured `Market::quote*`): the
    // panic site two hops down is reported, anchored at the site.
    pub fn quote_str(&self) {
        self.lookup();
    }

    fn lookup(&self) {
        self.table.get(k).unwrap(); //~ R9
    }

    // Contained: the closure runs under `contain`'s catch_unwind, so
    // the same panic shape is fine here.
    pub fn quote_batch(&self) {
        contain(|| self.risky());
    }

    fn risky(&self) {
        self.table.get(k).unwrap();
    }

    // Waived: a panic-ok frontier cuts the walk.
    pub fn quote_explain(&self) {
        self.render();
    }

    // audit: panic-ok(debug rendering, feeds the flight recorder only)
    fn render(&self) {
        panic!("render failure");
    }
}

// The containment wrapper: calls catch_unwind directly, so its argument
// list is a frontier for every caller.
fn contain(f: impl FnOnce()) {
    let _ = std::panic::catch_unwind(f);
}
