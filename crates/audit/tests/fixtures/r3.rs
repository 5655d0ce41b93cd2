//! R3 golden fixture: lock-discipline violations.
//! Never compiled — tests/golden.rs feeds it to the auditor (under the
//! virtual path `crates/market/src/…`, where the lock rules bind) and
//! the trailing rule markers name the diagnostics it must produce.

// audit: holds-lock(wal)
fn flush_with_quote(&self) {
    let wal = self.wal.lock();
    self.market.quote_str(query); //~ R3
}

fn peek(&self) { let guard = self.inner.lock(); } //~ R3

// The plan mutex guards only check-out/check-in; pricing with a plan
// happens after it is released.
// audit: holds-lock(plan)
fn reprice_under_plan_lock(&self) {
    let mut plan = self.plan.lock();
    price_planned(pricer, q, plan.checkout(key)); //~ R3
}
