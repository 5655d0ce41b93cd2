//! Allocation budget of a cold GChQ price on the business directory.
//!
//! A counting global allocator tallies the heap allocations (and
//! reallocations) the pricing thread makes while `Pricer::price_cq` prices
//! a fixed, seeded set of county slices of the directory market cold. The
//! counts are deterministic — the same code prices the same queries the
//! same way — so the bound needs no noise margin: it sits about 1.5× above
//! the mean this suite measures (≈600 allocations per price; the pipeline
//! made ≈2,900 when every text value owned its string and Step 3 resolved
//! every cover eagerly). A change that brings those copies back fails here
//! rather than only in a benchmark.
//!
//! Run with `cargo test --test alloc_budget -- --nocapture` to see the
//! measured mean.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qbdp::prelude::*;
use qbdp::workload::scenarios::business::{generate, BusinessConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Mean allocations per cold `price_cq` the suite accepts.
const MAX_MEAN_ALLOCS: f64 = 900.0;

/// Cold prices measured.
const SLICES: usize = 200;

thread_local! {
    /// Allocations made by this thread so far. `const`-initialized and
    /// free of destructors, so reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation and reallocation
/// against the thread that makes it.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s contract is `Counting`'s; the thread-local
// counter update neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract for a block `System` allocated.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The directory market of the served benchmark (seed 2012, 10 states ×
/// 10 counties × 400 businesses) and `SLICES` seeded county slices of it,
/// `Q(n, c) :- Business(n, 'S', c), c in {...}`.
fn directory_slices() -> (Pricer, Vec<ConjunctiveQuery>) {
    let mut rng = StdRng::seed_from_u64(2012);
    let m = generate(
        &mut rng,
        BusinessConfig {
            states: 10,
            counties_per_state: 10,
            businesses: 400,
            ..BusinessConfig::default()
        },
    )
    .unwrap();
    let pricer = Pricer::new(m.catalog, m.instance, m.prices).unwrap();
    let per_state = 10;
    let mut rng = StdRng::seed_from_u64(19);
    let queries = (0..SLICES)
        .map(|_| {
            let s = rng.gen_range(0..m.states.len());
            let mask = rng.gen_range(1u32..1 << per_state);
            let set: Vec<String> = (0..per_state)
                .filter(|b| mask & (1 << b) != 0)
                .map(|b| format!("'{}'", m.counties[s * per_state + b]))
                .collect();
            let text = format!(
                "Q(n, c) :- Business(n, '{}', c), c in {{{}}}",
                m.states[s],
                set.join(", ")
            );
            parse_rule(pricer.catalog().schema(), &text).unwrap()
        })
        .collect();
    (pricer, queries)
}

#[test]
fn cold_directory_prices_stay_within_the_allocation_budget() {
    let (pricer, queries) = directory_slices();
    let mut total = 0;
    for q in &queries {
        let before = allocs();
        let quote = pricer.price_cq(q).unwrap();
        total += allocs() - before;
        assert_eq!(quote.method, PricingMethod::ChainFlow);
        assert!(quote.price.is_finite() && !quote.views.is_empty());
    }
    let mean = total as f64 / queries.len() as f64;
    println!("mean allocations per cold price_cq: {mean:.1}");
    assert!(
        mean <= MAX_MEAN_ALLOCS,
        "a cold directory price makes {mean:.1} allocations on average, over the budget of {MAX_MEAN_ALLOCS}"
    );
}
