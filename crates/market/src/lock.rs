//! Lock levels: the market's lock hierarchy, checked by the compiler.
//!
//! Pricing is worst-case exponential (Theorem 3.5), so a guard held
//! across a pricing call stalls everyone queued behind it: the WAL
//! mutex would stall every durable writer, a cache shard every cache
//! reader, the plan mutex every batch worker. And two paths taking the
//! same pair of locks in opposite orders can deadlock. This module turns
//! both rules into types, after the pattern of Fuchsia netstack3's
//! `lock_order` crate:
//!
//! * every lock is an [`OrderedMutex`] or [`OrderedRwLock`] tagged with a
//!   **level** — an uninhabited type: [`Wal`], [`State`], [`Plan`], or
//!   [`Shard`];
//! * taking a lock needs a [`Locked`] token for a level that comes
//!   **before** it ([`LockBefore`]), borrowed mutably for as long as the
//!   guard lives, and yields a token for the level reached
//!   ([`LockBefore::Next`]). A thread starts from [`Locked::root`]
//!   ([`Unlocked`]);
//! * pricing needs a token for a level that [`MayPrice`]: only
//!   [`Unlocked`] and [`State`] do.
//!
//! The order, outermost first, is `Unlocked < Wal < State < Plan <
//! Shard`. The level reached depends on what is held above: the state
//! lock taken from [`Unlocked`] yields [`State`], which may price; taken
//! under the WAL it yields [`StateUnderWal`], which may not. So every
//! token a thread can hold under the WAL — [`Wal`], [`StateUnderWal`],
//! [`Plan`], [`Shard`] — refuses to price, however many calls lie
//! between the WAL and the pricer. No level is before itself, so no
//! path holds two shards at once.
//!
//! Tokens and levels are zero-sized; a release build pays nothing. A
//! debug build also counts each thread's live ordered guards, so
//! [`Locked::root`] can assert that the thread holds none: crate code
//! that calls a root-minting public method while holding a lock is the
//! one mistake the types cannot see.
//!
//! # What fails to compile
//!
//! Each `compile_fail` example below is followed by a twin that differs
//! only in the offending line, which releases the inner lock first, and
//! compiles: stable rustdoc does not check error codes, so the twin
//! shows the failure is the intended one.
//!
//! Pricing under the WAL (E0277: `Wal` is not [`MayPrice`]):
//!
//! ```compile_fail,E0277
//! use qbdp_market::lock::{Locked, MayPrice, OrderedMutex, Wal};
//! fn price(_token: &Locked<'_, impl MayPrice>) {}
//! let wal = OrderedMutex::<Vec<u64>, Wal>::new(Vec::new());
//! let mut root = Locked::root();
//! let (log, at_wal) = wal.lock(&mut root);
//! price(&at_wal);
//! ```
//!
//! ```
//! use qbdp_market::lock::{Locked, MayPrice, OrderedMutex, Wal};
//! fn price(_token: &Locked<'_, impl MayPrice>) {}
//! let wal = OrderedMutex::<Vec<u64>, Wal>::new(Vec::new());
//! let mut root = Locked::root();
//! let (log, at_wal) = wal.lock(&mut root);
//! drop((log, at_wal)); price(&root);
//! ```
//!
//! Pricing with a state token taken under the WAL (E0277:
//! `StateUnderWal` is not [`MayPrice`]). This is the shape of a durable
//! write path that calls into a market method which takes the state
//! lock and prices:
//!
//! ```compile_fail,E0277
//! use qbdp_market::lock::{LockBefore, Locked, MayPrice, OrderedMutex, OrderedRwLock, State, Wal};
//! fn price(_token: &Locked<'_, impl MayPrice>) {}
//! fn lock_and_price<P: LockBefore<State>>(state: &OrderedRwLock<u64, State>, token: &mut Locked<'_, P>)
//! where
//!     P::Next: MayPrice,
//! {
//!     let (_st, at_state) = state.read(token);
//!     price(&at_state);
//! }
//! let wal = OrderedMutex::<Vec<u64>, Wal>::new(Vec::new());
//! let state = OrderedRwLock::<u64, State>::new(0);
//! let mut root = Locked::root();
//! let (log, mut at_wal) = wal.lock(&mut root);
//! lock_and_price(&state, &mut at_wal);
//! ```
//!
//! ```
//! use qbdp_market::lock::{LockBefore, Locked, MayPrice, OrderedMutex, OrderedRwLock, State, Wal};
//! fn price(_token: &Locked<'_, impl MayPrice>) {}
//! fn lock_and_price<P: LockBefore<State>>(state: &OrderedRwLock<u64, State>, token: &mut Locked<'_, P>)
//! where
//!     P::Next: MayPrice,
//! {
//!     let (_st, at_state) = state.read(token);
//!     price(&at_state);
//! }
//! let wal = OrderedMutex::<Vec<u64>, Wal>::new(Vec::new());
//! let state = OrderedRwLock::<u64, State>::new(0);
//! let mut root = Locked::root();
//! let (log, mut at_wal) = wal.lock(&mut root);
//! drop((log, at_wal)); lock_and_price(&state, &mut root);
//! ```
//!
//! A pricer reference kept alive across the plan lock (E0502). The
//! market's `State::pricer` has this shape: the reference borrows the
//! token, and taking the plan lock borrows it mutably. So a batch
//! worker checks its plan out, releases the lock, prices, and locks
//! again to check the plan in:
//!
//! ```compile_fail,E0502
//! use qbdp_market::lock::{Locked, MayPrice, OrderedMutex, OrderedRwLock, Plan, State};
//! struct Pricer;
//! struct MarketState {
//!     pricer: Pricer,
//! }
//! impl MarketState {
//!     fn pricer<'x>(&'x self, _token: &'x Locked<'_, impl MayPrice>) -> &'x Pricer {
//!         &self.pricer
//!     }
//! }
//! fn price(_pricer: &Pricer) {}
//! let state = OrderedRwLock::<_, State>::new(MarketState { pricer: Pricer });
//! let plans = OrderedMutex::<Vec<u32>, Plan>::new(Vec::new());
//! let mut root = Locked::root();
//! let (st, mut at_state) = state.read(&mut root);
//! let pricer = st.pricer(&at_state);
//! let (plan, _) = plans.lock(&mut at_state);
//! drop(plan);
//! price(pricer);
//! ```
//!
//! ```
//! use qbdp_market::lock::{Locked, MayPrice, OrderedMutex, OrderedRwLock, Plan, State};
//! struct Pricer;
//! struct MarketState {
//!     pricer: Pricer,
//! }
//! impl MarketState {
//!     fn pricer<'x>(&'x self, _token: &'x Locked<'_, impl MayPrice>) -> &'x Pricer {
//!         &self.pricer
//!     }
//! }
//! fn price(_pricer: &Pricer) {}
//! let state = OrderedRwLock::<_, State>::new(MarketState { pricer: Pricer });
//! let plans = OrderedMutex::<Vec<u32>, Plan>::new(Vec::new());
//! let mut root = Locked::root();
//! let (st, mut at_state) = state.read(&mut root);
//! let pricer = st.pricer(&at_state);
//! let (plan, _) = plans.lock(&mut at_state);
//! drop(plan);
//! price(st.pricer(&at_state));
//! ```
//!
//! The state lock taken under the plan lock (E0277: `Plan` is not
//! `LockBefore<State>`):
//!
//! ```compile_fail,E0277
//! use qbdp_market::lock::{Locked, OrderedMutex, OrderedRwLock, Plan, State};
//! let state = OrderedRwLock::<u64, State>::new(0);
//! let plans = OrderedMutex::<Vec<u32>, Plan>::new(Vec::new());
//! let mut root = Locked::root();
//! let (plan, mut at_plan) = plans.lock(&mut root);
//! let (st, _) = state.read(&mut at_plan);
//! ```
//!
//! ```
//! use qbdp_market::lock::{Locked, OrderedMutex, OrderedRwLock, Plan, State};
//! let state = OrderedRwLock::<u64, State>::new(0);
//! let plans = OrderedMutex::<Vec<u32>, Plan>::new(Vec::new());
//! let mut root = Locked::root();
//! let (plan, mut at_plan) = plans.lock(&mut root);
//! drop((plan, at_plan)); let (st, _) = state.read(&mut root);
//! ```
//!
//! The WAL taken under the state lock (E0277: `State` is not
//! `LockBefore<Wal>`):
//!
//! ```compile_fail,E0277
//! use qbdp_market::lock::{Locked, OrderedMutex, OrderedRwLock, State, Wal};
//! let state = OrderedRwLock::<u64, State>::new(0);
//! let wal = OrderedMutex::<Vec<u64>, Wal>::new(Vec::new());
//! let mut root = Locked::root();
//! let (st, mut at_state) = state.write(&mut root);
//! let (log, _) = wal.lock(&mut at_state);
//! ```
//!
//! ```
//! use qbdp_market::lock::{Locked, OrderedMutex, OrderedRwLock, State, Wal};
//! let state = OrderedRwLock::<u64, State>::new(0);
//! let wal = OrderedMutex::<Vec<u64>, Wal>::new(Vec::new());
//! let mut root = Locked::root();
//! let (st, mut at_state) = state.write(&mut root);
//! drop((st, at_state)); let (log, _) = wal.lock(&mut root);
//! ```
//!
//! A second cache shard taken under a first (E0277: `Shard` is not
//! `LockBefore<Shard>`):
//!
//! ```compile_fail,E0277
//! use qbdp_market::lock::{Locked, OrderedRwLock, Shard, State};
//! let state = OrderedRwLock::<u64, State>::new(0);
//! let shards: [OrderedRwLock<Vec<u32>, Shard>; 2] =
//!     std::array::from_fn(|_| OrderedRwLock::new(Vec::new()));
//! let mut root = Locked::root();
//! let (st, mut at_state) = state.read(&mut root);
//! let (first, mut at_shard) = shards[0].write(&mut at_state);
//! let (second, _) = shards[1].write(&mut at_shard);
//! ```
//!
//! ```
//! use qbdp_market::lock::{Locked, OrderedRwLock, Shard, State};
//! let state = OrderedRwLock::<u64, State>::new(0);
//! let shards: [OrderedRwLock<Vec<u32>, Shard>; 2] =
//!     std::array::from_fn(|_| OrderedRwLock::new(Vec::new()));
//! let mut root = Locked::root();
//! let (st, mut at_state) = state.read(&mut root);
//! let (first, mut at_shard) = shards[0].write(&mut at_state);
//! drop((first, at_shard)); let (second, _) = shards[1].write(&mut at_state);
//! ```
//!
//! The only raw `Mutex`/`RwLock` in `qbdp-market` live here:
//! `crates/market/clippy.toml` disallows them everywhere else.

#![expect(
    clippy::disallowed_types,
    reason = "the ordered wrappers are the crate's only raw locks"
)]

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The level of a thread that holds no market lock.
pub enum Unlocked {}
/// The durable market's write-ahead-log mutex.
pub enum Wal {}
/// The market's state lock (pricer, ledger, policy), taken with no WAL
/// held.
pub enum State {}
/// The market's state lock, taken under the WAL: a durable write
/// applying its logged event. It may not price.
pub enum StateUnderWal {}
/// The market's plan-cache mutex.
pub enum Plan {}
/// One shard of the quote cache.
pub enum Shard {}

/// `Self` may be held while a lock of level `L` is taken.
pub trait LockBefore<L> {
    /// The level a thread holding `Self` reaches by taking `L`.
    type Next;
}

/// Holding a token of this level, a thread may run the pricing engine.
pub trait MayPrice {}

impl MayPrice for Unlocked {}
impl MayPrice for State {}

macro_rules! before {
    ($($outer:ty => [$($inner:ty $(as $next:ty)?),*];)*) => {
        $($(impl LockBefore<$inner> for $outer {
            type Next = before!(@next $inner $(, $next)?);
        })*)*
    };
    (@next $inner:ty) => { $inner };
    (@next $inner:ty, $next:ty) => { $next };
}

before! {
    Unlocked => [Wal, State, Plan, Shard];
    Wal => [State as StateUnderWal, Plan, Shard];
    State => [Plan, Shard];
    StateUnderWal => [Plan, Shard];
    Plan => [Shard];
}

/// Proof that the current thread holds a lock of level `L` (or none,
/// for [`Unlocked`]). Zero-sized and not `Clone`: the only ways to get
/// one are [`Locked::root`], taking an ordered lock, and, for pool jobs
/// under the state lock, [`Locked::fork`].
pub struct Locked<'a, L> {
    _borrow: PhantomData<&'a mut ()>,
    _level: PhantomData<fn() -> L>,
}

impl<L> Locked<'_, L> {
    fn new() -> Self {
        Locked {
            _borrow: PhantomData,
            _level: PhantomData,
        }
    }
}

impl Locked<'_, State> {
    /// `n` state-level tokens for `n` pool jobs, which run while this
    /// thread holds the state lock. `self` stays borrowed until every
    /// forked token is gone.
    pub fn fork(&mut self, n: usize) -> Vec<Locked<'_, State>> {
        (0..n).map(|_| Locked::new()).collect()
    }
}

impl Locked<'static, Unlocked> {
    /// The token of a thread that holds no market lock. Only public
    /// entry points mint one; crate code passes its caller's token on.
    /// Debug builds assert the thread really holds no ordered guard.
    pub fn root() -> Self {
        #[cfg(debug_assertions)]
        held::assert_none();
        Locked::new()
    }
}

/// A live guard of an ordered lock. Dereferences to the protected
/// value; debug builds count it as held by this thread until it drops.
pub struct Guard<G> {
    guard: G,
    #[cfg(debug_assertions)]
    _held: held::Mark,
}

impl<G> Guard<G> {
    fn new(guard: G) -> Self {
        Guard {
            guard,
            #[cfg(debug_assertions)]
            _held: held::Mark::new(),
        }
    }
}

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

/// A mutex at level `L`.
pub struct OrderedMutex<T, L> {
    inner: Mutex<T>,
    _level: PhantomData<fn() -> L>,
}

impl<T, L> OrderedMutex<T, L> {
    /// A mutex holding `value`.
    pub const fn new(value: T) -> Self {
        OrderedMutex {
            inner: Mutex::new(value),
            _level: PhantomData,
        }
    }

    /// Lock it under `parent`, which stays borrowed while the guard
    /// lives. Returns the guard and the token for the level reached.
    /// A lock poisoned by a panicking holder is taken as whole (see
    /// [`OrderedRwLock`]).
    pub fn lock<'b, P: LockBefore<L>>(
        &'b self,
        _parent: &'b mut Locked<'_, P>,
    ) -> (Guard<MutexGuard<'b, T>>, Locked<'b, P::Next>) {
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        (Guard::new(guard), Locked::new())
    }
}

/// A reader-writer lock at level `L`.
///
/// Neither ordered lock reports poisoning: the next holder after a
/// panicking one takes the value as it is ([`PoisonError::into_inner`]).
/// The panics the market survives are the ones its `contain_panic`
/// catches around pricing and evaluation, which mutate nothing they
/// hold a lock on, so the value is whole and the market keeps serving.
pub struct OrderedRwLock<T, L> {
    inner: RwLock<T>,
    _level: PhantomData<fn() -> L>,
}

impl<T, L> OrderedRwLock<T, L> {
    /// A lock holding `value`.
    pub const fn new(value: T) -> Self {
        OrderedRwLock {
            inner: RwLock::new(value),
            _level: PhantomData,
        }
    }

    /// Shared access under `parent` (see [`OrderedMutex::lock`]).
    pub fn read<'b, P: LockBefore<L>>(
        &'b self,
        _parent: &'b mut Locked<'_, P>,
    ) -> (Guard<RwLockReadGuard<'b, T>>, Locked<'b, P::Next>) {
        let guard = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        (Guard::new(guard), Locked::new())
    }

    /// Exclusive access under `parent` (see [`OrderedMutex::lock`]).
    pub fn write<'b, P: LockBefore<L>>(
        &'b self,
        _parent: &'b mut Locked<'_, P>,
    ) -> (Guard<RwLockWriteGuard<'b, T>>, Locked<'b, P::Next>) {
        let guard = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        (Guard::new(guard), Locked::new())
    }

    /// The value, through an exclusive borrow of the lock itself: no
    /// other holder can exist, so no lock is taken and no token needed.
    /// A poisoned lock is taken as whole, as by [`OrderedRwLock::read`].
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The debug-only count of ordered guards each thread holds.
#[cfg(debug_assertions)]
mod held {
    use std::cell::Cell;
    use std::marker::PhantomData;

    thread_local! {
        static HELD: Cell<usize> = const { Cell::new(0) };
    }

    /// Counts one held guard until dropped. Not `Send`: it must drop on
    /// the thread that counted it.
    pub(super) struct Mark(PhantomData<*const ()>);

    impl Mark {
        pub(super) fn new() -> Mark {
            HELD.with(|h| h.set(h.get() + 1));
            Mark(PhantomData)
        }
    }

    impl Drop for Mark {
        fn drop(&mut self) {
            HELD.with(|h| h.set(h.get().saturating_sub(1)));
        }
    }

    pub(super) fn assert_none() {
        let held = HELD.with(Cell::get);
        assert!(
            held == 0,
            "Locked::root() on a thread holding {held} ordered lock(s): pass the caller's token instead"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_zero_sized() {
        assert_eq!(std::mem::size_of::<Locked<'static, State>>(), 0);
    }

    /// Crate code that calls a root-minting public method while it
    /// holds a lock: the types cannot see it, the debug count does.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "on a thread holding 1 ordered lock")]
    fn root_under_a_held_lock_panics() {
        let wal = OrderedMutex::<u32, Wal>::new(0);
        let mut root = Locked::root();
        let (_log, _at_wal) = wal.lock(&mut root);
        let _ = Locked::root();
    }
}
