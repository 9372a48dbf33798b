//! Logical clock data structures for causal orderings in concurrent
//! executions.
//!
//! This crate implements the **tree clock** data structure from
//! *"A Tree Clock Data Structure for Causal Orderings in Concurrent
//! Executions"* (Mathur, Pavlogiannis, Tunç, Viswanathan — ASPLOS 2022),
//! together with the classic **vector clock** baseline it replaces and a
//! common [`LogicalClock`] abstraction so that higher-level algorithms
//! (happens-before, schedulable-happens-before, Mazurkiewicz) can swap one
//! for the other with a single type parameter.
//!
//! # Why tree clocks?
//!
//! A vector clock is a flat array of local times, one per thread. Its two
//! fundamental operations — *join* (pointwise maximum) and *copy* — always
//! cost Θ(k) for k threads, even when almost no entry changes. A tree
//! clock stores the same vector of local times, but arranges the entries in
//! a rooted tree that records *through whom* (tree edges) and *when*
//! (attachment clocks) each entry was learned. Two monotonicity properties
//! of causal orderings then let joins and copies skip every subtree whose
//! information is already known, so the operations run in time roughly
//! proportional to the number of entries that actually change. For
//! computing the happens-before partial order this is *vt-optimal*: no
//! data structure can asymptotically beat it on any input (Theorem 1 of
//! the paper).
//!
//! # Example
//!
//! ```rust
//! use tc_core::{LogicalClock, ThreadId, TreeClock};
//!
//! let t0 = ThreadId::new(0);
//! let t1 = ThreadId::new(1);
//!
//! // Each thread owns a clock rooted at itself.
//! let mut c0 = TreeClock::new();
//! c0.init_root(t0);
//! c0.increment(3); // t0 has performed 3 events
//!
//! let mut c1 = TreeClock::new();
//! c1.init_root(t1);
//! c1.increment(5); // t1 has performed 5 events
//!
//! // t0 synchronizes with t1 (e.g. acquires a lock t1 released):
//! c0.join(&c1);
//! assert_eq!(c0.get(t0), 3);
//! assert_eq!(c0.get(t1), 5);
//!
//! // The tree remembers that t0 learned t1's time at t0-time 3.
//! assert!(c1.leq(&c0));
//! ```
//!
//! # Crate layout
//!
//! - [`tree_clock`] — the [`TreeClock`] data structure (Algorithm 2 of the
//!   paper): arena representation shared copy-on-write by wide clocks,
//!   iterative `Join`, `MonotoneCopy` and `CopyCheckMonotone`, and a
//!   flat mode (times only, joined by a sweep) for dense clocks on the
//!   timed path.
//! - [`vector_clock`] — the flat [`VectorClock`] baseline.
//! - [`clock`] — the [`LogicalClock`] trait and per-operation work
//!   statistics ([`OpStats`]) used for the paper's `VTWork`/`TCWork`/
//!   `VCWork` accounting.
//! - [`vector_time`] — the plain [`VectorTime`] value type (a vector
//!   timestamp), partially ordered pointwise.
//! - [`ids`] — [`ThreadId`], [`LocalTime`] and [`Epoch`] identifiers.
//! - [`pool`] — the [`ClockPool`] free list and the [`ClockTable`] of
//!   lazily materialized per-lock and per-variable clocks, with which
//!   the engines' steady-state analysis acquires no fresh clock and an
//!   untouched id costs a 4-byte slot (see the README's "Performance"
//!   section; a wide tree clock's first publication into an empty pool
//!   is its clone, and a timed join that changes a shape it shares
//!   writes a fresh one).
//! - [`identity`] — the [`IdentityMap`] generation layer that remaps
//!   external thread ids onto recycled internal slots, keeping clock
//!   width proportional to *live* threads under spawn/join churn.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod identity;
pub mod ids;
pub mod pool;
pub mod tree_clock;
pub mod vector_clock;
pub mod vector_time;

pub use clock::{CopyMode, LogicalClock, OpStats};
pub use identity::{BindError, IdentityMap, IdentitySnapshot, SlotBinding};
pub use ids::{Epoch, LocalTime, ThreadId};
pub use pool::{ClockPool, ClockTable};
pub use tree_clock::TreeClock;
pub use vector_clock::VectorClock;
pub use vector_time::VectorTime;

/// The name of the adaptive flat/tree backend, now [`TreeClock`] itself:
/// a tree clock keeps a dense clock flat on its timed path. Kept so code
/// written against the old backend still compiles.
pub type HybridClock = TreeClock;

// Every clock backend (and the pooling wrappers around them) is Send —
// asserted at compile time so a future backend cannot silently
// reintroduce thread-pinned interior mutability and break the
// streaming service's work-stealing core.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TreeClock>();
    assert_send::<VectorClock>();
    assert_send::<ClockPool<TreeClock>>();
    assert_send::<ClockPool<VectorClock>>();
    assert_send::<ClockTable<TreeClock>>();
    assert_send::<ClockTable<VectorClock>>();
};
