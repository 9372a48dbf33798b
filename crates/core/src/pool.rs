//! A free list of recycled clocks, so steady-state analysis acquires no
//! fresh clock.
//!
//! Partial-order engines materialize many auxiliary clocks over a run —
//! one per lock, one per variable (`LW_x`), one per thread-variable pair
//! (`R_{t,x}`) — and analyses typically run several engines over the
//! same trace (both clock backends, three partial orders, repeated
//! timing runs). Each of those clocks owns buffers that grow to the
//! thread dimension `k`; allocating them afresh for every engine is
//! pure malloc traffic on the hot path.
//!
//! A [`ClockPool`] keeps cleared clocks (with their grown buffers) on a
//! free list. [`acquire`](ClockPool::acquire) hands out an empty clock,
//! reusing a recycled one when available; [`release`](ClockPool::release)
//! [`clear`](crate::LogicalClock::clear)s a clock and free-lists it.
//! Engines take a pool at construction and give it back (with every
//! clock they created) at teardown, so the second run of anything —
//! the next timed repetition of the `paper` binary, the next engine of a
//! conformance check, the next corpus case of a sweep — acquires no
//! fresh clock at all. `tc_orders`' `pooled_reruns_are_allocation_free`
//! test holds every partial order × clock backend to that. Clocks are
//! not the only allocation, though: a wide [`TreeClock`] shares its
//! tree with the clocks it is copied into and allocates a fresh tree
//! each time it changes a shared one (copy-on-write). A clock released
//! while its tree is shared parks without it.
//!
//! [`TreeClock`]: crate::TreeClock
//!
//! # Example
//!
//! ```rust
//! use tc_core::{ClockPool, LogicalClock, ThreadId, TreeClock};
//!
//! let mut pool = ClockPool::<TreeClock>::new();
//! let mut c = pool.acquire();
//! c.init_root(ThreadId::new(3));
//! c.increment(7);
//! pool.release(c);
//!
//! // The recycled clock comes back empty, buffers intact.
//! let c = pool.acquire();
//! assert!(c.is_empty());
//! assert_eq!(c.get(ThreadId::new(3)), 0);
//! assert_eq!(pool.recycled(), 1);
//! ```

use crate::clock::LogicalClock;

/// A free list of cleared clocks with their allocations kept warm.
///
/// See the [module documentation](self) for the usage pattern. The pool
/// also counts its traffic ([`fresh`](Self::fresh) /
/// [`recycled`](Self::recycled)), which the engine and pool tests use
/// to assert that steady state acquires no fresh clock.
#[derive(Debug)]
pub struct ClockPool<C> {
    free: Vec<C>,
    fresh: u64,
    recycled: u64,
    dropped: u64,
    high_water: usize,
    /// Heap bytes currently parked on the free list, maintained
    /// incrementally (clocks are immutable while parked and share no
    /// buffer with a live clock, so the value recorded at release stays
    /// exact until the clock is re-acquired).
    free_bytes: usize,
    /// High-water mark of `free_bytes` over the pool's life — the
    /// quantity the streaming subsystem's bounded-memory tests track.
    peak_free_bytes: usize,
}

/// Default free-list high-water mark: enough for every engine of a
/// 4096-thread differential sweep to park its clocks, small enough that
/// a long-running multi-tenant process cannot hoard unbounded buffer
/// memory across traces of wildly different shapes (the ROADMAP's
/// "capping free-list growth" item). Override per pool with
/// [`ClockPool::with_high_water`] / [`ClockPool::set_high_water`].
pub const DEFAULT_HIGH_WATER: usize = 1 << 16;

impl<C: LogicalClock> ClockPool<C> {
    /// Creates an empty pool with the [`DEFAULT_HIGH_WATER`] cap.
    pub fn new() -> Self {
        ClockPool {
            free: Vec::new(),
            fresh: 0,
            recycled: 0,
            dropped: 0,
            high_water: DEFAULT_HIGH_WATER,
            free_bytes: 0,
            peak_free_bytes: 0,
        }
    }

    /// Creates an empty pool that will never free-list more than
    /// `high_water` clocks; further releases drop the clock (and its
    /// buffers) instead, counted in [`dropped`](Self::dropped).
    pub fn with_high_water(high_water: usize) -> Self {
        let mut pool = ClockPool::new();
        pool.high_water = high_water;
        pool
    }

    /// Adjusts the free-list cap. Clocks already parked beyond the new
    /// mark are dropped immediately.
    pub fn set_high_water(&mut self, high_water: usize) {
        self.high_water = high_water;
        if self.free.len() > high_water {
            self.dropped += (self.free.len() - high_water) as u64;
            self.free.truncate(high_water);
            self.free_bytes = self.free.iter().map(C::heap_bytes).sum();
        }
    }

    /// The current free-list cap.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Hands out an empty clock, recycling a free-listed one when
    /// available and allocating a fresh `C::new()` otherwise.
    pub fn acquire(&mut self) -> C {
        match self.free.pop() {
            Some(clock) => {
                debug_assert!(clock.is_empty(), "pooled clock was not cleared");
                self.recycled += 1;
                self.free_bytes = self.free_bytes.saturating_sub(clock.heap_bytes());
                clock
            }
            None => {
                self.fresh += 1;
                C::new()
            }
        }
    }

    /// Clears `clock` and free-lists it for a later
    /// [`acquire`](Self::acquire). The clock's buffers are kept, so the
    /// next user inherits its capacity — unless the free list is at its
    /// high-water mark, in which case the clock is dropped instead (and
    /// counted in [`dropped`](Self::dropped)).
    pub fn release(&mut self, mut clock: C) {
        if self.free.len() >= self.high_water {
            self.dropped += 1;
            return;
        }
        clock.clear();
        self.free_bytes += clock.heap_bytes();
        self.peak_free_bytes = self.peak_free_bytes.max(self.free_bytes);
        self.free.push(clock);
    }

    /// Number of clocks currently on the free list.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Returns `true` if no clock is currently free-listed.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// Number of `acquire` calls served by a fresh allocation.
    pub fn fresh(&self) -> u64 {
        self.fresh
    }

    /// Number of `acquire` calls served from the free list.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// Number of released clocks dropped because the free list was at
    /// its high-water mark.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Heap bytes parked on the free list (the capacity a future
    /// acquire inherits).
    pub fn heap_bytes(&self) -> usize {
        self.free.iter().map(C::heap_bytes).sum()
    }

    /// The high-water mark of [`heap_bytes`](Self::heap_bytes) over the
    /// pool's life, maintained incrementally at each release. The
    /// streaming subsystem's bounded-memory regression tests assert
    /// this stays proportional to the *live* working set on
    /// thread-churn traces (retired threads' clocks park here briefly
    /// and are re-issued to the next wave).
    pub fn peak_bytes(&self) -> usize {
        self.peak_free_bytes
    }
}

impl<C: LogicalClock> Default for ClockPool<C> {
    fn default() -> Self {
        ClockPool::new()
    }
}

/// A lazily materialized clock slot: `None` until first written.
///
/// Engines keep one slot per variable (and per lock); a variable that
/// is never accessed — or only read before any write — costs one `Option`
/// discriminant instead of a full clock, and the slot materializes from
/// the [`ClockPool`] (inheriting recycled buffers) the first time an
/// ordering is actually published through it.
///
/// An empty slot is semantically identical to an empty clock: joins
/// against it are no-ops and are skipped entirely by the engines (they
/// record neither the operation nor any work).
#[derive(Clone, Debug, Default)]
pub struct LazyClock<C> {
    slot: Option<C>,
}

impl<C: LogicalClock> LazyClock<C> {
    /// Creates an unmaterialized slot.
    pub const fn empty() -> Self {
        LazyClock { slot: None }
    }

    /// Wraps an already materialized clock (checkpoint restore).
    pub fn from_clock(clock: C) -> Self {
        LazyClock { slot: Some(clock) }
    }

    /// The clock, if the slot has materialized.
    pub fn get(&self) -> Option<&C> {
        self.slot.as_ref()
    }

    /// Mutable access to the clock, if the slot has materialized.
    pub fn get_mut(&mut self) -> Option<&mut C> {
        self.slot.as_mut()
    }

    /// The clock, materializing it from `pool` on first use.
    pub fn get_or_acquire(&mut self, pool: &mut ClockPool<C>) -> &mut C {
        self.slot.get_or_insert_with(|| pool.acquire())
    }

    /// Returns `true` once the slot holds a clock.
    pub fn is_materialized(&self) -> bool {
        self.slot.is_some()
    }

    /// Releases the materialized clock (if any) back into `pool`,
    /// leaving the slot empty again.
    pub fn release_into(&mut self, pool: &mut ClockPool<C>) {
        if let Some(clock) = self.slot.take() {
            pool.release(clock);
        }
    }

    /// Heap bytes owned by the materialized clock (0 while lazy).
    pub fn heap_bytes(&self) -> usize {
        self.slot.as_ref().map_or(0, C::heap_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ThreadId, TreeClock, VectorClock};

    fn exercise_pool<C: LogicalClock>() {
        let mut pool = ClockPool::<C>::new();
        let mut a = pool.acquire();
        a.init_root(ThreadId::new(0));
        a.increment(5);
        let mut b = pool.acquire();
        b.init_root(ThreadId::new(9));
        b.increment(2);
        assert_eq!(pool.fresh(), 2);
        assert_eq!(pool.recycled(), 0);

        // Release and re-acquire: the clock is recycled and empty.
        pool.release(a);
        let a2 = pool.acquire();
        assert_eq!(pool.recycled(), 1);
        assert!(a2.is_empty());
        assert_eq!(a2.get(ThreadId::new(0)), 0);
        assert_eq!(a2.root_tid(), None);

        // No aliasing: mutating the recycled clock leaves `b` alone.
        let mut a2 = a2;
        a2.init_root(ThreadId::new(9));
        a2.increment(100);
        assert_eq!(b.get(ThreadId::new(9)), 2);
        assert_eq!(a2.get(ThreadId::new(9)), 100);
    }

    #[test]
    fn pool_recycles_tree_clocks_without_aliasing() {
        exercise_pool::<TreeClock>();
    }

    #[test]
    fn pool_recycles_vector_clocks_without_aliasing() {
        exercise_pool::<VectorClock>();
    }

    #[test]
    fn recycled_clocks_keep_their_capacity() {
        let mut pool = ClockPool::<VectorClock>::new();
        let mut c = pool.acquire();
        c.reserve_threads(64);
        pool.release(c);
        assert!(pool.heap_bytes() >= 64 * std::mem::size_of::<crate::LocalTime>());
        let c = pool.acquire();
        assert!(c.heap_bytes() >= 64 * std::mem::size_of::<crate::LocalTime>());
        assert!(c.is_empty());
    }

    #[test]
    fn reuse_across_copies_is_clean() {
        // A pooled clock used as a copy target, released, then reused as
        // a different variable's clock must not leak the first role's
        // content.
        let mut pool = ClockPool::<TreeClock>::new();
        let mut src = TreeClock::new();
        src.init_root(ThreadId::new(1));
        src.increment(4);

        let mut lw_x = pool.acquire();
        lw_x.monotone_copy(&src);
        assert_eq!(lw_x.get(ThreadId::new(1)), 4);
        pool.release(lw_x);

        let lw_y = pool.acquire();
        assert!(lw_y.is_empty());
        assert_eq!(lw_y.vector_time(), crate::VectorTime::new());
    }

    #[test]
    fn high_water_mark_caps_free_list_growth() {
        let mut pool = ClockPool::<VectorClock>::with_high_water(2);
        let clocks: Vec<_> = (0..4).map(|_| pool.acquire()).collect();
        assert_eq!(pool.fresh(), 4);
        for c in clocks {
            pool.release(c);
        }
        assert_eq!(pool.free_len(), 2, "free list must stop at the cap");
        assert_eq!(pool.dropped(), 2);

        // Lowering the cap trims immediately.
        pool.set_high_water(1);
        assert_eq!(pool.free_len(), 1);
        assert_eq!(pool.dropped(), 3);
        assert_eq!(pool.high_water(), 1);
    }

    #[test]
    fn hybrid_clocks_pool_and_recycle() {
        exercise_pool::<crate::HybridClock>();
    }

    #[test]
    fn lazy_clock_materializes_once() {
        let mut pool = ClockPool::<TreeClock>::new();
        let mut slot = LazyClock::<TreeClock>::empty();
        assert!(!slot.is_materialized());
        assert!(slot.get().is_none());
        assert_eq!(slot.heap_bytes(), 0);

        slot.get_or_acquire(&mut pool).init_root(ThreadId::new(2));
        assert!(slot.is_materialized());
        slot.get_or_acquire(&mut pool).increment(1);
        assert_eq!(pool.fresh(), 1, "second access must not re-acquire");
        assert_eq!(slot.get().unwrap().get(ThreadId::new(2)), 1);

        slot.release_into(&mut pool);
        assert!(!slot.is_materialized());
        assert_eq!(pool.free_len(), 1);
    }
}
