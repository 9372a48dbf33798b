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
//! shape with the clocks it is copied into, and a timed join that
//! changes a shared shape writes its result into a fresh flat one
//! (copy-on-write). A clock released while its shape is shared parks
//! without it.
//!
//! The per-lock and per-variable clocks live in a [`ClockTable`]: a
//! 4-byte slot per id and a dense array of the clocks that have
//! materialized, so a lock or variable the trace declares but never
//! publishes through costs its slot and nothing else. A first
//! publication from a wide tree clock into an empty pool materializes
//! as the source's clone ([`ClockTable::publication_target`]); teardown
//! parks that clock like any other, and the next run's publications
//! take parked clocks first, so reruns stay allocation-free.
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

/// Slot value of an id whose clock is not materialized.
const UNMATERIALIZED: u32 = u32::MAX;

/// Lazily materialized clocks indexed by a dense id space (lock ids,
/// variable ids).
///
/// Engines keep one clock per lock and one last-write clock per
/// variable, but a trace typically touches only part of the id space it
/// declares. The table therefore keeps a 4-byte slot per id and the
/// materialized clocks in a separate dense array: an untouched id costs
/// its slot, the clock materializes from the [`ClockPool`] (inheriting
/// recycled buffers) the first time an ordering is published through
/// it, and teardown and eviction walk the materialized clocks only.
///
/// An unmaterialized id is semantically an empty clock: joins against
/// it are no-ops and are skipped entirely by the engines (they record
/// neither the operation nor any work), which is why [`get`](Self::get)
/// answers `None` for it.
///
/// # Example
///
/// ```rust
/// use tc_core::{ClockPool, ClockTable, LogicalClock, ThreadId, VectorClock};
///
/// let mut pool = ClockPool::<VectorClock>::new();
/// let mut locks = ClockTable::with_len(1_000);
/// assert!(locks.get(999).is_none());
///
/// locks.get_or_acquire(999, &mut pool).init_root(ThreadId::new(0));
/// assert_eq!(locks.get(999).unwrap().root_tid(), Some(ThreadId::new(0)));
/// assert_eq!(pool.fresh(), 1);
///
/// locks.release_into(&mut pool);
/// assert_eq!(pool.free_len(), 1);
/// ```
#[derive(Debug)]
pub struct ClockTable<C> {
    /// Per id: the index of its clock in `clocks`, or `UNMATERIALIZED`.
    slots: Vec<u32>,
    /// The materialized clocks, in first-use order; an eviction moves
    /// the last clock into the evicted one's place.
    clocks: Vec<C>,
    /// Per entry of `clocks`: the id it belongs to.
    owners: Vec<u32>,
}

impl<C: LogicalClock> ClockTable<C> {
    /// A table of `len` unmaterialized ids.
    pub fn with_len(len: usize) -> Self {
        ClockTable {
            slots: vec![UNMATERIALIZED; len],
            clocks: Vec::new(),
            owners: Vec::new(),
        }
    }

    /// Extends the table to cover `id`.
    #[inline]
    pub fn ensure(&mut self, id: usize) {
        if id >= self.slots.len() {
            self.slots.resize(id + 1, UNMATERIALIZED);
        }
    }

    /// The clock of `id`, if it has materialized.
    #[inline]
    pub fn get(&self, id: usize) -> Option<&C> {
        // An unmaterialized slot indexes past the end of `clocks`.
        let slot = *self.slots.get(id)?;
        self.clocks.get(slot as usize)
    }

    /// The clock of `id`, materializing it from `pool` on first use
    /// (and extending the table to cover `id` if needed).
    #[inline]
    pub fn get_or_acquire(&mut self, id: usize, pool: &mut ClockPool<C>) -> &mut C {
        self.ensure(id);
        let mut slot = self.slots[id];
        if slot == UNMATERIALIZED {
            slot = self.materialize(id, pool);
        }
        &mut self.clocks[slot as usize]
    }

    /// The clock of `id` as the destination of a timed publication from
    /// `src` (a release, a last write), materialized on first use.
    ///
    /// A first publication from a clock that
    /// [copies by sharing](LogicalClock::copies_by_sharing) completes
    /// here while `pool` has no parked clock: the new clock is `src`'s
    /// clone, written once, instead of an empty clock drawn and then
    /// overwritten. Returns `None` then, and the clock to copy into
    /// otherwise. A parked clock is taken whenever there is one, so
    /// pooled reruns draw and park the same clocks run after run.
    #[inline]
    pub fn publication_target(
        &mut self,
        id: usize,
        pool: &mut ClockPool<C>,
        src: &C,
    ) -> Option<&mut C> {
        self.ensure(id);
        let mut slot = self.slots[id];
        if slot == UNMATERIALIZED {
            if pool.is_empty() && src.copies_by_sharing() {
                self.push(id, src.clone());
                return None;
            }
            slot = self.materialize(id, pool);
        }
        Some(&mut self.clocks[slot as usize])
    }

    /// Draws `id`'s clock from `pool` and returns its dense index; once
    /// per id, so kept off the hot path.
    #[cold]
    #[inline(never)]
    fn materialize(&mut self, id: usize, pool: &mut ClockPool<C>) -> u32 {
        self.push(id, pool.acquire())
    }

    /// Stores `clock` as `id`'s and returns its dense index.
    #[inline]
    fn push(&mut self, id: usize, clock: C) -> u32 {
        let slot = u32::try_from(self.clocks.len()).expect("fewer clocks than u32::MAX");
        self.clocks.push(clock);
        self.owners
            .push(u32::try_from(id).expect("table ids fit in u32"));
        self.slots[id] = slot;
        slot
    }

    /// Every id's clock in id order, `None` where it has not
    /// materialized — the checkpoint export order, independent of the
    /// order in which the clocks materialized.
    pub fn iter(&self) -> impl Iterator<Item = Option<&C>> + '_ {
        self.slots
            .iter()
            .map(|&slot| self.clocks.get(slot as usize))
    }

    /// Releases every materialized clock for which `evict` holds back
    /// into `pool`, leaving its id unmaterialized; returns the number
    /// released.
    pub fn evict_if(
        &mut self,
        pool: &mut ClockPool<C>,
        mut evict: impl FnMut(&C) -> bool,
    ) -> usize {
        let mut evicted = 0;
        let mut i = 0;
        while i < self.clocks.len() {
            if !evict(&self.clocks[i]) {
                i += 1;
                continue;
            }
            pool.release(self.clocks.swap_remove(i));
            let id = self.owners.swap_remove(i);
            self.slots[id as usize] = UNMATERIALIZED;
            if let Some(&moved) = self.owners.get(i) {
                self.slots[moved as usize] = i as u32;
            }
            evicted += 1;
        }
        evicted
    }

    /// Tears the table down, releasing exactly its materialized clocks
    /// into `pool`.
    pub fn release_into(self, pool: &mut ClockPool<C>) {
        for clock in self.clocks {
            pool.release(clock);
        }
    }

    /// Heap bytes of the table: its slot and clock arrays plus the
    /// materialized clocks' own buffers.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.slots.capacity() + self.owners.capacity()) * size_of::<u32>()
            + self.clocks.capacity() * size_of::<C>()
            + self.clocks.iter().map(C::heap_bytes).sum::<usize>()
    }
}

impl<C: LogicalClock> FromIterator<Option<C>> for ClockTable<C> {
    /// Builds a table from per-id clocks in id order (checkpoint
    /// restore); `None` leaves an id unmaterialized.
    fn from_iter<I: IntoIterator<Item = Option<C>>>(iter: I) -> Self {
        let mut table = ClockTable::with_len(0);
        for (id, clock) in iter.into_iter().enumerate() {
            table.ensure(id);
            if let Some(clock) = clock {
                table.push(id, clock);
            }
        }
        table
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
    fn an_untouched_id_reads_none() {
        let mut table = ClockTable::<TreeClock>::with_len(4);
        assert!(table.get(3).is_none());
        assert!(table.get(4).is_none(), "past the end reads as untouched");
        table.ensure(9);
        assert_eq!(table.iter().count(), 10);
        assert!(table.iter().all(|c| c.is_none()));
        assert!(table.clocks.is_empty());
    }

    #[test]
    fn first_use_materializes_from_the_pool_once() {
        let mut pool = ClockPool::<TreeClock>::new();
        let mut table = ClockTable::with_len(8);
        table
            .get_or_acquire(5, &mut pool)
            .init_root(ThreadId::new(2));
        table.get_or_acquire(5, &mut pool).increment(1);
        assert_eq!(pool.fresh(), 1, "second access must not re-acquire");
        assert_eq!(table.clocks.len(), 1);
        assert_eq!(table.get(5).unwrap().get(ThreadId::new(2)), 1);
        assert!(table.get(4).is_none());

        // An id past the end extends the table.
        table
            .get_or_acquire(20, &mut pool)
            .init_root(ThreadId::new(1));
        assert_eq!(table.iter().count(), 21);
        let present: Vec<_> = table.iter().map(|c| c.is_some()).collect();
        assert_eq!(present.iter().filter(|&&p| p).count(), 2);
        assert!(present[5] && present[20]);
    }

    #[test]
    fn the_next_materialization_reuses_an_evicted_entry() {
        let mut pool = ClockPool::<VectorClock>::new();
        let mut table = ClockTable::with_len(100);
        for id in [10, 50, 90] {
            table
                .get_or_acquire(id, &mut pool)
                .init_root(ThreadId::new(id as u32));
        }
        let capacity = table.clocks.capacity();
        let evicted = table.evict_if(&mut pool, |c| c.root_tid() == Some(ThreadId::new(10)));
        assert_eq!(evicted, 1);
        assert_eq!(pool.free_len(), 1);
        assert!(table.get(10).is_none());
        // The moved entry is still found through its slot.
        assert_eq!(table.get(90).unwrap().root_tid(), Some(ThreadId::new(90)));
        assert_eq!(table.get(50).unwrap().root_tid(), Some(ThreadId::new(50)));

        table
            .get_or_acquire(70, &mut pool)
            .init_root(ThreadId::new(70));
        assert_eq!(pool.recycled(), 1, "the evicted clock is re-acquired");
        assert_eq!(table.clocks.len(), 3, "the dense length does not grow");
        assert_eq!(table.clocks.capacity(), capacity);
        let roots: Vec<_> = table
            .iter()
            .enumerate()
            .filter_map(|(id, c)| c.map(|c| (id, c.root_tid().unwrap().raw())))
            .collect();
        assert_eq!(roots, [(50, 50), (70, 70), (90, 90)]);
    }

    /// A first publication from a wide tree clock is its clone while the
    /// pool is empty, and takes a parked clock when there is one; a
    /// narrow source always draws from the pool.
    #[test]
    fn a_first_publication_clones_a_sharing_source_only_past_an_empty_pool() {
        let mut wide = TreeClock::with_threads(80);
        wide.init_root(ThreadId::new(7));
        wide.increment(3);
        assert!(wide.copies_by_sharing());
        let mut pool = ClockPool::<TreeClock>::new();
        let mut table = ClockTable::with_len(4);
        assert!(table.publication_target(0, &mut pool, &wide).is_none());
        assert!(table.get(0).unwrap().shares_shape_with(&wide));
        assert_eq!(pool.fresh(), 0);
        // Materialized: later publications copy into the clock.
        assert!(table.publication_target(0, &mut pool, &wide).is_some());

        pool.release(TreeClock::new());
        let lock = table.publication_target(1, &mut pool, &wide).unwrap();
        assert!(lock.is_empty(), "the parked clock, not a clone");
        lock.monotone_copy(&wide);
        assert_eq!((pool.fresh(), pool.recycled(), pool.free_len()), (0, 1, 0));

        let mut narrow = TreeClock::new();
        narrow.init_root(ThreadId::new(1));
        assert!(!narrow.copies_by_sharing());
        assert!(table.publication_target(2, &mut pool, &narrow).is_some());
        assert_eq!(pool.fresh(), 1);
        table.release_into(&mut pool);
        assert_eq!(pool.free_len(), 3);
    }

    #[test]
    fn teardown_returns_exactly_the_materialized_clocks() {
        let mut pool = ClockPool::<TreeClock>::new();
        let mut table = ClockTable::with_len(1 << 12);
        for id in [0, 7, 4_095] {
            table
                .get_or_acquire(id, &mut pool)
                .init_root(ThreadId::new(1));
        }
        table.release_into(&mut pool);
        assert_eq!(pool.fresh(), 3);
        assert_eq!(pool.free_len(), 3);
    }
}
