//! Shared engine plumbing: per-thread and per-lock clock stores and the
//! transfer functions for the synchronization events common to HB, SHB
//! and MAZ (acquire, release, fork, join).
//!
//! Clocks are drawn from a [`ClockPool`] so that repeated runs (timing
//! repetitions, conformance sweeps, both backends of a differential
//! check) reuse buffers instead of allocating; lock clocks live in a
//! [`ClockTable`] and materialize on the first release, so an untouched
//! lock costs a 4-byte slot.

use tc_core::{ClockPool, ClockTable, LogicalClock, ThreadId, VectorTime};
use tc_trace::{Event, Op, Trace};

use crate::metrics::RunMetrics;

/// Clock state shared by every partial-order engine.
pub(crate) struct SyncCore<C> {
    threads: Vec<C>,
    rooted: Vec<bool>,
    /// Threads whose clock has been released back to the pool by
    /// [`retire_thread`](Self::retire_thread); any further event by a
    /// retired thread is a caller bug (well-formed traces cannot
    /// produce one — a joined thread performs no more events).
    retired: Vec<bool>,
    locks: ClockTable<C>,
    thread_hint: usize,
    pub(crate) pool: ClockPool<C>,
    pub(crate) metrics: RunMetrics,
}

impl<C: LogicalClock> SyncCore<C> {
    pub(crate) fn new(threads: usize, locks: usize) -> Self {
        SyncCore::with_pool(threads, locks, ClockPool::new())
    }

    pub(crate) fn with_pool(threads: usize, locks: usize, mut pool: ClockPool<C>) -> Self {
        SyncCore {
            threads: (0..threads)
                .map(|_| {
                    let mut c = pool.acquire();
                    c.reserve_threads(threads);
                    c
                })
                .collect(),
            rooted: vec![false; threads],
            retired: vec![false; threads],
            // Lock clocks are lazy: they materialize (from the pool) on
            // the first release that publishes a time into them.
            locks: ClockTable::with_len(locks),
            thread_hint: threads,
            pool,
            metrics: RunMetrics::new(),
        }
    }

    pub(crate) fn for_trace(trace: &Trace) -> Self {
        SyncCore::new(trace.thread_count(), trace.lock_count())
    }

    pub(crate) fn for_trace_with_pool(trace: &Trace, pool: ClockPool<C>) -> Self {
        SyncCore::with_pool(trace.thread_count(), trace.lock_count(), pool)
    }

    /// Tears the core down, releasing every clock it created back into
    /// its pool (buffers kept warm for the next engine).
    pub(crate) fn into_pool(self) -> ClockPool<C> {
        let mut pool = self.pool;
        for clock in self.threads {
            pool.release(clock);
        }
        self.locks.release_into(&mut pool);
        pool
    }

    /// Heap bytes currently owned by the thread clocks and the lock
    /// table (its slots included).
    pub(crate) fn clock_bytes(&self) -> usize {
        self.threads.iter().map(C::heap_bytes).sum::<usize>() + self.locks.heap_bytes()
    }

    /// Split borrow used by the engines' write paths: the pool (to
    /// materialize a lazy per-variable clock) together with the acting
    /// thread's clock (the copy source).
    pub(crate) fn pool_and_clock(&mut self, t: ThreadId) -> (&mut ClockPool<C>, &C) {
        (&mut self.pool, &self.threads[t.index()])
    }

    /// Opens thread slots up to `i`. Only slot `i` is pre-sized; the
    /// gap slots below it take unsized pool clocks that grow when their
    /// thread appears, so a new thread id costs O(id), not O(id²).
    fn grow_threads(&mut self, i: usize) {
        let (threads, pool) = (&mut self.threads, &mut self.pool);
        threads.resize_with(i, || pool.acquire());
        let mut c = pool.acquire();
        c.reserve_threads(self.thread_hint.max(i + 1));
        threads.push(c);
        self.rooted.resize(i + 1, false);
        self.retired.resize(i + 1, false);
    }

    fn ensure_thread(&mut self, t: ThreadId) {
        let i = t.index();
        if i >= self.threads.len() {
            self.grow_threads(i);
        }
        if !self.rooted[i] {
            // The check lives inside the un-rooted branch so the hot
            // path (thread already rooted) pays nothing for it.
            assert!(
                !self.retired[i],
                "thread {t} performs an event after being retired \
                 (retirement requires the thread's last event to have been ingested)"
            );
            self.threads[i].init_root(t);
            self.rooted[i] = true;
        }
    }

    /// Starts processing an event: roots the thread clock if needed and
    /// performs the implicit `Increment` of Algorithm 1.
    pub(crate) fn begin_event(&mut self, t: ThreadId) {
        self.ensure_thread(t);
        self.threads[t.index()].increment(1);
        self.metrics.record_event();
    }

    /// Handles the four synchronization operations; returns `false` for
    /// read/write operations, which the caller's algorithm must handle.
    ///
    /// The `COUNT` parameter selects the instrumented clock operations;
    /// timed runs use `COUNT = false` so the per-entry work counters
    /// cost nothing.
    pub(crate) fn process_sync<const COUNT: bool>(&mut self, e: &Event) -> bool {
        match e.op {
            Op::Acquire(l) => {
                // The table covers every lock id seen (a checkpoint
                // exports it in full), released into or not.
                self.locks.ensure(l.index());
                // Lazy: a lock nobody has released yet orders nothing —
                // skip the join entirely (no operation, no work).
                if let Some(lock) = self.locks.get(l.index()) {
                    let thread = &mut self.threads[e.tid.index()];
                    if COUNT {
                        let s = thread.join_counted(lock);
                        self.metrics.record_join(s);
                    } else {
                        thread.join(lock);
                        self.metrics.record_join_uncounted();
                    }
                }
                true
            }
            Op::Release(l) => {
                let thread = &self.threads[e.tid.index()];
                if COUNT {
                    let lock = self.locks.get_or_acquire(l.index(), &mut self.pool);
                    let s = lock.monotone_copy_counted(thread);
                    self.metrics.record_copy(s);
                } else {
                    // A wide thread's first release into a lock may
                    // materialize the lock as the thread's clone.
                    let target = self
                        .locks
                        .publication_target(l.index(), &mut self.pool, thread);
                    if let Some(lock) = target {
                        lock.monotone_copy(thread);
                    }
                    self.metrics.record_copy_uncounted();
                }
                true
            }
            Op::Fork(u) => {
                // fork(u) ≤ first event of u: the child inherits the
                // parent's knowledge.
                self.ensure_thread(u);
                let (child, parent) = borrow_two(&mut self.threads, u.index(), e.tid.index());
                if COUNT {
                    let s = child.join_counted(parent);
                    self.metrics.record_join(s);
                } else {
                    child.join(parent);
                    self.metrics.record_join_uncounted();
                }
                true
            }
            Op::Join(u) => {
                // last event of u ≤ join(u): the parent learns
                // everything the child knew.
                self.ensure_thread(u);
                let (parent, child) = borrow_two(&mut self.threads, e.tid.index(), u.index());
                if COUNT {
                    let s = parent.join_counted(child);
                    self.metrics.record_join(s);
                } else {
                    parent.join(child);
                    self.metrics.record_join_uncounted();
                }
                true
            }
            Op::Read(_) | Op::Write(_) => false,
        }
    }

    /// Releases thread `t`'s clock back into the pool — the streaming
    /// subsystem's thread-retirement hook. Sound once `t`'s last event
    /// has been ingested and its time has been joined everywhere it can
    /// still matter (in a well-formed trace, after `join(_, t)`: the
    /// joining thread absorbed everything `t` knew, and `t`'s clock is
    /// only ever read again by another `join(_, t)` — which
    /// well-formedness forbids). Returns `false` if `t` never started
    /// or was already retired.
    ///
    /// After retirement the slot holds an empty placeholder clock; a
    /// later event by `t` panics (see [`ensure_thread`]).
    pub(crate) fn retire_thread(&mut self, t: ThreadId) -> bool {
        let i = t.index();
        if i >= self.threads.len() || !self.rooted[i] || self.retired[i] {
            return false;
        }
        let clock = std::mem::take(&mut self.threads[i]);
        self.pool.release(clock);
        self.rooted[i] = false;
        self.retired[i] = true;
        true
    }

    /// Re-arms a retired (or never-seen) thread slot for a recycled
    /// occupant: the slot's clock is drawn fresh from the pool and
    /// rooted at `t` with its own time pre-advanced to `base` — the
    /// previous occupant's final time, as tracked by the identity
    /// layer's [`IdentityMap`](tc_core::IdentityMap). Keeping slot
    /// times monotone across occupants is what makes the stale entries
    /// other clocks still hold for this slot value-harmless.
    ///
    /// # Panics
    ///
    /// Panics if the slot currently has a live (rooted) clock — the
    /// identity layer must only hand out slots whose previous occupant
    /// was retired and reclaimed.
    pub(crate) fn adopt_thread(&mut self, t: ThreadId, base: tc_core::LocalTime) {
        let i = t.index();
        if i >= self.threads.len() {
            self.grow_threads(i);
        }
        assert!(
            !self.rooted[i],
            "adopt_thread: slot {t} still has a live occupant"
        );
        if self.retired[i] {
            // The retired slot holds an empty placeholder; draw a warm
            // clock from the pool like ensure_thread would have.
            let mut c = self.pool.acquire();
            c.reserve_threads(self.thread_hint.max(i + 1));
            self.threads[i] = c;
            self.retired[i] = false;
        }
        self.threads[i].adopt_slot(t, base);
        self.rooted[i] = true;
    }

    /// `true` once [`retire_thread`](Self::retire_thread) released `t`.
    pub(crate) fn is_retired(&self, t: ThreadId) -> bool {
        self.retired.get(t.index()).copied().unwrap_or(false)
    }

    /// Number of threads retired so far.
    pub(crate) fn retired_count(&self) -> usize {
        self.retired.iter().filter(|&&r| r).count()
    }

    /// Computes the pointwise minimum over all *live* (rooted,
    /// unretired) thread clocks into `floor`, returning `false` (and an
    /// empty floor) when no thread is live. Any clock value dominated
    /// by this floor can never again change a join's outcome — every
    /// live thread already knows at least as much, and (under fork
    /// discipline) every future thread inherits a live thread's
    /// knowledge at birth.
    pub(crate) fn live_floor(&self, floor: &mut Vec<tc_core::LocalTime>) -> bool {
        floor.clear();
        let mut any = false;
        for (i, clock) in self.threads.iter().enumerate() {
            if !self.rooted[i] {
                continue;
            }
            let width = clock.num_threads();
            if !any {
                floor.resize(width, 0);
                for (j, slot) in floor.iter_mut().enumerate() {
                    *slot = clock.get(ThreadId::new(j as u32));
                }
                any = true;
            } else {
                // The floor can only shrink: entries past a clock's
                // width are 0 there, so the min truncates the floor.
                floor.truncate(width);
                for (j, slot) in floor.iter_mut().enumerate() {
                    *slot = (*slot).min(clock.get(ThreadId::new(j as u32)));
                }
            }
        }
        any
    }

    /// Evicts every materialized lock clock dominated by `floor`,
    /// releasing it into the pool; returns the number evicted. A
    /// dominated lock clock's future joins are value no-ops, so the
    /// eviction is invisible to timestamps and reports (metrics may
    /// legitimately skip the no-op joins).
    pub(crate) fn evict_dominated_locks(&mut self, floor: &[tc_core::LocalTime]) -> usize {
        self.locks
            .evict_if(&mut self.pool, |c| clock_dominated(c, floor))
    }

    /// The clock of lock `l`, if it has materialized.
    #[cfg(test)]
    pub(crate) fn lock(&self, l: tc_trace::LockId) -> Option<&C> {
        self.locks.get(l.index())
    }

    /// Read-only access to the engine's clock pool (telemetry).
    pub(crate) fn pool_ref(&self) -> &ClockPool<C> {
        &self.pool
    }

    /// The current clock of thread `t` (zero clock if `t` has not acted).
    pub(crate) fn clock(&self, t: ThreadId) -> Option<&C> {
        self.threads.get(t.index())
    }

    pub(crate) fn clock_mut(&mut self, t: ThreadId) -> &mut C {
        &mut self.threads[t.index()]
    }

    pub(crate) fn timestamp(&self, t: ThreadId) -> VectorTime {
        self.clock(t).map(C::vector_time).unwrap_or_default()
    }
}

/// `true` when every entry of `clock` is at most the corresponding
/// floor entry (entries past the floor count as 0).
pub(crate) fn clock_dominated<C: LogicalClock>(clock: &C, floor: &[tc_core::LocalTime]) -> bool {
    (0..clock.num_threads() as u32)
        .all(|i| clock.get(ThreadId::new(i)) <= floor.get(i as usize).copied().unwrap_or(0))
}

impl<C: LogicalClock> SyncCore<C> {
    /// Captures the clock-visible state (thread and lock clock values,
    /// retirement flags) for a checkpoint.
    pub(crate) fn export_core(&self) -> crate::snapshot::CoreState {
        crate::snapshot::CoreState {
            threads: self
                .threads
                .iter()
                .enumerate()
                .map(|(i, c)| crate::snapshot::ThreadSlot {
                    retired: self.retired[i],
                    clock: self.rooted[i].then(|| crate::snapshot::ClockValue::capture(c)),
                })
                .collect(),
            locks: self
                .locks
                .iter()
                .map(|l| l.map(crate::snapshot::ClockValue::capture))
                .collect(),
        }
    }

    /// Rebuilds a core from a checkpointed [`CoreState`], drawing
    /// clocks from `pool`.
    ///
    /// [`CoreState`]: crate::snapshot::CoreState
    pub(crate) fn from_core_state(state: &crate::snapshot::CoreState, pool: ClockPool<C>) -> Self {
        let mut core = SyncCore::with_pool(0, 0, pool);
        core.thread_hint = state.threads.len();
        for slot in &state.threads {
            match &slot.clock {
                Some(value) => {
                    let mut c = core.pool.acquire();
                    c.reserve_threads(core.thread_hint);
                    value.restore_into(&mut c);
                    core.threads.push(c);
                    core.rooted.push(true);
                }
                None => {
                    core.threads.push(C::new());
                    core.rooted.push(false);
                }
            }
            core.retired.push(slot.retired);
        }
        core.locks = state
            .locks
            .iter()
            .map(|l| {
                l.as_ref()
                    .map(|value| value.restore_from_pool(&mut core.pool))
            })
            .collect();
        core
    }
}

/// Mutable access to index `i` alongside shared access to index `j`.
pub(crate) fn borrow_two<T>(v: &mut [T], i: usize, j: usize) -> (&mut T, &T) {
    assert_ne!(i, j, "cannot borrow the same slot twice");
    if i < j {
        let (a, b) = v.split_at_mut(j);
        (&mut a[i], &b[0])
    } else {
        let (a, b) = v.split_at_mut(i);
        (&mut b[0], &a[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::TreeClock;
    use tc_trace::TraceBuilder;

    #[test]
    fn borrow_two_returns_disjoint_references() {
        let mut v = vec![1, 2, 3];
        let (a, b) = borrow_two(&mut v, 2, 0);
        *a += *b;
        assert_eq!(v, vec![1, 2, 4]);
    }

    #[test]
    #[should_panic(expected = "same slot twice")]
    fn borrow_two_rejects_equal_indices() {
        let mut v = vec![1];
        let _ = borrow_two(&mut v, 0, 0);
    }

    #[test]
    fn fork_transfers_parent_knowledge_to_child() {
        let mut b = TraceBuilder::new();
        b.acquire(0, "m").release(0, "m").fork(0, 1).acquire(1, "m");
        let trace = b.finish();
        let mut core = SyncCore::<TreeClock>::for_trace(&trace);
        for e in &trace {
            core.begin_event(e.tid);
            core.process_sync::<true>(e);
        }
        // t1 knows t0's time up to the fork (3 events).
        assert_eq!(core.timestamp(ThreadId::new(1)).get(ThreadId::new(0)), 3);
    }

    #[test]
    fn join_transfers_child_knowledge_to_parent() {
        let mut b = TraceBuilder::new();
        b.fork(0, 1);
        b.acquire(1, "m").release(1, "m");
        b.join(0, 1);
        let trace = b.finish();
        let mut core = SyncCore::<TreeClock>::for_trace(&trace);
        for e in &trace {
            core.begin_event(e.tid);
            core.process_sync::<false>(e);
        }
        assert_eq!(core.timestamp(ThreadId::new(0)).get(ThreadId::new(1)), 2);
    }

    #[test]
    fn unseen_threads_grow_the_store() {
        let mut core = SyncCore::<TreeClock>::new(1, 0);
        core.begin_event(ThreadId::new(9));
        assert_eq!(core.timestamp(ThreadId::new(9)).get(ThreadId::new(9)), 1);
    }
}
