//! The happens-before (HB) engine: Algorithm 1 of the paper (and
//! Algorithm 3 when instantiated with tree clocks).
//!
//! HB is the smallest partial order containing the thread order and, for
//! every lock, the order from each release to every later acquire. The
//! engine maintains one clock per thread and per lock; acquires join,
//! releases monotone-copy. Read/write events only advance the local
//! clock.

use tc_core::{ClockPool, LogicalClock, ThreadId, VectorTime};
use tc_trace::{Event, Trace};

use crate::metrics::RunMetrics;
use crate::sync_core::SyncCore;

/// A streaming HB timestamping engine.
///
/// Process events with [`process`](Self::process); after an event, the
/// clock of its thread holds the event's HB timestamp (Lemma 4 of the
/// paper).
///
/// # Example
///
/// ```rust
/// use tc_core::{LogicalClock, ThreadId, TreeClock};
/// use tc_orders::HbEngine;
/// use tc_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new();
/// b.acquire(0, "m").release(0, "m").acquire(1, "m");
/// let trace = b.finish();
///
/// let mut hb = HbEngine::<TreeClock>::new(&trace);
/// for e in &trace {
///     hb.process(e);
/// }
/// // t1's acquire is ordered after t0's release:
/// assert_eq!(hb.clock_of(ThreadId::new(1)).unwrap().get(ThreadId::new(0)), 2);
/// ```
pub struct HbEngine<C> {
    core: SyncCore<C>,
}

impl<C: LogicalClock> HbEngine<C> {
    /// Creates an engine sized for `trace`.
    pub fn new(trace: &Trace) -> Self {
        HbEngine {
            core: SyncCore::for_trace(trace),
        }
    }

    /// Creates an engine sized for `trace` that draws its clocks from
    /// `pool`, so a pool recycled from a previous run makes this run
    /// allocation-free. Reclaim the pool with
    /// [`into_pool`](Self::into_pool).
    pub fn with_pool(trace: &Trace, pool: ClockPool<C>) -> Self {
        HbEngine {
            core: SyncCore::for_trace_with_pool(trace, pool),
        }
    }

    /// Creates an engine with explicit thread/lock capacity hints (the
    /// stores grow on demand if exceeded).
    pub fn with_counts(threads: usize, locks: usize) -> Self {
        HbEngine {
            core: SyncCore::new(threads, locks),
        }
    }

    /// Creates an engine with capacity hints that draws its clocks
    /// from `pool` — the streaming constructor, where no [`Trace`] is
    /// ever materialized. The `vars` hint is unused by HB and accepted
    /// for signature uniformity with the other engines.
    pub fn with_capacity(threads: usize, locks: usize, vars: usize, pool: ClockPool<C>) -> Self {
        let _ = vars;
        HbEngine {
            core: SyncCore::with_pool(threads, locks, pool),
        }
    }

    /// Releases thread `t`'s clock into the pool once its last event
    /// has been ingested and its knowledge has been absorbed (after
    /// `join(_, t)` in a well-formed trace). Returns `false` if `t`
    /// never started or was already retired. A later event by a retired
    /// thread panics.
    pub fn retire_thread(&mut self, t: ThreadId) -> bool {
        self.core.retire_thread(t)
    }

    /// `true` once [`retire_thread`](Self::retire_thread) released `t`.
    pub fn is_retired(&self, t: ThreadId) -> bool {
        self.core.is_retired(t)
    }

    /// Re-arms a retired (or never-seen) thread slot for a recycled
    /// occupant, rooting a fresh clock at `t` with its own time
    /// pre-advanced to `base` — the identity layer's slot-recycling
    /// hook (see [`IdentityMap`](tc_core::IdentityMap)).
    pub fn adopt_thread(&mut self, t: ThreadId, base: tc_core::LocalTime) {
        self.core.adopt_thread(t, base);
    }

    /// Computes the pointwise minimum over all live thread clocks into
    /// `floor`; `false` (and an empty floor) when no thread is live.
    /// This is the slot-reclamation predicate of the identity layer: a
    /// retired slot whose final time the floor dominates can never
    /// again change any value.
    pub fn live_floor(&self, floor: &mut Vec<tc_core::LocalTime>) -> bool {
        self.core.live_floor(floor)
    }

    /// Number of threads retired so far.
    pub fn retired_count(&self) -> usize {
        self.core.retired_count()
    }

    /// Evicts every materialized lock clock dominated by the pointwise
    /// minimum over live thread clocks, releasing it into the pool;
    /// returns the number evicted. Value-preserving **only under fork
    /// discipline** (every future thread inherits a live thread's
    /// knowledge at birth) — the streaming layer gates it accordingly.
    pub fn evict_dominated(&mut self) -> usize {
        let mut floor = Vec::new();
        if !self.core.live_floor(&mut floor) {
            return 0;
        }
        self.core.evict_dominated_locks(&floor)
    }

    /// Read-only access to the engine's clock pool (telemetry: fresh /
    /// recycled / parked-bytes counters).
    pub fn pool(&self) -> &ClockPool<C> {
        self.core.pool_ref()
    }

    /// Captures the engine's value-level state for a checkpoint.
    pub fn export_state(&self) -> crate::snapshot::EngineState {
        crate::snapshot::EngineState {
            core: self.core.export_core(),
            vars: Vec::new(),
        }
    }

    /// Rebuilds an engine from a checkpointed state, drawing clocks
    /// from `pool`. Work metrics restart at zero.
    pub fn from_state(state: &crate::snapshot::EngineState, pool: ClockPool<C>) -> Self {
        HbEngine {
            core: SyncCore::from_core_state(&state.core, pool),
        }
    }

    /// Tears the engine down, releasing every clock it created into its
    /// pool for the next run to reuse.
    pub fn into_pool(self) -> ClockPool<C> {
        self.core.into_pool()
    }

    /// Heap bytes currently owned by the engine's clocks (thread and
    /// lock clocks) — clocks only grow, so the value after a run is the
    /// run's peak.
    pub fn clock_bytes(&self) -> usize {
        self.core.clock_bytes()
    }

    /// Processes one event (events must be fed in trace order).
    pub fn process(&mut self, e: &Event) {
        self.core.begin_event(e.tid);
        self.core.process_sync::<false>(e);
    }

    /// Like [`process`](Self::process), with exact per-entry work
    /// accounting in [`metrics`](Self::metrics) (slower; use for the
    /// `VTWork`/`TCWork`/`VCWork` measurements, not for timing).
    pub fn process_counted(&mut self, e: &Event) {
        self.core.begin_event(e.tid);
        self.core.process_sync::<true>(e);
    }

    /// The current clock of thread `t`, if `t` has appeared.
    pub fn clock_of(&self, t: ThreadId) -> Option<&C> {
        self.core.clock(t)
    }

    /// The current vector timestamp of thread `t`.
    pub fn timestamp_of(&self, t: ThreadId) -> VectorTime {
        self.core.timestamp(t)
    }

    /// The work metrics accumulated so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.core.metrics
    }

    /// Runs the whole trace (fast path) and returns the metrics; only
    /// the operation counts are populated.
    pub fn run(trace: &Trace) -> RunMetrics {
        Self::run_pooled(trace, &mut ClockPool::new())
    }

    /// [`run`](Self::run) drawing clocks from (and returning them to)
    /// `pool` — the steady-state, allocation-free entry point.
    pub fn run_pooled(trace: &Trace, pool: &mut ClockPool<C>) -> RunMetrics {
        let mut engine = HbEngine::<C>::with_pool(trace, std::mem::take(pool));
        for e in trace {
            engine.process(e);
        }
        let metrics = engine.core.metrics;
        *pool = engine.into_pool();
        metrics
    }

    /// Runs the whole trace with exact work accounting.
    pub fn run_counted(trace: &Trace) -> RunMetrics {
        Self::run_counted_pooled(trace, &mut ClockPool::new())
    }

    /// [`run_counted`](Self::run_counted) with pooled clocks.
    pub fn run_counted_pooled(trace: &Trace, pool: &mut ClockPool<C>) -> RunMetrics {
        let mut engine = HbEngine::<C>::with_pool(trace, std::mem::take(pool));
        for e in trace {
            engine.process_counted(e);
        }
        let metrics = engine.core.metrics;
        *pool = engine.into_pool();
        metrics
    }

    /// Runs the whole trace collecting each event's HB timestamp
    /// (O(n·k) memory — intended for tests and small traces).
    pub fn collect_timestamps(trace: &Trace) -> Vec<VectorTime> {
        Self::collect_timestamps_pooled(trace, &mut ClockPool::new())
    }

    /// [`collect_timestamps`](Self::collect_timestamps) with pooled
    /// clocks.
    pub fn collect_timestamps_pooled(trace: &Trace, pool: &mut ClockPool<C>) -> Vec<VectorTime> {
        let mut engine = HbEngine::<C>::with_pool(trace, std::mem::take(pool));
        let mut out = Vec::with_capacity(trace.len());
        for e in trace {
            engine.process(e);
            out.push(engine.timestamp_of(e.tid));
        }
        *pool = engine.into_pool();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::{TreeClock, VectorClock, VectorTime};
    use tc_trace::{Op, TraceBuilder};

    fn vt(v: &[u32]) -> VectorTime {
        VectorTime::from(v.to_vec())
    }

    /// The paper's Figure 1 numbers, scaled down: a join at an acquire
    /// updates exactly the entries the releaser knew better.
    #[test]
    fn acquire_joins_release_clock() {
        let mut b = TraceBuilder::new();
        b.acquire(1, "m"); // t1: [0,1]
        b.release(1, "m"); // t1: [0,2], lock = [0,2]
        b.acquire(0, "m"); // t0: [1,2]
        let trace = b.finish();
        let ts = HbEngine::<TreeClock>::collect_timestamps(&trace);
        assert_eq!(ts, vec![vt(&[0, 1]), vt(&[0, 2]), vt(&[1, 2])]);
    }

    #[test]
    fn reads_and_writes_only_advance_local_time() {
        let mut b = TraceBuilder::new();
        b.write(0, "x").read(1, "x").write(1, "x");
        let trace = b.finish();
        let ts = HbEngine::<VectorClock>::collect_timestamps(&trace);
        // No synchronization: each thread only knows itself.
        assert_eq!(ts, vec![vt(&[1]), vt(&[0, 1]), vt(&[0, 2])]);
    }

    #[test]
    fn two_critical_sections_order_transitively() {
        let mut b = TraceBuilder::new();
        b.acquire(0, "m").release(0, "m"); // t0: 1,2
        b.acquire(1, "m").release(1, "m"); // t1 learns t0@2
        b.acquire(2, "n"); // unrelated lock: t2 learns nothing
        let trace = b.finish();
        let ts = HbEngine::<TreeClock>::collect_timestamps(&trace);
        assert_eq!(ts[3], vt(&[2, 2]));
        assert_eq!(ts[4], vt(&[0, 0, 1]));
    }

    #[test]
    fn tree_and_vector_agree_on_fork_join_traces() {
        let mut b = TraceBuilder::new();
        b.fork(0, 1).fork(0, 2);
        b.acquire(1, "m").release(1, "m");
        b.acquire(2, "m").release(2, "m");
        b.join(0, 1).join(0, 2);
        b.acquire(0, "m");
        let trace = b.finish();
        assert_eq!(
            HbEngine::<TreeClock>::collect_timestamps(&trace),
            HbEngine::<VectorClock>::collect_timestamps(&trace)
        );
    }

    /// Runs `trace` on a fresh tree-clock engine, checking after every
    /// release whether the lock's clock shares the releaser's shape;
    /// returns the clocks the pool allocated.
    fn fresh_clocks(trace: &Trace, shared: bool) -> u64 {
        let mut engine = HbEngine::<TreeClock>::new(trace);
        for e in trace {
            engine.process(e);
            if let Op::Release(l) = e.op {
                let lock = engine.core.lock(l).expect("a released lock materializes");
                let thread = engine.clock_of(e.tid).unwrap();
                assert_eq!(lock.shares_shape_with(thread), shared, "{e:?}");
            }
        }
        engine.pool().fresh()
    }

    /// A wide thread's first release into a lock materializes the lock
    /// as the thread's clone, so lock clocks draw nothing from the pool;
    /// narrow clocks still draw one pool clock per lock. The counted run
    /// does the same work as before.
    #[test]
    fn wide_first_publications_draw_no_pool_clock() {
        let wide = tc_trace::gen::scenarios::pairwise(80, 6_000, 3);
        assert_eq!(fresh_clocks(&wide, true), 80);
        assert_eq!(
            HbEngine::<TreeClock>::run_counted(&wide),
            RunMetrics {
                events: 6_000,
                increments: 6_000,
                joins: 1_085,
                copies: 3_000,
                deep_copies: 0,
                op_examined: 147_637,
                op_changed: 130_484,
                op_moved: 133_857,
            }
        );

        let narrow = tc_trace::gen::scenarios::pairwise(8, 2_000, 3);
        let locks: std::collections::HashSet<_> = narrow
            .iter()
            .filter_map(|e| match e.op {
                Op::Release(l) => Some(l),
                _ => None,
            })
            .collect();
        assert_eq!(fresh_clocks(&narrow, false), 8 + locks.len() as u64);
    }

    #[test]
    fn metrics_count_joins_and_copies() {
        let mut b = TraceBuilder::new();
        b.acquire(0, "m")
            .release(0, "m")
            .acquire(1, "m")
            .release(1, "m");
        let m = HbEngine::<TreeClock>::run_counted(&b.finish());
        assert_eq!(m.events, 4);
        // t0's acquire targets a lock nobody has released yet: the lazy
        // lock clock has not materialized, so no join is performed (or
        // counted). Only t1's acquire joins.
        assert_eq!(m.joins, 1);
        assert_eq!(m.copies, 2);
        // VTWork: 4 increments + 1 (t0's release publishes its time)
        // + 1 (t1's acquire learns t0@2) + 1 (t1's release updates the
        // lock's t1 entry).
        assert_eq!(m.vt_work(), 7);
    }

    #[test]
    fn retirement_releases_the_clock_and_keeps_values_elsewhere() {
        let mut b = TraceBuilder::new();
        b.fork(0, 1);
        b.acquire(1, "m").release(1, "m");
        b.join(0, 1);
        b.acquire(0, "m");
        let trace = b.finish();
        let mut hb = HbEngine::<TreeClock>::new(&trace);
        for (i, e) in trace.iter().enumerate() {
            hb.process(e);
            if i == 3 {
                assert!(hb.retire_thread(ThreadId::new(1)));
                assert!(!hb.retire_thread(ThreadId::new(1)), "double retire");
            }
        }
        // The parent absorbed the child's knowledge before retirement.
        assert_eq!(hb.timestamp_of(ThreadId::new(0)).get(ThreadId::new(1)), 2);
        assert_eq!(hb.retired_count(), 1);
        assert!(hb.pool().recycled() + hb.pool().free_len() as u64 >= 1);
    }

    #[test]
    #[should_panic(expected = "after being retired")]
    fn events_after_retirement_panic() {
        let mut b = TraceBuilder::new();
        b.fork(0, 1).join(0, 1).acquire(1, "m");
        let trace = b.finish(); // invalid, but engines don't validate
        let mut hb = HbEngine::<TreeClock>::new(&trace);
        for (i, e) in trace.iter().enumerate() {
            hb.process(e);
            if i == 1 {
                hb.retire_thread(ThreadId::new(1));
            }
        }
    }

    #[test]
    fn eviction_releases_dominated_locks_without_changing_values() {
        let mut b = TraceBuilder::new();
        b.acquire(0, "m").release(0, "m");
        b.acquire(1, "m"); // both threads now dominate m's clock [2]
        b.acquire(0, "n").release(0, "n"); // n = [4]: t1 does not know t0@4
        b.release(1, "m");
        b.acquire(0, "m"); // re-learns m after its eviction
        let trace = b.finish();
        let mut hb = HbEngine::<TreeClock>::new(&trace);
        let mut reference = HbEngine::<TreeClock>::new(&trace);
        for (i, e) in trace.iter().enumerate() {
            hb.process(e);
            reference.process(e);
            if i == 4 {
                // Only m ([2] ⊑ floor [2,0]) is dominated; n ([4]) is not.
                assert_eq!(hb.evict_dominated(), 1);
            }
        }
        // Eviction is invisible to every subsequent timestamp.
        for t in 0..2u32 {
            assert_eq!(
                hb.timestamp_of(ThreadId::new(t)),
                reference.timestamp_of(ThreadId::new(t))
            );
        }
    }

    #[test]
    fn export_import_round_trips_mid_run() {
        let mut b = TraceBuilder::new();
        for i in 0..24u32 {
            let t = i % 3;
            b.acquire_id(t, i % 2);
            b.release_id(t, i % 2);
        }
        b.fork(0, 3);
        b.acquire_id(3, 0);
        b.release_id(3, 0);
        let trace = b.finish();
        let half = trace.len() / 2;

        let mut original = HbEngine::<TreeClock>::new(&trace);
        for e in trace.iter().take(half) {
            original.process(e);
        }
        let state = original.export_state();
        let mut restored = HbEngine::<VectorClock>::from_state(&state, ClockPool::new());
        // Cross-backend restore: values are representation independent.
        for e in trace.iter().skip(half) {
            original.process(e);
            restored.process(e);
        }
        for t in 0..4u32 {
            assert_eq!(
                original.timestamp_of(ThreadId::new(t)),
                restored.timestamp_of(ThreadId::new(t)),
                "thread {t}"
            );
        }
    }

    #[test]
    fn vt_work_is_representation_independent() {
        let mut b = TraceBuilder::new();
        for round in 0..4u32 {
            for t in 0..6u32 {
                b.acquire_id(t, (t + round) % 3);
                b.release_id(t, (t + round) % 3);
            }
        }
        let trace = b.finish();
        let m_tc = HbEngine::<TreeClock>::run_counted(&trace);
        let m_vc = HbEngine::<VectorClock>::run_counted(&trace);
        assert_eq!(m_tc.vt_work(), m_vc.vt_work());
        // And the tree does no more touching than the vector.
        assert!(m_tc.ds_work() <= m_vc.ds_work());
    }
}
