//! The schedulable-happens-before (SHB) engine: Algorithm 4 of the
//! paper, after Mathur, Kini and Viswanathan (OOPSLA 2018).
//!
//! SHB strengthens HB with, for every read `r`, an order from the last
//! write `lw(r)` of the same variable to `r`. The engine additionally
//! maintains one last-write clock `LW_x` per variable: reads join it,
//! writes store their timestamp into it with `CopyCheckMonotone` — the
//! tree clock tests monotonicity in O(1) and deep-copies only when the
//! write races with a read (Section 5.1).

use tc_core::{ClockPool, ClockTable, CopyMode, LogicalClock, ThreadId, VectorTime};
use tc_trace::{Event, Op, Trace, VarId};

use crate::metrics::RunMetrics;
use crate::sync_core::SyncCore;

/// A streaming SHB timestamping engine.
///
/// # Example
///
/// ```rust
/// use tc_core::{LogicalClock, ThreadId, TreeClock};
/// use tc_orders::ShbEngine;
/// use tc_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new();
/// b.write(0, "x");
/// b.read(1, "x"); // ordered after t0's write under SHB (not under HB)
/// let trace = b.finish();
///
/// let mut shb = ShbEngine::<TreeClock>::new(&trace);
/// for e in &trace {
///     shb.process(e);
/// }
/// assert_eq!(shb.clock_of(ThreadId::new(1)).unwrap().get(ThreadId::new(0)), 1);
/// ```
pub struct ShbEngine<C> {
    core: SyncCore<C>,
    /// The `LW_x` clocks: a variable that is never written costs its
    /// 4-byte slot; the clock materializes (from the pool) at the first
    /// write.
    last_write: ClockTable<C>,
}

impl<C: LogicalClock> ShbEngine<C> {
    /// Creates an engine sized for `trace`.
    pub fn new(trace: &Trace) -> Self {
        Self::with_pool(trace, ClockPool::new())
    }

    /// Creates an engine sized for `trace` that draws its clocks from
    /// `pool`; reclaim it with [`into_pool`](Self::into_pool).
    pub fn with_pool(trace: &Trace, pool: ClockPool<C>) -> Self {
        ShbEngine {
            core: SyncCore::for_trace_with_pool(trace, pool),
            last_write: ClockTable::with_len(trace.var_count()),
        }
    }

    /// Tears the engine down, releasing every clock it created into its
    /// pool for the next run to reuse.
    pub fn into_pool(self) -> ClockPool<C> {
        let mut pool = self.core.into_pool();
        self.last_write.release_into(&mut pool);
        pool
    }

    /// Heap bytes currently owned by the engine's clocks (thread
    /// clocks, and the lock and last-write tables with their slots).
    pub fn clock_bytes(&self) -> usize {
        self.core.clock_bytes() + self.last_write.heap_bytes()
    }

    /// Creates an engine with capacity hints that draws its clocks
    /// from `pool` — the streaming constructor, where no [`Trace`] is
    /// ever materialized.
    pub fn with_capacity(threads: usize, locks: usize, vars: usize, pool: ClockPool<C>) -> Self {
        ShbEngine {
            core: SyncCore::with_pool(threads, locks, pool),
            last_write: ClockTable::with_len(vars),
        }
    }

    /// Releases thread `t`'s clock into the pool; see
    /// [`HbEngine::retire_thread`](crate::HbEngine::retire_thread).
    pub fn retire_thread(&mut self, t: ThreadId) -> bool {
        self.core.retire_thread(t)
    }

    /// `true` once [`retire_thread`](Self::retire_thread) released `t`.
    pub fn is_retired(&self, t: ThreadId) -> bool {
        self.core.is_retired(t)
    }

    /// Re-arms a retired (or never-seen) thread slot for a recycled
    /// occupant; see [`HbEngine::adopt_thread`](crate::HbEngine::adopt_thread).
    pub fn adopt_thread(&mut self, t: ThreadId, base: tc_core::LocalTime) {
        self.core.adopt_thread(t, base);
    }

    /// Pointwise minimum over live thread clocks; see
    /// [`HbEngine::live_floor`](crate::HbEngine::live_floor).
    pub fn live_floor(&self, floor: &mut Vec<tc_core::LocalTime>) -> bool {
        self.core.live_floor(floor)
    }

    /// Number of threads retired so far.
    pub fn retired_count(&self) -> usize {
        self.core.retired_count()
    }

    /// Evicts every materialized lock and last-write clock dominated by
    /// the pointwise minimum over live thread clocks; returns the
    /// number evicted. Value-preserving only under fork discipline —
    /// see [`HbEngine::evict_dominated`](crate::HbEngine::evict_dominated).
    pub fn evict_dominated(&mut self) -> usize {
        let mut floor = Vec::new();
        if !self.core.live_floor(&mut floor) {
            return 0;
        }
        self.core.evict_dominated_locks(&floor)
            + self.last_write.evict_if(&mut self.core.pool, |c| {
                crate::sync_core::clock_dominated(c, &floor)
            })
    }

    /// Read-only access to the engine's clock pool (telemetry).
    pub fn pool(&self) -> &ClockPool<C> {
        self.core.pool_ref()
    }

    /// Captures the engine's value-level state for a checkpoint.
    pub fn export_state(&self) -> crate::snapshot::EngineState {
        crate::snapshot::EngineState {
            core: self.core.export_core(),
            vars: self
                .last_write
                .iter()
                .map(|lw| crate::snapshot::VarClocks {
                    last_write: lw.map(crate::snapshot::ClockValue::capture),
                    reads: Vec::new(),
                    lrds: Vec::new(),
                })
                .collect(),
        }
    }

    /// Rebuilds an engine from a checkpointed state, drawing clocks
    /// from `pool`. Work metrics restart at zero.
    pub fn from_state(state: &crate::snapshot::EngineState, pool: ClockPool<C>) -> Self {
        let mut core = SyncCore::from_core_state(&state.core, pool);
        let last_write = state
            .vars
            .iter()
            .map(|v| {
                v.last_write
                    .as_ref()
                    .map(|value| value.restore_from_pool(&mut core.pool))
            })
            .collect();
        ShbEngine { core, last_write }
    }

    /// Processes one event (events must be fed in trace order).
    pub fn process(&mut self, e: &Event) {
        self.process_impl::<false>(e);
    }

    /// Like [`process`](Self::process), with exact per-entry work
    /// accounting in [`metrics`](Self::metrics).
    pub fn process_counted(&mut self, e: &Event) {
        self.process_impl::<true>(e);
    }

    fn process_impl<const COUNT: bool>(&mut self, e: &Event) {
        self.core.begin_event(e.tid);
        if self.core.process_sync::<COUNT>(e) {
            return;
        }
        match e.op {
            Op::Read(x) => {
                // The table covers every variable id seen (a checkpoint
                // exports it in full), written or not.
                self.last_write.ensure(x.index());
                // Lazy: reading a never-written variable orders nothing —
                // skip the join entirely (no operation, no work).
                if let Some(lw) = self.last_write.get(x.index()) {
                    let clock = self.core.clock_mut(e.tid);
                    if COUNT {
                        let s = clock.join_counted(lw);
                        self.core.metrics.record_join(s);
                    } else {
                        clock.join(lw);
                        self.core.metrics.record_join_uncounted();
                    }
                }
            }
            Op::Write(x) => {
                let (pool, clock) = self.core.pool_and_clock(e.tid);
                let mode = if COUNT {
                    let lw = self.last_write.get_or_acquire(x.index(), pool);
                    let (mode, s) = lw.copy_check_monotone_counted(clock);
                    self.core.metrics.record_copy(s);
                    mode
                } else {
                    // A first publication (into an empty clock, or as
                    // the writer's clone) is always monotone.
                    let mode = self
                        .last_write
                        .publication_target(x.index(), pool, clock)
                        .map_or(CopyMode::Monotone, |lw| lw.copy_check_monotone(clock));
                    self.core.metrics.record_copy_uncounted();
                    mode
                };
                if mode == CopyMode::Deep {
                    self.core.metrics.record_deep_copy();
                }
            }
            _ => unreachable!("process_sync handled synchronization events"),
        }
    }

    /// The current clock of thread `t`, if `t` has appeared.
    pub fn clock_of(&self, t: ThreadId) -> Option<&C> {
        self.core.clock(t)
    }

    /// The current last-write clock of variable `x`, if any write
    /// occurred.
    pub fn last_write_clock(&self, x: VarId) -> Option<&C> {
        self.last_write.get(x.index())
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
        let mut engine = ShbEngine::<C>::with_pool(trace, std::mem::take(pool));
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
        let mut engine = ShbEngine::<C>::with_pool(trace, std::mem::take(pool));
        for e in trace {
            engine.process_counted(e);
        }
        let metrics = engine.core.metrics;
        *pool = engine.into_pool();
        metrics
    }

    /// Runs the whole trace collecting each event's SHB timestamp.
    pub fn collect_timestamps(trace: &Trace) -> Vec<VectorTime> {
        Self::collect_timestamps_pooled(trace, &mut ClockPool::new())
    }

    /// [`collect_timestamps`](Self::collect_timestamps) with pooled
    /// clocks.
    pub fn collect_timestamps_pooled(trace: &Trace, pool: &mut ClockPool<C>) -> Vec<VectorTime> {
        let mut engine = ShbEngine::<C>::with_pool(trace, std::mem::take(pool));
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
    use tc_core::{TreeClock, VectorClock};
    use tc_trace::TraceBuilder;

    fn vt(v: &[u32]) -> VectorTime {
        VectorTime::from(v.to_vec())
    }

    #[test]
    fn read_is_ordered_after_its_last_write() {
        let mut b = TraceBuilder::new();
        b.write(0, "x").read(1, "x").write(1, "y").read(2, "y");
        let trace = b.finish();
        let ts = ShbEngine::<TreeClock>::collect_timestamps(&trace);
        assert_eq!(ts[1], vt(&[1, 1])); // r(x) sees w(x)
        assert_eq!(ts[3], vt(&[1, 2, 1])); // r(y) sees w(y) and, transitively, w(x)
    }

    #[test]
    fn writes_are_not_ordered_after_conflicting_accesses() {
        // SHB adds only lw(r) -> r edges: a later write is ordered after
        // neither the previous write nor the previous read (both pairs
        // are SHB races).
        let mut b = TraceBuilder::new();
        b.write(0, "x").read(1, "x").write(2, "x");
        let trace = b.finish();
        let ts = ShbEngine::<TreeClock>::collect_timestamps(&trace);
        assert_eq!(ts[2], vt(&[0, 0, 1]));
    }

    #[test]
    fn racy_write_triggers_deep_copy_only_for_tree_clocks() {
        // t0 writes x; t1 reads x (ordered); t1 writes x while t0's
        // LW still knows... construct a genuinely racy write:
        // t0: w(x); t1: w(x) — the second write is concurrent with the
        // first, so LW_x ⋢ C_t1 and CopyCheckMonotone must deep-copy.
        let mut b = TraceBuilder::new();
        b.write(0, "x").write(1, "x");
        let trace = b.finish();
        let m = ShbEngine::<TreeClock>::run(&trace);
        assert_eq!(m.deep_copies, 1);
    }

    #[test]
    fn ordered_writes_use_monotone_copy() {
        let mut b = TraceBuilder::new();
        b.write(0, "x").read(1, "x").write(1, "x");
        let trace = b.finish();
        let m = ShbEngine::<TreeClock>::run(&trace);
        // t1's write is SHB-after t0's write (through the read join), so
        // the copy is monotone.
        assert_eq!(m.deep_copies, 0);
    }

    #[test]
    fn shb_contains_hb() {
        use crate::hb::HbEngine;
        let mut b = TraceBuilder::new();
        b.acquire(0, "m").write(0, "x").release(0, "m");
        b.acquire(1, "m").read(1, "x").release(1, "m");
        b.write(2, "x");
        let trace = b.finish();
        let hb = HbEngine::<TreeClock>::collect_timestamps(&trace);
        let shb = ShbEngine::<TreeClock>::collect_timestamps(&trace);
        for (h, s) in hb.iter().zip(shb.iter()) {
            assert!(h.leq(s), "SHB timestamp must dominate HB timestamp");
        }
    }

    #[test]
    fn tree_and_vector_agree_on_shb() {
        let mut b = TraceBuilder::new();
        for i in 0..20u32 {
            let t = i % 4;
            b.write_id(t, i % 3);
            b.read_id((t + 1) % 4, i % 3);
            b.acquire_id(t, 0);
            b.release_id(t, 0);
        }
        let trace = b.finish();
        assert_eq!(
            ShbEngine::<TreeClock>::collect_timestamps(&trace),
            ShbEngine::<VectorClock>::collect_timestamps(&trace)
        );
    }
}
