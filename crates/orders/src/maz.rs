//! The Mazurkiewicz (MAZ) partial-order engine: Algorithm 5 of the
//! paper.
//!
//! MAZ extends HB with an order between every pair of conflicting
//! events, in trace order — the canonical algebraic representation of a
//! concurrent execution (Shasha–Snir traces). Besides the last-write
//! clock `LW_x`, the engine keeps a clock `R_{t,x}` for the last read of
//! `x` by each thread `t`, and the set `LRDs_x` of threads that read `x`
//! since the last write. A write joins the last write and all reads in
//! `LRDs_x`; later writes inherit those orderings transitively via the
//! write-to-write edge, which keeps the total time O(n·k).

use tc_core::{ClockPool, ClockTable, LogicalClock, ThreadId, VectorTime};
use tc_trace::{Event, Op, Trace, VarId};

use crate::metrics::RunMetrics;
use crate::sync_core::SyncCore;

/// Per-variable read state: the per-thread last-read clocks and the
/// readers since the last write. (The last-write clocks live in the
/// engine's [`ClockTable`].)
///
/// An untouched variable costs two empty `Vec`s, and every read clock
/// materializes from the engine's pool only when a read actually
/// publishes a time through it.
struct VarState<C> {
    /// `R_{t,x}` clocks, keyed linearly by thread id (sparse, append
    /// ordered by first read).
    reads: Vec<(ThreadId, C)>,
    /// Threads with a read since the last write (`LRDs_x`).
    lrds: Vec<ThreadId>,
}

impl<C: LogicalClock> VarState<C> {
    fn new() -> Self {
        VarState {
            reads: Vec::new(),
            lrds: Vec::new(),
        }
    }

    fn release_into(self, pool: &mut ClockPool<C>) {
        for (_, clock) in self.reads {
            pool.release(clock);
        }
    }

    fn heap_bytes(&self) -> usize {
        self.reads
            .iter()
            .map(|(_, c)| c.heap_bytes())
            .sum::<usize>()
    }
}

/// A streaming MAZ timestamping engine.
///
/// # Example
///
/// ```rust
/// use tc_core::{LogicalClock, ThreadId, TreeClock};
/// use tc_orders::MazEngine;
/// use tc_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new();
/// b.read(0, "x");
/// b.write(1, "x"); // conflicting: MAZ orders the read before the write
/// let trace = b.finish();
///
/// let mut maz = MazEngine::<TreeClock>::new(&trace);
/// for e in &trace {
///     maz.process(e);
/// }
/// assert_eq!(maz.clock_of(ThreadId::new(1)).unwrap().get(ThreadId::new(0)), 1);
/// ```
pub struct MazEngine<C> {
    core: SyncCore<C>,
    /// The `LW_x` clocks, materialized at each variable's first write.
    last_write: ClockTable<C>,
    vars: Vec<VarState<C>>,
}

impl<C: LogicalClock> MazEngine<C> {
    /// Creates an engine sized for `trace`.
    pub fn new(trace: &Trace) -> Self {
        Self::with_pool(trace, ClockPool::new())
    }

    /// Creates an engine sized for `trace` that draws its clocks from
    /// `pool`; reclaim it with [`into_pool`](Self::into_pool).
    pub fn with_pool(trace: &Trace, pool: ClockPool<C>) -> Self {
        MazEngine {
            core: SyncCore::for_trace_with_pool(trace, pool),
            last_write: ClockTable::with_len(trace.var_count()),
            vars: (0..trace.var_count()).map(|_| VarState::new()).collect(),
        }
    }

    /// Tears the engine down, releasing every clock it created into its
    /// pool for the next run to reuse.
    pub fn into_pool(self) -> ClockPool<C> {
        let mut pool = self.core.into_pool();
        self.last_write.release_into(&mut pool);
        for var in self.vars {
            var.release_into(&mut pool);
        }
        pool
    }

    /// Heap bytes currently owned by the engine's clocks (thread
    /// clocks, the lock and last-write tables with their slots, and the
    /// materialized read clocks).
    pub fn clock_bytes(&self) -> usize {
        self.core.clock_bytes()
            + self.last_write.heap_bytes()
            + self.vars.iter().map(VarState::heap_bytes).sum::<usize>()
    }

    /// Creates an engine with capacity hints that draws its clocks
    /// from `pool` — the streaming constructor, where no [`Trace`] is
    /// ever materialized.
    pub fn with_capacity(threads: usize, locks: usize, vars: usize, pool: ClockPool<C>) -> Self {
        MazEngine {
            core: SyncCore::with_pool(threads, locks, pool),
            last_write: ClockTable::with_len(vars),
            vars: (0..vars).map(|_| VarState::new()).collect(),
        }
    }

    /// Releases thread `t`'s clock into the pool; see
    /// [`HbEngine::retire_thread`](crate::HbEngine::retire_thread). The
    /// retired thread's `R_{t,x}` read clocks remain until a write
    /// drains them or [`evict_dominated`](Self::evict_dominated)
    /// reclaims them.
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

    /// Evicts every materialized lock, last-write and read clock
    /// dominated by the pointwise minimum over live thread clocks
    /// (dropping the corresponding `LRDs_x` membership — joining a
    /// dominated read clock is a value no-op); returns the number
    /// evicted. Value-preserving only under fork discipline — see
    /// [`HbEngine::evict_dominated`](crate::HbEngine::evict_dominated).
    pub fn evict_dominated(&mut self) -> usize {
        let mut floor = Vec::new();
        if !self.core.live_floor(&mut floor) {
            return 0;
        }
        let mut evicted = self.core.evict_dominated_locks(&floor);
        evicted += self.last_write.evict_if(&mut self.core.pool, |c| {
            crate::sync_core::clock_dominated(c, &floor)
        });
        for var in &mut self.vars {
            let mut i = 0;
            while i < var.reads.len() {
                if crate::sync_core::clock_dominated(&var.reads[i].1, &floor) {
                    let (t, clock) = var.reads.swap_remove(i);
                    self.core.pool.release(clock);
                    var.lrds.retain(|&r| r != t);
                    evicted += 1;
                } else {
                    i += 1;
                }
            }
        }
        evicted
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
                .vars
                .iter()
                .enumerate()
                .map(|(x, v)| crate::snapshot::VarClocks {
                    last_write: self
                        .last_write
                        .get(x)
                        .map(crate::snapshot::ClockValue::capture),
                    reads: v
                        .reads
                        .iter()
                        .map(|(t, c)| (*t, crate::snapshot::ClockValue::capture(c)))
                        .collect(),
                    lrds: v.lrds.clone(),
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
        let vars = state
            .vars
            .iter()
            .map(|v| VarState {
                reads: v
                    .reads
                    .iter()
                    .map(|(t, value)| (*t, value.restore_from_pool(&mut core.pool)))
                    .collect(),
                lrds: v.lrds.clone(),
            })
            .collect();
        MazEngine {
            core,
            last_write,
            vars,
        }
    }

    fn ensure_var(&mut self, x: VarId) {
        if x.index() >= self.vars.len() {
            self.vars.resize_with(x.index() + 1, VarState::new);
        }
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
                self.ensure_var(x);
                let var = &mut self.vars[x.index()];
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
                // R_{t,x} <- C_t (monotone: R was copied from C_t before).
                let (pool, clock) = self.core.pool_and_clock(e.tid);
                let entry = match var.reads.iter_mut().find(|(t, _)| *t == e.tid) {
                    Some((_, r)) => r,
                    None => {
                        var.reads.push((e.tid, pool.acquire()));
                        &mut var.reads.last_mut().expect("just pushed").1
                    }
                };
                if COUNT {
                    let s = entry.monotone_copy_counted(clock);
                    self.core.metrics.record_copy(s);
                } else {
                    entry.monotone_copy(clock);
                    self.core.metrics.record_copy_uncounted();
                }
                if !var.lrds.contains(&e.tid) {
                    var.lrds.push(e.tid);
                }
            }
            Op::Write(x) => {
                self.ensure_var(x);
                let var = &mut self.vars[x.index()];
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
                // Order all reads since the last write before this write.
                for t in var.lrds.drain(..) {
                    if t == e.tid {
                        continue; // own reads are thread-ordered already
                    }
                    let read_clock = var
                        .reads
                        .iter()
                        .find(|(rt, _)| *rt == t)
                        .map(|(_, r)| r)
                        .expect("every thread in LRDs has a read clock");
                    let clock = self.core.clock_mut(e.tid);
                    if COUNT {
                        let s = clock.join_counted(read_clock);
                        self.core.metrics.record_join(s);
                    } else {
                        clock.join(read_clock);
                        self.core.metrics.record_join_uncounted();
                    }
                }
                let (pool, clock) = self.core.pool_and_clock(e.tid);
                if COUNT {
                    let lw = self.last_write.get_or_acquire(x.index(), pool);
                    let s = lw.monotone_copy_counted(clock);
                    self.core.metrics.record_copy(s);
                } else {
                    if let Some(lw) = self.last_write.publication_target(x.index(), pool, clock) {
                        lw.monotone_copy(clock);
                    }
                    self.core.metrics.record_copy_uncounted();
                }
            }
            _ => unreachable!("process_sync handled synchronization events"),
        }
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
        let mut engine = MazEngine::<C>::with_pool(trace, std::mem::take(pool));
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
        let mut engine = MazEngine::<C>::with_pool(trace, std::mem::take(pool));
        for e in trace {
            engine.process_counted(e);
        }
        let metrics = engine.core.metrics;
        *pool = engine.into_pool();
        metrics
    }

    /// Runs the whole trace collecting each event's MAZ timestamp.
    pub fn collect_timestamps(trace: &Trace) -> Vec<VectorTime> {
        Self::collect_timestamps_pooled(trace, &mut ClockPool::new())
    }

    /// [`collect_timestamps`](Self::collect_timestamps) with pooled
    /// clocks.
    pub fn collect_timestamps_pooled(trace: &Trace, pool: &mut ClockPool<C>) -> Vec<VectorTime> {
        let mut engine = MazEngine::<C>::with_pool(trace, std::mem::take(pool));
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
    fn conflicting_accesses_are_ordered_by_trace_order() {
        let mut b = TraceBuilder::new();
        b.write(0, "x"); // e0
        b.read(1, "x"); // e1: after e0 (w-r)
        b.write(2, "x"); // e2: after e0 (w-w) and e1 (r-w)
        let trace = b.finish();
        let ts = MazEngine::<TreeClock>::collect_timestamps(&trace);
        assert_eq!(ts[1], vt(&[1, 1]));
        assert_eq!(ts[2], vt(&[1, 1, 1]));
    }

    #[test]
    fn unrelated_variables_stay_concurrent() {
        let mut b = TraceBuilder::new();
        b.write(0, "x").write(1, "y");
        let trace = b.finish();
        let ts = MazEngine::<TreeClock>::collect_timestamps(&trace);
        assert_eq!(ts[1], vt(&[0, 1]));
    }

    #[test]
    fn two_reads_stay_concurrent() {
        let mut b = TraceBuilder::new();
        b.write(0, "x").read(1, "x").read(2, "x");
        let trace = b.finish();
        let ts = MazEngine::<TreeClock>::collect_timestamps(&trace);
        // Both reads see the write but not each other.
        assert_eq!(ts[1], vt(&[1, 1]));
        assert_eq!(ts[2], vt(&[1, 0, 1]));
    }

    #[test]
    fn read_to_write_ordering_goes_through_lrds() {
        let mut b = TraceBuilder::new();
        b.write(0, "x"); // e0
        b.read(1, "x"); // e1
        b.read(2, "x"); // e2
        b.write(3, "x"); // e3: ordered after e0, e1 and e2
        b.write(4, "x"); // e4: after e3 (and transitively everything)
        let trace = b.finish();
        let ts = MazEngine::<TreeClock>::collect_timestamps(&trace);
        assert_eq!(ts[3], vt(&[1, 1, 1, 1]));
        assert_eq!(ts[4], vt(&[1, 1, 1, 1, 1]));
    }

    #[test]
    fn lrds_is_cleared_by_writes() {
        let mut b = TraceBuilder::new();
        b.write(0, "x");
        b.read(1, "x");
        b.write(2, "x"); // clears LRDs
        b.write(3, "x"); // must not re-join t1's read clock
        let trace = b.finish();
        let mut engine = MazEngine::<TreeClock>::new(&trace);
        for e in &trace {
            engine.process(e);
        }
        // Join count: e0 skips the not-yet-materialized LW (lazy); e1
        // joins LW; e2 joins LW + R_{t1}; e3 joins LW only (LRDs was
        // cleared by e2).
        assert_eq!(engine.metrics().joins, 1 + 2 + 1);
        // Still transitively ordered after the read, through e2.
        assert_eq!(engine.timestamp_of(ThreadId::new(3)), vt(&[1, 1, 1, 1]));
    }

    #[test]
    fn maz_contains_shb() {
        use crate::shb::ShbEngine;
        let mut b = TraceBuilder::new();
        b.acquire(0, "m").write(0, "x").release(0, "m");
        b.read(1, "x").write(1, "x");
        b.acquire(2, "m").read(2, "x").release(2, "m");
        let trace = b.finish();
        let shb = ShbEngine::<TreeClock>::collect_timestamps(&trace);
        let maz = MazEngine::<TreeClock>::collect_timestamps(&trace);
        for (s, m) in shb.iter().zip(maz.iter()) {
            assert!(s.leq(m), "MAZ timestamp must dominate SHB timestamp");
        }
    }

    #[test]
    fn untouched_variables_own_no_clock_memory() {
        // An engine over a trace that never touches its variables keeps
        // every per-variable slot unmaterialized.
        let mut b = TraceBuilder::new();
        b.acquire(0, "m").release(0, "m");
        let sync_only = b.finish();
        let engine = MazEngine::<TreeClock>::new(&sync_only);
        assert_eq!(
            engine.vars.iter().map(VarState::heap_bytes).sum::<usize>(),
            0,
            "untouched variables must not own clock memory"
        );
    }

    #[test]
    fn tree_and_vector_agree_on_maz() {
        let mut b = TraceBuilder::new();
        for i in 0..30u32 {
            let t = i % 5;
            match i % 4 {
                0 => b.write_id(t, i % 2),
                1 => b.read_id((t + 1) % 5, i % 2),
                2 => b.read_id((t + 2) % 5, i % 2),
                _ => {
                    b.acquire_id(t, 0);
                    b.release_id(t, 0)
                }
            };
        }
        let trace = b.finish();
        assert_eq!(
            MazEngine::<TreeClock>::collect_timestamps(&trace),
            MazEngine::<VectorClock>::collect_timestamps(&trace)
        );
    }
}
