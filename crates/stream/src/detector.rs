//! The incremental detector: the batch race detectors' feed-one-event
//! twin, with bounded-memory hooks.
//!
//! [`IncrementalDetector`] wraps one partial-order engine
//! ([`HbEngine`]/[`ShbEngine`]/[`MazEngine`]) behind a single
//! [`feed`](IncrementalDetector::feed) API, performing exactly the
//! epoch checks the batch detectors perform — in the same
//! check-before-process order — so its reports and per-event
//! timestamps are *identical* to a batch run over the same events (the
//! conformance sweep enforces this on every quick-corpus case).
//!
//! On top of the batch semantics it adds what an online service needs:
//!
//! - **Thread retirement** — at `join(t, u)` the child `u`'s clock has
//!   just been absorbed by `t` and (in a well-formed trace) can never
//!   be read again, so it is released to the [`ClockPool`] immediately.
//!   On spawn/join-churn workloads this bounds the number of live
//!   clocks by the number of *live* threads, not total threads.
//! - **Cold-state eviction** — every [`DetectorConfig::evict_every`]
//!   events, lock/variable clocks dominated by the pointwise minimum
//!   over live thread clocks are released: every future join against
//!   them would be a value no-op. Sound only under *fork discipline*
//!   (every new thread is forked by a live one, so it inherits at least
//!   the floor at birth); the detector enforces the discipline once the
//!   first eviction has happened and rejects a spontaneous thread with
//!   [`FeedError::SpontaneousThread`] instead of silently diverging.
//! - **Checkpointing** — [`checkpoint`](IncrementalDetector::checkpoint)
//!   captures the complete value-level state;
//!   [`from_checkpoint`](IncrementalDetector::from_checkpoint) resumes
//!   it with byte-identical subsequent reports.

use std::fmt;

use tc_analysis::{upcoming_epoch, Race, RaceReport, VarHistories};
use tc_core::{BindError, ClockPool, IdentityMap, LogicalClock, ThreadId, VectorTime};
use tc_orders::{HbEngine, MazEngine, PartialOrderKind, ShbEngine};
use tc_trace::{Event, Op};

use crate::checkpoint::Checkpoint;

/// Clock slots one detector may open. Every thread clock is as wide as
/// the slot space and the engine sizes each new clock to it, so a slot
/// id `n` costs about `n²` clock entries: a bound that lets one wire
/// event with a large thread id allocate gigabytes is no bound. On the
/// direct path the slot is the thread id; under
/// [`DetectorConfig::recycle_slots`] it is the slot the identity map
/// assigns, so a churning session may use any thread ids.
const MAX_THREAD_SLOTS: usize = 4096;

/// How often (in events) the detector samples its live clock bytes into
/// the `peak_clock_bytes` high-water mark. Sampling (rather than
/// per-event accounting) keeps the O(threads + locks + vars) byte walk
/// off the hot path; retirements sample unconditionally, since they are
/// exactly where the footprint peaks under churn.
const PEAK_SAMPLE_EVERY: u64 = 1024;

/// Configuration of an [`IncrementalDetector`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetectorConfig {
    /// The partial order to compute races/reversible pairs under.
    pub order: PartialOrderKind,
    /// Release a thread's clock to the pool when it is joined
    /// (default: on — the retirement is always sound on well-formed
    /// traces).
    pub retire_on_join: bool,
    /// Evict dominated lock/variable clocks every this many events
    /// (`None` = off). Requires fork discipline; see the module docs.
    pub evict_every: Option<u64>,
    /// Route external thread ids through an [`IdentityMap`] so retired
    /// threads' internal clock slots are recycled once every live clock
    /// dominates their final time (default: off). Keeps clock *width*
    /// proportional to live threads under spawn/join churn. Requires
    /// fork discipline like eviction; reports and timestamps stay in
    /// external ids and are identical to a non-recycling run (the
    /// conformance sweep's recycling pass enforces this).
    pub recycle_slots: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            order: PartialOrderKind::Hb,
            retire_on_join: true,
            evict_every: None,
            recycle_slots: false,
        }
    }
}

impl DetectorConfig {
    /// A config for `order` with the default memory policy.
    pub fn for_order(order: PartialOrderKind) -> Self {
        DetectorConfig {
            order,
            ..DetectorConfig::default()
        }
    }
}

/// An error while feeding an event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FeedError {
    /// A thread appeared without having been forked after eviction had
    /// already discarded dominated state — the one situation where
    /// eviction could silently change results, rejected instead.
    SpontaneousThread {
        /// The offending thread.
        thread: ThreadId,
        /// The event index at which it appeared.
        at: u64,
    },
    /// The event involves a thread whose clock has already been retired
    /// (it acted, was the target of a fork, or was joined again after
    /// its `join`). Ill-formed input; rejected so a malformed session
    /// cannot panic the detector.
    RetiredThread {
        /// The retired thread.
        thread: ThreadId,
        /// The event index at which it was referenced.
        at: u64,
    },
    /// The event involves an external thread that was retired *and*
    /// whose internal clock slot has since been recycled to a different
    /// external thread — the slot-recycling form of
    /// [`RetiredThread`](Self::RetiredThread), reported separately
    /// because the slot's clock state now belongs to another thread.
    RecycledThread {
        /// The retired external thread.
        thread: ThreadId,
        /// The event index at which it was referenced.
        at: u64,
    },
    /// The event would open a clock slot past the detector's bound of
    /// 4,096 for a thread it has not seen yet.
    SlotLimit {
        /// The thread that would need the slot.
        thread: ThreadId,
        /// The event index at which it appeared.
        at: u64,
    },
}

impl fmt::Display for FeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedError::SpontaneousThread { thread, at } => write!(
                f,
                "thread {thread} appears without a fork at event {at}, after eviction \
                 discarded dominated state (eviction requires fork discipline; \
                 disable it or fork every thread)"
            ),
            FeedError::RetiredThread { thread, at } => write!(
                f,
                "event {at} involves thread {thread}, which was already joined and \
                 retired (a joined thread cannot act or be forked/joined again)"
            ),
            FeedError::RecycledThread { thread, at } => write!(
                f,
                "event {at} involves thread {thread}, which was already joined and \
                 retired, and whose clock slot has been recycled to another thread \
                 (a joined thread cannot act or be forked/joined again)"
            ),
            FeedError::SlotLimit { thread, at } => write!(
                f,
                "event {at} needs a clock slot for thread {thread}, but a session holds at \
                 most {MAX_THREAD_SLOTS} (without recycling, thread ids are the slots)"
            ),
        }
    }
}

impl std::error::Error for FeedError {}

enum OrderEngine<C> {
    Hb(HbEngine<C>),
    Shb(ShbEngine<C>),
    Maz(MazEngine<C>),
}

macro_rules! dispatch {
    ($engine:expr, $e:ident => $body:expr) => {
        match $engine {
            OrderEngine::Hb($e) => $body,
            OrderEngine::Shb($e) => $body,
            OrderEngine::Maz($e) => $body,
        }
    };
}

/// A streaming race detector over one partial order and one clock
/// backend; see the [module docs](self).
///
/// # Example
///
/// ```rust
/// use tc_core::TreeClock;
/// use tc_stream::{DetectorConfig, IncrementalDetector};
/// use tc_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new();
/// b.write(0, "x").write(1, "x"); // unsynchronized: a data race
/// let trace = b.finish();
///
/// let mut d = IncrementalDetector::<TreeClock>::new(DetectorConfig::default());
/// let mut found = 0;
/// for e in &trace {
///     found += d.feed(e).unwrap().len();
/// }
/// assert_eq!(found, 1);
/// ```
pub struct IncrementalDetector<C: LogicalClock> {
    config: DetectorConfig,
    engine: OrderEngine<C>,
    vars: VarHistories,
    report: RaceReport,
    /// Stored races already returned from [`feed`](Self::feed).
    emitted: usize,
    events: u64,
    evicted: u64,
    /// Thread lifecycle for the eviction fork-discipline guard and the
    /// session stats (index = *external* thread id).
    started: Vec<bool>,
    forked: Vec<bool>,
    /// The session's initial thread (exempt from the fork requirement).
    first_thread: Option<ThreadId>,
    /// External-id ⇄ internal-slot map; `Some` iff
    /// [`DetectorConfig::recycle_slots`].
    identity: Option<IdentityMap>,
    /// Scratch buffer for the reclamation floor (kept to avoid
    /// reallocating it on every churn wave).
    floor_buf: Vec<tc_core::LocalTime>,
    /// Sampled high-water mark of [`clock_bytes`](Self::clock_bytes);
    /// telemetry only, not checkpointed (byte capacities are not part
    /// of the value-level state).
    peak_clock_bytes: usize,
}

impl<C: LogicalClock> IncrementalDetector<C> {
    /// Creates a detector with fresh clock buffers.
    pub fn new(config: DetectorConfig) -> Self {
        Self::with_pool(config, ClockPool::new())
    }

    /// Creates a detector drawing clocks from `pool` (a pool recycled
    /// from a finished session makes the new session allocation-lean).
    pub fn with_pool(config: DetectorConfig, pool: ClockPool<C>) -> Self {
        let engine = match config.order {
            PartialOrderKind::Hb => OrderEngine::Hb(HbEngine::with_capacity(0, 0, 0, pool)),
            PartialOrderKind::Shb => OrderEngine::Shb(ShbEngine::with_capacity(0, 0, 0, pool)),
            PartialOrderKind::Maz => OrderEngine::Maz(MazEngine::with_capacity(0, 0, 0, pool)),
        };
        IncrementalDetector {
            config,
            engine,
            vars: VarHistories::default(),
            report: RaceReport::new(),
            emitted: 0,
            events: 0,
            evicted: 0,
            started: Vec::new(),
            forked: Vec::new(),
            first_thread: None,
            identity: config.recycle_slots.then(IdentityMap::new),
            floor_buf: Vec::new(),
            peak_clock_bytes: 0,
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> DetectorConfig {
        self.config
    }

    /// Events ingested so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Distinct threads seen so far (acting or fork-targeted).
    pub fn threads_seen(&self) -> usize {
        self.started.iter().filter(|&&s| s).count()
    }

    /// The report accumulated so far (total/checks keep counting past
    /// the stored-race cap).
    pub fn report(&self) -> &RaceReport {
        &self.report
    }

    /// Clock/variable state dominated-eviction count so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Threads whose clock has been retired to the pool.
    pub fn retired_count(&self) -> usize {
        dispatch!(&self.engine, e => e.retired_count())
    }

    /// Heap bytes currently owned by the engine's live clocks.
    pub fn clock_bytes(&self) -> usize {
        dispatch!(&self.engine, e => e.clock_bytes())
    }

    /// High-water mark of [`clock_bytes`](Self::clock_bytes), sampled
    /// every `PEAK_SAMPLE_EVERY` events and at every retirement (and
    /// floored by the current value). Telemetry only — it restarts from
    /// the restored state's footprint after a checkpoint resume.
    pub fn peak_clock_bytes(&self) -> usize {
        self.peak_clock_bytes.max(self.clock_bytes())
    }

    /// External threads currently live (started and not yet retired).
    pub fn live_threads(&self) -> usize {
        match &self.identity {
            Some(map) => map.live_threads(),
            None => self.threads_seen().saturating_sub(self.retired_count()),
        }
    }

    /// External threads ever seen — under recycling this keeps growing
    /// while [`slot_width`](Self::slot_width) stays at the churn's
    /// live-thread width.
    pub fn total_threads(&self) -> usize {
        match &self.identity {
            Some(map) => map.total_threads(),
            None => self.threads_seen(),
        }
    }

    /// Number of internal slot reuses so far (0 without recycling).
    pub fn recycled_slots(&self) -> u64 {
        self.identity.as_ref().map_or(0, IdentityMap::recycled)
    }

    /// Width of the internal slot space every clock pays for: equals
    /// total threads without recycling.
    pub fn slot_width(&self) -> usize {
        match &self.identity {
            Some(map) => map.slot_width(),
            None => self.threads_seen(),
        }
    }

    /// The engine's clock pool (fresh/recycled/parked telemetry).
    pub fn pool(&self) -> &ClockPool<C> {
        dispatch!(&self.engine, e => e.pool())
    }

    /// The current vector timestamp of thread `t` (empty once retired),
    /// in *external* thread coordinates: under recycling, the slot
    /// clock's entries are translated back through the identity map
    /// (each external's component is its slot's time clamped to the
    /// external's own `(base, fin]` generation interval), so the result
    /// is comparable with a non-recycling run's timestamps.
    pub fn timestamp_of(&self, t: ThreadId) -> VectorTime {
        let Some(map) = &self.identity else {
            return dispatch!(&self.engine, e => e.timestamp_of(t));
        };
        let Some(binding) = map.binding_of(t) else {
            return VectorTime::new();
        };
        let clock = dispatch!(&self.engine, e => e.clock_of(binding.slot));
        let Some(clock) = clock else {
            return VectorTime::new();
        };
        let mut vt = VectorTime::new();
        for (ext, slot, _) in map.iter() {
            let time = map.external_time(ext, clock.get(slot));
            if time > 0 {
                vt.set(ext, time);
            }
        }
        vt
    }

    /// Tears the detector down, releasing every clock into its pool.
    pub fn into_pool(self) -> ClockPool<C> {
        dispatch!(self.engine, e => e.into_pool())
    }

    fn grow_thread(&mut self, i: usize) {
        if i >= self.started.len() {
            self.started.resize(i + 1, false);
            self.forked.resize(i + 1, false);
        }
    }

    /// Ingests one event, returning any races it uncovered (the live
    /// emission path — each stored race is returned exactly once across
    /// the session's `feed` calls).
    ///
    /// Events must arrive in trace order and be well-formed; pair the
    /// detector with a
    /// [`SessionValidator`](tc_trace::SessionValidator) when the source
    /// is untrusted.
    ///
    /// # Errors
    ///
    /// [`FeedError::SpontaneousThread`] when eviction is enabled, has
    /// already discarded state, and a thread appears without a fork
    /// (the event is *not* ingested; the session stays usable).
    pub fn feed(&mut self, e: &Event) -> Result<&[Race], FeedError> {
        if self.identity.is_some() {
            self.feed_recycled(e)
        } else {
            self.feed_direct(e)
        }
    }

    /// The direct path: external ids *are* the clock slots.
    fn feed_direct(&mut self, e: &Event) -> Result<&[Race], FeedError> {
        let t = e.tid;
        self.check_direct_slot(t)?;
        if let Op::Fork(u) | Op::Join(u) = e.op {
            self.check_direct_slot(u)?;
        }
        self.grow_thread(t.index());
        // A retired thread can neither act nor be targeted again: the
        // batch validators accept e.g. a fork of a never-started thread
        // that was already joined, but its clock is gone — reject the
        // event instead of panicking the engine.
        let referenced_retired = dispatch!(&self.engine, e2 => e2.is_retired(t))
            || match e.op {
                Op::Fork(u) | Op::Join(u) => dispatch!(&self.engine, e2 => e2.is_retired(u)),
                _ => false,
            };
        if referenced_retired {
            let thread = match e.op {
                Op::Fork(u) | Op::Join(u) if dispatch!(&self.engine, e2 => e2.is_retired(u)) => u,
                _ => t,
            };
            return Err(FeedError::RetiredThread {
                thread,
                at: self.events,
            });
        }
        if self.evicted > 0
            && !self.started[t.index()]
            && !self.forked[t.index()]
            && self.first_thread != Some(t)
        {
            return Err(FeedError::SpontaneousThread {
                thread: t,
                at: self.events,
            });
        }
        self.record_lifecycle(e);
        self.analyze(e);

        if self.config.retire_on_join {
            if let Op::Join(u) = e.op {
                self.observe_peak();
                dispatch!(&mut self.engine, e2 => e2.retire_thread(u));
            }
        }
        self.evict_tick();
        self.sample_peak();
        Ok(self.emit())
    }

    /// The recycling path: external ids are translated through the
    /// [`IdentityMap`] onto internal slots before the (otherwise
    /// unchanged) batch discipline runs, and every freshly stored race
    /// is translated back so reports keep speaking external ids.
    fn feed_recycled(&mut self, e: &Event) -> Result<&[Race], FeedError> {
        let t = e.tid;
        // Validate every referenced external id before mutating
        // anything, so a rejected event leaves the session untouched.
        {
            let map = self.identity.as_ref().expect("recycling map");
            let check = |ext: ThreadId| match map.rebind_error(ext) {
                Some(BindError::Retired) => Err(FeedError::RetiredThread {
                    thread: ext,
                    at: self.events,
                }),
                Some(BindError::Recycled) => Err(FeedError::RecycledThread {
                    thread: ext,
                    at: self.events,
                }),
                None => Ok(()),
            };
            check(t)?;
            if let Op::Fork(u) | Op::Join(u) = e.op {
                check(u)?;
            }
        }
        // An event binds at most two new externals, so below this width
        // every binding fits.
        if self.slot_width() + 2 > MAX_THREAD_SLOTS {
            self.check_slot_room(e)?;
        }
        self.grow_thread(t.index());
        // Reclamation assumes fork discipline exactly like eviction:
        // once a slot has been reclaimed on the strength of the live
        // floor, a spontaneous thread (whose clock would *not* dominate
        // the reclaimed slot's final time) could silently change
        // results, so it is rejected instead.
        let recycling_active = self
            .identity
            .as_ref()
            .is_some_and(IdentityMap::recycling_active);
        if (self.evicted > 0 || recycling_active)
            && !self.started[t.index()]
            && !self.forked[t.index()]
            && self.first_thread != Some(t)
        {
            return Err(FeedError::SpontaneousThread {
                thread: t,
                at: self.events,
            });
        }
        self.record_lifecycle(e);

        // Translate to internal slot coordinates, binding (and, on
        // demand, reclaiming + adopting) every referenced external.
        let slot_t = self.bind_external(t);
        let op = match e.op {
            Op::Fork(u) => Op::Fork(self.bind_external(u)),
            Op::Join(u) => Op::Join(self.bind_external(u)),
            other => other,
        };
        let internal = Event::new(slot_t, op);

        let stored_before = self.report.races.len();
        self.analyze(&internal);
        // Freshly stored races carry slot-coordinate epochs; translate
        // them through the slots' *current* bindings, which is exact:
        // a pre-reclaim generation's epochs are dominated by every live
        // clock and can never appear in a race again.
        {
            let map = self.identity.as_ref().expect("recycling map");
            for race in &mut self.report.races[stored_before..] {
                race.prior = map.external_epoch(race.prior);
                race.current = map.external_epoch(race.current);
            }
        }

        if self.config.retire_on_join {
            if let Op::Join(u) = internal.op {
                self.observe_peak();
                let fin = dispatch!(&self.engine, e2 => e2.clock_of(u))
                    .map(|c| c.get(u))
                    .unwrap_or(0);
                if dispatch!(&mut self.engine, e2 => e2.retire_thread(u)) {
                    let ext = match e.op {
                        Op::Join(x) => x,
                        _ => unreachable!("internal op mirrors the external op"),
                    };
                    self.identity
                        .as_mut()
                        .expect("recycling map")
                        .retire(ext, fin);
                }
            }
        }
        self.evict_tick();
        self.sample_peak();
        Ok(self.emit())
    }

    /// Rejects a thread id that would open a direct-path clock slot at
    /// or past [`MAX_THREAD_SLOTS`]. An id below the detector's width
    /// already has its slot, so it pays one comparison.
    fn check_direct_slot(&self, u: ThreadId) -> Result<(), FeedError> {
        if u.index() >= self.started.len() && u.index() >= MAX_THREAD_SLOTS {
            return Err(FeedError::SlotLimit {
                thread: u,
                at: self.events,
            });
        }
        Ok(())
    }

    /// Rejects an event whose unbound externals would need a fresh slot
    /// at or past [`MAX_THREAD_SLOTS`]. It first runs the reclamation
    /// sweep binding would run, so joined threads' slots count as free;
    /// the sweep changes no binding.
    fn check_slot_room(&mut self, e: &Event) -> Result<(), FeedError> {
        let map = self.identity.as_ref().expect("recycling map");
        let mut unbound = match e.op {
            Op::Fork(u) | Op::Join(u) if u != e.tid => vec![e.tid, u],
            _ => vec![e.tid],
        };
        unbound.retain(|&x| map.binding_of(x).is_none());
        if !unbound.is_empty() {
            self.refill_free_slots();
        }
        let map = self.identity.as_ref().expect("recycling map");
        let room = map.free_slots() + MAX_THREAD_SLOTS.saturating_sub(map.slot_width());
        match unbound.get(room) {
            Some(&thread) => Err(FeedError::SlotLimit {
                thread,
                at: self.events,
            }),
            None => Ok(()),
        }
    }

    /// With the free pool dry, sweeps the pending retirements against
    /// the live floor — roughly one floor computation per churn wave.
    fn refill_free_slots(&mut self) {
        let map = self.identity.as_ref().expect("recycling map");
        if map.free_slots() > 0 || !map.has_pending() {
            return;
        }
        let mut floor = std::mem::take(&mut self.floor_buf);
        let any_live = dispatch!(&self.engine, e2 => e2.live_floor(&mut floor));
        let map = self.identity.as_mut().expect("recycling map");
        if any_live {
            map.reclaim(&floor);
        } else {
            map.reclaim_all();
        }
        self.floor_buf = floor;
    }

    /// Binds one external id to its slot (infallible after the
    /// `rebind_error` pre-checks). Binding a *new* external first
    /// refills a dry free pool, and a fresh binding re-arms the engine
    /// slot at the binding's base time before any of the occupant's
    /// events are processed (the engine's lazy rooting would root at
    /// time 0 and rewind the slot).
    fn bind_external(&mut self, ext: ThreadId) -> ThreadId {
        let map = self.identity.as_ref().expect("recycling map");
        if map.binding_of(ext).is_none() {
            self.refill_free_slots();
        }
        let binding = self
            .identity
            .as_mut()
            .expect("recycling map")
            .bind(ext)
            .expect("bind pre-checked by rebind_error");
        if binding.fresh {
            dispatch!(&mut self.engine, e2 => e2.adopt_thread(binding.slot, binding.base));
        }
        binding.slot
    }

    /// Thread-lifecycle bookkeeping (external-id domain, both paths).
    fn record_lifecycle(&mut self, e: &Event) {
        let t = e.tid;
        if self.first_thread.is_none() {
            self.first_thread = Some(t);
        }
        self.started[t.index()] = true;
        if let Op::Fork(u) = e.op {
            self.grow_thread(u.index());
            self.forked[u.index()] = true;
            self.started[u.index()] = true;
        }
    }

    /// The batch detectors' discipline, verbatim: epoch checks against
    /// the pre-event clock, then the engine's edges. `e` is in clock
    /// (slot) coordinates.
    fn analyze(&mut self, e: &Event) {
        let t = e.tid;
        match e.op {
            Op::Read(x) => {
                let clock = dispatch!(&self.engine, e2 => e2.clock_of(t));
                let epoch = upcoming_epoch(t, clock);
                match clock {
                    Some(c) => self.vars.entry(x).on_read(epoch, c, &mut self.report),
                    None => {
                        let c = C::new();
                        self.vars.entry(x).on_read(epoch, &c, &mut self.report);
                    }
                }
            }
            Op::Write(x) => {
                let clock = dispatch!(&self.engine, e2 => e2.clock_of(t));
                let epoch = upcoming_epoch(t, clock);
                match clock {
                    Some(c) => self.vars.entry(x).on_write(epoch, c, &mut self.report),
                    None => {
                        let c = C::new();
                        self.vars.entry(x).on_write(epoch, &c, &mut self.report);
                    }
                }
            }
            _ => {}
        }
        dispatch!(&mut self.engine, e2 => e2.process(e));
        self.events += 1;
    }

    fn evict_tick(&mut self) {
        if let Some(n) = self.config.evict_every {
            if n > 0 && self.events.is_multiple_of(n) {
                self.evicted += dispatch!(&mut self.engine, e2 => e2.evict_dominated()) as u64;
            }
        }
    }

    /// Folds the current clock bytes into the sampled high-water mark.
    fn observe_peak(&mut self) {
        let bytes = self.clock_bytes();
        if bytes > self.peak_clock_bytes {
            self.peak_clock_bytes = bytes;
        }
    }

    fn sample_peak(&mut self) {
        if self.events.is_multiple_of(PEAK_SAMPLE_EVERY) {
            self.observe_peak();
        }
    }

    /// Returns the races stored since the last emission.
    fn emit(&mut self) -> &[Race] {
        let start = self.emitted;
        self.emitted = self.report.races.len();
        self.report.races_since(start)
    }

    /// Captures the complete value-level session state. Feeding the
    /// same remaining events to
    /// [`from_checkpoint`](Self::from_checkpoint)'s detector yields
    /// byte-identical reports to never having stopped.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            config: self.config,
            backend: C::NAME.to_owned(),
            events: self.events,
            emitted: self.emitted as u64,
            polled: 0,
            evicted: self.evicted,
            first_thread: self.first_thread,
            started: self.started.clone(),
            forked: self.forked.clone(),
            engine: dispatch!(&self.engine, e => e.export_state()),
            vars: self.vars.snapshot(),
            report: self.report.clone(),
            validator: None,
            interner: None,
            identity: self.identity.as_ref().map(IdentityMap::snapshot),
        }
    }

    /// Resumes a session from a checkpoint, drawing clocks from `pool`.
    /// The backend need not match the one that wrote the checkpoint
    /// (values are representation independent); the recorded
    /// [`Checkpoint::backend`] lets a service re-create the original
    /// one.
    pub fn from_checkpoint(cp: &Checkpoint, pool: ClockPool<C>) -> Self {
        let engine = match cp.config.order {
            PartialOrderKind::Hb => OrderEngine::Hb(HbEngine::from_state(&cp.engine, pool)),
            PartialOrderKind::Shb => OrderEngine::Shb(ShbEngine::from_state(&cp.engine, pool)),
            PartialOrderKind::Maz => OrderEngine::Maz(MazEngine::from_state(&cp.engine, pool)),
        };
        IncrementalDetector {
            config: cp.config,
            engine,
            vars: VarHistories::from_snapshot(&cp.vars),
            report: cp.report.clone(),
            emitted: cp.emitted as usize,
            events: cp.events,
            evicted: cp.evicted,
            started: cp.started.clone(),
            forked: cp.forked.clone(),
            first_thread: cp.first_thread,
            identity: cp
                .identity
                .as_ref()
                .map(IdentityMap::from_snapshot)
                .or_else(|| cp.config.recycle_slots.then(IdentityMap::new)),
            floor_buf: Vec::new(),
            peak_clock_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_analysis::HbRaceDetector;
    use tc_core::{TreeClock, VectorClock};
    use tc_trace::TraceBuilder;

    #[test]
    fn feed_matches_the_batch_detector() {
        let mut b = TraceBuilder::new();
        b.write(0, "x");
        b.read(1, "x");
        b.acquire(0, "m").write(0, "y").release(0, "m");
        b.acquire(1, "m").write(1, "y").release(1, "m");
        b.write(2, "x");
        let trace = b.finish();

        let batch = HbRaceDetector::<TreeClock>::new(&trace).run(&trace);
        let mut d = IncrementalDetector::<TreeClock>::new(DetectorConfig::default());
        let mut live = Vec::new();
        for e in &trace {
            live.extend(d.feed(e).unwrap().iter().copied());
        }
        assert_eq!(*d.report(), batch);
        assert_eq!(live, batch.races, "live emission must cover every race");
        assert_eq!(d.events(), trace.len() as u64);
        assert_eq!(d.threads_seen(), 3);
    }

    #[test]
    fn join_retirement_releases_clocks() {
        let mut b = TraceBuilder::new();
        b.fork(0, 1).write(1, "x").join(0, 1);
        b.fork(0, 2).write(2, "x").join(0, 2);
        let trace = b.finish();
        let mut d = IncrementalDetector::<VectorClock>::new(DetectorConfig::default());
        for e in &trace {
            d.feed(e).unwrap();
        }
        assert_eq!(d.retired_count(), 2);
        // The second child reused the first child's retired clock.
        assert!(d.pool().recycled() >= 1);
        // Both writes are fork/join ordered: no race.
        assert!(d.report().is_empty());
    }

    #[test]
    fn eviction_rejects_spontaneous_threads_instead_of_diverging() {
        let config = DetectorConfig {
            evict_every: Some(1),
            ..DetectorConfig::default()
        };
        let mut d = IncrementalDetector::<TreeClock>::new(config);
        let mut b = TraceBuilder::new();
        b.acquire(0, "m").release(0, "m").fork(0, 1);
        b.acquire(1, "m").release(1, "m");
        let trace = b.finish();
        for e in &trace {
            d.feed(e).unwrap();
        }
        assert!(d.evicted() > 0, "the lock clock must have been evicted");
        // A forked thread is fine; a spontaneous one is rejected.
        let mut b = TraceBuilder::new();
        b.write(7, "x");
        let spontaneous = &b.finish()[0];
        let err = d.feed(spontaneous).unwrap_err();
        assert!(matches!(err, FeedError::SpontaneousThread { .. }));
        assert!(err.to_string().contains("fork discipline"));
        // The rejected event was not ingested; the session continues.
        let before = d.events();
        let mut b = TraceBuilder::new();
        b.acquire(0, "m");
        d.feed(&b.finish()[0]).unwrap();
        assert_eq!(d.events(), before + 1);
    }

    #[test]
    fn events_touching_retired_threads_error_instead_of_panicking() {
        // join(0,1) roots-and-retires t1 even though it never acted; a
        // later fork/join/act of t1 must be a FeedError, not an engine
        // panic (a panic would kill a serve worker shard for good).
        let mut b = TraceBuilder::new();
        b.join(0, 1).fork(2, 1);
        let trace = b.finish();
        let mut d = IncrementalDetector::<TreeClock>::new(DetectorConfig::default());
        d.feed(&trace[0]).unwrap();
        let err = d.feed(&trace[1]).unwrap_err();
        assert!(
            matches!(err, FeedError::RetiredThread { thread, .. } if thread == ThreadId::new(1)),
            "{err}"
        );
        // An event *by* the retired thread is rejected too.
        let mut b = TraceBuilder::new();
        b.write(1, "x");
        let err = d.feed(&b.finish()[0]).unwrap_err();
        assert!(matches!(err, FeedError::RetiredThread { .. }), "{err}");
        // The session survives and keeps working.
        let mut b = TraceBuilder::new();
        b.write(0, "x");
        d.feed(&b.finish()[0]).unwrap();
        assert_eq!(d.events(), 2);
    }

    /// Fork-disciplined churn: a coordinator forks `width` workers per
    /// wave, the workers race on `racy`, touch a lock-guarded shared
    /// variable, and read the coordinator's broadcast, then are all
    /// joined before the next wave starts.
    fn churn_trace(waves: u32, width: u32) -> tc_trace::Trace {
        let mut b = TraceBuilder::new();
        b.write(0, "bcast");
        let mut next = 1u32;
        for _ in 0..waves {
            let ids: Vec<u32> = (0..width)
                .map(|_| {
                    next += 1;
                    next - 1
                })
                .collect();
            for &u in &ids {
                b.fork(0, u);
            }
            for &u in &ids {
                b.read(u, "bcast");
                b.acquire(u, "m").write(u, "shared").release(u, "m");
                b.write(u, "racy");
            }
            for &u in &ids {
                b.join(0, u);
            }
            b.write(0, "bcast");
        }
        b.finish()
    }

    #[test]
    fn recycling_matches_direct_on_churn() {
        let trace = churn_trace(6, 4);
        for order in PartialOrderKind::ALL {
            let mut direct =
                IncrementalDetector::<TreeClock>::new(DetectorConfig::for_order(order));
            let mut recycled = IncrementalDetector::<TreeClock>::new(DetectorConfig {
                recycle_slots: true,
                ..DetectorConfig::for_order(order)
            });
            for e in &trace {
                let live_a: Vec<Race> = direct.feed(e).unwrap().to_vec();
                let live_b: Vec<Race> = recycled.feed(e).unwrap().to_vec();
                assert_eq!(live_a, live_b, "{order}: live races diverge at {e}");
                assert_eq!(
                    direct.timestamp_of(e.tid),
                    recycled.timestamp_of(e.tid),
                    "{order}: timestamps diverge at {e}"
                );
            }
            assert_eq!(direct.report(), recycled.report(), "{order}");
            assert!(recycled.recycled_slots() > 0, "{order}: no slot was reused");
            assert_eq!(recycled.total_threads(), 25, "{order}");
            assert_eq!(recycled.live_threads(), 1, "{order}");
            // 6 waves of 4 workers fit in one wave's worth of slots.
            assert!(
                recycled.slot_width() <= 6,
                "{order}: slot width {} is not O(live)",
                recycled.slot_width()
            );
            assert_eq!(direct.slot_width(), 25, "{order}");
        }
    }

    #[test]
    fn retired_and_recycled_externals_error_identically() {
        let config = DetectorConfig {
            recycle_slots: true,
            ..DetectorConfig::default()
        };
        let mut d = IncrementalDetector::<TreeClock>::new(config);
        let mut b = TraceBuilder::new();
        b.fork(0, 1).write(1, "x").join(0, 1);
        for e in &b.finish() {
            d.feed(e).unwrap();
        }
        // Retired but not yet reclaimed: the same error the direct path
        // raises, naming the external id.
        let mut b = TraceBuilder::new();
        b.write(1, "x");
        let err = d.feed(&b.finish()[0]).unwrap_err();
        assert!(
            matches!(err, FeedError::RetiredThread { thread, .. } if thread == ThreadId::new(1)),
            "{err}"
        );
        // Binding a fresh external reclaims thread 1's slot.
        let mut b = TraceBuilder::new();
        b.fork(0, 2).write(2, "x");
        for e in &b.finish() {
            d.feed(e).unwrap();
        }
        assert_eq!(d.recycled_slots(), 1);
        // Thread 1's slot now belongs to thread 2: still an error, with
        // the recycling-specific diagnosis.
        let mut b = TraceBuilder::new();
        b.write(1, "x");
        let before = d.events();
        let err = d.feed(&b.finish()[0]).unwrap_err();
        assert!(
            matches!(err, FeedError::RecycledThread { thread, .. } if thread == ThreadId::new(1)),
            "{err}"
        );
        assert!(err.to_string().contains("recycled"), "{err}");
        // The rejected event was not ingested; the session continues.
        assert_eq!(d.events(), before);
        let mut b = TraceBuilder::new();
        b.write(0, "y");
        d.feed(&b.finish()[0]).unwrap();
        // A fork *of* the stale external is rejected atomically too.
        let mut b = TraceBuilder::new();
        b.fork(0, 1);
        let err = d.feed(&b.finish()[0]).unwrap_err();
        assert!(matches!(err, FeedError::RecycledThread { .. }), "{err}");
    }

    #[test]
    fn recycling_keeps_peak_clock_bytes_bounded() {
        let wide = churn_trace(16, 4);
        let mut on = IncrementalDetector::<VectorClock>::new(DetectorConfig {
            recycle_slots: true,
            ..DetectorConfig::default()
        });
        let mut off = IncrementalDetector::<VectorClock>::new(DetectorConfig::default());
        for e in &wide {
            on.feed(e).unwrap();
            off.feed(e).unwrap();
        }
        assert_eq!(on.report(), off.report());
        // 65 externals squeeze into a handful of slots, so the vector
        // clocks stay narrow; the direct detector's grow with the total.
        assert!(
            on.peak_clock_bytes() * 2 < off.peak_clock_bytes(),
            "recycling peak {} vs direct peak {}",
            on.peak_clock_bytes(),
            off.peak_clock_bytes()
        );
    }

    #[test]
    fn recycling_bounds_the_slots_not_the_thread_ids() {
        use tc_trace::VarId;
        let t = ThreadId::new;
        let fork = |u: u32| Event::new(t(0), Op::Fork(t(u)));
        let join = |u: u32| Event::new(t(0), Op::Join(t(u)));
        let config = DetectorConfig {
            recycle_slots: true,
            ..DetectorConfig::default()
        };
        // Vector clocks keep the 4,096 live clocks to about 32 MiB.
        let mut d = IncrementalDetector::<VectorClock>::new(config);
        d.feed(&Event::new(t(0), Op::Write(VarId::new(0)))).unwrap();
        let children = 1_000_000..1_000_000 + MAX_THREAD_SLOTS as u32 - 1;
        for u in children.clone() {
            d.feed(&fork(u)).unwrap();
        }
        assert_eq!(d.slot_width(), MAX_THREAD_SLOTS);
        let refused = |d: &mut IncrementalDetector<VectorClock>| {
            let at = d.events();
            let err = d.feed(&fork(7)).unwrap_err();
            assert_eq!(err, FeedError::SlotLimit { thread: t(7), at });
            assert_eq!(d.events(), at);
            assert_eq!(d.slot_width(), MAX_THREAD_SLOTS);
        };
        refused(&mut d);
        // A joined thread's slot stays pending while other live clocks
        // know less of it than its final time.
        let first = children.start;
        d.feed(&Event::new(t(first), Op::Write(VarId::new(1))))
            .unwrap();
        d.feed(&join(first)).unwrap();
        refused(&mut d);
        // Once every other child is joined too, the slots are free.
        for u in children.skip(1) {
            d.feed(&join(u)).unwrap();
        }
        d.feed(&fork(7)).unwrap();
        assert_eq!(d.slot_width(), MAX_THREAD_SLOTS);
        assert_eq!(d.recycled_slots(), 1);
    }

    #[test]
    fn direct_thread_ids_past_the_slot_bound_are_refused() {
        let (t, bound) = (ThreadId::new, MAX_THREAD_SLOTS as u32);
        let mut d = IncrementalDetector::<TreeClock>::new(DetectorConfig::default());
        for op in [Op::Fork(t(bound)), Op::Join(t(u32::MAX - 1))] {
            let err = d.feed(&Event::new(t(0), op)).unwrap_err();
            assert!(matches!(err, FeedError::SlotLimit { at: 0, .. }), "{err}");
        }
        assert_eq!(d.clock_bytes(), 0);
        d.feed(&Event::new(t(0), Op::Fork(t(bound - 1)))).unwrap();
    }

    #[test]
    fn detector_orders_cover_shb_and_maz() {
        let mut b = TraceBuilder::new();
        b.write(0, "x").read(1, "x").write(1, "x");
        let trace = b.finish();
        let mut shb =
            IncrementalDetector::<TreeClock>::new(DetectorConfig::for_order(PartialOrderKind::Shb));
        let mut maz =
            IncrementalDetector::<TreeClock>::new(DetectorConfig::for_order(PartialOrderKind::Maz));
        for e in &trace {
            shb.feed(e).unwrap();
            maz.feed(e).unwrap();
        }
        // SHB: only the first w/r pair is schedulable; MAZ: the same
        // single reversible pair (w1 is transitively ordered).
        assert_eq!(shb.report().total, 1);
        assert_eq!(maz.report().total, 1);
    }
}
