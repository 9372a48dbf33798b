//! The [`LogicalClock`] abstraction shared by tree clocks and vector
//! clocks, plus per-operation work statistics.
//!
//! Partial-order algorithms (`tc-orders`) are written once, generically
//! over `C: LogicalClock`; instantiating `C = TreeClock` or
//! `C = VectorClock` reproduces the paper's "drop-in replacement"
//! comparison.

use std::fmt::Debug;
use std::ops::AddAssign;

use crate::{LocalTime, ThreadId, VectorTime};

/// Work performed by a single clock operation, in data-structure entries.
///
/// These counters drive the paper's Figure 8/9 metrics:
///
/// - `examined` — entries *read/compared* by the operation. For a vector
///   clock this is always the vector length; for a tree clock it is the
///   number of loop iterations in `getUpdatedNodesJoin`/`Copy` (the
///   light-gray nodes of Figures 4 and 5).
/// - `changed` — entries whose *value* changed. This is data-structure
///   independent (both representations change exactly the entries whose
///   pointwise maximum increased) and sums to the paper's `VTWork` lower
///   bound.
/// - `moved` — tree-clock nodes detached/re-attached (the dark-gray nodes,
///   i.e. the size of the stack `S`); always equals `changed` for vector
///   clocks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Entries read or compared by the operation.
    pub examined: u64,
    /// Entries whose represented vector-time value changed.
    pub changed: u64,
    /// Entries physically relocated/rewritten by the operation.
    pub moved: u64,
}

impl OpStats {
    /// Statistics for an operation that did no work at all.
    pub const NOOP: OpStats = OpStats {
        examined: 0,
        changed: 0,
        moved: 0,
    };

    /// Convenience constructor.
    pub const fn new(examined: u64, changed: u64, moved: u64) -> Self {
        OpStats {
            examined,
            changed,
            moved,
        }
    }
}

impl AddAssign for OpStats {
    fn add_assign(&mut self, rhs: Self) {
        self.examined += rhs.examined;
        self.changed += rhs.changed;
        self.moved += rhs.moved;
    }
}

/// How a [`LogicalClock::copy_check_monotone`] call was executed.
///
/// Tree clocks test monotonicity in O(1) and fall back to a deep copy
/// only when the copy is not monotone (Section 5.1: this happens exactly
/// when the last write races with a read, so it is rare in practice).
/// Vector clocks always perform the same flat Θ(k) copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CopyMode {
    /// The fast, sublinear monotone copy was used.
    Monotone,
    /// A full deep copy was required (or the representation is flat).
    Deep,
}

/// A logical clock: a mutable data structure representing one
/// [`VectorTime`], supporting the in-place operations of Section 2.2 of
/// the paper.
///
/// # Ownership discipline
///
/// Clocks come in two flavors with the same interface:
///
/// - *Thread clocks* are created with [`init_root`](Self::init_root) and
///   are the only clocks that may be [`increment`](Self::increment)ed.
/// - *Auxiliary clocks* (for locks, variables, …) start
///   [`is_empty`](Self::is_empty) and only ever receive copies/joins.
///
/// # Contract
///
/// [`join`](Self::join) and [`monotone_copy`](Self::monotone_copy) assume
/// they are used to compute a causal ordering, which implies two cheaply
/// checkable invariants that implementations validate (see the method
/// docs). Outside such usage, convert to [`VectorTime`] and operate on
/// values instead.
pub trait LogicalClock: Clone + Debug + Default {
    /// A short, human-readable name of the representation (`"tree"`,
    /// `"vector"`), used by benchmark reports.
    const NAME: &'static str;

    /// Creates an empty clock (every thread at time 0, no root).
    fn new() -> Self;

    /// Creates an empty clock with space reserved for `threads` threads.
    fn with_threads(threads: usize) -> Self;

    /// Turns an empty clock into the clock *owned by* thread `t`, at time
    /// 0 (the paper's `Init(t)`).
    ///
    /// # Panics
    ///
    /// Panics if the clock is not empty.
    fn init_root(&mut self, t: ThreadId);

    /// The thread this clock is rooted at, if any.
    fn root_tid(&self) -> Option<ThreadId>;

    /// Returns the local time recorded for thread `t` (0 if unknown).
    /// O(1) for both representations (Remark 1 of the paper).
    fn get(&self, t: ThreadId) -> LocalTime;

    /// Advances the owner thread's own entry by `amount` (the paper's
    /// `Increment(i)`).
    ///
    /// # Panics
    ///
    /// Panics if the clock has no root (was never
    /// [`init_root`](Self::init_root)ed).
    fn increment(&mut self, amount: LocalTime);

    /// Ordering test `self ⊑ other` (the paper's `LessThan`).
    ///
    /// For tree clocks this is the O(1) root-entry check, which is valid
    /// whenever both clocks participate in the same causal-ordering
    /// computation (Lemma 3, direct monotonicity). For arbitrary clock
    /// values use `vector_time().leq(..)` instead.
    fn leq(&self, other: &Self) -> bool;

    /// In-place join `self <- self ⊔ other`.
    ///
    /// This is the fast, uninstrumented variant used by timed runs; use
    /// [`join_counted`](Self::join_counted) to obtain per-entry work
    /// statistics (the instrumentation has a measurable cost — it
    /// prevents vectorizing the vector-clock loop, for instance). The
    /// two may differ in how they represent the result, never in its
    /// value: a tree clock's timed operations keep a dense clock flat,
    /// as times without links (see [`TreeClock`](crate::TreeClock)),
    /// while its counted ones run Algorithm 2 whenever both clocks are
    /// trees.
    ///
    /// # Panics
    ///
    /// Panics if `other` has progressed on `self`'s *own* (root) thread,
    /// i.e. `other.get(root) > self.get(root)` — in a causal ordering a
    /// thread is always the first to know its own time, so this indicates
    /// misuse.
    fn join(&mut self, other: &Self);

    /// [`join`](Self::join) with exact [`OpStats`] work accounting.
    fn join_counted(&mut self, other: &Self) -> OpStats;

    /// In-place copy `self <- other`, assuming `self ⊑ other` (the
    /// paper's `MonotoneCopy`). Fast variant; see
    /// [`monotone_copy_counted`](Self::monotone_copy_counted).
    ///
    /// # Panics
    ///
    /// Panics if the O(1)-checkable part of the precondition fails:
    /// `self.get(r) > other.get(r)` for `self`'s root thread `r`.
    fn monotone_copy(&mut self, other: &Self);

    /// [`monotone_copy`](Self::monotone_copy) with exact [`OpStats`]
    /// work accounting.
    fn monotone_copy_counted(&mut self, other: &Self) -> OpStats;

    /// In-place copy `self <- other` with no monotonicity assumption
    /// (the paper's `CopyCheckMonotone`, Section 5.1).
    ///
    /// Tree clocks test `self ⊑ other` in O(1) and use the sublinear
    /// monotone copy when possible, falling back to a linear deep copy;
    /// the returned [`CopyMode`] reports which path ran.
    fn copy_check_monotone(&mut self, other: &Self) -> CopyMode;

    /// [`copy_check_monotone`](Self::copy_check_monotone) with exact
    /// [`OpStats`] work accounting.
    fn copy_check_monotone_counted(&mut self, other: &Self) -> (CopyMode, OpStats);

    /// Extracts the represented vector timestamp as a value.
    fn vector_time(&self) -> VectorTime;

    /// Returns `true` if every entry is 0 and the clock has no root.
    fn is_empty(&self) -> bool;

    /// Number of thread slots currently allocated.
    fn num_threads(&self) -> usize;

    /// Resets the clock to the empty state (every thread at 0, no root)
    /// while keeping its allocated buffers, so a subsequent copy or join
    /// into it runs allocation-free. Cost is proportional to the
    /// information the clock holds (present entries), not its capacity.
    ///
    /// This is what [`ClockPool::release`](crate::pool::ClockPool::release)
    /// calls before free-listing a clock for reuse.
    fn clear(&mut self);

    /// Pre-sizes an empty clock so that entries for thread ids below
    /// `threads` can be stored without reallocating — the in-place
    /// equivalent of [`with_threads`](Self::with_threads), used when a
    /// recycled pool clock takes the role of a thread clock.
    fn reserve_threads(&mut self, threads: usize);

    /// Heap bytes currently owned by this clock's buffers (capacity, not
    /// length) — the quantity the engines' and detectors'
    /// `clock_bytes` sum.
    fn heap_bytes(&self) -> usize;

    /// Whether a timed copy from this clock shares its representation
    /// instead of copying it, so that a clone costs what a publication
    /// into an empty clock costs: true for a tree clock wider than its
    /// sharing width, false by default. A first publication from such
    /// a clock may materialize its destination as the clock's clone
    /// (see [`ClockTable::publication_target`](crate::ClockTable::publication_target)).
    fn copies_by_sharing(&self) -> bool {
        false
    }

    /// Restores an *empty* clock to the given value: entry `i` becomes
    /// `times[i]` (entries past the slice are 0) and the clock is rooted
    /// at `root` (un-rooted when `None`, in which case every time must
    /// be 0 — only empty clocks are rootless in a causal ordering).
    ///
    /// This is the checkpoint-restore entry point of the streaming
    /// subsystem: the representation is free to choose any internal
    /// shape for the value (the tree backend re-materializes the star
    /// shape), because all future *values* — and therefore all future
    /// reports — are determined by the restored value alone.
    ///
    /// # Panics
    ///
    /// Panics if the clock is not empty, or if `root` is `None` while
    /// some time is nonzero.
    fn restore_value(&mut self, times: &[LocalTime], root: Option<ThreadId>);

    /// Roots an *empty* clock at thread slot `t` with its own time
    /// already advanced to `base` — the slot-recycling form of
    /// [`init_root`](Self::init_root) used by the identity layer
    /// ([`IdentityMap`](crate::identity::IdentityMap)): a new occupant
    /// of a recycled slot adopts the slot at the previous occupant's
    /// final time, so slot times stay monotone across generations and
    /// every causal-ordering precondition (`join`/`monotone_copy` root
    /// checks) keeps holding on clocks that still carry the old
    /// generation's entries.
    ///
    /// # Panics
    ///
    /// Panics if the clock is not empty (via `init_root`).
    fn adopt_slot(&mut self, t: ThreadId, base: LocalTime) {
        self.init_root(t);
        if base > 0 {
            self.increment(base);
        }
    }

    /// Zeroes the entry of thread slot `t`, preserving the clock's
    /// value for every other slot and its root (re-rooting at time 0
    /// when `t` *is* the root). This is the residual-excision hook of
    /// the identity layer: under base-offset recycling stale entries
    /// are value-harmless and nothing on the hot path calls this, but
    /// the hook documents — and tests enforce — that every backend can
    /// scrub a recycled slot if a future policy wants the bytes back.
    ///
    /// The default rebuilds the clock from its vector-time value;
    /// backends with a cheap in-place path may override.
    fn clear_slot(&mut self, t: ThreadId) {
        let root = self.root_tid();
        let mut times = self.vector_time().into_inner();
        if t.index() < times.len() {
            times[t.index()] = 0;
        }
        self.clear();
        if root.is_some() || times.iter().any(|&v| v > 0) {
            self.restore_value(&times, root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stats_accumulate() {
        let mut a = OpStats::new(3, 1, 1);
        a += OpStats::new(2, 2, 0);
        assert_eq!(a, OpStats::new(5, 3, 1));
        assert_eq!(OpStats::NOOP, OpStats::default());
    }

    #[test]
    fn copy_mode_is_comparable() {
        assert_ne!(CopyMode::Monotone, CopyMode::Deep);
    }

    fn adopt_slot_behaves_like_init_plus_increment<C: LogicalClock>() {
        let t2 = ThreadId::new(2);
        let mut adopted = C::new();
        adopted.adopt_slot(t2, 7);
        let mut manual = C::new();
        manual.init_root(t2);
        manual.increment(7);
        assert_eq!(adopted.vector_time(), manual.vector_time());
        assert_eq!(adopted.root_tid(), Some(t2));
        assert_eq!(adopted.get(t2), 7);
        // base 0 is exactly init_root.
        let mut zero = C::new();
        zero.adopt_slot(ThreadId::new(0), 0);
        assert_eq!(zero.get(ThreadId::new(0)), 0);
        assert_eq!(zero.root_tid(), Some(ThreadId::new(0)));
    }

    fn clear_slot_excises_one_entry<C: LogicalClock>() {
        let t0 = ThreadId::new(0);
        let t1 = ThreadId::new(1);
        let t3 = ThreadId::new(3);
        let mut c = C::new();
        c.init_root(t1);
        c.increment(5);
        let mut other = C::new();
        other.adopt_slot(t3, 9);
        c.join(&other);
        assert_eq!(c.get(t3), 9);
        c.clear_slot(t3);
        assert_eq!(c.get(t3), 0);
        assert_eq!(c.get(t1), 5);
        assert_eq!(c.root_tid(), Some(t1));
        // Clearing an absent slot is a no-op.
        c.clear_slot(ThreadId::new(17));
        assert_eq!(c.get(t1), 5);
        // Clearing the root keeps the clock rooted, at time 0.
        c.clear_slot(t1);
        assert_eq!(c.get(t1), 0);
        assert_eq!(c.root_tid(), Some(t1));
        // And an empty clock stays empty.
        let mut empty = C::new();
        empty.clear_slot(t0);
        assert!(empty.is_empty());
    }

    #[test]
    fn adopt_slot_matches_on_every_backend() {
        adopt_slot_behaves_like_init_plus_increment::<crate::VectorClock>();
        adopt_slot_behaves_like_init_plus_increment::<crate::TreeClock>();
    }

    #[test]
    fn clear_slot_matches_on_every_backend() {
        clear_slot_excises_one_entry::<crate::VectorClock>();
        clear_slot_excises_one_entry::<crate::TreeClock>();
    }
}
