//! The adaptive flat/tree hybrid clock — a [`LogicalClock`] backend that
//! *is* a flat array while the workload is dense and re-materializes
//! tree links when it turns sparse.
//!
//! # Why a hybrid?
//!
//! The tree clock wins by transferring only the entries that changed;
//! the vector clock wins by being a branchless, vectorizable array
//! sweep. Which one is faster is a property of the *workload*, not the
//! program: dense communication (single-lock joins, pairwise copies —
//! tens to hundreds of entries moving per operation) favors SIMD over
//! pointer chasing by an order of magnitude, while sparse communication
//! at high thread counts (star topologies: one or two entries per
//! operation) favors the tree's sublinear surgery. A [`HybridClock`]
//! holds one of two concrete representations —
//!
//! - **Flat** — a plain dense `Vec<LocalTime>` with vectorizable
//!   join/copy loops and *no* link maintenance at all, plus the owner
//!   thread id (so `leq`, `increment` and the O(1) monotone-copy check
//!   keep working);
//! - **Tree** — the full [`TreeClock`] running Algorithm 2 —
//!
//! and migrates between them based on an observed **density window**.
//!
//! # The density window
//!
//! Every operation contributes an observation `(touched, arena)`:
//! entries surgically moved (tree mode) or changed (flat mode), against
//! the arena size. Two attribution rules matter:
//!
//! - **Joins observe on the destination** (the thread clock doing the
//!   join pays the join's cost in its own representation).
//! - **Copies observe on the source**, because a copied-into clock
//!   (a lock's clock, a last-write clock) *adopts its source's
//!   representation* — so the publishing thread's representation is
//!   what determines every downstream copy's cost. Auxiliary clocks are
//!   often too short-lived to learn anything themselves (a pairwise
//!   lock sees two operations in its whole life); the thread clock is
//!   the long-lived window carrier.
//!
//! Destination-side observations flow through plain `&mut` paths — no
//! interior mutability at all. The copy-*source* hook is the one place
//! a shared reference must record an observation; it funnels into a
//! single packed [`AtomicU64`] (relaxed load/store — a hybrid clock is
//! owned by exactly one engine at a time, the atomic only legalizes
//! the shared-reference write), and the verdict/score/flip bookkeeping
//! it feeds is *deferred* to the clock's next `&mut` entry point
//! (`HybridClock::state_for_mut`, reached on every `increment`).
//! That split is what makes the whole clock `Send` *and* `Sync`: every
//! engine, detector and service session built on it becomes a movable
//! value a work-stealing scheduler can bounce between threads.
//!
//! Observations accumulate over a window of `WINDOW_OPS` operations
//! and the aggregate is judged dense when at least an eighth of the
//! arena moved per operation — a tree-ward margin on the measured cost
//! crossover (on a 2-core x86 box a flat sweep costs about 0.5 ns per
//! slot at 360 entries, and the surgical walk 40–55 ns per moved entry
//! on the cold shapes of the 360-thread Fig. 10 traces). Aggregating
//! over a window is what lets mixed profiles resolve correctly: in
//! single-lock workloads the joins are dense and the copies are not; in
//! pairwise workloads the copies are dense and the joins are not; in
//! both cases the *sum* is far past the threshold, and in star
//! workloads it is far below. A hysteresis score over window verdicts
//! (`HYSTERESIS` consecutive net agreements required) keeps a
//! borderline workload from thrashing. Copies into value-empty clocks
//! *are* observed (as the transferred present-entry count): dense
//! first publications through fresh lock clocks are precisely the
//! pairwise-regime signal that must push a publishing thread toward
//! flat. A wide tree clock's timed copy shares its tree instead of
//! writing it (copy-on-write, see [`TreeClock`]) and moves nothing, so
//! a sampled copy from one is observed as the entries it changes,
//! counted with a flat sweep before the copy. The sharing moves the
//! cost of a dense publication to the publisher's next join, which
//! copies the shared tree, so the signal still stands. (A star hub's
//! first spoke-lock publications are a few-hundred-op transient among
//! its hundred thousand sparse operations, far too rare to saturate
//! the hysteresis.) Only the join-into-empty clone is unobserved.
//!
//! While flat, the uncounted join is a pure pointwise-maximum sweep;
//! every `PROBE_PERIOD`-th join (and copy-from-self) runs a
//! *branchless* counting sweep instead to keep the window fed — so a
//! workload turning sparse flips the clock back to tree, with an
//! O(present) star re-materialization (a flat [`TreeClock`] turning
//! back into a tree produces the same shape, sound for both
//! monotonicity principles). Since the tree backend keeps its own flat
//! shape, the inner tree of a tree-mode hybrid may itself be flat.
//!
//! # The dense cutoff
//!
//! Arenas at or below the **dense cutoff** of 128 entries are judged
//! dense regardless of the moved fraction: a flat sweep over a small
//! arena costs a few nanoseconds — cheaper than any surgical walk — so
//! small clocks settle flat even in nominally sparse regimes; the
//! measured flat-sweep advantage persists to ~128-entry arenas. The
//! cutoff only moves the performance crossover — computed *values* are
//! representation independent, which the conformance sweep enforces.
//!
//! # Accounting
//!
//! `changed`-entry accounting is exact in both modes (flat counting
//! loops mirror [`VectorClock`](crate::VectorClock), tree mode runs the
//! instrumented Algorithm 2), so the `VTWork` metric remains
//! representation independent across all three backends — the
//! conformance harness checks this on every corpus trace. `examined`
//! honestly reflects whichever representation did the work, so a hybrid
//! run's `ds_work` lands between the tree's and the vector's and is
//! *not* subject to the Theorem 1 bound (that bound is a property of
//! Algorithm 2, which the [`TreeClock`] backend keeps measuring
//! verbatim).
//!
//! # Example
//!
//! ```rust
//! use tc_core::{HybridClock, LogicalClock, ThreadId};
//!
//! let mut a = HybridClock::new();
//! a.init_root(ThreadId::new(0));
//! a.increment(3);
//!
//! let mut b = HybridClock::new();
//! b.init_root(ThreadId::new(1));
//! b.increment(5);
//!
//! a.join(&b);
//! assert_eq!(a.get(ThreadId::new(1)), 5);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::clock::{CopyMode, LogicalClock, OpStats};
use crate::tree_clock::{count_diffs, Times, TreeClock};
use crate::{LocalTime, ThreadId, VectorTime};

/// Operations aggregated per density-window verdict. Small enough
/// that a thread clock living only a few dozen operations (short
/// traces, pool-recycled engine lives) still completes several
/// verdicts; the aggregate over even 4 observations already averages
/// out mixed join/copy profiles.
const WINDOW_OPS: u8 = 4;

/// Consecutive net window verdicts required to migrate — the
/// hysteresis band. A workload must look dense (resp. sparse) for this
/// many windows *more* than it looked the other way before the
/// representation flips.
const HYSTERESIS: i8 = 2;

/// In flat mode, only every `PROBE_PERIOD`-th uncounted join (and
/// copy published from this clock) runs the counting sweep that feeds
/// the window; the rest are pure maximum/memcpy sweeps.
const PROBE_PERIOD: u8 = 16;

/// In tree mode the per-op moved counts are free, but the window
/// bookkeeping itself (accumulator update, arena reads) is not — and
/// sparse-regime tree operations are so cheap (~10 ns) that observing
/// every one costs a measurable fraction. Only every
/// `TREE_OBS_PERIOD`-th operation is observed; the skip itself is one
/// counter decrement. 4 rather than 2: on a star-360 A/B the sparser
/// sampling shaved observation overhead with no measurable loss of
/// migration responsiveness.
const TREE_OBS_PERIOD: u8 = 4;

/// The dense cutoff, in arena entries (see the module docs).
const DENSE_CUTOFF: u64 = 128;

/// Aggregate verdict over a window of `ops` observations: dense when
/// the arena is flat-cheap outright (the *per-operation* arena is at
/// most [`DENSE_CUTOFF`] entries — the sums are compared, so the cutoff
/// scales by the op count) or at least an eighth of it moved per
/// operation (see the module docs for the cost-crossover rationale).
#[inline]
fn is_dense(touched: u64, arena: u64, ops: u64) -> bool {
    arena <= DENSE_CUTOFF.saturating_mul(ops.max(1)) || touched.saturating_mul(8) >= arena
}

/// Bit 0 of [`HybridClock::state`]: the flat representation is live.
const ST_FLAT: u8 = 1;
/// Bit 1 of the state word: a tree→flat migration is pending.
const ST_FLIP_TO_FLAT: u8 = 1 << 1;
/// Bit 2 of the state word: a flat→tree migration is pending.
const ST_FLIP_TO_TREE: u8 = 1 << 2;
/// Both pending-flip bits of the state word.
const ST_FLIP_MASK: u8 = ST_FLIP_TO_FLAT | ST_FLIP_TO_TREE;

/// The represented time at `idx` in a dense slice (0 past the end).
#[inline]
fn time_at(times: &[LocalTime], idx: u32) -> LocalTime {
    times.get(idx as usize).copied().unwrap_or(0)
}

// ---- the shared observation word ------------------------------------
//
// Copy *sources* observe through `&self`, so their contribution funnels
// into one packed atomic word (everything destination-side is plain
// `&mut` state). Layout:
//
//   bits  0–26  summed moved/changed entries
//   bits 27–53  summed arena slots
//   bits 54–56  operation count (saturates at 7; WINDOW_OPS is 4)
//   bits 57–61  copy-probe countdown
//
// 27-bit sums over ≤7 ops capped at 2²⁴ slots each cannot overflow
// their field, and the op count saturating at 7 protects the probe
// bits. All accesses are `Ordering::Relaxed` loads and stores — a
// hybrid clock is owned by exactly one engine at any moment (enforced
// by the service's session checkout); the atomic exists to make the
// shared-reference hook legal, not to synchronize concurrent writers.

/// Field mask for the moved and arena sums of the shared word.
const SH_FIELD: u64 = (1 << 27) - 1;
/// Bit offset of the arena sum.
const SH_ARENA: u32 = 27;
/// Bit offset and mask of the op count.
const SH_OPS: u32 = 54;
const SH_OPS_MASK: u64 = 0x7;
/// One operation, pre-shifted.
const SH_OP_ONE: u64 = 1 << SH_OPS;
/// Bit offset and mask of the copy-probe countdown.
const SH_PROBE: u32 = 57;
const SH_PROBE_MASK: u64 = 0x1f;
/// Per-operation contribution cap for either sum.
const SH_CAP: u64 = 1 << 24;

/// Packs one observation into `word` (pure; the caller stores it).
#[inline]
fn pack_obs(word: u64, touched: u64, arena: u64) -> u64 {
    word + SH_OP_ONE + (arena.min(SH_CAP) << SH_ARENA) + touched.min(SH_CAP)
}

/// The op count currently packed in `word`.
#[inline]
fn packed_ops(word: u64) -> u64 {
    (word >> SH_OPS) & SH_OPS_MASK
}

/// The density window: the packed shared observation word plus the
/// plain `&mut`-path bookkeeping (hysteresis score, flat-join probe).
#[derive(Debug, Default)]
struct DensityWindow {
    /// The packed shared word (see the layout above) — the single
    /// atomic in the whole clock, fed by the copy-source hook through
    /// `&self` and harvested on the next `&mut` entry point.
    shared: AtomicU64,
    /// Hysteresis accumulator over window verdicts, in
    /// `[-HYSTERESIS, HYSTERESIS]`. Plain field: only `&mut` paths
    /// judge windows.
    score: i8,
    /// Flat mode: uncounted joins until the next counting probe
    /// (plain field: join destinations are `&mut`).
    join_probe: u8,
}

impl Clone for DensityWindow {
    fn clone(&self) -> Self {
        DensityWindow {
            shared: AtomicU64::new(self.shared.load(Ordering::Relaxed)),
            score: self.score,
            join_probe: self.join_probe,
        }
    }
}

impl DensityWindow {
    /// The recycling reset: discards the partial window and probe
    /// countdowns, but *keeps the hysteresis score* — a pooled clock
    /// re-entering the same workload (the next benchmark repetition,
    /// the next case of a sweep) resumes learning where it left off
    /// instead of starting the hysteresis climb from zero. On a short
    /// trace a thread clock may see too few operations to saturate in
    /// a single life; carrying the score across lives is what lets it
    /// converge anyway — and a clock recycled into a different-density
    /// role walks the score back within one hysteresis period.
    fn reset_for_recycle(&mut self) {
        *self.shared.get_mut() = 0;
        self.join_probe = 0;
    }
}

/// An adaptive clock holding either a flat array or a [`TreeClock`],
/// migrating on observed operation density. See the [module
/// docs](self).
#[derive(Clone, Default)]
pub struct HybridClock {
    /// The tree representation — authoritative unless the state word's
    /// [`ST_FLAT`] bit is set; kept (empty, buffers warm) while flat so
    /// a dense→sparse flip allocates nothing.
    tree: TreeClock,
    /// The flat representation — authoritative while [`ST_FLAT`] is
    /// set; kept (length 0, capacity warm) while the tree is live.
    flat: Vec<LocalTime>,
    /// The owner (root) thread while *flat* (the tree knows its own
    /// root; keeping a mirror in tree mode would cost a store on every
    /// join/copy for nothing). Read through
    /// [`root_of`](Self::root_of), which picks the live source.
    root: Option<ThreadId>,
    /// The packed state word: bit 0 ([`ST_FLAT`]) says which
    /// representation is live, bits 1–2 ([`ST_FLIP_MASK`]) hold a
    /// pending migration request. A plain field: flips are only ever
    /// requested and executed on `&mut` paths (shared-hook
    /// observations defer their verdict to the next `&mut` entry).
    state: u8,
    /// Tree-mode joins to skip before the next window observation.
    obs_skip: u8,
    /// The density window driving migration.
    window: DensityWindow,
    /// Tree→flat migrations performed (diagnostics/tests).
    flips_to_flat: u32,
    /// Flat→tree migrations performed (diagnostics/tests).
    flips_to_tree: u32,
}

impl HybridClock {
    /// Creates an empty hybrid clock (tree representation).
    pub fn new() -> Self {
        HybridClock::default()
    }

    /// `true` while the flat (dense) representation is live.
    pub fn is_flat(&self) -> bool {
        self.state & ST_FLAT != 0
    }

    /// Internal shorthand for the mode bit of the state word.
    #[inline]
    fn flat(&self) -> bool {
        self.state & ST_FLAT != 0
    }

    /// Number of (tree→flat, flat→tree) migrations this clock has
    /// performed — the quantity the hysteresis tests bound.
    pub fn flips(&self) -> (u32, u32) {
        (self.flips_to_flat, self.flips_to_tree)
    }

    /// The live representation's name (`"flat"` or `"tree"`).
    pub fn repr_name(&self) -> &'static str {
        if self.flat() {
            "flat"
        } else {
            "tree"
        }
    }

    /// The represented time at raw index `i`, whichever representation
    /// is live.
    #[inline]
    fn value_at(&self, i: u32) -> LocalTime {
        if self.flat() {
            time_at(&self.flat, i)
        } else {
            self.tree.get_idx(i)
        }
    }

    /// The dense value of the live representation.
    #[inline]
    fn values(&self) -> Times<'_> {
        if self.flat() {
            Times::flat(&self.flat)
        } else {
            self.tree.times()
        }
    }

    /// The owner thread, from whichever representation is live.
    #[inline]
    fn root_of(&self) -> Option<ThreadId> {
        if self.flat() {
            self.root
        } else {
            self.tree.root_tid()
        }
    }

    /// O(1) emptiness screen: a flat clock without an owner has never
    /// been published into (values only arrive through rooted sources),
    /// a tree clock is empty iff it has no root.
    #[inline]
    fn fast_empty(&self) -> bool {
        if self.flat() {
            self.root.is_none()
        } else {
            self.tree.is_empty()
        }
    }

    // ---- density window ----------------------------------------------

    /// Feeds one destination-side observation (`touched` entries
    /// against `arena` slots) into the window — a plain `&mut` path:
    /// accumulate, and judge the window immediately once it is full.
    fn observe_mut(&mut self, touched: u64, arena: u64) {
        let w = self.window.shared.get_mut();
        *w = pack_obs(*w, touched, arena);
        if packed_ops(*w) >= u64::from(WINDOW_OPS) {
            self.harvest();
        }
    }

    /// The copy-*source* hook: the one observation that arrives
    /// through a shared reference. A single packed relaxed
    /// load-add-store; the verdict is deferred to the next `&mut`
    /// entry point ([`state_for_mut`](Self::state_for_mut)). Saturates
    /// at 7 pending ops (further shared observations are dropped until
    /// harvested — they are probe-sampled anyway).
    fn observe_shared(&self, touched: u64, arena: u64) {
        let cur = self.window.shared.load(Ordering::Relaxed);
        if packed_ops(cur) < SH_OPS_MASK {
            self.window
                .shared
                .store(pack_obs(cur, touched, arena), Ordering::Relaxed);
        }
    }

    /// Ticks the copy-probe countdown through `&self` (relaxed
    /// load/store on the shared word). Returns `true` when the probe
    /// fires, re-arming it to `reset`.
    fn copy_probe_tick(&self, reset: u8) -> bool {
        let cur = self.window.shared.load(Ordering::Relaxed);
        let probe = (cur >> SH_PROBE) & SH_PROBE_MASK;
        let next = if probe == 0 {
            (cur & !(SH_PROBE_MASK << SH_PROBE)) | (u64::from(reset) << SH_PROBE)
        } else {
            cur - (1 << SH_PROBE)
        };
        self.window.shared.store(next, Ordering::Relaxed);
        probe == 0
    }

    /// Judges the completed window: resets the accumulator (keeping
    /// the probe countdown), walks the hysteresis score, and requests
    /// a representation flip by setting a pending state bit once the
    /// score saturates. Always on a `&mut` path.
    fn harvest(&mut self) {
        let w = self.window.shared.get_mut();
        let acc = *w;
        *w = acc & (SH_PROBE_MASK << SH_PROBE);
        let dense = is_dense(
            acc & SH_FIELD,
            (acc >> SH_ARENA) & SH_FIELD,
            packed_ops(acc),
        );
        let mut score = self.window.score;
        if dense {
            score = (score + 1).min(HYSTERESIS);
            if score >= HYSTERESIS && self.state & ST_FLAT == 0 {
                self.state |= ST_FLIP_TO_FLAT;
                score = 0;
            }
        } else {
            score = (score - 1).max(-HYSTERESIS);
            if score <= -HYSTERESIS && self.state & ST_FLAT != 0 {
                self.state |= ST_FLIP_TO_TREE;
                score = 0;
            }
        }
        self.window.score = score;
    }

    /// The hot-path state read: harvests a full window left behind by
    /// shared-reference observations, executes a pending
    /// representation flip, and returns the state word. Called from
    /// `increment`, the one guaranteed `&mut` touch per engine event
    /// (which keeps verdicts and flips prompt even when the saturating
    /// observation came from a copy through `&self`).
    #[inline]
    fn state_for_mut(&mut self) -> u8 {
        if packed_ops(*self.window.shared.get_mut()) >= u64::from(WINDOW_OPS) {
            self.harvest();
        }
        if self.state & ST_FLIP_MASK == 0 {
            return self.state;
        }
        self.execute_flip()
    }

    /// The out-of-line flip executor: clears the pending bits and
    /// performs the migration the window requested.
    #[cold]
    fn execute_flip(&mut self) -> u8 {
        let s = self.state;
        self.state = s & !ST_FLIP_MASK;
        if s & ST_FLIP_TO_FLAT != 0 && s & ST_FLAT == 0 {
            self.flip_to_flat();
        } else if s & ST_FLIP_TO_TREE != 0 && s & ST_FLAT != 0 && self.root.is_some() {
            self.flip_to_tree();
        }
        self.state
    }

    /// Tree→flat: the values *are* the tree's dense times array; the
    /// links are simply dropped (O(present) teardown). The tree keeps
    /// its arena buffers for the flip back.
    fn flip_to_flat(&mut self) {
        self.root = self.tree.root_tid();
        self.tree.times().write_into(&mut self.flat);
        self.tree.clear();
        self.state |= ST_FLAT;
        self.window.join_probe = 0;
        *self.window.shared.get_mut() &= !(SH_PROBE_MASK << SH_PROBE);
        self.flips_to_flat += 1;
    }

    /// Flat→tree: re-materializes the tree as the star shape (every
    /// known thread directly under the root at the root's current time
    /// — link work O(present); see [`TreeClock::adopt_flat`]). A
    /// rootless clock stays flat: there is no thread to hang the star
    /// under (never the case for the thread clocks that carry windows).
    fn flip_to_tree(&mut self) {
        let Some(r) = self.root else {
            return;
        };
        self.tree.adopt_flat(&self.flat, r.raw());
        self.flat.clear();
        self.state &= !ST_FLAT;
        self.flips_to_tree += 1;
    }

    // ---- join --------------------------------------------------------

    #[inline]
    fn join_dispatch<const COUNT: bool>(&mut self, other: &Self) -> OpStats {
        match (self.flat(), other.flat()) {
            (false, false) => {
                let s = self.tree.join_impl::<COUNT>(&other.tree);
                if self.obs_skip > 0 {
                    self.obs_skip -= 1;
                } else {
                    // The uncounted tree join reports its surgically
                    // moved entry count in `moved` (and nothing else)
                    // — exactly the density observation; the counted
                    // join's `moved` is the same quantity, measured by
                    // Algorithm 2.
                    self.obs_skip = TREE_OBS_PERIOD - 1;
                    let arena = self.tree.num_threads().max(other.tree.num_threads()) as u64;
                    self.observe_mut(s.moved, arena);
                }
                if COUNT {
                    s
                } else {
                    OpStats::NOOP
                }
            }
            (false, true) => self.tree_join_flat::<COUNT>(other),
            (true, _) => self.flat_join_slice_src::<COUNT>(other.values()),
        }
    }

    /// Tree destination ⊔ flat source: the inner tree hangs each entry
    /// the source progressed under its root (a flat inner tree sweeps
    /// the source instead).
    fn tree_join_flat<const COUNT: bool>(&mut self, other: &Self) -> OpStats {
        let Some(or) = other.root else {
            // A rootless flat clock is empty by construction (values
            // only ever arrive through rooted sources): no-op join.
            debug_assert!(other.flat.iter().all(|&t| t == 0));
            return OpStats::NOOP;
        };
        let src = &other.flat;
        let Some(z) = self.tree.root_idx() else {
            // Join into an empty clock: an exact copy, root included
            // (not observed: repr-neutral bulk transfer).
            let mut stats = OpStats::NOOP;
            if COUNT {
                for &t in src {
                    stats.examined += 1;
                    if t != 0 {
                        stats.changed += 1;
                        stats.moved += 1;
                    }
                }
            }
            self.tree.adopt_flat(src, or.raw());
            return stats;
        };
        assert!(
            time_at(src, z) <= self.tree.get_idx(z),
            "HybridClock::join: `other` has progressed on self's root thread {} — \
             this cannot happen in a causal ordering (misuse of the clock)",
            ThreadId::new(z),
        );
        let arena = self.tree.num_threads().max(src.len()) as u64;
        if time_at(src, or.raw()) <= self.tree.get_idx(or.raw()) {
            // Source root has not progressed: nothing new (direct
            // monotonicity) — same O(1) screen the tree join applies.
            let mut stats = OpStats::NOOP;
            if COUNT {
                stats.examined = 1;
            }
            self.observe_mut(0, arena);
            return stats;
        }
        // Counted on both paths: the exact `changed` is the density
        // observation, and the counted join never changes the inner
        // tree's shape.
        let changed = self
            .tree
            .join_dense::<true>(Times::flat(src), z, usize::MAX)
            .changed;
        self.observe_mut(changed, arena);
        if COUNT {
            OpStats {
                examined: src.len() as u64,
                changed,
                moved: changed,
            }
        } else {
            OpStats::NOOP
        }
    }

    /// Flat destination ⊔ any source (presented as a dense value): the
    /// vectorizable pointwise maximum. The uncounted path counts
    /// nothing on most joins and runs a branchless counting sweep every
    /// [`PROBE_PERIOD`]-th call to feed the density window.
    fn flat_join_slice_src<const COUNT: bool>(&mut self, src: Times<'_>) -> OpStats {
        if let Some(r) = self.root {
            assert!(
                src.get(r.raw()) <= time_at(&self.flat, r.raw()),
                "HybridClock::join: `other` has progressed on self's root thread {r} — \
                 this cannot happen in a causal ordering (misuse of the clock)",
            );
        }
        if src.slice.len() > self.flat.len() {
            self.flat.resize(src.slice.len(), 0);
        }
        // A tree source's root entry may lag its root time: take the
        // root time first, so the sweeps below see that entry settled.
        let mut root_changed = 0u64;
        if let Some((r, t)) = src.root_entry() {
            let mine = &mut self.flat[r as usize];
            root_changed = u64::from(t > *mine);
            *mine = (*mine).max(t);
        }
        let src = src.slice;
        let arena = self.flat.len() as u64;
        if COUNT {
            let mut stats = OpStats::new(0, root_changed, root_changed);
            for (mine, &theirs) in self.flat.iter_mut().zip(src.iter()) {
                stats.examined += 1;
                let progressed = theirs > *mine;
                *mine = (*mine).max(theirs);
                stats.changed += u64::from(progressed);
                stats.moved += u64::from(progressed);
            }
            self.observe_mut(stats.changed, arena);
            return stats;
        }
        if self.window.join_probe == 0 {
            // Density probe: a branchless counting sweep (compare +
            // max + widen-accumulate, vectorized like the plain sweep;
            // a branchy `if` here would mispredict on every other
            // entry in the dense regime), feeding the window so a
            // workload turning sparse flips back to tree.
            let mut changed = root_changed;
            for (mine, &theirs) in self.flat.iter_mut().zip(src.iter()) {
                changed += u64::from(theirs > *mine);
                *mine = (*mine).max(theirs);
            }
            self.window.join_probe = PROBE_PERIOD - 1;
            self.observe_mut(changed, arena);
        } else {
            self.window.join_probe -= 1;
            // The pure sweep: branchless max the compiler vectorizes —
            // the whole point of the flat regime.
            for (mine, &theirs) in self.flat.iter_mut().zip(src.iter()) {
                *mine = (*mine).max(theirs);
            }
        }
        OpStats::NOOP
    }

    // ---- copy --------------------------------------------------------

    /// Makes `self` represent exactly `other`'s value, adopting
    /// `other`'s representation (a copied-into clock mirrors its
    /// source: lock and last-write clocks follow their publishing
    /// thread's regime, which is what makes the publishing thread's
    /// window the right owner of the copy observation). `monotone`
    /// selects the surgical tree copy on the tree×tree path; the
    /// wholesale flat paths are identical either way. Returns exact
    /// [`OpStats`] when `COUNT`: `changed` compares against `self`'s
    /// *old* value, whichever representation held it.
    #[inline]
    fn perform_copy<const COUNT: bool>(&mut self, other: &Self, monotone: bool) -> OpStats {
        if !self.flat() && !other.flat() {
            if !monotone {
                return self.tree.clone_structure_from::<COUNT>(&other.tree);
            }
            // The surgical copy's moved count (transferred present
            // entries, for a first copy into an empty clock) is the
            // observation — attributed to the *source* (see the module
            // docs), sampled at the source's observation period through
            // its shared probe. A timed copy from a wide tree shares it
            // and moves nothing, so a sampled one is judged instead on
            // the entries it changes, counted before they are replaced.
            let probe = other.copy_probe_tick(TREE_OBS_PERIOD - 1);
            let shares = probe && !COUNT && other.tree.copies_by_sharing();
            let changed = if shares {
                count_diffs(self.values(), other.values())
            } else {
                0
            };
            let s = self.tree.monotone_copy_impl::<COUNT>(&other.tree);
            if probe {
                let arena = self.num_threads().max(other.num_threads()) as u64;
                other.observe_shared(if shares { changed } else { s.moved }, arena);
            }
            return s;
        }
        let arena = self.num_threads().max(other.num_threads()) as u64;
        if other.flat() {
            // Destination becomes flat: a wholesale array copy.
            let src = &other.flat;
            let mut stats = OpStats::NOOP;
            if COUNT {
                let changed = count_diffs(self.values(), Times::flat(src));
                stats.examined = (self.num_threads().max(src.len())) as u64;
                stats.changed = changed;
                stats.moved = changed;
                other.observe_shared(changed, arena);
            } else {
                // Probe the copy density on the source's window.
                if other.copy_probe_tick(PROBE_PERIOD - 1) {
                    other.observe_shared(count_diffs(self.values(), Times::flat(src)), arena);
                }
            }
            if !self.flat() {
                self.tree.clear();
                self.state |= ST_FLAT;
            }
            self.flat.clear();
            self.flat.extend_from_slice(src);
            self.root = other.root;
            return stats;
        }
        // Flat destination becomes a tree replica of the source — the
        // transitional path while regimes disagree; the wholesale
        // rebuild is O(k + present) and the diff count rides along.
        let changed = count_diffs(Times::flat(&self.flat), other.tree.times());
        other.observe_shared(changed, arena);
        self.flat.clear();
        self.state &= !ST_FLAT;
        if !self.tree.is_empty() {
            self.tree.clear();
        }
        self.tree.clone_structure_from::<false>(&other.tree);
        if COUNT {
            OpStats {
                examined: arena,
                changed,
                moved: changed,
            }
        } else {
            OpStats::NOOP
        }
    }

    #[inline]
    fn copy_dispatch<const COUNT: bool>(&mut self, other: &Self) -> OpStats {
        if !self.flat() && !other.flat() {
            // The tree×tree fast path: the inner implementation
            // performs the same precondition and empty-source checks,
            // so the hybrid layer adds nothing but the observation.
            return self.perform_copy::<COUNT>(other, true);
        }
        if let Some(r) = self.root_of() {
            assert!(
                self.value_at(r.raw()) <= other.value_at(r.raw()),
                "HybridClock::monotone_copy: self ⋢ other on self's root thread {r} — \
                 use copy_check_monotone for unordered copies",
            );
        }
        if other.fast_empty() && other.values().is_zero() {
            // Copying an empty clock: only valid into an empty clock
            // (mirrors TreeClock::monotone_copy).
            assert!(
                self.is_empty(),
                "HybridClock::monotone_copy: copying an empty clock into a non-empty \
                 one violates the precondition self ⊑ other"
            );
            return OpStats::NOOP;
        }
        self.perform_copy::<COUNT>(other, true)
    }

    /// The shared `CopyCheckMonotone` logic: an O(1) ordering test, then
    /// either the monotone copy or a deep replacement.
    fn copy_check_dispatch<const COUNT: bool>(&mut self, other: &Self) -> (CopyMode, OpStats) {
        let monotone = self.leq(other);
        if other.fast_empty() && other.values().is_zero() {
            if self.is_empty() {
                return (CopyMode::Monotone, OpStats::NOOP);
            }
            // Deep-copying an empty value: become empty.
            let stats = self.perform_copy::<COUNT>(other, false);
            return (CopyMode::Deep, stats);
        }
        let stats = self.perform_copy::<COUNT>(other, monotone);
        (
            if monotone {
                CopyMode::Monotone
            } else {
                CopyMode::Deep
            },
            stats,
        )
    }
}

impl LogicalClock for HybridClock {
    const NAME: &'static str = "hybrid";

    fn new() -> Self {
        HybridClock::default()
    }

    fn with_threads(threads: usize) -> Self {
        HybridClock {
            tree: TreeClock::with_threads(threads),
            ..HybridClock::default()
        }
    }

    fn init_root(&mut self, t: ThreadId) {
        assert!(
            self.is_empty(),
            "HybridClock::init_root: clock already initialized"
        );
        if self.flat() {
            // A recycled clock kept its learned flat representation:
            // root directly in the flat array (a pool-recycled thread
            // clock re-entering the same dense workload skips the
            // whole re-learning phase this way).
            let i = t.index();
            if i >= self.flat.len() {
                self.flat.resize(i + 1, 0);
            }
            self.root = Some(t);
        } else {
            self.tree.init_root(t);
        }
    }

    fn root_tid(&self) -> Option<ThreadId> {
        self.root_of()
    }

    #[inline]
    fn get(&self, t: ThreadId) -> LocalTime {
        self.value_at(t.raw())
    }

    #[inline]
    fn increment(&mut self, amount: LocalTime) {
        // `increment` is the hottest entry point, but it is also the
        // only guaranteed `&mut` touch of a thread that acts purely as
        // a copy *source* (a publisher whose acquires all hit fresh
        // lazy locks) — without harvesting shared-hook observations and
        // executing pending flips here, such a thread's window would
        // never be judged.
        let s = self.state_for_mut();
        if s & ST_FLAT != 0 {
            let root = self
                .root
                .expect("HybridClock::increment: clock has no root thread");
            let i = root.index();
            if i >= self.flat.len() {
                self.flat.resize(i + 1, 0);
            }
            self.flat[i] += amount;
        } else {
            self.tree.increment(amount);
        }
    }

    /// O(1) root-entry comparison, exactly as for the tree clock (the
    /// flat representation keeps the owner around for this).
    fn leq(&self, other: &Self) -> bool {
        match self.root_of() {
            None => true,
            Some(r) => self.value_at(r.raw()) <= other.value_at(r.raw()),
        }
    }

    #[inline]
    fn join(&mut self, other: &Self) {
        self.join_dispatch::<false>(other);
    }

    fn join_counted(&mut self, other: &Self) -> OpStats {
        self.join_dispatch::<true>(other)
    }

    #[inline]
    fn monotone_copy(&mut self, other: &Self) {
        self.copy_dispatch::<false>(other);
    }

    fn monotone_copy_counted(&mut self, other: &Self) -> OpStats {
        self.copy_dispatch::<true>(other)
    }

    fn copy_check_monotone(&mut self, other: &Self) -> CopyMode {
        self.copy_check_dispatch::<false>(other).0
    }

    fn copy_check_monotone_counted(&mut self, other: &Self) -> (CopyMode, OpStats) {
        self.copy_check_dispatch::<true>(other)
    }

    fn vector_time(&self) -> VectorTime {
        if self.flat() {
            VectorTime::from(self.flat.clone())
        } else {
            self.tree.vector_time()
        }
    }

    fn is_empty(&self) -> bool {
        if self.flat() {
            self.root.is_none() && self.flat.iter().all(|&t| t == 0)
        } else {
            self.tree.is_empty()
        }
    }

    fn num_threads(&self) -> usize {
        if self.flat() {
            self.flat.len()
        } else {
            self.tree.num_threads()
        }
    }

    /// Resets the clock to the empty state while *keeping the learned
    /// representation*: values, owner and the window accumulators are
    /// discarded, but a clock that had settled flat stays flat. A
    /// pool-recycled clock re-entering the same workload (the next
    /// benchmark repetition, the next conformance case) then skips the
    /// re-learning phase entirely — and if its next role has a
    /// different density profile, the fresh window migrates it within
    /// one hysteresis period.
    fn clear(&mut self) {
        self.tree.clear();
        self.flat.clear();
        self.root = None;
        // Keep the learned mode bit, drop any pending flip.
        self.state &= ST_FLAT;
        self.window.reset_for_recycle();
        self.flips_to_flat = 0;
        self.flips_to_tree = 0;
    }

    fn reserve_threads(&mut self, threads: usize) {
        if self.flat() {
            if self.flat.len() < threads {
                self.flat.resize(threads, 0);
            }
        } else {
            self.tree.reserve_threads(threads);
        }
    }

    /// Restores a checkpointed value into the *learned* representation:
    /// a clock that had settled flat is refilled flat, otherwise the
    /// tree re-materializes as the star shape.
    fn restore_value(&mut self, times: &[LocalTime], root: Option<ThreadId>) {
        assert!(
            self.is_empty(),
            "HybridClock::restore_value: destination must be empty"
        );
        let Some(r) = root else {
            assert!(
                times.iter().all(|&t| t == 0),
                "HybridClock::restore_value: a rootless clock must be all-zero"
            );
            return;
        };
        if self.flat() {
            self.flat.clear();
            self.flat.extend_from_slice(times);
            if self.flat.len() <= r.index() {
                self.flat.resize(r.index() + 1, 0);
            }
            self.root = Some(r);
        } else {
            self.tree.adopt_flat(times, r.raw());
        }
    }

    fn heap_bytes(&self) -> usize {
        self.tree.heap_bytes() + self.flat.capacity() * std::mem::size_of::<LocalTime>()
    }
}

// The tentpole guarantee this refactor bought: the hybrid clock (and
// with it every engine, detector and session above) is a movable,
// shareable value — no `Cell` left anywhere in the stack.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HybridClock>();
};

impl PartialEq for HybridClock {
    /// Value equality (trailing zeros insignificant, representation and
    /// owner ignored), like the other clock backends.
    fn eq(&self, other: &Self) -> bool {
        let n = self.num_threads().max(other.num_threads());
        (0..n as u32).all(|i| self.value_at(i) == other.value_at(i))
    }
}

impl Eq for HybridClock {}

impl fmt::Debug for HybridClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HybridClock({}, ", self.repr_name())?;
        match self.root_of() {
            Some(r) => write!(f, "root={r}, ")?,
            None => write!(f, "no-root, ")?,
        }
        write!(f, "{})", self.vector_time())
    }
}

impl fmt::Display for HybridClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.vector_time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rooted(t: u32, time: LocalTime) -> HybridClock {
        let mut c = HybridClock::new();
        c.init_root(ThreadId::new(t));
        c.increment(time);
        c
    }

    /// One round of dense all-to-one traffic: every peer advances and
    /// `clock` joins each (most of the arena moves per join).
    fn dense_round(clock: &mut HybridClock, peers: &mut [HybridClock]) {
        for p in peers.iter_mut() {
            p.increment(1);
        }
        for p in peers.iter() {
            clock.increment(1);
            clock.join(p);
        }
    }

    /// Tree-mode operations needed to saturate the window toward a
    /// flip (observations are sampled every `TREE_OBS_PERIOD` ops).
    const SATURATE: usize =
        TREE_OBS_PERIOD as usize * WINDOW_OPS as usize * (HYSTERESIS as usize + 1);

    #[test]
    fn new_clock_is_empty_tree() {
        let c = HybridClock::new();
        assert!(c.is_empty());
        assert!(!c.is_flat());
        assert_eq!(c.root_tid(), None);
        assert_eq!(c.get(ThreadId::new(7)), 0);
    }

    #[test]
    fn basic_join_and_copy_match_tree_semantics() {
        let mut a = rooted(0, 3);
        let b = rooted(1, 5);
        a.join(&b);
        assert_eq!(a.get(ThreadId::new(0)), 3);
        assert_eq!(a.get(ThreadId::new(1)), 5);
        assert!(b.leq(&a));
        let mut lock = HybridClock::new();
        lock.monotone_copy(&a);
        assert_eq!(lock.vector_time(), a.vector_time());
        assert_eq!(lock.root_tid(), Some(ThreadId::new(0)));
    }

    #[test]
    fn sustained_dense_joins_flip_to_flat_and_back_on_sparse() {
        // K must exceed the dense cutoff: at or below it the arena is
        // flat-cheap by fiat and the clock (correctly) never returns
        // to the tree representation.
        const K: usize = DENSE_CUTOFF as usize + 8;
        let mut hub = rooted(0, 1);
        let mut peers: Vec<HybridClock> = (1..K as u32).map(|t| rooted(t, 1)).collect();
        // Each round: every peer advances, the peers chain-join so the
        // last one holds every fresh increment, and the hub joins only
        // that one — a join moving nearly the whole arena (dense).
        for _ in 0..(TREE_OBS_PERIOD as usize * SATURATE) {
            for p in peers.iter_mut() {
                p.increment(1);
            }
            for i in 1..peers.len() {
                let (before, rest) = peers.split_at_mut(i);
                rest[0].join(&before[i - 1]);
            }
            hub.increment(1);
            hub.join(peers.last().unwrap());
        }
        assert!(hub.is_flat(), "dense workload must flip to flat");
        assert_eq!(hub.flips().0, 1);

        // Now the workload turns sparse: joins that change nothing.
        // Observations arrive at probe frequency, so the flip back
        // takes PROBE_PERIOD × window × hysteresis joins.
        let quiet = peers[0].clone();
        for _ in 0..((PROBE_PERIOD as usize + 1) * SATURATE + 1) {
            hub.increment(1);
            hub.join(&quiet);
        }
        assert!(!hub.is_flat(), "sparse workload must flip back to tree");
        assert_eq!(hub.flips(), (1, 1));
        // The re-materialized tree still holds the flat values.
        assert_eq!(
            hub.get(ThreadId::new(1)),
            quiet.get(ThreadId::new(1)).max(hub.get(ThreadId::new(1)))
        );
    }

    #[test]
    fn dense_copies_flip_the_source_thread() {
        // The pairwise profile: sparse joins, dense copies (a stale
        // lock clock differs from the publishing thread on most
        // entries). The *source* thread must flip to flat even though
        // its own joins are quiet — the shared-hook observations are
        // harvested at the publisher's next `&mut` touch (increment).
        // At 150 threads the publisher's copies share its tree and move
        // nothing; their sampled density must flip it all the same.
        for k in [8, 150] {
            let mut publisher = HybridClock {
                tree: knows_all(k, 1),
                ..HybridClock::default()
            };
            let mut locks: Vec<HybridClock> = Vec::new();
            for _ in 0..(SATURATE * 2) {
                publisher.increment(1);
                // Copy into a stale lock (old value far behind): dense.
                let mut lock = rooted(1, 1);
                lock.increment(0);
                let _ = lock.copy_check_monotone(&publisher);
                locks.push(lock);
            }
            assert!(
                publisher.is_flat(),
                "{k} threads: dense copies must flip the publishing thread to flat"
            );
            // And the copy targets adopted the source representation.
            assert!(locks.last().unwrap().is_flat());
        }
    }

    #[test]
    fn alternating_workload_does_not_thrash() {
        // Alternating one dense and one sparse operation: the window
        // aggregates them into one stable verdict, so the clock settles
        // into a single representation instead of ping-ponging.
        let mut c = rooted(0, 1);
        let mut dense_src = rooted(1, 1);
        let sparse_src = rooted(2, 1);
        c.join(&sparse_src); // learn t2 once so later joins are no-ops
        for _ in 0..400 {
            dense_src.increment(1); // 1 change in a 3-slot arena: dense
            c.increment(1);
            c.join(&dense_src);
            c.increment(1);
            c.join(&sparse_src); // no progress: sparse
        }
        let (to_flat, to_tree) = c.flips();
        assert!(
            to_flat + to_tree <= 1,
            "alternating workload must settle, not thrash (flips: {:?})",
            c.flips()
        );
    }

    #[test]
    fn flat_and_tree_mode_values_agree_with_counted_stats() {
        // Mirror a hybrid against a hybrid driven only via counted ops:
        // values and `changed` accounting must agree in every mix.
        let mut timed = rooted(0, 2);
        let mut counted = rooted(0, 2);
        let mut src = rooted(1, 1);
        for step in 0..200u32 {
            src.increment(1 + step % 3);
            timed.increment(1);
            counted.increment(1);
            timed.join(&src);
            let s = counted.join_counted(&src);
            assert!(s.changed <= s.examined);
            assert_eq!(timed.vector_time(), counted.vector_time(), "step {step}");
        }
    }

    #[test]
    fn copy_adopts_source_representation() {
        const K: usize = 6;
        let mut hub = rooted(0, 1);
        let mut peers: Vec<HybridClock> = (1..K as u32).map(|t| rooted(t, 1)).collect();
        for _ in 0..(SATURATE / K + 4) {
            for p in peers.iter_mut() {
                let snap = hub.clone();
                p.increment(1);
                p.join(&snap);
            }
            dense_round(&mut hub, &mut peers);
        }
        assert!(hub.is_flat());
        let mut lock = HybridClock::new();
        lock.monotone_copy(&hub);
        assert!(lock.is_flat(), "copy target must mirror its source");
        assert_eq!(lock.vector_time(), hub.vector_time());

        let tree_src = rooted(9, 4);
        let mut lw = HybridClock::new();
        lw.copy_check_monotone(&tree_src);
        assert!(!lw.is_flat());
        assert_eq!(lw.get(ThreadId::new(9)), 4);
    }

    #[test]
    fn counted_copy_changed_is_exact_across_representations() {
        // Build a flat source and copy it twice: the first counted copy
        // reports exactly the nonzero entries, the second reports 0.
        let mut src = rooted(0, 1);
        let mut peers: Vec<HybridClock> = (1..5u32).map(|t| rooted(t, 1)).collect();
        for _ in 0..(SATURATE + 8) {
            dense_round(&mut src, &mut peers);
        }
        assert!(src.is_flat());
        let mut dst = HybridClock::new();
        let s1 = dst.monotone_copy_counted(&src);
        assert!(dst.is_flat());
        assert_eq!(
            s1.changed as usize,
            src.values().slice.iter().filter(|&&t| t != 0).count()
        );
        let s2 = dst.monotone_copy_counted(&src);
        assert_eq!(s2.changed, 0);
        assert_eq!(dst.vector_time(), src.vector_time());
    }

    #[test]
    fn clear_empties_values_but_keeps_the_learned_representation() {
        let mut c = rooted(0, 1);
        let mut peers: Vec<HybridClock> = (1..6u32).map(|t| rooted(t, 1)).collect();
        for _ in 0..(SATURATE + 8) {
            dense_round(&mut c, &mut peers);
        }
        assert!(c.is_flat());
        c.clear();
        assert!(c.is_empty());
        assert!(
            c.is_flat(),
            "a recycled clock keeps its learned representation"
        );
        assert_eq!(c.flips(), (0, 0));
        assert_eq!(c.root_tid(), None);
        assert_eq!(c.vector_time(), VectorTime::new());
        // And it is reusable as a fresh thread clock — flat from the
        // start, skipping the re-learning phase.
        c.init_root(ThreadId::new(3));
        c.increment(2);
        assert!(c.is_flat());
        assert_eq!(c.get(ThreadId::new(3)), 2);

        // A tree-mode clock clears back to an empty tree.
        let mut t = rooted(7, 1);
        t.clear();
        assert!(t.is_empty());
        assert!(!t.is_flat());
    }

    #[test]
    fn pool_recycles_hybrid_clocks() {
        use crate::ClockPool;
        let mut pool = ClockPool::<HybridClock>::new();
        let mut a = pool.acquire();
        a.init_root(ThreadId::new(2));
        a.increment(9);
        pool.release(a);
        let b = pool.acquire();
        assert_eq!(pool.recycled(), 1);
        assert!(b.is_empty());
        assert_eq!(b.get(ThreadId::new(2)), 0);
    }

    #[test]
    #[should_panic(expected = "progressed on self's root")]
    fn flat_join_rejects_foreign_progress_on_own_thread() {
        // Force `a` flat, then feed it a source claiming a later time of
        // `a`'s own thread.
        let mut a = rooted(0, 1);
        let mut peers: Vec<HybridClock> = (1..6u32).map(|t| rooted(t, 1)).collect();
        for _ in 0..(SATURATE + 8) {
            dense_round(&mut a, &mut peers);
        }
        assert!(a.is_flat());
        let mut src = rooted(1, 1);
        src.join(&rooted(0, 1000));
        a.join(&src);
    }

    #[test]
    fn leq_agrees_with_pointwise_comparison_in_both_modes() {
        let a = rooted(0, 2);
        let mut b = rooted(1, 2);
        b.join(&a);
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
        // Same after `b` turns flat.
        let mut peers: Vec<HybridClock> = (2..8u32).map(|t| rooted(t, 1)).collect();
        for _ in 0..(SATURATE + 8) {
            dense_round(&mut b, &mut peers);
        }
        assert!(b.is_flat());
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
    }

    #[test]
    fn small_arenas_settle_flat_even_when_sparse() {
        // The k-dependent threshold: an arena at or below the dense
        // cutoff is flat-cheap, so even no-progress joins eventually
        // migrate a small clock to the flat representation — and never
        // back.
        let mut c = rooted(0, 1);
        let quiet = rooted(1, 1);
        c.join(&quiet);
        for _ in 0..(PROBE_PERIOD as usize + 1) * SATURATE * 2 {
            c.increment(1);
            c.join(&quiet); // changes nothing: nominally sparse
        }
        assert!(c.is_flat(), "small arena must settle flat");
        assert_eq!(c.flips(), (1, 0));
    }

    #[test]
    fn shared_observations_saturate_without_corrupting_the_probe() {
        // More than 7 shared-hook observations between `&mut` touches:
        // the op count saturates (extras are dropped) instead of
        // overflowing into the probe bits.
        let src = rooted(0, 3);
        for _ in 0..40 {
            src.observe_shared(1000, 1000);
        }
        assert_eq!(packed_ops(src.window.shared.load(Ordering::Relaxed)), 7);
        // The probe countdown still ticks and re-arms correctly.
        assert!(src.copy_probe_tick(3), "armed probe fires at zero");
        assert!(!src.copy_probe_tick(3));
        assert!(!src.copy_probe_tick(3));
        assert!(!src.copy_probe_tick(3));
        assert!(src.copy_probe_tick(3), "probe fires after the countdown");
        // The next `&mut` entry harvests the saturated window.
        let mut src = src;
        src.increment(1);
        assert_eq!(packed_ops(src.window.shared.load(Ordering::Relaxed)), 0);
    }

    #[test]
    fn restore_value_round_trips_in_both_representations() {
        use crate::LogicalClock;
        let times = [3u32, 0, 7, 2];
        let mut tree = HybridClock::new();
        tree.restore_value(&times, Some(ThreadId::new(2)));
        assert!(!tree.is_flat());
        assert_eq!(tree.root_tid(), Some(ThreadId::new(2)));
        assert_eq!(tree.vector_time(), VectorTime::from(times.to_vec()));

        // A clock that learned the flat representation restores flat.
        let mut flat = HybridClock::new();
        let mut peers: Vec<HybridClock> = (1..6u32).map(|t| rooted(t, 1)).collect();
        flat.init_root(ThreadId::new(0));
        flat.increment(1);
        for _ in 0..(SATURATE + 8) {
            dense_round(&mut flat, &mut peers);
        }
        assert!(flat.is_flat());
        flat.clear();
        flat.restore_value(&times, Some(ThreadId::new(0)));
        assert!(flat.is_flat());
        assert_eq!(flat.vector_time(), VectorTime::from(times.to_vec()));
        assert_eq!(flat.root_tid(), Some(ThreadId::new(0)));
    }

    /// A tree clock rooted at t0 that knows threads `0..k`, all at
    /// `time`.
    fn knows_all(k: u32, time: LocalTime) -> TreeClock {
        let mut tree = TreeClock::new();
        tree.init_root(ThreadId::new(0));
        tree.increment(time);
        for t in 1..k {
            let mut peer = TreeClock::new();
            peer.init_root(ThreadId::new(t));
            peer.increment(time);
            tree.join(&peer);
        }
        tree
    }

    /// A tree-mode clock of 150 threads, all at time 4, whose tree is
    /// shared with a lock clock and whose root (t0) has since moved on to
    /// 9: its tree's root entry lags at 4.
    fn lagging_wide_tree() -> HybridClock {
        let mut tree = knows_all(150, 4);
        let mut lock = TreeClock::new();
        lock.monotone_copy(&tree);
        tree.increment(5);
        HybridClock {
            tree,
            ..HybridClock::default()
        }
    }

    #[test]
    fn flat_reads_of_a_tree_use_its_root_time() {
        let src = lagging_wide_tree();
        assert!(!src.is_flat());
        assert_eq!(src.get(ThreadId::new(0)), 9);

        // Flat ⊔ tree takes the root time, not the lagging entry.
        let mut flat = rooted(1, 10);
        let mut peers: Vec<HybridClock> = (2..7u32).map(|t| rooted(t, 1)).collect();
        for _ in 0..(SATURATE + 8) {
            dense_round(&mut flat, &mut peers);
        }
        assert!(flat.is_flat());
        let before = flat.clone();
        let mut counted = flat.clone();
        flat.join(&src);
        assert_eq!(flat.get(ThreadId::new(0)), 9);
        let s = counted.join_counted(&src);
        assert_eq!(counted.vector_time(), flat.vector_time());
        let progressed = (0..150)
            .map(ThreadId::new)
            .filter(|&t| src.get(t) > before.get(t))
            .count();
        assert_eq!(s.changed as usize, progressed);

        // Diffs against the tree judge its root on the root time.
        let stale = vec![4; 150];
        assert_eq!(count_diffs(Times::flat(&stale), src.values()), 1);
        assert_eq!(count_diffs(src.values(), Times::flat(&stale)), 1);

        // So does the tree→flat migration.
        let mut migrating = src.clone();
        migrating.flip_to_flat();
        assert!(migrating.is_flat());
        assert_eq!(migrating.vector_time(), src.vector_time());
        assert_eq!(migrating.get(ThreadId::new(0)), 9);
    }

    #[test]
    fn count_diffs_handles_unequal_lengths() {
        let diffs = |a: &[LocalTime], b: &[LocalTime]| count_diffs(Times::flat(a), Times::flat(b));
        assert_eq!(diffs(&[1, 2, 0], &[1, 3]), 1);
        assert_eq!(diffs(&[1, 2, 4], &[1, 2]), 1);
        assert_eq!(diffs(&[], &[0, 0, 5]), 1);
        assert_eq!(diffs(&[7], &[7]), 0);
    }

    #[test]
    fn hybrid_clocks_move_across_threads() {
        // The tentpole property, exercised dynamically: a learned
        // clock is a plain movable value.
        let mut c = rooted(0, 2);
        let peer = rooted(1, 5);
        c.join(&peer);
        let handle = std::thread::spawn(move || {
            c.increment(1);
            c.get(ThreadId::new(1))
        });
        assert_eq!(handle.join().unwrap(), 5);
    }

    #[test]
    fn display_and_debug_are_value_based() {
        let a = rooted(0, 3);
        assert_eq!(a.to_string(), a.vector_time().to_string());
        assert!(format!("{a:?}").contains("tree"));
    }
}
