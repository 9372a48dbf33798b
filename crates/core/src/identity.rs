//! External-to-internal thread identity management: generation-based
//! slot recycling.
//!
//! Every clock backend in this workspace indexes its representation by
//! [`ThreadId`] — the vector of a [`VectorClock`](crate::VectorClock),
//! the times and node arena of a [`TreeClock`](crate::TreeClock), tree
//! or flat. Join-retirement (PR 5) bounds the *number* of live
//! clocks, but every clock still carries the **total-ever** thread
//! dimension: a streaming session with millions of spawn/join churns
//! drags dead entries in every clock forever.
//!
//! The [`IdentityMap`] fixes the *width*: external thread ids (what the
//! trace and every report speak) are remapped onto a small set of
//! recycled internal **slots**. Each slot carries a **generation**
//! counter, and a generation `g` of slot `s` occupies the half-open
//! local-time interval `(base_g, fin_g]` of that slot: a new occupant
//! adopts the slot at `base = fin` of the previous occupant, so slot
//! times stay globally monotone across generations and no clock ever
//! has to be rewound or scrubbed.
//!
//! # The reclamation rule
//!
//! A dead thread `u` (slot `s`, final slot time `fin`) is recyclable
//! once **every live clock has absorbed its final time**:
//! `live_floor[s] >= fin`, where `live_floor` is the pointwise minimum
//! over all live thread clocks (the same dominance machinery
//! `tc_stream` uses for lock eviction). Once the floor dominates `fin`,
//! knowledge of `u` can never change any future join, copy, or epoch
//! check — every live clock already knows everything `u` ever did — so
//! the slot's stale residue in auxiliary clocks is value-harmless and
//! the slot can be handed to a fresh thread.
//!
//! A direct consequence of the same dominance argument: a race can
//! never involve an event of a *pre-reclaim* generation (its epoch is
//! dominated by every live clock), so translating an internal race
//! epoch back to an external id via the slot's **current** binding is
//! always unambiguous.
//!
//! # External vs internal coordinates
//!
//! - **bind**: external id -> [`SlotBinding`] `(slot, generation,
//!   base)`; fresh externals pull from the free pool (adopting at
//!   `base`) or extend the slot space.
//! - **retire**: records the final slot time `fin` and queues the slot
//!   for reclamation.
//! - **reclaim**: sweeps the pending queue against a `live_floor`.
//! - **translate back**: an internal slot time `T` on slot `s` converts
//!   to external time `clamp(min(T, fin) - base, >= 0)` for the binding
//!   in question — clamped above by `fin` (later generations' progress
//!   is not ours) and below by `base` (earlier generations' progress is
//!   not ours either).

use std::fmt;

use crate::{Epoch, LocalTime, ThreadId};

/// Why an external id could not be bound to a slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BindError {
    /// The external id was retired (joined) and its slot has not been
    /// handed out again; the id acting again is a trace error.
    Retired,
    /// The external id was retired and its internal slot has since been
    /// recycled to a different external id — the strictest form of the
    /// same trace error, reported separately because the slot's state
    /// now belongs to another thread.
    Recycled,
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::Retired => write!(f, "external thread is retired"),
            BindError::Recycled => write!(f, "external thread's slot was recycled"),
        }
    }
}

/// The result of binding an external id: which internal slot speaks for
/// it, at which generation, and from which base time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotBinding {
    /// The internal slot all clocks index by.
    pub slot: ThreadId,
    /// The slot's generation this external id owns.
    pub generation: u32,
    /// The slot's local time at adoption; the occupant's own events
    /// live in `(base, fin]`.
    pub base: LocalTime,
    /// `true` if this call created the binding (the engine must adopt
    /// the slot before the external id's first event is processed).
    pub fresh: bool,
}

/// One external id's (permanent) record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ExtEntry {
    slot: u32,
    generation: u32,
    base: LocalTime,
    /// `Some(fin)` once retired: the slot's local time at death.
    fin: Option<LocalTime>,
}

/// A deterministic, serializable external-id ⇄ internal-slot map with
/// generation-based slot recycling. See the module docs for the
/// reclamation rule and coordinate conventions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IdentityMap {
    /// Dense by external id; `None` for externals never seen.
    ext: Vec<Option<ExtEntry>>,
    /// Per-slot current generation (the highest ever handed out).
    slot_gen: Vec<u32>,
    /// Per-slot external id of the latest binding (stale after
    /// reclamation until the slot is re-bound, which is fine: race
    /// translation only consults slots with a live occupant or one
    /// whose epochs are not yet dominated — the current binding either
    /// way).
    slot_ext: Vec<u32>,
    /// Retired slots not yet proven dominated: `(slot, fin)`, in
    /// retirement order.
    pending: Vec<(u32, LocalTime)>,
    /// Reclaimed slots ready for reuse: `(slot, base)`, in reclamation
    /// order (popped LIFO; the order is serialized so a restored
    /// session hands out the same slots).
    free: Vec<(u32, LocalTime)>,
    /// Number of bindings that reused a previously-owned slot.
    recycled: u64,
    /// Externals currently bound and not retired.
    live: usize,
}

/// A plain-data snapshot of an [`IdentityMap`], the unit the `TCCP`
/// checkpoint format serializes. `entries` lists `(external, slot,
/// generation, base, fin)` for every external ever seen, in external-id
/// order; `pending` and `free` preserve queue order so a restored
/// session reuses the same slots in the same order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IdentitySnapshot {
    /// `(external, slot, generation, base, fin)` per known external.
    pub entries: Vec<(u32, u32, u32, LocalTime, Option<LocalTime>)>,
    /// Retired-but-not-reclaimed `(slot, fin)` in retirement order.
    pub pending: Vec<(u32, LocalTime)>,
    /// Reclaimed `(slot, base)` in reclamation order.
    pub free: Vec<(u32, LocalTime)>,
    /// Lifetime count of slot reuses.
    pub recycled: u64,
}

impl IdentityMap {
    /// Creates an empty map: no externals, no slots.
    pub fn new() -> Self {
        IdentityMap::default()
    }

    /// Binds an external id, creating a binding on first sight.
    ///
    /// New externals prefer the free pool (recycling a slot at its
    /// recorded `base`) and otherwise extend the slot space. A retired
    /// external id binding again is a trace error, distinguished by
    /// whether its old slot was already handed to someone else.
    pub fn bind(&mut self, external: ThreadId) -> Result<SlotBinding, BindError> {
        let x = external.index();
        if let Some(Some(e)) = self.ext.get(x) {
            return if e.fin.is_some() {
                if self.slot_gen[e.slot as usize] == e.generation {
                    Err(BindError::Retired)
                } else {
                    Err(BindError::Recycled)
                }
            } else {
                Ok(SlotBinding {
                    slot: ThreadId::new(e.slot),
                    generation: e.generation,
                    base: e.base,
                    fresh: false,
                })
            };
        }
        let (slot, base) = match self.free.pop() {
            Some((slot, base)) => {
                self.recycled += 1;
                self.slot_gen[slot as usize] += 1;
                (slot, base)
            }
            None => {
                let slot = self.slot_gen.len() as u32;
                self.slot_gen.push(0);
                self.slot_ext.push(0);
                (slot, 0)
            }
        };
        let generation = self.slot_gen[slot as usize];
        self.slot_ext[slot as usize] = external.raw();
        if x >= self.ext.len() {
            self.ext.resize(x + 1, None);
        }
        self.ext[x] = Some(ExtEntry {
            slot,
            generation,
            base,
            fin: None,
        });
        self.live += 1;
        Ok(SlotBinding {
            slot: ThreadId::new(slot),
            generation,
            base,
            fresh: true,
        })
    }

    /// The error [`bind`](Self::bind) would return for `external`, if
    /// any — a non-mutating pre-check, so a caller binding several ids
    /// for one event can validate them all before mutating anything.
    pub fn rebind_error(&self, external: ThreadId) -> Option<BindError> {
        match self.ext.get(external.index())? {
            Some(e) if e.fin.is_some() => Some(if self.slot_gen[e.slot as usize] == e.generation {
                BindError::Retired
            } else {
                BindError::Recycled
            }),
            _ => None,
        }
    }

    /// `true` once any slot has been reclaimed or reused — from this
    /// point on the map's floor-based reclamation decisions assume fork
    /// discipline (every new thread inherits a live thread's knowledge
    /// at birth), exactly like dominated-state eviction.
    pub fn recycling_active(&self) -> bool {
        self.recycled > 0 || !self.free.is_empty()
    }

    /// Returns the live binding of `external`, if any (including
    /// retired ones, whose `fin` is set — callers that must not see
    /// retired ids use [`bind`](Self::bind)).
    pub fn binding_of(&self, external: ThreadId) -> Option<SlotBinding> {
        self.ext.get(external.index())?.map(|e| SlotBinding {
            slot: ThreadId::new(e.slot),
            generation: e.generation,
            base: e.base,
            fresh: false,
        })
    }

    /// Marks `external` retired at final slot time `fin` and queues its
    /// slot for reclamation.
    ///
    /// # Panics
    ///
    /// Panics if `external` was never bound or is already retired —
    /// the caller (the streaming detector) owns lifecycle ordering.
    pub fn retire(&mut self, external: ThreadId, fin: LocalTime) {
        let e = self.ext[external.index()]
            .as_mut()
            .expect("retire of an unbound external thread");
        assert!(
            e.fin.is_none(),
            "retire of an already-retired external thread"
        );
        assert!(fin >= e.base, "final slot time below the binding's base");
        e.fin = Some(fin);
        self.pending.push((e.slot, fin));
        self.live -= 1;
    }

    /// Sweeps the pending queue: every retired slot whose `fin` the
    /// `floor` dominates (entries past the floor's length count as 0)
    /// moves to the free pool. Returns how many slots were reclaimed.
    pub fn reclaim(&mut self, floor: &[LocalTime]) -> usize {
        self.reclaim_if(|slot, fin| floor.get(slot as usize).copied().unwrap_or(0) >= fin)
    }

    /// Sweeps the whole pending queue unconditionally — correct only
    /// when no live clock exists (the floor is vacuously infinite).
    pub fn reclaim_all(&mut self) -> usize {
        self.reclaim_if(|_, _| true)
    }

    fn reclaim_if(&mut self, mut dominated: impl FnMut(u32, LocalTime) -> bool) -> usize {
        let before = self.free.len();
        let mut kept = 0;
        for i in 0..self.pending.len() {
            let (slot, fin) = self.pending[i];
            if dominated(slot, fin) {
                self.free.push((slot, fin));
            } else {
                self.pending[kept] = (slot, fin);
                kept += 1;
            }
        }
        self.pending.truncate(kept);
        self.free.len() - before
    }

    /// `true` if at least one retired slot awaits reclamation.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Reclaimed slots ready for reuse.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Number of internal slots ever created — the width every clock
    /// actually pays for.
    pub fn slot_width(&self) -> usize {
        self.slot_gen.len()
    }

    /// Externals currently bound and not retired.
    pub fn live_threads(&self) -> usize {
        self.live
    }

    /// Externals ever bound.
    pub fn total_threads(&self) -> usize {
        self.ext.iter().filter(|e| e.is_some()).count()
    }

    /// Lifetime count of bindings that reused a slot.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// The external id currently speaking through `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never bound.
    pub fn external_of_slot(&self, slot: ThreadId) -> ThreadId {
        ThreadId::new(self.slot_ext[slot.index()])
    }

    /// Translates an internal epoch (slot coordinates) to external
    /// coordinates via the slot's current binding. By the dominance
    /// rule this is exact for every epoch that can still appear in a
    /// race or report (see the module docs).
    pub fn external_epoch(&self, e: Epoch) -> Epoch {
        let ext = self.external_of_slot(e.tid());
        let base = self.ext[ext.index()].expect("slot owner has no entry").base;
        Epoch::new(ext, e.time().saturating_sub(base))
    }

    /// Converts a slot-coordinate local time `slot_time` (as read from
    /// some clock at `external`'s slot) into `external`'s own local
    /// time: clamped above by its `fin` (a later generation's progress
    /// is not this thread's) and below by its `base`.
    pub fn external_time(&self, external: ThreadId, slot_time: LocalTime) -> LocalTime {
        let e = self.ext[external.index()].expect("unknown external thread");
        let capped = match e.fin {
            Some(fin) => slot_time.min(fin),
            None => slot_time,
        };
        capped.saturating_sub(e.base)
    }

    /// Iterates `(external, slot, retired)` over every external ever
    /// bound, in external-id order.
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, ThreadId, bool)> + '_ {
        self.ext.iter().enumerate().filter_map(|(x, e)| {
            e.map(|e| {
                (
                    ThreadId::new(x as u32),
                    ThreadId::new(e.slot),
                    e.fin.is_some(),
                )
            })
        })
    }

    /// Captures the serializable state. Queue orders are preserved so
    /// restore + replay hands out identical slots.
    pub fn snapshot(&self) -> IdentitySnapshot {
        IdentitySnapshot {
            entries: self
                .ext
                .iter()
                .enumerate()
                .filter_map(|(x, e)| e.map(|e| (x as u32, e.slot, e.generation, e.base, e.fin)))
                .collect(),
            pending: self.pending.clone(),
            free: self.free.clone(),
            recycled: self.recycled,
        }
    }

    /// Rebuilds a map from a snapshot. Per-slot generation/owner tables
    /// are derived (highest generation per slot wins), not serialized.
    pub fn from_snapshot(snap: &IdentitySnapshot) -> Self {
        let mut map = IdentityMap::new();
        let slots = snap
            .entries
            .iter()
            .map(|&(_, slot, ..)| slot as usize + 1)
            .max()
            .unwrap_or(0);
        map.slot_gen = vec![0; slots];
        map.slot_ext = vec![0; slots];
        for &(x, slot, generation, base, fin) in &snap.entries {
            if x as usize >= map.ext.len() {
                map.ext.resize(x as usize + 1, None);
            }
            map.ext[x as usize] = Some(ExtEntry {
                slot,
                generation,
                base,
                fin,
            });
            if fin.is_none() {
                map.live += 1;
            }
            if generation >= map.slot_gen[slot as usize] {
                map.slot_gen[slot as usize] = generation;
                map.slot_ext[slot as usize] = x;
            }
        }
        map.pending = snap.pending.clone();
        map.free = snap.free.clone();
        map.recycled = snap.recycled;
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn fresh_externals_get_dense_slots() {
        let mut m = IdentityMap::new();
        for i in 0..4 {
            let b = m.bind(t(i)).unwrap();
            assert_eq!(b.slot, t(i));
            assert_eq!(b.base, 0);
            assert_eq!(b.generation, 0);
            assert!(b.fresh);
        }
        assert_eq!(m.slot_width(), 4);
        assert_eq!(m.live_threads(), 4);
        assert_eq!(m.total_threads(), 4);
        assert_eq!(m.recycled(), 0);
        // Re-binding is idempotent and not fresh.
        assert!(!m.bind(t(2)).unwrap().fresh);
        assert_eq!(m.slot_width(), 4);
    }

    #[test]
    fn reclaimed_slot_is_reused_at_its_final_time() {
        let mut m = IdentityMap::new();
        m.bind(t(0)).unwrap();
        m.bind(t(1)).unwrap();
        m.retire(t(1), 7);
        assert_eq!(m.live_threads(), 1);
        assert!(m.has_pending());
        // Floor below fin: nothing reclaimed.
        assert_eq!(m.reclaim(&[100, 6]), 0);
        assert_eq!(m.reclaim(&[100, 7]), 1);
        assert_eq!(m.free_slots(), 1);
        let b = m.bind(t(2)).unwrap();
        assert_eq!(b.slot, t(1));
        assert_eq!(b.base, 7);
        assert_eq!(b.generation, 1);
        assert!(b.fresh);
        assert_eq!(m.slot_width(), 2);
        assert_eq!(m.recycled(), 1);
        assert_eq!(m.external_of_slot(t(1)), t(2));
    }

    #[test]
    fn short_floor_counts_missing_entries_as_zero() {
        let mut m = IdentityMap::new();
        m.bind(t(0)).unwrap();
        m.bind(t(1)).unwrap();
        m.retire(t(1), 3);
        // The floor vector is narrower than the slot: entry reads 0.
        assert_eq!(m.reclaim(&[9]), 0);
        // A never-acting thread (fin == base == 0) is always free.
        m.bind(t(2)).unwrap();
        m.retire(t(2), 0);
        assert_eq!(m.reclaim(&[]), 1);
    }

    #[test]
    fn retired_and_recycled_rebinds_are_distinct_errors() {
        let mut m = IdentityMap::new();
        m.bind(t(0)).unwrap();
        m.bind(t(1)).unwrap();
        m.retire(t(1), 4);
        assert_eq!(m.bind(t(1)), Err(BindError::Retired));
        m.reclaim_all();
        let b = m.bind(t(2)).unwrap();
        assert_eq!(b.slot, t(1));
        assert_eq!(m.bind(t(1)), Err(BindError::Recycled));
    }

    #[test]
    fn external_coordinates_round_trip_across_generations() {
        let mut m = IdentityMap::new();
        m.bind(t(0)).unwrap();
        m.bind(t(1)).unwrap();
        m.retire(t(1), 10);
        m.reclaim_all();
        m.bind(t(2)).unwrap(); // slot 1, base 10
                               // Slot time 13 on slot 1 is external time 3 of t2.
        assert_eq!(m.external_epoch(Epoch::new(t(1), 13)), Epoch::new(t(2), 3));
        assert_eq!(m.external_time(t(2), 13), 3);
        // For the dead t1 the same slot time clamps to its fin.
        assert_eq!(m.external_time(t(1), 13), 10);
        // And slot times at-or-below t2's base are "before t2 existed".
        assert_eq!(m.external_time(t(2), 10), 0);
        assert_eq!(m.external_time(t(2), 4), 0);
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let mut m = IdentityMap::new();
        for i in 0..5 {
            m.bind(t(i)).unwrap();
        }
        m.retire(t(2), 6);
        m.retire(t(0), 9);
        m.reclaim(&[9, 9, 6, 9, 9]); // reclaims both
        m.bind(t(5)).unwrap(); // reuses one slot
        m.retire(t(4), 2); // left pending
        let snap = m.snapshot();
        let restored = IdentityMap::from_snapshot(&snap);
        assert_eq!(restored, m);
        // The restored map hands out the same next slot.
        let mut a = m.clone();
        let mut b = restored;
        assert_eq!(a.bind(t(6)), b.bind(t(6)));
        assert_eq!(a, b);
    }

    #[test]
    fn reclaim_preserves_pending_order() {
        let mut m = IdentityMap::new();
        for i in 0..4 {
            m.bind(t(i)).unwrap();
        }
        m.retire(t(1), 5);
        m.retire(t(3), 2);
        m.retire(t(2), 8);
        // Floor admits slots 3 and 2 but not 1.
        assert_eq!(m.reclaim(&[9, 4, 8, 9]), 2);
        // Free pops LIFO: slot 2 first, then slot 3.
        assert_eq!(m.bind(t(10)).unwrap().slot, t(2));
        assert_eq!(m.bind(t(11)).unwrap().slot, t(3));
        assert_eq!(m.bind(t(12)).unwrap().slot, t(4)); // slot 1 still pending
    }
}
