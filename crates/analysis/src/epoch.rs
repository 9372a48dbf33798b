//! Per-variable access histories with FastTrack-style adaptive
//! representation.
//!
//! The history of a variable stores the epoch of its last write and the
//! reads since that write — as a single epoch while reads are totally
//! ordered, widening to a full vector time only when concurrent reads
//! appear (the rare case). All checks against a thread's clock are O(1)
//! per entry via `Get` (Remark 1 of the paper), for both clock
//! representations.

use tc_core::{Epoch, LogicalClock, ThreadId, VectorTime};

use crate::report::{Race, RaceKind, RaceReport};
use tc_trace::VarId;

/// Reads since the last write: one epoch, or a vector once reads are
/// concurrent with each other.
#[derive(Clone, Debug, PartialEq, Eq)]
enum ReadState {
    Epoch(Epoch),
    Vector(VectorTime),
}

/// Access history of one shared variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarHistory {
    var: VarId,
    write: Epoch,
    reads: ReadState,
}

impl VarHistory {
    /// Creates an empty history for variable `var`.
    pub fn new(var: VarId) -> Self {
        VarHistory {
            var,
            write: Epoch::ZERO,
            reads: ReadState::Epoch(Epoch::ZERO),
        }
    }

    /// The epoch of the last write (zero if none).
    pub fn write_epoch(&self) -> Epoch {
        self.write
    }

    /// Processes a read at `epoch` by a thread whose clock (w.r.t. the
    /// partial order, *before* any ordering edge added for this event)
    /// is `clock`. Reports a write/read race into `report` if the last
    /// write is concurrent with this read, then updates the read state.
    pub fn on_read<C: LogicalClock>(&mut self, epoch: Epoch, clock: &C, report: &mut RaceReport) {
        report.checks += 1;
        if !self.write.is_zero() && !self.write.leq_clock(clock) {
            report.record(Race {
                var: self.var,
                kind: RaceKind::WriteRead,
                prior: self.write,
                current: epoch,
            });
        }
        match &mut self.reads {
            ReadState::Epoch(r) => {
                if r.is_zero() || r.tid() == epoch.tid() || r.leq_clock(clock) {
                    // The previous read is ordered before (or by) us:
                    // the single epoch still summarizes all reads.
                    *r = epoch;
                } else {
                    // Concurrent reads: widen to a vector.
                    let mut v = VectorTime::new();
                    v.set(r.tid(), r.time());
                    v.set(epoch.tid(), epoch.time());
                    self.reads = ReadState::Vector(v);
                }
            }
            ReadState::Vector(v) => {
                v.set(epoch.tid(), epoch.time());
            }
        }
    }

    /// Processes a write at `epoch` with the thread's pre-edge `clock`.
    /// Reports write/write and read/write races, then resets the
    /// history (the new write epoch summarizes the past for future
    /// checks).
    pub fn on_write<C: LogicalClock>(&mut self, epoch: Epoch, clock: &C, report: &mut RaceReport) {
        report.checks += 1;
        if !self.write.is_zero() && !self.write.leq_clock(clock) {
            report.record(Race {
                var: self.var,
                kind: RaceKind::WriteWrite,
                prior: self.write,
                current: epoch,
            });
        }
        match &self.reads {
            ReadState::Epoch(r) => {
                report.checks += 1;
                if !r.is_zero() && !r.leq_clock(clock) {
                    report.record(Race {
                        var: self.var,
                        kind: RaceKind::ReadWrite,
                        prior: *r,
                        current: epoch,
                    });
                }
            }
            ReadState::Vector(v) => {
                for (t, time) in v.iter() {
                    report.checks += 1;
                    if time > clock.get(t) {
                        report.record(Race {
                            var: self.var,
                            kind: RaceKind::ReadWrite,
                            prior: Epoch::new(t, time),
                            current: epoch,
                        });
                    }
                }
            }
        }
        self.write = epoch;
        self.reads = ReadState::Epoch(Epoch::ZERO);
    }

    /// Returns `true` while the read history fits in a single epoch
    /// (exposed for tests of the adaptive representation).
    pub fn reads_are_epoch(&self) -> bool {
        matches!(self.reads, ReadState::Epoch(_))
    }

    /// Captures this history's state for a streaming checkpoint.
    pub fn snapshot(&self) -> VarHistorySnapshot {
        VarHistorySnapshot {
            var: self.var,
            write: self.write,
            reads: match &self.reads {
                ReadState::Epoch(e) => ReadsSnapshot::Epoch(*e),
                ReadState::Vector(v) => ReadsSnapshot::Vector(v.iter().collect()),
            },
        }
    }

    /// Rebuilds a history from a checkpointed snapshot.
    pub fn from_snapshot(snapshot: &VarHistorySnapshot) -> Self {
        VarHistory {
            var: snapshot.var,
            write: snapshot.write,
            reads: match &snapshot.reads {
                ReadsSnapshot::Epoch(e) => ReadState::Epoch(*e),
                ReadsSnapshot::Vector(pairs) => {
                    let mut v = VectorTime::new();
                    for &(t, time) in pairs {
                        v.set(t, time);
                    }
                    ReadState::Vector(v)
                }
            },
        }
    }
}

/// The serializable reads component of a [`VarHistorySnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadsSnapshot {
    /// Reads since the last write are summarized by one epoch.
    Epoch(Epoch),
    /// Concurrent reads, as `(thread, time)` pairs (zero entries
    /// omitted or not — insignificant either way).
    Vector(Vec<(ThreadId, tc_core::LocalTime)>),
}

/// A value-level capture of one [`VarHistory`] — what a streaming
/// checkpoint stores per touched variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarHistorySnapshot {
    /// The variable this history belongs to.
    pub var: VarId,
    /// The last-write epoch (zero if none).
    pub write: Epoch,
    /// The reads since the last write.
    pub reads: ReadsSnapshot,
}

/// A growable collection of per-variable histories.
#[derive(Clone, Debug, Default)]
pub struct VarHistories {
    vars: Vec<VarHistory>,
}

impl VarHistories {
    /// Creates histories with capacity for `vars` variables.
    ///
    /// Entries themselves are lazy: an untouched variable costs nothing
    /// until [`entry`](Self::entry) first touches it (histories are
    /// small, but a trace can declare tens of thousands of variables and
    /// only access a few).
    pub fn with_vars(vars: usize) -> Self {
        VarHistories {
            vars: Vec::with_capacity(vars),
        }
    }

    /// The history of `x`, growing the collection as needed.
    pub fn entry(&mut self, x: VarId) -> &mut VarHistory {
        if x.index() >= self.vars.len() {
            let from = self.vars.len();
            self.vars
                .extend((from..=x.index()).map(|i| VarHistory::new(VarId::new(i as u32))));
        }
        &mut self.vars[x.index()]
    }

    /// Number of (dense) history slots currently materialized.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// `true` when no variable has been touched yet.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Captures every touched variable's history for a checkpoint.
    pub fn snapshot(&self) -> Vec<VarHistorySnapshot> {
        self.vars.iter().map(VarHistory::snapshot).collect()
    }

    /// Rebuilds histories from a checkpointed snapshot (dense by
    /// variable index, as produced by [`snapshot`](Self::snapshot)).
    pub fn from_snapshot(snapshots: &[VarHistorySnapshot]) -> Self {
        VarHistories {
            vars: snapshots.iter().map(VarHistory::from_snapshot).collect(),
        }
    }
}

/// Computes the epoch the current event will have: thread `t` at its
/// *next* local time (the clock has not been incremented yet). Public
/// because the streaming `IncrementalDetector` drives the same
/// check-before-process discipline as the batch detectors.
pub fn upcoming_epoch<C: LogicalClock>(t: ThreadId, clock: Option<&C>) -> Epoch {
    Epoch::new(t, clock.map(|c| c.get(t)).unwrap_or(0) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::VectorClock;

    /// Builds a vector clock with the given entries via rooted joins.
    fn clock(entries: &[u32]) -> VectorClock {
        let mut result = VectorClock::new();
        result.init_root(ThreadId::new(0));
        for (i, &v) in entries.iter().enumerate() {
            if i == 0 {
                result.increment(v);
            } else if v > 0 {
                let mut other = VectorClock::new();
                other.init_root(ThreadId::new(i as u32));
                other.increment(v);
                result.join(&other);
            }
        }
        result
    }

    #[test]
    fn ordered_write_then_read_is_not_a_race() {
        let mut h = VarHistory::new(VarId::new(0));
        let mut rep = RaceReport::new();
        h.on_write(Epoch::new(ThreadId::new(0), 1), &clock(&[1]), &mut rep);
        // Reader's clock knows t0@1: ordered.
        h.on_read(Epoch::new(ThreadId::new(1), 1), &clock(&[1, 0]), &mut rep);
        assert!(rep.is_empty());
    }

    #[test]
    fn concurrent_write_then_read_is_a_race() {
        let mut h = VarHistory::new(VarId::new(0));
        let mut rep = RaceReport::new();
        h.on_write(Epoch::new(ThreadId::new(0), 1), &clock(&[1]), &mut rep);
        // Reader knows nothing of t0.
        h.on_read(Epoch::new(ThreadId::new(1), 1), &clock(&[0, 0]), &mut rep);
        assert_eq!(rep.total, 1);
        assert_eq!(rep.races[0].kind, RaceKind::WriteRead);
    }

    #[test]
    fn concurrent_reads_widen_to_vector_and_all_race_with_write() {
        let mut h = VarHistory::new(VarId::new(0));
        let mut rep = RaceReport::new();
        h.on_read(Epoch::new(ThreadId::new(0), 1), &clock(&[0]), &mut rep);
        assert!(h.reads_are_epoch());
        h.on_read(Epoch::new(ThreadId::new(1), 1), &clock(&[0, 0]), &mut rep);
        assert!(!h.reads_are_epoch(), "concurrent reads must widen");
        // A write that saw neither read races with both.
        h.on_write(
            Epoch::new(ThreadId::new(2), 1),
            &clock(&[0, 0, 0]),
            &mut rep,
        );
        assert_eq!(rep.total, 2);
        assert!(rep.races.iter().all(|r| r.kind == RaceKind::ReadWrite));
    }

    #[test]
    fn same_thread_reads_keep_epoch_representation() {
        let mut h = VarHistory::new(VarId::new(0));
        let mut rep = RaceReport::new();
        h.on_read(Epoch::new(ThreadId::new(0), 1), &clock(&[1]), &mut rep);
        h.on_read(Epoch::new(ThreadId::new(0), 2), &clock(&[2]), &mut rep);
        assert!(h.reads_are_epoch());
        assert!(rep.is_empty());
    }

    #[test]
    fn write_resets_read_history() {
        let mut h = VarHistory::new(VarId::new(0));
        let mut rep = RaceReport::new();
        h.on_read(Epoch::new(ThreadId::new(0), 1), &clock(&[1]), &mut rep);
        // The writer has seen the read: ordered, and resets the state.
        h.on_write(Epoch::new(ThreadId::new(1), 1), &clock(&[1, 0]), &mut rep);
        assert!(rep.is_empty());
        assert!(h.reads_are_epoch());
        assert_eq!(h.write_epoch(), Epoch::new(ThreadId::new(1), 1));
    }

    #[test]
    fn histories_grow_on_demand() {
        let mut hs = VarHistories::with_vars(1);
        let h = hs.entry(VarId::new(5));
        assert_eq!(h.write_epoch(), Epoch::ZERO);
    }

    #[test]
    fn snapshot_round_trips_epoch_and_vector_states() {
        let mut hs = VarHistories::with_vars(2);
        let mut rep = RaceReport::new();
        // x0: single-epoch reads; x1: widened concurrent reads.
        hs.entry(VarId::new(0))
            .on_write(Epoch::new(ThreadId::new(0), 1), &clock(&[1]), &mut rep);
        hs.entry(VarId::new(1))
            .on_read(Epoch::new(ThreadId::new(0), 2), &clock(&[2]), &mut rep);
        hs.entry(VarId::new(1))
            .on_read(Epoch::new(ThreadId::new(1), 1), &clock(&[0, 1]), &mut rep);
        assert!(!hs.entry(VarId::new(1)).reads_are_epoch());

        let snap = hs.snapshot();
        let mut restored = VarHistories::from_snapshot(&snap);
        assert_eq!(restored.snapshot(), snap);

        // The restored histories make identical decisions: the same
        // write against the same clock reports the same races.
        let mut rep_a = RaceReport::new();
        let mut rep_b = RaceReport::new();
        let w = Epoch::new(ThreadId::new(2), 1);
        hs.entry(VarId::new(1))
            .on_write(w, &clock(&[0, 0, 0]), &mut rep_a);
        restored
            .entry(VarId::new(1))
            .on_write(w, &clock(&[0, 0, 0]), &mut rep_b);
        assert_eq!(rep_a, rep_b);
        assert_eq!(rep_a.total, 2);
    }
}
