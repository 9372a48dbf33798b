//! Dynamic analyses on top of the partial-order engines — the "analysis
//! component" of the paper's evaluation (Section 6).
//!
//! For each pair of conflicting events the analyses decide whether the
//! events are concurrent with respect to the corresponding partial
//! order, using FastTrack-style *epoch* optimizations (Remark 1 of the
//! paper: `Get` is O(1) on both clock representations, so every epoch
//! optimization applies unchanged to tree clocks):
//!
//! - [`HbRaceDetector`] — happens-before data races (the classic
//!   FastTrack analysis);
//! - [`ShbRaceDetector`] — schedulable-happens-before races, which are
//!   guaranteed to correspond to real reorderings (Mathur et al.,
//!   OOPSLA 2018);
//! - [`MazAnalyzer`] — Mazurkiewicz *reversible pairs*: conflicting
//!   pairs whose ordering is forced only by the direct conflict edge.
//!   These are the candidate backtracking points a stateless model
//!   checker (DPOR) explores.
//!
//! All analyzers are generic over the clock data structure, so the
//! paper's "PO + analysis" comparison is again a single type-parameter
//! swap.
//!
//! # Example
//!
//! ```rust
//! use tc_analysis::HbRaceDetector;
//! use tc_core::TreeClock;
//! use tc_trace::TraceBuilder;
//!
//! let mut b = TraceBuilder::new();
//! b.write(0, "x");
//! b.write(1, "x"); // no synchronization in between: a data race
//! let trace = b.finish();
//!
//! let report = HbRaceDetector::<TreeClock>::new(&trace).run(&trace);
//! assert_eq!(report.total, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod epoch;
pub mod hb_race;
pub mod maz_analysis;
pub mod report;
pub mod shb_race;

pub use epoch::{upcoming_epoch, ReadsSnapshot, VarHistories, VarHistory, VarHistorySnapshot};
pub use hb_race::HbRaceDetector;
pub use maz_analysis::MazAnalyzer;
pub use report::{Race, RaceKind, RaceReport};
pub use shb_race::ShbRaceDetector;

// The race detectors and analyzers ride inside streaming sessions, so
// they must stay `Send` over every backend — compile-time asserted,
// two backends × three orders.
const _: () = {
    const fn assert_send<T: Send>() {}
    use tc_core::{TreeClock, VectorClock};
    assert_send::<HbRaceDetector<TreeClock>>();
    assert_send::<HbRaceDetector<VectorClock>>();
    assert_send::<ShbRaceDetector<TreeClock>>();
    assert_send::<ShbRaceDetector<VectorClock>>();
    assert_send::<MazAnalyzer<TreeClock>>();
    assert_send::<MazAnalyzer<VectorClock>>();
};
