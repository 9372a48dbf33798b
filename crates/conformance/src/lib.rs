//! Cross-engine conformance harness: the workspace as one big
//! differential test rig.
//!
//! The paper's central claim is *equivalence at lower cost*: tree
//! clocks must compute exactly the same HB/SHB/MAZ orderings as vector
//! clocks on every input — whether a tree clock's timed path kept it a
//! tree or turned it flat. This crate systematically
//! drives every engine × backend combination through a [`Corpus`] of
//! trace configurations (every registered
//! [`Scenario`](tc_trace::gen::Scenario) family plus racy mixed
//! workloads, crossed with thread counts, event budgets and seeds) and
//! cross-checks, per partial order:
//!
//! - **timestamps** — [`TreeClock`](tc_core::TreeClock) and
//!   [`VectorClock`](tc_core::VectorClock) engine runs against the
//!   O(n²) definitional oracle of [`tc_orders::spec`] (identical
//!   timestamp *values* from both backends on every trace);
//! - **reports** — the epoch-optimized detectors of [`tc_analysis`]
//!   must produce byte-identical race/reversible-pair reports for every
//!   backend, every reported pair must be conflicting and concurrent
//!   in the definitional order (soundness), and the HB detector must
//!   find a race exactly when one exists (completeness);
//! - **metrics** — `VTWork` must be representation independent across
//!   both backends, tree-clock work must respect the Theorem 1
//!   bound `TCWork ≤ 3·VTWork` (a property of Algorithm 2, which the
//!   counted tree paths run verbatim), and the
//!   [`OpStats`](tc_core::OpStats) aggregates must be internally
//!   consistent (`changed ≤ examined`).
//!
//! When any check fails, a deterministic event-level bisection
//! ([`shrink_trace`]) minimizes the trace while the failure persists
//! and dumps a replayable repro in the text trace format
//! ([`Repro`]). Test-only [`Fault`] injection demonstrates the whole
//! loop end to end and guards the harness itself against rot.
//!
//! The `tcr conformance` CLI subcommand exposes the same sweep on the
//! command line.
//!
//! # Example
//!
//! ```rust
//! use tc_conformance::{check_trace, Corpus, Fault};
//!
//! // A single trace through every engine × backend × oracle check:
//! let trace = tc_trace::gen::Scenario::Star.generate(4, 150, 1);
//! let summary = check_trace(&trace, Fault::None).expect("conformant");
//! assert_eq!(summary.combos, 6); // 3 orders × 2 backends
//!
//! // The quick corpus used by the tier-1 sweep:
//! assert!(Corpus::quick().cases.len() >= 20);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod corpus;
pub mod fault;
pub mod runner;
pub mod shrink;

pub use check::{
    check_trace, check_trace_pooled, CheckKind, CheckSummary, EnginePools, Failure, CHECKS_PER_CASE,
};
pub use corpus::{CaseConfig, Corpus, TraceSource};
pub use fault::Fault;
pub use runner::{run_sweep, CaseOutcome, SweepOptions, SweepReport};
pub use shrink::{minimize, shrink_trace, Repro};
