//! Online, bounded-memory streaming race detection.
//!
//! Everything below this crate is batch: a trace must be fully
//! materialized before any engine sees an event, and every clock lives
//! until the run ends. The paper's engines are intrinsically *online* —
//! each event touches O(1) clocks — so this crate exposes them that
//! way:
//!
//! - [`IncrementalDetector`] — a feed-one-event race detector over any
//!   partial order (HB/SHB/MAZ) and either clock backend
//!   (tree/vector), producing reports and per-event timestamps
//!   *identical* to the batch detectors (conformance-enforced), with
//!   bounded memory: thread clocks are retired to the
//!   [`ClockPool`](tc_core::ClockPool) at `join`, and cold lock/
//!   variable clocks dominated by every live thread can be evicted.
//! - [`Checkpoint`] — a serializable value-level snapshot of a live
//!   session ([`Checkpoint::write`]/[`Checkpoint::read`]); resuming
//!   from it yields byte-identical subsequent reports.
//! - [`Session`] / [`Server`] — a line-protocol analysis service
//!   (`tcr serve`): concurrent sessions sharded across worker threads,
//!   each an independent detector fed over TCP, with live race
//!   polling, statistics, and server-side checkpoints. `tcr stream`
//!   drives the same [`Session`] machinery over a file through
//!   [`EventReader`](tc_trace::EventReader) without materializing the
//!   trace.
//!
//! The streaming-vs-batch equivalence — reports and final vector
//! times equal on every corpus trace, across both backends, and
//! across a mid-stream checkpoint/restore — is enforced by
//! `tc-conformance`'s sweep on every quick-corpus case.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod detector;
pub mod metrics;
pub mod service;
pub mod session;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use detector::{DetectorConfig, FeedError, IncrementalDetector};
pub use metrics::{ServiceMetrics, SharedMetrics};
pub use service::{
    constant_time_eq, parse_open, smoke, write_or_sever, Client, ServeConfig, Server,
    CLIENT_WRITE_TIMEOUT,
};
pub use session::{AnyDetector, ClockChoice, Session};
