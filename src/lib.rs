//! `treeclocks` — a faithful, production-quality Rust reproduction of
//! *"A Tree Clock Data Structure for Causal Orderings in Concurrent
//! Executions"* (Mathur, Pavlogiannis, Tunç, Viswanathan — ASPLOS 2022).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! - [`core`](mod@core) — the [`TreeClock`] data structure, which keeps
//!   dense clocks flat on its timed path, the [`VectorClock`] baseline
//!   and the [`LogicalClock`] abstraction they share.
//! - [`trace`] — the concurrent-execution trace model, validation,
//!   statistics, file formats and synthetic workload generators.
//! - [`orders`] — streaming engines for the happens-before (HB),
//!   schedulable-happens-before (SHB) and Mazurkiewicz (MAZ) partial
//!   orders, generic over the clock, plus work metrics and test oracles.
//! - [`analysis`] — epoch-optimized dynamic analyses built on top:
//!   HB/SHB data-race detection and MAZ reversible-pair analysis.
//! - [`stream`] — online, bounded-memory streaming race detection: an
//!   incremental detector with thread retirement and cold-state
//!   eviction, serializable checkpoints with byte-identical resume,
//!   and the session-sharded `tcr serve` line-protocol service.
//! - [`cluster`] — multi-node serving: a consistent-hash ring places
//!   sessions across a static peer set, non-owner nodes forward
//!   client commands transparently, owners ship rsync-style
//!   checkpoint deltas to their ring successor, and heartbeat-driven
//!   failover resumes dead nodes' sessions with byte-identical race
//!   reports; a per-node matrix clock computes stable prefixes that
//!   bound delta sizes.
//! - [`telemetry`] — the always-on observability core: lock-free
//!   counters/gauges, mergeable log₂-bucketed histograms, and the
//!   Prometheus-style text exposition behind the service's `metrics`
//!   command.
//! - [`conformance`] — the cross-engine conformance harness: a corpus
//!   of trace configurations driven through every engine × backend
//!   combination and cross-checked against the definitional oracles
//!   (including streaming-vs-batch equivalence), with failure
//!   shrinking to minimal replayable repros.
//!
//! # Quickstart
//!
//! ```rust
//! use treeclocks::prelude::*;
//!
//! // A trace with a classic write-write race: t0 writes under the
//! // lock, t1 writes without taking it.
//! let mut b = TraceBuilder::new();
//! b.acquire(0, "m");
//! b.write(0, "x");
//! b.release(0, "m");
//! b.write(1, "x");
//! let trace = b.finish();
//!
//! // Detect HB races using tree clocks.
//! let report = HbRaceDetector::<TreeClock>::new(&trace).run(&trace);
//! assert_eq!(report.races.len(), 1);
//! ```

pub use tc_analysis as analysis;
pub use tc_cluster as cluster;
pub use tc_conformance as conformance;
pub use tc_core as core;
pub use tc_orders as orders;
pub use tc_stream as stream;
pub use tc_telemetry as telemetry;
pub use tc_trace as trace;

pub use tc_core::{
    ClockPool, CopyMode, Epoch, LocalTime, LogicalClock, OpStats, ThreadId, TreeClock, VectorClock,
    VectorTime,
};

/// Convenient glob-import surface: `use treeclocks::prelude::*;`.
pub mod prelude {
    pub use tc_analysis::{HbRaceDetector, MazAnalyzer, ShbRaceDetector};
    pub use tc_core::{
        CopyMode, Epoch, LocalTime, LogicalClock, OpStats, ThreadId, TreeClock, VectorClock,
        VectorTime,
    };
    pub use tc_orders::{HbEngine, MazEngine, RunMetrics, ShbEngine};
    pub use tc_stream::{Checkpoint, DetectorConfig, IncrementalDetector};
    pub use tc_trace::{Event, LockId, Op, Trace, TraceBuilder, VarId};
}
