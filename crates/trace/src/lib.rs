//! Concurrent execution traces: the input substrate for all partial-order
//! computations in this workspace.
//!
//! A [`Trace`] is a sequence of [`Event`]s — reads, writes, lock
//! acquires/releases, and (as an extension the paper calls
//! "straightforward") thread fork/join — in program observation order
//! (Section 2.1 of the tree-clock paper).
//!
//! The crate provides everything a dynamic-analysis front end needs:
//!
//! - an [`Event`]/[`Op`] model with dense interned identifiers
//!   ([`ThreadId`], [`LockId`], [`VarId`]);
//! - a [`TraceBuilder`] for programmatic construction (by name or by raw
//!   id);
//! - well-formedness [`validation`](validate) (lock discipline,
//!   fork/join sanity);
//! - [`stats`] mirroring the paper's Table 1/Table 3 columns;
//! - a line-oriented [text format](text_format) and a compact
//!   [binary format](binary_format) for logging and replaying traces;
//! - seeded synthetic [generators](gen), including the four controlled
//!   scenarios of the paper's Figure 10 and a general mixed workload
//!   used to simulate the paper's 153-trace benchmark suite.
//!
//! # Example
//!
//! ```rust
//! use tc_trace::{Op, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! b.acquire(0, "m");
//! b.write(0, "x");
//! b.release(0, "m");
//! b.acquire(1, "m");
//! b.read(1, "x");
//! b.release(1, "m");
//! let trace = b.finish();
//!
//! assert_eq!(trace.len(), 6);
//! assert_eq!(trace.thread_count(), 2);
//! trace.validate()?;
//! assert!(matches!(trace[1].op, Op::Write(_)));
//! # Ok::<(), tc_trace::ValidationError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binary_format;
pub mod event;
pub mod gen;
pub mod stats;
pub mod stream;
pub mod text_format;
pub mod trace;
pub mod validate;
pub mod wire;

pub use event::{Event, LockId, Op, VarId};
pub use stats::TraceStats;
pub use stream::{
    EventReader, InternerState, SessionValidator, StreamError, StreamInterner, ValidatorState,
};
pub use trace::{Trace, TraceBuilder};
pub use validate::ValidationError;
pub use wire::{ClusterMsg, Frame, WireError};

pub use tc_core::{LocalTime, ThreadId};
