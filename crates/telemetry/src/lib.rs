//! Always-on telemetry for the streaming detection service.
//!
//! The service is a performance subsystem; tuning it needs a cost
//! profile, not a guess. This crate is the substrate: metric
//! primitives cheap enough to leave on in the hot ingest path, and a
//! scrape surface that renders them for humans and `nc` alike.
//!
//! Two layers:
//!
//! - **Primitives** ([`Counter`], [`Gauge`], [`Histogram`]) — relaxed
//!   atomics only. A counter increment is one `fetch_add(Relaxed)`; a
//!   histogram record is two adds and one bucket add into a fixed
//!   64-slot log₂-bucketed array (HDR-style). Nothing locks, nothing
//!   allocates, recording never blocks a worker.
//! - **Sharding** ([`Registry`]) — counters and gauges registered under
//!   one name share a cell (they are contention-tolerant); histograms
//!   registered under one name get a *fresh shard per registration*,
//!   so each worker records into its own cache lines and shards are
//!   merged only at scrape time ([`Registry::histogram_snapshot`]).
//!
//! Servers always record: a [`Registry`] is always live. Only a
//! handle built directly with [`Counter::null`], [`Gauge::null`] or
//! [`Histogram::null`] is inert.
//!
//! The scrape surface is [`Registry::render_prometheus`]: a
//! Prometheus-style text exposition (counters/gauges as single
//! samples, histograms as summaries with `quantile="0.5|0.95|0.99"`
//! series), terminated with `# EOF` so a line protocol can stream it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod metrics;
mod registry;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{labeled, Registry};
