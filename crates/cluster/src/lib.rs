//! Multi-node race-detection serving — `tcr serve --cluster`.
//!
//! A cluster is a **static peer set** of N nodes, each running the
//! same streaming race-detection service, joined by four mechanisms:
//!
//! - **Consistent-hash routing** ([`ring`]): session ids hash onto a
//!   vnode ring; any node accepts any client and transparently
//!   forwards traffic to the owner, preserving per-session FIFO
//!   order over persistent peer links.
//! - **Checkpoint-delta replication** ([`delta`], [`node`]): the
//!   owner mirrors every payload to its ring successor and
//!   periodically ships its deterministic TCCP checkpoint as a byte
//!   delta against the newest acknowledged base.
//! - **Matrix-clock stability** ([`matrix`]): gossiped apply-
//!   watermarks yield a cluster-wide stable prefix that gates delta
//!   truncation — the distributed analogue of the paper's
//!   monotonicity-based garbage collection.
//! - **Heartbeat failover** ([`node`], [`server`]): a missed
//!   heartbeat removes the node from the ring, which lands each of
//!   its keys exactly on the node already holding the replica; the
//!   replica resumes from its newest checkpoint, replays the
//!   in-flight tail, and race reports come out **identical** to an
//!   uninterrupted run.
//!
//! The deterministic heart of all of this is [`NodeCore`], which is
//! pure state-machine — no sockets, no threads, no clock. The
//! [`testing::LocalCluster`] harness wires N cores together with an
//! in-process message pump (used by the conformance suite's
//! `cluster` check), and [`server::ClusterServer`] gives each core a
//! TCP port, peer links, and a heartbeat ticker for real
//! deployments.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod delta;
pub mod matrix;
pub mod metrics;
pub mod node;
pub mod ring;
pub mod server;
pub mod testing;

pub use delta::ByteDelta;
pub use matrix::MatrixClock;
pub use metrics::ClusterMetrics;
pub use node::{ConnId, NodeCore, Output};
pub use ring::HashRing;
pub use server::ClusterServer;
pub use testing::LocalCluster;

/// Configuration for one cluster node.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Size of the static peer set.
    pub nodes: usize,
    /// This node's index in it (`0..nodes`).
    pub me: u32,
    /// Ship a checkpoint delta to the replica every this many
    /// payloads (events replicate on every payload regardless; the
    /// cadence only bounds replay length and delta size).
    pub delta_every: u64,
    /// Shared-secret token gating `shutdown` and the cluster admin
    /// commands (`ring`, `handoff`); compared in constant time. When
    /// set, inter-node links must prove the same token in their
    /// `Hello`, so the peer plane (`0xF8` messages) is closed to
    /// unauthenticated clients on the shared port. Every node of a
    /// cluster must be configured with the same token.
    pub auth: Option<String>,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            nodes: 1,
            me: 0,
            delta_every: 8,
            auth: None,
        }
    }
}
