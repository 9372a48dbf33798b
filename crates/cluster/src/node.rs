//! [`NodeCore`] — one cluster node's brain, free of any I/O.
//!
//! The core is a deterministic state machine: the transport (socket
//! server or the in-process [`LocalCluster`]) feeds it client lines,
//! client frames and peer messages, and collects the [`Output`]s it
//! queued — text back to clients, [`ClusterMsg`]s to peers. Keeping
//! every routing, replication and failover decision in one
//! single-threaded, transport-agnostic type is what lets the
//! conformance suite drive a whole ring in-process and byte-compare
//! its answers against the batch pipeline.
//!
//! Responsibilities, in the order a request meets them:
//!
//! 1. **Gateway**: any node accepts any client. Handshake lines
//!    (`auth`, `open`, `use`, `metrics`, `shutdown`, `ring`,
//!    `handoff`) are answered here; session traffic is routed by the
//!    consistent-hash [`HashRing`] (plus the handoff
//!    [`assignments`](NodeCore) override) and forwarded to the owner
//!    over a FIFO peer link when it is remote. Replies ride back on
//!    tokens, so the client never learns which node did the work.
//! 2. **Owner**: runs the [`Session`], counts its payloads
//!    (`frame_seq`), mirrors every payload to the ring-successor
//!    replica, and every `delta_every` payloads ships a TCCP
//!    checkpoint as a byte [`ByteDelta`] against the newest
//!    stability-acknowledged base.
//! 3. **Replica**: holds materialized checkpoint bases plus the tail
//!    of raw payloads past the newest base, acknowledging applied
//!    link sequence numbers through its gossiped [`MatrixClock`] row.
//! 4. **Failover**: when the ring declares a node dead, each key the
//!    dead node owned lands — by ring construction — on the node
//!    already holding its replica, which resumes from the newest
//!    base, silently replays the tail, and starts replicating to its
//!    own successor. Race reports come out identical to an
//!    uninterrupted run.
//!
//! [`LocalCluster`]: crate::testing::LocalCluster

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use tc_stream::checkpoint::Checkpoint;
use tc_stream::session::Session;
use tc_stream::{constant_time_eq, parse_open};
use tc_telemetry::Registry;
use tc_trace::{ClusterMsg, Event};

use crate::delta::ByteDelta;
use crate::matrix::MatrixClock;
use crate::metrics::ClusterMetrics;
use crate::ring::HashRing;
use crate::ClusterConfig;

/// A transport-assigned client-connection handle; the core only ever
/// echoes it back in [`Output::Client`].
pub type ConnId = u64;

/// One queued effect of feeding the core.
#[derive(Debug, Clone)]
pub enum Output {
    /// Write `text` to client connection `0` (possibly multi-line,
    /// already newline-terminated).
    Client(ConnId, String),
    /// Send a cluster message to peer node `0`. Links are FIFO; the
    /// protocol depends on per-link ordering and nothing else.
    Peer(u32, ClusterMsg),
    /// This node must stop serving: a (successfully authed) client
    /// asked it to shut down, or a peer's [`ClusterMsg::Evicted`]
    /// notice revealed the ring has already failed this node over —
    /// continuing would split the brain, so it fences itself.
    Shutdown,
}

/// Per-client-connection state at the gateway.
#[derive(Debug, Default)]
struct ConnState {
    /// Session bare text lines are bound to (`open`/`use` set it).
    current: Option<u64>,
    /// Whether `auth` succeeded on this connection.
    authed: bool,
}

/// A raw replicated payload — exactly what the owner applied.
#[derive(Debug, Clone)]
enum Payload {
    /// A protocol text line (event syntax; interned by the session).
    Text(String),
    /// A binary frame's event batch.
    Frame(Vec<Event>),
}

/// Owner-side state for a session this node runs.
struct Owned {
    session: Session,
    /// Payloads applied so far — the replication stream's clock.
    frame_seq: u64,
    /// Current replica node (`None` only when this node is the sole
    /// survivor).
    target: Option<u32>,
    /// Newest checkpoint the replica has *acknowledged* materializing
    /// (via the matrix clock); deltas are diffed against it.
    base_bytes: Vec<u8>,
    /// `frame_seq` the acknowledged base was taken at (0 = empty).
    base_seq: u64,
    /// Deltas shipped but not yet stability-acknowledged:
    /// `(link_seq, frame_seq, checkpoint_bytes)`. Stability promotes
    /// the newest covered entry to the new base and drops the rest —
    /// the matrix-clock stable-prefix GC.
    shipped: Vec<(u64, u64, Vec<u8>)>,
}

/// Replica-side state for a session owned elsewhere.
#[derive(Debug)]
struct Replica {
    /// The node currently shipping this stream (re-keyed on failover
    /// and handoff).
    origin: u32,
    /// Materialized checkpoints `(frame_seq, bytes)`, ascending. The
    /// owner's `base_seq` names one of these; older entries are
    /// dropped as the owner's base advances.
    bases: Vec<(u64, Vec<u8>)>,
    /// Raw payloads past the newest base, `(frame_seq, payload)` —
    /// the in-flight tail a promotion replays.
    tail: Vec<(u64, Payload)>,
}

/// The deterministic, I/O-free core of one cluster node.
pub struct NodeCore {
    config: ClusterConfig,
    ring: HashRing,
    matrix: MatrixClock,
    registry: Registry,
    metrics: ClusterMetrics,
    conns: HashMap<ConnId, ConnState>,
    owned: HashMap<u64, Owned>,
    replicas: HashMap<u64, Replica>,
    /// Handoff overrides: session → owning node, consulted before the
    /// ring.
    assignments: HashMap<u64, u32>,
    /// Per-peer-link replication sequence counters (`sent[t]` = last
    /// seq shipped to node `t`).
    sent: Vec<u64>,
    /// Tokens for forwarded requests awaiting their [`ClusterMsg::Reply`]:
    /// token → (client connection, node the forward targeted). The
    /// target lets a failover fail these fast instead of leaving the
    /// client waiting on a reply that will never come.
    pending: HashMap<u64, (ConnId, u32)>,
    /// Sessions dropped during a failed promotion (the owner died
    /// before any checkpoint base reached the replica, or the base
    /// was corrupt). Kept so clients get an explicit "lost in
    /// failover" error instead of a generic unknown-session one.
    lost: HashSet<u64>,
    next_token: u64,
    /// Local session-id allocation counter (node-stamped: the id's
    /// residue mod the cluster size identifies the allocating node,
    /// so gateways never collide).
    next_id: u64,
    outputs: Vec<Output>,
}

impl std::fmt::Debug for NodeCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeCore")
            .field("me", &self.config.me)
            .field("nodes", &self.config.nodes)
            .field("owned", &self.owned.len())
            .field("replicas", &self.replicas.len())
            .finish_non_exhaustive()
    }
}

impl NodeCore {
    /// A fresh node for `config`, with every peer presumed live.
    pub fn new(config: ClusterConfig) -> NodeCore {
        assert!(
            (config.me as usize) < config.nodes,
            "node index {} out of range for {} nodes",
            config.me,
            config.nodes
        );
        let registry = Registry::new();
        let metrics = ClusterMetrics::new(&registry);
        NodeCore {
            ring: HashRing::new(config.nodes),
            matrix: MatrixClock::new(config.nodes, config.me),
            registry,
            metrics,
            conns: HashMap::new(),
            owned: HashMap::new(),
            replicas: HashMap::new(),
            assignments: HashMap::new(),
            sent: vec![0; config.nodes],
            pending: HashMap::new(),
            lost: HashSet::new(),
            next_token: 0,
            next_id: 0,
            outputs: Vec::new(),
            config,
        }
    }

    /// This node's index in the peer set.
    pub fn me(&self) -> u32 {
        self.config.me
    }

    /// The node's metric registry (served on the `metrics` line).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The node currently responsible for `session`: the handoff
    /// assignment if one exists, else ring placement. Every live node
    /// computes the same answer from the same ring + assignment state.
    pub fn place(&self, session: u64) -> u32 {
        self.assignments
            .get(&session)
            .copied()
            .filter(|&n| self.ring.is_live(n))
            .unwrap_or_else(|| self.ring.owner(session))
    }

    /// The replica target for `session` when owned by `owner`.
    pub fn replica_for(&self, session: u64, owner: u32) -> Option<u32> {
        self.ring.successor(session, owner)
    }

    /// `true` while this node runs `session` itself.
    pub fn owns(&self, session: u64) -> bool {
        self.owned.contains_key(&session)
    }

    /// `true` while this node holds replica state for `session`.
    pub fn holds_replica(&self, session: u64) -> bool {
        self.replicas.contains_key(&session)
    }

    /// Drains everything queued since the last drain.
    pub fn drain(&mut self) -> Vec<Output> {
        std::mem::take(&mut self.outputs)
    }

    /// Drops per-connection state after a client disconnect. Sessions
    /// survive their connections (the `use <id>` contract).
    pub fn client_closed(&mut self, conn: ConnId) {
        self.conns.remove(&conn);
        self.pending.retain(|_, (c, _)| *c != conn);
    }

    /// Counts a rejected peer-plane authentication (the transport
    /// detected a bad or missing [`ClusterMsg::Hello`] token before
    /// any message reached the core).
    pub fn peer_auth_failed(&mut self) {
        self.metrics.auth_errors.inc();
    }

    // ---- gateway: client traffic ------------------------------------

    /// Feeds one client text line.
    pub fn client_line(&mut self, conn: ConnId, line: &str) {
        let line = line.trim();
        if self.is_handshake(line) {
            self.handle_handshake(conn, line);
            return;
        }
        let Some(session) = self.conns.entry(conn).or_default().current else {
            self.reply(conn, "err no session bound; `open` or `use` first\n");
            return;
        };
        self.route_line(conn, session, line);
    }

    /// Feeds one client binary frame (already decoded by the
    /// transport). Frames address sessions explicitly.
    pub fn client_frame(&mut self, conn: ConnId, session: u64, events: &[Event]) {
        let owner = self.place(session);
        if owner == self.config.me {
            let out = self.apply_frame_owned(session, events);
            match out {
                Some(out) if !out.is_empty() => self.reply(conn, &out),
                Some(_) => {}
                None => {
                    let msg = self.unknown_session(session);
                    self.reply(conn, &msg);
                }
            }
        } else {
            let token = self.track(conn, owner);
            self.metrics.forwards.inc();
            self.push_peer(
                owner,
                ClusterMsg::ForwardFrame {
                    origin: self.config.me,
                    token,
                    session,
                    events: events.to_vec(),
                },
            );
        }
    }

    /// Routes a session-bound text line to its owner.
    fn route_line(&mut self, conn: ConnId, session: u64, line: &str) {
        let owner = self.place(session);
        if owner == self.config.me {
            match self.apply_line_owned(session, line) {
                Some(out) => {
                    if !out.is_empty() {
                        self.reply(conn, &out);
                    }
                }
                None => {
                    let msg = self.unknown_session(session);
                    self.reply(conn, &msg);
                }
            }
        } else {
            let token = self.track(conn, owner);
            self.metrics.forwards.inc();
            self.push_peer(
                owner,
                ClusterMsg::ForwardLine {
                    origin: self.config.me,
                    token,
                    session,
                    text: line.to_owned(),
                },
            );
        }
    }

    fn is_handshake(&self, line: &str) -> bool {
        let head = line.split_whitespace().next().unwrap_or("");
        matches!(
            head,
            "auth"
                | "open"
                | "use"
                | "resume"
                | "metrics"
                | "shutdown"
                | "ring"
                | "handoff"
                | "stats-all"
        )
    }

    fn handle_handshake(&mut self, conn: ConnId, line: &str) {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.split_first() {
            Some((&"auth", rest)) => {
                let token = rest.join(" ");
                match &self.config.auth {
                    Some(required) if !constant_time_eq(required.as_bytes(), token.as_bytes()) => {
                        self.metrics.auth_errors.inc();
                        self.reply(conn, "err bad auth token\n");
                    }
                    _ => {
                        self.conns.entry(conn).or_default().authed = true;
                        self.reply(conn, "ok authed\n");
                    }
                }
            }
            Some((&"open", rest)) => self.handle_open(conn, rest, line),
            Some((&"use", [id])) => match id.parse::<u64>() {
                Ok(id) => {
                    // The owner may be remote; binding is optimistic
                    // (first routed line surfaces an unknown id), but
                    // a locally-owned id is checked on the spot.
                    if self.place(id) == self.config.me && !self.owned.contains_key(&id) {
                        let msg = self.unknown_session(id);
                        self.reply(conn, &msg);
                    } else {
                        self.conns.entry(conn).or_default().current = Some(id);
                        self.reply(conn, &format!("ok session {id} attached\n"));
                    }
                }
                Err(_) => self.reply(conn, "err `use` takes a session id\n"),
            },
            Some((&"metrics", _)) => {
                let body = self.registry.render_prometheus();
                self.reply(conn, &body);
            }
            Some((&"shutdown", _)) => {
                if self.auth_gate(conn, "shutdown") {
                    self.reply(conn, "ok shutting-down\n");
                    self.outputs.push(Output::Shutdown);
                }
            }
            Some((&"ring", rest)) => self.handle_ring(conn, rest),
            Some((&"handoff", rest)) => self.handle_handoff_cmd(conn, rest),
            Some((&"resume", _)) | Some((&"stats-all", _)) => {
                self.reply(
                    conn,
                    &format!("err {} is not supported in cluster mode\n", parts[0]),
                );
            }
            _ => self.reply(conn, "err expected `open <order> <clock>`\n"),
        }
    }

    /// The error for a session this node should own but does not run:
    /// distinguishes "never existed here" from "dropped in a failover
    /// because no checkpoint base had been replicated yet".
    fn unknown_session(&self, id: u64) -> String {
        if self.lost.contains(&id) {
            format!("err session {id} lost in failover; no checkpoint base was replicated\n")
        } else {
            format!("err unknown session {id}\n")
        }
    }

    /// Refuses an auth-gated command on an unauthenticated connection
    /// when a token is configured. Returns `true` when allowed.
    fn auth_gate(&mut self, conn: ConnId, what: &str) -> bool {
        let authed = self.conns.entry(conn).or_default().authed;
        if self.config.auth.is_some() && !authed {
            self.metrics.auth_errors.inc();
            self.reply(conn, &format!("err auth required for {what}\n"));
            return false;
        }
        true
    }

    fn handle_open(&mut self, conn: ConnId, rest: &[&str], line: &str) {
        // Validate locally before allocating an id or forwarding —
        // gateway and owner run the same parser, so a forwarded open
        // can only fail if the owner dies mid-flight.
        if let Err(e) = parse_open(rest) {
            self.reply(conn, &format!("err {e}\n"));
            return;
        }
        // Node-stamped ids: residue mod the cluster size identifies
        // the allocating gateway, so concurrent opens on different
        // nodes never collide.
        self.next_id += 1;
        let id = u64::from(self.config.me) + self.config.nodes as u64 * self.next_id;
        self.conns.entry(conn).or_default().current = Some(id);
        let owner = self.place(id);
        if owner == self.config.me {
            let reply = self.open_owned(id, rest);
            self.reply(conn, &reply);
        } else {
            let token = self.track(conn, owner);
            self.metrics.forwards.inc();
            self.push_peer(
                owner,
                ClusterMsg::ForwardLine {
                    origin: self.config.me,
                    token,
                    session: id,
                    text: line.to_owned(),
                },
            );
        }
    }

    fn handle_ring(&mut self, conn: ConnId, rest: &[&str]) {
        if !self.auth_gate(conn, "ring") {
            return;
        }
        let reply = match rest {
            [] => {
                let live: Vec<String> = self.ring.live_nodes().iter().map(u32::to_string).collect();
                format!(
                    "ok ring nodes={} live={} me={}\n",
                    self.config.nodes,
                    live.join(","),
                    self.config.me
                )
            }
            [id] => match id.parse::<u64>() {
                Ok(id) => {
                    let owner = self.place(id);
                    match self.replica_for(id, owner) {
                        Some(r) => format!("ok session {id} owner {owner} replica {r}\n"),
                        None => format!("ok session {id} owner {owner} replica -\n"),
                    }
                }
                Err(_) => "err `ring` takes an optional session id\n".to_owned(),
            },
            _ => "err `ring` takes an optional session id\n".to_owned(),
        };
        self.reply(conn, &reply);
    }

    fn handle_handoff_cmd(&mut self, conn: ConnId, rest: &[&str]) {
        if !self.auth_gate(conn, "handoff") {
            return;
        }
        let Some(Ok(session)) = rest.first().map(|s| s.parse::<u64>()) else {
            self.reply(conn, "err `handoff` takes a session id\n");
            return;
        };
        let owner = self.place(session);
        if owner == self.config.me {
            let reply = self.handoff_owned(session);
            self.reply(conn, &reply);
        } else {
            // The owner executes handoffs; forward the command line.
            let token = self.track(conn, owner);
            self.metrics.forwards.inc();
            self.push_peer(
                owner,
                ClusterMsg::ForwardLine {
                    origin: self.config.me,
                    token,
                    session,
                    text: format!("handoff {session}"),
                },
            );
        }
    }

    // ---- owner: sessions, replication, handoff ----------------------

    /// Opens session `id` locally and ships its initial snapshot to
    /// the replica, so every session is recoverable from frame one.
    fn open_owned(&mut self, id: u64, rest: &[&str]) -> String {
        match parse_open(rest) {
            Ok((clock, config)) => {
                let session = Session::new(id, clock, config);
                let reply = format!(
                    "ok session {id} order {} clock {}\n",
                    config.order,
                    session.detector().backend_name()
                );
                let target = self.replica_for(id, self.config.me);
                self.owned.insert(
                    id,
                    Owned {
                        session,
                        frame_seq: 0,
                        target,
                        base_bytes: Vec::new(),
                        base_seq: 0,
                        shipped: Vec::new(),
                    },
                );
                self.metrics.sessions_owned.add(1);
                self.ship_delta(id);
                reply
            }
            Err(e) => format!("err {e}\n"),
        }
    }

    /// Applies a text line to an owned session, replicating it when
    /// it is a payload. Returns `None` for an unknown session.
    fn apply_line_owned(&mut self, id: u64, line: &str) -> Option<String> {
        let own = self.owned.get_mut(&id)?;
        let mut out = String::new();
        let open = own.session.handle_line(line, &mut out);
        if is_payload(line) {
            own.frame_seq += 1;
            let frame_seq = own.frame_seq;
            self.replicate(id, frame_seq, Payload::Text(line.to_owned()));
        } else if !open {
            self.retire_owned(id);
        }
        Some(out)
    }

    /// Applies a frame to an owned session and replicates it.
    fn apply_frame_owned(&mut self, id: u64, events: &[Event]) -> Option<String> {
        let own = self.owned.get_mut(&id)?;
        let mut out = String::new();
        own.session.handle_frame(events, &mut out);
        own.frame_seq += 1;
        let frame_seq = own.frame_seq;
        self.replicate(id, frame_seq, Payload::Frame(events.to_vec()));
        Some(out)
    }

    /// Mirrors one applied payload to the replica and, on the delta
    /// cadence, ships a checkpoint delta behind it.
    fn replicate(&mut self, id: u64, frame_seq: u64, payload: Payload) {
        let Some(target) = self.owned[&id].target else {
            return;
        };
        let seq = self.next_seq(target);
        let msg = match payload {
            Payload::Text(text) => ClusterMsg::ReplText {
                origin: self.config.me,
                seq,
                session: id,
                frame_seq,
                text,
            },
            Payload::Frame(events) => ClusterMsg::ReplFrame {
                origin: self.config.me,
                seq,
                session: id,
                frame_seq,
                events,
            },
        };
        self.metrics.repl_payloads.inc();
        self.push_peer(target, msg);
        if frame_seq.is_multiple_of(self.config.delta_every) {
            self.ship_delta(id);
        }
    }

    /// Ships the session's current checkpoint to its replica as a
    /// delta against the newest stability-acknowledged base.
    fn ship_delta(&mut self, id: u64) {
        let own = self.owned.get_mut(&id).expect("delta for owned session");
        let Some(target) = own.target else {
            return;
        };
        let bytes = own.session.checkpoint().to_bytes();
        let diff = ByteDelta::diff(&own.base_bytes, &bytes);
        let frame_seq = own.frame_seq;
        let base_seq = own.base_seq;
        self.metrics.deltas.inc();
        self.metrics.delta_bytes.add(diff.len() as u64);
        self.metrics.checkpoint_bytes.add(bytes.len() as u64);
        let seq = self.next_seq(target);
        self.owned
            .get_mut(&id)
            .expect("still owned")
            .shipped
            .push((seq, frame_seq, bytes));
        self.push_peer(
            target,
            ClusterMsg::Delta {
                origin: self.config.me,
                seq,
                session: id,
                frame_seq,
                base_seq,
                bytes: diff.to_bytes(),
            },
        );
    }

    /// Drops a closed session and tells the replica to do the same.
    fn retire_owned(&mut self, id: u64) {
        let Some(own) = self.owned.remove(&id) else {
            return;
        };
        self.metrics.sessions_owned.sub(1);
        self.assignments.remove(&id);
        if let Some(target) = own.target {
            let seq = self.next_seq(target);
            self.push_peer(
                target,
                ClusterMsg::Retire {
                    origin: self.config.me,
                    seq,
                    session: id,
                },
            );
        }
    }

    /// Hands an owned session to its replica: final full-state delta,
    /// then an assignment broadcast. The peer link's FIFO order
    /// guarantees the target materializes the state before it sees
    /// the assignment that promotes it.
    fn handoff_owned(&mut self, id: u64) -> String {
        if !self.owned.contains_key(&id) {
            return self.unknown_session(id);
        }
        let Some(target) = self.owned[&id].target else {
            return "err no live replica to hand off to\n".to_owned();
        };
        // Reset the delta base so the closing delta carries the whole
        // checkpoint — the target may be arbitrarily far behind.
        {
            let own = self.owned.get_mut(&id).expect("checked owned");
            own.base_bytes = Vec::new();
            own.base_seq = 0;
            own.shipped.clear();
        }
        self.ship_delta(id);
        self.assignments.insert(id, target);
        for peer in self.ring.live_nodes() {
            if peer != self.config.me {
                self.push_peer(
                    peer,
                    ClusterMsg::Assign {
                        session: id,
                        node: target,
                    },
                );
            }
        }
        self.owned.remove(&id);
        self.metrics.sessions_owned.sub(1);
        format!("ok handoff {id} -> node {target}\n")
    }

    // ---- peer plane -------------------------------------------------

    /// Feeds one decoded peer message.
    pub fn peer_msg(&mut self, msg: ClusterMsg) {
        // Traffic from a node this ring has already evicted means the
        // "dead" peer is in fact still running (a long stall, a
        // partition). Processing it would resurrect replica state or
        // answer a split brain's forwards; instead repeat the
        // eviction notice so the zombie fences itself off. Eviction
        // is permanent — the failure model is crash-stop.
        let claimed = match &msg {
            ClusterMsg::Hello { node, .. }
            | ClusterMsg::Heartbeat { node }
            | ClusterMsg::StableVector { node, .. } => Some(*node),
            ClusterMsg::ForwardLine { origin, .. }
            | ClusterMsg::ForwardFrame { origin, .. }
            | ClusterMsg::ReplFrame { origin, .. }
            | ClusterMsg::ReplText { origin, .. }
            | ClusterMsg::Delta { origin, .. }
            | ClusterMsg::Retire { origin, .. } => Some(*origin),
            ClusterMsg::Reply { .. } | ClusterMsg::Assign { .. } | ClusterMsg::Evicted { .. } => {
                None
            }
        };
        if let Some(node) = claimed {
            if node != self.config.me && !self.ring.is_live(node) {
                self.push_peer(node, ClusterMsg::Evicted { node });
                return;
            }
        }
        match msg {
            ClusterMsg::Hello { .. } | ClusterMsg::Heartbeat { .. } => {
                // Liveness bookkeeping belongs to the transport; the
                // core only acts on `fail_node`.
            }
            ClusterMsg::Evicted { node } => {
                if node == self.config.me {
                    // A peer failed this node over while it was still
                    // running: self-fence rather than keep serving
                    // divergent state to connected clients.
                    self.metrics.fenced.inc();
                    self.outputs.push(Output::Shutdown);
                }
            }
            ClusterMsg::ForwardLine {
                origin,
                token,
                session,
                text,
            } => {
                self.forwarded_line(origin, token, session, &text);
            }
            ClusterMsg::ForwardFrame {
                origin,
                token,
                session,
                events,
            } => {
                if self.place(session) != self.config.me {
                    // Stale routing (handoff or failover in flight):
                    // chain-forward; the reply flows straight back to
                    // the originating gateway.
                    let owner = self.place(session);
                    self.push_peer(
                        owner,
                        ClusterMsg::ForwardFrame {
                            origin,
                            token,
                            session,
                            events,
                        },
                    );
                    return;
                }
                let reply = match self.apply_frame_owned(session, &events) {
                    Some(out) => out,
                    None => self.unknown_session(session),
                };
                self.push_peer(origin, ClusterMsg::Reply { token, text: reply });
            }
            ClusterMsg::Reply { token, text } => {
                if let Some((conn, _)) = self.pending.remove(&token) {
                    if !text.is_empty() {
                        self.reply(conn, &text);
                    }
                }
            }
            ClusterMsg::ReplText {
                origin,
                seq,
                session,
                frame_seq,
                text,
            } => {
                self.matrix.record(origin, seq);
                self.replica_payload(origin, session, frame_seq, Payload::Text(text));
            }
            ClusterMsg::ReplFrame {
                origin,
                seq,
                session,
                frame_seq,
                events,
            } => {
                self.matrix.record(origin, seq);
                self.replica_payload(origin, session, frame_seq, Payload::Frame(events));
            }
            ClusterMsg::Delta {
                origin,
                seq,
                session,
                frame_seq,
                base_seq,
                bytes,
            } => {
                self.matrix.record(origin, seq);
                if let Some(diff) = ByteDelta::from_bytes(&bytes) {
                    self.replica_delta(origin, session, frame_seq, base_seq, diff);
                }
            }
            ClusterMsg::Retire {
                origin,
                seq,
                session,
            } => {
                self.matrix.record(origin, seq);
                if self.replicas.remove(&session).is_some() {
                    self.metrics.sessions_replicated.sub(1);
                }
                self.assignments.remove(&session);
            }
            ClusterMsg::StableVector { node, seen } => {
                self.matrix.merge_row(node, &seen);
                self.promote_stable_bases();
            }
            ClusterMsg::Assign { session, node } => {
                self.assignments.insert(session, node);
                if node == self.config.me {
                    // The final delta preceded this assignment on the
                    // same FIFO link, so the replica state is current.
                    self.promote_replica(session);
                }
            }
        }
    }

    /// Runs a forwarded text line as the owner (re-forwarding when
    /// routing moved underneath the sender).
    fn forwarded_line(&mut self, origin: u32, token: u64, session: u64, text: &str) {
        if self.place(session) != self.config.me {
            let owner = self.place(session);
            self.push_peer(
                owner,
                ClusterMsg::ForwardLine {
                    origin,
                    token,
                    session,
                    text: text.to_owned(),
                },
            );
            return;
        }
        let head = text.split_whitespace().next().unwrap_or("");
        let reply = if head == "open" {
            // A forwarded open carries the gateway-allocated id.
            let parts: Vec<&str> = text.split_whitespace().skip(1).collect();
            self.open_owned(session, &parts)
        } else if head == "handoff" {
            self.handoff_owned(session)
        } else {
            match self.apply_line_owned(session, text) {
                Some(out) => out,
                None => self.unknown_session(session),
            }
        };
        self.push_peer(origin, ClusterMsg::Reply { token, text: reply });
    }

    // ---- replica plane ----------------------------------------------

    fn replica_entry(&mut self, origin: u32, session: u64) -> &mut Replica {
        let fresh = match self.replicas.get(&session) {
            // A new origin (failover/handoff re-replication) starts a
            // new era; stale state from the old owner is dropped.
            Some(r) => r.origin != origin,
            None => {
                self.metrics.sessions_replicated.add(1);
                true
            }
        };
        if fresh {
            self.replicas.insert(
                session,
                Replica {
                    origin,
                    bases: Vec::new(),
                    tail: Vec::new(),
                },
            );
        }
        self.replicas.get_mut(&session).expect("just ensured")
    }

    fn replica_payload(&mut self, origin: u32, session: u64, frame_seq: u64, payload: Payload) {
        let r = self.replica_entry(origin, session);
        r.tail.push((frame_seq, payload));
    }

    fn replica_delta(
        &mut self,
        origin: u32,
        session: u64,
        frame_seq: u64,
        base_seq: u64,
        diff: ByteDelta,
    ) {
        let r = self.replica_entry(origin, session);
        let base: &[u8] = if base_seq == 0 {
            &[]
        } else {
            match r.bases.iter().find(|&&(seq, _)| seq == base_seq) {
                Some((_, bytes)) => bytes,
                // Unknown base: a re-replication snapshot will follow
                // after the next failover/handoff; drop the delta.
                None => return,
            }
        };
        let Some(bytes) = diff.apply(base) else {
            return;
        };
        // The owner's acknowledged base only advances, so everything
        // older than this delta's base is garbage — the stable-prefix
        // truncation, mirrored on the replica.
        r.bases
            .retain(|&(seq, _)| seq >= base_seq && seq < frame_seq);
        r.bases.push((frame_seq, bytes));
        // Payloads the checkpoint already covers are no longer
        // in-flight.
        r.tail.retain(|&(seq, _)| seq > frame_seq);
    }

    /// Promotes a replica to owner: resume the newest base, silently
    /// replay the in-flight tail, and start replicating onward.
    fn promote_replica(&mut self, session: u64) {
        let Some(r) = self.replicas.remove(&session) else {
            return;
        };
        self.metrics.sessions_replicated.sub(1);
        let Some((base_seq, bytes)) = r.bases.last() else {
            // The owner died before its open snapshot reached this
            // replica; the raw tail alone cannot rebuild the session
            // (the open config lives in the checkpoint). The session
            // is lost — count it and remember the id so clients get
            // an explicit error, not a generic unknown-session one.
            self.metrics.promotions_failed.inc();
            self.lost.insert(session);
            return;
        };
        let Ok(cp) = Checkpoint::from_bytes(bytes) else {
            self.metrics.promotions_failed.inc();
            self.lost.insert(session);
            return;
        };
        let mut session_state = Session::from_checkpoint(session, &cp);
        let mut frame_seq = *base_seq;
        let mut sink = String::new();
        for (seq, payload) in &r.tail {
            if *seq <= frame_seq {
                continue;
            }
            sink.clear();
            match payload {
                Payload::Text(text) => {
                    session_state.handle_line(text, &mut sink);
                }
                Payload::Frame(events) => session_state.handle_frame(events, &mut sink),
            }
            frame_seq = *seq;
            self.metrics.replayed.inc();
        }
        self.metrics.promotions.inc();
        let target = self.replica_for(session, self.config.me);
        self.owned.insert(
            session,
            Owned {
                session: session_state,
                frame_seq,
                target,
                base_bytes: Vec::new(),
                base_seq: 0,
                shipped: Vec::new(),
            },
        );
        self.metrics.sessions_owned.add(1);
        self.assignments.insert(session, self.config.me);
        // Re-replicate in full so the session is again failure-proof.
        self.ship_delta(session);
    }

    // ---- stability, ticks, failover ---------------------------------

    /// Applies the matrix clock's stable prefix: any shipped delta the
    /// replica's gossiped row covers becomes the new diff base, and
    /// older retained checkpoints are truncated.
    fn promote_stable_bases(&mut self) {
        for own in self.owned.values_mut() {
            let Some(target) = own.target else { continue };
            let acked = self.matrix.applied(target, self.config.me);
            let mut newest: Option<(u64, Vec<u8>)> = None;
            own.shipped.retain_mut(|(seq, frame_seq, bytes)| {
                if *seq <= acked {
                    newest = Some((*frame_seq, std::mem::take(bytes)));
                    false
                } else {
                    true
                }
            });
            if let Some((frame_seq, bytes)) = newest {
                own.base_seq = frame_seq;
                own.base_bytes = bytes;
            }
        }
    }

    /// Periodic work: heartbeat + matrix-row gossip to every live
    /// peer. The transport decides the cadence.
    pub fn tick(&mut self) {
        let row = self.matrix.own_row().to_vec();
        for peer in self.ring.live_nodes() {
            if peer == self.config.me {
                continue;
            }
            self.metrics.heartbeats.inc();
            self.push_peer(
                peer,
                ClusterMsg::Heartbeat {
                    node: self.config.me,
                },
            );
            self.push_peer(
                peer,
                ClusterMsg::StableVector {
                    node: self.config.me,
                    seen: row.clone(),
                },
            );
        }
    }

    /// Acts on a peer's death: re-route its keys, promote the replicas
    /// this node holds for it, and re-target replication streams that
    /// pointed at it. Deterministic — every survivor makes the same
    /// decisions from the same ring.
    pub fn fail_node(&mut self, dead: u32) {
        if dead == self.config.me || !self.ring.is_live(dead) {
            return;
        }
        self.metrics.failovers.inc();
        // Forwards in flight to the dead node will never be answered;
        // fail them fast with a retryable error so synchronous
        // clients don't hang across the failover window.
        let orphaned: Vec<u64> = self
            .pending
            .iter()
            .filter(|&(_, &(_, target))| target == dead)
            .map(|(&token, _)| token)
            .collect();
        for token in orphaned {
            let (conn, _) = self.pending.remove(&token).expect("listed above");
            self.reply(conn, "err failover in progress; retry\n");
        }
        // Handoff assignments pinned to the dead node move to the
        // replica holder — the first distinct live node clockwise,
        // computed while the dead node still occupies the ring so the
        // answer matches where replication was actually flowing.
        let reassign: Vec<u64> = self
            .assignments
            .iter()
            .filter(|&(_, &o)| o == dead)
            .map(|(&s, _)| s)
            .collect();
        for s in reassign {
            if let Some(next) = self.ring.successor(s, dead) {
                self.assignments.insert(s, next);
            } else {
                self.assignments.remove(&s);
            }
        }
        self.ring.remove(dead);
        self.matrix.mark_dead(dead);
        // Promote every replica whose stream originated at the dead
        // node and now routes here. (Ring-placed keys land here by
        // construction; assigned keys by the rewrite above.)
        let candidates: Vec<u64> = self
            .replicas
            .iter()
            .filter(|&(_, r)| r.origin == dead)
            .map(|(&s, _)| s)
            .collect();
        for s in candidates {
            if self.place(s) == self.config.me {
                self.promote_replica(s);
            } else {
                // Someone else owns it now; this copy is stale.
                if self.replicas.remove(&s).is_some() {
                    self.metrics.sessions_replicated.sub(1);
                }
            }
        }
        // Streams this node was replicating *to* the dead node must
        // find a new home and restart from a full snapshot.
        let retarget: Vec<u64> = self
            .owned
            .iter()
            .filter(|&(_, o)| o.target == Some(dead))
            .map(|(&s, _)| s)
            .collect();
        for s in retarget {
            let own = self.owned.get_mut(&s).expect("listed above");
            own.target = self.ring.successor(s, self.config.me);
            own.base_bytes = Vec::new();
            own.base_seq = 0;
            own.shipped.clear();
            if own.target.is_some() {
                self.ship_delta(s);
            }
        }
    }

    // ---- plumbing ---------------------------------------------------

    fn next_seq(&mut self, target: u32) -> u64 {
        self.sent[target as usize] += 1;
        self.sent[target as usize]
    }

    fn track(&mut self, conn: ConnId, target: u32) -> u64 {
        self.next_token += 1;
        self.pending.insert(self.next_token, (conn, target));
        self.next_token
    }

    fn reply(&mut self, conn: ConnId, text: &str) {
        self.outputs.push(Output::Client(conn, text.to_owned()));
    }

    fn push_peer(&mut self, peer: u32, msg: ClusterMsg) {
        self.outputs.push(Output::Peer(peer, msg));
    }

    /// A human-readable routing summary (used by tests and the CLI's
    /// startup banner).
    pub fn describe(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "node {}/{}: {} owned, {} replicated, {} live",
            self.config.me,
            self.config.nodes,
            self.owned.len(),
            self.replicas.len(),
            self.ring.live_count()
        );
        s
    }
}

/// `true` for lines the owner must mirror to the replica: everything
/// that can mutate detector state. The session command set (`close`,
/// `poll`, `races`, `stats`, `timestamp`, `checkpoint`) reads or
/// manages the session instead; `poll`'s cursor is deliberately not
/// replicated — after a failover, races already delivered may be
/// delivered again (at-least-once), but reports stay byte-identical.
fn is_payload(line: &str) -> bool {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return false;
    }
    let head = line.split_whitespace().next().unwrap_or("");
    !matches!(
        head,
        "close" | "poll" | "races" | "stats" | "timestamp" | "checkpoint"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(nodes: usize, me: u32) -> ClusterConfig {
        ClusterConfig {
            nodes,
            me,
            delta_every: 2,
            auth: None,
        }
    }

    fn drain_client(core: &mut NodeCore) -> String {
        core.drain()
            .into_iter()
            .filter_map(|o| match o {
                Output::Client(_, text) => Some(text),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn payload_classification_matches_the_session_command_set() {
        for cmd in [
            "close",
            "poll",
            "races",
            "stats",
            "timestamp t0",
            "checkpoint /tmp/x",
        ] {
            assert!(!is_payload(cmd), "{cmd} is a command");
        }
        for ev in [
            "t0 fork t1",
            "event t0 acq l",
            "main read x",
            "",
            "# comment",
        ] {
            assert_eq!(is_payload(ev), !ev.is_empty() && !ev.starts_with('#'));
        }
    }

    #[test]
    fn single_node_cluster_serves_sessions_without_peers() {
        let mut core = NodeCore::new(config(1, 0));
        core.client_line(7, "open hb tc");
        let out = drain_client(&mut core);
        assert!(out.starts_with("ok session"), "got {out:?}");
        core.client_line(7, "t0 fork t1");
        core.client_line(7, "races");
        let out = drain_client(&mut core);
        assert!(out.contains("ok 0 0"), "got {out:?}");
        // No peer messages in a 1-node cluster.
        core.client_line(7, "t1 r x");
        assert!(core.drain().iter().all(|o| matches!(o, Output::Client(..))));
    }

    #[test]
    fn unbound_lines_and_unknown_sessions_err() {
        let mut core = NodeCore::new(config(1, 0));
        core.client_line(1, "poll");
        assert!(drain_client(&mut core).starts_with("err no session bound"));
        core.client_line(1, "use 999999");
        let out = drain_client(&mut core);
        // 999999 may or may not place on node 0 in a 1-node ring — it
        // always does — so this must be the unknown-session error.
        assert!(out.starts_with("err unknown session"), "got {out:?}");
    }

    #[test]
    fn owner_replicates_payloads_and_ships_deltas() {
        // Find an id node 0 owns in a 2-node ring by opening until the
        // reply is local (the allocator stamps ids mod nodes, so half
        // of node 0's allocations are remote).
        let mut core = NodeCore::new(config(2, 0));
        let mut local = None;
        for conn in 0..16 {
            core.client_line(conn, "open hb tc");
            let out = drain_client(&mut core);
            if out.starts_with("ok session") {
                let id: u64 = out.split_whitespace().nth(2).unwrap().parse().unwrap();
                local = Some((conn, id));
                break;
            }
            // Remote opens queue a forward instead of a reply.
        }
        let (conn, id) = local.expect("some allocation lands locally");
        assert!(core.owns(id));
        core.drain();
        core.client_line(conn, "t0 fork t1");
        core.client_line(conn, "t1 r x");
        let peer_msgs: Vec<ClusterMsg> = core
            .drain()
            .into_iter()
            .filter_map(|o| match o {
                Output::Peer(_, m) => Some(m),
                _ => None,
            })
            .collect();
        // Two payloads and (delta_every = 2) one checkpoint delta.
        let texts = peer_msgs
            .iter()
            .filter(|m| matches!(m, ClusterMsg::ReplText { .. }))
            .count();
        let deltas = peer_msgs
            .iter()
            .filter(|m| matches!(m, ClusterMsg::Delta { .. }))
            .count();
        assert_eq!(texts, 2, "both event lines replicate");
        assert_eq!(deltas, 1, "cadence delta after the second payload");
    }

    #[test]
    fn zombie_peers_get_evicted_and_fence_themselves() {
        // Survivor side: traffic from an already-evicted node draws a
        // repeat eviction notice instead of resurrecting state.
        let mut survivor = NodeCore::new(config(3, 1));
        survivor.fail_node(0);
        survivor.drain();
        survivor.peer_msg(ClusterMsg::Heartbeat { node: 0 });
        let outs = survivor.drain();
        assert!(
            outs.iter()
                .any(|o| matches!(o, Output::Peer(0, ClusterMsg::Evicted { node: 0 }))),
            "got {outs:?}"
        );
        // Zombie side: someone else's eviction is none of our
        // business, our own is a death sentence.
        let mut zombie = NodeCore::new(config(3, 0));
        zombie.peer_msg(ClusterMsg::Evicted { node: 2 });
        assert!(!zombie.drain().iter().any(|o| matches!(o, Output::Shutdown)));
        zombie.peer_msg(ClusterMsg::Evicted { node: 0 });
        assert!(zombie.drain().iter().any(|o| matches!(o, Output::Shutdown)));
        assert_eq!(
            zombie.registry().counter_value("tc_cluster_fenced_total"),
            1
        );
    }

    #[test]
    fn failover_fails_pending_forwards_instead_of_hanging() {
        let mut core = NodeCore::new(config(2, 0));
        // Find a conn whose open forwarded to node 1, leaving a reply
        // pending there.
        let mut forwarded = None;
        for conn in 0..16 {
            core.client_line(conn, "open hb tc");
            let remote = core
                .drain()
                .iter()
                .any(|o| matches!(o, Output::Peer(1, ClusterMsg::ForwardLine { .. })));
            if remote {
                forwarded = Some(conn);
                break;
            }
        }
        let conn = forwarded.expect("some open forwards to node 1");
        core.fail_node(1);
        let texts: String = core
            .drain()
            .into_iter()
            .filter_map(|o| match o {
                Output::Client(c, t) if c == conn => Some(t),
                _ => None,
            })
            .collect();
        assert!(
            texts.contains("err failover in progress; retry"),
            "got {texts:?}"
        );
    }

    #[test]
    fn a_session_lost_before_its_first_checkpoint_errs_explicitly() {
        let mut core = NodeCore::new(config(2, 0));
        let id = (0..64)
            .find(|&id| core.place(id) == 1)
            .expect("node 1 owns some id");
        // The owner died after replicating one payload but before any
        // checkpoint base (not even the open snapshot) arrived.
        core.peer_msg(ClusterMsg::ReplText {
            origin: 1,
            seq: 1,
            session: id,
            frame_seq: 1,
            text: "t0 w x".into(),
        });
        core.drain();
        core.fail_node(1);
        core.drain();
        assert_eq!(
            core.registry()
                .counter_value("tc_cluster_promotions_failed_total"),
            1
        );
        core.client_line(9, &format!("use {id}"));
        let out = drain_client(&mut core);
        assert!(
            out.contains(&format!("session {id} lost in failover")),
            "got {out:?}"
        );
    }

    #[test]
    fn auth_gates_admin_commands() {
        let mut core = NodeCore::new(ClusterConfig {
            auth: Some("sekret".to_owned()),
            ..config(1, 0)
        });
        core.client_line(3, "ring");
        assert!(drain_client(&mut core).starts_with("err auth required for ring"));
        core.client_line(3, "shutdown");
        assert!(drain_client(&mut core).starts_with("err auth required for shutdown"));
        core.client_line(3, "auth wrong");
        assert!(drain_client(&mut core).starts_with("err bad auth token"));
        assert_eq!(
            core.registry()
                .counter_value("tc_wire_errors_total{kind=\"auth\"}"),
            3
        );
        core.client_line(3, "auth sekret");
        assert!(drain_client(&mut core).starts_with("ok authed"));
        core.client_line(3, "ring");
        let out = drain_client(&mut core);
        assert!(
            out.starts_with("ok ring nodes=1 live=0 me=0"),
            "got {out:?}"
        );
    }
}
