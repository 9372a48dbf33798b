//! [`ClusterServer`] — sockets, threads and timers around a
//! [`NodeCore`].
//!
//! One TCP port per node serves **both** planes: the first byte of
//! each message picks the protocol — text lines and `0xF6` binary
//! frames are client traffic, `0xF8` messages are peer traffic (an
//! inbound peer link always opens with [`ClusterMsg::Hello`]). Any
//! other first byte from [`wire::BINARY_MIN`] up is a corrupt client
//! frame, answered with one `err` line before the connection drops.
//! When the node runs with a shared-secret auth token, that Hello must
//! carry it: `0xF8` messages on a connection that has not presented a
//! valid Hello are rejected and the connection dropped, so an
//! unauthenticated client on the shared port cannot reach the peer
//! plane (forwards, replication, session assignment). Outbound peer
//! links are lazy, persistent and FIFO: a dedicated writer thread per
//! peer drains an in-order channel, which — together with the core
//! being fed under one lock — preserves the per-link ordering the
//! replication protocol assumes.
//!
//! A ticker thread drives heartbeats, matrix-row gossip and failure
//! detection: a peer not heard from for `miss_limit` ticks is
//! declared dead and [`NodeCore::fail_node`] runs. Detection is
//! unilateral and eviction permanent — the failure model is
//! crash-stop. A node mis-declared dead (a long stall, a partition)
//! learns of its eviction from the `Evicted` notices peers send back
//! at its next heartbeat and fences itself by shutting down, bounding
//! the split-brain window. [`ClusterServer::abort`] kills a node
//! abruptly (no goodbyes, queued messages dropped) so integration
//! tests can exercise exactly that path.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use tc_stream::{constant_time_eq, write_or_sever, CLIENT_WRITE_TIMEOUT};
use tc_trace::wire::{self, CLUSTER_MAGIC};
use tc_trace::ClusterMsg;

use crate::node::{ConnId, NodeCore, Output};
use crate::ClusterConfig;

/// Default heartbeat/gossip cadence.
pub const DEFAULT_TICK: Duration = Duration::from_millis(50);
/// Default missed-tick budget before a peer is declared dead.
///
/// Eviction is permanent (crash-stop model), so the budget errs
/// large — 20 ticks is a full second at the default cadence — to keep
/// an ordinary GC or scheduler stall from being mistaken for a
/// crash. A node that is mis-declared anyway self-fences on the
/// first eviction notice peers send back.
pub const DEFAULT_MISS_LIMIT: u32 = 20;

struct Shared {
    core: Mutex<NodeCore>,
    me: u32,
    /// Peer addresses, indexed by node id (`peers[me]` is this node).
    peers: Vec<String>,
    /// The shared-secret auth token; when set, peer links must prove
    /// it in their [`ClusterMsg::Hello`].
    auth: Option<String>,
    /// Per-connection reply streams. The inner mutex serializes the
    /// writers a connection can have (its own handler thread plus
    /// peer-reply dispatch) without holding the map lock across a
    /// potentially slow socket write.
    clients: Mutex<HashMap<ConnId, Arc<Mutex<TcpStream>>>>,
    links: Mutex<Vec<Option<mpsc::Sender<ClusterMsg>>>>,
    last_heard: Mutex<Vec<Option<Instant>>>,
    stopping: AtomicBool,
    next_conn: AtomicU64,
    tick: Duration,
    miss_limit: u32,
}

/// One running cluster node: listener, ticker, peer links.
pub struct ClusterServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ClusterServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterServer")
            .field("addr", &self.addr)
            .field("me", &self.shared.me)
            .finish_non_exhaustive()
    }
}

impl ClusterServer {
    /// Binds `addr` and starts serving node `config.me` of the peer
    /// set `peers` (addresses indexed by node id; the entry for this
    /// node is ignored). Heartbeats every [`DEFAULT_TICK`].
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure.
    pub fn start(
        addr: &str,
        peers: Vec<String>,
        config: ClusterConfig,
    ) -> io::Result<ClusterServer> {
        ClusterServer::start_with(addr, peers, config, DEFAULT_TICK, DEFAULT_MISS_LIMIT)
    }

    /// [`ClusterServer::start`] with an explicit heartbeat cadence
    /// and missed-tick budget (tests shrink both).
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure.
    pub fn start_with(
        addr: &str,
        peers: Vec<String>,
        config: ClusterConfig,
        tick: Duration,
        miss_limit: u32,
    ) -> io::Result<ClusterServer> {
        assert_eq!(
            peers.len(),
            config.nodes,
            "one peer address per node (own slot included)"
        );
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let me = config.me;
        let nodes = config.nodes;
        let auth = config.auth.clone();
        let shared = Arc::new(Shared {
            core: Mutex::new(NodeCore::new(config)),
            me,
            peers,
            auth,
            clients: Mutex::new(HashMap::new()),
            links: Mutex::new(vec![None; nodes]),
            last_heard: Mutex::new(vec![None; nodes]),
            stopping: AtomicBool::new(false),
            next_conn: AtomicU64::new(1),
            tick,
            miss_limit,
        });
        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(thread::spawn(move || accept_loop(&shared, &listener)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(thread::spawn(move || ticker_loop(&shared)));
        }
        Ok(ClusterServer {
            shared,
            addr: local,
            threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// This node's index.
    pub fn node(&self) -> u32 {
        self.shared.me
    }

    /// `true` once the node is stopping (a client sent `shutdown`, or
    /// [`ClusterServer::shutdown`]/[`ClusterServer::abort`] ran).
    pub fn stopping(&self) -> bool {
        self.shared.stopping.load(Ordering::SeqCst)
    }

    /// Stops the node and joins its threads.
    pub fn shutdown(mut self) {
        stop(&self.shared, self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Kills the node abruptly: no goodbyes, queued peer messages
    /// dropped, connections die mid-stream. Peers find out the hard
    /// way — via missed heartbeats. This is the failover test's
    /// murder weapon.
    pub fn abort(mut self) {
        stop(&self.shared, self.addr);
        // Join anyway (threads exit fast on the stop flag); "abrupt"
        // is about what peers observe, not about leaking threads.
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Blocks until the node stops on its own (client `shutdown`).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn stop(shared: &Shared, addr: SocketAddr) {
    shared.stopping.store(true, Ordering::SeqCst);
    // Unblock the accept loop.
    let _ = TcpStream::connect(addr);
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut handlers = Vec::new();
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        handlers.push(thread::spawn(move || handle_conn(&shared, stream)));
    }
    for h in handlers {
        let _ = h.join();
    }
}

fn ticker_loop(shared: &Arc<Shared>) {
    while !shared.stopping.load(Ordering::SeqCst) {
        thread::sleep(shared.tick);
        feed(shared, NodeCore::tick);
        // Failure detection: silent-too-long peers die. `None` means
        // never heard from — a node that hasn't joined yet is not
        // dead, just late.
        let deadline = shared.tick * shared.miss_limit;
        let overdue: Vec<u32> = {
            let heard = shared.last_heard.lock().expect("last_heard lock");
            heard
                .iter()
                .enumerate()
                .filter(|&(node, t)| {
                    node as u32 != shared.me && t.map(|t| t.elapsed() > deadline).unwrap_or(false)
                })
                .map(|(node, _)| node as u32)
                .collect()
        };
        for dead in overdue {
            shared.last_heard.lock().expect("last_heard lock")[dead as usize] = None;
            feed(shared, |core| core.fail_node(dead));
        }
    }
}

/// Feeds the core under its lock, queues peer messages **before
/// unlocking** (cheap in-memory channel pushes — that single
/// serialization point keeps per-link peer channels FIFO across
/// concurrently-served client connections), and writes client
/// replies only *after* dropping the lock, so one client that stops
/// reading can never stall request processing, heartbeats or failure
/// detection behind a blocked socket write.
fn feed(shared: &Arc<Shared>, f: impl FnOnce(&mut NodeCore)) {
    let mut replies: Vec<(ConnId, String)> = Vec::new();
    let mut shutdown = false;
    {
        let mut core = shared.core.lock().expect("core lock");
        f(&mut core);
        for out in core.drain() {
            match out {
                Output::Client(conn, text) => replies.push((conn, text)),
                Output::Peer(node, msg) => send_peer(shared, node, msg),
                Output::Shutdown => shutdown = true,
            }
        }
    }
    for (conn, text) in replies {
        write_client(shared, conn, &text);
    }
    if shutdown {
        shared.stopping.store(true, Ordering::SeqCst);
        // Unblock the accept loop (the `stop()` trick) so `join()`
        // returns; without this the node would only actually die on
        // the next inbound connection.
        let _ = TcpStream::connect(&shared.peers[shared.me as usize]);
    }
}

/// Writes one reply to a client connection. The per-connection mutex
/// serializes concurrent repliers; [`write_or_sever`] bounds how long a
/// wedged client can hold it and severs the socket on failure, so the
/// reader side drops the connection.
fn write_client(shared: &Arc<Shared>, conn: ConnId, text: &str) {
    let stream = {
        let clients = shared.clients.lock().expect("clients lock");
        clients.get(&conn).cloned()
    };
    let Some(stream) = stream else { return };
    let stream = stream.lock().expect("client stream lock");
    write_or_sever(&stream, text.as_bytes());
}

/// Queues `msg` on the (lazily created) persistent link to `node`.
fn send_peer(shared: &Arc<Shared>, node: u32, msg: ClusterMsg) {
    let sender = {
        let mut links = shared.links.lock().expect("links lock");
        if links[node as usize].is_none() {
            let (tx, rx) = mpsc::channel::<ClusterMsg>();
            let addr = shared.peers[node as usize].clone();
            let shared = Arc::clone(shared);
            thread::spawn(move || peer_writer(&shared, &addr, &rx));
            links[node as usize] = Some(tx);
        }
        links[node as usize].clone().expect("just ensured")
    };
    // A dead writer means a dead peer; the ticker will notice.
    let _ = sender.send(msg);
}

/// Owns one outbound peer connection: connect (with retries — peers
/// boot in some order), introduce ourselves, then drain the channel
/// in order.
fn peer_writer(shared: &Arc<Shared>, addr: &str, rx: &mpsc::Receiver<ClusterMsg>) {
    let mut stream = None;
    for _ in 0..shared.miss_limit.max(1) * 4 {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        match TcpStream::connect(addr) {
            Ok(s) => {
                // Replication messages are small and back to back; none
                // should wait on the peer's delayed ACK.
                let _ = s.set_nodelay(true);
                stream = Some(s);
                break;
            }
            Err(_) => thread::sleep(shared.tick / 2),
        }
    }
    let Some(mut stream) = stream else { return };
    let hello = wire::encode_cluster(&ClusterMsg::Hello {
        node: shared.me,
        auth: shared
            .auth
            .as_deref()
            .unwrap_or_default()
            .as_bytes()
            .to_vec(),
    })
    .expect("a Hello always encodes");
    if stream.write_all(&hello).is_err() {
        return;
    }
    while let Ok(msg) = rx.recv() {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let Ok(bytes) = wire::encode_cluster(&msg) else {
            continue;
        };
        if stream.write_all(&bytes).is_err() {
            // The peer hung up; drop the backlog (crash model) and
            // let the ticker's heartbeat timeout make it official.
            return;
        }
    }
}

/// Serves one inbound connection — client or peer, decided message
/// by message from the first byte.
fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let conn = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_read_timeout(Some(shared.tick));
    let _ = stream.set_nodelay(true);
    if let Ok(clone) = stream.try_clone() {
        let _ = clone.set_write_timeout(Some(CLIENT_WRITE_TIMEOUT));
        shared
            .clients
            .lock()
            .expect("clients lock")
            .insert(conn, Arc::new(Mutex::new(clone)));
    }
    let mut stream = stream;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // Whether this connection may speak the peer plane: trivially yes
    // without an auth token, otherwise only after a Hello proving it.
    let mut peer_ok = shared.auth.is_none();
    'serve: loop {
        // Drain every complete message already buffered.
        loop {
            if buf.is_empty() {
                break;
            }
            match buf[0] {
                CLUSTER_MAGIC => match wire::try_cluster(&buf) {
                    Ok(Some((msg, used))) => {
                        buf.drain(..used);
                        if let ClusterMsg::Hello { auth, .. } = &msg {
                            let want = shared.auth.as_deref().unwrap_or_default();
                            if constant_time_eq(want.as_bytes(), auth) {
                                peer_ok = true;
                            } else {
                                feed(shared, NodeCore::peer_auth_failed);
                                break 'serve;
                            }
                        } else if !peer_ok {
                            // Peer traffic without a proven Hello is an
                            // unauthenticated client poking the peer
                            // plane (forwards would bypass the auth
                            // gate, replication messages would corrupt
                            // replica state). Kill the link.
                            feed(shared, NodeCore::peer_auth_failed);
                            break 'serve;
                        }
                        peer_message(shared, msg);
                    }
                    Ok(None) => break,
                    Err(_) => break 'serve,
                },
                first if first >= wire::BINARY_MIN => match wire::try_message(&buf) {
                    Ok(Some((msg, used))) => {
                        buf.drain(..used);
                        for f in msg.into_frames() {
                            feed(shared, |core| {
                                core.client_frame(conn, f.session, &f.events);
                            });
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        let _ = stream.write_all(format!("err {e}\n").as_bytes());
                        break 'serve;
                    }
                },
                _ => {
                    let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
                        break;
                    };
                    let line = String::from_utf8_lossy(&buf[..nl]).into_owned();
                    buf.drain(..=nl);
                    feed(shared, |core| core.client_line(conn, &line));
                }
            }
        }
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    shared.clients.lock().expect("clients lock").remove(&conn);
    feed(shared, |core| core.client_closed(conn));
}

/// Routes one inbound peer message: liveness bookkeeping here, the
/// decision-making in the core.
fn peer_message(shared: &Arc<Shared>, msg: ClusterMsg) {
    let sender = match &msg {
        ClusterMsg::Hello { node, .. }
        | ClusterMsg::Heartbeat { node }
        | ClusterMsg::StableVector { node, .. } => Some(*node),
        ClusterMsg::ForwardLine { origin, .. }
        | ClusterMsg::ForwardFrame { origin, .. }
        | ClusterMsg::ReplFrame { origin, .. }
        | ClusterMsg::ReplText { origin, .. }
        | ClusterMsg::Delta { origin, .. }
        | ClusterMsg::Retire { origin, .. } => Some(*origin),
        ClusterMsg::Reply { .. } | ClusterMsg::Assign { .. } | ClusterMsg::Evicted { .. } => None,
    };
    if let Some(node) = sender {
        if let Some(slot) = shared
            .last_heard
            .lock()
            .expect("last_heard lock")
            .get_mut(node as usize)
        {
            *slot = Some(Instant::now());
        }
    }
    feed(shared, |core| core.peer_msg(msg));
}
