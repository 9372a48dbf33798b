//! The multi-client streaming service: `tcr serve`.
//!
//! A std-only TCP server (no async runtime — the container is offline
//! and the workspace vendors no executor) built as **blocking
//! per-connection readers over a work-stealing worker pool**:
//!
//! - An **acceptor** thread blocks in `accept` and gives every
//!   connection its own **reader** thread. A reader blocks in `read`,
//!   splits the byte stream into messages (text lines or binary
//!   frames, sniffed by first byte), answers handshake lines inline,
//!   and enqueues everything else onto the addressed session's work
//!   queue. Sockets run with `TCP_NODELAY`, so a short request written
//!   behind a large frame goes out at once instead of waiting for the
//!   peer's delayed ACK.
//! - A pool of **workers** drains those queues. A session is *checked
//!   out* by whichever worker gets to it first (own deque, then the
//!   shared injector, then stealing from siblings), processed for its
//!   whole pending batch, and checked back in. Sessions are plain
//!   `Send` values — nothing pins them to a shard, so one hot session
//!   cannot starve its neighbors and idle workers take work wherever
//!   it piles up. Per-session order is preserved: a session is never
//!   checked out by two workers at once, and its queue drains FIFO.
//!
//! Flow control is per connection. A reader stops reading while its
//! connection has more than [`MAX_QUEUED_EVENTS`] decoded events queued
//! and unprocessed (`tc_read_paused_total`), so TCP pushes back on a
//! client that sends faster than the workers detect. A reply still not
//! out after [`CLIENT_WRITE_TIMEOUT`] because its client stopped
//! reading severs that connection (`tc_conn_severed_total`); the wait
//! holds up only the thread writing it. Nothing polls on a timer: `close` and
//! shutdown shut a socket's read side to wake its reader, and shutdown
//! wakes the acceptor with a loopback connection.
//!
//! ## Wire protocols
//!
//! Both protocols are served on one port; every message is sniffed by
//! its first byte. A first byte of [`wire::BINARY_MIN`] or above, which
//! no UTF-8 text line can start with, goes to the frame decoder, and
//! anything but the `0xF6` frame magic there is a corrupt frame that
//! drops the connection.
//!
//! **Text** — line-oriented, one request per line, as in
//! [`Session::handle_line`]. A connection binds its bare event lines to
//! the most recent session it opened:
//!
//! ```text
//! open <order> <clock> [evict <n>] [no-retire] [recycle]
//! ```
//!
//! answered with `ok session <id> order <order> clock <backend>`;
//! `resume <path>` restores a checkpointed session; `use <id>` rebinds
//! the connection to a session it opened earlier (how a fan-in client
//! synchronizes each of its sessions in turn); `shutdown` stops the
//! whole server (answered `ok shutting-down`). Event lines are
//! silent on success, so a client can pipeline a whole trace and
//! synchronize once with `poll` or `stats`.
//!
//! **Binary** — length-prefixed `0xF6` [wire frames](tc_trace::wire),
//! each carrying batches of dense-id event records for explicit session
//! ids (so one connection can fan events into many sessions). Open a
//! session with a text `open` line, read the id from the reply, then
//! stream frames; text commands (`races`, `stats`, `close`) remain
//! available on the same connection for synchronization. Frames are
//! silent on success and report rejected events as indexed `err at
//! <i>: ...` lines; batching amortizes the syscall, the sniff and the
//! queue hop over hundreds of events, which is where the binary path's
//! throughput comes from (see the README's service section for
//! guidance — frames of 256–1024 events are the sweet spot).

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tc_orders::PartialOrderKind;
use tc_telemetry::{labeled, Counter, Histogram, Registry};
use tc_trace::wire::{self, WireError};
use tc_trace::Event;

use crate::detector::DetectorConfig;
use crate::metrics::{ServiceMetrics, SharedMetrics};
use crate::session::{ClockChoice, Session};

/// Configuration of [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads draining session work queues.
    pub workers: usize,
    /// Shared-secret admin token. When set, `shutdown` (and the
    /// cluster-admin commands of `serve --cluster`) require a prior
    /// `auth <token>` on the same connection; tokens are compared in
    /// constant time and rejected attempts are counted under
    /// `tc_wire_errors_total{kind="auth"}`.
    pub auth: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            auth: None,
        }
    }
}

/// Compares two byte strings in time independent of where they first
/// differ (the admin-token comparison — a timing oracle must not leak
/// the shared secret one byte at a time). Length is folded into the
/// accumulator rather than short-circuited.
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = usize::from(*a.get(i).unwrap_or(&0));
        let y = usize::from(*b.get(i).unwrap_or(&0));
        diff |= x ^ y;
    }
    diff == 0
}

/// Longest text line the server buffers before declaring the
/// connection broken (a missing newline must not buffer unboundedly).
const MAX_LINE_LEN: usize = 1 << 20;

/// Decoded events one connection may have queued and unprocessed
/// before its reader stops reading. A paused reader leaves the rest in
/// the socket, and TCP flow control then pushes back on the client.
pub const MAX_QUEUED_EVENTS: usize = 1 << 17;

/// Bytes a reader asks its socket for per read. The connection's
/// buffer grows past this only to hold a longer partial message; a
/// reader keeps no other scratch space.
pub const READ_CHUNK: usize = 16 * 1024;

/// How long one reply may take to reach a client's socket before the
/// server severs the connection. Both serve modes also set it as the
/// write timeout of every client socket they accept.
pub const CLIENT_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Writes one whole reply to a client socket whose write timeout is
/// [`CLIENT_WRITE_TIMEOUT`]. If the client is gone, or the reply is
/// still not out when the timeout has passed, it shuts the socket down
/// both ways, so its reader sees end of stream and drops the
/// connection, and returns `false`. One blocked write returns within
/// the socket's timeout, so a client that stops reading — or reads a
/// trickle — holds the writer for less than twice the timeout. Callers
/// serialize the writers of one socket.
pub fn write_or_sever(stream: &TcpStream, bytes: &[u8]) -> bool {
    let deadline = Instant::now() + CLIENT_WRITE_TIMEOUT;
    let mut writer = stream;
    let mut rest = bytes;
    loop {
        match writer.write(rest) {
            Ok(n) if n == rest.len() => return true,
            Ok(n) if n > 0 && Instant::now() < deadline => rest = &rest[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            _ => break,
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    false
}

/// How long an idle worker sleeps between work scans (wakeups normally
/// arrive via the condvar; the timeout only bounds steal latency).
const WORKER_PARK: Duration = Duration::from_millis(20);

/// One unit of session work, queued in arrival order.
enum ItemKind {
    /// A block of complete text protocol lines (newline separated).
    Text(String),
    /// One session's event batch from a decoded binary frame.
    Frame(Vec<Event>),
    /// A pre-formatted reply to forward verbatim (used to keep
    /// handshake replies ordered behind in-flight work).
    Write(String),
    /// Fold this session's counters into a `stats-all` aggregation.
    Stats(StatsTicket),
    /// Tear the session down (its home connection went away).
    Close,
}

/// A `stats-all` aggregation in flight. The reader queues one
/// [`ItemKind::Stats`] per session the connection opened; each rides
/// *behind* that session's pending frames, so the aggregate reflects
/// everything sent before the `stats-all` line — the fan-in client's
/// single synchronization point. Whichever worker folds the last
/// session in writes the one reply.
struct AggregateStats {
    remaining: AtomicUsize,
    sessions: usize,
    events: AtomicU64,
    rejected: AtomicU64,
    races: AtomicU64,
    recycled: AtomicU64,
    /// Summed per-session peak clock footprints: the fan-in client's
    /// upper bound on what its sessions cost the server at their worst.
    peak_clock_bytes: AtomicU64,
    /// Summed live (un-retired, un-recycled) thread slots.
    live_threads: AtomicU64,
}

impl AggregateStats {
    fn new(sessions: usize) -> AggregateStats {
        AggregateStats {
            remaining: AtomicUsize::new(sessions),
            sessions,
            events: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            races: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            peak_clock_bytes: AtomicU64::new(0),
            live_threads: AtomicU64::new(0),
        }
    }

    /// Adds one session's counters; `true` when this was the last
    /// outstanding session and the reply must be written.
    #[allow(clippy::too_many_arguments)]
    fn fold(
        &self,
        events: u64,
        rejected: u64,
        races: u64,
        recycled: u64,
        peak_clock_bytes: u64,
        live_threads: u64,
    ) -> bool {
        self.events.fetch_add(events, Ordering::Relaxed);
        self.rejected.fetch_add(rejected, Ordering::Relaxed);
        self.races.fetch_add(races, Ordering::Relaxed);
        self.recycled.fetch_add(recycled, Ordering::Relaxed);
        self.peak_clock_bytes
            .fetch_add(peak_clock_bytes, Ordering::Relaxed);
        self.live_threads.fetch_add(live_threads, Ordering::Relaxed);
        self.remaining.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// One session vanished before folding (closed mid-aggregation);
    /// `true` when that decrement was the last one.
    fn skip(&self) -> bool {
        self.remaining.fetch_sub(1, Ordering::AcqRel) == 1
    }

    fn render(&self) -> String {
        format!(
            "ok stats-all sessions={} events={} rejected={} races={} recycled_slots={} \
             peak_clock_bytes={} live_threads={}\n",
            self.sessions,
            self.events.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.races.load(Ordering::Relaxed),
            self.recycled.load(Ordering::Relaxed),
            self.peak_clock_bytes.load(Ordering::Relaxed),
            self.live_threads.load(Ordering::Relaxed),
        )
    }
}

/// One session's share of a `stats-all` aggregation. Folding marks the
/// ticket spent; an *unspent* ticket dropped on any path — its session
/// closed before the item ran, the enqueue failed, a worker discarded
/// the queue tail after `close` — still decrements in `Drop`, so the
/// client blocking on the single reply can never hang.
struct StatsTicket {
    agg: Arc<AggregateStats>,
    conn: Arc<ConnShared>,
    folded: bool,
}

impl StatsTicket {
    fn fold(
        &mut self,
        events: u64,
        rejected: u64,
        races: u64,
        recycled: u64,
        peak_clock_bytes: u64,
        live_threads: u64,
    ) {
        self.folded = true;
        if self.agg.fold(
            events,
            rejected,
            races,
            recycled,
            peak_clock_bytes,
            live_threads,
        ) {
            self.conn.write_reply(self.agg.render().as_bytes());
        }
    }
}

impl Drop for StatsTicket {
    fn drop(&mut self) {
        if !self.folded && self.agg.skip() {
            self.conn.write_reply(self.agg.render().as_bytes());
        }
    }
}

struct WorkItem {
    kind: ItemKind,
    /// Where replies go; `None` for connection-less teardown.
    origin: Option<Origin>,
}

/// A work item's tie to the connection it came from: where its replies
/// go, and the decoded events it holds against that connection's
/// [`MAX_QUEUED_EVENTS`] bound. Dropping it hands the events back, so
/// an item discarded unprocessed — its session closed, the enqueue
/// failed, the server stopped — still frees a paused reader.
struct Origin {
    conn: Arc<ConnShared>,
    events: usize,
}

impl Origin {
    fn new(conn: &Arc<ConnShared>, events: usize) -> Origin {
        conn.charge(events);
        Origin {
            conn: Arc::clone(conn),
            events,
        }
    }
}

impl Drop for Origin {
    fn drop(&mut self) {
        self.conn.release(self.events);
    }
}

/// A session slot in the registry.
struct SessionSlot {
    /// The session itself; `None` while checked out by a worker.
    session: Option<Box<Session>>,
    /// Queued work, FIFO.
    pending: VecDeque<WorkItem>,
    /// `true` while the session id sits in some worker queue or a
    /// worker is processing it — the single-consumer guarantee.
    scheduled: bool,
}

/// One connection, shared by its reader (reads, handshake replies) and
/// the workers (session replies).
struct ConnShared {
    stream: TcpStream,
    /// Held for a whole reply, so replies never interleave.
    write_turn: Mutex<()>,
    /// Decoded events from this connection not yet processed.
    queued: AtomicUsize,
    /// A paused reader waits on `room` (under `room_lock`) for `queued`
    /// to fall back to the bound or for the connection to stop. The
    /// lock guards no data, so a poisoned one is still safe to use.
    room_lock: Mutex<()>,
    room: Condvar,
    /// Set once the connection is done — `close`, a failed write, or
    /// server shutdown — so its reader exits instead of reading on.
    stopped: AtomicBool,
    metrics: SharedMetrics,
}

impl ConnShared {
    /// Writes one whole reply. A client that has gone, or whose reply
    /// is not out within [`CLIENT_WRITE_TIMEOUT`], is severed; severing
    /// a live connection counts in `tc_conn_severed_total`.
    fn write_reply(&self, bytes: &[u8]) {
        let _turn = self.write_turn.lock().expect("conn write lock");
        if !write_or_sever(&self.stream, bytes) && self.stop() {
            self.metrics.conns_severed.inc();
        }
    }

    /// Marks the connection done and wakes its reader, whether blocked
    /// in `read` or paused for room. Shutting only the read side leaves
    /// replies still queued for the client free to go out. `true` for
    /// the call that stopped it.
    fn stop(&self) -> bool {
        let first = !self.stopped.swap(true, Ordering::SeqCst);
        let room = self
            .room_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.room.notify_all();
        drop(room);
        let _ = self.stream.shutdown(Shutdown::Read);
        first
    }

    /// Counts `events` newly queued from this connection.
    fn charge(&self, events: usize) {
        let queued = self.queued.fetch_add(events, Ordering::SeqCst) + events;
        self.metrics
            .conn_queued_high_water
            .record_max(queued as u64);
    }

    /// Hands back `events` an item held, waking the reader when that
    /// brings the connection back under the bound.
    fn release(&self, events: usize) {
        let was = self.queued.fetch_sub(events, Ordering::SeqCst);
        if was > MAX_QUEUED_EVENTS && was - events <= MAX_QUEUED_EVENTS {
            let room = self
                .room_lock
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.room.notify_all();
            drop(room);
        }
    }

    /// Blocks while more than [`MAX_QUEUED_EVENTS`] events from this
    /// connection wait in queues. `false` once the connection stopped.
    fn wait_for_room(&self) -> bool {
        if self.queued.load(Ordering::SeqCst) > MAX_QUEUED_EVENTS {
            self.metrics.reads_paused.inc();
            let mut room = self
                .room_lock
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            while self.queued.load(Ordering::SeqCst) > MAX_QUEUED_EVENTS
                && !self.stopped.load(Ordering::SeqCst)
            {
                room = self.room.wait(room).unwrap_or_else(PoisonError::into_inner);
            }
        }
        !self.stopped.load(Ordering::SeqCst)
    }
}

/// State shared by the acceptor, the readers, the workers and the
/// [`Server`] handle.
struct ServiceShared {
    registry: Mutex<HashMap<u64, SessionSlot>>,
    /// The shared work queue the readers feed.
    injector: Mutex<VecDeque<u64>>,
    /// Per-worker local deques (push/pop at the back by the owner,
    /// stolen from the front by siblings).
    locals: Vec<Mutex<VecDeque<u64>>>,
    /// Parked-worker wakeup, paired with `injector`.
    work_cv: Condvar,
    shutdown: AtomicBool,
    next_session: AtomicU64,
    /// The server's telemetry bundle.
    metrics: SharedMetrics,
    /// The admin token `shutdown` requires (when set).
    auth: Option<String>,
    /// Every open connection by id, so shutdown can stop them all.
    conns: Mutex<HashMap<u64, Arc<ConnShared>>>,
    /// Where shutdown connects to wake the acceptor out of `accept`.
    wake_addr: SocketAddr,
}

impl ServiceShared {
    /// Queues one work item for `session`, scheduling the session into
    /// the injector if no worker currently owns it. Returns `false`
    /// when the session does not exist.
    fn enqueue(&self, session: u64, item: WorkItem) -> bool {
        let mut reg = self.registry.lock().expect("registry lock");
        let Some(slot) = reg.get_mut(&session) else {
            return false;
        };
        slot.pending.push_back(item);
        self.metrics
            .queue_depth_high_water
            .record_max(slot.pending.len() as u64);
        let newly = !slot.scheduled;
        slot.scheduled = true;
        drop(reg);
        if newly {
            self.injector
                .lock()
                .expect("injector lock")
                .push_back(session);
            self.work_cv.notify_one();
        }
        true
    }

    /// Stops the server: workers finish the queued work and exit, every
    /// reader is woken to tear its connection down, and a throwaway
    /// loopback connection wakes the acceptor out of `accept`.
    fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::Relaxed) {
            return;
        }
        // Under the injector lock, so a worker about to park sees the
        // flag or gets the wakeup.
        let queue = self.injector.lock().expect("injector lock");
        self.work_cv.notify_all();
        drop(queue);
        for conn in self.conns.lock().expect("conns lock").values() {
            conn.stop();
        }
        let _ = TcpStream::connect(self.wake_addr);
    }
}

/// A running streaming service.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<ServiceShared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the service: the acceptor (which starts one
    /// reader per connection) plus `config.workers` work-stealing
    /// session workers.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let worker_count = config.workers.max(1);
        let shared = Arc::new(ServiceShared {
            registry: Mutex::new(HashMap::new()),
            injector: Mutex::new(VecDeque::new()),
            locals: (0..worker_count)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_session: AtomicU64::new(1),
            metrics: Arc::new(ServiceMetrics::new(Registry::new(), worker_count)),
            auth: config.auth.clone(),
            conns: Mutex::new(HashMap::new()),
            wake_addr: loopback_for(addr),
        });

        let mut workers = Vec::with_capacity(worker_count);
        for me in 0..worker_count {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("tcr-serve-worker-{me}"))
                    .spawn(move || worker_loop(&shared, me))
                    .expect("spawning a worker thread cannot fail"),
            );
        }

        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("tcr-serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &acceptor_shared))
            .expect("spawning the acceptor thread cannot fail");

        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's telemetry bundle — what the `metrics` protocol
    /// command scrapes.
    pub fn metrics(&self) -> SharedMetrics {
        Arc::clone(&self.shared.metrics)
    }

    /// `true` once a `shutdown` protocol command (or
    /// [`Self::shutdown`]) stopped the server.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::Relaxed)
    }

    /// Requests shutdown. Clients may still be connected: every
    /// connection's read side is shut, which wakes its reader to drop
    /// it; the workers finish the work already queued (replies
    /// included) and exit; a loopback connection wakes the acceptor.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until the acceptor, every reader and every worker exit.
    /// Call [`shutdown`](Self::shutdown) first (or let a client's
    /// `shutdown` command do it).
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

// ---- the worker pool ----------------------------------------------------

/// One worker's private metric handles, registered at thread start so
/// the drain loop never does a name lookup. The histograms are this
/// worker's *shards* — the registry merges them at scrape time.
struct WorkerMetrics {
    drained: Counter,
    stolen: Counter,
    reply_us: Histogram,
    text_us: Histogram,
    multi_us: Histogram,
}

impl WorkerMetrics {
    fn new(m: &ServiceMetrics, me: usize) -> WorkerMetrics {
        let reg = m.registry();
        let id = me.to_string();
        WorkerMetrics {
            drained: reg.counter(&labeled("tc_worker_drained_total", &[("worker", &id)])),
            stolen: reg.counter(&labeled("tc_worker_steals_total", &[("worker", &id)])),
            reply_us: reg.histogram("tc_reply_us"),
            text_us: reg.histogram(&labeled("tc_ingest_handle_us", &[("wire", "text")])),
            multi_us: reg.histogram(&labeled("tc_ingest_handle_us", &[("wire", "multi")])),
        }
    }
}

/// Pops the next session to serve: own deque, then the injector, then
/// stealing the oldest entry from a sibling.
fn find_work(shared: &ServiceShared, me: usize, stolen: &Counter) -> Option<u64> {
    loop {
        if let Some(id) = shared.locals[me].lock().expect("local lock").pop_back() {
            return Some(id);
        }
        if let Some(id) = shared.injector.lock().expect("injector lock").pop_front() {
            return Some(id);
        }
        for (i, other) in shared.locals.iter().enumerate() {
            if i != me {
                if let Some(id) = other.lock().expect("steal lock").pop_front() {
                    stolen.inc();
                    return Some(id);
                }
            }
        }
        let guard = shared.injector.lock().expect("injector lock");
        if !guard.is_empty() {
            continue; // an enqueue raced our scan
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            return None;
        }
        let _ = shared
            .work_cv
            .wait_timeout(guard, WORKER_PARK)
            .expect("worker park");
    }
}

/// One worker: check a session out, drain its queue, check it back in
/// (re-queueing locally if work arrived meanwhile).
fn worker_loop(shared: &ServiceShared, me: usize) {
    let wm = WorkerMetrics::new(&shared.metrics, me);
    while let Some(id) = find_work(shared, me, &wm.stolen) {
        let (session, items) = {
            let mut reg = shared.registry.lock().expect("registry lock");
            match reg.get_mut(&id) {
                Some(slot) => (slot.session.take(), std::mem::take(&mut slot.pending)),
                None => continue,
            }
        };
        let Some(mut session) = session else { continue };
        wm.drained.inc();

        let mut closed = false;
        for item in items {
            process_item(&mut session, item, &mut closed, &shared.metrics, &wm);
            if closed {
                break; // the rest of the queue dies with the session
            }
        }

        let mut reg = shared.registry.lock().expect("registry lock");
        if closed {
            let slot = reg.remove(&id);
            // Drop the slot's late arrivals outside the lock: a stats
            // ticket among them writes its reply, and a client that
            // stops reading must not stall the registry meanwhile.
            drop(reg);
            drop(slot);
        } else if let Some(slot) = reg.get_mut(&id) {
            slot.session = Some(session);
            if slot.pending.is_empty() {
                slot.scheduled = false;
            } else {
                // Refilled while we worked: keep ownership of the
                // next round on our own deque.
                drop(reg);
                shared.locals[me].lock().expect("local lock").push_back(id);
                shared.work_cv.notify_one();
            }
        }
    }
}

/// Executes one work item against a checked-out session, accounting it
/// to the service counters: the events/rejected/races counters advance
/// by this item's deltas *before* the reply is written, so a `metrics`
/// scrape agrees with any `stats` reply the client has already read.
fn process_item(
    session: &mut Session,
    item: WorkItem,
    closed: &mut bool,
    m: &ServiceMetrics,
    wm: &WorkerMetrics,
) {
    let t_reply = wm.reply_us.begin();
    let before_events = session.detector().events();
    let before_rejected = session.rejected();
    let before_races = session.detector().report().total;
    let mut out = String::new();
    match item.kind {
        ItemKind::Text(block) => {
            let t = wm.text_us.begin();
            for line in block.lines() {
                if !session.handle_line(line, &mut out) {
                    *closed = true;
                    break;
                }
            }
            wm.text_us.end(t);
        }
        ItemKind::Frame(events) => {
            let t = wm.multi_us.begin();
            session.handle_frame(&events, &mut out);
            wm.multi_us.end(t);
        }
        ItemKind::Write(reply) => out = reply,
        ItemKind::Stats(mut ticket) => ticket.fold(
            session.detector().events(),
            session.rejected(),
            session.detector().report().total,
            session.detector().recycled_slots(),
            session.detector().peak_clock_bytes() as u64,
            session.detector().live_threads() as u64,
        ),
        ItemKind::Close => *closed = true,
    }
    let d = session.detector();
    m.events.add(d.events().wrapping_sub(before_events));
    m.rejected
        .add(session.rejected().wrapping_sub(before_rejected));
    m.races.add(d.report().total.wrapping_sub(before_races));
    m.peak_clock_bytes.record_max(d.peak_clock_bytes() as u64);
    m.live_threads_high_water
        .record_max(d.live_threads() as u64);
    m.pool_bytes.record_max(d.pool_bytes() as u64);
    if let Some(origin) = &item.origin {
        if !out.is_empty() {
            origin.conn.write_reply(out.as_bytes());
        }
        if *closed {
            origin.conn.stop();
        }
    }
    wm.reply_us.end(t_reply);
}

// ---- the acceptor and the readers ----------------------------------------

/// One connection as its reader thread owns it.
struct Conn {
    shared: Arc<ConnShared>,
    /// Unparsed bytes (partial lines / partial frames).
    buf: Vec<u8>,
    /// The session bare text lines route to (the connection's most
    /// recent `open`/`resume`).
    current: Option<u64>,
    /// Every session this connection opened — reaped when it closes.
    opened: Vec<u64>,
    /// `true` once an `auth <token>` on this connection matched the
    /// configured admin token (trivially true when none is required).
    authed: bool,
}

/// Where to connect to reach a listener bound to `addr`: a wildcard
/// bind address (`0.0.0.0`, `::`) is reached over loopback.
fn loopback_for(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        let ip: IpAddr = if addr.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        };
        addr.set_ip(ip);
    }
    addr
}

/// Accepts connections until shutdown, giving each its own blocking
/// reader thread, and joins every reader on the way out.
fn accept_loop(listener: &TcpListener, shared: &Arc<ServiceShared>) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        // Join the readers whose connections ended, so the server holds
        // one thread per open connection, not per connection it ever
        // accepted.
        let mut i = 0;
        while i < readers.len() {
            if readers[i].is_finished() {
                let _ = readers.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        let Ok(stream) = stream else { continue };
        if stream.set_nodelay(true).is_err()
            || stream
                .set_write_timeout(Some(CLIENT_WRITE_TIMEOUT))
                .is_err()
        {
            continue;
        }
        let conn = Arc::new(ConnShared {
            stream,
            write_turn: Mutex::new(()),
            queued: AtomicUsize::new(0),
            room_lock: Mutex::new(()),
            room: Condvar::new(),
            stopped: AtomicBool::new(false),
            metrics: Arc::clone(&shared.metrics),
        });
        {
            // Checked under the lock shutdown takes to stop every
            // connection, so no connection slips past it.
            let mut conns = shared.conns.lock().expect("conns lock");
            if shared.shutdown.load(Ordering::Relaxed) {
                break;
            }
            conns.insert(id, Arc::clone(&conn));
        }
        shared.metrics.conns_accepted.inc();
        shared.metrics.conns_active.add(1);
        let reader_shared = Arc::clone(shared);
        match std::thread::Builder::new()
            .name(format!("tcr-serve-conn-{id}"))
            .spawn(move || read_loop(&reader_shared, id, conn))
        {
            Ok(reader) => readers.push(reader),
            Err(_) => forget_conn(shared, id),
        }
    }
    for reader in readers {
        let _ = reader.join();
    }
}

/// One connection's reader: reads, splits the bytes into messages and
/// routes them until the client hangs up, a message is corrupt, or the
/// connection stops; then reaps every session the connection opened,
/// in queue order behind their in-flight work.
fn read_loop(shared: &ServiceShared, id: u64, conn: Arc<ConnShared>) {
    let mut conn = Conn {
        shared: conn,
        buf: Vec::new(),
        current: None,
        opened: Vec::new(),
        authed: false,
    };
    while conn.shared.wait_for_room() {
        match fill(&mut conn) {
            Ok(0) => break,
            Ok(_) if !parse_messages(&mut conn, shared) => break,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    for &session in &conn.opened {
        shared.enqueue(
            session,
            WorkItem {
                kind: ItemKind::Close,
                origin: None,
            },
        );
    }
    forget_conn(shared, id);
}

/// Blocks for up to [`READ_CHUNK`] more bytes onto the end of the
/// connection's buffer.
fn fill(conn: &mut Conn) -> io::Result<usize> {
    let filled = conn.buf.len();
    conn.buf.resize(filled + READ_CHUNK, 0);
    let read = (&conn.shared.stream).read(&mut conn.buf[filled..]);
    conn.buf.truncate(filled + read.as_ref().map_or(0, |&n| n));
    read
}

/// Drops a finished connection from the server's books.
fn forget_conn(shared: &ServiceShared, id: u64) {
    shared.conns.lock().expect("conns lock").remove(&id);
    shared.metrics.conns_active.sub(1);
}

/// Splits a connection's buffered bytes into messages and routes them.
/// Returns `false` when the connection must be dropped (corrupt frame,
/// unbounded line).
fn parse_messages(conn: &mut Conn, shared: &ServiceShared) -> bool {
    let mut consumed = 0usize;
    // Consecutive event/command lines are batched into one work item.
    let mut text_block = String::new();
    let mut ok = true;

    loop {
        let buf = &conn.buf[consumed..];
        if buf.is_empty() {
            break;
        }
        if buf[0] >= wire::BINARY_MIN {
            flush_text(conn, shared, &mut text_block);
            match wire::try_message(buf) {
                Ok(None) => break, // partial frame: wait for more bytes
                Ok(Some((message, used))) => {
                    consumed += used;
                    let m = &shared.metrics;
                    let frames = message.into_frames();
                    m.msgs_multi.inc();
                    m.batch_multi
                        .record(frames.iter().map(|f| f.events.len() as u64).sum());
                    for frame in frames {
                        let origin = Origin::new(&conn.shared, frame.events.len());
                        let delivered = shared.enqueue(
                            frame.session,
                            WorkItem {
                                kind: ItemKind::Frame(frame.events),
                                origin: Some(origin),
                            },
                        );
                        if !delivered {
                            m.wire_err_unknown_session.inc();
                            m.wire_errors_total.inc();
                            conn.shared.write_reply(
                                format!("err unknown session {}\n", frame.session).as_bytes(),
                            );
                        }
                    }
                }
                Err(e) => {
                    // `Oversize` covers both the encode-side variant and
                    // the decoder's length-cap rejection; everything
                    // else a decoder can report is a corrupt payload.
                    let kind = match &e {
                        WireError::Oversize { .. } => &shared.metrics.wire_err_oversize,
                        WireError::Corrupt(msg) if msg.contains("exceeds") => {
                            &shared.metrics.wire_err_oversize
                        }
                        _ => &shared.metrics.wire_err_corrupt,
                    };
                    kind.inc();
                    shared.metrics.wire_errors_total.inc();
                    conn.shared.write_reply(format!("err {e}\n").as_bytes());
                    ok = false;
                    break;
                }
            }
        } else {
            let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
                if buf.len() > MAX_LINE_LEN {
                    shared.metrics.wire_err_line_overflow.inc();
                    shared.metrics.wire_errors_total.inc();
                    conn.shared.write_reply(b"err line exceeds the 1 MiB cap\n");
                    ok = false;
                }
                break; // partial line: wait for more bytes
            };
            let line = String::from_utf8_lossy(&buf[..nl]).into_owned();
            consumed += nl + 1;
            let trimmed = line.trim();
            if is_handshake(trimmed) {
                flush_text(conn, shared, &mut text_block);
                if !handle_handshake(conn, shared, trimmed) {
                    ok = false;
                    break;
                }
            } else if conn.current.is_some() {
                text_block.push_str(&line);
                text_block.push('\n');
            } else if !trimmed.is_empty() && !trimmed.starts_with('#') {
                conn.shared
                    .write_reply(b"err expected `open <order> <clock>`\n");
            }
        }
    }

    flush_text(conn, shared, &mut text_block);
    conn.buf.drain(..consumed);
    ok
}

/// Queues an accumulated text block onto the connection's current
/// session.
fn flush_text(conn: &Conn, shared: &ServiceShared, block: &mut String) {
    if block.is_empty() {
        return;
    }
    let text = std::mem::take(block);
    if let Some(id) = conn.current {
        let lines = text.bytes().filter(|&b| b == b'\n').count();
        shared.metrics.msgs_text.inc();
        shared.metrics.batch_text.record(lines as u64);
        if !shared.enqueue(
            id,
            WorkItem {
                kind: ItemKind::Text(text),
                origin: Some(Origin::new(&conn.shared, lines)),
            },
        ) {
            shared.metrics.wire_err_unknown_session.inc();
            shared.metrics.wire_errors_total.inc();
            conn.shared
                .write_reply(format!("err session {id} is gone\n").as_bytes());
        }
    }
}

/// `true` for the lines a reader answers itself.
fn is_handshake(line: &str) -> bool {
    line == "shutdown"
        || line == "stats-all"
        || line == "metrics"
        || line == "auth"
        || line.starts_with("auth ")
        || line.starts_with("open ")
        || line == "open"
        || line.starts_with("resume ")
        || line.starts_with("use ")
}

/// Answers a handshake line inline: `open`/`resume` create a session
/// and rebind the connection to it, `shutdown` stops the server.
/// Replies route behind any in-flight work of the previously bound
/// session so a pipelining client reads them in order.
fn handle_handshake(conn: &mut Conn, shared: &ServiceShared, line: &str) -> bool {
    // Replies are ordered behind the session bound *before* this line
    // rebinds anything — that is whose work a pipelining client still
    // has in flight.
    let prev = conn.current;
    if line == "auth" || line.starts_with("auth ") {
        let token = line.strip_prefix("auth").expect("checked prefix").trim();
        let reply = match &shared.auth {
            Some(required) if !constant_time_eq(required.as_bytes(), token.as_bytes()) => {
                shared.metrics.wire_err_auth.inc();
                shared.metrics.wire_errors_total.inc();
                "err bad auth token\n"
            }
            // A matching token — or no token required at all, in which
            // case `auth` is a harmless no-op ack.
            _ => {
                conn.authed = true;
                "ok authed\n"
            }
        };
        reply_ordered(conn, shared, prev, reply.to_owned());
        return true;
    }
    if line == "shutdown" {
        if shared.auth.is_some() && !conn.authed {
            shared.metrics.wire_err_auth.inc();
            shared.metrics.wire_errors_total.inc();
            reply_ordered(
                conn,
                shared,
                prev,
                "err auth required for shutdown\n".to_owned(),
            );
            return true;
        }
        reply_ordered(conn, shared, prev, "ok shutting-down\n".to_owned());
        shared.request_shutdown();
        return true;
    }
    if line == "stats-all" {
        handle_stats_all(conn, shared);
        return true;
    }
    if line == "metrics" {
        // The whole Prometheus-style exposition rides as one ordered
        // reply; its `# EOF` terminator tells the scraper (nc, the CI
        // cross-check, `Client::metrics_scrape`) where it ends.
        reply_ordered(conn, shared, prev, shared.metrics.render_prometheus());
        return true;
    }
    let parts: Vec<&str> = line.split_whitespace().collect();
    let reply = match parts.split_first() {
        Some((&"open", rest)) => match parse_open(rest) {
            Ok((clock, config)) => {
                let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
                let session = Session::new(id, clock, config);
                let reply = format!(
                    "ok session {id} order {} clock {}\n",
                    config.order,
                    session.detector().backend_name()
                );
                register(conn, shared, id, session);
                reply
            }
            Err(e) => format!("err {e}\n"),
        },
        Some((&"use", [id])) => match id.parse::<u64>() {
            Ok(id)
                if shared
                    .registry
                    .lock()
                    .expect("registry lock")
                    .contains_key(&id) =>
            {
                let reply = format!("ok session {id} attached\n");
                conn.current = Some(id);
                reply
            }
            Ok(id) => format!("err unknown session {id}\n"),
            Err(_) => "err `use` takes a session id\n".to_owned(),
        },
        Some((&"resume", [path])) => {
            match std::fs::File::open(path)
                .map_err(|e| e.to_string())
                .and_then(|f| {
                    crate::checkpoint::Checkpoint::read(BufReader::new(f))
                        .map_err(|e| e.to_string())
                }) {
                Ok(cp) => {
                    let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
                    let session = Session::from_checkpoint(id, &cp);
                    let reply = format!(
                        "ok session {id} resumed events={} order {} clock {}\n",
                        cp.events,
                        cp.config.order,
                        session.detector().backend_name()
                    );
                    register(conn, shared, id, session);
                    reply
                }
                Err(e) => format!("err cannot resume from {path}: {e}\n"),
            }
        }
        _ => "err expected `open <order> <clock>`\n".to_owned(),
    };
    reply_ordered(conn, shared, prev, reply);
    true
}

/// `stats-all`: one aggregated reply over every session this
/// connection opened. Each session folds its counters in *behind* its
/// own pending work, so the aggregate reflects everything the client
/// sent before this line — a fan-in driver synchronizes all of its
/// sessions in a single round-trip instead of one `use <id>` + `stats`
/// exchange per session.
fn handle_stats_all(conn: &Conn, shared: &ServiceShared) {
    let live: Vec<u64> = {
        let reg = shared.registry.lock().expect("registry lock");
        conn.opened
            .iter()
            .copied()
            .filter(|id| reg.contains_key(id))
            .collect()
    };
    if live.is_empty() {
        conn.shared
            .write_reply(AggregateStats::new(0).render().as_bytes());
        return;
    }
    let agg = Arc::new(AggregateStats::new(live.len()));
    for id in live {
        // A failed enqueue (the session raced a close) drops the
        // ticket, which decrements in `Drop`.
        shared.enqueue(
            id,
            WorkItem {
                kind: ItemKind::Stats(StatsTicket {
                    agg: Arc::clone(&agg),
                    conn: Arc::clone(&conn.shared),
                    folded: false,
                }),
                origin: None,
            },
        );
    }
}

/// Inserts a fresh session into the registry and binds the connection
/// to it.
fn register(conn: &mut Conn, shared: &ServiceShared, id: u64, mut session: Session) {
    session.set_server_metrics(Arc::clone(&shared.metrics));
    shared.metrics.sessions_opened.inc();
    shared.registry.lock().expect("registry lock").insert(
        id,
        SessionSlot {
            session: Some(Box::new(session)),
            pending: VecDeque::new(),
            scheduled: false,
        },
    );
    conn.current = Some(id);
    conn.opened.push(id);
}

/// Writes a handshake reply, routing it through the previously bound
/// session's queue when that session still has work in flight (so
/// replies reach the client in request order).
fn reply_ordered(conn: &Conn, shared: &ServiceShared, prev: Option<u64>, reply: String) {
    if let Some(prev) = prev {
        let mut reg = shared.registry.lock().expect("registry lock");
        // `scheduled` is only cleared after a worker finished writing
        // every reply of its batch, so checking it under the registry
        // lock is race-free.
        if let Some(slot) = reg.get_mut(&prev) {
            if slot.scheduled {
                slot.pending.push_back(WorkItem {
                    kind: ItemKind::Write(reply),
                    origin: Some(Origin::new(&conn.shared, 0)),
                });
                return;
            }
        }
    }
    conn.shared.write_reply(reply.as_bytes());
}

/// Parses the `open` line's arguments: `<order> <clock> [evict <n>]
/// [no-retire] [recycle]`. Shared with the cluster node, whose
/// forwarded `open` lines must accept exactly the same grammar.
///
/// # Errors
///
/// A protocol-ready message for unknown orders, clocks or options.
pub fn parse_open(parts: &[&str]) -> Result<(ClockChoice, DetectorConfig), String> {
    let order: PartialOrderKind = parts
        .first()
        .copied()
        .unwrap_or("hb")
        .parse()
        .map_err(|e: String| e)?;
    let clock: ClockChoice = parts.get(1).copied().unwrap_or("tc").parse()?;
    let mut config = DetectorConfig::for_order(order);
    let mut i = 2;
    while i < parts.len() {
        match parts[i] {
            "evict" => {
                let n = parts
                    .get(i + 1)
                    .ok_or("evict requires an interval")?
                    .parse::<u64>()
                    .map_err(|_| "invalid evict interval".to_owned())?;
                config.evict_every = Some(n.max(1));
                i += 2;
            }
            "no-retire" => {
                config.retire_on_join = false;
                i += 1;
            }
            "recycle" => {
                config.recycle_slots = true;
                i += 1;
            }
            other => return Err(format!("unknown open option `{other}`")),
        }
    }
    if config.recycle_slots && !config.retire_on_join {
        return Err("recycle requires join retirement; drop no-retire".to_owned());
    }
    Ok((clock, config))
}

// ---- the client and the smoke driver ------------------------------------

/// A minimal blocking protocol client (used by the smoke test, the
/// ingest benchmark and the integration tests). Speaks both protocols:
/// text requests and batched binary frames on one connection.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    session: u64,
}

/// A failed `open` attempt, tagged with whether retrying the
/// handshake is worthwhile (the connection died under us — a reset, a
/// broken pipe, or a close before the reply — rather than the server
/// rejecting the request).
struct OpenError {
    message: String,
    retryable: bool,
}

impl OpenError {
    fn io(e: &io::Error) -> OpenError {
        OpenError {
            message: e.to_string(),
            retryable: matches!(
                e.kind(),
                io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::BrokenPipe
            ),
        }
    }

    fn fatal(message: impl Into<String>) -> OpenError {
        OpenError {
            message: message.into(),
            retryable: false,
        }
    }
}

/// Capped backoff before [`Client::open`]'s single handshake retry —
/// long enough for a restarting or failing-over server to start
/// accepting again, short enough that a hard failure still surfaces
/// promptly.
const OPEN_RETRY_BACKOFF: Duration = Duration::from_millis(50);

impl Client {
    /// Connects and performs the `open` handshake. Arguments starting
    /// with `resume` are sent verbatim (the resume handshake);
    /// everything else is prefixed with `open `.
    ///
    /// The handshake is idempotent (no events have been sent yet), so
    /// a connection that dies mid-handshake — the window a cluster
    /// failover or server restart produces — is retried **once** after
    /// a capped backoff before surfacing as an error.
    ///
    /// # Errors
    ///
    /// I/O failures and protocol-level `err` replies, as strings.
    pub fn open(addr: SocketAddr, open_args: &str) -> Result<Client, String> {
        match Client::try_open(addr, open_args) {
            Ok(client) => Ok(client),
            Err(e) if e.retryable => {
                std::thread::sleep(OPEN_RETRY_BACKOFF);
                Client::try_open(addr, open_args).map_err(|e| e.message)
            }
            Err(e) => Err(e.message),
        }
    }

    /// One connect + handshake attempt, classifying failures for the
    /// retry decision in [`Client::open`].
    fn try_open(addr: SocketAddr, open_args: &str) -> Result<Client, OpenError> {
        let stream = TcpStream::connect(addr).map_err(|e| OpenError::io(&e))?;
        // A sync line flushed behind a frame must not wait for the
        // server's delayed ACK of the frame.
        stream.set_nodelay(true).map_err(|e| OpenError::io(&e))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| OpenError::io(&e))?);
        let mut client = Client {
            reader,
            writer: BufWriter::new(stream),
            session: 0,
        };
        let line = Client::open_line(open_args);
        let reply = client.try_handshake_request(&line)?;
        client.session = Client::parse_open_reply(&reply).map_err(OpenError::fatal)?;
        Ok(client)
    }

    /// The handshake line `open_args` stands for.
    fn open_line(open_args: &str) -> String {
        if open_args.starts_with("resume") {
            open_args.to_owned()
        } else {
            format!("open {open_args}")
        }
    }

    /// Extracts the session id from an `open`/`resume` reply.
    fn parse_open_reply(reply: &[String]) -> Result<u64, String> {
        match reply.iter().rfind(|l| !l.is_empty()) {
            Some(l) if l.starts_with("ok session") => l
                .split_whitespace()
                .nth(2)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("malformed open reply `{l}`")),
            Some(l) => Err(format!("open failed: {l}")),
            None => Err("open got no reply".to_owned()),
        }
    }

    /// Opens an additional session on this connection (rebinding bare
    /// text lines to it) and returns its id — the handle binary frames
    /// address, letting one connection fan events into many sessions.
    ///
    /// # Errors
    ///
    /// I/O failures and protocol-level `err` replies, as strings.
    pub fn open_session(&mut self, open_args: &str) -> Result<u64, String> {
        let reply = self.handshake_request(&Client::open_line(open_args))?;
        let id = Client::parse_open_reply(&reply)?;
        self.session = id;
        Ok(id)
    }

    /// The session id of the most recent `open` on this client.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Bounds how long a read of a reply may block (`None` blocks
    /// forever, the default); a read that times out returns an error.
    ///
    /// # Errors
    ///
    /// I/O failures as strings.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), String> {
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(|e| e.to_string())
    }

    /// A request whose reply may be a single `err` line (handshake
    /// failures terminate the exchange without an `ok`).
    fn handshake_request(&mut self, line: &str) -> Result<Vec<String>, String> {
        self.try_handshake_request(line).map_err(|e| e.message)
    }

    /// [`Self::handshake_request`], with failures classified for the
    /// open retry: write/read errors carry their I/O kind, a clean
    /// close before the reply (the drop-after-accept shape a dying
    /// node produces) is retryable.
    fn try_handshake_request(&mut self, line: &str) -> Result<Vec<String>, OpenError> {
        writeln!(self.writer, "{line}").map_err(|e| OpenError::io(&e))?;
        self.writer.flush().map_err(|e| OpenError::io(&e))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| OpenError::io(&e))?;
        if n == 0 {
            return Err(OpenError {
                message: "server closed the connection during the handshake".to_owned(),
                retryable: true,
            });
        }
        Ok(vec![reply.trim_end().to_owned()])
    }

    /// Sends one line without waiting for a reply (event pipelining).
    ///
    /// # Errors
    ///
    /// I/O failures as strings.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}").map_err(|e| e.to_string())
    }

    /// Writes pre-rendered protocol bytes — text lines or encoded
    /// frames — without flushing. Bulk ingest drivers use this to
    /// avoid per-line formatting overhead.
    ///
    /// # Errors
    ///
    /// I/O failures as strings.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.writer.write_all(bytes).map_err(|e| e.to_string())
    }

    /// Flushes everything buffered by `send`/`send_raw`/`send_frame`.
    ///
    /// # Errors
    ///
    /// I/O failures as strings.
    pub fn flush(&mut self) -> Result<(), String> {
        self.writer.flush().map_err(|e| e.to_string())
    }

    /// Reads one reply line (blocking) — pipelined drivers that issued
    /// many requests at once count `ok` terminators themselves.
    ///
    /// # Errors
    ///
    /// I/O failures and a closed connection, as strings.
    pub fn read_reply(&mut self) -> Result<String, String> {
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("server closed the connection".to_owned());
        }
        Ok(reply.trim_end().to_owned())
    }

    /// Sends `events` for `session` as single-group binary frames
    /// without waiting for a reply (frames are silent on success).
    /// Batches too large for one frame are split every
    /// [`wire::MAX_SPLIT_EVENTS`] events; an empty batch is one empty
    /// frame.
    ///
    /// # Errors
    ///
    /// I/O failures as strings.
    pub fn send_frame(&mut self, session: u64, events: &[Event]) -> Result<(), String> {
        let mut rest = events;
        loop {
            let (batch, tail) = rest.split_at(rest.len().min(wire::MAX_SPLIT_EVENTS));
            self.send_multi_frame(&[(session, batch)])?;
            rest = tail;
            if rest.is_empty() {
                return Ok(());
            }
        }
    }

    /// Sends one multi-session wire message — a batch of events per
    /// session in a single frame, so a fan-in driver pays one sniff
    /// and one length prefix per *round* across all of its sessions
    /// instead of per session.
    ///
    /// # Errors
    ///
    /// Oversize messages and I/O failures, as strings.
    pub fn send_multi_frame(&mut self, groups: &[(u64, &[Event])]) -> Result<(), String> {
        let bytes = wire::encode_multi_frame(groups).map_err(|e| e.to_string())?;
        self.writer.write_all(&bytes).map_err(|e| e.to_string())
    }

    /// `stats-all`: a single round-trip aggregating every session this
    /// connection opened. Returns `(sessions, events, rejected,
    /// races)` — the fan-in driver's one synchronization point.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed replies, as strings.
    pub fn stats_all(&mut self) -> Result<(u64, u64, u64, u64), String> {
        let replies = self.request("stats-all")?;
        let line = replies.last().expect("request returns the terminator");
        let mut fields = [0u64; 4];
        for (i, key) in ["sessions=", "events=", "rejected=", "races="]
            .iter()
            .enumerate()
        {
            fields[i] = line
                .split_whitespace()
                .find_map(|w| w.strip_prefix(key))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("malformed stats-all reply `{line}`"))?;
        }
        Ok((fields[0], fields[1], fields[2], fields[3]))
    }

    /// Scrapes the server's `metrics` exposition: sends the command and
    /// reads through the `# EOF` terminator line. The result is the
    /// Prometheus-style text document.
    ///
    /// # Errors
    ///
    /// I/O failures and a closed connection, as strings.
    pub fn metrics_scrape(&mut self) -> Result<String, String> {
        self.send("metrics")?;
        self.flush()?;
        let mut text = String::new();
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("server closed the connection mid-scrape".to_owned());
            }
            let done = line.trim_end() == "# EOF";
            text.push_str(&line);
            if done {
                return Ok(text);
            }
        }
    }

    /// Sends a command and reads reply lines up to (and including) the
    /// `ok`/`err` terminator. Any `err` lines produced by earlier
    /// pipelined events surface here too.
    ///
    /// # Errors
    ///
    /// I/O failures as strings.
    pub fn request(&mut self, line: &str) -> Result<Vec<String>, String> {
        self.send(line)?;
        self.writer.flush().map_err(|e| e.to_string())?;
        let mut replies = Vec::new();
        loop {
            let mut reply = String::new();
            let n = self
                .reader
                .read_line(&mut reply)
                .map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("server closed the connection mid-reply".to_owned());
            }
            let reply = reply.trim_end().to_owned();
            let terminal = reply.starts_with("ok");
            replies.push(reply);
            if terminal {
                return Ok(replies);
            }
        }
    }
}

/// The workload every smoke session streams.
fn smoke_trace(seed: u64) -> tc_trace::Trace {
    tc_trace::gen::WorkloadSpec {
        threads: 4,
        locks: 2,
        vars: 3,
        events: 400,
        sync_ratio: 0.15,
        shared_fraction: 0.9,
        seed,
        ..tc_trace::gen::WorkloadSpec::default()
    }
    .generate()
}

/// Drives one text-protocol smoke session and returns `(total, stored
/// race lines)`.
fn smoke_drive(
    addr: SocketAddr,
    order: &str,
    clock: &str,
    seed: u64,
) -> Result<(u64, Vec<String>), String> {
    use tc_trace::text_format;
    let trace = smoke_trace(seed);
    let mut client = Client::open(addr, &format!("{order} {clock}"))?;
    for line in text_format::to_text(&trace).lines() {
        client.send(line)?;
    }
    let (total, races) = collect_races(&mut client, order, clock)?;
    let stats = client.request("stats")?;
    let stats_line = stats.last().expect("terminator");
    if !stats_line.contains(&format!("events={}", trace.len())) {
        return Err(format!(
            "session {order}/{clock}: expected events={} in `{stats_line}`",
            trace.len()
        ));
    }
    client.request("close")?;
    Ok((total, races))
}

/// Drives one binary-protocol smoke session — same workload, dense-id
/// frames of 64 events, text commands for synchronization on the same
/// connection (the mixed-protocol path).
fn smoke_drive_binary(
    addr: SocketAddr,
    order: &str,
    clock: &str,
    seed: u64,
) -> Result<(u64, Vec<String>), String> {
    let trace = smoke_trace(seed);
    let mut client = Client::open(addr, &format!("{order} {clock}"))?;
    let session = client.session();
    for batch in trace.events().chunks(64) {
        client.send_frame(session, batch)?;
    }
    let (total, races) = collect_races(&mut client, order, clock)?;
    let stats = client.request("stats")?;
    let stats_line = stats.last().expect("terminator");
    if !stats_line.contains(&format!("events={}", trace.len())) {
        return Err(format!(
            "binary session {order}/{clock}: expected events={} in `{stats_line}`",
            trace.len()
        ));
    }
    client.request("close")?;
    Ok((total, races))
}

/// Issues `races` and splits the reply into `(total, stored lines)`.
fn collect_races(
    client: &mut Client,
    order: &str,
    clock: &str,
) -> Result<(u64, Vec<String>), String> {
    let replies = client.request("races")?;
    if let Some(err) = replies.iter().find(|l| l.starts_with("err")) {
        return Err(format!("session {order}/{clock}: {err}"));
    }
    let races: Vec<String> = replies
        .iter()
        .filter(|l| l.starts_with("race "))
        .map(|l| l["race ".len()..].to_owned())
        .collect();
    let ok = replies.last().expect("request returns the terminator");
    let total: u64 = ok
        .split_whitespace()
        .nth(2)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("malformed races terminator `{ok}`"))?;
    Ok((total, races))
}

/// The end-to-end smoke run behind `tcr serve --smoke`: starts a
/// server, drives three concurrent sessions over real sockets — two
/// text, one batched-binary — with different orders/backends (the SHB
/// session opens `hc`, the tree's old adaptive name), asserts
/// each session's reports equal the batch detectors' on the same trace
/// (what `tcr race` runs), and shuts the server down cleanly while a
/// spectator client is still connected.
///
/// # Errors
///
/// A description of the first divergence or protocol failure.
pub fn smoke() -> Result<(), String> {
    use tc_analysis::{HbRaceDetector, ShbRaceDetector};
    use tc_core::{TreeClock, VectorClock};

    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        auth: None,
    })
    .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = server.local_addr();

    // Three concurrent sessions across the worker pool.
    let h1 = std::thread::spawn(move || smoke_drive(addr, "hb", "tc", 11));
    let h2 = std::thread::spawn(move || smoke_drive(addr, "shb", "hc", 12));
    let h3 = std::thread::spawn(move || smoke_drive_binary(addr, "hb", "vc", 13));
    let (total_hb, races_hb) = h1.join().map_err(|_| "hb client panicked")??;
    let (total_shb, races_shb) = h2.join().map_err(|_| "shb client panicked")??;
    let (total_bin, races_bin) = h3.join().map_err(|_| "binary client panicked")??;

    // The reference runs: exactly what `tcr race` computes. Text
    // sessions are compared against the re-parsed rendering (the
    // interner re-assigns ids in first-appearance order, exactly like
    // the session did); the binary session streams dense ids verbatim,
    // so its reference is the raw generated trace.
    let reparse = |seed: u64| {
        tc_trace::text_format::parse_text(&tc_trace::text_format::to_text(&smoke_trace(seed)))
            .expect("rendered traces re-parse")
    };
    let trace_hb = reparse(11);
    let batch_hb = HbRaceDetector::<TreeClock>::new(&trace_hb).run(&trace_hb);
    let trace_shb = reparse(12);
    let batch_shb = ShbRaceDetector::<TreeClock>::new(&trace_shb).run(&trace_shb);
    let trace_bin = smoke_trace(13);
    let batch_bin = HbRaceDetector::<VectorClock>::new(&trace_bin).run(&trace_bin);

    for (label, total, races, batch) in [
        ("hb/tc", total_hb, &races_hb, &batch_hb),
        ("shb/hc", total_shb, &races_shb, &batch_shb),
        ("hb/vc binary", total_bin, &races_bin, &batch_bin),
    ] {
        if total != batch.total {
            return Err(format!(
                "{label}: served {total} race(s), batch found {}",
                batch.total
            ));
        }
        let expected: Vec<String> = batch.races.iter().map(|r| r.to_string()).collect();
        if *races != expected {
            return Err(format!(
                "{label}: served race list diverges from the batch detector \
                 ({} vs {} stored)",
                races.len(),
                expected.len()
            ));
        }
    }

    // Shutdown through the protocol while a client is still connected
    // (its reader is woken by shutting the socket's read side).
    let spectator = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut admin = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    writeln!(admin, "shutdown").map_err(|e| e.to_string())?;
    let mut reply = String::new();
    BufReader::new(admin)
        .read_line(&mut reply)
        .map_err(|e| e.to_string())?;
    if !reply.starts_with("ok shutting-down") {
        return Err(format!("shutdown got `{}`", reply.trim()));
    }
    server.join();
    drop(spectator);
    Ok(())
}
