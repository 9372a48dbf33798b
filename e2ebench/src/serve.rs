//! `serve-mixed` and `cluster-forward`: 64 sessions fanned in over one
//! `tc_stream::Client` connection, into an in-process single-node
//! `Server` or through node 0 of a 2-node `ClusterServer` ring.
//!
//! A run sets up several times (the `setup_s` samples) and keeps the
//! last set-up's sessions for the interactive rounds: a closed loop of
//! one client whose round is one multi-session frame over 8 KiB plus a
//! sync, written through the public client as a user's would be. After
//! every tenth round comes a bulk repetition on fresh sessions over a
//! second connection: every stream pipelined as multi-session frames,
//! with the sync in the same write. Both kinds of sample thus span the
//! whole run. When the interactive streams run out, their sessions are
//! checked and closed and the streams start again on fresh sessions.

use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use tc_cluster::{ClusterConfig, ClusterServer, HashRing};
use tc_stream::{Client, ServeConfig, Server};
use tc_trace::{wire, Event};

use crate::inputs::{self, reference_races, Reference, OPENS, SESSIONS};
use crate::stats::{median, percentile, quiet, window_len, Tally, MIN_WINDOWS};
use crate::{Deadline, RunResult};

/// Events per session in one bulk phase.
pub const BULK_EVENTS: usize = 8_192;
/// Events per session per bulk multi-session frame.
pub const BULK_FRAME: usize = 512;
/// Events per session per interactive round: 64 × 64 events is about
/// 12 KB on the wire, past the client's 8 KiB write buffer.
pub const ROUND_EVENTS: usize = 64;
/// Set-ups per run behind `setup_s`.
const SETUPS: usize = 15;
/// Set-up samples per window behind `setup_s`.
const SETUP_WINDOW: usize = 3;
/// Interactive rounds the run generates input for. A run that
/// outlasts them replays the streams on fresh sessions.
const MAX_ROUNDS: usize = 600;
/// Interactive rounds between bulk repetitions.
const BULK_EVERY: usize = 10;
/// Bulk repetitions per window behind `events_per_s`: single
/// repetitions swing with how the client, I/O and worker threads share
/// two cores, and a window's median must outvote that.
const BULK_WINDOW: usize = 25;
/// Bulk windows a run fills before it may stop.
const BULK_WINDOWS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One in-process `tc_stream::Server`.
    Single,
    /// A 2-node in-process `ClusterServer` ring; the client talks to
    /// node 0 only.
    Cluster,
}

/// The running system under test.
pub enum Target {
    Single(Server),
    Cluster(Vec<ClusterServer>),
}

impl Target {
    pub fn start(mode: Mode, workers: usize) -> Target {
        match mode {
            Mode::Single => Target::Single(
                Server::start(ServeConfig {
                    workers,
                    ..ServeConfig::default()
                })
                .expect("loopback server binds"),
            ),
            Mode::Cluster => {
                let addrs = free_ports(2);
                Target::Cluster(
                    (0..2)
                        .map(|i| {
                            ClusterServer::start(
                                &addrs[i],
                                addrs.clone(),
                                ClusterConfig {
                                    nodes: 2,
                                    me: i as u32,
                                    ..ClusterConfig::default()
                                },
                            )
                            .expect("cluster node binds")
                        })
                        .collect(),
                )
            }
        }
    }

    /// Where the client connects: the server, or cluster node 0.
    pub fn addr(&self) -> SocketAddr {
        match self {
            Target::Single(s) => s.local_addr(),
            Target::Cluster(nodes) => nodes[0].local_addr(),
        }
    }

    /// Every node's address (the one server's, on a single node).
    pub fn node_addrs(&self) -> Vec<SocketAddr> {
        match self {
            Target::Single(s) => vec![s.local_addr()],
            Target::Cluster(nodes) => nodes.iter().map(ClusterServer::local_addr).collect(),
        }
    }

    pub fn stop(self) {
        match self {
            Target::Single(s) => {
                s.shutdown();
                s.join();
            }
            Target::Cluster(nodes) => nodes.into_iter().for_each(ClusterServer::shutdown),
        }
    }
}

fn free_ports(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a free loopback port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("bound address").to_string())
        .collect()
}

/// The service workloads' slots: session `i` opens with `OPENS[i % 4]`;
/// on a cluster, groups of four slots (one of each kind) alternate
/// between the nodes, so both halves carry the same mix of orders.
fn slots() -> Vec<(&'static str, u32)> {
    (0..SESSIONS)
        .map(|i| (OPENS[i % OPENS.len()], ((i / OPENS.len()) % 2) as u32))
        .collect()
}

/// One client connection and the sessions it fanned into.
pub struct Fan {
    pub client: Client,
    /// Session id per slot (slot `i` opened with `OPENS[i % 4]`).
    pub ids: Vec<u64>,
    /// Cluster sessions opened but placed on the wrong node; idle.
    pub extra: Vec<u64>,
}

impl Fan {
    /// Connects and opens one session per slot with that slot's `open`
    /// arguments. On a cluster it keeps opening until each slot's
    /// session is owned by the slot's node (placement is by hash of the
    /// session id); sessions that land elsewhere stay idle in `extra`.
    pub fn open(mode: Mode, addr: SocketAddr, slots: &[(&str, u32)]) -> Result<Fan, String> {
        let mut client = Client::open(addr, slots[0].0)?;
        let mut ids = Vec::with_capacity(slots.len());
        let mut extra = Vec::new();
        let mut spare = Some(client.session());
        let ring = HashRing::new(2);
        for &(open, owner) in slots {
            let mut tries = 0;
            loop {
                let id = match spare.take() {
                    Some(id) => id,
                    None => client.open_session(open)?,
                };
                if mode == Mode::Single || ring.owner(id) == owner {
                    ids.push(id);
                    break;
                }
                extra.push(id);
                tries += 1;
                if tries > 64 {
                    return Err(format!("no session landed on node {owner}"));
                }
            }
        }
        Ok(Fan { client, ids, extra })
    }

    /// Closes every session (a cluster keeps sessions past their
    /// connection; the single-node server reaps them with it).
    pub fn close(mut self, mode: Mode, tally: &mut Tally) {
        if mode == Mode::Cluster {
            let all: Vec<u64> = self.ids.iter().chain(&self.extra).copied().collect();
            let mut lines = String::new();
            for id in &all {
                lines.push_str(&format!("use {id}\nclose\n"));
            }
            let sent = self
                .client
                .send_raw(lines.as_bytes())
                .and_then(|()| self.client.flush());
            tally.check(sent.is_ok(), || format!("close: {sent:?}"));
            let mut oks = 0;
            while oks < 2 * all.len() {
                match self.client.read_reply() {
                    Ok(l) if l.starts_with("ok") => oks += 1,
                    Ok(l) => tally.fail(1, format!("close: {l}")),
                    Err(e) => {
                        tally.fail(1, format!("close: {e}"));
                        break;
                    }
                }
            }
        }
    }
}

/// The sync that follows a batch of frames: `stats-all` on one node; a
/// cluster rejects that, so there it is `use <id>` plus `stats` per
/// session.
pub fn sync_lines(mode: Mode, ids: &[u64]) -> String {
    match mode {
        Mode::Single => "stats-all\n".to_owned(),
        Mode::Cluster => ids.iter().map(|id| format!("use {id}\nstats\n")).collect(),
    }
}

/// Reads the replies to [`sync_lines`] and checks that they account for
/// `per_session` events in every session with nothing rejected and
/// `races` races in total. Counts one operation per session.
pub fn read_sync(
    mode: Mode,
    client: &mut Client,
    sessions: usize,
    per_session: u64,
    races: u64,
    tally: &mut Tally,
) {
    let mut seen = 0;
    let mut race_sum = 0;
    let mut events_ok = true;
    let want = match mode {
        Mode::Single => 1,
        Mode::Cluster => sessions,
    };
    while seen < want {
        let line = match client.read_reply() {
            Ok(l) => l,
            Err(e) => {
                tally.fail(sessions as u64, format!("sync: {e}"));
                return;
            }
        };
        if line.starts_with("err") {
            tally.fail(1, format!("sync: {line}"));
            continue;
        }
        if !line.starts_with("ok stats-all") && !line.starts_with("ok events=") {
            continue; // `ok session <id> attached`
        }
        seen += 1;
        let field = |key: &str| -> u64 {
            line.split_whitespace()
                .find_map(|w| w.strip_prefix(key))
                .and_then(|v| v.parse().ok())
                .unwrap_or(u64::MAX)
        };
        let (events, expected) = match mode {
            Mode::Single => (field("events="), per_session * sessions as u64),
            Mode::Cluster => (field("events="), per_session),
        };
        events_ok &= events == expected;
        let rejected = field("rejected=");
        tally.check(rejected == 0, || format!("sync: rejected={rejected}"));
        race_sum += field("races=");
    }
    tally.check(events_ok, || {
        format!("sync did not account for {per_session} events per session")
    });
    tally.check(race_sum == races, || {
        format!("sync: races={race_sum}, reference {races}")
    });
    tally.ok(sessions as u64);
}

/// Per-session check, one request at a time: events, nothing rejected,
/// and the race total the batch detector finds on the same events.
pub fn check_sessions(
    client: &mut Client,
    ids: &[u64],
    events: &[u64],
    races: &[u64],
    tally: &mut Tally,
) {
    for (i, &id) in ids.iter().enumerate() {
        let reply = client
            .request(&format!("use {id}"))
            .and_then(|_| client.request("stats"));
        let line = match reply {
            Ok(lines) => lines.last().cloned().unwrap_or_default(),
            Err(e) => {
                tally.fail(1, format!("session {id}: {e}"));
                continue;
            }
        };
        let field = |key: &str| -> Option<u64> {
            line.split_whitespace()
                .find_map(|w| w.strip_prefix(key))
                .and_then(|v| v.parse().ok())
        };
        let got = (field("events="), field("rejected="), field("races="));
        tally.check(got == (Some(events[i]), Some(0), Some(races[i])), || {
            format!(
                "session {id}: got (events, rejected, races) = {got:?}, want ({}, 0, {})",
                events[i], races[i]
            )
        });
    }
}

/// Encodes every session's events as multi-session frames of up to
/// `frame` events per session.
pub fn multi_frames(ids: &[u64], streams: &[&[Event]], frame: usize) -> Vec<u8> {
    let len = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut blob = Vec::new();
    let mut at = 0;
    while at < len {
        let groups: Vec<(u64, &[Event])> = ids
            .iter()
            .zip(streams)
            .map(|(&id, s)| (id, &s[at.min(s.len())..(at + frame).min(s.len())]))
            .filter(|(_, s)| !s.is_empty())
            .collect();
        blob.extend_from_slice(&wire::encode_multi_frame(&groups).expect("frames fit the cap"));
        at += frame;
    }
    blob
}

/// One bulk repetition on fresh sessions over a new connection: every
/// stream pipelined, the sync in the same write. Returns the seconds
/// from first byte to the sync's last reply. The first repetition also
/// checks each session on its own.
fn bulk_rep(
    mode: Mode,
    addr: SocketAddr,
    bulk: &Bulk,
    first: bool,
    tally: &mut Tally,
) -> Option<f64> {
    let mut fan = match Fan::open(mode, addr, &slots()) {
        Ok(f) => f,
        Err(e) => {
            tally.fail(1, format!("bulk open: {e}"));
            return None;
        }
    };
    let mut blob = multi_frames(&fan.ids, &bulk.streams, BULK_FRAME);
    blob.extend_from_slice(sync_lines(mode, &fan.ids).as_bytes());
    let start = Instant::now();
    let sent = fan.client.send_raw(&blob).and_then(|()| fan.client.flush());
    if let Err(e) = sent {
        tally.fail(1, format!("bulk write: {e}"));
        return None;
    }
    read_sync(
        mode,
        &mut fan.client,
        SESSIONS,
        BULK_EVENTS as u64,
        bulk.races.iter().sum(),
        tally,
    );
    let secs = start.elapsed().as_secs_f64();
    if first {
        let events = vec![BULK_EVENTS as u64; SESSIONS];
        check_sessions(&mut fan.client, &fan.ids, &events, &bulk.races, tally);
    }
    fan.close(mode, tally);
    Some(secs)
}

/// The bulk phase's streams and their reference race totals.
struct Bulk<'a> {
    streams: Vec<&'a [Event]>,
    races: Vec<u64>,
}

/// One interactive round on `fan`: the next `ROUND_EVENTS` of every
/// live stream as one multi-session frame, then the sync, through the
/// public client. Returns the round's milliseconds.
fn round(
    mode: Mode,
    fan: &mut Fan,
    live: &[&[Event]],
    references: &mut [Reference],
    at: usize,
    tally: &mut Tally,
) -> Option<f64> {
    let groups: Vec<(u64, &[Event])> = fan
        .ids
        .iter()
        .zip(live)
        .map(|(&id, s)| (id, &s[at..at + ROUND_EVENTS]))
        .collect();
    for (r, (_, events)) in references.iter_mut().zip(&groups) {
        r.feed(events);
    }
    let races: u64 = references.iter().map(Reference::total).sum();
    let start = Instant::now();
    let sent = fan
        .client
        .send_multi_frame(&groups)
        .and_then(|()| fan.client.send_raw(sync_lines(mode, &fan.ids).as_bytes()))
        .and_then(|()| fan.client.flush());
    if let Err(e) = sent {
        tally.fail(1, format!("round write: {e}"));
        return None;
    }
    read_sync(
        mode,
        &mut fan.client,
        SESSIONS,
        (at + ROUND_EVENTS) as u64,
        races,
        tally,
    );
    Some(start.elapsed().as_secs_f64() * 1e3)
}

pub fn run(mode: Mode, seed: u64, seconds: f64) -> RunResult {
    let mut tally = Tally::default();
    let workers = std::thread::available_parallelism().map_or(1, usize::from);

    // Load generator inputs: one bulk and one interactive stream per
    // session, and the references their race totals are checked against.
    let bulk_inputs = inputs::session_inputs(seed, SESSIONS, BULK_EVENTS);
    let live_inputs =
        inputs::session_inputs(seed ^ 0x1A7E_12AC, SESSIONS, MAX_ROUNDS * ROUND_EVENTS);
    let bulk = Bulk {
        streams: bulk_inputs.iter().map(|s| s.trace.events()).collect(),
        races: bulk_inputs
            .iter()
            .map(|s| reference_races(s.order(), &s.trace))
            .collect(),
    };
    let live: Vec<&[Event]> = live_inputs.iter().map(|s| s.trace.events()).collect();
    let fresh_references = || -> Vec<Reference> {
        live_inputs
            .iter()
            .map(|s| Reference::new(s.order(), &s.trace))
            .collect()
    };
    let mut references = fresh_references();

    // Set-up, several times; the last system stays up and its sessions
    // carry the interactive rounds.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept: Option<(Target, Fan)> = None;
    for _ in 0..SETUPS {
        if let Some((target, fan)) = kept.take() {
            fan.close(mode, &mut tally);
            target.stop();
        }
        let start = Instant::now();
        let target = Target::start(mode, workers);
        let fan = match Fan::open(mode, target.addr(), &slots()) {
            Ok(f) => f,
            Err(e) => {
                tally.fail(1, format!("set-up: {e}"));
                target.stop();
                return failed_run(tally);
            }
        };
        setup_s.push(start.elapsed().as_secs_f64());
        tally.ok(1);
        kept = Some((target, fan));
    }
    let (target, mut fan) = kept.expect("SETUPS > 0");
    let addr = target.addr();

    // Interactive rounds with a bulk repetition after every
    // BULK_EVERY-th, so both kinds of sample span the whole run.
    let need_rounds = MIN_WINDOWS * window_len();
    let deadline = Deadline::new(seconds);
    let mut round_ms = Vec::new();
    let mut bulk_s = Vec::new();
    // Rounds made on the current sessions.
    let mut cycle = 0;
    loop {
        if cycle == MAX_ROUNDS {
            retire(mode, fan, cycle, &references, &mut tally);
            fan = match Fan::open(mode, addr, &slots()) {
                Ok(f) => f,
                Err(e) => {
                    tally.fail(1, format!("reopen: {e}"));
                    target.stop();
                    return failed_run(tally);
                }
            };
            references = fresh_references();
            cycle = 0;
        }
        let at = cycle * ROUND_EVENTS;
        match round(mode, &mut fan, &live, &mut references, at, &mut tally) {
            Some(ms) => round_ms.push(ms),
            None => break,
        }
        cycle += 1;
        if round_ms.len() % BULK_EVERY == 0 {
            match bulk_rep(mode, addr, &bulk, bulk_s.is_empty(), &mut tally) {
                Some(secs) => bulk_s.push(secs),
                None => break,
            }
        }
        let enough = round_ms.len() >= need_rounds && bulk_s.len() >= BULK_WINDOWS * BULK_WINDOW;
        if (enough && deadline.passed()) || deadline.overrun(Duration::from_secs(60)) {
            break;
        }
    }
    retire(mode, fan, cycle, &references, &mut tally);
    target.stop();
    if round_ms.is_empty() || bulk_s.is_empty() {
        return failed_run(tally);
    }

    let (server, forwarded) = match mode {
        Mode::Single => (format!("server_workers={workers}"), String::new()),
        Mode::Cluster => (
            "server=2-node ring, thread per connection".to_owned(),
            format!(" ({} of {SESSIONS} sessions owned by node 1)", SESSIONS / 2),
        ),
    };
    let per_rep = (SESSIONS * BULK_EVENTS) as f64;
    RunResult {
        metrics: vec![
            ("setup_s", quiet(&setup_s, SETUP_WINDOW, median)),
            ("events_per_s", per_rep / quiet(&bulk_s, BULK_WINDOW, median)),
            ("ack_p50_ms", quiet(&round_ms, window_len(), |w| percentile(w, 50))),
            ("ack_p90_ms", quiet(&round_ms, window_len(), |w| percentile(w, 90))),
        ],
        info: vec![
            format!(
                "{server} client_threads=1 client_connections=2 (interactive + bulk) \
                 sessions={SESSIONS}{forwarded}"
            ),
            format!(
                "setups={SETUPS} bulk_reps={} ({BULK_EVENTS} events/session, {} events/rep, \
                 one per {BULK_EVERY} rounds, windows of {BULK_WINDOW}) rounds={} ({} events/round, \
                 closed loop, 1 client, windows of {}) whole-run ack p50 {:.3} ms p90 {:.3} ms",
                bulk_s.len(),
                SESSIONS * BULK_EVENTS,
                round_ms.len(),
                SESSIONS * ROUND_EVENTS,
                window_len(),
                percentile(&round_ms, 50),
                percentile(&round_ms, 90)
            ),
        ],
        tally,
    }
}

/// Checks every session of `fan` against `references` after `rounds`
/// interactive rounds on it, then closes it.
fn retire(mode: Mode, mut fan: Fan, rounds: usize, references: &[Reference], tally: &mut Tally) {
    let done = (rounds * ROUND_EVENTS) as u64;
    let races: Vec<u64> = references.iter().map(Reference::total).collect();
    check_sessions(
        &mut fan.client,
        &fan.ids,
        &vec![done; SESSIONS],
        &races,
        tally,
    );
    fan.close(mode, tally);
}

/// The result of a run that could not set up: no metrics, only the
/// failure (the caller exits non-zero).
fn failed_run(tally: Tally) -> RunResult {
    RunResult {
        metrics: Vec::new(),
        info: Vec::new(),
        tally,
    }
}
