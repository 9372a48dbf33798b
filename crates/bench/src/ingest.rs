//! Ingest throughput: events/sec through the live `tcr serve` socket
//! path, measured end to end over real loopback connections.
//!
//! Two protocols × two fan-in shapes, the four first-class records of
//! the baseline document:
//!
//! - **text / 1 session** — the line protocol, one connection, the
//!   whole workload pipelined and synchronized with a trailing `stats`;
//! - **binary / 1 session** — the same workload as length-prefixed
//!   event frames ([`tc_trace::wire`]), batched [`FRAME_EVENTS`] events
//!   per frame;
//! - **text / 1000 sessions** — one connection *per session* (text
//!   lines bind to the connection's current session), all pipelined,
//!   then each synchronized;
//! - **binary / 1000 sessions** — one connection fanning into 1000
//!   sessions with *multi-session frames* (one wire message carries a
//!   batch for every session, amortizing the header + queue hop
//!   1000-fold), synchronized with a single `stats-all` round trip
//!   that folds in behind every session's pending work.
//!
//! The timed region covers event delivery *and* the final
//! synchronization, so a record's `events_per_sec` is the sustained
//! rate a client actually observes, not a fire-and-forget number.
//! Session setup (opens, connections) is excluded. Each cell is a
//! single pass — the workloads are large enough that per-pass noise is
//! well under the text-vs-binary margins the baseline tracks.

use std::net::SocketAddr;
use std::time::Instant;

use tc_stream::{Client, ServeConfig, Server};
use tc_trace::gen::WorkloadSpec;
use tc_trace::{text_format, wire, Trace};

/// Events per binary frame — inside the 256–1024 sweet spot where the
/// per-frame overhead (sniff, header, queue hop) is amortized but a
/// frame still fits comfortably in socket buffers.
pub const FRAME_EVENTS: usize = 512;

/// One measured ingest cell.
#[derive(Clone, Debug)]
pub struct IngestRecord {
    /// `"text"` or `"binary"`.
    pub mode: &'static str,
    /// Concurrent sessions the events fanned into.
    pub sessions: usize,
    /// Total events delivered across all sessions.
    pub events: u64,
    /// Wall-clock seconds from first byte to last synchronized session.
    pub seconds: f64,
}

impl IngestRecord {
    /// The headline rate.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.seconds.max(1e-9)
    }
}

/// Workload sizes for one ingest collection.
#[derive(Clone, Copy, Debug)]
pub struct IngestScale {
    /// Events of the single-session workload.
    pub single_events: usize,
    /// Sessions in the fan-in cells.
    pub fanin_sessions: usize,
    /// Events *per session* in the fan-in cells.
    pub fanin_events_each: usize,
}

impl IngestScale {
    /// The CI scale.
    pub fn quick() -> Self {
        IngestScale {
            single_events: 30_000,
            fanin_sessions: 1_000,
            fanin_events_each: 30,
        }
    }

    /// The default scale for committed baselines.
    pub fn default_scale() -> Self {
        IngestScale {
            single_events: 120_000,
            fanin_sessions: 1_000,
            fanin_events_each: 120,
        }
    }
}

/// A service-shaped workload: enough threads and variables that the
/// detector does real work, racy enough that races actually flow.
fn workload(events: usize, seed: u64) -> Trace {
    WorkloadSpec {
        threads: 8,
        locks: 4,
        vars: 64,
        events,
        sync_ratio: 0.1,
        shared_fraction: 0.5,
        seed,
        ..WorkloadSpec::default()
    }
    .generate()
}

/// Runs all four ingest cells against a private in-process server.
/// `progress` is called before each cell.
pub fn collect(scale: IngestScale, mut progress: impl FnMut(&str)) -> Vec<IngestRecord> {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        telemetry: true,
        auth: None,
    })
    .expect("ingest bench server binds a free loopback port");
    let addr = server.local_addr();

    progress("ingest/text/1");
    let mut records = vec![single_session(addr, scale.single_events, false)];
    progress("ingest/binary/1");
    records.push(single_session(addr, scale.single_events, true));
    progress(&format!("ingest/text/{}", scale.fanin_sessions));
    records.push(fanin_text(addr, scale));
    progress(&format!("ingest/binary/{}", scale.fanin_sessions));
    records.push(fanin_binary(addr, scale));

    server.shutdown();
    server.join();
    records
}

/// Asserts the synchronizing `stats` reply accounts for every event —
/// a throughput number for events that silently vanished would be
/// worse than no number.
fn assert_synced(line: &str, events: usize, cell: &str) {
    assert!(
        line.contains(&format!("events={events}")) && line.contains("rejected=0"),
        "{cell}: expected events={events} rejected=0 in `{line}`"
    );
}

pub(crate) fn single_session(addr: SocketAddr, events: usize, binary: bool) -> IngestRecord {
    let trace = workload(events, 0x1261);
    let mut client = Client::open(addr, "hb tc").expect("ingest bench session opens");
    // Pre-render outside the timed region: the cell measures the
    // service's ingest rate, not the client's formatter. (Frames need
    // the server-assigned session id, hence after the open.)
    let payload = if binary {
        let id = client.session();
        let mut blob = Vec::new();
        for chunk in trace.events().chunks(FRAME_EVENTS) {
            blob.extend_from_slice(&wire::encode_frame(id, chunk).expect("bench frames fit"));
        }
        blob
    } else {
        text_format::to_text(&trace).into_bytes()
    };

    let mode = if binary { "binary" } else { "text" };
    let start = Instant::now();
    client.send_raw(&payload).expect("ingest payload writes");
    let stats = client.request("stats").expect("ingest stats syncs");
    let seconds = start.elapsed().as_secs_f64();
    assert_synced(
        stats.last().expect("stats terminator"),
        trace.len(),
        &format!("{mode}/1"),
    );
    client.request("close").expect("ingest session closes");
    IngestRecord {
        mode,
        sessions: 1,
        events: trace.len() as u64,
        seconds,
    }
}

/// Text fan-in: one connection per session (bare text lines bind to
/// the connection's current session), every payload pipelined before
/// any reply is read.
fn fanin_text(addr: SocketAddr, scale: IngestScale) -> IngestRecord {
    let trace = workload(scale.fanin_events_each, 0x1262);
    let mut payload = text_format::to_text(&trace);
    payload.push_str("stats\n");
    let mut clients: Vec<Client> = (0..scale.fanin_sessions)
        .map(|_| Client::open(addr, "hb tc").expect("fan-in session opens"))
        .collect();

    let start = Instant::now();
    for client in &mut clients {
        client.send_raw(payload.as_bytes()).expect("fan-in payload");
        client.flush().expect("fan-in flush");
    }
    for client in &mut clients {
        loop {
            let line = client.read_reply().expect("fan-in stats reply");
            if line.starts_with("ok") {
                assert_synced(&line, trace.len(), "text/fan-in");
                break;
            }
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    IngestRecord {
        mode: "text",
        sessions: scale.fanin_sessions,
        events: (scale.fanin_sessions * trace.len()) as u64,
        seconds,
    }
}

/// Binary fan-in: one connection, `fanin_sessions` sessions, one
/// *multi-session* frame per chunk round (a single wire message
/// carrying that chunk for every session), then one `stats-all` round
/// trip as the synchronization point — the aggregate reply folds in
/// behind each session's pending work, so it is exactly the barrier
/// the per-session `use`/`stats` tail used to be, minus the 1000
/// reply round trips.
fn fanin_binary(addr: SocketAddr, scale: IngestScale) -> IngestRecord {
    let trace = workload(scale.fanin_events_each, 0x1263);
    let mut client = Client::open(addr, "hb tc").expect("fan-in connection opens");
    let mut ids = vec![client.session()];
    for _ in 1..scale.fanin_sessions {
        ids.push(client.open_session("hb tc").expect("fan-in session opens"));
    }

    // Pre-encode the full stream: one multi-frame per chunk round.
    let mut blob = Vec::new();
    for chunk in trace.events().chunks(FRAME_EVENTS) {
        let groups: Vec<(u64, &[tc_trace::Event])> = ids.iter().map(|&id| (id, chunk)).collect();
        blob.extend_from_slice(&wire::encode_multi_frame(&groups).expect("bench frames fit"));
    }

    let start = Instant::now();
    client.send_raw(&blob).expect("fan-in frames write");
    let (sessions, events, rejected, _races) = client.stats_all().expect("fan-in stats-all syncs");
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(
        (sessions, rejected),
        (ids.len() as u64, 0),
        "binary/fan-in: aggregate must cover every session cleanly"
    );
    assert_eq!(
        events,
        (ids.len() * trace.len()) as u64,
        "binary/fan-in: aggregate must account for every event"
    );
    IngestRecord {
        mode: "binary",
        sessions: scale.fanin_sessions,
        events: (scale.fanin_sessions * trace.len()) as u64,
        seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_ingest_cells_measure_and_account_for_every_event() {
        let scale = IngestScale {
            single_events: 2_000,
            fanin_sessions: 8,
            fanin_events_each: 50,
        };
        let records = collect(scale, |_| {});
        assert_eq!(records.len(), 4);
        for r in &records {
            assert!(r.seconds > 0.0, "{r:?}");
            assert!(r.events > 0, "{r:?}");
            assert!(r.events_per_sec() > 0.0, "{r:?}");
        }
        assert_eq!(records[0].sessions, 1);
        assert_eq!(records[2].sessions, 8);
        assert_eq!(records[2].events, 8 * 50);
    }
}
