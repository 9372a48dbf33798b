//! End-to-end service tests over real sockets: concurrent sessions,
//! protocol behavior, both wire protocols (text lines and batched
//! binary frames) on one port, checkpoint/resume across connections,
//! per-connection flow control and teardown, and the smoke driver the
//! CI job runs.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tc_stream::service::{MAX_QUEUED_EVENTS, READ_CHUNK};
use tc_stream::{smoke, Client, ServeConfig, Server, CLIENT_WRITE_TIMEOUT};
use tc_trace::gen::WorkloadSpec;
use tc_trace::wire;
use tc_trace::{Event, Op, ThreadId, VarId};

fn start() -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        auth: None,
    })
    .expect("bind on a free port")
}

#[test]
fn smoke_drives_two_concurrent_sessions_against_batch() {
    smoke().expect("the smoke run must pass");
}

#[test]
fn protocol_shutdown_terminates_the_server() {
    // Regression: a protocol-level `shutdown` must wake the blocking
    // acceptor (not just set the flag), or `tcr serve` hangs forever
    // after replying `ok shutting-down`.
    let server = start();
    let addr = server.local_addr();
    let mut client = Client::open(addr, "hb tc").unwrap();
    let reply = client.request("shutdown").unwrap();
    assert!(reply.last().unwrap().contains("shutting-down"), "{reply:?}");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = tx.send(());
    });
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("join() must return after a protocol shutdown");
}

#[test]
fn bad_handshakes_are_rejected_until_a_valid_open() {
    let server = start();
    let addr = server.local_addr();
    let err = Client::open(addr, "frobnicate tc").unwrap_err();
    assert!(err.contains("open failed"), "{err}");
    // The same *connection* keeps accepting handshake retries; a new
    // client with a valid open succeeds.
    let mut client = Client::open(addr, "maz vc").unwrap();
    let replies = client.request("stats").unwrap();
    assert!(replies.last().unwrap().contains("order=MAZ"), "{replies:?}");
    assert!(replies.last().unwrap().contains("backend=vector"));
    client.request("close").unwrap();
    server.shutdown();
    server.join();
}

#[test]
fn checkpoint_and_resume_across_connections() {
    let dir = std::env::temp_dir().join(format!("tc-stream-svc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cp_path = dir.join("session.tccp");
    let cp_str = cp_path.to_str().unwrap();

    let server = start();
    let addr = server.local_addr();

    // Session 1: feed half a racy workload (inside a critical section,
    // so the validator state matters), checkpoint, disconnect — without
    // ever polling, so the race is still undelivered.
    let mut c1 = Client::open(addr, "hb tc").unwrap();
    c1.send("main w x").unwrap();
    c1.send("worker w x").unwrap(); // race 1
    c1.send("main acq m").unwrap(); // still held at the checkpoint
    let reply = c1.request(&format!("checkpoint {cp_str}")).unwrap();
    assert!(
        reply.last().unwrap().starts_with("ok checkpoint"),
        "{reply:?}"
    );
    c1.request("close").unwrap();

    // Session 2: resume and continue — the held lock must still be
    // releasable (validator state traveled), old races must be stored,
    // and new races must keep arriving.
    let mut c2 = Client::open(addr, &format!("resume {cp_str}")).unwrap();
    c2.send("main rel m").unwrap(); // valid only if held_by survived
    c2.send("t2 w x").unwrap(); // races with the last write (epoch check)
    let stats = c2.request("stats").unwrap();
    let line = stats.last().unwrap();
    assert!(line.contains("events=5"), "{line}");
    assert!(line.contains("rejected=0"), "{line}");
    let races = c2.request("races").unwrap();
    let stored: Vec<&String> = races.iter().filter(|l| l.starts_with("race ")).collect();
    assert_eq!(stored.len(), 2, "{races:?}");
    // The pre-checkpoint race survived the restore; the new thread's
    // name from *this* connection resolved past the resumed tables.
    assert!(stored[0].contains("1@t0"), "{races:?}");
    assert!(stored[1].contains("1@t2"), "{races:?}");
    // The poll watermark traveled too: session 1 never polled, so the
    // resumed session's first poll delivers BOTH races (the
    // pre-checkpoint one was never handed to any consumer).
    let poll = c2.request("poll").unwrap();
    let polled = poll.iter().filter(|l| l.starts_with("race ")).count();
    assert_eq!(polled, 2, "{poll:?}");
    c2.request("close").unwrap();

    // A resume from a missing file is a handshake error.
    let err = Client::open(addr, "resume /definitely/not/here.tccp").unwrap_err();
    assert!(err.contains("cannot resume"), "{err}");

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(dir).unwrap();
}

/// A modest racy workload for the wire tests.
fn wire_trace(seed: u64) -> tc_trace::Trace {
    WorkloadSpec {
        threads: 6,
        locks: 2,
        vars: 4,
        events: 600,
        sync_ratio: 0.2,
        shared_fraction: 0.8,
        seed,
        ..WorkloadSpec::default()
    }
    .generate()
}

#[test]
fn shutdown_while_clients_are_mid_session() {
    // Shutdown must wake every connection's reader and the acceptor
    // and exit promptly, even with clients connected and events still
    // arriving unsynchronized.
    let server = start();
    let addr = server.local_addr();
    let mut a = Client::open(addr, "hb tc").unwrap();
    let mut b = Client::open(addr, "shb hc").unwrap();
    for line in ["main w x", "worker w x", "main acq m"] {
        a.send(line).unwrap();
        b.send(line).unwrap();
    }
    // Deliberately no poll/close: both sessions are live, one lock is
    // still held.
    server.shutdown();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = tx.send(());
    });
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("join() must return while clients are still connected");
    drop((a, b));
}

#[test]
fn text_and_binary_clients_share_one_port_and_agree() {
    use tc_analysis::HbRaceDetector;
    use tc_core::TreeClock;

    let server = start();
    let addr = server.local_addr();
    let trace = wire_trace(77);

    // Binary client: dense-id frames, text `races` for synchronization.
    let text = tc_trace::text_format::to_text(&trace);
    let binary = std::thread::spawn({
        let trace = trace.clone();
        move || {
            let mut c = Client::open(addr, "hb tc").unwrap();
            let id = c.session();
            for batch in trace.events().chunks(128) {
                c.send_frame(id, batch).unwrap();
            }
            let races = c.request("races").unwrap();
            c.request("close").unwrap();
            races
        }
    });
    // Text client: same workload, line protocol, concurrently.
    let texty = std::thread::spawn(move || {
        let mut c = Client::open(addr, "hb tc").unwrap();
        for line in text.lines() {
            c.send(line).unwrap();
        }
        let races = c.request("races").unwrap();
        c.request("close").unwrap();
        races
    });

    let races_bin = binary.join().unwrap();
    let races_text = texty.join().unwrap();
    let total = |r: &[String]| {
        r.last()
            .unwrap()
            .split_whitespace()
            .nth(2)
            .unwrap()
            .parse::<u64>()
            .unwrap()
    };
    let batch = HbRaceDetector::<TreeClock>::new(&trace).run(&trace);
    assert_eq!(total(&races_bin), batch.total, "binary vs batch");
    assert_eq!(total(&races_text), batch.total, "text vs batch");

    server.shutdown();
    server.join();
}

#[test]
fn one_connection_fans_frames_into_many_sessions() {
    let server = start();
    let addr = server.local_addr();
    let traces: Vec<_> = (0..3).map(|i| wire_trace(100 + i)).collect();

    let mut client = Client::open(addr, "hb tc").unwrap();
    let mut ids = vec![client.session()];
    ids.push(client.open_session("shb vc").unwrap());
    ids.push(client.open_session("hb hc").unwrap());

    // Interleave frames across the three sessions round-robin.
    let batches: Vec<Vec<_>> = traces
        .iter()
        .map(|t| t.events().chunks(64).collect())
        .collect();
    let rounds = batches.iter().map(Vec::len).max().unwrap();
    for round in 0..rounds {
        for (s, b) in ids.iter().zip(&batches) {
            if let Some(batch) = b.get(round) {
                client.send_frame(*s, batch).unwrap();
            }
        }
    }

    // Synchronize each session in turn via `use` and check its event
    // count — per-session FIFO order must have survived the fan-in.
    for (s, t) in ids.iter().zip(&traces) {
        let attach = client.request(&format!("use {s}")).unwrap();
        assert!(attach.last().unwrap().contains("attached"), "{attach:?}");
        let stats = client.request("stats").unwrap();
        let line = stats.last().unwrap();
        assert!(
            line.contains(&format!("events={}", t.len())),
            "session {s}: {line}"
        );
        assert!(line.contains("rejected=0"), "session {s}: {line}");
    }
    client.request("close").unwrap();
    server.shutdown();
    server.join();
}

/// A dense-id frame of `reps` rounds over four independent racy pairs
/// (threads `2i`/`2i+1` on variable `i`).
fn racy_pairs_frame(reps: usize) -> Vec<Event> {
    let mut events = Vec::with_capacity(reps * 8);
    for _ in 0..reps {
        for pair in 0..4u32 {
            events.push(Event::new(
                ThreadId::new(2 * pair),
                Op::Write(VarId::new(pair)),
            ));
            events.push(Event::new(
                ThreadId::new(2 * pair + 1),
                Op::Write(VarId::new(pair)),
            ));
        }
    }
    events
}

#[test]
fn use_rebinding_across_connections_keeps_the_poll_cursor() {
    // Regression (poll-cursor audit): a second connection attaching to
    // a session via `use <id>` shares the session's poll watermark —
    // races already delivered to the first connection must not be
    // re-delivered, and races it drains must not reappear on the
    // first connection's next poll.
    let server = start();
    let addr = server.local_addr();

    let mut a = Client::open(addr, "hb tc").unwrap();
    let id = a.session();
    a.send("main w x").unwrap();
    a.send("worker w x").unwrap();
    let poll_a = a.request("poll").unwrap();
    let delivered_a = poll_a.iter().filter(|l| l.starts_with("race ")).count();
    assert_eq!(delivered_a, 1, "{poll_a:?}");

    // Connection B opens its own session (left idle), then attaches to
    // A's session and produces one more race there.
    let mut b = Client::open(addr, "hb tc").unwrap();
    let attach = b.request(&format!("use {id}")).unwrap();
    assert!(attach.last().unwrap().contains("attached"), "{attach:?}");
    b.send("t2 w x").unwrap();
    let poll_b = b.request("poll").unwrap();
    let delivered_b = poll_b.iter().filter(|l| l.starts_with("race ")).count();
    let total: u64 = poll_b
        .last()
        .unwrap()
        .split_whitespace()
        .nth(2)
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert_eq!(
        delivered_b as u64,
        total - 1,
        "B must only see races past A's watermark: {poll_b:?}"
    );

    // A's next poll starts from B's watermark: nothing new.
    let poll_a2 = a.request("poll").unwrap();
    assert_eq!(
        poll_a2.iter().filter(|l| l.starts_with("race ")).count(),
        0,
        "{poll_a2:?}"
    );
    a.request("close").unwrap();
    drop(b);
    server.shutdown();
    server.join();
}

#[test]
fn multi_session_frames_and_stats_all_aggregate_in_one_round_trip() {
    let server = start();
    let addr = server.local_addr();

    // An empty connection aggregates to zero without opening anything.
    let mut bare = TcpStream::connect(addr).unwrap();
    bare.write_all(b"stats-all\n").unwrap();
    let mut line = String::new();
    BufReader::new(bare.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert_eq!(
        line.trim_end(),
        "ok stats-all sessions=0 events=0 rejected=0 races=0 recycled_slots=0 \
         peak_clock_bytes=0 live_threads=0"
    );
    drop(bare);

    // Three sessions fed round-robin through multi-session frames.
    let traces: Vec<_> = (0..3).map(|i| wire_trace(200 + i)).collect();
    let mut client = Client::open(addr, "hb tc").unwrap();
    let ids = [
        client.session(),
        client.open_session("shb vc").unwrap(),
        client.open_session("maz hc").unwrap(),
    ];
    let batches: Vec<Vec<_>> = traces
        .iter()
        .map(|t| t.events().chunks(64).collect())
        .collect();
    let rounds = batches.iter().map(Vec::len).max().unwrap();
    for round in 0..rounds {
        let groups: Vec<(u64, &[Event])> = ids
            .iter()
            .zip(&batches)
            .filter_map(|(s, b)| b.get(round).map(|batch| (*s, *batch)))
            .collect();
        client.send_multi_frame(&groups).unwrap();
    }

    // One round-trip synchronizes all three sessions.
    let (sessions, events, rejected, races) = client.stats_all().unwrap();
    assert_eq!(sessions, 3);
    assert_eq!(
        events,
        traces.iter().map(|t| t.len() as u64).sum::<u64>(),
        "per-session FIFO order must survive the multi-frame fan-in"
    );
    assert_eq!(rejected, 0);

    // The aggregate equals the sum of the per-session race totals.
    let mut per_session = 0u64;
    for s in ids {
        client.request(&format!("use {s}")).unwrap();
        let reply = client.request("races").unwrap();
        per_session += reply
            .last()
            .unwrap()
            .split_whitespace()
            .nth(2)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap();
    }
    assert_eq!(races, per_session);
    client.request("close").unwrap();
    server.shutdown();
    server.join();
}

#[test]
fn frames_for_unknown_sessions_error_without_killing_the_connection() {
    let server = start();
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(&wire::encode_multi_frame(&[(4096, &[])]).unwrap())
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("err unknown session 4096"), "{line}");
    // The connection survives and can still open a session.
    stream.write_all(b"open hb tc\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ok session"), "{line}");
    server.shutdown();
    server.join();
}

#[test]
fn corrupt_frames_close_the_connection() {
    let server = start();
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    // Magic + absurd length: the server must reply `err` and hang up
    // rather than buffer 2 GiB.
    stream
        .write_all(&[wire::MULTI_MAGIC, 0xFF, 0xFF, 0xFF, 0x7F])
        .unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).unwrap(); // EOF proves the hangup
    let text = String::from_utf8_lossy(&reply);
    assert!(text.starts_with("err"), "{text}");
    server.shutdown();
    server.join();
}

/// A well-formed frame of the retired single-session kind, built by
/// hand since no encoder for it remains: magic `0xF7`, a u32 LE payload
/// length, then the session id, the event count and the records. That
/// payload is a one-group `0xF6` payload without its group count.
fn retired_single_session_frame(session: u64, events: &[Event]) -> Vec<u8> {
    let multi = wire::encode_multi_frame(&[(session, events)]).unwrap();
    assert_eq!(multi[wire::FRAME_HEADER_LEN], 1, "a one-byte group count");
    let payload = &multi[wire::FRAME_HEADER_LEN + 1..];
    let mut bytes = vec![0xF7];
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

#[test]
fn the_retired_single_session_magic_is_a_corrupt_frame() {
    let server = start();
    let addr = server.local_addr();
    let metrics = server.metrics();
    let registry = metrics.registry();
    let trace = wire_trace(0xf7);
    let batches: Vec<&[Event]> = trace.events().chunks(64).collect();
    let half = batches.len() / 2;

    // The report a session gets with no intruder around.
    let mut alone = Client::open(addr, "hb tc").unwrap();
    let id = alone.session();
    for batch in &batches {
        alone.send_frame(id, batch).unwrap();
    }
    let want = alone.request("races").unwrap();
    alone.request("close").unwrap();

    let errors = || {
        (
            registry.counter_value("tc_wire_errors"),
            registry.counter_value("tc_wire_errors_total{kind=\"corrupt\"}"),
        )
    };
    let before = errors();
    let mut client = Client::open(addr, "hb tc").unwrap();
    let id = client.session();
    for batch in &batches[..half] {
        client.send_frame(id, batch).unwrap();
    }
    client.request("stats").unwrap();

    // An old-style frame addressed to that session is refused with one
    // `err` line naming the magic, and its connection is dropped.
    let mut intruder = TcpStream::connect(addr).unwrap();
    intruder
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    intruder
        .write_all(&retired_single_session_frame(id, batches[half]))
        .unwrap();
    let mut reply = String::new();
    intruder.read_to_string(&mut reply).unwrap(); // EOF proves the hangup
    let lines: Vec<&str> = reply.lines().collect();
    assert_eq!(lines.len(), 1, "{reply}");
    assert!(lines[0].starts_with("err "), "{reply}");
    assert!(lines[0].contains("bad frame magic 0xf7"), "{reply}");
    let after = errors();
    assert_eq!((after.0 - before.0, after.1 - before.1), (1, 1));

    // The session it addressed never saw it.
    for batch in &batches[half..] {
        client.send_frame(id, batch).unwrap();
    }
    assert_eq!(client.request("races").unwrap(), want);
    client.request("close").unwrap();
    server.shutdown();
    server.join();
}

#[test]
fn send_frame_splits_oversize_batches_into_one_group_frames() {
    let server = start();
    let mut client = Client::open(server.local_addr(), "hb tc").unwrap();
    let id = client.session();
    // Seven events past the split size: the client sends two frames,
    // and an empty batch still sends one (empty) frame.
    let events =
        vec![Event::new(ThreadId::new(0), Op::Write(VarId::new(0))); wire::MAX_SPLIT_EVENTS + 7];
    client.send_frame(id, &events).unwrap();
    client.send_frame(id, &[]).unwrap();
    let stats = client.request("stats").unwrap();
    let line = stats.last().unwrap();
    assert!(
        line.contains(&format!("events={} ", events.len())),
        "{line}"
    );
    assert!(line.contains("rejected=0"), "{line}");
    let scrape = client.metrics_scrape().unwrap();
    assert_eq!(sample(&scrape, "tc_messages_total{wire=\"multi\"}"), 3);
    assert_eq!(
        sample(&scrape, "tc_batch_events_sum{wire=\"multi\"}"),
        events.len() as u64
    );
    client.request("close").unwrap();
    server.shutdown();
    server.join();
}

#[test]
fn recycling_session_reports_identity_telemetry() {
    let server = start();
    let addr = server.local_addr();
    let mut client = Client::open(addr, "hb tc recycle").unwrap();
    // Fork/act/join churn: once the coordinator joins a worker, its
    // slot is reclaimable, so each new wave's bind reuses it.
    for wave in 0..4 {
        let w = format!("w{wave}");
        client.send(&format!("main fork {w}")).unwrap();
        client.send(&format!("{w} w x")).unwrap();
        client.send(&format!("main join {w}")).unwrap();
    }
    let stats = client.request("stats").unwrap();
    let line = stats.last().unwrap();
    assert!(line.contains("live_threads=1"), "{line}");
    assert!(line.contains("total_threads=5"), "{line}");
    let field = |key: &str| -> u64 {
        line.split_whitespace()
            .find_map(|w| w.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing {key} in `{line}`"))
    };
    assert!(field("recycled_slots=") > 0, "{line}");
    assert!(field("peak_clock_bytes=") > 0, "{line}");

    // The aggregate reply carries the recycled count too.
    let reply = client.request("stats-all").unwrap();
    let agg = reply.last().unwrap();
    assert!(agg.contains("sessions=1"), "{agg}");
    let recycled: u64 = agg
        .split_whitespace()
        .find_map(|w| w.strip_prefix("recycled_slots="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("missing recycled_slots in `{agg}`"));
    assert!(recycled > 0, "{agg}");
    client.request("close").unwrap();
    server.shutdown();
    server.join();
}

/// The exact value of one exposition sample — `name value` or
/// `name{labels} value`, matched on the full series name.
fn sample(scrape: &str, name: &str) -> u64 {
    scrape
        .lines()
        .find_map(|l| {
            let (n, v) = l.rsplit_once(' ')?;
            if n == name {
                v.parse::<u64>().ok()
            } else {
                None
            }
        })
        .unwrap_or_else(|| panic!("no sample `{name}` in scrape:\n{scrape}"))
}

#[test]
fn metrics_scrape_agrees_with_stats_and_counts_wire_errors() {
    let server = start();
    let addr = server.local_addr();
    let trace = wire_trace(0x0b5);

    // One text session and one binary session, each synchronized with
    // `stats`. The global counters advance *before* each reply is
    // written, so a scrape after both replies must account for every
    // event the clients know the server accepted.
    let mut text = Client::open(addr, "hb tc").unwrap();
    for line in tc_trace::text_format::to_text(&trace).lines() {
        text.send(line).unwrap();
    }
    let stats = text.request("stats").unwrap();
    let line = stats.last().unwrap().clone();
    assert!(line.contains(&format!("events={}", trace.len())), "{line}");
    // The server-scope suffix rides on every per-session stats reply.
    for field in [
        "uptime_ms=",
        "conns_accepted=",
        "conns_active=",
        "workers=2",
        "wire_errors=0",
    ] {
        assert!(line.contains(field), "missing `{field}` in `{line}`");
    }

    let mut bin = Client::open(addr, "hb tc").unwrap();
    let id = bin.session();
    let frames = trace.events().chunks(128).count() as u64;
    for batch in trace.events().chunks(128) {
        bin.send_frame(id, batch).unwrap();
    }
    bin.request("stats").unwrap();

    // Two classified wire errors: a frame for a session that never
    // existed, and an oversize length header that hangs up the
    // connection. Both are counted by the connection's reader before
    // it replies, so they are visible once the reply (or EOF) is read.
    let mut stray = TcpStream::connect(addr).unwrap();
    stray
        .write_all(&wire::encode_multi_frame(&[(4096, &[])]).unwrap())
        .unwrap();
    let mut reply = String::new();
    BufReader::new(stray.try_clone().unwrap())
        .read_line(&mut reply)
        .unwrap();
    assert!(reply.starts_with("err unknown session"), "{reply}");
    let mut oversize = TcpStream::connect(addr).unwrap();
    oversize
        .write_all(&[wire::MULTI_MAGIC, 0xFF, 0xFF, 0xFF, 0x7F])
        .unwrap();
    let mut hangup = Vec::new();
    oversize.read_to_end(&mut hangup).unwrap();

    // `metrics` works on a bound connection (it also works bare, which
    // the CI cross-check exercises with a raw socket).
    let scrape = text.metrics_scrape().unwrap();
    assert!(scrape.ends_with("# EOF\n"), "{scrape}");
    assert_eq!(sample(&scrape, "tc_events_total"), 2 * trace.len() as u64);
    // +1: the stray unknown-session frame below still *parses* as a
    // frame message before its session lookup fails.
    assert_eq!(
        sample(&scrape, "tc_messages_total{wire=\"multi\"}"),
        frames + 1
    );
    assert!(sample(&scrape, "tc_messages_total{wire=\"text\"}") >= 1);
    assert_eq!(sample(&scrape, "tc_sessions_opened_total"), 2);
    assert_eq!(
        sample(&scrape, "tc_wire_errors_total{kind=\"unknown_session\"}"),
        1
    );
    assert_eq!(
        sample(&scrape, "tc_wire_errors_total{kind=\"oversize\"}"),
        1
    );
    assert_eq!(sample(&scrape, "tc_wire_errors"), 2);
    assert_eq!(sample(&scrape, "tc_workers"), 2);
    assert!(sample(&scrape, "tc_reply_us_count") >= 2);
    assert!(sample(&scrape, "tc_peak_clock_bytes") > 0);
    assert!(sample(&scrape, "tc_batch_events_count{wire=\"multi\"}") >= frames);

    // The stats suffix reflects the wire errors too.
    let after = text.request("stats").unwrap();
    assert!(after.last().unwrap().contains("wire_errors=2"), "{after:?}");

    text.request("close").unwrap();
    bin.request("close").unwrap();
    server.shutdown();
    server.join();
}

/// A fake server that accepts `drops` connections and hangs up on each
/// immediately (the shape a dying or failing-over node presents),
/// then serves one real `open` handshake.
fn drop_after_accept_server(drops: usize) -> std::net::SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for _ in 0..drops {
            let (stream, _) = listener.accept().unwrap();
            drop(stream); // hang up before reading the handshake
        }
        if let Ok((stream, _)) = listener.accept() {
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let mut stream = stream;
            stream
                .write_all(b"ok session 9 order HB clock tree\n")
                .unwrap();
        }
    });
    addr
}

#[test]
fn client_open_retries_once_after_a_dropped_handshake() {
    // One drop, then a real handshake: the retry absorbs the
    // failover-window disconnect.
    let addr = drop_after_accept_server(1);
    let client = Client::open(addr, "hb tc").expect("one dropped handshake must be retried");
    assert_eq!(client.session(), 9);
}

#[test]
fn client_open_surfaces_a_second_dropped_handshake() {
    // Two drops: exactly one retry, then the error surfaces.
    let addr = drop_after_accept_server(2);
    let err = Client::open(addr, "hb tc").unwrap_err();
    assert!(
        err.contains("closed the connection") || err.contains("reset"),
        "{err}"
    );
}

#[test]
fn protocol_errors_are_not_retried() {
    // An `err` reply is a rejection, not a dead connection — the retry
    // must not re-send it (a second open would burn a session id).
    let server = start();
    let err = Client::open(server.local_addr(), "frobnicate tc").unwrap_err();
    assert!(err.contains("open failed"), "{err}");
    server.shutdown();
    server.join();
}

#[test]
fn auth_gates_shutdown_and_counts_rejections() {
    let server = Server::start(ServeConfig {
        auth: Some("sekret".to_owned()),
        ..ServeConfig::default()
    })
    .expect("bind on a free port");
    let addr = server.local_addr();
    let mut client = Client::open(addr, "hb tc").unwrap();

    // Unauthenticated shutdown: refused, server stays up.
    client.send("shutdown").unwrap();
    client.flush().unwrap();
    let reply = client.read_reply().unwrap();
    assert_eq!(reply, "err auth required for shutdown");

    // Wrong token: refused.
    client.send("auth wr0ng").unwrap();
    client.flush().unwrap();
    assert_eq!(client.read_reply().unwrap(), "err bad auth token");

    // Both rejections are classified wire errors.
    let scrape = client.metrics_scrape().unwrap();
    assert_eq!(sample(&scrape, "tc_wire_errors_total{kind=\"auth\"}"), 2);
    assert_eq!(sample(&scrape, "tc_wire_errors"), 2);

    // The right token authenticates the connection; shutdown works.
    client.send("auth sekret").unwrap();
    client.flush().unwrap();
    assert_eq!(client.read_reply().unwrap(), "ok authed");
    client.send("shutdown").unwrap();
    client.flush().unwrap();
    assert_eq!(client.read_reply().unwrap(), "ok shutting-down");
    server.join();
}

#[test]
fn constant_time_compare_is_exact() {
    use tc_stream::constant_time_eq;
    assert!(constant_time_eq(b"sekret", b"sekret"));
    assert!(constant_time_eq(b"", b""));
    assert!(!constant_time_eq(b"sekret", b"sekrer"));
    assert!(!constant_time_eq(b"sekret", b"sekre"));
    assert!(!constant_time_eq(b"sekret", b"sekrets"));
    assert!(!constant_time_eq(b"", b"x"));
}

#[test]
fn evicting_session_rejects_spontaneous_threads_via_protocol() {
    let server = start();
    let addr = server.local_addr();
    let mut client = Client::open(addr, "hb tc evict 1").unwrap();
    client.send("main acq m").unwrap();
    client.send("main rel m").unwrap();
    client.send("main fork child").unwrap();
    client.send("child acq m").unwrap();
    client.send("child rel m").unwrap();
    // A spontaneous thread after evictions: the event errors, the
    // session survives.
    client.send("ghost w x").unwrap();
    let stats = client.request("stats").unwrap();
    assert!(
        stats.iter().any(|l| l.contains("fork discipline")),
        "{stats:?}"
    );
    let line = stats.last().unwrap();
    assert!(line.contains("events=5"), "{line}");
    assert!(line.contains("evicted="), "{line}");
    client.request("close").unwrap();
    server.shutdown();
    server.join();
}

#[test]
fn a_sync_behind_a_large_frame_is_not_held_for_a_delayed_ack() {
    // Each round is one frame over 8 KiB plus `stats-all`, written
    // through the public client. With Nagle's algorithm on, the short
    // sync waits behind the frame for the server's delayed ACK — about
    // 40 ms on Linux — instead of going out at once.
    let server = start();
    let mut client = Client::open(server.local_addr(), "hb tc").unwrap();
    let id = client.session();
    let frame = racy_pairs_frame(512);
    assert!(wire::encode_multi_frame(&[(id, &frame)]).unwrap().len() > 8 * 1024);
    let mut round_ms: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            client.send_frame(id, &frame).unwrap();
            let (sessions, _, rejected, _) = client.stats_all().unwrap();
            assert_eq!((sessions, rejected), (1, 0));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    round_ms.sort_by(f64::total_cmp);
    let median = round_ms[round_ms.len() / 2];
    assert!(median < 20.0, "median round {median:.2} ms: {round_ms:?}");
    server.shutdown();
    server.join();
}

#[test]
fn a_client_that_never_reads_is_severed_without_stalling_others() {
    let server = start();
    let addr = server.local_addr();
    let metrics = server.metrics();
    let severed = || metrics.registry().counter_value("tc_conn_severed_total");

    // One raw connection pipelines far more `metrics` replies than the
    // socket buffers on both ends can hold, and never reads any.
    let mut good = Client::open(addr, "hb tc").unwrap();
    good.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    let reply_len = good.metrics_scrape().unwrap().len();
    let hostile = TcpStream::connect(addr).unwrap();
    let flood = "metrics\n".repeat((64 << 20) / reply_len + 1);
    let started = Instant::now();
    let writer = std::thread::spawn({
        let mut hostile = hostile.try_clone().unwrap();
        move || {
            // Fails once the server severs the connection mid-flood.
            let _ = hostile.write_all(flood.as_bytes());
        }
    });

    // Meanwhile the well-behaved client keeps completing frame + sync
    // rounds; its read timeout turns a stall into a failure.
    let id = good.session();
    let frame = racy_pairs_frame(8);
    let mut rounds = 0;
    while severed() == 0 {
        assert!(
            started.elapsed() < 3 * CLIENT_WRITE_TIMEOUT,
            "the non-reading connection was never severed"
        );
        good.send_frame(id, &frame).unwrap();
        let (sessions, events, rejected, _) = good.stats_all().unwrap();
        rounds += 1;
        assert_eq!((sessions, events, rejected), (1, rounds * 64, 0));
    }
    assert!(
        started.elapsed() >= CLIENT_WRITE_TIMEOUT,
        "severed before the write timeout ran out"
    );
    assert!(rounds > 10, "only {rounds} round(s) completed meanwhile");

    // The severed client reads what the buffers held, then the end of
    // the stream (or a reset), not silence.
    hostile
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = Vec::new();
    if let Err(e) = (&hostile).read_to_end(&mut sink) {
        assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}");
    }
    writer.join().unwrap();
    assert_eq!(severed(), 1);
    let (_, events, _, _) = good.stats_all().unwrap();
    assert_eq!(events, rounds * 64);
    server.shutdown();
    server.join();
}

#[test]
fn a_half_written_frame_stalls_only_its_own_connection() {
    let server = start();
    let addr = server.local_addr();

    // A raw connection opens a session, sends a frame header plus part
    // of its payload, and then goes silent with the socket left open.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(b"open hb tc\n").unwrap();
    let mut opened = String::new();
    BufReader::new(stalled.try_clone().unwrap())
        .read_line(&mut opened)
        .unwrap();
    let stalled_id: u64 = opened
        .strip_prefix("ok session ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|id| id.parse().ok())
        .unwrap_or_else(|| panic!("unexpected open reply `{opened}`"));
    let frame = wire::encode_multi_frame(&[(stalled_id, &racy_pairs_frame(8))]).unwrap();
    assert_eq!(frame[0], wire::MULTI_MAGIC);
    stalled.write_all(&frame[..frame.len() / 2]).unwrap();

    // A well-behaved client keeps completing frame + sync rounds; its
    // read timeout turns a stall into a failure.
    let mut good = Client::open(addr, "hb tc").unwrap();
    good.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    let id = good.session();
    let events = racy_pairs_frame(8);
    for round in 1..=50u64 {
        good.send_frame(id, &events).unwrap();
        let (sessions, fed, rejected, _) = good.stats_all().unwrap();
        assert_eq!((sessions, fed, rejected), (1, round * 64, 0));
    }

    // Shutdown with the half-written frame still pending: `join`
    // returns within a second and the stalled client sees the end of
    // the stream.
    let (done_tx, done_rx) = mpsc::channel();
    let started = Instant::now();
    std::thread::spawn(move || {
        server.shutdown();
        server.join();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(1))
        .unwrap_or_else(|_| panic!("join() still blocked after {:?}", started.elapsed()));
    stalled
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let mut rest = Vec::new();
    if let Err(e) = stalled.read_to_end(&mut rest) {
        assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}");
    }
}

#[test]
fn pipelined_events_stay_within_the_queue_bound_and_teardown_is_prompt() {
    let server = start();
    let addr = server.local_addr();
    let metrics = server.metrics();
    let registry = metrics.registry();

    // One connection pipelines eight times the bound in 7-byte lines
    // and synchronizes once: its reader must pause rather than decode
    // ahead of the worker, so at most one read's worth of lines ever
    // sits past the bound.
    let line = "t0 w x\n";
    let lines = 8 * MAX_QUEUED_EVENTS;
    let mut flood = Client::open(addr, "hb tc").unwrap();
    flood.send_raw(line.repeat(lines).as_bytes()).unwrap();
    let stats = flood.request("stats").unwrap();
    let last = stats.last().unwrap();
    assert!(last.contains(&format!("events={lines}")), "{last}");
    assert!(last.contains("rejected=0"), "{last}");
    let high_water = registry.gauge_value("tc_conn_queued_events_high_water") as usize;
    assert!(
        high_water <= MAX_QUEUED_EVENTS + READ_CHUNK / line.len() + 1,
        "{high_water} events queued against a bound of {MAX_QUEUED_EVENTS}"
    );
    assert!(registry.counter_value("tc_read_paused_total") > 0);

    // `close` ends the connection: the client reads the reply, then
    // the end of the stream, promptly.
    let mut closing = Client::open(addr, "hb tc").unwrap();
    closing
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    assert_eq!(closing.request("close").unwrap(), ["ok bye"]);
    let eof = closing.read_reply().unwrap_err();
    assert!(eof.contains("closed the connection"), "{eof}");

    // Shutdown with idle clients blocked in read: every reader wakes,
    // `join` returns within a second, the clients see the end of the
    // stream and no connection is left on the books.
    let (ready_tx, ready_rx) = mpsc::channel();
    let idle: Vec<_> = (0..3)
        .map(|_| {
            let mut client = Client::open(addr, "hb tc").unwrap();
            let ready = ready_tx.clone();
            std::thread::spawn(move || {
                ready.send(()).unwrap();
                client.read_reply()
            })
        })
        .collect();
    for _ in 0..idle.len() {
        ready_rx.recv().unwrap();
    }
    let (done_tx, done_rx) = mpsc::channel();
    let started = Instant::now();
    std::thread::spawn(move || {
        server.shutdown();
        server.join();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(1))
        .unwrap_or_else(|_| panic!("join() still blocked after {:?}", started.elapsed()));
    for client in idle {
        let eof = client.join().unwrap().unwrap_err();
        assert!(eof.contains("closed the connection"), "{eof}");
    }
    assert_eq!(registry.gauge_value("tc_connections_active"), 0);
    drop(flood);
}
