//! Three-node cluster integration suite.
//!
//! The deterministic half drives [`LocalCluster`] (no sockets, no
//! timing): byte-identical failover, in-flight tail replay, handoff,
//! and the stable-prefix GC bound. The socket half starts three real
//! [`ClusterServer`]s on localhost and exercises placement,
//! client-transparent forwarding FIFO, and heartbeat-detected
//! failover end to end.

use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use tc_cluster::{ClusterConfig, ClusterServer, HashRing, LocalCluster};
use tc_stream::{parse_open, Client, Session};

/// The canonical racy workload: two unordered writers per variable,
/// plus some synchronized noise. Returns (lines, expected race count).
fn workload() -> (Vec<String>, usize) {
    let mut lines = Vec::new();
    for v in 0..4 {
        lines.push(format!("t0 w x{v}"));
        lines.push(format!("t1 w x{v}"));
        lines.push("t0 acq l".to_owned());
        lines.push("t0 rel l".to_owned());
        lines.push("t1 acq l".to_owned());
        lines.push(format!("t1 r x{v}"));
        lines.push("t1 rel l".to_owned());
    }
    (lines, 4)
}

/// Runs the same lines through a plain single-process session and
/// returns (races reply, checkpoint bytes) — the ground truth every
/// cluster path must match byte for byte.
fn reference(lines: &[String]) -> (String, Vec<u8>) {
    let (clock, config) = parse_open(&["hb", "tc"]).expect("valid open");
    let mut session = Session::new(1, clock, config);
    let mut sink = String::new();
    for line in lines {
        sink.clear();
        session.handle_line(line, &mut sink);
        assert!(!sink.contains("err"), "reference rejected {line}: {sink}");
    }
    let mut races = String::new();
    session.handle_line("races", &mut races);
    (races, session.checkpoint().to_bytes())
}

fn checkpoint_path(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("tc_cluster_it_{tag}_{}", std::process::id()));
    dir.to_string_lossy().into_owned()
}

// ---- deterministic (LocalCluster) -----------------------------------

#[test]
fn failover_is_byte_identical_including_subsequent_checkpoints() {
    let (lines, expected) = workload();
    let (want_races, want_cp) = reference(&lines);

    // delta_every=2 with periodic ticks: the replica follows closely.
    let mut c = LocalCluster::with_delta_every(3, 2);
    let id = c.open(0, 1, "hb tc");
    let owner = c.node_ref(0).place(id);
    let half = lines.len() / 2;
    for line in &lines[..half] {
        assert_eq!(c.client_line(0, 1, line), "", "feed {line}");
    }
    c.tick();

    // Kill the owner; the gateway must survive, so use a different one
    // when node 0 was the owner.
    let gateway = (0..3).find(|&n| n != owner).expect("two survive");
    c.kill(owner);
    let new_owner = c.node_ref(gateway).place(id);
    assert_ne!(new_owner, owner, "ownership moved");
    assert!(c.node_ref(new_owner).owns(id), "replica promoted");

    // The rest of the run flows through a survivor gateway.
    assert!(c
        .client_line(gateway, 7, &format!("use {id}"))
        .starts_with("ok session"));
    for line in &lines[half..] {
        assert_eq!(c.client_line(gateway, 7, line), "", "feed {line}");
    }
    let races = c.client_line(gateway, 7, "races");
    assert_eq!(races, want_races, "race report identical after failover");
    assert!(races.contains(&format!("ok {expected} {expected}")));

    // Subsequent checkpoints are byte-identical to the uninterrupted
    // run — the TCCP determinism contract survives resume + replay.
    let path = checkpoint_path("failover");
    let reply = c.client_line(gateway, 7, &format!("checkpoint {path}"));
    assert!(reply.starts_with("ok checkpoint"), "got {reply:?}");
    let got = std::fs::read(&path).expect("checkpoint file");
    let _ = std::fs::remove_file(&path);
    assert_eq!(got, want_cp, "checkpoint bytes identical after failover");
}

#[test]
fn in_flight_tail_replays_when_no_recent_delta_exists() {
    let (lines, _) = workload();
    let (want_races, want_cp) = reference(&lines);

    // A huge delta cadence: the replica holds only the open snapshot
    // plus the raw payload tail, so promotion must replay everything.
    let mut c = LocalCluster::with_delta_every(3, 1_000_000);
    let id = c.open(0, 1, "hb tc");
    let owner = c.node_ref(0).place(id);
    for line in &lines {
        assert_eq!(c.client_line(0, 1, line), "");
    }
    let gateway = (0..3).find(|&n| n != owner).expect("two survive");
    c.kill(owner);
    assert!(c
        .client_line(gateway, 7, &format!("use {id}"))
        .starts_with("ok session"));
    let races = c.client_line(gateway, 7, "races");
    assert_eq!(races, want_races, "full-tail replay reproduces the report");

    let path = checkpoint_path("replay");
    c.client_line(gateway, 7, &format!("checkpoint {path}"));
    let got = std::fs::read(&path).expect("checkpoint file");
    let _ = std::fs::remove_file(&path);
    assert_eq!(got, want_cp);
}

#[test]
fn handoff_moves_ownership_without_losing_state() {
    let (lines, _) = workload();
    let (want_races, _) = reference(&lines);
    let mut c = LocalCluster::with_delta_every(3, 4);
    let id = c.open(0, 1, "hb tc");
    let owner = c.node_ref(0).place(id);
    let half = lines.len() / 2;
    for line in &lines[..half] {
        assert_eq!(c.client_line(0, 1, line), "");
    }
    let reply = c.client_line(0, 1, &format!("handoff {id}"));
    assert!(reply.starts_with("ok handoff"), "got {reply:?}");
    let new_owner = c.node_ref(0).place(id);
    assert_ne!(new_owner, owner, "handoff changed the owner");
    assert!(c.node_ref(new_owner).owns(id));
    assert!(!c.node_ref(owner).owns(id));
    // Traffic keeps flowing through the same gateway, unmoved client.
    for line in &lines[half..] {
        assert_eq!(c.client_line(0, 1, line), "");
    }
    assert_eq!(c.client_line(0, 1, "races"), want_races);
}

#[test]
fn stability_bounds_delta_bytes_under_churn() {
    // The same workload twice: with gossip ticks (stability advances,
    // deltas diff against fresh bases) and without (the base never
    // promotes past the empty checkpoint, so every delta degenerates
    // toward a full snapshot). The metric ratio IS the stable-prefix
    // GC win.
    let churn: Vec<String> = (0..120)
        .map(|i| format!("t{} w v{}", i % 3, i % 7))
        .collect();

    let run = |ticked: bool| -> (u64, u64, u64) {
        let mut c = LocalCluster::with_delta_every(3, 4);
        let id = c.open(0, 1, "hb tc");
        let owner = c.node_ref(0).place(id);
        for (i, line) in churn.iter().enumerate() {
            assert_eq!(c.client_line(0, 1, line), "");
            if ticked && i % 4 == 3 {
                c.tick();
            }
        }
        let reg = c.node_ref(owner).registry();
        (
            reg.counter_value("tc_cluster_delta_bytes_total"),
            reg.counter_value("tc_cluster_checkpoint_bytes_total"),
            reg.counter_value("tc_cluster_deltas_total"),
        )
    };

    let (stable_delta, stable_cp, _) = run(true);
    let (stalled_delta, stalled_cp, stalled_n) = run(false);
    assert!(stable_delta > 0 && stalled_delta > 0);
    // Deltas never cost more than shipping checkpoints whole. The
    // stalled run degenerates every delta to one full-snapshot
    // literal, which carries ≤4 bytes of op framing (tag + length
    // varint) on top of the raw checkpoint — allow exactly that.
    assert!(stable_delta <= stable_cp, "{stable_delta} vs {stable_cp}");
    assert!(
        stalled_delta <= stalled_cp + 4 * stalled_n,
        "{stalled_delta} vs {stalled_cp} (+framing)"
    );
    // ...and advancing stability shrinks them by an integer factor.
    assert!(
        stable_delta * 2 <= stalled_delta,
        "stable {stable_delta} should be well under stalled {stalled_delta}"
    );
}

// ---- sockets (ClusterServer) ----------------------------------------

/// Reserves `n` distinct localhost ports by binding and dropping
/// listeners. Racy in principle, fine in a test process.
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect()
}

fn start_ring(addrs: &[String], tick: Duration, miss: u32) -> Vec<ClusterServer> {
    (0..addrs.len())
        .map(|i| {
            ClusterServer::start_with(
                &addrs[i],
                addrs.to_vec(),
                ClusterConfig {
                    nodes: addrs.len(),
                    me: i as u32,
                    delta_every: 2,
                    auth: None,
                },
                tick,
                miss,
            )
            .expect("start node")
        })
        .collect()
}

fn sock(addr: &str) -> SocketAddr {
    addr.parse().expect("socket addr")
}

/// Reads a potentially multi-line reply (e.g. `races`: race lines
/// followed by an `ok`/`err` terminator), newline-joined like the
/// reference session's sink.
fn read_report(client: &mut Client) -> String {
    let mut out = String::new();
    loop {
        let line = client.read_reply().expect("reply line");
        out.push_str(&line);
        out.push('\n');
        if line.starts_with("ok") || line.starts_with("err") {
            return out;
        }
    }
}

#[test]
fn sockets_placement_matches_the_ring_and_any_gateway_serves() {
    let addrs = reserve_addrs(3);
    let servers = start_ring(&addrs, Duration::from_millis(25), 40);
    let ring = HashRing::new(3);

    let mut client = Client::open(sock(&addrs[0]), "hb tc").expect("open");
    let id = client.session();
    // The admin view agrees with an independently built ring.
    client.send(&format!("ring {id}")).unwrap();
    client.flush().unwrap();
    let reply = client.read_reply().unwrap();
    let owner: u32 = reply
        .split_whitespace()
        .nth(4)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("bad ring reply {reply:?}"));
    assert_eq!(owner, ring.owner(id), "server placement matches the ring");

    // Feed through gateway 0, read through gateway 2.
    for line in ["t0 w x", "t1 w x"] {
        client.send(line).unwrap();
    }
    client.send("stats").unwrap();
    client.flush().unwrap();
    let stats = client.read_reply().unwrap();
    assert!(stats.contains("events=2"), "got {stats:?}");

    let mut other = Client::open(sock(&addrs[2]), "hb tc").expect("open");
    other.send(&format!("use {id}")).unwrap();
    other.flush().unwrap();
    assert!(other.read_reply().unwrap().starts_with("ok session"));
    other.send("races").unwrap();
    other.flush().unwrap();
    let races = read_report(&mut other);
    assert!(races.contains("ok 1 1"), "got {races:?}");

    for s in servers {
        s.shutdown();
    }
}

#[test]
fn sockets_forwarding_preserves_per_session_fifo() {
    let addrs = reserve_addrs(3);
    let servers = start_ring(&addrs, Duration::from_millis(25), 40);

    let mut client = Client::open(sock(&addrs[1]), "hb tc").expect("open");
    // Pipeline event/stats pairs without waiting: the monotone
    // events= counter in each reply proves the owner saw the stream
    // in order, forwarded or not.
    const N: u64 = 32;
    for i in 0..N {
        client.send(&format!("t{} w v{}", i % 3, i % 5)).unwrap();
        client.send("stats").unwrap();
    }
    client.flush().unwrap();
    for i in 1..=N {
        let reply = client.read_reply().unwrap();
        assert!(
            reply.contains(&format!("events={i} ")),
            "reply {i} out of order: {reply:?}"
        );
    }
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn sockets_peer_plane_requires_auth_when_configured() {
    use std::io::{Read, Write};
    use tc_trace::{wire, ClusterMsg};

    let addrs = reserve_addrs(3);
    let servers: Vec<ClusterServer> = (0..3)
        .map(|i| {
            ClusterServer::start_with(
                &addrs[i],
                addrs.clone(),
                ClusterConfig {
                    nodes: 3,
                    me: i as u32,
                    delta_every: 2,
                    auth: Some("sekret".into()),
                },
                Duration::from_millis(25),
                40,
            )
            .expect("start node")
        })
        .collect();

    // An unauthenticated connection speaking the peer protocol is cut
    // off before its message reaches the core — this forged
    // ForwardLine would otherwise execute the auth-gated handoff
    // admin command.
    let mut rogue = std::net::TcpStream::connect(sock(&addrs[0])).expect("connect");
    let forged = wire::encode_cluster(&ClusterMsg::ForwardLine {
        origin: 1,
        token: 1,
        session: 42,
        text: "handoff 42".into(),
    })
    .expect("encode");
    rogue.write_all(&forged).expect("write");
    let mut sink = Vec::new();
    let _ = rogue.read_to_end(&mut sink); // the server hangs up
    assert!(sink.is_empty(), "no reply to forged peer traffic: {sink:?}");

    // The ring itself still works: real peer links carry the token in
    // their Hello, so forwarding and admin commands keep flowing.
    let mut client = Client::open(sock(&addrs[1]), "hb tc").expect("open");
    let id = client.session();
    client.send("auth sekret").unwrap();
    client.send(&format!("ring {id}")).unwrap();
    for line in ["t0 w x", "t1 w x", "races"] {
        client.send(line).unwrap();
    }
    client.flush().unwrap();
    assert!(client.read_reply().unwrap().starts_with("ok authed"));
    assert!(client.read_reply().unwrap().starts_with("ok session"));
    let races = read_report(&mut client);
    assert!(races.contains("ok 1 1"), "got {races:?}");

    for s in servers {
        s.shutdown();
    }
}

#[test]
fn sockets_reject_the_retired_single_session_magic() {
    use std::io::{Read, Write};
    use tc_trace::{text_format, wire};

    // Dense-id events and the report a plain session gives them.
    let (lines, _) = workload();
    let trace = text_format::parse_text(&lines.join("\n")).expect("workload parses");
    let events = trace.events();
    let half = events.len() / 2;
    let (clock, config) = parse_open(&["hb", "tc"]).expect("valid open");
    let mut session = Session::new(1, clock, config);
    let mut want = String::new();
    session.handle_frame(events, &mut want);
    assert!(want.is_empty(), "reference rejected an event: {want}");
    session.handle_line("races", &mut want);

    let addrs = reserve_addrs(3);
    let servers = start_ring(&addrs, Duration::from_millis(25), 40);
    let mut client = Client::open(sock(&addrs[0]), "hb tc").expect("open");
    let id = client.session();
    client.send_frame(id, &events[..half]).unwrap();
    client.send("stats").unwrap();
    client.flush().unwrap();
    assert!(client
        .read_reply()
        .unwrap()
        .contains(&format!("events={half} ")));

    // An old-style frame addressed to that session, built by hand: magic
    // 0xF7, a u32 LE length, then a one-group 0xF6 payload without its
    // group count. It gets one `err` line and loses its connection.
    let multi = wire::encode_multi_frame(&[(id, &events[half..])]).unwrap();
    let payload = &multi[wire::FRAME_HEADER_LEN + 1..];
    let mut retired = vec![0xF7];
    retired.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    retired.extend_from_slice(payload);
    let mut intruder = std::net::TcpStream::connect(sock(&addrs[0])).expect("connect");
    intruder
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    intruder.write_all(&retired).expect("write");
    let mut reply = String::new();
    intruder
        .read_to_string(&mut reply)
        .expect("the node hangs up");
    let got: Vec<&str> = reply.lines().collect();
    assert_eq!(got.len(), 1, "{reply}");
    assert!(got[0].starts_with("err "), "{reply}");
    assert!(got[0].contains("bad frame magic 0xf7"), "{reply}");

    // The session it addressed never saw it.
    client.send_frame(id, &events[half..]).unwrap();
    client.send("races").unwrap();
    client.flush().unwrap();
    assert_eq!(read_report(&mut client), want);

    for s in servers {
        s.shutdown();
    }
}

#[test]
fn sockets_heartbeat_failover_recovers_byte_identical_reports() {
    let (lines, _) = workload();
    let (want_races, want_cp) = reference(&lines);

    let addrs = reserve_addrs(3);
    let tick = Duration::from_millis(20);
    let mut servers: Vec<Option<ClusterServer>> =
        start_ring(&addrs, tick, 5).into_iter().map(Some).collect();
    let ring = HashRing::new(3);

    // Let the ring warm up (peer links + first heartbeats).
    std::thread::sleep(tick * 4);

    let probe = Client::open(sock(&addrs[0]), "hb tc").expect("open");
    let id = probe.session();
    let owner = ring.owner(id);
    let gateway = (0..3).find(|&n| n != owner).expect("two survive");
    drop(probe);

    let mut client = Client::open(sock(&addrs[gateway as usize]), "hb tc").expect("open gateway");
    client.send(&format!("use {id}")).unwrap();
    client.flush().unwrap();
    assert!(client.read_reply().unwrap().starts_with("ok session"));

    let half = lines.len() / 2;
    for line in &lines[..half] {
        client.send(line).unwrap();
    }
    // Synchronize so every pre-kill payload reached the owner AND its
    // replica before the murder.
    client.send("stats").unwrap();
    client.flush().unwrap();
    assert!(client
        .read_reply()
        .unwrap()
        .contains(&format!("events={half} ")));
    std::thread::sleep(tick * 4);

    servers[owner as usize].take().expect("owner alive").abort();

    // Wait until the survivors declare the owner dead and promote.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        client.send(&format!("ring {id}")).unwrap();
        client.flush().unwrap();
        let reply = client.read_reply().unwrap();
        let now: Option<u32> = reply.split_whitespace().nth(4).and_then(|v| v.parse().ok());
        if now.is_some() && now != Some(owner) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "failover did not happen; last ring reply {reply:?}"
        );
        std::thread::sleep(tick);
    }

    for line in &lines[half..] {
        client.send(line).unwrap();
    }
    client.send("races").unwrap();
    client.flush().unwrap();
    let races = read_report(&mut client);
    assert_eq!(
        races, want_races,
        "race report identical after socket failover"
    );

    let path = checkpoint_path("socket_failover");
    client.send(&format!("checkpoint {path}")).unwrap();
    client.flush().unwrap();
    assert!(client.read_reply().unwrap().starts_with("ok checkpoint"));
    let got = std::fs::read(&path).expect("checkpoint file");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        got, want_cp,
        "checkpoint bytes identical after socket failover"
    );

    for s in servers.into_iter().flatten() {
        s.shutdown();
    }
}
