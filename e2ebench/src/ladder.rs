//! The traced run: the workload's inputs driven through every layer's
//! public entry point, one layer at a time, with a span around each
//! call. Each layer repeats until its share of the run's seconds is
//! spent and reports the median repetition.
//!
//! Spans come from this file only, around calls into the program; the
//! program itself records none. The run prints the per-layer table,
//! the self time of every span name and the tracing overhead, and
//! writes the spans as a chrome://tracing file.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tc_analysis::{HbRaceDetector, MazAnalyzer, ShbRaceDetector};
use tc_core::{HybridClock, LogicalClock, TreeClock, VectorClock};
use tc_orders::{HbEngine, MazEngine, PartialOrderKind, RunMetrics, ShbEngine};
use tc_stream::{parse_open, AnyDetector, ClockChoice, DetectorConfig, Session};
use tc_trace::{binary_format, wire, Event, Trace};

use crate::inputs::SessionInput;
use crate::serve::{multi_frames, read_sync, sync_lines, Fan, Mode, Target, BULK_FRAME};
use crate::spans::{self, Tracer};
use crate::stats::{self, median, Tally};
use crate::{Deadline, RunResult};

/// The ladder's rows: metric, the end-to-end metric it should move,
/// and where ("flat on" lists workloads predicted not to move).
const ROWS: [(&str, &str, &str); 19] = [
    (
        "tc_trace.decode_ns_per_event",
        "setup_s",
        "star-360, pairwise-360; flat on their events_per_s",
    ),
    (
        "tc_core.ds_work_per_event",
        "events_per_s",
        "star-360, pairwise-360",
    ),
    (
        "tc_core.vt_work_per_event",
        "nothing (input changed)",
        "all batch",
    ),
    (
        "tc_core.ns_per_ds_work",
        "events_per_s",
        "star-360, pairwise-360; flat on serve-mixed",
    ),
    (
        "tc_core.tc_vs_vc_speedup",
        "events_per_s",
        "star-360 (>1), pairwise-360 (<1)",
    ),
    ("tc_orders.engine_ns_per_event", "events_per_s", "all"),
    (
        "tc_analysis.detect_ns_per_event",
        "events_per_s",
        "batch in full; serve-mixed diluted to ~1/3",
    ),
    (
        "tc_stream.feed_ns_per_event",
        "events_per_s",
        "serve-mixed; flat on batch",
    ),
    (
        "tc_stream.session_ns_per_event",
        "events_per_s",
        "serve-mixed, cluster-forward",
    ),
    (
        "tc_trace.wire_decode_ns_per_event",
        "events_per_s",
        "serve-mixed, cluster-forward",
    ),
    ("tc_stream.service.open_ms", "setup_s", "serve-mixed"),
    (
        "tc_stream.service.empty_rtt_ms",
        "ack_p50_ms",
        "serve-mixed; flat on bulk events_per_s",
    ),
    (
        "tc_stream.service.handle_us_mean",
        "ack_p50_ms, events_per_s",
        "serve-mixed",
    ),
    (
        "tc_stream.service.queue_depth_hw",
        "peak_rss_mb",
        "serve-mixed bulk",
    ),
    (
        "tc_stream.service.steal_ratio",
        "events_per_s",
        "serve-mixed",
    ),
    (
        "tc_cluster.forward_tax_pct",
        "events_per_s, ack_p50_ms",
        "cluster-forward; flat on serve-mixed",
    ),
    ("tc_cluster.empty_rtt_ms", "ack_p50_ms", "cluster-forward"),
    (
        "tc_cluster.delta_bytes_per_event",
        "events_per_s, peak_rss_mb",
        "cluster-forward",
    ),
    ("trace.overhead_pct", "nothing (measurement tax)", "all"),
];

/// Fewest repetitions of any timed layer.
const MIN_REPS: usize = 3;
/// Most repetitions of any layer: enough for a steady median, and it
/// keeps the span file of the fast layers small.
const MAX_REPS: usize = 25;
/// Requests behind each round-trip median.
const RTT_SAMPLES: usize = 32;
/// Timed items sharing the run's seconds (layers; the two-sided ones
/// count twice).
const SHARES: f64 = 13.0;
/// Events per session the service and cluster layers take: all of a
/// service workload's streams, the head of a batch trace (the cluster
/// ships a full checkpoint of a 360-thread session every few frames,
/// which would take the whole run).
const SERVICE_EVENTS: usize = 32_768;

/// One session's parsed `open` arguments.
struct Slot<'a> {
    order: PartialOrderKind,
    clock: ClockChoice,
    config: DetectorConfig,
    open: &'static str,
    trace: &'a Trace,
}

/// Repeats `f` inside a span named `layer` (round = repetition) until
/// `budget` seconds have passed or [`MAX_REPS`] were made, and at least
/// [`MIN_REPS`]; returns each repetition's seconds.
fn repeat(
    t: &mut Tracer,
    layer: &'static str,
    budget: f64,
    mut f: impl FnMut(&mut Tracer),
) -> Vec<f64> {
    let deadline = Deadline::new(budget);
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || (!deadline.passed() && reps.len() < MAX_REPS) {
        let start = Instant::now();
        t.span(layer, reps.len() as u64, &mut f);
        reps.push(start.elapsed().as_secs_f64());
        if deadline.overrun(Duration::from_secs(30)) {
            break;
        }
    }
    reps
}

fn engine_run<C: LogicalClock>(order: PartialOrderKind, trace: &Trace) -> RunMetrics {
    match order {
        PartialOrderKind::Hb => HbEngine::<C>::run(trace),
        PartialOrderKind::Shb => ShbEngine::<C>::run(trace),
        PartialOrderKind::Maz => MazEngine::<C>::run(trace),
    }
}

fn detect_run<C: LogicalClock>(order: PartialOrderKind, trace: &Trace) -> u64 {
    match order {
        PartialOrderKind::Hb => HbRaceDetector::<C>::new(trace).run(trace).total,
        PartialOrderKind::Shb => ShbRaceDetector::<C>::new(trace).run(trace).total,
        PartialOrderKind::Maz => MazAnalyzer::<C>::new(trace).run(trace).total,
    }
}

fn by_clock<T>(
    clock: ClockChoice,
    tree: impl FnOnce() -> T,
    vector: impl FnOnce() -> T,
    hybrid: impl FnOnce() -> T,
) -> T {
    match clock {
        ClockChoice::Tree => tree(),
        ClockChoice::Vector => vector(),
        ClockChoice::Hybrid => hybrid(),
    }
}

fn engine_name(order: PartialOrderKind) -> &'static str {
    match order {
        PartialOrderKind::Hb => "HbEngine::run",
        PartialOrderKind::Shb => "ShbEngine::run",
        PartialOrderKind::Maz => "MazEngine::run",
    }
}

fn detector_name(order: PartialOrderKind) -> &'static str {
    match order {
        PartialOrderKind::Hb => "HbRaceDetector::run",
        PartialOrderKind::Shb => "ShbRaceDetector::run",
        PartialOrderKind::Maz => "MazAnalyzer::run",
    }
}

/// Feeds every slot's stream through `Session::handle_frame` in
/// bulk-sized frames, with a span per frame when `traced`. Returns the
/// rejected-event count.
fn session_pass(t: &mut Tracer, slots: &[Slot], traced: bool) -> u64 {
    let mut rejected = 0;
    for (i, s) in slots.iter().enumerate() {
        let mut session = Session::new(i as u64 + 1, s.clock, s.config);
        let mut out = String::new();
        for (f, frame) in s.trace.events().chunks(BULK_FRAME).enumerate() {
            if traced {
                t.span("Session::handle_frame", f as u64, |_| {
                    session.handle_frame(frame, &mut out)
                });
            } else {
                session.handle_frame(frame, &mut out);
            }
        }
        rejected += session.rejected();
        black_box(out);
    }
    rejected
}

/// Scrapes a node's `metrics` exposition over a fresh connection.
fn scrape(addr: SocketAddr) -> Result<Vec<(String, f64)>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.write_all(b"metrics\n").map_err(|e| e.to_string())?;
    let mut text = String::new();
    let mut reader = BufReader::new(stream);
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("connection closed mid-scrape".to_owned());
        }
        text.push_str(&line);
        if line.trim_end() == "# EOF" {
            return Ok(stats::parse_prometheus(&text));
        }
    }
}

/// Ingests every slot's stream over `fan` as bulk multi-session frames
/// plus the sync, under a bulk span with send and sync children.
/// Returns the seconds from first byte to the sync's last reply.
fn bulk(
    t: &mut Tracer,
    mode: Mode,
    fan: &mut Fan,
    streams: &[&[Event]],
    races: u64,
    tally: &mut Tally,
) -> f64 {
    let [name, send, sync_name] = match mode {
        Mode::Single => ["bulk (server)", "send (server)", "sync (server)"],
        Mode::Cluster => ["bulk (cluster)", "send (cluster)", "sync (cluster)"],
    };
    let blob = multi_frames(&fan.ids, streams, BULK_FRAME);
    let sync = sync_lines(mode, &fan.ids);
    let per_session = streams.iter().map(|s| s.len()).max().unwrap_or(0) as u64;
    let start = Instant::now();
    t.span(name, 0, |t| {
        t.span(send, 0, |_| {
            let sent = fan
                .client
                .send_raw(&blob)
                .and_then(|()| fan.client.send_raw(sync.as_bytes()))
                .and_then(|()| fan.client.flush());
            tally.check(sent.is_ok(), || format!("bulk write: {sent:?}"));
        });
        t.span(sync_name, 0, |_| {
            read_sync(
                mode,
                &mut fan.client,
                fan.ids.len(),
                per_session,
                races,
                tally,
            )
        });
    });
    start.elapsed().as_secs_f64()
}

/// The traced run over `inputs` (one entry per session). Writes the
/// span file for `workload` and `seed` under `out/`.
pub fn run(workload: &str, seed: u64, inputs: &[SessionInput], seconds: f64) -> RunResult {
    let mut tally = Tally::default();
    let mut t = Tracer::new();
    let share = seconds / SHARES;
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let slots: Vec<Slot> = inputs
        .iter()
        .map(|s| {
            let parts: Vec<&str> = s.open.split_whitespace().collect();
            let (clock, config) = parse_open(&parts).expect("OPENS parse");
            Slot {
                order: s.order(),
                clock,
                config,
                open: s.open,
                trace: &s.trace,
            }
        })
        .collect();
    let events: usize = slots.iter().map(|s| s.trace.len()).sum();
    let n = events as f64;
    let streams: Vec<&[Event]> = slots.iter().map(|s| s.trace.events()).collect();
    let races: Vec<u64> = inputs
        .iter()
        .map(|s| crate::inputs::reference_races(s.order(), &s.trace))
        .collect();
    let heads: Vec<&[Event]> = streams
        .iter()
        .map(|s| &s[..s.len().min(SERVICE_EVENTS)])
        .collect();
    let head_events: usize = heads.iter().map(|s| s.len()).sum();
    let head_races: u64 = inputs
        .iter()
        .zip(&heads)
        .map(|(s, h)| crate::inputs::reference_races(s.order(), &h.iter().copied().collect()))
        .sum();
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut notes: Vec<String> = Vec::new();

    t.span("ladder", 0, |t| {
        // tc_trace: binary decode of each session's `.tctr` bytes.
        let bytes: Vec<Vec<u8>> = slots.iter().map(|s| binary_format::to_binary(s.trace)).collect();
        let reps = repeat(t, "tc_trace.decode", share, |t| {
            for (i, b) in bytes.iter().enumerate() {
                t.span("binary_format::read_binary", i as u64, |_| {
                    black_box(binary_format::read_binary(b.as_slice()).expect("trace decodes"));
                });
            }
        });
        m.push(("tc_trace.decode_ns_per_event", median(&reps) * 1e9 / n));

        // tc_core: exact HB work counts on the tree clock, then the
        // timed run per unit of that work.
        let mut counted = RunMetrics::new();
        t.span("tc_core.clock.counted", 0, |t| {
            for (i, s) in slots.iter().enumerate() {
                counted += t.span("HbEngine<TreeClock>::run_counted", i as u64, |_| {
                    HbEngine::<TreeClock>::run_counted(s.trace)
                });
            }
        });
        let ds = counted.ds_work() as f64;
        m.push(("tc_core.ds_work_per_event", ds / n));
        m.push(("tc_core.vt_work_per_event", counted.vt_work() as f64 / n));
        let reps = repeat(t, "tc_core.clock", share, |t| {
            for (i, s) in slots.iter().enumerate() {
                t.span("HbEngine<TreeClock>::run", i as u64, |_| black_box(HbEngine::<TreeClock>::run(s.trace)));
            }
        });
        m.push(("tc_core.ns_per_ds_work", median(&reps) * 1e9 / ds));

        // The tree against the vector clock, HB detector, same traces.
        let tc = repeat(t, "tc_core.tc_detect", share, |t| {
            for (i, s) in slots.iter().enumerate() {
                t.span("HbRaceDetector<TreeClock>::run", i as u64, |_| {
                    black_box(detect_run::<TreeClock>(PartialOrderKind::Hb, s.trace))
                });
            }
        });
        let vc = repeat(t, "tc_core.vc_detect", share, |t| {
            for (i, s) in slots.iter().enumerate() {
                t.span("HbRaceDetector<VectorClock>::run", i as u64, |_| {
                    black_box(detect_run::<VectorClock>(PartialOrderKind::Hb, s.trace))
                });
            }
        });
        m.push(("tc_core.tc_vs_vc_speedup", median(&vc) / median(&tc)));
        notes.push(format!(
            "tc_vs_vc_speedup base: HbRaceDetector<VectorClock> {:.3} ms vs <TreeClock> {:.3} ms per pass",
            median(&vc) * 1e3,
            median(&tc) * 1e3
        ));

        // tc_orders: each session's engine for its order and clock.
        let reps = repeat(t, "tc_orders.engine", share, |t| {
            for (i, s) in slots.iter().enumerate() {
                t.span(engine_name(s.order), i as u64, |_| {
                    black_box(by_clock(
                        s.clock,
                        || engine_run::<TreeClock>(s.order, s.trace),
                        || engine_run::<VectorClock>(s.order, s.trace),
                        || engine_run::<HybridClock>(s.order, s.trace),
                    ))
                });
            }
        });
        m.push(("tc_orders.engine_ns_per_event", median(&reps) * 1e9 / n));

        // tc_analysis: each session's batch detector.
        let mut found = Vec::new();
        let reps = repeat(t, "tc_analysis.detect", share, |t| {
            found.clear();
            for (i, s) in slots.iter().enumerate() {
                found.push(t.span(detector_name(s.order), i as u64, |_| {
                    by_clock(
                        s.clock,
                        || detect_run::<TreeClock>(s.order, s.trace),
                        || detect_run::<VectorClock>(s.order, s.trace),
                        || detect_run::<HybridClock>(s.order, s.trace),
                    )
                }));
            }
        });
        tally.check(found == races, || format!("batch detectors found {found:?}, reference {races:?}"));
        m.push(("tc_analysis.detect_ns_per_event", median(&reps) * 1e9 / n));

        // tc_stream: the incremental detector, event by event.
        let mut fed = Vec::new();
        let reps = repeat(t, "tc_stream.feed", share, |t| {
            fed.clear();
            for (i, s) in slots.iter().enumerate() {
                fed.push(t.span("IncrementalDetector::feed", i as u64, |_| {
                    let mut d = AnyDetector::new(s.clock, s.config);
                    let ok = s.trace.iter().all(|e| d.feed(e).is_ok());
                    (ok, d.report().total)
                }));
            }
        });
        let want: Vec<(bool, u64)> = races.iter().map(|&r| (true, r)).collect();
        tally.check(fed == want, || format!("incremental detectors gave {fed:?}, reference {races:?}"));
        m.push(("tc_stream.feed_ns_per_event", median(&reps) * 1e9 / n));

        // tc_stream: the session on bulk-sized frames, alternating
        // traced (a span per frame) and untraced passes; their
        // difference is the tracing overhead.
        let deadline = Deadline::new(2.0 * share);
        let (mut on, mut off) = (Vec::new(), Vec::new());
        while on.len() < MIN_REPS || (!deadline.passed() && on.len() < MAX_REPS) {
            let start = Instant::now();
            let rejected = t.span("tc_stream.session", on.len() as u64, |t| session_pass(t, &slots, true));
            on.push(start.elapsed().as_secs_f64());
            tally.check(rejected == 0, || format!("session rejected {rejected} events"));
            let start = Instant::now();
            black_box(session_pass(t, &slots, false));
            off.push(start.elapsed().as_secs_f64());
            if deadline.overrun(Duration::from_secs(30)) {
                break;
            }
        }
        m.push(("tc_stream.session_ns_per_event", median(&on) * 1e9 / n));
        let overhead = (median(&on) - median(&off)) / median(&off) * 100.0;
        notes.push(format!(
            "tracing overhead: Session::handle_frame with a span per {BULK_FRAME}-event frame {:.3} ms vs \
             {:.3} ms untraced ({} + {} passes) = {overhead:+.2} %",
            median(&on) * 1e3,
            median(&off) * 1e3,
            on.len(),
            off.len()
        ));

        // tc_trace: wire decode of the bulk multi-session frames.
        let ids: Vec<u64> = (1..=slots.len() as u64).collect();
        let blob = multi_frames(&ids, &streams, BULK_FRAME);
        let mut decoded = 0;
        let reps = repeat(t, "tc_trace.wire", share, |t| {
            decoded = 0;
            let mut at = 0;
            let mut k = 0;
            while at < blob.len() {
                let (msg, used) = t.span("wire::try_message", k, |_| {
                    wire::try_message(&blob[at..]).expect("own frames decode").expect("whole frame")
                });
                if let wire::WireMessage::Multi(frames) = msg {
                    decoded += frames.iter().map(|f| f.events.len()).sum::<usize>();
                }
                at += used;
                k += 1;
            }
        });
        tally.check(decoded == events, || format!("wire decoded {decoded} of {events} events"));
        m.push(("tc_trace.wire_decode_ns_per_event", median(&reps) * 1e9 / n));

        // tc_stream service: a single-node server on loopback.
        let single: Vec<(&str, u32)> = slots.iter().map(|s| (s.open, 0)).collect();
        let (mut open_ms, mut rtt_ms, mut handle_us, mut depth, mut steal) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut steal_base = String::new();
        repeat(t, "tc_stream.service", 2.0 * share, |t| {
            let target = t.span("Server::start", 0, |_| Target::start(Mode::Single, workers));
            let addr = target.addr();
            let mut fan = match t.span("Fan::open (server)", 0, |_| Fan::open(Mode::Single, addr, &single)) {
                Ok(f) => f,
                Err(e) => {
                    tally.fail(1, format!("service open: {e}"));
                    target.stop();
                    return;
                }
            };
            for k in 0..RTT_SAMPLES {
                let start = Instant::now();
                let r = t.span("stats-all (empty)", k as u64, |_| fan.client.stats_all());
                rtt_ms.push(start.elapsed().as_secs_f64() * 1e3);
                tally.check(matches!(r, Ok((_, 0, 0, 0))), || format!("empty stats-all: {r:?}"));
            }
            bulk(t, Mode::Single, &mut fan, &heads, head_races, &mut tally);
            for k in 0..RTT_SAMPLES / 2 {
                let start = Instant::now();
                let r = t.span("Client::open_session", k as u64, |_| fan.client.open_session(slots[0].open));
                open_ms.push(start.elapsed().as_secs_f64() * 1e3);
                tally.check(r.is_ok(), || format!("open_session: {r:?}"));
            }
            match t.span("metrics (server)", 0, |_| scrape(addr)) {
                Ok(s) => {
                    let sum = stats::series(&s, "tc_ingest_handle_us_sum{wire=\"multi\"}").unwrap_or(0.0);
                    let count = stats::series(&s, "tc_ingest_handle_us_count{wire=\"multi\"}").unwrap_or(0.0);
                    handle_us.push(sum / count.max(1.0));
                    depth.push(stats::series(&s, "tc_queue_depth_high_water").unwrap_or(0.0));
                    let steals = stats::sum_of(&s, "tc_worker_steals_total");
                    let drained = stats::sum_of(&s, "tc_worker_drained_total");
                    steal.push(steals / drained.max(1.0));
                    steal_base = format!("{steals} steals / {drained} sessions drained, {workers} workers");
                }
                Err(e) => tally.fail(1, format!("service scrape: {e}")),
            }
            drop(fan);
            t.span("Server::shutdown", 0, |_| target.stop());
        });
        if !handle_us.is_empty() {
            m.push(("tc_stream.service.open_ms", median(&open_ms)));
            m.push(("tc_stream.service.empty_rtt_ms", median(&rtt_ms)));
            m.push(("tc_stream.service.handle_us_mean", median(&handle_us)));
            m.push(("tc_stream.service.queue_depth_hw", median(&depth)));
            m.push(("tc_stream.service.steal_ratio", median(&steal)));
            notes.push(format!("steal_ratio base (last repetition): {steal_base}"));
        }

        // tc_cluster: a 2-node ring, the same traffic once owned by the
        // gateway (node 0) and once forwarded to node 1.
        let (mut tax, mut frtt_ms, mut delta) = (Vec::new(), Vec::new(), Vec::new());
        let mut tax_base = String::new();
        repeat(t, "tc_cluster", 2.0 * share, |t| {
            let target = t.span("ClusterServer::start", 0, |_| Target::start(Mode::Cluster, workers));
            let addr = target.addr();
            let mut secs = [0.0; 2];
            for node in 0..2u32 {
                let placed: Vec<(&str, u32)> = slots.iter().map(|s| (s.open, node)).collect();
                let mut fan = match t.span("Fan::open (cluster)", u64::from(node), |_| Fan::open(Mode::Cluster, addr, &placed)) {
                    Ok(f) => f,
                    Err(e) => {
                        tally.fail(1, format!("cluster open: {e}"));
                        break;
                    }
                };
                secs[node as usize] = bulk(t, Mode::Cluster, &mut fan, &heads, head_races, &mut tally);
                if node == 1 {
                    let bound = fan.client.request(&format!("use {}", fan.ids[0]));
                    tally.check(bound.is_ok(), || format!("use: {bound:?}"));
                    for k in 0..RTT_SAMPLES {
                        let start = Instant::now();
                        let r = t.span("stats (forwarded, empty)", k as u64, |_| fan.client.request("stats"));
                        frtt_ms.push(start.elapsed().as_secs_f64() * 1e3);
                        tally.check(r.is_ok(), || format!("forwarded stats: {r:?}"));
                    }
                }
                t.span("Fan::close (cluster)", u64::from(node), |_| fan.close(Mode::Cluster, &mut tally));
            }
            let shipped: Result<f64, String> = t.span("metrics (cluster)", 0, |_| {
                let mut bytes = 0.0;
                for s in target.node_addrs() {
                    bytes += stats::series(&scrape(s)?, "tc_cluster_delta_bytes_total").unwrap_or(0.0);
                }
                Ok(bytes)
            });
            match shipped {
                Ok(b) => delta.push(b / (2 * head_events) as f64),
                Err(e) => tally.fail(1, format!("cluster scrape: {e}")),
            }
            if secs.iter().all(|&s| s > 0.0) {
                tax.push((secs[1] - secs[0]) / secs[0] * 100.0);
                tax_base = format!(
                    "forward_tax base (last repetition): node-0-owned {:.3} ms, node-1-owned {:.3} ms",
                    secs[0] * 1e3,
                    secs[1] * 1e3
                );
            }
            t.span("ClusterServer::shutdown", 0, |_| target.stop());
        });
        if !delta.is_empty() && !tax.is_empty() {
            m.push(("tc_cluster.forward_tax_pct", median(&tax)));
            m.push(("tc_cluster.empty_rtt_ms", median(&frtt_ms)));
            m.push(("tc_cluster.delta_bytes_per_event", median(&delta)));
            notes.push(tax_base);
        }
        m.push(("trace.overhead_pct", overhead));
    });

    // Output: the span file, the ladder table, self times, overhead.
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = out_dir.join(format!("spans-{workload}-seed{seed}.json"));
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, spans::chrome_trace(t.spans())));
    tally.check(written.is_ok(), || {
        format!("span file {}: {written:?}", path.display())
    });

    let mut info = vec![
        format!(
            "traced run: {} session(s), {events} events, {} spans -> {}",
            slots.len(),
            t.spans().len(),
            path.display()
        ),
        format!(
            "{:<36} {:>14} {:<11} {:<26} on",
            "metric", "value", "unit", "should move"
        ),
    ];
    for (name, moves, on) in ROWS {
        let value = m
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v);
        info.push(format!(
            "{name:<36} {value:>14.4} {:<11} {moves:<26} {on}",
            crate::unit_of(name)
        ));
    }
    info.push(format!(
        "{:<36} {:>8} {:>12} {:>12}",
        "span (self time)", "count", "total ms", "self ms"
    ));
    for (name, count, total, own) in spans::by_name(t.spans()) {
        info.push(format!(
            "{name:<36} {count:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    info.extend(notes);
    RunResult {
        metrics: m,
        info,
        tally,
    }
}
