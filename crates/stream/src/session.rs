//! One analysis session: a runtime-chosen backend detector paired with
//! incremental validation and the text line protocol.
//!
//! A [`Session`] is what both `tcr stream` (one session over a file)
//! and `tcr serve` (many sessions over sockets) drive: it owns an
//! [`IncrementalDetector`] for a runtime-selected clock backend, a
//! [`SessionValidator`] rejecting malformed events before they reach
//! the engine, and a [`StreamInterner`] so text sessions can use
//! human-readable names.

use std::fmt::Write as _;
use std::str::FromStr;

use tc_analysis::Race;
use tc_core::{ThreadId, TreeClock, VectorClock, VectorTime};
use tc_trace::{Event, SessionValidator, StreamInterner};

use crate::checkpoint::Checkpoint;
use crate::detector::{DetectorConfig, FeedError, IncrementalDetector};
use crate::metrics::SharedMetrics;

/// A runtime clock-backend selector: `tc` or `vc`, or the long names.
/// `hc` and `hybrid`, the names of the adaptive flat/tree backend that
/// the tree clock's flat mode replaced, parse as the tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClockChoice {
    /// The tree clock (default).
    #[default]
    Tree,
    /// The flat vector clock.
    Vector,
    /// The adaptive backend's old selector, kept so code that names it
    /// still compiles. Parsing never produces it, and it selects the
    /// tree clock.
    Hybrid,
}

impl ClockChoice {
    /// The backend's `LogicalClock::NAME`.
    pub fn name(self) -> &'static str {
        match self {
            ClockChoice::Tree | ClockChoice::Hybrid => "tree",
            ClockChoice::Vector => "vector",
        }
    }
}

impl FromStr for ClockChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "tc" | "tree" | "hc" | "hybrid" => Ok(ClockChoice::Tree),
            "vc" | "vector" => Ok(ClockChoice::Vector),
            other => Err(format!("unknown clock `{other}` (expected tc or vc)")),
        }
    }
}

/// An [`IncrementalDetector`] over a backend chosen at runtime.
pub enum AnyDetector {
    /// Tree-clock backend.
    Tree(IncrementalDetector<TreeClock>),
    /// Vector-clock backend.
    Vector(IncrementalDetector<VectorClock>),
}

macro_rules! dispatch {
    ($any:expr, $d:ident => $body:expr) => {
        match $any {
            AnyDetector::Tree($d) => $body,
            AnyDetector::Vector($d) => $body,
        }
    };
}

impl AnyDetector {
    /// Creates a detector for the chosen backend.
    pub fn new(clock: ClockChoice, config: DetectorConfig) -> AnyDetector {
        match clock {
            ClockChoice::Tree | ClockChoice::Hybrid => {
                AnyDetector::Tree(IncrementalDetector::new(config))
            }
            ClockChoice::Vector => AnyDetector::Vector(IncrementalDetector::new(config)),
        }
    }

    /// Restores a detector from a checkpoint, re-creating the backend
    /// recorded in it (`hybrid`, which `hc` sessions recorded, and
    /// unknown names fall back to the tree backend — values are
    /// representation independent).
    pub fn from_checkpoint(cp: &Checkpoint) -> AnyDetector {
        let clock = cp.backend.parse().unwrap_or_default();
        match clock {
            ClockChoice::Tree | ClockChoice::Hybrid => AnyDetector::Tree(
                IncrementalDetector::from_checkpoint(cp, tc_core::ClockPool::new()),
            ),
            ClockChoice::Vector => AnyDetector::Vector(IncrementalDetector::from_checkpoint(
                cp,
                tc_core::ClockPool::new(),
            )),
        }
    }

    /// See [`IncrementalDetector::feed`].
    ///
    /// # Errors
    ///
    /// Propagates [`FeedError`] from the detector.
    pub fn feed(&mut self, e: &Event) -> Result<&[Race], FeedError> {
        dispatch!(self, d => d.feed(e))
    }

    /// See [`IncrementalDetector::report`].
    pub fn report(&self) -> &tc_analysis::RaceReport {
        dispatch!(self, d => d.report())
    }

    /// See [`IncrementalDetector::events`].
    pub fn events(&self) -> u64 {
        dispatch!(self, d => d.events())
    }

    /// See [`IncrementalDetector::threads_seen`].
    pub fn threads_seen(&self) -> usize {
        dispatch!(self, d => d.threads_seen())
    }

    /// See [`IncrementalDetector::retired_count`].
    pub fn retired_count(&self) -> usize {
        dispatch!(self, d => d.retired_count())
    }

    /// See [`IncrementalDetector::evicted`].
    pub fn evicted(&self) -> u64 {
        dispatch!(self, d => d.evicted())
    }

    /// See [`IncrementalDetector::clock_bytes`].
    pub fn clock_bytes(&self) -> usize {
        dispatch!(self, d => d.clock_bytes())
    }

    /// Free-listed bytes parked in the detector's pool.
    pub fn pool_bytes(&self) -> usize {
        dispatch!(self, d => d.pool().heap_bytes())
    }

    /// See [`IncrementalDetector::live_threads`].
    pub fn live_threads(&self) -> usize {
        dispatch!(self, d => d.live_threads())
    }

    /// See [`IncrementalDetector::total_threads`].
    pub fn total_threads(&self) -> usize {
        dispatch!(self, d => d.total_threads())
    }

    /// See [`IncrementalDetector::recycled_slots`].
    pub fn recycled_slots(&self) -> u64 {
        dispatch!(self, d => d.recycled_slots())
    }

    /// See [`IncrementalDetector::peak_clock_bytes`].
    pub fn peak_clock_bytes(&self) -> usize {
        dispatch!(self, d => d.peak_clock_bytes())
    }

    /// See [`IncrementalDetector::timestamp_of`].
    pub fn timestamp_of(&self, t: ThreadId) -> VectorTime {
        dispatch!(self, d => d.timestamp_of(t))
    }

    /// See [`IncrementalDetector::checkpoint`].
    pub fn checkpoint(&self) -> Checkpoint {
        dispatch!(self, d => d.checkpoint())
    }

    /// The detector's configuration.
    pub fn config(&self) -> DetectorConfig {
        dispatch!(self, d => d.config())
    }

    /// The backend's name.
    pub fn backend_name(&self) -> &'static str {
        match self {
            AnyDetector::Tree(_) => "tree",
            AnyDetector::Vector(_) => "vector",
        }
    }
}

/// One line-protocol session; see the [module docs](self) and
/// [`Session::handle_line`] for the command set.
pub struct Session {
    id: u64,
    detector: AnyDetector,
    validator: SessionValidator,
    interner: StreamInterner,
    /// Events rejected by validation (the session continues).
    rejected: u64,
    /// Stored races already sent in reply to `poll`.
    polled: usize,
    /// Server-scope telemetry, attached when the session is served:
    /// `stats` replies then carry the server suffix (uptime,
    /// connection counts, pool size, wire errors).
    server: Option<SharedMetrics>,
}

impl Session {
    /// Creates a session.
    pub fn new(id: u64, clock: ClockChoice, config: DetectorConfig) -> Session {
        Session {
            id,
            detector: AnyDetector::new(clock, config),
            validator: SessionValidator::new(),
            interner: StreamInterner::new(),
            rejected: 0,
            polled: 0,
            server: None,
        }
    }

    /// Attaches server-scope telemetry: `stats` replies gain the
    /// ` uptime_ms=... conns_accepted=... conns_active=... workers=...
    /// wire_errors=...` suffix. Sessions outside a server never see it.
    pub fn set_server_metrics(&mut self, metrics: SharedMetrics) {
        self.server = Some(metrics);
    }

    /// Events rejected by validation so far (the `rejected=` stats
    /// field; the service's `stats-all` aggregation reads it).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Resumes a session from a checkpoint: the detector *and* — when
    /// the checkpoint was taken at the session level — the validator's
    /// lock/lifecycle state (so discipline keeps being enforced across
    /// the restore) and the interner's name tables (so every
    /// established name → id binding survives).
    pub fn from_checkpoint(id: u64, cp: &Checkpoint) -> Session {
        Session {
            id,
            detector: AnyDetector::from_checkpoint(cp),
            validator: cp
                .validator
                .as_ref()
                .map(SessionValidator::from_snapshot)
                .unwrap_or_default(),
            interner: cp
                .interner
                .as_ref()
                .map(StreamInterner::from_snapshot)
                .unwrap_or_default(),
            rejected: 0,
            // Resume delivery exactly where the checkpointed session's
            // consumer left off: races it never polled are replayed by
            // the next `poll` instead of being lost.
            polled: cp.polled as usize,
            server: None,
        }
    }

    /// Captures the session (detector + validator + names + poll
    /// watermark) as a checkpoint.
    pub fn checkpoint(&self) -> Checkpoint {
        let mut cp = self.detector.checkpoint();
        cp.validator = Some(self.validator.snapshot());
        cp.interner = Some(self.interner.snapshot());
        cp.polled = self.polled as u64;
        cp
    }

    /// The session id assigned at `open`.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The underlying detector (telemetry, checkpointing).
    pub fn detector(&self) -> &AnyDetector {
        &self.detector
    }

    /// Feeds one already-parsed event through validation and the
    /// detector, appending `race ...` reply lines for any races found.
    fn feed_event(&mut self, e: &Event, out: &mut String) {
        if let Err(err) = self.validator.check(e) {
            self.rejected += 1;
            let _ = writeln!(out, "err invalid event: {}", err.message);
            return;
        }
        match self.detector.feed(e) {
            Ok(_) => {}
            Err(err) => {
                self.rejected += 1;
                let _ = writeln!(out, "err {err}");
            }
        }
    }

    /// Feeds a decoded binary wire frame: every event runs through the
    /// same validation and detection as a text line, but with dense ids
    /// straight off the wire — no parse, no interner. Silent on
    /// success, `err ...` lines (batch-indexed) for rejected events;
    /// like malformed text lines, a rejected event never kills the
    /// session.
    pub fn handle_frame(&mut self, events: &[Event], out: &mut String) {
        for (i, e) in events.iter().enumerate() {
            let before = out.len();
            self.feed_event(e, out);
            if out.len() != before {
                // Prefix the error with the in-frame index so a
                // batching client can attribute it.
                let tail = out.split_off(before);
                let _ = write!(out, "err at {i}: {}", tail.trim_start_matches("err "));
            }
        }
    }

    /// Handles one protocol line, appending reply lines to `out`.
    /// Returns `false` when the session asked to close.
    ///
    /// The command set:
    ///
    /// - `<thread> <op> <operand>` or `event <thread> <op> <operand>` —
    ///   feed one event (text-format syntax; names are interned
    ///   per-session). Silent on success; `err ...` on a malformed or
    ///   rejected event (the session continues).
    /// - `poll` — `race ...` lines for races found since the last
    ///   `poll`, then `ok <new> <total>`.
    /// - `races` — every stored race, then `ok <stored> <total>`.
    /// - `stats` — one `ok` line of `key=value` session statistics.
    /// - `timestamp <thread>` — the thread's current vector time.
    /// - `checkpoint <path>` — write a checkpoint file server-side.
    /// - `close` — `ok bye`, ends the session.
    pub fn handle_line(&mut self, line: &str, out: &mut String) -> bool {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return true;
        }
        let mut parts = line.split_whitespace();
        let command = parts.next().expect("non-empty line has a first token");
        match command {
            "close" => {
                let _ = writeln!(out, "ok bye");
                return false;
            }
            "poll" => {
                let report = self.detector.report();
                let new = report.races_since(self.polled);
                for race in new {
                    let _ = writeln!(out, "race {race}");
                }
                let (count, total) = (new.len(), report.total);
                // Advance the cursor past exactly what was emitted.
                // The cursor is session state and the service checks a
                // session out to one worker at a time, so polls are
                // serialized even when several connections rebind to
                // this session with `use <id>`: every stored race is
                // delivered to exactly one poller, with no gaps and no
                // duplicates (see the two-connection regression test).
                self.polled += count;
                let _ = writeln!(out, "ok {count} {total}");
            }
            "races" => {
                let report = self.detector.report();
                for race in &report.races {
                    let _ = writeln!(out, "race {race}");
                }
                let _ = writeln!(out, "ok {} {}", report.races.len(), report.total);
            }
            "stats" => {
                let d = &self.detector;
                let report = d.report();
                // Served sessions append the server-scope suffix so one
                // `stats` round trip describes both the session and the
                // server it lives in.
                let server = self
                    .server
                    .as_ref()
                    .map(|m| m.stats_suffix())
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "ok events={} threads={} races={} checks={} rejected={} retired={} \
                     evicted={} clock_bytes={} pool_bytes={} backend={} order={} \
                     live_threads={} total_threads={} recycled_slots={} \
                     peak_clock_bytes={}{server}",
                    d.events(),
                    d.threads_seen(),
                    report.total,
                    report.checks,
                    self.rejected,
                    d.retired_count(),
                    d.evicted(),
                    d.clock_bytes(),
                    d.pool_bytes(),
                    d.backend_name(),
                    d.config().order,
                    d.live_threads(),
                    d.total_threads(),
                    d.recycled_slots(),
                    d.peak_clock_bytes(),
                );
            }
            "timestamp" => match parts.next() {
                Some(name) => {
                    let t = self.resolve_thread(name);
                    match t {
                        Some(t) => {
                            let _ = writeln!(out, "ok {}", self.detector.timestamp_of(t));
                        }
                        None => {
                            let _ = writeln!(out, "err unknown thread `{name}`");
                        }
                    }
                }
                None => {
                    let _ = writeln!(out, "err timestamp requires a thread");
                }
            },
            "checkpoint" => match parts.next() {
                Some(path) => {
                    let cp = self.checkpoint();
                    match std::fs::File::create(path)
                        .map_err(|e| e.to_string())
                        .and_then(|f| {
                            let mut w = std::io::BufWriter::new(f);
                            cp.write(&mut w).map_err(|e| e.to_string())
                        }) {
                        Ok(()) => {
                            let _ = writeln!(out, "ok checkpoint {path} events={}", cp.events);
                        }
                        Err(e) => {
                            let _ = writeln!(out, "err cannot write {path}: {e}");
                        }
                    }
                }
                None => {
                    let _ = writeln!(out, "err checkpoint requires a path");
                }
            },
            "event" => {
                let rest: Vec<&str> = parts.collect();
                self.parse_and_feed(&rest.join(" "), out);
            }
            _ => {
                // Bare text-format event line.
                self.parse_and_feed(line, out);
            }
        }
        true
    }

    fn parse_and_feed(&mut self, line: &str, out: &mut String) {
        match self.interner.parse_line(line) {
            Ok(Some(e)) => self.feed_event(&e, out),
            Ok(None) => {}
            Err(message) => {
                self.rejected += 1;
                let _ = writeln!(out, "err {message}");
            }
        }
    }

    /// Resolves a thread token: an interned name, or `t<i>`/<i> ids.
    fn resolve_thread(&self, token: &str) -> Option<ThreadId> {
        if let Some(t) = self.interner.thread_id(token) {
            return Some(t);
        }
        let raw = token.strip_prefix('t').unwrap_or(token);
        raw.parse().ok().map(ThreadId::new)
    }
}

// Sessions are movable values: the work-stealing service checks them
// out and processes them on whichever worker is free, so the whole
// session — detector (any backend), validator, interner — must be
// `Send`. Compile-time assertion (the tentpole guarantee of the
// Send-safety refactor).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Session>();
    assert_send::<AnyDetector>();
    assert_send::<IncrementalDetector<TreeClock>>();
    assert_send::<IncrementalDetector<VectorClock>>();
    assert_send::<Checkpoint>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn open_session() -> Session {
        Session::new(1, ClockChoice::Tree, DetectorConfig::default())
    }

    #[test]
    fn frames_feed_like_text_lines() {
        use tc_trace::{Op, VarId};
        let mut text = open_session();
        let mut framed = open_session();
        let mut out = String::new();
        text.handle_line("t0 w x", &mut out);
        text.handle_line("t1 w x", &mut out);
        assert!(out.is_empty());
        let events = vec![
            Event::new(ThreadId::new(0), Op::Write(VarId::new(0))),
            Event::new(ThreadId::new(1), Op::Write(VarId::new(0))),
        ];
        framed.handle_frame(&events, &mut out);
        assert!(out.is_empty(), "clean frames are silent: {out}");
        assert_eq!(framed.detector().events(), 2);
        assert_eq!(
            framed.detector().report().total,
            text.detector().report().total
        );
        assert_eq!(
            framed.detector().timestamp_of(ThreadId::new(1)),
            text.detector().timestamp_of(ThreadId::new(1))
        );
    }

    #[test]
    fn frame_errors_carry_the_batch_index() {
        use tc_trace::{LockId, Op};
        let mut s = open_session();
        let mut out = String::new();
        // Release without acquire: invalid, rejected, session lives on.
        let events = vec![
            Event::new(ThreadId::new(0), Op::Acquire(LockId::new(0))),
            Event::new(ThreadId::new(1), Op::Release(LockId::new(0))),
        ];
        s.handle_frame(&events, &mut out);
        assert!(out.starts_with("err at 1:"), "{out}");
        assert_eq!(s.detector().events(), 1);
        out.clear();
        s.handle_line("stats", &mut out);
        assert!(out.contains("rejected=1"), "{out}");
    }

    #[test]
    fn wire_ids_cannot_size_the_session() {
        use tc_trace::{LockId, Op, VarId};
        let t = ThreadId::new;
        let huge = u32::MAX - 1;
        let hostile = [
            // Past the detector's slot bound, inside the validator's.
            Event::new(t(5_000), Op::Write(VarId::new(0))),
            Event::new(t(huge), Op::Write(VarId::new(0))),
            Event::new(t(0), Op::Fork(t(huge))),
            Event::new(t(0), Op::Join(t(huge))),
            Event::new(t(0), Op::Acquire(LockId::new(huge))),
            Event::new(t(0), Op::Write(VarId::new(huge))),
        ];
        for clock in [ClockChoice::Tree, ClockChoice::Vector] {
            let empty = Session::new(1, clock, DetectorConfig::default())
                .detector()
                .clock_bytes();
            for e in hostile {
                let mut s = Session::new(1, clock, DetectorConfig::default());
                let mut out = String::new();
                s.handle_frame(&[e], &mut out);
                assert!(out.starts_with("err at 0: "), "{clock:?} {e}: {out}");
                assert!(
                    s.detector().clock_bytes() <= empty + 1024,
                    "{clock:?} {e}: {} clock bytes",
                    s.detector().clock_bytes()
                );
                out.clear();
                s.handle_frame(&[Event::new(t(1), Op::Write(VarId::new(0)))], &mut out);
                assert!(out.is_empty(), "{clock:?} {e}: {out}");
                assert_eq!(s.detector().events(), 1);
                assert_eq!(s.rejected(), 1);
            }
        }
    }

    #[test]
    fn the_highest_thread_slot_costs_one_clock_not_a_square() {
        use tc_trace::{Op, VarId};
        for clock in [ClockChoice::Tree, ClockChoice::Vector] {
            let mut s = Session::new(1, clock, DetectorConfig::default());
            let mut out = String::new();
            s.handle_frame(
                &[Event::new(ThreadId::new(4_095), Op::Write(VarId::new(0)))],
                &mut out,
            );
            assert!(out.is_empty(), "{clock:?}: {out}");
            assert_eq!(s.detector().events(), 1);
            assert!(
                s.detector().clock_bytes() < 1 << 20,
                "{clock:?}: {} clock bytes",
                s.detector().clock_bytes()
            );
        }
    }

    #[test]
    fn the_highest_lock_id_costs_one_slot_not_a_clock() {
        use tc_orders::PartialOrderKind;
        use tc_trace::{LockId, Op};
        // The last lock id the session bound accepts: the lock table
        // pays a 4-byte slot per id below it, and one clock.
        let l = LockId::new((1 << 20) - 1);
        let events = [
            Event::new(ThreadId::new(0), Op::Acquire(l)),
            Event::new(ThreadId::new(0), Op::Release(l)),
        ];
        for order in [
            PartialOrderKind::Hb,
            PartialOrderKind::Shb,
            PartialOrderKind::Maz,
        ] {
            for clock in [ClockChoice::Tree, ClockChoice::Vector] {
                let mut s = Session::new(1, clock, DetectorConfig::for_order(order));
                let mut out = String::new();
                s.handle_frame(&events, &mut out);
                assert!(out.is_empty(), "{order:?} {clock:?}: {out}");
                assert_eq!(s.detector().events(), 2);
                let bytes = s.detector().clock_bytes();
                assert!(
                    (1 << 22..8 << 20).contains(&bytes),
                    "{order:?} {clock:?}: {bytes} clock bytes (the slots count, the clocks do not multiply)"
                );
            }
        }
    }

    #[test]
    fn clock_choice_parses_both_spellings() {
        assert_eq!("tc".parse::<ClockChoice>().unwrap(), ClockChoice::Tree);
        assert_eq!(
            "vector".parse::<ClockChoice>().unwrap(),
            ClockChoice::Vector
        );
        assert!("xyz".parse::<ClockChoice>().is_err());
        assert_eq!(ClockChoice::Hybrid.name(), "tree");
    }

    /// `hc` and `hybrid` name the tree clock: they parse as it, an
    /// `hb hc` session runs on it and reports what `hb tc` reports, and
    /// a checkpoint an `hc` session wrote (backend `hybrid`) resumes on
    /// it and continues identically.
    #[test]
    fn hc_is_a_spelling_of_the_tree() {
        use tc_trace::{Op, VarId};
        for name in ["hc", "hybrid"] {
            assert_eq!(name.parse::<ClockChoice>().unwrap(), ClockChoice::Tree);
        }
        let open = |clock: &str| {
            let (clock, config) = crate::parse_open(&["hb", clock]).unwrap();
            Session::new(1, clock, config)
        };
        let (mut hc, mut tc) = (open("hc"), open("tc"));
        // The name the `open` reply prints after `clock`.
        assert_eq!(hc.detector().backend_name(), "tree");

        let t = ThreadId::new;
        let w = |tid: u32, var: u32| Event::new(t(tid), Op::Write(VarId::new(var)));
        let (head, tail) = ([w(0, 0), w(1, 0), w(2, 1)], [w(3, 1), w(0, 1)]);
        let mut out = String::new();
        hc.handle_frame(&head, &mut out);
        tc.handle_frame(&head, &mut out);
        assert!(out.is_empty(), "{out}");

        // What an `hc` session checkpointed before the tree replaced it.
        let mut cp = hc.checkpoint();
        assert_eq!(cp.backend, "tree");
        cp.backend = "hybrid".to_owned();
        let cp = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
        let mut resumed = Session::from_checkpoint(2, &cp);
        assert_eq!(resumed.detector().backend_name(), "tree");

        for s in [&mut hc, &mut tc, &mut resumed] {
            s.handle_frame(&tail, &mut out);
        }
        assert!(out.is_empty(), "{out}");
        assert_eq!(tc.detector().report().total, 3);
        for s in [&hc, &resumed] {
            assert_eq!(s.detector().report(), tc.detector().report());
            assert_eq!(
                s.detector().timestamp_of(t(0)),
                tc.detector().timestamp_of(t(0))
            );
        }
    }

    #[test]
    fn session_feeds_events_and_reports_races() {
        let mut s = open_session();
        let mut out = String::new();
        assert!(s.handle_line("main w x", &mut out));
        assert!(s.handle_line("worker w x", &mut out));
        assert!(out.is_empty(), "events are silent on success: {out}");
        s.handle_line("poll", &mut out);
        assert!(out.contains("race "), "{out}");
        assert!(out.contains("ok 1 1"), "{out}");
        out.clear();
        s.handle_line("poll", &mut out);
        assert_eq!(out, "ok 0 1\n", "polled races are not re-emitted");
        out.clear();
        s.handle_line("races", &mut out);
        assert!(out.contains("race "), "races replays the stored set");
        out.clear();
        s.handle_line("stats", &mut out);
        assert!(out.contains("events=2"), "{out}");
        assert!(out.contains("races=1"), "{out}");
        out.clear();
        s.handle_line("timestamp main", &mut out);
        assert!(out.starts_with("ok "), "{out}");
        out.clear();
        assert!(!s.handle_line("close", &mut out));
        assert!(out.contains("ok bye"));
    }

    #[test]
    fn malformed_events_error_but_do_not_kill_the_session() {
        let mut s = open_session();
        let mut out = String::new();
        s.handle_line("main frobnicate x", &mut out);
        assert!(out.contains("err "), "{out}");
        out.clear();
        s.handle_line("main rel m", &mut out); // release without acquire
        assert!(out.contains("err invalid event"), "{out}");
        out.clear();
        s.handle_line("main acq m", &mut out);
        assert!(out.is_empty());
        s.handle_line("stats", &mut out);
        assert!(out.contains("events=1"), "{out}");
        assert!(out.contains("rejected=2"), "{out}");
    }

    #[test]
    fn event_prefix_and_bare_lines_are_equivalent() {
        let mut a = open_session();
        let mut b = open_session();
        let mut out = String::new();
        a.handle_line("event main w x", &mut out);
        b.handle_line("main w x", &mut out);
        assert_eq!(a.detector().events(), 1);
        assert_eq!(b.detector().events(), 1);
    }
}
