//! Chunked, incremental event ingestion — the trace-layer half of the
//! streaming subsystem.
//!
//! The batch formats ([`text_format`](crate::text_format),
//! [`binary_format`]) materialize a whole
//! [`Trace`](crate::Trace) before any engine sees an event. The readers
//! here yield [`Event`]s one at a time from the same two formats, with
//! O(1) state per event (plus the interner for named text traces), so a
//! multi-gigabyte log can be analyzed at a bounded memory footprint —
//! and a live session can feed events as they happen.
//!
//! [`SessionValidator`] is the incremental twin of
//! [`Trace::validate`](crate::Trace::validate): the same
//! well-formedness rules (lock discipline, fork/join sanity), checked
//! one event at a time so a malformed session is rejected at the
//! offending event instead of at end-of-trace.

use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use tc_core::ThreadId;

use crate::binary_format::{self, BinaryError};
use crate::event::{Event, LockId, Op, VarId};
use crate::validate::ValidationError;

/// An error while streaming events from a source.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// A malformed text-format line (1-based line number).
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The binary input is not a valid trace stream.
    Corrupt(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "I/O error streaming trace: {e}"),
            StreamError::Parse { line, message } => {
                write!(f, "trace stream parse error at line {line}: {message}")
            }
            StreamError::Corrupt(m) => write!(f, "corrupt binary trace stream: {m}"),
        }
    }
}

impl Error for StreamError {}

impl From<BinaryError> for StreamError {
    fn from(e: BinaryError) -> Self {
        match e {
            BinaryError::Io(e) => StreamError::Io(e),
            BinaryError::Corrupt(m) => StreamError::Corrupt(m),
        }
    }
}

/// Interner state for streaming text-format input: thread/lock/variable
/// names to dense ids, in order of first appearance — exactly the ids
/// [`parse_text`](crate::text_format::parse_text) would assign.
#[derive(Clone, Debug, Default)]
pub struct StreamInterner {
    threads: Names,
    locks: Names,
    vars: Names,
}

#[derive(Clone, Debug, Default)]
struct Names {
    names: Vec<String>,
    ids: std::collections::HashMap<String, u32>,
}

impl Names {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }

    fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }
}

impl StreamInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        StreamInterner::default()
    }

    /// Parses one text-format event line (`<thread> <op> <operand>`),
    /// interning names. Returns `Ok(None)` for blank and `#`-comment
    /// lines. The error is the message alone; callers supply the line
    /// number (a file reader counts lines, a network session counts
    /// protocol messages).
    pub fn parse_line(&mut self, raw: &str) -> Result<Option<Event>, String> {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let mut parts = line.split_whitespace();
        let (Some(tname), Some(op), Some(operand)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("expected `<thread> <op> <operand>`, got `{line}`"));
        };
        if let Some(extra) = parts.next() {
            return Err(format!("unexpected trailing token `{extra}`"));
        }
        let tid = ThreadId::new(self.threads.intern(tname));
        let op = match op {
            "r" => Op::Read(VarId::new(self.vars.intern(operand))),
            "w" => Op::Write(VarId::new(self.vars.intern(operand))),
            "acq" => Op::Acquire(LockId::new(self.locks.intern(operand))),
            "rel" => Op::Release(LockId::new(self.locks.intern(operand))),
            "fork" => Op::Fork(ThreadId::new(self.threads.intern(operand))),
            "join" => Op::Join(ThreadId::new(self.threads.intern(operand))),
            other => {
                return Err(format!(
                    "unknown operation `{other}` (expected r, w, acq, rel, fork, join)"
                ));
            }
        };
        Ok(Some(Event::new(tid, op)))
    }

    /// The interned name of a thread, if seen (else `t<i>` style ids
    /// apply).
    pub fn thread_name(&self, t: ThreadId) -> Option<&str> {
        self.threads.name(t.raw())
    }

    /// The id a thread name was interned to, if seen — the O(1)
    /// reverse of [`thread_name`](Self::thread_name).
    pub fn thread_id(&self, name: &str) -> Option<ThreadId> {
        self.threads.ids.get(name).copied().map(ThreadId::new)
    }

    /// Number of distinct thread names interned so far.
    pub fn thread_count(&self) -> usize {
        self.threads.names.len()
    }

    /// Captures the interner (name → dense id tables) for a streaming
    /// checkpoint, so a resumed session keeps every established name
    /// binding.
    pub fn snapshot(&self) -> InternerState {
        InternerState {
            threads: self.threads.names.clone(),
            locks: self.locks.names.clone(),
            vars: self.vars.names.clone(),
        }
    }

    /// Rebuilds an interner from a checkpointed state (ids are the
    /// positions in each name list).
    pub fn from_snapshot(state: &InternerState) -> Self {
        fn rebuild(names: &[String]) -> Names {
            Names {
                names: names.to_vec(),
                ids: names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (n.clone(), i as u32))
                    .collect(),
            }
        }
        StreamInterner {
            threads: rebuild(&state.threads),
            locks: rebuild(&state.locks),
            vars: rebuild(&state.vars),
        }
    }
}

/// A value-level capture of a [`StreamInterner`]: the three name
/// tables, id = position.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InternerState {
    /// Thread names in id order.
    pub threads: Vec<String>,
    /// Lock names in id order.
    pub locks: Vec<String>,
    /// Variable names in id order.
    pub vars: Vec<String>,
}

/// A streaming reader over either trace format, chosen by file
/// extension (`.tctr` = binary, anything else = text).
pub struct EventReader<R> {
    inner: ReaderKind<R>,
    yielded: u64,
}

enum ReaderKind<R> {
    Text(Box<TextState<R>>),
    Binary { reader: R, remaining: u64 },
}

struct TextState<R> {
    reader: R,
    interner: StreamInterner,
    line: String,
    lineno: usize,
}

impl EventReader<BufReader<File>> {
    /// Opens `path`, choosing the format from the extension.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Io`] when the file cannot be opened (or,
    /// for binary traces, its header cannot be read) and
    /// [`StreamError::Corrupt`] for a bad binary header.
    pub fn open(path: &str) -> Result<Self, StreamError> {
        let file = File::open(Path::new(path)).map_err(StreamError::Io)?;
        let reader = BufReader::new(file);
        if path.ends_with(".tctr") {
            EventReader::binary(reader)
        } else {
            Ok(EventReader::text(reader))
        }
    }
}

impl<R: BufRead> EventReader<R> {
    /// Streams text-format events from `reader`.
    pub fn text(reader: R) -> Self {
        EventReader {
            inner: ReaderKind::Text(Box::new(TextState {
                reader,
                interner: StreamInterner::new(),
                line: String::new(),
                lineno: 0,
            })),
            yielded: 0,
        }
    }

    /// Streams binary-format events from `reader`, consuming the header
    /// eagerly (so format errors surface at open time).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Corrupt`] for a bad magic/version and
    /// [`StreamError::Io`] for reader failures.
    pub fn binary(mut reader: R) -> Result<Self, StreamError> {
        let mut magic = [0u8; 4];
        std::io::Read::read_exact(&mut reader, &mut magic).map_err(StreamError::Io)?;
        if &magic != binary_format::MAGIC {
            return Err(StreamError::Corrupt("bad magic (not a TCTR file)".into()));
        }
        let mut version = [0u8; 1];
        std::io::Read::read_exact(&mut reader, &mut version).map_err(StreamError::Io)?;
        if version[0] != binary_format::VERSION {
            return Err(StreamError::Corrupt(format!(
                "unsupported version {} (expected {})",
                version[0],
                binary_format::VERSION
            )));
        }
        let remaining = binary_format::read_varint(&mut reader)?;
        Ok(EventReader {
            inner: ReaderKind::Binary { reader, remaining },
            yielded: 0,
        })
    }

    /// Yields the next event, or `None` at end of stream. O(1) work and
    /// state per call; nothing is materialized.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and per-event format errors (with the line
    /// number for text input).
    pub fn next_event(&mut self) -> Result<Option<Event>, StreamError> {
        let next = match &mut self.inner {
            ReaderKind::Text(state) => loop {
                state.line.clear();
                let n = state
                    .reader
                    .read_line(&mut state.line)
                    .map_err(StreamError::Io)?;
                if n == 0 {
                    break None;
                }
                state.lineno += 1;
                match state.interner.parse_line(&state.line) {
                    Ok(Some(e)) => break Some(e),
                    Ok(None) => continue,
                    Err(message) => {
                        return Err(StreamError::Parse {
                            line: state.lineno,
                            message,
                        });
                    }
                }
            },
            ReaderKind::Binary { reader, remaining } => {
                if *remaining == 0 {
                    None
                } else {
                    *remaining -= 1;
                    let mut code = [0u8; 1];
                    std::io::Read::read_exact(reader, &mut code).map_err(StreamError::Io)?;
                    let tid = binary_format::read_varint(reader)?;
                    let operand = binary_format::read_varint(reader)?;
                    let tid = u32::try_from(tid)
                        .map_err(|_| StreamError::Corrupt("thread id overflows u32".into()))?;
                    let operand = u32::try_from(operand)
                        .map_err(|_| StreamError::Corrupt("operand overflows u32".into()))?;
                    Some(Event::new(
                        ThreadId::new(tid),
                        binary_format::decode_op(code[0], operand)?,
                    ))
                }
            }
        };
        if next.is_some() {
            self.yielded += 1;
        }
        Ok(next)
    }

    /// Number of events yielded so far.
    pub fn events_yielded(&self) -> u64 {
        self.yielded
    }

    /// Skips the next `count` events (parsing but not returning them) —
    /// the checkpoint-resume fast-forward.
    ///
    /// # Errors
    ///
    /// Fails like [`next_event`](Self::next_event); reaching end of
    /// stream early is a [`StreamError::Corrupt`].
    pub fn skip_events(&mut self, count: u64) -> Result<(), StreamError> {
        for i in 0..count {
            if self.next_event()?.is_none() {
                return Err(StreamError::Corrupt(format!(
                    "stream ended after {i} of {count} events to skip \
                     (checkpoint does not match this input)"
                )));
            }
        }
        Ok(())
    }

    /// The text interner, when streaming the text format (name lookups
    /// for reporting).
    pub fn interner(&self) -> Option<&StreamInterner> {
        match &self.inner {
            ReaderKind::Text(state) => Some(&state.interner),
            ReaderKind::Binary { .. } => None,
        }
    }
}

/// Ids a [`SessionValidator`] accepts: thread, lock and variable ids
/// must lie below this bound.
const MAX_ID: usize = 1 << 20;

/// Rejects an id at or past [`MAX_ID`].
fn check_id(id: usize, what: &str, at: usize) -> Result<(), ValidationError> {
    if id >= MAX_ID {
        return Err(ValidationError {
            at,
            message: format!("{what} id {id} is past the session bound of {MAX_ID} ids"),
        });
    }
    Ok(())
}

/// Incremental trace well-formedness validation: the same rules as
/// [`Trace::validate`](crate::Trace::validate) (lock discipline,
/// fork/join sanity), applied one event at a time. State grows with the
/// number of threads and locks, not with the number of events.
///
/// On top of those rules it rejects any thread, lock or variable id at
/// or past 2²⁰: downstream tables are dense by id, so an id read off the
/// wire must not be able to size them.
#[derive(Clone, Debug, Default)]
pub struct SessionValidator {
    held_by: Vec<Option<ThreadId>>,
    started: Vec<bool>,
    forked: Vec<bool>,
    joined: Vec<bool>,
    events: usize,
}

impl SessionValidator {
    /// Creates a validator with no observed state.
    pub fn new() -> Self {
        SessionValidator::default()
    }

    /// Number of events accepted so far.
    pub fn events(&self) -> usize {
        self.events
    }

    /// `true` once thread `t` has been the target of a `fork`.
    pub fn is_forked(&self, t: ThreadId) -> bool {
        self.forked.get(t.index()).copied().unwrap_or(false)
    }

    /// `true` once thread `t` has performed an event (or been forked).
    pub fn is_started(&self, t: ThreadId) -> bool {
        self.started.get(t.index()).copied().unwrap_or(false)
    }

    fn grow_thread(&mut self, t: ThreadId, at: usize) -> Result<(), ValidationError> {
        let i = t.index();
        if i >= self.started.len() {
            check_id(i, "thread", at)?;
            self.started.resize(i + 1, false);
            self.forked.resize(i + 1, false);
            self.joined.resize(i + 1, false);
        }
        Ok(())
    }

    /// Checks `e` against the rules and, on success, records it.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] (with the running event index)
    /// naming the violation; the validator state is unchanged on error,
    /// so a session can reject one bad event and continue.
    pub fn check(&mut self, e: &Event) -> Result<(), ValidationError> {
        let at = self.events;
        let t = e.tid;
        self.grow_thread(t, at)?;
        if self.joined[t.index()] {
            return Err(ValidationError {
                at,
                message: format!("thread {t} performs {} after having been joined", e.op),
            });
        }
        match e.op {
            Op::Acquire(l) => {
                let slot = self.lock_slot(l, at)?;
                if let Some(holder) = self.held_by[slot] {
                    return Err(ValidationError {
                        at,
                        message: format!(
                            "{t} acquires {l} already held by {holder} (locks are not reentrant)"
                        ),
                    });
                }
                self.held_by[slot] = Some(t);
            }
            Op::Release(l) => {
                let slot = self.lock_slot(l, at)?;
                match self.held_by[slot] {
                    Some(holder) if holder == t => self.held_by[slot] = None,
                    Some(holder) => {
                        return Err(ValidationError {
                            at,
                            message: format!("{t} releases {l} held by {holder}"),
                        });
                    }
                    None => {
                        return Err(ValidationError {
                            at,
                            message: format!("{t} releases {l} which is not held"),
                        });
                    }
                }
            }
            Op::Fork(u) => {
                self.grow_thread(u, at)?;
                if u == t {
                    return Err(ValidationError {
                        at,
                        message: format!("{t} forks itself"),
                    });
                }
                if self.forked[u.index()] {
                    return Err(ValidationError {
                        at,
                        message: format!("thread {u} forked twice"),
                    });
                }
                if self.started[u.index()] {
                    return Err(ValidationError {
                        at,
                        message: format!("thread {u} forked after it already performed events"),
                    });
                }
                if self.joined[u.index()] {
                    return Err(ValidationError {
                        at,
                        message: format!("thread {u} forked after having been joined"),
                    });
                }
                self.forked[u.index()] = true;
                self.started[u.index()] = true;
            }
            Op::Join(u) => {
                self.grow_thread(u, at)?;
                if u == t {
                    return Err(ValidationError {
                        at,
                        message: format!("{t} joins itself"),
                    });
                }
                if self.joined[u.index()] {
                    return Err(ValidationError {
                        at,
                        message: format!("thread {u} joined twice"),
                    });
                }
                self.joined[u.index()] = true;
            }
            Op::Read(x) | Op::Write(x) => check_id(x.index(), "variable", at)?,
        }
        self.started[t.index()] = true;
        self.events += 1;
        Ok(())
    }

    fn lock_slot(&mut self, l: LockId, at: usize) -> Result<usize, ValidationError> {
        if l.index() >= self.held_by.len() {
            check_id(l.index(), "lock", at)?;
            self.held_by.resize(l.index() + 1, None);
        }
        Ok(l.index())
    }

    /// Captures the validator's state for a streaming checkpoint.
    pub fn snapshot(&self) -> ValidatorState {
        ValidatorState {
            held_by: self.held_by.clone(),
            started: self.started.clone(),
            forked: self.forked.clone(),
            joined: self.joined.clone(),
            events: self.events as u64,
        }
    }

    /// Rebuilds a validator from a checkpointed state.
    pub fn from_snapshot(state: &ValidatorState) -> Self {
        SessionValidator {
            held_by: state.held_by.clone(),
            started: state.started.clone(),
            forked: state.forked.clone(),
            joined: state.joined.clone(),
            events: state.events as usize,
        }
    }
}

/// A value-level capture of a [`SessionValidator`] — rides along in a
/// session checkpoint so a resumed session keeps enforcing lock
/// discipline across the restore (a release of a lock acquired before
/// the checkpoint must still be accepted, a double acquire still
/// rejected).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValidatorState {
    /// Current lock holders, dense by lock index.
    pub held_by: Vec<Option<ThreadId>>,
    /// Thread-started flags, dense by thread index.
    pub started: Vec<bool>,
    /// Thread-forked flags.
    pub forked: Vec<bool>,
    /// Thread-joined flags.
    pub joined: Vec<bool>,
    /// Events accepted before the checkpoint.
    pub events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{binary_format::to_binary, text_format, Trace, TraceBuilder};

    fn sample() -> Trace {
        let mut b = TraceBuilder::new();
        b.fork(0, 1);
        b.acquire(0, "m").write(0, "x").release(0, "m");
        b.acquire(1, "m").read(1, "x").release(1, "m");
        b.join(0, 1);
        b.finish()
    }

    fn drain<R: BufRead>(mut r: EventReader<R>) -> Vec<Event> {
        let mut out = Vec::new();
        while let Some(e) = r.next_event().unwrap() {
            out.push(e);
        }
        out
    }

    #[test]
    fn text_stream_yields_the_batch_parser_events() {
        let t = sample();
        let text = text_format::to_text(&t);
        let reader = EventReader::text(text.as_bytes());
        assert_eq!(drain(reader), t.events());
    }

    #[test]
    fn binary_stream_yields_the_batch_parser_events() {
        let t = sample();
        let bytes = to_binary(&t);
        let reader = EventReader::binary(bytes.as_slice()).unwrap();
        let events = drain(reader);
        assert_eq!(events, t.events());
    }

    #[test]
    fn text_stream_skips_comments_and_reports_line_numbers() {
        let input = "# header\n\nmain w x\nmain bogus x\n";
        let mut r = EventReader::text(input.as_bytes());
        assert!(r.next_event().unwrap().is_some());
        let err = r.next_event().unwrap_err();
        let StreamError::Parse { line, message } = err else {
            panic!("expected a parse error, got {err}");
        };
        assert_eq!(line, 4);
        assert!(message.contains("unknown operation"));
    }

    #[test]
    fn binary_stream_rejects_bad_headers() {
        assert!(matches!(
            EventReader::binary(&b"NOPE\x01\x00"[..]),
            Err(StreamError::Corrupt(_))
        ));
        assert!(matches!(
            EventReader::binary(&b"TCTR\x09\x00"[..]),
            Err(StreamError::Corrupt(_))
        ));
        // Truncation surfaces at the first missing event.
        let t = sample();
        let bytes = to_binary(&t);
        let mut r = EventReader::binary(&bytes[..bytes.len() - 1]).unwrap();
        let mut err = None;
        loop {
            match r.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(StreamError::Io(_))), "{err:?}");
    }

    #[test]
    fn skip_events_fast_forwards_and_detects_short_streams() {
        let t = sample();
        let text = text_format::to_text(&t);
        let mut r = EventReader::text(text.as_bytes());
        r.skip_events(3).unwrap();
        assert_eq!(r.events_yielded(), 3);
        assert_eq!(r.next_event().unwrap(), Some(t.events()[3]));

        let mut r = EventReader::text(text.as_bytes());
        let err = r.skip_events(100).unwrap_err();
        assert!(err.to_string().contains("checkpoint"));
    }

    #[test]
    fn interner_matches_batch_ids_and_names() {
        let text = "main acq m\nworker r x\nmain fork worker2\n";
        let mut r = EventReader::text(text.as_bytes());
        while r.next_event().unwrap().is_some() {}
        let interner = r.interner().unwrap();
        assert_eq!(interner.thread_name(ThreadId::new(0)), Some("main"));
        assert_eq!(interner.thread_name(ThreadId::new(1)), Some("worker"));
        assert_eq!(interner.thread_name(ThreadId::new(2)), Some("worker2"));
        assert_eq!(interner.thread_count(), 3);

        let batch = text_format::parse_text(text).unwrap();
        assert_eq!(batch.thread_name(ThreadId::new(1)), "worker");
    }

    #[test]
    fn session_validator_agrees_with_batch_validation() {
        // Valid sample: every event accepted.
        let t = sample();
        let mut v = SessionValidator::new();
        for e in &t {
            v.check(e).unwrap();
        }
        assert_eq!(v.events(), t.len());
        assert!(v.is_forked(ThreadId::new(1)));

        // The batch validator's failure cases fail at the same index.
        let mut b = TraceBuilder::new();
        b.acquire(0, "m").acquire(1, "m");
        let bad = b.finish();
        let batch_err = bad.validate().unwrap_err();
        let mut v = SessionValidator::new();
        let mut stream_err = None;
        for e in &bad {
            if let Err(e) = v.check(e) {
                stream_err = Some(e);
                break;
            }
        }
        assert_eq!(stream_err.unwrap(), batch_err);
    }

    #[test]
    fn session_validator_bounds_every_id() {
        let (t, bound) = (ThreadId::new, MAX_ID as u32);
        let mut v = SessionValidator::new();
        for op in [
            Op::Fork(t(bound)),
            Op::Join(t(bound)),
            Op::Acquire(LockId::new(bound)),
            Op::Read(VarId::new(bound)),
        ] {
            let err = v.check(&Event::new(t(0), op)).unwrap_err();
            assert!(err.message.contains("past the session bound"), "{err}");
        }
        assert!(v
            .check(&Event::new(t(bound), Op::Write(VarId::new(0))))
            .is_err());
        assert_eq!(v.events(), 0);
        let last = Event::new(t(bound - 1), Op::Acquire(LockId::new(bound - 1)));
        v.check(&last).unwrap();
        v.check(&Event::new(t(bound - 1), Op::Write(VarId::new(bound - 1))))
            .unwrap();
    }

    #[test]
    fn session_validator_rejects_and_recovers() {
        let mut v = SessionValidator::new();
        let release = Event::new(ThreadId::new(0), Op::Release(LockId::new(0)));
        assert!(v.check(&release).is_err());
        assert_eq!(v.events(), 0, "rejected events are not recorded");
        let acquire = Event::new(ThreadId::new(0), Op::Acquire(LockId::new(0)));
        v.check(&acquire).unwrap();
        v.check(&release).unwrap();
        assert_eq!(v.events(), 2);
    }

    #[test]
    fn validator_matches_batch_on_every_lifecycle_violation() {
        type Case = Box<dyn Fn(&mut TraceBuilder)>;
        let cases: Vec<Case> = vec![
            Box::new(|b| {
                b.fork(0, 1).join(0, 1).write(1, "x");
            }),
            Box::new(|b| {
                b.write(1, "x").fork(0, 1);
            }),
            Box::new(|b| {
                b.fork(0, 0);
            }),
            Box::new(|b| {
                b.fork(0, 1).fork(2, 1);
            }),
            Box::new(|b| {
                b.fork(0, 1).join(0, 1).join(2, 1);
            }),
            Box::new(|b| {
                // Forking a thread that was already joined (even one
                // that never acted) is a lifecycle violation.
                b.join(0, 1).fork(2, 1);
            }),
            Box::new(|b| {
                b.acquire(0, "m").release(1, "m");
            }),
        ];
        for (i, case) in cases.iter().enumerate() {
            let mut b = TraceBuilder::new();
            case(&mut b);
            let trace = b.finish();
            let batch = trace.validate().unwrap_err();
            let mut v = SessionValidator::new();
            let mut stream = None;
            for e in &trace {
                if let Err(e) = v.check(e) {
                    stream = Some(e);
                    break;
                }
            }
            assert_eq!(stream.expect("case must fail"), batch, "case {i}");
        }
    }
}
