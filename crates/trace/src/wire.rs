//! The batched binary **wire protocol** for streaming events to a
//! detection service.
//!
//! The text protocol served by `tcr serve` pays a line parse and an
//! interner lookup per event. At network scale (Chrono-style causal
//! metadata services) the transport of choice is a compact binary
//! encoding with *batched* delivery: one length-prefixed frame carries
//! a whole burst of events for one or many sessions, amortizing both
//! the syscall and the dispatch over the batch.
//!
//! # Frame layout
//!
//! ```text
//! magic    u8          0xF6 (MULTI_MAGIC)
//! length   u32 LE      payload length in bytes (≤ MAX_FRAME_LEN)
//! payload:
//!   groups  varint     number of (session, batch) groups
//!   groups × (session varint, count varint,
//!             count × (opcode u8, tid varint, operand varint))
//! ```
//!
//! A client with one session sends one group per frame; a fan-in
//! client packs a batch for each of its sessions into one frame.
//! Event records reuse the [binary trace format](crate::binary_format)
//! encoding exactly (LEB128 varints, the same opcode table), so a
//! logged `.tctr` file shreds into frames with no re-encoding of
//! events. Ids are dense (no name tables) — the binary path bypasses
//! the interner by construction.
//!
//! Servers hand every message whose first byte is [`BINARY_MIN`] or
//! above to a binary decoder. No UTF-8 text can start with such a
//! byte, so one port serves the text protocol and binary frames side
//! by side, and any binary magic other than the expected one is a
//! corrupt frame rather than a text line.
//!
//! # Reading
//!
//! [`try_message`] decodes incrementally from a byte buffer: it returns
//! `Ok(None)` until a full frame is buffered, then the decoded frame
//! plus the number of bytes consumed. This is the form a reader that
//! buffers whatever each socket read returns wants.

use std::error::Error;
use std::fmt;
use std::io::Read;

use tc_core::ThreadId;

use crate::binary_format::{decode_op, opcode, read_varint, write_varint};
use crate::event::Event;

/// First byte of every client event frame: one length-prefixed message
/// carrying event batches for one or more sessions (the fan-in shape —
/// hundreds of tiny per-session batches share one header, one sniff
/// and one parse).
pub const MULTI_MAGIC: u8 = 0xF6;

/// Lowest first byte a server hands to a binary decoder. UTF-8 never
/// uses the bytes `0xF5`–`0xFF`, so no text protocol line can start
/// with one, and every magic byte of this module lies in that range.
pub const BINARY_MIN: u8 = 0xF5;

/// Upper bound on a frame's payload length (16 MiB) — a corruption
/// guard: a glitched length prefix must not make a server buffer
/// gigabytes.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Bytes of frame header preceding the payload (magic + u32 length).
pub const FRAME_HEADER_LEN: usize = 5;

/// An error while decoding a wire frame.
#[derive(Debug)]
pub enum WireError {
    /// The bytes are not a valid frame.
    Corrupt(String),
    /// An encode was asked to build a frame whose payload would exceed
    /// [`MAX_FRAME_LEN`] — batch fewer events per frame (at most
    /// [`MAX_SPLIT_EVENTS`] always fit).
    Oversize {
        /// The payload size that would have been produced.
        bytes: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Corrupt(m) => write!(f, "corrupt wire frame: {m}"),
            WireError::Oversize { bytes } => write!(
                f,
                "frame payload of {bytes} bytes exceeds the {MAX_FRAME_LEN}-byte cap \
                 (batch fewer events per frame)"
            ),
        }
    }
}

impl Error for WireError {}

/// A decoded event batch bound for one session: one group of a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The session the events belong to.
    pub session: u64,
    /// The batched events, in trace order.
    pub events: Vec<Event>,
}

/// Largest encoded event record: opcode byte plus two `u32` varints
/// (≤ 5 bytes each).
const MAX_EVENT_BYTES: usize = 11;

/// Events per one-group frame that are guaranteed to fit under
/// [`MAX_FRAME_LEN`] even at worst-case varint widths (group count and
/// session id included) — the size a sender splits larger batches at.
pub const MAX_SPLIT_EVENTS: usize = (MAX_FRAME_LEN - 15) / MAX_EVENT_BYTES;

/// Appends one event batch (count varint + records) to `payload`.
fn encode_batch(payload: &mut Vec<u8>, events: &[Event]) {
    write_varint(payload, events.len() as u64).expect("writing to a Vec cannot fail");
    for e in events {
        let (code, operand) = opcode(e.op);
        payload.push(code);
        write_varint(payload, u64::from(e.tid.raw())).expect("writing to a Vec cannot fail");
        write_varint(payload, u64::from(operand)).expect("writing to a Vec cannot fail");
    }
}

/// Wraps a finished payload in a magic byte + length header.
fn seal(magic: u8, payload: Vec<u8>) -> Result<Vec<u8>, WireError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::Oversize {
            bytes: payload.len(),
        });
    }
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.push(magic);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Encodes one event frame: `(session, events)` batches that share a
/// single header (see the [layout](self#frame-layout)). Decoded by
/// [`try_message`] into one [`Frame`] per group.
///
/// # Errors
///
/// [`WireError::Oversize`] if the combined payload would exceed
/// [`MAX_FRAME_LEN`] — split the batches and encode several frames.
pub fn encode_multi_frame(groups: &[(u64, &[Event])]) -> Result<Vec<u8>, WireError> {
    let mut payload = Vec::with_capacity(8 + groups.len() * 16);
    write_varint(&mut payload, groups.len() as u64).expect("writing to a Vec cannot fail");
    for (session, events) in groups {
        write_varint(&mut payload, *session).expect("writing to a Vec cannot fail");
        encode_batch(&mut payload, events);
    }
    seal(MULTI_MAGIC, payload)
}

/// Decodes one event batch (count varint + records) from `r`.
fn decode_events(r: &mut &[u8]) -> Result<Vec<Event>, WireError> {
    let count = read_varint(r).map_err(bin_err)?;
    let count = usize::try_from(count)
        .ok()
        .filter(|&c| c <= MAX_FRAME_LEN)
        .ok_or_else(|| WireError::Corrupt(format!("implausible event count {count}")))?;
    let mut events = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let mut code = [0u8; 1];
        r.read_exact(&mut code)
            .map_err(|_| WireError::Corrupt("frame payload truncated mid-event".into()))?;
        let tid = read_varint(r).map_err(bin_err)?;
        let operand = read_varint(r).map_err(bin_err)?;
        let tid =
            u32::try_from(tid).map_err(|_| WireError::Corrupt("thread id overflows u32".into()))?;
        let operand = u32::try_from(operand)
            .map_err(|_| WireError::Corrupt("operand overflows u32".into()))?;
        events.push(Event::new(
            ThreadId::new(tid),
            decode_op(code[0], operand).map_err(bin_err)?,
        ));
    }
    Ok(events)
}

/// Decodes an event frame payload into one [`Frame`] per group.
fn decode_multi_payload(payload: &[u8]) -> Result<Vec<Frame>, WireError> {
    let mut r = payload;
    let groups = read_varint(&mut r).map_err(bin_err)?;
    let groups = usize::try_from(groups)
        .ok()
        .filter(|&g| g <= MAX_FRAME_LEN)
        .ok_or_else(|| WireError::Corrupt(format!("implausible group count {groups}")))?;
    let mut frames = Vec::with_capacity(groups.min(1 << 16));
    for _ in 0..groups {
        let session = read_varint(&mut r).map_err(bin_err)?;
        let events = decode_events(&mut r)?;
        frames.push(Frame { session, events });
    }
    if !r.is_empty() {
        return Err(WireError::Corrupt(format!(
            "{} trailing bytes after {groups} groups",
            r.len()
        )));
    }
    Ok(frames)
}

/// Maps a binary-format error into the wire error space: inside a
/// fully buffered payload, even an "I/O" error (a truncated varint
/// read) means the frame is malformed.
fn bin_err(e: crate::binary_format::BinaryError) -> WireError {
    use crate::binary_format::BinaryError;
    match e {
        BinaryError::Io(_) => WireError::Corrupt("frame payload truncated mid-event".into()),
        BinaryError::Corrupt(m) => WireError::Corrupt(m),
    }
}

/// Finds one sealed `magic` message at the front of `buf`: `Ok(None)`
/// while only part of it is buffered, else its payload and the number
/// of bytes it takes up. `what` names the message kind in errors.
fn unseal<'a>(
    buf: &'a [u8],
    magic: u8,
    what: &str,
) -> Result<Option<(&'a [u8], usize)>, WireError> {
    let Some(&first) = buf.first() else {
        return Ok(None);
    };
    if first != magic {
        return Err(WireError::Corrupt(format!(
            "bad {what} magic 0x{first:02x} (expected 0x{magic:02x})"
        )));
    }
    if buf.len() < FRAME_HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Corrupt(format!(
            "{what} length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let total = FRAME_HEADER_LEN + len;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((&buf[FRAME_HEADER_LEN..total], total)))
}

/// One decoded client wire message.
///
/// Non-exhaustive: code outside this crate matches it with a fallback
/// arm, so another message kind can be added without breaking callers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireMessage {
    /// A [`MULTI_MAGIC`] frame, one entry per session group (in wire
    /// order).
    Multi(Vec<Frame>),
}

impl WireMessage {
    /// The message's session batches, in wire order.
    pub fn into_frames(self) -> Vec<Frame> {
        match self {
            WireMessage::Multi(frames) => frames,
        }
    }
}

/// Attempts to extract one client frame from the front of `buf`
/// without blocking: returns `Ok(None)` while the buffer holds only a
/// partial frame, or the decoded message plus the number of bytes it
/// consumed.
///
/// The caller owns buffer compaction (`drain(..consumed)`) and calls
/// this after every read.
///
/// # Errors
///
/// [`WireError::Corrupt`] for a first byte other than [`MULTI_MAGIC`],
/// implausible lengths or malformed payloads — a corrupt frame poisons
/// the connection (there is no resynchronization point in the stream),
/// so callers should drop it.
pub fn try_message(buf: &[u8]) -> Result<Option<(WireMessage, usize)>, WireError> {
    let Some((payload, total)) = unseal(buf, MULTI_MAGIC, "frame")? else {
        return Ok(None);
    };
    let frames = decode_multi_payload(payload)?;
    Ok(Some((WireMessage::Multi(frames), total)))
}

/// First byte of an inter-node **cluster** message: the control plane
/// `tcr serve --cluster` nodes speak to each other — client-frame
/// forwarding, checkpoint-delta shipping, heartbeats and matrix-clock
/// stable vectors. Above [`BINARY_MIN`] like [`MULTI_MAGIC`], so a
/// cluster node serves clients and peers on one port by sniffing the
/// first byte of each message.
pub const CLUSTER_MAGIC: u8 = 0xF8;

/// One inter-node message of the cluster protocol. The wire layer
/// treats checkpoint bytes as opaque — the `TCCP` framing lives in the
/// stream layer; this codec only moves sealed byte ranges between
/// nodes.
///
/// Replication-stream variants ([`ClusterMsg::ReplFrame`],
/// [`ClusterMsg::ReplText`], [`ClusterMsg::Delta`],
/// [`ClusterMsg::Retire`]) carry a per-origin-node monotonically
/// increasing `seq` — the coordinate the matrix clock's stable prefix
/// is computed over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterMsg {
    /// Link handshake: the first message on an inter-node connection,
    /// naming the sending node and proving it belongs to the cluster.
    Hello {
        /// The sender's node index in the static peer set.
        node: u32,
        /// The cluster's shared-secret auth token (empty when the
        /// cluster runs without one). Receivers verify it in constant
        /// time before trusting any further peer traffic on the link,
        /// so an unauthenticated client on the shared port cannot
        /// reach the peer plane.
        auth: Vec<u8>,
    },
    /// A client text line forwarded from a gateway node to the
    /// session's owner. `token` correlates the owner's [`ClusterMsg::Reply`]
    /// back to the originating client connection.
    ForwardLine {
        /// The gateway node the client is connected to.
        origin: u32,
        /// Gateway-chosen correlation token for the reply.
        token: u64,
        /// The session the line addresses (pre-allocated by the
        /// gateway for `open` lines).
        session: u64,
        /// The raw client line, verbatim.
        text: String,
    },
    /// A client event frame forwarded from a gateway to the owner.
    ForwardFrame {
        /// The gateway node the client is connected to.
        origin: u32,
        /// Gateway-chosen correlation token for an error reply (the
        /// success path is silent, like direct frame ingest).
        token: u64,
        /// The session the events belong to.
        session: u64,
        /// The batched events, in client order.
        events: Vec<Event>,
    },
    /// The owner's reply to a forwarded line or frame, relayed by the
    /// gateway to the client connection `token` maps to.
    Reply {
        /// The correlation token from the forward.
        token: u64,
        /// The reply text (may span multiple protocol lines).
        text: String,
    },
    /// One ingested event frame, replicated owner → successor so the
    /// successor can replay frames past the last shipped checkpoint on
    /// failover.
    ReplFrame {
        /// The owning node (the replication stream's origin).
        origin: u32,
        /// Per-origin replication sequence number (contiguous).
        seq: u64,
        /// The session the events belong to.
        session: u64,
        /// The session's payload counter after ingesting this frame
        /// (1-based) — replay takes payloads past a checkpoint's count.
        frame_seq: u64,
        /// The replicated events.
        events: Vec<Event>,
    },
    /// One ingested text event line, replicated verbatim (text lines
    /// may intern thread/var/lock names, so the raw line is the only
    /// faithful replica).
    ReplText {
        /// The owning node.
        origin: u32,
        /// Per-origin replication sequence number.
        seq: u64,
        /// The session the line belongs to.
        session: u64,
        /// The session's payload counter after ingesting this line.
        frame_seq: u64,
        /// The raw event line, verbatim.
        text: String,
    },
    /// A checkpoint delta: an opaque copy/literal op stream (the
    /// cluster crate's `ByteDelta` wire form) that patches the full
    /// checkpoint previously shipped at payload counter `base_seq`
    /// into the one at `frame_seq` (`base_seq == 0` means the empty
    /// base — the delta degenerates to a full snapshot).
    Delta {
        /// The owning node.
        origin: u32,
        /// Per-origin replication sequence number.
        seq: u64,
        /// The session the checkpoint captures.
        session: u64,
        /// The session's payload counter at the checkpoint boundary.
        frame_seq: u64,
        /// Payload counter of the base checkpoint this delta patches.
        base_seq: u64,
        /// The serialized copy/literal op stream.
        bytes: Vec<u8>,
    },
    /// Liveness beacon, broadcast every tick; missing several in a row
    /// marks the node dead and triggers failover.
    Heartbeat {
        /// The sending node.
        node: u32,
    },
    /// One row of the sender's matrix clock: `seen[j]` is the highest
    /// contiguous replication seq the sender holds from node `j`. The
    /// column-wise minimum across live rows is the cluster-wide stable
    /// prefix.
    StableVector {
        /// The sending node (the row index).
        node: u32,
        /// The row, indexed by node.
        seen: Vec<u64>,
    },
    /// The owner closed a session: the successor drops its replica
    /// state. Part of the replication stream (carries a seq).
    Retire {
        /// The owning node.
        origin: u32,
        /// Per-origin replication sequence number.
        seq: u64,
        /// The retired session.
        session: u64,
    },
    /// Ownership override broadcast (the `handoff` admin command):
    /// `session` is now owned by `node`, regardless of ring placement.
    Assign {
        /// The reassigned session.
        session: u64,
        /// The new owning node.
        node: u32,
    },
    /// Fencing notice: the receiver has been declared dead and
    /// evicted from the sender's ring, and its sessions have failed
    /// over. A node that learns of its own eviction must stop serving
    /// — eviction is permanent, and continuing would split the brain.
    Evicted {
        /// The evicted node (the intended receiver).
        node: u32,
    },
}

/// Variant tags of the cluster payload (first payload byte).
mod cluster_tag {
    pub const HELLO: u8 = 0;
    pub const FORWARD_LINE: u8 = 1;
    pub const FORWARD_FRAME: u8 = 2;
    pub const REPLY: u8 = 3;
    pub const REPL_FRAME: u8 = 4;
    pub const REPL_TEXT: u8 = 5;
    pub const DELTA: u8 = 6;
    pub const HEARTBEAT: u8 = 7;
    pub const STABLE_VECTOR: u8 = 8;
    pub const RETIRE: u8 = 9;
    pub const ASSIGN: u8 = 10;
    pub const EVICTED: u8 = 11;
}

/// Appends a length-prefixed byte string.
fn encode_bytes(payload: &mut Vec<u8>, bytes: &[u8]) {
    write_varint(payload, bytes.len() as u64).expect("writing to a Vec cannot fail");
    payload.extend_from_slice(bytes);
}

/// Decodes a length-prefixed byte string.
fn decode_bytes(r: &mut &[u8]) -> Result<Vec<u8>, WireError> {
    let len = read_varint(r).map_err(bin_err)?;
    let len = usize::try_from(len)
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| WireError::Corrupt(format!("implausible byte-string length {len}")))?;
    if r.len() < len {
        return Err(WireError::Corrupt(
            "cluster payload truncated mid byte-string".into(),
        ));
    }
    let (head, tail) = r.split_at(len);
    *r = tail;
    Ok(head.to_vec())
}

/// Decodes a length-prefixed UTF-8 string.
fn decode_string(r: &mut &[u8]) -> Result<String, WireError> {
    String::from_utf8(decode_bytes(r)?)
        .map_err(|_| WireError::Corrupt("cluster text is not UTF-8".into()))
}

/// Encodes one cluster message as a sealed `0xF8` frame.
///
/// # Errors
///
/// [`WireError::Oversize`] if the payload would exceed
/// [`MAX_FRAME_LEN`] — a checkpoint delta past the cap must be split
/// by the caller (ship a full snapshot in chunks) rather than crash
/// the link.
pub fn encode_cluster(msg: &ClusterMsg) -> Result<Vec<u8>, WireError> {
    let mut p = Vec::with_capacity(32);
    let put = |p: &mut Vec<u8>, v: u64| {
        write_varint(p, v).expect("writing to a Vec cannot fail");
    };
    match msg {
        ClusterMsg::Hello { node, auth } => {
            p.push(cluster_tag::HELLO);
            put(&mut p, u64::from(*node));
            encode_bytes(&mut p, auth);
        }
        ClusterMsg::ForwardLine {
            origin,
            token,
            session,
            text,
        } => {
            p.push(cluster_tag::FORWARD_LINE);
            put(&mut p, u64::from(*origin));
            put(&mut p, *token);
            put(&mut p, *session);
            encode_bytes(&mut p, text.as_bytes());
        }
        ClusterMsg::ForwardFrame {
            origin,
            token,
            session,
            events,
        } => {
            p.push(cluster_tag::FORWARD_FRAME);
            put(&mut p, u64::from(*origin));
            put(&mut p, *token);
            put(&mut p, *session);
            encode_batch(&mut p, events);
        }
        ClusterMsg::Reply { token, text } => {
            p.push(cluster_tag::REPLY);
            put(&mut p, *token);
            encode_bytes(&mut p, text.as_bytes());
        }
        ClusterMsg::ReplFrame {
            origin,
            seq,
            session,
            frame_seq,
            events,
        } => {
            p.push(cluster_tag::REPL_FRAME);
            put(&mut p, u64::from(*origin));
            put(&mut p, *seq);
            put(&mut p, *session);
            put(&mut p, *frame_seq);
            encode_batch(&mut p, events);
        }
        ClusterMsg::ReplText {
            origin,
            seq,
            session,
            frame_seq,
            text,
        } => {
            p.push(cluster_tag::REPL_TEXT);
            put(&mut p, u64::from(*origin));
            put(&mut p, *seq);
            put(&mut p, *session);
            put(&mut p, *frame_seq);
            encode_bytes(&mut p, text.as_bytes());
        }
        ClusterMsg::Delta {
            origin,
            seq,
            session,
            frame_seq,
            base_seq,
            bytes,
        } => {
            p.push(cluster_tag::DELTA);
            put(&mut p, u64::from(*origin));
            put(&mut p, *seq);
            put(&mut p, *session);
            put(&mut p, *frame_seq);
            put(&mut p, *base_seq);
            encode_bytes(&mut p, bytes);
        }
        ClusterMsg::Heartbeat { node } => {
            p.push(cluster_tag::HEARTBEAT);
            put(&mut p, u64::from(*node));
        }
        ClusterMsg::StableVector { node, seen } => {
            p.push(cluster_tag::STABLE_VECTOR);
            put(&mut p, u64::from(*node));
            put(&mut p, seen.len() as u64);
            for s in seen {
                put(&mut p, *s);
            }
        }
        ClusterMsg::Retire {
            origin,
            seq,
            session,
        } => {
            p.push(cluster_tag::RETIRE);
            put(&mut p, u64::from(*origin));
            put(&mut p, *seq);
            put(&mut p, *session);
        }
        ClusterMsg::Assign { session, node } => {
            p.push(cluster_tag::ASSIGN);
            put(&mut p, *session);
            put(&mut p, u64::from(*node));
        }
        ClusterMsg::Evicted { node } => {
            p.push(cluster_tag::EVICTED);
            put(&mut p, u64::from(*node));
        }
    }
    seal(CLUSTER_MAGIC, p)
}

/// Decodes a `u32`-ranged varint (node ids).
fn decode_u32(r: &mut &[u8], what: &str) -> Result<u32, WireError> {
    let v = read_varint(r).map_err(bin_err)?;
    u32::try_from(v).map_err(|_| WireError::Corrupt(format!("{what} overflows u32")))
}

/// Decodes a cluster payload (the bytes after the header).
fn decode_cluster_payload(payload: &[u8]) -> Result<ClusterMsg, WireError> {
    let mut r = payload;
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)
        .map_err(|_| WireError::Corrupt("empty cluster payload".into()))?;
    let var = |r: &mut &[u8]| read_varint(r).map_err(bin_err);
    let msg = match tag[0] {
        cluster_tag::HELLO => ClusterMsg::Hello {
            node: decode_u32(&mut r, "node id")?,
            auth: decode_bytes(&mut r)?,
        },
        cluster_tag::FORWARD_LINE => ClusterMsg::ForwardLine {
            origin: decode_u32(&mut r, "node id")?,
            token: var(&mut r)?,
            session: var(&mut r)?,
            text: decode_string(&mut r)?,
        },
        cluster_tag::FORWARD_FRAME => ClusterMsg::ForwardFrame {
            origin: decode_u32(&mut r, "node id")?,
            token: var(&mut r)?,
            session: var(&mut r)?,
            events: decode_events(&mut r)?,
        },
        cluster_tag::REPLY => ClusterMsg::Reply {
            token: var(&mut r)?,
            text: decode_string(&mut r)?,
        },
        cluster_tag::REPL_FRAME => ClusterMsg::ReplFrame {
            origin: decode_u32(&mut r, "node id")?,
            seq: var(&mut r)?,
            session: var(&mut r)?,
            frame_seq: var(&mut r)?,
            events: decode_events(&mut r)?,
        },
        cluster_tag::REPL_TEXT => ClusterMsg::ReplText {
            origin: decode_u32(&mut r, "node id")?,
            seq: var(&mut r)?,
            session: var(&mut r)?,
            frame_seq: var(&mut r)?,
            text: decode_string(&mut r)?,
        },
        cluster_tag::DELTA => ClusterMsg::Delta {
            origin: decode_u32(&mut r, "node id")?,
            seq: var(&mut r)?,
            session: var(&mut r)?,
            frame_seq: var(&mut r)?,
            base_seq: var(&mut r)?,
            bytes: decode_bytes(&mut r)?,
        },
        cluster_tag::HEARTBEAT => ClusterMsg::Heartbeat {
            node: decode_u32(&mut r, "node id")?,
        },
        cluster_tag::STABLE_VECTOR => {
            let node = decode_u32(&mut r, "node id")?;
            let len = var(&mut r)?;
            let len = usize::try_from(len)
                .ok()
                .filter(|&l| l <= 1 << 16)
                .ok_or_else(|| {
                    WireError::Corrupt(format!("implausible stable-vector length {len}"))
                })?;
            let mut seen = Vec::with_capacity(len);
            for _ in 0..len {
                seen.push(var(&mut r)?);
            }
            ClusterMsg::StableVector { node, seen }
        }
        cluster_tag::RETIRE => ClusterMsg::Retire {
            origin: decode_u32(&mut r, "node id")?,
            seq: var(&mut r)?,
            session: var(&mut r)?,
        },
        cluster_tag::ASSIGN => ClusterMsg::Assign {
            session: var(&mut r)?,
            node: decode_u32(&mut r, "node id")?,
        },
        cluster_tag::EVICTED => ClusterMsg::Evicted {
            node: decode_u32(&mut r, "node id")?,
        },
        other => {
            return Err(WireError::Corrupt(format!(
                "unknown cluster message tag {other}"
            )))
        }
    };
    if !r.is_empty() {
        return Err(WireError::Corrupt(format!(
            "{} trailing bytes after cluster message",
            r.len()
        )));
    }
    Ok(msg)
}

/// Like [`try_message`], but for [`CLUSTER_MAGIC`] messages: returns
/// `Ok(None)` while the buffer holds only a partial message, or the
/// decoded message plus the number of bytes it consumed.
///
/// # Errors
///
/// [`WireError::Corrupt`] for bad magic, implausible lengths or
/// malformed payloads — a corrupt message poisons the inter-node link.
pub fn try_cluster(buf: &[u8]) -> Result<Option<(ClusterMsg, usize)>, WireError> {
    let Some((payload, total)) = unseal(buf, CLUSTER_MAGIC, "cluster message")? else {
        return Ok(None);
    };
    Ok(Some((decode_cluster_payload(payload)?, total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LockId, Op, VarId};
    use crate::TraceBuilder;

    fn sample_events() -> Vec<Event> {
        let mut b = TraceBuilder::new();
        b.fork(0, 1);
        b.acquire(0, "m").write(0, "x").release(0, "m");
        b.acquire(1, "m").read(1, "x").release(1, "m");
        b.join(0, 1);
        b.finish().events().to_vec()
    }

    /// Encodes one single-group frame.
    fn one_group(session: u64, events: &[Event]) -> Vec<u8> {
        encode_multi_frame(&[(session, events)]).unwrap()
    }

    /// Decodes a buffer that must hold exactly one whole frame.
    fn decode(bytes: &[u8]) -> Result<Vec<Frame>, WireError> {
        let (msg, used) = try_message(bytes)?.expect("a whole frame");
        assert_eq!(used, bytes.len());
        Ok(msg.into_frames())
    }

    /// A frame's header + group count + one-byte session + one-byte
    /// event count: where a small single-group frame's first record
    /// starts.
    const FIRST_RECORD: usize = FRAME_HEADER_LEN + 3;

    #[test]
    fn frame_round_trips() {
        let events = sample_events();
        let frames = decode(&one_group(42, &events)).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!((frames[0].session, &frames[0].events), (42, &events));
    }

    #[test]
    fn empty_frame_round_trips() {
        let bytes = one_group(7, &[]);
        assert_eq!(bytes.len(), FIRST_RECORD);
        let frames = decode(&bytes).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].session, 7);
        assert!(frames[0].events.is_empty());
    }

    #[test]
    fn magic_byte_cannot_start_a_text_line() {
        // The multiplexing invariant: bytes from BINARY_MIN up never
        // occur in UTF-8, so no text line can start with a magic byte.
        const { assert!(MULTI_MAGIC >= BINARY_MIN && CLUSTER_MAGIC >= BINARY_MIN) };
        for b in BINARY_MIN..=u8::MAX {
            assert!(std::str::from_utf8(&[b, 0x80, 0x80, 0x80]).is_err());
        }
    }

    #[test]
    fn try_message_is_incremental() {
        let events = sample_events();
        let bytes = one_group(3, &events);
        // Every proper prefix: not yet a frame.
        for cut in 0..bytes.len() {
            assert!(
                try_message(&bytes[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        // The full buffer (plus trailing bytes of the next frame)
        // yields the frame and its exact length.
        let mut buf = bytes.clone();
        buf.push(MULTI_MAGIC);
        let (msg, used) = try_message(&buf).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        let frames = msg.into_frames();
        assert_eq!(frames[0].events, events);
        assert_eq!(frames[0].session, 3);
    }

    /// A well-formed frame of the retired single-session kind: magic
    /// `0xF7`, then session and event count with no group count.
    fn retired_single_session_frame(session: u8) -> Vec<u8> {
        vec![0xF7, 2, 0, 0, 0, session, 0]
    }

    #[test]
    fn rejects_bad_magic() {
        for bytes in [&b"open hb tc\n"[..], b"o", &retired_single_session_frame(1)] {
            let e = try_message(bytes).unwrap_err();
            assert!(matches!(e, WireError::Corrupt(_)));
            assert!(e.to_string().contains("magic"), "{e}");
        }
    }

    #[test]
    fn rejects_oversized_length() {
        let mut bytes = vec![MULTI_MAGIC];
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(try_message(&bytes).unwrap_err().to_string().contains("cap"));
    }

    #[test]
    fn rejects_unknown_opcode() {
        let mut bytes = one_group(1, &sample_events());
        bytes[FIRST_RECORD] = 0x3f;
        let e = decode(&bytes).unwrap_err();
        assert!(e.to_string().contains("opcode"));
    }

    #[test]
    fn rejects_truncated_payload() {
        // A count promising more events than the payload holds: the
        // frame is fully buffered yet malformed — Corrupt, not pending.
        let payload: &[u8] = &[1, 9, 5, 0, 0, 0]; // 1 group, session 9, count 5, one event
        let bytes = seal(MULTI_MAGIC, payload.to_vec()).unwrap();
        let e = try_message(&bytes).unwrap_err();
        assert!(matches!(e, WireError::Corrupt(_)), "got {e}");
        assert!(e.to_string().contains("truncated"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = one_group(1, &sample_events());
        // Grow the declared length and append junk: decode must notice.
        let junk = [0u8, 0, 0];
        let new_len = (bytes.len() - FRAME_HEADER_LEN + junk.len()) as u32;
        bytes[1..5].copy_from_slice(&new_len.to_le_bytes());
        bytes.extend_from_slice(&junk);
        let e = try_message(&bytes).unwrap_err();
        assert!(e.to_string().contains("trailing"));
    }

    #[test]
    fn events_encode_exactly_like_the_binary_trace_format() {
        // A frame's records are the binary format's records: the same
        // opcodes and varints, so logged traces shred into frames
        // without re-encoding.
        let events = vec![
            Event::new(ThreadId::new(1), Op::Read(VarId::new(300))),
            Event::new(ThreadId::new(200), Op::Acquire(LockId::new(2))),
        ];
        let frame_bytes = one_group(0, &events);
        let mut trace = TraceBuilder::with_capacity(2);
        for e in &events {
            trace.push(*e);
        }
        let bin = crate::binary_format::to_binary(&trace.finish());
        // Skip frame header + group count + session + count on one
        // side, magic + version + count on the other: the record bytes
        // must match.
        assert_eq!(frame_bytes[FIRST_RECORD..], bin[6..]);
    }

    #[test]
    fn large_session_ids_and_batches_round_trip() {
        let events: Vec<Event> = (0..1000)
            .map(|i| Event::new(ThreadId::new(i % 7), Op::Write(VarId::new(i))))
            .collect();
        let frames = decode(&one_group(u64::MAX, &events)).unwrap();
        assert_eq!(frames[0].session, u64::MAX);
        assert_eq!(frames[0].events.len(), 1000);
        assert_eq!(frames[0].events, events);
    }

    /// Worst-case-width events: every varint in the record is 5 bytes.
    fn wide_events(n: usize) -> Vec<Event> {
        (0..n)
            .map(|_| {
                Event::new(
                    ThreadId::new(u32::MAX - 1),
                    Op::Write(VarId::new(u32::MAX - 1)),
                )
            })
            .collect()
    }

    #[test]
    fn oversize_batch_is_an_error_not_a_panic() {
        // Enough records that their bytes alone exceed the cap, so the
        // overflow cannot hinge on session/count varint widths (at
        // MAX_SPLIT_EVENTS + 1, a 1-byte session id leaves the payload
        // under the cap — the split headroom is 15 bytes).
        let events = wide_events(MAX_FRAME_LEN / MAX_EVENT_BYTES + 1);
        let e = encode_multi_frame(&[(9, &events)]).expect_err("past-cap batch must not encode");
        assert!(matches!(e, WireError::Oversize { .. }), "got {e}");
        assert!(e.to_string().contains("exceeds"));
    }

    #[test]
    fn split_size_batches_fit_one_group_frames() {
        // The split size holds at every varint's widest: a u64::MAX
        // session id and 5-byte record varints.
        let events = wide_events(MAX_SPLIT_EVENTS);
        let bytes = one_group(u64::MAX, &events);
        assert!(bytes.len() > MAX_FRAME_LEN - 16 * MAX_EVENT_BYTES);
        let frames = decode(&bytes).unwrap();
        assert_eq!(frames[0].session, u64::MAX);
        assert_eq!(frames[0].events, events);
    }

    #[test]
    fn multi_frame_round_trips_through_try_message() {
        let a = sample_events();
        let b: Vec<Event> = (0..5)
            .map(|i| Event::new(ThreadId::new(i), Op::Read(VarId::new(i))))
            .collect();
        let bytes = encode_multi_frame(&[(4, a.as_slice()), (17, b.as_slice()), (4, &[])]).unwrap();
        assert_eq!(bytes[0], MULTI_MAGIC);
        // Incremental: every proper prefix is incomplete.
        for cut in 0..bytes.len() {
            assert!(try_message(&bytes[..cut]).unwrap().is_none());
        }
        let frames = decode(&bytes).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!((frames[0].session, &frames[0].events), (4, &a));
        assert_eq!((frames[1].session, &frames[1].events), (17, &b));
        assert!(frames[2].events.is_empty());
    }

    fn sample_cluster_msgs() -> Vec<ClusterMsg> {
        vec![
            ClusterMsg::Hello {
                node: 2,
                auth: b"sekret".to_vec(),
            },
            ClusterMsg::ForwardLine {
                origin: 0,
                token: 99,
                session: 12,
                text: "open hb tc".into(),
            },
            ClusterMsg::ForwardFrame {
                origin: 1,
                token: 100,
                session: 12,
                events: sample_events(),
            },
            ClusterMsg::Reply {
                token: 99,
                text: "ok session 12 order HB clock tree".into(),
            },
            ClusterMsg::ReplFrame {
                origin: 1,
                seq: 41,
                session: 12,
                frame_seq: 7,
                events: sample_events(),
            },
            ClusterMsg::ReplText {
                origin: 1,
                seq: 42,
                session: 12,
                frame_seq: 8,
                text: "acq t0 m".into(),
            },
            ClusterMsg::Delta {
                origin: 1,
                seq: 43,
                session: 12,
                frame_seq: 8,
                base_seq: 30,
                bytes: vec![1, 2, 3, 0xff],
            },
            ClusterMsg::Heartbeat { node: 0 },
            ClusterMsg::StableVector {
                node: 2,
                seen: vec![41, 0, 43],
            },
            ClusterMsg::Retire {
                origin: 1,
                seq: 44,
                session: 12,
            },
            ClusterMsg::Assign {
                session: 12,
                node: 2,
            },
            ClusterMsg::Evicted { node: 1 },
        ]
    }

    #[test]
    fn cluster_messages_round_trip_incrementally() {
        for msg in sample_cluster_msgs() {
            let bytes = encode_cluster(&msg).unwrap();
            assert_eq!(bytes[0], CLUSTER_MAGIC);
            // Every proper prefix: not yet a message.
            for cut in 0..bytes.len() {
                assert!(
                    try_cluster(&bytes[..cut]).unwrap().is_none(),
                    "prefix of {cut} bytes must be incomplete for {msg:?}"
                );
            }
            // Full buffer plus the start of the next message.
            let mut buf = bytes.clone();
            buf.push(CLUSTER_MAGIC);
            let (back, used) = try_cluster(&buf).unwrap().unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn cluster_magic_is_distinct_and_non_ascii() {
        const { assert!(CLUSTER_MAGIC >= 0x80) };
        const { assert!(CLUSTER_MAGIC != MULTI_MAGIC) };
        // The ordinary frame dispatcher refuses cluster messages, so a
        // non-cluster server counts them as corrupt rather than
        // misreading them.
        let bytes = encode_cluster(&ClusterMsg::Heartbeat { node: 1 }).unwrap();
        assert!(try_message(&bytes)
            .unwrap_err()
            .to_string()
            .contains("magic"));
        assert!(try_cluster(b"open")
            .unwrap_err()
            .to_string()
            .contains("magic"));
    }

    #[test]
    fn cluster_decode_rejects_malformed_payloads() {
        // Unknown tag.
        let sealed = seal(CLUSTER_MAGIC, vec![0x7f]).unwrap();
        assert!(try_cluster(&sealed)
            .unwrap_err()
            .to_string()
            .contains("unknown cluster message tag"));
        // Empty payload.
        let sealed = seal(CLUSTER_MAGIC, Vec::new()).unwrap();
        assert!(try_cluster(&sealed)
            .unwrap_err()
            .to_string()
            .contains("empty"));
        // Trailing garbage after a valid message.
        let mut payload = vec![cluster_tag::HEARTBEAT, 3];
        payload.push(0);
        let sealed = seal(CLUSTER_MAGIC, payload).unwrap();
        assert!(try_cluster(&sealed)
            .unwrap_err()
            .to_string()
            .contains("trailing"));
        // Byte-string length past the buffered payload.
        let payload = vec![cluster_tag::REPLY, 1, 200];
        let sealed = seal(CLUSTER_MAGIC, payload).unwrap();
        assert!(try_cluster(&sealed)
            .unwrap_err()
            .to_string()
            .contains("truncated"));
        // Non-UTF-8 text.
        let mut payload = vec![cluster_tag::REPLY, 1, 2];
        payload.extend_from_slice(&[0xff, 0xfe]);
        let sealed = seal(CLUSTER_MAGIC, payload).unwrap();
        assert!(try_cluster(&sealed)
            .unwrap_err()
            .to_string()
            .contains("UTF-8"));
    }

    #[test]
    fn oversize_cluster_delta_is_an_error_not_a_panic() {
        let msg = ClusterMsg::Delta {
            origin: 0,
            seq: 1,
            session: 1,
            frame_seq: 1,
            base_seq: 0,
            bytes: vec![0u8; MAX_FRAME_LEN + 1],
        };
        let e = encode_cluster(&msg).expect_err("past-cap delta must not encode");
        assert!(matches!(e, WireError::Oversize { .. }), "got {e}");
    }

    #[test]
    fn try_message_dispatches_on_the_magic_byte() {
        let bytes = one_group(3, &sample_events());
        let (msg, used) = try_message(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert!(matches!(msg, WireMessage::Multi(f) if f[0].session == 3));
        // Only the client frame magic decodes: the retired
        // single-session magic and the cluster magic are corrupt.
        let e = try_message(&retired_single_session_frame(3)).unwrap_err();
        assert!(e.to_string().contains("magic 0xf7"), "{e}");
        let e = try_cluster(&bytes).unwrap_err();
        assert!(e.to_string().contains("magic 0xf6"), "{e}");
        assert!(try_message(b"x").unwrap_err().to_string().contains("magic"));
    }
}
