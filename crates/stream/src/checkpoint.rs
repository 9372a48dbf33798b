//! Serializable session checkpoints.
//!
//! A [`Checkpoint`] is a complete value-level capture of an
//! [`IncrementalDetector`](crate::IncrementalDetector): clock values
//! (not representations — see [`tc_orders::snapshot`]), per-variable
//! access histories, the race report so far, and the lifecycle
//! bookkeeping the memory policies need. Restoring it and feeding the
//! remaining events produces byte-identical reports to a run that never
//! stopped.
//!
//! The on-disk format (`TCCP`) follows the binary trace format's
//! conventions: a 4-byte magic, a version byte, then LEB128 varints
//! throughout. It contains no clock-representation detail, so a
//! checkpoint written by a tree-backend session restores into any
//! backend.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use tc_analysis::{RaceReport, ReadsSnapshot, VarHistorySnapshot};
use tc_core::{Epoch, IdentitySnapshot, LocalTime, ThreadId};
use tc_orders::snapshot::{ClockValue, CoreState, EngineState, ThreadSlot, VarClocks};
use tc_orders::PartialOrderKind;
use tc_trace::{InternerState, ValidatorState, VarId};

use crate::detector::DetectorConfig;

const MAGIC: &[u8; 4] = b"TCCP";
// Version 2 added the identity-recycling section (the `recycle_slots`
// config flag and the optional serialized `IdentityMap`).
const VERSION: u8 = 2;

/// An error reading or writing a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying reader/writer failed.
    Io(io::Error),
    /// The input is not a valid checkpoint.
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "I/O error on checkpoint: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn corrupt(message: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(message.into())
}

/// A complete value-level session snapshot; see the [module
/// docs](self).
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// The detector configuration (order + memory policy).
    pub config: DetectorConfig,
    /// `LogicalClock::NAME` of the backend that wrote the checkpoint
    /// (informational: restore works into any backend).
    pub backend: String,
    /// Events ingested before the checkpoint.
    pub events: u64,
    /// Stored races already returned from the detector's `feed` calls.
    pub emitted: u64,
    /// Stored races already delivered to a protocol consumer via
    /// `poll` (session-level; 0 for a bare detector checkpoint, in
    /// which case a resumed session's first `poll` replays every
    /// stored race rather than losing undelivered ones).
    pub polled: u64,
    /// Dominated-state evictions performed so far.
    pub evicted: u64,
    /// The session's initial thread.
    pub first_thread: Option<ThreadId>,
    /// Thread-started flags, dense by thread id.
    pub started: Vec<bool>,
    /// Thread-forked flags, dense by thread id.
    pub forked: Vec<bool>,
    /// The engine's clock values.
    pub engine: EngineState,
    /// Per-variable access histories.
    pub vars: Vec<VarHistorySnapshot>,
    /// The race report accumulated so far.
    pub report: RaceReport,
    /// The session validator's state, when the checkpoint was taken at
    /// the session level ([`Session::checkpoint`]); `None` for a bare
    /// detector checkpoint.
    ///
    /// [`Session::checkpoint`]: crate::Session::checkpoint
    pub validator: Option<ValidatorState>,
    /// The session's name tables (text sessions), when taken at the
    /// session level — a resumed session keeps every established
    /// name → id binding.
    pub interner: Option<InternerState>,
    /// The identity map (external id ⇄ recycled slot bindings), when
    /// the detector runs with `recycle_slots`. Serialized in full —
    /// including the free/pending queues in order — so a resumed
    /// session assigns exactly the same slots to future threads.
    pub identity: Option<IdentitySnapshot>,
}

// ---- primitive writers/readers ----------------------------------------

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(r: &mut R) -> Result<u64, CheckpointError> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let b = byte[0];
        if shift >= 63 && b > 1 {
            return Err(corrupt("varint overflow"));
        }
        out |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

fn read_u32<R: Read>(r: &mut R, what: &str) -> Result<u32, CheckpointError> {
    u32::try_from(read_varint(r)?).map_err(|_| corrupt(format!("{what} overflows u32")))
}

fn read_len<R: Read>(r: &mut R, what: &str) -> Result<usize, CheckpointError> {
    let len = read_varint(r)?;
    // A hostile length must not pre-allocate unbounded memory; 2^32
    // elements is far past any real session's state.
    if len > u64::from(u32::MAX) {
        return Err(corrupt(format!("{what} length {len} is implausible")));
    }
    Ok(len as usize)
}

fn write_opt_tid<W: Write>(w: &mut W, t: Option<ThreadId>) -> io::Result<()> {
    write_varint(w, t.map(|t| u64::from(t.raw()) + 1).unwrap_or(0))
}

fn read_opt_tid<R: Read>(r: &mut R) -> Result<Option<ThreadId>, CheckpointError> {
    let v = read_varint(r)?;
    if v == 0 {
        return Ok(None);
    }
    u32::try_from(v - 1)
        .map(|raw| Some(ThreadId::new(raw)))
        .map_err(|_| corrupt("thread id overflows u32"))
}

fn write_bits<W: Write>(w: &mut W, bits: &[bool]) -> io::Result<()> {
    write_varint(w, bits.len() as u64)?;
    let mut byte = 0u8;
    for (i, &b) in bits.iter().enumerate() {
        byte |= u8::from(b) << (i % 8);
        if i % 8 == 7 {
            w.write_all(&[byte])?;
            byte = 0;
        }
    }
    if !bits.len().is_multiple_of(8) {
        w.write_all(&[byte])?;
    }
    Ok(())
}

fn read_bits<R: Read>(r: &mut R) -> Result<Vec<bool>, CheckpointError> {
    let len = read_len(r, "bitset")?;
    let mut out = Vec::with_capacity(len);
    let mut byte = [0u8; 1];
    for i in 0..len {
        if i % 8 == 0 {
            r.read_exact(&mut byte)?;
        }
        out.push(byte[0] >> (i % 8) & 1 == 1);
    }
    Ok(out)
}

fn write_clock_value<W: Write>(w: &mut W, value: &ClockValue) -> io::Result<()> {
    write_opt_tid(w, value.root)?;
    // Trailing zeros are insignificant: trim them so a wide arena does
    // not bloat the checkpoint.
    let len = value
        .times
        .iter()
        .rposition(|&t| t != 0)
        .map_or(0, |i| i + 1);
    write_varint(w, len as u64)?;
    for &t in &value.times[..len] {
        write_varint(w, u64::from(t))?;
    }
    Ok(())
}

fn read_clock_value<R: Read>(r: &mut R) -> Result<ClockValue, CheckpointError> {
    let root = read_opt_tid(r)?;
    let len = read_len(r, "clock value")?;
    let mut times = Vec::with_capacity(len);
    for _ in 0..len {
        times.push(read_u32(r, "clock entry")? as LocalTime);
    }
    Ok(ClockValue { root, times })
}

fn write_opt_clock<W: Write>(w: &mut W, value: Option<&ClockValue>) -> io::Result<()> {
    match value {
        Some(v) => {
            w.write_all(&[1])?;
            write_clock_value(w, v)
        }
        None => w.write_all(&[0]),
    }
}

fn read_opt_clock<R: Read>(r: &mut R) -> Result<Option<ClockValue>, CheckpointError> {
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag)?;
    match flag[0] {
        0 => Ok(None),
        1 => Ok(Some(read_clock_value(r)?)),
        other => Err(corrupt(format!("bad clock-presence flag {other}"))),
    }
}

fn write_epoch<W: Write>(w: &mut W, e: Epoch) -> io::Result<()> {
    write_varint(w, u64::from(e.tid().raw()))?;
    write_varint(w, u64::from(e.time()))
}

fn read_epoch<R: Read>(r: &mut R) -> Result<Epoch, CheckpointError> {
    let tid = read_u32(r, "epoch thread")?;
    let time = read_u32(r, "epoch time")?;
    Ok(Epoch::new(ThreadId::new(tid), time))
}

// ---- the document ------------------------------------------------------

impl Checkpoint {
    /// Serializes the checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write<W: Write>(&self, mut w: W) -> io::Result<()> {
        let w = &mut w;
        w.write_all(MAGIC)?;
        w.write_all(&[VERSION])?;
        w.write_all(&[match self.config.order {
            PartialOrderKind::Hb => 0,
            PartialOrderKind::Shb => 1,
            PartialOrderKind::Maz => 2,
        }])?;
        write_varint(w, self.backend.len() as u64)?;
        w.write_all(self.backend.as_bytes())?;
        w.write_all(&[u8::from(self.config.retire_on_join)])?;
        match self.config.evict_every {
            Some(n) => {
                w.write_all(&[1])?;
                write_varint(w, n)?;
            }
            None => w.write_all(&[0])?,
        }
        w.write_all(&[u8::from(self.config.recycle_slots)])?;
        match &self.identity {
            Some(id) => {
                w.write_all(&[1])?;
                write_varint(w, id.entries.len() as u64)?;
                for &(ext, slot, generation, base, fin) in &id.entries {
                    write_varint(w, u64::from(ext))?;
                    write_varint(w, u64::from(slot))?;
                    write_varint(w, u64::from(generation))?;
                    write_varint(w, u64::from(base))?;
                    write_varint(w, fin.map(|f| u64::from(f) + 1).unwrap_or(0))?;
                }
                // The pending and free queues are order-significant:
                // slot reuse pops deterministically, so a resumed
                // session must see the queues exactly as they were.
                write_varint(w, id.pending.len() as u64)?;
                for &(slot, fin) in &id.pending {
                    write_varint(w, u64::from(slot))?;
                    write_varint(w, u64::from(fin))?;
                }
                write_varint(w, id.free.len() as u64)?;
                for &(slot, base) in &id.free {
                    write_varint(w, u64::from(slot))?;
                    write_varint(w, u64::from(base))?;
                }
                write_varint(w, id.recycled)?;
            }
            None => w.write_all(&[0])?,
        }
        write_varint(w, self.events)?;
        write_varint(w, self.emitted)?;
        write_varint(w, self.polled)?;
        write_varint(w, self.evicted)?;
        write_opt_tid(w, self.first_thread)?;
        write_bits(w, &self.started)?;
        write_bits(w, &self.forked)?;

        write_varint(w, self.engine.core.threads.len() as u64)?;
        for slot in &self.engine.core.threads {
            w.write_all(&[u8::from(slot.retired)])?;
            write_opt_clock(w, slot.clock.as_ref())?;
        }
        write_varint(w, self.engine.core.locks.len() as u64)?;
        for lock in &self.engine.core.locks {
            write_opt_clock(w, lock.as_ref())?;
        }
        write_varint(w, self.engine.vars.len() as u64)?;
        for var in &self.engine.vars {
            write_opt_clock(w, var.last_write.as_ref())?;
            write_varint(w, var.reads.len() as u64)?;
            for (t, value) in &var.reads {
                write_varint(w, u64::from(t.raw()))?;
                write_clock_value(w, value)?;
            }
            write_varint(w, var.lrds.len() as u64)?;
            for t in &var.lrds {
                write_varint(w, u64::from(t.raw()))?;
            }
        }

        write_varint(w, self.vars.len() as u64)?;
        for h in &self.vars {
            write_varint(w, u64::from(h.var.raw()))?;
            write_epoch(w, h.write)?;
            match &h.reads {
                ReadsSnapshot::Epoch(e) => {
                    w.write_all(&[0])?;
                    write_epoch(w, *e)?;
                }
                ReadsSnapshot::Vector(pairs) => {
                    w.write_all(&[1])?;
                    write_varint(w, pairs.len() as u64)?;
                    for &(t, time) in pairs {
                        write_varint(w, u64::from(t.raw()))?;
                        write_varint(w, u64::from(time))?;
                    }
                }
            }
        }

        match &self.validator {
            Some(v) => {
                w.write_all(&[1])?;
                write_varint(w, v.held_by.len() as u64)?;
                for holder in &v.held_by {
                    write_opt_tid(w, *holder)?;
                }
                write_bits(w, &v.started)?;
                write_bits(w, &v.forked)?;
                write_bits(w, &v.joined)?;
                write_varint(w, v.events)?;
            }
            None => w.write_all(&[0])?,
        }
        match &self.interner {
            Some(names) => {
                w.write_all(&[1])?;
                for table in [&names.threads, &names.locks, &names.vars] {
                    write_varint(w, table.len() as u64)?;
                    for name in table.iter() {
                        write_varint(w, name.len() as u64)?;
                        w.write_all(name.as_bytes())?;
                    }
                }
            }
            None => w.write_all(&[0])?,
        }

        write_varint(w, self.report.total)?;
        write_varint(w, self.report.checks)?;
        write_varint(w, self.report.races.len() as u64)?;
        for race in &self.report.races {
            write_varint(w, u64::from(race.var.raw()))?;
            w.write_all(&[match race.kind {
                tc_analysis::RaceKind::WriteWrite => 0,
                tc_analysis::RaceKind::WriteRead => 1,
                tc_analysis::RaceKind::ReadWrite => 2,
            }])?;
            write_epoch(w, race.prior)?;
            write_epoch(w, race.current)?;
        }
        Ok(())
    }

    /// Serializes the checkpoint to a byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write(&mut buf).expect("writing to a Vec cannot fail");
        buf
    }

    /// Deserializes a checkpoint.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] for structural problems,
    /// [`CheckpointError::Io`] for reader failures (including
    /// truncation).
    pub fn read<R: Read>(mut r: R) -> Result<Checkpoint, CheckpointError> {
        let r = &mut r;
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(corrupt("bad magic (not a TCCP checkpoint)"));
        }
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        if byte[0] != VERSION {
            return Err(corrupt(format!(
                "unsupported version {} (expected {VERSION})",
                byte[0]
            )));
        }
        r.read_exact(&mut byte)?;
        let order = match byte[0] {
            0 => PartialOrderKind::Hb,
            1 => PartialOrderKind::Shb,
            2 => PartialOrderKind::Maz,
            other => return Err(corrupt(format!("unknown order tag {other}"))),
        };
        let backend_len = read_len(r, "backend name")?;
        if backend_len > 64 {
            return Err(corrupt("backend name is implausibly long"));
        }
        let mut backend = vec![0u8; backend_len];
        r.read_exact(&mut backend)?;
        let backend =
            String::from_utf8(backend).map_err(|_| corrupt("backend name is not UTF-8"))?;
        r.read_exact(&mut byte)?;
        let retire_on_join = match byte[0] {
            0 => false,
            1 => true,
            other => return Err(corrupt(format!("bad retire flag {other}"))),
        };
        r.read_exact(&mut byte)?;
        let evict_every = match byte[0] {
            0 => None,
            1 => Some(read_varint(r)?),
            other => return Err(corrupt(format!("bad evict flag {other}"))),
        };
        r.read_exact(&mut byte)?;
        let recycle_slots = match byte[0] {
            0 => false,
            1 => true,
            other => return Err(corrupt(format!("bad recycle flag {other}"))),
        };
        r.read_exact(&mut byte)?;
        let identity = match byte[0] {
            0 => None,
            1 => {
                let entry_count = read_len(r, "identity entries")?;
                let mut entries = Vec::with_capacity(entry_count);
                for _ in 0..entry_count {
                    let ext = read_u32(r, "identity external")?;
                    let slot = read_u32(r, "identity slot")?;
                    let generation = read_u32(r, "identity generation")?;
                    let base = read_u32(r, "identity base")? as LocalTime;
                    let fin = match read_varint(r)? {
                        0 => None,
                        v => Some(
                            u32::try_from(v - 1)
                                .map_err(|_| corrupt("identity fin overflows u32"))?
                                as LocalTime,
                        ),
                    };
                    entries.push((ext, slot, generation, base, fin));
                }
                let pending_count = read_len(r, "identity pending")?;
                let mut pending = Vec::with_capacity(pending_count);
                for _ in 0..pending_count {
                    let slot = read_u32(r, "pending slot")?;
                    let fin = read_u32(r, "pending fin")? as LocalTime;
                    pending.push((slot, fin));
                }
                let free_count = read_len(r, "identity free")?;
                let mut free = Vec::with_capacity(free_count);
                for _ in 0..free_count {
                    let slot = read_u32(r, "free slot")?;
                    let base = read_u32(r, "free base")? as LocalTime;
                    free.push((slot, base));
                }
                let recycled = read_varint(r)?;
                Some(IdentitySnapshot {
                    entries,
                    pending,
                    free,
                    recycled,
                })
            }
            other => return Err(corrupt(format!("bad identity flag {other}"))),
        };
        let events = read_varint(r)?;
        let emitted = read_varint(r)?;
        let polled = read_varint(r)?;
        let evicted = read_varint(r)?;
        let first_thread = read_opt_tid(r)?;
        let started = read_bits(r)?;
        let forked = read_bits(r)?;
        // Both are indexed by the same thread id; a shorter one would
        // be indexed out of bounds once the resumed session evicts.
        if forked.len() != started.len() {
            return Err(corrupt(
                "detector started/forked flag vectors differ in length",
            ));
        }

        let thread_count = read_len(r, "threads")?;
        let mut threads = Vec::with_capacity(thread_count);
        for _ in 0..thread_count {
            r.read_exact(&mut byte)?;
            let retired = match byte[0] {
                0 => false,
                1 => true,
                other => return Err(corrupt(format!("bad retired flag {other}"))),
            };
            threads.push(ThreadSlot {
                retired,
                clock: read_opt_clock(r)?,
            });
        }
        let lock_count = read_len(r, "locks")?;
        let mut locks = Vec::with_capacity(lock_count);
        for _ in 0..lock_count {
            locks.push(read_opt_clock(r)?);
        }
        let var_count = read_len(r, "engine vars")?;
        let mut engine_vars = Vec::with_capacity(var_count);
        for _ in 0..var_count {
            let last_write = read_opt_clock(r)?;
            let read_count = read_len(r, "read clocks")?;
            let mut reads = Vec::with_capacity(read_count);
            for _ in 0..read_count {
                let t = ThreadId::new(read_u32(r, "read-clock thread")?);
                reads.push((t, read_clock_value(r)?));
            }
            let lrd_count = read_len(r, "lrds")?;
            let mut lrds = Vec::with_capacity(lrd_count);
            for _ in 0..lrd_count {
                lrds.push(ThreadId::new(read_u32(r, "lrd thread")?));
            }
            engine_vars.push(VarClocks {
                last_write,
                reads,
                lrds,
            });
        }

        let history_count = read_len(r, "var histories")?;
        let mut vars = Vec::with_capacity(history_count);
        for _ in 0..history_count {
            let var = VarId::new(read_u32(r, "history var")?);
            let write = read_epoch(r)?;
            r.read_exact(&mut byte)?;
            let reads = match byte[0] {
                0 => ReadsSnapshot::Epoch(read_epoch(r)?),
                1 => {
                    let n = read_len(r, "read vector")?;
                    let mut pairs = Vec::with_capacity(n);
                    for _ in 0..n {
                        let t = ThreadId::new(read_u32(r, "read thread")?);
                        let time = read_u32(r, "read time")?;
                        pairs.push((t, time as LocalTime));
                    }
                    ReadsSnapshot::Vector(pairs)
                }
                other => return Err(corrupt(format!("bad reads tag {other}"))),
            };
            vars.push(VarHistorySnapshot { var, write, reads });
        }

        r.read_exact(&mut byte)?;
        let validator = match byte[0] {
            0 => None,
            1 => {
                let lock_count = read_len(r, "validator locks")?;
                let mut held_by = Vec::with_capacity(lock_count);
                for _ in 0..lock_count {
                    held_by.push(read_opt_tid(r)?);
                }
                let started = read_bits(r)?;
                let forked = read_bits(r)?;
                let joined = read_bits(r)?;
                if forked.len() != started.len() || joined.len() != started.len() {
                    return Err(corrupt(
                        "validator started/forked/joined flag vectors differ in length",
                    ));
                }
                let events = read_varint(r)?;
                Some(ValidatorState {
                    held_by,
                    started,
                    forked,
                    joined,
                    events,
                })
            }
            other => return Err(corrupt(format!("bad validator flag {other}"))),
        };
        r.read_exact(&mut byte)?;
        let interner = match byte[0] {
            0 => None,
            1 => {
                let mut tables = [Vec::new(), Vec::new(), Vec::new()];
                for table in &mut tables {
                    let count = read_len(r, "name table")?;
                    for _ in 0..count {
                        let len = read_len(r, "name")?;
                        if len > 4096 {
                            return Err(corrupt("name is implausibly long"));
                        }
                        let mut buf = vec![0u8; len];
                        r.read_exact(&mut buf)?;
                        table.push(
                            String::from_utf8(buf).map_err(|_| corrupt("name is not UTF-8"))?,
                        );
                    }
                }
                let [threads, locks, vars] = tables;
                Some(InternerState {
                    threads,
                    locks,
                    vars,
                })
            }
            other => return Err(corrupt(format!("bad interner flag {other}"))),
        };

        let total = read_varint(r)?;
        let checks = read_varint(r)?;
        let race_count = read_len(r, "races")?;
        let mut races = Vec::with_capacity(race_count);
        for _ in 0..race_count {
            let var = VarId::new(read_u32(r, "race var")?);
            r.read_exact(&mut byte)?;
            let kind = match byte[0] {
                0 => tc_analysis::RaceKind::WriteWrite,
                1 => tc_analysis::RaceKind::WriteRead,
                2 => tc_analysis::RaceKind::ReadWrite,
                other => return Err(corrupt(format!("unknown race kind {other}"))),
            };
            let prior = read_epoch(r)?;
            let current = read_epoch(r)?;
            races.push(tc_analysis::Race {
                var,
                kind,
                prior,
                current,
            });
        }
        if (races.len() as u64) > total {
            return Err(corrupt("stored races exceed the reported total"));
        }

        Ok(Checkpoint {
            config: DetectorConfig {
                order,
                retire_on_join,
                evict_every,
                recycle_slots,
            },
            backend,
            events,
            emitted,
            polled,
            evicted,
            first_thread,
            started,
            forked,
            engine: EngineState {
                core: CoreState { threads, locks },
                vars: engine_vars,
            },
            vars,
            report: RaceReport {
                races,
                total,
                checks,
            },
            validator,
            interner,
            identity,
        })
    }

    /// Deserializes a checkpoint from a byte buffer.
    ///
    /// # Errors
    ///
    /// See [`read`](Self::read).
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::read(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{DetectorConfig, IncrementalDetector};
    use crate::session::{ClockChoice, Session};
    use tc_core::{ClockPool, TreeClock, VectorClock};
    use tc_trace::TraceBuilder;

    fn sample_detector(order: PartialOrderKind) -> IncrementalDetector<TreeClock> {
        let mut b = TraceBuilder::new();
        b.write(0, "x");
        b.read(1, "x");
        b.read(2, "x"); // concurrent reads: widens a history to Vector
        b.acquire(0, "m").write(0, "y").release(0, "m");
        b.fork(0, 3);
        b.write(3, "y");
        b.join(0, 3);
        let trace = b.finish();
        let mut d = IncrementalDetector::new(DetectorConfig::for_order(order));
        for e in &trace {
            d.feed(e).unwrap();
        }
        d
    }

    #[test]
    fn checkpoint_round_trips_bytes_for_every_order() {
        for order in PartialOrderKind::ALL {
            let d = sample_detector(order);
            let cp = d.checkpoint();
            let bytes = cp.to_bytes();
            let back = Checkpoint::from_bytes(&bytes).unwrap();
            assert_eq!(back, cp, "{order}");
            // Serialization is deterministic.
            assert_eq!(back.to_bytes(), bytes);
        }
    }

    #[test]
    fn restored_detector_continues_identically() {
        let d = sample_detector(PartialOrderKind::Hb);
        let cp = Checkpoint::from_bytes(&d.checkpoint().to_bytes()).unwrap();
        assert_eq!(cp.backend, "tree");
        // Restore into a *different* backend and keep racing on y.
        let mut restored =
            IncrementalDetector::<VectorClock>::from_checkpoint(&cp, ClockPool::new());
        let mut d = d;
        let mut b = TraceBuilder::new();
        b.write(4, "y"); // races with earlier writes in both sessions
        let e = b.finish()[0];
        let live_a: Vec<_> = d.feed(&e).unwrap().to_vec();
        let live_b: Vec<_> = restored.feed(&e).unwrap().to_vec();
        assert_eq!(live_a, live_b);
        assert_eq!(d.report(), restored.report());
        assert_eq!(
            d.timestamp_of(ThreadId::new(4)),
            restored.timestamp_of(ThreadId::new(4))
        );
    }

    #[test]
    fn recycling_checkpoint_round_trips_and_resumes_with_same_slots() {
        // Churn enough that the identity map holds retired entries and
        // a non-empty free queue at checkpoint time, then verify the
        // resumed session reuses exactly the same slots as the
        // uninterrupted one.
        let mut b = TraceBuilder::new();
        for wave in 0..4u32 {
            let u = wave + 1;
            b.fork(0, u).write(u, "x").join(0, u);
        }
        let first_half = b.finish();
        let config = DetectorConfig {
            recycle_slots: true,
            ..DetectorConfig::default()
        };
        let mut d = IncrementalDetector::<TreeClock>::new(config);
        for e in &first_half {
            d.feed(e).unwrap();
        }
        assert!(d.recycled_slots() > 0, "churn must have reused a slot");

        let cp = d.checkpoint();
        let bytes = cp.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.to_bytes(), bytes, "serialization is deterministic");
        assert!(back.identity.is_some(), "identity map must be serialized");
        assert!(back.config.recycle_slots);

        let mut restored = IncrementalDetector::<TreeClock>::from_checkpoint(&cp, ClockPool::new());
        let mut b = TraceBuilder::new();
        for wave in 0..3u32 {
            let u = wave + 5;
            b.fork(0, u).write(u, "x").join(0, u);
        }
        b.write(0, "x");
        for e in &b.finish() {
            let live_a: Vec<_> = d.feed(e).unwrap().to_vec();
            let live_b: Vec<_> = restored.feed(e).unwrap().to_vec();
            assert_eq!(live_a, live_b);
            assert_eq!(d.timestamp_of(e.tid), restored.timestamp_of(e.tid));
        }
        assert_eq!(d.report(), restored.report());
        assert_eq!(d.slot_width(), restored.slot_width());
        assert_eq!(d.recycled_slots(), restored.recycled_slots());
        // Both sessions end in the same identity state, so a second
        // checkpoint from each is byte-identical.
        assert_eq!(d.checkpoint().to_bytes(), restored.checkpoint().to_bytes());
    }

    #[test]
    fn corrupt_checkpoints_are_rejected_with_reasons() {
        let d = sample_detector(PartialOrderKind::Maz);
        let bytes = d.checkpoint().to_bytes();

        let e = Checkpoint::from_bytes(b"NOPE").unwrap_err();
        assert!(e.to_string().contains("magic"), "{e}");

        let mut bad = bytes.clone();
        bad[4] = 9; // version
        assert!(Checkpoint::from_bytes(&bad)
            .unwrap_err()
            .to_string()
            .contains("version"));

        let mut bad = bytes.clone();
        bad[5] = 7; // order tag
        assert!(Checkpoint::from_bytes(&bad)
            .unwrap_err()
            .to_string()
            .contains("order"));

        // Truncation is an I/O error.
        let e = Checkpoint::from_bytes(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(matches!(e, CheckpointError::Io(_)));
    }

    #[test]
    fn detector_flag_vectors_of_different_lengths_are_rejected() {
        // A short `forked` would be indexed past its end by the resumed
        // detector on its first event after an eviction.
        let mut cp = sample_detector(PartialOrderKind::Hb).checkpoint();
        cp.forked.pop();
        let e = Checkpoint::from_bytes(&cp.to_bytes()).unwrap_err();
        assert!(matches!(e, CheckpointError::Corrupt(_)), "{e}");
        assert!(e.to_string().contains("flag vectors"), "{e}");
    }

    #[test]
    fn validator_flag_vectors_of_different_lengths_are_rejected() {
        // A short `joined` would be indexed past its end by the resumed
        // session's validator on its next event.
        let mut session = Session::new(1, ClockChoice::Tree, DetectorConfig::default());
        let mut out = String::new();
        for line in ["t0 fork t1", "t1 w x", "t0 join t1", "t0 w x"] {
            session.handle_line(line, &mut out);
        }
        assert!(out.is_empty(), "{out}");
        let cp = session.checkpoint();
        assert!(Checkpoint::from_bytes(&cp.to_bytes()).is_ok());
        for field in 0..3 {
            let mut bad = cp.clone();
            let v = bad
                .validator
                .as_mut()
                .expect("session checkpoints carry one");
            [&mut v.started, &mut v.forked, &mut v.joined][field].pop();
            let e = Checkpoint::from_bytes(&bad.to_bytes()).unwrap_err();
            assert!(
                matches!(e, CheckpointError::Corrupt(_)),
                "field {field}: {e}"
            );
            assert!(e.to_string().contains("flag vectors"), "{e}");
        }
    }
}
