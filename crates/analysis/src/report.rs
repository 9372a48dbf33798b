//! Race reports: what the analyses found.

use std::fmt;

use tc_core::Epoch;
use tc_trace::VarId;

/// The kind of a conflicting pair, named prior-access → current-access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RaceKind {
    /// An earlier write conflicting with a later write.
    WriteWrite,
    /// An earlier write conflicting with a later read.
    WriteRead,
    /// An earlier read conflicting with a later write.
    ReadWrite,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RaceKind::WriteWrite => "w/w",
            RaceKind::WriteRead => "w/r",
            RaceKind::ReadWrite => "r/w",
        })
    }
}

/// One reported conflicting-concurrent pair.
///
/// Events are identified by their [`Epoch`] — the `(thread, local
/// time)` pair that uniquely names an event of the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Race {
    /// The accessed variable.
    pub var: VarId,
    /// Which kinds of accesses collided.
    pub kind: RaceKind,
    /// The earlier access.
    pub prior: Epoch,
    /// The later access (the event being processed when the race was
    /// found).
    pub current: Epoch,
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} race on {}: {} ↯ {}",
            self.kind, self.var, self.prior, self.current
        )
    }
}

/// Maximum number of races stored verbatim; beyond this only the count
/// grows (racy traces can produce millions of reports).
pub const MAX_STORED_RACES: usize = 10_000;

/// The aggregate result of one analysis run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RaceReport {
    /// Reported pairs, up to [`MAX_STORED_RACES`].
    pub races: Vec<Race>,
    /// Total number of pairs reported (may exceed `races.len()`).
    pub total: u64,
    /// Total number of O(1) concurrency checks performed.
    pub checks: u64,
}

impl RaceReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        RaceReport::default()
    }

    /// Records one found race.
    pub fn record(&mut self, race: Race) {
        self.total += 1;
        if self.races.len() < MAX_STORED_RACES {
            self.races.push(race);
        }
    }

    /// Returns `true` if no race was found.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The stored races found since the caller last looked: the live
    /// emission primitive of the streaming subsystem. A consumer keeps
    /// the count of races it has already emitted and calls this after
    /// each event; beyond [`MAX_STORED_RACES`] only
    /// [`total`](RaceReport::total) keeps counting (a live session
    /// observes the overflow through it).
    pub fn races_since(&self, already_emitted: usize) -> &[Race] {
        &self.races[already_emitted.min(self.races.len())..]
    }

    /// The distinct variables involved in stored races.
    pub fn racy_vars(&self) -> Vec<VarId> {
        let mut vars: Vec<VarId> = self.races.iter().map(|r| r.var).collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} race(s) found ({} checks performed)",
            self.total, self.checks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::ThreadId;

    fn race(var: u32, t1: u32, c1: u32, t2: u32, c2: u32) -> Race {
        Race {
            var: VarId::new(var),
            kind: RaceKind::WriteWrite,
            prior: Epoch::new(ThreadId::new(t1), c1),
            current: Epoch::new(ThreadId::new(t2), c2),
        }
    }

    #[test]
    fn report_records_and_counts() {
        let mut r = RaceReport::new();
        assert!(r.is_empty());
        r.record(race(0, 0, 1, 1, 1));
        r.record(race(2, 0, 1, 1, 2));
        r.record(race(0, 0, 2, 1, 3));
        assert_eq!(r.total, 3);
        assert_eq!(r.races.len(), 3);
        assert_eq!(r.racy_vars(), vec![VarId::new(0), VarId::new(2)]);
    }

    #[test]
    fn reports_stop_storing_past_the_cap_but_keep_counting() {
        let mut capped = RaceReport::new();
        for i in 0..(MAX_STORED_RACES as u32 + 5) {
            capped.record(race(i, 0, i + 1, 1, i + 1));
        }
        assert_eq!(capped.races.len(), MAX_STORED_RACES);
        assert_eq!(capped.total, MAX_STORED_RACES as u64 + 5);
    }

    #[test]
    fn race_display_is_informative() {
        let s = race(1, 0, 3, 2, 7).to_string();
        assert!(s.contains("w/w"));
        assert!(s.contains("x1"));
        assert!(s.contains("3@t0"));
        assert!(s.contains("7@t2"));
    }

    #[test]
    fn kinds_render_distinctly() {
        assert_eq!(RaceKind::WriteWrite.to_string(), "w/w");
        assert_eq!(RaceKind::WriteRead.to_string(), "w/r");
        assert_eq!(RaceKind::ReadWrite.to_string(), "r/w");
    }
}
