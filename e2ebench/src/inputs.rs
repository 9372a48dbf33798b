//! The load generator's inputs, all derived from the workload seed:
//! the Fig. 10 batch traces and the per-session service traces. The
//! program under test only ever sees these generated events.

use tc_analysis::{HbRaceDetector, MazAnalyzer, ShbRaceDetector};
use tc_core::VectorClock;
use tc_orders::PartialOrderKind;
use tc_trace::gen::{pairwise, star, WorkloadSpec};
use tc_trace::{Event, Trace};

/// Threads of the batch traces (the paper's largest Fig. 10 width).
pub const BATCH_THREADS: u32 = 360;

/// Sessions one client connection fans into on the service workloads.
pub const SESSIONS: usize = 64;

/// What each session opens with, cycled by session index.
pub const OPENS: [&str; 4] = ["hb tc", "shb tc", "maz tc", "hb hc"];

/// The Fig. 10c star trace at [`BATCH_THREADS`].
pub fn star_trace(seed: u64, events: usize) -> Trace {
    star(BATCH_THREADS, events, seed)
}

/// The Fig. 10d pairwise trace at [`BATCH_THREADS`].
pub fn pairwise_trace(seed: u64, events: usize) -> Trace {
    pairwise(BATCH_THREADS, events, seed)
}

/// One session's input: its `open` arguments and its event stream.
pub struct SessionInput {
    pub open: &'static str,
    pub trace: Trace,
}

impl SessionInput {
    pub fn order(&self) -> PartialOrderKind {
        self.open
            .split_whitespace()
            .next()
            .and_then(|o| o.parse().ok())
            .expect("OPENS entries name an order")
    }
}

/// `count` sessions of exactly `events` each, in the ingest
/// benchmark's shape: 8 threads, 4 locks, 64 variables, 10 % sync,
/// half the accesses shared. Each session's trace has its own seed
/// derived from `seed`.
pub fn session_inputs(seed: u64, count: usize, events: usize) -> Vec<SessionInput> {
    (0..count)
        .map(|i| {
            // The generator's length is approximate; cut it to size.
            let full = WorkloadSpec {
                threads: 8,
                locks: 4,
                vars: 64,
                events: events + events / 8 + 16,
                sync_ratio: 0.1,
                shared_fraction: 0.5,
                seed: mix(seed, i as u64),
                ..WorkloadSpec::default()
            }
            .generate();
            assert!(full.len() >= events, "generator came up short");
            SessionInput {
                open: OPENS[i % OPENS.len()],
                trace: full.events()[..events].iter().copied().collect(),
            }
        })
        .collect()
}

/// A splitmix64 step: decorrelates per-session seeds.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The reference for one session: the batch detector for its order on
/// the vector-clock backend, fed incrementally so a running total is
/// available after every round.
pub enum Reference {
    Hb(HbRaceDetector<VectorClock>),
    Shb(ShbRaceDetector<VectorClock>),
    Maz(MazAnalyzer<VectorClock>),
}

impl Reference {
    /// A detector sized for `trace` (which may run past the events fed).
    pub fn new(order: PartialOrderKind, trace: &Trace) -> Reference {
        match order {
            PartialOrderKind::Hb => Reference::Hb(HbRaceDetector::new(trace)),
            PartialOrderKind::Shb => Reference::Shb(ShbRaceDetector::new(trace)),
            PartialOrderKind::Maz => Reference::Maz(MazAnalyzer::new(trace)),
        }
    }

    pub fn feed(&mut self, events: &[Event]) {
        for e in events {
            match self {
                Reference::Hb(d) => d.process(e),
                Reference::Shb(d) => d.process(e),
                Reference::Maz(d) => d.process(e),
            }
        }
    }

    /// Races found in the events fed so far.
    pub fn total(&self) -> u64 {
        match self {
            Reference::Hb(d) => d.report().total,
            Reference::Shb(d) => d.report().total,
            Reference::Maz(d) => d.report().total,
        }
    }
}

/// The reference race total for `order` on all of `trace`.
pub fn reference_races(order: PartialOrderKind, trace: &Trace) -> u64 {
    let mut r = Reference::new(order, trace);
    r.feed(trace.events());
    r.total()
}
