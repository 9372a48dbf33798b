//! Timing runner: measures partial-order computation (and optionally
//! the analysis on top) for one trace, one partial order and one clock
//! representation, following the paper's protocol (three repetitions,
//! averaged).

use std::fmt;
use std::str::FromStr;
use std::time::Instant;

use tc_analysis::{HbRaceDetector, MazAnalyzer, ShbRaceDetector};
use tc_core::{ClockPool, HybridClock, LogicalClock, TreeClock, VectorClock};
use tc_orders::{HbEngine, MazEngine, PartialOrderKind, RunMetrics, ShbEngine};
use tc_trace::Trace;

/// Which clock data structure to run with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ClockKind {
    /// The paper's tree clock.
    Tree,
    /// The flat vector clock baseline.
    Vector,
    /// The adaptive flat/tree hybrid.
    Hybrid,
}

impl ClockKind {
    /// Every representation, tree first.
    pub const ALL: [ClockKind; 3] = [ClockKind::Tree, ClockKind::Vector, ClockKind::Hybrid];

    /// The stable lowercase name used in CLI output.
    pub fn name(self) -> &'static str {
        match self {
            ClockKind::Tree => "tree",
            ClockKind::Vector => "vector",
            ClockKind::Hybrid => "hybrid",
        }
    }
}

impl fmt::Display for ClockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ClockKind::Tree => "TC",
            ClockKind::Vector => "VC",
            ClockKind::Hybrid => "HC",
        })
    }
}

impl FromStr for ClockKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "tc" | "tree" => Ok(ClockKind::Tree),
            "vc" | "vector" => Ok(ClockKind::Vector),
            "hc" | "hybrid" => Ok(ClockKind::Hybrid),
            other => Err(format!("unknown clock `{other}` (tc, vc, hc)")),
        }
    }
}

/// What to measure: the partial order alone, or with the analysis
/// component on top (the two rows of the paper's Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Partial-order computation only.
    Po,
    /// Partial order plus concurrency analysis (race detection /
    /// reversible pairs).
    PoAnalysis,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Mode::Po => "PO",
            Mode::PoAnalysis => "PO+Analysis",
        })
    }
}

/// The result of one timed run.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Mean wall-clock seconds over the repetitions.
    pub seconds: f64,
    /// Work metrics of the (last) run — identical across repetitions.
    pub metrics: RunMetrics,
    /// Races / reversible pairs found (0 in [`Mode::Po`]).
    pub findings: u64,
}

/// Number of timed repetitions, as in the paper ("every measurement was
/// repeated 3 times and the average time was reported").
pub const REPETITIONS: u32 = 3;

fn time_runs(mut run: impl FnMut() -> (RunMetrics, u64)) -> Measurement {
    // One untimed warm-up repetition absorbs the cold costs — clock
    // allocations (the pooled runs reuse them afterwards), page faults,
    // cold caches — so the timed repetitions all measure steady state.
    let mut last = run();
    let mut total = 0.0;
    for _ in 0..REPETITIONS {
        let start = Instant::now();
        last = run();
        total += start.elapsed().as_secs_f64();
    }
    Measurement {
        seconds: total / f64::from(REPETITIONS),
        metrics: last.0,
        findings: last.1,
    }
}

/// Times one configuration over `trace`.
///
/// Each configuration gets a private [`ClockPool`] shared by an
/// untimed warm-up repetition and the [`REPETITIONS`] timed ones: the
/// warm-up grows the clock buffers, the timed runs are allocation-free
/// — so the averaged number reflects steady-state cost, as a
/// long-running service would see it.
pub fn measure(
    trace: &Trace,
    order: PartialOrderKind,
    clock: ClockKind,
    mode: Mode,
) -> Measurement {
    match clock {
        ClockKind::Tree => measure_clock::<TreeClock>(trace, order, mode, &mut ClockPool::new()),
        ClockKind::Vector => {
            measure_clock::<VectorClock>(trace, order, mode, &mut ClockPool::new())
        }
        ClockKind::Hybrid => {
            measure_clock::<HybridClock>(trace, order, mode, &mut ClockPool::new())
        }
    }
}

/// [`measure`] for a statically chosen clock representation, drawing
/// clocks from (and returning them to) `pool`.
pub fn measure_clock<C: LogicalClock>(
    trace: &Trace,
    order: PartialOrderKind,
    mode: Mode,
    pool: &mut ClockPool<C>,
) -> Measurement {
    match (order, mode) {
        (PartialOrderKind::Hb, Mode::Po) => {
            time_runs(|| (HbEngine::<C>::run_pooled(trace, pool), 0))
        }
        (PartialOrderKind::Shb, Mode::Po) => {
            time_runs(|| (ShbEngine::<C>::run_pooled(trace, pool), 0))
        }
        (PartialOrderKind::Maz, Mode::Po) => {
            time_runs(|| (MazEngine::<C>::run_pooled(trace, pool), 0))
        }
        (PartialOrderKind::Hb, Mode::PoAnalysis) => time_runs(|| {
            let (metrics, report) = HbRaceDetector::<C>::run_pooled(trace, pool);
            (metrics, report.total)
        }),
        (PartialOrderKind::Shb, Mode::PoAnalysis) => time_runs(|| {
            let (metrics, report) = ShbRaceDetector::<C>::run_pooled(trace, pool);
            (metrics, report.total)
        }),
        (PartialOrderKind::Maz, Mode::PoAnalysis) => time_runs(|| {
            let (metrics, report) = MazAnalyzer::<C>::run_pooled(trace, pool);
            (metrics, report.total)
        }),
    }
}

/// Computes exact work metrics (VTWork / TCWork / VCWork counters) for
/// one configuration, via the instrumented engine paths. Not timed —
/// instrumentation perturbs running time, so this is always a separate
/// pass from [`measure`].
pub fn work_metrics(trace: &Trace, order: PartialOrderKind, clock: ClockKind) -> RunMetrics {
    fn counted<C: LogicalClock>(trace: &Trace, order: PartialOrderKind) -> RunMetrics {
        match order {
            PartialOrderKind::Hb => HbEngine::<C>::run_counted(trace),
            PartialOrderKind::Shb => ShbEngine::<C>::run_counted(trace),
            PartialOrderKind::Maz => MazEngine::<C>::run_counted(trace),
        }
    }
    match clock {
        ClockKind::Tree => counted::<TreeClock>(trace, order),
        ClockKind::Vector => counted::<VectorClock>(trace, order),
        ClockKind::Hybrid => counted::<HybridClock>(trace, order),
    }
}

/// A TC-vs-VC pair of measurements for one configuration.
#[derive(Clone, Copy, Debug)]
pub struct Comparison {
    /// The tree-clock measurement.
    pub tree: Measurement,
    /// The vector-clock measurement.
    pub vector: Measurement,
}

impl Comparison {
    /// Measures both representations on the same trace/order/mode.
    pub fn measure(trace: &Trace, order: PartialOrderKind, mode: Mode) -> Comparison {
        Comparison {
            tree: measure(trace, order, ClockKind::Tree, mode),
            vector: measure(trace, order, ClockKind::Vector, mode),
        }
    }

    /// The paper's headline number: `VC time / TC time`.
    pub fn speedup(&self) -> f64 {
        self.vector.seconds / self.tree.seconds.max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_trace::gen::scenarios;

    #[test]
    fn measure_covers_all_configurations() {
        let trace = scenarios::star(6, 600, 1);
        for order in PartialOrderKind::ALL {
            for clock in ClockKind::ALL {
                for mode in [Mode::Po, Mode::PoAnalysis] {
                    let m = measure(&trace, order, clock, mode);
                    assert!(m.seconds >= 0.0);
                    assert_eq!(m.metrics.events, trace.len() as u64);
                }
            }
        }
    }

    #[test]
    fn findings_are_zero_in_po_mode_and_equal_across_clocks() {
        let trace = {
            let mut b = tc_trace::TraceBuilder::new();
            b.write(0, "x").write(1, "x");
            b.finish()
        };
        let po = Comparison::measure(&trace, PartialOrderKind::Hb, Mode::Po);
        assert_eq!(po.tree.findings, 0);
        let an = Comparison::measure(&trace, PartialOrderKind::Hb, Mode::PoAnalysis);
        assert_eq!(an.tree.findings, 1);
        assert_eq!(an.tree.findings, an.vector.findings);
    }

    #[test]
    fn clock_kind_parses() {
        assert_eq!("tc".parse::<ClockKind>().unwrap(), ClockKind::Tree);
        assert_eq!("vector".parse::<ClockKind>().unwrap(), ClockKind::Vector);
        assert_eq!("hc".parse::<ClockKind>().unwrap(), ClockKind::Hybrid);
        assert_eq!("hybrid".parse::<ClockKind>().unwrap(), ClockKind::Hybrid);
        assert!("quartz".parse::<ClockKind>().is_err());
    }
}
