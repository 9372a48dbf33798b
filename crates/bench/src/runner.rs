//! Timing runner: measures partial-order computation (and optionally
//! the analysis on top) for one trace, one partial order and one clock
//! representation. Every measurement keeps its [`REPETITIONS`] timed
//! runs and reports their median and quartiles, so each speedup comes
//! with the range its spread allows.

use std::fmt;
use std::time::Instant;

use tc_analysis::{HbRaceDetector, MazAnalyzer, ShbRaceDetector};
use tc_core::{ClockPool, LogicalClock, TreeClock, VectorClock};
use tc_orders::{HbEngine, MazEngine, PartialOrderKind, RunMetrics, ShbEngine};
use tc_trace::Trace;

/// Which clock data structure to run with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ClockKind {
    /// The paper's tree clock.
    Tree,
    /// The flat vector clock baseline.
    Vector,
}

impl ClockKind {
    /// Every representation, tree first.
    pub const ALL: [ClockKind; 2] = [ClockKind::Tree, ClockKind::Vector];
}

impl fmt::Display for ClockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ClockKind::Tree => "TC",
            ClockKind::Vector => "VC",
        })
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

/// Timed repetitions per measurement, after one untimed warm-up. The
/// paper averaged 3 runs. Five is the fewest whose nearest-rank
/// quartiles (the 2nd and 4th run) are neither the fastest nor the
/// slowest run, so no single outlier sets a cell's spread.
pub const REPETITIONS: usize = 5;

/// The result of one timed configuration.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Wall-clock seconds of each timed repetition, fastest first.
    pub seconds: [f64; REPETITIONS],
    /// Work metrics of the (last) run — identical across repetitions.
    pub metrics: RunMetrics,
    /// Races / reversible pairs found (0 in [`Mode::Po`]).
    pub findings: u64,
}

impl Measurement {
    /// The median time (nearest rank: the 3rd of 5 runs).
    pub fn median(&self) -> f64 {
        nearest_rank(&self.seconds, 0.5)
    }

    /// The lower quartile (nearest rank: the 2nd of 5 runs).
    pub fn q1(&self) -> f64 {
        nearest_rank(&self.seconds, 0.25)
    }

    /// The upper quartile (nearest rank: the 4th of 5 runs).
    pub fn q3(&self) -> f64 {
        nearest_rank(&self.seconds, 0.75)
    }
}

/// The `p`-quantile of ascending `sorted` by nearest rank: the
/// `⌈p·n⌉`-th smallest of `n` values.
pub(crate) fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How a representation's times compare with the vector clock's.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Its Q3 is below the vector clock's Q1.
    Win,
    /// The two Q1–Q3 ranges overlap.
    Tie,
    /// Its Q1 is above the vector clock's Q3.
    Loss,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Win => "win",
            Verdict::Tie => "tie",
            Verdict::Loss => "loss",
        })
    }
}

/// One representation's speedup over the vector clock (`VC time / X
/// time`), with the range its quartiles allow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Speedup {
    /// `VC median / X median`.
    pub median: f64,
    /// `VC_Q1 / X_Q3`: the lowest ratio inside both spreads.
    pub low: f64,
    /// `VC_Q3 / X_Q1`: the highest ratio inside both spreads.
    pub high: f64,
    /// Whether X's Q1–Q3 range lies below, across or above the vector
    /// clock's.
    pub verdict: Verdict,
}

impl Speedup {
    /// The speedup of `x` over `vector`.
    pub fn over(vector: &Measurement, x: &Measurement) -> Speedup {
        let ratio = |vc: f64, x: f64| vc / x.max(1e-12);
        let verdict = if x.q3() < vector.q1() {
            Verdict::Win
        } else if x.q1() > vector.q3() {
            Verdict::Loss
        } else {
            Verdict::Tie
        };
        Speedup {
            median: ratio(vector.median(), x.median()),
            low: ratio(vector.q1(), x.q3()),
            high: ratio(vector.q3(), x.q1()),
            verdict,
        }
    }
}

fn time_runs(mut run: impl FnMut() -> (RunMetrics, u64)) -> Measurement {
    // One untimed warm-up repetition absorbs the cold costs — clock
    // allocations (the pooled runs reuse them afterwards), page faults,
    // cold caches — so the timed repetitions all measure steady state.
    let mut last = run();
    let mut seconds = [0.0; REPETITIONS];
    for s in &mut seconds {
        let start = Instant::now();
        last = run();
        *s = start.elapsed().as_secs_f64();
    }
    seconds.sort_by(f64::total_cmp);
    Measurement {
        seconds,
        metrics: last.0,
        findings: last.1,
    }
}

/// Times one configuration over `trace`.
///
/// Each configuration gets a private [`ClockPool`] shared by an
/// untimed warm-up repetition and the [`REPETITIONS`] timed ones: the
/// warm-up grows the clock buffers, the timed runs are allocation-free
/// — so the numbers reflect steady-state cost, as a long-running
/// service would see it.
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
    }
}

/// [`measure`] for a statically chosen clock representation, drawing
/// clocks from (and returning them to) `pool`.
fn measure_clock<C: LogicalClock>(
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
    }
}

/// Both representations measured on one configuration.
#[derive(Clone, Copy, Debug)]
pub struct Comparison {
    /// The tree-clock measurement.
    pub tree: Measurement,
    /// The vector-clock measurement.
    pub vector: Measurement,
}

impl Comparison {
    /// Measures every representation on the same trace/order/mode.
    pub fn measure(trace: &Trace, order: PartialOrderKind, mode: Mode) -> Comparison {
        Comparison {
            tree: measure(trace, order, ClockKind::Tree, mode),
            vector: measure(trace, order, ClockKind::Vector, mode),
        }
    }

    /// `clock`'s speedup over the vector clock; the paper's headline
    /// number for [`ClockKind::Tree`].
    pub fn speedup(&self, clock: ClockKind) -> Speedup {
        let x = match clock {
            ClockKind::Tree => &self.tree,
            ClockKind::Vector => &self.vector,
        };
        Speedup::over(&self.vector, x)
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
                    assert!(m.seconds.windows(2).all(|w| w[0] <= w[1]));
                    assert!(m.q1() <= m.median() && m.median() <= m.q3());
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
    fn quartiles_ranges_and_verdicts_on_hand_made_samples() {
        let m = |seconds| Measurement {
            seconds,
            metrics: RunMetrics::new(),
            findings: 0,
        };
        let vc = m([1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((vc.q1(), vc.median(), vc.q3()), (2.0, 3.0, 4.0));
        assert_eq!(nearest_rank(&[7.0], 0.25), 7.0);

        let faster = Speedup::over(&vc, &m([0.5, 1.0, 1.5, 1.9, 9.0]));
        assert_eq!(
            (faster.low, faster.median, faster.high),
            (2.0 / 1.9, 2.0, 4.0)
        );
        assert_eq!(faster.verdict, Verdict::Win);

        // Ranges that touch or overlap are ties, whichever median wins.
        let touching = Speedup::over(&vc, &m([0.1, 1.0, 1.5, 2.0, 2.0]));
        assert_eq!((touching.low, touching.high), (1.0, 4.0));
        assert_eq!(touching.verdict, Verdict::Tie);
        let overlap = Speedup::over(&vc, &m([3.0, 3.5, 4.0, 4.5, 5.0]));
        assert!(overlap.median < 1.0);
        assert_eq!(overlap.verdict, Verdict::Tie);

        let slower = Speedup::over(&vc, &m([0.1, 4.5, 5.0, 8.0, 8.0]));
        assert_eq!(
            (slower.low, slower.median, slower.high),
            (0.25, 0.6, 4.0 / 4.5)
        );
        assert_eq!(slower.verdict, Verdict::Loss);
    }

    #[test]
    fn records_carry_consistent_work_metrics() {
        let trace = scenarios::pairwise(6, 1_500, 2);
        for order in PartialOrderKind::ALL {
            for clock in ClockKind::ALL {
                let m = work_metrics(&trace, order, clock);
                assert_eq!(m.events, trace.len() as u64);
                assert!(m.vt_work() > 0);
                assert!(
                    m.ds_work() >= m.vt_work(),
                    "{order}/{clock}: entries touched >= entries changed"
                );
                if clock == ClockKind::Tree {
                    assert!(m.ds_work() <= 3 * m.vt_work(), "{order}: Theorem 1");
                }
            }
        }
    }

    #[test]
    fn vt_work_is_identical_across_both_backends() {
        let trace = scenarios::single_lock(5, 1_200, 3);
        for order in PartialOrderKind::ALL {
            let vt_work = ClockKind::ALL.map(|clock| work_metrics(&trace, order, clock).vt_work());
            assert!(
                vt_work.windows(2).all(|w| w[0] == w[1]),
                "{order}: VTWork must be representation independent"
            );
        }
    }
}
