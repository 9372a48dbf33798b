//! Runners for the paper's Tables 1, 2 and 3.

use tc_orders::{PartialOrderKind, RunMetrics};
use tc_trace::stats::StatsAggregate;
use tc_trace::{Trace, TraceStats};

use crate::render::{count, fnum, TextTable};
use crate::runner::{work_metrics, ClockKind, Comparison, Mode, Speedup, Verdict};
use crate::suite::{suite, Scale};

/// Per-trace results of the full suite sweep: statistics plus one
/// TC/VC comparison for every (partial order, mode) configuration,
/// and the exact (untimed) work metrics per partial order.
#[derive(Clone, Debug)]
pub struct SuiteResult {
    /// The suite entry's name.
    pub name: &'static str,
    /// Statistics of the generated trace.
    pub stats: TraceStats,
    /// Measurements keyed by configuration.
    pub results: Vec<(PartialOrderKind, Mode, Comparison)>,
    /// Exact work counters per partial order: `(order, tree, vector)`.
    pub work: Vec<(PartialOrderKind, RunMetrics, RunMetrics)>,
}

impl SuiteResult {
    /// The comparison for one configuration.
    pub fn get(&self, order: PartialOrderKind, mode: Mode) -> &Comparison {
        self.results
            .iter()
            .find(|(o, m, _)| *o == order && *m == mode)
            .map(|(_, _, c)| c)
            .expect("all configurations are measured")
    }

    /// The exact work metrics for one partial order, `(tree, vector)`.
    pub fn work_of(&self, order: PartialOrderKind) -> (&RunMetrics, &RunMetrics) {
        self.work
            .iter()
            .find(|(o, _, _)| *o == order)
            .map(|(_, t, v)| (t, v))
            .expect("all orders have work metrics")
    }
}

/// Runs the whole suite at `scale`, measuring every configuration.
/// This is the data source for Table 2 and Figures 6–9. `progress` is
/// invoked with each trace's name as it starts (for console feedback).
pub fn run_suite(scale: Scale, mut progress: impl FnMut(&str)) -> Vec<SuiteResult> {
    let mut out = Vec::new();
    for entry in suite() {
        progress(entry.name);
        out.push(measure_trace(entry.name, &entry.generate(scale)));
    }
    out
}

/// Measures every configuration of one trace: [`run_suite`]'s step.
pub(crate) fn measure_trace(name: &'static str, trace: &Trace) -> SuiteResult {
    let mut results = Vec::with_capacity(6);
    let mut work = Vec::with_capacity(3);
    for order in PartialOrderKind::ALL {
        for mode in [Mode::Po, Mode::PoAnalysis] {
            results.push((order, mode, Comparison::measure(trace, order, mode)));
        }
        work.push((
            order,
            work_metrics(trace, order, ClockKind::Tree),
            work_metrics(trace, order, ClockKind::Vector),
        ));
    }
    SuiteResult {
        name,
        stats: trace.stats(),
        results,
        work,
    }
}

/// **Table 1**: aggregate statistics of the benchmark suite (min / max
/// / mean of threads, locks, variables, events and the sync / r-w event
/// percentages).
pub fn table1(stats: &[TraceStats]) -> TextTable {
    let agg = |f: &dyn Fn(&TraceStats) -> f64| StatsAggregate::of(stats.iter().map(f));
    let mut t = TextTable::new(["Statistic", "Min", "Max", "Mean"])
        .with_title("Table 1: trace statistics of the synthetic suite");
    let rows: [(&str, StatsAggregate, bool); 6] = [
        ("Threads", agg(&|s| s.threads as f64), true),
        ("Locks", agg(&|s| s.locks as f64), true),
        ("Variables", agg(&|s| s.vars as f64), true),
        ("Events", agg(&|s| s.events as f64), true),
        ("Sync. Events (%)", agg(&|s| s.sync_pct()), false),
        ("R/W Events (%)", agg(&|s| s.rw_pct()), false),
    ];
    for (name, a, is_count) in rows {
        if is_count {
            t.row([
                name.to_owned(),
                count(a.min as u64),
                count(a.max as u64),
                count(a.mean as u64),
            ]);
        } else {
            t.row([name.to_owned(), fnum(a.min), fnum(a.max), fnum(a.mean)]);
        }
    }
    t
}

/// **Table 2**: average speedup of the tree clock (TC) over the vector
/// clock per partial order, for the PO computation alone and with the
/// analysis on top. A cell reads
/// `mean [low-high] wins/ties/losses`: the mean over the traces of the
/// median speedup, the means of the range ends (`VC_Q1/X_Q3` and
/// `VC_Q3/X_Q1`), and the traces per [`Verdict`].
pub fn table2(results: &[SuiteResult]) -> TextTable {
    let mut t = TextTable::new(["", "MAZ", "SHB", "HB"]).with_title(
        "Table 2: average speedup over vector clocks (VC time / X time); \
         mean [VC_Q1/X_Q3-VC_Q3/X_Q1] wins/ties/losses",
    );
    for mode in [Mode::Po, Mode::PoAnalysis] {
        let mut cells = vec![format!("{} {mode}", ClockKind::Tree)];
        for order in PartialOrderKind::ALL {
            let speedups: Vec<Speedup> = results
                .iter()
                .map(|r| r.get(order, mode).speedup(ClockKind::Tree))
                .collect();
            cells.push(summarize(&speedups));
        }
        t.row(cells);
    }
    t
}

/// One Table 2 cell: the means of the speedups and of their range
/// ends, and the verdict counts.
fn summarize(speedups: &[Speedup]) -> String {
    let mean =
        |f: fn(&Speedup) -> f64| speedups.iter().map(f).sum::<f64>() / speedups.len().max(1) as f64;
    let tally = |v: Verdict| speedups.iter().filter(|s| s.verdict == v).count();
    format!(
        "{} [{}-{}] {}/{}/{}",
        fnum(mean(|s| s.median)),
        fnum(mean(|s| s.low)),
        fnum(mean(|s| s.high)),
        tally(Verdict::Win),
        tally(Verdict::Tie),
        tally(Verdict::Loss)
    )
}

/// **Table 3**: per-benchmark trace information (`N`, `T`, `M`, `L`,
/// plus the sync-event percentage).
pub fn table3(stats: &[(&'static str, TraceStats)]) -> TextTable {
    let mut t = TextTable::new(["Benchmark", "N", "T", "M", "L", "Sync%"])
        .with_title("Table 3: information on the synthetic benchmark traces");
    for (name, s) in stats {
        t.row([
            (*name).to_owned(),
            count(s.events as u64),
            s.threads.to_string(),
            count(s.vars as u64),
            count(s.locks as u64),
            fnum(s.sync_pct()),
        ]);
    }
    t
}

/// Generates the per-trace statistics for Table 1/Table 3 without any
/// timing (cheap; used by the `paper` binary for stats-only runs).
pub fn suite_stats(scale: Scale) -> Vec<(&'static str, TraceStats)> {
    suite()
        .iter()
        .map(|e| (e.name, e.generate(scale).stats()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_aggregates_suite_stats() {
        let stats: Vec<TraceStats> = suite_stats(Scale::Quick)
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        let t = table1(&stats);
        assert_eq!(t.len(), 6);
        let text = t.to_string();
        assert!(text.contains("Threads"));
        assert!(text.contains("Sync. Events (%)"));
    }

    #[test]
    fn table3_lists_every_trace() {
        let stats = suite_stats(Scale::Quick);
        let t = table3(&stats);
        assert_eq!(t.len(), 39);
        assert!(t.to_csv().contains("star-224"));
    }

    #[test]
    fn table2_shape_from_tiny_run() {
        // Use a single tiny entry to keep the test fast.
        let entry = &suite()[10]; // a java-style workload
        let r = measure_trace(entry.name, &entry.generate(Scale::Quick));
        let t = table2(std::slice::from_ref(&r));
        assert_eq!(t.len(), 2);
        let csv = t.to_csv();
        assert!(csv.starts_with(",MAZ,SHB,HB"));
        for (line, label) in ["TC PO", "TC PO+Analysis"].iter().enumerate() {
            let row = csv.lines().nth(line + 1).unwrap();
            assert!(row.starts_with(label), "{row}");
            // Every cell's verdict counts cover the one trace.
            for cell in row.split(',').skip(1) {
                let counts = cell.rsplit(' ').next().unwrap();
                let total: usize = counts.split('/').map(|n| n.parse::<usize>().unwrap()).sum();
                assert_eq!(total, 1, "{cell}");
            }
        }
    }
}
