//! Runners for the paper's Figures 6–10.
//!
//! Each runner produces the figure's data series as a [`TextTable`]
//! whose CSV rendering can be plotted directly; the text rendering is a
//! readable preview of the same series.

use tc_core::{LocalTime, TreeClock, VectorClock};
use tc_orders::{HbEngine, PartialOrderKind, RunMetrics};
use tc_trace::gen::Scenario;

use crate::render::{fnum, TextTable};
use crate::runner::{ClockKind, Comparison, Mode, Speedup};
use crate::suite::Scale;
use crate::tables::SuiteResult;

/// **Figure 6**: per-trace processing times, tree clocks vs vector
/// clocks — six panels (MAZ/SHB/HB × PO/PO+Analysis) flattened into one
/// long table with `panel` as the first column. Each row also carries
/// the trace's thread count and VTWork per event under the panel's
/// order (the dense regime, where a vector clock's sweep has to win,
/// is many entries changed per event at a modest thread count), and
/// the speedup's range and verdict.
pub fn fig6(results: &[SuiteResult]) -> TextTable {
    let mut t = TextTable::new([
        "panel",
        "benchmark",
        "threads",
        "vt_work_per_event",
        "vc_seconds",
        "tc_seconds",
        "speedup",
        "speedup_low",
        "speedup_high",
        "verdict",
    ])
    .with_title("Figure 6: times for processing each trace (TC vs VC, medians)");
    for mode in [Mode::Po, Mode::PoAnalysis] {
        for order in PartialOrderKind::ALL {
            let panel = match mode {
                Mode::Po => order.to_string(),
                Mode::PoAnalysis => format!("{order}+Analysis"),
            };
            for r in results {
                let c = r.get(order, mode);
                let vt_work = r.work_of(order).0.vt_work();
                let mut row = vec![
                    panel.clone(),
                    r.name.to_owned(),
                    r.stats.threads.to_string(),
                    fnum(vt_work as f64 / r.stats.events.max(1) as f64),
                    format!("{:.6}", c.vector.median()),
                    format!("{:.6}", c.tree.median()),
                ];
                row.extend(speedup_cells(c.speedup(ClockKind::Tree)));
                t.row(row);
            }
        }
    }
    t
}

/// A speedup as four cells: median, low, high, verdict.
fn speedup_cells(s: Speedup) -> [String; 4] {
    [
        fnum(s.median),
        fnum(s.low),
        fnum(s.high),
        s.verdict.to_string(),
    ]
}

/// **Figure 7**: speedup of HB+Analysis as a function of the percentage
/// of synchronization events, over the traces whose total time is not
/// negligible.
pub fn fig7(results: &[SuiteResult], min_seconds: f64) -> TextTable {
    let mut t = TextTable::new(["benchmark", "sync_pct", "speedup"])
        .with_title("Figure 7: HB+Analysis speedup vs fraction of synchronization events");
    for r in results {
        let c = r.get(PartialOrderKind::Hb, Mode::PoAnalysis);
        if c.vector.median() + c.tree.median() >= min_seconds {
            t.row([
                r.name.to_owned(),
                fnum(r.stats.sync_pct()),
                fnum(c.speedup(ClockKind::Tree).median),
            ]);
        }
    }
    t
}

/// **Figure 8**: `TCWork/VTWork` vs `VCWork/VTWork` per trace, for HB.
/// Theorem 1 bounds the first ratio by 3; the second grows with the
/// thread count.
pub fn fig8(results: &[SuiteResult]) -> TextTable {
    let mut t = TextTable::new(["benchmark", "vcwork_over_vtwork", "tcwork_over_vtwork"])
        .with_title("Figure 8: work ratios relative to the VTWork lower bound (HB)");
    for r in results {
        let (tree, vector) = r.work_of(PartialOrderKind::Hb);
        t.row([
            r.name.to_owned(),
            fnum(vector.work_ratio()),
            fnum(tree.work_ratio()),
        ]);
    }
    t
}

/// The histogram buckets of Figure 9 (`VCWork/TCWork` ratios).
pub const FIG9_BUCKETS: [f64; 10] = [1.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0];

/// **Figure 9**: histogram of the `VCWork/TCWork` ratio across the
/// suite, one row per bucket, one column per partial order.
pub fn fig9(results: &[SuiteResult]) -> TextTable {
    let mut t = TextTable::new(["bucket", "MAZ", "SHB", "HB"])
        .with_title("Figure 9: histogram of VCWork/TCWork across traces");
    let mut counts = vec![[0u32; 3]; FIG9_BUCKETS.len()];
    for r in results {
        for (col, order) in PartialOrderKind::ALL.iter().enumerate() {
            let (tree, vector) = r.work_of(*order);
            let ratio = vector.ds_work() as f64 / tree.ds_work().max(1) as f64;
            let mut bucket = 0;
            for (i, &b) in FIG9_BUCKETS.iter().enumerate() {
                if ratio >= b {
                    bucket = i;
                }
            }
            counts[bucket][col] += 1;
        }
    }
    for (i, &b) in FIG9_BUCKETS.iter().enumerate() {
        let hi = FIG9_BUCKETS.get(i + 1).copied();
        let label = match hi {
            Some(hi) => format!("[{b:.0},{hi:.0})"),
            None => format!("[{b:.0},∞)"),
        };
        t.row([
            label,
            counts[i][0].to_string(),
            counts[i][1].to_string(),
            counts[i][2].to_string(),
        ]);
    }
    t
}

/// Thread counts swept by Figure 10 (the paper uses 10–360).
pub const FIG10_THREADS: [u32; 7] = [10, 30, 60, 120, 200, 280, 360];

/// Events per Figure 10 trace at each scale (the paper uses 10M).
pub fn fig10_events(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 800_000,
        Scale::Default => 1_000_000,
        Scale::Full => 2_000_000,
    }
}

/// **Figure 10**: HB computation time vs thread count for the four
/// controlled scenarios: the tree's speedup over vector clocks, with
/// its range and verdict.
pub fn fig10(scale: Scale, mut progress: impl FnMut(&str)) -> TextTable {
    let mut t = TextTable::new([
        "scenario",
        "threads",
        "vc_seconds",
        "tc_seconds",
        "tc_speedup",
        "tc_low",
        "tc_high",
        "tc_verdict",
    ])
    .with_title("Figure 10: scalability on controlled communication patterns (HB, medians)");
    let events = fig10_events(scale);
    for s in Scenario::FIG10 {
        for &threads in &FIG10_THREADS {
            progress(&format!("{s}/{threads}"));
            let trace = s.generate(threads, events, 0xF16 + u64::from(threads));
            let c = Comparison::measure(&trace, PartialOrderKind::Hb, Mode::Po);
            let mut row = vec![
                s.to_string(),
                threads.to_string(),
                format!("{:.6}", c.vector.median()),
                format!("{:.6}", c.tree.median()),
            ];
            row.extend(speedup_cells(c.speedup(ClockKind::Tree)));
            t.row(row);
        }
    }
    t
}

/// **Ablation** (beyond the paper): quantifies what each of the two
/// monotonicity principles contributes, by comparing the tree clock
/// against a degraded variant that still uses the tree but never stops
/// a child scan early (no indirect monotonicity) — approximated here by
/// measuring how much of the join work the `break` saves, via work
/// counters on the same traces.
pub fn ablation(scale: Scale) -> TextTable {
    let mut t = TextTable::new([
        "scenario",
        "threads",
        "tc_examined",
        "vt_work",
        "vc_examined",
    ])
    .with_title("Ablation: entries examined by TC joins/copies vs the VTWork bound vs VC");
    let events = fig10_events(scale) / 4;
    for s in Scenario::ALL {
        // The new structured families ride along in the ablation: their
        // hierarchical/bursty communication is exactly where the two
        // monotonicity principles differ most.
        for &threads in &[16u32, 64] {
            let trace = s.generate(threads, events, 77);
            let tc: RunMetrics = HbEngine::<TreeClock>::run_counted(&trace);
            let vc: RunMetrics = HbEngine::<VectorClock>::run_counted(&trace);
            t.row([
                s.to_string(),
                threads.to_string(),
                tc.ds_work().to_string(),
                tc.vt_work().to_string(),
                vc.ds_work().to_string(),
            ]);
        }
    }
    t
}

/// Sanity helper: the largest local time observed in a figure run
/// (exposed for tests that guard against `LocalTime` overflow at the
/// full scale).
pub fn max_local_time(events: usize, threads: u32) -> LocalTime {
    (events as u64 / u64::from(threads.max(1))).min(u64::from(LocalTime::MAX)) as LocalTime
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::suite;
    use crate::tables::measure_trace;
    use std::sync::OnceLock;

    fn tiny_results() -> &'static [SuiteResult] {
        static RESULTS: OnceLock<Vec<SuiteResult>> = OnceLock::new();
        RESULTS.get_or_init(|| {
            let entry = &suite()[20]; // a scenario entry
            vec![measure_trace(entry.name, &entry.generate(Scale::Quick))]
        })
    }

    #[test]
    fn fig6_emits_six_panels_per_trace() {
        let r = tiny_results();
        let t = fig6(r);
        assert_eq!(t.len(), 6);
        let csv = t.to_csv();
        assert!(csv.contains("HB+Analysis"));
        let field = |line, col| crate::render::csv_field::<String>(&csv, line, col).unwrap();
        for line in 2..=7 {
            assert_eq!(field(line, 2), r[0].stats.threads.to_string());
            assert!(
                field(line, 3).parse::<f64>().unwrap() > 0.0,
                "VTWork per event"
            );
            let low: f64 = field(line, 7).parse().unwrap();
            let high: f64 = field(line, 8).parse().unwrap();
            assert!(low <= high, "line {line}: {low} > {high}");
            assert!(["win", "tie", "loss"].contains(&field(line, 9).as_str()));
            assert!(field(line, 5).parse::<f64>().unwrap() > 0.0, "tc seconds");
            assert!(field(line, 6).parse::<f64>().unwrap() > 0.0, "speedup");
        }
    }

    #[test]
    fn fig7_filters_fast_traces() {
        let r = tiny_results();
        assert_eq!(fig7(r, 0.0).len(), 1);
        assert_eq!(fig7(r, f64::INFINITY).len(), 0);
    }

    #[test]
    fn fig8_reports_bounded_tree_ratio() {
        let r = tiny_results();
        let t = fig8(r);
        assert_eq!(t.len(), 1);
        let csv = t.to_csv();
        let ratio: f64 = crate::render::csv_field(&csv, 2, 2)
            .unwrap_or_else(|e| panic!("malformed fig8 CSV: {e}"));
        assert!(ratio <= 3.0, "Theorem 1 violated in fig8: {ratio}");
    }

    #[test]
    fn fig9_buckets_sum_to_suite_size() {
        let r = tiny_results();
        let t = fig9(r);
        assert_eq!(t.len(), FIG9_BUCKETS.len());
        let csv = t.to_csv();
        let total: u32 = (0..FIG9_BUCKETS.len())
            .map(|i| {
                crate::render::csv_field::<u32>(&csv, i + 2, 3)
                    .unwrap_or_else(|e| panic!("malformed fig9 CSV: {e}"))
            })
            .sum();
        assert_eq!(total, 1); // one trace in the HB column
    }

    #[test]
    fn local_times_stay_in_range_at_full_scale() {
        assert!(max_local_time(10_000_000, 10) < LocalTime::MAX);
    }
}
