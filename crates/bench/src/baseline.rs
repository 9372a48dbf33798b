//! The `tcr bench` engine grid: hot-path cost per *(scenario × threads)
//! × partial order × clock backend* cell.
//!
//! Every record carries:
//!
//! - `seconds` — mean wall time over [`REPETITIONS`](crate::runner::REPETITIONS) pooled runs,
//!   after one untimed warm-up repetition that grows the clock buffers
//!   (the timed runs are allocation-free, so the mean reflects steady
//!   state);
//! - `joins` / `copies` — operation counts;
//! - `vt_work` / `ds_work` — the paper's Section 4 work metrics;
//! - `peak_clock_bytes` — heap owned by the engine's clocks after the
//!   run (clocks only grow, so the value after a run is the run's peak);
//! - `pool_fresh` / `pool_recycled` — the cell's [`ClockPool`] traffic
//!   counters: in steady state `pool_fresh` stays at the cold-start
//!   count and everything else recycles.
//!
//! The core scenario set is the paper's Figure 10 quartet (single-lock,
//! skewed-locks, star, pairwise), where the TC-vs-VC comparison is
//! controlled and reproducible; the *full* scale additionally folds in
//! the structured workload families at a budgeted size, so
//! access-heavy workloads appear in the grid too.

use tc_core::{ClockPool, HybridClock, LogicalClock, TreeClock, VectorClock};
use tc_orders::{HbEngine, MazEngine, PartialOrderKind, RunMetrics, ShbEngine};
use tc_trace::gen::Scenario;
use tc_trace::Trace;

use crate::runner::{measure_clock, ClockKind, Mode};

/// One measured cell of the grid.
#[derive(Clone, Debug)]
pub struct BaselineRecord {
    /// Scenario (or trace file) name.
    pub scenario: String,
    /// Thread count of the generated trace.
    pub threads: u32,
    /// Event count of the generated trace.
    pub events: usize,
    /// The partial order computed.
    pub order: PartialOrderKind,
    /// The clock representation used.
    pub backend: ClockKind,
    /// Mean wall-clock seconds over the pooled repetitions.
    pub seconds: f64,
    /// Join operations performed.
    pub joins: u64,
    /// Copy operations performed.
    pub copies: u64,
    /// The representation-independent work lower bound.
    pub vt_work: u64,
    /// Entries touched by the concrete data structure.
    pub ds_work: u64,
    /// Heap bytes owned by the engine's clocks after the run.
    pub peak_clock_bytes: usize,
    /// Clock-pool acquires served by a fresh allocation across the
    /// cell's runs (warm-up + timed repetitions + counted run).
    pub pool_fresh: u64,
    /// Clock-pool acquires served from the free list.
    pub pool_recycled: u64,
}

/// The shape of one grid collection: which scenarios to run and at
/// what event budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BaselineScale {
    /// Thread counts of the FIG10 grid. High enough that the tree
    /// clock's sublinear operations can dominate its pointer-chasing
    /// overhead (the paper's Figure 10 sweeps 10–360).
    pub threads: &'static [u32],
    /// Events per FIG10 trace.
    pub events: usize,
    /// Also measure the structured workload families.
    pub families: bool,
    /// Thread count of the family traces.
    pub family_threads: u32,
    /// Events per family trace — the per-record runtime budget (family
    /// traces are access-heavy, so they run at a smaller event count
    /// than the sync-only FIG10 quartet to keep each record's
    /// warm-up + 3 timed + 1 counted runs well under a second).
    pub family_events: usize,
}

impl BaselineScale {
    /// The default scale: two thread counts, full-length FIG10 traces.
    pub fn default_scale() -> Self {
        BaselineScale {
            threads: &[128, 360],
            events: 100_000,
            families: false,
            family_threads: 64,
            family_events: 40_000,
        }
    }

    /// The broad scale: the default grid plus the structured families
    /// at their budgeted size.
    pub fn full() -> Self {
        BaselineScale {
            families: true,
            ..BaselineScale::default_scale()
        }
    }
}

/// Runs the grid at `scale`: FIG10 scenarios (and, at full scale, the
/// structured families) × HB/SHB/MAZ × tree/vector/hybrid. `progress`
/// is called before each scenario×threads cell.
pub fn collect(scale: BaselineScale, mut progress: impl FnMut(&str)) -> Vec<BaselineRecord> {
    let mut records = Vec::new();
    for scenario in Scenario::FIG10 {
        for &threads in scale.threads {
            progress(&format!("{scenario}/{threads}"));
            let trace = scenario.generate(threads, scale.events, 0xBE2C + u64::from(threads));
            collect_trace_into(&scenario.to_string(), &trace, &mut records);
        }
    }
    if scale.families {
        for scenario in Scenario::ALL {
            if Scenario::FIG10.contains(&scenario) {
                continue;
            }
            let threads = scale.family_threads.max(scenario.min_threads());
            progress(&format!("{scenario}/{threads}"));
            let trace =
                scenario.generate(threads, scale.family_events, 0xFA31 + u64::from(threads));
            collect_trace_into(&scenario.to_string(), &trace, &mut records);
        }
    }
    records
}

/// Measures a single (already loaded) trace across every order ×
/// backend — the `tcr bench --trace FILE` path.
pub fn collect_trace(name: &str, trace: &Trace) -> Vec<BaselineRecord> {
    let mut records = Vec::new();
    collect_trace_into(name, trace, &mut records);
    records
}

fn collect_trace_into(name: &str, trace: &Trace, records: &mut Vec<BaselineRecord>) {
    for order in PartialOrderKind::ALL {
        records.push(record_for::<TreeClock>(name, trace, order, ClockKind::Tree));
        records.push(record_for::<VectorClock>(
            name,
            trace,
            order,
            ClockKind::Vector,
        ));
        records.push(record_for::<HybridClock>(
            name,
            trace,
            order,
            ClockKind::Hybrid,
        ));
    }
}

fn record_for<C: LogicalClock>(
    name: &str,
    trace: &Trace,
    order: PartialOrderKind,
    backend: ClockKind,
) -> BaselineRecord {
    let mut pool = ClockPool::<C>::new();
    let timed = measure_clock::<C>(trace, order, Mode::Po, &mut pool);
    let (metrics, peak_clock_bytes) = counted_run::<C>(trace, order, &mut pool);
    BaselineRecord {
        scenario: name.to_owned(),
        threads: trace.thread_count() as u32,
        events: trace.len(),
        order,
        backend,
        seconds: timed.seconds,
        joins: metrics.joins,
        copies: metrics.copies,
        vt_work: metrics.vt_work(),
        ds_work: metrics.ds_work(),
        peak_clock_bytes,
        pool_fresh: pool.fresh(),
        pool_recycled: pool.recycled(),
    }
}

/// An instrumented run that also reports the engine's final clock
/// footprint (the timed path cannot: `run_pooled` tears the engine
/// down).
fn counted_run<C: LogicalClock>(
    trace: &Trace,
    order: PartialOrderKind,
    pool: &mut ClockPool<C>,
) -> (RunMetrics, usize) {
    match order {
        PartialOrderKind::Hb => {
            let mut e = HbEngine::<C>::with_pool(trace, std::mem::take(pool));
            for ev in trace {
                e.process_counted(ev);
            }
            let result = (*e.metrics(), e.clock_bytes());
            *pool = e.into_pool();
            result
        }
        PartialOrderKind::Shb => {
            let mut e = ShbEngine::<C>::with_pool(trace, std::mem::take(pool));
            for ev in trace {
                e.process_counted(ev);
            }
            let result = (*e.metrics(), e.clock_bytes());
            *pool = e.into_pool();
            result
        }
        PartialOrderKind::Maz => {
            let mut e = MazEngine::<C>::with_pool(trace, std::mem::take(pool));
            for ev in trace {
                e.process_counted(ev);
            }
            let result = (*e.metrics(), e.clock_bytes());
            *pool = e.into_pool();
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_trace::gen::scenarios;

    #[test]
    fn records_carry_consistent_work_metrics() {
        let trace = scenarios::pairwise(6, 1_500, 2);
        for r in collect_trace("pairwise-tiny", &trace) {
            assert!(r.ds_work >= r.vt_work, "entries touched >= entries changed");
            assert!(r.vt_work > 0);
            assert!(r.events == trace.len());
            assert!(r.peak_clock_bytes > 0);
            assert!(
                r.pool_fresh > 0,
                "the cold run must have allocated its clocks"
            );
            assert!(
                r.pool_recycled >= 4 * r.pool_fresh / 2,
                "{}/{:?}: repeated pooled runs must recycle (fresh {}, recycled {})",
                r.order,
                r.backend,
                r.pool_fresh,
                r.pool_recycled
            );
            if r.backend == ClockKind::Tree {
                assert!(
                    r.ds_work <= 3 * r.vt_work,
                    "{}/{:?}: Theorem 1 must hold in the grid too",
                    r.order,
                    r.backend
                );
            }
        }
    }

    #[test]
    fn vt_work_is_identical_across_all_three_backends() {
        let trace = scenarios::single_lock(5, 1_200, 3);
        let records = collect_trace("single-lock-tiny", &trace);
        for order in PartialOrderKind::ALL {
            let per_order: Vec<_> = records.iter().filter(|r| r.order == order).collect();
            assert_eq!(per_order.len(), 3);
            assert!(
                per_order.windows(2).all(|w| w[0].vt_work == w[1].vt_work),
                "{order}: VTWork must be representation independent"
            );
        }
    }

    #[test]
    fn full_scale_covers_the_structured_families() {
        let scale = BaselineScale::full();
        assert!(scale.families);
        assert_eq!(scale.threads, BaselineScale::default_scale().threads);
        // The family grid adds exactly the six non-FIG10 scenarios
        // (the five structured families plus spawn/join churn).
        let non_fig10 = Scenario::ALL
            .into_iter()
            .filter(|s| !Scenario::FIG10.contains(s))
            .count();
        assert_eq!(non_fig10, 6);
    }
}
