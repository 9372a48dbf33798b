//! Streaming-vs-batch equivalence: the incremental detector fed one
//! event at a time must produce reports and per-event/final timestamps
//! identical to the batch engines — across all 9 scenario families, the
//! racy mixed workloads, all 3 clock backends and all 3 partial orders
//! — and a checkpoint/restore mid-trace must change nothing.

use proptest::prelude::*;

use tc_analysis::{HbRaceDetector, MazAnalyzer, RaceReport, ShbRaceDetector};
use tc_core::{ClockPool, LogicalClock, TreeClock, VectorClock, VectorTime};
use tc_orders::{HbEngine, MazEngine, PartialOrderKind, ShbEngine};
use tc_stream::{Checkpoint, DetectorConfig, IncrementalDetector};
use tc_trace::gen::{Scenario, WorkloadSpec};
use tc_trace::Trace;

fn batch_reference<C: LogicalClock>(
    trace: &Trace,
    order: PartialOrderKind,
) -> (Vec<VectorTime>, RaceReport) {
    let timestamps = match order {
        PartialOrderKind::Hb => HbEngine::<C>::collect_timestamps(trace),
        PartialOrderKind::Shb => ShbEngine::<C>::collect_timestamps(trace),
        PartialOrderKind::Maz => MazEngine::<C>::collect_timestamps(trace),
    };
    let report = match order {
        PartialOrderKind::Hb => HbRaceDetector::<C>::new(trace).run(trace),
        PartialOrderKind::Shb => ShbRaceDetector::<C>::new(trace).run(trace),
        PartialOrderKind::Maz => MazAnalyzer::<C>::new(trace).run(trace),
    };
    (timestamps, report)
}

/// Streams `trace` through an [`IncrementalDetector`], checkpointing
/// and restoring at the midpoint, and asserts per-event timestamps,
/// live emission and the final report all equal the batch run.
fn assert_stream_matches_batch<C: LogicalClock>(trace: &Trace, order: PartialOrderKind) {
    let label = format!("{order}/{}", C::NAME);
    let (batch_ts, batch_report) = batch_reference::<C>(trace, order);

    let mut detector = IncrementalDetector::<C>::new(DetectorConfig::for_order(order));
    let mut live = Vec::new();
    let half = trace.len() / 2;
    for (i, e) in trace.iter().enumerate() {
        if i == half {
            // Mid-stream checkpoint: serialize, reload, resume.
            let bytes = detector.checkpoint().to_bytes();
            let cp = Checkpoint::from_bytes(&bytes)
                .unwrap_or_else(|err| panic!("{label}: checkpoint round trip failed: {err}"));
            detector = IncrementalDetector::from_checkpoint(&cp, ClockPool::new());
        }
        live.extend(
            detector
                .feed(e)
                .unwrap_or_else(|err| panic!("{label}: feed failed at {i}: {err}"))
                .iter()
                .copied(),
        );
        let got = detector.timestamp_of(e.tid);
        assert_eq!(
            got, batch_ts[i],
            "{label}: timestamp diverges at event {i} ({})",
            trace[i]
        );
    }
    assert_eq!(
        *detector.report(),
        batch_report,
        "{label}: final report diverges"
    );
    assert_eq!(
        live, batch_report.races,
        "{label}: live emission must deliver each stored race exactly once"
    );
}

fn assert_all_backends(trace: &Trace, order: PartialOrderKind) {
    assert_stream_matches_batch::<TreeClock>(trace, order);
    assert_stream_matches_batch::<VectorClock>(trace, order);
}

#[test]
fn every_scenario_family_streams_identically_on_all_backends() {
    for (i, scenario) in Scenario::ALL.into_iter().enumerate() {
        let trace = scenario.generate(scenario.min_threads().max(4), 200, 40 + i as u64);
        for order in PartialOrderKind::ALL {
            assert_all_backends(&trace, order);
        }
    }
}

#[test]
fn racy_workloads_stream_identically_on_all_backends() {
    for (sync_pct, seed) in [(0u8, 1u64), (10, 2), (40, 3)] {
        let trace = WorkloadSpec {
            threads: 5,
            locks: 2,
            vars: 3,
            events: 250,
            sync_ratio: f64::from(sync_pct) / 100.0,
            shared_fraction: 0.9,
            seed,
            ..WorkloadSpec::default()
        }
        .generate();
        for order in PartialOrderKind::ALL {
            assert_all_backends(&trace, order);
        }
    }
}

#[test]
fn eviction_streams_identically_on_fork_disciplined_traces() {
    // fork-join-tree is fork-disciplined by construction, so dominance
    // eviction is value-preserving; run it aggressively and compare to
    // batch. (The detector's own guard rejects non-disciplined runs.)
    let trace = Scenario::ForkJoinTree.generate(8, 300, 9);
    for order in PartialOrderKind::ALL {
        let (batch_ts, batch_report) = batch_reference::<TreeClock>(&trace, order);
        let config = DetectorConfig {
            order,
            retire_on_join: true,
            evict_every: Some(16),
            recycle_slots: false,
        };
        let mut d = IncrementalDetector::<TreeClock>::new(config);
        for (i, e) in trace.iter().enumerate() {
            d.feed(e).unwrap();
            assert_eq!(
                d.timestamp_of(e.tid),
                batch_ts[i],
                "{order}: eviction changed event {i}"
            );
        }
        assert_eq!(
            *d.report(),
            batch_report,
            "{order}: eviction changed the report"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mixed workloads (racy and quiet, with and without
    /// fork/join structure) stream identically to batch on a random
    /// order × backend.
    #[test]
    fn random_workloads_stream_identically(
        threads in 2u32..7,
        sync_pct in 0u8..70,
        seed in 0u64..10_000,
        order_pick in 0usize..3,
        backend_pick in 0usize..2,
    ) {
        let trace = WorkloadSpec {
            threads,
            locks: 2,
            vars: 4,
            events: 160,
            sync_ratio: f64::from(sync_pct) / 100.0,
            shared_fraction: 0.85,
            fork_join: seed.is_multiple_of(2),
            seed,
            ..WorkloadSpec::default()
        }
        .generate();
        let order = PartialOrderKind::ALL[order_pick];
        match backend_pick {
            0 => assert_stream_matches_batch::<TreeClock>(&trace, order),
            _ => assert_stream_matches_batch::<VectorClock>(&trace, order),
        }
    }
}
