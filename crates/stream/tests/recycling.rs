//! Identity-recycling integration: spawn/join churn interleaved with
//! checkpoint/resume mid-reclaim must be invisible (same timestamps,
//! reports, slot assignments, and byte-identical final checkpoints),
//! and peak clock bytes must stay O(live threads) as the total-ever
//! spawn count grows 10x — with the no-recycling baseline measurably
//! growing on the same workload shape.

use proptest::prelude::*;

use tc_core::{ClockPool, LogicalClock, TreeClock, VectorClock};
use tc_orders::PartialOrderKind;
use tc_stream::{Checkpoint, DetectorConfig, IncrementalDetector};
use tc_trace::gen::families::spawn_join_churn_sized;
use tc_trace::Trace;

fn recycling_config(order: PartialOrderKind) -> DetectorConfig {
    DetectorConfig {
        order,
        retire_on_join: true,
        evict_every: None,
        recycle_slots: true,
    }
}

/// Runs `trace` through two recycling detectors in lockstep — one fed
/// straight through, one checkpoint/serialized/restored at `cp_at` —
/// and asserts the restored session is indistinguishable: identical
/// per-event timestamps, identical slot widths (the restored map must
/// hand out the *same* recycled slots, not merely equivalent ones),
/// identical reports and recycle counters, and byte-identical final
/// checkpoints.
fn assert_resume_invisible<C: LogicalClock>(trace: &Trace, order: PartialOrderKind, cp_at: usize) {
    let label = format!("{order}/{}/cp@{cp_at}", C::NAME);
    let mut straight = IncrementalDetector::<C>::new(recycling_config(order));
    let mut resumed = IncrementalDetector::<C>::new(recycling_config(order));
    for (i, e) in trace.iter().enumerate() {
        if i == cp_at {
            let bytes = resumed.checkpoint().to_bytes();
            let cp = Checkpoint::from_bytes(&bytes)
                .unwrap_or_else(|err| panic!("{label}: checkpoint round trip failed: {err}"));
            resumed = IncrementalDetector::from_checkpoint(&cp, ClockPool::new());
        }
        straight
            .feed(e)
            .unwrap_or_else(|err| panic!("{label}: straight feed failed at {i}: {err}"));
        resumed
            .feed(e)
            .unwrap_or_else(|err| panic!("{label}: resumed feed failed at {i}: {err}"));
        assert_eq!(
            resumed.timestamp_of(e.tid),
            straight.timestamp_of(e.tid),
            "{label}: timestamp diverges at event {i} ({})",
            trace[i]
        );
        assert_eq!(
            resumed.slot_width(),
            straight.slot_width(),
            "{label}: restored session stopped reusing the same slots at event {i}"
        );
    }
    assert_eq!(
        resumed.report(),
        straight.report(),
        "{label}: report diverges after resume"
    );
    assert_eq!(
        resumed.recycled_slots(),
        straight.recycled_slots(),
        "{label}: recycle counter diverges after resume"
    );
    assert_eq!(
        resumed.checkpoint().to_bytes(),
        straight.checkpoint().to_bytes(),
        "{label}: final checkpoints are not byte-identical"
    );
}

/// Recycling must also be invisible in the detector's *outputs*: the
/// straight recycling run must match a plain (no-recycling) run on the
/// same trace, timestamp for timestamp.
fn assert_matches_no_recycling<C: LogicalClock>(trace: &Trace, order: PartialOrderKind) {
    let label = format!("{order}/{}", C::NAME);
    let mut on = IncrementalDetector::<C>::new(recycling_config(order));
    let mut off = IncrementalDetector::<C>::new(DetectorConfig {
        recycle_slots: false,
        ..recycling_config(order)
    });
    for (i, e) in trace.iter().enumerate() {
        on.feed(e).unwrap();
        off.feed(e).unwrap();
        assert_eq!(
            on.timestamp_of(e.tid),
            off.timestamp_of(e.tid),
            "{label}: recycling changed the timestamp at event {i} ({})",
            trace[i]
        );
    }
    assert_eq!(
        on.report(),
        off.report(),
        "{label}: recycling changed the race report"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random churn shapes (total threads, live width, length, seed)
    /// with a checkpoint dropped at a random position — frequently mid
    /// wave, while retired threads sit on the pending-reclaim queue —
    /// resume invisibly on a random order x backend, and agree with a
    /// no-recycling run.
    #[test]
    fn churn_with_checkpoint_resume_mid_reclaim_is_invisible(
        total in 6u32..40,
        width in 2u32..8,
        events in 200usize..700,
        seed in 0u64..10_000,
        cp_tenths in 1usize..9,
        pick in 0usize..6,
    ) {
        let trace = spawn_join_churn_sized(total, width, events, seed);
        let order = PartialOrderKind::ALL[pick % 3];
        let cp_at = trace.len() * cp_tenths / 10;
        match pick / 3 {
            0 => {
                assert_resume_invisible::<TreeClock>(&trace, order, cp_at);
                assert_matches_no_recycling::<TreeClock>(&trace, order);
            }
            _ => {
                assert_resume_invisible::<VectorClock>(&trace, order, cp_at);
                assert_matches_no_recycling::<VectorClock>(&trace, order);
            }
        }
    }
}

struct ChurnRun {
    peak_clock_bytes: usize,
    recycled_slots: u64,
    slot_width: usize,
}

fn run_churn<C: LogicalClock>(total: u32, live: u32, events: usize, recycle: bool) -> ChurnRun {
    let trace = spawn_join_churn_sized(total, live, events, 0xB0B0);
    let mut d = IncrementalDetector::<C>::new(DetectorConfig {
        recycle_slots: recycle,
        ..DetectorConfig::default()
    });
    for e in trace.iter() {
        d.feed(e).unwrap();
    }
    assert!(
        d.report().races.is_empty(),
        "churn family is race-free by construction"
    );
    ChurnRun {
        peak_clock_bytes: d.peak_clock_bytes(),
        recycled_slots: d.recycled_slots(),
        slot_width: d.slot_width(),
    }
}

/// The bounded-memory guarantee: with ~64 live threads, peak clock
/// bytes stay within 2x when the total-ever spawn count grows 10x under
/// recycling — while the no-recycling baseline's peak grows with the
/// total spawn count on the same workload shape — and on one and the
/// same churn trace, recycling never raises either backend's peak.
///
/// The headline regime is 50k -> 500k spawns; this test runs the same
/// 10x growth at debug-friendly sizes (5k -> 50k recycled, 400 -> 4k
/// direct — the direct baseline's clock arenas scale with *total*
/// threads, and a detector without recycling serves at most 4,096
/// thread ids, so its big leg stays under that bound).
#[test]
fn churn_peak_clock_bytes_stay_flat_under_10x_spawn_growth() {
    const LIVE: u32 = 64;

    let on_small = run_churn::<TreeClock>(5_000, LIVE, 12_000, true);
    let on_big = run_churn::<TreeClock>(50_000, LIVE, 110_000, true);
    assert!(
        on_big.recycled_slots > 0,
        "the big recycled run must actually reclaim slots"
    );
    assert!(
        on_big.slot_width <= (LIVE as usize + 2) * 2,
        "recycled slot width must stay O(live): got {}",
        on_big.slot_width
    );
    assert!(
        on_big.peak_clock_bytes <= 2 * on_small.peak_clock_bytes,
        "recycling-on peak must stay within 2x across 10x spawn growth: \
         {} bytes at 5k spawns vs {} bytes at 50k spawns",
        on_small.peak_clock_bytes,
        on_big.peak_clock_bytes,
    );

    let off_small = run_churn::<TreeClock>(400, LIVE, 1_200, false);
    let off_big = run_churn::<TreeClock>(4_000, LIVE, 11_000, false);
    assert!(
        off_big.peak_clock_bytes >= 3 * off_small.peak_clock_bytes,
        "no-recycling baseline must measurably grow across 10x spawn growth: \
         {} bytes at 400 spawns vs {} bytes at 4k spawns",
        off_small.peak_clock_bytes,
        off_big.peak_clock_bytes,
    );
    assert_eq!(off_big.recycled_slots, 0);

    recycling_never_raises_the_peak::<TreeClock>();
    recycling_never_raises_the_peak::<VectorClock>();
}

fn recycling_never_raises_the_peak<C: LogicalClock>() {
    for (total, events) in [(128, 20_000), (1_280, 40_000)] {
        let on = run_churn::<C>(total, 16, events, true);
        let off = run_churn::<C>(total, 16, events, false);
        assert!(
            on.peak_clock_bytes <= off.peak_clock_bytes,
            "recycling must not raise the {} clock's peak on the same trace: \
             {} bytes on vs {} bytes off at {total} spawns",
            C::NAME,
            on.peak_clock_bytes,
            off.peak_clock_bytes,
        );
    }
}
