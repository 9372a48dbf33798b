//! Bounded-memory regression tests: on spawn/join-wave (thread-churn)
//! traces, thread retirement keeps the clock population proportional
//! to the number of *live* threads, not total threads.

use tc_core::{LogicalClock, TreeClock, VectorClock};
use tc_stream::{DetectorConfig, IncrementalDetector};
use tc_trace::{Trace, TraceBuilder};

/// A spawn/join-wave trace: thread 0 forks `width` fresh children per
/// wave, each does locked work on a shared variable, then all are
/// joined — so at any instant at most `width + 1` threads are live
/// while the total thread count grows with the wave count.
fn wave_trace(waves: u32, width: u32) -> Trace {
    let mut b = TraceBuilder::new();
    let mut next = 1u32;
    for _ in 0..waves {
        let kids: Vec<u32> = (0..width)
            .map(|_| {
                let k = next;
                next += 1;
                k
            })
            .collect();
        for &k in &kids {
            b.fork(0, k);
        }
        for &k in &kids {
            b.acquire(k, "m");
            b.write(k, "x");
            b.release(k, "m");
        }
        for &k in &kids {
            b.join(0, k);
        }
    }
    let trace = b.finish();
    trace.validate().expect("wave trace is well-formed");
    trace
}

struct MemoryProfile {
    /// Max over the run of the engine's live clock bytes.
    peak_live_bytes: usize,
    /// Pool high-water mark in bytes (maintained by the pool itself).
    peak_pool_bytes: usize,
    /// Max clocks parked on the free list at once.
    peak_pool_clocks: usize,
    /// Fresh clock allocations over the whole run.
    fresh: u64,
    threads_total: usize,
    retired: usize,
}

fn profile<C: LogicalClock>(trace: &Trace, retire: bool) -> MemoryProfile {
    let config = DetectorConfig {
        retire_on_join: retire,
        ..DetectorConfig::default()
    };
    let mut d = IncrementalDetector::<C>::new(config);
    let mut peak_live_bytes = 0;
    let mut peak_pool_clocks = 0;
    for e in trace {
        d.feed(e).unwrap();
        peak_live_bytes = peak_live_bytes.max(d.clock_bytes());
        peak_pool_clocks = peak_pool_clocks.max(d.pool().free_len());
    }
    assert!(d.report().is_empty(), "wave trace is race-free");
    MemoryProfile {
        peak_live_bytes,
        peak_pool_bytes: d.pool().peak_bytes(),
        peak_pool_clocks,
        fresh: d.pool().fresh(),
        threads_total: trace.thread_count(),
        retired: d.retired_count(),
    }
}

/// The acceptance bar: with 10× more total threads than live
/// threads, peak pool bytes stay within 2× of the live-thread working
/// set.
#[test]
fn peak_pool_bytes_stay_within_2x_of_the_live_working_set() {
    const WIDTH: u32 = 8;
    const WAVES: u32 = 10; // total threads = 81 ≈ 9 live × 10
    let trace = wave_trace(WAVES, WIDTH);
    for (label, p) in [
        ("tree", profile::<TreeClock>(&trace, true)),
        ("vector", profile::<VectorClock>(&trace, true)),
    ] {
        assert_eq!(p.threads_total, (WAVES * WIDTH + 1) as usize);
        assert_eq!(p.retired, (WAVES * WIDTH) as usize, "{label}");
        assert!(
            p.peak_pool_bytes <= 2 * p.peak_live_bytes,
            "{label}: peak pool bytes {} exceed 2× the live working set {}",
            p.peak_pool_bytes,
            p.peak_live_bytes
        );
    }
}

/// The regression guard: growing the trace (more churn waves) must not
/// grow the clock *population* at all — fresh allocations and the peak
/// number of parked clocks stay flat, because every wave reuses the
/// previous wave's retired clocks. (Per-clock arena width necessarily
/// grows with the total thread dimension — entries for dead threads
/// remain meaningful — so the flat quantity is clocks, and bytes stay
/// proportional to the live working set, asserted above.)
#[test]
fn clock_population_stays_flat_as_the_trace_grows() {
    const WIDTH: u32 = 6;
    let short = profile::<TreeClock>(&wave_trace(5, WIDTH), true);
    let long = profile::<TreeClock>(&wave_trace(20, WIDTH), true);
    assert_eq!(
        short.fresh, long.fresh,
        "a 4× longer churn trace must allocate no additional clocks"
    );
    assert_eq!(
        short.peak_pool_clocks, long.peak_pool_clocks,
        "the parked-clock high-water mark must not grow with trace length"
    );
    assert!(
        long.peak_pool_bytes <= 2 * long.peak_live_bytes,
        "the byte bound holds at 20 waves too"
    );
}

/// Without retirement every child's clock stays live to the end: the
/// live working set grows with *total* threads, which is exactly what
/// retirement exists to prevent.
#[test]
fn retirement_beats_no_retirement_by_the_churn_factor() {
    let trace = wave_trace(12, 6);
    let with = profile::<TreeClock>(&trace, true);
    let without = profile::<TreeClock>(&trace, false);
    assert_eq!(without.retired, 0);
    assert!(
        without.peak_live_bytes >= 3 * with.peak_live_bytes,
        "retirement should shrink the live set by roughly the churn factor \
         (with: {}, without: {})",
        with.peak_live_bytes,
        without.peak_live_bytes
    );
    assert!(
        without.fresh >= 3 * with.fresh,
        "without retirement every thread needs a fresh clock \
         (with: {}, without: {})",
        with.fresh,
        without.fresh
    );
}
