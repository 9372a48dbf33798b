//! `star-360` and `pairwise-360`: what `tcr race --order hb --clock tc
//! FILE.tctr` pays — decode the trace, build the detector, detect —
//! with the detection pass repeated so its time is a median.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tc_analysis::HbRaceDetector;
use tc_core::{LogicalClock, ThreadId, TreeClock, VectorClock, VectorTime};
use tc_orders::HbEngine;
use tc_trace::{binary_format, Trace};

use crate::stats::{median, percentile, quiet, window_len, Tally, MIN_WINDOWS};
use crate::{Deadline, RunResult};

/// A timed set-up (decode plus construct, the `setup_s` sample) runs
/// before every this many passes, so set-up samples span the run too.
/// The pass right after it runs on caches the decode just churned, so
/// that pass is not timed.
const SETUP_EVERY: usize = 8;
/// Set-up samples per window behind `setup_s`.
const SETUP_WINDOW: usize = 10;

/// What `tcr race` pays before its first event: decode the file bytes
/// and build the detector. Returns both and the seconds it took.
fn set_up(bytes: &[u8]) -> (Trace, HbRaceDetector<TreeClock>, f64) {
    let start = Instant::now();
    let trace = binary_format::read_binary(bytes).expect("encoded trace decodes");
    let detector = HbRaceDetector::<TreeClock>::new(&trace);
    let secs = start.elapsed().as_secs_f64();
    (trace, detector, secs)
}

/// Runs one batch workload on `trace` for at least `seconds` of timed
/// passes.
pub fn run(trace: &Trace, seconds: f64) -> RunResult {
    let mut tally = Tally::default();
    let bytes = binary_format::to_binary(trace);
    let events = trace.len() as f64;
    let (trace, detector, first_setup) = set_up(&bytes);
    let mut setup_s = vec![first_setup];

    // The reference: the vector-clock backend on the same trace.
    let vc_start = Instant::now();
    let reference = HbRaceDetector::<VectorClock>::new(&trace).run(&trace);
    let vc_ms = vc_start.elapsed().as_secs_f64() * 1e3;

    // The first pass after decode pays page faults and allocator
    // warm-up; it is reported on its own and left out of the medians.
    let start = Instant::now();
    let report = black_box(detector.run(&trace));
    let warmup_ms = start.elapsed().as_secs_f64() * 1e3;
    tally.check(report == reference, || {
        format!(
            "warm-up pass: {} races, reference {}",
            report.total, reference.total
        )
    });

    let need = MIN_WINDOWS * window_len();
    let deadline = Deadline::new(seconds);
    let mut pass_ms = Vec::new();
    while pass_ms.len() < need || !deadline.passed() {
        if pass_ms.len() % SETUP_EVERY == 0 {
            let (decoded, detector, secs) = set_up(&bytes);
            setup_s.push(secs);
            let report = detector.run(&decoded);
            tally.check(report.total == reference.total, || {
                format!(
                    "pass on the re-decoded trace: races {} != reference {}",
                    report.total, reference.total
                )
            });
        }
        let detector = HbRaceDetector::<TreeClock>::new(&trace);
        let start = Instant::now();
        let report = black_box(detector.run(&trace));
        pass_ms.push(start.elapsed().as_secs_f64() * 1e3);
        tally.check(report.total == reference.total, || {
            format!(
                "pass races {} != reference {}",
                report.total, reference.total
            )
        });
        if deadline.overrun(Duration::from_secs(120)) {
            break;
        }
    }

    // The gate: final vector times equal the vector clock's.
    let tc_times = final_times::<TreeClock>(&trace);
    let vc_times = final_times::<VectorClock>(&trace);
    let differing = tc_times
        .iter()
        .zip(&vc_times)
        .filter(|(a, b)| a != b)
        .count();
    tally.check(differing == 0 && tc_times.len() == vc_times.len(), || {
        format!(
            "{differing} of {} final vector times differ from the vector clock's",
            tc_times.len()
        )
    });

    let pass_median = quiet(&pass_ms, window_len(), median);
    RunResult {
        metrics: vec![
            ("setup_s", quiet(&setup_s, SETUP_WINDOW, median)),
            ("events_per_s", events / (pass_median / 1e3)),
            (
                "ack_p50_ms",
                quiet(&pass_ms, window_len(), |w| percentile(w, 50)),
            ),
            (
                "ack_p90_ms",
                quiet(&pass_ms, window_len(), |w| percentile(w, 90)),
            ),
        ],
        info: vec![
            format!(
                "trace events={} threads={} bytes={} races={}",
                trace.len(),
                trace.thread_count(),
                bytes.len(),
                reference.total
            ),
            format!(
                "passes={} in windows of {} (warm-up pass excluded: {warmup_ms:.2} ms; \
                 quiet-window median {pass_median:.2} ms, whole-run median {:.2} ms) setups={}",
                pass_ms.len(),
                window_len(),
                median(&pass_ms),
                setup_s.len()
            ),
            format!(
                "ack_* on batch = one HbRaceDetector<TreeClock>::run pass over the trace; \
                 vector-clock pass {vc_ms:.2} ms"
            ),
            "load: 1 thread, no connections, no server".to_owned(),
        ],
        tally,
    }
}

/// Every thread's vector time after the whole trace under backend `C`.
fn final_times<C: LogicalClock>(trace: &Trace) -> Vec<VectorTime> {
    let mut engine = HbEngine::<C>::new(trace);
    for e in trace {
        engine.process(e);
    }
    (0..trace.thread_count() as u32)
        .map(|t| engine.timestamp_of(ThreadId::new(t)))
        .collect()
}
