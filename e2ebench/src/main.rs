//! The repository's end-to-end benchmark; see `README.md` beside this
//! crate for the workloads, the metrics and how to run it.
//!
//! ```text
//! e2ebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The untraced run
//! (`--trace 0`) reports the end-to-end metrics; the traced run
//! (`--trace 1`) reports the per-layer ladder and writes its spans to
//! `e2ebench/out/`. A correctness mismatch exits with code 1.

mod batch;
mod inputs;
mod ladder;
mod serve;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use inputs::SessionInput;
use stats::Tally;

/// The seed runs use unless told otherwise.
const DEFAULT_SEED: u64 = 1;
/// The held-out seed: never used while tuning a change, only to
/// confirm a claim made on other seeds.
const HELD_OUT_SEED: u64 = 2;

/// Events of the `star-360` trace.
const STAR_EVENTS: usize = 1_000_000;
/// Events of the `pairwise-360` trace.
const PAIRWISE_EVENTS: usize = 40_000;

const WORKLOADS: [&str; 4] = ["star-360", "pairwise-360", "serve-mixed", "cluster-forward"];

/// What one run measured: metrics by name (units come from
/// [`unit_of`]), failure accounting and log lines.
pub struct RunResult {
    pub metrics: Vec<(&'static str, f64)>,
    pub tally: Tally,
    pub info: Vec<String>,
}

/// The unit every metric name is reported in.
fn unit_of(name: &str) -> &'static str {
    match name {
        "setup_s" => "s",
        "events_per_s" => "events/s",
        "peak_rss_mb" => "MiB",
        "tc_core.ds_work_per_event" | "tc_core.vt_work_per_event" => "count",
        "tc_core.tc_vs_vc_speedup" => "ratio",
        "tc_stream.service.queue_depth_hw" => "count",
        "tc_stream.service.steal_ratio" => "ratio",
        "tc_cluster.forward_tax_pct" | "trace.overhead_pct" => "%",
        "tc_cluster.delta_bytes_per_event" => "bytes/event",
        n if n.ends_with("_ms") => "ms",
        n if n.ends_with("_us_mean") => "us",
        n if n.ends_with("_ns_per_event") || n.ends_with("ns_per_ds_work") => "ns",
        n => panic!("metric `{n}` has no unit"),
    }
}

/// A measuring phase's time budget.
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    pub fn new(seconds: f64) -> Deadline {
        Deadline {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds.max(0.0)),
        }
    }

    pub fn passed(&self) -> bool {
        self.start.elapsed() >= self.budget
    }

    /// `true` once the phase ran `limit` past its budget — the stop for
    /// loops that also wait on a sample count.
    pub fn overrun(&self, limit: Duration) -> bool {
        self.start.elapsed() >= self.budget + limit
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 45.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = match value()?.as_str() {
                    "held-out" => HELD_OUT_SEED,
                    v => v.parse().map_err(|_| format!("bad --seed `{v}`"))?,
                }
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got `{}`)",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// The sessions the traced run drives through every layer: the batch
/// trace as one `hb tc` session, or the service workloads' 64 bulk
/// streams.
fn ladder_inputs(workload: &str, seed: u64) -> Vec<SessionInput> {
    let one = |trace| {
        vec![SessionInput {
            open: "hb tc",
            trace,
        }]
    };
    match workload {
        "star-360" => one(inputs::star_trace(seed, STAR_EVENTS)),
        "pairwise-360" => one(inputs::pairwise_trace(seed, PAIRWISE_EVENTS)),
        _ => inputs::session_inputs(seed, inputs::SESSIONS, serve::BULK_EVENTS),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: e2ebench --workload <{}> [--seed N|held-out] \
                 [--seconds S] [--trace 0|1]\n(default seed {DEFAULT_SEED}, held-out seed \
                 {HELD_OUT_SEED})",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={} available_parallelism={parallelism}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut result = if args.trace {
        let inputs = ladder_inputs(&args.workload, args.seed);
        ladder::run(&args.workload, args.seed, &inputs, args.seconds)
    } else {
        match args.workload.as_str() {
            "star-360" => batch::run(&inputs::star_trace(args.seed, STAR_EVENTS), args.seconds),
            "pairwise-360" => batch::run(
                &inputs::pairwise_trace(args.seed, PAIRWISE_EVENTS),
                args.seconds,
            ),
            "serve-mixed" => serve::run(serve::Mode::Single, args.seed, args.seconds),
            _ => serve::run(serve::Mode::Cluster, args.seed, args.seconds),
        }
    };
    if !args.trace {
        let rss = stats::peak_rss_mib().expect("/proc/self/status has VmHWM");
        result.metrics.push(("peak_rss_mb", rss));
    }

    result.metrics.retain(|&(name, value)| {
        let finite = value.is_finite();
        result.tally.check(finite, || format!("{name} is {value}"));
        finite
    });
    for line in &result.info {
        println!("# {line}");
    }
    for (name, value) in &result.metrics {
        println!("{name:<40} {value:>16.6} {}", unit_of(name));
    }
    let correct = result.tally.failed == 0;
    println!(
        "{:<40} {:>16.6} fraction ({} failed of {} attempted)",
        "error_rate",
        result.tally.error_rate(),
        result.tally.failed,
        result.tally.attempted
    );
    for why in &result.tally.reasons {
        println!("# FAILED: {why}");
    }

    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.tally.attempted.max(1),
        result.tally.failed
    );
    for (i, (name, value)) in result.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    json.push_str("}}");
    println!("{json}");
    if !correct {
        std::process::exit(1);
    }
}
