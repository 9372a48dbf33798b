//! `tcr` — trace tooling for tree-clock based concurrency analysis.
//!
//! ```text
//! USAGE:
//!   tcr gen --scenario NAME --threads K [--events N] [--seed S] -o FILE
//!   tcr gen --threads K [--events N] [--sync PCT] [--locks L] [--vars V] -o FILE
//!   tcr stats FILE
//!   tcr race [--order hb|shb|maz] [--clock tc|vc|hc] [--limit N] FILE
//!   tcr timestamps [--order hb|shb|maz] FILE
//!   tcr convert IN OUT
//!   tcr conformance [--full] [--filter NEEDLE] [--fault F] [--no-shrink]
//!                   [--repro-dir DIR] [--replay FILE]
//!   tcr stream FILE [--order hb|shb|maz] [--clock tc|vc|hc] [--limit N]
//!              [--evict N] [--no-retire] [--recycle] [--checkpoint FILE]
//!              [--checkpoint-every N] [--resume FILE]
//!   tcr serve [--port P | --addr A] [--workers N] [--auth TOKEN] [--smoke]
//!   tcr serve --cluster --node I --peers A,B,C [--delta-every N]
//!             [--auth TOKEN]
//! ```
//!
//! Trace files ending in `.tctr` use the compact binary format; any
//! other extension uses the human-readable text format. Timing tables
//! (the paper's Table 2 and Figures 6–10, with spread) come from the
//! `paper` binary of `tc-bench`.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;

use tc_analysis::{HbRaceDetector, MazAnalyzer, RaceReport, ShbRaceDetector};
use tc_conformance::{check_trace, run_sweep, Corpus, Fault, SweepOptions};
use tc_core::{TreeClock, VectorClock};
use tc_orders::{HbEngine, MazEngine, PartialOrderKind, ShbEngine};
use tc_stream::{AnyDetector, Checkpoint, ClockChoice, DetectorConfig, ServeConfig, Server};
use tc_trace::gen::{Scenario, WorkloadSpec};
use tc_trace::{binary_format, text_format, EventReader, SessionValidator, Trace};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // No library panic may unwind out of the CLI: malformed input must
    // exit nonzero with a one-line diagnostic. `run` returns `Err` for
    // every anticipated failure; the hook + catch_unwind below keep
    // even an unanticipated panic (a library bug tripped by hostile
    // input) to one line on stderr.
    panic::set_hook(Box::new(|_| {}));
    let result = panic::catch_unwind(AssertUnwindSafe(|| run(&args)));
    let _ = panic::take_hook();
    match result {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            if e == "help" {
                eprint!("{USAGE}");
                ExitCode::SUCCESS
            } else {
                eprintln!("error: {e}");
                eprintln!("run `tcr --help` for usage");
                ExitCode::from(2)
            }
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("unknown internal error");
            eprintln!("error: internal failure: {msg}");
            ExitCode::from(3)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("help".into());
    };
    let rest = &args[1..];
    match command.as_str() {
        "--help" | "-h" | "help" => Err("help".into()),
        "gen" => cmd_gen(rest),
        "stats" => cmd_stats(rest),
        "race" => cmd_race(rest),
        "timestamps" => cmd_timestamps(rest),
        "convert" => cmd_convert(rest),
        "conformance" => cmd_conformance(rest),
        "stream" => cmd_stream(rest),
        "serve" => cmd_serve(rest),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Simple flag cursor over the remaining arguments.
struct Flags<'a> {
    positional: Vec<&'a str>,
}

/// `--name value` pairs collected while parsing a command line.
type FlagValues<'a> = Vec<(&'a str, &'a str)>;

impl<'a> Flags<'a> {
    /// Parses `args` into positional arguments and `--name [value]`
    /// pairs. Flags in `with_value` consume the next argument; flags in
    /// `boolean` stand alone; any other `--name` is an error (a
    /// misspelled `--ful` silently running the wrong sweep is worse
    /// than rejecting it). `-o FILE` is shorthand for `--out FILE` and
    /// is an unknown flag wherever `out` is not in `with_value`.
    fn parse(
        args: &'a [String],
        with_value: &[&str],
        boolean: &[&str],
    ) -> Result<(Self, FlagValues<'a>), String> {
        let mut kv = Vec::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if let Some(name) = a.strip_prefix("--") {
                if with_value.contains(&name) {
                    let v = args
                        .get(i + 1)
                        .ok_or_else(|| format!("--{name} requires a value"))?;
                    kv.push((name, v.as_str()));
                    i += 2;
                } else if boolean.contains(&name) {
                    kv.push((name, ""));
                    i += 1;
                } else {
                    return Err(format!("unknown flag `--{name}`"));
                }
            } else if a == "-o" {
                if !with_value.contains(&"out") {
                    return Err("unknown flag `-o`".into());
                }
                let v = args.get(i + 1).ok_or("-o requires a value")?;
                kv.push(("out", v.as_str()));
                i += 2;
            } else {
                positional.push(a);
                i += 1;
            }
        }
        Ok((Flags { positional }, kv))
    }
}

fn value<'a>(kv: &[(&'a str, &'a str)], name: &str) -> Option<&'a str> {
    kv.iter().rev().find(|(k, _)| *k == name).map(|(_, v)| *v)
}

/// Runs `write` against `out` (stdout, outside tests) and flushes it.
/// A reader that closes the pipe early (`tcr race FILE | head`) ends
/// the report, not the command: `BrokenPipe` counts as normal
/// completion. Every other write error is returned.
fn write_report<W: Write>(
    out: &mut W,
    write: impl FnOnce(&mut W) -> io::Result<()>,
) -> Result<(), String> {
    match write(out).and_then(|()| out.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(e.to_string()),
        _ => Ok(()),
    }
}

fn load(path: &str) -> Result<Trace, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let reader = BufReader::new(file);
    let trace = if path.ends_with(".tctr") {
        binary_format::read_binary(reader).map_err(|e| e.to_string())?
    } else {
        text_format::read_text(reader).map_err(|e| e.to_string())?
    };
    trace.validate().map_err(|e| e.to_string())?;
    Ok(trace)
}

fn store(trace: &Trace, path: &str) -> Result<(), String> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
    }
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut writer = BufWriter::new(file);
    if path.ends_with(".tctr") {
        binary_format::write_binary(trace, &mut writer).map_err(|e| e.to_string())?;
    } else {
        text_format::write_text(trace, &mut writer).map_err(|e| e.to_string())?;
    }
    writer.flush().map_err(|e| e.to_string())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let (_, kv) = Flags::parse(
        args,
        &[
            "scenario", "threads", "events", "seed", "sync", "locks", "vars", "out",
        ],
        &[],
    )?;
    let threads: u32 = value(&kv, "threads")
        .unwrap_or("8")
        .parse()
        .map_err(|_| "invalid --threads")?;
    let events: usize = value(&kv, "events")
        .unwrap_or("100000")
        .parse()
        .map_err(|_| "invalid --events")?;
    let seed: u64 = value(&kv, "seed")
        .unwrap_or("0")
        .parse()
        .map_err(|_| "invalid --seed")?;
    let out = value(&kv, "out").ok_or("gen requires -o FILE")?;

    let trace = if let Some(name) = value(&kv, "scenario") {
        let scenario: Scenario = name.parse()?;
        scenario.generate(threads, events, seed)
    } else {
        let sync_pct: f64 = value(&kv, "sync")
            .unwrap_or("9.5")
            .parse()
            .map_err(|_| "invalid --sync")?;
        WorkloadSpec {
            threads,
            events,
            seed,
            sync_ratio: (sync_pct / 100.0).clamp(0.0, 1.0),
            locks: value(&kv, "locks")
                .map(|v| v.parse().map_err(|_| "invalid --locks"))
                .transpose()?
                .unwrap_or(threads.max(1)),
            vars: value(&kv, "vars")
                .map(|v| v.parse().map_err(|_| "invalid --vars"))
                .transpose()?
                .unwrap_or(1024),
            ..WorkloadSpec::default()
        }
        .generate()
    };
    store(&trace, out)?;
    println!("wrote {} ({})", out, trace.stats());
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (flags, _) = Flags::parse(args, &[], &[])?;
    let [path] = flags.positional[..] else {
        return Err("stats requires exactly one FILE".into());
    };
    let trace = load(path)?;
    let s = trace.stats();
    write_report(&mut io::stdout().lock(), |out| {
        writeln!(out, "trace     : {path}")?;
        writeln!(out, "events    : {}", s.events)?;
        writeln!(out, "threads   : {}", s.threads)?;
        writeln!(out, "locks     : {}", s.locks)?;
        writeln!(out, "variables : {}", s.vars)?;
        writeln!(out, "sync      : {} ({:.1}%)", s.sync_events, s.sync_pct())?;
        writeln!(
            out,
            "reads     : {} / writes: {} ({:.1}%)",
            s.read_events,
            s.write_events,
            s.rw_pct()
        )
    })
}

fn cmd_race(args: &[String]) -> Result<(), String> {
    let (flags, kv) = Flags::parse(args, &["order", "clock", "limit"], &[])?;
    let [path] = flags.positional[..] else {
        return Err("race requires exactly one FILE".into());
    };
    let order: PartialOrderKind = value(&kv, "order").unwrap_or("hb").parse()?;
    let clock: ClockChoice = value(&kv, "clock").unwrap_or("tc").parse()?;
    let limit: usize = value(&kv, "limit")
        .unwrap_or("20")
        .parse()
        .map_err(|_| "invalid --limit")?;
    let trace = load(path)?;

    let start = std::time::Instant::now();
    let report: RaceReport = match (order, clock) {
        (PartialOrderKind::Hb, ClockChoice::Tree | ClockChoice::Hybrid) => {
            HbRaceDetector::<TreeClock>::new(&trace).run(&trace)
        }
        (PartialOrderKind::Hb, ClockChoice::Vector) => {
            HbRaceDetector::<VectorClock>::new(&trace).run(&trace)
        }
        (PartialOrderKind::Shb, ClockChoice::Tree | ClockChoice::Hybrid) => {
            ShbRaceDetector::<TreeClock>::new(&trace).run(&trace)
        }
        (PartialOrderKind::Shb, ClockChoice::Vector) => {
            ShbRaceDetector::<VectorClock>::new(&trace).run(&trace)
        }
        (PartialOrderKind::Maz, ClockChoice::Tree | ClockChoice::Hybrid) => {
            MazAnalyzer::<TreeClock>::new(&trace).run(&trace)
        }
        (PartialOrderKind::Maz, ClockChoice::Vector) => {
            MazAnalyzer::<VectorClock>::new(&trace).run(&trace)
        }
    };
    let elapsed = start.elapsed();

    write_report(&mut io::stdout().lock(), |out| {
        writeln!(
            out,
            "{order} analysis with {} clocks over {} events: {} in {:.3}s",
            clock.name(),
            trace.len(),
            report,
            elapsed.as_secs_f64()
        )?;
        for race in report.races.iter().take(limit) {
            writeln!(out, "  {race}")?;
        }
        if report.total as usize > limit {
            writeln!(out, "  ... and {} more", report.total as usize - limit)?;
        }
        Ok(())
    })
}

fn cmd_timestamps(args: &[String]) -> Result<(), String> {
    let (flags, kv) = Flags::parse(args, &["order"], &[])?;
    let [path] = flags.positional[..] else {
        return Err("timestamps requires exactly one FILE".into());
    };
    let order: PartialOrderKind = value(&kv, "order").unwrap_or("hb").parse()?;
    let trace = load(path)?;
    if trace.len() > 100_000 {
        return Err("refusing to print timestamps for traces over 100k events".into());
    }
    let ts = match order {
        PartialOrderKind::Hb => HbEngine::<TreeClock>::collect_timestamps(&trace),
        PartialOrderKind::Shb => ShbEngine::<TreeClock>::collect_timestamps(&trace),
        PartialOrderKind::Maz => MazEngine::<TreeClock>::collect_timestamps(&trace),
    };
    write_report(&mut io::stdout().lock(), |out| {
        for (i, (e, vt)) in trace.iter().zip(ts.iter()).enumerate() {
            writeln!(out, "{i:>6}  {e}  {vt}")?;
        }
        Ok(())
    })
}

fn cmd_conformance(args: &[String]) -> Result<(), String> {
    let (flags, kv) = Flags::parse(
        args,
        &["filter", "fault", "repro-dir", "replay"],
        &["full", "no-shrink"],
    )?;
    if let Some(extra) = flags.positional.first() {
        return Err(format!(
            "conformance takes no positional argument `{extra}`"
        ));
    }
    if let Some(path) = value(&kv, "replay") {
        // Replay a previously dumped repro (or any trace file) through
        // the full checker, without the corpus.
        let fault: Fault = value(&kv, "fault").unwrap_or("none").parse()?;
        let trace = load(path)?;
        return match check_trace(&trace, fault) {
            Ok(summary) => {
                println!(
                    "ok   {path}: {} event(s), {} combination(s), {} report(s)",
                    summary.events, summary.combos, summary.races
                );
                Ok(())
            }
            Err(failure) => Err(format!("replay of {path} fails conformance: {failure}")),
        };
    }
    let full = value(&kv, "full").is_some();
    let shrink = value(&kv, "no-shrink").is_none();
    let fault: Fault = value(&kv, "fault").unwrap_or("none").parse()?;
    let corpus = if full {
        Corpus::full()
    } else {
        Corpus::quick()
    };
    let corpus = match value(&kv, "filter") {
        Some(needle) => {
            let c = corpus.filter(needle);
            if c.cases.is_empty() {
                return Err(format!("--filter {needle} matches no corpus case"));
            }
            c
        }
        None => corpus,
    };

    let start = std::time::Instant::now();
    let report = run_sweep(&corpus, SweepOptions { fault, shrink });
    let elapsed = start.elapsed();

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for outcome in &report.outcomes {
        let _ = writeln!(out, "{outcome}");
    }
    let _ = writeln!(out, "{report} in {:.2}s", elapsed.as_secs_f64());

    if let Some(dir) = value(&kv, "repro-dir") {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        for (i, outcome) in report.outcomes.iter().enumerate() {
            if let Err((_, Some(repro))) = &outcome.result {
                let path = Path::new(dir).join(format!("repro-{i}.trace"));
                std::fs::write(&path, &repro.text)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                let _ = writeln!(out, "wrote {}", path.display());
            }
        }
    }
    if report.passed() {
        Ok(())
    } else {
        Err(format!("{} conformance failure(s)", report.failures()))
    }
}

fn cmd_stream(args: &[String]) -> Result<(), String> {
    let (flags, kv) = Flags::parse(
        args,
        &[
            "order",
            "clock",
            "evict",
            "limit",
            "checkpoint",
            "checkpoint-every",
            "resume",
        ],
        &["no-retire", "recycle"],
    )?;
    let [path] = flags.positional[..] else {
        return Err("stream requires exactly one FILE".into());
    };
    let order: PartialOrderKind = value(&kv, "order").unwrap_or("hb").parse()?;
    let clock: ClockChoice = value(&kv, "clock").unwrap_or("tc").parse()?;
    let limit: usize = value(&kv, "limit")
        .unwrap_or("20")
        .parse()
        .map_err(|_| "invalid --limit")?;
    let checkpoint_path = value(&kv, "checkpoint");
    let checkpoint_every: Option<u64> = value(&kv, "checkpoint-every")
        .map(|v| v.parse().map_err(|_| "invalid --checkpoint-every"))
        .transpose()?;
    if checkpoint_every.is_some() && checkpoint_path.is_none() {
        return Err("--checkpoint-every requires --checkpoint FILE".into());
    }
    let recycle = value(&kv, "recycle").is_some();
    if recycle && value(&kv, "no-retire").is_some() {
        return Err("--recycle requires join retirement; drop --no-retire".into());
    }
    let mut config = DetectorConfig {
        order,
        retire_on_join: value(&kv, "no-retire").is_none(),
        evict_every: value(&kv, "evict")
            .map(|v| v.parse::<u64>().map_err(|_| "invalid --evict"))
            .transpose()?
            .map(|n| n.max(1)),
        recycle_slots: recycle,
    };

    let mut reader = EventReader::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let (mut detector, mut validator) = match value(&kv, "resume") {
        Some(cp_path) => {
            // The checkpoint *is* the configuration; silently running a
            // different order/backend/policy than the flags asked for
            // would mislabel results.
            for conflicting in ["order", "clock", "evict", "no-retire", "recycle"] {
                if value(&kv, conflicting).is_some() {
                    return Err(format!(
                        "--resume restores the checkpoint's configuration; \
                         drop --{conflicting}"
                    ));
                }
            }
            let file = File::open(cp_path).map_err(|e| format!("cannot open {cp_path}: {e}"))?;
            let cp =
                Checkpoint::read(BufReader::new(file)).map_err(|e| format!("{cp_path}: {e}"))?;
            // The checkpoint carries the policy the session ran with.
            config = cp.config;
            reader
                .skip_events(cp.events)
                .map_err(|e| format!("cannot fast-forward {path}: {e}"))?;
            let validator = cp
                .validator
                .as_ref()
                .map(SessionValidator::from_snapshot)
                .unwrap_or_default();
            eprintln!(
                "resumed from {cp_path}: {} event(s) already ingested, {} race(s) so far",
                cp.events, cp.report.total
            );
            (AnyDetector::from_checkpoint(&cp), validator)
        }
        None => (AnyDetector::new(clock, config), SessionValidator::new()),
    };

    let start = std::time::Instant::now();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut printed = 0usize;
    let mut reported_before = detector.report().races.len();
    loop {
        let event = match reader.next_event() {
            Ok(Some(e)) => e,
            Ok(None) => break,
            Err(e) => return Err(e.to_string()),
        };
        validator
            .check(&event)
            .map_err(|e| format!("{path}: {e}"))?;
        let at = detector.events();
        detector
            .feed(&event)
            .map_err(|e| format!("{path}: event {at}: {e}"))?;
        // Live emission: print races as they are found (up to --limit).
        let races = detector.report().races_since(reported_before);
        for race in races {
            if printed < limit {
                let _ = writeln!(out, "  [event {}] {race}", detector.events() - 1);
                printed += 1;
            }
        }
        reported_before = detector.report().races.len();
        if let (Some(every), Some(cp_path)) = (checkpoint_every, checkpoint_path) {
            if every > 0 && detector.events() % every == 0 {
                write_checkpoint(&detector, &validator, cp_path)?;
            }
        }
    }
    if let (None, Some(cp_path)) = (checkpoint_every, checkpoint_path) {
        // A final checkpoint when no interval was given.
        write_checkpoint(&detector, &validator, cp_path)?;
    }
    let elapsed = start.elapsed();
    let report = detector.report();
    if report.total as usize > printed {
        let _ = writeln!(out, "  ... and {} more", report.total as usize - printed);
    }
    let _ = writeln!(
        out,
        "{} streaming analysis with {} clocks over {} events: {} in {:.3}s",
        config.order,
        detector.backend_name(),
        detector.events(),
        report,
        elapsed.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "memory: threads={} retired={} evicted={} live_clock_bytes={} pool_bytes={} \
         live_threads={} total_threads={} recycled_slots={} peak_clock_bytes={}",
        detector.threads_seen(),
        detector.retired_count(),
        detector.evicted(),
        detector.clock_bytes(),
        detector.pool_bytes(),
        detector.live_threads(),
        detector.total_threads(),
        detector.recycled_slots(),
        detector.peak_clock_bytes(),
    );
    Ok(())
}

fn write_checkpoint(
    detector: &AnyDetector,
    validator: &SessionValidator,
    path: &str,
) -> Result<(), String> {
    let mut cp = detector.checkpoint();
    cp.validator = Some(validator.snapshot());
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut writer = BufWriter::new(file);
    cp.write(&mut writer).map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (flags, kv) = Flags::parse(
        args,
        &[
            "addr",
            "port",
            "workers",
            "auth",
            "node",
            "peers",
            "delta-every",
        ],
        &["smoke", "cluster"],
    )?;
    if let Some(extra) = flags.positional.first() {
        return Err(format!("serve takes no positional argument `{extra}`"));
    }
    if value(&kv, "cluster").is_some() {
        return serve_cluster(&kv);
    }
    for flag in ["node", "peers", "delta-every"] {
        if value(&kv, flag).is_some() {
            return Err(format!("--{flag} requires --cluster"));
        }
    }
    let addr = match (value(&kv, "addr"), value(&kv, "port")) {
        (Some(addr), None) => addr.to_owned(),
        (None, port) => format!("127.0.0.1:{}", port.unwrap_or("7147")),
        (Some(_), Some(_)) => return Err("pass --addr or --port, not both".into()),
    };
    if value(&kv, "smoke").is_some() {
        tc_stream::smoke()?;
        println!(
            "serve smoke ok: three concurrent sessions (two text, one batched \
             binary frames) matched the batch detectors and the server shut \
             down cleanly with a client still connected"
        );
        return Ok(());
    }
    let workers: usize = value(&kv, "workers")
        .unwrap_or("4")
        .parse()
        .map_err(|_| "invalid --workers")?;
    let auth = value(&kv, "auth").map(str::to_owned);
    let server = Server::start(ServeConfig {
        addr,
        workers,
        auth,
    })
    .map_err(|e| format!("cannot start server: {e}"))?;
    println!(
        "tcr serve: listening on {} with {workers} work-stealing worker(s); \
         open a TCP connection and speak the line protocol \
         (`open <order> <clock>`, then event lines) or stream batched \
         binary frames to session ids; `shutdown` stops the server",
        server.local_addr()
    );
    server.join();
    println!("tcr serve: shut down");
    Ok(())
}

/// The `serve --cluster` path: one node of a static multi-node ring.
/// Sessions are placed by consistent hash, any node forwards for any
/// session, and owners stream checkpoint deltas to their ring
/// successor so a crashed node's sessions resume elsewhere with
/// byte-identical reports.
fn serve_cluster(kv: &FlagValues<'_>) -> Result<(), String> {
    use tc_cluster::{ClusterConfig, ClusterServer};
    if value(kv, "addr").is_some() || value(kv, "port").is_some() {
        return Err("--cluster binds the --peers entry for --node; drop --addr/--port".into());
    }
    if value(kv, "workers").is_some() {
        return Err("--workers does not apply to --cluster nodes".into());
    }
    let peers: Vec<String> = value(kv, "peers")
        .ok_or("--cluster requires --peers host:port,host:port,... (one entry per node)")?
        .split(',')
        .map(|s| s.trim().to_owned())
        .collect();
    if peers.len() < 2 || peers.iter().any(String::is_empty) {
        return Err("--peers needs at least two non-empty host:port entries".into());
    }
    let node: u32 = value(kv, "node")
        .ok_or("--cluster requires --node I (this node's index into --peers)")?
        .parse()
        .map_err(|_| "invalid --node")?;
    if node as usize >= peers.len() {
        return Err(format!(
            "--node {node} is out of range for {} peer(s)",
            peers.len()
        ));
    }
    let delta_every: u64 = value(kv, "delta-every")
        .unwrap_or("8")
        .parse()
        .map_err(|_| "invalid --delta-every")?;
    if delta_every == 0 {
        return Err("--delta-every must be >= 1".into());
    }
    let config = ClusterConfig {
        nodes: peers.len(),
        me: node,
        delta_every,
        auth: value(kv, "auth").map(str::to_owned),
    };
    let addr = peers[node as usize].clone();
    let nodes_total = peers.len();
    let server = ClusterServer::start(&addr, peers, config)
        .map_err(|e| format!("cannot start cluster node {node} on {addr}: {e}"))?;
    println!(
        "tcr serve --cluster: node {node} of {nodes_total} listening on {}; sessions \
         place by consistent hash, every node forwards for every session, and owners \
         ship checkpoint deltas to their ring successor every {delta_every} payload(s); \
         `shutdown` stops this node (survivors fail its sessions over)",
        server.local_addr()
    );
    server.join();
    println!("tcr serve --cluster: node {node} shut down");
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let (flags, _) = Flags::parse(args, &[], &[])?;
    let [input, output] = flags.positional[..] else {
        return Err("convert requires IN and OUT files".into());
    };
    let trace = load(input)?;
    store(&trace, output)?;
    println!("converted {input} -> {output} ({} events)", trace.len());
    Ok(())
}

const USAGE: &str = "\
tcr — trace tooling for tree-clock based concurrency analysis

USAGE:
  tcr gen --scenario NAME --threads K [--events N] [--seed S] -o FILE
  tcr gen --threads K [--events N] [--sync PCT] [--locks L] [--vars V] -o FILE
  tcr stats FILE
  tcr race [--order hb|shb|maz] [--clock tc|vc|hc] [--limit N] FILE
  tcr timestamps [--order hb|shb|maz] FILE
  tcr convert IN OUT
  tcr conformance [--full] [--filter NEEDLE] [--fault F] [--no-shrink]
                  [--repro-dir DIR] [--replay FILE]
  tcr stream FILE [--order hb|shb|maz] [--clock tc|vc|hc] [--limit N]
             [--evict N] [--no-retire] [--recycle] [--checkpoint FILE]
             [--checkpoint-every N] [--resume FILE]
  tcr serve [--port P | --addr A] [--workers N] [--auth TOKEN] [--smoke]
  tcr serve --cluster --node I --peers A,B,C [--delta-every N]
            [--auth TOKEN]

Scenarios: single-lock, skewed-locks, star, pairwise, fork-join-tree,
barrier-phases, pipeline, read-mostly, bursty-channels,
spawn-join-churn.
Clocks: tc (tree), vc (vector); hc and hybrid, the names of the
adaptive backend the tree's flat mode replaced, run the tree.
Files ending in .tctr use the binary format; others the text format.
Timing tables (the paper's Table 2 and Figures 6-10, with spread) come
from the `paper` binary: cargo run --release -p tc-bench --bin paper.

conformance runs every corpus trace through the HB/SHB/MAZ engines with
both clock backends and cross-checks timestamps, race reports and
work metrics against the O(n^2) definitional oracles. Failures are
shrunk to minimal text-format repros (written to --repro-dir if given).
--replay re-checks a dumped repro file instead of the corpus. --fault
injects a deliberate result perturbation (drop-race, skew-timestamp,
inflate-work, each optionally :hb/:shb/:maz) to demo the pipeline.

stream analyzes FILE incrementally (chunked reads, nothing
materialized), printing races as they are found, with bounded memory:
thread clocks retire to the pool at join, and --evict N releases
dominated lock/variable clocks every N events (requires fork
discipline). --recycle routes thread ids through an identity map so
retired threads' clock slots are reused once every live clock
dominates them — clock width stays O(live threads) under spawn/join
churn, with identical races and timestamps. --checkpoint writes a
resumable snapshot (periodically with --checkpoint-every); --resume
FILE fast-forwards past a checkpoint's events and continues with
byte-identical reports.

serve runs the multi-client analysis service: one blocking reader
thread per connection feeding a work-stealing worker pool, each
session an independent streaming detector. Sockets run with
TCP_NODELAY; a connection's reader pauses while more than 2^17 of
its decoded events wait unprocessed, and a reply not out within 5 s
severs its connection (see `tc_read_paused_total`/`tc_conn_severed_total` in
`metrics`). Text protocol: `open <order> <clock> [evict <n>]
[no-retire] [recycle]` or `resume <checkpoint>`, then text-format event lines;
`poll`/`races` report found races, `stats` one key=value line
(per-session detector fields plus server-scope uptime, connection and
wire-error counts), `timestamp <thread>`, `checkpoint <path>`, `use
<id>` rebinds to an earlier session, `close`, `shutdown`; `stats-all`
aggregates every session the connection opened in one reply; `metrics`
returns the full Prometheus-style exposition (counters, gauges,
latency summaries; terminated by `# EOF`) — it needs no handshake, so
`printf 'metrics\\n' | nc HOST PORT` scrapes a live server. Binary protocol (same
port, sniffed by first byte): length-prefixed frames batching events
for an explicit session id — or one multi-session frame carrying
batches for many ids — so one connection can fan into many sessions.
--smoke runs the self-test: three concurrent sessions (two text, one
binary) driven over real sockets, asserted equal to the batch
detectors (what `tcr race` runs), then a shutdown with a client still
connected. --auth TOKEN gates `shutdown` (and the cluster admin
commands) behind a shared secret compared in constant time; clients
authenticate with `auth <token>`. In cluster mode the same token
(identical on every node) also authenticates inter-node links, so
unauthenticated connections cannot speak the peer protocol.

serve --cluster runs one node of a static multi-node ring instead:
--peers lists every node's host:port (comma-separated, index = node
id) and --node says which entry this process is; the node binds its
own entry. Sessions are placed by consistent hash of their id, any
node transparently forwards lines and frames for sessions it does not
own (persistent FIFO inter-node links), and each owner streams
periodic TCCP checkpoint deltas (every --delta-every payloads, rsync
style against the last stable base) plus every in-flight frame to its
ring successor. A node death — detected by missed heartbeats — makes
the successor resume from the last checkpoint and replay the tail, so
clients reconnect to any survivor, `use <id>` their session, and read
race reports identical to an uninterrupted run. Eviction is permanent
(crash-stop model); a node mis-declared dead learns of its eviction
from peers and fences itself off by shutting down. A per-node matrix
clock tracks which deltas every peer has applied; only prefixes stable
across the ring are promoted to delta bases, which is what keeps the
shipped delta bytes bounded by the raw checkpoint bytes they replace.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn temp_dir(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tcr-test-{}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn no_args_shows_help() {
        assert_eq!(run(&[]), Err("help".to_owned()));
        assert_eq!(run(&args(&["--help"])), Err("help".to_owned()));
    }

    #[test]
    fn unknown_command_is_rejected() {
        let e = run(&args(&["frobnicate"])).unwrap_err();
        assert!(e.contains("unknown command"));
    }

    #[test]
    fn gen_requires_output() {
        let e = run(&args(&["gen", "--threads", "4"])).unwrap_err();
        assert!(e.contains("-o"));
    }

    #[test]
    fn gen_stats_race_convert_round_trip() {
        let dir = temp_dir("roundtrip");
        let bin = dir.join("t.tctr");
        let txt = dir.join("t.trace");
        let bin_s = bin.to_str().unwrap();
        let txt_s = txt.to_str().unwrap();

        // Generate a star trace in binary format.
        run(&args(&[
            "gen",
            "--scenario",
            "star",
            "--threads",
            "8",
            "--events",
            "2000",
            "-o",
            bin_s,
        ]))
        .unwrap();
        assert!(bin.exists());

        // Inspect, analyze and convert it.
        run(&args(&["stats", bin_s])).unwrap();
        run(&args(&["race", "--order", "hb", "--clock", "tc", bin_s])).unwrap();
        run(&args(&["race", "--order", "maz", "--clock", "vc", bin_s])).unwrap();
        run(&args(&["convert", bin_s, txt_s])).unwrap();
        assert!(txt.exists());

        // The text round trip parses and matches in size.
        let t1 = load(bin_s).unwrap();
        let t2 = load(txt_s).unwrap();
        assert_eq!(t1.len(), t2.len());

        // Timestamps print for small traces.
        run(&args(&["timestamps", "--order", "shb", txt_s])).unwrap();

        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn gen_workload_respects_flags() {
        let dir = temp_dir("workload");
        let path = dir.join("w.trace");
        let p = path.to_str().unwrap();
        run(&args(&[
            "gen",
            "--threads",
            "6",
            "--events",
            "3000",
            "--sync",
            "30",
            "--locks",
            "2",
            "--vars",
            "9",
            "-o",
            p,
        ]))
        .unwrap();
        let t = load(p).unwrap();
        assert_eq!(t.thread_count(), 6);
        assert!(t.lock_count() <= 2);
        assert!(t.var_count() <= 9);
        let sync = t.stats().sync_pct();
        assert!(sync > 10.0 && sync < 60.0, "sync% {sync} out of band");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn invalid_trace_files_error_cleanly() {
        let dir = temp_dir("badfile");
        let path = dir.join("bad.trace");
        std::fs::write(&path, "t0 rel m\n").unwrap(); // release without acquire
        let e = run(&args(&["stats", path.to_str().unwrap()])).unwrap_err();
        assert!(e.contains("invalid trace"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn conformance_quick_filter_passes() {
        // A filtered slice keeps the CLI test fast; the full quick sweep
        // runs in the tc-conformance crate's own tests.
        run(&args(&["conformance", "--filter", "star"])).unwrap();
    }

    #[test]
    fn conformance_detects_injected_fault_and_writes_repro() {
        let dir = temp_dir("conformance");
        let repro_dir = dir.join("repros");
        let e = run(&args(&[
            "conformance",
            "--filter",
            "workload-s0-v3",
            "--fault",
            "drop-race:hb",
            "--repro-dir",
            repro_dir.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(e.contains("failure"), "unexpected error: {e}");
        let repro = repro_dir.join("repro-0.trace");
        assert!(repro.exists(), "repro file missing");
        let text = std::fs::read_to_string(&repro).unwrap();
        assert!(text.contains("# conformance repro"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn conformance_rejects_bad_flags() {
        assert!(run(&args(&["conformance", "--fault", "explode"])).is_err());
        assert!(run(&args(&["conformance", "--filter", "no-such-case"])).is_err());
        assert!(run(&args(&["conformance", "positional"])).is_err());
        // Misspelled boolean flags must error, not silently run the
        // wrong sweep.
        let e = run(&args(&["conformance", "--ful"])).unwrap_err();
        assert!(e.contains("unknown flag"), "unexpected error: {e}");
        assert!(run(&args(&["gen", "--quick", "-o", "/tmp/x.trace"])).is_err());
    }

    #[test]
    fn gen_accepts_new_scenario_families() {
        let dir = temp_dir("families");
        for name in ["fork-join-tree", "pipeline"] {
            let path = dir.join(format!("{name}.trace"));
            run(&args(&[
                "gen",
                "--scenario",
                name,
                "--threads",
                "4",
                "--events",
                "300",
                "-o",
                path.to_str().unwrap(),
            ]))
            .unwrap();
            let t = load(path.to_str().unwrap()).unwrap();
            assert_eq!(t.thread_count(), 4);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let e = run(&args(&["stats", "/definitely/not/here.trace"])).unwrap_err();
        assert!(e.contains("cannot open"));
    }

    #[test]
    fn missing_or_malformed_traces_error_cleanly_on_every_subcommand() {
        // Audit: no subcommand taking a trace file may unwind on a
        // missing or malformed input — each must return a diagnostic.
        let missing = "/definitely/not/here.trace";
        for cmd in [
            vec!["stats", missing],
            vec!["race", missing],
            vec!["timestamps", missing],
            vec!["convert", missing, "/tmp/out.trace"],
            vec!["conformance", "--replay", missing],
            vec!["stream", missing],
        ] {
            let e = run(&args(&cmd)).unwrap_err();
            assert!(e.contains("cannot"), "cmd {cmd:?} gave `{e}`");
        }

        let dir = temp_dir("malformed");
        let bad = dir.join("bad.trace");
        std::fs::write(&bad, "t0 garbage-op x\n").unwrap();
        let bad_s = bad.to_str().unwrap();
        for cmd in [
            vec!["stats", bad_s],
            vec!["race", bad_s],
            vec!["conformance", "--replay", bad_s],
            vec!["stream", bad_s],
        ] {
            assert!(run(&args(&cmd)).is_err(), "cmd {cmd:?} accepted garbage");
        }
        // A truncated binary file must also fail cleanly.
        let bad_bin = dir.join("bad.tctr");
        std::fs::write(&bad_bin, [0x54u8, 0x43, 0x54]).unwrap();
        assert!(run(&args(&["stats", bad_bin.to_str().unwrap()])).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn conformance_replay_round_trips_a_repro() {
        let dir = temp_dir("replay");
        let repro_dir = dir.join("repros");
        // Produce a repro via an injected fault...
        run(&args(&[
            "conformance",
            "--filter",
            "workload-s0-v3",
            "--fault",
            "drop-race:hb",
            "--repro-dir",
            repro_dir.to_str().unwrap(),
        ]))
        .unwrap_err();
        let repro = repro_dir.join("repro-0.trace");
        let repro_s = repro.to_str().unwrap();
        // ...an honest replay passes, a faulty replay reproduces.
        run(&args(&["conformance", "--replay", repro_s])).unwrap();
        let e = run(&args(&[
            "conformance",
            "--replay",
            repro_s,
            "--fault",
            "drop-race:hb",
        ]))
        .unwrap_err();
        assert!(e.contains("fails conformance"), "unexpected: {e}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn dash_o_is_an_unknown_flag_where_a_command_writes_no_file() {
        let dir = temp_dir("dash-o");
        let trace = dir.join("t.trace");
        let trace_s = trace.to_str().unwrap();
        let copy = dir.join("copy.trace");
        let copy_s = copy.to_str().unwrap();
        run(&args(&[
            "gen",
            "--threads",
            "3",
            "--events",
            "200",
            "-o",
            trace_s,
        ]))
        .unwrap();
        let ignored = dir.join("x");
        let ignored_s = ignored.to_str().unwrap();
        for cmd in [
            vec!["race", "-o", ignored_s, trace_s],
            vec!["convert", "-o", ignored_s, trace_s, copy_s],
        ] {
            let e = run(&args(&cmd)).unwrap_err();
            assert!(e.contains("unknown flag"), "cmd {cmd:?} gave `{e}`");
        }
        assert!(!ignored.exists() && !copy.exists());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A writer that fails every write with `kind`.
    struct Failing(io::ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_pipe_ends_the_report_and_other_write_errors_surface() {
        let report = |out: &mut Failing| -> io::Result<()> {
            writeln!(out, "first line")?;
            writeln!(out, "second line")
        };
        assert_eq!(
            write_report(&mut Failing(io::ErrorKind::BrokenPipe), report),
            Ok(())
        );
        assert!(write_report(&mut Failing(io::ErrorKind::WriteZero), report).is_err());
    }

    #[test]
    fn stream_matches_race_and_checkpoint_resume_continues() {
        let dir = temp_dir("stream");
        let trace = dir.join("t.trace");
        let trace_s = trace.to_str().unwrap();
        run(&args(&[
            "gen",
            "--threads",
            "5",
            "--events",
            "2000",
            "--sync",
            "10",
            "--vars",
            "4",
            "-o",
            trace_s,
        ]))
        .unwrap();
        // Batch and streaming agree (asserted library-side; here the
        // CLI paths must simply both succeed on the same file).
        run(&args(&["race", "--order", "shb", "--clock", "hc", trace_s])).unwrap();
        run(&args(&[
            "stream", "--order", "shb", "--clock", "hc", "--limit", "5", trace_s,
        ]))
        .unwrap();

        // Periodic checkpoints, then a resume that finishes the file.
        let cp = dir.join("session.tccp");
        let cp_s = cp.to_str().unwrap();
        run(&args(&[
            "stream",
            "--checkpoint",
            cp_s,
            "--checkpoint-every",
            "500",
            trace_s,
        ]))
        .unwrap();
        assert!(cp.exists(), "periodic checkpoint file missing");
        run(&args(&["stream", "--resume", cp_s, trace_s])).unwrap();

        // --resume restores the checkpoint's configuration; explicit
        // order/clock/policy flags alongside it are rejected, not
        // silently ignored.
        let e = run(&args(&[
            "stream", "--resume", cp_s, "--order", "shb", trace_s,
        ]))
        .unwrap_err();
        assert!(e.contains("drop --order"), "{e}");

        // A corrupted checkpoint errors cleanly.
        std::fs::write(&cp, b"garbage").unwrap();
        let e = run(&args(&["stream", "--resume", cp_s, trace_s])).unwrap_err();
        assert!(e.contains("checkpoint") || e.contains("magic"), "{e}");

        // Flag validation.
        let e = run(&args(&["stream", "--checkpoint-every", "10", trace_s])).unwrap_err();
        assert!(e.contains("--checkpoint"), "{e}");
        assert!(run(&args(&["stream"])).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn serve_smoke_runs_end_to_end() {
        run(&args(&["serve", "--smoke"])).unwrap();
        // Flag validation without starting a server.
        assert!(run(&args(&["serve", "positional"])).is_err());
        let e = run(&args(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--port",
            "1",
            "--smoke",
        ]))
        .unwrap_err();
        assert!(e.contains("not both") || e.contains("smoke"), "{e}");
    }

    #[test]
    fn bad_order_and_clock_are_rejected() {
        let dir = temp_dir("badflags");
        let path = dir.join("t.trace");
        let p = path.to_str().unwrap();
        run(&args(&[
            "gen",
            "--threads",
            "3",
            "--events",
            "300",
            "-o",
            p,
        ]))
        .unwrap();
        assert!(run(&args(&["race", "--order", "cp", p])).is_err());
        // `race` and `stream` share one `--clock` parser: the same
        // spellings pass and the same ones fail, with one message.
        for cmd in ["race", "stream"] {
            for clock in ["tc", "vc", "hc", "tree", "vector", "hybrid"] {
                run(&args(&[cmd, "--clock", clock, p])).unwrap();
            }
        }
        for clock in ["TC", "quartz"] {
            let race = run(&args(&["race", "--clock", clock, p])).unwrap_err();
            let stream = run(&args(&["stream", "--clock", clock, p])).unwrap_err();
            assert_eq!(race, stream);
            assert!(race.contains(clock), "{race}");
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}
