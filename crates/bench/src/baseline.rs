//! The `tcr bench --json` perf baseline: a schema-stable snapshot of
//! hot-path cost, recorded per PR as `BENCH_<pr>.json`.
//!
//! Every record is one *(scenario × threads) × partial order × clock
//! backend* cell with the numbers that matter for the trajectory:
//!
//! - `seconds` — mean wall time over [`REPETITIONS`] pooled runs,
//!   after one untimed warm-up repetition that grows the clock buffers
//!   (the timed runs are allocation-free, so the mean reflects steady
//!   state);
//! - `joins` / `copies` / `deep_copies` — operation counts;
//! - `vt_work` / `ds_work` — the paper's Section 4 work metrics;
//! - `peak_clock_bytes` — heap owned by the engine's clocks after the
//!   run (clocks only grow, so the value after a run is the run's peak);
//! - `pool_fresh` / `pool_recycled` — the cell's [`ClockPool`] traffic
//!   counters, recorded so CI catches allocation regressions: in
//!   steady state `pool_fresh` stays at the cold-start count and
//!   everything else recycles.
//!
//! The core scenario set is the paper's Figure 10 quartet (single-lock,
//! skewed-locks, star, pairwise), where the TC-vs-VC comparison is
//! controlled and reproducible; the *full* scale additionally folds in
//! the five structured workload families (fork-join trees, barrier
//! phases, pipelines, read-mostly contention, bursty channels) at a
//! budgeted size, so access-heavy workloads appear in the trajectory
//! without blowing the CI time budget. [`validate`] checks a produced
//! document against the schema — CI runs it on every PR and uploads the
//! artifact so the perf trajectory is visible over time.

use tc_core::{ClockPool, HybridClock, LogicalClock, TreeClock, VectorClock};
use tc_orders::{HbEngine, MazEngine, PartialOrderKind, RunMetrics, ShbEngine};
use tc_trace::gen::Scenario;
use tc_trace::Trace;

use crate::json::Value;
use crate::runner::{measure_clock, ClockKind, Mode, REPETITIONS};

/// Identifier of the document format (the `schema` field).
pub const SCHEMA: &str = "treeclocks/bench-baseline";

/// Version of the document format (the `version` field). Bump on any
/// breaking change to the record fields.
///
/// v2: added the `hybrid` backend (every configuration now carries
/// three backend records) and the `pool_fresh` / `pool_recycled`
/// telemetry fields.
///
/// v3: records are heterogeneous, discriminated by a required `kind`
/// field — `engine` (the v2 grid cells), `ingest` (events/sec through
/// the live `tcr serve` socket path, text vs binary × single-session
/// vs 1000-session fan-in), `suite` (Table-3-style per-benchmark
/// entries with per-backend wall times), and `calibration` (the
/// hybrid's dense-cutoff sensitivity).
///
/// v4: added the `parallel` record kind (epoch-batched intra-session
/// detection throughput per backend × worker count, with a
/// `workers: 0` sequential baseline row), and the binary fan-in
/// ingest cell now measures multi-session frames synchronized by one
/// `stats-all` round trip instead of per-session `use`/`stats` pairs.
///
/// v5: added the `churn` record kind (spawn/join-churn memory cells:
/// the same trace streamed with identity-based slot recycling on and
/// off, with `recycled_slots` and both `peak_clock_bytes_on` /
/// `peak_clock_bytes_off` columns), and the structured-family grid of
/// `--full` now includes the `spawn-join-churn` scenario.
///
/// v6: added the `telemetry` record kind (the always-on telemetry
/// overhead A/B: best single-session binary ingest events/sec with the
/// live registry vs the `NullRecorder` configuration, plus the derived
/// `overhead_pct`) and the `phase` record kind (the epoch-parallel
/// pipeline's per-phase latency summary — count, total and
/// p50/p95/p99 microseconds for partition/scatter/execute/gather/
/// barrier at a recorded worker count).
///
/// v7: added the `cluster` record kind (multi-node serve cells from
/// the `tc_cluster` ring, discriminated by a `cell` field: `forward`
/// is the owner-gateway vs peer-gateway forwarding tax, `failover` is
/// the crash-to-promoted recovery latency, `stable-gc` bounds shipped
/// checkpoint-delta bytes by the raw checkpoint bytes they replaced)
/// and the `obs-period` record kind (the hybrid's tree-observation-
/// period A/B on the dense star workload, which justified widening the
/// default period from 2 to 4).
///
/// v8: removed the `parallel` and `phase` record kinds together with
/// the epoch-parallel pipeline they measured; a v8 document carrying
/// either kind fails validation as an unknown kind.
pub const SCHEMA_VERSION: u64 = 8;

/// One measured cell of the baseline grid.
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
    /// `CopyCheckMonotone` deep-copy fallbacks.
    pub deep_copies: u64,
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

/// One Table-3-style suite entry folded into the baseline: the trace's
/// shape plus per-backend HB wall times, so the committed JSON carries
/// the paper-suite trajectory alongside the scenario grid.
#[derive(Clone, Debug)]
pub struct SuiteFoldRecord {
    /// The suite entry's stable name.
    pub name: String,
    /// Thread count of the generated trace.
    pub threads: u32,
    /// Event count of the generated trace.
    pub events: usize,
    /// Percentage of synchronization events (the paper's Table 3
    /// `sync%` column).
    pub sync_pct: f64,
    /// Mean HB wall time with the tree clock.
    pub tree_seconds: f64,
    /// Mean HB wall time with the vector clock.
    pub vector_seconds: f64,
    /// Mean HB wall time with the hybrid clock.
    pub hybrid_seconds: f64,
}

/// One dense-cutoff calibration cell: the hybrid's HB wall time on a
/// mid-density workload at a pinned [`tc_core::hybrid`] cutoff. Paired
/// records (same scenario, different cutoff) expose the latency delta
/// that justified the calibrated default.
#[derive(Clone, Debug)]
pub struct CalibrationRecord {
    /// Scenario name.
    pub scenario: String,
    /// Thread count of the generated trace.
    pub threads: u32,
    /// Event count of the generated trace.
    pub events: usize,
    /// The dense cutoff (entries per op) pinned for this run.
    pub cutoff: u64,
    /// Mean HB wall time with the hybrid clock at that cutoff.
    pub seconds: f64,
}

/// Folds the full 39-entry synthetic suite (at quick scale) into
/// baseline records: HB wall times for all three backends per entry.
pub fn collect_suite_fold(mut progress: impl FnMut(&str)) -> Vec<SuiteFoldRecord> {
    let mut tree_pool = ClockPool::<TreeClock>::new();
    let mut vector_pool = ClockPool::<VectorClock>::new();
    let mut hybrid_pool = ClockPool::<HybridClock>::new();
    crate::suite::suite()
        .iter()
        .map(|entry| {
            progress(&format!("suite/{}", entry.name));
            let trace = entry.generate(crate::suite::Scale::Quick);
            let sync = trace.iter().filter(|e| e.op.is_sync()).count();
            let order = PartialOrderKind::Hb;
            SuiteFoldRecord {
                name: entry.name.to_owned(),
                threads: trace.thread_count() as u32,
                events: trace.len(),
                sync_pct: 100.0 * sync as f64 / trace.len().max(1) as f64,
                tree_seconds: measure_clock::<TreeClock>(&trace, order, Mode::Po, &mut tree_pool)
                    .seconds,
                vector_seconds: measure_clock::<VectorClock>(
                    &trace,
                    order,
                    Mode::Po,
                    &mut vector_pool,
                )
                .seconds,
                hybrid_seconds: measure_clock::<HybridClock>(
                    &trace,
                    order,
                    Mode::Po,
                    &mut hybrid_pool,
                )
                .seconds,
            }
        })
        .collect()
}

/// Measures the hybrid's dense-cutoff sensitivity: pipeline and bursty
/// workloads whose arenas straddle the calibrated default, each run at
/// the conservative 2-cache-line cutoff and at the calibrated one. The
/// cutoff is pinned per pool ([`ClockPool::set_dense_cutoff`]), so the
/// process-wide default is never touched — concurrent benches and
/// tests see nothing.
pub fn collect_calibration(mut progress: impl FnMut(&str)) -> Vec<CalibrationRecord> {
    use tc_core::hybrid::{CACHE_LINE_CUTOFF, DEFAULT_DENSE_CUTOFF};
    let mut records = Vec::new();
    for scenario in [Scenario::Pipeline, Scenario::BurstyChannels] {
        let threads = 160; // past the calibrated cutoff, so it can bind
        let trace = scenario.generate(threads, 30_000, 0xCA11);
        for cutoff in [CACHE_LINE_CUTOFF, DEFAULT_DENSE_CUTOFF] {
            progress(&format!("calibration/{scenario}/{cutoff}"));
            let mut pool = ClockPool::new();
            pool.set_dense_cutoff(Some(cutoff));
            let m = measure_clock::<HybridClock>(&trace, PartialOrderKind::Hb, Mode::Po, &mut pool);
            records.push(CalibrationRecord {
                scenario: scenario.to_string(),
                threads,
                events: trace.len(),
                cutoff,
                seconds: m.seconds,
            });
        }
    }
    records
}

/// One tree-observation-period A/B cell: the hybrid's HB wall time on
/// the dense star workload at a pinned copy-observation period
/// ([`tc_core::hybrid`]'s `DEFAULT_TREE_OBS_PERIOD` sampling cadence).
/// Paired records (same scenario, different period) expose the latency
/// delta that justified widening the default from 2 to 4.
#[derive(Clone, Debug)]
pub struct ObsPeriodRecord {
    /// Scenario name.
    pub scenario: String,
    /// Thread count of the generated trace.
    pub threads: u32,
    /// Event count of the generated trace.
    pub events: usize,
    /// The tree-observation period pinned for this run.
    pub period: u8,
    /// Mean HB wall time with the hybrid clock at that period.
    pub seconds: f64,
}

/// Measures the hybrid's tree-observation-period sensitivity: the
/// dense star workload (where dense-mode copies dominate, so the
/// sampling cadence is on the hot path) run at the legacy period 2 and
/// at the calibrated default. The period is pinned per pool
/// ([`ClockPool::set_tree_obs_period`]), so the process-wide default
/// is never touched.
pub fn collect_obs_period(mut progress: impl FnMut(&str)) -> Vec<ObsPeriodRecord> {
    let threads = 360;
    let trace = Scenario::Star.generate(threads, 25_000, 0x0B50);
    let mut records = Vec::new();
    for period in [2u8, tc_core::DEFAULT_TREE_OBS_PERIOD] {
        progress(&format!("obs-period/star/{period}"));
        let mut pool = ClockPool::new();
        pool.set_tree_obs_period(Some(period));
        let m = measure_clock::<HybridClock>(&trace, PartialOrderKind::Hb, Mode::Po, &mut pool);
        records.push(ObsPeriodRecord {
            scenario: Scenario::Star.to_string(),
            threads,
            events: trace.len(),
            period,
            seconds: m.seconds,
        });
    }
    records
}

/// One spawn/join-churn memory cell: the same churn trace driven
/// through the streaming detector twice — identity-based slot
/// recycling on and off — recording the recycled-slot count and the
/// peak clock footprint of each run. The paired peak columns are the
/// baseline's bounded-memory evidence: with recycling on, clock width
/// tracks the live-thread cap instead of the total spawn count.
#[derive(Clone, Debug)]
pub struct ChurnRecord {
    /// Scenario name (`spawn-join-churn`).
    pub scenario: String,
    /// Total threads ever spawned across the trace.
    pub total_threads: u32,
    /// The configured live-width cap (workers per wave).
    pub live_threads: u32,
    /// Event count of the generated trace.
    pub events: usize,
    /// Wall time of the recycling-on streaming run.
    pub seconds: f64,
    /// Slots the recycling run reclaimed and rebound.
    pub recycled_slots: u64,
    /// Peak clock bytes with recycling on.
    pub peak_clock_bytes_on: usize,
    /// Peak clock bytes with recycling off (same trace, same backend).
    pub peak_clock_bytes_off: usize,
}

/// Measures the spawn/join-churn memory cells: hybrid-backend
/// streaming runs over churn traces whose total spawn count grows at a
/// fixed live width, with recycling on and off.
pub fn collect_churn(mut progress: impl FnMut(&str)) -> Vec<ChurnRecord> {
    use tc_stream::{DetectorConfig, IncrementalDetector};
    let live = 16u32;
    let mut records = Vec::new();
    // A 10x total-spawn growth at a fixed live width: the paired peak
    // columns show recycling-on staying flat while recycling-off grows
    // with the total-ever thread dimension.
    for (total, events) in [(128u32, 20_000usize), (1280, 40_000)] {
        progress(&format!("churn/{total}"));
        let trace = tc_trace::gen::families::spawn_join_churn_sized(total, live, events, 0xC4A2);
        let run = |recycle: bool| -> (f64, u64, usize) {
            let config = DetectorConfig {
                recycle_slots: recycle,
                ..DetectorConfig::default()
            };
            let mut d = IncrementalDetector::<HybridClock>::new(config);
            let start = std::time::Instant::now();
            for e in &trace {
                d.feed(e).expect("churn traces are well-formed");
            }
            (
                start.elapsed().as_secs_f64(),
                d.recycled_slots(),
                d.peak_clock_bytes(),
            )
        };
        let (seconds, recycled_slots, peak_on) = run(true);
        let (_, _, peak_off) = run(false);
        records.push(ChurnRecord {
            scenario: "spawn-join-churn".to_owned(),
            total_threads: total,
            live_threads: live,
            events: trace.len(),
            seconds,
            recycled_slots,
            peak_clock_bytes_on: peak_on,
            peak_clock_bytes_off: peak_off,
        });
    }
    records
}

/// The shape of one baseline collection: which grids to run and at what
/// event budget. The constructors encode the three CLI spellings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BaselineScale {
    /// Thread counts of the FIG10 grid. High enough that the tree
    /// clock's sublinear operations can dominate its pointer-chasing
    /// overhead (the paper's Figure 10 sweeps 10–360).
    pub threads: &'static [u32],
    /// Events per FIG10 trace.
    pub events: usize,
    /// Also measure the five structured workload families.
    pub families: bool,
    /// Thread count of the family traces.
    pub family_threads: u32,
    /// Events per family trace — the per-record runtime budget (family
    /// traces are access-heavy, so they run at a smaller event count
    /// than the sync-only FIG10 quartet to keep each record's
    /// warm-up + 3 timed + 1 counted runs well under a second).
    pub family_events: usize,
    /// Mode string recorded in the document.
    pub mode: &'static str,
}

impl BaselineScale {
    /// The CI scale: one thread count, short traces, FIG10 only.
    pub fn quick() -> Self {
        BaselineScale {
            threads: &[360],
            events: 25_000,
            families: false,
            family_threads: 64,
            family_events: 10_000,
            mode: "quick",
        }
    }

    /// The default scale: two thread counts, full-length FIG10 traces.
    pub fn default_scale() -> Self {
        BaselineScale {
            threads: &[128, 360],
            events: 100_000,
            families: false,
            family_threads: 64,
            family_events: 40_000,
            mode: "default",
        }
    }

    /// The broad scale: the chosen base grid plus the five structured
    /// families at their budgeted size.
    pub fn full(quick: bool) -> Self {
        let base = if quick {
            BaselineScale::quick()
        } else {
            BaselineScale::default_scale()
        };
        BaselineScale {
            families: true,
            mode: if quick { "full-quick" } else { "full" },
            ..base
        }
    }
}

/// Runs the baseline grid at `scale`: FIG10 scenarios (and, at full
/// scale, the structured families) × HB/SHB/MAZ × tree/vector/hybrid.
/// `progress` is called before each scenario×threads cell.
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
        deep_copies: metrics.deep_copies,
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

/// A full baseline document: engine grid cells plus the other record
/// families (ingest throughput, suite fold, cutoff calibration, churn,
/// telemetry, cluster, observation period).
#[derive(Clone, Debug, Default)]
pub struct BenchDoc {
    /// Engine grid cells (`kind: "engine"`).
    pub engine: Vec<BaselineRecord>,
    /// Ingest throughput cells (`kind: "ingest"`).
    pub ingest: Vec<crate::ingest::IngestRecord>,
    /// Suite-fold entries (`kind: "suite"`).
    pub suite: Vec<SuiteFoldRecord>,
    /// Dense-cutoff calibration cells (`kind: "calibration"`).
    pub calibration: Vec<CalibrationRecord>,
    /// Spawn/join-churn memory cells (`kind: "churn"`).
    pub churn: Vec<ChurnRecord>,
    /// Telemetry-overhead A/B cells (`kind: "telemetry"`).
    pub telemetry: Vec<crate::telemetry::TelemetryOverheadRecord>,
    /// Multi-node serve cells (`kind: "cluster"`).
    pub cluster: Vec<crate::cluster::ClusterRecord>,
    /// Tree-observation-period A/B cells (`kind: "obs-period"`).
    pub obs_period: Vec<ObsPeriodRecord>,
}

/// Renders engine-only records as the schema-stable JSON document
/// (the `tcr bench --trace FILE` path).
pub fn to_json(records: &[BaselineRecord], mode: &str) -> String {
    to_json_doc(
        &BenchDoc {
            engine: records.to_vec(),
            ..BenchDoc::default()
        },
        mode,
    )
}

/// Renders a full document — all four record families, each entry
/// discriminated by its `kind` field.
pub fn to_json_doc(doc: &BenchDoc, mode: &str) -> String {
    let mut records: Vec<Value> = doc
        .engine
        .iter()
        .map(|r| {
            Value::obj([
                ("kind", "engine".into()),
                ("scenario", r.scenario.as_str().into()),
                ("threads", r.threads.into()),
                ("events", r.events.into()),
                ("order", r.order.to_string().into()),
                ("backend", r.backend.name().into()),
                ("seconds", r.seconds.into()),
                ("joins", r.joins.into()),
                ("copies", r.copies.into()),
                ("deep_copies", r.deep_copies.into()),
                ("vt_work", r.vt_work.into()),
                ("ds_work", r.ds_work.into()),
                ("peak_clock_bytes", r.peak_clock_bytes.into()),
                ("pool_fresh", r.pool_fresh.into()),
                ("pool_recycled", r.pool_recycled.into()),
            ])
        })
        .collect();
    records.extend(doc.ingest.iter().map(|r| {
        Value::obj([
            ("kind", "ingest".into()),
            ("mode", r.mode.into()),
            ("sessions", r.sessions.into()),
            ("events", r.events.into()),
            ("seconds", r.seconds.into()),
            ("events_per_sec", r.events_per_sec().into()),
        ])
    }));
    records.extend(doc.suite.iter().map(|r| {
        Value::obj([
            ("kind", "suite".into()),
            ("name", r.name.as_str().into()),
            ("threads", r.threads.into()),
            ("events", r.events.into()),
            ("sync_pct", r.sync_pct.into()),
            ("tree_seconds", r.tree_seconds.into()),
            ("vector_seconds", r.vector_seconds.into()),
            ("hybrid_seconds", r.hybrid_seconds.into()),
        ])
    }));
    records.extend(doc.calibration.iter().map(|r| {
        Value::obj([
            ("kind", "calibration".into()),
            ("scenario", r.scenario.as_str().into()),
            ("threads", r.threads.into()),
            ("events", r.events.into()),
            ("cutoff", r.cutoff.into()),
            ("seconds", r.seconds.into()),
        ])
    }));
    records.extend(doc.churn.iter().map(|r| {
        Value::obj([
            ("kind", "churn".into()),
            ("scenario", r.scenario.as_str().into()),
            ("total_threads", r.total_threads.into()),
            ("live_threads", r.live_threads.into()),
            ("events", r.events.into()),
            ("seconds", r.seconds.into()),
            ("recycled_slots", r.recycled_slots.into()),
            ("peak_clock_bytes_on", r.peak_clock_bytes_on.into()),
            ("peak_clock_bytes_off", r.peak_clock_bytes_off.into()),
        ])
    }));
    records.extend(doc.telemetry.iter().map(|r| {
        Value::obj([
            ("kind", "telemetry".into()),
            ("events", r.events.into()),
            ("on_events_per_sec", r.on_events_per_sec.into()),
            ("off_events_per_sec", r.off_events_per_sec.into()),
            ("overhead_pct", r.overhead_pct().into()),
        ])
    }));
    records.extend(doc.cluster.iter().map(|r| {
        use crate::cluster::ClusterRecord;
        match r {
            ClusterRecord::Forward {
                nodes,
                events,
                local_seconds,
                forwarded_seconds,
            } => Value::obj([
                ("kind", "cluster".into()),
                ("cell", "forward".into()),
                ("nodes", (*nodes).into()),
                ("events", (*events).into()),
                ("local_seconds", (*local_seconds).into()),
                ("forwarded_seconds", (*forwarded_seconds).into()),
                ("local_events_per_sec", r.local_events_per_sec().into()),
                (
                    "forwarded_events_per_sec",
                    r.forwarded_events_per_sec().into(),
                ),
                ("overhead_pct", r.overhead_pct().into()),
            ]),
            ClusterRecord::Failover {
                nodes,
                sessions,
                events,
                recovery_ms,
            } => Value::obj([
                ("kind", "cluster".into()),
                ("cell", "failover".into()),
                ("nodes", (*nodes).into()),
                ("sessions", (*sessions).into()),
                ("events", (*events).into()),
                ("recovery_ms", (*recovery_ms).into()),
            ]),
            ClusterRecord::StableGc {
                nodes,
                events,
                deltas,
                delta_bytes,
                snapshot_bytes,
            } => Value::obj([
                ("kind", "cluster".into()),
                ("cell", "stable-gc".into()),
                ("nodes", (*nodes).into()),
                ("events", (*events).into()),
                ("deltas", (*deltas).into()),
                ("delta_bytes", (*delta_bytes).into()),
                ("snapshot_bytes", (*snapshot_bytes).into()),
            ]),
        }
    }));
    records.extend(doc.obs_period.iter().map(|r| {
        Value::obj([
            ("kind", "obs-period".into()),
            ("scenario", r.scenario.as_str().into()),
            ("threads", r.threads.into()),
            ("events", r.events.into()),
            ("period", u64::from(r.period).into()),
            ("seconds", r.seconds.into()),
        ])
    }));
    let doc = Value::obj([
        ("schema", SCHEMA.into()),
        ("version", SCHEMA_VERSION.into()),
        ("mode", mode.into()),
        ("repetitions", u64::from(REPETITIONS).into()),
        ("records", Value::Arr(records)),
    ]);
    let mut text = doc.to_string();
    text.push('\n');
    text
}

/// Aggregate facts extracted by [`validate`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BaselineSummary {
    /// Total records in the document.
    pub records: usize,
    /// Distinct scenario × threads × order configurations.
    pub configs: usize,
    /// Configurations where the tree clock's wall time is at most the
    /// vector clock's.
    pub tree_wins: usize,
    /// Configurations where the hybrid clock's wall time is at most
    /// twice the vector clock's (the dense-regime target) — the
    /// trajectory number for the adaptive representation.
    pub hybrid_within_2x: usize,
    /// Ingest records in the document.
    pub ingest: usize,
    /// Suite-fold records in the document.
    pub suite: usize,
    /// Calibration records in the document.
    pub calibration: usize,
    /// Best binary-over-text events/sec ratio among ingest cells with
    /// matching session counts (0.0 when the document has none).
    pub binary_speedup: f64,
    /// Spawn/join-churn memory records in the document.
    pub churn: usize,
    /// Telemetry-overhead A/B records in the document.
    pub telemetry: usize,
    /// Worst `overhead_pct` among telemetry records (0.0 when the
    /// document has none; negative means telemetry-on was faster).
    pub telemetry_overhead_pct: f64,
    /// Multi-node serve records in the document.
    pub cluster: usize,
    /// Tree-observation-period A/B records in the document.
    pub obs_period: usize,
    /// Worst `overhead_pct` among cluster forward cells (0.0 when the
    /// document has none; negative means the forwarded path was faster
    /// than the noise floor).
    pub cluster_forward_overhead_pct: f64,
    /// Worst `recovery_ms` among cluster failover cells (0.0 when the
    /// document has none).
    pub cluster_recovery_ms: f64,
}

const REQUIRED_NUMS: [&str; 10] = [
    "threads",
    "events",
    "seconds",
    "joins",
    "copies",
    "deep_copies",
    "vt_work",
    "ds_work",
    "pool_fresh",
    "pool_recycled",
];

const BACKENDS: [&str; 3] = ["tree", "vector", "hybrid"];

/// Parses and schema-checks a baseline document.
///
/// # Errors
///
/// Returns a message naming the first offending field: wrong
/// schema/version, a record missing a field or with a mistyped value,
/// or a configuration missing one of its three backends.
pub fn validate(text: &str) -> Result<BaselineSummary, String> {
    let doc = Value::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => {}
        other => return Err(format!("schema is {other:?}, expected {SCHEMA:?}")),
    }
    match doc.get("version").and_then(Value::as_num) {
        Some(v) if v == SCHEMA_VERSION as f64 => {}
        other => return Err(format!("version is {other:?}, expected {SCHEMA_VERSION}")),
    }
    let records = doc
        .get("records")
        .and_then(Value::as_arr)
        .ok_or("missing `records` array")?;
    if records.is_empty() {
        return Err("`records` is empty".into());
    }

    // (scenario, threads, order) -> seconds per backend, BACKENDS order.
    type BackendSeconds = [Option<f64>; 3];
    let mut configs: Vec<(String, BackendSeconds)> = Vec::new();
    // (sessions, events/sec) per ingest mode, for the speedup summary.
    let mut ingest_cells: Vec<(&str, f64, f64)> = Vec::new();
    let (mut ingest, mut suite, mut calibration, mut churn, mut telemetry) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    let mut telemetry_overhead_pct = 0.0f64;
    let (mut cluster, mut obs_period) = (0usize, 0usize);
    let mut cluster_forward_overhead_pct = 0.0f64;
    let mut cluster_recovery_ms = 0.0f64;
    for (i, r) in records.iter().enumerate() {
        let field = |name: &str| {
            r.get(name)
                .ok_or_else(|| format!("record {i}: missing field `{name}`"))
        };
        let num_field = |name: &str| -> Result<f64, String> {
            let v = r
                .get(name)
                .ok_or_else(|| format!("record {i}: missing field `{name}`"))?
                .as_num()
                .ok_or_else(|| format!("record {i}: `{name}` is not a number"))?;
            if v < 0.0 {
                return Err(format!("record {i}: `{name}` is negative"));
            }
            Ok(v)
        };
        let kind = field("kind")?
            .as_str()
            .ok_or_else(|| format!("record {i}: `kind` is not a string"))?;
        match kind {
            "engine" => {} // validated by the grid logic below
            "ingest" => {
                ingest += 1;
                let mode = field("mode")?
                    .as_str()
                    .ok_or_else(|| format!("record {i}: `mode` is not a string"))?;
                if !["text", "binary"].contains(&mode) {
                    return Err(format!("record {i}: unknown ingest mode `{mode}`"));
                }
                let sessions = num_field("sessions")?;
                num_field("events")?;
                num_field("seconds")?;
                let rate = num_field("events_per_sec")?;
                if sessions < 1.0 {
                    return Err(format!("record {i}: ingest `sessions` must be >= 1"));
                }
                ingest_cells.push((mode, sessions, rate));
                continue;
            }
            "suite" => {
                suite += 1;
                field("name")?
                    .as_str()
                    .ok_or_else(|| format!("record {i}: `name` is not a string"))?;
                for name in [
                    "threads",
                    "events",
                    "sync_pct",
                    "tree_seconds",
                    "vector_seconds",
                    "hybrid_seconds",
                ] {
                    num_field(name)?;
                }
                continue;
            }
            "calibration" => {
                calibration += 1;
                field("scenario")?
                    .as_str()
                    .ok_or_else(|| format!("record {i}: `scenario` is not a string"))?;
                for name in ["threads", "events", "seconds"] {
                    num_field(name)?;
                }
                if num_field("cutoff")? < 1.0 {
                    return Err(format!("record {i}: calibration `cutoff` must be >= 1"));
                }
                continue;
            }
            "churn" => {
                churn += 1;
                field("scenario")?
                    .as_str()
                    .ok_or_else(|| format!("record {i}: `scenario` is not a string"))?;
                for name in [
                    "total_threads",
                    "live_threads",
                    "events",
                    "seconds",
                    "recycled_slots",
                    "peak_clock_bytes_on",
                    "peak_clock_bytes_off",
                ] {
                    num_field(name)?; // rejects missing and negative values
                }
                if num_field("live_threads")? < 2.0 {
                    return Err(format!("record {i}: churn `live_threads` must be >= 2"));
                }
                continue;
            }
            "telemetry" => {
                telemetry += 1;
                num_field("events")?;
                if num_field("on_events_per_sec")? <= 0.0 || num_field("off_events_per_sec")? <= 0.0
                {
                    return Err(format!(
                        "record {i}: telemetry rates must be positive (a zero rate \
                         means a configuration was never measured)"
                    ));
                }
                // Unlike every other number, the tax may legitimately
                // be negative (telemetry-on faster than the noise
                // floor), so it skips `num_field`'s sign check.
                let pct = field("overhead_pct")?
                    .as_num()
                    .ok_or_else(|| format!("record {i}: `overhead_pct` is not a number"))?;
                telemetry_overhead_pct = telemetry_overhead_pct.max(pct);
                continue;
            }
            "cluster" => {
                cluster += 1;
                let cell = field("cell")?
                    .as_str()
                    .ok_or_else(|| format!("record {i}: `cell` is not a string"))?;
                match cell {
                    "forward" => {
                        for name in [
                            "nodes",
                            "events",
                            "local_seconds",
                            "forwarded_seconds",
                            "local_events_per_sec",
                            "forwarded_events_per_sec",
                        ] {
                            num_field(name)?;
                        }
                        // The tax may legitimately be negative (the
                        // forwarded run landing under the noise
                        // floor), so it skips `num_field`'s sign check.
                        let pct = field("overhead_pct")?
                            .as_num()
                            .ok_or_else(|| format!("record {i}: `overhead_pct` is not a number"))?;
                        cluster_forward_overhead_pct = cluster_forward_overhead_pct.max(pct);
                    }
                    "failover" => {
                        for name in ["nodes", "sessions", "events"] {
                            num_field(name)?;
                        }
                        cluster_recovery_ms = cluster_recovery_ms.max(num_field("recovery_ms")?);
                    }
                    "stable-gc" => {
                        for name in ["nodes", "events", "deltas"] {
                            num_field(name)?;
                        }
                        let delta_bytes = num_field("delta_bytes")?;
                        let snapshot_bytes = num_field("snapshot_bytes")?;
                        if delta_bytes > snapshot_bytes {
                            return Err(format!(
                                "record {i}: stable-gc delta bytes exceed snapshot bytes \
                                 ({delta_bytes} vs {snapshot_bytes}) — the stable-prefix \
                                 GC is not engaging"
                            ));
                        }
                    }
                    other => return Err(format!("record {i}: unknown cluster cell `{other}`")),
                }
                continue;
            }
            "obs-period" => {
                obs_period += 1;
                field("scenario")?
                    .as_str()
                    .ok_or_else(|| format!("record {i}: `scenario` is not a string"))?;
                for name in ["threads", "events", "seconds"] {
                    num_field(name)?;
                }
                if num_field("period")? < 1.0 {
                    return Err(format!("record {i}: obs-period `period` must be >= 1"));
                }
                continue;
            }
            other => return Err(format!("record {i}: unknown record kind `{other}`")),
        }
        let scenario = field("scenario")?
            .as_str()
            .ok_or_else(|| format!("record {i}: `scenario` is not a string"))?;
        let order = field("order")?
            .as_str()
            .ok_or_else(|| format!("record {i}: `order` is not a string"))?;
        if !["HB", "SHB", "MAZ"].contains(&order) {
            return Err(format!("record {i}: unknown order `{order}`"));
        }
        let backend = field("backend")?
            .as_str()
            .ok_or_else(|| format!("record {i}: `backend` is not a string"))?;
        let Some(backend_slot) = BACKENDS.iter().position(|b| *b == backend) else {
            return Err(format!("record {i}: unknown backend `{backend}`"));
        };
        for name in REQUIRED_NUMS {
            let v = field(name)?
                .as_num()
                .ok_or_else(|| format!("record {i}: `{name}` is not a number"))?;
            if v < 0.0 {
                return Err(format!("record {i}: `{name}` is negative"));
            }
        }
        // peak_clock_bytes rides along but is representation-specific
        // enough to keep out of the cross-field checks.
        field("peak_clock_bytes")?
            .as_num()
            .ok_or_else(|| format!("record {i}: `peak_clock_bytes` is not a number"))?;

        let threads = field("threads")?.as_num().unwrap_or(0.0);
        let seconds = field("seconds")?.as_num().unwrap_or(0.0);
        let key = format!("{scenario}/{threads}/{order}");
        let entry = match configs.iter_mut().find(|(k, _)| *k == key) {
            Some((_, entry)) => entry,
            None => {
                configs.push((key, [None; 3]));
                &mut configs.last_mut().expect("just pushed").1
            }
        };
        entry[backend_slot] = Some(seconds);
    }

    let mut tree_wins = 0;
    let mut hybrid_within_2x = 0;
    for (key, seconds) in &configs {
        let [Some(tree), Some(vector), Some(hybrid)] = seconds else {
            return Err(format!("configuration `{key}` is missing a backend"));
        };
        if tree <= vector {
            tree_wins += 1;
        }
        if *hybrid <= 2.0 * vector {
            hybrid_within_2x += 1;
        }
    }
    // Best binary/text ratio among same-session-count ingest pairs.
    let mut binary_speedup = 0.0f64;
    for (mode, sessions, rate) in &ingest_cells {
        if *mode != "binary" {
            continue;
        }
        for (other_mode, other_sessions, other_rate) in &ingest_cells {
            if *other_mode == "text" && other_sessions == sessions && *other_rate > 0.0 {
                binary_speedup = binary_speedup.max(rate / other_rate);
            }
        }
    }
    Ok(BaselineSummary {
        records: records.len(),
        configs: configs.len(),
        tree_wins,
        hybrid_within_2x,
        ingest,
        suite,
        calibration,
        binary_speedup,
        churn,
        telemetry,
        telemetry_overhead_pct,
        cluster,
        obs_period,
        cluster_forward_overhead_pct,
        cluster_recovery_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_trace::gen::scenarios;

    #[test]
    fn single_trace_baseline_round_trips_through_validation() {
        let trace = scenarios::star(8, 2_000, 1);
        let records = collect_trace("star-tiny", &trace);
        assert_eq!(records.len(), PartialOrderKind::ALL.len() * 3);
        let json = to_json(&records, "quick");
        let summary = validate(&json).expect("self-produced baseline must validate");
        assert_eq!(summary.records, records.len());
        assert_eq!(summary.configs, PartialOrderKind::ALL.len());
    }

    #[test]
    fn full_documents_with_all_record_kinds_validate() {
        let trace = scenarios::star(4, 500, 1);
        let doc = BenchDoc {
            engine: collect_trace("star-tiny", &trace),
            ingest: vec![
                crate::ingest::IngestRecord {
                    mode: "text",
                    sessions: 1,
                    events: 1000,
                    seconds: 0.01,
                },
                crate::ingest::IngestRecord {
                    mode: "binary",
                    sessions: 1,
                    events: 1000,
                    seconds: 0.002,
                },
            ],
            suite: vec![SuiteFoldRecord {
                name: "omp16-lowsync".into(),
                threads: 16,
                events: 40_000,
                sync_pct: 3.0,
                tree_seconds: 0.01,
                vector_seconds: 0.02,
                hybrid_seconds: 0.012,
            }],
            calibration: vec![CalibrationRecord {
                scenario: "pipeline".into(),
                threads: 160,
                events: 30_000,
                cutoff: 128,
                seconds: 0.02,
            }],
            churn: vec![ChurnRecord {
                scenario: "spawn-join-churn".into(),
                total_threads: 128,
                live_threads: 16,
                events: 20_000,
                seconds: 0.03,
                recycled_slots: 100,
                peak_clock_bytes_on: 40_000,
                peak_clock_bytes_off: 300_000,
            }],
            telemetry: vec![crate::telemetry::TelemetryOverheadRecord {
                events: 30_000,
                on_events_per_sec: 990_000.0,
                off_events_per_sec: 1_000_000.0,
            }],
            cluster: vec![
                crate::cluster::ClusterRecord::Forward {
                    nodes: 2,
                    events: 20_000,
                    local_seconds: 0.05,
                    forwarded_seconds: 0.06,
                },
                crate::cluster::ClusterRecord::Failover {
                    nodes: 3,
                    sessions: 12,
                    events: 32_768,
                    recovery_ms: 18.0,
                },
                crate::cluster::ClusterRecord::StableGc {
                    nodes: 3,
                    events: 240,
                    deltas: 30,
                    delta_bytes: 6_000,
                    snapshot_bytes: 14_000,
                },
            ],
            obs_period: vec![
                ObsPeriodRecord {
                    scenario: "star".into(),
                    threads: 360,
                    events: 25_000,
                    period: 2,
                    seconds: 0.05,
                },
                ObsPeriodRecord {
                    scenario: "star".into(),
                    threads: 360,
                    events: 25_000,
                    period: 4,
                    seconds: 0.04,
                },
            ],
        };
        let json = to_json_doc(&doc, "quick");
        let summary = validate(&json).expect("full documents must validate");
        assert_eq!(summary.ingest, 2);
        assert_eq!(summary.suite, 1);
        assert_eq!(summary.calibration, 1);
        assert_eq!(summary.churn, 1);
        assert_eq!(summary.telemetry, 1);
        assert_eq!(summary.cluster, 3);
        assert_eq!(summary.obs_period, 2);
        assert!(
            (summary.cluster_forward_overhead_pct - 20.0).abs() < 1e-9,
            "0.06s forwarded over 0.05s local is a 20% tax: {}",
            summary.cluster_forward_overhead_pct
        );
        assert!(
            (summary.cluster_recovery_ms - 18.0).abs() < 1e-9,
            "worst failover cell carries through: {}",
            summary.cluster_recovery_ms
        );
        assert!(
            (summary.telemetry_overhead_pct - 1.0).abs() < 1e-9,
            "990k on vs 1M off is a 1% tax: {}",
            summary.telemetry_overhead_pct
        );
        assert!(
            (summary.binary_speedup - 5.0).abs() < 1e-9,
            "binary at 5x text: {}",
            summary.binary_speedup
        );

        let bad = json.replace(
            "\"kind\": \"ingest\", \"mode\": \"text\"",
            "\"kind\": \"ingest\", \"mode\": \"morse\"",
        );
        if bad != json {
            assert!(validate(&bad).unwrap_err().contains("mode"));
        }
        let bad = json.replace("\"kind\": \"calibration\"", "\"kind\": \"calibrations\"");
        assert!(validate(&bad).unwrap_err().contains("kind"));
        // Kinds outside the v8 schema, such as `parallel`, are rejected.
        let bad = json.replace("\"kind\": \"calibration\"", "\"kind\": \"parallel\"");
        assert!(validate(&bad).unwrap_err().contains("kind"));
        let bad = json.replace("\"peak_clock_bytes_off\"", "\"peak_clock_bytes_of\"");
        assert!(validate(&bad).unwrap_err().contains("peak_clock_bytes_off"));
        let bad = json.replace("\"overhead_pct\"", "\"overhead_cpt\"");
        assert!(validate(&bad).unwrap_err().contains("overhead_pct"));
        let bad = json.replace("\"cell\": \"stable-gc\"", "\"cell\": \"stable-fc\"");
        if bad != json {
            assert!(validate(&bad).unwrap_err().contains("cluster cell"));
        }
        let bad = json.replace("\"delta_bytes\": 6000", "\"delta_bytes\": 60000");
        if bad != json {
            assert!(validate(&bad).unwrap_err().contains("snapshot bytes"));
        }
        let bad = json.replace("\"period\": 2", "\"period\": 0");
        if bad != json {
            assert!(validate(&bad).unwrap_err().contains("period"));
        }
    }

    #[test]
    fn validation_names_the_offending_field() {
        let trace = scenarios::star(4, 500, 1);
        let records = collect_trace("star-tiny", &trace);
        let good = to_json(&records, "quick");

        let bad = good.replace("\"joins\"", "\"jions\"");
        let err = validate(&bad).unwrap_err();
        assert!(err.contains("joins"), "error `{err}` must name the field");

        let bad = good.replace("\"pool_fresh\"", "\"pool_frseh\"");
        let err = validate(&bad).unwrap_err();
        assert!(
            err.contains("pool_fresh"),
            "error `{err}` must name the telemetry field"
        );

        let bad = good.replace(&format!("\"{SCHEMA}\""), "\"something-else\"");
        assert!(validate(&bad).unwrap_err().contains("schema"));

        assert!(validate("{ not json").unwrap_err().contains("JSON"));
    }

    #[test]
    fn validation_requires_all_three_backends() {
        let trace = scenarios::star(4, 500, 1);
        let mut records = collect_trace("star-tiny", &trace);
        records.retain(|r| r.backend != ClockKind::Hybrid);
        let err = validate(&to_json(&records, "quick")).unwrap_err();
        assert!(err.contains("missing a backend"), "unexpected: {err}");
    }

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
                    "{}/{:?}: Theorem 1 must hold in the baseline too",
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
        let scale = BaselineScale::full(true);
        assert!(scale.families);
        assert_eq!(scale.mode, "full-quick");
        // The family grid adds exactly the six non-FIG10 scenarios
        // (the five structured families plus spawn/join churn).
        let non_fig10 = Scenario::ALL
            .into_iter()
            .filter(|s| !Scenario::FIG10.contains(s))
            .count();
        assert_eq!(non_fig10, 6);
    }
}
