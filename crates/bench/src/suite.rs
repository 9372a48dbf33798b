//! The synthetic benchmark suite simulating the paper's 153 logged
//! traces.
//!
//! The paper's traces (Table 3) come from Java programs (IBM Contest,
//! Java Grande, DaCapo, SIR) and OpenMP applications (DataRaceBench,
//! CORAL, ECP, Mantevo, …). They span 3–224 threads, 0–60.5k locks,
//! 18–37.8M variables, and 0–44.4% synchronization events (mean 9.5%).
//! Each suite entry below reproduces one of the recurring *shapes* in
//! that population — OpenMP-style wide/low-sync loops at 16 and 56
//! threads, Java-style small-thread-count lock-heavy programs, the
//! skewed/star/pairwise communication patterns — with event counts
//! scaled to laptop size (the cost model of both clock representations
//! is linear in events, so scaling down preserves every ratio the paper
//! reports).

use tc_trace::gen::{Scenario, WorkloadSpec};
use tc_trace::Trace;

/// Event-count scale of the suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// ~40k events per trace: smoke-test the full pipeline in seconds.
    Quick,
    /// ~200k events per trace: what the `paper` binary runs when given
    /// neither `--quick` nor `--full`.
    Default,
    /// ~1M events per trace: closest to the paper (minutes of runtime).
    Full,
}

impl Scale {
    /// Multiplier applied to each entry's base event count.
    pub fn factor(self) -> usize {
        match self {
            Scale::Quick => 1,
            Scale::Default => 5,
            Scale::Full => 25,
        }
    }
}

/// How one suite trace is generated.
#[derive(Clone, Debug)]
enum Kind {
    Workload(WorkloadSpec),
    Scenario(Scenario, u32),
}

/// One named benchmark trace of the suite.
#[derive(Clone, Debug)]
pub struct SuiteEntry {
    /// Stable human-readable name (used in Table 3 and all CSV files).
    pub name: &'static str,
    kind: Kind,
    base_events: usize,
}

impl SuiteEntry {
    /// Generates the trace at the given scale (deterministic).
    pub fn generate(&self, scale: Scale) -> Trace {
        let events = self.base_events * scale.factor();
        match &self.kind {
            Kind::Workload(spec) => WorkloadSpec { events, ..*spec }.generate(),
            Kind::Scenario(s, threads) => {
                s.generate(*threads, events, 0xC10C + u64::from(*threads))
            }
        }
    }
}

fn workload(
    name: &'static str,
    threads: u32,
    locks: u32,
    vars: u32,
    sync_ratio: f64,
    write_ratio: f64,
    seed: u64,
) -> SuiteEntry {
    SuiteEntry {
        name,
        kind: Kind::Workload(WorkloadSpec {
            threads,
            locks,
            vars,
            sync_ratio,
            write_ratio,
            seed,
            ..WorkloadSpec::default()
        }),
        base_events: 40_000,
    }
}

fn scenario(name: &'static str, s: Scenario, threads: u32) -> SuiteEntry {
    SuiteEntry {
        name,
        kind: Kind::Scenario(s, threads),
        base_events: 40_000,
    }
}

/// The full suite: 39 deterministic traces covering the shape space of
/// the paper's Table 3, plus the structured workload families.
pub fn suite() -> Vec<SuiteEntry> {
    vec![
        // OpenMP-style: 16/56 threads, large variable pools, low sync
        // (the DataRaceBench / CoMD / miniFE / HPCCG shapes).
        workload("omp16-lowsync", 16, 32, 4_096, 0.03, 0.4, 101),
        workload("omp56-lowsync", 56, 112, 4_096, 0.03, 0.4, 102),
        workload("omp16-midsync", 16, 32, 2_048, 0.10, 0.4, 103),
        workload("omp56-midsync", 56, 112, 2_048, 0.10, 0.4, 104),
        workload("omp16-hisync", 16, 32, 1_024, 0.30, 0.4, 105),
        workload("omp56-hisync", 56, 112, 1_024, 0.30, 0.4, 106),
        workload("omp112-lowsync", 112, 128, 4_096, 0.03, 0.4, 107),
        workload("omp112-midsync", 112, 128, 2_048, 0.10, 0.4, 108),
        // Task-parallel style: fork/join wrapped, skewed activity
        // (fib-taskdep, taskloop shapes).
        SuiteEntry {
            name: "tasks16-forkjoin",
            kind: Kind::Workload(WorkloadSpec {
                threads: 16,
                locks: 16,
                vars: 512,
                sync_ratio: 0.08,
                write_ratio: 0.5,
                fork_join: true,
                hot_thread_share: 0.2,
                hot_thread_weight: 5,
                seed: 109,
                ..WorkloadSpec::default()
            }),
            base_events: 40_000,
        },
        SuiteEntry {
            name: "tasks56-forkjoin",
            kind: Kind::Workload(WorkloadSpec {
                threads: 56,
                locks: 56,
                vars: 512,
                sync_ratio: 0.08,
                write_ratio: 0.5,
                fork_join: true,
                hot_thread_share: 0.2,
                hot_thread_weight: 5,
                seed: 110,
                ..WorkloadSpec::default()
            }),
            base_events: 40_000,
        },
        // Java-style: few threads, lock-heavy, smaller variable pools
        // (IBM Contest / SIR shapes: account, clean, ftpserver, ...).
        workload("java-k3-locky", 3, 4, 64, 0.40, 0.3, 111),
        workload("java-k5-locky", 5, 8, 128, 0.35, 0.3, 112),
        workload("java-k8-locky", 8, 16, 256, 0.30, 0.3, 113),
        workload("java-k13-locky", 13, 16, 256, 0.25, 0.3, 114),
        workload("java-k5-rwheavy", 5, 2, 512, 0.02, 0.5, 115),
        workload("java-k8-rwheavy", 8, 2, 512, 0.02, 0.5, 116),
        // DaCapo-style servers: many threads, skewed, moderate sync
        // (cassandra/tradebeans shapes, scaled thread counts).
        workload("server-k44", 44, 64, 2_048, 0.12, 0.35, 117),
        workload("server-k112", 112, 256, 2_048, 0.12, 0.35, 118),
        workload("server-k224", 224, 512, 2_048, 0.12, 0.35, 119),
        // Sync-only extremes (the 44.4% sync outliers of Table 1 are
        // lock-dominated; these are 100% sync).
        scenario("single-lock-16", Scenario::SingleLock, 16),
        scenario("single-lock-64", Scenario::SingleLock, 64),
        scenario("skewed-locks-16", Scenario::SkewedLocks, 16),
        scenario("skewed-locks-64", Scenario::SkewedLocks, 64),
        scenario("skewed-locks-128", Scenario::SkewedLocks, 128),
        scenario("star-16", Scenario::Star, 16),
        scenario("star-64", Scenario::Star, 64),
        scenario("star-128", Scenario::Star, 128),
        scenario("star-224", Scenario::Star, 224),
        scenario("pairwise-16", Scenario::Pairwise, 16),
        scenario("pairwise-64", Scenario::Pairwise, 64),
        // Mixed access/sync with many variables (xalan/lusearch-like).
        workload("mixed-k7-manyvars", 7, 8, 16_384, 0.06, 0.35, 120),
        workload("mixed-k15-manyvars", 15, 16, 16_384, 0.06, 0.35, 121),
        workload("mixed-k31-manyvars", 31, 32, 16_384, 0.06, 0.35, 122),
        workload("mixed-k63-manyvars", 63, 64, 16_384, 0.06, 0.35, 123),
        // Structured workload families (beyond the paper): hierarchical
        // task trees, bulk-synchronous rounds, streaming pipelines and
        // phase-changing bursty channels.
        scenario("forktree-32", Scenario::ForkJoinTree, 32),
        scenario("barrier-32", Scenario::BarrierPhases, 32),
        scenario("pipeline-32", Scenario::Pipeline, 32),
        scenario("readmostly-32", Scenario::ReadMostly, 32),
        scenario("bursty-32", Scenario::BurstyChannels, 32),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_39_uniquely_named_entries() {
        let s = suite();
        assert_eq!(s.len(), 39);
        let mut names: Vec<_> = s.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 39, "duplicate suite names");
    }

    #[test]
    fn quick_scale_traces_are_valid_and_sized() {
        for entry in suite().iter().take(6) {
            let t = entry.generate(Scale::Quick);
            assert!(t.validate().is_ok(), "{} invalid", entry.name);
            assert!(t.len() >= 40_000, "{} too small: {}", entry.name, t.len());
            assert!(t.len() < 60_000, "{} too large: {}", entry.name, t.len());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let e = &suite()[0];
        assert_eq!(
            e.generate(Scale::Quick).events(),
            e.generate(Scale::Quick).events()
        );
    }

    #[test]
    fn scales_multiply_event_counts() {
        let e = &suite()[12]; // a java-style entry
        let q = e.generate(Scale::Quick).len();
        let d = e.generate(Scale::Default).len();
        assert!(d >= 4 * q, "default scale should be ~5x quick");
    }

    #[test]
    fn suite_covers_the_papers_thread_range() {
        let s = suite();
        let max_threads = s
            .iter()
            .map(|e| e.generate(Scale::Quick).thread_count())
            .max()
            .unwrap();
        let min_threads = s
            .iter()
            .map(|e| e.generate(Scale::Quick).thread_count())
            .min()
            .unwrap();
        assert!(min_threads <= 3, "paper's suite starts at 3 threads");
        assert!(max_threads >= 224, "paper's suite reaches 224 threads");
    }
}
