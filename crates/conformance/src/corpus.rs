//! The conformance corpus: a registry of (source × threads ×
//! event-count × seed) trace configurations.
//!
//! Two standard corpora are provided: [`Corpus::quick`] — small traces
//! sized so the O(n²) definitional oracles stay cheap, run as part of
//! tier-1 `cargo test` — and [`Corpus::full`] — a broader sweep for the
//! `tcr conformance` command line.

use std::fmt;

use tc_trace::gen::{Scenario, WorkloadSpec};
use tc_trace::Trace;

/// Where a case's trace comes from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceSource {
    /// A registered structured scenario family (race-free by
    /// construction).
    Scenario(Scenario),
    /// A mixed random workload with the given sync percentage; low
    /// percentages produce heavily racy traces, exercising the race
    /// reporting and shrinking paths.
    Workload {
        /// Percentage of sync decisions (the `sync_ratio` knob × 100).
        sync_pct: u8,
        /// Size of the variable pool (small pools collide more).
        vars: u32,
    },
}

impl fmt::Display for TraceSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceSource::Scenario(s) => write!(f, "{s}"),
            TraceSource::Workload { sync_pct, vars } => {
                write!(f, "workload-s{sync_pct}-v{vars}")
            }
        }
    }
}

/// One corpus entry: a fully determined trace configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CaseConfig {
    /// The trace source.
    pub source: TraceSource,
    /// Thread count.
    pub threads: u32,
    /// Approximate event budget.
    pub events: usize,
    /// Generator seed.
    pub seed: u64,
}

impl CaseConfig {
    /// Generates this configuration's trace (deterministic).
    pub fn generate(&self) -> Trace {
        match self.source {
            TraceSource::Scenario(s) => s.generate(self.threads, self.events, self.seed),
            TraceSource::Workload { sync_pct, vars } => WorkloadSpec {
                threads: self.threads,
                locks: 2,
                vars,
                events: self.events,
                sync_ratio: f64::from(sync_pct) / 100.0,
                write_ratio: 0.45,
                shared_fraction: 0.8,
                seed: self.seed,
                ..WorkloadSpec::default()
            }
            .generate(),
        }
    }
}

impl fmt::Display for CaseConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/k{}/n{}/s{}",
            self.source, self.threads, self.events, self.seed
        )
    }
}

/// Lock-only scenarios wider than the tree clock's copy-on-write
/// sharing width (64 entries), where releases share shapes and dense
/// joins turn clocks flat: single-lock, pairwise and star at each of
/// `widths` threads.
fn wide_cases(widths: &[u32], events: usize, seed: u64) -> Vec<CaseConfig> {
    let mut cases = Vec::new();
    for &threads in widths {
        for (i, s) in [Scenario::SingleLock, Scenario::Pairwise, Scenario::Star]
            .into_iter()
            .enumerate()
        {
            cases.push(CaseConfig {
                source: TraceSource::Scenario(s),
                threads,
                events,
                seed: seed + u64::from(threads) + i as u64,
            });
        }
    }
    cases
}

/// A registry of conformance cases.
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    /// The registered cases, in deterministic order.
    pub cases: Vec<CaseConfig>,
}

impl Corpus {
    /// The tier-1 corpus: every scenario family at two shapes, three
    /// lock scenarios at 80 threads (past the tree clock's sharing
    /// width) and six racy workloads, small enough that the full sweep
    /// (including the O(n²) oracles) finishes in seconds.
    pub fn quick() -> Corpus {
        let mut cases = Vec::new();
        for (i, s) in Scenario::ALL.into_iter().enumerate() {
            let seed = 100 + i as u64;
            cases.push(CaseConfig {
                source: TraceSource::Scenario(s),
                threads: s.min_threads().max(3),
                events: 140,
                seed,
            });
            cases.push(CaseConfig {
                source: TraceSource::Scenario(s),
                threads: 6,
                events: 200,
                seed: seed + 1,
            });
        }
        cases.extend(wide_cases(&[80], 1_000, 300));
        for (i, (sync_pct, vars, threads)) in [
            (0u8, 3u32, 3u32),
            (0, 2, 5),
            (10, 3, 4),
            (25, 4, 4),
            (45, 3, 6),
            (70, 2, 3),
        ]
        .into_iter()
        .enumerate()
        {
            cases.push(CaseConfig {
                source: TraceSource::Workload { sync_pct, vars },
                threads,
                events: 150,
                seed: 200 + i as u64,
            });
        }
        Corpus { cases }
    }

    /// The broader command-line corpus: more thread counts, longer
    /// traces and more seeds per configuration, and the wide lock
    /// scenarios at 80 and 130 threads (still oracle-friendly).
    pub fn full() -> Corpus {
        let mut cases = Vec::new();
        for (i, s) in Scenario::ALL.into_iter().enumerate() {
            for threads in [s.min_threads().max(2), 4, 8, 16] {
                for (j, events) in [150usize, 400].into_iter().enumerate() {
                    cases.push(CaseConfig {
                        source: TraceSource::Scenario(s),
                        threads,
                        events,
                        seed: 1_000 + 10 * i as u64 + j as u64,
                    });
                }
            }
        }
        cases.extend(wide_cases(&[80, 130], 2_000, 3_000));
        for sync_pct in [0u8, 5, 15, 30, 50, 80] {
            for threads in [2u32, 4, 8] {
                cases.push(CaseConfig {
                    source: TraceSource::Workload { sync_pct, vars: 4 },
                    threads,
                    events: 300,
                    seed: 2_000 + u64::from(sync_pct) + u64::from(threads),
                });
            }
        }
        Corpus { cases }
    }

    /// Restricts the corpus to cases whose label contains `needle`.
    pub fn filter(mut self, needle: &str) -> Corpus {
        self.cases.retain(|c| c.to_string().contains(needle));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_corpus_covers_every_scenario_family() {
        let corpus = Corpus::quick();
        for s in Scenario::ALL {
            assert!(
                corpus
                    .cases
                    .iter()
                    .any(|c| c.source == TraceSource::Scenario(s)),
                "{s} missing from the quick corpus"
            );
        }
        assert!(corpus
            .cases
            .iter()
            .any(|c| matches!(c.source, TraceSource::Workload { sync_pct: 0, .. })));
    }

    #[test]
    fn every_quick_case_generates_a_valid_trace() {
        for case in Corpus::quick().cases {
            let t = case.generate();
            t.validate()
                .unwrap_or_else(|e| panic!("{case}: invalid trace: {e}"));
            assert_eq!(t.thread_count(), case.threads as usize, "{case}");
            assert!(t.len() >= case.events, "{case}: undershot");
        }
    }

    #[test]
    fn generation_is_deterministic_per_case() {
        let corpus = Corpus::quick();
        let case = corpus.cases[0];
        assert_eq!(case.generate().events(), case.generate().events());
    }

    #[test]
    fn filter_narrows_by_label() {
        let corpus = Corpus::full().filter("star");
        assert!(!corpus.cases.is_empty());
        assert!(corpus.cases.iter().all(|c| c.to_string().contains("star")));
    }

    #[test]
    fn labels_are_unique() {
        for corpus in [Corpus::quick(), Corpus::full()] {
            let mut labels: Vec<String> = corpus.cases.iter().map(|c| c.to_string()).collect();
            let n = labels.len();
            labels.sort();
            labels.dedup();
            assert_eq!(labels.len(), n, "duplicate corpus labels");
        }
    }
}
