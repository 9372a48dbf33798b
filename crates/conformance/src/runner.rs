//! The sweep driver: run every corpus case through the checker,
//! shrinking and collecting repros for failures.

use std::fmt;

use crate::check::{check_trace_pooled, CheckSummary, EnginePools, Failure};
use crate::corpus::{CaseConfig, Corpus};
use crate::fault::Fault;
use crate::shrink::{minimize, Repro};

/// Options for [`run_sweep`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepOptions {
    /// Fault to inject into every case (test/demo only).
    pub fault: Fault,
    /// Minimize failing cases and attach a [`Repro`] (slower on
    /// failure, free when everything passes).
    pub shrink: bool,
}

/// The outcome of one corpus case.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// The case configuration.
    pub config: CaseConfig,
    /// Summary on success, failure (plus optional repro) otherwise.
    pub result: Result<CheckSummary, (Failure, Option<Repro>)>,
}

impl fmt::Display for CaseOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.result {
            Ok(s) => write!(
                f,
                "ok   {} ({} events, {} report(s))",
                self.config, s.events, s.races
            ),
            Err((failure, repro)) => {
                write!(f, "FAIL {}: {failure}", self.config)?;
                if let Some(r) = repro {
                    write!(
                        f,
                        " (minimized {} -> {} events)",
                        r.original_events,
                        r.trace.len()
                    )?;
                }
                Ok(())
            }
        }
    }
}

/// Aggregate results of a conformance sweep.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Per-case outcomes, in corpus order.
    pub outcomes: Vec<CaseOutcome>,
}

impl SweepReport {
    /// Returns `true` when every case passed.
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.result.is_ok())
    }

    /// Number of failing cases.
    pub fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_err()).count()
    }

    /// Total engine × backend combinations exercised across all cases
    /// (each case drives 3 orders × 2 backends; failing cases count
    /// from their configuration).
    pub fn combos(&self) -> usize {
        self.outcomes
            .iter()
            .map(|o| match &o.result {
                Ok(s) => s.combos,
                Err(_) => tc_orders::PartialOrderKind::ALL.len() * crate::check::BACKENDS,
            })
            .sum()
    }

    /// Total events checked across passing cases.
    pub fn events_checked(&self) -> usize {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok().map(|s| s.events))
            .sum()
    }

    /// Total recycling differential passes that ran across passing
    /// cases (0 would mean the whole corpus dodged the recycling-on
    /// vs recycling-off comparison — CI asserts this stays positive).
    pub fn recycling_passes(&self) -> usize {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok().map(|s| s.recycling_passes))
            .sum()
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} case(s), {} engine×backend combination(s), {} event(s) checked, \
             {} recycling differential pass(es), {} failure(s)",
            self.outcomes.len(),
            self.combos(),
            self.events_checked(),
            self.recycling_passes(),
            self.failures()
        )
    }
}

/// Runs the conformance checker over every case of `corpus`.
///
/// All cases share one pair of clock pools, so every case after the
/// first checks allocation-free (modulo growth to a larger dimension).
pub fn run_sweep(corpus: &Corpus, options: SweepOptions) -> SweepReport {
    let mut report = SweepReport::default();
    let mut pools = EnginePools::new();
    for &config in &corpus.cases {
        let trace = config.generate();
        let result = match check_trace_pooled(&trace, options.fault, &mut pools) {
            Ok(summary) => Ok(summary),
            Err(failure) => {
                let repro = if options.shrink {
                    minimize(&trace, options.fault)
                } else {
                    None
                };
                Err((failure, repro))
            }
        };
        report.outcomes.push(CaseOutcome { config, result });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_orders::PartialOrderKind;

    fn tiny_corpus() -> Corpus {
        // A fast slice that still carries a fork-disciplined family, so
        // the recycling differential runs at least once.
        let mut corpus = Corpus::quick();
        corpus.cases.truncate(2);
        let churn = Corpus::quick().filter("spawn-join-churn");
        corpus.cases.extend(churn.cases.into_iter().take(2));
        corpus
    }

    #[test]
    fn honest_sweep_passes() {
        let report = run_sweep(&tiny_corpus(), SweepOptions::default());
        assert!(report.passed(), "{report}");
        assert_eq!(report.failures(), 0);
        assert_eq!(report.combos(), 4 * 6);
        assert!(report.events_checked() > 0);
        assert!(
            report.recycling_passes() > 0,
            "quick corpus must exercise the recycling differential"
        );
    }

    #[test]
    fn faulty_sweep_fails_and_shrinks() {
        // Use a racy corpus slice so the HB drop-race fault actually
        // bites (race-free scenario cases cannot lose a race).
        let corpus = Corpus::quick().filter("workload-s0");
        assert!(!corpus.cases.is_empty());
        let report = run_sweep(
            &corpus,
            SweepOptions {
                fault: Fault::DropRace(PartialOrderKind::Hb),
                shrink: true,
            },
        );
        assert!(!report.passed());
        let Err((failure, Some(repro))) = &report.outcomes[0].result else {
            panic!("expected a shrunk failure, got {}", report.outcomes[0]);
        };
        assert_eq!(failure.order, PartialOrderKind::Hb);
        assert!(repro.trace.len() <= 4, "repro not minimal: {}", repro.text);
        let line = report.outcomes[0].to_string();
        assert!(line.starts_with("FAIL"));
        assert!(line.contains("minimized"));
    }
}
