//! The tier-1 conformance sweep (the ISSUE 2 acceptance gate):
//!
//! - the quick corpus drives ≥ 40 (scenario × order × backend)
//!   combinations through the full differential checker and passes;
//! - an intentionally broken check (fault injection) is caught, and the
//!   shrinker produces a minimized, replayable text-format repro.

use tc_conformance::{
    check_trace, run_sweep, CheckKind, Corpus, Fault, Repro, SweepOptions, TraceSource,
    CHECKS_PER_CASE,
};
use tc_orders::PartialOrderKind;
use tc_trace::text_format;

#[test]
fn quick_corpus_sweep_is_conformant() {
    let corpus = Corpus::quick();
    let report = run_sweep(&corpus, SweepOptions::default());
    for outcome in &report.outcomes {
        assert!(outcome.result.is_ok(), "{outcome}");
    }
    assert!(report.passed());
    assert!(
        report.combos() >= 60,
        "quick sweep must cover at least 60 scenario × order × backend \
         combinations (both backends), got {}",
        report.combos()
    );
    // The sweep exercises both race-free structured scenarios and racy
    // workloads (otherwise the report checks would be vacuous).
    let races: u64 = report
        .outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok().map(|s| s.races))
        .sum();
    assert!(races > 0, "corpus must include racy cases");
    let race_free = report.outcomes.iter().any(|o| {
        matches!(o.config.source, TraceSource::Scenario(_))
            && matches!(&o.result, Ok(s) if s.races == 0)
    });
    assert!(race_free, "corpus must include race-free scenario cases");
    // Every case rides through a three-node ring with one induced
    // failover and must match the batch report.
    assert!(
        CHECKS_PER_CASE.contains(&CheckKind::Cluster),
        "the sweep must include the cluster check family"
    );
}

/// Every fault kind, injected into every order, is (a) detected by the
/// sweep and (b) minimized by the shrinker into a replayable repro that
/// still fails.
#[test]
fn injected_faults_are_caught_and_shrunk_to_replayable_repros() {
    // A heavily racy slice of the corpus, so dropped races and skewed
    // clocks are observable for all three orders.
    let corpus = Corpus::quick().filter("workload-s0");
    assert!(corpus.cases.len() >= 2);

    for kind in PartialOrderKind::ALL {
        for fault in [
            Fault::DropRace(kind),
            Fault::SkewTimestamp(kind),
            Fault::InflateWork(kind),
        ] {
            let report = run_sweep(
                &corpus,
                SweepOptions {
                    fault,
                    shrink: true,
                },
            );
            assert!(
                !report.passed(),
                "fault {fault} went undetected by the sweep"
            );
            let Err((failure, Some(repro))) = &report.outcomes[0].result else {
                panic!("fault {fault}: expected a shrunk failure");
            };
            assert_eq!(failure.order, kind, "fault {fault}");
            assert_repro_is_minimal_and_replayable(repro, fault);
        }
    }
}

fn assert_repro_is_minimal_and_replayable(repro: &Repro, fault: Fault) {
    // Minimized: the bisection shrinker reduces the hundreds-of-events
    // counterexample to a handful of events.
    assert!(
        repro.trace.len() < repro.original_events / 4,
        "fault {fault}: repro barely shrank ({} of {})",
        repro.trace.len(),
        repro.original_events
    );
    assert!(
        repro.trace.len() <= 10,
        "fault {fault}: repro not minimal ({} events):\n{}",
        repro.trace.len(),
        repro.text
    );
    // Replayable: the text dump parses back (comments included) into a
    // well-formed trace exhibiting the same failure.
    let replayed = text_format::parse_text(&repro.text)
        .unwrap_or_else(|e| panic!("fault {fault}: repro text does not parse: {e}"));
    replayed.validate().expect("repro must be well-formed");
    assert_eq!(replayed.len(), repro.trace.len());
    let failure = check_trace(&replayed, fault)
        .expect_err("replayed repro must still fail the conformance check");
    assert_eq!(failure.order, repro.failure.order);
}
