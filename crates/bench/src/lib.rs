//! The benchmark harness reproducing **every table and figure** of the
//! tree-clock paper's evaluation (Section 6).
//!
//! | Paper artifact | Runner | Output |
//! |---|---|---|
//! | Table 1 (trace statistics, aggregate) | [`tables::table1`] | text + CSV |
//! | Table 2 (average speedups) | [`tables::table2`] | text + CSV |
//! | Table 3 (per-benchmark trace info) | [`tables::table3`] | text + CSV |
//! | Figure 6 (TC vs VC scatter, 6 panels) | [`figures::fig6`] | CSV series |
//! | Figure 7 (speedup vs sync%) | [`figures::fig7`] | CSV series |
//! | Figure 8 (work ratios vs VTWork) | [`figures::fig8`] | CSV series |
//! | Figure 9 (VCWork/TCWork histograms) | [`figures::fig9`] | text + CSV |
//! | Figure 10 (scalability, 4 scenarios) | [`figures::fig10`] | CSV series |
//! | Ladder L0 (one clock operation, beyond the paper) | [`l0::l0`] | text + CSV |
//!
//! The paper's 153 logged benchmark traces are simulated by the seeded
//! synthetic [`suite`](mod@suite), whose module documentation gives the
//! substitution rationale; the Figure 10 scenarios are generated
//! exactly as described in the paper. Every timed cell keeps
//! [`REPETITIONS`](runner::REPETITIONS) runs and reports their median
//! and quartiles: Table 2 and Figure 10 give the tree's speedup over
//! the vector clock with its range, and count a trace whose Q1–Q3
//! ranges overlap as a tie. Run everything via the
//! `paper` binary:
//!
//! ```text
//! cargo run -p tc-bench --release --bin paper -- all
//! cargo run -p tc-bench --release --bin paper -- table2 --quick
//! cargo run -p tc-bench --release --bin paper -- fig10 --out results/
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod l0;
pub mod render;
pub mod runner;
pub mod suite;
pub mod tables;

pub use runner::{ClockKind, Measurement, Mode};
pub use suite::{suite, Scale, SuiteEntry};
