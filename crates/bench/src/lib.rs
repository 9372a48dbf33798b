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
//!
//! The paper's 153 logged benchmark traces are simulated by the seeded
//! synthetic [`suite`](mod@suite) (see DESIGN.md for the substitution rationale);
//! the Figure 10 scenarios are generated exactly as described in the
//! paper. Run everything via the `paper` binary:
//!
//! ```text
//! cargo run -p tc-bench --release --bin paper -- all
//! cargo run -p tc-bench --release --bin paper -- table2 --quick
//! cargo run -p tc-bench --release --bin paper -- fig10 --out results/
//! ```
//!
//! [`baseline`] measures the partial order × clock backend grid that
//! `tcr bench` prints.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod figures;
pub mod render;
pub mod runner;
pub mod suite;
pub mod tables;

pub use baseline::BaselineRecord;
pub use runner::{ClockKind, Measurement, Mode};
pub use suite::{suite, Scale, SuiteEntry};
