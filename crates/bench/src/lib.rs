//! # helix-bench
//!
//! The experiment harness: every table and figure of the paper's
//! evaluation (§6) has a function here that regenerates it, plus the
//! `paper-figures` binary that prints them in the paper's layout.
//! Performance numbers come from the `ledger` bin (`src/bin/ledger`, the
//! benchmark `BENCHMARK.json` declares), not from this library.
//!
//! Experiment-to-paper mapping:
//!
//! * [`experiments::fig5_fig6`] — cumulative run time (Fig 5a–d) and the
//!   per-iteration component breakdown (Fig 6a–d).
//! * [`experiments::fig7a`] / [`experiments::fig7b`] — dataset-size and
//!   worker-count scaling on Census/Census 10×.
//! * [`experiments::fig8`] — fraction of nodes in `S_p`/`S_l`/`S_c`,
//!   HELIX OPT vs HELIX AM.
//! * [`experiments::fig9`] — OPT vs AM vs NM cumulative time (Fig 9a,b,e,f)
//!   and storage (Fig 9c,d).
//! * [`experiments::fig10`] — per-iteration peak/average memory.
//! * [`experiments::table1`] / [`experiments::table2`] — the static
//!   coverage/characteristics tables.

pub mod experiments;
pub mod report;

pub use experiments::{ExperimentConfig, SystemKind};
