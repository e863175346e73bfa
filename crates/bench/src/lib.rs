//! # helix-bench
//!
//! The experiment harness: every table and figure of the paper's
//! evaluation (§6) has a function here that regenerates it, plus the
//! `paper-figures` binary that prints them in the paper's layout. Criterion
//! micro-benchmarks for the optimizer, codec, engine and ML kernels live
//! under `benches/`.
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

//! * [`multi_tenant`] — the `helix-serve` driver: N simultaneous clients
//!   on one service vs the serial back-to-back baseline (throughput,
//!   per-tenant latency, cross-tenant cache-hit rate).
//! * [`pipeline`] — the pipelined iteration runtime vs the serial
//!   engine (speedup, overlap ratio, speculation hit rate); emits
//!   `BENCH_pipeline.json`.
//! * [`serve_async`] — open-loop stress of the pooled session runner:
//!   deterministic Poisson-like arrivals, non-blocking ticket
//!   collection, latency p50/p99 + SLO burn, and the OS-thread ceiling;
//!   emits `BENCH_serve_async.json`.

pub mod experiments;
pub mod multi_tenant;
pub mod pipeline;
pub mod report;
pub mod serve_async;

pub use experiments::{ExperimentConfig, SystemKind};
pub use multi_tenant::{run_multi_tenant, MultiTenantConfig, MultiTenantReport};
pub use pipeline::{run_pipeline_bench, PipelineBenchConfig, PipelineBenchReport};
pub use serve_async::{run_serve_async, ServeAsyncConfig, ServeAsyncReport};
