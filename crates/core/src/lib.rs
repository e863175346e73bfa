//! # helix-core
//!
//! The HELIX system itself (paper §§2–5): a declarative workflow layer
//! that optimizes *across* iterations of a machine-learning application.
//!
//! * [`operator`] — the operator abstraction: every DAG node wraps an
//!   [`operator::Operator`] plus the declaration metadata (signature parts,
//!   phase, volatility) that change tracking needs.
//! * [`dsl`] — the Rust embedding of HML (paper §3): a typed
//!   [`dsl::Workflow`] builder with Scanner / Extractor / Synthesizer /
//!   Learner / Reducer declarations, `uses` edges and `is_output` marks.
//! * [`ops`] — the built-in operator library covering the basis functions
//!   `F` of paper §3.1 (parsing, join, feature extraction/transformation/
//!   concatenation, learning, inference, reduce).
//! * [`track`] — change tracking via Merkle-chain signatures (paper §4.2):
//!   equivalence, originality, volatile-operator nonces.
//! * [`plan`] — compile-time planning: program slicing (§5.4) and
//!   OPT-EXEC-PLAN state assignment via max-flow (§5.2).
//! * [`materialize`] — OPT-MAT-PLAN policies (§5.3): the streaming
//!   Algorithm 2 heuristic, always-materialize (HELIX AM), and
//!   never-materialize (HELIX NM), plus an exact small-DAG solver the
//!   tests use as the optimality reference.
//! * [`engine`] — the execution engine: runs the plan, manages the cache
//!   with eager out-of-scope eviction, times every node, and applies the
//!   materialization policy under the storage budget.
//! * [`session`] — the iteration driver: owns the catalog and statistics
//!   across iterations and exposes `run(&Workflow)`.
//! * [`driver`] — one iteration as an explicit state machine
//!   ([`SessionDriver`]): solo sessions drive it inline, pooled service
//!   runners park it between steps so idle sessions cost memory, not
//!   threads.
//! * [`prune`] — data-driven pruning helpers (zero-weight feature → prunable
//!   extractor provenance, §5.4).
//!
//! ## Quick start
//!
//! ```
//! use helix_core::prelude::*;
//! use helix_data::{FieldValue, Record, RecordBatch, Schema, Scalar, Value};
//!
//! // A two-node workflow: generate numbers, reduce to their mean.
//! let mut wf = Workflow::new("demo");
//! let data = wf.source("data", 1, |_ctx| {
//!     let schema = Schema::new(["x"]);
//!     let rows = (0..10)
//!         .map(|i| Record::train(vec![FieldValue::Int(i)]))
//!         .collect();
//!     Ok(Value::records(RecordBatch::new(schema, rows)?))
//! });
//! let mean = wf.reduce("mean", data, 1, |v, _ctx| {
//!     let batch = v.as_collection()?.as_records()?;
//!     let sum: f64 = batch.rows.iter().filter_map(|r| r.values[0].as_f64()).sum();
//!     Ok(Value::Scalar(Scalar::F64(sum / batch.len() as f64)))
//! });
//! wf.output(mean);
//!
//! let mut session = Session::new(SessionConfig::in_memory()).unwrap();
//! let report = session.run(&wf).unwrap();
//! let out = report.output_scalar("mean").unwrap();
//! assert_eq!(out.as_f64(), Some(4.5));
//! ```

pub mod driver;
pub mod dsl;
pub mod engine;
pub mod materialize;
pub mod operator;
pub mod ops;
pub mod pipeline;
pub mod plan;
pub mod prune;
pub mod session;
pub mod track;

/// Convenient re-exports for workflow authors.
pub mod prelude {
    pub use crate::dsl::{DcHandle, ModelHandle, ScalarHandle, Workflow};
    pub use crate::materialize::MatStrategy;
    pub use crate::session::{IterationReport, ReuseScope, Session, SessionConfig, SessionHandles};
    pub use helix_exec::Phase;
}

pub use driver::{drive_overlapped, speculate_budgeted, SessionDriver, Step};
pub use dsl::Workflow;
pub use materialize::MatStrategy;
pub use operator::{Operator, ProvenanceInputs, SeededOperator};
pub use pipeline::{speculate, BackgroundWriter, Prefetcher, SpeculationInputs, SpeculativePlan};
pub use session::{
    IterationReport, ReuseScope, Session, SessionConfig, SessionHandles, DEFAULT_SEED,
};
pub use track::ExecEnv;
