//! # helix-exec
//!
//! Execution-engine infrastructure (the paper used Spark for this layer;
//! we provide the single-process, multi-threaded equivalent):
//!
//! * [`budget`] — the process-wide [`CoreBudget`]: a shared pool of core
//!   tokens that node-level scheduling, data-parallel operators, and
//!   concurrent service sessions all draw from, so total working threads
//!   never exceed the machine (the ROADMAP's `workers²` fix).
//! * [`pool`] — a scoped worker pool for data-parallel operators.
//!   "Cluster size" in the paper's Figure 7(b) maps to pool width here.
//!   Budget-governed pools treat their width as a ceiling and degrade
//!   gracefully (deterministically) when tokens are scarce.
//! * [`cache`] — the in-memory intermediate cache with HELIX's *eager*
//!   eviction of out-of-scope nodes (paper §5.4 "Cache Pruning": "HELIX
//!   improves upon [Spark's LRU] by actively managing the set of data to
//!   evict").
//! * [`memory`] — resident-byte sampling behind the paper's Figure 10
//!   (peak and average memory per iteration).
//! * [`metrics`] — per-node and per-iteration run-time accounting broken
//!   down by workflow component (DPR / L/I / PPR / materialization), the
//!   series plotted in Figures 5, 6 and 9.

pub mod budget;
pub mod cache;
pub mod memory;
pub mod metrics;
pub mod pool;

pub use budget::{CoreBudget, CoreLease, OwnedCoreLease, ReleaseNotifier};
pub use cache::SharedValueCache;
pub use memory::{MemoryTracker, SharedMemoryTracker};
pub use metrics::{interval_union_nanos, IterationMetrics, NodeRun, Phase, RunState};
pub use pool::{Executor, TaskQueue, WorkerPool};
