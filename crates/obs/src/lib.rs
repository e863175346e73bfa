//! # helix-obs
//!
//! The observability substrate of the HELIX reproduction. Three pieces:
//!
//! * [`mod@span`] — a lock-sharded, bounded in-process **span ring**: RAII
//!   begin/end events with monotonic nanos, a stable per-thread track id,
//!   and structured labels (tenant/session/iteration/node/lane). Cheap
//!   enough to leave compiled in: when tracing is disabled a span is two
//!   atomic loads and no clock read. Under pressure the ring drops
//!   oldest-first and counts every drop so truncation is never silent.
//! * [`metrics`] — a registry of named counters, gauges and log-bucketed
//!   histograms with p50/p95/p99 extraction that is exact within bucket
//!   resolution (≤ 1/32 relative error above 32, exact below).
//! * [`export`] — exporters: Chrome `trace_event` JSON (loadable in
//!   Perfetto / `chrome://tracing`, one track per worker/lane/tenant).
//!
//! ## Inertness contract
//!
//! Nothing in this crate feeds back into planning or execution: spans and
//! metrics are written, never read, by the instrumented layers. Plans,
//! signatures, and materialization decisions see no timestamp originating
//! here, so enabling tracing cannot perturb byte-identity — a property
//! enforced by `tests/observability_inertness.rs` at the workspace root.
//!
//! ## Enabling
//!
//! Tracing is off by default. Set `HELIX_TRACE=<path>` to enable span
//! collection and have [`export::write_env_trace`] (the examples call it
//! on exit) write a Chrome trace to `<path>`, or call
//! [`span::set_enabled`] / [`export::write_trace`] programmatically (used
//! by tests and the ledger).

pub mod export;
pub mod metrics;
pub mod span;

pub use export::{chrome_trace_json, write_env_trace, write_trace};
pub use metrics::{Histogram, HistogramSummary, Registry, RegistrySnapshot};
pub use span::{
    drain_spans, now_nanos, set_enabled, span, span_at, trace_env_path, tracing_enabled, SpanEvent,
    SpanGuard,
};

/// Span categories, one per instrumented layer. Kept as plain string
/// constants (Chrome `cat` field) so adding a layer is not a breaking
/// enum change.
pub mod layer {
    /// Engine node lifecycle: dispatch/compute/load/prune/materialize.
    pub const ENGINE: &str = "engine";
    /// `core::pipeline` lanes: background writer, prefetch.
    pub const PIPELINE: &str = "pipeline";
    /// Serve admission + runner: `admission.queued` (enqueue→pick, DRF
    /// share at pick), `session.park` (a pool worker blocked on the core
    /// budget for a job's token; only jobs that found none free), `execute`;
    /// gauge `serve.sessions_parked` counts the jobs waiting for a core
    /// token right now.
    pub const SERVE: &str = "serve";
    /// Storage: journal append/compact/fsync, eviction, recovery replay.
    pub const STORAGE: &str = "storage";
    /// The ledger benchmark's own measured windows.
    pub const BENCH: &str = "bench";
}
