//! Lock-sharded, bounded span collection.
//!
//! A span is a named time interval on a *track* (one per worker thread,
//! pipeline lane, or tenant) with structured labels. Spans are recorded
//! into a fixed number of shards — each a [`RingLog`] behind its own
//! mutex, selected by the recording thread's ordinal — so concurrent
//! workers almost never contend on one lock. Each shard is bounded;
//! overflow drops the oldest span and is counted, never silent.
//!
//! ## Cost model
//!
//! * Tracing disabled (the default): [`span`] is one relaxed atomic load
//!   and returns an inert guard — no clock read, no allocation, no lock.
//! * Tracing enabled: two `Instant` reads per span plus one short
//!   critical section on the recording thread's shard.
//!
//! ## Inertness
//!
//! Timestamps recorded here are never read back by the engine, the
//! optimizers, or the service — the only consumers are the exporters in
//! [`crate::export`]. See the crate docs for the full argument.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use helix_common::ring::RingLog;
use helix_common::timing::duration_to_nanos;
use helix_common::Nanos;
use parking_lot::Mutex;

/// Number of shards in the span ring. A small power of two: enough that
/// an 8-worker engine plus lane/writer threads rarely collide.
const SHARDS: usize = 16;

/// Per-shard capacity. 64 × `BOUNDED_LOG_CAP` (= 4096) spans per shard,
/// 65 536 workspace-wide — minutes of engine activity, bounded memory.
const SHARD_CAP: usize = 64 * helix_common::BOUNDED_LOG_CAP;

/// One completed span: a closed interval of monotonic nanos on a track.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Span name, e.g. `"compute"`, `"journal.append"`.
    pub name: &'static str,
    /// Category — one of the [`crate::layer`] constants.
    pub cat: &'static str,
    /// Begin, nanos since the process-wide trace epoch.
    pub begin: Nanos,
    /// End, nanos since the process-wide trace epoch (`end >= begin`).
    pub end: Nanos,
    /// Ordinal of the recording thread (stable for the thread's life).
    pub thread: u32,
    /// Explicit track name (e.g. `"lane-0"`, `"tenant-alice"`); when
    /// `None` the exporter derives `worker-<thread>`.
    pub track: Option<String>,
    /// Tenant label, for serve/storage spans.
    pub tenant: Option<String>,
    /// Session id label.
    pub session: Option<u64>,
    /// Iteration number label.
    pub iteration: Option<u64>,
    /// Workflow node name label, for engine spans.
    pub node: Option<String>,
    /// Lane index label, for pipeline spans.
    pub lane: Option<u32>,
    /// Free numeric payload: bytes written, frames replayed, scaled DRF
    /// share — whatever magnitude the span wants to carry.
    pub amount: Option<u64>,
}

impl SpanEvent {
    /// Span duration in nanos.
    pub fn duration(&self) -> Nanos {
        self.end.saturating_sub(self.begin)
    }

    /// The track key the exporters group this span under.
    pub fn track_key(&self) -> String {
        match &self.track {
            Some(t) => t.clone(),
            None => format!("worker-{:02}", self.thread),
        }
    }
}

struct Shard {
    ring: RingLog<SpanEvent>,
    /// Drop count already handed out by a previous drain, so each drain
    /// reports only the drops that happened since the last one.
    reported_drops: u64,
}

/// A sharded bounded collector. The process-wide instance backs the free
/// functions below; tests build private instances to avoid cross-test
/// interference.
pub struct Collector {
    shards: Vec<Mutex<Shard>>,
}

impl Collector {
    /// Build a collector with `shards` shards of `cap` spans each.
    pub fn new(shards: usize, cap: usize) -> Self {
        let shards = shards.max(1);
        Collector {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard { ring: RingLog::new(cap), reported_drops: 0 }))
                .collect(),
        }
    }

    /// Record one completed span.
    pub fn record(&self, event: SpanEvent) {
        let idx = event.thread as usize % self.shards.len();
        self.shards[idx].lock().ring.push(event);
    }

    /// Drain all retained spans (sorted by begin time, then thread) and
    /// the number of spans dropped since the previous drain.
    pub fn drain(&self) -> (Vec<SpanEvent>, u64) {
        let mut events = Vec::new();
        let mut dropped = 0;
        for shard in &self.shards {
            let mut s = shard.lock();
            events.extend(s.ring.drain());
            let total = s.ring.dropped();
            dropped += total - s.reported_drops;
            s.reported_drops = total;
        }
        events.sort_by_key(|e| (e.begin, e.thread, e.end));
        (events, dropped)
    }

    /// Number of spans currently retained across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().ring.len()).sum()
    }

    /// True when no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn global() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector::new(SHARDS, SHARD_CAP))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanos since the process-wide trace epoch. The epoch is
/// fixed at first use, so all spans in one process share an origin.
pub fn now_nanos() -> Nanos {
    duration_to_nanos(epoch().elapsed())
}

// Enabled flag: 0 = uninitialised (read the env on first query),
// 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether span collection is currently on.
pub fn tracing_enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => {
            let on = std::env::var_os("HELIX_TRACE").is_some();
            ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
        2 => true,
        _ => false,
    }
}

/// Programmatically switch span collection on or off, overriding the
/// `HELIX_TRACE` default. Used by tests and embedding drivers.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// The trace output path from `HELIX_TRACE`, if set (and non-empty).
pub fn trace_env_path() -> Option<PathBuf> {
    match std::env::var_os("HELIX_TRACE") {
        Some(p) if !p.is_empty() => Some(PathBuf::from(p)),
        _ => None,
    }
}

/// Stable small ordinal for the calling thread (assigned on first use).
fn thread_ordinal() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ORDINAL: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

/// RAII span: begins at construction (or at an explicit retrospective
/// interval), records into the global collector when dropped. All label
/// setters move the guard, so instrumentation reads as one expression:
///
/// ```ignore
/// let _span = obs::span(obs::layer::ENGINE, "compute").node(name);
/// ```
#[must_use = "a span records when dropped; binding it to `_` ends it immediately"]
pub struct SpanGuard {
    event: Option<SpanEvent>,
    /// Retrospective spans carry a fixed end; live spans stamp on drop.
    fixed_end: bool,
}

impl SpanGuard {
    fn inert() -> Self {
        SpanGuard { event: None, fixed_end: false }
    }

    /// Set the explicit track name (e.g. `"lane-0"`, `"tenant-alice"`).
    pub fn track(mut self, track: impl Into<String>) -> Self {
        if let Some(e) = &mut self.event {
            e.track = Some(track.into());
        }
        self
    }

    /// Label the span with a tenant name.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        if let Some(e) = &mut self.event {
            e.tenant = Some(tenant.into());
        }
        self
    }

    /// Label the span with a session id.
    pub fn session(mut self, session: u64) -> Self {
        if let Some(e) = &mut self.event {
            e.session = Some(session);
        }
        self
    }

    /// Label the span with an iteration number.
    pub fn iteration(mut self, iteration: u64) -> Self {
        if let Some(e) = &mut self.event {
            e.iteration = Some(iteration);
        }
        self
    }

    /// Label the span with a workflow node name.
    pub fn node(mut self, node: impl Into<String>) -> Self {
        if let Some(e) = &mut self.event {
            e.node = Some(node.into());
        }
        self
    }

    /// Label the span with a lane index.
    pub fn lane(mut self, lane: u32) -> Self {
        if let Some(e) = &mut self.event {
            e.lane = Some(lane);
        }
        self
    }

    /// Attach a numeric payload (bytes, frames, scaled share, …).
    pub fn amount(mut self, amount: u64) -> Self {
        if let Some(e) = &mut self.event {
            e.amount = Some(amount);
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut event) = self.event.take() {
            if !self.fixed_end {
                event.end = now_nanos();
            }
            global().record(event);
        }
    }
}

fn fresh_event(cat: &'static str, name: &'static str, begin: Nanos, end: Nanos) -> SpanEvent {
    SpanEvent {
        name,
        cat,
        begin,
        end,
        thread: thread_ordinal(),
        track: None,
        tenant: None,
        session: None,
        iteration: None,
        node: None,
        lane: None,
        amount: None,
    }
}

/// Open a live span: begins now, ends (and records) when the returned
/// guard drops. A no-op returning an inert guard when tracing is off.
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard::inert();
    }
    let begin = now_nanos();
    SpanGuard { event: Some(fresh_event(cat, name, begin, begin)), fixed_end: false }
}

/// Record a retrospective span over an already-measured interval of the
/// obs clock (`[begin, begin + dur_nanos]`). Returns a guard so labels
/// can be chained; the span is committed when the guard drops.
pub fn span_at(cat: &'static str, name: &'static str, begin: Nanos, dur_nanos: Nanos) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard::inert();
    }
    SpanGuard {
        event: Some(fresh_event(cat, name, begin, begin.saturating_add(dur_nanos))),
        fixed_end: true,
    }
}

/// Drain the global collector: all retained spans (time-sorted) plus the
/// count of spans dropped under pressure since the previous drain.
pub fn drain_spans() -> (Vec<SpanEvent>, u64) {
    global().drain()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_bounds_and_counts_drops() {
        let c = Collector::new(1, 8);
        for i in 0..20u64 {
            let mut e = fresh_event("t", "x", i, i + 1);
            e.thread = 0;
            c.record(e);
        }
        let (events, dropped) = c.drain();
        assert_eq!(events.len(), 8);
        assert_eq!(dropped, 12);
        // Oldest dropped first: the retained spans are the newest 8.
        assert_eq!(events.first().unwrap().begin, 12);
        // A second drain reports only new drops.
        let (events, dropped) = c.drain();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn drain_sorts_across_shards() {
        let c = Collector::new(4, 8);
        for i in 0..12u64 {
            let mut e = fresh_event("t", "x", 100 - i, 100 - i);
            e.thread = i as u32; // spread across shards
            c.record(e);
        }
        let (events, _) = c.drain();
        let begins: Vec<_> = events.iter().map(|e| e.begin).collect();
        let mut sorted = begins.clone();
        sorted.sort_unstable();
        assert_eq!(begins, sorted);
    }

    #[test]
    fn track_key_defaults_to_worker() {
        let mut e = fresh_event("t", "x", 0, 1);
        e.thread = 3;
        assert_eq!(e.track_key(), "worker-03");
        e.track = Some("lane-1".into());
        assert_eq!(e.track_key(), "lane-1");
    }
}
