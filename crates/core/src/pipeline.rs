//! The pipelined iteration runtime: the lanes that hide I/O under an
//! iteration's compute (as in arXiv:2411.15871). They are the engine's
//! only write and load paths; `pipeline = false` runs the same code with
//! no writer and zero load lanes.
//!
//! * **Write lane** ([`BackgroundWriter`]) — every materialization is
//!   *staged* in the catalog index synchronously (so every Algorithm-2
//!   decision sees the same budget/catalog state, in the engine's
//!   deterministic finalize order). With a writer, the throttled file
//!   writes drain on a background thread, across iteration boundaries,
//!   and each drained batch is sealed with one journal commit; without
//!   one, the engine lands the stage inline. The journal never
//!   references a non-durable file, so a crash mid-write recovers to a
//!   consistent catalog.
//! * **Load lane** ([`Prefetcher`]) — every planned `Load` is taken from
//!   the prefetcher. Its lanes fetch loads concurrently from iteration
//!   start instead of when the frontier reaches them, hiding load I/O
//!   under compute even on chains where DAG order would serialize the
//!   reads; a load no lane has started is fetched by the taker. Loads
//!   report the disk model's deterministic cost to the statistics
//!   whoever fetched them; the real, overlapped wall time is reported
//!   separately ([`helix_exec::IterationMetrics::load_nanos`]).
//!
//! Planning is not a lane: each iteration solves OPT-EXEC-PLAN on its
//! own thread before it executes.
//!
//! Budget discipline: the load lanes are *sized* by the budget at spawn
//! time (the engine leases one token per extra lane for the lanes'
//! lifetime — decode is real CPU, not just sleep — and always keeps one
//! lane on the iteration's own token); the single write-lane thread
//! leases opportunistically per write (`try_acquire_one`, held while
//! working) but proceeds regardless, since a throttled file write is
//! sleep-dominated. `peak_leased ≤ budget` continues to hold because
//! only non-blocking acquisition is used.

use helix_common::hash::Signature;
use helix_common::timing::Nanos;
use helix_common::HelixError;
use helix_data::Value;
use helix_exec::{CoreBudget, TaskQueue};
use helix_flow::NodeId;
use helix_storage::MaterializationCatalog;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------
// Write lane
// ---------------------------------------------------------------------

struct WriteJob {
    sig: Signature,
    frame: Arc<Vec<u8>>,
}

struct WriterShared {
    catalog: Arc<MaterializationCatalog>,
    core_budget: Option<Arc<CoreBudget>>,
    queue: TaskQueue<WriteJob>,
    state: Mutex<WriterState>,
    idle: Condvar,
}

#[derive(Default)]
struct WriterState {
    in_system: usize,
    first_error: Option<HelixError>,
}

/// The writer's drain thread, started on the first enqueue. Lazy so the
/// thousands of mostly-loading sessions a pooled service multiplexes
/// never pay a thread for a write lane they don't use (the
/// `runner_stress` thread bound counts on this).
enum LazyThread {
    NotStarted,
    Running(std::thread::JoinHandle<()>),
    Failed,
}

/// The background materialization writer: a session-lifetime thread that
/// lands staged catalog writes off the critical path (see module docs).
///
/// Staging ([`MaterializationCatalog::stage_owned`]) already made the
/// entry visible, loadable, and quota-charged; this lane only turns it
/// durable. Writes may drain *across* iteration boundaries — the next
/// iteration's planner and loads work fine against staged entries — and
/// the journal is committed on every idle edge, never referencing an
/// un-landed file.
pub struct BackgroundWriter {
    shared: Arc<WriterShared>,
    handle: Mutex<LazyThread>,
}

impl BackgroundWriter {
    /// A writer for `catalog`. No thread is spawned until the first
    /// [`enqueue`](Self::enqueue).
    pub fn new(
        catalog: Arc<MaterializationCatalog>,
        core_budget: Option<Arc<CoreBudget>>,
    ) -> BackgroundWriter {
        let shared = Arc::new(WriterShared {
            catalog,
            core_budget,
            queue: TaskQueue::new(),
            state: Mutex::new(WriterState::default()),
            idle: Condvar::new(),
        });
        BackgroundWriter { shared, handle: Mutex::new(LazyThread::NotStarted) }
    }

    /// Start the drain thread if it isn't running; `false` means a
    /// previous spawn failed and writes must land inline.
    fn ensure_thread(&self) -> bool {
        let mut handle = self.handle.lock().expect("writer handle poisoned");
        match &*handle {
            LazyThread::Running(_) => true,
            LazyThread::Failed => false,
            LazyThread::NotStarted => {
                let shared = Arc::clone(&self.shared);
                match std::thread::Builder::new()
                    .name("helix-bg-writer".into())
                    .spawn(move || Self::drain_loop(&shared))
                {
                    Ok(h) => {
                        *handle = LazyThread::Running(h);
                        true
                    }
                    Err(_) => {
                        *handle = LazyThread::Failed;
                        false
                    }
                }
            }
        }
    }

    /// Deepest backlog `enqueue` accepts before it blocks the caller.
    /// Bounded so a producer outrunning the throttled disk cannot pile
    /// retained frames without limit — beyond this, staging degrades to
    /// the backpressure of an inline write.
    const MAX_BACKLOG: usize = 16;

    /// Hand a staged frame to the write lane, blocking while the backlog
    /// is at `MAX_BACKLOG`. (If the writer thread failed to spawn, the
    /// write is landed inline — slower, never lost.)
    pub fn enqueue(&self, sig: Signature, frame: Arc<Vec<u8>>) {
        if !self.ensure_thread() {
            let result = self.shared.catalog.complete_stage(sig, &frame);
            Self::record_error(&self.shared, result.err());
            return;
        }
        let mut state = self.shared.state.lock().expect("writer state poisoned");
        while state.in_system >= Self::MAX_BACKLOG {
            state = self.shared.idle.wait(state).expect("writer state poisoned");
        }
        state.in_system += 1;
        drop(state);
        self.shared.queue.push(WriteJob { sig, frame });
    }

    /// Block until every enqueued write has landed, then seal them with a
    /// journal commit. Returns the first write error observed since the
    /// last sync (an inline write would have failed the iteration at that
    /// node; the background lane surfaces it at the next barrier).
    pub fn sync(&self) -> helix_common::Result<()> {
        let mut state = self.shared.state.lock().expect("writer state poisoned");
        while state.in_system > 0 {
            state = self.shared.idle.wait(state).expect("writer state poisoned");
        }
        let error = state.first_error.take();
        drop(state);
        let commit = self.shared.catalog.commit_staged();
        match (error, commit) {
            // The write error outranks (it names lost bytes); a commit
            // failure on top is re-recorded so the next sync sees it too.
            (Some(err), commit) => {
                Self::record_error(&self.shared, commit.err());
                Err(err)
            }
            (None, Err(err)) => Err(err),
            (None, Ok(())) => Ok(()),
        }
    }

    /// Non-blocking: the first write error recorded since the last check,
    /// if any. Sessions poll this at iteration boundaries so a failed
    /// background write fails the *next* iteration loudly instead of
    /// vanishing.
    pub fn take_error(&self) -> Option<HelixError> {
        self.shared.state.lock().expect("writer state poisoned").first_error.take()
    }

    fn record_error(shared: &WriterShared, err: Option<HelixError>) {
        if let Some(err) = err {
            let mut state = shared.state.lock().expect("writer state poisoned");
            state.first_error.get_or_insert(err);
        }
    }

    fn drain_loop(shared: &WriterShared) {
        while let Some(job) = shared.queue.pop() {
            // Opportunistic token: accounts the lane while it works, but a
            // sleep-dominated throttled write never idles a durable token.
            let _lease = shared.core_budget.as_ref().and_then(|b| b.try_acquire_one());
            let drain_span =
                helix_obs::span(helix_obs::layer::PIPELINE, "writer.drain").track("writer");
            let result = shared.catalog.complete_stage(job.sig, &job.frame);
            drop(drain_span);
            Self::record_error(shared, result.err());
            let now_idle = {
                let mut state = shared.state.lock().expect("writer state poisoned");
                state.in_system -= 1;
                state.in_system == 0
            };
            // Every landed write wakes waiters: backpressured enqueues
            // re-check the backlog bound, sync() re-checks for idle.
            shared.idle.notify_all();
            if now_idle {
                // Idle edge: everything staged so far is durable — seal it.
                let _span =
                    helix_obs::span(helix_obs::layer::PIPELINE, "writer.commit").track("writer");
                let result = shared.catalog.commit_staged();
                Self::record_error(shared, result.err());
                shared.idle.notify_all();
            }
        }
    }
}

impl Drop for BackgroundWriter {
    fn drop(&mut self) {
        self.shared.queue.close();
        let handle = std::mem::replace(
            self.handle.get_mut().expect("writer handle poisoned"),
            LazyThread::Failed,
        );
        if let LazyThread::Running(handle) = handle {
            let _ = handle.join();
        }
        // Final seal for anything the loop landed right before close.
        let commit = self.shared.catalog.commit_staged();
        Self::record_error(&self.shared, commit.err());
        // Drop cannot return an error; a write failure nobody polled
        // (via `sync` or the next iteration) must not vanish silently.
        if let Some(err) = self.take_error() {
            eprintln!("helix: background materialization write lost at shutdown: {err}");
        }
    }
}

// ---------------------------------------------------------------------
// Load lane
// ---------------------------------------------------------------------

/// One fetched load, ready for the node that planned it.
pub struct PrefetchedLoad {
    /// The decoded artifact.
    pub value: Value,
    /// Deterministic load cost (the disk model's target) — what the node
    /// reports as its run time, whichever thread fetched it.
    pub load_nanos: Nanos,
    /// Whether the artifact was written by another tenant.
    pub cross: bool,
}

enum Slot {
    InFlight,
    /// Landed; `None` once taken (or claimed by the taker itself).
    Done(Option<helix_common::Result<PrefetchedLoad>>),
}

struct PrefetchState {
    cursor: usize,
    halted: bool,
    slots: HashMap<u32, Slot>,
}

/// The one way a planned `Load` reaches the engine.
///
/// Each load is fetched exactly once, by whoever claims it first under
/// one lock: a lane ([`run_lane`](Self::run_lane)) claims ahead of the
/// frontier in topo order; [`take`](Self::take) claims a load no lane has
/// started and fetches it on the caller's thread, or blocks until the
/// lane's fetch lands. With zero lanes (`pipeline` off, or a plan with
/// no loads) every take fetches inline. After [`halt`](Self::halt)
/// (first error observed) lanes stop *starting* fetches; in-flight ones
/// still complete. Bytes are identical whoever fetched them.
pub struct Prefetcher<'a> {
    catalog: &'a MaterializationCatalog,
    tenant: &'a str,
    epoch: Instant,
    jobs: Vec<(NodeId, Signature)>,
    state: Mutex<PrefetchState>,
    ready: Condvar,
    spans: Mutex<Vec<(Nanos, Nanos)>>,
    /// Trace-only ordinal handed to each `run_lane` entrant so every
    /// lane renders as its own track.
    lane_seq: AtomicU32,
}

impl<'a> Prefetcher<'a> {
    /// A prefetcher whose lanes may fetch `jobs` (`Load` nodes, topo
    /// order) ahead of the frontier; empty means every take fetches
    /// inline. Lane *accounting* is the spawner's job: the engine leases
    /// one core token per extra lane for the lanes' lifetime (loads
    /// decode real CPU, not just sleep), so `run_lane` itself leases
    /// nothing.
    pub fn new(
        catalog: &'a MaterializationCatalog,
        tenant: &'a str,
        epoch: Instant,
        jobs: Vec<(NodeId, Signature)>,
    ) -> Prefetcher<'a> {
        Prefetcher {
            catalog,
            tenant,
            epoch,
            jobs,
            state: Mutex::new(PrefetchState { cursor: 0, halted: false, slots: HashMap::new() }),
            ready: Condvar::new(),
            spans: Mutex::new(Vec::new()),
            lane_seq: AtomicU32::new(0),
        }
    }

    /// How many I/O lanes are worth spawning: none without jobs.
    pub fn lanes(&self) -> usize {
        self.jobs.len().min(4)
    }

    /// One lane: claim loads in topo order and fetch until drained or
    /// halted. Run from a scoped thread.
    pub fn run_lane(&self) {
        let lane = self.lane_seq.fetch_add(1, Ordering::Relaxed);
        loop {
            let (node, sig) = {
                let mut state = self.state.lock().expect("prefetch state poisoned");
                if state.halted {
                    return;
                }
                // Skip jobs another lane or a take already claimed.
                while state.cursor < self.jobs.len()
                    && state.slots.contains_key(&self.jobs[state.cursor].0 .0)
                {
                    state.cursor += 1;
                }
                if state.cursor >= self.jobs.len() {
                    return;
                }
                let job = self.jobs[state.cursor];
                state.cursor += 1;
                state.slots.insert(job.0 .0, Slot::InFlight);
                job
            };
            let fetch_span = helix_obs::span(helix_obs::layer::PIPELINE, "prefetch")
                .track(format!("lane-{lane}"))
                .tenant(self.tenant)
                .lane(lane);
            let result = self.fetch(sig);
            drop(fetch_span);
            let mut state = self.state.lock().expect("prefetch state poisoned");
            state.slots.insert(node.0, Slot::Done(Some(result)));
            drop(state);
            self.ready.notify_all();
        }
    }

    /// `node`'s load, planned under `sig`: the lane's result when a lane
    /// claimed it (blocking until it lands), otherwise fetched here.
    pub fn take(&self, node: NodeId, sig: Signature) -> helix_common::Result<PrefetchedLoad> {
        let mut state = self.state.lock().expect("prefetch state poisoned");
        loop {
            match state.slots.get_mut(&node.0) {
                Some(Slot::Done(result)) => return result.take().expect("prefetch taken twice"),
                Some(Slot::InFlight) => {}
                None => {
                    state.slots.insert(node.0, Slot::Done(None));
                    drop(state);
                    return self.fetch(sig);
                }
            }
            state = self.ready.wait(state).expect("prefetch state poisoned");
        }
    }

    /// Stop lanes from starting new fetches (in-flight ones complete;
    /// takes still fetch). Idempotent.
    pub fn halt(&self) {
        self.state.lock().expect("prefetch state poisoned").halted = true;
    }

    /// Epoch-relative wall offsets of each completed fetch.
    pub fn spans(&self) -> Vec<(Nanos, Nanos)> {
        self.spans.lock().expect("prefetch spans poisoned").clone()
    }

    /// Read `sig` from the catalog, recording the fetch's wall span.
    fn fetch(&self, sig: Signature) -> helix_common::Result<PrefetchedLoad> {
        let start = self.offset_nanos();
        let result = self
            .catalog
            .load_for(sig, self.tenant)
            .map(|(value, load_nanos, cross)| PrefetchedLoad { value, load_nanos, cross });
        let end = self.offset_nanos();
        self.spans.lock().expect("prefetch spans poisoned").push((start, end));
        result
    }

    fn offset_nanos(&self) -> Nanos {
        helix_common::timing::duration_to_nanos(self.epoch.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_data::Scalar;
    use helix_storage::DiskProfile;

    fn scalar(v: f64) -> Value {
        Value::Scalar(Scalar::F64(v))
    }

    #[test]
    fn background_writer_lands_staged_frames_and_seals_the_journal() {
        let catalog =
            Arc::new(MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap());
        let writer = BackgroundWriter::new(Arc::clone(&catalog), None);
        let mut frames = Vec::new();
        for i in 0..8 {
            let sig = Signature::of_str(&format!("bg-{i}"));
            let (_, _, frame) = catalog.stage_owned(sig, "", "n", 0, &scalar(i as f64)).unwrap();
            frames.push((sig, frame));
        }
        for (sig, frame) in &frames {
            writer.enqueue(*sig, Arc::clone(frame));
        }
        writer.sync().unwrap();
        assert_eq!(catalog.pending_stages(), 0);
        for (sig, _) in &frames {
            assert!(catalog.root().join(format!("{}.hxm", sig.to_hex())).exists());
        }
        // Journal sealed: a reopen sees every artifact.
        let root = catalog.root().to_path_buf();
        drop(writer);
        drop(catalog);
        let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        assert_eq!(reopened.len(), 8);
    }

    #[test]
    fn writer_drop_drains_outstanding_writes() {
        let catalog =
            Arc::new(MaterializationCatalog::open_temp(DiskProfile::scaled(5_000_000, 0)).unwrap());
        let writer = BackgroundWriter::new(Arc::clone(&catalog), None);
        let sig = Signature::of_str("drop-drains");
        let (_, _, frame) = catalog.stage_owned(sig, "", "n", 0, &scalar(1.0)).unwrap();
        writer.enqueue(sig, frame);
        drop(writer);
        assert_eq!(catalog.pending_stages(), 0, "drop waits for the queue");
        let (value, _) = catalog.load(sig).unwrap();
        assert_eq!(value.as_scalar().unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn prefetcher_fetches_each_load_once_and_serves_takes() {
        // With lanes, takes block on fetches already claimed; with none,
        // every take fetches on its own thread.
        for spawn_lanes in [true, false] {
            let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
            let mut jobs = Vec::new();
            for i in 0..6u32 {
                let sig = Signature::of_str(&format!("pf-{i}"));
                catalog.store(sig, "n", 0, &scalar(i as f64)).unwrap();
                jobs.push((NodeId(i), sig));
            }
            let prefetcher = Prefetcher::new(&catalog, "", Instant::now(), jobs.clone());
            std::thread::scope(|scope| {
                if spawn_lanes {
                    for _ in 0..prefetcher.lanes() {
                        scope.spawn(|| prefetcher.run_lane());
                    }
                }
                // Take out of submission order to exercise blocking takes.
                for i in [3u32, 0, 5, 1, 4, 2] {
                    let load = prefetcher.take(NodeId(i), jobs[i as usize].1).unwrap();
                    assert_eq!(load.value.as_scalar().unwrap().as_f64(), Some(i as f64));
                }
                prefetcher.halt();
            });
            assert_eq!(prefetcher.spans().len(), 6, "every load fetched exactly once");
            assert_eq!(catalog.owner_stats("").loads(), 6, "lanes: {spawn_lanes}");
        }
        let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        assert_eq!(Prefetcher::new(&catalog, "", Instant::now(), Vec::new()).lanes(), 0);
    }

    #[test]
    fn halted_prefetcher_fetches_unstarted_loads_on_the_callers_thread() {
        let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        let sig = Signature::of_str("never-prefetched");
        catalog.store(sig, "n", 0, &scalar(1.0)).unwrap();
        let prefetcher = Prefetcher::new(&catalog, "", Instant::now(), vec![(NodeId(0), sig)]);
        prefetcher.halt();
        // No lane ever ran: the take claims the load and fetches it.
        let load = prefetcher.take(NodeId(0), sig).unwrap();
        assert_eq!(load.value.as_scalar().unwrap().as_f64(), Some(1.0));
        assert_eq!(prefetcher.spans().len(), 1);
    }
}
