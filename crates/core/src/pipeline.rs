//! The pipelined iteration runtime: the machinery that overlaps the
//! *iterate → reuse → iterate* loop the paper is about (ROADMAP
//! "pipeline across iterations"; plan-then-execute split à la the Helix
//! LLM-serving follow-up, arXiv:2406.01566; I/O hidden under compute as
//! in arXiv:2411.15871).
//!
//! Three lanes run beside the engine's compute frontier:
//!
//! * **Plan lane** ([`SpeculationInputs`] / [`speculate`]) — iteration
//!   `t+1`'s signature chain and OPT-EXEC-PLAN solve start on a
//!   budget-leased thread while `t`'s tail nodes still execute.
//!   Speculation is *read-only* and records the planner's exact read set
//!   ([`helix_core::plan::PlanReadSet`](crate::plan::PlanReadSet)); when
//!   `t+1` actually begins, the session revalidates every read against
//!   the now-final state and reuses the speculative plan only on a
//!   perfect match — otherwise it replans exactly as a serial session
//!   would. The plan *used* is therefore always byte-identical to the
//!   serial plan; speculation can only move work off the critical path,
//!   never change it.
//! * **Write lane** ([`BackgroundWriter`]) — elective materializations
//!   are *staged* in the catalog index synchronously (so every
//!   Algorithm-2 decision still sees serial-identical budget/catalog
//!   state, in the engine's deterministic finalize order) while the
//!   throttled file writes drain on a background thread, across iteration
//!   boundaries. The writer seals each drained batch with one journal
//!   commit; the journal never references a non-durable file, so a crash
//!   mid-write recovers to a consistent catalog.
//! * **Load lane** ([`Prefetcher`]) — every plan-time-claimed `Load` is
//!   fetched concurrently from iteration start instead of lazily when the
//!   frontier reaches it, hiding load I/O under compute even on chains
//!   where DAG order would serialize the reads. Loads report the disk
//!   model's deterministic cost to the statistics (identical to serial);
//!   the real, overlapped wall time is reported separately
//!   ([`helix_exec::IterationMetrics::load_nanos`]).
//!
//! Budget discipline: the plan lane leases a token or skips entirely;
//! the load lanes are *sized* by the budget at spawn time (the engine
//! leases one token per extra lane for the lanes' lifetime — decode is
//! real CPU, not just sleep — and always keeps one lane on the
//! iteration's own token); the single write-lane thread leases
//! opportunistically per write (`try_acquire_one`, held while working)
//! but proceeds regardless, since a throttled file write is
//! sleep-dominated. `peak_leased ≤ budget` continues to hold because
//! only non-blocking acquisition is used.

use crate::dsl::Workflow;
use crate::plan::{plan_from_read_set, plan_read_set, Plan, PlanInputs, PlanReadSet};
use crate::session::ReuseScope;
use crate::track::{chain_signatures, ExecEnv};
use helix_common::hash::Signature;
use helix_common::timing::Nanos;
use helix_common::HelixError;
use helix_data::Value;
use helix_exec::{CoreBudget, TaskQueue};
use helix_flow::NodeId;
use helix_storage::MaterializationCatalog;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
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
    /// the serial engine's natural inline-write backpressure.
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
    /// last sync (serial `store_owned` would have failed the iteration at
    /// that node; the background lane surfaces it at the next barrier).
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

    /// Writes currently staged but not yet landed.
    pub fn backlog(&self) -> usize {
        self.shared.state.lock().expect("writer state poisoned").in_system
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

/// One prefetched load, ready for the node that planned it.
pub struct PrefetchedLoad {
    /// The decoded artifact.
    pub value: Value,
    /// Deterministic load cost (the disk model's target) — what the node
    /// reports as its run time, identical to a lazy serial load.
    pub load_nanos: Nanos,
    /// Whether the artifact was written by another tenant.
    pub cross: bool,
}

/// What [`Prefetcher::take`] hands the dispatching worker.
pub enum PrefetchTake {
    /// The load finished (or failed) in the prefetch lane.
    Ready(helix_common::Result<PrefetchedLoad>),
    /// The lane was halted before this load started — fall back to a
    /// direct catalog read (happens only on error-path iterations).
    Cancelled,
}

enum Slot {
    InFlight,
    Done(Option<helix_common::Result<PrefetchedLoad>>),
    Cancelled,
}

struct PrefetchState {
    cursor: usize,
    halted: bool,
    slots: HashMap<u32, Slot>,
}

/// Concurrent fetcher for every `Load` node of one iteration's plan.
///
/// Lanes claim jobs in topo order under one lock, so each load is fetched
/// exactly once; `take` blocks until its node's fetch lands. After
/// [`halt`](Self::halt) (first error observed, or driver shutdown) lanes
/// stop *starting* fetches; in-flight ones still complete, and takes of
/// never-started loads report [`PrefetchTake::Cancelled`] so the worker
/// loads directly — byte-identical either way.
pub struct Prefetcher<'a> {
    catalog: &'a MaterializationCatalog,
    tenant: &'a str,
    epoch: Instant,
    jobs: Vec<(NodeId, Signature)>,
    state: Mutex<PrefetchState>,
    ready: Condvar,
    halted_flag: AtomicBool,
    spans: Mutex<Vec<(Nanos, Nanos)>>,
    /// Trace-only ordinal handed to each `run_lane` entrant so every
    /// lane renders as its own track.
    lane_seq: AtomicU32,
}

impl<'a> Prefetcher<'a> {
    /// A prefetcher over `jobs` (the plan's `Load` nodes, topo order).
    /// Lane *accounting* is the spawner's job: the engine leases one
    /// core token per extra lane for the lanes' lifetime (loads decode
    /// real CPU, not just sleep), so `run_lane` itself leases nothing.
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
            halted_flag: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
            lane_seq: AtomicU32::new(0),
        }
    }

    /// Number of loads to fetch.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether there is nothing to fetch.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// How many I/O lanes are worth spawning for this plan.
    pub fn lanes(&self) -> usize {
        self.jobs.len().clamp(1, 4)
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
                // Skip jobs another lane claimed or a take cancelled.
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
            let start = self.offset_nanos();
            let result = self
                .catalog
                .load_for(sig, self.tenant)
                .map(|(value, load_nanos, cross)| PrefetchedLoad { value, load_nanos, cross });
            let end = self.offset_nanos();
            drop(fetch_span);
            self.spans.lock().expect("prefetch spans poisoned").push((start, end));
            let mut state = self.state.lock().expect("prefetch state poisoned");
            state.slots.insert(node.0, Slot::Done(Some(result)));
            drop(state);
            self.ready.notify_all();
        }
    }

    /// Block until `node`'s prefetch lands (or report cancellation).
    pub fn take(&self, node: NodeId) -> PrefetchTake {
        let mut state = self.state.lock().expect("prefetch state poisoned");
        loop {
            match state.slots.get_mut(&node.0) {
                Some(Slot::Done(result)) => {
                    return PrefetchTake::Ready(result.take().expect("prefetch taken twice"));
                }
                Some(Slot::InFlight) => {}
                Some(Slot::Cancelled) => return PrefetchTake::Cancelled,
                None => {
                    if state.halted {
                        // Claim it as cancelled so a racing lane can't
                        // start a duplicate fetch.
                        state.slots.insert(node.0, Slot::Cancelled);
                        return PrefetchTake::Cancelled;
                    }
                }
            }
            state = self.ready.wait(state).expect("prefetch state poisoned");
        }
    }

    /// Stop starting new fetches (in-flight ones complete). Idempotent.
    pub fn halt(&self) {
        if !self.halted_flag.swap(true, Ordering::Relaxed) {
            self.state.lock().expect("prefetch state poisoned").halted = true;
            self.ready.notify_all();
        }
    }

    /// Epoch-relative wall offsets of each completed fetch.
    pub fn spans(&self) -> Vec<(Nanos, Nanos)> {
        self.spans.lock().expect("prefetch spans poisoned").clone()
    }

    fn offset_nanos(&self) -> Nanos {
        helix_common::timing::duration_to_nanos(self.epoch.elapsed())
    }
}

// ---------------------------------------------------------------------
// Plan lane
// ---------------------------------------------------------------------

/// Everything speculative planning needs, snapshotted from a session at
/// the moment an iteration enters its execute phase. Cheap clones of the
/// small per-session maps plus a live catalog handle (reads race `t`'s
/// writes, which is why the read set is revalidated before use).
#[derive(Clone)]
pub struct SpeculationInputs {
    pub(crate) catalog: Arc<MaterializationCatalog>,
    /// The session's execution environment, frozen with the rest of the
    /// snapshot: speculative signatures are keyed by the same provenance
    /// (seed) the consuming `prepare_iteration` will use, so the sigs
    /// equality check validates environment along with structure.
    pub(crate) env: ExecEnv,
    pub(crate) volatile_nonces: HashMap<String, u64>,
    pub(crate) compute_stats: HashMap<Signature, Nanos>,
    pub(crate) reuse: ReuseScope,
    pub(crate) default_compute_nanos: Nanos,
}

/// A plan computed ahead of its iteration, plus everything needed to
/// prove it is still the serial plan when its turn comes. Validation is
/// content-based: the consuming `prepare_iteration` recomputes the
/// signature chain itself and compares (`sigs` equality subsumes
/// workflow identity, nonce state, and execution-environment provenance
/// — two workflows with identical chains are equivalent by
/// Definition 3), then revalidates the entire
/// planner read set. No address or name comparison is trusted.
pub struct SpeculativePlan {
    pub(crate) sigs: Vec<Signature>,
    pub(crate) plan: Plan,
    pub(crate) read_set: PlanReadSet,
}

/// Speculatively plan `wf` from a snapshot (read-only; safe to run on a
/// thread while the previous iteration executes). The plan is solved
/// from a *frozen* copy of the read set, so the returned read set is, by
/// construction, exactly what the plan consumed — concurrent catalog
/// mutations can only make validation fail, never let a stale plan pass.
pub fn speculate(inputs: &SpeculationInputs, wf: &Workflow) -> SpeculativePlan {
    let _span = helix_obs::span(helix_obs::layer::PIPELINE, "speculate").track("planner");
    let sigs = chain_signatures(wf, &inputs.volatile_nonces, &inputs.env);
    let plan_inputs = PlanInputs {
        sigs: &sigs,
        catalog: &inputs.catalog,
        reuse: inputs.reuse,
        compute_stats: &inputs.compute_stats,
        default_compute_nanos: inputs.default_compute_nanos,
    };
    let read_set = plan_read_set(wf, &plan_inputs);
    let plan = plan_from_read_set(wf, &read_set, inputs.default_compute_nanos);
    SpeculativePlan { sigs, plan, read_set }
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
    fn background_writer_lands_staged_frames_and_seals_the_manifest() {
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
        // Manifest sealed: a reopen sees every artifact.
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
        let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        let mut jobs = Vec::new();
        for i in 0..6u32 {
            let sig = Signature::of_str(&format!("pf-{i}"));
            catalog.store(sig, "n", 0, &scalar(i as f64)).unwrap();
            jobs.push((NodeId(i), sig));
        }
        let prefetcher = Prefetcher::new(&catalog, "", Instant::now(), jobs);
        std::thread::scope(|scope| {
            for _ in 0..prefetcher.lanes() {
                scope.spawn(|| prefetcher.run_lane());
            }
            // Take out of submission order to exercise blocking takes.
            for i in [3u32, 0, 5, 1, 4, 2] {
                match prefetcher.take(NodeId(i)) {
                    PrefetchTake::Ready(result) => {
                        let load = result.unwrap();
                        assert_eq!(load.value.as_scalar().unwrap().as_f64(), Some(i as f64));
                    }
                    PrefetchTake::Cancelled => panic!("nothing was halted"),
                }
            }
            prefetcher.halt();
        });
        assert_eq!(prefetcher.spans().len(), 6, "every load fetched exactly once");
    }

    #[test]
    fn halted_prefetcher_cancels_unstarted_loads() {
        let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        let sig = Signature::of_str("never-fetched");
        catalog.store(sig, "n", 0, &scalar(1.0)).unwrap();
        let prefetcher = Prefetcher::new(&catalog, "", Instant::now(), vec![(NodeId(0), sig)]);
        prefetcher.halt();
        // No lane ever ran: the take must not hang.
        match prefetcher.take(NodeId(0)) {
            PrefetchTake::Cancelled => {}
            PrefetchTake::Ready(_) => panic!("halted before any lane started"),
        }
        assert!(prefetcher.spans().is_empty());
    }
}
