//! Admission control and scheduling policy.
//!
//! The service accepts work through a **bounded submission queue** (back
//! pressure instead of unbounded memory growth) and drains it under one
//! of two policies ([`SchedulingPolicy`]):
//!
//! * **`Priority`** (FIFO-with-priority): among queued jobs that are
//!   *eligible* right now, the highest tenant priority wins, ties broken
//!   by submission order.
//! * **`FairShare`** (weighted DRF, [`crate::fairshare`]): among tenants
//!   with an eligible job, the one with the lowest weighted dominant
//!   share over cores + catalog storage wins (exact share ties by lowest
//!   weighted lifetime dispatch count, then tenant id); within that
//!   tenant, a fresh session's job beats a parked pipelining successor,
//!   then submission order. Tenant priorities are ignored.
//!
//! A job is eligible when
//!
//! 1. the global concurrency cap has head-room
//!    ([`AdmissionCaps::max_concurrent_iterations`], counted over all
//!    dispatched jobs, parked ones included — the worker pool, not this
//!    cap, bounds threads),
//! 2. its tenant is under its own concurrency cap
//!    ([`TenantSpec::max_concurrent`](crate::TenantSpec), counted over
//!    *sessions with dispatched work* — a session executes at most one
//!    iteration at a time, so this bounds the tenant's executing
//!    iterations race-free, while a pipelining successor of an
//!    already-counted session rides free), and
//! 3. its session is pipelinable: a session iteration is "in flight" for
//!    ordering purposes only during its **execute phase**. While an
//!    incumbent executes, exactly one successor job of the same session
//!    may dispatch — it speculatively *plans* (`Session::speculate`
//!    against the snapshot the incumbent published) while the incumbent
//!    still runs, then waits its turn on the session lock. Iterations of
//!    one session still *retire* strictly in submission order (the
//!    session is stateful); only their planning overlaps.
//!
//! **The queue is indexed, not scanned.** Queued jobs sit in per-session
//! FIFOs; each tenant lane keeps two ordered sets of *sessions* keyed by
//! their head job's sequence number — `fresh` (idle sessions, rule 2
//! applies) and `successors` (rule 3's one planning successor). The one
//! `relist` helper re-derives a session's membership after every event,
//! so a tenant's candidate is a set minimum and a pick is one pass over
//! the tenant lanes, whatever the backlog. The pick *sequence* is the
//! contract: the test module pins it, audit counters included, against a
//! flat-list specification of the rules above.
//!
//! Scheduling affects *when* a tenant's iteration runs, never *what* it
//! produces: the determinism contract is enforced one layer down
//! (provenance-keyed signatures that fold each session's seed into the
//! chain + read-set-validated speculative plans), so the policy here is
//! free to reorder across tenants for latency or fairness.

use crate::fairshare::{DrfAllocator, FairnessAudit, SchedulingPolicy, TenantAudit, SHARE_SCALE};
use crate::ticket::TicketState;
use helix_core::{Session, SpeculationInputs, Workflow};
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Global admission limits.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionCaps {
    /// Maximum queued (not yet dispatched) jobs; submitters block beyond.
    pub queue_capacity: usize,
    /// Maximum iterations running at once across all tenants.
    pub max_concurrent_iterations: usize,
}

/// One queued iteration.
pub(crate) struct Job {
    pub seq: u64,
    /// Tenant priority, copied at submission time.
    pub priority: u8,
    pub tenant: String,
    /// The tenant's trace track label, built once per session.
    pub track: Arc<str>,
    /// Tenant concurrency cap, copied at submission time.
    pub tenant_max_concurrent: usize,
    pub session_id: u64,
    pub session: Arc<Mutex<Session>>,
    /// Per-session mailbox for speculation snapshots: an iteration
    /// entering its execute phase publishes one; its successor takes it
    /// and plans ahead while the incumbent still runs.
    pub spec_slot: Arc<Mutex<Option<SpeculationInputs>>>,
    pub wf: Workflow,
    pub ticket: Arc<TicketState>,
    pub enqueued: Instant,
}

/// One session's queued jobs and what its dispatched jobs are up to.
/// Lives only while the session has work queued or dispatched.
#[derive(Default)]
struct SessionLane {
    /// Index of the owning [`TenantLane`].
    tenant: usize,
    /// Queued jobs, in submission order.
    jobs: VecDeque<Job>,
    /// Dispatched, unfinished jobs (at most 2: one executing + one
    /// planning successor).
    members: usize,
    /// Of those, jobs still in their plan phase.
    planning: usize,
    /// Where `relist` last put the session: `(in successors, head seq)`.
    listed: Option<(bool, u64)>,
}

/// One tenant's ready sets, cap bookkeeping and audit counters.
#[derive(Default)]
struct TenantLane {
    name: String,
    /// Priority and concurrency cap of the tenant's latest submission.
    priority: u8,
    max_concurrent: usize,
    /// Idle sessions with queued work, keyed `(head seq, session id)` —
    /// dispatchable while the tenant is under its session cap.
    fresh: BTreeSet<(u64, u64)>,
    /// Sessions with queued work whose sole dispatched job is executing,
    /// same key: each may dispatch one planning successor, cap-free.
    successors: BTreeSet<(u64, u64)>,
    /// Sessions with at least one dispatched job — what the tenant
    /// concurrency cap bounds. Each session executes at most one
    /// iteration at a time (the session lock), so capping *active
    /// sessions* caps executing iterations without the pick-to-
    /// mark-executing race a phase-count check would have.
    active_sessions: usize,
    /// Queued jobs across the tenant's sessions.
    queued: usize,
    /// The catalog byte epoch the DRF ledger's storage side for this
    /// tenant was last refreshed at.
    bytes_epoch: Option<u64>,
    /// Audit: lifetime dispatches, and the streak of consecutive picks
    /// that went elsewhere while this tenant had a candidate (reset on
    /// every dispatch of this tenant) with its high-water mark.
    dispatches: u64,
    current_wait: u64,
    max_wait: u64,
}

impl TenantLane {
    /// The tenant's next job as `(is successor, head seq, session id)`:
    /// its earliest fresh session if the cap has room, else its earliest
    /// successor. Orders as the policies rank within a tenant — fresh
    /// work before a successor that would only park on its session's
    /// lock, then submission order.
    fn candidate(&self) -> Option<(bool, u64, u64)> {
        let fresh = self.fresh.first().filter(|_| self.active_sessions < self.max_concurrent);
        fresh
            .map(|&(seq, session)| (false, seq, session))
            .or_else(|| self.successors.first().map(|&(seq, session)| (true, seq, session)))
    }
}

/// Queue + running-set bookkeeping (lives behind the service mutex).
pub(crate) struct AdmissionQueue {
    caps: AdmissionCaps,
    /// Tenant lanes in first-submission order; never removed.
    tenants: Vec<TenantLane>,
    tenant_index: HashMap<String, usize>,
    sessions: HashMap<u64, SessionLane>,
    /// Jobs waiting in session FIFOs — what `queue_capacity` bounds.
    queued: usize,
    /// All dispatched, unfinished jobs (plan + execute phases, parked or
    /// running) — what the global cap bounds.
    dispatched_total: usize,
    /// Execute-phase jobs (observability: `QueueSnapshot::running`).
    executing_total: usize,
    next_seq: u64,
    /// Queued + dispatched: zero means fully drained.
    jobs_in_system: usize,
    pub shutdown: bool,
    /// Which policy `pick` applies across tenants.
    policy: SchedulingPolicy,
    /// The DRF ledger: maintained under *both* policies so the fairness
    /// audit and per-tenant dominant shares are always observable.
    drf: DrfAllocator,
    /// Audit totals (per-tenant counters live in the tenant lanes).
    picks: u64,
    non_drf_picks: u64,
    max_share_gap_scaled: u128,
}

impl AdmissionQueue {
    /// A priority-policy queue with unit resource capacities (unit tests;
    /// the service uses [`with_policy`](Self::with_policy)).
    #[cfg(test)]
    pub fn new(caps: AdmissionCaps) -> AdmissionQueue {
        Self::with_policy(caps, SchedulingPolicy::Priority, 1, 1)
    }

    /// A queue applying `policy` over `cores_capacity` core tokens and
    /// `storage_capacity` catalog bytes (the DRF share denominators).
    pub fn with_policy(
        caps: AdmissionCaps,
        policy: SchedulingPolicy,
        cores_capacity: u64,
        storage_capacity: u64,
    ) -> AdmissionQueue {
        let weights = match &policy {
            SchedulingPolicy::FairShare { weights } => weights.clone(),
            SchedulingPolicy::Priority => Default::default(),
        };
        AdmissionQueue {
            caps,
            tenants: Vec::new(),
            tenant_index: HashMap::new(),
            sessions: HashMap::new(),
            queued: 0,
            dispatched_total: 0,
            executing_total: 0,
            next_seq: 0,
            jobs_in_system: 0,
            shutdown: false,
            policy,
            drf: DrfAllocator::new(cores_capacity, storage_capacity).with_weights(weights),
            picks: 0,
            non_drf_picks: 0,
            max_share_gap_scaled: 0,
        }
    }

    /// Whether a new submission fits the bounded queue right now.
    pub fn has_space(&self) -> bool {
        self.queued < self.caps.queue_capacity
    }

    /// Re-derive `session_id`'s place in its tenant's ready sets from its
    /// current state: idle with queued work → `fresh`; sole dispatched
    /// job executing → `successors`; anything else → neither. Called
    /// after every event that touches the session; drops the lane once
    /// nothing is queued or dispatched.
    fn relist(&mut self, session_id: u64) {
        let Some(lane) = self.sessions.get_mut(&session_id) else { return };
        let tenant = &mut self.tenants[lane.tenant];
        let listed = match (lane.jobs.front(), lane.members, lane.planning) {
            (Some(head), 0, _) => Some((false, head.seq)),
            (Some(head), 1, 0) => Some((true, head.seq)),
            _ => None,
        };
        if listed != lane.listed {
            if let Some((successor, seq)) = lane.listed {
                let set = if successor { &mut tenant.successors } else { &mut tenant.fresh };
                set.remove(&(seq, session_id));
            }
            if let Some((successor, seq)) = listed {
                let set = if successor { &mut tenant.successors } else { &mut tenant.fresh };
                set.insert((seq, session_id));
            }
            lane.listed = listed;
        }
        if lane.jobs.is_empty() && lane.members == 0 {
            self.sessions.remove(&session_id);
        }
    }

    /// Enqueue a job, assigning its FIFO sequence number.
    pub fn enqueue(&mut self, mut job: Job) {
        job.seq = self.next_seq;
        self.next_seq += 1;
        self.jobs_in_system += 1;
        self.queued += 1;
        let tenant = match self.tenant_index.get(&job.tenant) {
            Some(&tenant) => tenant,
            None => {
                self.tenant_index.insert(job.tenant.clone(), self.tenants.len());
                self.tenants.push(TenantLane { name: job.tenant.clone(), ..Default::default() });
                self.tenants.len() - 1
            }
        };
        let lane = &mut self.tenants[tenant];
        (lane.priority, lane.max_concurrent) = (job.priority, job.tenant_max_concurrent);
        lane.queued += 1;
        let session_id = job.session_id;
        let session = self
            .sessions
            .entry(session_id)
            .or_insert_with(|| SessionLane { tenant, ..Default::default() });
        session.jobs.push_back(job);
        self.relist(session_id);
    }

    /// Whether a [`pick`](Self::pick) could succeed at all: work is
    /// queued and the global cap has head-room.
    pub fn can_dispatch(&self) -> bool {
        self.queued > 0 && self.dispatched_total < self.caps.max_concurrent_iterations
    }

    /// Remove and return the next dispatchable job per the policy, marking
    /// it dispatched (in its plan phase); `None` when nothing is eligible.
    pub fn pick(&mut self) -> Option<Job> {
        if !self.can_dispatch() {
            return None;
        }
        // The DRF reference choice at decision-time shares, over the
        // tenants that have a candidate: FairShare's pick, and what the
        // audit compares Priority's against.
        let with_candidate = self.tenants.iter().filter(|lane| lane.candidate().is_some());
        let drf_choice =
            self.tenant_index[self.drf.pick(with_candidate.map(|l| l.name.as_str()))?];
        let picked = match &self.policy {
            // Strictly higher priority wins; at equal priority the
            // candidates' own order decides (fresh first, then FIFO).
            SchedulingPolicy::Priority => {
                let ranked = self.tenants.iter().enumerate().filter_map(|(ix, lane)| {
                    lane.candidate().map(|candidate| (Reverse(lane.priority), candidate, ix))
                });
                ranked.min()?.2
            }
            SchedulingPolicy::FairShare { .. } => drf_choice,
        };
        // Audit the decision against the DRF ledger (both policies).
        self.picks += 1;
        if picked != drf_choice {
            self.non_drf_picks += 1;
            let share = |ix: usize| self.drf.dominant_share_scaled(&self.tenants[ix].name);
            let gap = share(picked).saturating_sub(share(drf_choice));
            self.max_share_gap_scaled = self.max_share_gap_scaled.max(gap);
        }
        // Wait streaks measure *consecutive* picks while continuously
        // eligible: a tenant with no candidate at this pick (cap reached,
        // sessions busy) was not waiting, so its streak restarts.
        for (ix, lane) in self.tenants.iter_mut().enumerate() {
            if ix == picked {
                lane.dispatches += 1;
                lane.current_wait = 0;
            } else if lane.candidate().is_some() {
                lane.current_wait += 1;
                lane.max_wait = lane.max_wait.max(lane.current_wait);
            } else {
                lane.current_wait = 0;
            }
        }
        let lane = &mut self.tenants[picked];
        let (_, _, session_id) = lane.candidate().expect("the picked tenant has a candidate");
        let session = self.sessions.get_mut(&session_id).expect("listed sessions have lanes");
        let job = session.jobs.pop_front().expect("listed sessions have queued work");
        self.queued -= 1;
        lane.queued -= 1;
        self.dispatched_total += 1;
        if session.members == 0 {
            lane.active_sessions += 1;
        }
        session.members += 1;
        session.planning += 1;
        self.drf.acquire(&job.tenant);
        self.relist(session_id);
        // Trace the enqueue→pick wait retrospectively, carrying the
        // tenant's (weighted, scaled) dominant share at pick time.
        if helix_obs::tracing_enabled() {
            let waited = helix_common::timing::duration_to_nanos(job.enqueued.elapsed());
            let share_at_pick = self.drf.dominant_share_scaled(&job.tenant);
            let begin = helix_obs::now_nanos().saturating_sub(waited);
            let _ = helix_obs::span_at(helix_obs::layer::SERVE, "admission.queued", begin, waited)
                .track(&*job.track)
                .tenant(job.tenant.as_str())
                .session(job.session_id)
                .amount(u64::try_from(share_at_pick).unwrap_or(u64::MAX));
        }
        Some(job)
    }

    /// The tenants with queued work whose DRF storage side predates the
    /// catalog's byte `epoch`, stamped as refreshed at it: the service
    /// follows up with one batched catalog lookup and
    /// [`set_tenant_bytes`](Self::set_tenant_bytes). Byte accounting
    /// moves only on store/claim/release/evict, so most pick rounds find
    /// nobody stale and allocate nothing.
    pub fn stale_tenants(&mut self, epoch: u64) -> Vec<String> {
        let mut stale = Vec::new();
        for lane in self.tenants.iter_mut().filter(|l| l.queued > 0) {
            if lane.bytes_epoch.replace(epoch) != Some(epoch) {
                stale.push(lane.name.clone());
            }
        }
        stale
    }

    /// Install refreshed storage-side usage into the DRF ledger
    /// (parallel arrays, as returned by a batched catalog lookup).
    pub fn set_tenant_bytes(&mut self, tenants: &[String], bytes: &[u64]) {
        for (tenant, bytes) in tenants.iter().zip(bytes) {
            self.drf.set_bytes(tenant, *bytes);
        }
    }

    /// `tenant`'s weighted dominant share computed against `bytes` of
    /// storage usage — read-only (the stats path must not write into the
    /// scheduler's ledger).
    pub fn dominant_share(&self, tenant: &str, bytes: u64) -> f64 {
        self.drf.dominant_share_given_bytes(tenant, bytes)
    }

    /// The DRF weight in force for `tenant`.
    pub fn weight_of(&self, tenant: &str) -> u32 {
        self.drf.weight_of(tenant)
    }

    /// Snapshot the fairness audit. A tenant appears once it has had a
    /// candidate at a successful pick (it was dispatched or it waited).
    pub fn fairness(&self) -> FairnessAudit {
        let audited = self.tenants.iter().filter(|l| l.dispatches > 0 || l.max_wait > 0);
        let per_tenant = audited.map(|l| {
            (
                l.name.clone(),
                TenantAudit { dispatches: l.dispatches, max_eligible_wait: l.max_wait },
            )
        });
        FairnessAudit {
            picks: self.picks,
            non_drf_picks: self.non_drf_picks,
            max_share_gap: self.max_share_gap_scaled as f64 / SHARE_SCALE as f64,
            per_tenant: per_tenant.collect(),
        }
    }

    /// Whether a job for `session_id` is still waiting in the queue (a
    /// successor that could consume a speculation snapshot).
    pub fn has_queued_job(&self, session_id: u64) -> bool {
        self.sessions.get(&session_id).is_some_and(|lane| !lane.jobs.is_empty())
    }

    /// Remove a still-queued job of `session_id` by its ticket
    /// (cancellation). A job that already dispatched is not in the queue
    /// and returns `None` — it runs to completion; there is no dispatch
    /// bookkeeping to reverse for a job that never dispatched.
    pub fn remove_queued(&mut self, session_id: u64, ticket: &Arc<TicketState>) -> Option<Job> {
        let lane = self.sessions.get_mut(&session_id)?;
        let ix = lane.jobs.iter().position(|job| Arc::ptr_eq(&job.ticket, ticket))?;
        let job = lane.jobs.remove(ix).expect("index valid");
        self.tenants[lane.tenant].queued -= 1;
        self.queued -= 1;
        self.jobs_in_system -= 1;
        self.relist(session_id);
        Some(job)
    }

    /// A dispatched job finished planning and entered its execute phase:
    /// from here its session may admit a planning successor.
    pub fn mark_executing(&mut self, session_id: u64) {
        if let Some(lane) = self.sessions.get_mut(&session_id) {
            lane.planning = lane.planning.saturating_sub(1);
        }
        self.executing_total += 1;
        self.relist(session_id);
    }

    /// Retire a dispatched job. `entered_execute` tells the queue which
    /// phase the job died in (a failed `prepare` never marked executing).
    pub fn finish(&mut self, tenant: &str, session_id: u64, entered_execute: bool) {
        self.dispatched_total -= 1;
        self.jobs_in_system -= 1;
        self.drf.release(tenant);
        if entered_execute {
            self.executing_total = self.executing_total.saturating_sub(1);
        }
        if let Some(lane) = self.sessions.get_mut(&session_id) {
            lane.members -= 1;
            if !entered_execute {
                lane.planning = lane.planning.saturating_sub(1);
            }
            if lane.members == 0 {
                self.tenants[lane.tenant].active_sessions -= 1;
            }
        }
        self.relist(session_id);
    }

    /// Whether nothing is queued or dispatched.
    pub fn is_drained(&self) -> bool {
        self.jobs_in_system == 0
    }

    /// Point-in-time introspection.
    pub fn snapshot(&self) -> QueueSnapshot {
        QueueSnapshot {
            queued: self.queued,
            running: self.executing_total,
            planning: self.dispatched_total - self.executing_total,
            queue_capacity: self.caps.queue_capacity,
            max_concurrent_iterations: self.caps.max_concurrent_iterations,
        }
    }
}

/// Observable admission state (for dashboards and tests).
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct QueueSnapshot {
    /// Jobs waiting for dispatch.
    pub queued: usize,
    /// Iterations currently in their execute phase.
    pub running: usize,
    /// Dispatched successors still in their plan phase (overlapping a
    /// predecessor's execution).
    pub planning: usize,
    /// The bounded queue's capacity.
    pub queue_capacity: usize,
    /// The global concurrency cap (over all dispatched jobs).
    pub max_concurrent_iterations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_common::SplitMix64;
    use helix_core::{SessionConfig, Workflow};
    use std::collections::BTreeMap;
    use std::sync::OnceLock;

    /// The queue never touches a job's session, so every test job shares
    /// one (opening a session per job dominates a 240 000-event run).
    fn job(tenant: &str, priority: u8, session_id: u64, cap: usize) -> Job {
        static SESSION: OnceLock<Arc<Mutex<Session>>> = OnceLock::new();
        let session = SESSION.get_or_init(|| {
            Arc::new(Mutex::new(Session::new(SessionConfig::in_memory()).expect("session opens")))
        });
        Job {
            seq: 0,
            priority,
            tenant: tenant.to_string(),
            track: format!("tenant-{tenant}").into(),
            tenant_max_concurrent: cap,
            session_id,
            session: Arc::clone(session),
            spec_slot: Arc::new(Mutex::new(None)),
            wf: Workflow::new("w"),
            ticket: TicketState::new(),
            enqueued: Instant::now(),
        }
    }

    fn caps(queue: usize, running: usize) -> AdmissionCaps {
        AdmissionCaps { queue_capacity: queue, max_concurrent_iterations: running }
    }

    #[test]
    fn fifo_within_equal_priority() {
        let mut q = AdmissionQueue::new(caps(10, 10));
        q.enqueue(job("a", 0, 1, 4));
        q.enqueue(job("b", 0, 2, 4));
        assert_eq!(q.pick().unwrap().tenant, "a");
        assert_eq!(q.pick().unwrap().tenant, "b");
        assert!(q.pick().is_none());
    }

    #[test]
    fn higher_priority_jumps_the_queue() {
        let mut q = AdmissionQueue::new(caps(10, 10));
        q.enqueue(job("steerage", 0, 1, 4));
        q.enqueue(job("first-class", 3, 2, 4));
        assert_eq!(q.pick().unwrap().tenant, "first-class");
        assert_eq!(q.pick().unwrap().tenant, "steerage");
    }

    #[test]
    fn per_tenant_cap_counts_active_sessions() {
        let mut q = AdmissionQueue::new(caps(10, 10));
        q.enqueue(job("a", 0, 1, 1));
        q.enqueue(job("a", 0, 2, 1)); // same tenant, different session
        q.enqueue(job("b", 0, 3, 1));
        let first = q.pick().unwrap();
        assert_eq!((first.tenant.as_str(), first.session_id), ("a", 1));
        // Tenant a has one active session — at its cap of 1 *immediately*
        // (no mark_executing window to race): b goes next despite later
        // seq.
        assert_eq!(q.pick().unwrap().tenant, "b");
        assert!(q.pick().is_none(), "a's second session must wait for the cap");
        q.finish("a", 1, false);
        assert_eq!(q.pick().unwrap().session_id, 2);
    }

    #[test]
    fn fresh_session_work_beats_a_parked_successor_at_equal_priority() {
        // Under a tight global cap, a dispatch slot should go to work
        // that can execute now, not to a successor that would park on
        // its session's lock — even when the successor was queued first.
        let mut q = AdmissionQueue::new(caps(10, 2));
        q.enqueue(job("a", 0, 1, 4));
        q.enqueue(job("a", 0, 1, 4)); // successor of session 1 (earlier seq)
        q.enqueue(job("b", 0, 2, 4)); // fresh session (later seq)
        assert_eq!(q.pick().unwrap().session_id, 1);
        q.mark_executing(1);
        assert_eq!(q.pick().unwrap().session_id, 2, "fresh session displaces the successor");
        assert!(q.pick().is_none(), "global cap of 2 dispatched reached");
        q.finish("b", 2, false);
        assert_eq!(q.pick().unwrap().session_id, 1, "successor picked once capacity allows");
    }

    #[test]
    fn remove_queued_cancels_only_undispatched_jobs() {
        let mut q = AdmissionQueue::new(caps(10, 10));
        q.enqueue(job("a", 0, 1, 4));
        q.enqueue(job("b", 0, 2, 4));
        let picked = q.pick().unwrap();
        assert_eq!(picked.tenant, "a");
        assert!(
            q.remove_queued(1, &picked.ticket).is_none(),
            "dispatched jobs are not cancellable"
        );
        let queued_ticket =
            Arc::clone(&q.sessions[&2].jobs.front().expect("b still queued").ticket);
        let removed = q.remove_queued(2, &queued_ticket).expect("queued job cancels");
        assert_eq!(removed.tenant, "b");
        assert!(q.pick().is_none(), "nothing left to pick");
        q.finish("a", 1, false);
        assert!(q.is_drained(), "cancelled job left the system");
    }

    #[test]
    fn tenant_cap_still_admits_a_pipelining_successor() {
        // Cap 1, one session: the successor shares the session's slot.
        let mut q = AdmissionQueue::new(caps(10, 10));
        q.enqueue(job("a", 0, 5, 1));
        q.enqueue(job("a", 0, 5, 1));
        assert_eq!(q.pick().unwrap().session_id, 5);
        q.mark_executing(5);
        assert_eq!(q.pick().unwrap().session_id, 5, "successor rides the session's cap slot");
    }

    #[test]
    fn sessions_admit_one_planning_successor_once_executing() {
        let mut q = AdmissionQueue::new(caps(10, 10));
        q.enqueue(job("a", 0, 7, 4));
        q.enqueue(job("a", 0, 7, 4));
        q.enqueue(job("a", 0, 7, 4));
        assert_eq!(q.pick().unwrap().session_id, 7);
        assert!(q.pick().is_none(), "no successor while the incumbent is still planning");
        q.mark_executing(7);
        assert_eq!(
            q.pick().unwrap().session_id,
            7,
            "execute phase admits exactly one planning successor"
        );
        assert!(q.pick().is_none(), "but never a third dispatched job");
        // Incumbent retires; the successor is still planning, so the
        // third job keeps waiting until it, too, enters execution.
        q.finish("a", 7, true);
        assert!(q.pick().is_none());
        q.mark_executing(7);
        assert_eq!(q.pick().unwrap().session_id, 7);
        let snap = q.snapshot();
        assert_eq!((snap.running, snap.planning), (1, 1));
    }

    #[test]
    fn global_cap_limits_dispatched_total() {
        let mut q = AdmissionQueue::new(caps(10, 2));
        for s in 0..4 {
            q.enqueue(job("t", 0, s, 8));
        }
        assert!(q.pick().is_some());
        assert!(q.pick().is_some());
        assert!(q.pick().is_none(), "global cap of 2 dispatched jobs reached");
        q.finish("t", 0, false);
        assert!(q.pick().is_some());
    }

    fn fair_queue(cores: u64) -> AdmissionQueue {
        AdmissionQueue::with_policy(caps(64, 64), SchedulingPolicy::fair(), cores, 1 << 20)
    }

    #[test]
    fn fair_share_rotates_across_backlogged_tenants_ignoring_priority() {
        let mut q = fair_queue(4);
        // A high-priority heavy tenant floods the queue first; a
        // zero-priority light tenant arrives last.
        for s in 0..4 {
            q.enqueue(job("heavy", 3, s, 8));
        }
        q.enqueue(job("light", 0, 10, 8));
        // Both start at share 0: exact tie breaks by tenant id (h < l).
        assert_eq!(q.pick().unwrap().tenant, "heavy");
        // Heavy now holds one executing-core lease; light's zero share
        // wins despite later submission and lower priority.
        assert_eq!(q.pick().unwrap().tenant, "light");
        // One lease each: tie again, id order.
        assert_eq!(q.pick().unwrap().tenant, "heavy");
        let audit = q.fairness();
        assert_eq!(audit.picks, 3);
        assert_eq!(audit.non_drf_picks, 0, "fair-share picks are the DRF choice by construction");
        assert_eq!(audit.max_share_gap, 0.0);
    }

    #[test]
    fn fair_share_weights_entitle_proportionally_more() {
        let weights: std::collections::BTreeMap<String, u32> =
            [("heavy".to_string(), 2)].into_iter().collect();
        let mut q = AdmissionQueue::with_policy(
            caps(64, 64),
            SchedulingPolicy::FairShare { weights },
            2,
            1 << 20,
        );
        for s in 0..4 {
            q.enqueue(job("heavy", 0, s, 8));
        }
        q.enqueue(job("light", 0, 10, 8));
        q.enqueue(job("light", 0, 11, 8));
        let picked: Vec<String> = (0..5).map(|_| q.pick().unwrap().tenant).collect();
        // Weight 2 halves heavy's dominant share: it takes two leases for
        // every one of light's (ties by id).
        assert_eq!(picked, ["heavy", "light", "heavy", "heavy", "light"]);
    }

    #[test]
    fn priority_policy_records_drf_deviations_in_the_audit() {
        // Under strict priority the audit *measures* unfairness: the
        // starved light tenant's eligible-wait streak grows with the
        // heavy backlog, and picks deviate from the DRF choice.
        let mut q = AdmissionQueue::with_policy(caps(64, 64), SchedulingPolicy::Priority, 2, 1024);
        for s in 0..4 {
            q.enqueue(job("heavy", 3, s, 8));
        }
        q.enqueue(job("light", 0, 10, 8));
        for _ in 0..4 {
            assert_eq!(q.pick().unwrap().tenant, "heavy", "priority starves the light tenant");
        }
        assert_eq!(q.pick().unwrap().tenant, "light");
        let audit = q.fairness();
        assert!(audit.non_drf_picks >= 2, "picks 2..4 deviate from DRF");
        assert!(audit.max_share_gap > 0.0);
        assert_eq!(audit.per_tenant["light"].max_eligible_wait, 4);
        assert_eq!(audit.per_tenant["light"].dispatches, 1);
        assert_eq!(audit.per_tenant["heavy"].dispatches, 4);
    }

    #[test]
    fn fair_share_prefers_fresh_work_over_a_parked_successor_within_a_tenant() {
        let mut q = fair_queue(4);
        q.enqueue(job("a", 0, 1, 8));
        q.enqueue(job("a", 0, 1, 8)); // successor of session 1 (earlier seq)
        q.enqueue(job("a", 0, 2, 8)); // fresh session (later seq)
        assert_eq!(q.pick().unwrap().session_id, 1);
        q.mark_executing(1);
        assert_eq!(q.pick().unwrap().session_id, 2, "fresh session displaces the successor");
        assert_eq!(q.pick().unwrap().session_id, 1, "successor picked next");
    }

    #[test]
    fn bounded_queue_reports_space() {
        let mut q = AdmissionQueue::new(caps(2, 1));
        assert!(q.has_space());
        q.enqueue(job("a", 0, 1, 1));
        q.enqueue(job("a", 0, 2, 1));
        assert!(!q.has_space());
        let snap = q.snapshot();
        assert_eq!((snap.queued, snap.running, snap.queue_capacity), (2, 0, 2));
        assert!(!q.is_drained());
    }

    #[test]
    fn byte_refresh_names_only_queued_tenants_behind_the_epoch() {
        let mut q = fair_queue(2);
        q.enqueue(job("a", 0, 1, 4));
        q.enqueue(job("b", 0, 2, 4));
        assert_eq!(q.stale_tenants(7), ["a", "b"]);
        assert!(q.stale_tenants(7).is_empty(), "stamped: the epoch has not moved");
        while q.pick().is_some() {}
        assert!(q.stale_tenants(8).is_empty(), "nothing queued, nothing to refresh");
        q.enqueue(job("a", 0, 1, 4));
        assert_eq!(q.stale_tenants(8), ["a"], "a tenant rejoining behind the epoch is stale");
    }

    /// The specification the indexed queue is pinned against: the module
    /// doc's three eligibility rules and two policy orderings as one scan
    /// over a flat, seq-ordered list of queued jobs, with the audit
    /// updated from the scan's eligible set.
    struct Spec {
        cap: usize,
        fair: bool,
        drf: DrfAllocator,
        /// `(seq, tenant, priority, tenant cap, session)`.
        queue: Vec<(u64, String, u8, usize, u64)>,
        /// Session → `(members, planning)`; absent when idle.
        sessions: HashMap<u64, (usize, usize)>,
        active: HashMap<String, usize>,
        dispatched: usize,
        audit: FairnessAudit,
        waits: BTreeMap<String, u64>,
        gap_scaled: u128,
    }

    impl Spec {
        fn pick(&mut self) -> Option<(u64, u64, String)> {
            if self.dispatched >= self.cap {
                return None;
            }
            // Rules 3 and 2: `(successor, index)` of every eligible job.
            let eligible: Vec<(bool, usize)> = (0..self.queue.len())
                .filter_map(|ix| {
                    let (_, tenant, _, cap, session) = &self.queue[ix];
                    match self.sessions.get(session) {
                        None => (self.active.get(tenant).copied().unwrap_or(0) < *cap)
                            .then_some((false, ix)),
                        Some(&(1, 0)) => Some((true, ix)),
                        Some(_) => None,
                    }
                })
                .collect();
            let tenant_of = |&(_, ix): &(bool, usize)| self.queue[ix].1.as_str();
            let drf_choice = self.drf.pick(eligible.iter().map(tenant_of))?.to_string();
            let &(_, ix) = if self.fair {
                eligible.iter().filter(|e| tenant_of(e) == drf_choice).min()?
            } else {
                eligible.iter().min_by_key(|&&(succ, ix)| (Reverse(self.queue[ix].2), succ, ix))?
            };
            let tenants: std::collections::BTreeSet<String> =
                eligible.iter().map(|e| tenant_of(e).to_string()).collect();
            let (seq, picked, _, _, session) = self.queue.remove(ix);
            self.audit.picks += 1;
            self.audit.non_drf_picks += u64::from(picked != drf_choice);
            let gap = self.drf.dominant_share_scaled(&picked);
            let gap = gap.saturating_sub(self.drf.dominant_share_scaled(&drf_choice));
            self.gap_scaled = self.gap_scaled.max(gap);
            self.waits.retain(|tenant, _| tenants.contains(tenant));
            for tenant in tenants {
                let entry = self.audit.per_tenant.entry(tenant.clone()).or_default();
                if tenant == picked {
                    entry.dispatches += 1;
                    self.waits.remove(&tenant);
                } else {
                    let wait = self.waits.entry(tenant).or_default();
                    *wait += 1;
                    entry.max_eligible_wait = entry.max_eligible_wait.max(*wait);
                }
            }
            self.drf.acquire(&picked);
            self.dispatched += 1;
            let activity = self.sessions.entry(session).or_default();
            if activity.0 == 0 {
                *self.active.entry(picked.clone()).or_default() += 1;
            }
            *activity = (activity.0 + 1, activity.1 + 1);
            Some((seq, session, picked))
        }

        fn finish(&mut self, tenant: &str, session: u64, entered_execute: bool) {
            self.dispatched -= 1;
            self.drf.release(tenant);
            let activity = self.sessions.get_mut(&session).expect("dispatched session");
            *activity = (activity.0 - 1, activity.1 - usize::from(!entered_execute));
            if activity.0 == 0 {
                self.sessions.remove(&session);
                *self.active.get_mut(tenant).expect("counted tenant") -= 1;
            }
        }
    }

    /// Drive the indexed queue and the specification with one seeded
    /// event stream; every observable must agree after every event.
    fn run_against_spec(seed: u64, fair: bool, heavy: bool, events: usize) {
        let mut rng = SplitMix64::new(seed);
        let tenants = 1 + rng.next_below(4);
        // Per tenant: (priority, session cap); weights under FairShare.
        let specs: Vec<(u8, usize)> = (0..tenants)
            .map(|_| (rng.next_below(4) as u8, 1 + rng.next_below(3) as usize))
            .collect();
        let weights: BTreeMap<String, u32> =
            (0..tenants).map(|t| (format!("t{t}"), 1 + rng.next_below(3) as u32)).collect();
        let caps = caps(usize::MAX, 1 + rng.next_below(6) as usize);
        let (cores, storage) = (1 + rng.next_below(4), 1000);
        let policy =
            if fair { SchedulingPolicy::FairShare { weights } } else { SchedulingPolicy::Priority };
        let mut spec = Spec {
            cap: caps.max_concurrent_iterations,
            fair,
            drf: match &policy {
                SchedulingPolicy::FairShare { weights } => {
                    DrfAllocator::new(cores, storage).with_weights(weights.clone())
                }
                SchedulingPolicy::Priority => DrfAllocator::new(cores, storage),
            },
            queue: Vec::new(),
            sessions: HashMap::new(),
            active: HashMap::new(),
            dispatched: 0,
            audit: FairnessAudit::default(),
            waits: BTreeMap::new(),
            gap_scaled: 0,
        };
        let mut q = AdmissionQueue::with_policy(caps, policy, cores, storage);
        // Every ticket ever issued, by seq; and per session the dispatched
        // jobs in order as `(tenant, entered execute)`.
        let mut tickets: Vec<(u64, Arc<TicketState>)> = Vec::new();
        let mut flight: BTreeMap<u64, VecDeque<(String, bool)>> = BTreeMap::new();
        for event in 0..events {
            let at = format!("seed {seed} fair {fair} heavy {heavy} event {event}");
            match rng.next_below(20) {
                0..=7 => {
                    let t =
                        if heavy && rng.next_below(10) > 0 { 0 } else { rng.next_below(tenants) };
                    let session = t * 5 + rng.next_below(5);
                    let (priority, cap) = specs[t as usize];
                    let job = job(&format!("t{t}"), priority, session, cap);
                    tickets.push((session, Arc::clone(&job.ticket)));
                    spec.queue.push((q.next_seq, job.tenant.clone(), priority, cap, session));
                    q.enqueue(job);
                }
                8..=12 => {
                    let got = q.pick().map(|job| (job.seq, job.session_id, job.tenant));
                    assert_eq!(got, spec.pick(), "{at}: pick");
                    if let Some((_, session, tenant)) = got {
                        flight.entry(session).or_default().push_back((tenant, false));
                    }
                }
                // A session's dispatched jobs advance in submission
                // order: only its oldest may enter execution or retire.
                13..=14 => {
                    let planning: Vec<u64> =
                        flight.iter().filter(|(_, f)| !f[0].1).map(|(s, _)| *s).collect();
                    if !planning.is_empty() {
                        let session = planning[rng.next_below(planning.len() as u64) as usize];
                        flight.get_mut(&session).expect("in flight")[0].1 = true;
                        q.mark_executing(session);
                        spec.sessions.get_mut(&session).expect("dispatched").1 -= 1;
                    }
                }
                15..=17 => {
                    if !flight.is_empty() {
                        let nth = rng.next_below(flight.len() as u64) as usize;
                        let session = *flight.keys().nth(nth).expect("in range");
                        let jobs = flight.get_mut(&session).expect("in flight");
                        let (tenant, entered) = jobs.pop_front().expect("non-empty");
                        if jobs.is_empty() {
                            flight.remove(&session);
                        }
                        q.finish(&tenant, session, entered);
                        spec.finish(&tenant, session, entered);
                    }
                }
                18 => {
                    if !tickets.is_empty() {
                        let seq = rng.next_below(tickets.len() as u64);
                        let (session, ticket) = &tickets[seq as usize];
                        let got = q.remove_queued(*session, ticket).map(|job| job.seq);
                        let at_spec = spec.queue.iter().position(|job| job.0 == seq);
                        assert_eq!(got, at_spec.map(|ix| spec.queue.remove(ix).0), "{at}: cancel");
                    }
                }
                _ => {
                    let tenant = format!("t{}", rng.next_below(tenants));
                    let bytes = rng.next_below(storage + 1);
                    q.set_tenant_bytes(std::slice::from_ref(&tenant), &[bytes]);
                    spec.drf.set_bytes(&tenant, bytes);
                }
            }
            assert_eq!(q.snapshot().queued, spec.queue.len(), "{at}: queued");
            assert_eq!(q.is_drained(), spec.queue.is_empty() && spec.dispatched == 0, "{at}");
        }
        let (got, want) = (q.fairness(), &spec.audit);
        let at = format!("seed {seed} fair {fair} heavy {heavy}");
        assert_eq!((got.picks, got.non_drf_picks), (want.picks, want.non_drf_picks), "{at}");
        assert_eq!(got.max_share_gap, spec.gap_scaled as f64 / SHARE_SCALE as f64, "{at}");
        let flat = |audit: &FairnessAudit| -> Vec<(String, u64, u64)> {
            let rows = audit.per_tenant.iter();
            rows.map(|(t, a)| (t.clone(), a.dispatches, a.max_eligible_wait)).collect()
        };
        assert_eq!(flat(&got), flat(want), "{at}: per-tenant audit");
    }

    #[test]
    fn indexed_pick_reproduces_the_flat_scan_specification() {
        for seed in 0..100 {
            for fair in [false, true] {
                for heavy in [false, true] {
                    run_against_spec(seed, fair, heavy, 600);
                }
            }
        }
    }

    #[test]
    fn a_deep_backlog_drains_in_time_independent_of_its_depth() {
        // 50 000 queued jobs: at ≈ 40 ns per queued job per pick a scan
        // needs ≈ 100 s to drain this; the bound is two orders of
        // magnitude away from either side.
        let started = Instant::now();
        let mut q = fair_queue(2);
        q.caps = caps(usize::MAX, 4);
        for i in 0..50_000u64 {
            let session = i % 256;
            q.enqueue(job(&format!("tenant-{}", session % 8), 0, session, 2));
        }
        let mut retired = 0;
        let mut running: VecDeque<Job> = VecDeque::new();
        while !q.is_drained() {
            while let Some(job) = q.pick() {
                running.push_back(job);
            }
            let job = running.pop_front().expect("an undrained queue has dispatched work");
            q.mark_executing(job.session_id);
            q.finish(&job.tenant, job.session_id, true);
            retired += 1;
        }
        assert_eq!((retired, q.fairness().picks, q.snapshot().queued), (50_000, 50_000, 0));
        assert!(started.elapsed().as_secs() < 20, "drain took {:?}", started.elapsed());
    }
}
