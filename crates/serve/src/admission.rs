//! Admission control and scheduling.
//!
//! The service accepts work through a **bounded submission queue** (back
//! pressure instead of unbounded memory growth) and drains it under one
//! policy, dominant-resource fairness ([`crate::fairshare`]): among
//! tenants with an eligible job, the one with the lowest dominant share
//! over cores + catalog storage wins (exact share ties by fewest lifetime
//! dispatches, then tenant id); within that tenant, submission order.
//!
//! A job is eligible when
//!
//! 1. the global concurrency cap has head-room
//!    ([`AdmissionCaps::max_concurrent_iterations`], counted over all
//!    dispatched jobs, ready or waiting for a core token included — the
//!    worker pool, not this cap, bounds threads),
//! 2. its tenant is under its own concurrency cap
//!    ([`TenantSpec::max_concurrent`](crate::TenantSpec), counted over
//!    *sessions with a dispatched job*), and
//! 3. its session has no dispatched job. A session is stateful, so its
//!    iterations run one at a time in submission order; a later job of a
//!    busy session waits here, in the queue, until the incumbent retires.
//!
//! **The queue is indexed, not scanned.** Queued jobs sit in per-session
//! FIFOs; each tenant lane keeps the ordered set `fresh` of its idle
//! sessions with queued work, keyed by their head job's sequence number.
//! The one `relist` helper re-derives a session's membership after every
//! event, so a tenant's candidate is a set minimum and a pick is one pass
//! over the tenant lanes, whatever the backlog. The pick *sequence* is
//! the contract: the test module pins it, audit counters included,
//! against a flat-list specification of the rules above.
//!
//! Scheduling affects *when* a tenant's iteration runs, never *what* it
//! produces: the determinism contract is enforced one layer down
//! (provenance-keyed signatures that fold each session's seed into the
//! chain), so the pick is free to reorder across tenants for fairness.

use crate::fairshare::{DrfAllocator, FairnessAudit, TenantAudit};
use crate::ticket::TicketState;
use helix_core::{Session, Workflow};
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
    pub tenant: String,
    /// The tenant's trace track label, built once per session.
    pub track: Arc<str>,
    /// Tenant concurrency cap, copied at submission time.
    pub tenant_max_concurrent: usize,
    pub session_id: u64,
    pub session: Arc<Mutex<Session>>,
    pub wf: Workflow,
    pub ticket: Arc<TicketState>,
    pub enqueued: Instant,
}

/// One session's queued jobs and whether one of them is dispatched.
/// Lives only while the session has work queued or dispatched.
#[derive(Default)]
struct SessionLane {
    /// Index of the owning [`TenantLane`].
    tenant: usize,
    /// Queued jobs, in submission order.
    jobs: VecDeque<Job>,
    /// A job of this session is dispatched and unfinished.
    dispatched: bool,
    /// The head seq `relist` last filed the session under in `fresh`.
    listed: Option<u64>,
}

/// One tenant's ready set, cap bookkeeping and audit counters.
#[derive(Default)]
struct TenantLane {
    name: String,
    /// Concurrency cap of the tenant's latest submission.
    max_concurrent: usize,
    /// Idle sessions with queued work, keyed `(head seq, session id)` —
    /// dispatchable while the tenant is under its session cap.
    fresh: BTreeSet<(u64, u64)>,
    /// Sessions with a dispatched job — what the tenant concurrency cap
    /// bounds.
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
    /// The tenant's next job as `(head seq, session id)`: its earliest
    /// idle session, if the cap has room.
    fn candidate(&self) -> Option<(u64, u64)> {
        self.fresh.first().copied().filter(|_| self.active_sessions < self.max_concurrent)
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
    /// All dispatched, unfinished jobs (ready, waiting or running) — what the
    /// global cap bounds.
    dispatched_total: usize,
    next_seq: u64,
    /// Queued + dispatched: zero means fully drained.
    jobs_in_system: usize,
    pub shutdown: bool,
    /// The DRF ledger `pick` orders tenants by.
    drf: DrfAllocator,
    /// Audit total (per-tenant counters live in the tenant lanes).
    picks: u64,
}

impl AdmissionQueue {
    /// A queue over `cores_capacity` core tokens and `storage_capacity`
    /// catalog bytes (the DRF share denominators).
    pub fn new(caps: AdmissionCaps, cores_capacity: u64, storage_capacity: u64) -> AdmissionQueue {
        AdmissionQueue {
            caps,
            tenants: Vec::new(),
            tenant_index: HashMap::new(),
            sessions: HashMap::new(),
            queued: 0,
            dispatched_total: 0,
            next_seq: 0,
            jobs_in_system: 0,
            shutdown: false,
            drf: DrfAllocator::new(cores_capacity, storage_capacity),
            picks: 0,
        }
    }

    /// Whether a new submission fits the bounded queue right now.
    pub fn has_space(&self) -> bool {
        self.queued < self.caps.queue_capacity
    }

    /// Re-derive whether `session_id` belongs in its tenant's `fresh`
    /// set: it does while it is idle with queued work. Called after every
    /// event that touches the session; drops the lane once nothing is
    /// queued or dispatched.
    fn relist(&mut self, session_id: u64) {
        let Some(lane) = self.sessions.get_mut(&session_id) else { return };
        let fresh = &mut self.tenants[lane.tenant].fresh;
        let listed = lane.jobs.front().filter(|_| !lane.dispatched).map(|head| head.seq);
        if listed != lane.listed {
            if let Some(seq) = lane.listed {
                fresh.remove(&(seq, session_id));
            }
            if let Some(seq) = listed {
                fresh.insert((seq, session_id));
            }
            lane.listed = listed;
        }
        if lane.jobs.is_empty() && !lane.dispatched {
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
        lane.max_concurrent = job.tenant_max_concurrent;
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

    /// Remove and return the next dispatchable job — the DRF choice
    /// among the tenants with a candidate, that tenant's earliest idle
    /// session — marking it dispatched; `None` when nothing is eligible.
    pub fn pick(&mut self) -> Option<Job> {
        if !self.can_dispatch() {
            return None;
        }
        let with_candidate = self.tenants.iter().filter(|lane| lane.candidate().is_some());
        let picked = self.tenant_index[self.drf.pick(with_candidate.map(|l| l.name.as_str()))?];
        self.picks += 1;
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
        let (_, session_id) = lane.candidate().expect("the picked tenant has a candidate");
        let session = self.sessions.get_mut(&session_id).expect("listed sessions have lanes");
        let job = session.jobs.pop_front().expect("listed sessions have queued work");
        self.queued -= 1;
        lane.queued -= 1;
        self.dispatched_total += 1;
        lane.active_sessions += 1;
        session.dispatched = true;
        self.drf.acquire(&job.tenant);
        self.relist(session_id);
        // Trace the enqueue→pick wait retrospectively, carrying the
        // tenant's scaled dominant share at pick time.
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

    /// `tenant`'s dominant share computed against `bytes` of
    /// storage usage — read-only (the stats path must not write into the
    /// scheduler's ledger).
    pub fn dominant_share(&self, tenant: &str, bytes: u64) -> f64 {
        self.drf.dominant_share_given_bytes(tenant, bytes)
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
        FairnessAudit { picks: self.picks, non_drf_picks: 0, per_tenant: per_tenant.collect() }
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

    /// Retire `session_id`'s dispatched job.
    pub fn finish(&mut self, tenant: &str, session_id: u64) {
        self.dispatched_total -= 1;
        self.jobs_in_system -= 1;
        self.drf.release(tenant);
        if let Some(lane) = self.sessions.get_mut(&session_id) {
            lane.dispatched = false;
            self.tenants[lane.tenant].active_sessions -= 1;
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
            running: self.dispatched_total,
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
    /// Dispatched, unfinished iterations (running or waiting for a core).
    pub running: usize,
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
    use std::collections::{BTreeMap, HashSet};
    use std::sync::OnceLock;

    /// The queue never touches a job's session, so every test job shares
    /// one (opening a session per job dominates a 240 000-event run).
    fn job(tenant: &str, session_id: u64, cap: usize) -> Job {
        static SESSION: OnceLock<Arc<Mutex<Session>>> = OnceLock::new();
        let session = SESSION.get_or_init(|| {
            Arc::new(Mutex::new(Session::new(SessionConfig::in_memory()).expect("session opens")))
        });
        Job {
            seq: 0,
            tenant: tenant.to_string(),
            track: format!("tenant-{tenant}").into(),
            tenant_max_concurrent: cap,
            session_id,
            session: Arc::clone(session),
            wf: Workflow::new("w"),
            ticket: TicketState::new(),
            enqueued: Instant::now(),
        }
    }

    fn caps(queue: usize, running: usize) -> AdmissionCaps {
        AdmissionCaps { queue_capacity: queue, max_concurrent_iterations: running }
    }

    /// A queue with unit resource capacities.
    fn unit_queue(caps: AdmissionCaps) -> AdmissionQueue {
        AdmissionQueue::new(caps, 1, 1)
    }

    #[test]
    fn fifo_within_equal_priority() {
        let mut q = unit_queue(caps(10, 10));
        q.enqueue(job("a", 1, 4));
        q.enqueue(job("b", 2, 4));
        assert_eq!(q.pick().unwrap().tenant, "a");
        assert_eq!(q.pick().unwrap().tenant, "b");
        assert!(q.pick().is_none());
    }

    #[test]
    fn per_tenant_cap_counts_active_sessions() {
        let mut q = unit_queue(caps(10, 10));
        q.enqueue(job("a", 1, 1));
        q.enqueue(job("a", 2, 1)); // same tenant, different session
        q.enqueue(job("b", 3, 1));
        let first = q.pick().unwrap();
        assert_eq!((first.tenant.as_str(), first.session_id), ("a", 1));
        // Tenant a has one active session — at its cap of 1: b goes next
        // despite later seq.
        assert_eq!(q.pick().unwrap().tenant, "b");
        assert!(q.pick().is_none(), "a's second session must wait for the cap");
        q.finish("a", 1);
        assert_eq!(q.pick().unwrap().session_id, 2);
    }

    #[test]
    fn remove_queued_cancels_only_undispatched_jobs() {
        let mut q = unit_queue(caps(10, 10));
        q.enqueue(job("a", 1, 4));
        q.enqueue(job("b", 2, 4));
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
        q.finish("a", 1);
        assert!(q.is_drained(), "cancelled job left the system");
    }

    #[test]
    fn a_session_never_has_two_jobs_dispatched() {
        let mut q = AdmissionQueue::new(caps(10, 10), 4, 1 << 20);
        for _ in 0..3 {
            q.enqueue(job("a", 7, 4));
        }
        q.enqueue(job("b", 8, 4));
        assert_eq!(q.pick().unwrap().session_id, 7);
        assert_eq!(q.pick().unwrap().session_id, 8, "a busy session's later job waits");
        assert!(q.pick().is_none(), "never a second dispatched job of session 7");
        assert_eq!(q.snapshot().running, 2);
        // Each retirement admits exactly the session's next job.
        for left in [1, 0] {
            q.finish("a", 7);
            assert_eq!(q.pick().unwrap().session_id, 7);
            assert!(q.pick().is_none());
            assert_eq!(q.snapshot().queued, left);
        }
        q.finish("a", 7);
        q.finish("b", 8);
        assert!(q.is_drained());
    }

    #[test]
    fn global_cap_limits_dispatched_total() {
        let mut q = unit_queue(caps(10, 2));
        for s in 0..4 {
            q.enqueue(job("t", s, 8));
        }
        assert!(q.pick().is_some());
        assert!(q.pick().is_some());
        assert!(q.pick().is_none(), "global cap of 2 dispatched jobs reached");
        q.finish("t", 0);
        assert!(q.pick().is_some());
    }

    fn fair_queue(cores: u64) -> AdmissionQueue {
        AdmissionQueue::new(caps(64, 64), cores, 1 << 20)
    }

    #[test]
    fn fair_share_rotates_across_backlogged_tenants_ignoring_priority() {
        let mut q = fair_queue(4);
        // A heavy tenant floods the queue first; a light tenant arrives
        // last.
        for s in 0..4 {
            q.enqueue(job("heavy", s, 8));
        }
        q.enqueue(job("light", 10, 8));
        // Both start at share 0: exact tie breaks by tenant id (h < l).
        assert_eq!(q.pick().unwrap().tenant, "heavy");
        // Heavy now holds one executing-core lease; light's zero share
        // wins despite its later submission.
        assert_eq!(q.pick().unwrap().tenant, "light");
        // One lease each: tie again, id order.
        assert_eq!(q.pick().unwrap().tenant, "heavy");
        let audit = q.fairness();
        assert_eq!(audit.picks, 3);
        assert_eq!(audit.non_drf_picks, 0, "every pick is the DRF choice by construction");
    }

    #[test]
    fn bounded_queue_reports_space() {
        let mut q = unit_queue(caps(2, 1));
        assert!(q.has_space());
        q.enqueue(job("a", 1, 1));
        q.enqueue(job("a", 2, 1));
        assert!(!q.has_space());
        let snap = q.snapshot();
        assert_eq!((snap.queued, snap.running, snap.queue_capacity), (2, 0, 2));
        assert!(!q.is_drained());
    }

    #[test]
    fn byte_refresh_names_only_queued_tenants_behind_the_epoch() {
        let mut q = fair_queue(2);
        q.enqueue(job("a", 1, 4));
        q.enqueue(job("b", 2, 4));
        assert_eq!(q.stale_tenants(7), ["a", "b"]);
        assert!(q.stale_tenants(7).is_empty(), "stamped: the epoch has not moved");
        while q.pick().is_some() {}
        assert!(q.stale_tenants(8).is_empty(), "nothing queued, nothing to refresh");
        q.enqueue(job("a", 1, 4));
        assert_eq!(q.stale_tenants(8), ["a"], "a tenant rejoining behind the epoch is stale");
    }

    /// The specification the indexed queue is pinned against: the module
    /// doc's three eligibility rules and the DRF ordering as one scan over
    /// a flat, seq-ordered list of queued jobs, with the audit updated
    /// from the scan's eligible set.
    struct Spec {
        cap: usize,
        drf: DrfAllocator,
        /// `(seq, tenant, tenant cap, session)`.
        queue: Vec<(u64, String, usize, u64)>,
        /// Sessions with a dispatched job.
        busy: HashSet<u64>,
        active: HashMap<String, usize>,
        dispatched: usize,
        audit: FairnessAudit,
        waits: BTreeMap<String, u64>,
    }

    impl Spec {
        fn pick(&mut self) -> Option<(u64, u64, String)> {
            if self.dispatched >= self.cap {
                return None;
            }
            // Rules 3 and 2: the index of every eligible job.
            let eligible: Vec<usize> = (0..self.queue.len())
                .filter(|&ix| {
                    let (_, tenant, cap, session) = &self.queue[ix];
                    !self.busy.contains(session)
                        && self.active.get(tenant).copied().unwrap_or(0) < *cap
                })
                .collect();
            let tenant_of = |&ix: &usize| self.queue[ix].1.as_str();
            let drf_choice = self.drf.pick(eligible.iter().map(tenant_of))?.to_string();
            let &ix = eligible.iter().filter(|e| tenant_of(e) == drf_choice).min()?;
            let tenants: std::collections::BTreeSet<String> =
                eligible.iter().map(|e| tenant_of(e).to_string()).collect();
            let (seq, picked, _, session) = self.queue.remove(ix);
            self.audit.picks += 1;
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
            self.busy.insert(session);
            *self.active.entry(picked.clone()).or_default() += 1;
            Some((seq, session, picked))
        }

        fn finish(&mut self, tenant: &str, session: u64) {
            self.dispatched -= 1;
            self.drf.release(tenant);
            assert!(self.busy.remove(&session), "dispatched session");
            *self.active.get_mut(tenant).expect("counted tenant") -= 1;
        }
    }

    /// Drive the indexed queue and the specification with one seeded
    /// event stream; every observable must agree after every event.
    fn run_against_spec(seed: u64, heavy: bool, events: usize) {
        let mut rng = SplitMix64::new(seed);
        let tenants = 1 + rng.next_below(4);
        // Per tenant: session cap.
        let tenant_caps: Vec<usize> =
            (0..tenants).map(|_| 1 + rng.next_below(3) as usize).collect();
        let caps = caps(usize::MAX, 1 + rng.next_below(6) as usize);
        let (cores, storage) = (1 + rng.next_below(4), 1000);
        let mut spec = Spec {
            cap: caps.max_concurrent_iterations,
            drf: DrfAllocator::new(cores, storage),
            queue: Vec::new(),
            busy: HashSet::new(),
            active: HashMap::new(),
            dispatched: 0,
            audit: FairnessAudit::default(),
            waits: BTreeMap::new(),
        };
        let mut q = AdmissionQueue::new(caps, cores, storage);
        // Every ticket ever issued, by seq; and the tenant of each session
        // with a dispatched job.
        let mut tickets: Vec<(u64, Arc<TicketState>)> = Vec::new();
        let mut flight: BTreeMap<u64, String> = BTreeMap::new();
        for event in 0..events {
            let at = format!("seed {seed} heavy {heavy} event {event}");
            match rng.next_below(20) {
                0..=7 => {
                    let t =
                        if heavy && rng.next_below(10) > 0 { 0 } else { rng.next_below(tenants) };
                    let session = t * 5 + rng.next_below(5);
                    let cap = tenant_caps[t as usize];
                    let job = job(&format!("t{t}"), session, cap);
                    tickets.push((session, Arc::clone(&job.ticket)));
                    spec.queue.push((q.next_seq, job.tenant.clone(), cap, session));
                    q.enqueue(job);
                }
                8..=12 => {
                    let got = q.pick().map(|job| (job.seq, job.session_id, job.tenant));
                    assert_eq!(got, spec.pick(), "{at}: pick");
                    if let Some((_, session, tenant)) = got {
                        assert!(flight.insert(session, tenant).is_none(), "{at}: second dispatch");
                    }
                }
                13..=17 => {
                    if !flight.is_empty() {
                        let nth = rng.next_below(flight.len() as u64) as usize;
                        let session = *flight.keys().nth(nth).expect("in range");
                        let tenant = flight.remove(&session).expect("in flight");
                        q.finish(&tenant, session);
                        spec.finish(&tenant, session);
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
        let at = format!("seed {seed} heavy {heavy}");
        assert_eq!((got.picks, got.non_drf_picks), (want.picks, want.non_drf_picks), "{at}");
        let flat = |audit: &FairnessAudit| -> Vec<(String, u64, u64)> {
            let rows = audit.per_tenant.iter();
            rows.map(|(t, a)| (t.clone(), a.dispatches, a.max_eligible_wait)).collect()
        };
        assert_eq!(flat(&got), flat(want), "{at}: per-tenant audit");
    }

    #[test]
    fn indexed_pick_reproduces_the_flat_scan_specification() {
        for seed in 0..100 {
            for heavy in [false, true] {
                run_against_spec(seed, heavy, 600);
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
            q.enqueue(job(&format!("tenant-{}", session % 8), session, 2));
        }
        let mut retired = 0;
        let mut running: VecDeque<Job> = VecDeque::new();
        while !q.is_drained() {
            while let Some(job) = q.pick() {
                running.push_back(job);
            }
            let job = running.pop_front().expect("an undrained queue has dispatched work");
            q.finish(&job.tenant, job.session_id);
            retired += 1;
        }
        assert_eq!((retired, q.fairness().picks, q.snapshot().queued), (50_000, 50_000, 0));
        assert!(started.elapsed().as_secs() < 20, "drain took {:?}", started.elapsed());
    }
}
