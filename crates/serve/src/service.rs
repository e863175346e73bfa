//! The multi-tenant session service.
//!
//! [`HelixService`] is the long-lived process owner of the shared
//! [`CoreBudget`], the shared [`MaterializationCatalog`], and the
//! admission/scheduling layer. Tenants register with a [`TenantSpec`]
//! (storage quota carved from the global budget, concurrency cap), open
//! any number of [`ServiceSession`]s, and submit iterations which run on
//! the worker pool:
//!
//! ```text
//! submit ──▶ bounded queue ──▶ pick (dominant-resource fair share,
//!                      per-tenant + global caps, one dispatched job
//!                      per session)
//!                      ──▶ worker pool (`runner`): the worker takes
//!                      a tenant-labeled core token, waiting on the
//!                      budget if none is free ──▶
//!                      Session::run ──▶ fulfill ticket
//! ```
//!
//! There is no scheduler thread: the pick is indexed (its cost does not
//! grow with the backlog), so `dispatch` runs inline, under the
//! scheduler lock, on whichever thread just made work eligible — the
//! submitter after `enqueue`, a pool worker after `finish`. Every such
//! event dispatches until nothing more is eligible, so a queued job is
//! always waiting on a dispatched one.
//!
//! **Lock order:** `sched → runner` and `sched → catalog`, never the
//! reverse — nothing takes the scheduler lock while holding the runner
//! or catalog lock. The budget lock is a leaf: nothing else is taken
//! while it is held.
//!
//! Core accounting: the runner's base token covers the engine's
//! coordinator; the engine and its data-parallel operators lease any
//! *extra* threads from the same budget non-blockingly, so
//! `CoreBudget::peak_leased() ≤ cores` holds at all times — that is the
//! "no `workers²`" invariant the determinism suite asserts.
//!
//! Storage accounting: `Σ tenant quotas ≤ storage_budget_bytes` is
//! enforced at registration; each tenant's engine checks its own quota
//! (`used_bytes_for`) and mandatory stores evict that tenant's oldest
//! sole-owned artifacts only. The same budget is installed on the shared
//! catalog as its *global* byte cap: when a store would overflow it even
//! with every tenant inside its quota, retention-scored global eviction
//! frees bytes across tenants (popular refcount > 1 artifacts last,
//! pinned in-flight loads never). Sessions carry their *own* seeds: the seed
//! is part of every signature's provenance (`helix_core::track`), so
//! signature-equal artifacts are byte-equal across tenants by
//! construction — seed-dependent nodes key apart, seed-independent
//! prefixes still collide and are shared (see the crate docs for the
//! full determinism argument).

use crate::admission::{AdmissionCaps, AdmissionQueue, Job, QueueSnapshot};
use crate::fairshare::FairnessAudit;
use crate::runner::{self, Runner};
use crate::ticket::{JobOutcome, JobTicket, TicketState};
use helix_common::timing::Nanos;
use helix_common::{HelixError, Result, RingLog};
use helix_core::{IterationReport, Session, SessionConfig, SessionHandles, Workflow};
use helix_exec::CoreBudget;
use helix_storage::EvictionRecord;
use helix_storage::{DiskProfile, MaterializationCatalog, RecoveryStats};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Per-tenant registration: the resources a tenant is entitled to.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Storage quota in bytes, carved out of the service's global budget
    /// at registration time.
    pub quota_bytes: u64,
    /// Maximum iterations this tenant may have running at once.
    pub max_concurrent: usize,
}

impl Default for TenantSpec {
    fn default() -> TenantSpec {
        TenantSpec { quota_bytes: 32 << 20, max_concurrent: 1 }
    }
}

impl TenantSpec {
    /// Builder: set the storage quota.
    #[must_use]
    pub fn with_quota(mut self, bytes: u64) -> TenantSpec {
        self.quota_bytes = bytes;
        self
    }

    /// Builder: set the tenant concurrency cap.
    #[must_use]
    pub fn with_max_concurrent(mut self, cap: usize) -> TenantSpec {
        self.max_concurrent = cap.max(1);
        self
    }
}

/// Service-wide configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Core tokens in the shared budget (the machine's share given to
    /// this service; the paper's "cluster size" across all tenants).
    pub cores: usize,
    /// Global storage budget; tenant quotas are carved from it.
    pub storage_budget_bytes: u64,
    /// Emulated disk characteristics of the shared catalog.
    pub disk: DiskProfile,
    /// Catalog directory; `None` = fresh temp directory.
    pub catalog_dir: Option<PathBuf>,
    /// Bounded submission-queue capacity (submitters block beyond).
    pub queue_capacity: usize,
    /// Iterations allowed to run concurrently across all tenants.
    /// Values above `cores` let iterations queue on the core budget
    /// itself (useful when iterations are I/O-heavy).
    pub max_concurrent_iterations: usize,
    /// *Default* seed for sessions that do not set one of their own.
    ///
    /// Historically this was a service-wide override (every session's
    /// seed was forcibly replaced, because pre-provenance signatures
    /// could not tell artifacts from different seeds apart). Seeds are
    /// now folded into the signature chain, so per-session seeds are
    /// sound: a session keeps the seed its `SessionConfig` sets, and
    /// only an *unset* seed falls back to this value.
    pub seed: u64,
}

impl ServiceConfig {
    /// A service over `cores` core tokens with test-friendly defaults.
    pub fn new(cores: usize) -> ServiceConfig {
        let cores = cores.max(1);
        ServiceConfig {
            cores,
            storage_budget_bytes: 256 << 20,
            disk: DiskProfile::unthrottled(),
            catalog_dir: None,
            queue_capacity: 64,
            max_concurrent_iterations: cores * 2,
            // Shared with solo sessions so an unset-seed workflow run
            // in-service and solo stays byte- and signature-identical.
            seed: helix_core::DEFAULT_SEED,
        }
    }

    /// Builder: set the disk profile.
    #[must_use]
    pub fn with_disk(mut self, disk: DiskProfile) -> ServiceConfig {
        self.disk = disk;
        self
    }

    /// Builder: set the catalog directory.
    #[must_use]
    pub fn with_catalog_dir(mut self, dir: impl Into<PathBuf>) -> ServiceConfig {
        self.catalog_dir = Some(dir.into());
        self
    }

    /// Builder: set the default seed for sessions that do not set one.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> ServiceConfig {
        self.seed = seed;
        self
    }

    /// Builder: set the submission-queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServiceConfig {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Builder: set the global running-iterations cap.
    #[must_use]
    pub fn with_max_concurrent_iterations(mut self, cap: usize) -> ServiceConfig {
        self.max_concurrent_iterations = cap.max(1);
        self
    }
}

pub(crate) struct TenantState {
    spec: TenantSpec,
    pub(crate) iterations: u64,
    pub(crate) queue_wait_nanos: Nanos,
    pub(crate) run_nanos: Nanos,
    /// Resolved seeds of this tenant's sessions, in open order — sessions
    /// pick their own seeds now, so observability must say which seed
    /// each one actually ran under. Bounded to the most recent
    /// [`helix_common::BOUNDED_LOG_CAP`] opens so a tenant that churns
    /// sessions for the service's lifetime cannot grow this without
    /// limit.
    session_seeds: RingLog<u64>,
}

pub(crate) struct SchedState {
    pub(crate) queue: AdmissionQueue,
    pub(crate) tenants: HashMap<String, TenantState>,
    reserved_quota: u64,
    next_session_id: u64,
    /// Submitters blocked on the bounded queue right now: a pick signals
    /// `space` only when someone is there to hear it.
    space_waiters: usize,
}

pub(crate) struct ServiceInner {
    pub(crate) config: ServiceConfig,
    pub(crate) catalog: Arc<MaterializationCatalog>,
    pub(crate) budget: Arc<CoreBudget>,
    pub(crate) sched: Mutex<SchedState>,
    /// The worker pool's ready jobs.
    pub(crate) runner: Runner,
    /// Submitters blocked on the bounded queue.
    pub(crate) space: Condvar,
    /// Drain/shutdown waiters; signalled when the queue turns drained.
    pub(crate) idle: Condvar,
    /// `serve.pick_nanos`: one sample per pick round.
    pick_hist: Arc<helix_obs::metrics::Histogram>,
}

impl ServiceInner {
    pub(crate) fn sched(&self) -> MutexGuard<'_, SchedState> {
        self.sched.lock().expect("scheduler state poisoned")
    }
}

/// The long-lived multi-tenant service. Dropping it drains in-flight and
/// queued work, then joins the worker pool.
pub struct HelixService {
    inner: Arc<ServiceInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl HelixService {
    /// Start a service: open (or create) the shared catalog, size the
    /// core budget, and launch the worker pool
    /// (`min(cores, max_concurrent_iterations)` threads — jobs beyond
    /// that wait in the runner's ready queue instead of holding threads).
    pub fn new(config: ServiceConfig) -> Result<HelixService> {
        let catalog = match &config.catalog_dir {
            Some(dir) => MaterializationCatalog::open(dir, config.disk)?,
            None => MaterializationCatalog::open_temp(config.disk)?,
        };
        let caps = AdmissionCaps {
            queue_capacity: config.queue_capacity,
            max_concurrent_iterations: config.max_concurrent_iterations,
        };
        // The shared catalog carries the service's *global* byte budget:
        // tenant-aware global-pressure eviction activates when the whole
        // store (not just one tenant's quota) is tight.
        catalog.set_global_budget(Some(config.storage_budget_bytes));
        let pool_size = config.cores.min(config.max_concurrent_iterations).max(1);
        let inner = Arc::new(ServiceInner {
            budget: Arc::new(CoreBudget::new(config.cores)),
            catalog: Arc::new(catalog),
            sched: Mutex::new(SchedState {
                queue: AdmissionQueue::new(caps, config.cores as u64, config.storage_budget_bytes),
                tenants: HashMap::new(),
                reserved_quota: 0,
                next_session_id: 0,
                space_waiters: 0,
            }),
            runner: Runner::new(pool_size),
            space: Condvar::new(),
            idle: Condvar::new(),
            pick_hist: helix_obs::metrics::global().histogram("serve.pick_nanos"),
            config,
        });
        let mut workers = Vec::with_capacity(inner.runner.pool_size());
        for i in 0..inner.runner.pool_size() {
            let inner = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("helix-serve-worker-{i}"))
                .spawn(move || runner::worker_loop(inner))
                .map_err(|e| HelixError::config(format!("worker spawn failed: {e}")))?;
            workers.push(handle);
        }
        Ok(HelixService { inner, workers })
    }

    /// The shared core budget (for monitoring and tests).
    pub fn core_budget(&self) -> &Arc<CoreBudget> {
        &self.inner.budget
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &Arc<MaterializationCatalog> {
        &self.inner.catalog
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Size of the session-runner worker pool:
    /// `min(cores, max_concurrent_iterations)`, at least 1. This is
    /// every thread the service owns — open-loop clients can hold
    /// thousands of in-flight sessions without the thread count moving
    /// (`tests/runner_stress.rs` asserts this).
    pub fn worker_pool_size(&self) -> usize {
        self.inner.runner.pool_size()
    }

    /// Register a tenant, carving its storage quota out of the global
    /// budget. Fails on duplicate names, empty names (reserved for solo
    /// sessions), or quota overflow.
    pub fn register_tenant(&self, name: &str, spec: TenantSpec) -> Result<()> {
        if name.is_empty() {
            return Err(HelixError::config("tenant name must be non-empty"));
        }
        let mut sched = self.inner.sched();
        if sched.tenants.contains_key(name) {
            return Err(HelixError::config(format!("tenant `{name}` already registered")));
        }
        let requested = spec.quota_bytes;
        let available = self.inner.config.storage_budget_bytes.saturating_sub(sched.reserved_quota);
        if requested > available {
            return Err(HelixError::config(format!(
                "tenant `{name}` quota {requested} B exceeds unreserved storage {available} B"
            )));
        }
        sched.reserved_quota += requested;
        sched.tenants.insert(
            name.to_string(),
            TenantState {
                spec,
                iterations: 0,
                queue_wait_nanos: 0,
                run_nanos: 0,
                session_seeds: RingLog::with_default_cap(),
            },
        );
        Ok(())
    }

    /// Open an iterative session for a registered tenant.
    ///
    /// The caller's `config` chooses workers/strategy/reuse/cache policy
    /// *and its own seed* — seeds are folded into signature provenance,
    /// so distinct-seed tenants share exactly the artifacts that
    /// genuinely match. A config that leaves the seed unset inherits the
    /// service default ([`ServiceConfig::seed`]). The service still
    /// overrides what sharing requires: catalog and disk (the shared
    /// store) and storage budget (the tenant's quota).
    pub fn open_session(&self, tenant: &str, config: SessionConfig) -> Result<ServiceSession> {
        let seed = config.seed.unwrap_or(self.inner.config.seed);
        let (quota, session_id) = {
            let mut sched = self.inner.sched();
            let state = sched
                .tenants
                .get_mut(tenant)
                .ok_or_else(|| HelixError::not_found("tenant", tenant))?;
            let quota = state.spec.quota_bytes;
            state.session_seeds.push(seed);
            let id = sched.next_session_id;
            sched.next_session_id += 1;
            (quota, id)
        };
        let config = SessionConfig {
            storage_budget_bytes: quota,
            disk: self.inner.config.disk,
            catalog_dir: None,
            seed: Some(seed),
            ..config
        };
        let handles = SessionHandles {
            catalog: Arc::clone(&self.inner.catalog),
            core_budget: Some(Arc::clone(&self.inner.budget)),
            tenant: tenant.to_string(),
        };
        let session = Arc::new(Mutex::new(Session::with_handles(config, handles)));
        Ok(ServiceSession {
            inner: Arc::clone(&self.inner),
            session,
            session_id,
            tenant: tenant.to_string(),
            track: format!("tenant-{tenant}").into(),
        })
    }

    /// Block until no work is queued or running.
    pub fn drain(&self) {
        let mut sched = self.inner.sched();
        while !sched.queue.is_drained() {
            sched = self.inner.idle.wait(sched).expect("scheduler state poisoned");
        }
    }

    /// Aggregate service statistics (scheduling + catalog + cores).
    pub fn stats(&self) -> ServiceStats {
        let sched = self.inner.sched();
        let names: Vec<String> = sched.tenants.keys().cloned().collect();
        let mut tenants = BTreeMap::new();
        for name in names {
            let owner = self.inner.catalog.owner_stats(&name);
            let owned_bytes = self.inner.catalog.used_bytes_for(&name);
            let dominant_share = sched.queue.dominant_share(&name, owned_bytes);
            let state = &sched.tenants[&name];
            tenants.insert(
                name.clone(),
                TenantStats {
                    iterations: state.iterations,
                    queue_wait_nanos: state.queue_wait_nanos,
                    run_nanos: state.run_nanos,
                    self_hits: owner.self_hits,
                    cross_hits: owner.cross_hits,
                    stored_bytes: owner.stored_bytes,
                    quota_evictions: owner.quota_evictions,
                    global_evictions: owner.global_evictions,
                    owned_bytes,
                    quota_bytes: state.spec.quota_bytes,
                    session_seeds: state.session_seeds.to_vec(),
                    dominant_share,
                    peak_cores_leased: self.inner.budget.peak_leased_for(&name),
                },
            );
        }
        ServiceStats {
            tenants,
            cores_total: self.inner.budget.total(),
            cores_leased: self.inner.budget.leased(),
            peak_cores_leased: self.inner.budget.peak_leased(),
            catalog_bytes: self.inner.catalog.total_bytes(),
            catalog_artifacts: self.inner.catalog.len(),
            queue: sched.queue.snapshot(),
            fairness: sched.queue.fairness(),
            evictions: self.inner.catalog.eviction_log(),
            catalog_recovery: self.inner.catalog.recovery_stats().clone(),
        }
    }
}

impl Drop for HelixService {
    fn drop(&mut self) {
        self.inner.sched().queue.shutdown = true;
        self.inner.space.notify_all();
        // Graceful drain: queued work still runs; new submissions fail.
        // Every queued job waits on a dispatched one, and the worker
        // that retires it dispatches what became eligible, so the pool
        // alone empties the queue (a drained queue means no job is
        // queued or dispatched).
        self.drain();
        self.inner.runner.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One tenant's session handle: submit iterations, await tickets.
///
/// Iterations of one session always run one-at-a-time in submission
/// order (the session is stateful across iterations); sessions of the
/// same or different tenants run concurrently up to the admission caps.
///
/// Admission dispatches at most one job per session, so a later job of a
/// busy session waits in the admission queue, not in the worker pool,
/// until the job ahead of it retires. A closed-loop client that keeps
/// many jobs outstanding but waits only on its oldest ticket stalls
/// behind that one job while later ones have already finished; its
/// throughput comes out bimodal (the `serve_closed64` benchmark workload,
/// 64 sessions, read 15k against 21k jobs/s that way). Sweep finished
/// tickets with [`JobTicket::try_outcome`] and refill for each instead.
pub struct ServiceSession {
    inner: Arc<ServiceInner>,
    session: Arc<Mutex<Session>>,
    session_id: u64,
    tenant: String,
    /// The tenant's trace track label, shared with every job.
    track: Arc<str>,
}

impl ServiceSession {
    /// The owning tenant.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Submit one iteration; blocks only while the bounded queue is full.
    pub fn submit(&self, wf: Workflow) -> Result<JobTicket> {
        let ticket = TicketState::new();
        let mut sched = self.inner.sched();
        loop {
            if sched.queue.shutdown {
                return Err(HelixError::config("service is shutting down"));
            }
            if sched.queue.has_space() {
                break;
            }
            sched.space_waiters += 1;
            sched = self.inner.space.wait(sched).expect("scheduler state poisoned");
            sched.space_waiters -= 1;
        }
        let cap = sched
            .tenants
            .get(&self.tenant)
            .ok_or_else(|| HelixError::not_found("tenant", &*self.tenant))?
            .spec
            .max_concurrent;
        sched.queue.enqueue(Job {
            seq: 0,
            tenant: self.tenant.clone(),
            track: Arc::clone(&self.track),
            tenant_max_concurrent: cap,
            session_id: self.session_id,
            session: Arc::clone(&self.session),
            wf,
            ticket: Arc::clone(&ticket),
            enqueued: Instant::now(),
        });
        dispatch(&self.inner, &mut sched);
        drop(sched);
        let service = Arc::downgrade(&self.inner);
        Ok(JobTicket { state: ticket, session_id: self.session_id, service })
    }

    /// Submit a batch of iterations in order, returning one ticket per
    /// workflow. Equivalent to calling [`submit`](Self::submit) once per
    /// workflow: iterations of this session still retire in submission
    /// order, and the call blocks whenever the bounded queue is full —
    /// batch submitters get backpressure, not unbounded queues. Tickets
    /// pair with the non-blocking surface ([`JobTicket::try_outcome`] /
    /// [`JobTicket::wait_timeout`]) for open-loop drivers that submit
    /// thousands of iterations before collecting any.
    pub fn submit_all(&self, wfs: impl IntoIterator<Item = Workflow>) -> Result<Vec<JobTicket>> {
        wfs.into_iter().map(|wf| self.submit(wf)).collect()
    }

    /// Submit one iteration and block for its report.
    pub fn run_iteration(&self, wf: Workflow) -> Result<IterationReport> {
        self.submit(wf)?.wait_outcome().result
    }

    /// Iterations this session has completed.
    pub fn iterations_run(&self) -> u64 {
        lock_session(&self.session).iterations_run()
    }
}

/// Sessions survive a panicked iteration (the runner converts panics to
/// errors); ignore mutex poisoning accordingly.
pub(crate) fn lock_session(session: &Mutex<Session>) -> MutexGuard<'_, Session> {
    match session.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Cancel a still-queued job by its ticket: remove it from its session's
/// FIFO and fulfill the ticket as cancelled. Returns `false` when the
/// job already dispatched (it will finish its iteration) or already
/// completed. Backs [`JobTicket::cancel`].
pub(crate) fn cancel_queued(inner: &ServiceInner, ticket: &JobTicket) -> bool {
    let mut sched = inner.sched();
    let removed = sched.queue.remove_queued(ticket.session_id, &ticket.state);
    let Some(job) = removed else { return false };
    // A queue slot freed and possibly the last job left the system
    // (removing queued work makes nothing else eligible: no dispatch).
    if sched.space_waiters > 0 {
        inner.space.notify_all();
    }
    if sched.queue.is_drained() {
        inner.idle.notify_all();
    }
    drop(sched);
    job.ticket.fulfill(JobOutcome {
        result: Err(HelixError::exec("admission", "iteration cancelled before dispatch")),
        queue_wait_nanos: job.enqueued.elapsed().as_nanos() as Nanos,
        run_nanos: 0,
        cancelled: true,
    });
    true
}

/// Dispatch every job that is eligible right now: pick by DRF and hand each pick to the worker pool, which decides *where* it runs
/// (a ready job — no per-job thread). Called with the scheduler lock
/// held at the two events that can make work eligible (see the module
/// docs); the pick decides *which* session advances.
pub(crate) fn dispatch(inner: &ServiceInner, sched: &mut SchedState) {
    let mut picked_any = false;
    while sched.queue.can_dispatch() {
        let pick_started = Instant::now();
        // Refresh the DRF ledger's storage side before deciding: dominant
        // shares fold in each competing tenant's current catalog charge —
        // one batched catalog-lock hold for the queued tenants whose
        // charge may have moved, none while the byte epoch stands still.
        let stale = sched.queue.stale_tenants(inner.catalog.dirty_epoch());
        if !stale.is_empty() {
            let bytes = inner.catalog.used_bytes_for_many(&stale);
            sched.queue.set_tenant_bytes(&stale, &bytes);
        }
        let picked = sched.queue.pick();
        inner.pick_hist.record(helix_common::timing::duration_to_nanos(pick_started.elapsed()));
        let Some(job) = picked else { break };
        picked_any = true;
        inner.runner.submit(job);
    }
    // Picks freed queue slots: wake submitters blocked on the bounded
    // queue now, not when the iterations eventually finish.
    if picked_any && sched.space_waiters > 0 {
        inner.space.notify_all();
    }
}

/// Point-in-time statistics for one tenant.
#[derive(Clone, Debug, serde::Serialize)]
pub struct TenantStats {
    /// Iterations completed.
    pub iterations: u64,
    /// Total time jobs spent queued before dispatch.
    pub queue_wait_nanos: Nanos,
    /// Total time inside `Session::run`.
    pub run_nanos: Nanos,
    /// Catalog loads served by this tenant's own artifacts.
    pub self_hits: u64,
    /// Catalog loads served by *other* tenants' artifacts.
    pub cross_hits: u64,
    /// Bytes this tenant has written to the catalog (lifetime).
    pub stored_bytes: u64,
    /// Artifacts evicted to keep this tenant inside its quota.
    pub quota_evictions: u64,
    /// Artifacts this tenant had a claim on that fell to global-pressure
    /// eviction (possibly triggered by another tenant's store).
    pub global_evictions: u64,
    /// Bytes currently charged against the tenant's quota.
    pub owned_bytes: u64,
    /// The tenant's quota.
    pub quota_bytes: u64,
    /// Resolved seed of each of this tenant's most recent sessions (up
    /// to 64), in open order. Seeds are per-session (folded into
    /// signature provenance); a session that left its seed unset shows
    /// the service default here.
    pub session_seeds: Vec<u64>,
    /// The tenant's dominant share right now (the scheduler's ordering
    /// key): max of its executing-core and catalog-byte fractions.
    pub dominant_share: f64,
    /// High-water mark of base core tokens this tenant's runners held
    /// simultaneously (per-tenant executing-core lease accounting).
    pub peak_cores_leased: usize,
}

impl TenantStats {
    /// Fraction of this tenant's loads served by other tenants' artifacts.
    pub fn cross_hit_rate(&self) -> f64 {
        let loads = self.self_hits + self.cross_hits;
        if loads == 0 {
            return 0.0;
        }
        self.cross_hits as f64 / loads as f64
    }
}

/// Aggregate service statistics.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ServiceStats {
    /// Per-tenant breakdown, name-ordered.
    pub tenants: BTreeMap<String, TenantStats>,
    /// Tokens in the core budget.
    pub cores_total: usize,
    /// Tokens leased right now.
    pub cores_leased: usize,
    /// High-water mark of leased tokens — must never exceed
    /// `cores_total` (the no-`workers²` invariant).
    pub peak_cores_leased: usize,
    /// Physical catalog footprint.
    pub catalog_bytes: u64,
    /// Artifact count.
    pub catalog_artifacts: usize,
    /// Admission state.
    pub queue: QueueSnapshot,
    /// Scheduler-event fairness audit (`non_drf_picks == 0` by
    /// construction).
    pub fairness: FairnessAudit,
    /// The bounded eviction-attribution log (quota + global-pressure
    /// events, most recent 64).
    pub evictions: Vec<EvictionRecord>,
    /// What the catalog's journal recovery found and repaired when this
    /// service opened its store — torn tails truncated, entries dropped,
    /// files swept, sweep failures, and the disk-vs-accounting
    /// reconciliation. Operators watch this after a crash: a non-empty
    /// `sweep_failures` or a large `journal_tail_bytes` is the earliest
    /// signal of storage trouble.
    pub catalog_recovery: RecoveryStats,
}

impl ServiceStats {
    /// Service-wide cross-tenant hit rate across all tenants' loads.
    pub fn cross_hit_rate(&self) -> f64 {
        let (cross, total) = self
            .tenants
            .values()
            .fold((0u64, 0u64), |(c, t), s| (c + s.cross_hits, t + s.self_hits + s.cross_hits));
        if total == 0 {
            return 0.0;
        }
        cross as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_data::{Scalar, Value};

    /// Busy-wait so compute dominates load costs and reuse is decisive.
    fn spin(millis: u64) {
        let until = Instant::now() + std::time::Duration::from_millis(millis);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    /// A three-node chain, parameterized so tests can share or diverge.
    fn chain(version: u64) -> Workflow {
        let mut wf = Workflow::new("chain");
        let a = wf.source("a", 1, |_| {
            spin(3);
            Ok(Value::Scalar(Scalar::I64(10)))
        });
        let b = wf.reduce("b", a, version, move |v, _| {
            spin(3);
            let x = v.as_scalar()?.as_f64().unwrap_or(0.0);
            Ok(Value::Scalar(Scalar::F64(x * version as f64)))
        });
        let c = wf.reduce("c", b, 1, |v, _| {
            spin(3);
            let x = v.as_scalar()?.as_f64().unwrap_or(0.0);
            Ok(Value::Scalar(Scalar::F64(x + 1.0)))
        });
        wf.output(c);
        wf
    }

    fn service(cores: usize) -> HelixService {
        HelixService::new(ServiceConfig::new(cores)).expect("service starts")
    }

    #[test]
    fn single_tenant_round_trip() {
        let svc = service(2);
        svc.register_tenant("alice", TenantSpec::default()).unwrap();
        let session = svc.open_session("alice", SessionConfig::in_memory()).unwrap();
        let report = session.run_iteration(chain(1)).unwrap();
        assert_eq!(report.output_scalar("c").unwrap().as_f64(), Some(11.0));
        assert_eq!(session.iterations_run(), 1);
        let stats = svc.stats();
        assert_eq!(stats.tenants["alice"].iterations, 1);
        assert!(stats.peak_cores_leased <= stats.cores_total);
    }

    /// A job that finds no free core token waits on the budget, and the
    /// release of the token it waits for reaches it: it runs, and the
    /// test fails within its bound instead of hanging if the wakeup is
    /// lost.
    #[test]
    fn a_release_inside_the_park_window_still_grants_the_parked_job() {
        let svc = service(1);
        svc.register_tenant("alice", TenantSpec::default()).unwrap();
        let session = svc.open_session("alice", SessionConfig::in_memory()).unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        // Hold the only token until the job is waiting for it.
        let held = svc.core_budget().try_acquire_one().expect("a free token");
        let ticket = session.submit(chain(1)).unwrap();
        while svc.inner.runner.waiting() != 1 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let waited = svc.inner.runner.waiting() == 1;
        drop(held);
        let outcome = ticket.wait_timeout(deadline.saturating_duration_since(Instant::now()));
        if !waited || outcome.is_none() {
            // A job stuck on the budget would hang the service's drain.
            std::mem::forget(svc);
            panic!("the job never waited on the budget, or never got the released token");
        }
        let report = outcome.unwrap().result.unwrap();
        assert_eq!(report.output_scalar("c").unwrap().as_f64(), Some(11.0));
    }

    #[test]
    fn unknown_or_duplicate_tenants_are_rejected() {
        let svc = service(1);
        assert!(svc.open_session("ghost", SessionConfig::in_memory()).is_err());
        assert!(svc.register_tenant("", TenantSpec::default()).is_err(), "empty name reserved");
        svc.register_tenant("a", TenantSpec::default()).unwrap();
        assert!(svc.register_tenant("a", TenantSpec::default()).is_err(), "duplicate");
    }

    #[test]
    fn quota_carving_respects_the_global_budget() {
        let config = ServiceConfig { storage_budget_bytes: 100, ..ServiceConfig::new(1) };
        let svc = HelixService::new(config).expect("service starts");
        svc.register_tenant("a", TenantSpec::default().with_quota(60)).unwrap();
        assert!(
            svc.register_tenant("b", TenantSpec::default().with_quota(60)).is_err(),
            "60 + 60 > 100: second carve must fail"
        );
        svc.register_tenant("b", TenantSpec::default().with_quota(40)).unwrap();
    }

    #[test]
    fn per_session_seeds_survive_open_and_are_surfaced() {
        let svc = HelixService::new(ServiceConfig::new(1).with_seed(7)).expect("service starts");
        svc.register_tenant("a", TenantSpec::default()).unwrap();
        svc.register_tenant("b", TenantSpec::default()).unwrap();
        // `a` picks its own seed; `b` leaves it unset → service default.
        let _a = svc.open_session("a", SessionConfig::in_memory().with_seed(1)).unwrap();
        let _a2 = svc.open_session("a", SessionConfig::in_memory().with_seed(2)).unwrap();
        let _b = svc.open_session("b", SessionConfig::in_memory()).unwrap();
        let stats = svc.stats();
        assert_eq!(stats.tenants["a"].session_seeds, vec![1, 2], "explicit seeds kept");
        assert_eq!(stats.tenants["b"].session_seeds, vec![7], "unset seed takes the default");
    }

    #[test]
    fn distinct_seed_tenants_share_deterministic_workflows_fully() {
        // `chain` has no stochastic operator, so its signatures are
        // seed-independent end to end: two tenants on different seeds
        // must still reuse each other's artifacts completely.
        let svc = service(2);
        svc.register_tenant("alice", TenantSpec::default()).unwrap();
        svc.register_tenant("bob", TenantSpec::default()).unwrap();
        let alice = svc
            .open_session("alice", SessionConfig::in_memory().with_seed(100))
            .expect("session opens");
        let bob = svc
            .open_session("bob", SessionConfig::in_memory().with_seed(200))
            .expect("session opens");
        alice.run_iteration(chain(1)).unwrap();
        let b_report = bob.run_iteration(chain(1)).unwrap();
        assert_eq!(b_report.metrics.computed, 0, "deterministic chain shared across seeds");
        assert!(b_report.metrics.cross_loaded > 0);
        assert_eq!(b_report.output_scalar("c").unwrap().as_f64(), Some(11.0));
    }

    #[test]
    fn cross_tenant_reuse_on_identical_workflows() {
        let svc = service(2);
        svc.register_tenant("alice", TenantSpec::default()).unwrap();
        svc.register_tenant("bob", TenantSpec::default()).unwrap();
        let alice = svc.open_session("alice", SessionConfig::in_memory()).unwrap();
        let bob = svc.open_session("bob", SessionConfig::in_memory()).unwrap();

        let a_report = alice.run_iteration(chain(1)).unwrap();
        let b_report = bob.run_iteration(chain(1)).unwrap();
        assert_eq!(
            a_report.output_scalar("c").unwrap().as_f64(),
            b_report.output_scalar("c").unwrap().as_f64()
        );
        assert!(
            b_report.metrics.cross_loaded > 0,
            "bob must load alice's artifacts, not recompute"
        );
        assert_eq!(b_report.metrics.computed, 0, "nothing to compute on a shared prefix");
        let stats = svc.stats();
        assert!(stats.tenants["bob"].cross_hits > 0);
        assert!(stats.cross_hit_rate() > 0.0);
        assert_eq!(stats.tenants["alice"].cross_hits, 0, "producer pays, consumer reuses");
    }

    #[test]
    fn one_tenant_deprecating_does_not_break_the_other() {
        let svc = service(2);
        svc.register_tenant("alice", TenantSpec::default()).unwrap();
        svc.register_tenant("bob", TenantSpec::default()).unwrap();
        let alice = svc.open_session("alice", SessionConfig::in_memory()).unwrap();
        let bob = svc.open_session("bob", SessionConfig::in_memory()).unwrap();

        alice.run_iteration(chain(1)).unwrap();
        bob.run_iteration(chain(1)).unwrap();
        // Alice changes operator b: her old downstream artifacts are
        // deprecated *for her*; bob's rerun must still load, not compute.
        alice.run_iteration(chain(2)).unwrap();
        let bob_rerun = bob.run_iteration(chain(1)).unwrap();
        assert_eq!(bob_rerun.metrics.computed, 0, "bob's artifacts must survive alice's purge");
        assert_eq!(bob_rerun.output_scalar("c").unwrap().as_f64(), Some(11.0));
    }

    #[test]
    fn concurrent_submissions_from_many_tenants_all_complete() {
        let svc = service(2);
        for t in 0..4 {
            svc.register_tenant(&format!("t{t}"), TenantSpec::default().with_max_concurrent(1))
                .unwrap();
        }
        let sessions: Vec<ServiceSession> = (0..4)
            .map(|t| svc.open_session(&format!("t{t}"), SessionConfig::in_memory()).unwrap())
            .collect();
        // Two iterations per tenant, all submitted before any waits.
        let tickets: Vec<(usize, JobTicket)> = (0..2)
            .flat_map(|_| {
                sessions
                    .iter()
                    .enumerate()
                    .map(|(ix, s)| (ix, s.submit(chain(1)).unwrap()))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (ix, ticket) in tickets {
            let outcome = ticket.wait_outcome();
            let report = outcome.result.expect("iteration succeeds");
            assert_eq!(report.output_scalar("c").unwrap().as_f64(), Some(11.0), "tenant {ix}");
        }
        let stats = svc.stats();
        assert_eq!(stats.tenants.values().map(|t| t.iterations).sum::<u64>(), 8);
        assert!(
            stats.peak_cores_leased <= stats.cores_total,
            "peak {} > budget {}",
            stats.peak_cores_leased,
            stats.cores_total
        );
        assert_eq!(stats.queue.running, 0);
        svc.drain();
    }

    #[test]
    fn failed_iterations_report_errors_and_free_the_session() {
        let svc = service(1);
        svc.register_tenant("t", TenantSpec::default()).unwrap();
        let session = svc.open_session("t", SessionConfig::in_memory()).unwrap();

        let mut bad = Workflow::new("bad");
        let x =
            bad.source("x", 1, |_| Err(helix_common::HelixError::exec("x", "synthetic failure")));
        bad.output(x);
        let err = match session.run_iteration(bad) {
            Err(err) => err,
            Ok(_) => panic!("failing workflow must error"),
        };
        assert!(format!("{err}").contains("synthetic failure"));
        // The session is not wedged: a good iteration still runs.
        let ok = session.run_iteration(chain(1)).unwrap();
        assert_eq!(ok.output_scalar("c").unwrap().as_f64(), Some(11.0));
    }

    #[test]
    fn fair_share_service_drains_a_heavy_backlog_without_drf_deviations() {
        let svc = HelixService::new(ServiceConfig::new(1).with_max_concurrent_iterations(2))
            .expect("service starts");
        svc.register_tenant("heavy", TenantSpec::default().with_max_concurrent(4)).unwrap();
        svc.register_tenant("light", TenantSpec::default()).unwrap();
        let heavy: Vec<ServiceSession> = (0..2)
            .map(|_| svc.open_session("heavy", SessionConfig::in_memory()).unwrap())
            .collect();
        let light = svc.open_session("light", SessionConfig::in_memory()).unwrap();
        let mut tickets = Vec::new();
        for session in &heavy {
            for version in [1u64, 2] {
                tickets.push(session.submit(chain(version)).unwrap());
            }
        }
        tickets.push(light.submit(chain(1)).unwrap());
        for ticket in tickets {
            ticket.wait_outcome().result.expect("iteration succeeds");
        }
        let stats = svc.stats();
        assert_eq!(stats.fairness.non_drf_picks, 0, "every pick is the DRF choice");
        assert_eq!(stats.fairness.picks, 5);
        assert!(stats.tenants["light"].dominant_share >= 0.0);
        assert!(stats.tenants["heavy"].peak_cores_leased <= stats.cores_total);
        assert_eq!(stats.tenants.values().map(|t| t.iterations).sum::<u64>(), 5);
    }

    #[test]
    fn tight_global_budget_evicts_with_attribution_but_keeps_results_correct() {
        use helix_storage::EvictionKind;
        let svc = service(2);
        // Force global pressure on every store (a scalar artifact is
        // bigger than this), while per-tenant quotas stay roomy — this is
        // exactly the regime quota eviction alone cannot handle.
        svc.catalog().set_global_budget(Some(64));
        svc.register_tenant("alice", TenantSpec::default()).unwrap();
        svc.register_tenant("bob", TenantSpec::default()).unwrap();
        let alice = svc.open_session("alice", SessionConfig::in_memory()).unwrap();
        let bob = svc.open_session("bob", SessionConfig::in_memory()).unwrap();
        for version in 1..=3u64 {
            let expect = 10.0 * version as f64 + 1.0;
            let a = alice.run_iteration(chain(version)).unwrap();
            assert_eq!(a.output_scalar("c").unwrap().as_f64(), Some(expect));
            let b = bob.run_iteration(chain(version)).unwrap();
            assert_eq!(b.output_scalar("c").unwrap().as_f64(), Some(expect));
        }
        let stats = svc.stats();
        assert!(
            stats.evictions.iter().any(|e| e.kind == EvictionKind::GlobalPressure),
            "global-pressure evictions must be logged: {:?}",
            stats.evictions
        );
        assert!(
            stats.tenants.values().any(|t| t.global_evictions > 0),
            "evictions must be attributed to owners"
        );
        assert!(stats.evictions.len() <= 64, "attribution log is bounded");
    }

    #[test]
    fn service_stats_surface_catalog_crash_recovery() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "helix-serve-recovery-{}-{}",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&dir).unwrap();
        // A prior service run leaves a catalog behind...
        {
            let svc = HelixService::new(ServiceConfig::new(1).with_catalog_dir(&dir)).unwrap();
            svc.register_tenant("t", TenantSpec::default()).unwrap();
            let session = svc.open_session("t", SessionConfig::in_memory()).unwrap();
            session.run_iteration(chain(1)).unwrap();
        }
        // ...whose journal is torn mid-append by a crash.
        let journal = dir.join("catalog.journal");
        let mut bytes = std::fs::read(&journal).unwrap();
        bytes.extend_from_slice(b"HXF3\x03torn-mid-append");
        std::fs::write(&journal, &bytes).unwrap();

        let svc = HelixService::new(ServiceConfig::new(1).with_catalog_dir(&dir)).unwrap();
        let recovery = svc.stats().catalog_recovery.clone();
        assert!(recovery.recovered, "the torn tail must be reported as repaired");
        assert!(recovery.journal_tail_bytes > 0);
        assert!(recovery.journal_stop.is_some());
        assert_eq!(recovery.sweep_failures.len(), 0);
        // The committed prefix survived: artifacts are still servable.
        svc.register_tenant("t", TenantSpec::default()).unwrap();
        let session = svc.open_session("t", SessionConfig::in_memory()).unwrap();
        let report = session.run_iteration(chain(1)).unwrap();
        assert_eq!(report.output_scalar("c").unwrap().as_f64(), Some(11.0));
    }

    #[test]
    fn shutdown_rejects_new_submissions_but_drains_queued_work() {
        let svc = service(1);
        svc.register_tenant("t", TenantSpec::default()).unwrap();
        let session = svc.open_session("t", SessionConfig::in_memory()).unwrap();
        // A backlog, not one job: with no scheduler thread, drop-time
        // draining relies on each retiring worker dispatching the next.
        let tickets = session.submit_all((0..64).map(|_| chain(1))).unwrap();
        drop(svc);
        for ticket in tickets {
            let report = ticket.wait_outcome().result.expect("queued job still ran");
            assert_eq!(report.output_scalar("c").unwrap().as_f64(), Some(11.0));
        }
        assert!(session.submit(chain(1)).is_err(), "service is gone");
    }

    /// One source whose value (and signature) is `version`: nothing to
    /// reuse, nothing to spin on.
    fn tiny(version: u64) -> Workflow {
        let mut wf = Workflow::new("tiny");
        let x = wf.source("x", version, move |_| Ok(Value::Scalar(Scalar::I64(version as i64))));
        wf.output(x);
        wf
    }

    #[test]
    fn a_burst_resolves_in_session_order_with_late_cancels() {
        const SESSIONS: usize = 64;
        const JOBS: usize = 4096;
        let svc = HelixService::new(ServiceConfig::new(2).with_queue_capacity(JOBS))
            .expect("service starts");
        for t in 0..4 {
            svc.register_tenant(&format!("t{t}"), TenantSpec::default().with_max_concurrent(2))
                .unwrap();
        }
        let sessions: Vec<ServiceSession> = (0..SESSIONS)
            .map(|s| svc.open_session(&format!("t{}", s % 4), SessionConfig::in_memory()).unwrap())
            .collect();
        // Job `i` is session `i % 64`'s `i / 64`-th, and says so.
        let tickets: Vec<JobTicket> = (0..JOBS)
            .map(|i| sessions[i % SESSIONS].submit(tiny((i / SESSIONS) as u64)).unwrap())
            .collect();
        // Mid-burst: the last four jobs of every session. A `true` means
        // the job was still queued and is now resolved as cancelled; a
        // `false` means it had dispatched and finishes normally.
        const LATE: usize = JOBS - 256;
        let cancelled: Vec<bool> = tickets[LATE..].iter().map(JobTicket::cancel).collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let outcome =
                ticket.wait_timeout(std::time::Duration::from_secs(120)).expect("resolves");
            if i >= LATE && cancelled[i - LATE] {
                assert!(outcome.cancelled && outcome.result.is_err(), "job {i} was dequeued");
                continue;
            }
            let report = outcome.result.expect("iteration succeeds");
            let nth = (i / SESSIONS) as u64;
            assert_eq!(report.iteration, nth, "job {i} retired out of submission order");
            assert_eq!(report.output_scalar("x").unwrap().as_f64(), Some(nth as f64));
        }
        svc.drain();
        let stats = svc.stats();
        let ran = (JOBS - cancelled.iter().filter(|c| **c).count()) as u64;
        assert_eq!(stats.fairness.picks, ran, "one pick per dispatched job");
        assert_eq!(stats.tenants.values().map(|t| t.iterations).sum::<u64>(), ran);
        assert_eq!((stats.queue.queued, stats.queue.running), (0, 0));
    }

    #[test]
    fn a_full_queue_blocks_the_submitter_until_a_pick_frees_a_slot() {
        use std::sync::atomic::{AtomicBool, Ordering};
        static GATE: AtomicBool = AtomicBool::new(false);
        let config = ServiceConfig::new(1).with_queue_capacity(1).with_max_concurrent_iterations(1);
        let svc = HelixService::new(config).expect("service starts");
        svc.register_tenant("t", TenantSpec::default().with_max_concurrent(2)).unwrap();
        let a = svc.open_session("t", SessionConfig::in_memory()).unwrap();
        let b = svc.open_session("t", SessionConfig::in_memory()).unwrap();
        let running = a.submit(gated(&GATE)).unwrap(); // takes the one dispatch slot
        let queued = b.submit(tiny(1)).unwrap(); // fills the one queue slot
        assert_eq!(svc.inner.sched().queue.snapshot().queued, 1);
        std::thread::scope(|scope| {
            let blocked = scope.spawn(|| b.submit(tiny(2)));
            // The third submit must wait, not grow the queue or fail.
            while svc.inner.sched().space_waiters == 0 {
                std::thread::yield_now();
            }
            assert_eq!(svc.inner.sched().queue.snapshot().queued, 1, "the bounded queue held");
            assert!(!blocked.is_finished());
            // The gated job retires, its worker picks `queued`, and that
            // pick — not the eventual finish — wakes the submitter.
            GATE.store(true, Ordering::Release);
            let third = blocked.join().expect("submitter thread").expect("slot freed");
            for (ticket, value) in [(queued, 1.0), (third, 2.0)] {
                let report = ticket.wait_outcome().result.expect("iteration succeeds");
                assert_eq!(report.output_scalar("x").unwrap().as_f64(), Some(value));
            }
        });
        running.wait_outcome().result.expect("the gated job finishes normally");
        svc.drain();
        assert_eq!(svc.inner.sched().space_waiters, 0);
    }

    /// A workflow whose source blocks until `flag` is raised — pins a
    /// worker in the execute phase so queued-behind jobs stay queued.
    fn gated(flag: &'static std::sync::atomic::AtomicBool) -> Workflow {
        use std::sync::atomic::Ordering;
        let mut wf = Workflow::new("gated");
        let x = wf.source("x", 1, move |_| {
            while !flag.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Ok(Value::Scalar(Scalar::I64(1)))
        });
        wf.output(x);
        wf
    }

    #[test]
    fn cancel_dequeues_only_undispatched_jobs() {
        use std::sync::atomic::{AtomicBool, Ordering};
        static GATE: AtomicBool = AtomicBool::new(false);
        // One core, one dispatch slot: the gated job occupies the slot,
        // so the second tenant's job cannot leave the queue.
        let svc = HelixService::new(ServiceConfig::new(1).with_max_concurrent_iterations(1))
            .expect("service starts");
        svc.register_tenant("a", TenantSpec::default()).unwrap();
        svc.register_tenant("b", TenantSpec::default()).unwrap();
        let a = svc.open_session("a", SessionConfig::in_memory()).unwrap();
        let b = svc.open_session("b", SessionConfig::in_memory()).unwrap();
        let running = a.submit(gated(&GATE)).unwrap();
        // Wait until the gated job actually occupies the dispatch slot —
        // only then is "still queued" deterministic for the second job.
        while svc.stats().queue.running == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let queued = b.submit(chain(1)).unwrap();
        assert!(queued.cancel(), "a job still in the admission queue cancels");
        let outcome = queued.try_outcome().expect("cancelled ticket fulfills immediately");
        assert!(outcome.cancelled);
        assert!(outcome.result.is_err(), "a cancelled job reports an error result");
        assert_eq!(outcome.run_nanos, 0, "it never ran");
        assert!(!queued.cancel(), "second cancel finds nothing to remove");
        GATE.store(true, Ordering::Release);
        assert!(!running.cancel(), "a dispatched job is past cancellation");
        running.wait_outcome().result.expect("the gated job finishes normally");
        let stats = svc.stats();
        assert_eq!(stats.tenants["a"].iterations, 1);
        assert_eq!(stats.tenants["b"].iterations, 0, "cancelled work never counts");
    }

    #[test]
    fn try_outcome_and_wait_timeout_never_block_past_their_deadline() {
        use std::sync::atomic::{AtomicBool, Ordering};
        static GATE: AtomicBool = AtomicBool::new(false);
        let svc = service(1);
        svc.register_tenant("t", TenantSpec::default()).unwrap();
        let session = svc.open_session("t", SessionConfig::in_memory()).unwrap();
        let ticket = session.submit(gated(&GATE)).unwrap();
        assert!(ticket.try_outcome().is_none(), "nothing to take while blocked");
        assert!(
            ticket.wait_timeout(std::time::Duration::from_millis(20)).is_none(),
            "deadline passes while the job is gated"
        );
        assert!(!ticket.is_done());
        GATE.store(true, Ordering::Release);
        let outcome = ticket
            .wait_timeout(std::time::Duration::from_secs(60))
            .expect("ungated job completes well inside the deadline");
        assert!(outcome.result.is_ok());
        assert!(!outcome.cancelled);
        assert!(ticket.try_outcome().is_none(), "an outcome is taken exactly once");
    }

    #[test]
    fn submit_all_preserves_per_session_order() {
        let svc = service(2);
        svc.register_tenant("t", TenantSpec::default()).unwrap();
        let session = svc.open_session("t", SessionConfig::in_memory()).unwrap();
        let tickets = session.submit_all([chain(1), chain(2), chain(3)]).unwrap();
        assert_eq!(tickets.len(), 3);
        let values: Vec<f64> = tickets
            .into_iter()
            .map(|t| t.wait_outcome().result.unwrap().output_scalar("c").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(values, vec![11.0, 21.0, 31.0]);
        assert_eq!(svc.stats().tenants["t"].iterations, 3);
    }
}
