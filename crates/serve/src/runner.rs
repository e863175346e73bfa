//! The pooled session runner: many parked state machines, few threads.
//!
//! The admission pick (DRF/priority, run inline by
//! [`dispatch`](crate::service::dispatch)) decides *which* job
//! dispatches next; this module decides *where it runs*. A dispatched
//! job becomes a [`RunnerJob`] — a parked
//! [`SessionDriver`](helix_core::SessionDriver) plus everything it holds
//! so far — and a fixed pool of `min(cores, max_concurrent_iterations)`
//! worker threads drives the jobs through their phases:
//!
//! ```text
//!   pick ─▶ ready ─▶ speculate ─▶ claim session ─▶ acquire core ─▶ run
//!                      (once)       │ busy?            │ exhausted?
//!                                   ▼                  ▼
//!                            session_waiters      core_waiters
//!                             (≤1 / session)         (FIFO)
//!                                   │                  │
//!                      owner finishes┘    budget release┘ (notifier)
//!                                   └──────▶ ready ◀──────┘
//! ```
//!
//! A job that cannot make progress **parks** — it goes into a waiter
//! collection and its worker moves on to other ready work, so a session
//! between grants costs memory, not an OS thread. Two wake sources
//! promote parked jobs back to the ready queue:
//!
//! * **session ownership** — the finishing incumbent promotes its
//!   session's one waiting successor (admission admits at most one);
//! * **core grants** — [`CoreBudget`](helix_exec::CoreBudget)'s release
//!   notifier drains `core_waiters` front-to-back as tokens free up,
//!   attaching an [`OwnedCoreLease`] that travels with the job.
//!
//! Lock order is `runner state → budget state` everywhere: a worker
//! parks *while holding the runner lock* and the notifier takes the
//! runner lock before re-probing the budget, so a release can never slip
//! between "try_acquire failed" and "parked" unobserved. The budget
//! calls the notifier with its own lock already dropped, so the nesting
//! is cycle-free. The scheduler lock sits *above* both (`dispatch` calls
//! [`Runner::submit`] under it): no path here takes it while holding the
//! runner lock or a budget lock.
//!
//! Byte-identity is untouched by all of this: parking reorders *when*
//! iterations run (exactly like the old blocking waits did), while the
//! bytes they produce are pinned down one layer below (provenance-keyed
//! signatures + read-set-validated speculation). The determinism suite
//! runs the same workloads under this pool at several widths to prove
//! it.
//!
//! Workers also run the service's **housekeeping tick** between jobs: a
//! rate-limited global-pressure check that calls `evict_global` when
//! co-ownership claims alone hold the catalog over its byte budget —
//! pressure drains without waiting for the next store to trip it.

use crate::admission::Job;
use crate::service::{dispatch, lock_session, ServiceInner};
use crate::ticket::JobOutcome;
use helix_common::timing::Nanos;
use helix_common::HelixError;
use helix_core::{speculate_budgeted, SessionDriver, SpeculativePlan, Step};
use helix_exec::OwnedCoreLease;
use helix_obs::metrics::Gauge;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Minimum spacing between global-pressure housekeeping checks.
const RECLAIM_INTERVAL: Duration = Duration::from_millis(50);

/// One dispatched iteration riding the worker pool: the admission
/// [`Job`] plus everything the state machine has accumulated. The
/// `owns_session`/`lease` fields survive parking, so a resumed job picks
/// up exactly where it yielded.
struct RunnerJob {
    job: Job,
    /// Speculative plan from the predecessor's published snapshot.
    hint: Option<SpeculativePlan>,
    /// Speculation runs once, before the first park.
    speculated: bool,
    /// This job holds its session's exclusive run slot.
    owns_session: bool,
    /// The iteration's base core token (owned: it parks with the job).
    lease: Option<OwnedCoreLease>,
    /// When the job last parked (for the `session.park` span).
    parked_at: Option<Instant>,
}

struct RunnerState {
    /// Jobs a worker can advance right now.
    ready: VecDeque<RunnerJob>,
    /// Jobs holding their session but waiting for a core token, FIFO.
    core_waiters: VecDeque<RunnerJob>,
    /// Jobs waiting for their session's incumbent to finish. Admission
    /// dispatches at most one successor per session, so one slot each.
    session_waiters: HashMap<u64, RunnerJob>,
    /// Sessions whose run slot a dispatched job currently owns.
    busy_sessions: HashSet<u64>,
    /// Last housekeeping tick (rate limit).
    last_reclaim: Option<Instant>,
    shutdown: bool,
}

/// Shared state of the worker pool (lives inside `ServiceInner`).
pub(crate) struct Runner {
    state: Mutex<RunnerState>,
    /// Worker wake-ups: ready work or shutdown.
    ready_cv: Condvar,
    /// Fast path for the budget-release notifier: skip the runner lock
    /// entirely when nobody is waiting on a core.
    core_waiters_len: AtomicUsize,
    /// `serve.sessions_parked`: core + session waiters right now.
    parked_gauge: Gauge,
    pool_size: usize,
}

impl Runner {
    /// A runner whose pool will hold `pool_size` worker threads.
    pub(crate) fn new(pool_size: usize) -> Runner {
        Runner {
            state: Mutex::new(RunnerState {
                ready: VecDeque::new(),
                core_waiters: VecDeque::new(),
                session_waiters: HashMap::new(),
                busy_sessions: HashSet::new(),
                last_reclaim: None,
                shutdown: false,
            }),
            ready_cv: Condvar::new(),
            core_waiters_len: AtomicUsize::new(0),
            parked_gauge: helix_obs::metrics::global().gauge("serve.sessions_parked"),
            pool_size: pool_size.max(1),
        }
    }

    /// Worker threads the pool runs on.
    pub(crate) fn pool_size(&self) -> usize {
        self.pool_size
    }

    fn lock(&self) -> MutexGuard<'_, RunnerState> {
        self.state.lock().expect("runner state poisoned")
    }

    /// Hand a freshly picked job to the pool.
    pub(crate) fn submit(&self, job: Job) {
        let mut state = self.lock();
        state.ready.push_back(RunnerJob {
            job,
            hint: None,
            speculated: false,
            owns_session: false,
            lease: None,
            parked_at: None,
        });
        drop(state);
        self.ready_cv.notify_one();
    }

    /// Stop the pool: workers exit once the ready queue is empty.
    pub(crate) fn shutdown(&self) {
        self.lock().shutdown = true;
        self.ready_cv.notify_all();
    }

    /// The budget's release notifier: promote core waiters front-to-back
    /// while tokens grant. Runs after *every* release (including the
    /// engine's transient internal leases), hence the lock-free empty
    /// check up front.
    pub(crate) fn promote_core_waiters(&self, inner: &ServiceInner) {
        if self.core_waiters_len.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut state = self.lock();
        let mut promoted = 0usize;
        while let Some(front) = state.core_waiters.front() {
            match inner.budget.try_acquire_one_labeled_owned(&front.job.tenant) {
                Some(lease) => {
                    let mut job = state.core_waiters.pop_front().expect("front exists");
                    job.lease = Some(lease);
                    state.ready.push_back(job);
                    promoted += 1;
                }
                None => break,
            }
        }
        if promoted > 0 {
            self.core_waiters_len.store(state.core_waiters.len(), Ordering::Release);
            self.record_parked(&state);
            drop(state);
            for _ in 0..promoted {
                self.ready_cv.notify_one();
            }
        }
    }

    fn record_parked(&self, state: &RunnerState) {
        let parked = state.core_waiters.len() + state.session_waiters.len();
        self.parked_gauge.set(parked as i64);
    }
}

/// One pool worker: drain ready jobs, housekeep when idle, exit on
/// shutdown.
pub(crate) fn worker_loop(inner: Arc<ServiceInner>) {
    loop {
        let next = {
            let mut state = inner.runner.lock();
            loop {
                if let Some(job) = state.ready.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                if housekeeping_due(&mut state) {
                    // Tick outside the runner lock: eviction takes the
                    // catalog lock and can do real I/O.
                    drop(state);
                    housekeeping(&inner);
                    state = inner.runner.lock();
                    continue;
                }
                state = inner.runner.ready_cv.wait(state).expect("runner state poisoned");
            }
        };
        let Some(job) = next else { return };
        advance(&inner, job);
    }
}

fn housekeeping_due(state: &mut RunnerState) -> bool {
    match state.last_reclaim {
        Some(last) if last.elapsed() < RECLAIM_INTERVAL => false,
        _ => {
            state.last_reclaim = Some(Instant::now());
            true
        }
    }
}

/// The background reclaimer: when co-ownership claims alone hold the
/// catalog over its global byte budget (a store would notice, but
/// between stores nothing used to), drain the excess with the same
/// deterministic retention-scored eviction stores use. Pinned in-flight
/// loads and plan-protected artifacts are never victims, so running this
/// concurrently with iterations cannot change their bytes.
fn housekeeping(inner: &ServiceInner) {
    let Some(budget) = inner.catalog.global_budget() else { return };
    let used = inner.catalog.total_bytes();
    if used > budget {
        let _ = inner.catalog.evict_global("reclaimer", used - budget, &HashSet::new());
    }
}

/// Advance one job as far as it will go: speculate once, claim the
/// session, acquire a core, run — parking (and returning the worker to
/// the pool) at the first unmet need.
fn advance(inner: &Arc<ServiceInner>, mut rj: RunnerJob) {
    // A resumed job: trace how long it was parked.
    if let Some(parked_at) = rj.parked_at.take().filter(|_| helix_obs::tracing_enabled()) {
        let waited = helix_common::timing::duration_to_nanos(parked_at.elapsed());
        let begin = helix_obs::now_nanos().saturating_sub(waited);
        let _ = helix_obs::span_at(helix_obs::layer::SERVE, "session.park", begin, waited)
            .track(&*rj.job.track)
            .tenant(rj.job.tenant.as_str())
            .session(rj.job.session_id);
    }
    // Plan lane, once per job and before any park: if the predecessor
    // published a speculation snapshot, plan against it now — iteration
    // `t+1`'s planning overlapping `t`'s tail execution. Budget-gated
    // and panic-tolerant (a panicking speculation degrades to no-hint;
    // the serial re-plan inside the run guard reports real bugs).
    if !rj.speculated {
        rj.speculated = true;
        let snapshot = rj.job.spec_slot.lock().expect("spec slot poisoned").take();
        if let Some(inputs) = snapshot {
            rj.hint = speculate_budgeted(&inputs, &rj.job.wf, Some(&inner.budget), true);
        }
    }
    // Claim the session's run slot. Ownership comes before the core
    // token (as the old blocking order did): a job waiting on its
    // session must not sit on a token the incumbent's engine could use.
    if !rj.owns_session {
        let mut state = inner.runner.lock();
        if state.busy_sessions.insert(rj.job.session_id) {
            rj.owns_session = true;
        } else {
            rj.parked_at = Some(Instant::now());
            let prev = state.session_waiters.insert(rj.job.session_id, rj);
            debug_assert!(prev.is_none(), "admission dispatches at most one successor");
            inner.runner.record_parked(&state);
            return;
        }
    }
    // The iteration's base core token. The park check runs under the
    // runner lock (lock order: runner → budget), so a concurrent
    // release either grants here or its notifier finds the job parked.
    if rj.lease.is_none() {
        let mut state = inner.runner.lock();
        match inner.budget.try_acquire_one_labeled_owned(&rj.job.tenant) {
            Some(lease) => rj.lease = Some(lease),
            None => {
                rj.parked_at = Some(Instant::now());
                state.core_waiters.push_back(rj);
                inner.runner.core_waiters_len.store(state.core_waiters.len(), Ordering::Release);
                inner.runner.record_parked(&state);
                return;
            }
        }
    }
    run_iteration(inner, rj);
}

/// Convert an operator panic into a reportable error.
fn panic_error(panic: Box<dyn std::any::Any + Send>) -> HelixError {
    let detail = panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "operator panicked".to_string());
    HelixError::exec("service-runner", detail)
}

/// Run one fully provisioned iteration (session owned, core leased) to
/// completion on the calling worker, then retire it and promote the
/// session's waiting successor.
fn run_iteration(inner: &Arc<ServiceInner>, rj: RunnerJob) {
    let RunnerJob { job, hint, lease, .. } = rj;
    let resume_span = helix_obs::span(helix_obs::layer::SERVE, "runner.resume")
        .track(&*job.track)
        .tenant(job.tenant.as_str())
        .session(job.session_id);
    // Uncontended by construction: this job owns the session's run slot.
    let mut session = lock_session(&job.session);
    let exec_span = helix_obs::span(helix_obs::layer::SERVE, "execute")
        .track(&*job.track)
        .tenant(job.tenant.as_str())
        .session(job.session_id);
    // Queue time covers admission *and* every park: submission to the
    // moment the iteration actually starts.
    let queue_wait = job.enqueued.elapsed().as_nanos() as Nanos;
    let started = Instant::now();
    let mut driver = SessionDriver::new(&mut session, &job.wf).with_hint(hint).require_core();
    // The owned lease in `lease` is this driver's base token.
    driver.grant_core();
    let step = loop {
        match catch_unwind(AssertUnwindSafe(|| driver.step())) {
            // Advisory (write backlog): nothing to do mid-run — the
            // session's own writer barrier handles ordering.
            Ok(Step::NeedsIo) => continue,
            Ok(step) => break Ok(step),
            Err(panic) => break Err(panic_error(panic)),
        }
    };
    let mut entered_execute = false;
    let result = match step {
        Ok(Step::Ready(prepared)) => {
            // Entering the execute phase: publish the snapshot a queued
            // successor will speculate from (only if one exists — the
            // snapshot clones the session's statistics maps, so it is
            // taken with the scheduler lock dropped), then release the
            // session's ordering hold and dispatch what that makes
            // eligible. Publish-before-mark: a successor can only be
            // picked after mark_executing, so it never finds the slot
            // empty. Without a queued successor this is one lock hold.
            let mut sched = inner.sched();
            if sched.queue.has_queued_job(job.session_id) {
                drop(sched);
                *job.spec_slot.lock().expect("spec slot poisoned") =
                    Some(driver.session().speculation_snapshot());
                sched = inner.sched();
            }
            sched.queue.mark_executing(job.session_id);
            dispatch(inner, &mut sched);
            drop(sched);
            entered_execute = true;
            match catch_unwind(AssertUnwindSafe(|| driver.execute(prepared))) {
                Ok(Step::Done(report)) => Ok(*report),
                Ok(Step::Failed(err)) => Err(err),
                Ok(_) => unreachable!("execute is terminal"),
                Err(panic) => Err(panic_error(panic)),
            }
        }
        Ok(Step::Failed(err)) => Err(err),
        Ok(_) => unreachable!("a core-granted step yields Ready or Failed"),
        Err(err) => Err(err),
    };
    let run_nanos = started.elapsed().as_nanos() as Nanos;
    drop(exec_span);
    drop(resume_span);
    drop(driver);
    drop(session);
    // Token released here; the budget's notifier promotes core waiters.
    drop(lease);
    let drained = {
        let mut sched = inner.sched();
        sched.queue.finish(&job.tenant, job.session_id, entered_execute);
        if let Some(tenant) = sched.tenants.get_mut(&job.tenant) {
            tenant.iterations += 1;
            tenant.queue_wait_nanos += queue_wait;
            tenant.run_nanos += run_nanos;
        }
        // The retired job freed cap head-room and maybe its session.
        dispatch(inner, &mut sched);
        sched.queue.is_drained()
    };
    if drained {
        inner.idle.notify_all();
    }
    // Release the session's run slot and promote its waiting successor.
    {
        let mut state = inner.runner.lock();
        state.busy_sessions.remove(&job.session_id);
        if let Some(waiter) = state.session_waiters.remove(&job.session_id) {
            state.ready.push_back(waiter);
            inner.runner.record_parked(&state);
            drop(state);
            inner.runner.ready_cv.notify_one();
        }
    }
    job.ticket.fulfill(JobOutcome {
        result,
        queue_wait_nanos: queue_wait,
        run_nanos,
        cancelled: false,
    });
}
