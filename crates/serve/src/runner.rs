//! The pooled session runner: many parked jobs, few threads.
//!
//! The admission pick (DRF/priority, run inline by
//! [`dispatch`](crate::service::dispatch)) decides *which* job
//! dispatches next; this module decides *where it runs*. Admission
//! dispatches at most one job per session, so a dispatched job never
//! waits for its session. It becomes a [`RunnerJob`] and a fixed pool of
//! `min(cores, max_concurrent_iterations)` worker threads drives it:
//!
//! ```text
//!   pick ─▶ ready ─▶ acquire core ─▶ run: prepare_iteration,
//!             ▲          │ exhausted?     then execute_prepared
//!             │          ▼
//!             │     core_waiters (FIFO)
//!             │          │
//!             └──────────┘ budget release (notifier)
//! ```
//!
//! A job that cannot get a core token **parks** — it goes into
//! `core_waiters` and its worker moves on to other ready work, so a job
//! between grants costs memory, not an OS thread.
//! [`CoreBudget`](helix_exec::CoreBudget)'s release notifier drains
//! `core_waiters` front-to-back as tokens free up, attaching an
//! [`OwnedCoreLease`] that travels with the job.
//!
//! Lock order is `runner state → budget state` everywhere: a worker
//! parks *while holding the runner lock*, and the notifier takes the
//! runner lock before re-probing the budget. The budget calls the
//! notifier with its own lock already dropped, so the nesting is
//! cycle-free. The notifier's fast path reads `core_waiters_len`
//! *without* the runner lock and returns when it is zero, so a release
//! that lands after a parking worker's failed `try_acquire` but before
//! it stores the new length finds no waiters. The parking worker closes
//! that window itself: after the store, still under the runner lock, it
//! re-probes the budget for the queue front ([`Runner::promote_locked`],
//! the notifier's own loop). Either the release's token was back in the
//! budget before that probe, which then takes it, or the release came
//! after it; then the store happened before the probe's budget lock,
//! which happened before the release's, so the notifier's load sees a
//! non-zero length and takes the slow path. The scheduler lock
//! sits *above* both (`dispatch` calls [`Runner::submit`] under it): no
//! path here takes it while holding the runner lock or a budget lock.
//!
//! Byte-identity is untouched by all of this: parking reorders *when*
//! iterations run, while the bytes they produce are pinned down one
//! layer below (provenance-keyed signatures). The determinism suite runs
//! the same workloads under this pool at several widths to prove it.
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
use helix_exec::OwnedCoreLease;
use helix_obs::metrics::Gauge;
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Minimum spacing between global-pressure housekeeping checks.
const RECLAIM_INTERVAL: Duration = Duration::from_millis(50);

/// One dispatched iteration riding the worker pool: the admission
/// [`Job`] plus the core token it holds once granted.
struct RunnerJob {
    job: Job,
    /// The iteration's base core token (owned: it parks with the job).
    lease: Option<OwnedCoreLease>,
    /// When the job last parked (for the `session.park` span).
    parked_at: Option<Instant>,
}

struct RunnerState {
    /// Jobs a worker can advance right now.
    ready: VecDeque<RunnerJob>,
    /// Jobs waiting for a core token, FIFO.
    core_waiters: VecDeque<RunnerJob>,
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
    /// `serve.sessions_parked`: core waiters right now.
    parked_gauge: Gauge,
    pool_size: usize,
    /// Runs once, in a parking worker, between its failed `try_acquire`
    /// and the `core_waiters_len` store: the window the re-probe closes.
    #[cfg(test)]
    pub(crate) park_pause: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl Runner {
    /// A runner whose pool will hold `pool_size` worker threads.
    pub(crate) fn new(pool_size: usize) -> Runner {
        Runner {
            state: Mutex::new(RunnerState {
                ready: VecDeque::new(),
                core_waiters: VecDeque::new(),
                last_reclaim: None,
                shutdown: false,
            }),
            ready_cv: Condvar::new(),
            core_waiters_len: AtomicUsize::new(0),
            parked_gauge: helix_obs::metrics::global().gauge("serve.sessions_parked"),
            pool_size: pool_size.max(1),
            #[cfg(test)]
            park_pause: Mutex::new(None),
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
        state.ready.push_back(RunnerJob { job, lease: None, parked_at: None });
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
        let promoted = self.promote_locked(&mut state, inner);
        drop(state);
        self.notify_ready(promoted);
    }

    /// Move core waiters front-to-back to `ready` while the budget grants
    /// them a token, publishing the new length if any moved; returns how
    /// many moved. The caller holds the runner lock and wakes that many
    /// workers after dropping it.
    fn promote_locked(&self, state: &mut RunnerState, inner: &ServiceInner) -> usize {
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
            self.record_parked(state);
        }
        promoted
    }

    fn notify_ready(&self, promoted: usize) {
        for _ in 0..promoted {
            self.ready_cv.notify_one();
        }
    }

    fn record_parked(&self, state: &RunnerState) {
        self.parked_gauge.set(state.core_waiters.len() as i64);
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

/// Advance one job as far as it will go: acquire a core and run, or
/// park (returning the worker to the pool) when no token is free.
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
    // The iteration's base core token. The park check runs under the
    // runner lock (lock order: runner → budget). A release that races
    // the failed try may skip the notifier's slow path (the length is
    // still zero), so once parked the job re-probes the budget itself:
    // a concurrent release either grants here, or grants on the
    // re-probe, or its notifier finds the job parked.
    if rj.lease.is_none() {
        let mut state = inner.runner.lock();
        match inner.budget.try_acquire_one_labeled_owned(&rj.job.tenant) {
            Some(lease) => rj.lease = Some(lease),
            None => {
                #[cfg(test)]
                if let Some(pause) = inner.runner.park_pause.lock().expect("pause").take() {
                    pause();
                }
                rj.parked_at = Some(Instant::now());
                state.core_waiters.push_back(rj);
                inner.runner.core_waiters_len.store(state.core_waiters.len(), Ordering::Release);
                inner.runner.record_parked(&state);
                let promoted = inner.runner.promote_locked(&mut state, inner);
                drop(state);
                inner.runner.notify_ready(promoted);
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

/// Run one core-leased iteration to completion on the calling worker,
/// then retire it, which dispatches its session's next job.
fn run_iteration(inner: &Arc<ServiceInner>, rj: RunnerJob) {
    let RunnerJob { job, lease, .. } = rj;
    let resume_span = helix_obs::span(helix_obs::layer::SERVE, "runner.resume")
        .track(&*job.track)
        .tenant(job.tenant.as_str())
        .session(job.session_id);
    // Uncontended: admission dispatches one job per session at a time.
    let mut session = lock_session(&job.session);
    let exec_span = helix_obs::span(helix_obs::layer::SERVE, "execute")
        .track(&*job.track)
        .tenant(job.tenant.as_str())
        .session(job.session_id);
    // Queue time covers admission *and* every park: submission to the
    // moment the iteration actually starts.
    let queue_wait = job.enqueued.elapsed().as_nanos() as Nanos;
    let started = Instant::now();
    // The owned lease in `lease` is this iteration's base token.
    let result = catch_unwind(AssertUnwindSafe(|| session.run(&job.wf)))
        .unwrap_or_else(|panic| Err(panic_error(panic)));
    let run_nanos = started.elapsed().as_nanos() as Nanos;
    drop(exec_span);
    drop(resume_span);
    drop(session);
    // Token released here; the budget's notifier promotes core waiters.
    drop(lease);
    let drained = {
        let mut sched = inner.sched();
        sched.queue.finish(&job.tenant, job.session_id);
        if let Some(tenant) = sched.tenants.get_mut(&job.tenant) {
            tenant.iterations += 1;
            tenant.queue_wait_nanos += queue_wait;
            tenant.run_nanos += run_nanos;
        }
        // The retired job freed cap head-room and its session.
        dispatch(inner, &mut sched);
        sched.queue.is_drained()
    };
    if drained {
        inner.idle.notify_all();
    }
    job.ticket.fulfill(JobOutcome {
        result,
        queue_wait_nanos: queue_wait,
        run_nanos,
        cancelled: false,
    });
}
