//! The pooled session runner: a fixed pool of worker threads.
//!
//! The admission pick (DRF, run inline by
//! [`dispatch`](crate::service::dispatch)) decides *which* job
//! dispatches next; this module decides *where it runs*. Admission
//! dispatches at most one job per session, so a dispatched job never
//! waits for its session. It joins the `ready` queue, and a fixed pool
//! of `min(cores, max_concurrent_iterations)` worker threads drives it:
//!
//! ```text
//!   pick ─▶ ready ─▶ worker: core token ─▶ run: prepare_iteration,
//!                    (blocks on the budget      then execute_prepared
//!                     when none is free)
//! ```
//!
//! A worker that finds no free core token blocks in
//! [`CoreBudget::acquire_one_labeled`](helix_exec::CoreBudget::acquire_one_labeled)
//! on its own stack; there is no queue of parked jobs. One would buy
//! nothing: every ready job needs one base token to make progress, so a
//! worker that cannot get a token for the job it holds could not run any
//! other ready job either. Housekeeping needs no token, and idle workers
//! still run it. The thread ceiling comes from the fixed pool. Waiting
//! workers wake in the budget condvar's order, not FIFO: at most `pool`
//! jobs wait at once, and the admission pick order is unchanged.
//!
//! Lock order: the scheduler lock sits above the runner lock
//! ([`dispatch`](crate::service::dispatch) calls [`Runner::submit`] under
//! it), and the budget lock is a leaf — no path here holds the runner
//! lock across a budget call.
//!
//! Byte-identity is untouched by all of this: waiting reorders *when*
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
use helix_exec::{CoreBudget, CoreLease};
use helix_obs::metrics::Gauge;
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Minimum spacing between global-pressure housekeeping checks.
const RECLAIM_INTERVAL: Duration = Duration::from_millis(50);

struct RunnerState {
    /// Jobs a worker can advance right now.
    ready: VecDeque<Job>,
    /// Workers blocked on a core token right now.
    waiting: usize,
    /// Last housekeeping tick (rate limit).
    last_reclaim: Option<Instant>,
    shutdown: bool,
}

/// Shared state of the worker pool (lives inside `ServiceInner`).
pub(crate) struct Runner {
    state: Mutex<RunnerState>,
    /// Worker wake-ups: ready work or shutdown.
    ready_cv: Condvar,
    /// `serve.sessions_parked`: jobs waiting for a core token right now.
    parked_gauge: Gauge,
    pool_size: usize,
}

impl Runner {
    /// A runner whose pool will hold `pool_size` worker threads.
    pub(crate) fn new(pool_size: usize) -> Runner {
        Runner {
            state: Mutex::new(RunnerState {
                ready: VecDeque::new(),
                waiting: 0,
                last_reclaim: None,
                shutdown: false,
            }),
            ready_cv: Condvar::new(),
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
        self.lock().ready.push_back(job);
        self.ready_cv.notify_one();
    }

    /// Stop the pool: workers exit once the ready queue is empty.
    pub(crate) fn shutdown(&self) {
        self.lock().shutdown = true;
        self.ready_cv.notify_all();
    }

    /// Jobs of this service waiting for a core token right now.
    #[cfg(test)]
    pub(crate) fn waiting(&self) -> usize {
        self.lock().waiting
    }

    /// Block this worker until `job`'s tenant-labeled core token grants:
    /// counted in `serve.sessions_parked`, traced as `session.park`.
    fn wait_for_core<'b>(&self, budget: &'b CoreBudget, job: &Job) -> CoreLease<'b> {
        self.count_waiting(true);
        let park_span = helix_obs::span(helix_obs::layer::SERVE, "session.park")
            .track(&*job.track)
            .tenant(job.tenant.as_str())
            .session(job.session_id);
        let lease = budget.acquire_one_labeled(&job.tenant);
        drop(park_span);
        self.count_waiting(false);
        lease
    }

    fn count_waiting(&self, waiting: bool) {
        let mut state = self.lock();
        if waiting {
            state.waiting += 1;
        } else {
            state.waiting -= 1;
        }
        self.parked_gauge.set(state.waiting as i64);
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

/// Advance one job: take its core token, blocking this worker on the
/// budget only when none is free (so a job that does not wait emits no
/// `session.park` span), then run it.
fn advance(inner: &Arc<ServiceInner>, job: Job) {
    let lease = match inner.budget.try_acquire_one_labeled(&job.tenant) {
        Some(lease) => lease,
        None => inner.runner.wait_for_core(&inner.budget, &job),
    };
    run_iteration(inner, job, lease);
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
fn run_iteration(inner: &Arc<ServiceInner>, job: Job, lease: CoreLease<'_>) {
    // Uncontended: admission dispatches one job per session at a time.
    let mut session = lock_session(&job.session);
    let exec_span = helix_obs::span(helix_obs::layer::SERVE, "execute")
        .track(&*job.track)
        .tenant(job.tenant.as_str())
        .session(job.session_id);
    // Queue time covers admission *and* any wait for a core token:
    // submission to the moment the iteration actually starts.
    let queue_wait = job.enqueued.elapsed().as_nanos() as Nanos;
    let started = Instant::now();
    // `lease` is this iteration's base token.
    let result = catch_unwind(AssertUnwindSafe(|| session.run(&job.wf)))
        .unwrap_or_else(|panic| Err(panic_error(panic)));
    let run_nanos = started.elapsed().as_nanos() as Nanos;
    drop(exec_span);
    drop(session);
    // Token released here; a worker blocked on the budget wakes.
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
