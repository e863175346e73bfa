//! Completion tickets for submitted iterations.
//!
//! [`HelixService`](crate::HelixService) runs iterations asynchronously;
//! `submit` hands back a [`JobTicket`] the caller can poll, await with a
//! timeout, cancel, or block on. The ticket carries the
//! [`IterationReport`] plus the service-side timing split (queue wait vs
//! run time) that the multi-tenant bench reports.
//!
//! ## Migrating from the blocking API
//!
//! Through PR 9 the only consumption patterns were `wait()` /
//! `wait_outcome()` (block until done) and `is_done()` (peek). Those
//! still work unchanged — `wait` is now a thin shim over the
//! non-blocking surface — but open-loop clients that submit many
//! iterations before collecting any should prefer:
//!
//! * [`JobTicket::try_outcome`] — take the outcome if it has arrived,
//!   never block (poll loops, latency samplers);
//! * [`JobTicket::wait_timeout`] — block up to a deadline, then give the
//!   caller back control (SLO-bounded waits);
//! * [`JobTicket::cancel`] — dequeue a job that has not dispatched yet;
//!   its outcome arrives immediately with
//!   [`JobOutcome::cancelled`]` == true` and an error result. A job
//!   already executing finishes its iteration normally (iterations are
//!   not interrupted mid-flight — the session's state must stay
//!   consistent).
//!
//! `try_outcome` and `wait_timeout` *take* the outcome on success, like
//! `wait_outcome`; a ticket yields its outcome exactly once.

use crate::service::ServiceInner;
use helix_common::timing::Nanos;
use helix_common::Result;
use helix_core::IterationReport;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

/// What the service measured and produced for one submitted iteration.
pub struct JobOutcome {
    /// The iteration's result (error if the workflow failed or the job
    /// was cancelled before dispatch).
    pub result: Result<IterationReport>,
    /// Time from submission to the iteration actually starting
    /// (admission + every park while waiting for the session and a core
    /// token). For a cancelled job: submission to cancellation.
    pub queue_wait_nanos: Nanos,
    /// Time inside the session's prepare + execute phases.
    pub run_nanos: Nanos,
    /// Whether [`JobTicket::cancel`] removed the job before dispatch
    /// (`result` is then an error and `run_nanos` is zero).
    pub cancelled: bool,
}

pub(crate) struct TicketState {
    slot: Mutex<Option<JobOutcome>>,
    done: Condvar,
}

impl TicketState {
    pub(crate) fn new() -> Arc<TicketState> {
        Arc::new(TicketState { slot: Mutex::new(None), done: Condvar::new() })
    }

    pub(crate) fn fulfill(&self, outcome: JobOutcome) {
        let mut slot = self.slot.lock().expect("ticket poisoned");
        *slot = Some(outcome);
        drop(slot);
        self.done.notify_all();
    }
}

/// A claim on one submitted iteration's outcome.
pub struct JobTicket {
    pub(crate) state: Arc<TicketState>,
    /// The submitting session: cancellation scans only its FIFO.
    pub(crate) session_id: u64,
    /// Weak service handle for [`cancel`](Self::cancel): a ticket must
    /// not keep a dropped service alive, and cancelling after shutdown
    /// is simply a no-op.
    pub(crate) service: Weak<ServiceInner>,
}

impl JobTicket {
    /// Whether the outcome has arrived (non-blocking, non-consuming).
    pub fn is_done(&self) -> bool {
        self.state.slot.lock().expect("ticket poisoned").is_some()
    }

    /// Take the outcome if the iteration has finished; `None` while it
    /// is still queued or running. Never blocks. A taken outcome is
    /// gone: subsequent calls (and `wait*`) see an unfulfilled ticket.
    pub fn try_outcome(&self) -> Option<JobOutcome> {
        self.state.slot.lock().expect("ticket poisoned").take()
    }

    /// Block up to `timeout` for the outcome; `None` on deadline. Like
    /// [`try_outcome`](Self::try_outcome), a returned outcome is taken.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.state.slot.lock().expect("ticket poisoned");
        loop {
            if let Some(outcome) = slot.take() {
                return Some(outcome);
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let (guard, _) =
                self.state.done.wait_timeout(slot, remaining).expect("ticket poisoned");
            slot = guard;
        }
    }

    /// Cancel the job if it is still waiting in the admission queue:
    /// the ticket is fulfilled immediately with
    /// [`JobOutcome::cancelled`]` == true` and an error result, and the
    /// queue slot frees up. Returns `false` when the job has already
    /// dispatched (it finishes its iteration and fulfills normally),
    /// already completed, or the service is gone.
    pub fn cancel(&self) -> bool {
        match self.service.upgrade() {
            Some(inner) => crate::service::cancel_queued(&inner, self),
            None => false,
        }
    }

    /// Block until the iteration finishes; returns the full outcome.
    pub fn wait_outcome(self) -> JobOutcome {
        let mut slot = self.state.slot.lock().expect("ticket poisoned");
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self.state.done.wait(slot).expect("ticket poisoned");
        }
    }

    /// Block until the iteration finishes; returns just the report.
    /// (The original blocking surface, kept as a shim over
    /// [`wait_outcome`](Self::wait_outcome) — see the module docs for
    /// the non-blocking alternatives.)
    pub fn wait(self) -> Result<IterationReport> {
        self.wait_outcome().result
    }
}
