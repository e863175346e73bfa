//! The process-wide core-token budget.
//!
//! The ROADMAP's `workers²` problem: under node-level parallelism every
//! data-parallel operator used to receive a full-width pool, so `w`
//! concurrently scheduled nodes could spawn `w × w` compute threads — and
//! two concurrent sessions doubled it again. [`CoreBudget`] fixes the
//! oversubscription at its root: one budget of `total` core tokens is
//! shared by *everything* that wants a thread — the service's concurrently
//! running iterations (one token each), the engine's frontier-dispatch
//! workers, and the chunk threads of data-parallel operators. A thread
//! does work only while a token backs it, so the number of working
//! threads in the process never exceeds the budget, no matter how many
//! tenants, sessions, or operators are in flight.
//!
//! Two acquisition modes keep this deadlock-free:
//!
//! * [`CoreBudget::acquire_one_labeled`] — *blocking*, used at most once
//!   per running iteration: a service pool worker that found no free
//!   token ([`CoreBudget::try_acquire_one_labeled`]) waits here, on its
//!   own stack, for its iteration's base token. Leases are RAII and
//!   always released, so a blocked acquirer always eventually gets its
//!   token; blocked acquirers wake in condvar order, not FIFO.
//! * [`CoreBudget::try_acquire`] — *non-blocking*, used for all extra
//!   parallelism (dispatch width, data-parallel chunks). A holder of the
//!   base token never blocks waiting for more; it degrades gracefully to
//!   inline execution when the budget is tight.
//!
//! Determinism contract: token grants influence only *how many threads*
//! execute a fixed, deterministically chunked job list — never the
//! chunking, combination order, or RNG seeding — so results are
//! byte-identical whether a caller is granted all, some, or none of the
//! tokens it asked for.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};

/// A shared budget of core tokens (semaphore with peak tracking).
///
/// Leases may carry a **label** (the tenant that holds them):
/// [`CoreBudget::acquire_one_labeled`] attributes the base token of a
/// running iteration to its tenant, and
/// [`peak_leased_for`](CoreBudget::peak_leased_for) exposes the per-label
/// high-water count. This is the per-tenant executing-core
/// accounting the fair-share scheduler and `ServiceStats` report against;
/// unlabeled leases (engine dispatch width, data-parallel chunks, I/O
/// lanes) still count against the shared total only.
pub struct CoreBudget {
    total: usize,
    state: Mutex<Counters>,
    released: Condvar,
}

impl std::fmt::Debug for CoreBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreBudget")
            .field("total", &self.total)
            .field("leased", &self.leased())
            .finish()
    }
}

#[derive(Debug, Default)]
struct LabelCount {
    leased: usize,
    peak: usize,
}

#[derive(Debug)]
struct Counters {
    leased: usize,
    peak: usize,
    by_label: HashMap<String, LabelCount>,
}

impl CoreBudget {
    /// A budget of `total` tokens (minimum 1).
    pub fn new(total: usize) -> CoreBudget {
        CoreBudget {
            total: total.max(1),
            state: Mutex::new(Counters { leased: 0, peak: 0, by_label: HashMap::new() }),
            released: Condvar::new(),
        }
    }

    /// Total tokens in the budget.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Tokens currently leased.
    pub fn leased(&self) -> usize {
        self.state.lock().expect("budget poisoned").leased
    }

    /// High-water mark of simultaneously leased tokens.
    pub fn peak_leased(&self) -> usize {
        self.state.lock().expect("budget poisoned").peak
    }

    /// High-water mark of tokens simultaneously leased under `label`.
    pub fn peak_leased_for(&self, label: &str) -> usize {
        self.state.lock().expect("budget poisoned").by_label.get(label).map_or(0, |c| c.peak)
    }

    /// Block until one token is free, then lease it.
    ///
    /// This is the *base* lease of a running iteration. To stay
    /// deadlock-free, callers must never hold one base lease while
    /// blocking for another — all further parallelism goes through the
    /// non-blocking [`try_acquire`](Self::try_acquire).
    pub fn acquire_one(&self) -> CoreLease<'_> {
        self.acquire_one_inner(None)
    }

    /// [`acquire_one`](Self::acquire_one), attributed to `label` in the
    /// per-label accounting (the service labels base tokens with the
    /// owning tenant).
    pub fn acquire_one_labeled(&self, label: &str) -> CoreLease<'_> {
        self.acquire_one_inner(Some(label.to_string()))
    }

    fn acquire_one_inner(&self, label: Option<String>) -> CoreLease<'_> {
        let mut state = self.state.lock().expect("budget poisoned");
        while state.leased >= self.total {
            state = self.released.wait(state).expect("budget poisoned");
        }
        self.grant_one(&mut state, label)
    }

    /// Non-blocking counterpart of
    /// [`acquire_one_labeled`](Self::acquire_one_labeled); `None` when the
    /// budget is exhausted.
    pub fn try_acquire_one_labeled(&self, label: &str) -> Option<CoreLease<'_>> {
        let mut state = self.state.lock().expect("budget poisoned");
        (state.leased < self.total).then(|| self.grant_one(&mut state, Some(label.to_string())))
    }

    fn grant_one(&self, state: &mut Counters, label: Option<String>) -> CoreLease<'_> {
        state.leased += 1;
        state.peak = state.peak.max(state.leased);
        if let Some(label) = &label {
            let count = state.by_label.entry(label.clone()).or_default();
            count.leased += 1;
            count.peak = count.peak.max(count.leased);
        }
        CoreLease { budget: self, tokens: 1, label }
    }

    /// Lease exactly one token without blocking; `None` when the budget
    /// is exhausted. The convenience spelling I/O lanes (prefetchers,
    /// background writers) use to account for themselves opportunistically.
    pub fn try_acquire_one(&self) -> Option<CoreLease<'_>> {
        let lease = self.try_acquire(1);
        (lease.tokens() == 1).then_some(lease)
    }

    /// Lease up to `max` tokens without blocking; the lease may hold zero.
    pub fn try_acquire(&self, max: usize) -> CoreLease<'_> {
        let mut state = self.state.lock().expect("budget poisoned");
        let grant = max.min(self.total - state.leased);
        state.leased += grant;
        state.peak = state.peak.max(state.leased);
        CoreLease { budget: self, tokens: grant, label: None }
    }

    fn release(&self, tokens: usize, label: Option<&str>) {
        if tokens == 0 {
            return;
        }
        let mut state = self.state.lock().expect("budget poisoned");
        state.leased -= tokens;
        if let Some(label) = label {
            if let Some(count) = state.by_label.get_mut(label) {
                count.leased = count.leased.saturating_sub(tokens);
            }
        }
        drop(state);
        self.released.notify_all();
    }
}

/// An RAII lease of `tokens` cores; released on drop.
#[derive(Debug)]
pub struct CoreLease<'a> {
    budget: &'a CoreBudget,
    tokens: usize,
    /// Attribution label (tenant) for per-label accounting, if any.
    label: Option<String>,
}

impl CoreLease<'_> {
    /// Number of tokens this lease holds (possibly zero).
    pub fn tokens(&self) -> usize {
        self.tokens
    }
}

impl Drop for CoreLease<'_> {
    fn drop(&mut self) {
        self.budget.release(self.tokens, self.label.as_deref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tokens currently leased under `label`.
    fn leased_for(budget: &CoreBudget, label: &str) -> usize {
        budget.state.lock().unwrap().by_label.get(label).map_or(0, |c| c.leased)
    }
    use std::sync::Arc;

    #[test]
    fn try_acquire_grants_up_to_available() {
        let budget = CoreBudget::new(4);
        let a = budget.try_acquire(3);
        assert_eq!(a.tokens(), 3);
        let b = budget.try_acquire(3);
        assert_eq!(b.tokens(), 1, "only one token left");
        let c = budget.try_acquire(5);
        assert_eq!(c.tokens(), 0, "empty lease instead of blocking");
        assert_eq!(budget.leased(), 4);
        drop(a);
        assert_eq!(budget.leased(), 1);
        assert_eq!(budget.try_acquire(10).tokens(), 3);
        assert_eq!(budget.peak_leased(), 4);
    }

    #[test]
    fn labeled_leases_track_per_label_current_and_peak() {
        let budget = CoreBudget::new(4);
        let a1 = budget.acquire_one_labeled("alice");
        let a2 = budget.acquire_one_labeled("alice");
        let b = budget.acquire_one_labeled("bob");
        let _anon = budget.try_acquire(1);
        assert_eq!(leased_for(&budget, "alice"), 2);
        assert_eq!(leased_for(&budget, "bob"), 1);
        assert_eq!(leased_for(&budget, "nobody"), 0);
        assert_eq!(budget.leased(), 4, "labels are attribution, not extra capacity");
        drop(a1);
        drop(b);
        assert_eq!(leased_for(&budget, "alice"), 1);
        assert_eq!(leased_for(&budget, "bob"), 0);
        assert_eq!(budget.peak_leased_for("alice"), 2, "per-label high-water mark sticks");
        assert_eq!(budget.peak_leased_for("bob"), 1);
        drop(a2);
        assert_eq!(leased_for(&budget, "alice"), 0);
        assert!(budget.peak_leased() <= budget.total());
    }

    #[test]
    fn try_acquire_one_labeled_grants_refuses_and_accounts_per_label() {
        let budget = CoreBudget::new(2);
        let a = budget.try_acquire_one_labeled("alice").expect("token free");
        assert_eq!(a.tokens(), 1);
        assert_eq!(leased_for(&budget, "alice"), 1);
        let b = budget.try_acquire_one_labeled("bob").expect("token free");
        assert!(budget.try_acquire_one_labeled("carol").is_none(), "budget exhausted");
        assert_eq!(leased_for(&budget, "carol"), 0, "a refusal leases nothing");
        drop(a);
        drop(b);
        assert_eq!(budget.leased(), 0);
        assert_eq!(leased_for(&budget, "alice"), 0);
        assert_eq!(budget.peak_leased_for("alice"), 1);
    }

    #[test]
    fn zero_total_clamped_to_one() {
        let budget = CoreBudget::new(0);
        assert_eq!(budget.total(), 1);
        assert_eq!(budget.try_acquire(2).tokens(), 1);
    }

    #[test]
    fn acquire_one_blocks_until_released() {
        let budget = Arc::new(CoreBudget::new(1));
        let lease = budget.acquire_one();
        let waiter = {
            let budget = Arc::clone(&budget);
            std::thread::spawn(move || {
                let _lease = budget.acquire_one();
                std::time::Instant::now()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        let released_at = std::time::Instant::now();
        drop(lease);
        let acquired_at = waiter.join().expect("waiter panicked");
        assert!(acquired_at >= released_at, "second acquire must wait for the release");
        assert_eq!(budget.peak_leased(), 1, "never more than one token out");
    }

    #[test]
    fn leases_never_exceed_total_under_contention() {
        let budget = Arc::new(CoreBudget::new(3));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let budget = &budget;
                scope.spawn(move || {
                    for _ in 0..200 {
                        let base = budget.acquire_one();
                        let extra = budget.try_acquire(2);
                        assert!(budget.leased() <= budget.total());
                        drop(extra);
                        drop(base);
                    }
                });
            }
        });
        assert_eq!(budget.leased(), 0);
        assert!(budget.peak_leased() <= 3);
    }
}
