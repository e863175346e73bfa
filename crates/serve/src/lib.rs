//! # helix-serve
//!
//! A long-lived, multi-tenant session service over the HELIX engine — the
//! step from "one developer iterating" (the paper's setting, VLDB 2018)
//! toward the production service of the ROADMAP's north star, in the
//! direction the authors themselves named next (arXiv:1804.05892:
//! multi-tenant resource sharing and cross-user artifact reuse).
//!
//! One [`HelixService`] owns, process-wide:
//!
//! * **a core budget** ([`helix_exec::CoreBudget`]) — every concurrently
//!   running iteration holds one base token, and all *extra* parallelism
//!   (the engine's frontier dispatch, data-parallel operator chunks)
//!   leases tokens from the same pool. Total working threads never exceed
//!   the budget: no more `workers²` blowups, no oversubscription between
//!   tenants.
//! * **a shared materialization catalog** with per-tenant byte quotas
//!   carved out of one global storage budget. Artifacts are keyed by
//!   *provenance-complete* content signatures (operator declarations,
//!   parent linkage, volatile nonces, and each session's seed at the
//!   nodes it affects), so when two tenants' workflows share a
//!   seed-independent prefix the second tenant *loads* what the first
//!   computed — even when the tenants run different seeds — cross-tenant
//!   reuse falls out of Definition 3's equivalence, with per-tenant
//!   attribution of self vs cross hits.
//! * **an admission layer** ([`admission`]) — a bounded submission queue
//!   drained under per-tenant and global concurrency caps by
//!   **dominant-resource fairness** ([`fairshare`]) over cores + catalog
//!   storage, which keeps one backlogged tenant from starving the rest
//!   of either resource. A scheduler-event fairness audit
//!   ([`FairnessAudit`]) records dispatches and eligible-wait streaks.
//! * **tenant-aware global eviction** — the shared catalog carries the
//!   service's global byte budget; when a store would overflow it (even
//!   with every tenant inside its quota), victims are chosen across
//!   tenants by a deterministic retention score that keeps popular
//!   (refcount > 1) cross-tenant artifacts longest, never touching
//!   artifacts an in-flight plan pinned. Evictions are attributed
//!   per-tenant in [`ServiceStats`].
//!
//! ## Determinism contract
//!
//! A tenant's iteration outputs are byte-identical to a solo serial run
//! of that tenant (same seed), regardless of co-tenants, queue order, or
//! how many cores the budget grants:
//!
//! * the engine is worker-count-invariant (PR 1), and token grants only
//!   narrow effective width;
//! * every session's seed is folded into its signature chain at the
//!   stochastic nodes (`helix_core::track::ExecEnv`), so a signature
//!   identifies one exact byte string *across seeds* — loading another
//!   tenant's artifact yields precisely the bytes the loader would have
//!   computed, and tenants are free to pick their own seeds (the old
//!   service-wide seed override is gone; [`ServiceConfig::seed`] is only
//!   a default for sessions that leave theirs unset);
//! * per-tenant *quota* eviction and deprecation (`release`) are
//!   deterministic and scoped, so one tenant can never delete bytes
//!   another still plans around.
//!
//! ```no_run
//! use helix_serve::{HelixService, ServiceConfig, TenantSpec};
//! use helix_core::{SessionConfig, Workflow};
//! # fn workflow() -> Workflow { Workflow::new("w") }
//!
//! let service = HelixService::new(ServiceConfig::new(8)).unwrap();
//! service.register_tenant("alice", TenantSpec::default()).unwrap();
//! service.register_tenant("bob", TenantSpec::default()).unwrap();
//! let alice = service.open_session("alice", SessionConfig::in_memory()).unwrap();
//! let report = alice.run_iteration(workflow()).unwrap();
//! ```

pub mod admission;
pub mod fairshare;
pub(crate) mod runner;
pub mod service;
pub mod ticket;

pub use admission::{AdmissionCaps, QueueSnapshot};
pub use fairshare::{DrfAllocator, FairnessAudit, TenantAudit};
pub use service::{HelixService, ServiceConfig, ServiceStats, TenantSpec, TenantStats};
pub use ticket::{JobOutcome, JobTicket};

/// A handle to one tenant's iterative session inside a service.
pub use service::ServiceSession;
