//! Dominant-resource fair (DRF) scheduling over cores + catalog storage.
//!
//! Strict-priority admission lets one tenant starve the rest of both core
//! tokens and catalog bytes. The fair-share policy replaces it with DRF
//! (Ghodsi et al., NSDI 2011), the multi-resource generalization of
//! weighted max-min fairness: each tenant's **dominant share** is the
//! larger of its two normalized resource usages,
//!
//! ```text
//! dominant_share(t) = max( cores_in_use(t) / cores_capacity,
//!                          catalog_bytes(t) / storage_capacity ) / weight(t)
//! ```
//!
//! and the admission queue always pops a job of the *eligible* tenant with
//! the lowest dominant share. Cores usage counts **executing-core
//! leases** — the base tokens the service's dispatched runners hold —
//! tracked at admission granularity so a pick never races a runner's
//! token acquisition; storage usage is the catalog's
//! [`used_bytes_for`](../../helix_storage/catalog/struct.MaterializationCatalog.html#method.used_bytes_for)
//! charge, refreshed by `dispatch` before a pick whenever it is stale.
//!
//! ## Determinism
//!
//! The *outputs* of every iteration are scheduling-independent by the
//! service's standing contract (provenance-keyed signatures one layer
//! down), so fairness only reorders work. The scheduling decision itself
//! is still kept replayable given identical usage state:
//!
//! * shares are compared as **scaled integers** ([`SHARE_SCALE`] parts,
//!   computed with u128 integer division) — no float rounding can flip an
//!   ordering between platforms or runs;
//! * exact share ties break by **weighted lifetime dispatch count**
//!   (fewest dispatches per unit weight first — deterministic scheduler
//!   state, and the reason equal-share tenants round-robin instead of
//!   the lexicographically first name winning every release window,
//!   which would starve its twin at one core), then by **tenant id**
//!   (lexicographic) — never by map iteration order.
//!   [`DrfAllocator::pick`] returns the same tenant for any permutation
//!   of its eligible set.
//!
//! What is deliberately *not* deterministic across runs is the usage
//! state itself (which jobs have finished, how many bytes each tenant has
//! stored): fairness reacts to real load. The fairness *audit*
//! ([`FairnessAudit`]) therefore checks invariants that hold per pick —
//! "the picked tenant had the minimum dominant share among eligible
//! tenants" — rather than a fixed global schedule.

use std::collections::BTreeMap;

/// Granularity of scaled dominant shares: a share of 1.0 (the whole
/// capacity of a resource, weight 1) is `SHARE_SCALE` parts.
pub const SHARE_SCALE: u128 = 1_000_000;

/// How the admission queue orders eligible work across tenants.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// FIFO-with-priority (the original policy): among eligible jobs the
    /// highest tenant priority wins, ties broken by submission order. A
    /// high-priority tenant with a deep backlog starves everyone else —
    /// by design.
    #[default]
    Priority,
    /// Weighted dominant-resource fairness over cores + catalog storage:
    /// pop the eligible tenant with the lowest weighted dominant share.
    /// Tenant priorities are ignored; `weights` maps tenant name →
    /// weight (missing tenants get weight 1, zero is clamped to 1).
    FairShare {
        /// Per-tenant weights; a tenant with weight 2 is entitled to
        /// twice the dominant share of a weight-1 tenant.
        weights: BTreeMap<String, u32>,
    },
}

impl serde::Serialize for SchedulingPolicy {
    // Manual impl: the derive shim covers fieldless enums only, and the
    // `FairShare` variant carries its weight map.
    fn to_json(&self) -> serde::Json {
        match self {
            SchedulingPolicy::Priority => serde::Json::String("priority".into()),
            SchedulingPolicy::FairShare { weights } => serde::Json::Object(vec![
                ("policy".to_string(), serde::Json::String("fairshare".into())),
                ("weights".to_string(), serde::Serialize::to_json(weights)),
            ]),
        }
    }
}

impl SchedulingPolicy {
    /// Equal-weight fair share (every tenant weight 1).
    pub fn fair() -> SchedulingPolicy {
        SchedulingPolicy::FairShare { weights: BTreeMap::new() }
    }

    /// Whether this is a fair-share policy.
    pub fn is_fair(&self) -> bool {
        matches!(self, SchedulingPolicy::FairShare { .. })
    }

    /// The policy named by the `HELIX_SCHEDULING` environment variable
    /// (`priority` or `fairshare`/`fair`/`drf`); `None` when unset.
    /// This is how the CI determinism matrix replays the same test suite
    /// under both schedulers.
    ///
    /// # Panics
    ///
    /// On an unrecognized value — a typo in the CI matrix must fail the
    /// job loudly, not silently fall back to the default policy and turn
    /// the fair-share leg into a second priority run.
    pub fn from_env() -> Option<SchedulingPolicy> {
        let value = std::env::var("HELIX_SCHEDULING").ok()?;
        match value.to_ascii_lowercase().as_str() {
            "priority" => Some(SchedulingPolicy::Priority),
            "fairshare" | "fair" | "drf" => Some(SchedulingPolicy::fair()),
            other => panic!(
                "unrecognized HELIX_SCHEDULING value `{other}` (expected `priority` or \
                 `fairshare`)"
            ),
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct TenantUsage {
    /// Executing-core leases (dispatched jobs; each holds or will hold
    /// one base token).
    cores: u64,
    /// Catalog bytes charged to the tenant (`used_bytes_for`).
    bytes: u64,
    /// Lifetime dispatches (decremented only by
    /// [`DrfAllocator::cancel_dispatch`], for picks that never ran): the
    /// share tie-break, so equal-share tenants alternate
    /// deterministically.
    dispatched: u64,
}

/// The DRF ledger: per-tenant weights and resource usage, with a
/// deterministic lowest-dominant-share pick.
///
/// Pure state machine — no clocks, no I/O — so it is proptestable in
/// isolation (`tests/fairshare_props.rs`): allocation never exceeds a
/// capacity-gated budget, picks are invariant under permuted arrival
/// order, and every backlogged tenant is eventually popped.
#[derive(Clone, Debug)]
pub struct DrfAllocator {
    cores_capacity: u64,
    storage_capacity: u64,
    weights: BTreeMap<String, u32>,
    usage: BTreeMap<String, TenantUsage>,
}

impl DrfAllocator {
    /// A ledger over `cores_capacity` core tokens and `storage_capacity`
    /// catalog bytes (both clamped to ≥ 1 so shares are well-defined).
    pub fn new(cores_capacity: u64, storage_capacity: u64) -> DrfAllocator {
        DrfAllocator {
            cores_capacity: cores_capacity.max(1),
            storage_capacity: storage_capacity.max(1),
            weights: BTreeMap::new(),
            usage: BTreeMap::new(),
        }
    }

    /// Builder: install per-tenant weights (zero clamps to 1).
    #[must_use]
    pub fn with_weights(mut self, weights: BTreeMap<String, u32>) -> DrfAllocator {
        self.weights = weights;
        self
    }

    /// Set one tenant's weight (zero clamps to 1).
    pub fn set_weight(&mut self, tenant: &str, weight: u32) {
        self.weights.insert(tenant.to_string(), weight.max(1));
    }

    /// The weight in force for `tenant` (1 when unset).
    pub fn weight_of(&self, tenant: &str) -> u32 {
        self.weights.get(tenant).copied().unwrap_or(1).max(1)
    }

    /// Record one more executing-core lease for `tenant` (also counts
    /// toward its lifetime dispatch total, the share tie-break).
    pub fn acquire(&mut self, tenant: &str) {
        let usage = self.usage_mut(tenant);
        usage.cores += 1;
        usage.dispatched += 1;
    }

    /// Return one executing-core lease.
    pub fn release(&mut self, tenant: &str) {
        if let Some(usage) = self.usage.get_mut(tenant) {
            usage.cores = usage.cores.saturating_sub(1);
        }
    }

    /// Reverse an [`acquire`](Self::acquire) whose dispatch never
    /// actually happened (e.g. the runner thread could not be spawned and
    /// the job was requeued): returns the core lease *and* the lifetime
    /// dispatch count, so the re-pick does not double-count the job in
    /// the round-robin tie-break.
    pub fn cancel_dispatch(&mut self, tenant: &str) {
        if let Some(usage) = self.usage.get_mut(tenant) {
            usage.cores = usage.cores.saturating_sub(1);
            usage.dispatched = usage.dispatched.saturating_sub(1);
        }
    }

    /// Refresh `tenant`'s storage-side usage.
    pub fn set_bytes(&mut self, tenant: &str, bytes: u64) {
        self.usage_mut(tenant).bytes = bytes;
    }

    /// `tenant`'s usage row, created on first touch — a tenant the
    /// ledger already knows costs no `String` allocation.
    fn usage_mut(&mut self, tenant: &str) -> &mut TenantUsage {
        if !self.usage.contains_key(tenant) {
            self.usage.insert(tenant.to_string(), TenantUsage::default());
        }
        self.usage.get_mut(tenant).expect("row exists: inserted above if it was missing")
    }

    /// Executing-core leases currently recorded for `tenant`.
    pub fn cores_in_use(&self, tenant: &str) -> u64 {
        self.usage.get(tenant).map_or(0, |u| u.cores)
    }

    /// The share formula both public accessors share: `usage *
    /// SHARE_SCALE / (capacity * weight)` per resource, then the max.
    /// Integer arithmetic end to end, so the same inputs always produce
    /// the same ordering, on any platform.
    fn share_scaled(&self, cores_used: u64, bytes_used: u64, weight: u128) -> u128 {
        let cores = (cores_used as u128 * SHARE_SCALE) / (self.cores_capacity as u128 * weight);
        let bytes = (bytes_used as u128 * SHARE_SCALE) / (self.storage_capacity as u128 * weight);
        cores.max(bytes)
    }

    /// `tenant`'s weighted dominant share in [`SHARE_SCALE`] parts.
    pub fn dominant_share_scaled(&self, tenant: &str) -> u128 {
        let usage = self.usage.get(tenant).copied().unwrap_or_default();
        self.share_scaled(usage.cores, usage.bytes, self.weight_of(tenant) as u128)
    }

    /// `tenant`'s weighted dominant share as a fraction (observability;
    /// ordering decisions always use the scaled-integer form).
    pub fn dominant_share(&self, tenant: &str) -> f64 {
        self.dominant_share_scaled(tenant) as f64 / SHARE_SCALE as f64
    }

    /// `tenant`'s weighted dominant share *if* its storage usage were
    /// `bytes` — a pure computation that does not touch the ledger, for
    /// read-only stats paths (the scheduler's own picks go through
    /// [`set_bytes`](Self::set_bytes) + [`pick`](Self::pick)).
    pub fn dominant_share_given_bytes(&self, tenant: &str, bytes: u64) -> f64 {
        let cores_used = self.usage.get(tenant).map_or(0, |u| u.cores);
        let scaled = self.share_scaled(cores_used, bytes, self.weight_of(tenant) as u128);
        scaled as f64 / SHARE_SCALE as f64
    }

    /// `tenant`'s weighted lifetime dispatch count (the share tie-break),
    /// in [`SHARE_SCALE`] parts per unit weight.
    fn dispatched_scaled(&self, tenant: &str) -> u128 {
        let dispatched = self.usage.get(tenant).map_or(0, |u| u.dispatched);
        (dispatched as u128 * SHARE_SCALE) / self.weight_of(tenant) as u128
    }

    /// The eligible tenant DRF pops next: lowest weighted dominant
    /// share; exact share ties break by lowest weighted lifetime
    /// dispatch count (so equal-share tenants round-robin — without
    /// this, two tenants whose shares tie at every release window, e.g.
    /// identical workloads at one core, would always lose to the same
    /// name), then by tenant id. The result is independent of the
    /// iteration order of `eligible` (duplicates are harmless).
    pub fn pick<'a>(&self, eligible: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
        eligible.into_iter().min_by_key(|tenant| {
            (self.dominant_share_scaled(tenant), self.dispatched_scaled(tenant), *tenant)
        })
    }
}

/// Per-tenant fairness observations (see [`FairnessAudit`]).
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct TenantAudit {
    /// Jobs dispatched for this tenant.
    pub dispatches: u64,
    /// The worst streak of consecutive picks that went to *other* tenants
    /// while this tenant had an eligible job queued — the starvation
    /// depth. Under DRF this stays small (bounded by the number of
    /// tenants plus the concurrency the policy lets leapfrog); under
    /// strict priority a backlogged high-priority tenant drives it to its
    /// whole backlog length.
    pub max_eligible_wait: u64,
}

/// Scheduler-event fairness audit, maintained for **both** policies.
///
/// Every successful pick records, from the DRF ledger's point of view,
/// whether the pick was the DRF choice and how far the chosen tenant's
/// share sat above the eligible minimum. Under `FairShare` the audit is a
/// regression guard (`non_drf_picks == 0`, `max_share_gap == 0.0` by
/// construction); under `Priority` it *measures* the unfairness the
/// policy buys — `tests/service_fairness.rs` asserts both sides.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct FairnessAudit {
    /// Successful picks observed.
    pub picks: u64,
    /// Picks that were not the DRF choice (lowest dominant share; exact
    /// ties by lowest weighted lifetime dispatch count, then tenant id)
    /// among the then-eligible tenants.
    pub non_drf_picks: u64,
    /// Max over picks of `picked_share − min_eligible_share` (fractional
    /// shares). Exactly 0.0 under the fair-share policy.
    pub max_share_gap: f64,
    /// Per-tenant observations, name-ordered.
    pub per_tenant: BTreeMap<String, TenantAudit>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_usage_ties_break_by_tenant_id() {
        let drf = DrfAllocator::new(4, 1 << 20);
        assert_eq!(drf.pick(["b", "a", "c"]), Some("a"));
        assert_eq!(drf.pick(["c", "b"]), Some("b"));
        assert_eq!(drf.pick(std::iter::empty::<&str>()), None);
    }

    #[test]
    fn dominant_share_takes_the_larger_resource() {
        let mut drf = DrfAllocator::new(4, 1000);
        drf.acquire("t"); // cores: 1/4
        drf.set_bytes("t", 100); // storage: 1/10
        assert_eq!(drf.dominant_share_scaled("t"), SHARE_SCALE / 4);
        drf.set_bytes("t", 900); // storage: 9/10 now dominates
        assert_eq!(drf.dominant_share_scaled("t"), SHARE_SCALE * 9 / 10);
    }

    #[test]
    fn weights_scale_shares_down() {
        let mut drf = DrfAllocator::new(2, 1000);
        drf.set_weight("heavy", 2);
        drf.acquire("heavy");
        drf.acquire("light");
        // Both hold one core of two: raw share 1/2, but heavy's weight
        // halves its dominant share, so heavy is picked first.
        assert_eq!(drf.dominant_share_scaled("light"), SHARE_SCALE / 2);
        assert_eq!(drf.dominant_share_scaled("heavy"), SHARE_SCALE / 4);
        assert_eq!(drf.pick(["light", "heavy"]), Some("heavy"));
    }

    #[test]
    fn lowest_share_wins_regardless_of_arrival_order() {
        let mut drf = DrfAllocator::new(4, 1 << 20);
        drf.acquire("busy");
        drf.acquire("busy");
        drf.acquire("midway");
        for perm in [["busy", "midway", "idle"], ["idle", "busy", "midway"]] {
            assert_eq!(drf.pick(perm), Some("idle"));
        }
        drf.release("busy");
        drf.release("busy");
        drf.release("midway");
        assert_eq!(drf.cores_in_use("busy"), 0);
        // Releases below zero saturate rather than wrap.
        drf.release("busy");
        assert_eq!(drf.cores_in_use("busy"), 0);
    }

    #[test]
    fn equal_share_ties_round_robin_via_dispatch_counts() {
        // One core, instant release: both tenants sit at share 0 at every
        // pick moment. Without the dispatch-count tie-break, "a" would
        // win every round and "b" would starve.
        let mut drf = DrfAllocator::new(1, 1000);
        assert_eq!(drf.pick(["a", "b"]), Some("a"));
        drf.acquire("a");
        drf.release("a");
        assert_eq!(drf.pick(["a", "b"]), Some("b"), "lifetime dispatches break the tie");
        drf.acquire("b");
        drf.release("b");
        assert_eq!(drf.pick(["a", "b"]), Some("a"), "and alternate deterministically");
    }

    #[test]
    fn policy_env_parsing() {
        assert!(SchedulingPolicy::fair().is_fair());
        assert!(!SchedulingPolicy::Priority.is_fair());
        assert_eq!(SchedulingPolicy::default(), SchedulingPolicy::Priority);
    }
}
