//! Dominant-resource fair (DRF) scheduling over cores + catalog storage.
//!
//! The admission queue's one cross-tenant policy is unweighted DRF
//! (Ghodsi et al., NSDI 2011), the multi-resource generalization of
//! max-min fairness: each tenant's **dominant share** is the larger of
//! its two normalized resource usages,
//!
//! ```text
//! dominant_share(t) = max( cores_in_use(t) / cores_capacity,
//!                          catalog_bytes(t) / storage_capacity )
//! ```
//!
//! and the admission queue always pops a job of the *eligible* tenant with
//! the lowest dominant share, so one backlogged tenant cannot starve the
//! rest of either resource. Cores usage counts **executing-core
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
//! * exact share ties break by **lifetime dispatch count** (fewest
//!   dispatches first — deterministic scheduler state, and the reason
//!   equal-share tenants round-robin instead of the lexicographically
//!   first name winning every release window, which would starve its
//!   twin at one core), then by **tenant id** (lexicographic) — never by
//!   map iteration order. [`DrfAllocator::pick`] returns the same tenant
//!   for any permutation of its eligible set.
//!
//! What is deliberately *not* deterministic across runs is the usage
//! state itself (which jobs have finished, how many bytes each tenant has
//! stored): fairness reacts to real load. The fairness *audit*
//! ([`FairnessAudit`]) therefore records per-pick observations (dispatch
//! counts, eligible-wait streaks) rather than a fixed global schedule.

use std::collections::BTreeMap;

/// Granularity of scaled dominant shares: a share of 1.0 (the whole
/// capacity of a resource) is `SHARE_SCALE` parts.
pub const SHARE_SCALE: u128 = 1_000_000;

#[derive(Clone, Copy, Debug, Default)]
struct TenantUsage {
    /// Executing-core leases (dispatched jobs; each holds or will hold
    /// one base token).
    cores: u64,
    /// Catalog bytes charged to the tenant (`used_bytes_for`).
    bytes: u64,
    /// Lifetime dispatches: the share tie-break, so equal-share tenants
    /// alternate deterministically.
    dispatched: u64,
}

/// The DRF ledger: per-tenant resource usage, with a deterministic
/// lowest-dominant-share pick.
///
/// Pure state machine — no clocks, no I/O — so it is proptestable in
/// isolation (`tests/fairshare_props.rs`): allocation never exceeds a
/// capacity-gated budget, picks are invariant under permuted arrival
/// order, and every backlogged tenant is eventually popped.
#[derive(Clone, Debug)]
pub struct DrfAllocator {
    cores_capacity: u64,
    storage_capacity: u64,
    usage: BTreeMap<String, TenantUsage>,
}

impl DrfAllocator {
    /// A ledger over `cores_capacity` core tokens and `storage_capacity`
    /// catalog bytes (both clamped to ≥ 1 so shares are well-defined).
    pub fn new(cores_capacity: u64, storage_capacity: u64) -> DrfAllocator {
        DrfAllocator {
            cores_capacity: cores_capacity.max(1),
            storage_capacity: storage_capacity.max(1),
            usage: BTreeMap::new(),
        }
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

    /// The share formula behind the accessors and the pick: `usage *
    /// SHARE_SCALE / capacity` per resource, then the max. Integer
    /// arithmetic end to end, so the same inputs always produce the same
    /// ordering, on any platform.
    fn share_scaled(&self, cores_used: u64, bytes_used: u64) -> u128 {
        let cores = (cores_used as u128 * SHARE_SCALE) / self.cores_capacity as u128;
        let bytes = (bytes_used as u128 * SHARE_SCALE) / self.storage_capacity as u128;
        cores.max(bytes)
    }

    /// `tenant`'s dominant share in [`SHARE_SCALE`] parts.
    pub fn dominant_share_scaled(&self, tenant: &str) -> u128 {
        let usage = self.usage.get(tenant).copied().unwrap_or_default();
        self.share_scaled(usage.cores, usage.bytes)
    }

    /// `tenant`'s dominant share *if* its storage usage were `bytes` — a
    /// pure computation that does not touch the ledger, for read-only
    /// stats paths (the scheduler's own picks go through
    /// [`set_bytes`](Self::set_bytes) + [`pick`](Self::pick)).
    pub fn dominant_share_given_bytes(&self, tenant: &str, bytes: u64) -> f64 {
        let scaled = self.share_scaled(self.cores_in_use(tenant), bytes);
        scaled as f64 / SHARE_SCALE as f64
    }

    /// The eligible tenant DRF pops next: lowest dominant share; exact
    /// share ties break by fewest lifetime dispatches (so equal-share
    /// tenants round-robin — without this, two tenants whose shares tie
    /// at every release window, e.g. identical workloads at one core,
    /// would always lose to the same name), then by tenant id. The
    /// result is independent of the iteration order of `eligible`
    /// (duplicates are harmless).
    pub fn pick<'a>(&self, eligible: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
        eligible.into_iter().min_by_key(|tenant| {
            let usage = self.usage.get(*tenant).copied().unwrap_or_default();
            (self.share_scaled(usage.cores, usage.bytes), usage.dispatched, *tenant)
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
    /// depth. DRF keeps it small: bounded by the number of tenants plus
    /// the concurrency that lets other tenants leapfrog.
    pub max_eligible_wait: u64,
}

/// Scheduler-event fairness audit.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct FairnessAudit {
    /// Successful picks observed.
    pub picks: u64,
    /// Picks that were not the DRF choice among the then-eligible
    /// tenants. DRF is the only admission policy, so this is 0 by
    /// construction; the field stays because dashboards and the
    /// benchmark report it.
    pub non_drf_picks: u64,
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
}
