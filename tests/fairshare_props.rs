//! Property tests for the DRF allocator in isolation (no service, no
//! threads, no clocks — a pure state machine driven by generated demand
//! sequences):
//!
//! * a capacity-gated allocation loop never exceeds the core budget, for
//!   arbitrary demand/completion sequences, and always drains every
//!   tenant's backlog;
//! * the pick is deterministic under permuted (and duplicated) arrival
//!   order of the eligible set — the decision is a pure function of the
//!   ledger state, never of iteration order;
//! * starvation-freedom: every backlogged tenant is popped within a
//!   bounded number of picks (the bound follows from the share +
//!   dispatch-count ordering), so no tenant waits forever.

use helix::serve::fairshare::SHARE_SCALE;
use helix::serve::DrfAllocator;
use proptest::prelude::*;

/// Tenant names `t0..t<n>`; fixed so tie-breaks are reproducible.
fn tenant_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("t{i}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Capacity-gated allocation: leases handed out through the
    /// allocator's pick never exceed the budget, every tenant's demand
    /// fully drains, and each tenant is dispatched exactly its demand.
    #[test]
    fn allocation_never_exceeds_budget_and_drains(
        cores in 1u64..6,
        demands in prop::collection::vec(0usize..10, 1..6),
        bytes in prop::collection::vec(0u64..1_000, 1..6),
        completion_choices in prop::collection::vec(any::<u16>(), 0..512),
    ) {
        let n = demands.len().min(bytes.len()).max(1);
        let names = tenant_names(n);
        let mut drf = DrfAllocator::new(cores, 1_000);
        for (name, b) in names.iter().zip(&bytes) {
            drf.set_bytes(name, *b);
        }
        let mut demand: Vec<usize> = demands[..n].to_vec();
        let mut in_flight: Vec<usize> = vec![0; n];
        let mut dispatched: Vec<usize> = vec![0; n];
        let mut completions = completion_choices.iter().copied();
        let mut outstanding = 0u64;
        let total_demand: usize = demand.iter().sum();
        let mut steps = 0usize;
        while demand.iter().any(|&d| d > 0) || outstanding > 0 {
            steps += 1;
            prop_assert!(steps <= 16 * (total_demand + 1), "allocation loop did not drain");
            let eligible: Vec<&str> = names
                .iter()
                .enumerate()
                .filter(|(ix, _)| demand[*ix] > 0)
                .map(|(_, name)| name.as_str())
                .collect();
            if outstanding < cores && !eligible.is_empty() {
                let picked = drf.pick(eligible.iter().copied()).expect("non-empty");
                let ix = names.iter().position(|name| name == picked).expect("known tenant");
                drf.acquire(picked);
                demand[ix] -= 1;
                in_flight[ix] += 1;
                dispatched[ix] += 1;
                outstanding += 1;
                prop_assert!(outstanding <= cores, "budget exceeded: {outstanding} > {cores}");
            } else {
                // Complete one in-flight lease, chosen by the generated
                // stream (arbitrary completion order).
                let busy: Vec<usize> =
                    (0..n).filter(|&ix| in_flight[ix] > 0).collect();
                prop_assert!(!busy.is_empty(), "nothing to complete yet nothing to dispatch");
                let choice = completions.next().unwrap_or(0) as usize % busy.len();
                let ix = busy[choice];
                drf.release(&names[ix]);
                in_flight[ix] -= 1;
                outstanding -= 1;
            }
        }
        for (ix, name) in names.iter().enumerate() {
            prop_assert_eq!(dispatched[ix], demands[ix], "tenant {} under/over-served", name);
            prop_assert_eq!(drf.cores_in_use(name), 0, "all leases returned");
        }
    }

    /// The pick is a pure function of ledger state: any permutation (or
    /// duplication) of the eligible set yields the same tenant.
    #[test]
    fn pick_is_invariant_under_permuted_arrival_order(
        cores in 1u64..8,
        acquires in prop::collection::vec(0usize..6, 0..24),
        byte_usage in prop::collection::vec(0u64..2_000, 6),
        rotation in 0usize..6,
    ) {
        let names = tenant_names(6);
        let mut drf = DrfAllocator::new(cores, 1_000);
        for (name, b) in names.iter().zip(&byte_usage) {
            drf.set_bytes(name, *b);
        }
        for ix in &acquires {
            drf.acquire(&names[*ix]);
        }
        let forward: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        let mut rotated = forward.clone();
        rotated.rotate_left(rotation);
        let mut duplicated = forward.clone();
        duplicated.extend_from_slice(&rotated);
        let expected = drf.pick(forward.iter().copied());
        prop_assert_eq!(drf.pick(reversed), expected);
        prop_assert_eq!(drf.pick(rotated.iter().copied()), expected);
        prop_assert_eq!(drf.pick(duplicated), expected);
    }

    /// Starvation-freedom under the service's session shape (per-tenant
    /// concurrency 1): a continuously backlogged tenant is
    /// picked within a bounded streak of other-tenant picks. The bound
    /// follows from the ordering: an eligible tenant holds no lease (its
    /// core share is zero), so only tenants with an equal-or-lower
    /// (share, lifetime-dispatch) key can leapfrog it, and every
    /// leapfrog raises the winner's dispatch count — the deficit
    /// Σ max(0, d_T − d_i) + n is consumed monotonically.
    #[test]
    fn every_backlogged_tenant_is_popped_within_its_deficit_bound(
        cores in 1u64..4,
        n in 2usize..6,
        demands in prop::collection::vec(1usize..12, 6),
        completion_choices in prop::collection::vec(any::<u16>(), 0..768),
    ) {
        let names = tenant_names(n);
        let mut drf = DrfAllocator::new(cores, 1_000);
        let mut demand: Vec<usize> = demands[..n].to_vec();
        let mut in_flight: Vec<bool> = vec![false; n];
        let mut dispatched: Vec<u64> = vec![0; n];
        // Per-tenant streak of picks that went elsewhere while this
        // tenant was eligible, plus the bound computed when the wait
        // started.
        let mut wait: Vec<u64> = vec![0; n];
        let mut bound: Vec<u64> = vec![0; n];
        let mut completions = completion_choices.iter().copied();
        let mut outstanding = 0u64;
        let total_demand: usize = demand.iter().sum();
        let mut steps = 0usize;
        while demand.iter().any(|&d| d > 0) || outstanding > 0 {
            steps += 1;
            prop_assert!(steps <= 32 * (total_demand + 1), "simulation did not drain");
            let eligible: Vec<usize> =
                (0..n).filter(|&ix| demand[ix] > 0 && !in_flight[ix]).collect();
            if outstanding < cores && !eligible.is_empty() {
                let picked = drf
                    .pick(eligible.iter().map(|&ix| names[ix].as_str()))
                    .expect("non-empty");
                let picked_ix =
                    names.iter().position(|name| name == picked).expect("known tenant");
                for &ix in &eligible {
                    if ix == picked_ix {
                        continue;
                    }
                    if wait[ix] == 0 {
                        // Wait starts now: the most this tenant can be
                        // leapfrogged is the dispatch deficit others can
                        // make up, plus one tie round per tenant.
                        let deficit: u64 = (0..n)
                            .filter(|&j| j != ix)
                            .map(|j| dispatched[ix].saturating_sub(dispatched[j]))
                            .sum();
                        bound[ix] = deficit + n as u64;
                    }
                    wait[ix] += 1;
                    prop_assert!(
                        wait[ix] <= bound[ix],
                        "tenant {} starved: waited {} picks (bound {})",
                        names[ix], wait[ix], bound[ix]
                    );
                }
                wait[picked_ix] = 0;
                drf.acquire(picked);
                dispatched[picked_ix] += 1;
                demand[picked_ix] -= 1;
                in_flight[picked_ix] = true;
                outstanding += 1;
            } else {
                let busy: Vec<usize> = (0..n).filter(|&ix| in_flight[ix]).collect();
                prop_assert!(!busy.is_empty(), "wedged: nothing running, nothing eligible");
                let choice = completions.next().unwrap_or(0) as usize % busy.len();
                let ix = busy[choice];
                drf.release(&names[ix]);
                in_flight[ix] = false;
                outstanding -= 1;
            }
        }
    }

    /// Dominant shares are scale-consistent: doubling both usage and
    /// capacity leaves every share (and therefore every pick) unchanged.
    #[test]
    fn shares_are_scale_invariant(
        cores in 1u64..16,
        storage in 1u64..1_000_000,
        core_use in 0u64..16,
        byte_use in 0u64..1_000_000,
    ) {
        let core_use = core_use.min(cores);
        let byte_use = byte_use.min(storage);
        let mut small = DrfAllocator::new(cores, storage);
        let mut large = DrfAllocator::new(cores * 2, storage * 2);
        for _ in 0..core_use {
            small.acquire("t");
            large.acquire("t");
        }
        for _ in 0..core_use {
            large.acquire("t");
        }
        small.set_bytes("t", byte_use);
        large.set_bytes("t", byte_use * 2);
        prop_assert_eq!(
            small.dominant_share_scaled("t"),
            large.dominant_share_scaled("t"),
            "scaled shares must agree up to integer granularity ({} parts)",
            SHARE_SCALE
        );
    }
}
