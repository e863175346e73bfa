//! OPT-MAT-PLAN policies (paper §5.3).
//!
//! OPT-MAT-PLAN — choosing which intermediates to materialize under a
//! storage budget so the *next* iteration is fast — is NP-hard (paper
//! Theorem 3, by reduction from Knapsack). HELIX therefore runs a
//! streaming heuristic (Algorithm 2): when a node goes out of scope,
//! materialize it iff
//!
//! ```text
//! C(n) > 2 · l(n)        and the storage budget admits it,
//! ```
//!
//! where `C(n)` is the *cumulative run time* (Definition 6: the node's own
//! incurred time plus that of all its ancestors this iteration) and `l(n)`
//! is the projected load time. The intuition: materializing (≈ one write,
//! `l`) plus next iteration's load (`l`) must beat recomputing the pruned
//! ancestor chain (`C`).
//!
//! `l(n)` is the disk model over the artifact's *encoded* bytes
//! ([`helix_storage::encoded_len`], counted without encoding) — the same
//! function of the same bytes that
//! [`MaterializationCatalog::estimated_load_nanos`](helix_storage::MaterializationCatalog::estimated_load_nanos)
//! hands OEP once the artifact is stored, so the paper's one `l_i` is one
//! number here too. Budget admission is charged in the same bytes. No
//! decode term is added on either side.
//!
//! The paper's two comparison extremes are provided as policies too:
//! `Always` (HELIX AM) and `Never` (HELIX NM).
//!
//! [`exact_omp`] implements the exact solver (exponential; tiny DAGs only)
//! the tests use as the reference for the heuristic's optimality gap, and
//! a test reproduces the §5.3 pathological chain where Algorithm 2
//! over-materializes.

use helix_common::timing::Nanos;
use helix_flow::oep::{NodeCosts, OepProblem};
use helix_flow::Dag;

/// Materialization policy (paper §6.1: HELIX OPT / AM / NM).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatStrategy {
    /// Algorithm 2 (HELIX OPT).
    Opt,
    /// Always materialize every out-of-scope node (HELIX AM).
    Always,
    /// Never materialize (HELIX NM).
    Never,
}

/// One streaming materialization decision (Algorithm 2, lines 4–8).
///
/// * `cumulative_nanos` — `C(n)`.
/// * `projected_load_nanos` — `l(n)` under the current disk profile.
/// * `size_bytes` / `budget_remaining_bytes` — storage admission.
pub fn should_materialize(
    strategy: MatStrategy,
    cumulative_nanos: Nanos,
    projected_load_nanos: Nanos,
    size_bytes: u64,
    budget_remaining_bytes: u64,
) -> bool {
    match strategy {
        MatStrategy::Never => false,
        MatStrategy::Always => true,
        // A `2l` that overflows exceeds every representable `C`.
        MatStrategy::Opt => {
            size_bytes <= budget_remaining_bytes
                && cumulative_nanos > projected_load_nanos.saturating_mul(2)
        }
    }
}

/// Cumulative run time `C(n)` (Definition 6): incurred time of `n` plus
/// every ancestor's incurred time this iteration (pruned nodes contribute
/// zero).
pub fn cumulative_run_time<T>(dag: &Dag<T>, incurred: &[Nanos], node: helix_flow::NodeId) -> Nanos {
    let mut total = incurred[node.ix()];
    let mut seen = vec![false; dag.len()];
    let mut stack: Vec<helix_flow::NodeId> = dag.parents(node).to_vec();
    seen[node.ix()] = true;
    while let Some(p) = stack.pop() {
        if std::mem::replace(&mut seen[p.ix()], true) {
            continue;
        }
        total = total.saturating_add(incurred[p.ix()]);
        stack.extend_from_slice(dag.parents(p));
    }
    total
}

/// Exact OPT-MAT-PLAN for tiny DAGs by exhaustive subset enumeration,
/// under the paper's Theorem 3 assumption `W_{t+1} = W_t` (every node
/// reusable next iteration).
///
/// Minimizes `T_M(W_t) = Σ_{n∈M} write(n) + T*(W_{t+1})` (Equation 3)
/// subject to `Σ size ≤ budget`. Returns the chosen subset as a mask
/// aligned with node ids.
pub fn exact_omp<T>(
    dag: &Dag<T>,
    compute_nanos: &[Nanos],
    load_nanos: &[Nanos],
    sizes: &[u64],
    outputs: &[bool],
    budget_bytes: u64,
) -> Vec<bool> {
    let n = dag.len();
    assert!(n <= 20, "exact OMP is exponential; use only on tiny DAGs");
    let mut best_mask = 0u32;
    let mut best_cost = Nanos::MAX;
    for mask in 0u32..(1u32 << n) {
        let mut write_total: Nanos = 0;
        let mut size_total: u64 = 0;
        for i in 0..n {
            if mask & (1 << i) != 0 {
                // Paper: write time == load time (§5.3).
                write_total = write_total.saturating_add(load_nanos[i]);
                size_total += sizes[i];
            }
        }
        if size_total > budget_bytes {
            continue;
        }
        // T*(W_{t+1}): everything reusable; loads available for M.
        let costs: Vec<NodeCosts> = (0..n)
            .map(|i| {
                let load = (mask & (1 << i) != 0).then_some(load_nanos[i]);
                let mut c = NodeCosts::new(compute_nanos[i], load);
                if outputs[i] {
                    c = c.required();
                }
                c
            })
            .collect();
        let next = OepProblem::new(dag, &costs).solve();
        let total = write_total.saturating_add(next.total_cost);
        if total < best_cost {
            best_cost = total;
            best_mask = mask;
        }
    }
    (0..n).map(|i| best_mask & (1 << i) != 0).collect()
}

/// Simulate Algorithm 2's choices for a whole iteration offline (used by
/// tests; the engine makes the same decisions online).
/// `incurred` is each node's run time this iteration.
pub fn streaming_omp_choices<T>(
    dag: &Dag<T>,
    strategy: MatStrategy,
    incurred: &[Nanos],
    load_nanos: &[Nanos],
    sizes: &[u64],
    executed: &[bool],
    mut budget_bytes: u64,
) -> Vec<bool> {
    let order = dag.topo_order().expect("acyclic");
    let mut chosen = vec![false; dag.len()];
    for id in order {
        if !executed[id.ix()] {
            continue;
        }
        let c = cumulative_run_time(dag, incurred, id);
        if should_materialize(strategy, c, load_nanos[id.ix()], sizes[id.ix()], budget_bytes) {
            chosen[id.ix()] = true;
            budget_bytes = budget_bytes.saturating_sub(sizes[id.ix()]);
        }
    }
    chosen
}

/// Evaluate `T_M` (Equation 3) for a given materialization choice, under
/// `W_{t+1} = W_t`.
pub fn materialization_run_time<T>(
    dag: &Dag<T>,
    chosen: &[bool],
    compute_nanos: &[Nanos],
    load_nanos: &[Nanos],
    outputs: &[bool],
) -> Nanos {
    let write_total: Nanos =
        chosen.iter().zip(load_nanos).filter(|(c, _)| **c).map(|(_, l)| *l).sum();
    let costs: Vec<NodeCosts> = (0..dag.len())
        .map(|i| {
            let mut c = NodeCosts::new(compute_nanos[i], chosen[i].then_some(load_nanos[i]));
            if outputs[i] {
                c = c.required();
            }
            c
        })
        .collect();
    write_total.saturating_add(OepProblem::new(dag, &costs).solve().total_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_flow::{Dag, NodeId};

    fn chain(n: usize) -> (Dag<()>, Vec<NodeId>) {
        let mut g = Dag::new();
        let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        (g, ids)
    }

    #[test]
    fn decision_rule_matches_algorithm2() {
        // C > 2l and budget ok → materialize.
        assert!(should_materialize(MatStrategy::Opt, 100, 40, 10, 100));
        // The boundary is strict: C = 2l → no, C = 2l + 1 → yes.
        assert!(!should_materialize(MatStrategy::Opt, 80, 40, 10, 100));
        assert!(should_materialize(MatStrategy::Opt, 81, 40, 10, 100));
        // Near the top of the range 2l is still exact, and one past it
        // overflows to "never" instead of wrapping or panicking.
        let half = u64::MAX / 2;
        assert!(should_materialize(MatStrategy::Opt, u64::MAX, half, 10, 100));
        assert!(!should_materialize(MatStrategy::Opt, u64::MAX - 1, half, 10, 100));
        assert!(!should_materialize(MatStrategy::Opt, u64::MAX, half + 1, 10, 100));
        // Budget exhausted → no.
        assert!(!should_materialize(MatStrategy::Opt, 100, 40, 200, 100));
        // AM ignores the economics; NM ignores everything.
        assert!(should_materialize(MatStrategy::Always, 0, 1_000, 1, 0));
        assert!(!should_materialize(MatStrategy::Never, u64::MAX, 0, 0, u64::MAX));
    }

    #[test]
    fn cumulative_time_sums_ancestors_once() {
        // Diamond: a → {b, c} → d; every node costs 10.
        let mut g: Dag<()> = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b).unwrap();
        g.add_edge(a, c).unwrap();
        g.add_edge(b, d).unwrap();
        g.add_edge(c, d).unwrap();
        let incurred = vec![10, 10, 10, 10];
        assert_eq!(cumulative_run_time(&g, &incurred, d), 40, "a counted once, not twice");
        assert_eq!(cumulative_run_time(&g, &incurred, a), 10);
    }

    #[test]
    fn streaming_omp_materializes_expensive_chains() {
        let (g, _) = chain(3);
        // Each node takes 100 to compute; loads cost 10; plenty of budget.
        let incurred = vec![100, 100, 100];
        let loads = vec![10, 10, 10];
        let sizes = vec![100, 100, 100];
        let executed = vec![true, true, true];
        let chosen = streaming_omp_choices(
            &g,
            MatStrategy::Opt,
            &incurred,
            &loads,
            &sizes,
            &executed,
            10_000,
        );
        assert_eq!(chosen, vec![true, true, true], "C grows along the chain: all pass 2l");
    }

    #[test]
    fn streaming_omp_skips_cheap_big_nodes() {
        // MNIST shape: fast compute, huge output → skip (C < 2l).
        let (g, _) = chain(2);
        let incurred = vec![10, 10];
        let loads = vec![1_000, 1_000];
        let sizes = vec![1 << 20, 1 << 20];
        let executed = vec![true, true];
        let chosen = streaming_omp_choices(
            &g,
            MatStrategy::Opt,
            &incurred,
            &loads,
            &sizes,
            &executed,
            u64::MAX,
        );
        assert_eq!(chosen, vec![false, false]);
    }

    #[test]
    fn streaming_omp_respects_budget_in_topo_order() {
        let (g, _) = chain(3);
        let incurred = vec![100, 100, 100];
        let loads = vec![10, 10, 10];
        let sizes = vec![60, 60, 60];
        let executed = vec![true, true, true];
        // Budget fits only the first two.
        let chosen =
            streaming_omp_choices(&g, MatStrategy::Opt, &incurred, &loads, &sizes, &executed, 120);
        assert_eq!(chosen, vec![true, true, false]);
    }

    /// The paper's §5.3 pathological chain: `l_i = i`, `c_i = 3`.
    /// Algorithm 2 materializes *every* node (storage `O(m²)`), while the
    /// exact plan stores only a suffix.
    #[test]
    fn pathological_chain_overspends_vs_exact() {
        let m = 8;
        let (g, _) = chain(m);
        let compute: Vec<Nanos> = vec![3; m];
        let loads: Vec<Nanos> = (1..=m as u64).collect();
        let sizes: Vec<u64> = (1..=m as u64).collect();
        let executed = vec![true; m];
        let outputs: Vec<bool> = (0..m).map(|i| i == m - 1).collect();

        // Streaming choices: C(n_i) = 3(i+1) > 2*l_i = 2(i+1) → all true.
        let streaming = streaming_omp_choices(
            &g,
            MatStrategy::Opt,
            &compute,
            &loads,
            &sizes,
            &executed,
            u64::MAX,
        );
        assert!(streaming.iter().all(|&c| c), "Algorithm 2 materializes the whole chain");

        let exact = exact_omp(&g, &compute, &loads, &sizes, &outputs, u64::MAX);
        let streaming_storage: u64 =
            streaming.iter().zip(&sizes).filter(|(c, _)| **c).map(|(_, s)| *s).sum();
        let exact_storage: u64 =
            exact.iter().zip(&sizes).filter(|(c, _)| **c).map(|(_, s)| *s).sum();
        assert!(
            exact_storage < streaming_storage,
            "exact stores less: {exact_storage} vs {streaming_storage}"
        );
        // And the exact plan's T_M is no worse.
        let tm_exact = materialization_run_time(&g, &exact, &compute, &loads, &outputs);
        let tm_streaming = materialization_run_time(&g, &streaming, &compute, &loads, &outputs);
        assert!(tm_exact <= tm_streaming, "{tm_exact} vs {tm_streaming}");
    }

    #[test]
    fn exact_omp_prefers_cheap_high_value_nodes() {
        // a (expensive to compute, tiny) → b (cheap, huge): store a only.
        let (g, _) = chain(2);
        let compute = vec![1_000, 5];
        let loads = vec![10, 800];
        let sizes = vec![10, 1_000_000];
        let outputs = vec![false, true];
        let chosen = exact_omp(&g, &compute, &loads, &sizes, &outputs, u64::MAX);
        assert!(chosen[0], "expensive node worth storing");
        assert!(!chosen[1], "huge cheap node not worth storing");
    }
}
