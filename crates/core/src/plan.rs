//! Compile-time planning: cost assembly + OPT-EXEC-PLAN (paper §5.2).
//!
//! Given the chain signatures and the catalog/statistics from previous
//! iterations, build the per-node [`NodeCosts`] and hand the instance to
//! `helix-flow`'s max-flow solver. Program slicing (§5.4) falls out of the
//! same machinery: nodes with no path to an output are never required by
//! anything, so the optimizer prunes them.

use crate::dsl::Workflow;
use crate::session::ReuseScope;
use helix_common::hash::Signature;
use helix_common::timing::Nanos;
use helix_exec::Phase;
use helix_flow::oep::{NodeCosts, OepProblem, State};
use helix_storage::MaterializationCatalog;
use std::collections::HashMap;

/// The execution plan for one iteration.
#[derive(Clone, Debug)]
pub struct Plan {
    /// OEP state per node.
    pub states: Vec<State>,
    /// Estimated run time of the plan under the cost model.
    pub estimated_nanos: Nanos,
    /// Per-node costs used (kept for reports and tests).
    pub costs: Vec<NodeCosts>,
}

/// Inputs the planner needs from the session.
pub struct PlanInputs<'a> {
    /// Chain signatures per node.
    pub sigs: &'a [Signature],
    /// Catalog for load availability and load-time estimates.
    pub catalog: &'a MaterializationCatalog,
    /// Which phases may reuse materialized results.
    pub reuse: ReuseScope,
    /// Measured compute times from previous iterations, keyed by signature.
    pub compute_stats: &'a HashMap<Signature, Nanos>,
    /// Fallback compute estimate for never-before-seen operators.
    pub default_compute_nanos: Nanos,
}

/// Build costs and solve OPT-EXEC-PLAN.
pub fn plan(wf: &Workflow, inputs: &PlanInputs<'_>) -> Plan {
    let dag = wf.dag();
    let costs: Vec<NodeCosts> = dag
        .iter()
        .map(|(id, spec)| {
            let sig = inputs.sigs[id.ix()];
            let compute = inputs
                .compute_stats
                .get(&sig)
                .copied()
                .unwrap_or(inputs.default_compute_nanos)
                .max(1);
            let load = if inputs.reuse.allows(spec.phase) {
                inputs.catalog.estimated_load_nanos(sig).map(|l| l.max(1))
            } else {
                None
            };
            let mut c = NodeCosts::new(compute, load);
            if spec.is_output {
                c = c.required();
            }
            c
        })
        .collect();
    let solution = OepProblem::new(dag, &costs).solve();
    Plan { states: solution.states, estimated_nanos: solution.total_cost, costs }
}

impl ReuseScope {
    /// Whether results of `phase` operators may be reused from the catalog.
    pub fn allows(self, phase: Phase) -> bool {
        match self {
            ReuseScope::All => true,
            ReuseScope::DprOnly => phase == Phase::Dpr,
            ReuseScope::None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::track::{chain_signatures, ExecEnv};
    use helix_data::{Scalar, Value};
    use helix_storage::DiskProfile;

    fn three_chain() -> crate::dsl::Workflow {
        let mut wf = crate::dsl::Workflow::new("p");
        let a = wf.source("a", 1, |_| Ok(Value::Scalar(Scalar::I64(1))));
        let b = wf.reduce("b", a, 1, |_v, _| Ok(Value::Scalar(Scalar::I64(2))));
        let c = wf.reduce("c", b, 1, |_v, _| Ok(Value::Scalar(Scalar::I64(3))));
        wf.output(c);
        wf
    }

    #[test]
    fn first_iteration_computes_everything_needed() {
        let wf = three_chain();
        let sigs = chain_signatures(&wf, &HashMap::new(), &ExecEnv::new(7));
        let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        let stats = HashMap::new();
        let plan = plan(
            &wf,
            &PlanInputs {
                sigs: &sigs,
                catalog: &catalog,
                reuse: ReuseScope::All,
                compute_stats: &stats,
                default_compute_nanos: 1_000,
            },
        );
        assert!(plan.states.iter().all(|s| *s == State::Compute));
        assert_eq!(plan.states.len(), 3);
    }

    #[test]
    fn materialized_output_is_loaded_on_rerun() {
        let wf = three_chain();
        let sigs = chain_signatures(&wf, &HashMap::new(), &ExecEnv::new(7));
        let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        let c = wf.node_by_name("c").unwrap();
        catalog.store(sigs[c.ix()], "c", 0, &Value::Scalar(Scalar::I64(3))).unwrap();
        let mut stats = HashMap::new();
        for s in &sigs {
            stats.insert(*s, 1_000_000u64); // computing costs 1ms each
        }
        let plan = plan(
            &wf,
            &PlanInputs {
                sigs: &sigs,
                catalog: &catalog,
                reuse: ReuseScope::All,
                compute_stats: &stats,
                default_compute_nanos: 1_000,
            },
        );
        let id = |n: &str| wf.node_by_name(n).unwrap().ix();
        assert_eq!(plan.states[id("c")], State::Load, "reload the cheap materialized output");
        assert_eq!(plan.states[id("a")], State::Prune);
        assert_eq!(plan.states[id("b")], State::Prune);
    }

    #[test]
    fn reuse_scope_gates_loading() {
        let wf = three_chain();
        let sigs = chain_signatures(&wf, &HashMap::new(), &ExecEnv::new(7));
        let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        for (id, spec) in wf.dag().iter() {
            catalog.store(sigs[id.ix()], &spec.name, 0, &Value::Scalar(Scalar::I64(0))).unwrap();
        }
        let stats: HashMap<Signature, Nanos> = sigs.iter().map(|s| (*s, 1_000_000u64)).collect();
        // ReuseScope::None (KeystoneML-like): everything recomputes.
        let p = plan(
            &wf,
            &PlanInputs {
                sigs: &sigs,
                catalog: &catalog,
                reuse: ReuseScope::None,
                compute_stats: &stats,
                default_compute_nanos: 1_000,
            },
        );
        assert!(p.states.iter().all(|s| *s == State::Compute));
        // DprOnly (DeepDive-like): the PPR reducers recompute, the DPR
        // source may load.
        let p = plan(
            &wf,
            &PlanInputs {
                sigs: &sigs,
                catalog: &catalog,
                reuse: ReuseScope::DprOnly,
                compute_stats: &stats,
                default_compute_nanos: 1_000,
            },
        );
        let id = |n: &str| wf.node_by_name(n).unwrap().ix();
        assert_eq!(p.states[id("a")], State::Load);
        assert_eq!(p.states[id("b")], State::Compute);
        assert_eq!(p.states[id("c")], State::Compute);
    }

    #[test]
    fn unused_branch_is_sliced_away() {
        let mut wf = crate::dsl::Workflow::new("slice");
        let a = wf.source("a", 1, |_| Ok(Value::Scalar(Scalar::I64(1))));
        let _dead = wf.reduce("dead", a, 1, |_v, _| Ok(Value::Scalar(Scalar::I64(0))));
        let live = wf.reduce("live", a, 1, |_v, _| Ok(Value::Scalar(Scalar::I64(0))));
        wf.output(live);
        let sigs = chain_signatures(&wf, &HashMap::new(), &ExecEnv::new(7));
        let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        let stats = HashMap::new();
        let p = plan(
            &wf,
            &PlanInputs {
                sigs: &sigs,
                catalog: &catalog,
                reuse: ReuseScope::All,
                compute_stats: &stats,
                default_compute_nanos: 1_000,
            },
        );
        let id = |n: &str| wf.node_by_name(n).unwrap().ix();
        assert_eq!(p.states[id("dead")], State::Prune, "no path to output");
        assert_eq!(p.states[id("live")], State::Compute);
        assert_eq!(p.states.iter().filter(|s| **s != State::Prune).count(), 2);
    }
}
