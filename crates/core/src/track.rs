//! Change tracking via Merkle-chain signatures (paper §4.2), keyed by
//! full provenance.
//!
//! The paper defines node equivalence representationally: a node is
//! equivalent across iterations iff its operator declaration is unchanged
//! *and* all of its parents are equivalent (Definition 2). We realize this
//! with a chain hash, extended with the *execution environment*
//! ([`ExecEnv`]) at exactly the nodes whose bytes it can affect:
//!
//! ```text
//! sig(n) = decl_sig(n) ⨝ sig(parent₁) ⨝ … ⨝ sig(parent_k)
//!          [⨝ tagged(seed)  if n declares ProvenanceInputs::SEED]
//!          [⨝ tagged(nonce) if n is volatile]
//! ```
//!
//! so two nodes are equivalent exactly when their chain signatures match,
//! and "has an equivalent materialization" (Definition 3) becomes a
//! catalog lookup by signature. This also subsumes Constraint 1: a changed
//! declaration changes the signature of the node and every descendant, so
//! none of them can hit the catalog and all needed ones are recomputed.
//!
//! **Provenance keying** (cf. arXiv:1804.05892 on cross-user reuse): a
//! *stochastic* operator — one that declares
//! [`ProvenanceInputs::SEED`](crate::operator::ProvenanceInputs) — mixes
//! the session seed into its own signature; deterministic operators
//! inherit provenance only through their parents' signatures. Two
//! sessions that differ only in seed therefore share signatures for the
//! whole seed-independent prefix (parsing, feature extraction) and
//! diverge from the first stochastic node downward, which is what makes a
//! shared catalog sound without a service-wide seed: signature-equal
//! implies byte-equal, seed included. Each provenance word is folded with
//! a domain tag ([`Signature::chain_tagged`]) so a seed can never collide
//! with a nonce or a version counter.
//!
//! **Volatile operators** (declared non-deterministic, e.g. the MNIST
//! random Fourier projection) additionally chain in the *nonce of their
//! last actual execution*: while nothing upstream changes they remain
//! equivalent to their stored output (PPR-only iterations may reuse them,
//! §6.5.2), but any re-execution draws a fresh nonce, transitively
//! deprecating every downstream artifact — the paper's "nondeterministic
//! … hence not reusable" semantics.

use crate::dsl::Workflow;
use crate::operator::ProvenanceInputs;
use helix_common::hash::Signature;
use helix_flow::NodeId;
use std::collections::HashMap;

/// Domain tag under which the session seed is folded into signatures.
const SEED_TAG: &str = "helix/env/seed";
/// Domain tag under which volatile-execution nonces are folded.
const NONCE_TAG: &str = "helix/env/nonce";

/// The execution-environment provenance fingerprint: every input outside
/// the workflow declaration that can change an operator's output bytes.
///
/// Today that is the master seed; data versions already live in source
/// declaration signatures, and everything else a
/// [`SessionConfig`](crate::session::SessionConfig) carries — worker
/// counts, core/storage budgets, cache policy, pipelining — is
/// *deliberately excluded* because the engine's determinism contract
/// proves it cannot change bytes. Folding a byte-neutral knob in would
/// only shatter sharing; leaving a byte-affecting knob out would corrupt
/// it. New knobs must pick a side here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecEnv {
    /// Master seed for all stochastic operators.
    pub seed: u64,
}

impl ExecEnv {
    /// An environment under `seed`.
    pub fn new(seed: u64) -> ExecEnv {
        ExecEnv { seed }
    }

    /// Fold the environment fields named by `inputs` into `sig`,
    /// domain-separated. [`ProvenanceInputs::NONE`] returns `sig`
    /// unchanged — deterministic operators inherit provenance only
    /// through their parents.
    #[must_use]
    pub fn fold(&self, sig: Signature, inputs: ProvenanceInputs) -> Signature {
        let mut sig = sig;
        if inputs.contains(ProvenanceInputs::SEED) {
            sig = sig.chain_tagged(SEED_TAG, self.seed);
        }
        sig
    }
}

/// Chain signatures for every node of a workflow, given the current
/// volatile-operator nonces (keyed by operator name) and the session's
/// execution environment.
///
/// Returns one signature per node, indexed by `NodeId`.
pub fn chain_signatures(
    wf: &Workflow,
    nonces: &HashMap<String, u64>,
    env: &ExecEnv,
) -> Vec<Signature> {
    let dag = wf.dag();
    let order = dag.topo_order().expect("workflow DAG must be acyclic");
    let mut sigs = vec![Signature::of_str("uninit"); dag.len()];
    for id in order {
        let spec = dag.payload(id);
        let mut sig = spec.decl_sig;
        for parent in dag.parents(id) {
            sig = sig.chain(sigs[parent.ix()]);
        }
        sig = env.fold(sig, spec.operator.byte_affecting_inputs());
        if spec.volatile {
            let nonce = nonces.get(&spec.name).copied().unwrap_or(0);
            sig = sig.chain_tagged(NONCE_TAG, nonce);
        }
        sigs[id.ix()] = sig;
    }
    sigs
}

/// Which nodes differ from the signatures recorded for the previous
/// iteration (by node *name*)? Used for purging deprecated
/// materializations and for reporting.
pub fn changed_nodes(
    wf: &Workflow,
    sigs: &[Signature],
    previous: &HashMap<String, Signature>,
) -> Vec<NodeId> {
    wf.dag()
        .iter()
        .filter(|(id, spec)| previous.get(&spec.name) != Some(&sigs[id.ix()]))
        .map(|(id, _)| id)
        .collect()
}

/// Snapshot `name → signature` for the next iteration's comparison.
pub fn signature_snapshot(wf: &Workflow, sigs: &[Signature]) -> HashMap<String, Signature> {
    wf.dag().iter().map(|(id, spec)| (spec.name.clone(), sigs[id.ix()])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Algo;
    use helix_data::{Scalar, Value};

    const ENV: ExecEnv = ExecEnv { seed: 42 };

    fn simple(version_b: u64) -> Workflow {
        let mut wf = Workflow::new("w");
        let a = wf.source("a", 1, |_| Ok(Value::Scalar(Scalar::I64(1))));
        let b = wf.reduce("b", a, version_b, |_v, _| Ok(Value::Scalar(Scalar::I64(2))));
        let c = wf.reduce("c", b, 1, |_v, _| Ok(Value::Scalar(Scalar::I64(3))));
        wf.output(c);
        wf
    }

    #[test]
    fn unchanged_workflow_same_signatures() {
        let w1 = simple(1);
        let w2 = simple(1);
        let none = HashMap::new();
        assert_eq!(chain_signatures(&w1, &none, &ENV), chain_signatures(&w2, &none, &ENV));
    }

    #[test]
    fn change_propagates_to_descendants_only() {
        let w1 = simple(1);
        let w2 = simple(2); // b's UDF version bumped
        let none = HashMap::new();
        let s1 = chain_signatures(&w1, &none, &ENV);
        let s2 = chain_signatures(&w2, &none, &ENV);
        let id = |wf: &Workflow, n: &str| wf.node_by_name(n).unwrap().ix();
        assert_eq!(s1[id(&w1, "a")], s2[id(&w2, "a")], "upstream unchanged");
        assert_ne!(s1[id(&w1, "b")], s2[id(&w2, "b")], "changed node");
        assert_ne!(s1[id(&w1, "c")], s2[id(&w2, "c")], "descendant deprecated");
    }

    #[test]
    fn changed_nodes_against_snapshot() {
        let w1 = simple(1);
        let none = HashMap::new();
        let s1 = chain_signatures(&w1, &none, &ENV);
        let snapshot = signature_snapshot(&w1, &s1);

        // Same workflow: nothing changed.
        assert!(changed_nodes(&w1, &s1, &snapshot).is_empty());

        // Bump b: b and c change, a does not.
        let w2 = simple(2);
        let s2 = chain_signatures(&w2, &none, &ENV);
        let changed = changed_nodes(&w2, &s2, &snapshot);
        let names: Vec<&str> =
            changed.iter().map(|id| w2.dag().payload(*id).name.as_str()).collect();
        assert_eq!(names, vec!["b", "c"]);

        // Empty snapshot (iteration 0): everything is original.
        assert_eq!(changed_nodes(&w1, &s1, &HashMap::new()).len(), 3);
    }

    fn volatile_wf() -> Workflow {
        let mut wf = Workflow::new("v");
        let d = wf.source("d", 1, |_| {
            use helix_data::{Example, ExampleBatch, FeatureVector, Split};
            Ok(Value::examples(ExampleBatch::dense(vec![Example::new(
                FeatureVector::Dense(vec![1.0, 2.0]),
                Some(0.0),
                Split::Train,
            )])))
        });
        let rff = wf.learner("rff", d, Algo::RandomFourier { dim_out: 4, gamma: 0.1 });
        let out = wf.predict("mapped", rff, d);
        wf.output(out);
        wf
    }

    /// A chain with a stochastic learner in the middle: seed-independent
    /// prefix (`d` and friends), seed-keyed model, deterministic suffix
    /// inheriting the seed through its parent.
    fn stochastic_wf() -> Workflow {
        let mut wf = Workflow::new("s");
        let d = wf.source("d", 1, |_| {
            use helix_data::{Example, ExampleBatch, FeatureVector, Split};
            Ok(Value::examples(ExampleBatch::dense(vec![Example::new(
                FeatureVector::Dense(vec![1.0, 2.0]),
                Some(0.0),
                Split::Train,
            )])))
        });
        let model = wf.learner("lr", d, Algo::LogisticRegression { l2: 0.1, epochs: 2 });
        let pred = wf.predict("pred", model, d);
        wf.output(pred);
        wf
    }

    #[test]
    fn volatile_nonce_deprecates_descendants() {
        let wf = volatile_wf();
        let mut nonces = HashMap::new();
        nonces.insert("rff".to_string(), 1u64);
        let s1 = chain_signatures(&wf, &nonces, &ENV);
        nonces.insert("rff".to_string(), 2u64);
        let s2 = chain_signatures(&wf, &nonces, &ENV);
        let id = |n: &str| wf.node_by_name(n).unwrap().ix();
        assert_eq!(s1[id("d")], s2[id("d")], "upstream untouched by nonce");
        assert_ne!(s1[id("rff")], s2[id("rff")]);
        assert_ne!(s1[id("mapped")], s2[id("mapped")], "descendant deprecated by nonce");
        // Same nonce → stable (PPR-only iterations can reuse).
        let s3 = chain_signatures(&wf, &nonces, &ENV);
        assert_eq!(s2, s3);
    }

    #[test]
    fn seed_keys_stochastic_nodes_and_their_descendants_only() {
        let wf = stochastic_wf();
        let none = HashMap::new();
        let s1 = chain_signatures(&wf, &none, &ExecEnv::new(1));
        let s2 = chain_signatures(&wf, &none, &ExecEnv::new(2));
        let id = |n: &str| wf.node_by_name(n).unwrap().ix();
        assert_eq!(s1[id("d")], s2[id("d")], "seed-independent prefix shared across seeds");
        assert_ne!(s1[id("lr")], s2[id("lr")], "stochastic node keyed by seed");
        assert_ne!(s1[id("pred")], s2[id("pred")], "descendant inherits the seed key");
        // Same seed → identical everywhere (solo/service equivalence).
        assert_eq!(s1, chain_signatures(&wf, &none, &ExecEnv::new(1)));
    }

    #[test]
    fn deterministic_workflows_ignore_the_seed_entirely() {
        let wf = simple(1);
        let none = HashMap::new();
        assert_eq!(
            chain_signatures(&wf, &none, &ExecEnv::new(1)),
            chain_signatures(&wf, &none, &ExecEnv::new(2)),
            "no stochastic node anywhere: seeds must not fragment sharing"
        );
    }

    #[test]
    fn seed_and_nonce_domains_do_not_collide() {
        let wf = volatile_wf();
        let mut nonces = HashMap::new();
        nonces.insert("rff".to_string(), 7u64);
        // Env seed 7 with nonce 0 vs env seed 0 with nonce 7: if the two
        // words were folded untagged, a crafted pair like this could
        // collide; tags keep the domains apart.
        let a = chain_signatures(&wf, &nonces, &ExecEnv::new(0));
        let b = chain_signatures(&wf, &HashMap::new(), &ExecEnv::new(7));
        let id = |n: &str| wf.node_by_name(n).unwrap().ix();
        assert_ne!(a[id("rff")], b[id("rff")]);
    }
}
