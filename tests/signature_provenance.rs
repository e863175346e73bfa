//! Property-based tests for provenance-keyed signatures: the seed is part
//! of every chain signature at exactly the nodes it can affect.
//!
//! Three obligations (ISSUE 4):
//!
//! 1. two sessions differing *only in seed* never share a signature at a
//!    stochastic operator or anywhere downstream of one;
//! 2. they *always* share signatures for the seed-independent prefix
//!    (parsing, feature extraction — anything upstream of the first
//!    stochastic node);
//! 3. a solo strictly-serial run is byte-identical to a service run under
//!    distinct per-tenant seeds, at 1/2/4/8 cores.

use helix::core::ops::Algo;
use helix::core::track::{chain_signatures, ExecEnv};
use helix::core::{Session, SessionConfig, Workflow};
use helix::data::{Example, ExampleBatch, FeatureVector, Scalar, Split, Value};
use helix::exec::Phase;
use helix::serve::{HelixService, ServiceConfig, TenantSpec};
use helix::storage::encode_value;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// A workflow with a deterministic prefix chain (`source` then `prefix`
/// pass-through UDF stages), one stochastic learner, and a deterministic
/// suffix (predict + reduce) that inherits the seed only through its
/// parents. `algo_ix` selects among the seeded algorithms.
fn stochastic_workflow(prefix: usize, suffix: usize, algo_ix: usize) -> Workflow {
    let mut wf = Workflow::new("prov");
    let mut dc = wf.source("src", 1, |_| {
        let examples = (0..12)
            .map(|i| {
                let x = i as f64;
                Example::new(
                    FeatureVector::Dense(vec![x, 12.0 - x]),
                    Some((i % 2) as f64),
                    if i % 4 == 0 { Split::Test } else { Split::Train },
                )
            })
            .collect();
        Ok(Value::examples(ExampleBatch::dense(examples)))
    });
    for k in 0..prefix {
        dc = wf.udf_collection(&format!("pre{k}"), Phase::Dpr, &[dc], 1, |inputs, _| {
            Ok((*inputs[0]).clone())
        });
    }
    let algo = match algo_ix % 3 {
        0 => Algo::LogisticRegression { l2: 0.1, epochs: 2 },
        1 => Algo::KMeans { k: 2 },
        _ => Algo::Word2Vec { dim: 2, epochs: 1 },
    };
    let model = wf.learner("model", dc, algo);
    let mut scalar = {
        let pred = wf.predict("pred", model, dc);
        wf.reduce("stat0", pred, 1, |v, _| {
            let batch = v.as_collection()?.as_examples()?;
            let sum: f64 = batch.examples.iter().filter_map(|e| e.prediction).sum();
            Ok(Value::Scalar(Scalar::F64(sum)))
        })
    };
    for k in 0..suffix {
        scalar = wf.reduce(&format!("post{k}"), scalar, 1, |v, _| {
            let x = v.as_scalar()?.as_f64().unwrap_or(0.0);
            Ok(Value::Scalar(Scalar::F64(x + 1.0)))
        });
    }
    wf.output(scalar);
    wf
}

/// Names of the nodes strictly upstream of (and independent of) the
/// stochastic learner.
fn prefix_names(prefix: usize) -> Vec<String> {
    let mut names = vec!["src".to_string()];
    names.extend((0..prefix).map(|k| format!("pre{k}")));
    names
}

/// Names of the stochastic node and everything downstream of it.
fn stochastic_and_descendants(suffix: usize) -> Vec<String> {
    let mut names = vec!["model".to_string(), "pred".to_string(), "stat0".to_string()];
    names.extend((0..suffix).map(|k| format!("post{k}")));
    names
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (1) + (2): seeds fragment signatures from the first stochastic
    /// node downward — and nowhere else.
    #[test]
    fn seed_splits_signatures_exactly_at_stochastic_nodes(
        prefix in 0usize..4,
        suffix in 0usize..3,
        algo_ix in 0usize..3,
        seed_a in any::<u64>(),
        seed_delta in 1u64..=u64::MAX,
    ) {
        let seed_b = seed_a.wrapping_add(seed_delta); // distinct by construction
        let wf = stochastic_workflow(prefix, suffix, algo_ix);
        let nonces = HashMap::new();
        let sigs_a = chain_signatures(&wf, &nonces, &ExecEnv::new(seed_a));
        let sigs_b = chain_signatures(&wf, &nonces, &ExecEnv::new(seed_b));
        let at = |name: &str| wf.node_by_name(name).expect("node exists").ix();

        for name in prefix_names(prefix) {
            prop_assert_eq!(
                sigs_a[at(&name)], sigs_b[at(&name)],
                "seed-independent prefix node `{}` must share its signature across seeds", name
            );
        }
        for name in stochastic_and_descendants(suffix) {
            prop_assert_ne!(
                sigs_a[at(&name)], sigs_b[at(&name)],
                "node `{}` is stochastic or downstream of one; distinct seeds must never \
                 share its signature", name
            );
        }
        // Reflexivity: the same seed reproduces the same chain.
        prop_assert_eq!(sigs_a, chain_signatures(&wf, &nonces, &ExecEnv::new(seed_a)));
    }
}

/// Encoded outputs of one iteration report.
fn outputs_of(report: &helix::core::IterationReport) -> BTreeMap<String, Vec<u8>> {
    report.outputs.iter().map(|(name, value)| (name.clone(), encode_value(value))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// (3): solo strictly-serial ≡ service, tenants on distinct seeds,
    /// at 1/2/4/8 cores. The follower's seed-independent prefix rides
    /// the leader's artifacts; its bytes must not notice.
    #[test]
    fn solo_serial_equals_service_under_distinct_seeds(
        seed_a in any::<u64>(),
        seed_delta in 1u64..=u64::MAX,
        // LR or KMeans only: Word2Vec consumes token units, and this
        // test actually executes the workflow (the signature-level test
        // above still covers all three algorithms).
        algo_ix in 0usize..2,
    ) {
        let seed_b = seed_a.wrapping_add(seed_delta);
        let wf = || stochastic_workflow(2, 1, algo_ix);
        // Two-iteration schedule: initial build, then an identical rerun
        // (exercises compute, store, and reuse paths).
        let solo = |seed: u64| -> Vec<BTreeMap<String, Vec<u8>>> {
            let mut session = Session::new(
                SessionConfig::in_memory().with_workers(1).with_seed(seed).with_pipeline(false),
            )
            .expect("solo session opens");
            (0..2).map(|_| outputs_of(&session.run(&wf()).expect("solo run"))).collect()
        };
        let baseline_a = solo(seed_a);
        let baseline_b = solo(seed_b);

        for cores in [1usize, 2, 4, 8] {
            let config = ServiceConfig::new(cores).with_max_concurrent_iterations(2);
            let service = HelixService::new(config).expect("service starts");
            service.register_tenant("a", TenantSpec::default()).expect("registers");
            service.register_tenant("b", TenantSpec::default()).expect("registers");
            for (tenant, seed, baseline) in
                [("a", seed_a, &baseline_a), ("b", seed_b, &baseline_b)]
            {
                let session = service
                    .open_session(
                        tenant,
                        SessionConfig::in_memory().with_workers(cores).with_seed(seed),
                    )
                    .expect("session opens");
                let trace: Vec<BTreeMap<String, Vec<u8>>> = (0..2)
                    .map(|_| outputs_of(&session.run_iteration(wf()).expect("iteration runs")))
                    .collect();
                prop_assert_eq!(
                    &trace, baseline,
                    "tenant {} (seed {}) diverged from solo serial at {} cores",
                    tenant, seed, cores
                );
            }
        }
    }
}
