//! Property-based tests on the core invariants of the reproduction:
//!
//! * OPT-EXEC-PLAN optimality (max-flow == brute force) on random DAGs;
//! * storage-codec round-trips over arbitrary values;
//! * signature chaining sensitivity and stability;
//! * feature-vector algebra across layouts.

use helix_common::hash::Signature;
use helix_data::{
    Example, ExampleBatch, FeatureVector, FieldValue, Record, RecordBatch, Scalar, Schema, Split,
    Value,
};
use helix_flow::oep::{NodeCosts, OepProblem};
use helix_flow::{Dag, NodeId};
use helix_storage::{decode_value, encode_value, encoded_len};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_field_value() -> impl Strategy<Value = FieldValue> {
    prop_oneof![
        Just(FieldValue::Null),
        any::<i64>().prop_map(FieldValue::Int),
        // Finite floats only: the record model (like SQL) treats NaN as
        // data, but PartialEq-based roundtrip assertions need comparability.
        (-1e15f64..1e15).prop_map(FieldValue::Float),
        "[a-zA-Z0-9 _-]{0,24}".prop_map(FieldValue::Text),
    ]
}

fn arb_records() -> impl Strategy<Value = Value> {
    (1usize..6).prop_flat_map(|arity| {
        let columns: Vec<String> = (0..arity).map(|i| format!("col{i}")).collect();
        prop::collection::vec(
            (prop::collection::vec(arb_field_value(), arity), prop::bool::ANY),
            0..30,
        )
        .prop_map(move |rows| {
            let schema = Schema::new(columns.clone());
            let rows = rows
                .into_iter()
                .map(|(values, train)| Record {
                    values,
                    split: if train { Split::Train } else { Split::Test },
                })
                .collect();
            Value::records(RecordBatch::new(schema, rows).unwrap())
        })
    })
}

fn arb_sparse_vector() -> impl Strategy<Value = FeatureVector> {
    (1u32..256, prop::collection::vec((0u32..256, -100.0f64..100.0), 0..20)).prop_map(
        |(dim_extra, pairs)| {
            let dim = 256 + dim_extra;
            let pairs = pairs.into_iter().filter(|(i, _)| *i < dim).collect();
            FeatureVector::sparse_from_pairs(dim, pairs)
        },
    )
}

fn arb_examples() -> impl Strategy<Value = Value> {
    prop::collection::vec(
        (arb_sparse_vector(), prop::option::of(0.0f64..10.0), prop::bool::ANY),
        0..20,
    )
    .prop_map(|rows| {
        let examples = rows
            .into_iter()
            .map(|(features, label, train)| {
                Example::new(features, label, if train { Split::Train } else { Split::Test })
            })
            .collect();
        Value::examples(ExampleBatch::dense(examples))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any record batch survives an encode/decode round trip bit-exactly.
    #[test]
    fn codec_roundtrips_records(value in arb_records()) {
        let bytes = encode_value(&value);
        prop_assert_eq!(encoded_len(&value), bytes.len() as u64);
        let decoded = decode_value(&bytes).unwrap();
        let (a, b) = (value.as_collection().unwrap(), decoded.as_collection().unwrap());
        prop_assert_eq!(a.as_records().unwrap(), b.as_records().unwrap());
    }

    /// Any example batch survives a round trip.
    #[test]
    fn codec_roundtrips_examples(value in arb_examples()) {
        let bytes = encode_value(&value);
        prop_assert_eq!(encoded_len(&value), bytes.len() as u64);
        let decoded = decode_value(&bytes).unwrap();
        let a = value.as_collection().unwrap().as_examples().unwrap().examples.clone();
        let b = decoded.as_collection().unwrap().as_examples().unwrap().examples.clone();
        prop_assert_eq!(a, b);
    }

    /// Scalars (including metric bundles) round trip.
    #[test]
    fn codec_roundtrips_scalars(
        metrics in prop::collection::vec(("[a-z]{1,8}", -1e9f64..1e9), 0..8)
    ) {
        let value = Value::Scalar(Scalar::Metrics(
            metrics.into_iter().collect(),
        ));
        let bytes = encode_value(&value);
        prop_assert_eq!(encoded_len(&value), bytes.len() as u64);
        let decoded = decode_value(&bytes).unwrap();
        prop_assert_eq!(value.as_scalar().unwrap(), decoded.as_scalar().unwrap());
    }

    /// Corrupting any single byte of a frame is always detected.
    #[test]
    fn codec_detects_any_single_byte_corruption(
        value in arb_records(),
        position_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_value(&value);
        let pos = (position_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        prop_assert!(decode_value(&bytes).is_err(), "corruption at {pos} undetected");
    }

    /// The max-flow OEP solution always matches the exhaustive optimum.
    #[test]
    fn oep_maxflow_matches_brute_force(
        n in 2usize..8,
        edge_bits in any::<u64>(),
        cost_seed in any::<u64>(),
    ) {
        let mut dag: Dag<()> = Dag::new();
        let ids: Vec<NodeId> = (0..n).map(|_| dag.add_node(())).collect();
        let mut bit = 0;
        for i in 1..n {
            for j in 0..i {
                if (edge_bits >> (bit % 64)) & 1 == 1 {
                    dag.add_edge(ids[j], ids[i]).unwrap();
                }
                bit += 1;
            }
        }
        let mut rng = helix_common::SplitMix64::new(cost_seed);
        let costs: Vec<NodeCosts> = (0..n)
            .map(|i| {
                let compute = 1 + rng.next_below(40);
                let load = rng.chance(0.6).then(|| 1 + rng.next_below(40));
                let mut c = NodeCosts::new(compute, load);
                if rng.chance(0.25) {
                    c = c.forced();
                } else if i == n - 1 {
                    c = c.required();
                }
                c
            })
            .collect();
        let problem = OepProblem::new(&dag, &costs);
        let fast = problem.solve();
        let slow = problem.solve_brute_force();
        prop_assert!(problem.is_feasible(&fast.states));
        prop_assert_eq!(fast.total_cost, slow.total_cost);
    }

    /// Signature chaining: equal inputs → equal signature; any parent
    /// change propagates.
    #[test]
    fn signature_chain_props(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let base = Signature::of_str("decl");
        let s1 = base.chain_u64(a).chain_u64(b);
        let s2 = base.chain_u64(a).chain_u64(b);
        prop_assert_eq!(s1, s2);
        if b != c {
            prop_assert_ne!(s1, base.chain_u64(a).chain_u64(c));
            prop_assert_ne!(s1, base.chain_u64(c).chain_u64(b));
        }
        if a != b {
            prop_assert_ne!(
                base.chain_u64(a).chain_u64(b),
                base.chain_u64(b).chain_u64(a),
                "chaining must be order-dependent"
            );
        }
    }

    /// Sparse and dense vector algebra agree.
    #[test]
    fn vector_layouts_agree(v in arb_sparse_vector(), weights_seed in any::<u64>()) {
        let dim = v.dim();
        let mut rng = helix_common::SplitMix64::new(weights_seed);
        let weights: Vec<f64> = (0..dim).map(|_| rng.range_f64(-2.0, 2.0)).collect();
        let dense = FeatureVector::Dense(v.to_dense());
        prop_assert!((v.dot_dense(&weights) - dense.dot_dense(&weights)).abs() < 1e-9);
        prop_assert!((v.l2_norm() - dense.l2_norm()).abs() < 1e-9);
        prop_assert!((v.sq_dist_dense(&weights) - dense.sq_dist_dense(&weights)).abs() < 1e-6);
    }

    /// Example batches keep their feature space through the codec,
    /// including provenance owners.
    #[test]
    fn codec_preserves_feature_space(names in prop::collection::hash_set("[a-z]{1,10}", 1..10)) {
        let mut space = helix_data::FeatureSpace::new();
        for (i, name) in names.iter().enumerate() {
            space.intern(name, (i % 3) as u32);
        }
        let sig_before = space.signature();
        let batch = ExampleBatch::new(
            Arc::new(space),
            vec![Example::new(FeatureVector::zeros(names.len()), None, Split::Train)],
        );
        let decoded = decode_value(&encode_value(&Value::examples(batch))).unwrap();
        let decoded_space =
            decoded.as_collection().unwrap().as_examples().unwrap().space.clone();
        prop_assert_eq!(decoded_space.signature(), sig_before);
    }
}
