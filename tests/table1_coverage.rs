//! Paper Table 1: every Scikit-learn DPR/L/I/PPR operation maps onto
//! compositions of the basis functions `F` (paper §3.1). This test builds
//! each composition with the actual DSL and runs it, making the coverage
//! claim executable rather than rhetorical.

use helix_core::ops::Algo;
use helix_core::prelude::*;
use helix_data::{Example, ExampleBatch, FeatureVector, Scalar, Split, Value};

fn blob_source(wf: &mut Workflow) -> helix_core::dsl::DcHandle {
    // The generator draws on the context RNG, so the source must declare
    // itself seeded — its output (and the whole workflow downstream) is
    // keyed by seed and never shared across sessions with different
    // seeds. A plain `source` here fails loudly at execution time.
    wf.source_seeded("data", 1, |ctx| {
        let mut rng = ctx.rng();
        let examples: Vec<Example> = (0..200)
            .map(|i| {
                let label = (i % 2) as f64;
                let c = if label > 0.5 { 2.0 } else { -2.0 };
                Example::new(
                    FeatureVector::Dense(vec![
                        c + rng.next_gaussian() * 0.3,
                        c + rng.next_gaussian() * 0.3,
                    ]),
                    Some(label),
                    if i % 4 == 0 { Split::Test } else { Split::Train },
                )
            })
            .collect();
        Ok(Value::examples(ExampleBatch::dense(examples)))
    })
}

/// `fit(X, y)` — learning: D → f.
#[test]
fn sklearn_fit_maps_to_learning() {
    let mut session = Session::new(SessionConfig::in_memory()).unwrap();
    let mut wf = Workflow::new("fit");
    let data = blob_source(&mut wf);
    let model = wf.learner("model", data, Algo::LogisticRegression { l2: 0.1, epochs: 5 });
    wf.output(model);
    let report = session.run(&wf).unwrap();
    assert!(report.output("model").unwrap().as_model().is_ok());
}

/// `predict(X)` / `predict_proba(X)` — inference: (D, f) → Y.
#[test]
fn sklearn_predict_maps_to_inference() {
    let mut session = Session::new(SessionConfig::in_memory()).unwrap();
    let mut wf = Workflow::new("predict");
    let data = blob_source(&mut wf);
    let model = wf.learner("model", data, Algo::LogisticRegression { l2: 0.1, epochs: 5 });
    let predictions = wf.predict("predictions", model, data);
    wf.output(predictions);
    let report = session.run(&wf).unwrap();
    let out = report.output("predictions").unwrap();
    let binding = out.as_collection().unwrap();
    let batch = binding.as_examples().unwrap();
    assert!(batch.examples.iter().all(|e| e.prediction.is_some()));
}

/// `fit_transform(X)` — learning then inference, for a learned DPR
/// transform (random Fourier features).
#[test]
fn sklearn_fit_transform_maps_to_learned_transform() {
    let mut session = Session::new(SessionConfig::in_memory()).unwrap();
    let mut wf = Workflow::new("fit_transform");
    let data = blob_source(&mut wf);
    let rff = wf.learner("rff", data, Algo::RandomFourier { dim_out: 8, gamma: 0.2 });
    let transformed = wf.predict("transformed", rff, data);
    wf.output(transformed);
    let report = session.run(&wf).unwrap();
    let out = report.output("transformed").unwrap();
    let binding = out.as_collection().unwrap();
    assert_eq!(binding.as_examples().unwrap().examples[0].features.dim(), 8);
}

/// `score(y_true, y_pred)` — join + reduce.
#[test]
fn sklearn_score_maps_to_join_reduce() {
    let mut session = Session::new(SessionConfig::in_memory()).unwrap();
    let mut wf = Workflow::new("score");
    let data = blob_source(&mut wf);
    let model = wf.learner("model", data, Algo::LogisticRegression { l2: 0.1, epochs: 5 });
    let predictions = wf.predict("predictions", model, data);
    // The accuracy reducer joins labels with predictions element-wise and
    // reduces to a scalar — exactly Table 1's composition.
    let score = wf.accuracy("score", predictions);
    wf.output(score);
    let report = session.run(&wf).unwrap();
    let acc = report.output_scalar("score").unwrap().metric("accuracy").unwrap();
    assert!(acc > 0.9, "separable blobs: {acc}");
}

/// Model selection `fit(p1..pn)` — a reduce implemented in terms of
/// learning, inference, and scoring (hyperparameter search inside a
/// reducer UDF, as Table 1 describes).
#[test]
fn sklearn_model_selection_maps_to_reduce_over_learning() {
    let mut session = Session::new(SessionConfig::in_memory()).unwrap();
    let mut wf = Workflow::new("selection");
    let data = blob_source(&mut wf);
    let best = wf.reduce("best_l2", data, 1, |v, ctx| {
        let batch = v.as_collection()?.as_examples()?;
        let dim = 2;
        let mut best = (f64::NEG_INFINITY, 0.0f64);
        for l2 in [0.01, 0.1, 1.0] {
            let trainer = helix_ml::LogisticRegression { l2, epochs: 5, ..Default::default() };
            let model = trainer.fit(&ctx.pool, &batch.examples, dim)?;
            let pairs: Vec<(f64, f64)> = batch
                .examples
                .iter()
                .filter(|e| e.split == Split::Test)
                .map(|e| {
                    (
                        e.label.unwrap_or(0.0),
                        helix_ml::LogisticRegression::predict(&model, &e.features),
                    )
                })
                .collect();
            let acc = helix_ml::metrics::accuracy(&pairs);
            if acc > best.0 {
                best = (acc, l2);
            }
        }
        Ok(Value::Scalar(Scalar::Metrics(vec![
            ("best_accuracy".into(), best.0),
            ("best_l2".into(), best.1),
        ])))
    });
    wf.output(best);
    let report = session.run(&wf).unwrap();
    let scalar = report.output_scalar("best_l2").unwrap();
    assert!(scalar.metric("best_accuracy").unwrap() > 0.9);
    assert!(scalar.metric("best_l2").is_some());
}

/// `fit_predict(X)` — learning then inference in one step (clustering).
#[test]
fn sklearn_fit_predict_maps_to_learn_then_infer() {
    let mut session = Session::new(SessionConfig::in_memory()).unwrap();
    let mut wf = Workflow::new("fit_predict");
    let data = blob_source(&mut wf);
    let kmeans = wf.learner("kmeans", data, Algo::KMeans { k: 2 });
    let assigned = wf.predict("assigned", kmeans, data);
    let sizes = wf.cluster_summary("sizes", assigned, 2);
    wf.output(sizes);
    let report = session.run(&wf).unwrap();
    let sizes = report.output_scalar("sizes").unwrap();
    let c0 = sizes.metric("cluster_0").unwrap();
    let c1 = sizes.metric("cluster_1").unwrap();
    assert_eq!(c0 + c1, 200.0);
    assert!(c0 > 50.0 && c1 > 50.0, "two balanced blobs: {c0} vs {c1}");
}
