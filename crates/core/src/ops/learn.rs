//! Learning and inference operators (paper §3.2.2, `Learner`).
//!
//! The paper's Learner interface couples learning and inference in one
//! operator; we expose them as two DAG nodes — the model and the inference
//! output — which is strictly finer-grained for the optimizer (the model
//! can be reused while inference recomputes, exactly the Census Figure 3
//! scenario where `predictions` is deprecated by a model change but
//! `income` is not).

use crate::operator::{ExecContext, Operator, ProvenanceInputs};
use helix_common::{HelixError, Result};
use helix_data::{Example, ExampleBatch, FeatureBundle, Model, TransformModel, Value};
use helix_ml::{KMeans, LogisticRegression, NaiveBayes, RandomFourierFeatures, Word2Vec};
use std::sync::Arc;

/// The learning algorithms available to `Learner` declarations.
#[derive(Clone, Debug)]
pub enum Algo {
    /// Logistic regression (`modelType="LR"`), with the paper's regParam.
    LogisticRegression {
        /// L2 regularization strength.
        l2: f64,
        /// SGD epochs.
        epochs: usize,
    },
    /// K-means over example vectors.
    KMeans {
        /// Cluster count.
        k: usize,
    },
    /// Skip-gram word2vec over token units.
    Word2Vec {
        /// Embedding dimensionality.
        dim: usize,
        /// Training epochs.
        epochs: usize,
    },
    /// Multinomial naive Bayes.
    NaiveBayes {
        /// Laplace smoothing.
        alpha: f64,
    },
    /// Random Fourier features — *volatile*: the projection is re-drawn on
    /// every actual execution (paper §6.2: MNIST's nondeterministic DPR).
    RandomFourier {
        /// Output dimensionality.
        dim_out: usize,
        /// Kernel bandwidth.
        gamma: f64,
    },
}

impl Algo {
    /// Parameter rendering for declaration signatures: the algorithm, its
    /// hyperparameters and, past version 1, its kernel version as a
    /// `kernel=<v>` token. What a kernel computes is part of the
    /// declaration (paper §4.2, Definition 2), so a bump changes the
    /// signatures of exactly this learner's model and its descendants.
    /// A version-1 kernel renders no token and so keeps the signatures
    /// it had before versions existed.
    pub fn sig_params(&self) -> Vec<String> {
        let mut params = match self {
            Algo::LogisticRegression { l2, epochs } => {
                vec!["LR".into(), format!("l2={l2}"), format!("epochs={epochs}")]
            }
            Algo::KMeans { k } => vec!["KMeans".into(), format!("k={k}")],
            Algo::Word2Vec { dim, epochs } => {
                vec!["Word2Vec".into(), format!("dim={dim}"), format!("epochs={epochs}")]
            }
            Algo::NaiveBayes { alpha } => vec!["NB".into(), format!("alpha={alpha}")],
            Algo::RandomFourier { dim_out, gamma } => {
                vec!["RFF".into(), format!("dim_out={dim_out}"), format!("gamma={gamma}")]
            }
        };
        let version = self.kernel_version();
        if version > 1 {
            params.push(format!("kernel={version}"));
        }
        params
    }

    /// The version of the kernel that trains this algorithm's model. A
    /// kernel change that moves any bit of a model bumps it.
    fn kernel_version(&self) -> u32 {
        match self {
            Algo::LogisticRegression { .. } => helix_ml::logistic::KERNEL_VERSION,
            Algo::Word2Vec { .. } => helix_ml::word2vec::KERNEL_VERSION,
            _ => 1,
        }
    }

    /// Whether the algorithm is non-deterministic across executions.
    pub fn is_volatile(&self) -> bool {
        matches!(self, Algo::RandomFourier { .. })
    }

    /// Whether the algorithm consumes the session seed (SGD example
    /// shuffling, centroid init, embedding init, projection draw) — the
    /// declaration the tracker uses to fold the seed into the model
    /// node's signature. Naive Bayes is a closed-form count model: no
    /// seed, so its artifacts stay shareable across seeds.
    pub fn is_seeded(&self) -> bool {
        !matches!(self, Algo::NaiveBayes { .. })
    }
}

/// The learning operator: data in, model out.
pub struct Learner {
    /// Algorithm + hyperparameters.
    pub algo: Algo,
}

impl Operator for Learner {
    fn execute(&self, inputs: &[Arc<Value>], ctx: &ExecContext) -> Result<Value> {
        let [input] = inputs else {
            return Err(HelixError::exec("learner", "expects one input"));
        };
        let model = match &self.algo {
            Algo::LogisticRegression { l2, epochs } => {
                let batch = input.as_collection()?.as_examples()?;
                let dim = example_dim(batch);
                let trainer = LogisticRegression {
                    l2: *l2,
                    epochs: *epochs,
                    seed: ctx.seed(),
                    ..Default::default()
                };
                Model::Linear(trainer.fit(&ctx.pool, &batch.examples, dim)?)
            }
            Algo::KMeans { k } => {
                let batch = input.as_collection()?.as_examples()?;
                let points: Vec<helix_data::FeatureVector> =
                    batch.examples.iter().map(|e| e.features.clone()).collect();
                let trainer = KMeans { k: *k, seed: ctx.seed(), ..Default::default() };
                Model::Centroids(trainer.fit(&points)?)
            }
            Algo::Word2Vec { dim, epochs } => {
                let units = input.as_collection()?.as_units()?;
                let sentences: Vec<&[String]> = units
                    .units
                    .iter()
                    .filter_map(|u| match &u.features {
                        FeatureBundle::Tokens(ts) if !ts.is_empty() => Some(ts.as_slice()),
                        _ => None,
                    })
                    .collect();
                let trainer =
                    Word2Vec { dim: *dim, epochs: *epochs, seed: ctx.seed(), ..Default::default() };
                Model::Embeddings(trainer.fit(&sentences)?)
            }
            Algo::NaiveBayes { alpha } => {
                let batch = input.as_collection()?.as_examples()?;
                let dim = example_dim(batch);
                Model::NaiveBayes(NaiveBayes { alpha: *alpha }.fit(&batch.examples, dim)?)
            }
            Algo::RandomFourier { dim_out, gamma } => {
                let batch = input.as_collection()?.as_examples()?;
                let dim = example_dim(batch);
                let rff =
                    RandomFourierFeatures { dim_out: *dim_out, gamma: *gamma, seed: ctx.seed() };
                Model::Transform(rff.fit(dim)?)
            }
        };
        Ok(Value::Model(model))
    }

    fn byte_affecting_inputs(&self) -> ProvenanceInputs {
        if self.algo.is_seeded() {
            ProvenanceInputs::SEED
        } else {
            ProvenanceInputs::NONE
        }
    }
}

/// The inference operator: `(model, data) → inference results` (or
/// transformed features for DPR transforms).
///
/// For scoring models the output examples are *slim*: label, split, tag and
/// prediction only, with features dropped. This matches the paper's data
/// model — inference "infers feature values, i.e., labels" — and gives
/// inference outputs the small footprint that makes them cheap to
/// materialize (the MNIST discussion in §6.5.2 hinges on predictions being
/// far smaller than the DPR intermediates).
pub struct Predict;

/// Inference result without the input features.
fn slim(e: &Example, prediction: f64) -> Example {
    Example {
        features: helix_data::FeatureVector::Dense(Vec::new()),
        label: e.label,
        split: e.split,
        prediction: Some(prediction),
        tag: e.tag.clone(),
    }
}

impl Operator for Predict {
    fn execute(&self, inputs: &[Arc<Value>], ctx: &ExecContext) -> Result<Value> {
        let [model, data] = inputs else {
            return Err(HelixError::exec("predict", "expects (model, data)"));
        };
        let batch = data.as_collection()?.as_examples()?;
        match model.as_model()? {
            Model::Linear(m) => {
                let examples: Vec<Example> = ctx.pool.map(&batch.examples, |e| {
                    let scores = LogisticRegression::scores(m, &e.features);
                    let p = if scores.len() == 1 {
                        scores[0]
                    } else {
                        helix_ml::linalg::argmax(&scores).unwrap_or(0) as f64
                    };
                    slim(e, p)
                });
                Ok(Value::examples(ExampleBatch::dense(examples)))
            }
            Model::Centroids(m) => {
                let examples: Vec<Example> = ctx
                    .pool
                    .map(&batch.examples, |e| slim(e, KMeans::assign(m, &e.features) as f64));
                Ok(Value::examples(ExampleBatch::dense(examples)))
            }
            Model::NaiveBayes(m) => {
                let examples: Vec<Example> =
                    ctx.pool.map(&batch.examples, |e| slim(e, NaiveBayes::predict(m, &e.features)));
                Ok(Value::examples(ExampleBatch::dense(examples)))
            }
            Model::Transform(t @ TransformModel::RandomFourier { .. }) => {
                let examples: Result<Vec<Example>> = ctx
                    .pool
                    .map(&batch.examples, |e| {
                        Ok(Example {
                            features: RandomFourierFeatures::transform(t, &e.features)?,
                            label: e.label,
                            split: e.split,
                            prediction: e.prediction,
                            tag: e.tag.clone(),
                        })
                    })
                    .into_iter()
                    .collect();
                // Transformed features live in an anonymous dense space.
                Ok(Value::examples(ExampleBatch::dense(examples?)))
            }
            Model::Transform(_) => {
                Err(HelixError::exec("predict", "transform model not applicable to examples here"))
            }
            Model::Embeddings(_) => Err(HelixError::exec(
                "predict",
                "embeddings are consumed by embed-entities, not predict",
            )),
        }
    }
}

/// Feature dimensionality of a batch: the space when named, else the max
/// vector dimension (dense pipelines).
pub fn example_dim(batch: &ExampleBatch) -> usize {
    let space_dim = batch.space.dim();
    if space_dim > 0 {
        space_dim
    } else {
        batch.examples.iter().map(|e| e.features.dim()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_common::SplitMix64;
    use helix_data::{FeatureVector, Split};

    fn blob_examples(n: usize) -> ExampleBatch {
        let mut rng = SplitMix64::new(1);
        let examples = (0..n)
            .map(|i| {
                let label = (i % 2) as f64;
                let c = if label > 0.5 { 2.0 } else { -2.0 };
                Example::new(
                    FeatureVector::Dense(vec![
                        c + rng.next_gaussian() * 0.3,
                        c + rng.next_gaussian() * 0.3,
                    ]),
                    Some(label),
                    if i % 5 == 0 { Split::Test } else { Split::Train },
                )
            })
            .collect();
        ExampleBatch::dense(examples)
    }

    #[test]
    fn learner_lr_then_predict() {
        let batch = Arc::new(Value::examples(blob_examples(200)));
        let learner = Learner { algo: Algo::LogisticRegression { l2: 0.1, epochs: 10 } };
        let model = learner.execute(&[Arc::clone(&batch)], &ExecContext::serial(3)).unwrap();
        assert_eq!(model.as_model().unwrap().kind(), "linear");

        let out = Predict.execute(&[Arc::new(model), batch], &ExecContext::serial(3)).unwrap();
        let binding = out.as_collection().unwrap();
        let predicted = binding.as_examples().unwrap();
        let pairs: Vec<(f64, f64)> = predicted
            .examples
            .iter()
            .filter(|e| e.split == Split::Test)
            .map(|e| (e.label.unwrap(), e.prediction.unwrap()))
            .collect();
        assert!(helix_ml::metrics::accuracy(&pairs) > 0.9);
    }

    #[test]
    fn learner_kmeans_assigns_clusters() {
        let batch = Arc::new(Value::examples(blob_examples(100)));
        let model = Learner { algo: Algo::KMeans { k: 2 } }
            .execute(&[Arc::clone(&batch)], &ExecContext::serial(5))
            .unwrap();
        let out = Predict.execute(&[Arc::new(model), batch], &ExecContext::serial(5)).unwrap();
        let binding = out.as_collection().unwrap();
        let assigned = binding.as_examples().unwrap();
        let clusters: std::collections::HashSet<i64> =
            assigned.examples.iter().map(|e| e.prediction.unwrap() as i64).collect();
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn learner_rff_transforms_features() {
        let batch = Arc::new(Value::examples(blob_examples(20)));
        let model = Learner { algo: Algo::RandomFourier { dim_out: 16, gamma: 0.1 } }
            .execute(&[Arc::clone(&batch)], &ExecContext::serial(5))
            .unwrap();
        let out = Predict.execute(&[Arc::new(model), batch], &ExecContext::serial(5)).unwrap();
        let binding = out.as_collection().unwrap();
        let transformed = binding.as_examples().unwrap();
        assert_eq!(transformed.examples[0].features.dim(), 16);
        assert_eq!(transformed.examples[0].label, Some(0.0), "labels preserved");
    }

    #[test]
    fn rff_is_declared_volatile() {
        assert!(Algo::RandomFourier { dim_out: 8, gamma: 0.1 }.is_volatile());
        assert!(!Algo::LogisticRegression { l2: 0.1, epochs: 5 }.is_volatile());
    }

    #[test]
    fn seeded_algorithms_declare_seed_provenance() {
        for algo in [
            Algo::LogisticRegression { l2: 0.1, epochs: 5 },
            Algo::KMeans { k: 2 },
            Algo::Word2Vec { dim: 4, epochs: 1 },
            Algo::RandomFourier { dim_out: 8, gamma: 0.1 },
        ] {
            assert!(algo.is_seeded(), "{algo:?} draws on the seed");
            let learner = Learner { algo };
            assert_eq!(learner.byte_affecting_inputs(), ProvenanceInputs::SEED);
        }
        let nb = Learner { algo: Algo::NaiveBayes { alpha: 1.0 } };
        assert!(!nb.algo.is_seeded());
        assert_eq!(nb.byte_affecting_inputs(), ProvenanceInputs::NONE);
    }

    #[test]
    fn sig_params_distinguish_hyperparameters() {
        let a = Algo::LogisticRegression { l2: 0.1, epochs: 5 }.sig_params();
        let b = Algo::LogisticRegression { l2: 0.2, epochs: 5 }.sig_params();
        assert_ne!(a, b);
    }

    fn every_algo() -> [Algo; 5] {
        [
            Algo::LogisticRegression { l2: 0.1, epochs: 5 },
            Algo::KMeans { k: 4 },
            Algo::Word2Vec { dim: 32, epochs: 4 },
            Algo::NaiveBayes { alpha: 1.0 },
            Algo::RandomFourier { dim_out: 64, gamma: 0.05 },
        ]
    }

    #[test]
    fn lr_and_word2vec_render_their_kernel_versions() {
        let versions = [
            (Some(helix_ml::logistic::KERNEL_VERSION), "LR"),
            (None, "KMeans"),
            (Some(helix_ml::word2vec::KERNEL_VERSION), "Word2Vec"),
            (None, "NB"),
            (None, "RFF"),
        ];
        for (algo, (version, name)) in every_algo().into_iter().zip(versions) {
            let tokens = algo.sig_params();
            assert_eq!(tokens[0], name);
            let kernel: Vec<&String> = tokens.iter().filter(|t| t.starts_with("kernel=")).collect();
            match version {
                Some(v) => {
                    assert_eq!(kernel, [&format!("kernel={v}")], "{algo:?}");
                    assert!(v > 1 && algo.kernel_version() == v, "{algo:?}");
                }
                None => {
                    assert!(kernel.is_empty(), "{algo:?} renders {kernel:?}");
                    assert_eq!(algo.kernel_version(), 1, "{algo:?}");
                }
            }
        }
    }

    #[test]
    fn kernel_bumps_move_only_their_learners_signatures() {
        use crate::operator::decl_signature;
        let mut wf = crate::dsl::Workflow::new("kernels");
        let data = wf.source("data", 1, |_| Ok(Value::examples(blob_examples(4))));
        let decl_sig = |wf: &crate::dsl::Workflow, name: &str| {
            wf.dag().payload(wf.node_by_name(name).unwrap()).decl_sig
        };
        for (name, algo) in
            ["model", "kmeans", "word2vec", "nb", "rff"].into_iter().zip(every_algo())
        {
            wf.learner(name, data, algo);
        }
        // The bumped learners' version-1 signatures: a catalog entry of
        // the old kernel must never be loaded for the new one.
        let pre_bump: [&[&str]; 2] = [
            &["model", "LR", "l2=0.1", "epochs=5"],
            &["word2vec", "Word2Vec", "dim=32", "epochs=4"],
        ];
        for rendered in pre_bump {
            assert_ne!(
                decl_sig(&wf, rendered[0]),
                decl_signature("Learner", rendered),
                "the new kernel must not load old models: {rendered:?}"
            );
        }
        // Every version-1 learner keeps the signature it had before kernel
        // versions existed, so its catalog entries stay valid.
        let unchanged: [&[&str]; 3] = [
            &["kmeans", "KMeans", "k=4"],
            &["nb", "NB", "alpha=1"],
            &["rff", "RFF", "dim_out=64", "gamma=0.05"],
        ];
        for rendered in unchanged {
            assert_eq!(
                decl_sig(&wf, rendered[0]),
                decl_signature("Learner", rendered),
                "{rendered:?}"
            );
        }
    }

    #[test]
    fn predict_rejects_embedding_models() {
        let model = Arc::new(Value::Model(Model::Embeddings(helix_data::EmbeddingModel {
            vocab: Default::default(),
            vectors: vec![],
            dim: 0,
        })));
        let batch = Arc::new(Value::examples(blob_examples(5)));
        assert!(Predict.execute(&[model, batch], &ExecContext::serial(0)).is_err());
    }
}
