//! # helix-ml
//!
//! The machine-learning operator substrate of the HELIX reproduction. The
//! paper's system delegated these to Spark MLlib, CoreNLP, DeepLearning4j
//! and word2vec; we implement the required algorithms from scratch so the
//! four evaluation workloads run end-to-end in pure Rust:
//!
//! * [`logistic`] — logistic regression via mini-batch SGD with L2
//!   regularization (Census + IE workloads: `Learner(modelType="LR")`).
//! * [`kmeans`] — Lloyd's algorithm with k-means++ seeding (Genomics
//!   clustering step).
//! * [`word2vec`] — skip-gram with negative sampling (Genomics embedding
//!   step, paper citation 46).
//! * [`naive_bayes`] — multinomial naive Bayes (used by ablations and as
//!   an alternative L/I operator).
//! * [`rff`] — random Fourier features (the MNIST workload's
//!   non-deterministic featurization, from the KeystoneML pipeline).
//! * [`pca`] — power-iteration PCA, the deterministic counterpart used by
//!   the volatility ablation.
//! * [`preprocess`] — learned DPR transforms: standard scaler, quantile
//!   bucketizer (Census `Bucketizer(ageExt, bins=10)`), string indexer.
//! * [`text`] — tokenization, stop words, n-grams, sentence splitting and
//!   a rule-based part-of-speech-style tagger (IE workload features; the
//!   paper used CoreNLP).
//! * [`metrics`] — accuracy, precision/recall/F1, log-loss, and normalized
//!   mutual information for clustering quality.
//! * [`linalg`] — the small shared numeric kernels.
//!
//! Every algorithm takes an explicit seed and is deterministic given it.
//!
//! Beyond `helix-common` and `helix-data`, the crate depends on
//! `helix-exec` for its [`WorkerPool`](helix_exec::WorkerPool):
//! [`LogisticRegression::fit`] trains one-vs-rest heads on the caller's
//! pool, with a model that is bit-identical at any pool width.

pub mod kmeans;
pub mod linalg;
pub mod logistic;
pub mod metrics;
pub mod naive_bayes;
pub mod pca;
pub mod preprocess;
pub mod rff;
pub mod text;
pub mod word2vec;

pub use kmeans::KMeans;
pub use logistic::LogisticRegression;
pub use naive_bayes::NaiveBayes;
pub use pca::Pca;
pub use rff::RandomFourierFeatures;
pub use word2vec::Word2Vec;
