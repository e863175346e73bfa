//! Logistic regression via SGD with L2 regularization.
//!
//! This is the `Learner(modelType="LR", regParam=0.1)` of the paper's
//! Census example (Figure 3a, line 15) and the classifier of the IE
//! workload. Binary problems train a single weight vector; multiclass
//! problems (MNIST) train one-vs-rest.
//!
//! Training is deterministic given the seed: examples are shuffled with a
//! `SplitMix64` stream per epoch.
//!
//! # The update order and the arithmetic are the specification
//!
//! A model's bits are those of one serial sequence in `f32`, widened to
//! `f64` once when the model is returned. [`LogisticRegression::fit`]
//! copies the labeled `Train` rows once, in example order, into `f32`:
//! a dense row's first `dim` values, zero-padded to `width`, `dim`
//! rounded up to a multiple of eight; a sparse row's entries with index
//! `< dim`, values narrowed in entry order. Each head keeps `width` `f32`
//! weights from zero and an `f64` bias from zero. Per epoch the rows are
//! shuffled, `lr = learning_rate / (1 + epoch)` and `decay = 1 − lr·l2 /
//! rows` are computed in `f64`, and `decay` is narrowed. Then for each
//! row in shuffled order and each head in order:
//!
//! 1. `dot = row · w`. On a dense row, in eight lanes: lane `l` sums the
//!    terms `k ≡ l (mod 8)` over all `width` terms, in order of `k`, from
//!    zero, and the lanes reduce in word2vec's tree, `((a0 + a4) + (a2 +
//!    a6)) + ((a1 + a5) + (a3 + a7))`. On a sparse row, one sum over the
//!    entries in order, from zero;
//! 2. `g = sigmoid(dot + b) − target` in `f64`, with `dot` widened, and
//!    `scale = −lr·g` computed in `f64` and narrowed;
//! 3. a dense row applies `w[k] = w[k]·decay + x[k]·scale` for every `k <
//!    width`. The zero padding is arithmetic too: a padded term adds the
//!    signed zero `0·scale`. A sparse row applies `w[k] *= decay` for
//!    every `k`, then `w[j] += v·scale` per entry in order;
//! 4. `b −= lr·g` in `f64`.
//!
//! A change to any of this changes the bits of a trained model, so it
//! bumps [`KERNEL_VERSION`], which the `Learner` declaration folds into
//! the model's signature. [`LogisticRegression::scores`] is outside it:
//! it scores in `f64` over the widened weights.
//!
//! # How `fit` runs it
//!
//! The packed copy means an SGD step reads its row's slab slices instead
//! of chasing an `Example` and its `Vec`s in shuffled order; the paper's
//! Census LR trains on 97 features with about 6 set per row, and IE's on
//! 11 with about 4.
//!
//! One-vs-rest heads are independent: head `h`'s update reads and writes
//! only `w_h` and `b_h`. So `fit` splits the heads into contiguous
//! groups, one per pool worker, and trains the groups on
//! [`WorkerPool::map`] over the one packed set. Each group replays the
//! same seeded shuffle, so the model is bit-identical at any pool width
//! and any core grant. Within a group, each row first takes every head's
//! dot product and then applies the updates in head order. A dense dot
//! stores its eight lane sums before it reduces them, and the update is
//! a flat loop over `width`; both compile to four-wide `f32` vector code.

use crate::linalg::{self, lane_sum, sigmoid};
use helix_common::{HelixError, Result, SplitMix64};
use helix_data::{Example, FeatureVector, LinearModel, Split};
use helix_exec::WorkerPool;
use std::ops::Range;

/// The version of the arithmetic [`LogisticRegression::fit`] applies
/// (module docs). Version 1 trained in `f64` with one accumulator per dot
/// product; version 2 trains in `f32` with eight-lane dense dot products.
/// A change that moves any bit of a trained model bumps it.
pub const KERNEL_VERSION: u32 = 2;

/// Logistic-regression trainer configuration.
#[derive(Clone, Debug)]
pub struct LogisticRegression {
    /// L2 regularization strength (the paper's `regParam`).
    pub l2: f64,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Initial learning rate (decays as `lr / (1 + epoch)`).
    pub learning_rate: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        LogisticRegression { l2: 0.1, epochs: 12, learning_rate: 0.5, seed: 42 }
    }
}

/// One head's `f32` weights, `width` long, and its `f64` bias.
type Head = (Vec<f32>, f64);

impl LogisticRegression {
    /// Fit on the `Train` split of `examples`. Labels must be integers in
    /// `0..k`; `k = 2` yields a single-score binary model, trained inline.
    /// A multiclass model trains its one-vs-rest heads in `pool.workers()`
    /// contiguous groups over `pool.map`; the result does not depend on
    /// the pool width or on how many threads a budgeted pool is granted.
    pub fn fit(&self, pool: &WorkerPool, examples: &[Example], dim: usize) -> Result<LinearModel> {
        let train = Packed::new(examples, dim);
        if train.rows.is_empty() {
            return Err(HelixError::ml("logistic regression: no labeled training examples"));
        }
        let classes = train.rows.iter().map(|(label, _)| *label as i64).max().unwrap_or(0).max(1)
            as usize
            + 1;
        if classes > 1_000 {
            return Err(HelixError::ml(format!("implausible class count {classes}")));
        }
        let heads = if classes == 2 { 1 } else { classes };
        let groups = pool.workers().min(heads);
        let ranges: Vec<Range<usize>> =
            (0..groups).map(|g| g * heads / groups..(g + 1) * heads / groups).collect();
        let trained =
            pool.map(&ranges, |range| self.train_heads(&train, range.clone(), heads == 1));
        let widen = |(w, b): Head| (w[..dim].iter().map(|&x| f64::from(x)).collect(), b);
        let (weights, bias) = trained.into_iter().flatten().map(widen).unzip();
        Ok(LinearModel { weights, bias, dim: dim as u32 })
    }

    /// Train heads `range` with the module docs' sequence: the seeded
    /// shuffle every group replays, and per row, every head's dot product
    /// and then each head's update in turn.
    ///
    /// The L2 shrink is an eager pass over all `width` weights per row
    /// per head; at the workloads' dims (97 for Census, 11 for IE) it
    /// costs less than the row fetch the packed layout removed.
    fn train_heads(&self, train: &Packed, range: Range<usize>, binary: bool) -> Vec<Head> {
        let mut heads: Vec<Head> = vec![(vec![0.0; train.width], 0.0); range.len()];
        // Per row, every head's `row · w` before any head's update.
        let mut lanes = vec![[0.0; 8]; range.len()];
        let mut dots = vec![0.0; range.len()];
        let mut order: Vec<usize> = (0..train.rows.len()).collect();
        let mut rng = SplitMix64::new(self.seed);
        for epoch in 0..self.epochs {
            rng.shuffle(&mut order);
            let lr = self.learning_rate / (1.0 + epoch as f64);
            let decay = (1.0 - lr * self.l2 / train.rows.len() as f64) as f32;
            for &i in &order {
                let (label, row) = &train.rows[i];
                train.dots(row, &heads, &mut lanes, &mut dots);
                for ((h, (w, b)), dot) in range.clone().zip(heads.iter_mut()).zip(&dots) {
                    let target = if binary {
                        *label
                    } else if (*label as usize) == h {
                        1.0
                    } else {
                        0.0
                    };
                    let gradient = sigmoid(f64::from(*dot) + *b) - target;
                    let scale = (-lr * gradient) as f32;
                    match row {
                        Row::Dense(span) => {
                            for (wk, x) in w.iter_mut().zip(&train.dense[span.clone()]) {
                                *wk = *wk * decay + x * scale;
                            }
                        }
                        Row::Sparse(span) => {
                            for wk in w.iter_mut() {
                                *wk *= decay;
                            }
                            let (indices, values) = train.entries(span);
                            for (j, v) in indices.iter().zip(values) {
                                w[*j as usize] += v * scale;
                            }
                        }
                    }
                    *b -= lr * gradient;
                }
            }
        }
        heads
    }

    /// Predicted probability (binary) or class scores (multiclass) for one
    /// feature vector.
    pub fn scores(model: &LinearModel, features: &FeatureVector) -> Vec<f64> {
        let weights = &model.weights[..model.weights.len().min(model.bias.len())];
        let len = weights.first().map_or(0, Vec::len);
        let mut scores = vec![0.0; weights.len()];
        match features {
            // `dot_dense`'s sums, several heads at once. Heads of unequal
            // length would each stop at their own, so they go one by one.
            FeatureVector::Dense(x) if weights.iter().all(|w| w.len() == len) => {
                linalg::dots(&x[..x.len().min(len)], |h| &weights[h], 0.0, &mut scores);
            }
            _ => {
                for (score, w) in scores.iter_mut().zip(weights) {
                    *score = features.dot_dense(w);
                }
            }
        }
        for (score, b) in scores.iter_mut().zip(&model.bias) {
            *score = sigmoid(*score + b);
        }
        scores
    }

    /// Hard prediction: probability threshold for binary, argmax for
    /// multiclass.
    pub fn predict(model: &LinearModel, features: &FeatureVector) -> f64 {
        let scores = Self::scores(model, features);
        if scores.len() == 1 {
            if scores[0] >= 0.5 {
                1.0
            } else {
                0.0
            }
        } else {
            crate::linalg::argmax(&scores).unwrap_or(0) as f64
        }
    }
}

/// One training row of a [`Packed`] set.
enum Row {
    /// A dense row's span of the packed dense slab, `width` long.
    Dense(Range<usize>),
    /// A sparse row's span of the packed index and value slabs.
    Sparse(Range<usize>),
}

/// The labeled `Train` rows of one fit in `f32`, packed once and shared
/// by every head group (see the module docs).
struct Packed {
    /// `(label, row)` per training example, in example order.
    rows: Vec<(f64, Row)>,
    /// `dim` rounded up to a multiple of eight: the length of every dense
    /// row and of every head's weights.
    width: usize,
    /// Every dense row's first `dim` values, zero-padded to `width`, back
    /// to back.
    dense: Vec<f32>,
    /// Every sparse row's entries with index `< dim`, back to back.
    indices: Vec<u32>,
    /// The values parallel to `indices`.
    values: Vec<f32>,
}

impl Packed {
    fn new(examples: &[Example], dim: usize) -> Packed {
        let width = dim.next_multiple_of(8);
        let mut packed = Packed {
            rows: Vec::new(),
            width,
            dense: Vec::new(),
            indices: Vec::new(),
            values: Vec::new(),
        };
        for example in examples.iter().filter(|e| e.split == Split::Train) {
            let Some(label) = example.label else { continue };
            let row = match &example.features {
                FeatureVector::Dense(x) => {
                    let start = packed.dense.len();
                    packed.dense.extend(x.iter().take(dim).map(|&v| v as f32));
                    packed.dense.resize(start + width, 0.0);
                    Row::Dense(start..start + width)
                }
                FeatureVector::Sparse { indices, values, .. } => {
                    let start = packed.indices.len();
                    for (j, v) in indices.iter().zip(values).filter(|(j, _)| (**j as usize) < dim) {
                        packed.indices.push(*j);
                        packed.values.push(*v as f32);
                    }
                    Row::Sparse(start..packed.indices.len())
                }
            };
            packed.rows.push((label, row));
        }
        packed
    }

    fn entries(&self, span: &Range<usize>) -> (&[u32], &[f32]) {
        (&self.indices[span.clone()], &self.values[span.clone()])
    }

    /// `out[h] = row · w_h` for every head, summed as the module docs
    /// say. A dense row's eight lane sums go through `lanes`: stored
    /// there, they vectorize as two four-wide sums instead of four
    /// two-wide ones.
    fn dots(&self, row: &Row, heads: &[Head], lanes: &mut [[f32; 8]], out: &mut [f32]) {
        match row {
            Row::Dense(span) => {
                let (x, _) = self.dense[span.clone()].as_chunks::<8>();
                for ((w, _), lanes) in heads.iter().zip(lanes.iter_mut()) {
                    let mut a = [0.0f32; 8];
                    for (xb, wb) in x.iter().zip(w.as_chunks::<8>().0) {
                        for ((a, &xl), &wl) in a.iter_mut().zip(xb).zip(wb) {
                            *a += xl * wl;
                        }
                    }
                    *lanes = a;
                }
                for (out, lanes) in out.iter_mut().zip(lanes.iter()) {
                    *out = lane_sum(*lanes);
                }
            }
            Row::Sparse(span) => {
                let (indices, values) = self.entries(span);
                for ((w, _), out) in heads.iter().zip(out) {
                    *out = indices
                        .iter()
                        .zip(values)
                        .fold(0.0, |acc, (j, v)| acc + v * w[*j as usize]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_data::Split;

    fn example(x: Vec<f64>, label: f64, split: Split) -> Example {
        Example::new(FeatureVector::Dense(x), Some(label), split)
    }

    /// Linearly separable blob pair.
    fn blobs(n: usize, seed: u64) -> Vec<Example> {
        let mut rng = SplitMix64::new(seed);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let label = (i % 2) as f64;
            let center = if label > 0.5 { 2.0 } else { -2.0 };
            let x = vec![center + rng.next_gaussian() * 0.5, center + rng.next_gaussian() * 0.5];
            let split = if i % 5 == 0 { Split::Test } else { Split::Train };
            out.push(example(x, label, split));
        }
        out
    }

    #[test]
    fn separable_binary_problem_learned() {
        let data = blobs(400, 7);
        let model = LogisticRegression::default().fit(&WorkerPool::serial(), &data, 2).unwrap();
        assert_eq!(model.classes(), 1);
        let mut correct = 0;
        let mut total = 0;
        for e in data.iter().filter(|e| e.split == Split::Test) {
            let p = LogisticRegression::predict(&model, &e.features);
            total += 1;
            if (p - e.label.unwrap()).abs() < 0.5 {
                correct += 1;
            }
        }
        assert!(total > 0);
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn multiclass_one_vs_rest() {
        let mut rng = SplitMix64::new(3);
        let mut data = Vec::new();
        let centers = [(0.0, 4.0), (4.0, -4.0), (-4.0, -4.0)];
        for i in 0..600 {
            let c = i % 3;
            let (cx, cy) = centers[c];
            data.push(example(
                vec![cx + rng.next_gaussian() * 0.4, cy + rng.next_gaussian() * 0.4],
                c as f64,
                if i % 4 == 0 { Split::Test } else { Split::Train },
            ));
        }
        let model = LogisticRegression::default().fit(&WorkerPool::serial(), &data, 2).unwrap();
        assert_eq!(model.classes(), 3);
        let mut correct = 0;
        let mut total = 0;
        for e in data.iter().filter(|e| e.split == Split::Test) {
            total += 1;
            if (LogisticRegression::predict(&model, &e.features) - e.label.unwrap()).abs() < 0.5 {
                correct += 1;
            }
        }
        assert!(correct as f64 / total as f64 > 0.9);
    }

    #[test]
    fn sparse_features_train_too() {
        let mut data = Vec::new();
        for i in 0..200 {
            let label = (i % 2) as f64;
            let idx = if label > 0.5 { 0 } else { 1 };
            data.push(Example::new(
                FeatureVector::sparse_from_pairs(4, vec![(idx, 1.0), (3, 0.1)]),
                Some(label),
                Split::Train,
            ));
        }
        let model = LogisticRegression::default().fit(&WorkerPool::serial(), &data, 4).unwrap();
        let pos = LogisticRegression::scores(
            &model,
            &FeatureVector::sparse_from_pairs(4, vec![(0, 1.0)]),
        )[0];
        let neg = LogisticRegression::scores(
            &model,
            &FeatureVector::sparse_from_pairs(4, vec![(1, 1.0)]),
        )[0];
        assert!(pos > 0.8, "pos {pos}");
        assert!(neg < 0.2, "neg {neg}");
    }

    #[test]
    fn regularization_shrinks_weights() {
        let data = blobs(200, 11);
        let loose = LogisticRegression { l2: 0.0, ..Default::default() }
            .fit(&WorkerPool::serial(), &data, 2)
            .unwrap();
        let tight = LogisticRegression { l2: 50.0, ..Default::default() }
            .fit(&WorkerPool::serial(), &data, 2)
            .unwrap();
        let norm = |m: &LinearModel| m.weights[0].iter().map(|w| w * w).sum::<f64>().sqrt();
        assert!(norm(&tight) < norm(&loose), "l2 must shrink weights");
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs(100, 5);
        let a = LogisticRegression::default().fit(&WorkerPool::serial(), &data, 2).unwrap();
        let b = LogisticRegression::default().fit(&WorkerPool::serial(), &data, 2).unwrap();
        assert_eq!(a, b);
        let c = LogisticRegression { seed: 99, ..Default::default() }
            .fit(&WorkerPool::serial(), &data, 2)
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn no_training_data_is_an_error() {
        let data = vec![example(vec![1.0], 1.0, Split::Test)];
        assert!(LogisticRegression::default().fit(&WorkerPool::serial(), &data, 1).is_err());
    }

    /// The specification of [`LogisticRegression::fit`]: every head on one
    /// thread, one shared shuffle, each dot product summed term by term
    /// into lane `k % 8`, and a separate decay pass before a sparse row's
    /// adds.
    fn reference_fit(lr: &LogisticRegression, examples: &[Example], dim: usize) -> LinearModel {
        let train: Vec<&Example> =
            examples.iter().filter(|e| e.split == Split::Train && e.label.is_some()).collect();
        let classes = train.iter().map(|e| e.label.unwrap_or(0.0) as i64).max().unwrap_or(0).max(1)
            as usize
            + 1;
        let heads = if classes == 2 { 1 } else { classes };
        let width = dim.div_ceil(8) * 8;
        let mut weights = vec![vec![0.0f32; width]; heads];
        let mut bias = vec![0.0f64; heads];
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut rng = SplitMix64::new(lr.seed);
        for epoch in 0..lr.epochs {
            rng.shuffle(&mut order);
            let rate = lr.learning_rate / (1.0 + epoch as f64);
            let decay = (1.0 - rate * lr.l2 / train.len() as f64) as f32;
            for &i in &order {
                let example = train[i];
                let label = example.label.unwrap_or(0.0);
                // The row in `f32`: a dense one cut at `dim` and
                // zero-padded to `width`, a sparse one without the entries
                // past `dim`.
                let row = &example.features;
                let (dense, entries): (Option<Vec<f32>>, Vec<(usize, f32)>) = match row {
                    FeatureVector::Dense(x) => {
                        let mut x: Vec<f32> = x.iter().take(dim).map(|&v| v as f32).collect();
                        x.resize(width, 0.0);
                        (Some(x), Vec::new())
                    }
                    FeatureVector::Sparse { indices, values, .. } => {
                        let entries = indices.iter().zip(values).map(|(j, v)| (*j as usize, *v));
                        let entries = entries.filter(|(j, _)| *j < dim);
                        (None, entries.map(|(j, v)| (j, v as f32)).collect())
                    }
                };
                for (h, (w, b)) in weights.iter_mut().zip(bias.iter_mut()).enumerate() {
                    let target = if heads == 1 {
                        label
                    } else if (label as usize) == h {
                        1.0
                    } else {
                        0.0
                    };
                    let dot = match &dense {
                        Some(x) => {
                            let mut a = [0.0f32; 8];
                            for (k, (x, w)) in x.iter().zip(w.iter()).enumerate() {
                                a[k % 8] += x * w;
                            }
                            ((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7]))
                        }
                        None => entries.iter().fold(0.0f32, |acc, &(j, v)| acc + v * w[j]),
                    };
                    let gradient = sigmoid(dot as f64 + *b) - target;
                    let scale = (-rate * gradient) as f32;
                    match &dense {
                        Some(x) => {
                            for (w, x) in w.iter_mut().zip(x) {
                                *w = *w * decay + x * scale;
                            }
                        }
                        None => {
                            for w in w.iter_mut() {
                                *w *= decay;
                            }
                            for &(j, v) in &entries {
                                w[j] += v * scale;
                            }
                        }
                    }
                    *b -= rate * gradient;
                }
            }
        }
        let weights = weights.iter().map(|w| w[..dim].iter().map(|&x| x as f64).collect());
        LinearModel { weights: weights.collect(), bias, dim: dim as u32 }
    }

    fn bits(model: &LinearModel) -> (Vec<Vec<u64>>, Vec<u64>) {
        let weights = model.weights.iter().map(|w| w.iter().map(|x| x.to_bits()).collect());
        (weights.collect(), model.bias.iter().map(|b| b.to_bits()).collect())
    }

    /// `n` labeled examples over `classes` labels, four ones each in a
    /// sparse space of `dim`.
    fn sparse(n: usize, classes: usize, dim: u32) -> Vec<Example> {
        let mut rng = SplitMix64::new(classes as u64);
        let pairs = |rng: &mut SplitMix64| -> Vec<(u32, f64)> {
            (0..4).map(|_| (rng.next_below(dim as u64) as u32, 1.0)).collect()
        };
        let rows = (0..n).map(|_| FeatureVector::sparse_from_pairs(dim, pairs(&mut rng)));
        with_labels(rows.collect(), classes)
    }

    /// `n` labeled examples over `classes` labels; example `i` is dense
    /// with length `lens[i % lens.len()]`.
    fn dense(n: usize, classes: usize, lens: &[usize]) -> Vec<Example> {
        let mut rng = SplitMix64::new(classes as u64);
        let rows = (0..n).map(|i| {
            let len = lens[i % lens.len()];
            let x = (0..len).map(|j| ((i + j) % classes) as f64 * 0.3 + rng.next_gaussian());
            FeatureVector::Dense(x.collect())
        });
        with_labels(rows.collect(), classes)
    }

    fn with_labels(rows: Vec<FeatureVector>, classes: usize) -> Vec<Example> {
        let split = |i: usize| if i.is_multiple_of(7) { Split::Test } else { Split::Train };
        let rows = rows.into_iter().enumerate();
        rows.map(|(i, x)| Example::new(x, Some((i % classes) as f64), split(i))).collect()
    }

    /// `data` with every third row's features replaced by an empty
    /// sparse vector of the same dimension.
    fn with_empty_rows(mut data: Vec<Example>) -> Vec<Example> {
        for e in data.iter_mut().step_by(3) {
            let dim = e.features.dim() as u32;
            e.features = FeatureVector::Sparse { dim, indices: Vec::new(), values: Vec::new() };
        }
        data
    }

    /// `data` with rows `fit` must skip interleaved: after each row an
    /// unlabeled `Train` copy, and after every other row a `Test` copy
    /// carrying another label.
    fn with_skipped_rows(data: Vec<Example>, classes: usize) -> Vec<Example> {
        let rows = data.into_iter().enumerate().flat_map(|(i, e)| {
            let unlabeled = Example { label: None, ..e.clone() };
            let relabeled = e.label.map(|l| (l as usize + 1) % classes).map(|l| l as f64);
            let test = Example { label: relabeled, split: Split::Test, ..e.clone() };
            if i % 2 == 0 {
                vec![e, unlabeled, test]
            } else {
                vec![e, unlabeled]
            }
        });
        rows.collect()
    }

    /// Sparse and dense rows alternating in one batch; every other dense
    /// row is shorter than `dim`.
    fn mixed(n: usize, classes: usize, dim: usize) -> Vec<Example> {
        let dense = dense(n / 2, classes, &[dim, dim / 2]);
        let rows = sparse(n / 2, classes, dim as u32).into_iter().zip(dense);
        rows.flat_map(|(s, d)| [s, d]).collect()
    }

    #[test]
    fn fit_is_bit_identical_to_the_f32_reference_at_any_pool_width() {
        let no_l2 = LogisticRegression { l2: 0.0, ..Default::default() };
        let cases: [(&str, LogisticRegression, Vec<Example>, usize); 10] = [
            ("binary sparse", LogisticRegression::default(), sparse(120, 2, 12), 12),
            ("10-class dense", LogisticRegression::default(), dense(200, 10, &[8]), 8),
            // Vectors shorter than the model: the tail past each one takes
            // only padded terms, and longer ones make that tail nonzero.
            ("dense tail", LogisticRegression::default(), dense(90, 5, &[7, 3, 5]), 7),
            ("l2 = 0 dense", no_l2.clone(), dense(90, 4, &[5]), 5),
            ("l2 = 0 sparse", no_l2.clone(), sparse(90, 3, 9), 9),
            // Every head group reads the one packed set.
            ("6-class sparse", LogisticRegression::default(), sparse(240, 6, 20), 20),
            // Indices 10..16 lie past the model: packing drops them.
            ("sparse past dim", LogisticRegression::default(), sparse(150, 3, 16), 10),
            (
                "empty sparse rows",
                LogisticRegression::default(),
                with_empty_rows(sparse(90, 3, 9)),
                9,
            ),
            ("mixed dense and sparse", LogisticRegression::default(), mixed(160, 4, 10), 10),
            (
                "test and unlabeled rows",
                LogisticRegression::default(),
                with_skipped_rows(sparse(120, 3, 12), 3),
                12,
            ),
        ];
        // Dense multiclass: across widths 1/2/3/4/16 the head groups
        // split 3 to 17 heads every way. Rows longer than `dim` (cut at
        // `dim`), as long, and shorter.
        let grouped = [3, 5, 9, 10, 17].map(|k| {
            (
                format!("{k}-class dense"),
                LogisticRegression::default(),
                dense(12 * k, k, &[9, 6, 4]),
                6,
            )
        });
        // Every dense dim up to 80: each padding width of the eight-lane
        // rows, at one, two and up to ten blocks. Each dim runs one
        // setting in turn, and the block edges run all three.
        type Lens = fn(usize) -> Vec<usize>;
        let settings: [(LogisticRegression, usize, Lens); 3] = [
            (LogisticRegression::default(), 2, |d| vec![d]),
            (LogisticRegression::default(), 4, |d| vec![d + 3, d, d / 2]),
            (no_l2, 3, |d| vec![d, d.saturating_sub(5)]),
        ];
        let mut dims = Vec::new();
        for dim in 1..=80 {
            let edge = [7, 8, 9, 15, 16, 17, 63, 64, 65].contains(&dim);
            for (i, (trainer, classes, lens)) in settings.iter().enumerate() {
                if edge || i == dim % settings.len() {
                    let (lens, data) = (lens(dim), dense(8 * classes, *classes, &lens(dim)));
                    let name = format!("dim {dim}, {classes} classes, lengths {lens:?}");
                    dims.push((name, trainer.clone(), data, dim));
                }
            }
        }
        let cases = cases.into_iter().map(|(name, t, data, dim)| (name.to_string(), t, data, dim));
        for (name, trainer, data, dim) in cases.chain(grouped).chain(dims) {
            let want = bits(&reference_fit(&trainer, &data, dim));
            for width in [1, 2, 3, 4, 16] {
                let got = trainer.fit(&WorkerPool::new(width), &data, dim).unwrap();
                assert_eq!(bits(&got), want, "{name} at pool width {width}");
            }
            // A budgeted pool granted no extra thread runs the same groups.
            let budget = std::sync::Arc::new(helix_exec::CoreBudget::new(1));
            let _held = budget.acquire_one();
            let starved = WorkerPool::budgeted(4, std::sync::Arc::clone(&budget));
            assert_eq!(bits(&trainer.fit(&starved, &data, dim).unwrap()), want, "{name} starved");
        }
    }

    #[test]
    fn scores_are_bit_identical_to_per_head_dot_dense() {
        let dim = 6;
        let mut rng = SplitMix64::new(17);
        let mut row = |len: usize| (0..len).map(|_| rng.next_gaussian()).collect::<Vec<f64>>();
        // Binary, every remainder of the four-head interleave, and heads
        // of unequal length (each stops at its own).
        let models: Vec<LinearModel> =
            [&[dim][..], &[dim; 3], &[dim; 5], &[dim; 10], &[dim; 17], &[dim, 4, dim]]
                .into_iter()
                .map(|lens| LinearModel {
                    weights: lens.iter().map(|len| row(*len)).collect(),
                    bias: row(lens.len()),
                    dim: dim as u32,
                })
                .collect();
        // Dense rows longer than `dim`, as long, shorter and empty; sparse
        // rows with entries past `dim`, and an empty one.
        let mut inputs: Vec<FeatureVector> =
            [9, dim, 4, 0].into_iter().map(|len| FeatureVector::Dense(row(len))).collect();
        inputs.push(FeatureVector::sparse_from_pairs(
            9,
            [0, 2, 5, 8].into_iter().zip(row(4)).collect(),
        ));
        inputs.push(FeatureVector::sparse_from_pairs(9, Vec::new()));
        for model in &models {
            for x in &inputs {
                let want =
                    model.weights.iter().zip(&model.bias).map(|(w, b)| sigmoid(x.dot_dense(w) + b));
                let want: Vec<u64> = want.map(f64::to_bits).collect();
                let got: Vec<u64> =
                    LogisticRegression::scores(model, x).into_iter().map(f64::to_bits).collect();
                assert_eq!(got, want, "{} heads on {x:?}", model.weights.len());
            }
        }
    }
}
