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
//! [`LogisticRegression::fit`] copies the filtered training set once per
//! fit into a packed form every SGD step reads: one `(label, row)` per
//! example in filter order, each sparse row's in-range entries back to
//! back in a `u32` index slab and an `f64` value slab, and each dense
//! row's first `dim` values borrowed in place. A step then touches its
//! row's slab slices instead of chasing an `Example`, then its `indices`
//! `Vec`, then its `values` `Vec` in shuffled order, which is where the
//! time went: the paper's Census LR trains on 97 features with about 6
//! set per row, and IE's on 11 with about 4. Packing copies values and
//! drops only what the weight lookups and zips skipped (entries at
//! `≥ dim`); the update sequence is the one an unpacked loop applies,
//! bit for bit.
//!
//! One-vs-rest heads are independent, so `fit` splits them into
//! contiguous groups, one per pool worker, and trains the groups on
//! [`WorkerPool::map`] over one shared packed set. Each group replays the
//! same seeded shuffle and applies exactly the serial update sequence to
//! its heads, so the model is bit-identical at any pool width and any
//! core grant.
//!
//! Within a group the heads are independent too: head `h`'s update reads
//! and writes only `w_h` and `b_h`. So for each row a group first takes
//! every head's `row · w_h`, on a dense row several heads' sums at once
//! ([`linalg::dots`]), and then applies the updates in head order. Those
//! dot products can wait on FP add latency together instead of one after
//! another; MNIST's ten heads at dim 256 are that case. The rule that
//! keeps every bit: independent sums may be interleaved, but one sum's
//! term order may not change. [`LogisticRegression::scores`] interleaves
//! its heads the same way.

use crate::linalg::{self, sigmoid};
use helix_common::{HelixError, Result, SplitMix64};
use helix_data::{Example, FeatureVector, LinearModel, Split};
use helix_exec::WorkerPool;
use std::ops::Range;

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

impl LogisticRegression {
    /// Builder-style constructor with the paper's `regParam`.
    pub fn with_reg(l2: f64) -> LogisticRegression {
        LogisticRegression { l2, ..Default::default() }
    }

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
            pool.map(&ranges, |range| self.train_heads(&train, range.clone(), heads == 1, dim));
        let (weights, bias) = trained.into_iter().flatten().unzip();
        Ok(LinearModel { weights, bias, dim: dim as u32 })
    }

    /// Train heads `range` with the serial SGD schedule: the same seeded
    /// shuffle every group replays, and per row, every head's dot product
    /// and then each head's update in turn.
    ///
    /// The L2 shrink is an eager pass over all `dim` weights per row per
    /// head; at the workloads' dims (97 for Census, 11 for IE) it costs
    /// less than the row fetch the packed layout removed. A sparse row
    /// takes that pass, then adds its entries' `v * scale` in index order.
    /// A dense row fuses the two as `w = w * decay + x * scale` (the same
    /// two roundings in the same order as a decay pass followed by the
    /// add), with any tail past the feature vector decayed alone.
    fn train_heads(
        &self,
        train: &Packed<'_>,
        range: Range<usize>,
        binary: bool,
        dim: usize,
    ) -> Vec<(Vec<f64>, f64)> {
        let mut heads: Vec<(Vec<f64>, f64)> = vec![(vec![0.0; dim], 0.0); range.len()];
        // Per row, every head's `row · w` before any head's update.
        let mut dots = vec![0.0; range.len()];
        let mut order: Vec<usize> = (0..train.rows.len()).collect();
        let mut rng = SplitMix64::new(self.seed);
        for epoch in 0..self.epochs {
            rng.shuffle(&mut order);
            let lr = self.learning_rate / (1.0 + epoch as f64);
            let decay = 1.0 - lr * self.l2 / train.rows.len() as f64;
            for &i in &order {
                let (label, row) = &train.rows[i];
                train.dots(row, &heads, &mut dots);
                for ((h, (w, b)), dot) in range.clone().zip(heads.iter_mut()).zip(&dots) {
                    let target = if binary {
                        *label
                    } else if (*label as usize) == h {
                        1.0
                    } else {
                        0.0
                    };
                    let z = dot + *b;
                    let gradient = sigmoid(z) - target;
                    let scale = -lr * gradient;
                    match row {
                        Row::Dense(x) if decay < 1.0 => {
                            for (wj, x) in w.iter_mut().zip(*x) {
                                *wj = *wj * decay + x * scale;
                            }
                            for wj in w.iter_mut().skip(x.len()) {
                                *wj *= decay;
                            }
                        }
                        Row::Dense(x) => {
                            for (wj, x) in w.iter_mut().zip(*x) {
                                *wj += x * scale;
                            }
                        }
                        Row::Sparse(span) => {
                            if decay < 1.0 {
                                for wj in w.iter_mut() {
                                    *wj *= decay;
                                }
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

    /// Run inference over a slice of examples, filling `prediction`.
    pub fn predict_all(model: &LinearModel, examples: &mut [Example]) {
        for e in examples.iter_mut() {
            let scores = Self::scores(model, &e.features);
            e.prediction = Some(if scores.len() == 1 {
                scores[0]
            } else {
                crate::linalg::argmax(&scores).unwrap_or(0) as f64
            });
        }
    }
}

/// One training row of a [`Packed`] set.
enum Row<'a> {
    /// A dense feature vector's first `dim` values, borrowed from its
    /// example.
    Dense(&'a [f64]),
    /// A sparse row's span of the packed index and value slabs.
    Sparse(Range<usize>),
}

/// The labeled `Train` rows of one fit, packed once and shared by every
/// head group (see the module docs).
struct Packed<'a> {
    /// `(label, row)` per training example, in example order.
    rows: Vec<(f64, Row<'a>)>,
    /// Every sparse row's entries with index `< dim`, back to back.
    indices: Vec<u32>,
    /// The values parallel to `indices`.
    values: Vec<f64>,
}

impl<'a> Packed<'a> {
    fn new(examples: &'a [Example], dim: usize) -> Packed<'a> {
        let mut packed = Packed { rows: Vec::new(), indices: Vec::new(), values: Vec::new() };
        for example in examples.iter().filter(|e| e.split == Split::Train) {
            let Some(label) = example.label else { continue };
            let row = match &example.features {
                FeatureVector::Dense(x) => Row::Dense(&x[..x.len().min(dim)]),
                FeatureVector::Sparse { indices, values, .. } => {
                    let start = packed.indices.len();
                    for (j, v) in indices.iter().zip(values).filter(|(j, _)| (**j as usize) < dim) {
                        packed.indices.push(*j);
                        packed.values.push(*v);
                    }
                    Row::Sparse(start..packed.indices.len())
                }
            };
            packed.rows.push((label, row));
        }
        packed
    }

    fn entries(&self, span: &Range<usize>) -> (&[u32], &[f64]) {
        (&self.indices[span.clone()], &self.values[span.clone()])
    }

    /// `out[h] = row · w_h` for every head, each summed in the row's order
    /// from `0.0` like [`FeatureVector::dot_dense`]. A dense row's heads
    /// advance together through [`linalg::dots`].
    fn dots(&self, row: &Row<'_>, heads: &[(Vec<f64>, f64)], out: &mut [f64]) {
        match row {
            Row::Dense(x) => linalg::dots(x, |h| &heads[h].0, 0.0, out),
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

    #[test]
    fn predict_all_fills_predictions() {
        let mut data = blobs(50, 2);
        let model = LogisticRegression::default().fit(&WorkerPool::serial(), &data, 2).unwrap();
        LogisticRegression::predict_all(&model, &mut data);
        assert!(data.iter().all(|e| e.prediction.is_some()));
    }

    /// The specification of [`LogisticRegression::fit`]: every head on one
    /// thread, one shared shuffle, a separate decay pass per update.
    fn reference_fit(lr: &LogisticRegression, examples: &[Example], dim: usize) -> LinearModel {
        let train: Vec<&Example> =
            examples.iter().filter(|e| e.split == Split::Train && e.label.is_some()).collect();
        let classes = train.iter().map(|e| e.label.unwrap_or(0.0) as i64).max().unwrap_or(0).max(1)
            as usize
            + 1;
        let heads = if classes == 2 { 1 } else { classes };
        let mut weights = vec![vec![0.0f64; dim]; heads];
        let mut bias = vec![0.0f64; heads];
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut rng = SplitMix64::new(lr.seed);
        for epoch in 0..lr.epochs {
            rng.shuffle(&mut order);
            let rate = lr.learning_rate / (1.0 + epoch as f64);
            let decay = 1.0 - rate * lr.l2 / train.len() as f64;
            for &i in &order {
                let example = train[i];
                let label = example.label.unwrap_or(0.0);
                for (h, (w, b)) in weights.iter_mut().zip(bias.iter_mut()).enumerate() {
                    let target = if heads == 1 {
                        label
                    } else if (label as usize) == h {
                        1.0
                    } else {
                        0.0
                    };
                    let z = example.features.dot_dense(w) + *b;
                    let gradient = sigmoid(z) - target;
                    if decay < 1.0 {
                        for x in w.iter_mut() {
                            *x *= decay;
                        }
                    }
                    example.features.add_scaled_to(w, -rate * gradient);
                    *b -= rate * gradient;
                }
            }
        }
        LinearModel { weights, bias, dim: dim as u32 }
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
    fn fit_is_bit_identical_to_the_serial_reference_at_any_pool_width() {
        let no_l2 = LogisticRegression { l2: 0.0, ..Default::default() };
        let cases: [(&str, LogisticRegression, Vec<Example>, usize); 10] = [
            ("binary sparse", LogisticRegression::default(), sparse(120, 2, 12), 12),
            ("10-class dense", LogisticRegression::default(), dense(200, 10, &[8]), 8),
            // Vectors shorter than the model: the tail past each one decays
            // alone, and longer ones make that tail nonzero.
            ("dense tail", LogisticRegression::default(), dense(90, 5, &[7, 3, 5]), 7),
            ("l2 = 0 dense", no_l2.clone(), dense(90, 4, &[5]), 5),
            ("l2 = 0 sparse", no_l2, sparse(90, 3, 9), 9),
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
        // leave every remainder of the four-head interleave. Rows longer
        // than `dim` (the zip stops at `dim`), as long, and shorter.
        let interleaved = [3, 5, 9, 10, 17].map(|k| {
            (
                format!("{k}-class dense"),
                LogisticRegression::default(),
                dense(12 * k, k, &[9, 6, 4]),
                6,
            )
        });
        let cases = cases.into_iter().map(|(name, t, data, dim)| (name.to_string(), t, data, dim));
        for (name, trainer, data, dim) in cases.chain(interleaved) {
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
