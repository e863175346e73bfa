//! word2vec: skip-gram with negative sampling (SGNS).
//!
//! The Genomics workflow's dominant compute step: "compute embeddings using
//! an approach like word2vec" (paper Example 1, citation 46). This is a
//! compact, deterministic implementation of Mikolov-style SGNS:
//!
//! * vocabulary built with a minimum-count threshold;
//! * a unigram^0.75 table for negative sampling;
//! * linear learning-rate decay over epochs;
//! * input and output embedding matrices, input returned.
//!
//! # The update order and the arithmetic are the specification
//!
//! A model's bits are those of one serial sequence in `f32`; the input
//! matrix is widened to `f64` once, when the model is returned. The
//! initial input rows are the `f64` draws of the seeded stream, narrowed
//! to `f32`; the output rows start at zero, and each epoch's learning rate
//! is computed in `f64` and narrowed. For each epoch, sentence and center
//! word in order, the center draws its window radius, and then each
//! (center, context) *pair* in the window, in order:
//!
//! 1. draws `negatives` targets from the unigram table and drops each one
//!    equal to the context. The context is sample 0 (label 1); the kept
//!    negatives follow in draw order (label 0);
//! 2. for each sample in order, computes `score = input[center] ·
//!    output[target]` in eight lanes: lane `l` sums the terms `k ≡ l (mod
//!    8)` in order of `k`, from zero, and the lanes reduce as `((a0 + a4) +
//!    (a2 + a6)) + ((a1 + a5) + (a3 + a7))`. Then `g = (sigmoid(score) −
//!    label)·lr`, with the exact sigmoid (no lookup table), and for each
//!    `k` it applies `gradient[k] += g·output[target][k]` and
//!    `output[target][k] −= g·input[center][k]`;
//! 3. applies `input[center] −= gradient`.
//!
//! [`Word2Vec::fit`] stores each row as `NB = dim.div_ceil(8)` blocks of
//! eight lanes, a compile-time `NB` for every dim up to 64, so that the
//! lanes of a dot product and of an update map onto vector registers.
//! The padding lanes hold zero and stay zero through every update, and a
//! zero term leaves a lane sum unchanged, so the padding changes no bit.
//! Wider dims run the same arithmetic over plain slices.
//!
//! A change to any of this changes the bits of a trained model, so it
//! bumps [`KERNEL_VERSION`], which the `Learner` declaration folds into
//! the model's signature: a catalog never serves a model trained by one
//! kernel to a workflow that asks for another.

use crate::linalg::lane_sum;
use helix_common::{HelixError, Result, SplitMix64};
use helix_data::EmbeddingModel;
use std::collections::HashMap;

/// The version of the arithmetic [`Word2Vec::fit`] applies (module docs).
/// Version 1 was the `f64` kernel with one accumulator per dot product;
/// version 2 trains in `f32` with eight-lane dot products. A change that
/// moves any bit of a trained model bumps it.
pub const KERNEL_VERSION: u32 = 2;

/// SGNS trainer configuration.
#[derive(Clone, Debug)]
pub struct Word2Vec {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Largest context window radius. Each center word draws its radius
    /// uniformly in `1..=window`; `0` acts as `1`.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
    /// Minimum token frequency to enter the vocabulary.
    pub min_count: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Word2Vec {
    fn default() -> Self {
        Word2Vec {
            dim: 32,
            window: 3,
            negatives: 5,
            epochs: 3,
            learning_rate: 0.05,
            min_count: 2,
            seed: 42,
        }
    }
}

/// What one fit trains: the vocabulary, the negative-sampling table, the
/// corpus as vocabulary indices, the input matrix (row-major, `dim`
/// columns) and the RNG, already advanced past initialization.
struct Sgns {
    vocab: HashMap<String, u32>,
    table: Vec<u32>,
    indexed: Vec<Vec<u32>>,
    input: Vec<f32>,
    rng: SplitMix64,
    dim: usize,
}

impl Sgns {
    fn new<S: AsRef<[String]>>(cfg: &Word2Vec, sentences: &[S]) -> Result<Sgns> {
        if cfg.dim == 0 {
            return Err(HelixError::ml("word2vec: dim must be positive"));
        }
        // ---- Vocabulary ----
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for sentence in sentences {
            for token in sentence.as_ref() {
                *counts.entry(token.as_str()).or_insert(0) += 1;
            }
        }
        let mut kept: Vec<(&str, usize)> =
            counts.into_iter().filter(|(_, c)| *c >= cfg.min_count).collect();
        // Deterministic vocab order: by count desc, then token.
        kept.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        if kept.is_empty() {
            return Err(HelixError::ml("word2vec: empty vocabulary after min_count"));
        }
        let vocab: HashMap<String, u32> =
            kept.iter().enumerate().map(|(i, (t, _))| (t.to_string(), i as u32)).collect();
        let v = kept.len();

        // ---- Negative-sampling table (unigram^0.75) ----
        let table = build_unigram_table(&kept, 1 << 16);

        // ---- Init ----
        let mut rng = SplitMix64::new(cfg.seed);
        let d = cfg.dim;
        let bound = 0.5 / d as f64;
        let input: Vec<f32> = (0..v * d).map(|_| rng.range_f64(-bound, bound) as f32).collect();

        // Pre-index corpus.
        let indexed: Vec<Vec<u32>> = sentences
            .iter()
            .map(|s| s.as_ref().iter().filter_map(|t| vocab.get(t).copied()).collect())
            .collect();
        let total_tokens: usize = indexed.iter().map(Vec::len).sum();
        if total_tokens == 0 {
            return Err(HelixError::ml("word2vec: no in-vocabulary tokens"));
        }
        Ok(Sgns { vocab, table, indexed, input, rng, dim: d })
    }

    /// Calls `pair(center, targets, lr)` for every (center, context) pair
    /// in the module docs' order, drawing from the RNG as it goes.
    /// `targets` holds the context, then the kept negatives.
    fn for_each_pair(&mut self, cfg: &Word2Vec, mut pair: impl FnMut(usize, &[usize], f32)) {
        let mut targets: Vec<usize> = Vec::with_capacity(cfg.negatives + 1);
        for epoch in 0..cfg.epochs {
            let lr = cfg.learning_rate * (1.0 - epoch as f64 / cfg.epochs.max(1) as f64).max(0.1);
            for sentence in &self.indexed {
                for (pos, &center) in sentence.iter().enumerate() {
                    let window = 1 + self.rng.index(cfg.window.max(1));
                    let lo = pos.saturating_sub(window);
                    let hi = (pos + window + 1).min(sentence.len());
                    for (ctx_pos, &ctx_word) in sentence.iter().enumerate().take(hi).skip(lo) {
                        if ctx_pos == pos {
                            continue;
                        }
                        let context = ctx_word as usize;
                        targets.clear();
                        targets.push(context);
                        for _ in 0..cfg.negatives {
                            let target = self.table[self.rng.index(self.table.len())] as usize;
                            if target != context {
                                targets.push(target);
                            }
                        }
                        pair(center as usize, &targets, lr as f32);
                    }
                }
            }
        }
    }

    fn into_model(self) -> EmbeddingModel {
        let vectors = self.input.into_iter().map(f64::from).collect();
        EmbeddingModel { vocab: self.vocab, vectors, dim: self.dim as u32 }
    }
}

/// One embedding row as `NB` blocks of eight lanes.
type Row<const NB: usize> = [[f32; 8]; NB];

impl Word2Vec {
    /// Train embeddings over tokenized sentences, owned (`&[Vec<String>]`)
    /// or borrowed (`&[&[String]]`).
    pub fn fit<S: AsRef<[String]>>(&self, sentences: &[S]) -> Result<EmbeddingModel> {
        let mut sgns = Sgns::new(self, sentences)?;
        match sgns.dim.div_ceil(8) {
            1 => self.train_blocked::<1>(&mut sgns),
            2 => self.train_blocked::<2>(&mut sgns),
            3 => self.train_blocked::<3>(&mut sgns),
            4 => self.train_blocked::<4>(&mut sgns),
            5 => self.train_blocked::<5>(&mut sgns),
            6 => self.train_blocked::<6>(&mut sgns),
            7 => self.train_blocked::<7>(&mut sgns),
            8 => self.train_blocked::<8>(&mut sgns),
            _ => self.train_plain(&mut sgns),
        }
        Ok(sgns.into_model())
    }

    /// The module docs' sequence over rows of `NB` eight-lane blocks,
    /// zero-padded past `dim`.
    fn train_blocked<const NB: usize>(&self, s: &mut Sgns) {
        let mut input: Vec<Row<NB>> = s
            .input
            .chunks_exact(s.dim)
            .map(|flat| {
                let mut row = [[0.0f32; 8]; NB];
                for (k, &x) in flat.iter().enumerate() {
                    row[k / 8][k % 8] = x;
                }
                row
            })
            .collect();
        let mut output = vec![[[0.0f32; 8]; NB]; input.len()];
        s.for_each_pair(self, |center, targets, lr| {
            let x = input[center];
            let mut gradient = [[0.0f32; 8]; NB];
            for (i, &t) in targets.iter().enumerate() {
                let row = &mut output[t];
                let mut lanes = [0.0f32; 8];
                for (xb, ob) in x.iter().zip(row.iter()) {
                    for ((a, &xl), &ol) in lanes.iter_mut().zip(xb).zip(ob) {
                        *a += xl * ol;
                    }
                }
                let g = (sigmoid(lane_sum(lanes)) - label(i)) * lr;
                for ((gb, ob), xb) in gradient.iter_mut().zip(row.iter_mut()).zip(&x) {
                    for ((gl, ol), &xl) in gb.iter_mut().zip(ob).zip(xb) {
                        *gl += g * *ol;
                        *ol -= g * xl;
                    }
                }
            }
            for (xb, gb) in input[center].iter_mut().zip(&gradient) {
                for (xl, gl) in xb.iter_mut().zip(gb) {
                    *xl -= gl;
                }
            }
        });
        for (flat, row) in s.input.chunks_exact_mut(s.dim).zip(&input) {
            for (k, x) in flat.iter_mut().enumerate() {
                *x = row[k / 8][k % 8];
            }
        }
    }

    /// The module docs' sequence over plain `dim`-long rows, for dims past
    /// the blocked kernel's.
    fn train_plain(&self, s: &mut Sgns) {
        let d = s.dim;
        let mut input = std::mem::take(&mut s.input);
        let mut output = vec![0.0f32; input.len()];
        let mut gradient = vec![0.0f32; d];
        s.for_each_pair(self, |center, targets, lr| {
            let x = &mut input[center * d..(center + 1) * d];
            gradient.fill(0.0);
            for (i, &t) in targets.iter().enumerate() {
                let row = &mut output[t * d..(t + 1) * d];
                let mut lanes = [0.0f32; 8];
                for (k, (&xk, &ok)) in x.iter().zip(row.iter()).enumerate() {
                    lanes[k % 8] += xk * ok;
                }
                let g = (sigmoid(lane_sum(lanes)) - label(i)) * lr;
                for ((gk, ok), &xk) in gradient.iter_mut().zip(row).zip(x.iter()) {
                    *gk += g * *ok;
                    *ok -= g * xk;
                }
            }
            for (xk, gk) in x.iter_mut().zip(&gradient) {
                *xk -= gk;
            }
        });
        s.input = input;
    }

    /// Cosine similarity between two tokens (`None` if either is OOV).
    pub fn similarity(model: &EmbeddingModel, a: &str, b: &str) -> Option<f64> {
        Some(crate::linalg::cosine(model.embedding(a)?, model.embedding(b)?))
    }
}

/// The label of a pair's sample `i`: the context is 1, a negative 0.
fn label(i: usize) -> f32 {
    if i == 0 {
        1.0
    } else {
        0.0
    }
}

/// The logistic function in `f32`, exact in both tails.
#[inline]
fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Build the negative-sampling table with probabilities ∝ count^0.75.
fn build_unigram_table(vocab: &[(&str, usize)], size: usize) -> Vec<u32> {
    let powered: Vec<f64> = vocab.iter().map(|(_, c)| (*c as f64).powf(0.75)).collect();
    let total: f64 = powered.iter().sum();
    let mut table = Vec::with_capacity(size);
    let mut cumulative = powered[0] / total;
    let mut word = 0usize;
    for i in 0..size {
        table.push(word as u32);
        if (i as f64 + 1.0) / size as f64 > cumulative && word + 1 < vocab.len() {
            word += 1;
            cumulative += powered[word] / total;
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Corpus with two planted topics: {cat, dog, pet} and {sun, moon, sky}
    /// never co-occur across topics.
    fn planted_corpus(repeats: usize) -> Vec<Vec<String>> {
        let animal = ["cat", "dog", "pet", "fur", "tail"];
        let celestial = ["sun", "moon", "sky", "star", "orbit"];
        let mut rng = SplitMix64::new(77);
        let mut corpus = Vec::new();
        for _ in 0..repeats {
            for topic in [&animal, &celestial] {
                let mut sentence: Vec<String> = Vec::with_capacity(8);
                for _ in 0..8 {
                    sentence.push(topic[rng.index(topic.len())].to_string());
                }
                corpus.push(sentence);
            }
        }
        corpus
    }

    #[test]
    fn planted_topics_cluster_in_embedding_space() {
        let corpus = planted_corpus(120);
        let model = Word2Vec { dim: 16, epochs: 4, ..Default::default() }.fit(&corpus).unwrap();
        let within = Word2Vec::similarity(&model, "cat", "dog").unwrap();
        let across = Word2Vec::similarity(&model, "cat", "moon").unwrap();
        assert!(within > across + 0.2, "within-topic {within} should exceed cross-topic {across}");
    }

    #[test]
    fn min_count_filters_rare_tokens() {
        let corpus = vec![
            vec!["common".to_string(), "common".to_string(), "rare".to_string()],
            vec!["common".to_string(), "common".to_string()],
        ];
        let model = Word2Vec { min_count: 2, dim: 4, ..Default::default() }.fit(&corpus).unwrap();
        assert!(model.embedding("common").is_some());
        assert!(model.embedding("rare").is_none());
    }

    #[test]
    fn empty_vocab_is_an_error() {
        let corpus = vec![vec!["once".to_string()]];
        assert!(Word2Vec { min_count: 5, ..Default::default() }.fit(&corpus).is_err());
        assert!(Word2Vec { dim: 0, ..Default::default() }.fit(&corpus).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let corpus = planted_corpus(20);
        let cfg = Word2Vec { dim: 8, epochs: 2, ..Default::default() };
        let a = cfg.fit(&corpus).unwrap();
        let b = cfg.fit(&corpus).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unigram_table_biased_to_frequent() {
        let vocab = vec![("frequent", 1000usize), ("rare", 10usize)];
        let table = build_unigram_table(&vocab, 1000);
        let frequent_share = table.iter().filter(|&&w| w == 0).count() as f64 / table.len() as f64;
        assert!(frequent_share > 0.85, "share {frequent_share}");
        assert!(frequent_share < 1.0, "rare word still present");
    }

    #[test]
    fn oov_similarity_is_none() {
        let corpus = planted_corpus(5);
        let model = Word2Vec { dim: 4, epochs: 1, ..Default::default() }.fit(&corpus).unwrap();
        assert!(Word2Vec::similarity(&model, "cat", "nonexistent").is_none());
    }

    /// The specification of [`Word2Vec::fit`]: the serial per-sample loop
    /// over flat `f32` rows, each dot product summed term by term into
    /// lane `k % 8`.
    fn reference_fit(cfg: &Word2Vec, sentences: &[Vec<String>]) -> EmbeddingModel {
        let mut sgns = Sgns::new(cfg, sentences).unwrap();
        let Sgns { table, indexed, input, rng, dim: d, .. } = &mut sgns;
        let d = *d;
        let mut output = vec![0.0f32; input.len()];
        let mut gradient = vec![0.0f32; d];
        for epoch in 0..cfg.epochs {
            let lr = cfg.learning_rate * (1.0 - epoch as f64 / cfg.epochs.max(1) as f64).max(0.1);
            let lr = lr as f32;
            for sentence in indexed.iter() {
                for (pos, &center) in sentence.iter().enumerate() {
                    let window = 1 + rng.index(cfg.window.max(1));
                    let lo = pos.saturating_sub(window);
                    let hi = (pos + window + 1).min(sentence.len());
                    for (ctx_pos, &ctx_word) in sentence.iter().enumerate().take(hi).skip(lo) {
                        if ctx_pos == pos {
                            continue;
                        }
                        let context = ctx_word as usize;
                        let c_row = center as usize * d;
                        gradient.iter_mut().for_each(|g| *g = 0.0);
                        // Positive pair + negatives.
                        for sample in 0..=cfg.negatives {
                            let (target, label) = if sample == 0 {
                                (context, 1.0f32)
                            } else {
                                (table[rng.index(table.len())] as usize, 0.0f32)
                            };
                            if sample > 0 && target == context {
                                continue;
                            }
                            let t_row = target * d;
                            let mut a = [0.0f32; 8];
                            for k in 0..d {
                                a[k % 8] += input[c_row + k] * output[t_row + k];
                            }
                            let score =
                                ((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7]));
                            let g = (sigmoid(score) - label) * lr;
                            for k in 0..d {
                                gradient[k] += g * output[t_row + k];
                                output[t_row + k] -= g * input[c_row + k];
                            }
                        }
                        for k in 0..d {
                            input[c_row + k] -= gradient[k];
                        }
                    }
                }
            }
        }
        sgns.into_model()
    }

    fn bits(model: &EmbeddingModel) -> Vec<u64> {
        model.vectors.iter().map(|x| x.to_bits()).collect()
    }

    /// Shaped like the Genomics workload's articles: `n` sentences of 120
    /// tokens over 18 filler words and 20 genes in four planted clusters.
    fn genomics_shaped(n: usize) -> Vec<Vec<String>> {
        let mut rng = SplitMix64::new(9);
        let sentence = |rng: &mut SplitMix64| -> Vec<String> {
            let cluster = rng.index(4);
            let word = |rng: &mut SplitMix64| match rng.index(3) {
                0 => format!("filler{}", rng.index(18)),
                _ => format!("g{cluster}x{}", rng.index(5)),
            };
            (0..120).map(|_| word(rng)).collect()
        };
        (0..n).map(|_| sentence(&mut rng)).collect()
    }

    /// `n` sentences of 12 tokens drawn from the first `words` of a fixed
    /// list.
    fn tiny_vocab(n: usize, words: usize) -> Vec<Vec<String>> {
        let mut rng = SplitMix64::new(words as u64);
        let names = ["a", "b", "c"];
        let sentence = |rng: &mut SplitMix64| -> Vec<String> {
            (0..12).map(|_| names[rng.index(words)].to_string()).collect()
        };
        (0..n).map(|_| sentence(&mut rng)).collect()
    }

    #[test]
    fn fit_is_bit_identical_to_the_f32_reference() {
        let genomics = genomics_shaped(2);
        let settings = [(0, 1, 1), (1, 3, 4), (5, 3, 1), (8, 1, 4)];
        let mut cases: Vec<(String, Word2Vec, &[Vec<String>])> = Vec::new();
        // Every dim up to 80: each padding width of every block count the
        // blocked kernel compiles, and the plain path past 64. Each dim
        // runs one of the settings in turn, and the settings run in full
        // at the dims around the block edges.
        for dim in 1..=80 {
            let edge = [1, 7, 8, 9, 24, 32, 63, 64, 65, 80].contains(&dim);
            for (i, &(negatives, window, epochs)) in settings.iter().enumerate() {
                if edge || i == dim % settings.len() {
                    let cfg = Word2Vec { dim, negatives, window, epochs, ..Default::default() };
                    let name = format!("dim {dim} neg {negatives} win {window} ep {epochs}");
                    cases.push((name, cfg, &genomics));
                }
            }
        }
        // Three rows and nine samples: every pair repeats a target, so a
        // later sample must see the earlier one's update of the same row.
        let three = tiny_vocab(6, 3);
        for dim in [7, 70] {
            let dense = Word2Vec { dim, negatives: 8, min_count: 1, ..Default::default() };
            cases.push((format!("three words, negatives 8, dim {dim}"), dense, &three));
        }
        // Every negative equals the context and is skipped.
        let one = tiny_vocab(3, 1);
        let lone = Word2Vec { dim: 5, negatives: 5, min_count: 1, ..Default::default() };
        cases.push(("one word".into(), lone, &one));
        for (name, cfg, corpus) in &cases {
            let want = reference_fit(cfg, corpus);
            let got = cfg.fit(corpus).unwrap();
            assert_eq!(bits(&got), bits(&want), "{name}");
            assert_eq!(got.vocab, want.vocab, "{name}");
        }
    }
}
