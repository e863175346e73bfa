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
//! # The update order is the specification
//!
//! A model's bits are those of one serial sequence. For each epoch,
//! sentence and center word in order, the center draws its window radius,
//! and then each (center, context) *pair* in the window, in order:
//!
//! 1. draws `negatives` targets from the unigram table and drops each one
//!    equal to the context. The context is sample 0 (label 1); the kept
//!    negatives follow in draw order (label 0);
//! 2. for each sample in order, computes `score = input[center] ·
//!    output[target]` summed over `k = 0..dim` in order, then `g =
//!    (sigmoid(score) − label)·lr`, then for each `k` applies `gradient[k]
//!    += g·output[target][k]` and `output[target][k] −= g·input[center][k]`;
//! 3. applies `input[center] −= gradient`.
//!
//! [`Word2Vec::fit`] produces exactly these bits without waiting for each
//! sample's update before the next dot product starts. It splits a pair's
//! samples into *waves*: maximal runs in which no output row repeats. A
//! wave computes all its dot products first, several at a time so that
//! their independent add chains overlap, and then applies its updates in
//! sample order. That keeps every bit because an update writes only its
//! own output row and `gradient`, which no other dot product of the wave
//! reads, and `input[center]` does not change until the pair ends. A
//! repeated target starts a new wave, so its dot product sees the earlier
//! update. Each dot product keeps its own summation order.
//!
//! Reordering the terms of one dot product (a multi-lane dot) would be
//! faster still, but it changes bits, and a catalog cannot yet tell a
//! model trained by one kernel from one trained by another. It waits for
//! kernel versions in the signature (ROADMAP item 15).

use crate::linalg::{self, sigmoid};
use helix_common::{HelixError, Result, SplitMix64};
use helix_data::EmbeddingModel;
use std::collections::HashMap;

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
/// corpus as vocabulary indices, both embedding matrices (row-major,
/// `dim` columns) and the RNG, already advanced past initialization.
struct Sgns {
    vocab: HashMap<String, u32>,
    table: Vec<u32>,
    indexed: Vec<Vec<u32>>,
    input: Vec<f64>,
    output: Vec<f64>,
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
        let mut input = vec![0.0f64; v * d];
        let bound = 0.5 / d as f64;
        for x in input.iter_mut() {
            *x = rng.range_f64(-bound, bound);
        }
        let output = vec![0.0f64; v * d];

        // Pre-index corpus.
        let indexed: Vec<Vec<u32>> = sentences
            .iter()
            .map(|s| s.as_ref().iter().filter_map(|t| vocab.get(t).copied()).collect())
            .collect();
        let total_tokens: usize = indexed.iter().map(Vec::len).sum();
        if total_tokens == 0 {
            return Err(HelixError::ml("word2vec: no in-vocabulary tokens"));
        }
        Ok(Sgns { vocab, table, indexed, input, output, rng, dim: d })
    }

    fn into_model(self) -> EmbeddingModel {
        EmbeddingModel { vocab: self.vocab, vectors: self.input, dim: self.dim as u32 }
    }
}

impl Word2Vec {
    /// Train embeddings over tokenized sentences, owned (`&[Vec<String>]`)
    /// or borrowed (`&[&[String]]`).
    pub fn fit<S: AsRef<[String]>>(&self, sentences: &[S]) -> Result<EmbeddingModel> {
        let mut sgns = Sgns::new(self, sentences)?;
        self.train(&mut sgns);
        Ok(sgns.into_model())
    }

    /// Applies the module docs' update sequence to `s`, one wave of
    /// distinct output rows at a time.
    fn train(&self, s: &mut Sgns) {
        let d = s.dim;
        // Every dot product adds its terms onto `Iterator::sum`'s start
        // value, in order, exactly as a `.sum()` over them would.
        let zero: f64 = std::iter::empty::<f64>().sum();
        let mut gradient = vec![0.0f64; d];
        // A pair's kept targets, context first, and then one wave's scores,
        // which become its `g`s.
        let mut targets: Vec<usize> = Vec::with_capacity(self.negatives + 1);
        let mut gs = vec![0.0f64; self.negatives + 1];
        for epoch in 0..self.epochs {
            let lr = self.learning_rate * (1.0 - epoch as f64 / self.epochs.max(1) as f64).max(0.1);
            for sentence in &s.indexed {
                for (pos, &center) in sentence.iter().enumerate() {
                    let window = 1 + s.rng.index(self.window.max(1));
                    let lo = pos.saturating_sub(window);
                    let hi = (pos + window + 1).min(sentence.len());
                    for (ctx_pos, &ctx_word) in sentence.iter().enumerate().take(hi).skip(lo) {
                        if ctx_pos == pos {
                            continue;
                        }
                        let context = ctx_word as usize;
                        targets.clear();
                        targets.push(context);
                        for _ in 0..self.negatives {
                            let target = s.table[s.rng.index(s.table.len())] as usize;
                            if target != context {
                                targets.push(target);
                            }
                        }
                        let c_row = center as usize * d;
                        let center_vec = &s.input[c_row..c_row + d];
                        gradient.fill(0.0);
                        let mut start = 0;
                        while start < targets.len() {
                            let end = wave_end(&targets, start);
                            let wave = &targets[start..end];
                            let gs = &mut gs[..wave.len()];
                            let row = |i: usize| &s.output[wave[i] * d..(wave[i] + 1) * d];
                            linalg::dots(center_vec, row, zero, gs);
                            for (i, g) in gs.iter_mut().enumerate() {
                                let label = if start + i == 0 { 1.0 } else { 0.0 };
                                *g = (sigmoid(*g) - label) * lr;
                            }
                            for (&t, &g) in wave.iter().zip(gs.iter()) {
                                let row = &mut s.output[t * d..(t + 1) * d];
                                for ((gk, o), &x) in gradient.iter_mut().zip(row).zip(center_vec) {
                                    *gk += g * *o;
                                    *o -= g * x;
                                }
                            }
                            start = end;
                        }
                        for (x, gk) in s.input[c_row..c_row + d].iter_mut().zip(&gradient) {
                            *x -= gk;
                        }
                    }
                }
            }
        }
    }

    /// Cosine similarity between two tokens (`None` if either is OOV).
    pub fn similarity(model: &EmbeddingModel, a: &str, b: &str) -> Option<f64> {
        Some(crate::linalg::cosine(model.embedding(a)?, model.embedding(b)?))
    }

    /// `n` most similar in-vocabulary tokens to `token`.
    pub fn most_similar(model: &EmbeddingModel, token: &str, n: usize) -> Vec<(String, f64)> {
        let Some(target) = model.embedding(token) else { return Vec::new() };
        let mut scored: Vec<(String, f64)> = model
            .vocab
            .keys()
            .filter(|t| t.as_str() != token)
            .filter_map(|t| Some((t.clone(), crate::linalg::cosine(target, model.embedding(t)?))))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(n);
        scored
    }
}

/// End of the wave that starts at `start`: the longest run of `targets`
/// in which no row repeats.
fn wave_end(targets: &[usize], start: usize) -> usize {
    let mut end = start + 1;
    while end < targets.len() && !targets[start..end].contains(&targets[end]) {
        end += 1;
    }
    end
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
    fn most_similar_prefers_same_topic() {
        let corpus = planted_corpus(120);
        let model = Word2Vec { dim: 16, epochs: 4, ..Default::default() }.fit(&corpus).unwrap();
        let neighbors = Word2Vec::most_similar(&model, "sun", 3);
        assert_eq!(neighbors.len(), 3);
        let celestial = ["moon", "sky", "star", "orbit"];
        let hits = neighbors.iter().filter(|(t, _)| celestial.contains(&t.as_str())).count();
        assert!(hits >= 2, "neighbors of 'sun' were {neighbors:?}");
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
        assert!(Word2Vec::most_similar(&model, "nonexistent", 3).is_empty());
    }

    /// The specification of [`Word2Vec::fit`]: the serial per-pair loop,
    /// each sample's dot product after the previous sample's update.
    fn reference_fit(cfg: &Word2Vec, sentences: &[Vec<String>]) -> EmbeddingModel {
        let mut sgns = Sgns::new(cfg, sentences).unwrap();
        let Sgns { table, indexed, input, output, rng, dim: d, .. } = &mut sgns;
        let d = *d;
        let mut gradient = vec![0.0f64; d];
        for epoch in 0..cfg.epochs {
            let lr = cfg.learning_rate * (1.0 - epoch as f64 / cfg.epochs.max(1) as f64).max(0.1);
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
                                (context, 1.0)
                            } else {
                                (table[rng.index(table.len())] as usize, 0.0)
                            };
                            if sample > 0 && target == context {
                                continue;
                            }
                            let t_row = target * d;
                            let score: f64 =
                                (0..d).map(|k| input[c_row + k] * output[t_row + k]).sum();
                            let g = (crate::linalg::sigmoid(score) - label) * lr;
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
    fn fit_is_bit_identical_to_the_serial_reference() {
        let genomics = genomics_shaped(8);
        let mut cases: Vec<(String, Word2Vec, &[Vec<String>])> = Vec::new();
        for dim in [1, 7, 24, 32] {
            for (negatives, window, epochs) in [(0, 1, 1), (1, 3, 4), (5, 3, 1), (8, 1, 4)] {
                let cfg = Word2Vec { dim, negatives, window, epochs, ..Default::default() };
                let name = format!("genomics dim {dim} neg {negatives} win {window} ep {epochs}");
                cases.push((name, cfg, &genomics));
            }
        }
        // Three rows and nine samples: every pair has duplicate targets, so
        // a wave must break at each one.
        let three = tiny_vocab(6, 3);
        let dense = Word2Vec { dim: 7, negatives: 8, min_count: 1, ..Default::default() };
        cases.push(("three words, negatives 8".into(), dense, &three));
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
