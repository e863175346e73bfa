//! Evaluation metrics (the PPR side of the workloads).
//!
//! The Census example's `checkResults` reducer computes prediction accuracy
//! (paper Figure 3a, lines 17–20); the genomics workload needs a clustering
//! quality measure (we use normalized mutual information against planted
//! topics); the IE workload reports precision/recall/F1.

use std::collections::BTreeMap;

/// Fraction of `(truth, prediction)` pairs that agree after thresholding
/// predictions at 0.5 (binary) or rounding (multiclass ids).
pub fn accuracy(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let correct = pairs
        .iter()
        .filter(|(truth, pred)| {
            let p = if (0.0..=1.0).contains(pred) && truth.fract() == 0.0 && *truth <= 1.0 {
                if *pred >= 0.5 {
                    1.0
                } else {
                    0.0
                }
            } else {
                pred.round()
            };
            (p - truth).abs() < 0.5
        })
        .count();
    correct as f64 / pairs.len() as f64
}

/// Binary confusion counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Confusion {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl Confusion {
    /// Tally thresholded binary outcomes.
    pub fn from_pairs(pairs: &[(f64, f64)]) -> Confusion {
        let mut c = Confusion::default();
        for (truth, pred) in pairs {
            let p = *pred >= 0.5;
            let t = *truth >= 0.5;
            match (t, p) {
                (true, true) => c.tp += 1,
                (false, true) => c.fp += 1,
                (false, false) => c.tn += 1,
                (true, false) => c.fn_ += 1,
            }
        }
        c
    }

    /// Precision (0 when no positives predicted).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall (0 when no positive truth).
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 score.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Normalized mutual information between two labelings (clustering vs
/// planted truth); in `[0, 1]`, 1 = identical partitions.
pub fn normalized_mutual_information(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len(), "labelings must align");
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    // BTreeMaps, not HashMaps: the summations below run in iteration
    // order, and float addition is not associative — hash-random order
    // would make the result differ in the last ulp between runs, breaking
    // the engine's byte-identical determinism guarantee.
    let count = |xs: &[usize]| {
        let mut m: BTreeMap<usize, f64> = BTreeMap::new();
        for &x in xs {
            *m.entry(x).or_insert(0.0) += 1.0;
        }
        m
    };
    let ca = count(a);
    let cb = count(b);
    let mut joint: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for (&x, &y) in a.iter().zip(b) {
        *joint.entry((x, y)).or_insert(0.0) += 1.0;
    }
    let nf = n as f64;
    let mut mi = 0.0;
    for (&(x, y), &nxy) in &joint {
        let pxy = nxy / nf;
        let px = ca[&x] / nf;
        let py = cb[&y] / nf;
        mi += pxy * (pxy / (px * py)).ln();
    }
    let entropy = |m: &BTreeMap<usize, f64>| -> f64 {
        m.values()
            .map(|&c| {
                let p = c / nf;
                -p * p.ln()
            })
            .sum()
    };
    let (ha, hb) = (entropy(&ca), entropy(&cb));
    if ha == 0.0 || hb == 0.0 {
        // A constant labeling carries no information; NMI is defined as 1
        // only when both are constant (identical partitions).
        return if ha == hb { 1.0 } else { 0.0 };
    }
    (mi / (ha * hb).sqrt()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_thresholds_binary_probs() {
        let pairs = [(1.0, 0.9), (0.0, 0.1), (1.0, 0.4), (0.0, 0.6)];
        assert!((accuracy(&pairs) - 0.5).abs() < 1e-12);
        assert_eq!(accuracy(&[]), 0.0);
    }

    #[test]
    fn accuracy_rounds_multiclass_ids() {
        let pairs = [(3.0, 3.0), (2.0, 2.0), (4.0, 2.0)];
        assert!((accuracy(&pairs) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn confusion_and_f1() {
        let pairs = [(1.0, 0.9), (1.0, 0.2), (0.0, 0.8), (0.0, 0.3), (1.0, 0.7)];
        let c = Confusion::from_pairs(&pairs);
        assert_eq!(c, Confusion { tp: 2, fp: 1, tn: 1, fn_: 1 });
        assert!((c.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.f1() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_confusions() {
        let none_predicted = Confusion::from_pairs(&[(1.0, 0.0), (1.0, 0.1)]);
        assert_eq!(none_predicted.precision(), 0.0);
        assert_eq!(none_predicted.f1(), 0.0);
        let no_positives = Confusion::from_pairs(&[(0.0, 0.0)]);
        assert_eq!(no_positives.recall(), 0.0);
    }

    #[test]
    fn nmi_identical_and_independent() {
        let truth = [0, 0, 1, 1, 2, 2];
        assert!((normalized_mutual_information(&truth, &truth) - 1.0).abs() < 1e-12);
        // Permuted cluster ids are still a perfect match.
        let permuted = [2, 2, 0, 0, 1, 1];
        assert!((normalized_mutual_information(&truth, &permuted) - 1.0).abs() < 1e-12);
        // A constant labeling carries no information.
        let constant = [0; 6];
        assert_eq!(normalized_mutual_information(&truth, &constant), 0.0);
    }

    #[test]
    fn nmi_partial_agreement_between_zero_and_one() {
        let truth = [0, 0, 0, 1, 1, 1];
        let noisy = [0, 0, 1, 1, 1, 0];
        let nmi = normalized_mutual_information(&truth, &noisy);
        assert!(nmi > 0.0 && nmi < 1.0, "nmi {nmi}");
    }
}
