//! The iterative-development simulator (paper §6.3).
//!
//! "We use the iteration frequency in Figure 3 from our literature study
//! (78) to determine the type of modifications to make in each iteration…
//! At each iteration, we draw an iteration type from {DPR, L/I, PPR}
//! according to these likelihoods." The exact frequencies of (78) are not
//! reproduced in the paper; the distributions below encode its qualitative
//! findings (PPR iterations dominate the social sciences; NLP iterations
//! are all DPR; CV/natural sciences are L/I-heavy) and are frozen
//! constants of this reproduction.

use crate::Workload;
use helix_common::{Result, SplitMix64};
use helix_core::{IterationReport, Session};

/// The component a simulated developer modifies in one iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChangeKind {
    /// Data preprocessing change (feature engineering, parsing, corpus).
    Dpr,
    /// Learning/inference change (hyperparameters, model swap).
    LI,
    /// Postprocessing change (evaluation, reporting).
    Ppr,
}

impl ChangeKind {
    /// Label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            ChangeKind::Dpr => "DPR",
            ChangeKind::LI => "L/I",
            ChangeKind::Ppr => "PPR",
        }
    }
}

/// Application domain of a workload (Table 2's rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Domain {
    /// Census: covariate analysis, heavy result inspection.
    SocialSciences,
    /// Genomics: multiple learning steps, exploratory outputs.
    NaturalSciences,
    /// Information extraction: feature-engineering dominated.
    Nlp,
    /// MNIST: model-tuning dominated.
    ComputerVision,
}

impl Domain {
    /// `(P[DPR], P[L/I], P[PPR])` — our rendering of survey citation 78, Fig. 3.
    pub fn change_distribution(self) -> (f64, f64, f64) {
        match self {
            Domain::SocialSciences => (0.3, 0.2, 0.5),
            Domain::NaturalSciences => (0.2, 0.4, 0.4),
            Domain::Nlp => (1.0, 0.0, 0.0),
            Domain::ComputerVision => (0.2, 0.5, 0.3),
        }
    }

    /// Draw a change kind for this domain.
    fn sample_change(self, rng: &mut SplitMix64) -> ChangeKind {
        let (dpr, li, ppr) = self.change_distribution();
        match rng.choose_weighted(&[dpr, li, ppr]).unwrap_or(2) {
            0 => ChangeKind::Dpr,
            1 => ChangeKind::LI,
            _ => ChangeKind::Ppr,
        }
    }
}

/// Run a workload for `1 + changes.len()` iterations in `session`:
/// iteration 0 executes the initial version, then each change is applied
/// and re-run (paper §2.2's lifecycle loop).
pub fn run_iterations<W: Workload>(
    session: &mut Session,
    workload: &mut W,
    changes: &[ChangeKind],
) -> Result<Vec<IterationReport>> {
    let mut reports = Vec::with_capacity(changes.len() + 1);
    reports.push(session.run(&workload.build())?);
    for &kind in changes {
        workload.apply_change(kind);
        reports.push(session.run(&workload.build())?);
    }
    Ok(reports)
}

/// Sample a change sequence of `len` iterations for a domain (the
/// alternative to a workload's frozen `scripted_sequence`).
pub fn sample_sequence(domain: Domain, len: usize, seed: u64) -> Vec<ChangeKind> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| domain.sample_change(&mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nlp_domain_is_all_dpr() {
        let seq = sample_sequence(Domain::Nlp, 20, 1);
        assert!(seq.iter().all(|k| *k == ChangeKind::Dpr));
    }

    #[test]
    fn social_sciences_is_ppr_heavy() {
        let seq = sample_sequence(Domain::SocialSciences, 400, 2);
        let ppr = seq.iter().filter(|k| **k == ChangeKind::Ppr).count();
        let dpr = seq.iter().filter(|k| **k == ChangeKind::Dpr).count();
        assert!(ppr > dpr, "ppr {ppr} vs dpr {dpr}");
        assert!((0.4..0.6).contains(&(ppr as f64 / 400.0)));
    }

    #[test]
    fn sampling_is_deterministic() {
        assert_eq!(
            sample_sequence(Domain::ComputerVision, 10, 7),
            sample_sequence(Domain::ComputerVision, 10, 7)
        );
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(ChangeKind::Dpr.label(), "DPR");
        assert_eq!(ChangeKind::LI.label(), "L/I");
        assert_eq!(ChangeKind::Ppr.label(), "PPR");
    }
}
