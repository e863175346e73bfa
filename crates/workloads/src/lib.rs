//! # helix-workloads
//!
//! The paper's four evaluation workflows (Table 2) as reproducible,
//! seedable Rust pipelines over synthetic data, plus the iterative-change
//! simulator of §6.3:
//!
//! | workflow  | paper source          | domain           | task                       |
//! |-----------|-----------------------|------------------|----------------------------|
//! | [`census`]   | DeepDive census (1)   | social sciences  | supervised classification |
//! | [`genomics`] | Example 1 / (60)      | natural sciences | unsupervised, 2 learners  |
//! | [`ie`]       | DeepDive spouse (19)  | NLP              | structured prediction      |
//! | [`mnist`]    | KeystoneML (64)       | computer vision  | multiclass classification |
//!
//! Each workload implements [`Workload`]: `build()` produces the current
//! [`Workflow`]; `apply_change(kind)` mutates the spec the way the paper's
//! simulated developer would ("randomly choose an operator of the drawn
//! type and modify its source code"); `scripted_sequence()` is the fixed
//! change schedule used by the figure harness (drawn once from the survey
//! distributions of citation 78 and frozen for reproducibility — the bands shown
//! under Figure 5's curves).
//!
//! The paper's proprietary datasets are replaced by the synthetic
//! generators in [`gen`]; every generator is deterministic given its seed.

pub mod census;
pub mod gen;
pub mod genomics;
pub mod ie;
pub mod iterate;
pub mod mnist;

pub use census::CensusWorkload;
pub use genomics::GenomicsWorkload;
pub use ie::IeWorkload;
pub use iterate::{run_iterations, ChangeKind, Domain};
pub use mnist::MnistWorkload;

use helix_core::Workflow;

/// A paper workload: a mutable spec that can always rebuild its current
/// workflow version.
pub trait Workload {
    /// Workflow name (stable across iterations).
    fn name(&self) -> &'static str;
    /// Application domain (selects the survey change distribution).
    fn domain(&self) -> Domain;
    /// Build the current version of the workflow.
    fn build(&self) -> Workflow;
    /// Apply one iterative modification of the given kind.
    fn apply_change(&mut self, kind: ChangeKind);
    /// The frozen change schedule used by the figure harness (length =
    /// iterations − 1; iteration 0 is the initial version).
    fn scripted_sequence(&self) -> Vec<ChangeKind>;
}
