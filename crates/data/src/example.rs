//! Examples and the globally ordered feature space (paper §3.2.1).
//!
//! An [`Example`] is the unit of learning: a single assembled feature
//! vector, an optional label, and a split tag. The [`FeatureSpace`] fixes
//! the global index of every feature across the dataset — the paper's
//! "order of SUs in the concatenation is determined globally across D" —
//! and additionally records *provenance*: which DAG operator produced each
//! feature. Provenance is the bookkeeping that enables data-driven pruning
//! by model weights (paper §5.4).

use crate::feature::FeatureVector;
use crate::record::Split;
use crate::value::ByteSized;
use helix_common::hash::Signature;
use std::collections::HashMap;
use std::sync::Arc;

/// A single learning example.
#[derive(Clone, Debug, PartialEq)]
pub struct Example {
    /// Assembled features in the batch's [`FeatureSpace`].
    pub features: FeatureVector,
    /// Supervised label, if any (`None` for unsupervised settings).
    pub label: Option<f64>,
    /// Train/test membership.
    pub split: Split,
    /// Model output attached by an inference pass (`None` until inference).
    pub prediction: Option<f64>,
    /// Optional identity of the underlying entity (e.g. the gene name an
    /// embedding example represents) for post-processing.
    pub tag: Option<String>,
}

impl Example {
    /// Construct a bare example.
    pub fn new(features: FeatureVector, label: Option<f64>, split: Split) -> Example {
        Example { features, label, split, prediction: None, tag: None }
    }

    /// Attach an entity tag.
    #[must_use]
    pub fn with_tag(mut self, tag: impl Into<String>) -> Example {
        self.tag = Some(tag.into());
        self
    }
}

impl ByteSized for Example {
    fn byte_size(&self) -> u64 {
        std::mem::size_of::<Example>() as u64
            + self.features.byte_size()
            + self.tag.as_ref().map_or(0, |t| t.capacity() as u64)
    }
}

/// The global feature index: name → dimension, plus per-dimension
/// provenance (the DAG node id of the producing operator).
#[derive(Clone, Debug, Default)]
pub struct FeatureSpace {
    names: Vec<String>,
    owners: Vec<u32>,
    by_name: HashMap<String, u32>,
}

impl FeatureSpace {
    /// Empty space.
    pub fn new() -> FeatureSpace {
        FeatureSpace::default()
    }

    /// Intern a feature name produced by operator `owner`, returning its
    /// stable dimension index.
    pub fn intern(&mut self, name: &str, owner: u32) -> u32 {
        if let Some(&i) = self.by_name.get(name) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(name.to_string());
        self.owners.push(owner);
        self.by_name.insert(name.to_string(), i);
        i
    }

    /// Look up a feature's dimension without interning.
    pub fn index_of(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.names.len()
    }

    /// Feature name of a dimension.
    pub fn name(&self, i: u32) -> Option<&str> {
        self.names.get(i as usize).map(String::as_str)
    }

    /// Producing operator (DAG node id) of a dimension.
    pub fn owner(&self, i: u32) -> Option<u32> {
        self.owners.get(i as usize).copied()
    }

    /// All dimensions owned by `owner` (provenance query for data-driven
    /// pruning).
    pub fn dims_of_owner(&self, owner: u32) -> Vec<u32> {
        self.owners.iter().enumerate().filter(|(_, &o)| o == owner).map(|(i, _)| i as u32).collect()
    }

    /// Content signature over names+owners (participates in downstream
    /// equivalence: a different feature space is a different dataset).
    pub fn signature(&self) -> Signature {
        let mut sig = Signature::of_str("feature-space");
        for (n, o) in self.names.iter().zip(&self.owners) {
            sig = sig.chain(Signature::of_str(n)).chain_u64(*o as u64);
        }
        sig
    }

    /// Raw view for the codec.
    pub fn entries(&self) -> impl Iterator<Item = (&str, u32)> {
        self.names.iter().map(String::as_str).zip(self.owners.iter().copied())
    }

    /// Rebuild from codec entries.
    pub fn from_entries(entries: Vec<(String, u32)>) -> FeatureSpace {
        let mut space = FeatureSpace::new();
        for (name, owner) in entries {
            space.intern(&name, owner);
        }
        space
    }
}

impl ByteSized for FeatureSpace {
    fn byte_size(&self) -> u64 {
        self.names.iter().map(|n| 2 * n.capacity() as u64 + 64).sum::<u64>()
            + 4 * self.owners.len() as u64
    }
}

/// A collection of examples sharing one feature space.
#[derive(Clone, Debug)]
pub struct ExampleBatch {
    /// The shared, globally ordered feature space.
    pub space: Arc<FeatureSpace>,
    /// The examples.
    pub examples: Vec<Example>,
}

impl ExampleBatch {
    /// Wrap examples in a space.
    pub fn new(space: Arc<FeatureSpace>, examples: Vec<Example>) -> ExampleBatch {
        ExampleBatch { space, examples }
    }

    /// Batch with an anonymous space (dense pipelines that never use names).
    pub fn dense(examples: Vec<Example>) -> ExampleBatch {
        ExampleBatch { space: Arc::new(FeatureSpace::new()), examples }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }
}

impl ByteSized for ExampleBatch {
    fn byte_size(&self) -> u64 {
        self.space.byte_size() + self.examples.iter().map(ByteSized::byte_size).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_ordered() {
        let mut s = FeatureSpace::new();
        assert_eq!(s.intern("edu=BS", 3), 0);
        assert_eq!(s.intern("edu=PhD", 3), 1);
        assert_eq!(s.intern("edu=BS", 3), 0);
        assert_eq!(s.dim(), 2);
        assert_eq!(s.name(1), Some("edu=PhD"));
        assert_eq!(s.owner(0), Some(3));
        assert_eq!(s.index_of("edu=PhD"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn provenance_query() {
        let mut s = FeatureSpace::new();
        s.intern("a", 1);
        s.intern("b", 2);
        s.intern("c", 1);
        assert_eq!(s.dims_of_owner(1), vec![0, 2]);
        assert_eq!(s.dims_of_owner(2), vec![1]);
        assert!(s.dims_of_owner(9).is_empty());
    }

    #[test]
    fn signature_sensitive_to_names_and_owners() {
        let mut a = FeatureSpace::new();
        a.intern("x", 1);
        let mut b = FeatureSpace::new();
        b.intern("x", 1);
        assert_eq!(a.signature(), b.signature());
        let mut c = FeatureSpace::new();
        c.intern("x", 2);
        assert_ne!(a.signature(), c.signature());
        let mut d = FeatureSpace::new();
        d.intern("y", 1);
        assert_ne!(a.signature(), d.signature());
    }

    #[test]
    fn entries_roundtrip() {
        let mut s = FeatureSpace::new();
        s.intern("a", 1);
        s.intern("b", 7);
        let entries: Vec<(String, u32)> = s.entries().map(|(n, o)| (n.to_string(), o)).collect();
        let rebuilt = FeatureSpace::from_entries(entries);
        assert_eq!(rebuilt.signature(), s.signature());
    }

    #[test]
    fn example_tagging() {
        let e = Example::new(FeatureVector::zeros(1), None, Split::Train).with_tag("BRCA1");
        assert_eq!(e.tag.as_deref(), Some("BRCA1"));
        assert!(e.prediction.is_none());
    }
}
