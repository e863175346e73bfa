//! Semantic units: the DPR intermediate representation (paper §3.2.1).
//!
//! A [`SemanticUnit`] carries the *logical* features an extractor produced
//! for one upstream element, before physical vector assembly. Each Extractor
//! node in the DAG outputs a [`UnitBatch`] aligned index-for-index with its
//! input collection (`origin` records the upstream element), so the
//! synthesizer can zip any number of extractor outputs together into
//! examples and the optimizer can treat every extractor as an independent,
//! individually reusable node.

use crate::feature::FeatureBundle;
use crate::record::Split;
use crate::value::ByteSized;

/// One extractor's features for one upstream element.
#[derive(Clone, Debug, PartialEq)]
pub struct SemanticUnit {
    /// Index of the originating element in the extractor's input collection.
    pub origin: u32,
    /// Train/test membership inherited from the origin element.
    pub split: Split,
    /// The features (logical representation).
    pub features: FeatureBundle,
    /// Optional join/grouping key (used by Synthesizers that join DCs,
    /// e.g. matching entity mentions against a knowledge base).
    pub key: Option<String>,
}

impl SemanticUnit {
    /// Unit with features only.
    pub fn new(origin: u32, split: Split, features: FeatureBundle) -> SemanticUnit {
        SemanticUnit { origin, split, features, key: None }
    }

    /// Unit with a join key.
    pub fn keyed(
        origin: u32,
        split: Split,
        features: FeatureBundle,
        key: impl Into<String>,
    ) -> SemanticUnit {
        SemanticUnit { origin, split, features, key: Some(key.into()) }
    }
}

impl ByteSized for SemanticUnit {
    fn byte_size(&self) -> u64 {
        std::mem::size_of::<SemanticUnit>() as u64
            + self.features.byte_size()
            + self.key.as_ref().map_or(0, |k| k.capacity() as u64)
    }
}

/// A collection of semantic units (one extractor's output).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct UnitBatch {
    /// The units, ordered by `origin` (not necessarily contiguous: a
    /// flat-mapping Scanner can emit zero or many units per input).
    pub units: Vec<SemanticUnit>,
}

impl UnitBatch {
    /// Wrap a vector of units.
    pub fn new(units: Vec<SemanticUnit>) -> UnitBatch {
        UnitBatch { units }
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }
}

impl ByteSized for UnitBatch {
    fn byte_size(&self) -> u64 {
        self.units.iter().map(ByteSized::byte_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_split_filter() {
        let batch = UnitBatch::new(vec![
            SemanticUnit::new(0, Split::Train, FeatureBundle::Numeric(vec![("x".into(), 1.0)])),
            SemanticUnit::new(1, Split::Test, FeatureBundle::Empty),
            SemanticUnit::keyed(2, Split::Train, FeatureBundle::Empty, "BRCA1"),
        ]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.units.iter().filter(|u| u.split == Split::Train).count(), 2);
        assert_eq!(batch.units[2].key.as_deref(), Some("BRCA1"));
    }

    #[test]
    fn byte_size_counts_features_and_keys() {
        let plain = SemanticUnit::new(0, Split::Train, FeatureBundle::Empty);
        let keyed = SemanticUnit::keyed(
            0,
            Split::Train,
            FeatureBundle::Tokens(vec!["gene".into(), "disease".into()]),
            "somekey",
        );
        assert!(keyed.byte_size() > plain.byte_size());
    }
}
