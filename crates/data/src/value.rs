//! [`Value`]: the sum type carried by Workflow DAG nodes.
//!
//! Every operator output in HELIX is one of: a data collection, an ML
//! model, or a scalar (paper §3.2.2: "A HELIX operator takes one or more
//! DCs and outputs DCs, ML models, or scalars"). [`ByteSized`] provides the
//! approximate resident size used by the materialization optimizer and the
//! memory tracker.

use crate::example::ExampleBatch;
use crate::model::Model;
use crate::record::RecordBatch;
use crate::unit::UnitBatch;

/// Types that can report their approximate resident heap size.
///
/// Estimates are deliberately simple (capacity-based); OEP/OMP only need
/// sizes to be *proportionally* right so that projected load times order
/// correctly.
pub trait ByteSized {
    /// Approximate resident size in bytes.
    fn byte_size(&self) -> u64;
}

/// A non-dataset result (paper: Reducer outputs, §3.2.2).
#[derive(Clone, Debug, PartialEq)]
pub enum Scalar {
    /// A single number (accuracy, inertia, …).
    F64(f64),
    /// An integer count.
    I64(i64),
    /// Free-form text (e.g. a rendered report).
    Text(String),
    /// Named metric bundle.
    Metrics(Vec<(String, f64)>),
}

impl Scalar {
    /// Numeric view of `F64`/`I64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::F64(f) => Some(*f),
            Scalar::I64(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Look up a named metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        match self {
            Scalar::Metrics(m) => m.iter().find(|(n, _)| n == name).map(|(_, v)| *v),
            _ => None,
        }
    }
}

impl ByteSized for Scalar {
    fn byte_size(&self) -> u64 {
        let base = std::mem::size_of::<Scalar>() as u64;
        match self {
            Scalar::Text(s) => base + s.capacity() as u64,
            Scalar::Metrics(m) => {
                base + m.iter().map(|(n, _)| n.capacity() as u64 + 32).sum::<u64>()
            }
            _ => base,
        }
    }
}

/// A collection of homogeneous elements (paper §3.2.1: "A DC can only
/// contain a single type of element").
#[derive(Clone, Debug)]
pub enum DataCollection {
    /// Raw or parsed records (`DC` of records).
    Records(RecordBatch),
    /// Semantic units (`DC_SU`).
    Units(UnitBatch),
    /// Examples (`DC_E`).
    Examples(ExampleBatch),
}

impl DataCollection {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            DataCollection::Records(b) => b.len(),
            DataCollection::Units(b) => b.len(),
            DataCollection::Examples(b) => b.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element-type name for error messages.
    fn element_kind(&self) -> &'static str {
        match self {
            DataCollection::Records(_) => "records",
            DataCollection::Units(_) => "semantic-units",
            DataCollection::Examples(_) => "examples",
        }
    }

    /// Borrow as records, or error.
    pub fn as_records(&self) -> helix_common::Result<&RecordBatch> {
        match self {
            DataCollection::Records(b) => Ok(b),
            other => Err(helix_common::HelixError::exec(
                "type-check",
                format!("expected records, found {}", other.element_kind()),
            )),
        }
    }

    /// Borrow as semantic units, or error.
    pub fn as_units(&self) -> helix_common::Result<&UnitBatch> {
        match self {
            DataCollection::Units(b) => Ok(b),
            other => Err(helix_common::HelixError::exec(
                "type-check",
                format!("expected semantic-units, found {}", other.element_kind()),
            )),
        }
    }

    /// Borrow as examples, or error.
    pub fn as_examples(&self) -> helix_common::Result<&ExampleBatch> {
        match self {
            DataCollection::Examples(b) => Ok(b),
            other => Err(helix_common::HelixError::exec(
                "type-check",
                format!("expected examples, found {}", other.element_kind()),
            )),
        }
    }
}

impl ByteSized for DataCollection {
    fn byte_size(&self) -> u64 {
        match self {
            DataCollection::Records(b) => b.byte_size(),
            DataCollection::Units(b) => b.byte_size(),
            DataCollection::Examples(b) => b.byte_size(),
        }
    }
}

/// Discriminant of a [`Value`] (used by the codec and for diagnostics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueKind {
    /// Record collection.
    Records,
    /// Semantic-unit collection.
    Units,
    /// Example collection.
    Examples,
    /// ML model.
    Model,
    /// Scalar.
    Scalar,
}

impl ValueKind {
    /// Stable byte tag for the storage codec.
    pub fn to_byte(self) -> u8 {
        match self {
            ValueKind::Records => 0,
            ValueKind::Units => 1,
            ValueKind::Examples => 2,
            ValueKind::Model => 3,
            ValueKind::Scalar => 4,
        }
    }

    /// Inverse of [`to_byte`](Self::to_byte).
    pub fn from_byte(b: u8) -> Option<ValueKind> {
        Some(match b {
            0 => ValueKind::Records,
            1 => ValueKind::Units,
            2 => ValueKind::Examples,
            3 => ValueKind::Model,
            4 => ValueKind::Scalar,
            _ => return None,
        })
    }
}

/// The output of a Workflow DAG node.
#[derive(Clone, Debug)]
pub enum Value {
    /// A data collection.
    Collection(DataCollection),
    /// A learned model.
    Model(Model),
    /// A scalar result.
    Scalar(Scalar),
}

impl Value {
    /// Discriminant.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Collection(DataCollection::Records(_)) => ValueKind::Records,
            Value::Collection(DataCollection::Units(_)) => ValueKind::Units,
            Value::Collection(DataCollection::Examples(_)) => ValueKind::Examples,
            Value::Model(_) => ValueKind::Model,
            Value::Scalar(_) => ValueKind::Scalar,
        }
    }

    /// Borrow as a collection, or error.
    pub fn as_collection(&self) -> helix_common::Result<&DataCollection> {
        match self {
            Value::Collection(c) => Ok(c),
            other => Err(helix_common::HelixError::exec(
                "type-check",
                format!("expected a data collection, found {:?}", other.kind()),
            )),
        }
    }

    /// Borrow as a model, or error.
    pub fn as_model(&self) -> helix_common::Result<&Model> {
        match self {
            Value::Model(m) => Ok(m),
            other => Err(helix_common::HelixError::exec(
                "type-check",
                format!("expected a model, found {:?}", other.kind()),
            )),
        }
    }

    /// Borrow as a scalar, or error.
    pub fn as_scalar(&self) -> helix_common::Result<&Scalar> {
        match self {
            Value::Scalar(s) => Ok(s),
            other => Err(helix_common::HelixError::exec(
                "type-check",
                format!("expected a scalar, found {:?}", other.kind()),
            )),
        }
    }

    /// Convenience: wrap a record batch.
    pub fn records(batch: RecordBatch) -> Value {
        Value::Collection(DataCollection::Records(batch))
    }

    /// Convenience: wrap a unit batch.
    pub fn units(batch: UnitBatch) -> Value {
        Value::Collection(DataCollection::Units(batch))
    }

    /// Convenience: wrap an example batch.
    pub fn examples(batch: ExampleBatch) -> Value {
        Value::Collection(DataCollection::Examples(batch))
    }
}

impl ByteSized for Value {
    fn byte_size(&self) -> u64 {
        match self {
            Value::Collection(c) => c.byte_size(),
            Value::Model(m) => m.byte_size(),
            Value::Scalar(s) => s.byte_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::Example;
    use crate::feature::FeatureVector;
    use crate::record::{Record, RecordBatch, Schema, Split};

    #[test]
    fn scalar_views() {
        assert_eq!(Scalar::F64(0.9).as_f64(), Some(0.9));
        assert_eq!(Scalar::I64(4).as_f64(), Some(4.0));
        assert_eq!(Scalar::Text("x".into()).as_f64(), None);
        let m = Scalar::Metrics(vec![("acc".into(), 0.8), ("f1".into(), 0.7)]);
        assert_eq!(m.metric("f1"), Some(0.7));
        assert_eq!(m.metric("auc"), None);
    }

    #[test]
    fn value_kind_byte_roundtrip() {
        for kind in [
            ValueKind::Records,
            ValueKind::Units,
            ValueKind::Examples,
            ValueKind::Model,
            ValueKind::Scalar,
        ] {
            assert_eq!(ValueKind::from_byte(kind.to_byte()), Some(kind));
        }
        assert_eq!(ValueKind::from_byte(200), None);
    }

    #[test]
    fn typed_accessors_enforce_kinds() {
        let schema = Schema::new(["a"]);
        let records = Value::records(
            RecordBatch::new(schema, vec![Record::train(vec![crate::FieldValue::Int(1)])]).unwrap(),
        );
        assert!(records.as_collection().is_ok());
        assert!(records.as_model().is_err());
        assert!(records.as_scalar().is_err());
        assert!(records.as_collection().unwrap().as_records().is_ok());
        assert!(records.as_collection().unwrap().as_examples().is_err());

        let scalar = Value::Scalar(Scalar::F64(1.0));
        assert!(scalar.as_scalar().is_ok());
        assert!(scalar.as_collection().is_err());
    }

    #[test]
    fn collection_len_dispatch() {
        let batch = ExampleBatch::dense(vec![
            Example::new(FeatureVector::zeros(1), None, Split::Train),
            Example::new(FeatureVector::zeros(1), None, Split::Test),
        ]);
        let v = Value::examples(batch);
        assert_eq!(v.as_collection().unwrap().len(), 2);
        assert!(!v.as_collection().unwrap().is_empty());
        assert!(v.byte_size() > 0);
    }
}
