//! Raw records: the input side of data preprocessing.
//!
//! A [`RecordBatch`] is HELIX's analogue of a relation: a shared [`Schema`]
//! plus rows of [`FieldValue`]s. The paper unifies training and test data in
//! a single collection so both undergo identical preprocessing (§3.2.1,
//! "Unified learning support"); we carry that through with a per-row
//! [`Split`] tag.

use crate::value::ByteSized;
use helix_common::hash::Signature;
use std::collections::HashMap;
use std::sync::Arc;

/// Train/test membership of a row or example (paper §3.2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Split {
    /// Used to fit models.
    Train,
    /// Held out; used by Reducers operating on `testData(...)`.
    Test,
}

impl Split {
    /// Stable single-byte encoding for the storage codec.
    pub fn to_byte(self) -> u8 {
        match self {
            Split::Train => 0,
            Split::Test => 1,
        }
    }

    /// Inverse of [`to_byte`](Self::to_byte).
    pub fn from_byte(b: u8) -> Option<Split> {
        match b {
            0 => Some(Split::Train),
            1 => Some(Split::Test),
            _ => None,
        }
    }
}

/// A single cell value.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Missing / not applicable.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text (also used for categorical values).
    Text(String),
}

impl FieldValue {
    /// Numeric view: `Int` and `Float` convert; `Text`/`Null` do not.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::Int(i) => Some(*i as f64),
            FieldValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Text view (categoricals).
    pub fn as_text(&self) -> Option<&str> {
        match self {
            FieldValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Render any value as a string (used when forming `col=value` feature
    /// names).
    pub fn render(&self) -> String {
        match self {
            FieldValue::Null => "∅".to_string(),
            FieldValue::Int(i) => i.to_string(),
            FieldValue::Float(f) => format!("{f}"),
            FieldValue::Text(s) => s.clone(),
        }
    }

    /// Parse a CSV cell with type inference: int, then float, then text.
    /// Empty cells become `Null`. This is the inference the paper alludes to
    /// ("the feature type … is automatically inferred by HELIX from data").
    pub fn infer(cell: &str) -> FieldValue {
        let trimmed = cell.trim();
        if trimmed.is_empty() || trimmed == "?" {
            return FieldValue::Null;
        }
        if let Ok(i) = trimmed.parse::<i64>() {
            return FieldValue::Int(i);
        }
        if let Ok(f) = trimmed.parse::<f64>() {
            return FieldValue::Float(f);
        }
        FieldValue::Text(trimmed.to_string())
    }
}

impl ByteSized for FieldValue {
    fn byte_size(&self) -> u64 {
        let base = std::mem::size_of::<FieldValue>() as u64;
        match self {
            FieldValue::Text(s) => base + s.capacity() as u64,
            _ => base,
        }
    }
}

/// Ordered column names shared by every row of a batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<String>,
    by_name: HashMap<String, usize>,
}

impl Schema {
    /// Build a schema from column names. Duplicate names keep the first
    /// index (later duplicates are unreachable by name, matching CSV
    /// semantics).
    pub fn new<I, S>(columns: I) -> Arc<Schema>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let columns: Vec<String> = columns.into_iter().map(Into::into).collect();
        let mut by_name = HashMap::with_capacity(columns.len());
        for (i, c) in columns.iter().enumerate() {
            by_name.entry(c.clone()).or_insert(i);
        }
        Arc::new(Schema { columns, by_name })
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Column names in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Content signature of the schema (participates in operator
    /// signatures so schema changes deprecate downstream results).
    pub fn signature(&self) -> Signature {
        let mut sig = Signature::of_str("schema");
        for c in &self.columns {
            sig = sig.chain(Signature::of_str(c));
        }
        sig
    }
}

/// One row: values positionally aligned with the batch schema, plus split.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Cell values, one per schema column.
    pub values: Vec<FieldValue>,
    /// Train/test membership.
    pub split: Split,
}

impl Record {
    /// Construct a training row.
    pub fn train(values: Vec<FieldValue>) -> Record {
        Record { values, split: Split::Train }
    }

    /// Construct a test row.
    pub fn test(values: Vec<FieldValue>) -> Record {
        Record { values, split: Split::Test }
    }
}

impl ByteSized for Record {
    fn byte_size(&self) -> u64 {
        std::mem::size_of::<Record>() as u64
            + self.values.iter().map(ByteSized::byte_size).sum::<u64>()
    }
}

/// A relation: schema + rows.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordBatch {
    /// Shared column naming.
    pub schema: Arc<Schema>,
    /// The rows.
    pub rows: Vec<Record>,
}

impl RecordBatch {
    /// Create a batch, checking row arity against the schema.
    pub fn new(schema: Arc<Schema>, rows: Vec<Record>) -> helix_common::Result<RecordBatch> {
        if let Some(bad) = rows.iter().position(|r| r.values.len() != schema.arity()) {
            return Err(helix_common::HelixError::spec(format!(
                "row {bad} has {} values but schema has {} columns",
                rows[bad].values.len(),
                schema.arity()
            )));
        }
        Ok(RecordBatch { schema, rows })
    }

    /// Empty batch over a schema.
    pub fn empty(schema: Arc<Schema>) -> RecordBatch {
        RecordBatch { schema, rows: Vec::new() }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Value of `column` in row `row`, if both exist.
    pub fn cell(&self, row: usize, column: &str) -> Option<&FieldValue> {
        let idx = self.schema.index_of(column)?;
        self.rows.get(row).map(|r| &r.values[idx])
    }

    /// Concatenate two batches over the same schema.
    pub fn concat(mut self, other: RecordBatch) -> helix_common::Result<RecordBatch> {
        if self.schema != other.schema {
            return Err(helix_common::HelixError::spec(
                "cannot concat batches with different schemas",
            ));
        }
        self.rows.extend(other.rows);
        Ok(self)
    }
}

impl ByteSized for RecordBatch {
    fn byte_size(&self) -> u64 {
        // Schema is shared; attribute it once.
        let schema: u64 = self.schema.columns().iter().map(|c| c.capacity() as u64 + 48).sum();
        schema + self.rows.iter().map(ByteSized::byte_size).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Schema::new(["age", "education", "income"])
    }

    /// One row per non-blank line of `text`, cells typed by
    /// [`FieldValue::infer`] and tagged `split`; arity is checked by
    /// [`RecordBatch::new`].
    fn csv(schema: Arc<Schema>, text: &str, split: Split) -> helix_common::Result<RecordBatch> {
        let lines = text.lines().filter(|line| !line.trim().is_empty());
        let rows = lines
            .map(|line| Record { values: line.split(',').map(FieldValue::infer).collect(), split });
        RecordBatch::new(schema, rows.collect())
    }

    #[test]
    fn field_value_inference() {
        assert_eq!(FieldValue::infer("42"), FieldValue::Int(42));
        assert_eq!(FieldValue::infer("4.5"), FieldValue::Float(4.5));
        assert_eq!(FieldValue::infer(" BSc "), FieldValue::Text("BSc".into()));
        assert_eq!(FieldValue::infer(""), FieldValue::Null);
        assert_eq!(FieldValue::infer("?"), FieldValue::Null);
    }

    #[test]
    fn field_value_views() {
        assert_eq!(FieldValue::Int(3).as_f64(), Some(3.0));
        assert_eq!(FieldValue::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(FieldValue::Text("x".into()).as_f64(), None);
        assert_eq!(FieldValue::Text("x".into()).as_text(), Some("x"));
        assert_eq!(FieldValue::Null.as_text(), None);
    }

    #[test]
    fn schema_lookup_and_signature() {
        let s = schema();
        assert_eq!(s.index_of("education"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.arity(), 3);
        let s2 = Schema::new(["age", "education", "income"]);
        assert_eq!(s.signature(), s2.signature());
        let s3 = Schema::new(["age", "education", "wealth"]);
        assert_ne!(s.signature(), s3.signature());
    }

    #[test]
    fn batch_arity_checked() {
        let s = schema();
        let ok = RecordBatch::new(
            s.clone(),
            vec![Record::train(vec![
                FieldValue::Int(30),
                FieldValue::Text("BS".into()),
                FieldValue::Int(1),
            ])],
        );
        assert!(ok.is_ok());
        let bad = RecordBatch::new(s, vec![Record::train(vec![FieldValue::Int(30)])]);
        assert!(bad.is_err());
    }

    #[test]
    fn csv_parsing_and_splits() {
        let s = schema();
        let train = csv(s.clone(), "30,BS,1\n41,PhD,0\n", Split::Train).unwrap();
        let test = csv(s, "55,MS,1\n", Split::Test).unwrap();
        let all = train.concat(test).unwrap();
        assert_eq!(all.len(), 3);
        let splits: Vec<Split> = all.rows.iter().map(|r| r.split).collect();
        assert_eq!(splits, [Split::Train, Split::Train, Split::Test]);
        assert_eq!(all.cell(0, "education").unwrap().as_text(), Some("BS"));
        assert_eq!(all.cell(2, "age").unwrap().as_f64(), Some(55.0));
    }

    #[test]
    fn csv_bad_arity_rejected() {
        let s = schema();
        assert!(csv(s, "1,2\n", Split::Train).is_err());
    }

    #[test]
    fn concat_schema_mismatch_rejected() {
        let a = RecordBatch::empty(schema());
        let b = RecordBatch::empty(Schema::new(["x"]));
        assert!(a.concat(b).is_err());
    }

    #[test]
    fn byte_size_grows_with_rows() {
        let s = schema();
        let small = csv(s.clone(), "30,BS,1\n", Split::Train).unwrap();
        let large = csv(s, &"30,BS,1\n".repeat(100), Split::Train).unwrap();
        // Schema overhead is shared, so compare row-attributable growth.
        assert!(large.byte_size() - small.byte_size() > 90 * small.rows[0].byte_size());
    }

    #[test]
    fn split_byte_roundtrip() {
        for s in [Split::Train, Split::Test] {
            assert_eq!(Split::from_byte(s.to_byte()), Some(s));
        }
        assert_eq!(Split::from_byte(9), None);
    }
}
