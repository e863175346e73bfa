//! Extractor operators: record → semantic unit (paper §3.2.2).
//!
//! Every extractor outputs a [`UnitBatch`] aligned with its input
//! collection (`origin` = element index), so the synthesizer can zip any
//! subset of extractors into examples and the optimizer can prune, reuse,
//! or materialize each extractor independently — the granularity at which
//! the Census experiment's feature-engineering iterations operate.

use crate::operator::{ExecContext, Operator};
use helix_common::{HelixError, Result};
use helix_data::{FeatureBundle, SemanticUnit, UnitBatch, Value};
use helix_ml::preprocess::QuantileBucketizer;
use std::sync::Arc;

/// The paper's `FieldExtractor("age")`: a single named column becomes a
/// feature — numeric columns yield numeric features, text columns yield
/// categorical `col=value` features.
pub struct FieldExtractor {
    column: String,
}

impl FieldExtractor {
    /// Extract `column`.
    pub fn new(column: impl Into<String>) -> FieldExtractor {
        FieldExtractor { column: column.into() }
    }
}

impl Operator for FieldExtractor {
    fn execute(&self, inputs: &[Arc<Value>], ctx: &ExecContext) -> Result<Value> {
        let [input] = inputs else {
            return Err(HelixError::exec("field-extractor", "expects one input"));
        };
        let batch = input.as_collection()?.as_records()?;
        let idx = batch
            .schema
            .index_of(&self.column)
            .ok_or_else(|| HelixError::not_found("column", self.column.clone()))?;
        let column = &self.column;
        let units: Vec<SemanticUnit> = ctx.pool.map(&batch.rows, |row| {
            let features = match &row.values[idx] {
                v @ helix_data::FieldValue::Int(_) | v @ helix_data::FieldValue::Float(_) => {
                    FeatureBundle::Numeric(vec![(column.clone(), v.as_f64().unwrap())])
                }
                helix_data::FieldValue::Text(s) => {
                    FeatureBundle::Categorical(vec![(column.clone(), s.clone())])
                }
                helix_data::FieldValue::Null => FeatureBundle::Empty,
            };
            SemanticUnit { origin: 0, split: row.split, features, key: None }
        });
        Ok(Value::units(with_origins(units)))
    }
}

/// The paper's `Bucketizer(ageExt, bins=10)` (Figure 3a line 11): learns
/// quantile boundaries over the *whole* dataset (the full scan HELIX avoids
/// by materializing this node) and emits categorical bucket features.
pub struct BucketizerExtractor {
    column: String,
    bins: usize,
}

impl BucketizerExtractor {
    /// Discretize `column` into `bins` quantile buckets.
    pub fn new(column: impl Into<String>, bins: usize) -> BucketizerExtractor {
        BucketizerExtractor { column: column.into(), bins }
    }
}

impl Operator for BucketizerExtractor {
    fn execute(&self, inputs: &[Arc<Value>], ctx: &ExecContext) -> Result<Value> {
        let [input] = inputs else {
            return Err(HelixError::exec("bucketizer", "expects one input"));
        };
        let batch = input.as_collection()?.as_records()?;
        let idx = batch
            .schema
            .index_of(&self.column)
            .ok_or_else(|| HelixError::not_found("column", self.column.clone()))?;
        // Learning pass: collect every value (train AND test share the same
        // discretization — the paper's unified-DPR guarantee).
        let values: Vec<f64> = batch.rows.iter().filter_map(|r| r.values[idx].as_f64()).collect();
        let model = QuantileBucketizer { bins: self.bins }.fit(&values)?;
        let name = format!("{}_bucket", self.column);
        let units: Vec<SemanticUnit> = ctx.pool.map(&batch.rows, |row| {
            let features = match row.values[idx].as_f64() {
                Some(v) => FeatureBundle::Categorical(vec![(
                    name.clone(),
                    QuantileBucketizer::transform(&model, v).to_string(),
                )]),
                None => FeatureBundle::Empty,
            };
            SemanticUnit { origin: 0, split: row.split, features, key: None }
        });
        Ok(Value::units(with_origins(units)))
    }
}

/// The paper's `InteractionFeature(Array(eduExt, occExt))` (Figure 3a line
/// 12): the cross product of two extractors' categorical features.
pub struct InteractionFeature;

impl Operator for InteractionFeature {
    fn execute(&self, inputs: &[Arc<Value>], _ctx: &ExecContext) -> Result<Value> {
        let [a, b] = inputs else {
            return Err(HelixError::exec("interaction", "expects two inputs"));
        };
        let a = a.as_collection()?.as_units()?;
        let b = b.as_collection()?.as_units()?;
        if a.len() != b.len() {
            return Err(HelixError::exec(
                "interaction",
                format!("misaligned inputs: {} vs {} units", a.len(), b.len()),
            ));
        }
        let mut units = Vec::with_capacity(a.len());
        for (ua, ub) in a.units.iter().zip(&b.units) {
            let features = match (&ua.features, &ub.features) {
                (FeatureBundle::Categorical(ka), FeatureBundle::Categorical(kb)) => {
                    let mut crossed = Vec::with_capacity(ka.len() * kb.len());
                    for (fa, va) in ka {
                        for (fb, vb) in kb {
                            crossed.push((format!("{fa}x{fb}"), format!("{va}x{vb}")));
                        }
                    }
                    FeatureBundle::Categorical(crossed)
                }
                _ => FeatureBundle::Empty,
            };
            units.push(SemanticUnit { origin: ua.origin, split: ua.split, features, key: None });
        }
        Ok(Value::units(UnitBatch::new(units)))
    }
}

/// Tokenize a text column into token units (the Genomics/IE corpora's
/// first DPR step; the paper used CoreNLP tokenization).
pub struct TokenizeColumn {
    column: String,
    /// Preserve case (needed for the IE person-name features).
    cased: bool,
    /// Drop stop words.
    remove_stop_words: bool,
}

impl TokenizeColumn {
    /// Lowercasing, stop-word-removing tokenizer.
    pub fn new(column: impl Into<String>) -> TokenizeColumn {
        TokenizeColumn { column: column.into(), cased: false, remove_stop_words: true }
    }

    /// Case-preserving variant (keeps stop words too).
    pub fn cased(column: impl Into<String>) -> TokenizeColumn {
        TokenizeColumn { column: column.into(), cased: true, remove_stop_words: false }
    }
}

impl Operator for TokenizeColumn {
    fn execute(&self, inputs: &[Arc<Value>], ctx: &ExecContext) -> Result<Value> {
        let [input] = inputs else {
            return Err(HelixError::exec("tokenize", "expects one input"));
        };
        let batch = input.as_collection()?.as_records()?;
        let idx = batch
            .schema
            .index_of(&self.column)
            .ok_or_else(|| HelixError::not_found("column", self.column.clone()))?;
        let units: Vec<SemanticUnit> = ctx.pool.map(&batch.rows, |row| {
            let text = row.values[idx].as_text().unwrap_or("");
            let tokens = if self.cased {
                helix_ml::text::tokenize_cased(text)
            } else {
                let t = helix_ml::text::tokenize(text);
                if self.remove_stop_words {
                    helix_ml::text::remove_stop_words(t)
                } else {
                    t
                }
            };
            SemanticUnit {
                origin: 0,
                split: row.split,
                features: FeatureBundle::Tokens(tokens),
                key: None,
            }
        });
        Ok(Value::units(with_origins(units)))
    }
}

/// Arbitrary user-defined extractor over records (the paper's embedded
/// Scala UDFs; here a Rust closure with an explicit version token carried
/// by the DSL).
pub struct UdfExtractor<F> {
    udf: F,
}

impl<F> UdfExtractor<F>
where
    F: Fn(&helix_data::Record, &helix_data::Schema) -> FeatureBundle + Send + Sync,
{
    /// Wrap the closure.
    pub fn new(udf: F) -> Self {
        UdfExtractor { udf }
    }
}

impl<F> Operator for UdfExtractor<F>
where
    F: Fn(&helix_data::Record, &helix_data::Schema) -> FeatureBundle + Send + Sync,
{
    fn execute(&self, inputs: &[Arc<Value>], ctx: &ExecContext) -> Result<Value> {
        let [input] = inputs else {
            return Err(HelixError::exec("udf-extractor", "expects one input"));
        };
        let batch = input.as_collection()?.as_records()?;
        let schema = &batch.schema;
        let units: Vec<SemanticUnit> = ctx.pool.map(&batch.rows, |row| SemanticUnit {
            origin: 0,
            split: row.split,
            features: (self.udf)(row, schema),
            key: None,
        });
        Ok(Value::units(with_origins(units)))
    }
}

/// Stamp sequential origins onto parallel-map output (the map preserves
/// input order, so index == origin).
fn with_origins(mut units: Vec<SemanticUnit>) -> UnitBatch {
    for (i, u) in units.iter_mut().enumerate() {
        u.origin = i as u32;
    }
    UnitBatch::new(units)
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_data::{FieldValue, Record, RecordBatch, Schema, Split};

    fn census_batch() -> Arc<Value> {
        let schema = Schema::new(["age", "education"]);
        let rows = vec![
            Record::train(vec![FieldValue::Int(25), FieldValue::Text("BS".into())]),
            Record::train(vec![FieldValue::Int(45), FieldValue::Text("PhD".into())]),
            Record::test(vec![FieldValue::Int(65), FieldValue::Null]),
        ];
        Arc::new(Value::records(RecordBatch::new(schema, rows).unwrap()))
    }

    #[test]
    fn field_extractor_types() {
        let out =
            FieldExtractor::new("age").execute(&[census_batch()], &ExecContext::serial(0)).unwrap();
        let binding = out.as_collection().unwrap();
        let units = binding.as_units().unwrap();
        assert_eq!(units.len(), 3);
        assert_eq!(units.units[0].features, FeatureBundle::Numeric(vec![("age".into(), 25.0)]));
        assert_eq!(units.units.iter().map(|u| u.origin).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(units.units[2].split, Split::Test);

        let out = FieldExtractor::new("education")
            .execute(&[census_batch()], &ExecContext::serial(0))
            .unwrap();
        let binding = out.as_collection().unwrap();
        let units = binding.as_units().unwrap();
        assert_eq!(
            units.units[1].features,
            FeatureBundle::Categorical(vec![("education".into(), "PhD".into())])
        );
        assert_eq!(units.units[2].features, FeatureBundle::Empty, "null → empty bundle");
    }

    #[test]
    fn missing_column_is_an_error() {
        assert!(FieldExtractor::new("nope")
            .execute(&[census_batch()], &ExecContext::serial(0))
            .is_err());
    }

    #[test]
    fn bucketizer_produces_bucket_categories() {
        let out = BucketizerExtractor::new("age", 2)
            .execute(&[census_batch()], &ExecContext::serial(0))
            .unwrap();
        let binding = out.as_collection().unwrap();
        let units = binding.as_units().unwrap();
        let get_bucket = |i: usize| match &units.units[i].features {
            FeatureBundle::Categorical(kv) => kv[0].1.clone(),
            other => panic!("expected categorical, got {other:?}"),
        };
        assert_ne!(get_bucket(0), get_bucket(2), "25 and 65 fall in different buckets");
    }

    #[test]
    fn interaction_crosses_categoricals() {
        let edu = FieldExtractor::new("education")
            .execute(&[census_batch()], &ExecContext::serial(0))
            .unwrap();
        let age_bucket = BucketizerExtractor::new("age", 2)
            .execute(&[census_batch()], &ExecContext::serial(0))
            .unwrap();
        let out = InteractionFeature
            .execute(&[Arc::new(edu), Arc::new(age_bucket)], &ExecContext::serial(0))
            .unwrap();
        let binding = out.as_collection().unwrap();
        let units = binding.as_units().unwrap();
        match &units.units[0].features {
            FeatureBundle::Categorical(kv) => {
                assert_eq!(kv.len(), 1);
                assert!(kv[0].0.contains('x'), "crossed name: {}", kv[0].0);
            }
            other => panic!("expected categorical, got {other:?}"),
        }
        // Row with a null education (Empty bundle) crosses to Empty.
        assert_eq!(units.units[2].features, FeatureBundle::Empty);
    }

    #[test]
    fn tokenizer_modes() {
        let schema = Schema::new(["text"]);
        let batch = Arc::new(Value::records(
            RecordBatch::new(
                schema,
                vec![Record::train(vec![FieldValue::Text("The Gene is Active".into())])],
            )
            .unwrap(),
        ));
        let lower = TokenizeColumn::new("text")
            .execute(&[Arc::clone(&batch)], &ExecContext::serial(0))
            .unwrap();
        let lower_binding = lower.as_collection().unwrap();
        match &lower_binding.as_units().unwrap().units[0].features {
            FeatureBundle::Tokens(ts) => assert_eq!(ts, &vec!["gene", "active"]),
            other => panic!("{other:?}"),
        }
        let cased =
            TokenizeColumn::cased("text").execute(&[batch], &ExecContext::serial(0)).unwrap();
        let cased_binding = cased.as_collection().unwrap();
        match &cased_binding.as_units().unwrap().units[0].features {
            FeatureBundle::Tokens(ts) => {
                assert_eq!(ts, &vec!["The", "Gene", "is", "Active"])
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn udf_extractor_runs_closure() {
        let op = UdfExtractor::new(|row: &Record, schema: &Schema| {
            let idx = schema.index_of("age").unwrap();
            let age = row.values[idx].as_f64().unwrap_or(0.0);
            FeatureBundle::Numeric(vec![("age_squared".into(), age * age)])
        });
        let out = op.execute(&[census_batch()], &ExecContext::serial(0)).unwrap();
        let binding = out.as_collection().unwrap();
        let units = binding.as_units().unwrap();
        assert_eq!(
            units.units[1].features,
            FeatureBundle::Numeric(vec![("age_squared".into(), 2025.0)])
        );
    }
}
