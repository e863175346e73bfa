//! Synthesizer operators: join and example assembly (paper §3.2.2).

use crate::operator::{ExecContext, Operator};
use helix_common::{HelixError, Result};
use helix_data::{
    Example, ExampleBatch, FeatureBundle, FeatureSpace, FeatureVector, SemanticUnit, Split,
    UnitBatch, Value,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Join token units against a knowledge base (paper: the Genomics workflow
/// joins literature tokens "with a genomic knowledge base"; the IE workflow
/// joins candidate pairs with known spouses). Emits one *keyed* unit per
/// occurrence of a KB entity, carrying the surrounding token context.
pub struct KbJoin {
    /// Column of the KB record batch holding entity names.
    pub kb_column: String,
    /// Tokens of context kept on each side of the match.
    pub context_window: usize,
}

impl Operator for KbJoin {
    fn execute(&self, inputs: &[Arc<Value>], _ctx: &ExecContext) -> Result<Value> {
        let [units, kb] = inputs else {
            return Err(HelixError::exec("kb-join", "expects (units, kb) inputs"));
        };
        let units = units.as_collection()?.as_units()?;
        let kb = kb.as_collection()?.as_records()?;
        let idx = kb
            .schema
            .index_of(&self.kb_column)
            .ok_or_else(|| HelixError::not_found("kb column", self.kb_column.clone()))?;
        let entities: HashSet<&str> =
            kb.rows.iter().filter_map(|r| r.values[idx].as_text()).collect();

        let mut out = Vec::new();
        for unit in &units.units {
            let FeatureBundle::Tokens(tokens) = &unit.features else { continue };
            for (pos, token) in tokens.iter().enumerate() {
                if !entities.contains(token.as_str()) {
                    continue;
                }
                let lo = pos.saturating_sub(self.context_window);
                let hi = (pos + self.context_window + 1).min(tokens.len());
                out.push(SemanticUnit {
                    origin: unit.origin,
                    split: unit.split,
                    features: FeatureBundle::Tokens(tokens[lo..hi].to_vec()),
                    key: Some(token.clone()),
                });
            }
        }
        Ok(Value::units(UnitBatch::new(out)))
    }
}

/// The central synthesizer: assemble examples from a base collection plus
/// any number of extractor unit batches (paper: `rows has_extractors(...)`
/// + `income results_from rows with_labels target`).
///
/// This operator is HELIX's *loop fusion* point (paper §6.5.3): all
/// feature-name interning, categorical indexing, and label indexing happen
/// in a single pass over the data, instead of one pass per learned
/// transform. Interning is paid once per *distinct* feature per extractor
/// slot: each slot memoizes its borrowed keys (`(k, v)`, `k`, token,
/// vector index) to dimensions, and only a miss formats the feature name
/// and interns it. Names are interned in first-occurrence order, origin
/// by origin, so the feature space does not depend on the memo.
///
/// Inputs: `[base, ext_1, …, ext_k]` and optionally a label extractor as
/// the *last* input when `labeled` is true. `owners[i]` records the DAG
/// node id of `ext_i` for feature provenance.
pub struct AssembleExamples {
    /// DAG node ids of the extractor inputs, aligned with `ext_names`.
    pub owners: Vec<u32>,
    /// Stable extractor names used to prefix feature names.
    pub ext_names: Vec<String>,
    /// Whether the last input is the label extractor.
    pub labeled: bool,
}

impl Operator for AssembleExamples {
    fn execute(&self, inputs: &[Arc<Value>], _ctx: &ExecContext) -> Result<Value> {
        if inputs.len() < 2 {
            return Err(HelixError::exec("assemble", "expects base + at least one extractor"));
        }
        let base_len = match inputs[0].as_collection()? {
            helix_data::DataCollection::Records(b) => b.len(),
            helix_data::DataCollection::Units(b) => b.len(),
            helix_data::DataCollection::Examples(b) => b.len(),
        };
        let extractor_inputs = &inputs[1..];
        let feature_count =
            if self.labeled { extractor_inputs.len() - 1 } else { extractor_inputs.len() };
        if feature_count == 0 {
            return Err(HelixError::exec("assemble", "no feature extractors"));
        }
        if self.owners.len() != feature_count || self.ext_names.len() != feature_count {
            return Err(HelixError::exec(
                "assemble",
                "owner/name metadata misaligned with extractor inputs",
            ));
        }

        // Index units by origin for each extractor (last unit wins).
        let by_origin: Vec<Vec<Option<&SemanticUnit>>> = extractor_inputs[..feature_count]
            .iter()
            .map(|input| Ok(index_by_origin(input.as_collection()?.as_units()?, base_len)))
            .collect::<Result<_>>()?;
        let labels: Option<Vec<Option<&SemanticUnit>>> = if self.labeled {
            let units = extractor_inputs[feature_count].as_collection()?.as_units()?;
            Some(index_by_origin(units, base_len))
        } else {
            None
        };

        // Single fused pass: intern features, index categorical labels,
        // and emit sparse vectors.
        type SparseRow = (Vec<(u32, f64)>, Option<f64>, Split, Option<String>);
        let mut space = FeatureSpace::new();
        let mut memos: Vec<SlotDims<'_>> =
            (0..feature_count).map(|_| SlotDims::default()).collect();
        let mut label_index: HashMap<String, f64> = HashMap::new();
        let mut sparse_rows: Vec<SparseRow> = Vec::with_capacity(base_len);

        for origin in 0..base_len {
            let mut pairs: Vec<(u32, f64)> = Vec::new();
            let mut split = None;
            let mut tag = None;
            for (slot, units) in by_origin.iter().enumerate() {
                let Some(unit) = units[origin] else { continue };
                split.get_or_insert(unit.split);
                if tag.is_none() {
                    tag = unit.key.clone();
                }
                let owner = self.owners[slot];
                let prefix = &self.ext_names[slot];
                let memo = &mut memos[slot];
                match &unit.features {
                    FeatureBundle::Categorical(kv) => {
                        for (k, v) in kv {
                            let dim =
                                *memo.categorical.entry((k.as_str(), v.as_str())).or_insert_with(
                                    || space.intern(&format!("{prefix}:{k}={v}"), owner),
                                );
                            pairs.push((dim, 1.0));
                        }
                    }
                    FeatureBundle::Numeric(kv) => {
                        for (k, v) in kv {
                            let dim = *memo
                                .numeric
                                .entry(k.as_str())
                                .or_insert_with(|| space.intern(&format!("{prefix}:{k}"), owner));
                            pairs.push((dim, *v));
                        }
                    }
                    FeatureBundle::Vector(vec) => {
                        let dense = vec.to_dense();
                        if memo.vector.len() < dense.len() {
                            memo.vector.resize(dense.len(), None);
                        }
                        for (j, x) in dense.iter().enumerate() {
                            if *x != 0.0 {
                                let dim = *memo.vector[j].get_or_insert_with(|| {
                                    space.intern(&format!("{prefix}[{j}]"), owner)
                                });
                                pairs.push((dim, *x));
                            }
                        }
                    }
                    FeatureBundle::Tokens(tokens) => {
                        for token in tokens {
                            let dim = *memo.tokens.entry(token.as_str()).or_insert_with(|| {
                                space.intern(&format!("{prefix}:tok={token}"), owner)
                            });
                            pairs.push((dim, 1.0));
                        }
                    }
                    FeatureBundle::Empty => {}
                }
            }
            let label = match &labels {
                None => None,
                Some(index) => index[origin].and_then(|u| match &u.features {
                    FeatureBundle::Numeric(kv) => kv.first().map(|(_, v)| *v),
                    FeatureBundle::Categorical(kv) => kv.first().map(|(_, v)| {
                        let next = label_index.len() as f64;
                        *label_index.entry(v.clone()).or_insert(next)
                    }),
                    _ => None,
                }),
            };
            let split = split.unwrap_or(Split::Train);
            sparse_rows.push((pairs, label, split, tag));
        }

        let dim = space.dim() as u32;
        let space = Arc::new(space);
        let examples: Vec<Example> = sparse_rows
            .into_iter()
            .map(|(pairs, label, split, tag)| {
                let mut e =
                    Example::new(FeatureVector::sparse_from_pairs(dim, pairs), label, split);
                e.tag = tag;
                e
            })
            .collect();
        Ok(Value::examples(ExampleBatch::new(space, examples)))
    }
}

/// One extractor slot's memo from a feature's borrowed key to its
/// dimension. A miss falls through to [`FeatureSpace::intern`], which
/// dedups by name, so two keys that format to the same name still share
/// one dimension and its first writer's owner.
#[derive(Default)]
struct SlotDims<'a> {
    categorical: HashMap<(&'a str, &'a str), u32>,
    numeric: HashMap<&'a str, u32>,
    tokens: HashMap<&'a str, u32>,
    vector: Vec<Option<u32>>,
}

/// Units indexed by origin row; the last unit of an origin wins, and
/// origins outside the base collection are dropped.
fn index_by_origin(units: &UnitBatch, base_len: usize) -> Vec<Option<&SemanticUnit>> {
    let mut index = vec![None; base_len];
    for u in &units.units {
        if let Some(slot) = index.get_mut(u.origin as usize) {
            *slot = Some(u);
        }
    }
    index
}

/// Turn keyed token units plus a learned embedding model into one example
/// per distinct entity (the Genomics workflow's bridge from word2vec to
/// k-means: "cluster the vector representation of genes").
pub struct EmbedEntities;

impl Operator for EmbedEntities {
    fn execute(&self, inputs: &[Arc<Value>], _ctx: &ExecContext) -> Result<Value> {
        let [model, units] = inputs else {
            return Err(HelixError::exec("embed-entities", "expects (model, units)"));
        };
        let helix_data::Model::Embeddings(embeddings) = model.as_model()? else {
            return Err(HelixError::exec("embed-entities", "expects an embedding model"));
        };
        let units = units.as_collection()?.as_units()?;
        let mut seen: HashSet<&str> = HashSet::new();
        let mut examples = Vec::new();
        for unit in &units.units {
            let Some(key) = unit.key.as_deref() else { continue };
            if !seen.insert(key) {
                continue;
            }
            let Some(vector) = embeddings.embedding(key) else { continue };
            examples.push(
                Example::new(FeatureVector::Dense(vector.to_vec()), None, Split::Train)
                    .with_tag(key),
            );
        }
        if examples.is_empty() {
            return Err(HelixError::exec("embed-entities", "no entities with embeddings"));
        }
        Ok(Value::examples(ExampleBatch::dense(examples)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_common::SplitMix64;
    use helix_data::{EmbeddingModel, FieldValue, Model, Record, RecordBatch, Schema};

    fn unit(origin: u32, features: FeatureBundle) -> SemanticUnit {
        SemanticUnit { origin, split: Split::Train, features, key: None }
    }

    #[test]
    fn assemble_merges_extractors_with_provenance() {
        let base = Arc::new(Value::records(
            RecordBatch::new(
                Schema::new(["id"]),
                vec![
                    Record::train(vec![FieldValue::Int(0)]),
                    Record::test(vec![FieldValue::Int(1)]),
                ],
            )
            .unwrap(),
        ));
        let edu = Arc::new(Value::units(UnitBatch::new(vec![
            unit(0, FeatureBundle::Categorical(vec![("edu".into(), "BS".into())])),
            SemanticUnit {
                origin: 1,
                split: Split::Test,
                features: FeatureBundle::Categorical(vec![("edu".into(), "PhD".into())]),
                key: None,
            },
        ])));
        let age = Arc::new(Value::units(UnitBatch::new(vec![
            unit(0, FeatureBundle::Numeric(vec![("age".into(), 25.0)])),
            SemanticUnit {
                origin: 1,
                split: Split::Test,
                features: FeatureBundle::Numeric(vec![("age".into(), 45.0)]),
                key: None,
            },
        ])));
        let label = Arc::new(Value::units(UnitBatch::new(vec![
            unit(0, FeatureBundle::Numeric(vec![("target".into(), 1.0)])),
            SemanticUnit {
                origin: 1,
                split: Split::Test,
                features: FeatureBundle::Numeric(vec![("target".into(), 0.0)]),
                key: None,
            },
        ])));
        let op = AssembleExamples {
            owners: vec![10, 11],
            ext_names: vec!["eduExt".into(), "ageExt".into()],
            labeled: true,
        };
        let out = op.execute(&[base, edu, age, label], &ExecContext::serial(0)).unwrap();
        let binding = out.as_collection().unwrap();
        let batch = binding.as_examples().unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.examples[0].label, Some(1.0));
        assert_eq!(batch.examples[1].split, Split::Test);
        // Provenance: the edu feature dims belong to owner 10.
        let edu_dims = batch.space.dims_of_owner(10);
        assert_eq!(edu_dims.len(), 2, "BS and PhD dims");
        assert!(batch.space.name(edu_dims[0]).unwrap().starts_with("eduExt:"));
        // Numeric feature keeps its value.
        let age_dim = batch.space.index_of("ageExt:age").unwrap();
        assert_eq!(batch.examples[1].features.get(age_dim as usize), 45.0);
    }

    #[test]
    fn assemble_categorical_labels_are_indexed() {
        let base = Arc::new(Value::records(
            RecordBatch::new(
                Schema::new(["id"]),
                vec![
                    Record::train(vec![FieldValue::Int(0)]),
                    Record::train(vec![FieldValue::Int(1)]),
                    Record::train(vec![FieldValue::Int(2)]),
                ],
            )
            .unwrap(),
        ));
        let feat = Arc::new(Value::units(UnitBatch::new(vec![
            unit(0, FeatureBundle::Numeric(vec![("x".into(), 1.0)])),
            unit(1, FeatureBundle::Numeric(vec![("x".into(), 2.0)])),
            unit(2, FeatureBundle::Numeric(vec![("x".into(), 3.0)])),
        ])));
        let label = Arc::new(Value::units(UnitBatch::new(vec![
            unit(0, FeatureBundle::Categorical(vec![("y".into(), ">50K".into())])),
            unit(1, FeatureBundle::Categorical(vec![("y".into(), "<=50K".into())])),
            unit(2, FeatureBundle::Categorical(vec![("y".into(), ">50K".into())])),
        ])));
        let op = AssembleExamples { owners: vec![1], ext_names: vec!["x".into()], labeled: true };
        let out = op.execute(&[base, feat, label], &ExecContext::serial(0)).unwrap();
        let binding = out.as_collection().unwrap();
        let batch = binding.as_examples().unwrap();
        assert_eq!(batch.examples[0].label, Some(0.0));
        assert_eq!(batch.examples[1].label, Some(1.0));
        assert_eq!(batch.examples[2].label, Some(0.0), "repeat category reuses index");
    }

    #[test]
    fn assemble_missing_units_leave_gaps() {
        // Extractor only produced a unit for origin 0; origin 1 gets no
        // features but still yields an example.
        let base = Arc::new(Value::records(
            RecordBatch::new(
                Schema::new(["id"]),
                vec![
                    Record::train(vec![FieldValue::Int(0)]),
                    Record::train(vec![FieldValue::Int(1)]),
                ],
            )
            .unwrap(),
        ));
        let feat = Arc::new(Value::units(UnitBatch::new(vec![unit(
            0,
            FeatureBundle::Numeric(vec![("x".into(), 5.0)]),
        )])));
        let op = AssembleExamples { owners: vec![1], ext_names: vec!["x".into()], labeled: false };
        let out = op.execute(&[base, feat], &ExecContext::serial(0)).unwrap();
        let binding = out.as_collection().unwrap();
        let batch = binding.as_examples().unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.examples[1].features.nnz(), 0);
    }

    #[test]
    fn assemble_validates_metadata() {
        let base = Arc::new(Value::records(RecordBatch::empty(Schema::new(["id"]))));
        let feat = Arc::new(Value::units(UnitBatch::default()));
        let bad = AssembleExamples { owners: vec![], ext_names: vec![], labeled: false };
        assert!(bad.execute(&[base.clone(), feat.clone()], &ExecContext::serial(0)).is_err());
        let bad2 =
            AssembleExamples { owners: vec![1, 2], ext_names: vec!["a".into()], labeled: false };
        assert!(bad2.execute(&[base, feat], &ExecContext::serial(0)).is_err());
    }

    #[test]
    fn kb_join_emits_keyed_context() {
        let units = Arc::new(Value::units(UnitBatch::new(vec![unit(
            0,
            FeatureBundle::Tokens(
                ["the", "brca1", "gene", "causes", "cancer"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            ),
        )])));
        let kb = Arc::new(Value::records(
            RecordBatch::new(
                Schema::new(["gene"]),
                vec![
                    Record::train(vec![FieldValue::Text("brca1".into())]),
                    Record::train(vec![FieldValue::Text("tp53".into())]),
                ],
            )
            .unwrap(),
        ));
        let op = KbJoin { kb_column: "gene".into(), context_window: 1 };
        let out = op.execute(&[units, kb], &ExecContext::serial(0)).unwrap();
        let binding = out.as_collection().unwrap();
        let joined = binding.as_units().unwrap();
        assert_eq!(joined.len(), 1);
        assert_eq!(joined.units[0].key.as_deref(), Some("brca1"));
        match &joined.units[0].features {
            FeatureBundle::Tokens(ts) => assert_eq!(ts, &vec!["the", "brca1", "gene"]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn embed_entities_one_example_per_entity() {
        let model = Arc::new(Value::Model(Model::Embeddings(EmbeddingModel {
            vocab: [("brca1".to_string(), 0u32)].into_iter().collect(),
            vectors: vec![0.5, -0.5],
            dim: 2,
        })));
        let units = Arc::new(Value::units(UnitBatch::new(vec![
            SemanticUnit {
                origin: 0,
                split: Split::Train,
                features: FeatureBundle::Empty,
                key: Some("brca1".into()),
            },
            SemanticUnit {
                origin: 1,
                split: Split::Train,
                features: FeatureBundle::Empty,
                key: Some("brca1".into()),
            },
            SemanticUnit {
                origin: 2,
                split: Split::Train,
                features: FeatureBundle::Empty,
                key: Some("unknown_gene".into()),
            },
        ])));
        let out = EmbedEntities.execute(&[model, units], &ExecContext::serial(0)).unwrap();
        let binding = out.as_collection().unwrap();
        let batch = binding.as_examples().unwrap();
        assert_eq!(batch.len(), 1, "dedup + OOV skip");
        assert_eq!(batch.examples[0].tag.as_deref(), Some("brca1"));
        assert_eq!(batch.examples[0].features.to_dense(), vec![0.5, -0.5]);
    }

    /// The specification of [`AssembleExamples`]: one `HashMap` per
    /// extractor and one `format!` + intern per feature occurrence.
    fn reference_assemble(op: &AssembleExamples, inputs: &[Arc<Value>]) -> Result<Value> {
        let base_len = match inputs[0].as_collection()? {
            helix_data::DataCollection::Records(b) => b.len(),
            helix_data::DataCollection::Units(b) => b.len(),
            helix_data::DataCollection::Examples(b) => b.len(),
        };
        let extractor_inputs = &inputs[1..];
        let feature_count =
            if op.labeled { extractor_inputs.len() - 1 } else { extractor_inputs.len() };
        let mut by_origin: Vec<HashMap<u32, &SemanticUnit>> = Vec::with_capacity(feature_count);
        for input in &extractor_inputs[..feature_count] {
            let units = input.as_collection()?.as_units()?;
            let mut map = HashMap::with_capacity(units.len());
            for u in &units.units {
                map.insert(u.origin, u);
            }
            by_origin.push(map);
        }
        let labels: Option<HashMap<u32, &SemanticUnit>> = if op.labeled {
            let units = extractor_inputs[feature_count].as_collection()?.as_units()?;
            Some(units.units.iter().map(|u| (u.origin, u)).collect())
        } else {
            None
        };
        let mut space = FeatureSpace::new();
        let mut label_index: HashMap<String, f64> = HashMap::new();
        let mut examples = Vec::with_capacity(base_len);
        for origin in 0..base_len as u32 {
            let mut pairs: Vec<(u32, f64)> = Vec::new();
            let mut split = None;
            let mut tag = None;
            for (slot, units) in by_origin.iter().enumerate() {
                let Some(unit) = units.get(&origin) else { continue };
                split.get_or_insert(unit.split);
                if tag.is_none() {
                    tag = unit.key.clone();
                }
                let owner = op.owners[slot];
                let prefix = &op.ext_names[slot];
                match &unit.features {
                    FeatureBundle::Categorical(kv) => {
                        for (k, v) in kv {
                            pairs.push((space.intern(&format!("{prefix}:{k}={v}"), owner), 1.0));
                        }
                    }
                    FeatureBundle::Numeric(kv) => {
                        for (k, v) in kv {
                            pairs.push((space.intern(&format!("{prefix}:{k}"), owner), *v));
                        }
                    }
                    FeatureBundle::Vector(vec) => {
                        for (j, x) in vec.to_dense().iter().enumerate() {
                            if *x != 0.0 {
                                pairs.push((space.intern(&format!("{prefix}[{j}]"), owner), *x));
                            }
                        }
                    }
                    FeatureBundle::Tokens(tokens) => {
                        for token in tokens {
                            pairs
                                .push((space.intern(&format!("{prefix}:tok={token}"), owner), 1.0));
                        }
                    }
                    FeatureBundle::Empty => {}
                }
            }
            let label = labels.as_ref().and_then(|map| {
                map.get(&origin).and_then(|u| match &u.features {
                    FeatureBundle::Numeric(kv) => kv.first().map(|(_, v)| *v),
                    FeatureBundle::Categorical(kv) => kv.first().map(|(_, v)| {
                        let next = label_index.len() as f64;
                        *label_index.entry(v.clone()).or_insert(next)
                    }),
                    _ => None,
                })
            });
            examples.push((pairs, label, split.unwrap_or(Split::Train), tag));
        }
        let dim = space.dim() as u32;
        let examples = examples
            .into_iter()
            .map(|(pairs, label, split, tag)| {
                let mut e =
                    Example::new(FeatureVector::sparse_from_pairs(dim, pairs), label, split);
                e.tag = tag;
                e
            })
            .collect();
        Ok(Value::examples(ExampleBatch::new(Arc::new(space), examples)))
    }

    fn assert_matches_reference(op: &AssembleExamples, inputs: &[Arc<Value>], case: &str) {
        let got = op.execute(inputs, &ExecContext::serial(0)).unwrap();
        let want = reference_assemble(op, inputs).unwrap();
        let (got_c, want_c) = (got.as_collection().unwrap(), want.as_collection().unwrap());
        let (got_b, want_b) = (got_c.as_examples().unwrap(), want_c.as_examples().unwrap());
        assert_eq!(got_b.examples, want_b.examples, "{case}: examples");
        assert_eq!(
            got_b.space.entries().collect::<Vec<_>>(),
            want_b.space.entries().collect::<Vec<_>>(),
            "{case}: feature names and owners"
        );
        assert_eq!(helix_storage::encode_value(&got), helix_storage::encode_value(&want), "{case}");
    }

    fn base_rows(n: usize) -> Arc<Value> {
        let rows = (0..n).map(|i| Record::train(vec![FieldValue::Int(i as i64)])).collect();
        Arc::new(Value::records(RecordBatch::new(Schema::new(["id"]), rows).unwrap()))
    }

    fn units(list: Vec<SemanticUnit>) -> Arc<Value> {
        Arc::new(Value::units(UnitBatch::new(list)))
    }

    fn pairs(kv: &[(&str, &str)]) -> Vec<(String, String)> {
        kv.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn assemble_memo_keeps_name_collisions_and_first_owner() {
        // `"a=b","c"` and `"a","b=c"` both name `e:a=b=c`; numeric `tok=x`
        // and token `x` both name `e:tok=x`; the second slot shares the
        // first's name under another owner.
        let first = units(vec![
            unit(0, FeatureBundle::Categorical(pairs(&[("a=b", "c"), ("a", "b=c")]))),
            unit(1, FeatureBundle::Tokens(vec!["x".into(), "y".into()])),
            unit(1, FeatureBundle::Numeric(vec![("tok=x".into(), 2.0)])),
            unit(2, FeatureBundle::Vector(FeatureVector::Dense(vec![0.0, 1.5, 2.0]))),
            unit(7, FeatureBundle::Tokens(vec!["ignored".into()])),
        ]);
        let second = units(vec![
            unit(0, FeatureBundle::Categorical(pairs(&[("a", "b=c")]))),
            unit(2, FeatureBundle::Vector(FeatureVector::sparse_from_pairs(6, vec![(5, 1.0)]))),
            unit(3, FeatureBundle::Tokens(vec!["x".into()])),
        ]);
        let labels = units(vec![
            unit(0, FeatureBundle::Categorical(pairs(&[("y", "pos")]))),
            unit(2, FeatureBundle::Numeric(vec![("y".into(), 0.5)])),
            unit(3, FeatureBundle::Categorical(pairs(&[("y", "neg")]))),
        ]);
        let op = AssembleExamples {
            owners: vec![10, 20],
            ext_names: vec!["e".into(), "e".into()],
            labeled: true,
        };
        let inputs = [base_rows(5), first, second, labels];
        assert_matches_reference(&op, &inputs, "hand case");

        let out = op.execute(&inputs, &ExecContext::serial(0)).unwrap();
        let binding = out.as_collection().unwrap();
        let batch = binding.as_examples().unwrap();
        let dim = batch.space.index_of("e:a=b=c").unwrap();
        assert_eq!(batch.space.owner(dim), Some(10), "first writer owns the shared name");
        assert_eq!(batch.examples[0].features.get(dim as usize), 3.0, "one dim, three hits");
        let tok = batch.space.index_of("e:tok=x").unwrap();
        assert_eq!(batch.examples[1].features.get(tok as usize), 2.0, "last unit of origin 1 wins");
        assert_eq!(batch.examples[3].features.get(tok as usize), 1.0);
        assert!(batch.space.index_of("e:tok=ignored").is_none(), "origin past the base");
        assert_eq!(batch.examples[4].features.nnz(), 0, "row with no unit");
    }

    fn random_bundle(rng: &mut SplitMix64) -> FeatureBundle {
        const KEYS: [&str; 6] = ["a", "a=b", "b", "b=c", "c", "tok=x"];
        const TOKENS: [&str; 4] = ["x", "y", "z", "a=b"];
        let pick = |rng: &mut SplitMix64, pool: &[&str]| pool[rng.index(pool.len())].to_string();
        match rng.next_below(6) {
            0 => FeatureBundle::Categorical(
                (0..rng.next_below(4)).map(|_| (pick(rng, &KEYS), pick(rng, &KEYS))).collect(),
            ),
            1 => FeatureBundle::Numeric(
                (0..rng.next_below(4))
                    .map(|_| (pick(rng, &KEYS), rng.range_f64(-2.0, 2.0)))
                    .collect(),
            ),
            2 => {
                FeatureBundle::Tokens((0..rng.next_below(5)).map(|_| pick(rng, &TOKENS)).collect())
            }
            3 => {
                let len = rng.next_below(6) as usize;
                let dense: Vec<f64> = (0..len)
                    .map(|_| if rng.chance(0.4) { 0.0 } else { rng.next_gaussian() })
                    .collect();
                if rng.chance(0.5) {
                    FeatureBundle::Vector(FeatureVector::Dense(dense))
                } else {
                    let sparse = dense.iter().enumerate().filter(|(_, x)| **x != 0.0);
                    let sparse = sparse.map(|(j, x)| (j as u32, *x)).collect();
                    FeatureBundle::Vector(FeatureVector::sparse_from_pairs(len as u32, sparse))
                }
            }
            4 => FeatureBundle::Empty,
            _ => FeatureBundle::Categorical(pairs(&[("a=b", "c"), ("a", "b=c")])),
        }
    }

    fn random_units(rng: &mut SplitMix64, base_len: usize, label: bool) -> Arc<Value> {
        let count = rng.next_below(base_len as u64 + 4);
        let list = (0..count)
            .map(|_| SemanticUnit {
                // Past the base, and with repeats (last wins).
                origin: rng.next_below(base_len as u64 + 2) as u32,
                split: if rng.chance(0.3) { Split::Test } else { Split::Train },
                features: if label {
                    match rng.next_below(3) {
                        0 => FeatureBundle::Numeric(vec![("y".into(), rng.next_below(3) as f64)]),
                        1 => FeatureBundle::Categorical(vec![(
                            "y".into(),
                            ["pos", "neg", "mid"][rng.index(3)].into(),
                        )]),
                        _ => FeatureBundle::Empty,
                    }
                } else {
                    random_bundle(rng)
                },
                key: rng.chance(0.3).then(|| ["k1", "k2"][rng.index(2)].to_string()),
            })
            .collect();
        units(list)
    }

    #[test]
    fn assemble_matches_the_per_occurrence_reference() {
        let mut rng = SplitMix64::new(0x5eed);
        for case in 0..400 {
            let base_len = rng.next_below(10) as usize;
            let slots = 1 + rng.index(4);
            let labeled = rng.chance(0.6);
            // Few names and owners, so slots share names across owners.
            let op = AssembleExamples {
                owners: (0..slots).map(|_| 1 + rng.next_below(3) as u32).collect(),
                ext_names: (0..slots).map(|_| ["e", "f", "e:a"][rng.index(3)].into()).collect(),
                labeled,
            };
            let mut inputs = vec![base_rows(base_len)];
            for _ in 0..slots {
                inputs.push(random_units(&mut rng, base_len, false));
            }
            if labeled {
                inputs.push(random_units(&mut rng, base_len, true));
            }
            assert_matches_reference(&op, &inputs, &format!("case {case}"));
        }
    }
}
