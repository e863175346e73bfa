//! Data sources and parsing operators (paper: `FileSource`, `Scanner`).

use crate::operator::{ExecContext, Operator, ProvenanceInputs};
use helix_common::{HelixError, Result};
use helix_data::{Record, RecordBatch, Schema, Value};
use std::sync::Arc;

/// A data source backed by a user closure (synthetic generators, file
/// readers). The DSL couples it with an explicit version token so change
/// tracking can tell "same generator" from "new data". A generator that
/// draws on the context seed/RNG (synthetic random data) must be
/// declared `seeded` so the tracker keys its output by seed.
pub struct ClosureSource<F> {
    generate: F,
    seeded: bool,
}

impl<F> ClosureSource<F>
where
    F: Fn(&ExecContext) -> Result<Value> + Send + Sync,
{
    /// Wrap a generator closure that does not consume the seed.
    pub fn new(generate: F) -> Self {
        ClosureSource { generate, seeded: false }
    }

    /// Wrap a generator closure that draws on the context seed/RNG.
    pub fn seeded(generate: F) -> Self {
        ClosureSource { generate, seeded: true }
    }
}

impl<F> Operator for ClosureSource<F>
where
    F: Fn(&ExecContext) -> Result<Value> + Send + Sync,
{
    fn execute(&self, inputs: &[Arc<Value>], ctx: &ExecContext) -> Result<Value> {
        if !inputs.is_empty() {
            return Err(HelixError::exec("source", "sources take no inputs"));
        }
        (self.generate)(ctx)
    }

    fn byte_affecting_inputs(&self) -> ProvenanceInputs {
        if self.seeded {
            ProvenanceInputs::SEED
        } else {
            ProvenanceInputs::NONE
        }
    }
}

/// The paper's `CSVScanner` (Figure 3a line 4): parses a collection of raw
/// lines (single-column records) into typed, named columns.
pub struct CsvScan {
    schema: Arc<Schema>,
}

impl CsvScan {
    /// Scanner producing `columns`.
    pub fn new(columns: &[&str]) -> CsvScan {
        CsvScan { schema: Schema::new(columns.iter().copied()) }
    }
}

impl Operator for CsvScan {
    fn execute(&self, inputs: &[Arc<Value>], ctx: &ExecContext) -> Result<Value> {
        let [input] = inputs else {
            return Err(HelixError::exec("csv-scan", "expects exactly one input"));
        };
        let lines = input.as_collection()?.as_records()?;
        let arity = self.schema.arity();
        let rows: Vec<Result<Record>> = ctx.pool.map(&lines.rows, |row| {
            let line = row.values.first().and_then(|v| v.as_text()).unwrap_or("");
            let values: Vec<helix_data::FieldValue> =
                line.split(',').map(helix_data::FieldValue::infer).collect();
            if values.len() != arity {
                return Err(HelixError::exec(
                    "csv-scan",
                    format!("line has {} cells, expected {arity}", values.len()),
                ));
            }
            Ok(Record { values, split: row.split })
        });
        let rows: Result<Vec<Record>> = rows.into_iter().collect();
        Ok(Value::records(RecordBatch::new(Arc::clone(&self.schema), rows?)?))
    }
}

/// Generic flat-mapping Scanner (paper §3.2.2: "for each input element, it
/// adds zero or more elements to the output DC. Thus, it can also be used
/// to perform filtering"). Used by the IE workload to split articles into
/// sentences.
pub struct RecordScan<F> {
    out_schema: Arc<Schema>,
    map: F,
}

impl<F> RecordScan<F>
where
    F: Fn(&Record, &Schema) -> Vec<Record> + Send + Sync,
{
    /// Scanner emitting records under `out_schema`.
    pub fn new(out_schema: Arc<Schema>, map: F) -> Self {
        RecordScan { out_schema, map }
    }
}

impl<F> Operator for RecordScan<F>
where
    F: Fn(&Record, &Schema) -> Vec<Record> + Send + Sync,
{
    fn execute(&self, inputs: &[Arc<Value>], ctx: &ExecContext) -> Result<Value> {
        let [input] = inputs else {
            return Err(HelixError::exec("scan", "expects exactly one input"));
        };
        let batch = input.as_collection()?.as_records()?;
        let schema = &batch.schema;
        let chunks: Vec<Vec<Record>> = ctx.pool.map(&batch.rows, |row| (self.map)(row, schema));
        let mut rows = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        for mut chunk in chunks {
            for r in &mut chunk {
                if r.values.len() != self.out_schema.arity() {
                    return Err(HelixError::exec(
                        "scan",
                        format!(
                            "udf produced {} values, schema expects {}",
                            r.values.len(),
                            self.out_schema.arity()
                        ),
                    ));
                }
            }
            rows.append(&mut chunk);
        }
        Ok(Value::records(RecordBatch::new(Arc::clone(&self.out_schema), rows)?))
    }
}

/// Build the single-column "raw lines" batch a [`CsvScan`] consumes.
pub fn lines_batch(train: &str, test: &str) -> Result<RecordBatch> {
    let schema = Schema::new(["line"]);
    let mut rows = Vec::new();
    for line in train.lines().filter(|l| !l.trim().is_empty()) {
        rows.push(Record::train(vec![helix_data::FieldValue::Text(line.to_string())]));
    }
    for line in test.lines().filter(|l| !l.trim().is_empty()) {
        rows.push(Record::test(vec![helix_data::FieldValue::Text(line.to_string())]));
    }
    RecordBatch::new(schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_data::{FieldValue, Split};

    #[test]
    fn csv_scan_parses_lines() {
        let lines = lines_batch("30,BS,1\n41,PhD,0\n", "55,MS,1\n").unwrap();
        let scan = CsvScan::new(&["age", "edu", "target"]);
        let out =
            scan.execute(&[Arc::new(Value::records(lines))], &ExecContext::serial(0)).unwrap();
        let batch_binding = out.as_collection().unwrap();
        let batch = batch_binding.as_records().unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.cell(0, "age"), Some(&FieldValue::Int(30)));
        assert_eq!(batch.cell(1, "edu").unwrap().as_text(), Some("PhD"));
        assert_eq!(batch.rows[2].split, Split::Test);
    }

    #[test]
    fn csv_scan_rejects_ragged_lines() {
        let lines = lines_batch("1,2\n", "").unwrap();
        let scan = CsvScan::new(&["a", "b", "c"]);
        assert!(scan.execute(&[Arc::new(Value::records(lines))], &ExecContext::serial(0)).is_err());
    }

    #[test]
    fn record_scan_flat_maps_and_filters() {
        let schema = Schema::new(["text"]);
        let batch = RecordBatch::new(
            schema,
            vec![
                Record::train(vec![FieldValue::Text("one. two.".into())]),
                Record::train(vec![FieldValue::Text("".into())]),
            ],
        )
        .unwrap();
        let out_schema = Schema::new(["sentence"]);
        let scan = RecordScan::new(Arc::clone(&out_schema), |row, schema| {
            let idx = schema.index_of("text").unwrap();
            let text = row.values[idx].as_text().unwrap_or("");
            helix_ml::text::split_sentences(text)
                .into_iter()
                .map(|s| Record { values: vec![FieldValue::Text(s.to_string())], split: row.split })
                .collect()
        });
        let out =
            scan.execute(&[Arc::new(Value::records(batch))], &ExecContext::serial(0)).unwrap();
        let out_binding = out.as_collection().unwrap();
        let records = out_binding.as_records().unwrap();
        assert_eq!(records.len(), 2, "empty article filtered, two sentences kept");
    }

    #[test]
    fn source_rejects_inputs() {
        let src =
            ClosureSource::new(|_ctx: &ExecContext| Ok(Value::Scalar(helix_data::Scalar::I64(1))));
        let dummy = Arc::new(Value::Scalar(helix_data::Scalar::I64(0)));
        assert!(src.execute(&[dummy], &ExecContext::serial(0)).is_err());
        assert!(src.execute(&[], &ExecContext::serial(0)).is_ok());
    }
}
