//! Quickstart: declare a tiny workflow, run it twice, and watch HELIX
//! reuse materialized intermediates on the second iteration.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! With `HELIX_TRACE=<path>` set, the run also writes its spans there as
//! Chrome `trace_event` JSON (load it in Perfetto).

use helix_core::prelude::*;
use helix_data::{FieldValue, Record, RecordBatch, Scalar, Schema, Value};

fn build_workflow(reducer_version: u64) -> Workflow {
    let mut wf = Workflow::new("quickstart");

    // A data source: any closure producing a Value. Bump the version token
    // to tell HELIX "the data changed".
    let data = wf.source("data", 1, |_ctx| {
        let schema = Schema::new(["x", "label"]);
        let rows: Vec<Record> = (0..1_000)
            .map(|i| {
                let x = i as f64 / 100.0;
                Record::train(vec![FieldValue::Float(x), FieldValue::Int(i64::from(x > 5.0))])
            })
            .collect();
        Ok(Value::records(RecordBatch::new(schema, rows)?))
    });

    // DPR: extract and discretize features, assemble examples.
    let x = wf.bucketizer("xBucket", data, "x", 8);
    let label = wf.field_extractor("label", data, "label");
    let examples = wf.examples("examples", data, &[x], Some(label));

    // L/I: train a logistic model and score the data.
    let model = wf.learner(
        "model",
        examples,
        helix_core::ops::Algo::LogisticRegression { l2: 0.1, epochs: 10 },
    );
    let scored = wf.predict("scored", model, examples);

    // PPR: a custom reducer; its version token makes edits visible to
    // HELIX's change tracker.
    let summary = wf.reduce("summary", scored, reducer_version, |v, _ctx| {
        let batch = v.as_collection()?.as_examples()?;
        let positives =
            batch.examples.iter().filter(|e| e.prediction.unwrap_or(0.0) >= 0.5).count();
        Ok(Value::Scalar(Scalar::Metrics(vec![("predicted_positive".into(), positives as f64)])))
    });
    wf.output(summary);
    wf
}

fn main() -> helix_common::Result<()> {
    let mut session = Session::new(SessionConfig::in_memory())?;

    // Iteration 0: everything computes.
    let first = session.run(&build_workflow(1))?;
    println!(
        "iteration 0: {} computed / {} loaded / {} pruned, took {} ms",
        first.metrics.computed,
        first.metrics.loaded,
        first.metrics.pruned,
        first.metrics.total_nanos() / 1_000_000
    );

    // Iteration 1: only the edited reducer recomputes; everything upstream
    // is reused or pruned.
    let second = session.run(&build_workflow(2))?;
    println!(
        "iteration 1: {} computed / {} loaded / {} pruned, took {} ms",
        second.metrics.computed,
        second.metrics.loaded,
        second.metrics.pruned,
        second.metrics.total_nanos() / 1_000_000
    );
    println!(
        "summary: {:?}",
        second.output_scalar("summary").and_then(|s| s.metric("predicted_positive"))
    );

    assert!(second.metrics.computed < first.metrics.computed);
    println!("cross-iteration reuse worked: fewer operators recomputed.");
    if let Err(e) = helix::obs::write_env_trace() {
        eprintln!("warning: cannot write HELIX_TRACE file: {e}");
    }
    Ok(())
}
