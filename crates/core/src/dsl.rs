//! The Rust embedding of HML (paper §3.2).
//!
//! HML is an embedded DSL: "users can freely incorporate Scala code for
//! UDFs directly into HML". The Rust equivalent is a builder —
//! [`Workflow`] — whose methods mirror HML's statements:
//!
//! | HML (paper Figure 3a)                   | here                          |
//! |-----------------------------------------|-------------------------------|
//! | `data refers_to FileSource(...)`        | [`Workflow::source`]          |
//! | `data is_read_into rows using CSVScanner` | [`Workflow::csv_scan`]      |
//! | `ageExt refers_to FieldExtractor("age")`| [`Workflow::field_extractor`] |
//! | `Bucketizer(ageExt, bins=10)`           | [`Workflow::bucketizer`]      |
//! | `InteractionFeature(Array(e, o))`       | [`Workflow::interaction`]     |
//! | `rows has_extractors(...)` + `income results_from rows with_labels target` | [`Workflow::examples`] |
//! | `incPred refers_to Learner("LR", 0.1)`  | [`Workflow::learner`]         |
//! | `predictions results_from incPred on income` | [`Workflow::predict`]   |
//! | `checkResults refers_to Reducer(udf)`   | [`Workflow::reduce`] & friends|
//! | `checkResults uses ...`                 | [`Workflow::uses`]            |
//! | `checked is_output()`                   | [`Workflow::output`]          |
//!
//! UDF closures carry an explicit `version` token: HELIX detects change by
//! representational comparison of declarations (§4.2), and a closure's
//! body is opaque to us just as compiled Scala was to HELIX — bumping the
//! version is the declaration change.
//!
//! Handles are phase-typed ([`DcHandle`], [`ModelHandle`], [`ScalarHandle`])
//! so wiring mistakes (e.g. reducing a model) fail at compile time.
//! Structural misuse that types cannot catch (duplicate names, foreign
//! handles) panics immediately at declaration site with a clear message —
//! these are programming errors in the workflow definition, not runtime
//! conditions.

use crate::operator::{decl_signature, ExecContext, NodeSpec, Operator};
use crate::ops::{extract, learn, reduce, source, synth, Algo};
use helix_common::hash::Signature;
use helix_common::Result;
use helix_data::{FeatureBundle, Record, Schema, Value};
use helix_exec::Phase;
use helix_flow::{Dag, NodeId};
use std::collections::HashMap;
use std::sync::Arc;

/// Handle to a node producing a data collection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DcHandle(NodeId);

/// Handle to a node producing an ML model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelHandle(NodeId);

/// Handle to a node producing a scalar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScalarHandle(NodeId);

/// Anything that names a DAG node.
pub trait AsNode: Copy {
    /// The underlying node id.
    fn node(self) -> NodeId;
}

impl AsNode for DcHandle {
    fn node(self) -> NodeId {
        self.0
    }
}
impl AsNode for ModelHandle {
    fn node(self) -> NodeId {
        self.0
    }
}
impl AsNode for ScalarHandle {
    fn node(self) -> NodeId {
        self.0
    }
}

/// A declarative ML workflow: the unit the session compiles, optimizes and
/// executes each iteration.
pub struct Workflow {
    name: String,
    dag: Dag<NodeSpec>,
    by_name: HashMap<String, NodeId>,
}

impl Workflow {
    /// Start an empty workflow.
    pub fn new(name: impl Into<String>) -> Workflow {
        Workflow { name: name.into(), dag: Dag::new(), by_name: HashMap::new() }
    }

    /// Workflow name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying DAG (read-only).
    pub fn dag(&self) -> &Dag<NodeSpec> {
        &self.dag
    }

    /// Number of declared operators.
    pub fn len(&self) -> usize {
        self.dag.len()
    }

    /// True when nothing is declared.
    pub fn is_empty(&self) -> bool {
        self.dag.is_empty()
    }

    /// Node id by operator name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Output node ids (marked via [`output`](Self::output)).
    pub fn outputs(&self) -> Vec<NodeId> {
        self.dag.iter().filter(|(_, spec)| spec.is_output).map(|(id, _)| id).collect()
    }

    fn add(
        &mut self,
        name: &str,
        phase: Phase,
        decl_sig: Signature,
        volatile: bool,
        operator: Arc<dyn Operator>,
        inputs: &[NodeId],
    ) -> NodeId {
        assert!(
            !self.by_name.contains_key(name),
            "workflow `{}`: duplicate operator name `{name}`",
            self.name
        );
        let id = self.dag.add_node(NodeSpec {
            name: name.to_string(),
            phase,
            decl_sig,
            volatile,
            is_output: false,
            operator,
        });
        for &input in inputs {
            self.dag.add_edge(input, id).unwrap_or_else(|e| {
                panic!("workflow `{}`: bad edge into `{name}`: {e}", self.name)
            });
        }
        self.by_name.insert(name.to_string(), id);
        id
    }

    // ------------------------------------------------------------------
    // DPR declarations
    // ------------------------------------------------------------------

    /// Declare a data source backed by a generator closure. `version` is
    /// the declaration version: bump it to signal "the data changed".
    /// The generator must not consume the context seed/RNG — use
    /// [`source_seeded`](Self::source_seeded) for synthetic random data.
    pub fn source<F>(&mut self, name: &str, version: u64, generate: F) -> DcHandle
    where
        F: Fn(&ExecContext) -> Result<Value> + Send + Sync + 'static,
    {
        let sig = decl_signature("Source", &[name, &format!("v{version}")]);
        let id = self.add(
            name,
            Phase::Dpr,
            sig,
            false,
            Arc::new(source::ClosureSource::new(generate)),
            &[],
        );
        DcHandle(id)
    }

    /// Declare a data source whose generator draws on the context
    /// seed/RNG (synthetic random data). The operator declares
    /// [`ProvenanceInputs::SEED`](crate::operator::ProvenanceInputs), so
    /// its output — and everything downstream — is keyed by seed and
    /// never shared between sessions running different seeds.
    pub fn source_seeded<F>(&mut self, name: &str, version: u64, generate: F) -> DcHandle
    where
        F: Fn(&ExecContext) -> Result<Value> + Send + Sync + 'static,
    {
        let sig = decl_signature("SeededSource", &[name, &format!("v{version}")]);
        let id = self.add(
            name,
            Phase::Dpr,
            sig,
            false,
            Arc::new(source::ClosureSource::seeded(generate)),
            &[],
        );
        DcHandle(id)
    }

    /// Parse raw single-column lines into named columns (the paper's
    /// `CSVScanner`).
    pub fn csv_scan(&mut self, name: &str, input: DcHandle, columns: &[&str]) -> DcHandle {
        let mut params = vec![name];
        params.extend_from_slice(columns);
        let sig = decl_signature("CsvScan", &params);
        let id = self.add(
            name,
            Phase::Dpr,
            sig,
            false,
            Arc::new(source::CsvScan::new(columns)),
            &[input.0],
        );
        DcHandle(id)
    }

    /// Generic flat-mapping scanner with a versioned UDF.
    pub fn scan<F>(
        &mut self,
        name: &str,
        input: DcHandle,
        version: u64,
        out_schema: Arc<Schema>,
        map: F,
    ) -> DcHandle
    where
        F: Fn(&Record, &Schema) -> Vec<Record> + Send + Sync + 'static,
    {
        let sig = decl_signature(
            "Scan",
            &[name, &format!("v{version}"), &out_schema.signature().to_hex()],
        );
        let id = self.add(
            name,
            Phase::Dpr,
            sig,
            false,
            Arc::new(source::RecordScan::new(out_schema, map)),
            &[input.0],
        );
        DcHandle(id)
    }

    /// `FieldExtractor(column)`.
    pub fn field_extractor(&mut self, name: &str, input: DcHandle, column: &str) -> DcHandle {
        let sig = decl_signature("FieldExtractor", &[name, column]);
        let id = self.add(
            name,
            Phase::Dpr,
            sig,
            false,
            Arc::new(extract::FieldExtractor::new(column)),
            &[input.0],
        );
        DcHandle(id)
    }

    /// `Bucketizer(column, bins)` — learned quantile discretization.
    pub fn bucketizer(
        &mut self,
        name: &str,
        input: DcHandle,
        column: &str,
        bins: usize,
    ) -> DcHandle {
        let sig = decl_signature("Bucketizer", &[name, column, &format!("bins={bins}")]);
        let id = self.add(
            name,
            Phase::Dpr,
            sig,
            false,
            Arc::new(extract::BucketizerExtractor::new(column, bins)),
            &[input.0],
        );
        DcHandle(id)
    }

    /// `InteractionFeature(a, b)` — categorical cross product.
    pub fn interaction(&mut self, name: &str, a: DcHandle, b: DcHandle) -> DcHandle {
        let sig = decl_signature("Interaction", &[name]);
        let id = self.add(
            name,
            Phase::Dpr,
            sig,
            false,
            Arc::new(extract::InteractionFeature),
            &[a.0, b.0],
        );
        DcHandle(id)
    }

    /// Lowercasing, stop-word-removing tokenizer over a text column.
    pub fn tokenize(&mut self, name: &str, input: DcHandle, column: &str) -> DcHandle {
        let sig = decl_signature("Tokenize", &[name, column, "lower"]);
        let id = self.add(
            name,
            Phase::Dpr,
            sig,
            false,
            Arc::new(extract::TokenizeColumn::new(column)),
            &[input.0],
        );
        DcHandle(id)
    }

    /// Case-preserving tokenizer (for name-detection features).
    pub fn tokenize_cased(&mut self, name: &str, input: DcHandle, column: &str) -> DcHandle {
        let sig = decl_signature("Tokenize", &[name, column, "cased"]);
        let id = self.add(
            name,
            Phase::Dpr,
            sig,
            false,
            Arc::new(extract::TokenizeColumn::cased(column)),
            &[input.0],
        );
        DcHandle(id)
    }

    /// Versioned feature-extraction UDF.
    pub fn udf_extractor<F>(
        &mut self,
        name: &str,
        input: DcHandle,
        version: u64,
        udf: F,
    ) -> DcHandle
    where
        F: Fn(&Record, &Schema) -> FeatureBundle + Send + Sync + 'static,
    {
        let sig = decl_signature("UdfExtractor", &[name, &format!("v{version}")]);
        let id = self.add(
            name,
            Phase::Dpr,
            sig,
            false,
            Arc::new(extract::UdfExtractor::new(udf)),
            &[input.0],
        );
        DcHandle(id)
    }

    /// Join token units against a knowledge base column, emitting keyed
    /// context units.
    pub fn kb_join(
        &mut self,
        name: &str,
        units: DcHandle,
        kb: DcHandle,
        kb_column: &str,
        context_window: usize,
    ) -> DcHandle {
        let sig = decl_signature("KbJoin", &[name, kb_column, &format!("window={context_window}")]);
        let id = self.add(
            name,
            Phase::Dpr,
            sig,
            false,
            Arc::new(synth::KbJoin { kb_column: kb_column.to_string(), context_window }),
            &[units.0, kb.0],
        );
        DcHandle(id)
    }

    /// Assemble examples from a base collection and extractors, optionally
    /// labeled (the paper's `has_extractors` + `results_from … with_labels`).
    ///
    /// The compiler's automatic extractor→synthesizer edges (the dotted
    /// edges of Figure 3b) are exactly the input edges added here.
    pub fn examples(
        &mut self,
        name: &str,
        base: DcHandle,
        extractors: &[DcHandle],
        label: Option<DcHandle>,
    ) -> DcHandle {
        assert!(!extractors.is_empty(), "examples `{name}` needs at least one extractor");
        let owners: Vec<u32> = extractors.iter().map(|h| h.0 .0).collect();
        let ext_names: Vec<String> =
            extractors.iter().map(|h| self.dag.payload(h.0).name.clone()).collect();
        let mut params: Vec<String> = vec![name.to_string()];
        params.extend(ext_names.iter().cloned());
        if label.is_some() {
            params.push("labeled".into());
        }
        let params_ref: Vec<&str> = params.iter().map(String::as_str).collect();
        let sig = decl_signature("AssembleExamples", &params_ref);
        let mut inputs = vec![base.0];
        inputs.extend(extractors.iter().map(|h| h.0));
        if let Some(l) = label {
            inputs.push(l.0);
        }
        let id = self.add(
            name,
            Phase::Dpr,
            sig,
            false,
            Arc::new(synth::AssembleExamples { owners, ext_names, labeled: label.is_some() }),
            &inputs,
        );
        DcHandle(id)
    }

    /// Fully general versioned UDF over one or more collections, producing
    /// a collection (the paper's "imperative code as needed for UDFs"
    /// escape hatch — e.g. the IE workflow's candidate-pair ⋈ knowledge-base
    /// labeling join).
    pub fn udf_collection<F>(
        &mut self,
        name: &str,
        phase: Phase,
        inputs: &[DcHandle],
        version: u64,
        udf: F,
    ) -> DcHandle
    where
        F: Fn(&[Arc<Value>], &ExecContext) -> Result<Value> + Send + Sync + 'static,
    {
        assert!(!inputs.is_empty(), "udf_collection `{name}` needs at least one input");
        let sig = decl_signature("UdfCollection", &[name, &format!("v{version}")]);
        let input_ids: Vec<NodeId> = inputs.iter().map(|h| h.0).collect();
        let id = self.add(name, phase, sig, false, Arc::new(udf), &input_ids);
        DcHandle(id)
    }

    /// Like [`udf_collection`](Self::udf_collection), but for UDFs that
    /// draw on the context seed or RNG: the operator declares
    /// [`ProvenanceInputs::SEED`](crate::operator::ProvenanceInputs), so
    /// the tracker keys its artifacts by seed and sessions with
    /// different seeds never share them. (A plain `udf_collection`
    /// closure that consumes the seed fails loudly at execution time.)
    pub fn udf_collection_seeded<F>(
        &mut self,
        name: &str,
        phase: Phase,
        inputs: &[DcHandle],
        version: u64,
        udf: F,
    ) -> DcHandle
    where
        F: Fn(&[Arc<Value>], &ExecContext) -> Result<Value> + Send + Sync + 'static,
    {
        assert!(!inputs.is_empty(), "udf_collection_seeded `{name}` needs at least one input");
        let sig = decl_signature("UdfCollectionSeeded", &[name, &format!("v{version}")]);
        let input_ids: Vec<NodeId> = inputs.iter().map(|h| h.0).collect();
        let id = self.add(
            name,
            phase,
            sig,
            false,
            Arc::new(crate::operator::SeededOperator(udf)),
            &input_ids,
        );
        DcHandle(id)
    }

    // ------------------------------------------------------------------
    // L/I declarations
    // ------------------------------------------------------------------

    /// `Learner(algo)` — produces a model node. Random-Fourier learners
    /// are volatile (paper §6.2: MNIST's nondeterministic preprocessing).
    pub fn learner(&mut self, name: &str, input: DcHandle, algo: Algo) -> ModelHandle {
        let params = algo.sig_params();
        let mut params_ref: Vec<&str> = vec![name];
        params_ref.extend(params.iter().map(String::as_str));
        let sig = decl_signature("Learner", &params_ref);
        let volatile = algo.is_volatile();
        let id = self.add(
            name,
            Phase::LearnInference,
            sig,
            volatile,
            Arc::new(learn::Learner { algo }),
            &[input.0],
        );
        ModelHandle(id)
    }

    /// Apply a model to a collection (`predictions results_from incPred on
    /// income`).
    pub fn predict(&mut self, name: &str, model: ModelHandle, data: DcHandle) -> DcHandle {
        let sig = decl_signature("Predict", &[name]);
        let id = self.add(
            name,
            Phase::LearnInference,
            sig,
            false,
            Arc::new(learn::Predict),
            &[model.0, data.0],
        );
        DcHandle(id)
    }

    /// One example per distinct entity key, with its learned embedding.
    pub fn embed_entities(
        &mut self,
        name: &str,
        model: ModelHandle,
        entities: DcHandle,
    ) -> DcHandle {
        let sig = decl_signature("EmbedEntities", &[name]);
        let id = self.add(
            name,
            Phase::LearnInference,
            sig,
            false,
            Arc::new(synth::EmbedEntities),
            &[model.0, entities.0],
        );
        DcHandle(id)
    }

    // ------------------------------------------------------------------
    // PPR declarations
    // ------------------------------------------------------------------

    /// Test-split accuracy reducer (the paper's `checkResults`).
    pub fn accuracy(&mut self, name: &str, predictions: DcHandle) -> ScalarHandle {
        let sig = decl_signature("AccuracyReducer", &[name]);
        let id = self.add(
            name,
            Phase::Ppr,
            sig,
            false,
            Arc::new(reduce::AccuracyReducer),
            &[predictions.0],
        );
        ScalarHandle(id)
    }

    /// Test-split precision/recall/F1 reducer.
    pub fn f1(&mut self, name: &str, predictions: DcHandle) -> ScalarHandle {
        let sig = decl_signature("F1Reducer", &[name]);
        let id =
            self.add(name, Phase::Ppr, sig, false, Arc::new(reduce::F1Reducer), &[predictions.0]);
        ScalarHandle(id)
    }

    /// Cluster-size summary reducer.
    pub fn cluster_summary(&mut self, name: &str, assigned: DcHandle, k: usize) -> ScalarHandle {
        let sig = decl_signature("ClusterSummary", &[name, &format!("k={k}")]);
        let id = self.add(
            name,
            Phase::Ppr,
            sig,
            false,
            Arc::new(reduce::ClusterSummaryReducer { k }),
            &[assigned.0],
        );
        ScalarHandle(id)
    }

    /// Versioned scalar-producing UDF reducer.
    pub fn reduce<H, F>(&mut self, name: &str, input: H, version: u64, udf: F) -> ScalarHandle
    where
        H: AsNode,
        F: Fn(&Value, &ExecContext) -> Result<Value> + Send + Sync + 'static,
    {
        let sig = decl_signature("UdfReducer", &[name, &format!("v{version}")]);
        let id = self.add(
            name,
            Phase::Ppr,
            sig,
            false,
            Arc::new(reduce::UdfReducer::new(udf)),
            &[input.node()],
        );
        ScalarHandle(id)
    }

    /// Versioned scalar-producing UDF over several inputs (the n-ary twin
    /// of [`reduce`](Self::reduce); the join point of branchy workflows).
    pub fn reduce_many<H, F, const N: usize>(
        &mut self,
        name: &str,
        inputs: [H; N],
        version: u64,
        udf: F,
    ) -> ScalarHandle
    where
        H: AsNode,
        F: Fn(&[Arc<Value>], &ExecContext) -> Result<Value> + Send + Sync + 'static,
    {
        assert!(N > 0, "reduce_many `{name}` needs at least one input");
        let sig = decl_signature("UdfReducerN", &[name, &format!("v{version}")]);
        let input_ids: Vec<NodeId> = inputs.iter().map(|h| h.node()).collect();
        let id = self.add(
            name,
            Phase::Ppr,
            sig,
            false,
            Arc::new(reduce::UdfReducerN::new(N, udf)),
            &input_ids,
        );
        ScalarHandle(id)
    }

    // ------------------------------------------------------------------
    // Structure declarations
    // ------------------------------------------------------------------

    /// Declare an explicit dependency the optimizer cannot see inside a
    /// UDF (the paper's `uses` keyword, §5.4: prevents premature pruning /
    /// uncaching).
    pub fn uses<A: AsNode, B: AsNode>(&mut self, user: A, dependency: B) {
        self.dag
            .add_edge(dependency.node(), user.node())
            .unwrap_or_else(|e| panic!("workflow `{}`: bad uses edge: {e}", self.name));
    }

    /// Mark a node as a required workflow output (`is_output()`).
    pub fn output<H: AsNode>(&mut self, handle: H) {
        self.dag.payload_mut(handle.node()).is_output = true;
    }

    /// Mark an already-declared operator as an output by name (useful when
    /// inspecting intermediates of a workflow built elsewhere, e.g. for
    /// data-driven pruning analyses).
    pub fn mark_output(&mut self, name: &str) -> helix_common::Result<()> {
        let id = self
            .node_by_name(name)
            .ok_or_else(|| helix_common::HelixError::not_found("operator", name))?;
        self.dag.payload_mut(id).is_output = true;
        Ok(())
    }

    /// Graphviz rendering of the workflow DAG.
    pub fn to_dot(&self) -> String {
        self.dag.to_dot(|_, spec| format!("{}\\n[{}]", spec.name, spec.phase.label()))
    }
}

impl std::fmt::Debug for Workflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workflow")
            .field("name", &self.name)
            .field("operators", &self.dag.len())
            .field("outputs", &self.outputs().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_data::{FieldValue, RecordBatch, Scalar};

    /// The paper's Census workflow (Figure 3a), on inline data.
    fn census_workflow() -> Workflow {
        let mut wf = Workflow::new("census");
        let data = wf.source("data", 1, |_ctx| {
            Ok(Value::records(source::lines_batch(
                "39,Bachelors,Adm-clerical,White,1\n50,Masters,Exec-managerial,White,0\n\
                 38,HS-grad,Handlers-cleaners,Black,0\n28,Bachelors,Prof-specialty,Asian,1\n",
                "44,Masters,Exec-managerial,White,1\n23,HS-grad,Adm-clerical,White,0\n",
            )?))
        });
        let rows = wf.csv_scan("rows", data, &["age", "education", "occupation", "race", "target"]);
        let edu = wf.field_extractor("eduExt", rows, "education");
        let occ = wf.field_extractor("occExt", rows, "occupation");
        let _race = wf.field_extractor("raceExt", rows, "race"); // pruned: unused
        let age_bucket = wf.bucketizer("ageBucket", rows, "age", 2);
        let edu_x_occ = wf.interaction("eduXocc", edu, occ);
        let target = wf.field_extractor("target", rows, "target");
        let income = wf.examples("income", rows, &[edu, occ, age_bucket, edu_x_occ], Some(target));
        let model = wf.learner("incPred", income, Algo::LogisticRegression { l2: 0.1, epochs: 8 });
        let predictions = wf.predict("predictions", model, income);
        let checked = wf.accuracy("checked", predictions);
        wf.output(checked);
        wf
    }

    #[test]
    fn census_workflow_structure() {
        let wf = census_workflow();
        assert_eq!(wf.len(), 12);
        assert_eq!(wf.outputs().len(), 1);
        let rows = wf.node_by_name("rows").unwrap();
        let income = wf.node_by_name("income").unwrap();
        // Extractor→synthesizer edges were added automatically.
        let income_parents = wf.dag().parents(income);
        assert!(income_parents.contains(&rows));
        assert!(income_parents.contains(&wf.node_by_name("eduXocc").unwrap()));
        assert_eq!(income_parents.len(), 6, "base + 4 extractors + label");
        // Topologically valid.
        assert!(wf.dag().topo_order().is_ok());
    }

    #[test]
    fn dot_rendering_mentions_phases() {
        let wf = census_workflow();
        let dot = wf.to_dot();
        assert!(dot.contains("income"));
        assert!(dot.contains("[DPR]"));
        assert!(dot.contains("[L/I]"));
        assert!(dot.contains("[PPR]"));
    }

    #[test]
    #[should_panic(expected = "duplicate operator name")]
    fn duplicate_names_panic() {
        let mut wf = Workflow::new("dup");
        wf.source("a", 1, |_| Ok(Value::Scalar(Scalar::I64(1))));
        wf.source("a", 1, |_| Ok(Value::Scalar(Scalar::I64(2))));
    }

    #[test]
    fn uses_adds_explicit_edge() {
        let mut wf = Workflow::new("uses");
        let a = wf.source("a", 1, |_| Ok(Value::Scalar(Scalar::I64(1))));
        let b = wf.source("b", 1, |_| Ok(Value::Scalar(Scalar::I64(2))));
        let r = wf.reduce("r", a, 1, |_v, _| Ok(Value::Scalar(Scalar::I64(0))));
        wf.uses(r, b);
        let parents = wf.dag().parents(r.node());
        assert_eq!(parents.len(), 2);
    }

    #[test]
    fn decl_signatures_differ_by_params() {
        let mut wf1 = Workflow::new("w");
        let d1 = wf1.source("d", 1, |_| Ok(Value::Scalar(Scalar::I64(1))));
        let b1 = wf1.bucketizer("b", d1, "age", 10);

        let mut wf2 = Workflow::new("w");
        let d2 = wf2.source("d", 1, |_| Ok(Value::Scalar(Scalar::I64(1))));
        let b2 = wf2.bucketizer("b", d2, "age", 12);

        assert_eq!(wf1.dag().payload(d1.node()).decl_sig, wf2.dag().payload(d2.node()).decl_sig);
        assert_ne!(
            wf1.dag().payload(b1.node()).decl_sig,
            wf2.dag().payload(b2.node()).decl_sig,
            "bins change must change the declaration signature"
        );
    }

    #[test]
    fn source_version_changes_signature() {
        let mut wf1 = Workflow::new("w");
        let d1 = wf1.source("d", 1, |_| Ok(Value::Scalar(Scalar::I64(1))));
        let mut wf2 = Workflow::new("w");
        let d2 = wf2.source("d", 2, |_| Ok(Value::Scalar(Scalar::I64(1))));
        assert_ne!(wf1.dag().payload(d1.node()).decl_sig, wf2.dag().payload(d2.node()).decl_sig);
    }

    #[test]
    fn volatile_learner_flagged() {
        let mut wf = Workflow::new("w");
        let d = wf.source("d", 1, |_| {
            Ok(Value::records(RecordBatch::new(
                Schema::new(["x"]),
                vec![Record::train(vec![FieldValue::Int(1)])],
            )?))
        });
        let x = wf.field_extractor("x", d, "x");
        let ex = wf.examples("ex", d, &[x], None);
        let rff = wf.learner("rff", ex, Algo::RandomFourier { dim_out: 4, gamma: 0.1 });
        let lr = wf.learner("lr", ex, Algo::LogisticRegression { l2: 0.1, epochs: 1 });
        assert!(wf.dag().payload(rff.node()).volatile);
        assert!(!wf.dag().payload(lr.node()).volatile);
    }
}
