//! The iteration driver (paper §2.2, "The Workflow Lifecycle").
//!
//! A [`Session`] persists across iterations: it owns the materialization
//! catalog, the per-signature run-time statistics, and volatile-operator
//! nonces. Each `run(&workflow)` performs the full lifecycle:
//!
//! 1. **DAG compilation** — chain signatures (`track`).
//! 2. **Purge** — deprecated materializations of original operators are
//!    removed (paper §6.6: storage is non-monotonic for this reason).
//! 3. **DAG optimization** — OPT-EXEC-PLAN via max-flow (`plan`).
//! 4. **Volatile refresh** — non-deterministic operators about to
//!    re-execute get fresh nonces; the plan is recomputed so stale
//!    downstream artifacts cannot be loaded.
//! 5. **Execution + materialization** — the engine runs the plan, making
//!    streaming OPT-MAT-PLAN decisions (Algorithm 2) under the budget.
//! 6. **Statistics update** — measured times feed the next iteration.
//!
//! Baselines from the paper's evaluation are session configurations:
//! [`SessionConfig::keystoneml_like`] (no reuse, no materialization) and
//! [`SessionConfig::deepdive_like`] (materialize everything, reuse DPR
//! only).

use crate::dsl::Workflow;
use crate::engine::{execute, EngineParams};
use crate::materialize::MatStrategy;
use crate::pipeline::BackgroundWriter;
use crate::plan::{plan, PlanInputs};
use crate::track::{chain_signatures, signature_snapshot, ExecEnv};
use helix_common::hash::Signature;
use helix_common::timing::Nanos;
use helix_common::Result;
use helix_data::{Scalar, Value};
use helix_exec::{CoreBudget, IterationMetrics};
use helix_flow::oep::State;
use helix_storage::catalog::SOLO_OWNER;
use helix_storage::{DiskProfile, MaterializationCatalog};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Which operator phases may reuse materialized results across iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReuseScope {
    /// HELIX: any equivalent materialization is reusable.
    All,
    /// DeepDive-like: only data-preprocessing results are reused;
    /// learning/inference and postprocessing always recompute.
    DprOnly,
    /// KeystoneML-like: no cross-iteration reuse at all.
    None,
}

/// Session configuration.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Worker-pool width for data-parallel operators.
    pub workers: usize,
    /// Materialization policy (OPT / AM / NM).
    pub strategy: MatStrategy,
    /// Reuse scope (system personality).
    pub reuse: ReuseScope,
    /// Storage budget in bytes (paper §6.3 used 10 GB).
    pub storage_budget_bytes: u64,
    /// Emulated disk characteristics.
    pub disk: DiskProfile,
    /// Catalog directory; `None` = fresh temp directory.
    pub catalog_dir: Option<PathBuf>,
    /// Master seed for all stochastic operators. `None` = unset: solo
    /// sessions fall back to [`DEFAULT_SEED`]; a service fills in its
    /// configured default at `open_session` time. The seed is part of the
    /// signature provenance ([`ExecEnv`]), so sessions with different
    /// seeds can safely share one catalog — seed-dependent artifacts are
    /// keyed apart, seed-independent ones still collide and are reused.
    pub seed: Option<u64>,
    /// Compute-time estimate for operators never measured before.
    pub default_compute_nanos: Nanos,
    /// Pipelined iteration runtime (on by default): prefetched loads and
    /// background materialization writes overlap an iteration's compute.
    /// Off = the same engine code with zero load lanes and no writer, the
    /// reference the determinism suites compare against. Results are
    /// byte-identical either way.
    pub pipeline: bool,
}

/// The seed a session runs under when neither the caller nor a service
/// supplies one.
pub const DEFAULT_SEED: u64 = 42;

impl SessionConfig {
    /// HELIX OPT on an unthrottled temp catalog (tests, examples).
    pub fn in_memory() -> SessionConfig {
        SessionConfig {
            workers: 1,
            strategy: MatStrategy::Opt,
            reuse: ReuseScope::All,
            storage_budget_bytes: 256 << 20,
            disk: DiskProfile::unthrottled(),
            catalog_dir: None,
            seed: None,
            default_compute_nanos: 1_000_000,
            pipeline: true,
        }
    }

    /// The KeystoneML-like baseline: one-shot execution, "no intermediate
    /// results are materialized … it does not optimize execution across
    /// iterations" (paper §6.1).
    pub fn keystoneml_like() -> SessionConfig {
        SessionConfig { strategy: MatStrategy::Never, reuse: ReuseScope::None, ..Self::in_memory() }
    }

    /// The DeepDive-like baseline: "all intermediate results are
    /// materialized" (paper §6.1), but only DPR results are reused across
    /// iterations (its learning/evaluation always rerun, §6.5.1).
    pub fn deepdive_like() -> SessionConfig {
        SessionConfig {
            strategy: MatStrategy::Always,
            reuse: ReuseScope::DprOnly,
            ..Self::in_memory()
        }
    }

    /// Builder: set the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> SessionConfig {
        self.workers = workers;
        self
    }

    /// Builder: set the disk profile.
    #[must_use]
    pub fn with_disk(mut self, disk: DiskProfile) -> SessionConfig {
        self.disk = disk;
        self
    }

    /// Builder: set the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> SessionConfig {
        self.seed = Some(seed);
        self
    }

    /// The seed this configuration resolves to ([`DEFAULT_SEED`] when
    /// unset).
    fn resolved_seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }

    /// Builder: set the storage budget.
    #[must_use]
    pub fn with_budget(mut self, bytes: u64) -> SessionConfig {
        self.storage_budget_bytes = bytes;
        self
    }

    /// Builder: set the materialization strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: MatStrategy) -> SessionConfig {
        self.strategy = strategy;
        self
    }

    /// Builder: toggle the pipelined iteration runtime.
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: bool) -> SessionConfig {
        self.pipeline = pipeline;
        self
    }
}

/// Shared infrastructure a service injects into a tenant session.
///
/// A solo [`Session::new`] builds private handles (its own catalog, no
/// core budget); `helix-serve` builds one catalog and one [`CoreBudget`]
/// per service and hands every session the same `Arc`s, which is what
/// makes cross-tenant artifact reuse and machine-wide core accounting
/// work.
#[derive(Clone)]
pub struct SessionHandles {
    /// The (possibly shared) materialization catalog.
    pub catalog: Arc<MaterializationCatalog>,
    /// The shared core-token budget (`None` = unconstrained).
    pub core_budget: Option<Arc<CoreBudget>>,
    /// Owner label for catalog accounting
    /// ([`helix_storage::catalog::SOLO_OWNER`] for solo use).
    pub tenant: String,
}

/// What one iteration returned to the user.
pub struct IterationReport {
    /// Iteration number (0-based).
    pub iteration: u64,
    /// Aggregated metrics.
    pub metrics: IterationMetrics,
    /// Output values by node name.
    pub outputs: HashMap<String, Arc<Value>>,
    /// Final state per node, by name (Figure 8's raw data).
    pub states: Vec<(String, State)>,
}

impl IterationReport {
    /// An output value by name.
    pub fn output(&self, name: &str) -> Option<&Arc<Value>> {
        self.outputs.get(name)
    }

    /// An output scalar by name.
    pub fn output_scalar(&self, name: &str) -> Option<&Scalar> {
        self.outputs.get(name).and_then(|v| v.as_scalar().ok())
    }

    /// Total wall time of the iteration (execution + materialization).
    pub fn total_nanos(&self) -> Nanos {
        self.metrics.total_nanos()
    }
}

/// The cross-iteration driver.
pub struct Session {
    config: SessionConfig,
    /// The execution-environment provenance fingerprint (resolved seed),
    /// folded into every signature chain this session computes.
    env: ExecEnv,
    catalog: Arc<MaterializationCatalog>,
    core_budget: Option<Arc<CoreBudget>>,
    tenant: String,
    iteration: u64,
    nonce_counter: u64,
    volatile_nonces: HashMap<String, u64>,
    compute_stats: HashMap<Signature, Nanos>,
    prev_sigs: HashMap<String, HashMap<String, Signature>>,
    history: Vec<IterationMetrics>,
    /// The background materialization write lane (created lazily on the
    /// first pipelined iteration that can store; drains on drop).
    writer: Option<BackgroundWriter>,
}

/// A planned-but-not-yet-executed iteration: the product of
/// [`Session::prepare_iteration`] (lifecycle steps 1–4½ — signatures,
/// purge, OPT-EXEC-PLAN, volatile refresh, load claims), consumed by
/// [`Session::execute_prepared`]. [`Session::run`] is exactly these two
/// calls; the split lets a caller time planning and execution apart.
pub struct PreparedIteration {
    states: Vec<State>,
    sigs: Vec<Signature>,
    /// RAII pins on the plan's `Load` signatures: held from plan-claim
    /// time until the iteration retires (or the prepared iteration is
    /// dropped unexecuted), so another tenant's *global-pressure*
    /// eviction can never delete an artifact this plan is about to load.
    /// Owner claims already shield against `release` and quota eviction;
    /// pins close the same window against `evict_global`, whose victims
    /// may be co-owned.
    pins: Option<PlanPins>,
}

/// Transient catalog pins scoped to one prepared iteration.
struct PlanPins {
    catalog: Arc<MaterializationCatalog>,
    sigs: Vec<Signature>,
}

impl Drop for PlanPins {
    fn drop(&mut self) {
        self.catalog.unpin_many(&self.sigs);
    }
}

impl Session {
    /// Open a solo session (creating or reopening a private catalog).
    pub fn new(config: SessionConfig) -> Result<Session> {
        let catalog = match &config.catalog_dir {
            Some(dir) => MaterializationCatalog::open(dir, config.disk)?,
            None => MaterializationCatalog::open_temp(config.disk)?,
        };
        let handles = SessionHandles {
            catalog: Arc::new(catalog),
            core_budget: None,
            tenant: SOLO_OWNER.to_string(),
        };
        Ok(Self::with_handles(config, handles))
    }

    /// Open a session over shared infrastructure (the `helix-serve` path).
    ///
    /// `config.catalog_dir` and `config.disk` are ignored — the injected
    /// catalog already fixes both. `config.storage_budget_bytes` is the
    /// tenant's quota within the shared store.
    pub fn with_handles(config: SessionConfig, handles: SessionHandles) -> Session {
        Session {
            env: ExecEnv::new(config.resolved_seed()),
            config,
            catalog: handles.catalog,
            core_budget: handles.core_budget,
            tenant: handles.tenant,
            iteration: 0,
            nonce_counter: 1,
            volatile_nonces: HashMap::new(),
            compute_stats: HashMap::new(),
            prev_sigs: HashMap::new(),
            history: Vec::new(),
            writer: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The execution environment this session's signatures are keyed by.
    pub fn env(&self) -> &ExecEnv {
        &self.env
    }

    /// The resolved master seed.
    pub fn seed(&self) -> u64 {
        self.env.seed
    }

    /// The materialization catalog.
    pub fn catalog(&self) -> &MaterializationCatalog {
        &self.catalog
    }

    /// The owner label this session stores and releases artifacts under.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Per-iteration metrics so far.
    pub fn history(&self) -> &[IterationMetrics] {
        &self.history
    }

    /// Iterations run so far.
    pub fn iterations_run(&self) -> u64 {
        self.iteration
    }

    /// Run one iteration of `wf` through the full lifecycle:
    /// [`prepare_iteration`](Self::prepare_iteration), then
    /// [`execute_prepared`](Self::execute_prepared).
    pub fn run(&mut self, wf: &Workflow) -> Result<IterationReport> {
        let prepared = self.prepare_iteration(wf, None)?;
        self.execute_prepared(wf, prepared)
    }

    /// Lifecycle steps 1–4½: signatures, purge, OPT-EXEC-PLAN, volatile
    /// refresh, plan-time load claims. The second parameter admits only
    /// `None`; it keeps existing `prepare_iteration(&wf, None)` calls
    /// compiling.
    pub fn prepare_iteration(
        &mut self,
        wf: &Workflow,
        _: Option<std::convert::Infallible>,
    ) -> Result<PreparedIteration> {
        // A failed background write from an earlier iteration fails this
        // one loudly, before any new catalog state is built on top of it.
        if let Some(err) = self.writer.as_ref().and_then(BackgroundWriter::take_error) {
            return Err(err);
        }

        // 1. Compile: chain signatures under current nonces.
        let planning_sigs = chain_signatures(wf, &self.volatile_nonces, &self.env);

        // 2. Purge deprecated materializations of original operators
        //    (paper §6.6) so budget is not wasted on unreachable artifacts.
        //    `release` drops only *this* session's claim: on a shared
        //    catalog the file survives while other tenants still own it.
        if let Some(previous) = self.prev_sigs.get(wf.name()) {
            for (id, spec) in wf.dag().iter() {
                if let Some(old_sig) = previous.get(&spec.name) {
                    if *old_sig != planning_sigs[id.ix()] {
                        self.catalog.release(*old_sig, &self.tenant)?;
                    }
                }
            }
        }

        // 3. Optimize: OPT-EXEC-PLAN.
        let inputs = PlanInputs {
            sigs: &planning_sigs,
            catalog: &self.catalog,
            reuse: self.config.reuse,
            compute_stats: &self.compute_stats,
            default_compute_nanos: self.config.default_compute_nanos,
        };
        let mut planned = plan(wf, &inputs);

        // 4. Volatile refresh: any non-deterministic operator about to
        //    re-execute gets a fresh nonce; descendants' signatures change,
        //    so re-plan to guarantee no stale downstream artifact is loaded.
        let mut refreshed = false;
        for (id, spec) in wf.dag().iter() {
            if spec.volatile && planned.states[id.ix()] == State::Compute {
                self.volatile_nonces.insert(spec.name.clone(), self.nonce_counter);
                self.nonce_counter += 1;
                refreshed = true;
            }
        }
        let storage_sigs = if refreshed {
            let sigs = chain_signatures(wf, &self.volatile_nonces, &self.env);
            let inputs = PlanInputs {
                sigs: &sigs,
                catalog: &self.catalog,
                reuse: self.config.reuse,
                compute_stats: &self.compute_stats,
                default_compute_nanos: self.config.default_compute_nanos,
            };
            planned = plan(wf, &inputs);
            sigs
        } else {
            planning_sigs
        };

        // 4½. Claim + pin planned loads. On a shared catalog, the window
        //    between planning (`contains` said yes) and execution is a
        //    race against other tenants' deprecation, quota eviction,
        //    and global-pressure eviction. Each `Load` signature is
        //    claimed as a co-owner *and* transiently pinned under one
        //    catalog lock hold (`claim_and_pin_if_present`): once
        //    claimed, another tenant's `release` drops only its own
        //    claim and quota eviction skips co-owned artifacts; the pin
        //    additionally shields against `evict_global`, whose victims
        //    may be co-owned — atomically, so there is no
        //    claimed-but-unpinned instant an eviction could exploit. A
        //    failed claim means the artifact vanished mid-plan — replan
        //    (the node falls back to `Compute`) and try again. The retry
        //    loop is bounded: claims only fail for freshly deleted
        //    artifacts, and a replan without them cannot resurrect them.
        //    Pins accumulate across retries (a superseded plan's pin is
        //    just held conservatively until the iteration retires).
        let mut pinned: Vec<Signature> = Vec::new();
        for _attempt in 0..=wf.len() {
            let mut vanished = false;
            for (id, _) in wf.dag().iter() {
                if planned.states[id.ix()] == State::Load {
                    let sig = storage_sigs[id.ix()];
                    if self.catalog.claim_and_pin_if_present(sig, &self.tenant) {
                        pinned.push(sig);
                    } else {
                        vanished = true;
                    }
                }
            }
            if !vanished {
                break;
            }
            let inputs = PlanInputs {
                sigs: &storage_sigs,
                catalog: &self.catalog,
                reuse: self.config.reuse,
                compute_stats: &self.compute_stats,
                default_compute_nanos: self.config.default_compute_nanos,
            };
            planned = plan(wf, &inputs);
        }

        // The pins taken above live until the prepared iteration retires
        // (RAII; one unpin per successful claim-and-pin, including
        // superseded retry attempts).
        let pins = (!pinned.is_empty())
            .then(|| PlanPins { catalog: Arc::clone(&self.catalog), sigs: pinned });

        // Background-reclaimer carry-over: claims credit co-owner bytes
        // with no budget check of their own, so plan-time claims alone
        // can push the shared store past its global budget. Drain that
        // pressure now instead of waiting for the next store to trip the
        // engine's check. Plan signatures are protected (and the claimed
        // ones pinned), so this can only evict other artifacts.
        if let Some(global) = self.catalog.global_budget() {
            let projected = self.catalog.total_bytes();
            if projected > global {
                let protected: std::collections::HashSet<Signature> =
                    storage_sigs.iter().copied().collect();
                self.catalog.evict_global(&self.tenant, projected - global, &protected)?;
            }
        }

        Ok(PreparedIteration { states: planned.states, sigs: storage_sigs, pins })
    }

    /// Lifecycle steps 5–6: execute the prepared plan (with the
    /// pipelined lanes when configured) and fold the measurements back
    /// into the session. `wf` must be the workflow the plan was prepared
    /// for.
    pub fn execute_prepared(
        &mut self,
        wf: &Workflow,
        prepared: PreparedIteration,
    ) -> Result<IterationReport> {
        // `pins` stays alive for the whole execution and unpins on every
        // exit path (including unwinds caught by the service runner).
        let PreparedIteration { states: planned_states, sigs: storage_sigs, pins } = prepared;
        let _pins = pins;
        assert_eq!(planned_states.len(), wf.len(), "prepared plan does not match the workflow");

        // The write lane exists once per session (its drain spans
        // iteration boundaries); created on the first iteration that can
        // actually store.
        if self.config.pipeline
            && self.config.strategy != MatStrategy::Never
            && self.writer.is_none()
        {
            self.writer =
                Some(BackgroundWriter::new(Arc::clone(&self.catalog), self.core_budget.clone()));
        }

        // 5. Execute + materialize.
        let iteration_span = helix_obs::span(helix_obs::layer::ENGINE, "iteration")
            .tenant(self.tenant.as_str())
            .iteration(self.iteration);
        let outcome = execute(EngineParams {
            wf,
            states: &planned_states,
            sigs: &storage_sigs,
            catalog: &self.catalog,
            strategy: self.config.strategy,
            budget_bytes: self.config.storage_budget_bytes,
            workers: self.config.workers,
            iteration: self.iteration,
            seed: self.env.seed,
            tenant: &self.tenant,
            core_budget: self.core_budget.as_ref(),
            pipeline: self.config.pipeline,
            writer: self.writer.as_ref(),
        })?;
        drop(iteration_span);

        // 6. Update statistics and snapshots.
        for (sig, nanos) in &outcome.compute_times {
            self.compute_stats.insert(*sig, *nanos);
        }
        self.prev_sigs.insert(wf.name().to_string(), signature_snapshot(wf, &storage_sigs));
        let states: Vec<(String, State)> = wf
            .dag()
            .iter()
            .map(|(id, spec)| (spec.name.clone(), planned_states[id.ix()]))
            .collect();
        self.history.push(outcome.metrics.clone());
        let report = IterationReport {
            iteration: self.iteration,
            metrics: outcome.metrics,
            outputs: outcome.outputs,
            states,
        };
        self.iteration += 1;
        Ok(report)
    }

    /// Block until every background materialization write has landed and
    /// the journal is sealed. Call before comparing or reopening the
    /// catalog directory; iteration *results* never require it.
    pub fn sync(&self) -> Result<()> {
        match &self.writer {
            Some(writer) => writer.sync(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Algo;
    use helix_data::{Example, ExampleBatch, FeatureVector, Split};

    /// Busy-wait so operator compute costs dominate load costs — without
    /// this, the optimizer correctly prefers recomputing trivial scalars
    /// over disk loads and reuse assertions become timing-dependent.
    fn spin(millis: u64) {
        let until = std::time::Instant::now() + std::time::Duration::from_millis(millis);
        while std::time::Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    fn scalar_chain(b_version: u64) -> Workflow {
        let mut wf = Workflow::new("chain");
        let a = wf.source("a", 1, |_| {
            spin(3);
            Ok(Value::Scalar(Scalar::I64(10)))
        });
        let b = wf.reduce("b", a, b_version, move |v, _| {
            spin(3);
            let x = v.as_scalar()?.as_f64().unwrap_or(0.0);
            Ok(Value::Scalar(Scalar::F64(x * (b_version as f64))))
        });
        let c = wf.reduce("c", b, 1, |v, _| {
            spin(3);
            let x = v.as_scalar()?.as_f64().unwrap_or(0.0);
            Ok(Value::Scalar(Scalar::F64(x + 1.0)))
        });
        wf.output(c);
        wf
    }

    #[test]
    fn iteration_zero_computes_everything() {
        let mut session = Session::new(SessionConfig::in_memory()).unwrap();
        let report = session.run(&scalar_chain(1)).unwrap();
        assert_eq!(report.output_scalar("c").unwrap().as_f64(), Some(11.0));
        assert_eq!(report.metrics.computed, 3);
        assert_eq!(report.metrics.pruned, 0);
    }

    #[test]
    fn identical_rerun_reuses_output() {
        let mut session = Session::new(SessionConfig::in_memory()).unwrap();
        session.run(&scalar_chain(1)).unwrap();
        let rerun = session.run(&scalar_chain(1)).unwrap();
        assert_eq!(rerun.output_scalar("c").unwrap().as_f64(), Some(11.0));
        assert_eq!(rerun.metrics.computed, 0, "nothing recomputes on a pure rerun");
        assert!(rerun.metrics.loaded >= 1);
        assert!(
            rerun.metrics.total_nanos() < session.history()[0].total_nanos(),
            "rerun must be cheaper"
        );
    }

    #[test]
    fn ppr_change_recomputes_only_downstream() {
        let mut session = Session::new(SessionConfig::in_memory()).unwrap();
        session.run(&scalar_chain(1)).unwrap();

        // Change c's UDF only.
        let mut wf = Workflow::new("chain");
        let a = wf.source("a", 1, |_| Ok(Value::Scalar(Scalar::I64(10))));
        let b = wf.reduce("b", a, 1, |v, _| {
            let x = v.as_scalar()?.as_f64().unwrap_or(0.0);
            Ok(Value::Scalar(Scalar::F64(x * 1.0)))
        });
        let c = wf.reduce("c", b, 2, |v, _| {
            let x = v.as_scalar()?.as_f64().unwrap_or(0.0);
            Ok(Value::Scalar(Scalar::F64(x + 100.0)))
        });
        wf.output(c);

        let report = session.run(&wf).unwrap();
        assert_eq!(report.output_scalar("c").unwrap().as_f64(), Some(110.0));
        let by_name: HashMap<&str, State> =
            report.states.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        assert_eq!(by_name["c"], State::Compute, "changed node recomputes");
        assert_ne!(by_name["a"], State::Compute, "unchanged upstream never recomputes");
    }

    #[test]
    fn upstream_change_deprecates_downstream() {
        let mut session = Session::new(SessionConfig::in_memory()).unwrap();
        session.run(&scalar_chain(1)).unwrap();
        let report = session.run(&scalar_chain(3)).unwrap();
        assert_eq!(report.output_scalar("c").unwrap().as_f64(), Some(31.0));
        let by_name: HashMap<&str, State> =
            report.states.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        assert_eq!(by_name["b"], State::Compute);
        assert_eq!(by_name["c"], State::Compute);
    }

    #[test]
    fn purge_removes_deprecated_artifacts() {
        let mut session =
            Session::new(SessionConfig::in_memory().with_strategy(MatStrategy::Always)).unwrap();
        session.run(&scalar_chain(1)).unwrap();
        let after_first = session.catalog().len();
        assert_eq!(after_first, 3);
        // Change b: b and c deprecated and purged; a's artifact kept.
        session.run(&scalar_chain(2)).unwrap();
        assert_eq!(session.catalog().len(), 3, "two purged, two rewritten, one kept");
    }

    #[test]
    fn keystoneml_baseline_never_reuses() {
        let mut session = Session::new(SessionConfig::keystoneml_like()).unwrap();
        session.run(&scalar_chain(1)).unwrap();
        let rerun = session.run(&scalar_chain(1)).unwrap();
        assert_eq!(rerun.metrics.computed, 3, "full recompute every iteration");
        assert_eq!(rerun.metrics.loaded, 0);
        assert!(session.catalog().is_empty());
    }

    #[test]
    fn deepdive_baseline_reuses_dpr_only() {
        let mut session = Session::new(SessionConfig::deepdive_like()).unwrap();
        session.run(&scalar_chain(1)).unwrap();
        let rerun = session.run(&scalar_chain(1)).unwrap();
        let by_name: HashMap<&str, State> =
            rerun.states.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        assert_eq!(by_name["a"], State::Load, "DPR source reused");
        assert_eq!(by_name["b"], State::Compute, "PPR recomputes");
        assert_eq!(by_name["c"], State::Compute);
    }

    fn volatile_wf() -> Workflow {
        let mut wf = Workflow::new("volatile");
        let d = wf.source("d", 1, |_| {
            spin(3);
            Ok(Value::examples(ExampleBatch::dense(vec![
                Example::new(FeatureVector::Dense(vec![1.0, 2.0]), Some(0.0), Split::Train),
                Example::new(FeatureVector::Dense(vec![2.0, 1.0]), Some(1.0), Split::Train),
            ])))
        });
        let rff = wf.learner("rff", d, Algo::RandomFourier { dim_out: 4, gamma: 0.1 });
        let mapped = wf.predict("mapped", rff, d);
        let stat = wf.reduce("stat", mapped, 1, |v, _| {
            spin(3);
            let batch = v.as_collection()?.as_examples()?;
            let total: f64 = batch.examples.iter().map(|e| e.features.l2_norm()).sum();
            Ok(Value::Scalar(Scalar::F64(total)))
        });
        wf.output(stat);
        wf
    }

    #[test]
    fn volatile_results_reused_when_nothing_changed() {
        let mut session = Session::new(SessionConfig::in_memory()).unwrap();
        let first = session.run(&volatile_wf()).unwrap();
        let rerun = session.run(&volatile_wf()).unwrap();
        assert_eq!(rerun.metrics.computed, 0, "PPR-only style rerun reuses volatile chain");
        assert_eq!(
            first.output_scalar("stat").unwrap().as_f64(),
            rerun.output_scalar("stat").unwrap().as_f64(),
            "reused result is the very same artifact"
        );
    }

    #[test]
    fn volatile_reexecution_deprecates_descendants() {
        let mut session =
            Session::new(SessionConfig::in_memory().with_strategy(MatStrategy::Always)).unwrap();
        session.run(&volatile_wf()).unwrap();

        // Bump the source version: the RFF must re-execute with a fresh
        // projection, and `mapped`/`stat` must not load stale artifacts.
        let mut wf = Workflow::new("volatile");
        let d = wf.source("d", 2, |_| {
            Ok(Value::examples(ExampleBatch::dense(vec![
                Example::new(FeatureVector::Dense(vec![1.0, 2.0]), Some(0.0), Split::Train),
                Example::new(FeatureVector::Dense(vec![2.0, 1.0]), Some(1.0), Split::Train),
            ])))
        });
        let rff = wf.learner("rff", d, Algo::RandomFourier { dim_out: 4, gamma: 0.1 });
        let mapped = wf.predict("mapped", rff, d);
        let stat = wf.reduce("stat", mapped, 1, |v, _| {
            let batch = v.as_collection()?.as_examples()?;
            let total: f64 = batch.examples.iter().map(|e| e.features.l2_norm()).sum();
            Ok(Value::Scalar(Scalar::F64(total)))
        });
        wf.output(stat);

        let report = session.run(&wf).unwrap();
        assert_eq!(report.metrics.computed, 4, "whole volatile chain recomputes");
        assert_eq!(report.metrics.loaded, 0);
    }

    #[test]
    fn pipelined_runs_are_byte_identical_to_serial_runs() {
        // Initial build, identical rerun, a change, its rerun — compute,
        // reuse, and invalidation paths all exercised.
        let sequence = || vec![scalar_chain(1), scalar_chain(1), scalar_chain(2), scalar_chain(2)];

        let config = SessionConfig::in_memory().with_strategy(MatStrategy::Always);
        let mut serial = Session::new(config.clone().with_pipeline(false)).unwrap();
        let serial_reports: Vec<IterationReport> =
            sequence().iter().map(|wf| serial.run(wf).unwrap()).collect();

        let mut pipelined = Session::new(config).unwrap();
        let pipelined_reports: Vec<IterationReport> =
            sequence().iter().map(|wf| pipelined.run(wf).unwrap()).collect();
        pipelined.sync().unwrap();

        for (t, (s, p)) in serial_reports.iter().zip(&pipelined_reports).enumerate() {
            assert_eq!(
                s.output_scalar("c").unwrap().as_f64(),
                p.output_scalar("c").unwrap().as_f64(),
                "iteration {t} output"
            );
            let states = |r: &IterationReport| {
                r.states.iter().map(|(n, s)| (n.clone(), *s)).collect::<Vec<_>>()
            };
            assert_eq!(states(s), states(p), "iteration {t} plan");
            assert_eq!(
                (s.metrics.computed, s.metrics.loaded, s.metrics.pruned),
                (p.metrics.computed, p.metrics.loaded, p.metrics.pruned),
                "iteration {t} node resolution"
            );
            assert_eq!(
                (s.metrics.materialize_nanos, s.metrics.materialized_bytes),
                (p.metrics.materialize_nanos, p.metrics.materialized_bytes),
                "iteration {t} materialization"
            );
        }
        let sigs = |s: &Session| {
            s.catalog().entries().iter().map(|e| e.signature.clone()).collect::<Vec<_>>()
        };
        assert_eq!(sigs(&serial), sigs(&pipelined), "final catalogs diverged");
    }

    #[test]
    fn background_writes_are_durable_after_sync() {
        let dir = std::env::temp_dir().join(format!(
            "helix-session-sync-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ));
        let config = SessionConfig {
            catalog_dir: Some(dir.clone()),
            ..SessionConfig::in_memory().with_strategy(MatStrategy::Always)
        };
        let mut session = Session::new(config).unwrap();
        session.run(&scalar_chain(1)).unwrap();
        session.sync().unwrap();
        let entries = session.catalog().entries();
        assert_eq!(entries.len(), 3);
        for entry in &entries {
            assert!(dir.join(&entry.file).exists(), "synced write not durable: {}", entry.file);
        }
        drop(session);
        let reopened =
            helix_storage::MaterializationCatalog::open(&dir, DiskProfile::unthrottled()).unwrap();
        assert_eq!(reopened.len(), 3, "journal sealed by sync");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn history_accumulates() {
        let mut session = Session::new(SessionConfig::in_memory()).unwrap();
        session.run(&scalar_chain(1)).unwrap();
        session.run(&scalar_chain(1)).unwrap();
        assert_eq!(session.history().len(), 2);
        assert_eq!(session.iterations_run(), 2);
    }
}
