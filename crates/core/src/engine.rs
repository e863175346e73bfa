//! The execution engine (paper §2.1 "Execution Engine", §5.3, §5.4) —
//! frontier-scheduled and multi-threaded.
//!
//! The paper's engine ran each iteration serially in topological order;
//! this one executes the same plan with *intra-iteration parallelism*:
//! all `Compute`/`Load` nodes whose parents have finished form the ready
//! frontier ([`helix_flow::dag::Frontier`]) and are dispatched together
//! onto [`WorkerPool`] worker threads, overlapping independent branches
//! and hiding `Load` I/O behind `Compute` work. With `workers == 1` the
//! scheduler runs inline on the caller thread — the serial baseline pays
//! no thread or channel overhead.
//!
//! Parallel execution preserves the paper's semantics *exactly*:
//!
//! * **State legality (Constraint 2)** is the planner's product; the
//!   engine executes states verbatim and still fails loudly when a
//!   `Compute` node's parent value is missing.
//! * **Determinism**: per-node RNG seeds remain `session seed ⊕ node
//!   signature` — independent of scheduling — so outputs are
//!   byte-identical to a serial run for any worker count.
//! * **Streaming OPT-MAT-PLAN (Algorithm 2)**: materialization decisions
//!   depend on catalog byte totals, so commit *order* matters. The engine
//!   precomputes the exact finalize sequence the serial engine would
//!   produce (a pure function of DAG + states, not of timing) and commits
//!   out-of-scope decisions strictly in that order, as nodes become
//!   eligible. Decisions are therefore identical to serial execution.
//! * **Eager cache eviction (Constraint 3 + §5.4 Cache Pruning)**: a node
//!   is evicted the moment its finalize decision commits, which is never
//!   before its last compute-state child finished.
//! * **Failure parity**: finalize commits wait for the completed topo
//!   *prefix*, so an iteration that errors leaves exactly the catalog a
//!   serial run would, and the error reported is the earliest one in
//!   topological order — at any worker count.
//!
//! Every node's wall time is still measured — the `c_i`/`l_i` statistics
//! the next iteration's optimizer consumes.

use crate::dsl::Workflow;
use crate::materialize::{cumulative_run_time, should_materialize, MatStrategy};
use crate::pipeline::{BackgroundWriter, Prefetcher};
use helix_common::hash::Signature;
use helix_common::timing::{timed, Nanos};
use helix_common::{HelixError, Result};
use helix_data::{ByteSized, Value};
use helix_exec::{
    interval_union_nanos, CoreBudget, IterationMetrics, NodeRun, RunState, SharedMemoryTracker,
    SharedValueCache, WorkerPool,
};
use helix_flow::oep::State;
use helix_flow::{Dag, NodeId};
use helix_storage::{encoded_len, MaterializationCatalog};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Everything the engine needs for one iteration.
pub struct EngineParams<'a> {
    /// The workflow to execute.
    pub wf: &'a Workflow,
    /// OEP state per node.
    pub states: &'a [State],
    /// Storage signatures per node (post volatile-nonce refresh).
    pub sigs: &'a [Signature],
    /// The materialization catalog (possibly shared with other tenants).
    pub catalog: &'a MaterializationCatalog,
    /// Materialization policy.
    pub strategy: MatStrategy,
    /// Storage budget in bytes. For a solo session this caps the whole
    /// catalog footprint; for a tenant session it is the tenant's quota,
    /// checked against [`MaterializationCatalog::used_bytes_for`].
    pub budget_bytes: u64,
    /// Worker-pool width: node-level scheduling *and* data-parallel
    /// operators (the paper's "cluster size", Figure 7b). Under a core
    /// budget this is a ceiling, not an entitlement.
    pub workers: usize,
    /// Iteration number (for catalog bookkeeping).
    pub iteration: u64,
    /// Session seed (mixed with node signatures for per-node RNG streams).
    pub seed: u64,
    /// Owner label for catalog accounting and hit attribution
    /// ([`helix_storage::catalog::SOLO_OWNER`] for solo sessions).
    pub tenant: &'a str,
    /// Shared core-token budget; `None` = unconstrained (solo semantics).
    pub core_budget: Option<&'a Arc<CoreBudget>>,
    /// Run load lanes ahead of the frontier and hand stores to `writer`.
    /// Off, the same code runs with zero load lanes and no writer: every
    /// load is fetched by the node that takes it and every stage lands
    /// inline. Outputs, catalog contents, and plan-relevant metrics are
    /// byte-identical either way — the lanes move I/O off the critical
    /// path, never change decisions.
    pub pipeline: bool,
    /// The session's background materialization writer (the write lane),
    /// used only when `pipeline` is on; `None` lands each stage inline.
    pub writer: Option<&'a BackgroundWriter>,
}

/// What an iteration produced.
pub struct ExecOutcome {
    /// Aggregated metrics (feeds Figures 5, 6, 8, 9, 10).
    pub metrics: IterationMetrics,
    /// Output values by node name.
    pub outputs: HashMap<String, Arc<Value>>,
    /// Measured compute times by signature (feeds the next OEP),
    /// in node-id order regardless of completion order.
    pub compute_times: Vec<(Signature, Nanos)>,
}

/// What one worker reports back for one executed node.
struct Completion {
    node: usize,
    result: Result<NodeSuccess>,
}

struct NodeSuccess {
    value: Arc<Value>,
    run_nanos: Nanos,
    output_bytes: u64,
    state: RunState,
    /// Load was served by another tenant's artifact.
    cross: bool,
}

/// Run one planned iteration.
pub fn execute(params: EngineParams<'_>) -> Result<ExecOutcome> {
    let EngineParams {
        wf,
        states,
        sigs,
        catalog,
        strategy,
        budget_bytes,
        workers,
        iteration,
        seed,
        tenant,
        core_budget,
        pipeline,
        writer,
    } = params;
    let dag = wf.dag();
    let n = dag.len();
    assert_eq!(states.len(), n);
    assert_eq!(sigs.len(), n);

    let order = dag.topo_order()?;
    let epoch = Instant::now();
    // Load lanes: with `pipeline` on, fetch every planned Load
    // concurrently from iteration start instead of when the frontier
    // reaches it — a Load needs no parent values, only the DAG made it
    // wait. Off, the lanes get no jobs and each take fetches inline.
    let load_jobs: Vec<(NodeId, Signature)> = if pipeline {
        order
            .iter()
            .filter(|id| states[id.ix()] == State::Load)
            .map(|id| (*id, sigs[id.ix()]))
            .collect()
    } else {
        Vec::new()
    };
    let prefetcher = Prefetcher::new(catalog, tenant, epoch, load_jobs);
    // Data-parallel operators get the full nominal width, but under a
    // core budget their extra threads must be leased from the same tokens
    // the dispatch layer uses — node- and data-level parallelism split
    // the machine instead of multiplying into `workers²` threads.
    let pool = match core_budget {
        Some(budget) => WorkerPool::budgeted(workers, Arc::clone(budget)),
        None => WorkerPool::new(workers),
    };
    let cache = SharedValueCache::new();
    let memory = SharedMemoryTracker::new();

    // Any set of simultaneously runnable nodes is an antichain, so the
    // DAG's width caps useful scheduler threads: a pure chain runs
    // inline, a diamond gets two threads, regardless of the requested
    // width. Level width is a cheap proxy for the true (Dilworth) width —
    // exact on layered workflow DAGs, at worst slightly under-provisioned
    // (jobs then queue; never a deadlock). Data-parallel operators still
    // see the full `workers` through `ExecContext::pool`.
    let dispatch_width = workers.min(level_width(dag)?);

    let runner = NodeRunner {
        wf,
        states,
        sigs,
        cache: &cache,
        memory: &memory,
        pool,
        seed,
        tenant,
        prefetch: &prefetcher,
        iteration,
    };
    let mut coord = Coordinator {
        wf,
        states,
        sigs,
        catalog,
        strategy,
        budget_bytes,
        iteration,
        tenant,
        writer: if pipeline { writer } else { None },
        prefetch: &prefetcher,
        protected: sigs.iter().copied().collect(),
        cross_loads: 0,
        cache: &cache,
        memory: &memory,
        topo_pos: topo_positions(&order, n),
        done: vec![false; n],
        pending: compute_child_counts(dag, states),
        incurred: vec![0; n],
        runs: (0..n).map(|_| None).collect(),
        outputs: HashMap::new(),
        compute_nanos: vec![None; n],
        finalize_seq: serial_finalize_sequence(dag, states, &order),
        seq_cursor: 0,
        finalized: vec![false; n],
        order,
        done_prefix: 0,
        first_error: None,
    };

    let run_driver = |coord: &mut Coordinator<'_>| {
        if dispatch_width <= 1 {
            run_inline(dag, &runner, coord);
        } else {
            let dispatch_pool = match core_budget {
                Some(budget) => WorkerPool::budgeted(dispatch_width, Arc::clone(budget)),
                None => WorkerPool::new(dispatch_width),
            };
            run_parallel(dag, &runner, coord, &dispatch_pool);
        }
    };
    std::thread::scope(|scope| {
        // Lane count respects the core budget: the first lane rides the
        // iteration's own token (loads are not pure sleep — the decode is
        // real CPU), extras need leased tokens held for the lanes'
        // lifetime. Unbudgeted sessions get the full complement.
        let lanes = prefetcher.lanes();
        let extra_lease =
            core_budget.filter(|_| lanes > 1).map(|budget| budget.try_acquire(lanes - 1));
        let lane_count = extra_lease.as_ref().map_or(lanes, |lease| 1 + lease.tokens());
        for _ in 0..lane_count {
            scope.spawn(|| prefetcher.run_lane());
        }
        run_driver(&mut coord);
        // Normal completion: every load was fetched and taken, halt is a
        // no-op. Error path: stop the lanes from *starting* loads the
        // serial loop would never have reached — in-flight fetches still
        // finish (their takers may be waiting), so a failed iteration can
        // touch a few more load statistics than serial; timing/stat
        // metadata is outside the byte-identity contract.
        prefetcher.halt();
        drop(extra_lease);
    });

    if let Some((_, err)) = coord.first_error.take() {
        return Err(err);
    }
    coord.commit_finalizes();
    debug_assert!(coord.first_error.is_none(), "finalize failed after clean execution");
    debug_assert_eq!(coord.seq_cursor, coord.finalize_seq.len());
    debug_assert!(
        (0..n).all(|i| states[i] == State::Prune || !cache.contains(i as u32)),
        "every non-pruned node must have been finalized and evicted"
    );

    let mut metrics = IterationMetrics::new(iteration);
    let spans = prefetcher.spans();
    metrics.load_cpu_nanos = spans.iter().map(|(s, e)| e.saturating_sub(*s)).sum();
    metrics.load_nanos = interval_union_nanos(&spans);
    for run in coord.runs.into_iter().flatten() {
        metrics.record(run);
    }
    metrics.cross_loaded = coord.cross_loads;
    metrics.peak_memory_bytes = memory.peak_bytes();
    metrics.avg_memory_bytes = memory.avg_bytes();
    metrics.storage_bytes = catalog.total_bytes();
    let compute_times =
        (0..n).filter_map(|i| coord.compute_nanos[i].map(|nanos| (sigs[i], nanos))).collect();
    Ok(ExecOutcome { metrics, outputs: coord.outputs, compute_times })
}

/// Serial driver: pop the minimum-id ready node and run it inline — the
/// exact order of the paper's topological loop (min-id Kahn), with zero
/// thread or channel overhead.
fn run_inline(
    dag: &Dag<crate::operator::NodeSpec>,
    runner: &NodeRunner<'_>,
    coord: &mut Coordinator<'_>,
) {
    let mut frontier = dag.frontier();
    while let Some(node) = frontier.pop_min() {
        if coord.states[node.ix()] == State::Prune {
            coord.record_prune(node);
        } else {
            let completion = runner.run_node(node);
            coord.on_completion(completion);
            if coord.first_error.is_some() {
                return;
            }
        }
        frontier.complete(node);
        coord.commit_finalizes();
        if coord.first_error.is_some() {
            return;
        }
    }
}

/// Parallel driver: keep every ready node in flight on the pool, retire
/// completions as they arrive, commit finalize decisions in serial order.
fn run_parallel(
    dag: &Dag<crate::operator::NodeSpec>,
    runner: &NodeRunner<'_>,
    coord: &mut Coordinator<'_>,
    pool: &WorkerPool,
) {
    pool.with_executor(
        |node: NodeId| runner.run_node(node),
        |executor| {
            let mut frontier = dag.frontier();
            let mut in_flight = 0usize;
            loop {
                // Dispatch (or immediately retire) everything ready;
                // retiring a prune node can ready more, which `pop_min`
                // picks up in the same sweep.
                let sweep_span = helix_obs::span(helix_obs::layer::ENGINE, "dispatch")
                    .tenant(runner.tenant)
                    .iteration(runner.iteration);
                let mut dispatched = 0u64;
                while let Some(node) = frontier.pop_min() {
                    // After an error at topo position p, keep dispatching
                    // only nodes *before* p: the serial loop would have
                    // executed all of them before stopping, so the error
                    // finally reported is the earliest-topo-position one —
                    // identical to serial — at any worker count.
                    let error_pos = coord.first_error.as_ref().map(|(pos, _)| *pos);
                    if coord.states[node.ix()] == State::Prune {
                        coord.record_prune(node);
                        frontier.complete(node);
                    } else if error_pos.is_none_or(|pos| coord.topo_pos[node.ix()] < pos) {
                        executor.submit(node);
                        in_flight += 1;
                        dispatched += 1;
                    }
                    // Nodes at or past the error position are dropped; we
                    // only drain what serial would still have run.
                }
                let _ = sweep_span.amount(dispatched);
                // Finalize *after* the sweep, so encoding and writing a
                // multi-MB out-of-scope value overlaps the nodes the last
                // completion made ready instead of delaying them. The
                // commit sequence and its trigger gate are serial's, so
                // catalogs and the reported error still are too. A node
                // dispatched in this sweep when a finalize below fails
                // runs and is discarded: it was not done when the event
                // committed, so it sits past the event's trigger and hence
                // past the error — its finalize events never commit and
                // its error never wins. Unconditional: after an error,
                // events triggered before the error position must still
                // commit (commit_finalizes enforces the limit).
                coord.commit_finalizes();
                if in_flight == 0 {
                    break;
                }
                let completion = executor.recv();
                in_flight -= 1;
                let node = NodeId(completion.node as u32);
                coord.on_completion(completion);
                frontier.complete(node);
            }
        },
    );
}

/// Width of the widest level antichain (see [`Dag::level_sets`]) — the
/// engine's estimate of how many nodes can be in flight at once.
fn level_width(dag: &Dag<crate::operator::NodeSpec>) -> Result<usize> {
    Ok(dag.level_sets()?.iter().map(Vec::len).max().unwrap_or(0))
}

fn topo_positions(order: &[NodeId], n: usize) -> Vec<usize> {
    let mut pos = vec![0usize; n];
    for (p, id) in order.iter().enumerate() {
        pos[id.ix()] = p;
    }
    pos
}

/// Per-node count of compute-state children: a node is out of scope once
/// all of them have finished (loaded/pruned children never read the
/// in-memory value).
fn compute_child_counts(dag: &Dag<crate::operator::NodeSpec>, states: &[State]) -> Vec<usize> {
    (0..dag.len())
        .map(|i| {
            dag.children(NodeId(i as u32))
                .iter()
                .filter(|c| states[c.ix()] == State::Compute)
                .count()
        })
        .collect()
}

/// The order in which the serial topological loop would make streaming
/// OPT-MAT-PLAN decisions — a pure function of the DAG and states, so the
/// parallel engine can replay it regardless of completion timing.
///
/// Mirrors the serial sweep exactly: after executing the node at each
/// topo position `k`, finalize it if it has no compute children, then any
/// parent whose last compute child it was. Each event carries `k` (its
/// *trigger position*): the parallel engine commits an event only once
/// every node at positions `0..=k` has finished, so a failed iteration
/// cannot write artifacts a serial run (which stops at the first error)
/// would never have written. Duplicate entries are harmless (the commit
/// step skips already-finalized nodes), matching the serial engine's
/// `cache.contains` guard.
fn serial_finalize_sequence(
    dag: &Dag<crate::operator::NodeSpec>,
    states: &[State],
    order: &[NodeId],
) -> Vec<(NodeId, usize)> {
    let n = dag.len();
    let mut pending = compute_child_counts(dag, states);
    let mut done = vec![false; n];
    let mut seq = Vec::new();
    for (k, &id) in order.iter().enumerate() {
        let i = id.ix();
        done[i] = true;
        if states[i] == State::Compute {
            for p in dag.parents(id) {
                pending[p.ix()] -= 1;
            }
        }
        if pending[i] == 0 && states[i] != State::Prune {
            seq.push((id, k));
        }
        for &p in dag.parents(id) {
            if done[p.ix()] && pending[p.ix()] == 0 && states[p.ix()] != State::Prune {
                seq.push((p, k));
            }
        }
    }
    seq
}

/// The worker-side executor: runs one `Load` or `Compute` node against the
/// shared cache/catalog. Shared immutably across worker threads.
struct NodeRunner<'a> {
    wf: &'a Workflow,
    states: &'a [State],
    sigs: &'a [Signature],
    cache: &'a SharedValueCache,
    memory: &'a SharedMemoryTracker,
    pool: WorkerPool,
    seed: u64,
    tenant: &'a str,
    /// Where every planned load comes from.
    prefetch: &'a Prefetcher<'a>,
    /// Iteration number, as a trace label only.
    iteration: u64,
}

impl NodeRunner<'_> {
    fn run_node(&self, id: NodeId) -> Completion {
        Completion { node: id.ix(), result: self.try_run(id) }
    }

    fn try_run(&self, id: NodeId) -> Result<NodeSuccess> {
        let i = id.ix();
        let dag = self.wf.dag();
        let spec = dag.payload(id);
        match self.states[i] {
            State::Prune => unreachable!("prune nodes are retired by the coordinator"),
            State::Load => {
                let _span = helix_obs::span(helix_obs::layer::ENGINE, "load")
                    .node(spec.name.as_str())
                    .tenant(self.tenant)
                    .iteration(self.iteration);
                // The reported cost is the deterministic disk-model time
                // whoever fetched it, so statistics (and therefore future
                // plans) do not depend on the lanes.
                let loaded = self.prefetch.take(id, self.sigs[i])?;
                let value = Arc::new(loaded.value);
                let output_bytes = value.byte_size();
                self.cache.put(id.0, Arc::clone(&value));
                self.memory.record(self.cache.resident_bytes());
                Ok(NodeSuccess {
                    value,
                    run_nanos: loaded.load_nanos,
                    output_bytes,
                    state: RunState::Loaded,
                    cross: loaded.cross,
                })
            }
            State::Compute => {
                let _span = helix_obs::span(helix_obs::layer::ENGINE, "compute")
                    .node(spec.name.as_str())
                    .tenant(self.tenant)
                    .iteration(self.iteration);
                let inputs: Vec<Arc<Value>> = dag
                    .parents(id)
                    .iter()
                    .map(|p| {
                        self.cache.get(p.0).ok_or_else(|| {
                            HelixError::exec(
                                &spec.name,
                                format!(
                                    "input `{}` missing from cache (premature eviction?)",
                                    dag.payload(*p).name
                                ),
                            )
                        })
                    })
                    .collect::<Result<_>>()?;
                let ctx = crate::operator::ExecContext::new(
                    self.pool.clone(),
                    self.seed ^ (self.sigs[i].0 as u64) ^ ((self.sigs[i].0 >> 64) as u64),
                );
                let (result, run_nanos) = timed(|| spec.operator.execute(&inputs, &ctx));
                // Provenance enforcement: an operator that consumed the
                // seed without declaring SEED would be stored under a
                // seed-independent signature, silently serving one seed's
                // bytes to sessions running another. Fail loudly instead.
                if ctx.seed_was_read()
                    && !spec
                        .operator
                        .byte_affecting_inputs()
                        .contains(crate::operator::ProvenanceInputs::SEED)
                {
                    return Err(HelixError::exec(
                        &spec.name,
                        "operator consumed the context seed/RNG without declaring \
                         ProvenanceInputs::SEED (wrap closure UDFs in SeededOperator); \
                         undeclared seed use would poison cross-seed artifact sharing",
                    ));
                }
                let value = Arc::new(result?);
                let output_bytes = value.byte_size();
                self.cache.put(id.0, Arc::clone(&value));
                self.memory.record(self.cache.resident_bytes());
                Ok(NodeSuccess {
                    value,
                    run_nanos,
                    output_bytes,
                    state: RunState::Computed,
                    cross: false,
                })
            }
        }
    }
}

/// Single-threaded bookkeeping: retirement, metrics, output capture, and
/// the in-order replay of streaming materialization decisions.
struct Coordinator<'a> {
    wf: &'a Workflow,
    states: &'a [State],
    sigs: &'a [Signature],
    catalog: &'a MaterializationCatalog,
    strategy: MatStrategy,
    budget_bytes: u64,
    iteration: u64,
    tenant: &'a str,
    /// The write lane: when present, staged files land off the critical
    /// path; when absent, each stage lands inline.
    writer: Option<&'a BackgroundWriter>,
    /// The load lanes, halted on first error so they stop fetching loads
    /// serial execution would never have reached.
    prefetch: &'a Prefetcher<'a>,
    /// The current plan's signatures: quota eviction must never remove an
    /// artifact this very iteration still intends to load.
    protected: HashSet<Signature>,
    cross_loads: usize,
    cache: &'a SharedValueCache,
    memory: &'a SharedMemoryTracker,
    topo_pos: Vec<usize>,
    done: Vec<bool>,
    pending: Vec<usize>,
    incurred: Vec<Nanos>,
    runs: Vec<Option<NodeRun>>,
    outputs: HashMap<String, Arc<Value>>,
    compute_nanos: Vec<Option<Nanos>>,
    finalize_seq: Vec<(NodeId, usize)>,
    seq_cursor: usize,
    finalized: Vec<bool>,
    /// Canonical topo order, for prefix-completion tracking.
    order: Vec<NodeId>,
    /// Number of leading topo positions whose nodes have all finished.
    done_prefix: usize,
    /// Earliest failing node by topo position — matches what the serial
    /// loop would have reported first.
    first_error: Option<(usize, HelixError)>,
}

impl Coordinator<'_> {
    fn record_prune(&mut self, id: NodeId) {
        let i = id.ix();
        let spec = self.wf.dag().payload(id);
        // Prunes do no work; a zero-duration marker keeps the taxonomy
        // complete in traces.
        let _ = helix_obs::span_at(helix_obs::layer::ENGINE, "prune", helix_obs::now_nanos(), 0)
            .node(spec.name.as_str())
            .tenant(self.tenant)
            .iteration(self.iteration);
        self.runs[i] = Some(NodeRun {
            node: id.0,
            name: spec.name.clone(),
            phase: spec.phase,
            state: RunState::Pruned,
            run_nanos: 0,
            materialize_nanos: 0,
            materialized_bytes: 0,
            output_bytes: 0,
        });
        self.done[i] = true;
    }

    fn on_completion(&mut self, completion: Completion) {
        let i = completion.node;
        let id = NodeId(i as u32);
        let spec = self.wf.dag().payload(id);
        match completion.result {
            Ok(success) => {
                self.incurred[i] = success.run_nanos;
                if success.cross {
                    self.cross_loads += 1;
                }
                if success.state == RunState::Computed {
                    self.compute_nanos[i] = Some(success.run_nanos);
                    for p in self.wf.dag().parents(id) {
                        self.pending[p.ix()] -= 1;
                    }
                }
                self.runs[i] = Some(NodeRun {
                    node: id.0,
                    name: spec.name.clone(),
                    phase: spec.phase,
                    state: success.state,
                    run_nanos: success.run_nanos,
                    materialize_nanos: 0,
                    materialized_bytes: 0,
                    output_bytes: success.output_bytes,
                });
                if spec.is_output {
                    self.outputs.insert(spec.name.clone(), success.value);
                }
            }
            Err(err) => {
                let pos = self.topo_pos[i];
                if self.first_error.as_ref().is_none_or(|(p, _)| pos < *p) {
                    self.first_error = Some((pos, err));
                }
                self.prefetch.halt();
            }
        }
        self.done[i] = true;
    }

    /// Commit pending out-of-scope decisions strictly in the precomputed
    /// serial order. An event triggered at serial topo position `k`
    /// commits only once every node at positions `0..=k` has finished —
    /// exactly when the serial loop would have reached it — so catalog
    /// writes never run ahead of a pending earlier failure. Conversely,
    /// after an error at position `p`, events triggered *before* `p`
    /// still commit (the serial loop had already made them before
    /// stopping), so a failed iteration leaves exactly the catalog a
    /// serial run would.
    fn commit_finalizes(&mut self) {
        while self.done_prefix < self.order.len() && self.done[self.order[self.done_prefix].ix()] {
            self.done_prefix += 1;
        }
        let error_pos = self.first_error.as_ref().map_or(usize::MAX, |(pos, _)| *pos);
        while let Some(&(node, trigger_pos)) = self.finalize_seq.get(self.seq_cursor) {
            let i = node.ix();
            if trigger_pos >= self.done_prefix || trigger_pos >= error_pos {
                break;
            }
            // Implied by the prefix condition: the node and all of its
            // compute children sit at or before the trigger position.
            debug_assert!(self.done[i] && self.pending[i] == 0);
            self.seq_cursor += 1;
            if std::mem::replace(&mut self.finalized[i], true) {
                continue; // duplicate event, same as the serial guard
            }
            if let Err(err) = self.finalize_node(node) {
                let pos = self.topo_pos[i];
                if self.first_error.as_ref().is_none_or(|(p, _)| pos < *p) {
                    self.first_error = Some((pos, err));
                }
                break;
            }
            self.memory.record(self.cache.resident_bytes());
        }
    }

    /// Constraint 3: an out-of-scope node is either materialized
    /// immediately or dropped from cache.
    fn finalize_node(&mut self, node: NodeId) -> Result<()> {
        let i = node.ix();
        if !self.cache.contains(node.0) {
            return Ok(()); // already finalized via another child
        }
        let spec = self.wf.dag().payload(node);
        // Only computed values are candidates: loaded ones are already on
        // disk. `Never` stores nothing, not even outputs.
        if self.strategy != MatStrategy::Never
            && self.states[i] == State::Compute
            && !self.catalog.contains(self.sigs[i])
        {
            let value = self.cache.get(node.0).expect("checked above");
            // The artifact's encoded size, not its resident one: the
            // bytes the quota is charged and the bytes the next plan's
            // `estimated_load_nanos` prices, so `l(n)` here is the very
            // `l_i` OEP will see.
            let size = encoded_len(&value);
            // Budget is per-tenant: a named tenant is charged only for the
            // artifacts *it* stored; the solo owner is charged the whole
            // catalog (identical to the original single-session check).
            let used = self.catalog.used_bytes_for(self.tenant);
            let budget_remaining = self.budget_bytes.saturating_sub(used);
            let mandatory = spec.is_output;
            let elective = should_materialize(
                self.strategy,
                cumulative_run_time(self.wf.dag(), &self.incurred, node),
                self.catalog.disk().estimate_load_nanos(size),
                size,
                budget_remaining,
            );
            if mandatory || elective {
                let _span = helix_obs::span(helix_obs::layer::ENGINE, "materialize")
                    .node(spec.name.as_str())
                    .tenant(self.tenant)
                    .iteration(self.iteration)
                    .amount(size);
                // A mandatory store may overflow the quota: make room by
                // evicting this tenant's own oldest sole-owned artifacts
                // (deterministic order; the current plan is protected).
                if mandatory && size > budget_remaining {
                    self.catalog.evict_owned(
                        self.tenant,
                        size - budget_remaining,
                        &self.protected,
                    )?;
                }
                // Global pressure: with every tenant inside its own
                // quota the *shared* store can still exceed the
                // service's global byte budget (quotas may oversubscribe
                // deliberately, and cross-tenant claims charge the same
                // bytes to several owners). Make room across tenants in
                // retention-score order — sole-owned first, popular
                // (refcount > 1) artifacts retained longest; this plan's
                // signatures and other iterations' pinned loads are
                // never victims.
                if let Some(global) = self.catalog.global_budget() {
                    let projected = self.catalog.total_bytes().saturating_add(size);
                    if projected > global {
                        self.catalog.evict_global(
                            self.tenant,
                            projected - global,
                            &self.protected,
                        )?;
                    }
                }
                // Stage now (index, owners, quota — everything later
                // decisions read), then land the file: on the write lane
                // when there is one, inline otherwise. The reported write
                // time is the disk model's deterministic target either way.
                let (bytes, write_nanos, frame) = self.catalog.stage_owned(
                    self.sigs[i],
                    self.tenant,
                    &spec.name,
                    self.iteration,
                    &value,
                )?;
                match self.writer {
                    Some(writer) => writer.enqueue(self.sigs[i], frame),
                    None => {
                        self.catalog.complete_stage(self.sigs[i], &frame)?;
                    }
                }
                debug_assert_eq!(bytes, size, "encoded_len must match the stored artifact");
                if let Some(run) = self.runs[i].as_mut() {
                    run.materialize_nanos = write_nanos;
                    run.materialized_bytes = bytes;
                }
            }
        }
        self.cache.evict(node.0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::track::{chain_signatures, ExecEnv};
    use helix_data::FieldValue::Text;
    use helix_data::{Record, RecordBatch, Scalar, Schema};
    use helix_exec::RunState;
    use helix_storage::DiskProfile;
    use std::sync::OnceLock;

    fn chain_wf() -> Workflow {
        let mut wf = Workflow::new("e");
        let a = wf.source("a", 1, |_| Ok(Value::Scalar(Scalar::I64(5))));
        let b = wf.reduce("b", a, 1, |v, _| {
            let x = v.as_scalar()?.as_f64().unwrap_or(0.0);
            Ok(Value::Scalar(Scalar::F64(x * 2.0)))
        });
        let c = wf.reduce("c", b, 1, |v, _| {
            let x = v.as_scalar()?.as_f64().unwrap_or(0.0);
            Ok(Value::Scalar(Scalar::F64(x + 1.0)))
        });
        wf.output(c);
        wf
    }

    /// A diamond with two independent middle branches — the smallest shape
    /// where frontier scheduling can overlap work.
    fn diamond_wf() -> Workflow {
        let mut wf = Workflow::new("diamond");
        let src = wf.source("src", 1, |_| Ok(Value::Scalar(Scalar::F64(3.0))));
        let left = wf.reduce("left", src, 1, |v, _| {
            let x = v.as_scalar()?.as_f64().unwrap_or(0.0);
            Ok(Value::Scalar(Scalar::F64(x * 10.0)))
        });
        let right = wf.reduce("right", src, 1, |v, _| {
            let x = v.as_scalar()?.as_f64().unwrap_or(0.0);
            Ok(Value::Scalar(Scalar::F64(x + 100.0)))
        });
        let join = wf.reduce_many("join", [left, right], 1, |vs, _| {
            let l = vs[0].as_scalar()?.as_f64().unwrap_or(0.0);
            let r = vs[1].as_scalar()?.as_f64().unwrap_or(0.0);
            Ok(Value::Scalar(Scalar::F64(l + r)))
        });
        wf.output(join);
        wf
    }

    fn run_all_compute(
        wf: &Workflow,
        catalog: &MaterializationCatalog,
        strategy: MatStrategy,
    ) -> ExecOutcome {
        run_all_compute_with_workers(wf, catalog, strategy, 1)
    }

    fn run_all_compute_with_workers(
        wf: &Workflow,
        catalog: &MaterializationCatalog,
        strategy: MatStrategy,
        workers: usize,
    ) -> ExecOutcome {
        let sigs = chain_signatures(wf, &HashMap::new(), &ExecEnv::new(7));
        let states = vec![State::Compute; wf.len()];
        execute(EngineParams {
            wf,
            states: &states,
            sigs: &sigs,
            catalog,
            strategy,
            budget_bytes: u64::MAX,
            workers,
            iteration: 0,
            seed: 7,
            tenant: "",
            core_budget: None,
            pipeline: false,
            writer: None,
        })
        .unwrap()
    }

    #[test]
    fn computes_chain_and_captures_output() {
        let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        let outcome = run_all_compute(&chain_wf(), &catalog, MatStrategy::Opt);
        let out = outcome.outputs.get("c").unwrap();
        assert_eq!(out.as_scalar().unwrap().as_f64(), Some(11.0));
        assert_eq!(outcome.metrics.computed, 3);
        assert_eq!(outcome.compute_times.len(), 3);
    }

    #[test]
    fn outputs_are_mandatorily_materialized_except_under_never() {
        let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        let wf = chain_wf();
        let sigs = chain_signatures(&wf, &HashMap::new(), &ExecEnv::new(7));
        let c = wf.node_by_name("c").unwrap();
        run_all_compute(&wf, &catalog, MatStrategy::Opt);
        assert!(catalog.contains(sigs[c.ix()]), "output must be stored");

        let catalog2 = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        run_all_compute(&wf, &catalog2, MatStrategy::Never);
        assert!(catalog2.is_empty(), "NM writes nothing at all");
    }

    #[test]
    fn always_strategy_materializes_everything() {
        let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        let outcome = run_all_compute(&chain_wf(), &catalog, MatStrategy::Always);
        assert_eq!(catalog.len(), 3);
        assert!(outcome.metrics.materialized_bytes > 0);
        assert_eq!(outcome.metrics.storage_bytes, catalog.total_bytes());
    }

    #[test]
    fn load_state_reads_from_catalog() {
        let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        let wf = chain_wf();
        let sigs = chain_signatures(&wf, &HashMap::new(), &ExecEnv::new(7));
        run_all_compute(&wf, &catalog, MatStrategy::Always);

        // Second run: load the output, prune the rest.
        let states = vec![State::Prune, State::Prune, State::Load];
        let outcome = execute(EngineParams {
            wf: &wf,
            states: &states,
            sigs: &sigs,
            catalog: &catalog,
            strategy: MatStrategy::Opt,
            budget_bytes: u64::MAX,
            workers: 1,
            iteration: 1,
            seed: 7,
            tenant: "",
            core_budget: None,
            pipeline: false,
            writer: None,
        })
        .unwrap();
        assert_eq!(outcome.outputs["c"].as_scalar().unwrap().as_f64(), Some(11.0));
        assert_eq!(outcome.metrics.loaded, 1);
        assert_eq!(outcome.metrics.pruned, 2);
        assert_eq!(outcome.metrics.computed, 0);
        assert!(outcome.compute_times.is_empty());
        let run_states: Vec<RunState> = outcome.metrics.node_runs.iter().map(|r| r.state).collect();
        assert_eq!(run_states, vec![RunState::Pruned, RunState::Pruned, RunState::Loaded]);
    }

    #[test]
    fn budget_blocks_elective_materialization() {
        let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        let wf = chain_wf();
        let sigs = chain_signatures(&wf, &HashMap::new(), &ExecEnv::new(7));
        let states = vec![State::Compute; wf.len()];
        let outcome = execute(EngineParams {
            wf: &wf,
            states: &states,
            sigs: &sigs,
            catalog: &catalog,
            strategy: MatStrategy::Opt,
            budget_bytes: 0, // nothing elective fits
            workers: 1,
            iteration: 0,
            seed: 7,
            tenant: "",
            core_budget: None,
            pipeline: false,
            writer: None,
        })
        .unwrap();
        // Only the mandatory output may be present.
        assert!(catalog.len() <= 1);
        assert!(outcome.outputs.contains_key("c"));
    }

    #[test]
    fn compute_with_missing_parent_value_errors() {
        // Deliberately infeasible states (parent pruned, child computed):
        // the engine must fail loudly rather than silently recompute.
        let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        let wf = chain_wf();
        let sigs = chain_signatures(&wf, &HashMap::new(), &ExecEnv::new(7));
        let states = vec![State::Prune, State::Compute, State::Compute];
        for workers in [1, 4] {
            let err = execute(EngineParams {
                wf: &wf,
                states: &states,
                sigs: &sigs,
                catalog: &catalog,
                strategy: MatStrategy::Opt,
                budget_bytes: u64::MAX,
                workers,
                iteration: 0,
                seed: 7,
                tenant: "",
                core_budget: None,
                pipeline: false,
                writer: None,
            });
            assert!(err.is_err(), "workers={workers}");
        }
    }

    #[test]
    fn undeclared_seed_use_fails_loudly_and_seeded_nodes_key_by_seed() {
        use helix_exec::Phase;
        // An undeclared closure UDF that consumes the seed must fail at
        // execution time — it would otherwise be stored under a
        // seed-independent signature and poison cross-seed sharing.
        let mut sneaky = Workflow::new("sneaky");
        let a = sneaky.source("a", 1, |_| Ok(Value::Scalar(Scalar::I64(1))));
        let b = sneaky.udf_collection("b", Phase::Dpr, &[a], 1, |_inputs, ctx| {
            Ok(Value::Scalar(Scalar::I64(ctx.seed() as i64)))
        });
        sneaky.output(b);
        let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        let sigs = chain_signatures(&sneaky, &HashMap::new(), &ExecEnv::new(7));
        let states = vec![State::Compute; sneaky.len()];
        let err = execute(EngineParams {
            wf: &sneaky,
            states: &states,
            sigs: &sigs,
            catalog: &catalog,
            strategy: MatStrategy::Never,
            budget_bytes: u64::MAX,
            workers: 1,
            iteration: 0,
            seed: 7,
            tenant: "",
            core_budget: None,
            pipeline: false,
            writer: None,
        });
        let message = match err {
            Err(err) => format!("{err}"),
            Ok(_) => panic!("undeclared seed use must error"),
        };
        assert!(message.contains("SeededOperator"), "error must point at the fix: {message}");

        // The declared twin executes fine — and its signature is keyed
        // by seed, unlike the deterministic source upstream.
        let declared = |version: u64| {
            let mut wf = Workflow::new("declared");
            let a = wf.source("a", 1, |_| Ok(Value::Scalar(Scalar::I64(1))));
            let b = wf.udf_collection_seeded("b", Phase::Dpr, &[a], version, |_inputs, ctx| {
                Ok(Value::Scalar(Scalar::I64(ctx.seed() as i64)))
            });
            wf.output(b);
            wf
        };
        let wf = declared(1);
        let s1 = chain_signatures(&wf, &HashMap::new(), &ExecEnv::new(1));
        let s2 = chain_signatures(&wf, &HashMap::new(), &ExecEnv::new(2));
        let at = |n: &str| wf.node_by_name(n).unwrap().ix();
        assert_eq!(s1[at("a")], s2[at("a")], "deterministic source shared across seeds");
        assert_ne!(s1[at("b")], s2[at("b")], "seeded UDF keyed by seed");
        let states = vec![State::Compute; wf.len()];
        let outcome = execute(EngineParams {
            wf: &wf,
            states: &states,
            sigs: &s1,
            catalog: &catalog,
            strategy: MatStrategy::Never,
            budget_bytes: u64::MAX,
            workers: 1,
            iteration: 0,
            seed: 1,
            tenant: "",
            core_budget: None,
            pipeline: false,
            writer: None,
        })
        .expect("declared seed use executes");
        assert!(outcome.outputs.contains_key("b"));
    }

    #[test]
    fn parallel_matches_serial_on_chain_and_diamond() {
        for wf in [chain_wf(), diamond_wf()] {
            let output_name = if wf.name() == "e" { "c" } else { "join" };
            let serial_catalog =
                MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
            let serial = run_all_compute(&wf, &serial_catalog, MatStrategy::Always);
            for workers in [2, 4, 8] {
                let catalog =
                    MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
                let parallel =
                    run_all_compute_with_workers(&wf, &catalog, MatStrategy::Always, workers);
                assert_eq!(
                    serial.outputs[output_name].as_scalar().unwrap(),
                    parallel.outputs[output_name].as_scalar().unwrap(),
                    "workers={workers}"
                );
                assert_eq!(serial.metrics.computed, parallel.metrics.computed);
                assert_eq!(catalog.len(), serial_catalog.len(), "same materialization set");
                // Same signatures materialized, same decision order.
                let serial_sigs: Vec<String> =
                    serial_catalog.entries().iter().map(|e| e.signature.clone()).collect();
                let parallel_sigs: Vec<String> =
                    catalog.entries().iter().map(|e| e.signature.clone()).collect();
                assert_eq!(serial_sigs, parallel_sigs);
            }
        }
    }

    #[test]
    fn parallel_overlaps_independent_branches() {
        // Two independent 80 ms branches: serial ≥ 160 ms, 2 workers ≈ 80.
        // Sleeping operators model blocking work (I/O, external calls) so
        // the assertion holds even on a single-core CI machine.
        let mut wf = Workflow::new("sleepy");
        let src = wf.source("src", 1, |_| Ok(Value::Scalar(Scalar::F64(1.0))));
        let slow = |v: &Value| {
            std::thread::sleep(std::time::Duration::from_millis(80));
            let x = v.as_scalar()?.as_f64().unwrap_or(0.0);
            Ok(Value::Scalar(Scalar::F64(x + 1.0)))
        };
        let a = wf.reduce("a", src, 1, move |v, _| slow(v));
        let b = wf.reduce("b", src, 1, move |v, _| slow(v));
        let join = wf.reduce_many("join", [a, b], 1, |vs, _| {
            let total: f64 =
                vs.iter().filter_map(|v| v.as_scalar().ok().and_then(|s| s.as_f64())).sum();
            Ok(Value::Scalar(Scalar::F64(total)))
        });
        wf.output(join);

        let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        let t_serial = std::time::Instant::now();
        let serial = run_all_compute_with_workers(&wf, &catalog, MatStrategy::Never, 1);
        let serial_time = t_serial.elapsed();

        let t_parallel = std::time::Instant::now();
        let parallel = run_all_compute_with_workers(&wf, &catalog, MatStrategy::Never, 2);
        let parallel_time = t_parallel.elapsed();

        assert_eq!(
            serial.outputs["join"].as_scalar().unwrap(),
            parallel.outputs["join"].as_scalar().unwrap()
        );
        assert!(
            parallel_time < serial_time * 3 / 4,
            "2 workers {parallel_time:?} should beat serial {serial_time:?} on 2 branches"
        );
    }

    #[test]
    fn error_reporting_matches_serial_at_any_worker_count() {
        // Two failing branches: `slow_fail` (earlier topo position, fails
        // after 60 ms) and `fast_fail` (later position, fails instantly).
        // Serial hits `slow_fail` first; a naive parallel engine would
        // report whichever error *arrives* first — fast_fail. The engine
        // must keep dispatching nodes before the error position and
        // report the earliest-topo-position error, like serial.
        let mut wf = Workflow::new("errs");
        let src = wf.source("src", 1, |_| Ok(Value::Scalar(Scalar::F64(1.0))));
        let slow = wf.reduce("slow_fail", src, 1, |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(60));
            Err(HelixError::exec("slow_fail", "slow branch failed"))
        });
        let fast = wf.reduce("fast_fail", src, 1, |_, _| {
            Err(HelixError::exec("fast_fail", "fast branch failed"))
        });
        let join =
            wf.reduce_many("join", [slow, fast], 1, |_, _| Ok(Value::Scalar(Scalar::F64(0.0))));
        wf.output(join);

        let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        let sigs = chain_signatures(&wf, &HashMap::new(), &ExecEnv::new(7));
        let states = vec![State::Compute; wf.len()];
        let mut messages = Vec::new();
        for workers in [1, 4] {
            let result = execute(EngineParams {
                wf: &wf,
                states: &states,
                sigs: &sigs,
                catalog: &catalog,
                strategy: MatStrategy::Never,
                budget_bytes: u64::MAX,
                workers,
                iteration: 0,
                seed: 7,
                tenant: "",
                core_budget: None,
                pipeline: false,
                writer: None,
            });
            let Err(err) = result else {
                panic!("workers={workers}: expected an error");
            };
            messages.push(format!("{err}"));
        }
        assert!(
            messages[0].contains("slow_fail"),
            "serial must report the earlier-topo error, got: {}",
            messages[0]
        );
        assert_eq!(messages[0], messages[1], "parallel error must match serial");
    }

    #[test]
    fn failed_iteration_leaves_serial_identical_catalog() {
        // `slow_ok` (topo pos 1) succeeds after 60 ms; `fast_fail` (pos 2)
        // fails instantly. Serial materializes slow_ok (Always) and then
        // errors; a parallel run sees the error first but must still
        // commit the earlier-position materialization — and nothing else.
        let build = || {
            let mut wf = Workflow::new("failpar");
            let src = wf.source("src", 1, |_| Ok(Value::Scalar(Scalar::F64(1.0))));
            // Leaves: slow_ok's finalize event triggers at its own topo
            // position (1), strictly before the error at fast_fail (2).
            let _slow = wf.reduce("slow_ok", src, 1, |v, _| {
                std::thread::sleep(std::time::Duration::from_millis(60));
                let x = v.as_scalar()?.as_f64().unwrap_or(0.0);
                Ok(Value::Scalar(Scalar::F64(x + 1.0)))
            });
            let _fast =
                wf.reduce("fast_fail", src, 1, |_, _| Err(HelixError::exec("fast_fail", "boom")));
            wf
        };
        let mut catalog_sigs = Vec::new();
        for workers in [1, 4] {
            let wf = build();
            let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
            let sigs = chain_signatures(&wf, &HashMap::new(), &ExecEnv::new(7));
            let states = vec![State::Compute; wf.len()];
            let result = execute(EngineParams {
                wf: &wf,
                states: &states,
                sigs: &sigs,
                catalog: &catalog,
                strategy: MatStrategy::Always,
                budget_bytes: u64::MAX,
                workers,
                iteration: 0,
                seed: 7,
                tenant: "",
                core_budget: None,
                pipeline: false,
                writer: None,
            });
            assert!(result.is_err(), "workers={workers}");
            let entries: Vec<String> =
                catalog.entries().iter().map(|e| e.signature.clone()).collect();
            catalog_sigs.push(entries);
        }
        assert_eq!(
            catalog_sigs[0], catalog_sigs[1],
            "failed iteration must leave the same catalog at any worker count"
        );
        assert_eq!(catalog_sigs[0].len(), 1, "exactly slow_ok's artifact survives");
    }

    /// `src` sleeps 20 ms and returns 19 000 rows of four 7-byte text
    /// cells: ≈ 3 MB resident, ≈ 0.7 MB encoded (the IE shape). On
    /// `paper_hdd`, `2l` is ≈ 39 ms priced on resident bytes and ≈ 12 ms
    /// on encoded bytes, with `C(src)` in between. `rows` is the output.
    fn text_heavy_wf(rows_version: u64) -> Workflow {
        let mut wf = Workflow::new("text");
        let src = wf.source("src", 1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let rows =
                (0..19_000).map(|_| Record::train(vec![Text("abcdefg".into()); 4])).collect();
            Ok(Value::records(RecordBatch::new(Schema::new(["a", "b", "c", "d"]), rows)?))
        });
        let rows = wf.reduce("rows", src, rows_version, |v, _| {
            Ok(Value::Scalar(Scalar::I64(v.as_collection()?.len() as i64)))
        });
        wf.output(rows);
        wf
    }

    fn run_opt(wf: &Workflow, catalog: &MaterializationCatalog, budget_bytes: u64) -> ExecOutcome {
        let sigs = chain_signatures(wf, &HashMap::new(), &ExecEnv::new(7));
        let states = vec![State::Compute; wf.len()];
        execute(EngineParams {
            wf,
            states: &states,
            sigs: &sigs,
            catalog,
            strategy: MatStrategy::Opt,
            budget_bytes,
            workers: 1,
            iteration: 0,
            seed: 7,
            tenant: "",
            core_budget: None,
            pipeline: false,
            writer: None,
        })
        .unwrap()
    }

    #[test]
    fn algorithm2_prices_the_encoded_bytes_it_stores() {
        let catalog = MaterializationCatalog::open_temp(DiskProfile::paper_hdd()).unwrap();
        let wf = text_heavy_wf(1);
        let sigs = chain_signatures(&wf, &HashMap::new(), &ExecEnv::new(7));
        let src = wf.node_by_name("src").unwrap();
        let outcome = run_opt(&wf, &catalog, u64::MAX);

        let entry = catalog.entry(sigs[src.ix()]).expect("C(src) > 2l on encoded bytes: stored");
        let (stored, _) = catalog.load(sigs[src.ix()]).unwrap();
        let run = &outcome.metrics.node_runs[src.ix()];
        assert!(stored.byte_size() > 4 * entry.bytes, "the test's premise: text-heavy");
        assert_eq!(run.materialized_bytes, encoded_len(&stored));
        assert_eq!(run.materialized_bytes, entry.bytes);

        // The next iteration edits the output only: the plan prices the
        // load on the same bytes Algorithm 2 did, and takes it.
        let next = text_heavy_wf(2);
        let next_sigs = chain_signatures(&next, &HashMap::new(), &ExecEnv::new(7));
        assert_eq!(next_sigs[src.ix()], sigs[src.ix()]);
        let stats: HashMap<Signature, Nanos> = outcome.compute_times.iter().copied().collect();
        let plan = crate::plan::plan(
            &next,
            &crate::plan::PlanInputs {
                sigs: &next_sigs,
                catalog: &catalog,
                reuse: crate::session::ReuseScope::All,
                compute_stats: &stats,
                default_compute_nanos: 1_000,
            },
        );
        assert_eq!(plan.states[src.ix()], State::Load);
    }

    #[test]
    fn budget_admits_on_encoded_bytes() {
        // A quota between the encoded (≈ 0.7 MB) and resident (≈ 3 MB)
        // sizes; an unthrottled disk makes `C > 2l` either way, so only
        // admission decides.
        let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        let wf = text_heavy_wf(1);
        let sigs = chain_signatures(&wf, &HashMap::new(), &ExecEnv::new(7));
        run_opt(&wf, &catalog, 1_500_000);
        assert!(catalog.contains(sigs[wf.node_by_name("src").unwrap().ix()]));
    }

    /// `src → {a, side}, a → b` — level width 2, so two workers take the
    /// parallel driver. `side` finishes long before `a`, so `a`'s
    /// completion is what triggers the finalizes of `side` and `src`.
    fn fork_wf(
        a_end: Option<Arc<OnceLock<Instant>>>,
        b_start: Option<Arc<OnceLock<Instant>>>,
    ) -> Workflow {
        let mut wf = Workflow::new("fork");
        let src = wf.source("src", 1, |_| Ok(Value::Scalar(Scalar::F64(1.0))));
        let a = wf.reduce("a", src, 1, move |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(50));
            if let Some(at) = &a_end {
                at.set(Instant::now()).unwrap();
            }
            Ok(Value::Scalar(Scalar::F64(2.0)))
        });
        let _side = wf.reduce("side", src, 1, |_, _| Ok(Value::Scalar(Scalar::F64(3.0))));
        let b = wf.reduce("b", a, 1, move |_, _| {
            if let Some(at) = &b_start {
                at.set(Instant::now()).unwrap();
            }
            Ok(Value::Scalar(Scalar::F64(4.0)))
        });
        wf.output(b);
        wf
    }

    #[test]
    fn finalization_overlaps_dispatch() {
        // Every store takes ≥ 200 ms (write-throttled seek), and `a`'s
        // completion triggers two of them. Finalizing before the sweep
        // would hold `b` back by ≥ 400 ms.
        let a_end = Arc::new(OnceLock::new());
        let b_start = Arc::new(OnceLock::new());
        let wf = fork_wf(Some(Arc::clone(&a_end)), Some(Arc::clone(&b_start)));
        let catalog =
            MaterializationCatalog::open_temp(DiskProfile::scaled(u64::MAX, 200_000_000)).unwrap();
        run_all_compute_with_workers(&wf, &catalog, MatStrategy::Always, 2);
        let gap = b_start.get().unwrap().saturating_duration_since(*a_end.get().unwrap());
        assert!(gap < std::time::Duration::from_millis(100), "b waited {gap:?} behind finalizes");
        assert_eq!(catalog.len(), 4);
    }

    #[test]
    fn failed_finalize_matches_serial_at_any_worker_count() {
        // The catalog's directory is gone, so the first inline store
        // fails with an io error. In the parallel run `b` is dispatched in
        // the same sweep as that failing finalize: it runs and is
        // discarded, and the error and catalog still equal serial's.
        let mut outcomes = Vec::new();
        for workers in [1, 4] {
            let wf = fork_wf(None, None);
            let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
            std::fs::remove_dir_all(catalog.root()).unwrap();
            let sigs = chain_signatures(&wf, &HashMap::new(), &ExecEnv::new(7));
            let states = vec![State::Compute; wf.len()];
            let result = execute(EngineParams {
                wf: &wf,
                states: &states,
                sigs: &sigs,
                catalog: &catalog,
                strategy: MatStrategy::Always,
                budget_bytes: u64::MAX,
                workers,
                iteration: 0,
                seed: 7,
                tenant: "",
                core_budget: None,
                pipeline: false,
                writer: None,
            });
            let Err(err) = result else {
                panic!("workers={workers}: the store must fail");
            };
            let entries: Vec<String> =
                catalog.entries().iter().map(|e| e.signature.clone()).collect();
            outcomes.push((format!("{err}"), entries));
        }
        assert!(outcomes[0].0.starts_with("io error"), "{}", outcomes[0].0);
        assert_eq!(outcomes[0], outcomes[1], "parallel must fail like serial");
    }

    #[test]
    fn finalize_sequence_is_timing_independent() {
        let wf = diamond_wf();
        let dag = wf.dag();
        let order = dag.topo_order().unwrap();
        let states = vec![State::Compute; wf.len()];
        let seq = serial_finalize_sequence(dag, &states, &order);
        // src (node 0) goes out of scope after both branches; branches
        // after the join; join after itself (no compute children).
        let (first_finalized, trigger_pos) = seq.first().copied().unwrap();
        assert_eq!(first_finalized, NodeId(0), "src retires once left+right are done");
        assert_eq!(trigger_pos, 2, "…which happens at the second branch's topo position");
        assert_eq!(seq, serial_finalize_sequence(dag, &states, &order), "pure function");
    }
}
