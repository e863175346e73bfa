//! Run-time accounting for the paper's figures.
//!
//! Each operator belongs to one workflow component — DPR, L/I, or PPR
//! (paper §2) — and each finishes an iteration in one of the OEP states
//! (computed, loaded, pruned). Figures 5/6/9 plot exactly these sums, so
//! the engine records a [`NodeRun`] per node per iteration and folds them
//! into [`IterationMetrics`].

use helix_common::timing::Nanos;

/// Workflow component of an operator (paper §2: DPR, L/I, PPR).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Data preprocessing.
    Dpr,
    /// Learning / inference.
    LearnInference,
    /// Postprocessing.
    Ppr,
}

impl Phase {
    /// Short label used in figure output (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Dpr => "DPR",
            Phase::LearnInference => "L/I",
            Phase::Ppr => "PPR",
        }
    }
}

/// How a node was resolved this iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunState {
    /// Computed from inputs (`S_c`).
    Computed,
    /// Loaded from the catalog (`S_l`).
    Loaded,
    /// Pruned (`S_p`).
    Pruned,
}

/// One node's outcome in one iteration.
#[derive(Clone, Debug)]
pub struct NodeRun {
    /// DAG node id.
    pub node: u32,
    /// Operator name (reports).
    pub name: String,
    /// Workflow component.
    pub phase: Phase,
    /// Resolution state.
    pub state: RunState,
    /// Time spent computing or loading (0 when pruned).
    pub run_nanos: Nanos,
    /// The disk model's write target for the output's encoded bytes (0
    /// when not materialized): a modelled cost, not measured wall, so it
    /// is the same whether the write landed inline or on the write lane.
    pub materialize_nanos: Nanos,
    /// Bytes written when materialized.
    pub materialized_bytes: u64,
    /// Approximate size of the in-memory output (0 when pruned).
    pub output_bytes: u64,
}

/// Aggregated metrics for one iteration of one workflow.
#[derive(Clone, Debug, Default)]
pub struct IterationMetrics {
    /// Iteration number (0-based).
    pub iteration: u64,
    /// Run time per component.
    pub dpr_nanos: Nanos,
    /// L/I run time.
    pub li_nanos: Nanos,
    /// PPR run time.
    pub ppr_nanos: Nanos,
    /// Total materialization cost: the sum of each stored node's
    /// modelled write target ([`NodeRun::materialize_nanos`]), not
    /// measured wall.
    pub materialize_nanos: Nanos,
    /// Bytes written to the catalog this iteration.
    pub materialized_bytes: u64,
    /// Node-state tallies.
    pub computed: usize,
    /// Loaded node count.
    pub loaded: usize,
    /// Of the loaded nodes, how many were served by an artifact another
    /// tenant stored (cross-tenant hits; always 0 for solo sessions).
    pub cross_loaded: usize,
    /// Pruned node count.
    pub pruned: usize,
    /// Wall-clock time during which at least one catalog load was in
    /// flight (union of load intervals). Under prefetching and frontier
    /// parallelism loads overlap each other and compute, so this is the
    /// honest I/O exposure of the iteration.
    pub load_nanos: Nanos,
    /// Summed per-load time — what `load_nanos` would be if every load
    /// ran back-to-back (the serial engine's number). Benches must use
    /// `load_nanos` for wall-clock math and this only for volume,
    /// otherwise hidden (overlapped) I/O gets double-counted.
    pub load_cpu_nanos: Nanos,
    /// Peak resident cache bytes.
    pub peak_memory_bytes: u64,
    /// Average resident cache bytes.
    pub avg_memory_bytes: u64,
    /// Catalog footprint at end of iteration.
    pub storage_bytes: u64,
    /// Per-node detail.
    pub node_runs: Vec<NodeRun>,
}

impl IterationMetrics {
    /// Start metrics for `iteration`.
    pub fn new(iteration: u64) -> IterationMetrics {
        IterationMetrics { iteration, ..Default::default() }
    }

    /// Fold in one node outcome.
    pub fn record(&mut self, run: NodeRun) {
        match run.state {
            RunState::Computed => self.computed += 1,
            RunState::Loaded => self.loaded += 1,
            RunState::Pruned => self.pruned += 1,
        }
        match run.phase {
            Phase::Dpr => self.dpr_nanos += run.run_nanos,
            Phase::LearnInference => self.li_nanos += run.run_nanos,
            Phase::Ppr => self.ppr_nanos += run.run_nanos,
        }
        self.materialize_nanos += run.materialize_nanos;
        self.materialized_bytes += run.materialized_bytes;
        self.node_runs.push(run);
    }

    /// Total iteration time: all components + materialization (the paper's
    /// "per-iteration time measures both the time to execute the workflow
    /// and any time spent to materialize intermediate results", §6.4).
    pub fn total_nanos(&self) -> Nanos {
        self.dpr_nanos + self.li_nanos + self.ppr_nanos + self.materialize_nanos
    }
}

/// Length of the union of half-open time intervals `(start, end)` — the
/// wall-clock during which at least one of the activities was in flight.
/// Used for [`IterationMetrics::load_nanos`] so overlapped I/O counts
/// once.
pub fn interval_union_nanos(spans: &[(Nanos, Nanos)]) -> Nanos {
    let mut sorted: Vec<(Nanos, Nanos)> = spans.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(Nanos, Nanos)> = None;
    for (s, e) in sorted {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Cumulative run time over a sequence of iterations (the y-axis of
/// Figures 5, 7 and 9).
pub fn cumulative_nanos(iterations: &[IterationMetrics]) -> Vec<Nanos> {
    let mut acc = 0;
    iterations
        .iter()
        .map(|m| {
            acc += m.total_nanos();
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(phase: Phase, state: RunState, nanos: Nanos) -> NodeRun {
        NodeRun {
            node: 0,
            name: "op".into(),
            phase,
            state,
            run_nanos: nanos,
            materialize_nanos: 0,
            materialized_bytes: 0,
            output_bytes: 0,
        }
    }

    #[test]
    fn component_sums() {
        let mut m = IterationMetrics::new(0);
        m.record(run(Phase::Dpr, RunState::Computed, 100));
        m.record(run(Phase::Dpr, RunState::Loaded, 50));
        m.record(run(Phase::LearnInference, RunState::Computed, 500));
        m.record(run(Phase::Ppr, RunState::Pruned, 0));
        assert_eq!(m.dpr_nanos, 150);
        assert_eq!(m.li_nanos, 500);
        assert_eq!(m.ppr_nanos, 0);
        assert_eq!(m.total_nanos(), 650);
        assert_eq!((m.computed, m.loaded, m.pruned), (2, 1, 1));
    }

    #[test]
    fn materialization_counts_toward_total() {
        let mut m = IterationMetrics::new(1);
        let mut r = run(Phase::Dpr, RunState::Computed, 100);
        r.materialize_nanos = 40;
        r.materialized_bytes = 1024;
        m.record(r);
        assert_eq!(m.total_nanos(), 140);
        assert_eq!(m.materialized_bytes, 1024);
    }

    #[test]
    fn interval_union_counts_overlap_once() {
        assert_eq!(interval_union_nanos(&[]), 0);
        assert_eq!(interval_union_nanos(&[(0, 10)]), 10);
        // Overlapping, nested, disjoint, empty, and out-of-order spans.
        assert_eq!(interval_union_nanos(&[(5, 15), (0, 10)]), 15);
        assert_eq!(interval_union_nanos(&[(0, 20), (5, 10)]), 20);
        assert_eq!(interval_union_nanos(&[(0, 5), (10, 15)]), 10);
        assert_eq!(interval_union_nanos(&[(3, 3), (0, 4)]), 4);
        // Three loads of 10 each, fully concurrent: wall is 10, cpu is 30.
        assert_eq!(interval_union_nanos(&[(0, 10), (0, 10), (0, 10)]), 10);
    }

    #[test]
    fn cumulative_series() {
        let mut a = IterationMetrics::new(0);
        a.record(run(Phase::Dpr, RunState::Computed, 10));
        let mut b = IterationMetrics::new(1);
        b.record(run(Phase::Ppr, RunState::Computed, 5));
        assert_eq!(cumulative_nanos(&[a, b]), vec![10, 15]);
        assert!(cumulative_nanos(&[]).is_empty());
    }
}
