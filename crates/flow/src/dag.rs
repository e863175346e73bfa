//! A deterministic DAG container for Workflow DAGs.
//!
//! The Workflow DAG (paper Definition 1) has nodes for operator outputs and
//! edges for input–output relationships. This container is intentionally
//! simple: `u32` node ids, `Vec`-based adjacency in insertion order (so all
//! downstream decisions — topological order, slicing, state assignment —
//! are bit-for-bit reproducible across runs), and cycle detection at
//! `topo_order` time.

use helix_common::{HelixError, Result};

/// Index of a node within a [`Dag`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Usize view for indexing.
    #[inline]
    pub fn ix(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed graph intended to be acyclic, with node payloads of type `T`.
///
/// Acyclicity is validated by [`topo_order`](Dag::topo_order); insertion
/// itself only rejects self-loops, duplicate edges, and dangling endpoints.
#[derive(Clone, Debug)]
pub struct Dag<T> {
    payloads: Vec<T>,
    children: Vec<Vec<NodeId>>,
    parents: Vec<Vec<NodeId>>,
}

impl<T> Default for Dag<T> {
    fn default() -> Self {
        Dag { payloads: Vec::new(), children: Vec::new(), parents: Vec::new() }
    }
}

impl<T> Dag<T> {
    /// Empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// True when there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.children.iter().map(Vec::len).sum()
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, payload: T) -> NodeId {
        let id = NodeId(self.payloads.len() as u32);
        self.payloads.push(payload);
        self.children.push(Vec::new());
        self.parents.push(Vec::new());
        id
    }

    /// Add an edge `from → to` (from is an input of to).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<()> {
        if from.ix() >= self.len() || to.ix() >= self.len() {
            return Err(HelixError::graph(format!("edge endpoint out of range: {from}->{to}")));
        }
        if from == to {
            return Err(HelixError::graph(format!("self-loop on {from}")));
        }
        if self.children[from.ix()].contains(&to) {
            return Ok(()); // idempotent
        }
        self.children[from.ix()].push(to);
        self.parents[to.ix()].push(from);
        Ok(())
    }

    /// Payload of a node.
    pub fn payload(&self, n: NodeId) -> &T {
        &self.payloads[n.ix()]
    }

    /// Mutable payload of a node.
    pub fn payload_mut(&mut self, n: NodeId) -> &mut T {
        &mut self.payloads[n.ix()]
    }

    /// Direct predecessors (operator inputs), in insertion order.
    pub fn parents(&self, n: NodeId) -> &[NodeId] {
        &self.parents[n.ix()]
    }

    /// Direct successors (dependent operators), in insertion order.
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.children[n.ix()]
    }

    /// All node ids in insertion order.
    fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.payloads.len() as u32).map(NodeId)
    }

    /// Iterate `(id, payload)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.payloads.iter().enumerate().map(|(i, p)| (NodeId(i as u32), p))
    }

    /// All edges as `(from, to)` pairs in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.children
            .iter()
            .enumerate()
            .flat_map(|(i, cs)| cs.iter().map(move |c| (NodeId(i as u32), *c)))
    }

    /// Kahn topological order; errors on cycles. Ties are broken by node id
    /// so the order is deterministic.
    pub fn topo_order(&self) -> Result<Vec<NodeId>> {
        let n = self.len();
        let mut indegree: Vec<usize> = (0..n).map(|i| self.parents[i].len()).collect();
        // Min-id-first frontier: a sorted insertion queue (the DAGs here are
        // small; clarity beats a heap).
        let mut frontier: Vec<NodeId> =
            (0..n as u32).map(NodeId).filter(|id| indegree[id.ix()] == 0).collect();
        frontier.sort_unstable();
        let mut order = Vec::with_capacity(n);
        let mut cursor = 0;
        while cursor < frontier.len() {
            let next = frontier[cursor];
            cursor += 1;
            order.push(next);
            for &c in &self.children[next.ix()] {
                indegree[c.ix()] -= 1;
                if indegree[c.ix()] == 0 {
                    // Keep the unexplored tail sorted.
                    let tail = &frontier[cursor..];
                    let pos = cursor + tail.partition_point(|x| *x < c);
                    frontier.insert(pos, c);
                }
            }
        }
        if order.len() != n {
            return Err(HelixError::graph("workflow graph contains a cycle"));
        }
        Ok(order)
    }

    /// In-degree (parent count) per node, aligned with node ids.
    fn in_degrees(&self) -> Vec<usize> {
        self.parents.iter().map(Vec::len).collect()
    }

    /// Longest-path depth from the roots per node (roots are level 0);
    /// errors on cycles. Nodes sharing a level form an antichain — none
    /// depends on another — so each level is a maximal co-schedulable set.
    pub fn levels(&self) -> Result<Vec<usize>> {
        let order = self.topo_order()?;
        let mut level = vec![0usize; self.len()];
        for id in order {
            for &c in self.children(id) {
                level[c.ix()] = level[c.ix()].max(level[id.ix()] + 1);
            }
        }
        Ok(level)
    }

    /// Nodes grouped by [`levels`](Self::levels): `result[k]` is the
    /// antichain of nodes at depth `k`, ascending by node id. The maximum
    /// antichain width bounds the useful engine worker count.
    pub fn level_sets(&self) -> Result<Vec<Vec<NodeId>>> {
        let levels = self.levels()?;
        let depth = levels.iter().copied().max().map_or(0, |d| d + 1);
        let mut sets = vec![Vec::new(); depth];
        for id in self.node_ids() {
            sets[levels[id.ix()]].push(id);
        }
        Ok(sets)
    }

    /// Start a [`Frontier`] over this DAG for incremental ready-set
    /// scheduling.
    pub fn frontier(&self) -> Frontier<'_, T> {
        Frontier::new(self)
    }

    /// Render Graphviz DOT using `label` for node captions (for docs and
    /// debugging).
    pub fn to_dot(&self, mut label: impl FnMut(NodeId, &T) -> String) -> String {
        let mut out = String::from("digraph workflow {\n  rankdir=TB;\n");
        for (id, payload) in self.iter() {
            out.push_str(&format!("  {} [label=\"{}\"];\n", id, label(id, payload)));
        }
        for (a, b) in self.edges() {
            out.push_str(&format!("  {a} -> {b};\n"));
        }
        out.push_str("}\n");
        out
    }
}

/// Incremental ready-frontier tracking over a [`Dag`].
///
/// The engine's parallel scheduler (paper §2.1's execution layer, made
/// concurrent) asks two questions repeatedly: *which nodes are ready now*
/// (all parents completed) and *what became ready after this completion*.
/// `Frontier` answers both in O(out-degree) per completion by maintaining
/// remaining in-degrees. All orderings are ascending by node id, so
/// dispatch order is deterministic for a given completion order.
#[derive(Clone, Debug)]
pub struct Frontier<'a, T> {
    dag: &'a Dag<T>,
    indegree: Vec<usize>,
    completed: Vec<bool>,
    ready: Vec<NodeId>,
    outstanding: usize,
}

impl<'a, T> Frontier<'a, T> {
    /// Fresh frontier: every root is ready, nothing is completed.
    pub fn new(dag: &'a Dag<T>) -> Frontier<'a, T> {
        let indegree = dag.in_degrees();
        let ready: Vec<NodeId> = dag.node_ids().filter(|n| indegree[n.ix()] == 0).collect();
        Frontier { dag, indegree, completed: vec![false; dag.len()], ready, outstanding: dag.len() }
    }

    /// Currently ready, not-yet-dispatched nodes, ascending by id.
    pub fn ready(&self) -> &[NodeId] {
        &self.ready
    }

    /// Remove and return the smallest-id ready node. Draining a DAG with
    /// `pop_min` + [`complete`](Self::complete) visits nodes in exactly
    /// the canonical min-id Kahn order of [`Dag::topo_order`].
    pub fn pop_min(&mut self) -> Option<NodeId> {
        if self.ready.is_empty() {
            None
        } else {
            Some(self.ready.remove(0))
        }
    }

    /// Nodes not yet completed.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Record `node` as completed, returning the nodes that became ready
    /// *because of it* (ascending by id). The same nodes are also added to
    /// [`ready`](Self::ready) for callers that poll instead. Panics on
    /// double completion or on completing a node with unfinished parents —
    /// both are scheduler bugs worth failing loudly for.
    pub fn complete(&mut self, node: NodeId) -> Vec<NodeId> {
        assert!(!std::mem::replace(&mut self.completed[node.ix()], true), "{node} completed twice");
        assert_eq!(self.indegree[node.ix()], 0, "{node} completed with unfinished parents");
        self.outstanding -= 1;
        let mut newly: Vec<NodeId> = Vec::new();
        for &c in self.dag.children(node) {
            self.indegree[c.ix()] -= 1;
            if self.indegree[c.ix()] == 0 {
                newly.push(c);
            }
        }
        newly.sort_unstable();
        for &n in &newly {
            let pos = self.ready.partition_point(|x| *x < n);
            self.ready.insert(pos, n);
        }
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the 8-node example DAG of paper Figure 4:
    /// 1→4, 2→4, 3→5, 4→6, 5→6, 5→8, 6→7, 7→8 (1-indexed in the paper).
    fn figure4() -> (Dag<&'static str>, Vec<NodeId>) {
        let mut g = Dag::new();
        let ns: Vec<NodeId> = (1..=8)
            .map(|i| g.add_node(Box::leak(format!("n{i}").into_boxed_str()) as &str))
            .collect();
        let edge = |g: &mut Dag<&str>, a: usize, b: usize| {
            g.add_edge(ns[a - 1], ns[b - 1]).unwrap();
        };
        edge(&mut g, 1, 4);
        edge(&mut g, 2, 4);
        edge(&mut g, 3, 5);
        edge(&mut g, 4, 6);
        edge(&mut g, 5, 6);
        edge(&mut g, 5, 8);
        edge(&mut g, 6, 7);
        edge(&mut g, 7, 8);
        (g, ns)
    }

    #[test]
    fn construction_and_adjacency() {
        let (g, ns) = figure4();
        assert_eq!(g.len(), 8);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.parents(ns[3]), &[ns[0], ns[1]]);
        assert_eq!(g.children(ns[4]), &[ns[5], ns[7]]);
        let roots: Vec<NodeId> = g.node_ids().filter(|n| g.parents(*n).is_empty()).collect();
        assert_eq!(roots, vec![ns[0], ns[1], ns[2]]);
        let sinks: Vec<NodeId> = g.node_ids().filter(|n| g.children(*n).is_empty()).collect();
        assert_eq!(sinks, vec![ns[7]]);
    }

    #[test]
    fn duplicate_edges_are_idempotent() {
        let mut g = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b).unwrap();
        g.add_edge(a, b).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loop_and_dangling_rejected() {
        let mut g = Dag::new();
        let a = g.add_node(());
        assert!(g.add_edge(a, a).is_err());
        assert!(g.add_edge(a, NodeId(9)).is_err());
    }

    #[test]
    fn topo_order_is_valid_and_deterministic() {
        let (g, _) = figure4();
        let order = g.topo_order().unwrap();
        assert_eq!(order.len(), 8);
        let mut position = [0usize; 8];
        for (pos, n) in order.iter().enumerate() {
            position[n.ix()] = pos;
        }
        for (a, b) in g.edges() {
            assert!(position[a.ix()] < position[b.ix()], "{a} must precede {b}");
        }
        // Deterministic tie-break by id.
        assert_eq!(order, g.topo_order().unwrap());
        assert_eq!(order[0], NodeId(0));
    }

    #[test]
    fn cycles_detected() {
        let mut g = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        g.add_edge(c, a).unwrap();
        assert!(g.topo_order().is_err());
    }

    #[test]
    fn in_degrees_align_with_node_ids() {
        let (g, _) = figure4();
        assert_eq!(g.in_degrees(), vec![0, 0, 0, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn levels_are_longest_paths() {
        let (g, _) = figure4();
        // 1,2,3 roots; 4,5 depend on roots; 6 on 4&5; 7 on 6; 8 on 5&7.
        assert_eq!(g.levels().unwrap(), vec![0, 0, 0, 1, 1, 2, 3, 4]);
        let sets = g.level_sets().unwrap();
        assert_eq!(sets.len(), 5);
        assert_eq!(sets[0], vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(sets[1], vec![NodeId(3), NodeId(4)]);
        assert_eq!(sets[4], vec![NodeId(7)]);
        // Antichain property: no edges inside a level.
        for set in &sets {
            for a in set {
                for b in set {
                    assert!(!g.children(*a).contains(b), "{a}->{b} within a level");
                }
            }
        }
    }

    #[test]
    fn levels_error_on_cycle() {
        let mut g = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b).unwrap();
        g.add_edge(b, a).unwrap();
        assert!(g.levels().is_err());
        assert!(g.level_sets().is_err());
    }

    #[test]
    fn frontier_tracks_ready_sets() {
        let (g, ns) = figure4();
        let mut frontier = g.frontier();
        assert_eq!(frontier.ready(), &[ns[0], ns[1], ns[2]]);
        assert_eq!(frontier.outstanding(), 8);

        assert_eq!(frontier.pop_min(), Some(ns[0]));
        assert_eq!(frontier.pop_min(), Some(ns[1]));
        assert_eq!(frontier.pop_min(), Some(ns[2]));
        assert!(frontier.ready().is_empty());

        // n1 alone does not ready n4 (needs n2 as well).
        assert!(frontier.complete(ns[0]).is_empty());
        assert_eq!(frontier.complete(ns[1]), vec![ns[3]]);
        // n3 readies n5.
        assert_eq!(frontier.complete(ns[2]), vec![ns[4]]);
        // Both newly-ready nodes are also visible via ready().
        assert_eq!(frontier.ready(), &[ns[3], ns[4]]);

        assert!(frontier.complete(ns[3]).is_empty());
        assert_eq!(frontier.complete(ns[4]), vec![ns[5]]);
        assert_eq!(frontier.complete(ns[5]), vec![ns[6]]);
        assert_eq!(frontier.complete(ns[6]), vec![ns[7]]);
        assert_eq!(frontier.outstanding(), 1);
        assert!(frontier.complete(ns[7]).is_empty());
        assert_eq!(frontier.outstanding(), 0);
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn frontier_rejects_double_completion() {
        let mut g = Dag::new();
        let a = g.add_node(());
        let mut frontier = g.frontier();
        frontier.complete(a);
        frontier.complete(a);
    }

    #[test]
    #[should_panic(expected = "unfinished parents")]
    fn frontier_rejects_premature_completion() {
        let mut g = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b).unwrap();
        let mut frontier = g.frontier();
        frontier.complete(b);
    }

    #[test]
    fn frontier_full_drain_visits_every_node_in_topo_order() {
        let (g, _) = figure4();
        let mut frontier = g.frontier();
        let mut seen = Vec::new();
        while let Some(n) = frontier.pop_min() {
            seen.push(n);
            frontier.complete(n);
        }
        assert_eq!(frontier.outstanding(), 0);
        assert_eq!(seen.len(), 8);
        // Min-id-first frontier drain reproduces the canonical topo order.
        assert_eq!(seen, g.topo_order().unwrap());
    }

    #[test]
    fn pop_min_interleaves_with_completions() {
        let (g, ns) = figure4();
        let mut frontier = g.frontier();
        assert_eq!(frontier.pop_min(), Some(ns[0]));
        assert_eq!(frontier.pop_min(), Some(ns[1]));
        // Nothing new ready yet (n4 needs both n1 and n2 *completed*).
        assert_eq!(frontier.pop_min(), Some(ns[2]));
        assert_eq!(frontier.pop_min(), None);
        frontier.complete(ns[0]);
        frontier.complete(ns[1]);
        // n4 became ready through complete() and is visible to pop_min.
        assert_eq!(frontier.pop_min(), Some(ns[3]));
    }

    #[test]
    fn dot_rendering_contains_nodes_and_edges() {
        let (g, _) = figure4();
        let dot = g.to_dot(|_, name| name.to_string());
        assert!(dot.contains("digraph"));
        assert!(dot.contains("n0 -> n3"));
        assert!(dot.contains("label=\"n8\""));
    }
}
