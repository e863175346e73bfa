//! Per-layer numbers taken from outside: sums over the public
//! per-iteration reports (`engine`, `exec`), and timed calls into public
//! functions on a finished pass's real artifacts (`storage`, `flow`).

use crate::report::Outcome;
use crate::stats::median;
use helix_common::{Signature, SplitMix64};
use helix_exec::metrics::{IterationMetrics, Phase, RunState};
use helix_flow::oep::{NodeCosts, OepProblem};
use helix_flow::{Dag, NodeId};
use helix_storage::{decode_value, encode_value, journal, DiskProfile, MaterializationCatalog};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const MB: f64 = 1e6;

fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// `engine.*`, `exec.peak_cache_mb` and the report-side `storage.*`
/// numbers, summed over the iterations of one pass (or one service run).
pub fn engine_metrics<'a>(
    out: &mut Outcome,
    iterations: impl Iterator<Item = &'a IterationMetrics>,
) {
    let mut compute = [0u64; 3];
    let (mut load_wall, mut load_cpu, mut materialize) = (0u64, 0u64, 0u64);
    let (mut written, mut encoded, mut in_memory) = (0u64, 0u64, 0u64);
    let (mut computed, mut loaded, mut pruned) = (0usize, 0usize, 0usize);
    let (mut peak_cache, mut storage_end) = (0u64, 0u64);
    for m in iterations {
        for run in m.node_runs.iter().filter(|run| run.state == RunState::Computed) {
            let slot = match run.phase {
                Phase::Dpr => 0,
                Phase::LearnInference => 1,
                Phase::Ppr => 2,
            };
            compute[slot] += run.run_nanos;
        }
        for run in m.node_runs.iter().filter(|run| run.materialized_bytes > 0) {
            encoded += run.materialized_bytes;
            in_memory += run.output_bytes;
        }
        load_wall += m.load_nanos;
        load_cpu += m.load_cpu_nanos;
        materialize += m.materialize_nanos;
        written += m.materialized_bytes;
        computed += m.computed;
        loaded += m.loaded;
        pruned += m.pruned;
        peak_cache = peak_cache.max(m.peak_memory_bytes);
        storage_end = m.storage_bytes;
    }
    let nodes = (computed + loaded + pruned).max(1) as f64;
    out.set("engine.compute_dpr_s", secs(compute[0]));
    out.set("engine.compute_li_s", secs(compute[1]));
    out.set("engine.compute_ppr_s", secs(compute[2]));
    out.set("engine.compute_s", secs(compute.iter().sum()));
    out.set("engine.load_wall_s", secs(load_wall));
    out.set("engine.load_cpu_s", secs(load_cpu));
    out.set("engine.load_overlap_x", load_cpu as f64 / load_wall.max(1) as f64);
    out.set("engine.materialize_s", secs(materialize));
    out.set("engine.materialized_mb", written as f64 / MB);
    out.set("engine.nodes_computed", computed as f64);
    out.set("engine.nodes_loaded", loaded as f64);
    out.set("engine.nodes_pruned", pruned as f64);
    // Useful outcomes: a node answered without recomputing it.
    out.set("engine.reuse_share", (loaded + pruned) as f64 / nodes);
    out.set("exec.peak_cache_mb", peak_cache as f64 / MB);
    out.set("storage.catalog_mb_end", storage_end as f64 / MB);
    out.set("storage.encoded_per_mem_byte", encoded as f64 / in_memory.max(1) as f64);
}

/// `exec.peak_rss_mb`: the process's resident high-water mark (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / MB)
}

/// Live OS threads of this process.
pub fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

/// `storage.*` probes: reopen a finished pass's catalog directory with
/// no throttle and time the public calls on what the pass left there.
pub fn storage_probes(out: &mut Outcome, catalog_dir: &Path) -> Result<(), String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("storage probe ({what}): {e}");

    let open = || {
        MaterializationCatalog::open(catalog_dir, DiskProfile::unthrottled())
            .map_err(|e| fail("open", &e))
    };
    let mut reopen = Vec::with_capacity(5);
    for _ in 0..5 {
        let started = Instant::now();
        drop(open()?);
        reopen.push(started.elapsed().as_secs_f64() * 1e3);
    }
    out.set("storage.reopen_ms", median(&reopen));

    let catalog = open()?;
    let entries = catalog.entries();
    out.set("storage.artifacts_end", entries.len() as f64);

    // Read + CRC + decode of every artifact; the first sweep also warms
    // the page cache, so the second one is the number.
    let mut values = Vec::with_capacity(entries.len());
    let mut load_s = 0.0;
    for sweep in 0..2 {
        values.clear();
        let started = Instant::now();
        for entry in &entries {
            let sig = Signature::from_hex(&entry.signature)
                .ok_or_else(|| fail("load", &"entry signature is not hex"))?;
            values.push(catalog.load(sig).map_err(|e| fail("load", &e))?.0);
        }
        if sweep == 1 {
            load_s = started.elapsed().as_secs_f64();
        }
    }
    let stored_bytes: u64 = entries.iter().map(|e| e.bytes).sum();
    out.set("storage.load_mb_s", rate(stored_bytes, load_s));

    let started = Instant::now();
    let encoded: Vec<Vec<u8>> = values.iter().map(encode_value).collect();
    let encode_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    for bytes in &encoded {
        black_box(decode_value(bytes).map_err(|e| fail("decode", &e))?);
    }
    let decode_s = started.elapsed().as_secs_f64();
    let encoded_bytes: u64 = encoded.iter().map(|b| b.len() as u64).sum();
    out.set("storage.codec.encode_mb_s", rate(encoded_bytes, encode_s));
    out.set("storage.codec.decode_mb_s", rate(encoded_bytes, decode_s));

    let journal_path = catalog_dir.join("catalog.journal");
    let started = Instant::now();
    let scan = journal::scan_file(&journal_path)
        .map_err(|e| fail("journal", &e))?
        .ok_or_else(|| fail("journal", &"no catalog.journal in the pass directory"))?;
    let scan_s = started.elapsed().as_secs_f64();
    out.set("storage.journal_scan_mb_s", rate(scan.valid_bytes, scan_s));
    out.set("storage.journal_frames", scan.frames as f64);
    out.set("storage.journal_kb", scan.valid_bytes as f64 / 1e3);
    Ok(())
}

fn rate(bytes: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        bytes as f64 / MB / seconds
    } else {
        0.0
    }
}

/// The 400-node layered random DAG of the `optimizer` criterion bench
/// (sources → features → learner → reducers), same generator and seed.
fn layered_dag(n: usize, seed: u64) -> (Dag<()>, Vec<NodeCosts>) {
    let mut rng = SplitMix64::new(seed);
    let mut dag: Dag<()> = Dag::new();
    let ids: Vec<NodeId> = (0..n).map(|_| dag.add_node(())).collect();
    for i in 1..n {
        let parents = 1 + rng.index(3.min(i));
        for _ in 0..parents {
            let lookback = 1 + rng.index(8.min(i));
            dag.add_edge(ids[i - lookback], ids[i]).expect("an earlier node, so no loop");
        }
    }
    let costs = (0..n)
        .map(|i| {
            let compute = 1_000_000 + rng.next_below(50_000_000);
            let load = rng.chance(0.6).then(|| 100_000 + rng.next_below(5_000_000));
            let costs = NodeCosts::new(compute, load);
            if i == n - 1 {
                costs.required()
            } else if rng.chance(0.1) {
                costs.forced()
            } else {
                costs
            }
        })
        .collect();
    (dag, costs)
}

/// `flow.oep400_solve_us`: median wall of one OPT-EXEC-PLAN solve.
pub fn flow_probe(out: &mut Outcome) {
    let (dag, costs) = layered_dag(400, 7);
    let solves: Vec<f64> = (0..21)
        .map(|_| {
            let started = Instant::now();
            black_box(OepProblem::new(&dag, &costs).solve().total_cost);
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.set("flow.oep400_solve_us", median(&solves));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_probe_solves_the_layered_dag() {
        let (dag, costs) = layered_dag(400, 7);
        assert_eq!((dag.len(), costs.len()), (400, 400));
        assert!(dag.edge_count() >= 399, "every node but the first has a parent");
        let mut out = Outcome::default();
        flow_probe(&mut out);
        assert!(out.metrics["flow.oep400_solve_us"] > 0.0);
    }

    #[test]
    fn engine_metrics_split_compute_by_phase_and_count_reuse() {
        use helix_exec::metrics::NodeRun;
        let run = |phase, state, nanos, stored| NodeRun {
            node: 0,
            name: "n".into(),
            phase,
            state,
            run_nanos: nanos,
            materialize_nanos: 0,
            materialized_bytes: stored,
            output_bytes: stored * 2,
        };
        let mut m = IterationMetrics::new(0);
        m.record(run(Phase::Dpr, RunState::Computed, 2_000_000_000, 500));
        m.record(run(Phase::LearnInference, RunState::Loaded, 1_000_000_000, 0));
        m.record(run(Phase::Ppr, RunState::Pruned, 0, 0));
        m.record(run(Phase::Ppr, RunState::Computed, 500_000_000, 0));
        let mut out = Outcome::default();
        engine_metrics(&mut out, [&m].into_iter());
        assert_eq!(out.metrics["engine.compute_dpr_s"], 2.0);
        assert_eq!(out.metrics["engine.compute_li_s"], 0.0, "a load is not compute");
        assert_eq!(out.metrics["engine.compute_s"], 2.5);
        assert_eq!(out.metrics["engine.reuse_share"], 0.5);
        assert_eq!(out.metrics["storage.encoded_per_mem_byte"], 0.5);
    }
}
