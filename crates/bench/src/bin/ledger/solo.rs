//! The four `*_edit` workloads: one simulated developer, closed loop —
//! the next edit is issued when the previous iteration returns.
//!
//! A *pass* is one fresh session on a fresh catalog running the seeded
//! 20-edit script (21 iterations) and a final `sync`. Passes repeat for
//! `--seconds`; the end-to-end numbers are medians over them.

use crate::layers;
use crate::report::Outcome;
use crate::script::{edit_script, EDITS};
use crate::stats::{median, percentile, tail};
use crate::verify::{self, Version};
use crate::RunArgs;
use helix_core::{IterationReport, MatStrategy, Session, SessionConfig};
use helix_storage::DiskProfile;
use helix_workloads::{
    CensusWorkload, ChangeKind, GenomicsWorkload, IeWorkload, MnistWorkload, Workload,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Engine workers of a measured session ("a few cores").
pub const WORKERS: usize = 2;
/// Session set-ups timed per run.
const SETUP_SAMPLES: usize = 101;

/// One solo workload: its versions, in script order.
pub struct SoloWorkload {
    versions: Vec<Version>,
    /// The edit that produced version `i + 1`.
    script: Vec<ChangeKind>,
}

/// The workflow versions `script` walks `spec` through, version 0 first.
pub fn walk<W>(mut spec: W, script: &[ChangeKind]) -> Vec<Version>
where
    W: Workload + Clone + Send + Sync + 'static,
{
    let mut versions: Vec<Version> = vec![Box::new(spec.clone())];
    for kind in script {
        spec.apply_change(*kind);
        versions.push(Box::new(spec.clone()));
    }
    versions
}

fn versions<W>(spec: W) -> SoloWorkload
where
    W: Workload + Clone + Send + Sync + 'static,
{
    let script = edit_script(spec.domain());
    SoloWorkload { versions: walk(spec, &script), script }
}

/// Build a workload by name. Sizes are frozen here (and stated in
/// `BENCHMARK.json`): one measured pass is 1–2 s on two cores, so a run
/// holds several passes, and the never-materialize reference of all 21
/// versions fits in a few seconds.
pub fn workload(name: &str, seed: u64) -> Option<SoloWorkload> {
    Some(match name {
        "census_edit" => {
            let mut spec = CensusWorkload::default();
            (spec.train_rows, spec.test_rows, spec.seed) = (9_000, 3_000, seed);
            versions(spec)
        }
        "genomics_edit" => {
            let mut spec = GenomicsWorkload::default();
            (spec.articles, spec.seed) = (120, seed);
            versions(spec)
        }
        "ie_edit" => {
            let mut spec = IeWorkload::default();
            (spec.articles, spec.seed) = (4_500, seed);
            versions(spec)
        }
        "mnist_edit" => {
            let mut spec = MnistWorkload::default();
            (spec.train, spec.test, spec.seed) = (1_200, 300, seed);
            versions(spec)
        }
        _ => return None,
    })
}

/// The measured configuration: HELIX OPT on the paper's disk.
pub fn measured_config(seed: u64, dir: PathBuf) -> SessionConfig {
    SessionConfig {
        catalog_dir: Some(dir),
        ..SessionConfig::in_memory()
            .with_workers(WORKERS)
            .with_disk(DiskProfile::paper_hdd())
            .with_strategy(MatStrategy::Opt)
            .with_seed(seed)
    }
}

/// Where a traced pass's wall went, by the call the ledger made.
#[derive(Clone, Copy, Default)]
struct Parts {
    build_s: f64,
    prepare_s: f64,
    execute_s: f64,
    sync_s: f64,
}

struct Pass {
    wall_s: f64,
    iter_s: Vec<f64>,
    reports: Vec<IterationReport>,
    /// Set for traced passes only.
    parts: Option<Parts>,
    catalog_dir: PathBuf,
}

fn timed<T>(total: &mut f64, op: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = op();
    *total += started.elapsed().as_secs_f64();
    out
}

/// One pass. Untraced, an iteration is `Session::run`; traced, it is
/// the same two calls `run` makes, each timed and wrapped in a ledger
/// span, with the program's own spans switched on.
fn run_pass(wl: &SoloWorkload, seed: u64, dir: PathBuf, traced: bool) -> Result<Pass, String> {
    let mut session = Session::new(measured_config(seed, dir.clone()))
        .map_err(|e| format!("session set-up: {e}"))?;
    let mut parts = Parts::default();
    let mut iter_s = Vec::with_capacity(wl.versions.len());
    let mut reports = Vec::with_capacity(wl.versions.len());
    let started = Instant::now();
    for (i, version) in wl.versions.iter().enumerate() {
        let iteration = Instant::now();
        let report = if traced {
            let wf = {
                let _span = helix_obs::span(helix_obs::layer::BENCH, "ledger.build");
                timed(&mut parts.build_s, || version.build())
            };
            let prepared = {
                let _span = helix_obs::span(helix_obs::layer::BENCH, "ledger.prepare");
                timed(&mut parts.prepare_s, || session.prepare_iteration(&wf, None))
            };
            let _span = helix_obs::span(helix_obs::layer::BENCH, "ledger.execute");
            prepared.and_then(|p| timed(&mut parts.execute_s, || session.execute_prepared(&wf, p)))
        } else {
            session.run(&version.build())
        };
        iter_s.push(iteration.elapsed().as_secs_f64());
        reports.push(report.map_err(|e| format!("iteration {i}: {e}"))?);
    }
    {
        let _span = helix_obs::span(helix_obs::layer::BENCH, "ledger.sync");
        timed(&mut parts.sync_s, || session.sync()).map_err(|e| format!("sync: {e}"))?;
    }
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Pass { wall_s, iter_s, reports, parts: traced.then_some(parts), catalog_dir: dir })
}

/// Passes for `budget`: at least two, then as many as still fit.
fn passes_for(
    wl: &SoloWorkload,
    args: &RunArgs,
    scratch: &Path,
    label: &str,
    traced: bool,
    budget: Duration,
) -> Result<Vec<Pass>, String> {
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let dir = scratch.join(format!("{label}-{}", passes.len()));
        passes.push(run_pass(wl, args.seed, dir, traced)?);
        let last = passes.last().expect("just pushed").wall_s;
        if passes.len() >= 2 && started.elapsed().as_secs_f64() + last > budget.as_secs_f64() {
            return Ok(passes);
        }
    }
}

/// `setup_s` samples: what a developer pays before the first iteration —
/// constructing the script's 21 workflow versions and `Session::new` on
/// a fresh catalog.
fn setups(name: &str, args: &RunArgs, scratch: &Path) -> Result<Vec<f64>, String> {
    (0..SETUP_SAMPLES)
        .map(|i| {
            let dir = scratch.join(format!("setup-{i}"));
            let started = Instant::now();
            let wl = workload(name, args.seed).expect("name checked by the caller");
            let workflows: Vec<_> = wl.versions.iter().map(|v| v.build()).collect();
            let session = Session::new(measured_config(args.seed, dir.clone()))
                .map_err(|e| format!("session set-up: {e}"))?;
            let elapsed = started.elapsed().as_secs_f64();
            drop((session, workflows));
            let _ = std::fs::remove_dir_all(dir);
            Ok(elapsed)
        })
        .collect()
}

/// Compare every iteration of every pass with the reference; returns
/// the reference's wall (Σ over the versions, first nonce each) and the
/// wall of the whole verification.
fn verify_passes(
    wl: &SoloWorkload,
    passes: &[&Pass],
    args: &RunArgs,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<(f64, f64), String> {
    let started = Instant::now();
    let sessions = passes.iter().map(|pass| pass.reports.iter().map(Some).collect());
    let reference = verify::reference_for(&wl.versions, sessions, args.seed, scratch)?;
    for (p, (pass, keys)) in passes.iter().zip(&reference.keys).enumerate() {
        for (report, key) in pass.reports.iter().zip(keys) {
            if verify::digest(report) != reference.expected[key].digest {
                out.fail(|| {
                    format!("pass {p} iteration {}: outputs differ from the reference", key.0)
                });
            }
        }
    }
    Ok((reference.wall_s(), started.elapsed().as_secs_f64()))
}

fn pooled_iterations(passes: &[Pass]) -> Vec<f64> {
    passes.iter().flat_map(|p| p.iter_s.iter().map(|s| s * 1e3)).collect()
}

/// `--trace 0`: untraced passes for the whole window.
fn end_to_end(
    wl: &SoloWorkload,
    name: &str,
    args: &RunArgs,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Before the passes: behind them the box is still writing their
    // catalogs back, and a 1 ms set-up reads up to twice as long.
    let setups = setups(name, args, scratch)?;
    let passes = passes_for(wl, args, scratch, "pass", false, Duration::from_secs(args.seconds))?;

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let iterations = pooled_iterations(&passes);
    out.attempted = iterations.len() as u64;
    out.set("setup_s", median(&setups));
    out.set("ops_per_s", (EDITS + 1) as f64 / median(&walls));
    out.set("op_p50_ms", median(&iterations));
    out.note("passes", passes.len());
    out.note("cumulative_wall_s", format!("{:?}", walls));

    let refs: Vec<&Pass> = passes.iter().collect();
    verify_passes(wl, &refs, args, scratch, &mut out)?;
    Ok(out)
}

/// Nodes whose planned state differs between two passes of one seed.
fn plan_divergence(a: &Pass, b: &Pass) -> usize {
    a.reports
        .iter()
        .zip(&b.reports)
        .map(|(ra, rb)| {
            ra.states.iter().zip(&rb.states).filter(|(sa, sb)| sa != sb).count()
                + ra.states.len().abs_diff(rb.states.len())
        })
        .sum()
}

/// `--trace 1`: untraced passes for the first half of the window (the
/// report-side numbers and the base of the tracing overhead), traced
/// passes for the second, then the probes.
fn per_layer(wl: &SoloWorkload, args: &RunArgs, scratch: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let half = Duration::from_secs(args.seconds) / 2;
    let untraced = passes_for(wl, args, scratch, "pass", false, half)?;
    helix_obs::set_enabled(true);
    let traced = passes_for(wl, args, scratch, "traced", true, half);
    helix_obs::set_enabled(false);
    let traced = traced?;
    let (spans, dropped) = helix_obs::drain_spans();
    out.set("obs.spans", spans.len() as f64);
    out.set("obs.dropped_spans", dropped as f64);
    out.attempted = ((untraced.len() + traced.len()) * wl.versions.len()) as u64;

    // core: the ledger's own timing of the calls, medians over the
    // traced passes; what the calls do not cover is unattributed.
    let part = |pick: fn(&Parts) -> f64| {
        median(&traced.iter().filter_map(|p| p.parts.as_ref().map(pick)).collect::<Vec<_>>())
    };
    let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let attributed = part(|p| p.build_s + p.prepare_s + p.execute_s + p.sync_s);
    out.set("workloads.build_s", part(|p| p.build_s));
    out.set("core.prepare_s", part(|p| p.prepare_s));
    out.set("core.execute_s", part(|p| p.execute_s));
    out.set("core.sync_s", part(|p| p.sync_s));
    out.set("core.unattributed_s", (traced_wall - attributed).max(0.0));

    let untraced_walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let untraced_wall = median(&untraced_walls);
    out.set("core.cumulative_wall_s", untraced_wall);
    out.set("obs.trace_overhead_x", traced_wall / untraced_wall);
    let spread = percentile(&untraced_walls, 1.0) - percentile(&untraced_walls, 0.0);
    out.set("bench.pass_spread", spread / untraced_wall);
    out.set("bench.passes", untraced.len() as f64);
    out.set("core.plan_divergence_nodes", plan_divergence(&untraced[0], &untraced[1]) as f64);

    // Per change kind (Fig. 6), pooled over the untraced passes;
    // iteration 0 is no edit and belongs to none.
    for (metric, kind) in [
        ("core.iter_dpr_p50_ms", ChangeKind::Dpr),
        ("core.iter_li_p50_ms", ChangeKind::LI),
        ("core.iter_ppr_p50_ms", ChangeKind::Ppr),
    ] {
        let walls: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.iter_s[1..].iter().zip(&wl.script))
            .filter(|(_, k)| **k == kind)
            .map(|(s, _)| s * 1e3)
            .collect();
        out.set(metric, median(&walls));
    }
    let (tail_ms, tail_q) = tail(&pooled_iterations(&untraced));
    out.set("core.iter_tail_ms", tail_ms);
    out.set("bench.tail_quantile", tail_q);

    // engine / exec / storage report side: the median untraced pass.
    let by_wall = {
        let mut order: Vec<&Pass> = untraced.iter().collect();
        order.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        order[order.len() / 2]
    };
    layers::engine_metrics(&mut out, by_wall.reports.iter().map(|r| &r.metrics));
    // What the engine's own report accounts for inside `execute`, on
    // the last traced pass.
    let last_traced = traced.last().expect("at least two traced passes");
    let execute_s = last_traced.parts.map_or(0.0, |p| p.execute_s);
    let mut of_traced = Outcome::default();
    layers::engine_metrics(&mut of_traced, last_traced.reports.iter().map(|r| &r.metrics));
    let accounted: f64 = ["engine.compute_s", "engine.load_wall_s", "engine.materialize_s"]
        .iter()
        .map(|name| of_traced.metrics[name])
        .sum();
    out.set("engine.unattributed_share", ((execute_s - accounted) / execute_s).max(0.0));

    layers::storage_probes(&mut out, &last_traced.catalog_dir)?;

    let refs: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    let (reference_s, verify_s) = verify_passes(wl, &refs, args, scratch, &mut out)?;
    out.set("bench.reference_nm_s", reference_s);
    out.set("bench.reuse_speedup_x", reference_s / untraced_wall);
    out.set("bench.verify_s", verify_s);
    out.set("exec.peak_rss_mb", layers::peak_rss_mb());
    Ok(out)
}

/// Run a solo workload.
pub fn run(name: &str, args: &RunArgs, scratch: &Path) -> Result<Outcome, String> {
    let wl = workload(name, args.seed).ok_or_else(|| format!("no solo workload `{name}`"))?;
    if args.traced {
        per_layer(&wl, args, scratch)
    } else {
        end_to_end(&wl, name, args, scratch)
    }
}
