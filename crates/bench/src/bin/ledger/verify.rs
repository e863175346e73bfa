//! Output verification: every measured iteration must produce, byte for
//! byte, what a strict-serial reference produces for the same workflow
//! version — `MatStrategy::Never`, one worker, no pipelining, an
//! unthrottled private catalog, so nothing of the measured run's reuse,
//! parallelism or storage is shared with it.
//!
//! Under `Never` nothing carries over between iterations except the
//! session's count of volatile-operator executions (MNIST's random
//! Fourier projection is re-drawn, from a fresh nonce, each time it
//! really executes). A measured session that *reused* the projection
//! must be compared with a reference that drew the same nonce, so each
//! reference iteration runs in a fresh session that first executes a
//! tiny volatile workflow as many times as the measured session had
//! re-drawn before. That also makes the reference iterations
//! independent, and they are spread over two threads.

use helix_core::{IterationReport, MatStrategy, Session, SessionConfig, Workflow};
use helix_exec::metrics::RunState;
use helix_storage::encode_value;
use helix_workloads::{MnistWorkload, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A boxed workload version that reference threads can share.
pub type Version = Box<dyn Workload + Send + Sync>;

/// FNV-1a over `(name, encode_value bytes)` of every output, by name.
pub fn digest(report: &IterationReport) -> u64 {
    let mut names: Vec<&String> = report.outputs.keys().collect();
    names.sort();
    let mut hash = FNV_OFFSET;
    for name in names {
        hash = fnv1a(hash, name.as_bytes());
        hash = fnv1a(hash, &[0]);
        hash = fnv1a(hash, &encode_value(&report.outputs[name]));
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Names of the workflow's volatile operators.
fn volatile_nodes(wf: &Workflow) -> BTreeSet<String> {
    wf.dag().iter().filter(|(_, spec)| spec.volatile).map(|(_, spec)| spec.name.clone()).collect()
}

/// How many volatile operators really executed in this iteration.
fn volatile_runs(report: &IterationReport, volatile: &BTreeSet<String>) -> usize {
    report
        .metrics
        .node_runs
        .iter()
        .filter(|run| run.state == RunState::Computed && volatile.contains(&run.name))
        .count()
}

/// What a measured iteration is compared with: the version it ran and
/// the nonce its volatile operator last drew (0 = the first draw, also
/// for workflows with no volatile operator).
pub type Key = (usize, usize);

/// The reference keys of one measured session, from the volatile
/// executions of each of its iterations in order.
fn keys(volatile_runs: &[usize]) -> Vec<Key> {
    let mut drawn = 0;
    volatile_runs
        .iter()
        .enumerate()
        .map(|(version, runs)| {
            drawn += runs;
            (version, drawn.saturating_sub(1))
        })
        .collect()
}

/// The keys of several measured sessions of one workload — each given as
/// its iterations' reports in version order, `None` for one that failed
/// — and the reference run for all of them.
pub fn reference_for<'a>(
    versions: &[Version],
    sessions: impl Iterator<Item = Vec<Option<&'a IterationReport>>>,
    seed: u64,
    scratch: &Path,
) -> Result<Reference, String> {
    let volatile = volatile_nodes(&versions[0].build());
    if volatile.len() > 1 {
        return Err(format!("{} volatile operators; the reference handles one", volatile.len()));
    }
    let keys: Vec<Vec<Key>> = sessions
        .map(|reports| {
            let runs: Vec<usize> =
                reports.iter().map(|r| r.map_or(0, |r| volatile_runs(r, &volatile))).collect();
            keys(&runs)
        })
        .collect();
    let wanted: BTreeSet<Key> = keys.iter().flatten().copied().collect();
    Ok(Reference { keys, expected: reference(versions, &wanted, seed, scratch)? })
}

/// What [`reference_for`] found out.
pub struct Reference {
    /// Per measured session, the key of each of its iterations.
    pub keys: Vec<Vec<Key>>,
    /// The reference iteration of every key.
    pub expected: BTreeMap<Key, Expected>,
}

impl Reference {
    /// The reference's own wall: Σ over the versions, each at the lowest
    /// nonce it was run with (`bench.reference_nm_s`).
    pub fn wall_s(&self) -> f64 {
        let mut seen = BTreeSet::new();
        let first_draws = self.expected.iter().filter(|((version, _), _)| seen.insert(*version));
        first_draws.map(|(_, e)| e.wall_s).sum()
    }
}

/// One reference iteration.
pub struct Expected {
    pub digest: u64,
    pub wall_s: f64,
}

/// The strict-serial configuration.
fn reference_config(seed: u64, dir: &Path) -> SessionConfig {
    SessionConfig {
        catalog_dir: Some(dir.to_path_buf()),
        ..SessionConfig::in_memory()
            .with_strategy(MatStrategy::Never)
            .with_pipeline(false)
            .with_workers(1)
            .with_seed(seed)
    }
}

/// A workflow whose only job is to make a session draw one volatile
/// nonce: the smallest MNIST there is.
fn nonce_burner() -> Workflow {
    let mut tiny = MnistWorkload::default();
    (tiny.train, tiny.test, tiny.side, tiny.rff_dim, tiny.epochs) = (8, 4, 4, 4, 1);
    tiny.build()
}

fn reference_iteration(
    version: &dyn Workload,
    nonce: usize,
    seed: u64,
    dir: &Path,
) -> Result<Expected, String> {
    let started = Instant::now();
    let mut session =
        Session::new(reference_config(seed, dir)).map_err(|e| format!("reference: {e}"))?;
    let burner = (nonce > 0).then(nonce_burner);
    for _ in 0..nonce {
        session.run(burner.as_ref().expect("built above")).map_err(|e| format!("burner: {e}"))?;
    }
    let report = session.run(&version.build()).map_err(|e| format!("reference: {e}"))?;
    let expected = Expected { digest: digest(&report), wall_s: started.elapsed().as_secs_f64() };
    drop(session);
    let _ = std::fs::remove_dir_all(dir);
    Ok(expected)
}

/// Run the reference for every key, on two threads.
fn reference(
    versions: &[Version],
    wanted: &BTreeSet<Key>,
    seed: u64,
    scratch: &Path,
) -> Result<BTreeMap<Key, Expected>, String> {
    let wanted: Vec<Key> = wanted.iter().copied().collect();
    let next = AtomicUsize::new(0);
    let done: Mutex<BTreeMap<Key, Expected>> = Mutex::new(BTreeMap::new());
    let failure: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let slot = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(version, nonce)) = wanted.get(slot) else { return };
                let dir = scratch.join(format!("reference-{version}-{nonce}"));
                match reference_iteration(versions[version].as_ref(), nonce, seed, &dir) {
                    Ok(expected) => {
                        done.lock().expect("no panics hold it").insert((version, nonce), expected);
                    }
                    Err(e) => {
                        failure.lock().expect("no panics hold it").get_or_insert(e);
                        return;
                    }
                }
            });
        }
    });
    match failure.into_inner().expect("threads joined") {
        Some(e) => Err(e),
        None => Ok(done.into_inner().expect("threads joined")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::tiny_workflow;

    #[test]
    fn digest_is_stable_and_tells_outputs_apart() {
        let run = |variant| {
            let mut session = Session::new(SessionConfig::in_memory()).unwrap();
            let report = session.run(&tiny_workflow(variant)).unwrap();
            let root = session.catalog().root().to_path_buf();
            drop(session);
            let _ = std::fs::remove_dir_all(root);
            digest(&report)
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
        // The hash itself is pinned: a report saved today compares with
        // one saved after any refactor of this file.
        assert_eq!(fnv1a(FNV_OFFSET, b"ledger"), 0x4a0d_3b92_8a98_bd6c);
    }

    /// The assumption the reference rests on: outputs depend on the
    /// workflow version and on how often the volatile operator had run
    /// before, and on nothing else the measured session did.
    #[test]
    fn reference_reproduces_reused_and_redrawn_volatile_outputs() {
        use helix_workloads::ChangeKind;
        let mut spec = MnistWorkload::small();
        let mut versions: Vec<Version> = vec![Box::new(spec.clone())];
        // Reuse (PPR), re-draw (DPR), reuse, re-draw.
        for kind in [ChangeKind::Ppr, ChangeKind::Dpr, ChangeKind::LI, ChangeKind::Dpr] {
            spec.apply_change(kind);
            versions.push(Box::new(spec.clone()));
        }
        let scratch = std::env::temp_dir().join(format!("ledger-verify-{}", std::process::id()));
        let mut session = Session::new(SessionConfig {
            catalog_dir: Some(scratch.join("measured")),
            ..SessionConfig::in_memory().with_seed(9)
        })
        .unwrap();
        let volatile = volatile_nodes(&versions[0].build());
        assert_eq!(volatile.len(), 1);
        let reports: Vec<IterationReport> =
            versions.iter().map(|v| session.run(&v.build()).unwrap()).collect();
        let runs: Vec<usize> = reports.iter().map(|r| volatile_runs(r, &volatile)).collect();
        assert_eq!(runs, [1, 0, 1, 0, 1], "PPR and L/I edits reuse the projection");
        let measured = std::iter::once(reports.iter().map(Some).collect());
        let found = reference_for(&versions, measured, 9, &scratch).unwrap();
        assert_eq!(found.keys, [[(0, 0), (1, 0), (2, 1), (3, 1), (4, 2)]]);
        for (report, key) in reports.iter().zip(&found.keys[0]) {
            let expected = &found.expected[key];
            assert_eq!(digest(report), expected.digest, "version {} nonce {}", key.0, key.1);
        }
        // A reference that drew a different nonce does not match.
        let off: BTreeSet<Key> = [(1, 1)].into();
        let other = reference(&versions, &off, 9, &scratch).unwrap();
        assert_ne!(digest(&reports[1]), other[&(1, 1)].digest);
        assert_eq!(found.wall_s(), found.expected.values().map(|e| e.wall_s).sum::<f64>());
        drop(session);
        let _ = std::fs::remove_dir_all(scratch);
    }

    #[test]
    fn keys_follow_the_nonce_of_the_last_draw() {
        // Draws at iterations 0, 3 and 4; reuse in between.
        assert_eq!(keys(&[1, 0, 0, 1, 1, 0]), [(0, 0), (1, 0), (2, 0), (3, 1), (4, 2), (5, 2)]);
        // No volatile operator at all.
        assert_eq!(keys(&[0, 0]), [(0, 0), (1, 0)]);
    }
}
