//! Artifact bytes, pinned end to end.
//!
//! Each workload's `small()` spec runs a short edit script (iteration 0
//! plus the first four changes of its frozen schedule) under
//! `MatStrategy::Always` on an unthrottled disk with two workers, so every
//! node a plan computes is written to the catalog. After each iteration the
//! test records every `.hxm` file in the catalog directory; at the end it
//! folds the names and bytes of all of them, in name order, into one
//! FNV-1a digest per workload and compares that with the checked-in
//! `tests/golden/artifact_digests.txt`.
//!
//! A change that claims byte identity — a faster operator kernel, a
//! parallel trainer — must leave this file and its digests untouched. A
//! change that alters artifact bytes on purpose says so and regenerates
//! the digests with `UPDATE_GOLDEN=1 cargo test --test artifact_digests`.

use helix_core::{MatStrategy, Session, SessionConfig};
use helix_storage::DiskProfile;
use helix_workloads::{CensusWorkload, GenomicsWorkload, IeWorkload, MnistWorkload, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Changes applied after iteration 0.
const SCRIPT_CHANGES: usize = 4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/artifact_digests.txt")
}

fn temp_catalog_dir(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "helix-artifact-digests-{}-{tag}-{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Record the bytes of every `.hxm` file under `root`, by file name.
fn collect_artifacts(root: &Path, seen: &mut BTreeMap<String, Vec<u8>>) {
    for dirent in std::fs::read_dir(root).expect("catalog directory lists").flatten() {
        let name = dirent.file_name().to_string_lossy().into_owned();
        if name.ends_with(".hxm") {
            let bytes = std::fs::read(dirent.path()).expect("artifact reads");
            if let Some(previous) = seen.insert(name.clone(), bytes) {
                assert_eq!(
                    &previous, &seen[&name],
                    "artifact {name} was rewritten with different bytes"
                );
            }
        }
    }
}

/// `<artifact count> <digest>` over every artifact the script wrote.
fn script_digest<W: Workload>(mut workload: W) -> String {
    let dir = temp_catalog_dir(workload.name());
    let mut config = SessionConfig::in_memory()
        .with_workers(2)
        .with_strategy(MatStrategy::Always)
        .with_disk(DiskProfile::unthrottled());
    config.catalog_dir = Some(dir.clone());
    let mut session = Session::new(config).expect("session opens");
    let script = workload.scripted_sequence();
    let mut artifacts = BTreeMap::new();
    for step in 0..=SCRIPT_CHANGES {
        if step > 0 {
            workload.apply_change(script[step - 1]);
        }
        session.run(&workload.build()).expect("iteration runs");
        session.sync().expect("background writes drain");
        collect_artifacts(&dir, &mut artifacts);
    }
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
    let mut hash = FNV_OFFSET;
    for (name, bytes) in &artifacts {
        hash = fnv1a(hash, name.as_bytes());
        hash = fnv1a(hash, &[0]);
        hash = fnv1a(hash, bytes);
    }
    format!("{} {hash:016x}", artifacts.len())
}

#[test]
fn always_materialized_artifacts_match_the_pinned_digests() {
    let rendered: String = [
        ("census", script_digest(CensusWorkload::small())),
        ("genomics", script_digest(GenomicsWorkload::small())),
        ("ie", script_digest(IeWorkload::small())),
        ("mnist", script_digest(MnistWorkload::small())),
    ]
    .iter()
    .map(|(workload, digest)| format!("{workload} {digest}\n"))
    .collect();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").ok().as_deref() == Some("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing {}; create it with UPDATE_GOLDEN=1", path.display()));
    assert_eq!(
        rendered, expected,
        "artifact bytes drifted from the pinned digests. If the change is intentional, \
         regenerate with: UPDATE_GOLDEN=1 cargo test --test artifact_digests"
    );
}
