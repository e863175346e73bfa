//! Storage crash-recovery exercise: build a catalog, injure it the way
//! crashes and bit rot do, and report what `Catalog::open` repairs.
//!
//! ```text
//! storage_recovery [--entries N] [--json PATH] [--check]
//! ```
//!
//! Scenarios: a clean reopen, a torn journal tail (crash mid-append), a
//! mid-journal bit flip (rot inside the chain), a lost journal whose
//! artifacts' frame headers name the current format (salvage-by-scan),
//! and stranded temp files. Each
//! scenario records the full [`RecoveryStats`] plus open latency;
//! `--json PATH` also writes them as JSON (CI uploads that as an artifact).
//! `--check` exits non-zero unless every scenario recovers to a clean,
//! consistent catalog on the second open.

use helix_common::hash::Signature;
use helix_data::{Scalar, Value};
use helix_storage::{MaterializationCatalog, RecoveryStats};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use helix_storage::DiskProfile;

static UNIQUE: AtomicU64 = AtomicU64::new(0);

#[derive(Serialize)]
struct ScenarioReport {
    scenario: String,
    entries_before: u64,
    entries_after: u64,
    open_nanos: u64,
    second_open_clean: bool,
    stats: RecoveryStats,
}

#[derive(Serialize)]
struct RecoveryBenchReport {
    entries: u64,
    scenarios: Vec<ScenarioReport>,
}

impl RecoveryBenchReport {
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("storage recovery exercise ({} seeded entries)\n", self.entries));
        for s in &self.scenarios {
            out.push_str(&format!(
                "  {:<18} {:>4} -> {:>4} entries  open {:>9} ns  tail {:>5} B  stop {:<24} swept {:>2}  clean-reopen {}\n",
                s.scenario,
                s.entries_before,
                s.entries_after,
                s.open_nanos,
                s.stats.journal_tail_bytes,
                s.stats.journal_stop.as_deref().unwrap_or("-"),
                s.stats.swept_files,
                s.second_open_clean,
            ));
        }
        out
    }
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "helix-recovery-bench-{}-{}-{}",
        std::process::id(),
        tag,
        UNIQUE.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::create_dir_all(&root).expect("temp dir");
    root
}

/// Seed a catalog with `n` entries (plus a few churn removes) and close
/// it cleanly.
fn seed_catalog(root: &Path, n: u64) -> u64 {
    let cat = MaterializationCatalog::open(root, DiskProfile::unthrottled()).expect("seed open");
    for i in 0..n {
        let sig = Signature::of_str(&format!("bench-entry-{i}"));
        let value = Value::Scalar(Scalar::F64(i as f64 * 0.5 + 0.25));
        cat.store_owned(sig, "bench", &format!("node-{i}"), i, &value).expect("seed store");
    }
    // Churn: deprecate every seventh entry so the journal carries Remove
    // frames too.
    for i in (0..n).step_by(7) {
        let sig = Signature::of_str(&format!("bench-entry-{i}"));
        cat.release(sig, "bench").expect("seed release");
    }
    cat.len() as u64
}

fn injure(root: &Path, scenario: &str) {
    let journal = root.join("catalog.journal");
    match scenario {
        "clean" => {}
        "torn-tail" => {
            let mut bytes = std::fs::read(&journal).expect("journal");
            bytes.extend_from_slice(b"HXF3\x03half-a-frame-then-nothing");
            std::fs::write(&journal, &bytes).expect("tear");
        }
        "mid-journal-flip" => {
            let mut bytes = std::fs::read(&journal).expect("journal");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&journal, &bytes).expect("flip");
        }
        "lost-journal" => {
            std::fs::remove_file(&journal).expect("unlink journal");
        }
        "stranded-temps" => {
            std::fs::write(root.join("deadbeef.hxm.tmp-3"), b"stranded").expect("temp");
            std::fs::write(root.join("catalog.journal.tmp-9"), b"stranded").expect("temp");
        }
        other => panic!("unknown scenario {other}"),
    }
}

fn run_scenario(scenario: &str, entries: u64) -> ScenarioReport {
    let root = temp_root(scenario);
    let entries_before = seed_catalog(&root, entries);
    injure(&root, scenario);

    let start = Instant::now();
    let cat = MaterializationCatalog::open(&root, DiskProfile::unthrottled())
        .expect("recovery open must succeed");
    let open_nanos = start.elapsed().as_nanos() as u64;
    let entries_after = cat.len() as u64;
    let stats = cat.recovery_stats().clone();
    drop(cat);

    let again = MaterializationCatalog::open(&root, DiskProfile::unthrottled())
        .expect("second open must succeed");
    let second = again.recovery_stats();
    let second_open_clean = second.journal_stop.is_none()
        && second.journal_tail_bytes == 0
        && second.sweep_failures.is_empty()
        && again.len() as u64 == entries_after;

    ScenarioReport {
        scenario: scenario.to_string(),
        entries_before,
        entries_after,
        open_nanos,
        second_open_clean,
        stats,
    }
}

fn parse_flag(args: &[String], name: &str) -> Option<u64> {
    args.iter().position(|a| a == name).and_then(|ix| args.get(ix + 1)).and_then(|v| {
        v.parse()
            .map_err(|_| {
                eprintln!("invalid value for {name}: {v}");
                std::process::exit(2);
            })
            .ok()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let entries = parse_flag(&args, "--entries").unwrap_or(64);
    let json_path = args.iter().position(|a| a == "--json").and_then(|ix| args.get(ix + 1));

    let scenarios = ["clean", "torn-tail", "mid-journal-flip", "lost-journal", "stranded-temps"];
    let report = RecoveryBenchReport {
        entries,
        scenarios: scenarios.iter().map(|s| run_scenario(s, entries)).collect(),
    };
    print!("{}", report.render());

    if let Some(json_path) = json_path {
        match serde_json::to_string_pretty(&report) {
            Ok(text) => {
                if let Err(e) = std::fs::write(json_path, text) {
                    eprintln!("warning: cannot write {json_path}: {e}");
                } else {
                    println!("wrote {json_path}");
                }
            }
            Err(e) => eprintln!("warning: cannot serialize report: {e}"),
        }
    }

    if args.iter().any(|a| a == "--check") {
        let mut failed = false;
        for s in &report.scenarios {
            if !s.second_open_clean {
                eprintln!(
                    "CHECK FAILED: scenario {} did not converge to a clean catalog",
                    s.scenario
                );
                failed = true;
            }
            let expect_full = matches!(s.scenario.as_str(), "clean" | "stranded-temps");
            if expect_full && s.entries_after != s.entries_before {
                eprintln!(
                    "CHECK FAILED: scenario {} lost entries without journal damage ({} -> {})",
                    s.scenario, s.entries_before, s.entries_after
                );
                failed = true;
            }
            if s.scenario == "lost-journal" && !s.stats.salvaged_by_scan {
                eprintln!("CHECK FAILED: lost-journal must salvage by artifact scan");
                failed = true;
            }
            if s.scenario == "torn-tail" && s.stats.journal_tail_bytes == 0 {
                eprintln!("CHECK FAILED: torn-tail must report the dropped tail");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("check passed: all scenarios recover to a clean catalog");
    }
}
