//! The observability inertness contract: tracing is *provably inert*.
//!
//! `helix-obs` spans and metrics are written by the engine, pipeline,
//! serve, and storage layers but never read back by anything that plans
//! or executes work, so enabling tracing must not change a single output
//! byte. This suite enforces that directly:
//!
//! * **Byte identity**: the same multi-tenant service workload runs with
//!   tracing off and tracing on, at 1/2/4/8 workers/cores, and every
//!   tenant's encoded outputs must match byte-for-byte.
//! * **Trace validity**: a traced pipelined session must export
//!   well-formed Chrome `trace_event` JSON (the subset Perfetto loads)
//!   with the engine and pipeline layers on one timeline.
//!
//! The span ring and the enabled flag are process-global, so the tests
//! serialize on one mutex instead of trusting the harness's thread
//! scheduling.

use helix::core::{Session, SessionConfig};
use helix::serve::{HelixService, ServiceConfig, TenantSpec};
use helix::storage::encode_value;
use helix::workloads::{CensusWorkload, GenomicsWorkload, Workload};
use helix_obs::{chrome_trace_json, drain_spans, set_enabled, write_trace};
use serde::{parse_json, write_json_compact, Json};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Serializes tests that toggle the process-global tracing state.
static TRACE_GATE: Mutex<()> = Mutex::new(());

const SEED: u64 = 42;

/// Output name → encoded bytes: everything a user sees from an iteration.
type Outputs = BTreeMap<String, Vec<u8>>;

fn workload_for(ix: usize) -> Box<dyn Workload> {
    if ix.is_multiple_of(2) {
        Box::new(CensusWorkload::small())
    } else {
        Box::new(GenomicsWorkload::small())
    }
}

/// Initial build, one scripted change, one identical rerun — compute,
/// invalidation, and reuse paths in three iterations.
fn iteration_workflows(mut workload: Box<dyn Workload>) -> Vec<helix::core::Workflow> {
    let change = workload.scripted_sequence()[0];
    let mut wfs = vec![workload.build()];
    workload.apply_change(change);
    wfs.push(workload.build());
    wfs.push(workload.build());
    wfs
}

fn outputs_of(report: &helix::core::IterationReport) -> Outputs {
    report.outputs.iter().map(|(name, value)| (name.clone(), encode_value(value))).collect()
}

/// Run two tenants concurrently on a shared service and return each
/// tenant's full output trace, encoded. The only variable across calls
/// is `workers` (= cores) — everything the fingerprint depends on is
/// fixed.
fn service_fingerprint(workers: usize) -> Vec<Vec<Outputs>> {
    let tenants = 2;
    let service = HelixService::new(
        ServiceConfig::new(workers).with_seed(SEED).with_max_concurrent_iterations(tenants),
    )
    .expect("service starts");
    for ix in 0..tenants {
        service.register_tenant(&format!("t{ix}"), TenantSpec::default()).expect("tenant");
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..tenants)
            .map(|ix| {
                let service = &service;
                scope.spawn(move || {
                    let session = service
                        .open_session(
                            &format!("t{ix}"),
                            SessionConfig::in_memory().with_workers(workers),
                        )
                        .expect("session opens");
                    let tickets: Vec<_> = iteration_workflows(workload_for(ix))
                        .into_iter()
                        .map(|wf| session.submit(wf).expect("submission accepted"))
                        .collect();
                    tickets
                        .into_iter()
                        .map(|t| outputs_of(&t.wait_outcome().result.expect("iteration runs")))
                        .collect::<Vec<Outputs>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread")).collect()
    })
}

/// A solo pipelined-session fingerprint — covers the engine + pipeline
/// lanes without the service in the loop.
fn pipelined_fingerprint(workers: usize) -> Vec<Outputs> {
    let mut session =
        Session::new(SessionConfig::in_memory().with_workers(workers).with_seed(SEED))
            .expect("session opens");
    iteration_workflows(workload_for(0))
        .iter()
        .map(|wf| outputs_of(&session.run(wf).expect("pipelined run")))
        .collect()
}

#[test]
fn tracing_is_inert_across_worker_counts() {
    let _gate = TRACE_GATE.lock().unwrap();
    for workers in [1usize, 2, 4, 8] {
        set_enabled(false);
        let baseline = service_fingerprint(workers);
        let solo_baseline = pipelined_fingerprint(workers);

        set_enabled(true);
        drain_spans(); // start the traced run from an empty ring
        let traced = service_fingerprint(workers);
        let solo_traced = pipelined_fingerprint(workers);
        let (events, _) = drain_spans();
        set_enabled(false);

        assert_eq!(baseline, traced, "outputs changed under tracing at {workers} workers");
        assert_eq!(
            solo_baseline, solo_traced,
            "pipelined outputs changed under tracing at {workers} workers"
        );
        // Guard against vacuity: the traced run must actually have
        // recorded spans from the instrumented layers.
        assert!(!events.is_empty(), "traced run recorded no spans");
        for cat in ["engine", "serve", "storage"] {
            assert!(events.iter().any(|e| e.cat == cat), "no {cat} spans in the traced run");
        }
    }
}

fn num(j: &Json) -> f64 {
    match j {
        Json::Int(i) => *i as f64,
        Json::Float(f) => *f,
        other => panic!("expected number, got {other:?}"),
    }
}

fn text(j: &Json) -> &str {
    match j {
        Json::String(s) => s.as_str(),
        other => panic!("expected string, got {other:?}"),
    }
}

/// Validate the Perfetto-loadable subset: every entry is an `"X"`
/// complete event with numeric non-negative `ts`/`dur` or an `"M"`
/// metadata event, all on pid 1. Returns (tid → track name, X events).
fn validate_trace(doc: &Json) -> (BTreeMap<i128, String>, Vec<&Json>) {
    let events = match doc.get("traceEvents") {
        Some(Json::Array(a)) => a,
        other => panic!("traceEvents missing or not an array: {other:?}"),
    };
    assert!(doc.get("displayTimeUnit").is_some());
    let mut names = BTreeMap::new();
    let mut complete = Vec::new();
    for entry in events {
        assert_eq!(entry.get("pid"), Some(&Json::Int(1)));
        let tid = match entry.get("tid") {
            Some(Json::Int(t)) => *t,
            other => panic!("tid missing: {other:?}"),
        };
        match text(entry.get("ph").expect("ph present")) {
            "M" => {
                if text(entry.get("name").expect("name")) == "thread_name" {
                    let track = text(entry.get("args").and_then(|a| a.get("name")).expect("name"));
                    names.insert(tid, track.to_string());
                }
            }
            "X" => {
                assert!(num(entry.get("ts").expect("ts")) >= 0.0);
                assert!(num(entry.get("dur").expect("dur")) >= 0.0);
                assert!(!text(entry.get("name").expect("name")).is_empty());
                assert!(!text(entry.get("cat").expect("cat")).is_empty());
                complete.push(entry);
            }
            other => panic!("unexpected ph {other:?}"),
        }
    }
    (names, complete)
}

#[test]
fn traced_pipelined_session_exports_valid_trace_json() {
    let _gate = TRACE_GATE.lock().unwrap();
    set_enabled(true);
    drain_spans();
    pipelined_fingerprint(2);
    let (events, dropped) = drain_spans();
    set_enabled(false);

    // The file the HELIX_TRACE env path would receive must re-parse as
    // well-formed JSON.
    let dir = std::env::temp_dir().join(format!("helix-obs-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.json");
    write_trace(&path, &events, dropped).expect("trace written");
    let parsed = parse_json(&std::fs::read_to_string(&path).expect("readable")).expect("parses");
    assert_eq!(
        parsed,
        parse_json(&write_json_compact(&chrome_trace_json(&events, dropped)))
            .expect("in-memory doc parses")
    );
    std::fs::remove_dir_all(&dir).ok();

    let (_track_names, complete) = validate_trace(&parsed);

    // The engine and pipeline layers both ran; their spans must be on
    // the same timeline.
    for cat in ["engine", "pipeline"] {
        assert!(
            complete.iter().any(|e| text(e.get("cat").unwrap()) == cat),
            "no {cat} spans in the pipelined-session trace"
        );
    }
}
