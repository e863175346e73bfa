//! Stress obligations of the pooled session runner: many open-loop
//! sessions must multiplex over a *fixed* set of service threads —
//! `min(cores, max_concurrent_iterations)` pool workers and nothing
//! else — with every job completing and the core budget intact.
//! This is the structural difference from the old thread-per-job
//! runner, whose thread count scaled with the number of in-flight
//! sessions.
//!
//! The CI smoke runs 512 sessions; the `#[ignore]`d variant is the
//! acceptance run — 10,000 sessions (`cargo test --release --test
//! runner_stress -- --ignored`).
//!
//! Thread counts are sampled from `/proc/self/task`, so the ceiling
//! assertion is Linux-only (elsewhere the sampler reports 0 and the
//! bound is skipped; completion and budget assertions still run).

use helix::core::{SessionConfig, Workflow};
use helix::data::{Scalar, Value};
use helix::serve::{HelixService, JobTicket, ServiceConfig, TenantSpec};
use std::time::Duration;

const CORES: usize = 4;
const TENANTS: usize = 16;

/// Live OS threads of this process (Linux); 0 where unsupported.
fn os_thread_count() -> usize {
    #[cfg(target_os = "linux")]
    {
        std::fs::read_dir("/proc/self/task").map(|dir| dir.count()).unwrap_or(0)
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// The per-session workflow: a tiny three-node arithmetic chain in one
/// of eight variants, so consecutive sessions share full signature
/// prefixes and the steady state is load-dominated — queue and
/// scheduling costs dominate, which is what this suite stresses.
fn stress_workflow(variant: u64) -> Workflow {
    let version = (variant % 8) + 1;
    let mut wf = Workflow::new("stress");
    let a = wf.source("a", 1, |_| Ok(Value::Scalar(Scalar::I64(10))));
    let b = wf.reduce("b", a, version, move |v, _| {
        let x = v.as_scalar()?.as_f64().unwrap_or(0.0);
        Ok(Value::Scalar(Scalar::F64(x * version as f64)))
    });
    let c = wf.reduce("c", b, 1, |v, _| {
        let x = v.as_scalar()?.as_f64().unwrap_or(0.0);
        Ok(Value::Scalar(Scalar::F64(x + 1.0)))
    });
    wf.output(c);
    wf
}

/// One job per session, submitted back-to-back: arrivals far above
/// service capacity, because the open-loop backlog is the point —
/// thousands of admitted-but-waiting sessions, zero extra threads.
fn run_stress(sessions: usize) {
    let baseline_threads = os_thread_count();
    let config = ServiceConfig::new(CORES)
        .with_seed(42)
        // The bounded queue must never push back on the submit loop, so
        // it is sized to the whole job population.
        .with_queue_capacity(sessions)
        .with_max_concurrent_iterations(CORES);
    let quota = config.storage_budget_bytes / TENANTS as u64;
    let service = HelixService::new(config).expect("service starts");
    let pool_size = service.worker_pool_size();
    for t in 0..TENANTS {
        // Generous per-tenant concurrency: admission pressure should come
        // from the core budget, not an artificial tenant cap.
        service
            .register_tenant(
                &format!("tenant-{t}"),
                TenantSpec::default().with_quota(quota).with_max_concurrent(CORES),
            )
            .expect("tenant registers");
    }
    let handles: Vec<_> = (0..sessions)
        .map(|s| {
            // One worker, no pipelining: a session contributes zero
            // threads of its own — concurrency comes from the pool.
            service
                .open_session(
                    &format!("tenant-{}", s % TENANTS),
                    SessionConfig::in_memory().with_workers(1).with_pipeline(false),
                )
                .expect("session opens")
        })
        .collect();

    let mut peak_threads = baseline_threads;
    let mut pending: Vec<JobTicket> = Vec::with_capacity(sessions);
    let mut completed = 0usize;
    for (s, session) in handles.iter().enumerate() {
        pending.push(session.submit(stress_workflow(s as u64)).expect("queue has room"));
        if s % 32 == 0 {
            // Sweep finished tickets without blocking, and sample the
            // thread high-water mark while the backlog is deepest.
            pending.retain(|ticket| match ticket.try_outcome() {
                Some(outcome) => {
                    completed += outcome.result.is_ok() as usize;
                    false
                }
                None => true,
            });
            peak_threads = peak_threads.max(os_thread_count());
        }
    }
    // Drain: everything is submitted; now (and only now) block, with a
    // deadline so a wedged service fails the run instead of hanging it.
    for ticket in pending {
        if let Some(outcome) = ticket.wait_timeout(Duration::from_secs(120)) {
            completed += outcome.result.is_ok() as usize;
        }
        peak_threads = peak_threads.max(os_thread_count());
    }

    assert_eq!(completed, sessions, "{} of {sessions} jobs did not complete", sessions - completed);
    // Quiescence: a worker returns its core token before it fulfils the
    // ticket, so once every ticket resolved no token is still out.
    assert_eq!(service.stats().cores_leased, 0, "a core token outlived its job");
    let peak_cores_leased = service.stats().peak_cores_leased;
    assert!(peak_cores_leased <= CORES, "core budget violated: peak {peak_cores_leased} > {CORES}");
    assert!(pool_size <= CORES, "pool never exceeds the core budget");
    // The tentpole bound: the service adds its pool workers and nothing
    // that scales with session count. One thread of slack absorbs a
    // transient (e.g. a lazy background-writer spin-up caught
    // mid-sample).
    if peak_threads > 0 {
        let service_threads = peak_threads.saturating_sub(baseline_threads);
        assert!(
            service_threads <= pool_size + 1,
            "thread ceiling violated: {sessions} sessions made the service add \
             {service_threads} threads at peak (pool {pool_size} + slack allows {})",
            pool_size + 1,
        );
    }
}

#[test]
fn five_hundred_twelve_open_loop_sessions_share_a_fixed_pool() {
    run_stress(512);
}

#[test]
#[ignore = "acceptance-scale run (10k sessions); use --release -- --ignored"]
fn ten_thousand_sessions_complete_on_a_bounded_thread_count() {
    run_stress(10_000);
}
