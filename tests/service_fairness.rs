//! The no-starvation bound, end to end through the service: under
//! fair-share scheduling a backlogged light tenant's eligible work is
//! never passed over for more than `tenants + cores` consecutive picks,
//! however deep a co-tenant's backlog and however high its priority.
//! `fairshare_props` proves the deficit bound on the admission queue
//! alone; this drives real sessions through `HelixService` and reads the
//! scheduler's own audit (`stats().fairness`).
//!
//! The adversary: one heavy tenant with `cores + 1` sessions at maximum
//! priority whose whole backlog is submitted up front, against three
//! single-session light tenants. The same load replayed under strict
//! priority must *exceed* the bound — that contrast is what the policy
//! buys, and it keeps the fair-share assertion from passing vacuously.

use helix::core::{SessionConfig, Workflow};
use helix::data::{Scalar, Value};
use helix::serve::{HelixService, JobTicket, SchedulingPolicy, ServiceConfig, TenantSpec};
use std::time::Duration;

const LIGHT_TENANTS: usize = 3;
const HEAVY_JOBS_PER_SESSION: usize = 8;
const LIGHT_JOBS_PER_TENANT: usize = 4;

/// A one-node job that holds its core for 2 ms. Every job gets its own
/// operator version, hence its own signature: nothing is ever loaded
/// from the shared catalog, so each job really occupies a core and the
/// whole population is queued long before the backlog drains.
fn job(version: u64) -> Workflow {
    let mut wf = Workflow::new("fairness");
    let a = wf.source("a", version, move |_| {
        std::thread::sleep(Duration::from_millis(2));
        Ok(Value::Scalar(Scalar::I64(version as i64)))
    });
    wf.output(a);
    wf
}

/// Run the adversarial load under `policy` and return the worst
/// eligible-wait streak any light tenant saw.
fn light_tenants_worst_wait(policy: SchedulingPolicy, cores: usize) -> u64 {
    let heavy_sessions = cores + 1;
    // One running iteration per core: every scheduler pick hands out a
    // core, so the pick order *is* the service order the audit measures.
    let service = HelixService::new(
        ServiceConfig::new(cores)
            .with_seed(42)
            .with_max_concurrent_iterations(cores)
            .with_scheduling(policy),
    )
    .expect("service starts");
    // A priority that dominates under the strict policy, and enough
    // concurrency headroom to occupy every core with its own sessions.
    service
        .register_tenant(
            "heavy",
            TenantSpec::default().with_priority(3).with_max_concurrent(heavy_sessions),
        )
        .expect("heavy registers");
    let light_names: Vec<String> = (0..LIGHT_TENANTS).map(|ix| format!("light-{ix}")).collect();
    for name in &light_names {
        service.register_tenant(name, TenantSpec::default()).expect("light registers");
    }
    let open = |tenant: &str| {
        service
            .open_session(tenant, SessionConfig::in_memory().with_workers(1).with_pipeline(false))
            .expect("session opens")
    };
    let heavy: Vec<_> = (0..heavy_sessions).map(|_| open("heavy")).collect();
    let light: Vec<_> = light_names.iter().map(|name| open(name)).collect();

    // Heavy's whole backlog first, then the light tenants' jobs. Submits
    // never block here, so all of it is queued within microseconds.
    let mut versions = 1u64..;
    let mut tickets: Vec<JobTicket> = Vec::new();
    for (sessions, jobs) in [(&heavy, HEAVY_JOBS_PER_SESSION), (&light, LIGHT_JOBS_PER_TENANT)] {
        for session in sessions {
            let backlog = versions.by_ref().take(jobs).map(job);
            tickets.extend(session.submit_all(backlog).expect("submission accepted"));
        }
    }
    for ticket in tickets {
        let outcome = ticket.wait_timeout(Duration::from_secs(60)).expect("job completes");
        outcome.result.expect("job succeeds");
    }

    let audit = service.stats().fairness;
    light_names.iter().map(|name| audit.per_tenant[name].max_eligible_wait).max().unwrap()
}

#[test]
fn light_tenants_are_never_starved_by_a_heavy_backlog_under_fair_share() {
    for cores in [1usize, 2] {
        // tenants + cores, the heavy tenant included.
        let bound = (1 + LIGHT_TENANTS + cores) as u64;
        let fair = light_tenants_worst_wait(SchedulingPolicy::fair(), cores);
        assert!(
            fair <= bound,
            "fair share let a light tenant's eligible work wait {fair} consecutive picks at \
             {cores} cores (bound {bound})"
        );
        let strict = light_tenants_worst_wait(SchedulingPolicy::Priority, cores);
        assert!(
            strict > bound,
            "strict priority should starve the light tenants behind the heavy backlog at \
             {cores} cores: worst wait {strict}, bound {bound}"
        );
    }
}
