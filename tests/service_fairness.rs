//! The no-starvation bound, end to end through the service: under DRF
//! admission a backlogged light tenant's eligible work is never passed
//! over for more than `tenants + cores` consecutive picks, however deep a
//! co-tenant's backlog. `fairshare_props` proves the deficit bound on the
//! allocator alone; this drives real sessions through `HelixService` and
//! reads the scheduler's own audit (`stats().fairness`).
//!
//! The adversary: one heavy tenant with `cores + 1` sessions whose whole
//! backlog is submitted up front, against three single-session light
//! tenants. Two checks keep the bound from passing vacuously: every
//! light tenant must have waited at least one pick (it really queued
//! behind the heavy backlog), and the audit must have seen one pick per
//! submitted job (every job went through the scheduler).

use helix::core::{SessionConfig, Workflow};
use helix::data::{Scalar, Value};
use helix::serve::{FairnessAudit, HelixService, JobTicket, ServiceConfig, TenantSpec};
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

/// Run the adversarial load and return the scheduler's audit with the
/// number of jobs submitted.
fn adversarial_audit(cores: usize) -> (FairnessAudit, u64) {
    let heavy_sessions = cores + 1;
    // One running iteration per core: every scheduler pick hands out a
    // core, so the pick order *is* the service order the audit measures.
    let service = HelixService::new(
        ServiceConfig::new(cores).with_seed(42).with_max_concurrent_iterations(cores),
    )
    .expect("service starts");
    // Enough concurrency headroom to occupy every core with heavy's own
    // sessions.
    service
        .register_tenant("heavy", TenantSpec::default().with_max_concurrent(heavy_sessions))
        .expect("heavy registers");
    for name in &light_names() {
        service.register_tenant(name, TenantSpec::default()).expect("light registers");
    }
    let open = |tenant: &str| {
        service
            .open_session(tenant, SessionConfig::in_memory().with_workers(1).with_pipeline(false))
            .expect("session opens")
    };
    let heavy: Vec<_> = (0..heavy_sessions).map(|_| open("heavy")).collect();
    let light: Vec<_> = light_names().iter().map(|name| open(name)).collect();

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
    let submitted = tickets.len() as u64;
    for ticket in tickets {
        let outcome = ticket.wait_timeout(Duration::from_secs(60)).expect("job completes");
        outcome.result.expect("job succeeds");
    }
    (service.stats().fairness, submitted)
}

fn light_names() -> Vec<String> {
    (0..LIGHT_TENANTS).map(|ix| format!("light-{ix}")).collect()
}

#[test]
fn light_tenants_are_never_starved_by_a_heavy_backlog_under_fair_share() {
    for cores in [1usize, 2] {
        // tenants + cores, the heavy tenant included.
        let bound = (1 + LIGHT_TENANTS + cores) as u64;
        let (audit, submitted) = adversarial_audit(cores);
        assert_eq!(audit.picks, submitted, "one scheduler pick per submitted job at {cores} cores");
        for name in light_names() {
            let wait = audit.per_tenant[&name].max_eligible_wait;
            assert!(
                wait <= bound,
                "{name}'s eligible work waited {wait} consecutive picks at {cores} cores \
                 (bound {bound})"
            );
            assert!(
                wait >= 1,
                "{name} never waited behind the heavy backlog at {cores} cores: the load is \
                 not adversarial"
            );
        }
    }
}
