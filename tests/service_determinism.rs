//! The tentpole obligation of `helix-serve`: multi-tenancy must be
//! *invisible* in every tenant's results. For 2–8 concurrent tenants on a
//! shared service at 1/2/4/8 cores, every tenant's iteration outputs must
//! be byte-identical to a **solo serial run** of that tenant (same seed,
//! private catalog, one worker) — regardless of co-tenants, queue order,
//! cross-tenant artifact hits, or how many core tokens the budget grants.
//! And the core budget must actually bound the machine: the token
//! high-water mark never exceeds the budget even when every session asks
//! for maximum width (the ROADMAP's `workers²` fix).
//!
//! Outputs are compared through the storage codec, so "identical" means
//! identical to the byte. Execution *plans* are allowed to differ — a
//! tenant may `Load` where its solo run computed (that is the point of
//! cross-tenant reuse); provenance-keyed signatures (each session's seed
//! folded into the chain at the stochastic nodes) guarantee the loaded
//! bytes equal the computed ones — including when tenants run *distinct*
//! seeds, where exactly the seed-independent prefix stays shared.

use helix::core::{Session, SessionConfig};
use helix::serve::{HelixService, ServiceConfig, TenantSpec};
use helix::storage::encode_value;
use helix::workloads::{CensusWorkload, GenomicsWorkload, IeWorkload, MnistWorkload, Workload};
use std::collections::BTreeMap;

const SERVICE_SEED: u64 = 42;

/// Output name → encoded bytes: everything a user sees from an iteration.
type Outputs = BTreeMap<String, Vec<u8>>;

fn workload_for(ix: usize) -> Box<dyn Workload> {
    match ix % 4 {
        0 => Box::new(CensusWorkload::small()),
        1 => Box::new(GenomicsWorkload::small()),
        2 => Box::new(IeWorkload::small()),
        _ => Box::new(MnistWorkload::small()),
    }
}

/// The three-iteration schedule every trace runs: initial build, first
/// scripted change, identical rerun (exercising compute, invalidation,
/// and reuse paths).
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

/// The ground truth: a solo, strictly serial session (one worker,
/// private catalog, pipelined lanes off) under an explicit seed.
fn solo_serial_trace_seeded(ix: usize, seed: u64) -> Vec<Outputs> {
    let mut session = Session::new(
        SessionConfig::in_memory().with_workers(1).with_seed(seed).with_pipeline(false),
    )
    .expect("solo session opens");
    iteration_workflows(workload_for(ix))
        .iter()
        .map(|wf| outputs_of(&session.run(wf).expect("solo iteration runs")))
        .collect()
}

fn solo_serial_trace(ix: usize) -> Vec<Outputs> {
    solo_serial_trace_seeded(ix, SERVICE_SEED)
}

#[test]
fn concurrent_tenants_match_solo_serial_at_every_core_count() {
    let tenants = 4; // one of each workload, all running at once
    let baselines: Vec<Vec<Outputs>> = (0..tenants).map(solo_serial_trace).collect();

    for cores in [1usize, 2, 4, 8] {
        let service = HelixService::new(
            ServiceConfig::new(cores)
                .with_seed(SERVICE_SEED)
                .with_max_concurrent_iterations(tenants),
        )
        .expect("service starts");
        for ix in 0..tenants {
            service
                .register_tenant(&format!("t{ix}"), TenantSpec::default())
                .expect("tenant registers");
        }

        let traces: Vec<Vec<Outputs>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..tenants)
                .map(|ix| {
                    let service = &service;
                    scope.spawn(move || {
                        let session = service
                            .open_session(
                                &format!("t{ix}"),
                                SessionConfig::in_memory().with_workers(cores),
                            )
                            .expect("session opens");
                        // Submit the whole schedule up front: successive
                        // iterations of one session queue behind each
                        // other in admission, and each dispatches only
                        // when the one ahead of it retires, while the
                        // other tenants' jobs run and wait for core
                        // tokens around it. Results must not notice.
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
            handles.into_iter().map(|h| h.join().expect("tenant thread panicked")).collect()
        });

        for (ix, (trace, baseline)) in traces.iter().zip(&baselines).enumerate() {
            assert_eq!(trace.len(), baseline.len());
            for (iteration, (got, want)) in trace.iter().zip(baseline).enumerate() {
                assert_eq!(
                    got, want,
                    "tenant {ix} iteration {iteration} diverged from its solo serial run \
                     at {cores} cores"
                );
            }
        }
        let stats = service.stats();
        assert!(
            stats.peak_cores_leased <= cores,
            "core budget violated at {cores} cores: peak {}",
            stats.peak_cores_leased
        );
    }
}

#[test]
fn eight_tenants_on_a_tight_budget_stay_within_two_cores() {
    // Every session asks for 8-wide parallelism; the budget holds 2
    // tokens. Pre-budget, this shape is exactly the `workers²` blowup
    // (8 sessions × 8 dispatch × 8 data-parallel threads); now the token
    // high-water mark bounds the whole process.
    let cores = 2;
    let tenants = 8;
    let service = HelixService::new(
        ServiceConfig::new(cores).with_seed(SERVICE_SEED).with_max_concurrent_iterations(tenants),
    )
    .expect("service starts");
    for ix in 0..tenants {
        service.register_tenant(&format!("t{ix}"), TenantSpec::default()).unwrap();
    }
    let baselines: Vec<Vec<Outputs>> = (0..tenants).map(solo_serial_trace).collect();
    let traces: Vec<Vec<Outputs>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..tenants)
            .map(|ix| {
                let service = &service;
                scope.spawn(move || {
                    let session = service
                        .open_session(&format!("t{ix}"), SessionConfig::in_memory().with_workers(8))
                        .expect("session opens");
                    iteration_workflows(workload_for(ix))
                        .into_iter()
                        .map(|wf| outputs_of(&session.run_iteration(wf).expect("iteration runs")))
                        .collect::<Vec<Outputs>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread panicked")).collect()
    });
    for (ix, (trace, baseline)) in traces.iter().zip(&baselines).enumerate() {
        assert_eq!(trace, baseline, "tenant {ix} diverged under the tight budget");
    }
    let stats = service.stats();
    assert!(
        stats.peak_cores_leased <= cores,
        "8 greedy tenants leaked threads: peak {} > {}",
        stats.peak_cores_leased,
        cores
    );
}

#[test]
fn sessions_multiplexed_over_a_two_slot_pool_stay_byte_identical() {
    // More tenants than the runner has worker slots: with
    // `max_concurrent_iterations = 2` the pool holds two workers, so six
    // tenants' whole schedules take turns on the same two threads —
    // every iteration waits in admission and takes a core token from the
    // shared budget. Bytes must not notice the pooling, exactly as they
    // must not notice co-tenants or core count.
    let tenants = 6;
    let pool = 2;
    let baselines: Vec<Vec<Outputs>> = (0..tenants).map(solo_serial_trace).collect();

    let service = HelixService::new(
        ServiceConfig::new(pool).with_seed(SERVICE_SEED).with_max_concurrent_iterations(pool),
    )
    .expect("service starts");
    for ix in 0..tenants {
        service.register_tenant(&format!("t{ix}"), TenantSpec::default()).expect("registers");
    }

    let traces: Vec<Vec<Outputs>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..tenants)
            .map(|ix| {
                let service = &service;
                scope.spawn(move || {
                    let session = service
                        .open_session(
                            &format!("t{ix}"),
                            SessionConfig::in_memory().with_workers(pool),
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
        handles.into_iter().map(|h| h.join().expect("tenant thread panicked")).collect()
    });

    for (ix, (trace, baseline)) in traces.iter().zip(&baselines).enumerate() {
        assert_eq!(trace, baseline, "tenant {ix} diverged on the two-slot pool");
    }
    let stats = service.stats();
    assert!(stats.peak_cores_leased <= pool, "core budget violated on the two-slot pool");
}

#[test]
fn distinct_seed_tenants_reproduce_solo_bytes_and_share_the_prefix() {
    // The acceptance obligation of provenance-keyed signatures: two
    // tenants run the same census schedule under *different* seeds on one
    // shared catalog. Each tenant's outputs must be byte-identical to its
    // own solo serial run under its own seed (no cross-seed
    // contamination), and the seed-independent workflow prefix — parsing,
    // extraction, example assembly, everything upstream of the stochastic
    // learner — must still be shared: the follower records ≥ 1
    // cross-tenant catalog hit. Checked at every core count.
    let seeds = [11u64, 97u64];
    let baselines: Vec<Vec<Outputs>> =
        seeds.iter().map(|&seed| solo_serial_trace_seeded(0, seed)).collect();
    // Sanity for the test itself: the seeds must actually diverge
    // somewhere, or the cross-seed-contamination assertion is vacuous.
    // (The census output is a test-split accuracy; with distinct seeds
    // the logistic models differ. If the traces were fully equal this
    // test could not detect a session accidentally running the wrong
    // seed, so fail loudly and pick better seeds.)
    assert_ne!(baselines[0], baselines[1], "chosen seeds produce identical traces");

    for cores in [1usize, 2, 4, 8] {
        let service = HelixService::new(
            ServiceConfig::new(cores).with_max_concurrent_iterations(seeds.len()),
        )
        .expect("service starts");
        service.register_tenant("leader", TenantSpec::default()).expect("tenant registers");
        service.register_tenant("follower", TenantSpec::default()).expect("tenant registers");

        // Strictly sequential: the leader finishes its whole schedule
        // before the follower starts, which makes the follower's prefix
        // hits deterministic.
        for (tenant, (&seed, baseline)) in
            ["leader", "follower"].iter().zip(seeds.iter().zip(&baselines))
        {
            let session = service
                .open_session(
                    tenant,
                    SessionConfig::in_memory().with_workers(cores).with_seed(seed),
                )
                .expect("session opens");
            let trace: Vec<Outputs> = iteration_workflows(workload_for(0))
                .into_iter()
                .map(|wf| outputs_of(&session.run_iteration(wf).expect("iteration runs")))
                .collect();
            assert_eq!(
                &trace, baseline,
                "tenant {tenant} (seed {seed}) diverged from its solo serial run at {cores} cores"
            );
        }

        let stats = service.stats();
        assert!(
            stats.tenants["follower"].cross_hits >= 1,
            "follower must reuse the leader's seed-independent prefix at {cores} cores \
             (cross_hits = {})",
            stats.tenants["follower"].cross_hits
        );
        assert_eq!(stats.tenants["leader"].session_seeds, vec![seeds[0]]);
        assert_eq!(stats.tenants["follower"].session_seeds, vec![seeds[1]]);
        assert!(stats.peak_cores_leased <= cores, "core budget violated at {cores} cores");
    }
}

#[test]
fn cross_tenant_reuse_is_byte_transparent() {
    // Leader and follower share the census workload. Running strictly one
    // after the other makes the follower's cross-tenant hits
    // deterministic; its outputs must still be byte-identical to its solo
    // serial run even though it loads artifacts it never computed.
    let service =
        HelixService::new(ServiceConfig::new(2).with_seed(SERVICE_SEED)).expect("service starts");
    service.register_tenant("leader", TenantSpec::default()).unwrap();
    service.register_tenant("follower", TenantSpec::default()).unwrap();

    let leader = service
        .open_session("leader", SessionConfig::in_memory().with_workers(2))
        .expect("session opens");
    for wf in iteration_workflows(workload_for(0)) {
        leader.run_iteration(wf).expect("leader iteration runs");
    }

    let follower = service
        .open_session("follower", SessionConfig::in_memory().with_workers(2))
        .expect("session opens");
    let trace: Vec<Outputs> = iteration_workflows(workload_for(0))
        .into_iter()
        .map(|wf| outputs_of(&follower.run_iteration(wf).expect("follower iteration runs")))
        .collect();

    assert_eq!(trace, solo_serial_trace(0), "reused bytes must equal computed bytes");
    let stats = service.stats();
    assert!(
        stats.tenants["follower"].cross_hits > 0,
        "follower must actually have reused the leader's artifacts"
    );
    assert!(stats.cross_hit_rate() > 0.0);
}

#[test]
fn fair_share_with_adversarial_heavy_tenant_stays_byte_identical() {
    // The fair-share acceptance shape: one heavy tenant (two sessions,
    // whole backlog submitted up front) against three light tenants at
    // every core count. DRF admission must (a) keep every session's
    // outputs byte-identical to its solo serial run — scheduling
    // reorders work, never bytes — and (b) audit clean: every pick is
    // the DRF choice, so no light tenant's dominant share can fall below
    // its entitlement while it is backlogged.
    let tenants = 4;
    let baselines: Vec<Vec<Outputs>> = (0..tenants).map(solo_serial_trace).collect();

    for cores in [1usize, 2, 4, 8] {
        let service = HelixService::new(
            ServiceConfig::new(cores)
                .with_seed(SERVICE_SEED)
                .with_max_concurrent_iterations(tenants + 2),
        )
        .expect("service starts");
        service
            .register_tenant("t0", TenantSpec::default().with_max_concurrent(2))
            .expect("heavy registers");
        for ix in 1..tenants {
            service.register_tenant(&format!("t{ix}"), TenantSpec::default()).unwrap();
        }

        // Heavy runs its schedule on two sessions; each light tenant on
        // one. Session traces must all match the per-tenant baseline.
        let plans: Vec<usize> = (0..2).map(|_| 0).chain(1..tenants).collect();
        let traces: Vec<(usize, Vec<Outputs>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .map(|&ix| {
                    let service = &service;
                    scope.spawn(move || {
                        let session = service
                            .open_session(
                                &format!("t{ix}"),
                                SessionConfig::in_memory().with_workers(cores),
                            )
                            .expect("session opens");
                        let tickets: Vec<_> = iteration_workflows(workload_for(ix))
                            .into_iter()
                            .map(|wf| session.submit(wf).expect("submission accepted"))
                            .collect();
                        let trace = tickets
                            .into_iter()
                            .map(|t| outputs_of(&t.wait_outcome().result.expect("iteration runs")))
                            .collect::<Vec<Outputs>>();
                        (ix, trace)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("session thread panicked")).collect()
        });

        for (ix, trace) in &traces {
            assert_eq!(
                trace, &baselines[*ix],
                "tenant t{ix} diverged from its solo serial run under fair share at \
                 {cores} cores"
            );
        }
        let stats = service.stats();
        assert_eq!(
            stats.fairness.non_drf_picks, 0,
            "every pick must be the DRF choice at {cores} cores"
        );
        assert!(stats.peak_cores_leased <= cores, "core budget violated at {cores} cores");
    }
}
