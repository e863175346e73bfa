//! Two tenants, one service: shared cores, shared artifacts.
//!
//! Alice and Bob both iterate on the census workflow. The service owns
//! one core budget and one materialization catalog, so:
//!
//! * their concurrent iterations split the same cores (no `workers²`
//!   thread blowup), and
//! * Bob's first iteration *loads* the intermediates Alice already
//!   computed — cross-tenant reuse through signature equivalence — then
//!   each tenant's own reruns reuse as usual.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example shared_service
//! ```
//!
//! With `HELIX_TRACE=<path>` set, the run also writes its spans there as
//! Chrome `trace_event` JSON (load it in Perfetto).

use helix::core::SessionConfig;
use helix::serve::{HelixService, ServiceConfig, TenantSpec};
use helix::workloads::{CensusWorkload, Workload};

fn main() -> helix::common::Result<()> {
    // A service with 4 core tokens and the default storage budget.
    let service = HelixService::new(ServiceConfig::new(4).with_seed(7))?;
    service.register_tenant("alice", TenantSpec::default().with_quota(16 << 20))?;
    service.register_tenant("bob", TenantSpec::default().with_quota(16 << 20))?;

    let alice = service.open_session("alice", SessionConfig::in_memory().with_workers(4))?;
    let bob = service.open_session("bob", SessionConfig::in_memory().with_workers(4))?;

    // Alice explores first: everything is computed from scratch.
    let mut alice_wl = CensusWorkload::small();
    let report = alice.run_iteration(alice_wl.build())?;
    println!(
        "alice iteration 0: computed {:>2}, loaded {:>2} ({} ms)",
        report.metrics.computed,
        report.metrics.loaded,
        report.metrics.total_nanos() / 1_000_000
    );

    // Bob starts the same workflow: the shared catalog already holds
    // every intermediate under the same signatures, so Bob loads.
    let bob_wl = CensusWorkload::small();
    let report = bob.run_iteration(bob_wl.build())?;
    println!(
        "bob   iteration 0: computed {:>2}, loaded {:>2}, cross-tenant {:>2} ({} ms)",
        report.metrics.computed,
        report.metrics.loaded,
        report.metrics.cross_loaded,
        report.metrics.total_nanos() / 1_000_000
    );

    // Alice keeps iterating (a postprocessing tweak): only the changed
    // suffix recomputes, and Bob's artifacts are untouched.
    alice_wl.apply_change(helix::workloads::ChangeKind::Ppr);
    let report = alice.run_iteration(alice_wl.build())?;
    println!(
        "alice iteration 1: computed {:>2}, loaded {:>2} ({} ms)",
        report.metrics.computed,
        report.metrics.loaded,
        report.metrics.total_nanos() / 1_000_000
    );

    let stats = service.stats();
    println!("\nservice stats:");
    println!(
        "  cores: peak {} of {} leased   catalog: {} artifacts, {} KiB",
        stats.peak_cores_leased,
        stats.cores_total,
        stats.catalog_artifacts,
        stats.catalog_bytes / 1024
    );
    for (name, t) in &stats.tenants {
        println!(
            "  {name:>6}: {} iterations, self-hits {}, cross-hits {} (cross rate {:.0}%), \
             {} KiB of {} KiB quota",
            t.iterations,
            t.self_hits,
            t.cross_hits,
            t.cross_hit_rate() * 100.0,
            t.owned_bytes / 1024,
            t.quota_bytes / 1024,
        );
    }
    if let Err(e) = helix::obs::write_env_trace() {
        eprintln!("warning: cannot write HELIX_TRACE file: {e}");
    }
    Ok(())
}
