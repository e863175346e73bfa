//! The `serve_*` workloads: jobs through one `HelixService` on two core
//! tokens, driven by load generators that sleep and never spin.
//!
//! * `serve_open2k` — open loop: 2 000 tiny jobs/s on exponential
//!   arrivals over 256 sessions; latency runs from the *due* time.
//! * `serve_closed64` — closed loop: 64 sessions, one tiny job
//!   outstanding each; saturation throughput.
//! * `serve_burst4k` — 4 096 tiny jobs submitted at once, timed to the
//!   last completion: the backlog regime.
//! * `serve_tenants` — closed loop: 4 tenants × 1 session replaying edit
//!   scripts of real workflows; compute dominates, the service should
//!   not.
//!
//! The tiny job is ~30 µs of engine work, so the first three measure
//! admission, scheduler pick, runner park/resume, the catalog lock and
//! the journal, and bypass `ml` and the engine's compute.

use crate::layers;
use crate::report::Outcome;
use crate::script::{arrivals, edit_script, tiny_workflow, TINY_VARIANTS};
use crate::solo::{walk, WORKERS};
use crate::stats::{median, percentile, tail};
use crate::verify::{self, Version};
use crate::RunArgs;
use helix_core::{IterationReport, SessionConfig, Workflow};
use helix_serve::{HelixService, JobOutcome, JobTicket, ServiceConfig, ServiceSession, TenantSpec};
use helix_storage::DiskProfile;
use helix_workloads::{CensusWorkload, ChangeKind, Domain, MnistWorkload, Workload};
use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

/// Core tokens (and pool workers) of every measured service.
const CORES: usize = 2;
const TINY_TENANTS: usize = 8;
const TINY_SESSIONS: usize = 256;
/// Above the deepest backlog any phase builds, so `submit` never blocks.
const QUEUE_CAPACITY: usize = 16_384;
/// Far enough below saturation (~18 000 jobs/s closed loop) that a stall
/// of the box does not build a backlog the scheduler cannot work off: a
/// pick costs ~40 ns per queued job, so at 4 000 jobs/s a backlog of
/// ~5 000 jobs already never drains while arrivals last.
const OPEN_RATE: f64 = 2_000.0;
const CLOSED_SESSIONS: usize = 64;
const BURST_JOBS: usize = 4_096;
const CHURN_SESSIONS: usize = 16;
/// A job not back by then counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
/// Tiny-job service set-ups timed per run (the last one is measured).
const SETUPS: usize = 25;

/// One submitted job, as its generator saw it.
struct Job {
    /// Reference version it must match (tiny: the variant).
    version: usize,
    /// How late the generator started the submit (open loop only).
    late_ns: u64,
    /// Due time to the end of `submit` (the enqueue).
    head_ns: u64,
    /// Wall of the `submit` call.
    submit_ns: u64,
    /// `None`: not back within [`JOB_TIMEOUT`].
    outcome: Option<JobOutcome>,
}

impl Job {
    /// The iteration report of a job that succeeded.
    fn report(&self) -> Option<&IterationReport> {
        self.outcome.as_ref()?.result.as_ref().ok()
    }

    /// Due-time-to-completion latency of a job that came back.
    fn latency_ms(&self) -> Option<f64> {
        let o = self.outcome.as_ref()?;
        Some((self.head_ns + o.queue_wait_nanos + o.run_nanos) as f64 / 1e6)
    }
}

/// One measured stretch of load.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    jobs: Vec<Job>,
    peak_parked: i64,
    peak_threads: usize,
    /// `serve.pick_nanos`: picks and their summed nanoseconds.
    picks: (u64, u64),
}

impl Phase {
    fn reports(&self) -> impl Iterator<Item = &IterationReport> {
        self.jobs.iter().filter_map(Job::report)
    }

    /// Jobs completed per second of the stretch.
    fn ops_per_s(&self) -> f64 {
        self.reports().count() as f64 / self.wall_s
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.jobs.iter().filter_map(Job::latency_ms).collect()
    }

    fn absorb(&mut self, other: Phase) {
        self.wall_s += other.wall_s;
        self.jobs.extend(other.jobs);
        self.peak_parked = self.peak_parked.max(other.peak_parked);
        self.peak_threads = self.peak_threads.max(other.peak_threads);
        self.picks = (self.picks.0 + other.picks.0, self.picks.1 + other.picks.1);
    }
}

/// Samples the service-side gauges while a generator runs.
struct Watch {
    parked: helix_obs::metrics::Gauge,
    picks_before: (u64, u64),
    peak_parked: i64,
    peak_threads: usize,
}

fn pick_totals() -> (u64, u64) {
    let summary = helix_obs::metrics::global().histogram("serve.pick_nanos").summary();
    (summary.count, summary.count * summary.mean)
}

impl Watch {
    fn start() -> Watch {
        Watch {
            parked: helix_obs::metrics::global().gauge("serve.sessions_parked"),
            picks_before: pick_totals(),
            peak_parked: 0,
            peak_threads: 0,
        }
    }

    fn sample(&mut self) {
        self.peak_parked = self.peak_parked.max(self.parked.get());
        self.peak_threads = self.peak_threads.max(layers::os_threads());
    }

    fn finish(mut self, wall_s: f64, jobs: Vec<Job>) -> Phase {
        self.sample();
        let after = pick_totals();
        Phase {
            wall_s,
            jobs,
            peak_parked: self.peak_parked,
            peak_threads: self.peak_threads,
            picks: (after.0 - self.picks_before.0, after.1 - self.picks_before.1),
        }
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// The tiny-job service: 8 tenants, 256 sessions, warmed up.
struct TinyService {
    service: HelixService,
    sessions: Vec<ServiceSession>,
}

/// The variant a tiny session always runs.
fn variant_of(session: usize) -> u64 {
    (session / TINY_TENANTS) as u64 % TINY_VARIANTS
}

impl TinyService {
    /// Service + tenants + sessions + one warm-up job per session.
    fn set_up(seed: u64, dir: &Path) -> Result<TinyService, String> {
        let config = ServiceConfig::new(CORES)
            .with_seed(seed)
            .with_queue_capacity(QUEUE_CAPACITY)
            .with_max_concurrent_iterations(CORES)
            .with_catalog_dir(dir);
        let quota = config.storage_budget_bytes / TINY_TENANTS as u64;
        let service = HelixService::new(config).map_err(|e| format!("service: {e}"))?;
        for t in 0..TINY_TENANTS {
            let spec = TenantSpec::default().with_quota(quota).with_max_concurrent(CORES);
            service.register_tenant(&format!("tenant-{t}"), spec).map_err(|e| e.to_string())?;
        }
        let sessions = (0..TINY_SESSIONS)
            .map(|s| {
                let config = SessionConfig::in_memory().with_workers(1).with_pipeline(false);
                service.open_session(&format!("tenant-{}", s % TINY_TENANTS), config)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("open_session: {e}"))?;
        let warm: Vec<JobTicket> = sessions
            .iter()
            .enumerate()
            .map(|(s, session)| session.submit(tiny_workflow(variant_of(s))))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("warm-up submit: {e}"))?;
        for ticket in warm {
            let outcome = ticket.wait_timeout(JOB_TIMEOUT).ok_or("warm-up job timed out")?;
            outcome.result.map_err(|e| format!("warm-up job: {e}"))?;
        }
        Ok(TinyService { service, sessions })
    }

    /// Open loop: submit on the arrival schedule whatever the service
    /// does; a late generator submits at once and never thins the load.
    fn open_loop(&self, schedule: &[Duration]) -> Result<Phase, String> {
        let mut watch = Watch::start();
        let mut jobs: Vec<Job> = Vec::with_capacity(schedule.len());
        let mut pending: Vec<(usize, JobTicket)> = Vec::new();
        let started = Instant::now();
        for (i, due) in schedule.iter().enumerate() {
            if let Some(wait) = due.checked_sub(started.elapsed()) {
                std::thread::sleep(wait);
            }
            let s = i % TINY_SESSIONS;
            let begun = started.elapsed();
            let ticket = self.sessions[s]
                .submit(tiny_workflow(variant_of(s)))
                .map_err(|e| format!("submit: {e}"))?;
            let enqueued = started.elapsed();
            jobs.push(Job {
                version: variant_of(s) as usize,
                late_ns: nanos(begun.saturating_sub(*due)),
                head_ns: nanos(enqueued.saturating_sub(*due)),
                submit_ns: nanos(enqueued - begun),
                outcome: None,
            });
            pending.push((i, ticket));
            if i % 64 == 0 {
                pending.retain(|(job, ticket)| match ticket.try_outcome() {
                    Some(outcome) => {
                        jobs[*job].outcome = Some(outcome);
                        false
                    }
                    None => true,
                });
                watch.sample();
            }
        }
        // One deadline for the whole drain, so a service that fell behind
        // costs the run `JOB_TIMEOUT`, not that much per job.
        let deadline = Instant::now() + JOB_TIMEOUT;
        for (job, ticket) in pending {
            let left = deadline.saturating_duration_since(Instant::now());
            jobs[job].outcome = ticket.wait_timeout(left);
        }
        Ok(watch.finish(started.elapsed().as_secs_f64(), jobs))
    }

    /// Closed loop over the first `sessions` sessions, one job
    /// outstanding each, for `budget`. The generator blocks on the oldest
    /// ticket, then takes every other ticket that is back as well and
    /// feeds all those sessions again — waiting on the oldest alone lets
    /// finished sessions sit idle behind one slow job.
    fn closed_loop(
        &self,
        sessions: usize,
        budget: Duration,
        variant: impl Fn(usize, usize) -> u64,
    ) -> Result<Phase, String> {
        let mut watch = Watch::start();
        let mut jobs: Vec<Job> = Vec::new();
        let mut rounds = vec![0usize; sessions];
        let started = Instant::now();
        let mut submit = |s: usize, jobs: &mut Vec<Job>| -> Result<(usize, JobTicket), String> {
            let v = variant(s, rounds[s]);
            rounds[s] += 1;
            let begun = Instant::now();
            let ticket =
                self.sessions[s].submit(tiny_workflow(v)).map_err(|e| format!("submit: {e}"))?;
            let submit_ns = nanos(begun.elapsed());
            jobs.push(Job {
                version: v as usize,
                late_ns: 0,
                head_ns: submit_ns,
                submit_ns,
                outcome: None,
            });
            Ok((jobs.len() - 1, ticket))
        };
        let mut waiting: VecDeque<(usize, usize, JobTicket)> = VecDeque::with_capacity(sessions);
        for s in 0..sessions {
            let (job, ticket) = submit(s, &mut jobs)?;
            waiting.push_back((s, job, ticket));
        }
        while let Some((s, job, ticket)) = waiting.pop_front() {
            jobs[job].outcome = ticket.wait_timeout(JOB_TIMEOUT);
            let mut back = vec![s];
            waiting.retain(|(s, job, ticket)| match ticket.try_outcome() {
                Some(outcome) => {
                    jobs[*job].outcome = Some(outcome);
                    back.push(*s);
                    false
                }
                None => true,
            });
            if started.elapsed() < budget {
                for s in back {
                    let (job, ticket) = submit(s, &mut jobs)?;
                    waiting.push_back((s, job, ticket));
                }
            }
            watch.sample();
        }
        Ok(watch.finish(started.elapsed().as_secs_f64(), jobs))
    }

    /// Submit `BURST_JOBS` jobs at once, then wait for the last one. All
    /// are due when the burst starts.
    fn burst(&self) -> Result<Phase, String> {
        let mut watch = Watch::start();
        let mut jobs: Vec<Job> = Vec::with_capacity(BURST_JOBS);
        let mut tickets = Vec::with_capacity(BURST_JOBS);
        let started = Instant::now();
        for i in 0..BURST_JOBS {
            let s = i % TINY_SESSIONS;
            let begun = started.elapsed();
            let ticket = self.sessions[s]
                .submit(tiny_workflow(variant_of(s)))
                .map_err(|e| format!("submit: {e}"))?;
            let enqueued = started.elapsed();
            jobs.push(Job {
                version: variant_of(s) as usize,
                late_ns: 0,
                head_ns: nanos(enqueued),
                submit_ns: nanos(enqueued - begun),
                outcome: None,
            });
            tickets.push(ticket);
        }
        watch.sample();
        for (i, ticket) in tickets.into_iter().enumerate() {
            jobs[i].outcome = ticket.wait_timeout(JOB_TIMEOUT);
            if i % 64 == 0 {
                watch.sample();
            }
        }
        Ok(watch.finish(started.elapsed().as_secs_f64(), jobs))
    }

    /// One stretch of the named workload's load, about `budget` long.
    fn stretch(&self, name: &str, seed: u64, budget: Duration) -> Result<Phase, String> {
        match name {
            "serve_open2k" => self.open_loop(&arrivals(OPEN_RATE, budget, seed)),
            "serve_closed64" => self.closed_loop(CLOSED_SESSIONS, budget, |s, _| variant_of(s)),
            _ => {
                // Whole bursts only: at least one, then as many as fit.
                let mut phase = self.burst()?;
                let mut last = phase.wall_s;
                while phase.wall_s + last <= budget.as_secs_f64() {
                    let burst = self.burst()?;
                    last = burst.wall_s;
                    phase.absorb(burst);
                }
                Ok(phase)
            }
        }
    }
}

/// A tiny variant as a reference version.
struct TinyVersion(u64);

impl Workload for TinyVersion {
    fn name(&self) -> &'static str {
        "tiny"
    }
    fn domain(&self) -> Domain {
        Domain::Nlp
    }
    fn build(&self) -> Workflow {
        tiny_workflow(self.0)
    }
    fn apply_change(&mut self, _: ChangeKind) {}
    fn scripted_sequence(&self) -> Vec<ChangeKind> {
        Vec::new()
    }
}

/// Count jobs into the outcome, comparing each completed one with the
/// reference digest `expected` gives for it (called once per job, in
/// order).
fn check_jobs<'a>(
    out: &mut Outcome,
    jobs: impl Iterator<Item = &'a Job>,
    mut expected: impl FnMut(&Job) -> Option<u64>,
) {
    for job in jobs {
        out.attempted += 1;
        let expected = expected(job);
        match &job.outcome {
            None => out.fail(|| "a job did not come back in time".to_string()),
            Some(JobOutcome { result: Err(e), .. }) => out.fail(|| format!("job failed: {e}")),
            Some(JobOutcome { result: Ok(report), .. }) => {
                if Some(verify::digest(report)) != expected {
                    out.fail(|| {
                        format!("version {}: outputs differ from the reference", job.version)
                    });
                }
            }
        }
    }
}

fn end_to_end_metrics(out: &mut Outcome, setups: &[f64], phase: &Phase) {
    out.set("setup_s", median(setups));
    out.set("ops_per_s", phase.ops_per_s());
    out.set("op_p50_ms", median(&phase.latencies_ms()));
    out.note("jobs", phase.jobs.len());
    out.note("wall_s", format!("{:.3}", phase.wall_s));
}

/// `serve.*` numbers every service workload has.
fn serve_metrics(out: &mut Outcome, phase: &Phase) {
    let of = |pick: fn(&Job) -> Option<u64>| -> Vec<f64> {
        phase.jobs.iter().filter_map(pick).map(|ns| ns as f64 / 1e3).collect()
    };
    let queue_wait = of(|j| j.outcome.as_ref().map(|o| o.queue_wait_nanos));
    out.set("serve.submit_p50_us", median(&of(|j| Some(j.submit_ns))));
    out.set("serve.queue_wait_p50_us", median(&queue_wait));
    out.set("serve.queue_wait_p99_us", percentile(&queue_wait, 0.99));
    out.set("serve.run_p50_us", median(&of(|j| j.outcome.as_ref().map(|o| o.run_nanos))));
    out.set("serve.pick_mean_us", phase.picks.1 as f64 / phase.picks.0.max(1) as f64 / 1e3);
    out.set("serve.peak_parked", phase.peak_parked as f64);
    out.set("serve.peak_threads", phase.peak_threads as f64);
    out.set("serve.gen_late_p99_ms", percentile(&of(|j| Some(j.late_ns)), 0.99) / 1e3);
    let (tail_ms, tail_q) = tail(&phase.latencies_ms());
    out.set("serve.latency_tail_ms", tail_ms);
    out.set("bench.tail_quantile", tail_q);
}

/// The three tiny-job workloads.
fn run_tiny(name: &str, args: &RunArgs, scratch: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let window = Duration::from_secs(args.seconds);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut tiny = None;
    for i in 0..SETUPS {
        drop(tiny.take());
        let started = Instant::now();
        tiny = Some(TinyService::set_up(args.seed, &scratch.join(format!("service-{i}")))?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let tiny = tiny.expect("SETUPS > 0");

    // An untraced stretch — the whole window or, in a traced run, two
    // fifths of it as the base of the tracing overhead; then the traced
    // stretch and the variant-churn probe.
    let stretch = if args.traced { window * 2 / 5 } else { window };
    let base = tiny.stretch(name, args.seed, stretch)?;
    let (mut traced, mut churn) = (None, None);
    if args.traced {
        // The per-layer numbers: ledger-side job records plus the
        // program's own spans and counters.
        helix_obs::set_enabled(true);
        let phase = tiny.stretch(name, args.seed ^ 1, stretch);
        helix_obs::set_enabled(false);
        let phase = phase?;
        let (spans, dropped) = helix_obs::drain_spans();
        out.set("obs.spans", spans.len() as f64);
        out.set("obs.dropped_spans", dropped as f64);
        out.set("obs.trace_overhead_x", base.ops_per_s() / phase.ops_per_s());
        serve_metrics(&mut out, &phase);
        layers::engine_metrics(&mut out, phase.reports().map(|report| &report.metrics));
        out.set("exec.peak_cores_leased", tiny.service.stats().peak_cores_leased as f64);
        traced = Some(phase);
        // Sessions that change variant with every job, on a service with
        // history: the probe that puts `load_for`'s ENOENT on the
        // ledger. Its failures are one per-layer number, not failures of
        // the run.
        churn = Some(tiny.closed_loop(CHURN_SESSIONS, window / 5, |s, round| {
            (s + round) as u64 % TINY_VARIANTS
        })?);
    } else {
        end_to_end_metrics(&mut out, &setups, &base);
    }
    drop(tiny);
    if args.traced {
        layers::storage_probes(&mut out, &scratch.join(format!("service-{}", SETUPS - 1)))?;
    }

    let started = Instant::now();
    let versions: Vec<Version> =
        (0..TINY_VARIANTS).map(|v| Box::new(TinyVersion(v)) as Version).collect();
    // No volatile operator: one reference run per variant.
    let every_variant = std::iter::once(vec![None; versions.len()]);
    let reference = verify::reference_for(&versions, every_variant, args.seed, scratch)?;
    let digest_of = |job: &Job| reference.expected.get(&(job.version, 0)).map(|e| e.digest);
    check_jobs(&mut out, base.jobs.iter().chain(traced.iter().flat_map(|t| &t.jobs)), digest_of);
    if let Some(churn) = churn {
        let mut probe = Outcome::default();
        check_jobs(&mut probe, churn.jobs.iter(), digest_of);
        out.set("serve.churn.failed_share", probe.failed as f64 / probe.attempted.max(1) as f64);
        out.note("serve.churn.jobs", probe.attempted);
        out.note("serve.churn.first_error", probe.first_error.as_deref().unwrap_or("none"));
    }
    if args.traced {
        out.set("bench.reference_nm_s", reference.wall_s());
        out.set("bench.verify_s", started.elapsed().as_secs_f64());
        out.set("exec.peak_rss_mb", layers::peak_rss_mb());
    }
    Ok(out)
}

/// Tenants of `serve_tenants` and edits each replays.
const TENANTS: usize = 4;

/// Tenant `t`'s workflow versions: t0/t1 census, t2/t3 MNIST, on the
/// run's data seed (so same-workload tenants share their deterministic
/// prefix), each with its own edit script.
fn tenant_versions(t: usize, seed: u64) -> Vec<Version> {
    // Same mix for every tenant, started `t` edits in, so that two
    // tenants of one workload do not walk through the same versions.
    let script_of = |domain: Domain| {
        let mut script = edit_script(domain);
        script.rotate_left(t);
        script
    };
    if t < TENANTS / 2 {
        let mut spec = CensusWorkload::default();
        (spec.train_rows, spec.test_rows, spec.seed) = (6_000, 2_000, seed);
        walk(spec.clone(), &script_of(spec.domain()))
    } else {
        let mut spec = MnistWorkload::default();
        (spec.train, spec.test, spec.seed) = (800, 200, seed);
        walk(spec.clone(), &script_of(spec.domain()))
    }
}

/// One replay of all four tenants' scripts on a fresh service.
struct Replay {
    setup_s: f64,
    phase: Phase,
    /// Per tenant, where its jobs sit in `phase.jobs` (script order).
    by_tenant: Vec<std::ops::Range<usize>>,
    queue_wait_share: f64,
    cross_hit_rate: f64,
    non_drf_picks: u64,
    peak_cores_leased: usize,
}

impl Replay {
    fn tenant_jobs(&self, t: usize) -> impl Iterator<Item = &Job> {
        self.phase.jobs[self.by_tenant[t].clone()].iter()
    }
}

fn replay(versions: &[Vec<Version>], seed: u64, dir: &Path) -> Result<Replay, String> {
    let started = Instant::now();
    let config = ServiceConfig::new(CORES)
        .with_seed(seed)
        .with_disk(DiskProfile::paper_hdd())
        .with_catalog_dir(dir);
    let quota = config.storage_budget_bytes / TENANTS as u64;
    let service = HelixService::new(config).map_err(|e| format!("service: {e}"))?;
    let mut sessions = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        let tenant = format!("tenant-{t}");
        service
            .register_tenant(&tenant, TenantSpec::default().with_quota(quota))
            .map_err(|e| e.to_string())?;
        // Own seed per tenant: seeded operators are keyed apart, the
        // deterministic prefix is still shared across tenants.
        let config = SessionConfig::in_memory().with_workers(WORKERS).with_seed(seed + t as u64);
        sessions.push(service.open_session(&tenant, config).map_err(|e| e.to_string())?);
    }
    let setup_s = started.elapsed().as_secs_f64();

    let mut watch = Watch::start();
    let started = Instant::now();
    // One client per tenant, each blocked on its own ticket: the next
    // edit goes in the moment the previous iteration is back.
    let per_tenant: Vec<Result<Vec<Job>, String>> = std::thread::scope(|scope| {
        let clients: Vec<_> = sessions
            .iter()
            .zip(versions)
            .map(|(session, versions)| {
                scope.spawn(move || {
                    versions
                        .iter()
                        .enumerate()
                        .map(|(version, spec)| {
                            let wf = spec.build();
                            let begun = Instant::now();
                            let ticket = session.submit(wf).map_err(|e| format!("submit: {e}"))?;
                            let submit_ns = nanos(begun.elapsed());
                            let outcome = ticket.wait_timeout(JOB_TIMEOUT);
                            Ok(Job { version, late_ns: 0, head_ns: submit_ns, submit_ns, outcome })
                        })
                        .collect()
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("a client thread panicked")).collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    watch.sample();

    let mut jobs = Vec::new();
    let mut by_tenant = Vec::with_capacity(TENANTS);
    for tenant_jobs in per_tenant {
        let tenant_jobs = tenant_jobs?;
        by_tenant.push(jobs.len()..jobs.len() + tenant_jobs.len());
        jobs.extend(tenant_jobs);
    }
    let stats = service.stats();
    let (waited, total) =
        jobs.iter().filter_map(|j| j.outcome.as_ref()).fold((0u64, 0u64), |(waited, total), o| {
            (waited + o.queue_wait_nanos, total + o.queue_wait_nanos + o.run_nanos)
        });
    Ok(Replay {
        setup_s,
        phase: watch.finish(wall_s, jobs),
        by_tenant,
        queue_wait_share: waited as f64 / total.max(1) as f64,
        cross_hit_rate: stats.cross_hit_rate(),
        non_drf_picks: stats.fairness.non_drf_picks,
        peak_cores_leased: stats.peak_cores_leased,
    })
}

/// Replays for `budget`: at least one, then as many as still fit.
fn replays_for(
    versions: &[Vec<Version>],
    seed: u64,
    scratch: &Path,
    label: &str,
    budget: Duration,
) -> Result<Vec<Replay>, String> {
    let started = Instant::now();
    let mut replays: Vec<Replay> = Vec::new();
    loop {
        let dir = scratch.join(format!("{label}-{}", replays.len()));
        replays.push(replay(versions, seed, &dir)?);
        let last = replays.last().expect("just pushed");
        let next = last.setup_s + last.phase.wall_s;
        if started.elapsed().as_secs_f64() + next > budget.as_secs_f64() {
            return Ok(replays);
        }
    }
}

fn run_tenants(args: &RunArgs, scratch: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let versions: Vec<Vec<Version>> = (0..TENANTS).map(|t| tenant_versions(t, args.seed)).collect();
    let window = Duration::from_secs(args.seconds);
    let rate = |replays: &[Replay]| {
        median(&replays.iter().map(|r| r.phase.ops_per_s()).collect::<Vec<_>>())
    };

    let mut replays;
    if args.traced {
        replays = replays_for(&versions, args.seed, scratch, "replay", window / 2)?;
        helix_obs::set_enabled(true);
        let traced = replays_for(&versions, args.seed, scratch, "traced", window / 2);
        helix_obs::set_enabled(false);
        let traced = traced?;
        let (spans, dropped) = helix_obs::drain_spans();
        out.set("obs.spans", spans.len() as f64);
        out.set("obs.dropped_spans", dropped as f64);
        out.set("obs.trace_overhead_x", rate(&replays) / rate(&traced));

        let last = traced.last().expect("at least one replay");
        serve_metrics(&mut out, &last.phase);
        out.set("serve.queue_wait_share", last.queue_wait_share);
        out.set("serve.cross_hit_rate", last.cross_hit_rate);
        out.set("serve.non_drf_picks", last.non_drf_picks as f64);
        out.set("serve.job_p90_ms", percentile(&last.phase.latencies_ms(), 0.9));
        out.set("exec.peak_cores_leased", last.peak_cores_leased as f64);
        layers::engine_metrics(&mut out, last.phase.reports().map(|report| &report.metrics));
        let walls: Vec<f64> = replays.iter().map(|r| r.phase.wall_s).collect();
        out.set("core.cumulative_wall_s", median(&walls));
        out.set("bench.passes", replays.len() as f64);
        let spread = percentile(&walls, 1.0) - percentile(&walls, 0.0);
        out.set("bench.pass_spread", spread / median(&walls));
        layers::storage_probes(&mut out, &scratch.join(format!("traced-{}", traced.len() - 1)))?;
        replays.extend(traced);
    } else {
        replays = replays_for(&versions, args.seed, scratch, "replay", window)?;
        let setups: Vec<f64> = replays.iter().map(|r| r.setup_s).collect();
        let latencies: Vec<f64> = replays.iter().flat_map(|r| r.phase.latencies_ms()).collect();
        out.set("setup_s", median(&setups));
        out.set("ops_per_s", rate(&replays));
        out.set("op_p50_ms", median(&latencies));
        out.note("replays", replays.len());
        let makespans: Vec<f64> = replays.iter().map(|r| r.phase.wall_s).collect();
        out.note("makespan_s", format!("{makespans:?}"));
    }

    // Each tenant against its own solo strict-serial reference.
    let started = Instant::now();
    let mut reference_s = 0.0;
    for (t, versions) in versions.iter().enumerate() {
        let sessions = replays.iter().map(|r| r.tenant_jobs(t).map(Job::report).collect());
        let reference = verify::reference_for(versions, sessions, args.seed + t as u64, scratch)?;
        reference_s += reference.wall_s();
        for (r, keys) in replays.iter().zip(&reference.keys) {
            let mut keys = keys.iter();
            check_jobs(&mut out, r.tenant_jobs(t), |_| {
                keys.next().and_then(|key| reference.expected.get(key)).map(|e| e.digest)
            });
        }
    }
    if args.traced {
        out.set("bench.reference_nm_s", reference_s);
        let wall = out.metrics.get("core.cumulative_wall_s").copied().unwrap_or(0.0);
        out.set("bench.reuse_speedup_x", reference_s / wall);
        out.set("bench.verify_s", started.elapsed().as_secs_f64());
        out.set("exec.peak_rss_mb", layers::peak_rss_mb());
    }
    Ok(out)
}

/// Run a service workload.
pub fn run(name: &str, args: &RunArgs, scratch: &Path) -> Result<Outcome, String> {
    match name {
        "serve_open2k" | "serve_closed64" | "serve_burst4k" => run_tiny(name, args, scratch),
        "serve_tenants" => run_tenants(args, scratch),
        _ => Err(format!("no service workload `{name}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_exec::IterationMetrics;

    /// A completed job that took `ms`.
    fn job(ms: u64) -> Job {
        let report = IterationReport {
            iteration: 0,
            metrics: IterationMetrics::new(0),
            outputs: Default::default(),
            states: Vec::new(),
        };
        Job {
            version: 0,
            late_ns: 0,
            head_ns: 0,
            submit_ns: 0,
            outcome: Some(JobOutcome {
                result: Ok(report),
                queue_wait_nanos: 0,
                run_nanos: ms * 1_000_000,
                cancelled: false,
            }),
        }
    }

    #[test]
    fn a_lost_job_counts_as_failed_and_has_no_latency() {
        let mut jobs = vec![job(100), job(200), job(300)];
        jobs.push(Job { outcome: None, ..job(0) });
        let phase = Phase { wall_s: 0.5, jobs, ..Default::default() };
        assert_eq!(phase.ops_per_s(), 6.0);
        assert_eq!(phase.latencies_ms(), [100.0, 200.0, 300.0]);
        let mut out = Outcome::default();
        check_jobs(&mut out, phase.jobs.iter(), |_| None);
        assert_eq!((out.attempted, out.failed), (4, 4), "no reference digest: all fail");
    }

    #[test]
    fn tenants_of_one_workload_walk_different_versions() {
        let spec = |v: &Version| format!("{:?}", v.build().dag().len());
        let (t0, t1) = (tenant_versions(0, 1), tenant_versions(1, 1));
        assert_eq!((t0.len(), t1.len()), (crate::script::EDITS + 1, crate::script::EDITS + 1));
        assert_eq!(t0[0].name(), "census");
        assert_eq!(tenant_versions(3, 1)[0].name(), "mnist");
        // Same start, then the rotated script takes another path.
        assert_eq!(spec(&t0[0]), spec(&t1[0]));
        assert!(t0.iter().zip(&t1).any(|(a, b)| spec(a) != spec(b)));
    }
}
