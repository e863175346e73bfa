//! Seeded inputs: every script and schedule the ledger replays is a pure
//! function of `--seed`, fixed before any clock starts.

use helix_common::SplitMix64;
use helix_core::Workflow;
use helix_data::{Scalar, Value};
use helix_workloads::{ChangeKind, Domain};
use std::time::Duration;

/// Edits per script (so one pass runs `EDITS + 1` iterations).
pub const EDITS: usize = 20;

/// The edit script of one simulated developer: the domain's survey
/// distribution (`Domain::change_distribution`) turned into whole
/// numbers of DPR / L/I / PPR edits, interleaved as evenly as they go.
///
/// The script is the same for every seed; the seed draws the data, the
/// stochastic operators and the arrival schedules. An edit changes what
/// every later iteration costs (a DPR edit grows the genomics corpus by
/// a quarter, flips MNIST's feature width, toggles a census extractor),
/// so a seeded *order* — let alone the ±2 expensive edits an i.i.d. draw
/// of 20 from `iterate::sample_sequence` moves — shifts the pass wall
/// by more than any regression bound.
pub fn edit_script(domain: Domain) -> Vec<ChangeKind> {
    const KINDS: [ChangeKind; 3] = [ChangeKind::Dpr, ChangeKind::LI, ChangeKind::Ppr];
    let (dpr, li, _) = domain.change_distribution();
    let share = |p: f64| (p * EDITS as f64).round() as usize;
    // PPR takes the remainder, so the three always add up to `EDITS`.
    let mut quota = [share(dpr), share(li), 0];
    quota[2] = EDITS - quota[0] - quota[1];
    let mut used = [0usize; 3];
    (1..=EDITS)
        .map(|i| {
            // The kind furthest behind its share of the first `i` edits
            // (compared in units of 1/EDITS; ties go to the later kind).
            let behind = |k: usize| (quota[k] * i) as i64 - (used[k] * EDITS) as i64;
            let k = (0..3).max_by_key(|k| behind(*k)).expect("three kinds");
            used[k] += 1;
            KINDS[k]
        })
        .collect()
}

/// Open-loop arrival offsets: exponential inter-arrivals at `rate` jobs
/// per second until `span` is covered.
pub fn arrivals(rate: f64, span: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = SplitMix64::new(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let mut at = 0.0f64;
    let mut out = Vec::with_capacity((rate * span.as_secs_f64() * 1.1) as usize);
    loop {
        // U in (0, 1]: the logarithm is finite.
        at += -(1.0 - rng.next_f64()).ln() / rate;
        if at >= span.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}

/// Variants of the tiny workflow.
pub const TINY_VARIANTS: u64 = 8;

/// The 3-node scalar workflow of the `serve_*` workloads (the one the
/// `serve_async` stress bin uses): `a = 10`, `b = a · version`,
/// `c = b + 1`. Its work is a few microseconds, so everything measured
/// around it is the service.
pub fn tiny_workflow(variant: u64) -> Workflow {
    let version = (variant % TINY_VARIANTS) + 1;
    let mut wf = Workflow::new("tiny");
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

#[cfg(test)]
mod tests {
    use super::*;

    fn count(script: &[ChangeKind], kind: ChangeKind) -> usize {
        script.iter().filter(|k| **k == kind).count()
    }

    #[test]
    fn edit_script_keeps_the_survey_mix_and_spreads_it() {
        let census = edit_script(Domain::SocialSciences);
        assert_eq!(census.len(), EDITS);
        assert_eq!(
            [ChangeKind::Dpr, ChangeKind::LI, ChangeKind::Ppr].map(|k| count(&census, k)),
            [6, 4, 10]
        );
        // Evenly interleaved: each half of the script has half the mix.
        assert_eq!(count(&census[..EDITS / 2], ChangeKind::Dpr), 3);
        assert_eq!(count(&census[..EDITS / 2], ChangeKind::Ppr), 5);
        let mnist = edit_script(Domain::ComputerVision);
        assert_eq!(
            [ChangeKind::Dpr, ChangeKind::LI, ChangeKind::Ppr].map(|k| count(&mnist, k)),
            [4, 10, 6]
        );
        assert_eq!(count(&edit_script(Domain::NaturalSciences), ChangeKind::LI), 8);
        assert_eq!(count(&edit_script(Domain::Nlp), ChangeKind::Dpr), EDITS);
        assert_eq!(census, edit_script(Domain::SocialSciences));
    }

    #[test]
    fn arrivals_repeat_for_a_seed_and_keep_the_rate() {
        let span = Duration::from_secs(2);
        let a = arrivals(4000.0, span, 3);
        assert_eq!(a, arrivals(4000.0, span, 3));
        assert_ne!(a, arrivals(4000.0, span, 4));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|last| *last < span));
        // 8000 expected arrivals; the standard deviation is about 90.
        assert!((7500..8500).contains(&a.len()), "{}", a.len());
    }
}
