//! The operator abstraction behind every Workflow DAG node.
//!
//! A node is "the output of `f_i`" (paper Definition 1); [`NodeSpec`]
//! bundles the executable `f_i` with everything the compiler and tracker
//! need to know about it: its declaration signature (for representational
//! equivalence, §4.2), its workflow phase (for the Figure 6 breakdown), and
//! whether it is volatile (non-deterministic, like the MNIST random
//! Fourier projection).

use helix_common::hash::Signature;
use helix_common::Result;
use helix_common::SplitMix64;
use helix_data::Value;
use helix_exec::{Phase, WorkerPool};
use std::sync::Arc;

/// Runtime context handed to operators.
pub struct ExecContext {
    /// Data-parallel worker pool (paper: Spark executors).
    pub pool: WorkerPool,
    /// Deterministic per-node seed (session seed ⊕ node signature).
    seed: u64,
    /// Whether the operator read the seed (via [`seed`](Self::seed) or
    /// [`rng`](Self::rng)). The engine checks this against the
    /// operator's [`Operator::byte_affecting_inputs`] declaration after
    /// every execution: an operator that consumes the seed without
    /// declaring it would be keyed seed-independently and silently
    /// poison cross-tenant reuse, so that is a hard error.
    seed_read: std::sync::atomic::AtomicBool,
}

impl ExecContext {
    /// A context over `pool` with a resolved per-node seed.
    pub fn new(pool: WorkerPool, seed: u64) -> ExecContext {
        ExecContext { pool, seed, seed_read: std::sync::atomic::AtomicBool::new(false) }
    }

    /// A serial context for tests.
    pub fn serial(seed: u64) -> ExecContext {
        Self::new(WorkerPool::serial(), seed)
    }

    /// The deterministic per-node seed. Reading it marks the execution
    /// seed-dependent; the operator must declare
    /// [`ProvenanceInputs::SEED`] (see [`SeededOperator`] for closures).
    pub fn seed(&self) -> u64 {
        self.seed_read.store(true, std::sync::atomic::Ordering::Relaxed);
        self.seed
    }

    /// A fresh deterministic RNG for this execution (marks the execution
    /// seed-dependent, like [`seed`](Self::seed)).
    pub fn rng(&self) -> SplitMix64 {
        SplitMix64::new(self.seed())
    }

    /// Whether [`seed`](Self::seed)/[`rng`](Self::rng) were consulted.
    pub fn seed_was_read(&self) -> bool {
        self.seed_read.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Which execution-environment inputs can change an operator's *output
/// bytes*. The tracker folds exactly these into the operator's chain
/// signature (see `helix_core::track`), so artifacts are keyed by full
/// provenance: a stochastic operator run under two different seeds gets
/// two different signatures, while a deterministic operator keeps one
/// signature across environments and stays shareable.
///
/// Deliberately *excluded* from this set is everything that cannot
/// change bytes: worker counts, core budgets, storage budgets, cache
/// policy — the engine's determinism contract guarantees those only
/// move time, never results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ProvenanceInputs(u8);

impl ProvenanceInputs {
    /// Output bytes are a pure function of the inputs: nothing from the
    /// environment needs to be folded into the signature.
    pub const NONE: ProvenanceInputs = ProvenanceInputs(0);
    /// Output bytes depend on the session seed ([`ExecContext::seed`] /
    /// [`ExecContext::rng`]).
    pub const SEED: ProvenanceInputs = ProvenanceInputs(1);

    /// Whether every input named by `other` is also named by `self`.
    pub fn contains(self, other: ProvenanceInputs) -> bool {
        self.0 & other.0 == other.0
    }

    /// The union of two input sets.
    #[must_use]
    pub fn union(self, other: ProvenanceInputs) -> ProvenanceInputs {
        ProvenanceInputs(self.0 | other.0)
    }

    /// Whether no environment input affects the output.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// An executable workflow operator.
///
/// Operators are pure functions of their inputs plus the environment
/// inputs they *declare* via
/// [`byte_affecting_inputs`](Operator::byte_affecting_inputs); *declared*
/// volatility (see
/// [`NodeSpec::volatile`]) is how true non-determinism enters the model —
/// the session feeds a fresh nonce into the seed of a volatile operator
/// each time it actually re-executes.
pub trait Operator: Send + Sync {
    /// Compute the node's output from resolved input values.
    fn execute(&self, inputs: &[Arc<Value>], ctx: &ExecContext) -> Result<Value>;

    /// Which execution-environment inputs can change this operator's
    /// output bytes. The default — [`ProvenanceInputs::NONE`] — declares
    /// the operator deterministic with respect to the environment: it
    /// must not consume [`ExecContext::seed`] or [`ExecContext::rng`].
    /// Operators that do (stochastic learners, seeded samplers) must
    /// override this so the tracker keys their artifacts by seed; wrap
    /// closures in [`SeededOperator`] to get the declaration for free.
    fn byte_affecting_inputs(&self) -> ProvenanceInputs {
        ProvenanceInputs::NONE
    }
}

/// Blanket operator for plain closures. Closures get the default
/// [`ProvenanceInputs::NONE`] declaration — a closure UDF that draws on
/// the context seed or RNG must be wrapped in [`SeededOperator`] instead,
/// or tenants with different seeds would silently share its artifacts.
impl<F> Operator for F
where
    F: Fn(&[Arc<Value>], &ExecContext) -> Result<Value> + Send + Sync,
{
    fn execute(&self, inputs: &[Arc<Value>], ctx: &ExecContext) -> Result<Value> {
        self(inputs, ctx)
    }
}

/// Wrapper declaring a closure operator seed-dependent: the tracker
/// folds the session seed into the node's signature, so artifacts from
/// different seeds never collide in a shared catalog.
pub struct SeededOperator<F>(pub F);

impl<F> Operator for SeededOperator<F>
where
    F: Fn(&[Arc<Value>], &ExecContext) -> Result<Value> + Send + Sync,
{
    fn execute(&self, inputs: &[Arc<Value>], ctx: &ExecContext) -> Result<Value> {
        (self.0)(inputs, ctx)
    }

    fn byte_affecting_inputs(&self) -> ProvenanceInputs {
        ProvenanceInputs::SEED
    }
}

/// Everything the compiler knows about one DAG node.
pub struct NodeSpec {
    /// Unique, stable operator name (identity for cross-iteration state
    /// such as volatile nonces; reuse identity is the *signature*).
    pub name: String,
    /// Workflow component for run-time breakdowns.
    pub phase: Phase,
    /// Signature of the operator *declaration*: type + parameters + UDF
    /// version token. Parent linkage is chained in by the tracker.
    pub decl_sig: Signature,
    /// Declared non-determinism: re-execution yields different results.
    pub volatile: bool,
    /// Marked `is_output()` in the DSL.
    pub is_output: bool,
    /// The executable.
    pub operator: Arc<dyn Operator>,
}

impl std::fmt::Debug for NodeSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeSpec")
            .field("name", &self.name)
            .field("phase", &self.phase)
            .field("decl_sig", &self.decl_sig)
            .field("volatile", &self.volatile)
            .field("is_output", &self.is_output)
            .finish_non_exhaustive()
    }
}

/// Helper to build declaration signatures: hash the operator type name and
/// an ordered list of parameter renderings.
pub fn decl_signature(op_type: &str, params: &[&str]) -> Signature {
    let mut sig = Signature::of_str(op_type);
    for p in params {
        sig = sig.chain(Signature::of_str(p));
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_data::Scalar;

    #[test]
    fn closure_operators_execute() {
        let op = |_inputs: &[Arc<Value>], ctx: &ExecContext| {
            Ok(Value::Scalar(Scalar::I64(ctx.seed() as i64)))
        };
        let out = op.execute(&[], &ExecContext::serial(7)).unwrap();
        assert_eq!(out.as_scalar().unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn decl_signature_orders_params() {
        let a = decl_signature("Learner", &["LR", "reg=0.1"]);
        let b = decl_signature("Learner", &["LR", "reg=0.2"]);
        let c = decl_signature("Learner", &["reg=0.1", "LR"]);
        assert_ne!(a, b, "parameter change must change the signature");
        assert_ne!(a, c, "parameter order is significant");
        assert_eq!(a, decl_signature("Learner", &["LR", "reg=0.1"]));
    }

    #[test]
    fn context_rng_is_seed_deterministic() {
        let a = ExecContext::serial(5).rng().next_u64();
        let b = ExecContext::serial(5).rng().next_u64();
        let c = ExecContext::serial(6).rng().next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn provenance_inputs_algebra() {
        assert!(ProvenanceInputs::NONE.is_empty());
        assert!(!ProvenanceInputs::SEED.is_empty());
        assert!(ProvenanceInputs::SEED.contains(ProvenanceInputs::NONE));
        assert!(ProvenanceInputs::SEED.contains(ProvenanceInputs::SEED));
        assert!(!ProvenanceInputs::NONE.contains(ProvenanceInputs::SEED));
        assert_eq!(ProvenanceInputs::NONE.union(ProvenanceInputs::SEED), ProvenanceInputs::SEED);
    }

    #[test]
    fn closures_default_to_no_provenance_and_seeded_wrapper_declares_seed() {
        let plain = |_inputs: &[Arc<Value>], _ctx: &ExecContext| Ok(Value::Scalar(Scalar::I64(1)));
        assert_eq!(Operator::byte_affecting_inputs(&plain), ProvenanceInputs::NONE);
        let seeded = SeededOperator(|_inputs: &[Arc<Value>], ctx: &ExecContext| {
            Ok(Value::Scalar(Scalar::I64(ctx.seed() as i64)))
        });
        assert_eq!(seeded.byte_affecting_inputs(), ProvenanceInputs::SEED);
        let out = seeded.execute(&[], &ExecContext::serial(9)).unwrap();
        assert_eq!(out.as_scalar().unwrap().as_f64(), Some(9.0));
    }
}
