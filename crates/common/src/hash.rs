//! Stable, fast hashing for operator signatures and change tracking.
//!
//! HELIX decides whether an intermediate result can be reused by comparing
//! *signatures*: Merkle-chain hashes of an operator's declaration and the
//! signatures of its parents (paper §4.2, Definition 2/3). Those hashes must
//! be
//!
//! 1. **stable across process runs** (results are materialized to disk and
//!    looked up in later sessions), which rules out `std`'s randomly seeded
//!    `DefaultHasher`, and
//! 2. **fast**, because signatures are recomputed for the whole DAG on every
//!    iteration.
//!
//! We implement the FxHash mixing function (the rustc hasher — multiply by a
//! 64-bit constant derived from the golden ratio and rotate), widened to a
//! 128-bit [`Signature`] by running two lanes with independent seeds. The
//! 128-bit width makes accidental collisions between materialized artifacts
//! astronomically unlikely without pulling in a cryptographic dependency.

use std::hash::Hasher;

/// Multiplicative constant used by FxHash (golden-ratio derived).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Second-lane seed (arbitrary odd constant, distinct from `SEED`).
const SEED2: u64 = 0x9e_37_79_b9_7f_4a_7c_15;

/// A deterministic 64-bit streaming hasher (FxHash algorithm).
///
/// Implements [`std::hash::Hasher`], so it can be plugged into any
/// `Hash`-implementing type, but unlike `DefaultHasher` its output is stable
/// across runs and platforms with the same endianness of inputs (we always
/// feed it explicit little-endian bytes).
#[derive(Clone, Copy, Debug)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// Create a hasher with the default lane seed.
    pub fn new() -> Self {
        StableHasher { state: 0 }
    }

    /// Create a hasher whose initial state is `seed`.
    pub fn with_seed(seed: u64) -> Self {
        StableHasher { state: seed }
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for StableHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Mix in the length so `[1]` and `[1, 0]` differ.
            self.mix(u64::from_le_bytes(buf) ^ ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// Combine two 64-bit hashes order-dependently.
///
/// `combine(a, b) != combine(b, a)` in general, which is what Merkle
/// chaining over *ordered* parent lists requires.
#[inline]
fn combine(a: u64, b: u64) -> u64 {
    (a.rotate_left(5) ^ b).wrapping_mul(SEED)
}

/// A 128-bit content signature: the identity of an operator output.
///
/// Signatures name materialized artifacts on disk and drive equivalence
/// checks between iterations (paper Definitions 2–3). Two operator outputs
/// with equal signatures are treated as interchangeable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signature(pub u128);

impl Signature {
    /// Signature of raw bytes (two independent FxHash lanes).
    pub fn of_bytes(bytes: &[u8]) -> Self {
        let mut lo = StableHasher::with_seed(0);
        let mut hi = StableHasher::with_seed(SEED2);
        lo.write(bytes);
        hi.write(bytes);
        Signature(((hi.finish() as u128) << 64) | lo.finish() as u128)
    }

    /// Signature of a string.
    pub fn of_str(s: &str) -> Self {
        Self::of_bytes(s.as_bytes())
    }

    /// Chain this signature with another (order matters).
    ///
    /// Used to fold parent signatures into a node signature:
    /// `sig = decl_sig.chain(parent1).chain(parent2)…`.
    #[must_use]
    pub fn chain(self, next: Signature) -> Signature {
        let (alo, ahi) = (self.0 as u64, (self.0 >> 64) as u64);
        let (blo, bhi) = (next.0 as u64, (next.0 >> 64) as u64);
        let lo = combine(alo, blo);
        let hi = combine(combine(ahi, bhi), lo);
        Signature(((hi as u128) << 64) | lo as u128)
    }

    /// Chain a raw 64-bit word (e.g. a version counter or nonce).
    #[must_use]
    pub fn chain_u64(self, word: u64) -> Signature {
        let (alo, ahi) = (self.0 as u64, (self.0 >> 64) as u64);
        let lo = combine(alo, word);
        let hi = combine(ahi, word.rotate_left(32) ^ SEED2);
        Signature(((hi as u128) << 64) | lo as u128)
    }

    /// Chain a 64-bit word under a *domain tag*, so words from different
    /// provenance sources can never collide with each other (or with a
    /// plain [`chain_u64`](Self::chain_u64) word): a seed of 7 and a
    /// volatile nonce of 7 folded into the same signature yield different
    /// results as long as their tags differ.
    ///
    /// This is the mixing primitive for execution-environment provenance
    /// (seeds, data versions, byte-affecting config knobs) folded into
    /// the chain-signature scheme: `sig.chain_tagged("helix/seed", seed)`.
    #[must_use]
    pub fn chain_tagged(self, tag: &str, word: u64) -> Signature {
        self.chain(Signature::of_str(tag).chain_u64(word))
    }

    /// Compact hex rendering used for catalog file names (32 hex chars).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse the [`to_hex`](Self::to_hex) rendering.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Signature)
    }
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sig:{:016x}", (self.0 >> 64) as u64 ^ self.0 as u64)
    }
}

impl std::fmt::Display for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = StableHasher::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn stable_across_instances() {
        assert_eq!(hash_bytes(b"helix"), hash_bytes(b"helix"));
        assert_ne!(hash_bytes(b"helix"), hash_bytes(b"helix2"));
    }

    #[test]
    fn short_inputs_distinguished_by_length() {
        assert_ne!(hash_bytes(&[1]), hash_bytes(&[1, 0]));
        assert_ne!(hash_bytes(&[]), hash_bytes(&[0]));
    }

    #[test]
    fn combine_is_order_dependent() {
        assert_ne!(combine(1, 2), combine(2, 1));
    }

    #[test]
    fn signature_roundtrips_hex() {
        let s = Signature::of_str("census/rows");
        assert_eq!(Signature::from_hex(&s.to_hex()), Some(s));
        assert_eq!(Signature::from_hex("xyz"), None);
        assert_eq!(Signature::from_hex(""), None);
    }

    #[test]
    fn chain_depends_on_order_and_content() {
        let a = Signature::of_str("a");
        let b = Signature::of_str("b");
        let c = Signature::of_str("c");
        assert_ne!(a.chain(b), b.chain(a));
        assert_ne!(a.chain(b).chain(c), a.chain(c).chain(b));
        assert_eq!(a.chain(b), Signature::of_str("a").chain(Signature::of_str("b")));
    }

    #[test]
    fn chain_u64_changes_signature() {
        let a = Signature::of_str("op");
        assert_ne!(a.chain_u64(1), a.chain_u64(2));
        assert_ne!(a.chain_u64(0), a);
    }

    #[test]
    fn chain_tagged_separates_domains() {
        let a = Signature::of_str("op");
        assert_ne!(a.chain_tagged("seed", 7), a.chain_tagged("nonce", 7), "tags separate");
        assert_ne!(a.chain_tagged("seed", 7), a.chain_u64(7), "tagged != untagged");
        assert_ne!(a.chain_tagged("seed", 1), a.chain_tagged("seed", 2), "word still mixes");
        assert_eq!(a.chain_tagged("seed", 7), Signature::of_str("op").chain_tagged("seed", 7));
    }

    #[test]
    fn hasher_trait_integration() {
        use std::hash::{Hash, Hasher};
        let mut h1 = StableHasher::new();
        let mut h2 = StableHasher::new();
        ("hello", 42u64).hash(&mut h1);
        ("hello", 42u64).hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }
}
