//! # helix-common
//!
//! Foundation utilities shared by every crate in the HELIX reproduction:
//!
//! * [`error`] — the workspace-wide error type and `Result` alias.
//! * [`hash`] — a fast, *stable* (cross-run deterministic) 64/128-bit hasher
//!   used for operator signatures and change tracking.
//! * [`crc32`] — slicing-by-16 CRC-32 (IEEE) used by the storage codec.
//! * [`rng`] — a tiny deterministic PRNG (SplitMix64) for seeded workload
//!   generation independent of external crates.
//! * [`fmt`] — human-readable byte / duration formatting for reports.
//! * [`ring`] — a bounded history log with oldest-first eviction and an
//!   explicit drop counter, plus the workspace-wide `BOUNDED_LOG_CAP`.
//! * [`timing`] — a monotonic stopwatch and nanosecond conventions.
//!
//! HELIX's optimizers reason about *nanosecond integer costs* everywhere
//! (see `helix-flow::oep`); this crate fixes those conventions.

pub mod crc32;
pub mod error;
pub mod fmt;
pub mod hash;
pub mod ring;
pub mod rng;
pub mod timing;

pub use error::{HelixError, Result};
pub use hash::{Signature, StableHasher};
pub use ring::{RingLog, BOUNDED_LOG_CAP};
pub use rng::SplitMix64;
pub use timing::{Nanos, Stopwatch};
