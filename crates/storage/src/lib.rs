//! # helix-storage
//!
//! The materialization substrate of the HELIX reproduction (the paper ran
//! on local HDD / HDFS under Spark; we provide the equivalent single-node
//! store):
//!
//! * [`frame`] — the shared durable frame format: every persisted byte
//!   (artifact files and journal records alike) is one self-delimiting
//!   `[magic | version | kind | payload | prev-hash | crc32]` frame, so
//!   torn writes and bit rot are detected per-frame with distinct error
//!   categories (not-a-frame vs truncated vs corrupt).
//! * [`codec`] — the binary artifact codec for every
//!   [`helix_data::Value`]: one sealed artifact frame whose payload is
//!   varint-framed, little-endian fields; decoding rejects bad magic,
//!   unknown versions, truncation, and bit rot, and enforces exact-length
//!   consumption.
//! * [`journal`] — the append-only, hash-chained catalog journal: each
//!   commit appends one O(entry) frame; recovery scans, verifies CRC +
//!   chain linkage, and replays the longest valid prefix.
//! * [`disk`] — [`DiskProfile`]: bandwidth/seek throttling that emulates
//!   the paper's storage hardware (§6.3: 170 MB/s HDD) on top of real file
//!   I/O, so compute-vs-load trade-offs keep the paper's shape on fast
//!   local disks. Unthrottled profiles are used in unit tests.
//! * [`catalog`] — the [`MaterializationCatalog`]: a directory of artifacts
//!   keyed by 128-bit operator-output signatures, made durable by the
//!   journal, with byte accounting for the storage budget (paper §6.3
//!   uses 10 GB), purge support for deprecated results, measured
//!   load/write times that feed OPT-EXEC-PLAN, and [`RecoveryStats`]
//!   describing what the last open had to repair.

pub mod catalog;
pub mod codec;
pub mod disk;
pub mod frame;
pub mod journal;

pub use catalog::{
    CatalogEntry, EvictionKind, EvictionRecord, MaterializationCatalog, RecoveryStats, SweepFailure,
};
pub use codec::{decode_value, encode_value, encoded_len};
pub use disk::DiskProfile;
pub use frame::{FrameError, FrameKind};
