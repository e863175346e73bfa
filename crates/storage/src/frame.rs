//! The shared durable frame format.
//!
//! Every byte helix-storage persists — artifact files *and* catalog
//! journal records — is wrapped in one self-delimiting frame:
//!
//! ```text
//! +-------+---------+------+-------------+---------+-----------+--------+
//! | magic | version | kind | payload_len |  payload| prev_hash | crc32  |
//! | HXF3  |  u8     | u8   |  u64 LE     |  bytes  | u128 LE   | u32 LE |
//! +-------+---------+------+-------------+---------+-----------+--------+
//! ```
//!
//! The CRC covers everything before it (header, payload, `prev_hash`).
//! `prev_hash` chains journal frames: each frame names the chain hash of
//! its predecessor ([`chain_hash`] of the predecessor's full sealed
//! bytes; [`GENESIS_HASH`] for the first frame). Standalone artifact
//! frames carry [`GENESIS_HASH`] — they participate in the format, not
//! in any chain.
//!
//! Parsing is strict and ordered so error categories stay meaningful for
//! both the artifact decoder and the journal scanner:
//!
//! 1. **magic** — a non-`HXF3` prefix is [`FrameError::NotAFrame`]
//!    (feeding a random file is *not* reported as corruption);
//! 2. **version** — an unknown version byte is
//!    [`FrameError::UnsupportedVersion`] (a newer build's data must be
//!    refused, not misread);
//! 3. **length** — the declared frame extends past the available bytes:
//!    [`FrameError::Truncated`] (all arithmetic in `u64`; a hostile
//!    length can never wrap, truncate on 32-bit targets, or drive an
//!    allocation — the parser only ever *slices* existing bytes);
//! 4. **CRC** — [`FrameError::Corrupt`] (bit rot inside a
//!    correctly-delimited frame);
//! 5. **kind** — a CRC-valid frame of unknown kind is
//!    [`FrameError::UnknownKind`] (written by a future build; the
//!    scanner stops rather than guessing its meaning).

use helix_common::crc32::crc32;
use helix_common::hash::Signature;
use helix_common::HelixError;

/// Frame magic. Distinct from the legacy `HXM1` artifact magic so a
/// pre-journal artifact is cleanly `NotAFrame`, never misparsed.
pub const MAGIC: &[u8; 4] = b"HXF3";

/// Frame format version, and with it the catalog's
/// ([`MaterializationCatalog::FORMAT_VERSION`](crate::MaterializationCatalog::FORMAT_VERSION)
/// is defined from it): sealed-frame bytes may only change together with
/// a bump here.
pub const FORMAT_VERSION: u8 = 3;

/// Bytes before the payload: magic (4) + version (1) + kind (1) +
/// payload length (8).
pub const HEADER_LEN: usize = 14;

/// Bytes after the payload: `prev_hash` (16) + CRC-32 (4).
pub const TRAILER_LEN: usize = 20;

/// The smallest possible frame (empty payload).
pub const MIN_FRAME_LEN: usize = HEADER_LEN + TRAILER_LEN;

/// `prev_hash` of a chain's first frame, and of standalone artifact
/// frames.
pub const GENESIS_HASH: u128 = 0;

/// What a frame's payload means.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// A standalone encoded [`helix_data::Value`] (`.hxm` artifact file).
    Artifact = 0x01,
    /// Journal: full catalog snapshot (compaction point / chain genesis).
    Snapshot = 0x10,
    /// Journal: one entry inserted or replaced.
    Upsert = 0x11,
    /// Journal: one entry removed.
    Remove = 0x12,
    /// Journal: all entries removed.
    Clear = 0x13,
}

impl FrameKind {
    /// Wire byte.
    pub fn to_byte(self) -> u8 {
        self as u8
    }

    /// Parse a wire byte.
    pub fn from_byte(b: u8) -> Option<FrameKind> {
        Some(match b {
            0x01 => FrameKind::Artifact,
            0x10 => FrameKind::Snapshot,
            0x11 => FrameKind::Upsert,
            0x12 => FrameKind::Remove,
            0x13 => FrameKind::Clear,
            _ => return None,
        })
    }
}

/// Why a byte range failed to parse as a frame. The categories are
/// load-bearing: the journal scanner replays up to the first failure and
/// reports *which* failure ended the valid prefix, and the artifact
/// decoder distinguishes "not ours" from "ours but damaged".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes do not start with the frame magic.
    NotAFrame,
    /// The bytes end before the declared frame does (torn write).
    Truncated,
    /// The version byte names a format this build does not know.
    UnsupportedVersion(u8),
    /// Correctly delimited, but the CRC does not match (bit rot).
    Corrupt,
    /// CRC-valid frame whose kind byte this build does not know.
    UnknownKind(u8),
}

impl FrameError {
    /// Stable machine-readable category slug.
    pub fn category(self) -> &'static str {
        match self {
            FrameError::NotAFrame => "not-a-frame",
            FrameError::Truncated => "truncated",
            FrameError::UnsupportedVersion(_) => "unsupported-version",
            FrameError::Corrupt => "corrupt",
            FrameError::UnknownKind(_) => "unknown-kind",
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::NotAFrame => write!(f, "bad magic (not a HELIX frame)"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            FrameError::Corrupt => write!(f, "checksum mismatch (corrupt frame)"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
        }
    }
}

impl From<FrameError> for HelixError {
    fn from(e: FrameError) -> HelixError {
        HelixError::codec(e.to_string())
    }
}

/// A successfully verified frame, borrowed from the input bytes.
#[derive(Debug)]
pub struct ParsedFrame<'a> {
    /// Payload meaning.
    pub kind: FrameKind,
    /// The payload bytes (CRC-verified).
    pub payload: &'a [u8],
    /// Chain hash of the predecessor frame ([`GENESIS_HASH`] for chain
    /// heads and standalone artifacts).
    pub prev_hash: u128,
    /// Total sealed length of this frame — the next frame in a chain
    /// starts exactly here.
    pub len: usize,
}

/// Start building a frame: returns a buffer holding the header with a
/// length placeholder; append the payload, then [`seal_frame`] it.
/// `payload_hint` pre-allocates (the codec sits on the background-write
/// hot path).
pub fn begin_frame(kind: FrameKind, payload_hint: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload_hint + TRAILER_LEN);
    buf.extend_from_slice(MAGIC);
    buf.push(FORMAT_VERSION);
    buf.push(kind.to_byte());
    buf.extend_from_slice(&0u64.to_le_bytes()); // payload_len placeholder
    buf
}

/// Seal a frame begun with [`begin_frame`]: patch the payload length,
/// append `prev_hash` and the CRC. The payload is whatever was appended
/// after the header — no copy is made.
pub fn seal_frame(mut frame: Vec<u8>, prev_hash: u128) -> Vec<u8> {
    debug_assert!(frame.len() >= HEADER_LEN, "seal_frame on a non-begun buffer");
    let payload_len = (frame.len() - HEADER_LEN) as u64;
    frame[6..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    frame.extend_from_slice(&prev_hash.to_le_bytes());
    let crc = crc32(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// Verify and borrow one frame from the *front* of `bytes` (trailing
/// bytes beyond the frame are ignored — the journal scanner walks a
/// concatenation; callers of standalone frames check
/// [`ParsedFrame::len`] against the input length themselves).
pub fn parse_frame(bytes: &[u8]) -> Result<ParsedFrame<'_>, FrameError> {
    if bytes.len() < MAGIC.len() {
        // An empty or tiny prefix of the magic is a torn header; anything
        // else is simply not ours.
        return Err(if MAGIC.starts_with(bytes) {
            FrameError::Truncated
        } else {
            FrameError::NotAFrame
        });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(FrameError::NotAFrame);
    }
    if bytes.len() < 5 {
        return Err(FrameError::Truncated);
    }
    let version = bytes[4];
    if version != FORMAT_VERSION {
        return Err(FrameError::UnsupportedVersion(version));
    }
    if bytes.len() < HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let payload_len = u64::from_le_bytes(bytes[6..HEADER_LEN].try_into().unwrap());
    // All length math in u64: a corrupt 2^64-ish length must not wrap,
    // and a 2^32 + k length must not truncate to k on 32-bit targets.
    let total = (MIN_FRAME_LEN as u64).checked_add(payload_len).ok_or(FrameError::Truncated)?;
    if total > bytes.len() as u64 {
        return Err(FrameError::Truncated);
    }
    let total = total as usize; // <= bytes.len(), so the cast is exact
    let body_end = total - 4;
    let stored_crc = u32::from_le_bytes(bytes[body_end..total].try_into().unwrap());
    if crc32(&bytes[..body_end]) != stored_crc {
        return Err(FrameError::Corrupt);
    }
    let kind = FrameKind::from_byte(bytes[5]).ok_or(FrameError::UnknownKind(bytes[5]))?;
    let hash_start = body_end - 16;
    let prev_hash = u128::from_le_bytes(bytes[hash_start..body_end].try_into().unwrap());
    Ok(ParsedFrame {
        kind,
        payload: &bytes[HEADER_LEN..HEADER_LEN + payload_len as usize],
        prev_hash,
        len: total,
    })
}

/// The chain hash of a sealed frame: what the *next* frame must carry as
/// `prev_hash`. Covers the full sealed bytes (CRC included), so any
/// accepted mutation of a frame would break every successor.
pub fn chain_hash(frame: &[u8]) -> u128 {
    Signature::of_bytes(frame).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(kind: FrameKind, payload: &[u8], prev: u128) -> Vec<u8> {
        let mut buf = begin_frame(kind, payload.len());
        buf.extend_from_slice(payload);
        seal_frame(buf, prev)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let frame = sealed(FrameKind::Upsert, b"payload bytes", 0xDEAD_BEEF);
        let parsed = parse_frame(&frame).unwrap();
        assert_eq!(parsed.kind, FrameKind::Upsert);
        assert_eq!(parsed.payload, b"payload bytes");
        assert_eq!(parsed.prev_hash, 0xDEAD_BEEF);
        assert_eq!(parsed.len, frame.len());
    }

    #[test]
    fn empty_payload_is_min_frame_len() {
        let frame = sealed(FrameKind::Clear, b"", GENESIS_HASH);
        assert_eq!(frame.len(), MIN_FRAME_LEN);
        assert_eq!(parse_frame(&frame).unwrap().payload, b"");
    }

    #[test]
    fn trailing_bytes_are_ignored_and_len_delimits() {
        let mut two = sealed(FrameKind::Upsert, b"first", 7);
        let first_len = two.len();
        two.extend_from_slice(&sealed(FrameKind::Remove, b"second", 9));
        let first = parse_frame(&two).unwrap();
        assert_eq!(first.payload, b"first");
        let second = parse_frame(&two[first.len..]).unwrap();
        assert_eq!(second.payload, b"second");
        assert_eq!(first.len, first_len);
    }

    #[test]
    fn error_order_magic_before_everything() {
        // A random file: NotAFrame, never "corrupt".
        assert_eq!(parse_frame(b"random file contents here").unwrap_err(), FrameError::NotAFrame);
        assert_eq!(parse_frame(b"Z").unwrap_err(), FrameError::NotAFrame);
        // A torn prefix of the magic itself: Truncated.
        assert_eq!(parse_frame(b"HX").unwrap_err(), FrameError::Truncated);
        assert_eq!(parse_frame(b"").unwrap_err(), FrameError::Truncated);
    }

    #[test]
    fn version_checked_before_length_and_crc() {
        let mut frame = sealed(FrameKind::Upsert, b"x", GENESIS_HASH);
        frame[4] = 99;
        // CRC is stale now, but version must win.
        assert_eq!(parse_frame(&frame).unwrap_err(), FrameError::UnsupportedVersion(99));
    }

    #[test]
    fn truncation_at_every_cut_is_truncated() {
        let frame = sealed(FrameKind::Snapshot, b"some payload", GENESIS_HASH);
        for cut in 0..frame.len() {
            assert_eq!(
                parse_frame(&frame[..cut]).unwrap_err(),
                FrameError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn hostile_length_is_truncated_not_wrapped() {
        let mut frame = sealed(FrameKind::Upsert, b"x", GENESIS_HASH);
        frame[6..HEADER_LEN].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(parse_frame(&frame).unwrap_err(), FrameError::Truncated);
        // 2^32 + 1: on a 32-bit usize this must not truncate to 1.
        let mut frame = sealed(FrameKind::Upsert, b"x", GENESIS_HASH);
        frame[6..HEADER_LEN].copy_from_slice(&((1u64 << 32) + 1).to_le_bytes());
        assert_eq!(parse_frame(&frame).unwrap_err(), FrameError::Truncated);
    }

    #[test]
    fn any_single_bit_flip_in_the_body_is_detected() {
        let frame = sealed(FrameKind::Upsert, b"sensitive payload", 42);
        for i in 5..frame.len() {
            // (skip magic/version bytes: those flip the category, which
            // is tested above; every *other* byte must read as damage)
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[i] ^= 1 << bit;
                assert!(parse_frame(&bad).is_err(), "flip byte {i} bit {bit} undetected");
            }
        }
    }

    #[test]
    fn unknown_kind_survives_crc_and_is_distinct() {
        let mut buf = begin_frame(FrameKind::Upsert, 1);
        buf.push(b'p');
        let mut frame = seal_frame(buf, GENESIS_HASH);
        frame[5] = 0x7F; // future kind; re-seal the CRC over the mutation
        let body_end = frame.len() - 4;
        let crc = crc32(&frame[..body_end]);
        frame[body_end..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(parse_frame(&frame).unwrap_err(), FrameError::UnknownKind(0x7F));
    }

    #[test]
    fn chain_hash_changes_with_any_byte() {
        let a = sealed(FrameKind::Upsert, b"a", GENESIS_HASH);
        let b = sealed(FrameKind::Upsert, b"b", GENESIS_HASH);
        assert_ne!(chain_hash(&a), chain_hash(&b));
        assert_ne!(chain_hash(&a), GENESIS_HASH);
    }
}
